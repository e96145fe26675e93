"""Hot numeric kernels.

The k-means assignment and the gradient mode of the pairwise margin loss
work in Gram form, one BLAS matmul per matrix. pairwise_margin_loss takes
one feature matrix; stacked_margin_loss takes a stack of them, such as a
training step's every (domain, seed) slice, in one call. Squared
distances come from ||a||^2 + ||b||^2 - 2 a.b, clamped at zero (the
cancellation guard of scikit-learn's euclidean_distances), so each pair's
squared distance carries an absolute error of a few ulps of
||a||^2 + ||b||^2; the k-means inertia is summed from explicit
differences. Gram-form results are bit-reproducible for a given numpy and
BLAS build at a fixed BLAS thread count: a multithreaded matmul may split
its sums differently. The loss-only mode of the pairwise margin loss
forms each different-label pair from explicit differences and uses no
BLAS.

stacked_margin_loss trims its n x n passes without moving a bit: label
flags compared in the narrowest label dtype, the masked copy by
np.putmask, pair weights from int8 flags, and their row sums, which are
small integers and so exact in any order, from a matrix-vector product.
"""

import numpy as np

BACKEND = "numpy"

# Explicit differences are formed in tiles of at most this many float64
# elements (512 KiB), whatever the number of rows.
_TILE = 1 << 16


def pairwise_margin_loss(features, labels, margin, gradient=True):
    """Mean over all ordered pairs of: squared distance for same-label
    pairs, hinge max(0, margin - squared distance) for different-label
    pairs.

    Returns (loss, gradient w.r.t. features). The hinge contributes
    nothing at distance == margin (inactive subgradient). With
    gradient=False it returns (loss, None). Only the gradient mode, which
    is stacked_margin_loss on one matrix, allocates n x n buffers and
    calls a matmul.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if gradient:
        loss, grad = stacked_margin_loss(features, labels, margin)
        return float(loss), grad
    n = features.shape[0]
    return _grouped_pairs(features, labels, float(margin)) / float(n * n), None


def stacked_margin_loss(features, labels, margin):
    """pairwise_margin_loss's gradient mode, loss and gradient, of every
    (rows, columns) matrix of a stack of features (..., rows,
    columns) with labels (..., rows), in one batched matmul.

    Returns (loss of shape (...), gradient of the shape of features).
    Each matrix is its own problem, and its loss and gradient hold the
    bits of a pairwise_margin_loss call on that matrix alone. labels may
    have any integer dtype; a narrow one compares fastest.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    margin = float(margin)
    lead, n = features.shape[:-2], features.shape[-2]

    # Two n x n buffers per matrix do all the work, in place: page faults
    # on fresh temporaries dominate at evaluation sizes. The diagonal of
    # dist comes out as an exact zero. The Gram product takes a transposed
    # copy: numpy sends an array times its own transpose view to BLAS syrk
    # and mirrors the triangle, two to three times slower at a step's batch
    # shapes, where both give the same bits (tests/test_kernels.py).
    dist = features @ np.ascontiguousarray(features.mT)
    norms = np.diagonal(dist, axis1=-2, axis2=-1).copy()
    dist *= -2.0
    dist += norms[..., :, None]
    dist += norms[..., None, :]
    np.maximum(dist, 0.0, out=dist)
    buf = np.empty_like(dist)
    same = labels[..., :, None] == labels[..., None, :]

    # buf holds the hinge, then each pair's loss term, then its weight.
    hinge = np.subtract(margin, dist, out=buf)
    np.maximum(hinge, 0.0, out=hinge)
    # Active hinges: different labels, inside the margin (True > False).
    active = hinge > 0.0
    np.greater(active, same, out=active)
    np.putmask(hinge, same, dist)
    loss = hinge.reshape(lead + (n * n,)).sum(axis=-1)

    # coef is d(term)/d(dist): +1 on same-label pairs, -1 on active hinges
    # (the flags as int8 subtract exactly).
    coef = np.subtract(same.view(np.int8), active.view(np.int8), out=buf)
    coef.reshape(lead + (n * n,))[..., :: n + 1] = 0.0
    # w = 2 coef, and w[i, j] * (f_i - f_j) is pair (i, j)'s gradient on
    # f_i. w is symmetric up to rounding, so both orderings together give
    # 2 * (rowsum(w) f - w f). Doubling is exact, so w f is 2 (coef f) bit
    # for bit, and a row of coef sums small integers, exactly in any order:
    # a matrix-vector product gives the bits of coef.sum(axis=-1).
    rowsum = 2.0 * (coef @ np.ones(n))
    grad = np.zeros_like(features)
    grad += 2.0 * (rowsum[..., None] * features - 2.0 * (coef @ features))
    inv = 1.0 / float(n * n)
    return loss * inv, grad * inv


def _grouped_pairs(features, labels, margin):
    """The sum over all ordered pairs that pairwise_margin_loss averages.

    Rows are grouped by label. A group's pairs take the closed form
    sum_ij ||f_i - f_j||^2 = 2 m sum_i ||f_i - mean||^2; every pair of
    different labels is formed once from explicit differences and counted
    twice.
    """
    order = np.argsort(labels, kind="stable")
    feats = features[order]
    # A group ends where the sorted labels change, and the last at the last
    # row: np.unique(labels, return_counts=True) would sort them again.
    grouped = labels[order]
    ends = [*(np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist(), len(grouped)]
    same = cross = 0.0
    start = 0
    for end in ends:
        centred = feats[start:end] - feats[start:end].mean(axis=0)
        same += 2.0 * (end - start) * float(np.einsum("ij,ij->", centred, centred))
        cross += _hinge_sum(feats[start:end], feats[end:], margin)
        start = end
    return same + 2.0 * cross


def _hinge_sum(a, b, margin):
    """Sum over the row pairs (i of a, j of b) of the hinge
    max(0, margin - ||a_i - b_j||^2), in tiles of at most _TILE elements.
    """
    dim = a.shape[1]
    cols = max(1, min(len(b), _TILE // dim))
    rows = max(1, _TILE // (cols * dim))
    total = 0.0
    for j in range(0, len(b), cols):
        for i in range(0, len(a), rows):
            diff = a[i:i + rows, None] - b[None, j:j + cols]
            dist = np.einsum("ijk,ijk->ij", diff, diff)
            np.subtract(margin, dist, out=dist)
            np.maximum(dist, 0.0, out=dist)
            total += float(dist.sum())
            # Free the tile before the next one is formed.
            del diff, dist
    return total


def kmeans_assign(points, centers):
    """Assign each point to its nearest center (ties to the lowest index).

    Returns (assignments, inertia) where inertia is the summed squared
    distance to the assigned centers.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    # ||p||^2 is the same for every center of a row, so it is left out.
    scores = np.einsum("ij,ij->i", centers, centers) - 2.0 * (points @ centers.T)
    assign = np.argmin(scores, axis=1).astype(np.int64)
    diff = points - centers[assign]
    inertia = float((diff * diff).sum(axis=1).sum())
    return assign, inertia
