"""Hot numeric kernels.

The k-means assignment and the gradient mode of the pairwise margin loss
work in Gram form, one BLAS matmul per call: squared distances come from
||a||^2 + ||b||^2 - 2 a.b, clamped at zero (the cancellation guard of
scikit-learn's euclidean_distances), so each pair's squared distance
carries an absolute error of a few ulps of ||a||^2 + ||b||^2. Where that
is too coarse, the exact quantity is taken from explicit differences:
near-duplicate pairs under the euclidean metric, whose gradient weight
1/dist would amplify it, and the k-means inertia. Gram-form results are
bit-reproducible for a given numpy and BLAS build at a fixed BLAS thread
count: a multithreaded matmul may split its sums differently.

The loss-only mode of the pairwise margin loss uses no BLAS: its value is
the same at every BLAS thread count.
"""

import numpy as np

BACKEND = "numpy"

# Under the euclidean metric, pairs whose Gram-form squared distance is at
# most this fraction of ||a||^2 + ||b||^2 use explicit differences.
_NEAR = 1e-6

# The loss-only mode's explicit differences are formed in tiles of at most
# this many float64 elements (512 KiB), whatever the number of rows.
_TILE = 1 << 16


def pairwise_margin_loss(features, labels, margin, squared=True, gradient=True):
    """Mean over all ordered pairs of: distance for same-label pairs,
    hinge max(0, margin - distance) for different-label pairs.

    Returns (loss, gradient w.r.t. features). The hinge contributes
    nothing at distance == margin (inactive subgradient). With
    gradient=False it returns (loss, None) from the loss-only mode, which
    allocates nothing of size n x n and calls no matmul.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    margin = float(margin)
    n = features.shape[0]
    if not gradient:
        return _margin_loss_only(features, labels, margin, squared) / float(n * n), None

    # Two n x n buffers do all the work, in place: page faults on fresh
    # temporaries dominate at evaluation sizes. The diagonal of dist comes
    # out as an exact zero.
    dist = features @ features.T
    norms = dist.diagonal().copy()
    dist *= -2.0
    dist += norms[:, None]
    dist += norms[None, :]
    np.maximum(dist, 0.0, out=dist)
    buf = np.empty_like(dist)
    if not squared:
        np.add.outer(norms, norms, out=buf)
        buf *= _NEAR
        near = dist <= buf
        near.flat[:: n + 1] = False
        pairs = np.flatnonzero(near)
        rows, cols = np.divmod(pairs, n)
        diff = features[rows] - features[cols]
        dist.flat[pairs] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(dist, out=dist)
    same = labels[:, None] == labels[None, :]

    # buf holds the hinge, then each pair's loss term, then its weight.
    hinge = np.subtract(margin, dist, out=buf)
    np.maximum(hinge, 0.0, out=hinge)
    # Active hinges: different labels, inside the margin (True > False).
    active = hinge > 0.0
    np.greater(active, same, out=active)
    np.copyto(hinge, dist, where=same)
    loss = float(hinge.sum())

    # coef is d(term)/d(dist): +1 on same-label pairs, -1 on active hinges.
    coef = np.subtract(same, active, out=buf, dtype=np.float64)
    # w[i, j] * (f_i - f_j) is pair (i, j)'s gradient on f_i. w is
    # symmetric up to rounding, so both orderings together give
    # 2 * (rowsum(w) f - w f).
    if squared:
        w = np.multiply(coef, 2.0, out=coef)
    else:
        w = np.divide(coef, dist, out=coef, where=dist > 0.0)
    w.flat[:: n + 1] = 0.0
    grad = np.zeros_like(features)
    if not squared:
        # w = 1/dist is large at near pairs, where w @ f would cancel
        # f_i - f_j away: they take the exact differences instead.
        np.add.at(grad, rows, (2.0 * w.flat[pairs])[:, None] * diff)
        w.flat[pairs] = 0.0
    grad += 2.0 * (w.sum(axis=1)[:, None] * features - w @ features)
    inv = 1.0 / float(n * n)
    return loss * inv, grad * inv


def _margin_loss_only(features, labels, margin, squared):
    """The sum over all ordered pairs that pairwise_margin_loss averages.

    Rows are grouped by label. A group's squared-metric pairs take the
    closed form sum_ij ||f_i - f_j||^2 = 2 m sum_i ||f_i - mean||^2; its
    euclidean pairs, and every pair of two groups, take explicit
    differences. The two orderings of a cross-label pair are equal, so
    each is formed once and counted twice.
    """
    order = np.argsort(labels, kind="stable")
    feats = features[order]
    ends = [*(np.flatnonzero(np.diff(labels[order])) + 1), len(feats)]
    same = cross = 0.0
    start = 0
    for end in ends:
        group = feats[start:end]
        if squared:
            centred = group - group.mean(axis=0)
            same += 2.0 * len(group) * float(np.einsum("ij,ij->", centred, centred))
        else:
            same += _pair_sum(group, group, squared)
        cross += _pair_sum(group, feats[end:], squared, margin)
        start = end
    return same + 2.0 * cross


def _pair_sum(a, b, squared, margin=None):
    """Sum over all pairs (a_i, b_j) of their distance, or with a margin
    of the hinge max(0, margin - distance), from explicit differences in
    tiles of at most _TILE elements."""
    dim = a.shape[1]
    cols = max(1, min(len(b), _TILE // dim))
    rows = max(1, _TILE // (cols * dim))
    total = 0.0
    for j in range(0, len(b), cols):
        right = b[None, j:j + cols]
        for i in range(0, len(a), rows):
            diff = a[i:i + rows, None] - right
            dist = np.einsum("ijk,ijk->ij", diff, diff)
            if not squared:
                np.sqrt(dist, out=dist)
            if margin is not None:
                np.subtract(margin, dist, out=dist)
                np.maximum(dist, 0.0, out=dist)
            total += float(dist.sum())
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
