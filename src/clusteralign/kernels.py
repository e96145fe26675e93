"""Hot numeric kernels in Gram form: one BLAS matmul per call.

Squared distances come from ||a||^2 + ||b||^2 - 2 a.b, clamped at zero
(the cancellation guard of scikit-learn's euclidean_distances), so each
pair's squared distance carries an absolute error of a few ulps of
||a||^2 + ||b||^2. Where that is too coarse, the exact quantity is taken
from explicit differences: near-duplicate pairs under the euclidean
metric, whose gradient weight 1/dist would amplify it, and the k-means
inertia. Results are bit-reproducible for a given numpy and BLAS build at
a fixed BLAS thread count: a multithreaded matmul may split its sums
differently.
"""

import numpy as np

BACKEND = "numpy"

# Under the euclidean metric, pairs whose Gram-form squared distance is at
# most this fraction of ||a||^2 + ||b||^2 use explicit differences.
_NEAR = 1e-6


def pairwise_margin_loss(features, labels, margin, squared=True):
    """Mean over all ordered pairs of: distance for same-label pairs,
    hinge max(0, margin - distance) for different-label pairs.

    Returns (loss, gradient w.r.t. features). The hinge contributes
    nothing at distance == margin (inactive subgradient).
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    margin = float(margin)
    n = features.shape[0]

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
