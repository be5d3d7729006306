"""Lloyd k-means with k-means++ seeding, replicates and empty-cluster repair.

Squared distances use the norm expansion |x - c|^2 = |x|^2 + |c|^2 - 2 x.c,
clipped at 0. The squared row norms of the points are computed once for the
seeding of a ``kmeans`` call and once per Lloyd run, so each k-means++ step
is one GEMV (the chosen point's own distance set to exactly 0) and each
assignment one GEMM into a q x k buffer reused across iterations. The
centroid update is one grouped sum, a sparse one-hot (k x q) product divided
by the cluster sizes. It adds each cluster's points in point order, as a
masked mean does, so from given centroids the Lloyd iterations match a
per-cluster loop bit for bit when the points have more than one column (numpy
sums a one-column mean pairwise).

The k-means++ draws are unchanged by this formulation: ``rng.integers`` for
the first centroid, then ``rng.choice(q, p=D^2 / sum D^2)`` for each next one
(``rng.integers`` when every distance is 0), in that order. A seed therefore
draws the same centroids as the per-point difference ((x - c)^2).sum(),
unless a draw falls within rounding of a boundary of the cumulative D^2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)


# Lloyd runs per call, each from its own k-means++ seeding; the best inertia wins
REPLICATES = 20
MAX_ITERS = 100
# a run stops when its inertia falls by at most this fraction
TOL = 1e-6


@dataclass
class Labeling:
    labels: np.ndarray
    inertia: float
    iterations_run: int


def _seed_centroids(points: np.ndarray, pp: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: D^2 sampling; ``pp`` holds the squared row norms of ``points``."""
    q = points.shape[0]
    picks = np.empty(k, dtype=np.int64)
    picks[0] = rng.integers(q)
    d2 = np.full(q, np.inf)
    dist = np.empty(q)
    for j in range(1, k):
        i = picks[j - 1]
        # |x - c|^2 = |x|^2 + |c|^2 - 2 x.c: one GEMV; the chosen point is exactly 0
        np.dot(points, points[i], out=dist)
        dist *= -2.0
        dist += pp
        dist += pp[i]
        np.maximum(dist, 0.0, out=dist)
        dist[i] = 0.0
        np.minimum(d2, dist, out=d2)
        total = d2.sum()
        if total > 0:
            picks[j] = rng.choice(q, p=d2 / total)
        else:
            picks[j] = rng.integers(q)
    return points[picks]


def _lloyd(points, centroids, max_iters, tol):
    q = points.shape[0]
    k = centroids.shape[0]
    pp = (points * points).sum(axis=1)[:, None]
    rows = np.arange(q)
    column_ptr = np.arange(q + 1)
    ones = np.ones(q)
    cross = np.empty((q, k))
    dist = np.empty((q, k))
    labels = np.zeros(q, dtype=np.int64)
    inertia = np.inf
    iters = 0
    for it in range(max_iters):
        # (q, k) squared distances pp + cc - 2 P C^T, clipped at 0 for safety
        np.matmul(points, centroids.T, out=cross)
        cross *= 2.0
        np.add(pp, (centroids * centroids).sum(axis=1), out=dist)
        dist -= cross
        np.maximum(dist, 0.0, out=dist)
        labels = dist.argmin(axis=1)  # argmin takes first minimum: ties go to lowest index
        point_d2 = dist[rows, labels]
        new_inertia = float(point_d2.sum())
        iters = it + 1
        # centroid update: one grouped sum, the product with the (k, q) one-hot
        # matrix in CSC form (column i holds one 1, in row labels[i]); it adds
        # each cluster's points in point order, as a masked mean does
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        sums = sp.csc_array((ones, labels, column_ptr), shape=(k, q)) @ points
        centroids[filled] = sums[filled] / counts[filled, None]
        empty = np.flatnonzero(~filled)
        for j in empty:
            # reseed at the point farthest from its current centroid
            far = int(point_d2.argmax())
            centroids[j] = points[far]
            point_d2[far] = 0.0  # successive empty clusters pick distinct points
        repaired = empty.size > 0
        if not repaired and inertia - new_inertia <= tol * max(new_inertia, np.finfo(float).tiny):
            inertia = new_inertia
            break
        inertia = new_inertia
    return labels, inertia, iters


def kmeans(points: np.ndarray, k: int, seed: int) -> Labeling:
    """Best-inertia labeling over ``REPLICATES`` seeded Lloyd runs.

    Deterministic under a fixed seed (replicates use independent spawned
    streams, executed in order).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    q = points.shape[0]
    if q < k:
        raise ValueError(f"need at least k={k} points, got {q}")

    pp = (points * points).sum(axis=1)
    best: Labeling | None = None
    for ss in np.random.SeedSequence(seed).spawn(REPLICATES):
        rng = np.random.default_rng(ss)
        centroids = _seed_centroids(points, pp, k, rng)
        labels, inertia, iters = _lloyd(points, centroids, MAX_ITERS, TOL)
        if best is None or inertia < best.inertia:
            best = Labeling(labels=labels, inertia=inertia, iterations_run=iters)
    assert best is not None
    return best


def labels_to_indicators(labels: np.ndarray, k: int, n: int) -> np.ndarray:
    """One-hot (n, k) matrix whose columns are the cluster indicator vectors.

    Rows sum to one; an empty cluster yields an all-zero column (warned).
    """
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError("labels out of range [0, k)")
    out = np.zeros((n, k))
    out[np.arange(n), labels] = 1.0
    empty = np.flatnonzero(out.sum(axis=0) == 0)
    if empty.size:
        logger.warning("empty cluster(s) %s: indicator columns are all-zero", empty.tolist())
    return out
