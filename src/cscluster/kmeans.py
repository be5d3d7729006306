"""Lloyd k-means with k-means++ seeding, replicates and empty-cluster repair.

Squared distances use the norm expansion |x - c|^2 = |x|^2 + |c|^2 - 2 x.c,
clipped at 0. The ``REPLICATES`` k-means++ seedings of a ``kmeans`` call run
in lockstep: at each step one GEMM of the R chosen points against all q
points gives an (R, q) block of distances (each chosen point's own entry set
to exactly 0), folded into the (R, q) running minimum D^2, whose row sums
follow in one pass. These two (R, q) float64 buffers are the seeding's
memory: 1.6 MB at q = 5000 and 32 MB at q = 10^5 with R = 20. The Lloyd runs
then go one replicate at a time, each assignment one GEMM into a q x k
buffer reused across iterations. The centroid update is one grouped sum, a
sparse one-hot (k x q) product divided by the cluster sizes. It adds each
cluster's points in point order, as a masked mean does, so from given
centroids the Lloyd iterations match a per-cluster loop bit for bit when the
points have more than one column (numpy sums a one-column mean pairwise).

Each replicate draws from its own stream in the order of one seeding run on
its own: ``rng.integers`` for the first centroid, then the draw of
``rng.choice(q, p=D^2 / sum D^2)`` for each next one (``rng.integers`` when
every distance is 0). ``_draw`` is choice's own algorithm (the normalized
cumulative sum, searched for one ``rng.random()``) without its checks of p,
so it draws the same index and leaves the stream where choice would. A seed
therefore draws the same centroids as the per-point difference
((x - c)^2).sum(), unless a draw falls within rounding of a boundary of the
cumulative D^2. Non-finite points are refused before any draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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


def _draw(d2: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """``rng.choice(d2.size, p=d2 / total)`` without choice's checks of p: the same draw."""
    cdf = np.cumsum(d2 / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _seed_picks(points: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ (D^2 sampling) for every stream in ``rngs`` at once: (R, k) point indices."""
    q = points.shape[0]
    r = len(rngs)
    pp = (points * points).sum(axis=1)
    picks = np.empty((r, k), dtype=np.int64)
    picks[:, 0] = [rng.integers(q) for rng in rngs]
    replicates = np.arange(r)
    d2 = np.full((r, q), np.inf)
    dist = np.empty((r, q))
    for j in range(1, k):
        chosen = picks[:, j - 1]
        # |x - c|^2 = |x|^2 + |c|^2 - 2 x.c for all R chosen points: one GEMM,
        # the -2 folded into it (exact); each chosen point's own entry is exactly 0
        np.matmul(points[chosen] * -2.0, points.T, out=dist)
        dist += pp
        dist += pp[chosen, None]
        np.maximum(dist, 0.0, out=dist)
        dist[replicates, chosen] = 0.0
        np.minimum(d2, dist, out=d2)
        totals = d2.sum(axis=1)
        for i, rng in enumerate(rngs):
            picks[i, j] = _draw(d2[i], totals[i], rng) if totals[i] > 0 else rng.integers(q)
    return picks


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
        np.matmul(points, (centroids * -2.0).T, out=cross)  # scaling by -2 is exact
        np.add(pp, (centroids * centroids).sum(axis=1), out=dist)
        dist += cross
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
        converged = inertia - new_inertia <= tol * max(new_inertia, np.finfo(float).tiny)
        # at inertia 0 no move can lower it, not even an empty-cluster repair
        if new_inertia == 0.0 or (converged and not repaired):
            inertia = new_inertia
            break
        inertia = new_inertia
    return labels, inertia, iters


def kmeans(points: np.ndarray, k: int, seed: int) -> Labeling:
    """Best-inertia labeling over ``REPLICATES`` seeded Lloyd runs.

    Deterministic under a fixed seed: each replicate seeds from its own
    stream spawned from ``seed``, all replicates' k-means++ steps run in
    lockstep, and the Lloyd runs follow in replicate order; the first of
    equal inertias wins. Raises ``ValueError`` naming the first row of
    ``points`` that holds a NaN or an infinity.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    q = points.shape[0]
    if q < k:
        raise ValueError(f"need at least k={k} points, got {q}")

    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"points must be finite: row {int(np.argmin(finite))} is not")

    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(REPLICATES)]
    best: Labeling | None = None
    for picks in _seed_picks(points, k, rngs):
        labels, inertia, iters = _lloyd(points, points[picks], MAX_ITERS, TOL)
        if best is None or inertia < best.inertia:
            best = Labeling(labels=labels, inertia=inertia, iterations_run=iters)
    assert best is not None
    return best

