"""Lloyd k-means with k-means++ seeding, replicates and empty-cluster repair.

Squared distances use the norm expansion |x - c|^2 = |x|^2 + |c|^2 - 2 x.c,
clipped at 0. ``kmeans`` computes the squared norms |x|^2 once, on the
caller's array, and hands them to the seeding and to every Lloyd run. They
are taken on the caller's array because numpy sums the short rows of an
F-ordered array (SC's eigenvector block) in another order than those of a
C-ordered copy, which moves the inertia by an ulp.

The ``REPLICATES`` k-means++ seedings of a ``kmeans`` call run in lockstep:
at each step one GEMM of the R chosen points against a C-ordered transpose
of all q points (the caller's F-ordered array's own transpose, or one copy
of a C-ordered one) gives an (R, q) block of distances (each chosen point's
own entry set to exactly 0), folded into the (R, q) running minimum D^2,
whose row sums follow in one pass. These two (R, q) float64 buffers are the
seeding's memory: 1.6 MB at q = 5000 and 32 MB at q = 10^5 with R = 20.

The Lloyd runs then go one replicate at a time, on one C-ordered block of
the points (a copy only when the caller's array is not C-ordered). Each
assignment is one GEMM into a q x k buffer, and |c|^2 + |x|^2 go into a
second one, both reused across iterations: two q x k float64 buffers, 6.4 MB
at q = 4000, k = 100 and 32 MB at q = 10^5, k = 20. The centroid update is one
grouped sum, the product with a sparse (k x q) one-hot matrix, built once
per run and given each iteration's labels as its row indices, divided by
the cluster sizes. It adds each cluster's points in point order, as a
masked mean does, so from given centroids the Lloyd iterations match a
per-cluster loop bit for bit when the points have more than one column
(numpy sums a one-column mean pairwise). When an iteration's labels are
those of the previous one and no cluster is empty, the centroids would come
out unchanged, and the next iteration would repeat this one bit for bit and
stop: the run stops at once and counts that iteration, so
``iterations_run`` and the inertia are those of the full run.

Each replicate draws from its own stream in the order of one seeding run on
its own: ``rng.integers`` for the first centroid, then the draw of
``rng.choice(q, p=D^2 / sum D^2)`` for each next one (``rng.integers`` when
every distance is 0). ``_draw`` makes these draws for all R replicates at
once with choice's own algorithm, without its checks of p: one cumulative
sum along the rows of the (R, q) distance buffer gives every replicate's
normalized cdf (a row of zeros where the sum is 0), and each replicate
searches its own row with one ``rng.random()`` from its own stream. So it
draws the same index and leaves each stream where choice would. A seed
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


def _draw(d2: np.ndarray, rngs: list[np.random.Generator], out: np.ndarray | None = None) -> list[int]:
    """One index per row of the (R, q) ``d2``, row i drawn with ``rngs[i]``.

    The draw of ``rng.choice(q, p=d2[i] / d2[i].sum())`` without choice's
    checks of p, or of ``rng.integers(q)`` when the row sums to 0. ``out``
    may be an (R, q) buffer for the cdfs.
    """
    q = d2.shape[1]
    totals = d2.sum(axis=1)
    pos = totals > 0
    # choice's cdf, row by row: the cumulative sum of p, divided by its last entry
    cdf = np.divide(d2, np.where(pos, totals, 1.0)[:, None], out=out)
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= np.where(pos, cdf[:, -1], 1.0)[:, None]
    return [cdf[i].searchsorted(rng.random(), side="right") if pos[i] else rng.integers(q) for i, rng in enumerate(rngs)]


def _seed_picks(points: np.ndarray, pp: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ (D^2 sampling) for every stream in ``rngs`` at once: (R, k) point indices.

    ``pp`` holds the squared norms of the rows of ``points``.
    """
    q = points.shape[0]
    r = len(rngs)
    points_t = np.ascontiguousarray(points.T)
    picks = np.empty((r, k), dtype=np.int64)
    picks[:, 0] = [rng.integers(q) for rng in rngs]
    replicates = np.arange(r)
    d2 = np.full((r, q), np.inf)
    dist = np.empty((r, q))
    for j in range(1, k):
        chosen = picks[:, j - 1]
        # |x - c|^2 = |x|^2 + |c|^2 - 2 x.c for all R chosen points: one GEMM,
        # the -2 folded into it (exact); each chosen point's own entry is exactly 0
        np.matmul(points[chosen] * -2.0, points_t, out=dist)
        dist += pp
        dist += pp[chosen, None]
        np.maximum(dist, 0.0, out=dist)
        dist[replicates, chosen] = 0.0
        np.minimum(d2, dist, out=d2)
        picks[:, j] = _draw(d2, rngs, out=dist)
    return picks


def _lloyd(points, pp, centroids, max_iters, tol):
    q = points.shape[0]
    k = centroids.shape[0]
    rows = np.arange(q)
    # the (k, q) one-hot matrix in CSC form, column i holding one 1 in row
    # labels[i]: built once, its row indices overwritten by each iteration's labels
    onehot = sp.csc_array((np.ones(q), np.zeros(q, dtype=np.int64), np.arange(q + 1)), shape=(k, q))
    cross = np.empty((q, k))
    dist = np.empty((q, k))
    labels = np.zeros(q, dtype=np.int64)
    inertia = np.inf
    iters = 0
    for it in range(max_iters):
        # (q, k) squared distances pp + cc - 2 P C^T, clipped at 0 for safety
        np.matmul(points, (centroids * -2.0).T, out=cross)  # scaling by -2 is exact
        # cc copied into every row, then pp added: the fl(pp + cc) of
        # np.add(pp[:, None], cc, out=dist), a fifth faster at q = 4000, k = 100
        np.copyto(dist, (centroids * centroids).sum(axis=1))
        dist += pp[:, None]
        dist += cross
        np.maximum(dist, 0.0, out=dist)
        labels = dist.argmin(axis=1)  # argmin takes first minimum: ties go to lowest index
        point_d2 = dist[rows, labels]
        new_inertia = float(point_d2.sum())
        iters = it + 1
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        repaired = not filled.all()
        converged = inertia - new_inertia <= tol * max(new_inertia, np.finfo(float).tiny)
        # at inertia 0 no move can lower it, not even an empty-cluster repair
        if new_inertia == 0.0 or (converged and not repaired):
            inertia = new_inertia
            break
        if it > 0 and not repaired and np.array_equal(labels, onehot.indices):
            # the labels of the last update again: the centroids come out
            # unchanged, so the next iteration would repeat this one bit for
            # bit and stop as converged; count it, without running it
            inertia = new_inertia
            iters = min(it + 2, max_iters)
            break
        # centroid update: one grouped sum, the product with the one-hot
        # matrix; it adds each cluster's points in point order, as a masked
        # mean does
        onehot.indices[:] = labels
        sums = onehot @ points
        centroids[filled] = sums[filled] / counts[filled, None]
        for j in np.flatnonzero(~filled):
            # reseed at the point farthest from its current centroid
            far = int(point_d2.argmax())
            centroids[j] = points[far]
            point_d2[far] = 0.0  # successive empty clusters pick distinct points
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

    # the norms of the caller's rows, whatever their memory order
    pp = (points * points).sum(axis=1)
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(REPLICATES)]
    seeds = _seed_picks(points, pp, k, rngs)
    # the Lloyd products read one C-ordered block
    block = np.ascontiguousarray(points)
    best: Labeling | None = None
    for picks in seeds:
        labels, inertia, iters = _lloyd(block, pp, block[picks], MAX_ITERS, TOL)
        if best is None or inertia < best.inertia:
            best = Labeling(labels=labels, inertia=inertia, iterations_run=iters)
    assert best is not None
    return best

