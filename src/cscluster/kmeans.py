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
once, without choice's checks of p, and draws the index choice would draw
with the same ``rng.random()``, leaving each stream where choice would. It
searches block sums instead of choice's cdf: one ``np.add.reduceat`` sums
each row of D^2 over blocks of ``DRAW_BLOCK`` entries, one cumulative sum
over the block sums gives the partial sums at the block ends, and one more
inside the block where u times the total falls finds the index. It stands
only when u times the total lies farther from both neighbouring partial sums
than 4 (q + 2) eps times the total: twice the summation error bounds of
choice's cdf (about (q + 1) eps) and of these partial sums together, so
choice's cdf has u between the same two entries. Otherwise that row builds
choice's own cdf and searches it. No draw on the SC inputs of the
benchmark's N = 5000 and N = 4000 graphs needed that fallback (k-means seeds
0-9). A seed therefore draws the same centroids as the per-point difference
((x - c)^2).sum(), unless a draw falls within rounding of a boundary of the
cumulative D^2. Non-finite points are refused before any draw. Against a
search of choice's cdf built for every row, a draw of R = 20 rows took (best
of 7 x 50 on 2 vCPUs) 0.07 ms against 0.13 ms at q = 922 (CSC at k = 100)
and 0.10 ms against 0.51 ms at q = 5000; they broke even at q = 300, and at
q = 120 (CSC at k = 20) the block sums cost 0.06 ms against 0.05 ms.

From ``BOUNDS_MIN_POINTS`` points on, Lloyd iterations skip work whose
outcome they can prove, with labels, iterations and inertia bit for bit
those of the plain iterations (Hamerly, "Making k-means even faster", SDM
2010; Elkan, ICML 2003). The first iteration computes every distance row and
keeps, per point, a lower bound on its distance to every centroid but its
own: the square root of the second-smallest squared distance minus a slack.
Every centroid update lowers it by the largest centroid shift. Each later
iteration still makes the (q, k) GEMM, a tenth of a plain iteration at
q = 5000, k = 20, and reads each point's own entry fl(fl(cc + pp) + cross)
from it, the exact value a full row would hold. Half the distance from each
centroid to its nearest other centroid is a second bound. A point gets a
full distance row, with the formula, order and first-minimum rule above,
only where its own squared distance plus the slack reaches the square of the
larger bound; elsewhere no other centroid can be nearer, not even after
rounding. Any squared distance computed here is within
(dim + 2) 2^-53 (|x| + |c|)^2 <= (dim + 2) 2^-51 max|x|^2 of the exact one,
since every centroid is a mean of points or a point; the slack,
(dim + 2) 2^-38 max|x|^2, is 2^13 times that, which also covers the rounding
of the bounds over ``MAX_ITERS`` updates. ``distance_rows`` counts the rows
computed: on the SC inputs of the benchmark's N = 5000, k = 20 graph,
158 492 of the 1 010 000 a plain run computes. Its memory is the same two
q x k buffers, the q lower bounds, q-long temporaries and the gathered cross
terms of the rows it computes.

The gate is set from synthetic unit rows (k blobs in k dimensions; k = 20
and 100; best of 8 calls per path on 2 vCPUs): against the plain iterations
the bounded ones took 10-30 % longer at q <= 500, broke even between q = 750
and 1500, and saved 13-32 % at q = 2000 and 3000. At 2000, CSC's k-means
(n = 2k ln k points: 120 at k = 20, 922 at k = 100) and SC on graphs of
fewer than 2000 nodes keep the plain iterations.
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
# from this many points on, Lloyd iterations skip the distance rows their
# bounds settle (see the module docstring)
BOUNDS_MIN_POINTS = 2000
# entries of D^2 per block of a block-sum draw
DRAW_BLOCK = 64


@dataclass
class Labeling:
    labels: np.ndarray
    inertia: float
    iterations_run: int
    # point rows given a full k-column distance row, over every replicate and executed iteration
    distance_rows: int


def _choice_index(row: np.ndarray, u: float) -> int:
    """The index ``rng.choice(q, p=row / row.sum())`` draws with the uniform ``u``.

    A search of choice's own cdf: the cumulative sum of p, divided by its
    last entry.
    """
    cdf = np.cumsum(row / row.sum())
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def _draw(d2: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """One index per row of the (R, q) ``d2``, row i drawn with ``rngs[i]``.

    The draw of ``rng.choice(q, p=d2[i] / d2[i].sum())`` without choice's
    checks of p, or of ``rng.integers(q)`` when the row sums to 0.
    """
    r, q = d2.shape
    # D^2's partial sums at the block ends, then inside the block where u * total falls
    ends = np.cumsum(np.add.reduceat(d2, np.arange(0, q, DRAW_BLOCK), axis=1), axis=1)
    total = ends[:, -1]
    pos = total > 0
    picks = np.zeros(r, dtype=np.int64)
    u = np.zeros(r)
    for i, rng in enumerate(rngs):
        if pos[i]:
            u[i] = rng.random()
        else:
            picks[i] = rng.integers(q)
    each = np.arange(r)
    target = u * total
    block = np.minimum((ends <= target[:, None]).sum(axis=1), ends.shape[1] - 1)
    start = np.where(block > 0, ends[each, block - 1], 0.0)
    cols = block[:, None] * DRAW_BLOCK + np.arange(DRAW_BLOCK)
    sums = np.cumsum(d2[each[:, None], np.minimum(cols, q - 1)], axis=1)
    sums += start[:, None]
    step = np.minimum((sums <= target[:, None]).sum(axis=1), DRAW_BLOCK - 1)
    index = cols[each, step]
    above = sums[each, step]
    below = np.where(step > 0, sums[each, step - 1], start)
    # twice the summation error bounds of choice's cdf and of these partial
    # sums together, relative to the total: beyond it from both neighbours,
    # u lies between the same two entries of choice's cdf
    margin = 4.0 * (q + 2) * np.finfo(np.float64).eps * total
    certain = pos & (index < q) & (above - target > margin) & (target - below > margin)
    picks[certain] = index[certain]
    for i in np.flatnonzero(pos & ~certain):
        picks[i] = _choice_index(d2[i], u[i])
    return picks


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
        picks[:, j] = _draw(d2, rngs)
    return picks


def _lloyd(points, pp, centroids, max_iters, tol):
    """Lloyd iterations from ``centroids`` (updated in place): labels, inertia,
    iterations run and the number of full distance rows computed."""
    q, dim = points.shape
    k = centroids.shape[0]
    rows = np.arange(q)
    # the (k, q) one-hot matrix in CSC form, column i holding one 1 in row
    # labels[i]: built once, its row indices overwritten by each iteration's labels
    onehot = sp.csc_array((np.ones(q), np.zeros(q, dtype=np.int64), np.arange(q + 1)), shape=(k, q))
    cross = np.empty((q, k))
    dist = np.empty((q, k))
    labels = np.zeros(q, dtype=np.int64)
    bounded = q >= BOUNDS_MIN_POINTS
    if bounded:
        # per point: a lower bound on the distance to every centroid but its own
        lower = np.empty(q)
        row_starts = rows * k  # flat offsets of the rows of cross
        # 2^13 times the rounding bound of any squared distance below (module docstring)
        slack = (dim + 2) * 2.0**-38 * float(pp.max())
    inertia = np.inf
    iters = 0
    computed = 0
    for it in range(max_iters):
        # (q, k) cross terms -2 P C^T: scaling by -2 is exact
        centroids_m2 = centroids * -2.0
        np.matmul(points, centroids_m2.T, out=cross)
        cc = (centroids * centroids).sum(axis=1)
        if bounded and it > 0:
            # each point's squared distance to its own centroid, the entry its
            # full row would hold; the row is needed only where that distance
            # may reach max(lower bound, half the gap to the nearest other centroid)
            point_d2 = cc[labels]
            point_d2 += pp
            point_d2 += cross.ravel()[row_starts + labels]
            np.maximum(point_d2, 0.0, out=point_d2)
            gaps = centroids @ centroids_m2.T
            gaps += cc[:, None]
            gaps += cc
            np.fill_diagonal(gaps, np.inf)
            half = 0.5 * np.sqrt(np.maximum(gaps.min(axis=1) - slack, 0.0))
            # half is never negative, so the maximum also keeps bound >= 0
            # once centroid shifts have driven lower below 0, where squaring
            # lower alone would raise the bound and skip rows that are needed
            bound = np.maximum(lower, half[labels])
            todo = np.flatnonzero(point_d2 + slack >= bound * bound)
            sub = dist[: todo.size]
            np.add(cc, pp[todo, None], out=sub)
            sub += cross[todo]
        else:
            todo = rows
            sub = dist
            # cc copied into every row, then pp added: the fl(pp + cc) of
            # np.add(pp[:, None], cc, out=dist), a fifth faster at q = 4000, k = 100
            np.copyto(dist, cc)
            dist += pp[:, None]
            dist += cross
        # squared distances fl(fl(cc + pp) + cross), clipped at 0 for safety
        np.maximum(sub, 0.0, out=sub)
        nearest = sub.argmin(axis=1)  # argmin takes first minimum: ties go to lowest index
        computed += todo.size
        done = rows[: todo.size]
        if todo is rows:
            labels = nearest
            point_d2 = dist[rows, labels]
        else:
            labels[todo] = nearest
            point_d2[todo] = sub[done, nearest]
        if bounded:
            sub[done, nearest] = np.inf
            lower[todo] = np.sqrt(np.maximum(sub.min(axis=1) - slack, 0.0))
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
        previous = centroids.copy() if bounded else None
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
        if bounded:
            # no centroid moved farther than the largest shift
            previous -= centroids
            lower -= np.sqrt((previous * previous).sum(axis=1).max())
        inertia = new_inertia
    return labels, inertia, iters, computed


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
    distance_rows = 0
    for picks in seeds:
        labels, inertia, iters, computed = _lloyd(block, pp, block[picks], MAX_ITERS, TOL)
        distance_rows += computed
        if best is None or inertia < best.inertia:
            best = Labeling(labels=labels, inertia=inertia, iterations_run=iters, distance_rows=0)
    assert best is not None
    best.distance_rows = distance_rows
    return best

