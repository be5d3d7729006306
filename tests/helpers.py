"""Shared test utilities: independent oracles and small graph builders."""

from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import chebval

from cscluster import Graph, Labeling, build_graph, lowpass_coefficients
from cscluster.kmeans import MAX_ITERS, REPLICATES, TOL


def cliques_graph(k: int, size: int) -> tuple[Graph, np.ndarray]:
    """k disconnected complete graphs of the given size, unit weights."""
    edges = []
    for c in range(k):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j, 1.0))
    truth = np.repeat(np.arange(k), size)
    return build_graph(edges, num_nodes=k * size), truth


def lowpass_response(cutoff: float, order: int, lam):
    """The damped low-pass at ``cutoff`` at frequencies ``lam`` in [0, 2]:
    numpy's Chebyshev series of its coefficient row at lam - 1."""
    return chebval(np.asarray(lam, dtype=np.float64) - 1.0, lowpass_coefficients(cutoff, order)[0])


def dense_normalized_laplacian(graph: Graph) -> np.ndarray:
    """Straightforward dense construction, independent of the operator code."""
    n = graph.num_nodes
    W = np.zeros((n, n))
    for i in range(n):
        for idx in range(graph.indptr[i], graph.indptr[i + 1]):
            W[i, graph.indices[idx]] = graph.weights[idx]
    d = W.sum(axis=1)
    L = np.eye(n)
    for i in range(n):
        for j in range(n):
            if W[i, j] != 0.0 and d[i] > 0 and d[j] > 0:
                L[i, j] -= W[i, j] / np.sqrt(d[i] * d[j])
    return L


def brute_force_ari(a, b) -> float:
    """Pair-agreement ARI computed from the four pair counts directly."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    n11 = n10 = n01 = n00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa and not sb:
                n10 += 1
            elif not sa and sb:
                n01 += 1
            else:
                n00 += 1
    num = 2.0 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def all_partitions(n: int):
    """All set partitions of range(n) as label vectors (restricted growth strings)."""
    labels = [0] * n

    def rec(i: int, max_used: int):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(max_used + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_used, lab))

    yield from rec(1, 0) if n > 0 else iter(())


def random_graph(n: int, density: float, rng: np.random.Generator, *, weighted: bool = True) -> Graph:
    """Erdos-Renyi-ish random graph with optional uniform random weights."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                w = rng.uniform(0.2, 2.0) if weighted else 1.0
                edges.append((i, j, w))
    if not edges:
        edges = [(0, min(1, n - 1), 1.0)]
    return build_graph(edges, num_nodes=n)


def spectral_filter_apply(basis, response_at):
    """Exact spectral-domain filter application U h(Lambda) U^T X (test double)."""
    U = basis.eigenvectors
    h = response_at(basis.eigenvalues)

    def apply_fn(X):
        return U @ (h[:, None] * (U.T @ X)) if X.ndim == 2 else U @ (h * (U.T @ X))

    return apply_fn


def ideal_projector_apply(basis, lam: float):
    """Exact ideal low-pass (spectral projector) at the given cut-off."""
    return spectral_filter_apply(basis, lambda w: (w <= lam).astype(np.float64))


# Loop reference for ``cscluster.kmeans``: the per-point k-means++ distances,
# the assignment recomputing every norm, and one masked mean per cluster.


def loop_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (Q, k) matrix of squared Euclidean distances, clipped at 0 for safety
    pp = (points * points).sum(axis=1)[:, None]
    cc = (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(pp + cc - 2.0 * points @ centroids.T, 0.0)


def loop_seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: D^2 sampling."""
    q = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(q)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            centroids[j] = points[rng.choice(q, p=d2 / total)]
        else:
            centroids[j] = points[rng.integers(q)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def loop_lloyd(points, centroids, max_iters, tol):
    q = points.shape[0]
    k = centroids.shape[0]
    labels = np.zeros(q, dtype=np.int64)
    inertia = np.inf
    iters = 0
    for it in range(max_iters):
        D = loop_sq_dists(points, centroids)
        labels = D.argmin(axis=1)  # argmin takes first minimum: ties go to lowest index
        point_d2 = D[np.arange(q), labels]
        new_inertia = float(point_d2.sum())
        iters = it + 1
        repaired = False
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                centroids[j] = points[labels == j].mean(axis=0)
            else:
                # reseed at the point farthest from its current centroid
                far = int(point_d2.argmax())
                centroids[j] = points[far]
                point_d2[far] = 0.0  # successive empty clusters pick distinct points
                repaired = True
        converged = inertia - new_inertia <= tol * max(new_inertia, np.finfo(float).tiny)
        # at inertia 0 no move can lower it, not even an empty-cluster repair
        if new_inertia == 0.0 or (converged and not repaired):
            inertia = new_inertia
            break
        inertia = new_inertia
    return labels, inertia, iters


def loop_kmeans(points: np.ndarray, k: int, seed: int) -> Labeling:
    """``cscluster.kmeans`` with the loop reference inside: same streams, same order."""
    points = np.asarray(points, dtype=np.float64)
    best: Labeling | None = None
    for ss in np.random.SeedSequence(seed).spawn(REPLICATES):
        rng = np.random.default_rng(ss)
        centroids = loop_seed_centroids(points, k, rng)
        labels, inertia, iters = loop_lloyd(points, centroids, MAX_ITERS, TOL)
        if best is None or inertia < best.inertia:
            best = Labeling(labels=labels, inertia=inertia, iterations_run=iters)
    return best
