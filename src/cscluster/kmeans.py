"""Lloyd k-means with k-means++ seeding, replicates and empty-cluster repair."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


@dataclass
class KmeansConfig:
    k: int
    replicates: int = 20
    max_iters: int = 100
    tol: float = 1e-6  # relative inertia change
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


@dataclass
class Labeling:
    labels: np.ndarray
    inertia: float
    iterations_run: int
    history: tuple[float, ...] = field(default=(), repr=False)


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (Q, k) matrix of squared Euclidean distances, clipped at 0 for safety
    pp = (points * points).sum(axis=1)[:, None]
    cc = (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(pp + cc - 2.0 * points @ centroids.T, 0.0)


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _lloyd(points, centroids, max_iters, tol):
    q = points.shape[0]
    k = centroids.shape[0]
    history: list[float] = []
    labels = np.zeros(q, dtype=np.int64)
    inertia = np.inf
    iters = 0
    for it in range(max_iters):
        D = _sq_dists(points, centroids)
        labels = D.argmin(axis=1)  # argmin takes first minimum: ties go to lowest index
        point_d2 = D[np.arange(q), labels]
        new_inertia = float(point_d2.sum())
        history.append(new_inertia)
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
        if not repaired and inertia - new_inertia <= tol * max(new_inertia, np.finfo(float).tiny):
            inertia = new_inertia
            break
        inertia = new_inertia
    return labels, inertia, iters, history


def kmeans(points: np.ndarray, cfg: KmeansConfig) -> Labeling:
    """Best-inertia labeling over ``cfg.replicates`` seeded Lloyd runs.

    Deterministic under a fixed cfg.seed (replicates use independent spawned
    streams, executed in order).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    q = points.shape[0]
    if q < cfg.k:
        raise ValueError(f"need at least k={cfg.k} points, got {q}")

    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    best: Labeling | None = None
    for rep, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        centroids = _seed_centroids(points, cfg.k, rng)
        labels, inertia, iters, history = _lloyd(points, centroids, cfg.max_iters, cfg.tol)
        if best is None or inertia < best.inertia:
            best = Labeling(labels=labels, inertia=inertia, iterations_run=iters, history=tuple(history))
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
