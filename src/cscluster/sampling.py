"""Uniform node sampling, bandlimited interpolation, and hard assignment.

A reduced indicator vector known on n sampled nodes is lifted back to all N
nodes as a bandlimited signal. The filtered random signals F = h(L) R the
features were built from already span approximately the k lowest
eigenvectors, so the lift is the least-squares fit of the sampled
indicators by the sampled rows of F, evaluated on every node: the decoder
of Puy, Tremblay, Gribonval & Vandergheynst restricted to span(F), with no
further filtering pass. The sample is a plain array of node indices; nodes
without usable features (zero filtered rows, isolated nodes) are excluded
from it by the caller and still get a label from the lift.
"""

from __future__ import annotations

import logging

import numpy as np

from .features import FeatureMatrix

__all__ = [
    "draw_sampling",
    "interpolate_all",
    "assign",
]

logger = logging.getLogger(__name__)


def draw_sampling(
    num_nodes: int,
    n: int,
    seed: int | np.random.Generator,
    *,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Draw n distinct nodes uniformly without replacement, as an int64 index
    array in draw order.

    ``exclude`` removes nodes (e.g. zero-feature rows and isolated nodes)
    from eligibility; sampling stays uniform over the remaining ones.
    """
    rng = np.random.default_rng(seed)
    if exclude is not None and len(exclude):
        eligible = np.setdiff1d(np.arange(num_nodes), np.asarray(exclude, dtype=np.int64))
    else:
        eligible = None
    pool = num_nodes if eligible is None else eligible.size
    if not 1 <= n <= pool:
        raise ValueError(f"cannot draw n={n} from {pool} eligible nodes")
    if eligible is None:
        indices = rng.choice(num_nodes, size=n, replace=False)
    else:
        indices = eligible[rng.choice(pool, size=n, replace=False)]
    return indices.astype(np.int64)


def interpolate_all(
    features: FeatureMatrix,
    sampled: np.ndarray,
    reduced: np.ndarray,
) -> np.ndarray:
    """Lift the k reduced indicators to all nodes in the span of F.

    ``reduced`` is (n, k): one reduced indicator column per cluster, its rows
    in the order of the ``sampled`` node indices. With F the unnormalized
    filtered block (N, d), this solves the least-squares problem
    beta = argmin ||F[sampled] beta - reduced|| (minimum norm when n < d)
    and returns soft = F beta, (N, k). F is already computed, so the
    lift makes no Laplacian application.
    """
    if reduced.shape[0] != sampled.size:
        raise ValueError(f"reduced indicators have {reduced.shape[0]} rows, sampling has {sampled.size}")
    F = features.filtered
    beta = np.linalg.lstsq(F[sampled], reduced, rcond=None)[0]
    return F @ beta


def assign(soft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels from soft indicators: argmax of c_j(i) / ||c_j||.

    Ties break toward the lowest cluster index. Nodes whose indicator row is
    identically zero fall back to the raw argmax (still lowest index); they
    are returned, with the labels, as ``(labels, fallback_nodes)``.
    """
    soft = np.asarray(soft, dtype=np.float64)
    if soft.ndim != 2:
        raise ValueError("soft indicators must be (N, k)")
    col_norms = np.linalg.norm(soft, axis=0)
    if not np.any(col_norms > 0):
        raise ValueError("all indicator vectors are zero")
    scale = np.where(col_norms > 0, col_norms, 1.0)
    normalized = soft / scale[None, :]
    normalized[:, col_norms == 0] = -np.inf  # zero-norm clusters never win
    labels = normalized.argmax(axis=1)
    fallback = np.flatnonzero(np.all(soft == 0.0, axis=1))
    if fallback.size:
        logger.warning("%d node(s) with all-zero indicators assigned by raw argmax: %s ...", fallback.size, fallback[:10].tolist())
        labels[fallback] = soft[fallback].argmax(axis=1)
    return labels, fallback
