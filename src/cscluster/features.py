"""Random-signal feature vectors: filtered Gaussian signals, row-normalized.

Filtering d random signals with a low-pass polynomial at the k-th eigenvalue
gives every node a d-dimensional feature vector whose pairwise distances
approximate the spectral-clustering feature distances; the row normalization
stands in for the unknown local coherences, whose values the filtered row
norms approximate. ``generate_signals`` draws the N x d block R, and
``build_features`` filters it once and returns plain arrays.
"""

from __future__ import annotations

import logging

import numpy as np

from .filters import PolyFilter, apply_filter
from .graph import LaplacianOp

logger = logging.getLogger(__name__)


def generate_signals(
    num_nodes: int,
    num_signals: int,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Draw the N x d random signal matrix R of i.i.d. Gaussian entries
    N(0, 1/d), so that E||column||^2 = N/d; reproducible for a given seed."""
    if num_signals < 1:
        raise ValueError("num_signals must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((num_nodes, num_signals)) / np.sqrt(num_signals)


def build_features(op: LaplacianOp, filt: PolyFilter, signals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter the signals and normalize each node's row to unit length.

    Returns ``(rows, filtered)``: the unnormalized block F = h(L) R, which
    the interpolation lifts the labels in, and its rows divided by their
    norms. The filter runs in the signals' dtype (float32 signals take the
    faster float32 recurrence); its result is made float64 once, so both
    arrays are float64 either way. The Jackson-damped low-pass h is
    positive on [0, 2], so h(L) is positive definite and a zero row of F
    has probability 0.
    """
    if signals.shape[1] == 1:
        logger.warning("single random signal: rank-1 embedding, distances are degenerate")
    filtered = apply_filter(filt, op, signals).astype(np.float64, copy=False)
    rows = filtered / np.linalg.norm(filtered, axis=1)[:, None]
    return rows, filtered
