"""Random-signal features: filtered Gaussian signals.

Filtering d random signals with a low-pass polynomial at the k-th eigenvalue
gives every node a d-dimensional feature vector, its row of F = h(L) R.
Divided by their norms, which stand in for the unknown local coherences,
these rows have pairwise distances that approximate the spectral-clustering
feature distances; the pipeline normalizes only the rows k-means reads.
``generate_signals`` draws the N x d block R, and ``build_features`` filters
it once.
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


def build_features(op: LaplacianOp, filt: PolyFilter, signals: np.ndarray) -> np.ndarray:
    """The filtered block F = h(L) R as float64.

    The filter runs in the signals' dtype (float32 signals take the faster
    float32 recurrence); its result is made float64 once. The
    Jackson-damped low-pass h is positive on [0, 2], so h(L) is positive
    definite and a zero row of F has probability 0.
    """
    if signals.shape[1] == 1:
        logger.warning("single random signal: rank-1 embedding, distances are degenerate")
    return apply_filter(filt, op, signals).astype(np.float64, copy=False)
