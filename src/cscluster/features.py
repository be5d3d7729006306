"""Random-signal feature vectors: filtered Gaussian signals, row-normalized.

Filtering d random signals with a low-pass polynomial at the k-th eigenvalue
gives every node a d-dimensional feature vector whose pairwise distances
approximate the spectral-clustering feature distances; the row normalization
stands in for the unknown local coherences, whose values the filtered row
norms approximate. ``generate_signals`` draws the N x d block R as a plain
array, and ``build_features`` filters it once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .filters import PolyFilter, apply_filter
from .graph import LaplacianOp

logger = logging.getLogger(__name__)

_ZERO_ROW_TOL = 1e-300


@dataclass
class FeatureMatrix:
    """Per-node feature rows (unit length, zero on ``zero_rows``), the
    filtered block they were normalized from, and the nodes whose filtered
    row is zero."""

    rows: np.ndarray
    filtered: np.ndarray
    zero_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


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


def build_features(op: LaplacianOp, filt: PolyFilter, signals: np.ndarray) -> FeatureMatrix:
    """Filter the signals and normalize each node's row to unit length.

    The filter runs in the signals' dtype (float32 signals take the faster
    float32 recurrence); its result is made float64 once, so ``filtered`` and
    ``rows`` are float64 either way. The unnormalized block F = h(L) R is
    kept as ``filtered``: the interpolation lifts the labels in its span.
    Rows whose filtered norm underflows to zero are flagged, left as zero
    vectors, and should be excluded from sampling (they carry no usable
    geometry; interpolation still assigns them a label).
    """
    if signals.shape[1] == 1:
        logger.warning("single random signal: rank-1 embedding, distances are degenerate")
    filtered = apply_filter(filt, op, signals).astype(np.float64, copy=False)
    norms = np.linalg.norm(filtered, axis=1)
    zero_rows = np.flatnonzero(norms <= _ZERO_ROW_TOL)
    if zero_rows.size:
        logger.warning("%d feature row(s) with zero norm (nodes %s ...)", zero_rows.size, zero_rows[:10].tolist())
    safe = norms.copy()
    safe[zero_rows] = 1.0
    rows = filtered / safe[:, None]
    rows[zero_rows] = 0.0
    return FeatureMatrix(rows=rows, filtered=filtered, zero_rows=zero_rows)
