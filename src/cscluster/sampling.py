"""Uniform node sampling, bandlimited interpolation, and hard assignment.

A reduced indicator vector known on n sampled nodes is lifted back to all N
nodes as a bandlimited signal. The filtered random signals F = h(L) R,
whose sampled rows k-means clustered, already span approximately the k
lowest eigenvectors, so the lift is the least-squares fit of the sampled
indicators by the sampled rows of F, evaluated on every node: the decoder
of Puy, Tremblay, Gribonval & Vandergheynst restricted to span(F), with no
further filtering pass. The sample is a plain array of node indices;
isolated nodes, whose features carry no geometry, are excluded from it by
``run_csc``, which warns of them, and still get a label from the lift.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "draw_sampling",
    "interpolate_all",
    "assign",
]


def draw_sampling(
    num_nodes: int,
    n: int,
    seed: int | np.random.Generator,
    *,
    exclude: np.ndarray | tuple = (),
) -> np.ndarray:
    """Draw n distinct nodes uniformly without replacement, as an int64 index
    array in draw order.

    ``exclude`` removes nodes (e.g. isolated nodes) from eligibility;
    sampling stays uniform over the remaining ones.
    """
    rng = np.random.default_rng(seed)
    eligible = np.setdiff1d(np.arange(num_nodes), exclude)
    if not 1 <= n <= eligible.size:
        raise ValueError(f"cannot draw n={n} from {eligible.size} eligible nodes")
    return eligible[rng.choice(eligible.size, size=n, replace=False)]


def interpolate_all(filtered: np.ndarray, sampled: np.ndarray, reduced: np.ndarray) -> np.ndarray:
    """Lift the k reduced indicators to all nodes in the span of F.

    ``reduced`` is (n, k): one reduced indicator column per cluster, its rows
    in the order of the ``sampled`` node indices. With F = ``filtered`` the
    unnormalized filtered block (N, d), this solves the least-squares problem
    beta = argmin ||F[sampled] beta - reduced|| (minimum norm when n < d)
    and returns soft = F beta, (N, k). F is already computed, so the
    lift makes no Laplacian application.
    """
    if reduced.shape[0] != sampled.size:
        raise ValueError(f"reduced indicators have {reduced.shape[0]} rows, sampling has {sampled.size}")
    beta = np.linalg.lstsq(filtered[sampled], reduced, rcond=None)[0]
    return filtered @ beta


def assign(soft: np.ndarray) -> np.ndarray:
    """Hard labels from soft indicators: argmax of c_j(i) / ||c_j||, ties
    toward the lowest cluster index. Every column fits a non-zero reduced
    indicator, so a zero column (or a zero row) has probability 0."""
    return (soft / np.linalg.norm(soft, axis=0)).argmax(axis=1)
