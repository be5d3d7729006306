"""Uniform node sampling, bandlimited interpolation, and hard assignment.

A reduced indicator vector known on n sampled nodes is lifted back to all N
nodes by the regularized least-squares problem

    min_x ||M x - c||^2 + gamma * x^T (g(L) + ridge) x

where g is a polynomial high-pass at the clustering cut-off: it penalizes
energy outside the low-frequency subspace the indicators (approximately)
live in. The normal equations M^T M + gamma (g(L) + ridge I) are symmetric
positive semidefinite, so conjugate gradient applies; every operator
application is one fast filtering pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .filters import PolyFilter, apply_filter, psd_ridge
from .graph import LaplacianOp

__all__ = [
    "SamplingSet",
    "InterpolationConfig",
    "CgInfo",
    "draw_sampling",
    "interpolate_all",
    "assign",
]

logger = logging.getLogger(__name__)


@dataclass
class SamplingSet:
    """Ordered distinct node indices realizing the sampling operator:
    (M x)_i = x[indices[i]]."""

    indices: np.ndarray
    num_nodes: int

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """M x: keep the sampled coordinates, in draw order."""
        return x[self.indices]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """M^T y: scatter sampled values back into an all-zero signal."""
        shape = (self.num_nodes,) + y.shape[1:]
        out = np.zeros(shape, dtype=np.float64)
        out[self.indices] = y
        return out


def draw_sampling(
    num_nodes: int,
    n: int,
    seed: int | np.random.Generator,
    *,
    exclude: np.ndarray | None = None,
) -> SamplingSet:
    """Draw n distinct nodes uniformly without replacement.

    ``exclude`` removes nodes (e.g. zero-feature rows) from eligibility;
    sampling stays uniform over the remaining ones.
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
    return SamplingSet(indices=indices.astype(np.int64), num_nodes=num_nodes)


@dataclass
class InterpolationConfig:
    highpass: PolyFilter
    gamma: float = 1e-3
    solver_tol: float = 1e-6
    solver_max_iters: int = 1000
    ridge: float | None = None  # computed from the highpass grid minimum when None

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.ridge is None:
            self.ridge = psd_ridge(self.highpass)


@dataclass
class CgInfo:
    """Per-column conjugate-gradient outcome for the interpolation solves."""

    iterations: np.ndarray  # iteration at which each column converged (or last)
    residuals: np.ndarray  # final absolute residual norms
    converged: np.ndarray  # bool per column

    @property
    def max_iterations(self) -> int:
        return int(self.iterations.max(initial=0))


def _system_apply(op: LaplacianOp, cfg: InterpolationConfig, mask: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(M^T M + gamma (g(L) + ridge I)) X, accumulated in the filter output."""
    out = apply_filter(cfg.highpass, op, X)
    out += cfg.ridge * X
    out *= cfg.gamma
    out += mask[:, None] * X
    return out


def interpolate_all(
    op: LaplacianOp,
    cfg: InterpolationConfig,
    sampling: SamplingSet,
    reduced: np.ndarray,
) -> tuple[np.ndarray, CgInfo]:
    """Solve the k interpolation problems as one blocked CG run.

    ``reduced`` is (n, k): one reduced indicator column per cluster. Each
    column keeps its own step sizes, so this is exactly per-column CG with
    shared filtering passes; converged columns are frozen and no longer
    filtered, so a step costs ``order`` Laplacian applications to the
    columns still active. Columns that miss the residual target within
    ``solver_max_iters`` keep their best iterate and are reported as
    unconverged.
    """
    n, k = reduced.shape
    if n != sampling.size:
        raise ValueError(f"reduced indicators have {n} rows, sampling has {sampling.size}")
    N = op.num_nodes
    mask = np.zeros(N)
    mask[sampling.indices] = 1.0
    B = np.zeros((N, k))
    B[sampling.indices] = reduced

    X = np.zeros((N, k))
    R = B.copy()  # residual for X = 0
    P = R.copy()
    rs = np.einsum("ij,ij->j", R, R)
    target2 = (cfg.solver_tol * np.sqrt(np.einsum("ij,ij->j", B, B))) ** 2
    converged_at = np.zeros(k, dtype=np.int64)
    active = rs > target2
    tiny = np.finfo(np.float64).tiny

    iters = 0
    while active.any() and iters < cfg.solver_max_iters:
        if active.all():
            AP = _system_apply(op, cfg, mask, P)
        else:
            AP = np.zeros_like(P)
            AP[:, active] = _system_apply(op, cfg, mask, P[:, active])
        denom = np.einsum("ij,ij->j", P, AP)
        alpha = np.where(active & (np.abs(denom) > tiny), rs / np.where(np.abs(denom) > tiny, denom, 1.0), 0.0)
        X += alpha * P
        R -= alpha * AP
        rs_new = np.einsum("ij,ij->j", R, R)
        beta = np.where(active, rs_new / np.maximum(rs, tiny), 0.0)
        P = R + beta * P
        rs = rs_new
        iters += 1
        newly_done = active & (rs <= target2)
        converged_at[newly_done] = iters
        active = active & ~newly_done

    residuals = np.sqrt(rs)
    converged = residuals <= np.sqrt(target2) + tiny
    converged_at[active] = iters
    if active.any():
        logger.warning(
            "interpolation CG did not converge for %d of %d classes within %d iterations",
            int(active.sum()), k, cfg.solver_max_iters,
        )
    return X, CgInfo(iterations=converged_at, residuals=residuals, converged=converged)


def assign(soft: np.ndarray, *, return_info: bool = False):
    """Hard labels from soft indicators: argmax of c_j(i) / ||c_j||.

    Ties break toward the lowest cluster index. Nodes whose indicator row is
    identically zero fall back to the raw argmax (still lowest index) and are
    reported.
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
    if return_info:
        return labels, {"fallback_nodes": fallback}
    return labels
