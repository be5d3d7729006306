"""Cut-off estimation from the Chebyshev moments of one recurrence.

The count of Laplacian eigenvalues below a frequency lam equals the trace of
the ideal low-pass operator at lam; for random Gaussian signals r_i of
variance 1/d, sum_i r_i^T h(L) r_i is a Hutchinson estimate of trace h(L)
that needs no eigendecomposition. With y = L - I and h a Chebyshev series
sum_l c_l T_l(y), each term r^T T_l(y) r is a moment mu_l of the signal, and
one recurrence of p Laplacian applications gives every moment up to 2p:

    mu_0 = ||r||^2,  mu_1 = <r, T_1 r>,
    mu_2l = 2 ||T_l r||^2 - mu_0,  mu_2l+1 = 2 <T_l+1 r, T_l r> - mu_1.

The count at any lam is then the dot product of the moments with the
coefficients of the degree-2p damped low-pass at lam, so the whole count
curve over (0, 2), and its standard error from the spread across signals,
costs p applications (Di Napoli, Polizzi & Saad, arXiv:1308.4275; Weisse et
al., Rev. Mod. Phys. 78, 275). The cut-off is read off that curve: the
middle of the flat stretch of the curve whose count is nearest k.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .filters import DEFAULT_FILTER_ORDER, chebyshev_terms, design_lowpass
from .graph import LaplacianOp

logger = logging.getLogger(__name__)

# interior points of (0, 2) on which the count curve is read
GRID_POINTS = 800
# a rise of the count beyond this many standard errors is not noise
TOL_SE = 3.0
# a rise below one eigenvalue is flat, whatever the standard error
TOL_FLOOR = 0.5

_GRID = np.linspace(0.0, 2.0, GRID_POINTS + 2)[1:-1]


@dataclass
class LambdaKEstimate:
    lambda_k_hat: float
    count: float  # eigenvalue count at lambda_k_hat
    count_se: float  # its standard error across the probe signals
    warning: bool = False  # no flat stretch of the count curve at k


def default_probe_signals(num_nodes: int) -> int:
    """2 * ceil(ln N) probe signals."""
    return 2 * int(math.ceil(math.log(max(num_nodes, 2))))


def _transition_halfwidth(lam: np.ndarray, order: int) -> np.ndarray:
    """Half the Jackson kernel width at ``lam``: 0.5 * sin(theta) * pi / (order + 2)
    with theta = arccos(lam - 1), the frequency resolution of an order-``order``
    damped low-pass around its cut-off."""
    return 0.5 * np.sqrt(np.maximum(lam * (2.0 - lam), 0.0)) * np.pi / (order + 2)


def chebyshev_moments(op: LaplacianOp, signals: np.ndarray, order: int) -> np.ndarray:
    """Per-signal moments mu_0 .. mu_2order of y = L - I, shape (2 order + 1, d),
    from ``order`` Laplacian applications to the signal block."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    mu = np.empty((2 * order + 1, signals.shape[1]))
    terms = chebyshev_terms(op, signals, order)
    prev = next(terms)
    mu[0] = np.einsum("ij,ij->j", prev, prev)
    for l, cur in enumerate(terms):
        # cur is T_{l+1} r, prev is T_l r
        cross = np.einsum("ij,ij->j", cur, prev)
        mu[2 * l + 1] = cross if l == 0 else 2.0 * cross - mu[1]
        mu[2 * l + 2] = 2.0 * np.einsum("ij,ij->j", cur, cur) - mu[0]
        prev = cur
    return mu


def _lowpass_rows(lams: np.ndarray, degree: int) -> np.ndarray:
    return np.stack([design_lowpass(float(lam), degree).coeffs for lam in lams])


@functools.lru_cache(maxsize=4)
def _grid_rows(order: int) -> np.ndarray:
    """Degree-2 ``order`` low-pass coefficients at every grid point, built once per order."""
    rows = _lowpass_rows(_GRID, 2 * order)
    rows.flags.writeable = False
    return rows


def _counts(rows: np.ndarray, moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count and its standard error at each row's frequency. Signal i alone
    estimates the count as d * rows @ mu_i; the count is their mean."""
    per_signal = rows @ moments
    return per_signal.sum(axis=1), math.sqrt(moments.shape[1]) * per_signal.std(axis=1, ddof=1)


def count_curve(moments: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue count #{lambda_j <= lam} and its standard error at each
    frequency in ``lams`` (inside (0, 2)), from ``chebyshev_moments`` of at
    least two signals. The count is that of the degree-2p damped low-pass,
    trace h_2p(L)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    return _counts(_lowpass_rows(lams, moments.shape[0] - 1), moments)


def _plateaus(flat: np.ndarray, count: np.ndarray, tol: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) grid index of each run of flat points. A run ends where
    the points stop being flat, or where its count has moved by more than tol
    since its first point: a run of small rises through a cluster of close
    eigenvalues is not one plateau."""
    runs: list[tuple[int, int]] = []
    first = None
    for i in range(len(flat)):
        if first is not None and (not flat[i] or abs(count[i] - count[first]) > tol[i]):
            runs.append((first, i - 1))
            first = None
        if first is None and flat[i]:
            first = i
    if first is not None:
        runs.append((first, len(flat) - 1))
    return runs


def estimate_lambda_k(
    op: LaplacianOp,
    k: int,
    *,
    order: int = DEFAULT_FILTER_ORDER,
    num_signals: int | None = None,
    rng: np.random.Generator,
) -> LambdaKEstimate:
    """Place the cut-off in the gap above the k-th eigenvalue from one
    recurrence of ``order`` Laplacian applications.

    The count curve and its standard error se come from the moments of
    ``num_signals`` (default 2 ceil(ln N)) Gaussian signals on a grid of
    ``GRID_POINTS`` points. With tol = max(``TOL_FLOOR``, ``TOL_SE`` * se), a
    grid point is flat when the count rises by at most tol across one Jackson
    kernel width of the degree-2 ``order`` low-pass on either side of it.
    Runs of flat points are cut where the count has moved by more than tol
    since the run began. Among these runs, the one whose median count is
    nearest k (then the longer one) gives the estimate: its midpoint.
    ``warning`` is set when that median lies further than tol from k, or
    when no point is flat, in which case the grid point whose count is
    nearest k is returned.
    """
    n = op.num_nodes
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for N={n}")
    ds = num_signals if num_signals is not None else default_probe_signals(n)
    if ds < 2:
        raise ValueError("num_signals must be >= 2")
    signals = rng.standard_normal((n, ds)) / np.sqrt(ds)
    moments = chebyshev_moments(op, signals, order)
    count, se = _counts(_grid_rows(order), moments)
    tol = np.maximum(TOL_FLOOR, TOL_SE * se)
    width = 2.0 * _transition_halfwidth(_GRID, 2 * order)
    rise = np.interp(_GRID + width, _GRID, count) - np.interp(_GRID - width, _GRID, count)
    runs = _plateaus(rise <= tol, count, tol)
    if runs:
        misses = [abs(float(np.median(count[first:last + 1])) - k) for first, last in runs]
        best = min(range(len(runs)), key=lambda i: (misses[i], runs[i][0] - runs[i][1]))
        first, last = runs[best]
        lam_hat = 0.5 * (_GRID[first] + _GRID[last])
        warning = misses[best] > tol[(first + last) // 2]
    else:
        lam_hat = _GRID[np.argmin(np.abs(count - k))]
        warning = True
    (at,), (at_se,) = count_curve(moments, lam_hat)
    if warning:
        logger.warning(
            "no flat count curve at k=%d; lambda_k_hat %.6f counts %.2f +- %.2f",
            k, lam_hat, at, at_se,
        )
    return LambdaKEstimate(lambda_k_hat=float(lam_hat), count=float(at), count_se=float(at_se), warning=bool(warning))
