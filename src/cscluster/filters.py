"""Polynomial approximations of ideal spectral window filters on [0, 2].

A filter is a truncated Chebyshev series under the affine map y = lambda - 1
(the normalized Laplacian guarantees the spectrum sits in [0, 2], so no
adaptive range estimation is needed). For the ideal low-pass step
1_{lambda <= lambda_c} the coefficients have a closed form: with
theta_c = arccos(lambda_c - 1),

    a_0 = 1 - theta_c / pi,
    a_l = -2 sin(l * theta_c) / (pi * l),     l >= 1,

optionally damped by Jackson multipliers to suppress the Gibbs oscillations
around the cut-off. Applying a filter to graph signals uses the three-term
recurrence T_{l+1}(y) = 2 y T_l(y) - T_{l-1}(y) with y = L - I = -S, where
S = D^{-1/2} W D^{-1/2} is the prescaled adjacency the Laplacian operator
stores, i.e. only sparse matrix products: the dense filter operator is never
materialized. Each step costs one ``LaplacianOp.apply`` and runs in place on
the fresh array it returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import LaplacianOp

_RIDGE_FLOOR = 1e-8
_RIDGE_GRID = 2001


@dataclass
class PolyFilter:
    """Chebyshev coefficient vector plus design metadata. Immutable by use."""

    coeffs: np.ndarray  # length order + 1, basis T_l(lambda - 1)
    cutoff: float
    order: int
    damping: str  # "none" | "jackson"
    kind: str  # "lowpass" | "highpass"

    def evaluate(self, lam: np.ndarray | float) -> np.ndarray | float:
        """Filter response at scalar or array frequencies in [0, 2]."""
        y = np.asarray(lam, dtype=np.float64) - 1.0
        c = self.coeffs
        out = np.full_like(y, c[0])
        if c.size > 1:
            t_prev = np.ones_like(y)
            t_cur = y.copy()
            out = out + c[1] * t_cur
            for l in range(2, c.size):
                t_prev, t_cur = t_cur, 2.0 * y * t_cur - t_prev
                out = out + c[l] * t_cur
        if np.isscalar(lam):
            return float(out)
        return out

    def to_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "order": self.order,
            "damping": self.damping,
            "kind": self.kind,
            "coefficients": [float(c) for c in self.coeffs],
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "PolyFilter":
        coeffs = np.asarray(data["coefficients"], dtype=np.float64)
        return cls(
            coeffs=coeffs,
            cutoff=float(data["cutoff"]),
            order=int(data["order"]),
            damping=str(data["damping"]),
            kind=str(data["kind"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "PolyFilter":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "PolyFilter":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def jackson_multipliers(order: int) -> np.ndarray:
    """Jackson kernel damping factors g_0..g_p for a series of the given order."""
    q = order + 2
    l = np.arange(order + 1)
    ang = np.pi * l / q
    return ((q - l) * np.cos(ang) + np.sin(ang) / np.tan(np.pi / q)) / q


def design_lowpass(cutoff: float, order: int, damping: str = "jackson") -> PolyFilter:
    """Polynomial approximation of the ideal low-pass step at ``cutoff``."""
    if not 0.0 < cutoff < 2.0:
        raise ValueError(f"cutoff must lie in (0, 2), got {cutoff}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if damping not in ("none", "jackson"):
        raise ValueError(f"unknown damping {damping!r}")
    theta_c = np.arccos(cutoff - 1.0)
    l = np.arange(1, order + 1)
    coeffs = np.empty(order + 1)
    coeffs[0] = 1.0 - theta_c / np.pi
    coeffs[1:] = -2.0 * np.sin(l * theta_c) / (np.pi * l)
    if damping == "jackson":
        coeffs = coeffs * jackson_multipliers(order)
    return PolyFilter(coeffs=coeffs, cutoff=float(cutoff), order=order, damping=damping, kind="lowpass")


def matched_highpass(lowpass: PolyFilter) -> PolyFilter:
    """Complement filter with highpass(lam) + lowpass(lam) = 1 identically."""
    if lowpass.kind != "lowpass":
        raise ValueError("matched_highpass expects a lowpass filter")
    coeffs = -lowpass.coeffs.copy()
    coeffs[0] += 1.0
    return PolyFilter(
        coeffs=coeffs,
        cutoff=lowpass.cutoff,
        order=lowpass.order,
        damping=lowpass.damping,
        kind="highpass",
    )


def apply_filter(filt: PolyFilter, op: LaplacianOp, x: np.ndarray) -> np.ndarray:
    """Filter one signal or d columns of signals: h(L) x via the Chebyshev
    recurrence, cost O(order * #E * d)."""
    return apply_filters([filt], op, x)[0]


def apply_filters(filters: Sequence[PolyFilter], op: LaplacianOp, x: np.ndarray) -> list[np.ndarray]:
    """Apply several filters of one order to the same signals from a single
    Chebyshev recurrence: the cost is that of one ``apply_filter`` (order
    Laplacian applications), plus one extra accumulation per filter."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != op.num_nodes:
        raise ValueError(f"signal has {x.shape[0]} rows, graph has {op.num_nodes} nodes")
    if not filters or len({f.coeffs.size for f in filters}) != 1:
        raise ValueError("apply_filters needs at least one filter, all of the same order")
    C = np.stack([f.coeffs for f in filters])
    outs = [c[0] * x for c in C]
    if C.shape[1] > 1:
        t_prev = x
        t_cur = op.apply(x)
        t_cur -= x  # (L - I) x
        for l in range(1, C.shape[1]):
            if l > 1:
                # T_{l+1} = 2 (L - I) T_l - T_{l-1}, in the fresh array op.apply returns
                t_next = op.apply(t_cur)
                t_next -= t_cur
                t_next *= 2.0
                t_next -= t_prev
                t_prev, t_cur = t_cur, t_next
            for out, c in zip(outs, C):
                out += c[l] * t_cur
    return outs


@dataclass
class ErrorBudget:
    """Sup errors of a filter against the rank-k ideal spectral projector.

    e1 is taken over the k lowest eigenvalues (ideal response 1), e2 over the
    rest (ideal response 0), e_m = max(e1, e2). d_min_r is the distance
    resolution below which estimates are only bounded, not relatively
    accurate; delta the tolerated relative distance error.
    """

    e1: float
    e2: float
    e_m: float
    d_min_r: float = sqrt(2.0)
    delta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.d_min_r <= sqrt(2.0) + 1e-12:
            raise ValueError(f"d_min_r must lie in (0, sqrt(2)], got {self.d_min_r}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")


@dataclass
class ResolutionCheck:
    """Outcome of the resolution-parameter feasibility inequalities.

    ``lhs_split`` uses the two-sided error split sqrt|e1^2 - e2^2| +
    sqrt(2) e2 / (d_min_r * v_min); ``lhs_max`` the single-error form
    sqrt(2) e_m / (d_min_r * v_min). Both must stay below
    bound = delta / (2 + delta) for the distance-band guarantees to apply.
    """

    ok_split: bool
    ok_max: bool
    lhs_split: float
    lhs_max: float
    bound: float

    @property
    def slack_split(self) -> float:
        return self.bound - self.lhs_split

    @property
    def slack_max(self) -> float:
        return self.bound - self.lhs_max


def error_split(
    filt: PolyFilter,
    eigenvalues: np.ndarray,
    k: int,
    *,
    d_min_r: float = sqrt(2.0),
    delta: float = 1.0,
) -> ErrorBudget:
    """Exact sup errors of ``filt`` over the two spectral subsets.

    The reference is the ideal rank-k projector: response 1 on the k lowest
    eigenvalues, 0 on the remaining ones. ``eigenvalues`` must be sorted
    ascending with length >= k + 1.
    """
    w = np.asarray(eigenvalues, dtype=np.float64)
    if w.ndim != 1 or w.size < k + 1:
        raise ValueError(f"need at least k+1={k + 1} sorted eigenvalues, got {w.size}")
    if np.any(np.diff(w) < -1e-12):
        raise ValueError("eigenvalues must be sorted ascending")
    h = np.asarray(filt.evaluate(w))
    e1 = float(np.abs(h[:k] - 1.0).max())
    e2 = float(np.abs(h[k:]).max())
    return ErrorBudget(e1=e1, e2=e2, e_m=max(e1, e2), d_min_r=d_min_r, delta=delta)


def check_resolution_bound(budget: ErrorBudget, v_min: float) -> ResolutionCheck:
    """Evaluate both feasibility inequalities for the given coherence floor."""
    if v_min <= 0:
        raise ValueError(f"v_min must be positive (pathologic coherence), got {v_min}")
    bound = budget.delta / (2.0 + budget.delta)
    denom = budget.d_min_r * v_min
    lhs_split = float(np.sqrt(abs(budget.e1**2 - budget.e2**2)) + np.sqrt(2.0) * budget.e2 / denom)
    lhs_max = float(np.sqrt(2.0) * budget.e_m / denom)
    return ResolutionCheck(
        ok_split=lhs_split <= bound,
        ok_max=lhs_max <= bound,
        lhs_split=lhs_split,
        lhs_max=lhs_max,
        bound=bound,
    )


def psd_ridge(filt: PolyFilter, *, grid_points: int = _RIDGE_GRID) -> float:
    """Shift making ``filt + ridge`` nonnegative on a dense frequency grid.

    Damped high-pass designs can dip slightly below zero near lambda = 0;
    the regularized interpolation system needs g(L) + ridge*I to stay PSD.
    """
    grid = np.linspace(0.0, 2.0, grid_points)
    lo = float(np.min(filt.evaluate(grid)))
    return max(0.0, -lo) + _RIDGE_FLOOR
