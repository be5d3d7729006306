"""Polynomial approximation of the ideal spectral low-pass filter on [0, 2].

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
the fresh array it returns. ``chebyshev_terms`` is that recurrence, the only
one in the package: ``apply_filter`` and the eigenvalue-count moments of
``spectrum`` both consume it. The scalar response ``PolyFilter.evaluate`` is
numpy's ``chebval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .graph import LaplacianOp

# order p of every Chebyshev filter unless a caller asks for another
DEFAULT_FILTER_ORDER = 50


@dataclass
class PolyFilter:
    """Chebyshev coefficient vector of a filter. Immutable by use."""

    coeffs: np.ndarray  # length order + 1, basis T_l(lambda - 1)

    def evaluate(self, lam: np.ndarray | float) -> np.ndarray | float:
        """Filter response at scalar or array frequencies in [0, 2]."""
        out = chebval(np.asarray(lam, dtype=np.float64) - 1.0, self.coeffs)
        if np.isscalar(lam):
            return float(out)
        return out


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
    return PolyFilter(coeffs=coeffs)


def apply_filter(filt: PolyFilter, op: LaplacianOp, x: np.ndarray) -> np.ndarray:
    """Filter one signal or d columns of signals: h(L) x via the Chebyshev
    recurrence, cost O(order * #E * d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != op.num_nodes:
        raise ValueError(f"signal has {x.shape[0]} rows, graph has {op.num_nodes} nodes")
    c = filt.coeffs
    terms = chebyshev_terms(op, x, c.size - 1)
    out = c[0] * next(terms)
    for l, t in enumerate(terms, start=1):
        out += c[l] * t
    return out


def chebyshev_terms(op: LaplacianOp, x: np.ndarray, order: int) -> Iterator[np.ndarray]:
    """Yield T_0(y) x, T_1(y) x, ..., T_order(y) x for y = L - I.

    The one operator recurrence of the package: T_{l+1} = 2 y T_l - T_{l-1},
    each step one ``op.apply`` computed in place in the fresh array it
    returns. A yielded term is never written afterwards, so a consumer may
    keep the previous one; it must not write either.
    """
    yield x
    if order < 1:
        return
    t_prev = x
    t_cur = op.apply(x)
    t_cur -= x  # (L - I) x
    yield t_cur
    for _ in range(2, order + 1):
        t_next = op.apply(t_cur)
        t_next -= t_cur
        t_next *= 2.0
        t_next -= t_prev
        t_prev, t_cur = t_cur, t_next
        yield t_cur
