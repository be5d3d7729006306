"""Polynomial approximation of the ideal spectral low-pass filter on [0, 2].

A filter is one row of Chebyshev coefficients c_0..c_p in the basis
T_l(lambda - 1) (the normalized Laplacian guarantees the spectrum sits in
[0, 2], so no adaptive range estimation is needed). ``lowpass_coefficients``
makes every row the package uses: for the ideal low-pass step
1_{lambda <= lambda_c} the coefficients have a closed form: with
theta_c = arccos(lambda_c - 1),

    a_0 = 1 - theta_c / pi,
    a_l = -2 sin(l * theta_c) / (pi * l),     l >= 1,

damped by Jackson multipliers to suppress the Gibbs oscillations around the
cut-off. The scalar response of a row c at frequencies lam is numpy's
``chebval(lam - 1, c)``.

``build_features`` applies a row to graph signals through the three-term
recurrence T_{l+1}(y) = 2 y T_l(y) - T_{l-1}(y) with y = L - I = -S, where
S = D^{-1/2} W D^{-1/2} is the prescaled adjacency the Laplacian operator
stores, i.e. only sparse matrix products: the dense filter operator is never
materialized. Each step costs one ``LaplacianOp.apply`` and runs in place on
the fresh array it returns. ``chebyshev_terms`` is that recurrence, the only
one in the package: ``build_features`` and the eigenvalue-count moments of
``spectrum`` both consume it. The recurrence runs in the signals' dtype:
float32 signals stay float32 through every term and through the
accumulation, any other signal runs in float64. ``generate_signals`` draws
the Gaussian signals that the filter and the probe both read.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .graph import LaplacianOp, signal_array

# order p of every Chebyshev filter unless a caller asks for another
DEFAULT_FILTER_ORDER = 50


def jackson_multipliers(order: int) -> np.ndarray:
    """Jackson kernel damping factors g_0..g_p for a series of the given order.
    Every one is positive, so dividing a damped row by them gives the
    undamped series."""
    q = order + 2
    l = np.arange(order + 1)
    ang = np.pi * l / q
    return ((q - l) * np.cos(ang) + np.sin(ang) / np.tan(np.pi / q)) / q


def lowpass_coefficients(cutoffs: np.ndarray | float, order: int) -> np.ndarray:
    """Jackson-damped Chebyshev coefficients of the low-pass step at each of
    ``cutoffs``, one row of length ``order + 1`` per cut-off, from the closed
    form of the module docstring."""
    cutoffs = np.atleast_1d(np.asarray(cutoffs, dtype=np.float64))
    outside = ~((cutoffs > 0.0) & (cutoffs < 2.0))
    if outside.any():
        raise ValueError(f"cutoff must lie in (0, 2), got {cutoffs[outside][0]}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    theta_c = np.arccos(cutoffs - 1.0)[:, None]
    l = np.arange(1, order + 1)
    coeffs = np.empty((cutoffs.size, order + 1))
    coeffs[:, :1] = 1.0 - theta_c / np.pi
    coeffs[:, 1:] = -2.0 * np.sin(l * theta_c) / (np.pi * l)
    coeffs *= jackson_multipliers(order)
    return coeffs


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


def build_features(op: LaplacianOp, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """h(L) x for the Chebyshev row ``coeffs`` of h, on one signal or an
    N x d block, as float64: cost O(order * #E * d).

    The recurrence and the sum run in the signals' dtype (float32 signals
    take the faster float32 recurrence); the result is made float64 once.
    The Jackson-damped low-pass is positive on [0, 2], so its h(L) is
    positive definite and a zero row of h(L) R has probability 0.
    """
    x = signal_array(x)
    if x.shape[0] != op.num_nodes:
        raise ValueError(f"signal has {x.shape[0]} rows, graph has {op.num_nodes} nodes")
    # a float64 coefficient would promote a float32 term to float64 (NEP 50)
    c = np.asarray(coeffs, dtype=x.dtype)
    terms = chebyshev_terms(op, x, c.size - 1)
    out = c[0] * next(terms)
    for l, t in enumerate(terms, start=1):
        out += c[l] * t
        del t  # no term outlives the sum: the float64 cast allocates next
    return out.astype(np.float64, copy=False)


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
