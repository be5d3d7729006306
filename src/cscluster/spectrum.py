"""Stochastic eigenvalue counting and dichotomic cut-off estimation.

The count of Laplacian eigenvalues below a probe frequency equals the trace
of the ideal low-pass operator at that frequency; filtering a handful of
random Gaussian signals gives a Hutchinson-style estimate of it without any
eigendecomposition. Bisection on the probe frequency then locates the k-th
eigenvalue well enough to parameterize the feature filter.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .filters import apply_filters, design_lowpass
from .graph import LaplacianOp

logger = logging.getLogger(__name__)

DEFAULT_FILTER_ORDER = 50
DEFAULT_MAX_STEPS = 20
_REFINE_WIDTH = 0.01
# largest count rise, as a fraction of k, across the acceptance window of a hit
MAX_WINDOW_RISE = 0.3


@dataclass
class EigencountEstimate:
    lam: float
    count: float  # real-valued before rounding
    num_signals: int
    filter_order: int

    @property
    def rounded(self) -> int:
        return _round_half_up(self.count)


@dataclass
class LambdaKEstimate:
    lambda_k_hat: float
    iterations: int
    trace: list[tuple[float, float]]  # (probe frequency, raw count)
    warning: bool = False  # bracket fallback: no hit at k was accepted
    refused: int = 0  # hits at k refused for lying inside a filter transition band


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def default_probe_signals(num_nodes: int) -> int:
    """2 * ceil(ln N) probe signals."""
    return 2 * int(math.ceil(math.log(max(num_nodes, 2))))


def _transition_halfwidth(lam: float, order: int) -> float:
    """Half the Jackson kernel width at ``lam``: 0.5 * sin(theta) * pi / (order + 2)
    with theta = arccos(lam - 1), the frequency resolution of an order-``order``
    damped low-pass around its cut-off."""
    return 0.5 * math.sqrt(max(lam * (2.0 - lam), 0.0)) * math.pi / (order + 2)


def _resolve_num_signals(num_nodes: int, num_signals: int | None) -> int:
    ds = num_signals if num_signals is not None else default_probe_signals(num_nodes)
    if ds < 1:
        raise ValueError("num_signals must be >= 1")
    return ds


def _draw_signals(num_nodes: int, num_signals: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((num_nodes, num_signals)) / np.sqrt(num_signals)


def _filtered_energies(
    op: LaplacianOp,
    lams: Sequence[float],
    order: int,
    signals: np.ndarray,
    apply_factory: Callable[[float], Callable[[np.ndarray], np.ndarray]] | None,
) -> list[float]:
    """sum_i ||h_lam(L) r_i||^2 for each probe frequency, on the same signals.

    Without ``apply_factory`` all frequencies share one Chebyshev recurrence,
    so the cost is ``order`` Laplacian applications however many there are.
    """
    if apply_factory is not None:
        filtered = [apply_factory(lam)(signals) for lam in lams]
    else:
        filters = [design_lowpass(min(lam, 2.0 - 1e-12), order, damping="jackson") for lam in lams]
        filtered = apply_filters(filters, op, signals)
    return [float(np.sum(f * f)) for f in filtered]


def eigencount(
    op: LaplacianOp,
    lam: float,
    *,
    order: int = DEFAULT_FILTER_ORDER,
    num_signals: int | None = None,
    rng: np.random.Generator,
    apply_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> EigencountEstimate:
    """Estimate #{eigenvalues <= lam} from filtered random signals.

    Signals have i.i.d. Gaussian entries of variance 1/num_signals, so for an
    exact projector P the estimator sum_i ||P r_i||^2 is unbiased for
    trace(P). The polynomial filter introduces a bias of order e_m * N,
    accepted by design. ``apply_fn`` substitutes the filtering operation
    (test hook for the exact-projector double).
    """
    n = op.num_nodes
    if not 0.0 < lam <= 2.0:
        raise ValueError(f"probe frequency must lie in (0, 2], got {lam}")
    ds = _resolve_num_signals(n, num_signals)
    factory = (lambda _lam: apply_fn) if apply_fn is not None else None  # noqa: E731
    (count,) = _filtered_energies(op, [lam], order, _draw_signals(n, ds, rng), factory)
    return EigencountEstimate(lam=float(lam), count=count, num_signals=ds, filter_order=order)


def estimate_lambda_k(
    op: LaplacianOp,
    k: int,
    *,
    order: int = DEFAULT_FILTER_ORDER,
    num_signals: int | None = None,
    rng: np.random.Generator,
    max_steps: int = DEFAULT_MAX_STEPS,
    refine: bool = False,
    apply_factory: Callable[[float], Callable[[np.ndarray], np.ndarray]] | None = None,
) -> LambdaKEstimate:
    """Bisection on (0, 2]: stop at the first midpoint whose count is k on a plateau.

    Maintains the bracket [lo, hi] with count(lo) < k <= count(hi). Each probe
    draws fresh signals and counts them at lam and at lam -/+ delta, with
    delta half the Jackson kernel width at lam, from one shared recurrence
    (a probe costs ``order`` Laplacian applications). A probe whose rounded
    count is k is accepted only if the count rises by at most
    ``MAX_WINDOW_RISE * k`` across that window. A steeper rise means lam sits in the transition band
    of the filter around some eigenvalue cluster, where a partially passed
    cluster can read as k without any spectral gap at k; such a hit is
    refused and bisection continues away from the steeper half of the
    window. When no hit is accepted within ``max_steps`` the final bracket
    midpoint is returned with ``warning=True``. ``refine`` adds one extra
    downward probe, under the same acceptance rule, when the accepting
    bracket is wider than 0.01. ``apply_factory`` substitutes the filtering
    at each of the three frequencies (test hook); it is called on the same
    signals for all three. The trace holds one (lam, count at lam) row per
    probe.
    """
    n = op.num_nodes
    if not 1 <= k < n:
        raise ValueError(f"k={k} out of range for N={n}")
    ds = _resolve_num_signals(n, num_signals)
    lo, hi = 0.0, 2.0
    trace: list[tuple[float, float]] = []

    def probe(lam: float) -> tuple[float, float, float]:
        delta = _transition_halfwidth(lam, order)
        # near 0 the width shrinks only like sqrt(lam): keep the window in (0, 2]
        lams = (max(lam - delta, 0.5 * lam), lam, min(lam + delta, 2.0))
        below, at, above = _filtered_energies(op, lams, order, _draw_signals(n, ds, rng), apply_factory)
        trace.append((float(lam), at))
        return below, at, above

    def accepted(counts: tuple[float, float, float]) -> bool:
        below, at, above = counts
        return _round_half_up(at) == k and above - below <= MAX_WINDOW_RISE * k

    refused = 0
    for step in range(max_steps):
        mid = 0.5 * (lo + hi)
        counts = probe(mid)
        if accepted(counts):
            lam_hat = mid
            if refine and (hi - lo) > _REFINE_WIDTH:
                mid2 = 0.5 * (lo + mid)
                if accepted(probe(mid2)):
                    lam_hat = mid2
            return LambdaKEstimate(lambda_k_hat=lam_hat, iterations=len(trace), trace=trace, refused=refused)
        below, at, above = counts
        rounded = _round_half_up(at)
        if rounded == k:
            # refused hit: the plateau, if any, lies on the flatter side
            refused += 1
            go_down = above - at > at - below
        else:
            go_down = rounded > k
        if go_down:
            hi = mid
        else:
            lo = mid
    lam_hat = 0.5 * (lo + hi)
    logger.warning(
        "eigencount dichotomy exhausted %d steps without an accepted hit at k=%d "
        "(%d hit(s) refused inside a filter transition band); returning bracket midpoint %.6f",
        max_steps, k, refused, lam_hat,
    )
    return LambdaKEstimate(lambda_k_hat=lam_hat, iterations=len(trace), trace=trace, warning=True, refused=refused)


def trace_to_csv(estimate: LambdaKEstimate, path) -> None:
    """Dump the (probe frequency, count) dichotomy trace as two-column CSV."""
    import csv
    from pathlib import Path

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "count"])
        for lam, count in estimate.trace:
            writer.writerow([repr(lam), repr(count)])
