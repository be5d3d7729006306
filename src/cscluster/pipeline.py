"""End-to-end compressive clustering: probe, filter, sample, cluster, lift.

Stage defaults follow the usual parameterization n = 2k log k and p = 50,
with d = max(4 log n, k + 10) random signals (natural logs, rounded up): the
k + 10 floor oversamples span(U_k) as a randomized range finder does, since
the same filtered block carries both the features and the least-squares lift
of the labels. All randomness derives from one master seed through named
per-stage substreams, so runs are reproducible stage by stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ._rng import substream, substream_seed
from .filters import DEFAULT_FILTER_ORDER, design_lowpass
from .graph import LaplacianOp
from .kmeans import KmeansConfig, kmeans, labels_to_indicators
from .oracle import EigenBasis, spectral_clustering
from .result import ClusterResult
from .features import build_features, generate_signals
from .sampling import assign, draw_sampling, interpolate_all
from .spectrum import estimate_lambda_k


# signals beyond k in the default d: the lift fits k indicators in span(F)
SIGNAL_OVERSAMPLING = 10


class DegenerateClusteringError(RuntimeError):
    """k-means on the sampled nodes produced an empty cluster even after repair."""


def default_num_samples(k: int) -> int:
    """n = ceil(2 k ln k)."""
    return int(math.ceil(2.0 * k * math.log(k)))


def default_num_signals(n: int) -> int:
    """d = ceil(4 ln n)."""
    return int(math.ceil(4.0 * math.log(max(n, 2))))


@dataclass
class CscParams:
    """Pipeline parameters; ``None`` means "derive the default".

    ``k`` clusters; ``n`` sampled nodes (2k ln k); ``d`` random signals
    (max(4 ln n, k + SIGNAL_OVERSAMPLING)), whose filtered block gives the
    features and spans the lift of the labels; ``p`` the order of every
    Chebyshev filter; ``seed`` the master seed of every stage. ``lambda_k``
    skips the cut-off estimation when provided. The filters are
    Jackson-damped and the signals Gaussian.
    """

    k: int
    n: int | None = None
    d: int | None = None
    p: int = DEFAULT_FILTER_ORDER
    seed: int = 0
    lambda_k: float | None = None

    def resolve(self, num_nodes: int) -> "CscParams":
        """Fill derived defaults and validate, for a graph with ``num_nodes``
        nodes that the sample may draw from."""
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got k={self.k}")
        n = self.n if self.n is not None else min(default_num_samples(self.k), num_nodes)
        d = self.d if self.d is not None else max(default_num_signals(n), self.k + SIGNAL_OVERSAMPLING)
        if n < self.k:
            raise ValueError(f"n={n} < k={self.k}: cannot sample fewer nodes than clusters")
        if n > num_nodes:
            raise ValueError(f"n={n} exceeds the {num_nodes} nodes that can be sampled")
        if d < 1 or self.p < 1:
            raise ValueError("d and p must be >= 1")
        return replace(self, n=n, d=d)


def run_csc(op: LaplacianOp, params: CscParams) -> ClusterResult:
    """Compressive clustering of the graph behind ``op`` into params.k groups.

    Stages: (1) cut-off estimation from the eigenvalue count curve of one
    p-step Chebyshev recurrence on 2 ceil(ln N) probe signals, (2) damped
    low-pass design at the estimate, (3) random signal generation,
    (4) filtering + row normalization, (5) uniform node sampling,
    (6) k-means on the sampled feature rows, (7) least-squares lift of the
    k reduced indicators in the span of the filtered signals, and argmax
    assignment. Only stages 1 and 4 apply the Laplacian, p times each.
    """
    N = op.num_nodes
    prm = params.resolve(N - op.graph.isolated_nodes.size)
    timings: dict[str, float] = {}
    warnings: list[str] = []
    t_run = time.perf_counter()

    # 1. cut-off frequency
    t0 = time.perf_counter()
    if prm.lambda_k is not None:
        lam = float(prm.lambda_k)
        lambda_source = "override"
        probe_iterations = 0
        probe_count = probe_count_se = None
        lambda_warning = False
    else:
        est = estimate_lambda_k(op, prm.k, order=prm.p, rng=substream(prm.seed, "probe"))
        lam = est.lambda_k_hat
        lambda_source = "estimated"
        probe_iterations = 1
        probe_count, probe_count_se = est.count, est.count_se
        lambda_warning = est.warning
        if est.warning:
            warnings.append("lambda_k fallback: no count plateau at k")
    timings["probe"] = time.perf_counter() - t0

    # 2. filters
    t0 = time.perf_counter()
    lowpass = design_lowpass(lam, prm.p)
    timings["design"] = time.perf_counter() - t0

    # 3-4. random signals -> features
    t0 = time.perf_counter()
    signals = generate_signals(N, prm.d, seed=substream(prm.seed, "signals"))
    timings["signals"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    feats = build_features(op, lowpass, signals)
    timings["filter"] = time.perf_counter() - t0
    if feats.zero_rows.size:
        warnings.append(f"{feats.zero_rows.size} zero-norm feature rows")

    # 5. sampling: an isolated node filters to h(1) r_i, which row
    # normalization would turn into a random unit row
    t0 = time.perf_counter()
    exclude = np.union1d(feats.zero_rows, op.graph.isolated_nodes)
    sampled = draw_sampling(N, prm.n, substream(prm.seed, "sampling"), exclude=exclude)
    timings["sampling"] = time.perf_counter() - t0

    # 6. reduced k-means
    t0 = time.perf_counter()
    labeling = kmeans(feats.rows[sampled], KmeansConfig(k=prm.k, seed=substream_seed(prm.seed, "kmeans")))
    counts = np.bincount(labeling.labels, minlength=prm.k)
    if np.any(counts == 0):
        raise DegenerateClusteringError(
            f"empty cluster(s) {np.flatnonzero(counts == 0).tolist()} in the reduced k-means"
        )
    reduced = labels_to_indicators(labeling.labels, prm.k, prm.n)
    timings["kmeans"] = time.perf_counter() - t0

    # 7. interpolation + assignment
    t0 = time.perf_counter()
    soft = interpolate_all(feats, sampled, reduced)
    labels, fallback_nodes = assign(soft)
    timings["interpolate"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_run

    diagnostics = {
        "method": "csc",
        "num_nodes": N,
        "num_edges": op.graph.num_edges,
        "k": prm.k,
        "n": prm.n,
        "d": prm.d,
        "p": prm.p,
        "seed": prm.seed,
        "lambda_k_hat": lam,
        "lambda_source": lambda_source,
        "lambda_warning": lambda_warning,
        "probe_iterations": probe_iterations,
        "probe_count": probe_count,
        "probe_count_se": probe_count_se,
        # no probe is refused any more; perfbench still reads the key
        "probe_refused": 0,
        "kmeans_inertia": labeling.inertia,
        "kmeans_iterations": labeling.iterations_run,
        # the lift is a direct solve, no iteration; perfbench still reads both keys
        "solver_iterations": [0] * prm.k,
        "solver_converged": [True] * prm.k,
        "zero_feature_rows": feats.zero_rows.tolist(),
        "assign_fallback_nodes": fallback_nodes.tolist(),
        "warnings": warnings,
        "timings": timings,
    }
    return ClusterResult(labels=labels, soft=soft, diagnostics=diagnostics)


def run_sc_baseline(op: LaplacianOp, k: int, *, seed: int = 0, basis: EigenBasis | None = None) -> ClusterResult:
    """Exact spectral clustering with the shared result schema; k-means seeded
    from the same substream of ``seed`` as ``run_csc``'s."""
    return spectral_clustering(op, k, KmeansConfig(k=k, seed=substream_seed(seed, "kmeans")), basis=basis)
