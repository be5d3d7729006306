"""End-to-end compressive clustering: probe, filter, sample, cluster, lift.

Stage defaults follow the usual parameterization n = 2k log k and p = 50,
with d = max(4 log n, k + 10) random signals (natural logs, rounded up): the
k + 10 floor oversamples span(U_k) as a randomized range finder does, since
the same filtered block carries both the features and the least-squares lift
of the labels. All randomness derives from one master seed through named
per-stage substreams, so runs are reproducible stage by stage. The stages
hand each other plain arrays: the filtered block F, the sampled node
indices, the n x k one-hot reduced indicators. Each row of F = h(L) R is a
node's d-dimensional feature vector; divided by their norms, which stand in
for the unknown local coherences, these rows have pairwise distances that
approximate the spectral-clustering feature distances. Only the n sampled
rows of F are normalized, since k-means reads no other. The N x k lifted indicators
live only until their argmax: the result carries the labels and the
diagnostics. The exact baseline that ``run_csc`` is compared with is
``oracle.run_sc_baseline``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ._rng import substream, substream_seed
from .filters import DEFAULT_FILTER_ORDER, build_features, generate_signals, lowpass_coefficients
from .graph import LaplacianOp
from .kmeans import kmeans
from .result import ClusterResult, DegenerateClusteringError
from .sampling import assign, draw_sampling, interpolate_all
from .spectrum import estimate_lambda_k


# signals beyond k in the default d: the lift fits k indicators in span(F)
SIGNAL_OVERSAMPLING = 10

logger = logging.getLogger(__name__)


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

    Stages: (1) probe: cut-off estimation from the eigenvalue count curve of
    one p-step Chebyshev recurrence on 2 ceil(ln N) probe signals, (2) filter:
    damped low-pass design at the estimate and filtering of d random signals
    into F = h(L) R, (3) uniform node sampling, (4) k-means on the rows of F
    at the sampled nodes, each divided by its norm, (5) interpolate: the
    least-squares lift of the k reduced indicators in the span of F, and
    argmax assignment. Only stages 1 and 2 apply the Laplacian, p times each,
    both on float32 signal blocks: the sparse products are bound by memory
    traffic, which float32 blocks halve. Everything around the two
    recurrences runs in float64. Against float64 recurrences on the same
    draws, labels and cut-off were identical on 143 of 144 benchmark calls;
    on the other, the cut-off moved by one grid point within its gap.
    """
    N = op.num_nodes
    isolated = op.graph.isolated_nodes
    prm = params.resolve(N - isolated.size)
    if isolated.size:
        logger.warning("graph has %d isolated node(s); they are excluded from sampling", isolated.size)
    if prm.d == 1:
        logger.warning("single random signal: rank-1 embedding, distances are degenerate")
    timings: dict[str, float] = {}
    t_run = time.perf_counter()

    # 1. cut-off frequency
    t0 = time.perf_counter()
    if prm.lambda_k is None:
        est = estimate_lambda_k(op, prm.k, order=prm.p, rng=substream(prm.seed, "probe"))
        lam = est.lambda_k_hat
    else:
        est, lam = None, float(prm.lambda_k)
    timings["probe"] = time.perf_counter() - t0

    # 2. F = h(L) R: the filter runs in float32 on the drawn signals, F is float64;
    # neither the float64 draw nor its float32 copy outlives the filter
    t0 = time.perf_counter()
    filtered = build_features(
        op, lowpass_coefficients(lam, prm.p)[0],
        generate_signals(N, prm.d, seed=substream(prm.seed, "signals")).astype(np.float32),
    )
    timings["filter"] = time.perf_counter() - t0

    # 3. sampling: an isolated node filters to h(1) r_i, which row
    # normalization would turn into a random unit row
    t0 = time.perf_counter()
    sampled = draw_sampling(N, prm.n, substream(prm.seed, "sampling"), exclude=isolated)
    timings["sampling"] = time.perf_counter() - t0

    # 4. reduced k-means on the unit-normalized sampled rows of F
    t0 = time.perf_counter()
    rows = filtered[sampled]
    labeling = kmeans(rows / np.linalg.norm(rows, axis=1)[:, None], prm.k, substream_seed(prm.seed, "kmeans"))
    counts = np.bincount(labeling.labels, minlength=prm.k)
    if np.any(counts == 0):
        raise DegenerateClusteringError(
            f"empty cluster(s) {np.flatnonzero(counts == 0).tolist()} in the reduced k-means"
        )
    timings["kmeans"] = time.perf_counter() - t0

    # 5. interpolation of the n x k one-hot reduced indicators + assignment
    t0 = time.perf_counter()
    labels = assign(interpolate_all(filtered, sampled, np.eye(prm.k)[labeling.labels]))
    timings["interpolate"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_run

    warned = est is not None and est.warning
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
        "lambda_source": "override" if est is None else "estimated",
        "lambda_warning": warned,
        "probe_iterations": 0 if est is None else 1,
        "probe_count": None if est is None else est.count,
        "probe_count_se": None if est is None else est.count_se,
        # no probe is refused any more; perfbench still reads the key
        "probe_refused": 0,
        "kmeans_inertia": labeling.inertia,
        "kmeans_iterations": labeling.iterations_run,
        "kmeans_distance_rows": labeling.distance_rows,
        # the lift is a direct solve, no iteration; perfbench still reads both keys
        "solver_iterations": [0] * prm.k,
        "solver_converged": [True] * prm.k,
        "warnings": ["lambda_k fallback: no count plateau at k"] if warned else [],
        "timings": timings,
    }
    return ClusterResult(labels=labels, diagnostics=diagnostics)
