"""Stochastic block model benchmarks, clustering metrics, and parameter sweeps.

An SBM instance is parameterized by the intra/inter connection ratio
epsilon = q2/q1 and the target average degree s; for k communities of equal
size the intra-community probability is q1 = s*k / (N * (1 + eps*(k-1))).
Heterogeneous size lists reuse the same q1 formula with the nominal k (the
realized average degree is checked empirically in tests and reported).
Community detection is information-theoretically impossible above
eps_c = (s - sqrt(s)) / (s + sqrt(s)(k-1)) in the large-N limit.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import scipy.sparse as sp

from ._rng import substream, substream_seed
from .filters import DEFAULT_FILTER_ORDER
from .graph import Graph, _from_scipy, laplacian_op
from .pipeline import CscParams, run_csc, run_sc_baseline

logger = logging.getLogger(__name__)


@dataclass
class SbmConfig:
    num_nodes: int
    k: int
    avg_degree: float
    epsilon: float
    sizes: list[int] | None = None  # None: homogeneous N/k (remainder spread)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.sizes is None:
            base = self.num_nodes // self.k
            rem = self.num_nodes - base * self.k
            self.sizes = [base + (1 if i < rem else 0) for i in range(self.k)]
        if len(self.sizes) != self.k:
            raise ValueError(f"{len(self.sizes)} sizes for k={self.k} communities")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("community sizes must be positive")
        if sum(self.sizes) != self.num_nodes:
            raise ValueError(f"sizes sum to {sum(self.sizes)}, expected {self.num_nodes}")
        if not 0.0 < self.q1 <= 1.0:
            raise ValueError(f"derived q1={self.q1:.4g} outside (0, 1]; lower avg_degree or raise N")

    @property
    def q1(self) -> float:
        return self.avg_degree * self.k / (self.num_nodes * (1.0 + self.epsilon * (self.k - 1)))

    @property
    def q2(self) -> float:
        return self.epsilon * self.q1


def critical_epsilon(avg_degree: float, k: int) -> float:
    """Detectability threshold (s - sqrt(s)) / (s + sqrt(s)(k - 1))."""
    if avg_degree <= 1:
        raise ValueError("average degree must exceed 1")
    rs = math.sqrt(avg_degree)
    return (avg_degree - rs) / (avg_degree + rs * (k - 1))


def _bernoulli_positions(total: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Positions of successes among ``total`` Bernoulli(q) cells, by geometric
    gap skipping: expected O(q * total) work regardless of total."""
    if total <= 0 or q <= 0.0:
        return np.empty(0, dtype=np.int64)
    if q >= 1.0:
        return np.arange(total, dtype=np.int64)
    out: list[np.ndarray] = []
    pos = -1
    expected = q * total
    batch = max(64, int(expected + 10.0 * math.sqrt(expected) + 10.0))
    while pos < total:
        gaps = rng.geometric(q, size=batch)
        positions = pos + np.cumsum(gaps)
        out.append(positions)
        pos = int(positions[-1])
    positions = np.concatenate(out)
    return positions[positions < total]


def _triangular_pairs(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the packing of the strict upper triangle {(i, j): j < i} by rows:
    linear index t -> (i, j) with t = i(i-1)/2 + j."""
    i = ((1.0 + np.sqrt(1.0 + 8.0 * positions.astype(np.float64))) / 2.0).astype(np.int64)
    # guard float rounding at block boundaries
    tri = i * (i - 1) // 2
    i = np.where(tri > positions, i - 1, i)
    tri = i * (i - 1) // 2
    over = tri + i <= positions
    i = np.where(over, i + 1, i)
    tri = i * (i - 1) // 2
    j = positions - tri
    return i, j


def sbm_generate(cfg: SbmConfig) -> tuple[Graph, np.ndarray]:
    """Sample a graph and its ground-truth labels.

    Every intra-community pair is connected independently with probability
    q1, every inter-community pair with q2 = epsilon * q1. Nodes are ordered
    by community.
    """
    rng = np.random.default_rng(cfg.seed)
    sizes = np.asarray(cfg.sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for a in range(cfg.k):
        for b in range(a, cfg.k):
            q = cfg.q1 if a == b else cfg.q2
            if a == b:
                total = int(sizes[a]) * (int(sizes[a]) - 1) // 2
                positions = _bernoulli_positions(total, q, rng)
                if positions.size:
                    i, j = _triangular_pairs(positions)
                    rows.append(starts[a] + i)
                    cols.append(starts[a] + j)
            else:
                total = int(sizes[a]) * int(sizes[b])
                positions = _bernoulli_positions(total, q, rng)
                if positions.size:
                    rows.append(starts[a] + positions // sizes[b])
                    cols.append(starts[b] + positions % sizes[b])
    labels = np.repeat(np.arange(cfg.k), sizes)
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        data = np.ones(r.size)
        A = sp.coo_matrix((data, (r, c)), shape=(cfg.num_nodes, cfg.num_nodes)).tocsr()
        W = A + A.T  # each unordered pair was generated once
    else:
        W = sp.csr_matrix((cfg.num_nodes, cfg.num_nodes))
    return _from_scipy(W, cfg.num_nodes), labels


def adjusted_rand_index(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Hubert-Arabie adjusted Rand index from the pair-counting contingency table."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-d and of equal length")
    n = a.size
    if n < 2:
        return 1.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    nb = bi.max() + 1
    joint = np.bincount(ai * nb + bi, minlength=(ai.max() + 1) * nb).astype(np.float64)
    row = np.bincount(ai).astype(np.float64)
    col = np.bincount(bi).astype(np.float64)

    def comb2(x: np.ndarray | float) -> float:
        return float(np.sum(x * (x - 1.0))) / 2.0

    sum_ij = comb2(joint)
    sum_a = comb2(row)
    sum_b = comb2(col)
    total = comb2(float(n))
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0  # both partitions degenerate in the same way
    return (sum_ij - expected) / (maximum - expected)


def modularity(graph: Graph, labels: Sequence[int]) -> float:
    """Newman modularity Q = (1/2m) sum_ij (W_ij - d_i d_j / 2m) [same cluster]."""
    labels = np.asarray(labels)
    if labels.size != graph.num_nodes:
        raise ValueError("labels length must equal the number of nodes")
    two_m = float(graph.degrees.sum())
    if two_m == 0.0:
        raise ValueError("modularity is undefined for an empty graph")
    _, li = np.unique(labels, return_inverse=True)
    k = li.max() + 1
    counts = np.diff(graph.indptr)
    row_labels = np.repeat(li, counts)
    col_labels = li[graph.indices]
    within = row_labels == col_labels
    w_in = np.bincount(row_labels[within], weights=graph.weights[within], minlength=k)
    deg_sum = np.bincount(li, weights=graph.degrees, minlength=k)
    return float(np.sum(w_in / two_m - (deg_sum / two_m) ** 2))


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_FIELDS = [
    "run_id", "method", "num_nodes", "k", "avg_degree", "epsilon", "sizes",
    "n", "d", "p", "replicate", "seed",
    "ari", "modularity", "lambda_k_hat", "lambda_warning",
    "t_total", "t_probe", "t_filter", "t_kmeans", "t_interpolate",
    "error",
]

_CSC_KEYS = ("n", "d", "p")


def _as_list(value: Any) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def expand_sweep_spec(spec: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten a sweep description into one dict per (cell, method, replicate).

    Spec keys: graph {num_nodes, k, avg_degree, epsilon | eps_frac, sizes?},
    methods [csc|sc], replicates, seed, csc {n?, d?, p?}; any of the
    epsilon / n / d / p entries may be a list to sweep over. Other keys under
    csc are rejected.
    """
    graph = dict(spec["graph"])
    methods = list(spec.get("methods", ["csc"]))
    replicates = int(spec.get("replicates", 1))
    base_seed = int(spec.get("seed", 0))
    overrides = dict(spec.get("csc", {}))
    unknown = set(overrides) - set(_CSC_KEYS)
    if unknown:
        raise ValueError(f"unknown csc parameter(s): {sorted(unknown)}")

    if "eps_frac" in graph:
        eps_c = critical_epsilon(graph["avg_degree"], graph["k"])
        eps_list = [round(f * eps_c, 12) for f in _as_list(graph.pop("eps_frac"))]
    else:
        eps_list = _as_list(graph.pop("epsilon"))

    grid_axes = {"epsilon": eps_list}
    for key in _CSC_KEYS:
        if key in overrides:
            grid_axes[key] = _as_list(overrides[key])

    runs: list[dict[str, Any]] = []
    axis_names = list(grid_axes)
    for combo in itertools.product(*(grid_axes[k] for k in axis_names)):
        cell = dict(zip(axis_names, combo))
        cell_tag = "-".join(f"{k}={cell[k]:g}" for k in axis_names)
        for method in methods:
            for rep in range(replicates):
                run = {
                    "run_id": f"{method}-{cell_tag}-rep{rep}",
                    "method": method,
                    "num_nodes": graph["num_nodes"],
                    "k": graph["k"],
                    "avg_degree": graph["avg_degree"],
                    "sizes": graph.get("sizes"),
                    "epsilon": cell["epsilon"],
                    "replicate": rep,
                    "seed": substream_seed(base_seed, f"{cell_tag}-rep{rep}"),
                }
                for key in _CSC_KEYS:
                    if key in cell:
                        run[key] = cell[key]
                runs.append(run)
    return runs


def _execute_run(run: dict[str, Any]) -> dict[str, Any]:
    row = {f: "" for f in SWEEP_FIELDS}
    row.update({k: run.get(k, "") for k in row if k in run})
    row["sizes"] = "" if run.get("sizes") is None else ";".join(str(s) for s in run["sizes"])
    try:
        cfg = SbmConfig(
            num_nodes=int(run["num_nodes"]),
            k=int(run["k"]),
            avg_degree=float(run["avg_degree"]),
            epsilon=float(run["epsilon"]),
            sizes=run.get("sizes"),
            seed=substream_seed(run["seed"], "graph"),
        )
        graph, truth = sbm_generate(cfg)
        op = laplacian_op(graph)
        if run["method"] == "csc":
            params = CscParams(
                k=cfg.k,
                n=run.get("n"),
                d=run.get("d"),
                p=int(run.get("p", DEFAULT_FILTER_ORDER)),
                seed=substream_seed(run["seed"], "pipeline"),
            )
            result = run_csc(op, params)
            diag = result.diagnostics
            row.update(
                n=diag["n"], d=diag["d"], p=diag["p"],
                lambda_k_hat=diag["lambda_k_hat"], lambda_warning=diag["lambda_warning"],
                t_probe=round(diag["timings"]["probe"], 6),
                t_filter=round(diag["timings"]["filter"], 6),
                t_kmeans=round(diag["timings"]["kmeans"], 6),
                t_interpolate=round(diag["timings"]["interpolate"], 6),
                t_total=round(diag["timings"]["total"], 6),
            )
        elif run["method"] == "sc":
            result = run_sc_baseline(op, cfg.k, seed=substream_seed(run["seed"], "pipeline"))
            diag = result.diagnostics
            row.update(
                lambda_k_hat=diag["lambda_k"],
                t_kmeans=round(diag["timings"]["kmeans"], 6),
                t_total=round(diag["timings"]["total"], 6),
            )
        else:
            raise ValueError(f"unknown method {run['method']!r}")
        row["ari"] = repr(adjusted_rand_index(truth, result.labels))
        row["modularity"] = repr(modularity(graph, result.labels))
    except Exception as exc:  # sweep continues; failures are recorded
        logger.warning("sweep run %s failed: %s", run["run_id"], exc)
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def sweep(
    spec: dict[str, Any] | str | Path,
    out_path: str | Path,
    *,
    threads: int = 1,
    force: bool = False,
) -> list[dict[str, Any]]:
    """Run the grid described by ``spec`` and append rows to a tidy CSV.

    Each row is appended and flushed as soon as its run completes, so an
    interrupted sweep keeps every finished row; completed (method, cell,
    replicate) rows found in an existing CSV are skipped, so the next call
    resumes. An existing CSV whose header differs from ``SWEEP_FIELDS``
    (written by an older version) is refused with a ``ValueError`` and left
    untouched. ``force`` restarts from scratch. Rows are written in
    deterministic grid order regardless of thread count.
    """
    if not isinstance(spec, dict):
        spec = json.loads(Path(spec).read_text(encoding="utf-8"))
    out_path = Path(out_path)
    runs = expand_sweep_spec(spec)

    done: set[str] = set()
    if out_path.exists() and not force:
        with out_path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            if header != SWEEP_FIELDS:
                missing = [f for f in SWEEP_FIELDS if f not in header]
                extra = [f for f in header if f not in SWEEP_FIELDS]
                reordered = "" if missing or extra else ", same columns in another order"
                raise ValueError(
                    f"{out_path} has other columns than this sweep writes "
                    f"(missing {missing}, extra {extra}{reordered}); pass force to restart"
                )
            for row in reader:
                done.add(row.get("run_id", ""))
    elif out_path.exists() and force:
        out_path.unlink()

    pending = [r for r in runs if r["run_id"] not in done]
    write_header = not out_path.exists()
    rows: list[dict[str, Any]] = []
    with out_path.open("a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        if write_header:
            writer.writeheader()
            fh.flush()

        def record(row: dict[str, Any]) -> None:
            writer.writerow(row)
            fh.flush()
            rows.append(row)

        if threads > 1 and len(pending) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(_execute_run, r) for r in pending]
                try:
                    for f in futures:
                        record(f.result())
                finally:
                    # after an interrupt: drop the runs not yet started, and
                    # keep the row of every run that finished
                    for f in futures:
                        f.cancel()
                    for f in futures[len(rows):]:
                        if not f.cancelled() and f.exception() is None:
                            record(f.result())
        else:
            for r in pending:
                record(_execute_run(r))
    return rows
