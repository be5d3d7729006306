"""Benchmark of cscluster: CSC and SC timed end to end, and layer by layer.

    python3 perfbench/run.py --workload sbm-large --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
workload's graph is made from ``--seed`` (see ``inputs.py``) and cached under
``perfbench/.cache``. The run then

1. runs whole rounds while the next round still fits in ``--seconds`` (at
   least one). A round is one ``run_csc`` call for each pipeline seed
   0 .. csc_seeds-1, then the workload's fixed-input ``run_csc`` calls, then
   one ``run_sc_baseline`` call for each k-means seed 0 .. sc_seeds-1, then
   csc_passes-1 more ``run_csc`` calls for each pipeline seed.
   Every call is one operation and is checked against the
   planted partition and the cached eigenvalues; an operation that raises or
   fails a check counts as failed;
2. before each operation loads the edge list and builds the operator again
   (``read_edge_list`` + ``laplacian_op``), the operation then runs on it;
   ``setup_s`` is the median of these set-ups, spread over the whole run;
3. prints one line per metric and, last, one JSON object.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the same rounds with spans recorded around the calls into
each layer (``spans.py``), reports the per-layer metrics, cross-checks the
spans against ``diagnostics["timings"]`` and writes the spans to
``perfbench/out``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import cscluster  # noqa: E402
from cscluster import CscParams, EigenBasis, laplacian_op, read_edge_list, run_csc, run_sc_baseline  # noqa: E402

import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

# ARI below which a run has lost the planted partition (see README.md)
ARI_FLOOR = 0.5
SC_LAMBDA_TOL = 1e-8
ARI_AGREEMENT = 1e-9
# a span may be shorter than the stage timing that encloses it by at most this
SPAN_SLACK_S, SPAN_SLACK_REL = 0.02, 0.05

# span name -> diagnostics["timings"] key of the run_csc stage that encloses it
STAGE_OF_SPAN = {
    "spectrum.estimate_lambda_k": "probe",
    "features.build_features": "filter",
    "sampling.draw_sampling": "sampling",
    "kmeans.kmeans": "kmeans",
    "sampling.interpolate_all": "interpolate",
}


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index (Hubert & Arabie) from the contingency table."""
    n = a.size
    _, table = np.unique(np.stack([a, b]), axis=1, return_counts=True)
    _, rows = np.unique(a, return_counts=True)
    _, cols = np.unique(b, return_counts=True)
    pairs = lambda c: float(np.sum(c * (c - 1.0))) / 2.0  # noqa: E731
    index, sum_a, sum_b = pairs(table.astype(float)), pairs(rows.astype(float)), pairs(cols.astype(float))
    expected = sum_a * sum_b / (n * (n - 1) / 2.0)
    best = 0.5 * (sum_a + sum_b)
    return 1.0 if best == expected else (index - expected) / (best - expected)


@dataclass
class Graph:
    """One cached input: the edge list, the planted partition and the eigenvalues."""

    entry: Path
    meta: dict
    truth: np.ndarray

    @classmethod
    def load(cls, workload: str, seed: int) -> Graph:
        entry = inputs.entry_dir(workload, seed)
        return cls(entry, json.loads((entry / "meta.json").read_text(encoding="utf-8")), np.load(entry / "labels.npy"))

    def in_gap(self, lam: float) -> bool:
        return self.meta["lambda_k"] <= lam < self.meta["lambda_k1"]


@dataclass
class Op:
    kind: str  # "csc" | "csc-fixed" | "sc"
    seed: int
    seconds: float
    labels: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    ari: float | None = None
    failure: str | None = None
    off_gap: bool = False  # CSC: lambda_k_hat outside [lambda_k, lambda_k+1)


class Bench:
    def __init__(self, workload: inputs.Workload, seed: int, tracer: Tracer) -> None:
        self.w = workload
        self.graph = Graph.load(workload.name, seed)
        self.fixed = [(Graph.load(workload.name, g), p) for g, p in workload.fixed_csc]
        self.tracer = tracer
        self.setups: list[tuple[float, float]] = []  # (read, build) seconds
        self.problems: list[str] = []  # harness-level inconsistencies: make the run incorrect
        self.basis = None
        if workload.sc == "sparse":
            # the benchmark's ARPACK basis, made once and outside the timed
            # calls, so that sc_s times only the program
            edges = np.loadtxt(self.graph.entry / "edges.txt", dtype=np.int64, comments="#", ndmin=2)
            lam, vecs = inputs.sparse_spectrum(inputs.normalized_adjacency(edges, workload.num_nodes), workload.k + 1)
            self.basis = EigenBasis(eigenvalues=lam, eigenvectors=vecs)

    def setup(self, graph: Graph):
        """Load the edge list and build the operator the next operation uses."""
        with self.tracer.span("setup", new_op=True):
            t0 = time.perf_counter()
            with self.tracer.span("graph.read_edge_list"):
                g = read_edge_list(graph.entry / "edges.txt")
            t1 = time.perf_counter()
            with self.tracer.span("graph.laplacian_op"):
                op = laplacian_op(g)
            t2 = time.perf_counter()
        self.setups.append((t1 - t0, t2 - t1))
        if op.num_nodes != graph.meta["num_nodes"] or op.graph.num_edges != graph.meta["num_edges"]:
            raise RuntimeError(f"loaded {op.num_nodes} nodes / {op.graph.num_edges} edges, cache says "
                               f"{graph.meta['num_nodes']} / {graph.meta['num_edges']}")
        return op

    def ari(self, a: np.ndarray, b: np.ndarray) -> float:
        own, program = adjusted_rand(a, b), cscluster.adjusted_rand_index(a, b)
        if abs(own - program) > ARI_AGREEMENT:
            self.problems.append(f"ARI mismatch: benchmark {own!r}, cscluster {program!r}")
        return own

    def _check_labels(self, result: Op, labels: np.ndarray, truth: np.ndarray) -> None:
        result.labels = labels = np.asarray(labels)
        if labels.shape != (self.w.num_nodes,):
            result.failure = f"labels have shape {labels.shape}, expected ({self.w.num_nodes},)"
        elif labels.min() < 0 or labels.max() >= self.w.k:
            result.failure = f"label outside [0, {self.w.k})"
        else:
            result.ari = self.ari(truth, labels)
            if result.ari < ARI_FLOOR:
                result.failure = f"ARI {result.ari:.4f} < floor {ARI_FLOOR}"

    def csc(self, seed: int, graph: Graph, kind: str = "csc") -> Op:
        op = self.setup(graph)
        t0 = time.perf_counter()
        try:
            with self.tracer.span("pipeline.run_csc", new_op=True):
                res = run_csc(op, CscParams(k=self.w.k, seed=seed))
        except Exception as exc:  # an operation that raises counts as failed
            return Op(kind, seed, time.perf_counter() - t0, failure=f"raised {exc!r}")
        result = Op(kind, seed, time.perf_counter() - t0, diagnostics=res.diagnostics)
        self._check_labels(result, res.labels, graph.truth)
        if result.failure is None and not all(res.diagnostics["solver_converged"]):
            result.failure = "interpolation solver did not converge"
        lam_hat = res.diagnostics["lambda_k_hat"]
        result.off_gap = not graph.in_gap(lam_hat)
        if result.failure is None and result.off_gap:
            how = "fallback" if res.diagnostics["lambda_warning"] else "accepted"
            msg = f"{how} lambda_k_hat {lam_hat!r} outside the gap [{graph.meta['lambda_k']!r}, {graph.meta['lambda_k1']!r})"
            if kind == "csc" and res.diagnostics["lambda_warning"]:
                # on the --seed graph a fallback outside the gap happens for
                # some seeds only: counted in spectrum.off_gap, and carried
                # into `failed` by the fixed-input operations instead
                print(f"NOTE csc seed {seed}: {msg}", file=sys.stderr)
            else:
                result.failure = msg
        return result

    def sc(self, seed: int) -> Op:
        op = self.setup(self.graph)
        t0 = time.perf_counter()
        try:
            with self.tracer.span("pipeline.run_sc_baseline", new_op=True):
                res = run_sc_baseline(op, self.w.k, seed=seed, basis=self.basis)
        except Exception as exc:  # an operation that raises counts as failed
            return Op("sc", seed, time.perf_counter() - t0, failure=f"raised {exc!r}")
        result = Op("sc", seed, time.perf_counter() - t0, diagnostics=res.diagnostics)
        self._check_labels(result, res.labels, self.graph.truth)
        ref = self.graph.meta["lambda_k_lapack"]
        if result.failure is None and abs(res.diagnostics["lambda_k"] - ref) > SC_LAMBDA_TOL:
            result.failure = f"SC lambda_k {res.diagnostics['lambda_k']!r} differs from LAPACK's {ref!r}"
        return result

    def round(self) -> list[Op]:
        # CSC first: the first calls of a process pay its lazy set-up, and
        # csc_s averages that over the most calls
        ops = [self.csc(seed, self.graph) for seed in range(self.w.csc_seeds)]
        with self.tracer.paused():  # the per-layer metrics describe the --seed graph only
            ops += [self.csc(seed, graph, kind="csc-fixed") for graph, seed in self.fixed]
        ops += [self.sc(seed) for seed in range(self.w.sc_seeds)]
        # repeated passes come after SC, so that one slow stretch of the
        # machine is unlikely to cover every call of a pipeline seed
        return ops + [self.csc(seed, self.graph) for _ in range(self.w.csc_passes - 1) for seed in range(self.w.csc_seeds)]


def csc_seconds(csc: list[Op]) -> float:
    """Mean over the pipeline seeds of the fastest call of each seed in the
    run: the calls of one seed do the same work, so the slower ones measure
    the machine's interference, not the program."""
    fastest: dict[int, float] = {}
    for o in csc:
        fastest[o.seed] = min(o.seconds, fastest.get(o.seed, o.seconds))
    return float(np.mean(list(fastest.values())))


def end_to_end(bench: Bench, rounds: list[list[Op]]) -> dict[str, tuple[float, str]]:
    ops = [o for r in rounds for o in r]
    csc = [o for o in ops if o.kind == "csc"]
    sc = [o for o in ops if o.kind == "sc"]
    pair_ari = []
    for r in rounds:
        sc_labels = [o.labels for o in r if o.kind == "sc" and o.failure is None]
        if sc_labels:
            pair_ari += [bench.ari(sc_labels[0], o.labels) for o in r if o.kind == "csc" and o.failure is None]
    mean = lambda xs: float(np.mean(xs)) if xs else 0.0  # noqa: E731
    return {
        "setup_s": (statistics.median(r + b for r, b in bench.setups), "s"),
        "csc_s": (csc_seconds(csc), "s"),
        "csc_ari": (mean([o.ari for o in csc if o.ari is not None]), "ARI"),
        # a median: each SC call is short, so one stall would move a mean
        "sc_s": (statistics.median(o.seconds for o in sc), "s"),
        "sc_ari": (mean([o.ari for o in sc if o.ari is not None]), "ARI"),
        "csc_sc_ari": (mean(pair_ari), "ARI"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(bench: Bench, rounds: list[list[Op]]) -> dict[str, tuple[float, str]]:
    """Per-layer totals per round (every round is the same set of operations)."""
    tracer, n_rounds = bench.tracer, len(rounds)
    spans = [s for s in tracer.spans if s.name != "setup" and not s.name.startswith("graph.")]
    done = [o for r in rounds for o in r if o.diagnostics and o.kind != "csc-fixed"]
    csc = [o for o in done if o.kind == "csc"]
    named = lambda name: [s for s in spans if s.name == name]  # noqa: E731
    per_round = lambda x: float(x) / n_rounds  # noqa: E731

    def seconds(name: str) -> float:
        return per_round(sum(s.seconds for s in named(name)))

    def applies(name: str, what: str = "apply_calls") -> float:
        return per_round(sum(getattr(s, what) for s in named(name)))

    apply_cols = sum(s.apply_columns for s in spans)
    apply_s = sum(s.apply_s for s in spans)
    nnz = 2 * bench.graph.meta["num_edges"]  # stored entries of the symmetric CSR
    self_s = sum(r.seconds - sum(c.seconds for c in tracer.children(r)) for r in named("pipeline.run_csc"))
    return {
        "graph.read_s": (statistics.median(r for r, _ in bench.setups), "s"),
        "graph.op_s": (statistics.median(b for _, b in bench.setups), "s"),
        "graph.apply_calls": (per_round(sum(s.apply_calls for s in spans)), "count"),
        "graph.apply_columns": (per_round(apply_cols), "count"),
        "graph.apply_s": (per_round(apply_s), "s"),
        "graph.apply_ns_per_entry": (1e9 * apply_s / max(apply_cols * nnz, 1), "ns"),
        "spectrum.s": (seconds("spectrum.estimate_lambda_k"), "s"),
        "spectrum.probes": (per_round(sum(o.diagnostics["probe_iterations"] for o in csc)), "count"),
        "spectrum.applies": (applies("spectrum.estimate_lambda_k"), "count"),
        "spectrum.refused": (per_round(sum(o.diagnostics["probe_refused"] for o in csc)), "count"),
        "spectrum.fallbacks": (per_round(sum(bool(o.diagnostics["lambda_warning"]) for o in csc)), "count"),
        "spectrum.off_gap": (per_round(sum(o.off_gap for o in csc)), "count"),
        "features.s": (seconds("features.build_features"), "s"),
        "features.applies": (applies("features.build_features"), "count"),
        "sampling.interpolate_s": (seconds("sampling.interpolate_all"), "s"),
        "sampling.cg_iters": (per_round(sum(max(o.diagnostics["solver_iterations"]) for o in csc)), "count"),
        "sampling.applies": (applies("sampling.interpolate_all"), "count"),
        "sampling.columns": (applies("sampling.interpolate_all", "apply_columns"), "count"),
        "kmeans.s": (seconds("kmeans.kmeans"), "s"),
        "kmeans.iters": (per_round(sum(o.diagnostics["kmeans_iterations"] for o in done)), "count"),
        "oracle.eig_s": (seconds("oracle.dense_eig"), "s"),
        "pipeline.self_s": (per_round(self_s), "s"),
        # minus csc_s of an untraced run: the tracing overhead
        "trace.csc_s": (csc_seconds(csc), "s"),
    }


def check_spans(bench: Bench, rounds: list[list[Op]]) -> None:
    """Each stage span lies inside the run_csc stage timing that encloses it,
    and run_csc's own span encloses diagnostics["timings"]["total"]."""
    tracer = bench.tracer
    roots = [s for s in tracer.spans if s.name == "pipeline.run_csc"]
    csc = [o for r in rounds for o in r if o.kind == "csc" and o.diagnostics]
    if len(roots) != len(csc):
        bench.problems.append(f"{len(roots)} run_csc spans for {len(csc)} calls")
        return
    for root, o in zip(roots, csc):
        timings = o.diagnostics["timings"]
        pairs = [(root.seconds, timings["total"])]  # (outer, inner)
        pairs += [(timings[STAGE_OF_SPAN[s.name]], s.seconds) for s in tracer.children(root)]
        for outer, inner in pairs:
            if not 0.0 <= outer - inner <= SPAN_SLACK_S + SPAN_SLACK_REL * outer:
                bench.problems.append(f"seed {o.seed}: span and stage timing disagree ({outer!r} vs {inner!r})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="workload seed: makes the graph")
    ap.add_argument("--seconds", type=float, required=True, help="measure whole rounds within this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(cscluster.__file__).resolve().parent != ROOT / "src" / "cscluster":
        raise SystemExit(f"cscluster imported from {cscluster.__file__}, not from this checkout's src/")

    w = inputs.WORKLOADS[args.workload]
    seeds = [args.seed] + [g for g, _ in w.fixed_csc]
    if not all((inputs.entry_dir(w.name, g) / "meta.json").exists() for g in seeds):
        # in a child process, so that its memory stays out of peak_rss_mb
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload", w.name, "--seeds", *map(str, seeds)],
                       check=True, stdout=subprocess.DEVNULL)
    bench = Bench(w, args.seed, Tracer(enabled=bool(args.trace)))

    if args.trace:
        bench.tracer.install()
    rounds: list[list[Op]] = []
    t_start = time.perf_counter()
    try:
        while True:
            rounds.append(bench.round())
            elapsed = time.perf_counter() - t_start
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    finally:
        bench.tracer.uninstall()

    if args.trace:
        check_spans(bench, rounds)
        metrics = per_layer(bench, rounds)
        bench.tracer.dump(HERE / "out" / f"spans-{w.name}-seed{args.seed}.json")
    else:
        metrics = end_to_end(bench, rounds)

    ops = [o for r in rounds for o in r]
    for o in ops:
        if o.failure:
            print(f"FAILED {o.kind} seed {o.seed}: {o.failure}", file=sys.stderr)
    for p in bench.problems:
        print(f"CHECK {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": len(ops),
        "failed": sum(o.failure is not None for o in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
