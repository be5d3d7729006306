"""Command-line interface: graph generation, clustering, and benchmark sweeps.

Exit codes: 0 success, 2 usage error, 3 numerical failure (the dense
eigendecomposition's size cap, an empty cluster in the reduced k-means, a
node with a zero row in SC's leading eigenvectors, an arithmetic error, or a
failed allocation, such as the one for a ``# nodes N`` header that asks for
more than memory), 4 I/O error (among them a headerless edge list whose
largest id implies more than max(2 x edge lines, 2^16) nodes). Failures
print a machine-readable JSON object to stderr. The CSC_LOG environment
variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .filters import DEFAULT_FILTER_ORDER
from .graph import GraphError, laplacian_op, read_edge_list, write_edge_list
from .oracle import DEFAULT_DENSE_CAP, DenseCapError, run_sc_baseline
from .pipeline import SIGNAL_OVERSAMPLING, CscParams, run_csc
from .result import DegenerateClusteringError, write_labels_csv
from .sbm import SbmConfig, critical_epsilon, sbm_generate, sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_DEFAULTS_NOTE = (
    f"defaults: n = 2k log k, d = max(4 log n, k + {SIGNAL_OVERSAMPLING}) and p = {DEFAULT_FILTER_ORDER} "
    "(natural logs, rounded up)"
)


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _fail(message: str, exit_code: int) -> int:
    payload = {"error": message, "exit_code": exit_code}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exit_code


def _check_overwrite(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise CliError(f"refusing to overwrite {path} (pass --force)", EXIT_IO)


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"invalid --sizes list: {text!r}", EXIT_USAGE) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cscluster",
        description="Compressive spectral clustering of sparse graphs. " + _DEFAULTS_NOTE + ".",
    )
    parser.add_argument("--version", action="version", version=f"cscluster {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "sbm-gen",
        help="generate a stochastic block model graph and its ground-truth labels",
        description="Writes PREFIX.edgelist and PREFIX.labels.csv for a sampled SBM.",
    )
    gen.add_argument("--n", type=int, required=True, help="number of nodes N")
    gen.add_argument("--k", type=int, required=True, help="number of communities")
    gen.add_argument("--s", type=float, default=16.0, help="target average degree (default 16)")
    eps_group = gen.add_mutually_exclusive_group()
    eps_group.add_argument("--eps", type=float, help="inter/intra connection ratio epsilon = q2/q1")
    eps_group.add_argument(
        "--eps-frac", type=float,
        help="epsilon as a fraction of the detectability threshold eps_c = (s - sqrt(s)) / (s + sqrt(s)(k-1))",
    )
    gen.add_argument("--sizes", type=str, help="comma-separated community sizes (overrides homogeneous N/k)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", type=str, required=True, help="output path prefix")
    gen.add_argument("--force", action="store_true", help="overwrite existing outputs")

    clu = sub.add_parser(
        "cluster",
        help="cluster an edge-list graph with the compressive pipeline or the exact baseline",
        description=(
            "Reads a whitespace edge list (src dst [weight], '#' comments) and writes the "
            "labels plus run diagnostics. Method csc uses " + _DEFAULTS_NOTE + "; method sc "
            "is the exact baseline on the k + 1 leading eigenpairs of the dense Laplacian "
            f"from LAPACK, refused above {DEFAULT_DENSE_CAP} nodes."
        ),
    )
    clu.add_argument("--input", type=str, required=True, help="edge-list path")
    clu.add_argument("--output", type=str, required=True, help="labels output path")
    clu.add_argument("--method", choices=("csc", "sc"), default="csc")
    clu.add_argument("--k", type=int, required=True, help="number of clusters")
    clu.add_argument("--n", type=int, help="sampled nodes (default 2k log k, rounded up)")
    clu.add_argument("--d", type=int,
                     help=f"random signals (default max(4 log n, k + {SIGNAL_OVERSAMPLING}), log rounded up)")
    clu.add_argument("--p", type=int, default=DEFAULT_FILTER_ORDER,
                     help=f"polynomial filter order (default {DEFAULT_FILTER_ORDER})")
    clu.add_argument("--lambda-k", type=float, dest="lambda_k",
                     help="cut-off eigenvalue override: skips the cut-off estimation")
    clu.add_argument("--seed", type=int, default=0)
    clu.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="csv: labels CSV plus .diag.json sidecar; json: one combined JSON file")
    clu.add_argument("--force", action="store_true", help="overwrite existing outputs")

    ben = sub.add_parser(
        "bench",
        help="run a benchmark sweep described by a JSON spec into a tidy CSV",
        description=(
            "The spec maps a graph grid (epsilon or eps_frac lists) and optional csc parameter "
            "lists (n, d, p) to per-run ARI/modularity rows. Existing rows are skipped, "
            "so interrupted sweeps resume; a CSV with other columns is refused; --force restarts."
        ),
    )
    ben.add_argument("--spec", type=str, required=True, help="sweep spec JSON path")
    ben.add_argument("--output", type=str, required=True, help="report CSV path")
    ben.add_argument("--threads", type=int, default=1, help="concurrent sweep cells (default 1)")
    ben.add_argument("--force", action="store_true", help="restart instead of resuming")
    return parser


def _cmd_sbm_gen(args: argparse.Namespace) -> int:
    prefix = Path(args.output)
    edge_path = prefix.with_name(prefix.name + ".edgelist")
    label_path = prefix.with_name(prefix.name + ".labels.csv")
    _check_overwrite(edge_path, args.force)
    _check_overwrite(label_path, args.force)
    sizes = _parse_sizes(args.sizes) if args.sizes else None
    if args.eps is not None:
        epsilon = args.eps
    elif args.eps_frac is not None:
        epsilon = args.eps_frac * critical_epsilon(args.s, args.k)
    else:
        epsilon = 0.25 * critical_epsilon(args.s, args.k)
    cfg = SbmConfig(num_nodes=args.n, k=args.k, avg_degree=args.s, epsilon=epsilon, sizes=sizes, seed=args.seed)
    graph, labels = sbm_generate(cfg)
    edge_path.parent.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, edge_path)
    write_labels_csv(label_path, labels)
    print(f"wrote {edge_path} ({graph.num_edges} edges, epsilon={epsilon:.6g}) and {label_path}")
    return EXIT_OK


def _cmd_cluster(args: argparse.Namespace) -> int:
    in_path = Path(args.input)
    if not in_path.exists():
        raise CliError(f"input not found: {in_path}", EXIT_IO)
    out_path = Path(args.output)
    diag_path = out_path.with_suffix(".diag.json")
    _check_overwrite(out_path, args.force)
    if args.format == "csv":
        _check_overwrite(diag_path, args.force)

    graph = read_edge_list(in_path)
    op = laplacian_op(graph)
    if args.method == "csc":
        params = CscParams(
            k=args.k, n=args.n, d=args.d, p=args.p, seed=args.seed, lambda_k=args.lambda_k,
        )
        result = run_csc(op, params)
    else:
        result = run_sc_baseline(op, args.k, seed=args.seed)

    out_path.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        write_labels_csv(out_path, result.labels)
        result.save_json(diag_path)
        print(f"wrote {out_path} and {diag_path}")
    else:
        result.save_json(out_path)
        print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise CliError(f"sweep spec not found: {spec_path}", EXIT_IO)
    rows = sweep(spec_path, args.output, threads=args.threads, force=args.force)
    failures = sum(1 for r in rows if r.get("error"))
    print(f"wrote {len(rows)} row(s) to {args.output} ({failures} failures)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CSC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sbm-gen":
            return _cmd_sbm_gen(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except CliError as exc:
        return _fail(str(exc), exc.exit_code)
    except (GraphError, FileNotFoundError, PermissionError, IsADirectoryError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_IO)
    except (DenseCapError, DegenerateClusteringError, ArithmeticError, MemoryError) as exc:
        return _fail(str(exc), EXIT_NUMERIC)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
