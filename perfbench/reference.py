"""One-off reference figures at a size too slow to repeat in a benchmark run.

    python3 perfbench/reference.py

Makes one planted-partition graph with the benchmark's generator (N = 10^5,
k = 20, s = 16, eps = eps_c / 4, graph seed 0), then times one ``run_csc``
call (pipeline seed 0) and one sparse SC call: ARPACK on
S = D^-1/2 W D^-1/2 for k + 1 pairs, passed as ``basis=`` to
``run_sc_baseline``, so that SC's k-means is the program's. Prints seconds
and the ARI of each against the planted partition.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cscluster  # noqa: E402

import inputs  # noqa: E402

NODES, K, GRAPH_SEED = 100000, 20, 0


def main() -> int:
    w = inputs.Workload(f"reference-{NODES}-{K}", NODES, K, csc_seeds=1, sc_seeds=1, sc="sparse")
    edges, truth, stats = inputs.planted_partition(w, GRAPH_SEED)
    inputs.check_realization(w, edges, truth, stats)
    graph = cscluster.build_graph(np.column_stack([edges, np.ones(len(edges))]), num_nodes=NODES)
    op = cscluster.laplacian_op(graph)

    t0 = time.perf_counter()
    csc = cscluster.run_csc(op, cscluster.CscParams(k=K, seed=0))
    csc_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    lam, vecs = inputs.sparse_spectrum(inputs.normalized_adjacency(edges, NODES), K + 1)
    sc = cscluster.run_sc_baseline(op, K, basis=cscluster.EigenBasis(eigenvalues=lam, eigenvectors=vecs))
    sc_s = time.perf_counter() - t0

    ari = cscluster.adjusted_rand_index
    print(f"N={NODES} k={K} graph seed {GRAPH_SEED}")
    print(f"CSC        {csc_s:8.2f} s  ARI {ari(truth, csc.labels):.4f}  stages {csc.diagnostics['timings']}")
    print(f"sparse SC  {sc_s:8.2f} s  ARI {ari(truth, sc.labels):.4f}  (ARPACK + the program's k-means)")
    print(f"CSC vs SC ARI {ari(sc.labels, csc.labels):.4f}; lambda_k in [{lam[K - 1]:.4f}, {lam[K]:.4f}), "
          f"CSC lambda_k_hat {csc.diagnostics['lambda_k_hat']:.4f}, probes {csc.diagnostics['probe_iterations']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
