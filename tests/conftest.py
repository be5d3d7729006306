from __future__ import annotations

import numpy as np
import pytest

from cscluster import (
    SbmConfig,
    build_graph,
    critical_epsilon,
    dense_eig,
    laplacian_op,
    sbm_generate,
)


@pytest.fixture(scope="session")
def k3_graph():
    return build_graph([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.fixture(scope="session")
def p3_graph():
    return build_graph([(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture(scope="session")
def two_k2_graph():
    return build_graph([(0, 1, 1.0), (2, 3, 1.0)])


@pytest.fixture(scope="session")
def sbm500():
    """Shared N=500 benchmark instance (k=10, s=16, eps = eps_c/4) with its
    exact spectral decomposition."""
    k, s = 10, 16.0
    eps = critical_epsilon(s, k) / 4.0
    cfg = SbmConfig(num_nodes=500, k=k, avg_degree=s, epsilon=eps, seed=20160219)
    graph, truth = sbm_generate(cfg)
    op = laplacian_op(graph)
    basis = dense_eig(op)
    return {"cfg": cfg, "graph": graph, "truth": truth, "op": op, "basis": basis, "k": k}


@pytest.fixture(scope="session")
def sbm1000_gap():
    """One default-benchmark graph (N=1000, k=20, s=16) at eps = 0.03 with
    eigenvalues only (for cut-off bracket checks)."""
    cfg = SbmConfig(num_nodes=1000, k=20, avg_degree=16.0, epsilon=0.03, seed=7)
    graph, truth = sbm_generate(cfg)
    op = laplacian_op(graph)
    eigenvalues = dense_eig(op).eigenvalues
    return {"cfg": cfg, "graph": graph, "truth": truth, "op": op, "eigenvalues": eigenvalues, "k": 20}
