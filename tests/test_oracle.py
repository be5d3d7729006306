from __future__ import annotations

import numpy as np
import pytest

import cscluster.oracle
from cscluster import (
    DegenerateClusteringError,
    DenseCapError,
    LaplacianOp,
    SbmConfig,
    adjusted_rand_index,
    build_graph,
    dense_eig,
    laplacian_op,
    run_sc_baseline,
    sbm_generate,
)
from cscluster.oracle import DEFAULT_DENSE_CAP, EigenBasis
from helpers import cliques_graph, random_graph


class TestDenseEig:
    def test_k2_spectrum(self):
        op = laplacian_op(build_graph([(0, 1, 1.0)]))
        basis = dense_eig(op)
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_two_k2_spectrum(self, two_k2_graph):
        basis = dense_eig(laplacian_op(two_k2_graph))
        assert np.allclose(basis.eigenvalues, [0.0, 0.0, 2.0, 2.0], atol=1e-12)

    def test_p3_spectrum(self, p3_graph):
        # 3x3 characteristic polynomial by hand: lambda (lambda-1) (lambda-2)
        basis = dense_eig(laplacian_op(p3_graph))
        assert np.allclose(basis.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)

    def test_cap_exceeded(self, monkeypatch):
        op = laplacian_op(build_graph([], num_nodes=DEFAULT_DENSE_CAP + 1))

        def densify(self):
            raise AssertionError("the cap must refuse before the Laplacian is densified")

        monkeypatch.setattr(LaplacianOp, "dense", densify)
        with pytest.raises(DenseCapError, match="N=5001 > cap=5000.*run_csc"):
            dense_eig(op)

    def test_rayleigh_residuals_and_orthonormality(self):
        rng = np.random.default_rng(21)
        g = random_graph(120, 0.08, rng)
        op = laplacian_op(g)
        basis = dense_eig(op)
        L = op.dense()
        n = g.num_nodes
        assert np.linalg.norm(basis.eigenvectors.T @ basis.eigenvectors - np.eye(n)) < 1e-10
        residual = L @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
        assert np.linalg.norm(residual, axis=0).max() < 1e-8
        assert basis.eigenvalues.min() > -1e-10
        assert basis.eigenvalues.max() < 2.0 + 1e-10

    def test_connected_graph_single_zero(self, k3_graph):
        basis = dense_eig(laplacian_op(k3_graph))
        assert abs(basis.eigenvalues[0]) < 1e-12
        assert basis.eigenvalues[1] > 1e-8


@pytest.fixture(scope="module")
def sbm200():
    """A 200-node SBM with k = 4 and its full dense spectrum."""
    cfg = SbmConfig(num_nodes=200, k=4, avg_degree=16.0, epsilon=0.05, seed=3)
    op = laplacian_op(sbm_generate(cfg)[0])
    return op, dense_eig(op)


class TestSpectralClustering:
    def test_disconnected_cliques_exact(self):
        g, truth = cliques_graph(3, 6)
        result = run_sc_baseline(laplacian_op(g), 3, seed=0)
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_k_equals_n(self, k3_graph):
        result = run_sc_baseline(laplacian_op(k3_graph), 3, seed=1)
        assert len(set(result.labels.tolist())) == 3

    def test_zero_row_names_node(self):
        # two K2 components and isolated node 4: the spectrum is 0, 0, 1, 2, 2,
        # and the isolated node has no weight in the two null vectors
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)], num_nodes=5)
        with pytest.raises(DegenerateClusteringError, match=r"zero row .* node\(s\) \[4\]"):
            run_sc_baseline(laplacian_op(g), 2, seed=0)

    def test_partition_invariant_to_basis_rotation(self):
        g, truth = cliques_graph(3, 8)
        op = laplacian_op(g)
        basis = dense_eig(op)
        base = run_sc_baseline(op, 3, seed=5, basis=basis)
        rng = np.random.default_rng(0)
        for _ in range(3):
            # rotate inside the zero eigenspace and flip signs elsewhere
            Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            V = basis.eigenvectors.copy()
            V[:, :3] = V[:, :3] @ Q
            V[:, 3:] *= rng.choice([-1.0, 1.0], size=V.shape[1] - 3)
            rotated = EigenBasis(eigenvalues=basis.eigenvalues.copy(), eigenvectors=V)
            result = run_sc_baseline(op, 3, seed=5, basis=rotated)
            assert adjusted_rand_index(base.labels, result.labels) == 1.0

    def test_degenerate_cut_warning_flag(self):
        # 4-cycle spectrum (0, 1, 1, 2): tie right at the k = 2 cut
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        result = run_sc_baseline(laplacian_op(g), 2, seed=0)
        assert result.diagnostics["degenerate_eigenvalue_cut"] is True

    def test_tie_with_degenerate_indicators_raises_zero_row(self):
        # first 2 of the 3 component indicators leave the third clique with
        # zero rows: the pathologic case must name the offending nodes
        g, _ = cliques_graph(3, 5)
        with pytest.raises(DegenerateClusteringError, match="zero row"):
            run_sc_baseline(laplacian_op(g), 2, seed=0)

    @pytest.mark.parametrize("graph, k", [("cliques", 3), ("cliques", 18), ("k3", 3)])
    def test_asks_lapack_for_k_plus_one_pairs(self, graph, k, k3_graph, monkeypatch):
        # one dense_eig call, looked up at call time (as the benchmark's
        # tracer wraps it), for U_k and lambda_{k+1}: min(k + 1, N) pairs
        g = cliques_graph(3, 6)[0] if graph == "cliques" else k3_graph
        op = laplacian_op(g)
        calls = []

        def recording(op, count=None):
            calls.append(count)
            return dense_eig(op, count)

        monkeypatch.setattr(cscluster.oracle, "dense_eig", recording)
        result = run_sc_baseline(op, k, seed=0)
        assert calls == [min(k + 1, op.num_nodes)]
        assert result.labels.shape == (op.num_nodes,)

    @pytest.mark.parametrize(
        "rows, columns, values",
        [
            (200, 4, 4),  # k pairs: no lambda_{k+1} for the tie check
            (5, 5, 5),  # 5 rows for 200 nodes
            (200, 5, 4),  # one eigenvalue short
        ],
        ids=["k-pairs", "5-rows", "eigenvalue-short"],
    )
    def test_given_basis_must_fit(self, sbm200, rows, columns, values):
        op, basis = sbm200
        bad = EigenBasis(eigenvalues=basis.eigenvalues[:values], eigenvectors=basis.eigenvectors[:rows, :columns])
        shapes = rf"\({rows}, {columns}\) and eigenvalues of shape \({values},\)"
        with pytest.raises(ValueError, match=shapes + r": need 200 rows and at least 5 columns"):
            run_sc_baseline(op, 4, seed=0, basis=bad)

    def test_given_basis_of_k_plus_one_pairs(self, sbm200):
        op, basis = sbm200
        leading = EigenBasis(eigenvalues=basis.eigenvalues[:5], eigenvectors=basis.eigenvectors[:, :5])
        result = run_sc_baseline(op, 4, seed=0, basis=leading)
        assert result.to_json() == run_sc_baseline(op, 4, seed=0, basis=basis).to_json()

    def test_equal_seeds_give_identical_json(self, sbm500):
        op, k = sbm500["op"], sbm500["k"]
        for seed in (0, 7):
            first = run_sc_baseline(op, k, seed=seed).to_json()
            assert run_sc_baseline(op, k, seed=seed).to_json() == first

    @pytest.mark.slow
    def test_sbm_near_perfect_recovery(self):
        # easy regime: eps = eps_c / 4 on the default benchmark family
        k, s = 20, 16.0
        eps_c = (s - np.sqrt(s)) / (s + np.sqrt(s) * (k - 1))
        aris = []
        for rep in range(20):
            cfg = SbmConfig(num_nodes=1000, k=k, avg_degree=s, epsilon=eps_c / 4, seed=100 + rep)
            graph, truth = sbm_generate(cfg)
            result = run_sc_baseline(laplacian_op(graph), k, seed=rep)
            aris.append(adjusted_rand_index(truth, result.labels))
        assert np.mean(aris) >= 0.95
