"""The dense eigendecomposition behind the oracle: ``dense_eig`` on small
unweighted and weighted graphs (ascending eigenvalues, orthonormal
eigenvectors, small residuals, degenerate and diagonal cases), for the full
spectrum and for the leading pairs alone."""

from __future__ import annotations

import numpy as np
import pytest

from cscluster import LaplacianOp, build_graph, dense_eig, laplacian_op
from helpers import random_graph


def _graph_op(n, rng, weighted):
    if n < 2:
        return laplacian_op(build_graph([], num_nodes=n))
    return laplacian_op(random_graph(n, 0.5, rng, weighted=weighted))


def _three_k4(weighted):
    # three disjoint K4: eigenvalue 0 three times and 4/3 nine times,
    # whatever the (common) weight of the edges
    wt = 2.5 if weighted else 1.0
    edges = [(4 * c + i, 4 * c + j, wt) for c in range(3) for i in range(4) for j in range(i + 1, 4)]
    return laplacian_op(build_graph(edges))


@pytest.mark.parametrize("weighted", [False, True])
class TestSymmetricEigh:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 60])
    def test_residual_orthonormality(self, weighted, n):
        rng = np.random.default_rng(n)
        op = _graph_op(n, rng, weighted)
        L = op.dense()
        basis = dense_eig(op)
        w, V = basis.eigenvalues, basis.eigenvectors
        assert V.shape == (n, n)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.linalg.norm(V.T @ V - np.eye(n)) < 1e-11
        assert np.linalg.norm(L @ V - V * w) < 1e-10 * max(1.0, np.linalg.norm(L))

    def test_matches_lapack_eigenvalues(self, weighted):
        # cross-check against numpy's own LAPACK build on the same dense matrix
        rng = np.random.default_rng(42)
        for n in (5, 20, 80):
            op = _graph_op(n, rng, weighted)
            w = dense_eig(op).eigenvalues
            ref = np.linalg.eigvalsh(op.dense())
            assert np.abs(w - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())

    def test_diagonal_matrix(self, weighted):
        # every node has degree 0 (no edges, or only zero-weight ones), so L is the identity
        edges = [(i, j, 0.0) for i in range(4) for j in range(i + 1, 4)] if weighted else []
        op = laplacian_op(build_graph(edges, num_nodes=4))
        assert np.array_equal(op.dense(), np.eye(4))
        basis = dense_eig(op)
        assert np.allclose(basis.eigenvalues, 1.0, atol=1e-14)
        assert np.linalg.norm(basis.eigenvectors.T @ basis.eigenvectors - np.eye(4)) < 1e-12

    def test_degenerate_spectrum(self, weighted):
        op = _three_k4(weighted)
        basis = dense_eig(op)
        w, V = basis.eigenvalues, basis.eigenvectors
        assert np.allclose(w[:3], 0.0, atol=1e-10)
        assert np.allclose(w[3:], 4.0 / 3.0, atol=1e-10)
        assert np.linalg.norm(op.dense() @ V - V * w) < 1e-10

    @pytest.mark.parametrize(
        "n, count",
        [
            (10, 1), (10, 3), (60, 21), (60, 60),
            pytest.param(None, 5, id="three-k4-5"), pytest.param(None, 12, id="three-k4-12"),
        ],
    )
    def test_leading_pairs(self, weighted, n, count):
        # n = None is three K4s, where count = 5 cuts through the ninefold 4/3
        op = _three_k4(weighted) if n is None else _graph_op(n, np.random.default_rng(count), weighted)
        L = op.dense()
        full = dense_eig(op).eigenvalues
        basis = dense_eig(op, count)
        w, V = basis.eigenvalues, basis.eigenvectors
        assert w.shape == (count,)
        assert V.shape == (op.num_nodes, count)
        assert np.abs(w - full[:count]).max() < 1e-12
        assert np.linalg.norm(V.T @ V - np.eye(count)) < 1e-11
        assert np.linalg.norm(L @ V - V * w) < 1e-10 * max(1.0, np.linalg.norm(L))

    @pytest.mark.parametrize("count", [0, -1, 11])
    def test_count_out_of_range(self, weighted, count, monkeypatch):
        op = _graph_op(10, np.random.default_rng(0), weighted)

        def densify(self):
            raise AssertionError("a bad count must be refused before the Laplacian is densified")

        monkeypatch.setattr(LaplacianOp, "dense", densify)
        with pytest.raises(ValueError, match=rf"count={count} eigenpairs out of range \[1, 10\]"):
            dense_eig(op, count)
