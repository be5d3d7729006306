from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from cscluster import (
    GraphError,
    build_graph,
    laplacian_op,
    read_edge_list,
    write_edge_list,
)
from helpers import dense_normalized_laplacian, random_graph


class TestBuildGraph:
    def test_triangle_degrees(self, k3_graph):
        assert np.allclose(k3_graph.degrees, [2.0, 2.0, 2.0])
        assert k3_graph.num_edges == 3

    def test_isolated_node_flagged(self):
        g = build_graph([(0, 1, 2.5)], num_nodes=3)
        assert np.allclose(g.degrees, [2.5, 2.5, 0.0])
        assert g.isolated_nodes.tolist() == [2]

    def test_duplicate_directions_merge(self):
        # opposite directions with equal weight: one undirected edge, weight 1
        g = build_graph([(0, 1, 1.0), (1, 0, 1.0)])
        assert g.num_edges == 1
        assert np.allclose(g.degrees, [1.0, 1.0])

    def test_same_direction_sum_then_max(self):
        # (0,1) entries sum to 3, opposite direction carries 5: max wins
        g = build_graph([(0, 1, 1.0), (0, 1, 2.0), (1, 0, 5.0)])
        W = g.adjacency().toarray()
        assert W[0, 1] == 5.0 and W[1, 0] == 5.0

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="negative weight"):
            build_graph([(0, 1, -0.5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(GraphError, match="non-finite weight"):
            build_graph([(0, 1, bad), (1, 2, 1.0)])

    def test_index_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph([(0, 7, 1.0)], num_nodes=3)

    def test_self_loop_modes(self):
        with pytest.raises(GraphError, match="self-loop on node 1"):
            build_graph([(1, 1, 1.0), (0, 1, 1.0)])

    def test_symmetrization_idempotent(self):
        rng = np.random.default_rng(3)
        g = random_graph(40, 0.15, rng)
        W = g.adjacency().tocoo()
        rebuilt = build_graph(np.column_stack([W.row, W.col, W.data]), num_nodes=g.num_nodes)
        assert np.array_equal(rebuilt.indptr, g.indptr)
        assert np.array_equal(rebuilt.indices, g.indices)
        assert np.array_equal(rebuilt.weights, g.weights)

    def test_csr_columns_sorted(self):
        rng = np.random.default_rng(4)
        g = random_graph(30, 0.3, rng)
        for i in range(g.num_nodes):
            row = g.indices[g.indptr[i] : g.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)


class TestLaplacianOp:
    def test_nullvector_k3(self, k3_graph):
        op = laplacian_op(k3_graph)
        x = np.sqrt(k3_graph.degrees)  # D^{1/2} 1 spans the zero eigenspace
        assert np.linalg.norm(op.apply(x)) < 1e-14

    def test_disconnected_component_nullspace(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        x = np.sqrt(two_k2_graph.degrees) * np.array([1.0, 1.0, 0.0, 0.0])
        assert np.linalg.norm(op.apply(x)) < 1e-14

    def test_p3_against_dense_oracle(self, p3_graph):
        op = laplacian_op(p3_graph)
        L = dense_normalized_laplacian(p3_graph)
        x = np.array([1.0, 0.0, 0.0])
        assert np.allclose(op.apply(x), L @ x, atol=1e-15)

    def test_matches_dense_small_graphs(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            g = random_graph(60, 0.12, rng)
            op = laplacian_op(g)
            L = dense_normalized_laplacian(g)
            X = rng.standard_normal((g.num_nodes, 4))
            got = op.apply(X)
            ref = L @ X
            assert np.linalg.norm(got - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)

    def test_length_mismatch(self, k3_graph):
        op = laplacian_op(k3_graph)
        with pytest.raises(ValueError, match="rows"):
            op.apply(np.ones(5))

    def test_quadratic_form_range(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            g = random_graph(50, 0.2, rng)
            op = laplacian_op(g)
            for _ in range(10):
                x = rng.standard_normal(g.num_nodes)
                q = x @ op.apply(x)
                assert q >= -1e-10
                assert q <= 2.0 * (x @ x) + 1e-10

    def test_operator_symmetric(self):
        rng = np.random.default_rng(13)
        g = random_graph(40, 0.2, rng)
        op = laplacian_op(g)
        x = rng.standard_normal(g.num_nodes)
        y = rng.standard_normal(g.num_nodes)
        assert abs(op.apply(x) @ y - x @ op.apply(y)) < 1e-12

    def test_zero_degree_coordinate_acts_as_identity(self):
        g = build_graph([(0, 1, 1.0)], num_nodes=3)
        op = laplacian_op(g)
        x = np.array([0.0, 0.0, 5.0])
        assert np.allclose(op.apply(x), x)

    def test_prescaled_adjacency_built_once_on_first_use(self):
        g = build_graph([(0, 1, 2.0), (1, 2, 0.5)], num_nodes=4)
        op = laplacian_op(g)
        assert op._s is None
        S = op.normalized_adjacency()
        assert op.normalized_adjacency() is S
        assert np.allclose(S.toarray(), np.eye(4) - op.dense(), atol=1e-15)
        assert S.getrow(3).nnz == 0  # isolated node: L acts as I
        op.apply(np.ones(4))
        assert op._s is S

    def test_concurrent_first_use_agrees(self):
        # racing first applications may each build S; every result is the same
        rng = np.random.default_rng(14)
        g = random_graph(80, 0.1, rng)
        X = rng.standard_normal((g.num_nodes, 3))
        ref = laplacian_op(g).apply(X)
        op = laplacian_op(g)
        results = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(op.apply(X))) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(np.array_equal(r, ref) for r in results)


class TestEdgeListIO:
    def test_default_weight(self, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        assert np.allclose(g.degrees, [1.0, 2.0, 1.0])

    def test_explicit_weight_and_comments(self, tmp_path):
        path = tmp_path / "w.edges"
        path.write_text("# a comment\n0 1 0.5\n")
        g = read_edge_list(path)
        assert g.adjacency()[0, 1] == 0.5

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        g = random_graph(35, 0.2, rng)
        path = tmp_path / "rt.edges"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.num_nodes == g.num_nodes
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
        assert np.array_equal(g2.weights, g.weights)

    def test_round_trip_preserves_trailing_isolated_node(self, tmp_path):
        g = build_graph([(0, 1, 1.5)], num_nodes=4)
        path = tmp_path / "iso.edges"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.num_nodes == 4
        assert g2.isolated_nodes.tolist() == [2, 3]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\nnonsense line here oops\n")
        with pytest.raises(GraphError, match=":2"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "body, lineno",
        [
            ("0 1\n# c\n\n1 2 x\n", 4),  # weight does not parse
            ("0 1 0.5\n1.0 2\n", 2),  # indices are integers
            ("0 1\n2\n", 2),  # one column
        ],
    )
    def test_bad_value_reports_number(self, tmp_path, body, lineno):
        path = tmp_path / "bad.edges"
        path.write_text(body)
        with pytest.raises(GraphError, match=f"bad.edges:{lineno}: "):
            read_edge_list(path)

    def test_mixed_two_and_three_columns(self, tmp_path):
        path = tmp_path / "mixed.edges"
        path.write_text("# nodes 5\n0 1\n  1 2 2.5  \n\n\t# comment\n2 3\n3 0 0.25\n")
        g = read_edge_list(path)
        assert g.num_nodes == 5
        W = g.adjacency().toarray()
        assert (W[0, 1], W[1, 2], W[2, 3], W[0, 3]) == (1.0, 2.5, 1.0, 0.25)
        assert g.num_edges == 4

    def test_matches_line_by_line_reference(self, tmp_path):
        # the vectorized parser against a plain per-line loop on a messy file
        rng = np.random.default_rng(8)
        pad = [" ", "  ", "\t", " \t"]
        lines, rows = ["# nodes 70"], []
        for _ in range(400):
            i, j = rng.choice(70, size=2, replace=False)
            cols = [str(i), str(j)]
            if rng.random() < 0.5:
                cols.append(repr(float(rng.uniform(0.1, 3.0))))
            lead, sep, tail = (pad[t] for t in rng.integers(len(pad), size=3))
            lines.append(lead * int(rng.integers(2)) + sep.join(cols) + tail * int(rng.integers(2)))
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "   ", "# comment 1 2", "\t#x"]))
        path = tmp_path / "messy.edges"
        path.write_text("\n".join(lines))
        for line in lines:
            parts = line.split()
            if parts and not parts[0].startswith("#"):
                rows.append((int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0))
        ref = build_graph(rows, num_nodes=70)
        g = read_edge_list(path)
        assert g.num_nodes == 70
        assert np.array_equal(g.indptr, ref.indptr)
        assert np.array_equal(g.indices, ref.indices)
        assert np.array_equal(g.weights, ref.weights)

    def test_header_only_file_is_edgeless(self, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("# nodes 3\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3 and g.num_edges == 0

    def test_non_finite_weight_rejected(self, tmp_path):
        path = tmp_path / "nan.edges"
        path.write_text("0 1 1.0\n1 2 nan\n")
        with pytest.raises(GraphError, match="non-finite weight"):
            read_edge_list(path)
