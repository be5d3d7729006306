from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cscluster import (
    GraphError,
    build_graph,
    laplacian_op,
    read_edge_list,
    write_edge_list,
)
import cscluster.graph
from cscluster.sbm import SbmConfig, sbm_generate
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

    @pytest.mark.parametrize(
        "edges, message",
        [
            # int64 ids reach the graph exactly: no float64 round trip to ...992
            (np.array([[0, 2**53 + 1]], dtype=np.int64), "node index 9007199254740993 out of range for num_nodes=3"),
            ([(0, 1e19, 1.0)], "node id 1e\\+19 is not a finite float below 2\\^53"),
            ([(0, 1.0, 1.0), (np.inf, 1.0, 1.0)], "node id inf is not a finite float"),
            ([(0, 2**53 + 1, 1.0)], "node id 9007199254740992.0 is not a finite float"),
        ],
        ids=["int64-above-2^53", "float-1e19", "float-inf", "float-above-2^53"],
    )
    def test_ids_beyond_float_precision_named(self, edges, message):
        with pytest.raises(GraphError, match=message):
            build_graph(edges, num_nodes=3)

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
        # laplacian_op builds S and its float32 copy; apply uses them as built
        S = op.s
        assert S.dtype == np.float64 and op.s32.dtype == np.float32
        assert np.allclose(S.toarray(), np.eye(4) - op.dense(), atol=1e-15)
        assert S.getrow(3).nnz == 0  # isolated node: L acts as I
        x = np.arange(4.0)
        assert np.array_equal(op.apply(x), x - S @ x)
        assert op.s is S

    def test_dense_is_the_former_formula_byte_for_byte(self):
        # weighted, with isolated nodes 5 and 6: every entry of I - S, the
        # signs of its zeros included, as the N x N product made it
        g = build_graph([(0, 1, 2.0), (1, 2, 0.5), (0, 2, 3.25), (2, 3, 1.0 / 3.0), (3, 4, 7.0)], num_nodes=7)
        op = laplacian_op(g)
        W = g.adjacency().toarray()
        d = g.degrees
        S = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        reference = np.eye(op.num_nodes) - S[:, None] * W * S[None, :]
        assert op.dense().tobytes() == reference.tobytes()

    def test_float32_signals_apply_in_float32(self):
        # float32 in, float32 out, within float32 rounding of the float64
        # apply; the float32 S shares its index arrays with S, and float64
        # results stay bitwise what S @ x gives
        rng = np.random.default_rng(15)
        g = random_graph(200, 0.05, rng)
        op = laplacian_op(g)
        S, S32 = op.s, op.s32
        assert S.dtype == np.float64 and S32.dtype == np.float32
        X = rng.standard_normal((g.num_nodes, 4))
        expect = X - S @ X
        X32 = X.astype(np.float32)
        got = op.apply(X32)
        assert got.dtype == np.float32
        assert np.array_equal(got, X32 - S32 @ X32)
        assert np.shares_memory(S32.indices, S.indices)
        assert np.shares_memory(S32.indptr, S.indptr)
        err = np.linalg.norm(got - op.apply(X), axis=0) / np.linalg.norm(X, axis=0)
        assert err.max() <= 1e-6
        assert op.apply(X32).dtype == np.float32 and op.s32 is S32 and op.s is S
        for x in (X, X[:, 0], X.tolist()):
            out = op.apply(x)
            assert out.dtype == np.float64
            assert np.array_equal(out, expect if np.ndim(x) == 2 else expect[:, 0])

    def test_concurrent_apply_agrees(self):
        # laplacian_op builds S and its float32 copy before it returns, so
        # threads share one operator: concurrent applications are reentrant
        # and each gives the serial result
        rng = np.random.default_rng(14)
        g = random_graph(80, 0.1, rng)
        X64 = rng.standard_normal((g.num_nodes, 3))
        for X in (X64, X64.astype(np.float32)):
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
            assert all(r.dtype == X.dtype and np.array_equal(r, ref) for r in results)


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
            ("0 1\n1_0 2\n", 2),  # int() reads "1_0", np.loadtxt does not
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

    @pytest.mark.parametrize(
        "body",
        ["0 1\n1 2\n# nodes 4\n", "0 1 0.5\n  1 2 2.5\n\n# c\n", "\ufeff0 1\r\n1 2\r\n", "0 1 0.5\r1 2 2.5\r"],
    )
    def test_uniform_width_skips_per_line_pass(self, tmp_path, monkeypatch, body):
        def per_line(path, text):
            raise AssertionError("a uniform-width file must parse in one np.loadtxt call")

        monkeypatch.setattr(cscluster.graph, "_parse_lines", per_line)
        path = tmp_path / "uniform.edges"
        path.write_text(body)
        assert read_edge_list(path).num_edges == 2

    def test_matches_line_by_line_reference(self, tmp_path):
        # both parse paths against a plain per-line loop on a messy file:
        # with 2- and 3-column lines mixed, then with every line weighted
        for weighted in (0.5, 1.0):
            rng = np.random.default_rng(8)
            pad = [" ", "  ", "\t", " \t"]
            lines, rows = ["# nodes 70"], []
            for _ in range(400):
                i, j = rng.choice(70, size=2, replace=False)
                cols = [str(i), str(j)]
                if rng.random() < weighted:
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

    def test_trailing_comment_on_both_paths(self, tmp_path):
        # "#" starts a comment anywhere on a line, in a uniform file and in
        # a mixed one alike
        uniform, mixed = tmp_path / "uniform.edges", tmp_path / "mixed.edges"
        uniform.write_text("0 1 1.0 # note\n1 2 2.5\n")
        mixed.write_text("0 1 # note\n1 2 2.5\n")
        a, b = read_edge_list(uniform), read_edge_list(mixed)
        assert a.num_nodes == b.num_nodes == 3
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.weights, b.weights)
        assert a.adjacency()[0, 1] == 1.0 and a.adjacency()[1, 2] == 2.5

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "bom.edges"
        path.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3 and g.num_edges == 2

    @pytest.mark.parametrize(
        "body, num_nodes",
        [
            ("# nodes 9\n0 1 # nodes 12\n", 9),  # an inline comment is not a header
            ("# nodes 9\n0 1\n#   nodes   4  \n1 2\n# nodes x\n", 4),  # the last parseable token wins
            ("## nodes 7\n0 1\n", 2),  # "#" before the "#" is not whitespace
            (" \t# nodes 6\n0 1\n", 6),  # leading whitespace counts
            ("# nodes 6 # nodes 8\n0 1\n", 2),  # two tokens after "nodes"
            ("0 1\n# nodes 5", 5),  # a last line without a newline
        ],
        ids=["inline", "last-parseable", "double-hash", "leading-space", "two-tokens", "no-newline"],
    )
    def test_node_count_header_rule(self, tmp_path, body, num_nodes):
        path = tmp_path / "hdr.edges"
        path.write_text(body)
        assert read_edge_list(path).num_nodes == num_nodes

    @staticmethod
    def _assert_same_graph(a, b):
        assert type(a.num_nodes) is type(b.num_nodes) and a.num_nodes == b.num_nodes
        for name in ("indptr", "indices", "weights", "degrees"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name

    def test_every_route_builds_one_graph(self, tmp_path):
        # build_graph on triples and on sbm_generate's own pairs, and
        # read_edge_list on the 3-column, 2-column and mixed-width writes,
        # all reach the one constructor: the same bytes and dtypes
        g, _ = sbm_generate(SbmConfig(num_nodes=300, k=3, avg_degree=8.0, epsilon=0.1, seed=5))
        W = g.adjacency().tocoo()
        upper = W.row < W.col
        pairs = np.column_stack([W.row[upper], W.col[upper]])
        self._assert_same_graph(build_graph(pairs, num_nodes=g.num_nodes), g)
        triples = np.column_stack([pairs, W.data[upper]])
        self._assert_same_graph(build_graph(triples.tolist(), num_nodes=g.num_nodes), g)
        write_edge_list(g, tmp_path / "three.edges")
        lines = (tmp_path / "three.edges").read_text().splitlines()
        two = [line if line.startswith("#") else " ".join(line.split()[:2]) for line in lines]
        mixed = [short if n % 2 else full for n, (short, full) in enumerate(zip(two, lines))]
        (tmp_path / "two.edges").write_text("\n".join(two) + "\n")
        (tmp_path / "mixed.edges").write_text("\n".join(mixed) + "\n")
        for name in ("three", "two", "mixed"):
            self._assert_same_graph(read_edge_list(tmp_path / f"{name}.edges"), g)

    def test_both_directions_keep_no_spare_buffer(self, tmp_path):
        # every edge listed both ways gives the graph of the one-way list,
        # and its arrays hold no buffer sized for the doubled input
        g = random_graph(60, 0.2, np.random.default_rng(6))
        W = g.adjacency().tocoo()
        one_way = tmp_path / "one.edges"
        write_edge_list(g, one_way)
        both = tmp_path / "both.edges"
        both.write_text(f"# nodes {g.num_nodes}\n" + "".join(f"{i} {j} {w!r}\n" for i, j, w in zip(W.row, W.col, W.data.tolist())))
        a, b = read_edge_list(one_way), read_edge_list(both)
        self._assert_same_graph(b, a)
        for x in (b.indices, b.weights):
            assert x.base is None or x.base.nbytes == x.nbytes

    @pytest.mark.parametrize(
        "body, message",
        [
            # above 2^53: a float64 round trip would name ...992
            ("# nodes 3\n0 9007199254740993\n", "node index 9007199254740993 out of range for num_nodes=3"),
            ("0 1\n1 9223372036854775808\n", "big.edges:2: node id 9223372036854775808 does not fit in 64 bits"),
            ("0 1 1.0\n-9223372036854775809 2 1.0\n", "big.edges:2: node id -9223372036854775809 does not fit"),
        ],
        ids=["above-2^53", "above-int64", "below-int64"],
    )
    def test_large_id_is_named(self, tmp_path, body, message):
        path = tmp_path / "big.edges"
        path.write_text(body)
        with pytest.raises(GraphError, match=message):
            read_edge_list(path)

    def test_header_beyond_memory_refused_before_sizing(self, tmp_path, monkeypatch):
        # a '# nodes N' header whose N + 1 int64 row pointers alone exceed
        # physical memory is refused before anything is sized by it; one
        # node fewer than that limit is sized as asked
        physical = cscluster.graph._physical_memory()
        if physical is None:
            pytest.skip("the system does not report its physical memory")
        limit = physical // 8 - 1  # the largest N whose N + 1 row pointers fit
        path = tmp_path / "big.edges"
        seen = []
        monkeypatch.setattr(cscluster.graph, "_from_edges", lambda *args: seen.append(args[3]))
        for num_nodes in (4_000_000_000_000, limit + 1):
            path.write_text(f"# nodes {num_nodes}\n0 1\n")
            with pytest.raises(MemoryError, match=f"'# nodes {num_nodes}' asks for {num_nodes + 1} int64 row pointers"):
                read_edge_list(path)
        path.write_text(f"# nodes {limit}\n0 1\n")
        read_edge_list(path)
        assert seen == [limit]

    def test_headerless_huge_id_refused_before_sizing(self, tmp_path, monkeypatch):
        # without a header, an id whose node count exceeds max(2 x edge
        # lines, 2^16) is refused before the graph is sized by it: 4e9 would
        # ask for about 30 GiB of row pointers
        path = tmp_path / "big.edges"
        path.write_text("0 4000000000\n")

        def refuse(*args):
            raise AssertionError("graph sized from a stray id")

        monkeypatch.setattr(cscluster.graph, "_from_edges", refuse)
        with pytest.raises(GraphError, match=r"big.edges: node id 4000000000 implies .* '# nodes N' header"):
            read_edge_list(path)
        monkeypatch.undo()
        # the bound itself: 2^16 nodes for one line pass, one more is refused
        path.write_text("0 65535\n")
        assert read_edge_list(path).num_nodes == 2**16
        path.write_text("0 65536\n")
        with pytest.raises(GraphError, match="node id 65536 implies 65537 nodes for 1 edge line"):
            read_edge_list(path)
        # and 2 x edge lines above 2^16, on the per-line pass too
        lines = [f"{i} {i + 1}" for i in range(40_000)]
        path.write_text("\n".join(lines[:-1] + ["39999 79999"]) + "\n")
        assert read_edge_list(path).num_nodes == 80_000
        path.write_text("\n".join(lines[:-1] + ["39999 80000 1.0"]) + "\n")
        with pytest.raises(GraphError, match="node id 80000 implies 80001 nodes for 40000 edge line"):
            read_edge_list(path)
        # a header keeps such a file readable
        path.write_text("# nodes 80001\n" + "\n".join(lines[:-1] + ["39999 80000 1.0"]) + "\n")
        assert read_edge_list(path).num_nodes == 80_001

    @pytest.mark.parametrize("columns", [2, 3])
    def test_line_ends_and_byte_order_mark_read_alike(self, tmp_path, columns):
        # np.loadtxt decodes the file itself: CRLF, lone-CR and BOM copies
        # must give the LF file's graph byte for byte, with its header
        rng = np.random.default_rng(11)
        write_edge_list(random_graph(40, 0.15, rng), tmp_path / "g.edges")
        lines = (tmp_path / "g.edges").read_text().splitlines()
        lines[0] = "# nodes 45"  # five trailing isolated nodes ride on the header
        if columns == 2:
            lines = [line if line.startswith("#") else " ".join(line.split()[:2]) for line in lines]
        lf = tmp_path / "lf.edges"
        lf.write_bytes(("\n".join(lines) + "\n").encode())
        ref = read_edge_list(lf)
        assert ref.num_nodes == 45
        copies = {
            "crlf": lf.read_bytes().replace(b"\n", b"\r\n"),
            "cr": lf.read_bytes().replace(b"\n", b"\r"),
            "bom": b"\xef\xbb\xbf" + lf.read_bytes(),
        }
        for name, data in copies.items():
            path = tmp_path / f"{name}.edges"
            path.write_bytes(data)
            self._assert_same_graph(read_edge_list(path), ref)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_text(self, tmp_path, suffix):
        # np.loadtxt would decompress a path with these suffixes
        body = "# nodes 5\n0 1 0.5\n1 2 2.5\n"
        plain, named = tmp_path / "g.edges", tmp_path / f"g{suffix}"
        plain.write_text(body)
        named.write_text(body)
        self._assert_same_graph(read_edge_list(named), read_edge_list(plain))

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    def test_pipe_is_read_once(self):
        # a pipe cannot be opened a second time for np.loadtxt
        read_end, write_end = os.pipe()
        os.write(write_end, b"# nodes 4\n0 1\n1 2\n")
        os.close(write_end)
        try:
            g = read_edge_list(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert g.num_nodes == 4 and g.num_edges == 2

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"0 1\n1 2 \xff\n", 2),
            (b"\xef\xbb\xbf0 1\r\n1 2\r\n\xff 3\r\n", 3),
            (b"0 1\r1 2\r2 3 \xe2\x82", 3),  # a truncated character at the end
        ],
        ids=["lf", "bom-crlf", "cr-truncated"],
    )
    def test_not_utf8_names_the_line(self, tmp_path, data, lineno):
        path = tmp_path / "bad.edges"
        path.write_bytes(data)
        with pytest.raises(GraphError, match=rf"bad.edges:{lineno}: not UTF-8 text \(byte 0x"):
            read_edge_list(path)

    def test_negative_node_count_rejected(self, tmp_path):
        path = tmp_path / "neg.edges"
        path.write_text("# nodes -3\n")
        with pytest.raises(GraphError, match="num_nodes must be >= 0, got -3"):
            read_edge_list(path)

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
