from __future__ import annotations

import numpy as np
import pytest

import cscluster.pipeline
from cscluster import (
    CscParams,
    DegenerateClusteringError,
    LaplacianOp,
    SbmConfig,
    adjusted_rand_index,
    build_graph,
    critical_epsilon,
    laplacian_op,
    run_csc,
    run_sc_baseline,
    sbm_generate,
)
from cscluster.kmeans import Labeling
from cscluster.pipeline import default_num_samples, default_num_signals
from cscluster.spectrum import default_probe_signals
from helpers import cliques_graph, lowpass_response


class TestDefaults:
    def test_paper_scale_arithmetic(self):
        assert default_num_samples(20) == 120
        assert default_num_signals(120) == 20
        assert default_num_samples(3) == 7
        assert default_num_signals(7) == 8

    def test_resolve_fills_and_validates(self):
        params = CscParams(k=20).resolve(1000)
        assert (params.n, params.d) == (120, 30)  # d = max(4 ln 120, k + 10)
        with pytest.raises(ValueError, match="n="):
            CscParams(k=5, n=3).resolve(100)
        for k in (1, 0, -3):
            # k is checked before n = 2k ln k is derived from it
            with pytest.raises(ValueError, match=f"k must be >= 2, got k={k}"):
                CscParams(k=k).resolve(100)
        with pytest.raises(ValueError, match="exceeds"):
            CscParams(k=3, n=50).resolve(20)

    def test_default_d_oversamples_k(self):
        # d = max(ceil(4 ln n), k + 10): the lift needs d >= k + 10 columns
        assert CscParams(k=20).resolve(5000).d == 30  # 4 ln 120 -> 20
        assert CscParams(k=100).resolve(4000).d == 110  # 4 ln 922 -> 28
        assert CscParams(k=3, n=500).resolve(1000).d == default_num_signals(500) == 25
        assert CscParams(k=20, d=12).resolve(5000).d == 12

    def test_n_capped_at_graph_size(self):
        # n = ceil(2 k ln k) (natural log): 17 for k = 5, so the cap engages
        # only on a graph with fewer than 17 nodes
        assert default_num_samples(5) == 17
        params = CscParams(k=5).resolve(15)
        assert params.n == 15


class TestRunCsc:
    def test_cliques_exact_recovery(self):
        g, truth = cliques_graph(3, 3)
        op = laplacian_op(g)
        for seed in range(3):
            result = run_csc(op, CscParams(k=3, seed=seed))
            assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_diagnostics_shape(self):
        g, truth = cliques_graph(4, 8)
        result = run_csc(laplacian_op(g), CscParams(k=4, seed=1))
        d = result.diagnostics
        assert d["method"] == "csc"
        assert d["n"] == min(default_num_samples(4), 32)
        # the lift is a direct solve; both solver keys stay, constant, for perfbench
        assert d["solver_iterations"] == [0] * 4
        assert d["solver_converged"] == [True] * 4
        assert not {"gamma", "ridge", "solver_residuals"} & set(d)
        assert set(d["timings"]) == {"probe", "filter", "sampling", "kmeans", "interpolate", "total"}
        assert "assign_fallback_nodes" not in d
        assert d["probe_iterations"] == 1
        assert d["probe_count"] == pytest.approx(4.0, abs=3.0 * d["probe_count_se"])

    def test_narrow_gap_falls_back_to_nearest_count(self):
        # k = 20 at eps_c / 2: no point of the gap above lambda_20 reads flat,
        # and the flat run nearest k is a plateau of another count, far from
        # 20. The estimate warns and takes the grid point whose count is
        # nearest k instead, which keeps the clusters apart
        cfg = SbmConfig(num_nodes=1000, k=20, avg_degree=16.0, epsilon=critical_epsilon(16.0, 20) / 2, seed=100)
        graph, truth = sbm_generate(cfg)
        op = laplacian_op(graph)
        for seed in range(2):
            result = run_csc(op, CscParams(k=20, seed=seed))
            d = result.diagnostics
            assert d["lambda_warning"] is True, seed
            assert abs(d["probe_count"] - 20) <= 1.0, seed
            assert adjusted_rand_index(truth, result.labels) >= 0.6, seed

    def test_numpy_integer_params_serialize_as_plain_ints(self):
        # numpy scalars in the diagnostics serialize as the plain values
        g, _ = cliques_graph(3, 6)
        op = laplacian_op(g)
        numpy_csc = run_csc(op, CscParams(k=np.int64(3), seed=np.int64(0)))
        assert isinstance(numpy_csc.diagnostics["k"], np.int64)
        assert numpy_csc.to_json() == run_csc(op, CscParams(k=3, seed=0)).to_json()
        numpy_sc = run_sc_baseline(op, np.int64(3), seed=0)
        assert isinstance(numpy_sc.diagnostics["k"], np.int64)
        assert numpy_sc.to_json() == run_sc_baseline(op, 3, seed=0).to_json()

    def test_reproducible_json(self):
        g, _ = cliques_graph(3, 8)
        op = laplacian_op(g)
        a = run_csc(op, CscParams(k=3, seed=9))
        b = run_csc(op, CscParams(k=3, seed=9))
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ_somewhere(self):
        g, _ = cliques_graph(3, 8)
        op = laplacian_op(g)
        a = run_csc(op, CscParams(k=3, seed=1))
        b = run_csc(op, CscParams(k=3, seed=2))
        assert a.diagnostics["lambda_k_hat"] != b.diagnostics["lambda_k_hat"] or a.to_json() != b.to_json()

    def test_lambda_override_skips_probe(self):
        g, truth = cliques_graph(3, 6)
        result = run_csc(laplacian_op(g), CscParams(k=3, seed=0, lambda_k=0.6))
        d = result.diagnostics
        assert d["lambda_source"] == "override"
        assert d["probe_iterations"] == 0
        assert d["probe_refused"] == 0
        assert d["probe_count"] is None and d["probe_count_se"] is None
        assert d["lambda_k_hat"] == 0.6
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_operator_work_count(self, sbm500, monkeypatch):
        # p applications on the probe signals, p on the d signals, none after
        # the k-means, all on float32 blocks (a silent promotion to float64
        # would cost the float32 speed-up): a perf regression check that is
        # never flaky. k-means sees only the n sampled rows of F, each
        # divided by its norm
        op = sbm500["op"]
        N, k, p = op.num_nodes, sbm500["k"], 30
        columns: list[int] = []
        dtypes: set[np.dtype] = set()
        real_apply, real_kmeans = LaplacianOp.apply, cscluster.pipeline.kmeans
        real_features, real_draw = cscluster.pipeline.build_features, cscluster.pipeline.draw_sampling
        calls_at_kmeans: list[int] = []
        seen: dict[str, np.ndarray] = {}

        def counting_apply(self, x):
            columns.append(x.shape[1])
            dtypes.add(x.dtype)
            return real_apply(self, x)

        def recording_features(*args):
            seen["F"] = real_features(*args)
            return seen["F"]

        def recording_draw(*args, **kwargs):
            seen["sampled"] = real_draw(*args, **kwargs)
            return seen["sampled"]

        def marking_kmeans(points, k, seed):
            calls_at_kmeans.append(len(columns))
            seen["points"] = points.copy()
            return real_kmeans(points, k, seed)

        monkeypatch.setattr(LaplacianOp, "apply", counting_apply)
        monkeypatch.setattr(cscluster.pipeline, "kmeans", marking_kmeans)
        monkeypatch.setattr(cscluster.pipeline, "build_features", recording_features)
        monkeypatch.setattr(cscluster.pipeline, "draw_sampling", recording_draw)
        d = run_csc(op, CscParams(k=k, p=p, seed=0)).diagnostics
        assert d["d"] == k + 10 != default_probe_signals(N)
        assert columns == [default_probe_signals(N)] * p + [d["d"]] * p
        assert calls_at_kmeans == [2 * p]
        assert dtypes == {np.dtype(np.float32)}
        rows = seen["F"][seen["sampled"]]
        assert seen["points"].shape == (d["n"], d["d"])
        assert np.array_equal(seen["points"], rows / np.linalg.norm(rows, axis=1)[:, None])

        columns.clear()
        d = run_csc(op, CscParams(k=k, p=p, seed=0, lambda_k=0.45)).diagnostics
        assert columns == [d["d"]] * p
        assert dtypes == {np.dtype(np.float32)}

    def test_stage_times_sum_to_total(self):
        g, _ = cliques_graph(5, 30)  # big enough that overhead is negligible
        result = run_csc(laplacian_op(g), CscParams(k=5, seed=0))
        t = result.diagnostics["timings"]
        stages = sum(v for key, v in t.items() if key != "total")
        assert stages <= t["total"]
        assert stages >= 0.95 * t["total"]

    def test_degenerate_kmeans_raises(self, monkeypatch):
        g, _ = cliques_graph(3, 6)
        op = laplacian_op(g)

        def fake_kmeans(points, k, seed):
            return Labeling(labels=np.zeros(len(points), dtype=np.int64), inertia=0.0, iterations_run=1)

        monkeypatch.setattr("cscluster.pipeline.kmeans", fake_kmeans)
        with pytest.raises(DegenerateClusteringError):
            run_csc(op, CscParams(k=3, seed=0))

    def test_lambda_warning_marks_run(self):
        # k = 5 on a single 40-clique: the spectrum is 0 then 40/39 39 times,
        # so the count curve is flat only at 1 and at 40, never near 5
        g, _ = cliques_graph(1, 40)
        d = run_csc(laplacian_op(g), CscParams(k=5, seed=3)).diagnostics
        assert d["lambda_warning"] is True
        assert "lambda_k fallback: no count plateau at k" in d["warnings"]
        assert d["probe_iterations"] == 1
        assert d["probe_refused"] == 0
        # k = 2 on a 12-clique (0, then 12/11 eleven times) has no gap either;
        # whatever the estimate, the low-pass must stop the 12/11 cluster
        g, _ = cliques_graph(1, 12)
        d = run_csc(laplacian_op(g), CscParams(k=2, seed=3)).diagnostics
        assert lowpass_response(d["lambda_k_hat"], 50, 12 / 11) <= 0.1

    def test_zero_degree_nodes_interpolated(self):
        # isolated node: excluded from sampling, still labeled
        edges = []
        for c in range(2):
            base = c * 6
            for i in range(6):
                for j in range(i + 1, 6):
                    edges.append((base + i, base + j, 1.0))
        g = build_graph(edges, num_nodes=13)  # node 12 isolated
        result = run_csc(laplacian_op(g), CscParams(k=2, seed=0))
        assert result.labels.shape == (13,)
        # the default n = 17 for k = 5 is capped at the 12 nodes that can be
        # sampled, not at all 13
        result = run_csc(laplacian_op(g), CscParams(k=5, seed=0))
        assert result.diagnostics["n"] == 12
        assert result.labels.shape == (13,)


    def test_isolated_nodes_never_sampled(self, monkeypatch):
        # an isolated node filters to h(1) r_i, a tiny row that the row
        # normalization would turn into a random unit row in the k-means input
        cfg = SbmConfig(num_nodes=1000, k=5, avg_degree=16.0, epsilon=critical_epsilon(16.0, 5) / 4, seed=1)
        W = sbm_generate(cfg)[0].adjacency().tocoo()
        g = build_graph(np.column_stack([W.row, W.col, W.data]), num_nodes=1030)
        isolated = g.isolated_nodes
        assert isolated.tolist() == list(range(1000, 1030))
        drawn = []
        real_draw = cscluster.pipeline.draw_sampling

        def recording_draw(*args, **kwargs):
            drawn.append(real_draw(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(cscluster.pipeline, "draw_sampling", recording_draw)
        op = laplacian_op(g)
        for seed in range(10):
            result = run_csc(op, CscParams(k=5, seed=seed))
            assert result.labels.shape == (1030,)
        assert len(drawn) == 10
        assert not np.isin(np.concatenate(drawn), isolated).any()


class TestRunScBaseline:
    def test_shares_result_schema(self):
        g, truth = cliques_graph(3, 6)
        result = run_sc_baseline(laplacian_op(g), 3, seed=0)
        assert adjusted_rand_index(truth, result.labels) == 1.0
        assert result.diagnostics["method"] == "sc"

    def test_same_seed_repeatable(self):
        g, _ = cliques_graph(3, 6)
        op = laplacian_op(g)
        a = run_sc_baseline(op, 3, seed=4)
        b = run_sc_baseline(op, 3, seed=4)
        assert a.to_json() == b.to_json()
