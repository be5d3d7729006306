from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from cscluster import (
    FeatureMatrix,
    LaplacianOp,
    adjusted_rand_index,
    assign,
    build_features,
    design_lowpass,
    draw_sampling,
    generate_signals,
    interpolate_all,
    laplacian_op,
)
from helpers import cliques_graph


class TestDrawSampling:
    def test_full_sample_is_all_nodes(self):
        s = draw_sampling(10, 10, 0)
        assert sorted(s.tolist()) == list(range(10))

    def test_distinct_and_in_range(self):
        s = draw_sampling(100, 30, 1)
        assert s.dtype == np.int64
        assert len(set(s.tolist())) == 30
        assert s.min() >= 0 and s.max() < 100

    def test_exclude(self):
        s = draw_sampling(50, 40, 3, exclude=np.array([0, 1, 2]))
        assert not set(s.tolist()) & {0, 1, 2}

    def test_oversample_rejected(self):
        with pytest.raises(ValueError):
            draw_sampling(5, 6, 0)
        with pytest.raises(ValueError):
            draw_sampling(5, 4, 0, exclude=np.arange(3))

    def test_uniform_marginals_chi2(self):
        # fixed-seed inclusion counts against the uniform null
        N, n, draws = 50, 10, 2000
        counts = np.zeros(N)
        rng = np.random.default_rng(12345)
        for _ in range(draws):
            counts[rng.choice(N, size=n, replace=False)] += 1
        # route the package path too, with its own accumulation
        counts2 = np.zeros(N)
        for t in range(draws):
            counts2[draw_sampling(N, n, 10_000 + t)] += 1
        for c in (counts, counts2):
            expected = draws * n / N
            stat = float(np.sum((c - expected) ** 2 / expected))
            crit = scipy.stats.chi2.ppf(0.99, N - 1)
            assert stat < crit

    def test_reproducible(self):
        a = draw_sampling(40, 9, 5)
        b = draw_sampling(40, 9, 5)
        assert np.array_equal(a, b)


def _features(op, cutoff, order=40, d=20, seed=0):
    return build_features(op, design_lowpass(cutoff, order), generate_signals(op.num_nodes, d, seed))


class TestInterpolate:
    def test_disconnected_cliques_exact_recovery(self):
        g, truth = cliques_graph(3, 10)
        op = laplacian_op(g)
        # K10 components: the next eigenvalue is 10/9, far above the cut-off
        feats = _features(op, 0.5, order=60, d=6)
        sampled = draw_sampling(30, 12, seed=4)
        assert len(set(truth[sampled].tolist())) == 3  # all cliques sampled
        k = 3
        reduced = np.zeros((12, k))
        reduced[np.arange(12), truth[sampled]] = 1.0
        soft = interpolate_all(feats, sampled, reduced)
        assert soft.shape == (30, k)
        for j in range(k):
            inside = soft[truth == j, j]
            outside = soft[truth != j, j]
            assert inside.min() > outside.max()
        labels, _ = assign(soft)
        assert adjusted_rand_index(truth, labels) == 1.0

    def test_zero_data_zero_solution(self, k3_graph):
        feats = _features(laplacian_op(k3_graph), 1.0, order=20, d=2)
        sampled = draw_sampling(3, 2, 0)
        x = interpolate_all(feats, sampled, np.zeros((2, 1)))
        assert np.all(x == 0.0)

    def test_exact_on_bandlimited_signals(self, sbm500):
        # F spanning exactly U_k (dense route, no Chebyshev recurrence): a
        # signal in span(U_k) is recovered on every node from n > k samples
        basis = sbm500["basis"]
        k = sbm500["k"]
        N = basis.num_nodes
        Uk = basis.leading(k)
        rng = np.random.default_rng(0)
        F = Uk @ (Uk.T @ rng.standard_normal((N, k + 10)))
        feats = FeatureMatrix(rows=F, filtered=F)
        x = Uk @ rng.standard_normal((k, 2))
        sampled = draw_sampling(N, 60, 8)
        soft = interpolate_all(feats, sampled, x[sampled])
        assert np.linalg.norm(soft - x) <= 1e-10 * np.linalg.norm(x)

    @staticmethod
    def _indicator_problem(sbm500, n, seed):
        truth = sbm500["truth"]
        sampled = draw_sampling(sbm500["op"].num_nodes, n, seed)
        reduced = np.zeros((n, sbm500["k"]))
        reduced[np.arange(n), truth[sampled]] = 1.0
        return sampled, reduced

    def test_residual_contract(self, sbm500):
        # least squares: on the sampled nodes the residual is orthogonal to
        # every column of F[sampled] (the normal equations)
        feats = _features(sbm500["op"], 0.45)
        sampled, reduced = self._indicator_problem(sbm500, 60, 9)
        soft = interpolate_all(feats, sampled, reduced)
        A = feats.filtered[sampled]
        residual = soft[sampled] - reduced
        assert np.linalg.norm(residual) > 0.1  # n > d: the fit is not exact
        assert np.abs(A.T @ residual).max() <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(reduced)

    def test_work_is_deterministic_count(self, sbm500, monkeypatch):
        # the lift reuses the filtered block: no Laplacian application
        feats = _features(sbm500["op"], 0.45)
        sampled, reduced = self._indicator_problem(sbm500, 80, 11)
        calls = 0
        real_apply = LaplacianOp.apply

        def counting_apply(self, x):
            nonlocal calls
            calls += 1
            return real_apply(self, x)

        monkeypatch.setattr(LaplacianOp, "apply", counting_apply)
        interpolate_all(feats, sampled, reduced)
        assert calls == 0

    def test_inputs_never_written(self, sbm500):
        op = sbm500["op"]
        weights = op.graph.weights.copy()
        feats = _features(op, 0.45)
        filtered, rows = feats.filtered.copy(), feats.rows.copy()
        sampled, reduced = self._indicator_problem(sbm500, 60, 12)
        reduced_before = reduced.copy()
        interpolate_all(feats, sampled, reduced)
        assert np.array_equal(feats.filtered, filtered)
        assert np.array_equal(feats.rows, rows)
        assert np.array_equal(reduced, reduced_before)
        assert np.array_equal(op.graph.weights, weights)

    def test_row_count_validation(self, sbm500):
        feats = _features(sbm500["op"], 0.45)
        sampled = draw_sampling(sbm500["op"].num_nodes, 30, 0)
        with pytest.raises(ValueError, match="rows"):
            interpolate_all(feats, sampled, np.zeros((29, 2)))


class TestAssign:
    def test_one_hot_identity(self):
        soft = np.eye(4)
        labels, fallback = assign(soft)
        assert labels.tolist() == [0, 1, 2, 3]
        assert fallback.size == 0

    def test_per_cluster_scaling_invariant(self):
        rng = np.random.default_rng(0)
        soft = np.abs(rng.standard_normal((30, 4)))
        base, _ = assign(soft)
        scaled = soft * np.array([3.0, 0.1, 7.5, 1.0])[None, :]
        assert np.array_equal(assign(scaled)[0], base)

    def test_every_node_labeled(self):
        rng = np.random.default_rng(1)
        soft = rng.standard_normal((100, 5))
        labels, _ = assign(soft)
        assert labels.shape == (100,)
        assert labels.min() >= 0 and labels.max() < 5

    def test_zero_row_fallback_warns(self, caplog):
        soft = np.eye(3)
        soft[1] = 0.0
        with caplog.at_level("WARNING"):
            labels, fallback = assign(soft)
        assert labels[1] == 0
        assert fallback.tolist() == [1]
        assert any("raw argmax" in rec.message for rec in caplog.records)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            assign(np.zeros((4, 2)))

    def test_tie_breaks_lowest(self):
        soft = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert assign(soft)[0].tolist() == [0, 1]
