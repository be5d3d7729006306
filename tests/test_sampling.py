from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from cscluster import (
    InterpolationConfig,
    LaplacianOp,
    adjusted_rand_index,
    assign,
    dense_eig,
    design_lowpass,
    draw_sampling,
    interpolate,
    interpolate_all,
    laplacian_op,
    matched_highpass,
)
import cscluster.sampling
from cscluster.sampling import _system_apply
from helpers import cliques_graph


class TestDrawSampling:
    def test_full_sample_is_all_nodes(self):
        s = draw_sampling(10, 10, 0)
        assert sorted(s.indices.tolist()) == list(range(10))

    def test_distinct_and_in_range(self):
        s = draw_sampling(100, 30, 1)
        assert len(set(s.indices.tolist())) == 30
        assert s.indices.min() >= 0 and s.indices.max() < 100

    def test_restrict_adjoint_identity_on_samples(self):
        s = draw_sampling(20, 7, 2)
        x = np.random.default_rng(0).standard_normal(20)
        assert np.array_equal(s.restrict(s.adjoint(s.restrict(x))), s.restrict(x))

    def test_exclude(self):
        s = draw_sampling(50, 40, 3, exclude=np.array([0, 1, 2]))
        assert not set(s.indices.tolist()) & {0, 1, 2}

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
            counts2[draw_sampling(N, n, 10_000 + t).indices] += 1
        for c in (counts, counts2):
            expected = draws * n / N
            stat = float(np.sum((c - expected) ** 2 / expected))
            crit = scipy.stats.chi2.ppf(0.99, N - 1)
            assert stat < crit

    def test_reproducible(self):
        a = draw_sampling(40, 9, 5)
        b = draw_sampling(40, 9, 5)
        assert np.array_equal(a.indices, b.indices)


def _interp_cfg(order=60, cutoff=0.5, **kw):
    return InterpolationConfig(highpass=matched_highpass(design_lowpass(cutoff, order)), **kw)


class TestInterpolate:
    def test_disconnected_cliques_exact_recovery(self):
        g, truth = cliques_graph(3, 10)
        op = laplacian_op(g)
        cfg = _interp_cfg()
        sampling = draw_sampling(30, 12, seed=4)
        assert len(set(truth[sampling.indices].tolist())) == 3  # all cliques sampled
        k = 3
        reduced = np.zeros((12, k))
        reduced[np.arange(12), truth[sampling.indices]] = 1.0
        soft, info = interpolate_all(op, cfg, sampling, reduced)
        assert bool(np.all(info.converged))
        for j in range(k):
            inside = soft[truth == j, j]
            outside = soft[truth != j, j]
            assert inside.min() > outside.max()
        labels = assign(soft)
        assert adjusted_rand_index(truth, labels) == 1.0

    def test_zero_data_zero_solution(self, k3_graph):
        op = laplacian_op(k3_graph)
        cfg = _interp_cfg(order=20, cutoff=1.0, gamma=1e6)
        sampling = draw_sampling(3, 2, 0)
        x, info = interpolate(op, cfg, sampling, np.zeros(2))
        assert np.all(x == 0.0)
        assert bool(np.all(info.converged))
        assert info.max_iterations == 0

    def test_iterative_matches_dense_direct(self, sbm500):
        # dense route goes through the spectral decomposition, not the
        # Chebyshev recurrence
        op = sbm500["op"]
        basis = sbm500["basis"]
        N = op.num_nodes
        cfg = _interp_cfg(order=40, cutoff=0.45, solver_tol=1e-10)
        sampling = draw_sampling(N, 60, 8)
        rng = np.random.default_rng(0)
        c_r = rng.standard_normal(60)
        x, info = interpolate(op, cfg, sampling, c_r)
        assert bool(np.all(info.converged))
        mask = np.zeros(N)
        mask[sampling.indices] = 1.0
        h = cfg.highpass.evaluate(basis.eigenvalues) + cfg.ridge
        G = basis.eigenvectors @ (h[:, None] * basis.eigenvectors.T)
        A = np.diag(mask) + cfg.gamma * G
        ref = np.linalg.solve(A, sampling.adjoint(c_r))
        assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_residual_contract(self, sbm500):
        op = sbm500["op"]
        cfg = _interp_cfg(order=40, cutoff=0.45, solver_tol=1e-8)
        sampling = draw_sampling(op.num_nodes, 50, 9)
        rng = np.random.default_rng(1)
        c_r = rng.standard_normal(50)
        x, info = interpolate(op, cfg, sampling, c_r)
        mask = np.zeros(op.num_nodes)
        mask[sampling.indices] = 1.0
        b = sampling.adjoint(c_r)
        true_res = np.linalg.norm(_system_apply(op, cfg, mask, x[:, None]) - b[:, None])
        assert true_res <= 10 * 1e-8 * np.linalg.norm(b)

    def test_system_operator_psd(self, sbm500):
        op = sbm500["op"]
        cfg = _interp_cfg(order=30, cutoff=0.5)
        mask = np.zeros(op.num_nodes)
        mask[draw_sampling(op.num_nodes, 40, 2).indices] = 1.0
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal((op.num_nodes, 1))
            q = float(x.ravel() @ _system_apply(op, cfg, mask, x).ravel())
            assert q >= -1e-10

    def test_nonconvergence_flagged(self, sbm500, caplog):
        op = sbm500["op"]
        cfg = _interp_cfg(order=40, cutoff=0.45, solver_tol=1e-12, solver_max_iters=2)
        sampling = draw_sampling(op.num_nodes, 50, 10)
        c_r = np.random.default_rng(2).standard_normal(50)
        with caplog.at_level("WARNING"):
            x, info = interpolate(op, cfg, sampling, c_r)
        assert not bool(np.all(info.converged))
        assert info.residuals[0] > 0
        assert any("did not converge" in rec.message for rec in caplog.records)

    @staticmethod
    def _indicator_problem(sbm500, n, seed):
        truth = sbm500["truth"]
        sampling = draw_sampling(sbm500["op"].num_nodes, n, seed)
        reduced = np.zeros((n, sbm500["k"]))
        reduced[np.arange(n), truth[sampling.indices]] = 1.0
        return sampling, reduced

    def test_work_is_deterministic_count(self, sbm500, monkeypatch):
        # converged columns leave the filtering passes
        op = sbm500["op"]
        order = 40
        cfg = _interp_cfg(order=order, cutoff=0.45)
        sampling, reduced = self._indicator_problem(sbm500, 80, 11)
        real_apply = LaplacianOp.apply
        calls = columns = 0

        def counting_apply(self, x):
            nonlocal calls, columns
            calls += 1
            columns += x.shape[1]
            return real_apply(self, x)

        monkeypatch.setattr(LaplacianOp, "apply", counting_apply)
        _, info = interpolate_all(op, cfg, sampling, reduced)
        assert bool(np.all(info.converged))
        assert np.unique(info.iterations).size > 1  # columns finish at different steps
        assert columns == order * int(info.iterations.sum())
        assert calls == order * info.max_iterations

    def test_inputs_never_written(self, sbm500, monkeypatch):
        op = sbm500["op"]
        weights = op.graph.weights.copy()
        cfg = _interp_cfg(order=30, cutoff=0.45)
        sampling, reduced = self._indicator_problem(sbm500, 60, 12)
        reduced_before = reduced.copy()
        untouched = []

        def checking_system_apply(op_, cfg_, mask, P):
            before = P.copy()
            out = _system_apply(op_, cfg_, mask, P)
            untouched.append(np.array_equal(P, before))
            return out

        monkeypatch.setattr(cscluster.sampling, "_system_apply", checking_system_apply)
        interpolate_all(op, cfg, sampling, reduced)
        assert untouched and all(untouched)
        assert np.array_equal(reduced, reduced_before)
        assert np.array_equal(op.graph.weights, weights)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            InterpolationConfig(highpass=matched_highpass(design_lowpass(0.5, 20)), gamma=0.0)


class TestAssign:
    def test_one_hot_identity(self):
        soft = np.eye(4)
        assert assign(soft).tolist() == [0, 1, 2, 3]

    def test_per_cluster_scaling_invariant(self):
        rng = np.random.default_rng(0)
        soft = np.abs(rng.standard_normal((30, 4)))
        base = assign(soft)
        scaled = soft * np.array([3.0, 0.1, 7.5, 1.0])[None, :]
        assert np.array_equal(assign(scaled), base)

    def test_every_node_labeled(self):
        rng = np.random.default_rng(1)
        soft = rng.standard_normal((100, 5))
        labels = assign(soft)
        assert labels.shape == (100,)
        assert labels.min() >= 0 and labels.max() < 5

    def test_zero_row_fallback_warns(self, caplog):
        soft = np.eye(3)
        soft[1] = 0.0
        with caplog.at_level("WARNING"):
            labels, info = assign(soft, return_info=True)
        assert labels[1] == 0
        assert info["fallback_nodes"].tolist() == [1]
        assert any("raw argmax" in rec.message for rec in caplog.records)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            assign(np.zeros((4, 2)))

    def test_tie_breaks_lowest(self):
        soft = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert assign(soft).tolist() == [0, 1]
