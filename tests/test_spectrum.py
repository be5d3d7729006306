from __future__ import annotations

import numpy as np
import pytest

from cscluster import (
    LaplacianOp,
    SbmConfig,
    chebyshev_moments,
    count_curve,
    critical_epsilon,
    dense_eig,
    estimate_lambda_k,
    generate_signals,
    laplacian_op,
    sbm_generate,
)
from cscluster._rng import substream
from cscluster.spectrum import default_probe_signals
from helpers import cliques_graph, lowpass_response


def probe_counts(op, lams, *, order=50, num_signals=None, seed=0):
    """Count curve at ``lams`` from the moments of the pipeline's float32
    Gaussian probe signals."""
    ds = num_signals or default_probe_signals(op.num_nodes)
    signals = generate_signals(op.num_nodes, ds, seed).astype(np.float32)
    return count_curve(chebyshev_moments(op, signals, order), lams)


class TestEigencount:
    def test_full_spectrum_count(self, sbm1000_gap):
        # the top of the grid counts (nearly) every eigenvalue
        assert default_probe_signals(1000) == 14
        (count,), _ = probe_counts(sbm1000_gap["op"], 2.0 - 2.0 / 801)
        assert abs(count - 1000) <= 0.10 * 1000

    def test_two_k2s_at_one(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        (count,), _ = probe_counts(op, 1.0, num_signals=64, seed=3)
        assert round(count) == 2

    def test_moments_match_dense_series(self, two_k2_graph, k3_graph):
        # mu_l = r^T T_l(L - I) r for every l <= 2p, from p applications only
        for graph in (two_k2_graph, k3_graph):
            op = laplacian_op(graph)
            R = np.random.default_rng(2).standard_normal((op.num_nodes, 3))
            order = 6
            mu = chebyshev_moments(op, R, order)
            Y = op.dense() - np.eye(op.num_nodes)
            T_prev, T_cur = np.eye(op.num_nodes), Y
            expect = [np.einsum("ij,ij->j", R, R), np.einsum("ij,ij->j", R, Y @ R)]
            for _ in range(2, 2 * order + 1):
                T_prev, T_cur = T_cur, 2.0 * Y @ T_cur - T_prev
                expect.append(np.einsum("ij,ij->j", R, T_cur @ R))
            np.testing.assert_allclose(mu, np.array(expect), atol=1e-10)

    def test_float32_moments_track_float64(self, sbm500):
        # the probe's float32 recurrence moves the count curve by far less
        # than the TOL_FLOOR of one half a rise must exceed, on the whole grid
        op = sbm500["op"]
        lams = np.linspace(0.0, 2.0, 802)[1:-1]
        for seed in range(3):
            signals = generate_signals(op.num_nodes, default_probe_signals(op.num_nodes), seed).astype(np.float32)
            assert signals.dtype == np.float32
            mu32 = chebyshev_moments(op, signals, 50)
            assert mu32.dtype == np.float64
            c32, _ = count_curve(mu32, lams)
            c64, _ = count_curve(chebyshev_moments(op, signals.astype(np.float64), 50), lams)
            assert np.abs(c32 - c64).max() <= 0.01, seed

    def test_gap_count_hits_k(self, sbm1000_gap):
        # at mid-gap the exact count of the degree-100 low-pass, trace
        # h_100(L) from the LAPACK eigenvalues, is k to within 0.1; and a
        # 1000-signal probe (more than the pipeline default, for a tight
        # standard error) reads that trace within 3 s.e. on each fixed draw
        w = sbm1000_gap["eigenvalues"]
        k = sbm1000_gap["k"]
        lam = 0.5 * (w[k - 1] + w[k])
        trace = float(np.sum(lowpass_response(lam, 100, w)))
        assert abs(trace - k) <= 0.1
        for seed in range(3):
            (count,), (se,) = probe_counts(sbm1000_gap["op"], lam, order=50, num_signals=1000, seed=seed)
            assert abs(count - trace) <= 3.0 * se, seed

    def test_mean_count_matches_spectrum(self, sbm500):
        # Hutchinson: the count is unbiased for trace h_2p(L), and its
        # standard error describes its spread across seeds
        op, order, lam = sbm500["op"], 20, 0.45
        expected = float(np.sum(lowpass_response(lam, 2 * order, sbm500["basis"].eigenvalues)))
        counts, ses = np.array([probe_counts(op, lam, order=order, num_signals=4, seed=s) for s in range(200)])[:, :, 0].T
        stderr = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - expected) <= 3.0 * stderr
        assert 0.7 <= np.sqrt(np.mean(ses**2)) / counts.std(ddof=1) <= 1.3

    def test_validation(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        R = np.ones((4, 2))
        with pytest.raises(ValueError):
            chebyshev_moments(op, R, 0)
        with pytest.raises(ValueError):
            count_curve(chebyshev_moments(op, R, 3), 0.0)


class TestEstimateLambdaK:
    def test_wide_gap_two_k2s(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        est = estimate_lambda_k(op, 2, num_signals=64, rng=np.random.default_rng(0))
        assert 0.0 < est.lambda_k_hat < 2.0
        assert est.warning is False

    def test_k3_near_upper_cluster(self, k3_graph):
        # K3 spectrum (0, 1.5, 1.5): the count jumps 1 -> 3 with no gap at
        # k = 2. A count of 2 is only read inside the filter's transition
        # band near 1.5, which is never flat: the estimate warns, and its
        # low-pass passes or stops the double eigenvalue as a whole
        op = laplacian_op(k3_graph)
        est = estimate_lambda_k(op, 2, num_signals=256, rng=np.random.default_rng(5))
        assert 1.0 < est.lambda_k_hat < 2.0
        assert est.warning is True
        h = lowpass_response(est.lambda_k_hat, 50, 1.5)
        assert h <= 0.1 or h >= 0.9

    def test_clique_refuses_transition_band_hits(self):
        # one 12-clique: spectrum 0 then 12/11 eleven times, no gap at k = 2.
        # Whatever the seed, an accepted cut-off must not let the order-50
        # low-pass pass the 12/11 cluster
        g, _ = cliques_graph(1, 12)
        op = laplacian_op(g)
        for seed in range(40):
            est = estimate_lambda_k(op, 2, order=50, rng=np.random.default_rng(seed))
            if not est.warning:
                assert lowpass_response(est.lambda_k_hat, 50, 12 / 11) <= 0.1, seed

    def test_true_gap_hits_accepted(self, sbm1000_gap):
        # the flatness rule must not refuse a real gap
        w = sbm1000_gap["eigenvalues"]
        k = sbm1000_gap["k"]
        for seed in range(12):
            est = estimate_lambda_k(sbm1000_gap["op"], k, rng=np.random.default_rng(seed))
            assert est.warning is False, seed
            assert w[k - 1] <= est.lambda_k_hat < w[k], seed

    def test_close_cluster_below_gap(self):
        # k = 5: lambda_2..lambda_5 sit within 0.03 of each other below the
        # gap, so with 14 signals every step of the count is below 3 s.e. and
        # the curve reads flat from 0 up to the gap; the plateau must still
        # be found at 5, not at the median of that climb (pipeline draws)
        cfg = SbmConfig(num_nodes=1000, k=5, avg_degree=16.0, epsilon=critical_epsilon(16.0, 5) / 4, seed=20160219)
        op = laplacian_op(sbm_generate(cfg)[0])
        w = dense_eig(op).eigenvalues
        for seed in range(12):
            est = estimate_lambda_k(op, 5, rng=substream(seed, "probe"))
            assert est.warning is False, seed
            assert w[4] <= est.lambda_k_hat < w[5], seed

    def test_probe_costs_order_applications(self, sbm1000_gap, monkeypatch):
        # the whole count curve comes from one Chebyshev recurrence
        op = sbm1000_gap["op"]
        real_apply = LaplacianOp.apply
        calls = 0

        def counting_apply(self, x):
            nonlocal calls
            calls += 1
            return real_apply(self, x)

        monkeypatch.setattr(LaplacianOp, "apply", counting_apply)
        estimate_lambda_k(op, 20, order=30, rng=np.random.default_rng(0))
        assert calls == 30

    def test_deterministic_under_seed(self, sbm1000_gap):
        op = sbm1000_gap["op"]
        a = estimate_lambda_k(op, 20, rng=np.random.default_rng(123))
        b = estimate_lambda_k(op, 20, rng=np.random.default_rng(123))
        assert a == b

    def test_validation(self, k3_graph):
        op = laplacian_op(k3_graph)
        with pytest.raises(ValueError):
            estimate_lambda_k(op, 0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_lambda_k(op, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_lambda_k(op, 2, num_signals=1, rng=np.random.default_rng(0))
