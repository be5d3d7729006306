from __future__ import annotations

import numpy as np
import pytest

from cscluster import (
    LaplacianOp,
    build_graph,
    dense_eig,
    design_lowpass,
    eigencount,
    estimate_lambda_k,
    laplacian_op,
)
from cscluster.spectrum import default_probe_signals, trace_to_csv
from helpers import cliques_graph, ideal_projector_apply


class TestEigencount:
    def test_full_spectrum_count(self, sbm1000_gap):
        op = sbm1000_gap["op"]
        est = eigencount(op, 2.0, rng=np.random.default_rng(0))
        assert est.num_signals == default_probe_signals(1000) == 14
        assert abs(est.count - 1000) <= 0.10 * 1000

    def test_two_k2s_at_one(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        est = eigencount(op, 1.0, num_signals=64, rng=np.random.default_rng(3))
        assert est.rounded == 2

    @pytest.mark.slow
    def test_gap_count_hits_k(self, sbm1000_gap):
        # probe inside the oracle bracket; statistics need more signals than
        # the pipeline default, so they are raised explicitly here
        w = sbm1000_gap["eigenvalues"]
        k = sbm1000_gap["k"]
        lam = 0.5 * (w[k - 1] + w[k])
        hits = 0
        for seed in range(50):
            est = eigencount(sbm1000_gap["op"], lam, order=100, num_signals=1000, rng=np.random.default_rng(seed))
            hits += est.rounded == k
        assert hits >= 45

    def test_ideal_projector_unbiased(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        basis = dense_eig(op)
        apply_fn = ideal_projector_apply(basis, 1.0)
        rng = np.random.default_rng(11)
        counts = np.array([
            eigencount(op, 1.0, num_signals=4, rng=rng, apply_fn=apply_fn).count
            for _ in range(200)
        ])
        stderr = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 2.0) <= 3.0 * stderr

    def test_validation(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        with pytest.raises(ValueError):
            eigencount(op, 0.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            eigencount(op, 1.0, num_signals=0, rng=np.random.default_rng(0))


class TestEstimateLambdaK:
    def test_wide_gap_two_k2s(self, two_k2_graph):
        op = laplacian_op(two_k2_graph)
        est = estimate_lambda_k(op, 2, num_signals=64, rng=np.random.default_rng(0))
        assert 0.0 < est.lambda_k_hat < 2.0
        assert est.trace[0][0] == 1.0  # dichotomy starts at the interval midpoint

    def test_k3_near_upper_cluster(self, k3_graph):
        # K3 spectrum (0, 1.5, 1.5): the count jumps 1 -> 3 with no gap at
        # k = 2. A count of 2 is only read through partial transition weight
        # of the filter near 1.5, and such a hit must be refused: the
        # dichotomy falls back to its bracket near the double eigenvalue
        op = laplacian_op(k3_graph)
        est = estimate_lambda_k(op, 2, num_signals=256, rng=np.random.default_rng(5))
        assert 1.0 < est.lambda_k_hat < 2.0
        assert est.warning is True
        assert est.refused >= 1

    def test_bracket_halves_each_step(self, k3_graph):
        op = laplacian_op(k3_graph)
        w = dense_eig(op, vectors=False).eigenvalues

        def factory(lam):
            # noiseless count injection: exact #(eigenvalues <= lam)
            exact = float(np.sum(w <= lam))

            def apply_fn(X):
                out = np.zeros_like(X)
                out.flat[0] = np.sqrt(exact)
                return out

            return apply_fn

        # exact counts on K3 are {1, 3}: k = 2 is never hit, so the dichotomy
        # runs its full budget and must halve the bracket every step
        est = estimate_lambda_k(op, 2, rng=np.random.default_rng(0), max_steps=12, apply_factory=factory)
        assert est.warning is True
        assert [round(c) for _, c in est.trace] == [1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]
        probes = [lam for lam, _ in est.trace]
        for t in range(1, len(probes)):
            assert abs(probes[t] - probes[t - 1]) == pytest.approx(2.0**-t)

    def test_clique_refuses_transition_band_hits(self):
        # one 12-clique: spectrum 0 then 12/11 eleven times, no gap at k = 2.
        # Whatever the seed, an accepted cut-off must not let the order-50
        # low-pass pass the 12/11 cluster
        g, _ = cliques_graph(1, 12)
        op = laplacian_op(g)
        for seed in range(40):
            est = estimate_lambda_k(op, 2, order=50, rng=np.random.default_rng(seed), max_steps=6)
            if not est.warning:
                assert design_lowpass(est.lambda_k_hat, 50).evaluate(12 / 11) <= 0.1, seed

    def test_true_gap_hits_accepted(self, sbm1000_gap):
        # the transition-band rule must not refuse hits inside a real gap
        w = sbm1000_gap["eigenvalues"]
        k = sbm1000_gap["k"]
        for seed in range(12):
            est = estimate_lambda_k(sbm1000_gap["op"], k, rng=np.random.default_rng(seed))
            assert est.warning is False, seed
            assert w[k - 1] <= est.lambda_k_hat < w[k], seed

    def test_probe_costs_order_applications(self, sbm1000_gap, monkeypatch):
        # the three window counts of a probe share one Chebyshev recurrence
        op = sbm1000_gap["op"]
        real_apply = LaplacianOp.apply
        calls = 0

        def counting_apply(self, x):
            nonlocal calls
            calls += 1
            return real_apply(self, x)

        monkeypatch.setattr(LaplacianOp, "apply", counting_apply)
        est = estimate_lambda_k(op, 20, order=30, rng=np.random.default_rng(0), refine=True)
        assert calls == 30 * est.iterations

    def test_deterministic_under_seed(self, sbm1000_gap):
        op = sbm1000_gap["op"]
        a = estimate_lambda_k(op, 20, rng=np.random.default_rng(123))
        b = estimate_lambda_k(op, 20, rng=np.random.default_rng(123))
        assert a.lambda_k_hat == b.lambda_k_hat
        assert a.trace == b.trace

    def test_refine_step_can_tighten(self, sbm1000_gap):
        op = sbm1000_gap["op"]
        plain = estimate_lambda_k(op, 20, rng=np.random.default_rng(9), refine=False)
        refined = estimate_lambda_k(op, 20, rng=np.random.default_rng(9), refine=True)
        assert refined.lambda_k_hat <= plain.lambda_k_hat

    def test_validation(self, k3_graph):
        op = laplacian_op(k3_graph)
        with pytest.raises(ValueError):
            estimate_lambda_k(op, 0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_lambda_k(op, 3, rng=np.random.default_rng(0))

    def test_trace_csv(self, two_k2_graph, tmp_path):
        op = laplacian_op(two_k2_graph)
        est = estimate_lambda_k(op, 2, num_signals=16, rng=np.random.default_rng(0))
        path = tmp_path / "trace.csv"
        trace_to_csv(est, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda,count"
        assert len(lines) == len(est.trace) + 1
