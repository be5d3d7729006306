from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from cscluster import (
    CscParams,
    build_features,
    generate_signals,
    laplacian_op,
    lowpass_coefficients,
    run_csc,
)
from cscluster.filters import chebyshev_terms
from cscluster.pipeline import default_num_samples, default_num_signals
from helpers import cliques_graph


def _unit_rows(F):
    """The rows of F divided by their norms, as the pipeline's k-means sees them."""
    return F / np.linalg.norm(F, axis=1)[:, None]


class TestGenerateSignals:
    def test_default_size_arithmetic(self):
        # k = 20 -> n = ceil(2 * 20 * ln 20) = 120 -> d = ceil(4 * ln 120) = 20
        assert default_num_samples(20) == 120
        assert default_num_signals(120) == 20

    def test_column_norm_expectation(self):
        n, d = 400, 12
        norms = []
        for seed in range(100):
            sig = generate_signals(n, d, seed)
            norms.append((sig**2).sum(axis=0).mean())
        assert abs(np.mean(norms) - n / d) <= 0.05 * n / d

    def test_deterministic(self):
        a = generate_signals(50, 5, 7)
        b = generate_signals(50, 5, 7)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_signals(10, 0, 0)


class TestBuildFeatures:
    def test_same_cluster_rows_identical(self):
        g, truth = cliques_graph(3, 10)
        op = laplacian_op(g)
        # K10 components: next eigenvalue 10/9, far above the 0.5 cut-off
        lowpass = lowpass_coefficients(0.5, 200)[0]
        rows = _unit_rows(build_features(op, lowpass, generate_signals(30, 8, 0)))
        for c in range(3):
            block = rows[truth == c]
            assert np.abs(block - block[0]).max() < 1e-4
        assert np.linalg.norm(rows[0] - rows[1]) < 1e-4
        assert np.linalg.norm(rows[0] - rows[10]) > 0.5

    def test_distance_band_ideal_projector(self, sbm500):
        # JL-style check with the exact projector double, modest failure budget
        basis = sbm500["basis"]
        k = sbm500["k"]
        N = basis.eigenvalues.size
        eps, beta = 0.5, 1.0
        d = int(np.ceil((4 + 2 * beta) / (eps**2 / 2 - eps**3 / 3) * np.log(N)))
        Uk = basis.eigenvectors[:, :k]
        v = np.linalg.norm(Uk, axis=1)
        D = pdist(Uk / v[:, None])
        worst = 0.0
        for seed in range(3):
            R = generate_signals(N, d, seed)
            F = (Uk @ (Uk.T @ R)) / v[:, None]
            Dt = pdist(F)
            bad = (Dt < (1 - eps) * D) | (Dt > (1 + eps) * D)
            worst = max(worst, bad.mean())
        assert worst <= 1.0 / N + 0.01

    def test_rotation_invariance_of_distances(self, sbm500):
        op = sbm500["op"]
        c = lowpass_coefficients(0.45, 50)[0]
        R = generate_signals(op.num_nodes, 12, 3)
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        rows1 = _unit_rows(build_features(op, c, R))
        rows2 = _unit_rows(build_features(op, c, R @ Q))
        idx = rng.choice(op.num_nodes, size=(50, 2))
        for i, j in idx:
            d1 = np.linalg.norm(rows1[i] - rows1[j])
            d2 = np.linalg.norm(rows2[i] - rows2[j])
            assert abs(d1 - d2) < 1e-10

    def test_filtered_block_kept_unnormalized(self, sbm500):
        # the lift needs F = h(L) R itself, as float64 whatever the dtype the
        # filter ran in: the series summed in the signals' dtype, cast once
        op = sbm500["op"]
        c = lowpass_coefficients(0.45, 30)[0]
        sig = generate_signals(op.num_nodes, 6, 5)
        for signals in (sig, sig.astype(np.float32)):
            F = build_features(op, c, signals)
            assert F.dtype == np.float64
            terms = chebyshev_terms(op, signals, c.size - 1)
            series = c.astype(signals.dtype)
            expect = series[0] * next(terms)
            for l, t in enumerate(terms, start=1):
                expect += series[l] * t
            assert np.array_equal(F, expect.astype(np.float64))

    def test_single_signal_warns(self, caplog):
        # the pipeline resolves d, so it warns of a rank-1 embedding. With
        # one signal the unit rows are +-1; at seed 1 the two 6-cliques get
        # opposite signs, so the run completes (at seed 0 k-means empties a
        # cluster)
        g, _ = cliques_graph(2, 6)
        with caplog.at_level("WARNING"):
            run_csc(laplacian_op(g), CscParams(k=2, d=1, seed=1))
        assert any("rank-1" in rec.message for rec in caplog.records)
        caplog.clear()
        with caplog.at_level("WARNING"):
            run_csc(laplacian_op(g), CscParams(k=2, d=2, seed=1))
        assert not any("rank-1" in rec.message for rec in caplog.records)
