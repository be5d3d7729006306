from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from cscluster import (
    PolyFilter,
    apply_filter,
    build_features,
    design_lowpass,
    generate_signals,
    laplacian_op,
)
from cscluster.pipeline import default_num_samples, default_num_signals
from helpers import cliques_graph


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
        filt = design_lowpass(0.5, 200)
        feats = build_features(op, filt, generate_signals(30, 8, 0))
        for c in range(3):
            rows = feats.rows[truth == c]
            assert np.abs(rows - rows[0]).max() < 1e-4
        assert np.linalg.norm(feats.rows[0] - feats.rows[1]) < 1e-4
        assert np.linalg.norm(feats.rows[0] - feats.rows[10]) > 0.5

    def test_distance_band_ideal_projector(self, sbm500):
        # JL-style check with the exact projector double, modest failure budget
        basis = sbm500["basis"]
        k = sbm500["k"]
        N = basis.num_nodes
        eps, beta = 0.5, 1.0
        d = int(np.ceil((4 + 2 * beta) / (eps**2 / 2 - eps**3 / 3) * np.log(N)))
        Uk = basis.leading(k)
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
        filt = design_lowpass(0.45, 50)
        R = generate_signals(op.num_nodes, 12, 3)
        rng = np.random.default_rng(0)
        Q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        f1 = build_features(op, filt, R)
        f2 = build_features(op, filt, R @ Q)
        idx = rng.choice(op.num_nodes, size=(50, 2))
        for i, j in idx:
            d1 = np.linalg.norm(f1.rows[i] - f1.rows[j])
            d2 = np.linalg.norm(f2.rows[i] - f2.rows[j])
            assert abs(d1 - d2) < 1e-10

    def test_zero_row_flagged_and_left_zero(self, k3_graph):
        op = laplacian_op(k3_graph)
        ident = PolyFilter(coeffs=np.array([1.0]))
        sig = generate_signals(3, 4, 0)
        sig[1] = 0.0
        feats = build_features(op, ident, sig)
        assert feats.zero_rows.tolist() == [1]
        assert np.all(feats.rows[1] == 0.0)
        norms = np.linalg.norm(feats.rows, axis=1)
        assert np.allclose(norms[[0, 2]], 1.0)

    def test_filtered_block_kept_unnormalized(self, sbm500):
        # the lift needs F = h(L) R itself; rows are F with unit-norm rows
        op = sbm500["op"]
        filt = design_lowpass(0.45, 30)
        sig = generate_signals(op.num_nodes, 6, 5)
        feats = build_features(op, filt, sig)
        assert np.array_equal(feats.filtered, apply_filter(filt, op, sig))
        norms = np.linalg.norm(feats.filtered, axis=1)
        assert np.allclose(feats.rows * norms[:, None], feats.filtered, rtol=1e-14, atol=0)

    def test_single_signal_warns(self, k3_graph, caplog):
        op = laplacian_op(k3_graph)
        filt = design_lowpass(1.0, 10)
        with caplog.at_level("WARNING"):
            build_features(op, filt, generate_signals(3, 1, 0))
        assert any("rank-1" in rec.message for rec in caplog.records)
