from __future__ import annotations

import numpy as np
import pytest

from cscluster import KmeansConfig, adjusted_rand_index, kmeans, labels_to_indicators
from cscluster.kmeans import _lloyd


def _blobs(rng, k=4, per=30, dim=2, sep=10.0, std=1.0):
    centers = rng.standard_normal((k, dim)) * sep
    pts = np.concatenate([centers[j] + std * rng.standard_normal((per, dim)) for j in range(k)])
    truth = np.repeat(np.arange(k), per)
    return pts, truth


class TestKmeans:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        pts, truth = _blobs(rng, sep=20.0, std=0.5)
        out = kmeans(pts, KmeansConfig(k=4, seed=0))
        assert adjusted_rand_index(truth, out.labels) == 1.0

    def test_k1_inertia_is_total_variance(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((50, 3))
        out = kmeans(pts, KmeansConfig(k=1, replicates=1, seed=0))
        expected = float(((pts - pts.mean(axis=0)) ** 2).sum())
        assert np.all(out.labels == 0)
        assert out.inertia == pytest.approx(expected)

    def test_k_distinct_points_zero_inertia(self):
        pts = np.arange(5, dtype=float)[:, None] * 3.0
        out = kmeans(pts, KmeansConfig(k=5, replicates=2, seed=0))
        assert out.inertia == 0.0
        assert len(set(out.labels.tolist())) == 5

    def test_duplicate_pairs_zero_inertia(self):
        pts = np.repeat(np.arange(3, dtype=float)[:, None] * 5.0, 2, axis=0)
        out = kmeans(pts, KmeansConfig(k=3, seed=0))
        assert out.inertia == 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans(np.zeros((2, 2)), KmeansConfig(k=3))

    def test_lloyd_inertia_monotone(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((200, 4))
        out = kmeans(pts, KmeansConfig(k=6, replicates=1, seed=3))
        hist = np.array(out.history)
        assert np.all(np.diff(hist) <= 1e-9)

    def test_permutation_equivariance_matched_init(self):
        # Lloyd's iterations from the same starting centroids
        rng = np.random.default_rng(4)
        pts, _ = _blobs(rng, k=3, per=20)
        init = pts[[0, 25, 45]]
        perm = rng.permutation(len(pts))
        base = _lloyd(pts, init.copy(), 100, 1e-6)[0]
        permuted = _lloyd(pts[perm], init.copy(), 100, 1e-6)[0]
        assert np.array_equal(permuted, base[perm])

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((80, 3))
        a = kmeans(pts, KmeansConfig(k=4, seed=9))
        b = kmeans(pts, KmeansConfig(k=4, seed=9))
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_assignment_tie_breaks_low_index(self):
        pts = np.array([[0.0]])
        out = kmeans(np.repeat(pts, 2, axis=0), KmeansConfig(k=2, replicates=1, max_iters=3, seed=0))
        # both centroids coincide: every point must sit in cluster 0
        assert np.all(out.labels == 0) or len(set(out.labels.tolist())) == 2

    def test_empty_cluster_repair_keeps_k_clusters(self):
        rng = np.random.default_rng(6)
        # one big tight blob and two far outliers: naive seeding often empties
        pts = np.concatenate([rng.standard_normal((60, 2)) * 0.1, [[50.0, 0.0]], [[0.0, 50.0]]])
        out = kmeans(pts, KmeansConfig(k=3, replicates=5, seed=1))
        assert len(set(out.labels.tolist())) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KmeansConfig(k=0)
        with pytest.raises(ValueError):
            KmeansConfig(k=2, replicates=0)


class TestLabelsToIndicators:
    def test_two_points(self):
        out = labels_to_indicators(np.array([0, 1]), 2, 2)
        assert np.array_equal(out, np.eye(2))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 4, size=37)
        out = labels_to_indicators(labels, 4, 37)
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_empty_cluster_warns_zero_column(self, caplog):
        with caplog.at_level("WARNING"):
            out = labels_to_indicators(np.array([0, 0, 2]), 3, 3)
        assert np.all(out[:, 1] == 0.0)
        assert any("empty cluster" in rec.message for rec in caplog.records)

    def test_argmax_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            labels = rng.integers(0, 5, size=20)
            out = labels_to_indicators(labels, 5, 20)
            assert np.array_equal(out.argmax(axis=1), labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            labels_to_indicators(np.array([0, 3]), 2, 2)
        with pytest.raises(ValueError):
            labels_to_indicators(np.array([0, 1]), 2, 3)
