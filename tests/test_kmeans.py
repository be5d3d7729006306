from __future__ import annotations

import importlib

import numpy as np
import pytest

from cscluster import adjusted_rand_index, kmeans
from cscluster.kmeans import BOUNDS_MIN_POINTS, DRAW_BLOCK, MAX_ITERS, REPLICATES, _draw, _lloyd, _seed_picks
from helpers import loop_kmeans, loop_lloyd, loop_seed_centroids

# the module: the package's name ``kmeans`` is the function
KMEANS = importlib.import_module("cscluster.kmeans")


def _blobs(rng, k=4, per=30, dim=2, sep=10.0, std=1.0):
    centers = rng.standard_normal((k, dim)) * sep
    pts = np.concatenate([centers[j] + std * rng.standard_normal((per, dim)) for j in range(k)])
    truth = np.repeat(np.arange(k), per)
    return pts, truth


def _repair_input(blob=60):
    # one big tight blob and two far outliers: naive seeding often empties
    rng = np.random.default_rng(6)
    return np.concatenate([rng.standard_normal((blob, 2)) * 0.1, [[50.0, 0.0]], [[0.0, 50.0]]])


def _emptied_after_a_move():
    """Points on a noisy line, and starting centroids at 0, 10 and 20, whose
    middle cluster empties in the second iteration: groups at 0 and 3 move the
    first centroid to 1.5, groups at 17 and 20 move the third to 18.5, and
    the middle one's two points, at 5.5 and 14.5, then sit nearer those."""
    rng = np.random.default_rng(8)
    x = np.concatenate([np.repeat([0.0, 3.0, 17.0, 20.0], BOUNDS_MIN_POINTS // 4), [5.5, 14.5]])
    pts = np.stack([x, np.zeros_like(x)], axis=1) + 0.01 * rng.standard_normal((x.size, 2))
    return pts, np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])


def _unit_rows_f_order(rng, k=12, per=25):
    pts, _ = _blobs(rng, k=k, per=per, dim=k, sep=1.0, std=0.3)
    pts = np.asfortranarray(pts)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


class FixedUniform:
    """A stream whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _lloyd_as_kmeans(pts, init, max_iters, tol):
    """``_lloyd`` with the arguments ``kmeans`` gives it: the caller's norms, a C-ordered block."""
    return _lloyd(np.ascontiguousarray(pts), (pts * pts).sum(axis=1), init.copy(), max_iters, tol)


def _check_draws_are_rng_choice(low, high, variants):
    """``_draw`` against ``rng.choice`` on 5-row blocks of low <= q < high
    entries, 40 draws per block, each stream checked where it ends."""
    src = np.random.default_rng(11)
    for v in range(variants):
        q = int(src.integers(low, high))
        d2 = src.random((5, q)) ** 3 * 10.0 ** src.integers(-4, 5, size=(5, 1))
        d2[src.random((5, q)) < 0.3] = 0.0
        d2[np.arange(5), src.integers(q, size=5)] = 1.0
        d2[int(src.integers(5))] = 0.0
        streams = np.random.SeedSequence(v).spawn(5)
        ours = [np.random.default_rng(ss) for ss in streams]
        theirs = [np.random.default_rng(ss) for ss in streams]
        for _ in range(40):
            got = _draw(d2, ours)
            for row, i, rng in zip(d2, got, theirs):
                total = row.sum()
                assert i == (rng.choice(q, p=row / total) if total > 0 else rng.integers(q))
                assert row[i] > 0 or total == 0
        assert [r.random() for r in ours] == [r.random() for r in theirs]


def _check_every_iteration_cap(order, tol, per, variants):
    """``_lloyd`` against ``helpers.loop_lloyd`` at caps 1-11 on 5 overlapping
    blobs of ``per`` points, and its count of distance rows."""
    q = 5 * per
    for v in range(variants):
        rng = np.random.default_rng(30 + v)
        pts, _ = _blobs(rng, k=5, per=per, dim=3, sep=3.0, std=1.0)
        pts = np.asarray(pts, order=order)
        init = pts[rng.choice(len(pts), size=6, replace=False)]
        stops = set()
        for m in range(1, 12):
            got = _lloyd_as_kmeans(pts, init, m, tol)
            ref = loop_lloyd(pts, init.copy(), m, tol)
            assert np.array_equal(got[0], ref[0])
            assert got[2] == ref[2]
            assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)
            if q < BOUNDS_MIN_POINTS:
                # q rows per executed iteration; a counted repeat is not executed
                assert got[3] in (q * got[2], q * (got[2] - 1))
            else:
                # the first iteration computes every row, later ones skip some
                assert got[3] == q if got[2] == 1 else q < got[3] < q * got[2]
            stops.add(got[2])
        assert len(stops) > 1  # some cap falls before the run stops


LOOP_CASES = [
    "blobs-k4", "gaussian-500x20-k40", "repair-input", "duplicates-3x4-k5", "unit-rows-f-order-k12",
    # at least BOUNDS_MIN_POINTS points: bounded Lloyd iterations
    "unit-rows-f-order-12x400-k12", "repair-input-2000",
]


def _loop_case(case):
    """(points, k, seed) of a case compared against the loop reference."""
    if case == "blobs-k4":
        pts, _ = _blobs(np.random.default_rng(0), sep=20.0, std=0.5)
        return pts, 4, 0
    if case == "gaussian-500x20-k40":
        return np.random.default_rng(10).standard_normal((500, 20)), 40, 2
    if case == "repair-input":
        return _repair_input(), 3, 1
    if case == "repair-input-2000":
        return _repair_input(blob=2000), 3, 1
    if case == "unit-rows-f-order-12x400-k12":
        return _unit_rows_f_order(np.random.default_rng(13), per=400), 12, 5
    if case == "unit-rows-f-order-k12":
        # the layout SC passes: rows of an F-ordered eigenvector block, scaled to unit norm
        return _unit_rows_f_order(np.random.default_rng(12)), 12, 4
    # 3 distinct integer rows, each 4 times: the norm expansion is exact, so
    # once all 3 are picked every D^2 is 0 and each next pick is rng.integers
    return np.repeat([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]], 4, axis=0), 5, 3


class TestKmeans:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        pts, truth = _blobs(rng, sep=20.0, std=0.5)
        out = kmeans(pts, 4, 0)
        assert adjusted_rand_index(truth, out.labels) == 1.0

    def test_k1_inertia_is_total_variance(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((50, 3))
        out = kmeans(pts, 1, 0)
        expected = float(((pts - pts.mean(axis=0)) ** 2).sum())
        assert np.all(out.labels == 0)
        assert out.inertia == pytest.approx(expected)

    def test_k_distinct_points_zero_inertia(self):
        pts = np.arange(5, dtype=float)[:, None] * 3.0
        out = kmeans(pts, 5, 0)
        assert out.inertia == 0.0
        assert len(set(out.labels.tolist())) == 5

    def test_duplicate_pairs_zero_inertia(self):
        pts = np.repeat(np.arange(3, dtype=float)[:, None] * 5.0, 2, axis=0)
        out = kmeans(pts, 3, 0)
        assert out.inertia == 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans(np.zeros((2, 2)), 3, 0)

    def test_lloyd_inertia_monotone(self):
        # with tol 0 a run stops only once its inertia stops falling: the
        # inertia after at most m iterations must not rise with m
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((200, 4))
        c0 = pts[rng.choice(200, size=6, replace=False)]
        inertia = [_lloyd_as_kmeans(pts, c0, m, 0.0)[1] for m in range(1, 11)]
        assert np.all(np.diff(inertia) <= 1e-9)

    def test_permutation_equivariance_matched_init(self):
        # Lloyd's iterations from the same starting centroids
        rng = np.random.default_rng(4)
        pts, _ = _blobs(rng, k=3, per=20)
        init = pts[[0, 25, 45]]
        perm = rng.permutation(len(pts))
        base = _lloyd_as_kmeans(pts, init, 100, 1e-6)[0]
        permuted = _lloyd_as_kmeans(pts[perm], init, 100, 1e-6)[0]
        assert np.array_equal(permuted, base[perm])

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((80, 3))
        a = kmeans(pts, 4, 9)
        b = kmeans(pts, 4, 9)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_assignment_tie_breaks_low_index(self):
        pts = np.array([[0.0]])
        out = kmeans(np.repeat(pts, 2, axis=0), 2, 0)
        # both centroids coincide: every point must sit in cluster 0
        assert np.all(out.labels == 0) or len(set(out.labels.tolist())) == 2

    def test_empty_cluster_repair_keeps_k_clusters(self):
        out = kmeans(_repair_input(), 3, 1)
        assert len(set(out.labels.tolist())) == 3

    def test_coincident_float_rows(self):
        # the norm expansion leaves equal non-integer rows a rounding error apart
        rows = np.random.default_rng(0).standard_normal((5, 7))
        pts = np.repeat(rows, 3, axis=0)
        out = kmeans(pts, 5, 0)
        assert out.inertia <= 1e-12
        groups = sorted(np.flatnonzero(out.labels == j).tolist() for j in range(5))
        assert groups == [[3 * r, 3 * r + 1, 3 * r + 2] for r in range(5)]

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_matches_loop_reference(self, case):
        pts, k, seed = _loop_case(case)
        got = kmeans(pts, k, seed)
        ref = loop_kmeans(pts, k, seed)
        assert np.array_equal(got.labels, ref.labels)
        assert got.iterations_run == ref.iterations_run
        assert got.inertia == pytest.approx(ref.inertia, rel=1e-12, abs=0.0)
        if case == "duplicates-3x4-k5":
            # inertia 0 from the first iteration: no run goes on to MAX_ITERS
            assert got.iterations_run < MAX_ITERS

    def test_bounds_skip_rows_and_change_nothing_else(self, monkeypatch):
        # with the gate above q, the same call takes the plain Lloyd
        # iterations, which compute q rows in every executed iteration; the
        # bounded run gives the same labels, iterations and inertia bit for
        # bit from under a seventh of those rows. Both counts are
        # deterministic: pinned
        pts, k, seed = _loop_case("unit-rows-f-order-12x400-k12")
        q = len(pts)
        bounded = kmeans(pts, k, seed)
        monkeypatch.setattr(KMEANS, "BOUNDS_MIN_POINTS", q + 1)
        plain = kmeans(pts, k, seed)
        assert np.array_equal(bounded.labels, plain.labels)
        assert (bounded.iterations_run, bounded.inertia) == (plain.iterations_run, plain.inertia)
        assert plain.distance_rows == 271 * q
        assert bounded.distance_rows == 167034

    def test_lloyd_repair_matches_loop_reference(self):
        # two centroids start empty: both reseed, at distinct farthest points
        pts = _repair_input()
        init = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 100.0]])
        got = _lloyd_as_kmeans(pts, init, 100, 1e-6)
        ref = loop_lloyd(pts, init.copy(), 100, 1e-6)
        assert np.array_equal(got[0], ref[0]) and got[1:3] == ref[1:]
        assert sorted(np.bincount(got[0]).tolist()) == [1, 1, 60]

    def test_bounded_lloyd_repair_matches_loop_reference(self):
        # a cluster that empties in a bounded iteration: the repair moves its
        # centroid across the line, and every bound must follow that move
        pts, init = _emptied_after_a_move()
        first = _lloyd_as_kmeans(pts, init, 1, 1e-6)[0]
        assert np.bincount(first, minlength=3)[1] == 2
        ref = loop_lloyd(pts, init.copy(), 2, 1e-6)
        assert np.bincount(ref[0], minlength=3)[1] == 0  # emptied, and repaired after
        for m in range(1, 8):
            got = _lloyd_as_kmeans(pts, init, m, 1e-6)
            ref = loop_lloyd(pts, init.copy(), m, 1e-6)
            assert np.array_equal(got[0], ref[0]) and got[1:3] == ref[1:]

    def test_bounded_lloyd_breaks_exact_ties_as_a_full_row(self):
        # integer points on a line, so every distance is exact: after the
        # first update the centroids sit at 0 and 8, and the point at 4,
        # labelled 1 from the start at 7, is as far from both. A full row
        # gives it the lower index, and its bounds must not keep it at 1
        x = np.concatenate([np.zeros(BOUNDS_MIN_POINTS // 2), np.full(BOUNDS_MIN_POINTS // 2 - 2, 8.0), [4.0, 12.0]])
        pts = np.stack([x, np.zeros_like(x)], axis=1)
        init = np.array([[0.0, 0.0], [7.0, 0.0]])
        assert _lloyd_as_kmeans(pts, init, 1, 0.0)[0][-2] == 1
        assert _lloyd_as_kmeans(pts, init, 2, 0.0)[0][-2] == 0
        for m in (2, 3, 10):
            got = _lloyd_as_kmeans(pts, init, m, 0.0)
            ref = loop_lloyd(pts, init.copy(), m, 0.0)
            assert np.array_equal(got[0], ref[0]) and got[1:3] == ref[1:]

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_lloyd_matches_loop_reference_at_every_iteration_cap(self, order, tol):
        # a run that stops on a repeat of its last labels counts the
        # iteration it skips: labels, iterations_run and inertia as the loop's
        # for every cap, also where the cap falls on that skipped iteration;
        # below BOUNDS_MIN_POINTS points every executed iteration computes
        # every distance row
        _check_every_iteration_cap(order, tol, per=40, variants=6)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_bounded_lloyd_matches_loop_reference_at_every_iteration_cap(self, order, tol):
        # the same at BOUNDS_MIN_POINTS points, where the bounds skip rows
        _check_every_iteration_cap(order, tol, per=BOUNDS_MIN_POINTS // 5, variants=2)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_points_unchanged(self, order):
        pts = np.asarray(_unit_rows_f_order(np.random.default_rng(3)), order=order)
        before = pts.copy(order="K")
        kmeans(pts, 12, 0)
        assert np.array_equal(pts, before)
        assert pts.flags.f_contiguous == (order == "F")

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_lockstep_seeding_matches_loop_per_replicate(self, case):
        # every replicate, not only the one whose Lloyd run wins
        pts, k, seed = _loop_case(case)
        streams = np.random.SeedSequence(seed).spawn(REPLICATES)
        pp = (pts * pts).sum(axis=1)
        picks = _seed_picks(pts, pp, k, [np.random.default_rng(ss) for ss in streams])
        assert picks.shape == (REPLICATES, k)
        for r, ss in enumerate(streams):
            assert np.array_equal(pts[picks[r]], loop_seed_centroids(pts, k, np.random.default_rng(ss)))

    def test_draw_is_rng_choice(self):
        # row by row the same index as rng.choice(q, p=d2 / total), and each
        # stream left where choice leaves it; zero entries can never be
        # drawn, and a row of zeros draws rng.integers(q); rows of 1 to 399
        # entries span 1 to 7 blocks of DRAW_BLOCK, the last one often partial
        _check_draws_are_rng_choice(1, 400, variants=60)

    def test_block_draw_is_rng_choice(self):
        # the same on rows of 2000 to 6000 entries, 32 to 94 blocks
        _check_draws_are_rng_choice(2000, 6000, variants=15)

    def test_block_draw_on_a_partial_sum_takes_choices_cdf(self, monkeypatch):
        # equal weights: choice's cdf entry i is exactly (i + 1) / q, so u
        # draws floor(u q), and every partial sum is exact. u = 1/2 lands on
        # the end of the middle block, of 64 or of 2: no rounding bound
        # separates u from it, so the draw builds choice's cdf. Half an entry
        # away from a partial sum, the partial sums decide without it
        built = []
        real_index = KMEANS._choice_index

        def recording_index(row, u):
            built.append(row.shape)
            return real_index(row, u)

        monkeypatch.setattr(KMEANS, "_choice_index", recording_index)
        for q in (64 * DRAW_BLOCK, 2 * DRAW_BLOCK):
            d2 = np.ones((1, q))
            for u, index, fallback in [(0.5, q // 2, True), (0.5 + 0.5 / q, q // 2, False), (0.5 - 0.5 / q, q // 2 - 1, False)]:
                built.clear()
                assert int(_draw(d2, [FixedUniform(u)])[0]) == index
                assert built == ([(q,)] if fallback else [])

    def test_draw_at_the_ends_of_the_unit_interval(self):
        # u = 0 and the largest u below 1 draw the first and last positive
        # weights; these cumulative weights sum to the largest double below 1
        d2 = np.array([0.0, 0.1, 0.2, 0.0, 0.3, 0.0])
        ends = [int(_draw(d2[None], [FixedUniform(u)])[0]) for u in (0.0, np.nextafter(1.0, 0.0))]
        assert ends == [1, 4]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(1).standard_normal((50, 3))
        pts[17, 1] = bad
        pts[30, 0] = bad
        with pytest.raises(ValueError, match="row 17 "):
            kmeans(pts, 4, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="k must"):
            kmeans(np.zeros((3, 2)), 0, 0)

