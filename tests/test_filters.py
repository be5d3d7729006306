from __future__ import annotations

import numpy as np
import pytest

from numpy.polynomial.chebyshev import chebval

from cscluster import (
    build_features,
    dense_eig,
    generate_signals,
    jackson_multipliers,
    laplacian_op,
    lowpass_coefficients,
)
from cscluster.filters import chebyshev_terms
from helpers import lowpass_response, random_graph


def quadrature_step_coeffs(cutoff: float, order: int, grid: int = 1_000_000) -> np.ndarray:
    """Independent oracle: discrete cosine quadrature of the ideal step.

    c_l = (2/pi) * int_0^pi 1[theta >= theta_c] cos(l theta) dtheta evaluated
    by the midpoint rule (c_0 halved for the series convention).
    """
    theta = np.pi * (np.arange(grid) + 0.5) / grid
    step = (np.cos(theta) <= cutoff - 1.0).astype(np.float64)
    coeffs = np.empty(order + 1)
    for l in range(order + 1):
        val = 2.0 / grid * np.sum(step * np.cos(l * theta))
        coeffs[l] = val / 2.0 if l == 0 else val
    return coeffs


def _undamped(cutoff: float, order: int) -> np.ndarray:
    """The plain truncated series of the step: the Jackson-damped row with
    its (positive) multipliers divided out."""
    return lowpass_coefficients(cutoff, order)[0] / jackson_multipliers(order)


class TestDesign:
    @pytest.mark.parametrize("cutoff", [0.5, 1.0, 1.37])
    def test_closed_form_matches_quadrature(self, cutoff):
        oracle = quadrature_step_coeffs(cutoff, 30)
        assert np.abs(_undamped(cutoff, 30) - oracle).max() < 1e-5

    def test_high_order_approaches_step(self):
        plain = _undamped(1.0, 200)
        assert abs(chebval(0.2 - 1.0, plain) - 1.0) < 0.02
        assert abs(chebval(1.8 - 1.0, plain)) < 0.02

    def test_lowpass_near_one_at_zero(self):
        for cutoff in (0.3, 0.9, 1.5):
            grid = np.linspace(0.0, 2.0, 501)
            e_m = np.abs(lowpass_response(cutoff, 50, grid) - (grid <= cutoff)).max()
            assert abs(lowpass_response(cutoff, 50, 0.0) - 1.0) <= e_m + 1e-12

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            lowpass_coefficients(0.0, 10)
        with pytest.raises(ValueError):
            lowpass_coefficients(2.0, 10)
        with pytest.raises(ValueError):
            lowpass_coefficients(1.0, 0)

    @pytest.mark.parametrize("order", [1, 2, 7, 50, 100])
    def test_table_is_the_scalar_closed_form_byte_for_byte(self, order):
        # one row per cut-off, each the closed form evaluated at that
        # cut-off alone; one cut-off outside (0, 2) refuses the whole table
        cutoffs = np.concatenate([np.linspace(0.0, 2.0, 802)[1:-1], np.random.default_rng(0).uniform(0, 2, 50)])
        reference = np.empty((cutoffs.size, order + 1))
        l = np.arange(1, order + 1)
        for row, cutoff in zip(reference, cutoffs.tolist()):
            theta_c = np.arccos(cutoff - 1.0)
            row[0] = 1.0 - theta_c / np.pi
            row[1:] = -2.0 * np.sin(l * theta_c) / (np.pi * l)
            row *= jackson_multipliers(order)
        assert lowpass_coefficients(cutoffs, order).tobytes() == reference.tobytes()
        assert lowpass_coefficients(float(cutoffs[7]), order)[0].tobytes() == reference[7].tobytes()
        with pytest.raises(ValueError, match="got 2.0"):
            lowpass_coefficients([0.5, 2.0, 1.0], order)

    def test_jackson_multipliers_shape(self):
        g = jackson_multipliers(50)
        assert g[0] == pytest.approx(1.0)
        assert np.all(np.diff(g) < 0)  # damping decays with the order
        assert g[-1] > 0

    def test_jackson_has_no_overshoot(self):
        grid = np.linspace(0.0, 2.0, 4001)
        for cutoff in (0.4, 1.0, 1.6):
            damped = lowpass_response(cutoff, 50, grid)
            plain = chebval(grid - 1.0, _undamped(cutoff, 50))
            assert np.max(damped) <= 1.02
            assert np.max(plain) > np.max(damped)

    def test_error_shrinks_with_order(self, sbm500):
        # sup error against the ideal rank-k step on the spectrum itself
        w = sbm500["basis"].eigenvalues
        k = sbm500["k"]
        cutoff = 0.5 * (w[k - 1] + w[k])
        ideal = (np.arange(w.size) < k).astype(np.float64)
        e10 = np.abs(lowpass_response(cutoff, 10, w) - ideal).max()
        e100 = np.abs(lowpass_response(cutoff, 100, w) - ideal).max()
        assert e100 < e10


class TestApply:
    def test_constant_filter_is_identity(self, k3_graph):
        op = laplacian_op(k3_graph)
        X = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(build_features(op, np.array([1.0]), X), X)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(8)
        g = random_graph(80, 0.1, rng)
        op = laplacian_op(g)
        basis = dense_eig(op)
        X = rng.standard_normal((g.num_nodes, 5))
        got = build_features(op, lowpass_coefficients(0.9, 30)[0], X)
        h = lowpass_response(0.9, 30, basis.eigenvalues)
        ref = basis.eigenvectors @ (h[:, None] * (basis.eigenvectors.T @ X))
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_excluded_eigenvector_suppressed(self, sbm500):
        op = sbm500["op"]
        basis = sbm500["basis"]
        k = sbm500["k"]
        cutoff = 0.5 * (basis.eigenvalues[k - 1] + basis.eigenvalues[k])
        # e2: the largest response over the excluded part of the spectrum
        e2 = np.abs(lowpass_response(cutoff, 100, basis.eigenvalues[k:])).max()
        u = basis.eigenvectors[:, k + 5]
        out = build_features(op, lowpass_coefficients(cutoff, 100)[0], u)
        assert np.linalg.norm(out) <= e2 + 1e-12

    def test_linearity(self, sbm500):
        op = sbm500["op"]
        rng = np.random.default_rng(1)
        c = lowpass_coefficients(0.6, 20)[0]
        X = rng.standard_normal((op.num_nodes, 3))
        Y = rng.standard_normal((op.num_nodes, 3))
        lhs = build_features(op, c, 2.0 * X - 3.0 * Y)
        rhs = 2.0 * build_features(op, c, X) - 3.0 * build_features(op, c, Y)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_operator_symmetry(self, sbm500):
        op = sbm500["op"]
        rng = np.random.default_rng(2)
        c = lowpass_coefficients(0.8, 25)[0]
        x = rng.standard_normal(op.num_nodes)
        y = rng.standard_normal(op.num_nodes)
        assert abs(build_features(op, c, x) @ y - x @ build_features(op, c, y)) < 1e-9

    def test_complementarity_reconstructs_input(self, k3_graph):
        op = laplacian_op(k3_graph)
        low = lowpass_coefficients(1.1, 35)[0]
        # the complement series 1 - low: filtering is linear in the coefficients
        high = np.eye(1, 36)[0] - low
        X = np.random.default_rng(3).standard_normal((3, 2))
        recon = build_features(op, low, X) + build_features(op, high, X)
        assert np.abs(recon - X).max() < 1e-12

    def test_inputs_never_written(self, sbm500):
        # the recurrence runs in place, but only on arrays it allocated itself
        op = sbm500["op"]
        weights = op.graph.weights.copy()
        c = lowpass_coefficients(0.4, 20)[0]
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(op.num_nodes), rng.standard_normal((op.num_nodes, 3))):
            before = x.copy()
            first = op.apply(x)
            second = op.apply(x)
            assert np.array_equal(x, before)
            assert np.array_equal(first, second) and first is not second
            assert not np.shares_memory(first, x)
            build_features(op, c, x)
            assert np.array_equal(x, before)
        signals = generate_signals(op.num_nodes, 4, seed=6).astype(np.float32)
        matrix = signals.copy()
        build_features(op, c, signals)
        assert np.array_equal(signals, matrix)
        assert np.array_equal(op.graph.weights, weights)

    def test_terms_match_dense_and_stay_unwritten(self):
        # T_l(L - I) x for l = 0..order, each term left as it was yielded
        g = random_graph(30, 0.2, np.random.default_rng(4))
        op = laplacian_op(g)
        x = np.random.default_rng(1).standard_normal((30, 2))
        terms, copies = [], []
        for t in chebyshev_terms(op, x, 7):
            terms.append(t)
            copies.append(t.copy())
        Y = op.dense() - np.eye(30)
        expect = [x, Y @ x]
        while len(expect) < 8:
            expect.append(2.0 * Y @ expect[-1] - expect[-2])
        assert len(terms) == 8 and terms[0] is x
        for t, c, e in zip(terms, copies, expect):
            assert np.array_equal(t, c)
            np.testing.assert_allclose(t, e, atol=1e-10)

    def test_accumulation_matches_term_sum(self, sbm500):
        # the output is bitwise the series c_0 T_0 x + c_1 T_1 x + ... summed in order,
        # so a rewrite of the accumulation (a reused buffer, say) must keep it
        op = sbm500["op"]
        c = lowpass_coefficients(0.7, 30)[0]
        rng = np.random.default_rng(7)
        for x in (rng.standard_normal(op.num_nodes), rng.standard_normal((op.num_nodes, 4))):
            terms = chebyshev_terms(op, x, c.size - 1)
            expect = c[0] * next(terms)
            for l, t in enumerate(terms, start=1):
                expect = expect + c[l] * t
            assert np.array_equal(build_features(op, c, x), expect)

    def test_float32_recurrence_tracks_float64(self, sbm500):
        # float32 signals are filtered in float32 all the way, so every
        # float64 output is a float32 value, and land within float32
        # rounding of the float64 filter
        op = sbm500["op"]
        x = generate_signals(op.num_nodes, 20, seed=1)
        for cutoff in (0.2, 0.45, 1.0):
            c = lowpass_coefficients(cutoff, 50)[0]
            ref = build_features(op, c, x)
            got = build_features(op, c, x.astype(np.float32))
            assert got.dtype == np.float64
            assert np.array_equal(got, got.astype(np.float32))
            assert not np.array_equal(got, ref)
            err = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
            assert err.max() <= 1e-5, cutoff

    def test_dimension_mismatch(self, k3_graph):
        op = laplacian_op(k3_graph)
        with pytest.raises(ValueError):
            build_features(op, lowpass_coefficients(1.0, 5)[0], np.ones((5, 2)))
