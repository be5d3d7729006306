from __future__ import annotations

import numpy as np
import pytest

from cscluster import (
    PolyFilter,
    apply_filter,
    build_features,
    dense_eig,
    design_lowpass,
    generate_signals,
    jackson_multipliers,
    laplacian_op,
)
from cscluster.filters import chebyshev_terms
from helpers import random_graph


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


class TestDesign:
    @pytest.mark.parametrize("cutoff", [0.5, 1.0, 1.37])
    def test_closed_form_matches_quadrature(self, cutoff):
        filt = design_lowpass(cutoff, 30, damping="none")
        oracle = quadrature_step_coeffs(cutoff, 30)
        assert np.abs(filt.coeffs - oracle).max() < 1e-5

    def test_high_order_approaches_step(self):
        filt = design_lowpass(1.0, 200, damping="none")
        assert abs(filt.evaluate(0.2) - 1.0) < 0.02
        assert abs(filt.evaluate(1.8)) < 0.02

    def test_lowpass_near_one_at_zero(self):
        for cutoff in (0.3, 0.9, 1.5):
            filt = design_lowpass(cutoff, 50)
            grid = np.linspace(0.0, 2.0, 501)
            e_m = np.abs(filt.evaluate(grid) - (grid <= cutoff)).max()
            assert abs(filt.evaluate(0.0) - 1.0) <= e_m + 1e-12

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            design_lowpass(0.0, 10)
        with pytest.raises(ValueError):
            design_lowpass(2.0, 10)
        with pytest.raises(ValueError):
            design_lowpass(1.0, 0)

    def test_jackson_multipliers_shape(self):
        g = jackson_multipliers(50)
        assert g[0] == pytest.approx(1.0)
        assert np.all(np.diff(g) < 0)  # damping decays with the order
        assert g[-1] > 0

    def test_jackson_has_no_overshoot(self):
        grid = np.linspace(0.0, 2.0, 4001)
        for cutoff in (0.4, 1.0, 1.6):
            damped = design_lowpass(cutoff, 50, damping="jackson")
            plain = design_lowpass(cutoff, 50, damping="none")
            assert np.max(damped.evaluate(grid)) <= 1.02
            assert np.max(plain.evaluate(grid)) > np.max(damped.evaluate(grid))

    def test_error_shrinks_with_order(self, sbm500):
        # sup error against the ideal rank-k step on the spectrum itself
        w = sbm500["basis"].eigenvalues
        k = sbm500["k"]
        cutoff = 0.5 * (w[k - 1] + w[k])
        ideal = (np.arange(w.size) < k).astype(np.float64)
        e10 = np.abs(design_lowpass(cutoff, 10).evaluate(w) - ideal).max()
        e100 = np.abs(design_lowpass(cutoff, 100).evaluate(w) - ideal).max()
        assert e100 < e10


class TestApply:
    def test_constant_filter_is_identity(self, k3_graph):
        op = laplacian_op(k3_graph)
        ident = PolyFilter(coeffs=np.array([1.0]))
        X = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(apply_filter(ident, op, X), X)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(8)
        g = random_graph(80, 0.1, rng)
        op = laplacian_op(g)
        basis = dense_eig(op)
        filt = design_lowpass(0.9, 30)
        X = rng.standard_normal((g.num_nodes, 5))
        got = apply_filter(filt, op, X)
        h = filt.evaluate(basis.eigenvalues)
        ref = basis.eigenvectors @ (h[:, None] * (basis.eigenvectors.T @ X))
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_excluded_eigenvector_suppressed(self, sbm500):
        op = sbm500["op"]
        basis = sbm500["basis"]
        k = sbm500["k"]
        cutoff = 0.5 * (basis.eigenvalues[k - 1] + basis.eigenvalues[k])
        filt = design_lowpass(cutoff, 100)
        # e2: the largest response over the excluded part of the spectrum
        e2 = np.abs(filt.evaluate(basis.eigenvalues[k:])).max()
        u = basis.eigenvectors[:, k + 5]
        out = apply_filter(filt, op, u)
        assert np.linalg.norm(out) <= e2 + 1e-12

    def test_linearity(self, sbm500):
        op = sbm500["op"]
        rng = np.random.default_rng(1)
        filt = design_lowpass(0.6, 20)
        X = rng.standard_normal((op.num_nodes, 3))
        Y = rng.standard_normal((op.num_nodes, 3))
        lhs = apply_filter(filt, op, 2.0 * X - 3.0 * Y)
        rhs = 2.0 * apply_filter(filt, op, X) - 3.0 * apply_filter(filt, op, Y)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_operator_symmetry(self, sbm500):
        op = sbm500["op"]
        rng = np.random.default_rng(2)
        filt = design_lowpass(0.8, 25)
        x = rng.standard_normal(op.num_nodes)
        y = rng.standard_normal(op.num_nodes)
        assert abs(apply_filter(filt, op, x) @ y - x @ apply_filter(filt, op, y)) < 1e-9

    def test_complementarity_reconstructs_input(self, k3_graph):
        op = laplacian_op(k3_graph)
        low = design_lowpass(1.1, 35)
        # the complement series 1 - low: filtering is linear in the coefficients
        high = PolyFilter(coeffs=np.eye(1, 36)[0] - low.coeffs)
        X = np.random.default_rng(3).standard_normal((3, 2))
        recon = apply_filter(low, op, X) + apply_filter(high, op, X)
        assert np.abs(recon - X).max() < 1e-12

    def test_inputs_never_written(self, sbm500):
        # the recurrence runs in place, but only on arrays it allocated itself
        op = sbm500["op"]
        weights = op.graph.weights.copy()
        filt = design_lowpass(0.4, 20)
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(op.num_nodes), rng.standard_normal((op.num_nodes, 3))):
            before = x.copy()
            first = op.apply(x)
            second = op.apply(x)
            assert np.array_equal(x, before)
            assert np.array_equal(first, second) and first is not second
            assert not np.shares_memory(first, x)
            apply_filter(filt, op, x)
            assert np.array_equal(x, before)
        signals = generate_signals(op.num_nodes, 4, seed=6)
        matrix = signals.copy()
        build_features(op, filt, signals)
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

    def test_dimension_mismatch(self, k3_graph):
        op = laplacian_op(k3_graph)
        filt = design_lowpass(1.0, 5)
        with pytest.raises(ValueError):
            apply_filter(filt, op, np.ones((5, 2)))
