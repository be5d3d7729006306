from __future__ import annotations

import numpy as np
import pytest

from cscluster import (
    PolyFilter,
    apply_filter,
    build_features,
    check_resolution_bound,
    dense_eig,
    design_lowpass,
    error_split,
    generate_signals,
    jackson_multipliers,
    laplacian_op,
    matched_highpass,
    psd_ridge,
)
from cscluster.filters import apply_filters
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

    def test_matched_complement_is_exact(self):
        low = design_lowpass(0.8, 40)
        high = matched_highpass(low)
        lam = np.linspace(0.0, 2.0, 1001)
        assert np.abs(low.evaluate(lam) + high.evaluate(lam) - 1.0).max() < 1e-12
        assert high.kind == "highpass"

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

    def test_json_round_trip(self, tmp_path):
        filt = design_lowpass(0.7321, 33, damping="jackson")
        path = tmp_path / "filter.json"
        filt.save(path)
        loaded = PolyFilter.load(path)
        assert loaded.cutoff == filt.cutoff
        assert loaded.order == filt.order
        assert loaded.damping == filt.damping
        assert loaded.kind == filt.kind
        assert np.array_equal(loaded.coeffs, filt.coeffs)


class TestApply:
    def test_constant_filter_is_identity(self, k3_graph):
        op = laplacian_op(k3_graph)
        ident = PolyFilter(coeffs=np.array([1.0]), cutoff=1.0, order=0, damping="none", kind="lowpass")
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
        budget = error_split(filt, basis.eigenvalues, k)
        u = basis.eigenvectors[:, k + 5]
        out = apply_filter(filt, op, u)
        assert np.linalg.norm(out) <= budget.e_m + 1e-12

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
        high = matched_highpass(low)
        X = np.random.default_rng(3).standard_normal((3, 2))
        recon = apply_filter(low, op, X) + apply_filter(high, op, X)
        assert np.abs(recon - X).max() < 1e-12

    def test_bank_matches_single_filters(self, sbm500):
        op = sbm500["op"]
        filters = [design_lowpass(c, 20) for c in (0.4, 0.5, 0.6)]
        X = np.random.default_rng(4).standard_normal((op.num_nodes, 3))
        for got, filt in zip(apply_filters(filters, op, X), filters):
            assert np.array_equal(got, apply_filter(filt, op, X))
        with pytest.raises(ValueError):
            apply_filters([design_lowpass(0.5, 20), design_lowpass(0.5, 10)], op, X)

    def test_inputs_never_written(self, sbm500):
        # the recurrence runs in place, but only on arrays it allocated itself
        op = sbm500["op"]
        weights = op.graph.weights.copy()
        filters = [design_lowpass(c, 20) for c in (0.4, 0.6)]
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(op.num_nodes), rng.standard_normal((op.num_nodes, 3))):
            before = x.copy()
            first = op.apply(x)
            second = op.apply(x)
            assert np.array_equal(x, before)
            assert np.array_equal(first, second) and first is not second
            assert not np.shares_memory(first, x)
            apply_filters(filters, op, x)
            assert np.array_equal(x, before)
        signals = generate_signals(op.num_nodes, 4, seed=6)
        matrix = signals.matrix.copy()
        build_features(op, filters[0], signals)
        assert np.array_equal(signals.matrix, matrix)
        assert np.array_equal(op.graph.weights, weights)

    def test_dimension_mismatch(self, k3_graph):
        op = laplacian_op(k3_graph)
        filt = design_lowpass(1.0, 5)
        with pytest.raises(ValueError):
            apply_filter(filt, op, np.ones((5, 2)))


class _IdealStub:
    """Test stub whose response is the exact rank-k step."""

    def __init__(self, cutoff):
        self.cutoff = cutoff

    def evaluate(self, lam):
        return (np.asarray(lam) <= self.cutoff).astype(np.float64)


class TestErrorSplit:
    def test_ideal_filter_zero_errors(self, sbm500):
        w = sbm500["basis"].eigenvalues
        k = sbm500["k"]
        cutoff = 0.5 * (w[k - 1] + w[k])
        budget = error_split(_IdealStub(cutoff), w, k)
        assert budget.e1 == 0.0 and budget.e2 == 0.0 and budget.e_m == 0.0

    def test_error_shrinks_with_order(self, sbm500):
        w = sbm500["basis"].eigenvalues
        k = sbm500["k"]
        cutoff = 0.5 * (w[k - 1] + w[k])
        e10 = error_split(design_lowpass(cutoff, 10), w, k).e_m
        e100 = error_split(design_lowpass(cutoff, 100), w, k).e_m
        assert e100 < e10

    def test_jackson_has_no_overshoot(self):
        grid = np.linspace(0.0, 2.0, 4001)
        for cutoff in (0.4, 1.0, 1.6):
            damped = design_lowpass(cutoff, 50, damping="jackson")
            plain = design_lowpass(cutoff, 50, damping="none")
            assert np.max(damped.evaluate(grid)) <= 1.02
            assert np.max(plain.evaluate(grid)) > np.max(damped.evaluate(grid))

    def test_requires_sorted_spectrum(self):
        filt = design_lowpass(1.0, 10)
        with pytest.raises(ValueError):
            error_split(filt, np.array([1.0, 0.5, 1.5]), 1)
        with pytest.raises(ValueError):
            error_split(filt, np.array([0.5, 1.0]), 2)


class TestResolutionBound:
    def test_ideal_budget_full_slack(self, sbm500):
        w = sbm500["basis"].eigenvalues
        k = sbm500["k"]
        budget = error_split(_IdealStub(0.5 * (w[k - 1] + w[k])), w, k, d_min_r=0.3, delta=0.9)
        check = check_resolution_bound(budget, v_min=0.1)
        assert check.ok_split and check.ok_max
        assert check.lhs_split == 0.0 and check.lhs_max == 0.0
        assert check.slack_max == pytest.approx(0.9 / 2.9)

    def test_delta_one_bound_is_one_third(self, sbm500):
        w = sbm500["basis"].eigenvalues
        budget = error_split(design_lowpass(0.5, 50), w, sbm500["k"], delta=1.0)
        check = check_resolution_bound(budget, v_min=0.1)
        assert check.bound == pytest.approx(1.0 / 3.0)

    def test_pathologic_coherence_rejected(self, sbm500):
        w = sbm500["basis"].eigenvalues
        budget = error_split(design_lowpass(0.5, 50), w, sbm500["k"])
        with pytest.raises(ValueError, match="v_min"):
            check_resolution_bound(budget, v_min=0.0)

    def test_default_benchmark_budget_reported(self, sbm500):
        # diagnostic value at the standard order; no pass/fail claim
        w = sbm500["basis"].eigenvalues
        k = sbm500["k"]
        cutoff = 0.5 * (w[k - 1] + w[k])
        budget = error_split(design_lowpass(cutoff, 50), w, k, d_min_r=0.3, delta=0.9)
        v_min = float(np.linalg.norm(sbm500["basis"].leading(k), axis=1).min())
        check = check_resolution_bound(budget, v_min)
        assert np.isfinite(check.lhs_split) and np.isfinite(check.lhs_max)
        print(f"order-50 budget: e_m={budget.e_m:.3e} lhs_max={check.lhs_max:.3f} bound={check.bound:.3f}")


def test_psd_ridge_makes_highpass_nonnegative():
    high = matched_highpass(design_lowpass(0.6, 50, damping="jackson"))
    rho = psd_ridge(high)
    grid = np.linspace(0.0, 2.0, 2001)
    assert np.min(high.evaluate(grid)) + rho >= 0.0
    assert rho < 0.1  # damped undershoot is small
