"""Tests for the basis-coefficient operators and the 1/N^2 resummation."""

import math
import warnings

import numpy as np
import pytest

from guespec import gegenbauer, operators, quadrature


def e(n, size):
    v = np.zeros(size)
    v[n] = 1.0
    return v


def test_differentiate_unit_directions():
    # frozen small cases: D e_2 = 3 e_1, D e_3 = 2 e_0 + 4 e_2
    assert operators.differentiate(e(2, 4)).tolist() == [0.0, 3.0, 0.0, 0.0]
    assert operators.differentiate(e(3, 4)).tolist() == [2.0, 0.0, 4.0, 0.0]


def test_differentiate_matches_analytic_derivative():
    """D in coefficients equals d/dt pointwise."""
    rng = np.random.default_rng(99)
    a = rng.uniform(-1, 1, size=13)
    da = operators.differentiate(a)
    t = np.linspace(-2, 2, 25)
    f, df, _ = gegenbauer.basis_with_derivatives(12, t)
    pointwise = np.tensordot(a, df, axes=(0, 0))
    assert np.allclose(np.tensordot(da, f, axes=(0, 0)), pointwise, rtol=1e-12, atol=1e-12)


def test_eigenvalue_inverse_diagonal():
    a = np.array([2.0, 8.0, 15.0])
    got = operators.eigenvalue_inverse(a)
    assert got.tolist() == [2.0 / 3.0, 1.0, 1.0]


def test_first_order_solve_residual_pointwise():
    g = gegenbauer.taylor_to_basis([0.0, 1.0, 0.5, 0.0, 0.25])
    res = operators.first_order_residual(g, np.linspace(-2.5, 2.5, 33))
    assert float(np.max(np.abs(res))) < 1e-12


def test_correction_kills_low_degree():
    # T lowers index by at least 4, so anything supported on n <= 3 dies
    for n in range(4):
        # correction expects room to land in; pad the vector
        out = operators.correction(e(n, 6))
        assert not out.any()


def test_correction_acts_on_columns():
    """T of a matrix is T of each column, bit for bit."""
    rng = np.random.default_rng(5)
    block = rng.uniform(-1.0, 1.0, size=(30, 7))
    got = operators.correction(block)
    for j in range(block.shape[1]):
        assert got[:, j].tobytes() == operators.correction(block[:, j]).tobytes()


def test_correction_of_quartic_monomial():
    a = gegenbauer.taylor_to_basis([0, 0, 0, 0, 1.0])
    ta = operators.correction(a)
    assert np.allclose(ta, [1.0, 0, 0, 0, 0], atol=1e-14)
    assert not operators.correction(ta).any()


def test_functionals_of_quartic_and_sextic():
    a4 = gegenbauer.taylor_to_basis([0, 0, 0, 0, 1.0])
    assert operators.correction_functionals(a4, 2).tolist() == pytest.approx([2.0, 1.0, 0.0])
    a6 = gegenbauer.taylor_to_basis([0, 0, 0, 0, 0, 0, 1.0])
    assert operators.correction_functionals(a6, 2).tolist() == pytest.approx([5.0, 10.0, 0.0])


def test_resum_partial_sums_quartic():
    alphas = np.array([2.0, 1.0, 0.0, 0.0])
    sums = operators.resum_partial_sums(alphas, 2)
    assert sums.tolist() == pytest.approx([2.0, 2.25, 2.25, 2.25])


def test_resummed_integral_matches_quadrature():
    a = gegenbauer.taylor_to_basis([0.3, 0.0, -1.0, 0.0, 0.5, 0.0, 0.125, 0.0, 0.0625])
    for n in (2, 5):
        got = operators.resummed_integral(a, n, 2)
        want = quadrature.density_polynomial_integral(
            n, lambda t: np.polynomial.polynomial.polyval(
                t, [0.3, 0.0, -1.0, 0.0, 0.5, 0.0, 0.125, 0.0, 0.0625]), 8)
        assert got == pytest.approx(want, rel=1e-12)


def test_eigen_relation_hand_case():
    # n = 1: (t^2-4) f_1'' + 5t f_1' = 10t = ((1+2)^2 - 4) f_1
    assert operators.eigen_check(1, np.linspace(-2, 2, 9)) < 1e-14


def test_eigen_relation_batch():
    # raw residual on [-2, 2] stays tiny at moderate order; at larger order
    # and wider t, scale by the eigenvalue times the function size
    t = np.linspace(-2.0, 2.0, 41)
    assert operators.eigen_check(12, t) < 1e-9
    t_wide = np.linspace(-2.5, 2.5, 41)
    peak = float(np.max(np.abs(gegenbauer.basis_values(25, t_wide)[25])))
    scale = (25 + 2) ** 2 * peak
    assert operators.eigen_check(25, t_wide) / scale < 1e-14


def test_truncation_guard_for_inexact_series():
    s = gegenbauer.BasisSeries(np.ones(8), tail_bound=1e-14)
    with pytest.warns(RuntimeWarning, match="correction passes"):
        out = operators.correction_functionals(s, 2)  # wants > 8 entries
    assert len(out) == 3  # still computes the full requested depth
    # one more coefficient, or an exact series, stays quiet
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        operators.correction_functionals(
            gegenbauer.BasisSeries(np.ones(9), tail_bound=1e-14), 2)
        operators.correction_functionals(np.ones(8), 2)


def test_threshold_device_finds_first_good_size():
    alphas = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])

    def reference(n):
        true = float(np.sum(alphas * (1.0 / n ** 2) ** np.arange(len(alphas))))
        return true if n >= 3 else true + 1.0  # sizes 1, 2 can never converge

    n0 = operators.measure_convergence_threshold(alphas, reference, max_ensemble_size=8)
    assert n0 == 3


def test_threshold_device_raises_without_convergence():
    alphas = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(RuntimeError, match="no convergence"):
        operators.measure_convergence_threshold(alphas, lambda n: 1e6, max_ensemble_size=6)


def test_threshold_device_needs_enough_terms():
    with pytest.raises(ValueError):
        operators.measure_convergence_threshold(np.array([1.0, 2.0]), lambda n: 0.0)


def test_norm_probe_frozen_values():
    """Amplification of the correction operator in the weighted sup norms.
    The values are rationals (operator entries and weights are rational at
    these parameters) frozen at first computation."""
    weak = gegenbauer.NormParams(rate=0.5, index_scale=10.0)
    value, arg = operators.norm_probe(weak, truncation=100)
    assert value == pytest.approx(153.80859375, rel=1e-12)
    assert arg == 8

    strong = gegenbauer.NormParams(rate=1.0, index_scale=10.0)
    value2, arg2 = operators.norm_probe(strong, truncation=100)
    assert value2 == pytest.approx(482.2530864197531, rel=1e-12)
    assert arg2 == 6


def test_norm_probe_stable_under_truncation():
    params = gegenbauer.NormParams(rate=0.5, index_scale=10.0)
    vals = [operators.norm_probe(params, truncation=k)[0] for k in (50, 100, 200)]
    assert vals[0] == vals[1] == vals[2]


def test_depth_validation():
    with pytest.raises(ValueError):
        operators.correction_functionals(np.ones(5), -1)
    with pytest.raises(ValueError):
        operators.resum_partial_sums(np.ones(3), 0)
