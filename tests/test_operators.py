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
        want = quadrature.density_rule(n, 8).integrate(
            lambda t: np.polynomial.polynomial.polyval(
                t, [0.3, 0.0, -1.0, 0.0, 0.5, 0.0, 0.125, 0.0, 0.0625]))
        assert got == pytest.approx(want, rel=1e-12)


def test_eigen_relation_hand_case():
    # n = 1: (t^2-4) f_1'' + 5t f_1' = 10t = ((1+2)^2 - 4) f_1
    assert operators.eigen_check(1, np.linspace(-2, 2, 9))[1] < 1e-14


def test_eigen_relation_batch():
    # raw residual on [-2, 2] stays tiny at moderate order; at larger order
    # and wider t, scale by the eigenvalue times the function size
    t = np.linspace(-2.0, 2.0, 41)
    assert operators.eigen_check(12, t)[12] < 1e-9
    t_wide = np.linspace(-2.5, 2.5, 41)
    peak = float(np.max(np.abs(gegenbauer.basis_values(25, t_wide)[25])))
    scale = (25 + 2) ** 2 * peak
    assert operators.eigen_check(25, t_wide)[25] / scale < 1e-14
    # One frame serves every order: its rows are those of the smaller frames.
    assert np.array_equal(operators.eigen_check(40, t)[:13], operators.eigen_check(12, t))


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


def test_norm_probe_frozen_values():
    """Amplification of the correction operator in the weighted sup norms.
    The values are rationals (operator entries and weights are rational at
    these parameters) frozen bit for bit, with the first index attaining
    them."""
    value, arg = operators.norm_probe(rate=0.5, index_scale=10.0, truncation=100)
    assert (value, arg) == (153.80859374999994, 8)

    value2, arg2 = operators.norm_probe(rate=1.0, index_scale=10.0, truncation=100)
    assert (value2, arg2) == (482.2530864197533, 6)


def test_norm_probe_stable_under_truncation():
    vals = [operators.norm_probe(0.5, 10.0, truncation=k)[0] for k in (50, 100, 200)]
    assert vals[0] == vals[1] == vals[2]


def test_depth_validation():
    with pytest.raises(ValueError):
        operators.correction_functionals(np.ones(5), -1)
    with pytest.raises(ValueError):
        operators.resum_partial_sums(np.ones(3), 0)


def _reference_differentiate(coefficients):
    """D as it was written before the pair cumsum: one cumsum per parity,
    the factors built per call, the output zero-started.  The reference
    for the bits of ``differentiate``."""
    a = np.asarray(coefficients, dtype=float)
    tail = np.empty_like(a)
    for parity in (0, 1):
        tail[parity::2] = np.cumsum(a[parity::2][::-1], axis=0)[::-1]
    out = np.zeros_like(a)
    factors = np.arange(2.0, len(a) + 1.0).reshape((-1,) + (1,) * (a.ndim - 1))
    out[:-1] = factors * (tail[1:] + 0.0)
    return out


def _reference_eigenvalue_inverse(coefficients):
    a = np.asarray(coefficients, dtype=float)
    n = np.arange(len(a), dtype=float).reshape((-1,) + (1,) * (a.ndim - 1))
    return a / ((n + 1.0) * (n + 3.0))


def _reference_correction(coefficients):
    d = _reference_differentiate
    return d(d(d(_reference_eigenvalue_inverse(d(coefficients)))))


def _signed_zero_data(size, rng):
    """Random vectors of one length with exact zeros of both signs: mixed
    magnitudes, every entry -0.0, one parity -0.0 under the other, and
    -0.0 above one nonzero entry."""
    mixed = rng.standard_normal(size) * rng.choice([0.0, 1.0, 1e-3, 1e3], size)
    mixed[rng.random(size) < 0.3] *= -1.0
    parity = rng.standard_normal(size)
    parity[::2] = -0.0
    low = np.full(size, -0.0)
    low[0] = 1.5
    return [mixed, np.full(size, -0.0), parity, low, rng.standard_normal(size)]


@pytest.mark.parametrize("size", list(range(1, 13)) + [50, 51, 300, 647])
def test_lean_operators_are_the_reference_bits(size):
    rng = np.random.default_rng(size)
    for a in _signed_zero_data(size, rng) + [np.eye(size)]:
        for got, want in [(operators.differentiate(a), _reference_differentiate(a)),
                          (operators.eigenvalue_inverse(a), _reference_eigenvalue_inverse(a)),
                          (operators.correction(a), _reference_correction(a))]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_an_all_negative_zero_column_differentiates_to_positive_zeros():
    """The tail sums of an all -0.0 column are -0.0; the 0-d + 0.0 of
    ``differentiate`` makes them 0.0, as a zero-started accumulator would,
    in a matrix as alone, so no pass and no printed alpha shows -0.0."""
    a = np.column_stack([np.full(9, -0.0), np.arange(9.0), np.full(9, -0.0)])
    for got in (operators.differentiate(a), operators.differentiate(a[:, 0]),
                operators.correction(a)[:, ::2], operators.correction_functionals(a[:, 0], 3)):
        assert got.size and not np.signbit(got).any()


def test_cached_factors_are_not_writable():
    operators.differentiate(np.ones(9))
    for factors in operators._factors(9, 1):
        assert not factors.flags.writeable


def _full_loop(coefficients, depth):
    """Every correction pass to the full depth, as the functionals were
    computed before they stopped at an all-zero pass."""
    out = [gegenbauer.semicircle_functional(coefficients)]
    cur = coefficients
    for _ in range(depth):
        cur = operators.correction(cur)
        out.append(gegenbauer.semicircle_functional(cur))
    return np.array(out)


def test_functionals_stop_at_a_zero_pass_with_the_full_loop_bits():
    polynomials = [[0.0] * p + [1.0] for p in range(41)]
    rng = np.random.default_rng(24)
    taylor = rng.uniform(-1.0, 1.0, 37)
    taylor[5] = -0.0
    polynomials.append(taylor.tolist())
    # t^4 - 2: alpha_0 is 0.0, alpha_1 is not.
    polynomials.append([-2.0, 0.0, 0.0, 0.0, 1.0])
    for i, polynomial in enumerate(polynomials):
        coefficients = gegenbauer.taylor_to_basis(polynomial)
        for depth in (0, 1, 2, 5, 11, 12, 60):
            got = operators.correction_functionals(coefficients, depth)
            want = _full_loop(coefficients, depth)
            assert got.tobytes() == want.tobytes(), (i, depth)


def test_functionals_of_a_short_polynomial_take_one_pass(monkeypatch):
    passes = []
    correction = operators.correction
    monkeypatch.setattr(operators, "correction", lambda a: passes.append(1) or correction(a))
    got = operators.correction_functionals(gegenbauer.taylor_to_basis([0.0, 0.0, 1.0]), 100000)
    assert got.tolist() == [1.0] + [0.0] * 100000
    assert len(passes) == 1


def test_batched_functionals_are_the_per_vector_bits():
    """Columns of many lengths in one matrix, depths past the point where a
    polynomial's passes reach zero, signed zeros, and one column alone:
    every functional is correction_functionals' on that vector alone."""
    rng = np.random.default_rng(27)
    vectors, depths = [], []
    for size in (1, 2, 5, 9, 16, 17, 33, 64, 65, 130):
        for a in _signed_zero_data(size, rng):
            vectors.append(a)
            depths.append(int(rng.integers(0, size // 3 + 3)))
    vectors += [gegenbauer.taylor_to_basis([0.0] * p + [1.0]) for p in range(41)]
    depths += [math.ceil(p / 4) for p in range(41)]
    for got, a, depth in zip(operators.batched_functionals(vectors, depths), vectors, depths):
        assert got.tobytes() == operators.correction_functionals(a, depth).tobytes()
    for a, depth in [(vectors[-1], 10), (np.ones(3), 0)]:
        (got,) = operators.batched_functionals([a], [depth])
        assert got.tobytes() == operators.correction_functionals(a, depth).tobytes()
    assert operators.batched_functionals([], []) == []


def test_batched_functionals_run_the_deepest_column_passes(monkeypatch):
    passes = []
    correction = operators.correction
    monkeypatch.setattr(operators, "correction", lambda a: passes.append(a.shape) or correction(a))
    vectors = [gegenbauer.taylor_to_basis([0.0] * p + [1.0]) for p in range(17)]
    operators.batched_functionals(vectors, [math.ceil(p / 4) for p in range(17)])
    # Four passes, each over the columns whose depth is not yet reached.
    assert passes == [(17, 16), (17, 12), (17, 8), (17, 4)]
