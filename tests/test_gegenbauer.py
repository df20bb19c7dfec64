"""Tests for the quadratic-weight orthogonal basis on [-2, 2]:
values, conversions, entire-function expansion, norms, growth reports.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guespec import gegenbauer, quadrature


def explicit(n, t):
    """Closed forms of the first few basis polynomials."""
    table = {
        0: lambda t: np.ones_like(t),
        1: lambda t: 2.0 * t,
        2: lambda t: 3.0 * t ** 2 - 2.0,
        3: lambda t: 4.0 * t ** 3 - 6.0 * t,
        4: lambda t: 5.0 * t ** 4 - 12.0 * t ** 2 + 3.0,
    }
    return table[n](np.asarray(t, dtype=float))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_basis_values_closed_forms(n):
    t = np.linspace(-2.5, 2.5, 21)
    assert np.allclose(gegenbauer.basis_values(4, t)[n], explicit(n, t), rtol=1e-13, atol=1e-13)


def test_endpoint_values_are_tetrahedral():
    # f_n(2) = (n+1)(n+2)(n+3)/6
    vals = gegenbauer.basis_values(12, np.float64(2.0))
    for n in range(13):
        assert float(vals[n]) == pytest.approx((n + 1) * (n + 2) * (n + 3) / 6.0, rel=1e-13)


def test_basis_parity():
    t = np.linspace(0.1, 2.0, 9)
    plus = gegenbauer.basis_values(9, t)
    minus = gegenbauer.basis_values(9, -t)
    for n in range(10):
        assert np.allclose(minus[n], (-1.0) ** n * plus[n], rtol=1e-13)


@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (4, 4), (0, 2), (1, 3), (2, 6), (5, 9)])
def test_orthogonality_under_quadratic_weight(n, m):
    """<f_n f_m (4-t^2)^{3/2}> = 2 pi (n+1)(n+3) delta_nm."""
    got = gegenbauer.normalization_check(n, m)
    want = 2.0 * math.pi * (n + 1) * (n + 3) if n == m else 0.0
    assert got == pytest.approx(want, abs=1e-9 * max(1.0, want))


def test_derivatives_match_finite_differences():
    t = np.array([0.4, -1.7, 2.2])
    f, df, d2f = gegenbauer.basis_with_derivatives(8, t)
    h1 = 1e-6
    fp, fm = gegenbauer.basis_values(8, t + h1), gegenbauer.basis_values(8, t - h1)
    assert np.max(np.abs((fp - fm) / (2 * h1) - df)) < 1e-5
    # second difference needs a larger step or roundoff eats the quotient
    h2 = 1e-4
    fp, fm = gegenbauer.basis_values(8, t + h2), gegenbauer.basis_values(8, t - h2)
    assert np.max(np.abs((fp - 2 * f + fm) / h2 ** 2 - d2f)) < 1e-3


def test_derivative_ladder():
    # f'_{n+1} - f'_{n-1} = (n+2) f_n
    t = np.linspace(-2, 2, 17)
    f, df, _ = gegenbauer.basis_with_derivatives(11, t)
    for n in range(1, 11):
        lhs = df[n + 1] - df[n - 1]
        assert np.allclose(lhs, (n + 2) * f[n], rtol=1e-12, atol=1e-12)


def test_chebyshev_link_small_residual():
    t = np.linspace(-2.5, 2.5, 31)
    for n in (0, 1, 5, 17, 30):
        res = gegenbauer.chebyshev_link_residual(n, t)
        scale = max(1.0, float(np.max(np.abs(gegenbauer.basis_values(n, t)[n]))))
        assert float(np.max(np.abs(res))) / scale < 1e-12


def test_semicircle_functional_is_even_coefficient_sum():
    a = np.array([0.5, 100.0, -2.0, 7.0, 0.25])
    assert gegenbauer.semicircle_functional(a) == pytest.approx(0.5 - 2.0 + 0.25, rel=1e-15)


@pytest.mark.parametrize("n", range(0, 13))
def test_semicircle_average_of_basis_by_quadrature(n):
    """Dual route for the averaging rule: int f_n sqrt(4-t^2)/(2pi) dt is 1
    for even n and 0 for odd n, which is what the even-coefficient sum
    encodes.  Established by quadrature, not assumed."""
    rule = quadrature.semicircle_rule(n // 2 + 2)
    got = rule.integrate(lambda t: gegenbauer.basis_values(n, t)[n]) / (2.0 * math.pi)
    assert got == pytest.approx(1.0 if n % 2 == 0 else 0.0, abs=1e-12)


def test_taylor_to_basis_frozen_examples():
    # t^2 = 2/3 + (1/3) f_2 ; t^4 = 1 + (4/5) f_2 + (1/5) f_4
    assert np.allclose(gegenbauer.taylor_to_basis([0, 0, 1]), [2 / 3, 0, 1 / 3], rtol=1e-14)
    assert np.allclose(gegenbauer.taylor_to_basis([0, 0, 0, 0, 1]),
                       [1.0, 0.0, 0.8, 0.0, 0.2], rtol=1e-14)


def test_basis_to_taylor_inverts():
    a = np.array([0.3, -1.0, 0.0, 2.5, 0.7, 0.1])
    back = gegenbauer.taylor_to_basis(gegenbauer.basis_to_taylor(a))
    assert np.allclose(back, a, rtol=1e-12, atol=1e-14)


def test_exact_conversion_round_trip_rationals():
    poly = [Fraction(k - 3, k + 2) for k in range(31)]
    a = gegenbauer.taylor_to_basis(poly, exact=True)
    back = gegenbauer.basis_to_taylor(a, exact=True)
    assert back == poly


def test_exact_conversion_any_degree():
    for degree in (41, 80, 160):
        poly = [Fraction(k - 3, k + 2) for k in range(degree + 1)]
        a = gegenbauer.taylor_to_basis(poly, exact=True)
        assert gegenbauer.basis_to_taylor(a, exact=True) == poly, degree


def _conversion_inputs(degree):
    """exp:a and cos:a Taylor data as the CLI builds them, and random data."""
    rng = np.random.default_rng(degree)
    for a in (1.5, 30.0):
        yield [a ** k / math.factorial(k) for k in range(degree + 1)]
        cos = [0.0] * (degree + 1)
        for j in range(degree // 2 + 1):
            cos[2 * j] = (-1) ** j * a ** (2 * j) / math.factorial(2 * j)
        yield cos
    yield rng.uniform(-1.0, 1.0, degree + 1)


def test_float_conversion_is_the_rounded_exact_value():
    """Each float coefficient is the exact one rounded once, bit for bit."""
    for degree in range(161):
        for data in _conversion_inputs(degree):
            for convert in (gegenbauer.taylor_to_basis, gegenbauer.basis_to_taylor):
                rounded = [float(v) for v in convert(data, exact=True)]
                assert convert(data).tolist() == rounded, (degree, convert.__name__)


def _exact_basis_values(order, t):
    """f_0(t) .. f_order(t) in Fractions by the three-term recurrence."""
    vals = [Fraction(1), 2 * t]
    for n in range(1, order):
        vals.append(((n + 2) * t * vals[n] - (n + 3) * vals[n - 1]) / (n + 1))
    return vals[: order + 1]


def test_exact_conversion_against_recurrence_values():
    """sum_n a_n f_n(t) == sum_j alpha_j t^j exactly at rational t, with f_n
    from the recurrence rather than the closed-form conversion sums."""
    degree = 80
    rng = np.random.default_rng(80)
    alpha = [Fraction(int(p), int(q)) for p, q in
             zip(rng.integers(-99, 100, degree + 1), rng.integers(1, 50, degree + 1))]
    a = gegenbauer.taylor_to_basis(alpha, exact=True)
    b = gegenbauer.basis_to_taylor(alpha, exact=True)
    for t in (Fraction(0), Fraction(1, 3), Fraction(-7, 4), Fraction(5, 2), Fraction(-2)):
        f = _exact_basis_values(degree, t)
        powers = [t ** j for j in range(degree + 1)]
        assert sum(x * y for x, y in zip(a, f)) == sum(x * y for x, y in zip(alpha, powers))
        assert sum(x * y for x, y in zip(b, powers)) == sum(x * y for x, y in zip(alpha, f))


def test_conversion_against_inner_product_route():
    """Second, independent conversion route: project onto f_n by quadrature
    against the (4-t^2)^{3/2} weight and divide by the known norm."""
    poly = [0.2, -1.3, 0.8, 0.0, 0.45, -0.2, 0.07]  # degree 6
    a = gegenbauer.taylor_to_basis(poly)

    def f(t):
        return np.polynomial.polynomial.polyval(t, poly)

    for n in range(7):
        inner = quadrature.integrate_gegenbauer2(
            lambda t: f(t) * gegenbauer.basis_values(n, t)[n], 10)
        proj = float(inner) / (2.0 * math.pi * (n + 1) * (n + 3))
        assert proj == pytest.approx(float(a[n]), abs=1e-12)


def test_evaluate_series_matches_polyval():
    a = np.array([1.0, 0.5, -0.25, 2.0])
    t = np.linspace(-2, 2, 9)
    direct = sum(a[n] * gegenbauer.basis_values(3, t)[n] for n in range(4))
    assert np.allclose(gegenbauer.evaluate_series(a, t), direct, rtol=1e-14)


def test_basis_series_callable_and_frozen():
    s = gegenbauer.BasisSeries(np.array([1.0, 2.0]), tail_bound=0.0)
    assert float(s(np.float64(0.5))) == pytest.approx(1.0 + 2.0 * 2.0 * 0.5)
    assert s.coefficients.tolist() == [1.0, 2.0]
    with pytest.raises(AttributeError):
        s.tail_bound = 1.0


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_conversion_round_trip_random(coeffs):
    a = gegenbauer.taylor_to_basis(coeffs)
    back = gegenbauer.basis_to_taylor(a)
    scale = max(1.0, max(abs(c) for c in coeffs))
    assert np.max(np.abs(back - np.asarray(coeffs))) < 1e-10 * scale


def test_expand_entire_polynomial_tail_zero():
    series = gegenbauer.TaylorSeries([0.0, 0.0, 0.0, 1.0], 0.0)  # t^3
    out = gegenbauer.expand_entire(series)
    assert out.tail_bound == 0.0
    assert np.allclose(out.coefficients, gegenbauer.taylor_to_basis([0, 0, 0, 1]))


def test_expand_entire_exponential_pointwise():
    taylor = [1.0 / math.factorial(k) for k in range(41)]
    out = gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, 0.0), tol=1e-11)
    assert out.tail_bound <= 1e-11
    t = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(out(t) - np.exp(t))) < 1e-10


def test_expand_entire_trims_long_input():
    taylor = [1.0 / math.factorial(k) for k in range(81)]
    out = gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, 0.0), tol=1e-10)
    assert len(out.coefficients) < 81   # something was certifiably dropped
    assert 0.0 < out.tail_bound <= 1e-10


def test_expand_entire_growth_rejection_names_index():
    # constant coefficients imply order-2 type ~ n/(2e), inconsistent with
    # a tiny declared type; the first bad index is 10 (the check floor)
    bad = gegenbauer.TaylorSeries([1.0] * 21, 1e-6)
    with pytest.raises(ValueError, match="index 10"):
        gegenbauer.expand_entire(bad)


def test_expand_entire_degree_cap():
    # the band envelope 3^n of the trim loop is finite up to n = 646 only;
    # past it the input is refused before the conversion runs
    at_cap = gegenbauer.expand_entire(gegenbauer.TaylorSeries([1.0] + [0.0] * 646, 0.0))
    assert at_cap.coefficients.tolist() == [1.0]
    with pytest.raises(ValueError, match="degree 647 exceeds 646"):
        gegenbauer.expand_entire(gegenbauer.TaylorSeries([1.0] + [0.0] * 647, 0.0))


def test_expand_entire_model_tail_certificate():
    sigma = 0.125
    taylor = [0.0] * 61
    for j in range(31):
        taylor[2 * j] = sigma ** j / math.factorial(j)
    out = gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, sigma), tol=1e-9)
    assert 0.0 < out.tail_bound <= 1e-9
    # value check on the spectral interval against the closed form
    t = np.linspace(-2, 2, 21)
    assert np.max(np.abs(out(t) - np.exp(sigma * t * t))) < 1e-8


def test_expand_entire_rejects_unachievable_tolerance():
    sigma = 0.5
    taylor = [0.0] * 25
    for j in range(13):
        taylor[2 * j] = sigma ** j / math.factorial(j)
    with pytest.raises(ValueError, match="tail"):
        gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, sigma), tol=1e-14)


def test_norm_params_validation():
    with pytest.raises(ValueError):
        gegenbauer.NormParams(rate=0.25, index_scale=5.0)
    with pytest.raises(ValueError):
        gegenbauer.NormParams(rate=1.0, index_scale=0.0)


def test_growth_bound_report_measures_not_asserts():
    """The nominal complex-circle envelope fails; the report must say so
    honestly rather than clip: max |f_4| on |z| = 3 is 516 (at z = +/-3i,
    where f_4(it) = 5t^4 + 12t^2 + 3), envelope 2 * 3^4 = 162."""
    rep = gegenbauer.growth_bound_report(4, 3.0)
    assert rep.max_value == pytest.approx(516.0, rel=1e-12)
    assert rep.value_envelope == pytest.approx(162.0)

    rep2 = gegenbauer.growth_bound_report(10, 5.0)
    assert rep2.value_envelope == pytest.approx(2.0 * 5.0 ** 10)
    assert rep2.max_value > rep2.value_envelope  # measured margin, reported


def test_growth_bound_report_low_orders():
    rep0 = gegenbauer.growth_bound_report(0, 3.0)
    assert (rep0.max_value, rep0.value_envelope) == (1.0, 2.0)  # |f_0| = 1 <= 2
    # order 1 sits exactly on the envelope: |2z| = 6 = 2 * 3^1
    rep1 = gegenbauer.growth_bound_report(1, 3.0)
    assert rep1.max_value == pytest.approx(rep1.value_envelope, rel=1e-12)


def test_real_interval_envelope_constant():
    # On the real interval the nominal 2 * 3^n envelope is short by at most
    # a factor ~2.024 (worst at n = 7); 4.1 * 3^n covers every order.
    t = np.linspace(-3, 3, 601)
    vals = gegenbauer.basis_values(40, t)
    for n in range(41):
        assert float(np.max(np.abs(vals[n]))) <= 4.1 * 3.0 ** n
