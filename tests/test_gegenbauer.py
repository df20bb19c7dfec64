"""Tests for the quadratic-weight orthogonal basis on [-2, 2]:
values, conversions, plane-wave series, norms, growth reports.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guespec import gegenbauer, laplace, operators, quadrature


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
    got = gegenbauer.normalization_check(max(n, m))[n, m]
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
    rows = gegenbauer.chebyshev_link_residual(30, t)
    for n in (0, 1, 5, 17, 30):
        res = rows[n]
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


@pytest.mark.parametrize("power", [0, 1, 2, 3, 12, 13, 40, 41, 150, 301, 646])
def test_monomial_columns_are_the_taylor_conversion_bitwise(power):
    got = gegenbauer.monomial_to_basis(power)
    want = gegenbauer.taylor_to_basis([0.0] * power + [1.0])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_monomial_columns_refuse_a_negative_power():
    with pytest.raises(ValueError, match="power"):
        gegenbauer.monomial_to_basis(-1)


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
    """Taylor data of e^{at} and cos(at), whose conversion cancels, and random data."""
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
        inner = quadrature.semicircle_rule(10).integrate(
            lambda t: f(t) * gegenbauer.basis_values(n, t)[n] * (4.0 - t * t))
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


def _plane_wave_reference(kind, a, length):
    """(n+2) I_{n+2}(2a) / a^2, or (-1)^{n/2} (n+2) J_{n+2}(2a) / a^2 on even
    n and 0 on odd n, by mpmath at 30 digits, rounded once; for gauss, the
    Chebyshev coefficients of e^{at^2} and their two connection steps (see
    plane_wave_series) at 50 digits."""
    if kind == "gauss":
        with mp.workdps(50):
            a = mp.mpf(a)
            c = [mp.e ** (2 * a) * mp.besseli(k // 2, 2 * a) * (2 - (k == 0)) * (1 - k % 2)
                 for k in range(length + 4)]
            u = [c[0] - c[2] / 2] + [(c[m] - c[m + 2]) / 2 for m in range(1, length + 2)]
            return np.array([float(u[n] / (n + 1) - u[n + 2] / (n + 3)) for n in range(length)])
    with mp.workdps(30):
        a = mp.mpf(a)
        if kind == "exp":
            return np.array([float((n + 2) * mp.besseli(n + 2, 2 * a) / a ** 2)
                             for n in range(length)])
        return np.array([0.0 if n % 2 else float((-1) ** (n // 2) * (n + 2)
                                                 * mp.besselj(n + 2, 2 * a) / a ** 2)
                         for n in range(length)])


# Measured over this grid: the worst gap is 4.1e-16 (exp) and 8.1e-16 (cos)
# of the largest coefficient; each exp coefficient above the 2^-60 cut is
# within 1.5e-15 of its own value.
@pytest.mark.parametrize("kind", ["exp", "cos"])
def test_plane_wave_coefficients_against_mpmath(kind):
    grid = [float(a) for a in np.geomspace(0.01, 40.0, 25)] + [-0.7, -3.3, -17.0]
    for a in grid:
        got = gegenbauer.plane_wave_series(kind, a, 3).coefficients
        want = _plane_wave_reference(kind, a, len(got))
        big = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 2e-15 * big, a
        if kind == "exp":
            kept = np.abs(want) >= 2.0 ** -60 * big
            assert np.max(np.abs(got - want)[kept] / np.abs(want[kept])) <= 4e-15, a


@pytest.mark.parametrize("kind", ["exp", "cos"])
def test_plane_wave_small_parameters(kind):
    # The Bessel values are scaled by a^k, so no coefficient underflows
    # against I_0 or J_0 however small a is.
    for a in (0.0, 1e-300, -1e-300):
        series = gegenbauer.plane_wave_series(kind, a, 0)
        # e^{at} drops c_1 = 3 I_3(2a) / a^2 = a/2 + ..., times f_1(2) = 4.
        assert series.coefficients.tolist() == [1.0]
        assert series.tail_bound == pytest.approx(2.0 * abs(a) if kind == "exp" else 0.0,
                                                  rel=1e-11, abs=0.0)
    assert gegenbauer.plane_wave_series(kind, 0.0, 2).coefficients.tolist() == [1.0] + [0.0] * 8
    # c_0 = 2 I_2(2a) / a^2 = 1 + a^2/3 + ...
    a = 1e-10
    got = gegenbauer.plane_wave_series(kind, a, 0).coefficients
    assert np.abs(got - _plane_wave_reference(kind, a, len(got))).max() <= 1e-16
    assert len(got) == (2 if kind == "exp" else 1)


def test_plane_wave_negative_parameter():
    for a in (0.4, 2.75, 30.0):
        up, down = (gegenbauer.plane_wave_series("exp", x, 4).coefficients for x in (a, -a))
        assert down.tolist() == [(-1) ** n * v for n, v in enumerate(up)]
        assert (gegenbauer.plane_wave_series("cos", -a, 4).coefficients.tolist()
                == gegenbauer.plane_wave_series("cos", a, 4).coefficients.tolist())


# The two differences of the connection cancel like sigma^2: the measured
# worst coefficient is 1.4e-18, 4.6e-16, 1.4e-15, 2.4e-15 and 1.7e-15 of the
# largest at these types.
def test_gauss_coefficients_against_mpmath():
    for sigma in (0.25, 1.0, 2.0, 3.198, 3.2):
        got = gegenbauer.plane_wave_series("gauss", sigma, 3).coefficients
        want = _plane_wave_reference("gauss", sigma, len(got))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), sigma


def _cut_length(coefficients, depth):
    """The length plane_wave_series's docstring states, term by term: one
    past the last index with a coefficient of at least 2^-60 of the largest,
    or with a term above 2^-60 of the largest in alpha_depth, whose weight
    at n = 2m is (m+2g+1)! / (m-2g)! (m+1)^{2g-1}, g = depth, up to a
    constant; and at least 4 depth + 1."""
    size = np.abs(coefficients)
    last = max(n for n in range(len(size)) if size[n] >= 2.0 ** -60 * size.max())
    g = depth
    reads = {n: math.log(size[n]) + math.lgamma(n / 2 + 2 * g + 2) - math.lgamma(n / 2 - 2 * g + 1)
             + (2 * g - 1) * math.log(n / 2 + 1) for n in range(4 * g, len(size), 2) if size[n]}
    if reads:
        most = max(reads.values())
        last = max(last, max(n for n, r in reads.items() if r > most - 60 * math.log(2)))
    return max(last, 4 * depth) + 1


@pytest.mark.parametrize("kind,a", [("exp", 1.0), ("exp", 30.0), ("cos", 2.5), ("cos", 40.0),
                                    ("gauss", 0.5), ("gauss", 3.2)])
def test_plane_wave_length_and_tail(kind, a):
    """L is the cut of ``_cut_length`` on the exact series: every coefficient
    past it is below 2^-60 of the largest; tail_bound covers
    sum_{n >= L} |c_n| f_n(2) of the exact series."""
    size = np.abs(gegenbauer.plane_wave_series(kind, a, 0).coefficients)
    assert size[-1] >= 2.0 ** -60 * size.max()
    for depth in (0, 1, 5, 12):
        series = gegenbauer.plane_wave_series(kind, a, depth)
        length = len(series.coefficients)
        exact = _plane_wave_reference(kind, a, length + 200)
        assert length == _cut_length(exact, depth)
        n = np.arange(length, length + 200)
        dropped = np.abs(exact[length:])
        assert (dropped < 2.0 ** -60 * size.max()).all()
        total = float(np.sum(dropped * (n + 1.0) * (n + 2.0) * (n + 3.0) / 6.0))
        assert total <= series.tail_bound <= 1.01 * total
    # f_n(2) = (n+1)(n+2)(n+3)/6 is the largest |f_n| on [-2, 2].
    t = np.linspace(-2.0, 2.0, 401)
    m = np.arange(40.0)
    assert np.abs(gegenbauer.basis_values(39, t)).max(axis=1).tolist() == \
        ((m + 1) * (m + 2) * (m + 3) / 6.0).tolist()


# The deep alphas against the exact genus-count sums.  Measured: exp:8 to
# depth 12 is 7.9e-16 off (a Taylor cut at degree 80 was 1.5e-8 off);
# cos:10 to depth 6 is 1.4e-10 off at alpha_5 = 4.6e4, a sum that cancels
# (correctly rounded coefficients give 1.6e-11 there).
@pytest.mark.parametrize("kind,a,depth,tol", [("exp", 8.0, 12, 2e-15), ("cos", 10.0, 6, 5e-10)])
def test_plane_wave_alphas_are_the_1_over_n_expansion(kind, a, depth, tol):
    alphas = operators.correction_functionals(gegenbauer.plane_wave_series(kind, a, depth), depth)
    want = laplace.laplace_expansion(a if kind == "exp" else 1j * a, 2 * depth)[::2].real
    assert np.max(np.abs(alphas - want) / np.abs(want)) <= tol


def test_plane_wave_refusals():
    # The largest coefficient passes the double range at a = 361.4911305129...
    # (mpmath agrees); e^{2a} itself overflows from a = 354.9.
    assert np.isfinite(gegenbauer.plane_wave_series("exp", -361.49113, 2).coefficients).all()
    for a in (361.49114, -800.0, 1e200):
        with pytest.raises(ValueError, match="exp parameter .*double range"):
            gegenbauer.plane_wave_series("exp", a, 2)
    # J_k(2a) is not small below k = 2a: the length is refused before any work.
    for a, depth in ((1e10, 3), (1.0, 200), (300.0, 3)):
        with pytest.raises(ValueError, match=f"cos parameter {a!r} at depth {depth} needs"):
            gegenbauer.plane_wave_series("cos", a, depth)
    for a in (math.nan, math.inf):
        with pytest.raises(ValueError, match="cos parameter must be finite"):
            gegenbauer.plane_wave_series("cos", a, 2)
    # A gauss type past the cap, or negative, is refused before any work.
    for a in (3.2000000000000006, 50.0, -0.1, math.inf):
        with pytest.raises(ValueError, match="gauss parameter"):
            gegenbauer.plane_wave_series("gauss", a, 2)
    with pytest.raises(ValueError, match="kind"):
        gegenbauer.plane_wave_series("sin", 1.0, 2)


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
