"""Quadrature tests: exactness degrees, frozen moments, adaptive integrator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from guespec import cli, hermite, laplace, quadrature, verify

CATALAN = [1, 1, 2, 5, 14]  # C_0..C_4


def semicircle_moment(p):
    """int t^p sqrt(4-t^2)/(2 pi) dt = Catalan(p/2) for even p, else 0."""
    if p % 2:
        return 0.0
    return float(CATALAN[p // 2])


@pytest.mark.parametrize("count", [1, 2, 3, 6, 10])
def test_semicircle_rule_exactness(count):
    rule = quadrature.semicircle_rule(count)
    for p in range(0, min(2 * count - 1, 8) + 1):
        got = rule.integrate(lambda t: t ** p) / (2.0 * math.pi)
        assert got == pytest.approx(semicircle_moment(p), abs=5e-14)


def test_semicircle_rule_mass():
    # int sqrt(4-t^2) dt = 2 pi
    rule = quadrature.semicircle_rule(4)
    assert rule.integrate(lambda t: np.ones_like(t)) == pytest.approx(2 * math.pi, rel=1e-14)


def test_semicircle_not_exact_past_degree():
    """Degree 2*count is the first degree the rule misses; check it really does."""
    rule = quadrature.semicircle_rule(2)  # exact through degree 3
    got = rule.integrate(lambda t: t ** 4) / (2.0 * math.pi)
    assert abs(got - 2.0) > 1e-3


def test_gegenbauer2_weight_mass():
    # int (4 - t^2)^{3/2} dt = 6 pi: one factor 4 - t^2 over the semicircle rule
    got = quadrature.semicircle_rule(4).integrate(lambda t: 4.0 - t * t)
    assert float(got) == pytest.approx(6.0 * math.pi, rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_gaussian_rule_total_mass(n):
    # int exp(-n t^2/2) dt = sqrt(2 pi / n)
    rule = quadrature.gaussian_rule(n, 5)
    got = rule.integrate(lambda t: np.ones_like(t))
    assert float(got) == pytest.approx(math.sqrt(2 * math.pi / n), rel=1e-13)


def test_gaussian_rule_gaussian_moments():
    # moments of N(0, 1/n): odd vanish, even are (p-1)!! n^{-p/2}
    n, count = 3, 8
    rule = quadrature.gaussian_rule(n, count)
    norm = math.sqrt(2 * math.pi / n)
    for p, want in [(1, 0.0), (2, 1 / n), (3, 0.0), (4, 3 / n ** 2), (6, 15 / n ** 3)]:
        got = rule.integrate(lambda t: t ** p) / norm
        assert float(got) == pytest.approx(want, abs=1e-14)


def test_gaussian_rule_single_node():
    rule = quadrature.gaussian_rule(2, 1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.integrate(lambda t: np.ones_like(t)) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gaussian_nodes_symmetric():
    rule = quadrature.gaussian_rule(4, 9)
    assert np.allclose(rule.nodes + rule.nodes[::-1], 0.0, atol=1e-13)
    assert np.allclose(rule.weights - rule.weights[::-1], 0.0, atol=1e-15)


@pytest.mark.parametrize("n,p,want", [
    (1, 2, 1.0),        # N(0,1) second moment
    (2, 2, 1.0),        # GUE m_2 = 1 for every N
    (2, 4, 2.25),       # m_4 = 2 + 1/N^2
    (3, 4, 2.0 + 1.0 / 9.0),
    (4, 6, 5.0 + 10.0 / 16.0),
])
def test_density_polynomial_integral_frozen_moments(n, p, want):
    got = quadrature.density_rule(n, p).integrate(lambda t: t ** p)
    assert got == pytest.approx(want, rel=1e-13)


def test_density_polynomial_integral_mass():
    for n in (1, 2, 5, 12):
        got = quadrature.density_rule(n, 0).integrate(lambda t: np.ones_like(t))
        assert got == pytest.approx(1.0, abs=1e-13)


def harer_zagier_moments(n, degree):
    """Exact M_0, M_2, ... M_{2k} <= degree of p_n, from the package's
    Harer-Zagier recursion (``laplace._even_moments``, checked there)."""
    return [Fraction(m, n ** k) for k, m in enumerate(laplace._even_moments(n, degree // 2))]


@pytest.mark.parametrize("n,degree", [(1, 230), (2, 250), (8, 300), (64, 300), (256, 300)])
def test_density_rule_against_exact_moments(n, degree):
    """One rule, built for the top degree, gives every moment below it:
    even ones to 1e-12 relative, odd ones within 1e-13 of the next even one."""
    rule = quadrature.density_rule(n, degree)
    exact = harer_zagier_moments(n, degree + 1)
    for p in range(degree + 1):
        got = float(rule.integrate(lambda t: t ** p))
        if p % 2 == 0:
            want = float(exact[p // 2])
            assert abs(got - want) <= 1e-12 * want, p
        else:
            assert abs(got) <= 1e-13 * float(exact[(p + 1) // 2]), p


def test_integrate_line_gaussian():
    res = quadrature.integrate_line(lambda t: np.exp(-t * t))
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert res.error_bound < 1e-8
    assert res.interval[0] < -3 and res.interval[1] > 3


def test_integrate_line_error_bound_honest():
    """The reported bound must dominate the true error on a family of
    shifted/scaled Gaussian-times-polynomial integrands with known values."""
    rng = np.random.default_rng(424242)
    for _ in range(50):
        mu = rng.uniform(-2, 2)
        s = rng.uniform(0.4, 2.0)
        c = rng.uniform(-3, 3, size=3)
        # int (c0 + c1 u + c2 u^2) exp(-(u-mu)^2/(2 s^2)) du, shifted by
        # u = t + mu so that the window centred at 0 sits on the peak
        norm = s * math.sqrt(2 * math.pi)
        exact = norm * (c[0] + c[1] * mu + c[2] * (mu * mu + s * s))

        def f(t):
            u = t + mu
            return (c[0] + c[1] * u + c[2] * u * u) * np.exp(-t * t / (2 * s * s))
        res = quadrature.integrate_line(f, scale=s, tol=1e-10)
        assert abs(res.value - exact) <= max(res.error_bound, 4e-13 * max(1.0, abs(exact)))


def test_integrate_line_complex_transparent():
    res = quadrature.integrate_line(lambda t: np.exp(2j * t) * np.exp(-t * t / 2))
    want = math.sqrt(2 * math.pi) * math.exp(-2.0)  # characteristic function of N(0,1) at 2
    assert isinstance(res.value, complex)
    assert res.value.real == pytest.approx(want, rel=1e-10)
    assert abs(res.value.imag) < 1e-12


def test_integrate_line_oscillatory_narrow_feature():
    # peak far from the seed grid center; adaptivity must find it
    res = quadrature.integrate_line(lambda t: np.exp(-(t - 3.0) ** 2 * 40.0), scale=2.0)
    assert res.value == pytest.approx(math.sqrt(math.pi / 40.0), rel=1e-9)


def test_integrate_line_budget_errors(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DOUBLINGS", 5)
    with pytest.raises(quadrature.QuadratureError, match="5 doublings"):
        # constant integrand never decays; widening must give up
        quadrature.integrate_line(lambda t: np.ones_like(t))
    with pytest.raises(ValueError):
        quadrature.integrate_line(lambda t: t, scale=-1.0)


def test_line_integral_density_masses():
    for n in (1, 3, 10):
        res = quadrature.integrate_line(lambda t, n=n: hermite.density(n, t), tol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-11)


def test_rule_argument_validation():
    with pytest.raises(ValueError):
        quadrature.semicircle_rule(0)
    with pytest.raises(ValueError):
        quadrature.gaussian_rule(2, 0)
    with pytest.raises(ValueError):
        quadrature.density_rule(2, -1)


def test_gaussian_rule_at_the_largest_size_keeps_its_weights():
    """gaussian_rule(256, 300) is the frame-sum rule bit for bit (no node
    is lifted: n t^2 / 4 <= 700), and density_rule(256, ...) gives the
    exact moments."""
    rule = quadrature.gaussian_rule(256, 300)
    psi, _ = hermite.weighted_frame(256, 299, rule.nodes)
    weight = np.exp(-256 * rule.nodes * rule.nodes / 2.0)
    assert np.array_equal(rule.weights, weight / (psi ** 2).sum(axis=0))
    assert float(rule.weights.sum()) == pytest.approx(math.sqrt(2 * math.pi / 256), rel=1e-13)
    for p, want in [(0, 1.0), (2, 1.0), (4, 2.0 + 1.0 / 256 ** 2), (6, 5.0 + 10.0 / 256 ** 2)]:
        got = quadrature.density_rule(256, p).integrate(lambda t: t ** p)
        assert got == pytest.approx(want, rel=1e-13)


def test_gaussian_rule_weights_below_the_double_range_are_zero():
    # At 400 nodes and more, the outermost true weights lie below the double
    # range (e^{-n t^2/2} < 1e-323 from n t^2/2 ~ 745 on) and come out 0.0;
    # no weight is inf or nan, at the 1050 nodes of the kernel transform's
    # node ladder or past 1100, where the outermost lifted starts underflow.
    # Worst mass error over every count up to 1050: 1.6e-15 relative, at 846.
    for n in (1, 256):
        for count in (400, 846, 1000, 1050, 1500):
            rule = quadrature.gaussian_rule(n, count)
            assert np.all(np.isfinite(rule.weights)) and np.any(rule.weights == 0.0)
            assert float(rule.weights.sum()) == pytest.approx(math.sqrt(2 * math.pi / n),
                                                              rel=2e-15)
    # degree 300 needs 406 nodes, some with zero weight
    assert quadrature.density_rule(256, 300).integrate(lambda t: t ** 2) == \
        pytest.approx(1.0, rel=1e-13)


def narrow_peak(t):
    return np.exp(-(t - 3.0) ** 2 * 40.0)


def gauss_integrand(n, sig):
    """e^{sig t^2} p_N(t), with the scale and tolerance of the gauss reference
    that integrated it.  p_N is the Christoffel square sum K_N(t, t) / N, the
    bits ``hermite.density`` had when the reprs below were pinned."""
    return (lambda t: np.exp(sig * t * t) * hermite.kernel_diag(n, t) / n,
            {"scale": math.sqrt(1.0 / max(n / 2.0 - sig, 0.25)), "tol": 1e-11})


def pair_integrand(n, s, offset):
    """e^{s lam} K_n(lam + offset, lam - offset), the off-diagonal kernel as a
    divided difference of the top rows: the integrand the kernel transform
    check integrated before its Gauss sums."""
    if offset == 0.0:
        return lambda lam: np.exp(s * lam) * hermite.kernel_diag(n, lam), {}

    def integrand(lam):
        psi, _ = hermite.weighted_frame(n, n, np.stack([lam + offset, lam - offset]))
        low, high = psi[n - 1:]
        return np.exp(s * lam) * (high[0] * low[1] - low[0] * high[1]) / (2.0 * offset)
    return integrand, {}


# The results of the level-batched bisection, which summed its accepted
# panels in position order to give the depth-first bisection's bits:
# (value, error_bound, panels, window) as repr.
@pytest.mark.parametrize("case,max_depth,want", [
    (gauss_integrand(4, 0.3), quadrature._MAX_DEPTH,
     ("1.426158804397813", "3.634991493318383e-16", 32, 6.135719910778963)),
    (gauss_integrand(16, 0.05), quadrature._MAX_DEPTH,
     ("1.0526136972044735", "2.2593773563850808e-12", 32, 2.8373076085276345)),
    (gauss_integrand(16, 1.5), quadrature._MAX_DEPTH,
     ("19.638533445388227", "5.437485531279714e-12", 32, 6.275716324421889)),
    (pair_integrand(5, 0.5, 0.0), quadrature._MAX_DEPTH,
     ("5.652156672555971", "5.405344583554071e-12", 32, 4.0)),
    (pair_integrand(5, 2j, 0.0), quadrature._MAX_DEPTH,
     ("(-0.14049908164891037-1.8371681901111112e-16j)", "7.322213708666437e-13", 32, 4.0)),
    (pair_integrand(10, -1.0, 0.3), quadrature._MAX_DEPTH,
     ("-1.1735832989986719", "8.349022871521793e-16", 32, 4.0)),
    (pair_integrand(10, 1.0 + 1.0j, 0.3), quadrature._MAX_DEPTH,
     ("(-1.0181537954512376-0.5827052547117783j)", "1.395919690060263e-15", 32, 4.0)),
    (pair_integrand(64, 3.0, 0.0), quadrature._MAX_DEPTH,
     ("1309.1763607683054", "5.136060343871282e-09", 80, 4.0)),
    (pair_integrand(256, 3.0, 0.0), quadrature._MAX_DEPTH,
     ("5234.649011329951", "3.3836356059038786e-08", 276, 4.0)),
    ((narrow_peak, {"scale": 2.0}), quadrature._MAX_DEPTH,
     ("0.2802495608198964", "2.7763840953310867e-17", 40, 8.0)),
    ((narrow_peak, {"scale": 2.0}), 1,
     ("0.2802495608198964", "2.7763840953310867e-17", 40, 8.0)),
    ((lambda t: np.exp(2j * t) * np.exp(-t * t / 2), {}), quadrature._MAX_DEPTH,
     ("(0.33923524751609097+4.158771769327326e-18j)", "1.1059771828100355e-15", 32, 8.0)),
], ids=["gauss-4", "gauss-16", "gauss-16-wide", "pair-real", "pair-imag", "pair-offset",
        "pair-offset-complex", "pair-64", "pair-256", "narrow", "narrow-shallow", "oscillating"])
def test_integrate_line_is_bitwise_the_stack_algorithm(monkeypatch, case, max_depth, want):
    (f, kwargs), (value, bound, panels, half_width) = case, want
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", max_depth)
    got = quadrature.integrate_line(f, **kwargs)
    assert (repr(got.value), repr(float(got.error_bound)), got.panels, got.interval) == \
        (value, bound, panels, (-half_width, half_width))


@pytest.mark.parametrize("short", [0, 1, 2, 3])
def test_integrate_line_refuses_where_the_stack_algorithm_does(monkeypatch, short):
    """The narrow peak takes 40 panels: a budget below that refuses."""
    budget = 40 - short
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", budget)
    try:
        outcome = quadrature.integrate_line(narrow_peak, scale=2.0).panels
    except quadrature.QuadratureError as exc:
        outcome = str(exc)
    assert outcome == (budget if short == 0 else f"panel budget {budget} exhausted")


@pytest.mark.parametrize("budget", [10, 100, 1000])
def test_integrate_line_evaluates_nothing_past_the_budget(monkeypatch, budget):
    """int e^{3t - t^2} dt is about 16.7: its panels' rounding noise stays
    above a tolerance of 1e-16 relative to it, so bisection never ends."""
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", budget)
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.exp(3.0 * t - t * t)
    with pytest.raises(quadrature.QuadratureError, match=f"^panel budget {budget} exhausted$"):
        quadrature.integrate_line(f, tol=1e-16)
    # Beyond the 2-point window edges: the 16 seed panels and the panels
    # that fit in the budget, one 15-point panel per call.
    panels = [size for size in sizes if size != 2]
    assert set(panels) == {15} and len(panels) <= 16 + budget


@pytest.mark.parametrize("n,a,b,panels", [(4, 2.5, 10.5, 64), (16, 3.0, 11.0, 64),
                                          (8, -0.125, 0.0, 2)])
def test_verify_interval_sum_is_bitwise_the_per_panel_loop(n, a, b, panels):
    """The verify suites' fixed-panel integral against one 15-point
    Gauss-Legendre panel at a time, added left to right."""
    nodes, weights = np.polynomial.legendre.leggauss(15)
    edges = np.linspace(a, b, panels + 1)
    want = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        want += half * (weights * hermite.density(n, mid + half * nodes)).sum()
    got = verify._integrate_interval(lambda x: hermite.density(n, x), a, b, panels)
    assert repr(got) == repr(float(want))
    # Array ends: every interval from one call of f, each with the bits of
    # its scalar call, in the shape of the broadcast ends.
    calls = []
    lows = np.array([[a], [a - 1.0], [0.5 * (a + b)]])
    highs = np.array([b, b + 0.25])
    got = verify._integrate_interval(lambda x: calls.append(x) or hermite.density(n, x),
                                     lows, highs, panels)
    assert got.shape == (3, 2) and len(calls) == 1
    want = [[repr(verify._integrate_interval(lambda x: hermite.density(n, x), lo, hi, panels))
             for hi in highs.tolist()] for lo in lows.ravel().tolist()]
    assert [[repr(v) for v in r] for r in got.tolist()] == want


@pytest.mark.parametrize("sig", [0.0, 0.3, 0.999])
def test_gauss_reference_is_exact_at_small_sizes(sig):
    """int e^{sig t^2} p_N dt in closed form: (1 - 2 sig)^(-1/2) at N=1 and
    (b^(-1/2) + b^(-3/2)) / 2, b = 1 - sig, at N=2."""
    spec = cli.parse_function_spec(f"gauss:{sig}")
    if sig < 0.5:
        assert cli.reference_integral(spec, 1) == pytest.approx((1 - 2 * sig) ** -0.5, rel=1e-14)
    b = 1.0 - sig
    assert cli.reference_integral(spec, 2) == pytest.approx((b ** -0.5 + b ** -1.5) / 2,
                                                            rel=1e-13)


def gauss_series(n, sig):
    """sum_j sig^j m_{2j} / j! in rationals, with the exact even moments of
    p_N from the Harer-Zagier recursion of ``harer_zagier_moments``."""
    sig = Fraction(sig)
    moments = harer_zagier_moments(n, 2)
    total, term, j = Fraction(1), Fraction(1), 0
    while abs(term) > Fraction(1, 10 ** 20) * total:
        j += 1
        if j >= len(moments):
            moments = harer_zagier_moments(n, 4 * j)
        term = sig ** j * moments[j] / math.factorial(j)
        total += term
    return float(total)


# Measured relative gaps: at most 1.6e-15 (N=64, sigma=10; the Gauss rule
# this reference replaced: 6e-15 up to N=64, 6.5e-14 at N=256).
@pytest.mark.parametrize("n,sig", [(4, 0.3), (16, 0.05), (16, 1.5), (64, 10.0), (256, 3.0)])
def test_gauss_reference_matches_the_moment_series(n, sig):
    got = cli.reference_integral(cli.parse_function_spec(f"gauss:{sig}"), n)
    assert got == pytest.approx(gauss_series(n, sig), rel=2e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 255, 256])
@pytest.mark.parametrize("degree", [0, 2, 8, 40])
def test_density_rule_is_the_two_pass_construction_bitwise(n, degree):
    """One recurrence pass gives both Christoffel sums: the rule's weights
    are K_N(t, t) / (n W_{count-1}(t)), each sum from its own pass, bit for
    bit."""
    rule = quadrature.density_rule(n, degree)
    count = (degree + 2 * (n - 1)) // 2 + 1
    nodes = quadrature.gauss_nodes(n, count)
    weights = hermite.kernel_diag(n, nodes) / (n * hermite.square_sums(n, count - 1, nodes))
    assert rule.nodes.tobytes() == nodes.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()


# Degrees where a ratio of unweighted Christoffel sums loses accuracy
# (3.3e-13 at 330, 8.9e-10 at 400) and overflows (from 426 on).  Measured
# worst even moment, relative: 5.5e-14, 4.7e-14, 1.3e-13, 7.6e-14, 5.1e-14.
@pytest.mark.parametrize("degree", [330, 400, 426, 500, 600])
def test_density_rule_past_the_unweighted_range_gives_the_exact_moments(degree):
    """Every even moment whose t^p stays finite at the nodes is within
    2e-13 of the exact Harer-Zagier value."""
    rule = quadrature.density_rule(256, degree)
    assert np.isfinite(rule.weights).all()
    exact = harer_zagier_moments(256, degree)
    checked = 0
    with np.errstate(over="ignore"):
        for p in range(0, degree + 1, 2):
            powers = rule.nodes ** p
            if not np.isfinite(powers).all():
                continue
            want = float(exact[p // 2])
            assert abs(float((rule.weights * powers).sum()) - want) <= 2e-13 * want, p
            checked += 1
    assert checked > degree // 4
