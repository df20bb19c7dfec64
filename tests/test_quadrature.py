"""Quadrature tests: exactness degrees, frozen moments, adaptive integrator."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from guespec import cli, hermite, quadrature, verify

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
    """Exact M_0, M_2, ... M_{2k} <= degree of p_n, from
    (k+2) M_{2k+2} = (4k+2) M_{2k} + k(4k^2-1) N^{-2} M_{2k-2}."""
    moments = [Fraction(1), Fraction(1)]
    for k in range(1, degree // 2):
        moments.append(((4 * k + 2) * moments[k]
                        + Fraction(k * (4 * k * k - 1), n * n) * moments[k - 1]) / (k + 2))
    return moments[:degree // 2 + 1]


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
    """gaussian_rule(256, 300) is the frame-sum rule bit for bit, and
    density_rule(256, ...) gives the exact moments: the
    overflow refusal of the public Christoffel sum does not reach them."""
    rule = quadrature.gaussian_rule(256, 300)
    h = hermite.normalized_hermite(256, 299, rule.nodes)
    assert np.array_equal(rule.weights, 1.0 / (h ** 2).sum(axis=0))
    assert float(rule.weights.sum()) == pytest.approx(math.sqrt(2 * math.pi / 256), rel=1e-13)
    for p, want in [(0, 1.0), (2, 1.0), (4, 2.0 + 1.0 / 256 ** 2), (6, 5.0 + 10.0 / 256 ** 2)]:
        got = quadrature.density_rule(256, p).integrate(lambda t: t ** p)
        assert got == pytest.approx(want, rel=1e-13)


def test_gaussian_rule_weights_below_the_double_range_are_zero():
    # From 370 nodes on, the outermost Christoffel sums pass the double range
    # (inf, or nan once inf - inf appears in the recurrence); the true weights
    # there lie below it.
    for count in (400, 1000):
        rule = quadrature.gaussian_rule(256, count)
        assert np.all(np.isfinite(rule.weights)) and np.any(rule.weights == 0.0)
        assert float(rule.weights.sum()) == pytest.approx(math.sqrt(2 * math.pi / 256), rel=1e-13)
    # degree 300 needs 406 nodes, some with zero weight
    assert quadrature.density_rule(256, 300).integrate(lambda t: t ** 2) == \
        pytest.approx(1.0, rel=1e-13)


def stack_integrate_line(f, scale=1.0, tol=1e-10):
    """Reference: the depth-first form of integrate_line, one 15-point
    panel per integrand call, popping the rightmost pending interval.  It
    reads the same module limits, so a test that patches one patches both."""
    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * (quadrature._GL_WEIGHTS * f(mid + half * quadrature._GL_NODES)).sum()

    width = 4.0 * scale
    for _ in range(quadrature._MAX_DOUBLINGS):
        edges = np.array([-width, width])
        tail = float(np.max(np.abs(f(edges)))) * scale * scale / (2.0 * width)
        if tail < tol / 4.0:
            break
        width *= 2.0
    else:
        raise quadrature.QuadratureError("window widening budget exhausted")
    a, b = -width, width
    seeds = np.linspace(a, b, 17)
    stack = [(lo, hi, panel(lo, hi), 0) for lo, hi in zip(seeds[:-1], seeds[1:])]
    size = max(1.0, abs(complex(np.array([whole for _, _, whole, _ in stack]).sum())))
    total = 0.0
    defect = 0.0
    panels = 0
    while stack:
        lo, hi, whole, depth = stack.pop()
        panels += 2
        if panels > quadrature._PANEL_BUDGET:
            raise quadrature.QuadratureError(f"panel budget {quadrature._PANEL_BUDGET} exhausted")
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        err = abs(left + right - whole)
        if err <= tol * size * (hi - lo) / (b - a) or depth >= quadrature._MAX_DEPTH:
            total = total + left + right
            defect += err
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    value = complex(total)
    if value.imag == 0.0:
        value = value.real
    return quadrature.LineIntegral(value, defect + tail, panels, (a, b))


def captured_integral(monkeypatch, call):
    """The (f, keyword arguments) that call passes to integrate_line."""
    seen = []
    real = quadrature.integrate_line

    def spy(f, **kwargs):
        seen.append((f, kwargs))
        return real(f, **kwargs)
    monkeypatch.setattr(quadrature, "integrate_line", spy)
    call()
    monkeypatch.undo()
    (f, kwargs), = seen
    return f, kwargs


def pair_transform(n, s, offset):
    return lambda: verify.kernel_pair_transform(n, s, offset)


def narrow_peak(t):
    return np.exp(-(t - 3.0) ** 2 * 40.0)


def direct(f, max_depth=quadrature._MAX_DEPTH, **kwargs):
    """A call of integrate_line(f, **kwargs) with the bisection depth capped
    at max_depth."""
    def call():
        quadrature.integrate_line(f, **kwargs)
    call.max_depth = max_depth
    return call


def gauss_integral(n, sig):
    """int e^{sig t^2} p_N(t) dt on a window scaled to the Gaussian decay."""
    return direct(lambda t: np.exp(sig * t * t) * hermite.density(n, t),
                  scale=math.sqrt(1.0 / max(n / 2.0 - sig, 0.25)), tol=1e-11)


@pytest.mark.parametrize("call", [
    gauss_integral(4, 0.3),
    gauss_integral(16, 0.05),
    gauss_integral(16, 1.5),
    pair_transform(5, 0.5, 0.0),
    pair_transform(5, 2j, 0.0),
    pair_transform(10, -1.0, 0.3),
    pair_transform(10, 1.0 + 1.0j, 0.3),
    pair_transform(64, 3.0, 0.0),
    pair_transform(256, 3.0, 0.0),
    direct(narrow_peak, scale=2.0),
    direct(narrow_peak, max_depth=1, scale=2.0),
    direct(lambda t: np.exp(2j * t) * np.exp(-t * t / 2)),
], ids=["gauss-4", "gauss-16", "gauss-16-wide", "pair-real", "pair-imag", "pair-offset",
        "pair-offset-complex", "pair-64", "pair-256", "narrow", "narrow-shallow", "oscillating"])
def test_integrate_line_is_bitwise_the_stack_algorithm(monkeypatch, call):
    f, kwargs = captured_integral(monkeypatch, call)
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", getattr(call, "max_depth", quadrature._MAX_DEPTH))
    got = quadrature.integrate_line(f, **kwargs)
    want = stack_integrate_line(f, **kwargs)
    assert type(got.value) is type(want.value)
    assert repr(got.value) == repr(want.value)
    assert repr(float(got.error_bound)) == repr(float(want.error_bound))
    assert got.panels == want.panels
    assert got.interval == want.interval


def test_integrate_line_calls_the_integrand_once_per_level(monkeypatch):
    f, kwargs = captured_integral(monkeypatch, gauss_integral(16, 1.5))
    sizes = []

    def counting(t):
        sizes.append(t.size)
        return f(t)
    res = quadrature.integrate_line(counting, **kwargs)
    # The window edges take 2 points per call; every other call is a
    # whole bisection level (the 16 seed panels are level 0).
    levels = [size for size in sizes if size != 2]
    assert sum(levels) == 15 * (16 + res.panels)
    assert len(sizes) <= 10 < 16 + res.panels


@pytest.mark.parametrize("short", [0, 1, 2, 3])
def test_integrate_line_refuses_where_the_stack_algorithm_does(monkeypatch, short):
    budget = quadrature.integrate_line(narrow_peak, scale=2.0).panels - short
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", budget)
    outcomes = []
    for integrate in (quadrature.integrate_line, stack_integrate_line):
        try:
            outcomes.append(integrate(narrow_peak, scale=2.0).panels)
        except quadrature.QuadratureError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (budget if short == 0 else f"panel budget {budget} exhausted")


# int e^{3t} K_256(t, t) dt is about 5.2e3: a tolerance of 1e-16 relative to
# it lies below the rounding noise of the panel sums, so bisection never ends.
UNREACHABLE_TOL = 1e-16


@pytest.mark.parametrize("budget", [10, 100, 1000])
def test_integrate_line_evaluates_nothing_past_the_budget(monkeypatch, budget):
    monkeypatch.setattr(quadrature, "_PANEL_BUDGET", budget)
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.exp(3.0 * t) * hermite.kernel_diag(256, t)
    with pytest.raises(quadrature.QuadratureError, match=f"^panel budget {budget} exhausted$"):
        quadrature.integrate_line(f, tol=UNREACHABLE_TOL)
    # Beyond the 2-point window edges: the 16 seed panels and whole levels
    # that fit in the budget.
    assert sum(size for size in sizes if size != 2) <= 15 * (16 + budget)


def test_integrate_line_memory_is_bounded_by_its_chunks():
    """A call that runs out of panels at the default budget of 40000
    holds one chunk of node values at a time, not a whole level."""
    def f(t):
        return np.exp(3.0 * t) * hermite.kernel_diag(256, t)
    tracemalloc.start()
    try:
        with pytest.raises(quadrature.QuadratureError, match="panel budget 40000 exhausted"):
            quadrature.integrate_line(f, tol=UNREACHABLE_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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


# Measured relative gaps: at most 6e-15 up to N=64, 6.5e-14 at N=256.
@pytest.mark.parametrize("n,sig", [(4, 0.3), (16, 0.05), (16, 1.5), (64, 10.0), (256, 3.0)])
def test_gauss_reference_matches_the_moment_series(n, sig):
    got = cli.reference_integral(cli.parse_function_spec(f"gauss:{sig}"), n)
    assert got == pytest.approx(gauss_series(n, sig), rel=2e-13)
