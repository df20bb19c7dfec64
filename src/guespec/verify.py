"""Self-check suites behind the ``guespec verify`` command.

Each suite is a list of named checks with measured values in the detail
string, so a failing run says what was observed, not just that something
broke.  The suites deliberately cross routes: closed forms against
quadrature, coefficient-space operators against pointwise evaluation,
exact sampling statistics against Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gegenbauer, hermite, laplace, montecarlo, operators, quadrature


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _integrate_interval(f, a: float, b: float, panels: int = 16) -> float:
    """Integral over [a, b] by ``panels`` equal panels of ``integrate_line``'s rule."""
    edges = np.linspace(a, b, panels + 1)
    # Panel sums added left to right (cumsum adds in order, sum pairwise).
    return float(np.cumsum(quadrature._panels(f, edges[:-1], edges[1:]))[-1])


# ---------------------------------------------------------------- density

def suite_density() -> list[CheckResult]:
    out = []
    worst_mass = 0.0
    for n in range(1, 33):
        mass = quadrature.density_polynomial_integral(n, np.ones_like, 0)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    out.append(_check("unit mass, N=1..32", worst_mass < 1e-10,
                      f"max |mass-1| = {worst_mass:.3e} (tol 1e-10)"))

    worst_tail = -math.inf
    tail_ok = True
    for n in (4, 8, 16):
        for r in (0.5, 1.0):
            val = _integrate_interval(lambda x: hermite.density(n, x), 2.0 + r, 2.0 + r + 8.0, 64)
            bound = math.exp(-n * r * r / 2.0)
            tail_ok &= val <= bound
            worst_tail = max(worst_tail, val / bound)
    out.append(_check("upper tail below exp(-N r^2/2)", tail_ok,
                      f"max tail/bound = {worst_tail:.3e} over N in {{4,8,16}}, r in {{0.5,1}}"))

    grid = np.linspace(-12.0, 12.0, 601)
    worst_frame = 0.0
    for n in (1, 2, 4, 8, 16, 32):
        psi, _ = hermite.weighted_frame(n, n, grid)
        allowance = 1.1 if n <= 8 else 1.1 * (n / (2.0 * math.pi)) ** 0.25
        worst_frame = max(worst_frame, float(np.max(np.abs(psi))) / allowance)
    out.append(_check("weighted frame boundedness", worst_frame <= 1.0,
                      f"max |psi| / allowance = {worst_frame:.4f} "
                      "(allowance 1.1 up to N=8, scaled by (N/2pi)^(1/4) beyond)"))

    worst_slope = 0.0
    for n in (2, 5, 10, 32):
        for x in (-1.5, 0.0, 0.3, 1.9):
            diag = float(hermite.kernel_diag(n, x))
            for h in (1e-7, 1e-6):
                off = hermite.kernel(n, x, x + h, crossover=1e-9)
                worst_slope = max(worst_slope, abs(off - diag) / (h * 2 * n))
    out.append(_check("near-diagonal kernel continuity", worst_slope <= 1.0,
                      f"max |K(x,x+h)-K(x,x)| / (2N h) = {worst_slope:.3f} (calibrated C = 2N)"))

    worst_sym = 0.0
    for n in (2, 5, 10):
        for (x, y) in ((0.3, -0.3), (1.1, 0.2), (-1.7, 0.4)):
            worst_sym = max(worst_sym, abs(hermite.kernel(n, x, y) - hermite.kernel(n, y, x)))
    out.append(_check("kernel symmetry", worst_sym == 0.0,
                      f"max |K(x,y)-K(y,x)| = {worst_sym:.3e}"))
    return out


# -------------------------------------------------------------------- ode

def suite_ode() -> list[CheckResult]:
    out = []
    grid = np.linspace(-4.0, 4.0, 401)
    worst = 0.0
    worst_n = 0
    for n in range(1, 17):
        p0, p1, _, p3 = hermite.density_derivatives(n, grid)
        res = hermite.ode_residual(n, grid)
        scale = np.maximum(np.abs(p0), np.maximum(np.abs(p1), np.abs(p3) / (n * n)))
        scaled = float(np.max(np.abs(res) / np.maximum(scale, 1e-300)))
        if scaled > worst:
            worst, worst_n = scaled, n
    out.append(_check("density ODE residual, N=1..16", worst < 1e-7,
                      f"max scaled residual = {worst:.3e} at N={worst_n} "
                      "(401-point grid on [-4,4], tol 1e-7)"))

    def fd3(n: int, x: float, h: float) -> float:
        stencil = np.array([x - 2 * h, x - h, x + h, x + 2 * h])
        p = hermite.density(n, stencil)
        return float((-p[0] + 2 * p[1] - 2 * p[2] + p[3]) / (2 * h ** 3))

    fd_worst = 0.0
    step = 1e-3
    for (n, x) in ((6, 1.1), (3, -0.7), (10, 0.2)):
        # Richardson-extrapolated central difference: the h^2 truncation
        # term cancels, leaving O(h^4) truncation and ~1e-9 roundoff.
        extrap = (4.0 * fd3(n, x, step) - fd3(n, x, 2 * step)) / 3.0
        p3 = float(hermite.density_derivatives(n, np.array(x))[3])
        fd_worst = max(fd_worst, abs(extrap - p3) / max(1.0, abs(p3)))
    out.append(_check("analytic third derivative vs finite differences", fd_worst < 1e-6,
                      f"max rel deviation = {fd_worst:.3e} (tol 1e-6)"))
    return out


# ---------------------------------------------------------------- laplace

def kernel_pair_transform(n: int, s, offset: float) -> complex:
    """Numerical int e^{s lam} K_n(lam+offset, lam-offset) d lam.

    Independent of the closed form: the off-diagonal kernel is rebuilt from
    the top two rows of the weighted recurrence and integrated along the
    real line.
    """
    if offset == 0.0:
        def integrand(lam):
            return np.exp(s * lam) * hermite.kernel_diag(n, lam)
    else:
        def integrand(lam):
            x = lam + offset
            y = lam - offset
            (xlow, xhigh), _ = hermite._top_rows(n, x)
            (ylow, yhigh), _ = hermite._top_rows(n, y)
            return np.exp(s * lam) * (xhigh * ylow - xlow * yhigh) / (2.0 * offset)
    return quadrature.integrate_line(integrand).value


def suite_laplace() -> list[CheckResult]:
    out = []
    worst = 0.0
    worst_at = None
    for n in (1, 2, 5, 10):
        for s in (0.0, 0.5, -0.5, 1.0, 2j):
            for offset in (0.0, 0.3, 1.0):
                closed = laplace.kernel_laplace(n, s, offset)
                direct = kernel_pair_transform(n, s, offset)
                diff = abs(closed - direct)
                # two grid points are exact zeros of the closed form; there
                # the absolute deviation is the only meaningful measure
                err = diff / abs(closed) if closed != 0 else diff
                if err > worst:
                    worst, worst_at = err, (n, s, offset)
    out.append(_check("kernel transform closed form vs quadrature", worst < 1e-8,
                      f"max rel err = {worst:.3e} at (N, s, offset) = {worst_at} (tol 1e-8)"))

    pair_worst = 0.0
    for (n, s1, c1, c2) in ((4, 1.0, 0.5, math.sqrt(0.5)), (7, 0.8, 0.2, math.sqrt(0.1))):
        # pick s2 so that (s2, c2) shares the combination N c^2 - s^2/N
        diff = n * c1 ** 2 - s1 ** 2 / n
        s2 = math.sqrt(n * (n * c2 ** 2 - diff))
        a = laplace.kernel_laplace(n, s1, c1)
        b = laplace.kernel_laplace(n, s2, c2)
        pair_worst = max(pair_worst, abs(a - b) / max(1.0, abs(a)))
    out.append(_check("transform factors through N c^2 - s^2/N", pair_worst < 1e-13,
                      f"max matched-pair rel gap = {pair_worst:.3e}"))

    char_worst = 0.0
    for n in (1, 3, 8):
        for w in (0.0, 0.7, 2.0, 5.0):
            char_worst = max(char_worst, abs(laplace.density_laplace(n, 1j * w)) - 1.0)
    out.append(_check("characteristic function bounded by 1", char_worst <= 1e-12,
                      f"max |phi(w)| - 1 = {char_worst:.3e}"))

    coeffs = laplace.laplace_expansion(1.0, 8)
    odd = max(abs(coeffs[1]), abs(coeffs[3]), abs(coeffs[5]), abs(coeffs[7]))
    even_scale = max(abs(c) for c in coeffs[::2])
    out.append(_check("1/N expansion odd coefficients vanish", odd <= 1e-12 * even_scale,
                      f"max odd |c_l| = {odd:.3e} vs even scale {even_scale:.3e}"))

    partial_err = []
    for n in (8, 16, 32, 64):
        approx = sum(coeffs[l] / n ** l for l in range(7))
        partial_err.append(abs(laplace.density_laplace(n, 1.0) - approx))
    # The true truncation error is below double precision already at N = 8
    # (the slope itself needs extended precision; the test suite measures it).
    out.append(_check("seven-term 1/N expansion exact to machine precision",
                      max(partial_err) <= 1e-14,
                      f"errors over N=8,16,32,64: {[f'{e:.2e}' for e in partial_err]}"))
    return out


# ---------------------------------------------------------------- moments

def suite_moments() -> list[CheckResult]:
    out = []
    worst = 0.0
    finite_ok = True
    for p in range(13):
        mono = [0.0] * p + [1.0]
        a = gegenbauer.taylor_to_basis(mono)
        cutoff = math.ceil(p / 4)
        alphas = operators.correction_functionals(a, cutoff + 3)
        finite_ok &= all(v == 0.0 for v in alphas[cutoff + 1:])
        for n in (2, 4, 8):
            series_val = float(operators.resum_partial_sums(alphas, n)[-1])
            quad_val = quadrature.density_polynomial_integral(n, lambda t: t ** p, p)
            worst = max(worst, abs(series_val - quad_val) / max(1.0, abs(quad_val)))
    out.append(_check("monomial expansion terminates at ceil(p/4)", finite_ok,
                      "alpha_k exactly 0.0 past the cutoff for p <= 12"))
    out.append(_check("finite expansion equals quadrature moment", worst < 1e-9,
                      f"max rel gap = {worst:.3e} over p <= 12, N in {{2,4,8}} (tol 1e-9)"))

    worst4 = 0.0
    a4 = gegenbauer.taylor_to_basis([0.0, 0.0, 0.0, 0.0, 1.0])
    alphas = operators.correction_functionals(a4, 1)
    for n in (2, 3, 4, 8, 16, 32):
        val = float(operators.resum_partial_sums(alphas, n)[-1])
        worst4 = max(worst4, abs(val - (2.0 + 1.0 / n ** 2)))
    out.append(_check("fourth moment equals 2 + 1/N^2", worst4 < 1e-10,
                      f"max |gap| = {worst4:.3e} (tol 1e-10)"))
    return out


# -------------------------------------------------------------- operators

def suite_operators() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20260815)
    samples = np.linspace(-3.0, 3.0, 25)

    worst = 0.0
    for _ in range(10):
        poly = rng.uniform(-1.0, 1.0, size=13)
        a = gegenbauer.taylor_to_basis(poly)
        worst = max(worst, float(np.max(np.abs(operators.first_order_residual(a, samples)))))
    out.append(_check("first-order solve residual on random polynomials", worst < 1e-9,
                      f"max residual = {worst:.3e} over degree-12 inputs (tol 1e-9)"))

    t = np.linspace(-2.0, 2.0, 41)
    worst_eig = 0.0
    for order in range(41):
        eigenvalue = (order + 2) ** 2 - 4
        peak = float(np.max(np.abs(gegenbauer.basis_values(order, t)[order])))
        scale = max(1.0, abs(eigenvalue) * peak)
        worst_eig = max(worst_eig, operators.eigen_check(order, t) / scale)
    out.append(_check("basis eigen-relation residual, n <= 40", worst_eig < 1e-9,
                      f"max scaled residual = {worst_eig:.3e} (tol 1e-9)"))

    worst_step = 0.0
    for _ in range(10):
        poly = rng.uniform(-1.0, 1.0, size=11)
        a = gegenbauer.taylor_to_basis(poly)
        ta = operators.correction(a)
        t_poly = gegenbauer.basis_to_taylor(ta)
        for n in (3, 6):
            lhs = quadrature.density_polynomial_integral(
                n, lambda x: np.polynomial.polynomial.polyval(x, poly), 10)
            rhs = gegenbauer.semicircle_functional(a) + quadrature.density_polynomial_integral(
                n, lambda x: np.polynomial.polynomial.polyval(x, t_poly), 10) / n ** 2
            worst_step = max(worst_step, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out.append(_check("one-step correction identity via quadrature", worst_step < 1e-8,
                      f"max rel gap = {worst_step:.3e} at N in {{3,6}} (tol 1e-8)"))

    g = rng.uniform(-1.0, 1.0, size=24)
    h = rng.uniform(-1.0, 1.0, size=24)
    combined = operators.correction(2.5 * g - 1.25 * h)
    parts = 2.5 * operators.correction(g) - 1.25 * operators.correction(h)
    # The operator carries (n+2)^3-sized factors, so compare relative to the
    # output magnitude rather than to 1.
    lin_scale = max(1.0, float(np.max(np.abs(combined))))
    lin = float(np.max(np.abs(combined - parts))) / lin_scale
    out.append(_check("correction operator linearity", lin < 1e-13,
                      f"max scaled deviation = {lin:.3e} (tol 1e-13)"))
    return out


# ------------------------------------------------------------------ basis

def suite_basis() -> list[CheckResult]:
    out = []
    worst_off = 0.0
    worst_diag = 0.0
    for n in range(31):
        for m in range(n, 31):
            val = gegenbauer.normalization_check(n, m)
            if n == m:
                expected = 2.0 * math.pi * (n + 1) * (n + 3)
                worst_diag = max(worst_diag, abs(val - expected) / expected)
            else:
                worst_off = max(worst_off, abs(val))
    out.append(_check("weighted orthogonality, n,m <= 30",
                      worst_off < 1e-9 and worst_diag < 1e-10,
                      f"max off-diagonal = {worst_off:.3e} (tol 1e-9), "
                      f"max diagonal rel err = {worst_diag:.3e} (tol 1e-10)"))

    rng = np.random.default_rng(11)
    t = rng.uniform(-2.0, 2.0, size=50)
    f, df, _ = gegenbauer.basis_with_derivatives(31, t)
    worst_ladder = 0.0
    for n in range(1, 31):
        lhs = df[n + 1] - df[n - 1]
        rhs = (n + 2) * f[n]
        worst_ladder = max(worst_ladder, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    out.append(_check("derivative ladder, n <= 30", worst_ladder < 1e-11,
                      f"max rel residual = {worst_ladder:.3e} (tol 1e-11)"))

    grid = np.linspace(-2.0, 2.0, 37)
    worst_cheb = 0.0
    for order in range(31):
        res = gegenbauer.chebyshev_link_residual(order, grid)
        scale = max(1.0, float(np.max(np.abs(gegenbauer.basis_values(order, grid)[order]))) * (order + 2) / 2)
        worst_cheb = max(worst_cheb, float(np.max(np.abs(res))) / scale)
    out.append(_check("Chebyshev second-derivative link, n <= 30", worst_cheb < 1e-10,
                      f"max scaled residual = {worst_cheb:.3e} (tol 1e-10)"))

    worst_even = 0.0
    worst_odd = 0.0
    for n in range(61):
        rule = quadrature.semicircle_rule(n // 2 + 1)
        val = float(rule.integrate(lambda s: gegenbauer.basis_values(n, s)[n])) / (2.0 * math.pi)
        if n % 2 == 0:
            worst_even = max(worst_even, abs(val - 1.0))
        else:
            worst_odd = max(worst_odd, abs(val))
    out.append(_check("semicircle average of basis elements, n <= 60",
                      worst_even < 1e-12 and worst_odd < 1e-12,
                      f"max |even - 1| = {worst_even:.3e}, max |odd| = {worst_odd:.3e}"))

    rng2 = np.random.default_rng(11)
    ok_roundtrip = True
    for _ in range(5):
        poly = [Fraction(int(v), 4) for v in rng2.integers(-8, 9, size=31)]
        back = gegenbauer.basis_to_taylor(gegenbauer.taylor_to_basis(poly, exact=True), exact=True)
        ok_roundtrip &= back == poly
    out.append(_check("exact conversion round trip, degree 30", ok_roundtrip,
                      "taylor -> basis -> taylor is the identity in rationals"))

    # Values side of the same identity, with f_n from the recurrence rather
    # than the closed-form conversion sums.
    alpha = [Fraction(int(v), 7) for v in rng2.integers(-20, 21, size=25)]
    a = gegenbauer.taylor_to_basis(alpha, exact=True)
    ok_values = True
    for t in (Fraction(1, 3), Fraction(-7, 4), Fraction(5, 2)):
        f = [Fraction(1), 2 * t]
        for n in range(1, 24):
            f.append(((n + 2) * t * f[n] - (n + 3) * f[n - 1]) / (n + 1))
        ok_values &= (sum(x * y for x, y in zip(a, f))
                      == sum(c * t ** j for j, c in enumerate(alpha)))
    out.append(_check("exact conversion vs recurrence, degree 24", ok_values,
                      "sum a_n f_n(t) == sum alpha_j t^j in rationals at t = 1/3, -7/4, 5/2"))

    decay_ok = True
    worst_c = 0.0
    for sigma in (1.0 / 16.0, 1.0 / 8.0):
        taylor = [0.0] * 61
        for j in range(31):
            taylor[2 * j] = sigma ** j / math.factorial(j)
        a = gegenbauer.taylor_to_basis(taylor)
        for n in range(10, 61):
            if a[n] == 0.0:
                continue
            envelope = (8.0 * math.e * sigma / n) ** (n / 2.0)
            ratio = abs(a[n]) / envelope
            worst_c = max(worst_c, ratio)
            decay_ok &= ratio <= 100.0
    out.append(_check("order-two coefficient decay envelope", decay_ok,
                      f"max |a_n| / (8 e sigma / n)^(n/2) = {worst_c:.3f} (allowed constant 100)"))

    grid2 = np.linspace(-2.0, 2.0, 801)
    vals2 = gegenbauer.basis_values(40, grid2)
    sharp_ok = all(
        float(np.max(np.abs(vals2[n]))) <= (n + 1) * (n + 2) * (n + 3) / 6.0 * (1 + 1e-12)
        for n in range(41)
    )
    out.append(_check("sharp spectral-band envelope, n <= 40", sharp_ok,
                      "|f_n(t)| <= (n+1)(n+2)(n+3)/6 on [-2,2], attained at t = 2"))

    report = gegenbauer.growth_bound_report(4, 3.0)
    grid3 = np.linspace(-3.0, 3.0, 601)
    vals3 = gegenbauer.basis_values(60, grid3)
    ratio = max(float(np.max(np.abs(vals3[n]))) / (2.0 * 3.0 ** n) for n in range(61))
    # The nominal certificate envelope 2 * 3^n is short by a bounded factor
    # on the real interval (worst 2.024 at n = 7, decaying geometrically
    # beyond) and by an exponentially growing one on the complex circle
    # (growth factor (3+sqrt(13))/2 at z = 3i); both are measured and
    # reported, never patched into the basis code.
    out.append(_check("real-interval envelope within 4.1 * 3^n, n <= 60", ratio <= 2.05,
                      f"max |f_n| / (2 * 3^n) on [-3,3] = {ratio:.4f}; complex circle "
                      f"exceeds the nominal bound outright ({report.max_value:.1f} vs "
                      f"{report.value_envelope:.1f} at n=4, r=3)"))
    return out


# --------------------------------------------------------------- stirling

def suite_stirling() -> list[CheckResult]:
    out = []
    table = laplace.stirling_table(laplace.STIRLING_CAP)

    rec_ok = True
    for n in range(laplace.STIRLING_CAP):
        for k in range(n + 2):
            lhs = table.count(n + 1, k)
            rhs = n * table.count(n, k) + (table.count(n, k - 1) if k >= 1 else 0)
            rec_ok &= lhs == rhs
    out.append(_check("first-kind recurrence exact over the full table", rec_ok,
                      f"checked n <= {laplace.STIRLING_CAP}"))

    edge_ok = all(table.count(n, n) == 1 for n in range(laplace.STIRLING_CAP + 1)) and \
        all(table.count(n, 0) == 0 for n in range(1, laplace.STIRLING_CAP + 1))
    out.append(_check("boundary values [n,n] = 1 and [n,0] = 0", edge_ok, ""))

    bound_ok = True
    for k in range(laplace.STIRLING_CAP):
        for l in range(k + 2):
            bound_ok &= table.count(k + 1, k + 1 - l) <= math.factorial(k + 1)
    out.append(_check("cycle counts bounded by (k+1)!", bound_ok,
                      "the bound certifying series truncation holds exactly"))

    from itertools import permutations

    def cycle_count(perm):
        seen = [False] * len(perm)
        cycles = 0
        for i in range(len(perm)):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return cycles

    brute_ok = True
    for n in range(1, 7):
        counts = {}
        for perm in permutations(range(n)):
            c = cycle_count(perm)
            counts[c] = counts.get(c, 0) + 1
        brute_ok &= all(counts.get(k, 0) == table.count(n, k) for k in range(n + 1))
    out.append(_check("table matches brute-force cycle enumeration, n <= 6", brute_ok, ""))

    try:
        laplace.stirling_table(laplace.STIRLING_CAP + 1)
        cap_ok = False
    except ValueError:
        cap_ok = True
    out.append(_check("requests beyond the cap raise", cap_ok,
                      f"cap = {laplace.STIRLING_CAP}"))
    return out


# --------------------------------------------------------------- sampling

def suite_sampling() -> list[CheckResult]:
    out = []
    count = 20000
    seed = 20260815
    batch = montecarlo.sample_spectra(8, count, seed)

    prefix = montecarlo.sample_spectra(8, 64, seed)
    det_ok = np.array_equal(batch.eigenvalues[:64], prefix.eigenvalues)
    out.append(_check("bit-exact reproducibility (batch prefix)", det_ok,
                      f"count=64 equals the first 64 rows of count={count}"))

    edges = np.linspace(-2.5, 2.5, 41)
    hist = np.histogram(batch.eigenvalues.ravel(), bins=edges)[0] / (count * 8)
    worst_sigma = 0.0
    for i in range(40):
        prob = _integrate_interval(lambda x: hermite.density(8, x), edges[i], edges[i + 1], 2)
        # conservative SE: treats each spectrum (not each eigenvalue) as one
        # trial, which dominates the within-spectrum correlations
        se = math.sqrt(max(prob * (1.0 - prob), 1e-300) / count)
        worst_sigma = max(worst_sigma, abs(hist[i] - prob) / se)
    out.append(_check("histogram matches exact density within 4 SE", worst_sigma <= 4.0,
                      f"worst bin deviation = {worst_sigma:.2f} SE over 40 bins"))

    m2, se2 = montecarlo.empirical_moment(batch, 2)
    m4, se4 = montecarlo.empirical_moment(batch, 4)
    m6, se6 = montecarlo.empirical_moment(batch, 6)
    z2 = abs(m2 - 1.0) / se2
    z4 = abs(m4 - (2.0 + 1.0 / 64.0)) / se4
    z6 = abs(m6 - (5.0 + 10.0 / 64.0)) / se6
    out.append(_check("moments m2, m4, m6 within 3 SE", max(z2, z4, z6) <= 3.0,
                      f"z-scores: m2 {z2:.2f}, m4 {z4:.2f}, m6 {z6:.2f}"))

    freq = montecarlo.edge_tail_frequency(batch, 3.0)
    bound = 8.0 * math.exp(-8.0 * (3.0 - 2.0) ** 2 / 2.0)
    se = math.sqrt(bound * (1.0 - bound) / count)
    out.append(_check("edge tail below Gaussian bound + 4 SE", freq <= bound + 4 * se,
                      f"freq = {freq:.2e}, bound = {bound:.2e}"))

    lower_batch = montecarlo.sample_spectra(4, count, seed + 1)
    freq_low = montecarlo.edge_tail_frequency(lower_batch, 2.5)
    gauss_tail = math.sqrt(math.pi / (2.0 * 4.0)) * math.erfc(2.5 * math.sqrt(2.0))
    lower = math.sqrt(4.0 / (2.0 * math.pi)) / 4.0 * gauss_tail
    se_low = math.sqrt(max(freq_low * (1.0 - freq_low), 1.0 / count) / count)
    out.append(_check("edge tail above Gaussian lower bound - 4 SE",
                      freq_low >= lower - 4 * se_low,
                      f"freq = {freq_low:.2e}, lower bound = {lower:.2e}"))

    single = montecarlo.sample_spectra(1, count, seed + 2)
    vals = single.eigenvalues.ravel()
    mean_ok = abs(float(vals.mean())) <= 4.0 / math.sqrt(count)
    var = float(vals.var(ddof=1))
    var_ok = abs(var - 1.0) <= 0.05
    out.append(_check("N=1 samples are standard normal", mean_ok and var_ok,
                      f"mean = {float(vals.mean()):.4f}, variance = {var:.4f}"))
    return out


# ------------------------------------------------------------------ probe

def suite_probe() -> list[CheckResult]:
    out = []
    params = gegenbauer.NormParams(rate=0.5, index_scale=10.0)
    values = [operators.norm_probe(params, tr)[0] for tr in (50, 100, 200)]
    out.append(_check("correction amplification stable across truncations",
                      values[0] == values[1] == values[2],
                      f"probe values {values[0]!r} / {values[1]!r} / {values[2]!r} "
                      "at truncations 50/100/200 (must be equal)"))

    strong = operators.norm_probe(gegenbauer.NormParams(rate=1.0, index_scale=10.0), 100)[0]
    out.append(_check("probe finite at the stronger weight", math.isfinite(strong),
                      f"value = {strong:.6f}"))
    return out


SUITES = {
    "density": suite_density,
    "ode": suite_ode,
    "laplace": suite_laplace,
    "moments": suite_moments,
    "operators": suite_operators,
    "basis": suite_basis,
    "stirling": suite_stirling,
    "sampling": suite_sampling,
    "probe": suite_probe,
}


def run_suites(names=None) -> list[tuple[str, CheckResult]]:
    """Run the named suites (all when names is None) in declaration order."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        for res in SUITES[name]():
            results.append((name, res))
    return results
