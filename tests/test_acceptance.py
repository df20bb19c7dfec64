"""End-to-end acceptance checks, one test per criterion.

Each test prints exactly one summary line (visible with ``pytest -s`` or on
failure) carrying the measured figures and the elapsed time, then asserts
the stated tolerance and the runtime budget.  These are the checks that
decide whether the package as a whole does what it promises; the per-module
test files cover the same ground at finer grain.
"""

import math
import time
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np

from guespec import (
    gegenbauer,
    hermite,
    laplace,
    montecarlo,
    operators,
    quadrature,
    verify,
)


def _line(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    msg = f"[criterion {num}] {label}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    print(msg)
    assert ok, msg
    assert elapsed < budget, msg


def test_criterion_1_density_mass_and_ode():
    t0 = time.perf_counter()
    worst_mass = 0.0
    for n in range(1, 33):
        rule = quadrature.gaussian_rule(n, n)
        mass = float((rule.weights * hermite.christoffel_sum(n, n - 1, rule.nodes)).sum()) / n
        worst_mass = max(worst_mass, abs(mass - 1.0))

    grid = np.linspace(-4.0, 4.0, 401)
    worst_ode = 0.0
    for n in range(1, 17):
        p0, p1, _, p3 = hermite.density_derivatives(n, grid)
        res = p3 / (n * n) + (4.0 - grid * grid) * p1 + grid * p0
        scale = np.maximum(np.abs(p0), np.maximum(np.abs(p1), np.abs(p3) / (n * n)))
        worst_ode = max(worst_ode, float(np.max(np.abs(res) / np.maximum(scale, 1e-300))))

    elapsed = time.perf_counter() - t0
    ok = worst_mass < 1e-10 and worst_ode < 1e-7
    _line(1, "density mass and differential identity", ok,
          f"max |mass-1| = {worst_mass:.2e} over N=1..32 (tol 1e-10), "
          f"max scaled residual = {worst_ode:.2e} over N<=16 on 401-pt [-4,4] (tol 1e-7)",
          elapsed, 10.0)


def test_criterion_2_kernel_transform_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    worst_at = None
    for n in (1, 2, 5, 10):
        for s in (0.0, 0.5, -0.5, 1.0, 2j):
            for offset in (0.0, 0.3, 1.0):
                closed = laplace.kernel_laplace(n, s, offset)
                direct = verify.kernel_pair_transform(n, s, offset)
                diff = abs(closed - direct)
                # two grid points are exact zeros of the closed form; there
                # the absolute deviation is the only meaningful measure
                err = diff / abs(closed) if closed != 0 else diff
                if err > worst:
                    worst, worst_at = err, (n, s, offset)
    elapsed = time.perf_counter() - t0
    _line(2, "closed-form shifted-kernel transform vs quadrature", worst < 1e-8,
          f"max rel err = {worst:.2e} at (N,s,c) = {worst_at} over 60-point grid (tol 1e-8)",
          elapsed, 30.0)


def test_criterion_3_monomial_expansion_terminates():
    t0 = time.perf_counter()
    finite_ok = True
    worst_match = 0.0
    for p in range(13):
        a = gegenbauer.taylor_to_basis([0.0] * p + [1.0])
        cutoff = math.ceil(p / 4)
        alphas = operators.correction_functionals(a, cutoff + 3)
        finite_ok &= all(v == 0.0 for v in alphas[cutoff + 1:])
        for n in (2, 4, 8):
            series_val = float(operators.resum_partial_sums(alphas, n)[-1])
            quad_val = quadrature.density_polynomial_integral(n, lambda t: t ** p, p)
            worst_match = max(worst_match, abs(series_val - quad_val) / max(1.0, abs(quad_val)))

    a4 = gegenbauer.taylor_to_basis([0.0, 0.0, 0.0, 0.0, 1.0])
    alphas4 = operators.correction_functionals(a4, 1)
    worst4 = max(abs(float(operators.resum_partial_sums(alphas4, n)[-1]) - (2.0 + 1.0 / n ** 2))
                 for n in (2, 3, 4, 8, 16, 32))

    elapsed = time.perf_counter() - t0
    ok = finite_ok and worst_match < 1e-9 and worst4 < 1e-10
    _line(3, "monomial corrections terminate and match quadrature", ok,
          f"exact zeros past ceil(p/4) for p<=12: {finite_ok}, "
          f"max rel gap vs quadrature = {worst_match:.2e} (tol 1e-9), "
          f"max |m4 - (2+1/N^2)| = {worst4:.2e} (tol 1e-10)",
          elapsed, 5.0)


def test_criterion_4_entire_function_convergence():
    t0 = time.perf_counter()

    # exponential test function: compare against the closed-form transform
    taylor = np.array([1.0 / math.factorial(k) for k in range(81)])
    series = gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, 0.0), tol=1e-12)
    with warnings.catch_warnings():
        # the trimmed series is shorter than 4 * depth; the deep functionals
        # are genuine (tiny) zeros, so the truncation warning is expected
        warnings.simplefilter("ignore", RuntimeWarning)
        alphas = operators.correction_functionals(series, 12)
    ref = laplace.density_laplace(8, 1.0)
    errs = np.abs(operators.resum_partial_sums(alphas, 8) - ref)
    floor = 64.0 * np.finfo(float).eps * max(1.0, abs(ref))
    monotone = all(errs[k + 1] <= max(errs[k] * (1.0 + 1e-9), floor) for k in range(2, 12))
    exp_ok = monotone and errs[12] < 1e-8

    # Gaussian test function of quadratic-exponential growth
    sig = 0.125
    tay = np.zeros(81)
    for k in range(0, 81, 2):
        tay[k] = sig ** (k // 2) / math.factorial(k // 2)
    gauss = gegenbauer.expand_entire(gegenbauer.TaylorSeries(tay, sig), tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alphas_g = operators.correction_functionals(gauss, 15)

    def ref_gauss(n):
        scale = math.sqrt(1.0 / max(n / 2.0 - sig, 0.25))
        return quadrature.integrate_line(
            lambda t: np.exp(sig * t * t) * hermite.density(n, t),
            scale=scale, tol=1e-11).value

    threshold = operators.measure_convergence_threshold(
        alphas_g, ref_gauss, max_ensemble_size=12, tol=1e-6)
    worst_g = 0.0
    for n in range(threshold, 13):
        r = ref_gauss(n)
        worst_g = max(worst_g, abs(float(operators.resum_partial_sums(alphas_g, n)[-1]) - r)
                      / max(1.0, abs(r)))
    gauss_ok = math.isfinite(threshold) and worst_g < 1e-6

    elapsed = time.perf_counter() - t0
    _line(4, "convergent corrections for entire test functions", exp_ok and gauss_ok,
          f"exp: monotone from m=2 {monotone}, err(m=12) = {errs[12]:.2e} (tol 1e-8); "
          f"gauss sigma=1/8: measured threshold N0 = {threshold}, "
          f"max err(m=15) for N>=N0 = {worst_g:.2e} (tol 1e-6)",
          elapsed, 60.0)


def test_criterion_5_inverse_power_series_decay():
    t0 = time.perf_counter()
    # the residual after six inverse powers sits below double-precision noise
    # for N >= 16, so the slope is measured with a 50-digit mirror of both
    # closed forms (coefficients cross-checked against the float path)
    mp.mp.dps = 50
    inner_terms = 30
    table = laplace.stirling_table(inner_terms + 1)

    def coeff_mp(depth):
        inner = []
        for l in range(depth + 1):
            tot = mp.mpf(0)
            for k in range(l, inner_terms + 1):
                tot += table.count(k + 1, k + 1 - l) / (mp.factorial(k) * mp.factorial(k + 1))
            inner.append(tot)
        out = []
        for m in range(depth + 1):
            tot = mp.mpf(0)
            for j in range(m + 1):
                tot += mp.mpf(1) / 2 ** j / mp.factorial(j) * (-1) ** (m - j) * inner[m - j]
            out.append(tot)
        return out

    def transform_mp(n):
        v = mp.mpf(1) / n
        coeff = mp.mpf(1)
        total = mp.mpf(1)
        powx = mp.mpf(1)
        for k in range(n - 1):
            coeff = coeff * (1 - n + k) / ((2 + k) * (k + 1))
            powx *= -v
            total += coeff * powx
        return mp.e ** (v / 2) * total

    c_mp = coeff_mp(6)
    c_float = laplace.laplace_expansion(1.0, 6)
    mirror_gap = max(abs(float(c_mp[l]) - c_float[l]) for l in range(7))

    sizes = (8, 16, 32, 64)
    logs_r = []
    for n in sizes:
        partial = sum(c_mp[l] * mp.mpf(n) ** (-l) for l in range(7))
        logs_r.append(float(mp.log(abs(transform_mp(n) - partial))))
    slope = float(np.polyfit(np.log(sizes), logs_r, 1)[0])

    c9 = laplace.laplace_expansion(1.0, 9)
    even_scale = float(np.max(np.abs(c9[::2])))
    worst_odd = float(np.max(np.abs(c9[1::2]))) / even_scale

    elapsed = time.perf_counter() - t0
    ok = slope <= -6.5 and worst_odd < 1e-12 and mirror_gap < 1e-14
    _line(5, "six-term inverse-power remainder decay", ok,
          f"log-log slope = {slope:.3f} over N in {sizes} (tol <= -6.5), "
          f"max odd coefficient = {worst_odd:.2e} relative (tol 1e-12), "
          f"50-digit mirror gap = {mirror_gap:.2e}",
          elapsed, 5.0)


def test_criterion_6_operator_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    samples = np.linspace(-3.0, 3.0, 25)

    worst_solve = 0.0
    for _ in range(10):
        poly = rng.uniform(-1.0, 1.0, size=13)
        a = gegenbauer.taylor_to_basis(poly)
        worst_solve = max(worst_solve,
                          float(np.max(np.abs(operators.first_order_residual(a, samples)))))

    t = np.linspace(-2.0, 2.0, 41)
    worst_eig = 0.0
    for order in range(41):
        eigenvalue = (order + 2) ** 2 - 4
        peak = float(np.max(np.abs(gegenbauer.basis_values(order, t)[order])))
        scale = max(1.0, abs(eigenvalue) * peak)
        worst_eig = max(worst_eig, operators.eigen_check(order, t) / scale)

    worst_step = 0.0
    for _ in range(10):
        poly = rng.uniform(-1.0, 1.0, size=11)
        a = gegenbauer.taylor_to_basis(poly)
        t_poly = gegenbauer.basis_to_taylor(operators.correction(a))
        for n in (3, 6):
            lhs = quadrature.density_polynomial_integral(
                n, lambda x: np.polynomial.polynomial.polyval(x, poly), 10)
            rhs = gegenbauer.semicircle_functional(a) + quadrature.density_polynomial_integral(
                n, lambda x: np.polynomial.polynomial.polyval(x, t_poly), 10) / n ** 2
            worst_step = max(worst_step, abs(lhs - rhs) / max(1.0, abs(lhs)))

    elapsed = time.perf_counter() - t0
    ok = worst_solve < 1e-9 and worst_eig < 1e-9 and worst_step < 1e-8
    _line(6, "operator identity suite", ok,
          f"first-order solve residual = {worst_solve:.2e} on degree-12 inputs (tol 1e-9), "
          f"eigen-relation residual = {worst_eig:.2e} for n<=40 (tol 1e-9), "
          f"one-step identity gap = {worst_step:.2e} at N in {{3,6}} (tol 1e-8)",
          elapsed, 10.0)


def test_criterion_7_basis_and_translation_identities():
    t0 = time.perf_counter()
    worst_orth = 0.0
    for n in range(31):
        for m in range(n, 31):
            val = gegenbauer.normalization_check(n, m)
            expected = 2.0 * math.pi * (n + 1) * (n + 3) if n == m else 0.0
            scale = 2.0 * math.pi * math.sqrt((n + 1) * (n + 3) * (m + 1) * (m + 3))
            worst_orth = max(worst_orth, abs(val - expected) / scale)

    rng = np.random.default_rng(11)
    t = rng.uniform(-2.0, 2.0, size=50)
    f, df, _ = gegenbauer.basis_with_derivatives(31, t)
    worst_ladder = 0.0
    for n in range(1, 31):
        res = df[n + 1] - df[n - 1] - (n + 2) * f[n]
        worst_ladder = max(worst_ladder,
                           float(np.max(np.abs(res) / np.maximum(1.0, np.abs((n + 2) * f[n])))))

    grid = np.linspace(-2.0, 2.0, 37)
    worst_cheb = 0.0
    for order in range(31):
        res = gegenbauer.chebyshev_link_residual(order, grid)
        scale = max(1.0, float(np.max(np.abs(gegenbauer.basis_values(order, grid)[order])))
                    * (order + 2) / 2)
        worst_cheb = max(worst_cheb, float(np.max(np.abs(res))) / scale)

    n_h = 3
    x = Fraction(2, 7)
    shift = Fraction(-3, 5)
    direct = hermite.hermite_values(n_h, 15, x + shift)
    translation_exact = all(
        hermite.hermite_translate(n_h, order, shift, x) == direct[order]
        for order in range(16))

    elapsed = time.perf_counter() - t0
    ok = worst_orth < 1e-9 and worst_ladder < 1e-10 and worst_cheb < 1e-10 and translation_exact
    _line(7, "basis orthogonality, ladders, exact translation", ok,
          f"orthogonality deviation = {worst_orth:.2e} for n,m<=30 (tol 1e-9), "
          f"ladder residual = {worst_ladder:.2e} (tol 1e-10), "
          f"Chebyshev link residual = {worst_cheb:.2e} (tol 1e-10), "
          f"rational translation exact through order 15: {translation_exact}",
          elapsed, 10.0)


def test_criterion_8_monte_carlo_concordance():
    t0 = time.perf_counter()
    n, count = 8, 100_000
    batch = montecarlo.sample_spectra(n, count, seed=20260815)
    flat = batch.eigenvalues.ravel()

    edges = np.linspace(-3.0, 3.0, 41)
    observed, _ = np.histogram(flat, bins=edges)
    nodes, wts = np.polynomial.legendre.leggauss(32)
    worst_z = 0.0
    for b in range(40):
        lo, hi = edges[b], edges[b + 1]
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        q = 0.5 * (hi - lo) * float(np.sum(wts * hermite.density(n, x)))
        se = math.sqrt(flat.size * q * (1.0 - q))
        worst_z = max(worst_z, abs(observed[b] - flat.size * q) / se)
    hist_ok = worst_z < 4.0

    m2, se2 = montecarlo.empirical_moment(batch, 2)
    m4, se4 = montecarlo.empirical_moment(batch, 4)
    m2_exact = quadrature.density_polynomial_integral(n, lambda t: t * t, 2)
    m4_exact = 2.0 + 1.0 / n ** 2
    z2 = abs(m2 - m2_exact) / se2
    z4 = abs(m4 - m4_exact) / se4
    moments_ok = z2 < 3.0 and z4 < 3.0

    edge_ok = True
    edge_detail = []
    for r in (0.5, 0.75, 1.0):
        bound = n * math.exp(-n * r * r / 2.0)
        freq = montecarlo.edge_tail_frequency(batch, 2.0 + r)
        sigma = math.sqrt(bound * (1.0 - bound) / count) if bound < 1.0 else 0.0
        edge_ok &= freq <= bound + 4.0 * sigma
        edge_detail.append(f"r={r}: {freq:.1e} vs {bound + 4.0 * sigma:.2e}")

    elapsed = time.perf_counter() - t0
    ok = hist_ok and moments_ok and edge_ok
    _line(8, "sampled spectra match the exact density", ok,
          f"N=8, 1e5 spectra: worst histogram |z| = {worst_z:.2f} over 40 bins (tol 4), "
          f"|z| of m2 = {z2:.2f}, m4 = {z4:.2f} (tol 3), "
          f"edge tail {'; '.join(edge_detail)}",
          elapsed, 180.0)


def test_criterion_9_norm_probe_stability():
    t0 = time.perf_counter()
    params = gegenbauer.NormParams(rate=0.5, index_scale=10.0)
    values = [operators.norm_probe(params, truncation)[0] for truncation in (50, 100, 200)]
    spread = (max(values) - min(values)) / min(values)
    elapsed = time.perf_counter() - t0
    _line(9, "operator norm probe stable under truncation", spread <= 0.10,
          f"probe values {values[0]:.6f} / {values[1]:.6f} / {values[2]:.6f} "
          f"at truncations 50/100/200, spread = {spread:.2%} (tol 10%)",
          elapsed, 5.0)
