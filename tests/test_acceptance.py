"""End-to-end acceptance checks.

``test_verify_suite`` runs every suite of ``guespec verify`` through
``verify.run_suites``, the call the command makes, at the command's own
counts, so the command and the test suite share one implementation of each
cross-check: density mass and ODE residual, the kernel transform against
quadrature, the terminating monomial expansions, the operator and basis
identities, the Stirling table, Monte Carlo concordance at 20000 spectra
and the norm probe.  Criteria 4, 5 and 8 below check what no verify suite
checks at the same strength (entire-function convergence, the inverse-power
decay slope in 50-digit arithmetic, concordance at 1e5 spectra); criterion 9
keeps the norm probe's 10% truncation-spread bound under its own name.

Each test prints its measured figures (visible with ``pytest -s`` or on
failure), then asserts the stated tolerance and the runtime budget.
"""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from guespec import (
    gegenbauer,
    hermite,
    laplace,
    montecarlo,
    operators,
    quadrature,
    verify,
)


#: Runtime budget of one verify suite, the smallest budget of the criteria
#: the suites replaced; ``sampling``, which replaced none, is held to it too.
SUITE_BUDGET_S = 5.0


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_verify_suite(name):
    t0 = time.perf_counter()
    results = verify.run_suites([name])
    elapsed = time.perf_counter() - t0
    for _, res in results:
        print(f"[verify {name}] {res.name}: {'PASS' if res.passed else 'FAIL'} ({res.detail})")
    failures = [f"{res.name}: {res.detail}" for _, res in results if not res.passed]
    assert not failures, f"verify suite {name} failed: " + "; ".join(failures)
    assert elapsed < SUITE_BUDGET_S, \
        f"verify suite {name} took {elapsed:.1f}s of {SUITE_BUDGET_S:.0f}s budget"


def _line(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    msg = f"[criterion {num}] {label}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    print(msg)
    assert ok, msg
    assert elapsed < budget, msg


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
        alphas_g, ref_gauss, max_ensemble_size=12)
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
