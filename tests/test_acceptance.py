"""End-to-end acceptance checks.

``test_verify_suite`` runs every suite of ``guespec verify`` through
``verify.run_suites``, the call the command makes, at the command's own
counts, so the command and the test suite share one implementation of each
cross-check: density mass and ODE residual, the kernel transform against
quadrature, the monomial expansions against the genus counts, the
operator and basis identities, the Stirling table, Monte Carlo
concordance at 20000 spectra (criterion 8, folded into the ``sampling``
suite) and the norm probe.  Criteria 4 and 5 below check what no verify
suite checks at the same strength (entire-function convergence, the
inverse-power decay slope in 50-digit arithmetic); criterion 9 keeps the
norm probe's 10% truncation-spread bound under its own name.

Each test prints its measured figures (visible with ``pytest -s`` or on
failure), then asserts the stated tolerance and the runtime budget.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from guespec import cli, gegenbauer, laplace, operators, verify


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

    def converging(alphas, n, ref, start):
        """(error sequence non-increasing from index start, last error)."""
        errs = np.abs(operators.resum_partial_sums(alphas, n) - ref)
        floor = 64.0 * np.finfo(float).eps * max(1.0, abs(ref))
        monotone = all(errs[k + 1] <= max(errs[k] * (1.0 + 1e-9), floor)
                       for k in range(start, len(errs) - 1))
        return monotone, errs[-1]

    # exponential test function: compare against the closed-form transform
    taylor = [1.0 / math.factorial(k) for k in range(81)]
    alphas = operators.correction_functionals(gegenbauer.taylor_to_basis(taylor), 12)
    monotone, err = converging(alphas, 8, laplace.density_laplace(8, 1.0), 2)
    exp_ok = monotone and err < 1e-8

    # Gaussian test function of quadratic-exponential growth: the terms of
    # its series are nonnegative, so it converges exactly for N > 2 sigma,
    # from N0 = 1 at sigma = 1/8, with errors falling from m = 3 on.
    sig = 0.125
    alphas_g = operators.correction_functionals(gegenbauer.plane_wave_series("gauss", sig, 15), 15)
    threshold = int(2.0 * sig) + 1
    worst_g, monotone_g = 0.0, True
    for n in range(threshold, 13):
        # The exact value that resum --compare prints.
        r = cli.reference_integral(cli.FunctionSpec("gauss", sig), n)
        falling, err_g = converging(alphas_g, n, r, 3)
        monotone_g &= falling
        worst_g = max(worst_g, err_g / max(1.0, abs(r)))
    gauss_ok = threshold == 1 and monotone_g and worst_g < 1e-6

    elapsed = time.perf_counter() - t0
    _line(4, "convergent corrections for entire test functions", exp_ok and gauss_ok,
          f"exp: monotone from m=2 {monotone}, err(m=12) = {err:.2e} (tol 1e-8); "
          f"gauss sigma=1/8: threshold N0 = {threshold}, monotone from m=3 {monotone_g}, "
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
    mirror_equal = all(float(c_mp[l]) == c_float[l] for l in range(0, 7, 2))

    sizes = (8, 16, 32, 64)
    logs_r = []
    for n in sizes:
        partial = sum(c_mp[l] * mp.mpf(n) ** (-l) for l in range(7))
        logs_r.append(float(mp.log(abs(transform_mp(n) - partial))))
    slope = float(np.polyfit(np.log(sizes), logs_r, 1)[0])

    c9 = laplace.laplace_expansion(1.0, 9)
    worst_odd = float(np.max(np.abs(c9[1::2])))

    elapsed = time.perf_counter() - t0
    ok = slope <= -6.5 and worst_odd == 0.0 and mirror_equal
    _line(5, "six-term inverse-power remainder decay", ok,
          f"log-log slope = {slope:.3f} over N in {sizes} (tol <= -6.5), "
          f"max odd coefficient = {worst_odd:.2e} (must be 0), "
          f"even coefficients equal the 50-digit mirror rounded: {mirror_equal}",
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
