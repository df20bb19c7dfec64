"""Tests for closed-form Laplace transforms, Stirling tables, and the
large-N coefficient expansion of the density transform."""

import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from guespec import gegenbauer, laplace, operators, quadrature


# ------------------------------------------------------------ hypergeometric

def hyp1f1(n, x):
    """1F1(1 - n; 2 | x) read off kernel_laplace, which is
    N e^{-x/2} 1F1(1 - N; 2 | x) = e^{-x/2} L^{(1)}_{N-1}(x) at
    x = N c^2 - s^2 / N: real x >= 0 through c, any other x through s."""
    if isinstance(x, complex) or x < 0:
        return laplace.kernel_laplace(n, cmath.sqrt(-n * x)) * cmath.exp(x / 2.0) / n
    return laplace.kernel_laplace(n, 0.0, math.sqrt(x / n)) * math.exp(x / 2.0) / n


def hyp1f1_series(n, x):
    def rising(a, k):
        out = 1.0
        for i in range(k):
            out *= a + i
        return out

    return sum(rising(1 - n, k) / (rising(2, k) * math.factorial(k)) * x ** k
               for k in range(n))


def test_hyp1f1_terminating_examples():
    # n=1: empty product, constant 1
    assert hyp1f1(1, 0.7) == pytest.approx(1.0)
    # n=3: 1 + ((-2)/2) x + ((-2)(-1)/(2*3*2)) x^2 at x=1 -> 1 - 1 + 1/6
    assert hyp1f1(3, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    # x=0 -> leading coefficient
    assert hyp1f1(9, 0.0) == pytest.approx(1.0)


def test_hyp1f1_against_series():
    n, x = 6, 0.35
    assert hyp1f1(n, x) == pytest.approx(hyp1f1_series(n, x), rel=1e-13)


def test_hyp1f1_complex_argument():
    val = hyp1f1(4, 1j)
    assert isinstance(val, complex)
    assert val == pytest.approx(hyp1f1_series(4, 1j), rel=1e-14)


def laguerre_reference(n, s, c):
    """e^{-x/2} L^{(1)}_{n-1}(x), x = n c^2 - s^2 / n, summed term by term
    in 300-digit arithmetic: the coefficient of (-x)^k is
    binom(n, n-1-k) / k!."""
    with mp.workdps(300):
        x = n * mp.mpf(c) ** 2 - mp.mpc(s) ** 2 / n
        term, total = mp.mpf(n), mp.mpf(0)
        for k in range(n):
            total += term
            term *= -x * (n - 1 - k) / ((k + 1) * (k + 2))
        return complex(mp.exp(-x / 2) * total)


# The worst relative error on this grid is 1.7e-13 (N=256, s=5i, c=0).
# Horner's rule on the 1F1 coefficients is off by up to 6e108 relative
# here, or overflows: it cancels wherever Re x > 0.
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64, 128, 200, 256])
def test_kernel_laplace_against_300_digits(n):
    cases = ([(s, c) for s in (0.0, 0.5, -3.0, 10.0) for c in (0.0, 0.3, 1.0, 2.0, 3.0)]
             + [(1j * w, 0.0) for w in (1.0, 5.0, 10.0, 20.0, 30.0, 60.0)]
             + [(s, c) for s in (1 + 1j, 3 - 2j, 0.5 + 10j, 2 + 30j) for c in (0.0, 0.7)])
    for s, c in cases:
        want = laguerre_reference(n, s, c)
        got = laplace.kernel_laplace(n, s, c)
        assert abs(got - want) <= 1e-12 * abs(want), (s, c, got, want)


# ------------------------------------------------------------ transforms

def test_kernel_laplace_at_zero_is_ensemble_size():
    for n in (1, 2, 5, 10):
        assert laplace.kernel_laplace(n, 0.0) == pytest.approx(float(n), rel=1e-14)


def test_kernel_laplace_rank_one_closed_form():
    # N=1: int e^{s lam} psi_0(lam)^2 d lam = e^{s^2/2}; with offset c the
    # product psi_0(l+c) psi_0(l-c) contributes e^{-c^2/2}
    for s, c in [(0.0, 0.0), (1.2, 0.0), (0.7, 0.4), (0.0, 1.0)]:
        want = math.exp(-c * c / 2.0 + s * s / 2.0)
        assert laplace.kernel_laplace(1, s, c) == pytest.approx(want, rel=1e-13)


def test_density_laplace_frozen_values():
    # N=2: e^{s^2/4}(1 + s^2/4) at s=1 -> e^{1/4} * 1.25
    assert laplace.density_laplace(2, 1.0) == pytest.approx(math.exp(0.25) * 1.25, rel=1e-14)
    assert laplace.density_laplace(2, 0.0) == pytest.approx(1.0)


def test_density_laplace_purely_imaginary_zero():
    # s = 2i hits a zero of the N=2 characteristic function: e^{-1}(1 - 1)
    val = laplace.density_laplace(2, 2j)
    assert abs(val) < 1e-15


def test_density_laplace_even_in_s():
    for n in (2, 5):
        assert laplace.density_laplace(n, 0.8) == pytest.approx(
            laplace.density_laplace(n, -0.8), rel=1e-14)


def test_kernel_laplace_against_quadrature():
    from guespec import verify
    for (n, s, c) in [(2, 0.5, 0.0), (4, 1.0, 0.5), (3, 2j, 0.3)]:
        closed = laplace.kernel_laplace(n, s, c)
        direct = verify.kernel_pair_transform(n, s, c)
        assert abs(closed - direct.value) <= 1e-9 * max(1.0, abs(closed))


def test_transform_depends_only_on_invariant_combination():
    # (s, c) enter only through u - v = N c^2 - s^2/N and the prefactor;
    # two parameter pairs with equal invariant must give equal 1F1 factors
    n = 4
    c1, s1 = 1.0, 0.5
    diff = n * c1 ** 2 - s1 ** 2 / n
    c2 = 1.2  # must satisfy n c2^2 >= diff for a real companion s
    s2 = math.sqrt(n * (n * c2 ** 2 - diff))
    v1 = laplace.kernel_laplace(n, s1, c1) * math.exp(-(s1 ** 2 / n - n * c1 ** 2) / 2.0)
    v2 = laplace.kernel_laplace(n, s2, c2) * math.exp(-(s2 ** 2 / n - n * c2 ** 2) / 2.0)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_kernel_laplace_type_stability():
    assert isinstance(laplace.kernel_laplace(3, 0.5), float)
    assert isinstance(laplace.kernel_laplace(3, 0.5 + 0.0j), complex)
    assert isinstance(laplace.kernel_laplace(3, 1j), complex)


# --------------------------------------------------------------- stirling

def test_stirling_frozen_entries():
    t = laplace.stirling_table(5)
    assert t.count(3, 2) == 3
    assert t.count(5, 1) == 24   # (n-1)!
    assert t.count(4, 2) == 11
    for n in range(6):
        assert t.count(n, n) == 1
    for n in range(1, 6):
        assert t.count(n, 0) == 0


def test_stirling_row_sums_are_factorials():
    t = laplace.stirling_table(8)
    for n in range(9):
        assert sum(t.rows[n]) == math.factorial(n)


def test_stirling_out_of_range_is_zero():
    t = laplace.stirling_table(4)
    assert t.count(3, 5) == 0
    assert t.count(3, -1) == 0


def test_stirling_brute_force_cycle_counts():
    """[n, k] counts permutations of n elements with exactly k cycles."""
    t = laplace.stirling_table(5)
    for n in range(1, 6):
        counts = [0] * (n + 1)
        for perm in itertools.permutations(range(n)):
            seen = [False] * n
            cycles = 0
            for start in range(n):
                if seen[start]:
                    continue
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
            counts[cycles] += 1
        for k in range(n + 1):
            assert t.count(n, k) == counts[k]


def test_stirling_cap_enforced():
    laplace.stirling_table(laplace.STIRLING_CAP)  # at the cap: fine
    with pytest.raises(ValueError):
        laplace.stirling_table(laplace.STIRLING_CAP + 1)


def test_stirling_values_exact_ints():
    t = laplace.stirling_table(laplace.STIRLING_CAP)
    assert t.count(34, 1) == math.factorial(33)
    assert all(isinstance(v, int) for v in t.rows[20])


# ------------------------------------------------------------- expansion

def test_expansion_at_zero():
    c = laplace.laplace_expansion(0.0, 6)
    assert c[0] == pytest.approx(1.0)
    assert np.max(np.abs(c[1:])) == 0.0


def test_expansion_frozen_leading_and_deep_coefficients():
    c = laplace.laplace_expansion(1.0, 8)
    assert c[0] == pytest.approx(1.5906368546373294, rel=1e-13)
    assert c[8] == pytest.approx(1.2839497922608891e-08, rel=1e-9)


def test_expansion_odd_coefficients_vanish():
    c = laplace.laplace_expansion(1.3, 9)
    even_scale = float(np.max(np.abs(c[::2])))
    assert float(np.max(np.abs(c[1::2]))) <= 1e-14 * even_scale


def test_expansion_partial_sums_hit_closed_form():
    for n in (4, 8):
        c = laplace.laplace_expansion(1.0, 10)
        powers = (1.0 / n) ** np.arange(11)
        approx = float(np.sum(c * powers))
        want = laplace.density_laplace(n, 1.0)
        assert approx == pytest.approx(want, abs=5e-12)


def test_expansion_matches_operator_route():
    """Same numbers from a different pipeline: expand e^{st} in the basis
    and push it through the correction functionals."""
    s = 1.0
    taylor = [s ** k / math.factorial(k) for k in range(61)]
    series = gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, 0.0), tol=1e-12)
    alphas = operators.correction_functionals(series, 4)
    c = laplace.laplace_expansion(s, 8)
    for k in range(5):
        assert c[2 * k] == pytest.approx(float(alphas[k]), rel=1e-8, abs=1e-13)


def test_expansion_complex_argument():
    c = laplace.laplace_expansion(0.5j, 6)
    assert c.dtype == complex
    # c_0(s) = <e^{st}> is real and even in s, so purely imaginary s still
    # gives real leading behavior
    assert abs(c[0].imag) < 1e-14


_ZERO_S_BITS = ["0x1.0000000000000p+0"] + ["0x0.0p+0"] * 4


# Frozen bits of laplace_expansion(s, 4): float64 for real s, the integer 0
# included, and complex128 for complex s.
@pytest.mark.parametrize("s,dtype,bits", [
    (0, np.float64, _ZERO_S_BITS),
    (0.0, np.float64, _ZERO_S_BITS),
    (1.3, np.float64, ["0x1.0f4ca43f6051bp+1", "-0x1.0000000000000p-51", "0x1.9d8791b0b9734p-3",
                       "0x1.0000000000000p-54", "0x1.a562f42a41958p-8"]),
    (0.7 + 0.4j, np.complex128, [
        ("0x1.256073a3cbb56p+0", "0x1.3e419fd70df71p-2"), ("0x0.0p+0", "-0x1.0000000000000p-53"),
        ("-0x1.9998be18e2a34p-7", "0x1.f2f7828635420p-7"),
        ("0x1.4000000000000p-57", "0x1.c000000000000p-58"),
        ("-0x1.5957b8643dad0p-15", "-0x1.842118a79e4f0p-14")]),
    (2j, np.complex128, [
        ("-0x1.0e8372dfaeabcp-5", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.f12802f544a18p-4", "0x0.0p+0"), ("0x1.c000000000000p-53", "0x0.0p+0"),
        ("0x1.545fa78e223acp-5", "0x0.0p+0")]),
])
def test_expansion_dtype_and_bits_follow_s(s, dtype, bits):
    c = laplace.laplace_expansion(s, 4)
    assert c.dtype == dtype
    if dtype is np.complex128:
        assert [(v.real.hex(), v.imag.hex()) for v in c.tolist()] == bits
    else:
        assert [v.hex() for v in c.tolist()] == bits


def test_expansion_inner_truncation_certificate():
    with pytest.raises(ValueError, match="certified truncation bound"):
        laplace.laplace_expansion(4.0, 4)
    with pytest.raises(ValueError, match="beyond the cap"):
        laplace.laplace_expansion(1.0, 34)  # depth past the stirling rows


def test_expansion_large_s_beyond_cap():
    # |s|^2 too large for the capped stirling rows to certify
    with pytest.raises(ValueError, match="cannot certify"):
        laplace.laplace_expansion(6.5, 4)


def test_density_polynomial_route_consistency():
    # <t^2> under the density equals the l=0 and l=2 terms: 1 + 0/N^2
    got = quadrature.density_rule(7, 2).integrate(lambda t: t * t)
    assert got == pytest.approx(1.0, rel=1e-13)
