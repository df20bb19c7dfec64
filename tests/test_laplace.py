"""Tests for closed-form Laplace transforms, Stirling tables, and the
large-N coefficient expansion of the density transform."""

import cmath
import itertools
import math
import warnings
from fractions import Fraction

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


TRANSFORM_GRID = [(n, s, c) for n in (1, 2, 8, 64, 256) for s in (0.5, 3.0, -2.0, 1 + 2j, 20j)
                  for c in (0.0, 1e-300, 0.3, 1.0)] + [(2, 0.5, 0.0), (4, 1.0, 0.5), (3, 2j, 0.3)]

# Rounding of the Gauss sums, in units of eps max(|value|, N): the worst
# measured on the grid is 107 (N=256, s=3, c=0.3, where terms of size 5e3
# cancel to 0.21).
ROUNDING = 256 * np.finfo(float).eps


def test_kernel_laplace_against_quadrature():
    """The Gauss sums of verify.kernel_pair_transform against the 300-digit
    sum: within their remainder plus rounding, with the remainder certified
    below 2^-44 max(|value|, N) (0.0 at real s, where the sum is exact),
    and the closed form within 1e-13 of them."""
    from guespec import verify
    for (n, s, c) in TRANSFORM_GRID:
        want = laguerre_reference(n, s, c)
        value, remainder = verify.kernel_pair_transform(n, s, c)
        scale = max(abs(want), n)
        assert isinstance(value, complex) == isinstance(s, complex), (n, s, c)
        assert remainder == 0.0 if not isinstance(s, complex) else 0.0 < remainder
        assert remainder <= 2.0 ** -44 * scale, (n, s, c, remainder)
        assert abs(value - want) <= remainder + ROUNDING * scale, (n, s, c, value, want)
        assert abs(laplace.kernel_laplace(n, s, c) - value) <= 1e-13 * scale, (n, s, c)


def gauss_sums(n, m, pairs):
    """verify._gauss_sums of the (s, c) pairs at rung m, in one pass."""
    from guespec import verify
    return verify._gauss_sums(n, m, verify._kernel_rule(n, m), pairs)


LADDER_PAIRS = [(s, c) for s in (1 + 2j, 20j) for c in (0.0, 0.3, 1.0)]


@pytest.mark.parametrize("n,s,c", [(n, s, c) for n in (1, 2, 8, 64, 256)
                                   for s, c in LADDER_PAIRS])
def test_gauss_sum_remainder_is_never_below_its_error(n, s, c):
    """Every rung of the node ladder, up to the certified one: the error of
    the m-node sum, truncation and rounding, lies within its remainder
    plus rounding.  Each rung's sum is also taken in one batch with the
    other five (s, c) of its N and a real s, with the same bits."""
    want = laguerre_reference(n, s, c)
    m = n
    while True:
        (value, remainder), = gauss_sums(n, m, [(s, c)])
        assert abs(value - want) <= remainder + ROUNDING * max(abs(want), n), (m, remainder)
        batch = gauss_sums(n, m, LADDER_PAIRS + [(0.5, c)])
        assert repr(batch[LADDER_PAIRS.index((s, c))]) == repr((value, remainder)), m
        assert repr(batch[-1]) == repr(gauss_sums(n, m, [(0.5, c)])[0]), m
        if remainder <= 2.0 ** -44 * max(abs(value), n):
            break
        m = n + max(1, 2 * (m - n))


# (s1, s2, c1): the second pair's offset c2 is chosen so that both share
# N c^2 - s^2/N, s2^2 - s1^2 being real.  Real s, complex s, and an
# imaginary s re-paired to a real one.
MATCHED = ((0.5, 2.0, 0.0), (1.0, 3.0, 0.3), (-2.0, 2.5, 1.0),
           (1 + 1j, 2 + 0.5j, 0.3), (0.5 + 2j, 1 + 1j, 0.0), (-1 + 2j, 2 - 1j, 0.6),
           (1j, 0.0, 0.3), (3j, 1.0, 0.1), (2j, 2.0, 0.0))


def test_transform_depends_only_on_invariant_combination():
    """(s, c) enter the transform only through N c^2 - s^2/N and the
    prefactor e^{s^2/2N - N c^2/2}: checked on the Gauss sums of
    ``kernel_pair_transforms``, which do not use the closed form.  Within
    the certified remainders plus 1e-10 max(|v1|, |v2|, N); the worst gap
    measured is 2.8e-11 of that scale (N = 256, s = 1 and 3)."""
    from guespec import verify

    for n in (1, 2, 5, 16, 64, 256):
        pairs = []
        for s1, s2, c1 in MATCHED:
            c2 = math.sqrt(c1 * c1 + ((s2 * s2 - s1 * s1) / (n * n)).real)
            pairs += [(s1, c1), (s2, c2)]
        results = iter(zip(pairs, verify.kernel_pair_transforms(n, pairs)))
        for ((s1, c1), (v1, r1)), ((s2, c2), (v2, r2)) in zip(results, results):
            f1 = cmath.exp(-(s1 * s1 / n - n * c1 * c1) / 2.0)
            f2 = cmath.exp(-(s2 * s2 / n - n * c2 * c2) / 2.0)
            u1, u2 = v1 * f1, v2 * f2
            allowed = r1 * abs(f1) + r2 * abs(f2) + 1e-10 * max(abs(u1), abs(u2), n)
            assert abs(u1 - u2) <= allowed, (n, s1, s2)


def test_kernel_laplace_type_stability():
    assert isinstance(laplace.kernel_laplace(3, 0.5), float)
    assert isinstance(laplace.kernel_laplace(3, 0.5 + 0.0j), complex)
    assert isinstance(laplace.kernel_laplace(3, 1j), complex)


# ------------------------------------------------------ characteristic function

VERIFY_SIZES = (1, 2, 3, 5, 8, 16, 32, 64, 128, 200, 256)
VERIFY_GRID = np.arange(241) * 0.25


def assert_is_the_complex_route(n, ws):
    """characteristic_function(n, ws) and its scalar calls equal the real
    parts of density_laplace(n, 1j * w) with ==, and have their bits wherever
    they are nonzero: an underflowed zero may differ in sign."""
    want = [laplace.density_laplace(n, 1j * w).real for w in ws.tolist()]
    for got in (laplace.characteristic_function(n, ws).tolist(),
                [laplace.characteristic_function(n, w) for w in ws.tolist()]):
        assert got == want
        assert [v.hex() for v in got if v] == [v.hex() for v in want if v]


@pytest.mark.parametrize("n", VERIFY_SIZES)
def test_characteristic_function_is_the_complex_route_on_the_verify_grid(n):
    assert_is_the_complex_route(n, VERIFY_GRID)


def test_characteristic_function_is_the_complex_route_at_random_w():
    rng = np.random.default_rng(20)
    for n in [*range(1, 40), 64, 100, 128, 200, 256]:
        assert_is_the_complex_route(n, rng.uniform(0.0, 80.0, 100))


# The start e^{700 - x/2} underflows from x = 2890.3 on: w = 53.8 sqrt(N).
# Around that edge it is subnormal; past it the array takes x = 0 there.
@pytest.mark.parametrize("n", [1, 2, 4, 16, 256])
def test_characteristic_function_where_the_start_underflows(n):
    edge = math.sqrt(2890.3 * n)
    ws = np.array([1.0, edge * 0.999, edge * 0.9999, edge, edge * 1.0001, edge * 1.01,
                   edge * 1.5, edge * 10.0, 1e100, 1e150])
    assert_is_the_complex_route(n, ws)
    assert laplace.characteristic_function(n, ws)[-4:].tolist() == [0.0] * 4


def test_characteristic_function_past_the_double_range_of_w_squared_is_zero():
    # w * w is inf past 1.34e154: the start is 0.0 and no step forms inf * 0.
    ws = np.array([[0.5, 1e155], [1e300, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = laplace.characteristic_function(8, ws)
    want = [laplace.characteristic_function(8, 0.5), 0.0, 0.0,
            laplace.characteristic_function(8, 2.0)]
    assert got.ravel().tolist() == want
    assert laplace.characteristic_function(8, 1e300) == 0.0


def test_characteristic_function_shapes():
    ws = VERIFY_GRID[:240].reshape(12, 20)
    flat = laplace.characteristic_function(5, ws.ravel())
    assert flat.shape == (240,) and flat.dtype == np.float64
    assert laplace.characteristic_function(5, ws).tolist() == flat.reshape(12, 20).tolist()
    assert laplace.characteristic_function(5, ws.T).tolist() == flat.reshape(12, 20).T.tolist()
    zero_d = laplace.characteristic_function(5, np.array(1.5))
    assert zero_d.shape == () and zero_d == laplace.characteristic_function(5, 1.5)
    assert type(laplace.characteristic_function(5, 1.5)) is float
    assert type(laplace.characteristic_function(5, 3)) is float
    assert laplace.characteristic_function(5, [1.5, 3]).tolist() == [
        laplace.characteristic_function(5, 1.5), laplace.characteristic_function(5, 3)]
    assert laplace.characteristic_function(5, np.zeros(0)).shape == (0,)
    with pytest.raises(ValueError):
        laplace.characteristic_function(0, 1.0)


def test_characteristic_function_at_one_is_the_gaussian():
    # p_1 is the standard normal density: phi_1(w) = e^{-w^2/2}, the one
    # start weight, with no recurrence step.
    got = laplace.characteristic_function(1, VERIFY_GRID)
    assert got.tolist() == [math.exp(-(w * w / 1) / 2.0) for w in VERIFY_GRID.tolist()]
    assert got[0] == 1.0 == laplace.characteristic_function(1, 0.0)


def test_characteristic_function_against_mpmath():
    # phi_N(w) = e^{-x/2} 1F1(1 - N; 2; x), x = w^2 / N.  The measured worst
    # relative error on this grid is 8.5e-14, at N = 256, w = 1.
    ws = np.array([0.0, 0.3, 1.0, 2.5, 7.0, 13.0, 25.0, 60.0])
    worst = 0.0
    with mp.workdps(40):
        for n in (1, 2, 5, 16, 64, 256):
            for w, got in zip(ws.tolist(), laplace.characteristic_function(n, ws).tolist()):
                x = mp.mpf(w) ** 2 / n
                want = float(mp.exp(-x / 2) * mp.hyp1f1(1 - n, 2, x))
                if abs(want) < 1e-290:  # below the double range: the recurrence gives 0.0
                    assert got == 0.0
                    continue
                worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 2e-13


def _same_bits(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def test_one_laguerre_pass_for_every_size_is_the_scalar_loop():
    """phi_N for N = 1..256 from one pass over the concatenated blocks has,
    entry by entry, the bits of the scalar call, whose recurrence is a loop
    of Python floats: at 0, the smallest subnormal, around the edge where
    the start underflows (w = 53.8 sqrt(N)), where w * w passes 1e308 and
    where it overflows.  A block that left the pass one row early or late
    would differ."""
    edges = [math.sqrt(2890.3 * n) * f for n in (1, 2, 3, 16, 64, 200, 256)
             for f in (0.999, 0.9999, 1.0, 1.0001, 1.01)]
    ws = np.array([0.0, 5e-324, 1e-300, 0.25, 1.0, 2.5, 7.0, 13.0, 25.0, 60.0, 400.0, 1e100,
                   1e154, 1.3e154, 1e200, *edges])
    sizes = tuple(range(1, 257))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = laplace._characteristic_functions(sizes, ws)
    assert len(got) == len(sizes)
    for n, phi in zip(sizes, got):
        want = [laplace.characteristic_function(n, w) for w in ws.tolist()]
        assert [v.hex() for v in phi.tolist()] == [v.hex() for v in want], n
    # Repeated and single sizes, and 2-D and 0-d w, as the one-size calls.
    grid = VERIFY_GRID[:240].reshape(12, 20)
    for sizes in [(3, 3, 7), (256,), (1,)]:
        for w in (grid, np.array(30.5)):
            for n, phi in zip(sizes, laplace._characteristic_functions(sizes, w), strict=True):
                assert _same_bits(phi, laplace.characteristic_function(n, w))


def test_verify_sweep_prints_what_the_scalar_route_printed(monkeypatch, capsys):
    # The characteristic-function check of the laplace suite ran one scalar
    # density_laplace(n, 1j * w) call per point; its text must not move.
    from guespec.cli import main

    assert main(["verify", "--suite", "laplace"]) == 0
    array_text = capsys.readouterr().out
    monkeypatch.setattr(laplace, "_characteristic_functions", lambda sizes, ws: [np.array(
        [abs(laplace.density_laplace(n, 1j * w)) for w in ws]) for n in sizes])
    assert main(["verify", "--suite", "laplace"]) == 0
    assert capsys.readouterr().out == array_text
    assert "characteristic function bounded by 1" in array_text


def test_verify_sweep_fails_on_a_nan(monkeypatch):
    # Python's max(worst, nan) keeps worst; the sweep must not drop a nan.
    from guespec import verify

    phis = laplace._characteristic_functions
    monkeypatch.setattr(laplace, "_characteristic_functions", lambda sizes, ws: [
        np.where(ws > 30.0, np.nan, phi) if n == 64 else phi
        for n, phi in zip(sizes, phis(sizes, ws))])
    check, = (c for c in verify.suite_laplace()
              if c.name == "characteristic function bounded by 1")
    assert not check.passed and "= nan over" in check.detail


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
    assert c[8] == 1.2839526798028618e-08  # the 50-digit value, rounded


def test_expansion_odd_coefficients_vanish():
    c = laplace.laplace_expansion(1.3, 9)
    assert c[1::2].tolist() == [0.0] * 5


def test_genus_counts_are_the_moments():
    counts = laplace._genus_counts(20, 10)
    for m in range(21):
        assert counts[0][m] == math.comb(2 * m, m) // (m + 1)  # Catalan
        assert sum(row[m] for row in counts) == math.prod(range(1, 2 * m, 2))  # (2m-1)!!
        if m >= 2:
            assert counts[1][m] == math.factorial(2 * m) // (
                12 * math.factorial(m) * math.factorial(m - 2))
    # The moments of p_N: the N=1 row sum above, and Gauss rules of p_N.
    for n in (2, 3, 5):
        rule = quadrature.density_rule(n, 24)
        for m in range(13):
            want = sum(Fraction(row[m], n ** (2 * g)) for g, row in enumerate(counts))
            got = float(rule.integrate(lambda t: t ** (2 * m)))
            assert got == pytest.approx(float(want), rel=1e-12)


def _fraction_moments(n, k_max):
    """M_0, M_2, ..., M_{2 k_max} of p_N as Fractions, from the Harer-Zagier
    recursion in M itself: (k+2) M_{2k+2} = (4k+2) M_{2k}
    + k(4k^2-1) N^{-2} M_{2k-2}."""
    moments = [Fraction(1), Fraction(1)]
    for k in range(1, k_max):
        moments.append(((4 * k + 2) * moments[k]
                        + Fraction(k * (4 * k * k - 1), n * n) * moments[k - 1]) / (k + 2))
    return moments[:k_max + 1]


@pytest.mark.parametrize("n", [1, 2, 8, 256])
def test_even_moments_are_the_fraction_recursion_and_the_genus_sums(n):
    """N^k M_{2k} to degree 646, the largest the basis conversion takes."""
    scaled = laplace._even_moments(n, 323)
    assert all(type(m) is int for m in scaled)
    assert [Fraction(m, n ** k) for k, m in enumerate(scaled)] == _fraction_moments(n, 323)
    counts = laplace._genus_counts(323, 161)
    for k, m in enumerate(scaled):
        assert m == sum(row[k] * n ** (k - 2 * g) for g, row in enumerate(counts[:k // 2 + 1]))
        assert not any(row[k] for row in counts[k // 2 + 1:])
    assert laplace._even_moments(n, 0) == [1]


@pytest.mark.parametrize("n,coefficients", [
    (1, [0.0] * 4 + [1.0]), (2, [0.0] * 4 + [1.0]), (8, [0.0] * 10 + [1.0]),
    (256, [0.0] * 26 + [1.0]), (256, [0.0] * 646 + [1.0]), (3, [0.0] * 7 + [1.0]),
    (5, [0.3, -1.0, 0.1, 2.5, -0.7, 0.0, 1e-3]), (64, [-1.0] * 41), (4, [0.0] * 21 + [-1.0])],
    ids=["t4-1", "t4-2", "t10-8", "t26-256", "t646-256", "odd", "mixed", "ones", "odd-neg"])
def test_polynomial_average_is_the_rounded_exact_value(n, coefficients):
    moments = _fraction_moments(n, len(coefficients) // 2)
    want = sum(Fraction(c) * moments[p // 2] for p, c in enumerate(coefficients) if p % 2 == 0)
    got = laplace.polynomial_average(n, coefficients)
    assert type(got) is float and repr(got) == repr(float(want))


def test_polynomial_average_past_the_double_range_is_infinite():
    # M_640 at N=1 is 639!!, about 1e762.
    assert laplace.polynomial_average(1, [0.0] * 640 + [1.0]) == math.inf
    assert laplace.polynomial_average(1, [0.0] * 640 + [-1.0]) == -math.inf
    assert laplace.polynomial_average(1, [1e308] * 3) == math.inf


GAUSS_SIZES = list(range(1, 40)) + [64, 100, 128, 200, 255, 256]


# Measured: at most 1.2e-14 relative over this grid (N=256, sigma = 76.8).
@pytest.mark.parametrize("n", GAUSS_SIZES)
def test_gauss_average_against_60_digits(n):
    """r 2F1(1 - N, 1/2; 2; -4v) is the Laguerre sum term by term."""
    sigmas = [0.0, 0.01, 0.05, 0.1, 0.2, 0.45, 0.95, 2.0, 0.1 * n, 0.3 * n, 0.45 * n, 0.49 * n]
    with mp.workdps(60):
        for sigma in sigmas:
            if not sigma < n / 2:
                continue
            s = mp.mpf(sigma)
            want = mp.sqrt(n / (n - 2 * s)) * mp.hyp2f1(1 - n, mp.mpf(1) / 2, 2, -4 * s / (n - 2 * s))
            got = laplace.gauss_average(n, sigma)
            if want > mp.mpf(np.finfo(float).max):
                assert got == math.inf, sigma
            else:
                assert abs(got - want) <= 5e-14 * want, sigma


def test_gauss_average_edges():
    # N=256, sigma = 0.49 N: the integral is 7.6e505.
    assert laplace.gauss_average(256, 125.44) == math.inf
    for n, sigma in [(1, 0.0), (256, 0.0), (4, -0.0)]:
        assert laplace.gauss_average(n, sigma) == 1.0
    for n, sigma in [(2, 1.0), (4, -0.1), (4, math.nan), (256, 128.0)]:
        with pytest.raises(ValueError, match="sigma < N/2"):
            laplace.gauss_average(n, sigma)


def _stirling_mirror(s, depth):
    """c_0..c_depth of laplace_expansion from the unsigned Stirling numbers
    of the first kind, in 120 digits: c_l = sum_j (s^2/2)^j / j! (-1)^(l-j)
    B_(l-j), B_l = sum_k [k+1, k+1-l] s^(2k) / (k! (k+1)!).  The alternating
    sum cancels about 50 digits at c_34(1) = 6.0e-51."""
    with mp.workdps(120):
        s2 = mp.mpmathify(s) ** 2
        terms = depth + 1
        while abs(s2) ** terms / mp.factorial(terms) > mp.mpf(10) ** -130:
            terms += 1
        rows = [[1]]
        for n in range(terms + 1):
            new = [0] * (n + 2)
            for k, value in enumerate(rows[-1]):
                new[k] += n * value
                new[k + 1] += value
            rows.append(new)
        inner = [mp.fsum(rows[k + 1][k + 1 - l] * s2 ** k / (mp.factorial(k) * mp.factorial(k + 1))
                         for k in range(l, terms + 1)) for l in range(depth + 1)]
        out = [mp.fsum((s2 / 2) ** j / mp.factorial(j) * (-1) ** (l - j) * inner[l - j]
                       for j in range(l + 1)) for l in range(depth + 1)]
        return [complex(c) if isinstance(s, complex) else float(c) for c in out]


def test_expansion_partial_sums_hit_closed_form():
    for n in (4, 8):
        c = laplace.laplace_expansion(1.0, 10)
        powers = (1.0 / n) ** np.arange(11)
        approx = float(np.sum(c * powers))
        want = laplace.density_laplace(n, 1.0)
        assert approx == pytest.approx(want, abs=5e-12)


def test_expansion_matches_operator_route():
    """Same numbers from a different pipeline: expand e^{st} in the basis
    and push it through the correction functionals.  Measured worst gap
    7.0e-16 relative, at s = 1, k = 6."""
    for s in (1, 2):
        taylor = [s ** k / math.factorial(k) for k in range(81)]  # the degree resum takes
        alphas = operators.correction_functionals(gegenbauer.taylor_to_basis(taylor), 12)
        c = laplace.laplace_expansion(s, 24)
        assert alphas.tolist() == pytest.approx(c[::2].tolist(), rel=2e-15, abs=0)


def test_expansion_complex_argument():
    c = laplace.laplace_expansion(0.5j, 6)
    assert c.dtype == complex
    # c_0(s) = <e^{st}> is real and even in s, so purely imaginary s still
    # gives real leading behavior
    assert abs(c[0].imag) < 1e-14


_ZERO_S_BITS = ["0x1.0000000000000p+0"] + ["0x0.0p+0"] * 4


# Frozen bits of laplace_expansion(s, 4): float64 for real s, the integer 0
# included, and complex128 for complex s; odd coefficients are exactly zero.
@pytest.mark.parametrize("s,dtype,bits", [
    (0, np.float64, _ZERO_S_BITS),
    (0.0, np.float64, _ZERO_S_BITS),
    (1.3, np.float64, ["0x1.0f4ca43f6051cp+1", "0x0.0p+0", "0x1.9d8791b0b973ep-3",
                       "0x0.0p+0", "0x1.a562f42a41935p-8"]),
    (0.7 + 0.4j, np.complex128, [
        ("0x1.256073a3cbb56p+0", "0x1.3e419fd70df72p-2"), ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.9998be18e2a52p-7", "0x1.f2f7828635428p-7"), ("0x0.0p+0", "0x0.0p+0"),
        ("-0x1.5957b8643da27p-15", "-0x1.842118a79e538p-14")]),
    (2j, np.complex128, [
        ("-0x1.0e8372dfaeab5p-5", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.f12802f544a2ep-4", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0"),
        ("0x1.545fa78e22382p-5", "0x0.0p+0")]),
])
def test_expansion_dtype_and_bits_follow_s(s, dtype, bits):
    c = laplace.laplace_expansion(s, 4)
    assert c.dtype == dtype
    if dtype is np.complex128:
        assert [(v.real.hex(), v.imag.hex()) for v in c.tolist()] == bits
    else:
        assert [v.hex() for v in c.tolist()] == bits
    assert c[::2].tolist() == _stirling_mirror(s, 4)[::2]


# Large |s|, and deep coefficients down to c_34(1) = 6.0e-51.
@pytest.mark.parametrize("s,depth", [(4.0, 4), (6.5, 4), (1.0, 34), (3j, 34), (0.7 + 0.4j, 34)],
                         ids=["s4", "s6.5", "depth34", "s3i-depth34", "complex-depth34"])
def test_expansion_at_large_s_and_depth_matches_the_mirror(s, depth):
    c = laplace.laplace_expansion(s, depth)
    want = _stirling_mirror(s, depth)
    assert c[::2].tolist() == want[::2]
    assert not np.any(c[1::2])


def test_expansion_refuses_past_the_term_bound():
    with pytest.raises(ValueError, match="needs more than 200 terms"):
        laplace.laplace_expansion(25.0, 4)
    with pytest.raises(ValueError, match="needs more than 200 terms"):
        laplace.laplace_expansion(1.0, 202)


def test_density_polynomial_route_consistency():
    # <t^2> under the density equals the l=0 and l=2 terms: 1 + 0/N^2
    got = quadrature.density_rule(7, 2).integrate(lambda t: t * t)
    assert got == pytest.approx(1.0, rel=1e-13)


def test_batched_kernel_transforms_keep_the_bits_of_one_pair_calls(monkeypatch):
    """All (s, c) pairs of an N in one call, as suite_laplace makes it:
    every transform equals its one-pair call bit for bit, each rule is
    built once per call, keyed by (N, node count), and left as built, and
    the complex s take two more rungs of the node ladder (the rungs
    between, whose Gauss error term alone misses the target, are skipped
    unbuilt)."""
    from guespec import verify
    build = verify._kernel_rule
    built = []
    monkeypatch.setattr(verify, "_kernel_rule",
                        lambda n, m: built.append((n, m, build(n, m))) or built[-1][2])
    keys = []
    # At N = 64, c = 7 the weighted rows start lifted (N c^2 / 4 > 700),
    # and the sum takes e^{-2L} into its weights.
    for n, offsets in ((2, (0.0, 0.3)), (5, (0.0, 0.3)), (64, (7.0,))):
        pairs = [(s, c) for c in offsets for s in (0.5, -1.0, 2j, 1 + 3j)]
        want = [repr(verify.kernel_pair_transform(n, s, c)) for s, c in pairs]
        built.clear()
        assert [repr(v) for v in verify.kernel_pair_transforms(n, pairs)] == want, n
        call_keys = [(k, m) for k, m, _ in built]
        assert len(set(call_keys)) == len(call_keys), call_keys
        keys += call_keys
        for k, m, (u, lam) in built:
            fresh_u, fresh_lam = build(k, m)
            assert u.tobytes() == fresh_u.tobytes() and lam.tobytes() == fresh_lam.tobytes()
    assert sorted(keys) == [(2, 2), (2, 18), (2, 34), (5, 5), (5, 21), (5, 37), (64, 64),
                            (64, 80)]


def test_genus_counts_extend_in_place():
    table = laplace._genus_counts(4, 3)
    assert laplace._genus_counts(30, 3, table) is table
    assert table == laplace._genus_counts(30, 3)


def test_laplace_expansion_builds_one_count_table(monkeypatch):
    """The table is built once per call and extended as the term count M
    grows, here from 4 to 35."""
    tables, sizes = [], []
    counts = laplace._genus_counts

    def spy(m_max, g_max, rows=None):
        tables.append(rows is None)
        sizes.append(m_max)
        return counts(m_max, g_max, rows)
    monkeypatch.setattr(laplace, "_genus_counts", spy)
    laplace.laplace_expansion(3.0, 4)
    assert (tables, sizes) == ([True, False], [4, 35])
