"""Tests for the weighted oscillator frame, kernel, and density."""

import math
import re
import tracemalloc
import warnings
from collections import deque

import mpmath as mp
import numpy as np
import pytest

from guespec import hermite, quadrature, verify

SQRT_PI = math.sqrt(math.pi)


def test_density_n1_is_standard_normal():
    x = np.linspace(-3, 3, 7)
    want = np.exp(-x * x / 2) / math.sqrt(2 * math.pi)
    assert np.allclose(hermite.density(1, x), want, rtol=1e-14)


def test_density_origin_values():
    # frozen: p_1(0) = 1/sqrt(2 pi), p_2(0) = 1/(2 sqrt(pi))
    assert float(hermite.density(1, 0.0)) == pytest.approx(0.3989422804014327, rel=1e-12)
    assert float(hermite.density(2, 0.0)) == pytest.approx(1.0 / (2.0 * SQRT_PI), rel=1e-12)


def test_kernel_diag_n1():
    # K_1(x,x) = psi_0^2 = (1/sqrt(2pi)) e^{-x^2/2} at N=1
    x = 0.7
    want = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    assert float(hermite.kernel_diag(1, x)) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("k,l", [(0, 0), (1, 1), (3, 3), (0, 2), (1, 4), (5, 7), (12, 12), (9, 12)])
def test_weighted_frame_orthonormality(n, k, l):
    """int psi_k psi_l dx = delta_kl via a Gaussian rule of ample degree."""
    rule = quadrature.gaussian_rule(n, 16)

    def integrand(x):
        h = hermite.normalized_hermite(n, 12, x)
        return h[k] * h[l]

    # gaussian_rule integrates poly * exp(-n x^2/2) with the weight built in;
    # htilde_k htilde_l is a polynomial of degree k+l <= 24 < 2*16
    got = float((rule.weights * integrand(rule.nodes)).sum())
    assert got == pytest.approx(1.0 if k == l else 0.0, abs=2e-13)


def test_frame_values_match_weighted_recurrence():
    x = np.linspace(-2.5, 2.5, 11)
    n = 6
    psi, _ = hermite.weighted_frame(n, 5, x)
    htilde = hermite.normalized_hermite(n, 5, x)
    assert np.allclose(psi, htilde * np.exp(-n * x * x / 4.0), rtol=1e-13)


def test_derivative_ladder_against_finite_differences():
    n, k_max = 7, 6
    x = np.array([0.35, -1.2, 1.9])
    h = 1e-6
    _, dpsi = hermite.weighted_frame(n, k_max, x)
    up, _ = hermite.weighted_frame(n, k_max, x + h)
    dn, _ = hermite.weighted_frame(n, k_max, x - h)
    fd = (up - dn) / (2 * h)
    assert np.max(np.abs(fd - dpsi)) < 1e-7


def test_kernel_symmetry_and_diag_consistency():
    n = 5
    assert hermite.kernel(n, 0.4, 1.3) == hermite.kernel(n, 1.3, 0.4)
    near = hermite.kernel(n, 0.5, 0.5 + 1e-7)
    diag = float(hermite.kernel_diag(n, 0.5))
    assert near == pytest.approx(diag, rel=1e-6)
    # on the diagonal the Christoffel sum is kernel_diag's
    assert hermite.kernel(n, 0.5, 0.5) == diag


@pytest.mark.parametrize("n", [1, 2, 17, 256])
def test_top_rows_are_the_frame_rows_bitwise(n):
    """Rows n-1 and n of a pass over the three ring buffers, as the density
    takes them, and their ladders, each times e^{-L}, are the rows of
    ``weighted_frame``."""
    # |x| = 5.5 at N = 256 lifts the start (N x^2 / 4 > 700)
    x = np.array([-5.5, -1.3, 0.0, 0.4, 2.0, 5.5])
    psi, dpsi = hermite.weighted_frame(n, n, x)
    start, lift, xw = hermite._weighted_start(n, x)
    work = np.empty((6, x.size))
    rows = hermite._rows(n, n, xw, start, hermite._ring(n, work), work[3])
    (below, _), (low, high) = deque(rows, maxlen=2)
    half_nx = n * xw / 2.0
    dlow = hermite._ladder(n, n - 1, half_nx, below, low, work[4], work[3])
    dhigh = hermite._ladder(n, n, half_nx, low, high, work[5], work[3])
    unlift = np.exp(-lift)
    for got, want in [(low, psi[n - 1]), (high, psi[n]), (dlow, dpsi[n - 1]), (dhigh, dpsi[n])]:
        assert np.array_equal(got * unlift, want)


@pytest.mark.parametrize("n,x,y", [(1, 0.3, -1.1), (5, 0.4, 1.3), (64, 0.5, 0.5 + 1e-7),
                                   (64, -1.2, -1.2), (256, 0.7, 0.7 + 5e-7), (256, 1.9, -0.2)])
def test_kernel_is_the_frame_formula_bitwise(n, x, y):
    """The Christoffel sum of the frame rows, added from 0.0 in row order,
    near the diagonal, on it and off it (no point here is lifted)."""
    px, _ = hermite.weighted_frame(n, n - 1, np.float64(x))
    py, _ = hermite.weighted_frame(n, n - 1, np.float64(y))
    want = 0.0
    for k in range(n):
        want = want + px[k] * py[k]
    assert repr(hermite.kernel(n, x, y)) == repr(float(want))


# The pairs of the mpmath test: x and y - x from these.
KERNEL_X = (0.0, 0.3, 1.5, -1.5, 1.9, 2.2, 2.6, 3.3)
KERNEL_GAPS = (0.0, 1e-9, 1e-7, 1e-6, 2e-6, 1e-3, 0.05, 0.7, 2.0)


def _mp_rows(n, t):
    """psi_0(t) .. psi_{n-1}(t) at the working precision of mpmath."""
    t = mp.mpf(t)
    rows = [mp.power(2 * mp.pi / n, mp.mpf(-1) / 4) * mp.exp(-n * t * t / 4)]
    previous = mp.mpf(0)
    for k in range(n - 1):
        rows.append(t * mp.sqrt(mp.mpf(n) / (k + 1)) * rows[-1]
                    - mp.sqrt(mp.mpf(k) / (k + 1)) * previous)
        previous = rows[-2]
    return rows


@pytest.mark.parametrize("n", [1, 2, 5, 10, 32, 64, 128, 256])
def test_kernel_is_the_christoffel_sum_against_mpmath(n):
    """Within 1e-13 sqrt(K(x, x) K(y, y)) of sum_k psi_k(x) psi_k(y) at 60
    digits, near the diagonal too (the Christoffel-Darboux ratio with a
    midpoint form inside |x - y| <= 1e-6 was off by 1.1e-8 there at
    N = 256), at the pairs where N x^2/4 and N y^2/4 stay below 1095."""
    pairs = [(x, x + gap) for x in KERNEL_X for gap in KERNEL_GAPS
             if max(x * x, (x + gap) ** 2) * n / 4.0 < 1095.0]
    x, y = (np.array(v) for v in zip(*pairs))
    with mp.workdps(60):
        rows = {t: _mp_rows(n, t) for t in set(x.tolist() + y.tolist())}
        want = np.array([float(mp.fsum(a * b for a, b in zip(rows[s], rows[t])))
                         for s, t in pairs])
        # Taken in mpmath: K(x, x) K(y, y) leaves the double range first.
        allowed = np.array([float(mp.mpf("1e-13") * mp.sqrt(mp.fsum(a * a for a in rows[s])
                                                           * mp.fsum(b * b for b in rows[t])))
                            for s, t in pairs])
    assert np.all(np.abs(hermite.kernel(n, x, y) - want) <= allowed), n


def _reference_kernel(n, x, y):
    """K_N(x, y) from ``_reference_rows`` over x then y, one fresh array per
    operation, the lifts taken out at the end."""
    start, lift, points = hermite._weighted_start(n, np.concatenate([x, y]))
    total = 0.0
    for _, row in _reference_rows(n, n - 1, points, start):
        total = total + row[:x.size] * row[x.size:]
    return total * np.exp(-(lift[:x.size] + lift[x.size:]))


@pytest.mark.parametrize("n", [1, 2, 17, 64, 256])
def test_kernel_is_the_allocating_recurrence_bitwise(n):
    """Every pair of EXTREME_GRID against the grid reversed and halved:
    lifted, underflowing and overflowing points included."""
    x = np.repeat(EXTREME_GRID, EXTREME_GRID.size)
    y = np.tile(EXTREME_GRID[::-1] * 0.5, EXTREME_GRID.size)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_kernel(n, x, y)
    assert _same_bits(hermite.kernel(n, x, y), want)


def test_kernel_on_the_diagonal_is_kernel_diag_bitwise():
    """K_N(x, x) is kernel_diag's bits at every size, on a grid past the
    edge and on EXTREME_GRID, and K_N(x, y) is K_N(y, x) bit for bit."""
    grid = np.concatenate([np.linspace(-3.5, 3.5, 101), EXTREME_GRID])
    other = grid[::-1] * 0.75
    for n in range(1, 257):
        assert _same_bits(hermite.kernel(n, grid, grid), hermite.kernel_diag(n, grid)), n
        assert _same_bits(hermite.kernel(n, grid, other), hermite.kernel(n, other, grid)), n


def test_kernel_on_arrays_is_the_scalar_loop():
    """One pass over broadcast x and y gives every pair's scalar value, by
    repr: near the diagonal and off it, past the edge (where the start
    lifts at N = 256, and where it underflows), and at +-the largest
    double, where N x^2 overflows, the rows run from a zero start and no
    warning is raised."""
    big = 1.7976931348623157e308
    x = np.array([-1.2, 0.5, 0.5, 5.5, 40.0, big, big, -big, 0.3, 2.1])
    y = np.array([0.7, 0.5 + 1e-7, 0.5, 5.5 + 5e-7, -40.0, big, -big, big, -1.1, 2.1 - 2e-6])
    for n in (1, 5, 64, 256):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = hermite.kernel(n, x, y)
            grid = hermite.kernel(n, x[:, None], y)
            row = hermite.kernel(n, 0.3, y)
        assert pairs.shape == x.shape and grid.shape == (x.size, y.size) and row.shape == y.shape
        loop = [[repr(hermite.kernel(n, a, b)) for b in y.tolist()] for a in x.tolist()]
        assert [repr(v) for v in pairs.tolist()] == [loop[i][i] for i in range(x.size)], n
        assert [[repr(v) for v in r] for r in grid.tolist()] == loop, n
        assert [repr(v) for v in row.tolist()] == loop[8], n
        assert pairs[6] == pairs[7] == 0.0
    assert type(hermite.kernel(4, 0.3, 1.1)) is float
    assert type(hermite.kernel(4, np.float64(0.5), 0.5)) is float


def test_pair_transform_holds_no_frame():
    """The Gauss sums stream the rows of the recurrence: at s = 60i the
    ladder reaches 512 nodes, where one (256, 512) frame alone takes 1 MiB.
    The peak is about 0.06 MiB at s = 1 and 0.13 MiB at s = 60i."""
    for s in (1.0, 60j):
        tracemalloc.start()
        try:
            verify.kernel_pair_transforms(256, [(s, 0.3)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, s


def test_kernel_on_the_diagonal_at_the_largest_double():
    # N x^2 / 4 overflows to inf: the start is 0.0 and no factor is inf.
    assert hermite.kernel(4, 1.7976931348623157e308, 1.7976931348623157e308) == 0.0


def test_kernel_refuses_non_finite_points_and_the_removed_crossover():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            hermite.kernel(4, bad, 0.3)
        with pytest.raises(ValueError, match="finite"):
            hermite.kernel(4, np.array([0.3, 1.0]), np.array([bad, 0.0]))
    with pytest.raises(TypeError):
        hermite.kernel(4, 0.3, 0.3, crossover=1e-9)


def test_kernel_rank_one_case():
    # N=1: K_1(x,y) = psi_0(x) psi_0(y)
    x, y = 0.3, -1.1
    want = (math.exp(-x * x / 4.0) * math.exp(-y * y / 4.0)) / math.sqrt(2.0 * math.pi)
    assert hermite.kernel(1, x, y) == pytest.approx(want, rel=1e-13)


def test_ode_residual_small_on_grid():
    x = np.linspace(-4, 4, 101)
    for n in (1, 4, 9):
        res = hermite.ode_residual(n, x)
        p0, p1, _, p3 = hermite.density_derivatives(n, x)
        scale = np.maximum(np.abs(p0), np.maximum(np.abs(p1), np.abs(p3) / n ** 2))
        assert np.max(np.abs(res) / np.maximum(scale, 1e-300)) < 1e-10


def test_density_derivatives_match_finite_differences():
    n, x0, h = 6, 0.8, 1e-5
    p0, p1, p2, _ = hermite.density_derivatives(n, np.float64(x0))
    grid = np.array([x0 - h, x0, x0 + h])
    p = hermite.density(n, grid)
    assert float(p1) == pytest.approx((p[2] - p[0]) / (2 * h), abs=1e-8)
    assert float(p2) == pytest.approx((p[2] - 2 * p[1] + p[0]) / h ** 2, abs=1e-4)


def test_frame_boundedness_small_n():
    x = np.linspace(-6, 6, 1201)
    for n in range(1, 9):
        psi, _ = hermite.weighted_frame(n, n, x)
        assert np.max(np.abs(psi)) <= 1.1


def _mp_density(n, x):
    """p_N(x) from the orthonormal recurrence in extended precision."""
    prev, cur = mp.mpf(0), (2 * mp.pi / n) ** mp.mpf(-0.25)
    total = cur * cur
    for k in range(n - 1):
        prev, cur = cur, x * mp.sqrt(mp.mpf(n) / (k + 1)) * cur - mp.sqrt(mp.mpf(k) / (k + 1)) * prev
        total += cur * cur
    return total * mp.exp(-n * x * x / 2) / n


@pytest.mark.parametrize("n", [1, 2, 5, 8, 17, 64, 256])
def test_density_and_derivatives_match_mpmath(n):
    """p_N, p_N' and p_N''' against mpmath at 40 digits (derivatives by
    mpmath's own differencing) at the centre, in the bulk, at the edges and
    beyond, where p_N = psi_{N-1}^2 - sqrt((N-1)/N) psi_N psi_{N-2} subtracts
    two terms of one sign, and far out at N <= 8; at N=256, x=3.5 the
    Gaussian factor alone underflows a double.  Below the normal range a
    double holds fewer digits: there the tolerance is 1e-12 of the smallest
    normal double, and a value below half the smallest subnormal is 0.0."""
    far = [8.0, 20.0] if n <= 8 else []
    xs = np.array([0.0, 0.7, -1.3, 2.0, -2.0, 2.3, 2.6, 3.0, 3.5, 5.0] + far)
    p0, p1, _, p3 = hermite.density_derivatives(n, xs)
    psi, _ = hermite.weighted_frame(n, n - 1, xs)
    by_order = {0: [hermite.density(n, xs), (psi * psi).sum(axis=0) / n, p0], 1: [p1], 3: [p3]}
    tiny = np.finfo(float).tiny
    with mp.workdps(40):
        for i, x in enumerate(xs):
            for order, values in by_order.items():
                if x == 0.0 and order % 2:
                    assert all(v[i] == 0.0 for v in values)  # odd by symmetry
                    continue
                ref = mp.diff(lambda t: _mp_density(n, t), mp.mpf(x), order)
                for v in values:
                    assert abs(v[i] - ref) <= 1e-12 * max(abs(ref), tiny), (x, order, v[i], ref)


@pytest.mark.parametrize("n", [*range(1, 40), 64, 100, 128, 200, 255, 256])
def test_top_row_density_is_never_negative(n):
    """psi_{N-1}^2 - sqrt((N-1)/N) psi_N psi_{N-2} is a difference of two
    terms of one sign past the edge.  On 400001 points over 1.01 times the
    span where the weighted start is nonzero (N x^2/4 <= 1095), the lifted
    and subnormal tail included, no value falls below 0."""
    grid = np.linspace(-1.01, 1.01, 400_001) * math.sqrt(4380.0 / n)
    assert np.all(hermite.density(n, grid) >= 0.0)
    assert np.all(hermite.density_derivatives(n, grid)[0] >= 0.0)


def test_density_subnormal_tail_through_lifted_start():
    # N x^2/4 = 722 lifts the start; the true p_N (mpmath) is subnormal,
    # where a double holds only about 16 significant bits
    assert float(hermite.density(200, 3.8)) == pytest.approx(1.1068e-319, rel=1e-3, abs=0)


@pytest.mark.parametrize("n", [1, 4, 256])
def test_weighted_values_far_past_the_edge_are_zero(n):
    # Past |x| ~ 1e152 n^2 x^2 overflowed, and x times a zero row gave nan
    # (from |x| ~ 1e307 on even in density).  The zeros keep their signs:
    # psi_0' = -(n x / 2) psi_0 is -0.0 for x > 0.
    big = np.finfo(float).max
    x = np.array([1e153, -1e153, 1e300, -1e300, big, -big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [hermite.density(n, x), *hermite.density_derivatives(n, x),
                  *hermite.weighted_frame(n, 3, x)]
        values += [np.array([hermite.kernel(n, a, b) for a in x[:4] for b in x])]
    assert all(np.array_equal(v, np.zeros_like(v)) for v in values)
    assert np.array_equal(np.signbit(hermite.weighted_frame(n, 0, x)[1][0]), x > 0)


BLOCK = hermite._BLOCK


def _same_bits(got, want) -> bool:
    if type(got) is not type(want):
        return False
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _frame_sums(n, x):
    """K_N(x, x) as axis-0 sums of the frames, built on chunks of at most
    1000 points (and at least 2, where the reduction runs row by row)."""
    parts = []
    for chunk in np.array_split(x.reshape(-1), -(-x.size // 1000)):
        psi, _ = hermite.weighted_frame(n, n - 1, chunk)
        parts.append((psi ** 2).sum(axis=0))
    return np.concatenate(parts).reshape(x.shape)


@pytest.mark.parametrize("n", [1, 2, 17, 64, 256])
@pytest.mark.parametrize("points", [2, 7, 1001, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3,
                                    pytest.param((3, 5), id="3x5"),
                                    pytest.param((130, 131), id="130x131"),
                                    pytest.param((131, 130), id="130x131T")])
def test_streamed_sums_equal_frame_sums_bitwise(n, points):
    """The sums over k add rows in the order of numpy's axis-0 reduction, so
    on multi-point grids they reproduce the frame sums bit for bit, and
    p_N and its derivatives are the allocating top-row formulas' bits: on
    grids of a few points, at and across block boundaries, and for 1-D and
    2-D x (130x131T is a transposed, non-contiguous view)."""
    shape = points if isinstance(points, tuple) else (points,)
    grid = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)  # n x^2 / 4 <= 700: no lift
    if shape == (131, 130):
        grid = grid.reshape(130, 131).T
    assert _same_bits(hermite.kernel_diag(n, grid), _frame_sums(n, grid))
    _assert_top_row_bits(n, grid)


def _reference_rows(n, k_max, x, start):
    """The recurrence with one fresh array per operation: the reference for
    the rows that ``hermite._rows`` writes in place."""
    prev, cur = None, start
    yield prev, cur
    for k in range(k_max):
        nxt = x * math.sqrt(n / (k + 1.0)) * cur
        if k:
            nxt = nxt - math.sqrt(k / (k + 1.0)) * prev
        prev, cur = cur, nxt
        yield prev, cur


def _reference_diag(n, x):
    """K_N(x, x), one fresh array per operation."""
    start, lift, x = hermite._weighted_start(n, x)
    diag = 0.0
    for _, psi in _reference_rows(n, n - 1, x, start):
        diag = diag + psi * psi
    return diag * np.exp(-2.0 * lift)


def _reference_top(n, x):
    """p_N and its three derivatives from rows n-2, n-1 and n of the
    allocating recurrence by the formulas of ``density_derivatives``, one
    fresh array per operation."""
    start, lift, x = hermite._weighted_start(n, x)
    below, low, high = ([None] + [row for _, row in _reference_rows(n, n, x, start)])[-3:]
    half_nx = n * x / 2.0
    unlift = np.exp(-2.0 * lift)
    p = low * low
    if below is None:
        dlow = -half_nx * low
    else:
        p = p - high * below * math.sqrt((n - 1) / n)
        dlow = math.sqrt(n * (n - 1)) * below - half_nx * low
    dhigh = math.sqrt(n * n) * low - half_nx * high
    d1 = 0.0 - high * low
    d2 = 0.0 - (dhigh * low + high * dlow)
    d3 = 0.0 - ((n * n * x * x / 4.0 - n * n) * (high * low) + dhigh * dlow) * 2.0
    return tuple(v * unlift for v in (p, d1, d2, d3))


def _assert_top_row_bits(n, x):
    """density and all four outputs of density_derivatives are the bits of
    ``_reference_top``."""
    want = _reference_top(n, x)
    assert _same_bits(hermite.density(n, x), want[0])
    assert all(_same_bits(got, ref)
               for got, ref in zip(hermite.density_derivatives(n, x), want, strict=True))


@pytest.mark.parametrize("n", [1, 2, 17, 64, 256])
@pytest.mark.parametrize("span,points", [((2.6, 3.6), 2 * BLOCK + 3), ((-60.0, 60.0), BLOCK + 1),
                                         ((60.0, 60.0), None), ((0.7, 0.7), None)])
def test_sums_equal_the_allocating_recurrence_bitwise(n, span, points):
    """Where the start is lifted (n x^2 / 4 > 700; from |x| ~ 52.9 at N=1)
    frame sums round differently, and a frame of one point sums pairwise,
    so the reference is an allocating recurrence, one fresh array per
    operation: across block boundaries and at 0-d x (points None), which
    runs as a one-point block and comes back as a numpy scalar.  At N=256,
    [2.6, 3.6] is lifted from 3.31 and subnormal from 3.51 on."""
    grid = np.linspace(*span, points) if points else np.asarray(span[0])
    assert _same_bits(hermite.kernel_diag(n, grid), _reference_diag(n, grid))
    _assert_top_row_bits(n, grid)


# Zero, the smallest subnormal, points where the start is lifted, where it
# underflows and where n^2 x^2 overflows (the rows then run at x = 0).
EXTREME_GRID = np.array([0.0, 5e-324, -5e-324, 1e-300, 0.3, -1.7, 2.0, 2.9, 3.6, -7.5, 40.0,
                         -60.0, 120.0, 1e100, 1e154, -1e200, 1.7e308])


@pytest.mark.parametrize("n", [*range(1, 60), 64, 100, 128, 200, 255, 256])
def test_in_place_rows_keep_the_reference_bits_at_every_size(n):
    """square_sums (to row N - 1 and, with its running partial, past it)
    and p_N with its three derivatives are the bits of the allocating
    recurrence, one fresh array per operation and Python-float coefficients,
    on extreme points at every size: the in-place rows with their 0-d
    coefficients run the same operations in the same order."""
    with np.errstate(over="ignore", invalid="ignore"):
        start, lift, x = hermite._weighted_start(n, EXTREME_GRID)
        sums, running = [], 0.0
        for _, psi in _reference_rows(n, 2 * n + 3, x, start):
            running = running + psi * psi
            sums.append(running * np.exp(-2.0 * lift))
    inner, outer = hermite.square_sums(n, 2 * n + 3, EXTREME_GRID, inner=n - 1)
    assert _same_bits(inner, sums[n - 1]) and _same_bits(outer, sums[-1])
    assert _same_bits(hermite.kernel_diag(n, EXTREME_GRID), sums[n - 1])
    _assert_top_row_bits(n, EXTREME_GRID)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256])
def test_rotating_rows_outlive_their_use(n):
    """The ring writes row k over row k - 3.  Each row equals the allocating
    reference's while it is in use, what a call returns is its own memory,
    and later calls that reuse the buffers change none of it."""
    x = np.linspace(-3.0, 3.0, 512)
    start, _, xw = hermite._weighted_start(n, x)
    ring = hermite._ring(n, np.empty((3, x.size)))
    in_place = hermite._rows(n, n, xw, start, ring, np.empty(x.size))
    for (prev, cur), (want_prev, want_cur) in zip(in_place, _reference_rows(n, n, xw, start),
                                                  strict=True):
        assert _same_bits(cur, want_cur)
        assert prev is None or _same_bits(prev, want_prev)

    y = x[::-1] * 0.5
    rows = [hermite.kernel(n, x, y), hermite.kernel(n, y, x), *hermite.density_derivatives(n, x)]
    assert _same_bits(rows[0], _reference_kernel(n, x, y)) and _same_bits(rows[1], rows[0])
    assert all(_same_bits(got, want) for got, want in zip(rows[2:], _reference_top(n, x)))
    diag = hermite.kernel_diag(n, x)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(rows + [diag]) for b in rows[:i])
    kept = [row.copy() for row in rows + [diag]]
    values = [hermite.kernel(n, 0.3, 1.1), hermite.kernel(n, 0.5, 0.5)]
    hermite.kernel(n, -x, x)
    hermite.kernel_diag(n, x[::-1])
    hermite.density_derivatives(n, x + 0.5)
    assert all(_same_bits(row, copy) for row, copy in zip(rows + [diag], kept))
    assert [hermite.kernel(n, 0.3, 1.1), hermite.kernel(n, 0.5, 0.5)] == values


def _reference_frames(n, k_max, x):
    """The rows of ``weighted_frame(n, n, x)`` and of
    ``normalized_hermite(n, k_max, x)`` from ``_reference_rows``."""
    start, lift, xw = hermite._weighted_start(n, x)
    half_nx = n * xw / 2.0
    unlift = np.exp(-lift)
    psi, dpsi = [], []
    for k, (prev, cur) in enumerate(_reference_rows(n, n, xw, start)):
        ladder = -half_nx * cur if prev is None else math.sqrt(n * k) * prev - half_nx * cur
        psi.append(cur * unlift)
        dpsi.append(ladder * unlift)
    start = np.full(x.shape, (2.0 * math.pi / n) ** -0.25)[()]  # a scalar at 0-d x
    htilde = [row for _, row in _reference_rows(n, k_max, x, start)]
    return psi, dpsi, htilde


@pytest.mark.parametrize("n,span", [(256, (2.6, 3.6)), (1, (-60.0, 60.0))])
@pytest.mark.parametrize("shape", ["1-D", "0-d", "2-D transposed"])
def test_frames_equal_the_allocating_recurrence_bitwise(n, span, shape):
    """The frames' rows are written in place into the frames themselves.
    They equal the reference rows bit for bit on spans into the lifted
    start (from 3.31 at N=256, from 52.9 at N=1), at 0-d x (the end of the
    span) and on a transposed 2-D x.  The frames share no memory with each
    other or with a later call's, and a later call changes none of them.
    normalized_hermite stops at degree 64, where it stays finite on the
    span at N=256."""
    x = {"1-D": np.linspace(*span, 1001), "0-d": np.asarray(span[1]),
         "2-D transposed": np.linspace(*span, 21 * 31).reshape(21, 31).T}[shape]
    k_max = min(n, 64)
    want = _reference_frames(n, k_max, x)
    assert all(np.all(np.isfinite(row)) for row in want[2])
    frames = [*hermite.weighted_frame(n, n, x), hermite.normalized_hermite(n, k_max, x)]
    for frame, rows in zip(frames, want, strict=True):
        assert frame.shape == (len(rows),) + x.shape
        assert all(_same_bits(got, row) for got, row in zip(frame, rows, strict=True))
    kept = [frame.copy() for frame in frames]
    later = [*hermite.weighted_frame(n, n, x), hermite.normalized_hermite(n, k_max, x)]
    both = frames + later
    assert not any(np.shares_memory(a, b) for i, a in enumerate(both) for b in both[:i])
    assert all(_same_bits(frame, copy) for frame, copy in zip(frames, kept))


def test_normalized_hermite_refuses_overflow():
    # The values themselves stay finite further out: htilde_255(3) ~ 1e169
    assert np.all(np.isfinite(hermite.normalized_hermite(256, 255, np.array([3.0, -8.0]))))
    for x in (10.0, 40.0):  # inf, and nan from inf - inf
        with pytest.raises(ValueError, match=re.escape(f"x = {x!r}")):
            hermite.normalized_hermite(256, 255, np.array([0.0, x]))


@pytest.mark.parametrize("func,points", [(hermite.density, 100_000),
                                         (hermite.density_derivatives, 10_000)])
def test_sums_over_k_stream_in_output_sized_memory(func, points):
    grid = np.linspace(-4.0, 4.0, points)
    tracemalloc.start()
    try:
        out = func(256, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(a.nbytes for a in out) if isinstance(out, tuple) else out.nbytes
    # One (256, points) frame alone would be 256 output rows.  The in-place
    # blocks measured 2.54 (density: the output, one block's four work rows
    # and its lift and points) and 4.02 (derivatives: one block of 10000
    # points); the bounds leave 15% or more for other numpy versions.
    bound = {"density": 3.0, "density_derivatives": 5.5}[func.__name__]
    assert peak <= bound * out_bytes, (peak / out_bytes, bound)


def test_size_and_argument_validation():
    with pytest.raises(ValueError):
        hermite.density(0, 0.0)
    with pytest.raises(ValueError):
        hermite.density(hermite.MAX_ENSEMBLE_SIZE + 1, 0.0)
    with pytest.raises(ValueError):
        hermite.normalized_hermite(3, 4, np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        hermite.weighted_frame(3, 4, np.array([np.nan]))


@pytest.mark.parametrize("n,k_max,extend_to", [(1, 0, 0), (3, 2, 9), (64, 63, 100),
                                               (256, 255, 299), (256, 255, 450)])
def test_extended_christoffel_sum_is_both_sums_from_one_pass(n, k_max, extend_to):
    """The running sum after row k_max is square_sums(n, k_max) bit for bit,
    and the sum to extend_to the longer sum; lifted, both stay finite where
    the unweighted sums left the double range (450 rows at N=256, or
    |x| >= 2.656 at 256 rows)."""
    x = np.linspace(-3.0, 3.0, BLOCK + 5)
    inner, outer = hermite.square_sums(n, extend_to, x, inner=k_max)
    assert _same_bits(inner, hermite.square_sums(n, k_max, x))
    assert _same_bits(outer, hermite.square_sums(n, extend_to, x))
    assert np.isfinite(outer).all() and np.all(outer >= inner) and np.all(inner > 0.0)


@pytest.mark.parametrize("n", [1, 8, 64])
def test_weighted_running_sum_is_the_shorter_sum(n):
    grid = np.linspace(-40.0, 40.0, 2001)  # past N x^2/4 = 700: lifted starts
    inner, outer = hermite.square_sums(n, 2 * n, grid, inner=n - 1)
    assert _same_bits(inner, hermite.kernel_diag(n, grid))
    assert _same_bits(outer, hermite.square_sums(n, 2 * n, grid))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64, 128, 200, 256])
@pytest.mark.parametrize("points", [2001, 2 * BLOCK + 3, pytest.param((), id="0-d")])
def test_shared_pass_is_density_and_kernel_diag_bitwise(n, points):
    """One pass gives p_N and K_N(x, x) with the bits of ``density`` and
    ``kernel_diag``: on the verify gap check's grid, out to N x^2/4 = 1095
    where the lift binds, across block boundaries and at a 0-d point."""
    if points == ():
        grid = np.float64(math.sqrt(2900.0 / n))  # N x^2/4 = 725: lifted
    else:
        grid = np.linspace(-1.0, 1.0, points) * math.sqrt(4380.0 / n)
    top_row, diag = hermite.density_and_kernel_diag(n, grid)
    assert _same_bits(top_row, hermite.density(n, grid))
    assert _same_bits(diag, hermite.kernel_diag(n, grid))


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_ode_residual_from_given_derivatives_is_its_own_pass(n):
    x = np.linspace(-4.0, 4.0, 401)
    derivatives = hermite.density_derivatives(n, x)
    assert _same_bits(hermite.ode_residual(n, x, derivatives), hermite.ode_residual(n, x))
