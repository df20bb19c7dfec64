"""Tests for the weighted oscillator frame, kernel, and density."""

import math
import re
import tracemalloc

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
    assert hermite.kernel(n, 0.4, 1.3) == pytest.approx(hermite.kernel(n, 1.3, 0.4), rel=1e-15)
    # crossing the crossover: ratio route vs derivative route agree
    near = hermite.kernel(n, 0.5, 0.5 + 1e-7)
    diag = float(hermite.kernel_diag(n, 0.5))
    assert near == pytest.approx(diag, rel=1e-6)
    # exactly on the diagonal the derivative form reproduces sum psi_k^2
    assert hermite.kernel(n, 0.5, 0.5) == pytest.approx(diag, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 17, 256])
def test_top_rows_are_the_frame_rows_bitwise(n):
    # |x| = 5.5 at N = 256 lifts the start (N x^2 / 4 > 700)
    x = np.array([-5.5, -1.3, 0.0, 0.4, 2.0, 5.5])
    psi, dpsi = hermite.weighted_frame(n, n, x)
    (low, high), (dlow, dhigh) = hermite._top_rows(n, x)
    for got, want in [(low, psi[n - 1]), (high, psi[n]), (dlow, dpsi[n - 1]), (dhigh, dpsi[n])]:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n,x,y", [(1, 0.3, -1.1), (5, 0.4, 1.3), (64, 0.5, 0.5 + 1e-7),
                                   (64, -1.2, -1.2), (256, 0.7, 0.7 + 5e-7), (256, 1.9, -0.2)])
def test_kernel_is_the_frame_formula_bitwise(n, x, y):
    """Inside the crossover (|x - y| <= 1e-6) and off it."""
    if abs(x - y) <= 1e-6:
        psi, dpsi = hermite.weighted_frame(n, n, np.float64(0.5 * (x + y)))
        want = float(dpsi[n] * psi[n - 1] - psi[n] * dpsi[n - 1])
    else:
        px, _ = hermite.weighted_frame(n, n, np.float64(x))
        py, _ = hermite.weighted_frame(n, n, np.float64(y))
        want = float((px[n] * py[n - 1] - px[n - 1] * py[n]) / (x - y))
    assert repr(hermite.kernel(n, x, y)) == repr(want)


def test_pair_transform_holds_no_frame():
    """Two (257, points) frames per integrand call peaked at 20 MiB; the
    top rows take about 0.4 MiB."""
    tracemalloc.start()
    try:
        verify.kernel_pair_transform(256, 1.0, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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


@pytest.mark.parametrize("n", [1, 2, 17, 64, 256])
def test_density_and_derivatives_match_mpmath(n):
    """p_N, p_N' and p_N''' against mpmath at 40 digits (derivatives by
    mpmath's own differencing) at the centre, in the bulk, at the edges and
    beyond; at N=256, x=3.5 the Gaussian factor alone underflows a double."""
    xs = np.array([0.0, 0.7, -1.3, 2.0, -2.0, 2.6, 3.5])
    p0, p1, _, p3 = hermite.density_derivatives(n, xs)
    psi, _ = hermite.weighted_frame(n, n - 1, xs)
    by_order = {0: [hermite.density(n, xs), (psi * psi).sum(axis=0) / n, p0], 1: [p1], 3: [p3]}
    with mp.workdps(40):
        for i, x in enumerate(xs):
            for order, values in by_order.items():
                if x == 0.0 and order % 2:
                    assert all(v[i] == 0.0 for v in values)  # odd by symmetry
                    continue
                ref = mp.diff(lambda t: _mp_density(n, t), mp.mpf(x), order)
                for v in values:
                    assert abs(v[i] - ref) <= 1e-12 * abs(ref), (x, order, v[i], ref)


def test_density_subnormal_tail_through_lifted_start():
    # N x^2/4 = 722 lifts the start; the true p_N (mpmath) is subnormal,
    # where a double holds only about 16 significant bits
    assert float(hermite.density(200, 3.8)) == pytest.approx(1.1068e-319, rel=1e-3, abs=0)


@pytest.mark.parametrize("n", [1, 2, 17, 64, 256])
@pytest.mark.parametrize("points", [2, 7, 1001])
def test_streamed_sums_equal_frame_sums_bitwise(n, points):
    """Streaming adds rows in the order of numpy's axis-0 reduction, so on
    multi-point grids it reproduces the frame sums bit for bit."""
    grid = np.linspace(-3.0, 3.0, points)  # n x^2 / 4 <= 700: no lift
    psi, dpsi = hermite.weighted_frame(n, n - 1, grid)
    assert np.array_equal(hermite.density(n, grid), (psi ** 2).sum(axis=0) / n)
    assert np.array_equal(hermite.density_derivatives(n, grid)[1],
                          2.0 * (psi * dpsi).sum(axis=0) / n)
    nodes = grid / 1.5  # where the unweighted sum stays finite at N=256
    h = hermite.normalized_hermite(n, n - 1, nodes)
    assert np.array_equal(hermite.christoffel_sum(n, n - 1, nodes), (h ** 2).sum(axis=0))


def test_christoffel_sum_refuses_overflow():
    # At N=256, k_max=255 the sum of htilde_k^2 passes the double range from
    # |x| ~ 2.656 on; the first such point (flat order) is named.
    assert np.all(np.isfinite(hermite.christoffel_sum(256, 255, np.array([0.0, 2.5, -2.6]))))
    for x in (2.656, 3.0):
        with pytest.raises(ValueError, match=re.escape(f"x = {x!r}")):
            hermite.christoffel_sum(256, 255, np.array([0.0, x, -x]))
    with pytest.raises(ValueError, match=re.escape("x = -3.0")):
        hermite.christoffel_sum(256, 255, np.array([[1.0, 2.0], [-3.0, 0.0]]))


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
    # one (256, points) frame alone would be 256 output rows
    assert peak <= 16 * out_bytes, (peak, out_bytes)


def test_density_profile_grid_and_single_point():
    prof = hermite.density_profile(3, -1.0, 1.0, 5)
    assert prof.grid.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert prof.derivatives is None
    single = hermite.density_profile(3, 0.5, 0.5, 1)
    assert single.values.shape == (1,)
    assert float(single.values[0]) == pytest.approx(float(hermite.density(3, 0.5)), rel=1e-15)


def test_density_profile_rejects_bad_grid():
    with pytest.raises(ValueError):
        hermite.density_profile(3, 1.0, -1.0, 5)
    with pytest.raises(ValueError):
        hermite.density_profile(3, 0.0, 1.0, 1)  # 1 point needs start == stop


def test_size_and_argument_validation():
    with pytest.raises(ValueError):
        hermite.density(0, 0.0)
    with pytest.raises(ValueError):
        hermite.density(hermite.MAX_ENSEMBLE_SIZE + 1, 0.0)
    with pytest.raises(ValueError):
        hermite.normalized_hermite(3, 4, np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        hermite.weighted_frame(3, 4, np.array([np.nan]))
