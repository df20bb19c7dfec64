"""Weighted Hermite frames and the exact eigenvalue density of GUE(N).

The ensemble is the N x N Hermitian matrix model with independent centred
Gaussian entries of variance 1/N (off-diagonal real and imaginary parts
1/(2N) each).  Its mean eigenvalue density p_N lives, up to Gaussian
tails, on [-2, 2] and is expressed through the orthonormal functions

    psi_k(x) = htilde_k(x) * exp(-N x^2 / 4),

where htilde_k is the degree-k Hermite polynomial orthonormal for the
weight exp(-N x^2 / 2).  All evaluations use one stable three-term
recurrence; no factorials or unnormalized polynomial values appear
anywhere on the floating-point path.  Sums over k (kernel diagonal,
density derivatives, Christoffel sums) and the kernel's top rows hold two
rows at a time, so their memory is O(points); only ``normalized_hermite``
and ``weighted_frame`` build (k_max + 1, points) frames.

Supported range: 1 <= N <= 256, any finite x.  The weighted recurrence
starts from exp(-N x^2/4 + L), L = clip(N x^2/4 - 700, 0, 350), and takes
e^L back out at the end, so a value is lost to underflow only where it
lies below the smallest subnormal anyway: where the clip binds
(N x^2/4 >= 1050), p_N < 1e-500 and every psi_k < 1e-249 for N <= 256.
The unweighted ``normalized_hermite`` and ``christoffel_sum`` lack the
factor exp(-N x^2/4) (squared in the sum) and pass the double range far
sooner; they raise ValueError at the first point where a value does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

MAX_ENSEMBLE_SIZE = 256


def _check_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"ensemble size must be a positive integer, got {n!r}")
    if n > MAX_ENSEMBLE_SIZE:
        raise ValueError(f"ensemble size {n} above supported maximum {MAX_ENSEMBLE_SIZE}")


def _points(n: int, k_max: int, x) -> np.ndarray:
    _check_size(n)
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    return x


def _rows(n: int, k_max: int, x: np.ndarray, start):
    """The one float copy of the recurrence: yields (h_{k-1}, h_k) for
    k = 0..k_max, h_{-1} = None, from the row h_0 = ``start``.

    h_{k+1} = x sqrt(n/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1} (DLMF 18.9.1) is
    linear, so a start carrying a weight or a scale carries it to every row.
    Only two rows are alive at a time.
    """
    prev, cur = None, start
    yield prev, cur
    for k in range(k_max):
        nxt = x * math.sqrt(n / (k + 1.0)) * cur
        if k:
            nxt = nxt - math.sqrt(k / (k + 1.0)) * prev
        prev, cur = cur, nxt
        yield prev, cur


def _start(n: int, x: np.ndarray) -> np.ndarray:
    """The row htilde_0 = (2 pi / n)^(-1/4), shaped like x."""
    return np.full(x.shape, (2.0 * math.pi / n) ** -0.25)


def _weighted_start(n: int, x: np.ndarray):
    """psi_0 e^L and L, with L = clip(n x^2/4 - 700, 0, 350).

    The lift keeps e^{-n x^2/4} from underflowing before the recurrence has
    raised it; rows carry e^L and quadratic sums e^{2L}.  The cap keeps
    e^{-2L} a normal double.  L = 0 (n x^2/4 <= 700) changes no bit.
    """
    q = n * x * x / 4.0
    lift = np.clip(q - 700.0, 0.0, 350.0)
    return _start(n, x) * np.exp(lift - q), lift


def _ladder(n: int, k: int, half_nx, prev, cur):
    """psi_k' = sqrt(n k) psi_{k-1} - (n x / 2) psi_k."""
    if prev is None:
        return -half_nx * cur
    return math.sqrt(n * k) * prev - half_nx * cur


def _square_sum(rows):
    """Sum of squared rows, accumulated from 0.0 in row order: the order of
    numpy's axis-0 reduction of the stacked frame, so the bits agree."""
    total = 0.0
    for _, row in rows:
        total = total + row * row
    return total


def _refuse_overflow(name: str, n: int, k_max: int, x: np.ndarray, finite) -> None:
    """ValueError naming the first point of x (flat order) where ``finite``
    is False."""
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(f"{name}(N={n}, k_max={k_max}) overflows the double range "
                         f"at x = {float(x.flat[bad[0]])!r}")


def _christoffel(n: int, k_max: int, x: np.ndarray) -> np.ndarray:
    """sum_{k <= k_max} htilde_k(x)^2 with no overflow check: inf or nan
    exactly where the true sum lies past the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _square_sum(_rows(n, k_max, x, _start(n, x)))


def normalized_hermite(n: int, k_max: int, x) -> np.ndarray:
    """Values htilde_0(x) .. htilde_{k_max}(x), vectorized over x.

    Recurrence: htilde_{k+1} = x sqrt(n/(k+1)) htilde_k - sqrt(k/(k+1)) htilde_{k-1},
    htilde_0 = (2 pi / n)^(-1/4).  Orthonormal for the weight exp(-n x^2 / 2).
    Builds the whole (k_max + 1, points) frame; sums over k belong in
    ``christoffel_sum``.  Raises ValueError at the first point where a value
    overflows the double range (at N=256, k_max=255 from |x| ~ 2.66 on).
    """
    x = _points(n, k_max, x)
    out = np.empty((k_max + 1,) + x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (_, row) in enumerate(_rows(n, k_max, x, _start(n, x))):
            out[k] = row
    _refuse_overflow("normalized_hermite", n, k_max, x, np.isfinite(out).all(axis=0))
    return out


def christoffel_sum(n: int, k_max: int, x) -> np.ndarray:
    """sum_{k <= k_max} htilde_k(x)^2, vectorized over x in O(points) memory.

    Its reciprocal is the Gauss weight at a node of the (k_max + 1)-point
    rule; times exp(-n x^2 / 2) / n at k_max = n - 1 it is p_N(x).  Raises
    ValueError at the first point where the sum overflows the double range
    (at N=256, k_max=255 from |x| ~ 2.656 on).
    """
    x = _points(n, k_max, x)
    total = _christoffel(n, k_max, x)
    _refuse_overflow("christoffel_sum", n, k_max, x, np.isfinite(total))
    return total


def weighted_frame(n: int, k_max: int, x) -> tuple[np.ndarray, np.ndarray]:
    """psi_k(x) and psi_k'(x) for k = 0..k_max, vectorized over x.

    psi' follows the ladder psi_k' = sqrt(n k) psi_{k-1} - (n x / 2) psi_k.
    Builds two (k_max + 1, points) frames; sums over k belong in
    ``kernel_diag`` and ``density_derivatives``.
    """
    x = _points(n, k_max, x)
    start, lift = _weighted_start(n, x)
    half_nx = n * x / 2.0
    psi = np.empty((k_max + 1,) + x.shape)
    dpsi = np.empty_like(psi)
    for k, (prev, cur) in enumerate(_rows(n, k_max, x, start)):
        psi[k] = cur
        dpsi[k] = _ladder(n, k, half_nx, prev, cur)
    unlift = np.exp(-lift)
    psi *= unlift
    dpsi *= unlift
    return psi, dpsi


def _top_rows(n: int, x) -> tuple[tuple, tuple]:
    """(psi_{n-1}, psi_n) and (psi_{n-1}', psi_n') at x: rows n-1 and n of
    ``weighted_frame(n, n, x)`` bit for bit, in O(points) memory."""
    x = _points(n, n, x)
    start, lift = _weighted_start(n, x)
    half_nx = n * x / 2.0
    (before, low), (_, high) = deque(_rows(n, n, x, start), maxlen=2)
    unlift = np.exp(-lift)
    return ((low * unlift, high * unlift),
            (_ladder(n, n - 1, half_nx, before, low) * unlift,
             _ladder(n, n, half_nx, low, high) * unlift))


def kernel_diag(n: int, x) -> np.ndarray:
    """K_N(x, x) = sum_{k<N} psi_k(x)^2, vectorized over x in O(points) memory."""
    x = _points(n, n - 1, x)
    start, lift = _weighted_start(n, x)
    return _square_sum(_rows(n, n - 1, x, start)) * np.exp(-2.0 * lift)


def kernel(n: int, x: float, y: float, crossover: float = 1e-6) -> float:
    """Two-point correlation kernel K_N(x, y).

    Off the diagonal this is the Christoffel-Darboux ratio

        (psi_N(x) psi_{N-1}(y) - psi_{N-1}(x) psi_N(y)) / (x - y);

    within |x - y| <= crossover the limiting derivative form
    psi_N'(m) psi_{N-1}(m) - psi_N(m) psi_{N-1}'(m) at the midpoint m is
    used instead, so the value stays finite and continuous across the
    diagonal.  Symmetric in (x, y).
    """
    _check_size(n)
    x = float(x)
    y = float(y)
    if abs(x - y) <= crossover:
        (low, high), (dlow, dhigh) = _top_rows(n, np.float64(0.5 * (x + y)))
        return float(dhigh * low - high * dlow)
    (xlow, xhigh), _ = _top_rows(n, np.float64(x))
    (ylow, yhigh), _ = _top_rows(n, np.float64(y))
    return float((xhigh * ylow - xlow * yhigh) / (x - y))


def density(n: int, x) -> np.ndarray:
    """Mean eigenvalue density p_N(x) = K_N(x, x) / N."""
    return kernel_diag(n, x) / n


def density_derivatives(n: int, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """p_N and its first three derivatives, all analytic (no differencing).

    Uses psi_k'' = (n^2 x^2/4 - n(k + 1/2)) psi_k together with the first
    derivative ladder; the third derivative differentiates that relation
    once more.  The four sums over k stream in O(points) memory.
    """
    x = _points(n, n - 1, x)
    start, lift = _weighted_start(n, x)
    half_nx = n * x / 2.0
    quad = n * n * x * x / 4.0
    slope = n * n * x / 2.0
    sums = [0.0] * 4
    for k, (prev, psi) in enumerate(_rows(n, n - 1, x, start)):
        dpsi = _ladder(n, k, half_nx, prev, psi)
        osc = quad - n * (k + 0.5)
        d2psi = osc * psi
        d3psi = slope * psi + osc * dpsi
        terms = (psi * psi, psi * dpsi, dpsi * dpsi + psi * d2psi,
                 3.0 * dpsi * d2psi + psi * d3psi)
        sums = [s + t for s, t in zip(sums, terms)]
    unlift = np.exp(-2.0 * lift)
    s0, s1, s2, s3 = (s * unlift for s in sums)
    return s0 / n, 2.0 * s1 / n, 2.0 * s2 / n, 2.0 * s3 / n


def ode_residual(n: int, x) -> np.ndarray:
    """Residual of p_N''' / N^2 + (4 - x^2) p_N' + x p_N, which vanishes
    identically for the exact density."""
    p0, p1, _, p3 = density_derivatives(n, x)
    x = np.asarray(x, dtype=float)
    return p3 / (n * n) + (4.0 - x * x) * p1 + x * p0


@dataclass(frozen=True)
class DensityProfile:
    """Density values (and optional derivatives) on a grid."""

    n: int
    grid: np.ndarray
    values: np.ndarray
    derivatives: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def density_profile(n: int, start: float, stop: float, points: int,
                    with_derivatives: bool = False) -> DensityProfile:
    """Evaluate p_N on a uniform grid.

    points == 1 is allowed as a degenerate single-point grid (start must
    equal stop); otherwise start < stop and points >= 2.
    """
    _check_size(n)
    if points < 1:
        raise ValueError("points must be >= 1")
    if points == 1:
        if start != stop:
            raise ValueError("single-point grid requires start == stop")
        grid = np.array([float(start)])
    else:
        if not start < stop:
            raise ValueError("need start < stop for a multi-point grid")
        grid = np.linspace(float(start), float(stop), points)
    if with_derivatives:
        p0, p1, p2, p3 = density_derivatives(n, grid)
        return DensityProfile(n, grid, p0, (p1, p2, p3))
    return DensityProfile(n, grid, density(n, grid))
