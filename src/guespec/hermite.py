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
density derivatives, Christoffel sums) run all rows on one block of at
most ``_BLOCK`` points before the next, in place in three rotating row
buffers allocated once per call, so their memory is O(points) and no row
allocates; the kernel's top rows rotate through the same buffers.  Inputs
below ``_IN_PLACE_MIN`` points (0-d x among them) take the allocating
route, which is faster there.  Both routes do the same elementwise IEEE
operations in the same order, so they agree bit for bit with each other
and with numpy's axis-0 sums over the frames.  Only ``normalized_hermite``
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

import functools
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


# Points per block of the in-place sums over k.  On a 2-core Xeon with
# 2 MiB of L2 per core, blocks of 8192 to 65536 points all cut the hermite
# time of a benchmark density pass from about 0.61 s to 0.35-0.45 s, and
# 16384 was the fastest over repeated runs: smaller blocks pay the per-row
# ufunc call overhead more often, larger ones did no better.
_BLOCK = 16384
# Inputs with fewer points take the allocating route.  For 0-d x a numpy
# scalar operation takes about 0.1 us against 0.9 us for a ufunc call with
# out=; on 1-D arrays the routes cost about the same per operation, and
# below this size the in-place route's fixed cost per call (buffers,
# blocks) is not repaid.
_IN_PLACE_MIN = 256


@functools.lru_cache(maxsize=64)
def _steps(n: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence coefficients a_k = sqrt(n/(k+1)) and b_k = sqrt(k/(k+1)),
    k < k_max, for all blocks of a call and the many small calls at one size.

    Cached as two arrays rather than 2 k_max float objects, which fragment
    the heap as the cache churns through the verify suites' many sizes;
    callers index the ``tolist`` copies, which is faster than indexing
    numpy arrays.
    """
    k = np.arange(k_max, dtype=float)
    return np.sqrt(n / (k + 1.0)), np.sqrt(k / (k + 1.0))


def _rows(n: int, k_max: int, x: np.ndarray, start, out=None, tmp=None):
    """The one float copy of the recurrence: yields (h_{k-1}, h_k) for
    k = 0..k_max, h_{-1} = None, from the row h_0 = ``start``.

    h_{k+1} = (x a_k) h_k - b_k h_{k-1}, a_k = sqrt(n/(k+1)),
    b_k = sqrt(k/(k+1)) (DLMF 18.9.1), is linear, so a start carrying a
    weight or a scale carries it to every row.  Without ``out`` each row is
    a fresh array (or numpy scalar, for 0-d x).  With ``out``, a sequence of
    arrays shaped like x such as ``_ring``, row k is written in place into
    out[k] and ``tmp`` is scratch that is free again once a row is yielded.
    The same IEEE operations run in the same order on both routes, so the
    rows agree bit for bit.
    """
    a, b = (c.tolist() for c in _steps(n, k_max))
    if out is None:
        prev, cur = None, start
        yield prev, cur
        for k in range(k_max):
            nxt = x * a[k] * cur
            if k:
                nxt = nxt - b[k] * prev
            prev, cur = cur, nxt
            yield prev, cur
        return
    np.copyto(out[0], start)
    yield None, out[0]
    for k in range(k_max):
        np.multiply(x, a[k], out=out[k + 1])
        out[k + 1] *= out[k]
        if k:
            np.multiply(b[k], out[k - 1], out=tmp)
            out[k + 1] -= tmp
        yield out[k], out[k + 1]


def _ring(k_max: int, buffers) -> list:
    """Rows 0..k_max of ``_rows`` over three rotating buffers: row k lands
    in buffers[k % 3] and is overwritten when row k + 3 is computed."""
    return list(buffers[:3]) * (k_max // 3 + 1)


def _blocks(x: np.ndarray, outs, width: int):
    """Yields (points, outputs, work) for blocks of at most ``_BLOCK`` points
    of x, flattened and split evenly: the block's slices of the arrays
    ``outs`` (shaped like x) and ``width`` scratch rows of its length, all
    cut from one allocation made once per call."""
    flat = x.reshape(-1)
    outs = [o.reshape(-1) for o in outs]
    step = -(-flat.size // -(-flat.size // _BLOCK))
    work = np.empty((width, step))
    for lo in range(0, flat.size, step):
        block = slice(lo, lo + step)
        points = flat[block]
        yield points, [o[block] for o in outs], work[:, :points.size]


def _start(n: int, x: np.ndarray) -> np.ndarray:
    """The row htilde_0 = (2 pi / n)^(-1/4), shaped like x."""
    return np.full(x.shape, (2.0 * math.pi / n) ** -0.25)


def _weighted_start(n: int, x: np.ndarray):
    """psi_0 e^L, L = clip(n x^2/4 - 700, 0, 350), and the points x to run
    the recurrence at.

    The lift keeps e^{-n x^2/4} from underflowing before the recurrence has
    raised it; rows carry e^L and quadratic sums e^{2L}.  The cap keeps
    e^{-2L} a normal double.  L = 0 (n x^2/4 <= 700) changes no bit.
    From n x^2/4 ~ 1095 on the start, hence every row, is 0.0.  There x is
    returned as a zero of its sign: rows, ladder and sums keep their zeros,
    signs included, but no factor of x overflows to meet a zero row as
    inf * 0.0 = nan (from |x| ~ 1e152 on, where n^2 x^2 overflows).
    """
    with np.errstate(over="ignore"):
        q = n * x * x / 4.0
    lift = np.clip(q - 700.0, 0.0, 350.0)
    start = _start(n, x) * np.exp(lift - q)
    return start, lift, x * (start != 0.0)


def _ladder(n: int, k: int, half_nx, prev, cur):
    """psi_k' = sqrt(n k) psi_{k-1} - (n x / 2) psi_k."""
    if prev is None:
        return -half_nx * cur
    return math.sqrt(n * k) * prev - half_nx * cur


def _square_sum(rows, total=None, tmp=None):
    """Sum of squared rows, accumulated from 0.0 in row order: the order of
    numpy's axis-0 reduction of the stacked frame, so the bits agree.
    With ``total`` and ``tmp`` (arrays shaped like the rows) the sum is
    accumulated in place into ``total``."""
    if total is None:
        total = 0.0
        for _, row in rows:
            total = total + row * row
        return total
    total.fill(0.0)
    for _, row in rows:
        np.multiply(row, row, out=tmp)
        total += tmp
    return total


def _unlift(lift, out):
    """exp(-2 L) into ``out``: the bits of ``np.exp(-2.0 * lift)``."""
    np.multiply(lift, -2.0, out=out)
    return np.exp(out, out=out)


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
        if x.size < _IN_PLACE_MIN:
            return _square_sum(_rows(n, k_max, x, _start(n, x)))
        total = np.empty(x.shape)
        for points, (block,), work in _blocks(x, [total], 4):
            rows = _rows(n, k_max, points, _start(n, points), _ring(k_max, work), work[3])
            _square_sum(rows, block, work[3])
        return total


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
    start, lift, x = _weighted_start(n, x)
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
    start, lift, x = _weighted_start(n, x)
    half_nx = n * x / 2.0
    work = ()
    if x.size >= _IN_PLACE_MIN:
        # Rows n-2, n-1 and n lie in three distinct buffers of the ring:
        # only a row past n would overwrite one, and none is computed.
        work = (_ring(n, np.empty((3,) + x.shape)), np.empty(x.shape))
    (before, low), (_, high) = deque(_rows(n, n, x, start, *work), maxlen=2)
    unlift = np.exp(-lift)
    return ((low * unlift, high * unlift),
            (_ladder(n, n - 1, half_nx, before, low) * unlift,
             _ladder(n, n, half_nx, low, high) * unlift))


def kernel_diag(n: int, x) -> np.ndarray:
    """K_N(x, x) = sum_{k<N} psi_k(x)^2, vectorized over x in O(points) memory."""
    x = _points(n, n - 1, x)
    if x.size < _IN_PLACE_MIN:
        start, lift, x = _weighted_start(n, x)
        return _square_sum(_rows(n, n - 1, x, start)) * np.exp(-2.0 * lift)
    total = np.empty(x.shape)
    for points, (block,), work in _blocks(x, [total], 4):
        start, lift, points = _weighted_start(n, points)
        _square_sum(_rows(n, n - 1, points, start, _ring(n - 1, work), work[3]), block, work[3])
        block *= _unlift(lift, work[3])
    return total


def kernel(n: int, x: float, y: float, crossover: float = 1e-6) -> float:
    """Two-point correlation kernel K_N(x, y).

    Off the diagonal this is the Christoffel-Darboux ratio

        (psi_N(x) psi_{N-1}(y) - psi_{N-1}(x) psi_N(y)) / (x - y);

    within |x - y| <= crossover the limiting derivative form
    psi_N'(m) psi_{N-1}(m) - psi_N(m) psi_{N-1}'(m) at the midpoint m is
    used instead, so the value stays finite and continuous across the
    diagonal.  Symmetric in (x, y); the midpoint is taken as x/2 + y/2,
    which cannot overflow.
    """
    _check_size(n)
    x = float(x)
    y = float(y)
    if abs(x - y) <= crossover:
        (low, high), (dlow, dhigh) = _top_rows(n, np.float64(0.5 * x + 0.5 * y))
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
    once more.  The four sums over k run in place over blocks of points,
    in O(points) memory.
    """
    x = _points(n, n - 1, x)
    if x.size < _IN_PLACE_MIN:
        start, lift, x = _weighted_start(n, x)
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
    # The same operations in place, one block of points at a time.
    sums = [np.empty(x.shape) for _ in range(4)]
    for points, (s0, s1, s2, s3), work in _blocks(x, sums, 8):
        start, lift, points = _weighted_start(n, points)
        half_nx = n * points / 2.0
        quad = n * n * points * points / 4.0
        slope = n * n * points / 2.0
        dpsi, osc, d2psi, tmp, tmp2 = work[3:]
        for s in (s0, s1, s2, s3):
            s.fill(0.0)
        for k, (prev, psi) in enumerate(_rows(n, n - 1, points, start, _ring(n - 1, work), tmp)):
            if prev is None:
                np.multiply(-half_nx, psi, out=dpsi)
            else:
                np.multiply(math.sqrt(n * k), prev, out=dpsi)
                np.multiply(half_nx, psi, out=tmp)
                dpsi -= tmp
            np.subtract(quad, n * (k + 0.5), out=osc)
            np.multiply(osc, psi, out=d2psi)
            np.multiply(psi, psi, out=tmp)
            s0 += tmp
            np.multiply(psi, dpsi, out=tmp)
            s1 += tmp
            np.multiply(dpsi, dpsi, out=tmp)
            np.multiply(psi, d2psi, out=tmp2)
            tmp += tmp2
            s2 += tmp
            # 3 dpsi d2psi + psi d3psi, d3psi = slope psi + osc dpsi
            np.multiply(slope, psi, out=tmp2)
            np.multiply(osc, dpsi, out=tmp)
            tmp2 += tmp
            tmp2 *= psi
            np.multiply(3.0, dpsi, out=tmp)
            tmp *= d2psi
            tmp += tmp2
            s3 += tmp
        unlift = _unlift(lift, tmp)
        s0 *= unlift
        s0 /= n
        for s in (s1, s2, s3):
            s *= unlift
            s *= 2.0
            s /= n
    return tuple(sums)


def ode_residual(n: int, x) -> np.ndarray:
    """Residual of p_N''' / N^2 + (4 - x^2) p_N' + x p_N, which vanishes
    identically for the exact density."""
    p0, p1, _, p3 = density_derivatives(n, x)
    x = np.asarray(x, dtype=float)
    return p3 / (n * n) + (4.0 - x * x) * p1 + x * p0


@dataclass(frozen=True)
class DensityProfile:
    """Density values (and optional derivatives) on a grid."""

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
        if not math.isfinite(float(stop) - float(start)):
            raise ValueError(f"grid span {start!r} to {stop!r} is wider than the double range")
        grid = np.linspace(float(start), float(stop), points)
    if with_derivatives:
        p0, p1, p2, p3 = density_derivatives(n, grid)
        return DensityProfile(grid, p0, (p1, p2, p3))
    return DensityProfile(grid, density(n, grid))
