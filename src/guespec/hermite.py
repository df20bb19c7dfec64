"""Weighted Hermite frames and the exact eigenvalue density of GUE(N).

The ensemble is the N x N Hermitian matrix model with independent centred
Gaussian entries of variance 1/N (off-diagonal real and imaginary parts
1/(2N) each).  Its mean eigenvalue density p_N lives, up to Gaussian
tails, on [-2, 2] and is expressed through the orthonormal functions

    psi_k(x) = htilde_k(x) * exp(-N x^2 / 4),

where htilde_k is the degree-k Hermite polynomial orthonormal for the
weight exp(-N x^2 / 2).  All evaluations use one stable three-term
recurrence; no factorials or unnormalized polynomial values appear
anywhere on the floating-point path.  It runs in place, each row written
into a row of a frame or of three rotating buffers, so no row allocates.
Only ``normalized_hermite`` and ``weighted_frame`` build (k_max + 1,
points) frames; the rest runs all rows on one block of at most ``_BLOCK``
points before the next (``kernel`` on all its points at once), in
O(points) memory, a 0-d x as one point.  p_N and its derivatives take
only the top rows N-2, N-1 and N (confluent Christoffel-Darboux); the
sums over k, the kernel, its diagonal and the Christoffel sums behind
Gauss weights, add row products in the order of numpy's axis-0
reduction, so their bits agree with sums over the frames.

Supported range: 1 <= N <= 256, any finite x.  The weighted recurrence
starts from exp(-N x^2/4 + L), L = clip(N x^2/4 - 700, 0, 350), and takes
e^L back out at the end, so a value is lost to underflow only where it
lies below the smallest subnormal anyway: where the clip binds
(N x^2/4 >= 1050), p_N < 1e-500 and every psi_k < 1e-249 for N <= 256.
Every Gauss weight is built from the lifted sums of ``square_sums``,
which shares one accumulator, ``_add_products``, with the kernel.  The
unweighted ``normalized_hermite`` lacks the factor exp(-N x^2/4) and
passes the double range far sooner; it raises ValueError at the first
point where a value does.
"""

from __future__ import annotations

import functools
import math
from collections import deque

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
    if not np.isfinite(x).all():
        raise ValueError("evaluation points must be finite")
    return x


# Points per block of the in-place recurrence.  On a 2-core Xeon with 2 MiB
# of L2 per core, blocks of 8192 to 65536 points all cut the hermite time of
# a benchmark density pass from about 0.61 s to 0.35-0.45 s; 16384 was the
# fastest over repeated runs (smaller blocks pay the per-row call overhead).
_BLOCK = 16384
_B: list = []  # b_k = sqrt(k/(k+1)) as 0-d arrays, for every size


@functools.lru_cache(maxsize=64)
def _steps(n: int, k_max: int) -> np.ndarray:
    """The recurrence coefficients a_k = sqrt(n/(k+1)), k < k_max, for all
    blocks of a call and the many small calls at one size: cached as one
    array rather than k_max objects, which fragment the heap as the cache
    churns through the verify suites' many sizes."""
    return np.sqrt(n / (np.arange(k_max, dtype=float) + 1.0))


def _rows(n: int, k_max: int, x: np.ndarray, start, out, tmp):
    """The one float copy of the recurrence: yields (h_{k-1}, h_k) for
    k = 0..k_max, h_{-1} = None, from h_0 = ``start`` (a row or a constant).

    h_{k+1} = (x a_k) h_k - b_k h_{k-1}, a_k = sqrt(n/(k+1)),
    b_k = sqrt(k/(k+1)) (DLMF 18.9.1), is linear, so a start carrying a
    weight or a scale carries it to every row.  Row k is written in place
    into out[k], an array shaped like the 1-D x: a row of a frame, or a
    buffer of ``_ring``.  ``tmp`` is scratch that is free again once a row
    is yielded.  a_k and b_k (``_B``, grown to the longest run) are 0-d
    arrays: numpy 2 dispatches a ufunc call with a Python-float operand
    more slowly (0.53 against 0.35 us on a 2-core Xeon).
    """
    if len(_B) < k_max:
        k = np.arange(len(_B), k_max, dtype=float)
        b = np.sqrt(k / (k + 1.0))
        _B.extend(b[j, ...] for j in range(b.size))
    a = _steps(n, k_max)
    a = [a[k, ...] for k in range(k_max)]
    np.copyto(out[0], start)
    yield None, out[0]
    for k in range(k_max):
        np.multiply(x, a[k], out[k + 1])
        np.multiply(out[k + 1], out[k], out[k + 1])
        if k:
            np.multiply(_B[k], out[k - 1], tmp)
            np.subtract(out[k + 1], tmp, out[k + 1])
        yield out[k], out[k + 1]


def _ring(k_max: int, buffers) -> list:
    """Rows 0..k_max of ``_rows`` over three rotating buffers: row k lands
    in buffers[k % 3] and is overwritten when row k + 3 is computed."""
    return [buffers[0], buffers[1], buffers[2]] * (k_max // 3 + 1)


def _blocks(x: np.ndarray, outs, width: int):
    """Yields (points, outputs, work) for blocks of at most ``_BLOCK`` points
    of x, flattened and split evenly: the block's slices of the arrays
    ``outs`` (shaped like x) and ``width`` scratch rows of its length, all
    cut from one allocation made once per call."""
    flat = x.reshape(-1)
    outs = [o.reshape(-1) for o in outs]
    blocks = max(1, -(-flat.size // _BLOCK))
    step = max(1, -(-flat.size // blocks))
    work = np.empty((width, step))
    for lo in range(0, flat.size, step):
        block = slice(lo, lo + step)
        points = flat[block]
        yield points, [o[block] for o in outs], work[:, :points.size]


def _start(n: int) -> float:
    """htilde_0 = (2 pi / n)^(-1/4)."""
    return (2.0 * math.pi / n) ** -0.25


def _weighted_start(n: int, x: np.ndarray, q=None):
    """htilde_0 e^{L - q}, L = clip(q - 700, 0, 350), q = n x^2/4 unless
    given (the start psi_0 e^L), and the points x to run the recurrence at.

    The lift keeps e^{-q} from underflowing before the recurrence has
    raised it; rows carry e^L and quadratic sums e^{2L}.  The cap keeps
    e^{-2L} a normal double.  L = 0 (q <= 700) changes no bit.
    From q ~ 1095 on the start, hence every row, is 0.0.  There x is
    returned as a zero of its sign: rows, ladder and sums keep their zeros,
    signs included, but no factor of x overflows to meet a zero row as
    inf * 0.0 = nan (from |x| ~ 1e152 on, where n^2 x^2 overflows).
    """
    if q is None:
        with np.errstate(over="ignore"):
            q = n * x * x / 4.0
    # np.clip's bits at about half its fixed cost per call (q is never nan)
    lift = np.minimum(np.maximum(q - 700.0, 0.0), 350.0)
    start = _start(n) * np.exp(lift - q)
    return start, lift, x * (start != 0.0)


def _ladder(n: int, k: int, half_nx, prev, cur, out, tmp):
    """psi_k' = sqrt(n k) psi_{k-1} - (n x / 2) psi_k, written into ``out``;
    ``tmp`` is scratch."""
    if prev is None:
        return np.multiply(-half_nx, cur, out=out)
    np.multiply(math.sqrt(n * k), prev, out=out)
    np.multiply(half_nx, cur, out=tmp)
    out -= tmp
    return out


def square_sums(n: int, k_max: int, x, inner: int | None = None):
    """W_{k_max}(x) = sum_{k <= k_max} psi_k(x)^2, vectorized over x in
    O(points) memory: at a node t of the (k_max + 1)-node Gauss rule for
    exp(-n t^2/2) the weight is e^{-n t^2/2} / W_{k_max}(t) (Golub-Welsch),
    and W_{n-1} = K_N(x, x).  The rows start lifted (``_weighted_start``),
    so a sum leaves the double range only where its true value does.  Rows
    are added from 0.0 in row order, the order of numpy's axis-0 reduction
    of the stacked frame, so the bits agree.

    With ``inner`` = j <= k_max, returns (W_j, W_{k_max}) from the one
    pass: the running sum after row j is W_j bit for bit."""
    x = _points(n, k_max, x)
    total = np.empty(x.shape)
    outs = [total] if inner is None else [total, np.empty(x.shape)]
    for points, (block, *partial), work in _blocks(x, outs, 4):
        start, lift, points = _weighted_start(n, points)
        rows = _rows(n, k_max, points, start, _ring(k_max, work), work[3])
        for k, _ in enumerate(_add_products(rows, k_max, block, work[3])):
            if k == inner:
                np.copyto(partial[0], block)
        for sums in (block, *partial):
            sums *= _unlift(lift, work[3])
    if inner is None:
        return total[()]
    return outs[1][()], total[()]


def _add_products(rows, k_max: int, sums, tmp):
    """Passes the (previous, current) rows of ``_rows`` on, first adding the
    products of the first and last h = sums.size points of rows 0..k_max
    into ``sums`` from 0.0 in row order, so that after row k it holds the
    sum to k: squares if h is a row's length, x_i y_i if a row holds x then
    y.  ``tmp`` may be the recurrence's scratch, free while a row is yielded."""
    h = sums.size
    tmp = tmp[:h]
    sums.fill(0.0)
    for k, (prev, row) in enumerate(rows):
        if k <= k_max:
            np.multiply(row[:h], row[row.size - h:], tmp)
            np.add(sums, tmp, sums)
        yield prev, row


def _pair_sums(n: int, x: np.ndarray, start, squares=None) -> np.ndarray:
    """sum_{k<n} row_k[:h] row_k[h:], h = x.size // 2, from one pass of the
    rows started at ``start`` (lifted as ``_weighted_start`` lifts) at the
    1-D points x, whose halves pair up point by point.  With ``squares``,
    shaped like x, the sums of the squares of the same rows go into it."""
    work = np.empty((4, x.size))
    sums = np.empty(x.size // 2)
    rows = _rows(n, n - 1, x, start, _ring(n - 1, work), work[3])
    rows = _add_products(rows, n - 1, sums, work[3])
    if squares is not None:
        rows = _add_products(rows, n - 1, squares, work[3])
    deque(rows, maxlen=0)
    return sums


def _unlift(lift, out):
    """exp(-2 L) into ``out``: the bits of ``np.exp(-2.0 * lift)``."""
    np.multiply(lift, -2.0, out=out)
    return np.exp(out, out=out)


def normalized_hermite(n: int, k_max: int, x) -> np.ndarray:
    """Values htilde_0(x) .. htilde_{k_max}(x), vectorized over x.

    Recurrence: htilde_{k+1} = x sqrt(n/(k+1)) htilde_k - sqrt(k/(k+1)) htilde_{k-1},
    htilde_0 = (2 pi / n)^(-1/4).  Orthonormal for the weight exp(-n x^2 / 2).
    Builds the whole (k_max + 1, points) frame; sums over k belong in
    ``square_sums``.  Raises ValueError at the first point (flat order)
    where a value overflows the double range (at N=256, k_max=255 from
    |x| ~ 2.66 on).
    """
    x = _points(n, k_max, x)
    out = np.empty((k_max + 1,) + x.shape)
    flat = x.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in _rows(n, k_max, flat, _start(n), out.reshape(k_max + 1, flat.size),
                       np.empty(flat.size)):
            pass
    bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
    if bad.size:
        raise ValueError(f"normalized_hermite(N={n}, k_max={k_max}) overflows the double "
                         f"range at x = {float(x.flat[bad[0]])!r}")
    return out


def weighted_frame(n: int, k_max: int, x) -> tuple[np.ndarray, np.ndarray]:
    """psi_k(x) and psi_k'(x) for k = 0..k_max, vectorized over x.

    psi' follows the ladder psi_k' = sqrt(n k) psi_{k-1} - (n x / 2) psi_k.
    Builds two (k_max + 1, points) frames; the sum of squares belongs in
    ``kernel_diag``, p_N and its derivatives in ``density_derivatives``.
    """
    x = _points(n, k_max, x)
    start, lift, flat = _weighted_start(n, x.reshape(-1))
    half_nx = n * flat / 2.0
    psi = np.empty((k_max + 1,) + x.shape)
    dpsi = np.empty_like(psi)
    rows, ladders = (f.reshape(k_max + 1, flat.size) for f in (psi, dpsi))
    tmp = np.empty(flat.size)
    for k, (prev, cur) in enumerate(_rows(n, k_max, flat, start, rows, tmp)):
        _ladder(n, k, half_nx, prev, cur, ladders[k], tmp)
    unlift = np.exp(-lift)
    rows *= unlift
    ladders *= unlift
    return psi, dpsi


def kernel_diag(n: int, x) -> np.ndarray:
    """K_N(x, x) = sum_{k<N} psi_k(x)^2, vectorized over x in O(points) memory."""
    return square_sums(n, n - 1, x)


def kernel(n: int, x, y):
    """Two-point correlation kernel K_N(x, y) = sum_{k<N} psi_k(x) psi_k(y),
    vectorized over x and y, which broadcast; a float where both are scalars.

    One lifted pass over the points of x and then y (``_pair_sums``) adds
    the row products from 0.0 in row order and takes e^{L_x + L_y} out at
    the end, so K_N(x, x) is ``kernel_diag(n, x)`` and K_N(x, y) is
    K_N(y, x), bit for bit, in O(points) memory.
    """
    x, y = np.broadcast_arrays(_points(n, n - 1, x), _points(n, n - 1, y))
    start, lift, points = _weighted_start(n, np.concatenate([x.reshape(-1), y.reshape(-1)]))
    unlift = np.exp(-(lift[:x.size] + lift[x.size:]))
    out = (_pair_sums(n, points, start) * unlift).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def _top_density(n: int, x, orders: int, squares: bool = False) -> tuple:
    """p_N (orders = 1) or p_N and its first three derivatives (orders = 4)
    at x from the lifted top rows, the products times e^{-2L}.  With
    ``squares``, K_N(x, x) follows them, taken from the same pass with
    ``kernel_diag``'s bits."""
    x = _points(n, n, x)
    outs = [np.empty(x.shape) for _ in range(orders + squares)]
    for points, block, work in _blocks(x, outs, 4 if orders == 1 else 7):
        start, lift, points = _weighted_start(n, points)
        rows = _rows(n, n, points, start, _ring(n, work), work[3])
        if squares:
            rows = _add_products(rows, n - 1, block[-1], work[3])
        # Rows n-2, n-1 and n (n-2 None at n = 1), lifted by e^lift.
        (below, _), (low, high) = deque(rows, maxlen=2)
        del start  # row 0 holds it now: free it before the products
        tmp, *work = work[3:]
        p, *derivs = block[:orders]
        np.multiply(low, low, out=p)
        if below is not None:
            np.multiply(high, below, out=tmp)
            tmp *= math.sqrt((n - 1) / n)
            p -= tmp
        unlift = _unlift(lift, work[0] if derivs else tmp)
        p *= unlift
        if squares:
            block[-1] *= unlift
        if not derivs:
            continue
        (d1, d2, d3), (_, dlow, dhigh) = derivs, work
        half_nx = n * points / 2.0
        _ladder(n, n - 1, half_nx, below, low, dlow, tmp)
        _ladder(n, n, half_nx, low, high, dhigh, tmp)
        np.multiply(high, low, out=d1)
        np.multiply(dhigh, low, out=d2)
        np.multiply(high, dlow, out=tmp)
        d2 += tmp
        np.multiply(n * n * points * points / 4.0 - n * n, d1, out=d3)
        np.multiply(dhigh, dlow, out=tmp)
        d3 += tmp
        d3 *= 2.0
        for d in (d1, d2, d3):
            # From 0.0, so a zero product gives 0.0, never -0.0.
            np.subtract(0.0, d, out=d)
            d *= unlift
    return tuple(o[()] for o in outs)


def density(n: int, x) -> np.ndarray:
    """Mean eigenvalue density p_N(x) = K_N(x, x) / N in O(points) memory, by
    the confluent Christoffel-Darboux formula (DLMF 18.2(v)):
    p_N = psi_{N-1}^2 - sqrt((N-1)/N) psi_N psi_{N-2}."""
    return _top_density(n, x, 1)[0]


def density_and_kernel_diag(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """``density`` and ``kernel_diag`` at x, bit for bit, from one
    recurrence pass: the top-row Christoffel-Darboux value and the square
    sum it stands for."""
    return _top_density(n, x, 1, squares=True)


def density_derivatives(n: int, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """p_N (``density``'s bits) and its first three derivatives, all analytic:
    p' = -psi_N psi_{N-1}, p'' = -(psi_N' psi_{N-1} + psi_N psi_{N-1}') and,
    by psi_k'' = (N^2 x^2/4 - N(k + 1/2)) psi_k,
    p''' = -2 ((N^2 x^2/4 - N^2) psi_N psi_{N-1} + psi_N' psi_{N-1}')."""
    return _top_density(n, x, 4)


def ode_residual(n: int, x, derivatives=None) -> np.ndarray:
    """Residual of p_N''' / N^2 + (4 - x^2) p_N' + x p_N, which vanishes
    identically for the exact density.  ``derivatives``, if given, is
    ``density_derivatives(n, x)``, whose pass is then not run again."""
    if derivatives is None:
        derivatives = density_derivatives(n, x)
    p0, p1, _, p3 = derivatives
    x = np.asarray(x, dtype=float)
    return p3 / (n * n) + (4.0 - x * x) * p1 + x * p0
