"""Closed-form bilateral Laplace transforms of the GUE kernel and density.

The diagonal-shifted kernel transform

    int e^{s u} K_N(u + c, u - c) du
        = N exp(-x / 2) 1F1(1 - N; 2 | x) = exp(-x / 2) L^{(1)}_{N-1}(x),
    x = N c^2 - s^2 / N,

terminates because the 1F1 parameter 1 - N is a nonpositive integer: it
is the weighted Laguerre polynomial of DLMF 13.6.19, evaluated by its
three-term recurrence with the weight carried from the start.
The c = 0 case divided by N is the moment generating function of the
mean eigenvalue density, and on the imaginary axis s = iw its
characteristic function (``characteristic_function``, which also takes
an array of w); ``laplace_expansion`` rearranges it into a
power series in 1/N whose coefficients are sums of the Harer-Zagier
genus counts, summed exactly and rounded once.  The unsigned Stirling
numbers of the first kind give a second form of the same coefficients.
Two integrals against p_N follow without quadrature: ``gauss_average``
(e^{sigma t^2}, the transform averaged over a Gaussian s) and
``polynomial_average`` (exact even moments, rounded once).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: Largest table size ``stirling_table`` builds.  The rows are Python ints,
#: exact at any size, so no computation needs the cap: it bounds what the
#: table promises a reader, every entry of rows 0..34 and each row's sum n!
#: within an unsigned 128-bit integer (34! < 2^128 < 35!).
STIRLING_CAP = 34

#: Most terms m of a genus-count sum that laplace_expansion takes.  The
#: integers of a sum grow with the term count: the slowest call measured
#: (s = 10.7 + 0.3i, depth 160: 160 then 200 terms) takes 0.66 s on a
#: 2-core Xeon.  s = 10 to depth 34 needs 157 terms.
_MAX_TERMS = 200


def _exp_each(v: np.ndarray) -> np.ndarray:
    """math.exp of every entry: libm's exp, which np.exp does not match in
    the last bit everywhere, so an array carries the bits of a scalar call."""
    return np.fromiter(map(math.exp, v.ravel().tolist()), float, v.size).reshape(v.shape)


def _weighted_laguerre(n: int, x):
    """e^{-x/2} L^{(1)}_{n-1}(x) for a real or complex x.

    The recurrence L_{k+1} = (2 - x/(k+1)) L_k - L_{k-1} (DLMF 18.9.1) from
    L_{-1} = 0 is linear: started at e^{lift - x/2}, lift = clip(Re x/2 -
    700, 0, 700), it carries that weight to every row, and e^{-lift} comes
    off at the end.  The lift keeps the start from underflowing where the
    rows raise it back; the weight is not squared, so the cap is 700,
    twice that of the Hermite frames.  Every row carries the start, so
    when the start is 0.0 every row is too: it is returned before a step
    forms x * 0.0 = nan from an infinite x.  An x whose start passes the
    largest double returns inf: for Re x < 0, |L(x)| >= L(Re x) >= n (the
    zeros are positive).
    """
    if x.real < -1419.565425786768:  # -2 log(max float)
        return math.inf
    lift = min(max(x.real / 2.0 - 700.0, 0.0), 700.0)
    cur = (cmath.exp if isinstance(x, complex) else math.exp)(lift - x / 2.0)
    if cur == 0.0:
        return cur
    scale = math.exp(-lift)
    prev = 0.0
    for k in range(n - 1):
        prev, cur = cur, 2.0 * cur - prev - x * cur / (k + 1)
    return cur * scale


def kernel_laplace(n: int, s, center_offset: float = 0.0):
    """Laplace transform int e^{s u} K_N(u + c, u - c) du, c = center_offset.

    The value depends on (s, c) only through x = N c^2 - s^2 / N:
    it equals e^{-x/2} L^{(1)}_{N-1}(x) = N e^{-x/2} 1F1(1 - N; 2 | x).
    Past the double range it is inf.  A complex s gives a complex value.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    c = float(center_offset)
    # n * c * c overflows to inf, where float(c) ** 2 raises OverflowError.
    x = n * c * c
    if not isinstance(s, complex):
        return _weighted_laguerre(n, x - s * s / n)
    # s^2/N from the parts, as the complex product forms them: x stays real
    # unless both are nonzero, so no inf * 0.0 = nan forms where s^2 overflows.
    re, im = s.real, s.imag
    x -= (re * re - im * im) / n
    if re and im:
        x = complex(x, 0.0 - 2.0 * (re * im) / n)
    return complex(_weighted_laguerre(n, x))


def density_laplace(n: int, s):
    """int e^{s t} p_N(t) dt (the spectral moment generating function)."""
    return kernel_laplace(n, s, 0.0) / n


def characteristic_function(n: int, w):
    """phi_N(w) = int e^{iwt} p_N(t) dt = e^{-x/2} L^{(1)}_{N-1}(x) / N, x = w^2 / N,
    at a finite real w or at every entry of an array of them.

    phi_N is real and even.  A scalar w gives a float, an array one of its
    shape, in one recurrence pass for all entries.  x = w * w / N is the
    real part of the x that density_laplace(n, 1j * w) forms, and every
    value equals that call's real part bit for bit, but for the sign of a
    zero.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    if isinstance(w, np.ndarray) or np.ndim(w):
        return _characteristic_functions((n,), np.asarray(w, float))[0]
    w = float(w)  # past |w| = 1.3e154, w * w is inf, and phi_N there 0.0
    return _weighted_laguerre(n, w * w / n) / n


def _characteristic_functions(sizes, w: np.ndarray) -> list:
    """``characteristic_function(n, w)`` at an array w for each n of ``sizes``
    (ascending) from one pass: the step 2 - x/(k+1) does not depend on n, so
    the blocks x = w^2/n run in order of n, each leaving the active suffix
    after its n - 1 rows.  An entry takes the steps of ``_weighted_laguerre``
    in place, with 0-d operands (numpy 2 dispatches a Python float more
    slowly: 0.53 against 0.35 us a call on a 2-core Xeon), so it has their
    bits; where the start is 0.0 it takes x = 0, so no step forms nan."""
    with np.errstate(over="ignore"):
        x = np.concatenate([np.ravel(w * w / n) for n in sizes])
        lift = np.minimum(np.maximum(x / 2.0 - 700.0, 0.0), 700.0)
        cur = _exp_each(lift - x / 2.0)
        x = np.where(cur == 0.0, 0.0, x)
        scale = _exp_each(-lift)
        prev, tmp, two, out = np.zeros(x.size), np.empty(x.size), np.array(2.0), []
        steps = list(map(np.asarray, np.arange(1.0, sizes[-1]).tolist()))
        for n, done in zip(sizes, (1, *sizes)):
            for k in range(done - 1, n - 1):
                np.multiply(two, cur, tmp)
                np.subtract(tmp, prev, tmp)
                np.multiply(x, cur, prev)
                np.divide(prev, steps[k], prev)
                np.subtract(tmp, prev, prev)
                prev, cur = cur, prev
            out.append((cur[:w.size] * scale[:w.size]).reshape(w.shape) / n)
            x, prev, cur, tmp, scale = (a[w.size:] for a in (x, prev, cur, tmp, scale))
        return out


def stirling_table(max_n: int) -> tuple[tuple[int, ...], ...]:
    """Unsigned Stirling numbers of the first kind, exact: rows[n][k], k = 0..n,
    counts the permutations of n elements with k cycles, by
    [n+1, k] = n [n, k] + [n, k-1].  max_n is at most STIRLING_CAP."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n > STIRLING_CAP:
        raise ValueError(
            f"stirling table capped at max_n = {STIRLING_CAP}; requested {max_n}"
        )
    rows = [(1,)]
    for n in range(max_n):
        prev = rows[-1]
        new = [0] * (n + 2)
        for k, value in enumerate(prev):
            new[k] += n * value
            new[k + 1] += value
        rows.append(tuple(new))
    return tuple(rows)


def _genus_counts(m_max: int, g_max: int, rows=None) -> list[list[int]]:
    """Harer-Zagier genus counts eps_g(m), rows g = 0..g_max, columns m = 0..m_max.

    int t^{2m} p_N(t) dt = sum_g eps_g(m) N^{-2g}.  The table comes from
    eps_0(0) = 1 and (m+1) eps_g(m) = 2(2m-1) eps_g(m-1)
    + (m-1)(2m-1)(2m-3) eps_{g-1}(m-2) (Harer and Zagier, Invent. Math. 85,
    1986), whose division by m + 1 is exact.  Given ``rows``, a table of an
    earlier call with the same g_max, the columns it lacks are appended to
    it in place, and it is returned.
    """
    if rows is None:
        rows = [[1]] + [[0] for _ in range(g_max)]
    for m in range(len(rows[0]), m_max + 1):
        for g, row in enumerate(rows):
            total = 2 * (2 * m - 1) * row[m - 1]
            if g and m >= 2:
                total += (m - 1) * (2 * m - 1) * (2 * m - 3) * rows[g - 1][m - 2]
            row.append(total // (m + 1))
    return rows


def _even_moments(n: int, k_max: int) -> list[int]:
    """N^k M_{2k} for k = 0..k_max, exact, where M_{2k} = int t^{2k} p_N(t) dt.

    N^k M_{2k} = sum_g eps_g(k) N^{k-2g} (``_genus_counts``; eps_g(k) = 0
    for 2g > k) is an integer.  The Harer-Zagier recursion
    (k+2) M_{2k+2} = (4k+2) M_{2k} + k(4k^2-1) N^{-2} M_{2k-2}, scaled by
    N^{k+1}, keeps every term an integer, so its division by k + 2 is exact.
    """
    out = [1, n][:k_max + 1]
    for k in range(1, k_max):
        out.append(((4 * k + 2) * n * out[k] + k * (4 * k * k - 1) * out[k - 1]) // (k + 2))
    return out


def polynomial_average(n: int, coefficients) -> float:
    """int q(t) p_N(t) dt for q(t) = sum_p c_p t^p, from the Taylor coefficients c_p.

    Each c_p is an integer over a power of two; the sum over the exact even
    moments (``_even_moments``) is one integer over their common
    denominator, divided once, so the result is the float of the exact
    value: odd powers add exactly 0.  Past the double range it is +-inf.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    ratios = [float(c).as_integer_ratio() for c in coefficients[::2]]
    top, den = len(ratios) - 1, max(q for _, q in ratios)
    total = sum(p * (den // q) * m * n ** (top - k)
                for k, ((p, q), m) in enumerate(zip(ratios, _even_moments(n, top))))
    try:
        return total / (den * n ** top)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def gauss_average(n: int, sigma: float) -> float:
    """int e^{sigma t^2} p_N(t) dt for 0 <= sigma < N/2; inf past the double range.

    e^{sigma t^2} is the average of e^{s t} over a Gaussian s of variance
    2 sigma, so the integral is that average of density_laplace(N, s).
    Term by term in the Laguerre sum it is
    r sum_{j<N} C(N, j+1)/N C(2j, j) v^j, v = sigma/(N - 2 sigma),
    r = sqrt(N/(N - 2 sigma)).  Every term is positive; each comes from the
    last by its ratio, from C(N, 1)/N = 1, so a term leaves the double
    range only where the sum does.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    if not 0.0 <= sigma < n / 2.0:
        raise ValueError(f"int e^(sigma t^2) p_N diverges unless 0 <= sigma < N/2, "
                         f"got sigma = {sigma!r}, N = {n}")
    v = sigma / (n - 2.0 * sigma)
    term = total = 1.0
    for j in range(n - 1):
        term *= (n - j - 1) * (4 * j + 2) / ((j + 1) * (j + 2)) * v
        total += term
    return math.sqrt(n / (n - 2.0 * sigma)) * total


def _genus_sums(x: int, y: int, d: int, m_top: int, counts) -> list[complex]:
    """sum_{m <= m_top} eps_g(m) w^m / (2m)! for the rows g of ``counts``
    (``_genus_counts`` through column m_top at least), w = (x + iy) / d:
    Horner's rule over integers, one division per part at the end."""
    out = []
    for row in counts:
        re, im, den = row[m_top], 0, 1
        for m in range(m_top - 1, -1, -1):
            den *= d * (2 * m + 1) * (2 * m + 2)
            re, im = row[m] * den + re * x - im * y, re * y + im * x
        out.append(complex(re / den, im / den))
    return out


def laplace_expansion(s, depth: int) -> np.ndarray:
    """Coefficients c_0..c_depth of density_laplace(N, s) = sum_l c_l N^{-l}.

    The moments of p_N are sums of genus counts (``_genus_counts``), so
    c_{2g}(s) = sum_m eps_g(m) s^{2m} / (2m)!, the transform's expansion of
    Haagerup and Thorbjornsen (Expo. Math. 21, 2003), and every odd c_l is
    exactly zero.  Each sum runs to m = M and is rounded once (see
    ``_genus_sums``).  Since eps_g(m) <= (2m-1)!!, each tail past M is
    below sum_{m>M} r^m / m!, r = |s|^2 / 2; M grows until that bound is
    under 2^-60 |c_{2g}| for every g (|c_{2g}| taken as at least the
    smallest normal double), and a sum that needs more than _MAX_TERMS
    terms is refused.  The result is float64 for real s (the
    integer 0 included) and complex128 for complex s.
    """
    return _laplace_expansions([(s, depth)])[0]


def _laplace_expansions(points) -> list[np.ndarray]:
    """``laplace_expansion`` at each (s, depth) of ``points``, from one genus
    count table with rows to the deepest g, extended as each sum's M grows."""
    if any(depth < 0 for _, depth in points):
        raise ValueError("depth must be >= 0")
    g_max, counts, out = max(depth for _, depth in points) // 2, None, []
    for s, depth in points:
        z = complex(s)
        (a, p), (b, q) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        # s = (aq + ibp) / pq exactly, so s^2 = (x + iy) / d.
        x, y, d = (a * q) ** 2 - (b * p) ** 2, 2 * a * b * p * q, (p * q) ** 2
        r = abs(z) ** 2 / 2.0
        g_top = depth // 2
        m_top, need = -1, 2 * g_top  # the first nonzero term of c_{2 g_top}
        while need != m_top:
            if need > _MAX_TERMS:
                raise ValueError(f"the expansion at |s| = {abs(z):.3g} to depth {depth} "
                                 f"needs more than {_MAX_TERMS} terms")
            m_top = need
            counts = _genus_counts(m_top, g_max, counts)
            sums = _genus_sums(x, y, d, m_top, counts[:g_top + 1])
            # Below the smallest normal double the rounding grid is fixed.
            log_floor = math.log(max(min(map(abs, sums)), 2.0 ** -1022)) - 60 * math.log(2.0)
            # Once M + 2 > r the tail is below r^{M+1} / (M+1)! over 1 - r / (M+2).
            while need <= _MAX_TERMS and r and (need + 2 <= r or (
                    (need + 1) * math.log(r) - math.lgamma(need + 2)
                    - math.log1p(-r / (need + 2)) > log_floor)):
                need += 1
        out.append(np.zeros(depth + 1, dtype=complex if isinstance(s, complex) else float))
        out[-1][::2] = sums if isinstance(s, complex) else [c.real for c in sums]
    return out
