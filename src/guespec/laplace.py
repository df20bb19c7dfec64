"""Closed-form bilateral Laplace transforms of the GUE kernel and density.

The diagonal-shifted kernel transform

    int e^{s u} K_N(u + c, u - c) du
        = N exp(-x / 2) 1F1(1 - N; 2 | x) = exp(-x / 2) L^{(1)}_{N-1}(x),
    x = N c^2 - s^2 / N,

terminates because the 1F1 parameter 1 - N is a nonpositive integer: it
is the weighted Laguerre polynomial of DLMF 13.6.19, evaluated by its
three-term recurrence with the weight carried from the start.
The c = 0 case divided by N is the moment generating function of the
mean eigenvalue density; ``laplace_expansion`` rearranges it into a
power series in 1/N whose coefficients are built from unsigned Stirling
numbers of the first kind, with a certified truncation bound from
[k+1, k+1-l] <= (k+1)!.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: Largest table size the Stirling constructor accepts.  Entries of row 34
#: already exceed 2^122; the cap keeps the table inside the fixed-width
#: integer budget this module promises (values are checked exact ints).
STIRLING_CAP = 34

_EXPANSION_TOL = 1e-12  # certified truncation bound of laplace_expansion


def _weighted_laguerre(n: int, x):
    """e^{-x/2} L^{(1)}_{n-1}(x) for real or complex x.

    The recurrence L_{k+1} = (2 - x/(k+1)) L_k - L_{k-1} (DLMF 18.9.1) from
    L_{-1} = 0 is linear: started at e^{lift - x/2}, lift = clip(Re x/2 -
    700, 0, 700), it carries that weight to every row, and e^{-lift} comes
    off at the end.  The lift keeps the start from underflowing where the
    rows raise it back; the weight is not squared, so the cap is 700,
    twice that of the Hermite frames.
    """
    lift = min(max(x.real / 2.0 - 700.0, 0.0), 700.0)
    prev, cur = 0.0, (cmath.exp if isinstance(x, complex) else math.exp)(lift - x / 2.0)
    for k in range(n - 1):
        prev, cur = cur, 2.0 * cur - prev - x * cur / (k + 1)
    return cur * math.exp(-lift)


def kernel_laplace(n: int, s, center_offset: float = 0.0):
    """Laplace transform int e^{s u} K_N(u + c, u - c) du, c = center_offset.

    The value depends on (s, c) only through x = N c^2 - s^2 / N:
    it equals e^{-x/2} L^{(1)}_{N-1}(x) = N e^{-x/2} 1F1(1 - N; 2 | x).
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    return _weighted_laguerre(n, n * float(center_offset) ** 2 - s * s / n)


def density_laplace(n: int, s):
    """int e^{s t} p_N(t) dt (the spectral moment generating function)."""
    return kernel_laplace(n, s, 0.0) / n


@dataclass(frozen=True)
class StirlingTable:
    """Unsigned Stirling numbers of the first kind, exact.

    rows[n][k] counts permutations of n elements with exactly k cycles;
    rows[n] has entries for k = 0..n.  Immutable and safely shareable.
    """

    max_n: int
    rows: tuple[tuple[int, ...], ...]

    def count(self, n: int, k: int) -> int:
        """[n, k]; zero outside 0 <= k <= n."""
        if not 0 <= n <= self.max_n:
            raise ValueError(f"n must be in 0..{self.max_n}")
        if k < 0 or k > n:
            return 0
        return self.rows[n][k]


def stirling_table(max_n: int) -> StirlingTable:
    """Exact table via [n+1, k] = n [n, k] + [n, k-1].

    max_n is capped at STIRLING_CAP; larger requests raise instead of
    risking silent precision loss downstream.
    """
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
    return StirlingTable(max_n=max_n, rows=tuple(rows))


def laplace_expansion(s, depth: int) -> np.ndarray:
    """Coefficients c_0..c_depth of density_laplace(N, s) = sum_l c_l N^{-l}.

    Each c_l combines the expansion of e^{s^2/(2N)} with inner sums
    B_l = sum_k [k+1, k+1-l] s^{2k} / (k! (k+1)!).  The inner sums are
    truncated at K terms, K >= depth chosen so the factorial tail bound
    |s|^{2K}/K! is three orders below 1e-12; a certified bound on the
    truncation error of every coefficient is checked against 1e-12 and a
    breach raises rather than returning silently degraded values.
    Odd-index coefficients are zero in exact arithmetic; in floats they are
    the rounding residue of cancelling sums (laplace_expansion(1.3, 4) has
    c_1 = -2^-51), not zero.  The verify check accepts residue up to 1e-12
    of the largest even coefficient.  Sums start from the integer 0, so
    the result is float64 for real s and complex128 for complex s.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    mag2 = abs(s) ** 2
    k = max(depth, 1)
    while mag2 ** k / math.factorial(k) > 1e-3 * _EXPANSION_TOL and k < STIRLING_CAP - 1:
        k += 1
    inner_terms = k
    if inner_terms + 1 > STIRLING_CAP:
        raise ValueError(
            f"inner_terms {inner_terms} needs stirling rows beyond the cap {STIRLING_CAP}"
        )
    # Tail of sum_{k > K} |s|^{2k}/k! via the geometric ratio at k = K+1.
    ratio = mag2 / (inner_terms + 2)
    if ratio >= 1.0:
        raise ValueError(
            f"inner truncation at {inner_terms} terms cannot certify |s| = {abs(s):.3g}"
        )
    inner_tail = mag2 ** (inner_terms + 1) / math.factorial(inner_terms + 1) / (1.0 - ratio)
    bound = math.exp(mag2 / 2.0) * inner_tail
    if bound > _EXPANSION_TOL:
        raise ValueError(
            f"certified truncation bound {bound:.3e} exceeds tol {_EXPANSION_TOL:.3e}; "
            "use a smaller |s|"
        )
    table = stirling_table(inner_terms + 1)
    s2 = s * s
    inner = []
    for l in range(depth + 1):
        total = 0
        for k in range(l, inner_terms + 1):
            total += table.count(k + 1, k + 1 - l) * s2 ** k / (
                math.factorial(k) * math.factorial(k + 1)
            )
        inner.append(total)
    out = []
    for m in range(depth + 1):
        total = 0
        for j in range(m + 1):
            l = m - j
            total += (s2 / 2.0) ** j / math.factorial(j) * (-1) ** l * inner[l]
        out.append(total)
    return np.array(out)
