"""The polynomial basis f_n(t) = C_n^{(2)}(t/2) on [-2, 2] and series in it.

These rescaled Gegenbauer polynomials diagonalize the operator calculus in
:mod:`guespec.operators`:

    recurrence   f_{n+1} = ((n+2) t f_n - (n+3) f_{n-1}) / (n+1),
                 f_0 = 1, f_1 = 2t
    weighted orthogonality
                 int_{-2}^{2} f_n f_m (4 - t^2)^{3/2} dt = 2 pi (n+1)(n+3) delta_{nm}
    semicircle averages
                 (1/2pi) int_{-2}^{2} f_n sqrt(4 - t^2) dt = 1 (n even), 0 (n odd)
    explicit sums (DLMF 18.5.10, and the connection formula of DLMF 18.18)
                 f_n(t) = sum_k (-1)^k (n-k+1)! / (k! (n-2k)!) t^{n-2k}
                 t^m = m! sum_l (m-2l+2) / (l! (m-l+2)!) f_{m-2l}

so the semicircle average of a series is simply the sum of its
even-indexed coefficients.  ``taylor_to_basis`` and ``basis_to_taylor``
take each coefficient as one of these sums, accumulated exactly over
integers and rounded once: exact Fractions or correctly rounded floats
at any degree.

Entire functions of order <= 2 and finite type sigma admit rapidly
decaying expansions in this basis; ``expand_entire`` converts truncated
Taylor data, certifies a tail bound on the band |z| <= 3 with the nominal
envelope |f_n| <= 2 * 3^n, and rejects coefficient growth inconsistent
with the declared type.  Note the envelope is an honest bound only on the
real interval; ``growth_bound_report`` measures (and reports, rather than
hides) how far the complex-circle maxima exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Slack constant absorbed into the coefficient growth check (enters as
#: GROWTH_SLACK**(2/n), which tends to 1).
GROWTH_SLACK = 1e8

_GROWTH_FLOOR = 10  # indices below this are absorbed into the constant

#: Largest n whose band envelope 3^n is a finite double.
_BAND_DEGREE_CAP = 646

_GROWTH_SAMPLES = 360  # equally spaced points on the circle of growth_bound_report


def basis_values(order: int, t) -> np.ndarray:
    """f_0(t) .. f_order(t); t may be real or complex, scalar or array."""
    if order < 0:
        raise ValueError("order must be >= 0")
    t = np.asarray(t)
    dtype = np.result_type(t.dtype, np.float64)
    out = np.zeros((order + 1,) + t.shape, dtype=dtype)
    out[0] = 1.0
    if order >= 1:
        out[1] = 2.0 * t
    for n in range(1, order):
        out[n + 1] = ((n + 2) * t * out[n] - (n + 3) * out[n - 1]) / (n + 1)
    return out


def basis_with_derivatives(order: int, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_n, f_n', f_n'') for n = 0..order; f_n from ``basis_values``."""
    f = basis_values(order, t)
    t = np.asarray(t)
    df = np.zeros_like(f)
    d2f = np.zeros_like(f)
    if order >= 1:
        df[1] = 2.0
    for n in range(1, order):
        df[n + 1] = ((n + 2) * (f[n] + t * df[n]) - (n + 3) * df[n - 1]) / (n + 1)
        d2f[n + 1] = ((n + 2) * (2.0 * df[n] + t * d2f[n]) - (n + 3) * d2f[n - 1]) / (n + 1)
    return f, df, d2f


def evaluate_series(coefficients, t):
    """Value of sum_n a_n f_n(t)."""
    a = np.asarray(coefficients)
    basis = basis_values(len(a) - 1, t)
    return np.tensordot(a, basis, axes=(0, 0))


def semicircle_functional(coefficients) -> float:
    """Semicircle average (1/2pi) int g sqrt(4-t^2) dt = sum of even coefficients."""
    a = np.asarray(coefficients, dtype=float)
    return float(a[::2].sum())


def normalization_check(n: int, m: int) -> float:
    """Quadrature value of int f_n f_m (4 - t^2)^{3/2} dt on [-2, 2].

    Equals 2 pi (n+1)(n+3) when n == m and 0 otherwise; computed by an
    exact-degree rule so deviations expose basis evaluation errors, not
    quadrature ones.
    """
    from .quadrature import integrate_gegenbauer2

    if n < 0 or m < 0:
        raise ValueError("orders must be >= 0")
    order = max(n, m)

    def integrand(t):
        f = basis_values(order, t)
        return f[n] * f[m]

    count = (n + m + 2) // 2 + 2
    return float(integrate_gegenbauer2(integrand, count))


def _over_common_denominator(coefficients) -> tuple[list[int], int]:
    """Integers m_j and one d > 0 with coefficients[j] == m_j / d exactly
    (floats are dyadic rationals, Fractions are exact)."""
    coeffs = [Fraction(c) for c in coefficients]
    if not coeffs:
        raise ValueError("empty coefficient vector")
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _round_once(quotients, exact: bool):
    """(numerator, denominator) pairs as Fractions, or as correctly rounded
    floats: int / int true division rounds once (and raises OverflowError
    past the double range, as float() of a Fraction does)."""
    if exact:
        return [Fraction(num, den) for num, den in quotients]
    return np.array([num / den for num, den in quotients])


def taylor_to_basis(coefficients, exact: bool = False):
    """Basis coefficients a_n of the polynomial sum_j alpha_j t^j.

    a_n = sum_l alpha_{n+2l} (n+2l)! (n+2) / (l! (n+l+2)!), a sum with
    positive weights, exact before its one rounding: the float result is
    correctly rounded at every degree, and exact=True returns Fractions.
    """
    nums, den = _over_common_denominator(coefficients)
    degree = len(nums) - 1
    fact = [math.factorial(j) for j in range(degree + 3)]
    weighted = [m * fact[j] for j, m in enumerate(nums)]
    quotients = []
    for n in range(degree + 1):
        top = (degree - n) // 2
        # Horner over l on the denominator top! (n+top+2)!: the integer
        # factor of alpha_{n+2l} is prod_{i=l+1}^{top} i (n+i+2).
        acc = 0
        for l in range(top + 1):
            acc = acc * (l * (n + l + 2)) + weighted[n + 2 * l]
        quotients.append(((n + 2) * acc, den * fact[top] * fact[n + top + 2]))
    return _round_once(quotients, exact)


def basis_to_taylor(coefficients, exact: bool = False):
    """Monomial coefficients b_j of sum_n a_n f_n (inverse of taylor_to_basis).

    b_j = sum_k a_{j+2k} (-1)^k (j+k+1)! / (k! j!), integer weights, exact
    before its one rounding like ``taylor_to_basis``.
    """
    nums, den = _over_common_denominator(coefficients)
    degree = len(nums) - 1
    quotients = []
    for j in range(degree + 1):
        acc = 0
        weight = j + 1  # the k = 0 weight
        for k in range((degree - j) // 2 + 1):
            acc += weight * nums[j + 2 * k]
            weight = -weight * (j + k + 2) // (k + 1)
        quotients.append((acc, den))
    return _round_once(quotients, exact)


@dataclass(frozen=True)
class TaylorSeries:
    """Truncated Taylor coefficients plus a declared order-2 growth type.

    type_hint = sigma means the represented entire function satisfies
    |f(z)| <= C exp(sigma |z|^2); sigma = 0 declares effectively
    polynomial data (any finite vector qualifies).
    """

    coefficients: np.ndarray
    type_hint: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        if self.type_hint < 0:
            raise ValueError("type_hint must be >= 0")


@dataclass(frozen=True)
class BasisSeries:
    """Coefficients in the f_n basis with a certified real-band tail bound.

    tail_bound dominates the value dropped by truncation on the band
    |z| <= 3 under the nominal envelope |f_n| <= 2 * 3^n (plus, for a
    positive declared type, a model tail beyond the input degree).
    """

    coefficients: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    def __call__(self, t):
        return evaluate_series(self.coefficients, t)


def _implied_types(alpha: np.ndarray):
    """(n, implied order-2 type (n / 2e) |alpha_n|^(2/n)) per nonzero alpha_n, n >= 10."""
    for n in range(_GROWTH_FLOOR, len(alpha)):
        if alpha[n] != 0.0:
            yield n, (n / (2.0 * math.e)) * abs(alpha[n]) ** (2.0 / n)


def expand_entire(series: TaylorSeries, tol: float = 1e-12) -> BasisSeries:
    """Convert Taylor data of an order-<=2 entire function to the f_n basis.

    Checks the coefficient growth |alpha_n| <= C (2 e sigma / n)^{n/2}
    implied by the declared type (first offending index named in the
    error), converts exactly, then trims trailing coefficients whose
    band-envelope contribution fits inside tol, recording the certified
    tail bound.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sigma = series.type_hint
    alpha = series.coefficients
    if len(alpha) - 1 > _BAND_DEGREE_CAP:
        raise ValueError(f"Taylor degree {len(alpha) - 1} exceeds {_BAND_DEGREE_CAP}, past which "
                         "the band envelope 3^n of the tail certificate overflows")
    if sigma > 0:
        for n, implied in _implied_types(alpha):
            if implied > sigma * GROWTH_SLACK ** (2.0 / n):
                raise ValueError(
                    f"coefficient index {n} implies order-2 type {implied:.4g}, "
                    f"inconsistent with declared type {sigma:.4g}"
                )
    a = taylor_to_basis(alpha)
    # Trim trailing terms while their band contribution stays inside tol/2.
    dropped = 0.0
    top = len(a) - 1
    while top > 0:
        contribution = abs(a[top]) * 2.0 * 3.0 ** top
        if dropped + contribution > tol / 2.0:
            break
        dropped += contribution
        top -= 1
    tail = dropped
    if sigma > 0:
        tail += _model_tail(a, sigma)
    if tail > tol:
        raise ValueError(
            f"certified tail bound {tail:.3e} exceeds requested tolerance {tol:.3e}; "
            "supply more Taylor terms"
        )
    return BasisSeries(a[: top + 1].copy(), tail_bound=tail)


def _model_tail(a: np.ndarray, sigma: float) -> float:
    """Band-envelope estimate for basis coefficients beyond the input degree.

    Calibrates the constant in |a_n| <= C (8 e sigma / n)^{n/2} on the
    computed upper half of the vector, then sums the envelope terms
    2 * 3^n * C (8 e sigma / n)^{n/2} past the end (in logs; the terms
    decay superexponentially once n > 72 e sigma).
    """
    degree = len(a) - 1
    log_c = -math.inf
    for n in range(max(_GROWTH_FLOOR, degree // 2), degree + 1):
        if a[n] == 0.0:
            continue
        log_c = max(log_c, math.log(abs(a[n])) - 0.5 * n * (math.log(8 * math.e * sigma) - math.log(n)))
    if log_c == -math.inf:
        return 0.0
    total = 0.0
    for n in range(degree + 1, degree + 1 + 400):
        log_term = log_c + 0.5 * n * (math.log(8 * math.e * sigma) - math.log(n)) \
            + math.log(2.0) + n * math.log(3.0)
        term = math.exp(log_term) if log_term < 700 else math.inf
        total += term
        if total > 0 and term < total * 1e-18:
            break
    return total


@dataclass(frozen=True)
class NormParams:
    """Parameters of the weighted sup norm sup_n (n/K)^{c n} |a_n|.

    rate is c (must be >= 1/2), index_scale is K (> 0).  The n = 0 term
    contributes |a_0| (0^0 := 1).
    """

    rate: float
    index_scale: float

    def __post_init__(self):
        if self.rate < 0.5:
            raise ValueError("rate must be >= 1/2")
        if self.index_scale <= 0:
            raise ValueError("index_scale must be positive")


def log_basis_weight(n: int, params: NormParams) -> float:
    """log of (n/K)^{c n}; zero at n = 0."""
    if n == 0:
        return 0.0
    return params.rate * n * math.log(n / params.index_scale)


def _log_weighted_max(coefficients, params: NormParams) -> float:
    """log of sup_n (n/K)^{c n} |a_n|; -inf when every a_n is zero."""
    best = -math.inf
    for n, v in enumerate(np.asarray(coefficients, dtype=float)):
        if v == 0.0:
            continue
        best = max(best, math.log(abs(v)) + log_basis_weight(n, params))
    return best


@dataclass(frozen=True)
class BoundReport:
    """Measured maximum of |f_n| on a circle vs the nominal envelope.

    The envelope 2 * max(r,3)^n is not achieved on the complex circle for
    most orders; this report states the measured margin instead of
    asserting the envelope.
    """

    max_value: float
    value_envelope: float


def growth_bound_report(order: int, radius: float) -> BoundReport:
    """Evaluate f_order on |z| = radius and compare to the envelope."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    angles = 2.0 * math.pi * np.arange(_GROWTH_SAMPLES) / _GROWTH_SAMPLES
    z = radius * np.exp(1j * angles)
    return BoundReport(
        max_value=float(np.max(np.abs(basis_values(order, z)[order]))),
        value_envelope=2.0 * max(radius, 3.0) ** order,
    )


def chebyshev_link_residual(order: int, t) -> np.ndarray:
    """Residual of d^2/dx^2 T_{order+2}(x/2) = ((order+2)/2) f_order(x).

    The Chebyshev side is evaluated by its own recurrence (with first and
    second derivatives carried along), independent of the f_n recurrence.
    """
    t = np.asarray(t, dtype=float)
    u = t / 2.0
    m = order + 2
    # T_k(u), T_k'(u), T_k''(u) via T_{k+1} = 2u T_k - T_{k-1}.
    tk_prev, tk = np.ones_like(u), u.copy()
    dk_prev, dk = np.zeros_like(u), np.ones_like(u)
    sk_prev, sk = np.zeros_like(u), np.zeros_like(u)
    for _ in range(1, m):
        tk_next = 2.0 * u * tk - tk_prev
        dk_next = 2.0 * tk + 2.0 * u * dk - dk_prev
        sk_next = 4.0 * dk + 2.0 * u * sk - sk_prev
        tk_prev, tk = tk, tk_next
        dk_prev, dk = dk, dk_next
        sk_prev, sk = sk, sk_next
    second = sk / 4.0  # chain rule for x -> x/2, twice
    f = basis_values(order, t)[order]
    return second - 0.5 * m * f
