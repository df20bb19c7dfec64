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
decaying expansions in this basis: ``plane_wave_series`` gives those of
e^{at}, cos(at) and e^{sigma t^2} from Bessel values, with a bound on
what its cut drops.  The series of a polynomial (``taylor_to_basis``) is
whole.  ``growth_bound_report`` measures how far the maxima of |f_n| on a
complex circle exceed the envelope 2 * max(r, 3)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Largest degree of a series: resum refuses a Taylor file or monomial past
#: it, and plane_wave_series a series of more than _BAND_DEGREE_CAP + 1
#: coefficients.  The exact Taylor conversion costs about n^2/4 big-integer
#: steps whose integers grow with n: at n = 646 it takes 0.03-0.11 s (2-core
#: Xeon), at 2n 0.4-0.6 s and at 4n about 4 s.
_BAND_DEGREE_CAP = 646

#: plane_wave_series ends a series where every later coefficient, and
#: every later term of its deepest functional, is below this fraction of
#: the largest.
_PLANE_WAVE_CUT = 2.0 ** -60

#: Largest type sigma of e^{sigma t^2} in plane_wave_series, whose
#: connection cancels like sigma^2 (see the README's resum section).
_GAUSS_TYPE_CAP = 3.2

_LOG_MAX = math.log(np.finfo(float).max)  # 709.78...

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


def normalization_check(order: int) -> np.ndarray:
    """Gram matrix of int f_n f_m (4 - t^2)^{3/2} dt on [-2, 2], n, m <= order.

    Equals 2 pi (n+1)(n+3) on the diagonal and 0 off it; one semicircle
    rule, with the factor (4 - t^2) in its weights, integrates every entry
    exactly (degree 2 order + 2), so deviations expose basis evaluation
    errors, not quadrature ones.
    """
    from .quadrature import semicircle_rule

    if order < 0:
        raise ValueError("order must be >= 0")
    rule = semicircle_rule(order + 2)
    f = basis_values(order, rule.nodes)
    return (f * (rule.weights * (4.0 - rule.nodes * rule.nodes))) @ f.T


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


def monomial_to_basis(power: int) -> np.ndarray:
    """Basis coefficients of t^power: a_n = p! (n+2) / (l! (n+l+2)!) at
    n = p - 2l, and 0.0 at n of the other parity.

    Each is one int / int division of the quotient ``taylor_to_basis``
    forms for the monomial, so the bits are its bits (and past the double
    range the same OverflowError), from O(p) big-integer products instead
    of its O(p^2) Horner steps.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    fact = [1]
    for j in range(1, power + 3):
        fact.append(fact[-1] * j)
    a = np.zeros(power + 1)
    for l in range(power // 2 + 1):
        n = power - 2 * l
        a[n] = (n + 2) * fact[power] / (fact[l] * fact[n + l + 2])
    return a


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
class BasisSeries:
    """Coefficients in the f_n basis and a bound on what they leave out.

    tail_bound bounds on [-2, 2] the terms a cut series drops (see
    ``plane_wave_series``); it is 0.0 when the coefficients are the whole
    series, as for a polynomial.
    """

    coefficients: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    def __call__(self, t):
        return evaluate_series(self.coefficients, t)


def _scaled_bessel(sign: float, b: float, top: int) -> np.ndarray:
    """B_k(2b) / min(b, 1)^k for k = 0..top, up to one common factor, by
    Miller's backward recurrence (DLMF 3.6) from B_{top+1} = 0.

    B is I for sign = 1 and J for sign = -1, with B_{k-1} = (k/b) B_k +
    sign B_{k+1}.  Where B_{k-1} > 0 (every k for I; k >= ceil(2b) - 1 for
    J, whose first zero j_{nu,1} lies past nu + 2) it runs on the ratios
    B_k / B_{k-1}, which neither overflow nor underflow, and the values
    are their running products.  Below that, J runs on values, which stay
    within a small factor of their largest there.  Dividing by min(b, 1)^k
    keeps B_2 from underflowing against B_0 when b is tiny.
    """
    scale, mu2 = max(b, 1.0), min(b, 1.0) ** 2
    low = max(0, math.ceil(2.0 * b) - 2) if sign < 0 else 0
    ratios = [0.0] * (top + 1)
    ratio = 0.0
    for k in range(top, low, -1):
        ratio = 1.0 / (k / scale + sign * mu2 * ratio)
        ratios[k] = ratio
    ratios[low] = 1.0
    values = np.empty(top + 1)
    values[low:] = np.cumprod(ratios[low:])
    above = values[low + 1]
    for k in range(low, 0, -1):
        values[k - 1] = k / scale * values[k] + sign * mu2 * above
        above = values[k]
    return values


def plane_wave_series(kind: str, a: float, depth: int) -> BasisSeries:
    """Basis coefficients of e^{at} (kind "exp"), cos(at) (kind "cos") or
    e^{at^2} (kind "gauss", 0 <= a <= _GAUSS_TYPE_CAP).

    Gegenbauer's plane-wave expansion (Watson, *Treatise on the Theory of
    Bessel Functions*, ch. XI; DLMF 10.23) in f_n(t) = C_n^{(2)}(t/2):

        e^{at}  = sum_n (n+2) I_{n+2}(2a) / a^2 f_n(t),
        cos(at) = sum_{n even} (-1)^{n/2} (n+2) J_{n+2}(2a) / a^2 f_n(t).

    With t = 2 cos(theta), e^{at^2} = e^{2a} [I_0(2a) + 2 sum_k I_k(2a)
    T_{2k}(t/2)] (DLMF 10.35); two connection steps (DLMF 18.9) take its
    Chebyshev coefficients c_m to u_0 = c_0 - c_2/2, u_m = (c_m - c_{m+2})/2
    (in U_m) and to u_n/(n+1) - u_{n+2}/(n+3) (in f_n).  The Bessel values
    come from ``_scaled_bessel``, normalised by e^{2a} = I_0 + 2 sum_k I_k
    or 1 = J_0 + 2 sum_k J_{2k}.

    The series ends after the last b_n of at least 2^-60 of the largest, after
    the last term b_n <T^depth f_n> of alpha_depth above 2^-60 of its largest,
    and not before 4 depth + 1 (zeros where those underflow).  The weights
    grow steeply (1.1e43 at n = 64, depth 12), so alpha_depth reads past the
    function's cut, far past for gauss, whose b_n fall like a^{n/2} / (n/2)!.
    They vanish at odd n and n < 4g; exact passes for g <= 4 give
    n (n-2) ... (n-4g+2) (n+2)^2 (n+4) ... (n+4g+2) times a polynomial of
    degree 2g - 2, taken as (n+2)^{2g-2}.  tail_bound is sum_{n >= L} |b_n|
    f_n(2), f_n(2) = (n+1)(n+2)(n+3)/6 = max |f_n| on [-2, 2].  Refused
    (ValueError) where the largest coefficient leaves the double range, for a
    gauss type outside [0, _GAUSS_TYPE_CAP], or past _BAND_DEGREE_CAP + 1 b_n.
    """
    if kind not in ("exp", "cos", "gauss"):
        raise ValueError(f"kind must be 'exp', 'cos' or 'gauss', got {kind!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not math.isfinite(a):
        raise ValueError(f"{kind} parameter must be finite, got {a!r}")
    sign, b = (-1.0 if kind == "cos" else 1.0), abs(a)
    # Refused before any Bessel value: c_0 = 2 I_2(2b) / b^2 is past the double range
    # once e^b is, and cos keeps 2b - 2 coefficients or more (J_k(2b) is large for k < 2b).
    if kind == "exp" and b > _LOG_MAX:
        raise ValueError(f"exp parameter {a!r}: the basis coefficients leave the double range")
    if kind == "gauss" and not 0.0 <= a <= _GAUSS_TYPE_CAP:
        raise ValueError(f"gauss parameter {a!r} is outside [0, {_GAUSS_TYPE_CAP}]")
    least = max(4 * depth + 1, math.ceil(2.0 * b) - 2 if sign < 0 else 1)
    if least > _BAND_DEGREE_CAP + 1:
        raise ValueError(f"{kind} parameter {a!r} at depth {depth} needs at least {least} "
                         f"basis coefficients, more than {_BAND_DEGREE_CAP + 1}")
    # e^{2b} = e^{lift} e^{2b - lift}: the first factor goes into the
    # normalisation, the second multiplies the coefficients last.
    lift = min(2.0 * b, 700.0) if sign > 0 else 0.0
    top = 4 * depth + math.ceil(2.0 * b + 16.0 * max(b, 1.0) ** (1.0 / 3.0)) + 32
    while True:
        values = _scaled_bessel(sign, b, top)
        powers = min(b, 1.0) ** np.arange(top + 1.0)
        terms = powers * values
        norm = terms[0] + 2.0 * (terms[1:].sum() if sign > 0 else terms[2::2].sum())
        if kind == "gauss":
            # c_{2k} = 2 e^{2b} I_k(2b), c_0 doubled so that u_0 is like u_m.  An odd
            # length ends the series on an even index, which the tail below reads.
            n = np.arange(top + 1.0 - top % 2)
            c = np.zeros(len(n) + 4)
            c[::2] = terms[:len(n) // 2 + 3] * (2.0 * math.exp(2.0 * b) / (norm * math.exp(-lift)))
            u = 0.5 * (c[:-2] - c[2:])
            coeffs = u[:-2] / (n + 1.0) - u[2:] / (n + 3.0)
        else:
            n = np.arange(top - 1.0)
            # (n+2) B_{n+2} / b^2 = (n+2) mu^n values[n+2] / max(b, 1)^2, mu = min(b, 1).
            coeffs = (n + 2.0) * powers[:-2] * values[2:] / (norm * math.exp(-lift) * max(b, 1.0) ** 2)
        if sign < 0:
            # 0.0 - x, not -x: an underflowed coefficient stays +0.0.
            coeffs[1::2] = 0.0
            coeffs[2::4] = 0.0 - coeffs[2::4]
        # log |b_n| (m+2g+1)! / (m-2g)! (m+1)^{2g-1} + const at n = 2m = 4g + 2j, g = depth.
        size = np.abs(coeffs)
        j = np.arange((len(size) + 1) // 2 - 2 * depth, dtype=float)
        with np.errstate(divide="ignore"):
            reads = (np.log(size[4 * depth::2]) + (2 * depth - 1) * np.log(j + 2 * depth + 1)
                     + np.log((j + 4 * depth + 1) / np.maximum(j, 1)).cumsum())
        read = np.flatnonzero(reads > reads.max() + math.log(_PLANE_WAVE_CUT))
        length = 1 + max(int(np.flatnonzero(size >= _PLANE_WAVE_CUT * size.max())[-1]),
                         4 * depth + 2 * int(read.max(initial=0)))
        if length > _BAND_DEGREE_CAP + 1:
            raise ValueError(f"{kind} parameter {a!r} at depth {depth} needs {length} basis "
                             f"coefficients, more than {_BAND_DEGREE_CAP + 1}")
        # The ratios, started from 0 at top, are right to (B_top / B_k)^2.
        # The first top suffices wherever the length is in range (checked
        # at depths 0-40); the doubling guards that accuracy, not speed.
        if length + 4 <= top and values[top] <= 2.0 ** -30 * values[length + 2]:
            break
        top *= 2
    if sign > 0:
        with np.errstate(over="ignore"):
            coeffs = coeffs * math.exp(2.0 * b - lift)
        if not np.isfinite(coeffs).all():
            raise ValueError(f"exp parameter {a!r}: the basis coefficients leave the double range")
        if a < 0:
            coeffs[1::2] = 0.0 - coeffs[1::2]
    # What the cut drops up to top, and past top a geometric bound: the
    # ratio of terms two indices apart falls from there on.  The factor
    # 1 + 2^-40 covers the rounding of the coefficients (measured: 1.5e-15).
    tail = np.abs(coeffs[length:]) * ((n + 1.0) * (n + 2.0) * (n + 3.0) / 6.0)[length:]
    total = float(tail.sum())
    if tail[-1] > 0.0:
        step = float(tail[-1] / tail[-3])
        total += float(tail[-1] + tail[-2]) * step / (1.0 - step) if step < 1.0 else math.inf
    return BasisSeries(coeffs[:length], tail_bound=total * (1.0 + 2.0 ** -40))


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
    """Residuals of d^2/dx^2 T_{n+2}(x/2) = ((n+2)/2) f_n(x), n = 0..order.

    The Chebyshev side is evaluated by its own recurrence (with first and
    second derivatives carried along), independent of the f_n recurrence;
    one pass serves every n, and is compared with one ``basis_values``
    frame.
    """
    f = basis_values(order, t)
    u = np.asarray(t, dtype=float) / 2.0
    second = np.empty_like(f)
    # T_k(u), T_k'(u), T_k''(u) via T_{k+1} = 2u T_k - T_{k-1}.
    tk_prev, tk = np.ones_like(u), u.copy()
    dk_prev, dk = np.zeros_like(u), np.ones_like(u)
    sk_prev, sk = np.zeros_like(u), np.zeros_like(u)
    for k in range(1, order + 2):
        tk_next = 2.0 * u * tk - tk_prev
        dk_next = 2.0 * tk + 2.0 * u * dk - dk_prev
        sk_next = 4.0 * dk + 2.0 * u * sk - sk_prev
        tk_prev, tk = tk, tk_next
        dk_prev, dk = dk, dk_next
        sk_prev, sk = sk, sk_next
        second[k - 1] = sk / 4.0  # T_{k+1}'', chain rule for x -> x/2, twice
    m = np.arange(2, order + 3).reshape((-1,) + (1,) * u.ndim)
    return second - 0.5 * m * f
