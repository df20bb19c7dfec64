"""Reference values for the output checks, computed without guespec.

Everything here uses mpmath or exact integer arithmetic, so a reference
shares no floating-point path with the program it checks:

* the density p_N(x) = K_N(x, x)/N and its derivatives from the
  orthonormal Hermite recurrence run on truncated Taylor series in
  extended precision (no underflow, no finite differences);
* transforms from ``mpmath.hyp1f1(1 - N, 2, x)``;
* even moments of p_N from the Harer-Zagier recursion, exact rationals;
* unsigned Stirling numbers of the first kind from ``mpmath.stirling1``.

The run computes the references once per command list, before any timing
starts; the worker that runs the commands never imports this module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath as mp

from checks import parse_s

_DPS = 30


def _mul(a, b):
    """Product of two truncated Taylor series (coefficient lists)."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _exp(g):
    """exp of a Taylor series truncated after the cubic term."""
    g0, g1, g2, g3 = list(g) + [0] * (4 - len(g))
    e0 = mp.exp(g0)
    return [e0, e0 * g1, e0 * (g2 + g1 ** 2 / 2), e0 * (g3 + g1 * g2 + g1 ** 3 / 6)][:len(g)]


def density_taylor(n: int, x, order: int):
    """Taylor coefficients of p_N = K_N(t, t)/N at t = x (an mpf) up to
    t^order, order <= 3: the orthonormal Hermite recurrence in
    y = t sqrt(N/2), run on truncated power series at the working precision."""
    c = mp.sqrt(mp.mpf(n) / 2)
    y = ([x * c, c] + [mp.mpf(0)] * order)[:order + 1]
    a = [mp.pi ** mp.mpf(-0.25) * v for v in _exp([-v / 2 for v in _mul(y, y)])]
    total = _mul(a, a)
    if n > 1:
        b = [mp.sqrt(2) * v for v in _mul(y, a)]
        total = [u + v for u, v in zip(total, _mul(b, b))]
        for k in range(1, n - 1):
            up, down = mp.sqrt(mp.mpf(2) / (k + 1)), mp.sqrt(mp.mpf(k) / (k + 1))
            a, b = b, [up * u - down * v for u, v in zip(_mul(y, b), a)]
            total = [u + v for u, v in zip(total, _mul(b, b))]
    return [v * c / n for v in total]


def density_point(n: int, x: float, derivs: bool) -> list[float]:
    """[p_N(x)], or [p, p', p'', p'''] when derivs, at the float x."""
    with mp.workdps(_DPS):
        coeffs = density_taylor(n, mp.mpf(x), 3 if derivs else 0)
        return [float(v * math.factorial(k)) for k, v in enumerate(coeffs)]


def kernel_laplace(n: int, s: complex, offset: float) -> complex:
    """int e^{s u} K_N(u + c, u - c) du = N e^{(v-u)/2} 1F1(1-N; 2; u-v)
    with u = N c^2, v = s^2/N."""
    with mp.workdps(_DPS):
        s = mp.mpc(s.real, s.imag)
        u = n * mp.mpf(offset) ** 2
        v = s * s / n
        return complex(n * mp.exp((v - u) / 2) * mp.hyp1f1(1 - n, 2, u - v))


def even_moments(n: int, count: int) -> list[Fraction]:
    """m_0, m_2, ..., m_{2(count-1)} of p_N, exact.

    Harer-Zagier: C_k = E tr H^{2k} for unit-variance entries satisfies
    (k + 2) C_{k+1} = (4k + 2) N C_k + k (4k^2 - 1) C_{k-1}, C_0 = N,
    C_1 = N^2; p_N (entry variance 1/N) has m_{2k} = C_k / N^{k+1}.
    """
    c = [n, n * n]
    for k in range(1, count):
        c.append(((4 * k + 2) * n * c[k] + k * (4 * k * k - 1) * c[k - 1]) // (k + 2))
    return [Fraction(c[k], n ** (k + 1)) for k in range(count)]


def moment(n: int, p: int) -> Fraction:
    if p % 2:
        return Fraction(0)
    return even_moments(n, p // 2 + 1)[-1]


def _gauss_integral(n: int, sigma: float) -> float:
    """int e^{sigma t^2} p_N = sum_j sigma^j m_{2j} / j!; the terms decay
    like (2 sigma / N)^j, so sigma < N/4 keeps the sum short."""
    if not 4 * sigma < n:
        raise ValueError("gauss reference needs sigma < N/4")
    with mp.workdps(_DPS):
        sig = mp.mpf(sigma)
        total, j, term = mp.mpf(0), 0, mp.mpf(1)
        moments = even_moments(n, 400)
        while j < len(moments):
            term = sig ** j * mp.mpf(moments[j].numerator) / moments[j].denominator \
                / mp.factorial(j)
            total += term
            if abs(term) < mp.mpf(10) ** (-_DPS) * abs(total):
                return float(total)
            j += 1
    raise ValueError("gauss reference series did not converge")


def resum_reference(kind: str, param: float, n: int) -> float:
    """int f p_N for the resum function families."""
    if kind == "monomial":
        return float(moment(n, int(param)))
    if kind == "exp":
        return kernel_laplace(n, complex(param), 0.0).real / n
    if kind == "cos":
        return kernel_laplace(n, complex(0.0, param), 0.0).real / n
    return _gauss_integral(n, param)


def semicircle_average(kind: str, param: float) -> float:
    """int f d(semicircle): the zeroth correction functional alpha_0."""
    with mp.workdps(_DPS):
        a = mp.mpf(param)
        if kind == "monomial":
            p = int(param)
            return 0.0 if p % 2 else float(math.comb(p, p // 2) / (p // 2 + 1))
        if kind == "exp":
            return float(mp.besseli(1, 2 * a) / a)
        if kind == "cos":
            return float(mp.besselj(1, 2 * a) / a)
        # sum_j sigma^j Catalan(j) / j!
        total, j = mp.mpf(0), 0
        while True:
            term = a ** j * math.comb(2 * j, j) / (j + 1) / mp.factorial(j)
            total += term
            if term < mp.mpf(10) ** (-_DPS) * total:
                return float(total)
            j += 1


def stirling_rows(max_n: int) -> list[list[int]]:
    return [[abs(int(mp.stirling1(m, k, exact=True))) for k in range(m + 1)]
            for m in range(max_n + 1)]


def _spot_indices(cmd: dict) -> list[int]:
    """Grid endpoints plus two interior points drawn from the command."""
    last = cmd["points"] - 1
    rng = random.Random(f"{cmd['id']}:{cmd['start']}:{cmd['stop']}")
    return sorted({0, last, rng.randrange(last + 1), rng.randrange(last + 1)})


def _grid_point(cmd: dict, i: int) -> float:
    # np.linspace(start, stop, points)[i] for i < points - 1; the last
    # point is stop exactly.
    last = cmd["points"] - 1
    if i == last:
        return float(cmd["stop"])
    step = (cmd["stop"] - cmd["start"]) / last
    return cmd["start"] + i * step


def for_command(cmd: dict) -> dict:
    """The reference record a check of ``cmd`` needs (JSON-serialisable)."""
    kind = cmd["kind"]
    if kind == "density":
        spots = []
        for i in _spot_indices(cmd):
            x = _grid_point(cmd, i)
            spots.append({"index": i, "x": x, "values": density_point(cmd["n"], x, cmd["derivs"])})
        return {"spots": spots}
    if kind == "laplace":
        s = parse_s(cmd["s"])
        value = kernel_laplace(cmd["n"], s, cmd["lambda_minus"] or 0.0)
        if cmd["density"]:
            value /= cmd["n"]
        return {"value": [value.real, value.imag]}
    if kind == "resum":
        fn, p, n = cmd["function"], cmd["param"], cmd["n"]
        integral = resum_reference(fn, p, n)
        scale = float(moment(n, int(p) + 1)) if fn == "monomial" and int(p) % 2 else integral
        return {"integral": integral, "alpha0": semicircle_average(fn, p),
                "scale": max(1.0, abs(scale))}
    if kind == "moments":
        n, top = cmd["n"], cmd["max"]
        exact = [float(moment(n, p)) for p in range(top + 2)]
        # An odd moment is 0; its rounding error is measured against the
        # next even one.
        return {"moments": exact[:-1],
                "scales": [max(1.0, exact[p + p % 2]) for p in range(top + 1)]}
    if kind == "stirling":
        return {"rows": stirling_rows(cmd["max_n"])}
    if kind == "sample":
        # Exact laws of the tridiagonal model, checked on the file read back:
        # sum of eigenvalues ~ N(0, 1) per spectrum, N * sum of squares ~
        # chi^2 with N^2 degrees of freedom, and E mean(l^4) = 2 + 1/N^2.
        return {"m4": float(moment(cmd["n"], 4))}
    return {}
