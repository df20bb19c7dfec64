"""Coefficient-space operator calculus behind the 1/N^2 resummation.

Everything here acts on coefficient vectors in the f_n basis of
:mod:`guespec.gegenbauer`.  The three building blocks:

* ``differentiate`` (D): d/dt in coefficient space, from the ladder
  f'_{n+1} - f'_{n-1} = (n+2) f_n.
* ``eigenvalue_inverse`` (H): the diagonal map a_n -> a_n / ((n+1)(n+3)).
* ``first_order_solve`` (H o D): produces the unique series u with
  (t^2 - 4) u' + 3 t u = g - <g>, where <g> is the semicircle average
  of g (the sum of its even coefficients).

Each acts along axis 0, so applied to a matrix it acts on every column,
bit for bit as on that column alone.

Composing, the correction operator T = D^3 o H o D converts moments of
the finite-N eigenvalue density into semicircle data: for polynomial
(or entire, rapidly expanded) f,

    int f dp_N = sum_k  <T^k f>  N^{-2k},

with each application of T supplying one extra power of N^{-2}.  The
series converges for every N >= 1 on the function classes this package
handles; ``measure_convergence_threshold`` checks that claim empirically
rather than assuming it, and ``norm_probe`` measures the operator's
amplification in the weighted norms of :class:`guespec.gegenbauer.NormParams`.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .gegenbauer import (
    BasisSeries,
    NormParams,
    _log_weighted_max,
    basis_with_derivatives,
    log_basis_weight,
    semicircle_functional,
)

#: Indices of accuracy consumed from the top of a truncated coefficient
#: vector by one application of the correction operator.
DEGREE_LOSS_PER_CORRECTION = 4

_CONVERGENCE_TOL = 1e-6  # final relative error of measure_convergence_threshold


def _per_row(values, ndim: int) -> np.ndarray:
    """``values`` shaped to scale the rows (axis 0) of an ndim-dimensional array."""
    return np.reshape(values, (-1,) + (1,) * (ndim - 1))


def differentiate(coefficients) -> np.ndarray:
    """Coefficients of g' given those of g: (Dg)_n = (n+2) sum of a_m, m > n, m - n odd."""
    a = np.asarray(coefficients, dtype=float)
    # tail[m] = a_m + a_{m+2} + ..., added from the top down (cumsum adds in
    # order); + 0.0 turns an all -0.0 sum into 0.0, as a zero-started
    # accumulator would.
    tail = np.empty_like(a)
    for parity in (0, 1):
        tail[parity::2] = np.cumsum(a[parity::2][::-1], axis=0)[::-1]
    out = np.zeros_like(a)
    out[:-1] = _per_row(np.arange(2.0, len(a) + 1.0), a.ndim) * (tail[1:] + 0.0)
    return out


def eigenvalue_inverse(coefficients) -> np.ndarray:
    """Divide each coefficient by its eigenvalue (n+1)(n+3)."""
    a = np.asarray(coefficients, dtype=float)
    n = _per_row(np.arange(len(a), dtype=float), a.ndim)
    return a / ((n + 1.0) * (n + 3.0))


def first_order_solve(coefficients) -> np.ndarray:
    """Series u with (t^2 - 4) u' + 3 t u = g - <g>."""
    return eigenvalue_inverse(differentiate(coefficients))


def first_order_residual(coefficients, t) -> np.ndarray:
    """Pointwise residual of the equation ``first_order_solve`` claims to solve."""
    g = np.asarray(coefficients, dtype=float)
    u = first_order_solve(g)
    t = np.asarray(t, dtype=float)
    f, df, _ = basis_with_derivatives(len(g) - 1, t)
    g_t = np.tensordot(g, f, axes=(0, 0))
    u_t = np.tensordot(u, f, axes=(0, 0))
    du_t = np.tensordot(u, df, axes=(0, 0))
    return g_t - semicircle_functional(g) - ((t * t - 4.0) * du_t + 3.0 * t * u_t)


def eigen_check(order: int, t) -> float:
    """Max residual of (t^2 - 4) f_n'' + 5 t f_n' - ((n+2)^2 - 4) f_n at samples.

    The eigenvalue (n+2)^2 - 1 of the inverted operator appears here with
    the 3t u term folded in, which shifts it by -3.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    t = np.asarray(t, dtype=float)
    f, df, d2f = basis_with_derivatives(order, t)
    res = (t * t - 4.0) * d2f[order] + 5.0 * t * df[order] \
        - ((order + 2) ** 2 - 4.0) * f[order]
    return float(np.max(np.abs(res)))


def correction(coefficients) -> np.ndarray:
    """One application of T = D^3 o H o D, that is D^3 of ``first_order_solve``
    (drops effective degree by 4)."""
    return differentiate(differentiate(differentiate(first_order_solve(coefficients))))


def correction_functionals(series, depth: int) -> np.ndarray:
    """Semicircle averages alpha_k = <T^k g> for k = 0..depth.

    ``series`` may be a BasisSeries or a bare coefficient vector.  When the
    series carries a nonzero tail bound (i.e. it is a truncation of an
    infinite expansion), the vector should be long enough that ``depth``
    correction passes do not consume it: each pass eats
    DEGREE_LOSS_PER_CORRECTION indices of accuracy from the top.  A shorter
    vector triggers a RuntimeWarning and the computation proceeds; the
    functionals past the trusted depth come out of the zero-padded tail.
    For series whose coefficients decay superexponentially (everything
    ``expand_entire`` certifies) those trailing functionals are below the
    certified tolerance anyway, which is why this is a warning and not an
    error.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if isinstance(series, BasisSeries):
        coeffs = series.coefficients
        inexact = series.tail_bound > 0.0
    else:
        coeffs = np.asarray(series, dtype=float)
        inexact = False
    if inexact and len(coeffs) <= DEGREE_LOSS_PER_CORRECTION * depth:
        warnings.warn(
            f"truncated series of degree {len(coeffs) - 1} only supports "
            f"{(len(coeffs) - 1) // DEGREE_LOSS_PER_CORRECTION} trusted correction "
            f"passes; deeper functionals (up to {depth}) fall inside the "
            "truncation tail and may be spurious zeros",
            RuntimeWarning,
            stacklevel=2,
        )
    out = [semicircle_functional(coeffs)]
    cur = coeffs
    for _ in range(depth):
        cur = correction(cur)
        out.append(semicircle_functional(cur))
    return np.array(out)


def resum_partial_sums(functionals, ensemble_size: int) -> np.ndarray:
    """Partial sums S_m = sum_{k<=m} alpha_k N^{-2k} for N = ensemble_size."""
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be a positive integer")
    a = np.asarray(functionals, dtype=float)
    powers = (1.0 / float(ensemble_size) ** 2) ** np.arange(len(a))
    return np.cumsum(a * powers)


def resummed_integral(series, ensemble_size: int, depth: int) -> float:
    """int f dp_N via depth+1 terms of the correction expansion."""
    alphas = correction_functionals(series, depth)
    return float(resum_partial_sums(alphas, ensemble_size)[-1])


def measure_convergence_threshold(
    functionals,
    reference,
    max_ensemble_size: int = 12,
) -> int:
    """Smallest N0 such that the expansion is observed to converge for all N >= N0.

    For each N in 1..max_ensemble_size the partial sums are compared with
    ``reference(N)``; convergence at N means the error sequence is
    non-increasing from index 3 on and finishes below 1e-6
    relative to max(1, |reference|).  Errors below a few dozen ulps of the
    reference count as "at the rounding floor" and never break monotonicity:
    once the sum has converged to machine precision, the residual bounces by
    single bits.  Raises RuntimeError when not even the largest tested N
    converges, so a caller never mistakes "no data" for "N0 = max".
    """
    a = np.asarray(functionals, dtype=float)
    if len(a) < 5:
        raise ValueError("need at least 5 correction functionals")
    converged = []
    for n in range(1, max_ensemble_size + 1):
        ref = float(reference(n))
        errs = np.abs(resum_partial_sums(a, n) - ref)
        floor = 64.0 * np.finfo(float).eps * max(1.0, abs(ref))
        monotone = all(
            errs[k + 1] <= max(errs[k] * (1.0 + 1e-9), floor)
            for k in range(3, len(errs) - 1)
        )
        converged.append(monotone and errs[-1] <= _CONVERGENCE_TOL * max(1.0, abs(ref)))
    for n0 in range(1, max_ensemble_size + 1):
        if all(converged[n0 - 1:]):
            return n0
    raise RuntimeError(
        f"no convergence observed up to ensemble size {max_ensemble_size}"
    )


def norm_probe(params: NormParams, truncation: int = 100) -> tuple[float, int]:
    """Worst amplification of the correction operator over basis directions.

    Returns (max over n of ||T f_n|| / ||f_n||, attaining index n) in the
    weighted sup norm defined by ``params``, with vectors truncated at the
    given top index.  Computed in log space; the reported value is stable
    under raising the truncation because T lowers index.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    # Column n of T applied to the identity is the image of f_n.
    images = correction(np.eye(truncation + 1))
    best = -math.inf
    arg = -1
    for n in range(truncation + 1):
        ratio = _log_weighted_max(images[:, n], params) - log_basis_weight(n, params)
        if ratio > best:
            best = ratio
            arg = n
    if arg < 0:
        raise ValueError("correction operator vanished on every tested direction")
    return math.exp(best), arg
