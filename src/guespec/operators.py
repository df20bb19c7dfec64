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
bit for bit as on that column alone, zero padding below the column
included.  The semicircle average of a column is another matter: numpy's
pairwise ``sum`` orders its additions by the length summed, so a batch of
series keeps its bits only when each column's functional is taken at that
column's own length (``batched_functionals``).

Composing, the correction operator T = D^3 o H o D converts moments of
the finite-N eigenvalue density into semicircle data: for polynomial
(or entire, rapidly expanded) f,

    int f dp_N = sum_k  <T^k f>  N^{-2k},

with each application of T supplying one extra power of N^{-2}.  For a
polynomial the series ends.  For e^{sigma t^2} its threshold is exact:
alpha_k = sum_j sigma^j/j! eps_k(j), with eps_k(j) >= 0 the Harer-Zagier
counts of ``laplace._genus_counts``, so every term is nonnegative and by
Tonelli the series sums to int e^{sigma t^2} p_N dt, finite if and only
if N > 2 sigma.  ``norm_probe`` measures the operator's amplification in
the weighted norms of :class:`guespec.gegenbauer.NormParams`.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .gegenbauer import (
    BasisSeries,
    NormParams,
    basis_with_derivatives,
    semicircle_functional,
)

#: Indices of accuracy consumed from the top of a truncated coefficient
#: vector by one application of the correction operator.
DEGREE_LOSS_PER_CORRECTION = 4
_ZERO = np.zeros(())


def _per_row(values, ndim: int) -> np.ndarray:
    """``values`` shaped to scale the rows (axis 0) of an ndim-dimensional array."""
    return np.reshape(values, (-1,) + (1,) * (ndim - 1))


@functools.lru_cache(maxsize=64)
def _factors(size: int, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The ladder factors n + 2, n < size - 1, and the eigenvalues
    (n+1)(n+3), n < size, shaped by ``_per_row``: cached, as every pass over
    a vector of one length takes the same ones, and read-only, as they are
    shared."""
    n = np.arange(size, dtype=float)
    ladder, eigen = _per_row(n[1:] + 1.0, ndim), _per_row((n + 1.0) * (n + 3.0), ndim)
    ladder.flags.writeable = eigen.flags.writeable = False
    return ladder, eigen


def differentiate(coefficients) -> np.ndarray:
    """Coefficients of g' given those of g: (Dg)_n = (n+2) sum of a_m, m > n, m - n odd."""
    a = np.asarray(coefficients, dtype=float)
    size = len(a)
    # tail[m] = a_m + a_{m+2} + ..., added from the top down (cumsum adds in
    # order): the vector reversed, a_0 dropped if that leaves the length
    # odd, then one cumsum over its pairs runs both parities.  Row j of the
    # sums is tail[size - 1 - j].  + 0.0, a 0-d zero (dispatched faster than
    # a float), turns an all -0.0 sum into 0.0, as a zero-started sum would.
    top = a[::-1][:size - size % 2]
    tail = top.reshape((-1, 2) + a.shape[1:]).cumsum(axis=0).reshape(top.shape)
    np.add(tail, _ZERO, tail)
    out = np.empty_like(a)
    np.multiply(_factors(size, a.ndim)[0], tail[size - 2::-1], out[:-1])
    out[size - 1:] = _ZERO
    return out


def eigenvalue_inverse(coefficients) -> np.ndarray:
    """Divide each coefficient by its eigenvalue (n+1)(n+3)."""
    a = np.asarray(coefficients, dtype=float)
    return a / _factors(len(a), a.ndim)[1]


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


def eigen_check(order: int, t) -> np.ndarray:
    """Max residual of (t^2 - 4) f_n'' + 5 t f_n' - ((n+2)^2 - 4) f_n at samples,
    for each n = 0..order, from one ``basis_with_derivatives`` frame.

    The eigenvalue (n+2)^2 - 1 of the inverted operator appears here with
    the 3t u term folded in, which shifts it by -3.  The recurrences run
    forward, so row n is bit for bit the residual of an order-n frame.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    t = np.asarray(t, dtype=float)
    f, df, d2f = basis_with_derivatives(order, t)
    n = _per_row(np.arange(order + 1), f.ndim)
    res = (t * t - 4.0) * d2f + 5.0 * t * df - ((n + 2) ** 2 - 4.0) * f
    return np.abs(res).reshape(order + 1, -1).max(axis=1)


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
    functionals past the trusted depth come out of the zero-padded tail
    and may be wrong, since each pass amplifies the coefficients that the
    truncation dropped.  The passes stop once one returns all zeros.
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
    out = np.zeros(depth + 1)
    out[0] = semicircle_functional(coeffs)
    cur = coeffs
    for k in range(1, depth + 1):
        cur = correction(cur)
        # A pass maps zeros to zeros, and its output holds no -0.0: once
        # the vector is all zero, every later alpha is 0.0.
        if not cur.any():
            break
        out[k] = semicircle_functional(cur)
    return out


def batched_functionals(vectors, depths) -> list[np.ndarray]:
    """``correction_functionals(v, depth)`` for each exact coefficient vector
    v and its depth, bit for bit, from max(depths) passes over one matrix
    whose columns are the vectors, zero-padded to the longest.

    A pass leaves a padded column's entries those of a pass on the column
    alone and zeros past its length, as the sums of ``differentiate`` run
    from the top, where zeros add nothing.  The functionals are not: the
    order of numpy's pairwise ``sum`` depends on the length summed, so each
    is taken over its column's own length.  Columns whose depth is reached
    leave the matrix.
    """
    lengths = [len(v) for v in vectors]
    out = [np.zeros(depth + 1) for depth in depths]
    if not vectors:
        return out
    cur = np.zeros((max(lengths), len(vectors)))
    for j, v in enumerate(vectors):
        cur[:lengths[j], j] = v
    active = list(range(len(vectors)))
    for k in range(max(depths) + 1):
        if k:
            cur = correction(cur)
        for i, j in enumerate(active):
            out[j][k] = semicircle_functional(cur[:lengths[j], i])
        keep = [i for i, j in enumerate(active) if depths[j] > k]
        if len(keep) < len(active):
            cur, active = cur[:, keep], [active[i] for i in keep]
    return out


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


def norm_probe(params: NormParams, truncation: int = 100) -> tuple[float, int]:
    """Worst amplification of the correction operator over basis directions.

    Returns (max over n of ||T f_n|| / ||f_n||, the first n attaining it)
    in the weighted sup norm defined by ``params``, with vectors truncated
    at the given top index.  Computed in log space as the column maxima of
    L_mn = log|T_mn| + log w_m - log w_n, w_n = (n/K)^{c n} (w_0 = 1); the
    reported value is stable under raising the truncation because T
    lowers index.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    # Column n of T applied to the identity is the image of f_n.
    images = correction(np.eye(truncation + 1))
    n = np.arange(1.0, truncation + 1.0)
    log_w = np.concatenate(([0.0], params.rate * n * np.log(n / params.index_scale)))
    with np.errstate(divide="ignore"):
        ratios = (np.log(np.abs(images)) + log_w[:, None] - log_w).max(axis=0)
    arg = int(np.argmax(ratios))
    if ratios[arg] == -math.inf:
        raise ValueError("correction operator vanished on every tested direction")
    return math.exp(ratios[arg]), arg
