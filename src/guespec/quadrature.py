"""Quadrature rules used throughout: semicircle, Gaussian-weight, whole line.

Three integration needs show up repeatedly:

* polynomial integrals against sqrt(4 - t^2) on [-2, 2]  (closed-form
  Chebyshev rule, exact to the stated degree);
* polynomial integrals against exp(-N t^2 / 2) on the line (Gauss rule
  whose nodes are the eigenvalues of the Jacobi matrix, from the package's
  LAPACK tridiagonal solver);
* general rapidly decaying integrands on the line (adaptive panels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import christoffel_sum, _check_size, _christoffel
from .tridiagonal import tridiagonal_eigenvalues


class QuadratureError(RuntimeError):
    """Raised when a panel or widening budget is exhausted."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights; weights absorb the weight function."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        vals = f(self.nodes)
        return (self.weights * vals).sum()


def semicircle_rule(count: int) -> QuadratureRule:
    """Gauss rule for integrals of g(t) sqrt(4 - t^2) over [-2, 2].

    Closed form: t_j = 2 cos(j pi / (count+1)),
    w_j = (4 pi / (count+1)) sin^2(j pi / (count+1)).
    Exact for polynomials of degree 2*count - 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    j = np.arange(1, count + 1)
    theta = j * math.pi / (count + 1)
    nodes = 2.0 * np.cos(theta)
    weights = (4.0 * math.pi / (count + 1)) * np.sin(theta) ** 2
    return QuadratureRule(nodes, weights)


def integrate_gegenbauer2(f, count: int):
    """Integral of f(t) (4 - t^2)^{3/2} over [-2, 2].

    One factor (4 - t^2) is folded into the integrand over the semicircle
    rule, which costs two polynomial degrees of exactness.
    """
    rule = semicircle_rule(count)
    return rule.integrate(lambda t: f(t) * (4.0 - t * t))


def gaussian_rule(n: int, count: int) -> QuadratureRule:
    """Gauss rule for integrals of f(t) exp(-n t^2 / 2) over the line.

    Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    with off-diagonal entries sqrt(k/n) (Golub-Welsch structure, solved by
    LAPACK through ``tridiagonal_eigenvalues``); the weight at node t_j is
    the reciprocal Christoffel sum 1 / sum_{k<count} htilde_k(t_j)^2.
    Exact for polynomials of degree 2*count - 1.
    """
    _check_size(n)
    if count < 1:
        raise ValueError("count must be >= 1")
    nodes = tridiagonal_eigenvalues(np.zeros(count), np.sqrt(np.arange(1, count) / n))
    # A Christoffel sum past the double range means a weight below it.
    sums = _christoffel(n, count - 1, nodes)
    weights = np.where(np.isfinite(sums), 1.0 / sums, 0.0)
    return QuadratureRule(nodes, weights)


def density_polynomial_integral(n: int, f, degree: int) -> float:
    """Exact integral of f(t) p_n(t) over the line for polynomial f.

    p_n times the Gaussian-stripped Christoffel sum is a polynomial, so a
    Gauss rule sized for degree + 2(n-1) integrates it exactly.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    count = (degree + 2 * (n - 1)) // 2 + 1
    rule = gaussian_rule(n, count)
    unweighted_diag = christoffel_sum(n, n - 1, rule.nodes) / n
    return float((rule.weights * f(rule.nodes) * unweighted_diag).sum())


@dataclass(frozen=True)
class LineIntegral:
    value: complex | float
    error_bound: float
    panels: int
    interval: tuple[float, float]


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_DOUBLINGS = 24
_MAX_DEPTH = 30
_PANEL_BUDGET = 40000

# Panels per integrand call: bounds the node arrays of one call at
# 15 * _CHUNK_PANELS points whatever the width of a bisection level.
_CHUNK_PANELS = 1024


def _panels(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """15-point Gauss-Legendre sums of f over the panels [lo[i], hi[i]]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = []
    for start in range(0, len(lo), _CHUNK_PANELS):
        m = mid[start:start + _CHUNK_PANELS]
        h = half[start:start + _CHUNK_PANELS]
        vals = np.reshape(f((m[:, None] + h[:, None] * _GL_NODES).ravel()), (len(m), -1))
        sums.append(h * (_GL_WEIGHTS * vals).sum(axis=1))
    return np.concatenate(sums)


def integrate_line(f, scale: float = 1.0, tol: float = 1e-10) -> LineIntegral:
    """Adaptive integral of f over the whole line.

    The caller asserts that |f(u)| decays at least like a Gaussian
    exp(-(u/scale)^2) for large |u|.  The window, centred at 0, is widened
    by doubling until the implied tail bound (edge magnitude times
    scale^2 / (2 width)) drops below tol/4, then integrated by adaptive
    bisection with fixed 15-point Gauss-Legendre panels.  An interval
    [lo, hi] is accepted when its bisection defect is at most
    tol * max(1, |S0|) * (hi - lo) / (b - a), with S0 the sum of the 16
    seed panels over the window [a, b]: tol is absolute for integrals
    below 1 in size and relative above it.  The tail test stays absolute.
    Returns the value, a conservative error estimate (sum of accepted
    panel defects plus the tail bound), the panel count and the window.

    f must act elementwise on 1-D arrays of any length.  The bisection
    runs level by level: one call of f (more for very wide levels, in
    chunks of bounded size) evaluates both halves of every pending
    interval.  Accepted panels are summed in descending position, so the
    result is that of a depth-first bisection and does not depend on how
    a level was split into calls.  A level that would take the panel
    count past the budget of 40000 raises QuadratureError unevaluated.
    """
    if scale <= 0 or tol <= 0:
        raise ValueError("scale and tol must be positive")
    width = 4.0 * scale
    tail = math.inf
    for _ in range(_MAX_DOUBLINGS):
        edges = np.array([-width, width])
        edge_mag = float(np.max(np.abs(f(edges))))
        tail = edge_mag * scale * scale / (2.0 * width)
        if tail < tol / 4.0:
            break
        width *= 2.0
    else:
        raise QuadratureError(
            f"window widening budget exhausted ({_MAX_DOUBLINGS} doublings, tail {tail:.3e})"
        )
    a, b = -width, width

    # Seed with a modest uniform split so narrow features are not missed.
    seeds = np.linspace(a, b, 17)
    lo, hi = seeds[:-1], seeds[1:]
    whole = _panels(f, lo, hi)
    # Accept at tol relative to the seed estimate S0 where |S0| > 1: an
    # absolute tol far below the rounding noise of a large integral is
    # never met.
    size = max(1.0, abs(complex(whole.sum())))
    accepted = []
    panels = 0
    depth = 0
    while len(lo):
        panels += 2 * len(lo)
        if panels > _PANEL_BUDGET:
            raise QuadratureError(f"panel budget {_PANEL_BUDGET} exhausted")
        mid = 0.5 * (lo + hi)
        halves = _panels(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[:len(lo)], halves[len(lo):]
        diff = left + right - whole
        # hypot is the scalar abs of a complex number; numpy's vectorised
        # complex abs can differ from it in the last bit.
        err = np.hypot(diff.real, diff.imag)
        done = (err <= tol * size * (hi - lo) / (b - a)) | (depth >= _MAX_DEPTH)
        accepted.append((lo[done], left[done], right[done], err[done]))
        todo = ~done
        lo, hi = (np.concatenate([lo[todo], mid[todo]]),
                  np.concatenate([mid[todo], hi[todo]]))
        whole = np.concatenate([left[todo], right[todo]])
        depth += 1

    starts, left, right, err = (np.concatenate(parts) for parts in zip(*accepted))
    total = 0.0
    defect = 0.0
    for i in np.argsort(starts)[::-1]:
        total = total + left[i] + right[i]
        defect += err[i]
    value = complex(total)
    if value.imag == 0.0:
        value = value.real
    return LineIntegral(value, defect + tail, panels, (a, b))
