"""Quadrature rules used throughout: semicircle, Gaussian-weight, whole line.

Three integration needs show up repeatedly:

* polynomial integrals against sqrt(4 - t^2) on [-2, 2]  (closed-form
  Chebyshev rule, exact to the stated degree);
* polynomial integrals against exp(-N t^2 / 2) on the line (Gauss rule
  built by eigen-decomposition of the Jacobi matrix, using the in-house
  tridiagonal solver);
* general rapidly decaying integrands on the line (adaptive panels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import christoffel_sum, _check_size
from .tridiagonal import tridiagonal_eigenvalues


class QuadratureError(RuntimeError):
    """Raised when a panel or widening budget is exhausted."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights; weights absorb the weight function."""

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int
    weight_kind: str

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
    return QuadratureRule(nodes, weights, 2 * count - 1, "semicircle")


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
    the in-house QL iteration); the weight at node t_j is the reciprocal
    Christoffel sum 1 / sum_{k<count} htilde_k(t_j)^2.  Exact for
    polynomials of degree 2*count - 1.
    """
    _check_size(n)
    if count < 1:
        raise ValueError("count must be >= 1")
    if count == 1:
        nodes = np.array([0.0])
    else:
        sub = [math.sqrt(k / n) for k in range(1, count)]
        nodes = np.array(tridiagonal_eigenvalues([0.0] * count, sub))
    weights = 1.0 / christoffel_sum(n, count - 1, nodes)
    return QuadratureRule(nodes, weights, 2 * count - 1, "gaussian")


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


def _panel(f, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * (_GL_WEIGHTS * f(mid + half * _GL_NODES)).sum()


def integrate_line(f, center: float = 0.0, scale: float = 1.0, tol: float = 1e-10,
                   max_doublings: int = 24, max_depth: int = 30,
                   panel_budget: int = 40000) -> LineIntegral:
    """Adaptive integral of f over the whole line.

    The caller asserts that |f(center + u)| decays at least like a
    Gaussian exp(-(u/scale)^2) for large |u|.  The window is widened by
    doubling until the implied tail bound (edge magnitude times
    scale^2 / (2 width)) drops below tol/4, then integrated by adaptive
    bisection with fixed 15-point Gauss-Legendre panels.  Returns the
    value, a conservative error estimate (sum of accepted panel defects
    plus the tail bound), the panel count, and the window.
    """
    if scale <= 0 or tol <= 0:
        raise ValueError("scale and tol must be positive")
    width = 4.0 * scale
    tail = math.inf
    for _ in range(max_doublings):
        edges = np.array([center - width, center + width])
        edge_mag = float(np.max(np.abs(f(edges))))
        tail = edge_mag * scale * scale / (2.0 * width)
        if tail < tol / 4.0:
            break
        width *= 2.0
    else:
        raise QuadratureError(
            f"window widening budget exhausted ({max_doublings} doublings, tail {tail:.3e})"
        )
    a, b = center - width, center + width

    # Seed with a modest uniform split so narrow features are not missed.
    seeds = np.linspace(a, b, 17)
    stack = [(lo, hi, _panel(f, lo, hi), 0) for lo, hi in zip(seeds[:-1], seeds[1:])]
    total = 0.0
    defect = 0.0
    panels = 0
    while stack:
        lo, hi, whole, depth = stack.pop()
        panels += 2
        if panels > panel_budget:
            raise QuadratureError(f"panel budget {panel_budget} exhausted")
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err = abs(left + right - whole)
        if err <= tol * (hi - lo) / (b - a) or depth >= max_depth:
            total = total + left + right
            defect += err
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    value = complex(total)
    if value.imag == 0.0:
        value = value.real
    return LineIntegral(value, defect + tail, panels, (a, b))
