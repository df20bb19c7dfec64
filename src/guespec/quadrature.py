"""Quadrature rules used throughout: semicircle, Gaussian-weight, whole line.

Three integration needs show up repeatedly:

* polynomial integrals against sqrt(4 - t^2) on [-2, 2]  (closed-form
  Chebyshev rule, exact to the stated degree);
* polynomial integrals against exp(-N t^2 / 2) on the line (Gauss rule
  whose nodes are the eigenvalues of the Jacobi matrix, from LAPACK dsterf,
  or from eigvalsh below order 16 or without the library: see
  ``tridiagonal``), and against p_N with the Christoffel factor folded into
  the same rule's weights, both from one ``hermite.square_sums`` pass;
* general rapidly decaying integrands on the line (adaptive panels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import _check_size, square_sums
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


def gauss_nodes(n: int, count: int) -> np.ndarray:
    """Nodes of the count-point Gauss rule for the weight exp(-n t^2 / 2):
    the eigenvalues of the Jacobi matrix with off-diagonal entries sqrt(k/n)
    (Golub-Welsch), by ``tridiagonal_eigenvalues`` (LAPACK dsterf from count
    16 on, eigvalsh below that or where numpy ships no dsterf)."""
    _check_size(n)
    if count < 1:
        raise ValueError("count must be >= 1")
    return tridiagonal_eigenvalues(np.zeros(count), np.sqrt(np.arange(1, count) / n))


def gaussian_rule(n: int, count: int, density: bool = False) -> QuadratureRule:
    """Gauss rule for integrals of f(t) exp(-n t^2 / 2) over the line, exact
    for polynomials of degree 2*count - 1: the ``gauss_nodes``, weighted by
    e^{-n t_j^2/2} / W_{count-1}(t_j), W_k = sum_{j<=k} psi_j^2 the lifted
    Christoffel sums of ``square_sums`` (Golub-Welsch).

    With ``density`` (count >= n), the rule for f(t) p_n(t) instead:
    W_{n-1}(t_j) / (n W_{count-1}(t_j)), both sums from the one pass.  The
    weight function cancels, so a weight leaves the double range only where
    its true value does.
    """
    nodes = gauss_nodes(n, count)
    if density:
        top, sums = square_sums(n, count - 1, nodes, inner=n - 1)
        sums = n * sums
    else:
        top, sums = np.exp(-n * nodes * nodes / 2.0), square_sums(n, count - 1, nodes)
    # From n t^2/4 ~ 1095 on (outer nodes of rules past about 1100 nodes) the
    # lifted start underflows, so both sums are 0.0; the true weight there
    # lies below e^{-2190}.
    return QuadratureRule(nodes, np.divide(top, sums, out=np.zeros(count), where=sums > 0.0))


def density_rule(n: int, degree: int) -> QuadratureRule:
    """Rule for integrals of f(t) p_n(t) over the line, exact for
    polynomial f of degree <= ``degree``.

    p_n is exp(-n t^2 / 2) times the Christoffel sum at k_max = n - 1 over
    n, a polynomial of degree 2(n-1); folded into the weights of the Gauss
    rule sized for degree + 2(n-1), it leaves f alone in the integrand.
    Build the rule once for the highest degree and integrate every
    polynomial against it.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return gaussian_rule(n, (degree + 2 * (n - 1)) // 2 + 1, density=True)


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


def _panel(f, lo: float, hi: float):
    """15-point Gauss-Legendre sum of f over [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * (_GL_WEIGHTS * f(mid + half * _GL_NODES)).sum()


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
    Returns the value, its error_bound, the panel count and the window.
    error_bound is the sum of the accepted panels' bisection defects plus
    the tail estimate: an estimate, not a proof.  For e^{0.05 t^2} p_16(t)
    at scale sqrt(1/7.95) and tol 1e-11 it reads 2.26e-12, while the value
    is 6.02e-12 off the exact integral.

    f must act elementwise on 1-D arrays; each call evaluates the two
    window edges or one panel.  The bisection is depth first, the
    rightmost pending interval split next.  A split that would take the
    panel count past the budget of 40000 raises QuadratureError
    unevaluated.
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
    stack = [(lo, hi, _panel(f, lo, hi), 0) for lo, hi in zip(seeds[:-1], seeds[1:])]
    # Accept at tol relative to the seed estimate S0 where |S0| > 1: an
    # absolute tol far below the rounding noise of a large integral is
    # never met.
    size = max(1.0, abs(complex(np.array([whole for _, _, whole, _ in stack]).sum())))
    total = 0.0
    defect = 0.0
    panels = 0
    while stack:
        lo, hi, whole, depth = stack.pop()
        panels += 2
        if panels > _PANEL_BUDGET:
            raise QuadratureError(f"panel budget {_PANEL_BUDGET} exhausted")
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        err = abs(left + right - whole)
        if err <= tol * size * (hi - lo) / (b - a) or depth >= _MAX_DEPTH:
            total = total + left + right
            defect += err
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    value = complex(total)
    if value.imag == 0.0:
        value = value.real
    return LineIntegral(value, defect + tail, panels, (a, b))
