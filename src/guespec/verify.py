"""Self-check suites behind the ``guespec verify`` command.

Each suite is a list of named checks with measured values in the detail
string, so a failing run says what was observed, not just that something
broke.  The suites deliberately cross routes: closed forms against
quadrature, coefficient-space operators against pointwise evaluation,
exact sampling statistics against Monte Carlo.  The kernel transform
behind ``guespec laplace --verify`` is checked by Gauss sums, exact at
real s and with a certified remainder at complex s
(``kernel_pair_transforms``).

A check's independent evaluations run together: the transform's (s,
offset) pairs at one N and node count share one recurrence pass, the
kernel values at one N one Christoffel-sum pass (``hermite.kernel``),
and the intervals of a panel integral one integrand call.  Every
recurrence is elementwise and every sum runs over its own entries, so
the bits are those of one evaluation at a time.  The density rules and
gap grids stay per N, as their rule or recurrence depends on N; the step
of ``characteristic_function`` does not, so its 11 sizes share one pass,
and five 1/N expansions one count table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gegenbauer, hermite, laplace, montecarlo, operators, quadrature


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def _integrate_interval(f, a, b, panels: int):
    """Integrals over [a, b] by ``panels`` equal panels of ``integrate_line``'s
    15-point rule, the nodes of every interval in one call of f: a float for
    scalar ends, an array shaped like the broadcast ends otherwise."""
    edges = np.linspace(a, b, panels + 1, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    nodes = mid[..., None] + half[..., None] * quadrature._GL_NODES
    vals = f(nodes.ravel()).reshape(nodes.shape)
    # Each interval's panel sums added left to right (cumsum adds in order,
    # sum pairwise).
    total = np.cumsum(half * (quadrature._GL_WEIGHTS * vals).sum(axis=-1), axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------- density

def suite_density() -> list[CheckResult]:
    out = []
    worst_mass = 0.0
    for n in range(1, 33):
        # Sized for degree 2, the rule has N + 1 nodes: its Christoffel
        # factor is a ratio of two different sums, not the identity.
        rule = quadrature.density_rule(n, 2)
        for moment in (rule.integrate(np.ones_like), rule.integrate(lambda t: t * t)):
            worst_mass = max(worst_mass, abs(float(moment) - 1.0))
    out.append(_check("unit mass and m_2 = 1, N=1..32", worst_mass < 1e-10,
                      f"max |m_0-1|, |m_2-1| = {worst_mass:.3e} (tol 1e-10)"))

    gaps = []
    for n in (1, 2, 3, 5, 8, 16, 32, 64, 128, 200, 256):
        grid = np.linspace(-1.0, 1.0, 2001) * math.sqrt(4380.0 / n)  # to N x^2/4 = 1095
        top_row, diag = hermite.density_and_kernel_diag(n, grid)
        squares = diag / n
        normal = squares >= np.finfo(float).tiny
        gap = np.abs(top_row - squares)[normal] / squares[normal]
        gaps.append((float(gap.max()), n, float(grid[normal][gap.argmax()])))
    gap, n, x = max(gaps)
    out.append(_check("top-row density vs Christoffel square sum", gap <= 5e-13,
                      f"max rel gap = {gap:.3e} at N={n}, x={x:.4g} "
                      "(2001 points on +-sqrt(4380/N), normal sums, tol 5e-13)"))

    worst_tail = -math.inf
    tail_ok = True
    radii = (0.5, 1.0)
    starts = 2.0 + np.array(radii)
    for n in (4, 8, 16):
        tails = _integrate_interval(lambda x: hermite.density(n, x), starts, starts + 8.0, 64)
        for r, val in zip(radii, tails.tolist()):
            bound = math.exp(-n * r * r / 2.0)
            tail_ok &= val <= bound
            worst_tail = max(worst_tail, val / bound)
    out.append(_check("upper tail below exp(-N r^2/2)", tail_ok,
                      f"max tail/bound = {worst_tail:.3e} over N in {{4,8,16}}, r in {{0.5,1}}"))

    grid = np.linspace(-12.0, 12.0, 601)
    worst_frame = 0.0
    for n in (1, 2, 4, 8, 16, 32):
        psi, _ = hermite.weighted_frame(n, n, grid)
        allowance = 1.1 if n <= 8 else 1.1 * (n / (2.0 * math.pi)) ** 0.25
        worst_frame = max(worst_frame, float(np.max(np.abs(psi))) / allowance)
    out.append(_check("weighted frame boundedness", worst_frame <= 1.0,
                      f"max |psi| / allowance = {worst_frame:.4f} "
                      "(allowance 1.1 up to N=8, scaled by (N/2pi)^(1/4) beyond)"))

    worst_slope = 0.0
    probes, steps = np.array([[-1.5], [0.0], [0.3], [1.9]]), np.array([1e-7, 1e-6])
    for n in (2, 5, 10, 32):
        # One kernel pass per N: every probe x against x + h for both steps.
        off = hermite.kernel(n, probes, probes + steps)
        slopes = np.abs(off - hermite.kernel_diag(n, probes)) / (steps * 2 * n)
        worst_slope = max(worst_slope, float(np.max(slopes)))
    out.append(_check("near-diagonal kernel continuity", worst_slope <= 1.0,
                      f"max |K(x,x+h)-K(x,x)| / (2N h) = {worst_slope:.3f} (calibrated C = 2N)"))

    worst_sym = 0.0
    x, y = np.array([0.3, 1.1, -1.7]), np.array([-0.3, 0.2, 0.4])
    for n in (2, 5, 10):
        # K(x, y) and K(y, x) from one kernel pass.
        both = hermite.kernel(n, np.concatenate([x, y]), np.concatenate([y, x]))
        worst_sym = max(worst_sym, float(np.max(np.abs(both[:3] - both[3:]))))
    out.append(_check("kernel symmetry", worst_sym == 0.0,
                      f"max |K(x,y)-K(y,x)| = {worst_sym:.3e}"))
    return out


# -------------------------------------------------------------------- ode

def suite_ode() -> list[CheckResult]:
    out = []
    grid = np.linspace(-4.0, 4.0, 401)
    worst = 0.0
    worst_n = 0
    for n in range(1, 17):
        derivatives = hermite.density_derivatives(n, grid)
        p0, p1, _, p3 = derivatives
        res = hermite.ode_residual(n, grid, derivatives)
        scale = np.maximum(np.abs(p0), np.maximum(np.abs(p1), np.abs(p3) / (n * n)))
        scaled = float(np.max(np.abs(res) / np.maximum(scale, 1e-300)))
        if scaled > worst:
            worst, worst_n = scaled, n
    out.append(_check("density ODE residual, N=1..16", worst < 1e-7,
                      f"max scaled residual = {worst:.3e} at N={worst_n} "
                      "(401-point grid on [-4,4], tol 1e-7)"))

    def fd3(p, h: float) -> float:
        """Central third difference from p_N at x - 2h, x - h, x + h, x + 2h."""
        return float((-p[0] + 2 * p[1] - 2 * p[2] + p[3]) / (2 * h ** 3))

    fd_worst = 0.0
    step = 1e-3
    for (n, x) in ((6, 1.1), (3, -0.7), (10, 0.2)):
        # One call for both stencils and x itself; its p_N is density(n, .)
        # bit for bit.
        points = [x + j * h for h in (step, 2 * step) for j in (-2, -1, 1, 2)] + [x]
        p, _, _, p3 = hermite.density_derivatives(n, np.array(points))
        # Richardson-extrapolated central difference: the h^2 truncation
        # term cancels, leaving O(h^4) truncation and ~1e-9 roundoff.
        extrap = (4.0 * fd3(p[:4], step) - fd3(p[4:8], 2 * step)) / 3.0
        p3 = float(p3[-1])
        fd_worst = max(fd_worst, abs(extrap - p3) / max(1.0, abs(p3)))
    out.append(_check("analytic third derivative vs finite differences", fd_worst < 1e-6,
                      f"max rel deviation = {fd_worst:.3e} (tol 1e-6)"))
    return out


# ---------------------------------------------------------------- laplace

#: Relative tolerance of the closed-form transform against the Gauss sum:
#: here relative to the value, in ``guespec laplace --verify`` to
#: max(|value|, N) on top of the sum's certified remainder.
_TRANSFORM_TOL = 1e-8

#: At complex s the remainder is certified below 2^-44 max(|value|, N) on
#: at most 1050 nodes: at the outermost node n u^2/4 is about m, and past
#: 1050 the lifted start of the weighted recurrence leaves the normal range.
_REMAINDER_TARGET, _MAX_NODES = 2.0 ** -44, 1050


def _kernel_rule(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m Gauss nodes u_k for exp(-n u^2/2) and lam_k = 1/sum_{j<m}
    psi_j(u_k)^2, the weights times e^{n u_k^2/2}: ``_gauss_sums``'s rule,
    which depends on (n, m) alone."""
    u = quadrature.gauss_nodes(n, m)
    return u, 1.0 / hermite.square_sums(n, m - 1, u)


def _gauss_sums(n: int, m: int, rule, pairs) -> list[tuple]:
    """The m-node Gauss sums for int e^{s lam} K_n(lam+offset, lam-offset) d lam
    and bounds on their errors (Gautschi, Orthogonal Polynomials, 2004, ch. 1),
    one (value, remainder) for each (s, offset) of ``pairs``, from one
    recurrence pass over all their points, on ``rule`` = ``_kernel_rule(n,
    m)``, which it leaves unchanged.

    s = sigma + i tau, a = sigma/n: the integral is e^{sigma^2/2n - n
    offset^2/2 + i tau a} int e^{-n u^2/2} e^{i tau u} P(u) du, P(u) =
    sum_{j<n} htilde_j(u+a+offset) htilde_j(u+a-offset) of degree 2n - 2,
    summed as sum_k lam_k e^{i tau u_k} C_k: lam_k = 1/sum_{j<m} psi_j(u_k)^2
    is the weight times e^{n u_k^2/2}, C_k sums products of rows started at
    e^{-W}, W = n(u_k^2 + offset^2)/4 - sigma^2/4n, so every factor is in
    range where the integral is.  Real s: exact at m = n, bound 0.0.
    Complex s: the first L = 2(m - n + 1) Taylor terms of e^{i tau u} are
    integrated exactly; with |P| <= Sbar, the mean of the two Christoffel
    sums, the rest is below (|tau|^L/L!) [2 Q_m(u^L Sbar) + n^{n-1-m}
    m!/(n-1)!] e^{sigma^2/2n - n offset^2/2], the second term the Gauss
    error of u^L Sbar, of degree 2m.

    The recurrence is elementwise and each pair's sums run over its own m
    entries, so a pair's bits do not depend on the others in the batch.
    """
    u, lam = rule
    count = len(pairs)
    h = count * m
    plus, minus, squared, shift = [], [], [], []
    for s, offset in pairs:
        a = s.real / n
        plus.append(a + offset)
        minus.append(a - offset)
        squared.append(offset * offset)
        shift.append(s.real * s.real / (4.0 * n))
    # Every pair's u + a + offset block, then every pair's u + a - offset
    # block: the two halves of a row pair up point by point.
    columns = np.array([plus + minus, squared + squared, shift + shift])[:, :, None]
    # divide: the logarithms of the bound below take log(0.0) = -inf.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = n * (u * u + columns[1]) / 4.0 - columns[2]
        start, lift, x = hermite._weighted_start(n, (u + columns[0]).ravel(), q.ravel())
        # Only complex s bound a remainder, from the squares of the rows.
        waves = [i for i, (s, _) in enumerate(pairs) if s.imag]
        squares = np.empty(2 * h) if waves else None
        cross = hermite._pair_sums(n, x, start, squares)
        lam = lam * np.exp(-2.0 * lift[:h]).reshape(count, m)
        terms = lam * cross.reshape(count, m)
        # Row sums: each pair's pairwise sum over its own m entries; those
        # of complex s are replaced below.
        out = [(value, 0.0) for value in terms.sum(axis=1).tolist()]
        if not waves:
            return out
        lam, terms = lam[waves], terms[waves]
        taus = [pairs[i][0].imag for i in waves]
        phase = np.exp(np.array([1j * tau for tau in taus])[:, None] * u)
        order = 2 * (m - n + 1)
        # |tau u|^L / L! alone can pass the double range where its product
        # with the weight does not: multiply as a sum of logarithms.
        taylor = [order * math.log(abs(tau)) - math.lgamma(order + 1) for tau in taus]
        squares = squares.reshape(2, count, m)[:, waves]
        rule_parts = np.exp(order * np.log(np.abs(u)) + np.array(taylor)[:, None]
                            + np.log(lam * (squares[0] + squares[1])))
        for i, value, part in zip(waves, (terms * phase).sum(axis=1).tolist(),
                                  rule_parts.sum(axis=1).tolist()):
            s, offset = pairs[i]
            gauss_error = np.exp(_gauss_error_log(n, s.imag, m) + s.real * s.real / (2.0 * n)
                                 - n * offset * offset / 2.0)
            out[i] = value * cmath.exp(1j * s.imag * s.real / n), float(part + gauss_error)
    return out


def _gauss_error_log(n: int, tau: float, m: int) -> float:
    """log of (|tau|^L / L!) n^{n-1-m} m!/(n-1)!, L = 2(m - n + 1): the Gauss
    error term of the remainder of ``_gauss_sums`` over its exponential."""
    order = 2 * (m - n + 1)
    return (order * math.log(abs(tau)) - math.lgamma(order + 1) + (n - 1 - m) * math.log(n)
            + math.lgamma(m + 1) - math.lgamma(n))


def kernel_pair_transforms(n: int, pairs) -> list[tuple]:
    """int e^{s lam} K_n(lam+offset, lam-offset) d lam by Gauss sums,
    independent of the closed form, and a certified bound on its error:
    (value, remainder) for each (s, offset) of ``pairs``.  Real s takes the
    exact n-node sum; complex s the first of m = n + 1, n + 2, n + 4, ...
    nodes whose remainder meets the target, each pair climbing on its own.
    The pairs at one rung share its ``_kernel_rule``, built once per call,
    and one ``_gauss_sums`` pass.
    """
    target = math.log(_REMAINDER_TARGET)

    def climb(i, m):
        """The first rung from m on that pair i sums: only time is at
        stake, so skip rungs whose Gauss error term alone, taken relative
        to its exponential, is above the target."""
        s = pairs[i][0]
        while True:
            if m > _MAX_NODES:
                raise ValueError(f"--s {s!r}: no Gauss rule of at most {_MAX_NODES} nodes "
                                 f"certifies the kernel transform at N = {n}")
            if not s.imag or _gauss_error_log(n, s.imag, m) <= target:
                return m
            m = n + 2 * (m - n)

    out = [None] * len(pairs)
    rungs = {i: climb(i, n + bool(s.imag)) for i, (s, _) in enumerate(pairs)}
    while rungs:
        m = min(rungs.values())
        run = [i for i, rung in rungs.items() if rung == m]
        for i, (value, remainder) in zip(run, _gauss_sums(n, m, _kernel_rule(n, m),
                                                          [pairs[i] for i in run])):
            if not cmath.isfinite(value):
                raise ValueError(f"--s {pairs[i][0]!r}: the Gauss sum of the kernel "
                                 f"transform at N = {n} leaves the double range")
            if remainder <= _REMAINDER_TARGET * max(abs(value), n):
                out[i] = value, remainder
                del rungs[i]
            else:
                rungs[i] = climb(i, n + 2 * (m - n))
    return out


def kernel_pair_transform(n: int, s, offset: float):
    """``kernel_pair_transforms`` of the one pair (s, offset)."""
    return kernel_pair_transforms(n, [(s, offset)])[0]


def suite_laplace() -> list[CheckResult]:
    out = []
    worst = 0.0
    worst_at = None
    pairs = [(s, offset) for s in (0.0, 0.5, -0.5, 1.0, 2j) for offset in (0.0, 0.3, 1.0)]
    for n in (1, 2, 5, 10):
        # All 15 pairs of an N in one call: one recurrence pass per rung.
        for (s, offset), (direct, _) in zip(pairs, kernel_pair_transforms(n, pairs)):
            closed = laplace.kernel_laplace(n, s, offset)
            diff = abs(closed - direct)
            # two grid points are exact zeros of the closed form; there
            # the absolute deviation is the only meaningful measure
            err = diff / abs(closed) if closed != 0 else diff
            if err > worst:
                worst, worst_at = err, (n, s, offset)
    out.append(_check("kernel transform closed form vs quadrature", worst < _TRANSFORM_TOL,
                      f"max rel err = {worst:.3e} at (N, s, offset) = {worst_at} "
                      f"(tol {_TRANSFORM_TOL:g})"))

    pair_worst = 0.0
    for (n, s1, c1, c2) in ((4, 1.0, 0.5, math.sqrt(0.5)), (7, 0.8, 0.2, math.sqrt(0.1))):
        # pick s2 so that (s2, c2) shares the combination N c^2 - s^2/N
        diff = n * c1 ** 2 - s1 ** 2 / n
        s2 = math.sqrt(n * (n * c2 ** 2 - diff))
        a = laplace.kernel_laplace(n, s1, c1)
        b = laplace.kernel_laplace(n, s2, c2)
        pair_worst = max(pair_worst, abs(a - b) / max(1.0, abs(a)))
    out.append(_check("transform factors through N c^2 - s^2/N", pair_worst < 1e-13,
                      f"max matched-pair rel gap = {pair_worst:.3e}"))

    grid = np.arange(241) * 0.25
    # phi_N(0) = 1, so this is >= 0; np.max keeps a nan, which fails the check.
    phis = laplace._characteristic_functions((1, 2, 3, 5, 8, 16, 32, 64, 128, 200, 256), grid)
    char_worst = float(np.max([np.max(np.abs(phi)) for phi in phis])) - 1.0
    out.append(_check("characteristic function bounded by 1", char_worst <= 1e-12,
                      f"max |phi(w)| - 1 = {char_worst:.3e} over N <= 256, w <= 60"))

    waves = (("exp", 1.0), ("exp", 2.0), ("cos", 1j), ("cos", 2j))
    coeffs, *expansions = laplace._laplace_expansions([(1.0, 8)] + [(s, 24) for _, s in waves])
    odd = max(abs(coeffs[1]), abs(coeffs[3]), abs(coeffs[5]), abs(coeffs[7]))
    out.append(_check("1/N expansion odd coefficients vanish", odd == 0.0,
                      f"max odd |c_l| = {odd:.3e} (must be 0)"))

    gaps = {}
    # The series resum takes, their passes run as one matrix as moments runs
    # them, against the genus-count sums at s = a or ia.
    vectors = [gegenbauer.plane_wave_series(kind, abs(s), 12).coefficients for kind, s in waves]
    for (kind, _), alphas, c in zip(waves, operators.batched_functionals(vectors, [12] * 4),
                                    expansions):
        c = c[::2].real
        gaps[kind] = max(gaps.get(kind, 0.0), float(np.max(np.abs(alphas - c) / np.abs(c))))
    # The measured worst gaps are 1.2e-15 (exp) and 1.6e-15 (cos).
    out.append(_check("functionals of e^{at} and cos(at) equal the 1/N expansion",
                      gaps["exp"] <= 2e-15 and gaps["cos"] <= 4e-15,
                      f"max rel gap = {gaps['exp']:.3e} (exp), {gaps['cos']:.3e} (cos) over "
                      "a in {1,2}, g <= 12 (tol 2e-15, 4e-15)"))

    partial_err = []
    for n in (8, 16, 32, 64):
        approx = sum(coeffs[l] / n ** l for l in range(7))
        partial_err.append(abs(laplace.density_laplace(n, 1.0) - approx))
    # The true truncation error is below double precision already at N = 8
    # (the slope itself needs extended precision; the test suite measures it).
    out.append(_check("seven-term 1/N expansion exact to machine precision",
                      max(partial_err) <= 1e-14,
                      f"errors over N=8,16,32,64: {[f'{e:.2e}' for e in partial_err]}"))
    return out


# ---------------------------------------------------------------- moments

def suite_moments() -> list[CheckResult]:
    out = []
    worst = 0.0
    worst_count = 0.0
    zeros_ok = True
    rules = {n: quadrature.density_rule(n, 12) for n in (2, 4, 8)}
    counts = laplace._genus_counts(6, 4)
    monomials = [gegenbauer.monomial_to_basis(p) for p in range(13)]
    for p, alphas in enumerate(operators.batched_functionals(monomials, [4] * 13)):
        for g, alpha in enumerate(alphas):
            want = 0 if p % 2 else counts[g][p // 2]
            if want == 0:
                zeros_ok &= alpha == 0.0
            else:
                worst_count = max(worst_count, abs(alpha - want) / want)
        for n in (2, 4, 8):
            series_val = float(operators.resum_partial_sums(alphas, n)[-1])
            quad_val = float(rules[n].integrate(lambda t: t ** p))
            worst = max(worst, abs(series_val - quad_val) / max(1.0, abs(quad_val)))
    # The measured worst gap is 2.0e-16.
    out.append(_check("monomial alphas equal the Harer-Zagier genus counts",
                      zeros_ok and worst_count <= 5e-16,
                      f"alpha_g(t^p) = eps_g(p/2) for p <= 12, g <= 4: zeros exact "
                      f"{zeros_ok}, max rel gap = {worst_count:.3e} (tol 5e-16)"))
    out.append(_check("finite expansion equals quadrature moment", worst < 1e-9,
                      f"max rel gap = {worst:.3e} over p <= 12, N in {{2,4,8}} (tol 1e-9)"))
    return out


# -------------------------------------------------------------- operators

def suite_operators() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(20260815)
    samples = np.linspace(-3.0, 3.0, 25)

    worst = 0.0
    for _ in range(10):
        poly = rng.uniform(-1.0, 1.0, size=13)
        a = gegenbauer.taylor_to_basis(poly)
        worst = max(worst, float(np.max(np.abs(operators.first_order_residual(a, samples)))))
    out.append(_check("first-order solve residual on random polynomials", worst < 1e-9,
                      f"max residual = {worst:.3e} over degree-12 inputs (tol 1e-9)"))

    t = np.linspace(-2.0, 2.0, 41)
    eigenvalues = (np.arange(41) + 2) ** 2 - 4
    peaks = np.max(np.abs(gegenbauer.basis_values(40, t)), axis=1)
    scales = np.maximum(1.0, eigenvalues * peaks)
    worst_eig = float(np.max(operators.eigen_check(40, t) / scales))
    out.append(_check("basis eigen-relation residual, n <= 40", worst_eig < 1e-9,
                      f"max scaled residual = {worst_eig:.3e} (tol 1e-9)"))

    worst_step = 0.0
    rules = {n: quadrature.density_rule(n, 10) for n in (3, 6)}
    for _ in range(10):
        poly = rng.uniform(-1.0, 1.0, size=11)
        a = gegenbauer.taylor_to_basis(poly)
        ta = operators.correction(a)
        t_poly = gegenbauer.basis_to_taylor(ta)
        for n, rule in rules.items():
            lhs = float(rule.integrate(lambda x: np.polynomial.polynomial.polyval(x, poly)))
            rhs = gegenbauer.semicircle_functional(a) + float(rule.integrate(
                lambda x: np.polynomial.polynomial.polyval(x, t_poly))) / n ** 2
            worst_step = max(worst_step, abs(lhs - rhs) / max(1.0, abs(lhs)))
    out.append(_check("one-step correction identity via quadrature", worst_step < 1e-8,
                      f"max rel gap = {worst_step:.3e} at N in {{3,6}} (tol 1e-8)"))

    g = rng.uniform(-1.0, 1.0, size=24)
    h = rng.uniform(-1.0, 1.0, size=24)
    combined = operators.correction(2.5 * g - 1.25 * h)
    parts = 2.5 * operators.correction(g) - 1.25 * operators.correction(h)
    # The operator carries (n+2)^3-sized factors, so compare relative to the
    # output magnitude rather than to 1.
    lin_scale = max(1.0, float(np.max(np.abs(combined))))
    lin = float(np.max(np.abs(combined - parts))) / lin_scale
    out.append(_check("correction operator linearity", lin < 1e-13,
                      f"max scaled deviation = {lin:.3e} (tol 1e-13)"))
    return out


# ------------------------------------------------------------------ basis

def suite_basis() -> list[CheckResult]:
    out = []
    gram = gegenbauer.normalization_check(30)
    diag = np.diag(gram)
    n = np.arange(31)
    expected = 2.0 * math.pi * (n + 1) * (n + 3)
    worst_diag = float(np.max(np.abs(diag - expected) / expected))
    worst_off = float(np.max(np.abs(gram - np.diag(diag))))
    out.append(_check("weighted orthogonality, n,m <= 30",
                      worst_off < 1e-9 and worst_diag < 1e-10,
                      f"max off-diagonal = {worst_off:.3e} (tol 1e-9), "
                      f"max diagonal rel err = {worst_diag:.3e} (tol 1e-10)"))

    rng = np.random.default_rng(11)
    t = rng.uniform(-2.0, 2.0, size=50)
    f, df, _ = gegenbauer.basis_with_derivatives(31, t)
    worst_ladder = 0.0
    for n in range(1, 31):
        lhs = df[n + 1] - df[n - 1]
        rhs = (n + 2) * f[n]
        worst_ladder = max(worst_ladder, float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)))))
    out.append(_check("derivative ladder, n <= 30", worst_ladder < 1e-11,
                      f"max rel residual = {worst_ladder:.3e} (tol 1e-11)"))

    grid = np.linspace(-2.0, 2.0, 37)
    res = np.max(np.abs(gegenbauer.chebyshev_link_residual(30, grid)), axis=1)
    peaks = np.max(np.abs(gegenbauer.basis_values(30, grid)), axis=1)
    scales = np.maximum(1.0, peaks * (np.arange(31) + 2) / 2)
    worst_cheb = float(np.max(res / scales))
    out.append(_check("Chebyshev second-derivative link, n <= 30", worst_cheb < 1e-10,
                      f"max scaled residual = {worst_cheb:.3e} (tol 1e-10)"))

    # One rule exact through degree 61 serves every f_n, n <= 60.
    rule = quadrature.semicircle_rule(31)
    averages = gegenbauer.basis_values(60, rule.nodes) @ rule.weights / (2.0 * math.pi)
    worst_even = float(np.max(np.abs(averages[::2] - 1.0)))
    worst_odd = float(np.max(np.abs(averages[1::2])))
    out.append(_check("semicircle average of basis elements, n <= 60",
                      worst_even < 1e-12 and worst_odd < 1e-12,
                      f"max |even - 1| = {worst_even:.3e}, max |odd| = {worst_odd:.3e}"))

    rng2 = np.random.default_rng(11)
    ok_roundtrip = True
    for _ in range(5):
        poly = [Fraction(int(v), 4) for v in rng2.integers(-8, 9, size=31)]
        back = gegenbauer.basis_to_taylor(gegenbauer.taylor_to_basis(poly, exact=True), exact=True)
        ok_roundtrip &= back == poly
    out.append(_check("exact conversion round trip, degree 30", ok_roundtrip,
                      "taylor -> basis -> taylor is the identity in rationals"))

    # Values side of the same identity, with f_n from the recurrence rather
    # than the closed-form conversion sums.
    alpha = [Fraction(int(v), 7) for v in rng2.integers(-20, 21, size=25)]
    a = gegenbauer.taylor_to_basis(alpha, exact=True)
    ok_values = True
    for t in (Fraction(1, 3), Fraction(-7, 4), Fraction(5, 2)):
        f = [Fraction(1), 2 * t]
        for n in range(1, 24):
            f.append(((n + 2) * t * f[n] - (n + 3) * f[n - 1]) / (n + 1))
        ok_values &= (sum(x * y for x, y in zip(a, f))
                      == sum(c * t ** j for j, c in enumerate(alpha)))
    out.append(_check("exact conversion vs recurrence, degree 24", ok_values,
                      "sum a_n f_n(t) == sum alpha_j t^j in rationals at t = 1/3, -7/4, 5/2"))

    decay_ok = True
    worst_c = 0.0
    for sigma in (1.0 / 16.0, 1.0 / 8.0):
        taylor = [0.0] * 61
        for j in range(31):
            taylor[2 * j] = sigma ** j / math.factorial(j)
        a = gegenbauer.taylor_to_basis(taylor)
        for n in range(10, 61):
            if a[n] == 0.0:
                continue
            envelope = (8.0 * math.e * sigma / n) ** (n / 2.0)
            ratio = abs(a[n]) / envelope
            worst_c = max(worst_c, ratio)
            decay_ok &= ratio <= 100.0
    out.append(_check("order-two coefficient decay envelope", decay_ok,
                      f"max |a_n| / (8 e sigma / n)^(n/2) = {worst_c:.3f} (allowed constant 100)"))

    grid2 = np.linspace(-2.0, 2.0, 801)
    vals2 = gegenbauer.basis_values(40, grid2)
    sharp_ok = all(
        float(np.max(np.abs(vals2[n]))) <= (n + 1) * (n + 2) * (n + 3) / 6.0 * (1 + 1e-12)
        for n in range(41)
    )
    out.append(_check("sharp spectral-band envelope, n <= 40", sharp_ok,
                      "|f_n(t)| <= (n+1)(n+2)(n+3)/6 on [-2,2], attained at t = 2"))

    report = gegenbauer.growth_bound_report(4, 3.0)
    grid3 = np.linspace(-3.0, 3.0, 601)
    vals3 = gegenbauer.basis_values(60, grid3)
    ratio = max(float(np.max(np.abs(vals3[n]))) / (2.0 * 3.0 ** n) for n in range(61))
    # The nominal certificate envelope 2 * 3^n is short by a bounded factor
    # on the real interval (worst 2.024 at n = 7, decaying geometrically
    # beyond) and by an exponentially growing one on the complex circle
    # (growth factor (3+sqrt(13))/2 at z = 3i); both are measured and
    # reported, never patched into the basis code.
    out.append(_check("real-interval envelope within 4.1 * 3^n, n <= 60", ratio <= 2.05,
                      f"max |f_n| / (2 * 3^n) on [-3,3] = {ratio:.4f}; complex circle "
                      f"exceeds the nominal bound outright ({report.max_value:.1f} vs "
                      f"{report.value_envelope:.1f} at n=4, r=3)"))
    return out


# --------------------------------------------------------------- stirling

def suite_stirling() -> list[CheckResult]:
    out = []
    table = laplace.stirling_table(laplace.STIRLING_CAP)

    rec_ok = True
    for n in range(laplace.STIRLING_CAP):
        for k in range(n + 2):
            lhs = table.count(n + 1, k)
            rhs = n * table.count(n, k) + (table.count(n, k - 1) if k >= 1 else 0)
            rec_ok &= lhs == rhs
    out.append(_check("first-kind recurrence exact over the full table", rec_ok,
                      f"checked n <= {laplace.STIRLING_CAP}"))

    edge_ok = all(table.count(n, n) == 1 for n in range(laplace.STIRLING_CAP + 1)) and \
        all(table.count(n, 0) == 0 for n in range(1, laplace.STIRLING_CAP + 1))
    out.append(_check("boundary values [n,n] = 1 and [n,0] = 0", edge_ok, ""))

    bound_ok = True
    for k in range(laplace.STIRLING_CAP):
        for l in range(k + 2):
            bound_ok &= table.count(k + 1, k + 1 - l) <= math.factorial(k + 1)
    out.append(_check("cycle counts bounded by (k+1)!", bound_ok,
                      "the bound holds exactly"))

    from itertools import permutations

    def cycle_count(perm):
        seen = [False] * len(perm)
        cycles = 0
        for i in range(len(perm)):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return cycles

    brute_ok = True
    for n in range(1, 7):
        counts = {}
        for perm in permutations(range(n)):
            c = cycle_count(perm)
            counts[c] = counts.get(c, 0) + 1
        brute_ok &= all(counts.get(k, 0) == table.count(n, k) for k in range(n + 1))
    out.append(_check("table matches brute-force cycle enumeration, n <= 6", brute_ok, ""))

    try:
        laplace.stirling_table(laplace.STIRLING_CAP + 1)
        cap_ok = False
    except ValueError:
        cap_ok = True
    out.append(_check("requests beyond the cap raise", cap_ok,
                      f"cap = {laplace.STIRLING_CAP}"))
    return out


# --------------------------------------------------------------- sampling

def suite_sampling() -> list[CheckResult]:
    out = []
    count = 20000
    seed = 20260815
    batch = montecarlo.sample_spectra(8, count, seed)

    prefix = montecarlo.sample_spectra(8, 64, seed)
    det_ok = np.array_equal(batch.eigenvalues[:64], prefix.eigenvalues)
    out.append(_check("bit-exact reproducibility (batch prefix)", det_ok,
                      f"count=64 equals the first 64 rows of count={count}"))

    edges = np.linspace(-3.0, 3.0, 41)
    flat = batch.eigenvalues.ravel()
    hist = np.histogram(flat, bins=edges)[0] / flat.size
    worst_sigma = 0.0
    probs = _integrate_interval(lambda x: hermite.density(8, x), edges[:-1], edges[1:], 2)
    for i, prob in enumerate(probs.tolist()):
        # binomial SE over all 8 * count eigenvalues: with K_8 a rank-8
        # projection, a bin's count in one spectrum has variance
        # 8q - tr((P K P)^2) <= 8q(1 - q), so the SE is not optimistic
        se = math.sqrt(max(prob * (1.0 - prob), 1e-300) / flat.size)
        worst_sigma = max(worst_sigma, abs(hist[i] - prob) / se)
    out.append(_check("histogram on [-3, 3] matches exact density within 4 SE",
                      worst_sigma <= 4.0,
                      f"worst bin deviation = {worst_sigma:.2f} SE over 40 bins"))

    m2, se2 = montecarlo.empirical_moment(batch, 2)
    m4, se4 = montecarlo.empirical_moment(batch, 4)
    m6, se6 = montecarlo.empirical_moment(batch, 6)
    z2 = abs(m2 - 1.0) / se2
    z4 = abs(m4 - (2.0 + 1.0 / 64.0)) / se4
    z6 = abs(m6 - (5.0 + 10.0 / 64.0)) / se6
    out.append(_check("moments m2, m4, m6 within 3 SE", max(z2, z4, z6) <= 3.0,
                      f"z-scores: m2 {z2:.2f}, m4 {z4:.2f}, m6 {z6:.2f}"))

    tail_ok, tails = True, []
    radii = (0.5, 0.75, 1.0)
    starts = 2.0 + np.array(radii)
    # P(largest >= 2 + r) <= E #{eigenvalues >= 2 + r} = N int_{2+r} p_N,
    # cut 8 past 2 + r as suite_density's tails are.
    masses = _integrate_interval(lambda x: hermite.density(8, x), starts, starts + 8.0, 64)
    for r, mass in zip(radii, masses.tolist()):
        freq = montecarlo.edge_tail_frequency(batch, 2.0 + r)
        bound = 8.0 * mass
        se = math.sqrt(bound * (1.0 - bound) / count)
        tail_ok &= freq <= bound + 4 * se
        tails.append(f"r={r}: freq = {freq:.2e}, bound = {bound:.2e}")
    out.append(_check("edge tails below N int p_N + 4 SE", tail_ok,
                      "; ".join(tails)))

    lower_batch = montecarlo.sample_spectra(4, count, seed + 1)
    freq_low = montecarlo.edge_tail_frequency(lower_batch, 2.5)
    gauss_tail = math.sqrt(math.pi / (2.0 * 4.0)) * math.erfc(2.5 * math.sqrt(2.0))
    lower = math.sqrt(4.0 / (2.0 * math.pi)) / 4.0 * gauss_tail
    se_low = math.sqrt(max(freq_low * (1.0 - freq_low), 1.0 / count) / count)
    out.append(_check("edge tail above Gaussian lower bound - 4 SE",
                      freq_low >= lower - 4 * se_low,
                      f"freq = {freq_low:.2e}, lower bound = {lower:.2e}"))

    single = montecarlo.sample_spectra(1, count, seed + 2)
    vals = single.eigenvalues.ravel()
    mean_ok = abs(float(vals.mean())) <= 4.0 / math.sqrt(count)
    var = float(vals.var(ddof=1))
    var_ok = abs(var - 1.0) <= 0.05
    out.append(_check("N=1 samples are standard normal", mean_ok and var_ok,
                      f"mean = {float(vals.mean()):.4f}, variance = {var:.4f}"))
    return out


# ------------------------------------------------------------------ probe

def suite_probe() -> list[CheckResult]:
    out = []
    params = gegenbauer.NormParams(rate=0.5, index_scale=10.0)
    values = [operators.norm_probe(params, tr)[0] for tr in (50, 100, 200)]
    out.append(_check("correction amplification stable across truncations",
                      values[0] == values[1] == values[2],
                      f"probe values {values[0]!r} / {values[1]!r} / {values[2]!r} "
                      "at truncations 50/100/200 (must be equal)"))

    strong = operators.norm_probe(gegenbauer.NormParams(rate=1.0, index_scale=10.0), 100)[0]
    out.append(_check("probe finite at the stronger weight", math.isfinite(strong),
                      f"value = {strong:.6f}"))
    return out


SUITES = {
    "density": suite_density,
    "ode": suite_ode,
    "laplace": suite_laplace,
    "moments": suite_moments,
    "operators": suite_operators,
    "basis": suite_basis,
    "stirling": suite_stirling,
    "sampling": suite_sampling,
    "probe": suite_probe,
}


def run_suites(names=None) -> list[tuple[str, CheckResult]]:
    """Run the named suites (all when names is None) in declaration order."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
        for res in SUITES[name]():
            results.append((name, res))
    return results
