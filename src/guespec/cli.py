"""Command line interface: density grids, Laplace transforms, resummation,
moments, Stirling tables, Monte Carlo sampling, and self-verification.

All structured output is deterministic: JSON is emitted in canonical form
(sorted keys, no whitespace) so parse -> reserialize is byte-identical, and
CSV uses a header row, '.' decimals, and full-precision floats with complex
values split into re/im columns.  Exit codes: 0 success, 1 numeric failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import gegenbauer, hermite, laplace, montecarlo, operators, quadrature, verify
from .tridiagonal import ConvergenceError

DEFAULT_EXPANSION_DEGREE = 80


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")


def _emit_csv(header: list[str], rows) -> None:
    """Header line, then one line per row.  A cell prints as its str, which
    for a Python float is its shortest round-trip repr.  Every cell is a
    number, whose str holds an "n" only as nan or inf: those are refused."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    text = "\n".join(lines) + "\n"
    if text.find("n", len(lines[0])) >= 0:
        raise ValueError("refusing to print a non-finite number")
    sys.stdout.write(text)


def _json_number(value):
    if isinstance(value, complex):
        return {"im": value.imag, "re": value.real}
    return float(value)


def _parse_s(text: str):
    """Laplace variable: 'RE' or 'RE,IM'; pure-real input stays a float."""
    if "," in text:
        re_part, im_part = text.split(",", 1)
        re_v, im_v = float(re_part), float(im_part)
        if im_v != 0.0:
            return complex(re_v, im_v)
        return re_v
    return float(text)


# ------------------------------------------------------------- functions

@dataclass(frozen=True)
class FunctionSpec:
    """Test function families accepted by resum: a closed enum plus files,
    whose Taylor coefficients are read once, when the spec is parsed."""

    kind: str
    parameter: float = 0.0
    coefficients: tuple[float, ...] = ()


def parse_function_spec(text: str) -> FunctionSpec:
    kind, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"function spec {text!r} needs the form kind:parameter")
    if kind == "monomial":
        power = int(arg)
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return FunctionSpec("monomial", float(power))
    if kind in ("exp", "cos"):
        return FunctionSpec(kind, float(arg))
    if kind == "gauss":
        sigma = float(arg)
        if sigma < 0:
            raise ValueError("gauss type parameter must be >= 0")
        return FunctionSpec("gauss", sigma)
    if kind == "taylor-file":
        return FunctionSpec("taylor-file", coefficients=tuple(read_taylor_file(arg)))
    raise ValueError(f"unknown function kind {kind!r} "
                     "(choose monomial, exp, gauss, cos, taylor-file)")


def read_taylor_file(path: str) -> list[float]:
    """One coefficient per line, '#' comments and blank lines ignored."""
    coeffs = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            coeffs.append(float(line))
    if not coeffs:
        raise ValueError(f"no coefficients found in {path}")
    return coeffs


def _powers_over_factorials(a: float, degree: int) -> list[float]:
    """a^k / k! for k = 0..degree, each correctly rounded: with a = p / q
    exactly, p^k / (q^k k!) is one int / int true division of exact
    integers (OverflowError past the double range)."""
    p, q = a.as_integer_ratio()
    num, den = 1, 1
    out = [1.0]
    for k in range(1, degree + 1):
        num *= p
        den *= q * k
        out.append(num / den)
    return out


def build_series(spec: FunctionSpec, terms: int, sigma: float | None,
                 tol: float) -> gegenbauer.BasisSeries:
    if sigma is not None and spec.kind != "taylor-file":
        raise ValueError("--sigma applies to taylor-file functions only")
    degree = max(DEFAULT_EXPANSION_DEGREE, 4 * terms + 20)
    if spec.kind == "monomial":
        power = int(spec.parameter)
        coeffs = [0.0] * power + [1.0]
        return gegenbauer.BasisSeries(gegenbauer.taylor_to_basis(coeffs))
    if spec.kind == "exp":
        taylor = _powers_over_factorials(spec.parameter, degree)
        return gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, 0.0), tol)
    if spec.kind == "cos":
        powers = _powers_over_factorials(spec.parameter, degree)
        taylor = [0.0] * (degree + 1)
        for j in range(degree // 2 + 1):
            taylor[2 * j] = (-1) ** j * powers[2 * j]
        return gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, 0.0), tol)
    if spec.kind == "gauss":
        sig = spec.parameter
        # The certified band tail 2 * 3^n * C (8 e sigma / n)^{n/2} only
        # starts decaying past n ~ 72 e sigma; truncate beyond that or the
        # certificate is huge no matter how accurate the coefficients are.
        degree = max(degree, 2 * (math.ceil(36.0 * math.e * sig) + 10))
        taylor = [0.0] * (degree + 1)
        taylor[::2] = _powers_over_factorials(sig, degree // 2)
        return gegenbauer.expand_entire(gegenbauer.TaylorSeries(taylor, sig), tol)
    return gegenbauer.expand_entire(
        gegenbauer.TaylorSeries(spec.coefficients, sigma if sigma is not None else 0.0), tol)


def reference_integral(spec: FunctionSpec, n: int) -> float:
    """Independent value of int f p_N dt for --compare."""
    if spec.kind == "monomial":
        power = int(spec.parameter)
        return quadrature.density_polynomial_integral(n, lambda t: t ** power, power)
    if spec.kind == "exp":
        return float(laplace.density_laplace(n, spec.parameter))
    if spec.kind == "cos":
        return complex(laplace.density_laplace(n, 1j * spec.parameter)).real
    if spec.kind == "gauss":
        sig = spec.parameter
        if sig >= n / 2.0:
            raise ValueError(
                f"reference integral diverges: gauss type {sig:g} >= N/2 = {n / 2:g}")
        decay = math.sqrt(1.0 / max(n / 2.0 - sig, 0.25))
        return float(quadrature.integrate_line(
            lambda t: np.exp(sig * t * t) * hermite.density(n, t),
            scale=decay, tol=1e-11).value)
    return quadrature.density_polynomial_integral(
        n, lambda t: np.polynomial.polynomial.polyval(t, spec.coefficients),
        len(spec.coefficients) - 1)


# ------------------------------------------------------------- commands

def cmd_density(args) -> int:
    profile = hermite.density_profile(args.n, args.start, args.stop, args.points,
                                      with_derivatives=args.derivs)
    if args.format == "json":
        payload = {
            "density": profile.values.tolist(),
            "grid": profile.grid.tolist(),
            "n": args.n,
        }
        if profile.derivatives is not None:
            d1, d2, d3 = profile.derivatives
            payload["d1"] = d1.tolist()
            payload["d2"] = d2.tolist()
            payload["d3"] = d3.tolist()
        _emit_json(payload)
    else:
        if profile.derivatives is None:
            _emit_csv(["x", "p"], zip(profile.grid.tolist(), profile.values.tolist()))
        else:
            d1, d2, d3 = profile.derivatives
            _emit_csv(["x", "p", "dp", "d2p", "d3p"],
                      zip(profile.grid.tolist(), profile.values.tolist(),
                          d1.tolist(), d2.tolist(), d3.tolist()))
    return 0


def cmd_laplace(args) -> int:
    s = _parse_s(args.s)
    value = laplace.kernel_laplace(args.n, s, args.lambda_minus)
    if args.density:
        value = value / args.n
    payload = {"lambda_minus": args.lambda_minus, "n": args.n,
               "s": _json_number(s), "value": _json_number(value)}
    if args.verify:
        direct = verify.kernel_pair_transform(args.n, s, args.lambda_minus)
        if args.density:
            direct = direct / args.n
        rel = abs(value - direct) / (abs(direct) or 1.0)
        payload["quadrature"] = _json_number(direct)
        payload["rel_err"] = rel
    if args.format == "json":
        _emit_json(payload)
    else:
        header, row = [], []
        for key in sorted(payload):
            cell = payload[key]
            if isinstance(cell, dict):
                header += [f"{key}_re", f"{key}_im"]
                row += [cell["re"], cell["im"]]
            else:
                header.append(key)
                row.append(cell)
        _emit_csv(header, [row])
    return 0


def cmd_resum(args) -> int:
    spec = parse_function_spec(args.function)
    series = build_series(spec, args.terms, args.sigma, args.tol)
    # Shown as a plain line: Python's warning display would print the
    # source path and line of this call.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        alphas = operators.correction_functionals(series, args.terms)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    partial = operators.resum_partial_sums(alphas, args.n)
    payload = {
        "alphas": [float(v) for v in alphas],
        "function": args.function,
        "n": args.n,
        "partial_sums": [float(v) for v in partial],
        "tail_bound": series.tail_bound,
    }
    if spec.kind == "gauss":
        threshold = _calibrate_gauss_threshold(spec, alphas)
        if threshold is not None:
            payload["calibrated_threshold"] = threshold
            if args.n < threshold:
                print(f"warning: N = {args.n} is below the calibrated "
                      f"convergence threshold {threshold} for {args.function}",
                      file=sys.stderr)
    if args.compare:
        ref = reference_integral(spec, args.n)
        payload["reference"] = ref
        payload["errors"] = [abs(float(v) - ref) for v in partial]
    if args.format == "json":
        _emit_json(payload)
    else:
        rows = []
        for k, val in enumerate(partial):
            row = [k, float(alphas[k]), float(val)]
            if args.compare:
                row.append(abs(float(val) - payload["reference"]))
            rows.append(row)
        header = ["k", "alpha", "partial_sum"] + (["error"] if args.compare else [])
        _emit_csv(header, rows)
    return 0


def _calibrate_gauss_threshold(spec: FunctionSpec, alphas) -> int | None:
    first_finite = max(1, int(2.0 * spec.parameter) + 1)

    def ref(n: int) -> float:
        # NaN marks sizes whose comparison integral diverges; NaN never
        # compares as converged, so those N are excluded from the threshold.
        try:
            return reference_integral(spec, n)
        except ValueError:
            return math.nan

    try:
        return operators.measure_convergence_threshold(
            alphas, ref, max_ensemble_size=max(12, first_finite + 7))
    except (RuntimeError, ValueError, quadrature.QuadratureError):
        return None


def cmd_moments(args) -> int:
    rows = []
    for power in range(args.max + 1):
        mono = [0.0] * power + [1.0]
        a = gegenbauer.taylor_to_basis(mono)
        series_val = operators.resummed_integral(a, args.n, math.ceil(power / 4))
        quad_val = quadrature.density_polynomial_integral(
            args.n, lambda t: t ** power, power)
        rows.append((power, quad_val, series_val, abs(quad_val - series_val)))
    if args.format == "json":
        _emit_json({
            "moments": [{"difference": d, "expansion": s, "p": p, "quadrature": q}
                        for (p, q, s, d) in rows],
            "n": args.n,
        })
    else:
        _emit_csv(["p", "quadrature", "expansion", "difference"], rows)
    return 0


def cmd_stirling(args) -> int:
    table = laplace.stirling_table(args.max_n)
    if args.format == "json":
        _emit_json({"max_n": table.max_n, "rows": [list(r) for r in table.rows]})
    else:
        rows = [(n, k, table.rows[n][k])
                for n in range(table.max_n + 1) for k in range(n + 1)]
        _emit_csv(["n", "k", "value"], rows)
    return 0


def cmd_sample(args) -> int:
    batch = montecarlo.sample_spectra(args.n, args.count, args.seed)
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if args.out.endswith(".csv") else "binary"
    if fmt == "csv":
        montecarlo.write_csv(batch, args.out)
    else:
        montecarlo.write_binary(batch, args.out)
    _emit_json({"count": args.count, "format": fmt, "n": args.n,
                "out": args.out, "seed": args.seed})
    return 0


def cmd_verify(args) -> int:
    names = args.suite if args.suite else None
    results = verify.run_suites(names)
    width = max(len(f"{suite}:{res.name}") for suite, res in results)
    failures = 0
    for suite, res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += 0 if res.passed else 1
        label = f"{suite}:{res.name}"
        line = f"{status}  {label:<{width}}"
        if res.detail:
            line += f"  {res.detail}"
        print(line)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guespec",
        description="Finite-N GUE spectral density: exact kernels, Laplace "
                    "transforms, and a convergent 1/N^2 resummation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="evaluate the eigenvalue density on a grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--derivs", action="store_true",
                   help="include the first three derivatives")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("laplace", help="closed-form kernel/density Laplace transform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", required=True, metavar="RE[,IM]")
    p.add_argument("--lambda-minus", dest="lambda_minus", type=float, default=0.0,
                   help="offset c in the transform of K_N(u+c, u-c)")
    p.add_argument("--density", action="store_true",
                   help="divide by N (density transform instead of kernel)")
    p.add_argument("--verify", action="store_true",
                   help="also integrate numerically and report the relative error")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("resum", help="correction-operator expansion of int f dp_N")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--function", required=True,
                   metavar="KIND:ARG",
                   help="monomial:p, exp:a, gauss:sigma (e^{sigma t^2}), cos:a, "
                        "or taylor-file:PATH")
    p.add_argument("--terms", type=int, required=True,
                   help="highest power of 1/N^2 to include")
    p.add_argument("--compare", action="store_true",
                   help="also compute an independent reference integral")
    p.add_argument("--sigma", type=float, default=None,
                   help="order-two type hint for taylor-file input")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="tail tolerance for the basis expansion")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("moments", help="density moments, quadrature vs expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max", type=int, required=True, help="highest moment order")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("stirling", help="exact unsigned Stirling numbers (first kind)")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("sample", help="draw GUE spectra and write a batch file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("auto", "csv", "binary"), default="auto",
                   help="auto picks csv for .csv paths, binary otherwise")

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", action="append", choices=sorted(verify.SUITES),
                   help="suite name (repeatable; default: all)")

    return parser


# The parser of this process: built by the first main() call, not at
# import, and reused by later calls.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # The handler is looked up by name on every call rather than stored in
    # the long-lived parser, so a later rebinding of cmd_* is seen.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ValueError, KeyError, OverflowError, OSError, quadrature.QuadratureError,
            ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())
