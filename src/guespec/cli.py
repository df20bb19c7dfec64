"""Command line interface: density grids, Laplace transforms, resummation,
moments, Stirling tables, Monte Carlo sampling, and self-verification.

All structured output is deterministic: JSON is emitted in canonical form
(sorted keys, no whitespace) so parse -> reserialize is byte-identical, and
CSV uses a header row, '.' decimals, and full-precision floats with complex
values split into re/im columns.  Exit codes: 0 success, 1 numeric failure,
2 usage error.  An integer option outside its ``_LIMITS`` range is refused
in one line naming it, before its command imports any layer.

Start-up: importing this module loads argparse, json and numpy, and no
other module of the package.  Each command imports the layers it calls
when it runs, and they import what they use in turn: density loads hermite
and _floattext, sample montecarlo and tridiagonal, stirling and laplace
only laplace, resum gegenbauer, operators and laplace, verify (and
laplace --verify) every layer.  Compiled from
source without cached bytecode the layers take tens of milliseconds, which
every call would otherwise pay.  A layer's functions are looked up through
its module at call time, so a rebinding of them (a test's monkeypatch, a
tracer) is seen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gegenbauer import BasisSeries

#: The names of verify.SUITES, in its order, without importing verify.
VERIFY_SUITES = ("density", "ode", "laplace", "moments", "operators", "basis",
                 "stirling", "sampling", "probe")
_MAX_N = 256  # hermite.MAX_ENSEMBLE_SIZE: the largest --n where the work grows with N
_MAX_STIRLING = 34  # laplace.STIRLING_CAP: the largest exact table

#: The (low, high) of each integer option per command, high None for none:
#: ``main`` refuses a value outside it before the command runs.  Bounds that
#: depend on other options or on the machine are the commands' own.
_LIMITS = {
    "density": {"n": (1, _MAX_N), "points": (1, None)},
    "laplace": {"n": (1, _MAX_N)},
    "resum": {"terms": (0, None), "n": (1, None)},
    "moments": {"n": (1, _MAX_N), "max": (0, None)},
    "stirling": {"max_n": (0, _MAX_STIRLING)},
    "sample": {"n": (1, None), "count": (1, None)},
}


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


def _finite(name: str, text: str) -> float:
    """float(text), refused with a message naming ``name`` unless a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _parse_s(text: str):
    """Laplace variable: 'RE' or 'RE,IM'; pure-real input stays a float."""
    re_part, comma, im_part = text.partition(",")
    if "," in im_part:
        raise ValueError(f"--s must be RE or RE,IM, got {text!r}")
    re_v = _finite("--s", re_part)
    im_v = _finite("--s", im_part) if comma else 0.0
    return complex(re_v, im_v) if im_v != 0.0 else re_v


def _check_limits(args) -> None:
    """Refuses an integer option outside its ``_LIMITS`` range, naming it."""
    for dest, (low, high) in _LIMITS.get(args.command, {}).items():
        value, option = getattr(args, dest), "--" + dest.replace("_", "-")
        if value < low:
            raise ValueError(f"{option} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"{option} {value} above the supported maximum {high}")


#: Bytes that density and resum hold besides what grows with their sizes:
#: the work rows of one recurrence block (at most 7 x 16384 doubles) or the
#: printer's temporaries for one chunk of 8192 cells (2.2 MB, measured).
_WORKING_SET = 2 ** 22


def _refuse_past_memory(nbytes: int, what: str) -> None:
    """Refuses, before anything is allocated, a command whose peak of
    ``nbytes`` bytes passes the machine's physical memory; ``what`` names
    the option and what it holds."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ValueError(f"{what} exceed the {memory / 2 ** 30:.3g} GiB of memory")


# ------------------------------------------------------------- functions

@dataclass(frozen=True)
class FunctionSpec:
    """Test function families accepted by resum: a closed enum plus files,
    whose Taylor coefficients are read once, when the spec is parsed."""

    kind: str
    parameter: float = 0.0
    coefficients: tuple[float, ...] = ()


def parse_function_spec(text: str) -> FunctionSpec:
    """The spec of ``--function``; every refusal names the option."""
    kind, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"--function {text!r} needs the form kind:parameter")
    if kind == "monomial":
        power = int(arg) if arg.isdecimal() else -1
        if power < 0:
            raise ValueError(f"--function monomial power must be an integer >= 0, got {arg!r}")
        return FunctionSpec("monomial", power)
    if kind in ("exp", "cos"):
        return FunctionSpec(kind, _finite(f"--function {kind} parameter", arg))
    if kind == "gauss":
        sigma = _finite("--function gauss parameter", arg)
        if sigma < 0:
            raise ValueError(f"--function gauss parameter must be >= 0, got {arg!r}")
        return FunctionSpec("gauss", sigma)
    if kind == "taylor-file":
        return FunctionSpec("taylor-file", coefficients=tuple(read_taylor_file(arg)))
    raise ValueError(f"--function kind {kind!r} is unknown "
                     "(choose monomial, exp, gauss, cos, taylor-file)")


def read_taylor_file(path: str) -> list[float]:
    """One finite coefficient per line, '#' comments and blank lines
    ignored; a refusal names the file and the line."""
    coeffs = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for number, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                coeffs.append(_finite(f"--function taylor-file:{path} line {number}", line))
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not ASCII text"
        raise ValueError(f"--function taylor-file:{path}: {reason}") from None
    if not coeffs:
        raise ValueError(f"--function taylor-file:{path} holds no coefficients")
    return coeffs


def build_series(spec: FunctionSpec, terms: int) -> BasisSeries:
    from . import gegenbauer

    cap = gegenbauer._BAND_DEGREE_CAP
    if spec.kind == "monomial":
        power = int(spec.parameter)
        # Refused before any work, as a series of any other kind past the cap is.
        if power > cap:
            raise ValueError(f"--function monomial:{power} has degree {power}, past the cap {cap}")
        return gegenbauer.BasisSeries(gegenbauer.monomial_to_basis(power))
    if spec.kind in ("exp", "cos", "gauss"):
        # Four coefficients per correction pass: a size past the cap is refused before work.
        if 4 * terms > cap:
            raise ValueError(f"--terms {terms} needs a series of degree at least {4 * terms}, "
                             f"past the cap {cap}")
        try:
            return gegenbauer.plane_wave_series(spec.kind, spec.parameter, terms)
        except ValueError as exc:
            # Each of its refusals is of the parameter at this depth: e^a
            # past the double range or the gauss cap, before any Bessel
            # value, or too many coefficients, found from them.
            raise ValueError(f"--function {exc}") from None
    # A Taylor file is the polynomial it spells out: its series is whole.
    degree = len(spec.coefficients) - 1
    if degree > cap:
        raise ValueError(f"--function taylor-file has degree {degree}, past the cap {cap}")
    return gegenbauer.BasisSeries(gegenbauer.taylor_to_basis(spec.coefficients))


def reference_integral(spec: FunctionSpec, n: int) -> float:
    """Independent value of int f p_N dt for --compare."""
    from . import laplace

    if spec.kind == "exp":
        value = float(laplace.density_laplace(n, spec.parameter))
    elif spec.kind == "cos":
        value = laplace.characteristic_function(n, spec.parameter)
    elif spec.kind == "gauss":
        value = laplace.gauss_average(n, spec.parameter)
    elif spec.kind == "monomial":
        value = laplace.polynomial_average(n, [0.0] * int(spec.parameter) + [1.0])
    else:
        value = laplace.polynomial_average(n, spec.coefficients)
    if not math.isfinite(value):
        name = "" if spec.kind == "taylor-file" else f" parameter {spec.parameter:g}"
        raise ValueError(f"--function {spec.kind}{name}: the reference at N = {n} "
                         "leaves the double range")
    return value


# ------------------------------------------------------------- commands

def cmd_density(args) -> int:
    start, stop, points = args.start, args.stop, args.points
    for option, end in (("--from", start), ("--to", stop)):
        if not math.isfinite(end):
            raise ValueError(f"{option} must be finite, got {end!r}")
    width = 5 if args.derivs else 2
    # The columns and their stacked copy, 16 bytes a cell (np.linspace's
    # two temporaries come and go before the values).
    _refuse_past_memory(16 * width * points + _WORKING_SET,
                        f"--points {points}: {width} columns of {points} doubles and "
                        "their stacked copy")
    if points == 1 and start != stop:
        raise ValueError(f"--points 1 needs --from equal to --to, got {start!r} and {stop!r}")
    if points > 1 and not start < stop:
        raise ValueError(f"--from {start!r} must be below --to {stop!r} for --points {points}")
    if not math.isfinite(stop - start):
        raise ValueError(f"--from {start!r} to --to {stop!r}: the span is wider than the "
                         "double range")
    from . import _floattext, hermite

    grid = np.linspace(start, stop, points)
    if args.derivs:
        values = hermite.density_derivatives(args.n, grid)
    else:
        values = (hermite.density(args.n, grid),)
    columns = dict(zip(("grid", "density", "d1", "d2", "d3"), (grid, *values)))
    if not all(np.isfinite(column).all() for column in columns.values()):
        raise ValueError("refusing to print a non-finite number")
    # One kernel pass per command, its text written piece by piece: each
    # cell is the repr of its float.
    write = sys.stdout.write
    if args.format == "json":
        keys = sorted(columns)
        closers = [f'],"{key}":[' for key in keys[1:]] + [f'],"n":{args.n}}}\n']
        write(f'{{"{keys[0]}":[')
        for piece in _floattext.format_rows(np.stack([columns[key] for key in keys])):
            # A newline ends a row: close its array, open the next (most pieces hold none).
            *lines, rest = piece.split("\n") if "\n" in piece else (piece,)
            for line in lines:
                write(line + closers.pop(0))
            write(rest)
    else:
        write(",".join(["x", "p", "dp", "d2p", "d3p"][:len(columns)]) + "\n")
        for piece in _floattext.format_rows(np.column_stack(list(columns.values()))):
            write(piece)
    return 0


def cmd_laplace(args) -> int:
    from . import laplace

    s = _parse_s(args.s)
    offset = _finite("--lambda-minus", args.lambda_minus)
    value = laplace.kernel_laplace(args.n, s, offset)
    if args.density:
        value = value / args.n
    if not math.isfinite(abs(value)):
        raise ValueError(f"--s {args.s}: the transform at N = {args.n} leaves the double range")
    payload = {"lambda_minus": offset, "n": args.n,
               "s": _json_number(s), "value": _json_number(value)}
    if args.verify:
        from . import verify

        # The transform depends on (s, c) only through x = N c^2 - s^2/N: at
        # real s the Gauss sum is taken where s or c is 0, where it does not
        # cancel by e^{s^2/2N - N c^2/2}.  Complex s, or x past the range, keep (s, c).
        pair = s, offset
        x = args.n * offset * offset - s * s / args.n if isinstance(s, float) else math.inf
        if math.isfinite(x):
            pair = (0.0, math.sqrt(x / args.n)) if x >= 0 else (math.sqrt(-x * args.n), 0.0)
        direct, bound = verify.kernel_pair_transforms(args.n, [pair])[0]
        scale = args.n
        if args.density:
            direct, bound, scale = direct / args.n, bound / args.n, 1
        gap = abs(value - direct)
        # rel_err alone would refuse a right value near a zero of the transform.
        allowed = bound + verify._TRANSFORM_TOL * max(abs(value), scale)
        if gap > allowed:
            raise ValueError(f"closed form {value!r} and quadrature {direct!r} differ by "
                             f"{gap:.3e}, more than the {allowed:.3e} allowed")
        payload["quadrature"] = _json_number(direct)
        payload["rel_err"] = gap / (abs(direct) or 1.0)
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
    from . import operators

    # Per term 5 arrays of doubles (the alphas, the partial sums and the
    # temporaries of summing them); per printed number (2, or 3 with
    # --compare) a Python float in a list (32 bytes), the JSON encoder's str
    # of up to 24 characters and two list slots (89) and two copies of the
    # text (50), more than a CSV row's share.
    numbers = 3 if args.compare else 2
    _refuse_past_memory((args.terms + 1) * (40 + 171 * numbers) + _WORKING_SET,
                        f"--terms {args.terms}: {numbers} columns of {args.terms + 1} "
                        "numbers as doubles, Python floats and text")
    if args.compare and args.n > _MAX_N:
        raise ValueError(f"--n {args.n} with --compare above the supported maximum {_MAX_N}")
    spec = parse_function_spec(args.function)
    if args.compare and spec.kind == "gauss" and spec.parameter >= args.n / 2.0:
        # Refused before any work, and before the threshold warning below.
        raise ValueError(f"--n {args.n} with --function {args.function}: the reference "
                         f"integral diverges unless N > 2 sigma = {2.0 * spec.parameter:g}")
    series = build_series(spec, args.terms)
    # The passes' own overflow is not reported pass by pass: a non-finite
    # result is refused once below.
    with np.errstate(over="ignore", invalid="ignore"):
        alphas = operators.correction_functionals(series, args.terms)
        partial = operators.resum_partial_sums(alphas, args.n)
    if not (np.isfinite(alphas).all() and np.isfinite(partial).all()):
        raise ValueError(f"--terms {args.terms}: the correction passes of {args.function} "
                         "leave the double range")
    payload = {
        "alphas": [float(v) for v in alphas],
        "function": args.function,
        "n": args.n,
        "partial_sums": [float(v) for v in partial],
        "tail_bound": series.tail_bound,
    }
    if spec.kind == "gauss":
        # Exact: every term alpha_g N^{-2g} = sum_k sigma^k/k! eps_g(k) N^{-2g}
        # is >= 0, the eps_g(k) being Harer-Zagier counts, so by Tonelli the
        # series sums to int e^{sigma t^2} p_N dt, which is finite if and
        # only if N > 2 sigma.
        threshold = int(2.0 * spec.parameter) + 1
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
        keys = ["alphas", "partial_sums"] + (["errors"] if args.compare else [])
        _emit_csv(["k", "alpha", "partial_sum", "error"][:len(keys) + 1],
                  zip(range(len(partial)), *(payload[key] for key in keys)))
    return 0


def _moment_rows(n: int, rule, powers) -> list[tuple]:
    """(p, quadrature, expansion, difference) for each power p: the
    expansion from ceil(p/4) correction passes, run once for all powers on
    the matrix of the monomials' basis vectors."""
    from . import gegenbauer, operators

    vectors = [gegenbauer.monomial_to_basis(p) for p in powers]
    alphas = operators.batched_functionals(vectors, [math.ceil(p / 4) for p in powers])
    rows = []
    for power, a in zip(powers, alphas):
        series_val = float(operators.resum_partial_sums(a, n)[-1])
        quad_val = float(rule.integrate(lambda t: t ** power))
        row = (power, quad_val, series_val, abs(quad_val - series_val))
        if not all(map(math.isfinite, row)):
            raise ValueError("refusing to print a non-finite number")
        rows.append(row)
    return rows


def cmd_moments(args) -> int:
    from . import quadrature

    # Every moment is at least its genus-0 term, the Catalan number C_k
    # (the genus expansion's terms are nonnegative), so a --max whose C_k
    # lies past the double range is refused before any rule is built.
    k = args.max // 2
    if k > 0 and (math.lgamma(2 * k + 1) - math.lgamma(k + 1) - math.lgamma(k + 2)
                  > math.log(sys.float_info.max)):
        raise ValueError(f"--max {args.max}: the moment of order {2 * k} is at least the "
                         f"Catalan number C_{k}, past the double range")
    # A moment past the double range comes out inf or nan; numpy's warnings
    # about it would print ahead of the refusal, with source paths.  The
    # highest order is the first to leave the range, so it is computed
    # alone first and refused before the lower orders cost anything.
    with np.errstate(over="ignore", invalid="ignore"):
        rule = quadrature.density_rule(args.n, args.max)
        top = _moment_rows(args.n, rule, [args.max])
        rows = _moment_rows(args.n, rule, range(args.max)) + top
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
    from . import laplace

    rows = laplace.stirling_table(args.max_n)
    if args.format == "json":
        _emit_json({"max_n": args.max_n, "rows": [list(r) for r in rows]})
    else:
        _emit_csv(["n", "k", "value"],
                  [(n, k, value) for n, row in enumerate(rows) for k, value in enumerate(row)])
    return 0


def cmd_sample(args) -> int:
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError(f"--seed must be in [0, 2^64), got {args.seed}")
    # One spectrum's draws (N^2 Gaussians, as many uniforms) and the output.
    _refuse_past_memory(16 * args.n * args.n, f"--n {args.n}: one spectrum's draws "
                                              "(2 N^2 doubles)")
    _refuse_past_memory(8 * args.count * args.n, f"--count {args.count} at --n {args.n}: "
                                                 "the spectra (count x N doubles)")
    from . import montecarlo

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
    from . import verify

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
    p.add_argument("--lambda-minus", dest="lambda_minus", default="0.0",
                   help="offset c in the transform of K_N(u+c, u-c)")
    p.add_argument("--density", action="store_true",
                   help="divide by N (density transform instead of kernel)")
    p.add_argument("--verify", action="store_true",
                   help="also integrate numerically, report the relative error, and "
                        "fail if the two disagree")
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
    p.add_argument("--suite", action="append", choices=sorted(VERIFY_SUITES),
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
        _check_limits(args)
        return handler(args)
    except (ValueError, KeyError, OverflowError, OSError, RuntimeError) as exc:
        if isinstance(exc, RuntimeError):
            # Imported only now: most commands never load this layer.
            from .tridiagonal import ConvergenceError

            if not isinstance(exc, ConvergenceError):
                raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())
