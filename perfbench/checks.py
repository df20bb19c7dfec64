"""Output checks against the precomputed references, and the known defects.

``check`` returns None when a command's output is right, else a
``(cause, detail)`` pair; cause is "exit" (non-zero exit code), "check"
(wrong output) or "deadline" (interrupted).  Every failure is counted.
``known_defect`` says whether a failure is one the program is known to
have; a failure it cannot explain makes the run's result incorrect.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

REL_TOL = 1e-10          # density, transforms
QUADRATURE_TOL = 1e-8    # values computed by adaptive quadrature
SERIES_TOL = 1e-9        # expansions, moments
Z_LIMIT = 5.0            # exact-law z-scores of sampled spectra
Z4_LIMIT = 6.0           # fourth moment, sample standard error
Z4_MIN_ROWS = 64

#: (id, what goes wrong).  Which commands each can explain is decided by
#: ``known_defect``.
KNOWN_DEFECTS = {
    "laplace-horner": "1F1(1-N; 2; x) is summed by Horner, which cancels when "
                      "Re x = N c^2 - Re(s^2)/N > 0 (imaginary s, or a large --lambda-minus)",
    "resum-float-conversion": "exp:a and cos:a are converted to the basis in float64 past "
                              "degree 40 with tail_bound 0.0, and cos --compare sums 1F1 "
                              "by Horner at imaginary s",
    "density-underflow": "exp(-N x^2/4) underflows before the Hermite recurrence lifts "
                         "it once N x^2/4 > 708",
    "laplace-verify-budget": "the --verify quadrature at large N runs far past the deadline "
                             "before exhausting its panel budget",
}


def parse_s(text: str) -> complex:
    """The value of a laplace --s argument, 'RE' or 'RE,IM'."""
    re_part, _, im_part = text.partition(",")
    return complex(float(re_part), float(im_part or 0.0))


def known_defect(cmd: dict, cause: str) -> str | None:
    """The known defect that explains this failure, or None."""
    kind = cmd["kind"]
    if kind == "laplace":
        if cause == "check":
            s = parse_s(cmd["s"])
            n, c = cmd["n"], cmd["lambda_minus"] or 0.0
            if n * c * c - (s * s).real / n > 0:
                return "laplace-horner"
        if cmd["verify"] and cause in ("deadline", "exit"):
            return "laplace-verify-budget"
    if kind == "resum" and cmd["function"] in ("exp", "cos") and cause == "check":
        return "resum-float-conversion"
    if kind == "density" and cause == "check":
        reach = max(abs(cmd["start"]), abs(cmd["stop"]))
        if cmd["n"] * reach * reach / 4.0 > 708.0:
            return "density-underflow"
    return None


def _close(value, ref, tol, floor=0.0) -> bool:
    return abs(value - ref) <= tol * abs(ref) + floor


def _number(cell) -> complex:
    if isinstance(cell, dict):
        return complex(cell["re"], cell["im"])
    return complex(cell)


def _csv_table(text: str, header: list[str]) -> np.ndarray:
    """Rows of a CSV with the given header, as a float array."""
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise ValueError(f"CSV header {first!r}")
    if body.count("\n") * len(header) != body.count(",") + body.count("\n"):
        raise ValueError("ragged CSV rows")
    cells = body.replace("\n", ",").split(",")[:-1]
    return np.array(cells, dtype=float).reshape(-1, len(header))


def _density_columns(cmd, text):
    if cmd["format"] == "json":
        payload = json.loads(text)
        cols = [payload["grid"], payload["density"]]
        if cmd["derivs"]:
            cols += [payload["d1"], payload["d2"], payload["d3"]]
        return [np.asarray(c, dtype=float) for c in cols]
    header = ["x", "p"] + (["dp", "d2p", "d3p"] if cmd["derivs"] else [])
    return list(_csv_table(text, header).T)


def _check_density(cmd, text, ref):
    cols = _density_columns(cmd, text)
    grid, values = cols[0], cols[1]
    if len(grid) != cmd["points"] or any(len(c) != len(grid) for c in cols):
        return f"{len(grid)} grid points, expected {cmd['points']}"
    if not all(np.all(np.isfinite(c)) for c in cols) or np.any(values < 0):
        return "non-finite or negative density values"
    n = cmd["n"]
    for spot in ref["spots"]:
        i, x = spot["index"], spot["x"]
        if not _close(float(grid[i]), x, 1e-12, 1e-12):
            return f"grid[{i}] = {float(grid[i])!r}, expected {x!r}"
        p_ref = spot["values"][0]
        for order, r in enumerate(spot["values"]):
            got = float(cols[1 + order][i])
            # Derivative errors scale with p (N(1+|x|))^order; near a zero of
            # the derivative a relative test alone would demand the impossible.
            floor = REL_TOL * abs(p_ref) * (n * (1.0 + abs(x))) ** order if order else 0.0
            if not _close(got, r, REL_TOL, floor):
                name = ("p", "d1", "d2", "d3")[order]
                return f"{name}({x:.6g}) = {got!r}, reference {r!r}"
    return None


def _check_laplace(cmd, text, ref):
    payload = json.loads(text)
    want = complex(*ref["value"])
    got = _number(payload["value"])
    scale = 1.0 if cmd["density"] else float(cmd["n"])
    if not _close(got, want, REL_TOL, 1e-13 * scale):
        return f"value {got!r}, reference {want!r}"
    if cmd["verify"]:
        quad = _number(payload["quadrature"])
        if not _close(quad, want, QUADRATURE_TOL, QUADRATURE_TOL * scale):
            return f"quadrature {quad!r}, reference {want!r}"
        if not math.isfinite(payload["rel_err"]):
            return "rel_err not finite"
    return None


def _check_resum(cmd, text, ref):
    payload = json.loads(text)
    integral, alpha0, scale = ref["integral"], ref["alpha0"], ref["scale"]
    if not _close(payload["reference"], integral, SERIES_TOL, SERIES_TOL * scale):
        return f"reference {payload['reference']!r}, exact {integral!r}"
    # alpha_0 is the semicircle average of the truncated series, so the
    # certified tail bound must cover its distance from the exact average.
    alphas, tail = payload["alphas"], payload["tail_bound"]
    if abs(alphas[0] - alpha0) > tail + SERIES_TOL * max(1.0, abs(alpha0)):
        return f"alpha_0 {alphas[0]!r} vs exact {alpha0!r} exceeds tail_bound {tail!r}"
    if cmd["function"] == "monomial" and 4 * cmd["terms"] >= cmd["param"]:
        last = payload["partial_sums"][-1]
        if not _close(last, integral, SERIES_TOL, SERIES_TOL * scale):
            return f"terminating expansion {last!r}, exact moment {integral!r}"
    return None


def _check_moments(cmd, text, ref):
    rows = json.loads(text)["moments"]
    exact, scales = ref["moments"], ref["scales"]
    if [r["p"] for r in rows] != list(range(len(exact))):
        return f"moment orders {[r['p'] for r in rows]}"
    for row in rows:
        p = row["p"]
        m, scale = exact[p], scales[p]
        for key in ("quadrature", "expansion"):
            if not _close(row[key], m, SERIES_TOL, SERIES_TOL * scale):
                return f"m_{p} {key} {row[key]!r}, exact {m!r}"
    return None


def _check_stirling(cmd, text, ref):
    rows = json.loads(text)["rows"]
    if rows != ref["rows"]:
        bad = next(i for i, (a, b) in enumerate(zip(rows, ref["rows"])) if a != b) \
            if len(rows) == len(ref["rows"]) else len(rows)
        return f"row {bad} differs from mpmath stirling1"
    return None


def _check_verify(cmd, text, ref):
    lines = text.strip().splitlines()
    failing = [line for line in lines if line.startswith("FAIL")]
    if failing:
        return failing[0]
    if not lines or not lines[-1].endswith("checks passed"):
        return "no summary line"
    return None


_HEADER = struct.Struct("<4sIQQ")


def read_spectra(cmd, path):
    """Eigenvalues from a batch file, parsed without guespec."""
    n, count = cmd["n"], cmd["count"]
    if cmd["format"] == "csv":
        with open(path, "r", encoding="ascii") as fh:
            return _csv_table(fh.read(), [f"eig_{i}" for i in range(n)])
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) != _HEADER.size + 8 * n * count:
        raise ValueError(f"file size {len(data)}")
    magic, n_f, count_f, seed_f = _HEADER.unpack_from(data)
    if (magic, n_f, count_f, seed_f) != (b"GUE1", n, count, cmd["seed"]):
        raise ValueError(f"header {(magic, n_f, count_f, seed_f)}")
    return np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(count, n)


def spectra_problem(cmd, eig, ref):
    n, count = cmd["n"], cmd["count"]
    if eig.shape != (count, n):
        return f"shape {eig.shape}"
    if not np.all(np.isfinite(eig)) or np.any(np.diff(eig, axis=1) < 0):
        return "rows not finite and ascending"
    # Exact laws: each spectrum's eigenvalue sum is N(0, 1), and N times its
    # sum of squares is chi^2 with N^2 degrees of freedom.
    z1 = eig.sum() / math.sqrt(count)
    dof = count * n * n
    z2 = (n * float((eig * eig).sum()) - dof) / math.sqrt(2.0 * dof)
    if abs(z1) > Z_LIMIT or abs(z2) > Z_LIMIT:
        return f"moment z-scores m1 {z1:.2f}, m2 {z2:.2f}"
    if count >= Z4_MIN_ROWS:
        row4 = (eig ** 4).mean(axis=1)
        z4 = (row4.mean() - ref["m4"]) / (row4.std(ddof=1) / math.sqrt(count))
        if abs(z4) > Z4_LIMIT:
            return f"moment z-score m4 {z4:.2f}"
    return None


def _check_sample(cmd, text, ref, path):
    echo = json.loads(text)
    if (echo["n"], echo["count"], echo["seed"]) != (cmd["n"], cmd["count"], cmd["seed"]):
        return f"echo {echo}"
    return spectra_problem(cmd, read_spectra(cmd, path), ref)


_CHECKS = {"density": _check_density, "laplace": _check_laplace, "resum": _check_resum,
           "moments": _check_moments, "stirling": _check_stirling, "verify": _check_verify}


def check(cmd: dict, rc, text: str, ref: dict, path: str | None = None):
    """None if the command succeeded and its output is right, else (cause, detail)."""
    if rc is None:
        return ("deadline", "interrupted at the deadline")
    if rc != 0:
        return ("exit", f"exit code {rc}")
    try:
        if cmd["kind"] == "sample":
            problem = _check_sample(cmd, text, ref, path)
        else:
            problem = _CHECKS[cmd["kind"]](cmd, text, ref)
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return None if problem is None else ("check", problem)
