"""End-to-end CLI tests driving main(argv) and checking bytes on stdout."""

import hashlib
import json
import math
import operator
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from guespec import (cli, hermite, laplace, montecarlo, quadrature, resummed_integral,
                     taylor_to_basis, tridiagonal)
from guespec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_density_single_point_frozen(capsys):
    code, out, _ = run(capsys, "density", "--n", "1", "--from", "0", "--to", "0", "--points", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 1
    assert payload["density"][0] == pytest.approx(0.3989422804014327, rel=1e-12)

    code, out, _ = run(capsys, "density", "--n", "2", "--from", "0", "--to", "0", "--points", "1")
    assert json.loads(out)["density"][0] == pytest.approx(0.2820947917738781, rel=1e-12)


def test_json_output_is_canonical(capsys):
    _, out, _ = run(capsys, "density", "--n", "3", "--from", "-1", "--to", "1", "--points", "5")
    # canonical form: parse -> reserialize is byte-identical
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


def test_density_csv(capsys):
    code, out, _ = run(capsys, "density", "--n", "2", "--from", "-1", "--to", "1",
                       "--points", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,p"
    assert len(lines) == 4
    x, p = lines[2].split(",")
    assert float(x) == 0.0
    assert float(p) == pytest.approx(0.2820947917738781, rel=1e-12)


def test_density_derivatives_payload(capsys):
    _, out, _ = run(capsys, "density", "--n", "4", "--from", "0.5", "--to", "0.5",
                    "--points", "1", "--derivs")
    payload = json.loads(out)
    assert set(payload) >= {"grid", "density", "d1", "d2", "d3"}


def test_density_bad_grid_is_numeric_error(capsys):
    code, _, err = run(capsys, "density", "--n", "2", "--from", "1", "--to", "-1", "--points", "5")
    assert code == 1
    assert "error:" in err


def _density_reference(argv, fmt):
    """The density output built the plain way: json.dumps of the lists,
    or repr cells joined by ','."""
    args = cli.build_parser().parse_args(["density", *argv])
    profile = hermite.density_profile(args.n, args.start, args.stop, args.points,
                                      with_derivatives=args.derivs)
    columns = {"grid": profile.grid, "density": profile.values}
    if args.derivs:
        columns.update(zip(("d1", "d2", "d3"), profile.derivatives))
    if fmt == "json":
        payload = {key: column.tolist() for key, column in columns.items()}
        payload["n"] = args.n
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    header = "x,p,dp,d2p,d3p" if args.derivs else "x,p"
    rows = zip(*(column.tolist() for column in columns.values()))
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


# [1.5, 3.5] at N=256 ends at p = 5.1e-306; on [1.5, 4.0] forty values and
# their derivatives are subnormal.
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ("--n", "256", "--from", "1.5", "--to", "3.5", "--points", "2001"),
    ("--n", "256", "--from", "1.5", "--to", "4.0", "--points", "2001", "--derivs"),
    ("--n", "8", "--from", "-2.9", "--to", "2.9", "--points", "777", "--derivs"),
    ("--n", "5", "--from", "0.3", "--to", "0.3", "--points", "1", "--derivs"),
    ("--n", "3", "--from", "-1", "--to", "-0.0", "--points", "4"),
], ids=["edge", "subnormal-derivs", "derivs", "single-point", "negative-zero"])
def test_density_prints_the_repr_of_each_value(capsys, argv, fmt):
    code, out, err = run(capsys, "density", *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _density_reference(argv, fmt)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_refuses_a_non_finite_value(monkeypatch, capsys, bad):
    compute = hermite.density_profile

    def profile(*args, **kwargs):
        result = compute(*args, **kwargs)
        result.derivatives[1][2] = bad
        return result

    monkeypatch.setattr(hermite, "density_profile", profile)
    argv = ("density", "--n", "4", "--from", "-1", "--to", "1", "--points", "5", "--derivs")
    errors = set()
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        errors.add(err)
    assert len(errors) == 1


# Past |x| ~ 1e152 n x^2/4 overflows: numpy warnings with source paths
# leaked, and --derivs turned the density 0.0 into nan and exited 1 (and
# from |x| ~ 1e307 on so did density at N > 1).
@pytest.mark.parametrize("x", ["1e153", "-1e153", "1e300", "-1e300", "1.7976931348623157e+308"])
@pytest.mark.parametrize("n", ["1", "4", "256"])
def test_density_far_past_the_edge_is_zero(capsys, n, x):
    for derivs in ((), ("--derivs",)):
        for fmt in ("json", "csv"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(capsys, "density", "--n", n, f"--from={x}", f"--to={x}",
                                     "--points", "1", "--format", fmt, *derivs)
            assert (code, err) == (0, "")
            assert [str(w.message) for w in caught] == []
            if fmt == "json":
                payload = json.loads(out)
                assert payload.pop("grid") == [float(x)] and payload.pop("n") == int(n)
                values = [v for column in payload.values() for v in column]
            else:
                cells = out.splitlines()[1].split(",")
                assert cells[0] == repr(float(x))
                values = [float(v) for v in cells[1:]]
            assert values == [0.0] * (4 if derivs else 1)


def test_laplace_known_value_and_verify(capsys):
    code, out, _ = run(capsys, "laplace", "--n", "2", "--s", "1", "--density", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.exp(0.25) * 1.25, rel=1e-12)
    assert payload["rel_err"] < 1e-9


def test_laplace_verify_reports_the_relative_error(capsys):
    # N c^2 = 32 lies where the 1F1 series cancels (Re x > 0). rel_err is
    # relative to |quadrature| = 0.073, a scale below 1.
    code, out, _ = run(capsys, "laplace", "--n", "32", "--s=0.5", "--lambda-minus", "1.0",
                       "--verify")
    assert code == 0
    payload = json.loads(out)
    value, quad = payload["value"], payload["quadrature"]
    assert payload["rel_err"] == abs(value - quad) / abs(quad)
    assert payload["rel_err"] < 1e-12
    assert value == pytest.approx(-0.07284970866724963, rel=1e-14)


def test_laplace_verify_refuses_a_wrong_value(monkeypatch, capsys):
    transform = laplace.kernel_laplace
    monkeypatch.setattr(laplace, "kernel_laplace",
                        lambda *args: transform(*args) * (1.0 + 1e-6))
    for argv in (("--s=0.5",), ("--s=0,2", "--density"), ("--s=1", "--lambda-minus", "0.3")):
        code, out, err = run(capsys, "laplace", "--n", "16", *argv, "--verify")
        assert (code, out) == (1, "")
        assert err.startswith("error: closed form ") and err.count("\n") == 1


def test_laplace_verify_accepts_a_value_near_a_zero(capsys):
    # |phi| is 1.9e-4 here, near a zero of phi, where a test relative to
    # |value| alone grows ever stricter; the allowance scales with
    # max(|value|, 1) on top of the quadrature's error bound.
    code, out, err = run(capsys, "laplace", "--n", "16", "--s=0,1.916537", "--density",
                         "--verify")
    assert (code, err) == (0, "")
    assert abs(json.loads(out)["value"]["re"]) < 1e-3


def test_laplace_verify_at_the_largest_size_matches_mpmath(capsys):
    # int e^{st} p_N dt = e^{s^2/(2N)} 1F1(1-N; 2; -s^2/N); the integral is
    # about 5.2e3 before the division by N, far above an absolute 1e-10.
    start = time.perf_counter()
    code, out, _ = run(capsys, "laplace", "--n", "256", "--s=3", "--density", "--verify")
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    with mp.workdps(30):
        want = float(mp.exp(mp.mpf(9) / 512) * mp.hyp1f1(-255, 2, mp.mpf(-9) / 256))
    for key in ("value", "quadrature"):
        assert abs(payload[key] - want) <= 1e-10 * want, key
    assert elapsed < 1.0


# Each used to end in another layer's message: json's "Out of range float
# values are not JSON compliant" (s^2 overflowed to inf, with a nan from
# inf * 0.0 in the complex product) or math.exp's "math range error".
@pytest.mark.parametrize("argv,code,out,err", [
    (("--n", "4", "--s=0,1e200", "--density"), 0,
     '{"lambda_minus":0.0,"n":4,"s":{"im":1e+200,"re":0.0},"value":{"im":0.0,"re":0.0}}\n', ""),
    (("--n", "4", "--s=1e200"), 1, "",
     "error: --s 1e200: the transform at N = 4 leaves the double range\n"),
    (("--n", "256", "--s=700", "--density"), 1, "",
     "error: --s 700: the transform at N = 256 leaves the double range\n"),
    (("--n", "4", "--s=1e10", "--density"), 1, "",
     "error: --s 1e10: the transform at N = 4 leaves the double range\n"),
    (("--n", "4", "--s=0,100", "--verify"), 1, "",
     "error: --s 100j: no Gauss rule of at most 1050 nodes certifies the kernel "
     "transform at N = 4\n"),
], ids=["imaginary-past-range", "real-past-range", "density-past-range", "math-range",
        "node-cap"])
def test_laplace_past_the_double_range(capsys, argv, code, out, err):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(capsys, "laplace", *argv) == (code, out, err)
    assert [str(w.message) for w in caught] == []


# The first two used to be refused: at s = 30 the quadrature's window
# overflowed np.exp (two RuntimeWarnings) and its widening gave up; at
# c = 1e-300 its divided difference over 2c returned 0.0.  The Gauss sums
# answer them all, within 1e-13 of the value.
@pytest.mark.parametrize("argv", [
    ("--n", "4", "--s=30"),
    ("--n", "4", "--s=1,1", "--lambda-minus", "1e-300"),
    ("--n", "256", "--s=0,60"),
    ("--n", "128", "--s=0,30", "--density"),
], ids=["s-30", "offset-1e-300", "n-256-imaginary", "n-128-density"])
def test_laplace_verify_answers(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "laplace", *argv, "--verify")
    assert (code, err, [str(w.message) for w in caught]) == (0, "", [])
    payload = json.loads(out)
    value, quad = (complex(cell["re"], cell["im"]) if isinstance(cell, dict) else cell
                   for cell in (payload["value"], payload["quadrature"]))
    scale = 1.0 if "--density" in argv else float(payload["n"])
    assert math.isfinite(payload["rel_err"])
    assert abs(value - quad) <= 1e-13 * max(abs(value), scale)


def test_laplace_complex_argument(capsys):
    code, out, _ = run(capsys, "laplace", "--n", "2", "--s", "0,2", "--density")
    payload = json.loads(out)
    assert abs(payload["value"]["re"]) < 1e-14
    assert abs(payload["value"]["im"]) < 1e-14
    assert payload["s"] == {"im": 2.0, "re": 0.0}


def test_laplace_csv_complex_columns(capsys):
    code, out, _ = run(capsys, "laplace", "--n", "3", "--s", "1,1", "--format", "csv")
    header = out.split("\n")[0].split(",")
    assert "s_re" in header and "s_im" in header
    assert "value_re" in header and "value_im" in header


# Past c = 1.34e154, N c^2 overflows to inf; the transform underflows to 0.0.
@pytest.mark.parametrize("c", ["1e154", "1e300"])
@pytest.mark.parametrize("density", [[], ["--density"]], ids=["kernel", "density"])
def test_laplace_past_the_double_range_of_n_c2_is_zero(capsys, c, density):
    code, out, err = run(capsys, "laplace", "--n", "4", "--s=0", "--lambda-minus", c, *density)
    assert (code, err) == (0, "")
    assert out == f'{{"lambda_minus":{float(c)!r},"n":4,"s":0.0,"value":0.0}}\n'
    code, out, err = run(capsys, "laplace", "--n", "4", "--s=0", "--lambda-minus", c, *density,
                         "--format", "csv")
    assert (code, err) == (0, "")
    assert out == f"lambda_minus,n,s,value\n{float(c)!r},4,0.0,0.0\n"


def _genus_alphas(kind: str, a: float, terms: int) -> list[float]:
    """alpha_g = sum_m f_(2m) eps_g(m) for the Taylor coefficients f_(2m) of
    e^(at), cos(at) or e^(a t^2), summed exactly over one common
    denominator and rounded once.  The sum runs to m = 150, and further,
    doubling, until the last ten terms of every alpha are below 1e-40 of
    it (their size falls from there on)."""
    p, q = a.as_integer_ratio()
    top = 150
    while True:
        # f_(2m) = w_m / d: gauss p^m / (q^m m!), exp and cos (+-p^2)^m / (q^2m (2m)!).
        if kind == "gauss":
            d = q ** top * math.factorial(top)
            w = [p ** m * q ** (top - m) * (math.factorial(top) // math.factorial(m))
                 for m in range(top + 1)]
        else:
            d = q ** (2 * top) * math.factorial(2 * top)
            sign = -1 if kind == "cos" else 1
            w = [(sign * p * p) ** m * q ** (2 * (top - m))
                 * (math.factorial(2 * top) // math.factorial(2 * m)) for m in range(top + 1)]
        rows = [list(map(operator.mul, row, w)) for row in laplace._genus_counts(top, terms)]
        if all(10 ** 40 * sum(map(abs, row[-10:])) <= abs(sum(row)) for row in rows):
            return [sum(row) / d for row in rows]
        top *= 2


# The alphas of the resummed series against exact genus-count sums, at
# --terms 4, 12 and 24 (the function alone names the 12).  The measured
# worst gap is 4.1e-15 relative, at alpha_1 of cos:2.5 (0.024, a sum that
# cancels), and 1.4e-15 for gauss.  The deep gauss alphas read
# coefficients far past the function's own cut: a cut at 4 x --terms
# past it left them up to 5.5e-6 off (gauss:3, --terms 24).
_ALPHA_FUNCTIONS = ["exp:0.5", "exp:1.5", "exp:2", "exp:2.5", "cos:1", "cos:2", "cos:2.5",
                    "gauss:0.05", "gauss:0.1", "gauss:0.15", "gauss:0.5", "gauss:1", "gauss:3"]


@pytest.mark.parametrize("function,terms", [
    pytest.param(function, terms, id=function if terms == 12 else f"{function}-{terms}")
    for function in _ALPHA_FUNCTIONS for terms in (4, 12, 24)])
def test_resum_alphas_are_the_genus_count_sums(capsys, function, terms):
    kind, _, arg = function.partition(":")
    code, out, _ = run(capsys, "resum", "--n", "8", "--function", function,
                       "--terms", str(terms))
    assert code == 0
    want = _genus_alphas(kind, float(arg), terms)
    assert json.loads(out)["alphas"] == pytest.approx(want, rel=5e-15, abs=0)


def test_resum_quartic_monomial(capsys):
    code, out, _ = run(capsys, "resum", "--n", "2", "--function", "monomial:4",
                       "--terms", "3", "--compare")
    assert code == 0
    payload = json.loads(out)
    assert payload["alphas"] == pytest.approx([2.0, 1.0, 0.0, 0.0])
    assert payload["partial_sums"][1] == pytest.approx(2.25)
    assert payload["reference"] == pytest.approx(2.25, rel=1e-12)
    assert payload["errors"][-1] <= 1e-12


def test_resum_exponential_against_closed_form(capsys):
    code, out, _ = run(capsys, "resum", "--n", "8", "--function", "exp:1",
                       "--terms", "6", "--compare")
    assert code == 0
    payload = json.loads(out)
    assert payload["errors"][-1] < 1e-12
    assert payload["reference"] == pytest.approx(laplace.density_laplace(8, 1.0), rel=1e-13)


def test_resum_gauss_warns_below_threshold(capsys):
    code, out, err = run(capsys, "resum", "--n", "2", "--function", "gauss:1.6", "--terms", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["calibrated_threshold"] >= 3
    assert "below the calibrated convergence threshold" in err


def test_resum_gauss_no_warning_at_safe_size(capsys):
    code, out, err = run(capsys, "resum", "--n", "8", "--function", "gauss:0.125", "--terms", "6")
    assert code == 0
    assert json.loads(out)["calibrated_threshold"] == 1
    assert err == ""


# The gauss threshold is exact: every term alpha_g N^{-2g} is nonnegative,
# so the series sums to int e^{sigma t^2} p_N dt, which is finite if and
# only if N > 2 sigma.  It is printed at every depth, and where 2 sigma is
# an integer the warning fires at N = 2 sigma.
@pytest.mark.parametrize("terms", ["0", "2", "4", "30"])
@pytest.mark.parametrize("sigma,threshold", [
    ("0", 1), ("0.05", 1), ("0.5", 2), ("1", 3), ("1.5", 4), ("1.6", 4), ("3.2", 7),
])
def test_resum_gauss_threshold_is_exact(capsys, sigma, threshold, terms):
    function = f"gauss:{sigma}"
    code, out, err = run(capsys, "resum", "--n", str(threshold), "--function", function,
                         "--terms", terms)
    assert (code, err) == (0, "")
    assert json.loads(out)["calibrated_threshold"] == threshold
    if 2.0 * float(sigma) == threshold - 1 > 0:
        below = threshold - 1
        code, out, err = run(capsys, "resum", "--n", str(below), "--function", function,
                             "--terms", terms)
        assert code == 0
        assert json.loads(out)["calibrated_threshold"] == threshold
        assert err == (f"warning: N = {below} is below the calibrated convergence "
                       f"threshold {threshold} for {function}\n")


def test_resum_whole_series_does_not_warn(capsys):
    code, out, err = run(capsys, "resum", "--n", "1", "--function", "exp:2", "--terms", "30",
                         "--compare")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    # What the cut of the series drops, not 0.0: the series is not whole.
    assert 0.0 <= payload["tail_bound"] <= 2.0 ** -50 * abs(payload["reference"])
    assert payload["errors"][-1] <= 1e-12 * payload["reference"]


def test_resum_cos_30_alpha_0_is_the_bessel_value(capsys):
    # alpha_0 is the semicircle average J_1(2a)/a; a Taylor cut at degree 80
    # printed 1.88e20 here, with tail_bound 0.0.
    code, out, err = run(capsys, "resum", "--n", "128", "--function", "cos:30", "--terms", "4",
                         "--compare")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert abs(payload["alphas"][0] - float(mp.besselj(1, 60) / 30)) <= 1e-12
    assert payload["errors"][-1] <= payload["errors"][0]


# Each size is refused from bounds known before any Taylor data or Bessel
# value is built: the series of exp, cos and gauss grows by four
# coefficients per term, and J_k(2a) is not small for k < 2a.  --terms
# 100000 took 74 s before its refusal, cos:1e10 failed in an integer
# division, and exp:800 printed alpha_0 = 6.49e134 (the true value,
# I_1(1600)/800, is past the double range).
@pytest.mark.parametrize("function,terms,message", [
    ("exp:1", "100000", "--terms 100000 needs a series of degree at least 400000"),
    ("gauss:0.1", "100000", "--terms 100000 needs a series of degree at least 400000"),
    ("cos:1", "200", "--terms 200 needs a series of degree at least 800"),
    ("cos:1e10", "3", "cos parameter 10000000000.0 at depth 3 needs at least"),
    ("exp:800", "3", "exp parameter 800.0: the basis coefficients leave the double range"),
    ("monomial:5000", "2", "--function monomial:5000 has degree 5000, past the cap 646"),
    ("gauss:3.3", "3", "gauss parameter 3.3 is outside [0, 3.2]"),
], ids=["exp-terms", "gauss-terms", "cos-terms", "cos-parameter", "exp-parameter",
        "monomial-degree", "gauss-parameter"])
def test_resum_sizes_are_refused_before_work(capsys, function, terms, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "resum", "--n", "4", "--function", function, "--terms", terms)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert elapsed < 0.1


# The passes overflow long before the cap: each used to print its numpy
# warning as a line of its own (95 of them), and without --compare the last
# line was the JSON encoder's.  No Python warning escapes either.
@pytest.mark.parametrize("compare", [(), ("--compare",)], ids=["plain", "compare"])
def test_resum_overflowing_passes_are_refused_once(capsys, compare):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "resum", "--n", "4", "--function", "monomial:646",
                             "--terms", "200", *compare)
    assert (code, out) == (1, "")
    assert err == ("error: --terms 200: the correction passes of monomial:646 leave the "
                   "double range\n")
    assert [str(w.message) for w in caught] == []


def test_resum_taylor_file(tmp_path, capsys):
    path = tmp_path / "coeffs.txt"
    path.write_text("# cosh(t) Taylor data\n1.0\n0.0\n0.5\n\n0.0\n0.041666666666666664\n")
    code, out, _ = run(capsys, "resum", "--n", "4", "--function", f"taylor-file:{path}",
                       "--terms", "2", "--compare")
    assert code == 0
    payload = json.loads(out)
    assert payload["errors"][-1] < 1e-6  # quartic Taylor cut of cosh
    assert payload["function"].startswith("taylor-file:")


def test_resum_reports_the_typed_spec(capsys):
    code, out, _ = run(capsys, "resum", "--n", "8", "--function", "exp:1.234567", "--terms", "3")
    assert code == 0
    assert json.loads(out)["function"] == "exp:1.234567"


def test_resum_compare_reads_the_taylor_file_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "coeffs.txt"
    path.write_text("1.0\n0.0\n0.5\n")
    reads = []
    read = cli.read_taylor_file
    monkeypatch.setattr(cli, "read_taylor_file", lambda p: reads.append(p) or read(p))
    code, _, _ = run(capsys, "resum", "--n", "4", "--function", f"taylor-file:{path}",
                     "--terms", "2", "--compare")
    assert code == 0
    assert reads == [str(path)]


def test_resum_missing_file_is_numeric_error(capsys):
    code, _, err = run(capsys, "resum", "--n", "2", "--function", "taylor-file:/no/such/file",
                       "--terms", "2")
    assert code == 1
    assert "error:" in err


def test_resum_csv_format(capsys):
    code, out, _ = run(capsys, "resum", "--n", "2", "--function", "monomial:2",
                       "--terms", "2", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "k,alpha,partial_sum"
    assert len(lines) == 4


def test_moments_table(capsys):
    code, out, _ = run(capsys, "moments", "--n", "4", "--max", "4")
    assert code == 0
    rows = json.loads(out)["moments"]
    assert rows[0]["quadrature"] == pytest.approx(1.0)
    assert rows[2]["quadrature"] == pytest.approx(1.0, rel=1e-12)
    assert rows[4]["quadrature"] == pytest.approx(2.0625, rel=1e-12)
    assert rows[4]["expansion"] == pytest.approx(2.0625, rel=1e-12)
    assert rows[4]["difference"] < 1e-12


# Every moment is at least the Catalan number C_{max // 2}: C_519 is below
# the largest double and C_520 above it.  --max 100000 used to build a
# 50001-node rule for about 50 s before its refusal.
@pytest.mark.parametrize("top", ["1040", "100000"])
def test_moments_past_the_catalan_bound_are_refused_before_work(monkeypatch, capsys, top):
    monkeypatch.setattr(quadrature, "density_rule", _raise(AssertionError))
    start = time.perf_counter()
    code, out, err = run(capsys, "moments", "--n", "256", "--max", top)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --max {top}: ") and err.count("\n") == 1
    assert elapsed < 0.1


# A moment past the double range is refused from the top order alone,
# before the lower orders are computed.  At N=256 the rule stays finite
# past degree 426; the float expansion column overflows first.
@pytest.mark.parametrize("n,top,message", [
    (8, 302, "refusing to print a non-finite number"),
    (1, 236, "refusing to print a non-finite number"),
    (256, 400, "refusing to print a non-finite number"),
    (256, 426, "refusing to print a non-finite number"),
])
def test_moments_past_the_double_range_are_refused_quickly(capsys, n, top, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "moments", "--n", str(n), "--max", str(top))
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert elapsed < 0.1


def _per_power_moments(n, top):
    """The moments table from one resummed_integral per power, each on its
    own basis vector: the route before the passes ran on one matrix."""
    from guespec import gegenbauer, operators

    rule = quadrature.density_rule(n, top)
    rows = []
    for p in range(top + 1):
        a = gegenbauer.taylor_to_basis([0.0] * p + [1.0])
        expansion = operators.resummed_integral(a, n, math.ceil(p / 4))
        moment = float(rule.integrate(lambda t: t ** p))
        rows.append({"difference": abs(moment - expansion), "expansion": expansion, "p": p,
                     "quadrature": moment})
    return rows


@pytest.mark.parametrize("n,top", [(1, 0), (4, 1), (35, 16), (8, 40), (64, 120)])
def test_batched_moments_are_the_per_power_route(capsys, n, top):
    code, out, _ = run(capsys, "moments", "--n", str(n), "--max", str(top))
    assert code == 0
    got = json.loads(out)["moments"]
    want = _per_power_moments(n, top)
    assert [p["p"] for p in got] == list(range(top + 1))
    assert [{k: repr(v) for k, v in row.items()} for row in got] == \
        [{k: repr(v) for k, v in row.items()} for row in want]


def test_moments_below_the_catalan_bound_build_their_rule(monkeypatch, capsys):
    monkeypatch.setattr(quadrature, "density_rule", _raise(ValueError))
    assert run(capsys, "moments", "--n", "256", "--max", "1039") == (1, "", "error: injected\n")


def test_stirling_json_and_csv(capsys):
    _, out, _ = run(capsys, "stirling", "--max-n", "5")
    rows = json.loads(out)["rows"]
    assert rows[5][1] == 24
    assert rows[3][2] == 3

    _, out, _ = run(capsys, "stirling", "--max-n", "3", "--format", "csv")
    assert out.startswith("n,k,value\n")
    assert "3,2,3" in out


def test_sample_binary_round_trip(tmp_path, capsys):
    out_path = tmp_path / "spectra.bin"
    code, out, _ = run(capsys, "sample", "--n", "4", "--count", "25", "--seed", "11",
                       "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["format"] == "binary"
    batch = montecarlo.read_binary(out_path)
    assert batch.n == 4 and batch.count == 25 and batch.seed == 11
    direct = montecarlo.sample_spectra(4, 25, seed=11)
    assert np.array_equal(batch.eigenvalues, direct.eigenvalues)


def test_sample_file_is_prefix_of_larger_batch(tmp_path, capsys):
    paths = [tmp_path / "small.bin", tmp_path / "big.bin"]
    for count, path in zip(("64", "100"), paths):
        code, _, _ = run(capsys, "sample", "--n", "4", "--count", count, "--seed", "5",
                         "--out", str(path))
        assert code == 0
    small, big = (montecarlo.read_binary(p) for p in paths)
    assert np.array_equal(small.eigenvalues, big.eigenvalues[:64])
    # --threads is gone, so passing it is a usage error
    assert main(["sample", "--n", "4", "--count", "2", "--seed", "5",
                 "--out", str(paths[0]), "--threads", "2"]) == 2


def test_sample_csv_by_extension(tmp_path, capsys):
    out_path = tmp_path / "spectra.csv"
    code, out, _ = run(capsys, "sample", "--n", "3", "--count", "5", "--seed", "2",
                       "--out", str(out_path))
    assert json.loads(out)["format"] == "csv"
    assert out_path.read_text().startswith("eig_0,eig_1,eig_2\n")


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stirling")
    assert code == 0
    assert "PASS" in out
    assert "checks passed" in out


def test_usage_errors_exit_two(capsys):
    assert main(["density", "--n", "2"]) == 2          # missing required args
    capsys.readouterr()
    assert main(["nonsense"]) == 2                      # unknown subcommand
    capsys.readouterr()
    assert main(["density", "--n", "2", "--from", "0", "--to", "1",
                 "--points", "4", "--format", "xml"]) == 2
    capsys.readouterr()


@pytest.fixture
def fresh_parser(monkeypatch):
    """No parser built yet in this process; count the builds from here on."""
    monkeypatch.setattr(cli, "_PARSER", None)
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    return builds


def test_the_parser_is_built_once_per_process(fresh_parser, capsys):
    assert main(["stirling", "--max-n", "3"]) == 0
    assert main(["nonsense"]) == 2
    assert main(["density", "--n", "2", "--from", "0", "--to", "1", "--points", "3"]) == 0
    assert main(["laplace", "--n", "0", "--s", "1"]) == 1
    capsys.readouterr()
    assert fresh_parser == [1]


def _python(*args):
    """Exit code, stdout and stderr of ``python args`` in a new interpreter
    that imports this checkout's package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def _fresh_process(*argv):
    """The result of ``python -m guespec argv`` in a new interpreter."""
    return _python("-m", "guespec", *argv)


def test_a_usage_error_leaves_the_parser_as_new(fresh_parser, capsys):
    valid = ["density", "--n", "3", "--from", "-1", "--to", "1", "--points", "4",
             "--format", "csv", "--derivs"]
    assert main(["density", "--n", "3", "--from", "-1", "--format", "xml"]) == 2
    assert main(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()
    assert run(capsys, *valid) == _fresh_process(*valid)
    assert fresh_parser == [1]


# Run in a new interpreter: the package modules loaded by importing the
# CLI, then those a command adds (its report goes to stderr, last line).
_LOADED = """
import sys
import guespec.cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "guespec")
before = loaded()
code = guespec.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, before, sorted(set(loaded()) - set(before)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv,added", [
    ((), []),
    (("density", "--n", "4", "--from", "-1", "--to", "1", "--points", "3"),
     ["guespec._floattext", "guespec.hermite"]),
    (("sample", "--n", "4", "--count", "3", "--seed", "1", "--out", "{tmp}/s.bin"),
     ["guespec.montecarlo", "guespec.tridiagonal"]),
    (("stirling", "--max-n", "4"), ["guespec.laplace"]),
    # The references and the threshold calibration build no Gauss rule.
    (("resum", "--n", "4", "--function", "gauss:0.3", "--terms", "4", "--compare"),
     ["guespec.gegenbauer", "guespec.laplace", "guespec.operators"]),
], ids=["import", "density", "sample", "stirling", "resum"])
def test_a_command_loads_only_the_layers_it_runs(argv, added, tmp_path):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, _, err = _python("-c", _LOADED, *argv)
    assert code == 0, err
    assert err.splitlines()[-1] == f"0 {['guespec', 'guespec.cli']} {added}"


def test_the_package_exports_its_names_lazily():
    import guespec

    for name in guespec.__all__:
        value = getattr(guespec, name)
        assert value.__module__ == f"guespec.{guespec._EXPORTS[name]}", name
        assert value is getattr(sys.modules[value.__module__], name)
    names = {}
    exec("from guespec import *", names)
    assert set(guespec.__all__) <= set(names)
    assert set(guespec.__all__) <= set(dir(guespec))
    with pytest.raises(AttributeError, match="nosuch"):
        guespec.nosuch


def test_the_parser_offers_the_verify_suites(capsys):
    from guespec import verify

    assert list(cli.VERIFY_SUITES) == list(verify.SUITES)
    assert main(["verify", "--help"]) == 0
    assert "{" + ",".join(sorted(verify.SUITES)) + "}" in capsys.readouterr().out
    code, out, err = run(capsys, "verify", "--suite", "nosuch")
    assert (code, out) == (2, "")
    offered = err.splitlines()[-1].partition("(choose from ")[2]
    assert re.findall(r"\w+", offered) == sorted(verify.SUITES)


def _raise(error):
    def raiser(*args, **kwargs):
        raise error("injected")
    return raiser


@pytest.mark.parametrize("argv,module,name,error", [
    (("sample", "--n", "4", "--count", "3", "--seed", "1", "--out", "{tmp}/s.bin"),
     montecarlo, "sample_spectra", tridiagonal.ConvergenceError),
], ids=["convergence"])
def test_layer_errors_exit_one(argv, module, name, error, monkeypatch, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    monkeypatch.setattr(module, name, _raise(error))
    assert run(capsys, *argv) == (1, "", "error: injected\n")
    # Any other RuntimeError is not a refusal: it propagates.
    monkeypatch.setattr(module, name, _raise(RuntimeError))
    with pytest.raises(RuntimeError, match="injected"):
        main(argv)


def test_repeated_suites_do_not_leak_between_calls(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "density")
    code, second, _ = run(capsys, "verify", "--suite", "ode")
    assert code == 0
    checks = [line.split()[1] for line in second.splitlines()[:-1]]
    assert checks and all(label.startswith("ode:") for label in checks)
    assert all(line.split()[1].startswith("density:") for line in first.splitlines()[:-1])


# sha256 of the files written by `guespec sample`, recorded before the
# sampler re-keyed one Philox per chunk instead of building one per row.
SAMPLE_DIGESTS = {
    ("8", "300", "7", "csv"): "f506102bb3166d27c34563c33a3314e2cd7747deff05a87fac7025c8b7a74e20",
    ("8", "300", "7", "bin"): "72182aaa4c0acb386616a1de50b3c04403fa6313555c6619188b77d1dc1b42d1",
    ("33", "5", "9223372036854775815", "csv"):
        "6c67df43f8f8de6bd9b8ecc5900ea53e26721fc45d0f0e1f2f5e15ac78ceb6d6",
    ("33", "5", "9223372036854775815", "bin"):
        "0c377af4741056f43f46e00906e60231d53ef253f604bc214079e463b4d4c2d0",
}


@pytest.mark.parametrize("n,count,seed,ext", list(SAMPLE_DIGESTS), ids="-".join)
def test_sample_files_match_their_recorded_digests(n, count, seed, ext, tmp_path, capsys):
    path = tmp_path / f"spectra.{ext}"
    code, _, _ = run(capsys, "sample", "--n", n, "--count", count, "--seed", seed,
                     "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAMPLE_DIGESTS[n, count, seed, ext]


def test_numeric_errors_exit_one(capsys):
    assert main(["laplace", "--n", "0", "--s", "1"]) == 1
    capsys.readouterr()
    assert main(["resum", "--n", "2", "--function", "monomial:-3", "--terms", "2"]) == 1
    capsys.readouterr()
    assert main(["resum", "--n", "2", "--function", "sinh:1", "--terms", "2"]) == 1
    capsys.readouterr()
    assert main(["moments", "--n", "4", "--max", "-1"]) == 1
    capsys.readouterr()


# exp:1e200 leaves the double range; gauss:50 is past the type cap 3.2,
# above which the connection's differences lose the coefficients' accuracy.
@pytest.mark.parametrize("function", ["gauss:50", "exp:1e200"])
def test_taylor_data_past_the_double_range_is_numeric_error(capsys, function):
    code, out, err = run(capsys, "resum", "--n", "8", "--terms", "3", "--function", function)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("function,terms", [("gauss:2", "3"), ("exp:1", "40"), ("cos:1", "40")])
def test_taylor_data_past_170_factorial(capsys, function, terms):
    code, out, _ = run(capsys, "resum", "--n", "8", "--terms", terms, "--function", function)
    assert code == 0
    assert json.loads(out)["function"] == function


# Each printed NaN or Infinity (or nan/inf cells) and exited 0.  The exact
# moments of p_1 stay finite (M_236 = 235!! ~ 8.1e228); the float route
# overflows: the largest node of the 119-node rule for --max 236 is 20.8,
# so the quadrature's t^p is inf from p = 234 on, and inf - inf = nan at
# p = 235.  The refusal is the one line on stderr: no Python warning
# escapes either.
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ("laplace", "--n", "256", "--s=1e200", "--lambda-minus", "3"),
    ("laplace", "--n", "4", "--s=nan"),
    ("moments", "--n", "1", "--max", "236"),
], ids=["laplace-offset", "laplace-nan", "moments-overflow"])
def test_non_finite_results_are_refused(capsys, argv, fmt):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


# A non-finite, malformed or out-of-range input is refused before any work,
# naming the argument; it used to surface as a JSON encoder error (--s,
# --lambda-minus), a failed integer-ratio conversion (the resum parameter),
# a float conversion message, or the name of a library parameter (--terms
# -1 said depth, --n 0 ensemble_size).  A gauss --compare whose reference
# diverges (N <= 2 sigma) printed the threshold warning and then a refusal
# naming no option.  An --n past 256 ran laplace's Laguerre loop and the
# O(N) reference of resum --compare until killed.  laplace --n 0 said
# "ensemble size must be >= 1", and sample's --n, --count and --seed
# refusals named no option either.
@pytest.mark.parametrize("argv,message", [
    (("laplace", "--n", "4", "--s=nan"), "--s must be finite, got 'nan'"),
    (("laplace", "--n", "4", "--s=0.5,-inf"), "--s must be finite, got '-inf'"),
    (("laplace", "--n", "4", "--s=1", "--lambda-minus", "inf"),
     "--lambda-minus must be finite, got 'inf'"),
    (("laplace", "--n", "4", "--s=1", "--lambda-minus", "nan", "--density", "--verify"),
     "--lambda-minus must be finite, got 'nan'"),
    (("laplace", "--n", "4", "--s=1,x"), "--s must be finite, got 'x'"),
    (("laplace", "--n", "4", "--s=1", "--lambda-minus", "abc"),
     "--lambda-minus must be finite, got 'abc'"),
    (("resum", "--n", "4", "--function", "exp:nan", "--terms", "3"),
     "--function exp parameter must be finite, got 'nan'"),
    (("resum", "--n", "4", "--function", "exp:inf", "--terms", "3"),
     "--function exp parameter must be finite, got 'inf'"),
    (("resum", "--n", "4", "--function", "cos:-inf", "--terms", "3"),
     "--function cos parameter must be finite, got '-inf'"),
    (("resum", "--n", "4", "--function", "gauss:nan", "--terms", "3"),
     "--function gauss parameter must be finite, got 'nan'"),
    (("resum", "--n", "4", "--function", "monomial:4", "--terms", "-1"),
     "--terms must be >= 0, got -1"),
    (("resum", "--n", "0", "--function", "gauss:1.6", "--terms", "3"),
     "--n must be >= 1, got 0"),
    (("resum", "--n", "2", "--function", "gauss:1.6", "--terms", "2", "--compare"),
     "--n 2 with --function gauss:1.6: the reference integral diverges unless "
     "N > 2 sigma = 3.2"),
    (("laplace", "--n", "99999999999999999999", "--s=0.5"),
     "--n 99999999999999999999 above the supported maximum 256"),
    (("resum", "--n", "99999999999999999999", "--function", "exp:1", "--terms", "2",
      "--compare"), "--n 99999999999999999999 with --compare above the supported maximum 256"),
    (("laplace", "--n", "0", "--s=1"), "--n must be >= 1, got 0"),
    (("laplace", "--n", "-3", "--s=1"), "--n must be >= 1, got -3"),
    (("sample", "--n", "0", "--count", "1", "--seed", "1", "--out", "no-such-dir/s.bin"),
     "--n must be >= 1, got 0"),
    (("sample", "--n", "4", "--count", "0", "--seed", "1", "--out", "no-such-dir/s.bin"),
     "--count must be >= 1, got 0"),
    (("sample", "--n", "4", "--count", "1", "--seed=-1", "--out", "no-such-dir/s.bin"),
     "--seed must be in [0, 2^64), got -1"),
    (("sample", "--n", "4", "--count", "1", "--seed", str(2 ** 64), "--out", "no-such-dir/s.bin"),
     f"--seed must be in [0, 2^64), got {2 ** 64}"),
], ids=["s-nan", "s-imag-inf", "offset-inf", "offset-nan", "s-malformed", "offset-malformed",
        "exp-nan", "exp-inf", "cos-inf", "gauss-nan", "terms-negative", "n-zero",
        "gauss-compare-diverges", "laplace-n-past-max", "compare-n-past-max",
        "laplace-n-zero", "laplace-n-negative", "sample-n-zero", "sample-count-zero",
        "sample-seed-negative", "sample-seed-past-64-bits"])
def test_non_finite_inputs_are_refused_naming_the_argument(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert time.perf_counter() - start < 0.1


# A batch larger than the machine's memory went on to np.empty and exited
# through numpy's _ArrayMemoryError traceback ("Unable to allocate 2.91
# TiB").  Both sizes are past the memory of any host: 3.2 TB of spectra,
# and 1.6 PB of draws for one spectrum.  The sampler is replaced, so a
# size that is not refused fails here without allocating.
@pytest.mark.parametrize("argv,option", [
    (("sample", "--n", "4", "--count", "100000000000"), "--count 100000000000 at --n 4: "),
    (("sample", "--n", "10000000", "--count", "1"), "--n 10000000: "),
], ids=["count", "n"])
def test_sample_past_memory_is_refused_before_any_allocation(monkeypatch, tmp_path, capsys,
                                                            argv, option):
    def refuse(*args):
        raise AssertionError("sample_spectra ran")

    monkeypatch.setattr(montecarlo, "sample_spectra", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--seed", "1", "--out", str(tmp_path / "s.bin"))
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "") and err.startswith(f"error: {option}")
    assert err.endswith(" GiB of memory\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("laplace", "--n", "257", "--s=0.5", "--verify"),
    ("laplace", "--n", "99999999999999999999", "--s=0.5"),
    ("resum", "--n", "99999999999999999999", "--function", "cos:1", "--terms", "2", "--compare"),
    ("resum", "--n", "257", "--function", "gauss:0.3", "--terms", "2", "--compare"),
], ids=["laplace-257", "laplace-huge", "compare-huge", "compare-257"])
def test_n_past_the_supported_size_is_refused_before_any_work(capsys, argv):
    """laplace and resum --compare, whose work grows with N, refuse an --n
    past 256 in one line naming it, in well under 0.1 s; resum without
    --compare takes O(1) work in N and keeps accepting any N, and 256 itself
    runs."""
    assert cli._MAX_N == hermite.MAX_ENSEMBLE_SIZE
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "") and err.startswith("error: --n ") and err.count("\n") == 1
    assert elapsed < 0.1
    if argv[0] == "resum":
        code, out, _ = run(capsys, *argv[:-1])
        assert code == 0 and json.loads(out)["n"] == int(argv[2])
    code, _, _ = run(capsys, *(a if a != argv[2] else "256" for a in argv))
    assert code == 0


# Each refusal of a --function spec is one error line naming the option (and
# a taylor-file's line): the monomial and gauss refusals named no option (a
# power past the float range failed converting to float), and a bad
# taylor-file line surfaced as a float conversion message.  "FILE" stands
# for a taylor-file holding FILE_TEXT.
@pytest.mark.parametrize("function,file_text,message", [
    ("monomial:abc", None, "--function monomial power must be an integer >= 0, got 'abc'"),
    ("monomial:1e3", None, "--function monomial power must be an integer >= 0, got '1e3'"),
    ("monomial:-1", None, "--function monomial power must be an integer >= 0, got '-1'"),
    ("gauss:-1", None, "--function gauss parameter must be >= 0, got '-1'"),
    ("monomial:" + "9" * 400, None, f"--function monomial:{'9' * 400} has degree "
                                    f"{'9' * 400}, past the cap 646"),
    ("sinh:1", None, "--function kind 'sinh' is unknown "
                     "(choose monomial, exp, gauss, cos, taylor-file)"),
    ("exp", None, "--function 'exp' needs the form kind:parameter"),
    ("taylor-file:FILE", "1.0\n# note\n\nabc\n", "--function taylor-file:FILE line 4 "
                                                  "must be finite, got 'abc'"),
    ("taylor-file:FILE", "1.0\nnan\n", "--function taylor-file:FILE line 2 "
                                       "must be finite, got 'nan'"),
    ("taylor-file:FILE", "inf\n", "--function taylor-file:FILE line 1 "
                                 "must be finite, got 'inf'"),
    ("taylor-file:FILE", "# only a comment\n", "--function taylor-file:FILE "
                                              "holds no coefficients"),
], ids=["monomial-text", "monomial-float", "monomial-negative", "gauss-negative",
        "monomial-past-float", "unknown-kind", "no-colon", "file-text", "file-nan", "file-inf",
        "file-empty"])
def test_spec_and_sigma_refusals_name_their_option(tmp_path, capsys, function, file_text,
                                                   message):
    path = tmp_path / "coeffs.txt"
    if file_text is not None:
        path.write_text(file_text)
    code, out, err = run(capsys, "resum", "--n", "4", "--terms", "2",
                         "--function", function.replace("FILE", str(path)))
    assert (code, out, err) == (1, "", f"error: {message.replace('FILE', str(path))}\n")


# Each command builds each quadrature rule once: one Jacobi eigenproblem per
# ensemble size, however many polynomials it integrates, for the basis
# suite one semicircle rule for the Gram matrix and one for the averages,
# and for the laplace suite one Gauss rule per (N, node count) of its
# kernel transforms, shared by their s values and offsets (65 transforms).
@pytest.mark.parametrize("argv,name,builds", [
    (("moments", "--n", "256", "--max", "8"), "tridiagonal_eigenvalues", 1),
    (("verify", "--suite", "moments"), "tridiagonal_eigenvalues", 3),
    (("verify", "--suite", "operators"), "tridiagonal_eigenvalues", 2),
    (("verify", "--suite", "basis"), "semicircle_rule", 2),
    (("verify", "--suite", "laplace"), "gauss_nodes", 10),
], ids=["moments", "verify-moments", "verify-operators", "verify-basis", "verify-laplace"])
def test_quadrature_rules_are_built_once(monkeypatch, capsys, argv, name, builds):
    calls = []
    build = getattr(quadrature, name)
    monkeypatch.setattr(quadrature, name, lambda *args: calls.append(args) or build(*args))
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == builds, len(calls)


def test_verify_density_runs_one_recurrence_per_gap_grid(monkeypatch, capsys):
    """The gap check takes p_N and K_N(x, x) from one pass per 2001-point
    grid, one grid for each of its 11 values of N."""
    sizes = []
    rows = hermite._rows
    monkeypatch.setattr(hermite, "_rows", lambda n, k_max, x, *args: sizes.append(x.size)
                        or rows(n, k_max, x, *args))
    code, _, _ = run(capsys, "verify", "--suite", "density")
    assert code == 0 and sizes.count(2001) == 11, sizes.count(2001)


def test_verify_density_runs_one_kernel_pass_per_size(monkeypatch, capsys):
    """The continuity check (4 sizes) and the symmetry check (3 sizes) take
    all their kernel values at one size from one ``_pair_sums`` pass over
    the points of x and y: 2 x 8 and 2 x 6."""
    sizes = []
    pair_sums = hermite._pair_sums
    monkeypatch.setattr(hermite, "_pair_sums", lambda n, x, *args: sizes.append((n, x.size))
                        or pair_sums(n, x, *args))
    code, _, _ = run(capsys, "verify", "--suite", "density")
    assert code == 0
    assert sizes == [(2, 16), (5, 16), (10, 16), (32, 16), (2, 12), (5, 12), (10, 12)], sizes


def test_verify_laplace_runs_one_gauss_pass_per_rung(monkeypatch, capsys):
    """The transform check sums every pair of an N at one rung of the node
    ladder in one ``_gauss_sums`` pass: one pass per rule built, with the
    12 pairs of real s at m = N and those of s = 2i not yet certified at
    each complex rung (a pair climbs on its own)."""
    from guespec import verify

    passes = []
    sums = verify._gauss_sums
    monkeypatch.setattr(verify, "_gauss_sums", lambda n, m, rule, pairs:
                        passes.append((n, m, len(pairs))) or sums(n, m, rule, pairs))
    code, _, _ = run(capsys, "verify", "--suite", "laplace")
    assert code == 0
    assert passes == [(1, 1, 12), (1, 17, 3), (1, 33, 3), (2, 2, 12), (2, 18, 3), (2, 34, 2),
                      (5, 5, 12), (5, 21, 3), (10, 10, 12), (10, 26, 3)]


def test_verify_laplace_runs_one_laguerre_pass_and_one_genus_table(monkeypatch, capsys):
    """The characteristic-function check runs its 11 sizes through one
    Laguerre pass, and the five 1/N expansions share one genus-count table,
    built once and extended in place."""
    passes, builds = [], []
    phis, counts = laplace._characteristic_functions, laplace._genus_counts
    monkeypatch.setattr(laplace, "_characteristic_functions", lambda sizes, w:
                        passes.append(tuple(sizes)) or phis(sizes, w))
    monkeypatch.setattr(laplace, "_genus_counts", lambda m_max, g_max, rows=None:
                        builds.append(rows is None) or counts(m_max, g_max, rows))
    code, _, _ = run(capsys, "verify", "--suite", "laplace")
    assert code == 0
    assert passes == [(1, 2, 3, 5, 8, 16, 32, 64, 128, 200, 256)]
    assert builds.count(True) == 1 and len(builds) > 1


def test_verify_ode_takes_its_residuals_from_its_derivative_passes(monkeypatch, capsys):
    """16 grids and 3 stencils, one derivative pass each."""
    calls = []
    derivatives = hermite.density_derivatives
    monkeypatch.setattr(hermite, "density_derivatives",
                        lambda n, x: calls.append(n) or derivatives(n, x))
    code, _, _ = run(capsys, "verify", "--suite", "ode")
    assert code == 0 and len(calls) == 19, len(calls)


def test_resum_taylor_file_degree_cap(tmp_path, capsys):
    """A Taylor file is the polynomial it spells out, tail_bound 0.0, up to
    degree 646; past it the file is refused before its conversion, naming
    --function, as a monomial is."""
    path = tmp_path / "coeffs.txt"
    path.write_text("1.0\n" + "0.0\n" * 646)
    code, out, _ = run(capsys, "resum", "--n", "4", "--function", f"taylor-file:{path}",
                       "--terms", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["alphas"], payload["tail_bound"]) == ([1.0, 0.0, 0.0], 0.0)
    path.write_text("1.0\n" + "0.0\n" * 647)
    start = time.perf_counter()
    code, out, err = run(capsys, "resum", "--n", "4", "--function", f"taylor-file:{path}",
                         "--terms", "2")
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (1, "", "error: --function taylor-file has degree 647, "
                                       "past the cap 646\n")
    assert elapsed < 0.1


def _exact_average(n, coefficients):
    """int q p_N for Taylor coefficients q, in rationals: the genus-count
    sums of the moments."""
    counts = laplace._genus_counts(len(coefficients) // 2, len(coefficients) // 4)
    return sum(Fraction(c) * sum(Fraction(row[p // 2], n ** (2 * g)) for g, row in enumerate(counts))
               for p, c in enumerate(coefficients) if p % 2 == 0)


@pytest.mark.parametrize("n,power", [(4, 6), (8, 10), (64, 18), (256, 26), (16, 13), (200, 23)])
def test_monomial_reference_is_the_rounded_exact_moment(capsys, n, power):
    code, out, _ = run(capsys, "resum", "--n", str(n), "--function", f"monomial:{power}",
                       "--terms", "2", "--compare")
    assert code == 0
    # An odd moment is 0.0, where the Gauss rule left noise of about 1e-9.
    want = float(_exact_average(n, [0.0] * power + [1.0]))
    assert repr(json.loads(out)["reference"]) == repr(want)


def test_taylor_file_reference_is_the_rounded_exact_value(tmp_path, capsys):
    coefficients = [0.5, -1.25, 0.1, 3.0, -0.3, 0.0, 1e-3, 7.0, 2.0 ** -30]
    path = tmp_path / "poly.txt"
    path.write_text("\n".join(map(repr, coefficients)) + "\n")
    code, out, _ = run(capsys, "resum", "--n", "3", "--function", f"taylor-file:{path}",
                       "--terms", "3", "--compare")
    assert code == 0
    assert repr(json.loads(out)["reference"]) == repr(float(_exact_average(3, coefficients)))


def test_references_past_the_double_range_are_refused(capsys):
    # The gauss reference at N=256, sigma = 125.44 is 7.6e505; the series
    # of that type is past the type cap, so only the reference is asked.
    with pytest.raises(ValueError, match=r"^--function gauss parameter 125\.44: the reference "
                                         r"at N = 256 leaves the double range$"):
        cli.reference_integral(cli.FunctionSpec("gauss", 125.44), 256)
    code, out, err = run(capsys, "resum", "--n", "1", "--function", "monomial:640",
                         "--terms", "2", "--compare")
    assert (code, out) == (1, "")
    assert err == ("error: --function monomial parameter 640: the reference at N = 1 "
                   "leaves the double range\n")


def test_gauss_compare_near_the_divergence_answers(capsys):
    # N=2, sigma=0.95: the integral is (sqrt(20) + 0.05^(-3/2)) / 2.
    code, out, _ = run(capsys, "resum", "--n", "2", "--function", "gauss:0.95",
                       "--terms", "4", "--compare")
    assert code == 0
    assert json.loads(out)["reference"] == pytest.approx(46.95742752749555, rel=1e-14)


def test_density_refuses_a_span_past_the_double_range(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "density", "--n", "4", "--from=-1e308", "--to=1e308",
                             "--points", "3")
    assert (code, out) == (1, "")
    assert err == "error: grid span -1e+308 to 1e+308 is wider than the double range\n"
    assert [str(w.message) for w in caught] == []


def test_gauss_compare_divergent_reference_is_error(capsys):
    code, _, err = run(capsys, "resum", "--n", "2", "--function", "gauss:1.6",
                       "--terms", "4", "--compare")
    assert code == 1
    assert "diverges" in err


def _readme_examples():
    """(command, shown output) of every README code block that starts with `$ guespec`."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(\$ guespec .*?)\n```$", text, re.M | re.S)
    return [tuple(block.split("\n", 1)) for block in blocks]


def test_readme_library_block():
    """The README's "Library use" block runs, and its values are the
    library's own."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)\n```$", text, re.M | re.S).group(1)
    names = {}
    exec(block, names)
    assert np.all(np.isfinite(names["p"]))
    series = taylor_to_basis([1.0, 0.0, 0.5])
    assert names["exact"] == resummed_integral(series, ensemble_size=8, depth=2)
    assert names["exact"] == pytest.approx(1.5, rel=1e-14)  # 1 + <t^2>/2, <t^2> = 1


@pytest.mark.parametrize("example", _readme_examples(), ids=lambda e: e[0].split()[2])
def test_readme_example(example, tmp_path, monkeypatch, capsys):
    """The README shows what the command prints; a `...` stands for any text."""
    command, shown = example
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *shlex.split(command)[2:])
    assert code == 0
    pattern = ".*".join(re.escape(part) for part in shown.split("..."))
    assert re.fullmatch(pattern, out.rstrip("\n"), re.S), out
