"""End-to-end CLI tests driving main(argv) and checking bytes on stdout."""

import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from guespec import TaylorSeries, cli, expand_entire, montecarlo, resummed_integral
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


def test_laplace_known_value_and_verify(capsys):
    code, out, _ = run(capsys, "laplace", "--n", "2", "--s", "1", "--density", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.exp(0.25) * 1.25, rel=1e-12)
    assert payload["rel_err"] < 1e-9


def test_laplace_verify_reports_the_relative_error(capsys):
    # Horner cancels at N c^2 = 32: the value is off the quadrature by 1.1e-2
    # relative to |quadrature| = 0.073, a scale below 1.
    _, out, _ = run(capsys, "laplace", "--n", "32", "--s=0.5", "--lambda-minus", "1.0",
                    "--verify")
    payload = json.loads(out)
    value, quad = payload["value"], payload["quadrature"]
    assert payload["rel_err"] == abs(value - quad) / abs(quad)
    assert payload["rel_err"] > 1e-2


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
    from guespec import laplace

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


def test_resum_truncation_warning_is_a_plain_line(capsys):
    code, _, err = run(capsys, "resum", "--n", "8", "--function", "exp:2", "--terms", "30")
    assert code == 0
    assert err == ("warning: truncated series of degree 32 only supports 8 trusted "
                   "correction passes; deeper functionals (up to 30) fall inside the "
                   "truncation tail and may be spurious zeros\n")


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


def _fresh_process(*argv):
    """stdout, stderr and exit code of ``python -m guespec argv`` in a new
    interpreter that imports this checkout's package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "guespec", *argv], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def test_a_usage_error_leaves_the_parser_as_new(fresh_parser, capsys):
    valid = ["density", "--n", "3", "--from", "-1", "--to", "1", "--points", "4",
             "--format", "csv", "--derivs"]
    assert main(["density", "--n", "3", "--from", "-1", "--format", "xml"]) == 2
    assert main(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()
    assert run(capsys, *valid) == _fresh_process(*valid)
    assert fresh_parser == [1]


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


@pytest.mark.parametrize("function", ["gauss:50", "exp:1e200"])
def test_taylor_data_past_the_double_range_is_numeric_error(capsys, function):
    code, out, err = run(capsys, "resum", "--n", "8", "--terms", "3", "--function", function)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


# 40 terms run past the trusted depth of the trimmed exp/cos series
@pytest.mark.filterwarnings("ignore:truncated series")
@pytest.mark.parametrize("function,terms", [("gauss:2", "3"), ("exp:1", "40"), ("cos:1", "40")])
def test_taylor_data_past_170_factorial(capsys, function, terms):
    code, out, _ = run(capsys, "resum", "--n", "8", "--terms", terms, "--function", function)
    assert code == 0
    assert json.loads(out)["function"] == function


@pytest.mark.parametrize("a", [1.0, -2.5, 0.1, 2.0, 30.0])
def test_taylor_terms_are_correctly_rounded(a):
    got = cli._powers_over_factorials(a, 200)
    want = [float(Fraction(a) ** k / math.factorial(k)) for k in range(201)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


# Each printed NaN or Infinity (or nan/inf cells) and exited 0.  At N=1 the
# moments first leave the double range at p = 235 (nan) and 236 (inf).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ("laplace", "--n", "256", "--s=0", "--lambda-minus", "3"),
    ("laplace", "--n", "4", "--s=nan"),
    ("moments", "--n", "1", "--max", "236"),
], ids=["laplace-offset", "laplace-nan", "moments-overflow"])
def test_non_finite_results_are_refused(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_resum_refuses_sigma_without_a_taylor_file(capsys):
    code, out, err = run(capsys, "resum", "--n", "8", "--function", "exp:1", "--terms", "4",
                         "--sigma", "5")
    assert (code, out) == (1, "")
    assert err == "error: --sigma applies to taylor-file functions only\n"


def test_resum_taylor_file_takes_sigma(tmp_path, capsys):
    path = tmp_path / "coeffs.txt"
    path.write_text("1.0\n0.0\n0.5\n")
    code, _, _ = run(capsys, "resum", "--n", "4", "--function", f"taylor-file:{path}",
                     "--terms", "2", "--sigma", "0.5")
    assert code == 0


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
    series = expand_entire(TaylorSeries([1.0, 0.0, 0.5], 0.0))
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
