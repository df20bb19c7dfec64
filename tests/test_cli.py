"""End-to-end CLI tests driving main(argv) and checking bytes on stdout."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from guespec import cli, montecarlo
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


def test_resum_taylor_file(tmp_path, capsys):
    path = tmp_path / "coeffs.txt"
    path.write_text("# cosh(t) Taylor data\n1.0\n0.0\n0.5\n\n0.0\n0.041666666666666664\n")
    code, out, _ = run(capsys, "resum", "--n", "4", "--function", f"taylor-file:{path}",
                       "--terms", "2", "--compare")
    assert code == 0
    payload = json.loads(out)
    assert payload["errors"][-1] < 1e-6  # quartic Taylor cut of cosh
    assert payload["function"].startswith("taylor-file:")


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


def test_gauss_compare_divergent_reference_is_error(capsys):
    code, _, err = run(capsys, "resum", "--n", "2", "--function", "gauss:1.6",
                       "--terms", "4", "--compare")
    assert code == 1
    assert "diverges" in err
