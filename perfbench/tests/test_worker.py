import json
import time
from fractions import Fraction

import numpy as np
import pytest

import checks
import references
import stats
import worker
import workloads

ROWS = [[1], [0, 1], [0, 1, 1], [0, 2, 3, 1]]


CALLS = []


def fake_main(argv):
    mode = argv[0]
    CALLS.append(mode)
    if mode == "slow":
        time.sleep(30)
    if mode == "crash":
        raise TypeError("boom")
    if mode == "exit":
        print("error: no", file=__import__("sys").stderr)
        return 1
    rows = ROWS if mode == "ok" else [[1], [0, 1], [0, 1, 1], [0, 2, 3, 2]]
    print(json.dumps({"max_n": 3, "rows": rows}))
    return 0


def stirling(cid, mode):
    return {"id": cid, "kind": "stirling", "max_n": 3, "argv": [mode]}


def test_run_command_interrupts_at_the_deadline():
    start = time.perf_counter()
    rc, out, err, seconds, _ = worker.run_command(fake_main, ["slow"], 0.2)
    assert rc is None and seconds == 0.2
    assert time.perf_counter() - start < 5.0
    rc, _, err, _, _ = worker.run_command(fake_main, ["crash"], 1.0)
    assert rc == "crash" and "TypeError: boom" in err
    rc, out, _, _, _ = worker.run_command(fake_main, ["ok"], 1.0)
    assert rc == 0 and json.loads(out)["rows"] == ROWS


def test_failures_are_counted_per_attempt(tmp_path):
    slow = {"id": "d", "kind": "laplace", "n": 256, "s": "3", "lambda_minus": None,
            "density": True, "verify": True, "argv": ["slow"]}
    cmds = [stirling("a", "ok"), stirling("b", "wrong"), stirling("c", "exit"),
            stirling("e", "crash"), slow]
    refs = {c["id"]: {"rows": ROWS} for c in cmds}
    run = worker.Run(fake_main, cmds, refs, str(tmp_path), deadline=0.1)
    CALLS.clear()
    run.one_pass()
    run.one_pass()
    assert CALLS.count("slow") == 1, "a command cut at the deadline is not run again"
    assert run.attempted == 10
    assert sum(f["count"] for f in run.failures.values()) == 8
    assert {k: f["cause"] for k, f in run.failures.items()} == {
        "b": "check", "c": "exit", "d": "deadline", "e": "exit"}
    assert run.failures["d"]["defect"] == "laplace-verify-budget"
    assert run.failures["b"]["defect"] is None
    assert "error: no" in run.failures["c"]["detail"]
    assert len(run.passes) == 2
    assert [p["seconds"][4] for p in run.passes] == [0.1, 0.1]


def test_known_defects_are_specific():
    lap = {"kind": "laplace", "n": 128, "s": "0,30", "lambda_minus": None,
           "density": True, "verify": False}
    assert checks.known_defect(lap, "check") == "laplace-horner"
    assert checks.known_defect(dict(lap, s="2.5"), "check") is None
    assert checks.known_defect(lap, "exit") is None
    dens = {"kind": "density", "n": 256, "start": 1.5, "stop": 3.5}
    assert checks.known_defect(dens, "check") == "density-underflow"
    assert checks.known_defect(dict(dens, stop=3.0), "check") is None


def test_sampled_spectra_pass_the_exact_laws():
    rng = np.random.default_rng(7)
    n, count = 8, 400
    eig = np.empty((count, n))
    for r in range(count):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        eig[r] = np.linalg.eigvalsh((a + a.conj().T) / (2.0 * np.sqrt(n)))
    cmd = {"n": n, "count": count}
    ref = {"m4": float(references.moment(n, 4))}
    assert checks.spectra_problem(cmd, eig, ref) is None
    assert "z-score" in checks.spectra_problem(cmd, eig * 1.05, ref)


def test_reference_moments_match_known_values():
    assert references.moment(8, 4) == 2 + Fraction(1, 64)
    assert references.moment(8, 6) == 5 + Fraction(10, 64)
    assert references.moment(5, 3) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_command_lists_are_seeded_and_parse(workload):
    from guespec.cli import build_parser
    cmds = workloads.generate(workload, 11)
    assert len(cmds) >= stats.samples_for(90.0)
    assert workloads.digest(cmds) == workloads.digest(workloads.generate(workload, 11))
    assert workloads.digest(cmds) != workloads.digest(workloads.generate(workload, 12))
    parser = build_parser()
    for cmd in cmds:
        parser.parse_args(cmd["argv"])
