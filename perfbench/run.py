"""guespec benchmark: seeded CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload {sample,density,expand,all} \
        --seed N --seconds S --trace {0,1}

Run from a checkout; the program is imported from ``src/``.  For a
workload the script

1. generates the seeded command list and its digest (workloads.py), and
   computes reference values for every command with mpmath and exact
   arithmetic (references.py), outside any timed window;
2. starts one child (worker.py) that runs the command list in passes
   through ``guespec.cli.main`` for about S seconds, one command at a
   time, each under a fixed deadline, and checks every output.  Between
   passes it times the start-up of ``guespec.cli`` in fresh interpreters;
3. prints the environment, every failed command with its cause, the
   metrics with units and sample counts, and as the last line one JSON
   object {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics (--trace 0).  Times are given at a reference speed.
On a shared machine the other tenants slow everything down, by up to
twice, for spells from a fraction of a second to minutes.  So the worker
times a speed probe (worker.speed_probe: fixed work that runs no program
code) every half second between commands, and each timing is scaled by
SPEED_REF_S over the median probe time within SPEED_WINDOW_S of it.  A
slow spell moves probe and timing alike; a change to the program moves
only the timing.  A command's latency is the median of its scaled times
over the passes; a command cut at the deadline counts as the deadline.
The report shows the unscaled medians next to the metrics.

* setup_s: median start-up time of ``guespec.cli``, paid on every CLI call;
* wall_s, cpu_s: one pass over the command list, wall and CPU time;
* op_p50_ms, op_p90_ms: percentiles of the per-command latencies;
* peak_rss_mib: peak resident memory of the child;
* ok_frac: 1 - failed/attempted.

With --trace 1 the child alternates untraced and traced passes and the
metrics are the per-layer ones (tracer.py); the spans are written to
``perfbench/out/spans-<workload>-<seed>.csv``.

``failed`` counts commands that exited non-zero, failed their check or
hit the deadline.  ``correct`` is false when any failure is not one of
the known defects listed in checks.py, so a new wrong answer shows even
while old ones are still being counted.  Any seed works; use one not
tuned on to back a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 3.0

#: Timings are scaled to a machine on which the speed probe takes
#: SPEED_REF_S, using the probes within SPEED_WINDOW_S of each timing.
SPEED_REF_S = 0.010
SPEED_WINDOW_S = 2.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mib": "MiB", "ok_frac": "ratio"}


def child_env() -> dict:
    """The environment of every child: the checkout's sources, and no
    GUESPEC_THREADS, so the default single-threaded path is measured."""
    env = dict(os.environ)
    env.pop("GUESPEC_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def speed_factor(start: float, seconds: float, speeds) -> float:
    """What a timing that began at ``start`` is multiplied by to give it at
    the reference speed."""
    return SPEED_REF_S / stats.local_speed(speeds, start, start + seconds, SPEED_WINDOW_S)


def per_command(passes, key, speeds=None) -> list[float]:
    """Each command's median time over the passes, scaled to the reference
    speed when the speed probes are given; a command cut at the deadline
    (start None) keeps the deadline."""
    columns = []
    for i in range(len(passes[0][key])):
        times = []
        for p in passes:
            value, start = p[key][i], p["start"][i]
            if speeds is not None and start is not None:
                value *= speed_factor(start, p["seconds"][i], speeds)
            times.append(value)
        columns.append(stats.median(times))
    return columns


def run_child(workload: str, seed: int, seconds: float, trace: int, cmds, refs) -> dict:
    """Run the worker on one command list and return its result record."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-{seed}-{os.getpid()}"
    spec_path, result_path = Path(f"{stem}.commands.json"), Path(f"{stem}.result.json")
    with open(spec_path, "w", encoding="ascii") as fh:
        json.dump({"commands": cmds, "refs": refs}, fh)
    argv = [sys.executable, str(HERE / "worker.py"), "--commands", str(spec_path),
            "--seconds", repr(seconds), "--trace", str(trace), "--deadline", repr(DEADLINE_S),
            "--tmp", f"{stem}.tmp", "--result", str(result_path)]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{workload}-{seed}.csv")]
    try:
        subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                       timeout=max(90.0, 5 * seconds))
        with open(result_path, "r", encoding="ascii") as fh:
            return json.load(fh)
    finally:
        spec_path.unlink(missing_ok=True)
        result_path.unlink(missing_ok=True)


def end_to_end(res, failed: int) -> tuple[dict, dict]:
    """End-to-end metric values and a note on how each was measured."""
    passes = [p for p in res["passes"] if not p["traced"]]
    speeds = res["speeds"]
    lat = [1e3 * t for t in per_command(passes, "seconds", speeds)]
    raw = [1e3 * t for t in per_command(passes, "seconds")]
    if stats.beyond(len(lat), 90.0) < stats.MIN_BEYOND:
        raise SystemExit(f"{len(lat)} commands per pass; p90 needs {stats.samples_for(90.0)}")
    tail = stats.tail_percentile(len(lat))
    values = {
        "setup_s": stats.median([s * speed_factor(t, s, speeds) for t, s in res["setups"]]),
        "wall_s": sum(lat) / 1e3,
        "cpu_s": sum(per_command(passes, "cpu", speeds)),
        "op_p50_ms": stats.percentile(lat, 50.0),
        "op_p90_ms": stats.percentile(lat, 90.0),
        "peak_rss_mib": res["peak_rss_mib"],
        "ok_frac": 1.0 - failed / res["attempted"],
    }
    each = f"each command median of {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(res['setups'])} start-ups; unscaled "
                   f"{stats.median([s for _, s in res['setups']]):.4g} s",
        "wall_s": f"one pass, {each}; unscaled {sum(raw) / 1e3:.4g} s",
        "cpu_s": f"one pass, {each}; unscaled {sum(per_command(passes, 'cpu')):.4g} s",
        "op_p50_ms": f"n={len(lat)} commands, {each}; unscaled "
                     f"{stats.percentile(raw, 50.0):.4g} ms",
        "op_p90_ms": f"n={len(lat)}, {stats.beyond(len(lat), 90.0)} beyond; unscaled "
                     f"{stats.percentile(raw, 90.0):.4g} ms; highest quotable "
                     f"p{tail:g} = {stats.percentile(lat, tail):.4g} ms",
        "peak_rss_mib": "ru_maxrss of the child",
        "ok_frac": f"1 - failed_frac, n={res['attempted']}",
    }
    return values, notes


def per_layer(res) -> dict:
    """Per-layer metric values, with the tracing overhead."""
    traced = [p for p in res["passes"] if p["traced"]]
    untraced = [p for p in res["passes"] if not p["traced"]]
    values = dict(res["layers"])
    values["trace.overhead_frac"] = (sum(per_command(traced, "seconds", res["speeds"]))
                                     / sum(per_command(untraced, "seconds", res["speeds"])) - 1.0)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list]:
    """Run one workload; returns (result object, report lines)."""
    import references

    cmds = workloads.generate(workload, seed)
    t0 = time.perf_counter()
    refs = {cmd["id"]: references.for_command(cmd) for cmd in cmds}
    ref_s = time.perf_counter() - t0
    res = run_child(workload, seed, seconds, trace, cmds, refs)

    failed = sum(f["count"] for f in res["failures"])
    probes = [s for _, s in res["speeds"]]
    attempted = res["attempted"]
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}  "
        f"deadline {DEADLINE_S:g} s",
        f"env: nproc {os.cpu_count()}  cpu {cpu_model()!r}  python {res['python']}  "
        f"numpy {res['numpy']}  GUESPEC_THREADS unset",
        f"commands: {len(cmds)} per pass  digest sha256:{workloads.digest(cmds)}  "
        f"references {ref_s:.1f} s",
        f"passes: {len(res['passes'])} (seconds: "
        f"{', '.join(format(sum(p['seconds']), '.3f') for p in res['passes'])})  "
        f"attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.4f}",
        f"speed probes: {len(probes)}, median {1e3 * stats.median(probes):.3f} ms, "
        f"quartile spread {stats.relative_spread(probes):.1%}; timings are scaled to "
        f"{1e3 * SPEED_REF_S:g} ms",
    ]
    for f in res["failures"]:
        label = f"known defect {f['defect']}" if f["defect"] else "UNEXPECTED"
        lines.append(f"  FAILED {f['id']} x{f['count']} [{label}] {f['cause']}: "
                     f"{' '.join(f['argv'])}: {f['detail']}")
    for defect in sorted({f["defect"] for f in res["failures"] if f["defect"]}):
        lines.append(f"  known defect {defect}: {checks.KNOWN_DEFECTS[defect]}")

    if trace:
        values, units = per_layer(res), tracing.UNITS
        lines.append("per-layer metrics: median of the traced passes, commands cut at the "
                     "deadline left out")
        if res["absent"]:
            lines.append(f"  absent or changed: {', '.join(res['absent'])}")
        lines += [f"  {name:<28} {value:<14.6g} {units[name]}" for name, value in values.items()]
    else:
        (values, notes), units = end_to_end(res, failed), END_TO_END
        lines += [f"  {name:<13} {value:<12.6g} {units[name]:<6} {notes[name]}"
                  for name, value in values.items()]
    result = {"correct": all(f["defect"] for f in res["failures"]),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="guespec benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "guespec" / "cli.py").is_file():
        print(f"error: no guespec sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
