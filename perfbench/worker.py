"""One benchmark child: runs a command list in passes, in-process.

Started by run.py in a fresh interpreter with ``src`` on PYTHONPATH.  It
imports ``guespec.cli``, then runs the whole command list again and again
(one pass after another, one command at a time) through
``guespec.cli.main(argv)`` with stdout and stderr captured, until the
time budget is spent.  Each command gets a fixed deadline; one that
overruns is interrupted by SIGALRM, counted as failed, and its latency is
recorded as the deadline; later passes count it again without running it,
since it would only spend the measuring time.  Outputs are checked after
each command, outside its timed window.

Every half second, between commands, the worker times a speed probe: a
fixed piece of work that does not use the program.  run.py scales each
timing by the probes taken around it, so that a shared machine running
slower for a while moves the probe and the timing alike.

With --trace 1, passes alternate untraced and traced, and the traced ones
give the per-layer metrics.  The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import stats
import tracer as tracing

PROBE = "import guespec.cli, time; print(repr(time.perf_counter()))"
#: Start-up probes before the first pass and after each pass, so that
#: setup_s samples the whole run.
PROBES_FIRST, PROBES_PER_PASS = 3, 1

#: Untraced passes a timing run makes at least: each command's latency is
#: the median of its passes.  A traced run needs one untraced and one traced.
MIN_PASSES = 3

#: Seconds between speed probes.
SPEED_EVERY_S = 0.5


class DeadlineExceeded(BaseException):
    """Raised inside a command when its deadline passes.  A BaseException,
    so the CLI's own error handling cannot swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def setup_seconds() -> tuple[float, float]:
    """(start, seconds) from starting an interpreter until guespec.cli is
    imported; the probe inherits this process's environment."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          check=True, timeout=60)
    return t0, float(done.stdout.strip().splitlines()[-1]) - t0


def speed_probe() -> tuple[float, float]:
    """(start, seconds) of a fixed mix of the kinds of work the program
    does: interpreter loops, Fraction arithmetic, dicts, and numpy on small
    and large arrays.  It runs no program code, so the program's own speed
    does not enter it; about 10 ms on a 2-core Xeon."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += (i * 7) % 13
    acc, third = fractions.Fraction(0), fractions.Fraction(1, 3)
    for i in range(1, 400):
        acc += third * fractions.Fraction(i, i + 1)
    table = {str(i): i for i in range(8000)}
    total += len(table)
    small = np.arange(32.0)
    for _ in range(300):
        small = np.sqrt(small * small + 1.0) - 0.5
    large = np.linspace(0.0, 1.0, 100000)
    for _ in range(4):
        large = np.exp(-large * large)
    return t0, time.perf_counter() - t0


def run_command(main, argv, deadline):
    """(exit code or None if interrupted, stdout, stderr, seconds, cpu seconds)."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        try:
            signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        rc = None
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = "crash"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if rc is None:
        elapsed = deadline
    return rc, out.getvalue(), err.getvalue(), elapsed, cpu


class Run:
    """State of one child run: pass timings, latencies and failures."""

    def __init__(self, main, cmds, refs, tmp, deadline):
        self.main = main
        self.cmds = cmds
        self.refs = refs
        self.tmp = tmp
        self.deadline = deadline
        self.passes = []          # {"seconds", "cpu" per command, "duration", "traced"}
        self.attempted = 0
        self.failures = {}        # command id -> failure record
        self.verdicts = {}        # (command id, output digest) -> check result
        self.cut = {}             # command id -> CPU seconds it ran before the deadline
        self.speeds = []          # (start, seconds) of each speed probe
        self.next_speed = 0.0
        self.out_bytes = 0

    def probe_speed(self, due=True) -> None:
        """Time the speed probe if SPEED_EVERY_S has passed (or always)."""
        if not due or time.perf_counter() >= self.next_speed:
            self.speeds.append(speed_probe())
            self.next_speed = time.perf_counter() + SPEED_EVERY_S

    def setup(self) -> tuple[float, float]:
        """One start-up timing, with speed probes on either side."""
        self.probe_speed(due=False)
        timing = setup_seconds()
        self.probe_speed(due=False)
        return timing

    def one_pass(self, trace=None) -> None:
        seconds_list, cpu_list, starts = [], [], []
        self.out_bytes = 0
        start = time.perf_counter()
        for cmd in self.cmds:
            if cmd["id"] in self.cut:
                seconds_list.append(self.deadline)
                cpu_list.append(self.cut[cmd["id"]])
                starts.append(None)
                self.attempted += 1
                self.failures[cmd["id"]]["count"] += 1
                continue
            argv = [a.replace("{tmp}", self.tmp) for a in cmd["argv"]]
            self.probe_speed()
            if trace is not None:
                trace.command = cmd["id"]
                mark = trace.mark()
            starts.append(time.perf_counter())
            rc, text, err, seconds, cpu_s = run_command(self.main, argv, self.deadline)
            if rc is None:
                self.cut[cmd["id"]] = cpu_s
                starts[-1] = None
                if trace is not None:
                    # An interrupted command did as much work as the deadline
                    # allowed; keeping it would make the counts vary run to run.
                    trace.rollback(mark)
            seconds_list.append(seconds)
            cpu_list.append(cpu_s)
            self.out_bytes += len(text)
            path = argv[argv.index("--out") + 1] if cmd["kind"] == "sample" else None
            if rc == "crash":
                failure = ("exit", "raised")
            elif path is not None:
                failure = checks.check(cmd, rc, text, self.refs[cmd["id"]], path)
            else:
                # Byte-identical output has the verdict it had before; parsing
                # large outputs again would only shorten the measuring time.
                key = (cmd["id"], rc, hashlib.sha256(text.encode()).digest())
                if key not in self.verdicts:
                    self.verdicts[key] = checks.check(cmd, rc, text, self.refs[cmd["id"]])
                failure = self.verdicts[key]
            if path is not None and os.path.exists(path):
                os.remove(path)
            self.attempted += 1
            if failure is not None:
                self._fail(cmd, failure, err)
        self.passes.append({"seconds": seconds_list, "cpu": cpu_list, "start": starts,
                            "traced": trace is not None,
                            "duration": time.perf_counter() - start})

    def _fail(self, cmd, failure, err) -> None:
        cause, detail = failure
        if cause == "exit" and err.strip():
            detail += ": " + err.strip().splitlines()[-1]
        record = self.failures.setdefault(cmd["id"], {
            "id": cmd["id"], "argv": cmd["argv"], "cause": cause, "detail": detail,
            "defect": checks.known_defect(cmd, cause), "count": 0})
        record["count"] += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", required=True, help="JSON from run.py")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="CSV file for the spans of traced passes")
    args = parser.parse_args(argv)

    from guespec import cli

    with open(args.commands, "r", encoding="ascii") as fh:
        spec = json.load(fh)
    os.makedirs(args.tmp, exist_ok=True)
    run = Run(cli.main, spec["commands"], spec["refs"], args.tmp, args.deadline)
    tracer = tracing.Tracer() if args.trace else None
    traced_metrics, traced_spans = [], []
    setups = [run.setup() for _ in range(PROBES_FIRST)]
    began = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(run.passes) % 2 == 1
            if traced:
                tracer.install()
                try:
                    run.one_pass(tracer)
                finally:
                    tracer.uninstall()
                spans, counters, peak = tracer.take()
                traced_metrics.append(tracing.layer_metrics(spans, counters, peak, run.out_bytes))
                traced_spans.append((len(run.passes) - 1, spans))
            else:
                run.one_pass()
            setups += [run.setup() for _ in range(PROBES_PER_PASS)]
            elapsed = time.perf_counter() - began
            typical = stats.median([p["duration"] for p in run.passes])
            enough = len(run.passes) >= (2 if tracer is not None else MIN_PASSES)
            if enough and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)

    result = {
        "passes": run.passes,
        "setups": setups,
        "speeds": run.speeds,
        "attempted": run.attempted,
        "failures": sorted(run.failures.values(), key=lambda f: f["id"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["layers"] = {key: stats.median([m[key] for m in traced_metrics])
                            for key in traced_metrics[0]}
        result["absent"] = tracer.absent
        if args.spans:
            tracing.write_spans(args.spans, traced_spans)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
