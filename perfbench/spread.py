"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload expand --seeds 1 2 3 4 5 [--seconds S]

Runs run.py once per seed (one at a time), then prints for every metric
the median over the runs and the interquartile distance as a share of
the median, next to the bound BENCHMARK.json allows.  A benchmark is
steady when every spread but setup_s's is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    if len(runs) < 2:
        return 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        spread = stats.relative_spread(values)
        print(f"{name:<13} median {stats.median(values):<12.6g} spread {spread:7.2%}  "
              f"bound {metric['bound']:.1%}  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
