"""Seeded command lists for the three benchmark workloads.

Each workload is a fixed mix of command *slots*.  A slot fixes what sets a
command's cost (subcommand, ensemble size, point count, depth, output
format); the seed draws the values that do not (grid ends, transform
variables, function parameters, sampler seeds) and the order.  So two
seeds run different inputs for the same amount of work, which keeps the
run-to-run spread of the timings small.

Commands that hit a known defect are fixed slots, not drawn, so every
seed exercises them.  Sample commands write to ``{tmp}/<id>.<ext>``; the
worker substitutes its temporary directory for ``{tmp}``, so the digest of
a command list depends only on the workload and the seed.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("sample", "density", "expand")

# A pass has at least 100 commands, so the latency percentiles up to p90
# can be quoted from one median-of-passes latency per command.  Commands
# come in cost classes, and each workload is sized so that p50 and p90 fall
# inside a class rather than on the step between two: a percentile on a
# step jumps with the run-to-run noise.  A pass takes a few seconds, so a
# run makes five or more passes.

# Sampler: per ensemble size, counts chosen so each size takes a similar
# share of the pass (about 160 us/row at N=8, 1 ms at N=32, 12 ms at
# N=128 on a 2-core Xeon); every fourth command of a size writes CSV.
_SAMPLE_COUNTS = {
    8: [50 + 5 * i for i in range(36)],
    32: [8 + i for i in range(34)],
    128: [1 + i % 3 for i in range(34)],
}

# Density grids: (N, points, derivs, format, kind of range).  "bulk" grids
# stay inside the spectrum, "edge" grids straddle the soft edge at 2.  Cost
# classes, cheapest first: N=8 grids, N=64 x 2000 (where p50 falls), a
# mixed middle class, N=256 x 6000 (where p90 falls), and a few large grids
# that carry much of the pass time.  The two classes a percentile falls in
# keep one format and range kind, which would otherwise split them in two.
# The fixed N=256 [1.5, 3.5] grid reaches where exp(-N x^2/4) underflows.
# The largest grid, N=256 x 1e5, is the one that sets peak memory.
_SPANS = ("bulk", "edge")
_DENSITY_SLOTS = (
    [(8, 1000 + 500 * (i % 2), False, ("json", "csv")[i // 2 % 2], _SPANS[i // 4 % 2])
     for i in range(50)]
    + [(64, 2000, False, "json", "bulk")] * 52
    + [slot + (_SPANS[i % 2],) for i, slot in enumerate(
        [(256, 3000, False, "csv"), (8, 5000, True, "json"), (64, 3000, True, "csv"),
         (256, 1000, True, "json")] * 4)]
    + [(256, 6000, False, "json", "bulk")] * 17
    + [(256, 100000, False, "json", "bulk"), (64, 100000, False, "json", "edge"),
       (8, 30000, False, "csv", "bulk"), (256, 10000, False, "json", "edge"),
       (8, 10000, True, "json", "bulk"), (256, 10000, True, "json", "edge")]
)
_DENSITY_FIXED = [(256, 10000, False, "csv", 1.5, 3.5)]

# resum slots: (kind, N, terms, centre of the drawn parameter).  The
# parameter sets the expansion degree, hence the cost, so the seed only
# moves it a little around the slot's centre.  cos:30 at N=128 is fixed.
_RESUM_N = (4, 8, 16, 32, 64, 128, 200, 256)
_RATES = (0.5, 1.0, 1.5, 2.0, 2.5)
_RESUM_SLOTS = (
    [("monomial", n, 2 + i % 11, 3 * (2 + i % 11))
     for i, n in enumerate(_RESUM_N)]
    + [("exp", n, 2 + (3 * i) % 11, _RATES[i % 5]) for i, n in enumerate((_RESUM_N * 5)[:26])]
    + [("cos", n, 2 + (5 * i) % 11, _RATES[(i + 2) % 5])
       for i, n in enumerate((_RESUM_N * 5)[2:27])]
    # Type <= 0.2 keeps the expansion at its floor degree of 80, N <= 16
    # keeps the comparison integral short, and terms >= 4 always runs the
    # threshold calibration, so these cost alike: with the heaviest
    # commands above them they are the class that p90 falls in.
    + [("gauss", n, 4 + i % 5, 0.05 + 0.008 * i)
       for i, n in enumerate(((4, 6, 8, 10, 12, 16) * 2)[:8])]
)

# moments slots: (N range, max); N=256 max 8, Jacobi matrices of up to
# 260 nodes, is fixed.
_MOMENT_SLOTS = [((8, 16), 12), ((24, 32), 16), ((32, 40), 16)]

# laplace slots: (N, s kind, lambda-minus, verify).  Real s stays in
# [-3, 3]; complex s has |Im s| <= 4.
_LAPLACE_SLOTS = [
    (1, "real", False, False), (32, "real", False, True), (256, "real", False, False),
    (8, "real", True, True), (16, "real", True, False), (64, "real", False, False),
    (6, "complex", False, True), (16, "complex", True, False), (96, "complex", False, False),
    (200, "complex", False, False), (16, "imag", False, True), (4, "imag", True, False),
]
# Where the Horner sum cancels (imaginary s, large --lambda-minus), and the
# --verify whose quadrature outlives the per-command deadline.  The drawn
# slots stay where the sum is accurate, so every seed fails the same set.
_LAPLACE_FIXED = [
    (32, "0.5", 1.0, False, False),
    (64, "0,10", None, True, False),
    (128, "0,30", None, True, False),
    (256, "0,60", None, True, False),
    (256, "3", None, True, True),
]

_STIRLING_COMMANDS = 3
_VERIFY_SUITES = ("density", "ode", "laplace", "moments", "operators", "basis",
                  "stirling", "probe")


def _num(value: float) -> str:
    return repr(round(value, 6))


def _sample(rng: random.Random) -> list[dict]:
    cmds = []
    for n, counts in _SAMPLE_COUNTS.items():
        for i, count in enumerate(counts):
            fmt = "csv" if i % 4 == 1 else "binary"
            cmds.append({"kind": "sample", "n": n, "count": count,
                         "seed": rng.randrange(2 ** 63), "format": fmt})
    return cmds


def _density(rng: random.Random) -> list[dict]:
    cmds = []
    for n, points, derivs, fmt, span in _DENSITY_SLOTS:
        if span == "bulk":
            lo = round(rng.uniform(-1.9, -0.5), 6)
            hi = round(rng.uniform(0.5, 1.9), 6)
        else:
            lo = round(rng.uniform(0.0, 1.5), 6)
            hi = round(rng.uniform(2.2, 3.0), 6)
            if rng.random() < 0.5:
                lo, hi = -hi, -lo
        cmds.append({"kind": "density", "n": n, "start": lo, "stop": hi,
                     "points": points, "derivs": derivs, "format": fmt})
    for n, points, derivs, fmt, lo, hi in _DENSITY_FIXED:
        cmds.append({"kind": "density", "n": n, "start": lo, "stop": hi,
                     "points": points, "derivs": derivs, "format": fmt})
    return cmds


def _expand(rng: random.Random) -> list[dict]:
    cmds = []
    for kind, n, terms, centre in _RESUM_SLOTS:
        if kind == "monomial":
            param = centre + rng.randint(-1, 1)
        else:
            param = round(centre * rng.uniform(0.9, 1.1), 6)
        cmds.append({"kind": "resum", "n": n, "function": kind, "param": param,
                     "terms": terms})
    cmds.append({"kind": "resum", "n": 128, "function": "cos", "param": 30.0, "terms": 4})

    cmds.append({"kind": "moments", "n": 256, "max": 8})
    for (lo, hi), top in _MOMENT_SLOTS:
        cmds.append({"kind": "moments", "n": rng.randint(lo, hi), "max": top})

    for n, s_kind, shifted, verify in _LAPLACE_SLOTS:
        if s_kind == "real":
            s = _num(rng.uniform(-3.0, 3.0))
        elif s_kind == "complex":
            s = f"{_num(rng.uniform(-1.0, 1.0))},{_num(rng.uniform(0.5, 4.0))}"
        else:
            s = f"0,{_num(rng.uniform(1.0, 4.0))}"
        offset = round(rng.uniform(0.05, 0.3), 6) if shifted else None
        cmds.append({"kind": "laplace", "n": n, "s": s, "lambda_minus": offset,
                     "density": rng.random() < 0.5, "verify": verify})
    for n, s, offset, density, verify in _LAPLACE_FIXED:
        cmds.append({"kind": "laplace", "n": n, "s": s, "lambda_minus": offset,
                     "density": density, "verify": verify})

    for _ in range(_STIRLING_COMMANDS):
        cmds.append({"kind": "stirling", "max_n": rng.randint(20, 34)})
    for suite in _VERIFY_SUITES:
        cmds.append({"kind": "verify", "suite": suite})
    return cmds


def _argv(cmd: dict) -> list[str]:
    """The guespec argument list of one command."""
    kind = cmd["kind"]
    if kind == "sample":
        ext = "csv" if cmd["format"] == "csv" else "bin"
        return ["sample", "--n", str(cmd["n"]), "--count", str(cmd["count"]),
                "--seed", str(cmd["seed"]), "--out", f"{{tmp}}/{cmd['id']}.{ext}",
                "--format", cmd["format"]]
    if kind == "density":
        out = ["density", "--n", str(cmd["n"]), "--from", repr(cmd["start"]),
               "--to", repr(cmd["stop"]), "--points", str(cmd["points"]),
               "--format", cmd["format"]]
        return out + (["--derivs"] if cmd["derivs"] else [])
    if kind == "resum":
        param = cmd["param"]
        label = str(param) if cmd["function"] == "monomial" else repr(param)
        return ["resum", "--n", str(cmd["n"]), "--function", f"{cmd['function']}:{label}",
                "--terms", str(cmd["terms"]), "--compare"]
    if kind == "moments":
        return ["moments", "--n", str(cmd["n"]), "--max", str(cmd["max"])]
    if kind == "laplace":
        out = ["laplace", "--n", str(cmd["n"]), f"--s={cmd['s']}"]
        if cmd["lambda_minus"] is not None:
            out += ["--lambda-minus", repr(cmd["lambda_minus"])]
        if cmd["density"]:
            out.append("--density")
        if cmd["verify"]:
            out.append("--verify")
        return out
    if kind == "stirling":
        return ["stirling", "--max-n", str(cmd["max_n"])]
    if kind == "verify":
        return ["verify", "--suite", cmd["suite"]]
    raise ValueError(f"unknown command kind {kind!r}")


def generate(workload: str, seed: int) -> list[dict]:
    """The command list of one pass: dicts with an id, the parameters the
    checks need, and the argv."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    cmds = {"sample": _sample, "density": _density, "expand": _expand}[workload](rng)
    rng.shuffle(cmds)
    for i, cmd in enumerate(cmds):
        cmd["id"] = f"{workload[0]}{i:03d}"
        cmd["argv"] = _argv(cmd)
    return cmds


def digest(cmds: list[dict]) -> str:
    """sha256 of the canonical JSON of a command list."""
    text = json.dumps(cmds, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
