"""The vectorized float printer against repr, cell for cell."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from guespec import _floattext


def _text(rows) -> str:
    return "".join(_floattext.format_rows(rows))


def _reference(rows) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def _check_line(values):
    values = np.asarray(values, dtype=np.float64)
    got = _text(values.reshape(1, -1)).rstrip("\n").split(",")
    want = [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def _neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):        # past the largest double: inf, dropped
        up = np.nextafter(values, np.inf)
    return np.concatenate([values, np.nextafter(values, 0.0), up])


def test_random_bit_patterns_print_as_repr():
    # Uniform bits cover every exponent, subnormals (about 1 in 2048) too.
    bits = np.random.default_rng(20200818).integers(0, 2 ** 64, size=251_000,
                                                    dtype=np.uint64)
    values = bits.view(np.float64)
    _check_line(values[np.isfinite(values)][:250_000])


def test_special_families_print_as_repr():
    subnormals = np.arange(1, 5000, dtype=np.uint64).view(np.float64)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch_points = [1e16, 9999999999999998.0, 1e-4, 1e-5]
    extremes = [np.finfo(float).max, np.finfo(float).tiny, 5e-324]
    family = np.concatenate([subnormals, _neighbours(powers_of_two),
                             _neighbours(powers_of_ten), _neighbours(switch_points),
                             _neighbours(extremes), [0.0, -0.0]])
    family = family[np.isfinite(family)]
    _check_line(np.concatenate([family, -family]))


# Bit patterns that take the kernel's rare branches, found by a scan of the
# branch conditions over doubles near 2^50..2^64 and over uniform bits,
# which reach most of them only by chance of the seed.  r is z mod 1000,
# delta the interval's width, both in units of 10^m; the fraction words
# of z and delta decide, and where they tie, Dragonbox's parity product.
# No double was found that ties on the middle and has the other parity.
_RARE_BRANCHES = {
    # r = 0, z an integer and c odd: the right end is excluded
    # (1.8014398509481988e+16, not ...990).
    "right-end-excluded": [0x4350000000000001, 0x435000000000000B],
    # r = delta: 1000 f is in the interval ...
    "left-end-inside": [0x64FEB75E34E5062F, 0x2CF78D820B7C39FE],
    # ... or not, and the small divisor decides.
    "left-end-outside": [0x6C200A7E17385EF0, 0x1EF2EABC012CAB01],
    # The same two, where the fraction words tie.
    "left-end-tie-inside": [0x4350000000000002, 0x435000000000000C],
    "left-end-tie-outside": [0x4350000000000007, 0x4350000000000011],
    # A small-divisor remainder divisible by 100 whose middle has the other
    # parity: one less.
    "middle-one-less": [0x43E00000000000B5, 0x43E0000000000132, 0x3F112D842E42D193],
    # The middle halfway between two candidates: the even one
    # (2^50 + 0.25 prints as 1125899906842624.2).
    "middle-tie-to-even": [0x4310000000000001, 0x4310000000000005],
    # Powers of two whose symmetric interval would give another decimal
    # (2^64 would print as 1.844674407370955e+19).
    "shorter-interval": [0x0040000000000000, 0x0060000000000000, 0x43F0000000000000],
}


@pytest.mark.parametrize("branch", list(_RARE_BRANCHES))
def test_rare_branches_print_as_repr(branch):
    values = np.array(_RARE_BRANCHES[branch], dtype=np.uint64).view(np.float64)
    _check_line(np.concatenate([values, -values]))


def test_rows_are_lines_of_comma_separated_cells():
    # Seven columns: rows straddle the kernel's chunk boundaries.
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((3001, 7)) * 10.0 ** rng.integers(-30, 30, (3001, 7))
    rows[::5, 2] = 0.0
    assert _text(rows) == _reference(rows)
    single = np.array([[0.25]])
    assert _text(single) == "0.25\n"


def test_cli_start_up_neither_imports_the_printer_nor_builds_its_tables():
    # Both are paid by the first density command, not by every start-up.
    src = str(pathlib.Path(_floattext.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, guespec.cli; loaded = 'guespec._floattext' in sys.modules; "
            "import guespec._floattext as f; "
            "raise SystemExit(loaded or f._tables.cache_info().currsize)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
