"""The vectorized float printer against repr, cell for cell."""

import os
import pathlib
import subprocess
import sys

import numpy as np

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
