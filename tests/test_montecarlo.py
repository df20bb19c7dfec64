"""Sampler tests: reproducibility, file formats, and statistical sanity.

The heavy statistical checks live in the verify ``sampling`` suite (20000
spectra, run by ``test_acceptance::test_verify_suite``) and in acceptance
criterion 8 (1e5 spectra); here the counts are kept small enough for quick
iteration.
"""

import math

import numpy as np
import pytest

from guespec import hermite, montecarlo


def test_bitwise_reproducibility():
    a = montecarlo.sample_spectra(6, 30, seed=123)
    b = montecarlo.sample_spectra(6, 30, seed=123)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_batch_is_prefix_of_larger_batch():
    """Row i is keyed by (seed, i) alone, so count never changes a row."""
    small = montecarlo.sample_spectra(5, 64, seed=9)
    big = montecarlo.sample_spectra(5, 150, seed=9)
    assert np.array_equal(small.eigenvalues, big.eigenvalues[:64])


def test_seeds_decorrelate():
    a = montecarlo.sample_spectra(4, 10, seed=1)
    b = montecarlo.sample_spectra(4, 10, seed=2)
    assert not np.array_equal(a.eigenvalues, b.eigenvalues)


def test_rows_are_sorted():
    batch = montecarlo.sample_spectra(7, 25, seed=77)
    assert np.all(np.diff(batch.eigenvalues, axis=1) >= 0)


def test_single_matrix_entries_are_standard_normal_stats():
    batch = montecarlo.sample_spectra(1, 4000, seed=2026)
    x = batch.eigenvalues.ravel()
    assert abs(x.mean()) < 4.0 / math.sqrt(len(x))
    assert abs(x.var() - 1.0) < 0.1


def test_empirical_second_moment_near_one():
    batch = montecarlo.sample_spectra(8, 2000, seed=31)
    est, se = montecarlo.empirical_moment(batch, 2)
    assert se > 0
    assert abs(est - 1.0) < 4.0 * se


def test_edge_tail_trivial_threshold():
    batch = montecarlo.sample_spectra(3, 12, seed=4)
    assert montecarlo.edge_tail_frequency(batch, -math.inf) == 1.0
    assert montecarlo.edge_tail_frequency(batch, math.inf) == 0.0


def test_binary_round_trip(tmp_path):
    batch = montecarlo.sample_spectra(5, 17, seed=8)
    path = tmp_path / "batch.bin"
    montecarlo.write_binary(batch, path)
    back = montecarlo.read_binary(path)
    assert back.n == batch.n and back.count == batch.count and back.seed == batch.seed
    assert np.array_equal(back.eigenvalues, batch.eigenvalues)


def test_binary_rejects_corruption(tmp_path):
    batch = montecarlo.sample_spectra(3, 4, seed=1)
    path = tmp_path / "batch.bin"
    montecarlo.write_binary(batch, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        montecarlo.read_binary(bad_magic)

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-9])
    with pytest.raises(ValueError, match="truncated"):
        montecarlo.read_binary(short)

    long = tmp_path / "long.bin"
    long.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        montecarlo.read_binary(long)


def test_csv_round_trip(tmp_path):
    batch = montecarlo.sample_spectra(4, 6, seed=3)
    path = tmp_path / "batch.csv"
    montecarlo.write_csv(batch, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "eig_0,eig_1,eig_2,eig_3"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # repr round trip: parsing the text recovers the exact doubles
    assert np.array_equal(parsed, batch.eigenvalues)


def test_histogram_roughly_matches_density():
    """Coarse shape check at small count; tight version is in the verify suite."""
    n, count = 8, 3000
    batch = montecarlo.sample_spectra(n, count, seed=314)
    edges = np.linspace(-2.0, 2.0, 9)
    hist, _ = np.histogram(batch.eigenvalues.ravel(), bins=edges)
    emp = hist / (count * n * np.diff(edges))
    centers = 0.5 * (edges[:-1] + edges[1:])
    exact = hermite.density(n, centers)
    assert np.max(np.abs(emp - exact)) < 0.05


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        montecarlo.SampleBatch(n=3, count=2, seed=0, eigenvalues=np.zeros((2, 4)))
    with pytest.raises(ValueError):
        montecarlo.sample_spectra(0, 5, seed=1)
    with pytest.raises(ValueError):
        montecarlo.sample_spectra(3, 0, seed=1)


def test_pinned_gaussian_stream_first_values():
    """The per-row Gaussian stream is a pinned contract (Philox key
    [seed, row], Box-Muller in two blocks); freeze its first values so a
    refactor that silently changes the stream fails loudly."""
    z = montecarlo._row_gaussians(seed=42, row=0, needed=4)
    w = montecarlo._row_gaussians(seed=42, row=0, needed=4)
    assert np.array_equal(z, w)
    u = np.random.Generator(np.random.Philox(key=np.array([42, 0], dtype=np.uint64))).random(4)
    r = np.sqrt(-2.0 * np.log1p(-u[:2]))
    want = np.array([r[0] * np.cos(2 * np.pi * u[2]), r[0] * np.sin(2 * np.pi * u[2]),
                     r[1] * np.cos(2 * np.pi * u[3]), r[1] * np.sin(2 * np.pi * u[3])])
    assert np.allclose(z, want, rtol=0, atol=0)
