"""Monte Carlo sampling of GUE(N) spectra via the tridiagonal beta=2 model.

A spectrum is drawn as the eigenvalues of the symmetric tridiagonal matrix
with independent standard-normal diagonal entries and subdiagonal entries
chi_{2(N-i)} / sqrt(2) for i = 1..N-1, all divided by sqrt(N) at the end.
The resulting joint eigenvalue law matches the Hermitian ensemble with
entry variance 1/N; the package treats that as a statistical claim and
checks it against exact moments and the exact density rather than taking
the scaling on faith.

Reproducibility contract (pinned, do not change without a format bump):

* per-row substream: Philox counter-based generator keyed by the 64-bit
  pair (seed, row_index), so row i does not depend on count or on other rows;
* Gaussians by Box-Muller on that stream: a block of m uniforms u1, then
  a block of m uniforms u2 (m = pairs needed); with r_j = sqrt(-2 log(1 - u1_j))
  the j-th pair is (r_j cos(2 pi u2_j), r_j sin(2 pi u2_j)), pairs
  concatenated in order, trailing excess dropped;
* draw order within a row: N diagonal Gaussians first, then for each
  subdiagonal position i = 1..N-1 its 2(N-i) squared Gaussians.

Batches export to CSV (one spectrum per line) or a compact binary layout:
magic "GUE1", little-endian u32 N, u64 count, u64 seed, then count rows
of N little-endian float64 eigenvalues.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .tridiagonal import ConvergenceError, tridiagonal_eigenvalues

_MAGIC = b"GUE1"
_HEADER = struct.Struct("<4sIQQ")


@dataclass(frozen=True)
class SampleBatch:
    """count spectra of GUE(n), rows sorted ascending; bit-reproducible
    from (n, count, seed)."""

    n: int
    count: int
    seed: int
    eigenvalues: np.ndarray

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        if eig.shape != (self.count, self.n):
            raise ValueError(f"eigenvalue array shape {eig.shape} does not match "
                             f"(count, n) = ({self.count}, {self.n})")
        object.__setattr__(self, "eigenvalues", eig)


def _row_gaussians(seed: int, row: int, needed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, row], dtype=np.uint64)))
    pairs = (needed + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * math.pi * u2)
    z[1::2] = r * np.sin(2.0 * math.pi * u2)
    return z[:needed]


def _sample_row(n: int, seed: int, row: int) -> list[float]:
    g = _row_gaussians(seed, row, n * n)
    diag = g[:n]
    sub = []
    pos = n
    for i in range(1, n):
        dof = 2 * (n - i)
        sub.append(math.sqrt(float((g[pos:pos + dof] ** 2).sum()) / 2.0))
        pos += dof
    try:
        eigs = tridiagonal_eigenvalues(diag, sub)
    except ConvergenceError as exc:
        raise ConvergenceError(f"sample row {row}: {exc}") from exc
    scale = math.sqrt(n)
    return [v / scale for v in eigs]


def sample_spectra(n: int, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` independent ordered GUE(n) spectra.

    Row i depends only on (n, seed, i), so a batch is a prefix of every
    larger batch drawn with the same seed.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in 64 bits")
    out = np.empty((count, n))
    for row in range(count):
        out[row] = _sample_row(n, seed, row)
    return SampleBatch(n=n, count=count, seed=seed, eigenvalues=out)


def edge_tail_frequency(batch: SampleBatch, threshold: float) -> float:
    """Fraction of spectra whose largest eigenvalue reaches the threshold."""
    return float(np.mean(batch.eigenvalues[:, -1] >= threshold))


def empirical_moment(batch: SampleBatch, power: int) -> tuple[float, float]:
    """Estimate of int t^power p_N(t) dt and its standard error.

    The per-spectrum statistic is the mean of eigenvalue powers within a
    row; the standard error is the sample deviation of that statistic
    across rows divided by sqrt(count).
    """
    row_means = (batch.eigenvalues ** power).mean(axis=1)
    estimate = float(row_means.mean())
    if batch.count < 2:
        return estimate, math.inf
    return estimate, float(row_means.std(ddof=1) / math.sqrt(batch.count))


def write_csv(batch: SampleBatch, path) -> None:
    """One spectrum per line, header row, full float precision."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(f"eig_{i}" for i in range(batch.n)) + "\n")
        for row in batch.eigenvalues:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_binary(batch: SampleBatch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, batch.n, batch.count, batch.seed))
        fh.write(np.ascontiguousarray(batch.eigenvalues, dtype="<f8").tobytes())


def read_binary(path) -> SampleBatch:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated batch file header")
        magic, n, count, seed = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"not a spectrum batch file (magic {magic!r})")
        body = fh.read(8 * n * count)
        if len(body) != 8 * n * count:
            raise ValueError("truncated batch file body")
        if fh.read(1):
            raise ValueError("trailing bytes after batch payload")
    eig = np.frombuffer(body, dtype="<f8").reshape(count, n).astype(float)
    return SampleBatch(n=int(n), count=int(count), seed=int(seed), eigenvalues=eig)
