"""Eigenvalues of real symmetric tridiagonal matrices, one or a stack.

The one eigensolver path of the package, for the Monte Carlo sampler and
the Golub-Welsch Gauss rule alike.  It has two routes to the same bits:

* LAPACK ``dsterf``, the tridiagonal QL/QR solver, called once per matrix
  through ``ctypes`` from the OpenBLAS that numpy's wheel ships (an ILP64
  build, so its integers are int64).  O(n^2) per matrix on one thread.
* ``np.linalg.eigvalsh`` on the stack laid out dense, in one call.  That is
  LAPACK ``dsyevd``: a reduction to tridiagonal form, which leaves
  tridiagonal input unchanged, then the same ``dsterf``.

``dsterf`` is taken unless the library or its symbol is absent (MKL, a
system BLAS, another numpy), the order is below ``_CROSSOVER`` (where one
stacked call beats a call per matrix), or some matrix's largest |entry|
lies outside ``dsyevd``'s safe range [_RMIN, _RMAX], where ``dsyevd``
scales the matrix first and its bits differ.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

# From this order on dsterf wins per matrix.  Medians of 21 alternating
# sampler-like stacks on a 2-core Xeon, eigvalsh against dsterf: 3.7 / 3.8
# us at order 8, 6.9 / 6.9 at 12, 9.0 / 8.8 at 14, 12.0 / 11.2 at 16.
_CROSSOVER = 16
# dsyevd scales a matrix whose max |entry| is below sqrt(safmin / eps) or
# above its reciprocal; eps = 2^-52, safmin = 2^-1022.
_RMIN = 2.0 ** -485
_RMAX = 2.0 ** 485


class ConvergenceError(RuntimeError):
    """Raised when LAPACK fails to converge on a stack of matrices."""


@functools.cache
def _dsterf():
    """LAPACK dsterf(n, d, e, info) from numpy's bundled OpenBLAS, or None."""
    here = Path(np.__file__).parent
    int64_p = ctypes.POINTER(ctypes.c_int64)
    for path in sorted([*here.parent.glob("numpy.libs/libscipy_openblas64_*"),
                        *here.glob(".dylibs/libscipy_openblas64_*")]):
        try:
            fn = ctypes.CDLL(str(path)).scipy_dsterf_64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = [int64_p, ctypes.c_void_p, ctypes.c_void_p, int64_p]
        fn.restype = None
        return fn
    return None


def tridiagonal_eigenvalues(diag, sub) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrices (diag, sub).

    diag has shape (..., n) and sub shape (..., n - 1); the result has the
    shape of diag, one ascending spectrum per matrix of the stack.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(sub, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError("empty matrix")
    n = d.shape[-1]
    if e.shape != d.shape[:-1] + (n - 1,):
        raise ValueError(f"subdiagonal shape {e.shape} != {d.shape[:-1] + (n - 1,)}")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("matrix entries must be finite")
    if n >= _CROSSOVER and (dsterf := _dsterf()) is not None:
        peak = np.maximum(np.abs(d).max(axis=-1), np.abs(e).max(axis=-1))
        if np.all((peak >= _RMIN) & (peak <= _RMAX)):
            return _sterf_rows(dsterf, d, e)
    a = np.zeros(d.shape + (n,))
    i = np.arange(n)
    a[..., i, i] = d
    a[..., i[1:], i[:-1]] = e
    a[..., i[:-1], i[1:]] = e
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        rows = d.size // n
        raise ConvergenceError(f"stacked rows 0-{rows - 1} (order {n}): {exc}") from exc


def _sterf_rows(dsterf, d, e) -> np.ndarray:
    """dsterf on every row of the stack, in place on C-contiguous copies."""
    n = d.shape[-1]
    w = np.array(d, order="C")
    s = np.array(e, order="C")
    order = ctypes.c_int64(n)
    info = ctypes.c_int64(0)
    w_at, s_at, size = w.ctypes.data, s.ctypes.data, w.itemsize
    for row in range(d.size // n):
        dsterf(order, w_at + size * n * row, s_at + size * (n - 1) * row, info)
        if info.value:
            raise ConvergenceError(f"stacked row {row} (order {n}): dsterf left "
                                   f"{info.value} off-diagonal entries unconverged")
    return w
