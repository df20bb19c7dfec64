"""Eigenvalues of real symmetric tridiagonal matrices, one or a stack.

The one eigensolver path of the package: the Monte Carlo sampler and the
Golub-Welsch Gauss rule both lay their matrices out dense and hand the
whole stack to LAPACK through ``np.linalg.eigvalsh`` in a single call.
"""

from __future__ import annotations

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when LAPACK fails to converge on a stack of matrices."""


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
