"""Tests for the symmetric tridiagonal eigensolver (LAPACK on dense stacks)."""

import numpy as np
import pytest

from guespec import montecarlo
from guespec.tridiagonal import ConvergenceError, tridiagonal_eigenvalues


def test_single_entry():
    assert tridiagonal_eigenvalues(np.array([3.5]), np.array([])) == pytest.approx([3.5])


def test_two_by_two_closed_form():
    # eigenvalues of [[a, b], [b, c]]
    a, b, c = 1.0, 2.0, -0.5
    disc = np.sqrt((a - c) ** 2 / 4 + b * b)
    expected = sorted([(a + c) / 2 - disc, (a + c) / 2 + disc])
    got = tridiagonal_eigenvalues(np.array([a, c]), np.array([b]))
    assert got == pytest.approx(expected, rel=1e-14)


def test_diagonal_matrix_is_sorted_diagonal():
    d = np.array([4.0, -1.0, 2.0, 0.0])
    got = tridiagonal_eigenvalues(d, np.zeros(3))
    assert np.allclose(got, np.sort(d))


@pytest.mark.parametrize("n", [3, 8, 25, 60])
def test_against_numpy_random(n):
    rng = np.random.default_rng(1000 + n)
    diag = rng.normal(size=n)
    sub = rng.normal(size=n - 1)
    got = tridiagonal_eigenvalues(diag, sub)
    full = np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)
    want = np.linalg.eigvalsh(full)
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_eigenvalue_sum_and_product_invariants():
    rng = np.random.default_rng(77)
    diag = rng.normal(size=12)
    sub = rng.normal(size=11)
    lam = tridiagonal_eigenvalues(diag, sub)
    assert np.sum(lam) == pytest.approx(np.sum(diag), abs=1e-12)
    full = np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)
    assert np.prod(lam) == pytest.approx(np.linalg.det(full), rel=1e-10)


def test_output_is_sorted():
    rng = np.random.default_rng(5)
    lam = tridiagonal_eigenvalues(rng.normal(size=30), rng.normal(size=29))
    assert np.all(np.diff(lam) >= 0)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        tridiagonal_eigenvalues(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="subdiagonal shape"):
        tridiagonal_eigenvalues(np.zeros((2, 4)), np.zeros((3, 3)))


def test_lapack_failure_is_convergence_error_naming_the_rows(monkeypatch):
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match=r"stacked rows 0-2 \(order 4\): Eigenvalues did not"):
        tridiagonal_eigenvalues(np.zeros((3, 4)), np.ones((3, 3)))
    with pytest.raises(ConvergenceError, match="sample rows 0-9: stacked rows 0-9"):
        montecarlo.sample_spectra(8, 10, seed=1)


def test_stacked_call_equals_per_matrix_calls_bitwise():
    rng = np.random.default_rng(2026)
    diag = rng.normal(size=(3, 5, 17))
    sub = rng.normal(size=(3, 5, 16))
    got = tridiagonal_eigenvalues(diag, sub)
    assert got.shape == diag.shape
    for i in range(3):
        for j in range(5):
            assert np.array_equal(got[i, j], tridiagonal_eigenvalues(diag[i, j], sub[i, j]))


def test_empty_or_nonfinite_rejected():
    with pytest.raises(ValueError, match="empty"):
        tridiagonal_eigenvalues(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="finite"):
        tridiagonal_eigenvalues(np.array([0.0, np.nan]), np.zeros(1))
