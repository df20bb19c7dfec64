"""Tests for the symmetric tridiagonal eigensolver: LAPACK dsterf per matrix,
or eigvalsh on the dense stack, with the same bits."""

import numpy as np
import pytest

from guespec import montecarlo, tridiagonal
from guespec.tridiagonal import ConvergenceError, tridiagonal_eigenvalues

CROSSOVER = tridiagonal._CROSSOVER
needs_dsterf = pytest.mark.skipif(tridiagonal._dsterf() is None,
                                  reason="numpy build ships no OpenBLAS dsterf")


def dense_eigvalsh(diag, sub):
    """The reference: eigvalsh on the matrices laid out dense."""
    n = diag.shape[-1]
    a = np.zeros(diag.shape + (n,))
    i = np.arange(n)
    a[..., i, i] = diag
    a[..., i[1:], i[:-1]] = sub
    a[..., i[:-1], i[1:]] = sub
    return np.linalg.eigvalsh(a)


@pytest.fixture
def dsterf_rows(monkeypatch):
    """Counts the matrices that go through the dsterf binding."""
    real = tridiagonal._dsterf()
    seen = []

    def counting(order, d, e, info):
        seen.append(order.value)
        real(order, d, e, info)
    monkeypatch.setattr(tridiagonal, "_dsterf", lambda: counting)
    return seen


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


@needs_dsterf
@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, 32, 64, 128, 260])
def test_dsterf_route_equals_dense_eigvalsh_bitwise(n, dsterf_rows):
    rng = np.random.default_rng(4000 + n)
    diag = rng.normal(size=(7, n)) * rng.uniform(0.1, 100.0, size=(7, 1))
    sub = rng.normal(size=(7, n - 1))
    got = tridiagonal_eigenvalues(diag, sub)
    assert got.tobytes() == dense_eigvalsh(diag, sub).tobytes()
    assert dsterf_rows == ([n] * 7 if n >= CROSSOVER else [])


@needs_dsterf
@pytest.mark.parametrize("n, count", [(CROSSOVER, 1100), (33, 300), (128, 40)])
def test_sampler_chunks_take_dsterf_with_the_dense_bits(n, count, dsterf_rows, monkeypatch):
    chunks = []

    def recording(diag, sub):
        chunks.append((diag.copy(), sub.copy()))
        return tridiagonal_eigenvalues(diag, sub)
    monkeypatch.setattr(montecarlo, "tridiagonal_eigenvalues", recording)
    montecarlo.sample_spectra(n, count, seed=31)
    assert len(chunks) > 1 and len(dsterf_rows) == count
    for diag, sub in chunks:
        assert tridiagonal_eigenvalues(diag, sub).tobytes() == dense_eigvalsh(diag, sub).tobytes()


@needs_dsterf
@pytest.mark.parametrize("n", [1, 8, 256])
def test_jacobi_matrices_take_dsterf_with_the_dense_bits(n, dsterf_rows):
    """The Golub-Welsch matrices of the Gauss rules, up to 469 nodes."""
    counts = [*range(CROSSOVER, 469, 31), 469]
    for count in counts:
        diag, sub = np.zeros(count), np.sqrt(np.arange(1, count) / n)
        got = tridiagonal_eigenvalues(diag, sub)
        assert got.tobytes() == dense_eigvalsh(diag, sub).tobytes(), count
    assert dsterf_rows == counts


@needs_dsterf
@pytest.mark.parametrize("peak, route", [
    (tridiagonal._RMAX, "dsterf"), (np.nextafter(tridiagonal._RMAX, np.inf), "dense"),
    (tridiagonal._RMIN, "dsterf"), (np.nextafter(tridiagonal._RMIN, 0.0), "dense"),
    (1e160, "dense"), (1e-160, "dense"), (1e145, "dsterf"), (1e-145, "dsterf")])
def test_rows_outside_the_safe_range_go_through_eigvalsh(peak, route, dsterf_rows):
    """eigvalsh scales such a matrix before dsterf sees it, so it keeps it."""
    n = 40
    rng = np.random.default_rng(77)
    diag = rng.uniform(-0.5, 0.5, size=(3, n)) * peak
    sub = rng.uniform(-0.5, 0.5, size=(3, n - 1)) * peak
    diag[:, 5] = peak
    got = tridiagonal_eigenvalues(diag, sub)
    assert got.tobytes() == dense_eigvalsh(diag, sub).tobytes()
    assert dsterf_rows == ([] if route == "dense" else [n] * 3)


@needs_dsterf
def test_one_row_outside_the_safe_range_sends_the_stack_to_eigvalsh(dsterf_rows):
    rng = np.random.default_rng(78)
    diag, sub = rng.normal(size=(4, 24)), rng.normal(size=(4, 23))
    diag[2] *= 1e-160
    sub[2] *= 1e-160
    assert tridiagonal_eigenvalues(diag, sub).tobytes() == dense_eigvalsh(diag, sub).tobytes()
    assert dsterf_rows == []


def test_without_dsterf_the_stack_goes_through_eigvalsh(monkeypatch):
    rng = np.random.default_rng(79)
    diag, sub = rng.normal(size=(5, 64)), rng.normal(size=(5, 63))
    want = tridiagonal_eigenvalues(diag, sub)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(tridiagonal, "_dsterf", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    assert tridiagonal_eigenvalues(diag, sub).tobytes() == want.tobytes()
    assert calls == [(5, 64, 64)]


def failing_dsterf(monkeypatch, at_call):
    """A dsterf binding that reports info = 2 on its ``at_call``-th call."""
    real = tridiagonal._dsterf()
    calls = []

    def failing(order, d, e, info):
        calls.append(order.value)
        real(order, d, e, info)
        if len(calls) == at_call:
            info.value = 2
    monkeypatch.setattr(tridiagonal, "_dsterf", lambda: failing)


@needs_dsterf
def test_dsterf_failure_is_convergence_error_naming_the_row(monkeypatch):
    failing_dsterf(monkeypatch, at_call=4)
    with pytest.raises(ConvergenceError, match=r"stacked row 3 \(order 64\): dsterf left 2 "):
        tridiagonal_eigenvalues(np.zeros((6, 64)), np.ones((6, 63)))
    # 16 rows per chunk at order 128: call 20 is row 3 of the second chunk.
    failing_dsterf(monkeypatch, at_call=20)
    with pytest.raises(ConvergenceError, match=r"sample rows 16-31: stacked row 3 \(order 128\)"):
        montecarlo.sample_spectra(128, 40, seed=1)
