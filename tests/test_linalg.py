import math

import numpy as np
import pytest

from qentro.errors import NonFinite, NotHermitian
from qentro.linalg import (
    as_matrix,
    hermitian_eigen,
    is_unitary,
    random_unitary,
)


def reconstruct(eig):
    """``V diag(w) V†``, which must give back the decomposed matrix."""
    v = eig.eigenvectors
    return (v * eig.eigenvalues) @ v.conj().T


def eig2x2(m):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, the independent
    oracle: (a+d)/2 +- sqrt(((a-d)/2)^2 + |b|^2)."""
    a, d, b = m[0, 0].real, m[1, 1].real, m[0, 1]
    mean = (a + d) / 2.0
    rad = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return mean - rad, mean + rad


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def test_eigen_diagonal_matrix():
    eig = hermitian_eigen(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(eig.eigenvalues, [0.25, 0.75])


def test_eigen_matches_2x2_closed_form():
    m = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    lo, hi = eig2x2(m)
    eig = hermitian_eigen(m)
    assert np.allclose(eig.eigenvalues, [lo, hi], atol=1e-12)
    assert np.allclose(eig.eigenvalues, [0.25, 0.75], atol=1e-12)


def test_eigen_scalar_matrix():
    eig = hermitian_eigen(np.eye(2) / 2)
    assert np.allclose(eig.eigenvalues, [0.5, 0.5])


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigen_tolerance_is_explicit():
    m = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        hermitian_eigen(m, tol=1e-10)
    hermitian_eigen(m, tol=1e-3)  # loosened tolerance accepts it


def test_eigen_properties_random():
    # reconstruction, orthonormality, ordering, and the 2x2 oracle over
    # 1000 random Hermitian matrices
    rng = np.random.default_rng(101)
    for trial in range(1000):
        dim = 2 + trial % 3
        m = random_hermitian(dim, rng)
        eig = hermitian_eigen(m)
        assert np.abs(reconstruct(eig) - m).max() <= 1e-10
        v = eig.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10
        assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
        assert abs(m.trace().real - eig.eigenvalues.sum()) <= 1e-10
        if dim == 2:
            lo, hi = eig2x2(m)
            assert np.allclose(eig.eigenvalues, [lo, hi], atol=1e-12)


def test_eigen_reconstruction_up_to_dim_8():
    rng = np.random.default_rng(202)
    for dim in (5, 6, 7, 8):
        for _ in range(25):
            m = random_hermitian(dim, rng)
            eig = hermitian_eigen(m)
            assert np.abs(reconstruct(eig) - m).max() <= 1e-10
            v = eig.eigenvectors
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10


def test_eigenvector_phase_convention():
    rng = np.random.default_rng(5)
    for _ in range(50):
        eig = hermitian_eigen(random_hermitian(3, rng))
        for k in range(3):
            col = eig.eigenvectors[:, k]
            mags = np.abs(col)
            first = col[np.argmax(mags > 1e-12 * mags.max())]
            assert first.real > 0 and abs(first.imag) < 1e-12


def test_is_unitary():
    assert is_unitary(np.eye(3))
    assert not is_unitary(np.diag([1.0, 2.0]))
    # the qubit alignment reflection: real orthogonal and symmetric, checked
    # by the direct product a†a = I
    c, s = math.cos(math.radians(30.0)), math.sin(math.radians(30.0))
    g = np.array([[c, s], [s, -c]], dtype=complex)
    product = g.conj().T @ g
    assert np.abs(product - np.eye(2)).max() <= 1e-12
    assert is_unitary(g)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(23)
    for dim in (2, 3, 4):
        assert is_unitary(random_unitary(dim, rng), 1e-10)


def test_as_matrix_rejects_non_finite_entries_as_domain_error():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(NonFinite, match="finite"):
            as_matrix(m)
