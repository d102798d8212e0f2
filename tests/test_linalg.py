import math

import numpy as np
import pytest

from qentro.errors import QentroError
from qentro.linalg import DEFAULT_TOL, LOOSE_TOL, as_matrix, is_unitary, random_unitary


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


def test_random_unitary_has_the_haar_fourth_moment():
    # under the Haar measure |U_00|^2 is Beta(1, d - 1), so |U_00|^4 has mean
    # 2 / (d (d + 1)) and variance 24 (d - 1)! / (d + 3)! - mean^2; an
    # imaginary part drawn heavy-tailed would put the mean near 0.144 at d4
    dim, draws = 4, 4000
    rng = np.random.default_rng(17)
    fourth = np.array([abs(random_unitary(dim, rng)[0, 0]) ** 4 for _ in range(draws)])
    mean = 2 / (dim * (dim + 1))
    variance = 24 * math.factorial(dim - 1) / math.factorial(dim + 3) - mean**2
    assert abs(fourth.mean() - mean) / math.sqrt(variance / draws) < 4


def test_as_matrix_rejects_non_finite_entries_as_domain_error():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(QentroError, match="matrix entries must be finite"):
            as_matrix(m, "matrix")


def _deviation(a):
    # the definition is_unitary states, max|a†a - I|, with the identity built
    a = np.asarray(a, dtype=complex)
    return float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())


def test_is_unitary_is_the_stated_deviation_to_the_last_bit():
    # at its own deviation the check passes and one ulp below it fails, so the
    # in-place diagonal gives exactly max|a†a - I|, and tolerances a few ulps
    # either side of it agree with the definition; stretched unitaries put the
    # deviation within rounding of LOOSE_TOL, and Fortran-ordered and
    # transposed inputs reach the product through other layouts
    rng = np.random.default_rng(36)
    ulp = np.finfo(float).eps
    for dim in range(1, 17):
        for _ in range(4):
            u = random_unitary(dim, rng)
            near = u * np.sqrt(1.0 + LOOSE_TOL)
            for a in (u, near, np.asfortranarray(near), near.T, rng.uniform(-1.0, 1.0, (dim, dim))):
                dev = _deviation(a)
                assert is_unitary(a, dev)
                assert not is_unitary(a, np.nextafter(dev, -1.0))
                for tol in (LOOSE_TOL, DEFAULT_TOL, dev * (1 + 4 * ulp), dev * (1 - 4 * ulp)):
                    assert is_unitary(a, tol) == (dev <= tol)


def test_is_unitary_turns_away_a_large_part_and_a_nan():
    # a part above PART_LIMIT is not unitary, whatever the tolerance
    assert not is_unitary(np.diag([1.0, 2.0 + 1e-15]), 10.0)
    assert not is_unitary([[0.0, 3.0j], [1.0, 0.0]], 100.0)
    with pytest.raises(QentroError, match="matrix entries must be finite"):
        is_unitary([[1.0, 0.0], [0.0, math.nan]])
