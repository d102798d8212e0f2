"""Property tests of the paper's invariants over generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qentro.entropy import informational, von_neumann
from qentro.linalg import random_unitary
from qentro.states import evolve_unitary, random_density


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_unitary_evolution_keeps_spectrum_and_informational_bound(dim, seed):
    # Wishart density matrix and Haar unitary from the same seeded stream
    rng = np.random.default_rng(seed)
    rho = random_density(dim, rng)
    evolved = evolve_unitary(rho, random_unitary(dim, rng))
    assert informational(evolved).value >= von_neumann(rho).value - 1e-12
    assert np.abs(evolved.eigenvalues() - rho.eigenvalues()).max() <= 1e-10
