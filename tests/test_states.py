import math

import numpy as np
import pytest

from qentro.errors import QentroError
from qentro.linalg import random_unitary
from qentro.states import (
    DensityMatrix,
    Ensemble,
    MeasurementSet,
    PureState,
    density_of_pure,
    dephase,
    evolve_unitary,
    measure_collapse,
    mix,
    random_density,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

PLUS = PureState([1 / math.sqrt(2), 1 / math.sqrt(2)])
ZERO = PureState.basis_state(2, 0)
NEAR_LIMIT = np.array([[1e308, 1e308], [1e308, -1e308]])

# the two worked mixtures used throughout: an equal blend of |+><+| with
# the maximally mixed state, and a 0.3/0.7 blend with diag(0.8, 0.2)
RHO_BLEND_A = np.array([[0.5, 0.25], [0.25, 0.5]])
RHO_BLEND_B = np.array([[0.71, 0.15], [0.15, 0.29]])


def random_pure(dim, rng):
    # Haar-uniform: a complex Gaussian vector, normalized
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


def computational(dim):
    # the projectors onto the computational basis states
    return MeasurementSet([np.diag(row) for row in np.eye(dim)])


def rotated(dim, rng):
    # the projectors onto the columns of a Haar-random unitary, where the
    # branches M_i|phi> are inexact products
    return MeasurementSet([np.outer(v, v.conj()) for v in random_unitary(dim, rng).T])


def born_weights(state, mset):
    # each branch's squared norm, the sum of its (c * conj(c)).real
    branches = mset.operators @ state.amplitudes
    return branches, (branches * branches.conj()).real.sum(axis=1)


def overlap(a, b):
    # |<a|b>|, 1 exactly when the states differ only by a global phase
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def test_pure_state_validation():
    with pytest.raises(QentroError, match="squared norm 2.0 deviates from 1"):
        PureState([1.0, 1.0])
    with pytest.raises(QentroError, match="a pure state needs at least 2 amplitudes"):
        PureState([1.0])
    with pytest.raises(QentroError, match="amplitudes must be finite"):
        PureState([np.nan, 0.0])
    PureState([1.0, 0.0])  # exact norm fine


def test_reprs_show_their_entries_to_six_digits():
    psi = PureState([1 / math.sqrt(2), 1j / math.sqrt(2)])
    assert repr(psi) == "PureState([0.707107+0.j       0.      +0.707107j])"
    rho = DensityMatrix([[2 / 3, 0.25j], [-0.25j, 1 / 3]])
    assert repr(rho) == "DensityMatrix([[0.666667+0.j   0.      +0.25j]\n [0.      -0.25j 0.333333+0.j  ]])"


def test_density_of_pure_basis_state():
    rho = density_of_pure(ZERO)
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
    assert abs(rho.eigenvalues().max() - 1.0) < 1e-12  # rank 1


def test_density_of_pure_plus_state():
    rho = density_of_pure(PLUS)
    assert np.abs(rho.matrix - np.full((2, 2), 0.5)).max() < 1e-12


def test_density_of_pure_hand_outer_product():
    # sqrt(3/4)|0> + sqrt(1/4)|1>, outer product written out by hand
    state = PureState([math.sqrt(0.75), math.sqrt(0.25)])
    expected = np.array(
        [[0.75, math.sqrt(3.0) / 4.0], [math.sqrt(3.0) / 4.0, 0.25]]
    )
    assert np.abs(density_of_pure(state).matrix - expected).max() < 1e-12


def test_mix_blend_with_maximally_mixed():
    ens = Ensemble(
        pure_parts=[(0.5, PLUS)],
        mixed_part=(0.5, DensityMatrix(np.diag([0.5, 0.5]))),
    )
    assert np.abs(mix(ens).matrix - RHO_BLEND_A).max() < 1e-12


def test_mix_blend_with_skewed_mixed_part():
    ens = Ensemble(
        pure_parts=[(0.3, PLUS)],
        mixed_part=(0.7, DensityMatrix(np.diag([0.8, 0.2]))),
    )
    assert np.abs(mix(ens).matrix - RHO_BLEND_B).max() < 1e-12


def test_mix_two_pure_decomposition_equals_diagonal():
    # (sqrt(3/4), +-sqrt(1/4)) in equal weights averages to diag(3/4, 1/4):
    # two different ensembles, one density matrix
    a = PureState([math.sqrt(0.75), math.sqrt(0.25)])
    b = PureState([math.sqrt(0.75), -math.sqrt(0.25)])
    rho = mix(Ensemble([(0.5, a), (0.5, b)]))
    assert np.abs(rho.matrix - np.diag([0.75, 0.25])).max() < 1e-12


def test_mix_single_pure_state():
    state = random_pure(3, np.random.default_rng(0))
    assert np.allclose(
        mix(Ensemble([(1.0, state)])).matrix, density_of_pure(state).matrix
    )


def test_mix_weight_validation():
    with pytest.raises(QentroError, match="weights sum to 0.7, expected 1"):
        Ensemble([(0.5, PLUS), (0.2, ZERO)])
    with pytest.raises(QentroError, match=r"negative weight in \[1.5, -0.5\]"):
        Ensemble([(1.5, PLUS), (-0.5, ZERO)])


def test_ensemble_takes_a_weight_within_rounding_of_zero():
    # a part of weight 0, or ROUNDING_TOL-small below it, is no negative weight
    assert Ensemble([(1.0, PLUS), (0.0, ZERO)]).dim == 2
    assert Ensemble([(1.0 + 1e-13, PLUS), (-1e-13, ZERO)]).dim == 2
    with pytest.raises(QentroError, match="negative weight"):
        Ensemble([(1.0 + 1e-11, PLUS), (-1e-11, ZERO)])


def test_ensemble_components_must_share_a_dimension():
    mixed = DensityMatrix(np.eye(3) / 3)
    for pure_parts, mixed_part in [
        ([(0.5, PureState([1, 0])), (0.5, PureState([1, 0, 0]))], None),
        ([(0.5, PureState([1, 0]))], (0.5, mixed)),
    ]:
        with pytest.raises(QentroError, match=r"differ in dimension: \[2, 3\]"):
            Ensemble(pure_parts, mixed_part)
    assert Ensemble([(0.5, PureState([1, 0, 0]))], (0.5, mixed)).dim == 3


def test_mix_is_linear():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s1, s2 = random_pure(3, rng), random_pure(3, rng)
        w = rng.random()
        combined = mix(Ensemble([(w, s1), (1.0 - w, s2)]))
        by_hand = w * density_of_pure(s1).matrix + (1.0 - w) * density_of_pure(s2).matrix
        assert np.abs(combined.matrix - by_hand).max() <= 1e-12


def test_density_matrix_validation():
    with pytest.raises(QentroError, match="Hermitian"):
        DensityMatrix([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(QentroError, match="trace"):
        DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(QentroError, match="semidefinite"):
        DensityMatrix([[1.2, 0.0], [0.0, -0.2]])


# huge finite entries once overflowed in the symmetrization (m + m†)/2, after
# which the NaN trace and spectrum passed every check, or eigvalsh raised
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([1e308, -1e308]),
        [[0.5, 1e308], [1e308, 0.5]],
        np.diag([1e308, -1e308, 1.0]),
        [[0.5, 1e308], [-1e308, 0.5]],
        [[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]],
    ],
)
def test_density_matrix_rejects_huge_entries_without_overflow(matrix):
    with pytest.raises(QentroError, match="semidefinite"):
        DensityMatrix(matrix)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitudes", [[1e200, 1.0], [0.6, 1e300j], [1.5e308 + 1.5e308j, 0.0]])
def test_pure_state_rejects_huge_amplitudes_without_overflow(amplitudes):
    with pytest.raises(QentroError, match="norm"):
        PureState(amplitudes)


# the overflow-free part bound reads complex entries through a float view,
# which must not depend on the caller's memory layout
@pytest.mark.parametrize("layout", [lambda m: m.T, np.asfortranarray, lambda m: m[::-1, ::-1]])
def test_density_matrix_accepts_any_memory_layout(layout):
    rho = random_density(8, np.random.default_rng(21)).matrix
    np.testing.assert_array_equal(DensityMatrix(layout(rho)).matrix, layout(rho))


def test_pure_state_accepts_strided_amplitudes():
    amps = np.array([0.6, 9.0, 0.8j, 9.0])[::2]
    assert not amps.flags.c_contiguous
    np.testing.assert_array_equal(PureState(amps).amplitudes, [0.6, 0.8j])
    np.testing.assert_array_equal(PureState(np.array([0.8j, 0.6])[::-1]).amplitudes, [0.6, 0.8j])


def test_validation_keeps_the_bits_of_subnormal_entries():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1], m[1, 0] = 5e-324 + 1e-320j, 5e-324 - 1e-320j
    assert DensityMatrix(m).matrix[0, 1] == 5e-324 + 1e-320j
    assert PureState([1.0, 5e-324]).amplitudes[1] == 5e-324


def test_evolve_unitary_identity():
    state = random_pure(3, np.random.default_rng(1))
    out = evolve_unitary(state, np.eye(3))
    assert overlap(out, state) == pytest.approx(1.0, abs=1e-12)
    rho = random_density(3, np.random.default_rng(2))
    assert np.allclose(evolve_unitary(rho, np.eye(3)).matrix, rho.matrix)


def test_alignment_sends_angled_state_to_zero():
    # the real reflection that maps cos(theta)|0> + sin(theta)|1> to |0>
    for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
        c, s = math.cos(theta), math.sin(theta)
        state = PureState([c, s])
        out = evolve_unitary(state, np.array([[c, s], [s, -c]], dtype=complex))
        assert overlap(out, ZERO) == pytest.approx(1.0, abs=1e-12)


def test_pauli_x_flips_basis_state():
    out = evolve_unitary(ZERO, PAULI_X)
    assert overlap(out, PureState.basis_state(2, 1)) == pytest.approx(1.0, abs=1e-12)


def test_evolve_unitary_errors():
    with pytest.raises(QentroError, match="matrix is not unitary within tolerance"):
        evolve_unitary(ZERO, np.diag([1.0, 2.0]))
    with pytest.raises(QentroError, match="state dim 2 != unitary dim 3"):
        evolve_unitary(ZERO, np.eye(3))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MeasurementSet([]), QentroError, "measurement set is empty"),
        (lambda: MeasurementSet([np.eye(2), np.eye(3)]), QentroError, "differ in dimension"),
        (
            lambda: evolve_unitary(DensityMatrix(np.eye(2) / 2), np.eye(3)),
            QentroError,
            "state dim 2 != unitary dim 3",
        ),
        (lambda: evolve_unitary([1.0, 0.0], np.eye(2)), TypeError, "expected PureState or DensityMatrix, got list"),
        (
            lambda: measure_collapse(ZERO, computational(3), np.random.default_rng(0)),
            QentroError,
            "state dim 2 != measurement dim 3",
        ),
        (lambda: DensityMatrix(np.ones((2, 3))), QentroError, r"expected a square matrix, got shape \(2, 3\)"),
        # numpy's own ValueError once escaped these three
        (lambda: DensityMatrix([[1, 0], [0]]), QentroError, "^density matrix must hold complex numbers of the right shape$"),
        (lambda: DensityMatrix([["a", "b"], ["c", "d"]]), QentroError, "^density matrix must hold complex numbers"),
        (lambda: evolve_unitary(ZERO, "x"), QentroError, "^unitary must hold complex numbers of the right shape$"),
        (lambda: PureState(np.ones((2, 3)) / math.sqrt(6)), QentroError, r"amplitudes must be a vector, got shape \(2, 3\)"),
        # parts above PART_LIMIT are turned away before the products overflow
        (
            lambda: MeasurementSet([NEAR_LIMIT, NEAR_LIMIT]),
            QentroError,
            "operator entry part 1e\\+308 is above 2.0: sum_i M_i† M_i cannot be I",
        ),
        (lambda: evolve_unitary(ZERO, NEAR_LIMIT), QentroError, "matrix is not unitary within tolerance"),
        # with several faults, evolve_unitary reports the matrix's shape and
        # finiteness first, then unitarity, then the state's type, then the dims
        (lambda: evolve_unitary([1.0, 0.0], np.ones((2, 3))), QentroError, r"expected a square matrix, got shape \(2, 3\)"),
        (
            lambda: evolve_unitary([1.0, 0.0], [[math.nan, 0.0], [0.0, 2.0]]),
            QentroError,
            r"matrix entries must be finite \(no NaN/Inf\)",
        ),
        (lambda: evolve_unitary([1.0, 0.0], np.diag([1.0, 2.0])), QentroError, "matrix is not unitary within tolerance"),
        (lambda: evolve_unitary([1.0, 0.0], np.eye(3)), TypeError, "expected PureState or DensityMatrix, got list"),
    ],
    ids=[
        "empty-set",
        "mixed-dims",
        "evolve-density-dims",
        "evolve-non-state",
        "collapse-dims",
        "non-square",
        "ragged-density",
        "string-density",
        "string-unitary",
        "pure-not-a-vector",
        "measurement-near-limit",
        "evolve-near-limit",
        "evolve-shape-first",
        "evolve-finiteness-second",
        "evolve-unitarity-before-type",
        "evolve-type-before-dims",
    ],
)
def test_states_reject_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_evolve_unitary_preserves_invariants():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        u = random_unitary(dim, rng)
        state = random_pure(dim, rng)
        out = evolve_unitary(state, u)
        assert abs((np.abs(out.amplitudes) ** 2).sum() - 1.0) <= 1e-10
        rho = random_density(dim, rng)
        rho_out = evolve_unitary(rho, u)
        assert abs(rho_out.matrix.trace().real - 1.0) <= 1e-10
        assert np.abs(rho_out.eigenvalues() - rho.eigenvalues()).max() <= 1e-10


def test_measure_collapse_deterministic_branch():
    mset = computational(2)
    label, post = measure_collapse(ZERO, mset, np.random.default_rng(0))
    assert label == "0"
    assert overlap(post, ZERO) == pytest.approx(1.0, abs=1e-12)


def test_measure_collapse_born_frequencies():
    # plus state in the computational basis: 0/1 each with probability 1/2,
    # checked against the exact value within 3 binomial standard deviations
    mset = computational(2)
    rng = np.random.default_rng(5)
    shots = 100_000
    zeros = 0
    for _ in range(shots):
        label, _ = measure_collapse(PLUS, mset, rng)
        zeros += label == "0"
    sigma = math.sqrt(0.25 / shots)
    assert abs(zeros / shots - 0.5) <= 3 * sigma


def test_measure_collapse_polarizer_at_45_degrees():
    # a 45-degree filter passes half of horizontally polarized photons
    mset = MeasurementSet.qubit_angle_basis(math.pi / 4)
    forward = mset.operators[0] @ ZERO.amplitudes  # the Born probability is its squared norm
    assert abs(np.vdot(forward, forward).real - 0.5) < 1e-12
    rng = np.random.default_rng(9)
    shots = 20_000
    plus_count = sum(measure_collapse(ZERO, mset, rng)[0] == "0" for _ in range(shots))
    assert abs(plus_count / shots - 0.5) <= 3 * math.sqrt(0.25 / shots)


def test_measure_collapse_reproducible_for_seed():
    mset = computational(2)
    seq1 = [measure_collapse(PLUS, mset, np.random.default_rng(77))[0] for _ in range(20)]
    seq2 = [measure_collapse(PLUS, mset, np.random.default_rng(77))[0] for _ in range(20)]
    assert seq1 != ["0"] * 20  # sanity: not degenerate
    assert seq1 == seq2


def test_measurement_set_completeness():
    proj = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(QentroError, match="operators do not satisfy sum_i M_i"):
        MeasurementSet([proj])


def test_dephase_pure_state():
    state = PureState([0.6, 0.8j])
    rho = dephase(density_of_pure(state))
    assert np.allclose(rho.matrix, np.diag([0.36, 0.64]))


def test_dephase_idempotent_and_trace_preserving():
    rho = DensityMatrix(RHO_BLEND_B)
    once = dephase(rho)
    assert np.allclose(once.matrix, np.diag([0.71, 0.29]))
    twice = dephase(once)
    assert np.allclose(once.matrix, twice.matrix)
    assert abs(once.matrix.trace().real - 1.0) < 1e-12
    diagonal = DensityMatrix(np.diag([0.3, 0.7]))
    assert np.allclose(dephase(diagonal).matrix, diagonal.matrix)


def _same_bytes(got, ref):
    return (
        got.matrix.tobytes() == ref.matrix.tobytes()
        and got.eigenvalues().tobytes() == ref.eigenvalues().tobytes()
    )


def test_random_density_has_the_hilbert_schmidt_mean_purity():
    # a normalized complex Wishart matrix is Hilbert-Schmidt distributed, with
    # mean purity 2d / (d^2 + 1) (Zyczkowski & Sommers, J. Phys. A 34, 7111,
    # 2001); an imaginary part drawn heavy-tailed would put it near 0.70 at d4
    dim, draws = 4, 4000
    rng = np.random.default_rng(17)
    matrices = [random_density(dim, rng).matrix for _ in range(draws)]
    purity = np.array([np.vdot(m, m).real for m in matrices])
    stderr = purity.std(ddof=1) / math.sqrt(draws)
    assert abs(purity.mean() - 2 * dim / (dim**2 + 1)) / stderr < 4


def test_derived_states_match_validating_constructor_bitwise():
    # each derived state equals DensityMatrix(<the array it is built from>),
    # matrix and spectrum, to the last bit
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8, 16):
        rho = random_density(dim, rng)
        u = random_unitary(dim, rng)
        state = random_pure(dim, rng)
        raw = u @ rho.matrix @ u.conj().T
        assert _same_bytes(evolve_unitary(rho, u), DensityMatrix(raw / raw.trace().real))
        ensemble = Ensemble([(0.25, state), (0.35, random_pure(dim, rng))], (0.4, rho))
        raw = np.zeros((dim, dim), dtype=complex)
        for weight, part in ensemble.pure_parts:
            raw += weight * np.outer(part.amplitudes, part.amplitudes.conj())
        raw += 0.4 * rho.matrix
        assert _same_bytes(mix(ensemble), DensityMatrix(raw / raw.trace().real))
        assert _same_bytes(dephase(rho), DensityMatrix(np.diag(rho.diagonal().astype(complex))))
        assert _same_bytes(
            dephase(density_of_pure(state)), DensityMatrix(np.diag(state.probabilities().astype(complex)))
        )
        amps = state.amplitudes
        assert _same_bytes(density_of_pure(state), DensityMatrix(np.outer(amps, amps.conj())))


def test_derived_states_call_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(12)
    rho = random_density(3, rng)
    u = random_unitary(3, rng)
    state = random_pure(3, rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    derived = [
        evolve_unitary(rho, u),
        mix(Ensemble([(0.5, state)], (0.5, rho))),
        dephase(rho),
        dephase(density_of_pure(state)),
        density_of_pure(state),
    ]
    evolve_unitary(state, u)
    measure_collapse(state, computational(3), rng)
    for out in derived:
        with pytest.raises(AssertionError, match="eigensolver called"):
            out.eigenvalues()


def test_measure_collapse_draws_the_generator_choice_stream():
    mset = computational(3)
    raw = np.array([1.0, 2.0j, 0.5])
    state = PureState(raw / np.linalg.norm(raw))
    # the Born probabilities in the computational basis, |c_k|^2
    p = (state.amplitudes * state.amplitudes.conj()).real
    p = p / p.sum()
    reference_rng = np.random.default_rng(2024)
    reference = [str(reference_rng.choice(3, p=p)) for _ in range(10_000)]
    rng = np.random.default_rng(2024)
    drawn = [measure_collapse(state, mset, rng)[0] for _ in range(10_000)]
    assert drawn == reference


def test_measure_collapse_draws_the_generator_choice_stream_in_a_rotated_basis():
    rng = np.random.default_rng(36)
    for dim in range(2, 9):
        for _ in range(3):
            state, mset = random_pure(dim, rng), rotated(dim, rng)
            _, weights = born_weights(state, mset)
            p = weights / weights.sum()
            seed = int(rng.integers(2**32))
            reference_rng = np.random.default_rng(seed)
            reference = [str(reference_rng.choice(dim, p=p)) for _ in range(400)]
            draws = np.random.default_rng(seed)
            assert [measure_collapse(state, mset, draws)[0] for _ in range(400)] == reference


def test_measure_collapse_divides_the_branch_by_the_root_of_its_born_weight():
    # the post state is branch / sqrt(p) to the bit, with p the weight the draw
    # used, and has unit squared norm within 4 ulps
    rng = np.random.default_rng(37)
    for dim in range(2, 17):
        for _ in range(20):
            state, mset = random_pure(dim, rng), rotated(dim, rng)
            label, post = measure_collapse(state, mset, rng)
            branches, weights = born_weights(state, mset)
            branch = branches[int(label)]
            p = (branch * branch.conj()).real.sum()
            assert p == weights[int(label)]
            assert post.amplitudes.tobytes() == (branch / math.sqrt(p)).tobytes()
            norm_sq = (post.amplitudes * post.amplitudes.conj()).real.sum()
            assert abs(norm_sq - 1.0) <= 4 * np.finfo(float).eps


def test_boundary_still_rejects_invalid_inputs():
    with pytest.raises(QentroError, match="matrix is not unitary within tolerance"):
        evolve_unitary(random_density(2, np.random.default_rng(0)), [[1.0, 0.0], [0.0, 1.1]])
    with pytest.raises(QentroError, match="not positive semidefinite"):
        dephase(DensityMatrix(np.array([[1.5, 0.2], [0.2, -0.5]])))


@pytest.mark.parametrize(
    "state, kind",
    [
        (np.array([[0.5, 0.0], [0.0, 0.5]]), "ndarray"),
        (PureState([0.6, 0.8]), "PureState"),
    ],
)
def test_dephase_takes_only_a_density_matrix(state, kind):
    with pytest.raises(TypeError, match=f"^expected DensityMatrix, got {kind}$"):
        dephase(state)


def test_ensemble_rejects_parts_of_the_wrong_type():
    with pytest.raises(QentroError, match="mixed part must be a DensityMatrix"):
        Ensemble([(0.5, PLUS)], (0.5, np.eye(2) / 2))
    with pytest.raises(QentroError, match="pure part 1 must be a PureState"):
        Ensemble([(0.5, PLUS), (0.5, [1.0, 0.0])])


def test_ensemble_rejects_a_nan_weight():
    with pytest.raises(QentroError, match="weights sum to nan, expected 1"):
        Ensemble([(math.nan, PLUS), (1.0, ZERO)])
