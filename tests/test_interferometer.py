import math

import numpy as np
import pytest

from qentro.entropy import NATS
from qentro.errors import QentroError
from qentro.interferometer import (
    ABSORBED,
    D1,
    D2,
    RIGID,
    SPRINGY,
    UNKNOWN,
    MirrorModel,
    arrangement_entropy,
    arrangement_rows,
    mirror_position_uncertainty,
    outcome_distribution,
    posterior_springy,
    simulate_latent_mirror,
    simulate_photons,
)


def probabilities(mirror):
    return np.array(list(outcome_distribution(mirror).values()))


def test_rigid_distribution():
    # keyed in OUTCOMES order, which the rows' columns and the multinomial draws follow
    assert list(outcome_distribution(MirrorModel(RIGID)).items()) == [(ABSORBED, 0.0), (D1, 1.0), (D2, 0.0)]


def test_springy_distribution():
    assert list(outcome_distribution(MirrorModel(SPRINGY)).items()) == [(ABSORBED, 0.5), (D1, 0.25), (D2, 0.25)]


def test_unknown_distribution_at_even_prior():
    dist = outcome_distribution(MirrorModel(UNKNOWN, 0.5))
    assert list(dist.items()) == [(ABSORBED, 0.25), (D1, 0.625), (D2, 0.125)]


def test_unknown_distribution_is_affine_in_prior():
    springy = probabilities(MirrorModel(SPRINGY))
    rigid = probabilities(MirrorModel(RIGID))
    for q in np.linspace(0.0, 1.0, 11):
        blended = probabilities(MirrorModel(UNKNOWN, q))
        assert np.allclose(blended, q * springy + (1 - q) * rigid, atol=1e-15)
    assert np.array_equal(probabilities(MirrorModel(UNKNOWN, 0.0)), rigid)
    assert np.array_equal(probabilities(MirrorModel(UNKNOWN, 1.0)), springy)


def test_prior_validation():
    with pytest.raises(QentroError, match=r"prior must lie in \[0, 1\], got 1.5"):
        MirrorModel(UNKNOWN, 1.5)
    with pytest.raises(QentroError, match=r"prior must lie in \[0, 1\], got -0.1"):
        MirrorModel(UNKNOWN, -0.1)


def test_unknown_mirror_given_no_prior_takes_an_even_one():
    assert MirrorModel(UNKNOWN) == MirrorModel(UNKNOWN, 0.5)
    assert MirrorModel(UNKNOWN).joint == MirrorModel(UNKNOWN, 0.5).joint
    assert posterior_springy(None, D1) == posterior_springy(0.5, D1) == 0.2


@pytest.mark.parametrize("kind", ["rigid", "springy"])
@pytest.mark.parametrize("prior", [0.7, 0.0])
def test_known_mirror_rejects_a_prior(kind, prior):
    with pytest.raises(QentroError, match=f"a {kind} mirror takes no prior, got {prior!r}"):
        MirrorModel(kind, prior)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MirrorModel("bogus"), "unknown mirror kind 'bogus'"),
        (lambda: posterior_springy(0.5, "bogus"), "outcome must be one of"),
        (lambda: posterior_springy(1.5, D1), "prior must lie in [0, 1], got 1.5"),
        (lambda: MirrorModel(UNKNOWN, math.nan), "prior must lie in [0, 1], got nan"),
        (lambda: simulate_latent_mirror(0.5, 0, np.random.default_rng(0)), "photon count must be >= 1, got 0"),
    ],
    ids=["kind", "outcome", "prior", "prior-nan", "latent-count"],
)
def test_interferometer_rejects_bad_arguments(call, message):
    with pytest.raises(QentroError) as exc:
        call()
    assert message in str(exc.value)


def test_mirror_model_holds_its_joint_table():
    mirror = MirrorModel(UNKNOWN, 0.5)
    assert mirror.joint == ((0.0, 0.5, 0.0), (0.25, 0.125, 0.125))
    assert MirrorModel(RIGID).joint == ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0))
    assert MirrorModel(SPRINGY).joint == ((0.0, 0.0, 0.0), (0.5, 0.25, 0.25))
    # the table takes no part in equality, hashing or the repr
    assert mirror == MirrorModel("unknown", 0.5)
    assert hash(mirror) == hash(("unknown", 0.5))
    assert repr(mirror) == "MirrorModel(kind='unknown', prior_springy=0.5)"


def test_arrangement_entropies():
    assert arrangement_entropy(MirrorModel(RIGID)).value == 0.0
    assert arrangement_entropy(MirrorModel(SPRINGY)).value == pytest.approx(1.5, abs=1e-12)
    assert arrangement_entropy(MirrorModel(UNKNOWN, 0.5)).value == pytest.approx(1.299, abs=5e-4)
    # the uncertain arrangement sits strictly between the two extremes
    assert 0.0 < arrangement_entropy(MirrorModel(UNKNOWN, 0.5)).value < 1.5


def test_arrangement_entropy_in_nats():
    h = arrangement_entropy(MirrorModel(SPRINGY), NATS)
    assert h.value == pytest.approx(1.5 * math.log(2.0), abs=1e-12)


def test_posteriors_at_even_prior():
    assert posterior_springy(0.5, D2) == 1.0
    assert posterior_springy(0.5, D1) == 0.2
    # forced by the rule that the rigid arrangement never absorbs:
    # (1/2 * 1/2) / (1/4) = 1
    assert posterior_springy(0.5, ABSORBED) == 1.0


def test_posterior_of_a_column_with_equal_cells():
    # at prior 0.8 both cells of the d1 column hold 0.2 within rounding, so
    # the posterior, the springy share of their sum, is one half
    assert posterior_springy(0.8, D1) == pytest.approx(0.5)


def test_posterior_impossible_outcome():
    with pytest.raises(QentroError, match="outcome 'absorbed' has probability 0 at prior 0.0"):
        posterior_springy(0.0, ABSORBED)
    with pytest.raises(QentroError, match="outcome 'd2' has probability 0 at prior 0.0"):
        posterior_springy(0.0, D2)


def test_posterior_total_probability():
    # sum_o p(o | prior) posterior(prior, o) must return the prior exactly
    for prior in (0.1, 0.5, 0.9):
        dist = outcome_distribution(MirrorModel(UNKNOWN, prior))
        total = sum(p * posterior_springy(prior, outcome) for outcome, p in dist.items() if p > 0)
        assert total == pytest.approx(prior, abs=1e-12)


def test_simulate_rigid_all_d1():
    counts = simulate_photons(MirrorModel(RIGID), 1000, np.random.default_rng(0))
    assert counts == {ABSORBED: 0, D1: 1000, D2: 0}


@pytest.mark.parametrize("mirror", [MirrorModel(SPRINGY), MirrorModel(UNKNOWN, 0.5)])
def test_simulate_frequencies_within_3_sigma(mirror):
    photons = 100_000
    counts = simulate_photons(mirror, photons, np.random.default_rng(7))
    for outcome, p in outcome_distribution(mirror).items():
        sigma = math.sqrt(p * (1 - p) / photons)
        assert abs(counts[outcome] / photons - p) <= 3 * sigma


@pytest.mark.parametrize("seed", range(5))
def test_simulate_a_single_photon(seed):
    counts = simulate_photons(MirrorModel(UNKNOWN, 0.5), 1, np.random.default_rng(seed))
    assert sorted(counts.values()) == [0, 0, 1]
    cells = simulate_latent_mirror(0.5, 1, np.random.default_rng(seed))
    assert sorted(cells.values()) == [0, 0, 0, 0, 0, 1]


def test_simulate_deterministic_given_seed():
    a = simulate_photons(MirrorModel(SPRINGY), 5000, np.random.default_rng(13))
    b = simulate_photons(MirrorModel(SPRINGY), 5000, np.random.default_rng(13))
    assert a == b


def test_latent_mirror_posterior_matches_bayes():
    prior = 0.5
    count = 100_000
    counts = simulate_latent_mirror(prior, count, np.random.default_rng(21))
    d1_springy = counts[("springy", D1)]
    d1_total = d1_springy + counts[("rigid", D1)]
    post = posterior_springy(prior, D1)
    sigma = math.sqrt(post * (1 - post) / d1_total)
    assert abs(d1_springy / d1_total - post) <= 3 * sigma
    # absorbed photons only ever come from the springy world
    assert counts[("rigid", ABSORBED)] == 0
    assert counts[("rigid", D2)] == 0


def test_mirror_position_uncertainty():
    assert mirror_position_uncertainty(4 * math.pi) == pytest.approx(1.0, abs=1e-15)
    assert mirror_position_uncertainty(500e-9) == pytest.approx(3.9789e-8, rel=1e-4)
    assert mirror_position_uncertainty(1e-12) < 1e-12
    with pytest.raises(QentroError, match="wavelength must be positive, got 0.0"):
        mirror_position_uncertainty(0.0)


def test_arrangement_rows_schema():
    rows = arrangement_rows(MirrorModel(UNKNOWN, 0.5), photons=1000, seed=4)
    assert len(rows) == 1
    row = rows[0]
    assert row["entropy_bits"] == pytest.approx(1.299, abs=5e-4)
    assert row["count_absorbed"] + row["count_d1"] + row["count_d2"] == 1000
    assert arrangement_rows(MirrorModel(UNKNOWN, 0.5), photons=1000, seed=4) == rows


def test_arrangement_rows_without_photons():
    for mirror in (MirrorModel(RIGID), MirrorModel(SPRINGY), MirrorModel(UNKNOWN, 0.3)):
        (row,) = arrangement_rows(mirror, photons=0, seed=4)
        assert not any(key.startswith("count_") for key in row)
        posteriors = [key for key in row if key.startswith("posterior_")]
        if mirror.kind == "unknown":
            assert posteriors == ["posterior_d1", "posterior_d2", "posterior_absorbed"]
            for outcome in (D1, D2, ABSORBED):
                assert row[f"posterior_{outcome}"] == posterior_springy(0.3, outcome)
        else:
            assert posteriors == []
    with pytest.raises(QentroError, match="photon count must be >= 1, got -1"):
        arrangement_rows(MirrorModel(RIGID), photons=-1, seed=4)
