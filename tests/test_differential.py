"""The bitmask fast paths against the slow set-and-Fraction references."""
import random
from fractions import Fraction

import pytest

from conceptsim import (
    ErrorRouting,
    enumerate_interpretations,
    error_flags,
    parse_network_file,
    predictions,
    route_errors,
    validate_network,
)
from conceptsim.errors import UnknownConcept

from netgen import random_network
from reference import enumerate_reference, predictions_reference, route_errors_reference

TAUS = (0.5, 0.3, Fraction(2, 3), 1.0)


def all_clamps(net):
    bottom = net.bottom
    for mask in range(1 << len(bottom)):
        yield frozenset(bottom[i] for i in range(len(bottom)) if mask >> i & 1)


@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
@pytest.mark.parametrize("tau", TAUS)
def test_enumerate_matches_reference_on_every_clamp(data_dir, name, tau):
    net = validate_network(parse_network_file((data_dir / name).read_text()))
    for clamped in all_clamps(net):
        assert enumerate_interpretations(net, clamped, tau) == enumerate_reference(net, clamped, tau)


@pytest.mark.parametrize("seed", range(50))
def test_enumerate_matches_reference_on_seeded_networks(seed):
    net = random_network(seed)
    rng = random.Random(seed)
    for clamped in all_clamps(net):
        tau = rng.choice(TAUS + (0.0, 1.5))
        assert enumerate_interpretations(net, clamped, tau) == enumerate_reference(net, clamped, tau)


def test_enumerate_rejects_unknown_clamped_id(net):
    with pytest.raises(UnknownConcept):
        enumerate_interpretations(net, {99})


@pytest.mark.parametrize("seed", range(50))
def test_engine_stages_match_reference_on_seeded_networks(seed):
    net = random_network(seed)
    rng = random.Random(seed)
    for _ in range(8):
        activation = [int(rng.random() < 0.5) for _ in range(net.n_concepts)]
        tau = rng.choice(TAUS)
        assert predictions(net, activation, tau) == predictions_reference(net, activation, tau)
        omission, commission = error_flags(net, activation, tau)
        for routing in ErrorRouting:
            assert route_errors(net, activation, omission, commission, routing, tau) == (
                route_errors_reference(net, activation, omission, commission, routing, tau)
            )


def test_seeded_clamps_are_not_vacuous():
    """Many seeded clamps admit a non-empty interpretation, so the differential
    test above compares real evidence, not only empty result lists."""
    nonempty = sum(
        any(r.interpretation for r in enumerate_interpretations(net, clamped))
        for net in map(random_network, range(50))
        for clamped in all_clamps(net)
    )
    assert nonempty >= 50  # 66 of the 484 clamps at the time of writing
