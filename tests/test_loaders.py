"""parse_network_file and validate_network against the loaders they replaced,
tests/reference.py's parse_network_file_reference and
validate_network_reference, on valid networks: the same NetworkSpec and the
same ValidatedNetwork, field by field, mappings in the same order, and no
cached property computed yet; and valid input takes the bulk checks alone.
Invalid input is compared in test_io.py. On the same networks, the tables a
fresh net builds on first use, pattern_needs, layer_mask and non_bottom,
equal their references.

This module imports neither pytest nor Hypothesis, so it also runs as a plain
script on a Python that lacks them, from the root of a checkout:

    PYTHONPATH=src python tests/test_loaders.py
"""
import sys
from fractions import Fraction

from conceptsim import ConceptSpec, NetworkSpec, io, model, parse_network_file, validate_network
from conceptsim.io import serialize_network
from netgen import benchmark_synth, random_network, shuffled_network
from reference import (
    layer_mask_reference,
    non_bottom_reference,
    parse_network_file_reference,
    pattern_needs_reference,
    validate_network_reference,
)
from specs import AWKWARD_SPEC, DATA_DIR


def valid_networks() -> list[tuple[str, str]]:
    """(name, network JSON text) of every valid network the check covers:
    the shipped ones, AWKWARD_SPEC, netgen 0-49, shuffled 0-19 and the
    benchmark's synthetic nets: 7/5/3 at seeds 0-7 and 1000/300/100 at seeds
    0-3, the compare-synth and run-large instances of those seeds."""
    synth = benchmark_synth()
    nets = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(DATA_DIR.glob("*.json"))]
    nets.append(("awkward", serialize_network(AWKWARD_SPEC)))
    nets += [(f"netgen {seed}", serialize_network(random_network(seed).spec)) for seed in range(50)]
    nets += [(f"shuffled {seed}", serialize_network(shuffled_network(seed).spec)) for seed in range(20)]
    for sizes, seeds in (((7, 5, 3), 8), ((1000, 300, 100), 4)):
        nets += [(f"synth {sizes} {seed}", synth.network_json(sizes, seed)) for seed in range(seeds)]
    return nets


def check_same_load(name: str, text: str) -> None:
    spec = parse_network_file(text)
    reference_spec = parse_network_file_reference(text)
    assert spec == reference_spec, name
    assert [type(p) for c in spec.concepts for p in (c, c.patterns, *c.patterns)] == [
        type(p) for c in reference_spec.concepts for p in (c, c.patterns, *c.patterns)
    ], name
    check_same_network(name, validate_network(spec), validate_network_reference(reference_spec))


def check_same_network(name: str, net, reference) -> None:
    for field in net._fields:
        got, want = getattr(net, field), getattr(reference, field)
        assert got == want, (name, field)
        assert type(got) is type(want), (name, field)
        if isinstance(got, dict):
            assert list(got.items()) == list(want.items()), (name, field)
    # work is built eagerly or lazily as before: no cached property is filled yet
    assert vars(net) == vars(reference) == {}, name


def test_loaders_match_their_references_on_valid_networks():
    nets = valid_networks()
    assert len(nets) == 2 + 1 + 50 + 20 + 8 + 4
    for name, text in nets:
        check_same_load(name, text)


#: taus inside (0, 1] and outside it, where needs are clamped to 0..size
TAUS = (0.5, Fraction(2, 3), 1, -1.0, 1.5)


def shape(value):
    """A value's type, and its items' shapes where it is a tuple or a list."""
    return (type(value), [shape(v) for v in value]) if type(value) in (tuple, list) else type(value)


def check_same_tables(name: str, text: str) -> None:
    """Each table, built first thing on a fresh net, equals its reference in
    value and in type, item by item; pattern_needs remembers each tau's."""
    spec = parse_network_file(text)
    net = validate_network(spec)
    needs = [net.pattern_needs(tau) for tau in TAUS]
    want = [pattern_needs_reference(net, tau) for tau in TAUS]
    assert needs == want and shape(needs) == shape(want), name
    assert all(net.pattern_needs(tau) is got for tau, got in zip(TAUS, needs)), name
    for table, reference in (("layer_mask", layer_mask_reference), ("non_bottom", non_bottom_reference)):
        net = validate_network(spec)
        got = getattr(net, table)
        want = reference(net)
        assert got == want and shape(got) == shape(want), (name, table)


def test_first_use_tables_match_their_references_on_valid_networks():
    for name, text in valid_networks():
        check_same_tables(name, text)


class Name(str):
    """A str subclass, which validate_network's bulk name test cannot classify."""


def test_str_subclass_names_validate_as_the_reference_validates_them():
    a, b, c = map(Name, "abc")
    spec = NetworkSpec([ConceptSpec(a, 0), ConceptSpec(b, 0), ConceptSpec(c, 1, [[a, Name("b")], ["b"]])])
    net = validate_network(spec)
    check_same_network("str subclass", net, validate_network_reference(spec))
    assert [type(n) for n in (*net.names, *net.name_to_id)] == [Name] * 6


def refuse_entry(*args):
    raise AssertionError("a valid network reached the code that names a fault")


def check_bulk_path(nets: list[tuple[str, str]]) -> None:
    """Load nets with refuse_entry in place of the per-value checks that name
    a fault: those accept a valid net too, only slower, so nothing else shows
    a valid net sent down them."""
    saved = model._name_ids, io._require_str
    model._name_ids = io._require_str = refuse_entry
    try:
        for name, text in nets:
            validate_network(parse_network_file(text))
    finally:
        model._name_ids, io._require_str = saved


def test_valid_networks_never_reach_the_per_value_checks():
    check_bulk_path(valid_networks())


if __name__ == "__main__":
    nets = valid_networks()
    for name, text in nets:
        check_same_load(name, text)
        check_same_tables(name, text)
    check_bulk_path(nets)
    print(f"{len(nets)} networks load the same on Python {sys.version.split()[0]}")
