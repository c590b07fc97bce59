"""parse_network_file and validate_network against the loaders they replaced,
tests/reference.py's parse_network_file_reference and
validate_network_reference, on valid networks: the same NetworkSpec and the
same ValidatedNetwork, field by field, mappings in the same order, and no
cached property computed yet. Invalid input is compared in test_io.py.

This module imports neither pytest nor Hypothesis, so it also runs as a plain
script on a Python that lacks them, from the root of a checkout:

    PYTHONPATH=src python tests/test_loaders.py
"""
import importlib.util
import sys
from pathlib import Path

from conceptsim import parse_network_file, validate_network
from conceptsim.io import serialize_network
from netgen import random_network, shuffled_network
from reference import parse_network_file_reference, validate_network_reference
from specs import AWKWARD_SPEC, DATA_DIR

SYNTH = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"


def valid_networks() -> list[tuple[str, str]]:
    """(name, network JSON text) of every valid network the check covers:
    the shipped ones, AWKWARD_SPEC, netgen 0-49, shuffled 0-19 and the
    benchmark's synthetic 7/5/3 and 1000/300/100 nets at seed 0."""
    loader = importlib.util.spec_from_file_location("perfbench_synth", SYNTH)
    synth = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(synth)
    nets = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(DATA_DIR.glob("*.json"))]
    nets.append(("awkward", serialize_network(AWKWARD_SPEC)))
    nets += [(f"netgen {seed}", serialize_network(random_network(seed).spec)) for seed in range(50)]
    nets += [(f"shuffled {seed}", serialize_network(shuffled_network(seed).spec)) for seed in range(20)]
    nets += [(f"synth {sizes}", synth.network_json(sizes, 0)) for sizes in ((7, 5, 3), (1000, 300, 100))]
    return nets


def check_same_load(name: str, text: str) -> None:
    spec = parse_network_file(text)
    reference_spec = parse_network_file_reference(text)
    assert spec == reference_spec, name
    assert [type(p) for c in spec.concepts for p in (c, c.patterns, *c.patterns)] == [
        type(p) for c in reference_spec.concepts for p in (c, c.patterns, *c.patterns)
    ], name
    net, reference = validate_network(spec), validate_network_reference(reference_spec)
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
    assert len(nets) == 2 + 1 + 50 + 20 + 2
    for name, text in nets:
        check_same_load(name, text)


if __name__ == "__main__":
    nets = valid_networks()
    for name, text in nets:
        check_same_load(name, text)
    print(f"{len(nets)} networks load the same on Python {sys.version.split()[0]}")
