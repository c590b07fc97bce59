from pathlib import Path

import pytest

from conceptsim import ConceptSpec, EngineParams, NetworkSpec, validate_network

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CANONICAL_SPEC = NetworkSpec(concepts=(
    ConceptSpec("looking", 0),
    ConceptSpec("tasting", 0),
    ConceptSpec("white", 0),
    ConceptSpec("salty", 0),
    ConceptSpec("sweet", 0),
    ConceptSpec("salt", 1, (("tasting", "salty"), ("looking", "white"))),
    ConceptSpec("sugar", 1, (("tasting", "sweet"), ("looking", "white"))),
))

#: two maximal interpretations that cannot merge on the clamp {a, b}: with Z
#: inferred alongside Q1, Q1's pattern {Y, Z} is applicable but incomplete
AMBIGUOUS_SPEC = NetworkSpec((
    ConceptSpec("a", 0), ConceptSpec("b", 0), ConceptSpec("c", 0), ConceptSpec("d", 0),
    ConceptSpec("X", 1, (("a", "b"),)),
    ConceptSpec("Y", 1, (("c", "d"),)),
    ConceptSpec("Z", 1, (("a", "b"),)),
    ConceptSpec("Q1", 2, (("X",), ("Y", "Z"))),
    ConceptSpec("Q2", 2, (("Z",),)),
))

#: theta < 0 and a negative self-input: some clamps of netgen 3 and
#: shuffled 0 never settle, and their planes recur well before max_sweeps
CYCLING_PARAMS = EngineParams(w_ff=0.2, w_self=-0.2, w_lat=0.2, w_err=0.5, theta=-0.4, tau=0.2)

#: names holding everything CSV quoting has to get right: , " \n \r \r\n, a
#: leading space and non-ASCII letters
AWKWARD_SPEC = NetworkSpec(concepts=(
    ConceptSpec("a,b", 0),
    ConceptSpec('say "hi"', 0),
    ConceptSpec("line\nbreak", 0),
    ConceptSpec("car\rriage", 0),
    ConceptSpec(" lead", 0),
    ConceptSpec("crème", 0),
    ConceptSpec("x\r\ny", 1, (("a,b", 'say "hi"'), ("car\rriage", " lead"))),
    ConceptSpec("ünder", 1, (("line\nbreak", "crème"), ("a,b", " lead"))),
    ConceptSpec("\rtop", 2, (("x\r\ny", "ünder"),)),
))


@pytest.fixture(scope="session")
def canonical_spec():
    return CANONICAL_SPEC


@pytest.fixture(scope="session")
def net():
    return validate_network(CANONICAL_SPEC)


@pytest.fixture(scope="session")
def ids(net):
    return dict(net.name_to_id)


@pytest.fixture(scope="session")
def awkward_spec():
    return AWKWARD_SPEC


@pytest.fixture(scope="session")
def awkward_net():
    return validate_network(AWKWARD_SPEC)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR
