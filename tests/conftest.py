from pathlib import Path

import pytest

from conceptsim import EngineParams, validate_network
from specs import AWKWARD_SPEC, CANONICAL_SPEC, DATA_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: theta < 0 and a negative self-input: some clamps of netgen 3 and
#: shuffled 0 never settle, and their planes recur well before max_sweeps
CYCLING_PARAMS = EngineParams(w_ff=0.2, w_self=-0.2, w_lat=0.2, w_err=0.5, theta=-0.4, tau=0.2)


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
