"""File formats: JSON for networks, scenarios, and parameters; trace.py has
the trace CSV, which only `run` and `render` use.

All parsers are strict: unknown fields, wrong types, and unresolved names are
hard errors, never warnings. Serialized output is canonical (sorted keys,
shortest round-trip floats), so goldens are byte-stable across runs.
"""
from __future__ import annotations

import json
import math
from enum import Enum
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import (
    EmptyScenario,
    NonBottomClamp,
    ParseError,
    TypeMismatch,
    UnknownElement,
    UnknownField,
)
from .model import _STR, ConceptId, ConceptSpec, NetworkSpec, ValidatedNetwork

if TYPE_CHECKING:
    from .engine import EngineParams


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} is not valid JSON")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object from its pairs; a key repeated in them raises KeyError,
    which _load_json reports with where it is."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise KeyError
    return obj


def _repeated_key(value, path: str = "$") -> str | None:
    """Where the first repeated key of a JSON value, objects read as tuples of
    pairs, is and which: first as json.loads closes objects, inner ones first,
    so in the object _unique_keys refused."""
    is_object = isinstance(value, tuple)
    for key, item in value if is_object else enumerate(value) if isinstance(value, list) else ():
        if found := _repeated_key(item, f"{path}.{key}" if is_object else f"{path}[{key}]"):
            return found
    keys = [key for key, _ in value] if is_object else []
    repeated = [key for key in keys if keys.count(key) > 1]
    return f"{path}: duplicate key {repeated[0]!r}" if repeated else None


def _load_json(text: str):
    try:
        try:
            return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
        except KeyError:
            # the error path only: parse again, keeping each object's pairs, to name where
            pairs = json.loads(text, object_pairs_hook=tuple, parse_int=str, parse_float=str, parse_constant=str)
            raise ParseError(_repeated_key(pairs)) from None
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:
        # int() refuses more than sys.get_int_max_str_digits() digits
        raise ParseError("an integer has too many digits") from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None


def _require_object(value, path: str, allowed: frozenset[str], required: frozenset[str]):
    if not isinstance(value, dict):
        raise TypeMismatch(f"{path}: expected an object")
    for key in value:
        if key not in allowed:
            raise UnknownField(f"{path}: unknown field {key!r}")
    for key in sorted(required):
        if key not in value:
            raise TypeMismatch(f"{path}: missing field {key!r}")
    return value


def _require_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise TypeMismatch(f"{path}: expected a list")
    return value


def _require_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise TypeMismatch(f"{path}: expected a non-empty string")
    return value


def _require_number(value, path: str) -> float:
    if type(value) not in (int, float):
        raise TypeMismatch(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        # an int beyond the float range reads like 1e999: infinite, so
        # EngineParams.validate refuses it as not finite
        return math.inf if value > 0 else -math.inf


# --- networks ---

_NETWORK_FIELDS = frozenset({"concepts"})
_CONCEPT_FIELDS = frozenset({"name", "layer", "patterns"})


def parse_network_file(text: str) -> NetworkSpec:
    """Parse the network JSON format; validation is a separate step. Each value
    is tested inline, and its path is built only to report a failed test."""
    root = _load_json(text)
    _require_object(root, "$", _NETWORK_FIELDS, _NETWORK_FIELDS)
    concepts: list[ConceptSpec] = []
    for i, raw in enumerate(_require_list(root["concepts"], "$.concepts")):
        if type(raw) is not dict or raw.keys() != _CONCEPT_FIELDS:
            _require_object(raw, f"$.concepts[{i}]", _CONCEPT_FIELDS, _CONCEPT_FIELDS)
        name, layer, patterns = raw["name"], raw["layer"], raw["patterns"]
        if type(name) is not str or not name:
            _require_str(name, f"$.concepts[{i}].name")
        if type(layer) is not int or layer < 0:
            raise TypeMismatch(f"$.concepts[{i}].layer: expected a non-negative integer")
        if type(patterns) is not list or patterns and not all(
            type(pat) is list and _STR.issuperset(map(type, pat)) and "" not in pat for pat in patterns
        ):
            path = f"$.concepts[{i}].patterns"
            for k, pat in enumerate(_require_list(patterns, path)):
                for j, e in enumerate(_require_list(pat, f"{path}[{k}]")):
                    _require_str(e, f"{path}[{k}][{j}]")
        # the values are checked, so the records skip their normalising __new__
        concepts.append(tuple.__new__(ConceptSpec, (name, layer, tuple(map(tuple, patterns)))))
    return tuple.__new__(NetworkSpec, (tuple(concepts),))


def serialize_network(spec: NetworkSpec) -> str:
    """Canonical JSON for a network; element order inside patterns is preserved."""
    concepts = [
        {"name": c.name, "layer": c.layer, "patterns": [list(p) for p in c.patterns]}
        for c in spec.concepts
    ]
    return json.dumps({"concepts": concepts}, sort_keys=True, indent=2) + "\n"


# --- scenarios ---

_SCENARIO_FIELDS = frozenset({"phases"})
_PHASE_FIELDS = frozenset({"clamp", "hold"})


class ScenarioPhase(NamedTuple):
    """One clamp episode; hold is None for run-to-convergence or a sweep count."""

    clamp: Mapping[str, int]
    hold: int | None = None


class ScenarioSpec(NamedTuple):
    phases: tuple[ScenarioPhase, ...]

    def resolve(self, net: ValidatedNetwork) -> list[tuple[dict[ConceptId, int], int | None]]:
        """Name-resolved (clamp, hold) pairs ready for the engine.

        A phase is refused as parse_scenario_file refuses it in a file, with
        the same error and message and in the same order; a hold is None or
        a positive int.
        """
        name_to_id = net.name_to_id
        resolved = []
        for i, (clamp, hold) in enumerate(self.phases):
            _check_phase(net, f"$.phases[{i}]", clamp, hold is None or type(hold) is int and hold >= 1)
            resolved.append(({name_to_id[name]: v for name, v in clamp.items()}, hold))
        return resolved


def _check_phase(net: ValidatedNetwork, path: str, clamp: Mapping[str, int], hold_ok: bool) -> None:
    """Raise a phase's first fault: a clamp that is not a mapping; per clamp
    entry in order, a value that is not the int 0 or 1, a name net lacks,
    then one above layer 0; then the hold, which hold_ok says is valid."""
    if not isinstance(clamp, Mapping):
        raise TypeMismatch(f"{path}.clamp: expected an object")
    for name, value in clamp.items():
        if type(value) is not int or value not in (0, 1):
            raise TypeMismatch(f"{path}.clamp.{name}: expected 0 or 1")
        cid = net.name_to_id.get(name)
        if cid is None:
            raise UnknownElement(f"{path}.clamp: no concept named {name!r}")
        if net.layer_of[cid] != 0:
            raise NonBottomClamp(f"{path}.clamp: {name!r} is not a layer-0 concept")
    if not hold_ok:
        raise TypeMismatch(f"{path}.hold: expected \"converge\" or a positive integer")


def parse_scenario_file(text: str, net: ValidatedNetwork) -> ScenarioSpec:
    """Parse and resolve a scenario against an already-validated network."""
    root = _load_json(text)
    _require_object(root, "$", _SCENARIO_FIELDS, _SCENARIO_FIELDS)
    raw_phases = _require_list(root["phases"], "$.phases")
    if not raw_phases:
        raise EmptyScenario("a scenario needs at least one phase")
    phases: list[ScenarioPhase] = []
    for i, raw in enumerate(raw_phases):
        path = f"$.phases[{i}]"
        _require_object(raw, path, _PHASE_FIELDS, _PHASE_FIELDS)
        clamp_raw, hold = raw["clamp"], raw["hold"]
        _check_phase(net, path, clamp_raw, hold == "converge" or type(hold) is int and hold >= 1)
        phases.append(ScenarioPhase(clamp=clamp_raw, hold=None if hold == "converge" else hold))
    return ScenarioSpec(tuple(phases))


def serialize_scenario(spec: ScenarioSpec) -> str:
    phases = [
        {
            "clamp": {name: ph.clamp[name] for name in sorted(ph.clamp)},
            "hold": "converge" if ph.hold is None else ph.hold,
        }
        for ph in spec.phases
    ]
    return json.dumps({"phases": phases}, sort_keys=True, indent=2) + "\n"


# --- engine parameters ---

def _require_param(value, path: str, kind: type):
    """A params field's value, by the type of its default: a number for a
    float, an int for an int, and an enum member's value for an enum."""
    if issubclass(kind, Enum):
        members = {m.value: m for m in kind}
        if not isinstance(value, str) or value not in members:
            raise TypeMismatch(f"{path}: expected " + " or ".join(map(json.dumps, members)))
        return members[value]
    if kind is int:
        if type(value) is not int:
            raise TypeMismatch(f"{path}: expected an integer")
        return value
    return _require_number(value, path)


def parse_params(text: str | None = None) -> EngineParams:
    """Parse a flat params object; absent fields take the documented defaults.

    Only syntax and field names are checked here, field by field in
    EngineParams' order; the numeric invariants are enforced when an engine
    is initialized.
    """
    from .engine import EngineParams

    if text is None:
        return EngineParams()
    root = _load_json(text)
    kinds = {name: type(default) for name, default in EngineParams._field_defaults.items()}
    _require_object(root, "$", frozenset(kinds), frozenset())
    return EngineParams(**{
        name: _require_param(root[name], f"$.{name}", kind) for name, kind in kinds.items() if name in root
    })


def serialize_params(params: EngineParams) -> str:
    obj = {name: value.value if isinstance(value, Enum) else value for name, value in params._asdict().items()}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


#: the name of trace.py that perfbench reads from io; io resolves it on first
#: use, so importing io loads no trace code
_TRACE_NAMES = {"write_trace_csv"}


def __getattr__(name: str):
    if name not in _TRACE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import trace

    value = globals()[name] = getattr(trace, name)
    return value
