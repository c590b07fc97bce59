"""File formats: JSON for networks, scenarios, and parameters; CSV for traces.

All parsers are strict: unknown fields, wrong types, and unresolved names are
hard errors, never warnings. Serialized output is canonical (sorted keys,
shortest round-trip floats), so goldens are byte-stable across runs.
"""
from __future__ import annotations

import json
import math
from enum import Enum
from io import StringIO
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import (
    EmptyScenario,
    NonBottomClamp,
    ParseError,
    SchemaMismatch,
    TypeMismatch,
    UnknownElement,
    UnknownField,
)
from .model import ConceptId, ConceptSpec, NetworkSpec, ValidatedNetwork, _bit_bytes, _ids

if TYPE_CHECKING:
    from .engine import EngineParams, Snapshot, Trace


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
_STR = frozenset({str})


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
        concepts.append(ConceptSpec(name, layer, patterns))
    return NetworkSpec(concepts)


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
        """Name-resolved (clamp, hold) pairs ready for the engine."""
        return [
            ({net.name_to_id[name]: v for name, v in ph.clamp.items()}, ph.hold)
            for ph in self.phases
        ]


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
        clamp_raw = raw["clamp"]
        if not isinstance(clamp_raw, dict):
            raise TypeMismatch(f"{path}.clamp: expected an object")
        clamp: dict[str, int] = {}
        for name, value in clamp_raw.items():
            if type(value) is not int or value not in (0, 1):
                raise TypeMismatch(f"{path}.clamp.{name}: expected 0 or 1")
            cid = net.name_to_id.get(name)
            if cid is None:
                raise UnknownElement(f"{path}.clamp: no concept named {name!r}")
            if net.layer_of[cid] != 0:
                raise NonBottomClamp(f"{path}.clamp: {name!r} is not a layer-0 concept")
            clamp[name] = value
        hold_raw = raw["hold"]
        if hold_raw == "converge":
            hold = None
        elif type(hold_raw) is int and hold_raw >= 1:
            hold = hold_raw
        else:
            raise TypeMismatch(f"{path}.hold: expected \"converge\" or a positive integer")
        phases.append(ScenarioPhase(clamp=clamp, hold=hold))
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


# --- traces ---

class UnitKind(Enum):
    CONCEPT = "concept"
    OMISSION = "omission"
    COMMISSION = "commission"


#: each kind's place in trace order, its declaration order above
_KIND_ORDER = {kind: order for order, kind in enumerate(UnitKind)}

CSV_HEADER = ("phase", "sweep", "kind", "name", "value")


class TraceRow(NamedTuple):
    phase: int
    sweep: int
    kind: UnitKind
    name: str
    value: int

    def sort_key(self):
        return (self.phase, self.sweep, _KIND_ORDER[self.kind], self.name)


_HEADER_LINE = ",".join(CSV_HEADER) + "\n"


def _csv_field(text: str) -> str:
    r"""One CSV field: quoted, with quotes doubled, iff it holds , " \n or \r.

    This is csv.writer's minimal quoting, except that csv.writer before
    Python 3.13 leaves \r unquoted under the "\n" line terminator, and
    csv.reader then refuses the line.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trace_csv(trace: Trace) -> str:
    """Render a trace as CSV with the fixed header, in canonical order.

    Loops run phase, sweep, kind, name, with names sorted once: that is
    TraceRow.sort_key's order, since names are unique. Each kind keeps its
    lines without their prefix, "<name field>,<value>\n", in name order, and
    each snapshot replaces only the lines of units whose bit changed since
    the last. A kind's lines start with "", so joining them with the prefix
    puts the prefix before every line, and a kind without units adds nothing.
    """
    net = trace.net
    order = sorted(range(net.n_concepts), key=net.names.__getitem__)
    error_units = [c for c in order if net.layer_of[c] < net.max_layer]
    cells = [(f"{field},0\n", f"{field},1\n") for field in map(_csv_field, net.names)]
    # in UnitKind's order, (kind, its lines, each unit's position in them, the
    # units that have that kind), the lines at first the 0 lines after a ""
    kinds = []
    for kind in UnitKind:
        ids, units = (order, (1 << net.n_concepts) - 1) if kind is UnitKind.CONCEPT else (error_units, net.below_top)
        kinds.append((kind.value, ["", *(cells[c][0] for c in ids)], {c: i for i, c in enumerate(ids, 1)}, units))
    shown = [0] * len(kinds)  # the bits each kind's lines hold now
    out = [_HEADER_LINE]
    for pi, phase in enumerate(trace.phases):
        for si, snap in enumerate(phase.snapshots):
            masks = (snap.active, snap.omitted, snap.committed)  # in UnitKind's order
            for i, (kind, lines, at, units) in enumerate(kinds):
                bits = masks[i] & units
                for c in _ids(bits ^ shown[i]):
                    lines[at[c]] = cells[c][bits >> c & 1]
                shown[i] = bits
                out.append(f"{pi},{si},{kind},".join(lines))
    return "".join(out)


def read_trace_csv(text: str) -> list[TraceRow]:
    """Parse a trace CSV back into canonically sorted rows (lossless round-trip)."""
    import csv  # only render reads a trace back

    reader = csv.reader(StringIO(text))
    try:
        return _read_rows(reader)
    except csv.Error as e:
        raise ParseError(f"line {reader.line_num}: {e}") from None


def _read_rows(reader) -> list[TraceRow]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch("missing header row") from None
    if tuple(header) != CSV_HEADER:
        raise SchemaMismatch(f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
    kinds = {k.value: k for k in UnitKind}
    rows: list[TraceRow] = []
    seen: set[tuple] = set()
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(record)}")
        phase_s, sweep_s, kind_s, name, value_s = record
        try:
            phase, sweep, value = int(phase_s), int(sweep_s), int(value_s)
        except ValueError:
            phase = None
        # int() also takes "+1", " 1", "1_0", "01" and non-ASCII digits; only
        # the form str() writes back is accepted
        if phase is None or (str(phase), str(sweep), str(value)) != (phase_s, sweep_s, value_s):
            raise ParseError(f"line {lineno}: phase, sweep and value must be integers in ASCII digits")
        if phase < 0 or sweep < 0:
            raise SchemaMismatch(f"line {lineno}: negative phase or sweep index")
        if kind_s not in kinds:
            raise SchemaMismatch(f"line {lineno}: unknown kind {kind_s!r}")
        if value not in (0, 1):
            raise SchemaMismatch(f"line {lineno}: value must be 0 or 1")
        if not name:
            raise SchemaMismatch(f"line {lineno}: empty unit name")
        key = (phase, sweep, kind_s, name)
        if key in seen:
            raise SchemaMismatch(f"line {lineno}: duplicate row for {key}")
        seen.add(key)
        rows.append(TraceRow(phase, sweep, kinds[kind_s], name, value))
    rows.sort(key=TraceRow.sort_key)
    return rows


#: the code of a phase separator, above every cell's code: bit 1 << order
#: for each kind of the cell's units that is on
_SEPARATOR = 8
#: bytes.translate table from a cell's code to its character: commission wins
#: over omission, which wins over activity
_CELL_CHARS = b".#ggoooo|".ljust(256, b"?")


def render_ascii_timeline(trace: Union[Trace, Iterable[TraceRow]]) -> str:
    """One row per unit, one column per sweep, phases separated by '|'.

    Characters: '#' concept active, 'o' commission error (the unit is active),
    'g' omission error (the unit is inactive), '.' inactive. The three unit
    kinds of one concept collapse into one row without loss: omission implies
    inactive and commission implies active.

    A Trace draws a row for every concept of its net, and no error bit of a
    top-layer concept, which has no error units. Rows, in any order, draw a
    row for each name they hold and a column for each (phase, sweep) they
    hold: a cell no row gives reads as 0, and of two rows for one cell the
    later one counts. An empty trace raises ValueError.

    Both become the unit names and per phase its columns, one code byte per
    unit. A separator column goes between nonempty phases, and all are joined
    and translated once: a unit's line is then every n-th character.
    """
    names, phases = _trace_columns(trace) if hasattr(trace, "phases") else _row_columns(trace)
    n = len(names)
    columns: list[bytes] = []
    for phase in phases:
        if columns and phase:
            columns.append(bytes([_SEPARATOR]) * n)
        columns += phase
    if not columns or not n:
        raise ValueError("cannot render an empty trace")
    joined = b"".join(columns).translate(_CELL_CHARS).decode("ascii")
    width = max(map(len, names))
    return "\n".join(f"{names[c]:<{width}} " + joined[c::n] for c in sorted(range(n), key=names.__getitem__))


def _trace_columns(trace: Trace) -> tuple[Sequence[str], Iterable[list[bytes]]]:
    """Every concept's name, and per phase a column per snapshot, built at C
    speed: _bit_bytes spreads each kind's mask, the error masks cut to
    net.below_top, to one 0/1 byte per concept, so as little-endian ints
    they combine, shifted by the kind's order, into one code byte each."""
    net = trace.net
    n, below_top = net.n_concepts, net.below_top

    def column(snap: Snapshot) -> bytes:
        code = 0
        # the masks in UnitKind's order
        for order, mask in enumerate((snap.active, snap.omitted & below_top, snap.committed & below_top)):
            code |= int.from_bytes(_bit_bytes(mask, n), "little") << order
        return code.to_bytes(n, "little")

    return net.names, ([column(snap) for snap in phase.snapshots] for phase in trace.phases)


def _row_columns(rows: Iterable[TraceRow]) -> tuple[list[str], list[list[bytearray]]]:
    """The names rows hold, and per phase a column per sweep they hold, each
    row written into its byte of its column."""
    rows = list(rows)
    at = {name: i for i, name in enumerate(dict.fromkeys(r.name for r in rows))}
    phases: dict[int, dict[int, bytearray]] = {}
    for phase, sweep in sorted({(r.phase, r.sweep) for r in rows}):
        phases.setdefault(phase, {})[sweep] = bytearray(len(at))
    for phase, sweep, kind, name, value in rows:
        column, i, bit = phases[phase][sweep], at[name], 1 << _KIND_ORDER[kind]
        column[i] = column[i] | bit if value else column[i] & ~bit
    return list(at), [list(sweeps.values()) for sweeps in phases.values()]
