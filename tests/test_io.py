"""Strict parsers, canonical serializers, trace CSV, ASCII rendering."""
import copy
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conceptsim import io
from conceptsim import (
    ConceptSpec,
    EngineParams,
    ErrorRouting,
    NetworkSpec,
    PhaseTrace,
    ScenarioPhase,
    ScenarioSpec,
    Snapshot,
    Termination,
    Trace,
    TraceRow,
    UnitKind,
    parse_network_file,
    parse_params,
    parse_scenario_file,
    read_trace_csv,
    render_ascii_timeline,
    run_scenario,
    serialize_network,
    serialize_params,
    serialize_scenario,
    validate_network,
    write_trace_csv,
)
from conceptsim.errors import (
    ConceptNetError,
    EmptyScenario,
    NonBottomClamp,
    ParseError,
    SchemaMismatch,
    TypeMismatch,
    UnknownConcept,
    UnknownElement,
    UnknownField,
    ValidationError,
)

from netgen import random_network, shuffled_network, synth_network
from reference import parse_network_file_reference, trace_rows, validate_network_reference, write_rows_csv
from specs import AWKWARD_SPEC, DATA_DIR


# --- network files ---

def test_parse_canonical_file(data_dir):
    spec = parse_network_file((data_dir / "salt.json").read_text())
    assert len(spec.concepts) == 7
    assert sum(len(c.patterns) for c in spec.concepts) == 4
    net = validate_network(spec)
    assert len(net.layers) == 2


def test_network_round_trip(data_dir):
    text = (data_dir / "salt.json").read_text()
    spec = parse_network_file(text)
    assert serialize_network(spec) == text
    assert parse_network_file(serialize_network(spec)) == spec


def test_empty_file_is_a_syntax_error():
    with pytest.raises(ParseError, match="line 1"):
        parse_network_file("")


def test_bad_json_reports_location():
    with pytest.raises(ParseError, match=r"line 2, column"):
        parse_network_file('{"concepts":\n [}')


def test_integer_pattern_element_is_type_mismatch():
    text = json.dumps(
        {"concepts": [
            {"name": "a", "layer": 0, "patterns": []},
            {"name": "b", "layer": 1, "patterns": [["a", 3]]},
        ]}
    )
    with pytest.raises(TypeMismatch, match=r"patterns\[0\]\[1\]"):
        parse_network_file(text)


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"concept": []}, UnknownField),
        ({"concepts": [{"name": "a", "layer": 0, "patterns": [], "extra": 1}]}, UnknownField),
        ({"concepts": [{"name": "a", "layer": 0}]}, TypeMismatch),  # missing patterns
        ({"concepts": [{"name": "", "layer": 0, "patterns": []}]}, TypeMismatch),
        ({"concepts": [{"name": "a", "layer": True, "patterns": []}]}, TypeMismatch),
        ({"concepts": [{"name": "a", "layer": -1, "patterns": []}]}, TypeMismatch),
        ({"concepts": {}}, TypeMismatch),
        ([], TypeMismatch),
    ],
)
def test_network_strictness(payload, error):
    with pytest.raises(error):
        parse_network_file(json.dumps(payload))


@pytest.mark.parametrize("patterns, message", [
    (["ab"], "$.concepts[2].patterns[0]: expected a list"),
    ("a", "$.concepts[2].patterns: expected a list"),
])
def test_a_string_pattern_in_a_file_is_a_type_mismatch(patterns, message):
    concepts = [{"name": "a", "layer": 0, "patterns": []}, {"name": "b", "layer": 0, "patterns": []}]
    text = json.dumps({"concepts": [*concepts, {"name": "c", "layer": 1, "patterns": patterns}]})
    with pytest.raises(TypeMismatch) as refused:
        parse_network_file(text)
    assert str(refused.value) == message


#: valid networks to put faults into: the shipped ones, AWKWARD_SPEC and
#: small seeded ones
FAULT_BASES = (
    *((DATA_DIR / name).read_text(encoding="utf-8") for name in ("salt.json", "caramel.json")),
    serialize_network(AWKWARD_SPEC),
    *(serialize_network(random_network(seed).spec) for seed in range(8)),
    *(serialize_network(shuffled_network(seed).spec) for seed in range(4)),
)

#: per fault, the values it puts in place of a field, a name, a layer or an
#: element, as JSON can hold them; None marks a fault that moves values
JSON_FAULTS = {
    "drop field": None,
    "add field": None,
    "retype field": (None, True, 0, 1.5, "", "x", [], [[]], {}),
    "retype concepts": (None, 0, "x", {}, [0], [[]]),
    "retype pattern": (None, 0, "", "x", {}, {"name": "a"}),
    "empty name": ("",),
    "non-string name": (None, 7, True, [], {}),
    "NUL name": ("a\0b", "\0"),
    "repeated name": None,
    "bool layer": (True, False),
    "negative layer": (-1, -7),
    "float layer": (1.0, 0.5, 0.0),
    "other layer": (0, 1, 2, 3),
    "empty element": ("",),
    "non-string element": (None, True, 0, 1.5, [], ["x"], {}),
    "dangling element": ("no such concept", "x"),
    "other element": None,
    "duplicate element": None,
    "empty pattern": None,
    "duplicate pattern": None,
    "new pattern": None,
    "no patterns": None,
    "repeated key": None,
}

#: the faults of a file's shape, which a NetworkSpec built in code cannot hold
SHAPE_FAULTS = ("drop field", "add field", "retype field", "retype concepts", "retype pattern", "repeated key")

#: the faults a NetworkSpec built in code can hold, with values JSON cannot:
#: a tuple element or a bool where a str belongs. Left out, since they change
#: on purpose (test_model.py pins both): a pattern given as a string, which
#: the reference split into characters, and an unhashable element, which
#: crashed it.
SPEC_FAULTS = {
    **{fault: values for fault, values in JSON_FAULTS.items() if fault not in SHAPE_FAULTS},
    "non-string name": (None, 7, True, ("a",)),
    "non-string element": (None, True, 0, 1.5, ("a",), ("a", "b")),
}


def _put_fault(data, obj: dict, fault: str, values) -> None:
    """Put a fault into a drawn place of a network's JSON object, in place;
    a fault that finds no place of the shape it needs does nothing. Drawn
    values are copies: a second fault may edit a list or dict in place, and
    the values come from the shared fault tables."""

    def draw_value(choices):
        return copy.deepcopy(data.draw(st.sampled_from(choices)))

    concepts = obj.get("concepts") if isinstance(obj, dict) else None
    if not isinstance(concepts, list) or not concepts:
        return
    if fault == "retype concepts":
        obj[data.draw(st.sampled_from(["concepts", "extra"]))] = draw_value(values)
        return
    concept = data.draw(st.sampled_from(concepts), label="concept")
    if not isinstance(concept, dict):
        return
    names = [c["name"] for c in concepts if isinstance(c, dict) and "name" in c]
    patterns = concept.get("patterns")
    pattern = data.draw(st.sampled_from(patterns)) if isinstance(patterns, list) and patterns else None
    fields = ["name", "layer", "patterns"]
    if fault == "drop field":
        concept.pop(data.draw(st.sampled_from(fields)), None)
    elif fault == "add field":
        concept["extra"] = 1
    elif fault == "retype field":
        concept[data.draw(st.sampled_from(fields))] = draw_value(values)
    elif fault == "repeated name":
        concept["name"] = data.draw(st.sampled_from(names))
    elif fault.endswith("name"):
        concept["name"] = draw_value(values)
    elif fault.endswith("layer"):
        concept["layer"] = draw_value(values)
    elif fault == "no patterns":
        concept["patterns"] = []
    elif fault == "new pattern" and isinstance(patterns, list):
        patterns.append(data.draw(st.lists(st.sampled_from(names), max_size=3)))
    elif not isinstance(pattern, list):
        return  # the faults below change a pattern
    elif fault == "retype pattern":
        patterns[patterns.index(pattern)] = draw_value(values)
    elif fault == "duplicate pattern":
        patterns.append(list(pattern))
    elif fault == "empty pattern":
        patterns.insert(patterns.index(pattern), [])
    elif not pattern:
        return  # the faults below change an element
    elif fault == "duplicate element":
        pattern.append(data.draw(st.sampled_from(pattern)))
    else:
        # an element, or another concept's name, which may be on the wrong layer
        element = draw_value(values or names)
        pattern[data.draw(st.integers(0, len(pattern) - 1))] = element


class _Draws:
    """Stands in for st.data() with fixed draws: from sampled_from, the first
    of its choices that equals one of prefer, else its first choice; from any
    other strategy (lists, integers), 0."""

    def __init__(self, *prefer):
        self.prefer = prefer

    def draw(self, strategy, label=None):
        choices = getattr(strategy, "elements", (0,))
        preferred = (c for c in choices if any(type(c) is type(p) and c == p for p in self.prefer))
        return next(preferred, choices[0])


def test_faults_leave_the_fault_table_as_it_was():
    """Each mutable value of JSON_FAULTS, put in place by its fault (as a
    concept's patterns, where the fault sets a field), then each fault that
    _put_fault makes, which may edit that value in place: the table stays
    as it was, so no later example draws an edited value."""
    before = copy.deepcopy(JSON_FAULTS)
    for fault, values in JSON_FAULTS.items():
        for value in (v for v in values or () if isinstance(v, (list, dict))):
            for second in JSON_FAULTS.keys() - {"repeated key"}:
                obj = {"concepts": [{"name": "a", "layer": 0, "patterns": []}, {"name": "b", "layer": 1, "patterns": [["a"]]}]}
                _put_fault(_Draws("patterns", value), obj, fault, values)
                _put_fault(_Draws(), obj, second, JSON_FAULTS[second])
    assert JSON_FAULTS == before


def _outcome(load):
    """What load() gives: its error's type and message, or its result."""
    try:
        return load()
    except ConceptNetError as error:
        return type(error), str(error)


@pytest.mark.parametrize("fault", JSON_FAULTS)
@settings(deadline=None, max_examples=30)
@given(base=st.sampled_from(FAULT_BASES), data=st.data())
def test_network_loaders_refuse_faults_as_their_references_do(fault, base, data):
    """A fault of each kind the checks cover, with at times a second one of
    any kind, gets the same error type and message from parse_network_file
    then validate_network as from the loaders they replaced, or they load
    equal networks."""
    obj = json.loads(base)
    second = data.draw(st.sampled_from([None, *JSON_FAULTS]), label="second fault")
    for kind in (fault, second) if second else (fault,):
        if kind != "repeated key":
            _put_fault(data, obj, kind, JSON_FAULTS[kind])
    text = json.dumps(obj)
    keys = [m.start() for m in re.finditer(r'"(name|layer|patterns)": ', text)]
    if "repeated key" in (fault, second) and keys:
        at = data.draw(st.sampled_from(keys))
        text = text[:at] + '"layer": 0, ' + text[at:]
    got = _outcome(lambda: (spec := parse_network_file(text), validate_network(spec)))
    want = _outcome(lambda: (spec := parse_network_file_reference(text), validate_network_reference(spec)))
    assert got == want


@pytest.mark.parametrize("fault", SPEC_FAULTS)
@settings(deadline=None, max_examples=30)
@given(base=st.sampled_from(FAULT_BASES), data=st.data())
def test_validate_network_refuses_faults_as_its_reference_does(fault, base, data):
    """In a NetworkSpec built in code, a fault of each kind, with at times a
    second one, gets the same error type and message from validate_network
    as from the reference, or both validate it to equal networks."""
    obj = json.loads(base)
    second = data.draw(st.sampled_from([None, *SPEC_FAULTS]), label="second fault")
    for kind in (fault, second) if second else (fault,):
        _put_fault(data, obj, kind, SPEC_FAULTS[kind])
    spec = NetworkSpec(ConceptSpec(c["name"], c["layer"], c["patterns"]) for c in obj["concepts"])
    assert _outcome(lambda: validate_network(spec)) == _outcome(lambda: validate_network_reference(spec))


# --- scenario files ---

def test_parse_scenario_file(net, data_dir):
    spec = parse_scenario_file((data_dir / "scenarios" / "salt_rejection.json").read_text(), net)
    assert len(spec.phases) == 2
    assert len(spec.phases[1].clamp) == 3
    resolved = spec.resolve(net)
    assert resolved[0] == ({net.id_of("looking"): 1, net.id_of("white"): 1}, None)


def test_scenario_round_trip(net, data_dir):
    for name in ("salt_rejection", "decoupling", "unexpected_sweet"):
        text = (data_dir / "scenarios" / f"{name}.json").read_text()
        spec = parse_scenario_file(text, net)
        assert serialize_scenario(spec) == text
        assert parse_scenario_file(serialize_scenario(spec), net) == spec


def test_scenario_fixed_hold_round_trips(net):
    spec = ScenarioSpec((ScenarioPhase({"looking": 1}, 7),))
    assert parse_scenario_file(serialize_scenario(spec), net) == spec


def test_scenario_errors(net):
    with pytest.raises(NonBottomClamp):
        parse_scenario_file('{"phases":[{"clamp":{"salt":1},"hold":"converge"}]}', net)
    with pytest.raises(UnknownElement):
        parse_scenario_file('{"phases":[{"clamp":{"umami":1},"hold":"converge"}]}', net)
    with pytest.raises(EmptyScenario):
        parse_scenario_file('{"phases":[]}', net)
    with pytest.raises(TypeMismatch):
        parse_scenario_file('{"phases":[{"clamp":{"looking":2},"hold":"converge"}]}', net)
    with pytest.raises(TypeMismatch):
        parse_scenario_file('{"phases":[{"clamp":{},"hold":0}]}', net)
    with pytest.raises(UnknownField):
        parse_scenario_file('{"phases":[{"clamp":{},"hold":1,"note":"x"}]}', net)


# --- params files ---

def test_absent_params_file_gives_defaults():
    assert parse_params(None) == EngineParams()


def test_params_override_single_field():
    params = parse_params('{"w_lat": 0.9}')
    assert params == EngineParams(w_lat=0.9)


def test_params_typo_is_unknown_field():
    with pytest.raises(UnknownField, match="w_latt"):
        parse_params('{"w_latt": 0.9}')


def test_params_error_routing_values():
    assert parse_params('{"error_routing": "all_global"}').error_routing is ErrorRouting.ALL_GLOBAL
    with pytest.raises(TypeMismatch) as refused:
        parse_params('{"error_routing": "everywhere"}')
    assert all(json.dumps(routing.value) in str(refused.value) for routing in ErrorRouting)
    assert str(refused.value) == '$.error_routing: expected "split" or "all_global"'
    with pytest.raises(TypeMismatch):
        parse_params('{"max_sweeps": 2.5}')


def test_shipped_defaults_file_is_the_serialized_defaults(data_dir):
    assert (data_dir / "params" / "defaults.json").read_bytes() == serialize_params(EngineParams()).encode()


@pytest.mark.parametrize("text", [
    '{"w_ff": Infinity}', '{"w_lat": NaN}', '{"theta": -Infinity}',
])
def test_params_reject_non_finite_literals(text):
    with pytest.raises(ParseError, match="non-finite"):
        parse_params(text)


def test_params_number_message_names_the_field():
    with pytest.raises(TypeMismatch, match=r"^\$\.w_ff: expected a number$"):
        parse_params('{"w_ff": "1"}')


@pytest.mark.parametrize("text, message", [
    ('{"concepts": [{"name": "a", "layer": ' + "1" * 5000 + ', "patterns": []}]}', "too many digits"),
    ('{"concepts": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
], ids=["long_int", "deep_nesting"])
def test_json_beyond_the_parser_limits_is_a_parse_error(text, message):
    with pytest.raises(ParseError, match=message):
        parse_network_file(text)


def test_every_format_rejects_non_finite_literals(net):
    with pytest.raises(ParseError, match="non-finite"):
        parse_network_file('{"concepts": [{"name": "a", "layer": NaN, "patterns": []}]}')
    with pytest.raises(ParseError, match="non-finite"):
        parse_scenario_file('{"phases": [{"clamp": {"looking": Infinity}, "hold": 1}]}', net)


#: per format, a file whose one fault is a repeated key, and the error
REPEATED_KEYS = {
    "network": (
        '{"concepts": [{"name": "a", "layer": 0, "layer": 1, "patterns": []}]}',
        "$.concepts[0]: duplicate key 'layer'",
    ),
    "scenario": (
        '{"phases": [{"clamp": {"looking": 1, "looking": 0}, "hold": "converge"}]}',
        "$.phases[0].clamp: duplicate key 'looking'",
    ),
    "params": ('{"w_err": 1.2, "w_err": -5}', "$: duplicate key 'w_err'"),
}


@pytest.mark.parametrize("fmt", REPEATED_KEYS)
def test_a_repeated_key_is_a_parse_error_in_every_format(net, fmt):
    """A later value for a key never silently replaces an earlier one, and
    the error names where the key repeats."""
    text, message = REPEATED_KEYS[fmt]
    parse = {"network": parse_network_file, "scenario": lambda t: parse_scenario_file(t, net), "params": parse_params}
    with pytest.raises(ParseError) as refused:
        parse[fmt](text)
    assert str(refused.value) == message


@pytest.mark.parametrize("text, message", [
    (
        '{"phases": [{"clamp": {"looking": 1}, "hold": 1}, {"clamp": {"looking": 1, "looking": 0}, "hold": 1}]}',
        "$.phases[1].clamp: duplicate key 'looking'",
    ),
    # the object json closes first, an inner one before the one holding it
    ('{"a": 1, "a": {"b": [1, {"c": 2, "d": 3, "d": 4, "c": 5}]}}', "$.a.b[1]: duplicate key 'c'"),
    ('{"x": {"y": 1}, "z": {"y": 1, "y": 2}, "x": 0}', "$.z: duplicate key 'y'"),
    # what the first parse never reached: a NaN and an int too long for int()
    ('{"a": {"b": 1, "b": 2}, "c": NaN, "d": ' + "9" * 5000 + "}", "$.a: duplicate key 'b'"),
], ids=["later phase", "nested", "first closed", "values after it"])
def test_a_repeated_key_names_its_path(text, message):
    with pytest.raises(ParseError) as refused:
        io._load_json(text)
    assert str(refused.value) == message


def test_json_objects_keep_their_key_order():
    obj = io._load_json('{"b": 1, "a": {"d": 2, "c": 3}, "c": []}')
    assert list(obj) == ["b", "a", "c"] and list(obj["a"]) == ["d", "c"]


def test_params_round_trip():
    params = EngineParams(w_lat=0.25, max_sweeps=7, error_routing=ErrorRouting.ALL_GLOBAL)
    assert parse_params(serialize_params(params)) == params
    # every field away from its default, so that both read every field
    params = EngineParams(1.5, 0.25, 0.0, 2.5, -0.25, 0.75, 9, ErrorRouting.ALL_GLOBAL)
    assert all(getattr(params, name) != EngineParams._field_defaults[name] for name in EngineParams._fields)
    assert parse_params(serialize_params(params)) == params
    # defaults stay byte-stable and floats keep one decimal minimum
    text = serialize_params(EngineParams())
    assert '"w_ff": 1.0' in text
    assert serialize_params(parse_params(text)) == text


# --- trace CSV ---

def quiescent_trace(net):
    return run_scenario(net, EngineParams(), [({}, None)])


def test_trace_csv_header_and_sorted_zero_rows(net):
    text = write_trace_csv(quiescent_trace(net))
    lines = text.strip().split("\n")
    assert lines[0] == "phase,sweep,kind,name,value"
    # 7 concept rows + (5 bottom) * 2 error kinds, all zero, canonical order
    assert len(lines) == 1 + 7 + 10
    assert lines[1] == "0,0,concept,looking,0"
    assert all(line.endswith(",0") for line in lines[1:])
    kinds = [line.split(",")[2] for line in lines[1:]]
    assert kinds == ["concept"] * 7 + ["omission"] * 5 + ["commission"] * 5


def test_trace_csv_round_trip_bit_exact(net, ids):
    trace = run_scenario(net, EngineParams(), [
        ({ids["looking"]: 1, ids["white"]: 1}, None),
        ({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1}, None),
    ])
    text = write_trace_csv(trace)
    rows = read_trace_csv(text)
    assert rows == trace_rows(trace)
    assert write_rows_csv(rows) == text


def test_shuffled_csv_resorts_canonically(net, ids):
    trace = run_scenario(net, EngineParams(), [({ids["tasting"]: 1, ids["salty"]: 1}, None)])
    text = write_trace_csv(trace)
    header, *body = text.strip().split("\n")
    shuffled = "\n".join([header] + body[::-1]) + "\n"
    assert write_rows_csv(read_trace_csv(shuffled)) == text


@pytest.mark.parametrize(
    "text, error",
    [
        ("", SchemaMismatch),
        ("phase,sweep,kind,name\n", SchemaMismatch),
        ("phase,sweep,kind,name,value\n0,0,concept,,0\n", SchemaMismatch),
        ("phase,sweep,kind,name,value\n0,0,blue,salt,1\n", SchemaMismatch),
        ("phase,sweep,kind,name,value\n0,0,concept,salt,2\n", SchemaMismatch),
        ("phase,sweep,kind,name,value\n-1,0,concept,salt,1\n", SchemaMismatch),
        ("phase,sweep,kind,name,value\n0,0,concept,salt,1\n0,0,concept,salt,0\n", SchemaMismatch),
        ("phase,sweep,kind,name,value\nx,0,concept,salt,1\n", ParseError),
        ("phase,sweep,kind,name,value\n0,0,concept,salt\n", ParseError),
    ],
)
def test_trace_csv_rejects_bad_input(text, error):
    with pytest.raises(error):
        read_trace_csv(text)


@pytest.mark.parametrize("line", [
    # anything but plain ASCII digits, though int() takes most of these
    *(f"{p},0,concept,salt,1" for p in ("+1", " 1", "1 ", "1_0", "\u0663", "01", "-0", "")),
    *(f"0,{s},concept,salt,1" for s in ("+0", "0_0", "\uff11", "00")),
    *(f"0,0,concept,salt,{v}" for v in ("+1", " 1", "01", "1_", "\u0661", "-0", "")),
])
def test_trace_csv_refuses_non_canonical_integers(line):
    with pytest.raises(ParseError, match="^line 2: "):
        read_trace_csv(f"phase,sweep,kind,name,value\n{line}\n")


def test_trace_csv_quotes_and_round_trips_awkward_names(awkward_net):
    net = awkward_net
    trace = run_scenario(net, EngineParams(), [({e: 1 for e in net.bottom}, None), ({}, 2)])
    text = write_trace_csv(trace)
    for field in ('"a,b"', '"say ""hi"""', '"line\nbreak"', '"car\rriage"', '"x\r\ny"', '"\rtop"'):
        assert f"0,0,concept,{field}," in text
    assert "0,0,concept, lead,1\n" in text and "0,0,concept,crème,1\n" in text
    assert read_trace_csv(text) == trace_rows(trace)


def test_unquoted_carriage_return_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2"):
        read_trace_csv("phase,sweep,kind,name,value\n0,0,concept,a\rb,1\n")


def test_trace_writer_reads_snapshots_not_rows(monkeypatch, data_dir, golden_dir):
    """write_trace_csv(trace) builds no TraceRows."""
    net = validate_network(parse_network_file((data_dir / "salt.json").read_text()))
    scenario = (data_dir / "scenarios" / "salt_rejection.json").read_text()
    trace = run_scenario(net, EngineParams(), parse_scenario_file(scenario, net).resolve(net))

    def refuse(*args, **kwargs):
        raise AssertionError("write_trace_csv(trace) fell back to TraceRows")

    monkeypatch.setattr("conceptsim.trace.TraceRow", refuse)
    assert write_trace_csv(trace) == (golden_dir / "salt_rejection_trace.csv").read_text()


def test_error_rows_only_below_the_top_layer(net):
    rows = trace_rows(quiescent_trace(net))
    error_names = {r.name for r in rows if r.kind is not UnitKind.CONCEPT}
    assert error_names == {"looking", "tasting", "white", "salty", "sweet"}


# --- trace CSV on hand-built traces: snapshots against rows ---

def hand_built(net, *phases):
    """A Trace whose phases hold the given (active, omitted, committed) masks."""
    n = net.n_concepts
    return Trace(net, tuple(
        PhaseTrace({}, tuple(Snapshot(a, o, c, 0, n) for a, o, c in snaps), Termination.SWEEP_LIMIT)
        for snaps in phases
    ))


def assert_csv_from_snapshots_equals_rows(trace):
    text = write_trace_csv(trace)
    assert text == write_rows_csv(trace_rows(trace))
    return text


def test_trace_csv_flips_a_unit_across_a_phase_boundary(net, ids):
    on = 1 << ids["salt"]
    trace = hand_built(net, [(0, 0, 0), (on, 0, 0)], [(0, 0, 0)], [(on, 0, 0)])
    text = assert_csv_from_snapshots_equals_rows(trace)
    assert "0,1,concept,salt,1\n" in text and "1,0,concept,salt,0\n" in text
    assert "2,0,concept,salt,1\n" in text


def test_trace_csv_ignores_error_bits_of_top_layer_units(net, ids):
    everything = (1 << net.n_concepts) - 1
    text = assert_csv_from_snapshots_equals_rows(hand_built(net, [(0, everything, everything)]))
    assert ",omission,salt," not in text and ",commission,sugar," not in text
    assert "0,0,omission,looking,1\n" in text and "0,0,commission,sweet,1\n" in text


def test_trace_csv_of_a_net_without_error_units():
    one_layer = validate_network(NetworkSpec((ConceptSpec("b", 0), ConceptSpec("a", 0))))
    text = assert_csv_from_snapshots_equals_rows(hand_built(one_layer, [(0b01, 0b11, 0b11), (0b10, 0b11, 0)]))
    assert text == (
        "phase,sweep,kind,name,value\n"
        "0,0,concept,a,0\n0,0,concept,b,1\n"
        "0,1,concept,a,1\n0,1,concept,b,0\n"
    )


@pytest.mark.parametrize("net_fixture", ["net", "awkward_net"])
@pytest.mark.parametrize("seed", range(10))
def test_trace_csv_of_arbitrary_masks(request, net_fixture, seed):
    """Random masks in every kind, top-layer error bits included, over phases
    of 0-4 sweeps, on the canonical net and on names such as crème and ünder."""
    net = request.getfixturevalue(net_fixture)
    rng = random.Random(seed)
    n = net.n_concepts
    phases = [
        [tuple(rng.getrandbits(n) for _ in range(3)) for _ in range(rng.randint(0, 4))]
        for _ in range(rng.randint(1, 4))
    ]
    trace = hand_built(net, *phases)
    assert read_trace_csv(assert_csv_from_snapshots_equals_rows(trace)) == trace_rows(trace)


def test_trace_csv_peak_memory_stays_near_the_text_size():
    """Writing holds the text and about one more copy of it at its peak, so
    a writer that builds the whole output as bytes and decodes it (about 3x
    the text) fails."""
    net = synth_network((200, 60, 20), seed=1)
    rng = random.Random(1)

    def half():
        return {e: 1 for e in rng.sample(net.bottom, len(net.bottom) // 2)}

    trace = run_scenario(net, EngineParams(), [(half(), None), (half(), 40), ({}, None)])
    tracemalloc.start()
    try:
        text = write_trace_csv(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 1_000_000
    assert peak < 2.5 * len(text)


# --- ASCII rendering ---

def test_render_quiescent_grid(net):
    art = render_ascii_timeline(quiescent_trace(net))
    lines = art.split("\n")
    assert len(lines) == 7
    assert all(line.endswith(" .") for line in lines)


def test_render_salt_rejection(net, ids):
    trace = run_scenario(net, EngineParams(), [
        ({ids["looking"]: 1, ids["white"]: 1}, None),
        ({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1}, None),
    ])
    art = render_ascii_timeline(trace)
    by_name = {line.split()[0]: line.split()[-1] for line in art.split("\n")}
    assert by_name["salt"] == "##|#..."      # active, then rejected after the boundary
    assert by_name["salty"] == "..|g..."     # omission at the violation sweep
    assert by_name["looking"] == "##|##oo"   # commission once nothing explains it
    assert by_name["sugar"] == "..|.#.."


def test_render_single_unit_single_sweep():
    net = validate_network(
        parse_network_file('{"concepts":[{"name":"ping","layer":0,"patterns":[]}]}')
    )
    trace = run_scenario(net, EngineParams(), [({net.id_of("ping"): 1}, 1)])
    assert render_ascii_timeline(trace) == "ping #"


def test_render_round_trips_through_csv(net, ids):
    trace = run_scenario(net, EngineParams(), [({ids["looking"]: 1, ids["white"]: 1}, None)])
    assert render_ascii_timeline(read_trace_csv(write_trace_csv(trace))) == render_ascii_timeline(trace)


def test_render_draws_no_error_bit_of_a_top_layer_concept(net, ids):
    """salt and sugar, the top layer, have no error units: the omission and
    commission bits a hand-built trace gives them are not drawn, as their
    CSV, which has no rows for them, does not draw them."""
    everything, top = (1 << net.n_concepts) - 1, 1 << ids["salt"] | 1 << ids["sugar"]
    trace = hand_built(net, [(0, everything, 0), (top, 0, everything)], [(everything,) * 3])
    art = render_ascii_timeline(trace)
    assert art == render_ascii_timeline(read_trace_csv(write_trace_csv(trace)))
    by_name = {line.split()[0]: line.split()[-1] for line in art.split("\n")}
    assert (by_name["salt"], by_name["sugar"], by_name["looking"]) == (".#|#", ".#|#", "go|o")


def test_render_rows_of_one_cell_and_of_missing_cells():
    """Of two rows for one cell the later one counts, and only for its own
    kind; a cell no row gives reads as 0."""
    def row(sweep, name, value, kind=UnitKind.CONCEPT):
        return TraceRow(0, sweep, kind, name, value)

    assert render_ascii_timeline([row(0, "a", 1), row(0, "a", 0)]) == "a ."
    assert render_ascii_timeline([row(0, "a", 0), row(0, "a", 1)]) == "a #"
    omission = UnitKind.OMISSION
    assert render_ascii_timeline([row(0, "a", 1), row(0, "a", 1, omission), row(0, "a", 0, omission)]) == "a #"
    # b has no row at sweep 1, nor a at sweep 0
    assert render_ascii_timeline([row(0, "b", 1), row(1, "a", 1)]) == "a .#\nb #."


# --- small error paths ---

def read_trace_with_a_blank_line(net):
    text = "phase,sweep,kind,name,value\n0,0,concept,salt,1\n\n0,0,concept,sugar,0\n"
    assert [(r.name, r.value) for r in read_trace_csv(text)] == [("salt", 1), ("sugar", 0)]


@pytest.mark.parametrize("action, error, message", [
    (lambda net: parse_scenario_file('{"phases": [{"clamp": ["salty"], "hold": 1}]}', net),
     TypeMismatch, r"\$\.phases\[0\]\.clamp: expected an object"),
    (read_trace_with_a_blank_line, None, None),  # a blank line is skipped
    (lambda net: net.id_of("umami"), UnknownConcept, "no concept named 'umami'"),
    (lambda net: validate_network(NetworkSpec((ConceptSpec("", 0),))),
     ValidationError, "concept 0: name must be a non-empty string"),
    (lambda net: validate_network(NetworkSpec((ConceptSpec("a", 0), ConceptSpec(7, 0)))),
     ValidationError, "concept 1: name must be a non-empty string"),
], ids=["clamp-not-an-object", "blank-trace-line", "id-of-unknown-name", "empty-name", "non-string-name"])
def test_small_error_paths(net, action, error, message):
    if error is None:
        action(net)
    else:
        with pytest.raises(error, match=message):
            action(net)
