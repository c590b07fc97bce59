"""Domain types: validation, pattern evaluation, parent index."""
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conceptsim import (
    ConceptSpec,
    Engine,
    EngineParams,
    NetworkSpec,
    Pattern,
    PatternStatus,
    ScenarioPhase,
    ScenarioSpec,
    TraceRow,
    UnitKind,
    element_parents,
    enumerate_interpretations,
    interpretation_consistent,
    oracle_verdicts,
    pattern_need,
    pattern_state,
    run_scenario,
    validate_network,
)
from conceptsim.errors import (
    BottomWithPatterns,
    DanglingReference,
    DuplicateElement,
    DuplicateName,
    DuplicatePattern,
    EmptyPattern,
    LayerViolation,
    NonBottomWithoutPatterns,
    UnknownConcept,
    ValidationError,
)

from conceptsim.model import _PEEL_MAX, _at_least, _ids, _reach

from netgen import random_network
from reference import pattern_need_reference, pattern_state_reference, validate_network_reference


def test_canonical_network_valid(net, ids):
    assert net.n_concepts == 7
    assert net.max_layer == 1
    assert net.bottom == (0, 1, 2, 3, 4)
    assert net.non_bottom == (5, 6)
    assert element_parents(net, ids["white"]) == [(ids["salt"], 1), (ids["sugar"], 1)]
    assert element_parents(net, ids["salty"]) == [(ids["salt"], 0)]
    assert net.warnings == ()


def test_ids_are_dense_in_file_order(net):
    assert net.names == ("looking", "tasting", "white", "salty", "sweet", "salt", "sugar")
    assert [net.id_of(n) for n in net.names] == list(range(7))


def test_dangling_reference():
    spec = NetworkSpec((
        ConceptSpec("tasting", 0),
        ConceptSpec("salty", 0),
        ConceptSpec("salt", 1, (("tasting", "umami"),)),
    ))
    with pytest.raises(DanglingReference, match="umami"):
        validate_network(spec)


def test_single_bottom_concept_network():
    net = validate_network(NetworkSpec((ConceptSpec("ping", 0),)))
    assert net.n_concepts == 1
    assert net.max_layer == 0
    assert element_parents(net, 0) == []


def test_empty_network_is_valid():
    net = validate_network(NetworkSpec(()))
    assert net.n_concepts == 0
    assert net.bottom == ()


@pytest.mark.parametrize(
    "concepts, error",
    [
        ((ConceptSpec("a", 0), ConceptSpec("a", 0)), DuplicateName),
        ((ConceptSpec("a", 0, (("a",),)),), BottomWithPatterns),
        ((ConceptSpec("a", 0), ConceptSpec("b", 1)), NonBottomWithoutPatterns),
        ((ConceptSpec("a", 0), ConceptSpec("b", 1, ((),))), EmptyPattern),
        ((ConceptSpec("a", 0), ConceptSpec("b", 1, (("a", "a"),))), DuplicateElement),
        (
            (ConceptSpec("a", 0), ConceptSpec("c", 0),
             ConceptSpec("b", 1, (("a", "c"), ("c", "a")))),
            DuplicatePattern,
        ),
        ((ConceptSpec("a", -1),), LayerViolation),
        (
            (ConceptSpec("a", 0), ConceptSpec("b", 1, (("a",),)),
             ConceptSpec("c", 2, (("a", "b"),))),
            LayerViolation,  # 'a' is two layers below 'c'
        ),
        # b's pattern is on the layer below b, so the fault is a's, found with
        # nothing sized by a layer number
        ((ConceptSpec("b", 10**18 + 1, (("a",),)), ConceptSpec("a", 10**18)), NonBottomWithoutPatterns),
    ],
)
def test_validation_errors(concepts, error):
    with pytest.raises(error):
        validate_network(NetworkSpec(concepts))


def test_nul_in_a_name_is_a_validation_error():
    """A trace CSV holding NUL cannot be read back on every Python version."""
    with pytest.raises(ValidationError, match=r"'a\\x00b' contains NUL"):
        validate_network(NetworkSpec((ConceptSpec("ok", 0), ConceptSpec("a\0b", 0))))


@pytest.mark.parametrize("patterns, where", [
    (["ab"], "pattern 0"),  # was read as the pattern {a, b}
    ("a", "pattern 0"),  # was read as the one pattern {a}
    ([("a",), "ab"], "pattern 1"),
])
def test_a_string_pattern_is_refused_not_split_into_characters(patterns, where):
    spec = NetworkSpec((ConceptSpec("a", 0), ConceptSpec("b", 0), ConceptSpec("c", 1, patterns)))
    with pytest.raises(ValidationError) as refused:
        validate_network(spec)
    assert type(refused.value) is ValidationError
    assert str(refused.value) == f"concept 'c' {where} is a string, not a list of names"
    # the loader it replaced split the string, and accepted it
    validate_network_reference(spec)


@pytest.mark.parametrize("element", [["a"], {"a": 1}, ("a", ["b"])])
def test_an_unhashable_element_is_a_dangling_reference(element):
    """As an element 0 is an unknown concept, not a crash; the loader it
    replaced raised a bare TypeError."""
    spec = NetworkSpec((ConceptSpec("a", 0), ConceptSpec("b", 1, [["a", element]])))
    with pytest.raises(DanglingReference) as refused:
        validate_network(spec)
    assert str(refused.value) == f"concept 'b' pattern 0 references unknown concept {element!r}"
    with pytest.raises(TypeError):
        validate_network_reference(spec)
    with pytest.raises(DanglingReference, match="unknown concept 0$"):
        validate_network(NetworkSpec((ConceptSpec("a", 0), ConceptSpec("b", 1, [["a", 0]]))))


def test_a_repeated_element_is_reported_before_an_unknown_one():
    for elements in (["x", "x"], ["a", ["y"], ["y"]]):
        with pytest.raises(DuplicateElement, match="lists an element twice"):
            validate_network(NetworkSpec((ConceptSpec("a", 0), ConceptSpec("b", 1, [elements]))))


def test_singleton_pattern_warns_but_validates():
    net = validate_network(NetworkSpec((
        ConceptSpec("a", 0),
        ConceptSpec("b", 1, (("a",),)),
    )))
    assert len(net.warnings) == 1
    assert "single element" in net.warnings[0]


def test_pattern_state_examples(net, ids):
    tasting_salty = net.patterns_of(ids["salt"])[0]
    st_half = pattern_state(tasting_salty, {ids["tasting"]}, 0.5)
    assert st_half.status is PatternStatus.APPLICABLE_INCOMPLETE
    assert st_half.missing == {ids["salty"]} and type(st_half.missing) is frozenset

    assert pattern_state(tasting_salty, set()).status is PatternStatus.OFF

    p3 = Pattern(frozenset({0, 1, 2}))
    st_two_of_three = pattern_state(p3, {0, 1}, 0.5)
    assert st_two_of_three.status is PatternStatus.APPLICABLE_INCOMPLETE
    assert st_two_of_three.missing == {2}
    assert pattern_state(p3, {0, 1, 2}, 0.5).status is PatternStatus.COMPLETE


def test_pattern_state_is_pure(net, ids):
    pat = net.patterns_of(ids["salt"])[1]
    active = {ids["looking"], ids["white"]}
    assert pattern_state(pat, active) == pattern_state(pat, active)


@given(size=st.integers(1, 6), present=st.integers(0, 6), tau_num=st.integers(1, 8))
def test_pattern_state_partitions_unit_interval(size, present, tau_num):
    """For fixed tau the three states partition [0,1] with boundaries at tau and 1."""
    present = min(present, size)
    tau = Fraction(tau_num, 8)
    pat = Pattern(frozenset(range(size)))
    state = pattern_state(pat, set(range(present)), tau)
    assert state.missing == frozenset(range(present, size))
    fraction = Fraction(size - len(state.missing), size)
    if fraction == 1:
        assert state.status is PatternStatus.COMPLETE
    elif fraction >= tau:
        assert state.status is PatternStatus.APPLICABLE_INCOMPLETE
    else:
        assert state.status is PatternStatus.OFF


TAUS = st.one_of(
    st.sampled_from([0.3, Fraction(2, 3), 0.5, 1.0, 0.0, -0.25, 1.5, 2 / 3, 0.1]),
    st.floats(-1.0, 2.0, allow_nan=False),
    st.fractions(Fraction(-1), Fraction(2)),
)


def bit_status(size, present, tau):
    """The integer rule: Complete iff m & active == m, else applicable iff the
    present count reaches pattern_need(size, tau)."""
    mask = (1 << size) - 1
    hit = mask & ((1 << present) - 1)
    if hit == mask:
        return PatternStatus.COMPLETE
    if hit.bit_count() >= pattern_need(size, tau):
        return PatternStatus.APPLICABLE_INCOMPLETE
    return PatternStatus.OFF


@given(size=st.integers(1, 8), present=st.integers(0, 8), tau=TAUS)
def test_pattern_need_bit_test_matches_pattern_state(size, present, tau):
    """Same status as the Fraction rule of pattern_state_reference for every
    present count and any finite tau, including tau <= 0 and tau > 1."""
    present = min(present, size)
    pat = Pattern(frozenset(range(size)))
    assert bit_status(size, present, tau) is pattern_state_reference(pat, set(range(present)), tau).status


@given(
    size=st.integers(1, 8),
    chosen=st.lists(st.booleans(), min_size=8, max_size=8),
    others=st.sets(st.integers(8, 20)),
    tau=TAUS,
)
def test_pattern_state_matches_the_fraction_rule(size, chosen, others, tau):
    """pattern_state, through pattern_need, gives the status and the missing
    elements of the Fraction rule, for any subset of the elements present
    beside concepts that are not elements."""
    pat = Pattern(range(size))
    active = {e for e in range(size) if chosen[e]} | others
    state = pattern_state(pat, active, tau)
    want = pattern_state_reference(pat, active, tau)
    assert state.status is want.status and state.missing == want.missing


@pytest.mark.parametrize("size", range(1, 9))
def test_pattern_need_is_exact_at_every_threshold(size):
    """Taus one float step, or 1e-12, either side of each k/size: where float
    arithmetic would round across the threshold."""
    pat = Pattern(frozenset(range(size)))
    for k in range(size + 1):
        exact, tiny = Fraction(k, size), Fraction(1, 10**12)
        for tau in (
            k / size, math.nextafter(k / size, math.inf), math.nextafter(k / size, -math.inf),
            exact, exact + tiny, exact - tiny,
        ):
            for present in range(size + 1):
                state = pattern_state_reference(pat, set(range(present)), tau)
                assert bit_status(size, present, tau) is state.status


def _steps_from(value: float, steps: int) -> float:
    """value moved `steps` floats up, or down when steps is negative."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def need_cases(draw):
    """A size and a tau of any finite kind: any float, subnormals and values
    far above 1 included, a float a few steps from some k/size, an int or a
    Fraction."""
    size = draw(st.integers(0, 64))
    near = st.builds(_steps_from, st.integers(-3, 3 * size + 3).map(lambda k: k / max(size, 1)), st.integers(-3, 3))
    tau = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), near, st.integers(-10**6, 10**6), st.fractions(),
    ))
    return size, tau


@given(case=need_cases())
@example(case=(3, 1 / 3))
@example(case=(10, 0.1))
@example(case=(7, 5e-324))
@example(case=(7, -5e-324))
@example(case=(5, -0.0))
@example(case=(9, 1.7976931348623157e308))
@example(case=(6, Fraction(-7, 3)))
def test_pattern_need_is_the_fraction_ceiling(case):
    size, tau = case
    need = pattern_need(size, tau)
    assert type(need) is int and need == pattern_need_reference(size, tau)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
def test_pattern_need_rejects_non_finite_tau(tau):
    raised = []
    for need in (pattern_need, pattern_need_reference):
        with pytest.raises((ValueError, OverflowError)) as error:
            need(3, tau)
        raised.append(type(error.value))
    assert raised[0] is raised[1]


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
def test_pattern_state_raises_what_pattern_need_raises(tau):
    """On a Complete pattern too, whose status needs no threshold."""
    with pytest.raises((ValueError, OverflowError)) as error:
        pattern_need(3, tau)
    pat = Pattern([0, 1, 2])
    for active in ({0, 1, 2}, {0}):
        with pytest.raises((ValueError, OverflowError)) as raised:
            pattern_state(pat, active, tau)
        assert raised.type is error.type


def test_pattern_state_refuses_an_empty_pattern():
    """Nothing is missing from an empty pattern, which must not read as Complete."""
    for active in (set(), {0}):
        with pytest.raises(EmptyPattern):
            pattern_state(Pattern(()), active)


@pytest.mark.parametrize("seed", range(10))
def test_masks_and_needs_parallel_patterns(seed):
    net = random_network(seed)
    for tau in (0.5, Fraction(2, 3), -1.0, 1.5):
        needs = net.pattern_needs(tau)
        assert net.pattern_needs(tau) is needs
        for c in range(net.n_concepts):
            assert net.masks[c] == tuple(sum(1 << e for e in p.elements) for p in net.patterns[c])
            # clamped to 0..size, which tau in (0, 1] never leaves
            assert needs[c] == tuple(min(max(pattern_need(len(p), tau), 0), len(p)) for p in net.patterns[c])


def test_element_parents_unknown(net):
    with pytest.raises(UnknownConcept):
        element_parents(net, 99)


@pytest.mark.parametrize("call, cid", [
    (element_parents, "salty"),
    (lambda net, cid: net.layer(cid), "salt"),
    (lambda net, cid: net.name(cid), 1.5),
], ids=["element_parents", "layer", "name"])
def test_a_concept_id_that_is_not_an_int_is_unknown(net, call, cid):
    with pytest.raises(UnknownConcept, match=rf"^no concept with id {cid!r}$"):
        call(net, cid)


@pytest.mark.parametrize("call", [
    lambda net, cid: net.name(cid),
    lambda net, cid: net.layer(cid),
    lambda net, cid: net.patterns_of(cid),
    element_parents,
    lambda net, cid: interpretation_consistent(net, {cid}, set()),
    lambda net, cid: interpretation_consistent(net, set(), {cid}),
    lambda net, cid: enumerate_interpretations(net, {cid}),
    lambda net, cid: oracle_verdicts(net, {cid}),
    lambda net, cid: setattr(Engine(net), "clamp", {cid: 1}),
    lambda net, cid: Engine(net).apply_clamp({cid: 1}),
    lambda net, cid: run_scenario(net, EngineParams(), [({cid: 1}, None)]),
], ids=[
    "name", "layer", "patterns_of", "element_parents", "inferred", "clamped", "enumerate", "oracle_verdicts",
    "assigned_clamp", "apply_clamp", "run_scenario",
])
@pytest.mark.parametrize("cid", [True, False])
def test_a_bool_concept_id_is_unknown(net, call, cid):
    """A bool is an int to isinstance, but every entry point that takes a
    concept id refuses it, as EngineParams.validate refuses a bool weight:
    True does not read as id 1 (tasting, a layer-0 concept in salt)."""
    with pytest.raises(UnknownConcept, match=rf"^no concept with id {cid!r}$"):
        call(net, cid)


@pytest.mark.parametrize("seed", range(10))
def test_parent_index_round_trip(seed):
    """parent_index is exactly the inverse of pattern membership."""
    net = random_network(seed)
    for c in range(net.n_concepts):
        for k, pat in enumerate(net.patterns_of(c)):
            for e in pat.elements:
                assert (c, k) in element_parents(net, e)
    for e in range(net.n_concepts):
        for c, k in element_parents(net, e):
            assert e in net.patterns_of(c)[k].elements


def test_layers_partition_concepts(net):
    seen = sorted(c for layer_ids in net.layers.values() for c in layer_ids)
    assert seen == list(range(net.n_concepts))
    for layer, layer_ids in net.layers.items():
        assert all(net.layer_of[c] == layer for c in layer_ids)


# --- records ---

def _records(net, ids):
    """One of each record the package declares as a named tuple, by name."""
    pattern = net.patterns[ids["salt"]][0]
    report = interpretation_consistent(net, {ids["salt"]}, {ids["looking"], ids["white"]})
    trace = run_scenario(net, EngineParams(), [({ids["looking"]: 1, ids["white"]: 1}, None)])
    phase = ScenarioPhase({"looking": 1})
    return {
        "PatternState": pattern_state(pattern, {ids["tasting"]}), "Pattern": pattern,
        "ConceptSpec": net.spec.concepts[ids["salt"]], "NetworkSpec": net.spec, "ValidatedNetwork": net,
        "ScenarioPhase": phase, "ScenarioSpec": ScenarioSpec((phase,)),
        "TraceRow": TraceRow(0, 1, UnitKind.CONCEPT, "salt", 1),
        "ConceptCheck": report.per_concept[ids["salt"]], "ConsistencyReport": report,
        "PhaseTrace": trace.phases[0], "Trace": trace, "EngineParams": EngineParams(w_lat=0.25),
    }


def test_records_are_immutable_named_tuples(net, ids):
    records = _records(net, ids)
    assert len(records) == 13
    for name, record in records.items():
        assert type(record).__name__ == name and record == tuple(record)
        assert list(record._asdict()) == list(record._fields)
        for copy in (record._replace(), pickle.loads(pickle.dumps(record))):
            assert type(copy) is type(record) and copy == record
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_a_network_refuses_every_assignment(canonical_spec):
    """Beyond its fields: a cached property, computed (n_concepts) or not
    (element_ids), and a new name."""
    net = validate_network(canonical_spec)
    assert net.n_concepts == 7
    for name in ("n_concepts", "element_ids", "no_such_name"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(net, name, None)
    assert net.n_concepts == 7 and len(net.element_ids) == 7 and not hasattr(net, "no_such_name")


def test_records_normalise_their_input(net):
    pattern = Pattern([2, 1])
    assert type(pattern.elements) is frozenset and pattern.elements == {1, 2} and len(pattern) == 2
    spec = ConceptSpec("x", 1, [["a"]])
    assert spec.patterns == (("a",),) and type(spec.patterns) is tuple and type(spec.patterns[0]) is tuple
    assert type(NetworkSpec([spec]).concepts) is tuple
    # _replace normalises as the constructor does
    assert type(pattern._replace(elements=[3, 4, 5]).elements) is frozenset
    assert spec._replace(patterns=[["b", "c"]]).patterns == (("b", "c"),)
    assert type(net.spec._replace(concepts=list(net.spec.concepts)).concepts) is tuple


def test_records_hash_and_unpack_by_value():
    assert len({Pattern([1, 2]), Pattern([2, 1])}) == 1
    row = TraceRow(0, 1, UnitKind.CONCEPT, "salt", 1)
    assert hash(row) == hash(TraceRow(0, 1, UnitKind.CONCEPT, "salt", 1))
    assert row == (0, 1, UnitKind.CONCEPT, "salt", 1) and row[3] == "salt"
    name, layer, patterns = ConceptSpec("x", 0)
    assert (name, layer, patterns) == ("x", 0, ())


def test_each_network_keeps_its_own_memos():
    nets = [random_network(seed) for seed in range(3)]
    needs = [net.pattern_needs(0.5) for net in nets]
    assert len(set(needs)) == 3
    for net, memo in zip(nets, needs):
        assert net.pattern_needs(0.5) is memo
        assert memo == tuple(tuple(pattern_need(len(p)) for p in pats) for pats in net.patterns)
    # a replaced network computes its cached properties afresh
    net = nets[0]
    assert net.n_concepts > 1 and net._replace(names=net.names[:1]).n_concepts == 1


def _sample_mask(rng: random.Random, width: int, k: int) -> int:
    return sum(1 << i for i in rng.sample(range(width), k))


def _id_masks() -> list[int]:
    """Masks on both sides of _ids' peel/scan switch: empty, single and sparse
    high bits, dense masks, and _PEEL_MAX - 1 .. _PEEL_MAX + 1 set bits."""
    rng = random.Random(8)
    masks = [0, *(1 << i for i in (0, 1, 63, 64, 1399))]
    masks += [_sample_mask(rng, 1400, k) for k in (2, 5, 12, 70) for _ in range(3)]
    masks += [(1 << 9) - 1, (1 << 1400) - 1, rng.getrandbits(1400), (1 << 1400) - 1 - (1 << 700)]
    for k in (_PEEL_MAX - 1, _PEEL_MAX, _PEEL_MAX + 1):
        masks += [(1 << k) - 1, _sample_mask(rng, 64, k), _sample_mask(rng, 1400, k) | 1 << 1399]
    return masks


@pytest.mark.parametrize("bits", _id_masks(), ids=lambda b: f"{b.bit_count()}of{b.bit_length()}")
def test_ids_matches_a_bit_by_bit_scan(bits):
    assert _ids(bits) == [i for i in range(bits.bit_length()) if bits >> i & 1]


#: 0-8 planes over up to 64 cases, and a count depth of 0-4
PLANE_DRAWS = st.integers(1, 64).flatmap(
    lambda cases: st.tuples(
        st.just(cases),
        st.lists(st.integers(0, (1 << cases) - 1), max_size=8),
        st.integers(0, 4),
    )
)


@given(draw=PLANE_DRAWS, data=st.data())
def test_at_least_adds_each_cases_popcount(draw, data):
    """_at_least(planes, depth, ge) gives, case by case with m of planes
    set, ge[t] | ge[t-1] | ... | ge[t-m] at each level t <= depth, which for
    a thermometer ge (a count) is the count plus m; entries past depth are
    kept. ge is drawn both as arbitrary planes and as a thermometer, and
    depth 1, which ORs the planes first, is among the depths."""
    cases, planes, depth = draw
    plane = st.integers(0, (1 << cases) - 1)
    if data.draw(st.booleans(), label="thermometer"):
        counts = data.draw(st.lists(st.integers(0, depth + 2), min_size=cases, max_size=cases), label="counts")
        ge = [sum(1 << i for i, count in enumerate(counts) if count >= t) for t in range(depth + 2)]
    else:
        ge = data.draw(st.lists(plane, min_size=depth + 1, max_size=depth + 3), label="ge")
    got = _at_least(iter(planes), depth, ge)
    assert len(got) == len(ge) and got[depth + 1:] == ge[depth + 1:]
    for i in range(cases):
        m = sum(x >> i & 1 for x in planes)
        for t in range(depth + 1):
            assert got[t] >> i & 1 == any(ge[t - s] >> i & 1 for s in range(min(m, t) + 1)), (i, t)


@given(draw=PLANE_DRAWS, data=st.data())
def test_reach_is_the_cases_with_enough_planes_set(draw, data):
    """_reach(planes, need, ones) is the cases of ones where at least need
    of planes are set."""
    cases, planes, need = draw
    ones = data.draw(st.integers(0, (1 << cases) - 1), label="ones")
    want = sum(1 << i for i in range(cases) if ones >> i & 1 and sum(x >> i & 1 for x in planes) >= need)
    assert _reach(iter(planes), need, ones) == want
