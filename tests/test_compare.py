"""Exhaustive dynamics-vs-oracle comparison."""
import dataclasses
from collections import Counter

import pytest

from conceptsim import (
    Agreement,
    AgreementReport,
    ConceptSpec,
    Engine,
    EngineParams,
    ErrorRouting,
    NetworkSpec,
    Termination,
    compare_with_oracle,
    enumerate_interpretations,
    parse_network_file,
    run_scenario,
    validate_network,
)
from conceptsim import compare, engine, oracle
from conceptsim.errors import TooLarge
from conceptsim.model import _PEEL_MAX, _bottom_planes, _ids

from conftest import CYCLING_PARAMS
from netgen import random_network, shuffled_network, synth_network
from reference import compare_reference
from specs import AMBIGUOUS_SPEC, CANONICAL_SPEC, DATA_DIR


def names_of(net, cids):
    return sorted(net.names[c] for c in cids)


def case_for(report, net, names):
    clamp = frozenset(net.name_to_id[n] for n in names)
    return next(c for c in report.cases if c.clamp == clamp)


def test_canonical_defaults_pinned_counts(net):
    report = compare_with_oracle(net)
    assert len(report.cases) == 32
    assert report.count(Agreement.DISAGREE) == 0
    assert report.count(Agreement.AGREE) == 29
    assert report.count(Agreement.TIE_SELECTED) == 3
    ties = {
        frozenset(net.names[c] for c in case.clamp)
        for case in report.cases
        if case.classification is Agreement.TIE_SELECTED
    }
    assert ties == {
        frozenset({"looking", "white"}),
        frozenset({"tasting", "salty", "sweet"}),
        frozenset({"looking", "tasting", "white", "salty", "sweet"}),
    }


def test_shared_cue_is_tie_selected_not_disagree(net, ids):
    report = compare_with_oracle(net)
    case = case_for(report, net, ("looking", "white"))
    assert case.classification is Agreement.TIE_SELECTED
    assert case.inferred == frozenset({ids["salt"]})
    assert case.maximal == (frozenset({ids["salt"], ids["sugar"]}),)


def test_empty_clamp_agrees_on_empty_interpretation(net):
    report = compare_with_oracle(net)
    case = case_for(report, net, ())
    assert case.classification is Agreement.AGREE
    assert case.inferred == frozenset()


def test_unambiguous_evidence_agrees(net, ids):
    report = compare_with_oracle(net)
    case = case_for(report, net, ("tasting", "salty"))
    assert case.classification is Agreement.AGREE
    assert case.inferred == frozenset({ids["salt"]})


def test_initial_misstep_is_corrected(net, ids):
    """salt ignites first on {looking,white} cues, gets rejected by the
    unexplained sweet evidence, and sugar takes over: the dynamics land on
    the oracle's unique maximal interpretation."""
    report = compare_with_oracle(net)
    case = case_for(report, net, ("looking", "tasting", "white", "sweet"))
    assert case.classification is Agreement.AGREE
    assert case.inferred == frozenset({ids["sugar"]})


def test_no_lateral_inhibition_pinned(net):
    """With w_lat=0 both concepts co-activate on shared cues; the oracle's
    maximal interpretations accept exactly that, so nothing disagrees."""
    report = compare_with_oracle(net, EngineParams(w_lat=0.0))
    assert report.count(Agreement.AGREE) == 32
    assert report.count(Agreement.TIE_SELECTED) == 0
    assert report.count(Agreement.DISAGREE) == 0


@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
def test_all_global_routing_pinned(data_dir, name):
    """Under ALL_GLOBAL every error inhibits every active non-bottom concept,
    so on caramel the four clamps that disagree under SPLIT agree too: both
    shipped nets come out 29/3/0."""
    net = validate_network(parse_network_file((data_dir / name).read_text()))
    report = compare_with_oracle(net, EngineParams(error_routing=ErrorRouting.ALL_GLOBAL))
    assert [report.count(kind) for kind in Agreement] == [29, 3, 0]


def test_three_layer_divergence_is_detected(data_dir):
    """On deeper hierarchies the harness finds real divergences: a concept
    whose taste pattern is complete stays active even though nothing above
    explains it (the standing commission error has no active parent to
    inhibit), while the oracle rejects every interpretation."""
    from conceptsim import parse_network_file

    net = validate_network(parse_network_file((data_dir / "caramel.json").read_text()))
    report = compare_with_oracle(net)
    assert report.count(Agreement.DISAGREE) == 4
    assert report.count(Agreement.AGREE) == 25
    assert report.count(Agreement.TIE_SELECTED) == 3
    clamps = {
        frozenset(net.names[c] for c in case.clamp) for case in report.disagreements
    }
    assert clamps == {
        frozenset({"tasting", "salty"}),
        frozenset({"tasting", "salty", "looking", "white"}),
        frozenset({"tasting", "sweet"}),
        frozenset({"tasting", "sweet", "looking", "white"}),
    }
    for case in report.disagreements:
        assert case.maximal == ()  # nothing is consistent, yet something stayed inferred
        assert case.inferred


def test_a_run_that_does_not_converge_disagrees(net):
    """With max_sweeps=1 every clamp that changes the state in its first
    sweep ends at the sweep limit: no inferred set, so DISAGREE."""
    report = compare_with_oracle(net, EngineParams(max_sweeps=1))
    unsettled = [c for c in report.cases if c.termination is not Termination.FIXED_POINT]
    assert unsettled and len(unsettled) == report.count(Agreement.DISAGREE)
    for case in unsettled:
        assert case.inferred is None and case.classification is Agreement.DISAGREE
    assert case_for(report, net, ()).classification is Agreement.AGREE


@pytest.mark.parametrize("routing", ErrorRouting)
def test_a_run_above_the_error_bound_can_cycle(monkeypatch, data_dir, routing):
    """w_err > w_ff + w_self - theta (3.2 > 1.6 - 0.6 + 0.7) makes one routed
    error shut even a fully driven unit, but it does not make a run settle:
    on {looking, white} salt and sugar alternate from sweep 0, and compare
    reads that Cycle off its planes without rerunning the clamp."""
    net = validate_network(parse_network_file((data_dir / "salt.json").read_text()))
    params = EngineParams(w_ff=1.6, w_self=-0.6, w_lat=2.0, w_err=3.2, theta=-0.7, tau=1.0, error_routing=routing)
    clamp = {net.name_to_id["looking"]: 1, net.name_to_id["white"]: 1}
    (phase,) = run_scenario(net, params, [(clamp, None)]).phases
    assert phase.termination is Termination.CYCLE and phase.cycle_start == 0
    inferred = [names_of(net, _ids(s.active & net.non_bottom_mask)) for s in phase.snapshots]
    assert inferred == [["salt", "sugar"], ["sugar"], ["salt"], ["salt", "sugar"]]

    def refuse(*args):
        raise AssertionError("compare reran a clamp through run_scenario")

    monkeypatch.setattr(engine, "run_scenario", refuse)
    report = compare_with_oracle(net, params)
    assert [report.count(kind) for kind in Agreement] == [26, 4, 2]
    case = case_for(report, net, ("looking", "white"))
    assert case.termination is Termination.CYCLE and case.classification is Agreement.DISAGREE


@pytest.mark.parametrize("network, clamp, inferred", [
    (lambda: shuffled_network(7), {2, 3, 5}, {0, 6}),
    (lambda: random_network(112), {0, 1, 2, 3}, {4}),
])
def test_inferred_set_inside_no_consistent_interpretation_disagrees(network, clamp, inferred):
    """Consistent interpretations exist, but the converged inferred set is
    part of none of them."""
    net = network()
    case = next(c for c in compare_with_oracle(net).cases if c.clamp == frozenset(clamp))
    assert case.termination is Termination.FIXED_POINT
    assert case.classification is Agreement.DISAGREE and case.inferred == frozenset(inferred)
    consistent = [r.interpretation for r in enumerate_interpretations(net, case.clamp)]
    assert consistent and case.maximal
    assert not any(case.inferred <= s for s in consistent)


def test_too_many_bottom_concepts():
    concepts = [ConceptSpec(f"e{i}", 0) for i in range(17)]
    concepts.append(ConceptSpec("c", 1, (("e0", "e1"),)))
    net = validate_network(NetworkSpec(tuple(concepts)))
    with pytest.raises(TooLarge):
        compare_with_oracle(net)


def test_too_many_concepts_to_enumerate_builds_no_planes(monkeypatch):
    """A net the oracle refuses is refused before either plane run: the
    engine's, whose cost grows with the square of a layer's width, and the
    oracle's."""
    concepts = [ConceptSpec("a", 0), ConceptSpec("b", 0)]
    concepts += [ConceptSpec(f"c{i}", 1, (("a", "b"),)) for i in range(21)]
    net = validate_network(NetworkSpec(tuple(concepts)))

    def refuse(*args):
        raise AssertionError("planes built for a net the oracle refuses")

    monkeypatch.setattr(compare, "_clamp_planes", refuse)
    monkeypatch.setattr(oracle, "_search", refuse)
    with pytest.raises(TooLarge) as refused:
        compare_with_oracle(net)
    assert str(refused.value) == "21 non-bottom concepts exceed the enumeration limit of 20"


def shipped(name):
    return validate_network(parse_network_file((DATA_DIR / name).read_text()))


@pytest.mark.parametrize("network", [
    pytest.param(lambda: shipped("salt.json"), id="salt"),
    pytest.param(lambda: shipped("caramel.json"), id="caramel"),
    pytest.param(lambda: synth_network((7, 5, 3), 0), id="synth-7/5/3"),
])
def test_compare_makes_no_per_clamp_oracle_call(monkeypatch, network):
    """The oracle side of compare runs for every clamp at once: with
    enumerate_interpretations refusing every call, every CaseResult still
    equals the per-clamp reference's, which was computed before the patch."""
    net = network()
    want = compare_reference(net, EngineParams()).cases

    def refuse(*args):
        raise AssertionError("compare called the oracle for one clamp")

    monkeypatch.setattr(oracle, "enumerate_interpretations", refuse)
    assert compare_with_oracle(net).cases == want


@pytest.mark.parametrize("network", [
    pytest.param(lambda: random_network(3), id="netgen-3"),
    pytest.param(lambda: shuffled_network(0), id="shuffled-0"),
])
def test_plane_run_stops_when_the_planes_recur(monkeypatch, network):
    """With some clamps in a cycle, the plane run ends at the first
    recurring state of all planes, not at max_sweeps: it does the same work
    under max_sweeps 64 and 128, counted in calls of compare._at_least, which
    every plane sweep that changes an activation makes, so that count is
    above 0. The clamps still changing then are in a cycle, and compare
    labels them Cycle."""
    net = network()
    calls = []
    real = compare._at_least
    monkeypatch.setattr(compare, "_at_least", lambda *args: calls.append(1) or real(*args))
    counts = []
    for max_sweeps in (64, 128):
        calls.clear()
        params = CYCLING_PARAMS._replace(max_sweeps=max_sweeps)
        _, cycle, limit = compare._clamp_planes(net, params, dict(zip(net.bottom, _bottom_planes(net))), 1 << len(net.bottom))
        counts.append(len(calls))
    assert cycle not in (0, (1 << (1 << len(net.bottom))) - 1) and limit == 0
    assert counts[0] == counts[1] > 0
    report = compare_with_oracle(net, CYCLING_PARAMS)
    assert report.cases == compare_reference(net, CYCLING_PARAMS).cases
    assert {c.termination for c in report.cases} == {Termination.FIXED_POINT, Termination.CYCLE}


#: CYCLING_PARAMS cut at 5 sweeps: the clamps of shuffled 0 that cycle are
#: still changing there, and neither their planes nor their own states recur
LATE_CYCLE_PARAMS = CYCLING_PARAMS._replace(max_sweeps=5)
#: CYCLING_PARAMS cut at 6 sweeps: the planes of netgen 0 do not recur by
#: then, yet 7 of its 8 clamps have each returned to a state of their own
CUT_CYCLE_PARAMS = CYCLING_PARAMS._replace(max_sweeps=6)
CYCLE, LIMIT = Termination.CYCLE, Termination.SWEEP_LIMIT


@pytest.mark.parametrize("network, params, unsettled", [
    pytest.param(lambda: shipped("salt.json"), EngineParams(max_sweeps=1), {LIMIT: 31}, id="salt-1-sweep"),
    pytest.param(lambda: random_network(3), CYCLING_PARAMS, {CYCLE: 1}, id="netgen-3-cycling"),
    pytest.param(lambda: shuffled_network(0), CYCLING_PARAMS, {CYCLE: 5}, id="shuffled-0-cycling"),
    pytest.param(lambda: shuffled_network(0), LATE_CYCLE_PARAMS, {LIMIT: 5}, id="shuffled-0-late-cycle"),
    pytest.param(lambda: random_network(0), CUT_CYCLE_PARAMS, {CYCLE: 7, LIMIT: 1}, id="netgen-0-cut-cycle"),
])
def test_compare_runs_no_clamp_on_the_engine(monkeypatch, network, params, unsettled):
    """compare tells Cycle from SweepLimit off the plane run's own states:
    with run_scenario and Engine.run_to_fixed_point refusing every call,
    every CaseResult still equals the per-clamp reference's, which runs a
    ReferenceEngine, and the clamps still changing at the end are the ones
    pinned here."""
    net = network()
    want = compare_reference(net, params).cases

    def refuse(*args):
        raise AssertionError("compare ran a clamp on the Engine")

    monkeypatch.setattr(engine, "run_scenario", refuse)
    monkeypatch.setattr(Engine, "run_to_fixed_point", refuse)
    report = compare_with_oracle(net, params)
    assert report.cases == want
    assert Counter(c.termination for c in report.cases if c.termination is not Termination.FIXED_POINT) == unsettled


def test_plane_run_tells_recurring_planes_from_planes_that_hash_equal():
    """An int hashes to its value mod M = 2^61 - 1, so two 64-case states
    can hash equal and differ. Here cases 0-60 clamp {looking, tasting,
    white, sweet} and cases 61-63 nothing, so every plane is M or 0, and all
    hash to 0: the state after salt ignites hashes like the one after it is
    rejected. The plane run still runs on, to the fixed point with sugar
    inferred that the Engine reaches."""
    net = validate_network(NetworkSpec(CANONICAL_SPEC.concepts + (ConceptSpec("spare", 0),)))
    M = (1 << 61) - 1
    clamp = {net.name_to_id[n] for n in ("looking", "tasting", "white", "sweet")}
    scalar = Engine(net, EngineParams())
    scalar.apply_clamp(dict.fromkeys(sorted(clamp), 1))
    snaps, termination, _ = scalar.run_to_fixed_point()
    assert termination is Termination.FIXED_POINT
    # the (*active, *latched) planes after each sweep
    states = [
        tuple(M * (bits >> c & 1) for bits in (snap.active, snap.latched) for c in range(net.n_concepts))
        for snap in snaps
    ]
    assert states[0] != states[1] and hash(states[0]) == hash(states[1])
    active, cycle, limit = compare._clamp_planes(net, EngineParams(), {e: M * (e in clamp) for e in net.bottom}, 64)
    assert cycle == limit == 0
    assert tuple(active) == states[-1][:net.n_concepts]
    assert names_of(net, _ids(snaps[-1].active & net.non_bottom_mask)) == ["sugar"]


@pytest.mark.parametrize("params", [EngineParams(), CYCLING_PARAMS], ids=["defaults", "cycling"])
def test_compare_on_wide_planes_matches_the_reference(params):
    """On 10 layer-0 concepts, 1024 cases, every CaseResult is the
    reference's; under CYCLING_PARAMS one clamp never settles."""
    net = synth_network((10, 4, 2), 0)
    report = compare_with_oracle(net, params)
    assert report.cases == compare_reference(net, params).cases
    unsettled = sum(c.termination is not Termination.FIXED_POINT for c in report.cases)
    assert unsettled == (params is CYCLING_PARAMS)


def test_dense_planes_are_read_off_exactly():
    """Each of 10 layer-0 concepts is the one element of one layer-1
    concept's only pattern, and with w_lat 0 nothing competes: each layer-1
    concept is inferred in the 512 cases that clamp its element, a plane
    dense enough that _ids scans its base-2 string."""
    concepts = [ConceptSpec(f"e{i}", 0) for i in range(10)]
    concepts += [ConceptSpec(f"c{i}", 1, ((f"e{i}",),)) for i in range(10)]
    net = validate_network(NetworkSpec(tuple(concepts)))
    params = EngineParams(w_lat=0)
    report = compare_with_oracle(net, params)
    assert report.cases == compare_reference(net, params).cases
    for case in report.cases:
        assert case.inferred == frozenset(c + 10 for c in case.clamp)
    # so each layer-1 plane has 512 set bits, more than _ids peels one by one
    assert 512 > _PEEL_MAX


def plane_states(net, params):
    """The states the plane run passes through, from one Engine run per
    clamp: entry s holds each case's Snapshot before sweep s, and a run that
    ended earlier keeps its last one. Every run must reach a fixed point, so
    the plane run makes one sweep fewer than there are entries."""
    runs = []
    for case in range(1 << len(net.bottom)):
        scalar = Engine(net, params)
        scalar.apply_clamp({e: 1 for j, e in enumerate(net.bottom) if case >> j & 1})
        start = scalar.state
        snaps, termination, _ = scalar.run_to_fixed_point()
        assert termination is Termination.FIXED_POINT
        runs.append((start, *snaps))
    return [[run[min(s, len(run) - 1)] for run in runs] for s in range(max(map(len, runs)))]


def test_plane_run_visits_units_that_ignite_without_a_complete_pattern():
    """Below theta 0 an idle unit ignites with no Complete pattern: on
    netgen 23 some sweep ignites a unit that is idle in every case before it
    and has a Complete pattern in none, which the plane run decides from the
    table's row (dendrite 0, prev 0) as the scalar sweep does."""
    net, params = random_network(23), EngineParams(theta=-0.3, w_lat=1.5)
    states = plane_states(net, params)
    assert any(
        any(a.active >> c & 1 for a in after)
        and not any(s.active >> c & 1 or any(m & a.active == m for m in net.masks[c]) for s, a in zip(before, after))
        for before, after in zip(states, states[1:])
        for c in net.non_bottom
    )
    assert compare_with_oracle(net, params).cases == compare_reference(net, params).cases


def reach_calls(net, params):
    """From the plane states: how many pattern applicabilities the error
    stages compute when each concept recomputes its own only after a change
    of its element layer, and how many they would compute every time. An
    error stage runs in sweep 0, where layer 0 is set, and in every sweep
    that changes an active plane, for the concepts active in some case."""
    states = plane_states(net, params)
    moved = [0] + [-1] * net.max_layer
    read = {}
    want = every = 0
    for sweep, (before, after) in enumerate(zip(states, states[1:])):
        for layer in range(1, net.max_layer + 1):
            if any((b.active ^ a.active) & net.layer_mask[layer] for b, a in zip(before, after)):
                moved[layer] = sweep
        if sweep not in moved:
            continue
        active = 0
        for a in after:
            active |= a.active
        for c in net.non_bottom:
            if active >> c & 1:
                every += len(net.masks[c])
                if read.get(c) != moved[net.layer_of[c] - 1]:
                    read[c] = moved[net.layer_of[c] - 1]
                    want += len(net.masks[c])
    return want, every


@pytest.mark.parametrize("network", [
    pytest.param(lambda: random_network(3), id="netgen-3"),
    pytest.param(lambda: shuffled_network(0), id="shuffled-0"),
    pytest.param(lambda: synth_network((7, 5, 3), 0), id="synth-7/5/3"),
    pytest.param(lambda: synth_network((6, 5, 5, 3), 1), id="synth-6/5/5/3"),
])
def test_plane_run_reuses_pattern_applicability(monkeypatch, network):
    """At default params the plane run computes a pattern's applicability,
    counted in calls of compare._reach, once per change of its element layer
    while its concept is active in some case, which is fewer times than
    there are error stages that read it."""
    net = network()
    calls = []
    real = compare._reach
    monkeypatch.setattr(compare, "_reach", lambda *args: calls.append(1) or real(*args))
    compare._clamp_planes(net, EngineParams(), dict(zip(net.bottom, _bottom_planes(net))), 1 << len(net.bottom))
    want, every = reach_calls(net, EngineParams())
    assert len(calls) == want < every


#: layer 1 changes late: on clamp {a, b, c}, X, Y and Z ignite in sweep 0,
#: Y's second pattern omits d, and Y latches off in sweep 1. Z's first
#: pattern, (X, Y) with a need of 2 at tau 0.75, applies in sweep 0 and not
#: after; read as it was in sweep 0, it would omit Y and shut Z
LATE_SPEC = NetworkSpec((
    ConceptSpec("a", 0),
    ConceptSpec("b", 0),
    ConceptSpec("c", 0),
    ConceptSpec("d", 0),
    ConceptSpec("X", 1, (("a",), ("a", "b", "c"))),
    ConceptSpec("Y", 1, (("a",), ("a", "b", "c", "d"))),
    ConceptSpec("Z", 2, (("X", "Y"), ("X",))),
))
LATE_PARAMS = EngineParams(w_lat=0.0, tau=0.75)


def test_applicability_follows_a_late_change_of_its_element_layer():
    """Z's applicability is recomputed after layer 1 changes in sweep 1, so
    the plane run infers {X, Z} on {a, b, c}, as the reference does."""
    net = validate_network(LATE_SPEC)
    ids = net.name_to_id
    scalar = Engine(net, LATE_PARAMS)
    scalar.apply_clamp({ids["a"]: 1, ids["b"]: 1, ids["c"]: 1})
    snaps, _, _ = scalar.run_to_fixed_point()
    assert [names_of(net, _ids(s.active & net.non_bottom_mask)) for s in snaps] == [
        ["X", "Y", "Z"], ["X", "Z"], ["X", "Z"],
    ]
    report = compare_with_oracle(net, LATE_PARAMS)
    assert report.cases == compare_reference(net, LATE_PARAMS).cases
    assert names_of(net, case_for(report, net, ("a", "b", "c")).inferred) == ["X", "Z"]


#: only the top layer moves in sweep 1: on clamp {a}, X ignites and
#: inhibits Y, Z ignites on X, its pattern (X, Y) applies without Y, and the
#: omission of Y shuts Z
TOP_LATE_SPEC = NetworkSpec((
    ConceptSpec("a", 0),
    ConceptSpec("X", 1, (("a",),)),
    ConceptSpec("Y", 1, (("a",),)),
    ConceptSpec("Z", 2, (("X",), ("X", "Y"))),
))


def test_a_sweep_that_moves_only_the_top_layer_does_not_end_the_plane_run():
    """The plane run ends at the first sweep that changes no active plane,
    not at one whose change lies above layer 1: it settles every clamp of
    TOP_LATE_SPEC, each with the inferred set of its own Engine run."""
    net = validate_network(TOP_LATE_SPEC)
    states = plane_states(net, EngineParams())
    moves = [
        {net.layer_of[c] for b, a in zip(before, after) for c in _ids(b.active ^ a.active)}
        for before, after in zip(states, states[1:])
    ]
    assert {2} in moves
    planes = dict(zip(net.bottom, _bottom_planes(net)))
    active, cycle, limit = compare._clamp_planes(net, EngineParams(), planes, 1 << len(net.bottom))
    assert cycle == limit == 0
    for case, final in enumerate(states[-1]):
        assert [active[c] >> case & 1 for c in net.non_bottom] == [final.active >> c & 1 for c in net.non_bottom]


def mask_of(ids):
    return None if ids is None else sum(1 << c for c in ids)


@pytest.mark.parametrize("network", [
    pytest.param(lambda: shipped("caramel.json"), id="caramel"),
    pytest.param(lambda: synth_network((7, 5, 3), 0), id="synth-7/5/3"),
])
def test_each_distinct_inferred_set_is_classified_once(monkeypatch, network):
    """compare classifies by plane algebra, one step per distinct inferred
    set, not per case: oracle._above, the cases where a strict superset of a
    set is consistent, runs once for each set that some settled case infers,
    and the cases share far fewer sets than there are cases. compare then
    finds the maximal sets through oracle._maximal, which calls _above too,
    so only the calls made before _maximal is entered are counted."""
    net = network()
    reference = compare_reference(net, EngineParams())  # built before the patches: it enumerates per clamp
    calls, classified = [], []
    above, maximal = oracle._above, oracle._maximal
    monkeypatch.setattr(oracle, "_above", lambda found, bits: calls.append(bits) or above(found, bits))
    monkeypatch.setattr(oracle, "_maximal", lambda found: classified.extend(calls) or maximal(found))
    report = compare_with_oracle(net)
    assert report.cases == reference.cases
    sets = {mask_of(case.inferred) for case in report.cases}
    assert sorted(classified) == sorted(sets)
    assert len(sets) < len(report.cases)


def test_disagreements_build_only_their_own_clamp_sets(monkeypatch):
    """Reading disagreements builds the clamp sets of the DISAGREE cases,
    not one for each of the 2^b clamps: on synth 12/5/3 (4096 clamps, a few
    of them DISAGREE) it makes far fewer unions of sets than there are
    clamps, counted on a frozenset subclass that compare uses in place of
    frozenset while the report is read. The cases read afterwards hold
    their clamps in case order, and the disagreements are theirs."""
    unions = []

    class Counted(frozenset):
        def __or__(self, other):
            unions.append(1)
            return Counted(frozenset.__or__(self, other))

    net = synth_network((12, 5, 3), 0)
    report = compare_with_oracle(net)
    monkeypatch.setattr(compare, "frozenset", Counted, raising=False)
    disagreements = report.disagreements
    assert disagreements and len(unions) < (1 << len(net.bottom)) // 16
    monkeypatch.undo()
    cases = report.cases
    assert [case.clamp for case in cases] == [
        {e for j, e in enumerate(net.bottom) if i >> j & 1} for i in range(1 << len(net.bottom))
    ]
    assert disagreements == tuple(case for case in cases if case.classification is Agreement.DISAGREE)


def test_several_maximal_sets_keep_the_oracle_order():
    """On a clamp with two maximal interpretations of different sizes,
    compare lists them as enumerate_interpretations does, largest first."""
    net = validate_network(NetworkSpec(AMBIGUOUS_SPEC.concepts + (ConceptSpec("Q3", 2, (("Z",),)),)))
    report = compare_with_oracle(net)
    assert report.cases == compare_reference(net, EngineParams()).cases
    case = case_for(report, net, ("a", "b"))
    assert [names_of(net, s) for s in case.maximal] == [["Q2", "Q3", "Z"], ["Q1", "X"]]


def test_report_is_deterministic(net):
    assert compare_with_oracle(net) == compare_with_oracle(net)


@pytest.mark.parametrize("network", [
    pytest.param(lambda: shipped("salt.json"), id="salt"),
    pytest.param(lambda: shipped("caramel.json"), id="caramel"),
    *[pytest.param(lambda seed=seed: random_network(seed), id=f"netgen-{seed}") for seed in range(10)],
])
def test_report_equality_builds_no_case_result(monkeypatch, network):
    """Reports compare by their bottom and outcome planes: with CaseResult
    refusing to be built, two compares of a net are equal, and equal to the
    per-clamp reference built beforehand."""
    net = network()
    reference = compare_reference(net, EngineParams())

    def refuse(*fields):
        raise AssertionError("a CaseResult was built")

    monkeypatch.setattr(compare, "CaseResult", refuse)
    assert compare_with_oracle(net) == compare_with_oracle(net)
    assert compare_with_oracle(net) == reference


def test_a_report_with_one_case_changed_is_unequal():
    net = shipped("caramel.json")
    reference = compare_reference(net, EngineParams())
    for i, case in enumerate(reference.cases):
        flipped = Agreement.DISAGREE if case.classification is Agreement.AGREE else Agreement.AGREE
        changed = list(reference.cases)
        changed[i] = dataclasses.replace(case, classification=flipped)
        assert AgreementReport(changed) != reference, i
        assert AgreementReport(changed) != compare_with_oracle(net), i


def test_built_cases_must_come_in_case_order():
    """AgreementReport(cases) reads bottom[j] off the clamp of case 1 << j
    and refuses cases out of case order, or not 2^b of them."""
    cases = compare_reference(shipped("salt.json"), EngineParams()).cases
    assert AgreementReport(cases).cases == cases
    for bad in (cases[::-1], cases[:1] + cases[2:] + cases[1:2], cases[:-1], cases[:3], cases + cases[:1], ()):
        with pytest.raises(ValueError, match="in case order"):
            AgreementReport(bad)


@pytest.mark.parametrize("kind", ["AGREE", None, 0, Termination.FIXED_POINT])
def test_count_refuses_what_is_not_an_agreement(net, kind):
    with pytest.raises(KeyError):
        compare_with_oracle(net).count(kind)
