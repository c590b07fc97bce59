"""Exhaustive dynamics-vs-oracle comparison."""
from dataclasses import replace

import pytest

from conceptsim import (
    Agreement,
    ConceptSpec,
    Engine,
    EngineParams,
    NetworkSpec,
    Termination,
    compare_with_oracle,
    enumerate_interpretations,
    parse_network_file,
    validate_network,
)
from conceptsim import engine, oracle
from conceptsim.errors import TooLarge

from conftest import AMBIGUOUS_SPEC, DATA_DIR
from netgen import random_network, shuffled_network, synth_network
from reference import compare_reference


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

    monkeypatch.setattr(engine, "_clamp_planes", refuse)
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


def test_only_unsettled_clamps_run_on_the_engine(monkeypatch, net):
    """The planes settle every clamp that reaches a fixed point; Engine runs
    only the others, here the 31 clamps still changing after one sweep."""
    runs = []
    real_run = Engine.run_to_fixed_point

    def counted(self):
        runs.append(1)
        return real_run(self)

    monkeypatch.setattr(Engine, "run_to_fixed_point", counted)
    compare_with_oracle(net)
    assert runs == []
    report = compare_with_oracle(net, EngineParams(max_sweeps=1))
    assert len(runs) == sum(c.termination is not Termination.FIXED_POINT for c in report.cases) == 31


#: theta < 0 and a negative self-input: some clamps of netgen 3 and
#: shuffled 0 never settle, and their planes recur well before max_sweeps
CYCLING_PARAMS = EngineParams(w_ff=0.2, w_self=-0.2, w_lat=0.2, w_err=0.5, theta=-0.4, tau=0.2)


@pytest.mark.parametrize("network", [
    pytest.param(lambda: random_network(3), id="netgen-3"),
    pytest.param(lambda: shuffled_network(0), id="shuffled-0"),
])
def test_plane_run_stops_when_the_planes_recur(monkeypatch, network):
    """With some clamps in a cycle, the plane run ends at the first
    recurring state of all planes, not at max_sweeps: it does the same work
    under max_sweeps 64 and 128, counted in calls of engine._at_least, which
    every plane sweep makes. The cycling clamps are then rerun on Engine."""
    net = network()
    calls = []
    real = engine._at_least
    monkeypatch.setattr(engine, "_at_least", lambda *args: calls.append(1) or real(*args))
    counts = []
    for max_sweeps in (64, 128):
        calls.clear()
        settled = engine._clamp_planes(net, replace(CYCLING_PARAMS, max_sweeps=max_sweeps))
        counts.append(len(calls))
    assert None in settled and any(inferred is not None for inferred in settled)
    assert counts[0] == counts[1]
    report = compare_with_oracle(net, CYCLING_PARAMS)
    assert report.cases == compare_reference(net, CYCLING_PARAMS).cases
    assert {c.termination for c in report.cases} == {Termination.FIXED_POINT, Termination.CYCLE}


def mask_of(ids):
    return None if ids is None else sum(1 << c for c in ids)


@pytest.mark.parametrize("network", [
    pytest.param(lambda: shipped("caramel.json"), id="caramel"),
    pytest.param(lambda: synth_network((7, 5, 3), 0), id="synth-7/5/3"),
])
def test_each_distinct_outcome_is_classified_once(monkeypatch, network):
    """compare classifies each distinct pair of inferred set and family of
    consistent interpretations once, and the clamps share far fewer pairs
    than there are cases."""
    net = network()
    calls = []
    real = engine._classify

    def counted(inferred, family, top):
        calls.append((inferred, frozenset(family)))
        return real(inferred, family, top)

    monkeypatch.setattr(engine, "_classify", counted)
    report = compare_with_oracle(net)
    assert report.cases == compare_reference(net, EngineParams()).cases
    pairs = {
        (
            mask_of(case.inferred),
            frozenset(mask_of(r.interpretation) for r in enumerate_interpretations(net, case.clamp)),
        )
        for case in report.cases
    }
    assert set(calls) == pairs
    assert len(calls) == len(pairs) < len(report.cases)


@pytest.mark.parametrize("network", [
    pytest.param(lambda: shipped("caramel.json"), id="caramel"),
    pytest.param(lambda: synth_network((7, 5, 3), 0), id="synth-7/5/3"),
])
def test_each_family_and_inferred_set_is_built_once(monkeypatch, network):
    """compare finds the maximal sets of each distinct family once, not once
    per inferred set that meets it: the cases of one family share one tuple
    of maximal sets, and the cases of one inferred set share one frozenset."""
    net = network()
    families = []
    real = oracle._maximal

    def counted(family):
        families.append(frozenset(family))
        return real(family)

    monkeypatch.setattr(oracle, "_maximal", counted)
    report = compare_with_oracle(net)
    monkeypatch.undo()
    assert report.cases == compare_reference(net, EngineParams()).cases
    assert len(families) == len(set(families))
    distinct = {
        frozenset(mask_of(r.interpretation) for r in enumerate_interpretations(net, case.clamp))
        for case in report.cases
    }
    assert set(families) == distinct
    pairs = {(case.inferred, case.maximal) for case in report.cases}
    assert len(families) < len(pairs)
    inferred = {case.inferred for case in report.cases}
    assert len({id(case.inferred) for case in report.cases}) == len(inferred)
    assert len({id(case.maximal) for case in report.cases}) == len(families)


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
