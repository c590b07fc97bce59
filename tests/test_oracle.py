"""The declarative oracle: local consistency, explaining away, enumeration."""
import random

import pytest

from conceptsim import (
    ConceptSpec,
    NetworkSpec,
    OracleVerdict,
    concept_locally_consistent,
    effective_active,
    enumerate_interpretations,
    interpretation_consistent,
    oracle_verdicts,
    unexpected_elements,
    validate_network,
)
from conceptsim.errors import BottomConcept, NonBottomClamp, TooLarge, UnknownConcept

from netgen import random_network


def names_of(net, cids):
    return sorted(net.names[c] for c in cids)


def interp(net, *names):
    return frozenset(net.name_to_id[n] for n in names)


def test_effective_active_is_union(net, ids):
    assert effective_active({ids["salt"]}, {ids["looking"], ids["white"]}) == {
        ids["looking"], ids["white"], ids["salt"],
    }
    assert effective_active(set(), set()) == frozenset()


def test_effective_active_three_layer():
    net = validate_network(NetworkSpec((
        ConceptSpec("tasting", 0), ConceptSpec("salty", 0),
        ConceptSpec("salt", 1, (("tasting", "salty"),)),
        ConceptSpec("anchovy", 2, (("salt",),)),
    )))
    t, s = net.id_of("tasting"), net.id_of("salty")
    got = effective_active({net.id_of("salt"), net.id_of("anchovy")}, {t, s})
    assert got == {t, s, net.id_of("salt"), net.id_of("anchovy")}


def test_locally_consistent_on_looks_alone(net, ids):
    ok, check = concept_locally_consistent(net, ids["salt"], {ids["looking"], ids["white"]})
    assert ok
    assert check.complete_patterns == 1
    assert check.violated_patterns == ()


def test_locally_inconsistent_when_tasting_without_salty(net, ids):
    ok, check = concept_locally_consistent(
        net, ids["salt"], {ids["looking"], ids["white"], ids["tasting"]}
    )
    assert not ok
    assert check.complete_patterns == 1
    assert check.violated_patterns == ((0, frozenset({ids["salty"]})),)


def test_locally_inconsistent_with_nothing_active(net, ids):
    ok, check = concept_locally_consistent(net, ids["salt"], set())
    assert not ok
    assert check.complete_patterns == 0


def test_locally_consistent_rejects_bottom_and_unknown(net, ids):
    with pytest.raises(BottomConcept):
        concept_locally_consistent(net, ids["white"], set())
    with pytest.raises(UnknownConcept):
        concept_locally_consistent(net, 42, set())


def test_unexpected_elements_examples(net, ids):
    salt = interp(net, "salt")
    assert unexpected_elements(net, salt, {ids["looking"], ids["white"]}) == frozenset()
    assert unexpected_elements(net, frozenset(), {ids["white"]}) == {ids["white"]}
    assert unexpected_elements(
        net, salt, {ids["looking"], ids["white"], ids["sweet"]}
    ) == {ids["sweet"]}


def test_interpretation_consistent_examples(net, ids):
    report = interpretation_consistent(net, interp(net, "salt"), {ids["looking"], ids["white"]})
    assert report.consistent
    assert report.unexpected == frozenset()

    report = interpretation_consistent(
        net, interp(net, "salt"), {ids["looking"], ids["white"], ids["tasting"]}
    )
    assert not report.consistent
    assert report.per_concept[ids["salt"]].violated_patterns == ((0, frozenset({ids["salty"]})),)

    report = interpretation_consistent(net, frozenset(), frozenset())
    assert report.consistent
    assert report.per_concept == {}


def test_enumerate_looking_white(net, ids):
    reports = enumerate_interpretations(net, {ids["looking"], ids["white"]})
    found = [(names_of(net, r.interpretation), r.maximal) for r in reports]
    assert found == [
        (["salt", "sugar"], True),
        (["salt"], False),
        (["sugar"], False),
    ]


def test_enumerate_tasting_salty(net, ids):
    reports = enumerate_interpretations(net, {ids["tasting"], ids["salty"]})
    assert [names_of(net, r.interpretation) for r in reports] == [["salt"]]
    assert reports[0].maximal


def test_enumerate_empty_world(net):
    reports = enumerate_interpretations(net, frozenset())
    assert len(reports) == 1
    assert reports[0].interpretation == frozenset()
    assert reports[0].maximal


def test_enumerate_no_consistent_interpretation(net, ids):
    # a lone applicable-incomplete cue leaves nothing consistent: the empty
    # interpretation cannot explain it and every concept would be violated
    assert enumerate_interpretations(net, {ids["looking"]}) == []


def test_enumerate_too_large():
    concepts = [ConceptSpec("e0", 0), ConceptSpec("e1", 0)]
    concepts += [ConceptSpec(f"c{i}", 1, (("e0", "e1"),)) for i in range(21)]
    net = validate_network(NetworkSpec(tuple(concepts)))
    with pytest.raises(TooLarge):
        enumerate_interpretations(net, frozenset())


@pytest.mark.parametrize("query", [enumerate_interpretations, oracle_verdicts])
def test_non_bottom_clamp_is_refused(net, ids, query):
    # the engine's apply_clamp refuses the same clamp with the same message
    with pytest.raises(NonBottomClamp, match="'salt' is not a layer-0 concept"):
        query(net, {ids["looking"], ids["salt"]})


def test_oracle_verdicts_examples(net, ids):
    assert oracle_verdicts(net, {ids["tasting"], ids["salty"]}) == {
        ids["salt"]: OracleVerdict.IN_ALL_MAXIMAL,
        ids["sugar"]: OracleVerdict.IN_NONE,
    }
    assert oracle_verdicts(net, {ids["looking"], ids["white"]}) == {
        ids["salt"]: OracleVerdict.IN_ALL_MAXIMAL,
        ids["sugar"]: OracleVerdict.IN_ALL_MAXIMAL,
    }
    assert oracle_verdicts(net, frozenset()) == {
        ids["salt"]: OracleVerdict.IN_NONE,
        ids["sugar"]: OracleVerdict.IN_NONE,
    }


AMBIGUOUS = NetworkSpec((
    ConceptSpec("a", 0), ConceptSpec("b", 0), ConceptSpec("c", 0), ConceptSpec("d", 0),
    ConceptSpec("X", 1, (("a", "b"),)),
    ConceptSpec("Y", 1, (("c", "d"),)),
    ConceptSpec("Z", 1, (("a", "b"),)),
    ConceptSpec("Q1", 2, (("X",), ("Y", "Z"))),
    ConceptSpec("Q2", 2, (("Z",),)),
))


def test_in_some_maximal_with_competing_parents():
    """Two maximal interpretations that cannot merge: inferring Z alongside Q1
    would make Q1's {Y, Z} pattern applicable but incomplete."""
    net = validate_network(AMBIGUOUS)
    clamp = {net.id_of("a"), net.id_of("b")}
    maximal = [
        names_of(net, r.interpretation)
        for r in enumerate_interpretations(net, clamp)
        if r.maximal
    ]
    assert sorted(maximal) == [["Q1", "X"], ["Q2", "Z"]]
    verdicts = oracle_verdicts(net, clamp)
    assert verdicts[net.id_of("X")] is OracleVerdict.IN_SOME_MAXIMAL
    assert verdicts[net.id_of("Q1")] is OracleVerdict.IN_SOME_MAXIMAL
    assert verdicts[net.id_of("Y")] is OracleVerdict.IN_NONE


def test_mid_layer_concepts_need_explanation():
    """An inferred mid-layer concept with no inferred parent is unexpected."""
    net = validate_network(AMBIGUOUS)
    clamp = frozenset({net.id_of("a"), net.id_of("b")})
    report = interpretation_consistent(net, {net.id_of("X")}, clamp)
    assert not report.consistent
    assert report.unexpected == {net.id_of("X")}


def test_monotone_violation_by_enumeration(net, ids):
    """An applicable-incomplete violation persists under any clamp superset
    that does not complete the violated pattern."""
    bottom = list(net.bottom)
    candidates = net.non_bottom
    for clamp_mask in range(1 << len(bottom)):
        clamped = frozenset(bottom[i] for i in range(len(bottom)) if clamp_mask >> i & 1)
        for interp_mask in range(1 << len(candidates)):
            inferred = frozenset(
                candidates[i] for i in range(len(candidates)) if interp_mask >> i & 1
            )
            report = interpretation_consistent(net, inferred, clamped)
            violated = [
                (c, k, missing)
                for c, check in report.per_concept.items()
                for k, missing in check.violated_patterns
            ]
            if not violated:
                continue
            for extra_mask in range(1 << len(bottom)):
                superset = clamped | frozenset(
                    bottom[i] for i in range(len(bottom)) if extra_mask >> i & 1
                )
                still_violated = any(
                    not missing <= superset for _, _, missing in violated
                )
                if still_violated:
                    assert not interpretation_consistent(net, inferred, superset).consistent


@pytest.mark.parametrize("seed", range(8))
def test_empty_world_law_random(seed):
    net = random_network(seed)
    reports = enumerate_interpretations(net, frozenset())
    assert [r.interpretation for r in reports] == [frozenset()]


@pytest.mark.parametrize("seed", range(8))
def test_explanation_soundness_random(seed):
    """Every consistent report has unexpected == the empty set, exactly."""
    net = random_network(seed)
    rng = random.Random(seed * 31 + 7)
    for _ in range(10):
        clamped = frozenset(e for e in net.bottom if rng.random() < 0.5)
        for report in enumerate_interpretations(net, clamped):
            assert report.consistent
            assert report.unexpected == frozenset()


def test_oracle_is_pure(net, ids):
    clamp = {ids["looking"], ids["white"], ids["sweet"]}
    first = enumerate_interpretations(net, clamp)
    second = enumerate_interpretations(net, clamp)
    assert first == second
    assert oracle_verdicts(net, clamp) == oracle_verdicts(net, clamp)
