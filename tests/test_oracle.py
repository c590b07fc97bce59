"""The declarative oracle: local consistency, explaining away, enumeration."""
import random
from fractions import Fraction

import pytest

from conceptsim import (
    DEFAULT_TAU,
    ConceptSpec,
    NetworkSpec,
    OracleVerdict,
    enumerate_interpretations,
    interpretation_consistent,
    oracle,
    oracle_verdicts,
    parse_network_file,
    pattern_state,
    validate_network,
)
from conceptsim.errors import BadParams, BottomConcept, NonBottomClamp, TooLarge, UnknownConcept

from netgen import random_network
from reference import interpretation_consistent_reference
from specs import AMBIGUOUS_SPEC, CANONICAL_SPEC, DATA_DIR


def names_of(net, cids):
    return sorted(net.names[c] for c in cids)


def interp(net, *names):
    return frozenset(net.name_to_id[n] for n in names)


def test_locally_consistent_on_looks_alone(net, ids):
    report = interpretation_consistent(net, {ids["salt"]}, {ids["looking"], ids["white"]})
    check = report.per_concept[ids["salt"]]
    assert check.ok
    assert check.complete_patterns == 1
    assert check.violated_patterns == ()


def test_locally_inconsistent_when_tasting_without_salty(net, ids):
    report = interpretation_consistent(
        net, {ids["salt"]}, {ids["looking"], ids["white"], ids["tasting"]}
    )
    check = report.per_concept[ids["salt"]]
    assert not check.ok
    assert check.complete_patterns == 1
    assert check.violated_patterns == ((0, frozenset({ids["salty"]})),)


def test_locally_inconsistent_with_nothing_active(net, ids):
    check = interpretation_consistent(net, {ids["salt"]}, set()).per_concept[ids["salt"]]
    assert not check.ok
    assert check.complete_patterns == 0


def test_locally_consistent_rejects_bottom_and_unknown(net, ids):
    with pytest.raises(BottomConcept):
        interpretation_consistent(net, {ids["white"]}, set())
    with pytest.raises(UnknownConcept):
        interpretation_consistent(net, {42}, set())
    with pytest.raises(NonBottomClamp, match="^'salt' is not a layer-0 concept$"):
        interpretation_consistent(net, set(), {ids["salt"]})


@pytest.mark.parametrize("call", [
    lambda net, ids: enumerate_interpretations(net, {"looking"}),
    lambda net, ids: oracle_verdicts(net, {"looking"}),
    lambda net, ids: interpretation_consistent(net, {"sugar"}, set()),
    # sorted cannot order a str among ints
    lambda net, ids: interpretation_consistent(net, {ids["salt"], "sugar"}, set()),
    lambda net, ids: interpretation_consistent(net, set(), {ids["white"], "looking"}),
], ids=["enumerate", "oracle_verdicts", "inferred", "inferred_mixed", "clamped_mixed"])
def test_a_concept_id_that_is_not_an_int_is_unknown(net, ids, call):
    with pytest.raises(UnknownConcept, match="^no concept with id '(looking|sugar)'$"):
        call(net, ids)


def test_unexpected_elements_examples(net, ids):
    salt = interp(net, "salt")
    assert interpretation_consistent(net, salt, {ids["looking"], ids["white"]}).unexpected == frozenset()
    assert interpretation_consistent(net, frozenset(), {ids["white"]}).unexpected == {ids["white"]}
    assert interpretation_consistent(
        net, salt, {ids["looking"], ids["white"], ids["sweet"]}
    ).unexpected == {ids["sweet"]}


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


def too_large_net():
    """21 non-bottom concepts, one beyond the enumeration limit."""
    concepts = [ConceptSpec("e0", 0), ConceptSpec("e1", 0)]
    concepts += [ConceptSpec(f"c{i}", 1, (("e0", "e1"),)) for i in range(21)]
    return validate_network(NetworkSpec(tuple(concepts)))


def test_enumerate_too_large():
    with pytest.raises(TooLarge):
        enumerate_interpretations(too_large_net(), frozenset())


@pytest.mark.parametrize("query", [enumerate_interpretations, oracle_verdicts])
def test_non_bottom_clamp_is_refused(net, ids, query):
    # the engine's apply_clamp refuses the same clamp with the same message
    with pytest.raises(NonBottomClamp, match="'salt' is not a layer-0 concept"):
        query(net, {ids["looking"], ids["salt"]})


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("tau", NON_FINITE)
@pytest.mark.parametrize("names", [(), ("salt",)])
def test_interpretation_consistent_refuses_a_non_finite_tau(net, ids, names, tau):
    """Also where no pattern is evaluated, the empty interpretation, and
    before any other check: an unknown inferred id, a clamp above layer 0."""
    inferred = {ids[n] for n in names}
    clamped = {ids["looking"], ids["white"], ids["tasting"]}
    for args in ((inferred, clamped), (inferred | {99}, clamped), (inferred, clamped | {ids["sugar"]})):
        with pytest.raises(BadParams, match="^tau is not finite$"):
            interpretation_consistent(net, *args, tau)


@pytest.mark.parametrize("tau", NON_FINITE)
@pytest.mark.parametrize("names", [(), ("tasting", "salty")])
@pytest.mark.parametrize("query", [enumerate_interpretations, oracle_verdicts])
def test_enumeration_refuses_a_non_finite_tau(net, ids, query, names, tau):
    """The empty clamp, whose one consistent interpretation, the empty one,
    evaluates no pattern, and a nonempty one; and before any other check: a
    clamp above layer 0, a net too large to enumerate."""
    clamped = {ids[n] for n in names}
    for args in ((net, clamped), (net, clamped | {ids["salt"]}), (too_large_net(), frozenset())):
        with pytest.raises(BadParams, match="^tau is not finite$"):
            query(*args, tau)


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


def test_in_some_maximal_with_competing_parents():
    """Two maximal interpretations that cannot merge: inferring Z alongside Q1
    would make Q1's {Y, Z} pattern applicable but incomplete."""
    net = validate_network(AMBIGUOUS_SPEC)
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
    net = validate_network(AMBIGUOUS_SPEC)
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


# --- the one-pass rule against the three checks it replaced ---

TAUS = (0.5, 0.3, Fraction(2, 3), 1.0)


def outcome(check, *args):
    """A report with its repr, which shows the order of every set, or the
    type and message of the exception raised."""
    try:
        report = check(*args)
    except Exception as e:  # the error itself is the outcome
        return type(e), str(e)
    return report, repr(report)


def subsets(ids):
    for mask in range(1 << len(ids)):
        yield frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)


def nets_and_taus():
    yield pytest.param(validate_network(CANONICAL_SPEC), DEFAULT_TAU, id="salt")
    yield pytest.param(validate_network(AMBIGUOUS_SPEC), DEFAULT_TAU, id="ambiguous")
    caramel = parse_network_file((DATA_DIR / "caramel.json").read_text())
    yield pytest.param(validate_network(caramel), DEFAULT_TAU, id="caramel")
    for seed in range(12):
        yield pytest.param(random_network(seed), TAUS[seed % len(TAUS)], id=f"netgen{seed}")


@pytest.mark.parametrize("net, tau", nets_and_taus())
def test_interpretation_consistent_matches_reference_on_every_pair(net, tau):
    for clamped in subsets(net.bottom):
        for inferred in subsets(net.non_bottom):
            want = outcome(interpretation_consistent_reference, net, inferred, clamped, tau)
            assert outcome(interpretation_consistent, net, inferred, clamped, tau) == want


@pytest.mark.parametrize("seed", range(12))
def test_interpretation_consistent_matches_reference_on_bad_ids(seed):
    """Out-of-range and layer-0 ids among the inferred ones, out-of-range ids
    in the clamp: the same exception, with the same message, as the three checks."""
    net = random_network(seed)
    rng = random.Random(seed * 17 + 3)
    n = net.n_concepts
    bad = [-3, -1, n, n + 1, n + 40]
    for _ in range(60):
        inferred = set(rng.sample(net.non_bottom, rng.randint(0, len(net.non_bottom))))
        clamped = set(rng.sample(net.bottom, rng.randint(0, len(net.bottom))))
        for _ in range(rng.randint(1, 3)):
            target = rng.choice((inferred, clamped))
            target.add(rng.choice(bad + list(net.bottom) + list(net.non_bottom)))
        want = outcome(interpretation_consistent_reference, net, inferred, clamped)
        assert outcome(interpretation_consistent, net, inferred, clamped) == want


def test_interpretation_consistent_evaluates_each_pattern_once(monkeypatch):
    """Local consistency and the explained set read one pattern_state per
    pattern of each inferred concept."""
    net = validate_network(AMBIGUOUS_SPEC)
    calls = []

    def counted(pattern, active, tau):
        calls.append(pattern)
        return pattern_state(pattern, active, tau)

    monkeypatch.setattr(oracle, "pattern_state", counted)
    for clamped in subsets(net.bottom):
        for inferred in subsets(net.non_bottom):
            calls.clear()
            interpretation_consistent(net, inferred, clamped)
            assert sorted(map(id, calls)) == sorted(
                id(pat) for c in inferred for pat in net.patterns[c]
            )
