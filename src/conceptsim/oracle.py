"""Declarative, dynamics-free evaluation of the inference rule by brute force.

An interpretation (a set of inferred non-bottom concepts) is consistent with a
set of clamped layer-0 observations when every inferred concept has at least
one Complete pattern and no ApplicableIncomplete pattern, and every active
concept below the top layer is explained by an applicable pattern of some
inferred concept. This module enumerates all interpretations exhaustively and
serves as the ground truth the circuit dynamics are tested against; it knows
nothing about weights, inhibition, or time.

The enumeration tests every candidate with integer bit operations: active sets
and patterns are int bitmasks over concept ids, and each pattern's threshold
is the exact integer count model.pattern_need(size, tau), so the verdicts are
those of the Fraction-based pattern_state. Only the survivors get a full
ConsistencyReport, built by interpretation_consistent, which stays the slow,
readable statement of the rule.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import AbstractSet, Mapping

from .errors import BottomConcept, TooLarge
from .model import DEFAULT_TAU, ConceptId, ValidatedNetwork, pattern_state

#: Refuse to enumerate beyond this many non-bottom concepts (2^k subsets).
DEFAULT_ENUMERATION_LIMIT = 20


class OracleVerdict(Enum):
    IN_ALL_MAXIMAL = "InAllMaximal"
    IN_SOME_MAXIMAL = "InSomeMaximal"
    IN_NONE = "InNone"


@dataclass(frozen=True)
class ConceptCheck:
    """Local pattern evidence for one inferred concept."""

    complete_patterns: int
    violated_patterns: tuple[tuple[int, frozenset[ConceptId]], ...]

    @property
    def ok(self) -> bool:
        return self.complete_patterns >= 1 and not self.violated_patterns


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdict on one candidate interpretation against one clamped world."""

    interpretation: frozenset[ConceptId]
    consistent: bool
    per_concept: Mapping[ConceptId, ConceptCheck]
    unexpected: frozenset[ConceptId]
    maximal: bool = False


def effective_active(
    interpretation: AbstractSet[ConceptId],
    clamped: AbstractSet[ConceptId],
) -> frozenset[ConceptId]:
    """The active set an interpretation induces: clamped observations plus inferred concepts."""
    return frozenset(clamped) | frozenset(interpretation)


def concept_locally_consistent(
    net: ValidatedNetwork,
    cid: ConceptId,
    active: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> tuple[bool, ConceptCheck]:
    """At least one pattern Complete and no pattern ApplicableIncomplete.

    Returns the verdict together with the evidence: how many patterns are
    complete and, for each violated pattern, its ordinal and missing elements.
    """
    net._check(cid)
    if net.layer(cid) == 0:
        raise BottomConcept(f"{net.name(cid)!r} is a layer-0 observation, not an inferable concept")
    complete = 0
    violated: list[tuple[int, frozenset[ConceptId]]] = []
    for k, pat in enumerate(net.patterns_of(cid)):
        state = pattern_state(pat, active, tau)
        if state.complete:
            complete += 1
        elif state.applicable:
            violated.append((k, frozenset(pat.elements - active)))
    check = ConceptCheck(complete, tuple(violated))
    return check.ok, check


def unexpected_elements(
    net: ValidatedNetwork,
    interpretation: AbstractSet[ConceptId],
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> frozenset[ConceptId]:
    """Active concepts no inferred concept accounts for.

    An element counts as explained when it belongs to a pattern of an inferred
    concept whose state is at least applicable (an applicable pattern both
    predicts and explains). Concepts on the top occupied layer are exempt:
    nothing exists above them to explain them.
    """
    active = effective_active(interpretation, clamped)
    top = net.max_layer
    explained: set[ConceptId] = set()
    for c in interpretation:
        for pat in net.patterns_of(c):
            if pattern_state(pat, active, tau).applicable:
                explained.update(pat.elements)
    return frozenset(e for e in active if net.layer(e) < top and e not in explained)


def interpretation_consistent(
    net: ValidatedNetwork,
    interpretation: AbstractSet[ConceptId],
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> ConsistencyReport:
    """Full verdict: per-concept local consistency plus the unexpected-element check."""
    interp = frozenset(interpretation)
    active = effective_active(interp, clamped)
    per: dict[ConceptId, ConceptCheck] = {}
    all_ok = True
    for c in sorted(interp):
        ok, check = concept_locally_consistent(net, c, active, tau)
        per[c] = check
        all_ok = all_ok and ok
    unexpected = unexpected_elements(net, interp, clamped, tau)
    return ConsistencyReport(
        interpretation=interp,
        consistent=all_ok and unexpected == frozenset(),
        per_concept=per,
        unexpected=unexpected,
    )


#: (concept id, ((pattern mask, need), ...)) for one candidate concept
_Rule = tuple[ConceptId, tuple[tuple[int, int], ...]]


def _subsets(rules: list[_Rule]) -> list[tuple[int, tuple[_Rule, ...]]]:
    """(bitmask of the chosen concepts, chosen rules) for every subset of rules,
    in binary counting order with rules[0] as the lowest bit."""
    out: list[tuple[int, tuple[_Rule, ...]]] = [(0, ())]
    for rule in rules:
        bit = 1 << rule[0]
        out += [(bits | bit, chosen + (rule,)) for bits, chosen in out]
    return out


def _bits_consistent(chosen: tuple[_Rule, ...], active: int, below_top: int) -> bool:
    """interpretation_consistent(...).consistent, on bitmasks.

    A consistent concept has only Complete and Off patterns, so the applicable
    patterns that explain elements are exactly the Complete ones.
    """
    explained = 0
    for _, patterns in chosen:
        complete = False
        for mask, need in patterns:
            hit = mask & active
            if hit == mask:
                complete = True
                explained |= mask
            elif hit.bit_count() >= need:
                return False
        if not complete:
            return False
    return not active & below_top & ~explained


def enumerate_interpretations(
    net: ValidatedNetwork,
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> list[ConsistencyReport]:
    """All consistent interpretations, largest first, maximal ones flagged.

    Iterates every subset of the non-bottom concepts; raises TooLarge beyond
    the configured limit rather than sampling silently. Order: descending
    size, then ascending id tuple.

    Each subset is filtered with bit tests on the induced active set: every
    chosen concept needs a pattern m with m & active == m (Complete) and none
    with fewer present but (m & active).bit_count() >= pattern_need(size, tau)
    (ApplicableIncomplete), and every active concept below the top layer must
    lie in a Complete pattern of a chosen concept. The thresholds are computed
    once per distinct pattern size, never per candidate. Survivors are then
    reported through interpretation_consistent, so the result is the one the
    Fraction-based rule gives.
    """
    candidates = net.non_bottom
    if len(candidates) > limit:
        raise TooLarge(
            f"{len(candidates)} non-bottom concepts exceed the enumeration limit of {limit}"
        )
    clamp_bits = 0
    for e in clamped:
        net._check(e)
        clamp_bits |= 1 << e
    needs = net.pattern_needs(tau)
    rules = [(c, tuple(zip(net.masks[c], needs[c]))) for c in candidates]
    below_top = net.below_top
    # each subset joins one subset of the low half with one of the high half;
    # listing the halves' subsets holds 2 * 2^(k/2) entries in memory, not 2^k
    half = len(rules) // 2
    low, high = _subsets(rules[:half]), _subsets(rules[half:])
    consistent: list[ConsistencyReport] = []
    for high_bits, high_chosen in high:
        for low_bits, low_chosen in low:
            chosen = low_chosen + high_chosen
            if _bits_consistent(chosen, clamp_bits | low_bits | high_bits, below_top):
                interp = frozenset(c for c, _ in chosen)
                consistent.append(interpretation_consistent(net, interp, clamped, tau))
    sets = [r.interpretation for r in consistent]
    out = [
        replace(r, maximal=not any(r.interpretation < other for other in sets))
        for r in consistent
    ]
    out.sort(key=lambda r: (-len(r.interpretation), tuple(sorted(r.interpretation))))
    return out


def oracle_verdicts(
    net: ValidatedNetwork,
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> dict[ConceptId, OracleVerdict]:
    """Summarize the enumeration per concept: member of all, some, or none of the maximal sets."""
    reports = enumerate_interpretations(net, clamped, tau, limit)
    maximal = [r.interpretation for r in reports if r.maximal]
    verdicts: dict[ConceptId, OracleVerdict] = {}
    for c in net.non_bottom:
        hits = sum(1 for m in maximal if c in m)
        if hits == 0:
            verdicts[c] = OracleVerdict.IN_NONE
        elif hits == len(maximal):
            verdicts[c] = OracleVerdict.IN_ALL_MAXIMAL
        else:
            verdicts[c] = OracleVerdict.IN_SOME_MAXIMAL
    return verdicts
