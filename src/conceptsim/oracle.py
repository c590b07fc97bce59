"""Declarative, dynamics-free evaluation of the inference rule.

An interpretation (a set of inferred non-bottom concepts) is consistent with a
set of clamped layer-0 observations when every inferred concept has at least
one Complete pattern and no ApplicableIncomplete pattern, and every active
concept below the top layer is explained by an applicable pattern of some
inferred concept. This module enumerates every consistent interpretation and
serves as the ground truth the circuit dynamics are tested against; it knows
nothing about weights, inhibition, or time.

Every pattern of a layer-L concept lies on layer L-1, so whether a layer-L
concept is consistent, and whether the active concepts of layer L-1 are
explained, depends only on layers L-1 and L. The enumeration therefore builds
interpretations one layer at a time, bottom up, and never lists the 2^k
candidates. It tests patterns with integer bit operations: active sets and
patterns are int bitmasks over concept ids, and each pattern's threshold is the
exact integer count model.pattern_need(size, tau), so the verdicts are those of
the Fraction-based pattern_state. Only the survivors get a full
ConsistencyReport, built by interpretation_consistent, which stays the slow,
readable statement of the rule.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import AbstractSet, Mapping

from .errors import BottomConcept, NonBottomClamp, TooLarge
from .model import DEFAULT_TAU, ConceptId, ValidatedNetwork, pattern_state

#: Refuse to enumerate beyond this many non-bottom concepts (up to 2^k choices).
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


def enumerate_interpretations(
    net: ValidatedNetwork,
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> list[ConsistencyReport]:
    """All consistent interpretations, largest first, maximal ones flagged.

    Raises TooLarge beyond DEFAULT_ENUMERATION_LIMIT non-bottom concepts
    rather than sampling silently, and NonBottomClamp for a clamped id above
    layer 0. Order: descending size, then ascending id tuple.

    Interpretations are built one layer at a time, bottom up, with the clamp
    as layer 0's active set. Every pattern of a layer-L concept lies on layer
    L-1, so each condition of the rule that involves a layer-L concept reads
    only layers L-1 and L. It is allowed (locally consistent) when, against
    layer L-1's active set `below`, some pattern m has m & below == m and none
    has fewer present but (m & below).bit_count() >= pattern_need(size, tau).
    An active layer-(L-1) concept is explained only by an applicable pattern
    of a chosen layer-L concept, and an allowed concept's applicable patterns
    are its Complete ones. So a choice of allowed layer-L concepts is kept when
    their Complete patterns cover `below`, and dropped as soon as the undecided
    ones cannot. Survivors are reported through interpretation_consistent, so
    the result is the one the Fraction-based rule gives.
    """
    candidates = net.non_bottom
    if len(candidates) > DEFAULT_ENUMERATION_LIMIT:
        raise TooLarge(
            f"{len(candidates)} non-bottom concepts exceed the enumeration limit "
            f"of {DEFAULT_ENUMERATION_LIMIT}"
        )
    clamp_bits = 0
    for e in clamped:
        if net.layer(e) != 0:
            raise NonBottomClamp(f"{net.name(e)!r} is not a layer-0 concept")
        clamp_bits |= 1 << e
    needs = net.pattern_needs(tau)
    consistent: list[ConsistencyReport] = []

    def choose_layer(layer: int, below: int, chosen: int) -> None:
        """Extend chosen, the bits of layers below `layer`, by every choice on
        `layer` and above that explains below, the active set one layer down."""
        if layer > net.max_layer:
            interp = frozenset(c for c in candidates if chosen >> c & 1)
            consistent.append(interpretation_consistent(net, interp, clamped, tau))
            return
        # (concept, union of its Complete patterns) for each allowed concept
        allowed: list[tuple[ConceptId, int]] = []
        for c in net.layers[layer]:
            covers = 0
            for mask, need in zip(net.masks[c], needs[c]):
                hit = mask & below
                if hit == mask:
                    covers |= mask
                elif hit.bit_count() >= need:
                    break  # ApplicableIncomplete
            else:
                if covers:  # at least one Complete pattern
                    allowed.append((c, covers))
        # reach[i]: what allowed[i:] can still cover
        reach = [0] * (len(allowed) + 1)
        for i in reversed(range(len(allowed))):
            reach[i] = reach[i + 1] | allowed[i][1]

        def pick(i: int, layer_bits: int, covered: int) -> None:
            if below & ~(covered | reach[i]):
                return
            if i == len(allowed):
                choose_layer(layer + 1, layer_bits, chosen | layer_bits)
                return
            c, covers = allowed[i]
            pick(i + 1, layer_bits | 1 << c, covered | covers)
            pick(i + 1, layer_bits, covered)

        pick(0, 0, 0)

    choose_layer(1, clamp_bits, 0)
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
) -> dict[ConceptId, OracleVerdict]:
    """Summarize the enumeration per concept: member of all, some, or none of the maximal sets."""
    reports = enumerate_interpretations(net, clamped, tau)
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
