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
ConsistencyReport, built by interpretation_consistent: the one statement of the
rule, through pattern_state, that returns each inferred concept's pattern
evidence and the unexpected elements, and so the one call that says why an
interpretation is or is not consistent.
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


def interpretation_consistent(
    net: ValidatedNetwork,
    interpretation: AbstractSet[ConceptId],
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> ConsistencyReport:
    """The rule, stated once: a verdict on one interpretation with its evidence.

    The active set is the clamp plus the interpretation. Each inferred concept
    is locally consistent when at least one of its patterns is Complete and
    none is ApplicableIncomplete; per_concept records, in ascending id order,
    how many are complete and, for each violated pattern, its ordinal and
    missing elements. An active concept below the top layer is unexpected
    unless it belongs to an applicable pattern of an inferred concept (an
    applicable pattern both predicts and explains); nothing exists above the
    top layer to explain it. Each pattern is evaluated once, and that one
    state feeds both tests.

    Raises UnknownConcept or BottomConcept for the first bad inferred id in
    ascending order, then UnknownConcept for a bad clamped id.
    """
    interp = frozenset(interpretation)
    active = frozenset(clamped) | interp
    per: dict[ConceptId, ConceptCheck] = {}
    explained: set[ConceptId] = set()
    for c in sorted(interp):
        if net.layer(c) == 0:
            raise BottomConcept(f"{net.name(c)!r} is a layer-0 observation, not an inferable concept")
        complete = 0
        violated: list[tuple[int, frozenset[ConceptId]]] = []
        for k, pat in enumerate(net.patterns[c]):
            state = pattern_state(pat, active, tau)
            if state.applicable:
                explained.update(pat.elements)
                if state.complete:
                    complete += 1
                else:
                    violated.append((k, frozenset(pat.elements - active)))
        per[c] = ConceptCheck(complete, tuple(violated))
    for e in active:  # the clamped ids, before layer_of is indexed by them
        net._check(e)
    top = net.max_layer
    unexpected = frozenset(e for e in active if net.layer_of[e] < top and e not in explained)
    return ConsistencyReport(
        interpretation=interp,
        consistent=not unexpected and all(check.ok for check in per.values()),
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
