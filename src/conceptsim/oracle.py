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
candidates: _above, the one search, extends the active set of one layer by
every consistent choice above it. It tests patterns with integer bit
operations: active sets and patterns are int bitmasks over concept ids, and
each pattern's threshold is the exact integer count
model.pattern_need(size, tau), so the verdicts are those of the Fraction-based
pattern_state. Only the survivors get a full ConsistencyReport, built by
interpretation_consistent: the one statement of the rule, through
pattern_state, that returns each inferred concept's pattern evidence and the
unexpected elements, and so the one call that says why an interpretation is or
is not consistent.

Only the layer-1 choice depends on the clamp, so compare takes the oracle's
answer for all 2^b clamps from _interpretations_by_clamp: it decides layer 1
for every clamp at once on bit planes, and runs _above from layer 2 up once
per layer-1 choice, memoized across clamps. Which interpretations are maximal,
and in what order they are reported, is stated once, by _maximal and _order,
for enumerate_interpretations and compare alike.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import AbstractSet, Mapping

from .errors import BottomConcept, NonBottomClamp, TooLarge
from .model import DEFAULT_TAU, ConceptId, ValidatedNetwork, _at_least, _bottom_planes, _ids, pattern_state

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


def _check_enumerable(net: ValidatedNetwork) -> None:
    """Refuse a net beyond DEFAULT_ENUMERATION_LIMIT non-bottom concepts."""
    if len(net.non_bottom) > DEFAULT_ENUMERATION_LIMIT:
        raise TooLarge(
            f"{len(net.non_bottom)} non-bottom concepts exceed the enumeration limit "
            f"of {DEFAULT_ENUMERATION_LIMIT}"
        )


def _above(
    net: ValidatedNetwork,
    layer: int,
    below: int,
    needs: tuple[tuple[int, ...], ...],
    memo: dict[tuple[int, int], list[int]],
) -> list[int]:
    """Every choice of concepts on `layer` and above, as a bitmask, that
    explains `below`, the active set one layer down, consistently.

    A layer-L concept is allowed (locally consistent) when, against `below`,
    some pattern m has m & below == m and none has fewer present but
    (m & below).bit_count() >= its need. An active concept of `below` is
    explained only by an applicable pattern of a chosen concept, and an
    allowed concept's applicable patterns are its Complete ones. So a choice
    of allowed concepts is kept when their Complete patterns cover `below`,
    dropped as soon as the undecided ones cannot, and extended by every
    choice above that explains it in turn. Results are kept in memo, keyed by
    (layer, below), since they depend on nothing else.
    """
    found = memo.get((layer, below))
    if found is not None:
        return found
    found = memo[layer, below] = []
    if layer > net.max_layer:
        found.append(0)
        return found
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
            found.extend(layer_bits | bits for bits in _above(net, layer + 1, layer_bits, needs, memo))
            return
        c, covers = allowed[i]
        pick(i + 1, layer_bits | 1 << c, covered | covers)
        pick(i + 1, layer_bits, covered)

    pick(0, 0, 0)
    return found


def _order(bits: int) -> tuple[int, list[int]]:
    """The oracle's order on interpretations: descending size, then ascending ids."""
    return -bits.bit_count(), _ids(bits)


def _maximal(family: list[int]) -> list[int]:
    """The members of a family of interpretations, as bitmasks, that lie
    inside no other member, in the oracle's order."""
    return sorted((s for s in family if not any(s | t == t != s for t in family)), key=_order)


def enumerate_interpretations(
    net: ValidatedNetwork,
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> list[ConsistencyReport]:
    """All consistent interpretations, largest first, maximal ones flagged.

    Raises TooLarge beyond DEFAULT_ENUMERATION_LIMIT non-bottom concepts
    rather than sampling silently, and NonBottomClamp for a clamped id above
    layer 0. Order: descending size, then ascending id tuple.

    Interpretations are built one layer at a time, bottom up, by _above, the
    search compare also runs above layer 1, with the clamp as layer 0's
    active set. Every pattern of a layer-L concept lies on layer L-1, so each
    condition of the rule that involves a layer-L concept reads only layers
    L-1 and L. Survivors are reported through interpretation_consistent, so
    the result is the one the Fraction-based rule gives.
    """
    _check_enumerable(net)
    clamp_bits = 0
    for e in clamped:
        if net.layer(e) != 0:
            raise NonBottomClamp(f"{net.name(e)!r} is not a layer-0 concept")
        clamp_bits |= 1 << e
    found = sorted(_above(net, 1, clamp_bits, net.pattern_needs(tau), {}), key=_order)
    maximal = set(_maximal(found))
    return [
        replace(interpretation_consistent(net, frozenset(_ids(bits)), clamped, tau), maximal=bits in maximal)
        for bits in found
    ]


def _interpretations_by_clamp(net: ValidatedNetwork, tau: float) -> list[list[int]]:
    """Every consistent interpretation of every clamp of compare, as bitmasks.

    Case i clamps net.bottom[j] for each bit j of i, and the result's entry i
    holds, in no set order, the interpretations enumerate_interpretations
    finds for that clamp. Only layer 1 depends on the clamp, so it is decided
    for all clamps at once, on planes: ints whose bit i is a value under case
    i. A pattern is Complete where all its element planes are set, and
    applicable where their saturating count reaches its need; a concept is
    allowed where some pattern is Complete and none applicable but
    incomplete. The choices S1 of layer-1 concepts are then searched as in
    _above, on a plane `live` of the clamps where every chosen concept is
    allowed and every clamped element is covered by a chosen Complete pattern
    or can still be; a branch ends when live is 0. At each choice, _above
    gives the completions from layer 2 up once, with one memo for all
    choices, and they join the family of every clamp left in live. The
    caller checks the enumeration limit first, and tau lies in (0, 1], as
    EngineParams.validate() requires, so every need is at least 1.
    """
    planes = _bottom_planes(net)
    cases = 1 << len(planes)
    if net.max_layer < 1:
        return [[0] for _ in range(cases)]
    ones = (1 << cases) - 1
    position = {e: j for j, e in enumerate(net.bottom)}
    needs = net.pattern_needs(tau)
    concepts = net.layers[1]
    # per layer-1 concept: the clamps where it is allowed, and per bottom
    # position the clamps where, allowed, a Complete pattern of it covers it
    allowed: list[int] = []
    covers: list[dict[int, int]] = []
    for c in concepts:
        complete_any = violated = 0
        cover: dict[int, int] = {}
        for mask, need in zip(net.masks[c], needs[c]):
            js = [position[e] for e in _ids(mask)]
            complete = ones
            for j in js:
                complete &= planes[j]
            applicable = _at_least((planes[j] for j in js), need, [ones] + [0] * need)[need]
            violated |= applicable & (ones ^ complete)
            complete_any |= complete
            for j in js:
                cover[j] = cover.get(j, 0) | complete
        ok = complete_any & (ones ^ violated)
        allowed.append(ok)
        covers.append({j: plane & ok for j, plane in cover.items() if plane & ok})
    # unreach[i][j]: the clamps where concepts[i:] cannot cover bottom[j]
    unreach = [[ones] * len(planes)]
    for cover in reversed(covers):
        row = unreach[0].copy()
        for j, plane in cover.items():
            row[j] &= ones ^ plane
        unreach.insert(0, row)
    family: list[list[int]] = [[] for _ in range(cases)]
    memo: dict[tuple[int, int], list[int]] = {}

    def pick(i: int, layer_bits: int, live: int, uncovered: list[int]) -> None:
        """uncovered[j]: the clamps of bottom[j] that no chosen concept covers;
        within live, each is reachable from concepts[i:]."""
        if i == len(concepts):
            above = _above(net, 2, layer_bits, needs, memo)
            if above:
                chosen = [layer_bits | bits for bits in above]
                for case in _ids(live):
                    family[case] += chosen
            return
        # choosing concepts[i] needs no coverage recheck: what it covers is
        # exactly what leaves the reach
        took = live & allowed[i]
        if took:
            rest = uncovered.copy()
            for j, plane in covers[i].items():
                rest[j] &= ones ^ plane
            pick(i + 1, layer_bits | 1 << concepts[i], took, rest)
        # skipping it leaves the reach smaller only on its own elements
        for j in covers[i]:
            live &= ones ^ (uncovered[j] & unreach[i + 1][j])
        if live:
            pick(i + 1, layer_bits, live, uncovered)

    live = ones
    for j, plane in enumerate(planes):
        live &= ones ^ (plane & unreach[0][j])
    if live:
        pick(0, 0, live, planes)
    return family


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
