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
candidates. _search, the one search, does so for many cases at once on
planes, ints whose bit i is a value under case i (bit-slicing, as in Biham,
FSE 1997): it decides every layer-L concept for all cases together, with each
pattern's threshold the exact integer count model.pattern_need(size, tau), as
in pattern_state, and searches the layer above once for all the surviving
choices, each choice one case there.
It returns each consistent interpretation with the plane of the cases it is
consistent in. enumerate_interpretations runs it on one case, the clamp;
compare runs it on all 2^b clamps. Only the survivors get a full
ConsistencyReport, built by interpretation_consistent: the one statement of
the rule, through pattern_state, that returns each inferred concept's pattern
evidence and the unexpected elements, and so the one call that says why an
interpretation is or is not consistent. Which interpretations are maximal,
and in what order they are reported, is stated once, by _above, _maximal and
_order, for enumerate_interpretations and compare alike.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from operator import or_
from typing import AbstractSet, Mapping, NamedTuple

from .errors import BadParams, BottomConcept, TooLarge
from .model import DEFAULT_TAU, ConceptId, ValidatedNetwork, _ids, _reach, pattern_state

#: Refuse to enumerate beyond this many non-bottom concepts (up to 2^k choices).
DEFAULT_ENUMERATION_LIMIT = 20


class OracleVerdict(Enum):
    IN_ALL_MAXIMAL = "InAllMaximal"
    IN_SOME_MAXIMAL = "InSomeMaximal"
    IN_NONE = "InNone"


class ConceptCheck(NamedTuple):
    """Local pattern evidence for one inferred concept."""

    complete_patterns: int
    violated_patterns: tuple[tuple[int, frozenset[ConceptId]], ...]

    @property
    def ok(self) -> bool:
        return self.complete_patterns >= 1 and not self.violated_patterns


class ConsistencyReport(NamedTuple):
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

    Raises BadParams for a tau that is nan or infinite, then UnknownConcept
    for an inferred id that is not an int, then UnknownConcept or
    BottomConcept for the first bad inferred id in ascending order, then
    UnknownConcept for a bad clamped id, then NonBottomClamp for the first
    clamped id above layer 0 in ascending order.
    """
    if not -math.inf < tau < math.inf:
        raise BadParams("tau is not finite")
    interp = frozenset(interpretation)
    active = frozenset(clamped) | interp
    per: dict[ConceptId, ConceptCheck] = {}
    explained: set[ConceptId] = set()
    for c in interp:  # a non-int id first, which sorted cannot order among ints
        if not isinstance(c, int):
            net._check(c)
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
                    violated.append((k, state.missing))
        per[c] = ConceptCheck(complete, tuple(violated))
    for e in active:  # the clamped ids, before layer_of is indexed by them
        net._check(e)
    for e in sorted(clamped):
        net._check_clamped(e)
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


def _search(
    net: ValidatedNetwork,
    below: dict[ConceptId, int],
    cases: int,
    tau: float,
    layer: int = 1,
) -> dict[int, int]:
    """Every consistent choice of concepts on `layer` and above, as a bitmask,
    mapped to the plane of the cases it is consistent in, never 0.

    below maps each concept of the layer under `layer` that is active in some
    of the `cases` cases to its plane, a nonzero int whose bit i is set in
    the cases where it is active.

    A layer-L concept is allowed (locally consistent) where some pattern is
    Complete, all its element planes set, and none is applicable but
    incomplete, a saturating count of them reaching its need. An active
    concept one layer down is explained only by an applicable pattern of a
    chosen concept, and an allowed concept's applicable patterns are its
    Complete ones. So the choices of allowed concepts are searched once for
    all cases, each on a plane `live` of the cases where every chosen concept
    is allowed and every active element is covered by a chosen Complete
    pattern or can still be; a branch ends when live is 0. The layer above is
    then searched once for every surviving choice, choice k as its case k, and
    each completion of choice k is consistent in the cases of its live.
    """
    if not cases or layer > net.max_layer:
        return {0: (1 << cases) - 1} if cases else {}  # above the top, nothing is left to explain
    ones = (1 << cases) - 1
    needs = net.pattern_needs(tau)
    # per concept allowed in some case: those cases, and per element it
    # covers, the cases where, allowed, a Complete pattern of it does
    concepts: list[ConceptId] = []
    allowed: list[int] = []
    covers: list[dict[ConceptId, int]] = []
    for c in net.layers[layer]:
        complete_any = violated = 0
        cover: dict[ConceptId, int] = {}
        for elems, need in zip(net.element_ids[c], needs[c]):
            present = [below[e] for e in elems if e in below]
            if len(present) < need:
                continue  # Off in every case
            complete = ones if len(present) == len(elems) else 0
            for plane in present:
                complete &= plane
            violated |= _reach(present, need, ones) & (ones ^ complete)
            if violated == ones:
                break  # refused in every case
            complete_any |= complete
            if complete:
                for e in elems:
                    cover[e] = cover.get(e, 0) | complete
        ok = complete_any & (ones ^ violated)
        if ok:
            concepts.append(c)
            allowed.append(ok)
            covers.append({e: plane & ok for e, plane in cover.items() if plane & ok})
    # unreach[i][e]: the cases where concepts[i:] cannot cover e
    unreach = [dict.fromkeys(below, ones)]
    for cover in reversed(covers):
        row = unreach[0].copy()
        for e, plane in cover.items():
            row[e] &= ones ^ plane
        unreach.insert(0, row)
    choices: list[tuple[int, int]] = []  # (chosen concepts, live)

    def pick(i: int, chosen: int, live: int, uncovered: dict[ConceptId, int]) -> None:
        """uncovered[e]: the cases of e that no chosen concept covers; within
        live, each is reachable from concepts[i:]."""
        if i == len(concepts):
            choices.append((chosen, live))
            return
        # choosing concepts[i] needs no coverage recheck: what it covers is
        # exactly what leaves the reach
        took = live & allowed[i]
        if took:
            rest = uncovered.copy()
            for e, plane in covers[i].items():
                rest[e] &= ones ^ plane
            pick(i + 1, chosen | 1 << concepts[i], took, rest)
        # skipping it leaves the reach smaller only on its own elements
        for e in covers[i]:
            live &= ones ^ (uncovered[e] & unreach[i + 1][e])
        if live:
            pick(i + 1, chosen, live, uncovered)

    live = ones
    for e, plane in below.items():
        live &= ones ^ (plane & unreach[0][e])
    if live:
        pick(0, 0, live, below)
    # the layer above, once for all choices: choice k is its case k
    up: dict[ConceptId, int] = {}
    for k, (chosen, _) in enumerate(choices):
        for c in _ids(chosen):
            up[c] = up.get(c, 0) | 1 << k
    found: dict[int, int] = {}
    for bits, plane in _search(net, up, len(choices), tau, layer + 1).items():
        for k in _ids(plane):
            # choices differ in their chosen concepts, so each completion is met once
            chosen, live = choices[k]
            found[chosen | bits] = live
    return found


def _order(bits: int) -> tuple[int, list[int]]:
    """The oracle's order on interpretations: descending size, then ascending ids."""
    return -bits.bit_count(), _ids(bits)


def _above(found: dict[int, int], bits: int) -> int:
    """The cases where some strict superset of bits is consistent, found
    mapping each consistent interpretation to the plane of its cases."""
    return reduce(or_, (cases for t, cases in found.items() if t | bits == t != bits), 0)


def _maximal(found: dict[int, int]) -> dict[int, int]:
    """Per consistent interpretation, in the oracle's order, the cases where
    it is maximal: where it is consistent and no strict superset is."""
    return {bits: found[bits] & ~_above(found, bits) for bits in sorted(found, key=_order)}


def enumerate_interpretations(
    net: ValidatedNetwork,
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> list[ConsistencyReport]:
    """All consistent interpretations, largest first, maximal ones flagged.

    Raises BadParams for a tau that is nan or infinite, then TooLarge beyond
    DEFAULT_ENUMERATION_LIMIT non-bottom concepts rather than sampling
    silently, and NonBottomClamp for a clamped id above layer 0. Order:
    descending size, then ascending id tuple.

    Interpretations are built one layer at a time, bottom up, by _search,
    the search compare runs for every clamp at once, here on one case: the
    clamp as a plane of width 1. Every pattern of a layer-L concept lies on
    layer L-1, so each condition of the rule that involves a layer-L concept
    reads only layers L-1 and L. Survivors are reported through
    interpretation_consistent, so the result is the one the rule gives.
    """
    if not -math.inf < tau < math.inf:
        raise BadParams("tau is not finite")
    _check_enumerable(net)
    for e in clamped:
        net._check_clamped(e)
    maximal = _maximal(_search(net, dict.fromkeys(clamped, 1), 1, tau))
    return [
        interpretation_consistent(net, frozenset(_ids(bits)), clamped, tau)._replace(maximal=bool(maximal[bits]))
        for bits in maximal
    ]


def oracle_verdicts(
    net: ValidatedNetwork,
    clamped: AbstractSet[ConceptId],
    tau: float = DEFAULT_TAU,
) -> dict[ConceptId, OracleVerdict]:
    """Summarize the enumeration per concept: member of all, some, or none of
    the maximal sets. Raises as enumerate_interpretations does, BadParams first."""
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
