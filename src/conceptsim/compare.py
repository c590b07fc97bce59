"""Every layer-0 clamp run on the circuit at once, on bit planes, and checked
against the oracle. Of the CLI commands only `compare` loads this module, so
`run` pays neither for it nor for `dataclasses`, which CaseResult needs."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from operator import or_, xor
from typing import Sequence

from .engine import EngineParams, ErrorRouting, Termination, _drive_thresholds
from .errors import TooLarge
from .model import ConceptId, ValidatedNetwork, _at_least, _bits, _bottom_planes, _ids, _reach


class Agreement(Enum):
    AGREE = "AGREE"
    TIE_SELECTED = "TIE-SELECTED"
    DISAGREE = "DISAGREE"


@dataclass(frozen=True)
class CaseResult:
    """One clamp subset: what the dynamics inferred vs. what the oracle allows."""

    clamp: frozenset[ConceptId]
    termination: Termination
    inferred: frozenset[ConceptId] | None
    classification: Agreement
    maximal: tuple[frozenset[ConceptId], ...]


def _clamp_table(concepts: Sequence[ConceptId]) -> list[frozenset[ConceptId]]:
    """Entry i holds concepts[j] for each bit j of i."""
    clamps: list[frozenset[ConceptId]] = [frozenset()]
    for e in concepts:
        one = frozenset((e,))
        clamps += [clamped | one for clamped in clamps]  # the entries below 2^j, then each with e added
    return clamps


class AgreementReport:
    """The cases of one compare, case i the clamp of bit j of i on bottom[j].

    groups maps each outcome (termination, inferred, classification,
    maximal) to the plane of its cases, an int whose bit i stands for case
    i; the planes are disjoint and never 0. count is a popcount, equality
    compares planes, and disagreements and cases build CaseResults in case
    order only when read. AgreementReport(cases) groups cases given in case
    order, bottom[j] read off cases[1 << j].clamp, and raises ValueError
    unless there are 2^b of them, case i clamping bottom[j] for each bit j.
    """

    def __init__(self, cases: Sequence[CaseResult] = (), *, groups: dict | None = None, bottom: Sequence[ConceptId] = ()):
        self.groups, self.bottom = groups, tuple(bottom)
        if groups is None:
            cases = tuple(cases)
            outcomes = [(case.termination, case.inferred, case.classification, case.maximal) for case in cases]
            self.groups = {outcome: _bits([o == outcome for o in outcomes]) for outcome in dict.fromkeys(outcomes)}
            self.bottom = tuple(e for j in range(len(cases).bit_length() - 1) for e in cases[1 << j].clamp)
            if self.cases != cases:
                raise ValueError("cases must be 2^b in case order, case i clamping bottom[j] for each bit j of i")

    def _kind(self, kind: Agreement) -> int:
        if not isinstance(kind, Agreement):
            raise KeyError(kind)
        return sum(plane for (_, _, classification, _), plane in self.groups.items() if classification is kind)

    def _build(self, within: int) -> tuple[CaseResult, ...]:
        # case i clamps bottom[j] for each bit j of i: the union of an entry
        # of the table of its low half of bits and one of its high half, so a
        # read builds about 2^(b/2) sets per half and one per case it reads
        half = len(self.bottom) // 2
        low, high, mask = _clamp_table(self.bottom[:half]), _clamp_table(self.bottom[half:]), (1 << half) - 1
        out: list[CaseResult | None] = [None] * (1 << len(self.bottom))
        for outcome, plane in self.groups.items():
            for case in _ids(plane & within):
                out[case] = CaseResult(low[case & mask] | high[case >> half], *outcome)
        return tuple(map(out.__getitem__, _ids(within)))

    def count(self, kind: Agreement) -> int:
        return self._kind(kind).bit_count()

    @property
    def disagreements(self) -> tuple[CaseResult, ...]:
        return self._build(self._kind(Agreement.DISAGREE))

    @cached_property
    def cases(self) -> tuple[CaseResult, ...]:
        return self._build((1 << (1 << len(self.bottom))) - 1)

    def __eq__(self, other: object) -> bool:
        ours = self.bottom, self.groups
        return ours == (other.bottom, other.groups) if isinstance(other, AgreementReport) else NotImplemented


#: Refuse to sweep clamp subsets beyond this many layer-0 concepts.
COMPARE_BOTTOM_LIMIT = 16


def _clamp_planes(
    net: ValidatedNetwork, params: EngineParams, planes: dict[ConceptId, int], cases: int
) -> tuple[list[int], int, int]:
    """Run the clamps of compare_with_oracle all at once, bit-sliced.

    Each unit value is one int, a plane, whose bit i is its value under case
    i of the `cases` cases. Case i clamps each layer-0 concept e whose plane
    planes[e] has bit i set, and none missing from planes, as oracle._search
    takes its cases; a sweep applies sweep()'s rules to whole planes, so one
    int operation advances every case. Each layer keeps its count of
    active units as a thermometer, at[j] the cases where at least j of its
    units are active, current in id order and from sweep to sweep, and each
    unit its routed count as ge[t], the cases where it is at least t, up to
    the largest threshold of _drive_thresholds' table, or 1, which the latch
    test needs. The drive falls with the count k of other active units, so a
    row of the table falls with k, and the k whose cell is at least a
    threshold t are a prefix [0, K_t): the test r < row[k] is the OR over
    the row's thresholds t of "k < K_t and r < t", which is ~at[K_t + prev]
    & ~ge[t], since k is the count less prev. Runs stop when no case
    changed its Snapshot, at max_sweeps, or when the planes recur. After a
    sweep a case's state is its active and latched bits, as the rest is a
    function of them, so a case that did not change stays fixed, and one
    still changing at the stop is in a cycle where its last state is an
    earlier one, else at the sweep limit. The start, whose error planes are
    0, is never that earlier state: under a nonempty clamp a state with no
    active non-bottom unit has commission errors, under the empty clamp with
    theta >= 0 the start is a fixed point, and with theta < 0, if every
    other layer-1 unit ends a sweep off, the last sees k = 0 and no routed
    error unless it was active (only active units are charged), so it ends
    on, or latched. That holds only for the zero start: a run from a given
    start state must keep it, with its error planes, among the earlier ones.

    Every unit is walked, and reads only the rows of the table that have a
    threshold above 0: a unit idle in every case reads at most the rows
    (d, prev 0), and where none of them lets it ignite it stays 0. A sweep
    does only the work that can change a plane, by two exact rules:
      - A pattern's applicability reads only its element layer, so each
        concept keeps it, per pattern, with the last sweep in which that
        layer changed and recomputes it only after a newer change; patterns
        over layer 0 are computed once per run.
      - pred, the error units and routed are functions of the active planes,
        and a unit latches only as it turns off, so a sweep in which no
        active plane changed ends the run without recomputing them.

    Returns the final active planes by concept id, then the cases in a
    cycle and those at the sweep limit; the others reached a fixed point.
    """
    ones = (1 << cases) - 1
    n = net.n_concepts
    layers = [_ids(mask) for mask in net.layer_mask]
    widest = max(map(len, layers[1:]), default=0)
    table = _drive_thresholds(params, widest, n)
    depth = max([1] + [t for row in table.values() for t in row if t <= n])
    # per (dendrite, prev) whose row has a threshold above 0, the reads
    # (K_t + prev, t) of its thresholds t; one above n, which no routed count
    # reaches, reads ge[depth + 1], which stays 0
    cells = [
        (dendrite, prev, [(sum(x >= t for x in row) + prev, t if t <= n else depth + 1) for t in set(row) - {0}])
        for (dendrite, prev), row in table.items()
        if any(row)
    ]
    elements = net.element_ids
    needs = net.pattern_needs(params.tau)
    below = _ids(net.below_top)  # no pattern predicts the top layer, and it has no commission unit
    zero = [ones] + [0] * (depth + 1)  # a count of 0 in every case

    active = [0] * n
    for e, plane in planes.items():
        active[e] = plane
    omitted, committed, latched, dend = [0] * n, [0] * n, [0] * n, [0] * n
    routed = [zero] * n
    # per layer, its thermometer count as the last sweep left it; at[0] is
    # every case, and at[j] is 0 above the layer's own width
    counts = [[ones] + [0] * (widest + 1) for _ in layers]
    # per layer, the last sweep that changed its active planes: layer 0 is
    # set at sweep 0, the others not yet
    moved = [0] + [-1] * net.max_layer
    # per concept, the entry of moved its patterns were last read at, and
    # per pattern its elements and the cases where it applies
    spans: list[tuple[int | None, list[tuple[tuple[ConceptId, ...], int]]]] = [(None, [])] * n
    seen: set[tuple[int, ...]] = set()
    changed = ones
    for sweep in range(params.max_sweeps):
        changed = 0
        for layer in range(1, len(layers)):
            ids = layers[layer]
            if moved[layer - 1] == sweep:
                # the layer below changed, so dendrites must be recomputed
                for c in ids:
                    d = 0
                    for elems in elements[c]:
                        conj = ones
                        for e in elems:
                            conj &= active[e]
                        d |= conj
                    dend[c] = d
            at = counts[layer]
            width = len(ids)
            for c in ids:
                prev, d, held = active[c], dend[c], latched[c]
                ge = routed[c]
                now = 0
                for has_dend, has_prev, reads in cells:
                    sel = (d if has_dend else ones ^ d) & (prev if has_prev else ones ^ prev)
                    if sel:
                        stay = ones  # the cases where no threshold of the row is passed
                        for j, t in reads:
                            stay &= at[j] | ge[t]
                        now |= sel & ~stay
                now &= ~held
                if now != prev:
                    moved[layer] = sweep
                    changed |= (flip := prev ^ now)
                    active[c] = now
                    # one more where c turned on, one less where it turned off; it latches only where it turned off
                    up, down, kept = now & flip, prev & flip, ones ^ flip
                    if down:
                        latched[c] = held | down & ge[1]
                    at[1:width + 1] = [at[j] & kept | at[j - 1] & up | at[j + 1] & down for j in range(1, width + 1)]
        if sweep not in moved:
            # no active plane changed, so nothing latched and the error
            # stage would repeat itself: every case is at a fixed point
            break

        pred = [0] * n
        # per active concept and element, the cases where an applicable pattern of it holds the element
        unions: dict[ConceptId, dict[ConceptId, int]] = {}
        for c in net.non_bottom:
            a = active[c]
            if not a:
                continue
            read = moved[net.layer_of[c] - 1]
            if spans[c][0] != read:
                pats = zip(elements[c], needs[c])
                spans[c] = read, [(elems, _reach((active[e] for e in elems), need, ones)) for elems, need in pats]
            union = unions[c] = {}
            for elems, applies in spans[c][1]:
                applies &= a
                if applies:
                    for e in elems:
                        union[e] = union.get(e, 0) | applies
            for e, plane in union.items():
                pred[e] |= plane
        for e in below:
            om = pred[e] & ~active[e]
            cm = active[e] & ~pred[e]
            changed |= om ^ omitted[e] | cm ^ committed[e]
            omitted[e], committed[e] = om, cm
        if params.error_routing is ErrorRouting.ALL_GLOBAL:
            total = _at_least((omitted[e] | committed[e] for e in below), depth, zero)
            charged = [total] * len(layers)
        else:
            # commission errors per layer charge every active concept one layer up
            charged = [_at_least((committed[e] for e in ids), depth, zero) for ids in layers[:-1]]
        for c in net.non_bottom:
            a = active[c]
            if a:
                ge = charged[net.layer_of[c] - 1]
                if params.error_routing is ErrorRouting.SPLIT:
                    # an omission charges each owner once per missing element it predicted
                    ge = _at_least((u & omitted[e] for e, u in unions[c].items()), depth, ge)
                routed[c] = [g & a for g in ge]
            else:
                routed[c] = zero

        if not changed:
            break
        if sweep:
            seen.add(state)  # the previous sweep's state; the start is left out (see above)
        # the states themselves, not their hashes: an int hashes to its value
        # mod 2^61 - 1, so planes of 64 cases or more can hash equal and differ
        state = (*active, *latched)
        if state in seen:
            break

    # a case still changing is in a cycle where its last state equals an earlier one on every plane
    cycle = changed and changed & reduce(or_, [ones ^ reduce(or_, map(xor, state, s)) for s in seen], 0)
    return active, cycle, changed ^ cycle


def _refine(groups: dict, part: dict) -> dict:
    """Split groups of cases, planes keyed by what their cases share, by
    part, planes keyed by a value: key + value holds the cases in both."""
    return {
        key + value: both for key, group in groups.items() for value, plane in part.items() if (both := group & plane)
    }


def compare_with_oracle(net: ValidatedNetwork, params: EngineParams | None = None) -> AgreementReport:
    """Exhaustively compare single-phase dynamics against the oracle.

    For every subset of layer-0 clamps, run the circuit from the zero state to
    termination and classify:

      AGREE         the inferred set is a maximal consistent interpretation,
                    or nothing is consistent and nothing was inferred
      TIE-SELECTED  the inferred set is a strict subset of some consistent
                    interpretation (lateral inhibition chose among oracle ties,
                    or error-driven rejection emptied a tie)
      DISAGREE      anything else, including non-convergence

    Both sides take all 2^b clamps at once, bit-sliced, from the same planes
    and case count: the runs advance together (_clamp_planes), and the
    oracle's search (oracle._search) gives each consistent interpretation
    the plane of its clamps. Classifying is plane algebra per distinct
    inferred set s, with P the plane of its cases and above the cases where
    a strict superset of s is consistent: AGREE is P where s is consistent
    and not above, or where nothing is and s is empty, and TIE-SELECTED is
    P & above. A clamp still changing when the plane run stops is a Cycle or
    SweepLimit as its own states tell. These planes, split once more by the
    maximal sets (oracle._maximal), are the report's groups. Nets the oracle
    refuses are refused before either run.
    """
    from . import oracle  # only compare needs it; a module, so patched attributes are seen

    params = params if params is not None else EngineParams()
    bottom = net.bottom
    if len(bottom) > COMPARE_BOTTOM_LIMIT:
        raise TooLarge(
            f"{len(bottom)} layer-0 concepts exceed the comparison limit of {COMPARE_BOTTOM_LIMIT}"
        )
    params.validate()
    oracle._check_enumerable(net)
    planes, cases = dict(zip(bottom, _bottom_planes(net))), 1 << len(bottom)
    ones = (1 << cases) - 1
    found = oracle._search(net, planes, cases, params.tau)
    active, cycle, limit = _clamp_planes(net, params, planes, cases)
    sets = {0: ones ^ cycle ^ limit}  # the settled cases by inferred set, a bitmask over ids
    for c in net.non_bottom:
        if active[c]:
            sets = _refine(sets, {1 << c: active[c], 0: ones ^ active[c]})
    # the cases by termination, inferred set and Agreement
    groups = {(Termination.CYCLE, None, Agreement.DISAGREE): cycle,
              (Termination.SWEEP_LIMIT, None, Agreement.DISAGREE): limit}
    for s, plane in sets.items():
        above = oracle._above(found, s)
        # where no superset is consistent, s agrees if consistent; the empty
        # set always does, as the one consistent set or with none consistent
        agree = plane & ~above & (found.get(s, 0) if s else ones)
        inferred = frozenset(_ids(s))
        # in Agreement's order: AGREE, TIE-SELECTED, DISAGREE
        for kind, kept in zip(Agreement, (agree, plane & above, plane & ~above ^ agree)):
            groups[Termination.FIXED_POINT, inferred, kind] = kept
    # then by their maximal sets, in the oracle's order
    maximal = {(): ones}
    for bits, plane in oracle._maximal(found).items():
        if plane:
            maximal = _refine(maximal, {(frozenset(_ids(bits)),): plane, (): ones ^ plane})
    return AgreementReport(groups=_refine(groups, {(m,): plane for m, plane in maximal.items()}), bottom=bottom)
