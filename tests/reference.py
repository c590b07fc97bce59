"""Slow references for the fast paths, kept only for differential tests.

Each function states its rule directly on sets, through the Fraction-based
pattern_state_reference, and runs in the obvious order with no precomputation:
interpretation_consistent_reference is oracle.interpretation_consistent as it
was before it evaluated each pattern once, three checks composed (and, like
it, refusing a clamped id above layer 0 once every id is known), and
enumerate_reference builds a full ConsistencyReport for every one of the 2^k
candidate interpretations, the flat rule that oracle.enumerate_interpretations
applies one layer at a time. ReferenceEngine keeps its state in lists and a
set where Engine keeps bitmasks, sweeps with the references below for
predictions and routing, keeps the two run loops that Engine now shares, and
emits the same Snapshots. read_verdicts_reference tests each concept
in turn where read_verdicts takes each verdict as one mask. compare_reference runs a fresh ReferenceEngine and
calls enumerate_interpretations for every clamp, one after another, where
compare_with_oracle advances all clamps at once on bit-sliced planes and
takes the oracle's answer for all clamps from one search that decides each
layer on planes. trace_rows flattens a trace into TraceRows, and
write_rows_csv writes TraceRows the way write_trace_csv writes a trace, field
by field; write_trace_csv_reference is that writer as it was before it built
lines itself: csv.writer over sorted rows, and
render_ascii_timeline_reference the renderer as it was before it read
snapshots: a dict entry per cell of the sorted rows. bottom_planes_reference
builds compare's clamp planes by long division, as model._bottom_planes did
before it doubled a block, and drive_thresholds_reference scans every cell of
the drive table and every routed count of each, with the drive written out,
where engine._drive_thresholds reads engine._drive, finds each cell's
threshold by bisection over the routed counts and stops a row at its first 0
cell. Engine's sweep and its ignition bounds read that table; the tests that
check them write the drive out too. clamp_planes_reference is
compare._clamp_planes as it was before it kept each layer's count as a
thermometer: it rebuilds the count of other active units as one-hot planes
for each unit it visits, lists a layer's visits before walking it, keeps
applicability as a union per element and computes error units on every
layer, and it counts through at_least_reference, one pass per plane and per
level at every depth, where model._at_least ORs the planes first at depth 1.
parse_network_file_reference and validate_network_reference are the network
loaders as they were before they built a path or a message only to raise it:
each value goes through its _require_* helper, and each pattern builds its
"where" text.
pattern_need_reference is model.pattern_need as it was before it took the
ceiling in integers: ceil of Fraction(tau) * size. pattern_state_reference is
model.pattern_state as it was before it read pattern_need: it compares
Fraction(present, size) with tau, so the references above decide each
pattern's state without pattern_need.
build_parser_reference is cli.build_parser as it was before cli parsed argv
from its COMMANDS table: the argparse parser whose parse_args the table's
parse_args must agree with.
pattern_needs_reference, layer_mask_reference and non_bottom_reference are
ValidatedNetwork's pattern_needs, layer_mask and non_bottom as they were
before they built their tables in bulk: each pattern's size by len(Pattern),
each layer's mask ORed one concept at a time, and the concepts above layer 0
picked by a generator.
"""
from __future__ import annotations

import argparse
import csv
from fractions import Fraction
from io import StringIO
from math import ceil

from conceptsim import (
    DEFAULT_TAU,
    Agreement,
    AgreementReport,
    CaseResult,
    ConceptCheck,
    ConsistencyReport,
    ErrorRouting,
    PhaseTrace,
    Snapshot,
    Termination,
    Trace,
    TraceRow,
    UnitKind,
    Verdict,
    enumerate_interpretations,
    interpretation_consistent,
    pattern_need,
)
from conceptsim.cli import cmd_check, cmd_compare, cmd_enumerate, cmd_render, cmd_run, cmd_validate
from conceptsim.engine import _drive_thresholds
from conceptsim.errors import (
    BottomConcept,
    BottomWithPatterns,
    DanglingReference,
    DuplicateElement,
    DuplicateName,
    DuplicatePattern,
    EmptyPattern,
    LayerViolation,
    NonBottomClamp,
    NonBottomWithoutPatterns,
    TypeMismatch,
    ValidationError,
)
from conceptsim.io import _load_json, _require_list, _require_object, _require_str
from conceptsim.model import ConceptId, ConceptSpec, NetworkSpec, Pattern, PatternState, PatternStatus, ValidatedNetwork, _ids
from conceptsim.trace import _HEADER_LINE, CSV_HEADER, _csv_field


def interpretation_consistent_reference(net, interpretation, clamped, tau=DEFAULT_TAU):
    """The rule as three separate checks, each pattern evaluated twice: the
    union active set, local consistency per inferred concept through the
    checked accessors, then a second pass over the patterns for the
    unexpected elements."""
    interp = frozenset(interpretation)
    active = frozenset(clamped) | interp
    per = {}
    for c in sorted(interp):
        net._check(c)
        if net.layer(c) == 0:
            raise BottomConcept(f"{net.name(c)!r} is a layer-0 observation, not an inferable concept")
        complete, violated = 0, []
        for k, pat in enumerate(net.patterns_of(c)):
            state = pattern_state_reference(pat, active, tau)
            if state.complete:
                complete += 1
            elif state.applicable:
                violated.append((k, frozenset(pat.elements - active)))
        per[c] = ConceptCheck(complete, tuple(violated))
    explained = set()
    for c in interp:
        for pat in net.patterns_of(c):
            if pattern_state_reference(pat, active, tau).applicable:
                explained.update(pat.elements)
    top = net.max_layer
    unexpected = frozenset(e for e in active if net.layer(e) < top and e not in explained)
    for e in sorted(clamped):
        if net.layer(e) != 0:
            raise NonBottomClamp(f"{net.name(e)!r} is not a layer-0 concept")
    return ConsistencyReport(
        interpretation=interp,
        consistent=all(check.ok for check in per.values()) and unexpected == frozenset(),
        per_concept=per,
        unexpected=unexpected,
    )


def enumerate_reference(net, clamped, tau=DEFAULT_TAU):
    """Every subset of the non-bottom concepts through interpretation_consistent."""
    candidates = net.non_bottom
    consistent = []
    for mask in range(1 << len(candidates)):
        interp = frozenset(candidates[i] for i in range(len(candidates)) if mask >> i & 1)
        report = interpretation_consistent(net, interp, clamped, tau)
        if report.consistent:
            consistent.append(report)
    sets = [r.interpretation for r in consistent]
    out = [
        r._replace(maximal=not any(r.interpretation < other for other in sets))
        for r in consistent
    ]
    out.sort(key=lambda r: (-len(r.interpretation), tuple(sorted(r.interpretation))))
    return out


def pattern_need_reference(size, tau=DEFAULT_TAU):
    """The least present count k with Fraction(k, size) >= tau, as a Fraction."""
    return ceil(Fraction(tau) * size)


def pattern_state_reference(pattern, active, tau=DEFAULT_TAU):
    """The state by comparing the present fraction with tau: Complete when
    every element is present, else applicable when Fraction(present, size) >= tau."""
    size = len(pattern.elements)
    present = len(pattern.elements & active)
    fraction = Fraction(present, size)
    if present == size:
        status = PatternStatus.COMPLETE
    elif fraction >= tau:
        status = PatternStatus.APPLICABLE_INCOMPLETE
    else:
        status = PatternStatus.OFF
    return PatternState(status, pattern.elements - active)


def applicable_reference(net, activation, tau):
    """(owner, ordinal) of every applicable pattern of every active concept."""
    active = {i for i, a in enumerate(activation) if a}
    return {
        (c, k)
        for c in net.non_bottom
        if activation[c]
        for k, pat in enumerate(net.patterns_of(c))
        if pattern_state_reference(pat, active, tau).applicable
    }


def predictions_reference(net, activation, tau):
    applicable = applicable_reference(net, activation, tau)
    return [int(any(e in net.patterns_of(c)[k].elements for c, k in applicable))
            for e in range(net.n_concepts)]


def route_errors_reference(net, activation, omission, commission, routing, tau):
    """One count per error unit and blamed concept. Under ALL_GLOBAL every error
    blames every active concept above layer 0; under SPLIT an omission blames the
    active owners of applicable patterns holding the element, and a commission
    every active concept one layer up."""
    applicable = applicable_reference(net, activation, tau)
    routed = [0] * net.n_concepts
    for e in range(net.n_concepts):
        if not (omission[e] or commission[e]):
            continue
        for c in net.non_bottom:
            if not activation[c]:
                continue
            if routing is ErrorRouting.ALL_GLOBAL:
                blamed = True
            elif omission[e]:
                blamed = any(e in net.patterns_of(c)[k].elements for cc, k in applicable if cc == c)
            else:
                blamed = net.layer_of[c] == net.layer_of[e] + 1
            routed[c] += blamed
    return routed


def trace_rows(trace):
    """Flatten a trace into canonically sorted rows.

    Concept rows exist for every concept; omission/commission rows only for
    concepts below the top layer (top-layer concepts have no error units).
    """
    net = trace.net
    error_units = [c for c in range(net.n_concepts) if net.layer_of[c] < net.max_layer]
    rows = []
    for pi, phase in enumerate(trace.phases):
        for si, snap in enumerate(phase.snapshots):
            activation, omission, commission = snap.activation, snap.omission, snap.commission
            for c in range(net.n_concepts):
                rows.append(TraceRow(pi, si, UnitKind.CONCEPT, net.names[c], activation[c]))
            for c in error_units:
                rows.append(TraceRow(pi, si, UnitKind.OMISSION, net.names[c], omission[c]))
                rows.append(TraceRow(pi, si, UnitKind.COMMISSION, net.names[c], commission[c]))
    rows.sort(key=TraceRow.sort_key)
    return rows


def write_rows_csv(rows):
    """TraceRows as trace CSV, in canonical order, with write_trace_csv's quoting."""
    lines = [_HEADER_LINE]
    for row in sorted(rows, key=TraceRow.sort_key):
        lines.append(f"{row.phase},{row.sweep},{row.kind.value},{_csv_field(row.name)},{row.value}\n")
    return "".join(lines)


def write_trace_csv_reference(rows):
    """csv.writer's rendering of TraceRows in canonical order. It equals
    write_rows_csv for every name without a \\r; before Python 3.13 it
    leaves such a name unquoted, which csv.reader cannot read back."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in sorted(rows, key=TraceRow.sort_key):
        writer.writerow((row.phase, row.sweep, row.kind.value, row.name, row.value))
    return buf.getvalue()


def _mask(ids):
    """Concept ids as a bitmask."""
    return sum(1 << c for c in ids)


class ReferenceEngine:
    """The engine spelled out on lists and a set: every dendrite, lateral sum,
    prediction and routed count is recomputed from the activation list, and
    the two run loops are kept apart. It emits the same Snapshots as Engine."""

    def __init__(self, net, params):
        params.validate()
        self.net, self.params = net, params
        n = net.n_concepts
        self.activation = [0] * n
        self.omission = [0] * n
        self.commission = [0] * n
        self.routed = [0] * n
        self.rejected = set()
        self.clamp = {}
        self.state = self.snapshot()

    def snapshot(self):
        def ones(values):
            return _mask(i for i, v in enumerate(values) if v)

        return Snapshot(
            ones(self.activation),
            ones(self.omission),
            ones(self.commission),
            _mask(self.rejected),
            self.net.n_concepts,
        )

    def apply_clamp(self, clamp):
        net = self.net
        self.clamp = dict(clamp)
        self.rejected.clear()
        n = net.n_concepts
        self.omission = [0] * n
        self.commission = [0] * n
        self.routed = [0] * n
        for e in net.bottom:
            self.activation[e] = self.clamp.get(e, 0)
        self.state = self.snapshot()

    def sweep(self):
        net, p, act = self.net, self.params, self.activation
        for e in net.bottom:
            act[e] = self.clamp.get(e, 0)
        newly_latched = []
        for layer in range(1, net.max_layer + 1):
            ids = net.layers.get(layer, ())
            for c in ids:
                prev = act[c]
                if c in self.rejected:
                    act[c] = 0
                    continue
                dendrite = int(any(all(act[e] for e in pat.elements) for pat in net.patterns_of(c)))
                lateral = sum(act[d] for d in ids if d != c)
                drive = (
                    p.w_ff * dendrite
                    + p.w_self * prev
                    - p.w_lat * lateral
                    - p.w_err * self.routed[c]
                    - p.theta
                )
                act[c] = 1 if drive > 0 else 0
                if prev == 1 and act[c] == 0 and self.routed[c] > 0:
                    newly_latched.append(c)
        pred = predictions_reference(net, act, p.tau)
        self.omission = [int(pred[e] and not act[e]) for e in range(net.n_concepts)]
        self.commission = [
            int(act[e] and not pred[e] and net.layer_of[e] < net.max_layer)
            for e in range(net.n_concepts)
        ]
        self.routed = route_errors_reference(
            net, act, self.omission, self.commission, p.error_routing, p.tau
        )
        self.rejected.update(newly_latched)
        before, self.state = self.state, self.snapshot()
        return self.state != before

    def run_to_fixed_point(self):
        snaps = []
        seen = {self.state: -1}
        termination = Termination.SWEEP_LIMIT
        cycle_start = None
        for i in range(self.params.max_sweeps):
            changed = self.sweep()
            state = self.state
            snaps.append(state)
            if not changed:
                termination = Termination.FIXED_POINT
                break
            if state in seen:
                termination = Termination.CYCLE
                cycle_start = max(seen[state], 0)
                break
            seen[state] = i
        return tuple(snaps), termination, cycle_start

    def run_fixed_sweeps(self, count):
        snaps = []
        seen = {self.state: -1}
        cycle_start = None
        changed = True
        for i in range(count):
            changed = self.sweep()
            state = self.state
            snaps.append(state)
            if changed and state in seen and cycle_start is None:
                cycle_start = max(seen[state], 0)
            seen[state] = i
        if not changed:
            termination = Termination.FIXED_POINT
        elif cycle_start is not None:
            termination = Termination.CYCLE
        else:
            termination = Termination.SWEEP_LIMIT
        return tuple(snaps), termination, cycle_start


def run_scenario_reference(net, params, phases):
    """run_scenario on a ReferenceEngine."""
    engine = ReferenceEngine(net, params)
    out = []
    for clamp, hold in phases:
        engine.apply_clamp(clamp)
        if hold is None:
            snaps, termination, cycle_start = engine.run_to_fixed_point()
        else:
            snaps, termination, cycle_start = engine.run_fixed_sweeps(hold)
        out.append(PhaseTrace(dict(clamp), snaps, termination, cycle_start))
    return Trace(net, tuple(out))


def read_verdicts_reference(trace, phase=-1):
    """read_verdicts as it was before it took each verdict as one mask: one
    test per concept, in net.non_bottom order, with a shift of each mask."""
    net = trace.net
    if not trace.phases:
        raise ValueError("trace has no phases")
    ph = trace.phases[phase]
    if not ph.snapshots:
        raise ValueError("phase has no snapshots")
    final = ph.snapshots[-1]
    fixed = ph.termination is Termination.FIXED_POINT
    if fixed:
        window = ph.snapshots[-1:]
    elif ph.termination is Termination.CYCLE and ph.cycle_start is not None:
        window = ph.snapshots[ph.cycle_start :]
    else:
        window = ph.snapshots[-2:]
    active = 0
    for s in window:
        active |= s.active
    verdicts = {}
    for c in net.non_bottom:
        if fixed and final.active >> c & 1:
            verdicts[c] = Verdict.INFERRED
        elif final.latched >> c & 1:
            verdicts[c] = Verdict.REJECTED
        elif active >> c & 1:
            verdicts[c] = Verdict.UNSTABLE
        else:
            verdicts[c] = Verdict.INACTIVE
    return verdicts


def compare_reference(net, params):
    """compare_with_oracle with a fresh ReferenceEngine and one
    enumerate_interpretations call for every clamp."""
    bottom = net.bottom
    cases = []
    for mask in range(1 << len(bottom)):
        clamped = frozenset(bottom[i] for i in range(len(bottom)) if mask >> i & 1)
        engine = ReferenceEngine(net, params)
        engine.apply_clamp({e: 1 for e in sorted(clamped)})
        _, termination, _ = engine.run_to_fixed_point()
        reports = enumerate_interpretations(net, clamped, params.tau)
        consistent = [r.interpretation for r in reports]
        maximal = tuple(r.interpretation for r in reports if r.maximal)
        if termination is not Termination.FIXED_POINT:
            inferred = None
            classification = Agreement.DISAGREE
        else:
            inferred = frozenset(c for c in net.non_bottom if engine.activation[c])
            if not consistent:
                classification = Agreement.AGREE if not inferred else Agreement.DISAGREE
            elif inferred in maximal:
                classification = Agreement.AGREE
            elif any(inferred < s for s in consistent):
                classification = Agreement.TIE_SELECTED
            else:
                classification = Agreement.DISAGREE
        cases.append(CaseResult(clamped, termination, inferred, classification, maximal))
    return AgreementReport(tuple(cases))


def bottom_planes_reference(net):
    """model._bottom_planes by long division: the plane of net.bottom[j] is
    the repeating block of 2^j zeros and 2^j ones, spread over all 2^b cases
    by dividing the all-ones plane by 2^(2^(j+1)) - 1."""
    ones = (1 << (1 << len(net.bottom))) - 1
    planes = []
    for j in range(len(net.bottom)):
        run = 1 << j
        planes.append(ones // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    return planes


def drive_thresholds_reference(params, widest, most):
    """engine._drive_thresholds scanning every routed count r <= most of
    every cell of every row; None if a drive above 0 follows a cell's
    threshold, which w_lat >= 0 and w_err >= 0 rule out."""
    w_ff, w_self, w_lat, w_err, theta = params.w_ff, params.w_self, params.w_lat, params.w_err, params.theta
    table = {}
    for dendrite in (0, 1):
        for prev in (0, 1):
            row = table[dendrite, prev] = []
            for k in range(widest):
                on = [
                    w_ff * dendrite + w_self * prev - w_lat * k - w_err * r - theta > 0
                    for r in range(most + 1)
                ]
                first = on.index(False) if False in on else most + 1
                if any(on[first:]):
                    return None
                row.append(first)
    return table


def at_least_reference(planes, depth, ge):
    """model._at_least as one pass per plane and per level, at every depth."""
    ge = ge.copy()
    for x in planes:
        for t in range(depth, 0, -1):
            ge[t] |= ge[t - 1] & x
    return ge


def clamp_planes_reference(net, params, planes):
    """compare._clamp_planes as it was before it kept thermometer counts: the
    count of other active units as one-hot planes rebuilt for each visited
    unit and ORed over each threshold's k, the visited units listed before a
    layer is walked, each concept's applicability as a union per element, and
    the error units of every concept, the top layer's included. Its pattern
    applicabilities and routed counts go through at_least_reference. It
    keeps the old stop rule too: a clamp still changing is in a cycle only
    when every plane recurs, and at the sweep limit at max_sweeps, even where
    its own state recurred."""
    cases = 1 << len(net.bottom)
    ones = (1 << cases) - 1
    n = net.n_concepts
    layers = [_ids(mask) for mask in net.layer_mask]
    widest = max(map(len, layers[1:]), default=0)
    table = _drive_thresholds(params, widest, n)
    depth = max([1] + [t for row in table.values() for t in row if t <= n])
    # per (dendrite, prev), each threshold t > 0 and the counts k that have it
    steps = {
        key: [(t, [k for k in range(widest) if row[k] == t]) for t in sorted(set(row) - {0})]
        for key, row in table.items()
        if any(row)
    }
    # the steps read the counts k below reads
    reads = 1 + max((k for thresholds in steps.values() for _, ks in thresholds for k in ks), default=-1)
    # whether an idle unit can ignite without, and with, a Complete pattern;
    # rows fall with k, so a row with a threshold above 0 has one at k = 0
    idle0, idle1 = any(table[0, 0]), any(table[1, 0])
    elements = net.element_ids
    needs = net.pattern_needs(params.tau)
    zero = [ones] + [0] * depth  # a count of 0 in every case

    active = [0] * n
    for e, plane in zip(net.bottom, planes):
        active[e] = plane
    omitted, committed, latched, dend = [0] * n, [0] * n, [0] * n, [0] * n
    routed = [zero] * n
    # per layer, count[j]: the cases where j of its units are active, as the
    # last sweep left them
    counts = [[ones] + [0] * widest for _ in layers]
    # per layer, the last sweep that changed its active planes: layer 0 is
    # set at sweep 0, the others not yet
    moved = [0] + [-1] * net.max_layer
    # per concept, the entry of moved its patterns were last read at, and per
    # element the cases where one of its patterns holding it applies
    spans: list[tuple[int | None, dict[ConceptId, int]]] = [(None, {})] * n
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
            # the units that can move: active in some case, or unlatched in a
            # case where they can ignite
            visit = [
                c for c in ids
                if active[c] or ((ones ^ dend[c] if idle0 else 0) | (dend[c] if idle1 else 0)) & ~latched[c]
            ]
            count = counts[layer]
            for c in visit:
                prev, held, ge = active[c], latched[c], routed[c]
                # k, the other active units: the count less prev
                k_is = [count[k] & (ones ^ prev) | count[k + 1] & prev for k in range(reads)]
                now = 0
                for (has_dend, has_prev), thresholds in steps.items():
                    sel = (dend[c] if has_dend else ones ^ dend[c]) & (prev if has_prev else ones ^ prev)
                    for t, ks in thresholds:
                        hit = 0
                        for k in ks:
                            hit |= k_is[k]
                        now |= sel & hit & (ones ^ ge[t] if t <= n else ones)
                now &= ones ^ held
                latched[c] = held | prev & (ones ^ now) & ge[1]
                if prev != now:
                    moved[layer] = sweep
                    changed |= prev ^ now
                    active[c] = now
                    # the cases where c turned on count one more, where it turned off one less
                    up, down, kept = now & ~prev, prev & ~now, ones ^ prev ^ now
                    count = [
                        count[j] & kept | (count[j - 1] & up if j else 0) | (count[j + 1] & down if j < widest else 0)
                        for j in range(widest + 1)
                    ]
                changed |= latched[c] ^ held
            counts[layer] = count
        if sweep not in moved:
            # no active plane changed, so nothing latched and the error
            # stage would repeat itself: every case is at a fixed point
            break

        pred = [0] * n
        # per active concept and element, the cases where an applicable pattern of it holds the element
        unions: dict[ConceptId, dict[ConceptId, int]] = {}
        for c in net.non_bottom:
            if not active[c]:
                continue
            read = moved[net.layer_of[c] - 1]
            if spans[c][0] != read:
                span: dict[ConceptId, int] = {}
                for elems, need in zip(elements[c], needs[c]):
                    applies = at_least_reference((active[e] for e in elems), need, [ones] + [0] * need)[need]
                    for e in elems:
                        span[e] = span.get(e, 0) | applies
                spans[c] = read, span
            a = active[c]
            union = unions[c] = {e: plane & a for e, plane in spans[c][1].items()}
            for e, plane in union.items():
                pred[e] |= plane
        below_top = net.below_top
        for e in range(n):
            om = pred[e] & (ones ^ active[e])
            cm = active[e] & (ones ^ pred[e]) if below_top >> e & 1 else 0
            changed |= om ^ omitted[e] | cm ^ committed[e]
            omitted[e], committed[e] = om, cm
        if params.error_routing is ErrorRouting.ALL_GLOBAL:
            total = at_least_reference((omitted[e] | committed[e] for e in range(n)), depth, zero)
            charged = [total] * len(layers)
        else:
            # commission errors per layer charge every active concept one layer up
            charged = [at_least_reference((committed[e] for e in ids), depth, zero) for ids in layers]
        for c in net.non_bottom:
            if active[c]:
                ge = charged[net.layer_of[c] - 1]
                if params.error_routing is ErrorRouting.SPLIT:
                    # an omission charges each owner once per missing element it predicted
                    ge = at_least_reference((u & omitted[e] for e, u in unions[c].items()), depth, ge)
                routed[c] = [g & active[c] for g in ge]
            else:
                routed[c] = zero

        if not changed:
            break
        # the states themselves, not their hashes: an int hashes to its value
        # mod 2^61 - 1, so planes of 64 cases or more can hash equal and differ
        state = (*active, *latched)
        if state in seen:
            # the planes recur, so every case that still changes is in a cycle
            return active, changed, 0
        seen.add(state)

    return active, 0, changed


def render_ascii_timeline_reference(trace):
    rows = trace_rows(trace) if isinstance(trace, Trace) else sorted(trace, key=TraceRow.sort_key)
    if not rows:
        raise ValueError("cannot render an empty trace")
    columns = sorted({(r.phase, r.sweep) for r in rows})
    names = sorted({r.name for r in rows})
    values = {(r.name, r.kind, (r.phase, r.sweep)): r.value for r in rows}
    width = max(len(n) for n in names)
    lines = []
    for name in names:
        cells = []
        previous_phase = columns[0][0]
        for col in columns:
            if col[0] != previous_phase:
                cells.append("|")
                previous_phase = col[0]
            if values.get((name, UnitKind.COMMISSION, col)):
                cells.append("o")
            elif values.get((name, UnitKind.OMISSION, col)):
                cells.append("g")
            elif values.get((name, UnitKind.CONCEPT, col)):
                cells.append("#")
            else:
                cells.append(".")
        lines.append(f"{name:<{width}} " + "".join(cells))
    return "\n".join(lines)


def _require_nonneg_int(value, path: str) -> int:
    if type(value) is not int or value < 0:
        raise TypeMismatch(f"{path}: expected a non-negative integer")
    return value


def parse_network_file_reference(text: str) -> NetworkSpec:
    """Parse the network JSON format; validation is a separate step."""
    root = _load_json(text)
    _require_object(root, "$", frozenset({"concepts"}), frozenset({"concepts"}))
    concepts: list[ConceptSpec] = []
    for i, raw in enumerate(_require_list(root["concepts"], "$.concepts")):
        path = f"$.concepts[{i}]"
        _require_object(
            raw, path, frozenset({"name", "layer", "patterns"}),
            frozenset({"name", "layer", "patterns"}),
        )
        name = _require_str(raw["name"], f"{path}.name")
        layer = _require_nonneg_int(raw["layer"], f"{path}.layer")
        patterns = []
        for k, pat in enumerate(_require_list(raw["patterns"], f"{path}.patterns")):
            elems = _require_list(pat, f"{path}.patterns[{k}]")
            patterns.append(
                tuple(
                    _require_str(e, f"{path}.patterns[{k}][{j}]")
                    for j, e in enumerate(elems)
                )
            )
        concepts.append(ConceptSpec(name=name, layer=layer, patterns=tuple(patterns)))
    return NetworkSpec(tuple(concepts))


def validate_network_reference(spec: NetworkSpec) -> ValidatedNetwork:
    """Check every structural invariant and build the index structures.

    Raises a ValidationError subclass naming the offending concept/pattern;
    singleton patterns are legal but reported via ValidatedNetwork.warnings
    (they can never be applicable-incomplete, so they cannot express a
    bistability violation).
    """
    names: list[str] = []
    name_to_id: dict[str, ConceptId] = {}
    for cid, c in enumerate(spec.concepts):
        if not isinstance(c.name, str) or not c.name:
            raise ValidationError(f"concept {cid}: name must be a non-empty string")
        if "\0" in c.name:
            # CSV readers refuse NUL (Python 3.10's csv module among them), so a
            # trace holding it could be written but not read back
            raise ValidationError(f"concept {cid}: name {c.name!r} contains NUL")
        if c.name in name_to_id:
            raise DuplicateName(f"concept name {c.name!r} appears more than once")
        if type(c.layer) is not int or c.layer < 0:
            raise LayerViolation(f"concept {c.name!r}: layer must be a non-negative integer")
        name_to_id[c.name] = cid
        names.append(c.name)

    layer_of = tuple(c.layer for c in spec.concepts)
    warnings: list[str] = []
    resolved: list[tuple[Pattern, ...]] = []
    masks: list[tuple[int, ...]] = []
    for cid, c in enumerate(spec.concepts):
        if c.layer == 0:
            if c.patterns:
                raise BottomWithPatterns(f"layer-0 concept {c.name!r} must not carry patterns")
            resolved.append(())
            masks.append(())
            continue
        if not c.patterns:
            raise NonBottomWithoutPatterns(f"concept {c.name!r} on layer {c.layer} has no patterns")
        seen: list[frozenset[ConceptId]] = []
        pats: list[Pattern] = []
        pat_masks: list[int] = []
        for k, elems in enumerate(c.patterns):
            where = f"concept {c.name!r} pattern {k}"
            if not elems:
                raise EmptyPattern(f"{where} is empty")
            if len(set(elems)) != len(elems):
                raise DuplicateElement(f"{where} lists an element twice")
            ids = []
            mask = 0
            for ename in elems:
                if ename not in name_to_id:
                    raise DanglingReference(f"{where} references unknown concept {ename!r}")
                eid = name_to_id[ename]
                ids.append(eid)
                mask |= 1 << eid
            for eid in ids:
                if layer_of[eid] != c.layer - 1:
                    raise LayerViolation(
                        f"{where}: element {names[eid]!r} is on layer {layer_of[eid]}, "
                        f"expected layer {c.layer - 1}"
                    )
            members = frozenset(ids)
            if members in seen:
                raise DuplicatePattern(f"{where} duplicates an earlier pattern of {c.name!r}")
            seen.append(members)
            if len(members) == 1:
                warnings.append(f"{where} has a single element; it can never be applicable-incomplete")
            pats.append(Pattern(members))
            pat_masks.append(mask)
        resolved.append(tuple(pats))
        masks.append(tuple(pat_masks))

    layers: dict[int, tuple[ConceptId, ...]] = {}
    for lay in sorted(set(layer_of)):
        layers[lay] = tuple(c for c in range(len(names)) if layer_of[c] == lay)

    # owners are met in (owner, ordinal) order, so each list is sorted as built
    inverse: dict[ConceptId, list[tuple[ConceptId, int]]] = {cid: [] for cid in range(len(names))}
    for cid, pats in enumerate(resolved):
        for k, pat in enumerate(pats):
            for e in pat.elements:
                inverse[e].append((cid, k))

    return ValidatedNetwork(
        spec=spec,
        names=tuple(names),
        layer_of=layer_of,
        patterns=tuple(resolved),
        layers=layers,
        parent_index={e: tuple(owners) for e, owners in inverse.items()},
        name_to_id=name_to_id,
        warnings=tuple(warnings),
        masks=tuple(masks),
    )


def pattern_needs_reference(net: ValidatedNetwork, tau) -> tuple[tuple[int, ...], ...]:
    """pattern_need of every pattern under tau, clamped to 0..size, parallel to masks."""
    sizes = {len(p) for pats in net.patterns for p in pats}
    by_size = {size: min(max(pattern_need(size, tau), 0), size) for size in sizes}
    return tuple(tuple(by_size[len(p)] for p in pats) for pats in net.patterns)


def layer_mask_reference(net: ValidatedNetwork) -> tuple[int, ...]:
    """Per layer 0..max_layer, the bitmask of its concepts."""
    masks = [0] * (net.max_layer + 1)
    for c, layer in enumerate(net.layer_of):
        masks[layer] |= 1 << c
    return tuple(masks)


def non_bottom_reference(net: ValidatedNetwork) -> tuple[ConceptId, ...]:
    """The concepts above layer 0, ascending."""
    return tuple(c for c in range(net.n_concepts) if net.layer_of[c] > 0)


def build_parser_reference() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptsim",
        description="Simulate and query concept networks built from conditional bistable patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file and print its shape")
    p.add_argument("network")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a clamp scenario and print per-phase verdicts")
    p.add_argument("network")
    p.add_argument("scenario")
    p.add_argument("--params", default=None)
    p.add_argument("--trace", default=None, help="write the trace CSV to this path")
    p.add_argument("--render", action="store_true", help="print an ASCII timeline")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="oracle verdicts plus per-pattern detail for one active set")
    p.add_argument("network")
    p.add_argument("--active", default="", help="comma-separated layer-0 names")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list all consistent interpretations (maximal starred)")
    p.add_argument("network")
    p.add_argument("--active", default="", help="comma-separated layer-0 names")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("compare", help="exhaustively compare dynamics against the oracle")
    p.add_argument("network")
    p.add_argument("--params", default=None)
    p.add_argument("--strict", action="store_true", help="exit 1 on any DISAGREE")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("render", help="render a trace CSV as an ASCII timeline")
    p.add_argument("trace")
    p.set_defaults(func=cmd_render)

    return parser
