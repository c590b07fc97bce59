"""Slow references for the bitmask fast paths, kept only for differential tests.

Each function states its rule directly on sets, through the Fraction-based
model.pattern_state, and runs in the obvious order with no precomputation:
enumerate_reference builds a full ConsistencyReport for every one of the 2^k
candidate interpretations, the way oracle.enumerate_interpretations did before
it filtered candidates with bit tests. write_trace_csv_reference is the trace
writer as it was before it built lines itself: csv.writer over sorted rows.
"""
from __future__ import annotations

import csv
from dataclasses import replace
from io import StringIO

from conceptsim import (
    DEFAULT_TAU,
    ErrorRouting,
    TraceRow,
    interpretation_consistent,
    pattern_state,
)
from conceptsim.io import CSV_HEADER


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
        replace(r, maximal=not any(r.interpretation < other for other in sets))
        for r in consistent
    ]
    out.sort(key=lambda r: (-len(r.interpretation), tuple(sorted(r.interpretation))))
    return out


def applicable_reference(net, activation, tau):
    """(owner, ordinal) of every applicable pattern of every active concept."""
    active = {i for i, a in enumerate(activation) if a}
    return {
        (c, k)
        for c in net.non_bottom
        if activation[c]
        for k, pat in enumerate(net.patterns_of(c))
        if pattern_state(pat, active, tau).applicable
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


def write_trace_csv_reference(rows):
    """csv.writer's rendering of TraceRows in canonical order. It equals
    write_trace_csv for every name without a \\r; before Python 3.13 it
    leaves such a name unquoted, which csv.reader cannot read back."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in sorted(rows, key=TraceRow.sort_key):
        writer.writerow((row.phase, row.sweep, row.kind.value, row.name, row.value))
    return buf.getvalue()
