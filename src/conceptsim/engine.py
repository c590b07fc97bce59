"""Deterministic discrete-time dynamics of the concept circuit.

Each sweep is one full pass in a fixed order: observations enter at layer 0;
threshold units update layer by layer (within a layer sequentially in file
order, so earlier concepts see already-updated peers and winner-take-all ties
break deterministically); a prediction pass marks every element of an
applicable pattern of an active concept; error units compare predictions with
activations (omission: predicted but inactive, commission: active but
unpredicted); errors are routed into inhibition that lands one sweep later,
like a circuit with one synaptic delay. A concept driven below threshold
while error inhibition targets it latches off until the next clamp change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from . import oracle as _oracle
from .errors import BadParams, NonBottomClamp, TooLarge
from .model import ConceptId, ValidatedNetwork


class ErrorRouting(Enum):
    #: omission errors inhibit the active concepts whose applicable patterns
    #: predicted the missing element; commission errors inhibit every active
    #: concept in the layer above the offending element
    SPLIT = "split"
    #: every error inhibits every active non-bottom concept
    ALL_GLOBAL = "all_global"


class Termination(Enum):
    FIXED_POINT = "FixedPoint"
    CYCLE = "Cycle"
    SWEEP_LIMIT = "SweepLimit"


class Verdict(Enum):
    INFERRED = "Inferred"
    REJECTED = "Rejected"
    INACTIVE = "Inactive"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class EngineParams:
    """Circuit weights and thresholds.

    Invariants, checked by validate():
      w_ff > theta           a complete pattern alone ignites its concept
      theta < w_self < w_ff  self-input holds an active unit but is weaker than evidence
      w_err > w_self         one routed error can shut a self-sustained unit whose dendrites are silent
      w_lat >= 0, 0 < tau <= 1, max_sweeps >= 1
      every weight, theta and tau finite

    The default w_err exceeds w_ff + w_self - theta, so a single routed error
    also shuts a unit whose dendrite is still fully driven; that is what lets
    a violated expectation override otherwise complete evidence.
    """

    w_ff: float = 1.0
    w_self: float = 0.6
    w_lat: float = 0.8
    w_err: float = 1.2
    theta: float = 0.5
    tau: float = 0.5
    max_sweeps: int = 64
    error_routing: ErrorRouting = ErrorRouting.SPLIT

    def validate(self) -> None:
        for name in ("w_ff", "w_self", "w_lat", "w_err", "theta", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise BadParams(f"{name} is not finite")
        if not self.w_ff > self.theta:
            raise BadParams("w_ff <= theta")
        if not self.theta < self.w_self:
            raise BadParams("w_self <= theta")
        if not self.w_self < self.w_ff:
            raise BadParams("w_self >= w_ff")
        if not self.w_err > self.w_self:
            raise BadParams("w_err <= w_self")
        if self.w_lat < 0:
            raise BadParams("w_lat < 0")
        if not 0 < self.tau <= 1:
            raise BadParams("tau outside (0, 1]")
        if self.max_sweeps < 1:
            raise BadParams("max_sweeps < 1")


@dataclass(frozen=True)
class Snapshot:
    """Unit values at the end of one sweep."""

    activation: tuple[int, ...]
    omission: tuple[int, ...]
    commission: tuple[int, ...]
    rejected: frozenset[ConceptId]


@dataclass(frozen=True)
class PhaseTrace:
    """All sweeps run under one clamp, with how the phase ended."""

    clamp: Mapping[ConceptId, int]
    snapshots: tuple[Snapshot, ...]
    termination: Termination
    cycle_start: int | None = None


@dataclass(frozen=True)
class Trace:
    net: ValidatedNetwork
    phases: tuple[PhaseTrace, ...]


def dendrite_values(
    net: ValidatedNetwork, activation: Sequence[int]
) -> dict[tuple[ConceptId, int], int]:
    """Dendritic conjunctions: 1 iff every element of the pattern is active."""
    active = _active_bits(activation)
    out: dict[tuple[ConceptId, int], int] = {}
    for c in net.non_bottom:
        for k, mask in enumerate(net.masks[c]):
            out[(c, k)] = int(mask & active == mask)
    return out


def _active_bits(activation: Sequence[int]) -> int:
    """The active units as a bitmask over concept ids."""
    bits = 0
    for i, a in enumerate(activation):
        if a:
            bits |= 1 << i
    return bits


def _applicable(
    net: ValidatedNetwork, activation: Sequence[int], tau: float
) -> dict[tuple[ConceptId, int], bool]:
    """Applicability of every pattern of every *active* concept.

    Bit test against the exact integer threshold: Complete, or at least
    model.pattern_need(size, tau) elements present.
    """
    active = _active_bits(activation)
    needs = net.pattern_needs(tau)
    states: dict[tuple[ConceptId, int], bool] = {}
    for c in net.non_bottom:
        if not activation[c]:
            continue
        for k, (mask, need) in enumerate(zip(net.masks[c], needs[c])):
            hit = mask & active
            states[(c, k)] = hit == mask or hit.bit_count() >= need
    return states


def predictions(net: ValidatedNetwork, activation: Sequence[int], tau: float) -> list[int]:
    """pred(e) = 1 iff some active concept has an applicable pattern containing e."""
    pred = [0] * net.n_concepts
    for (c, k), ok in _applicable(net, activation, tau).items():
        if ok:
            for e in net.patterns_of(c)[k].elements:
                pred[e] = 1
    return pred


def error_flags(
    net: ValidatedNetwork, activation: Sequence[int], tau: float
) -> tuple[list[int], list[int]]:
    """Omission (predicted but inactive) and commission (active but unpredicted) flags.

    Prediction and explanation coincide: both mean membership in an applicable
    pattern of an active concept. Concepts on the top occupied layer have no
    error units, so they are exempt from commission errors; they can never be
    predicted, so omission needs no exemption.
    """
    pred = predictions(net, activation, tau)
    top = net.max_layer
    omission = [0] * net.n_concepts
    commission = [0] * net.n_concepts
    for e in range(net.n_concepts):
        if pred[e] and not activation[e]:
            omission[e] = 1
        elif activation[e] and not pred[e] and net.layer_of[e] < top:
            commission[e] = 1
    return omission, commission


def route_errors(
    net: ValidatedNetwork,
    activation: Sequence[int],
    omission: Sequence[int],
    commission: Sequence[int],
    routing: ErrorRouting,
    tau: float,
) -> list[int]:
    """How many error units inhibit each concept on the next sweep."""
    routed = [0] * net.n_concepts
    total = sum(omission) + sum(commission)
    if total == 0:
        return routed
    if routing is ErrorRouting.ALL_GLOBAL:
        for c in net.non_bottom:
            if activation[c]:
                routed[c] = total
        return routed
    applicable = _applicable(net, activation, tau)
    # commission errors per layer; each charges every active concept one layer up
    commissions: dict[int, int] = {}
    for e in range(net.n_concepts):
        if omission[e]:
            blamed = {
                owner
                for owner, k in net.parent_index.get(e, ())
                if activation[owner] and applicable.get((owner, k))
            }
            for owner in blamed:
                routed[owner] += 1
        elif commission[e]:
            layer = net.layer_of[e]
            commissions[layer] = commissions.get(layer, 0) + 1
    for layer, count in commissions.items():
        for c in net.layers.get(layer + 1, ()):
            if activation[c]:
                routed[c] += count
    return routed


class Engine:
    """One deterministic simulation instance over a fixed network and parameters."""

    def __init__(self, net: ValidatedNetwork, params: EngineParams | None = None):
        params = params if params is not None else EngineParams()
        params.validate()
        self.net = net
        self.params = params
        n = net.n_concepts
        self.activation: list[int] = [0] * n
        self.omission: list[int] = [0] * n
        self.commission: list[int] = [0] * n
        self.routed: list[int] = [0] * n
        self.rejected: set[ConceptId] = set()
        self.clamp: dict[ConceptId, int] = {}
        self.sweep_count = 0
        #: the observable state as of the last sweep or clamp; sweep() compares
        #: against it, so a change made to the lists between sweeps goes unseen
        self.state = self.snapshot()

    def snapshot(self) -> Snapshot:
        return Snapshot(
            activation=tuple(self.activation),
            omission=tuple(self.omission),
            commission=tuple(self.commission),
            rejected=frozenset(self.rejected),
        )

    def apply_clamp(self, clamp: Mapping[ConceptId, int]) -> None:
        """Open a new phase: replace the clamp, drop latches and error state.

        Clamped layer-0 units take their clamp value immediately; unclamped
        layer-0 units fall to 0. Higher layers keep their activation until
        sweeps run.
        """
        net = self.net
        for cid, value in clamp.items():
            net._check(cid)
            if net.layer_of[cid] != 0:
                raise NonBottomClamp(f"{net.name(cid)!r} is not a layer-0 concept")
            if type(value) is not int or value not in (0, 1):
                raise ValueError(f"clamp value for {net.name(cid)!r} must be 0 or 1")
        self.clamp = dict(clamp)
        self.rejected.clear()
        n = net.n_concepts
        self.omission = [0] * n
        self.commission = [0] * n
        self.routed = [0] * n
        self.sweep_count = 0
        for e in net.bottom:
            self.activation[e] = self.clamp.get(e, 0)
        self.state = self.snapshot()

    def sweep(self) -> bool:
        """One full pass; returns whether the observable state changed."""
        net, p = self.net, self.params
        act = self.activation

        for e in net.bottom:
            act[e] = self.clamp.get(e, 0)

        newly_latched: list[ConceptId] = []
        for layer in range(1, net.max_layer + 1):
            ids = net.layers.get(layer, ())
            # the layer below is final for this sweep; dendrites read only it
            below = 0
            for e in net.layers.get(layer - 1, ()):
                if act[e]:
                    below |= 1 << e
            # active units of this layer, kept current through the sequential update
            layer_active = sum(act[d] for d in ids)
            for c in ids:
                prev = act[c]
                if c in self.rejected:
                    act[c] = 0
                    layer_active -= prev
                    continue
                dendrite = 0
                for mask in net.masks[c]:
                    if mask & below == mask:
                        dendrite = 1
                        break
                lateral = layer_active - prev
                drive = (
                    p.w_ff * dendrite
                    + p.w_self * prev
                    - p.w_lat * lateral
                    - p.w_err * self.routed[c]
                    - p.theta
                )
                act[c] = 1 if drive > 0 else 0
                layer_active += act[c] - prev
                if prev == 1 and act[c] == 0 and self.routed[c] > 0:
                    newly_latched.append(c)

        self.omission, self.commission = error_flags(net, act, p.tau)
        # inhibition lands one sweep later
        self.routed = route_errors(
            net, act, self.omission, self.commission, p.error_routing, p.tau
        )
        self.rejected.update(newly_latched)
        self.sweep_count += 1
        before, self.state = self.state, self.snapshot()
        return self.state != before

    def run_to_fixed_point(self) -> tuple[tuple[Snapshot, ...], Termination, int | None]:
        """Sweep until nothing changes, a state recurs, or max_sweeps is hit."""
        snaps: list[Snapshot] = []
        seen: dict[Snapshot, int] = {self.state: -1}
        termination = Termination.SWEEP_LIMIT
        cycle_start: int | None = None
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

    def run_fixed_sweeps(self, count: int) -> tuple[tuple[Snapshot, ...], Termination, int | None]:
        """Run exactly `count` sweeps, labelling how the segment ended."""
        snaps: list[Snapshot] = []
        seen: dict[Snapshot, int] = {self.state: -1}
        cycle_start: int | None = None
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


def init_engine(net: ValidatedNetwork, params: EngineParams | None = None) -> Engine:
    """Fresh engine: all activations zero, no errors, no latches, empty clamp."""
    return Engine(net, params)


def run_scenario(
    net: ValidatedNetwork,
    params: EngineParams,
    phases: Iterable[tuple[Mapping[ConceptId, int], int | None]],
) -> Trace:
    """Run an ordered list of (clamp, hold) phases; hold None means run to convergence."""
    engine = Engine(net, params)
    out: list[PhaseTrace] = []
    for clamp, hold in phases:
        engine.apply_clamp(clamp)
        if hold is None:
            snaps, termination, cycle_start = engine.run_to_fixed_point()
        else:
            snaps, termination, cycle_start = engine.run_fixed_sweeps(hold)
        out.append(PhaseTrace(dict(clamp), snaps, termination, cycle_start))
    return Trace(net, tuple(out))


def read_verdicts(trace: Trace, phase: int = -1) -> dict[ConceptId, Verdict]:
    """Verdict per non-bottom concept at the end of the given phase (default: last).

    At a fixed point: active means Inferred, latched means Rejected, else
    Inactive. Otherwise every non-latched concept that is active anywhere in
    the cycle window is Unstable.
    """
    net = trace.net
    if not trace.phases:
        raise ValueError("trace has no phases")
    ph = trace.phases[phase]
    if not ph.snapshots:
        raise ValueError("phase has no snapshots")
    final = ph.snapshots[-1]
    verdicts: dict[ConceptId, Verdict] = {}
    if ph.termination is Termination.FIXED_POINT:
        for c in net.non_bottom:
            if final.activation[c]:
                verdicts[c] = Verdict.INFERRED
            elif c in final.rejected:
                verdicts[c] = Verdict.REJECTED
            else:
                verdicts[c] = Verdict.INACTIVE
    else:
        if ph.termination is Termination.CYCLE and ph.cycle_start is not None:
            window = ph.snapshots[ph.cycle_start :]
        else:
            window = ph.snapshots[-2:]
        for c in net.non_bottom:
            if c in final.rejected:
                verdicts[c] = Verdict.REJECTED
            elif any(s.activation[c] for s in window):
                verdicts[c] = Verdict.UNSTABLE
            else:
                verdicts[c] = Verdict.INACTIVE
    return verdicts


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


@dataclass(frozen=True)
class AgreementReport:
    cases: tuple[CaseResult, ...]

    def count(self, kind: Agreement) -> int:
        return sum(1 for c in self.cases if c.classification is kind)

    @property
    def disagreements(self) -> tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if c.classification is Agreement.DISAGREE)


#: Refuse to sweep clamp subsets beyond this many layer-0 concepts.
COMPARE_BOTTOM_LIMIT = 16


def compare_with_oracle(
    net: ValidatedNetwork,
    params: EngineParams | None = None,
    limit: int = COMPARE_BOTTOM_LIMIT,
) -> AgreementReport:
    """Exhaustively compare single-phase dynamics against the oracle.

    For every subset of layer-0 clamps, run the circuit from the zero state to
    termination and classify:

      AGREE         the inferred set is a maximal consistent interpretation,
                    or nothing is consistent and nothing was inferred
      TIE-SELECTED  the inferred set is a strict subset of some consistent
                    interpretation (lateral inhibition chose among oracle ties,
                    or error-driven rejection emptied a tie)
      DISAGREE      anything else, including non-convergence
    """
    params = params if params is not None else EngineParams()
    bottom = net.bottom
    if len(bottom) > limit:
        raise TooLarge(f"{len(bottom)} layer-0 concepts exceed the comparison limit of {limit}")
    cases: list[CaseResult] = []
    for mask in range(1 << len(bottom)):
        clamped = frozenset(bottom[i] for i in range(len(bottom)) if mask >> i & 1)
        engine = Engine(net, params)
        engine.apply_clamp({e: 1 for e in sorted(clamped)})
        snaps, termination, _ = engine.run_to_fixed_point()
        reports = _oracle.enumerate_interpretations(net, clamped, params.tau)
        consistent = [r.interpretation for r in reports]
        maximal = tuple(r.interpretation for r in reports if r.maximal)
        if termination is not Termination.FIXED_POINT:
            inferred = None
            classification = Agreement.DISAGREE
        else:
            inferred = frozenset(c for c in net.non_bottom if snaps[-1].activation[c])
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
