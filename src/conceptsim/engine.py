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
import numbers
from bisect import bisect_left
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import BadParams, TooLarge
from .model import DEFAULT_TAU, ConceptId, ValidatedNetwork, _bit_bytes, _bits, _ids


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


class EngineParams(NamedTuple):
    """Circuit weights and thresholds.

    Invariants, checked by validate():
      w_ff > theta           a complete pattern alone ignites its concept
      theta < w_self < w_ff  self-input holds an active unit but is weaker than evidence
      w_err > w_self         with theta >= 0, one routed error shuts a self-held unit with silent dendrites
      w_lat >= 0, w_err >= 0 lateral inhibition and error units only inhibit
      0 < tau <= 1, max_sweeps >= 1
      every weight, theta and tau a finite real number, max_sweeps an int and
      error_routing an ErrorRouting; a bool is neither, as in parse_params

    The default w_err exceeds w_ff + w_self - theta, so a single routed error
    also shuts a unit whose dendrite is still fully driven; that is what lets
    a violated expectation override otherwise complete evidence.
    """

    w_ff: float = 1.0
    w_self: float = 0.6
    w_lat: float = 0.8
    w_err: float = 1.2
    theta: float = 0.5
    tau: float = DEFAULT_TAU
    max_sweeps: int = 64
    error_routing: ErrorRouting = ErrorRouting.SPLIT

    def validate(self) -> None:
        for name in ("w_ff", "w_self", "w_lat", "w_err", "theta", "tau"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise BadParams(f"{name} is not a number")
            if not math.isfinite(value):
                raise BadParams(f"{name} is not finite")
        if isinstance(self.max_sweeps, bool) or not isinstance(self.max_sweeps, int):
            raise BadParams("max_sweeps is not an integer")
        if not isinstance(self.error_routing, ErrorRouting):
            raise BadParams("error_routing is not an ErrorRouting")
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
        if self.w_err < 0:
            raise BadParams("w_err < 0")


class Snapshot(NamedTuple):
    """Unit values at the end of one sweep, as bitmasks over concept ids.

    Bit c of active is concept c's activation, of omitted and committed its
    error units, and of latched its latch; n is the number of concepts. A
    named tuple of five ints hashes and compares at C speed. activation,
    omission, commission and rejected are read-only views for reading by id.
    """

    active: int
    omitted: int
    committed: int
    latched: int
    n: int

    @property
    def activation(self) -> tuple[int, ...]:
        return tuple(_bit_bytes(self.active, self.n))

    @property
    def omission(self) -> tuple[int, ...]:
        return tuple(_bit_bytes(self.omitted, self.n))

    @property
    def commission(self) -> tuple[int, ...]:
        return tuple(_bit_bytes(self.committed, self.n))

    @property
    def rejected(self) -> frozenset[ConceptId]:
        return frozenset(_ids(self.latched))


class PhaseTrace(NamedTuple):
    """All sweeps run under one clamp, with how the phase ended."""

    clamp: Mapping[ConceptId, int]
    snapshots: tuple[Snapshot, ...]
    termination: Termination
    cycle_start: int | None = None


class Trace(NamedTuple):
    net: ValidatedNetwork
    phases: tuple[PhaseTrace, ...]


def dendrite_values(
    net: ValidatedNetwork, activation: Sequence[int]
) -> dict[tuple[ConceptId, int], int]:
    """Dendritic conjunctions: 1 iff every element of the pattern is active."""
    active = _bits(activation)
    out: dict[tuple[ConceptId, int], int] = {}
    for c in net.non_bottom:
        for k, mask in enumerate(net.masks[c]):
            out[(c, k)] = int(mask & active == mask)
    return out


def _applicable(
    net: ValidatedNetwork, active: int, tau: float
) -> tuple[int, list[tuple[ConceptId, int]]]:
    """Applicability of every pattern of every active concept, once.

    A pattern with mask m applies when m & active == m (Complete) or at least
    model.pattern_need(size, tau) of its elements are present. Returns pred,
    the union of the applicable patterns (the elements predicted), and for
    each active concept with an applicable pattern, (concept, the union of its
    applicable patterns), which is what an omission blames.
    """
    needs = net.pattern_needs(tau)
    pred = 0
    owners: list[tuple[ConceptId, int]] = []
    for c in _ids(active & net.non_bottom_mask):
        union = 0
        for mask, need in zip(net.masks[c], needs[c]):
            hit = mask & active
            if hit == mask or hit.bit_count() >= need:
                union |= mask
        if union:
            pred |= union
            owners.append((c, union))
    return pred, owners


def _error_bits(net: ValidatedNetwork, active: int, pred: int) -> tuple[int, int]:
    """Omission (predicted but inactive) and commission (active but
    unpredicted, below the top layer) as bitmasks."""
    return pred & ~active, active & ~pred & net.below_top


def _route(
    net: ValidatedNetwork,
    active: int,
    omission: int,
    commission: int,
    routing: ErrorRouting,
    owners: list[tuple[ConceptId, int]],
) -> list[int]:
    """route_errors on bitmasks, with owners as _applicable returns them."""
    routed = [0] * net.n_concepts
    if not omission and not commission:
        return routed
    if routing is ErrorRouting.ALL_GLOBAL:
        total = omission.bit_count() + commission.bit_count()
        for c in _ids(active & net.non_bottom_mask):
            routed[c] = total
        return routed
    # an omission charges each owner once per missing element it predicted
    for owner, union in owners:
        routed[owner] += (union & omission).bit_count()
    # commission errors per layer; each charges every active concept one layer up
    layer_mask = net.layer_mask
    for layer in range(net.max_layer):
        count = (commission & layer_mask[layer]).bit_count()
        if count:
            for c in _ids(active & layer_mask[layer + 1]):
                routed[c] += count
    return routed


def error_flags(
    net: ValidatedNetwork, activation: Sequence[int], tau: float
) -> tuple[list[int], list[int]]:
    """Omission (predicted but inactive) and commission (active but unpredicted) flags.

    Prediction and explanation coincide: both mean membership in an applicable
    pattern of an active concept. Concepts on the top occupied layer have no
    error units, so they are exempt from commission errors; they can never be
    predicted, so omission needs no exemption.
    """
    active = _bits(activation)
    pred, _ = _applicable(net, active, tau)
    omission, commission = _error_bits(net, active, pred)
    return list(_bit_bytes(omission, net.n_concepts)), list(_bit_bytes(commission, net.n_concepts))


def route_errors(
    net: ValidatedNetwork,
    activation: Sequence[int],
    omission: Sequence[int],
    commission: Sequence[int],
    routing: ErrorRouting,
    tau: float,
) -> list[int]:
    """How many error units inhibit each concept on the next sweep.

    Under SPLIT an element flagged both ways counts as an omission only.
    """
    active = _bits(activation)
    _, owners = _applicable(net, active, tau)
    omitted, committed = _bits(omission), _bits(commission)
    if routing is ErrorRouting.SPLIT:
        committed &= ~omitted
    return _route(net, active, omitted, committed, routing, owners)


def _drive(p: EngineParams, dendrite: int, prev: int, k: int, r: int) -> float:
    """The float sum that turns a unit on when it is above 0: dendrite and
    prev are its Complete-pattern and previous values, k the count of other
    active units in its layer and r its routed error count.

    It is written only here and read only by _drive_thresholds, so both
    engines decide by one rounding of it. Each float operation rounds
    monotonically, w_lat and w_err are >= 0 and so are k and r, so the drive
    never rises with k or with r.
    """
    return p.w_ff * dendrite + p.w_self * prev - p.w_lat * k - p.w_err * r - p.theta


def _drive_thresholds(params: EngineParams, widest: int, most: int) -> dict[tuple[int, int], list[int]]:
    """The drive test as a table of thresholds on the routed count, the only
    reader of _drive: both the sweep and the plane run read the weights
    through this table alone.

    For each (dendrite, prev) and each count k < widest of other active units
    in the layer, the least routed count r <= most at which _drive is at most
    0, and most + 1 if there is none. The drive falls with r (see _drive), so
    it is > 0 exactly for r below the threshold, and a cell's threshold is
    found by bisection over r. It falls with k too, so a row's cells fall:
    from its first 0 cell on a row is 0, and those cells are not computed;
    with w_lat 0 the drive does not depend on k, and a row is its first cell
    throughout.
    """
    table: dict[tuple[int, int], list[int]] = {}
    for dendrite in (0, 1):
        for prev in (0, 1):
            row = table[dendrite, prev] = []
            for k in range(widest):
                r = bisect_left(range(most + 1), True, key=lambda r: _drive(params, dendrite, prev, k, r) <= 0)
                row.append(r)
                if not r or not params.w_lat:
                    row += [r] * (widest - 1 - k)
                    break
    return table


def _whole_layer(changed: int, size: int) -> bool:
    """Engine._dendrites' rule: recheck a layer of size concepts whole."""
    return changed.bit_count() > size


class Engine:
    """One deterministic simulation instance over a fixed network and parameters.

    The state is four bitmasks over concept ids, as in Snapshot: active,
    omitted, committed and latched, plus routed, the error count that
    inhibits each concept on the next sweep. Writes to them between sweeps
    take effect in the next sweep. A routed count must be an int in 0..n,
    the counts a sweep routes and the drive table covers: a sweep refuses
    any other, on a unit it decides (visits unlatched), with ValueError and
    leaves the engine as it was. activation, omission, commission and
    rejected are read-only views of the bitmasks.
    """

    def __init__(self, net: ValidatedNetwork, params: EngineParams | None = None):
        """Fresh engine: all activations zero, no errors, no latches, empty clamp."""
        params = params if params is not None else EngineParams()
        params.validate()
        self.net = net
        self.params = params
        #: per layer, the last layer-below mask seen and the dendrite mask it
        #: gave, a pure function of the net and that mask, so reset() and
        #: writes between sweeps leave it valid; no pattern is empty, so an
        #: empty layer below completes none
        self._dendrite_memo = [(0, 0)] * (net.max_layer + 1)
        #: the drive test over every routed count a sweep can route: each of
        #: the at most n error units charges a concept at most once
        widest = max((mask.bit_count() for mask in net.layer_mask[1:]), default=0)
        self._table = table = _drive_thresholds(params, widest, net.n_concepts)
        #: per dendrite value d, the layer count k from which an idle unit
        #: cannot ignite: the cells above 0 that lead row (d, prev 0)
        self._k_on = sum(map(bool, table[0, 0])), sum(map(bool, table[1, 0]))
        self.reset()

    def reset(self) -> None:
        """Return to exactly the state of a fresh Engine on the same net and params."""
        self.active = 0
        self.apply_clamp({})

    activation = property(lambda self: self.snapshot().activation)
    omission = property(lambda self: self.snapshot().omission)
    commission = property(lambda self: self.snapshot().commission)
    rejected = property(lambda self: self.snapshot().rejected)

    @property
    def clamp(self) -> Mapping[ConceptId, int]:
        """The current clamp, read-only. Assigning a mapping replaces it for
        the next sweep, within the phase; apply_clamp also opens a phase.
        Both refuse, leaving the engine as it was, the first entry whose key
        is not a layer-0 concept id or whose value is not the int 0 or 1."""
        return MappingProxyType(self._clamp)

    @clamp.setter
    def clamp(self, clamp: Mapping[ConceptId, int]) -> None:
        clamp = dict(clamp)
        net = self.net
        # layer 0 as the clamp sets it; unclamped units are 0
        values = bytearray(net.n_concepts)
        for e, value in clamp.items():
            if type(e) is not int or not 0 <= e < len(values) or net.layer_of[e]:
                net._check_clamped(e)
            if type(value) is not int or value not in (0, 1):
                raise ValueError(f"clamp value for {net.names[e]!r} must be 0 or 1")
            values[e] = value
        self._clamp, self._clamp_bits = clamp, _bits(values)

    def snapshot(self) -> Snapshot:
        return Snapshot(self.active, self.omitted, self.committed, self.latched, self.net.n_concepts)

    def apply_clamp(self, clamp: Mapping[ConceptId, int]) -> None:
        """Open a new phase: replace the clamp, drop latches and error state.

        Clamped layer-0 units take their clamp value immediately; unclamped
        layer-0 units fall to 0. Higher layers keep their activation until
        sweeps run. A clamp is refused as assigning clamp refuses it.
        """
        net = self.net
        self.clamp = clamp
        self.omitted = self.committed = self.latched = 0
        self.routed: list[int] = [0] * net.n_concepts
        self.active = self.active & ~net.layer_mask[0] | self._clamp_bits
        #: the observable state as of the last sweep or clamp; sweep() reports
        #: a change against it, so a write between sweeps is not a change itself
        self.state = self.snapshot()

    def _dendrites(self, layer: int, below: int) -> int:
        """The concepts of a layer with a Complete pattern on below, the final
        mask of the layer under it, as a bitmask.

        Each layer remembers the last below and its answer. A new below
        rechecks none of the layer if it is empty, all of it in one pass if it
        changed in more elements than the layer has concepts (_whole_layer), as
        on a clamp swap, and else the owners of patterns with a changed element.
        """
        last, dend = self._dendrite_memo[layer]
        if below != last:
            net = self.net
            owners = net.layers[layer]
            if not below:
                owners, dend = (), 0
            elif not _whole_layer(below ^ last, len(owners)):
                owners = {c for e in _ids(below ^ last) for c, _ in net.parent_index[e]}
            for c in owners:
                for mask in net.masks[c]:
                    if mask & below == mask:
                        dend |= 1 << c
                        break
                else:
                    dend &= ~(1 << c)
            self._dendrite_memo[layer] = (below, dend)
        return dend

    def sweep(self) -> bool:
        """One full pass; returns whether the observable state changed.

        Layer 0 takes the clamp in one mask operation. Each layer is updated
        in id order, a unit turning on where its routed count is below its
        cell of the drive table (see _drive_thresholds), so a sweep evaluates
        no float drive. It visits every active unit, latched or not, and an
        idle, unlatched unit with dendrite value d only while the layer's
        running count of active units is below k_on[d], the least count k
        whose cell at prev 0 is 0. The bound is exact: an idle unit's drive
        does not rise with the count or its routed count (see _drive), so
        from k_on[d] on it stays off, and it cannot latch, which needs it on.
        The walk jumps over the other units and recomputes what is left only
        when the count crosses a bound. With theta >= 0, k_on[0] is 0: only
        active units and units with a Complete pattern are ever visited. The
        active bitmask is kept current through the sequential update, so
        applicability, predictions, errors and routing are then computed
        once, on bits.
        """
        net, p, table = self.net, self.params, self._table
        routed, latched, n = self.routed, self.latched, net.n_concepts
        layer_mask = net.layer_mask
        k_on0, k_on1 = self._k_on

        active = self.active & ~layer_mask[0] | self._clamp_bits
        newly_latched = 0
        for layer in range(1, net.max_layer + 1):
            # the layer below is final for this sweep; dendrites read only it
            dend = self._dendrites(layer, active & layer_mask[layer - 1])
            # active units of this layer, kept current through the sequential update
            layer_active = (active & layer_mask[layer]).bit_count()
            # whether an idle unit without, and with, a Complete pattern can ignite
            bounds = layer_active < k_on0, layer_active < k_on1
            ignitable = (~dend if bounds[0] else 0) | (dend if bounds[1] else 0)
            # the units left to visit, lowest id first
            visit = layer_mask[layer] & (active | ignitable & ~latched)
            while visit:
                bit = visit & -visit
                visit ^= bit
                c = bit.bit_length() - 1
                prev = 1 if active & bit else 0
                if latched & bit:
                    now = 0
                else:
                    if type(r := routed[c]) is not int or not 0 <= r <= n:
                        raise ValueError(f"routed count {r!r} for {net.names[c]!r} is not an int in 0..{n}")
                    dendrite = 1 if dend & bit else 0
                    now = 1 if r < table[dendrite, prev][layer_active - prev] else 0
                    if prev == 1 and now == 0 and r > 0:
                        newly_latched |= bit
                if now != prev:
                    active ^= bit
                    layer_active += now - prev
                    if (layer_active < k_on0, layer_active < k_on1) != bounds:
                        # a bound was crossed: recompute the units above c
                        bounds = layer_active < k_on0, layer_active < k_on1
                        ignitable = (~dend if bounds[0] else 0) | (dend if bounds[1] else 0)
                        visit = layer_mask[layer] & -(bit << 1) & (active | ignitable & ~latched)

        pred, owners = _applicable(net, active, p.tau)
        self.omitted, self.committed = _error_bits(net, active, pred)
        # inhibition lands one sweep later
        self.routed = _route(net, active, self.omitted, self.committed, p.error_routing, owners)
        self.active = active
        self.latched = latched | newly_latched
        before, self.state = self.state, self.snapshot()
        return self.state != before

    def run_to_fixed_point(self) -> tuple[tuple[Snapshot, ...], Termination, int | None]:
        """Sweep until nothing changes, a state recurs, or max_sweeps is hit."""
        return self._run(self.params.max_sweeps, stop=True)

    def run_fixed_sweeps(self, count: int) -> tuple[tuple[Snapshot, ...], Termination, int | None]:
        """Run exactly `count` sweeps, labelling how the segment ended.

        A bool, a non-int or a count below 1 raises ValueError, and one
        above params.max_sweeps TooLarge, before any sweep runs.
        """
        self._check_hold(count)
        return self._run(count, stop=False)

    def _check_hold(self, count: int) -> None:
        if type(count) is not int:
            raise ValueError(f"a hold of {count!r} sweeps is not an int")
        if count < 1:
            raise ValueError(f"a hold of {count} sweeps is below 1")
        if count > self.params.max_sweeps:
            raise TooLarge(f"a hold of {count} sweeps exceeds max_sweeps={self.params.max_sweeps}")

    def _run(self, count: int, stop: bool) -> tuple[tuple[Snapshot, ...], Termination, int | None]:
        """Up to `count` sweeps; with stop, end at the first unchanged or recurring state.

        The segment is a fixed point if its last sweep changed nothing, else a
        cycle if some changed state recurred (cycle_start: the sweep where the
        first recurring state was last seen, 0 for the starting state), else
        it hit the sweep limit.
        """
        snaps: list[Snapshot] = []
        seen: dict[Snapshot, int] = {self.state: -1}
        cycle_start: int | None = None
        changed = True
        for i in range(count):
            changed = self.sweep()
            state = self.state
            snaps.append(state)
            if changed and cycle_start is None and state in seen:
                cycle_start = max(seen[state], 0)
            if stop and (not changed or cycle_start is not None):
                break
            seen[state] = i
        if not changed:
            termination = Termination.FIXED_POINT
        elif cycle_start is not None:
            termination = Termination.CYCLE
        else:
            termination = Termination.SWEEP_LIMIT
        return tuple(snaps), termination, cycle_start


def run_scenario(
    net: ValidatedNetwork,
    params: EngineParams,
    phases: Iterable[tuple[Mapping[ConceptId, int], int | None]],
) -> Trace:
    """Run an ordered list of (clamp, hold) phases; hold None means run to convergence.

    A bool, a non-int or a hold below 1 raises ValueError, and one above
    params.max_sweeps TooLarge, before the first phase runs.
    """
    engine = Engine(net, params)
    phases = list(phases)
    for _, hold in phases:
        if hold is not None:
            engine._check_hold(hold)
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

    Active in the final snapshot of a fixed point means Inferred; otherwise
    latched there means Rejected, active anywhere in the window Unstable, and
    else Inactive. The window is a fixed point's last snapshot, a cycle's
    snapshots from cycle_start on, and else the last two. Verdicts are masks in
    that order, keyed as net.non_bottom. A bool phase raises ValueError.
    """
    if type(phase) is bool:
        raise ValueError(f"phase {phase!r} is a bool, not an int")
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
    # the concepts active anywhere in the window
    active = 0
    for s in window:
        active |= s.active
    left, inferred = net.non_bottom_mask, final.active if fixed else 0
    verdicts = dict.fromkeys(net.non_bottom, Verdict.INACTIVE)
    for verdict, mask in (Verdict.INFERRED, inferred), (Verdict.REJECTED, final.latched), (Verdict.UNSTABLE, active):
        verdicts.update(dict.fromkeys(_ids(mask & left), verdict))
        left &= ~mask
    return verdicts


#: names that moved to compare.py; engine resolves them on first use, so
#: engine.compare_with_oracle still works and `run` never loads compare
_COMPARE_NAMES = {"Agreement", "CaseResult", "AgreementReport", "COMPARE_BOTTOM_LIMIT", "compare_with_oracle"}


def __getattr__(name: str):
    if name not in _COMPARE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import compare

    value = globals()[name] = getattr(compare, name)
    return value
