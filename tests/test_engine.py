"""Circuit dynamics: sweep order, error units, latching, termination."""
import hashlib
import json
import random
from collections import Counter

import pytest

from conceptsim import (
    Engine,
    EngineParams,
    ErrorRouting,
    PhaseTrace,
    Snapshot,
    Termination,
    Trace,
    Verdict,
    compare_with_oracle,
    dendrite_values,
    error_flags,
    read_verdicts,
    run_scenario,
    write_trace_csv,
)
from conceptsim.errors import BadParams, NonBottomClamp, TooLarge, UnknownConcept

from netgen import SYNTH, random_network, random_scenario, run_large_trace, shuffled_network

PARAMS = EngineParams()


def acts(net, snap):
    return sorted(net.names[i] for i in range(net.n_concepts) if snap.activation[i])


def oms(net, snap):
    return sorted(net.names[i] for i in range(net.n_concepts) if snap.omission[i])


def coms(net, snap):
    return sorted(net.names[i] for i in range(net.n_concepts) if snap.commission[i])


def rej(net, snap):
    return sorted(net.names[i] for i in snap.rejected)


# --- parameters ---

def test_default_params_are_valid():
    PARAMS.validate()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(w_ff=0.4, theta=0.5), "w_ff <= theta"),
        (dict(w_err=0.5, w_self=0.6), "w_err <= w_self"),
        (dict(w_self=0.5, theta=0.5), "w_self <= theta"),
        (dict(w_self=1.0, w_ff=1.0), "w_self >= w_ff"),
        (dict(w_lat=-0.1), "w_lat < 0"),
        (dict(tau=0.0), "tau"),
        (dict(tau=1.5), "tau"),
        (dict(max_sweeps=0), "max_sweeps"),
        (dict(w_ff=float("inf")), "w_ff is not finite"),
        (dict(w_lat=float("nan")), "w_lat is not finite"),
        (dict(w_err=float("-inf")), "w_err is not finite"),
        (dict(w_ff=0.5, w_self=-0.5, w_err=-0.2, theta=-1.0), "^w_err < 0$"),
        # w_err < 0 is checked last, so a set with another fault keeps its message
        (dict(w_ff=0.5, w_self=-0.5, w_err=-0.2, theta=-1.0, max_sweeps=0), "^max_sweeps < 1$"),
        (dict(w_ff=0.5, w_self=-0.5, w_err=-0.2, theta=-1.0, w_lat=-0.1), "^w_lat < 0$"),
    ],
)
def test_bad_params_name_the_inequality(net, kwargs, message):
    with pytest.raises(BadParams, match=message):
        Engine(net, EngineParams(**kwargs))


@pytest.mark.parametrize("entry", [Engine, compare_with_oracle])
@pytest.mark.parametrize(
    "kwargs, message",
    [
        # _route reads anything but ALL_GLOBAL as SPLIT, the compare planes
        # charge omissions only under SPLIT itself: the two would disagree
        (dict(error_routing="split"), "error_routing is not an ErrorRouting"),
        (dict(error_routing=None), "error_routing is not an ErrorRouting"),
        (dict(max_sweeps=2.5), "max_sweeps is not an integer"),
        (dict(max_sweeps=True), "max_sweeps is not an integer"),
        (dict(w_ff="1"), "w_ff is not a number"),
        (dict(theta=None), "theta is not a number"),
        (dict(tau=True), "tau is not a number"),
    ],
)
def test_bad_param_types_name_the_field(net, entry, kwargs, message):
    with pytest.raises(BadParams, match=f"^{message}$"):
        entry(net, EngineParams(**kwargs))


def test_new_engine_is_in_zero_state(net):
    eng = Engine(net, PARAMS)
    assert eng.active == eng.omitted == eng.committed == eng.latched == 0
    assert eng.routed == [0] * 7 and eng.clamp == {}
    assert eng.state == eng.snapshot() == Snapshot(0, 0, 0, 0, 7)


def test_views_read_the_bitmasks(net, ids):
    """activation, omission, commission and rejected are read-only views of
    the bitmasks, on the engine as on a snapshot."""
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1})
    eng.run_fixed_sweeps(2)
    for view in (eng, eng.snapshot()):
        assert view.activation == tuple(eng.active >> c & 1 for c in range(7))
        assert view.omission == tuple(eng.omitted >> c & 1 for c in range(7))
        assert view.commission == tuple(eng.committed >> c & 1 for c in range(7))
        assert view.rejected == frozenset(c for c in range(7) if eng.latched >> c & 1)
    assert eng.omission[ids["sweet"]] == 1 and eng.rejected == {ids["salt"]}
    for name in ("activation", "omission", "commission", "rejected"):
        with pytest.raises(AttributeError):
            setattr(eng, name, ())
    with pytest.raises(TypeError):
        eng.clamp[ids["salty"]] = 1


def test_clamp_assigned_between_sweeps_is_read_by_the_next_sweep(net, ids):
    """Assigning clamp replaces layer 0's input within the phase: latches and
    errors stay, and the next sweep reads the new clamp."""
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1})
    eng.run_to_fixed_point()
    latched = eng.latched
    eng.clamp = {ids["tasting"]: 1, ids["salty"]: 1}
    assert eng.clamp == {ids["tasting"]: 1, ids["salty"]: 1}
    eng.sweep()
    assert eng.active & eng.net.layer_mask[0] == 1 << ids["tasting"] | 1 << ids["salty"]
    assert eng.latched == latched  # salt stays latched: no new phase
    assert eng.activation[ids["salt"]] == 0


@pytest.mark.parametrize("make", [random_network, shuffled_network])
@pytest.mark.parametrize("seed", range(10))
def test_assigned_clamp_sets_only_truthy_layer_zero_entries(make, seed):
    """Assigning clamp refuses exactly what apply_clamp refuses, with the
    same error: the first entry, in order, whose key is not a concept id
    (UnknownConcept) or lies above layer 0 (NonBottomClamp), or whose value
    is not the int 0 or 1 (ValueError). A refused assignment leaves the
    clamp as it was; an accepted one sets the layer-0 ids whose value is 1.
    Some shuffled nets end on a layer-0 id, where a negative index would
    land."""
    net = make(seed)
    rng = random.Random(seed)
    keys = [*range(-2, net.n_concepts + 3), True, "a", None]
    values = [0, 1, 2, False, True, "x", ""]
    refused = 0
    for _ in range(40):
        # half the draws keep to layer-0 ids, and most values are 0 or 1,
        # so some clamps pass
        pool = keys if rng.random() < 0.5 else list(net.bottom)
        clamp = {
            k: rng.choice(values) if rng.random() < 0.2 else rng.randint(0, 1)
            for k in rng.sample(pool, rng.randint(0, min(4, len(pool))))
        }
        errors = []
        for assign in (lambda eng: setattr(eng, "clamp", clamp), lambda eng: eng.apply_clamp(clamp)):
            eng = Engine(net, PARAMS)
            eng.clamp = {net.bottom[0]: 1}
            try:
                assign(eng)
            except Exception as exc:
                errors.append((type(exc), str(exc)))
                assert eng.clamp == {net.bottom[0]: 1} and eng._clamp_bits == 1 << net.bottom[0]
            else:
                errors.append(None)
                assert eng.clamp == clamp
                assert eng._clamp_bits == sum(1 << e for e in net.bottom if clamp.get(e))
        assert errors[0] == errors[1] == first_clamp_error(net, clamp)
        refused += errors[0] is not None
    assert 0 < refused < 40


def first_clamp_error(net, clamp):
    """The error a clamp is refused with, checked entry by entry as stated;
    a bool is not a concept id."""
    for key, value in clamp.items():
        if isinstance(key, bool) or not isinstance(key, int) or not 0 <= key < net.n_concepts:
            return UnknownConcept, f"no concept with id {key!r}"
        if net.layer_of[key] != 0:
            return NonBottomClamp, f"{net.names[key]!r} is not a layer-0 concept"
        if type(value) is not int or value not in (0, 1):
            return ValueError, f"clamp value for {net.names[key]!r} must be 0 or 1"
    return None


# --- clamping ---

def test_apply_clamp_activates_bottom_and_drops_the_rest(net, ids):
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1})
    assert eng.activation[ids["looking"]] == 1 and eng.activation[ids["white"]] == 1
    eng.apply_clamp({ids["tasting"]: 1})
    assert eng.activation[ids["looking"]] == 0
    assert eng.activation[ids["tasting"]] == 1


def test_apply_clamp_keeps_higher_layers_until_sweeps_run(net, ids):
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1})
    eng.run_to_fixed_point()
    assert eng.activation[ids["salt"]] == 1
    eng.apply_clamp({})
    assert eng.activation[ids["salt"]] == 1  # only sweeps move non-bottom units


def test_apply_clamp_clears_latches_and_errors(net, ids):
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1})
    eng.run_to_fixed_point()
    assert eng.latched  # salt and sugar latched
    eng.apply_clamp({ids["tasting"]: 1, ids["salty"]: 1})
    assert eng.latched == 0
    assert eng.omitted == eng.committed == 0
    _, term, _ = eng.run_to_fixed_point()
    assert term is Termination.FIXED_POINT
    assert eng.activation[ids["salt"]] == 1  # hypothesis reopened after clamp change


def test_apply_clamp_rejects_non_bottom_and_unknown(net, ids):
    """apply_clamp and an assigned clamp refuse the same entries; neither
    drops an entry or reads a value of 7 as 1."""
    eng = Engine(net, PARAMS)
    for clamp, error in [
        ({ids["salt"]: 1}, NonBottomClamp),
        ({99: 1}, UnknownConcept),
        ({ids["looking"]: 2}, ValueError),
        ({ids["looking"]: 1, ids["white"]: 7}, ValueError),
    ]:
        with pytest.raises(error):
            eng.apply_clamp(clamp)
        with pytest.raises(error):
            eng.clamp = clamp
    assert eng.clamp == {}


@pytest.mark.parametrize("call", [
    lambda net: Engine(net, PARAMS).apply_clamp({"looking": 1}),
    lambda net: run_scenario(net, PARAMS, [({"looking": 1}, None)]),
    lambda net: setattr(Engine(net, PARAMS), "clamp", {"looking": 1}),
], ids=["apply_clamp", "run_scenario", "assigned"])
def test_a_clamp_key_that_is_not_an_int_is_unknown(net, call):
    with pytest.raises(UnknownConcept, match="^no concept with id 'looking'$"):
        call(net)


@pytest.mark.parametrize("value", [True, 1.0, False, 0.0])
def test_apply_clamp_requires_int_values(net, ids, value):
    """Like the scenario parser, a clamp value must be the int 0 or 1."""
    eng = Engine(net, PARAMS)
    with pytest.raises(ValueError, match="must be 0 or 1"):
        eng.apply_clamp({ids["looking"]: value})


# --- dendrites ---

def test_dendrites_are_full_conjunctions(net, ids):
    activation = [0] * 7
    activation[ids["looking"]] = 1
    activation[ids["white"]] = 1
    dend = dendrite_values(net, activation)
    assert dend[(ids["salt"], 1)] == 1
    assert dend[(ids["salt"], 0)] == 0
    activation = [0] * 7
    activation[ids["tasting"]] = 1
    dend = dendrite_values(net, activation)
    assert dend[(ids["salt"], 0)] == 0  # half a conjunction is nothing
    assert dendrite_values(net, [0] * 7) == {
        (ids["salt"], 0): 0, (ids["salt"], 1): 0,
        (ids["sugar"], 0): 0, (ids["sugar"], 1): 0,
    }


# --- single sweeps ---

def test_first_sweep_winner_take_all(net, ids):
    """salt updates first and its activation suppresses sugar within the sweep."""
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1})
    changed = eng.sweep()
    assert changed
    assert eng.activation[ids["salt"]] == 1
    assert eng.activation[ids["sugar"]] == 0
    assert eng.omitted == eng.committed == 0


def test_latched_unit_stops_inhibiting_later_peers_within_the_sweep(net, ids):
    """Lateral inhibition reads peers' current values: salt, latched and
    forced to 0 earlier in the same layer update, no longer inhibits sugar."""
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1})
    eng.active |= 1 << ids["salt"]
    eng.latched |= 1 << ids["salt"]
    eng.sweep()
    assert eng.activation[ids["salt"]] == 0
    assert eng.activation[ids["sugar"]] == 1


def test_omission_error_when_applicable_pattern_misses_element(net, ids):
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1})
    eng.run_to_fixed_point()
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1})
    eng.sweep()
    assert eng.omission[ids["salty"]] == 1
    assert eng.activation[ids["salt"]] == 1  # inhibition lands one sweep later


def test_no_errors_when_pattern_complete(net, ids):
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["tasting"]: 1, ids["salty"]: 1})
    eng.sweep()
    assert eng.activation[ids["salt"]] == 1
    assert eng.omitted == eng.committed == 0


# --- full scenarios, frozen sweep by sweep ---

def test_salt_rejection_trace_pinned(net, ids):
    trace = run_scenario(net, PARAMS, [
        ({ids["looking"]: 1, ids["white"]: 1}, None),
        ({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1}, None),
    ])
    p0, p1 = trace.phases
    assert p0.termination is Termination.FIXED_POINT
    assert [acts(net, s) for s in p0.snapshots] == [
        ["looking", "salt", "white"],
        ["looking", "salt", "white"],
    ]
    assert all(not oms(net, s) and not coms(net, s) for s in p0.snapshots)

    assert p1.termination is Termination.FIXED_POINT
    assert [acts(net, s) for s in p1.snapshots] == [
        ["looking", "salt", "tasting", "white"],
        ["looking", "sugar", "tasting", "white"],
        ["looking", "tasting", "white"],
        ["looking", "tasting", "white"],
    ]
    assert [oms(net, s) for s in p1.snapshots] == [["salty"], ["sweet"], [], []]
    assert [coms(net, s) for s in p1.snapshots] == [
        [], [], ["looking", "tasting", "white"], ["looking", "tasting", "white"],
    ]
    assert [rej(net, s) for s in p1.snapshots] == [
        [], ["salt"], ["salt", "sugar"], ["salt", "sugar"],
    ]
    assert read_verdicts(trace, 0) == {ids["salt"]: Verdict.INFERRED, ids["sugar"]: Verdict.INACTIVE}
    assert read_verdicts(trace, 1) == {ids["salt"]: Verdict.REJECTED, ids["sugar"]: Verdict.REJECTED}


def test_decoupling_trace_pinned(net, ids):
    trace = run_scenario(net, PARAMS, [
        ({ids["looking"]: 1, ids["white"]: 1}, None),
        ({}, None),
    ])
    p1 = trace.phases[1]
    assert p1.termination is Termination.FIXED_POINT
    assert [acts(net, s) for s in p1.snapshots] == [["salt"]]
    assert all(not oms(net, s) and not coms(net, s) for s in p1.snapshots)
    assert read_verdicts(trace) == {ids["salt"]: Verdict.INFERRED, ids["sugar"]: Verdict.INACTIVE}


def test_unexpected_sweet_trace_pinned(net, ids):
    trace = run_scenario(net, PARAMS, [
        ({ids["looking"]: 1, ids["white"]: 1}, None),
        ({ids["looking"]: 1, ids["white"]: 1, ids["sweet"]: 1}, None),
    ])
    p1 = trace.phases[1]
    assert p1.termination is Termination.FIXED_POINT
    assert [acts(net, s) for s in p1.snapshots] == [
        ["looking", "salt", "sweet", "white"],
        ["looking", "sugar", "sweet", "white"],
        ["looking", "sweet", "white"],
        ["looking", "sweet", "white"],
    ]
    assert [coms(net, s) for s in p1.snapshots] == [
        ["sweet"], [], ["looking", "sweet", "white"], ["looking", "sweet", "white"],
    ]
    assert [oms(net, s) for s in p1.snapshots] == [[], ["tasting"], [], []]
    assert read_verdicts(trace) == {ids["salt"]: Verdict.REJECTED, ids["sugar"]: Verdict.REJECTED}


def test_one_phase_full_evidence_is_quiet(net, ids):
    trace = run_scenario(net, PARAMS, [
        ({ids["tasting"]: 1, ids["salty"]: 1, ids["looking"]: 1, ids["white"]: 1}, None),
    ])
    phase = trace.phases[0]
    assert phase.termination is Termination.FIXED_POINT
    final = phase.snapshots[-1]
    assert acts(net, final) == ["looking", "salt", "salty", "tasting", "white"]
    assert not oms(net, final) and not coms(net, final)
    assert read_verdicts(trace) == {ids["salt"]: Verdict.INFERRED, ids["sugar"]: Verdict.INACTIVE}


def test_taste_evidence_verdicts(net, ids):
    trace = run_scenario(net, PARAMS, [({ids["tasting"]: 1, ids["salty"]: 1}, None)])
    assert read_verdicts(trace) == {ids["salt"]: Verdict.INFERRED, ids["sugar"]: Verdict.INACTIVE}


def test_empty_clamp_from_zero_is_immediate_fixed_point(net):
    trace = run_scenario(net, PARAMS, [({}, None)])
    phase = trace.phases[0]
    assert phase.termination is Termination.FIXED_POINT
    assert len(phase.snapshots) == 1
    assert acts(net, phase.snapshots[0]) == []


def test_fixed_sweep_hold_runs_exact_count(net, ids):
    trace = run_scenario(net, PARAMS, [({ids["looking"]: 1, ids["white"]: 1}, 5)])
    phase = trace.phases[0]
    assert len(phase.snapshots) == 5
    assert phase.termination is Termination.FIXED_POINT  # settled within the hold


def test_a_hold_beyond_max_sweeps_raises_before_any_sweep(net, ids):
    eng = Engine(net, EngineParams(max_sweeps=3))
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1})
    eng.run_fixed_sweeps(1)
    before = (eng.snapshot(), list(eng.routed), dict(eng.clamp))
    with pytest.raises(TooLarge, match="a hold of 4 sweeps exceeds max_sweeps=3"):
        eng.run_fixed_sweeps(4)
    assert (eng.snapshot(), eng.routed, dict(eng.clamp)) == before
    assert eng.state == before[0]
    # a hold of exactly max_sweeps still runs every sweep
    snaps, _, _ = eng.run_fixed_sweeps(3)
    assert len(snaps) == 3


@pytest.mark.parametrize("count", [0, -3, True, 2.0])
def test_a_hold_below_one_raises_before_any_sweep(net, ids, count):
    """A hold below 1, or one that is not an int (a bool is not), is refused."""
    message = f"a hold of {count!r} sweeps is {'below 1' if type(count) is int else 'not an int'}"
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1})
    eng.run_fixed_sweeps(1)
    before = (eng.snapshot(), list(eng.routed), dict(eng.clamp))
    with pytest.raises(ValueError) as refused:
        eng.run_fixed_sweeps(count)
    assert str(refused.value) == message
    assert (eng.snapshot(), eng.routed, dict(eng.clamp)) == before
    assert eng.state == before[0]


def test_a_hold_of_max_sweeps_runs_in_a_scenario(net, ids):
    clamp = {ids["looking"]: 1, ids["white"]: 1}
    trace = run_scenario(net, PARAMS, [(clamp, PARAMS.max_sweeps)])
    assert len(trace.phases[0].snapshots) == PARAMS.max_sweeps
    with pytest.raises(TooLarge):
        run_scenario(net, PARAMS, [(clamp, PARAMS.max_sweeps + 1)])


def test_every_hold_is_checked_before_the_first_phase(monkeypatch, net, ids):
    """A hold beyond max_sweeps or below 1 in a later phase is refused before
    any sweep of an earlier phase runs."""
    sweeps = []
    real_sweep = Engine.sweep

    def counted(self):
        sweeps.append(1)
        return real_sweep(self)

    monkeypatch.setattr(Engine, "sweep", counted)
    clamp = {ids["looking"]: 1, ids["white"]: 1}
    with pytest.raises(TooLarge, match="^a hold of 65 sweeps exceeds max_sweeps=64$"):
        run_scenario(net, PARAMS, [(clamp, None), (clamp, 2), (clamp, 65)])
    assert sweeps == []
    with pytest.raises(ValueError, match="^a hold of 0 sweeps is below 1$"):
        run_scenario(net, PARAMS, [(clamp, None), (clamp, 0)])
    assert sweeps == []
    with pytest.raises(ValueError, match="^a hold of True sweeps is not an int$"):
        run_scenario(net, PARAMS, [(clamp, None), (clamp, True)])
    assert sweeps == []
    with pytest.raises(ValueError, match="^a hold of 2.0 sweeps is not an int$"):
        run_scenario(net, PARAMS, [(clamp, None), (clamp, 2.0)])
    assert sweeps == []
    run_scenario(net, PARAMS, [(clamp, None), (clamp, 2)])
    assert sweeps  # the counter sees the sweeps of a scenario that runs


def test_all_global_routing_rejects_both_competitors(net, ids):
    """Under the literal global routing every error hits every active concept."""
    params = EngineParams(error_routing=ErrorRouting.ALL_GLOBAL)
    trace = run_scenario(net, params, [
        ({ids["looking"]: 1, ids["white"]: 1}, None),
        ({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1}, None),
    ])
    verdicts = read_verdicts(trace, 1)
    assert verdicts[ids["salt"]] is Verdict.REJECTED
    assert trace.phases[1].termination is Termination.FIXED_POINT


# --- invariants ---

def all_snapshots(trace):
    for phase in trace.phases:
        yield from phase.snapshots


@pytest.mark.parametrize("seed", range(12))
def test_error_exclusivity_and_flag_implications(seed):
    net = random_network(seed)
    for clamp, hold in random_scenario(net, seed * 2 + 1):
        trace = run_scenario(net, PARAMS, [(clamp, hold)])
        for snap in all_snapshots(trace):
            for e in range(net.n_concepts):
                assert snap.omission[e] * snap.commission[e] == 0
                if snap.omission[e]:
                    assert snap.activation[e] == 0
                if snap.commission[e]:
                    assert snap.activation[e] == 1
            for c in snap.rejected:
                assert snap.activation[c] == 0


@pytest.mark.parametrize("seed", range(12))
def test_bistability_cancellation(seed):
    """All-present and all-absent pattern configurations yield no errors on
    that pattern's elements while the owner is held active."""
    net = random_network(seed)
    for c in net.non_bottom:
        for pat in net.patterns_of(c):
            for present in (1, 0):
                activation = [0] * net.n_concepts
                activation[c] = 1
                for e in pat.elements:
                    activation[e] = present
                omission, commission = error_flags(net, activation, PARAMS.tau)
                for e in pat.elements:
                    assert omission[e] == 0 and commission[e] == 0


def test_quiescence_is_a_fixed_point(net):
    eng = Engine(net, PARAMS)
    eng.apply_clamp({})
    assert eng.sweep() is False


@pytest.mark.parametrize("seed", range(12))
def test_quiescence_random(seed):
    net = random_network(seed)
    eng = Engine(net, PARAMS)
    eng.apply_clamp({})
    assert eng.sweep() is False


def test_decoupling_self_sustain(net, ids):
    """Active concept with silent dendrites, no errors, no rivals stays active."""
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1})
    eng.run_to_fixed_point()
    eng.apply_clamp({})
    eng.run_to_fixed_point()
    assert eng.activation[ids["salt"]] == 1
    assert PARAMS.w_self - PARAMS.theta > 0


def test_rejection_latch_holds_until_clamp_change(net, ids):
    eng = Engine(net, PARAMS)
    eng.apply_clamp({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1})
    snaps, term, _ = eng.run_to_fixed_point()
    assert term is Termination.FIXED_POINT
    latched_at = next(i for i, s in enumerate(snaps) if ids["salt"] in s.rejected)
    for snap in snaps[latched_at:]:
        assert snap.activation[ids["salt"]] == 0
    # dendrite is still complete, yet the latch keeps the unit off
    for _ in range(3):
        eng.sweep()
        assert eng.activation[ids["salt"]] == 0


@pytest.mark.parametrize("seed", range(12))
def test_determinism_bit_identical(seed):
    net = random_network(seed)
    scenario = random_scenario(net, seed + 100)
    first = run_scenario(net, PARAMS, scenario)
    second = run_scenario(net, PARAMS, scenario)
    assert first.phases == second.phases


def test_read_verdicts_on_synthetic_cycle(net, ids):
    """Cycle termination marks non-latched, non-quiescent concepts Unstable."""
    n = net.n_concepts
    sugar = 1 << ids["sugar"]
    snapshots = (
        Snapshot(1 << ids["salt"], 0, 0, sugar, n),
        Snapshot(0, 0, 0, sugar, n),
    )
    trace = Trace(net, (PhaseTrace({}, snapshots, Termination.CYCLE, 0),))
    verdicts = read_verdicts(trace)
    assert verdicts[ids["salt"]] is Verdict.UNSTABLE
    assert verdicts[ids["sugar"]] is Verdict.REJECTED


@pytest.mark.parametrize("hold, expected", [
    (1, {"salt": Verdict.UNSTABLE, "sugar": Verdict.INACTIVE}),
    (2, {"salt": Verdict.REJECTED, "sugar": Verdict.UNSTABLE}),
])
def test_read_verdicts_on_a_hold_that_ends_unsettled(net, ids, hold, expected):
    """A hold that ends before the state settles is a SweepLimit phase: on
    looking, white and tasting, salt ignites in sweep 0 and is rejected in
    sweep 1, when sugar takes over."""
    clamp = {ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1}
    trace = run_scenario(net, PARAMS, [(clamp, hold)])
    assert trace.phases[0].termination is Termination.SWEEP_LIMIT
    assert read_verdicts(trace) == {ids[name]: v for name, v in expected.items()}


def test_read_verdicts_at_the_sweep_limit_reads_the_last_two_sweeps(net, ids):
    """Only the last two snapshots count: salt, active three sweeps before the
    end, is Inactive; sugar, active in the second to last, is Unstable."""
    n = net.n_concepts
    salt, sugar = 1 << ids["salt"], 1 << ids["sugar"]
    snapshots = tuple(Snapshot(a, 0, 0, 0, n) for a in (salt, 0, sugar, 0))
    trace = Trace(net, (PhaseTrace({}, snapshots, Termination.SWEEP_LIMIT),))
    assert read_verdicts(trace) == {ids["salt"]: Verdict.INACTIVE, ids["sugar"]: Verdict.UNSTABLE}


@pytest.mark.parametrize("termination, cycle_start, expected", [
    (Termination.FIXED_POINT, None, Verdict.INFERRED),
    (Termination.CYCLE, 0, Verdict.REJECTED),
    (Termination.SWEEP_LIMIT, None, Verdict.REJECTED),
])
def test_read_verdicts_on_a_concept_both_active_and_latched(net, ids, termination, cycle_start, expected):
    """Inferred comes first, and only at a fixed point; then Rejected, before
    Unstable: salt, active and latched in the final snapshot of a hand-built
    trace, reads Inferred at a fixed point and Rejected otherwise."""
    salt = 1 << ids["salt"]
    snapshots = (Snapshot(0, 0, 0, 0, net.n_concepts), Snapshot(salt, 0, 0, salt, net.n_concepts))
    trace = Trace(net, (PhaseTrace({}, snapshots, termination, cycle_start),))
    assert read_verdicts(trace) == {ids["salt"]: expected, ids["sugar"]: Verdict.INACTIVE}


def test_read_verdicts_at_a_fixed_point_reads_its_last_snapshot(net, ids):
    """A fixed point's window is its last snapshot: salt, active only before
    it, is Inactive."""
    n = net.n_concepts
    snapshots = (Snapshot(1 << ids["salt"], 0, 0, 0, n), Snapshot(0, 0, 0, 0, n))
    trace = Trace(net, (PhaseTrace({}, snapshots, Termination.FIXED_POINT),))
    assert read_verdicts(trace) == {ids["salt"]: Verdict.INACTIVE, ids["sugar"]: Verdict.INACTIVE}


@pytest.mark.parametrize("phase", [True, False])
def test_read_verdicts_refuses_a_bool_phase(net, ids, phase):
    """A bool is not a phase index, though Python takes True as 1: on a
    two-phase trace, and on one with no phase at all, read_verdicts raises
    ValueError before it reads the trace, as a bool hold does."""
    clamp = {ids["looking"]: 1, ids["white"]: 1}
    trace = run_scenario(net, PARAMS, [(clamp, None), ({**clamp, ids["tasting"]: 1}, None)])
    for t in (trace, Trace(net, ())):
        with pytest.raises(ValueError, match=f"^phase {phase} is a bool, not an int$"):
            read_verdicts(t, phase)
    assert read_verdicts(trace, 1) == read_verdicts(trace, -1)
    with pytest.raises(IndexError):
        read_verdicts(trace, 2)


def test_read_verdicts_requires_a_trace(net):
    with pytest.raises(ValueError):
        read_verdicts(Trace(net, ()))


def test_read_verdicts_requires_a_phase_with_snapshots(net):
    """The library runs no phase without a sweep, but a hand-built trace can
    hold one."""
    trace = Trace(net, (PhaseTrace({}, (), Termination.SWEEP_LIMIT),))
    with pytest.raises(ValueError, match="^phase has no snapshots$"):
        read_verdicts(trace)


# --- the engine at benchmark scale ---

PINS = SYNTH.parent / "pins.json"


@pytest.mark.parametrize("instance", [0, 8])
def test_run_large_matches_the_benchmark_pins(instance):
    """run-large's trace, at 1000/300/100 with two 500-element clamp swaps,
    ends each phase with the termination, sweep count and verdicts that
    perfbench/pins.json holds for the instance, and writes the pinned CSV.
    Verdicts are pinned as the sha256 of their first letters in
    net.non_bottom order."""
    pinned = json.loads(PINS.read_text(encoding="utf-8"))["run-large"][str(instance)]
    trace = run_large_trace(instance)
    assert len(trace.phases) == len(pinned["phases"])
    for i, (phase, want) in enumerate(zip(trace.phases, pinned["phases"])):
        verdicts = read_verdicts(trace, i)
        letters = "".join(verdicts[c].value[0] for c in trace.net.non_bottom)
        assert {
            "termination": phase.termination.value,
            "sweeps": len(phase.snapshots),
            "verdicts_sha256": hashlib.sha256(letters.encode()).hexdigest(),
            "verdict_counts": dict(sorted(Counter(v.value for v in verdicts.values()).items())),
        } == want, i
    data = write_trace_csv(trace).encode("utf-8")
    assert {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()} == pinned["csv"]
