"""The fast paths against slow references: bitmask pattern tests and the
bitmask sweep against the set-and-Fraction ones, compare's bit-sliced run of
every clamp against a fresh ReferenceEngine per clamp, and the trace writer
and renderer that read snapshots against the ones that read sorted TraceRows."""
import collections
import functools
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from conceptsim import (
    Agreement,
    ConceptSpec,
    Engine,
    EngineParams,
    ErrorRouting,
    NetworkSpec,
    PatternStatus,
    PhaseTrace,
    Snapshot,
    Termination,
    Trace,
    TraceRow,
    UnitKind,
    compare_with_oracle,
    enumerate_interpretations,
    error_flags,
    interpretation_consistent,
    parse_network_file,
    parse_scenario_file,
    pattern_state,
    Verdict,
    read_trace_csv,
    read_verdicts,
    render_ascii_timeline,
    route_errors,
    run_scenario,
    validate_network,
    write_trace_csv,
)
from conceptsim import compare
from conceptsim.engine import _applicable, _drive, _drive_thresholds
from conceptsim.errors import BadParams, UnknownConcept
from conceptsim.model import _bit_bytes, _bits, _bottom_planes, _ids
from conceptsim.oracle import _search

from conftest import CYCLING_PARAMS
from netgen import random_clamp, random_network, random_scenario, run_large_trace, shuffled_network, synth_network
from reference import (
    ReferenceEngine,
    bottom_planes_reference,
    clamp_planes_reference,
    compare_reference,
    drive_thresholds_reference,
    enumerate_reference,
    predictions_reference,
    read_verdicts_reference,
    render_ascii_timeline_reference,
    route_errors_reference,
    run_scenario_reference,
    trace_rows,
    write_rows_csv,
    write_trace_csv_reference,
)
from specs import AMBIGUOUS_SPEC, DATA_DIR

TAUS = (0.5, 0.3, Fraction(2, 3), 1.0)


def all_clamps(net):
    bottom = net.bottom
    for mask in range(1 << len(bottom)):
        yield frozenset(bottom[i] for i in range(len(bottom)) if mask >> i & 1)


@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
@pytest.mark.parametrize("tau", TAUS)
def test_enumerate_matches_reference_on_every_clamp(data_dir, name, tau):
    net = validate_network(parse_network_file((data_dir / name).read_text()))
    for clamped in all_clamps(net):
        assert enumerate_interpretations(net, clamped, tau) == enumerate_reference(net, clamped, tau)


@pytest.mark.parametrize("seed", range(50))
def test_enumerate_matches_reference_on_seeded_networks(seed):
    net = random_network(seed)
    rng = random.Random(seed)
    for clamped in all_clamps(net):
        tau = rng.choice(TAUS + (0.0, 1.5))
        assert enumerate_interpretations(net, clamped, tau) == enumerate_reference(net, clamped, tau)


@pytest.mark.parametrize("seed", range(20))
def test_enumerate_matches_reference_on_shuffled_four_layer_networks(seed):
    """The layer-by-layer search against the flat filter on nets whose ids do
    not follow layer order, so no step may assume that they do."""
    net = shuffled_network(seed)
    assert list(net.layer_of) != sorted(net.layer_of)
    for clamped in all_clamps(net):
        for tau in TAUS + (0.0, 1.5):
            assert enumerate_interpretations(net, clamped, tau) == enumerate_reference(net, clamped, tau)


@pytest.mark.parametrize("tau", [-1.0, -0.3])
@pytest.mark.parametrize("seed", range(1, 4))
def test_enumerate_matches_reference_below_zero_tau(seed, tau):
    """A tau below 0 gives every pattern a need below 0, -4 for a 4-element
    one at tau -1, so every pattern is applicable and a concept is allowed
    only where all of its patterns are Complete. 6 concepts above layer 0
    keep enumerate_reference at 64 candidates."""
    net = synth_network((6, 4, 2), seed)
    assert max(len(p) for pats in net.patterns for p in pats) == 4
    for clamped in all_clamps(net):
        assert enumerate_interpretations(net, clamped, tau) == enumerate_reference(net, clamped, tau)


@st.composite
def layered_networks(draw):
    """A net of 1-4 concepts on layer 0 and at most 6 above, on 1-3 layers;
    each concept above layer 0 has 1-2 distinct patterns of 1-3 elements from
    the layer below, and the concepts are declared in a drawn order. At most
    6 concepts above layer 0 keep enumerate_reference at 64 candidates."""
    sizes = [draw(st.integers(1, 4))] + draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda upper: sum(upper) <= 6)
    )
    concepts = []
    below = []
    for layer, size in enumerate(sizes):
        names = [f"u{layer}_{i}" for i in range(size)]
        for name in names:
            patterns = draw(
                st.lists(
                    st.frozensets(st.sampled_from(below), min_size=1, max_size=3),
                    min_size=1, max_size=2, unique=True,
                )
            ) if layer else []
            concepts.append(ConceptSpec(name, layer, tuple(tuple(sorted(p)) for p in patterns)))
        below = names
    return validate_network(NetworkSpec(tuple(draw(st.permutations(concepts)))))


@given(data=st.data(), net=layered_networks(), tau=st.sampled_from(TAUS + (0.0, 1.5)))
@settings(max_examples=100, deadline=None)
def test_enumerate_matches_reference_on_generated_networks(data, net, tau):
    """The layer-by-layer search equals the flat filter, in content and order,
    on generated layered nets and clamps."""
    clamped = data.draw(st.frozensets(st.sampled_from(net.bottom)), label="clamped")
    assert enumerate_interpretations(net, clamped, tau) == enumerate_reference(net, clamped, tau)


def test_shuffled_clamps_are_not_vacuous():
    """Some clamps of the shuffled nets admit a non-empty interpretation, which
    reaches the top layer, since every active concept below it is explained."""
    nonempty = sum(
        any(r.interpretation for r in enumerate_interpretations(net, clamped))
        for net in map(shuffled_network, range(20))
        for clamped in all_clamps(net)
    )
    assert nonempty >= 15  # 23 of the 116 clamps at the time of writing


def test_enumerate_rejects_unknown_clamped_id(net):
    with pytest.raises(UnknownConcept):
        enumerate_interpretations(net, {99})


@pytest.mark.parametrize("seed", range(50))
def test_engine_stages_match_reference_on_seeded_networks(seed):
    net = random_network(seed)
    rng = random.Random(seed)
    for _ in range(8):
        activation = [int(rng.random() < 0.5) for _ in range(net.n_concepts)]
        tau = rng.choice(TAUS)
        pred, _ = _applicable(net, _bits(activation), tau)
        assert list(_bit_bytes(pred, net.n_concepts)) == predictions_reference(net, activation, tau)
        omission, commission = error_flags(net, activation, tau)
        for routing in ErrorRouting:
            assert route_errors(net, activation, omission, commission, routing, tau) == (
                route_errors_reference(net, activation, omission, commission, routing, tau)
            )


def test_seeded_clamps_are_not_vacuous():
    """Many seeded clamps admit a non-empty interpretation, so the differential
    test above compares real evidence, not only empty result lists."""
    nonempty = sum(
        any(r.interpretation for r in enumerate_interpretations(net, clamped))
        for net in map(random_network, range(50))
        for clamped in all_clamps(net)
    )
    assert nonempty >= 50  # 66 of the 484 clamps at the time of writing


# --- trace CSV: snapshots against sorted rows ---

#: id order is the reverse of name order, and the top layer's only concept,
#: which has no error units, sorts first
REVERSED_SPEC = NetworkSpec(concepts=(
    ConceptSpec("z", 0),
    ConceptSpec("y", 0),
    ConceptSpec("x", 0),
    ConceptSpec("w", 0),
    ConceptSpec("n", 1, (("z", "y"), ("x", "w"))),
    ConceptSpec("m", 1, (("y", "x"),)),
    ConceptSpec("a", 2, (("n", "m"),)),
))


def mixed_scenario(net, seed, phases=4):
    """Seeded random clamps, each run to convergence or held 1-6 sweeps."""
    rng = random.Random(seed)
    return [(random_clamp(net, rng), rng.choice((None, rng.randint(1, 6)))) for _ in range(phases)]


def assert_writers_agree(trace):
    text = write_trace_csv(trace)
    rows = trace_rows(trace)
    assert text == write_rows_csv(rows)
    assert read_trace_csv(text) == rows
    if not any("\r" in name for name in trace.net.names):
        assert text == write_trace_csv_reference(rows)


@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
@pytest.mark.parametrize("scenario", ["salt_rejection.json", "unexpected_sweet.json", "decoupling.json"])
def test_trace_writers_agree_on_shipped_scenarios(data_dir, name, scenario):
    net = validate_network(parse_network_file((data_dir / name).read_text()))
    phases = parse_scenario_file((data_dir / "scenarios" / scenario).read_text(), net).resolve(net)
    assert_writers_agree(run_scenario(net, EngineParams(), phases))


@pytest.mark.parametrize("seed", range(50))
def test_trace_writers_agree_on_seeded_networks(seed):
    net = random_network(seed)
    assert_writers_agree(run_scenario(net, EngineParams(), mixed_scenario(net, seed)))


@pytest.fixture(scope="module")
def reversed_net():
    return validate_network(REVERSED_SPEC)


@pytest.mark.parametrize("net_fixture", ["reversed_net", "awkward_net"])
@pytest.mark.parametrize("seed", range(5))
def test_trace_writers_agree_on_reordered_and_awkward_names(request, net_fixture, seed):
    net = request.getfixturevalue(net_fixture)
    phases = [({e: 1 for e in net.bottom}, None)] + mixed_scenario(net, seed)
    assert_writers_agree(run_scenario(net, EngineParams(), phases))


def test_trace_writers_agree_on_the_run_large_trace():
    """The benchmark's run-large trace, 318 blocks and 9.7 MB, is written byte
    for byte as the reference writes its sorted rows."""
    trace = run_large_trace()
    assert write_trace_csv(trace) == write_trace_csv_reference(trace_rows(trace))


def test_seeded_traces_are_not_vacuous():
    """The seeded traces above set non-bottom concepts and both error kinds,
    so the writers are compared on 1 cells of every kind, not only on 0s."""
    kinds = set()
    for seed in range(50):
        net = random_network(seed)
        kinds |= {
            row.kind
            for row in trace_rows(run_scenario(net, EngineParams(), mixed_scenario(net, seed)))
            if row.value and (row.kind is not UnitKind.CONCEPT or net.layer_of[net.id_of(row.name)])
        }
    assert kinds == set(UnitKind)


# csv.writer refuses NUL before Python 3.11
_NO_CR = st.text(min_size=1).filter(
    lambda n: "\r" not in n and (sys.version_info >= (3, 11) or "\0" not in n)
)


@given(names=st.lists(_NO_CR, min_size=1, max_size=4, unique=True))
def test_row_writer_matches_csv_writer_on_names_without_cr(names):
    rows = [
        TraceRow(i % 3, i % 2, kind, name, i // 3 % 2)
        for i, (kind, name) in enumerate(itertools.product(UnitKind, names))
    ]
    assert write_rows_csv(rows) == write_trace_csv_reference(rows)


# --- the bitmask sweep against the list-based reference ---

#: the parameters the sweep's ignition bound rests on: theta at 0, theta
#: below 0 (where idle units without a Complete pattern can ignite) and no
#: lateral inhibition (where no count bounds the drive), as in
#: data/params/no_lateral.json
EDGE_PARAMS = [{"theta": 0.0}, {"theta": -0.3}, {"w_lat": 0.0}]

#: every routing under every tau and under every edge above
SWEEP_PARAMS = [
    EngineParams(error_routing=routing, **params)
    for routing in ErrorRouting
    for params in [{"tau": tau} for tau in TAUS] + EDGE_PARAMS
]


#: Engine._dendrites' rule as it stands, and forced to recheck every
#: concept of a layer, or only the owners of changed elements, on each change
DENDRITE_PATHS = {"rule": None, "whole": lambda changed, size: True, "owners": lambda changed, size: False}


def assert_sweeps_agree(net, phases):
    """run_scenario equals the reference under every one of SWEEP_PARAMS,
    with each of DENDRITE_PATHS."""
    for path, rule in DENDRITE_PATHS.items():
        with pytest.MonkeyPatch.context() as patch:
            if rule:
                patch.setattr("conceptsim.engine._whole_layer", rule)
            for params in SWEEP_PARAMS:
                assert run_scenario(net, params, phases).phases == (
                    run_scenario_reference(net, params, phases).phases
                ), (path, params)


@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
@pytest.mark.parametrize("scenario", ["salt_rejection.json", "unexpected_sweet.json", "decoupling.json"])
def test_sweep_matches_reference_on_shipped_scenarios(data_dir, name, scenario):
    net = validate_network(parse_network_file((data_dir / name).read_text()))
    assert_sweeps_agree(
        net, parse_scenario_file((data_dir / "scenarios" / scenario).read_text(), net).resolve(net)
    )


@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
@pytest.mark.parametrize("scenario", ["salt_rejection.json", "unexpected_sweet.json", "decoupling.json"])
def test_a_sweep_reads_no_float_drive(data_dir, monkeypatch, name, scenario):
    """Once an Engine is built, its sweeps decide by the drive table alone:
    with _drive patched to raise, the shipped scenarios under every one of
    SWEEP_PARAMS still run as run_scenario does on the reference, which
    writes the drive out."""
    def unreachable(*args):
        raise AssertionError("a sweep evaluated the float drive")

    net = validate_network(parse_network_file((data_dir / name).read_text()))
    phases = parse_scenario_file((data_dir / "scenarios" / scenario).read_text(), net).resolve(net)
    for params in SWEEP_PARAMS:
        engine = Engine(net, params)
        out = []
        with monkeypatch.context() as patch:
            patch.setattr("conceptsim.engine._drive", unreachable)
            for clamp, hold in phases:
                engine.apply_clamp(clamp)
                run = engine.run_to_fixed_point() if hold is None else engine.run_fixed_sweeps(hold)
                out.append(PhaseTrace(dict(clamp), *run))
        assert tuple(out) == run_scenario_reference(net, params, phases).phases, params


@pytest.mark.parametrize("seed", range(50))
def test_sweep_matches_reference_on_seeded_networks(seed):
    net = random_network(seed)
    assert_sweeps_agree(net, mixed_scenario(net, seed))


@pytest.mark.parametrize("seed", range(5))
def test_sweep_matches_reference_on_awkward_names(awkward_net, seed):
    assert_sweeps_agree(awkward_net, [({e: 1 for e in awkward_net.bottom}, None)] + mixed_scenario(awkward_net, seed))


def swap_scenario(net, seed):
    """A seeded clamp to convergence, then its swap, which changes every
    layer-0 element, held 3 sweeps and then to convergence, then an empty
    clamp."""
    clamp = random_clamp(net, random.Random(seed))
    swapped = {e: 1 for e in net.bottom if e not in clamp}
    return [(clamp, None), (swapped, 3), (swapped, None), ({}, None)]


@pytest.mark.parametrize("seed", range(10))
def test_sweep_matches_reference_across_a_clamp_swap(seed):
    """On nets shaped like run-large's, a clamp swap changes more layer-0
    elements than layer 1 has concepts, so the rule rechecks layer 1 whole,
    while later sweeps recheck owners; both paths, and each forced, run as
    the reference does."""
    net = synth_network((24, 8, 4), seed)
    assert_sweeps_agree(net, swap_scenario(net, seed))


def test_clamp_swaps_take_both_dendrite_paths(monkeypatch):
    """The rule takes both paths in the swap scenarios above, on layer 1 and
    on layer 2, so neither forced run is the only one to check a path."""
    from conceptsim import engine

    taken = collections.Counter()
    rule = engine._whole_layer

    def recorded(changed, size):
        whole = rule(changed, size)
        taken[size, whole] += 1
        return whole

    monkeypatch.setattr(engine, "_whole_layer", recorded)
    for seed in range(10):
        net = synth_network((24, 8, 4), seed)
        for params in SWEEP_PARAMS:
            run_scenario(net, params, swap_scenario(net, seed))
    assert {key for key, count in taken.items() if count} == {(8, True), (8, False), (4, True), (4, False)}


def engine_state(engine):
    """The state as of the last sweep or clamp, the live state and the
    inhibition due on the next sweep."""
    return engine.state, engine.snapshot(), engine.routed


def write(engine, rng):
    """One seeded write to the engine's state between sweeps: through the
    bitmasks on an Engine, and through the lists and the set on a
    ReferenceEngine, which draw the same write from the same rng state."""
    net = engine.net
    on_lists = isinstance(engine, ReferenceEngine)
    kind = rng.randrange(4)
    if kind == 0:
        # set a unit on or off
        value, c = rng.randint(0, 1), rng.randrange(net.n_concepts)
        if on_lists:
            engine.activation[c] = value
        else:
            engine.active = engine.active & ~(1 << c) | value << c
    elif kind == 1 and engine.rejected:
        # lift a latch and switch the unit back on
        c = rng.choice(sorted(engine.rejected))
        if on_lists:
            engine.rejected.discard(c)
            engine.activation[c] = 1
        else:
            engine.latched &= ~(1 << c)
            engine.active |= 1 << c
    elif kind == 2:
        # add a latch
        c = rng.choice(net.non_bottom)
        if on_lists:
            engine.rejected.add(c)
        else:
            engine.latched |= 1 << c
    else:
        # replace the clamp within the phase
        engine.clamp = random_clamp(net, rng)


def runs_with_writes(seed, net=None, params=None):
    """A seeded mix of single sweeps and runs on an Engine and a
    ReferenceEngine, with the same writes to both before each: yields what
    each returned, and its state after. The net defaults to
    random_network(seed) and the params to one of SWEEP_PARAMS by seed; a
    hold is at most params.max_sweeps."""
    net = net or random_network(seed)
    rng = random.Random(seed)
    params = params or SWEEP_PARAMS[seed % len(SWEEP_PARAMS)]
    engines = Engine(net, params), ReferenceEngine(net, params)
    clamp = random_clamp(net, rng)
    for engine in engines:
        engine.apply_clamp(clamp)
    for _ in range(16):
        state = rng.getstate()
        for engine in engines:
            rng.setstate(state)
            write(engine, rng)
        step = rng.choice(("sweep", "hold", "converge"))
        hold = min(rng.randint(1, 4), params.max_sweeps)
        yield [
            (
                engine.sweep() if step == "sweep"
                else engine.run_fixed_sweeps(hold) if step == "hold"
                else engine.run_to_fixed_point(),
                engine_state(engine),
            )
            for engine in engines
        ]


@pytest.mark.parametrize("seed", range(50))
def test_sweep_rereads_state_written_between_sweeps(seed):
    """Writes to the active and latched bitmasks and to the clamp between
    sweeps take effect in the next sweep, and runs label what follows, exactly
    as the same writes do on the reference's lists."""
    for fast, reference in runs_with_writes(seed):
        assert fast == reference


def test_sweeps_are_not_vacuous():
    """The seeded runs above fire both error kinds, latch concepts and, after
    writes, end in a cycle, so the sweeps are compared on every part of the
    dynamics. Without writes no run cycles: a flip that is not a latch lowers
    a Hopfield-style energy, so the state cannot recur."""
    seen = set()
    for seed in range(50):
        net = random_network(seed)
        for params in SWEEP_PARAMS:
            for phase in run_scenario(net, params, mixed_scenario(net, seed)).phases:
                assert phase.termination is not Termination.CYCLE, (seed, params)
                for snap in phase.snapshots:
                    seen |= {
                        kind for kind, hit in (
                            ("omission", snap.omitted),
                            ("commission", snap.committed),
                            ("latch", snap.latched),
                        ) if hit
                    }
        for (result, _), _ in runs_with_writes(seed):
            if isinstance(result, tuple) and result[1] is Termination.CYCLE:
                seen.add("cycle")
    assert seen == {"omission", "commission", "latch", "cycle"}


def switched_on_without_a_complete_pattern(net, trace):
    """How often a concept that was off turns on in a sweep whose final
    layer below completes none of its patterns. run_scenario writes nothing
    between sweeps and a clamp leaves layers above 0 as they are, so the
    previous snapshot, across phases, holds each sweep's starting state."""
    count = 0
    before = 0
    for phase in trace.phases:
        for snap in phase.snapshots:
            for c in net.non_bottom:
                if snap.active >> c & 1 and not before >> c & 1 and not any(
                    mask & snap.active == mask for mask in net.masks[c]
                ):
                    count += 1
            before = snap.active
    return count


def test_skip_rule_edges_are_not_vacuous():
    """Under theta < 0 some concept switches on with no Complete pattern, so
    the sweeps above compare the whole-layer walk; under theta >= 0 none
    does, which is the premise of visiting only active units and units with
    a Complete pattern."""
    switched = {False: 0, True: 0}
    for seed in range(50):
        net = random_network(seed)
        for params in SWEEP_PARAMS:
            count = switched_on_without_a_complete_pattern(
                net, run_scenario(net, params, mixed_scenario(net, seed))
            )
            switched[params.theta < 0] += count
    assert switched[False] == 0
    assert switched[True] > 0


# --- verdicts: one mask per verdict against one test per concept ---

#: default params, ALL_GLOBAL routing and CYCLING_PARAMS, under which some
#: seeded phases end in a cycle
VERDICT_PARAMS = {"default": EngineParams(), "all_global": EngineParams(error_routing=ErrorRouting.ALL_GLOBAL),
                  "cycling": CYCLING_PARAMS}


def verdict_traces(params):
    """Traces of netgen 0-49 under params, each with a converging scenario and
    one with holds, some of which end at the sweep limit."""
    for seed in range(50):
        net = random_network(seed)
        for phases in (random_scenario(net, seed), mixed_scenario(net, seed)):
            yield run_scenario(net, params, phases)


@pytest.mark.parametrize("params", VERDICT_PARAMS.values(), ids=VERDICT_PARAMS)
def test_read_verdicts_matches_reference_on_seeded_traces(params):
    """Every phase's verdicts, keys in order, are those of the per-concept
    reference."""
    for trace in verdict_traces(params):
        for i in range(len(trace.phases)):
            assert list(read_verdicts(trace, i).items()) == list(read_verdicts_reference(trace, i).items())


def test_read_verdicts_matches_reference_on_hand_built_windows(net):
    """Snapshots no run gives: a concept active and latched together, a
    cycle's window from a later start, and one without cycle_start, which
    reads the last two, under each termination."""
    n, masks = net.n_concepts, [0, 1, 2, 3, (1 << net.n_concepts) - 1]
    snaps = tuple(Snapshot(a, 0, 0, l, n) for a in masks for l in masks)
    for termination in Termination:
        for start in (None, 0, 7, len(snaps) - 1):
            trace = Trace(net, (PhaseTrace({}, snaps, termination, start),))
            assert list(read_verdicts(trace).items()) == list(read_verdicts_reference(trace).items())


def test_seeded_verdicts_are_not_vacuous():
    """The seeded traces above end phases at a fixed point, in a cycle and at
    the sweep limit, and give all four verdicts."""
    terminations, verdicts = set(), set()
    for params in VERDICT_PARAMS.values():
        for trace in verdict_traces(params):
            for i, phase in enumerate(trace.phases):
                terminations.add(phase.termination)
                verdicts |= set(read_verdicts(trace, i).values())
    assert terminations == set(Termination)
    assert verdicts == set(Verdict)


# --- compare: one reset Engine against a fresh ReferenceEngine per clamp ---

def reset_state(engine):
    return engine.state, engine.snapshot(), engine.routed, dict(engine.clamp)


def left_mid_run(net, params, seed):
    """One Engine, before each clamp of all_clamps(net) left after 1-3 sweeps
    on a seeded clamp: yields the engine and the clamp."""
    rng = random.Random(seed)
    engine = Engine(net, params)
    for i, clamped in enumerate(all_clamps(net)):
        engine.apply_clamp(random_clamp(net, rng))
        engine.run_fixed_sweeps(1 + i % 3)
        yield engine, {e: 1 for e in sorted(clamped)}


@pytest.mark.parametrize("routing", ErrorRouting)
@pytest.mark.parametrize("seed", range(50))
def test_reset_equals_a_fresh_engine(seed, routing):
    """reset() on an engine left mid-run gives a fresh Engine's state, and
    the next clamp's run gives a fresh Engine's snapshots."""
    net = random_network(seed)
    params = EngineParams(error_routing=routing)
    for engine, clamp in left_mid_run(net, params, seed):
        engine.reset()
        fresh = Engine(net, params)
        assert reset_state(engine) == reset_state(fresh)
        engine.apply_clamp(clamp)
        fresh.apply_clamp(clamp)
        assert engine.run_to_fixed_point() == fresh.run_to_fixed_point()
        assert reset_state(engine) == reset_state(fresh)


def test_reset_is_not_vacuous():
    """The states that the test above resets hold latches, both error kinds,
    pending inhibition and active concepts above layer 0."""
    seen = set()
    for seed in range(50):
        net = random_network(seed)
        for routing in ErrorRouting:
            for engine, _ in left_mid_run(net, EngineParams(error_routing=routing), seed):
                seen |= {
                    kind for kind, hit in (
                        ("omission", engine.omitted),
                        ("commission", engine.committed),
                        ("latch", engine.latched),
                        ("routed", any(engine.routed)),
                        ("active", engine.active & net.non_bottom_mask),
                    ) if hit
                }
    assert seen == {"omission", "commission", "latch", "routed", "active"}


@pytest.mark.parametrize("routing", ErrorRouting)
@pytest.mark.parametrize("seed", range(50))
def test_compare_matches_reference_on_seeded_networks(seed, routing):
    net = random_network(seed)
    params = EngineParams(error_routing=routing)
    assert compare_with_oracle(net, params).cases == compare_reference(net, params).cases


@pytest.mark.parametrize("routing", ErrorRouting)
@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
def test_compare_matches_reference_on_shipped_networks(data_dir, name, routing):
    net = validate_network(parse_network_file((data_dir / name).read_text()))
    params = EngineParams(error_routing=routing)
    assert compare_with_oracle(net, params).cases == compare_reference(net, params).cases


# --- error units: the oracle's clauses on bits ---

def assert_error_units_are_clauses(net, snap, tau):
    """Read a snapshot's active set as a clamp (its layer-0 part) and an
    interpretation (the rest): its omission bits are the missing elements of
    the interpretation's violated patterns, and its commission bits are the
    unexpected concepts."""
    inferred = frozenset(_ids(snap.active & net.non_bottom_mask))
    clamped = frozenset(_ids(snap.active)) - inferred
    report = interpretation_consistent(net, inferred, clamped, tau)
    missing = [m for check in report.per_concept.values() for _, m in check.violated_patterns]
    assert frozenset(_ids(snap.omitted)) == frozenset().union(*missing)
    assert frozenset(_ids(snap.committed)) == report.unexpected


@pytest.mark.parametrize("routing", ErrorRouting)
def test_error_units_are_the_oracles_clauses_at_every_snapshot(routing):
    """assert_error_units_are_clauses on every clamp run to convergence, then
    on a seeded scenario of 3-sweep holds, which starts phases from unsettled
    states."""
    nets = [random_network(seed) for seed in range(50)] + [shuffled_network(seed) for seed in range(20)]
    seen = collections.Counter()
    for seed, net in enumerate(nets):
        for tau in (0.34, 0.5, 1.0):
            params = EngineParams(tau=tau, error_routing=routing)
            runs = [[(dict.fromkeys(clamp, 1), None)] for clamp in all_clamps(net)]
            runs.append([(clamp, 3) for clamp, _ in random_scenario(net, seed)])
            for phases in runs:
                for phase in run_scenario(net, params, phases).phases:
                    for snap in phase.snapshots:
                        assert_error_units_are_clauses(net, snap, tau)
                        seen.update(snapshots=1, omitted=snap.omitted > 0, committed=snap.committed > 0)
    assert seen["snapshots"] > 5000 and seen["omitted"] and seen["committed"]


# --- compare: every clamp at once on bit-sliced planes ---

#: nets for the plane run: seeded netgen nets, 4-layer nets declared out of
#: layer order, and 4-layer nets with patterns of 3-4 elements
compare_nets = st.one_of(
    st.integers(0, 49).map(random_network),
    st.integers(0, 19).map(shuffled_network),
    st.integers(1, 3).map(lambda seed: synth_network((6, 5, 5, 3), seed)),
)


@st.composite
def valid_params(draw):
    """EngineParams that pass validate(): theta in [-0.5, 0.9], w_lat in
    [0, 2.5], w_err above max(w_self, 0) and below or above w_ff + w_self -
    theta, tau in (0, 1], max_sweeps in {1, 2, 3, 64} and either routing."""
    between = st.floats(0.05, 0.95)
    theta = draw(st.floats(-0.5, 0.9))
    w_ff = theta + draw(st.floats(0.05, 1.5))
    w_self = theta + (w_ff - theta) * draw(between)
    least = max(w_self, 0.0)
    bound = w_ff + w_self - theta
    if bound > least and draw(st.booleans()):
        w_err = least + (bound - least) * draw(between)
    else:
        w_err = max(bound, least) + draw(st.floats(0.01, 1.5))
    return EngineParams(
        w_ff=w_ff,
        w_self=w_self,
        w_lat=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.5))),
        w_err=w_err,
        theta=theta,
        tau=draw(st.floats(0.05, 1.0)),
        max_sweeps=draw(st.sampled_from((1, 2, 3, 64))),
        error_routing=draw(st.sampled_from(ErrorRouting)),
    )


@given(net=compare_nets, params=valid_params(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_error_units_are_the_oracles_clauses_on_drawn_params(net, params, data):
    """assert_error_units_are_clauses at every snapshot of a drawn clamp's
    run, converged or not, under weights on either side of the error bound."""
    case = data.draw(st.integers(0, (1 << len(net.bottom)) - 1), label="case")
    clamp = {e: 1 for j, e in enumerate(net.bottom) if case >> j & 1}
    for snap in run_scenario(net, params, [(clamp, None)]).phases[0].snapshots:
        assert_error_units_are_clauses(net, snap, params.tau)


#: a drive that is exactly 0 in decimals is positive in floats at
#: (dendrite, prev, k, r) = (1, 0, 0, 1) and negative at (1, 0, 3, 0)
ROUNDING_PARAMS = EngineParams(w_ff=0.4, w_self=0.2, w_lat=0.1, w_err=0.3, theta=0.1)
#: the boundary w_err = 0, the nearest to a drive rising with the routed
#: count that validate() allows: a routed count leaves the drive flat, and
#: with theta < 0 and w_self < 0 an idle unit ignites without a dendrite
RISING_PARAMS = EngineParams(w_ff=0.5, w_self=-0.5, w_err=0.0, theta=-1.0)
#: RISING_PARAMS with w_err < 0, its only fault: a routed error would excite
NEGATIVE_ERR_PARAMS = EngineParams(w_ff=0.5, w_self=-0.5, w_err=-0.2, theta=-1.0)
#: a valid corner where routed and lateral inputs barely inhibit: in rows
#: (0, 0), (1, 0) and (1, 1) the drive stays above 0 up to a routed count of
#: 2000 or more, so a table over a large net's counts holds most + 1 there
CORNER_PARAMS = EngineParams(w_ff=3.0, w_self=-1.9, w_lat=0.001, w_err=0.001, theta=-2.0)


@given(net=compare_nets, params=valid_params())
@example(net=random_network(3), params=ROUNDING_PARAMS)
@example(net=shuffled_network(4), params=RISING_PARAMS)
@settings(max_examples=60, deadline=None)
def test_plane_run_matches_reference_on_drawn_params(net, params):
    """Every CaseResult of the bit-sliced compare equals the one of a fresh
    ReferenceEngine per clamp, converged or not."""
    assert compare_with_oracle(net, params).cases == compare_reference(net, params).cases


#: parameters the plane run treats apart: a rounding-decided sign, a routed
#: count threshold of 2, theta < 0 (units ignite without a dendrite), no
#: lateral inhibition, runs cut short, and a routed count that never moves
#: the drive
PLANE_PARAMS = [
    ROUNDING_PARAMS,
    EngineParams(w_err=0.65),
    EngineParams(theta=-0.3, w_lat=1.5),
    EngineParams(w_lat=0.0, error_routing=ErrorRouting.ALL_GLOBAL),
    EngineParams(max_sweeps=1),
    EngineParams(max_sweeps=2, error_routing=ErrorRouting.ALL_GLOBAL),
    RISING_PARAMS,
]


@pytest.mark.parametrize("params", PLANE_PARAMS)
def test_plane_run_matches_reference_on_seeded_nets(params):
    for net in [*map(random_network, range(10)), *map(shuffled_network, range(10))]:
        assert compare_with_oracle(net, params).cases == compare_reference(net, params).cases


#: theta < 0 above the error bound: one routed error shuts even a fully
#: driven unit, and on salt {looking, white} salt and sugar alternate
ABOVE_BOUND_PARAMS = EngineParams(w_ff=1.6, w_self=-0.6, w_lat=2.0, w_err=3.2, theta=-0.7, tau=1.0)


@pytest.mark.parametrize("routing", ErrorRouting)
@pytest.mark.parametrize("params", [CYCLING_PARAMS, *PLANE_PARAMS, ABOVE_BOUND_PARAMS])
def test_no_run_returns_to_its_zero_start(params, routing):
    """compare._clamp_planes leaves the start state out of each case's
    recurrence test, by the argument in its docstring: unless the start is a
    fixed point, no run from the zero state meets the state apply_clamp left
    again, its error bits of 0 included."""
    params = params._replace(error_routing=routing)
    for net in [*map(random_network, range(50)), *map(shuffled_network, range(20))]:
        scalar = Engine(net, params)
        for case in range(1 << len(net.bottom)):
            scalar.reset()
            scalar.apply_clamp({e: 1 for j, e in enumerate(net.bottom) if case >> j & 1})
            start = scalar.state
            snaps, _, _ = scalar.run_to_fixed_point()
            assert snaps == (start,) or start not in snaps


@functools.cache
def kernel_nets():
    """The nets of the plane kernel's check: netgen 0-29, shuffled 0-19,
    synth 7/5/3 seeds 0-3, synth 6/5/5/3 seeds 1-3, salt and caramel, each
    with at most 8 layer-0 concepts."""
    nets = [*map(random_network, range(30)), *map(shuffled_network, range(20))]
    nets += [synth_network((7, 5, 3), seed) for seed in range(4)]
    nets += [synth_network((6, 5, 5, 3), seed) for seed in (1, 2, 3)]
    nets += [validate_network(parse_network_file((DATA_DIR / name).read_text())) for name in ("salt.json", "caramel.json")]
    return tuple(net for net in nets if len(net.bottom) <= 8)


def assert_kernel_equals_reference(net, params):
    """The reference kernel finds a cycle only where all planes recur, and
    reports one that shows only at max_sweeps as the sweep limit, so the
    kernel's cycle plane may hold more of the same unsettled cases."""
    planes = _bottom_planes(net)
    active, cycle, limit = compare._clamp_planes(net, params, dict(zip(net.bottom, planes)), 1 << len(net.bottom))
    want_active, want_cycle, want_limit = clamp_planes_reference(net, params, planes)
    assert active == want_active
    assert cycle | limit == want_cycle | want_limit
    assert want_cycle & ~cycle == 0


@pytest.mark.parametrize(
    "params", [*PLANE_PARAMS, CYCLING_PARAMS, CYCLING_PARAMS._replace(max_sweeps=1), CYCLING_PARAMS._replace(max_sweeps=2)]
)
def test_plane_kernel_equals_its_reference_on_seeded_nets(params):
    """compare._clamp_planes returns the reference kernel's active planes and
    unsettled cases, run for run, and every cycle the reference finds."""
    for net in kernel_nets():
        assert_kernel_equals_reference(net, params)


@given(net=compare_nets, params=valid_params())
@settings(max_examples=100, deadline=None)
def test_plane_kernel_equals_its_reference_on_drawn_params(net, params):
    assert_kernel_equals_reference(net, params)


EDGE_NETS = {
    "empty": NetworkSpec(()),
    "layer 0 only": NetworkSpec((ConceptSpec("a", 0), ConceptSpec("b", 0))),
    "singleton pattern": NetworkSpec((
        ConceptSpec("a", 0),
        ConceptSpec("b", 0),
        ConceptSpec("x", 1, (("a",), ("a", "b"))),
        ConceptSpec("y", 1, (("b",),)),
    )),
}


@pytest.mark.parametrize("params", [EngineParams(), EngineParams(theta=-0.3, max_sweeps=2)])
@pytest.mark.parametrize("name", EDGE_NETS)
def test_plane_run_matches_reference_on_edge_nets(name, params):
    net = validate_network(EDGE_NETS[name])
    report = compare_with_oracle(net, params)
    assert report.cases == compare_reference(net, params).cases
    assert len(report.cases) == 1 << len(net.bottom)


@pytest.mark.parametrize(
    "params", [EngineParams(), ROUNDING_PARAMS, EngineParams(theta=-0.4, w_err=0.65), RISING_PARAMS]
)
def test_drive_table_reproduces_the_float_drive(params):
    """For every (dendrite, prev, k, r) with k below 6 and r up to 20, the
    unit is on exactly when r is below its threshold, as the engine's float
    expression has it."""
    p = params
    table = _drive_thresholds(p, 6, 20)
    for dendrite, prev, k, r in itertools.product((0, 1), (0, 1), range(6), range(21)):
        drive = p.w_ff * dendrite + p.w_self * prev - p.w_lat * k - p.w_err * r - p.theta
        assert (r < table[dendrite, prev][k]) == (drive > 0), (dendrite, prev, k, r)


def test_rounding_decides_the_sign_in_the_drive_table():
    """The rounding params above are a real test: the exact decimal drive is
    0 at two cells, and the float drive, which the table follows, is positive
    at one and negative at the other."""
    p = ROUNDING_PARAMS
    w_ff, w_self, w_lat, w_err, theta = (
        Fraction(str(w)) for w in (p.w_ff, p.w_self, p.w_lat, p.w_err, p.theta)
    )
    table = _drive_thresholds(p, 4, 4)
    for (dendrite, prev, k, r), on in (((1, 0, 0, 1), True), ((1, 0, 3, 0), False)):
        assert w_ff * dendrite + w_self * prev - w_lat * k - w_err * r - theta == 0
        assert (r < table[dendrite, prev][k]) is on


def test_a_drive_rising_with_the_routed_count_is_refused_before_compare_runs(monkeypatch):
    """w_err < 0 is refused before either plane run, so no table is built."""
    def unreachable(*args):
        raise AssertionError("a plane run started")

    monkeypatch.setattr("conceptsim.compare._clamp_planes", unreachable)
    monkeypatch.setattr("conceptsim.oracle._search", unreachable)
    with pytest.raises(BadParams, match=r"^w_err < 0$"):
        compare_with_oracle(shuffled_network(4), NEGATIVE_ERR_PARAMS)


@given(params=valid_params(), widest=st.integers(0, 8), most=st.integers(0, 24))
@example(params=ROUNDING_PARAMS, widest=6, most=20)
@example(params=RISING_PARAMS, widest=4, most=8)
@example(params=CORNER_PARAMS, widest=8, most=300)
@example(params=CORNER_PARAMS._replace(w_err=0.01), widest=8, most=400)
@settings(max_examples=200, deadline=None)
def test_drive_table_equals_the_full_scan(params, widest, most):
    """Each cell's threshold, found by bisection over the routed counts, is
    the one of the scan over every routed count: with most in the hundreds,
    most + 1 in three rows at the corner, and at a w_err of 0.01 thresholds
    near 10, 200 and 310 in three rows. Every row falls with k, so the plane
    run reads the k at or above a threshold as a prefix of the layer's
    count."""
    table = _drive_thresholds(params, widest, most)
    assert table == drive_thresholds_reference(params, widest, most)
    for row in table.values():
        assert all(a >= b for a, b in zip(row, row[1:])), row


def test_a_drive_table_bisects_each_cell(monkeypatch):
    """At the corner three rows of a 300-wide table over 1400 routed counts
    have the drive above 0 at every count, so they neither stop early nor
    stop a cell before its last count; bisection takes at most 12 drives a
    cell where a scan r by r takes 1401."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _drive(*args)

    monkeypatch.setattr("conceptsim.engine._drive", counted)
    table = _drive_thresholds(CORNER_PARAMS, 300, 1400)
    assert table[0, 0] == table[1, 0] == table[1, 1] == [1401] * 300
    assert calls <= 4 * 300 * 12


@pytest.mark.parametrize("b", range(17))
def test_bottom_planes_equal_the_long_division(b):
    """Each clamp plane, built by doubling a block, equals the plane spread
    by long division, up to compare's limit of 16 layer-0 concepts."""
    net = validate_network(NetworkSpec(tuple(ConceptSpec(f"e{j}", 0) for j in range(b))))
    assert _bottom_planes(net) == bottom_planes_reference(net)


# --- the sweep's ignition bound: which idle units a layer walk skips ---

#: the params the bound treats apart: theta at and below 0, no lateral
#: inhibition (no count bounds the drive), both together, and a
#: rounding-decided sign
BOUND_PARAMS = [
    EngineParams(),
    EngineParams(theta=0.0),
    EngineParams(theta=-0.3),
    EngineParams(w_lat=0.0),
    EngineParams(theta=-0.3, w_lat=0.0),
    ROUNDING_PARAMS,
]


@pytest.mark.parametrize("params", BOUND_PARAMS)
@pytest.mark.parametrize("net", [random_network(0), shuffled_network(0), synth_network((6, 5, 5, 3), 1)])
def test_ignition_bounds_reproduce_the_float_drive(net, params):
    """For each dendrite value d and each count k of other active units an
    idle unit can see, below the widest layer's width, k >= k_on[d] exactly
    when the engine's float drive at prev 0 and routed 0 is at most 0."""
    p = params
    widest = max(len(net.layers[layer]) for layer in range(1, net.max_layer + 1))
    k_on = Engine(net, p)._k_on
    for dendrite, k in itertools.product((0, 1), range(widest)):
        drive = p.w_ff * dendrite + p.w_self * 0 - p.w_lat * k - p.w_err * 0 - p.theta
        assert (k >= k_on[dendrite]) == (drive <= 0), (dendrite, k)


#: a net whose widest layer above 0 has six units
SIX_WIDE = validate_network(NetworkSpec((
    ConceptSpec("a", 0),
    *(ConceptSpec(f"x{i}", 1, (("a",),)) for i in range(6)),
)))


def test_rounding_decides_an_ignition_bound():
    """Under the rounding params the exact decimal drive of an idle unit with
    a Complete pattern is 0 at a count of 3, and the float drive, which the
    bound follows, is negative there: k_on[1] is 3, not 4."""
    p = ROUNDING_PARAMS
    w_ff, w_lat, theta = (Fraction(str(w)) for w in (p.w_ff, p.w_lat, p.theta))
    assert w_ff - w_lat * 3 - theta == 0
    assert Engine(SIX_WIDE, p)._k_on == (0, 3)


def test_a_drive_rising_with_the_routed_count_is_refused_before_an_engine_is_built():
    """w_err < 0 is refused as Engine starts; at the boundary w_err = 0 a
    count still bounds an idle unit's drive, so a layer walk can skip."""
    with pytest.raises(BadParams, match=r"^w_err < 0$"):
        Engine(SIX_WIDE, NEGATIVE_ERR_PARAMS)
    assert Engine(SIX_WIDE, RISING_PARAMS)._k_on == (2, 2)
    assert Engine(SIX_WIDE, EngineParams())._k_on == (0, 1)


def test_a_routed_count_cannot_ignite_an_idle_unit():
    """w_err < 0, where a routed count would raise the drive, is refused
    before any sweep. At w_err = 0, z, idle with no Complete pattern, sees
    two active peers, a count at which its drive with no routed count is
    below 0; a routed count of 10 written between sweeps leaves it there,
    so z stays off, on the Engine as on the reference."""
    net = validate_network(NetworkSpec((
        ConceptSpec("a", 0),
        ConceptSpec("z", 1, (("a",),)),
        ConceptSpec("x", 1, (("a",),)),
        ConceptSpec("y", 1, (("a",),)),
    )))
    z, x, y = 1, 2, 3
    with pytest.raises(BadParams, match=r"^w_err < 0$"):
        run_scenario(net, NEGATIVE_ERR_PARAMS, [({0: 1}, None)])
    p = RISING_PARAMS
    assert p.w_ff * 0 + p.w_self * 0 - p.w_lat * 2 - p.w_err * 0 - p.theta <= 0
    fast, reference = Engine(net, p), ReferenceEngine(net, p)
    fast.active = 1 << x | 1 << y
    reference.activation[x] = reference.activation[y] = 1
    for engine in (fast, reference):
        engine.routed[z] = 10
        engine.sweep()
    assert engine_state(fast) == engine_state(reference)
    assert not fast.active >> z & 1


def corner_engines(net, ids):
    """An Engine and a ReferenceEngine on the corner params, clamped to
    {looking, white}, where salt's drive stays above 0 far beyond n routed
    errors."""
    clamp = {ids["looking"]: 1, ids["white"]: 1}
    engines = Engine(net, CORNER_PARAMS), ReferenceEngine(net, CORNER_PARAMS)
    for engine in engines:
        engine.apply_clamp(clamp)
    return engines


@pytest.mark.parametrize("count", [100, -1, 1.0, True], ids=["above-n", "negative", "float", "bool"])
def test_a_sweep_refuses_a_routed_count_the_table_cannot_decide(net, ids, count):
    """The drive table covers routed counts 0..n. At 100 it would leave salt
    off, where the reference's float drive, 3 - 0.001 * 100 + 2 = 4.9, turns
    it on; a count outside 0..n or not an int is refused on the unit the
    sweep decides, and the engine is left as it was."""
    fast, reference = corner_engines(net, ids)
    if count == 100:
        reference.routed[ids["salt"]] = count
        reference.sweep()
        assert reference.activation[ids["salt"]] == 1
    fast.routed[ids["salt"]] = count
    before = engine_state(fast), dict(fast.clamp)
    with pytest.raises(ValueError, match=rf"^routed count {count!r} for 'salt' is not an int in 0\.\.7$"):
        fast.sweep()
    assert (engine_state(fast), dict(fast.clamp)) == before


def test_a_routed_count_of_n_is_decided_as_the_reference_decides_it(net, ids):
    """n, the most a sweep routes, is the last count the table covers: a
    sweep with salt's count at n runs as the reference's does."""
    fast, reference = corner_engines(net, ids)
    for engine in (fast, reference):
        engine.routed[ids["salt"]] = net.n_concepts
        engine.sweep()
    assert engine_state(fast) == engine_state(reference)
    assert fast.active >> ids["salt"] & 1


@given(seed=st.integers(0, 999), net=compare_nets, params=valid_params())
@example(seed=3, net=random_network(3), params=ROUNDING_PARAMS)
@example(seed=4, net=shuffled_network(4), params=RISING_PARAMS)
@settings(max_examples=100, deadline=None)
def test_sweep_matches_reference_with_writes_on_drawn_params(seed, net, params):
    """Under drawn params, with seeded writes between sweeps, every sweep and
    run of the bitmask engine equals the reference's, which visits every
    unit: the walk skips no unit that could change."""
    for fast, reference in runs_with_writes(seed, net, params):
        assert fast == reference


@pytest.mark.parametrize("params", [ROUNDING_PARAMS, RISING_PARAMS], ids=["rounding", "rising"])
@pytest.mark.parametrize("seed", range(20))
def test_sweep_matches_reference_with_writes_on_edge_params(seed, params):
    """As above, on seeded netgen and shuffled nets, under a rounding-decided
    drive and at the boundary w_err = 0, where a routed count never moves the
    drive."""
    for net in (random_network(seed), shuffled_network(seed)):
        for fast, reference in runs_with_writes(seed, net, params):
            assert fast == reference


def skipped_with_a_complete_pattern(net, params, trace):
    """How often a sweep passes an idle, unlatched unit with a Complete
    pattern while its layer's count of active units is at least k_on[1]: the
    units the walk skips that the old rule visited. At a unit's turn the
    units before it in id order hold their final value for the sweep and the
    units after it their value before the sweep, which, as run_scenario
    writes nothing between sweeps, is the previous snapshot's; a clamp drops
    every latch."""
    k_on1 = Engine(net, params)._k_on[1]
    count = 0
    before = 0
    for phase in trace.phases:
        latched = 0
        for snap in phase.snapshots:
            for layer in range(1, net.max_layer + 1):
                mask = net.layer_mask[layer]
                for c in _ids(mask & ~(before | snap.active | latched)):
                    if not any(m & snap.active == m for m in net.masks[c]):
                        continue
                    lower = (1 << c) - 1
                    k = (snap.active & mask & lower).bit_count() + (before & mask & ~lower).bit_count()
                    count += k >= k_on1
            before, latched = snap.active, snap.latched
    return count


def test_ignition_bound_skips_are_not_vacuous():
    """Some seeded sweeps pass an idle, unlatched unit with a Complete
    pattern in a layer whose count is already k_on[1], so the differential
    tests above check the case the walk skips."""
    skipped = sum(
        skipped_with_a_complete_pattern(net, params, run_scenario(net, params, mixed_scenario(net, seed)))
        for seed in range(50)
        for net in (random_network(seed), shuffled_network(seed % 20))
        for params in (EngineParams(), ROUNDING_PARAMS)
    )
    assert skipped > 0


def thermometer_depth(net, params):
    """The deepest routed-count threshold the plane run keeps."""
    table = _drive_thresholds(params, max(map(len, net.layers.values())), net.n_concepts)
    return max((t for row in table.values() for t in row if t <= net.n_concepts), default=0)


def latches(net, params):
    """Whether some clamp's run latches a concept."""
    engine = Engine(net, params)
    for clamped in all_clamps(net):
        engine.reset()
        engine.apply_clamp({e: 1 for e in clamped})
        if engine.run_to_fixed_point()[0][-1].latched:
            return True
    return False


def terminates(kind):
    return lambda drawn: any(c.termination is kind for c in compare_with_oracle(*drawn).cases)


#: what some drawn (net, params) must reach
REACHED = {
    "cycle": terminates(Termination.CYCLE),
    "sweep limit": terminates(Termination.SWEEP_LIMIT),
    "latch": lambda drawn: latches(*drawn),
    "threshold above 1": lambda drawn: thermometer_depth(*drawn) > 1,
}


@pytest.mark.parametrize("what", REACHED)
def test_drawn_compare_cases_are_not_vacuous(what):
    """The nets and params the plane test draws from reach cycles, sweep
    limits, latches and routed counts that need a threshold above 1."""
    find(
        st.tuples(compare_nets, valid_params()), REACHED[what],
        settings=settings(max_examples=500, phases=[Phase.generate], database=None),
        random=random.Random(0),
    )


def winner_take_all(net, params):
    """Whether the drive table lets no idle unit ignite beside an active one
    of its layer: the cell at k = 1 of rows (d, prev 0) is 0 for both d, so
    k_on[d] <= 1."""
    table = _drive_thresholds(params, 2, net.n_concepts)
    return table[0, 0][1] == table[1, 0][1] == 0


#: a net, params with a winner-take-all table, and a mixed scenario's seed
winner_take_all_cases = st.tuples(compare_nets, valid_params(), st.integers(0, 9)).filter(lambda d: winner_take_all(*d[:2]))


def at_most_one_per_layer(net, active):
    return all((active & mask).bit_count() <= 1 for mask in net.layer_mask[1:])


def mixed_snapshots(net, params, seed):
    """Every snapshot of a mixed scenario's run, holds cut to max_sweeps."""
    phases = [(clamp, hold and min(hold, params.max_sweeps)) for clamp, hold in mixed_scenario(net, seed)]
    return [snap for phase in run_scenario(net, params, phases).phases for snap in phase.snapshots]


@given(drawn=winner_take_all_cases)
@settings(max_examples=100, deadline=None)
def test_a_winner_take_all_table_holds_one_active_concept_per_layer(drawn):
    """Under a winner-take-all table an idle unit ignites only while no other
    unit of its layer is active, rows fall with k, and apply_clamp keeps the
    layers above 0: so no snapshot of a multi-phase run from a fresh Engine,
    and no inferred set of compare, holds two concepts of one layer above 0."""
    net, params, seed = drawn
    for snap in mixed_snapshots(net, params, seed):
        assert at_most_one_per_layer(net, snap.active)
    for _, inferred, _, _ in compare_with_oracle(net, params).groups:
        assert at_most_one_per_layer(net, sum(1 << c for c in inferred or ()))


def ignites_in_a_wide_layer(drawn):
    """Whether the drawn run activates a unit of a layer of width 2 or more."""
    net, params, seed = drawn
    wide = sum(mask for mask in net.layer_mask[1:] if mask.bit_count() >= 2)
    return any(snap.active & wide for snap in mixed_snapshots(net, params, seed))


def test_drawn_winner_take_all_cases_are_not_vacuous():
    """Some drawn winner-take-all case ignites a unit in a layer where it has
    a peer, so the one-per-layer property above is tested."""
    find(
        winner_take_all_cases, ignites_in_a_wide_layer,
        settings=settings(max_examples=500, phases=[Phase.generate], database=None),
        random=random.Random(0),
    )


# --- compare's oracle side: every clamp at once ---

#: nets for the oracle's plane pass: the generated nets of the enumeration
#: test above, the nets of the plane run, and a hand-built net with two
#: maximal interpretations on one clamp, which generated nets reach in about
#: one draw of 1500
oracle_nets = st.one_of(layered_networks(), compare_nets, st.just(validate_network(AMBIGUOUS_SPEC)))
plane_taus = st.floats(0.05, 1.0)

#: enumerate_reference checks 2^k candidates per clamp, so the plane pass is
#: held to it on nets of at most this many concepts above layer 0: the
#: generated nets, the edge nets, salt, caramel and the hand-built net
REFERENCE_MAX = 6


def mask_of(ids):
    return sum(1 << c for c in ids)


def families_by_clamp(net, tau):
    """The oracle's search run as compare runs it, one case per clamp, read
    back per clamp: entry i lists each interpretation whose plane holds case i."""
    found = _search(net, dict(zip(net.bottom, _bottom_planes(net))), 1 << len(net.bottom), tau)
    return [[bits for bits, plane in found.items() if plane >> i & 1] for i in range(1 << len(net.bottom))]


def assert_families_match_enumeration(net, tau):
    """For every clamp case, the plane pass lists each interpretation that
    enumerate_interpretations reports for that clamp, and only those, once.
    enumerate_interpretations runs the same search on one case, so on small
    nets the families also equal those of enumerate_reference, the flat rule."""
    families = families_by_clamp(net, tau)
    assert len(families) == 1 << len(net.bottom)
    for family, clamped in zip(families, all_clamps(net)):
        want = sorted(mask_of(r.interpretation) for r in enumerate_interpretations(net, clamped, tau))
        assert sorted(family) == want, sorted(clamped)
        if len(net.non_bottom) <= REFERENCE_MAX:
            assert want == sorted(mask_of(r.interpretation) for r in enumerate_reference(net, clamped, tau))


@given(net=oracle_nets, tau=plane_taus)
@settings(max_examples=100, deadline=None)
def test_interpretations_by_clamp_match_enumeration_on_drawn_nets(net, tau):
    assert_families_match_enumeration(net, tau)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("name", EDGE_NETS)
def test_interpretations_by_clamp_match_enumeration_on_edge_nets(name, tau):
    """Nets with no layer above 0, and one whose top layer is layer 1, where
    the clamp must be explained and nothing lies above the layer-1 choice."""
    assert_families_match_enumeration(validate_network(EDGE_NETS[name]), tau)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
def test_interpretations_by_clamp_match_enumeration_on_shipped_nets(data_dir, name, tau):
    assert_families_match_enumeration(validate_network(parse_network_file((data_dir / name).read_text())), tau)


@pytest.mark.parametrize("tau", [-1.0, -0.3])
@pytest.mark.parametrize("seed", range(1, 4))
def test_interpretations_by_clamp_match_enumeration_below_zero_tau(seed, tau):
    """Four layers with 4-element patterns, whose need at tau -1 is -4."""
    assert_families_match_enumeration(synth_network((6, 5, 5, 3), seed), tau)


def test_small_nets_are_held_to_the_flat_rule():
    """Every net the plane-pass tests name is small enough for enumerate_reference."""
    nets = [validate_network(spec) for spec in (*EDGE_NETS.values(), AMBIGUOUS_SPEC)]
    nets += [validate_network(parse_network_file((DATA_DIR / name).read_text())) for name in ("salt.json", "caramel.json")]
    assert max(len(net.non_bottom) for net in nets) <= REFERENCE_MAX


def several_maximal(net, tau):
    """Some clamp has two or more maximal consistent interpretations."""
    return any(
        sum(r.maximal for r in enumerate_interpretations(net, clamped, tau)) >= 2
        for clamped in all_clamps(net)
    )


def refused_only_by_an_incomplete_pattern(net, tau):
    """Some clamp leaves a layer-1 concept with a Complete pattern, which is
    refused only because another pattern is ApplicableIncomplete."""
    for clamped in all_clamps(net):
        for c in net.layers.get(1, ()):
            states = {pattern_state(p, clamped, tau).status for p in net.patterns[c]}
            if {PatternStatus.COMPLETE, PatternStatus.APPLICABLE_INCOMPLETE} <= states:
                return True
    return False


def completion_shared_by_two_clamps(net, tau):
    """Some interpretation that reaches above layer 1 is consistent under two
    clamps: its layer-1 choice was live for both, and the completions above
    that choice, searched once as one case of layer 2, served both."""
    if net.max_layer < 2:
        return False
    upper = net.non_bottom_mask & ~net.layer_mask[1]
    seen = collections.Counter(
        bits for family in families_by_clamp(net, tau) for bits in family if bits & upper
    )
    return any(count >= 2 for count in seen.values())


ORACLE_REACHED = {
    "two maximal sets": lambda drawn: several_maximal(*drawn),
    "refusal by an incomplete pattern": lambda drawn: refused_only_by_an_incomplete_pattern(*drawn),
    "completion shared by two clamps": lambda drawn: completion_shared_by_two_clamps(*drawn),
}


@pytest.mark.parametrize("what", ORACLE_REACHED)
def test_drawn_oracle_cases_are_not_vacuous(what):
    """The nets and taus the plane-pass test draws reach clamps with several
    maximal sets, layer-1 refusals caused only by an ApplicableIncomplete
    pattern, and completions shared across clamps."""
    find(
        st.tuples(oracle_nets, plane_taus), ORACLE_REACHED[what],
        settings=settings(max_examples=500, phases=[Phase.generate], database=None),
        random=random.Random(0),
    )


@given(
    net=oracle_nets,
    params=st.sampled_from([EngineParams(), EngineParams(error_routing=ErrorRouting.ALL_GLOBAL), CYCLING_PARAMS]),
)
@settings(max_examples=100, deadline=None)
def test_report_counts_and_disagreements_match_its_cases(net, params):
    """count and disagreements, read off a fresh report's planes before any
    other CaseResult is built, equal those recomputed from its cases, and the
    cases and the report itself equal the per-clamp reference's."""
    report = compare_with_oracle(net, params)
    counts = {kind: report.count(kind) for kind in Agreement}
    disagreements = report.disagreements
    cases = report.cases
    assert counts == {kind: sum(case.classification is kind for case in cases) for kind in Agreement}
    assert disagreements == tuple(case for case in cases if case.classification is Agreement.DISAGREE)
    reference = compare_reference(net, params)
    assert cases == reference.cases
    assert report == reference


# --- the timeline renderer against the one over sorted rows ---

def assert_renderers_agree(trace, seed):
    assert render_ascii_timeline(trace) == render_ascii_timeline_reference(trace)
    rows = trace_rows(trace)
    # rows in any order, with cells and whole columns missing
    rng = random.Random(seed)
    rows = rng.sample(rows, rng.randint(1, len(rows)))
    assert render_ascii_timeline(rows) == render_ascii_timeline_reference(rows)


#: a phase with no snapshots, which has no column; the library refuses a
#: hold below 1, so only a hand-built trace holds one
EMPTY_PHASE = PhaseTrace({}, (), Termination.SWEEP_LIMIT)


def with_empty_phase(trace):
    """The trace with an empty phase after the first."""
    return Trace(trace.net, trace.phases[:1] + (EMPTY_PHASE,) + trace.phases[1:])


@pytest.mark.parametrize("name", ["salt.json", "caramel.json"])
@pytest.mark.parametrize("scenario", ["salt_rejection.json", "unexpected_sweet.json", "decoupling.json"])
def test_renderers_agree_on_shipped_scenarios(data_dir, name, scenario):
    net = validate_network(parse_network_file((data_dir / name).read_text()))
    phases = parse_scenario_file((data_dir / "scenarios" / scenario).read_text(), net).resolve(net)
    assert_renderers_agree(run_scenario(net, EngineParams(), phases), len(phases))


@pytest.mark.parametrize("seed", range(50))
def test_renderers_agree_on_seeded_networks(seed):
    net = random_network(seed)
    trace = run_scenario(net, EngineParams(), mixed_scenario(net, seed))
    assert_renderers_agree(with_empty_phase(trace), seed)


@pytest.mark.parametrize("seed", range(5))
def test_renderers_agree_on_awkward_names(awkward_net, seed):
    phases = [({e: 1 for e in awkward_net.bottom}, None)] + mixed_scenario(awkward_net, seed)
    assert_renderers_agree(with_empty_phase(run_scenario(awkward_net, EngineParams(), phases)), seed)


def test_renderers_refuse_an_empty_trace(net):
    empty = Trace(net, (EMPTY_PHASE,))
    for render in (render_ascii_timeline, render_ascii_timeline_reference):
        for trace in (empty, []):
            with pytest.raises(ValueError, match="empty trace"):
                render(trace)
