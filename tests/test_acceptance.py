"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; all expected values are frozen (hand-derived or pinned from the first
verified run, see the golden files).
"""
import time

from conceptsim import (
    Agreement,
    EngineParams,
    Termination,
    Verdict,
    compare_with_oracle,
    error_flags,
    parse_network_file,
    parse_params,
    parse_scenario_file,
    read_trace_csv,
    read_verdicts,
    run_scenario,
    serialize_network,
    serialize_params,
    serialize_scenario,
    write_trace_csv,
)

from netgen import random_network, random_scenario
from reference import trace_rows, write_rows_csv

PARAMS = EngineParams()


def _salt_rejection_scenario(net):
    ids = net.name_to_id
    return [
        ({ids["looking"]: 1, ids["white"]: 1}, None),
        ({ids["looking"]: 1, ids["white"]: 1, ids["tasting"]: 1}, None),
    ]


def _passed(line):
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_salt_narrative(net, ids):
    """Infer salt from looks alone, reject it once tasting misses salty."""
    start = time.perf_counter()
    trace = run_scenario(net, PARAMS, _salt_rejection_scenario(net))
    elapsed = time.perf_counter() - start

    assert read_verdicts(trace, 0)[ids["salt"]] is Verdict.INFERRED
    assert read_verdicts(trace, 1)[ids["salt"]] is Verdict.REJECTED
    assert any(s.omission[ids["salty"]] for s in trace.phases[1].snapshots)
    assert elapsed < 1.0
    _passed(f"1 salt narrative (phase1 Inferred, phase2 Rejected, {elapsed * 1000:.0f} ms)")


def test_criterion_2_bistability_cancellation(net):
    """All-present / all-absent pattern configurations are silent: no error
    unit fires on that pattern's elements while its owner is active."""
    nets = [net] + [random_network(seed) for seed in range(50)]
    checked = 0
    for candidate in nets:
        for c in candidate.non_bottom:
            for pat in candidate.patterns_of(c):
                for present in (1, 0):
                    activation = [0] * candidate.n_concepts
                    activation[c] = 1
                    for e in pat.elements:
                        activation[e] = present
                    omission, commission = error_flags(candidate, activation, PARAMS.tau)
                    for e in pat.elements:
                        assert omission[e] == 0, (candidate.names[c], present)
                        assert commission[e] == 0, (candidate.names[c], present)
                    checked += 1
    _passed(f"2 bistability/cancellation ({len(nets)} networks, {checked} configurations, 0 violations)")


def test_criterion_3_decoupling_golden(net, ids, data_dir, golden_dir):
    """salt stays inferred with nothing clamped; exact trace pinned."""
    scenario = parse_scenario_file((data_dir / "scenarios" / "decoupling.json").read_text(), net)
    trace = run_scenario(net, PARAMS, scenario.resolve(net))
    assert trace.phases[1].termination is Termination.FIXED_POINT
    assert read_verdicts(trace, 1)[ids["salt"]] is Verdict.INFERRED
    golden = (golden_dir / "decoupling_trace.csv").read_text()
    assert write_trace_csv(trace) == golden
    _passed("3 decoupling (salt self-sustained under empty clamp, golden trace byte-equal)")


def test_criterion_4_oracle_agreement(net):
    """All 32 clamp subsets: no disagreement, ties only tie-selected."""
    start = time.perf_counter()
    report = compare_with_oracle(net, PARAMS)
    elapsed = time.perf_counter() - start
    assert len(report.cases) == 32
    assert report.count(Agreement.DISAGREE) == 0
    for case in report.cases:
        assert case.classification in (Agreement.AGREE, Agreement.TIE_SELECTED)
    assert elapsed < 1.0
    _passed(
        f"4 oracle agreement (32 cases, AGREE {report.count(Agreement.AGREE)}, "
        f"TIE-SELECTED {report.count(Agreement.TIE_SELECTED)}, DISAGREE 0, {elapsed * 1000:.0f} ms)"
    )


def test_criterion_5_unexpected_element(net, ids, data_dir, golden_dir):
    """Unexplained sweet evidence raises a commission error and dethrones salt."""
    scenario = parse_scenario_file(
        (data_dir / "scenarios" / "unexpected_sweet.json").read_text(), net
    )
    trace = run_scenario(net, PARAMS, scenario.resolve(net))
    assert any(s.commission[ids["sweet"]] for s in trace.phases[1].snapshots)
    verdicts = read_verdicts(trace, 1)
    assert verdicts[ids["salt"]] is not Verdict.INFERRED
    # pinned outcome: both hypotheses end rejected
    assert verdicts == {ids["salt"]: Verdict.REJECTED, ids["sugar"]: Verdict.REJECTED}
    golden = (golden_dir / "unexpected_sweet_trace.csv").read_text()
    assert write_trace_csv(trace) == golden
    _passed("5 unexpected element (commission on sweet, salt Rejected, golden trace byte-equal)")


def test_criterion_6_determinism_and_round_trips(net, data_dir, golden_dir):
    """100 identical runs byte-for-byte; every shipped file round-trips."""
    outputs = {
        write_trace_csv(run_scenario(net, PARAMS, _salt_rejection_scenario(net)))
        for _ in range(100)
    }
    assert len(outputs) == 1
    golden = (golden_dir / "salt_rejection_trace.csv").read_text()
    assert outputs == {golden}

    for path in sorted(data_dir.glob("*.json")):
        text = path.read_text()
        spec = parse_network_file(text)
        assert serialize_network(spec) == text
        assert parse_network_file(serialize_network(spec)) == spec
    for path in sorted((data_dir / "scenarios").glob("*.json")):
        text = path.read_text()
        spec = parse_scenario_file(text, net)
        assert serialize_scenario(spec) == text
        assert parse_scenario_file(serialize_scenario(spec), net) == spec
    for path in sorted((data_dir / "params").glob("*.json")):
        params = parse_params(path.read_text())
        assert parse_params(serialize_params(params)) == params

    trace = run_scenario(net, PARAMS, _salt_rejection_scenario(net))
    text = write_trace_csv(trace)
    assert read_trace_csv(text) == trace_rows(trace)
    assert write_rows_csv(read_trace_csv(text)) == text
    _passed("6 determinism & round-trips (100 identical runs, all formats round-trip)")


def test_criterion_7_termination(net):
    """Every scenario over the criterion-2 networks settles within 64 sweeps."""
    nets = [net] + [random_network(seed) for seed in range(50)]
    phases_run = 0
    for i, candidate in enumerate(nets):
        for clamp, hold in random_scenario(candidate, seed=1000 + i, phases=4):
            trace = run_scenario(candidate, PARAMS, [(clamp, hold)])
            termination = trace.phases[0].termination
            assert termination in (Termination.FIXED_POINT, Termination.CYCLE)
            phases_run += 1
    _passed(f"7 termination ({phases_run} phases, no SweepLimit)")
