"""Tests of the benchmark itself, kept out of the program's test suite:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cli_small  # noqa: E402
import compare_synth  # noqa: E402
import run_large  # noqa: E402
import speed  # noqa: E402
import synth  # noqa: E402
from common import POOL, Checker, instance_order, load_pins, timed  # noqa: E402
from conceptsim import Agreement, Verdict, engine, io, model  # noqa: E402
from spans import Span, Tracer, self_times, summarize  # noqa: E402


# --- generators ---

def test_same_seed_gives_byte_identical_json():
    assert synth.network_json((7, 5, 3), 11) == synth.network_json((7, 5, 3), 11)
    assert synth.scenario_json(1000, 11, 40) == synth.scenario_json(1000, 11, 40)
    assert synth.network_json((7, 5, 3), 11) != synth.network_json((7, 5, 3), 12)
    assert synth.scenario_json(1000, 11, 40) != synth.scenario_json(1000, 12, 40)


def test_network_has_the_requested_shape_and_seed_independent_pattern_work():
    totals = set()
    for seed in range(5):
        net = model.validate_network(io.parse_network_file(synth.network_json((7, 5, 3), seed)))
        assert [len(net.layers[layer]) for layer in range(3)] == [7, 5, 3]
        for c in net.non_bottom:
            assert 2 <= len(net.patterns[c]) <= 3
            for pattern in net.patterns[c]:
                assert 3 <= len(pattern) <= 4
                assert {net.layer_of[e] for e in pattern.elements} == {net.layer_of[c] - 1}
        totals.add(tuple(sorted(len(p) for ps in net.patterns for p in ps)))
    assert len(totals) == 1


def test_too_small_a_layer_is_refused_rather_than_drawn_forever():
    with pytest.raises(ValueError):
        synth.network_json((7, 4, 3), 1)


def test_seed_gives_a_fixed_order_over_every_instance():
    assert instance_order(5) == instance_order(5) != instance_order(6)
    assert sorted(instance_order(5)) == list(range(POOL))


def test_scenario_phases():
    net = model.validate_network(io.parse_network_file(synth.network_json((8, 5, 2), 3)))
    phases = io.parse_scenario_file(synth.scenario_json(8, 3, 5), net).phases
    assert [len(p.clamp) for p in phases] == [4, 4, 0]
    assert [p.hold for p in phases] == [None, 5, None]


# --- spans ---

def test_self_time_is_duration_minus_time_covered_by_children():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 3.0, 0, "r"),
        Span("b", 5.0, 6.0, 0, "r"),
        Span("a.child", 1.5, 2.5, 1, "r"),
    ]
    assert self_times(spans) == [7.0, 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 5.0, 0, "r"),
        Span("c", 9.0, 12.0, 0, "r"),
    ]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_tracer_nests_spans_counts_results_and_restores():
    class Lib:
        @staticmethod
        def outer(n):
            return Lib.inner(n) + [0]

        @staticmethod
        def inner(n):
            return list(range(n))

    tracer = Tracer()
    tracer.patch(Lib, "outer", "lib.outer", count=len)
    tracer.patch(Lib, "inner", "lib.inner")
    tracer.run_id = "op0"
    assert Lib.outer(3) == [0, 1, 2, 0]
    tracer.restore()
    assert Lib.outer(1) == [0, 0] and len(tracer.spans) == 2
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("lib.outer", None, "lib.inner", 0)
    assert tracer.counts == {("op0", "lib.outer"): 4}
    stats = summarize(tracer.spans)["op0"]
    assert stats["lib.outer"].self_total == outer.duration - inner.duration


# --- host speed probe ---

def test_scaled_time_is_wall_time_at_the_reference_kernel_speed():
    window = speed.Window()
    window.samples = [2 * speed.REFERENCE_KERNEL_S, 4 * speed.REFERENCE_KERNEL_S, 3 * speed.REFERENCE_KERNEL_S]
    assert window.scale(6.0) == pytest.approx(2.0)


def test_probe_samples_a_window_and_charges_no_kernel_time_to_the_call():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    probe = speed.PROBE
    probe.enabled = True
    try:
        with probe.window() as window:
            spent = probe.spent
            seconds, _ = timed(busy)
    finally:
        probe.enabled = False
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(window.samples) >= 4  # before, after, and ticks within
    assert probe.spent > spent
    assert seconds < 0.3


# --- correctness checks reject mutated output ---

def test_compare_check_rejects_a_mutated_case():
    pinned = load_pins()["compare-synth"]["0"].split()
    net = model.validate_network(io.parse_network_file(synth.network_json(compare_synth.SIZES, 0)))
    report = engine.compare_with_oracle(net)
    checker = Checker()
    compare_synth.check_cases(checker, compare_synth.encode(net, report), pinned)
    assert (checker.attempted, checker.failed) == (128, 0)

    cases = list(report.cases)
    flipped = Agreement.DISAGREE if cases[5].classification is Agreement.AGREE else Agreement.AGREE
    cases[5] = dataclasses.replace(cases[5], classification=flipped)
    cases[9] = dataclasses.replace(cases[9], inferred=None)
    checker = Checker()
    compare_synth.check_cases(checker, compare_synth.encode(net, engine.AgreementReport(tuple(cases))), pinned)
    assert (checker.attempted, checker.failed) == (128, 2)

    checker = Checker()
    compare_synth.check_cases(checker, compare_synth.encode(net, report)[:-1], pinned)
    assert checker.failed == 1


def test_run_check_rejects_a_mutated_verdict_and_csv():
    pinned = load_pins()["run-large"]["0"]
    work = run_large.Work(0, Checker())
    work.load(0)
    trace, verdicts = work.simulate()
    assert [run_large.phase_digest(trace, i, v) for i, v in enumerate(verdicts)] == pinned["phases"]
    text = io.write_trace_csv(trace)
    assert run_large.csv_digest(text) == pinned["csv"]

    c = next(iter(verdicts[0]))
    verdicts[0][c] = Verdict.UNSTABLE if verdicts[0][c] is not Verdict.UNSTABLE else Verdict.INACTIVE
    checker = Checker()
    checker.check("phase 0", run_large.phase_digest(trace, 0, verdicts[0]), pinned["phases"][0])
    checker.check("trace csv", run_large.csv_digest(text.replace(",1\n", ",0\n", 1)), pinned["csv"])
    assert (checker.attempted, checker.failed) == (2, 2)


def test_cli_check_rejects_mutated_stdout_and_exit_code():
    call = cli_small.MIX[0]
    pinned = load_pins()["cli-small"][cli_small.call_key(call)]
    _, proc = cli_small.run_call(call, None, cli_small.child_env())
    got = cli_small.outcome(proc)
    checker = Checker()
    for outcome in (got, {**got, "stdout": got["stdout"] + " "}, {**got, "exit": 1}):
        checker.check(cli_small.call_key(call), outcome, pinned)
    assert (checker.attempted, checker.failed) == (3, 2)
    strict = cli_small.call_key(cli_small.MIX[6])
    assert load_pins()["cli-small"][strict]["exit"] == 1


# --- the entry point refuses to run without the program ---

def test_entry_point_fails_without_program_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
