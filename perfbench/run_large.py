"""run-large: run_scenario on a seeded 1000/300/100 network with a three-phase
scenario (a random half of layer 0 to convergence, a new half for a fixed
number of sweeps, an empty clamp to convergence), then read_verdicts for every
phase and write_trace_csv. One operation is all of that; its phases and CSV
are checked against the pinned values."""
from __future__ import annotations

import hashlib
import tracemalloc
from collections import Counter

import layers
import synth
from common import Checker, load_pins, median, timed
from conceptsim import engine, io, model

SIZES = (1000, 300, 100)
HOLD = 40
PARAMS_TEXT = "{}"


def phase_digest(trace: engine.Trace, index: int, verdicts: dict) -> dict:
    """Termination, sweep count and verdicts of one phase, in pinned form."""
    phase = trace.phases[index]
    letters = "".join(verdicts[c].value[0] for c in trace.net.non_bottom)
    return {
        "termination": phase.termination.value,
        "sweeps": len(phase.snapshots),
        "verdicts_sha256": hashlib.sha256(letters.encode()).hexdigest(),
        "verdict_counts": dict(sorted(Counter(v.value for v in verdicts.values()).items())),
    }


def csv_digest(text: str) -> dict:
    data = text.encode("utf-8")
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


class Work(layers.LibraryWork):
    SETUP_REPS = 5

    def __init__(self, seed: int, checker: Checker) -> None:
        super().__init__(seed)
        self.pins = load_pins()["run-large"]
        self.checker = checker
        self.load(self.order[0])
        self.shape = {
            "sizes": list(SIZES),
            "instance_order": self.order,
            "phases": ["half, converge", f"new half, hold {HOLD}", "empty, converge"],
            "patterns": sum(len(p) for p in self.net.patterns),
        }
        self.run_times: list[float] = []
        self.last_trace = None
        self.last_csv_bytes = 0

    def load(self, instance: int) -> None:
        self.instance = instance
        self.net_text = synth.network_json(SIZES, instance)
        self.scenario_text = synth.scenario_json(SIZES[0], instance, HOLD)
        self.pinned = self.pins[str(instance)]
        self.net, self.params, self.phases = self.setup()

    def setup(self):
        net = model.validate_network(io.parse_network_file(self.net_text))
        scenario = io.parse_scenario_file(self.scenario_text, net)
        return net, io.parse_params(PARAMS_TEXT), scenario.resolve(net)

    def simulate(self):
        trace = engine.run_scenario(self.net, self.params, self.phases)
        return trace, [engine.read_verdicts(trace, i) for i in range(len(trace.phases))]

    def op(self) -> float | None:
        """run_s is recorded on the side; the operation's time is run_trace_s."""
        self.last_trace = None  # free the previous trace before timing
        try:
            run_s, (trace, verdicts) = timed(self.simulate)
            csv_s, text = timed(io.write_trace_csv, trace)
            run_trace_s = run_s + csv_s
        except Exception as error:  # a failing call is a counted failure, not a crash
            self.checker.raised("run_scenario", len(self.pinned["phases"]) + 1, error)
            return None
        for i, want in enumerate(self.pinned["phases"]):
            got = phase_digest(trace, i, verdicts[i]) if i < len(trace.phases) else None
            self.checker.check(f"phase {i}", got, want)
        self.checker.check("trace csv", csv_digest(text), self.pinned["csv"])
        self.run_times.append(run_s)
        self.last_trace, self.last_csv_bytes = trace, len(text.encode("utf-8"))
        return run_trace_s

    def run(self, seconds: float) -> list[float]:
        self.run_times = []
        return super().run(seconds)

    def named(self, op_times: list[float], setup_times: list[float]) -> dict[str, float]:
        return {
            "setup_s": median(setup_times),
            "run_s": median(self.run_times),
            "run_trace_s": median(op_times),
            "scenario_calls": len(op_times),
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def layer_metrics(self, per_op, counts) -> dict[str, float]:
        out = layers.median_of([
            layers.op_metrics(stats, counts.get(run_id, {}))
            for run_id, stats in per_op.items()
        ])
        csv_s = out.get("io.write_trace_csv_s", 0.0)
        out["io.trace_csv_bytes"] = self.last_csv_bytes
        out["io.csv_mb_per_s"] = self.last_csv_bytes / 1e6 / csv_s if csv_s else 0.0
        out["engine.dendrites_ms"] = self.dendrites_ms()
        out["engine.trace_retained_mb"] = self.trace_retained_mb()
        return out

    def dendrites_ms(self) -> float:
        """Proxy for the dendrite stage: dendrite_values replayed on every
        recorded activation of the last traced operation, per sweep."""
        trace = self.last_trace
        if trace is None:
            return 0.0
        activations = [s.activation for p in trace.phases for s in p.snapshots]
        seconds, _ = timed(lambda: [engine.dendrite_values(self.net, a) for a in activations])
        return 1000 * seconds / len(activations)

    def trace_retained_mb(self) -> float:
        """Memory the Trace returned by run_scenario still holds, by tracemalloc."""
        self.last_trace = None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = engine.run_scenario(self.net, self.params, self.phases)
            retained = tracemalloc.get_traced_memory()[0] - before
            del trace  # referenced until measured, so it counts as retained
        finally:
            tracemalloc.stop()
        return retained / 1e6
