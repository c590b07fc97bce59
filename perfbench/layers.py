"""Which public functions the traced run wraps, and how the spans of one
library operation turn into per-layer metrics.

Workloads call the program through module attributes (`engine.run_scenario`,
not a name imported from it), so the wrappers installed here see those calls
as well as the calls the program makes between its own modules.
"""
from __future__ import annotations

import resource

from common import collect, instance_order, median, p90, timed
from spans import Stat, Tracer
from speed import PROBE

SWEEP = "engine.Engine.sweep"


def instrument(tracer: Tracer) -> None:
    from conceptsim import engine, io, model, oracle

    for owner, names in (
        (io, ("parse_network_file", "parse_scenario_file", "parse_params", "write_trace_csv")),
        (model, ("validate_network",)),
        (engine, ("compare_with_oracle", "run_scenario", "read_verdicts", "error_flags", "route_errors")),
    ):
        for name in names:
            tracer.patch(owner, name, f"{owner.__name__.split('.')[-1]}.{name}")
    tracer.patch(
        oracle, "enumerate_interpretations", "oracle.enumerate_interpretations", count=len
    )
    for method in ("__init__", "apply_clamp", "run_to_fixed_point", "run_fixed_sweeps", "sweep"):
        tracer.patch(engine.Engine, method, f"engine.Engine.{method}")


def setup_metrics(stats: dict[str, Stat]) -> dict[str, float]:
    """Medians over the traced set-up repetitions."""
    return {
        "io.parse_network_s": median(stats["io.parse_network_file"].durations),
        "model.validate_s": median(stats["model.validate_network"].durations),
    }


def op_metrics(stats: dict[str, Stat], counts: dict[str, int], candidates: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced compare or scenario operation, for the
    layers it called.

    Stage times are per sweep. engine.update_ms is derived: the sweep's self
    time, i.e. the sweep minus error_flags and route_errors, which leaves the
    inline layer update including lateral inhibition.
    """
    empty = Stat()

    def total(*names: str) -> float:
        return sum(stats.get(n, empty).total for n in names)

    out: dict[str, float] = {}
    sweep = stats.get(SWEEP)
    if sweep is not None:
        per_sweep = 1000 / sweep.calls
        out.update({
            "engine.construct_s": total("engine.Engine.__init__", "engine.Engine.apply_clamp"),
            "engine.converge_s": total("engine.Engine.run_to_fixed_point", "engine.Engine.run_fixed_sweeps"),
            "engine.sweeps": sweep.calls,
            "engine.sweep_p50_ms": 1000 * median(sweep.durations),
            "engine.sweep_p90_ms": 1000 * p90(sweep.durations),
            "engine.error_flags_ms": total("engine.error_flags") * per_sweep,
            "engine.route_errors_ms": total("engine.route_errors") * per_sweep,
            "engine.update_ms": sweep.self_total * per_sweep,
        })
    if "engine.read_verdicts" in stats:
        out["engine.read_verdicts_s"] = total("engine.read_verdicts")
    enumerate_ = stats.get("oracle.enumerate_interpretations")
    if enumerate_ is not None:
        consistent = counts.get("oracle.enumerate_interpretations", 0)
        out.update({
            "oracle.enumerate_s": enumerate_.total,
            "oracle.enumerate_p50_ms": 1000 * median(enumerate_.durations),
            "oracle.enumerate_p90_ms": 1000 * p90(enumerate_.durations),
            "oracle.candidates": candidates,
            "oracle.consistent": consistent,
            "oracle.yield": consistent / candidates,
            "oracle.share_of_compare": enumerate_.total / total("engine.compare_with_oracle"),
        })
    if "io.write_trace_csv" in stats:
        out["io.write_trace_csv_s"] = total("io.write_trace_csv")
    return out


def median_of(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over the operations that reported it."""
    keys = {key for m in per_op for key in m}
    return {key: median([m[key] for m in per_op if key in m]) for key in sorted(keys)}


class LibraryWork:
    """What the two in-process workloads share. A subclass provides load(),
    setup(), op() and layer_metrics(), and sets SETUP_REPS.

    Each operation runs on the next instance of the seed's order, which
    load(instance) makes current; so a run's medians are taken over several
    instances rather than resting on one. Set-up is repeated SETUP_REPS times
    after every operation rather than in one burst, so its median samples the
    whole run like the operations do. With the speed probe on, every operation
    and every set-up batch is a window of its own, and `scaled` holds the
    rescaled times (see speed.py).
    """

    SETUP_REPS = 1

    def __init__(self, seed: int) -> None:
        self.tracer: Tracer | None = None
        self.order = instance_order(seed)
        self.ops = 0
        self.setup_times: list[float] = []
        self.scaled: dict[str, list[float]] = {"op": [], "setup": []}
        self.probe_s: list[float] = []

    def instrument(self, tracer: Tracer) -> None:
        self.tracer = tracer
        instrument(tracer)

    def run(self, seconds: float) -> list[float]:
        self.setup_times = []
        self.scaled = {"op": [], "setup": []}
        self.probe_s = []
        return collect(seconds, 1, self._next_op)

    def _next_op(self) -> float | None:
        self.load(self.order[self.ops % len(self.order)])
        if self.tracer is not None:
            self.tracer.run_id = f"op{self.ops}"
        self.ops += 1
        with PROBE.window() as window:
            seconds = self.op()
        if window.samples and seconds is not None:
            self.scaled["op"].append(window.scale(seconds))
            self.probe_s.append(window.kernel_s)
        if self.tracer is not None:
            self.tracer.run_id = "setup"
        with PROBE.window() as window:
            reps = [timed(self.setup)[0] for _ in range(self.SETUP_REPS)]
        self.setup_times += reps
        if window.samples:
            self.scaled["setup"] += [window.scale(r) for r in reps]
        return seconds

    def setup_seconds(self) -> list[float]:
        return self.setup_times

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process, which ran the whole workload."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
