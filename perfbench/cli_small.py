"""cli-small: a fixed mix of one-shot CLI calls on the shipped data, run as
`python -m conceptsim.cli` with src on PYTHONPATH, one child process at a time.
Every call pays interpreter start-up and the import, as a user's call does.
One operation is one call; its exit code and stdout are checked against the
pinned values. The seed only shuffles the order of the calls in each round."""
from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import time

from common import OUT, ROOT, SRC, Checker, collect, load_pins, median, p90
from speed import PROBE, REFERENCE_START_S

#: {trace} stands for a CSV path inside the run's temporary directory; `run`
#: writes it during set-up and again in every round, `render` reads it.
MIX = (
    ("validate", "data/caramel.json"),
    ("run", "data/salt.json", "data/scenarios/salt_rejection.json", "--render", "--trace", "{trace}"),
    ("run", "data/salt.json", "data/scenarios/decoupling.json", "--format", "json"),
    ("check", "data/salt.json", "--active", "looking,white,tasting"),
    ("enumerate", "data/caramel.json", "--active", "tasting,salty"),
    ("compare", "data/salt.json", "--strict"),
    ("compare", "data/caramel.json", "--format", "json", "--strict"),
    ("render", "{trace}"),
)
COMMANDS = ("validate", "run", "check", "enumerate", "compare", "render")
#: 13 rounds of 8 calls: at least 100 calls, so p90 has 10 samples beyond it
MIN_ROUNDS = 13
PROBES = 10
#: the host-speed probe for CLI calls (speed.py): the standard-library modules
#: conceptsim.cli imports, without conceptsim itself
START_PROBE = "import argparse, csv, dataclasses, enum, fractions, io, json, pathlib, typing"
CALL_TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def call_key(call: tuple[str, ...]) -> str:
    return " ".join(call)


def run_call(call: tuple[str, ...], trace_path, env) -> tuple[float, subprocess.CompletedProcess]:
    argv = [sys.executable, "-m", "conceptsim.cli"]
    argv += [str(trace_path) if a == "{trace}" else a for a in call]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S
    )
    return time.perf_counter() - start, proc


def outcome(proc: subprocess.CompletedProcess) -> dict:
    return {"exit": proc.returncode, "stdout": proc.stdout}


def wall_s(code: str, env: dict[str, str]) -> float:
    """Wall time of `python -c code`. The output is captured so that the wait
    ends when the child's pipes close, not at a polling step."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, check=True,
        timeout=CALL_TIMEOUT_S,
    )
    return time.perf_counter() - start


def interpreter_probes() -> dict[str, float]:
    """cli.interp_ms: a bare interpreter start (environment context, not program
    time). cli.import_ms: `import conceptsim.cli` on top of that."""
    env = child_env()
    interp = 1000 * median([wall_s("pass", env) for _ in range(PROBES)])
    imported = 1000 * median([wall_s("import conceptsim.cli", env) for _ in range(PROBES)])
    return {"cli.interp_ms": interp, "cli.import_ms": imported - interp}


class Work:
    def __init__(self, seed: int, checker: Checker) -> None:
        self.rng = random.Random(seed)
        self.pinned = load_pins()["cli-small"]
        self.checker = checker
        self.env = child_env()
        self.tracer = None
        self.tmp_dir = OUT / f"cli-{os.getpid()}"
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        self.trace_path = self.tmp_dir / "trace.csv"
        self.call_times: list[float] = []
        self.by_command: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.scaled: dict[str, list[float]] = {"op": [], "setup": []}
        self.probe_s: list[float] = []
        self.last_start_s = 0.0
        self.shape = {"mix": [call_key(c) for c in MIX], "min_calls": MIN_ROUNDS * len(MIX)}
        # set-up: write the trace that `render` reads, in case it comes first
        run_call(MIX[1], self.trace_path, self.env)

    def close(self) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)

    def instrument(self, tracer) -> None:
        self.tracer = tracer

    def call(self, call: tuple[str, ...]) -> None:
        key = call_key(call)
        if self.tracer is not None:
            self.tracer.run_id = f"call{len(self.call_times)}"
            with self.tracer.span(f"cli.{call[0]}"):
                self._call(call, key)
        else:
            self._call(call, key)

    def _call(self, call: tuple[str, ...], key: str) -> None:
        try:
            seconds, proc = run_call(call, self.trace_path, self.env)
        except subprocess.TimeoutExpired as error:
            self.checker.raised(key, 1, error)
            return
        self.checker.check(key, outcome(proc), self.pinned[key])
        self.call_times.append(seconds)
        self.by_command[call[0]].append(seconds)
        if PROBE.enabled:
            self.scale(call, seconds)

    def scale(self, call: tuple[str, ...], seconds: float) -> None:
        """Rescale a call by the START_PROBE runs right before and right after
        it (see speed.py)."""
        start_s = wall_s(START_PROBE, self.env)
        window_s = (self.last_start_s + start_s) / 2
        self.last_start_s = start_s
        scaled = seconds * REFERENCE_START_S / window_s
        self.scaled["op"].append(scaled)
        if call[0] == "validate":
            self.scaled["setup"].append(scaled)
        self.probe_s.append(window_s)

    def round(self) -> None:
        calls = list(MIX)
        self.rng.shuffle(calls)
        for call in calls:
            self.call(call)

    def run(self, seconds: float) -> list[float]:
        self.call_times = []
        self.by_command = {c: [] for c in COMMANDS}
        self.scaled = {"op": [], "setup": []}
        self.probe_s = []
        if PROBE.enabled:
            self.last_start_s = wall_s(START_PROBE, self.env)
        collect(seconds, MIN_ROUNDS, self.round)
        return self.call_times

    def setup_seconds(self) -> list[float]:
        """The validate calls: the fixed cost every invocation pays."""
        return self.by_command["validate"]

    def named(self, op_times: list[float], setup_times: list[float]) -> dict[str, float]:
        return {
            "setup_s": median(setup_times),
            "cli_p50_ms": 1000 * median(op_times),
            "cli_p90_ms": 1000 * p90(op_times),
            "cli_calls": len(op_times),
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def peak_rss_mb(self) -> float:
        """The largest peak resident memory of any child process so far."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6

    def layer_metrics(self, per_op, counts) -> dict[str, float]:
        durations: dict[str, list[float]] = {c: [] for c in COMMANDS}
        for stats in per_op.values():
            for name, stat in stats.items():
                durations[name.removeprefix("cli.")].extend(stat.durations)
        return {f"cli.{c}_p50_ms": 1000 * median(d) for c, d in durations.items()}
