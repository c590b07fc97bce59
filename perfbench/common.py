"""Paths, pinned outputs, the correctness counter and small statistics shared by
the workloads."""
from __future__ import annotations

import gc
import json
import random
import statistics
import time
from pathlib import Path
from typing import Callable

from speed import PROBE

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"

#: a run cycles through the POOL generated instances in an order drawn from
#: `--seed`, one instance per operation; pins.json holds the correct outputs
#: of every instance, so any seed can be checked.
POOL = 32


def instance_order(seed: int) -> list[int]:
    return random.Random(seed).sample(range(POOL), POOL)


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


class Checker:
    """Counts operations, and those that raised or differ from the pinned value."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self._fail(f"{what}: got {got!r}, pinned {want!r}")

    def raised(self, what: str, operations: int, error: BaseException) -> None:
        self.attempted += operations
        self._fail(f"{what}: raised {type(error).__name__}: {error}", operations)

    def _fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def timed(fn: Callable, *args):
    """(seconds, result) of one call, after a full collection so that garbage
    left by earlier calls is not charged to this one. Time the speed probe's
    signal handler spent inside the call is not charged either."""
    gc.collect()
    spent = PROBE.spent
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start - (PROBE.spent - spent), result


def collect(seconds: float, minimum: int, step: Callable[[], float | None]) -> list[float]:
    """Call step() until `seconds` have passed and it ran at least `minimum`
    times; return the timings it gave (None marks an operation that failed)."""
    deadline = time.perf_counter() + seconds
    out: list[float] = []
    calls = 0
    while calls < minimum or time.perf_counter() < deadline:
        seconds_taken = step()
        calls += 1
        if seconds_taken is not None:
            out.append(seconds_taken)
    return out


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """90th percentile; only meaningful with 100 or more samples."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else median(values)
