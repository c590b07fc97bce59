"""Host speed, sampled next to and during every timed operation.

The reference machine is a 2-vCPU VM on a shared host whose speed drifts by
up to 1.5x for minutes at a time. No statistic of raw wall times removes a
drift that lasts a whole run, so the end-to-end times are rescaled to a fixed
host speed, measured by a probe that uses none of the program's code.

In-process operations: a small pure-Python kernel is timed right before and
right after each timed window, and every TICK_S seconds within it from a
SIGALRM handler, so that the samples see the same core at the same moments
as the program does. A window's speed is the median of its kernel times, and

    scaled = wall time * REFERENCE_KERNEL_S / window's kernel time

is the time the operation would take with the kernel running at
REFERENCE_KERNEL_S, about what the reference machine gives at its usual speed.
Kernel time spent inside the handler is subtracted from the operation's wall
time. The kernel runs with the garbage collector off, so the program's heap
does not leak into the samples.

CLI calls: the probe is an interpreter that imports the standard-library
modules the CLI imports (cli_small.START_PROBE), run right before and right
after each call, and the reference is REFERENCE_START_S. Start-up work
(exec, site, imports) tracks such a start far better than it tracks the
kernel.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

#: median kernel time on the reference machine (2 vCPU Intel Xeon, 2.1 GHz,
#: Python 3.11.7)
REFERENCE_KERNEL_S = 0.0017
#: median wall time of cli_small.START_PROBE on the reference machine, likewise
REFERENCE_START_S = 0.080
TICK_S = 0.05
_BASE = frozenset(range(0, 60, 3))


def kernel() -> float:
    """Seconds taken by a fixed mix of dict, frozenset and integer work."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict[int, int] = {}
    hits = 0
    for i in range(2000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        hits += len(_BASE & frozenset((i % 60, (i + 3) % 60, (i + 7) % 60)))
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Window:
    """Kernel samples of one timed window."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    @property
    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_KERNEL_S / self.kernel_s


class Probe:
    """Samples host speed in windows; `spent` is the kernel time run from the
    signal handler so far, which timers inside a window subtract."""

    def __init__(self) -> None:
        self.enabled = False
        self.spent = 0.0
        self._window: Window | None = None

    def _tick(self, signum, frame) -> None:
        seconds = kernel()
        self._window.samples.append(seconds)
        self.spent += seconds

    @contextmanager
    def window(self, ticks: bool = True):
        """Sample before and after the block, and every TICK_S within it if
        `ticks`. Yields the Window; an empty one when the probe is off."""
        window = Window()
        if not self.enabled:
            yield window
            return
        window.samples.append(kernel())
        self._window = window
        previous = signal.getsignal(signal.SIGALRM)
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield window
        finally:
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._window = None
            window.samples.append(kernel())


#: the one probe of this process; run.py turns it on for untraced runs
PROBE = Probe()
