"""In-memory spans recorded around calls into the program's public functions.

The program itself carries no instrumentation. A Tracer replaces public
functions and Engine methods with wrappers for the duration of a traced run
and puts them back afterwards. Spans stay in memory; the caller writes them
out once the run has ended.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (run id, name) -> summed count, recorded at the same boundaries as spans
        self.counts: dict[tuple[str, str], int] = {}
        self.run_id = ""
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # reserve the slot so children point at it
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def patch(self, owner: object, attr: str, name: str, count=None) -> None:
        """Wrap owner.attr so every call records a span called `name`, and adds
        count(result) to the counter `name` when `count` is given."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                key = (self.run_id, name)
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Overlapping children are counted once, and a child reaching past its
    parent counts only inside the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


@dataclass
class Stat:
    """All spans of one name within one run id."""

    durations: list[float] = field(default_factory=list)
    self_total: float = 0.0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total(self) -> float:
        return sum(self.durations)


def summarize(spans: list[Span]) -> dict[str, dict[str, Stat]]:
    """run id -> span name -> Stat."""
    out: dict[str, dict[str, Stat]] = {}
    for s, own in zip(spans, self_times(spans)):
        stat = out.setdefault(s.run_id, {}).setdefault(s.name, Stat())
        stat.durations.append(s.duration)
        stat.self_total += own
    return out
