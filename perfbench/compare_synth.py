"""compare-synth: compare_with_oracle with default params on a seeded 3-layer
network of 7/5/3 concepts, i.e. 128 clamp cases of 256 candidate
interpretations each. One operation is one compare call; its 128 cases are
checked against the pinned classification and inferred set."""
from __future__ import annotations

import layers
import synth
from common import Checker, load_pins, median, timed
from conceptsim import engine, io, model

SIZES = (7, 5, 3)
PARAMS_TEXT = "{}"
#: pattern_state calls replayed for model.pattern_state_ns: every pattern
#: against the active sets of every clamp and every STRIDE-th interpretation
STRIDE = 8


def encode(net: model.ValidatedNetwork, report: engine.AgreementReport) -> list[str]:
    """One token per case: clamp mask, classification letter, inferred mask
    ('--' when the run did not converge), masks over layer-0 and non-bottom
    ids in id order."""
    def mask(ids, within) -> int:
        return sum(1 << i for i, c in enumerate(within) if c in ids)

    return [
        f"{mask(case.clamp, net.bottom):02x}{case.classification.name[0]}"
        + ("--" if case.inferred is None else f"{mask(case.inferred, net.non_bottom):02x}")
        for case in report.cases
    ]


def check_cases(checker: Checker, got: list[str], pinned: list[str]) -> None:
    for i in range(max(len(got), len(pinned))):
        checker.check(
            f"case {i}",
            got[i] if i < len(got) else None,
            pinned[i] if i < len(pinned) else None,
        )


class Work(layers.LibraryWork):
    SETUP_REPS = 100

    def __init__(self, seed: int, checker: Checker) -> None:
        super().__init__(seed)
        self.pins = load_pins()["compare-synth"]
        self.checker = checker
        self.load(self.order[0])
        self.shape = {
            "sizes": list(SIZES),
            "instance_order": self.order,
            "clamp_cases": 1 << len(self.net.bottom),
            "candidates_per_case": 1 << len(self.net.non_bottom),
            "patterns": sum(len(p) for p in self.net.patterns),
        }

    def load(self, instance: int) -> None:
        self.instance = instance
        self.net_text = synth.network_json(SIZES, instance)
        self.pinned = self.pins[str(instance)].split()
        self.net, self.params = self.setup()

    def setup(self):
        net = model.validate_network(io.parse_network_file(self.net_text))
        return net, io.parse_params(PARAMS_TEXT)

    def op(self) -> float | None:
        try:
            seconds, report = timed(engine.compare_with_oracle, self.net, self.params)
        except Exception as error:  # a failing call is a counted failure, not a crash
            self.checker.raised("compare_with_oracle", len(self.pinned), error)
            return None
        check_cases(self.checker, encode(self.net, report), self.pinned)
        return seconds

    def named(self, op_times: list[float], setup_times: list[float]) -> dict[str, float]:
        return {
            "setup_s": median(setup_times),
            "compare_s": median(op_times),
            "compare_calls": len(op_times),
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def layer_metrics(self, per_op, counts) -> dict[str, float]:
        candidates = self.shape["clamp_cases"] * self.shape["candidates_per_case"]
        out = layers.median_of([
            layers.op_metrics(stats, counts.get(run_id, {}), candidates)
            for run_id, stats in per_op.items()
        ])
        out["model.pattern_state_ns"] = self.pattern_state_ns()
        return out

    def pattern_state_ns(self) -> float:
        """Per-call time of pattern_state over a fixed sample of this workload's
        (pattern, active set) pairs."""
        net, tau = self.net, self.params.tau
        bottom, upper = net.bottom, net.non_bottom
        patterns = [p for ps in net.patterns for p in ps]
        pairs = []
        for clamp in range(1 << len(bottom)):
            clamped = {c for i, c in enumerate(bottom) if clamp >> i & 1}
            for interp in range(0, 1 << len(upper), STRIDE):
                active = frozenset(clamped | {c for i, c in enumerate(upper) if interp >> i & 1})
                pairs.extend((p, active) for p in patterns)
        pattern_state = model.pattern_state
        seconds, _ = timed(lambda: [pattern_state(p, a, tau) for p, a in pairs])
        return seconds / len(pairs) * 1e9
