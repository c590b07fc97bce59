"""Benchmark entry point for conceptsim.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its `src/`.
The load is a closed loop in this one process: library calls run one after
another, CLI calls one child process at a time. With --trace 0 the last line
of standard output holds the end-to-end metrics of BENCHMARK.json; with
--trace 1 it holds the per-layer metrics, from a run that first measures
untraced for half the time and then traced for the other half. The line
before it is a detail record: environment, workload shape, seed, the
workload's own named metrics and any output that differed from the pins.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import layers
from cli_small import interpreter_probes
from common import OUT, ROOT, SRC, Checker, median
from spans import Tracer, summarize
from speed import PROBE

WORKLOADS = {
    "compare-synth": "compare_synth",
    "run-large": "run_large",
    "cli-small": "cli_small",
}


def load_program() -> None:
    """Import conceptsim from this checkout's src/, or stop without a result."""
    init = SRC / "conceptsim" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: program source not found: {init.relative_to(ROOT)} is missing")
    sys.path.insert(0, str(SRC))
    import conceptsim

    if Path(conceptsim.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: conceptsim was imported from {conceptsim.__file__}, not {init}")


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    """Identifies the program when there is no git commit to name it."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "conceptsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "seed": seed,
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_calls", "count"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def untraced(work, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics: medians of the times rescaled to the reference host
    speed (speed.py). The raw wall-time medians go to the detail record."""
    PROBE.enabled = True
    try:
        op_times = work.run(seconds)
    finally:
        PROBE.enabled = False
    setup_times = work.setup_seconds()
    named = work.named(op_times, setup_times)
    named["host_probe_ms"] = 1000 * median(work.probe_s)
    metrics = {
        "setup_s": median(work.scaled["setup"]),
        "latency_ms": 1000 * median(work.scaled["op"]),
        "peak_rss_mb": named["peak_rss_mb"],
    }
    samples = {"op_s": op_times, "setup_s": setup_times, "probe_s": work.probe_s}
    samples.update({f"scaled_{k}_s": v for k, v in work.scaled.items()})
    return metrics, named, samples


def traced(work, seconds: float, spans_path: Path) -> tuple[dict, dict, dict]:
    probes = interpreter_probes()  # first, so no workload's heap is around yet
    base = work.run(seconds / 2)
    named = work.named(base, work.setup_seconds())
    tracer = Tracer()
    work.instrument(tracer)
    try:
        with_spans = work.run(seconds / 2)
    finally:
        tracer.restore()
    spans_path.write_text(
        json.dumps({"spans": tracer.as_records(), "counts": [list(k) + [v] for k, v in tracer.counts.items()]}),
        encoding="utf-8",
    )
    per_run = summarize(tracer.spans)
    setup_stats = per_run.pop("setup", None)
    counts: dict[str, dict[str, int]] = {}
    for (run_id, name), value in tracer.counts.items():
        counts.setdefault(run_id, {})[name] = value
    metrics = work.layer_metrics(per_run, counts)
    if setup_stats is not None:
        metrics.update(layers.setup_metrics(setup_stats))
    metrics.update(probes)
    metrics["trace.untraced_op_s"] = median(base)
    metrics["trace.traced_op_s"] = median(with_spans)
    metrics["trace.overhead_s"] = median(with_spans) - median(base)
    metrics["trace.spans"] = len(tracer.spans)
    return metrics, named, {"untraced_op_s": base, "traced_op_s": with_spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_program()
    module = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checker = Checker()
    work = module.Work(args.seed, checker)
    try:
        if args.trace:
            metrics, named, samples = traced(work, args.seconds, OUT / f"spans-{stem}.json")
        else:
            metrics, named, samples = untraced(work, args.seconds)
    finally:
        if hasattr(work, "close"):
            work.close()

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {unknown}")
    # a layer this workload does not exercise reads 0 and is listed as such
    not_exercised = sorted(set(declared) - set(metrics))
    named["fail_ratio"] = checker.failed / checker.attempted if checker.attempted else 1.0
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "shape": work.shape,
        "named": {k: {"value": v, "unit": unit_of(k)} for k, v in named.items()},
        "not_exercised": not_exercised,
        "problems": checker.problems,
        "samples": samples,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": checker.attempted > 0 and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
