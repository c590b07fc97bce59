"""Steadiness check: run workloads over several seeds, one run at a time, and
print each end-to-end metric's median and spread (the distance between the
first and third quartile as a share of the median) next to its bound.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds S] [--workload W ...]
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT
from run import WORKLOADS


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or list(WORKLOADS):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        longest = 0.0
        for seed in seeds_of(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            longest = max(longest, time.perf_counter() - start)
            if proc.returncode != 0:
                raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            mid = statistics.median(vals)
            print(f"{workload:<14} {name:<12} median {mid:<12.6g} spread {(q3 - q1) / mid:.3f}"
                  f"  bound {bounds[name]}", flush=True)
        print(f"{workload:<14} longest run  {longest:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
