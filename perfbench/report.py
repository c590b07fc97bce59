"""Print every metric of every workload by name, with its unit, and whether
every output matched its pinned value.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs twice in a fresh process: untraced for the end-to-end
metrics, traced for the per-layer ones. Exits 1 if any output was wrong.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, ROOT
from run import WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail_line, result_line = proc.stdout.splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    print(f"{'workload':<14} {'metric':<26} {'value':>14}  unit")
    verdicts = []
    for workload in WORKLOADS:
        detail, result = run_once(workload, args.seed, args.seconds, 0)
        rows = dict(detail["named"])
        rows.update({k: v for k, v in result["metrics"].items() if k not in rows})
        traced_detail, traced = run_once(workload, args.seed, args.seconds, 1)
        skipped = set(traced_detail["not_exercised"])
        rows.update({k: v for k, v in traced["metrics"].items() if k not in skipped})
        for name, metric in rows.items():
            print(f"{workload:<14} {name:<26} {metric['value']:>14.6g}  {metric['unit']}")
        if skipped:
            print(f"{workload:<14} not exercised: {', '.join(sorted(skipped))}")
        verdicts.append((
            workload,
            result["correct"] and traced["correct"],
            result["failed"] + traced["failed"],
            result["attempted"] + traced["attempted"],
        ))
        for problem in detail["problems"] + traced_detail["problems"]:
            print(f"{workload:<14} mismatch: {problem}")
    env = detail["env"]
    print(f"env: python {env['python']}, nproc {env['nproc']}, {env['platform']}, "
          f"commit {env['git_commit']}, seed {args.seed}")
    correct = all(ok for _, ok, _, _ in verdicts)
    print("verdict:", "correct" if correct else "WRONG OUTPUT", "-", ", ".join(
        f"{w} fail_ratio {failed}/{attempted}" for w, _, failed, attempted in verdicts
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
