"""Regenerate pins.json: the correct outputs of every generated instance, as the
program in src/ produces them now.

    python3 perfbench/pin.py

Run it only when the program's outputs change on purpose; the benchmark checks
every run against these values, so re-pinning after an accidental change would
hide the change.
"""
from __future__ import annotations

import json
import sys
import tempfile

from common import PINS, POOL
from run import load_program, src_sha256


def main() -> int:
    load_program()
    import cli_small
    import compare_synth
    import run_large
    import synth
    from conceptsim import engine, io, model

    pins: dict = {"made_from": src_sha256(), "pool": POOL}
    pins["compare-synth"] = {}
    pins["run-large"] = {}
    for instance in range(POOL):
        net = model.validate_network(io.parse_network_file(
            synth.network_json(compare_synth.SIZES, instance)
        ))
        report = engine.compare_with_oracle(net, io.parse_params(compare_synth.PARAMS_TEXT))
        pins["compare-synth"][str(instance)] = " ".join(compare_synth.encode(net, report))

        net = model.validate_network(io.parse_network_file(
            synth.network_json(run_large.SIZES, instance)
        ))
        scenario = io.parse_scenario_file(
            synth.scenario_json(run_large.SIZES[0], instance, run_large.HOLD), net
        )
        trace = engine.run_scenario(net, io.parse_params(run_large.PARAMS_TEXT), scenario.resolve(net))
        pins["run-large"][str(instance)] = {
            "phases": [
                run_large.phase_digest(trace, i, engine.read_verdicts(trace, i))
                for i in range(len(trace.phases))
            ],
            "csv": run_large.csv_digest(io.write_trace_csv(trace)),
        }
        print(f"instance {instance} pinned", file=sys.stderr)

    env = cli_small.child_env()
    cli_small.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cli_small.OUT) as tmp_dir:
        trace_path = f"{tmp_dir}/trace.csv"
        pins["cli-small"] = {
            cli_small.call_key(call): cli_small.outcome(cli_small.run_call(call, trace_path, env)[1])
            for call in cli_small.MIX
        }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
