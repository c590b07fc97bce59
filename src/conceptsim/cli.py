"""Command-line surface: validate networks, run scenarios, query the oracle,
compare oracle and dynamics, and render traces.

Exit codes: 0 success, 1 domain error (validation failure, unknown element,
size limit, or a strict comparison that found disagreements), 2 usage or
parse error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConceptNetError, ParseError, UnknownElement

# Each command imports the modules it runs, so a one-shot call loads no more
# of the package than it needs.
if TYPE_CHECKING:
    from .engine import EngineParams
    from .model import ValidatedNetwork


def _read(path: str, newline: str | None = None) -> str:
    """An input file's text. Input files are UTF-8; any other bytes are a
    ParseError that names the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None


def _load_network(path: str) -> ValidatedNetwork:
    from .io import parse_network_file
    from .model import validate_network

    return validate_network(parse_network_file(_read(path)))


def _load_params(path: str | None) -> EngineParams:
    from .io import parse_params

    return parse_params(None if path is None else _read(path))


def _resolve_active(net: ValidatedNetwork, text: str) -> frozenset[int]:
    """The ids of comma-separated names. The oracle refuses names above
    layer 0, so an unknown name wins over one above layer 0."""
    ids = set()
    for name in filter(None, text.split(",")):
        cid = net.name_to_id.get(name)
        if cid is None:
            raise UnknownElement(f"no concept named {name!r}")
        ids.add(cid)
    return frozenset(ids)


def _set_names(net: ValidatedNetwork, ids) -> str:
    return "{" + ", ".join(sorted(net.names[c] for c in ids)) + "}"


def cmd_validate(args) -> int:
    net = _load_network(args.network)
    n_patterns = sum(len(ps) for ps in net.patterns)
    if args.format == "json":
        print(json.dumps(
            {
                "concepts": net.n_concepts,
                "layers": len(net.layers),
                "patterns": n_patterns,
                "warnings": list(net.warnings),
            },
            sort_keys=True, indent=2,
        ))
    else:
        print(
            f"{net.n_concepts} concepts, {len(net.layers)} layers, "
            f"{n_patterns} patterns, {len(net.warnings)} warnings"
        )
        for warning in net.warnings:
            print(f"warning: {warning}")
    return 0


def cmd_run(args) -> int:
    from .engine import read_verdicts, run_scenario
    from .io import parse_scenario_file, render_ascii_timeline, write_trace_csv

    net = _load_network(args.network)
    scenario = parse_scenario_file(_read(args.scenario), net)
    params = _load_params(args.params)
    trace = run_scenario(net, params, scenario.resolve(net))
    if args.format == "json":
        payload = []
        for i, phase in enumerate(trace.phases):
            verdicts = read_verdicts(trace, i)
            payload.append(
                {
                    "phase": i + 1,
                    "termination": phase.termination.value,
                    "sweeps": len(phase.snapshots),
                    "verdicts": {net.names[c]: verdicts[c].value for c in net.non_bottom},
                }
            )
        print(json.dumps({"phases": payload}, sort_keys=True, indent=2))
    else:
        for i, _ in enumerate(trace.phases):
            verdicts = read_verdicts(trace, i)
            detail = ", ".join(f"{net.names[c]}: {verdicts[c].value}" for c in net.non_bottom)
            print(f"phase {i + 1}: {detail}")
    if args.trace:
        Path(args.trace).write_text(write_trace_csv(trace), encoding="utf-8", newline="")
    if args.render:
        print(render_ascii_timeline(trace))
    return 0


def cmd_check(args) -> int:
    from .model import pattern_state
    from .oracle import oracle_verdicts

    net = _load_network(args.network)
    active = _resolve_active(net, args.active)
    verdicts = oracle_verdicts(net, active)
    if args.format == "json":
        payload = {}
        for c in net.non_bottom:
            payload[net.names[c]] = {
                "verdict": verdicts[c].value,
                "patterns": [
                    {
                        "elements": sorted(net.names[e] for e in pat.elements),
                        "state": pattern_state(pat, active).status.value,
                        "missing": sorted(net.names[e] for e in pat.elements - active),
                    }
                    for pat in net.patterns_of(c)
                ],
            }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for c in net.non_bottom:
            print(f"{net.names[c]}: {verdicts[c].value}")
            for k, pat in enumerate(net.patterns_of(c)):
                state = pattern_state(pat, active)
                line = f"  pattern {k} {_set_names(net, pat.elements)}: {state.status.value}"
                if state.applicable and not state.complete:
                    missing = sorted(net.names[e] for e in pat.elements - active)
                    line += f", missing: {', '.join(missing)}"
                print(line)
    return 0


def cmd_enumerate(args) -> int:
    from .oracle import enumerate_interpretations

    net = _load_network(args.network)
    active = _resolve_active(net, args.active)
    reports = enumerate_interpretations(net, active)
    if args.format == "json":
        payload = [
            {
                "interpretation": sorted(net.names[c] for c in r.interpretation),
                "maximal": r.maximal,
            }
            for r in reports
        ]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for r in reports:
            star = "*" if r.maximal else ""
            print(f"{_set_names(net, r.interpretation)}{star}")
    return 0


def cmd_compare(args) -> int:
    from .engine import Agreement, compare_with_oracle

    net = _load_network(args.network)
    params = _load_params(args.params)
    report = compare_with_oracle(net, params)
    agree = report.count(Agreement.AGREE)
    tie = report.count(Agreement.TIE_SELECTED)
    disagree = report.count(Agreement.DISAGREE)
    if args.format == "json":
        print(json.dumps(
            {
                "cases": len(report.cases),
                "agree": agree,
                "tie_selected": tie,
                "disagree": disagree,
                "disagreements": [
                    {
                        "clamp": sorted(net.names[c] for c in case.clamp),
                        "termination": case.termination.value,
                        "inferred": None if case.inferred is None
                        else sorted(net.names[c] for c in case.inferred),
                        "oracle_maximal": [
                            sorted(net.names[c] for c in m) for m in case.maximal
                        ],
                    }
                    for case in report.disagreements
                ],
            },
            sort_keys=True, indent=2,
        ))
    else:
        print(f"{len(report.cases)} cases: AGREE {agree}, TIE-SELECTED {tie}, DISAGREE {disagree}")
        for case in report.disagreements:
            inferred = "unstable" if case.inferred is None else _set_names(net, case.inferred)
            maximal = "[" + ", ".join(_set_names(net, m) for m in case.maximal) + "]"
            print(
                f"DISAGREE clamp={_set_names(net, case.clamp)}: "
                f"dynamics={inferred} oracle_maximal={maximal}"
            )
    if args.strict and disagree:
        return 1
    return 0


def cmd_render(args) -> int:
    from .io import read_trace_csv, render_ascii_timeline

    # newline="" keeps a \r inside a quoted name, as csv.reader needs
    rows = read_trace_csv(_read(args.trace, newline=""))
    print(render_ascii_timeline(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptsim",
        description="Simulate and query concept networks built from conditional bistable patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file and print its shape")
    p.add_argument("network")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a clamp scenario and print per-phase verdicts")
    p.add_argument("network")
    p.add_argument("scenario")
    p.add_argument("--params", default=None)
    p.add_argument("--trace", default=None, help="write the trace CSV to this path")
    p.add_argument("--render", action="store_true", help="print an ASCII timeline")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="oracle verdicts plus per-pattern detail for one active set")
    p.add_argument("network")
    p.add_argument("--active", default="", help="comma-separated layer-0 names")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list all consistent interpretations (maximal starred)")
    p.add_argument("network")
    p.add_argument("--active", default="", help="comma-separated layer-0 names")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("compare", help="exhaustively compare dynamics against the oracle")
    p.add_argument("network")
    p.add_argument("--params", default=None)
    p.add_argument("--strict", action="store_true", help="exit 1 on any DISAGREE")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("render", help="render a trace CSV as an ASCII timeline")
    p.add_argument("trace")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConceptNetError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
