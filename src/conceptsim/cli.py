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
from typing import TYPE_CHECKING

from .errors import ConceptNetError, ParseError, SchemaMismatch, UnknownElement

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
    """The ids of comma-separated names, none for "": an empty name among
    others is unknown. The oracle refuses names above layer 0, so an unknown
    name wins over one above layer 0."""
    ids = set()
    for name in text.split(",") if text else ():
        cid = net.name_to_id.get(name)
        if cid is None:
            raise UnknownElement(f"no concept named {name!r}")
        ids.add(cid)
    return frozenset(ids)


def _braces(names) -> str:
    return "{" + ", ".join(names) + "}"


def _sorted_names(net: ValidatedNetwork, ids) -> list[str]:
    return sorted(net.names[c] for c in ids)


def _print_result(args, payload, text) -> None:
    """Print a command's result once built: the payload itself under
    --format json, else the lines text(payload) derives from it."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text(payload):
            print(line)


def _validate_text(shape):
    yield (
        f"{shape['concepts']} concepts, {shape['layers']} layers, "
        f"{shape['patterns']} patterns, {len(shape['warnings'])} warnings"
    )
    for warning in shape["warnings"]:
        yield f"warning: {warning}"


def cmd_validate(args) -> int:
    net = _load_network(args.network)
    shape = {
        "concepts": net.n_concepts,
        "layers": len(net.layers),
        "patterns": sum(len(ps) for ps in net.patterns),
        "warnings": list(net.warnings),
    }
    _print_result(args, shape, _validate_text)
    return 0


def _run_text(result):
    for phase in result["phases"]:
        detail = ", ".join(f"{name}: {verdict}" for name, verdict in phase["verdicts"].items())
        yield f"phase {phase['phase']}: {detail}"


def cmd_run(args) -> int:
    from .engine import read_verdicts, run_scenario
    from .io import parse_scenario_file
    from .trace import render_ascii_timeline, write_trace_csv

    net = _load_network(args.network)
    scenario = parse_scenario_file(_read(args.scenario), net)
    params = _load_params(args.params)
    trace = run_scenario(net, params, scenario.resolve(net))
    phases = []
    for i, phase in enumerate(trace.phases):
        verdicts = read_verdicts(trace, i)
        phases.append({
            "phase": i + 1,
            "termination": phase.termination.value,
            "sweeps": len(phase.snapshots),
            # in net.non_bottom order, which the text keeps
            "verdicts": {net.names[c]: verdicts[c].value for c in net.non_bottom},
        })
    result = {"phases": phases}
    if args.render:
        # a network without concepts has no timeline to draw
        result["timeline"] = render_ascii_timeline(trace).split("\n") if net.n_concepts else []
    _print_result(args, result, _run_text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as f:
            f.write(write_trace_csv(trace))
    if args.render and args.format == "text":
        for line in result["timeline"]:
            print(line)
    return 0


def _check_text(concepts):
    for name, concept in concepts.items():
        yield f"{name}: {concept['verdict']}"
        for k, pat in enumerate(concept["patterns"]):
            line = f"  pattern {k} {_braces(pat['elements'])}: {pat['state']}"
            if pat["state"] == "ApplicableIncomplete":
                line += f", missing: {', '.join(pat['missing'])}"
            yield line


def cmd_check(args) -> int:
    from .model import pattern_state
    from .oracle import oracle_verdicts

    net = _load_network(args.network)
    active = _resolve_active(net, args.active)
    verdicts = oracle_verdicts(net, active)
    concepts = {
        net.names[c]: {
            "verdict": verdicts[c].value,
            "patterns": [
                {
                    "elements": _sorted_names(net, pat.elements),
                    "state": (state := pattern_state(pat, active)).status.value,
                    "missing": _sorted_names(net, state.missing),
                }
                for pat in net.patterns_of(c)
            ],
        }
        for c in net.non_bottom
    }
    _print_result(args, concepts, _check_text)
    return 0


def _enumerate_text(interpretations):
    for r in interpretations:
        yield _braces(r["interpretation"]) + ("*" if r["maximal"] else "")


def cmd_enumerate(args) -> int:
    from .oracle import enumerate_interpretations

    net = _load_network(args.network)
    active = _resolve_active(net, args.active)
    interpretations = [
        {"interpretation": _sorted_names(net, r.interpretation), "maximal": r.maximal}
        for r in enumerate_interpretations(net, active)
    ]
    _print_result(args, interpretations, _enumerate_text)
    return 0


def _compare_text(report):
    yield (
        f"{report['cases']} cases: AGREE {report['agree']}, "
        f"TIE-SELECTED {report['tie_selected']}, DISAGREE {report['disagree']}"
    )
    for case in report["disagreements"]:
        inferred = "unstable" if case["inferred"] is None else _braces(case["inferred"])
        maximal = "[" + ", ".join(map(_braces, case["oracle_maximal"])) + "]"
        yield f"DISAGREE clamp={_braces(case['clamp'])}: dynamics={inferred} oracle_maximal={maximal}"


def cmd_compare(args) -> int:
    from .compare import Agreement, compare_with_oracle

    net = _load_network(args.network)
    params = _load_params(args.params)
    report = compare_with_oracle(net, params)
    result = {
        "cases": sum(map(report.count, Agreement)),
        "agree": report.count(Agreement.AGREE),
        "tie_selected": report.count(Agreement.TIE_SELECTED),
        "disagree": report.count(Agreement.DISAGREE),
        "disagreements": [
            {
                "clamp": _sorted_names(net, case.clamp),
                "termination": case.termination.value,
                "inferred": None if case.inferred is None else _sorted_names(net, case.inferred),
                "oracle_maximal": [_sorted_names(net, m) for m in case.maximal],
            }
            for case in report.disagreements
        ],
    }
    _print_result(args, result, _compare_text)
    return 1 if args.strict and result["disagree"] else 0


def cmd_render(args) -> int:
    from .trace import read_trace_csv, render_ascii_timeline

    # newline="" keeps a \r inside a quoted name, as csv.reader needs
    rows = read_trace_csv(_read(args.trace, newline=""))
    if not rows:
        raise SchemaMismatch(f"{args.trace}: no trace rows after the header")
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
