"""Command-line surface: validate networks, run scenarios, query the oracle,
compare oracle and dynamics, and render traces.

Exit codes: 0 success, 1 domain error (validation failure, unknown element,
size limit, or a strict comparison that found disagreements), 2 usage or
parse error.
"""
from __future__ import annotations

import re
import sys
from types import SimpleNamespace
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
        import json

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
        from .trace import _timeline_rows
        # one line per unit, whole where a name holds a line break; none without concepts
        result["timeline"] = _timeline_rows(trace) if net.n_concepts else []
    _print_result(args, result, _run_text)
    if args.trace:
        from .trace import write_trace_csv
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


_FORMAT = {"--format": (("text", "json"), "text", "print text lines or one JSON document")}
_ACTIVE = {"--active": (None, "", "comma-separated layer-0 names"), **_FORMAT}
_PARAMS = {"--params": (None, None, "an engine params JSON file, else the default params")}

#: each command: its handler, its help, its positional arguments and its
#: options as {name: (choices, default, help)}; choices None takes any value,
#: and an option whose default is False is a flag
COMMANDS = {
    "validate": (cmd_validate, "check a network file and print its shape", ("network",), _FORMAT),
    "run": (cmd_run, "run a clamp scenario and print per-phase verdicts", ("network", "scenario"), {
        **_PARAMS, "--trace": (None, None, "write the trace CSV to this path"),
        "--render": (None, False, "print an ASCII timeline"), **_FORMAT,
    }),
    "check": (cmd_check, "oracle verdicts plus per-pattern detail for one active set", ("network",), _ACTIVE),
    "enumerate": (cmd_enumerate, "list all consistent interpretations (maximal starred)", ("network",), _ACTIVE),
    "compare": (cmd_compare, "exhaustively compare dynamics against the oracle", ("network",), {
        **_PARAMS, "--strict": (None, False, "exit 1 on any DISAGREE"), **_FORMAT,
    }),
    "render": (cmd_render, "render a trace CSV as an ASCII timeline", ("trace",), {}),
}


def _shown(name: str, choices, default) -> str:
    return name if default is False else f"{name} {'{' + ','.join(choices) + '}' if choices else name[2:].upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: conceptsim [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, positionals, options = COMMANDS[command]
    shown = (f"[{_shown(name, choices, default)}]" for name, (choices, default, _) in options.items())
    return " ".join(["usage: conceptsim", command, "[-h]", *shown, *positionals])


def _help(command: str | None) -> str:
    if command is None:
        about = "Simulate and query concept networks built from conditional bistable patterns."
        heading, rows = "commands:", [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, about, _, options = COMMANDS[command]
        heading, rows = "options:", [("-h, --help", "show this help message and exit")] + [
            (_shown(name, choices, default), text + (f" (default: {default})" if default else ""))
            for name, (choices, default, text) in options.items()
        ]
    return "\n".join([_usage(command), "", about, "", heading, *(f"  {a:<22}{b}" for a, b in rows)])


def _option(token: str, names: list[str]) -> tuple[list[str], str | None] | None:
    """None if argparse takes the token for a positional, else the options of
    names it may abbreviate and the value it gives after "=". -h followed by
    nothing but h's is --help."""
    if token[:1] != "-" or token == "-":
        return None
    if token.startswith("-h"):
        return ["--help"], None if token.rstrip("h") == "-" else token[2:]
    key, eq, value = token.partition("=")
    matches = [name for name in names if name.startswith(key)] if token[1] == "-" else []
    # an unknown option that reads as a negative number or holds a space is a positional
    if matches or not (" " in token or re.match(r"^-\d+$|^-\d*\.\d+$", token)):
        return matches, value if eq else None
    return None


def parse_args(argv) -> SimpleNamespace:
    """The command argv names, with its handler as func and a field per
    argument, parsed in one walk as argparse parsed them: options may come
    anywhere among the positionals, as --opt value, --opt=value or a unique
    prefix of either, and the first "--" ends them. -h or --help prints help
    and raises SystemExit(0); a usage error prints the usage line and the
    error to stderr and raises SystemExit(2). Each acts in argv order."""
    command, options, positionals, values, words, extra = None, {}, (), {}, [], []
    ended = after_option = False

    def fail(message: str):
        prog = f"conceptsim {command or ''}".rstrip()
        print(_usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(2)

    tokens = iter(argv)
    for token in tokens:
        option = None if ended or token == "--" else _option(token, [*options, "--help"])
        follows_option, after_option = after_option, option is not None
        if option is None and command is None:
            if token not in COMMANDS:
                fail(f"invalid choice: {token!r} (choose from {', '.join(COMMANDS)})")
            command = token
            func, _, positionals, options = COMMANDS[command]
            values = {name[2:]: default for name, (_, default, _) in options.items()}
        elif option is None and token == "--" and not ended:
            ended = True
            # argparse keeps a "--" that follows an option when no positional is left to take it
            if follows_option and len(words) >= len(positionals):
                extra.append(token)
        elif option is None:
            words.append(token)
        elif len(option[0]) != 1:
            if option[0]:
                fail(f"ambiguous option: {token} could match {', '.join(option[0])}")
            extra.append(token)
        else:
            [name], value = option
            choices, default, _ = options.get(name, (None, False, None))
            if default is False and value is not None:
                fail(f"argument {name}: ignored explicit argument {value!r}")
            if name == "--help":
                print(_help(command))
                raise SystemExit(0)
            if default is not False and value is None:
                value = next(tokens, "--")
                if value == "--" or _option(value, [*options, "--help"]) is not None:
                    fail(f"argument {name}: expected one argument")
            if choices and value not in choices:
                fail(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(choices)})")
            values[name[2:]] = True if default is False else value
    if command is None or len(words) < len(positionals):
        fail(f"the following arguments are required: {', '.join(positionals[len(words):]) or 'command'}")
    extra += words[len(positionals):]
    if extra:
        fail(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(command=command, func=func, **dict(zip(positionals, words)), **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
