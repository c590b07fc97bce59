"""CLI subcommands, exit codes, and output determinism."""
import contextlib
import json
from io import StringIO

import pytest
from hypothesis import assume, given, settings, strategies as st

from conceptsim import EngineParams, read_trace_csv, render_ascii_timeline, run_scenario, serialize_network
from conceptsim.cli import COMMANDS, main, parse_args
from reference import build_parser_reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def salt(data_dir):
    return str(data_dir / "salt.json")


def test_validate_canonical(capsys, salt):
    code, out, err = run_cli(capsys, "validate", salt)
    assert code == 0
    assert out == "7 concepts, 2 layers, 4 patterns, 0 warnings\n"


def test_validate_reports_singleton_warning(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"concepts": [
        {"name": "a", "layer": 0, "patterns": []},
        {"name": "b", "layer": 1, "patterns": [["a"]]},
    ]}))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "1 warnings" in out
    assert "warning:" in out


def test_validate_dangling_reference_exits_1(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"concepts": [
        {"name": "tasting", "layer": 0, "patterns": []},
        {"name": "salt", "layer": 1, "patterns": [["tasting", "umami"]]},
    ]}))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "umami" in err


@pytest.mark.parametrize("command", ["validate", "compare"])
def test_nul_in_a_name_exits_1(capsys, tmp_path, command):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"concepts": [{"name": "a\u0000b", "layer": 0, "patterns": []}]}))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert "ValidationError: concept 0: name 'a\\x00b' contains NUL" in err


def test_validate_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no_such_file.json")
    assert code == 2
    assert "error" in err


def test_validate_bad_json_exits_2(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text("{nope")
    code, _, _ = run_cli(capsys, "validate", str(path))
    assert code == 2


def test_unknown_flag_exits_2(salt):
    with pytest.raises(SystemExit) as exc:
        main(["validate", salt, "--bogus"])
    assert exc.value.code == 2


def test_every_subcommand_has_help():
    for command in ("validate", "run", "check", "enumerate", "compare", "render"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0


#: the argv alphabet: the commands and one that is none, every option name, a
#: unique prefix of each, their "=value" forms, the values, "--", an unknown
#: option and positionals, among them one with a space and a negative number
OPTION_NAMES = ["-h", "--help", "--format", "--params", "--trace", "--render", "--active", "--strict"]
PREFIXES = ["--he", "--form", "--par", "--tr", "--ren", "--act", "--str"]
VALUES = ["", "text", "json", "xml", "-"]
COMMAND_NAMES = [*COMMANDS, "bogus"]
TOKENS = [
    *COMMAND_NAMES, *OPTION_NAMES, *PREFIXES, *(f"{o}={v}" for o in OPTION_NAMES + PREFIXES for v in VALUES),
    *VALUES, "--", "-hh", "--bogus", "data/salt.json", "out.csv", "a b", "-1",
]
#: runs of tokens that commands accept, drawn as often as single tokens so
#: that more argv parse; tuples, so no example can edit another's
ACCEPTED = [
    ("data/salt.json",), ("out.csv",), ("--",), ("--format", "json"), ("--form=text",), ("--render",),
    ("--strict",), ("--act", "a b"), ("--params", "-"), ("--tr", "out.csv"),
]
#: a token or none, a command, then the command's arguments
ARGV = st.tuples(
    st.lists(st.sampled_from(TOKENS), max_size=1),
    st.sampled_from(COMMAND_NAMES),
    st.lists(st.sampled_from(TOKENS).map(lambda token: (token,)) | st.sampled_from(ACCEPTED), max_size=6),
).map(lambda parts: [*parts[0], parts[1], *(token for run in parts[2] for token in run)])


def parsed(parse, argv):
    """The fields parse makes of a copy of argv or, if it exits, the exit code
    and whether it wrote to stdout and to stderr."""
    out, err = StringIO(), StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(list(argv)))
    except SystemExit as e:
        return e.code, out.getvalue() != "", err.getvalue() != ""


def argparse_versions_agree(argv, expected) -> bool:
    """Whether argparse releases parse argv alike. They differ on a "--"
    before the command, which newer ones skip (3.13.13 does, 3.13.0 does
    not) and parse_args refuses, and on a "--" after the first, given to a
    positional, which older ones make an empty list and parse_args keeps."""
    before = argv[:next((i for i, token in enumerate(argv) if token in COMMANDS), len(argv))]
    return "--" not in before and not (isinstance(expected, dict) and [] in expected.values())


@settings(deadline=None, max_examples=600)
@given(argv=ARGV)
def test_parse_args_agrees_with_argparse(argv):
    expected = parsed(build_parser_reference().parse_args, argv)
    assume(argparse_versions_agree(argv, expected))
    assert parsed(parse_args, argv) == expected


def accepted(command, **given):
    """The fields of an accepted call of command: the defaults, then given."""
    func, _, _, options = COMMANDS[command]
    return {"command": command, "func": func, **{name[2:]: spec[1] for name, spec in options.items()}, **given}


@pytest.mark.parametrize("argv, expected", [
    (["validate", "x", "--bogus", "-h"], (0, True, False)),
    (["validate", "--format", "xml", "-h"], (2, False, True)),
    (["validate", "x", "--form", "json"], accepted("validate", network="x", format="json")),
    (["check", "--act=a,b", "x"], accepted("check", network="x", active="a,b")),
    (
        ["run", "--render", "x", "--tr", "t.csv", "y"],
        accepted("run", network="x", scenario="y", render=True, trace="t.csv"),
    ),
    (["validate", "--", "--format"], accepted("validate", network="--format")),
    (["validate", "x", "--format", "json", "--"], (2, False, True)),
    (["render", "--help=x"], (2, False, True)),
    (["-h", "bogus"], (0, True, False)),
    ([], (2, False, True)),
])
def test_parse_args_examples(argv, expected):
    assert parsed(parse_args, argv) == expected
    assert parsed(build_parser_reference().parse_args, argv) == expected


@pytest.mark.parametrize("argv, expected", [
    (["--", "validate", "x"], (2, False, True)),
    (["run", "x", "--", "--"], accepted("run", network="x", scenario="--")),
])
def test_parse_args_where_argparse_versions_differ(argv, expected):
    assert parsed(parse_args, argv) == expected


def test_run_salt_rejection(capsys, salt, data_dir):
    code, out, _ = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "salt_rejection.json")
    )
    assert code == 0
    assert out.splitlines() == [
        "phase 1: salt: Inferred, sugar: Inactive",
        "phase 2: salt: Rejected, sugar: Rejected",
    ]


def test_run_writes_golden_trace(capsys, salt, data_dir, golden_dir, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "salt_rejection.json"),
        "--trace", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == (golden_dir / "salt_rejection_trace.csv").read_bytes()


def test_run_trace_into_a_missing_directory_exits_2(capsys, salt, data_dir, tmp_path):
    """The verdicts are printed before the trace file is opened; the OSError
    opening it raises is the error line."""
    out_path = tmp_path / "no_such_dir" / "trace.csv"
    code, out, err = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "salt_rejection.json"), "--trace", str(out_path),
    )
    assert code == 2
    assert out.startswith("phase 1: salt: Inferred")
    assert err == f"error: [Errno 2] No such file or directory: {str(out_path)!r}\n"
    assert not out_path.parent.exists()


def test_run_render_flag(capsys, salt, data_dir):
    code, out, _ = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "decoupling.json"), "--render"
    )
    assert code == 0
    assert "salt" in out and "|" in out


def test_run_render_without_concepts_prints_no_timeline(capsys, tmp_path):
    """A network with no concepts has no timeline: --render prints the phase
    lines alone, and under --format json the timeline is empty."""
    net = tmp_path / "net.json"
    net.write_text('{"concepts": []}')
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"phases":[{"clamp":{},"hold":"converge"}]}')
    code, plain, _ = run_cli(capsys, "run", str(net), str(scenario))
    assert code == 0
    code, out, err = run_cli(capsys, "run", str(net), str(scenario), "--render")
    assert (code, out, err) == (0, plain, "")
    code, out, err = run_cli(capsys, "run", str(net), str(scenario), "--render", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["timeline"] == []


def test_run_json_render_prints_one_json_document(capsys, salt, data_dir):
    """Under --format json the timeline's lines are in the one payload, and
    the rest of it is the payload without --render."""
    scenario = str(data_dir / "scenarios" / "salt_rejection.json")
    code, out, _ = run_cli(capsys, "run", salt, scenario, "--render", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    _, text, _ = run_cli(capsys, "run", salt, scenario, "--render")
    _, plain, _ = run_cli(capsys, "run", salt, scenario, "--format", "json")
    assert payload.pop("timeline") == text.splitlines()[len(payload["phases"]):]
    assert payload == json.loads(plain)
    assert text.splitlines()[2] == "looking ##|##oo"


def test_run_json_format(capsys, salt, data_dir):
    code, out, _ = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "salt_rejection.json"),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["phases"][0]["verdicts"]["salt"] == "Inferred"
    assert payload["phases"][1]["verdicts"]["salt"] == "Rejected"
    assert payload["phases"][1]["termination"] == "FixedPoint"


def test_run_non_bottom_clamp_exits_1(capsys, salt, tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_text('{"phases":[{"clamp":{"salt":1},"hold":"converge"}]}')
    code, _, err = run_cli(capsys, "run", salt, str(scenario))
    assert code == 1
    assert "NonBottomClamp" in err


def test_run_with_params_file(capsys, salt, data_dir, tmp_path):
    params = tmp_path / "params.json"
    params.write_text('{"error_routing": "all_global"}')
    code, out, _ = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "salt_rejection.json"),
        "--params", str(params),
    )
    assert code == 0
    assert "phase 2: salt: Rejected" in out


def test_run_bad_params_exit_1(capsys, salt, data_dir, tmp_path):
    params = tmp_path / "params.json"
    params.write_text('{"w_ff": 0.4}')
    code, _, err = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "decoupling.json"),
        "--params", str(params),
    )
    assert code == 1
    assert "w_ff <= theta" in err


def test_run_hold_beyond_max_sweeps_exits_1(capsys, salt, tmp_path):
    """A hold is bounded by max_sweeps, so a huge one is refused at once."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"phases": [{"clamp": {"looking": 1}, "hold": 1000000000}]}')
    code, out, err = run_cli(capsys, "run", salt, str(scenario))
    assert code == 1 and out == ""
    assert err == "error: TooLarge: a hold of 1000000000 sweeps exceeds max_sweeps=64\n"


def test_run_hold_beyond_max_sweeps_in_a_later_phase_exits_1(capsys, salt, tmp_path):
    """The hold of a later phase is checked before the first phase runs, with
    the same message and exit code."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        '{"phases": [{"clamp": {"looking": 1, "white": 1}, "hold": "converge"},'
        ' {"clamp": {"looking": 1}, "hold": 65}]}'
    )
    code, out, err = run_cli(capsys, "run", salt, str(scenario))
    assert code == 1 and out == ""
    assert err == "error: TooLarge: a hold of 65 sweeps exceeds max_sweeps=64\n"


@pytest.mark.parametrize("text, code, message", [
    ('{"w_ff": Infinity}', 2, "non-finite number Infinity"),
    ('{"w_lat": NaN}', 2, "non-finite number NaN"),
    # valid JSON that reads as inf: a BadParams domain error
    ('{"w_ff": 1e999}', 1, "w_ff is not finite"),
])
def test_run_non_finite_params_exit_code(capsys, salt, data_dir, tmp_path, text, code, message):
    params = tmp_path / "params.json"
    params.write_text(text)
    got, _, err = run_cli(
        capsys, "run", salt, str(data_dir / "scenarios" / "decoupling.json"),
        "--params", str(params),
    )
    assert got == code
    assert message in err


def test_check_looking_white(capsys, salt):
    code, out, _ = run_cli(capsys, "check", salt, "--active", "looking,white")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "salt: InAllMaximal"
    assert "sugar: InAllMaximal" in lines


def test_check_reports_missing_element(capsys, salt):
    code, out, _ = run_cli(capsys, "check", salt, "--active", "looking,white,tasting")
    assert code == 0
    assert "salt: InNone" in out
    assert "missing: salty" in out


def test_check_empty_active(capsys, salt):
    code, out, _ = run_cli(capsys, "check", salt, "--active", "")
    assert code == 0
    assert out.count("InNone") == 2


def test_check_unknown_element_exits_1(capsys, salt):
    code, _, err = run_cli(capsys, "check", salt, "--active", "umami")
    assert code == 1
    assert "UnknownElement" in err


def test_enumerate_tasting_salty(capsys, salt):
    code, out, _ = run_cli(capsys, "enumerate", salt, "--active", "tasting,salty")
    assert code == 0
    assert out == "{salt}*\n"


def test_enumerate_empty_active(capsys, salt):
    code, out, _ = run_cli(capsys, "enumerate", salt, "--active", "")
    assert code == 0
    assert out == "{}*\n"


def test_enumerate_non_bottom_active_exits_1(capsys, salt):
    code, out, err = run_cli(capsys, "enumerate", salt, "--active", "salt")
    assert code == 1
    assert out == ""
    assert "NonBottomClamp" in err


@pytest.mark.parametrize("command", ["check", "enumerate"])
def test_non_bottom_active_exits_1(capsys, salt, command):
    code, out, err = run_cli(capsys, command, salt, "--active", "looking,salt")
    assert (code, out) == (1, "")
    assert err == "error: NonBottomClamp: 'salt' is not a layer-0 concept\n"


@pytest.mark.parametrize("command", ["check", "enumerate"])
@pytest.mark.parametrize("active", ["salt,umami", "umami,salt"])
def test_unknown_active_wins_over_non_bottom(capsys, salt, command, active):
    """Names resolve before the oracle sees the clamp, so an unknown name is
    reported first, in either order, and a name above layer 0 after it."""
    code, out, err = run_cli(capsys, command, salt, "--active", active)
    assert (code, out) == (1, "")
    assert err == "error: UnknownElement: no concept named 'umami'\n"


@pytest.mark.parametrize("command", ["check", "enumerate"])
@pytest.mark.parametrize("active", ["looking,,white", "looking,", ",looking", ",", "salt,"])
def test_an_empty_active_name_exits_1(capsys, salt, command, active):
    """Only --active "" is the empty clamp; an empty name beside others is
    unknown, as no concept has the empty name."""
    code, out, err = run_cli(capsys, command, salt, "--active", active)
    assert (code, out) == (1, "")
    assert err == "error: UnknownElement: no concept named ''\n"


def test_enumerate_too_large_exits_1(capsys, tmp_path):
    concepts = [{"name": "e0", "layer": 0, "patterns": []},
                {"name": "e1", "layer": 0, "patterns": []}]
    concepts += [{"name": f"c{i}", "layer": 1, "patterns": [["e0", "e1"]]} for i in range(21)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"concepts": concepts}))
    code, _, err = run_cli(capsys, "enumerate", str(path), "--active", "")
    assert code == 1
    assert "TooLarge" in err


def test_compare_canonical(capsys, salt):
    code, out, _ = run_cli(capsys, "compare", salt)
    assert code == 0
    assert out == "32 cases: AGREE 29, TIE-SELECTED 3, DISAGREE 0\n"


def test_compare_strict_passes_on_canonical(capsys, salt):
    code, _, _ = run_cli(capsys, "compare", salt, "--strict")
    assert code == 0


def test_compare_strict_fails_on_divergent_network(capsys, data_dir):
    code, out, _ = run_cli(capsys, "compare", str(data_dir / "caramel.json"), "--strict")
    assert code == 1
    assert "DISAGREE 4" in out
    assert out.count("DISAGREE clamp=") == 4


def test_compare_json(capsys, salt, data_dir):
    code, out, _ = run_cli(
        capsys, "compare", salt, "--params", str(data_dir / "params" / "no_lateral.json"),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["disagree"] == 0
    assert payload["agree"] == 32


def test_render_subcommand(capsys, salt, golden_dir):
    code, out, _ = run_cli(capsys, "render", str(golden_dir / "salt_rejection_trace.csv"))
    assert code == 0
    assert "salt" in out and "g" in out


def test_run_trace_then_render_keeps_awkward_names(capsys, tmp_path, awkward_spec, awkward_net):
    """Names with , " \\n \\r survive run --trace and render."""
    net = awkward_net
    net_path, scenario_path, trace_path = (tmp_path / n for n in ("net.json", "sc.json", "t.csv"))
    net_path.write_text(serialize_network(awkward_spec), encoding="utf-8")
    clamp = {net.names[e]: 1 for e in net.bottom}
    scenario_path.write_text(json.dumps({"phases": [{"clamp": clamp, "hold": "converge"}]}))
    code, _, _ = run_cli(capsys, "run", str(net_path), str(scenario_path), "--trace", str(trace_path))
    assert code == 0
    with open(trace_path, encoding="utf-8", newline="") as f:
        assert {r.name for r in read_trace_csv(f.read())} == set(net.names)
    code, out, _ = run_cli(capsys, "render", str(trace_path))
    assert code == 0
    for name in net.names:
        assert name in out


def test_run_json_timeline_has_one_entry_per_unit(capsys, tmp_path, awkward_spec, awkward_net):
    """Under --format json, --render gives one timeline entry per unit, whole
    where its name holds a line break, and the entries joined by line breaks
    are the text timeline."""
    net = awkward_net
    net_path, scenario_path = tmp_path / "net.json", tmp_path / "sc.json"
    net_path.write_text(serialize_network(awkward_spec), encoding="utf-8")
    clamp = {e: 1 for e in net.bottom}
    scenario_path.write_text(json.dumps({"phases": [{"clamp": {net.names[e]: 1 for e in clamp}, "hold": "converge"}]}))
    code, out, _ = run_cli(capsys, "run", str(net_path), str(scenario_path), "--render", "--format", "json")
    assert code == 0
    timeline = json.loads(out)["timeline"]
    assert len(timeline) == net.n_concepts
    assert "\n".join(timeline) == render_ascii_timeline(run_scenario(net, EngineParams(), [(clamp, None)]))


def test_stdout_is_deterministic(capsys, salt, data_dir):
    args = ("run", salt, str(data_dir / "scenarios" / "salt_rejection.json"), "--render")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


#: a command line per kind of input file, with the bad file in that place
READ_SITES = {
    "network": ("validate", "{bad}"),
    "scenario": ("run", "{salt}", "{bad}"),
    "params": ("compare", "{salt}", "--params", "{bad}"),
    "trace": ("render", "{bad}"),
}


@pytest.mark.parametrize("site", sorted(READ_SITES))
def test_input_that_is_not_utf8_exits_2(capsys, salt, tmp_path, site):
    bad = tmp_path / "bad"
    bad.write_bytes(b'{"concepts": [], "x": "\xff"}\n')
    argv = [a.format(salt=salt, bad=bad) for a in READ_SITES[site]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: ParseError: {bad}: not UTF-8 text (invalid start byte)\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("site, text, where", [
    ("network", '{"concepts": [], "concepts": []}', "$: duplicate key 'concepts'"),
    (
        "scenario",
        '{"phases": [{"clamp": {"looking": 1}, "hold": 1}, {"clamp": {"looking": 1, "looking": 0}, "hold": 1}]}',
        "$.phases[1].clamp: duplicate key 'looking'",
    ),
    ("params", '{"w_err": 1.2, "w_err": -5}', "$: duplicate key 'w_err'"),
], ids=["network", "scenario", "params"])
def test_a_repeated_key_exits_2(capsys, salt, tmp_path, site, text, where):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = [a.format(salt=salt, bad=bad) for a in READ_SITES[site]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: ParseError: {where}\n"


def test_compare_builds_only_its_disagreements(capsys, data_dir, monkeypatch):
    """compare reads its counts off the report's planes, and builds a
    CaseResult only for each of caramel's 4 DISAGREE cases."""
    from conceptsim import compare

    built = []
    real = compare.CaseResult
    monkeypatch.setattr(compare, "CaseResult", lambda *fields: built.append(fields) or real(*fields))
    code, out, _ = run_cli(capsys, "compare", str(data_dir / "caramel.json"))
    assert code == 0 and out.startswith("32 cases: AGREE 25, TIE-SELECTED 3, DISAGREE 4\n")
    assert len(built) == 4


def test_compare_with_negative_w_err_exits_1(capsys, salt, tmp_path):
    """Errors only inhibit: w_err < 0 is refused before any sweep."""
    params = tmp_path / "params.json"
    params.write_text('{"w_ff": 0.5, "w_self": -0.5, "w_err": -0.2, "theta": -1.0}')
    code, out, err = run_cli(capsys, "compare", salt, "--params", str(params))
    assert code == 1 and out == ""
    assert err == "error: BadParams: w_err < 0\n"


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("text, message", [
    ('{"w_ff": ' + "9" * 400 + "}", "w_ff is not finite"),
    ('{"theta": -' + "9" * 400 + "}", "theta is not finite"),
], ids=["w_ff_huge", "theta_huge_negative"])
def test_params_int_beyond_float_range_exits_1(capsys, salt, data_dir, tmp_path, command, text, message):
    """A huge int reads like 1e999: infinite, a BadParams domain error."""
    params = tmp_path / "params.json"
    params.write_text(text)
    argv = [command, salt]
    if command == "run":
        argv.append(str(data_dir / "scenarios" / "decoupling.json"))
    code, out, err = run_cli(capsys, *argv, "--params", str(params))
    assert code == 1 and out == ""
    assert err == f"error: BadParams: {message}\n"


def test_render_non_canonical_integer_exits_2(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("phase,sweep,kind,name,value\n0,+1,concept,salt,1\n")
    code, out, err = run_cli(capsys, "render", str(trace))
    assert code == 2 and out == ""
    assert err.startswith("error: ParseError: line 2:")


def test_render_header_only_trace_exits_2(capsys, tmp_path):
    """A trace with a header and no rows is a typed error that names the file,
    not a traceback from the renderer."""
    trace = tmp_path / "t.csv"
    trace.write_text("phase,sweep,kind,name,value\n")
    code, out, err = run_cli(capsys, "render", str(trace))
    assert code == 2 and out == ""
    assert err == f"error: SchemaMismatch: {trace}: no trace rows after the header\n"
