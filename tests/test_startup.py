"""What a one-shot call loads: the lazy package and each command's modules."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conceptsim
from conceptsim import compare, engine, io, model, oracle, trace

SRC = Path(conceptsim.__file__).resolve().parents[1]
REPO = SRC.parent

#: the public names, by the submodule that defines them
PUBLIC = {
    compare: ("Agreement", "AgreementReport", "CaseResult", "compare_with_oracle"),
    engine: (
        "Engine", "EngineParams", "ErrorRouting", "PhaseTrace", "Snapshot", "Termination", "Trace",
        "Verdict", "dendrite_values", "error_flags", "read_verdicts", "route_errors", "run_scenario",
    ),
    io: (
        "ScenarioPhase", "ScenarioSpec", "parse_network_file", "parse_params", "parse_scenario_file",
        "serialize_network", "serialize_params", "serialize_scenario",
    ),
    model: (
        "DEFAULT_TAU", "ConceptId", "ConceptSpec", "NetworkSpec", "Pattern", "PatternState",
        "PatternStatus", "ValidatedNetwork", "element_parents", "pattern_need", "pattern_state",
        "validate_network",
    ),
    oracle: (
        "ConceptCheck", "ConsistencyReport", "OracleVerdict", "enumerate_interpretations",
        "interpretation_consistent", "oracle_verdicts",
    ),
    trace: ("TraceRow", "UnitKind", "read_trace_csv", "render_ascii_timeline", "write_trace_csv"),
}

#: the names compare.py took over from engine, which engine still resolves
MOVED = ("Agreement", "AgreementReport", "CaseResult", "COMPARE_BOTTOM_LIMIT", "compare_with_oracle")

#: the names trace.py took over from io, which io still resolves
MOVED_TO_TRACE = ("UnitKind", "TraceRow", "CSV_HEADER", "write_trace_csv", "read_trace_csv", "render_ascii_timeline")

#: standard-library modules that cost a millisecond or more to import, each
#: loaded only where it is used: dataclasses (and through it inspect) by
#: compare, for CaseResult; csv by trace.read_trace_csv; json by the loaders
#: of io and by --format json, so render, which reads a CSV, loads none.
#: fractions is loaded by no command: pattern_state decides in integers,
#: through pattern_need. Nor is pathlib: run opens its trace file with open().
#: Nor are argparse and the gettext and locale it loads: cli parses argv from
#: its COMMANDS table. Children run under -S, since a site .pth file may
#: import pathlib before any command runs
HEAVY = ["argparse", "csv", "dataclasses", "fractions", "gettext", "inspect", "json", "locale", "pathlib"]
DATACLASSES = ["dataclasses", "inspect"]

#: runs cli.main on argv with stdout swallowed, then prints the exit code, the
#: conceptsim submodules that were loaded and which of HEAVY were; it imports
#: json only after looking
CHILD = f"""
import contextlib, io, sys
from conceptsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("conceptsim."))
heavy = [m for m in {HEAVY!r} if m in sys.modules]
import json
print(json.dumps([code, loaded, heavy]))
"""

CLI = ["conceptsim.cli", "conceptsim.errors"]
BASE = sorted(CLI + ["conceptsim.io", "conceptsim.model"])
WITH_ORACLE = sorted(BASE + ["conceptsim.oracle"])
WITH_ENGINE = sorted(BASE + ["conceptsim.engine"])
WITH_TRACE = sorted(WITH_ENGINE + ["conceptsim.trace"])
EVERYTHING = sorted(BASE + ["conceptsim.compare", "conceptsim.engine", "conceptsim.oracle"])
TRACE_ONLY = sorted(CLI + ["conceptsim.trace"])

#: the calls of perfbench's cli-small mix, what each may load of the package
#: and which of HEAVY it loads
CALLS = [
    pytest.param(("validate", "data/caramel.json"), 0, BASE, ["json"], id="validate"),
    pytest.param(
        ("run", "data/salt.json", "data/scenarios/salt_rejection.json", "--render", "--trace",
         "{tmp}/trace.csv"), 0, WITH_TRACE, ["json"], id="run-render-trace",
    ),
    pytest.param(
        ("run", "data/salt.json", "data/scenarios/decoupling.json", "--format", "json"), 0,
        WITH_ENGINE, ["json"], id="run-json",
    ),
    pytest.param(
        ("check", "data/salt.json", "--active", "looking,white,tasting"), 0, WITH_ORACLE, ["json"], id="check",
    ),
    pytest.param(
        ("enumerate", "data/caramel.json", "--active", "tasting,salty"), 0, WITH_ORACLE, ["json"], id="enumerate",
    ),
    pytest.param(("compare", "data/salt.json", "--strict"), 0, EVERYTHING, [*DATACLASSES, "json"], id="compare"),
    pytest.param(
        ("compare", "data/caramel.json", "--format", "json", "--strict"), 1, EVERYTHING, [*DATACLASSES, "json"],
        id="compare-json-disagree",
    ),
    pytest.param(("render", "tests/golden/salt_rejection_trace.csv"), 0, TRACE_ONLY, ["csv"], id="render"),
]

#: beyond the mix, which gives run both --render and --trace or neither:
#: either option alone loads trace
RUN_WITH_ONE_OPTION = [
    pytest.param(
        ("run", "data/salt.json", "data/scenarios/decoupling.json", *option), 0, WITH_TRACE, ["json"],
        id=f"run-{option[0][2:]}",
    )
    for option in (("--render",), ("--trace", "{tmp}/trace.csv"))
]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(code: str, *argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], cwd=REPO, env=child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("argv, exit_code, loaded, heavy", CALLS + RUN_WITH_ONE_OPTION)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, exit_code, loaded, heavy):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert json.loads(run_child(CHILD, *argv)) == [exit_code, loaded, heavy]


def test_enumerate_reporting_an_interpretation_loads_none_of_heavy():
    """Beyond the mix, whose enumerate finds nothing consistent: on salt under
    {tasting, salty} it reports {salt} through interpretation_consistent, and
    loads none of HEAVY but the json its network loader needs."""
    argv = ("enumerate", "data/salt.json", "--active", "tasting,salty")
    assert json.loads(run_child(CHILD, *argv)) == [0, WITH_ORACLE, ["json"]]


def test_import_conceptsim_loads_no_submodule():
    code = "import sys, conceptsim; print(sorted(m for m in sys.modules if m.startswith('conceptsim')))"
    assert run_child(code) == "['conceptsim']\n"


def test_import_oracle_leaves_fractions_unloaded():
    code = "import sys, conceptsim.oracle; print('fractions' in sys.modules)"
    assert run_child(code) == "False\n"


def test_import_engine_leaves_compare_unloaded():
    code = f"import sys, conceptsim.engine; print([m for m in ['conceptsim.compare', *{DATACLASSES!r}] if m in sys.modules])"
    assert run_child(code) == "[]\n"


def test_engine_resolves_the_names_compare_took_over():
    for name in MOVED:
        assert getattr(engine, name) is getattr(compare, name), name
        assert engine.__dict__[name] is getattr(compare, name), name  # cached on first use
    namespace: dict = {}
    exec("from conceptsim.engine import compare_with_oracle, AgreementReport", namespace)
    assert namespace["compare_with_oracle"] is compare.compare_with_oracle
    assert namespace["AgreementReport"] is compare.AgreementReport
    for private in ("_clamp_planes", "_refine"):  # compare's own helpers are read off compare
        with pytest.raises(AttributeError):
            getattr(engine, private)
    with pytest.raises(AttributeError, match="module 'conceptsim.engine' has no attribute 'no_such_name'"):
        engine.no_such_name


def test_import_io_and_trace_each_leave_the_other_unloaded():
    code = "import sys, conceptsim.io; print('conceptsim.trace' in sys.modules)"
    assert run_child(code) == "False\n"
    code = "import sys, conceptsim.trace; print([m for m in ['conceptsim.io', 'conceptsim.model'] if m in sys.modules])"
    assert run_child(code) == "[]\n"


def test_io_resolves_the_names_trace_took_over():
    for name in MOVED_TO_TRACE:
        assert getattr(io, name) is getattr(trace, name), name
        assert io.__dict__[name] is getattr(trace, name), name  # cached on first use
    namespace: dict = {}
    exec("from conceptsim.io import write_trace_csv, TraceRow", namespace)
    assert namespace["write_trace_csv"] is trace.write_trace_csv
    assert namespace["TraceRow"] is trace.TraceRow
    for private in ("_csv_field", "_read_rows"):  # trace's own helpers are read off trace
        with pytest.raises(AttributeError):
            getattr(io, private)
    with pytest.raises(AttributeError, match="module 'conceptsim.io' has no attribute 'no_such_name'"):
        io.no_such_name


def test_every_public_name_is_its_submodules_object():
    assert sorted(conceptsim.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(conceptsim, name) is getattr(module, name), name


def test_star_import_and_submodule_attributes():
    namespace: dict = {}
    exec("from conceptsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(conceptsim.__all__)
    assert conceptsim.engine is engine and conceptsim.oracle is oracle
    assert set(conceptsim.__all__) <= set(dir(conceptsim))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        conceptsim.no_such_name
    with pytest.raises(ImportError):
        exec("from conceptsim import no_such_name", {})
