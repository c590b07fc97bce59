"""The README's library example runs as printed, and its Start-up table lists
what test_startup pins each command to load."""
import os
import re
import subprocess
import sys
from pathlib import Path

import conceptsim
from test_startup import CALLS, RUN_WITH_ONE_OPTION

SRC = Path(conceptsim.__file__).resolve().parents[1]
REPO = SRC.parent


def test_readme_library_example_prints_its_result_comments():
    """The README's one python block, run from the repo root in a child
    process as a reader would run it, prints what its result comments say,
    under the same -X dev -W error as the test suite and with nothing on
    stderr, so a leaked file handle or a deprecated call fails it."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"```python\n(.*?)```", readme, re.S)
    # each "# <output> — <gloss>" line states what the print above it writes
    expected = [line[2:].split(" — ")[0] for line in code.splitlines() if line.startswith("# ")]
    assert expected == ["{'salt': 'Inferred', 'sugar': 'Inactive'}", "False ((0, frozenset({3})),)"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", code], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    # a warning raised where it cannot propagate, as a ResourceWarning from
    # a finalizer is, is only printed, so stderr must be empty as well
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == expected


def test_readme_start_up_table_lists_what_each_command_loads():
    """Each call in CALLS and RUN_WITH_ONE_OPTION loads, of the package besides cli and errors, the
    modules its command's row lists: those before a ";", and those after it
    when the call gives one of the options named there. It loads the heavy
    standard modules of the row's "also loads", but inspect, which the prose
    names."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    [rows] = re.findall(r"^\| command \| modules \| also loads \|\n\|[-|]+\|\n((?:\|.*\n)+)", readme, re.M)
    listed = {}
    for row in rows.splitlines():
        commands, modules, heavy = row.strip("|").split("|")
        always, _, optional = modules.partition(";")
        for command in re.findall(r"`(\w+)`", commands):
            listed[command] = (
                re.findall(r"`(\w+)`", always), re.findall(r"`(--[\w-]+)`", optional),
                re.findall(r"`(\w+)`", optional), re.findall(r"`(\w+)`", heavy),
            )
    for call in CALLS + RUN_WITH_ONE_OPTION:
        argv, _, loaded, heavy = call.values
        always, options, optional, listed_heavy = listed[argv[0]]
        modules = sorted(m.split(".")[1] for m in loaded if m not in ("conceptsim.cli", "conceptsim.errors"))
        want = always + optional if set(options) & set(argv) else always
        assert modules == sorted(want), call.id
        assert [m for m in heavy if m != "inspect"] == listed_heavy, call.id
    assert set(listed) == {call.values[0][0] for call in CALLS}
