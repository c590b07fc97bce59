"""The README's library example runs as printed."""
import os
import re
import subprocess
import sys
from pathlib import Path

import conceptsim

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
