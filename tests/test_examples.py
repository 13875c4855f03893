"""Every ``examples/*.py`` script runs to completion.

Each example is a documented entry point (README, DESIGN.md) that drives
public API by keyword, e.g. ``examples/live_migration.py`` constructs
``LiveMigration`` with the arguments it keeps.  A removed or renamed
argument breaks only the example, so each one runs here in a fresh
interpreter with ``PYTHONPATH=src`` and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"{script.name} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
    )
