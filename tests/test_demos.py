"""Every narrative script under demos/ runs to completion, warning-free."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockforcing

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(blockforcing.__file__).resolve().parent.parent)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        # pytest's warning filter does not reach a child process.
        [sys.executable, "-W", "error", str(DEMOS / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
