"""The shipped demo scripts run to completion (a few seconds each)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# disk_and_annulus_boundaries.py is left out: it writes under demos/out
@pytest.mark.parametrize(
    "script",
    [
        "characters_and_radicals.py",
        "quadruples_and_naturality.py",
        "product_theorem_walkthrough.py",
    ],
)
def test_demo_exits_cleanly(script):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
