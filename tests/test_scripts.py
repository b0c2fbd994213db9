"""The scripts run from any working directory."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(tmp_path, name):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_superhedge_demo_runs_outside_the_repo(tmp_path):
    proc = run(tmp_path, "superhedge_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "unique martingale measure" in proc.stdout

