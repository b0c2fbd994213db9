"""The scripts run from any working directory and reject vacuous counts."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(tmp_path, name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_superhedge_demo_runs_outside_the_repo(tmp_path):
    proc = run(tmp_path, "superhedge_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "unique martingale measure" in proc.stdout


def test_verify_theorems_small_counts(tmp_path):
    counts = ("--conditional", "3", "--process", "2", "--closure", "1", "--market", "1")
    proc = run(tmp_path, "verify_theorems.py", "--seed", "5", *counts)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all suites passed"


def test_verify_theorems_rejects_empty_suite(tmp_path):
    for flag in ("--market", "--conditional"):
        proc = run(tmp_path, "verify_theorems.py", flag, "0")
        assert proc.returncode == 2
        assert "must be at least 1" in proc.stderr
