"""A failing instance is recorded, with its kind, and never ends its suite;
the verdict checks hold under ``python -O`` as well."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import procpolar.fuzz as fuzz
from procpolar.cli import main
from procpolar.errors import PostconditionError, PreconditionError

SRC = Path(__file__).resolve().parents[1] / "src"

# Every hull answer is "no", so interior probes split the two oracles; every
# polar is empty, so no fork-splice or solid multiple stays in it; the
# incremental process oracle takes every probe in, so it splits from the
# direct one; every process is consumable wealth by the optional
# decomposition test, so it splits from the other two wealth oracles.  Each
# failure is printed as the distinct checks its detail names.
BROKEN_ORACLES = """
import re

import procpolar.fuzz as fuzz
from procpolar import market, process_polar
from procpolar.exact_lp import LE, LinearConstraint, LinearSystem
if __debug__:
    raise SystemExit("assert statements are on")

def empty_polar(c):
    n = c.tree.num_nodes
    return LinearSystem.make(n, [LinearConstraint((), LE, -1)])

fuzz.hull_contains = lambda c, x: False
fuzz.polar_constraints = empty_polar
process_polar.bipolar_contains_incremental = (
    lambda c, z: process_polar.ProcessBipolarMembership(True)
)
market.xc_measure_membership = lambda m, z: market.DeflatorMembership(True)
for result in (
    fuzz.run_conditional_suite(fuzz.ConditionalFuzzConfig(count=3)),
    fuzz.run_polar_closure_suite(fuzz.PolarClosureConfig(instances=2)),
    fuzz.run_process_suite(fuzz.ProcessFuzzConfig(count=3)),
    fuzz.run_market_suite(fuzz.MarketFuzzConfig(count=3)),
):
    print(result.summary())
    print(*sorted({
        re.split(" on |:", check)[0]
        for record in result.records
        if not record.ok
        for check in record.detail.split("; ")
    }), sep=", ")
    print(*sorted({record.kind for record in result.records}))
"""


def test_failures_recorded_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_ORACLES],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "conditional: 0/3 instances ok, 0 checks, seed 0",
        "oracle split",
        "disagreement",
        "polar-closure: 0/2 instances ok, 0 checks, seed 0",
        "polar closure violated",
        "disagreement",
        "process: 0/3 instances ok, 0 checks, seed 0",
        "probe",
        "disagreement",
        "market: 0/3 instances ok, 0 checks, seed 0",
        "wealth probe 3, wealth probe 4, wealth probe 5",
        "disagreement",
    ]


@pytest.mark.parametrize(
    "error, kind",
    [
        (AssertionError("oracle split"), "disagreement"),
        (PostconditionError("certificate rejected"), "defect"),
        (PreconditionError("not a product"), "defect"),
        (ZeroDivisionError("division by zero"), "crash"),
    ],
)
def test_instance_that_raises_is_recorded(monkeypatch, capsys, error, kind):
    def raising_oracle(c, x):
        raise error

    monkeypatch.setattr(fuzz, "hull_contains", raising_oracle)
    result = fuzz.run_conditional_suite(fuzz.ConditionalFuzzConfig(count=2))
    assert [(r.ok, r.kind, r.detail) for r in result.records] == [
        (False, kind, str(error))
    ] * 2
    assert main(["fuzz", "cbt", "--count", "2", "--format", "machine"]) == 1
    verdicts = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    assert verdicts[:2] == [f"fail ({kind})"] * 2
