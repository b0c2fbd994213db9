"""The names and generators the benchmark in ``suitebench/`` hooks into.

The benchmark wraps the functions its ``LAYERS`` table names and replays
the suites' first generator calls to pick instance sizes; a rename or
deletion here would otherwise surface only as a crashed benchmark run.
"""

import importlib
import importlib.util
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from procpolar import exact_lp, fuzz, market, rv_polar

SUITEBENCH = Path(__file__).resolve().parents[1] / "suitebench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"suitebench_{name}", SUITEBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_layer_names_resolve():
    spans = _load("spans")
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"procpolar.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"procpolar.{layer}.{name}"


def test_workload_seed_draws_run_at_default_seeds():
    workloads = _load("workloads")
    for w in workloads.WORKLOADS.values():
        seeds = workloads.draw_seeds(w, w.default_seed)
        assert len(seeds) == w.calls, w.name


def _max_bits(values) -> int:
    bits = [max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values]
    return max(bits, default=0)


def test_tracer_reads_the_systems_of_real_solves():
    """The tracer's description of a solve reads the rows, bounds and
    objective the library builds: a market's lifted deflator system and a
    conditional block-hull system, each against a bit count by hand."""
    spans = _load("spans")
    rng = random.Random(5)
    m = fuzz.random_market(rng, fuzz.random_tree(rng, 3, 3), 2)  # 11 nodes, 2 assets
    lifted = market.lifted_deflator_system(m)
    space = fuzz.random_space(rng)
    c = fuzz.random_rvset(rng, space, fuzz.random_partition(rng, space))
    # the probe 1/2 on every outcome of block 0, in its integer form
    hull = rv_polar._block_hull(c, 0, (1,) * len(c.partition.blocks[0]), 2)
    for problem in (
        exact_lp.LpProblem("max", ((0, F(3, 2)),), lifted),
        exact_lp.LpProblem("min", (), hull),
    ):
        outcome = exact_lp.solve(problem)
        system = problem.system
        values = [a for _, a in problem.terms]
        values += [*(outcome.point or ()), *(outcome.ray or ())]
        bounds = (*system.lower, *system.upper, outcome.value)
        values += [b for b in bounds if b is not None]
        for row in system.rows:
            values += [a for _, a in row.terms] + [row.rhs]
        info = spans.Tracer()._describe_solve((problem,), outcome)
        rows, n = len(system.rows), system.num_vars
        assert info == (outcome.status.value, rows, n, _max_bits(values))
