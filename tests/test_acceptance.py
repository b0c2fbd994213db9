"""Acceptance criteria, one test per criterion.

Every criterion is exact (tolerance zero): the randomized batteries must
show 100% agreement between independent oracles, and the hand-derived
fixture values must reproduce as equalities of rationals.  Each test
prints one PASS/FAIL line (run with ``pytest -s`` to see them live).

Seeds are fixed here so the batteries are reproducible; per-instance seeds
are derived, so any failure names the instance that can be re-run alone.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from procpolar.fuzz import (
    ConditionalFuzzConfig,
    MarketFuzzConfig,
    PolarClosureConfig,
    ProcessFuzzConfig,
    run_conditional_suite,
    run_market_suite,
    run_polar_closure_suite,
    run_process_suite,
)

CONDITIONAL = ConditionalFuzzConfig(count=200, seed=42)
PROCESS = ProcessFuzzConfig(count=100, seed=7)
CLOSURE = PolarClosureConfig(instances=25, seed=1)
MARKET = MarketFuzzConfig(count=40, seed=11)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS: {description}", flush=True)


def _timed(runner, config):
    start = time.monotonic()
    result = runner(config)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def conditional_run():
    return _timed(run_conditional_suite, CONDITIONAL)


@pytest.fixture(scope="module")
def process_run():
    return _timed(run_process_suite, PROCESS)


def test_criterion_1_conditional_bipolar_equivalence(conditional_run):
    result, elapsed = conditional_run
    with criterion(
        1,
        f"conditional bipolar: hull and dual oracle agree on "
        f"{len(result.records)} seeded instances x {CONDITIONAL.probes} probes "
        f"({elapsed:.1f}s)",
    ):
        assert len(result.records) >= 200
        assert result.all_ok, [r for r in result.records if not r.ok][:3]
        assert elapsed < 60.0


def test_criterion_2_process_bipolar_equivalence(process_run):
    result, elapsed = process_run
    with criterion(
        2,
        f"process bipolar: direct and incremental oracle agree on "
        f"{len(result.records)} far-reaching sets, hull probes all members "
        f"({elapsed:.1f}s)",
    ):
        assert len(result.records) >= 100
        assert result.all_ok, [r for r in result.records if not r.ok][:3]
        assert elapsed < 120.0


def test_criterion_3_polar_closure():
    result, elapsed = _timed(run_polar_closure_suite, CLOSURE)
    with criterion(
        3,
        f"polar closure: {result.total_checks} fork-splice/solid-multiply "
        f"compositions of sampled polar elements stayed in the polar "
        f"({elapsed:.1f}s)",
    ):
        assert result.total_checks >= 1000
        assert result.all_ok, [r for r in result.records if not r.ok][:3]


def test_criterion_4_conditional_lemma_battery(conditional_run):
    result, _ = conditional_run
    # every instance of the conditional battery also exercises polar
    # closure under mixing/shrinking, the product decomposition round-trip
    # and the pairwise-maximization family, each with exact postconditions
    with criterion(
        4,
        f"conditional lemma battery: closure, decomposition round-trip and "
        f"pairwise maxima hold on all {len(result.records)} instances",
    ):
        assert result.all_ok, [r for r in result.records if not r.ok][:3]
        assert result.total_checks >= 200 * (CONDITIONAL.probes + 6)


def test_criterion_5_market_fixtures():
    from procpolar.market import (
        ConsumptionDensity,
        Market,
        budget_check,
        density_process,
        emm_polytope,
        superhedge_value,
    )
    from procpolar.processes import AdaptedProcess
    from procpolar.tree import EventTree, RandomVariable, terminal_space

    start = time.monotonic()
    with criterion(
        5,
        "market fixtures: binomial measure/density/replication and "
        "trinomial superhedge/budget values reproduce exactly",
    ):
        t1 = EventTree.build([None, 0, 0], [None, "1/2", "1/2"], ["root", "u", "d"])
        m1 = Market.of(t1, [AdaptedProcess.from_mapping(t1, {0: 4, 1: 8, 2: 2})])
        assert emm_polytope(m1).interior == (F(1, 3), F(2, 3))
        assert density_process(m1, (F(1, 3), F(2, 3))).values == (
            F(1),
            F(2, 3),
            F(4, 3),
        )
        res1 = superhedge_value(m1, RandomVariable(terminal_space(t1), (F(3), F(0))))
        assert res1.value == 1 and set(res1.residual.values) == {F(0)}

        t3 = EventTree.build(
            [None, 0, 0, 0], [None, "1/3", "1/3", "1/3"], ["root", "a", "b", "c"]
        )
        m2 = Market.of(t3, [AdaptedProcess.from_mapping(t3, {0: 4, 1: 8, 2: 4, 3: 2})])
        res2 = superhedge_value(
            m2, RandomVariable(terminal_space(t3), (F(3), F(0), F(0)))
        )
        assert res2.value == 1
        dens = ConsumptionDensity(
            AdaptedProcess.from_mapping(t3, {0: 0, 1: 3, 2: 0, 3: 0}), (F(0), F(1))
        )
        assert budget_check(m2, dens, 1).admissible
        assert not budget_check(m2, dens, F(99, 100)).admissible
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"fixtures took {elapsed:.3f}s"


def test_criterion_6_market_duality_suite():
    result, elapsed = _timed(run_market_suite, MARKET)
    with criterion(
        6,
        f"market duality: deflated wealth supermartingales, wealth bipolar "
        f"agreement and budget coincidence on {len(result.records)} fuzzed "
        f"markets ({elapsed:.1f}s)",
    ):
        assert len(result.records) >= 40
        assert result.all_ok, [r for r in result.records if not r.ok][:3]


def test_criterion_7_lp_certificates_and_duality():
    from procpolar.exact_lp import (
        LpProblem,
        LpStatus,
        maximize,
        minimize,
        verify_outcome,
    )
    from tests.test_exact_lp import random_primal_dual

    with criterion(
        7,
        "linear programming: certificates substitute exactly and primal "
        "equals dual on 120 random instances",
    ):
        rng = random.Random(2718)
        equal = 0
        for _ in range(120):
            primal, c, dual, b = random_primal_dual(rng, n=rng.randint(2, 4), m=rng.randint(1, 4))
            p = maximize(primal, c)
            d = minimize(dual, b)
            assert p.status is LpStatus.OPTIMAL and d.status is LpStatus.OPTIMAL
            assert p.value == d.value
            assert verify_outcome(LpProblem("max", tuple(c), primal), p) == ()
            equal += 1
        assert equal >= 100
