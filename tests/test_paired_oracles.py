"""Paired oracles never ask a question over a shared system object.

``exact_lp`` answers each question once per system object, so two oracles
that asked over one object could hand one side of a check the other
side's answer.  Every question is recorded with the system it is asked
over, memo hits included (a hit never reaches ``solve``), under the
oracle asking it; the systems of the sides of each pair must be disjoint.
"""

import itertools
import random
from collections import defaultdict

from procpolar import exact_lp, market
from procpolar.fuzz import (
    ProcessFuzzConfig,
    conditional_probes,
    deflator_probes_for,
    process_probes,
    random_consumption_density,
    random_market,
    random_partition,
    random_process_set,
    random_rv,
    random_rvset,
    random_space,
    random_tree,
    wealth_probes_for,
)
from procpolar.market import (
    budget_check,
    density_hull_membership,
    superhedge_value,
    wealth_bipolar_contains,
    xc_feasibility,
    xc_measure_membership,
    xc_polar_membership,
    y_enlargement_membership,
)
from procpolar.process_polar import bipolar_contains_incremental, bipolar_contains_lp
from procpolar.processes import has_absorbed_zeros
from procpolar.rv_polar import (
    RvSet,
    conditional_bipolar_contains,
    hull_contains,
    unconditional_bipolar_contains,
    unconditional_hull_contains,
)
from procpolar.tree import Partition


class _Questions:
    """The systems asked over, by the innermost oracle asking.  The systems
    are held, so no id is reused while the record lives."""

    def __init__(self, monkeypatch):
        self.asking: list[str] = []
        self.systems: dict[str, dict[int, object]] = defaultdict(dict)
        ask = exact_lp._ask

        def recorded(problem):
            if self.asking:
                self.systems[self.asking[-1]][id(problem.system)] = problem.system
            return ask(problem)

        monkeypatch.setattr(exact_lp, "_ask", recorded)

    def under(self, oracle: str, fn, *args):
        self.asking.append(oracle)
        try:
            return fn(*args)
        finally:
            self.asking.pop()

    def assert_disjoint(self, *oracles: str) -> None:
        for a, b in itertools.combinations(oracles, 2):
            assert self.systems[a] and self.systems[b], (a, b)
            assert not self.systems[a].keys() & self.systems[b].keys(), (a, b)


def test_hull_and_bipolar_oracles_share_no_system(monkeypatch):
    q = _Questions(monkeypatch)
    rng = random.Random(42)
    for _ in range(20):
        space = random_space(rng, 6)
        c = random_rvset(rng, space, random_partition(rng, space, 3), 4)
        for probe, _ in conditional_probes(rng, c, 6):
            q.under("hull", hull_contains, c, probe)
            q.under("bipolar", conditional_bipolar_contains, c, probe)
        trivial = RvSet(c.generators, Partition.trivial(space))
        probe = random_rv(rng, space)
        q.under("hull", hull_contains, trivial, probe)
        q.under("bipolar", conditional_bipolar_contains, trivial, probe)
        q.under("unconditional hull", unconditional_hull_contains, c.generators, probe)
        q.under(
            "unconditional bipolar", unconditional_bipolar_contains, c.generators, probe
        )
    q.assert_disjoint("hull", "bipolar", "unconditional hull", "unconditional bipolar")


def test_direct_and_incremental_process_oracles_share_no_system(monkeypatch):
    q = _Questions(monkeypatch)
    rng = random.Random(7)
    cfg = ProcessFuzzConfig
    for _ in range(10):
        c = random_process_set(rng, random_tree(rng, 3, 2), 3)
        probes, hull = process_probes(rng, c, cfg.probes, cfg.hull_probes)
        for z in probes + hull:
            q.under("direct", bipolar_contains_lp, c, z)
            if has_absorbed_zeros(z):
                q.under("incremental", bipolar_contains_incremental, c, z)
    q.assert_disjoint("direct", "incremental")


def test_deflator_wealth_and_budget_oracles_share_no_system(monkeypatch):
    q = _Questions(monkeypatch)
    # budget_check asks superhedge_value through the market module
    monkeypatch.setattr(
        market,
        "superhedge_value",
        lambda m, claim: q.under("superhedge", superhedge_value, m, claim),
    )
    rng = random.Random(11)
    for _ in range(8):
        tree = random_tree(rng, 3, 2)
        m = random_market(rng, tree, 2)
        for y in deflator_probes_for(rng, m, 3):
            q.under("y enlargement", y_enlargement_membership, m, y)
            q.under("xc polar", xc_polar_membership, m, y)
            q.under("density hull", density_hull_membership, m, y)
        for z in wealth_probes_for(rng, m, 3):
            q.under("xc feasibility", xc_feasibility, m, z)
            q.under("xc measure", xc_measure_membership, m, z)
            q.under("wealth bipolar", wealth_bipolar_contains, m, z)
        dens = random_consumption_density(rng, tree)
        value = market.superhedge_value(m, dens).value
        for x in (value, value + 1, value / 2):
            q.under("budget primal", budget_check, m, dens, x)
    q.assert_disjoint("y enlargement", "xc polar", "density hull")
    q.assert_disjoint("xc feasibility", "xc measure", "wealth bipolar")
    q.assert_disjoint("budget primal", "superhedge")
