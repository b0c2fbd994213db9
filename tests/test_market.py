import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from procpolar import exact_lp, fuzz, market
from procpolar.errors import PostconditionError, PreconditionError, RationalFormatError
from procpolar.fuzz import (
    _sample_measures,
    check_market_instance,
    deflator_probes_for,
    instance_rng,
    random_consumption_density,
    random_market,
    random_positive_weights,
    random_tree,
    wealth_probes_for,
)
from procpolar.market import (
    ConsumptionDensity,
    ConsumptionProcess,
    Market,
    Strategy,
    _density_hull_system,
    _hedge_system,
    _least_capital,
    budget_check,
    consumption_polytope,
    density_process,
    density_hull_membership,
    emm_polytope,
    is_admissible,
    lifted_deflator_system,
    local_polytope,
    pure_investment_polytope,
    sample_consumption_wealth,
    superhedge_value,
    verify_structure,
    wealth_bipolar_contains,
    wealth_map,
    wealth_process,
    wealth_values,
    xc_feasibility,
    xc_measure_membership,
    xc_polar_membership,
    y_enlargement_membership,
)
from procpolar.process_polar import defect_terms
from procpolar.processes import AdaptedProcess, is_martingale, is_supermartingale
from procpolar.exact_lp import (
    EQ,
    GE,
    LinearConstraint,
    LinearSystem,
    LpOutcome,
    LpStatus,
    maximize,
    minimize,
    vector,
)
from procpolar.tree import (
    EventTree,
    RandomVariable,
    terminal_space,
)


def _zero_strategy(tree, d):
    """No holdings of any of ``d`` assets at every non-terminal node."""
    return Strategy(
        tree,
        tuple(
            None if tree.is_terminal(n) else (F(0),) * d for n in range(tree.num_nodes)
        ),
    )


def test_wealth_zero_strategy_constant(t1, m1):
    h = _zero_strategy(t1, 1)
    assert wealth_values(m1, 5, h, ConsumptionProcess.zero(t1)) == (F(5), F(5), F(5))


def test_wealth_fixture_hand_value(t1, m1):
    h = Strategy(t1, ((F(1, 6),), None, None))
    vals = wealth_values(m1, 1, h, ConsumptionProcess.zero(t1))
    assert vals == (F(1), F(5, 3), F(2, 3))
    assert is_admissible(m1, 1, h, ConsumptionProcess.zero(t1))
    assert wealth_process(m1, 1, h, ConsumptionProcess.zero(t1)).values == vals


@pytest.mark.parametrize("bad", [0.1, True, False])
def test_strategy_refuses_float_and_bool_holdings(t1, m1, bad):
    with pytest.raises(RationalFormatError):
        Strategy(t1, ((bad,), None, None))


def test_strategy_holdings_are_fractions(t1, m1):
    h = Strategy(t1, ([1], None, None))
    assert h.holdings == ((F(1),), None, None)
    assert all(type(v) is F for v in h.at(0))
    same = (F(1, 6),)
    assert Strategy(t1, (same, None, None)).at(0) is same
    vals = wealth_values(m1, 0, h, ConsumptionProcess.zero(t1))
    assert vals == (F(0), F(4), F(-2)) and all(type(v) is F for v in vals)


@pytest.mark.parametrize("weights", [(False, True), (0.0, 1.0), (F(0), 1.0)])
def test_consumption_density_refuses_float_and_bool_weights(t1, weights):
    with pytest.raises(RationalFormatError):
        ConsumptionDensity(AdaptedProcess.constant(t1, 1), weights)


def test_consumption_density_weights_are_fractions(t1):
    dens = ConsumptionDensity(AdaptedProcess.constant(t1, 1), (0, "1"))
    assert dens.weights == (F(0), F(1)) and all(type(w) is F for w in dens.weights)


def test_wealth_consumption_linearity(t1, m1):
    h = Strategy(t1, ((F(1, 6),), None, None))
    cons = ConsumptionProcess(AdaptedProcess.from_mapping(t1, {0: 0, 1: "1/3", 2: "1/3"}))
    with_c = wealth_values(m1, 1, h, cons)
    without = wealth_values(m1, 1, h, ConsumptionProcess.zero(t1))
    assert tuple(a + b for a, b in zip(with_c, cons.cumulative.values)) == without


def test_zero_capital_with_consumption_inadmissible(t1, m1):
    cons = ConsumptionProcess(AdaptedProcess.from_mapping(t1, {0: 0, 1: 1, 2: 1}))
    assert not is_admissible(m1, 0, _zero_strategy(t1, 1), cons)


def test_emm_complete_market(m1):
    poly = emm_polytope(m1)
    assert poly.interior == (F(1, 3), F(2, 3))


def test_emm_incomplete_family(m2):
    poly = emm_polytope(m2)
    assert poly.interior is not None
    q8, q4, q2 = poly.interior
    assert q4 == 1 - 3 * q8 and q2 == 2 * q8 and 0 < q8 < F(1, 3)


def test_market_without_measure_rejected(t1):
    # the root price sits above every child price: supermartingale prices only
    s = AdaptedProcess.from_mapping(t1, {0: 4, 1: 3, 2: 2})
    with pytest.raises(PreconditionError):
        Market.of(t1, [s])
    assert emm_polytope(Market(t1, (s,))).interior is None


def test_superhedge_and_budget_refuse_a_market_without_a_martingale_measure(t1):
    # S = (4; 8, 4): the one-step polytope is the single point q = (0, 1),
    # which gives u no weight, so no equivalent martingale measure exists
    m = Market(t1, (AdaptedProcess.from_mapping(t1, {0: 4, 1: 8, 2: 4}),))
    assert emm_polytope(m).interior is None
    dens = ConsumptionDensity(
        AdaptedProcess.from_mapping(t1, {0: 0, 1: 3, 2: 0}), (F(0), F(1))
    )
    claim = RandomVariable(terminal_space(t1), (F(3), F(0)))
    for ask in (
        lambda: superhedge_value(m, claim),
        lambda: superhedge_value(m, dens),
        lambda: budget_check(m, dens, 0),
    ):
        with pytest.raises(PreconditionError, match="no equivalent martingale measure"):
            ask()


def test_an_empty_one_step_polytope_of_a_valid_market_is_a_defect(
    monkeypatch, m1, t1
):
    monkeypatch.setattr(
        market, "maximize", lambda system, terms: LpOutcome(LpStatus.INFEASIBLE)
    )
    claim = RandomVariable(terminal_space(t1), (F(3), F(0)))
    with pytest.raises(PostconditionError, match="one-step polytope empty"):
        superhedge_value(m1, claim)


def _whole_tree_emm(m):
    """Reference for ``emm_polytope``: one system over every non-root q,
    with the probability and price rows of every non-terminal node, and its
    interior point found by one LP with an auxiliary eps column."""
    tree = m.tree
    var_nodes = tuple(n for n in range(tree.num_nodes) if tree.parent[n] is not None)
    pos = {n: i for i, n in enumerate(var_nodes)}
    n_vars = len(var_nodes)
    rows = []
    for n in tree.non_terminal_nodes():
        kids = tree.children[n]
        terms = [(pos[ch], F(1)) for ch in kids]
        rows.append(LinearConstraint(terms, EQ, F(1), f"prob@{tree.labels[n]}"))
        for i in range(m.d):
            price = m.prices[i].values
            terms = [(pos[ch], price[ch]) for ch in kids]
            rows.append(
                LinearConstraint(terms, EQ, price[n], f"price[{i}]@{tree.labels[n]}")
            )
    system = LinearSystem.make(n_vars, rows, lower=0)
    return system, exact_lp.feasible_interior_point(system)


def _random_prices(rng, tree):
    """Prices that are martingales under a hidden one-step measure, which is
    strictly positive, or has zeros, or is not there at all (random prices
    on every node): valid, borderline and mostly invalid markets."""
    kind = rng.randrange(3)
    prices = []
    for _ in range(rng.randint(1, 2)):
        vals = [F(rng.randint(1, 6)) for _ in range(tree.num_nodes)]
        for n in tree.non_terminal_nodes() if kind < 2 else ():
            kids = tree.children[n]
            q = [F(rng.randint(0 if kind else 1, 3)) for _ in kids]
            q[rng.randrange(len(kids))] += 1
            mean = sum(a * vals[ch] for a, ch in zip(q, kids)) / sum(q)
            for ch in kids:
                vals[ch] *= vals[n] / mean
        prices.append(AdaptedProcess(tree, tuple(vals)))
    return prices


def test_validity_matches_the_whole_tree_reference():
    rng = random.Random(16)
    accepted = rejected = 0
    for _ in range(320):
        tree = random_tree(rng, 3, 3)
        prices = _random_prices(rng, tree)
        unchecked = Market(tree, tuple(prices))
        system, reference = _whole_tree_emm(unchecked)
        try:
            m = Market.of(tree, prices)
        except PreconditionError:
            assert reference is None
            assert emm_polytope(unchecked).interior is None
            rejected += 1
            continue
        assert reference is not None
        poly = emm_polytope(m)
        assert all(v > 0 for v in poly.interior)
        assert system.satisfied_by(poly.interior)
        assert poly.contains(reference)
        assert density_process(m, poly.interior).initial == 1
        accepted += 1
    assert accepted >= 60 and rejected >= 60


def test_measure_points_of_the_wrong_length_are_rejected(m1, m2):
    for m in (m1, m2):
        q = emm_polytope(m).interior
        assert emm_polytope(m).contains(q)
        for wrong in (q[:-1], q + (F(0),)):
            with pytest.raises(PreconditionError):
                emm_polytope(m).contains(wrong)
            with pytest.raises(PreconditionError):
                density_process(m, wrong)


def _binary_tree(depth):
    parents, probs = [None], [None]
    for n in range(2**depth - 1):
        parents += [n, n]
        probs += ["1/2", "1/2"]
    return EventTree.build(parents, probs)


def test_large_markets_solve_only_node_sized_systems(monkeypatch):
    tree = _binary_tree(9)
    assert tree.num_nodes == 1023
    widths = []
    solve = exact_lp.solve
    monkeypatch.setattr(
        exact_lp,
        "solve",
        lambda problem: widths.append(problem.system.num_vars) or solve(problem),
    )
    m = random_market(random.Random(5), tree, 1)
    assert m.d == 1 and len(widths) == 511
    assert max(widths) <= max(len(kids) for kids in tree.children) + 1
    one = AdaptedProcess.constant(tree, 1)
    assert xc_feasibility(m, one).feasible
    assert xc_measure_membership(m, one).member
    # one unit more at a leaf: no holdings reach it, and every equivalent
    # measure sees it
    bumped = one.with_value(1022, F(2))
    assert not xc_feasibility(m, bumped).feasible
    assert not xc_measure_membership(m, bumped).member


def test_rows_store_only_their_nonzero_terms(monkeypatch):
    """A row holds its terms, not its system's width: on a 1023-node binary
    market the lifted deflator system and the consumption polytope hold a
    few terms per node, and the interior-point LP reuses the row objects of
    the system it extends."""
    tree = _binary_tree(9)
    m = random_market(random.Random(5), tree, 1)
    nodes = tree.num_nodes
    lifted = lifted_deflator_system(m)
    assert sum(len(row.terms) for row in lifted.rows) <= 6 * nodes
    polytope = consumption_polytope(m, 1)
    bound = (tree.horizon + 1) * (m.d + 1) * nodes
    assert sum(len(row.terms) for row in polytope.rows) <= bound
    system = local_polytope(m, 0)
    asked = []
    solve = exact_lp.solve
    monkeypatch.setattr(exact_lp, "solve", lambda p: asked.append(p.system) or solve(p))
    assert exact_lp.feasible_interior_point(system) is not None
    (ext,) = asked
    assert ext.num_vars == system.num_vars + 1
    assert len(ext.rows) == len(system.rows) + system.num_vars
    assert all(a is b for a, b in zip(ext.rows, system.rows))


def test_density_process_fixture(m1):
    y = density_process(m1, (F(1, 3), F(2, 3)))
    assert y.values == (F(1), F(2, 3), F(4, 3))
    assert is_martingale(y)


def test_density_of_reference_measure(t1):
    s = AdaptedProcess.from_mapping(t1, {0: 1, 1: "3/2", 2: "1/2"})
    m = Market.of(t1, [s])
    assert density_process(m, (F(1, 2), F(1, 2))).values == (F(1), F(1), F(1))


def test_density_boundary_point_flagged(m2):
    y = density_process(m2, (F(1, 3), F(0), F(2, 3)))
    assert y.values[2] == 0  # vanishes on the middle branch: not equivalent
    assert is_martingale(y)


def test_density_requires_feasible_point(m1):
    with pytest.raises(PreconditionError):
        density_process(m1, (F(1, 2), F(1, 2)))


def test_pure_investment_polytope_contents(t1, m1):
    # columns: w0, then the holding at the root
    ws = pure_investment_polytope(m1, 1)
    assert ws.var_names == ("w0", "h(root,0)")
    assert ws.satisfied_by((F(1), F(0)))  # X = 1, h = 0
    assert ws.satisfied_by((F(1), F(1, 6)))
    assert ws.satisfied_by((F(1), F(1, 2)))  # wealth 0 at d
    assert ws.violations((F(1), F(1))) == ("solvency@d",)
    assert ws.violations((F(2), F(0))) == ("w0 above upper bound",)
    wealth = wealth_map(m1, False)
    assert wealth.decode((F(1), F(1, 6)))[0].values == (F(1), F(5, 3), F(2, 3))
    # every feasible point prices to at most x under the unique measure
    rng = random.Random(0)
    for _ in range(10):
        objective = [(j, F(rng.randint(-2, 2))) for j in range(ws.num_vars)]
        out = maximize(ws, objective)
        if out.status is LpStatus.OPTIMAL:
            x = wealth.decode(out.point)[0].values
            assert F(1, 3) * x[1] + F(2, 3) * x[2] <= 1


def test_system_builders_return_one_object_per_market(m1):
    # phase 1 is cached per system object: repeated probes must get the same one
    assert local_polytope(m1, 0) is local_polytope(m1, 0)
    assert pure_investment_polytope(m1, 1) is pure_investment_polytope(m1, "1")
    assert consumption_polytope(m1, 1) is consumption_polytope(m1, 1)
    assert lifted_deflator_system(m1) is lifted_deflator_system(m1)


def test_market_caches_are_freed_with_the_market(t1):
    s = AdaptedProcess.from_mapping(t1, {0: 4, 1: 8, 2: 2})
    m = Market.of(t1, [s])
    z = AdaptedProcess.from_mapping(t1, {0: 1, 1: "3/2", 2: "1/2"})
    y = density_process(m, (F(1, 3), F(2, 3)))
    assert xc_feasibility(m, z).feasible
    assert xc_polar_membership(m, y).member and y_enlargement_membership(m, y).member
    assert wealth_bipolar_contains(m, z).member
    local_polytope(m, 0)
    # the memo is invisible to value semantics
    fresh = Market(t1, (s,))
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_a_market_is_freed_without_the_cyclic_collector(gc_off):
    rng = random.Random(7)
    tree = random_tree(rng, 3, 2)
    m = random_market(rng, tree, 2)
    records = verify_structure(
        m, deflator_probes_for(rng, m, 3), wealth_probes_for(rng, m, 3), rng
    )
    assert all(r.ok for r in records)
    budget_check(m, random_consumption_density(rng, tree), 1)
    memos = ("_memo_emm_polytope", "_memo_superhedge_value", "_memo__least_capital")
    assert all(key in vars(m) for key in memos)
    ref = weakref.ref(m)
    del m
    assert ref() is None


def test_probe_systems_are_memoised_on_the_market(t1):
    s = AdaptedProcess.from_mapping(t1, {0: 4, 1: 8, 2: 2})
    m = Market.of(t1, [s])
    fixed = Market.of(t1, [s])
    # one system object per market, node and probe data
    y = density_process(m, (F(1, 3), F(2, 3)))
    kids = (y.values[1], y.values[2])
    hull = _density_hull_system(m, 0, y.initial, kids)
    assert _density_hull_system(m, 0, y.initial, kids) is hull
    assert _density_hull_system(m, 0, F(1, 2), kids) is not hull
    assert _density_hull_system(m, 0, y.initial, (F(1), F(1))) is not hull
    assert _density_hull_system(fixed, 0, y.initial, kids) is not hull
    assert _density_hull_system(fixed, 0, y.initial, kids) == hull
    increments = (F(2, 3), F(-1, 3))
    hedge = _hedge_system(m, 0, increments)
    assert _hedge_system(m, 0, increments) is hedge
    assert _hedge_system(m, 0, (F(1), F(-1, 3))) is not hedge
    assert _hedge_system(fixed, 0, increments) is not hedge
    assert _hedge_system(fixed, 0, increments) == hedge
    # the oracles ask over those objects
    assert density_hull_membership(m, y).member and hull._outcomes
    z = AdaptedProcess.from_mapping(t1, {0: 1, 1: "5/3", 2: "2/3"})
    assert xc_feasibility(m, z).feasible and hedge._outcomes
    # the memo is invisible to value semantics
    assert m == fixed and hash(m) == hash(fixed) and repr(m) == repr(fixed)
    ref = weakref.ref(m)
    del m, hull, hedge
    gc.collect()
    assert ref() is None


def test_memoised_market_oracles_match_fresh_markets():
    rng = random.Random(31)
    rejected = admissible = 0
    for _ in range(6):
        tree = random_tree(rng, 3, 2)
        m = random_market(rng, tree, 2)

        def twin():
            return Market(m.tree, m.prices)  # equal, with an empty memo

        # m is reused across probes; each twin answers its first probe
        for y in deflator_probes_for(rng, m, 3):
            reused = density_hull_membership(m, y)
            assert reused == density_hull_membership(twin(), y)
            rejected += not reused.member
        for z in wealth_probes_for(rng, m, 3):
            reused = xc_feasibility(m, z)
            assert reused == xc_feasibility(twin(), z)
            rejected += not reused.feasible
        dens = random_consumption_density(rng, tree)
        value = superhedge_value(m, dens)
        assert value == superhedge_value(twin(), dens)
        for x in (value.value, value.value + 1, value.value / 2):
            reused = budget_check(m, dens, x)
            assert reused == budget_check(twin(), dens, x)
            admissible += reused.admissible
    assert rejected >= 10 and admissible >= 12


def test_consumption_polytope_reduces_to_pure(t1, m1):
    # columns: w0, the holding at the root, then c(u) and c(d)
    ws = consumption_polytope(m1, 1)
    pure = pure_investment_polytope(m1, 1)
    for point in ((F(1), F(1, 6)), (F(1), F(1, 2)), (F(1), F(1)), (F(2), F(0))):
        assert ws.satisfied_by(point + (F(0), F(0))) is pure.satisfied_by(point)
    consume_all = (F(1), F(1, 6), F(0), F(2, 3))
    assert ws.satisfied_by(consume_all)
    wealth, strategy, consumption = wealth_map(m1, True).decode(consume_all)
    assert wealth.values == (F(1), F(5, 3), F(0))
    assert consumption.cumulative.values == (F(0), F(0), F(2, 3))
    assert wealth_values(m1, 1, strategy, consumption) == wealth.values
    assert ws.violations((F(1), F(1, 6), F(-1, 2), F(0))) == ("c(u) below lower bound",)
    assert ws.violations((F(1), F(1, 6), F(0), F(1))) == ("solvency@d",)


def _map_cases():
    """Seeded markets, each with its wealth maps and their systems at
    budget 1, without and with consumption."""
    rng = random.Random(43)
    for _ in range(10):
        m = random_market(rng, random_tree(rng, 3, 2), 2)
        for consumption, build in (
            (False, pure_investment_polytope),
            (True, consumption_polytope),
        ):
            yield rng, m, wealth_map(m, consumption), build(m, 1)


def test_map_objective_is_the_transpose_of_the_decoded_wealth():
    checked = consumed = 0
    for rng, m, wealth, system in _map_cases():
        n_nodes = m.tree.num_nodes
        points = []
        for _ in range(3):
            objective = [(j, F(rng.randint(-2, 2))) for j in range(system.num_vars)]
            # a point of the system, whether its maximum is bounded or not
            points.append(maximize(system, objective).point)
        for _ in range(10):
            weights = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n_nodes)]
            spent = []
            if wealth.consumption:
                spent = [F(rng.randint(-2, 2)) for _ in range(n_nodes)]
            objective = wealth.objective(weights, spent)
            # each column once, in range and in order
            columns = [j for j, _ in objective]
            assert columns == sorted(set(columns))
            assert 0 <= columns[0] and columns[-1] < system.num_vars
            for point in points:
                x, _, cons = wealth.decode(point)
                expected = sum(a * v for a, v in zip(weights, x.values))
                if spent:
                    c = cons.cumulative.values
                    expected += sum(b * v for b, v in zip(spent, c))
                    consumed += any(c)
                assert sum(a * point[j] for j, a in objective) == expected
                checked += 1
    assert checked == 600 and consumed > 0


def test_wealth_systems_make_no_phase_one_pivot(monkeypatch):
    pivots = []
    pivot = exact_lp._pivot
    monkeypatch.setattr(
        exact_lp, "_pivot", lambda *args: pivots.append(args[3:]) or pivot(*args)
    )
    seen = 0
    for _, m, _, system in _map_cases():
        assert all(r.relation == "<=" and r.rhs == 0 for r in system.rows)
        pivots.clear()  # building the market pivots
        assert exact_lp._feasible_start(system) is not None
        assert not pivots
        seen += 1
        # the counter counts: the lifted deflator system's rows need artificials
        exact_lp._feasible_start(lifted_deflator_system(m))
        assert pivots
    assert seen == 20


def test_a_consumption_vertex_replays_as_wealth():
    consumed = 0
    for rng, m, wealth, system in _map_cases():
        for _ in range(4):
            weights = [F(rng.randint(-2, 3)) for _ in range(m.tree.num_nodes)]
            out = maximize(system, wealth.objective(weights))
            assert out.status is LpStatus.OPTIMAL
            x, strategy, consumption = wealth.decode(out.point)
            assert wealth_values(m, out.point[0], strategy, consumption) == x.values
            assert is_admissible(m, 1, strategy, consumption)
            consumed += any(consumption.cumulative.values)
    assert consumed > 0


def test_wealth_values_subtract_the_consumption_increments(t1, m1):
    # cumulative consumption 0, 1, 2: increments 1 and 2 into u and d, none
    # at the root, so zero holdings from capital 2 leave wealth 2, 1, 0
    cons = ConsumptionProcess(AdaptedProcess.from_mapping(t1, {0: 0, 1: 1, 2: 2}))
    wealth = wealth_values(m1, 2, _zero_strategy(t1, 1), cons)
    assert wealth == (F(2), F(1), F(0))


def test_deflator_oracles_fixture(t1, m1):
    y = density_process(m1, (F(1, 3), F(2, 3)))
    one = AdaptedProcess.constant(t1, 1)
    bad = AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 0})
    for probe, expected in ((y, True), (one, False), (bad, False)):
        assert y_enlargement_membership(m1, probe).member is expected
        assert xc_polar_membership(m1, probe).member is expected
        assert density_hull_membership(m1, probe).member is expected


def test_deflator_solid_multiple(t1, m1):
    from procpolar.processes import NonIncreasingProcess, solid_multiply

    y = density_process(m1, (F(1, 3), F(2, 3)))
    b = NonIncreasingProcess(AdaptedProcess.from_mapping(t1, {0: 1, 1: 1, 2: "1/2"}))
    assert y_enlargement_membership(m1, solid_multiply(y, b)).member


def test_wealth_membership_oracles(t1, m1):
    h = Strategy(t1, ((F(1, 6),), None, None))
    z = wealth_process(m1, 1, h, ConsumptionProcess.zero(t1))
    over = z.scale(F(3, 2))
    for probe, expected in ((z, True), (over, False)):
        assert xc_feasibility(m1, probe).feasible is expected
        assert xc_measure_membership(m1, probe).member is expected
        assert wealth_bipolar_contains(m1, probe).member is expected


def test_xc_feasibility_certificate_replays(t1, m1):
    z = AdaptedProcess.from_mapping(t1, {0: 1, 1: "3/2", 2: "1/2"})
    res = xc_feasibility(m1, z)
    assert res.feasible
    assert res.strategy is not None and res.consumption is not None
    assert wealth_values(m1, 1, res.strategy, res.consumption) == z.values


def _whole_tree_xc_feasible(m, z):
    """Reference for ``xc_feasibility``: one LP over the whole tree, with
    free holdings at every non-terminal node and a cumulative consumption
    per node that starts at 0 and never decreases, the wealth pinned to z."""
    tree = m.tree
    if z.initial > 1:
        return False
    hold = {n: r * m.d for r, n in enumerate(tree.non_terminal_nodes())}
    n_hold = len(hold) * m.d
    n_vars = n_hold + tree.num_nodes
    rows = [LinearConstraint(((n_hold, F(1)),), EQ, F(0))]
    for ch in range(1, tree.num_nodes):
        par = tree.parent[ch]
        terms = [
            (hold[par] + i, s.values[ch] - s.values[par]) for i, s in enumerate(m.prices)
        ]
        terms += ((n_hold + ch, F(-1)), (n_hold + par, F(1)))
        rows.append(LinearConstraint(terms, EQ, z.values[ch] - z.values[par]))
        cons = ((n_hold + ch, F(1)), (n_hold + par, F(-1)))
        rows.append(LinearConstraint(cons, GE, F(0)))
    lower = [None] * n_hold + [F(0)] * tree.num_nodes
    system = LinearSystem.make(n_vars, rows, lower=lower)
    return minimize(system, ()).status is not LpStatus.INFEASIBLE


def test_xc_feasibility_matches_whole_tree_reference():
    rng = random.Random(31)
    verdicts = []
    horizons = set()
    for _ in range(24):
        tree = random_tree(rng, 4, 2)
        horizons.add(tree.horizon)
        m = random_market(rng, tree, 2)
        for z in wealth_probes_for(rng, m, 5):
            res = xc_feasibility(m, z)
            assert res.feasible is _whole_tree_xc_feasible(m, z)
            assert res.feasible is xc_measure_membership(m, z).member
            verdicts.append(res.feasible)
            if res.feasible:
                assert wealth_values(m, z.initial, res.strategy, res.consumption) == z.values
    assert 4 in horizons
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def _check_defect_witness(system, z, res):
    """A "no" with a node must carry a point of ``system`` at which the
    product with ``z`` has a positive defect at that node."""
    assert system.satisfied_by(res.witness_point)
    terms = defect_terms(z, res.node)
    assert sum(a * res.witness_point[j] for j, a in terms) > 0


def test_every_no_carries_a_witness_that_substitutes():
    rng = random.Random(37)
    kinds = {"defect": 0, "initial": 0, "unit-wealth": 0, "measure": 0}
    for _ in range(30):
        m = random_market(rng, random_tree(rng, 3, 2), 2)
        tree = m.tree
        for y in deflator_probes_for(rng, m, 3):
            for oracle, build, consumption in (
                (y_enlargement_membership, pure_investment_polytope, False),
                (xc_polar_membership, consumption_polytope, True),
            ):
                res = oracle(m, y)
                if res.member:
                    continue
                system = build(m, 1)
                assert system.satisfied_by(res.witness_point)
                # the witness as a wealth process, checked without the map's objective
                wealth = wealth_map(m, consumption).decode(res.witness_point)[0]
                product = y.pointwise_mul(wealth)
                if res.node is None:
                    assert res.witness_point == vector(system.num_vars, ((0, F(1)),))
                    assert wealth == AdaptedProcess.constant(tree, 1)
                    assert product.initial > 1
                    kinds["unit-wealth"] += 1
                else:
                    # the one-step expectation at the node beats its value
                    n = res.node
                    expected = sum(
                        tree.edge_prob[ch] * product.values[ch]
                        for ch in tree.children[n]
                    )
                    assert expected > product.values[n]
                    kinds["defect"] += 1
        for z in wealth_probes_for(rng, m, 3):
            res = wealth_bipolar_contains(m, z)
            if not res.member:
                lifted = lifted_deflator_system(m)
                if res.node is None:
                    assert lifted.satisfied_by(res.witness_point)
                    assert z.initial * res.witness_point[0] > 1
                    kinds["initial"] += 1
                else:
                    _check_defect_witness(lifted, z, res)
                    kinds["defect"] += 1
            res = xc_measure_membership(m, z)
            if not res.member and res.node is not None:
                n, q = res.node, res.witness_point
                assert local_polytope(m, n).satisfied_by(q)
                kids = tree.children[n]
                assert sum(p * z.values[ch] for p, ch in zip(q, kids)) > z.values[n]
                kinds["measure"] += 1
    assert all(kinds.values()), kinds
    assert sum(kinds.values()) >= 50, kinds


def test_superhedge_complete_replication(m1, t1):
    claim = RandomVariable(terminal_space(t1), (F(3), F(0)))
    res = superhedge_value(m1, claim)
    assert res.value == 1
    assert res.residual.values == (F(0), F(0), F(0))
    assert res.wealth.values == (F(1), F(3), F(0))


def test_superhedge_zero_claim(m2, t3):
    space = terminal_space(t3)
    claim = RandomVariable(space, (0,) * space.size)
    assert superhedge_value(m2, claim).value == 0


def test_superhedge_trinomial_call(m2, t3):
    claim = RandomVariable(terminal_space(t3), (F(3), F(0), F(0)))
    res = superhedge_value(m2, claim)
    assert res.value == 1
    assert res.argmax_measure == (F(1, 3), F(0), F(2, 3))
    assert all(w >= c for w, c in zip(res.wealth.values, (F(0),) * 4))
    assert all(
        res.wealth.values[n] >= res.envelope.values[n] for n in range(t3.num_nodes)
    )


def test_superhedge_consumption_stream(m1, t1):
    dens = ConsumptionDensity(
        AdaptedProcess.from_mapping(t1, {0: 0, 1: 3, 2: 0}), (F(0), F(1))
    )
    res = superhedge_value(m1, dens)
    assert res.value == 1


def test_budget_fixture_boundary(m2, t3):
    dens = ConsumptionDensity(
        AdaptedProcess.from_mapping(t3, {0: 0, 1: 3, 2: 0, 3: 0}), (F(0), F(1))
    )
    assert budget_check(m2, dens, 1).admissible
    below = budget_check(m2, dens, "99/100")
    assert not below.admissible
    assert below.violating_measure == (F(1, 3), F(0), F(2, 3))


def test_budget_zero_density(m1, t1):
    dens = ConsumptionDensity(AdaptedProcess.constant(t1, 0), (F(0), F(1)))
    assert budget_check(m1, dens, 0).admissible


def test_budget_constant_density_at_horizon(m1, t1):
    dens = ConsumptionDensity(AdaptedProcess.constant(t1, 1), (F(0), F(1)))
    # claim is the constant 1 at the horizon: superhedge = E_Q[1] = 1
    assert budget_check(m1, dens, 1).admissible
    assert not budget_check(m1, dens, "9/10").admissible


def test_budget_strategy_certificate(m2, t3):
    dens = ConsumptionDensity(
        AdaptedProcess.from_mapping(t3, {0: 0, 1: 3, 2: 0, 3: 0}), (F(0), F(1))
    )
    out = budget_check(m2, dens, 2)
    assert out.admissible and out.strategy is not None
    assert is_admissible(m2, 2, out.strategy, dens.cumulative())


def test_density_product_supermartingale(m1):
    # deflated consumption wealth is a supermartingale, exactly
    rng = random.Random(5)
    y = density_process(m1, (F(1, 3), F(2, 3)))
    pairs = [p for _ in range(3) for p in sample_consumption_wealth(m1, rng)]
    for w, cons in pairs:
        prod = y.pointwise_mul(w)
        assert prod.initial <= 1
        assert is_supermartingale(prod)


def test_deflator_sandwich_on_random_markets():
    # every density passes; everything that passes starts at most at 1 and
    # is a supermartingale under the reference measure (deflate X = 1)
    rng = random.Random(41)
    for _ in range(6):
        tree = random_tree(rng, 3, 2)
        m = random_market(rng, tree, 1)
        poly = emm_polytope(m)
        assert y_enlargement_membership(m, density_process(m, poly.interior)).member
        for y in deflator_probes_for(rng, m, 3):
            if y_enlargement_membership(m, y).member:
                assert y.initial <= 1
                assert is_supermartingale(y)


def test_structure_report_fixture(m1, t1):
    rng = random.Random(11)
    records = verify_structure(
        m1, deflator_probes_for(rng, m1, 3), wealth_probes_for(rng, m1, 3), rng
    )
    assert all(r.ok for r in records)


def test_structure_on_random_markets():
    rng = random.Random(23)
    for _ in range(6):
        tree = random_tree(rng, 3, 2)
        m = random_market(rng, tree, 2)
        records = verify_structure(
            m, deflator_probes_for(rng, m, 2), wealth_probes_for(rng, m, 2), rng
        )
        assert all(r.ok for r in records), [r for r in records if not r.ok]


def test_budget_coincidence_on_random_markets():
    rng = random.Random(29)
    for _ in range(6):
        tree = random_tree(rng, 3, 2)
        m = random_market(rng, tree, 1)
        dens = random_consumption_density(rng, tree)
        value = superhedge_value(m, dens).value
        assert budget_check(m, dens, value).admissible
        assert budget_check(m, dens, value + 1).admissible
        if value > 0:
            assert not budget_check(m, dens, value - F(1, 1000)).admissible


def test_budget_check_asks_each_oracle_once_per_density(monkeypatch, m2, t3):
    recursions = []
    obligation = market._terminal_obligation  # called once per recursion
    monkeypatch.setattr(
        market,
        "_terminal_obligation",
        lambda m, claim: recursions.append(claim) or obligation(m, claim),
    )
    primal = []  # solves over a least-capital system
    solve = exact_lp.solve
    monkeypatch.setattr(
        exact_lp,
        "solve",
        lambda problem: (
            any(r.label.startswith("solvency@") for r in problem.system.rows)
            and primal.append(problem)
        )
        or solve(problem),
    )
    dens = ConsumptionDensity(
        AdaptedProcess.from_mapping(t3, {0: 0, 1: 3, 2: 0, 3: 0}), (F(0), F(1))
    )
    # value 1: one capital below, one at and one above it
    verdicts = [budget_check(m2, dens, x).admissible for x in ("99/100", 1, 2)]
    assert verdicts == [False, True, True]
    assert len(recursions) == 1 and len(primal) == 1
    twin = Market(m2.tree, m2.prices)  # equal, with its own memo
    assert budget_check(twin, dens, 1).admissible
    assert len(recursions) == 2 and len(primal) == 2


def _budget_cases(m1, t1):
    """Markets and densities: seeded random markets, a zero and a constant
    density on ``m1``, and a one-node market."""
    rng = random.Random(29)
    for _ in range(6):
        tree = random_tree(rng, 3, 2)
        m = random_market(rng, tree, 2)
        yield m, random_consumption_density(rng, tree)
    yield m1, ConsumptionDensity(AdaptedProcess.constant(t1, 0), (F(0), F(1)))
    yield m1, ConsumptionDensity(AdaptedProcess.constant(t1, 1), (F(0), F(1)))
    root = EventTree.build([None], [None], ["root"])
    yield (
        Market.of(root, [AdaptedProcess.constant(root, 4)]),
        ConsumptionDensity(AdaptedProcess.constant(root, 0), (F(1),)),
    )


def test_least_capital_equals_the_superhedge_value(m1, t1):
    values = []
    for m, dens in _budget_cases(m1, t1):
        least, strategy = _least_capital(m, dens)
        assert least == superhedge_value(m, dens).value
        assert is_admissible(m, least, strategy, dens.cumulative())
        values.append(least)
    assert values[-3:] == [0, 1, 0] and any(v > 0 for v in values[:-3])


def test_budget_check_rejects_a_shifted_least_capital(monkeypatch, m1, t1):
    least_capital = market._least_capital
    for shift in (F(1, 100), F(-1, 100)):
        monkeypatch.setattr(
            market,
            "_least_capital",
            lambda m, dens: (least_capital(m, dens)[0] + shift, None),
        )
        for m, dens in _budget_cases(m1, t1):
            value = superhedge_value(m, dens).value
            with pytest.raises(PostconditionError, match="least capital") as exc:
                budget_check(m, dens, value)
            assert f"least capital {value + shift} " in str(exc.value)
            assert str(exc.value).endswith(f"superhedge value {value}")


def test_claim_memos_are_freed_with_the_market(t3):
    s = AdaptedProcess.from_mapping(t3, {0: 4, 1: 8, 2: 4, 3: 2})
    m = Market.of(t3, [s])
    fresh = Market(t3, (s,))
    before = (hash(m), repr(m))
    dens = ConsumptionDensity(
        AdaptedProcess.from_mapping(t3, {0: 0, 1: 3, 2: 0, 3: 0}), (F(0), F(1))
    )
    claim = RandomVariable(terminal_space(t3), (F(3), F(0), F(0)))
    assert superhedge_value(m, claim).value == 1
    assert budget_check(m, dens, 1).admissible
    assert not budget_check(m, dens, "1/2").admissible
    # the memo is invisible to value semantics
    assert m == fresh and (hash(m), repr(m)) == before == (hash(fresh), repr(fresh))
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_local_polytope_matches_global_interior(m2, t3):
    local = local_polytope(m2, 0)
    assert local.satisfied_by(emm_polytope(m2).interior)


def _concave_envelope_value(points, spot):
    """sup of E_Q[payoff] over one-step single-asset martingale measures.

    Measures supported on the children with mean price equal to the spot:
    the supremum is the concave envelope of the (price, payoff) points at
    the spot, i.e. the best one- or two-point mixture.  Interval
    arithmetic only, no LP.
    """
    best = None
    for (s_i, c_i) in points:
        if s_i == spot and (best is None or c_i > best):
            best = c_i
    for (s_i, c_i) in points:
        for (s_j, c_j) in points:
            if s_i < spot < s_j:
                w = (s_j - spot) / (s_j - s_i)
                value = w * c_i + (1 - w) * c_j
                if best is None or value > best:
                    best = value
    return best


def test_superhedge_homogeneous_monotone_subadditive():
    # metamorphic checks on the value: positive homogeneity, monotonicity
    # in the claim, and subadditivity, all exact
    rng = random.Random(61)
    from procpolar.tree import terminal_space as tspace

    for _ in range(8):
        tree = random_tree(rng, 3, 2)
        m = random_market(rng, tree, 1)
        space = tspace(tree)
        c1 = RandomVariable(
            space, tuple(F(rng.randint(0, 4)) for _ in space.outcomes)
        )
        c2 = RandomVariable(
            space, tuple(F(rng.randint(0, 4)) for _ in space.outcomes)
        )
        v1 = superhedge_value(m, c1).value
        v2 = superhedge_value(m, c2).value
        lam = F(rng.randint(1, 5), rng.randint(1, 3))
        assert superhedge_value(m, c1.scale(lam)).value == lam * v1
        total = RandomVariable(
            space, tuple(a + b for a, b in zip(c1.values, c2.values))
        )
        assert superhedge_value(m, total).value <= v1 + v2
        if all(a >= b for a, b in zip(c1.values, c2.values)):
            assert v1 >= v2


def test_superhedge_matches_concave_envelope_on_one_step_markets():
    rng = random.Random(53)
    for _ in range(30):
        k = rng.randint(2, 4)
        weights = [rng.randint(1, 3) for _ in range(k)]
        total = sum(weights)
        tree = EventTree.build(
            [None] + [0] * k, [None] + [F(w, total) for w in weights]
        )
        prices = [F(rng.randint(0, 8)) for _ in range(k)]
        spot_lo, spot_hi = min(prices), max(prices)
        if spot_lo == spot_hi:
            spot = spot_lo
        else:
            spot = (spot_lo + spot_hi) / 2
        s = AdaptedProcess(tree, (spot, *prices))
        try:
            m = Market.of(tree, [s])
        except PreconditionError:
            continue  # no equivalent measure for this draw
        payoff = tuple(F(rng.randint(0, 5)) for _ in range(k))
        claim = RandomVariable(terminal_space(tree), payoff)
        expected = _concave_envelope_value(list(zip(prices, payoff)), spot)
        assert expected is not None
        assert superhedge_value(m, claim).value == expected


def test_single_node_market():
    tree = EventTree.build([None], [None], ["root"])
    m = Market.of(tree, [AdaptedProcess.constant(tree, 4)])
    assert emm_polytope(m).interior == ()
    assert pure_investment_polytope(m, 1).num_vars == 1
    dens = ConsumptionDensity(AdaptedProcess.constant(tree, 0), (F(1),))
    assert superhedge_value(m, dens).value == 0
    out = budget_check(m, dens, 0)
    assert out.admissible and out.strategy == Strategy(tree, (None,))
    rng = random.Random(3)
    records = verify_structure(
        m, deflator_probes_for(rng, m, 2), wealth_probes_for(rng, m, 2), rng
    )
    assert records and all(r.ok for r in records)


def test_market_inputs_on_another_tree_are_rejected(t1, m1):
    chain = EventTree.build([None, 0, 1], [None, 1, 1], ["root", "a", "b"])
    dens = ConsumptionDensity(AdaptedProcess.constant(chain, 3), (F(0), F(0), F(1)))
    with pytest.raises(PreconditionError):
        superhedge_value(m1, dens)
    with pytest.raises(PreconditionError):
        budget_check(m1, dens, 1)
    cons = ConsumptionProcess(AdaptedProcess.from_mapping(chain, {0: 0, 1: 0, 2: 1}))
    foreign = Strategy(chain, ((F(0),), (F(0),), None))
    h = _zero_strategy(t1, 1)
    for strategy, consumption in (
        (h, cons),
        (foreign, ConsumptionProcess.zero(t1)),
        (_zero_strategy(t1, 2), ConsumptionProcess.zero(t1)),  # one asset too many
        (_zero_strategy(t1, 0), ConsumptionProcess.zero(t1)),  # one too few
    ):
        for check in (wealth_values, is_admissible, wealth_process):
            with pytest.raises(PreconditionError):
                check(m1, 1, strategy, consumption)


# ---------------------------------------------------------------------------
# The integer kernels against the Fraction operators they replace
# ---------------------------------------------------------------------------


def _ratios(values):
    """Types, numerators and denominators: a value left unnormalised, or
    one that is not a Fraction, shows where ``==`` would not see it."""
    return [(type(v), v.as_integer_ratio()) for v in values]


def _draw(rng: random.Random, signed: bool = False) -> F:
    """A rational with denominator up to 6, 0 about a third of the time."""
    if rng.random() < 1 / 3:
        return F(0)
    v = F(rng.randint(1, 9), rng.randint(1, 6))
    return -v if signed and rng.random() < 0.5 else v


def _kernel_cases(seed: int, count: int = 40):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_market(rng, random_tree(rng, 3, 3), 2)


def _reference_market_prices(rng: random.Random, tree, max_assets: int) -> list:
    """The draw of random_market, written in Fraction operators."""
    d = rng.randint(1, max_assets)
    hidden = {
        n: random_positive_weights(rng, len(tree.children[n]))
        for n in tree.non_terminal_nodes()
    }
    prices = []
    for _ in range(d):
        vals = [F(0)] * tree.num_nodes
        vals[0] = F(rng.randint(1, 8))
        for n in tree.non_terminal_nodes():
            kids = tree.children[n]
            raw = [F(rng.randint(0 if rng.random() < 0.1 else 1, 4)) for _ in kids]
            if all(r == 0 for r in raw):
                raw[rng.randrange(len(kids))] = F(1)
            mean = sum((qi * r for qi, r in zip(hidden[n], raw)), F(0))
            for ch, r in zip(kids, raw):
                vals[ch] = vals[n] * r / mean
        prices.append(tuple(vals))
    return prices


def test_random_market_matches_reference_draw():
    shapes = random.Random(59)
    for seed in range(60):
        tree = random_tree(shapes, 3, 3)
        ours, reference = random.Random(seed), random.Random(seed)
        m = random_market(ours, tree, 2)
        expected = _reference_market_prices(reference, tree, 2)
        assert [_ratios(s.values) for s in m.prices] == [_ratios(v) for v in expected]
        assert ours.getstate() == reference.getstate()


def test_sampled_measures_match_reference_draw():
    for rng, m in _kernel_cases(61, 30):
        seed = rng.randrange(2**32)
        ours, reference = random.Random(seed), random.Random(seed)
        got = _sample_measures(ours, m) + _sample_measures(ours, m)[1:]
        poly = emm_polytope(m)
        expected = [poly.interior]
        for _ in range(2):
            objective = [F(reference.randint(-2, 2)) for _ in poly.interior]
            vertex = list(poly.interior)
            for kids, local in poly.blocks:
                res = maximize(local, enumerate(objective[ch - 1] for ch in kids))
                for ch, v in zip(kids, res.point):
                    vertex[ch - 1] = v
            t = F(reference.randint(1, 3), 4)
            expected.append(
                tuple(t * v + (1 - t) * i for v, i in zip(vertex, poly.interior))
            )
        assert [_ratios(q) for q in got] == [_ratios(q) for q in expected]
        assert ours.getstate() == reference.getstate()


def test_probe_bumps_and_budget_steps_match_operator_reference(monkeypatch):
    """The deflator and wealth probes bump a value by the operators'
    ``v + 1/50``, and the budget is asked at ``v``, ``v + 1`` and
    ``v - 1/100`` (the nonnegative ones) for the superhedge value ``v``."""
    bumps, values, asked = [], [], []
    with_value, superhedge, budget = (
        AdaptedProcess.with_value,
        fuzz.superhedge_value,
        fuzz.budget_check,
    )

    def bumped(process, node, value):
        bumps.append((process.values[node], value))
        return with_value(process, node, value)

    def valued(m, density):
        out = superhedge(m, density)
        values.append(out.value)
        return out

    def budget_at(m, density, x):
        asked.append(x)
        return budget(m, density, x)

    monkeypatch.setattr(AdaptedProcess, "with_value", bumped)
    monkeypatch.setattr(fuzz, "superhedge_value", valued)
    monkeypatch.setattr(fuzz, "budget_check", budget_at)
    for rng, m in _kernel_cases(71, 12):
        deflator_probes_for(rng, m, 6)
        wealth_probes_for(rng, m, 6)
    assert len(bumps) >= 10
    assert [_ratios((new,)) for _, new in bumps] == [
        _ratios((old + F(1, 50),)) for old, _ in bumps
    ]
    bumps.clear()
    for index in range(2):
        check_market_instance(instance_rng("market", 11, index))
    steps = [(v, v + 1, v - F(1, 100)) for v in values]
    assert len(values) == 2
    assert _ratios(asked) == _ratios(x for xs in steps for x in xs if x >= 0)


def test_wealth_arithmetic_matches_operator_reference():
    nonzero = 0
    for rng, m in _kernel_cases(67):
        tree = m.tree
        increments = market._price_increments(m)
        for n in range(1, tree.num_nodes):
            par = tree.parent[n]
            assert _ratios(increments[n]) == _ratios(
                s.values[n] - s.values[par] for s in m.prices
            )
        holdings = tuple(
            None if tree.is_terminal(n) else tuple(_draw(rng, True) for _ in range(m.d))
            for n in range(tree.num_nodes)
        )
        spent = [F(0)] * tree.num_nodes
        for n in range(1, tree.num_nodes):
            spent[n] = spent[tree.parent[n]] + _draw(rng)
        x = _draw(rng)
        expected = [x]
        for n in range(1, tree.num_nodes):
            par = tree.parent[n]
            moves = (s.values[n] - s.values[par] for s in m.prices)
            gain = sum((h * ds for h, ds in zip(holdings[par], moves)), F(0))
            expected.append(expected[par] + gain - (spent[n] - spent[par]))
        cons = ConsumptionProcess(AdaptedProcess(tree, tuple(spent)))
        got = wealth_values(m, x, Strategy(tree, holdings), cons)
        assert _ratios(got) == _ratios(expected)
        nonzero += any(spent) and any(h and any(h) for h in holdings)
    assert nonzero >= 10


def _reference_subtree_sums(tree, weights) -> list:
    sums = list(weights)
    for n in range(tree.num_nodes - 1, 0, -1):
        sums[tree.parent[n]] += sums[n]
    return sums


def _reference_objective(wealth, weights, consumed=()) -> list:
    """WealthMap.objective written in Fraction operators."""
    below = _reference_subtree_sums(wealth.tree, weights)
    out = {0: below[0]}
    for n in range(1, len(below)):
        if below[n]:
            for j, a in wealth.edges[n]:
                out[j] = out.get(j, F(0)) + a * below[n]
    if consumed:
        sums = _reference_subtree_sums(wealth.tree, consumed)
        for j, c in zip(wealth.consumption, sums[1:]):
            out[j] = out.get(j, F(0)) + c
    return sorted(out.items())


def test_wealth_map_arithmetic_matches_operator_reference():
    decoded = 0
    for rng, m in _kernel_cases(71, 30):
        tree = m.tree
        for consumption in (False, True):
            wealth = wealth_map(m, consumption)
            weights = [_draw(rng, True) for _ in range(tree.num_nodes)]
            consumed = [_draw(rng, True) for _ in range(tree.num_nodes)]
            assert _ratios(market._subtree_sums(tree, weights)) == _ratios(
                _reference_subtree_sums(tree, weights)
            )
            for args in ((weights,), (weights, consumed)):
                got = wealth.objective(*args)
                expected = _reference_objective(wealth, *args)
                assert [j for j, _ in got] == [j for j, _ in expected]
                assert _ratios(a for _, a in got) == _ratios(a for _, a in expected)
            build = consumption_polytope if consumption else pure_investment_polytope
            spent = consumed if consumption else ()
            out = maximize(build(m, 1), wealth.objective(weights, spent))
            assert out.status is LpStatus.OPTIMAL
            point = out.point
            x, _, cons = wealth.decode(point)
            expected_x, expected_c = [point[0]], [F(0)] * tree.num_nodes
            for n in range(1, tree.num_nodes):
                par = tree.parent[n]
                gain = sum((a * point[j] for j, a in wealth.edges[n]), F(0))
                expected_x.append(expected_x[par] + gain)
            for n, c in enumerate(wealth.consumption, 1):
                expected_c[n] = expected_c[tree.parent[n]] + point[c]
            assert _ratios(x.values) == _ratios(expected_x)
            assert _ratios(cons.cumulative.values) == _ratios(expected_c)
            decoded += any(cons.cumulative.values)
    assert decoded >= 5


def _reference_expected_terminal(m, q, cumulative):
    tree = m.tree
    prob = [F(1)] * tree.num_nodes
    for n in range(1, tree.num_nodes):
        prob[n] = prob[tree.parent[n]] * q[n - 1]
    return sum((prob[w] * cumulative[w] for w in tree.terminal_nodes()), F(0))


def test_consumption_arithmetic_matches_operator_reference():
    refused = kept = 0
    for rng, m in _kernel_cases(73):
        tree = m.tree
        density = random_consumption_density(rng, tree)
        expected = [F(0)] * tree.num_nodes
        for n in range(tree.num_nodes):
            par = tree.parent[n]
            base = F(0) if par is None else expected[par]
            rate = density.weights[tree.time[n]] * density.density.values[n]
            expected[n] = base + rate
        cum = density.cumulative()
        assert _ratios(cum.cumulative.values) == _ratios(expected)
        q = emm_polytope(m).interior
        got = market._expected_terminal(m, q, cum)
        assert _ratios([got]) == _ratios([_reference_expected_terminal(m, q, expected)])
        # lower one node to a multiple 0, 1/3, 2/3 or 1 of its parent's value
        if tree.num_nodes == 1:
            continue
        n = rng.randrange(1, tree.num_nodes)
        vals = list(expected)
        vals[n] = vals[tree.parent[n]] * F(rng.randint(0, 3), 3)
        decreasing = any(
            vals[k] < vals[tree.parent[k]] for k in range(1, tree.num_nodes)
        )
        try:
            ConsumptionProcess(AdaptedProcess(tree, tuple(vals)))
        except PreconditionError:
            assert decreasing
            refused += 1
        else:
            assert not decreasing
            kept += 1
    assert refused >= 5 and kept >= 5


def test_measure_and_hedge_arithmetic_matches_operator_reference(monkeypatch):
    asked = []
    hedge_system = market._hedge_system

    def recording(m, n, increments):
        asked.append(increments)
        return hedge_system(m, n, increments)

    monkeypatch.setattr(market, "_hedge_system", recording)
    boundary = realized = 0
    for rng, m in _kernel_cases(79, 30):
        tree = m.tree
        space = terminal_space(tree)
        claim = RandomVariable(space, tuple(_draw(rng) for _ in space.outcomes))
        res = superhedge_value(m, claim)
        assert _ratios(res.residual.values) == _ratios(
            w - e for w, e in zip(res.wealth.values, res.envelope.values)
        )
        # the argmax measure is a vertex: it may put 0 on an edge
        measures = _sample_measures(rng, m) + _sample_measures(rng, m)[1:]
        for q in measures + [res.argmax_measure]:
            expected = [F(1)] * tree.num_nodes
            for n in range(1, tree.num_nodes):
                expected[n] = expected[tree.parent[n]] * q[n - 1] / tree.edge_prob[n]
            assert _ratios(density_process(m, q).values) == _ratios(expected)
            boundary += not all(q)
        target = [_draw(rng) for _ in range(tree.num_nodes)]
        for n in tree.non_terminal_nodes():
            asked.clear()
            market._hedge(m, n, target)
            assert _ratios(asked[0]) == _ratios(
                target[ch] - target[n] for ch in tree.children[n]
            )
            y_node = _draw(rng)
            kids = tuple(_draw(rng) for _ in tree.children[n])
            system = _density_hull_system(m, n, y_node, kids)
            assert _ratios(r.rhs for r in system.rows[1:]) == _ratios(
                y_node * s.values[n] for s in m.prices
            )
            assert _ratios(system.lower) == _ratios(
                tree.edge_prob[ch] * v for ch, v in zip(tree.children[n], kids)
            )
        for z in wealth_probes_for(rng, m, 2):
            out = xc_feasibility(m, z)
            if out.feasible:
                wealth = wealth_values(
                    m, z.initial, out.strategy, ConsumptionProcess.zero(tree)
                )
                assert _ratios(out.consumption.cumulative.values) == _ratios(
                    w - v for w, v in zip(wealth, z.values)
                )
                realized += 1
    assert boundary >= 5 and realized >= 20
