"""Randomized instance generation and the seeded verification suites.

Three suites, all exact and all replayable from a single integer seed:

* conditional -- the random-variable duality: hull membership versus
  bipolar membership on interior/boundary/exterior probes, plus the polar
  closure properties, the product decomposition round-trip and the
  pairwise-maximization family;
* process -- the process duality: the direct and the incremental bipolar
  oracle on random far-reaching sets of unit supermartingales, with hull
  constructions required to be members, plus polar closure under
  fork-splicing and solid multiplication;
* market -- the wealth/deflator duality and the budget-constraint
  coincidence on random arbitrage-free markets.

Each instance gets its own derived seed so a failure can be re-run alone.
A suite's config holds only its instance count and seed; the instance sizes
and probe counts are constants of the config class, the same for every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Optional

from .errors import PostconditionError, PreconditionError
from .exact_lp import LpStatus, maximize
from .market import (
    ConsumptionDensity,
    Market,
    budget_check,
    density_process,
    emm_polytope,
    pure_investment_polytope,
    sample_consumption_wealth,
    superhedge_value,
    verify_structure,
    wealth_map,
)
from .processes import (
    AdaptedProcess,
    ProcessSet,
    fork_splice,
    random_hull_element,
    random_nonincreasing_process,
    random_unit_fraction,
    solid_multiply,
)
from .process_polar import (
    polar_constraints,
    sample_polar_elements,
    verify_process_bipolar,
)
from .rational import ONE, ZERO, dot, fraction, mix, product, quotient, scaled
from .rv_polar import (
    RvSet,
    conditional_bipolar_contains,
    conditional_polar_constraints,
    hull_contains,
    pairwise_max_closure,
    partition_mix,
    product_decompose,
    unconditional_bipolar_contains,
    unconditional_hull_contains,
)
from .tree import EventTree, Partition, RandomVariable, SampleSpace

TWO = Fraction(2)

# the bump past a hull boundary, the most hull moves behind a known process
# hull member, the deflator and wealth probes of a market and their bump,
# and the step to just below a superhedge value that a budget is checked at
BUMP = Fraction(1, 1000)
HULL_DEPTH = 2
DEFLATOR_PROBES = 3
WEALTH_PROBES = 3
MARKET_BUMP = Fraction(1, 50)
BELOW = Fraction(-1, 100)


# ---------------------------------------------------------------------------
# Random building blocks
# ---------------------------------------------------------------------------


def random_fraction(
    rng: random.Random, max_num: int = 3, max_den: int = 3
) -> Fraction:
    return fraction(rng.randint(0, max_num), rng.randint(1, max_den))


def random_positive_weights(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    raw = [rng.randint(1, 4) for _ in range(k)]
    total = sum(raw)
    return tuple(fraction(r, total) for r in raw)


def random_tree(
    rng: random.Random, max_depth: int = 3, max_branching: int = 3
) -> EventTree:
    depth = rng.randint(1, max_depth)
    parents: list[Optional[int]] = [None]
    probs: list[Optional[Fraction]] = [None]
    level = [0]
    for _ in range(depth):
        nxt: list[int] = []
        for n in level:
            k = rng.randint(1, max_branching)
            for w in random_positive_weights(rng, k):
                parents.append(n)
                probs.append(w)
                nxt.append(len(parents) - 1)
        level = nxt
    return EventTree.build(parents, probs)


def random_space(rng: random.Random, max_outcomes: int = 6) -> SampleSpace:
    k = rng.randint(2, max_outcomes)
    return SampleSpace(tuple(range(k)), random_positive_weights(rng, k))


def random_partition(
    rng: random.Random, space: SampleSpace, max_blocks: int = 3
) -> Partition:
    k = rng.randint(1, min(max_blocks, space.size))
    order = list(space.outcomes)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, space.size), k - 1)) if k > 1 else []
    blocks, start = [], 0
    for cut in cuts + [space.size]:
        blocks.append(order[start:cut])
        start = cut
    return Partition.from_blocks(space, blocks)


def random_rv(
    rng: random.Random, space: SampleSpace, max_num: int = 3, max_den: int = 3
) -> RandomVariable:
    return RandomVariable(
        space, tuple(random_fraction(rng, max_num, max_den) for _ in space.outcomes)
    )


def random_rvset(
    rng: random.Random,
    space: SampleSpace,
    partition: Partition,
    max_generators: int = 4,
) -> RvSet:
    k = rng.randint(1, max_generators)
    return RvSet(tuple(random_rv(rng, space) for _ in range(k)), partition)


def random_supermartingale(
    rng: random.Random,
    tree: EventTree,
    strictly_positive: bool = False,
    martingale: bool = False,
) -> AdaptedProcess:
    """Built multiplicatively: each step applies factors whose one-step
    expectation is at most (exactly, for martingales) 1."""
    vals = [ZERO] * tree.num_nodes
    if strictly_positive:
        vals[0] = fraction(rng.randint(1, 4), 4)
    else:
        vals[0] = fraction(rng.randint(0, 4), 4)
    for n in tree.non_terminal_nodes():
        kids = tree.children[n]
        low = 1 if strictly_positive else 0
        raw = [fraction(rng.randint(low, 4), rng.randint(1, 3)) for _ in kids]
        if martingale and all(r == 0 for r in raw):
            raw[rng.randrange(len(raw))] = ONE
        mean = dot((tree.edge_prob[ch], r) for ch, r in zip(kids, raw))
        if mean > 1 or (martingale and mean != 0):
            raw = [quotient(r, mean) for r in raw]
        for ch, r in zip(kids, raw):
            vals[ch] = product(vals[n], r)
    return AdaptedProcess(tree, tuple(vals))


def random_process_set(
    rng: random.Random, tree: EventTree, max_generators: int = 4
) -> ProcessSet:
    """Random far-reaching set of unit-initial supermartingales."""
    gens: list[AdaptedProcess] = []
    if rng.random() < 0.4:
        gens.append(AdaptedProcess.constant(tree, 1))
    else:
        gens.append(
            random_supermartingale(
                rng, tree, strictly_positive=True, martingale=rng.random() < 0.5
            )
        )
    for _ in range(rng.randint(0, max_generators - 1)):
        gens.append(
            random_supermartingale(rng, tree, martingale=rng.random() < 0.3)
        )
    return ProcessSet.of(*gens)


def random_market(
    rng: random.Random, tree: EventTree, max_assets: int = 2
) -> Market:
    """Arbitrage-free by construction: prices are martingales under a
    hidden strictly positive one-step measure."""
    d = rng.randint(1, max_assets)
    hidden = {
        n: random_positive_weights(rng, len(tree.children[n]))
        for n in tree.non_terminal_nodes()
    }
    prices = []
    for _ in range(d):
        vals = [ZERO] * tree.num_nodes
        vals[0] = fraction(rng.randint(1, 8), 1)
        for n in tree.non_terminal_nodes():
            kids = tree.children[n]
            q = hidden[n]
            raw = [
                fraction(rng.randint(0 if rng.random() < 0.1 else 1, 4), 1)
                for _ in kids
            ]
            if all(r == 0 for r in raw):
                raw[rng.randrange(len(kids))] = ONE
            mean = dot(zip(q, raw))
            s = vals[n]
            for ch, r in zip(kids, raw):
                vals[ch] = scaled(s, r, mean)
        prices.append(AdaptedProcess(tree, tuple(vals)))
    return Market.of(tree, prices)


def random_consumption_density(
    rng: random.Random, tree: EventTree
) -> ConsumptionDensity:
    weights = [ZERO] + list(random_positive_weights(rng, tree.horizon))
    density = AdaptedProcess(
        tree, tuple(random_fraction(rng, 3, 2) for _ in range(tree.num_nodes))
    )
    return ConsumptionDensity(density, tuple(weights))


def instance_rng(suite: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{suite}:{seed}:{index}")


# ---------------------------------------------------------------------------
# Suite plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceRecord:
    index: int
    ok: bool
    checks: int
    detail: str = ""
    kind: str = ""  # of a failure: "disagreement", "defect" or "crash"


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    seed: int
    records: tuple[InstanceRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def total_checks(self) -> int:
        return sum(r.checks for r in self.records)

    def summary(self) -> str:
        good = sum(1 for r in self.records if r.ok)
        return (
            f"{self.suite}: {good}/{len(self.records)} instances ok, "
            f"{self.total_checks} checks, seed {self.seed}"
        )


def _verdict(ok: bool, message: str = "") -> None:
    """Fail the instance unless ``ok``.  Unlike ``assert``, this also runs
    under ``python -O``; :func:`_run_suite` records the failure."""
    if not ok:
        raise AssertionError(message)


def _run_suite(
    suite: str,
    seed: int,
    count: int,
    one_instance: Callable[[random.Random], tuple[int, str]],
) -> SuiteResult:
    """Run every instance; one that raises is recorded as failed, so it
    cannot take the rest of the suite down with it."""
    records = []
    for i in range(count):
        rng = instance_rng(suite, seed, i)
        try:
            checks, detail = one_instance(rng)
            records.append(InstanceRecord(i, True, checks, detail))
        except Exception as exc:
            records.append(InstanceRecord(i, False, 0, str(exc), _failure_kind(exc)))
    return SuiteResult(suite, seed, tuple(records))


def _failure_kind(exc: Exception) -> str:
    """Oracles that disagree, a library defect, or anything else."""
    if isinstance(exc, AssertionError):
        return "disagreement"
    if isinstance(exc, (PostconditionError, PreconditionError)):
        return "defect"
    return "crash"


# ---------------------------------------------------------------------------
# Conditional (random-variable) suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalFuzzConfig:
    count: int = 200
    seed: int = 0
    max_outcomes: ClassVar[int] = 6
    max_blocks: ClassVar[int] = 3
    max_generators: ClassVar[int] = 4
    probes: ClassVar[int] = 10


def _hull_mixture(rng: random.Random, c: RvSet, scale: Fraction) -> RandomVariable:
    """Per-block convex mixture of generators, scaled; scale 1 sits on the
    upper envelope."""
    vals = [ZERO] * c.space.size
    for idx in c.partition.block_indices:
        w = random_positive_weights(rng, len(c.generators))
        for i in idx:
            vals[i] = product(
                scale, dot((wi, g.values[i]) for wi, g in zip(w, c.generators))
            )
    return RandomVariable(c.space, tuple(vals))


def conditional_probes(
    rng: random.Random, c: RvSet, count: int
) -> list[tuple[RandomVariable, Optional[bool]]]:
    """Probes with their expected hull status when known (None = unknown)."""
    probes: list[tuple[RandomVariable, Optional[bool]]] = []
    while len(probes) < count:
        kind = rng.randrange(4)
        if kind == 0:  # interior
            denom = rng.randint(1, 4)
            scale = fraction(rng.randint(0, denom), denom)
            probes.append((_hull_mixture(rng, c, scale), True))
        elif kind == 1:  # boundary
            probes.append((_hull_mixture(rng, c, ONE), True))
        elif kind == 2:  # just outside (unless the bump stays under the envelope)
            base = _hull_mixture(rng, c, ONE)
            i = rng.randrange(c.space.size)
            vals = list(base.values)
            vals[i] = dot(((vals[i], ONE), (BUMP, ONE)))
            probes.append((RandomVariable(c.space, tuple(vals)), None))
        else:  # arbitrary
            probes.append((random_rv(rng, c.space), None))
    return probes


def _sample_polar_rvs(rng: random.Random, c: RvSet) -> list[RandomVariable]:
    """Two elements of the conditional polar, at random objectives' maxima."""
    system = conditional_polar_constraints(c)
    out: list[RandomVariable] = []
    for _ in range(2):
        objective = [
            (j, fraction(rng.randint(-1, 2), 1)) for j in range(system.num_vars)
        ]
        res = maximize(system, objective)
        assert res.point is not None
        point = res.point
        if res.status is LpStatus.UNBOUNDED:
            assert res.ray is not None
            t = product(random_unit_fraction(rng, 3), TWO)
            point = tuple(dot(((p, ONE), (t, r))) for p, r in zip(point, res.ray))
        out.append(RandomVariable(c.space, point))
    return out


def _random_block_constant(
    rng: random.Random, part: Partition, max_num: int = 2, max_den: int = 2
) -> RandomVariable:
    vals = [ZERO] * part.space.size
    for idx in part.block_indices:
        v = random_fraction(rng, max_num, max_den)
        for i in idx:
            vals[i] = v
    return RandomVariable(part.space, tuple(vals))


def _random_block_weight(rng: random.Random, part: Partition) -> RandomVariable:
    """A block-constant draw with values in [0, 1]: scaled down by its
    largest value when that exceeds 1."""
    raw = _random_block_constant(rng, part)
    top = max(raw.values)
    return raw.scale(quotient(ONE, top)) if top > 1 else raw


def _random_unit_ball(rng: random.Random, part: Partition) -> RandomVariable:
    raw = _random_block_constant(rng, part, 3, 2)
    e = raw.expectation()
    if e > 1:
        raw = raw.scale(quotient(ONE, e))
    return raw


def check_conditional_instance(rng: random.Random) -> tuple[int, str]:
    """One random instance of the full conditional-theory check battery."""
    cfg = ConditionalFuzzConfig
    space = random_space(rng, cfg.max_outcomes)
    part = random_partition(rng, space, cfg.max_blocks)
    c = random_rvset(rng, space, part, cfg.max_generators)
    checks = 0

    # dual-oracle equivalence on probes of all three kinds
    for probe, expected in conditional_probes(rng, c, cfg.probes):
        in_hull = bool(hull_contains(c, probe))
        in_bipolar = bool(conditional_bipolar_contains(c, probe))
        if in_hull != in_bipolar:
            raise AssertionError(
                f"oracle split on {probe.values}: hull={in_hull} bipolar={in_bipolar}"
            )
        if expected is not None and in_hull != expected:
            raise AssertionError(f"expected {expected} for {probe.values}")
        checks += 1

    # one-block reduction agrees with the direct unconditional implementation
    trivial = RvSet(c.generators, Partition.trivial(space))
    probe = random_rv(rng, space)
    _verdict(
        bool(hull_contains(trivial, probe))
        == unconditional_hull_contains(c.generators, probe)
    )
    _verdict(
        bool(conditional_bipolar_contains(trivial, probe))
        == unconditional_bipolar_contains(c.generators, probe)
    )
    checks += 2

    # polar closure: mixing and downward moves stay in the polar
    g1, g2 = _sample_polar_rvs(rng, c)
    weight = _random_block_weight(rng, part)
    mixed = partition_mix(g1, g2, weight, part)
    system = conditional_polar_constraints(c)
    _verdict(system.satisfied_by(mixed.values), "polar not closed under mixing")
    shrunk = g1.scale(random_unit_fraction(rng, 3))
    _verdict(system.satisfied_by(shrunk.values), "polar not downward closed")
    checks += 2

    # product decomposition round-trip on a bipolar element
    f = _hull_mixture(rng, c, ONE)
    ball_elem = _random_unit_ball(rng, part)
    h, k = product_decompose(c, f, ball_elem)  # internal exact postconditions
    _verdict(f.pointwise_mul(ball_elem) == h.pointwise_mul(k))
    checks += 1

    # pairwise maximization family: blockwise rescalings of a hull element
    members = []
    for _ in range(rng.randint(1, 3)):
        members.append(f.pointwise_mul(_random_block_weight(rng, part)))
    hmax = pairwise_max_closure(c, f, members)
    _verdict(bool(hull_contains(c, hmax)))
    checks += 1
    return checks, ""


def run_conditional_suite(cfg: ConditionalFuzzConfig) -> SuiteResult:
    return _run_suite("conditional", cfg.seed, cfg.count, check_conditional_instance)


# ---------------------------------------------------------------------------
# Process (filtered) suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessFuzzConfig:
    count: int = 100
    seed: int = 0
    max_depth: ClassVar[int] = 3
    max_branching: ClassVar[int] = 3
    max_generators: ClassVar[int] = 4
    probes: ClassVar[int] = 4
    hull_probes: ClassVar[int] = 2


def process_probes(
    rng: random.Random, c: ProcessSet, count: int, hull_count: int
) -> tuple[list[AdaptedProcess], list[AdaptedProcess]]:
    """(``count`` undetermined probes, ``hull_count`` known hull members)."""
    tree = c.tree
    probes: list[AdaptedProcess] = []
    hull: list[AdaptedProcess] = []
    for _ in range(hull_count):
        hull.append(
            random_hull_element(c, rng.randint(0, HULL_DEPTH), rng).process
        )
    while len(probes) < count:
        kind = rng.randrange(4)
        if kind == 0:  # bumped hull element: at or just past the boundary
            base = rng.choice(hull)
            n = rng.randrange(tree.num_nodes)
            bumped = dot(((base.values[n], ONE), (BUMP, ONE)))
            probes.append(base.with_value(n, bumped))
        elif kind == 1:  # random unit supermartingale
            probes.append(random_supermartingale(rng, tree))
        elif kind == 2:  # scaled generator leaving the unit class
            g = rng.choice(c.generators)
            probes.append(g.scale(2))
        else:  # random positive process, supermartingale or not
            probes.append(
                AdaptedProcess(
                    tree,
                    tuple(
                        random_fraction(rng, 3, 2) for _ in range(tree.num_nodes)
                    ),
                )
            )
    return probes, hull


def check_process_instance(rng: random.Random) -> tuple[int, str]:
    cfg = ProcessFuzzConfig
    tree = random_tree(rng, cfg.max_depth, cfg.max_branching)
    c = random_process_set(rng, tree, cfg.max_generators)
    probes, hull = process_probes(rng, c, cfg.probes, cfg.hull_probes)
    records = verify_process_bipolar(c, probes, hull)
    bad = [r for r in records if not r.ok]
    if bad:
        raise AssertionError(
            "; ".join(
                f"{r.kind}: lp={r.lp_member} inc={r.incremental_member} {r.note}"
                for r in bad
            )
        )
    return len(records), ""


def run_process_suite(cfg: ProcessFuzzConfig) -> SuiteResult:
    return _run_suite("process", cfg.seed, cfg.count, check_process_instance)


@dataclass(frozen=True)
class PolarClosureConfig:
    instances: int = 25
    seed: int = 0
    compositions_per_instance: ClassVar[int] = 40
    max_depth: ClassVar[int] = 3
    max_branching: ClassVar[int] = 3
    max_generators: ClassVar[int] = 3


def random_polar_composition(
    rng: random.Random, pool: list[AdaptedProcess], tree: EventTree
) -> AdaptedProcess:
    """A solid multiple of one pool element or a fork-splice of three, drawn
    at even odds; both stay in any polar the pool lies in."""
    if rng.random() < 0.5:
        y = rng.choice(pool)
        b = random_nonincreasing_process(rng, tree)
        return y.pointwise_mul(b.process)
    y1, y2, y3 = (rng.choice(pool) for _ in range(3))
    s = rng.randint(0, tree.horizon)
    w = {n: random_unit_fraction(rng) for n in tree.nodes_at(s)}
    return fork_splice(y1, y2, y3, s, w)


def polar_closure_violations(
    rng: random.Random, c: ProcessSet, count: int
) -> list[AdaptedProcess]:
    """Draw ``count`` compositions, each from the four
    :func:`sample_polar_elements` and the compositions before it, and
    return those that leave the polar (none, by the closure properties)."""
    pool = sample_polar_elements(c, rng)
    system = polar_constraints(c)
    violations = []
    for _ in range(count):
        candidate = random_polar_composition(rng, pool, c.tree)
        if not system.satisfied_by(candidate.values):
            violations.append(candidate)
        pool.append(candidate)
    return violations


def check_polar_closure_instance(rng: random.Random) -> tuple[int, str]:
    """Fork-splices and solid multiples of polar elements stay in the polar."""
    cfg = PolarClosureConfig
    tree = random_tree(rng, cfg.max_depth, cfg.max_branching)
    c = random_process_set(rng, tree, cfg.max_generators)
    count = cfg.compositions_per_instance
    _verdict(not polar_closure_violations(rng, c, count), "polar closure violated")
    return count, ""


def run_polar_closure_suite(cfg: PolarClosureConfig) -> SuiteResult:
    return _run_suite(
        "polar-closure", cfg.seed, cfg.instances, check_polar_closure_instance
    )


# ---------------------------------------------------------------------------
# Market suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketFuzzConfig:
    count: int = 40
    seed: int = 0
    max_depth: ClassVar[int] = 3
    max_branching: ClassVar[int] = 3
    max_assets: ClassVar[int] = 2


def _sample_measures(rng: random.Random, m: Market) -> list[tuple[Fraction, ...]]:
    """Two equivalent martingale measures: the interior and a mixed vertex."""
    poly = emm_polytope(m)
    assert poly.interior is not None
    objective = [fraction(rng.randint(-2, 2), 1) for _ in poly.interior]
    # a vertex of the product: each block maximizes its slice
    vertex = list(poly.interior)
    for kids, local in poly.blocks:
        res = maximize(local, enumerate(objective[ch - 1] for ch in kids))
        assert res.status is LpStatus.OPTIMAL and res.point is not None
        for ch, v in zip(kids, res.point):
            vertex[ch - 1] = v
    # mix toward the interior to keep the measure equivalent
    t = fraction(rng.randint(1, 3), 4)
    return [poly.interior, tuple(mix(t, v, i) for v, i in zip(vertex, poly.interior))]


def deflator_probes_for(
    rng: random.Random, m: Market, count: int
) -> list[AdaptedProcess]:
    tree = m.tree
    probes: list[AdaptedProcess] = [AdaptedProcess.constant(tree, 1)]
    measures = _sample_measures(rng, m)
    for q in measures:
        probes.append(density_process(m, q))
    while len(probes) < count + 3:
        kind = rng.randrange(4)
        base = density_process(m, rng.choice(measures))
        if kind == 0:
            probes.append(
                solid_multiply(base, random_nonincreasing_process(rng, tree))
            )
        elif kind == 1:
            s = rng.randint(0, tree.horizon)
            other = density_process(m, rng.choice(measures))
            w = {n: random_unit_fraction(rng) for n in tree.nodes_at(s)}
            probes.append(fork_splice(base, base, other, s, w))
        elif kind == 2:
            n = rng.randrange(tree.num_nodes)
            bumped = dot(((base.values[n], ONE), (MARKET_BUMP, ONE)))
            probes.append(base.with_value(n, bumped))
        else:
            probes.append(random_supermartingale(rng, tree))
    return probes[: count + 3]


def wealth_probes_for(
    rng: random.Random, m: Market, count: int
) -> list[AdaptedProcess]:
    tree = m.tree
    probes: list[AdaptedProcess] = []
    pairs = sample_consumption_wealth(m, rng)
    probes.extend(w for w, _ in pairs)
    wealth = wealth_map(m, False)
    weights = [fraction(rng.randint(-1, 2), 1) for _ in range(tree.num_nodes)]
    res = maximize(pure_investment_polytope(m, 1), wealth.objective(weights))
    assert res.status is LpStatus.OPTIMAL and res.point is not None
    probes.append(wealth.decode(res.point)[0])
    while len(probes) < count + 3:
        kind = rng.randrange(3)
        base = rng.choice(probes[:3])
        if kind == 0:
            n = rng.randrange(tree.num_nodes)
            bumped = dot(((base.values[n], ONE), (MARKET_BUMP, ONE)))
            probes.append(base.with_value(n, bumped))
        elif kind == 1:
            probes.append(base.scale(fraction(rng.randint(1, 6), 4)))
        else:
            probes.append(random_supermartingale(rng, tree))
    return probes[: count + 3]


def check_market_instance(rng: random.Random) -> tuple[int, str]:
    cfg = MarketFuzzConfig
    tree = random_tree(rng, cfg.max_depth, cfg.max_branching)
    m = random_market(rng, tree, cfg.max_assets)
    records = verify_structure(
        m,
        deflator_probes_for(rng, m, DEFLATOR_PROBES),
        wealth_probes_for(rng, m, WEALTH_PROBES),
        rng,
    )
    bad = [r for r in records if not r.ok]
    if bad:
        raise AssertionError("; ".join(f"{r.section} {r.detail}" for r in bad))
    checks = len(records)

    # budget coincidence at, below and above the superhedge value
    density = random_consumption_density(rng, tree)
    value = superhedge_value(m, density).value
    for x, expected in (
        (value, True),
        (dot(((value, ONE), (ONE, ONE))), True),
        (dot(((value, ONE), (BELOW, ONE))), None if value == 0 else False),
    ):
        if x < 0:
            continue
        outcome = budget_check(m, density, x)  # raises on oracle disagreement
        if expected is not None and outcome.admissible != expected:
            raise AssertionError(f"budget at {x}")
        checks += 1
    return checks, ""


def run_market_suite(cfg: MarketFuzzConfig) -> SuiteResult:
    return _run_suite("market", cfg.seed, cfg.count, check_market_instance)
