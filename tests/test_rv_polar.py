import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from procpolar import exact_lp, rv_polar
from procpolar.errors import PreconditionError
from procpolar.exact_lp import LpStatus, maximize
from procpolar.fuzz import (
    _hull_mixture,
    _random_block_weight,
    _random_unit_ball,
    _sample_polar_rvs,
    conditional_probes,
    random_partition,
    random_positive_weights,
    random_rv,
    random_rvset,
    random_space,
)
from procpolar.rv_polar import (
    RvSet,
    _block_hull,
    _block_polar,
    conditional_bipolar_contains,
    conditional_polar_constraints,
    hull_contains,
    pairwise_max_closure,
    partition_mix,
    product_decompose,
    unconditional_bipolar_contains,
    unconditional_hull_contains,
)
from procpolar.tree import Partition, RandomVariable, SampleSpace, terminal_space


@pytest.fixture
def four(t2):
    """Uniform 4-point space with blocks {uu,ud}, {du,dd} and f=(1,1,2,2)."""
    space = terminal_space(t2)
    part = Partition.from_blocks(space, [(3, 4), (5, 6)])
    f = RandomVariable(space, (F(1), F(1), F(2), F(2)))
    return space, part, RvSet((f,), part)


def test_partition_mix_degenerate(four):
    space, part, c = four
    f = c.generators[0]
    g = RandomVariable(space, (0,) * space.size)
    one = RandomVariable(space, (1,) * space.size)
    assert partition_mix(f, g, one, part) == f


def test_partition_mix_midpoint(t1):
    space = terminal_space(t1)
    part = Partition.trivial(space)
    f = RandomVariable(space, (F(2), F(0)))
    g = RandomVariable(space, (F(0), F(2)))
    half = RandomVariable(space, ("1/2",) * space.size)
    assert partition_mix(f, g, half, part).values == (F(1), F(1))


def test_partition_mix_per_block_selection(four):
    space, part, _ = four
    w = RandomVariable(space, (F(1), F(1), F(0), F(0)))
    f = RandomVariable(space, (4,) * space.size)
    g = RandomVariable(space, (0,) * space.size)
    assert partition_mix(f, g, w, part).values == (F(4), F(4), F(0), F(0))


def test_partition_mix_rejects_non_measurable(four):
    space, part, _ = four
    w = RandomVariable(space, (F(1), F(0), F(0), F(0)))
    with pytest.raises(PreconditionError):
        partition_mix(w, w, w, part)


def test_polar_constraints_unit_generator(t1):
    # polar of {1} with the trivial partition: the unit ball of averages
    space = terminal_space(t1)
    one = RandomVariable(space, (1,) * space.size)
    c = RvSet((one,), Partition.trivial(space))
    system = conditional_polar_constraints(c)
    assert system.satisfied_by((F(2), F(0)))
    assert system.satisfied_by((F(1), F(1)))
    assert not system.satisfied_by((F(2), F(1)))


def test_polar_membership_examples(four):
    space, part, c = four
    polar = conditional_polar_constraints(c)
    assert polar.satisfied_by(RandomVariable(space, (0,) * space.size).values)
    assert polar.satisfied_by((F(2), F(0), F(0), F(0)))
    assert not polar.satisfied_by((F(0), F(0), F(2), F(0)))


def test_hull_membership_examples(four):
    space, part, c = four
    f = c.generators[0]
    assert hull_contains(c, f)
    assert hull_contains(c, RandomVariable(space, (F(1), F(0), F(2), F(0))))
    beyond = RandomVariable(space, (F(1), F(1), F(2), F(3)))
    verdict = hull_contains(c, beyond)
    assert not verdict and verdict.failing_block == 1


def test_hull_certificate_weights(four):
    space, part, c = four
    verdict = hull_contains(c, c.generators[0])
    assert verdict.block_weights == ((F(1),), (F(1),))


def test_bipolar_membership_examples(four):
    space, part, c = four
    zero = RandomVariable(space, (0,) * space.size)
    assert conditional_bipolar_contains(c, zero)
    assert conditional_bipolar_contains(c, RandomVariable(space, (F(1), F(1), F(2), F(2))))
    probe = RandomVariable(space, (F(1), F(1), F(2), F(5, 2)))
    out = conditional_bipolar_contains(c, probe)
    assert not out
    # the witness is a polar element whose block average against the probe exceeds 1
    assert out.witness is not None and out.witness.space == c.space
    assert conditional_polar_constraints(c).satisfied_by(out.witness.values)
    block = part.blocks[out.failing_block]
    pairing = sum(space.prob(w) * probe[w] * out.witness[w] for w in block)
    assert pairing > part.block_prob(block)


def test_bipolar_witness_when_polar_is_unbounded(t2):
    # a generator vanishing at an outcome leaves the polar unbounded there;
    # the returned witness must still violate the pairing bound exactly
    space = terminal_space(t2)
    part = Partition.from_blocks(space, [(3, 4), (5, 6)])
    f = RandomVariable(space, (F(1), F(0), F(2), F(2)))
    c = RvSet((f,), part)
    probe = RandomVariable(space, (F(0), F(1), F(0), F(0)))
    out = conditional_bipolar_contains(c, probe)
    assert not out
    assert out.witness is not None and out.witness.space == c.space
    assert conditional_polar_constraints(c).satisfied_by(out.witness.values)
    block = part.blocks[out.failing_block]
    pairing = sum(space.prob(w) * probe[w] * out.witness[w] for w in block)
    assert pairing > part.block_prob(block)


def test_unit_ball(four):
    # product_decompose's second argument must be block-constant with
    # expectation at most 1
    space, part, c = four
    f = c.generators[0]
    product_decompose(c, f, RandomVariable(space, (F(2), F(2), F(0), F(0))))
    for outside in (
        RandomVariable(space, (F(2), F(0), F(0), F(0))),
        RandomVariable(space, (2,) * space.size),
    ):
        with pytest.raises(PreconditionError, match="unit ball"):
            product_decompose(c, f, outside)


def test_product_decompose_identity(four):
    space, part, c = four
    f = c.generators[0]
    one = RandomVariable(space, (1,) * space.size)
    h, k = product_decompose(c, f, one)
    assert h == f and k == one


def test_product_decompose_block_support(four):
    space, part, c = four
    f = c.generators[0]
    l = RandomVariable(space, (F(2), F(2), F(0), F(0)))
    h, k = product_decompose(c, f, l)
    assert k == l
    assert h.values == (F(1), F(1), F(0), F(0))
    assert f.pointwise_mul(l) == h.pointwise_mul(k)


def test_product_decompose_zero(four):
    space, part, c = four
    zero = RandomVariable(space, (0,) * space.size)
    l = RandomVariable(space, (F(2), F(2), F(0), F(0)))
    h, k = product_decompose(c, zero, l)
    assert h == zero


def test_pairwise_max_single(t1):
    space = terminal_space(t1)
    part = Partition.trivial(space)
    c = RvSet(
        (RandomVariable(space, (F(2), F(0))), RandomVariable(space, (F(0), F(2)))),
        part,
    )
    f = RandomVariable(space, (F(1), F(0)))
    h1 = RandomVariable(space, (F(2), F(0)))
    hmax = pairwise_max_closure(c, f, [h1])
    assert hmax == h1
    # membership of f follows by solidity
    assert all(a >= b for a, b in zip(hmax.values, f.values))


def test_pairwise_max_monotone(four):
    space, part, c = four
    f = c.generators[0]
    h1 = f.scale("1/2")
    h2 = f
    assert pairwise_max_closure(c, f, [h1, h2]) == h2


def test_pairwise_max_rejects_bad_candidate(four):
    space, part, c = four
    f = c.generators[0]
    bad = RandomVariable(space, (F(1), F(0), F(0), F(0)))  # identity fails
    with pytest.raises(PreconditionError):
        pairwise_max_closure(c, f, [bad])


def test_trivial_partition_matches_unconditional():
    rng = random.Random(17)
    for _ in range(30):
        space = random_space(rng, 5)
        c = random_rvset(rng, space, Partition.trivial(space), 3)
        probe = random_rv(rng, space)
        assert bool(hull_contains(c, probe)) == unconditional_hull_contains(
            c.generators, probe
        )
        assert bool(
            conditional_bipolar_contains(c, probe)
        ) == unconditional_bipolar_contains(c.generators, probe)


def test_unconditional_bipolar_asks_the_polar_dual(monkeypatch):
    asked = []
    ask = exact_lp._ask
    monkeypatch.setattr(
        exact_lp, "_ask", lambda problem: asked.append(problem) or ask(problem)
    )
    rng = random.Random(19)
    verdicts = []
    for _ in range(30):
        space = random_space(rng, 5)
        c = random_rvset(rng, space, Partition.trivial(space), 3)
        probe = random_rv(rng, space)
        asked.clear()
        verdict = unconditional_bipolar_contains(c.generators, probe)
        # not the trivial partition's block polar: another LP, by value
        (problem,) = asked
        assert problem.system != _block_polar(c, 0)[2]
        assert problem.sense == "min"
        assert verdict == bool(conditional_bipolar_contains(c, probe))
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    # a probe positive where every generator is 0 has no cover at all
    space = SampleSpace((0, 1), (F(1, 2), F(1, 2)))
    gens = [RandomVariable(space, (F(2), F(0)))]
    inside, uncovered = (F(1), F(0)), (F(0), F(1, 9))
    assert unconditional_bipolar_contains(gens, RandomVariable(space, inside))
    assert not unconditional_bipolar_contains(gens, RandomVariable(space, uncovered))


def _two_generator_hull_by_intervals(c: RvSet, h: RandomVariable) -> bool:
    """Closed-form hull membership for exactly two generators.

    On each block, a dominating mixture w*f1 + (1-w)*f2 >= h exists iff the
    per-outcome feasibility intervals for w intersect [0, 1]; pure interval
    arithmetic, no LP involved.
    """
    f1, f2 = c.generators
    for block in c.partition.blocks:
        lo, hi = F(0), F(1)
        for outcome in block:
            i = c.space.index(outcome)
            slope = f1.values[i] - f2.values[i]
            gap = h.values[i] - f2.values[i]
            if slope == 0:
                if gap > 0:
                    return False
            elif slope > 0:
                lo = max(lo, gap / slope)
            else:
                hi = min(hi, gap / slope)
        if lo > hi:
            return False
    return True


def test_two_generator_hull_matches_interval_form():
    rng = random.Random(77)
    for _ in range(40):
        space = random_space(rng, 6)
        part = random_partition(rng, space, 3)
        c = RvSet((random_rv(rng, space), random_rv(rng, space)), part)
        for probe, _ in conditional_probes(rng, c, 6):
            expected = _two_generator_hull_by_intervals(c, probe)
            assert bool(hull_contains(c, probe)) == expected
            assert bool(conditional_bipolar_contains(c, probe)) == expected


def test_oracles_agree_on_random_instances():
    rng = random.Random(5)
    for _ in range(25):
        space = random_space(rng, 6)
        part = random_partition(rng, space, 3)
        c = random_rvset(rng, space, part, 4)
        for probe, expected in conditional_probes(rng, c, 6):
            in_hull = bool(hull_contains(c, probe))
            assert in_hull == bool(conditional_bipolar_contains(c, probe))
            if expected is not None:
                assert in_hull == expected


def test_polar_systems_are_memoised_on_the_rv_set(four):
    _, part, fixed = four
    c = RvSet(fixed.generators, part)  # not held by the fixture, so it can die
    before = (repr(c), hash(c))
    # phase 1 is cached per system object: repeated probes must get the same one
    assert conditional_polar_constraints(c) is conditional_polar_constraints(c)
    assert _block_polar(c, 1) is _block_polar(c, 1)
    assert _block_polar(c, 0) is not _block_polar(c, 1)
    assert _block_polar(fixed, 0) is not _block_polar(c, 0)
    assert _block_polar(fixed, 0) == _block_polar(c, 0)
    assert conditional_bipolar_contains(c, c.generators[0]).member
    # the memo is invisible to value semantics
    assert (repr(c), hash(c)) == before
    assert c == fixed and hash(c) == hash(fixed) and repr(c) == repr(fixed)
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_an_rv_set_is_freed_without_the_cyclic_collector(gc_off):
    rng = random.Random(12)
    space = random_space(rng, 6)
    c = random_rvset(rng, space, random_partition(rng, space, 3), 4)
    for probe, _ in conditional_probes(rng, c, 6):
        in_hull = hull_contains(c, probe).member
        assert in_hull == conditional_bipolar_contains(c, probe).member
    assert conditional_polar_constraints(c).num_vars == space.size
    ref = weakref.ref(c)
    del c
    assert ref() is None


def test_memoised_bipolar_matches_fresh_sets():
    rng = random.Random(8)
    rejected = 0
    for _ in range(15):
        space = random_space(rng, 6)
        c = random_rvset(rng, space, random_partition(rng, space, 3), 4)
        for probe, _ in conditional_probes(rng, c, 6):
            # c is reused across probes; each twin answers its first probe
            reused = conditional_bipolar_contains(c, probe)
            assert reused == conditional_bipolar_contains(
                RvSet(c.generators, c.partition), probe
            )
            rejected += not reused.member
    assert rejected >= 10


def test_hull_systems_are_memoised_on_the_rv_set(four):
    space, part, fixed = four
    c = RvSet(fixed.generators, part)  # not held by the fixture, so it can die
    before = (repr(c), hash(c))
    probe = RandomVariable(space, (F(1), F(1, 2), F(2), F(1)))
    on_block = (F(1), F(1, 2))
    # one system object per block and probe values on the block
    assert _block_hull(c, 0, on_block) is _block_hull(c, 0, on_block)
    assert _block_hull(c, 0, on_block) is not _block_hull(c, 0, (F(1), F(1)))
    assert _block_hull(c, 1, on_block) is not _block_hull(c, 0, on_block)
    assert _block_hull(fixed, 0, on_block) is not _block_hull(c, 0, on_block)
    assert _block_hull(fixed, 0, on_block) == _block_hull(c, 0, on_block)
    verdict = hull_contains(c, probe)
    assert verdict.member
    # a probe that agrees on block 0 asks the same system: the same weights
    other = RandomVariable(space, (F(1), F(1, 2), F(1), F(0)))
    assert hull_contains(c, other).block_weights[0] is verdict.block_weights[0]
    # the memo is invisible to value semantics
    assert (repr(c), hash(c)) == before
    assert c == fixed and hash(c) == hash(fixed) and repr(c) == repr(fixed)
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_memoised_hull_matches_fresh_sets():
    rng = random.Random(9)
    rejected = 0
    for _ in range(15):
        space = random_space(rng, 6)
        c = random_rvset(rng, space, random_partition(rng, space, 3), 4)
        for probe, _ in conditional_probes(rng, c, 6):
            # c is reused across probes; each twin answers its first probe
            reused = hull_contains(c, probe)
            assert reused == hull_contains(RvSet(c.generators, c.partition), probe)
            assert hull_contains(c, probe) == reused
            rejected += not reused.member
    assert rejected >= 10


def test_unconditional_cross_checks_need_one_space():
    two = SampleSpace((0, 1), (F(1, 2), F(1, 2)))
    skewed = SampleSpace((0, 1), (F(1, 3), F(2, 3)))
    three = SampleSpace((0, 1, 2), (F(1, 3),) * 3)
    gens = [RandomVariable(two, (F(2), F(2)))]
    # the probe's third value is beyond the generators' space
    longer = RandomVariable(three, (F(1), F(1), F(5)))
    # same size, other probabilities
    reweighted = RandomVariable(skewed, (F(1), F(1)))
    for probe in (longer, reweighted):
        with pytest.raises(PreconditionError):
            unconditional_hull_contains(gens, probe)
        with pytest.raises(PreconditionError):
            unconditional_bipolar_contains(gens, probe)
    mixed = gens + [RandomVariable(skewed, (F(1), F(1)))]
    probe = RandomVariable(two, (F(1), F(1)))
    for oracle in (unconditional_hull_contains, unconditional_bipolar_contains):
        with pytest.raises(PreconditionError):
            oracle(mixed, probe)
        with pytest.raises(PreconditionError):
            oracle([], probe)
        # on one space both answer
        assert oracle(gens, probe)


def _reference_hull_mixture(rng: random.Random, c: RvSet, scale) -> tuple:
    """The draw of _hull_mixture, written in Fraction operators."""
    vals = [F(0)] * c.space.size
    for block in c.partition.blocks:
        w = random_positive_weights(rng, len(c.generators))
        for outcome in block:
            i = c.space.index(outcome)
            vals[i] = scale * sum(
                (wi * g.values[i] for wi, g in zip(w, c.generators)), F(0)
            )
    return tuple(vals)


def test_hull_mixture_matches_reference_draw():
    rng = random.Random(41)
    for _ in range(60):
        space = random_space(rng)
        c = random_rvset(rng, space, random_partition(rng, space))
        scale = F(rng.randint(0, 4), rng.randint(1, 4))
        seed = rng.randrange(2**32)
        ours, reference = random.Random(seed), random.Random(seed)
        assert _hull_mixture(ours, c, scale).values == _reference_hull_mixture(
            reference, c, scale
        )
        assert ours.getstate() == reference.getstate()


def _ratios(values):
    """Numerators and denominators, so a value left unnormalised shows."""
    return [(type(v), v.as_integer_ratio()) for v in values]


def _reference_probes(rng: random.Random, c: RvSet, count: int) -> list:
    """The draw of conditional_probes, written in Fraction operators."""
    probes = []
    while len(probes) < count:
        kind = rng.randrange(4)
        if kind == 0:
            denom = rng.randint(1, 4)
            scale = F(rng.randint(0, denom), denom)
            probes.append((_reference_hull_mixture(rng, c, scale), True))
        elif kind == 1:
            probes.append((_reference_hull_mixture(rng, c, F(1)), True))
        elif kind == 2:
            vals = list(_reference_hull_mixture(rng, c, F(1)))
            vals[rng.randrange(c.space.size)] += F(1, 1000)
            probes.append((tuple(vals), None))
        else:
            outcomes = c.space.outcomes
            vals = tuple(F(rng.randint(0, 3), rng.randint(1, 3)) for _ in outcomes)
            probes.append((vals, None))
    return probes


def _reference_polar_rvs(rng: random.Random, c: RvSet, count: int) -> list:
    """The draw of _sample_polar_rvs: an unbounded maximum walks 2u along
    its ray, u a unit fraction of denominator at most 3."""
    system = conditional_polar_constraints(c)
    out = []
    for _ in range(count):
        objective = [(j, F(rng.randint(-1, 2))) for j in range(system.num_vars)]
        res = maximize(system, objective)
        point = res.point
        if res.status is LpStatus.UNBOUNDED:
            den = rng.randint(1, 3)
            t = F(rng.randint(0, den), den) * 2
            point = tuple(p + t * r for p, r in zip(point, res.ray))
        out.append((res.status, point))
    return out


def _reference_block_constant(
    rng: random.Random, part: Partition, max_num: int
) -> list:
    vals = [F(0)] * part.space.size
    for block in part.blocks:
        v = F(rng.randint(0, max_num), rng.randint(1, 2))
        for w in block:
            vals[part.space.index(w)] = v
    return vals


def test_conditional_samplers_match_operator_reference():
    rng = random.Random(59)
    unbounded = rescaled = 0
    for _ in range(80):
        space = random_space(rng)
        part = random_partition(rng, space)
        c = random_rvset(rng, space, part)
        seed = rng.randrange(2**32)
        ours, reference = random.Random(seed), random.Random(seed)
        probes = conditional_probes(ours, c, 10)
        expected = _reference_probes(reference, c, 10)
        assert [_ratios(p.values) for p, _ in probes] == [
            _ratios(v) for v, _ in expected
        ]
        assert [k for _, k in probes] == [k for _, k in expected]
        polar = _sample_polar_rvs(ours, c)
        expected = _reference_polar_rvs(reference, c, 2)
        assert [_ratios(g.values) for g in polar] == [_ratios(v) for _, v in expected]
        unbounded += sum(status is LpStatus.UNBOUNDED for status, _ in expected)
        # the unit ball: scaled by 1 / E when E > 1
        vals = _reference_block_constant(reference, part, 3)
        e = sum((space.prob(w) * vals[space.index(w)] for w in space.outcomes), F(0))
        if e > 1:
            vals = [(1 / e) * v for v in vals]
        assert _ratios(_random_unit_ball(ours, part).values) == _ratios(vals)
        # a block weight: scaled by 1 / max when the max exceeds 1
        vals = _reference_block_constant(reference, part, 2)
        if any(v > 1 for v in vals):
            rescaled += 1
            vals = [(1 / max(vals)) * v for v in vals]
        assert _ratios(_random_block_weight(ours, part).values) == _ratios(vals)
        assert ours.getstate() == reference.getstate()
    assert unbounded >= 10 and rescaled >= 10, (unbounded, rescaled)


def _draw(rng: random.Random) -> F:
    """A rational in [0, 3], 0 about a third of the time."""
    return F(0) if rng.random() < 1 / 3 else F(rng.randint(1, 9), rng.randint(1, 3))


def test_mix_and_row_terms_match_operator_reference(monkeypatch):
    asked = []
    minimize = rv_polar.minimize

    def recording(system, objective):
        asked.append(system)
        return minimize(system, objective)

    monkeypatch.setattr(rv_polar, "minimize", recording)
    rng = random.Random(53)
    for _ in range(60):
        space = random_space(rng, 6)
        part = random_partition(rng, space)
        f, g, h = (
            RandomVariable(space, tuple(_draw(rng) for _ in space.outcomes))
            for _ in range(3)
        )
        # block-constant weights, 0 and 1 drawn often
        per_block = [
            rng.choice((F(0), F(1), F(rng.randint(1, 5), 6))) for _ in part.blocks
        ]
        wv = [F(0)] * space.size
        for block, w in zip(part.blocks, per_block):
            for outcome in block:
                wv[space.index(outcome)] = w
        weight = RandomVariable(space, tuple(wv))
        assert _ratios(partition_mix(f, g, weight, part).values) == _ratios(
            w * a + (1 - w) * b for w, a, b in zip(wv, f.values, g.values)
        )

        c = RvSet((f, g), part)
        rows = conditional_polar_constraints(c).rows
        expected = []
        for gen in c.generators:
            for block in part.blocks:
                idx = sorted(map(space.index, block))
                expected.append(
                    (
                        [(i, space.probs[i] * gen.values[i]) for i in idx],
                        sum((space.prob(w) for w in block), F(0)),
                    )
                )
        assert [(list(r.terms), r.rhs) for r in rows] == expected
        for r, (terms, rhs) in zip(rows, expected):
            assert _ratios([a for _, a in r.terms] + [r.rhs]) == _ratios(
                [a for _, a in terms] + [rhs]
            )

        asked.clear()
        unconditional_bipolar_contains([f, g], h)
        (system,) = asked
        for i, (row, p) in enumerate(zip(system.rows, space.probs)):
            assert _ratios([a for _, a in row.terms] + [row.rhs]) == _ratios(
                [p * f.values[i], p * g.values[i], p * h.values[i]]
            )


def test_product_decompose_matches_operator_reference(monkeypatch):
    """``k = l * ratio`` and ``h = f * l / k`` per block, as the Fraction
    operators give them.  A valid input always has ratio 1, so the minimum
    read from each block's LP is also scaled up (by at most 2, on a unit-ball
    element of expectation at most 1/2), which keeps every postcondition."""
    ratios = []
    minimize = rv_polar.minimize

    def scaled(system, objective):
        out = minimize(system, objective)
        value = out.value * rng.choice((F(1), F(3, 2), F(2), F(7, 5)))
        ratios.append(max(F(1), value))
        return exact_lp.LpOutcome(out.status, value=value, point=out.point)

    monkeypatch.setattr(rv_polar, "minimize", scaled)
    rng = random.Random(59)
    scaled_up = False
    for _ in range(60):
        space = random_space(rng, 6)
        part = random_partition(rng, space)
        c = random_rvset(rng, space, part, 3)
        f = _hull_mixture(rng, c, F(1))
        ball = _random_unit_ball(rng, part).scale(F(1, 2))
        ratios.clear()
        h, k = product_decompose(c, f, ball)
        expected_h, expected_k = [F(0)] * space.size, [F(0)] * space.size
        blocks = [b for b in part.blocks if ball[b[0]] != 0]
        assert len(ratios) == len(blocks)
        for block, ratio in zip(blocks, ratios):
            for w in block:
                i = space.index(w)
                expected_k[i] = ball.values[i] * ratio
                expected_h[i] = f.values[i] * ball.values[i] / expected_k[i]
        assert _ratios(k.values) == _ratios(expected_k)
        assert _ratios(h.values) == _ratios(expected_h)
        scaled_up |= any(r > 1 for r in ratios)
    assert scaled_up


def test_hull_weights_are_convex_and_dominate_the_probe():
    """The hull system writes ``sum_i l_i f_i(w) >= h(w)`` as ``sum_i l_i
    (h(w) - f_i(w)) <= 0`` beside the convex row.  Over 200 seeded sets,
    with generators that take the value 0, probes equal to a generator and
    zero probes among the drawn ones: every "yes" carries per-block weights
    that are >= 0 and sum to 1 and whose mixture meets the ``>=`` rows
    (checked with the operators), every verdict agrees with the bipolar
    oracle, each system's rows are the operator differences, and phase 1
    starts each system with one artificial, the convex row's."""
    rng = random.Random(61)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        space = random_space(rng, 6)
        part = random_partition(rng, space, 3)
        gens = tuple(
            RandomVariable(space, tuple(_draw(rng) for _ in space.outcomes))
            for _ in range(rng.randint(1, 4))
        )
        c = RvSet(gens, part)
        probes = [probe for probe, _ in conditional_probes(rng, c, 4)]
        probes += [rng.choice(gens), RandomVariable(space, (0,) * space.size)]
        for probe in probes:
            verdict = hull_contains(c, probe)
            assert verdict.member == conditional_bipolar_contains(c, probe).member
            verdicts[verdict.member] += 1
            for bi, block in enumerate(part.blocks):
                values = tuple(probe.values[space.index(w)] for w in block)
                system = _block_hull(c, bi, values)
                expected = [([(j, F(1)) for j in range(len(gens))], "=", F(1))]
                expected += (
                    (
                        [(j, v - f.values[space.index(w)]) for j, f in enumerate(gens)],
                        "<=",
                        F(0),
                    )
                    for w, v in zip(block, values)
                )
                assert [(list(r.terms), r.relation, r.rhs) for r in system.rows] == expected
                assert exact_lp._Standard(system).basis_hint.count(None) == 1
            if not verdict.member:
                continue
            assert len(verdict.block_weights) == len(part.blocks)
            for block, weights in zip(part.blocks, verdict.block_weights):
                assert len(weights) == len(gens)
                assert all(x >= 0 for x in weights) and sum(weights) == 1
                for w in block:
                    i = space.index(w)
                    mixture = sum(x * f.values[i] for x, f in zip(weights, gens))
                    assert mixture >= probe.values[i]
    assert min(verdicts.values()) >= 100, verdicts
