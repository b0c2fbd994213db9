import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procpolar.errors import PreconditionError, RationalFormatError
from procpolar.fuzz import random_partition, random_rv, random_space, random_tree
from procpolar.rational import dot, parse_rational, product
from procpolar.tree import (
    EventTree,
    Partition,
    RandomVariable,
    SampleSpace,
    cond_exp_partition,
    level_partition,
    level_space,
    node_measure,
    terminal_space,
    validate_tree,
)

rationals = st.fractions(min_value=0, max_value=4, max_denominator=6)
# signed, with large denominators, and zero drawn often
factors = st.one_of(st.just(F(0)), st.fractions(max_denominator=10**12))


def test_validate_uniform_binary(t1):
    assert validate_tree(t1) == ()


def test_validate_bad_sum():
    bad = EventTree.build([None, 0, 0], [None, "1/4", "1/2"])
    violations = validate_tree(bad)
    assert violations
    assert "sum to 3/4" in violations[0]


def test_validate_zero_prob_child():
    bad = EventTree.build([None, 0, 0], [None, "0", "1"])
    violations = validate_tree(bad)
    assert any("non-equivalent measure" in v for v in violations)


def test_validate_short_leaf():
    # a leaf at time 1 while the horizon is 2
    ragged = EventTree.build(
        [None, 0, 0, 1, 1], [None, "1/2", "1/2", "1/2", "1/2"]
    )
    violations = validate_tree(ragged)
    assert any("before the horizon" in v for v in violations)


def test_build_rejects_two_roots():
    with pytest.raises(PreconditionError):
        EventTree.build([None, None], [None, None])


def test_atoms_refine(t2):
    # the atoms of F_t as sets of terminal nodes
    def atoms(t):
        return level_partition(t2, t2.horizon, t).blocks

    assert atoms(0) == ((3, 4, 5, 6),)
    assert atoms(1) == ((3, 4), (5, 6))
    assert atoms(2) == ((3,), (4,), (5,), (6,))
    for t in (1, 2):
        for block in atoms(t):
            assert sum(1 for cb in atoms(t - 1) if set(block) <= set(cb)) == 1


def test_atoms_out_of_range(t1):
    with pytest.raises(PreconditionError):
        level_partition(t1, t1.horizon, 5)
    with pytest.raises(PreconditionError):
        level_partition(t1, 5, 0)


def test_path_prob_consistency(t2):
    measure = node_measure(t2)
    assert measure[0] == 1
    for n in t2.non_terminal_nodes():
        assert measure[n] == sum(measure[c] for c in t2.children[n])
    assert sum(measure[n] for n in t2.terminal_nodes()) == 1


def test_cond_exp_partition_block_constant_fixed(t2):
    space = terminal_space(t2)
    part = Partition.from_blocks(space, [(3, 4), (5, 6)])
    rv = RandomVariable(space, (F(1), F(1), F(2), F(2)))
    assert cond_exp_partition(rv, part) == rv


def test_cond_exp_partition_hand_value(t2):
    space = terminal_space(t2)
    part = Partition.from_blocks(space, [(3, 4), (5, 6)])
    rv = RandomVariable(space, (F(2), F(0), F(0), F(0)))
    assert cond_exp_partition(rv, part).values == (F(1), F(1), F(0), F(0))


def test_cond_exp_trivial_partition_is_expectation(t2):
    space = terminal_space(t2)
    rv = RandomVariable(space, (F(1), F(2), F(3), F(4)))
    out = cond_exp_partition(rv, Partition.trivial(space))
    assert set(out.values) == {rv.expectation()}


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(rationals, min_size=4, max_size=4))
def test_tower_property_exact(vals):
    tree = EventTree.build(
        [None, 0, 0, 1, 1, 2, 2],
        [None, "1/3", "2/3", "1/4", "3/4", "1/2", "1/2"],
    )
    space = terminal_space(tree)
    rv = RandomVariable(space, tuple(vals))
    fine = level_partition(tree, tree.horizon, 1)
    coarse = Partition.trivial(space)
    once = cond_exp_partition(rv, coarse)
    twice = cond_exp_partition(cond_exp_partition(rv, fine), coarse)
    assert once == twice
    assert cond_exp_partition(rv, fine).expectation() == rv.expectation()


def test_level_partition_groups_by_ancestor(t2):
    part = level_partition(t2, 2, 1)
    assert part.space == level_space(t2, 2)
    assert part.blocks == ((3, 4), (5, 6))


def test_partition_invariants(t2):
    space = terminal_space(t2)
    with pytest.raises(PreconditionError):
        Partition.from_blocks(space, [(3, 4), (4, 5, 6)])
    with pytest.raises(PreconditionError):
        Partition.from_blocks(space, [(3, 4)])


def test_sample_space_rejects_bad_weights():
    with pytest.raises(PreconditionError):
        SampleSpace((0, 1), (F(1, 2), F(1, 3)))
    with pytest.raises(PreconditionError):
        SampleSpace((0, 1), (F(0), F(1)))


def test_random_variable_nonnegative(t1):
    space = terminal_space(t1)
    with pytest.raises(PreconditionError):
        RandomVariable(space, (F(-1), F(1)))


def test_random_variable_values_are_exact_rationals(t1):
    space = terminal_space(t1)
    rv = RandomVariable(space, (2, "1/2"))
    assert rv.values == (F(2), F(1, 2))
    assert all(type(v) is F for v in rv.values)
    assert RandomVariable(space, rv.values).values is rv.values
    for bad in ((0.5, F(1)), (True, 1), (1, "0.5")):
        with pytest.raises(RationalFormatError):
            RandomVariable(space, bad)
    with pytest.raises(PreconditionError):
        RandomVariable(space, ("-1/2", 1))


def test_parse_rational_strictness():
    assert parse_rational("7/2") == F(7, 2)
    for bad in ("0.5", "1e-3", "½", "1/0"):
        with pytest.raises(Exception):
            parse_rational(bad)


def _is_normalised(x) -> bool:
    return type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(a=factors, b=factors)
def test_product_is_the_normalised_operator_product(a, b):
    out = product(a, b)
    assert _is_normalised(out)
    expected = a * b
    assert out.as_integer_ratio() == expected.as_integer_ratio()
    if not (a and b):
        assert out.as_integer_ratio() == (0, 1)


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(factors, factors), max_size=12))
def test_dot_is_the_normalised_operator_sum(pairs):
    out = dot(pairs)
    expected = sum((a * b for a, b in pairs), F(0))
    assert _is_normalised(out)
    assert out.as_integer_ratio() == expected.as_integer_ratio()
    assert dot(iter(pairs)) == out  # any iterable of pairs, read once


def test_dot_of_no_terms_and_of_zero_factors_is_zero():
    for pairs in ([], iter(()), [(F(0), F(3, 7)), (F(5, 9), F(0))]):
        out = dot(pairs)
        assert _is_normalised(out) and out.as_integer_ratio() == (0, 1)
    # terms that cancel leave a normalised zero as well
    out = dot([(F(1, 6), F(3, 5)), (F(-1, 10), F(1))])
    assert out.as_integer_ratio() == (0, 1)


def test_random_variable_calculus_matches_operator_reference():
    rng = random.Random(31)
    for _ in range(80):
        space = random_space(rng, 6)
        x, y = random_rv(rng, space), random_rv(rng, space)
        f = F(rng.randint(0, 7), rng.randint(1, 5))
        assert x.expectation() == sum(
            (p * v for p, v in zip(space.probs, x.values)), F(0)
        )
        assert x.pointwise_mul(y).values == tuple(
            a * b for a, b in zip(x.values, y.values)
        )
        assert x.scale(f).values == tuple(f * v for v in x.values)
        for out in (x.expectation(), *x.pointwise_mul(y).values, *x.scale(f).values):
            assert _is_normalised(out)


def test_measure_arithmetic_matches_operator_reference():
    rng = random.Random(37)
    for _ in range(80):
        tree = random_tree(rng, 3, 3)
        probs = [F(1)] * tree.num_nodes
        for n in range(1, tree.num_nodes):
            probs[n] = probs[tree.parent[n]] * tree.edge_prob[n]
        got = node_measure(tree)
        assert all(_is_normalised(v) for v in got)
        assert [v.as_integer_ratio() for v in got] == [
            v.as_integer_ratio() for v in probs
        ]
        space = random_space(rng, 6)
        part = random_partition(rng, space)
        for block in part.blocks:
            out = part.block_prob(block)
            expected = sum((space.prob(w) for w in block), F(0))
            assert _is_normalised(out)
            assert out.as_integer_ratio() == expected.as_integer_ratio()


def test_space_and_conditional_expectation_match_operator_reference():
    rng = random.Random(43)
    accepted = set()
    for _ in range(150):
        # a space is accepted exactly when the operators sum its weights to 1
        raw = [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
        total = sum(raw, F(0))
        probs = [p / total for p in raw] if rng.random() < 0.5 else raw
        try:
            SampleSpace(tuple(range(len(probs))), tuple(probs))
            ok = True
        except PreconditionError:
            ok = False
        assert ok == (sum(probs, F(0)) == 1)
        accepted.add(ok)
        # block averages, with zero values drawn often by random_rv
        space = random_space(rng, 6)
        part = random_partition(rng, space)
        rv = random_rv(rng, space)
        expected = [F(0)] * space.size
        for block in part.blocks:
            mass = sum((space.prob(w) * rv[w] for w in block), F(0))
            avg = mass / sum((space.prob(w) for w in block), F(0))
            for w in block:
                expected[space.index(w)] = avg
        got = cond_exp_partition(rv, part).values
        assert all(_is_normalised(v) for v in got)
        assert [v.as_integer_ratio() for v in got] == [
            v.as_integer_ratio() for v in expected
        ]
    assert accepted == {True, False}


def test_prepared_structure_matches_the_scans():
    """What a tree and a partition prepare once against the scans and
    operator sums it replaces: the levels for every time from -1 to
    horizon + 1, the non-terminal and terminal nodes, the node measure and
    the integer edge weights of each node; each block's indices and
    probability, measurability and block averages.  None of it shows in
    equality, hashing or repr."""
    rng = random.Random(59)
    single, measurable = 0, {True: 0, False: 0}
    for _ in range(150):
        tree = random_tree(rng, 4, 3)
        n = tree.num_nodes
        for t in range(-1, tree.horizon + 2):
            assert tree.nodes_at(t) == tuple(i for i in range(n) if tree.time[i] == t)
        scan = tuple(i for i in range(n) if tree.time[i] < tree.horizon)
        assert tree.non_terminal_nodes() == scan
        assert tree.terminal_nodes() == tree.nodes_at(tree.horizon)
        measure = [F(1)] * n
        for i in range(1, n):
            measure[i] = measure[tree.parent[i]] * tree.edge_prob[i]
        assert list(node_measure(tree)) == measure
        assert [node for node, _, _ in tree.child_weights] == list(scan)
        for node, weights, common in tree.child_weights:
            assert [c for c, _ in weights] == list(tree.children[node])
            assert [F(p, common) for _, p in weights] == [
                tree.edge_prob[c] for c in tree.children[node]
            ]
            assert gcd(common, *(p for _, p in weights)) == 1
            single += len(weights) == 1
        twin = EventTree.build(tree.parent, tree.edge_prob)
        assert twin == tree and hash(twin) == hash(tree) and repr(twin) == repr(tree)

        space = random_space(rng, 6)
        part = random_partition(rng, space)
        rv = random_rv(rng, space)
        flat = RandomVariable(space, tuple(F(i % 2) for i in range(space.size)))
        assert part.block_indices == tuple(
            tuple(space.outcomes.index(w) for w in block) for block in part.blocks
        )
        expected = [F(0)] * space.size
        for k, block in enumerate(part.blocks):
            pb = sum((space.probs[space.outcomes.index(w)] for w in block), F(0))
            assert part.block_prob(block) == part.block_probs[k] == pb
            mass = sum((space.prob(w) * rv[w] for w in block), F(0))
            for w in block:
                expected[space.outcomes.index(w)] = mass / pb
        assert list(cond_exp_partition(rv, part).values) == expected
        for x in (rv, flat, cond_exp_partition(rv, part)):
            constant = all(len({x[w] for w in block}) == 1 for block in part.blocks)
            assert part.is_measurable(x) is constant
            measurable[constant] += 1
        again = Partition.from_blocks(space, part.blocks)
        assert again == part and hash(again) == hash(part) and repr(again) == repr(part)
    assert single >= 50 and min(measurable.values()) >= 50, (single, measurable)


def test_block_prob_takes_any_set_of_outcomes():
    rng = random.Random(53)
    space = random_space(rng, 6)
    ws = list(space.outcomes)
    part = Partition.from_blocks(space, [ws[3:], ws[2::-1]])
    assert part.blocks == (tuple(ws[:3]), tuple(ws[3:]))

    def reference(outcomes):
        return sum((space.prob(w) for w in outcomes), F(0))

    assert part.block_prob(tuple(reversed(ws[3:]))) == reference(ws[3:])
    assert part.block_prob(ws[2::-1]) == part.block_probs[0] == reference(ws[:3])
    assert part.block_prob((ws[1],)) == space.prob(ws[1])
    assert part.block_prob(ws[::-1]) == 1
    assert part.block_prob(()) == 0
