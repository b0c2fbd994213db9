import random
from collections import Counter
from fractions import Fraction as F

import pytest

from procpolar.errors import PreconditionError, RationalFormatError
from procpolar.fuzz import random_supermartingale, random_tree
from procpolar.processes import (
    AdaptedProcess,
    NonIncreasingProcess,
    ProcessSet,
    fork_splice,
    has_absorbed_zeros,
    increment,
    is_martingale,
    is_supermartingale,
    is_unit_supermartingale,
    random_hull_element,
    random_nonincreasing_process,
    random_unit_fraction,
    replay_trace,
    solid_multiply,
)


def _reference_is_supermartingale(y: AdaptedProcess) -> bool:
    """The one-step check written out again, independent of any cache."""
    tree = y.tree
    for n in tree.non_terminal_nodes():
        kids = tree.children[n]
        if sum((tree.edge_prob[ch] * y.values[ch] for ch in kids), F(0)) > y.values[n]:
            return False
    return True


def _reference_is_martingale(y: AdaptedProcess) -> bool:
    """The one-step equality written out in Fraction arithmetic."""
    tree = y.tree
    for n in tree.non_terminal_nodes():
        kids = tree.children[n]
        if sum((tree.edge_prob[ch] * y.values[ch] for ch in kids), F(0)) != y.values[n]:
            return False
    return True


def _reference_fork_splice(y1, y2, y3, s, weights) -> tuple:
    """The per-node formula y1(n) * (w * inc(y2) + (1-w) * inc(y3)), with n
    the time-s ancestor of each node from time s on."""
    tree = y1.tree
    vals = list(y1.values)
    for m in range(tree.num_nodes):
        t = tree.time[m]
        if t >= s:
            n = tree.ancestor_at(m, s)
            w = weights[n]
            vals[m] = y1.values[n] * (
                w * increment(y2, s, t, m) + (1 - w) * increment(y3, s, t, m)
            )
    return tuple(vals)


def _reference_supermartingale_values(
    rng: random.Random, tree, strictly_positive: bool, martingale: bool
) -> tuple:
    """The draw of random_supermartingale, written in Fraction operators."""
    low = 1 if strictly_positive else 0
    vals = [F(0)] * tree.num_nodes
    vals[0] = F(rng.randint(low, 4), 4)
    for n in tree.non_terminal_nodes():
        kids = tree.children[n]
        raw = [F(rng.randint(low, 4), rng.randint(1, 3)) for _ in kids]
        if martingale and all(r == 0 for r in raw):
            raw[rng.randrange(len(raw))] = F(1)
        mean = sum((tree.edge_prob[ch] * r for ch, r in zip(kids, raw)), F(0))
        if mean > 1 or (martingale and mean != 0):
            raw = [r / mean for r in raw]
        for ch, r in zip(kids, raw):
            vals[ch] = vals[n] * r
    return tuple(vals)


def _reference_nonincreasing_values(rng: random.Random, tree) -> tuple:
    """The draw of random_nonincreasing_process, one unit fraction per node."""
    vals = [F(1)] * tree.num_nodes
    vals[0] = 1 - random_unit_fraction(rng, 3) / 2
    for i in range(1, tree.num_nodes):
        vals[i] = vals[tree.parent[i]] * (1 - random_unit_fraction(rng, 3) / 3)
    return tuple(vals)


def test_process_values_are_exact_rationals(t1):
    y = AdaptedProcess(t1, (1, "1/2", F(3, 2)))
    assert y.values == (F(1), F(1, 2), F(3, 2))
    assert all(type(v) is F for v in y.values)
    assert AdaptedProcess(t1, y.values).values is y.values  # shared, not copied
    assert AdaptedProcess(t1, [F(1)] * 3).values == (F(1),) * 3
    for bad in ((0.5, 0.25, 0.75), (F(1), 0.5, F(1)), (1, True, 1), (1, "0.5", 1)):
        with pytest.raises(RationalFormatError):
            AdaptedProcess(t1, bad)
    with pytest.raises(PreconditionError):
        AdaptedProcess(t1, (1, "-1/2", 1))


def test_constant_one_supermartingale(t1):
    assert is_unit_supermartingale(AdaptedProcess.constant(t1, 1))


def test_martingale_equality_case(t2):
    y = AdaptedProcess.from_mapping(t2, {0: 1, 1: 2, 2: 0, 3: 2, 4: 2, 5: 0, 6: 0})
    assert is_supermartingale(y)


def test_supermartingale_violation(t1):
    y = AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 1})
    assert not is_supermartingale(y)


def test_zero_absorption(t2):
    y = AdaptedProcess.from_mapping(t2, {0: 1, 1: 0, 2: 2, 3: 0, 4: 0, 5: 2, 6: 2})
    assert is_supermartingale(y) and has_absorbed_zeros(y)
    broken = AdaptedProcess.from_mapping(
        t2, {0: 1, 1: 0, 2: 2, 3: 1, 4: 0, 5: 2, 6: 2}
    )
    assert not has_absorbed_zeros(broken)


def test_increment_conventions(t2):
    y = AdaptedProcess.from_mapping(
        t2, {0: 1, 1: F(2, 3), 2: 0, 3: F(1, 3), 4: 1, 5: 0, 6: 0}
    )
    assert increment(y, 1, 1, 1) == 1
    assert increment(y, 0, 1, 1) == F(2, 3)
    assert increment(y, 0, 2, 3) == F(1, 3)
    assert increment(y, 1, 2, 3) == F(1, 2)
    assert increment(y, 0, 2, 5) == 0  # 0/0 after absorption
    assert increment(y, 2, 2, 5) == 1  # same-time increment is 1 even at a zero


def test_increment_cocycle(t2):
    rng = random.Random(0)
    for _ in range(20):
        y = random_supermartingale(rng, t2)
        for m in t2.terminal_nodes():
            u = t2.ancestor_at(m, 1)
            lhs = increment(y, 0, 1, u) * increment(y, 1, 2, m)
            if y.values[u] > 0:
                assert lhs == increment(y, 0, 2, m)
            else:
                assert lhs == 0 == increment(y, 0, 2, m)


def test_solid_multiply_identity_and_scaling(t1):
    y = AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 0})
    one = NonIncreasingProcess(AdaptedProcess.constant(t1, 1))
    assert solid_multiply(y, one) == y
    half = solid_multiply(y, NonIncreasingProcess(AdaptedProcess.constant(t1, "1/2")))
    assert half.values == (F(1, 2), F(1), F(0))
    assert is_unit_supermartingale(half)


def test_nonincreasing_invariants(t1):
    with pytest.raises(PreconditionError):
        NonIncreasingProcess(AdaptedProcess.from_mapping(t1, {0: 2, 1: 1, 2: 1}))
    with pytest.raises(PreconditionError):
        NonIncreasingProcess(AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 1}))


def _reference_nonincreasing_message(p: AdaptedProcess):
    """The message ``NonIncreasingProcess(p)`` raises, by plain ``Fraction``
    comparison, or None when ``p`` starts at most at 1 and never increases."""
    if p.initial > 1:
        return "nonincreasing processes start at most at 1"
    for i, par in enumerate(p.tree.parent):
        if par is not None and p.values[i] > p.values[par]:
            return f"value increases along the edge into {p.tree.labels[i]}"
    return None


def test_nonincreasing_check_matches_fraction_reference():
    rng = random.Random(37)
    step = F(1, 2**61 - 1)  # a rational far below every other denominator
    verdicts: Counter = Counter()
    for _ in range(60):
        tree = random_tree(rng, 3, 3)
        base = random_nonincreasing_process(rng, tree).process
        n = rng.randrange(tree.num_nodes)
        par = tree.parent[n]
        top = F(1) if par is None else base.values[par]
        variants = [
            base,
            base.with_value(n, top),  # equal to its parent (or to 1): allowed
            base.with_value(n, top + step),
            base.with_value(n, max(top - step, F(0))),
            base.with_value(n, top * F(rng.randint(1, 7), rng.randint(1, 7))),
        ]
        for p in variants:
            expected = _reference_nonincreasing_message(p)
            if expected is None:
                assert NonIncreasingProcess(p).process == p
            else:
                with pytest.raises(PreconditionError) as err:
                    NonIncreasingProcess(p)
                assert str(err.value) == expected
            kind = "ok" if expected is None else expected.split()[0]
            verdicts[kind] += 1
    # allowed processes, starts above 1 and increases along an edge all occur
    assert min(verdicts[k] for k in ("ok", "nonincreasing", "value")) >= 10, verdicts


def test_fork_splice_self_identity(t2):
    rng = random.Random(1)
    y = random_supermartingale(rng, t2, strictly_positive=True)
    for s in (0, 1, 2):
        assert fork_splice(y, y, y, s, dict.fromkeys(t2.nodes_at(s), "1/3")) == y


def test_fork_splice_pure_graft(t2):
    y1 = AdaptedProcess.constant(t2, 1)
    y2 = AdaptedProcess.from_mapping(
        t2, {0: 1, 1: 2, 2: 0, 3: 2, 4: 2, 5: 0, 6: 0}
    )
    spliced = fork_splice(y1, y2, y1, 0, {0: 1})
    assert spliced == y2  # y1(root)=1 times y2's increments


def test_fork_splice_midpoint(t1):
    one = AdaptedProcess.constant(t1, 1)
    y2 = AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 0})
    y3 = AdaptedProcess.from_mapping(t1, {0: 1, 1: 0, 2: 2})
    spliced = fork_splice(one, y2, y3, 0, {0: "1/2"})
    assert spliced.values == (F(1), F(1), F(1))


def test_fork_splice_weight_validation(t1):
    y = AdaptedProcess.constant(t1, 1)
    with pytest.raises(PreconditionError):
        fork_splice(y, y, y, 0, {0: 2})
    with pytest.raises(PreconditionError):
        fork_splice(y, y, y, 1, {1: F(1, 2)})  # missing weight at node d


def test_fork_splice_unit_class_closure():
    rng = random.Random(7)
    for _ in range(25):
        tree = random_tree(rng, 3, 3)
        y1 = random_supermartingale(rng, tree)
        y2 = random_supermartingale(rng, tree, martingale=True)
        y3 = random_supermartingale(rng, tree, strictly_positive=True)
        s = rng.randint(0, tree.horizon)
        w = {n: F(rng.randint(0, 3), 3) for n in tree.nodes_at(s)}
        out = fork_splice(y1, y2, y3, s, w)  # internal closure check is exact
        assert is_unit_supermartingale(out)
        b = NonIncreasingProcess(
            AdaptedProcess.constant(tree, F(rng.randint(0, 4), 4))
        )
        assert is_unit_supermartingale(solid_multiply(out, b))


def test_process_set_flags(t1):
    one = AdaptedProcess.constant(t1, 1)
    dying = AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 0})
    assert ProcessSet.of(one, dying).far_reaching
    assert not ProcessSet.of(dying).far_reaching
    # worked out from the generators, outside the fields
    c = ProcessSet((dying,))
    before = (repr(c), hash(c))
    assert not c.far_reaching
    assert (repr(c), hash(c)) == before and c == ProcessSet.of(dying)
    with pytest.raises(PreconditionError):
        ProcessSet(())


def test_pointwise_limits_stay_supermartingales():
    # on a finite tree the only exact convergence is eventual constancy:
    # the limit of an eventually constant sequence of supermartingales is
    # one of them, hence a supermartingale
    rng = random.Random(13)
    for _ in range(15):
        tree = random_tree(rng, 3, 3)
        tail = random_supermartingale(rng, tree)
        sequence = [random_supermartingale(rng, tree) for _ in range(3)] + [tail] * 3
        limit = sequence[-1]
        assert all(is_supermartingale(y) for y in sequence)
        assert is_supermartingale(limit)
        assert limit.initial <= 1


def test_random_hull_element_replay(t2):
    one = AdaptedProcess.constant(t2, 1)
    mart = AdaptedProcess.from_mapping(
        t2, {0: 1, 1: 2, 2: 0, 3: 2, 4: 2, 5: 0, 6: 0}
    )
    c = ProcessSet.of(one, mart)
    for seed in range(12):
        sample = random_hull_element(c, depth=seed % 3, rng=random.Random(seed))
        assert is_unit_supermartingale(sample.process)
        assert replay_trace(c, sample.trace) == sample.process
    assert random_hull_element(c, 0, random.Random(3)).trace[0] == "gen"


def test_cached_supermartingale_check_matches_reference():
    rng = random.Random(19)
    verdicts = {True: 0, False: 0}
    for _ in range(40):
        tree = random_tree(rng, 3, 3)
        y = random_supermartingale(rng, tree, martingale=rng.random() < 0.5)
        n = rng.randrange(tree.num_nodes)
        bumped = y.with_value(n, y.values[n] + F(1, 1000))
        lowered = y.with_value(n, y.values[n] / 2)
        for p in (y, bumped, lowered, y.scale(F(3, 2)), y.pointwise_mul(bumped)):
            expected = _reference_is_supermartingale(p)
            assert is_supermartingale(p) is expected
            assert is_supermartingale(p) is expected  # read from the cache
            assert is_supermartingale(AdaptedProcess(tree, p.values)) is expected
            verdicts[expected] += 1
    assert min(verdicts.values()) >= 20, verdicts
    # the verdict is cached outside the fields
    twin = AdaptedProcess(y.tree, y.values)
    assert y == twin and hash(y) == hash(twin) and repr(y) == repr(twin)


def _reference_has_absorbed_zeros(y: AdaptedProcess) -> bool:
    """The absorbed-zeros check written out with the operators."""
    tree = y.tree
    return not any(
        par is not None and y.values[par] == 0 and y.values[n] != 0
        for n, par in enumerate(tree.parent)
    )


def test_cached_zero_and_initial_checks_match_reference():
    """``has_absorbed_zeros`` (cached per process) and the initial-value
    test of ``is_unit_supermartingale`` against the operator forms."""
    rng = random.Random(23)
    zeros, units = Counter(), Counter()
    for _ in range(200):
        tree = random_tree(rng, 3, 3)
        values = [rng.choice((0, 0, F(1, 2), 1, F(3, 2))) for _ in range(tree.num_nodes)]
        p = AdaptedProcess(tree, values)
        expected = _reference_has_absorbed_zeros(p)
        assert has_absorbed_zeros(p) is expected
        assert has_absorbed_zeros(p) is expected  # read from the cache
        unit = p.values[0] <= 1 and _reference_is_supermartingale(p)
        assert is_unit_supermartingale(p) is unit
        zeros[expected] += 1
        units[unit] += 1
    assert min(zeros[True], zeros[False], units[True], units[False]) >= 20
    twin = AdaptedProcess(p.tree, p.values)
    assert p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)


def test_martingale_check_matches_reference():
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    for _ in range(40):
        tree = random_tree(rng, 3, 3)
        y = random_supermartingale(rng, tree, martingale=rng.random() < 0.6)
        n = rng.randrange(tree.num_nodes)
        bumped = y.with_value(n, y.values[n] + F(1, 1000))
        for p in (y, bumped, y.scale(F(3, 2)), y.pointwise_mul(bumped)):
            expected = _reference_is_martingale(p)
            assert is_martingale(p) is expected
            verdicts[expected] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_fork_splice_matches_increment_reference():
    rng = random.Random(23)
    cases: Counter = Counter()
    for _ in range(120):
        tree = random_tree(rng, 3, 3)
        y1, y2, y3 = (
            random_supermartingale(rng, tree, martingale=rng.random() < 0.3)
            for _ in range(3)
        )
        for s in range(tree.horizon + 1):
            weights = {
                n: rng.choice((F(0), F(1), F(rng.randint(1, 5), 6)))
                for n in tree.nodes_at(s)
            }
            out = fork_splice(y1, y2, y3, s, weights)
            assert out.values == _reference_fork_splice(y1, y2, y3, s, weights)
            cases[f"depth {tree.horizon}"] += 1
            if s in (0, tree.horizon):
                cases["s = 0" if s == 0 else "s = horizon"] += 1
            else:
                cases["0 < s < horizon"] += 1
            v1, v2, v3 = y1.values, y2.values, y3.values
            for n, w in weights.items():
                cases["w = 0" if w == 0 else "w = 1" if w == 1 else "0 < w < 1"] += 1
                if v1[n] and ((w and not v2[n]) or (w != 1 and not v3[n])):
                    cases["weighted zero branch at a fork node"] += 1
                if not (v2[n] and v3[n]) and any(
                    tree.time[m] > s and tree.ancestor_at(m, s) == n
                    for m in range(tree.num_nodes)
                ):
                    cases["zero subtree below a fork node"] += 1
    assert sum(cases[f"depth {d}"] for d in (1, 2, 3)) >= 200, cases
    for case in (
        "depth 1", "depth 2", "depth 3", "s = 0", "0 < s < horizon", "s = horizon",
        "w = 0", "w = 1", "0 < w < 1",
        "weighted zero branch at a fork node", "zero subtree below a fork node",
    ):
        assert cases[case] >= 10, (case, cases)


def test_random_nonincreasing_process_matches_reference_draw():
    shapes = random.Random(29)
    for seed in range(60):
        tree = random_tree(shapes, 3, 3)
        ours, reference = random.Random(seed), random.Random(seed)
        b = random_nonincreasing_process(ours, tree)
        assert b.process.values == _reference_nonincreasing_values(reference, tree)
        assert ours.getstate() == reference.getstate()


def test_random_supermartingale_matches_reference_draw():
    shapes = random.Random(43)
    for seed in range(60):
        tree = random_tree(shapes, 3, 3)
        for positive in (False, True):
            for martingale in (False, True):
                ours, reference = random.Random(seed), random.Random(seed)
                y = random_supermartingale(ours, tree, positive, martingale)
                assert y.values == _reference_supermartingale_values(
                    reference, tree, positive, martingale
                )
                assert ours.getstate() == reference.getstate()


def test_process_calculus_matches_operator_reference():
    rng = random.Random(47)
    for _ in range(80):
        tree = random_tree(rng, 3, 3)
        y, z = (random_supermartingale(rng, tree) for _ in range(2))
        f = F(rng.randint(0, 7), rng.randint(1, 5))
        assert y.pointwise_mul(z).values == tuple(
            a * b for a, b in zip(y.values, z.values)
        )
        assert y.scale(f).values == tuple(f * v for v in y.values)
        for m in range(tree.num_nodes):
            t = tree.time[m]
            for s in range(t + 1):
                num, den = y.values[m], y.values[tree.ancestor_at(m, s)]
                expected = F(1) if s == t else num / den if den else F(0)
                assert increment(y, s, t, m) == expected


def _single_child_tree(rng: random.Random):
    """A random tree of depth 1-3 in which some node has exactly one child:
    there the one-step expectation is the child's value itself."""
    while True:
        tree = random_tree(rng, 3, 3)
        if any(len(tree.children[n]) == 1 for n in tree.non_terminal_nodes()):
            return tree


def test_integer_one_step_checks_match_reference():
    """The one-step checks read each process's integer form and each
    tree's integer edge weights; against the operator forms they give the
    same verdicts, on trees with single-child nodes and on processes with
    zero values."""
    rng = random.Random(53)
    verdicts: Counter = Counter()
    for _ in range(200):
        tree = _single_child_tree(rng)
        y = random_supermartingale(rng, tree, martingale=rng.random() < 0.5)
        b = random_nonincreasing_process(rng, tree).process
        n = rng.randrange(tree.num_nodes)
        t = tree.time[n]
        # b with its values from n on set to 0: nonincreasing, absorbed zeros
        cut = [
            F(0) if tree.time[m] >= t and tree.ancestor_at(m, t) == n else v
            for m, v in enumerate(b.values)
        ]
        candidates = [
            y,
            y.with_value(n, y.values[n] + F(1, 1000)),
            y.with_value(n, F(0)),
            y.pointwise_mul(b),
            AdaptedProcess(tree, cut),
            b.with_value(n, b.values[n] * 2),
            AdaptedProcess(tree, [rng.choice((0, F(1, 3), 1)) for _ in cut]),
        ]
        for p in candidates:
            checks = {
                "supermartingale": (is_supermartingale, _reference_is_supermartingale),
                "martingale": (is_martingale, _reference_is_martingale),
                "absorbed zeros": (has_absorbed_zeros, _reference_has_absorbed_zeros),
            }
            for name, (check, reference) in checks.items():
                expected = reference(p)
                assert check(p) is expected, (name, p)
                verdicts[name, expected] += 1
            expected = _reference_nonincreasing_message(p)
            if expected is None:
                assert NonIncreasingProcess(p).process == p
            else:
                with pytest.raises(PreconditionError) as err:
                    NonIncreasingProcess(p)
                assert str(err.value) == expected
            verdicts["nonincreasing", expected is None] += 1
            verdicts["zero value"] += any(v == 0 for v in p.values)
    assert verdicts["zero value"] >= 200, verdicts
    for name in ("supermartingale", "martingale", "absorbed zeros", "nonincreasing"):
        assert min(verdicts[name, True], verdicts[name, False]) >= 50, verdicts
