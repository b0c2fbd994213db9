import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from procpolar.errors import PreconditionError
from procpolar.fuzz import (
    ProcessFuzzConfig,
    process_probes,
    random_process_set,
    random_supermartingale,
    random_tree,
)
from procpolar.processes import (
    AdaptedProcess,
    NonIncreasingProcess,
    ProcessSet,
    fork_splice,
    has_absorbed_zeros,
    random_hull_element,
)
from procpolar.process_polar import (
    bipolar_contains_incremental,
    bipolar_contains_lp,
    defect_terms,
    envelope_process,
    increment_conditional_polar,
    increment_set,
    polar_constraints,
    polar_contains,
    sample_polar_elements,
    verify_process_bipolar,
)
from procpolar.tree import RandomVariable, level_space


@pytest.fixture
def c1(t1):
    """Generators {1, X} with X the martingale (1; 2, 0)."""
    one = AdaptedProcess.constant(t1, 1)
    x = AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 0})
    return ProcessSet.of(one, x)


def test_polar_of_unit_is_unit_supermartingales(t1):
    c = ProcessSet.of(AdaptedProcess.constant(t1, 1))
    system = polar_constraints(c)
    assert system.satisfied_by((F(1), F(1), F(1)))
    assert system.satisfied_by((F(1), F(2), F(0)))
    assert not system.satisfied_by((F(2), F(1), F(1)))  # initial above 1
    assert not system.satisfied_by((F(1), F(2), F(1)))  # drifts upward


def test_polar_constraint_from_martingale_generator(t1, c1):
    # the X-generator row collapses to Y_u <= Y_root
    assert not polar_contains(c1, AdaptedProcess.from_mapping(t1, {0: 1, 1: "3/2", 2: 0}))
    assert polar_contains(c1, AdaptedProcess.from_mapping(t1, {0: 1, 1: 1, 2: 1}))
    assert polar_contains(c1, AdaptedProcess.constant(t1, 0))


def test_bipolar_generators_inside(c1):
    for g in c1.generators:
        assert bipolar_contains_lp(c1, g)
        assert bipolar_contains_incremental(c1, g)


def test_bipolar_rejects_mirror_process(t1, c1):
    z = AdaptedProcess.from_mapping(t1, {0: 1, 1: 0, 2: 2})
    lp = bipolar_contains_lp(c1, z)
    inc = bipolar_contains_incremental(c1, z)
    assert not lp and not inc
    assert lp.witness is not None and polar_contains(c1, lp.witness)
    # the certificate's product with the candidate must actually misbehave
    from procpolar.processes import is_supermartingale

    prod = z.pointwise_mul(lp.witness)
    assert prod.initial > 1 or not is_supermartingale(prod)


def test_bipolar_requires_far_reaching(t1):
    dying = AdaptedProcess.from_mapping(t1, {0: 1, 1: 2, 2: 0})
    c = ProcessSet.of(dying)
    with pytest.raises(PreconditionError):
        bipolar_contains_lp(c, dying)
    with pytest.raises(PreconditionError):
        bipolar_contains_incremental(c, dying)
    with pytest.raises(PreconditionError):
        verify_process_bipolar(c, [dying], ())


def test_bipolar_initial_interval(t1):
    half = AdaptedProcess.constant(t1, "1/2")
    c = ProcessSet.of(half)
    just_over = AdaptedProcess.constant(t1, F(1, 2) + F(1, 1000))
    assert bipolar_contains_lp(c, half)
    assert not bipolar_contains_lp(c, just_over)
    assert not bipolar_contains_incremental(c, just_over)


def test_increment_set_shape(t2):
    one = AdaptedProcess.constant(t2, 1)
    mart = AdaptedProcess.from_mapping(t2, {0: 1, 1: 2, 2: 0, 3: 2, 4: 2, 5: 0, 6: 0})
    inc = increment_set(ProcessSet.of(one, mart), 0)
    assert inc.space == level_space(t2, 1)
    assert inc.generators[0].values == (F(1), F(1))
    assert inc.generators[1].values == (F(2), F(0))
    system = increment_conditional_polar(ProcessSet.of(one, mart), 0)
    # E[g | atom] <= 1 and E[2 g_u | atom] <= 1 on the root atom
    assert system.satisfied_by((F(1), F(1)))
    assert not system.satisfied_by((F(2), F(2)))
    with pytest.raises(PreconditionError):
        increment_set(ProcessSet.of(one), t2.horizon)


def test_hull_elements_are_members(c1):
    rng = random.Random(4)
    for depth in (0, 1, 2):
        sample = random_hull_element(c1, depth, rng)
        assert bipolar_contains_lp(c1, sample.process)
        assert bipolar_contains_incremental(c1, sample.process)


def test_triality_on_samples():
    # polar elements satisfy the constraints generated by hull samples, exactly
    rng = random.Random(12)
    for _ in range(8):
        tree = random_tree(rng, 3, 2)
        c = random_process_set(rng, tree, 3)
        polar_samples = sample_polar_elements(c, rng)
        hull_samples = [random_hull_element(c, 2, rng).process for _ in range(3)]
        for y in polar_samples:
            assert polar_contains(c, y)
            for z in hull_samples:
                product = z.pointwise_mul(y)
                assert product.initial <= 1
                from procpolar.processes import is_supermartingale

                assert is_supermartingale(product)


def test_verify_report_structure(c1, t1):
    probes = [
        AdaptedProcess.from_mapping(t1, {0: 1, 1: 0, 2: 2}),
        AdaptedProcess.from_mapping(t1, {0: 1, 1: 0, 2: 1}),
    ]
    hull = [random_hull_element(c1, 1, random.Random(3)).process]
    records = verify_process_bipolar(c1, probes, hull)
    assert [r.ok for r in records] == [True] * 3
    kinds = [r.kind for r in records]
    assert kinds == ["probe", "probe", "hull"]


def test_verify_flags_false_hull_claim(c1, t1):
    # feeding a non-member as a supposed hull element must fail its record
    outsider = AdaptedProcess.from_mapping(t1, {0: 1, 1: 0, 2: 2})
    (rec,) = verify_process_bipolar(c1, (), [outsider])
    assert not rec.ok
    assert rec.kind == "hull" and rec.lp_member is False


def test_verify_handles_unabsorbed_probe(c1, t1):
    # zero followed by a positive value: not a supermartingale, so both the
    # report and the direct oracle must reject it
    probe = AdaptedProcess.from_mapping(t1, {0: 0, 1: 1, 2: 0})
    (rec,) = verify_process_bipolar(c1, [probe], ())
    assert rec.ok
    assert rec.lp_member is False and rec.incremental_member is None


def test_envelope_one_step(t1):
    mart = AdaptedProcess.from_mapping(t1, {0: 1, 1: "2/3", 2: "4/3"})
    c = ProcessSet.of(mart)
    g = RandomVariable(level_space(t1, 1), (F(3), F(0)))
    env = envelope_process(c, g, 0, 1)
    assert env.values == (F(1), F(3), F(0))


def test_envelope_constant(t1):
    c = ProcessSet.of(AdaptedProcess.constant(t1, 1))
    g = RandomVariable(level_space(t1, 1), (1, 1))
    assert envelope_process(c, g, 0, 1) == AdaptedProcess.constant(t1, 1)


def test_envelope_hypothesis_guard(t1):
    c = ProcessSet.of(AdaptedProcess.constant(t1, 1))
    g = RandomVariable(level_space(t1, 1), (F(3), F(3)))
    with pytest.raises(PreconditionError):
        envelope_process(c, g, 0, 1)


def test_envelope_dominates_single_generator_expectations(t2):
    rng = random.Random(8)
    for _ in range(10):
        c = random_process_set(rng, t2, 3)
        space = level_space(t2, 2)
        # scale a payoff under the envelope hypothesis: start from generator
        # terminal increments, which always satisfy it
        g = RandomVariable(
            space,
            tuple(
                min(F(1), F(rng.randint(0, 3), 3)) for _ in space.outcomes
            ),
        )
        env = envelope_process(c, g, 0, 2)
        for y in c.generators:
            # one-generator expectation of g * increments, backward
            vals = {m: g[m] for m in t2.nodes_at(2)}
            for t in (1, 0):
                for n in t2.nodes_at(t):
                    total = F(0)
                    for ch in t2.children[n]:
                        if y.values[n] != 0:
                            total += (
                                t2.edge_prob[ch]
                                * (y.values[ch] / y.values[n])
                                * vals[ch]
                            )
                    vals[n] = total
            for n in t2.nodes_at(0) + t2.nodes_at(1):
                assert env.values[n] >= vals[n]


def _reference_envelope(c, g, t_from, t_to):
    """``envelope_process``'s values by the ``Fraction`` operators: the best
    one-step generator increment of the next-step envelope, 1 before
    ``t_from`` and ``g`` from ``t_to`` on."""
    tree = c.tree
    best = {m: g[m] for m in tree.nodes_at(t_to)}
    for t in range(t_to - 1, t_from - 1, -1):
        for n in tree.nodes_at(t):
            best[n] = max(
                sum(
                    (
                        tree.edge_prob[ch] * (y.values[ch] / y.values[n]) * best[ch]
                        for ch in tree.children[n]
                    ),
                    F(0),
                )
                if y.values[n] != 0
                else F(0)
                for y in c.generators
            )
    return tuple(
        F(1)
        if tree.time[m] < t_from
        else best[m]
        if tree.time[m] <= t_to
        else g[tree.ancestor_at(m, t_to)]
        for m in range(tree.num_nodes)
    )


def test_envelope_matches_the_operator_reference():
    rng = random.Random(26)
    kinds = {"value": 0, "refused": 0}
    for _ in range(40):
        tree = random_tree(rng, 3, rng.randint(1, 3))
        c = random_process_set(rng, tree, rng.randint(1, 3))
        t_to = rng.randint(0, tree.horizon)
        t_from = rng.randint(0, t_to)
        space = level_space(tree, t_to)
        values = tuple(F(rng.randint(0, 4), 3) for _ in space.outcomes)
        g = RandomVariable(space, values)
        expected = _reference_envelope(c, g, t_from, t_to)
        if any(expected[n] > 1 for n in tree.nodes_at(t_from)):
            with pytest.raises(PreconditionError, match="envelope hypothesis"):
                envelope_process(c, g, t_from, t_to)
            kinds["refused"] += 1
        else:
            assert envelope_process(c, g, t_from, t_to).values == expected
            kinds["value"] += 1
    assert min(kinds.values()) >= 5, kinds


def test_polar_closure_under_hull_moves():
    rng = random.Random(31)
    for _ in range(10):
        tree = random_tree(rng, 3, 3)
        c = random_process_set(rng, tree, 3)
        system = polar_constraints(c)
        pool = sample_polar_elements(c, rng)
        for _ in range(10):
            if rng.random() < 0.5:
                b = NonIncreasingProcess(
                    AdaptedProcess.constant(tree, F(rng.randint(0, 3), 3))
                )
                candidate = rng.choice(pool).pointwise_mul(b.process)
            else:
                s = rng.randint(0, tree.horizon)
                w = {n: F(rng.randint(0, 2), 2) for n in tree.nodes_at(s)}
                candidate = fork_splice(
                    rng.choice(pool), rng.choice(pool), rng.choice(pool), s, w
                )
            assert system.satisfied_by(candidate.values)
            pool.append(candidate)


def _twin(c: ProcessSet) -> ProcessSet:
    """An equal process set that is a distinct object, with an empty memo."""
    return ProcessSet(c.generators)


def test_polar_systems_are_memoised_on_the_process_set(t2):
    c = random_process_set(random.Random(3), t2, 3)
    before = (repr(c), hash(c))
    # phase 1 is cached per system object: repeated probes must get the same one
    assert polar_constraints(c) is polar_constraints(c)
    assert increment_set(c, 1) is increment_set(c, 1)
    assert increment_set(c, 0) is not increment_set(c, 1)
    assert increment_conditional_polar(c, 0) is increment_conditional_polar(c, 0)
    twin = _twin(c)
    assert polar_constraints(twin) is not polar_constraints(c)
    assert polar_constraints(twin) == polar_constraints(c)
    assert increment_set(twin, 1) == increment_set(c, 1)
    assert bipolar_contains_lp(c, c.generators[0]).member
    # the memo is invisible to value semantics
    assert (repr(c), hash(c)) == before
    assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_a_process_set_is_freed_without_the_cyclic_collector(gc_off):
    rng = random.Random(13)
    c = random_process_set(rng, random_tree(rng, 3, 2), 3)
    cfg = ProcessFuzzConfig
    probes, hull = process_probes(rng, c, cfg.probes, cfg.hull_probes)
    assert all(r.ok for r in verify_process_bipolar(c, probes, hull))
    assert increment_set(c, 0) is increment_set(c, 0)
    ref = weakref.ref(c)
    del c
    assert ref() is None


def test_process_probe_bump_matches_operator_reference(monkeypatch):
    """A bumped hull probe is its base with one value moved by the
    operators' ``v + 1/1000``."""
    bumps = []
    with_value = AdaptedProcess.with_value

    def bumped(process, node, value):
        bumps.append((process.values[node], value))
        return with_value(process, node, value)

    monkeypatch.setattr(AdaptedProcess, "with_value", bumped)
    rng = random.Random(29)
    cfg = ProcessFuzzConfig
    for _ in range(8):
        c = random_process_set(rng, random_tree(rng, 3, 2), 3)
        process_probes(rng, c, cfg.probes, cfg.hull_probes)
    assert len(bumps) >= 5
    ratios = [(type(v), v.as_integer_ratio()) for _, v in bumps]
    assert ratios == [(F, (old + F(1, 1000)).as_integer_ratio()) for old, _ in bumps]


def test_memoised_oracles_match_fresh_sets():
    rng = random.Random(21)
    cfg = ProcessFuzzConfig
    compared = 0
    for _ in range(12):
        c = random_process_set(rng, random_tree(rng, 3, 2), 3)
        probes, hull = process_probes(rng, c, cfg.probes, cfg.hull_probes)
        for z in probes + hull:
            # c is reused across probes; each twin answers its first probe
            assert bipolar_contains_lp(c, z) == bipolar_contains_lp(_twin(c), z)
            if has_absorbed_zeros(z):
                assert bipolar_contains_incremental(
                    c, z
                ) == bipolar_contains_incremental(_twin(c), z)
                compared += 1
    assert compared >= 30


def test_defect_terms_match_operator_reference():
    rng = random.Random(37)
    for _ in range(60):
        tree = random_tree(rng, 3, 3)
        z = random_supermartingale(rng, tree)
        for n in tree.non_terminal_nodes():
            assert defect_terms(z, n) == [(n, -z.values[n])] + [
                (ch, tree.edge_prob[ch] * z.values[ch]) for ch in tree.children[n]
            ]
