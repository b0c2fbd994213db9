"""Process polars and bipolars on event trees, with two independent oracles.

The polar of a generated process set consists of all nonnegative processes
whose product with every generator is a supermartingale starting at most
at 1; its H-representation is one linear row per generator and node.  The
bipolar (polar of the polar) is decided two ways that share only the LP
core:

* the direct way -- one LP per node maximizing the supermartingale defect
  of the candidate's product over the polar polyhedron;
* the incremental way -- the candidate's initial value must lie in the
  interval of hull initial values, and each of its one-step multiplicative
  increments must lie in the conditional bipolar of the generators'
  one-step increments (a per-step question answered by the random-variable
  theory).

The polar depends only on the generators, so :func:`polar_constraints`
and :func:`increment_set` are memoised on the :class:`ProcessSet` with
:func:`~procpolar.exact_lp.per_owner`: every probe of one set solves over
the same system objects and reuses their phase 1, and the memo is freed
with the set.

The promise under test everywhere: on far-reaching sets of unit-initial
supermartingales the two oracles agree, and everything built from the
generators by fork-splicing and solid multiplication is a member.
:func:`verify_process_bipolar` runs both oracles on given probes and returns
one :class:`ProbeRecord` of their agreement per probe, and
:func:`sample_polar_elements` draws four polar elements for the closure
checks.  Both oracles, and so :func:`verify_process_bipolar`, refuse a set
that is not far-reaching with :class:`~procpolar.errors.PreconditionError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PostconditionError, PreconditionError
from .exact_lp import (
    LE,
    LinearConstraint,
    LinearSystem,
    LpStatus,
    exceeding_point,
    maximize,
    per_owner,
)
from .processes import (
    AdaptedProcess,
    ProcessSet,
    has_absorbed_zeros,
    increment,
    is_supermartingale,
)
from .rational import ONE, ZERO, dot, fraction, negate, product, quotient
from .rv_polar import RvSet, conditional_bipolar_contains, conditional_polar_constraints
from .tree import RandomVariable, level_partition, level_space

HALF = Fraction(1, 2)


def defect_terms(z: AdaptedProcess, n: int) -> list[tuple[int, Fraction]]:
    """The one-step supermartingale defect ``E[zY | n] - z(n)Y(n)`` of the
    product with ``z`` at node ``n``, as the ``(node, coefficient)`` terms
    of a linear functional of ``Y`` over the node columns."""
    tree = z.tree
    terms = [(n, negate(z.values[n]))]
    probs, vals = tree.edge_prob, z.values
    terms += ((ch, product(probs[ch], vals[ch])) for ch in tree.children[n])
    return terms


def first_defect(
    system: LinearSystem, z: AdaptedProcess
) -> Optional[tuple[int, tuple[Fraction, ...]]]:
    """The first non-terminal node at which some point of ``system`` gives
    its product with ``z`` a positive one-step defect, with that point, or
    None when every such product is a supermartingale.  Column ``n`` of
    ``system`` holds the value at node ``n``."""
    for n in z.tree.non_terminal_nodes():
        point = exceeding_point(system, defect_terms(z, n), ZERO)
        if point is not None:
            return n, point
    return None


@per_owner
def polar_constraints(c: ProcessSet) -> LinearSystem:
    """H-representation of the process polar over node variables.

    Y >= 0 everywhere; for each generator X the product XY starts at most
    at 1 and its one-step conditional expectation never increases.
    Generators suffice because every hull operation preserves the
    product-supermartingale property.  Column ``n`` is Y at node ``n``.
    """
    tree = c.tree
    rows: list[LinearConstraint] = []
    for gi, x in enumerate(c.generators):
        rows.append(LinearConstraint(((0, x.initial),), LE, ONE, f"init[gen{gi}]"))
        for n in tree.non_terminal_nodes():
            rows.append(
                LinearConstraint(
                    defect_terms(x, n),
                    LE,
                    ZERO,
                    f"super[gen{gi}@{tree.labels[n]}]",
                )
            )
    return LinearSystem.make(
        tree.num_nodes, rows, lower=0, var_names=[f"Y({lab})" for lab in tree.labels]
    )


def polar_contains(c: ProcessSet, y: AdaptedProcess) -> bool:
    """Exact substitution into the polar constraints."""
    if y.tree != c.tree:
        raise PreconditionError("candidate lives on a different tree")
    return polar_constraints(c).satisfied_by(y.values)


@dataclass(frozen=True)
class ProcessBipolarMembership:
    member: bool
    reason: str = ""
    # a polar element whose product with the candidate fails (direct oracle)
    witness: Optional[AdaptedProcess] = None
    # the time step and increment witness (incremental oracle)
    step: Optional[int] = None

    def __bool__(self) -> bool:
        return self.member


def _require_far_reaching(c: ProcessSet) -> None:
    if not c.far_reaching:
        raise PreconditionError(
            "the bipolar oracles assume a far-reaching generator set"
        )


def bipolar_contains_lp(c: ProcessSet, z: AdaptedProcess) -> ProcessBipolarMembership:
    """Direct bipolar membership: per-node maximization over the polar.

    ``z`` belongs iff the maximal initial product over the polar stays
    below 1 and, at every non-terminal node, the maximal supermartingale
    defect of the product stays below 0.  The certificate of a violation
    is the polar element :func:`exceeding_point` returns.
    """
    if z.tree != c.tree:
        raise PreconditionError("candidate lives on a different tree")
    _require_far_reaching(c)
    tree = c.tree
    polar = polar_constraints(c)

    bad = exceeding_point(polar, ((0, z.initial),), ONE)
    if bad is not None:
        return ProcessBipolarMembership(
            False, "initial product exceeds 1", AdaptedProcess(tree, bad)
        )
    defect = first_defect(polar, z)
    if defect is not None:
        n, point = defect
        reason = f"supermartingale defect at {tree.labels[n]}"
        return ProcessBipolarMembership(False, reason, AdaptedProcess(tree, point))
    return ProcessBipolarMembership(True)


# ---------------------------------------------------------------------------
# Increment sets and the incremental oracle
# ---------------------------------------------------------------------------


@per_owner
def increment_set(c: ProcessSet, t_from: int) -> RvSet:
    """One-step increments of the generators, as a conditional rv problem.

    Outcomes are the time-(t+1) nodes, the partition groups them by their
    time-t parent, and each generator contributes its multiplicative
    increment as a random variable.
    """
    tree = c.tree
    if not 0 <= t_from < tree.horizon:
        raise PreconditionError("increment step needs t_from < horizon")
    for g in c.generators:
        if not has_absorbed_zeros(g):
            raise PreconditionError("generators must have absorbed zeros")
    t_to = t_from + 1
    space = level_space(tree, t_to)
    part = level_partition(tree, t_to, t_from)
    gens = tuple(
        RandomVariable(
            space, tuple(increment(g, t_from, t_to, m) for m in space.outcomes)
        )
        for g in c.generators
    )
    return RvSet(gens, part)


def increment_conditional_polar(c: ProcessSet, t_from: int) -> LinearSystem:
    """Conditional polar constraints of the one-step increment set."""
    return conditional_polar_constraints(increment_set(c, t_from))


def bipolar_contains_incremental(
    c: ProcessSet, z: AdaptedProcess
) -> ProcessBipolarMembership:
    """Bipolar membership via initial value plus stepwise increments.

    The hull's initial values form the interval from 0 to the largest
    generator initial value; beyond that, membership is equivalent to each
    one-step increment of ``z`` lying in the conditional bipolar of the
    generators' increments.  Independent of the direct oracle by
    construction.
    """
    if z.tree != c.tree:
        raise PreconditionError("candidate lives on a different tree")
    _require_far_reaching(c)
    if not c.all_unit_supermartingales():
        raise PreconditionError(
            "the incremental oracle needs unit-initial supermartingale generators"
        )
    if not has_absorbed_zeros(z):
        raise PreconditionError(
            "candidate must have absorbed zeros (its increments are undefined)"
        )
    if z.initial > c.max_initial():
        return ProcessBipolarMembership(
            False, reason="initial value above every hull element"
        )
    tree = c.tree
    for t in range(tree.horizon):
        inc = increment_set(c, t)
        space = inc.space
        dz = RandomVariable(
            space, tuple(increment(z, t, t + 1, m) for m in space.outcomes)
        )
        verdict = conditional_bipolar_contains(inc, dz)
        if not verdict:
            return ProcessBipolarMembership(
                False,
                reason=f"step {t}->{t + 1} increment outside the conditional bipolar",
                step=t,
            )
    return ProcessBipolarMembership(True)


# ---------------------------------------------------------------------------
# Supermartingale envelope of a future payoff over the hull
# ---------------------------------------------------------------------------


def envelope_process(
    c: ProcessSet, g: RandomVariable, t_from: int, t_to: int
) -> AdaptedProcess:
    """Largest expected payoff of ``g`` over hull increments, as a process.

    ``g`` lives on the time-``t_to`` nodes.  Backward recursion: at each
    node take the best one-step generator increment of the next-step
    envelope; before ``t_from`` the process is 1, from ``t_to`` on it is
    ``g``.  Requires the computed time-``t_from`` values to stay below 1;
    the product with every generator is re-checked to be a
    supermartingale.
    """
    tree = c.tree
    if not 0 <= t_from <= t_to <= tree.horizon:
        raise PreconditionError("need 0 <= t_from <= t_to <= horizon")
    if g.space != level_space(tree, t_to):
        raise PreconditionError("payoff must live on the time-t_to nodes")
    for y in c.generators:
        if not is_supermartingale(y):
            raise PreconditionError("envelope needs supermartingale generators")

    best: dict[int, Fraction] = {m: g[m] for m in tree.nodes_at(t_to)}
    for t in range(t_to - 1, t_from - 1, -1):
        for n in tree.nodes_at(t):
            candidates = []
            for y in c.generators:
                if y.values[n] == 0:
                    candidates.append(ZERO)
                    continue
                # sum of p(ch) * (y(ch) / y(n)) * best(ch), divided once
                total = dot(
                    (product(tree.edge_prob[ch], y.values[ch]), best[ch])
                    for ch in tree.children[n]
                )
                candidates.append(quotient(total, y.values[n]))
            best[n] = max(candidates)
    for n in tree.nodes_at(t_from):
        if best[n] > 1:
            raise PreconditionError(
                f"envelope hypothesis fails: value {best[n]} > 1 at {tree.labels[n]}"
            )

    vals = [ONE] * tree.num_nodes
    for m in range(tree.num_nodes):
        t = tree.time[m]
        if t < t_from:
            continue
        if t <= t_to:
            vals[m] = best[m]
        else:
            vals[m] = g[tree.ancestor_at(m, t_to)]
    result = AdaptedProcess(tree, tuple(vals))
    for y in c.generators:
        if not is_supermartingale(result.pointwise_mul(y)):
            raise PostconditionError("envelope product lost the supermartingale property")
    return result


# ---------------------------------------------------------------------------
# Polar sampling and the dual-oracle agreement records
# ---------------------------------------------------------------------------


def sample_polar_elements(c: ProcessSet, rng: random.Random) -> list[AdaptedProcess]:
    """Four polar elements: three vertices of the polar polyhedron under
    random objectives, with the midpoint of the first two (the polar is
    convex) in third place."""
    polar = polar_constraints(c)
    n = c.tree.num_nodes

    def vertex() -> tuple[Fraction, ...]:
        out = maximize(polar, [(j, fraction(rng.randint(-2, 3), 1)) for j in range(n)])
        if out.status is LpStatus.INFEASIBLE:
            raise PostconditionError("a polar is never empty (0 belongs)")
        assert out.point is not None
        return out.point

    first, second = vertex(), vertex()
    mid = tuple(dot(((a, HALF), (b, HALF))) for a, b in zip(second, first))
    return [AdaptedProcess(c.tree, p) for p in (first, second, mid, vertex())]


@dataclass(frozen=True)
class ProbeRecord:
    kind: str  # "probe" | "hull"
    lp_member: Optional[bool]
    incremental_member: Optional[bool]
    note: str
    ok: bool


def verify_process_bipolar(
    c: ProcessSet,
    probes: Sequence[AdaptedProcess],
    hull_probes: Sequence[AdaptedProcess],
) -> tuple[ProbeRecord, ...]:
    """Run both bipolar oracles on every probe, then every hull probe, and
    return one record of their agreement per probe.

    Hull-constructed probes must additionally be members according to
    both.  Probes without absorbed zeros cannot feed the incremental
    oracle; for those the direct oracle must reject (the bipolar contains
    only supermartingales, whose zeros absorb), which is recorded as its
    own check.
    """
    records: list[ProbeRecord] = []

    def run(z: AdaptedProcess, kind: str) -> None:
        lp = bipolar_contains_lp(c, z)
        if not has_absorbed_zeros(z):
            ok = not lp.member
            records.append(
                ProbeRecord(kind, lp.member, None, "no absorbed zeros", ok)
            )
            return
        inc = bipolar_contains_incremental(c, z)
        ok = lp.member == inc.member
        note = ""
        if kind == "hull":
            ok = ok and lp.member
            note = "hull element"
        records.append(ProbeRecord(kind, lp.member, inc.member, note, ok))

    for z in probes:
        run(z, "probe")
    for z in hull_probes:
        run(z, "hull")
    return tuple(records)
