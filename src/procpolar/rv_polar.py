"""Conditional polar and bipolar theory for nonnegative random variables.

A set of nonnegative random variables is represented by finitely many
generators together with a conditioning partition.  The set it denotes is
the smallest blockwise-convex, solid (downward closed) and closed set
containing the generators; on a finite sample space that hull is the
polyhedron

    { h >= 0 : for every block B there are convex weights w with
               h <= sum_i w_i * f_i  pointwise on B }.

The conditional polar consists of all g >= 0 whose blockwise products with
every generator average to at most 1 on each block; the conditional
bipolar is the polar of the polar.  Both membership questions reduce to
one small exact LP per block, and the central fact being exercised by the
test-suite is that hull membership and bipolar membership always agree.

Every system is memoised on the :class:`RvSet` with
:func:`~procpolar.exact_lp.per_owner` and freed with it: the whole
conditional polar and the per-block polar the bipolar oracle maximizes
over, which depend only on the generators, and the per-block hull system,
keyed by the block and the probe's values on it, since those values are
in its coefficients.  Probes that agree on a block then ask one system
object, which answers the question once.  The unconditional cross-checks
build their systems afresh, and the bipolar one asks the dual of the polar
LP, so it checks the conditional oracle's LP on the trivial partition
instead of asking it again.

The hull system writes each dominance row in homogeneous form, ``sum_i
l_i (h(w) - f_i(w)) <= 0`` beside the convex row ``sum_i l_i = 1``, not
as ``sum_i l_i f_i(w) >= h(w)``.  The two have the same points on the
simplex, but a row with rhs 0 starts the simplex on its own slack, so
phase 1 needs one artificial per block, the convex row's, instead of one
per outcome.  The unconditional hull cross-check keeps the ``>=`` rows on
purpose: on the trivial partition it compares two formulations of one
hull, so a sign slip in either shows.

Everything uses the convention 0/0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PostconditionError, PreconditionError
from .exact_lp import (
    EQ,
    GE,
    LE,
    LinearConstraint,
    LinearSystem,
    LpStatus,
    exceeding_point,
    feasible_point,
    minimize,
    per_owner,
    vector,
)
from .rational import MINUS_ONE, ONE, ZERO, dot, mix, product, quotient
from .tree import Partition, RandomVariable, SampleSpace, cond_exp_partition


@dataclass(frozen=True)
class RvSet:
    """Finitely generated set of nonnegative random variables.

    The generators are understood up to blockwise mixing, downward closure
    and topological closure with respect to the partition.
    """

    generators: tuple[RandomVariable, ...]
    partition: Partition

    def __post_init__(self) -> None:
        if not self.generators:
            raise PreconditionError("at least one generator required")
        for g in self.generators:
            if g.space != self.partition.space:
                raise PreconditionError("generator lives on a different space")

    @property
    def space(self):
        return self.partition.space


def partition_mix(
    f: RandomVariable, g: RandomVariable, weight: RandomVariable, partition: Partition
) -> RandomVariable:
    """Blockwise convex combination ``weight*f + (1-weight)*g``.

    The weight must be constant on each block and take values in [0, 1].
    """
    if not partition.is_measurable(weight):
        raise PreconditionError("mixing weight is not block-constant")
    if any(v > 1 for v in weight.values):
        raise PreconditionError("mixing weight outside [0, 1]")
    vals = tuple(map(mix, weight.values, f.values, g.values))
    return RandomVariable(partition.space, vals)


# ---------------------------------------------------------------------------
# Conditional polar
# ---------------------------------------------------------------------------


@per_owner
def conditional_polar_constraints(c: RvSet) -> LinearSystem:
    """H-representation of the conditional polar of the generator hull.

    Variables are the candidate-g coordinates (one per outcome) with lower
    bound 0; one row per generator and block bounds the blockwise average
    of the product by the block probability.  Generators suffice: mixing,
    solidity and closure all preserve these inequalities.
    """
    space = c.space
    rows: list[LinearConstraint] = []
    for gi, f in enumerate(c.generators):
        for bi, block in enumerate(c.partition.blocks):
            terms = (
                (i, product(space.probs[i], f.values[i]))
                for i in map(space.index, block)
            )
            rows.append(
                LinearConstraint(
                    terms,
                    LE,
                    c.partition.block_prob(block),
                    f"gen[{gi}]*block[{bi}]",
                )
            )
    return LinearSystem.make(
        space.size,
        rows,
        lower=0,
        var_names=[f"g({w})" for w in space.outcomes],
    )


# ---------------------------------------------------------------------------
# Hull membership (the primal side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullMembership:
    member: bool
    # per block: convex weights over the generators when member,
    # the index of a block with no dominating mixture otherwise
    block_weights: Optional[tuple[tuple[Fraction, ...], ...]] = None
    failing_block: Optional[int] = None

    def __bool__(self) -> bool:
        return self.member


def hull_contains(c: RvSet, h: RandomVariable) -> HullMembership:
    """Decide membership in the blockwise-convex solid closed hull.

    One feasibility LP per block: convex weights over the generators whose
    mixture dominates ``h`` on the block.  On a finite space the hull is
    already closed, so this is the whole story; the weights are the
    certificate.
    """
    if h.space != c.space:
        raise PreconditionError("candidate lives on a different space")
    space = c.space
    weights: list[tuple[Fraction, ...]] = []
    for bi, block in enumerate(c.partition.blocks):
        values = tuple(h.values[space.index(w)] for w in block)
        point = feasible_point(_block_hull(c, bi, values))
        if point is None:
            return HullMembership(False, failing_block=bi)
        weights.append(point)
    return HullMembership(True, block_weights=tuple(weights))


@per_owner
def _block_hull(c: RvSet, bi: int, values: tuple[Fraction, ...]) -> LinearSystem:
    """Convex weights over the generators whose mixture dominates
    ``values``, a probe's values on block ``bi`` in block order.

    Each dominance row is ``sum_i l_i (h(w) - f_i(w)) <= 0``, with the
    probe's value in the coefficients: on the convex row ``sum_i l_i = 1``
    it is ``sum_i l_i f_i(w) >= h(w)``, and with rhs 0 its slack starts
    basic and feasible, so the convex row is the one row phase 1 needs an
    artificial for."""
    space = c.space
    k = len(c.generators)
    rows = [LinearConstraint(enumerate((ONE,) * k), EQ, ONE, "convex")]
    for w, v in zip(c.partition.blocks[bi], values):
        i = space.index(w)
        terms = enumerate(
            dot(((v, ONE), (f.values[i], MINUS_ONE))) for f in c.generators
        )
        rows.append(LinearConstraint(terms, LE, ZERO, f"dominate({w})"))
    return LinearSystem.make(k, rows, lower=0)


# ---------------------------------------------------------------------------
# Bipolar membership (the dual side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipolarMembership:
    member: bool
    # when not a member: a polar element gg and the block where E[h*gg|block]
    # exceeds 1 (gg is zero off that block)
    failing_block: Optional[int] = None
    witness: Optional[RandomVariable] = None

    def __bool__(self) -> bool:
        return self.member


def conditional_bipolar_contains(c: RvSet, h: RandomVariable) -> BipolarMembership:
    """Decide membership in the conditional bipolar by blockwise LPs.

    ``h`` belongs iff for every block the maximum of the blockwise average
    of ``h*g`` over polar elements ``g`` stays below the block probability.
    The polar constraints decouple across blocks, so each LP only carries
    the block's own coordinates; an unbounded maximum counts as a
    violation and the certificate is a polar element witnessing it.
    """
    if h.space != c.space:
        raise PreconditionError("candidate lives on a different space")
    space = c.space
    for bi in range(len(c.partition.blocks)):
        idx, pb, sys_ = _block_polar(c, bi)
        objective = enumerate(product(space.probs[i], h.values[i]) for i in idx)
        local = exceeding_point(sys_, objective, pb)
        if local is not None:
            witness = _embed_block(space, idx, local)
            return BipolarMembership(False, failing_block=bi, witness=witness)
    return BipolarMembership(True)


@per_owner
def _block_polar(c: RvSet, bi: int) -> tuple[tuple[int, ...], Fraction, LinearSystem]:
    """The outcome indices and probability of block ``bi``, and the polar
    restricted to its coordinates: one row per generator bounding the
    block average of the product by the block probability."""
    space = c.space
    block = c.partition.blocks[bi]
    idx = tuple(space.index(w) for w in block)
    pb = c.partition.block_prob(block)
    rows = [
        LinearConstraint(
            enumerate(product(space.probs[i], f.values[i]) for i in idx),
            LE,
            pb,
            f"gen[{gi}]",
        )
        for gi, f in enumerate(c.generators)
    ]
    return idx, pb, LinearSystem.make(len(idx), rows, lower=0)


def _embed_block(space, idx: Sequence[int], local: Sequence[Fraction]) -> RandomVariable:
    return RandomVariable(space, vector(space.size, zip(idx, local)))


# ---------------------------------------------------------------------------
# Product decomposition and pairwise maxima (proof machinery, kept exact)
# ---------------------------------------------------------------------------


def product_decompose(
    c: RvSet, f: RandomVariable, ball_elem: RandomVariable
) -> tuple[RandomVariable, RandomVariable]:
    """Factor ``f * l`` as ``h * k`` with ``h`` in the hull and ``k`` in the
    unit ball, for ``f`` in the bipolar and ``l`` in the unit ball: the
    nonnegative block-constant random variables with expectation <= 1.

    Per block: scale ``l`` by the smallest factor >= 1 pulling ``f`` under
    the hull's per-block upper envelope, then divide (0/0 = 0).  Failure of
    the budget check E[k] <= 1 cannot happen for valid inputs and is
    surfaced as a defect.
    """
    if not (c.partition.is_measurable(ball_elem) and ball_elem.expectation() <= 1):
        raise PreconditionError("second argument must lie in the unit ball")
    if not conditional_bipolar_contains(c, f):
        raise PreconditionError("first argument must lie in the conditional bipolar")
    space = c.space
    ngen = len(c.generators)
    k_vals = [ZERO] * space.size
    h_vals = [ZERO] * space.size
    for block in c.partition.blocks:
        idx = [space.index(w) for w in block]
        lval = ball_elem.values[idx[0]]
        if lval == 0:
            continue  # k = 0, h = 0 on this block (0/0 = 0)
        # smallest total weight whose generator mixture dominates f on the block
        rows = [
            LinearConstraint(
                enumerate(g.values[i] for g in c.generators),
                GE,
                f.values[i],
                f"dominate({space.outcomes[i]})",
            )
            for i in idx
        ]
        out = minimize(LinearSystem.make(ngen, rows, lower=0), enumerate((ONE,) * ngen))
        if out.status is not LpStatus.OPTIMAL:
            raise PostconditionError(
                "no generator mixture dominates a bipolar element on a block"
            )
        ratio = max(ONE, out.value)
        k = product(lval, ratio)
        for i in idx:
            v = f.values[i]  # f * lval / k is f / ratio
            k_vals[i] = k
            h_vals[i] = quotient(v, ratio)
    h = RandomVariable(space, tuple(h_vals))
    k = RandomVariable(space, tuple(k_vals))
    if k.expectation() > 1:
        raise PostconditionError("decomposition weight left the unit ball")
    if not c.partition.is_measurable(k):
        raise PostconditionError("decomposition weight is not block-constant")
    if not hull_contains(c, h):
        raise PostconditionError("decomposition factor left the hull")
    if f.pointwise_mul(ball_elem) != h.pointwise_mul(k):
        raise PostconditionError("decomposition does not reproduce the product")
    return h, k


def _max_compatible(
    c: RvSet, f: RandomVariable, h: RandomVariable
) -> tuple[str, ...]:
    """Why ``h`` fails the maximization-compatibility conditions, if at all.

    The conditions: ``h`` in the hull, ``h`` vanishes wherever ``f`` does,
    and f*E[h|blocks] == h*E[f|blocks] pointwise.
    """
    problems: list[str] = []
    if not hull_contains(c, h):
        problems.append("not in the hull")
    for i in range(c.space.size):
        if f.values[i] == 0 and h.values[i] != 0:
            problems.append(f"does not vanish where f does ({c.space.outcomes[i]})")
            break
    ef = cond_exp_partition(f, c.partition)
    eh = cond_exp_partition(h, c.partition)
    if f.pointwise_mul(eh) != h.pointwise_mul(ef):
        problems.append("blockwise-expectation identity fails")
    return tuple(problems)


def pairwise_max_closure(
    c: RvSet, f: RandomVariable, candidates: Sequence[RandomVariable]
) -> RandomVariable:
    """Pointwise maximum of maximization-compatible elements.

    Each input must satisfy the compatibility conditions with respect to
    ``f``; the result is their pointwise maximum, which is checked to
    satisfy them again (it is the blockwise selection of the larger
    conditional expectation, hence stays in the hull).
    """
    if not candidates:
        raise PreconditionError("need at least one candidate")
    for h in candidates:
        problems = _max_compatible(c, f, h)
        if problems:
            raise PreconditionError(f"candidate fails compatibility: {problems}")
    result = candidates[0]
    for h in candidates[1:]:
        result = result.pointwise_max(h)
    problems = _max_compatible(c, f, result)
    if problems:
        raise PostconditionError(
            f"pointwise maximum left the compatible family: {problems}"
        )
    return result


# ---------------------------------------------------------------------------
# Unconditional (one-block) theory, implemented directly as a cross-check
# ---------------------------------------------------------------------------


def _one_space(generators: Sequence[RandomVariable]) -> SampleSpace:
    """The sample space every generator lives on."""
    if not generators:
        raise PreconditionError("at least one generator required")
    space = generators[0].space
    if any(f.space != space for f in generators):
        raise PreconditionError("generators live on different spaces")
    return space


def unconditional_bipolar_contains(
    generators: Sequence[RandomVariable], h: RandomVariable
) -> bool:
    """The dual of max E[h*g] over the polar, compared against 1.

    The least total weight ``sum_i l_i`` over ``l >= 0`` whose cover
    ``sum_i l_i p(w) f_i(w)`` dominates ``p(w) h(w)`` at every outcome
    ``w``: by LP duality it equals the polar maximum, so this asks another
    LP than the conditional oracle on the trivial partition.  No cover at
    all means that maximum is unbounded, and ``h`` is not a member."""
    space = _one_space(generators)
    if h.space != space:
        raise PreconditionError("candidate lives on a different space")
    rows = [
        LinearConstraint(
            enumerate(product(p, f.values[i]) for f in generators),
            GE,
            product(p, h.values[i]),
            f"cover({i})",
        )
        for i, p in enumerate(space.probs)
    ]
    k = len(generators)
    out = minimize(LinearSystem.make(k, rows, lower=0), enumerate((ONE,) * k))
    return out.status is LpStatus.OPTIMAL and out.value <= 1


def unconditional_hull_contains(
    generators: Sequence[RandomVariable], h: RandomVariable
) -> bool:
    """One global convex weight vector whose mixture dominates ``h``."""
    space = _one_space(generators)
    if h.space != space:
        raise PreconditionError("candidate lives on a different space")
    k = len(generators)
    rows = [LinearConstraint(enumerate((ONE,) * k), EQ, ONE, "convex")]
    for i in range(space.size):
        terms = enumerate(f.values[i] for f in generators)
        rows.append(LinearConstraint(terms, GE, h.values[i], f"dom({i})"))
    return feasible_point(LinearSystem.make(k, rows, lower=0)) is not None
