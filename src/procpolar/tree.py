"""Finite filtered probability spaces modelled as rooted event trees.

An :class:`EventTree` is a rooted tree whose depth-``t`` nodes are the atoms
of the time-``t`` sigma-algebra; a path from the root to a terminal node is
one scenario.  Each non-root node carries the exact one-step transition
probability of the edge into it, so the reference measure charges every
path with a positive rational weight.

On top of the tree live the primitives every other module uses:

* :class:`SampleSpace` -- a finite probability space (the terminal nodes of
  a tree, or one time-level of it);
* :class:`RandomVariable` -- a nonnegative rational value per outcome;
* :class:`Partition` -- a sub-sigma-algebra given by its atoms;
* one-step and partition-wise conditional expectations, all exact.

:func:`validate_tree` returns the tree's probabilistic defects as a tuple
of messages, empty for a valid tree.

Trees and partitions are immutable, so the structure each one implies is
computed once, at its first use, and kept in the instance dict with
``functools.cached_property``, out of equality, hashing and repr (as
:attr:`~procpolar.exact_lp.LinearSystem._phase1` is).  A tree prepares
its levels (:meth:`EventTree.nodes_at`, :meth:`EventTree.terminal_nodes`),
its non-terminal nodes, its node measure (:func:`node_measure`) and, per
non-terminal node, its children's edge probabilities as integers over
their lcm (:attr:`EventTree.child_weights`), which the one-step checks of
:mod:`procpolar.processes` compare in integers.  A partition prepares each
block's outcome indices (:attr:`Partition.block_indices`) and probability
(:attr:`Partition.block_probs`), which measurability, block averages and
the conditional-polar systems read instead of looking each outcome up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import PreconditionError
from .rational import (
    ONE,
    ZERO,
    dot,
    format_rational,
    frac,
    frac_tuple,
    integers,
    nonnegative,
    product,
    quotient,
)


class TreeStructureError(PreconditionError):
    """The node table does not describe a rooted tree at all."""


@dataclass(frozen=True)
class EventTree:
    """Rooted event tree with exact one-step transition probabilities.

    ``parent[i]`` is the parent index of node ``i`` (``None`` for the root),
    ``edge_prob[i]`` the probability of the edge into ``i`` (``1`` at the
    root), ``time[i]`` the depth of ``i`` and ``horizon`` the maximal depth.
    Instances are immutable; build them with :meth:`build`.
    """

    parent: tuple[Optional[int], ...]
    edge_prob: tuple[Fraction, ...]
    time: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    horizon: int
    labels: tuple[str, ...]

    @classmethod
    def build(
        cls,
        parents: Sequence[Optional[int]],
        probs: Sequence[int | str | Fraction | None],
        labels: Sequence[str] | None = None,
    ) -> "EventTree":
        """Build a tree from a parent table.

        ``parents[i]`` is the index of node ``i``'s parent (``None`` for the
        root); ``probs[i]`` the one-step probability of reaching ``i`` from
        its parent (ignored / may be ``None`` for the root).  Parents must
        appear before their children.  Structural defects (no unique root,
        bad references) raise; probabilistic defects (sums, positivity) are
        reported by :func:`validate_tree` instead.
        """
        n = len(parents)
        if n == 0:
            raise TreeStructureError("a tree needs at least a root node")
        if len(probs) != n:
            raise TreeStructureError("parents and probs must have equal length")
        if labels is not None and len(labels) != n:
            raise TreeStructureError("labels must match the node count")
        roots = [i for i, p in enumerate(parents) if p is None]
        if len(roots) != 1:
            raise TreeStructureError(f"exactly one root required, found {len(roots)}")
        if roots[0] != 0:
            raise TreeStructureError("the root must be listed first")
        time = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        edge_prob: list[Fraction] = [ONE] * n
        for i, p in enumerate(parents):
            if p is None:
                continue
            if not (0 <= p < i):
                raise TreeStructureError(
                    f"node {i}: parent {p} must be an earlier node index"
                )
            time[i] = time[p] + 1
            children[p].append(i)
            if probs[i] is None:
                raise TreeStructureError(f"node {i}: missing one-step probability")
            edge_prob[i] = frac(probs[i])
        if labels is None:
            labels = tuple(f"n{i}" for i in range(n))
        else:
            labels = tuple(labels)
            if len(set(labels)) != n:
                raise TreeStructureError("node labels must be unique")
        return cls(
            parent=tuple(parents),
            edge_prob=tuple(edge_prob),
            time=tuple(time),
            children=tuple(tuple(c) for c in children),
            horizon=max(time),
            labels=labels,
        )

    # -- basic queries -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    def nodes_at(self, t: int) -> tuple[int, ...]:
        """The time-``t`` nodes in index order; none outside ``0..horizon``."""
        return self._levels[t] if 0 <= t <= self.horizon else ()

    def terminal_nodes(self) -> tuple[int, ...]:
        return self._levels[self.horizon]

    def is_terminal(self, node: int) -> bool:
        return self.time[node] == self.horizon

    def non_terminal_nodes(self) -> tuple[int, ...]:
        return self._non_terminal

    # -- prepared structure: computed once per tree, kept in the instance
    # dict, out of equality, hashing and repr

    @cached_property
    def _levels(self) -> tuple[tuple[int, ...], ...]:
        """The nodes of each time ``0..horizon``, in index order."""
        levels: list[list[int]] = [[] for _ in range(self.horizon + 1)]
        for i, t in enumerate(self.time):
            levels[t].append(i)
        return tuple(map(tuple, levels))

    @cached_property
    def _non_terminal(self) -> tuple[int, ...]:
        return tuple(i for i, t in enumerate(self.time) if t < self.horizon)

    @cached_property
    def _measure(self) -> tuple[Fraction, ...]:
        """The value of :func:`node_measure`."""
        probs = [ONE] * self.num_nodes
        for i, p in enumerate(self.parent):
            if p is not None:
                probs[i] = product(probs[p], self.edge_prob[i])
        return tuple(probs)

    @cached_property
    def child_weights(self) -> tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]:
        """Per non-terminal node ``n``, in index order: ``n``, each child
        ``c`` with its edge probability as an integer ``P(c)`` over the lcm
        ``L(n)`` of theirs, and ``L(n)``.  ``sum(P(c) * y(c)) / L(n)`` is
        the one-step expectation ``E[y | n]``."""
        out = []
        for n in self._non_terminal:
            kids = self.children[n]
            nums, common = integers([self.edge_prob[c] for c in kids])
            out.append((n, tuple(zip(kids, nums)), common))
        return tuple(out)

    def ancestor_at(self, node: int, t: int) -> int:
        """The unique ancestor of ``node`` at time ``t`` (possibly itself)."""
        if not 0 <= t <= self.time[node]:
            raise PreconditionError(
                f"time {t} is not between 0 and time({self.labels[node]})"
            )
        cur = node
        while self.time[cur] > t:
            cur = self.parent[cur]  # type: ignore[assignment]
        return cur

    def label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


def node_measure(tree: EventTree) -> tuple[Fraction, ...]:
    """Path probabilities under the reference measure, one per node: the
    product of one-step probabilities along the path from the root,
    computed once per tree."""
    return tree._measure


def validate_tree(tree: EventTree) -> tuple[str, ...]:
    """Check the probabilistic invariants; violations are data, not errors,
    and a valid tree has none.

    Structural soundness (unique root, consistent times) is already
    guaranteed by :meth:`EventTree.build`; what can still go wrong is the
    probability data and ragged depth.
    """
    violations: list[str] = []
    for i in range(tree.num_nodes):
        lab = tree.labels[i]
        if tree.parent[i] is not None and tree.edge_prob[i] <= 0:
            violations.append(
                f"node {lab}: one-step probability {format_rational(tree.edge_prob[i])}"
                " is not strictly positive (non-equivalent measure)"
            )
        if tree.children[i]:
            total = dot((tree.edge_prob[c], ONE) for c in tree.children[i])
            if total != 1:
                violations.append(
                    f"node {lab}: children probabilities sum to "
                    f"{format_rational(total)}, expected 1"
                )
        elif tree.time[i] != tree.horizon:
            violations.append(
                f"node {lab}: leaf at time {tree.time[i]} before the horizon "
                f"{tree.horizon}"
            )
    return tuple(violations)


# ---------------------------------------------------------------------------
# Finite probability spaces, random variables, partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSpace:
    """A finite probability space: outcomes with positive rational weights."""

    outcomes: tuple[int, ...]
    probs: tuple[Fraction, ...]
    _index: dict = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.probs) or not self.outcomes:
            raise PreconditionError("outcomes and probs must be equal and nonempty")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise PreconditionError("duplicate outcomes")
        if any(p <= 0 for p in self.probs):
            raise PreconditionError("all outcome probabilities must be positive")
        if dot((p, ONE) for p in self.probs) != 1:
            raise PreconditionError("outcome probabilities must sum to 1")
        object.__setattr__(
            self, "_index", {w: i for i, w in enumerate(self.outcomes)}
        )

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, outcome: int) -> int:
        return self._index[outcome]

    def prob(self, outcome: int) -> Fraction:
        return self.probs[self._index[outcome]]


def terminal_space(tree: EventTree) -> SampleSpace:
    """The terminal nodes with their path probabilities."""
    measure = node_measure(tree)
    terminals = tree.terminal_nodes()
    return SampleSpace(terminals, tuple(measure[n] for n in terminals))


def level_space(tree: EventTree, t: int) -> SampleSpace:
    """The time-``t`` nodes with their path probabilities (atoms of F_t)."""
    measure = node_measure(tree)
    nodes = tree.nodes_at(t)
    return SampleSpace(nodes, tuple(measure[n] for n in nodes))


@dataclass(frozen=True)
class RandomVariable:
    """A nonnegative rational function on a finite sample space."""

    space: SampleSpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = frac_tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.size:
            raise PreconditionError("value vector does not match the space")
        if not nonnegative(values):
            raise PreconditionError("random variables here are nonnegative")

    @classmethod
    def from_mapping(
        cls, space: SampleSpace, mapping: Mapping[int, int | str | Fraction]
    ) -> "RandomVariable":
        try:
            vals = tuple(frac(mapping[w]) for w in space.outcomes)
        except KeyError as exc:
            raise PreconditionError(f"missing value for outcome {exc}") from exc
        return cls(space, vals)

    def __getitem__(self, outcome: int) -> Fraction:
        return self.values[self.space.index(outcome)]

    def expectation(self) -> Fraction:
        return dot(zip(self.space.probs, self.values))

    def pointwise_mul(self, other: "RandomVariable") -> "RandomVariable":
        self._same_space(other)
        return RandomVariable(
            self.space, tuple(map(product, self.values, other.values))
        )

    def pointwise_max(self, other: "RandomVariable") -> "RandomVariable":
        self._same_space(other)
        return RandomVariable(
            self.space, tuple(max(a, b) for a, b in zip(self.values, other.values))
        )

    def scale(self, factor: int | str | Fraction) -> "RandomVariable":
        f = frac(factor)
        if f < 0:
            raise PreconditionError("scale factor must be nonnegative")
        return RandomVariable(self.space, tuple(product(f, v) for v in self.values))

    def _same_space(self, other: "RandomVariable") -> None:
        if self.space != other.space:
            raise PreconditionError("random variables live on different spaces")


@dataclass(frozen=True)
class Partition:
    """Atoms of a sub-sigma-algebra on a finite sample space.

    Blocks are stored as sorted outcome tuples, sorted by first element, so
    equal partitions compare equal and iteration order is deterministic.
    Every block has positive probability because every outcome does.
    """

    space: SampleSpace
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise PreconditionError("empty partition block")
            for w in block:
                if w in seen:
                    raise PreconditionError(f"outcome {w} in two blocks")
                seen.add(w)
        if seen != set(self.space.outcomes):
            raise PreconditionError("blocks do not cover the sample space")
        canon = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        if canon != self.blocks:
            object.__setattr__(self, "blocks", canon)

    @classmethod
    def from_blocks(
        cls, space: SampleSpace, blocks: Iterable[Iterable[int]]
    ) -> "Partition":
        return cls(space, tuple(tuple(b) for b in blocks))

    @classmethod
    def trivial(cls, space: SampleSpace) -> "Partition":
        return cls(space, (tuple(space.outcomes),))

    @cached_property
    def block_indices(self) -> tuple[tuple[int, ...], ...]:
        """Each block's outcome indices in the space, in block order;
        computed once per partition and kept in the instance dict, out of
        equality, hashing and repr, as the block probabilities are."""
        index = self.space.index
        return tuple(tuple(map(index, block)) for block in self.blocks)

    @cached_property
    def block_probs(self) -> tuple[Fraction, ...]:
        """Each block's :meth:`block_prob`, in block order, lined up with
        :attr:`block_indices`; computed once, as they are."""
        return tuple(map(self.block_prob, self.blocks))

    def block_prob(self, block: Iterable[int]) -> Fraction:
        """The probability of any set of outcomes: a block, in any order,
        a part of one or a union of several."""
        return dot((self.space.prob(w), ONE) for w in block)

    def is_measurable(self, rv: RandomVariable) -> bool:
        """True iff ``rv`` is constant on every block."""
        if rv.space != self.space:
            return False
        vals = rv.values
        for idx in self.block_indices:
            if len({vals[i] for i in idx}) > 1:
                return False
        return True


def level_partition(tree: EventTree, level_t: int, atom_t: int) -> Partition:
    """Partition of the time-``level_t`` nodes by their time-``atom_t`` ancestor."""
    if not 0 <= atom_t <= level_t <= tree.horizon:
        raise PreconditionError("need 0 <= atom_t <= level_t <= horizon")
    space = level_space(tree, level_t)
    groups: dict[int, list[int]] = {}
    for n in space.outcomes:
        groups.setdefault(tree.ancestor_at(n, atom_t), []).append(n)
    return Partition.from_blocks(space, (groups[k] for k in sorted(groups)))


def cond_exp_partition(rv: RandomVariable, g: Partition) -> RandomVariable:
    """Conditional expectation given a partition: block-constant averages.

    On each block B the value is sum(P(w) rv(w)) / P(B); the tower property
    holds exactly in rational arithmetic.
    """
    if rv.space != g.space:
        raise PreconditionError("random variable and partition disagree on the space")
    probs, vals = rv.space.probs, rv.values
    out = [ZERO] * rv.space.size
    for idx, pb in zip(g.block_indices, g.block_probs):
        avg = quotient(dot((probs[i], vals[i]) for i in idx), pb)
        for i in idx:
            out[i] = avg
    return RandomVariable(rv.space, tuple(out))
