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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import PreconditionError
from .rational import (
    ONE,
    ZERO,
    dot,
    format_rational,
    frac,
    frac_tuple,
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
        return tuple(i for i in range(self.num_nodes) if self.time[i] == t)

    def terminal_nodes(self) -> tuple[int, ...]:
        return self.nodes_at(self.horizon)

    def is_terminal(self, node: int) -> bool:
        return self.time[node] == self.horizon

    def non_terminal_nodes(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.num_nodes) if self.time[i] < self.horizon
        )

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
    product of one-step probabilities along the path from the root."""
    probs = [ONE] * tree.num_nodes
    for i in range(tree.num_nodes):
        p = tree.parent[i]
        if p is not None:
            probs[i] = product(probs[p], tree.edge_prob[i])
    return tuple(probs)


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

    def block_prob(self, block: tuple[int, ...]) -> Fraction:
        return dot((self.space.prob(w), ONE) for w in block)

    def is_measurable(self, rv: RandomVariable) -> bool:
        """True iff ``rv`` is constant on every block."""
        if rv.space != self.space:
            return False
        for block in self.blocks:
            vals = {rv[w] for w in block}
            if len(vals) > 1:
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
    out = [ZERO] * rv.space.size
    for block in g.blocks:
        pb = g.block_prob(block)
        mass = dot((rv.space.prob(w), rv[w]) for w in block)
        avg = quotient(mass, pb)
        for w in block:
            out[rv.space.index(w)] = avg
    return RandomVariable(rv.space, tuple(out))
