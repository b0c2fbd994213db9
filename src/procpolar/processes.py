"""Positive processes on event trees and the fork-convex/solid calculus.

A process assigns one nonnegative rational to every tree node; adaptedness
is structural.  Supermartingale checks, multiplicative increments (with
0/0 = 0), multiplication by nonincreasing processes and fork-splicing are
all exact, and each constructive operation re-checks the closure property
it is supposed to enjoy: composing them can never silently leave the class
of unit-initial supermartingales.

Values are coerced through :func:`~procpolar.rational.frac`, so a float or
a bool is refused and an int becomes a ``Fraction``.  Products of values
go through :func:`~procpolar.rational.product`, quotients through
:func:`~procpolar.rational.quotient`, sums of products through
:func:`~procpolar.rational.dot` and fork coefficients through
:func:`~procpolar.rational.scaled`, so each result is normalised once.
The one-step (super)martingale comparison at a node brings
``sum(p(c) * y(c))`` and ``y(n)`` to one common denominator
(:func:`~procpolar.rational.dot_sides`) and compares integers; the other
comparisons of values go through :func:`~procpolar.rational.less`, and
the zero tests of the absorbed-zeros check through
:func:`~procpolar.rational.zero_mask`.  The exact supermartingale check and
the absorbed-zeros check run once per process object: their verdicts are
cached on the process, outside its fields.  Every operation returns a
new process, so each postcondition is still checked on its result afresh.

A fork splice at time ``s`` takes a weight in [0, 1] for each time-``s``
node ``n`` (a mapping from node to weight), computes one coefficient pair
per fork node, ``a(n) = y1(n) w(n) / y2(n)`` and ``b(n) = y1(n) (1 - w(n)) /
y3(n)`` (0 when the weight or the divisor is 0), and sets every later node
``m`` below ``n`` to ``a(n) y2(m) + b(n) y3(m)`` (a ``dot`` of two terms,
or a ``product`` where a coefficient is 0): the same exact values as the
increment form, in one pass down the tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping

from .errors import PostconditionError, PreconditionError
from .rational import (
    ONE,
    ZERO,
    complement,
    dot,
    dot_sides,
    frac,
    frac_tuple,
    fraction,
    less,
    nonnegative,
    product,
    quotient,
    scaled,
    zero_mask,
)
from .tree import EventTree


@dataclass(frozen=True)
class AdaptedProcess:
    """One nonnegative rational per node of an event tree."""

    tree: EventTree
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = frac_tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.tree.num_nodes:
            raise PreconditionError("one value per tree node required")
        if not nonnegative(values):
            raise PreconditionError("process values must be nonnegative")

    @classmethod
    def from_mapping(
        cls, tree: EventTree, mapping: Mapping[int, int | str | Fraction]
    ) -> "AdaptedProcess":
        try:
            vals = tuple(frac(mapping[i]) for i in range(tree.num_nodes))
        except KeyError as exc:
            raise PreconditionError(f"missing value for node {exc}") from exc
        return cls(tree, vals)

    @classmethod
    def constant(cls, tree: EventTree, value: int | str | Fraction) -> "AdaptedProcess":
        return cls(tree, (frac(value),) * tree.num_nodes)

    def __getitem__(self, node: int) -> Fraction:
        return self.values[node]

    @property
    def initial(self) -> Fraction:
        return self.values[0]

    def terminal_values(self) -> tuple[Fraction, ...]:
        return tuple(self.values[n] for n in self.tree.terminal_nodes())

    def scale(self, factor: int | str | Fraction) -> "AdaptedProcess":
        f = frac(factor)
        if f < 0:
            raise PreconditionError("scale factor must be nonnegative")
        return AdaptedProcess(self.tree, tuple(product(f, v) for v in self.values))

    def pointwise_mul(self, other: "AdaptedProcess") -> "AdaptedProcess":
        if other.tree != self.tree:
            raise PreconditionError("processes live on different trees")
        return AdaptedProcess(
            self.tree, tuple(map(product, self.values, other.values))
        )

    def with_value(self, node: int, value: int | str | Fraction) -> "AdaptedProcess":
        vals = list(self.values)
        vals[node] = frac(value)
        return AdaptedProcess(self.tree, tuple(vals))

    @cached_property
    def _is_supermartingale(self) -> bool:
        """The verdict of :func:`is_supermartingale`.  It lives in the
        instance dict, not in a field, so equality, hashing and repr never
        see it."""
        return all(expected <= value for expected, value in _one_step_sides(self))

    @cached_property
    def _has_absorbed_zeros(self) -> bool:
        """The verdict of :func:`has_absorbed_zeros`, kept like
        :attr:`_is_supermartingale`."""
        zero = zero_mask(self.values)
        return not any(
            zero[par] and not zero[n]
            for n, par in enumerate(self.tree.parent)
            if par is not None
        )


def _one_step_sides(y: AdaptedProcess) -> Iterator[tuple[int, int]]:
    """Both sides of the one-step check at each non-terminal node ``n``, as
    integers over one common denominator ``L`` of that node: ``E / L`` is
    ``sum(p(c) * y(c))`` over the children ``c`` of ``n`` and ``v / L`` is
    ``y(n)``.  Comparing ``E`` with ``v`` compares the two rationals."""
    tree = y.tree
    probs, vals = tree.edge_prob, y.values
    for n in tree.non_terminal_nodes():
        yield dot_sides([(probs[c], vals[c]) for c in tree.children[n]], vals[n])


@dataclass(frozen=True)
class NonIncreasingProcess:
    """A process that starts at most at 1 and never increases along edges."""

    process: AdaptedProcess

    def __post_init__(self) -> None:
        p = self.process
        if less(ONE, p.initial):
            raise PreconditionError("nonincreasing processes start at most at 1")
        vals = p.values
        for i, par in enumerate(p.tree.parent):
            if par is not None and less(vals[par], vals[i]):
                raise PreconditionError(
                    f"value increases along the edge into {p.tree.labels[i]}"
                )

    def __getitem__(self, node: int) -> Fraction:
        return self.process.values[node]


def is_supermartingale(y: AdaptedProcess) -> bool:
    """Exact one-step check at every non-terminal node, run once per
    process object."""
    return y._is_supermartingale


def is_unit_supermartingale(y: AdaptedProcess) -> bool:
    """Supermartingale with initial value at most 1."""
    return not less(ONE, y.initial) and is_supermartingale(y)


def is_martingale(y: AdaptedProcess) -> bool:
    """Exact one-step equality at every non-terminal node."""
    return all(expected == value for expected, value in _one_step_sides(y))


def has_absorbed_zeros(y: AdaptedProcess) -> bool:
    """True iff a zero value forces zeros on the whole subtree below it;
    checked once per process object."""
    return y._has_absorbed_zeros


def increment(y: AdaptedProcess, s: int, t: int, node_t: int) -> Fraction:
    """Multiplicative increment y(node_t) / y(ancestor at s), with 0/0 = 0.

    A same-time increment is 1 by convention, even at a zero of the
    process.
    """
    tree = y.tree
    if s > t:
        raise PreconditionError("need s <= t")
    if tree.time[node_t] != t:
        raise PreconditionError(f"{tree.labels[node_t]} is not a time-{t} node")
    if s == t:
        return ONE
    anc = tree.ancestor_at(node_t, s)
    num, den = y.values[node_t], y.values[anc]
    if den == 0:
        if num == 0:
            return ZERO
        raise PreconditionError(
            "increment undefined: zero followed by a positive value "
            f"({tree.labels[anc]} -> {tree.labels[node_t]})"
        )
    return quotient(num, den)


def solid_multiply(y: AdaptedProcess, b: NonIncreasingProcess) -> AdaptedProcess:
    """Pointwise product with a nonincreasing process.

    Unit-initial supermartingales are stable under this, which is
    re-checked exactly on every call.
    """
    result = y.pointwise_mul(b.process)
    if is_unit_supermartingale(y) and not is_unit_supermartingale(result):
        raise PostconditionError("solid multiplication left the supermartingale class")
    return result


def fork_splice(
    y1: AdaptedProcess,
    y2: AdaptedProcess,
    y3: AdaptedProcess,
    s: int,
    weights: Mapping[int, int | str | Fraction],
) -> AdaptedProcess:
    """Splice ``y1``'s past with a weighted mix of the increments of
    ``y2`` and ``y3`` from time ``s`` on.

    ``weights`` maps each time-``s`` node to a value in [0, 1]; the result
    keeps ``y1`` up to time ``s`` and below a time-``s`` node ``n`` equals
    ``y1(n) * (w(n) * inc(y2) + (1-w(n)) * inc(y3))``, computed as
    ``a(n) * y2(m) + b(n) * y3(m)`` with one coefficient pair per fork
    node.  When all three inputs are unit-initial supermartingales the
    result is re-checked to be one as well.
    """
    tree = y1.tree
    if y2.tree != tree or y3.tree != tree:
        raise PreconditionError("processes live on different trees")
    if not 0 <= s <= tree.horizon:
        raise PreconditionError(f"splice time {s} outside 0..{tree.horizon}")
    fork_nodes = tree.nodes_at(s)
    wmap = {n: frac(weights[n]) for n in fork_nodes if n in weights}
    missing = [n for n in fork_nodes if n not in wmap]
    if missing:
        raise PreconditionError(
            f"missing weights at time-{s} nodes {[tree.labels[n] for n in missing]}"
        )
    if not nonnegative(wmap.values()) or any(less(ONE, w) for w in wmap.values()):
        raise PreconditionError("splice weights must lie in [0, 1]")
    for y in (y2, y3):
        if not has_absorbed_zeros(y):
            raise PreconditionError("splice branches must have absorbed zeros")

    # A coefficient whose weight or divisor is 0 is 0: below a zero divisor
    # the subtree is zero (absorbed zeros), and 0/0 = 0.
    v1, v2, v3 = y1.values, y2.values, y3.values
    vals = list(v1)
    coefs: list[tuple[Fraction, Fraction]] = [(ZERO, ZERO)] * tree.num_nodes
    for m in range(tree.num_nodes):
        t = tree.time[m]
        if t < s:
            continue
        if t == s:
            w = wmap[m]
            rest = complement(w)
            coefs[m] = (
                scaled(v1[m], w, v2[m]) if w and v2[m] else ZERO,
                scaled(v1[m], rest, v3[m]) if rest and v3[m] else ZERO,
            )
            continue
        a, b = coefs[m] = coefs[tree.parent[m]]
        if not b:
            vals[m] = product(a, v2[m])
        elif not a:
            vals[m] = product(b, v3[m])
        else:
            vals[m] = dot(((a, v2[m]), (b, v3[m])))
    result = AdaptedProcess(tree, tuple(vals))
    if all(map(is_unit_supermartingale, (y1, y2, y3))):
        if not is_unit_supermartingale(result):
            raise PostconditionError("fork splice left the supermartingale class")
    return result


@dataclass(frozen=True)
class ProcessSet:
    """Finitely generated set of processes.

    The set denoted is the fork-convex, solid, closed hull of the
    generators.  It is far-reaching when some generator is strictly
    positive at every terminal node; :attr:`far_reaching` is worked out
    from the generators once per set.
    """

    generators: tuple[AdaptedProcess, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise PreconditionError("at least one generator required")
        tree = self.generators[0].tree
        for g in self.generators:
            if g.tree != tree:
                raise PreconditionError("generators live on different trees")

    @classmethod
    def of(cls, *generators: AdaptedProcess) -> "ProcessSet":
        return cls(generators)

    @cached_property
    def far_reaching(self) -> bool:
        """Whether some generator is strictly positive at every terminal
        node.  Cached in the instance dict, outside the fields."""
        return any(
            all(v > 0 for v in g.terminal_values()) for g in self.generators
        )

    @property
    def tree(self) -> EventTree:
        return self.generators[0].tree

    def all_unit_supermartingales(self) -> bool:
        return all(is_unit_supermartingale(g) for g in self.generators)

    def max_initial(self) -> Fraction:
        return max(g.initial for g in self.generators)


# ---------------------------------------------------------------------------
# Random hull elements with replayable construction traces
# ---------------------------------------------------------------------------

Trace = tuple  # ("gen", i) | ("solid", sub, b_vals) | ("splice", a, b, c, s, w_items)


def random_unit_fraction(rng: random.Random, denominator_cap: int = 4) -> Fraction:
    den = rng.randint(1, denominator_cap)
    return fraction(rng.randint(0, den), den)


def random_nonincreasing_process(
    rng: random.Random, tree: EventTree
) -> NonIncreasingProcess:
    """Start at ``1 - U/2`` and multiply by ``1 - U/3`` along each edge, each
    ``U`` a fresh draw of ``random_unit_fraction(rng, 3)``."""
    vals: list[Fraction] = []
    for par in tree.parent:
        k = 2 if par is None else 3  # keep the root in (0, 1] mostly
        den = rng.randint(1, 3)
        factor = fraction(k * den - rng.randint(0, den), k * den)
        vals.append(factor if par is None else product(vals[par], factor))
    return NonIncreasingProcess(AdaptedProcess(tree, tuple(vals)))


@dataclass(frozen=True)
class HullSample:
    process: AdaptedProcess
    trace: Trace


def random_hull_element(
    c: ProcessSet, depth: int, rng: random.Random
) -> HullSample:
    """Sample the fork-convex solid hull by composing the two hull moves.

    The returned trace replays to the identical element via
    :func:`replay_trace`, which is what makes any downstream
    counterexample reproducible.
    """
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    trace = _random_trace(c, depth, rng)
    return HullSample(replay_trace(c, trace), trace)


def _random_trace(c: ProcessSet, depth: int, rng: random.Random) -> Trace:
    if depth == 0:
        return ("gen", rng.randrange(len(c.generators)))
    kind = rng.choice(("solid", "splice"))
    if kind == "solid":
        b = random_nonincreasing_process(rng, c.tree)
        return ("solid", _random_trace(c, depth - 1, rng), b.process.values)
    s = rng.randint(0, c.tree.horizon)
    w_items = tuple(
        (n, random_unit_fraction(rng)) for n in c.tree.nodes_at(s)
    )
    return (
        "splice",
        _random_trace(c, depth - 1, rng),
        _random_trace(c, depth - 1, rng),
        _random_trace(c, depth - 1, rng),
        s,
        w_items,
    )


def replay_trace(c: ProcessSet, trace: Trace) -> AdaptedProcess:
    kind = trace[0]
    if kind == "gen":
        return c.generators[trace[1]]
    if kind == "solid":
        sub = replay_trace(c, trace[1])
        b = NonIncreasingProcess(AdaptedProcess(c.tree, tuple(trace[2])))
        return solid_multiply(sub, b)
    if kind == "splice":
        y1 = replay_trace(c, trace[1])
        y2 = replay_trace(c, trace[2])
        y3 = replay_trace(c, trace[3])
        return fork_splice(y1, y2, y3, trace[4], dict(trace[5]))
    raise PreconditionError(f"unknown trace node {kind!r}")
