"""Markets on event trees: wealth, martingale measures, superhedging.

Discounted asset prices live on an event tree; strategies are predictable
holdings over the outgoing edges.  The one-step martingale-measure
polytopes make every pricing question a small exact LP:

* validity is decided node by node: the measure polytope is the product
  of the one-step polytopes, so an equivalent martingale measure exists
  exactly when every one-step polytope has a strictly positive point;
* the superhedging value of a claim or consumption stream is the backward
  maximum of expected payoffs over the one-step polytopes, and the
  optional decomposition (wealth minus a nondecreasing residual) is
  recovered by per-node hedging LPs;
* the dual cone of wealth processes -- all supermartingale deflators
  making deflated wealth a supermartingale -- has three equivalent LP
  descriptions whose agreement is exactly the structural duality this
  package verifies.

The wealth polytopes and the least-capital LP of the budget check share
one :class:`WealthMap` per market: wealth as a linear map of the capital,
the holdings and the consumption increments, with one ``solvency@n`` row
per non-root node.  Objectives reach its columns through its transpose,
and its decoder turns a point back into wealth, strategy and consumption.

Everything is exact; every certificate is substitution-checked.  Value
arithmetic -- wealth along the tree, the map's objectives and decoder,
cumulative consumption, density processes, the hedging increments and the
density-hull bounds -- goes through :func:`~procpolar.rational.product`,
:func:`~procpolar.rational.dot` (a difference is a ``dot`` with a ``-1``
weight) and :func:`~procpolar.rational.scaled`, so each value is normalised
once; subtree sums are :func:`~procpolar.rational.integers` over one lcm.
"""

from __future__ import annotations

import random
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
    feasible_interior_point,
    feasible_point,
    maximize,
    minimize,
    per_owner,
    vector,
)
from .process_polar import defect_terms, first_defect
from .processes import AdaptedProcess, is_martingale, is_supermartingale
from .rational import (
    MINUS_ONE,
    ONE,
    ZERO,
    dot,
    frac,
    frac_tuple,
    fraction,
    integers,
    less,
    negate,
    product,
    scaled,
    zero_mask,
)
from .tree import EventTree, RandomVariable, terminal_space


@dataclass(frozen=True)
class Market:
    """Discounted prices for ``d`` risky assets on an event tree."""

    tree: EventTree
    prices: tuple[AdaptedProcess, ...]

    def __post_init__(self) -> None:
        if not self.prices:
            raise PreconditionError("a market needs at least one asset")
        for s in self.prices:
            if s.tree != self.tree:
                raise PreconditionError("price process on a different tree")

    @classmethod
    def of(cls, tree: EventTree, prices: Sequence[AdaptedProcess]) -> "Market":
        """Build and validate: an equivalent martingale measure must exist."""
        m = cls(tree, tuple(prices))
        if emm_polytope(m).interior is None:
            raise PreconditionError(
                "market invalid: no equivalent martingale measure"
            )
        return m

    @property
    def d(self) -> int:
        return len(self.prices)


@per_owner
def _price_increments(m: Market) -> tuple[Optional[tuple[Fraction, ...]], ...]:
    """Per node, the increments of all assets along the edge into it (None
    at the root): subtracted once per market, not on every read."""
    tree = m.tree
    return tuple(
        None
        if par is None
        else tuple(
            dot(((s.values[n], ONE), (s.values[par], MINUS_ONE))) for s in m.prices
        )
        for n, par in enumerate(tree.parent)
    )


@dataclass(frozen=True)
class Strategy:
    """Holdings per non-terminal node: the position over the outgoing edges.

    Each position is coerced through :func:`~procpolar.rational.frac_tuple`,
    so a float or a bool holding is refused."""

    tree: EventTree
    holdings: tuple[Optional[tuple[Fraction, ...]], ...]

    def __post_init__(self) -> None:
        if len(self.holdings) != self.tree.num_nodes:
            raise PreconditionError("one holdings entry per node required")
        holdings = tuple(None if h is None else frac_tuple(h) for h in self.holdings)
        object.__setattr__(self, "holdings", holdings)
        for n in range(self.tree.num_nodes):
            h = holdings[n]
            if self.tree.is_terminal(n):
                if h is not None:
                    raise PreconditionError("terminal nodes hold nothing")
            elif h is None:
                raise PreconditionError(f"missing holdings at {self.tree.labels[n]}")

    def at(self, node: int) -> tuple[Fraction, ...]:
        h = self.holdings[node]
        if h is None:
            raise PreconditionError("no holdings at a terminal node")
        return h


@dataclass(frozen=True)
class ConsumptionProcess:
    """Cumulative consumption: starts at 0, nondecreasing along every edge."""

    cumulative: AdaptedProcess

    def __post_init__(self) -> None:
        c = self.cumulative
        if c.initial != 0:
            raise PreconditionError("cumulative consumption starts at 0")
        vals = c.values
        for n, par in enumerate(c.tree.parent):
            if par is not None and less(vals[n], vals[par]):
                raise PreconditionError(
                    f"consumption decreases along the edge into {c.tree.labels[n]}"
                )

    @classmethod
    def zero(cls, tree: EventTree) -> "ConsumptionProcess":
        return cls(AdaptedProcess.constant(tree, 0))


@dataclass(frozen=True)
class ConsumptionDensity:
    """A consumption rate per node plus rational time weights summing to 1.

    The weights are coerced like process values: floats and bools are
    refused."""

    density: AdaptedProcess
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = frac_tuple(self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.density.tree.horizon + 1:
            raise PreconditionError("one weight per time index required")
        if any(w < 0 for w in weights):
            raise PreconditionError("time weights must be nonnegative")
        if dot((w, ONE) for w in weights) != 1:
            raise PreconditionError("time weights must sum to 1")

    def cumulative(self) -> ConsumptionProcess:
        tree = self.density.tree
        vals = [ZERO] * tree.num_nodes
        for n, par in enumerate(tree.parent):
            rate = (self.weights[tree.time[n]], self.density.values[n])
            vals[n] = product(*rate) if par is None else dot(((vals[par], ONE), rate))
        # the time-0 weight charges consumption at the root, which must be 0
        if vals[0] != 0:
            raise PreconditionError(
                "a positive weight at time 0 with positive density would "
                "consume before trading starts"
            )
        return ConsumptionProcess(AdaptedProcess(tree, tuple(vals)))


# ---------------------------------------------------------------------------
# Martingale measure polytopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmmPolytope:
    """One-step transition probabilities under which prices are martingales.

    A point holds q(child) of every non-root node at position ``child - 1``.
    The polytope is the product of one :func:`local_polytope` block per
    non-terminal node, held with that node's children.  Its relative
    interior (all q positive) corresponds exactly to the equivalent
    martingale measures; boundary points are absolutely continuous ones.
    """

    blocks: tuple[tuple[tuple[int, ...], LinearSystem], ...]
    interior: Optional[tuple[Fraction, ...]]

    def contains(self, q: Sequence[Fraction]) -> bool:
        if len(q) != sum(len(kids) for kids, _ in self.blocks):
            raise PreconditionError("one q per non-root node required")
        return all(
            local.satisfied_by([q[ch - 1] for ch in kids])
            for kids, local in self.blocks
        )


@per_owner
def local_polytope(m: Market, node: int) -> LinearSystem:
    """One-step martingale probabilities over the children of ``node``.

    Memoised, like every system builder here, so that repeated probes solve
    one system object and reuse its phase 1."""
    tree = m.tree
    if tree.is_terminal(node):
        raise PreconditionError("terminal nodes have no one-step polytope")
    kids = tree.children[node]
    rows = [LinearConstraint(enumerate((ONE,) * len(kids)), EQ, ONE, "prob")]
    for i in range(m.d):
        terms = enumerate(m.prices[i].values[ch] for ch in kids)
        rows.append(
            LinearConstraint(terms, EQ, m.prices[i].values[node], f"price[{i}]")
        )
    return LinearSystem.make(
        len(kids), rows, lower=0, var_names=[f"q({tree.labels[ch]})" for ch in kids]
    )


@per_owner
def emm_polytope(m: Market) -> EmmPolytope:
    """The measure polytope plus an interior point if one exists: the
    blocks share no variable, so the interior is the product of one strictly
    positive point per block, and None at the first block without one."""
    tree = m.tree
    blocks = tuple(
        (tree.children[n], local_polytope(m, n)) for n in tree.non_terminal_nodes()
    )
    q = [ZERO] * (tree.num_nodes - 1)
    for kids, local in blocks:
        point = feasible_interior_point(local)
        if point is None:
            return EmmPolytope(blocks, None)
        for ch, v in zip(kids, point):
            q[ch - 1] = v
    return EmmPolytope(blocks, tuple(q))


def density_process(m: Market, q: Sequence[Fraction]) -> AdaptedProcess:
    """Likelihood-ratio process of a measure point: products of q/p ratios.

    Starts at 1 and is re-checked to be a martingale under the reference
    measure.
    """
    q = tuple(frac(v) for v in q)
    if not emm_polytope(m).contains(q):
        raise PreconditionError("q is not a feasible measure point")
    tree = m.tree
    vals = [ONE] * tree.num_nodes
    for n in range(1, tree.num_nodes):
        vals[n] = scaled(vals[tree.parent[n]], q[n - 1], tree.edge_prob[n])
    y = AdaptedProcess(tree, tuple(vals))
    if not is_martingale(y):
        raise PostconditionError("density process failed the martingale check")
    return y


# ---------------------------------------------------------------------------
# Wealth dynamics
# ---------------------------------------------------------------------------


def wealth_values(
    m: Market,
    x: int | str | Fraction,
    strategy: Strategy,
    consumption: ConsumptionProcess,
) -> tuple[Fraction, ...]:
    """Wealth along the tree: initial capital plus trading gains minus
    consumption.  May go negative; admissibility is a separate check."""
    tree = m.tree
    if strategy.tree != tree or consumption.cumulative.tree != tree:
        raise PreconditionError("strategy or consumption on a different tree")
    if any(h is not None and len(h) != m.d for h in strategy.holdings):
        raise PreconditionError(f"holdings must give one position per asset ({m.d})")
    x = frac(x)
    increments = _price_increments(m)
    spent = consumption.cumulative.values
    vals: list[Fraction] = [ZERO] * tree.num_nodes
    vals[0] = x
    for n in range(1, tree.num_nodes):
        # X(par) + h(par) . dS(n) - (C(n) - C(par))
        par = tree.parent[n]
        vals[n] = dot(
            (
                (vals[par], ONE),
                *zip(strategy.at(par), increments[n]),
                (spent[n], MINUS_ONE),
                (spent[par], ONE),
            )
        )
    return tuple(vals)


def is_admissible(
    m: Market,
    x: int | str | Fraction,
    strategy: Strategy,
    consumption: ConsumptionProcess,
) -> bool:
    return all(v >= 0 for v in wealth_values(m, x, strategy, consumption))


def wealth_process(
    m: Market,
    x: int | str | Fraction,
    strategy: Strategy,
    consumption: ConsumptionProcess,
) -> AdaptedProcess:
    """The wealth as a positive process; requires admissibility."""
    vals = wealth_values(m, x, strategy, consumption)
    if any(v < 0 for v in vals):
        raise PreconditionError("strategy is not admissible at this capital")
    return AdaptedProcess(m.tree, vals)


# ---------------------------------------------------------------------------
# The wealth map, and the wealth polytopes X(x) and XC(x) over it
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WealthMap:
    """Wealth as a linear map of LP columns,
    ``X(n) = w0 + sum of h(par) . dS(ch) over the edges to n - C(n)``.

    Column 0 is the capital ``w0 >= 0``, the ``d`` free holdings of each
    non-terminal node follow, and with consumption one increment
    ``c(n) >= 0`` per non-root node, ``C(n)`` being their sum along the
    path.  ``edges[n]`` holds the terms of ``X(n) - X(parent)``.
    """

    tree: EventTree
    holdings: dict[int, range]  # the columns of the holdings at each node
    consumption: range  # the columns of c(1), c(2), ...; empty without
    edges: tuple[tuple[tuple[int, Fraction], ...], ...]
    names: tuple[str, ...]

    def system(
        self, floor: Sequence[Fraction], budget: Optional[Fraction] = None
    ) -> LinearSystem:
        """Wealth of at least ``floor(n)`` at every non-root node from a
        capital of at most ``budget``: one ``solvency@n`` row
        ``-X(n) <= -floor(n)`` each, over the path form of ``X(n)``.  With
        a zero floor every row is ``<=`` with rhs 0, so phase 1 starts from
        the slack basis and needs no artificial."""
        tree, n_vars = self.tree, len(self.names)
        forms = [((0, ONE),)]
        rows = []
        for n in range(1, tree.num_nodes):
            forms.append(forms[tree.parent[n]] + self.edges[n])
            terms = ((j, negate(a)) for j, a in forms[n])
            rows.append(
                LinearConstraint(
                    terms, LE, negate(floor[n]), f"solvency@{tree.labels[n]}"
                )
            )
        n_free = self.consumption.start - 1
        lower = (ZERO,) + (None,) * n_free + (ZERO,) * len(self.consumption)
        upper = (budget,) + (None,) * (n_vars - 1)
        return LinearSystem.make(
            n_vars, rows, lower=lower, upper=upper, var_names=self.names
        )

    def objective(
        self, weights: Sequence[Fraction], consumed: Sequence[Fraction] = ()
    ) -> list[tuple[int, Fraction]]:
        """``sum weights(n) X(n) + sum consumed(n) C(n)``, one term per column
        in column order: the map's transpose, each edge's terms weighing the
        weights summed over the subtree below it, so no path form is composed."""
        below = _subtree_sums(self.tree, weights)
        zero = zero_mask(below)
        pairs: dict[int, list[tuple[Fraction, Fraction]]] = {0: [(below[0], ONE)]}
        for n in range(1, len(below)):
            if not zero[n]:
                for j, a in self.edges[n]:
                    pairs.setdefault(j, []).append((a, below[n]))
        if consumed:
            spent = zip(self.consumption, _subtree_sums(self.tree, consumed)[1:])
            for j, c in spent:
                pairs.setdefault(j, []).append((c, ONE))
        return sorted((j, dot(p)) for j, p in pairs.items())

    def decode(
        self, point: Sequence[Fraction]
    ) -> tuple[AdaptedProcess, Strategy, ConsumptionProcess]:
        """The wealth, strategy and consumption held by a point of a system
        over the map."""
        tree = self.tree
        zero = zero_mask(point)
        wealth = [point[0]]
        for n in range(1, tree.num_nodes):
            gains = ((a, point[j]) for j, a in self.edges[n] if not zero[j])
            wealth.append(dot(((wealth[tree.parent[n]], ONE), *gains)))
        cumulative = [ZERO] * tree.num_nodes
        for n, c in enumerate(self.consumption, 1):
            cumulative[n] = dot(((cumulative[tree.parent[n]], ONE), (point[c], ONE)))
        holdings: list[Optional[tuple[Fraction, ...]]] = [None] * tree.num_nodes
        for n, cols in self.holdings.items():
            holdings[n] = tuple(point[c] for c in cols)
        return (
            AdaptedProcess(tree, tuple(wealth)),
            Strategy(tree, tuple(holdings)),
            ConsumptionProcess(AdaptedProcess(tree, tuple(cumulative))),
        )


def _subtree_sums(tree: EventTree, weights: Sequence[Fraction]) -> list[Fraction]:
    """Per node, the weights summed over its subtree: integer numerators
    over the lcm of the weights' denominators, normalised once each; a
    zero sum is the shared ``ZERO``."""
    sums, den = integers(weights)
    for n in range(tree.num_nodes - 1, 0, -1):
        if sums[n]:
            sums[tree.parent[n]] += sums[n]
    return [fraction(v, den) if v else ZERO for v in sums]


@per_owner
def wealth_map(m: Market, consumption: bool) -> WealthMap:
    """The wealth map of ``m``, with or without consumption columns."""
    tree = m.tree
    increments = _price_increments(m)
    holdings = {
        n: range(1 + r * m.d, 1 + (r + 1) * m.d)
        for r, n in enumerate(tree.non_terminal_nodes())
    }
    start = 1 + len(holdings) * m.d
    spent = range(start, start + tree.num_nodes - 1 if consumption else start)
    edges: list[tuple[tuple[int, Fraction], ...]] = [()]
    for ch in range(1, tree.num_nodes):
        gains = tuple(zip(holdings[tree.parent[ch]], increments[ch]))
        edges.append(gains + ((spent[ch - 1], MINUS_ONE),) if consumption else gains)
    names = ["w0"] + [f"h({tree.labels[n]},{i})" for n in holdings for i in range(m.d)]
    names += [f"c({tree.labels[n]})" for n in range(1, len(spent) + 1)]
    return WealthMap(tree, holdings, spent, tuple(edges), tuple(names))


@per_owner
def _wealth_system(m: Market, x: Fraction, consumption: bool) -> LinearSystem:
    """Admissible wealth from a capital of at most ``x``."""
    return wealth_map(m, consumption).system((ZERO,) * m.tree.num_nodes, x)


def pure_investment_polytope(m: Market, x: int | str | Fraction) -> LinearSystem:
    """Admissible pure-investment wealth processes with initial value <= x."""
    x = frac(x)
    if x < 0:
        raise PreconditionError("budget must be nonnegative")
    return _wealth_system(m, x, False)


def consumption_polytope(m: Market, x: int | str | Fraction) -> LinearSystem:
    """Admissible invest-and-consume wealth processes with budget <= x."""
    x = frac(x)
    if x < 0:
        raise PreconditionError("budget must be nonnegative")
    return _wealth_system(m, x, True)


# ---------------------------------------------------------------------------
# The deflator cone and its three LP descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeflatorMembership:
    member: bool
    reason: str = ""
    node: Optional[int] = None
    witness_point: Optional[tuple[Fraction, ...]] = None

    def __bool__(self) -> bool:
        return self.member


def _polar_of_wealth_system(
    m: Market, consumption: bool, y: AdaptedProcess
) -> DeflatorMembership:
    """Is deflated wealth a supermartingale for every point of the wealth
    system at budget 1, with or without consumption?

    One LP per non-terminal node maximizing the one-step defect of the
    product over the whole polytope, its objective carried through the
    map by :meth:`WealthMap.objective`; the root condition reduces to
    y(root) <= 1 because initial wealth is capped at 1, and its witness
    is the constant unit wealth ``w0 = 1``.
    """
    tree = m.tree
    if y.tree != tree:
        raise PreconditionError("deflator lives on a different tree")
    system = _wealth_system(m, ONE, consumption)
    if y.initial > 1:
        # wealth 1 everywhere, held in cash and never consumed
        point = vector(system.num_vars, ((0, ONE),))
        if not system.satisfied_by(point):
            raise PostconditionError("constant unit wealth left the wealth system")
        return DeflatorMembership(False, "initial value above 1", witness_point=point)
    wealth = wealth_map(m, consumption)
    for n in tree.non_terminal_nodes():
        objective = wealth.objective(vector(tree.num_nodes, defect_terms(y, n)))
        point = exceeding_point(system, objective, ZERO)
        if point is not None:
            reason = f"positive defect at {tree.labels[n]}"
            return DeflatorMembership(False, reason, node=n, witness_point=point)
    return DeflatorMembership(True)


def y_enlargement_membership(m: Market, y: AdaptedProcess) -> DeflatorMembership:
    """Membership in the polar of pure-investment wealth at budget 1."""
    return _polar_of_wealth_system(m, False, y)


def xc_polar_membership(m: Market, y: AdaptedProcess) -> DeflatorMembership:
    """Membership in the polar of invest-and-consume wealth at budget 1."""
    return _polar_of_wealth_system(m, True, y)


def xc_measure_membership(m: Market, z: AdaptedProcess) -> DeflatorMembership:
    """The optional-decomposition test for consumable wealth.

    ``z`` starts at most at 1 and is a supermartingale under every
    one-step martingale measure.  By per-node LP duality this is exactly
    realizability as invest-and-consume wealth with budget 1; note it is a
    strictly weaker condition than deflator-cone membership.
    """
    tree = m.tree
    if z.tree != tree:
        raise PreconditionError("candidate lives on a different tree")
    if z.initial > 1:
        return DeflatorMembership(False, reason="initial value above 1")
    for n in tree.non_terminal_nodes():
        objective = enumerate(z.values[ch] for ch in tree.children[n])
        q = exceeding_point(local_polytope(m, n), objective, z.values[n])
        if q is not None:
            return DeflatorMembership(
                False,
                reason=f"not a supermartingale under some measure at {tree.labels[n]}",
                node=n,
                witness_point=q,
            )
    return DeflatorMembership(True)


def density_hull_membership(m: Market, y: AdaptedProcess) -> DeflatorMembership:
    """Membership in the solid fork-convex hull of density processes.

    Per node, the next values must be dominated by the current value times
    the likelihood ratio of a single local martingale measure:
    p(ch) y(ch) <= r(ch) for scaled measure weights r summing to y(node)
    and pricing the assets at y(node) times the current price.  One small
    feasibility LP per node.
    """
    tree = m.tree
    if y.tree != tree:
        raise PreconditionError("deflator lives on a different tree")
    if y.initial > 1:
        return DeflatorMembership(False, reason="initial value above 1")
    for n in tree.non_terminal_nodes():
        kids = tuple(y.values[ch] for ch in tree.children[n])
        if feasible_point(_density_hull_system(m, n, y.values[n], kids)) is None:
            return DeflatorMembership(
                False,
                reason=f"no dominating likelihood ratio at {tree.labels[n]}",
                node=n,
            )
    return DeflatorMembership(True)


@per_owner
def _density_hull_system(
    m: Market, n: int, y_node: Fraction, y_kids: tuple[Fraction, ...]
) -> LinearSystem:
    """Scaled measure weights r over the children of ``n`` summing to
    ``y_node``, pricing the assets at ``y_node`` times the spot and
    dominating ``p(ch) y_kids(ch)``."""
    kids = m.tree.children[n]
    rows = [LinearConstraint(enumerate((ONE,) * len(kids)), EQ, y_node, "mass")]
    for i in range(m.d):
        rows.append(
            LinearConstraint(
                enumerate(m.prices[i].values[ch] for ch in kids),
                EQ,
                product(y_node, m.prices[i].values[n]),
                f"price[{i}]",
            )
        )
    lower = [product(m.tree.edge_prob[ch], v) for ch, v in zip(kids, y_kids)]
    return LinearSystem.make(len(kids), rows, lower=lower)


@per_owner
def lifted_deflator_system(m: Market) -> LinearSystem:
    """H-representation of the deflator cone with scaled-measure variables.

    A deflator y belongs to the cone iff at every non-terminal node there
    is a local martingale measure q with y(ch) <= y(node) q(ch)/p(ch);
    writing r(ch) = y(node) q(ch) makes that linear: r >= 0 sums to
    y(node), prices the assets at y(node) times the spot, and dominates
    p(ch) y(ch) per edge.  Maximizing linear functionals of y over the
    cone is then a single LP over (y, r).  Column ``n`` is y at node
    ``n``; the r block follows.
    """
    tree = m.tree
    n_nodes = tree.num_nodes
    n_vars = n_nodes + (n_nodes - 1)
    rows = [LinearConstraint(((0, ONE),), LE, ONE, "initial")]

    def ridx(child: int) -> int:
        # one r per non-root node, laid out after the y block
        return n_nodes + child - 1

    for n in tree.non_terminal_nodes():
        kids = tree.children[n]
        terms = [(ridx(ch), ONE) for ch in kids] + [(n, MINUS_ONE)]
        rows.append(LinearConstraint(terms, EQ, ZERO, f"mass@{tree.labels[n]}"))
        for i in range(m.d):
            price = m.prices[i].values
            terms = [(ridx(ch), price[ch]) for ch in kids] + [(n, negate(price[n]))]
            rows.append(
                LinearConstraint(terms, EQ, ZERO, f"price[{i}]@{tree.labels[n]}")
            )
        for ch in kids:
            terms = ((ch, tree.edge_prob[ch]), (ridx(ch), MINUS_ONE))
            rows.append(
                LinearConstraint(terms, LE, ZERO, f"dominate@{tree.labels[ch]}")
            )
    names = [f"y({lab})" for lab in tree.labels]
    names += [f"r({tree.labels[ch]})" for ch in range(1, n_nodes)]
    return LinearSystem.make(n_vars, rows, lower=0, var_names=names)


def wealth_bipolar_contains(m: Market, z: AdaptedProcess) -> DeflatorMembership:
    """Bipolar membership of a process against pure-investment wealth.

    Maximizes, over the lifted deflator cone, first the initial product
    and then the per-node supermartingale defect of z times the deflator.
    """
    if z.tree != m.tree:
        raise PreconditionError("candidate lives on a different tree")
    lifted = lifted_deflator_system(m)
    point = exceeding_point(lifted, ((0, z.initial),), ONE)
    if point is not None:
        return DeflatorMembership(
            False, reason="initial product exceeds 1", witness_point=point
        )
    defect = first_defect(lifted, z)
    if defect is None:
        return DeflatorMembership(True)
    n, point = defect
    reason = f"positive defect at {m.tree.labels[n]}"
    return DeflatorMembership(False, reason, node=n, witness_point=point)


@dataclass(frozen=True)
class XcFeasibility:
    feasible: bool
    strategy: Optional[Strategy] = None
    consumption: Optional[ConsumptionProcess] = None

    def __bool__(self) -> bool:
        return self.feasible


def _hedge(
    m: Market, n: int, target: Sequence[Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Holdings at ``n`` whose gains dominate ``target(ch) - target(n)``
    into every child, or None when there are none: the one-period step of
    the optional decomposition, a feasibility LP in ``d`` free holdings."""
    increments = tuple(
        dot(((target[ch], ONE), (target[n], MINUS_ONE))) for ch in m.tree.children[n]
    )
    return feasible_point(_hedge_system(m, n, increments))


@per_owner
def _hedge_system(
    m: Market, n: int, increments: tuple[Fraction, ...]
) -> LinearSystem:
    """The system of :func:`_hedge`, with the target's increments into the
    children of ``n`` as its right-hand side."""
    price_increments = _price_increments(m)
    rows = [
        LinearConstraint(
            enumerate(price_increments[ch]), GE, inc, f"dominate@{m.tree.labels[ch]}"
        )
        for ch, inc in zip(m.tree.children[n], increments)
    ]
    return LinearSystem.make(m.d, rows, lower=None)


def xc_feasibility(m: Market, z: AdaptedProcess) -> XcFeasibility:
    """Can ``z`` be realized as invest-and-consume wealth with budget 1?

    With the wealth pinned to ``z`` the question splits node by node: every
    non-terminal node needs holdings whose gains dominate ``z(ch) - z(n)``
    into every child (:func:`_hedge`), and the consumption increment is the
    slack.  The answer is no at the first node without such holdings.  The
    certificate is the realizing strategy and consumption -- the
    zero-consumption wealth from ``z.initial`` minus ``z`` -- which is
    replayed exactly.
    """
    tree = m.tree
    if z.tree != tree:
        raise PreconditionError("candidate lives on a different tree")
    if z.initial > 1:
        return XcFeasibility(False)
    holdings: list[Optional[tuple[Fraction, ...]]] = [None] * tree.num_nodes
    for n in tree.non_terminal_nodes():
        holdings[n] = _hedge(m, n, z.values)
        if holdings[n] is None:
            return XcFeasibility(False)
    strategy = Strategy(tree, tuple(holdings))
    wealth = wealth_values(m, z.initial, strategy, ConsumptionProcess.zero(tree))
    consumption = ConsumptionProcess(
        AdaptedProcess(
            tree,
            tuple(dot(((w, ONE), (v, MINUS_ONE))) for w, v in zip(wealth, z.values)),
        )
    )
    if wealth_values(m, z.initial, strategy, consumption) != z.values:
        raise PostconditionError("feasibility certificate does not replay the wealth")
    return XcFeasibility(True, strategy, consumption)


# ---------------------------------------------------------------------------
# Superhedging and the budget constraint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperhedgeResult:
    value: Fraction
    envelope: AdaptedProcess  # best expected remaining payoff, nodewise
    strategy: Strategy
    wealth: AdaptedProcess  # pure-investment wealth from the value
    residual: AdaptedProcess  # wealth minus envelope: nondecreasing, starts at 0
    argmax_measure: tuple[Fraction, ...]  # one-step q per non-root node


def _terminal_obligation(
    m: Market, claim: RandomVariable | ConsumptionDensity
) -> tuple[ConsumptionProcess, RandomVariable]:
    """Normalize a claim to (cumulative stream, terminal payoff)."""
    tree = m.tree
    if isinstance(claim, ConsumptionDensity):
        if claim.density.tree != tree:
            raise PreconditionError("consumption density on a different tree")
        cum = claim.cumulative()
        space = terminal_space(tree)
        payout = RandomVariable(
            space, tuple(cum.cumulative.values[w] for w in space.outcomes)
        )
        return cum, payout
    if claim.space != terminal_space(tree):
        raise PreconditionError("claim must live on the terminal nodes")
    return ConsumptionProcess.zero(tree), claim


@per_owner
def superhedge_value(
    m: Market, claim: RandomVariable | ConsumptionDensity
) -> SuperhedgeResult:
    """Minimal capital whose pure-investment wealth dominates the claim.

    Backward recursion: the envelope at a node is the best one-step
    expectation of the next envelope over the node's local measure
    polytope.  The hedging strategy solving each per-node domination LP
    turns the envelope into wealth minus a nondecreasing residual, which
    is re-checked exactly, as is envelope >= cumulative stream.

    The result depends only on the market and the claim, so it is
    memoised on the market, one recursion per claim.  A market without an
    equivalent martingale measure is refused, also when it was built with
    ``Market(...)`` rather than :meth:`Market.of`."""
    if emm_polytope(m).interior is None:
        raise PreconditionError("market invalid: no equivalent martingale measure")
    tree = m.tree
    cum, payout = _terminal_obligation(m, claim)
    env = [ZERO] * tree.num_nodes
    for w in payout.space.outcomes:
        env[w] = payout[w]
    q_vals = [ZERO] * (tree.num_nodes - 1)
    for t in range(tree.horizon - 1, -1, -1):
        for n in tree.nodes_at(t):
            kids = tree.children[n]
            out = maximize(local_polytope(m, n), enumerate(env[ch] for ch in kids))
            if out.status is LpStatus.INFEASIBLE:
                raise PostconditionError(
                    "one-step polytope empty although the market has an "
                    "equivalent martingale measure"
                )
            if out.status is LpStatus.UNBOUNDED:
                raise PostconditionError("one-step polytopes are bounded")
            assert out.value is not None and out.point is not None
            env[n] = out.value
            for ch, v in zip(kids, out.point):
                q_vals[ch - 1] = v
    envelope = AdaptedProcess(tree, tuple(env))
    if not all(
        envelope.values[n] >= cum.cumulative.values[n] for n in range(tree.num_nodes)
    ):
        raise PostconditionError("envelope fell below the cumulative stream")

    holdings: list[Optional[tuple[Fraction, ...]]] = [None] * tree.num_nodes
    for n in tree.non_terminal_nodes():
        holdings[n] = _hedge(m, n, env)
        if holdings[n] is None:
            raise PostconditionError(
                "hedging LP infeasible although the envelope recursion held"
            )
    strategy = Strategy(tree, tuple(holdings))
    wealth = wealth_process(m, env[0], strategy, ConsumptionProcess.zero(tree))

    residual_vals = tuple(
        dot(((w, ONE), (e, MINUS_ONE))) for w, e in zip(wealth.values, env)
    )
    residual = AdaptedProcess(tree, residual_vals)
    for ch in range(1, tree.num_nodes):
        par = tree.parent[ch]
        assert par is not None
        if residual.values[ch] < residual.values[par]:
            raise PostconditionError("superhedge residual must be nondecreasing")
    if residual.initial != 0:
        raise PostconditionError("superhedge residual must start at 0")

    return SuperhedgeResult(
        value=env[0],
        envelope=envelope,
        strategy=strategy,
        wealth=wealth,
        residual=residual,
        argmax_measure=tuple(q_vals),
    )


@dataclass(frozen=True)
class BudgetOutcome:
    admissible: bool
    superhedge: Fraction
    strategy: Optional[Strategy] = None  # certificate when admissible
    violating_measure: Optional[tuple[Fraction, ...]] = None  # otherwise

    def __bool__(self) -> bool:
        return self.admissible


def budget_check(
    m: Market, density: ConsumptionDensity, x: int | str | Fraction
) -> BudgetOutcome:
    """Is the density consumable from capital ``x``?  Two oracles, one value.

    Primal: the least capital of :func:`_least_capital` (certificate: its
    strategy, replayed as admissible at ``x``).  Dual: the superhedge value
    of the cumulative stream (certificate: the expectation-maximizing
    measure, whose expectation must exceed ``x``).  Neither depends on
    ``x``, so each is computed once per density; the two values must be
    equal, and a difference is a defect, not a result.  A market without an
    equivalent martingale measure is refused by :func:`superhedge_value`.
    """
    x = frac(x)
    if x < 0:
        raise PreconditionError("capital must be nonnegative")
    if density.density.tree != m.tree:
        raise PreconditionError("consumption density on a different tree")
    cum = density.cumulative()

    sh = superhedge_value(m, density)
    least, strategy = _least_capital(m, density)
    if least != sh.value:
        raise PostconditionError(
            f"budget oracles disagree: least capital {least} "
            f"vs superhedge value {sh.value}"
        )
    if sh.value > x:
        q = sh.argmax_measure
        expected = _expected_terminal(m, q, cum)
        if expected != sh.value or expected <= x:
            raise PostconditionError("violating measure fails to certify")
        return BudgetOutcome(False, sh.value, violating_measure=q)
    if not is_admissible(m, x, strategy, cum):
        raise PostconditionError("primal certificate is not admissible")
    return BudgetOutcome(True, sh.value, strategy=strategy)


@per_owner
def _least_capital(
    m: Market, density: ConsumptionDensity
) -> tuple[Fraction, Strategy]:
    """The least initial capital ``w0`` from which some strategy covers the
    density's cumulative consumption, and that strategy.

    One LP per density over the columns of ``wealth_map(m, False)``:
    minimize ``w0`` subject to one ``solvency@n`` row per non-root node,
    ``w0`` plus the gains along the path to ``n`` at least ``C(n)``.  Its
    system is built here, apart from the superhedge systems.
    """
    wealth = wealth_map(m, False)
    system = wealth.system(density.cumulative().cumulative.values)
    out = minimize(system, ((0, ONE),))
    if out.status is not LpStatus.OPTIMAL:
        raise PostconditionError(f"least-capital LP is {out.status.value}")
    assert out.value is not None and out.point is not None
    return out.value, wealth.decode(out.point)[1]


def _expected_terminal(
    m: Market, q: Sequence[Fraction], cum: ConsumptionProcess
) -> Fraction:
    """E_Q of the terminal cumulative value under one-step probabilities q."""
    tree = m.tree
    prob = [ONE] * tree.num_nodes
    for n in range(1, tree.num_nodes):
        prob[n] = product(prob[tree.parent[n]], q[n - 1])
    return dot((prob[w], cum.cumulative.values[w]) for w in tree.terminal_nodes())


# ---------------------------------------------------------------------------
# Structural duality verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureRecord:
    section: str  # "product" | "deflator" | "wealth"
    detail: str
    ok: bool


def sample_consumption_wealth(
    m: Market, rng: random.Random
) -> list[tuple[AdaptedProcess, ConsumptionProcess]]:
    """Two vertices of the invest-and-consume polytope at budget 1 under
    random objectives in the wealth and the cumulative consumption."""
    system = consumption_polytope(m, 1)
    wealth = wealth_map(m, True)
    out: list[tuple[AdaptedProcess, ConsumptionProcess]] = []
    for _ in range(2):
        weights, consumed = [], []
        for _n in range(m.tree.num_nodes):
            weights.append(fraction(rng.randint(-2, 3), 1))
            consumed.append(fraction(rng.randint(-2, 2), 1))
        res = maximize(system, wealth.objective(weights, consumed))
        if res.status is not LpStatus.OPTIMAL:
            raise PostconditionError(
                "consumption polytope should be bounded in wealth and consumption"
            )
        assert res.point is not None
        x, _strategy, consumption = wealth.decode(res.point)
        out.append((x, consumption))
    return out


def verify_structure(
    m: Market,
    deflator_probes: Sequence[AdaptedProcess],
    wealth_probes: Sequence[AdaptedProcess],
    rng: random.Random,
) -> tuple[StructureRecord, ...]:
    """Exercise the wealth/deflator duality on one market and return one
    record per check.

    * product: deflated invest-and-consume wealth is a supermartingale for
      every deflator probe that belongs to the cone (two wealth pairs drawn
      by :func:`sample_consumption_wealth`);
    * deflator: the three membership oracles for the cone agree on every
      probe;
    * wealth: realizability as consumption wealth, the supermartingale
      test under every one-step measure, and bipolar membership against
      pure investment agree on every probe.
    """
    records: list[StructureRecord] = []
    pairs = sample_consumption_wealth(m, rng)

    for yi, y in enumerate(deflator_probes):
        direct = y_enlargement_membership(m, y)
        via_consumption = xc_polar_membership(m, y)
        via_densities = density_hull_membership(m, y)
        agree = direct.member == via_consumption.member == via_densities.member
        records.append(
            StructureRecord(
                "deflator",
                f"probe {yi}: {direct.member}/{via_consumption.member}/{via_densities.member}",
                agree,
            )
        )
        if direct.member:
            for wi, (w, _cons) in enumerate(pairs):
                prod = y.pointwise_mul(w)
                ok = prod.initial <= 1 and is_supermartingale(prod)
                records.append(
                    StructureRecord(
                        "product", f"probe {yi} x wealth {wi}", ok
                    )
                )

    for zi, z in enumerate(wealth_probes):
        direct = xc_feasibility(m, z).feasible
        via_measures = xc_measure_membership(m, z).member
        via_bipolar = wealth_bipolar_contains(m, z).member
        agree = direct == via_measures == via_bipolar
        records.append(
            StructureRecord(
                "wealth",
                f"probe {zi}: {direct}/{via_measures}/{via_bipolar}",
                agree,
            )
        )
    return tuple(records)
