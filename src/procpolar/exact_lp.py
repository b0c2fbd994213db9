"""Exact rational linear programming.

A small two-phase simplex with Bland's rule.  Instances here are
desk-scale (at most a few hundred variables), so exactness and determinism
beat speed: identical inputs always produce the identical outcome, every
reported point or ray is re-verified by exact substitution before it is
returned, and there is no presolve beyond dropping duplicate constraint
rows.

The simplex pivots on an integer tableau, fraction-free (Bareiss 1968, as
in Avis's lrs): the true tableau is ``tab / d``, and a pivot on ``p``
replaces every other row by ``(row*p - row[c]*pivot_row) / d`` and ``d``
by ``p``.  Every entry is a minor of the starting tableau, so each
division is exact; it is checked anyway, and a remainder raises
:class:`PostconditionError`.  ``Fraction`` appears only at the boundary:
the rows going in, the point and ray coming out.  Each row is scaled by
the lcm of its denominators and its slack keeps the entry +-1, a positive
column scaling.  Positive row and column scalings leave Bland's entering and
leaving choices unchanged, so the pivot sequence is the one the rational
tableau would take, provided two rules hold:

* the artificial of a row scaled by ``L`` stands for ``L`` artificials of
  the rational row, so phase 1 weighs it ``big // L``, where ``big`` is the
  lcm of the scales of the artificial rows;
* the duplicate-row key holds the scale as well as the integer row, since
  ``(1/2, 1/2) <= 1/2`` and ``(1, 1) <= 1`` are two rows.

Variable bounds are first-class: nonnegativity is expressed as a lower
bound of 0 rather than an explicit row, which keeps the tableaus small.
:meth:`LinearSystem.violations` checks rows and bounds alike, so a system
"includes" its bounds for every membership purpose.

Phase 1 reads only a system's rows and bounds, never the objective.  It
runs once per :class:`LinearSystem` object, at its first solve, and its
result (the integer tableau at a feasible basis, or infeasibility) is
cached on the object; every solve over it runs phase 2 from there.  A
pivot replaces the rows it changes by new lists and never writes one in
place, so phase 2 runs over a shallow copy of the cached tableau; a zero
objective has every reduced cost 0 and runs no phase 2 at all, reading its
point from the cached tableau as it is.  The pivot sequence and the
outcome are the ones a fresh phase 1 would give.  Callers that solve many
objectives over one region get the reuse by passing the same system
object; :func:`per_owner` memoises a system builder on the object the
system is built from, so that every caller gets that one object.

Each question is solved once per system object, too.  The four entry
points below ask through one memo kept on the system beside its phase-1
result, keyed by the sense and the objective's integer form (its nonzero
terms and their lcm, the form the substitution check reads); asking again
returns the stored outcome object without a solve.  Equal systems built
as distinct objects keep distinct memos, and the paired oracles build
their own systems, so one side of a check never reads the other side's
answer.

A row or an objective is its terms: :class:`LinearConstraint` and
:class:`LpProblem` hold ``(column, coefficient)`` pairs in column order
under one column rule, and only this module knows how they are stored.

The oracles ask the core one of two questions.  The hull side asks
:func:`feasible_point`: a point of a system, or None when it is empty.
The bipolar side -- every direct polar, bipolar and deflator oracle --
asks :func:`exceeding_point`: a point of a system at which a linear
functional exceeds a bound, or None when its maximum stays at most the
bound.  That point is the separating witness behind every "not a
member"; it lies in the system and beats the bound, which substitution
confirms.

Each row is brought to integers once, when the :class:`LinearConstraint`
is built: its integer form, the nonzero terms and the rhs times the lcm of
their denominators, with that lcm.  The substitution check behind
:meth:`LinearSystem.violations` and :func:`verify_outcome` reads it, and
so does the standard form.  A point or ray is brought to one common
denominator ``D``, and each row ``a.x <= b`` is tested as
``sum(a_j * n_j) <= b * D`` on its integer numerators ``n``; a ray is
tested with ``D = 0``, so every row and bound is compared against 0, the
ray condition.  The check reads only a system's rows and bounds and the
problem's objective, never the standard form or the tableau, so it stays
independent of the solver; sharing the row's integer form adds no blind
spot, since each side would compute it with the same function.  The
objective is brought to integers when its :class:`LpProblem` is built,
and the bounds when their system is; the outcome memo, the cost row and
the check's value read those forms.
Every value in a row, a bound or an objective must be an ``int`` or a
``Fraction`` (:func:`~procpolar.rational.parts`): anything else, a float
or a bool, is refused with :class:`PreconditionError` when the object
holding it is built.

A solve makes one integer pass into the tableau and one out.  Going in,
each row's integer form is carried to the u-columns in integers: a
column with a lower bound of 0 passes its term through, an upper-bounded
column negates it, and a free column splits it.  A nonzero lower or upper
bound moves ``a*bound`` into the rhs; the row is then multiplied by the
new rhs's denominator and divided by the gcd of its scale and every
entry, which is again the row times the lcm of its denominators, the
scale and the duplicate key above.  The cost row is the objective's
integer form carried the same way, a positive multiple of the
lcm-scaled rewritten objective; Bland's rule reads only its signs, and the
value is taken from the point, so the multiple changes nothing.  A zero
objective builds no cost row.  Coming out, the point is read from the
tableau as ``Fraction`` values built by
:func:`~procpolar.rational.fraction` (as are the ray and the value), a
zero offset or a zero negative side of a free variable costing no
arithmetic, and brought to its integer form ``(nums, D)`` once: the
objective value and the substitution check both read that form.  It is the
form of the point returned, so a point that drifted on its way out still
fails the check, which still reads only the problem and the outcome.
:func:`verify_outcome` derives the same form from an outcome alone, and
reports a missing point, value or ray, or a point or ray that is not one
entry per variable, as a violation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import PostconditionError, PreconditionError
from .rational import (
    MINUS_ONE,
    ONE,
    ZERO,
    dot,
    frac,
    fraction,
    integers,
    less,
    negate,
    parts,
    quotient,
)

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class LinearConstraint:
    """The row ``sum(a * x[j] for j, a in terms) relation rhs``: ``terms``,
    any iterable of ``(column, coefficient)`` pairs, is stored sorted into
    column order, and the integer form drops a zero in it.  A row has no
    width: the :class:`LinearSystem` holding it checks its columns."""

    terms: tuple[tuple[int, Fraction], ...]
    relation: str
    rhs: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise PreconditionError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))
        # the one integer form of the row, kept in the instance dict, out of
        # equality, hashing and repr: see the module docstring
        object.__setattr__(self, "_integer", _integral(self.terms, self.rhs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The nonzero coefficients, in column order."""
        return tuple(a for _, a in self.terms if a)


def _integral(
    terms: Sequence[tuple[int, Fraction]], rhs: Fraction
) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """A row times the lcm of its denominators: nonzero terms, rhs, scale.

    Every value must be an ``int`` or a ``Fraction``; a float or a bool
    is refused here, when the row or objective is built."""
    nums, scale = integers([rhs, *[a for _, a in terms]])
    # a zero has numerator 0, so only the nonzero terms stay
    return tuple([(t[0], v) for t, v in zip(terms, nums[1:]) if v]), nums[0], scale


def _check_columns(terms: Sequence[tuple[int, Fraction]], n: int, owner: str) -> None:
    """The column rule of rows and objectives: in ``0..n-1``, none named twice."""
    if terms and (  # in column order, so the ends bound the columns
        terms[0][0] < 0 or terms[-1][0] >= n or len(dict(terms)) < len(terms)
    ):
        raise PreconditionError(f"{owner}: a column outside 0..{n - 1} or named twice")


def _substitute(terms: Iterable[tuple[int, int]], nums: Sequence[int]) -> int:
    """``sum(a * nums[j])`` over integer ``(column, a)`` terms."""
    total = 0
    for j, a in terms:
        total += a * nums[j]
    return total


def vector(
    num_vars: int, terms: Iterable[tuple[int, Fraction]]
) -> tuple[Fraction, ...]:
    """A dense point or node weights from ``(column, value)`` pairs; a
    repeated column sums its values and every other column is ZERO."""
    out = [ZERO] * num_vars
    for j, a in terms:
        # assign the first value: adding it to ZERO costs a dot
        out[j] = a if out[j] is ZERO else dot(((out[j], ONE), (a, ONE)))
    return tuple(out)


@dataclass(frozen=True)
class LinearSystem:
    """An H-representation: rows plus per-variable bounds (None = unbounded).

    With no variables the only candidate point is the empty one, and the
    system is empty exactly when some row fails there (``0 >= 1``, say).
    """

    num_vars: int
    rows: tuple[LinearConstraint, ...]
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]
    var_names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        n = self.num_vars
        if n < 0:
            raise PreconditionError("a variable count cannot be negative")
        for row in self.rows:
            _check_columns(row.terms, n, f"row {row.label!r}")
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise PreconditionError("bound vectors must match the variable count")
        if self.var_names is not None and len(self.var_names) != self.num_vars:
            raise PreconditionError("var_names must match the variable count")
        # kept like LinearConstraint._integer: each bound as the row x_j * den
        # relation num, lower first; and the outcome memo of _ask
        bounds = []
        for j, (lo, up) in enumerate(zip(self.lower, self.upper)):
            for b, relation in ((lo, GE), (up, LE)):
                if b is not None:
                    bounds.append((j, relation, *parts(b)))
        object.__setattr__(self, "_integer_bounds", tuple(bounds))
        object.__setattr__(self, "_outcomes", {})

    @classmethod
    def make(
        cls,
        num_vars: int,
        rows: Iterable[LinearConstraint] = (),
        lower: Sequence[Optional[Fraction]] | Fraction | int | None = None,
        upper: Sequence[Optional[Fraction]] | Fraction | int | None = None,
        var_names: Sequence[str] | None = None,
    ) -> "LinearSystem":
        """Build a system; scalar ``lower``/``upper`` apply to every variable."""

        def expand(bound) -> tuple[Optional[Fraction], ...]:
            if bound is None:
                return (None,) * num_vars
            scalar = isinstance(bound, (int, str, Fraction))
            if scalar or not isinstance(bound, Iterable):  # frac refuses a float
                return (frac(bound),) * num_vars
            return tuple(None if b is None else frac(b) for b in bound)

        return cls(
            num_vars=num_vars,
            rows=tuple(rows),
            lower=expand(lower),
            upper=expand(upper),
            var_names=None if var_names is None else tuple(var_names),
        )

    def name_of(self, j: int) -> str:
        return self.var_names[j] if self.var_names else f"x{j}"

    def violations(self, point: Sequence[Fraction]) -> tuple[str, ...]:
        """Every violated row label / bound, by exact substitution."""
        return self._violations(*integers(point))

    def _violations(self, nums: Sequence[int], den: int) -> tuple[str, ...]:
        """:meth:`violations` at the point ``nums / den``."""
        if len(nums) != self.num_vars:
            raise PreconditionError("point dimension mismatch")
        out = []
        for i, row in enumerate(self.rows):
            terms, rhs, _ = row._integer
            lhs = 0
            for j, a in terms:
                lhs += a * nums[j]
            rhs *= den
            relation = row.relation
            if (
                lhs > rhs
                if relation == LE
                else lhs < rhs if relation == GE else lhs != rhs
            ):
                out.append(row.label or f"row[{i}]")
        for j, relation, num, bden in self._integer_bounds:
            if relation == GE:
                if nums[j] * bden < num * den:
                    out.append(f"{self.name_of(j)} below lower bound")
            elif nums[j] * bden > num * den:
                out.append(f"{self.name_of(j)} above upper bound")
        return tuple(out)

    def satisfied_by(self, point: Sequence[Fraction]) -> bool:
        return not self.violations(point)

    @cached_property
    def _phase1(self) -> Optional[_Start]:
        """The phase-1 result every solve over this object starts from (see
        :func:`_feasible_start`).  It lives in the instance dict, not in a
        field, so equality, hashing and repr never see it.  It waits for the
        first solve: a system only checked by substitution runs no phase 1."""
        return _feasible_start(self)


_MISSING = object()  # per_owner's miss: a builder may return None


def per_owner(build):
    """Memoise a system builder on the object it is built from.

    The results live in the owner's instance dict, like
    :attr:`LinearSystem._phase1`: equality, hashing and repr never see them,
    and they are freed with the owner.  Arguments after the owner are
    passed positionally and form the key, which a hit hashes once; a builder
    that returns None is built once too."""
    key = f"_memo_{build.__name__}"

    @wraps(build)
    def memoised(owner, *args):
        memo = owner.__dict__.setdefault(key, {})
        out = memo.get(args, _MISSING)
        if out is _MISSING:
            out = memo[args] = build(owner, *args)
        return out

    return memoised


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpProblem:
    sense: str  # "max" | "min"
    terms: tuple[tuple[int, Fraction], ...]  # the objective, stored like a row's
    system: LinearSystem

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise PreconditionError(f"sense must be max or min, got {self.sense!r}")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))
        _check_columns(self.terms, self.system.num_vars, "objective")
        # its nonzero integer terms and their lcm, kept like a row's _integer
        terms, _, scale = _integral(self.terms, ZERO)
        object.__setattr__(self, "_integer_objective", (terms, scale))

    @property
    def objective(self) -> tuple[Fraction, ...]:
        """The nonzero coefficients, in column order."""
        return tuple(a for _, a in self.terms if a)


@dataclass(frozen=True)
class LpOutcome:
    """Status plus exact certificates.

    OPTIMAL carries the value and an optimal point; UNBOUNDED carries a
    feasible point and an improving ray (point + t*ray stays feasible for
    every t >= 0 and strictly improves the objective); INFEASIBLE carries
    nothing.
    """

    status: LpStatus
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None


def _ask(problem: LpProblem) -> LpOutcome:
    """The outcome of ``problem``, solved once per system object.

    The memo lives on the system, keyed by the sense and the integer form
    of the objective, which :func:`solve` reuses on a miss; a solve that
    raises stores nothing.  Every entry point below asks through here."""
    memo = problem.system._outcomes
    key = (problem.sense, problem._integer_objective)
    outcome = memo.get(key)
    if outcome is None:
        outcome = memo[key] = solve(problem)
    return outcome


def maximize(
    system: LinearSystem, objective: Iterable[tuple[int, int | str | Fraction]]
) -> LpOutcome:
    return _ask(LpProblem("max", tuple((j, frac(c)) for j, c in objective), system))


def minimize(
    system: LinearSystem, objective: Iterable[tuple[int, int | str | Fraction]]
) -> LpOutcome:
    return _ask(LpProblem("min", tuple((j, frac(c)) for j, c in objective), system))


def feasible_point(system: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """A point of ``system``, or None when it is empty: the minimum of a
    zero objective, whose optimum is the vertex phase 1 ends at."""
    return _ask(LpProblem("min", (), system)).point


def exceeding_point(
    system: LinearSystem,
    objective: Iterable[tuple[int, int | str | Fraction]],
    bound: int | str | Fraction,
) -> Optional[tuple[Fraction, ...]]:
    """A point of ``system`` at which the terms ``objective`` exceed
    ``bound``, or None when their maximum over ``system`` is at most ``bound``.

    An unbounded maximum answers with the point one step along the
    improving ray, or further along it, where the objective reaches
    ``bound + 1``.  An empty system has no maximum and raises.
    """
    problem = LpProblem("max", tuple((j, frac(c)) for j, c in objective), system)
    bound = frac(bound)
    out = _ask(problem)
    if out.status is LpStatus.INFEASIBLE:
        raise PreconditionError("an exceeding point needs a nonempty system")
    assert out.point is not None
    if out.status is LpStatus.UNBOUNDED:
        assert out.ray is not None
        gain = dot((c, out.ray[j]) for j, c in problem.terms)
        current = dot((c, out.point[j]) for j, c in problem.terms)
        gap = dot(((bound, ONE), (current, MINUS_ONE)))  # bound - current
        step = ONE if gain > gap else quotient(dot(((gap, ONE), (ONE, ONE))), gain)
        return tuple(dot(((p, ONE), (step, r))) for p, r in zip(out.point, out.ray))
    assert out.value is not None
    return out.point if less(bound, out.value) else None


def verify_outcome(problem: LpProblem, outcome: LpOutcome) -> tuple[str, ...]:
    """Exact substitution check of an outcome's certificates.

    Every comparison is in integers: the point (or ray) over one common
    denominator against each row, bound and the objective scaled by the lcm
    of their own denominators.  It reads the problem alone, never the
    tableau the solver ended at.  A missing certificate, or a point or ray
    of the wrong length, is reported, not raised.
    """
    if outcome.status is LpStatus.INFEASIBLE:
        return ()
    if outcome.point is None:
        return (f"{outcome.status.value} outcome without a point",)
    n = problem.system.num_vars
    if len(outcome.point) != n:
        return (f"point has {len(outcome.point)} entries, system has {n}",)
    return _verify(problem, outcome, *integers(outcome.point))


def _verify(
    problem: LpProblem, outcome: LpOutcome, nums: Sequence[int], den: int
) -> tuple[str, ...]:
    """:func:`verify_outcome` of an outcome whose point is ``nums / den``."""
    sys_ = problem.system
    bad = list(sys_._violations(nums, den))
    obj, scale = problem._integer_objective
    if outcome.status is LpStatus.OPTIMAL:
        # value == c.x, both sides times scale * den and the value's denominator
        if outcome.value is None:
            bad.append("optimal outcome without a value")
            return tuple(bad)
        num, vden = parts(outcome.value)
        if num * scale * den != _substitute(obj, nums) * vden:
            bad.append("reported value differs from objective at the point")
        return tuple(bad)
    # unbounded: the ray must keep every constraint and improve the objective
    if outcome.ray is None:
        bad.append("unbounded outcome without a ray")
        return tuple(bad)
    if len(outcome.ray) != sys_.num_vars:
        bad.append(f"ray has {len(outcome.ray)} entries, system has {sys_.num_vars}")
        return tuple(bad)
    ray, _ = integers(outcome.ray)
    # over a denominator of 0 every rhs and bound is 0: the ray's condition
    bad += (f"ray escapes {v}" for v in sys_._violations(ray, 0))
    gain = _substitute(obj, ray)
    if problem.sense == "max" and gain <= 0:
        bad.append("ray does not increase the objective")
    if problem.sense == "min" and gain >= 0:
        bad.append("ray does not decrease the objective")
    return tuple(bad)


# ---------------------------------------------------------------------------
# Simplex internals
# ---------------------------------------------------------------------------

# transforms from original variables to standard-form columns
_PLAIN = "plain"  # x = u, a lower bound of 0 (aux None)
_SHIFT = "shift"  # x = L + u, L nonzero
_MIRROR = "mirror"  # x = U - u
_SPLIT = "split"  # x = u+ - u-


class _Standard:
    """A u = b, u >= 0 in integers, plus the map back to original vars;
    :meth:`cost` gives the c of min c.u for an objective.

    Row i is the rewritten rational row times ``scale[i]``, the lcm of its
    denominators, except that its slack entry stays +-1: the slack column is
    the row-scaled one divided by ``scale[i]``.  ``rows`` hold the dense
    integer coefficients with the rhs appended.  Each row is built from the
    integer form its :class:`LinearConstraint` caches for the substitution
    check (see :meth:`_rewrite`), never from its ``Fraction`` coefficients.
    """

    def __init__(self, sys_: LinearSystem):
        self.transforms: list[tuple] = []
        widths = []  # u_j <= up - lo, times the denominator of up - lo
        ncols = 0
        # each bound has passed parts, so frac makes an int bound a Fraction
        for lo, up in zip(sys_.lower, sys_.upper):
            if lo is not None:
                lo = frac(lo)
                if up is not None:
                    if up < lo:
                        raise _InfeasibleBounds()
                    num, den = parts(dot(((frac(up), ONE), (lo, MINUS_ONE))))
                    widths.append((((ncols, den),), num, den, LE))
                # a plain column keeps None, which _rewrite's `if aux` skips
                # without a Fraction truth test per term
                self.transforms.append(
                    (_SHIFT, ncols, lo) if lo else (_PLAIN, ncols, None)
                )
                ncols += 1
            elif up is not None:
                self.transforms.append((_MIRROR, ncols, frac(up)))
                ncols += 1
            else:
                self.transforms.append((_SPLIT, ncols, ncols + 1))
                ncols += 2

        # rewrite rows over the u-columns; fold bound rows for shifted uppers
        rows: list[tuple[tuple[tuple[int, int], ...], int, int, str]] = []
        seen: set[tuple] = set()
        for row in sys_.rows:
            # the scale is in the key: (1/2, 1/2) <= 1/2 and (1, 1) <= 1
            # are two rows of the rational system
            key = (*self._rewrite(*row._integer), row.relation)
            if key in seen:
                continue  # duplicate constraint: the one presolve step
            seen.add(key)
            rows.append(key)
        rows += widths

        slack_cols = sum(1 for *_, rel in rows if rel != EQ)
        total = ncols + slack_cols

        # slack columns; normalize rhs >= 0; choose initial basis columns
        self.rows: list[list[int]] = []
        self.scale: list[int] = []
        self.basis_hint: list[Optional[int]] = []
        # the slack of a row scaled by L is L times the rational system's, so
        # a ray entering on it is the rational one divided by L: ray_scale
        # holds L for each slack column and 1 for the others
        self.ray_scale = [1] * total
        s = ncols
        for terms, rhs, scale, rel in rows:
            arow = [0] * (total + 1)
            for col, a in terms:
                arow[col] = a
            arow[-1] = rhs
            if rel == LE:
                arow[s] = 1
            elif rel == GE:
                arow[s] = -1
            if rhs < 0:
                arow = [-x for x in arow]
            hint: Optional[int] = None
            if rel != EQ:
                if arow[s] == 1:
                    hint = s
                self.ray_scale[s] = scale
                s += 1
            self.rows.append(arow)
            self.scale.append(scale)
            self.basis_hint.append(hint)
        self.ncols_total = total

    def cost(self, problem: LpProblem) -> list[int]:
        """An integer cost row of ``problem``'s objective, to be minimized.

        It is the objective's integer form carried to the u-columns, a
        positive multiple of the lcm-scaled rewritten objective: Bland's rule
        reads only the signs of the reduced costs, and the value is taken
        from the point, so the multiple changes neither the pivots nor the
        outcome."""
        sign = -1 if problem.sense == "max" else 1
        out = [0] * self.ncols_total
        for j, c in problem._integer_objective[0]:
            kind, col, aux = self.transforms[j]
            if kind == _MIRROR:
                out[col] = -sign * c
            else:
                out[col] = sign * c
                if kind == _SPLIT:
                    out[aux] = -sign * c
        return out

    def _rewrite(
        self, terms: Sequence[tuple[int, int]], rhs: int, scale: int
    ) -> tuple[tuple[tuple[int, int], ...], int, int]:
        """A row's integer form carried to the u-columns: its nonzero
        ``(u-column, value)`` terms in column order, its rhs less the shift
        of the transforms, and its scale, all as the rewritten rational row
        times the lcm of its denominators.

        A lower bound of 0 passes a term through, an upper bound negates it
        and a free column splits it.  A nonzero shift ``a*lo`` moves into
        the rhs, summed as an integer over the lcm of the bounds'
        denominators; when it does, the row is multiplied by that lcm and
        divided by the gcd of its scale and every entry, which gives the
        lcm-scaled row again."""
        out: list[tuple[int, int]] = []
        shifts: list[tuple[int, Fraction]] = []  # (a, aux) of each nonzero a * aux
        for j, a in terms:
            kind, col, aux = self.transforms[j]
            if kind == _SPLIT:
                out.append((col, a))
                out.append((aux, -a))
                continue
            out.append((col, -a if kind == _MIRROR else a))
            if aux:
                shifts.append((a, aux))
        if not shifts:
            return tuple(out), rhs, scale
        nums, den = integers([b for _, b in shifts])  # the shift is shift / den
        shift = sum(a * n for (a, _), n in zip(shifts, nums))
        if not shift:
            return tuple(out), rhs, scale
        num = rhs * den - shift  # the new rhs times den
        g = gcd(den * gcd(scale, *(a for _, a in out)), num)
        return (
            tuple((col, a * den // g) for col, a in out),
            num // g,
            scale * den // g,
        )

    def to_original_point(self, u: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The original point of ``u``; a zero offset or a zero negative
        side of a split column costs no arithmetic."""
        out = []
        for kind, col, aux in self.transforms:
            x = u[col]
            if kind == _PLAIN:
                out.append(x)
            elif kind == _SHIFT:
                out.append(dot(((aux, ONE), (x, ONE))))
            elif kind == _MIRROR:
                out.append(dot(((aux, ONE), (x, MINUS_ONE))))
            else:
                neg = u[aux]
                out.append(dot(((x, ONE), (neg, MINUS_ONE))) if neg else x)
        return tuple(out)

    def to_original_ray(self, du: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for kind, col, aux in self.transforms:
            if kind == _MIRROR:
                out.append(negate(du[col]))
            elif kind == _SPLIT:
                out.append(dot(((du[col], ONE), (du[aux], MINUS_ONE))))
            else:  # a shift, by 0 or not
                out.append(du[col])
        return tuple(out)


# a standard form, its integer tableau at a feasible basis, the basis, and d
_Start = tuple[_Standard, list[list[int]], list[int], int]


class _InfeasibleBounds(Exception):
    pass


def _pivot(tab: list[list[int]], cost: list[int], d: int, r: int, c: int) -> int:
    """Pivot the tableau ``tab / d`` on (r, c); return the new denominator.

    Fraction-free (Bareiss): with ``p = tab[r][c]``, every other row, the
    cost row included, becomes ``(row*p - row[c]*tab[r]) / d`` and ``p`` is
    the new denominator.  Every entry is then, up to sign, a minor of the
    starting tableau, so each division is exact; a remainder is a defect
    and raises.  Each changed row of ``tab`` is replaced by a new list, never
    written in place, so a shallow copy of ``tab`` keeps the original
    tableau intact; the cost row is written in place.
    """
    prow = tab[r]
    p = prow[c]
    if p < 0:  # only when driving out an artificial; keeps d > 0
        prow = tab[r] = [-w for w in prow]
        p = -p
    psum = sum(prow) if d != 1 else 0
    m = len(tab)
    for i, row in enumerate((*tab, cost)):
        if i == r:
            continue
        f = row[c]
        if f:
            if d == 1:
                new = [v * p - f * w for v, w in zip(row, prow)]
            else:
                new = [(v * p - f * w) // d for v, w in zip(row, prow)]
                # floor remainders lie in [0, d): the sums of the exact and
                # the floored rows agree only if every remainder is 0
                if p * sum(row) - f * psum != d * sum(new):
                    raise PostconditionError("inexact division in an integer pivot")
        elif p == d:
            continue
        elif d == 1:
            new = [v * p for v in row]
        else:
            new = [v * p // d for v in row]
            if p * sum(row) != d * sum(new):
                raise PostconditionError("inexact division in an integer pivot")
        if i < m:
            tab[i] = new
        else:
            row[:] = new
    return p


def _iterate(
    tab: list[list[int]],
    cost: list[int],
    basis: list[int],
    allowed: int,
    d: int,
) -> tuple[int, Optional[int]]:
    """Run Bland-rule simplex to optimality; return the denominator and, on
    unboundedness, the entering column (else None)."""
    guard = 10000 * (len(tab) + allowed + 1)
    for _ in range(guard):
        enter = -1
        for j in range(allowed):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return d, None
        # ratio test on rhs/a without dividing: the row scale d cancels
        leave = -1
        best_rhs = best_a = 0
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, best_rhs, best_a = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, row[-1], a
        if leave < 0:
            return d, enter
        d = _pivot(tab, cost, d, leave, enter)
        basis[leave] = enter
    raise PostconditionError("simplex failed to terminate (anti-cycling defect)")


def _feasible_start(system: LinearSystem) -> Optional[_Start]:
    """Phase 1: a feasible basis of the standard form, or None if the
    system is infeasible.

    Returns the standard form, the integer tableau after phase 1 and the
    drive-out of the artificials, its basis and its denominator.  Nothing
    here reads an objective.
    """
    try:
        std = _Standard(system)
    except _InfeasibleBounds:
        return None

    total = std.ncols_total
    tab = std.rows
    m = len(tab)
    d = 1
    basis: list[int] = []
    art_rows: list[int] = []
    for i in range(m):
        hint = std.basis_hint[i]
        if hint is None:
            basis.append(total + len(art_rows))
            art_rows.append(i)
        else:
            basis.append(hint)
    if art_rows:
        # phase 1: minimize the sum of the rational system's artificials.  The
        # artificial of a row scaled by L stands for L of them, so it costs
        # big // L with big the lcm of the scales.  Its reduced costs are
        # minus the weighted sum of the artificial rows, and 0 on the
        # artificials themselves, which are basic
        big = lcm(*(std.scale[i] for i in art_rows))
        cost1 = [0] * (total + 1)
        for i in art_rows:
            w = big // std.scale[i]
            for j, v in enumerate(tab[i]):
                if v:
                    cost1[j] -= w * v
        n_art = len(art_rows)
        cost1[total:total] = [0] * n_art
        for i, row in enumerate(tab):
            ext = [0] * n_art
            if basis[i] >= total:
                ext[basis[i] - total] = 1
            row[-1:-1] = ext
        d, overflow = _iterate(tab, cost1, basis, total + n_art, d)
        if overflow is not None:
            raise PostconditionError("phase-1 objective cannot be unbounded")
        if cost1[-1] != 0:
            return None
        # drive lingering artificials out of the basis or drop their rows
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= total:
                piv_col = next((j for j in range(total) if tab[i][j] != 0), None)
                if piv_col is None:
                    drop.append(i)
                else:
                    d = _pivot(tab, cost1, d, i, piv_col)
                    basis[i] = piv_col
        for i in reversed(drop):
            del tab[i]
            del basis[i]
        for row in tab:
            del row[total:-1]
    return std, tab, basis, d


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; the returned certificates are substitution-checked.

    Deterministic: Bland's rule with lowest-index tie-breaking throughout.
    An all-zero objective is legal and reduces to a feasibility check.
    Phase 1 runs once per :class:`LinearSystem` object; each solve runs
    phase 2 on a shallow copy of its result, and a zero objective reads the
    phase-1 vertex without running phase 2.
    """
    start = problem.system._phase1
    if start is None:
        return LpOutcome(LpStatus.INFEASIBLE)
    std, tab, basis, d = start
    total = std.ncols_total
    obj = problem._integer_objective[0]

    # phase 2 from the cached phase-1 result.  A zero objective has every
    # reduced cost 0, so its optimum is the vertex phase 1 ended at: it reads
    # the cached tableau as it is.  Otherwise the reduced costs times d are
    # built in one pass over the basic rows, and _pivot, which replaces rows
    # rather than writing them, runs over a shallow copy of the tableau
    enter = None
    if obj:
        c = std.cost(problem)
        cost = [d * v for v in c]
        cost.append(0)
        for i, row in enumerate(tab):
            f = c[basis[i]]
            if f:
                for j, v in enumerate(row):
                    if v:
                        cost[j] -= f * v
        tab, basis = tab[:], basis[:]
        d, enter = _iterate(tab, cost, basis, total, d)

    u = [ZERO] * total
    for i, row in enumerate(tab):
        if row[-1]:
            u[basis[i]] = fraction(row[-1], d)
    point = std.to_original_point(u)
    # the one integer form of the point: the value and the check share it
    nums, den = integers(point)

    if enter is not None:
        step = std.ray_scale[enter]
        du = [ZERO] * total
        du[enter] = ONE
        for i, row in enumerate(tab):
            du[basis[i]] = fraction(-row[enter] * step, d)
        ray = std.to_original_ray(du)
        outcome = LpOutcome(LpStatus.UNBOUNDED, point=point, ray=ray)
    else:
        scale = problem._integer_objective[1]
        value = fraction(_substitute(obj, nums), scale * den)
        outcome = LpOutcome(LpStatus.OPTIMAL, value=value, point=point)

    bad = _verify(problem, outcome, nums, den)
    if bad:
        raise PostconditionError(f"simplex returned an invalid certificate: {bad}")
    return outcome


def feasible_interior_point(system: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """A feasible point strictly positive in every column, or None.

    Adds an auxiliary slack eps with x_j >= eps on every column: an
    interior point exists iff eps can exceed 0, and the point at which
    :func:`exceeding_point` finds it so is one.  A system without columns
    has the empty point when it is feasible, since eps is then unbounded.
    """
    n = system.num_vars
    # the rows go through as they are: their terms never name column n
    rows = system.rows + tuple(
        LinearConstraint(((j, ONE), (n, MINUS_ONE)), GE, ZERO, f"strict[{j}]")
        for j in range(n)
    )
    ext = LinearSystem(n + 1, rows, system.lower + (None,), system.upper + (None,))
    # eps is free, so ext is empty exactly when system is
    if ext._phase1 is None:
        return None
    point = exceeding_point(ext, ((n, ONE),), ZERO)
    if point is None:
        return None
    inner = point[:n]
    if not system.satisfied_by(inner) or any(v <= 0 for v in inner):
        raise PostconditionError("interior-point search produced a bad point")
    return inner
