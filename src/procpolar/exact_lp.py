"""Exact rational linear programming.

A small two-phase simplex over ``fractions.Fraction`` with Bland's rule.
Instances here are desk-scale (at most a few hundred variables), so
exactness and determinism beat speed: identical inputs always produce the
identical outcome, every reported point or ray is re-verified by exact
substitution before it is returned, and there is no presolve beyond
dropping duplicate constraint rows.

Variable bounds are first-class: nonnegativity is expressed as a lower
bound of 0 rather than an explicit row, which keeps the tableaus small.
:meth:`LinearSystem.violations` checks rows and bounds alike, so a system
"includes" its bounds for every membership purpose.

Rows and objectives are built with :func:`vector` from ``(column, value)``
pairs and stored dense.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import PostconditionError, PreconditionError
from .rational import frac

ZERO = Fraction(0)
ONE = Fraction(1)

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction
    label: str = ""

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise PreconditionError(f"unknown relation {self.relation!r}")

    def holds_at(self, point: Sequence[Fraction]) -> bool:
        lhs = _dot(self.coeffs, point)
        if self.relation == LE:
            return lhs <= self.rhs
        if self.relation == GE:
            return lhs >= self.rhs
        return lhs == self.rhs


def _dot(coeffs: Sequence[Fraction], point: Sequence[Fraction]) -> Fraction:
    total = ZERO
    for a, x in zip(coeffs, point):
        if a:
            total += a * x
    return total


def vector(
    num_vars: int, terms: Iterable[tuple[int, Fraction]]
) -> tuple[Fraction, ...]:
    """Dense coefficients from ``(column, value)`` pairs; a repeated column
    sums its values and every other column is ZERO."""
    out = [ZERO] * num_vars
    for j, a in terms:
        # assign the first value: adding it to ZERO costs a Fraction addition
        out[j] = a if out[j] is ZERO else out[j] + a
    return tuple(out)


def constraint(
    coeffs: Sequence[int | str | Fraction],
    relation: str,
    rhs: int | str | Fraction,
    label: str = "",
) -> LinearConstraint:
    return LinearConstraint(
        tuple(frac(a) for a in coeffs), relation, frac(rhs), label
    )


@dataclass(frozen=True)
class LinearSystem:
    """An H-representation: rows plus per-variable bounds (None = unbounded)."""

    num_vars: int
    rows: tuple[LinearConstraint, ...]
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]
    var_names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise PreconditionError("a system needs at least one variable")
        for row in self.rows:
            if len(row.coeffs) != self.num_vars:
                raise PreconditionError(
                    f"row {row.label!r} has {len(row.coeffs)} coefficients, "
                    f"expected {self.num_vars}"
                )
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise PreconditionError("bound vectors must match the variable count")
        if self.var_names is not None and len(self.var_names) != self.num_vars:
            raise PreconditionError("var_names must match the variable count")

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
            if isinstance(bound, (int, str, Fraction)):
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
        if len(point) != self.num_vars:
            raise PreconditionError("point dimension mismatch")
        out: list[str] = []
        for i, row in enumerate(self.rows):
            if not row.holds_at(point):
                out.append(row.label or f"row[{i}]")
        for j in range(self.num_vars):
            if self.lower[j] is not None and point[j] < self.lower[j]:
                out.append(f"{self.name_of(j)} below lower bound")
            if self.upper[j] is not None and point[j] > self.upper[j]:
                out.append(f"{self.name_of(j)} above upper bound")
        return tuple(out)

    def satisfied_by(self, point: Sequence[Fraction]) -> bool:
        return not self.violations(point)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpProblem:
    sense: str  # "max" | "min"
    objective: tuple[Fraction, ...]
    system: LinearSystem

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise PreconditionError(f"sense must be max or min, got {self.sense!r}")
        if len(self.objective) != self.system.num_vars:
            raise PreconditionError("objective dimension mismatch")


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


def maximize(
    system: LinearSystem, objective: Sequence[int | str | Fraction]
) -> LpOutcome:
    return solve(LpProblem("max", tuple(frac(c) for c in objective), system))


def minimize(
    system: LinearSystem, objective: Sequence[int | str | Fraction]
) -> LpOutcome:
    return solve(LpProblem("min", tuple(frac(c) for c in objective), system))


def verify_outcome(problem: LpProblem, outcome: LpOutcome) -> tuple[str, ...]:
    """Exact substitution check of an outcome's certificates."""
    sys_ = problem.system
    bad: list[str] = []
    if outcome.status is LpStatus.INFEASIBLE:
        return ()
    assert outcome.point is not None
    bad.extend(sys_.violations(outcome.point))
    if outcome.status is LpStatus.OPTIMAL:
        if outcome.value != _dot(problem.objective, outcome.point):
            bad.append("reported value differs from objective at the point")
        return tuple(bad)
    # unbounded: the ray must keep every constraint and improve the objective
    assert outcome.ray is not None
    ray = outcome.ray
    for i, row in enumerate(sys_.rows):
        drift = _dot(row.coeffs, ray)
        ok = (
            drift <= 0
            if row.relation == LE
            else drift >= 0 if row.relation == GE else drift == 0
        )
        if not ok:
            bad.append(f"ray escapes {row.label or f'row[{i}]'}")
    for j in range(sys_.num_vars):
        if sys_.lower[j] is not None and ray[j] < 0:
            bad.append(f"ray exits lower bound of {sys_.name_of(j)}")
        if sys_.upper[j] is not None and ray[j] > 0:
            bad.append(f"ray exits upper bound of {sys_.name_of(j)}")
    gain = _dot(problem.objective, ray)
    if problem.sense == "max" and gain <= 0:
        bad.append("ray does not increase the objective")
    if problem.sense == "min" and gain >= 0:
        bad.append("ray does not decrease the objective")
    return tuple(bad)


# ---------------------------------------------------------------------------
# Simplex internals
# ---------------------------------------------------------------------------

# transforms from original variables to standard-form columns
_SHIFT = "shift"  # x = L + u
_MIRROR = "mirror"  # x = U - u
_SPLIT = "split"  # x = u+ - u-


class _Standard:
    """min c.u  s.t.  A u = b, u >= 0, plus the map back to original vars."""

    def __init__(self, problem: LpProblem):
        sys_ = problem.system
        n = sys_.num_vars
        self.transforms: list[tuple] = []
        ncols = 0
        for j in range(n):
            lo, up = sys_.lower[j], sys_.upper[j]
            if lo is not None:
                if up is not None and up < lo:
                    raise _InfeasibleBounds()
                self.transforms.append((_SHIFT, ncols, lo))
                ncols += 1
            elif up is not None:
                self.transforms.append((_MIRROR, ncols, up))
                ncols += 1
            else:
                self.transforms.append((_SPLIT, ncols, ncols + 1))
                ncols += 2

        # rewrite rows over the u-columns; fold bound rows for shifted uppers
        rows: list[tuple[list[Fraction], str, Fraction]] = []
        seen: set[tuple] = set()
        for row in sys_.rows:
            coeffs, rhs = self._rewrite(row.coeffs, row.rhs, ncols)
            key = (tuple(coeffs), row.relation, rhs)
            if key in seen:
                continue  # duplicate constraint: the one presolve step
            seen.add(key)
            rows.append((coeffs, row.relation, rhs))
        for j in range(n):
            lo, up = sys_.lower[j], sys_.upper[j]
            if lo is not None and up is not None:
                col = self.transforms[j][1]
                rows.append((list(vector(ncols, ((col, ONE),))), LE, up - lo))

        obj, _ = self._rewrite(problem.objective, ZERO, ncols)
        self.obj_sign = -1 if problem.sense == "max" else 1
        self.cost = [self.obj_sign * c for c in obj]

        # slack columns; normalize rhs >= 0; choose initial basis columns
        self.a: list[list[Fraction]] = []
        self.b: list[Fraction] = []
        self.basis_hint: list[Optional[int]] = []
        slack_cols = sum(1 for _, rel, _ in rows if rel != EQ)
        total = ncols + slack_cols
        s = ncols
        for coeffs, rel, rhs in rows:
            arow = coeffs + [ZERO] * slack_cols
            if rel == LE:
                arow[s] = ONE
            elif rel == GE:
                arow[s] = -ONE
            flip = rhs < 0
            if flip:
                arow = [-x for x in arow]
                rhs = -rhs
            hint: Optional[int] = None
            if rel != EQ and arow[s] == ONE:
                hint = s
            if rel != EQ:
                s += 1
            self.a.append(arow)
            self.b.append(rhs)
            self.basis_hint.append(hint)
        self.ncols_orig = ncols
        self.ncols_total = total
        self.cost += [ZERO] * slack_cols

    def _rewrite(
        self, coeffs: Sequence[Fraction], rhs: Fraction, ncols: int
    ) -> tuple[list[Fraction], Fraction]:
        out = [ZERO] * ncols
        shift = ZERO
        for j, c in enumerate(coeffs):
            if not c:
                continue
            kind, col, aux = self.transforms[j]
            if kind == _SHIFT:
                out[col] += c
                shift += c * aux
            elif kind == _MIRROR:
                out[col] -= c
                shift += c * aux
            else:
                out[col] += c
                out[aux] -= c
        return out, rhs - shift

    def to_original_point(self, u: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for kind, col, aux in self.transforms:
            if kind == _SHIFT:
                out.append(aux + u[col])
            elif kind == _MIRROR:
                out.append(aux - u[col])
            else:
                out.append(u[col] - u[aux])
        return tuple(out)

    def to_original_ray(self, du: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for kind, col, aux in self.transforms:
            if kind == _SHIFT:
                out.append(du[col])
            elif kind == _MIRROR:
                out.append(-du[col])
            else:
                out.append(du[col] - du[aux])
        return tuple(out)


class _InfeasibleBounds(Exception):
    pass


def _pivot(tab: list[list[Fraction]], cost: list[Fraction], r: int, c: int) -> None:
    prow = tab[r]
    piv = prow[c]
    if piv != 1:
        inv = ONE / piv
        tab[r] = prow = [x * inv for x in prow]
    for row in tab:
        if row is prow:
            continue
        f = row[c]
        if f:
            for k, v in enumerate(prow):
                if v:
                    row[k] -= f * v
    f = cost[c]
    if f:
        for k, v in enumerate(prow):
            if v:
                cost[k] -= f * v


def _iterate(
    tab: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    allowed: int,
) -> Optional[int]:
    """Run Bland-rule simplex to optimality; return an entering column on
    unboundedness, else None."""
    guard = 10000 * (len(tab) + allowed + 1)
    for _ in range(guard):
        enter = -1
        for j in range(allowed):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return None
        leave = -1
        best: Optional[Fraction] = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return enter
        _pivot(tab, cost, leave, enter)
        basis[leave] = enter
    raise PostconditionError("simplex failed to terminate (anti-cycling defect)")


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; the returned certificates are substitution-checked.

    Deterministic: Bland's rule with lowest-index tie-breaking throughout.
    An all-zero objective is legal and reduces to a feasibility check.
    """
    try:
        std = _Standard(problem)
    except _InfeasibleBounds:
        return LpOutcome(LpStatus.INFEASIBLE)

    m = len(std.a)
    total = std.ncols_total
    tab = [row[:] + [rhs] for row, rhs in zip(std.a, std.b)]
    basis: list[int] = []
    art_cols: list[int] = []
    for i in range(m):
        hint = std.basis_hint[i]
        if hint is None:
            art_cols.append(total + len(art_cols))
            basis.append(art_cols[-1])
        else:
            basis.append(hint)
    if art_cols:
        for i, row in enumerate(tab):
            ext = [ZERO] * len(art_cols)
            if basis[i] >= total:
                ext[basis[i] - total] = ONE
            row[-1:-1] = ext
        # phase 1: minimize the sum of artificials
        cost1 = [ZERO] * (total + len(art_cols) + 1)
        for c in range(total, total + len(art_cols)):
            cost1[c] = ONE
        for i, row in enumerate(tab):
            if basis[i] >= total:
                for k, v in enumerate(row):
                    if v:
                        cost1[k] -= v
        overflow = _iterate(tab, cost1, basis, total + len(art_cols))
        if overflow is not None:
            raise PostconditionError("phase-1 objective cannot be unbounded")
        if -cost1[-1] != 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        # drive lingering artificials out of the basis or drop their rows
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= total:
                piv_col = next(
                    (j for j in range(total) if tab[i][j] != 0), None
                )
                if piv_col is None:
                    drop.append(i)
                else:
                    _pivot(tab, cost1, i, piv_col)
                    basis[i] = piv_col
        for i in reversed(drop):
            del tab[i]
            del basis[i]
        for row in tab:
            del row[total:-1]

    # phase 2
    cost = std.cost[:] + [ZERO]
    for i, row in enumerate(tab):
        f = cost[basis[i]]
        if f:
            for k, v in enumerate(row):
                if v:
                    cost[k] -= f * v
    enter = _iterate(tab, cost, basis, total)

    u = [ZERO] * total
    for i, row in enumerate(tab):
        u[basis[i]] = row[-1]
    point = std.to_original_point(u)

    if enter is not None:
        du = [ZERO] * total
        du[enter] = ONE
        for i, row in enumerate(tab):
            du[basis[i]] = -row[enter]
        ray = std.to_original_ray(du)
        outcome = LpOutcome(LpStatus.UNBOUNDED, point=point, ray=ray)
    else:
        value = _dot(problem.objective, point)
        outcome = LpOutcome(LpStatus.OPTIMAL, value=value, point=point)

    bad = verify_outcome(problem, outcome)
    if bad:
        raise PostconditionError(f"simplex returned an invalid certificate: {bad}")
    return outcome


def feasible_interior_point(
    system: LinearSystem, strict_vars: Iterable[int]
) -> Optional[tuple[Fraction, ...]]:
    """A feasible point strictly positive on ``strict_vars``, or None.

    Maximizes an auxiliary slack eps subject to x_j >= eps on the strict
    variables; an interior point exists iff the optimum eps is positive
    (an unbounded eps also certifies one).
    """
    strict = sorted(set(strict_vars))
    if any(j < 0 or j >= system.num_vars for j in strict):
        raise PreconditionError("strict variable index out of range")
    if not strict:
        out = minimize(system, [0] * system.num_vars)
        return out.point if out.status is not LpStatus.INFEASIBLE else None

    n = system.num_vars
    rows = [
        LinearConstraint(row.coeffs + (ZERO,), row.relation, row.rhs, row.label)
        for row in system.rows
    ]
    for j in strict:
        coeffs = vector(n + 1, ((j, ONE), (n, -ONE)))
        rows.append(LinearConstraint(coeffs, GE, ZERO, f"strict[{j}]"))
    ext = LinearSystem(
        num_vars=n + 1,
        rows=tuple(rows),
        lower=system.lower + (None,),
        upper=system.upper + (None,),
    )
    out = maximize(ext, vector(n + 1, ((n, ONE),)))
    if out.status is LpStatus.INFEASIBLE:
        return None
    if out.status is LpStatus.UNBOUNDED:
        assert out.point is not None and out.ray is not None
        gain = out.ray[n]
        steps = max(ZERO, (ONE - out.point[n]) / gain)
        point = tuple(p + steps * r for p, r in zip(out.point, out.ray))
    else:
        assert out.value is not None and out.point is not None
        if out.value <= 0:
            return None
        point = out.point
    inner = point[:n]
    if not system.satisfied_by(inner) or any(inner[j] <= 0 for j in strict):
        raise PostconditionError("interior-point search produced a bad point")
    return inner
