import hashlib
import random
from dataclasses import fields, replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procpolar import exact_lp
from procpolar.errors import PostconditionError, PreconditionError, RationalFormatError
from procpolar.fuzz import (
    ConditionalFuzzConfig,
    MarketFuzzConfig,
    PolarClosureConfig,
    ProcessFuzzConfig,
    run_conditional_suite,
    run_market_suite,
    run_polar_closure_suite,
    run_process_suite,
)
from procpolar.exact_lp import (
    EQ,
    GE,
    LE,
    LinearConstraint,
    LinearSystem,
    LpOutcome,
    LpProblem,
    LpStatus,
    exceeding_point,
    feasible_interior_point,
    feasible_point,
    maximize,
    minimize,
    solve,
    vector,
    verify_outcome,
)


def constraint(coeffs, relation: str, rhs, label: str = "") -> LinearConstraint:
    """A row from dense coefficients, ``coeffs[j]`` in column ``j``; the
    columns past ``coeffs`` have coefficient 0."""
    terms = [(j, F(a)) for j, a in enumerate(coeffs) if a]
    return LinearConstraint(terms, relation, F(rhs), label)


def test_single_cap():
    system = LinearSystem.make(1, [constraint([1], LE, 1)], lower=0)
    out = maximize(system, [(0, 1)])
    assert out.status is LpStatus.OPTIMAL and out.value == 1


def test_free_ray_unbounded():
    system = LinearSystem.make(1, [], lower=0)
    out = maximize(system, [(0, 1)])
    assert out.status is LpStatus.UNBOUNDED
    assert out.ray == (F(1),)


def test_three_point_measure():
    # eliminate two variables via the equalities and scan the interval
    system = LinearSystem.make(
        3,
        [constraint([8, 4, 2], "=", 4), constraint([1, 1, 1], "=", 1)],
        lower=0,
    )
    out = maximize(system, [(0, 3), (1, 0), (2, 0)])
    assert out.status is LpStatus.OPTIMAL
    assert out.value == 1
    assert out.point == (F(1, 3), F(0), F(2, 3))


def test_infeasible():
    system = LinearSystem.make(1, [constraint([1], LE, -1)], lower=0)
    assert minimize(system, [(0, 0)]).status is LpStatus.INFEASIBLE


def test_zero_objective_is_feasibility():
    system = LinearSystem.make(2, [constraint([1, 1], "=", 1)], lower=0)
    out = minimize(system, [(0, 0), (1, 0)])
    assert out.status is LpStatus.OPTIMAL and out.value == 0


def test_free_variables_and_equalities():
    # min x + y with x + y = 3, x free, y >= 0: slide x to -inf? no: objective
    # is constant 3 on the feasible line
    system = LinearSystem.make(2, [constraint([1, 1], "=", 3)], lower=[None, F(0)])
    out = minimize(system, [(0, 1), (1, 1)])
    assert out.status is LpStatus.OPTIMAL and out.value == 3


def test_upper_bounds_without_lower():
    system = LinearSystem.make(1, [], lower=None, upper=2)
    out = maximize(system, [(0, 1)])
    assert out.status is LpStatus.OPTIMAL and out.value == 2
    out = minimize(system, [(0, 1)])
    assert out.status is LpStatus.UNBOUNDED


def test_crossing_bounds_infeasible():
    system = LinearSystem.make(1, [], lower=3, upper=2)
    assert solve(LpProblem("max", ((0, F(1)),), system)).status is LpStatus.INFEASIBLE


def test_duplicate_rows_are_dropped():
    rows = [constraint([1], LE, 1), constraint([1], LE, 1)]
    out = maximize(LinearSystem.make(1, rows, lower=0), [(0, 1)])
    assert out.value == 1


def test_vector_sums_repeated_columns():
    v = vector(4, [(2, F(1, 2)), (0, F(3)), (2, F(1, 3)), (0, F(-3))])
    assert v == (0, 0, F(5, 6), 0)
    assert all(type(a) is F for a in v)
    assert vector(3, []) == (F(0),) * 3


def test_exceeding_point_above_and_at_the_bound():
    system = LinearSystem.make(2, [constraint([1, 2], LE, 4)], lower=0)
    point = exceeding_point(system, [(0, 1), (1, 1)], 3)
    assert point == (F(4), F(0))
    assert exceeding_point(system, [(0, 1), (1, 1)], 4) is None  # the maximum is 4
    assert exceeding_point(system, [(0, F(1, 2)), (1, 1)], F(2)) is None


def test_exceeding_point_walks_an_unbounded_ray():
    # x - y <= 1 with x >= 3, y >= 0: 2x + y grows without bound
    system = LinearSystem.make(2, [constraint([1, -1], LE, 1)], lower=[3, 0])
    objective = ((0, F(2)), (1, F(1)))
    out = maximize(system, objective)
    assert out.status is LpStatus.UNBOUNDED
    current = sum(o * out.point[j] for j, o in objective)
    gain = sum(o * out.ray[j] for j, o in objective)
    one_step = tuple(p + r for p, r in zip(out.point, out.ray))
    branches = set()
    for bound in (F(0), current + gain + F(5, 2), current - 1, current + gain):
        point = exceeding_point(system, objective, bound)
        assert system.satisfied_by(point)
        value = sum(o * point[j] for j, o in objective)
        assert value > bound
        if current + gain > bound:
            assert point == one_step
        else:
            assert value == bound + 1
        branches.add(current + gain > bound)
    assert branches == {True, False}


def _ratios(values):
    """Types, numerators and denominators, so a value left unnormalised shows."""
    return [(type(v), v.numerator, v.denominator) for v in values]


def test_exceeding_point_ray_step_matches_operator_reference():
    """The unbounded branch's step and point are the Fraction operators'
    ``(bound + 1 - current) / gain`` and ``p + step * r``, value for value."""
    rng = random.Random(29)
    steps = set()
    for problem in lp_corpus(random.Random(20070049), 300):
        out = solve(LpProblem("max", problem.terms, problem.system))
        if out.status is not LpStatus.UNBOUNDED:
            continue
        current = sum((c * out.point[j] for j, c in problem.terms), F(0))
        gain = sum((c * out.ray[j] for j, c in problem.terms), F(0))
        for bound in (
            F(0),
            current,
            current + gain,
            current - F(rng.randint(0, 5), rng.randint(1, 3)),
            current + gain + F(rng.randint(1, 9), rng.randint(1, 4)),
        ):
            step = F(1) if current + gain > bound else (bound + 1 - current) / gain
            expected = [p + step * r for p, r in zip(out.point, out.ray)]
            got = exceeding_point(problem.system, problem.terms, bound)
            assert _ratios(got) == _ratios(expected)
            steps.add(step == 1)
    assert steps == {True, False}


def test_exceeding_point_on_an_empty_system_raises(monkeypatch):
    solved = _count_solves(monkeypatch)
    system = LinearSystem.make(1, [constraint([1], LE, -1)], lower=0)
    # the infeasible outcome is stored, and every ask raises on it
    for _ in range(3):
        with pytest.raises(PreconditionError):
            exceeding_point(system, [(0, 1)], 0)
    assert len(solved) == 1
    assert feasible_point(system) is None and len(solved) == 2


def test_inexact_pivot_division_raises():
    # [[2, 1], [1, 1]] / 3 is no tableau a pivot sequence can reach: the
    # second row becomes (0, 1) / 3, which is not integral
    tab, cost = [[2, 1], [1, 1]], [0, 0]
    with pytest.raises(PostconditionError):
        exact_lp._pivot(tab, cost, 3, 0, 0)


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    system = LinearSystem.make(
        4,
        [
            constraint([F(1, 4), -8, -1, 9], LE, 0),
            constraint([F(1, 2), -12, F(-1, 2), 3], LE, 0),
            constraint([0, 0, 1, 0], LE, 1),
        ],
        lower=0,
    )
    out = maximize(system, enumerate([F(3, 4), -20, F(1, 2), -6]))
    assert out.status is LpStatus.OPTIMAL
    assert out.value == F(5, 4)


def test_interior_point_simplex():
    system = LinearSystem.make(3, [constraint([1, 1, 1], "=", 1)], lower=0)
    pt = feasible_interior_point(system)
    assert pt is not None and all(v > 0 for v in pt) and sum(pt) == 1


def test_interior_point_forced_zero():
    system = LinearSystem.make(
        2, [constraint([1, 0], "=", 0), constraint([1, 1], "=", 1)], lower=0
    )
    assert feasible_interior_point(system) is None


def test_interior_point_unbounded_direction():
    system = LinearSystem.make(2, [constraint([1, -1], "=", 0)], lower=None)
    pt = feasible_interior_point(system)
    assert pt is not None and pt[0] > 0 and pt[0] == pt[1]


def test_dimension_mismatch_rejected():
    # a row names its columns; a dense row shorter than its system is 0 after
    short = LinearSystem.make(2, [constraint([1], LE, 1)], lower=0)
    assert short.satisfied_by((F(1), F(5)))
    # one column rule for rows and objectives: out of range, negative, repeated
    system = LinearSystem.make(2, [], lower=0)
    for terms in (((2, F(1)),), ((-1, F(1)),), ((0, F(1)), (0, F(2)))):
        with pytest.raises(PreconditionError, match="column"):
            LinearSystem.make(2, [exact_lp.LinearConstraint(terms, LE, F(1))])
        with pytest.raises(PreconditionError, match="column"):
            LpProblem("max", terms, system)
        with pytest.raises(PreconditionError, match="column"):
            maximize(system, terms)
    # a short objective names fewer columns: 0 in the others
    assert LpProblem("max", ((1, F(1)),), system).objective == (F(1),)


# ---------------------------------------------------------------------------
# Randomized duality: the hand-built dual is the independent oracle
# ---------------------------------------------------------------------------


def random_primal_dual(rng: random.Random, n=3, m=3):
    """Primal max c.x, Ax <= b, x >= 0 (feasible, bounded by a box row).
    Dual  min b.y, A^T y >= c, y >= 0.  ``c`` and ``b`` are returned as
    ``(column, coefficient)`` terms."""
    a = [[F(rng.randint(-3, 4)) for _ in range(n)] for _ in range(m)]
    b = [F(rng.randint(0, 6)) for _ in range(m)]
    c = [F(rng.randint(-3, 4)) for _ in range(n)]
    a.append([F(1)] * n)
    b.append(F(rng.randint(1, 8)))
    primal = LinearSystem.make(
        n, [constraint(row, LE, rhs) for row, rhs in zip(a, b)], lower=0
    )
    m_all = len(a)
    dual_rows = [
        constraint([a[i][j] for i in range(m_all)], GE, c[j]) for j in range(n)
    ]
    dual = LinearSystem.make(m_all, dual_rows, lower=0)
    return primal, tuple(enumerate(c)), dual, tuple(enumerate(b))


def test_randomized_strong_duality():
    rng = random.Random(2024)
    for _ in range(60):
        primal, c, dual, b = random_primal_dual(rng)
        p = maximize(primal, c)
        d = minimize(dual, b)
        assert p.status is LpStatus.OPTIMAL, p.status
        assert d.status is LpStatus.OPTIMAL, d.status
        assert p.value == d.value


def test_randomized_certificates_substitute():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        rows = [
            constraint(
                [F(rng.randint(-3, 3)) for _ in range(n)],
                rng.choice((LE, GE, "=")),
                F(rng.randint(-4, 6)),
            )
            for _ in range(m)
        ]
        lower = [F(0) if rng.random() < 0.7 else None for _ in range(n)]
        upper = [F(rng.randint(1, 5)) if rng.random() < 0.3 else None for _ in range(n)]
        system = LinearSystem.make(n, rows, lower=lower, upper=upper)
        objective = tuple((j, F(rng.randint(-3, 3))) for j in range(n))
        problem = LpProblem(rng.choice(("max", "min")), objective, system)
        out = solve(problem)  # solve() already substitution-checks internally
        assert verify_outcome(problem, out) == ()
    # second pass: rational coefficients, rhs and bounds
    for problem in lp_corpus(random.Random(100), 60):
        assert verify_outcome(problem, solve(problem)) == ()


def _q(rng: random.Random) -> F:
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _dense(row, n: int) -> list[F]:
    """The ``n`` coefficients of ``row`` (or of an objective), 0 in every
    column it does not name."""
    out = [F(0)] * n
    for j, a in row.terms:
        out[j] = a
    return out


def _random_lp(rng: random.Random) -> LpProblem:
    """Rational coefficients, rhs and bounds; EQ and GE rows that need
    artificials; exact, scaled and implied (summed) duplicate rows; free,
    mirrored, boxed and fixed variables; some crossing bounds and some zero
    objectives.  A third of the problems keep every row true at a corner of
    the bounds (degenerate vertices), a third at a point inside them, so
    besides infeasible problems there are many feasible and unbounded ones.
    """
    n = rng.randint(1, 7)
    lower, upper, corner, inside = [], [], [], []
    for _ in range(n):
        kind = rng.choice(("nonneg", "nonneg", "lower", "upper", "free", "box"))
        lo = F(0) if kind == "nonneg" else _q(rng) if kind in ("lower", "box") else None
        up = _q(rng) if kind == "upper" else None
        if kind == "box":
            up = lo + _q(rng) / 4 + 1  # now and then crossing or fixed
        lower.append(lo)
        upper.append(up)
        corner.append(lo if lo is not None else up if up is not None else _q(rng))
        step = abs(_q(rng)) / 2
        inside.append(
            (lo + up) / 2 if lo is not None and up is not None
            else lo + step if lo is not None
            else up - step if up is not None
            else _q(rng)
        )
    anchor = rng.choice((None, corner, inside))
    rows = []
    for _ in range(rng.randint(0, 6)):
        coeffs = [_q(rng) for _ in range(n)]
        rel, rhs = rng.choice((LE, GE, EQ)), _q(rng)
        if anchor:
            at = sum(a * x for a, x in zip(coeffs, anchor))
            rhs = at if rel == EQ else at + abs(rhs) if rel == LE else at - abs(rhs)
        rows.append(constraint(coeffs, rel, rhs))
    if rows and rng.random() < 0.5:
        row = rng.choice(rows)
        k = F(rng.randint(1, 4), rng.randint(1, 4))
        scaled = [k * a for a in _dense(row, n)]
        rows.append(constraint(scaled, row.relation, k * row.rhs))
    if rows and rng.random() < 0.2:
        rows.append(rng.choice(rows))
    if len(rows) >= 2 and rng.random() < 0.3:
        r1, r2 = rng.sample(rows, 2)
        if r1.relation == r2.relation:  # their sum is implied
            coeffs = [a + b for a, b in zip(_dense(r1, n), _dense(r2, n))]
            rows.append(constraint(coeffs, r1.relation, r1.rhs + r2.rhs))
    rng.shuffle(rows)
    system = LinearSystem.make(n, rows, lower=lower, upper=upper)
    zero = rng.random() < 0.3
    objective = tuple((j, F(0) if zero else _q(rng)) for j in range(n))
    return LpProblem(rng.choice(("max", "min")), objective, system)


def _phase1_vertex_lp(rng: random.Random) -> LpProblem:
    """A feasibility problem whose answer is the vertex phase 1 ends at:
    nonnegative variables, a zero objective, and several EQ and GE rows
    with their own denominators through a point inside, so that many rows
    start on artificials of different weights."""
    n = rng.randint(5, 8)
    point = [abs(_q(rng)) for _ in range(n)]
    rows = [constraint([1] * n, LE, sum(point) + 1)]
    for _ in range(rng.randint(4, 6)):
        coeffs = [_q(rng) for _ in range(n)]
        rel = rng.choice((EQ, GE))
        at = sum(a * x for a, x in zip(coeffs, point))
        rows.append(constraint(coeffs, rel, at if rel == EQ else at - abs(_q(rng)) / 4))
    return LpProblem("min", (), LinearSystem.make(n, rows, lower=0))


def lp_corpus(rng: random.Random, count: int):
    """Seeded rational LPs that reach every branch of the pivot path; one in
    three is a phase-1 vertex problem."""
    for i in range(count):
        yield _phase1_vertex_lp(rng) if i % 3 == 2 else _random_lp(rng)


# sha256 of the outcome reprs of lp_corpus(random.Random(20070049), 300).
# It pins the pivot path: Bland's rule over the same basis order gives the
# same vertex, ray and status.  A change that alters the path on purpose (a
# warm start, say) must update this constant and record why in CHANGES.md.
CORPUS_DIGEST = "f1a3d026d9e80afce2fee7d17bedcfba68a3ff3f5a1dd3dbc8f130401a789247"


def _corpus_digest(warm: bool = False, twice: bool = False) -> str:
    """sha256 of the corpus's outcome reprs; ``warm`` first solves each
    problem's opposite sense over the same system object, and ``twice``
    asks each problem through :func:`maximize` or :func:`minimize` twice
    and digests the second answer."""
    digest = hashlib.sha256()
    statuses = set()
    for problem in lp_corpus(random.Random(20070049), 300):
        if warm:
            other = "min" if problem.sense == "max" else "max"
            solve(LpProblem(other, problem.terms, problem.system))
        if twice:
            ask = maximize if problem.sense == "max" else minimize
            first = ask(problem.system, problem.terms)
            out = ask(problem.system, problem.terms)
            assert out is first
        else:
            out = solve(problem)
        statuses.add(out.status)
        digest.update(repr(out).encode())
    assert statuses == set(LpStatus)
    return digest.hexdigest()


def test_outcomes_pinned_on_rational_corpus():
    """The solver's outcomes on a seeded corpus are byte-for-byte fixed.

    Substitution checks accept any feasible vertex, so they cannot see a
    change of pivot path (a wrong phase-1 weight, a lossy duplicate-row key);
    a different vertex or ray here can.
    """
    assert _corpus_digest(warm=False) == CORPUS_DIGEST


def test_outcomes_pinned_after_a_solve_on_the_same_system():
    """A solve starts phase 2 from the phase-1 result cached on its system
    object, so an earlier solve over that object must leave the next
    outcome as it would be on a fresh system."""
    assert _corpus_digest(warm=True) == CORPUS_DIGEST


def test_outcomes_pinned_when_every_question_is_asked_twice():
    """The second ask of a question is answered from the system's memo: it
    must be the outcome a fresh solve gives."""
    assert _corpus_digest(twice=True) == CORPUS_DIGEST


# _pivot calls over lp_corpus(random.Random(20070049), 300).  The digest
# pins where each pivot path ends; this pins the paths' total length, so a
# change that keeps every outcome but adds or drops pivots fails too.
CORPUS_PIVOTS = 1027


def test_pivot_count_pinned_on_rational_corpus(monkeypatch):
    calls = 0
    pivot = exact_lp._pivot

    def counting(*args):
        nonlocal calls
        calls += 1
        return pivot(*args)

    monkeypatch.setattr(exact_lp, "_pivot", counting)
    for problem in lp_corpus(random.Random(20070049), 300):
        solve(problem)
    assert calls == CORPUS_PIVOTS


def test_phase1_cache_is_invisible_to_value_semantics():
    # the EQ row needs an artificial, so the solve runs phase 1 and caches
    # it; its substitution check caches the integer rows, bounds and
    # objective.  Fresh rows for each system keep the row caches apart.
    def rows():
        return [constraint([1, 1], EQ, 1), constraint([1, -1], GE, F(1, 3))]

    solved = LinearSystem.make(2, rows(), lower=0)
    fresh = LinearSystem.make(2, rows(), lower=0)
    problem = LpProblem("max", ((0, F(1)), (1, F(0))), solved)
    assert solve(problem).value == 1
    # the outcome memo lives on the system object too
    assert maximize(solved, [(0, 1), (1, 0)]).value == 1
    assert feasible_point(solved) is not None
    assert len(solved._outcomes) == 2
    assert solved.violations((F(0), F(1))) == ("row[1]",)
    # the integer forms and the memo are made with the objects, and live in
    # the instance dict beside the fields; a changed entry there shows in
    # no comparison, hash or repr
    kept = {
        LinearSystem: ("_integer_bounds", "_outcomes", "_phase1"),
        LpProblem: ("_integer_objective",),
        exact_lp.LinearConstraint: ("_integer",),
    }
    field_names = {
        LinearSystem: ("num_vars", "rows", "lower", "upper", "var_names"),
        LpProblem: ("sense", "terms", "system"),
        exact_lp.LinearConstraint: ("terms", "relation", "rhs", "label"),
    }
    for a, b in (
        (solved, fresh),
        (problem, LpProblem("max", ((1, F(0)), (0, F(1))), fresh)),
        *zip(solved.rows, fresh.rows),
    ):
        assert tuple(f.name for f in fields(a)) == field_names[type(a)]
        assert set(kept[type(a)]) <= set(vars(a)) - set(field_names[type(a)])
        for name in kept[type(a)]:
            if name in vars(b):
                object.__setattr__(b, name, None)
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)


def test_a_zero_objective_builds_no_cost_row(monkeypatch):
    costed = []
    cost = exact_lp._Standard.cost

    def counting(std, problem):
        costed.append(problem)
        return cost(std, problem)

    monkeypatch.setattr(exact_lp._Standard, "cost", counting)
    zero = nonzero = 0
    for problem in lp_corpus(random.Random(20070049), 300):
        before = len(costed)
        out = solve(problem)
        if any(problem.objective):
            nonzero += out.status is not LpStatus.INFEASIBLE
        elif out.status is LpStatus.OPTIMAL:
            zero += 1
            assert len(costed) == before and out.value == 0
    assert len(costed) == nonzero
    assert zero >= 100 and nonzero >= 100


def test_a_zero_objective_reads_the_cached_tableau(monkeypatch):
    """A zero objective is answered at the phase-1 vertex without phase 2,
    and no solve, zero or not, changes the cached phase-1 tableau."""
    iterated = []
    iterate = exact_lp._iterate

    def counting(*args):
        iterated.append(args)
        return iterate(*args)

    monkeypatch.setattr(exact_lp, "_iterate", counting)
    zero = 0
    for problem in lp_corpus(random.Random(20070049), 300):
        start = problem.system._phase1  # phase 1 runs _iterate on its own
        if start is None:
            continue
        _, tab, basis, d = start
        before = ([row[:] for row in tab], basis[:], d)
        n = problem.system.num_vars
        iterated.clear()
        out = solve(LpProblem(problem.sense, (), problem.system))
        assert out.status is LpStatus.OPTIMAL and not iterated
        zero += 1
        solve(problem)
        solve(LpProblem("min" if problem.sense == "max" else "max",
                        problem.terms, problem.system))
        _, tab, basis, d = problem.system._phase1
        assert ([row[:] for row in tab], basis[:], d) == before
    assert zero >= 150


# ---------------------------------------------------------------------------
# The standard form against the Fraction rewrite it replaced
# ---------------------------------------------------------------------------


def _reference_integral(terms, rhs):
    scale = lcm(rhs.denominator, *(a.denominator for _, a in terms))
    return tuple((j, int(a * scale)) for j, a in terms), int(rhs * scale), scale


def _reference_standard(system: LinearSystem):
    """The standard form as the dense ``Fraction`` path built it: each row
    rewritten over the u-columns in ``Fraction``s, then multiplied by the
    lcm of its denominators.  Returns the transforms' rewrite, the form's
    ``(rows, scale, ray_scale, basis_hint)``, or None on crossing bounds."""
    transforms, ncols = [], 0
    for lo, up in zip(system.lower, system.upper):
        if lo is not None:
            if up is not None and up < lo:
                return None
            transforms.append(("shift", ncols, lo))
            ncols += 1
        elif up is not None:
            transforms.append(("mirror", ncols, up))
            ncols += 1
        else:
            transforms.append(("split", ncols, ncols + 1))
            ncols += 2

    def rewrite(coeffs, rhs):
        terms = []
        for j, c in enumerate(coeffs):
            if not c:
                continue
            kind, col, aux = transforms[j]
            if kind == "split":
                terms += [(col, c), (aux, -c)]
            else:
                terms.append((col, -c if kind == "mirror" else c))
                rhs -= c * aux
        return _reference_integral(terms, F(rhs))

    keys = []
    for row in system.rows:
        key = (*rewrite(_dense(row, system.num_vars), row.rhs), row.relation)
        if key not in keys:
            keys.append(key)
    for (kind, col, lo), up in zip(transforms, system.upper):
        if kind == "shift" and up is not None:
            keys.append((*_reference_integral([(col, F(1))], up - lo), LE))
    total = ncols + sum(1 for *_, rel in keys if rel != EQ)
    rows, scales, hints, ray_scale = [], [], [], [1] * total
    s = ncols
    for terms, rhs, scale, rel in keys:
        row = [0] * (total + 1)
        for col, a in terms:
            row[col] = a
        row[-1] = rhs
        if rel != EQ:
            row[s] = 1 if rel == LE else -1
        if rhs < 0:
            row = [-x for x in row]
        hint = None
        if rel != EQ:
            hint = s if row[s] == 1 else None
            ray_scale[s] = scale
            s += 1
        rows.append(row)
        scales.append(scale)
        hints.append(hint)
    return rewrite, (rows, scales, ray_scale, hints)


def _assert_standard_matches_reference(problem: LpProblem) -> None:
    """Rows, scales, ray scales, basis hints and dropped duplicates equal
    the reference's, and the cost row is a positive multiple of its cost
    row, so it has the same signs."""
    system = problem.system
    reference = _reference_standard(system)
    try:
        std = exact_lp._Standard(system)
    except exact_lp._InfeasibleBounds:
        assert reference is None
        return
    assert reference is not None
    rewrite, form = reference
    assert (std.rows, std.scale, std.ray_scale, std.basis_hint) == form
    old, _, _ = rewrite(_dense(problem, system.num_vars), F(0))
    old_cost = [0] * std.ncols_total
    for col, c in old:
        old_cost[col] = c if problem.sense == "min" else -c
    cost = std.cost(problem)
    assert [(c > 0) - (c < 0) for c in cost] == [(c > 0) - (c < 0) for c in old_cost]
    ratios = {F(a, b) for a, b in zip(old_cost, cost) if b}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_standard_form_matches_the_fraction_rewrite_on_the_corpus():
    for problem in lp_corpus(random.Random(20070049), 300):
        _assert_standard_matches_reference(problem)
    for problem in lp_corpus(random.Random(100), 200):
        _assert_standard_matches_reference(problem)


def test_standard_form_matches_the_fraction_rewrite_on_the_suites(monkeypatch):
    """Every problem the seeded cbt, fbt and market instances solve."""
    solved = _count_solves(monkeypatch)
    run_conditional_suite(ConditionalFuzzConfig(count=8, seed=42))
    run_process_suite(ProcessFuzzConfig(count=4, seed=7))
    run_polar_closure_suite(PolarClosureConfig(instances=2, seed=1))
    run_market_suite(MarketFuzzConfig(count=3, seed=11))
    assert len(solved) >= 500
    shifted = 0
    for problem in solved:
        _assert_standard_matches_reference(problem)
        shifted += any(lo for lo in problem.system.lower if lo is not None)
    assert shifted >= 1


def _hand_system(rows, lower, upper) -> LinearSystem:
    return LinearSystem.make(len(lower), rows, lower=lower, upper=upper)


@pytest.mark.parametrize(
    "system",
    [
        # shifted, mirrored (by 0 and by 5/2), split and boxed columns
        _hand_system(
            [
                constraint([F(1, 2), F(2, 3), -1, F(3, 4), 2], LE, F(5, 6)),
                constraint([1, F(-1, 3), F(1, 6), 0, F(-2, 5)], GE, F(-7, 2)),
                constraint([F(3, 7), 0, 0, 1, F(1, 2)], EQ, 2),
            ],
            [F(1, 3), None, None, F(-3, 2), 0],
            [None, 0, F(5, 2), F(9, 4), None],
        ),
        # every column shifted or mirrored; a shift that clears the rhs
        _hand_system(
            [
                constraint([F(1, 2), F(1, 4)], LE, F(1, 6) - F(1, 2)),
                constraint([2, -1], GE, F(2, 3) + F(3, 2)),
            ],
            [F(1, 3), None],
            [None, F(-2)],
        ),
        # duplicates: an exact repeat goes, a scaled copy and a copy that
        # only meets the first after the shift stay
        _hand_system(
            [
                constraint([F(1, 2), F(1, 2)], LE, F(1, 2)),
                constraint([1, 1], LE, 1),
                constraint([F(1, 2), F(1, 2)], LE, F(1, 2)),
                constraint([1, 1], LE, F(4, 3)),
            ],
            [F(1, 3), 0],
            [None, None],
        ),
        # free columns only, and a row that is zero on them
        _hand_system(
            [constraint([F(2, 9), F(-4, 3)], EQ, F(1, 3)), constraint([0, 0], LE, 1)],
            [None, None],
            [None, None],
        ),
    ],
)
def test_standard_form_matches_the_fraction_rewrite_by_hand(system):
    n = system.num_vars
    for objective in (
        tuple((j, F(3, 4)) for j in range(n)),
        tuple((j, F(j - 1, j + 2)) for j in range(n)),
    ):
        for sense in ("max", "min"):
            problem = LpProblem(sense, objective, system)
            _assert_standard_matches_reference(problem)
            solve(problem)  # substitution-checked


# bounds and coefficients with small denominators, so shifts often cancel
# the rhs or each other; 0 drawn often
_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_bounds = st.one_of(st.none(), st.just(F(0)), _small)
_coefficients = st.one_of(st.just(F(0)), _small)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_standard_form_matches_the_fraction_rewrite_on_drawn_bounds(data):
    """The integer bound shift of ``_rewrite`` against the Fraction one."""
    n = data.draw(st.integers(1, 4))
    lower = data.draw(st.lists(_bounds, min_size=n, max_size=n))
    upper = data.draw(st.lists(_bounds, min_size=n, max_size=n))
    rows = [
        constraint(
            data.draw(st.lists(_coefficients, min_size=n, max_size=n)),
            data.draw(st.sampled_from((LE, GE, EQ))),
            data.draw(_coefficients),
        )
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    system = LinearSystem.make(n, rows, lower=lower, upper=upper)
    objective = tuple((j, F(1)) for j in range(n))
    _assert_standard_matches_reference(LpProblem("max", objective, system))


def test_a_cancelling_shift_reduces_the_row():
    """(1/2)x <= 1/6 with x >= 1/3 is u <= 0 at scale 2, not 3u <= 0 at 6."""
    system = LinearSystem.make(1, [constraint([F(1, 2)], LE, F(1, 6))], lower=F(1, 3))
    std = exact_lp._Standard(system)
    assert (std.rows, std.scale, std.ray_scale, std.basis_hint) == (
        [[1, 1, 0]], [2], [1, 2], [1]
    )
    assert system.rows[0]._integer == (((0, 3),), 1, 6)
    assert maximize(system, [(0, 1)]).value == F(1, 3)


# ---------------------------------------------------------------------------
# Values the exact core cannot read
# ---------------------------------------------------------------------------


def test_floats_are_refused_as_input():
    """A float in a row, a bound or an objective is bad input, refused with
    PreconditionError, not an AttributeError from deep in the solver."""
    good = exact_lp.LinearConstraint(((0, F(1)), (1, F(1))), LE, F(1))
    # a row is brought to integers when it is built, so it is refused there
    for terms, rhs in ((((0, 0.5), (1, F(1))), F(1)), (((0, F(1)), (1, F(1))), 1.0)):
        with pytest.raises(PreconditionError, match="float"):
            exact_lp.LinearConstraint(terms, LE, rhs)
    for lower, upper in (((0.0, F(0)), (None, None)), ((F(0), None), (None, 2.5))):
        with pytest.raises(PreconditionError, match="float"):
            LinearSystem(2, (good,), lower, upper)
    system = LinearSystem(2, (good,), (F(0), F(0)), (None, None))
    with pytest.raises(PreconditionError, match="float"):
        solve(LpProblem("max", ((0, F(1)), (1, 0.5)), system))
    # the entry points read each objective coefficient through frac
    for ask in (maximize, minimize, lambda s, o: exceeding_point(s, o, 0)):
        with pytest.raises(RationalFormatError, match="float"):
            ask(system, [(0, F(1)), (1, 0.5)])
    # ints are exact and stay accepted
    ints = LinearSystem(
        2, (exact_lp.LinearConstraint(((0, 1), (1, 1)), LE, 1),), (0, 0), (None, 1)
    )
    assert maximize(ints, [(0, 1), (1, 1)]).value == 1


def test_make_refuses_a_scalar_float_bound():
    """A scalar float bound is refused as a float inside a bound list is,
    not with a TypeError from iterating it."""
    for bounds in ({"lower": 0.5}, {"upper": 0.5}, {"lower": 0, "upper": 2.5}):
        with pytest.raises(RationalFormatError, match="float"):
            LinearSystem.make(2, [], **bounds)
    system = LinearSystem.make(2, [], lower=0, upper="1/2")
    assert system.lower == (F(0), F(0)) and system.upper == (F(1, 2), F(1, 2))


def test_bools_are_refused_as_input():
    """A bool is an int to Python but not a number to the exact core: in a
    row's terms or rhs, a bound or an objective it is refused with
    PreconditionError, as a float is."""
    good = exact_lp.LinearConstraint(((0, F(1)),), LE, F(1))
    for terms, rhs in ((((0, True),), F(1)), (((0, F(1)),), False)):
        with pytest.raises(PreconditionError, match="bool"):
            exact_lp.LinearConstraint(terms, LE, rhs)
    for lower, upper in (((True,), (None,)), ((F(0),), (False,))):
        with pytest.raises(PreconditionError, match="bool"):
            LinearSystem(1, (good,), lower, upper)
    system = LinearSystem(1, (good,), (F(0),), (None,))
    with pytest.raises(PreconditionError, match="bool"):
        LpProblem("max", ((0, True),), system)
    for ask in (maximize, minimize, lambda s, o: exceeding_point(s, o, 0)):
        with pytest.raises(RationalFormatError, match="bool"):
            ask(system, [(0, True)])


# ---------------------------------------------------------------------------
# One solve per question and system object
# ---------------------------------------------------------------------------


def _count_solves(monkeypatch) -> list:
    """The problems the entry points hand to :func:`solve` from now on."""
    solved = []

    def counted(problem):
        solved.append(problem)
        return solve(problem)

    monkeypatch.setattr(exact_lp, "solve", counted)
    return solved


def _small_system() -> LinearSystem:
    return LinearSystem.make(
        2, [constraint([1, 1], LE, 3), constraint([1, -1], GE, F(-1, 2))], lower=0
    )


def test_a_question_is_solved_once_per_system_object(monkeypatch):
    solved = _count_solves(monkeypatch)
    system = _small_system()
    first = maximize(system, [(0, 1), (1, 2)])
    assert first.value == F(19, 4)
    assert maximize(system, [(0, 1), (1, 2)]) is first
    assert len(solved) == 1
    # ints, Fractions and strings are one objective, in any order
    assert maximize(system, [(0, F(1)), (1, F(2))]) is first
    assert maximize(system, [(0, "1"), (1, "4/2")]) is first
    assert maximize(system, [(1, 2), (0, 1)]) is first
    assert len(solved) == 1
    # exceeding_point asks the same question
    assert exceeding_point(system, [(0, 1), (1, 2)], first.value - 1) == first.point
    assert exceeding_point(system, [(0, 1), (1, 2)], first.value) is None
    assert len(solved) == 1
    # a scaled objective is another question: its value differs, also when
    # its integer terms are the same and only their lcm differs
    assert maximize(system, [(0, 2), (1, 4)]).value == 2 * first.value
    assert maximize(system, [(0, F(1, 2)), (1, 1)]).value == first.value / 2
    assert len(solved) == 3
    # the opposite sense is another question
    low = minimize(system, [(0, 1), (1, 2)])
    assert low.value == 0 and len(solved) == 4
    assert minimize(system, [(0, 1), (1, 2)]) is low and len(solved) == 4
    # feasible_point asks the zero-objective minimum
    point = feasible_point(system)
    assert len(solved) == 5
    assert minimize(system, [(0, 0), (1, 0)]).point is point and len(solved) == 5
    # an equal but distinct system object keeps its own memo
    twin = _small_system()
    assert twin == system and hash(twin) == hash(system)
    again = maximize(twin, [(0, 1), (1, 2)])
    assert again == first and again is not first
    assert len(solved) == 6
    assert [p.system for p in solved].count(twin) == 6
    assert sum(p.system is twin for p in solved) == 1


def test_a_solve_that_raises_stores_nothing(monkeypatch):
    calls = []

    def failing_once(problem):
        calls.append(problem)
        if len(calls) == 1:
            raise PostconditionError("simulated defect")
        return solve(problem)

    monkeypatch.setattr(exact_lp, "solve", failing_once)
    system = _small_system()
    with pytest.raises(PostconditionError):
        maximize(system, [(0, 1), (1, 2)])
    assert maximize(system, [(0, 1), (1, 2)]).value == F(19, 4)
    assert maximize(system, [(0, 1), (1, 2)]).value == F(19, 4)
    assert len(calls) == 2


class _CountedKey:
    """A memo key that counts its hashes; like a Fraction, each one costs."""

    hashes = 0

    def __hash__(self):
        _CountedKey.hashes += 1
        return 7


class _Owner:
    pass


def test_a_per_owner_hit_hashes_its_key_once():
    built = []

    @exact_lp.per_owner
    def build(owner, key):
        built.append(key)
        return len(built)

    owner, key = _Owner(), _CountedKey()
    assert build(owner, key) == 1
    _CountedKey.hashes = 0
    assert build(owner, key) == 1 and build(owner, key) == 1
    assert _CountedKey.hashes == 2
    assert built == [key]


def test_a_per_owner_builder_that_returns_none_is_built_once():
    built = []

    @exact_lp.per_owner
    def build(owner, key):
        built.append(key)

    owner = _Owner()
    assert build(owner, 1) is None and build(owner, 1) is None
    assert build(owner, 2) is None and build(_Owner(), 1) is None
    assert built == [1, 2, 1]


# ---------------------------------------------------------------------------
# The integer substitution check against a Fraction reference
# ---------------------------------------------------------------------------

# a Mersenne prime: a point 1/P off a row differs from it in a large integer
P = 2**61 - 1


def _reference_holds(row, point) -> bool:
    """Whether ``row`` holds at ``point``, by plain ``Fraction`` substitution."""
    lhs = sum((F(a) * x for a, x in zip(_dense(row, len(point)), point)), F(0))
    return {LE: lhs <= row.rhs, GE: lhs >= row.rhs, EQ: lhs == row.rhs}[row.relation]


def _reference_violations(system: LinearSystem, point) -> tuple[str, ...]:
    """``LinearSystem.violations`` by plain ``Fraction`` substitution."""
    out = []
    for i, row in enumerate(system.rows):
        if not _reference_holds(row, point):
            out.append(row.label or f"row[{i}]")
    for j, x in enumerate(point):
        if system.lower[j] is not None and x < system.lower[j]:
            out.append(f"{system.name_of(j)} below lower bound")
        if system.upper[j] is not None and x > system.upper[j]:
            out.append(f"{system.name_of(j)} above upper bound")
    return tuple(out)


def _signed_q(rng: random.Random) -> F:
    """Nonzero-denominator rationals of either sign, written with negative,
    mixed and large denominators."""
    return F(rng.randint(-9, 9), rng.choice((1, 2, -3, 4, -6, 7, 360)))


def _reference_case(rng: random.Random):
    """A random system and points on, near and off its rows and bounds."""
    n = rng.randint(1, 5)
    rows = []
    for i in range(rng.randint(0, 5)):
        if rng.random() < 0.15:
            coeffs = [0] * n  # zero row: true or false by its rhs alone
        else:
            coeffs = [_signed_q(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
        label = f"c{i}" if rng.random() < 0.5 else ""
        rows.append(constraint(coeffs, rng.choice((LE, GE, EQ)), _signed_q(rng), label))
    lower = [_signed_q(rng) if rng.random() < 0.6 else None for _ in range(n)]
    upper = [_signed_q(rng) if rng.random() < 0.4 else None for _ in range(n)]
    names = [f"v{j}" for j in range(n)] if rng.random() < 0.5 else None
    system = LinearSystem.make(n, rows, lower=lower, upper=upper, var_names=names)

    point = [_signed_q(rng) for _ in range(n)]
    points = [point, [rng.randint(-3, 3) for _ in range(n)]]  # int entries too
    for row in rows:
        coeffs = _dense(row, n)
        j = next((j for j, a in enumerate(coeffs) if a), None)
        if j is None:
            continue
        # move x_j until the row holds with equality, then 1/P off either way
        lhs = sum((a * x for a, x in zip(coeffs, point)), F(0))
        on = list(point)
        on[j] += (row.rhs - lhs) / coeffs[j]
        points.append(on)
        for step in (F(1, P), F(-1, P)):
            points.append([x + step if k == j else x for k, x in enumerate(on)])
    for j in range(n):  # on and 1/P off each bound
        for bound in (lower[j], upper[j]):
            if bound is not None:
                for step in (0, F(1, P), F(-1, P)):
                    moved = [bound + step if k == j else x for k, x in enumerate(point)]
                    points.append(moved)
    return system, points


def test_violations_agree_with_fraction_reference():
    rng = random.Random(61)
    seen = set()
    for _ in range(300):
        system, points = _reference_case(rng)
        for point in points:
            expected = _reference_violations(system, point)
            assert system.violations(point) == expected
            seen.update(
                label.split(" ", 1)[1] if "bound" in label else label[0]
                for label in expected
            )
    # unlabelled ("row[i]") and labelled ("cI") rows and both bound kinds
    # failed somewhere
    assert seen == {"r", "c", "below lower bound", "above upper bound"}


def _corrupted(problem: LpProblem, out):
    """Outcomes that ``verify_outcome`` must reject, made from a correct
    one: a coordinate moved 1/P off a tight row, the value moved by 1/P,
    the improving ray negated."""
    if out.status is LpStatus.UNBOUNDED:
        yield "ray", replace(out, ray=tuple(-r for r in out.ray))
        return
    if out.status is not LpStatus.OPTIMAL:
        return
    yield "value", replace(out, value=out.value + F(1, P))
    for i, row in enumerate(problem.system.rows):
        coeffs = _dense(row, len(out.point))
        lhs = sum((a * x for a, x in zip(coeffs, out.point)), F(0))
        j = next((j for j, a in enumerate(coeffs) if a), None)
        if lhs != row.rhs or j is None:
            continue
        # step x_j so that the lhs rises (<= and = rows) or falls (>= rows)
        up = (coeffs[j] > 0) == (row.relation != GE)
        step = F(1, P) if up else F(-1, P)
        point = tuple(x + step if k == j else x for k, x in enumerate(out.point))
        yield f"row[{i}]", replace(out, point=point)
        return


def test_verify_outcome_rejects_corrupted_certificates():
    kinds = {"value": 0, "ray": 0, "row": 0}
    for problem in lp_corpus(random.Random(20070049), 300):
        out = solve(problem)
        for kind, bad in _corrupted(problem, out):
            found = verify_outcome(problem, bad)
            assert found, (kind, problem, bad)
            if kind.startswith("row"):
                assert kind in found
                kinds["row"] += 1
            else:
                kinds[kind] += 1
    assert min(kinds.values()) >= 20, kinds


def _optimal_problem() -> LpProblem:
    """max x over x + y = 1, x - y >= 1/3, x, y >= 0: the vertex (1, 0)."""
    rows = [constraint([1, 1], EQ, 1), constraint([1, -1], GE, F(1, 3))]
    return LpProblem("max", ((0, F(1)),), LinearSystem.make(2, rows, lower=0))


def _unbounded_problem() -> LpProblem:
    """max x + y over x = y, x, y >= 0: unbounded from the origin."""
    rows = [constraint([1, -1], EQ, 0)]
    return LpProblem("max", ((0, F(1)), (1, F(1))), LinearSystem.make(2, rows, lower=0))


@pytest.mark.parametrize("make", [_optimal_problem, _unbounded_problem])
def test_solve_checks_the_point_it_returns(monkeypatch, make):
    """The value and the check read one integer form of the point; it must
    be the form of the point returned, so a drift in point extraction
    raises."""
    assert solve(make()).point in ((F(1), F(0)), (F(0), F(0)))
    to_point = exact_lp._Standard.to_original_point

    def nudged(std, u):
        x, *rest = to_point(std, u)
        return (x + F(1, P), *rest)

    monkeypatch.setattr(exact_lp._Standard, "to_original_point", nudged)
    with pytest.raises(PostconditionError, match=r"row\[0\]"):
        solve(make())


def test_solve_checks_the_value_it_returns(monkeypatch):
    assert solve(_optimal_problem()).value == 1

    def nudged(status, value=None, **certificates):
        if value is not None:
            value += F(1, P)
        return LpOutcome(status, value, **certificates)

    monkeypatch.setattr(exact_lp, "LpOutcome", nudged)
    with pytest.raises(PostconditionError, match="reported value differs"):
        solve(_optimal_problem())


def test_verify_outcome_reports_a_missing_certificate():
    """A certificate-less outcome is a violation, not an exception: no
    assert (which ``python -O`` strips) and no TypeError."""
    problem = _optimal_problem()
    point, ray = (F(1), F(0)), (F(1), F(1))
    optimal, unbounded = LpStatus.OPTIMAL, LpStatus.UNBOUNDED
    for outcome, expected in (
        (LpOutcome(optimal, value=F(1)), "optimal outcome without a point"),
        (LpOutcome(optimal, point=point), "optimal outcome without a value"),
        (LpOutcome(unbounded, ray=ray), "unbounded outcome without a point"),
        (LpOutcome(unbounded, point=point), "unbounded outcome without a ray"),
    ):
        assert verify_outcome(problem, outcome) == (expected,)


def test_verify_outcome_reports_a_certificate_of_the_wrong_length():
    """A point or ray that is not one entry per variable is a violation of
    the outcome; a short point is still the caller's fault in
    ``LinearSystem.violations``."""
    optimal = _optimal_problem()
    unbounded = _unbounded_problem()
    point = (F(0), F(0))
    for problem, outcome, expected in (
        (
            optimal,
            LpOutcome(LpStatus.OPTIMAL, value=F(0), point=(F(0),)),
            ("point has 1 entries, system has 2",),
        ),
        (
            optimal,
            LpOutcome(LpStatus.OPTIMAL, value=F(1), point=(F(1), F(0), F(0))),
            ("point has 3 entries, system has 2",),
        ),
        (
            unbounded,
            LpOutcome(LpStatus.UNBOUNDED, point=point, ray=(F(1),)),
            ("ray has 1 entries, system has 2",),
        ),
        (
            unbounded,
            LpOutcome(LpStatus.UNBOUNDED, point=(F(1), F(0)), ray=(F(1),)),
            ("row[0]", "ray has 1 entries, system has 2"),
        ),
    ):
        assert verify_outcome(problem, outcome) == expected
    with pytest.raises(PreconditionError, match="dimension mismatch"):
        optimal.system.violations((F(0),))


def test_verify_outcome_reports_each_escape_of_a_ray():
    """A ray is checked like a point over a denominator of 0: each row and
    bound it leaves is reported, alone or together."""
    system = LinearSystem.make(
        2,
        [constraint([1, -1], LE, 0, "r")],
        lower=[0, None],
        upper=[None, 3],
        var_names=("x", "y"),
    )
    problem = LpProblem("max", ((0, F(1)),), system)
    for ray, expected in (
        ((F(1), F(1)), ("y above upper bound",)),
        ((F(1), F(0)), ("r",)),
        ((F(-1), F(-1)), ("x below lower bound",)),
        ((F(-1), F(-2)), ("r", "x below lower bound")),
        ((F(1), F(-1, 2)), ("r",)),
        ((F(0), F(0)), ()),
    ):
        outcome = LpOutcome(LpStatus.UNBOUNDED, point=(F(0), F(0)), ray=ray)
        found = verify_outcome(problem, outcome)
        escapes = tuple(v for v in found if v.startswith("ray escapes "))
        assert escapes == tuple(f"ray escapes {e}" for e in expected), ray


# ---------------------------------------------------------------------------
# Brute force: vertex enumeration by Gaussian elimination (no simplex at all)
# ---------------------------------------------------------------------------


def _solve_square(rows, rhs):
    """Solve a small square rational system; None if singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = F(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def brute_force_max(system: LinearSystem, objective):
    """Maximum over all vertices of a bounded polyhedron, by enumeration.

    Every vertex is the solution of n active constraints chosen among the
    rows and the variable bounds; no simplex and no pivoting involved.
    """
    import itertools

    n = system.num_vars
    candidates = [(_dense(row, n), row.rhs) for row in system.rows]
    for j in range(n):
        unit = tuple(F(1) if k == j else F(0) for k in range(n))
        if system.lower[j] is not None:
            candidates.append((unit, system.lower[j]))
        if system.upper[j] is not None:
            candidates.append((unit, system.upper[j]))
    best = None
    for combo in itertools.combinations(candidates, n):
        point = _solve_square([c[0] for c in combo], [c[1] for c in combo])
        if point is None or not system.satisfied_by(point):
            continue
        value = sum(c * point[j] for j, c in objective)
        if best is None or value > best:
            best = value
    return best


def _agrees_with_vertex_enumeration(system: LinearSystem, objective) -> None:
    out = maximize(system, objective)
    expected = brute_force_max(system, objective)
    if expected is None:
        assert out.status is LpStatus.INFEASIBLE
    else:
        assert out.status is LpStatus.OPTIMAL
        assert out.value == expected


def test_simplex_agrees_with_vertex_enumeration():
    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randint(2, 3)
        m = rng.randint(1, 3)
        rows = [
            constraint(
                [F(rng.randint(-3, 3)) for _ in range(n)],
                rng.choice((LE, GE)),
                F(rng.randint(-3, 5)),
            )
            for _ in range(m)
        ]
        # box bounds keep the region bounded so vertices tell the whole story
        system = LinearSystem.make(n, rows, lower=0, upper=rng.randint(1, 5))
        objective = [(j, F(rng.randint(-3, 3))) for j in range(n)]
        _agrees_with_vertex_enumeration(system, objective)
    # second pass: rational coefficients, rhs and boxes with fractional gaps
    rng = random.Random(424243)
    for _ in range(40):
        n = rng.randint(2, 3)
        rows = [
            constraint([_q(rng) for _ in range(n)], rng.choice((LE, GE)), _q(rng))
            for _ in range(rng.randint(1, 3))
        ]
        lower = [_q(rng) for _ in range(n)]
        upper = [lo + abs(_q(rng)) for lo in lower]
        system = LinearSystem.make(n, rows, lower=lower, upper=upper)
        _agrees_with_vertex_enumeration(system, [(j, _q(rng)) for j in range(n)])


determinism_seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=25, deadline=None)
@given(seed=determinism_seeds)
def test_determinism(seed):
    rng1, rng2 = random.Random(seed), random.Random(seed)
    p1, c1, _, _ = random_primal_dual(rng1)
    p2, c2, _, _ = random_primal_dual(rng2)
    assert maximize(p1, c1) == maximize(p2, c2)


def test_feasible_point_is_the_zero_objective_optimum_on_the_corpus():
    statuses = set()
    for problem in lp_corpus(random.Random(20070049), 300):
        system = problem.system
        out = minimize(system, [(j, 0) for j in range(system.num_vars)])
        point = feasible_point(system)
        assert point == out.point
        assert (point is None) is (out.status is LpStatus.INFEASIBLE)
        statuses.add(out.status)
    assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}


def test_a_system_without_variables_has_the_empty_point():
    assert feasible_point(LinearSystem.make(0)) == ()
    holds = LinearSystem.make(0, [constraint([], GE, -1), constraint([], EQ, 0)])
    assert feasible_point(holds) == () and holds.satisfied_by(())
    fails = LinearSystem.make(0, [constraint([], LE, 0), constraint([], GE, 1)])
    assert feasible_point(fails) is None and not fails.satisfied_by(())
    assert feasible_interior_point(holds) == ()
    assert feasible_interior_point(fails) is None
    with pytest.raises(PreconditionError):
        LinearSystem.make(-1)


def test_interior_point_takes_one_solve_and_none_when_empty(monkeypatch):
    solves = []

    def counted(problem):
        out = solve(problem)
        solves.append(out.status)
        return out

    monkeypatch.setattr(exact_lp, "solve", counted)
    # unbounded strict directions: eps grows along x0 = x1 and along x2
    cases = [
        LinearSystem.make(2, [constraint([1, -1], EQ, 0)]),
        LinearSystem.make(3, [constraint([1, -1, 0], LE, F(-7, 2))], lower=[-5, None, 1]),
        LinearSystem.make(2, [constraint([1, 1], GE, F(1, 3))], lower=0),
    ]
    for system in cases:
        del solves[:]
        pt = feasible_interior_point(system)
        assert solves == [LpStatus.UNBOUNDED]
        assert system.satisfied_by(pt) and all(v > 0 for v in pt)
    # empty: phase 1 alone says so, without a solve
    empty = LinearSystem.make(2, [constraint([1, 1], LE, -1)], lower=0)
    del solves[:]
    assert feasible_interior_point(empty) is None
    assert solves == []
