"""Span tracing of procpolar's layers, installed from outside the package.

Every function named in ``LAYERS`` is replaced by a wrapper in each
``procpolar.*`` namespace that binds it.  Rebinding only the defining module
would miss callers that did ``from .exact_lp import maximize``; wrapping
``exact_lp.solve`` catches every ``maximize``/``minimize`` call because both
look ``solve`` up as a module global.

Spans stay in memory as ``[name, parent, start, end, info]`` lists and are
summarised (and optionally written out) once the repetition is over.  A
span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from time import perf_counter

# layer -> public functions wrapped in that layer.  tree and instances get
# no spans: instances is not called by any suite, and tree stays inside its
# callers' self time.
LAYERS = {
    "exact_lp": ("solve", "feasible_interior_point"),
    "rv_polar": (
        "hull_contains",
        "conditional_bipolar_contains",
        "conditional_polar_constraints",
        "partition_mix",
        "product_decompose",
        "pairwise_max_closure",
        "unconditional_bipolar_contains",
        "unconditional_hull_contains",
    ),
    "process_polar": (
        "bipolar_contains_lp",
        "bipolar_contains_incremental",
        "polar_constraints",
        "polar_contains",
        "increment_set",
        "increment_conditional_polar",
        "envelope_process",
        "sample_polar_elements",
        "verify_process_bipolar",
    ),
    "processes": (
        "fork_splice",
        "solid_multiply",
        "random_hull_element",
        "is_supermartingale",
    ),
    "market": (
        "emm_polytope",
        "density_process",
        "local_polytope",
        "wealth_values",
        "is_admissible",
        "wealth_process",
        "pure_investment_polytope",
        "consumption_polytope",
        "y_enlargement_membership",
        "xc_polar_membership",
        "xc_measure_membership",
        "density_hull_membership",
        "lifted_deflator_system",
        "wealth_bipolar_contains",
        "xc_feasibility",
        "superhedge_value",
        "budget_check",
        "sample_consumption_wealth",
        "verify_structure",
    ),
    "fuzz": (
        "run_conditional_suite",
        "run_process_suite",
        "run_polar_closure_suite",
        "run_market_suite",
        "check_conditional_instance",
        "check_process_instance",
        "check_polar_closure_instance",
        "check_market_instance",
        "conditional_probes",
        "process_probes",
        "deflator_probes_for",
        "wealth_probes_for",
    ),
    "cli": ("main",),
}

# oracles whose calls, inclusive time, self time and nested solves are reported
ORACLES = {
    "rv_polar": ("hull_contains", "conditional_bipolar_contains"),
    "process_polar": ("bipolar_contains_lp", "bipolar_contains_incremental"),
    "market": (
        "xc_polar_membership",
        "y_enlargement_membership",
        "wealth_bipolar_contains",
        "xc_feasibility",
        "xc_measure_membership",
        "density_hull_membership",
        "sample_consumption_wealth",
        "superhedge_value",
        "budget_check",
        "emm_polytope",
    ),
}
ORACLE_FIELDS = {
    "rv_polar": ("calls", "total_s", "self_s"),
    "process_polar": ("calls", "total_s", "self_s", "solves"),
    "market": ("total_s", "solves"),
}

SOLVE = "exact_lp.solve"


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        ("exact_lp.solves", "count", "lower"),
        ("exact_lp.solves_infeasible", "count", "lower"),
        ("exact_lp.solves_unbounded", "count", "lower"),
        ("exact_lp.self_s", "s", "lower"),
        ("exact_lp.share", "share", "lower"),
        ("exact_lp.solve_p50_us", "us", "lower"),
        ("exact_lp.solve_tail_us", "us", "lower"),
        ("exact_lp.rows_mean", "rows", "lower"),
        ("exact_lp.vars_mean", "vars", "lower"),
        ("exact_lp.max_bits", "bits", "lower"),
        ("exact_lp.solves_per_system", "ratio", "lower"),
    ]
    units = {"calls": "count", "solves": "count", "total_s": "s", "self_s": "s"}
    for layer, names in ORACLES.items():
        for name in names:
            for field in ORACLE_FIELDS[layer]:
                specs.append((f"{layer}.{name}.{field}", units[field], "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs += [
        ("processes.self_s", "s", "lower"),
        ("fuzz.self_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("fuzz.checks", "count", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


# metrics that count work: equal across repetitions and runs of one seed
EXACT_COUNTERS = (
    "fuzz.checks",
    "exact_lp.solves",
    "exact_lp.solves_infeasible",
    "exact_lp.solves_unbounded",
    "exact_lp.solves_per_system",
    "exact_lp.max_bits",
)


def _bits(values) -> int:
    best = 0
    for v in values:
        if v is not None:
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.systems: set = set()  # distinct LinearSystems, compared by value
        # every system object seen, by id: holding them keeps ids from being
        # reused, so each object is hashed once
        self.seen: dict[int, object] = {}

    def wrap(self, fn, name: str, describe=None):
        """``fn`` with a span around each call.  ``describe(args, result)``,
        if given, fills the span's info after the span has closed, so its
        cost is not counted as the call's."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if describe is not None:
                span[4] = describe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _describe_solve(self, args, outcome) -> tuple:
        """(status, rows, vars, max bits) of one solve; counts its system."""
        problem = args[0]
        system = problem.system
        if id(system) not in self.seen:
            self.seen[id(system)] = system
            self.systems.add(system)
        bits = _bits(problem.objective)
        for row in system.rows:
            bits = max(bits, _bits(row.coeffs), _bits((row.rhs,)))
        bits = max(
            bits,
            _bits(system.lower),
            _bits(system.upper),
            _bits((outcome.value,)),
            _bits(outcome.point or ()),
            _bits(outcome.ray or ()),
        )
        return (outcome.status.value, len(system.rows), system.num_vars, bits)

    def install(self) -> None:
        """Wrap every LAYERS function in every loaded procpolar namespace."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "procpolar"]
        for layer, names in LAYERS.items():
            home = sys.modules[f"procpolar.{layer}"]
            for name in names:
                original = getattr(home, name)
                label = f"{layer}.{name}"
                wrapped = self.wrap(
                    original, label, self._describe_solve if label == SOLVE else None
                )
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, info) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, start, end, info]) + "\n")

    def summary(self, wall_s: float, scale: float) -> dict[str, float]:
        """Per-layer metrics of one traced repetition (see metric_specs).

        ``wall_s`` is the repetition's suite time; every time is multiplied
        by ``scale``, the machine-speed correction of the repetition.
        """
        spans = self.spans
        dur = [(s[3] - s[2]) * scale for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
        self_time = [d - c for d, c in zip(dur, child)]

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        nested_solves: dict[str, int] = {}
        solve_times: list[float] = []
        statuses: dict[str, int] = {}
        rows = cols = bits = 0
        for i, (name, parent, _, _, info) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur[i]
            own[name] = own.get(name, 0.0) + self_time[i]
            layer_self[name.split(".")[0]] += self_time[i]
            if name != SOLVE:
                continue
            status, nrows, nvars, nbits = info
            solve_times.append(dur[i])
            statuses[status] = statuses.get(status, 0) + 1
            rows += nrows
            cols += nvars
            bits = max(bits, nbits)
            counted = set()  # a recursive caller counts each solve once
            while parent >= 0:
                above = spans[parent][0]
                if above not in counted:
                    counted.add(above)
                    nested_solves[above] = nested_solves.get(above, 0) + 1
                parent = spans[parent][1]

        n = len(solve_times)
        solve_times.sort()
        out = {
            "exact_lp.solves": n,
            "exact_lp.solves_infeasible": statuses.get("infeasible", 0),
            "exact_lp.solves_unbounded": statuses.get("unbounded", 0),
            "exact_lp.self_s": layer_self["exact_lp"],
            "exact_lp.share": layer_self["exact_lp"] / (wall_s * scale),
            "exact_lp.solve_p50_us": statistics.median(solve_times) * 1e6 if n else 0.0,
            "exact_lp.solve_tail_us": percentile(solve_times, tail_percentile(n)) * 1e6
            if n
            else 0.0,
            "exact_lp.rows_mean": rows / n if n else 0.0,
            "exact_lp.vars_mean": cols / n if n else 0.0,
            "exact_lp.max_bits": bits,
            "exact_lp.solves_per_system": n / len(self.systems) if n else 0.0,
        }
        fields = {
            "calls": calls,
            "total_s": total,
            "self_s": own,
            "solves": nested_solves,
        }
        for layer, names in ORACLES.items():
            for name in names:
                for field in ORACLE_FIELDS[layer]:
                    value = fields[field].get(f"{layer}.{name}", 0)
                    out[f"{layer}.{name}.{field}"] = value
            out[f"{layer}.self_s"] = layer_self[layer]
        for layer in ("processes", "fuzz", "cli"):
            out[f"{layer}.self_s"] = layer_self[layer]
        return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99) with at least 10 samples above it."""
    return max(0, min(99, int(100 - 1000 / n))) if n else 0


def percentile(sorted_values: list[float], p: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def harrell_davis(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of an ascending list.

    The order statistics are averaged with the weights of a
    Beta(q(n+1), (1-q)(n+1)) distribution over their rank intervals,
    integrated by Simpson's rule.  A single order statistic of a mix of
    instance sizes jumps between size groups from seed to seed; over ten
    market draws this estimate cut the seed-to-seed spread of the median
    from 15% to 8%.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson panels per rank interval
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            x = (i * steps + k) * h
            w += density(x) + 4 * density(x + h / 2) + density(x + h)
        weights.append(w)
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)
