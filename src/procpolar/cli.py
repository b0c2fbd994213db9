"""Command-line front end.

Two commands, both deterministic given (instance, seed):

    procpolar check WHAT INSTANCE [options]   # run one named check battery
    procpolar fuzz SUITE [options]            # run a randomized suite

``WHAT`` is a key of :data:`CHECKS`, the one table of the eight check
batteries (``fbt`` is ``bipolar`` with generated probes); ``SUITE`` is a
key of :data:`SUITES`, the one table of the suites: ``cbt``, ``fbt`` (the
process and polar-closure suites) or ``market``.

Exit codes: 0 all checks pass, 1 a mathematical check failed (with its
certificate in the report), 2 input error.  The default seed comes from
the PROCPOLAR_SEED environment variable, read on every call.  ``--format
machine`` prints one check per line: check-id, verdict and a certificate
digest, tab-separated; ``--out`` writes the same deterministic body to a
file.  :func:`main` builds its parser on its first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import time
from dataclasses import dataclass, field

from .errors import PostconditionError, PreconditionError, ProcpolarError
from .fuzz import (
    ConditionalFuzzConfig,
    MarketFuzzConfig,
    PolarClosureConfig,
    ProcessFuzzConfig,
    conditional_probes,
    deflator_probes_for,
    instance_rng,
    polar_closure_violations,
    process_probes,
    run_conditional_suite,
    run_market_suite,
    run_polar_closure_suite,
    run_process_suite,
    wealth_probes_for,
)
from .instances import Instance, InstanceError, load_instance
from .market import budget_check, density_process, emm_polytope, verify_structure
from .processes import is_supermartingale, is_unit_supermartingale
from .process_polar import polar_constraints, verify_process_bipolar
from .rational import format_rational, parse_rational
from .rv_polar import conditional_bipolar_contains, hull_contains
from .tree import validate_tree


@dataclass
class CheckRecord:
    check_id: str
    verdict: str
    ok: bool
    certificate: str = ""


@dataclass
class Report:
    command: str
    instance_digest: str
    seed: int
    records: list[CheckRecord] = field(default_factory=list)
    elapsed: float = 0.0

    def add(self, check_id: str, verdict: str, ok: bool, certificate: str = "") -> None:
        self.records.append(CheckRecord(check_id, verdict, ok, certificate))

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)

    def body_lines(self, fmt: str) -> list[str]:
        if fmt == "machine":
            return [
                "\t".join(
                    (
                        r.check_id,
                        r.verdict,
                        hashlib.sha256(r.certificate.encode()).hexdigest()[:16],
                    )
                )
                for r in self.records
            ]
        lines = [
            f"command: {self.command}",
            f"instance: {self.instance_digest}",
            f"seed: {self.seed}",
        ]
        for r in self.records:
            mark = "ok" if r.ok else "FAIL"
            lines.append(f"[{mark}] {r.check_id}: {r.verdict}")
            if r.certificate:
                lines.append(f"       {r.certificate}")
        good = sum(1 for r in self.records if r.ok)
        lines.append(f"result: {good}/{len(self.records)} checks passed")
        return lines

    def render(self, fmt: str) -> str:
        return "\n".join(self.body_lines(fmt)) + "\n"


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("PROCPOLAR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InstanceError(f"PROCPOLAR_SEED must be an integer, got {env!r}") from exc
    return 0


# ---------------------------------------------------------------------------
# check batteries
# ---------------------------------------------------------------------------


def _check_tree(inst: Instance, report: Report, args) -> None:
    violations = validate_tree(inst.tree)
    if not violations:
        report.add("tree", "valid", True)
    for v in violations:
        report.add("tree", "violation", False, v)


def _check_supermartingale(inst: Instance, report: Report, args) -> None:
    names = inst.generators or tuple(sorted(inst.processes))
    if not names:
        raise InstanceError("no processes to check")
    for name in names:
        y = inst.processes[name]
        if is_unit_supermartingale(y):
            report.add(f"supermartingale[{name}]", "unit-supermartingale", True)
        elif is_supermartingale(y):
            report.add(
                f"supermartingale[{name}]",
                "supermartingale (initial value above 1)",
                True,
            )
        else:
            report.add(f"supermartingale[{name}]", "not a supermartingale", False)


def _check_polar(inst: Instance, report: Report, args) -> None:
    c = inst.process_set()
    system = polar_constraints(c)
    for name, probe in sorted(inst.probe_processes().items()):
        verdict = "in" if system.satisfied_by(probe.values) else "out"
        report.add(f"polar[{name}]", verdict, True)
    rng = instance_rng("check-polar", report.seed, 0)
    try:
        violations = polar_closure_violations(rng, c, args.count)
    except PostconditionError as exc:
        report.add("polar-closure", "defect", False, str(exc))
        return
    for cand in violations:
        report.add("polar-closure", "violation", False, f"values={cand.values}")
    if not violations:
        report.add("polar-closure", f"{args.count} compositions stayed in", True)


def _check_bipolar(
    inst: Instance, report: Report, args, generate: bool = False
) -> None:
    c = inst.process_set()
    probes = [v for _, v in sorted(inst.probe_processes().items())]
    hull = []
    if generate:
        rng = instance_rng("check-fbt", report.seed, 0)
        # kind-0 probes bump a hull member, so any probe needs one
        hull_count = max(1, args.probes // 2) if args.probes else 0
        extra, hull = process_probes(rng, c, args.probes, hull_count)
        probes += extra
    for i, rec in enumerate(verify_process_bipolar(c, probes, hull)):
        verdict = f"lp={rec.lp_member} incremental={rec.incremental_member}"
        report.add(f"bipolar[{rec.kind}{i}]", verdict, rec.ok, rec.note)


def _check_cbt(inst: Instance, report: Report, args) -> None:
    c = inst.rv_set()
    rng = instance_rng("check-cbt", report.seed, 0)
    checks = [
        (f"cbt[{name}]", probe, None)
        for name, probe in sorted(inst.probe_rvs().items())
    ]
    generated = conditional_probes(rng, c, args.probes)
    checks += (
        (f"cbt[gen{i}]", probe, expected)
        for i, (probe, expected) in enumerate(generated)
    )
    for check_id, probe, expected in checks:
        a = bool(hull_contains(c, probe))
        b = bool(conditional_bipolar_contains(c, probe))
        ok = a == b and (expected is None or a == expected)
        report.add(
            check_id,
            f"hull={a} bipolar={b}",
            ok,
            "" if ok else f"values={probe.values}",
        )


def _check_market(inst: Instance, report: Report, args) -> None:
    m = inst.market()
    poly = emm_polytope(m)
    if poly.interior is None:
        report.add(
            "market", "rejected: no equivalent martingale measure", False
        )
        return
    report.add(
        "market",
        "equivalent martingale measure exists",
        True,
        "q=(" + ", ".join(format_rational(v) for v in poly.interior) + ")",
    )
    density_process(m, poly.interior)  # raises if the martingale check fails
    report.add("density-martingale", "martingale under reference measure", True)
    rng = instance_rng("check-market", report.seed, 0)
    records = verify_structure(
        m, deflator_probes_for(rng, m, 2), wealth_probes_for(rng, m, 2), rng
    )
    for i, rec in enumerate(records):
        report.add(f"structure[{rec.section}{i}]", rec.detail, rec.ok)


def _check_budget(inst: Instance, report: Report, args) -> None:
    if args.x is None:
        raise InstanceError("check budget requires --x CAPITAL")
    m = inst.market()
    if inst.consumption is None:
        raise InstanceError("check budget requires a [consumption] section")
    x = parse_rational(args.x)
    try:
        outcome = budget_check(m, inst.consumption, x)
        if outcome.admissible and outcome.strategy is None:
            raise PostconditionError("admissible outcome without a strategy")
        if not outcome.admissible and outcome.violating_measure is None:
            raise PostconditionError("inadmissible outcome without a violating measure")
    except PostconditionError as exc:
        report.add("budget", "oracle disagreement (defect)", False, str(exc))
        return
    if outcome.admissible:
        cert = "; ".join(
            f"{m.tree.labels[n]}: ("
            + ", ".join(format_rational(v) for v in outcome.strategy.at(n))
            + ")"
            for n in m.tree.non_terminal_nodes()
        )
        report.add(
            "budget",
            f"admissible at x={format_rational(x)} "
            f"(superhedge value {format_rational(outcome.superhedge)})",
            True,
            "holdings " + (cert or "none (the root is terminal)"),
        )
    else:
        cert = "q=(" + ", ".join(
            format_rational(v) for v in outcome.violating_measure
        ) + ")"
        report.add(
            "budget",
            f"not admissible at x={format_rational(x)} "
            f"(superhedge value {format_rational(outcome.superhedge)})",
            False,
            cert,
        )


# the check batteries, in the order ``procpolar check --help`` lists them
CHECKS = {
    "tree": _check_tree,
    "supermartingale": _check_supermartingale,
    "polar": _check_polar,
    "bipolar": _check_bipolar,
    "cbt": _check_cbt,
    "fbt": functools.partial(_check_bipolar, generate=True),
    "market": _check_market,
    "budget": _check_budget,
}


def cmd_check(args) -> int:
    if args.count < 0 or args.probes < 0:
        raise InstanceError("--count and --probes must be nonnegative")
    seed = _resolve_seed(args.seed)
    inst = load_instance(args.instance)
    report = Report(f"check {args.what}", inst.digest, seed)
    start = time.monotonic()
    if args.what != "tree" and not inst.tree_valid:
        raise InstanceError("instance tree is invalid; run 'check tree' for details")
    CHECKS[args.what](inst, report, args)
    report.elapsed = time.monotonic() - start
    return _emit(report, args)


def _closure_config(count: int, seed: int) -> PolarClosureConfig:
    """One polar-closure instance per four process instances, at least one."""
    return PolarClosureConfig(instances=max(1, count // 4), seed=seed)


# the suites, in the order ``procpolar fuzz --help`` lists them: each runs
# its (runner, config) pairs in order, every config built from --count and
# the seed
SUITES = {
    "cbt": ((run_conditional_suite, ConditionalFuzzConfig),),
    "fbt": (
        (run_process_suite, ProcessFuzzConfig),
        (run_polar_closure_suite, _closure_config),
    ),
    "market": ((run_market_suite, MarketFuzzConfig),),
}


def cmd_fuzz(args) -> int:
    if args.count < 1:
        raise InstanceError("--count must be at least 1")
    seed = _resolve_seed(args.seed)
    report = Report(f"fuzz {args.suite}", "-", seed)
    start = time.monotonic()
    results = [
        run(config(count=args.count, seed=seed)) for run, config in SUITES[args.suite]
    ]
    for res in results:
        for rec in res.records:
            report.add(
                f"{res.suite}[{rec.index}]",
                f"pass ({rec.checks} checks)" if rec.ok else f"fail ({rec.kind})",
                rec.ok,
                rec.detail,
            )
        report.add(res.suite, res.summary(), res.all_ok)
    report.elapsed = time.monotonic() - start
    return _emit(report, args)


def _emit(report: Report, args) -> int:
    body = report.render(args.format)
    sys.stdout.write(body)
    if args.format == "text":
        sys.stdout.write(f"# elapsed: {report.elapsed:.3f}s\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    return 0 if report.all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="procpolar",
        description="Exact polar/bipolar duality checks on finite event trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run one check battery on an instance file")
    pc.add_argument("what", choices=CHECKS)
    pc.add_argument("instance", help="path to the instance file")
    pc.add_argument("--x", help="capital for budget checks (exact rational)")
    pc.add_argument("--seed", type=int, default=None)
    pc.add_argument("--count", type=int, default=50, help="composition count")
    pc.add_argument("--probes", type=int, default=6, help="generated probe count")
    pc.add_argument("--out", help="also write the report body to this path")
    pc.add_argument("--format", choices=("text", "machine"), default="text")
    pc.set_defaults(func=cmd_check)

    pf = sub.add_parser("fuzz", help="run a seeded randomized verification suite")
    pf.add_argument("suite", choices=SUITES)
    pf.add_argument("--count", type=int, default=100)
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--out", help="also write the report body to this path")
    pf.add_argument("--format", choices=("text", "machine"), default="text")
    pf.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PostconditionError as exc:
        # an exactness check failed somewhere: a mathematical failure, not bad input
        sys.stderr.write(f"defect: {exc}\n")
        return 1
    except (InstanceError, PreconditionError, ProcpolarError, OSError) as exc:
        # OSError: an unreadable instance or --out path is bad input too
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
