"""Benchmark of procpolar's seeded verification suites.

    python3 suitebench/run.py --workload {cbt,fbt,market} [--seed N]
                              [--seconds S] [--trace {0,1}]

Run from the root of a procpolar checkout (the package is imported from
``src/``).  A closed loop: one caller runs the workload's ``procpolar fuzz``
calls back to back, one child interpreter per repetition and one child at
a time, so no cache carries over between repetitions.  Repetitions continue
until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of the plain repetitions.
``--trace 1`` alternates plain and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead (traced
minus plain suite seconds).  Times are given at a reference machine speed
(see child.py).  Every repetition is checked: exit code 0 and exactly one
``pass`` line per instance.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import EXACT_COUNTERS, harrell_davis, metric_specs, tail_percentile
from workloads import WORKLOADS, Workload, draw_seeds

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
STATE = ROOT / ".suitebench"  # spans and per-seed records, kept across runs
SETUP_SAMPLES = 7  # import-only children per run, after one warm-up
MIN_PLAIN_REPS = 3  # without tracing; a traced run needs one of each kind
DEADLINE_S = 170  # the whole run, children included, ends before this

END_TO_END = ("suite_s", "instance_p50_ms", "instance_tail_ms", "setup_s", "peak_rss_mb")


def _child(args: list[str], deadline: float) -> dict | None:
    """Run one child to completion; None if it failed or ran out of time."""
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        sys.stderr.write(f"child timed out: {args[:1]}\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _check_rep(workload: Workload, rep: dict | None) -> tuple[int, list[str], int]:
    """(instances not reported pass, problems, checks) of one repetition."""
    per_call = workload.instances_per_call
    if rep is None:
        return workload.calls * per_call, ["child crashed or timed out"], 0
    failed, problems, checks = 0, [], 0
    for call in rep["calls"]:
        lines = [ln.split("\t") for ln in call["body"].splitlines()]
        instances = [ln for ln in lines if ln[0].endswith("]")]
        passed = [ln for ln in instances if ln[1].startswith("pass")]
        checks += sum(int(ln[1].split("(")[1].split()[0]) for ln in passed)
        failed += per_call - len(passed)
        if call["code"] != 0 or len(instances) != per_call or len(passed) != per_call:
            problems.append(
                f"seed {call['seed']}: exit {call['code']}, {len(passed)}/"
                f"{len(instances)} instance lines pass, {per_call} expected"
                + (f"; {call['stderr'].strip()[-300:]}" if call["stderr"] else "")
            )
    return failed, problems, checks


def _body_digest(rep: dict) -> str:
    return hashlib.sha256("".join(c["body"] for c in rep["calls"]).encode()).hexdigest()


def _instance_stats(workload: Workload, plain: list[dict]) -> tuple[float, float, int, int]:
    """Median and tail latency (ms), as Harrell-Davis estimates, of the
    per-instance medians over the repetitions that timed every instance;
    the tail percentile; and the number of such repetitions."""
    n = workload.calls * workload.instances_per_call
    runs = [r["instance_s"] for r in plain if len(r["instance_s"]) == n]
    if not runs:
        return 0.0, 0.0, 0, 0
    per_instance = sorted(statistics.median(col) for col in zip(*runs))
    p = tail_percentile(n)
    return (
        harrell_davis(per_instance, 0.5) * 1e3,
        harrell_davis(per_instance, p / 100) * 1e3,
        p,
        len(runs),
    )


def _source_digest() -> str:
    """Digest of the program and benchmark sources: records of one seed are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *CHILD.parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def _compare_record(path: Path, counters: dict, digest: str) -> list[str]:
    """Exact counters must repeat across runs of one seed; the body hash is
    only reported, so a change of certificates shows without failing."""
    problems = []
    if path.exists():
        old = json.loads(path.read_text())
        for name, value in counters.items():
            if name in old["counters"] and old["counters"][name] != value:
                problems.append(f"{name} was {old['counters'][name]} in an earlier run, now {value}")
        if old["body_sha256"] != digest:
            print(f"note: machine body differs from an earlier run ({old['body_sha256'][:16]})")
        counters = {**old["counters"], **counters}
    path.write_text(json.dumps({"counters": counters, "body_sha256": digest}, indent=1))
    return problems


def run(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    started = perf_counter()
    deadline = started + DEADLINE_S
    seeds = draw_seeds(workload, seed)
    STATE.mkdir(exist_ok=True)
    tag = f"{workload.name}-{seed}-{_source_digest()}"

    _child(["--setup-only"], deadline)  # warm-up: compiles the .pyc files
    setup = [_child(["--setup-only"], deadline) for _ in range(SETUP_SAMPLES)]
    setup_s = [r["setup_s"] for r in setup if r]

    seed_arg = ",".join(map(str, seeds))
    kinds = ("plain", "traced") if trace else ("plain",)
    reps: dict[str, list] = {k: [] for k in kinds}
    last: dict[str, float] = {}
    measure_start = perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        extra = ["--trace", str(STATE / f"spans-{tag}.jsonl")] if kind == "traced" else []
        t0 = perf_counter()
        reps[kind].append(_child([workload.name, seed_arg, *extra], deadline))
        last[kind] = perf_counter() - t0
        i += 1
        nxt = kinds[i % len(kinds)]
        enough = len(reps["plain"]) >= (1 if trace else MIN_PLAIN_REPS) and all(reps.values())
        elapsed = perf_counter() - measure_start
        if enough and elapsed + last.get(nxt, last[kind]) > seconds:
            break
        if perf_counter() + last.get(nxt, last[kind]) > deadline:
            break

    attempted = failed = 0
    problems: list[str] = []
    checks: set[int] = set()
    digests: set[str] = set()
    for kind in kinds:
        for rep in reps[kind]:
            f, p, c = _check_rep(workload, rep)
            attempted += workload.calls * workload.instances_per_call
            failed += f
            problems += [f"{kind}: {x}" for x in p]
            if rep is not None and not p:
                checks.add(c)
                digests.add(_body_digest(rep))
    if len(digests) > 1:
        problems.append("machine bodies differ between repetitions of one seed")

    plain = [r for r in reps["plain"] if r is not None]
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if plain:
        suite_s = [r["suite_s"] for r in plain]
        p50, tail, p, timed = _instance_stats(workload, plain)
        n = workload.calls * workload.instances_per_call
        metrics["suite_s"] = (statistics.median(suite_s), "s")
        if timed:
            metrics["instance_p50_ms"] = (p50, "ms")
            metrics["instance_tail_ms"] = (tail, "ms")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
        notes["suite_s"] = (
            f"median of {len(plain)} repetitions: "
            + " ".join(f"{t:.3f}" for t in suite_s)
            + "; wall: "
            + " ".join(f"{r['wall_s']:.3f}" for r in plain)
        )
        notes["instance_p50_ms"] = f"p50 over {n} instances (each a median of {timed} repetitions)"
        notes["instance_tail_ms"] = f"p{p} over {n} instances"
        notes["peak_rss_mb"] = f"median of {len(plain)} repetitions"
    if setup_s:
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        notes["setup_s"] = f"median of {len(setup_s)} fresh imports of procpolar.cli"

    counters: dict = {}
    if len(checks) == 1:
        counters["fuzz.checks"] = checks.pop()
    if trace:
        traced = [r["layers"] for r in reps["traced"] if r is not None]
        specs = metric_specs()
        if traced and plain:
            for name, unit, _ in specs:
                values = [t[name] for t in traced if name in t]
                if name in EXACT_COUNTERS and len(set(values)) > 1:
                    problems.append(f"{name} differs between repetitions: {values}")
                if values:
                    exact = name in EXACT_COUNTERS
                    metrics[name] = (values[0] if exact else statistics.median(values), unit)
            traced_s = statistics.median(r["suite_s"] for r in reps["traced"] if r)
            metrics["trace.overhead_s"] = (traced_s - metrics["suite_s"][0], "s")
            notes["trace.overhead_s"] = f"traced suite_s {traced_s:.3f} s minus plain"
            counters.update({k: metrics[k][0] for k in EXACT_COUNTERS if k in metrics})
        if "fuzz.checks" in counters:
            metrics["fuzz.checks"] = (counters["fuzz.checks"], "count")
        wanted = [name for name, _, _ in specs]
    else:
        wanted = list(END_TO_END)
    if digests:
        problems += _compare_record(STATE / f"record-{tag}.json", counters, next(iter(digests)))

    missing = [name for name in wanted if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    print(f"workload {workload.name}: {len(seeds)} x `procpolar fuzz {workload.name} "
          f"--count 1 --seed S --format machine`, S drawn from --seed {seed} "
          f"({seeds[0]}..{seeds[-1]})")
    print(f"repetitions: {', '.join(f'{len(v)} {k}' for k, v in reps.items())}; "
          f"body sha256 {', '.join(sorted(digests)) or '-'}")
    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:52} {value:14.6f} {unit:6} {notes.get(name, '')}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted if k in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the suite's acceptance seed")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "procpolar" / "cli.py").is_file():
        sys.stderr.write(f"no procpolar sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    result = run(workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
