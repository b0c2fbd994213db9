"""One repetition of a workload, or one set-up sample, in a fresh interpreter.

    python3 suitebench/child.py SUITE SEED[,SEED...] [--trace SPANS_PATH]
    python3 suitebench/child.py --setup-only

A repetition calls ``procpolar.cli.main`` once per seed with
``fuzz SUITE --count 1 --seed SEED --format machine`` and captures the
machine body.  It prints one JSON line: suite seconds, peak RSS, exit codes
and bodies, and either per-instance seconds (plain) or the per-layer
summary of the spans (traced).  ``--setup-only`` prints the seconds taken to
import ``procpolar.cli``, the set-up a user pays on every ``procpolar``
command.

The speed of a shared machine drifts: the same repetition took from 6.5 s
to 11.0 s within minutes on a 2-CPU host.  So between calls, at least every
``CAL_EVERY_S``, the child times a fixed exact elimination (``_calibrate``),
the kind of ``Fraction`` work the LP core does.  Suite and layer times are
reported at the reference speed: wall time times ``CAL_REF_S`` over the mean
calibration time.  On that host, over eight repetitions of the market
workload, this cut the coefficient of variation from 9.7% to 2.7%.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
CAL_EVERY_S = 0.25
CAL_REF_S = 0.006  # reference duration of one _calibrate() call
_CAL_ROWS = tuple(
    tuple(Fraction((3 * i + 5 * j) % 11 - 4, (2 * i + j) % 5 + 1) for j in range(9))
    for i in range(8)
)
CHECKS = (
    "check_conditional_instance",
    "check_process_instance",
    "check_polar_closure_instance",
    "check_market_instance",
)


def _import_cli():
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import procpolar.cli

    setup_s = perf_counter() - start
    if Path(procpolar.cli.__file__).resolve().parent != SRC / "procpolar":
        raise SystemExit(f"procpolar imported from {procpolar.cli.__file__}, not {SRC}")
    return procpolar.cli, setup_s


def _calibrate() -> float:
    """Seconds for a fixed amount of exact row reduction on one 8x9 rational matrix."""
    start = perf_counter()
    for _ in range(3):
        rows = [list(r) for r in _CAL_ROWS]
        for c in range(len(rows)):
            pivot = next((r for r in rows[c:] if r[c]), None)
            if pivot is None:
                continue
            inv = 1 / pivot[c]
            for r in rows:
                if r is not pivot and r[c]:
                    f = r[c] * inv
                    for k, v in enumerate(pivot):
                        if v:
                            r[k] -= f * v
    return perf_counter() - start


def _time_instances(fuzz, durations: list[float]) -> None:
    """Time each check_*_instance call; the suite loop looks them up in fuzz."""

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(perf_counter() - start)

        return wrapper

    for name in CHECKS:
        setattr(fuzz, name, timed(getattr(fuzz, name)))


def main(argv: list[str]) -> int:
    if argv == ["--setup-only"]:
        _calibrate()  # warm-up
        before = _calibrate()
        _, setup_s = _import_cli()
        scale = CAL_REF_S / statistics.mean((before, _calibrate()))
        print(json.dumps({"setup_s": setup_s * scale}))
        return 0
    suite, seeds = argv[0], [int(s) for s in argv[1].split(",")]
    spans_path = argv[3] if argv[2:3] == ["--trace"] else None

    cli, _ = _import_cli()
    durations: list[float] = []
    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _time_instances(sys.modules["procpolar.fuzz"], durations)

    calls = []
    wall_s = 0.0
    cal = [_calibrate()]
    last_cal = perf_counter()
    for seed in seeds:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(
                    ["fuzz", suite, "--count", "1", "--seed", str(seed), "--format", "machine"]
                )
            except Exception:  # a crash fails this call's instances, not the run
                code = None
                err.write(traceback.format_exc())
        wall_s += perf_counter() - start
        calls.append({"seed": seed, "code": code, "body": out.getvalue(), "stderr": err.getvalue()})
        if perf_counter() - last_cal >= CAL_EVERY_S:
            cal.append(_calibrate())
            last_cal = perf_counter()
    cal.append(_calibrate())
    scale = CAL_REF_S / statistics.mean(cal)

    result = {
        "suite_s": wall_s * scale,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
    }
    if tracer is None:
        result["instance_s"] = [d * scale for d in durations]
    else:
        result["layers"] = tracer.summary(wall_s, scale)
        tracer.dump(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
