#!/usr/bin/env python3
"""Run all randomized duality suites and print their summaries.

A heavier, configurable version of what the acceptance tests pin down:

    python3 scripts/verify_theorems.py --seed 42 --conditional 500 --process 200
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from procpolar.fuzz import (  # noqa: E402
    ConditionalFuzzConfig,
    MarketFuzzConfig,
    PolarClosureConfig,
    ProcessFuzzConfig,
    run_conditional_suite,
    run_market_suite,
    run_polar_closure_suite,
    run_process_suite,
)


def positive(text: str) -> int:
    """An instance count: a suite of none would pass vacuously."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--conditional", type=positive, default=200)
    parser.add_argument("--process", type=positive, default=100)
    parser.add_argument("--closure", type=positive, default=25)
    parser.add_argument("--market", type=positive, default=40)
    args = parser.parse_args()

    runs = (
        (run_conditional_suite, ConditionalFuzzConfig(count=args.conditional, seed=args.seed)),
        (run_process_suite, ProcessFuzzConfig(count=args.process, seed=args.seed)),
        (run_polar_closure_suite, PolarClosureConfig(instances=args.closure, seed=args.seed)),
        (run_market_suite, MarketFuzzConfig(count=args.market, seed=args.seed)),
    )
    ok = True
    for runner, config in runs:
        start = time.monotonic()
        result = runner(config)
        elapsed = time.monotonic() - start
        print(f"{result.summary()}  [{elapsed:.1f}s]")
        for failure in result.failures():
            print(f"  instance {failure.index} ({failure.kind}): {failure.detail}")
        ok &= result.all_ok
    print("all suites passed" if ok else "FAILURES FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
