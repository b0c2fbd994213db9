"""The three workloads and the stratified draw of their suite seeds.

A workload is a list of ``procpolar fuzz SUITE --count 1 --seed S`` calls,
run back to back in one interpreter.  Instance cost grows steeply with
instance size (event-tree nodes, sample-space outcomes, generators,
assets), and a plain ``--count N --seed S`` suite draws those sizes at
random: over suite seeds 0-9, ``fuzz market --count 40`` took 23-53 s and
``fuzz fbt --count 100`` 2.2-4.2 s on one 2-CPU machine.  No bound could
hold such a spread, so each workload fixes how many instances of each size
it holds and draws the seeds from ``--seed``: the seed changes the
instances, not the mix of sizes.

The sizes of a seed's instances are read by replaying the first generator
calls of the suite's ``check_*_instance`` on the same derived random
streams, with the suite's default configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

# suite seeds drawn for --seed n start at n * SEED_STRIDE, so different
# benchmark seeds never share an instance
SEED_STRIDE = 1_000_000
MAX_SCAN = 200_000


@dataclass(frozen=True)
class Workload:
    """``facets`` holds one table per instance a call runs (fbt runs a
    process and a polar-closure instance): size key -> instances wanted.
    A seed is kept only while every facet has room for its instance."""

    name: str  # the `procpolar fuzz` suite it runs
    default_seed: int  # the suite's acceptance seed
    facets: tuple[dict[Hashable, int], ...]

    @property
    def calls(self) -> int:
        return sum(self.facets[0].values())

    @property
    def instances_per_call(self) -> int:
        return len(self.facets)


def _each(quota: int, keys) -> dict[Hashable, int]:
    return {k: quota for k in keys}


# Markets stop at 8 tree nodes: an instance of 9-10 nodes takes about 0.5 s,
# and a run must repeat the workload three times within 30 s.  A tree of
# depth h has 2-4 nodes for h = 1, 3-13 for h = 2 and 4-40 for h = 3.
_TREES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)) + tuple(
    (n, h) for n in range(5, 9) for h in (2, 3)
)
WORKLOADS = {
    w.name: w
    for w in (
        # (sample-space outcomes, generators, partition blocks)
        Workload(
            "cbt",
            42,
            (
                _each(
                    4,
                    (
                        (k, g, b)
                        for k in range(2, 7)
                        for g in range(1, 5)
                        for b in range(1, min(3, k) + 1)
                    ),
                ),
            ),
        ),
        # process instance: (tree nodes, generators); polar-closure instance:
        # tree nodes in 2-4, 5-8 or 9-13 (finer closure sizes would make the
        # draw scan tens of thousands of seeds for the last pairs).  Process
        # trees stop at 10 nodes: beyond that one instance's time varies by
        # about 50% with its probes, which made the tail latency unsteady.
        Workload(
            "fbt",
            7,
            (
                _each(6, ((n, g) for n in range(3, 11) for g in range(1, 5))),
                _each(64, (range(2, 5), range(5, 9), range(9, 14))),
            ),
        ),
        # (tree nodes, tree depth, assets)
        Workload("market", 11, (_each(2, ((n, h, d) for n, h in _TREES for d in (1, 2))),)),
    )
}


def _key_function(workload: Workload) -> Callable[[int], tuple]:
    """Seed -> size keys of the instances of `fuzz SUITE --count 1 --seed seed`."""
    from procpolar import fuzz

    if workload.name == "cbt":
        cfg = fuzz.ConditionalFuzzConfig()

        def key(seed: int) -> tuple:
            rng = fuzz.instance_rng("conditional", seed, 0)
            space = fuzz.random_space(rng, cfg.max_outcomes)
            part = fuzz.random_partition(rng, space, cfg.max_blocks)
            c = fuzz.random_rvset(rng, space, part, cfg.max_generators)
            return ((space.size, len(c.generators), len(part.blocks)),)

    elif workload.name == "fbt":
        cfg, closure = fuzz.ProcessFuzzConfig(), fuzz.PolarClosureConfig()
        closure_bands = tuple(workload.facets[1])

        def key(seed: int) -> tuple:
            rng = fuzz.instance_rng("process", seed, 0)
            tree = fuzz.random_tree(rng, cfg.max_depth, cfg.max_branching)
            c = fuzz.random_process_set(rng, tree, cfg.max_generators)
            rng = fuzz.instance_rng("polar-closure", seed, 0)
            nodes = fuzz.random_tree(rng, closure.max_depth, closure.max_branching).num_nodes
            band = next((b for b in closure_bands if nodes in b), None)
            return ((tree.num_nodes, len(c.generators)), band)

    else:
        cfg = fuzz.MarketFuzzConfig()
        trees = {k[:2] for k in workload.facets[0]}

        def key(seed: int) -> tuple:
            rng = fuzz.instance_rng("market", seed, 0)
            tree = fuzz.random_tree(rng, cfg.max_depth, cfg.max_branching)
            if (tree.num_nodes, tree.horizon) not in trees:
                return (None,)  # skip building (and validating) a market not wanted
            m = fuzz.random_market(rng, tree, cfg.max_assets)
            return ((tree.num_nodes, tree.horizon, m.d),)

    return key


def draw_seeds(workload: Workload, seed: int) -> list[int]:
    """Suite seeds for one run, in scan order, filling every facet's quotas."""
    key = _key_function(workload)
    left = [dict(f) for f in workload.facets]
    chosen: list[int] = []
    start = seed * SEED_STRIDE
    for s in range(start, start + MAX_SCAN):
        keys = key(s)
        if all(room.get(k, 0) > 0 for room, k in zip(left, keys)):
            for room, k in zip(left, keys):
                room[k] -= 1
            chosen.append(s)
            if len(chosen) == workload.calls:
                return chosen
    raise RuntimeError(f"{workload.name}: sizes left unfilled after {MAX_SCAN} seeds: {left}")
