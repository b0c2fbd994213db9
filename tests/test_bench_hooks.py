"""The names and generators the benchmark in ``suitebench/`` hooks into.

The benchmark wraps the functions its ``LAYERS`` table names and replays
the suites' first generator calls to pick instance sizes; a rename or
deletion here would otherwise surface only as a crashed benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SUITEBENCH = Path(__file__).resolve().parents[1] / "suitebench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"suitebench_{name}", SUITEBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_layer_names_resolve():
    spans = _load("spans")
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"procpolar.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"procpolar.{layer}.{name}"


def test_workload_seed_draws_run_at_default_seeds():
    workloads = _load("workloads")
    for w in workloads.WORKLOADS.values():
        seeds = workloads.draw_seeds(w, w.default_seed)
        assert len(seeds) == w.calls, w.name
