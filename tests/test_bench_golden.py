"""The benchmark's golden records, checked in-process.

Runs the first cycle of each workload in `bench/workloads.py` at the default
seed and compares every op with `bench/golden/<workload>.json` through
`workloads.matches_golden`, the comparison the benchmark makes.  The
benchmark checks op 0 on every run, so a change of the arithmetic that moves
a golden value fails here in seconds instead of in a benchmark run.  Only
reads `bench/`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cycle_matches_golden(name):
    golden = json.loads((BENCH / "golden" / f"{name}.json").read_text())
    assert golden["seed"] == workloads.DEFAULT_SEED
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    assert len(golden["records"]) == wl.cycle
    for i, want in enumerate(golden["records"]):
        inp = wl.make_input(i)
        out = wl.run(inp)
        wl.check(inp, out)
        assert workloads.matches_golden(wl.view(inp, out), want), f"{name} op {i}: {inp}"
