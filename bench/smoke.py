"""Smoke test of the benchmark itself; about four minutes on 2 cores.

    python3 bench/smoke.py

Runs every workload for one cycle of its op mix (two when traced) and
checks that the last stdout line has the contract's keys and exactly the
metric names and units of BENCHMARK.json.  Then checks that a deliberately failing output check
is counted in `failed` and `error_rate` instead of being swallowed, and that
run.py fails without printing a result in a directory holding only
BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def last_json(cp: subprocess.CompletedProcess) -> dict:
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout.strip().splitlines()[-1])


def check_shape(result: dict, section: str):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{section}: names or units differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, name
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = last_json(run("--workload", workload, "--seed", "1234",
                                   "--seconds", "0.5", "--trace", str(trace)))
            check_shape(result, section)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            print(f"ok  {workload} trace={trace} attempted={result['attempted']}")

    for trace in (0, 1):
        result = last_json(run("--workload", "point_queries", "--seed", "5", "--seconds", "1",
                               "--trace", str(trace), "--fail-op", "2"))
        assert not result["correct"] and result["failed"] == 1, result
        if trace:
            rate = result["metrics"]["error_rate"]["value"]
            assert rate == 1 / result["attempted"], (rate, result["attempted"])
        print(f"ok  deliberate check failure counted (trace={trace})")

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copytree(HERE / "golden", bare / "bench" / "golden")
    cp = run("--workload", "epr", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert cp.returncode != 0 and '"metrics"' not in cp.stdout, cp
    print("ok  fails without a result when the package is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
