"""Golden JSON records of the command line, one small config per command.

Each case runs `statesphere.cli.main(argv)` in-process and compares the
printed record with `tests/golden/<case>.json`: numbers must agree within
|got - want| <= 1e-9 |want| + 1e-12, everything else exactly, dict key order
included.  Rewrite the golden files (only when a change of the records is
intended) with

    PYTHONPATH=src python tests/test_cli_records.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from statesphere.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "constants": ["constants"],
    "distance": ["distance", "--kernel", "translation:1.5",
                 "--state", "0.6@delta:0|0.8j@packet:1:0.7:0.3", "--packet", "0.5:1.2"],
    "geodesic": ["geodesic", "--kernel", "confined:0.1,1", "--delta", "0",
                 "--state", "1@packet:1:0.8|0.5@wave:0.4", "--samples", "5"],
    "metric": ["metric", "--kernel", "confined:0.1,1", "--at=0.5,-1,2"],
    "gram": ["gram", "--random", "8", "--dim", "2", "--seed", "7"],
    "double-slit": ["double-slit", "--grid=-30,30,601", "--coeffs", "1,0.7j"],
    "epr-position": ["epr", "--profile", "position", "--n", "16", "--a-values=-1,0,1",
                     "--grid=-2,2,9", "--measure-position", "0.5"],
    "epr-momentum": ["epr", "--profile", "momentum", "--n", "16", "--a-values=-1,0,1",
                     "--grid=-2,2,5", "--measure-momentum", "0.5"],
    "oracle-verify": ["oracle-verify", "--count", "4", "--seed", "3"],
}


def run_record(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def assert_close(got, want, where: str = "record"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{index}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= 1e-9 * abs(want) + 1e-12, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_matches_golden(case):
    want = json.loads((GOLDEN / f"{case}.json").read_text())
    assert_close(run_record(CASES[case]), want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        record = run_record(argv)
        (GOLDEN / f"{case}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {case}", file=sys.stderr)
