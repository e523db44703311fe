"""End-to-end tests of the command-line interface."""

import json
import math
import subprocess
from pathlib import Path

from helpers import run_python
from statesphere import cli
from statesphere.cli import main


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "statesphere", *args)


def record_of(cp: subprocess.CompletedProcess) -> dict:
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "unit sphere" in cp.stdout


def test_constants():
    record = record_of(run_cli("constants"))
    assert record["schema_version"] == 1
    assert record["results"]["planck_length_m"] == 1.6e-35
    assert record["results"]["light_speed_m_per_s"] == 2.99792458e8


def test_distance_between_far_deltas():
    record = record_of(run_cli("distance", "--kernel", "translation:1",
                               "--delta", "0", "--delta", "6"))
    angle = record["results"]["angle"]
    assert abs(angle - (math.pi / 2 - math.exp(-18.0))) < 1e-12


def test_distance_superposition_state():
    record = record_of(run_cli("distance", "--state", "1@delta:0|1@delta:30",
                               "--delta", "0"))
    assert abs(record["results"]["angle"] - math.pi / 4) < 1e-9


def test_geodesic_with_csv(tmp_path: Path):
    out = tmp_path / "path.csv"
    record = record_of(run_cli("geodesic", "--delta", "0", "--delta", "2",
                               "--samples", "5", "--csv", str(out)))
    assert record["results"]["collapse_time_s"] < 1.7e-43
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,angle_from_start"
    assert len(lines) == 6


def test_metric_command():
    record = record_of(run_cli("metric", "--at", "0.5,0.5,0.5"))
    assert record["results"]["deviation"] < 1e-6
    matrix = record["results"]["matrix"]
    assert len(matrix) == 3 and abs(matrix[0][0] - 1.0) < 1e-6


def test_gram_command_random():
    record = record_of(run_cli("gram", "--random", "20", "--seed", "7"))
    assert record["results"]["positive"] is True
    assert record["results"]["min_eigenvalue"] > 0


def test_double_slit_defaults(tmp_path: Path):
    out = tmp_path / "curve.csv"
    record = record_of(run_cli("double-slit", "--csv", str(out)))
    results = record["results"]
    assert results["visibility"] > 0.9
    spacing = results["fringe_spacing"]
    assert abs(spacing - results["predicted_fringe_spacing"]) < 0.1 * spacing
    assert len(results["segments"]) == 4
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,intensity"
    assert len(lines) == 1202


def test_double_slit_which_path():
    record = record_of(run_cli("double-slit", "--which-path"))
    assert record["results"]["visibility"] < 0.01
    kinds = [seg["kind"] for seg in record["results"]["segments"]]
    assert kinds == ["propagation", "refraction-split", "collapse", "propagation"]


def test_epr_position_profile():
    record = record_of(run_cli("epr", "--profile", "position", "--a-values=-5,0,5",
                               "--grid=-3,3,25", "--n", "48"))
    for ridge in record["results"]["position_ridge"]:
        assert abs(ridge["argmax_b"] - ridge["expected_b"]) <= ridge["grid_step"] + 1e-12


def test_epr_momentum_profile_and_collapse():
    record = record_of(run_cli("epr", "--profile", "momentum", "--a-values=-1,0,1",
                               "--grid=-2,2,9", "--n", "32",
                               "--measure-momentum", "0.5"))
    for ridge in record["results"]["momentum_ridge"]:
        assert abs(ridge["argmax_q2"] - ridge["expected_q2"]) <= ridge["grid_step"] + 1e-12
    collapse = record["results"]["momentum_collapse"]
    assert collapse["partner_momentum"] == -0.5
    assert collapse["collapse_time_s"] < 1e-43


def test_epr_momentum_ridge_off_grid(capsys):
    # 0.3 is not a point of the 9-point grid; its ridge is scanned all the same
    assert main("epr --profile momentum --a-values=0.3,1 --grid=-2,2,9".split()) == 0
    ridges = json.loads(capsys.readouterr().out)["results"]["momentum_ridge"]
    assert [ridge["q1"] for ridge in ridges] == [0.3, 1.0]
    for ridge in ridges:
        assert abs(ridge["argmax_q2"] - ridge["expected_q2"]) <= ridge["grid_step"] + 1e-12


def test_oracle_verify():
    record = record_of(run_cli("oracle-verify", "--count", "6", "--seed", "3"))
    assert record["results"]["passed"] is True
    assert record["results"]["max_rel_error"] <= 1e-6


def test_round_trip_reproducibility():
    first = record_of(run_cli("gram", "--random", "10", "--seed", "42"))
    # re-run from the embedded config alone
    from statesphere.cli import run_record

    second, _ = run_record(first["command"], first["config"])
    assert second == first


MALFORMED = [
    "gram --box 1",
    "gram --random 0",
    "double-slit --slits=1",
    "double-slit --grid=-30,30",
    "double-slit --coeffs 1,x",
    "epr --grid=-2,2",
    "geodesic --delta 0 --delta 1 --samples -1",
    "oracle-verify --count -1",
    "geodesic --delta 0 --delta 1 --speed nan",
    "geodesic --delta 0 --delta 1 --speed inf",
    "metric --at nan,0,0",
    "metric --at inf,0,0",
    "oracle-verify --tolerance nan",
    "oracle-verify --tolerance inf",
    "oracle-verify --tolerance -1",
    "epr --alpha nan",
    "epr --alpha inf",
    "epr --a-values nan",
    "double-slit --detected-point inf",
    "gram --box nan,1 --random 3",
    "epr --envelope-width nan",
    "double-slit --detected-point nan",
    "epr --x0 inf",
    "epr --measure-position inf --profile none",
    "epr --measure-momentum nan --profile none",
    "epr --profile momentum --a-values inf",
    "epr --grid=-inf,2,17",
    "gram --box 1,0 --random 3",
    "gram --points 0,0;1,1 --box 0,inf",
    "double-slit --grid=-30,inf,101",
    "double-slit --slits nan,1",
    "double-slit --coeffs infj,1",
    "epr --n 100000000000000000000",
    "epr --n 1025",
]

# (argv, flag the error message must name): counts beyond the CLI's bounds
OUT_OF_RANGE = [
    ("gram --random 100000000000000000000", "--random"),
    ("gram --random 30000 --dim 1", "--random"),
    ("gram --random 1025", "--random"),
    ("gram --random 5 --dim 4", "--dim"),
    ("geodesic --delta 0 --delta 1 --samples 100000000000000000000", "--samples"),
    ("geodesic --delta 0 --delta 1 --samples 100001", "--samples"),
    ("double-slit --grid=-30,30,100000000000000000000", "--grid"),
    ("double-slit --grid=-30,30,100001", "--grid"),
    ("epr --grid=-2,2,100000000000000000000", "--grid"),
    ("epr --grid=-2,2,100001", "--grid"),
    ("epr --profile momentum --grid=-2,2,317", "--grid"),
    ("oracle-verify --count 100001", "--count"),
    # one ridge scan of COUNT points per a-value
    ("epr --n 8 --a-values=" + ",".join(["0"] * 300) + " --grid=-2,2,100000", "--a-values"),
    ("epr --n 8 --profile momentum --a-values=" + ",".join(["0"] * 317) + " --grid=-2,2,316",
     "--a-values"),
]
MALFORMED += [argv for argv, _ in OUT_OF_RANGE]

# (argv, config field the error message must name)
NON_FINITE = [
    ("epr --alpha nan", "confined_alpha"),
    ("epr --envelope-width nan", "envelope_width"),
    ("epr --x0 inf", "x0"),
    ("epr --measure-position inf --profile none", "measured_position"),
    ("epr --measure-momentum nan --profile none", "measured_momentum"),
    ("epr --a-values nan", "a_values"),
    ("double-slit --detected-point nan", "detected_point"),
    ("double-slit --slits nan,1", "slit_positions"),
    ("double-slit --coeffs infj,1", "coefficients"),
    ("gram --box nan,1 --random 3", "box"),
]


def test_invalid_input_exit_code_two(capsys):
    cp = run_cli("distance", "--kernel", "translation:0", "--delta", "0", "--delta", "1")
    assert cp.returncode == 2
    error = json.loads(cp.stderr)
    assert error["error"]["type"] == "DomainError"
    for argv in MALFORMED:  # in-process: one interpreter for all inputs
        assert main(argv.split()) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert json.loads(captured.err)["error"]["type"] == "DomainError", argv


def test_non_finite_input_names_field(capsys):
    for argv, field in NON_FINITE:
        assert main(argv.split()) == 2, argv
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert field in message, (argv, message)


def test_out_of_range_count_names_flag(capsys):
    for argv, flag in OUT_OF_RANGE:
        assert main(argv.split()) == 2, argv
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert flag in message, (argv, message)


def test_counts_at_their_bounds_run(capsys):
    for argv in ("gram --random 1024 --dim 1", "epr --profile momentum --grid=-2,2,316 --n 8",
                 "epr --n 8 --a-values=" + ",".join(["0"] * 10) + " --grid=-2,2,10000"):
        assert main(argv.split()) == 0, argv
    capsys.readouterr()


def test_parser_built_once(capsys, monkeypatch):
    argvs = ["constants", "distance --delta 0 --delta 1", "gram --random 0",
             "gram --random 5 --seed 3", "constants --bogus", "constants"]

    def outputs():
        out = []
        for argv in argvs:
            try:
                code = main(argv.split())
            except SystemExit as exc:  # argparse rejects unknown flags itself
                code = exc.code
            out.append((code, *capsys.readouterr()))
        return out

    cli._parser.cache_clear()
    cached = outputs()
    assert cli._parser.cache_info().misses == 1
    assert [code for code, *_ in cached] == [0, 0, 2, 0, 2, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == cached
    assert cli.build_parser() is not cli.build_parser()


def test_numerical_failure_exit_code_three():
    cp = run_cli("distance", "--kernel", "translation:1", "--wave", "1", "--wave", "2")
    assert cp.returncode == 3
    error = json.loads(cp.stderr)
    assert error["error"]["type"] == "DivergenceError"


def test_unknown_flag_rejected():
    cp = run_cli("constants", "--bogus")
    assert cp.returncode == 2
