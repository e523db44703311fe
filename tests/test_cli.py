"""End-to-end tests of the command-line interface."""

import ast
import json
import math
import re
import shlex
import subprocess
import time
from pathlib import Path

import pytest

from helpers import run_python
from statesphere import DomainError, cli
from statesphere.cli import main


README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "statesphere", *args)


def record_of(cp: subprocess.CompletedProcess) -> dict:
    assert cp.returncode == 0, cp.stderr
    return json.loads(cp.stdout)


def test_help():
    # usage errors print JSON, but --help and --version still print and exit 0
    for flag, text in (("--help", "unit sphere"), ("--version", "0.1.0")):
        cp = run_cli(flag)
        assert cp.returncode == 0
        assert text in cp.stdout


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
    theta = record["results"]["theta"]
    for line in lines[1:]:  # a great circle: the sample at t lies t theta from the start
        t, angle = map(float, line.split(","))
        assert angle == t * theta


def test_state_flags_keep_command_line_order(capsys):
    # the geodesic runs from the first state given to the second, whatever
    # flags name them; each sugar flag adds its kind
    assert main("geodesic --packet 1:1 --delta 0 --samples 2".split()) == 0
    forward = json.loads(capsys.readouterr().out)
    assert forward["config"]["states"] == ["packet:1:1", "delta:0"]
    assert main("geodesic --state delta:0 --wave 0.5 --kernel confined:0.1,1 "
                "--samples 2".split()) == 0
    assert json.loads(capsys.readouterr().out)["config"]["states"] == ["delta:0", "wave:0.5"]
    assert main("geodesic --delta 0 --state packet:1:1 --samples 2".split()) == 0
    backward = json.loads(capsys.readouterr().out)
    assert backward["config"]["states"] == ["delta:0", "packet:1:1"]
    assert backward["results"]["theta"] == pytest.approx(forward["results"]["theta"], rel=1e-12)


def test_metric_command():
    record = record_of(run_cli("metric", "--at", "0.5,0.5,0.5"))
    assert record["results"]["deviation"] < 1e-6
    matrix = record["results"]["matrix"]
    assert len(matrix) == 3 and abs(matrix[0][0] - 1.0) < 1e-6


# 1e-10 printed [[0.0]] (the mixed difference cancels), 1e-170 raised a
# ZeroDivisionError (4 h^2 underflows), 1000 reported 2.5e-6
@pytest.mark.parametrize("step", ["1e-10", "1e-170", "1000"])
def test_metric_step_outside_window_rejected(step, capsys):
    assert main(["metric", "--at", "0", "--step", step]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DomainError" and "--step" in error["message"]


def test_metric_far_from_the_origin(capsys):
    # rounding moved the stencil corners: --at 1e13 reported [[-1.2716]] with exit 0
    assert main(["metric", "--at", "1e13"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "DomainError" and error["message"].startswith("at ")
    record = record_of(run_cli("metric", "--at", "1e7"))
    assert record["results"]["matrix"] == [[0.9999953608693287]]


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


def test_double_slit_one_open_slit_with_a_phased_coefficient(capsys):
    # --coeffs=0,-1 exited 2: "state has zero or undefined norm (0.0)"
    for phased, plain in (("0,-1", "0,1"), ("-1,0", "1,0"), ("0,-0.3", "0,0.3"), ("-2,0", "2,0"),
                          ("0,1j", "0,1")):
        segments = []
        for coeffs in (phased, plain):
            assert main(["double-slit", f"--coeffs={coeffs}"]) == 0, coeffs
            segments.append(json.loads(capsys.readouterr().out)["results"]["segments"])
        assert segments[0] == segments[1], phased


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


def test_epr_profile_compiles_its_overlap_once(monkeypatch, capsys):
    # every a-value's profile, and the momentum ridge rows, evaluate one
    # compiled overlap
    from statesphere.manifolds import ManifoldOverlap
    compile_overlap = ManifoldOverlap.__init__
    compiles = []

    def counting(self, *args):
        compiles.append(args)
        compile_overlap(self, *args)

    monkeypatch.setattr(ManifoldOverlap, "__init__", counting)
    for profile in ("position", "momentum"):
        compiles.clear()
        argv = f"epr --profile {profile} --n 16 --a-values=0.3,1 --grid=-2,2,9".split()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(compiles) == 1, profile


def test_epr_momentum_defaults_keep_ridges_on_grid(capsys):
    assert main("epr --profile momentum --n 16".split()) == 0
    record = json.loads(capsys.readouterr().out)
    lo, hi, _ = record["config"]["grid"]
    ridges = record["results"]["momentum_ridge"]
    assert [ridge["q1"] for ridge in ridges] == [-1.0, 0.0, 1.0]
    for ridge in ridges:
        assert lo <= ridge["expected_q2"] <= hi
        assert abs(ridge["argmax_q2"] - ridge["expected_q2"]) <= ridge["grid_step"] + 1e-12


def test_epr_momentum_ridge_outside_grid_rejected(capsys):
    assert main("epr --profile momentum --n 16 --a-values=0,5".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DomainError"
    assert "--a-values" in error["message"]


@pytest.mark.parametrize("x0", ["1e17", "1e200"])
def test_epr_grid_without_spacing_rejected(x0, capsys):
    # the ridge grid's points coincided (grid_step 0.0) and the ridges were read
    # from NaN overlaps, with exit code 0
    assert main(f"epr --x0 {x0}".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DomainError"
    assert "--grid" in error["message"] and "--x0" in error["message"]


def test_epr_non_finite_ridge_fails(capsys):
    # a spaced grid, but b^2 of the compiled overlap overflows (an x0 of 1e160,
    # which reached the overlap before, now fails in building the state)
    assert main("epr --x0 1 --a-values=0 --grid=-1e307,1e307,5".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "NumericalFailureError"


def test_epr_non_finite_ridge_names_the_flags(capsys):
    # the library raises without flags; the cli adds them, stderr as before
    assert main("epr --x0 1 --a-values=0 --grid=-1e307,1e307,5".split()) == 3
    assert capsys.readouterr().err == (
        '{"error": {"type": "NumericalFailureError", "message": "the overlap along the ridge '
        'row at 0.0 is not finite; --x0 or --grid is too large"}}\n')


@pytest.mark.parametrize("x0", ["1e15", "1e17"])
def test_epr_partner_rounding_rejected(x0, capsys):
    # rounding x0 + u moved the partner points: arc_length 1.1253 at 1e15 and
    # 1.0156 at 1e17 against 1.11083847393 at 1, with exit code 0
    assert main(f"epr --profile none --measure-position 0 --x0 {x0}".split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DomainError" and "--x0" in error["message"]


def test_epr_collapse_near_origin_runs(capsys):
    arcs = []
    for x0 in ("1", "1e8"):
        assert main(f"epr --profile none --measure-position 0 --x0 {x0}".split()) == 0
        arcs.append(json.loads(capsys.readouterr().out)["results"]["position_collapse"]
                    ["arc_length"])
    assert arcs[0] == pytest.approx(arcs[1], abs=1e-9)


@pytest.mark.xfail(strict=True, reason="the expanded quadratic exponent cancels at x0 = 1e8 "
                   "(ROADMAP item 4): argmax_b is 99999999.0, four grid steps off")
def test_epr_ridge_far_from_origin(capsys):
    assert main("epr --x0 1e8 --a-values=0".split()) == 0
    (ridge,) = json.loads(capsys.readouterr().out)["results"]["position_ridge"]
    assert abs(ridge["argmax_b"] - ridge["expected_b"]) <= ridge["grid_step"]


def test_geodesic_samples_in_one_pass(capsys):
    start = time.perf_counter()
    assert main("geodesic --delta 0 --delta 1 --samples 100000".split()) == 0
    elapsed = time.perf_counter() - start
    record = json.loads(capsys.readouterr().out)
    assert record["config"]["samples"] == 100000
    assert elapsed < 0.5  # one sphere_angle per sample took about 5 s


def test_csv_rows_built_only_for_csv(tmp_path: Path, monkeypatch, capsys):
    geodesic = cli.run_geodesic
    calls = []

    def counting(config):
        results, rows = geodesic(config)
        return results, lambda: calls.append(config) or rows()

    monkeypatch.setitem(cli._RUNNERS, "geodesic", counting)
    argv = ["geodesic", "--delta", "0", "--delta", "1", "--samples", "5"]
    assert main(argv) == 0
    assert calls == []
    out = tmp_path / "path.csv"
    assert main(argv + ["--csv", str(out)]) == 0
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 6
    capsys.readouterr()


def test_position_profile_csv_rows(tmp_path: Path, capsys):
    # one (a, b, overlap) row per a-value and grid point, peaking where the record says
    out = tmp_path / "profile.csv"
    argv = "epr --profile position --n 16 --a-values=-1,0,1 --grid=-2,2,9 --csv".split()
    assert main(argv + [str(out)]) == 0
    ridges = json.loads(capsys.readouterr().out)["results"]["position_ridge"]
    header, *rows = out.read_text().splitlines()
    assert header == "a,b,overlap" and len(rows) == 27
    table = [tuple(map(float, row.split(","))) for row in rows]
    for ridge in ridges:
        profile = [(b, v) for a, b, v in table if a == ridge["a"]]
        assert len(profile) == 9 and max(profile, key=lambda bv: bv[1])[0] == ridge["argmax_b"]


def test_momentum_profile_built_only_for_csv(tmp_path: Path, monkeypatch, capsys):
    # the ridges scan their own rows; only the csv needs the COUNT^2 profile
    profile = cli.momentum_correlation_profile
    calls = []
    monkeypatch.setattr(cli, "momentum_correlation_profile",
                        lambda *args: calls.append(args) or profile(*args))
    argv = "epr --profile momentum --n 16 --a-values=-1,0,1 --grid=-2,2,9".split()
    assert main(argv) == 0
    assert calls == []
    out = tmp_path / "profile.csv"
    assert main(argv + ["--csv", str(out)]) == 0
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 1 + 9 * 9
    capsys.readouterr()


def test_readme_commands_run(tmp_path: Path, capsys):
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [line for line in block.splitlines() if line.startswith("statesphere ")]
    assert commands
    for line in commands:
        argv = shlex.split(line)[1:]
        if "--csv" in argv:
            at = argv.index("--csv") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, line
        capsys.readouterr()
        if "--csv" in argv:
            assert Path(argv[argv.index("--csv") + 1]).exists(), line


def test_readme_python_examples_run():
    # both blocks in one namespace; each expression line's value by its source
    namespace, values = {}, {}
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                values[ast.unparse(node)] = eval(ast.unparse(node), namespace)
            else:
                exec(ast.unparse(node), namespace)
    assert math.pi / 2 - values["sphere_angle(a, b)"] == pytest.approx(1.52e-8, rel=1e-2)
    assert values["collapse_time(path)"] == pytest.approx(8.38e-44, rel=1e-3)
    assert values["pair.arity"] == 2
    assert values["inner_product(pair, pair, kernel)"] == 1


def test_oracle_verify():
    record = record_of(run_cli("oracle-verify", "--count", "6", "--seed", "3"))
    assert record["results"]["passed"] is True
    assert record["results"]["max_rel_error"] <= 1e-6


def test_oracle_verify_non_finite_error_fails(monkeypatch, capsys):
    # max(0.0, nan) is 0.0: a NaN quadrature printed max_rel_error 0.0 and passed
    monkeypatch.setattr(cli, "quad_pair_overlap", lambda *args: (complex("nan"), math.nan))
    assert main("oracle-verify --count 2".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "type": "NumericalFailureError", "message": "oracle error on pair 0 is not finite"}


def test_round_trip_reproducibility():
    first = record_of(run_cli("gram", "--random", "10", "--seed", "42"))
    # re-run from the embedded config alone
    from statesphere.cli import run_record

    second, _ = run_record(first["command"], first["config"])
    assert second == first


def test_run_record_rejects_an_unknown_command():
    with pytest.raises(DomainError, match="^unknown command 'bogus'"):
        cli.run_record("bogus", {})


@pytest.mark.parametrize("key, value, name", [("x0", "abc", "x0"),
                                              ("alpha", None, "confined_alpha"),
                                              ("a_values", ["abc"], "a_values")])
def test_hand_edited_config_fails_as_domain_error(key, value, name):
    # a non-numeric value in a re-run config raised a bare ValueError or TypeError,
    # which main printed as a traceback instead of the exit-2 JSON error
    config = cli._config_from_args(cli._parser().parse_args(["epr", "--profile", "none"]))[1]
    config[key] = value
    with pytest.raises(DomainError, match=f"^{name} must be a real number"):
        cli.run_record("epr", config)


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
    "metric --at 1,2,3,4",  # d^2 kernel stencils: a long point ran for minutes
    "oracle-verify --tolerance nan",
    "oracle-verify --tolerance inf",
    "oracle-verify --tolerance -1",
    "oracle-verify --tolerance 0",
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
    "distance --packet 0:abc --delta 1",
    "distance --state 1@packet:0:abc --delta 1",
    "distance --packet 0:1,2 --delta 1",
    "distance --delta 0",
    "distance --kernel bogus:1 --delta 0 --delta 1",
    "double-slit --coeffs 1,2,3",
    "distance --state foo:1 --delta 0",
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
    # too few points for the central fringe window
    ("double-slit --grid=-30,30,2", "detector grid is too coarse for the central fringe window"),
    ("epr --grid=-2,2,100000000000000000000", "--grid"),
    ("epr --grid=-2,2,100001", "--grid"),
    ("epr --profile momentum --grid=-2,2,317", "--grid"),
    ("oracle-verify --count 100001", "--count"),
    ("gram --seed -1 --random 3", "--seed"),
    ("oracle-verify --seed -5 --count 1", "--seed"),
    # a list of n points builds an n x n Gram matrix, as --random does
    ("gram --points " + ";".join(str(i) for i in range(1025)), "--points"),
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

# (argv, field the error message must name): finite scales whose derived
# coefficient overflows or divides by an underflowed zero
EXTREME_SCALES = [
    ("distance --delta 0 --delta 1 --kernel translation:1e-200", "sigma"),
    ("distance --delta 0 --delta 1 --kernel translation:1e200", "sigma"),
    ("distance --packet 0:1e-300 --packet 1:1", "packet width"),
    ("distance --packet 0:1e200 --packet 1:1", "packet width"),
    ("double-slit --width 1e-170 --grid=-30,30,101", "packet_width"),
    ("double-slit --wavenumber 1e-300 --grid=-30,30,101", "wavenumber"),
    ("double-slit --distance 1e300 --grid=-30,30,101", "screen_to_detector"),
    ("double-slit --coeffs 1e200,1", "coefficients"),  # |c1|^2 overflows
    ("double-slit --coeffs 1e-200,1e-200", "coefficients"),  # both weights underflow
    ("epr --envelope-width 1e300 --n 8", "envelope_width"),
    ("epr --envelope-width 1e-300 --n 8", "envelope_width"),
]
MALFORMED += [argv for argv, _ in EXTREME_SCALES]


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


def test_confined_kernel_beta_defaults_to_one(capsys):
    results = []
    for spec in ("confined:0.1", "confined:0.1,1"):
        assert main(f"distance --kernel {spec} --delta 0 --delta 1".split()) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]


def test_non_finite_input_names_field(capsys):
    for argv, field in NON_FINITE + EXTREME_SCALES:
        assert main(argv.split()) == 2, argv
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert field in message, (argv, message)


def test_out_of_range_count_names_flag(capsys):
    for argv, flag in OUT_OF_RANGE:
        assert main(argv.split()) == 2, argv
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert flag in message, (argv, message)


def test_counts_at_their_bounds_run(capsys):
    for argv in ("gram --random 1024 --dim 1", "gram --points " + ";".join(map(str, range(1024))),
                 "epr --profile momentum --grid=-2,2,316 --n 8",
                 "epr --n 8 --a-values=" + ",".join(["0"] * 10) + " --grid=-2,2,10000"):
        assert main(argv.split()) == 0, argv
    capsys.readouterr()


def test_parser_built_once(capsys, monkeypatch):
    argvs = ["constants", "distance --delta 0 --delta 1", "gram --random 0",
             "gram --random 5 --seed 3", "constants --bogus", "constants"]

    def outputs():
        return [(main(argv.split()), *capsys.readouterr()) for argv in argvs]

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


def test_near_singular_waves_exit_code_three():
    # det(M) / 4 = conf (conf + 2 pair) > 0: a near singular form, not invalid input
    cp = run_cli("distance", "--kernel", "confined:1e-17,1", "--wave", "0.1", "--wave", "0.2")
    assert cp.returncode == 3
    assert json.loads(cp.stderr)["error"]["type"] == "NumericalFailureError"


@pytest.mark.parametrize("packets", [("0:5e-155", "0:5e-155"), ("1e10:1e-150", "0:1")])
def test_non_finite_packet_profile_exit_code_three(packets, capsys):
    # a LinAlgError traceback (2 s overflows) and a "zero or undefined norm (nan)"
    # DomainError (2 s mu overflows) before packet profiles were checked
    argv = ["distance"] + [arg for packet in packets for arg in ("--packet", packet)]
    assert main(argv) == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "NumericalFailureError" and "profile is not finite" in error["message"]


def test_unknown_flag_rejected():
    cp = run_cli("constants", "--bogus")
    assert cp.returncode == 2
    assert json.loads(cp.stderr)["error"]["type"] == "DomainError"


# (argv, text the message must hold): argparse's own rejections
USAGE_ERRORS = [
    ("constants --bogus", "unrecognized arguments: --bogus"),
    ("geodesic --state -1@delta:0 --delta 0", "--state: expected one argument"),
    ("geodesic --delta 0 --delta 1 --samples x", "--samples: invalid int value"),
    ("epr --profile sideways", "--profile: invalid choice"),
    ("bogus", "invalid choice"),
    ("", "required: command"),
]


@pytest.mark.parametrize("argv, text", USAGE_ERRORS, ids=[argv for argv, _ in USAGE_ERRORS])
def test_usage_errors_print_json(argv, text, capsys):
    # the README's one-line JSON error, exit code 2, instead of a usage text
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "DomainError" and text in error["message"]
