"""Command-line front end.

Each command prints one JSON record to stdout: {"schema_version", "command",
"config", "results"}.  The embedded config is fully resolved, so re-running
it reproduces the record bit for bit.  Curve-producing commands optionally
write a CSV file with a fixed, documented column order.  Exit codes: 0 on
success, 2 on invalid input, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .algebra import (Delta, Packet, PlaneWave, StateExpr, inner_product)
from .errors import DomainError, StateSphereError
from .experiments import (MAX_DISCRETIZATION, EPRConfig, SlitConfig,
                          build_double_slit_trajectory, build_epr_state,
                          momentum_collapse, momentum_correlation_profile,
                          position_collapse, position_correlation_profile)
from .geometry import (UnitSystem, arc_length, collapse_time, fs_angle,
                       geodesic_at, geodesic_between, normalize, sphere_angle,
                       state_overlap)
from .kernels import (ConfinedKernel, KernelSpec, TranslationKernel, _finite,
                      induced_metric)
from .manifolds import ManifoldId, ManifoldOverlap, gram_min_eigenvalue
from .oracle import QuadratureSpec, quad_inner_product

SCHEMA_VERSION = 1
DEFAULT_SEED = 1234
# Bound on the grid points, samples, scanned pairs or random cases one
# command evaluates, so an oversized count fails as bad input.
MAX_POINTS = 100_000


# --------------------------------------------------------------------------
# flag parsing helpers
# --------------------------------------------------------------------------

def parse_kernel(text: str) -> KernelSpec:
    """'translation:SIGMA' or 'confined:ALPHA[,BETA]'."""
    name, _, args = text.partition(":")
    try:
        if name == "translation":
            return TranslationKernel(float(args or 1.0))
        if name == "confined":
            parts = [float(v) for v in args.split(",")] if args else []
            if len(parts) == 1:
                return ConfinedKernel(parts[0])
            if len(parts) == 2:
                return ConfinedKernel(parts[0], parts[1])
    except ValueError as exc:
        raise DomainError(f"bad kernel spec {text!r}: {exc}") from exc
    raise DomainError(f"bad kernel spec {text!r}; use translation:SIGMA or confined:ALPHA,BETA")


def _floats(text: str, count: int | None = None) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad number list {text!r}") from exc
    if count is not None and len(values) != count:
        raise DomainError(f"expected {count} comma-separated numbers, got {text!r}")
    return values


def _grid(text: str) -> list:
    """'LO,HI,COUNT' with finite LO < HI and an integer COUNT from 2 to MAX_POINTS."""
    lo, hi, count = _floats(text, 3)
    if not (-math.inf < lo < hi < math.inf and count.is_integer()
            and 2 <= count <= MAX_POINTS):
        raise DomainError(f"bad --grid {text!r}; need finite LO < HI and an integer "
                          f"COUNT from 2 to {MAX_POINTS}")
    return [lo, hi, int(count)]


def _count(config: dict, key: str, lo: int, hi: int) -> int:
    """config[key] if it lies in [lo, hi]; the error names the flag."""
    if not lo <= config[key] <= hi:
        raise DomainError(f"--{key} must be from {lo} to {hi}, got {config[key]!r}")
    return config[key]


def _complex(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise DomainError(f"bad coefficient {text!r}") from exc


def _slit_coefficients(text: str) -> list[str]:
    coeffs = [str(_complex(c)) for c in text.split(",")]
    if len(coeffs) != 2:
        raise DomainError(f"expected 2 slit coefficients, got {text!r}")
    return coeffs


def parse_primitive(text: str):
    """'delta:COORDS', 'wave:COORDS' or 'packet:COORDS:WIDTH[:MOMENTUM]'."""
    kind, _, rest = text.partition(":")
    if kind == "delta":
        return Delta(_floats(rest))
    if kind == "wave":
        return PlaneWave(_floats(rest))
    if kind == "packet":
        parts = rest.split(":")
        if len(parts) == 2:
            return Packet(_floats(parts[0]), float(parts[1]))
        if len(parts) == 3:
            return Packet(_floats(parts[0]), float(parts[1]), _floats(parts[2]))
    raise DomainError(f"bad primitive spec {text!r}")


def parse_state(text: str) -> StateExpr:
    """One primitive spec, or a superposition 'COEFF@PRIM|COEFF@PRIM|...'."""
    terms = []
    for chunk in text.split("|"):
        coeff, sep, prim = chunk.partition("@")
        if not sep:
            coeff, prim = "1", chunk
        terms.append((_complex(coeff), parse_primitive(prim)))
    return StateExpr(tuple(terms))


# --------------------------------------------------------------------------
# command implementations (config dict -> results dict [+ csv rows])
# --------------------------------------------------------------------------

def run_constants(config: dict):
    units = UnitSystem()
    return {
        "planck_length_m": units.planck_length_m,
        "light_speed_m_per_s": units.light_speed_m_per_s,
        "planck_time_s": units.planck_time_s,
        "max_arc_length": math.pi,
        "max_collapse_time_s": math.pi * units.planck_time_s,
    }, None


def run_distance(config: dict):
    kernel = parse_kernel(config["kernel"])
    a = normalize(parse_state(config["states"][0]), kernel)
    b = normalize(parse_state(config["states"][1]), kernel)
    ov = state_overlap(a, b)
    return {
        "angle": sphere_angle(a, b),
        "fs_angle": fs_angle(a, b),
        "overlap_re": ov.real,
        "overlap_im": ov.imag,
        "raw_norms": [a.raw_norm, b.raw_norm],
    }, None


def run_geodesic(config: dict):
    samples = _count(config, "samples", 0, MAX_POINTS)
    kernel = parse_kernel(config["kernel"])
    start = normalize(parse_state(config["states"][0]), kernel)
    end = normalize(parse_state(config["states"][1]), kernel)
    path = geodesic_between(start, end)
    units = UnitSystem()
    rows = [("t", "angle_from_start")]
    for t in np.linspace(0.0, 1.0, int(samples)):
        rows.append((float(t), sphere_angle(start, geodesic_at(path, float(t)))))
    results = {
        "theta": path.theta,
        "alignment_phase": path.alignment_phase,
        "arc_length_planck": arc_length(path),
        "collapse_time_s": collapse_time(path, units, config["speed"]),
        "speed_m_per_s": config["speed"] or units.light_speed_m_per_s,
    }
    return results, rows


def run_metric(config: dict):
    kernel = parse_kernel(config["kernel"])
    report = induced_metric(kernel, config["at"], config["step"])
    return {
        "point": list(report.point),
        "matrix": report.matrix.tolist(),
        "deviation": report.deviation,
        "reference": report.reference.value,
        "reference_factor": report.reference_factor,
    }, None


def run_gram(config: dict):
    kernel = parse_kernel(config["kernel"])
    lo, hi = (_finite(v, "box") for v in config["box"])
    if lo > hi:
        raise DomainError(f"box needs LO <= HI, got {config['box']!r}")
    if config["points"] is not None:
        points = [_floats(p) for p in config["points"].split(";")]
    else:
        # an n x n Gram matrix: the bound of an n-term EPR state's matrices
        count = _count(config, "random", 1, MAX_DISCRETIZATION)
        dim = _count(config, "dim", 1, 3)
        rng = np.random.default_rng(config["seed"])
        points = [tuple(rng.uniform(lo, hi, dim)) for _ in range(count)]
    value = gram_min_eigenvalue(points, kernel)
    return {"count": len(points), "min_eigenvalue": value, "positive": value > 0}, None


def run_double_slit(config: dict):
    cfg = SlitConfig(
        slit_positions=tuple(config["slits"]),
        coefficients=tuple(complex(c) for c in config["coeffs"]),
        packet_width=config["width"],
        wavenumber=config["wavenumber"],
        screen_to_detector=config["distance"],
        detector_grid=tuple(config["grid"]),
        which_path=config["which_path"],
        detected_point=config["detected_point"],
    )
    trajectory = build_double_slit_trajectory(cfg)
    curve = trajectory.detector
    segments = [{
        "kind": seg.kind.value,
        "arc_length": seg.arc_length,
        "max_residual_angle": seg.max_residual_angle,
        "collapse_time_s": seg.collapse_time_s,
    } for seg in trajectory.segments]
    results = {
        "visibility": curve.visibility,
        "fringe_spacing": curve.fringe_spacing,
        "predicted_fringe_spacing": curve.predicted_fringe_spacing,
        "envelope_width": curve.envelope_width,
        "which_path_slit": curve.which_path_slit,
        "detected_point": curve.detected_point,
        "total_arc_length": trajectory.total_arc_length,
        "segments": segments,
    }
    rows = [("x", "intensity")] + [(x, i) for x, i in curve.points]
    return results, rows


def run_epr(config: dict):
    cfg = EPRConfig(
        x0=config["x0"],
        envelope_width=config["envelope_width"],
        discretization_n=config["n"],
        confined_alpha=config["alpha"],
        measured_position=config["measure_position"],
        measured_momentum=config["measure_momentum"],
    )
    for a in config["a_values"]:
        _finite(a, "a_values")
    lo, hi, count = config["grid"]
    if config["profile"] != "none" and len(config["a_values"]) * count > MAX_POINTS:
        raise DomainError(f"--a-values times the --grid COUNT must be at most {MAX_POINTS} "
                          f"(one ridge scan per value), got {len(config['a_values'])} x {count}")
    units = UnitSystem()
    results: dict = {}
    rows = None
    # one normalized pair state per kernel, shared by profile and collapse
    state_under = functools.cache(lambda kernel: build_epr_state(cfg, kernel))
    if config["profile"] == "position":
        state = state_under(cfg.position_kernel).expr
        rows = [("a", "b", "overlap")]
        ridges = []
        for a in config["a_values"]:
            grid = np.linspace(cfg.x0 + a + lo, cfg.x0 + a + hi, count)
            profile = position_correlation_profile(state, cfg, a, grid)
            rows += [(a, b, v) for b, v in profile]
            best = max(profile, key=lambda bv: bv[1])
            ridges.append({"a": a, "argmax_b": best[0], "expected_b": cfg.x0 + a,
                           "grid_step": float(grid[1] - grid[0])})
        results["position_ridge"] = ridges
    elif config["profile"] == "momentum":
        if count**2 > MAX_POINTS:  # the profile scans every (q1, q2) pair
            raise DomainError(f"--grid COUNT must be at most {math.isqrt(MAX_POINTS)} "
                              f"for a momentum profile, got {count}")
        state = state_under(cfg.momentum_kernel)
        qs = np.linspace(lo, hi, count)
        profile = momentum_correlation_profile(state, cfg, qs)
        rows = [("q1", "q2", "overlap")] + [(q1, q2, v) for (q1, q2), v in profile]
        overlap = ManifoldOverlap(state.expr, state.kernel, ManifoldId.MOMENTUM_PAIR)
        ridges = []  # one row (q1, qs) each, so q1 need not be a grid point
        for q1 in config["a_values"]:
            row = np.abs(overlap(np.column_stack([np.full(count, q1), qs])))
            ridges.append({"q1": q1, "argmax_q2": float(qs[row.argmax()]), "expected_q2": -q1,
                           "grid_step": float(qs[1] - qs[0])})
        results["momentum_ridge"] = ridges
    if cfg.measured_position is not None:
        path = position_collapse(state_under(cfg.position_kernel), cfg.measured_position, cfg)
        results["position_collapse"] = {
            "a": cfg.measured_position,
            "partner_point": cfg.x0 + cfg.measured_position,
            "arc_length": arc_length(path),
            "collapse_time_s": collapse_time(path, units),
        }
    if cfg.measured_momentum is not None:
        path = momentum_collapse(state_under(cfg.momentum_kernel), cfg.measured_momentum, cfg)
        results["momentum_collapse"] = {
            "q": cfg.measured_momentum,
            "partner_momentum": -cfg.measured_momentum,
            "arc_length": arc_length(path),
            "collapse_time_s": collapse_time(path, units),
        }
    return results, rows


def _random_convergent_pair(rng, kernel):
    d = int(rng.choice([1, 1, 1, 2, 3]))
    confined = isinstance(kernel, ConfinedKernel)

    def random_primitive(allow_wave):
        kinds = ["delta", "packet"] + (["wave"] if allow_wave else [])
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "delta":
            return Delta(tuple(rng.uniform(-10, 10, d)))
        if kind == "wave":
            return PlaneWave(tuple(rng.uniform(-1.5, 1.5, d)))
        return Packet(tuple(rng.uniform(-10, 10, d)), float(rng.uniform(0.1, 1.5)),
                      tuple(rng.uniform(-1.5, 1.5, d)))

    f = random_primitive(allow_wave=confined)
    allow_wave = confined or isinstance(f, Packet)
    g = random_primitive(allow_wave=allow_wave)
    if isinstance(f, Delta) and isinstance(g, Delta):
        g = Packet(tuple(rng.uniform(-10, 10, d)), float(rng.uniform(0.1, 1.5)))
    return f, g


def run_oracle_verify(config: dict):
    _count(config, "count", 1, MAX_POINTS)
    if not (math.isfinite(config["tolerance"]) and config["tolerance"] >= 0.0):
        raise DomainError(f"tolerance must be a finite nonnegative number, "
                          f"got {config['tolerance']!r}")
    rng = np.random.default_rng(config["seed"])
    spec = QuadratureSpec()
    worst = 0.0
    cases = []
    for index in range(config["count"]):
        kernel = TranslationKernel(1.0) if index % 2 == 0 else ConfinedKernel(0.1, 1.0)
        f, g = _random_convergent_pair(rng, kernel)
        closed = inner_product(StateExpr.single(f), StateExpr.single(g), kernel)
        quad, _ = quad_inner_product(StateExpr.single(f), StateExpr.single(g), kernel, spec)
        rel = abs(closed - quad) / max(abs(quad), 1e-300)
        worst = max(worst, rel)
        cases.append({"kinds": [type(f).__name__, type(g).__name__],
                      "kernel": type(kernel).__name__, "rel_error": rel})
    passed = worst <= config["tolerance"]
    return {"count": config["count"], "max_rel_error": worst,
            "tolerance": config["tolerance"], "passed": passed,
            "worst_cases": sorted(cases, key=lambda c: -c["rel_error"])[:3]}, None


_RUNNERS = {
    "constants": run_constants,
    "distance": run_distance,
    "geodesic": run_geodesic,
    "metric": run_metric,
    "gram": run_gram,
    "double-slit": run_double_slit,
    "epr": run_epr,
    "oracle-verify": run_oracle_verify,
}


def run_record(command: str, config: dict) -> tuple[dict, list | None]:
    """Execute a command from its resolved config; returns (record, csv rows)."""
    if command not in _RUNNERS:
        raise DomainError(f"unknown command {command!r}")
    results, rows = _RUNNERS[command](config)
    record = {"schema_version": SCHEMA_VERSION, "command": command,
              "config": config, "results": results}
    return record, rows


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_state_flags(p):
    p.add_argument("--kernel", default="translation:1", help="translation:SIGMA or confined:ALPHA,BETA")
    p.add_argument("--state", action="append", help="full state spec, e.g. '0.7@delta:0|0.7@delta:6'")
    p.add_argument("--delta", action="append", help="delta state at COORDS (sugar)")
    p.add_argument("--wave", action="append", help="plane-wave state at MOMENTUM (sugar)")
    p.add_argument("--packet", action="append", help="packet state COORDS:WIDTH[:MOMENTUM] (sugar)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statesphere",
        description="Geometry of quantum states on the unit sphere of a "
                    "Gaussian-kernel Hilbert space.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", help="physical constants in use")

    p = sub.add_parser("distance", help="angle between two states")
    _add_state_flags(p)

    p = sub.add_parser("geodesic", help="great-circle path between two states")
    _add_state_flags(p)
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--speed", type=float, default=None, help="collapse speed in m/s (default c)")
    p.add_argument("--csv", help="write (t, angle_from_start) samples to this path")

    p = sub.add_parser("metric", help="induced metric at a point")
    p.add_argument("--kernel", default="translation:1")
    p.add_argument("--at", default="0,0,0", help="evaluation point COORDS")
    p.add_argument("--step", type=float, default=1e-3)

    p = sub.add_parser("gram", help="min eigenvalue of a delta Gram matrix")
    p.add_argument("--kernel", default="translation:1")
    p.add_argument("--points", help="semicolon-separated COORDS list")
    p.add_argument("--random", type=int, default=50, help="number of random points")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--box", default="-10,10", help="random sampling interval LO,HI")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("double-slit", help="double-slit trajectory and detector curve")
    p.add_argument("--slits", default="-1.165,1.165")
    p.add_argument("--coeffs", default="1,1", help="complex slit coefficients C1,C2")
    p.add_argument("--width", type=float, default=0.1)
    p.add_argument("--wavenumber", type=float, default=40.0)
    p.add_argument("--distance", type=float, default=80.0)
    p.add_argument("--grid", default="-30,30,1201", help="detector grid LO,HI,COUNT")
    p.add_argument("--which-path", action="store_true")
    p.add_argument("--detected-point", type=float, default=None)
    p.add_argument("--csv", help="write (x, intensity) curve to this path")

    p = sub.add_parser("epr", help="entangled-pair correlations and collapse")
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--envelope-width", type=float, default=5.0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--profile", choices=["position", "momentum", "none"], default="position")
    p.add_argument("--a-values", default="-5,0,5",
                   help="first-particle positions (or momenta) for the ridge scan")
    p.add_argument("--grid", default="-2,2,17",
                   help="profile grid LO,HI,COUNT (relative to the expected ridge for positions)")
    p.add_argument("--measure-position", type=float, default=None)
    p.add_argument("--measure-momentum", type=float, default=None)
    p.add_argument("--csv", help="write the scanned profile to this path")

    p = sub.add_parser("oracle-verify", help="closed forms vs quadrature on random pairs")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tolerance", type=float, default=1e-6)

    return parser


_parser = functools.cache(build_parser)  # parsing does not change a parser


# Flags whose text a config holds converted; the rest are kept as parsed.
_CONVERTERS = {
    "slits": lambda text: list(_floats(text, 2)),
    "coeffs": _slit_coefficients,
    "grid": _grid,
    "a_values": lambda text: list(_floats(text)),
    "box": lambda text: _floats(text, 2),
    "at": _floats,
}


def _config_from_args(args) -> tuple[str, dict, str | None]:
    """Config keyed by argparse dest, in the order the parser declares the
    flags; the state flags fold into one "states" list of state specs."""
    config = {}
    for key, value in vars(args).items():
        if key in ("state", "delta", "wave", "packet"):
            prefix = "" if key == "state" else f"{key}:"
            config.setdefault("states", []).extend(prefix + spec for spec in value or [])
        elif key not in ("command", "csv"):
            config[key] = _CONVERTERS[key](value) if key in _CONVERTERS else value
    if "states" in config and len(config["states"]) != 2:
        raise DomainError(f"{args.command} needs exactly two states, "
                          f"got {len(config['states'])}")
    return args.command, config, getattr(args, "csv", None)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        command, config, csv_path = _config_from_args(args)
        record, rows = run_record(command, config)
    except StateSphereError as exc:
        code = 2 if isinstance(exc, DomainError) else 3
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return code
    if csv_path and rows:
        with open(csv_path, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        record["csv_path"] = csv_path
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
