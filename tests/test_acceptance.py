"""Acceptance suite: every end-to-end claim at its stated tolerance.

Each check prints one `ACCEPTANCE <n> <PASS|FAIL> <name>` line; run with
`pytest tests/test_acceptance.py -v -s` to see them inline.
"""

import math
import time

import numpy as np

from statesphere import (ConfinedKernel, Delta, Packet, PlaneWave, SlitConfig,
                         EPRConfig, StateExpr, TranslationKernel, UnitSystem,
                         blend, build_epr_state, collapse_time,
                         detector_intensity, embed_position, geodesic_at,
                         geodesic_between, gram_min_eigenvalue, induced_metric,
                         inner_product, momentum_correlation_profile,
                         norm_ratio, normalize, position_correlation_profile,
                         sphere_angle)
from statesphere.oracle import QuadratureSpec, quad_pair_overlap

from helpers import diff_norm, random_state

K1 = TranslationKernel(1.0)
UNITS = UnitSystem()


def report(number: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {status} {name}: {detail} "
          f"[{elapsed:.2f}s < {limit:.0f}s]", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_01_delta_distance_law():
    start = time.perf_counter()
    grid = [0.5 * i for i in range(21)]
    angles = []
    overlaps = []
    max_err = 0.0
    for b in grid:
        state_a = normalize(embed_position((0.0, 0.0, 0.0)), K1)
        state_b = normalize(embed_position((b, 0.0, 0.0)), K1)
        theta = sphere_angle(state_a, state_b)
        overlap = math.exp(-0.5 * b * b)
        max_err = max(max_err, abs(theta - math.acos(overlap)))
        angles.append(theta)
        overlaps.append(overlap)
    ok = max_err <= 1e-12
    # monotone approach to pi/2: angles never decrease, and are strictly
    # increasing wherever pi/2 - theta is resolvable in float64 (b <= 8.5,
    # beyond which acos saturates at pi/2 to within half an ulp)
    ok &= all(b >= a for a, b in zip(angles, angles[1:]))
    ok &= all(b > a for a, b in zip(angles[:18], angles[1:18]))
    ok &= all(b < a for a, b in zip(overlaps, overlaps[1:]))
    ok &= all(math.pi / 2 - theta <= 1e-6 for b, theta in zip(grid, angles) if b >= 6)
    elapsed = time.perf_counter() - start
    report(1, "delta distance law", ok,
           f"max |theta - acos(exp(-b^2/2))| = {max_err:.2e}, monotone, "
           f"pi/2 within 1e-6 for b >= 6", elapsed, 1.0)


def test_02_isometry_of_position_embedding():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        point = rng.uniform(-10.0, 10.0, 3)
        rep = induced_metric(K1, point, h=1e-3)
        worst = max(worst, float(np.max(np.abs(rep.matrix - np.eye(3)))))
    elapsed = time.perf_counter() - start
    report(2, "induced metric is Euclidean", worst <= 1e-6,
           f"max deviation from identity at 20 random points = {worst:.2e}",
           elapsed, 5.0)


def test_03_collapse_time_bound():
    start = time.perf_counter()
    far = blend(1.0, StateExpr.single(Delta((0.0,))), 1.0, StateExpr.single(Delta((40.0,))))
    path = geodesic_between(normalize(far, K1), normalize(embed_position((0.0,)), K1))
    quarter_time = collapse_time(path, UNITS)
    ok = abs(quarter_time - 4.2e-44) <= 0.01 * 4.2e-44 and quarter_time < 1e-43

    bound = math.pi * UNITS.planck_time_s
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        a = normalize(random_state(rng, d=1), K1)
        b = normalize(random_state(rng, d=1), K1)
        worst = max(worst, collapse_time(geodesic_between(a, b), UNITS))
    ok &= worst <= bound * (1.0 + 1e-12)
    elapsed = time.perf_counter() - start
    report(3, "collapse time bound", ok,
           f"equal superposition collapse = {quarter_time:.3e}s (~4.2e-44), "
           f"max over 100 random pairs = {worst:.3e}s <= pi*t_P = {bound:.3e}s",
           elapsed, 10.0)
    test_03_collapse_time_bound.time = quarter_time


def test_04_classical_transfer_speed():
    start = time.perf_counter()
    quarter_time = getattr(test_03_collapse_time_bound, "time", None)
    if quarter_time is None:
        far = blend(1.0, StateExpr.single(Delta((0.0,))), 1.0, StateExpr.single(Delta((40.0,))))
        path = geodesic_between(normalize(far, K1), normalize(embed_position((0.0,)), K1))
        quarter_time = collapse_time(path, UNITS)
    speed = 1e27 / quarter_time
    ok = 1e69 <= speed <= 1e71
    elapsed = time.perf_counter() - start
    report(4, "classical transfer speed", ok,
           f"1e27 m in {quarter_time:.3e}s needs {speed:.3e} m/s (~1e70)",
           elapsed, 1.0)


def _random_convergent_pair(rng, kernel):
    d = int(rng.choice([1, 1, 1, 2, 3]))
    confined = isinstance(kernel, ConfinedKernel)

    def prim(allow_wave):
        kinds = ["delta", "packet"] + (["wave"] if allow_wave else [])
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "delta":
            return Delta(tuple(rng.uniform(-10, 10, d)))
        if kind == "wave":
            return PlaneWave(tuple(rng.uniform(-1.5, 1.5, d)))
        return Packet(tuple(rng.uniform(-10, 10, d)), float(rng.uniform(0.1, 1.5)),
                      tuple(rng.uniform(-1.5, 1.5, d)))

    f = prim(allow_wave=confined)
    g = prim(allow_wave=confined or isinstance(f, Packet))
    if isinstance(f, Delta) and isinstance(g, Delta):
        g = Packet(tuple(rng.uniform(-10, 10, d)), float(rng.uniform(0.1, 1.5)))
    return f, g


def test_05_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    spec = QuadratureSpec(refinement_levels=2)
    worst = 0.0
    for index in range(100):
        kernel = K1 if index % 2 == 0 else ConfinedKernel(0.1, 1.0)
        f, g = _random_convergent_pair(rng, kernel)
        closed = inner_product(StateExpr.single(f), StateExpr.single(g), kernel)
        quad, _ = quad_pair_overlap(f, g, kernel, spec)
        worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.perf_counter() - start
    report(5, "oracle equivalence", worst <= 1e-6,
           f"max relative error over 100 random convergent pairs = {worst:.2e}",
           elapsed, 60.0)


def test_06_completeness_proxy():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    points = [tuple(rng.uniform(-10, 10, 3)) for _ in range(50)]
    value = gram_min_eigenvalue(points, K1)
    elapsed = time.perf_counter() - start
    report(6, "Gram completeness proxy", value > 0.0,
           f"min eigenvalue over 50 random points = {value:.3e} > 0", elapsed, 5.0)


def test_07_double_slit_visibility():
    start = time.perf_counter()
    cfg = SlitConfig()
    curve = detector_intensity(cfg)
    ok = curve.visibility > 0.9
    spacing_err = abs(curve.fringe_spacing - curve.predicted_fringe_spacing)
    ok &= spacing_err <= 0.10 * curve.predicted_fringe_spacing
    marked = detector_intensity(SlitConfig(which_path=True))
    ok &= marked.visibility < 0.01
    elapsed = time.perf_counter() - start
    report(7, "double-slit fringes", ok,
           f"visibility = {curve.visibility:.3f} (> 0.9), spacing "
           f"{curve.fringe_spacing:.2f} vs {curve.predicted_fringe_spacing:.2f} "
           f"(within 10%), which-path visibility = {marked.visibility:.4f} (< 0.01)",
           elapsed, 10.0)


def test_08_epr_correlations():
    start = time.perf_counter()
    cfg = EPRConfig()
    state = build_epr_state(cfg)

    step = 0.25
    ok = True
    for a in (-cfg.envelope_width, 0.0, cfg.envelope_width):
        grid = np.arange(cfg.x0 + a - 3.0, cfg.x0 + a + 3.0 + 1e-9, step)
        profile = position_correlation_profile(state, a, grid)
        best_b = max(profile, key=lambda bv: bv[1])[0]
        ok &= abs(best_b - (cfg.x0 + a)) <= step + 1e-12

    momentum_kernel = cfg.momentum_kernel
    mstate = build_epr_state(cfg, momentum_kernel)
    qs = np.arange(-2.0, 2.0 + 1e-9, 0.5)
    profile = momentum_correlation_profile(mstate, qs)
    for q1 in (-1.0, 0.0, 1.0):
        row = [(q2, v) for (p1, q2), v in profile if p1 == q1]
        best_q2 = max(row, key=lambda qv: qv[1])[0]
        ok &= abs(best_q2 - (-q1)) <= 0.5 + 1e-12

    s128 = build_epr_state(EPRConfig(discretization_n=128))
    angle = sphere_angle(state, s128)
    ok &= angle < 1e-3
    elapsed = time.perf_counter() - start
    report(8, "entangled-pair correlations", ok,
           f"position ridge at x0+a (grid 0.25), momentum ridge at -q1 (grid 0.5), "
           f"refinement angle = {angle:.2e} < 1e-3", elapsed, 60.0)


def test_09_geodesic_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    h = 1e-5
    endpoint_worst = norm_worst = speed_worst = 0.0
    for _ in range(50):
        a = normalize(random_state(rng, d=1), K1)
        b = normalize(random_state(rng, d=1), K1)
        path = geodesic_between(a, b)
        endpoint_worst = max(
            endpoint_worst,
            diff_norm(geodesic_at(path, 0.0).expr, a.expr, K1),
            diff_norm(geodesic_at(path, 1.0).expr, path.end_aligned.expr, K1))
        for t in (0.25, 0.5, 0.75):
            norm_worst = max(norm_worst, geodesic_at(path, t).norm_defect())
        for t in (0.3, 0.7):
            speed = diff_norm(geodesic_at(path, t + h).expr,
                              geodesic_at(path, t).expr, K1) / h
            speed_worst = max(speed_worst, abs(speed - path.theta))
    ok = endpoint_worst <= 1e-10 and norm_worst <= 1e-9 and speed_worst <= 1e-6
    elapsed = time.perf_counter() - start
    report(9, "geodesic properties", ok,
           f"endpoints {endpoint_worst:.1e} <= 1e-10, norm defect "
           f"{norm_worst:.1e} <= 1e-9, speed error {speed_worst:.1e} <= 1e-6 "
           f"on 50 random pairs", elapsed, 10.0)


def test_10_norm_comparison():
    start = time.perf_counter()
    state = StateExpr.single(Packet((0.0,), 100.0))
    ratio = norm_ratio(state, K1)
    ok = abs(ratio - 1.0) <= 1e-3
    elapsed = time.perf_counter() - start
    report(10, "kernel norm vs L2 norm", ok,
           f"mass-normalized ratio for width 100 sigma = {ratio:.6f} (within 1e-3 of 1)",
           elapsed, 1.0)
