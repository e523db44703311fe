"""Tests for the double-slit and entangled-pair scenarios."""

import dataclasses
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesphere import (DivergenceError, DomainError,
                         EPRConfig, NumericalFailureError, ManifoldId, Packet, SegmentKind, SlitConfig, StateExpr,
                         UnitSystem, blend, build_double_slit_trajectory,
                         build_epr_state, collapse_time, detector_intensity,
                         geodesic_at, geodesic_between,
                         momentum_collapse, momentum_correlation_profile,
                         nearest_classical_points, normalize,
                         position_collapse, position_correlation_profile,
                         sphere_angle)
from statesphere.experiments import MAX_POINTS, SEGMENT_SAMPLES

PLANCK_TIME = UnitSystem().planck_time_s


class TestSlitConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SlitConfig(slit_positions=(1.0, 1.0))
        with pytest.raises(DomainError):
            SlitConfig(coefficients=(0j, 0j))
        with pytest.raises(DomainError):
            SlitConfig(packet_width=0.0)
        with pytest.raises(DomainError):
            SlitConfig(detector_grid=(1.0, -1.0, 100))

    def test_detector_grid_count_is_an_integer_of_at_least_two(self):
        # a float count was truncated (2.5 -> 2 points) and a string one converted
        for count in (2.5, 2.0, True, 1, 0, -3, "101"):
            with pytest.raises(DomainError, match="detector_grid"):
                SlitConfig(detector_grid=(-30.0, 30.0, count))
        assert len(detector_intensity(SlitConfig(detector_grid=(-30.0, 30.0, 101))).points) == 101

    def test_detector_grid_count_is_bounded(self):
        # an unbounded count constructed, then np.linspace failed with a bare ValueError
        with pytest.raises(DomainError, match="detector_grid count"):
            SlitConfig(detector_grid=(-30.0, 30.0, 10**20))
        with pytest.raises(DomainError, match="detector_grid count"):
            SlitConfig(detector_grid=(-30.0, 30.0, MAX_POINTS + 1))
        assert SlitConfig(detector_grid=(-30.0, 30.0, MAX_POINTS)).detector_grid[2] == MAX_POINTS

    def test_rejects_non_finite_scalars(self):
        for field in ("packet_width", "wavenumber", "screen_to_detector"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(DomainError, match=field):
                    SlitConfig(**{field: bad})

    def test_rejects_non_finite_points(self):
        nan, inf = float("nan"), float("inf")
        cases = [("detected_point", inf), ("detected_point", nan),
                 ("slit_positions", (nan, 1.0)),
                 ("slit_positions", (-inf, 1.0)), ("coefficients", (1.0, complex(0, inf)))]
        for field, bad in cases:
            with pytest.raises(DomainError, match=field):
                SlitConfig(**{field: bad})
        with pytest.raises(DomainError):
            SlitConfig(detector_grid=(-inf, 30.0, 101))

    def test_predicted_spacing(self):
        cfg = SlitConfig()
        np.testing.assert_allclose(cfg.predicted_fringe_spacing,
                                   2 * math.pi * 80.0 / (40.0 * 2.33), rtol=1e-12)

    def test_envelope_width_is_full_flight_spread(self):
        cfg = SlitConfig(packet_width=0.13, wavenumber=37.0, screen_to_detector=71.0)
        w, flight = 0.13, 71.0 / 37.0
        assert cfg.detector_envelope_width == w * math.sqrt(1.0 + (flight / (2.0 * w * w)) ** 2)

    def test_arrival_center_weights_open_slits(self):
        assert SlitConfig().arrival_center == 0.0
        assert SlitConfig(coefficients=(1.0 + 0j, 0j)).arrival_center == -1.165


class TestDetectorIntensity:
    def test_default_config_fringes(self):
        curve = detector_intensity(SlitConfig())
        assert curve.visibility > 0.9
        assert curve.fringe_spacing is not None
        rel = abs(curve.fringe_spacing - curve.predicted_fringe_spacing)
        assert rel <= 0.10 * curve.predicted_fringe_spacing

    def test_single_slit_no_fringes(self):
        curve = detector_intensity(SlitConfig(coefficients=(1.0 + 0j, 0j)))
        assert curve.visibility < 0.01
        assert curve.fringe_spacing is None

    def test_which_path_destroys_fringes(self):
        curve = detector_intensity(SlitConfig(which_path=True))
        assert curve.visibility < 0.01
        assert curve.which_path_slit == -1.165

    def test_visibility_decreases_with_imbalance(self):
        ratios = (1.0, 0.75, 0.5, 0.25, 0.0)
        values = [detector_intensity(
            SlitConfig(coefficients=(1.0 + 0j, complex(r)))).visibility
            for r in ratios]
        assert all(b > a for a, b in zip(values[1:], values[:-1]))
        assert values[0] > 0.9 and values[-1] < 0.01

    def test_curve_is_positive_and_grid_shaped(self):
        cfg = SlitConfig(detector_grid=(-30.0, 30.0, 301))
        curve = detector_intensity(cfg)
        assert len(curve.points) == 301
        assert all(i >= 0.0 for _, i in curve.points)

    def test_points_are_built_on_first_read(self):
        import statesphere.experiments as experiments
        cfg = SlitConfig(coefficients=(1.0, 0.6j), detector_grid=(-30.0, 30.0, 301))
        curve = detector_intensity(cfg)
        assert "points" not in vars(curve)
        xs, values = experiments._intensity(cfg, zip(cfg.coefficients, cfg.slit_positions))
        assert curve.points == tuple(zip(xs.tolist(), values.tolist()))
        assert all(type(x) is float and type(i) is float for x, i in curve.points)
        assert curve.points is curve.points

    def test_curves_that_differ_in_a_point_are_unequal(self):
        cfg = SlitConfig(which_path=True)
        curve = detector_intensity(cfg)
        assert curve == detector_intensity(cfg)
        for name in ("xs", "intensity"):
            moved = array("d", getattr(curve, name))
            moved[600] = math.nextafter(moved[600], math.inf)
            assert dataclasses.replace(curve, **{name: moved}) != curve


@pytest.fixture(scope="module")
def trajectory():
    return build_double_slit_trajectory(SlitConfig())


class TestDoubleSlitTrajectory:
    def test_segment_structure(self, trajectory):
        kinds = [seg.kind for seg in trajectory.segments]
        assert kinds == [SegmentKind.PROPAGATION, SegmentKind.REFRACTION_SPLIT,
                         SegmentKind.PROPAGATION, SegmentKind.COLLAPSE]

    def test_junction_continuity(self, trajectory):
        # the angle floor near zero is acos(1 - eps) ~ 2e-8, so certify the
        # junction at the coefficient level and sanity-check the angle
        from helpers import diff_norm
        for first, second in zip(trajectory.segments, trajectory.segments[1:]):
            left, right = first.samples[-1][1], second.samples[0][1]
            assert diff_norm(left.expr, right.expr, trajectory.kernel) <= 1e-9
            assert sphere_angle(left, right) <= 3e-8

    def test_sample_parameters_increase(self, trajectory):
        for seg in trajectory.segments:
            ts = [t for t, _ in seg.samples]
            assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_samples_unit_norm(self, trajectory):
        for seg in trajectory.segments:
            for _, state in seg.samples:
                assert state.norm_defect() <= 1e-9

    def test_collapse_arc_near_quarter_circle(self, trajectory):
        collapse = trajectory.segments[-1]
        assert abs(collapse.arc_length - math.pi / 4) <= 0.05
        assert collapse.collapse_time_s < 1e-43

    def test_residuals_positive_with_split_plateau(self, trajectory):
        residuals = [seg.max_residual_angle for seg in trajectory.segments]
        assert all(r > 0.0 for r in residuals)
        # the superposition plateau keeps the post-split propagation residual
        # well above the single-packet segment, and the trajectory maximum is
        # attained there (up to junction ties with the adjacent segments)
        assert residuals[2] > residuals[0] + 0.3
        assert max(residuals) <= residuals[2] + 1e-9

    def test_detected_point_is_central_peak(self, trajectory):
        assert abs(trajectory.detected_point) <= 1e-9

    def test_single_slit_degenerate_split(self):
        cfg = SlitConfig(coefficients=(1.0 + 0j, 0j))
        trajectory = build_double_slit_trajectory(cfg)
        split = trajectory.segments[1]
        # no second path: the packet arrives at the open slit and the
        # refraction segment has zero angle
        assert split.arc_length <= 1e-9
        curve = detector_intensity(cfg)
        assert curve.visibility < 0.01

    def test_which_path_reorders_segments(self):
        cfg = SlitConfig(which_path=True)
        trajectory = build_double_slit_trajectory(cfg)
        kinds = [seg.kind for seg in trajectory.segments]
        assert kinds == [SegmentKind.PROPAGATION, SegmentKind.REFRACTION_SPLIT,
                         SegmentKind.COLLAPSE, SegmentKind.PROPAGATION]
        collapse = trajectory.segments[2]
        assert collapse.collapse_time_s < 1e-43

    @pytest.mark.parametrize("which_path", [False, True])
    def test_projects_each_distinct_state_once(self, which_path, monkeypatch):
        import statesphere.experiments as experiments
        project = experiments.nearest_classical_points
        calls = []

        def recording(states, *args, **kwargs):
            results = project(states, *args, **kwargs)
            calls.append((list(states), results))
            return results

        monkeypatch.setattr(experiments, "nearest_classical_points", recording)
        trajectory = build_double_slit_trajectory(SlitConfig(which_path=which_path))
        assert len(calls) == 1  # one batch for all four legs
        states, results = calls[0]
        samples = [state for seg in trajectory.segments for _, state in seg.samples]
        assert states == list(dict.fromkeys(samples))  # the distinct samples, in order
        residual = dict(zip(states, (r.residual_angle for r in results)))
        for seg in trajectory.segments:
            expected = max(residual[state] for _, state in seg.samples)
            assert seg.max_residual_angle.hex() == expected.hex()

    def test_op_evaluates_the_intensity_once_per_curve(self, monkeypatch, capsys):
        import statesphere.experiments as experiments
        from statesphere.cli import main
        intensity = experiments._intensity
        calls = []

        def counting(*args):
            calls.append(args)
            return intensity(*args)

        monkeypatch.setattr(experiments, "_intensity", counting)
        # the two-path curve, plus the single-slit curve of a which-path run
        for argv, evaluations in ((["double-slit"], 1), (["double-slit", "--which-path"], 2)):
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == evaluations, argv
        capsys.readouterr()

    def test_trajectory_keeps_the_detector_curve(self):
        import statesphere.experiments as experiments
        cfg = SlitConfig(coefficients=(1.0 + 0j, 0.6 + 0j), which_path=True)
        trajectory = build_double_slit_trajectory(cfg)
        curve = detector_intensity(cfg)
        assert trajectory.detector == curve
        xs, values = experiments._intensity(cfg, zip(cfg.coefficients, cfg.slit_positions))
        assert trajectory.detected_point == curve.detected_point
        assert curve.detected_point == float(xs[int(np.argmax(values))])
        target = trajectory.segments[2].samples[-1][1].expr.terms[0][1]
        assert target.center == (curve.which_path_slit,)

    @pytest.mark.parametrize("point, slit", [(0.7, 1.165), (-0.2, -1.165), (0.0, -1.165)])
    def test_which_path_keeps_slit_nearest_given_point(self, point, slit):
        cfg = SlitConfig(which_path=True, detected_point=point)
        curve = detector_intensity(cfg)
        assert (curve.detected_point, curve.which_path_slit) == (point, slit)
        trajectory = build_double_slit_trajectory(cfg)
        target = trajectory.segments[2].samples[-1][1].expr.terms[0][1]
        assert target.center == (slit,)

    def test_ascent_has_no_rounding_tail(self):
        # one sample state's ascent falls through rounding at a flat maximum;
        # retries that grew lam 4x from just above 0 took 16 points after the
        # grid's 42 to shorten the step, growing lam - e 4x takes 4
        cfg = SlitConfig(slit_positions=(-1.2, 1.2), coefficients=(1.0, 0.8), which_path=True,
                         detector_grid=(-30.0, 30.0, 601))
        trajectory = build_double_slit_trajectory(cfg)
        distinct = list(dict.fromkeys(s for seg in trajectory.segments for _, s in seg.samples))
        ends = (*cfg.slit_positions, trajectory.detected_point)
        box = (min(ends) - 6.0 * cfg.packet_width - 2.0, max(ends) + 6.0 * cfg.packet_width + 2.0)
        projections = nearest_classical_points(distinct, ManifoldId.POSITION, box, coarse=41)
        assert max(p.iterations for p in projections) <= 50

    def test_collapse_times_bounded_by_pi(self, trajectory):
        for seg in trajectory.segments:
            if seg.collapse_time_s is not None:
                assert seg.collapse_time_s <= math.pi * PLANCK_TIME


def stateexpr_legs(cfg: SlitConfig, trajectory):
    """The trajectory's legs rebuilt state by state with the StateExpr geometry
    (`normalize`, `blend`, `geodesic_between`, `geodesic_at`): a list of
    (states, collapse path or None) per segment."""
    n, w, kernel = SEGMENT_SAMPLES, cfg.packet_width, trajectory.kernel
    (x1, x2), (c1, c2) = cfg.slit_positions, cfg.coefficients

    def packet(center):
        return normalize(StateExpr.single(Packet((center,), w)), kernel)

    arrived = packet(cfg.arrival_center)
    split = normalize(blend(c1, StateExpr.single(Packet((x1,), w)),
                            c2, StateExpr.single(Packet((x2,), w))), kernel)
    ts = np.linspace(0.0, 1.0, n)[1:-1]
    refraction = [arrived, *(normalize(blend(1.0 - t, arrived.expr, t, split.expr), kernel)
                             for t in ts), split]
    curve = trajectory.detector
    path = geodesic_between(split, packet(curve.which_path_slit if cfg.which_path
                                          else curve.detected_point))
    collapse = [path.start, *(geodesic_at(path, t) for t in ts), path.end_aligned]
    if cfg.which_path:
        return [([arrived] * n, None), (refraction, None), (collapse, path),
                ([path.end_aligned] * n, None)]
    return [([arrived] * n, None), (refraction, None), ([split] * n, None), (collapse, path)]


@st.composite
def slit_configs(draw):
    half = draw(st.floats(0.3, 3.0))
    second = draw(st.one_of(st.just(0j), st.builds(complex, st.floats(-1.5, 1.5),
                                                   st.floats(-1.5, 1.5))))
    return SlitConfig(slit_positions=(-half, half), coefficients=(1.0, second),
                      packet_width=draw(st.floats(0.05, 0.3)), which_path=draw(st.booleans()),
                      detected_point=draw(st.one_of(st.none(), st.floats(-5.0, 5.0))))


# float.hex of (arc_length, max_residual_angle, collapse_time_s) per segment, as the
# term-by-term StateExpr geometry (one inner product per norm and angle) computed them
TRAJECTORY_RECORD = {
    "default": (SlitConfig(), [
        ("0x0.0p+0", "0x1.c65c040717ab7p-7", None),
        ("0x1.8f780df612e9fp-1", "0x1.76e78121e7567p-1", None),
        ("0x0.0p+0", "0x1.76e78121e7567p-1", None),
        ("0x1.8f780df612edap-1", "0x1.76e78121e7567p-1", "0x1.db7250e61e987p-145")]),
    "which_path": (SlitConfig(which_path=True), [
        ("0x0.0p+0", "0x1.c65c040717ab7p-7", None),
        ("0x1.8f780df612e9fp-1", "0x1.76e78121e7567p-1", None),
        ("0x1.7f486d425944ep-1", "0x1.76e78121e7567p-1", "0x1.c82e95bdd6612p-145"),
        ("0x0.0p+0", "0x1.c65c04074940dp-7", None)]),
    "one_slit": (SlitConfig(coefficients=(1, 0)), [
        ("0x0.0p+0", "0x1.c65c04074940dp-7", None),
        ("0x0.0p+0", "0x1.c65c04074940dp-7", None),
        ("0x0.0p+0", "0x1.c65c04074940dp-7", None),
        ("0x1.e1f76107d4581p-7", "0x1.c79cca9e604e5p-7", "0x1.1ed13b0c87452p-150")]),
    "phased_detected": (SlitConfig(slit_positions=(-0.9, 1.3), coefficients=(1, 0.5j),
                                   packet_width=0.13, which_path=True, detected_point=0.7), [
        ("0x0.0p+0", "0x1.7adcdb2e384c9p-6", None),
        ("0x1.3ac53d693f32cp-1", "0x1.db5287d03d76fp-2", None),
        ("0x1.18b3992baddcfp+0", "0x1.5dcfdecbec58ap+0", "0x1.4e170a2df4699p-144"),
        ("0x1.0000000000000p-23", "0x1.5dcfdecbec58ap+0", None)]),
}


class TestTrajectoryFrame:
    """The trajectory's frame (rows over one Gram matrix) against the StateExpr geometry."""

    @settings(max_examples=80, deadline=None)
    @given(slit_configs())
    def test_matches_the_stateexpr_geometry(self, cfg):
        trajectory = build_double_slit_trajectory(cfg)
        frame = trajectory.segments[0].samples[0][1].expr.bases[0]
        assert all(s.expr.bases[0] is frame for seg in trajectory.segments for _, s in seg.samples)
        for seg, (states, path) in zip(trajectory.segments, stateexpr_legs(cfg, trajectory),
                                       strict=True):
            assert [repr(s) for _, s in seg.samples] == [repr(s) for s in states]
            assert seg.arc_length == sum(sphere_angle(a, b) for a, b in zip(states, states[1:]))
            assert seg.collapse_time_s == (None if path is None else collapse_time(path))

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_RECORD))
    def test_values_keep_their_bits(self, name):
        cfg, record = TRAJECTORY_RECORD[name]
        got = [(seg.arc_length.hex(), seg.max_residual_angle.hex(),
                None if seg.collapse_time_s is None else seg.collapse_time_s.hex())
               for seg in build_double_slit_trajectory(cfg).segments]
        assert got == record

    @pytest.mark.parametrize("which_path", [False, True])
    def test_checks_the_arrays_once_per_center(self, which_path, monkeypatch):
        # each distinct state's arrays were checked: 16 times, 17 with which-path
        import statesphere.algebra as algebra
        checked, calls = algebra._checked, []
        monkeypatch.setattr(algebra, "_checked", lambda *args: calls.append(args) or checked(*args))
        build_double_slit_trajectory(SlitConfig(which_path=which_path))
        assert len(calls) <= 4

    def test_one_gram_matrix_and_no_inner_product(self, monkeypatch):
        import statesphere.algebra as algebra
        import statesphere.experiments as experiments
        import statesphere.geometry as geometry
        import statesphere.manifolds as manifolds
        calls = []

        def counted(name, function):
            def call(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return call

        overlap = counted("overlap_matrix", algebra.overlap_matrix)
        inner = counted("inner_product", algebra.inner_product)
        for module in (algebra, experiments, manifolds):
            monkeypatch.setattr(module, "overlap_matrix", overlap)
        for module in (algebra, geometry):
            monkeypatch.setattr(module, "inner_product", inner)
        for which_path in (False, True):
            calls.clear()
            build_double_slit_trajectory(SlitConfig(which_path=which_path))
            assert calls == ["overlap_matrix"]


class TestEPRState:
    def test_validation(self):
        with pytest.raises(DomainError):
            EPRConfig(envelope_width=0.0)
        with pytest.raises(DomainError):
            EPRConfig(discretization_n=4)
        with pytest.raises(DomainError):
            EPRConfig(measured_position=1.0, measured_momentum=1.0)

    def test_rejects_bad_discretization(self):
        # an n-term state takes n x n overlap matrices, so n is bounded above
        for bad in (7, 1025, 10**20, 64.0, True, "64"):
            with pytest.raises(DomainError, match="discretization_n"):
                EPRConfig(discretization_n=bad)
        assert EPRConfig(discretization_n=1024).discretization_n == 1024

    def test_rejects_non_finite_scalars(self):
        for field in ("x0", "envelope_width", "confined_alpha",
                      "measured_position", "measured_momentum"):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(DomainError, match=field):
                    EPRConfig(**{field: bad})

    def test_state_is_normalized(self):
        cfg = EPRConfig(discretization_n=32)
        state = build_epr_state(cfg).expr
        kernel = cfg.position_kernel
        from statesphere import inner_product
        np.testing.assert_allclose(inner_product(state, state, kernel).real,
                                   1.0, rtol=1e-10)

    def test_discretization_convergence(self):
        cfg = EPRConfig()
        kernel = cfg.position_kernel
        s64 = build_epr_state(cfg, kernel)
        s128 = build_epr_state(EPRConfig(discretization_n=128), kernel)
        assert sphere_angle(s64, s128) < 1e-3

    def test_position_ridge(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        step = 0.25
        for a in (-cfg.envelope_width, 0.0, cfg.envelope_width):
            grid = np.arange(cfg.x0 + a - 3.0, cfg.x0 + a + 3.0 + 1e-9, step)
            profile = position_correlation_profile(state, a, grid)
            best_b = max(profile, key=lambda bv: bv[1])[0]
            assert abs(best_b - (cfg.x0 + a)) <= step + 1e-12

    def test_partner_rounding_far_from_origin_is_a_domain_error(self):
        # x0 + u moved the partner points: the position-collapse arc read
        # 1.11083847393 at x0 = 1, 1.1253 at 1e15 and 1.0156 at 1e17, all returned
        for x0 in (1e11, 1e15, 1e17, -1e200):
            with pytest.raises(DomainError, match="--x0"):
                build_epr_state(EPRConfig(x0=x0))
        arcs = [position_collapse(build_epr_state(cfg), 0.0, cfg).theta
                for cfg in (EPRConfig(x0=1.0), EPRConfig(x0=1e8))]
        assert arcs[0] == pytest.approx(arcs[1], abs=1e-9)

    def test_non_finite_profile_fails(self):
        # the cli's --grid=-1e307,1e307,5 case: the compiled overlap overflows, and the
        # profile returned NaN at both grid ends, with an overflow warning, where the cli fails
        grid = np.linspace(1.0 - 1e307, 1.0 + 1e307, 5)
        with pytest.raises(NumericalFailureError, match="not finite"):
            position_correlation_profile(build_epr_state(EPRConfig()), 0.0, grid)

    def test_non_finite_profile_names_no_flag(self):
        # the library message named the cli's --x0 and --grid flags
        grid = np.linspace(1.0 - 1e307, 1.0 + 1e307, 5)
        with pytest.raises(NumericalFailureError) as info:
            position_correlation_profile(build_epr_state(EPRConfig()), 0.0, grid)
        assert str(info.value) == "the overlap along the ridge row at 0.0 is not finite"

    def test_symmetric_profile_at_origin(self):
        cfg = EPRConfig(x0=0.0)
        state = build_epr_state(cfg)
        grid = np.linspace(-3.0, 3.0, 25)
        profile = dict(position_correlation_profile(state, 0.0, grid))
        for b in grid[: len(grid) // 2]:
            np.testing.assert_allclose(profile[float(b)], profile[float(-b)], rtol=1e-9)


class TestEPRCollapse:
    def test_position_collapse_fast_everywhere(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        for a in (-4.0, -1.0, 0.0, 2.0, 5.0):
            path = position_collapse(state, a, cfg)
            assert collapse_time(path) < 1e-43
            np.testing.assert_allclose(path.theta,
                                       sphere_angle(state, path.end_aligned), atol=1e-12)

    def test_position_collapse_lands_on_manifold(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        path = position_collapse(state, 1.0, cfg)
        target = path.end_aligned
        assert target.expr.terms[0][1].center == (1.0,)
        assert target.expr.terms[0][2].center == (cfg.x0 + 1.0,)

    def test_momentum_collapse_under_confined(self):
        cfg = EPRConfig()
        kernel = cfg.momentum_kernel
        state = build_epr_state(cfg, kernel)
        path = momentum_collapse(state, 0.8)
        assert path.theta < math.pi
        target = path.end_aligned.expr.terms[0]
        assert target[1].momentum == (0.8,)
        assert target[2].momentum == (-0.8,)

    def test_momentum_collapse_rejects_translation_kernel(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        with pytest.raises(DivergenceError):
            momentum_collapse(state, 1.0)

    def test_collapses_reject_single_particle_state(self):
        from statesphere import Delta, StateExpr, normalize
        cfg = EPRConfig()
        single = normalize(StateExpr.single(Delta((0.0,))), cfg.momentum_kernel)
        with pytest.raises(DomainError):
            position_collapse(single, 1.0, cfg)
        with pytest.raises(DomainError):
            momentum_collapse(single, 1.0)

    def test_zero_momentum_target_is_constant_state(self):
        cfg = EPRConfig()
        kernel = cfg.momentum_kernel
        state = build_epr_state(cfg, kernel)
        path = momentum_collapse(state, 0.0)
        target = path.end_aligned.expr.terms[0]
        assert target[1].momentum == (0.0,) and target[2].momentum == (0.0,)


@pytest.fixture(scope="module")
def profile_setup():
    cfg = EPRConfig()
    kernel = cfg.momentum_kernel
    state = build_epr_state(cfg, kernel)
    qs = np.arange(-2.0, 2.0 + 1e-9, 0.5)
    return cfg, state, qs, momentum_correlation_profile(state, qs)


class TestMomentumProfile:
    def test_anticorrelation_ridge(self, profile_setup):
        cfg, state, qs, profile = profile_setup
        step = 0.5
        for q1 in (-1.0, 0.0, 1.0):
            row = [(q2, v) for (p1, q2), v in profile if p1 == q1]
            best_q2 = max(row, key=lambda qv: qv[1])[0]
            assert abs(best_q2 - (-q1)) <= step + 1e-12

    def test_profile_symmetric_for_centered_pair(self):
        cfg = EPRConfig(x0=0.0)
        kernel = cfg.momentum_kernel
        state = build_epr_state(cfg, kernel)
        qs = np.array([-1.0, 0.0, 1.0])
        profile = dict(momentum_correlation_profile(state, qs))
        np.testing.assert_allclose(profile[(1.0, -1.0)], profile[(-1.0, 1.0)], rtol=1e-9)

    def test_profile_invariant_under_global_phase(self, profile_setup):
        cfg, state, qs, profile = profile_setup
        from statesphere import SphereState
        rotated = SphereState(expr=state.expr.scaled(complex(math.cos(0.8), math.sin(0.8))),
                              kernel=state.kernel, raw_norm=state.raw_norm)
        sub = np.array([-1.0, 1.0])
        original = momentum_correlation_profile(state, sub)
        shifted = momentum_correlation_profile(rotated, sub)
        for (key_a, val_a), (key_b, val_b) in zip(original, shifted):
            assert key_a == key_b
            np.testing.assert_allclose(val_a, val_b, rtol=1e-12)

    def test_profile_requires_confined_kernel(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        with pytest.raises(DivergenceError):
            momentum_correlation_profile(state, np.array([0.0]))
