"""Tests for the double-slit and entangled-pair scenarios."""

import math

import numpy as np
import pytest

from statesphere import (DivergenceError, DomainError,
                         EPRConfig, SegmentKind, SlitConfig, UnitSystem,
                         arc_length, build_double_slit_trajectory,
                         build_epr_state, collapse_time, detector_intensity,
                         momentum_collapse, momentum_correlation_profile,
                         position_collapse, position_correlation_profile,
                         sphere_angle)

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

    def test_rejects_non_finite_scalars(self):
        for field in ("packet_width", "wavenumber", "screen_to_detector"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(DomainError, match=field):
                    SlitConfig(**{field: bad})

    def test_rejects_non_finite_points(self):
        nan, inf = float("nan"), float("inf")
        cases = [("detected_point", inf), ("detected_point", nan),
                 ("source_center", nan), ("slit_positions", (nan, 1.0)),
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
        assert cfg.spread_width(1.0) == cfg.detector_envelope_width
        assert cfg.spread_width(0.0) == w
        assert w < cfg.spread_width(0.5) < cfg.detector_envelope_width

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
        cfg = SlitConfig(coefficients=(1.0 + 0j, 0j), samples_per_segment=5)
        trajectory = build_double_slit_trajectory(cfg)
        split = trajectory.segments[1]
        # no second path: the packet arrives at the open slit and the
        # refraction segment has zero angle
        assert split.arc_length <= 1e-9
        curve = detector_intensity(cfg)
        assert curve.visibility < 0.01

    def test_which_path_reorders_segments(self):
        cfg = SlitConfig(which_path=True, samples_per_segment=5)
        trajectory = build_double_slit_trajectory(cfg)
        kinds = [seg.kind for seg in trajectory.segments]
        assert kinds == [SegmentKind.PROPAGATION, SegmentKind.REFRACTION_SPLIT,
                         SegmentKind.COLLAPSE, SegmentKind.PROPAGATION]
        collapse = trajectory.segments[2]
        assert collapse.collapse_time_s < 1e-43

    @pytest.mark.parametrize("which_path", [False, True])
    def test_projects_each_distinct_state_once(self, which_path, monkeypatch):
        import statesphere.experiments as experiments
        project = experiments.nearest_classical_point
        calls = []

        def counting(state, *args, **kwargs):
            calls.append((state, args, kwargs))
            return project(state, *args, **kwargs)

        monkeypatch.setattr(experiments, "nearest_classical_point", counting)
        trajectory = build_double_slit_trajectory(SlitConfig(which_path=which_path))
        distinct = {state for seg in trajectory.segments for _, state in seg.samples}
        assert len(calls) == len(distinct)
        _, args, kwargs = calls[0]
        for seg in trajectory.segments:
            expected = max(project(state, *args, **kwargs).residual_angle
                           for _, state in seg.samples)
            assert seg.max_residual_angle == expected

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
        cfg = SlitConfig(coefficients=(1.0 + 0j, 0.6 + 0j), which_path=True,
                         samples_per_segment=3)
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
        cfg = SlitConfig(which_path=True, detected_point=point, samples_per_segment=3)
        curve = detector_intensity(cfg)
        assert (curve.detected_point, curve.which_path_slit) == (point, slit)
        trajectory = build_double_slit_trajectory(cfg)
        target = trajectory.segments[2].samples[-1][1].expr.terms[0][1]
        assert target.center == (slit,)

    def test_collapse_times_bounded_by_pi(self, trajectory):
        for seg in trajectory.segments:
            if seg.collapse_time_s is not None:
                assert seg.collapse_time_s <= math.pi * PLANCK_TIME

    def test_offset_source_translates(self):
        cfg = SlitConfig(source_center=3.0, samples_per_segment=5)
        trajectory = build_double_slit_trajectory(cfg)
        assert trajectory.segments[0].arc_length > 0.5

    def test_spread_width_variant_runs(self):
        from helpers import diff_norm
        cfg = SlitConfig(spread_widths=True, samples_per_segment=5)
        trajectory = build_double_slit_trajectory(cfg)
        for first, second in zip(trajectory.segments, trajectory.segments[1:]):
            left, right = first.samples[-1][1], second.samples[0][1]
            assert diff_norm(left.expr, right.expr, trajectory.kernel) <= 1e-9
        # the superposition widens along the post-split propagation
        widths = {term[1].width for _, state in trajectory.segments[2].samples
                  for term in state.expr.terms}
        assert max(widths) > cfg.packet_width


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
        state = build_epr_state(cfg).expr
        step = 0.25
        for a in (-cfg.envelope_width, 0.0, cfg.envelope_width):
            grid = np.arange(cfg.x0 + a - 3.0, cfg.x0 + a + 3.0 + 1e-9, step)
            profile = position_correlation_profile(state, cfg, a, grid)
            best_b = max(profile, key=lambda bv: bv[1])[0]
            assert abs(best_b - (cfg.x0 + a)) <= step + 1e-12

    def test_symmetric_profile_at_origin(self):
        cfg = EPRConfig(x0=0.0)
        state = build_epr_state(cfg).expr
        grid = np.linspace(-3.0, 3.0, 25)
        profile = dict(position_correlation_profile(state, cfg, 0.0, grid))
        for b in grid[: len(grid) // 2]:
            np.testing.assert_allclose(profile[float(b)], profile[float(-b)], rtol=1e-9)


class TestEPRCollapse:
    def test_position_collapse_fast_everywhere(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        for a in (-4.0, -1.0, 0.0, 2.0, 5.0):
            path = position_collapse(state, a, cfg)
            assert collapse_time(path) < 1e-43
            np.testing.assert_allclose(arc_length(path),
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
        path = momentum_collapse(state, 0.8, cfg)
        assert arc_length(path) < math.pi
        target = path.end_aligned.expr.terms[0]
        assert target[1].momentum == (0.8,)
        assert target[2].momentum == (-0.8,)

    def test_momentum_collapse_rejects_translation_kernel(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        with pytest.raises(DivergenceError):
            momentum_collapse(state, 1.0, cfg)

    def test_collapses_reject_single_particle_state(self):
        from statesphere import Delta, StateExpr, normalize
        cfg = EPRConfig()
        single = normalize(StateExpr.single(Delta((0.0,))), cfg.momentum_kernel)
        with pytest.raises(DomainError):
            position_collapse(single, 1.0, cfg)
        with pytest.raises(DomainError):
            momentum_collapse(single, 1.0, cfg)

    def test_zero_momentum_target_is_constant_state(self):
        cfg = EPRConfig()
        kernel = cfg.momentum_kernel
        state = build_epr_state(cfg, kernel)
        path = momentum_collapse(state, 0.0, cfg)
        target = path.end_aligned.expr.terms[0]
        assert target[1].momentum == (0.0,) and target[2].momentum == (0.0,)


@pytest.fixture(scope="module")
def profile_setup():
    cfg = EPRConfig()
    kernel = cfg.momentum_kernel
    state = build_epr_state(cfg, kernel)
    qs = np.arange(-2.0, 2.0 + 1e-9, 0.5)
    return cfg, state, qs, momentum_correlation_profile(state, cfg, qs)


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
        profile = dict(momentum_correlation_profile(state, cfg, qs))
        np.testing.assert_allclose(profile[(1.0, -1.0)], profile[(-1.0, 1.0)], rtol=1e-9)

    def test_profile_invariant_under_global_phase(self, profile_setup):
        cfg, state, qs, profile = profile_setup
        from statesphere import SphereState
        rotated = SphereState(expr=state.expr.scaled(complex(math.cos(0.8), math.sin(0.8))),
                              kernel=state.kernel, raw_norm=state.raw_norm)
        sub = np.array([-1.0, 1.0])
        original = momentum_correlation_profile(state, cfg, sub)
        shifted = momentum_correlation_profile(rotated, cfg, sub)
        for (key_a, val_a), (key_b, val_b) in zip(original, shifted):
            assert key_a == key_b
            np.testing.assert_allclose(val_a, val_b, rtol=1e-12)

    def test_profile_requires_confined_kernel(self):
        cfg = EPRConfig()
        state = build_epr_state(cfg)
        with pytest.raises(DivergenceError):
            momentum_correlation_profile(state, cfg, np.array([0.0]))
