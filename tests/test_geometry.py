"""Tests for sphere states, geodesics, and collapse timing."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statesphere import (ConfinedKernel, Delta, DomainError, GeodesicUndeterminedError, Packet,
                         StateExpr, StateSphereError, TranslationKernel, UnitSystem, blend,
                         classical_path_length, collapse_time, embed_position, fs_angle,
                         geodesic_at, geodesic_between, induced_metric,
                         normalize, sphere_angle, state_overlap)

from statesphere.geometry import _DEGENERATE_ANGLE

import referee
from helpers import diff_norm, kernels, primitives, random_pair_state, random_state

K1 = TranslationKernel(1.0)


def delta_state(*coords):
    return normalize(StateExpr.single(Delta(tuple(coords))), K1)


class TestUnitSystem:
    def test_defaults(self):
        units = UnitSystem()
        assert units.planck_length_m == 1.6e-35
        assert units.light_speed_m_per_s == 2.99792458e8
        np.testing.assert_allclose(units.planck_time_s, 1.6e-35 / 2.99792458e8, rtol=1e-15)

    def test_time_is_length_over_speed(self):
        assert UnitSystem(2.0, 4.0).planck_time_s == 0.5
        # the fields keep the float their check returns, so this no longer fails later
        assert UnitSystem("2", 4).planck_time_s == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            UnitSystem(planck_length_m=0.0)
        for value in (math.nan, math.inf):
            for field in ("planck_length_m", "light_speed_m_per_s"):
                with pytest.raises(DomainError):
                    UnitSystem(**{field: value})


class TestNormalize:
    def test_delta_already_unit(self):
        state = delta_state(1.0, 2.0, 3.0)
        assert state.raw_norm == 1.0
        assert state.norm_defect() < 1e-14

    def test_far_superposition_norm_sqrt_two(self):
        expr = blend(1.0, StateExpr.single(Delta((0.0,))), 1.0, StateExpr.single(Delta((40.0,))))
        state = normalize(expr, K1)
        np.testing.assert_allclose(state.raw_norm, math.sqrt(2.0), rtol=1e-12)
        assert state.norm_defect() < 1e-12

    def test_zero_state_rejected(self):
        # two canceling terms over the same primitive
        expr = StateExpr(((1.0, Delta((0.0,))), (-1.0, Delta((0.0,)))))
        with pytest.raises(DomainError):
            normalize(expr, K1)

    @pytest.mark.parametrize("h", [
        1e-3, 1.0,
        pytest.param(10.0, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 4: the expanded exponent of ||packet(10, 0.25)||^2 cancels, "
            "b.A^-1.b / 2 against c = -800, and loses 1.1e-13 (relative)")),
    ])
    def test_packet_difference_norm_is_good_to_its_terms(self, h):
        # ||a - b||^2 sums four overlaps of size up to ||a||^2: whatever it cancels, its
        # rounding error should be a few ulps of their moduli's sum (1.4 at h = 10)
        a, b = StateExpr.single(Packet((0.0,), 0.25)), StateExpr.single(Packet((h,), 0.25))
        expr = blend(1.0, a, -1.0, b)
        want = referee.norm(expr, K1) ** 2
        scale = sum(abs(referee.inner_product(x, y, K1)) for x in (a, b) for y in (a, b))
        assert abs(normalize(expr, K1).raw_norm ** 2 - want) <= 1e-14 * scale

    @pytest.mark.xfail(strict=True, raises=DomainError,
                       reason="ROADMAP item 4: ||delta(30)||^2 = exp(-1800) under "
                       "confined:1,1 underflows to 0")
    def test_far_confined_delta_normalizes(self):
        expr, kernel = embed_position((30.0,)), ConfinedKernel(1.0, 1.0)
        with mpmath.workdps(referee.DPS):
            assert abs(referee.norm(expr, kernel) / mpmath.exp(-900) - 1) <= 1e-40  # 1.2e-391
        assert normalize(expr, kernel).norm_defect() <= 1e-12

    @pytest.mark.parametrize("h", [
        0.5,
        pytest.param(1e-9, marks=pytest.mark.xfail(
            strict=True, raises=DomainError,
            reason="ROADMAP item 6: 2 - 2 exp(-h^2 / 2) cancels to 0 at h = 1e-9")),
    ])
    def test_near_coincident_difference_has_its_norm(self, h):
        # ||delta(0) - delta(h)|| = sqrt(2 - 2 exp(-h^2 / 2)) = 1.0e-9 at h = 1e-9
        expr = blend(1.0, embed_position((0.0,)), -1.0, embed_position((h,)))
        want = referee.norm(expr, K1)
        assert abs(normalize(expr, K1).raw_norm - want) <= 1e-12 * want


class TestAngles:
    def test_self_angle_zero(self):
        state = delta_state(0.5)
        assert sphere_angle(state, state) == 0.0

    def test_delta_angle_formula_and_monotonicity(self):
        angles = []
        for b in np.arange(0.0, 10.5, 0.5):
            theta = sphere_angle(delta_state(0.0), delta_state(float(b)))
            np.testing.assert_allclose(theta, math.acos(math.exp(-0.5 * b * b)), atol=1e-12)
            angles.append(theta)
        assert all(b >= a for a, b in zip(angles, angles[1:]))
        # strictly increasing while the angle is resolvable below pi/2
        assert all(b > a for a, b in zip(angles[:18], angles[1:18]))

    @pytest.mark.parametrize("b", [
        1.0, 0.1,
        *(pytest.param(b, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 6: acos(exp(-b^2 / 2)) cancels: 1.49 b at b = 1e-8, "
            "0 at b = 1e-9 and below")) for b in (1e-8, 1e-9, 1e-20, 1e-300)),
    ])
    def test_delta_angle_matches_the_referee(self, b):
        # the angle is b (1 - b^2 / 24 + ...), 1.0e-9 at b = 1e-9; the referee raises
        # its digits until 1 - cos keeps 50 (at 50 digits it read 0 at b = 1e-300)
        want = referee.sphere_angle(embed_position((0.0,)), embed_position((b,)), K1)
        assert abs(sphere_angle(delta_state(0.0), delta_state(b)) - want) <= 1e-12 * want

    def test_far_deltas_approach_right_angle(self):
        for b in (6.0, 8.0, 10.0):
            theta = sphere_angle(delta_state(0.0), delta_state(b))
            assert math.pi / 2 - theta <= 1e-6

    def test_equal_superposition_vs_component(self):
        far = blend(1.0, StateExpr.single(Delta((0.0,))), 1.0, StateExpr.single(Delta((30.0,))))
        theta = sphere_angle(normalize(far, K1), delta_state(0.0))
        np.testing.assert_allclose(theta, math.pi / 4, atol=1e-12)

    def test_fs_angle_phase_invariant(self):
        # rounding in the overlap modulus caps resolution at acos(1 - eps)
        state = normalize(random_state(np.random.default_rng(5)), K1)
        rotated = normalize(state.expr.scaled(complex(math.cos(1.1), math.sin(1.1))), K1)
        assert fs_angle(state, rotated) <= 3e-8
        assert sphere_angle(state, rotated) > 0.5

    def test_fs_angle_equals_sphere_angle_for_deltas(self):
        a, b = delta_state(0.0), delta_state(1.5)
        assert fs_angle(a, b) == sphere_angle(a, b)

    def test_fs_angle_below_sphere_angle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = normalize(random_state(rng), K1)
            b = normalize(random_state(rng), K1)
            assert fs_angle(a, b) <= sphere_angle(a, b) + 1e-12

    def test_kernel_mismatch_rejected(self):
        a = delta_state(0.0)
        b = normalize(StateExpr.single(Delta((0.0,))), TranslationKernel(2.0))
        with pytest.raises(DomainError):
            sphere_angle(a, b)


@st.composite
def endpoint_states(draw):
    """A kernel and two 1-3 term states of one dimension; plane waves only under a
    confined kernel."""
    kernel, d = draw(kernels), draw(st.integers(1, 3))
    kinds = ("delta", "packet") + (("wave",) if isinstance(kernel, ConfinedKernel) else ())
    coeffs = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False,
                                allow_infinity=False)
    states = [StateExpr(tuple(draw(st.lists(st.tuples(coeffs, primitives(d, kinds)),
                                            min_size=1, max_size=3))))
              for _ in range(2)]
    return kernel, *states


class TestGeodesic:
    @settings(max_examples=150, deadline=None)
    @given(endpoint_states(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_samples_are_blends(self, case, ts):
        # the path joins its endpoints once; each sample stays blend's state, bit for bit
        kernel, a, b = case
        try:
            path = geodesic_between(normalize(a, kernel), normalize(b, kernel))
        except StateSphereError:
            assume(False)
        assume(path.theta >= _DEGENERATE_ANGLE)
        sin_theta = math.sin(path.theta)
        for t in ts:
            got = geodesic_at(path, t).expr
            want = blend(math.sin((1.0 - t) * path.theta) / sin_theta, path.start.expr,
                         math.sin(t * path.theta) / sin_theta, path.end_aligned.expr)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got._whole == want._whole
            for got_basis, want_basis, got_rows, want_rows in zip(
                    got.bases, want.bases, got.indices, want.indices):
                assert got_rows.tobytes() == want_rows.tobytes()
                assert all(getattr(got_basis, name).tobytes() == getattr(want_basis, name).tobytes()
                           for name in ("kind", "center", "width", "momentum", "s"))

    def test_endpoints_reproduced_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = normalize(random_state(rng), K1)
            b = normalize(random_state(rng), K1)
            path = geodesic_between(a, b)
            assert diff_norm(geodesic_at(path, 0.0).expr, a.expr, K1) <= 1e-10
            assert diff_norm(geodesic_at(path, 1.0).expr, path.end_aligned.expr, K1) <= 1e-10

    def test_unit_norm_along_path(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = normalize(random_state(rng), K1)
            b = normalize(random_state(rng), K1)
            path = geodesic_between(a, b)
            for t in np.linspace(0.0, 1.0, 7):
                assert geodesic_at(path, float(t)).norm_defect() <= 1e-9

    def test_aligned_overlap_real_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = normalize(random_state(rng), K1)
            b = normalize(random_state(rng), K1)
            path = geodesic_between(a, b)
            ov = state_overlap(a, path.end_aligned)
            assert abs(ov.imag) <= 1e-12
            assert ov.real >= -1e-12
            np.testing.assert_allclose(math.cos(path.theta), ov.real, atol=1e-12)

    def test_midpoint_symmetric_for_deltas(self):
        a = delta_state(0.0)
        b = delta_state(2.0)
        path = geodesic_between(a, b)
        mid = geodesic_at(path, 0.5)
        np.testing.assert_allclose(sphere_angle(mid, a), sphere_angle(mid, b), atol=1e-12)
        assert mid.norm_defect() <= 1e-12

    def test_discrete_speed_matches_theta(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for _ in range(10):
            a = normalize(random_state(rng), K1)
            b = normalize(random_state(rng), K1)
            path = geodesic_between(a, b)
            for t in (0.2, 0.6):
                speed = diff_norm(geodesic_at(path, t + h).expr,
                                  geodesic_at(path, t).expr, K1) / h
                assert abs(speed - path.theta) <= 1e-6

    def test_degenerate_path_returns_start(self):
        a = delta_state(1.0)
        path = geodesic_between(a, a)
        assert path.theta == 0.0
        assert geodesic_at(path, 0.7) is path.start

    def test_antipodal_rejected(self):
        a = normalize(StateExpr.single(Delta((0.0,))), K1)
        minus = normalize(StateExpr.single(Delta((0.0,)), coeff=-1.0), K1)
        with pytest.raises(GeodesicUndeterminedError):
            geodesic_between(a, minus)

    def test_orthogonal_endpoints_take_no_phase(self):
        # the overlap underflows to 0, whose phase is undefined: the end is kept as it is
        a, b = delta_state(0.0), delta_state(100.0)
        path = geodesic_between(a, b)
        assert state_overlap(a, b) == 0
        assert (path.theta, path.alignment_phase) == (math.pi / 2, 0.0)
        assert path.end_aligned.expr.coeffs.tobytes() == b.expr.coeffs.tobytes()

    def test_parameter_out_of_range(self):
        path = geodesic_between(delta_state(0.0), delta_state(1.0))
        with pytest.raises(DomainError):
            geodesic_at(path, 1.5)

    def test_sampled_angles_match_per_sample_path(self):
        # a great circle: the sample at t lies t theta from the start, as the
        # geodesic csv writes it; below 1e-6 a per-sample angle reads acos noise
        # of an overlap within ulps of 1
        rng = np.random.default_rng(11)
        kc = ConfinedKernel(0.1, 1.0)
        pairs = [(delta_state(0.0), delta_state(1e-3)), (delta_state(1.0), delta_state(1.0))]
        for kernel in (K1, kc):
            for make in (random_state, random_pair_state):
                for _ in range(4):
                    pairs.append((normalize(make(rng), kernel), normalize(make(rng), kernel)))
        ts = np.linspace(0.0, 1.0, 41)
        for a, b in pairs:
            path = geodesic_between(a, b)
            want = np.array([sphere_angle(a, geodesic_at(path, float(t))) for t in ts])
            got = ts * path.theta
            resolved = want > 1e-6
            np.testing.assert_allclose(got[resolved], want[resolved], rtol=0.0, atol=1e-9)
            assert np.all(got[~resolved] <= 1e-6)


class TestCollapseTime:
    def test_full_half_circle_timing(self):
        path = geodesic_between(delta_state(0.0), delta_state(8.0))
        # theta is pi/2 up to 1.6e-14; the time for pi would be ~1.68e-43 s
        time = collapse_time(path)
        np.testing.assert_allclose(time, (math.pi / 2) * 1.6e-35 / 2.99792458e8, rtol=1e-10)

    def test_quarter_circle_below_paper_bound(self):
        far = blend(1.0, StateExpr.single(Delta((0.0,))), 1.0, StateExpr.single(Delta((30.0,))))
        path = geodesic_between(normalize(far, K1), delta_state(0.0))
        time = collapse_time(path)
        assert time < 1e-43
        np.testing.assert_allclose(time, (math.pi / 4) * 1.6e-35 / 2.99792458e8, rtol=1e-10)

    def test_custom_speed(self):
        path = geodesic_between(delta_state(0.0), delta_state(1.0))
        assert collapse_time(path, speed_m_per_s=1.0) == path.theta * 1.6e-35

    def test_rejects_bad_speed(self):
        path = geodesic_between(delta_state(0.0), delta_state(1.0))
        for speed in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                collapse_time(path, speed_m_per_s=speed)

    def test_universal_bound(self):
        rng = np.random.default_rng(11)
        bound = math.pi * UnitSystem().planck_time_s
        for _ in range(30):
            a = normalize(random_state(rng), K1)
            b = normalize(random_state(rng), K1)
            assert collapse_time(geodesic_between(a, b)) <= bound * (1 + 1e-12)


class TestClassicalPathLength:
    def test_zero_and_direct(self):
        assert classical_path_length((1.0, 2.0), (1.0, 2.0)) == 0.0
        assert classical_path_length((0.0,), (7.0,)) == 7.0

    def test_exceeds_chordal_bound(self):
        # straight-line distance 7 exceeds the chordal sphere maximum of 2
        theta = sphere_angle(delta_state(0.0), delta_state(7.0))
        chord = 2.0 * math.sin(theta / 2.0)
        assert classical_path_length((0.0,), (7.0,)) > math.pi / 2 > chord / 2

    def test_chord_never_exceeds_segment_length(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = tuple(rng.uniform(-5, 5, 3))
            b = tuple(rng.uniform(-5, 5, 3))
            theta = sphere_angle(delta_state(*a), delta_state(*b))
            assert 2.0 * math.sin(theta / 2.0) <= classical_path_length(a, b) + 1e-12

    def test_matches_metric_line_integral(self):
        # integrate sqrt(v^T g v) along the straight segment with the
        # finite-difference metric; for sigma = 1 this is the Euclidean length
        rng = np.random.default_rng(13)
        a = np.array([0.5, -1.0])
        b = np.array([2.0, 1.5])
        direction = b - a
        ts, weights = np.polynomial.legendre.leggauss(8)
        total = 0.0
        for t, w in zip(ts, weights):
            point = a + 0.5 * (t + 1.0) * direction
            g = induced_metric(K1, point).matrix
            total += 0.5 * w * math.sqrt(direction @ g @ direction)
        np.testing.assert_allclose(total, classical_path_length(tuple(a), tuple(b)),
                                   rtol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            classical_path_length((0.0,), (0.0, 1.0))
