"""Tests for kernel evaluation, the induced metric, and the norm comparison."""

import functools
import math

import numpy as np
import pytest

from statesphere import (ConfinedKernel, Delta, DomainError, EPRConfig, ManifoldId,
                         MetricReference, MetricReport, Packet, QuadratureSpec, SlitConfig,
                         StateExpr, TranslationKernel, build_epr_state, finite_difference,
                         geodesic_at, geodesic_between, induced_metric, kernel_value,
                         manifold_member, manifold_separation, momentum_collapse,
                         momentum_correlation_profile, nearest_classical_points, norm_ratio,
                         normalize, position_collapse, position_correlation_profile)
from statesphere.manifolds import ManifoldOverlap

K1 = TranslationKernel(1.0)


class TestKernelValue:
    def test_translation_diagonal_is_one(self):
        assert kernel_value(K1, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)) == 1.0

    def test_translation_far_points_nearly_vanish(self):
        # |a-b| = 6 gives exp(-18), almost zero within a few length units
        value = kernel_value(K1, (0.0,), (6.0,))
        np.testing.assert_allclose(value, math.exp(-18.0), rtol=1e-14)
        assert value < 2e-8

    def test_confined_origin_is_one(self):
        assert kernel_value(ConfinedKernel(0.01, 1.0), (0.0,), (0.0,)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for kernel in (K1, TranslationKernel(0.7), ConfinedKernel(0.2, 1.3)):
            for _ in range(20):
                x = tuple(rng.uniform(-4, 4, 3))
                y = tuple(rng.uniform(-4, 4, 3))
                assert kernel_value(kernel, x, y) == kernel_value(kernel, y, x)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            TranslationKernel(0.0)
        with pytest.raises(DomainError):
            ConfinedKernel(-0.1, 1.0)
        with pytest.raises(DomainError):
            ConfinedKernel(0.1, 0.0)

    def test_rejects_dimension_mismatch(self):
        # stacked points too: the last axes must agree
        for x, y in (((0.0,), (0.0, 1.0)), (np.zeros((4, 2)), np.zeros((4, 3))),
                     (np.zeros((2, 1, 3)), np.zeros(2))):
            with pytest.raises(DomainError, match="^dimension mismatch"):
                kernel_value(K1, x, y)

    def test_stacked_points_give_the_one_pair_values(self):
        # induced_metric takes every stencil corner in one call; each value must be
        # the one-pair value bit for bit, since the stencil amplifies an ulp to ~1e-8
        rng = np.random.default_rng(23)
        for kernel in (K1, TranslationKernel(0.6), ConfinedKernel(0.01, 1.0),
                       ConfinedKernel(0.2, 1.5)):
            for d in (1, 2, 3):
                x, y = rng.uniform(-8, 8, (12, 1, d)), rng.uniform(-8, 8, (1, 10, d))
                got = kernel_value(kernel, x, y)
                assert got.shape == (12, 10)
                assert np.array_equal(got, [[kernel_value(kernel, a[0], b) for b in y[0]]
                                            for a in x])
                assert type(kernel_value(kernel, x[0, 0], y[0, 0])) is float


# (count argument, a call passing it a value, a valid value, a value below its bound)
COUNT_SITES = [
    ("coarse", lambda n: nearest_classical_points(
        [normalize(StateExpr.single(Packet((0.0,), 1.0)), K1)], ManifoldId.POSITION,
        (-1.0, 1.0), coarse=n), 5, 1),
    ("resolution", lambda n: manifold_separation(
        (0.0,), ManifoldId.POSITION, ManifoldId.POSITION, K1, (-1.0, 1.0), resolution=n), 5, 1),
    ("detector_grid count", lambda n: SlitConfig(detector_grid=(-30.0, 30.0, n)), 101, 1),
    ("discretization_n", lambda n: EPRConfig(discretization_n=n), 16, 7),
    ("nodes_per_axis", lambda n: QuadratureSpec(nodes_per_axis=n), 65, 31),
    ("refinement_levels", lambda n: QuadratureSpec(refinement_levels=n), 2, 0),
]


@pytest.mark.parametrize("name, call, valid, below", COUNT_SITES,
                         ids=[site[0] for site in COUNT_SITES])
def test_every_count_takes_one_integer_check(name, call, valid, below):
    # one rule per count: a bool, a float, a str or a value below the bound fails
    # naming the argument, and a numpy integer is an integer
    for bad in (True, 2.5, "9", below):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            call(bad)
    call(np.int64(valid))


@functools.cache
def _epr():
    """A small pair state under a confined kernel (both collapses take it), its config
    and a geodesic between two deltas."""
    cfg = EPRConfig(discretization_n=8)
    ends = (normalize(StateExpr.single(Delta((x,))), K1) for x in (0.0, 1.0))
    return build_epr_state(cfg, ConfinedKernel(0.1, 1.0)), cfg, geodesic_between(*ends)


def _real_sites(value):
    """(call, field name) of one real field of each kind of object, and of each real
    argument of a public function, set to `value`."""
    state, cfg, path = _epr()
    return ((lambda: TranslationKernel(value), "sigma"),
            (lambda: ConfinedKernel(0.1, value), "beta"),
            (lambda: Packet((0.0,), value), "packet width"),
            (lambda: EPRConfig(x0=value), "x0"),
            (lambda: SlitConfig(slit_positions=(value, 1.0)), "slit_positions"),
            (lambda: position_collapse(state, value, cfg), "a"),
            (lambda: momentum_collapse(state, value), "q"),
            (lambda: position_correlation_profile(state, value, [0.0]), "a"),
            (lambda: geodesic_at(path, value), "path parameter"))


# (argument, a call passing it a value): every argument read as an array of reals
ARRAY_SITES = [
    ("b_grid", lambda v: position_correlation_profile(_epr()[0], 0.0, v)),
    ("q_grid", lambda v: momentum_correlation_profile(_epr()[0], v)),
    ("params", lambda v: manifold_member(ManifoldId.POSITION, v, K1)),
    ("x", lambda v: kernel_value(K1, v, (0.0,))),
    ("y", lambda v: kernel_value(K1, (0.0,), v)),
    ("manifold points", lambda v: ManifoldOverlap(StateExpr.single(Delta((0.0,))), K1,
                                                  ManifoldId.POSITION)(v)),
    ("metric matrix", lambda v: MetricReport((0.0,), v, 0.0, MetricReference.EUCLIDEAN)),
    ("at", lambda v: finite_difference(lambda x, y: 0.0, (v, (0.0,)), (0, 0), 1e-3)),
]


@pytest.mark.parametrize("value", [np.array([[1 + 2j]]), np.complex128(1 + 2j), "x"],
                         ids=["complex-array", "complex128", "str"])
@pytest.mark.parametrize("name, call", ARRAY_SITES, ids=[site[0] for site in ARRAY_SITES])
def test_every_real_array_takes_one_check(name, call, value):
    # np.asarray(value, dtype=float) kept a complex array's real part with only a
    # ComplexWarning (kernel_value(K1, 1+1j, 0) read the value at 1) and raised a bare
    # ValueError on a string
    with pytest.raises(DomainError, match=f"^{name} must be reals"):
        call(value)


class TestCoordinates:
    # every primitive and induced_metric's point go through one coordinate check
    @pytest.mark.parametrize("coordinates", [lambda v: Delta(v).center,
                                             lambda v: induced_metric(K1, v).point],
                             ids=["Delta", "induced_metric"])
    def test_zero_d_array_is_a_one_vector(self, coordinates):
        assert coordinates(np.asarray(0.5)) == coordinates(0.5) == (0.5,)

    @pytest.mark.parametrize("bad", [np.array([[0.5]]), [[0.5, 1.0]], None, [1 + 2j], "abc", list],
                             ids=["2-d array", "nested list", "None", "complex", "str",
                                  "iterable class"])
    def test_malformed_coordinates_are_domain_errors(self, bad):
        with pytest.raises(DomainError, match="^coordinates must be reals"):
            Delta(bad)

    @pytest.mark.parametrize("value", [np.complex128(1 + 2j), np.complex64(1 + 1j),
                                       np.complex128(1.0), np.clongdouble(2j)],
                             ids=["complex128", "complex64", "zero imaginary part", "clongdouble"])
    def test_numpy_complex_scalars_are_domain_errors(self, value):
        # float() of a numpy complex kept the real part with only a ComplexWarning:
        # Delta([np.complex128(1+2j)]) built Delta((1.0,))
        with pytest.raises(DomainError, match="^coordinates must be reals"):
            Delta([value])
        with pytest.raises(DomainError, match="^coordinates must be reals"):
            Delta((0.5, value))
        for call, name in _real_sites(value):
            with pytest.raises(DomainError, match=f"^{name} must be a real number"):
                call()

    @pytest.mark.parametrize("value", ["abc", None, [1.0]], ids=["str", "None", "list"])
    def test_non_numeric_values_are_domain_errors(self, value):
        # float() raised a bare ValueError or TypeError: EPRConfig(x0="abc"),
        # Packet((0.0,), "abc") and TranslationKernel(None)
        for call, name in _real_sites(value):
            with pytest.raises(DomainError, match=f"^{name} must be a real number"):
                call()

    def test_integer_beyond_float_range_is_a_domain_error(self):
        for call, name in _real_sites(10**400):
            with pytest.raises(DomainError, match=f"^{name} is out of floating-point range"):
                call()

    @pytest.mark.parametrize("huge", [(10**5000,), [10**5000], 10**5000],
                             ids=["tuple", "list", "int"])
    def test_int_past_the_repr_limit_is_out_of_range(self, huge):
        # as_vec caught the out-of-range DomainError as a ValueError and formatted
        # the repr of the input, which fails past 4300 digits: a bare ValueError
        with pytest.raises(DomainError, match="^coordinates is out of floating-point range"):
            Delta(huge)

    def test_messages_show_no_unbounded_repr(self):
        # the repr of a huge int in a rejected value raised a bare ValueError
        with pytest.raises(DomainError, match="^coordinates must be reals, got a value of type list"):
            Delta([[10**5000]])
        with pytest.raises(DomainError, match="^discretization_n must be an integer from 8"):
            EPRConfig(discretization_n=10**5000)
        with pytest.raises(DomainError, match=r"^coordinates must be reals, got \[0, 1, 2, "):
            Delta([list(range(10**5))])

    def test_numeric_strings_stay_accepted(self):
        assert TranslationKernel("2").sigma == 2.0
        assert Packet((0.0,), "0.5").width == 0.5
        assert EPRConfig(x0="-1.5").x0 == -1.5


class TestInducedMetric:
    @pytest.mark.parametrize("at", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
    def test_rejects_non_finite_point(self, at):
        with pytest.raises(DomainError):
            induced_metric(K1, at)

    def test_rejects_point_beyond_max_dimension(self):
        # as every primitive's coordinates; a d-coordinate point costs 8 d^2 kernel values
        with pytest.raises(DomainError, match="^dimension must be an integer from 1 to 3"):
            induced_metric(K1, (0.0, 1.0, 2.0, 3.0))

    def test_rejects_a_point_whose_corners_round(self):
        # rounding moved the stencil corners at +- h: at 1e13 the matrix read -1.27, and
        # at 1e14 0, where the metric is 1; at h = 1e-3 the bound is 2^26, about 6.7e7
        assert induced_metric(K1, (6e7,)).deviation < 1e-4
        for at, h in (((1e8,), 1e-3), ((0.0, -1e13), 1e-3), ((1e200, 0.0, 0.0), 1e-3),
                      ((1e6,), 1e-5)):
            with pytest.raises(DomainError, match="^at is too far from the origin"):
                induced_metric(K1, at, h)

    def test_step_lies_in_a_window_of_the_length_scale(self):
        # 1e-5 to 0.1 times 1/sqrt(reference_factor): sigma, or 1/sqrt(2 beta)
        for kernel, scale in ((K1, 1.0), (TranslationKernel(2.0), 2.0),
                              (ConfinedKernel(0.1, 2.0), 0.5)):
            for h in (1e-5 * scale, 1e-3, 0.1 * scale):
                # at the origin the exact metric is the reference, 1 / scale^2
                assert induced_metric(kernel, (0.0,), h).deviation <= 1e-4 / scale**2
            for h in (0.9e-5 * scale, 1e-10, 1e-170, 0.11 * scale, 1000.0):
                with pytest.raises(DomainError, match="^h must lie"):
                    induced_metric(kernel, (0.3,), h)

    @pytest.mark.parametrize("matrix, text", [(np.zeros((2, 3)), "must be square"),
                                              (np.zeros(2), "must be square"),
                                              ([[1.0, 0.5], [0.0, 1.0]], "is not symmetric")],
                             ids=["non-square", "1-d", "non-symmetric"])
    def test_report_matrix_is_square_and_symmetric(self, matrix, text):
        with pytest.raises(DomainError, match=f"^metric matrix {text}"):
            MetricReport((0.0, 0.0), matrix, 0.0, MetricReference.EUCLIDEAN)

    def test_translation_unit_sigma_is_euclidean(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            report = induced_metric(K1, rng.uniform(-5, 5, 3))
            assert report.reference is MetricReference.EUCLIDEAN
            assert report.deviation <= 1e-6
            np.testing.assert_allclose(report.matrix, np.eye(3), atol=1e-6)

    def test_translation_general_sigma_scales(self):
        # analytic: d^2/dx dy exp(-(x-y)^2 / (2 s^2)) at x = y is I / s^2
        for sigma in (0.5, 2.0):
            report = induced_metric(TranslationKernel(sigma), (0.7, -1.1))
            np.testing.assert_allclose(report.matrix, np.eye(2) / sigma**2,
                                       atol=1e-6 / sigma**4)
            assert report.reference is MetricReference.SCALED_EUCLIDEAN
            assert report.reference_factor == 1.0 / sigma**2

    def test_confined_small_alpha_origin_is_twice_beta(self):
        previous = math.inf
        for alpha in (1e-2, 1e-4, 1e-6):
            report = induced_metric(ConfinedKernel(alpha, 1.0), (0.0, 0.0))
            assert report.reference_factor == 2.0
            assert report.deviation < 1e-8
            assert report.deviation <= previous + 1e-10
            previous = report.deviation

    def test_confined_distortion_grows_with_distance(self):
        kernel = ConfinedKernel(0.3, 1.0)
        deviations = [induced_metric(kernel, (r,)).deviation for r in (0.0, 1.0, 2.0)]
        assert deviations[0] < deviations[1] < deviations[2]

    def test_confined_matches_analytic_form(self):
        # g = exp(-2 a |p|^2) (2 b I + 4 a^2 p p^T)
        alpha, beta = 0.4, 1.2
        point = np.array([1.5, -0.5])
        expected = math.exp(-2 * alpha * point @ point) * (
            2 * beta * np.eye(2) + 4 * alpha**2 * np.outer(point, point))
        report = induced_metric(ConfinedKernel(alpha, beta), point)
        np.testing.assert_allclose(report.matrix, expected, atol=1e-8)


class TestNormRatio:
    def test_wide_packet_ratio_near_one(self):
        state = StateExpr.single(Packet((0.0,), 100.0))
        assert abs(norm_ratio(state, K1) - 1.0) <= 1e-3

    def test_single_packet_closed_value(self):
        # ratio of the two closed forms: 1 / sqrt(1 + sigma^2 / (4 w^2))
        for width, sigma in ((1.0, 1.0), (2.0, 0.5), (0.7, 1.5)):
            state = StateExpr.single(Packet((0.3,), width))
            expected = 1.0 / math.sqrt(1.0 + sigma**2 / (4.0 * width**2))
            got = norm_ratio(state, TranslationKernel(sigma))
            np.testing.assert_allclose(got, expected, rtol=1e-12)
            assert got < 1.0

    def test_ratio_invariant_under_coefficient_scale(self):
        base = StateExpr.single(Packet((1.0,), 0.8))
        scaled = base.scaled(0.3 - 1.7j)
        np.testing.assert_allclose(norm_ratio(base, K1), norm_ratio(scaled, K1), rtol=1e-12)

    def test_ratio_invariant_under_length_rescaling(self):
        # lengths and sigma scale together; momenta scale inversely
        for factor in (0.5, 2.0, 5.0):
            base = StateExpr(((1.0, Packet((1.0,), 0.8, (0.6,))),
                              (0.5 + 0.2j, Packet((-0.5,), 1.4, (-0.3,)))))
            scaled = StateExpr(tuple(
                (c, Packet(tuple(x * factor for x in p.center), p.width * factor,
                           tuple(m / factor for m in p.momentum)))
                for c, p in base.terms))
            r0 = norm_ratio(base, TranslationKernel(1.0))
            r1 = norm_ratio(scaled, TranslationKernel(factor))
            np.testing.assert_allclose(r0, r1, rtol=1e-12)

    def test_rejects_non_packets_and_confined(self):
        delta = StateExpr.single(Delta((0.0,)))
        with pytest.raises(DomainError):
            norm_ratio(delta, K1)
        packet = StateExpr.single(Packet((0.0,), 1.0))
        with pytest.raises(DomainError):
            norm_ratio(packet, ConfinedKernel(0.1, 1.0))
