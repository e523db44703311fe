"""Tests for the closed-form Gaussian-integral engine and inner products."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statesphere import (ConfinedKernel, Delta, DivergenceError, DomainError,
                         EPRConfig, NumericalFailureError, Packet, PlaneWave,
                         SlitConfig, StateExpr, StateSphereError,
                         TranslationKernel, blend, build_epr_state,
                         inner_product, l2_inner_product, norm_ratio,
                         normalize, overlap_matrix, primitive_overlap)
from statesphere import ManifoldId, algebra
from statesphere.kernels import kernel_coefficients
from statesphere.manifolds import ManifoldOverlap
from statesphere.oracle import QuadratureSpec, quad_inner_product, quad_pair_overlap

import referee
from helpers import kernels, primitives, random_primitive, random_state, tensor_grid_quadrature

K1 = TranslationKernel(1.0)
KC = ConfinedKernel(0.1, 1.0)


class TestTypes:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Delta((float("nan"),))
        with pytest.raises(DomainError):
            Packet((0.0,), float("inf"))
        with pytest.raises(DomainError):
            StateExpr(((complex("nan"), Delta((0.0,))),))

    def test_rejects_bad_width(self):
        with pytest.raises(DomainError):
            Packet((0.0,), 0.0)
        with pytest.raises(DomainError):
            Packet((0.0,), -1.0)

    @pytest.mark.parametrize("bad", ["abc", None, 10**400], ids=["string", "none", "huge"])
    @pytest.mark.parametrize("name, make", [
        ("coefficient", lambda z: StateExpr(((z, Delta((0.0,))),))),
        ("coefficient", lambda z: StateExpr.single(Delta((0.0,)), coeff=z)),
        ("scale", lambda z: StateExpr.single(Delta((0.0,))).scaled(z)),
        ("weight", lambda z: blend(1.0, StateExpr.single(Delta((0.0,))), z,
                                   StateExpr.single(Delta((1.0,))))),
        ("coefficients", lambda z: SlitConfig(coefficients=(1.0, z))),
    ], ids=["terms", "single", "scaled", "blend", "slit-config"])
    def test_rejects_non_numeric_coefficients(self, name, make, bad):
        # complex() raised a bare ValueError, TypeError or OverflowError
        with pytest.raises(DomainError, match=name):
            make(bad)

    @pytest.mark.parametrize("make, text", [
        (lambda: Packet((0.0,), 1.0, (0.0, 1.0)), "packet momentum and center dimensions differ"),
        (lambda: algebra.Basis(Packet, [[0.0], [1.0]], [1.0, 2.0, 3.0]),
         "the arrays of a basis need 2 rows"),
        (lambda: StateExpr.from_arrays(["abc"], [algebra.Basis(Delta, [[0.0]])], [[0]]),
         "a state needs complex coefficients and integer row arrays"),
        (lambda: StateExpr.from_arrays([1.0, 1.0], [algebra.Basis(Delta, [[0.0], [1.0]])],
                                       [[0, [1]]]),
         "a state needs complex coefficients and integer row arrays"),
        (lambda: StateExpr(((1.0, "abc"),)), "not a primitive: 'abc'"),
        (lambda: inner_product(StateExpr.single(Delta((0.0,))), Delta((0.0,)), K1),
         "inner products need two state expressions"),
        (lambda: inner_product(StateExpr.single(Delta((0.0,))),
                               StateExpr.single(Delta((0.0, 1.0))), K1),
         "states have different dimensions"),
        (lambda: kernel_coefficients("translation:1"), "unknown kernel spec"),
        # the L2 product read the operands' bases before checking them: an AttributeError
        (lambda: l2_inner_product(1.0, StateExpr.single(Packet((0.0,), 1.0))),
         "inner products need two state expressions"),
        (lambda: norm_ratio(1.0, K1), "inner products need two state expressions"),
    ], ids=["packet-momentum", "basis-rows", "array-coefficients", "array-rows", "term",
            "inner-product-operand", "inner-product-dimensions", "kernel", "l2-operand",
            "norm-ratio-operand"])
    def test_malformed_input_is_a_domain_error(self, make, text):
        with pytest.raises(DomainError, match=f"^{re.escape(text)}"):
            make()

    def test_equality_with_a_non_state_is_not_implemented(self):
        state = StateExpr.single(Delta((0.0,)))
        assert state.__eq__(Delta((0.0,))) is NotImplemented
        assert state != Delta((0.0,)) and state != 1.0

    def test_rejects_empty_or_zero_state(self):
        with pytest.raises(DomainError):
            StateExpr(())
        with pytest.raises(DomainError):
            StateExpr(((0j, Delta((0.0,))),))

    def test_zero_coefficient_terms_are_dropped(self):
        a = StateExpr.single(Delta((0.0,)))
        b = StateExpr.single(Packet((1.0,), 0.5))
        mixed = StateExpr(((0j, Packet((2.0,), 1.0)), (1.0, Delta((0.0,))), (0.0, Delta((3.0,)))))
        assert mixed.terms == a.terms
        assert blend(1.0, a, 0.0, b).terms == a.terms
        assert blend(0.0, a, 2.0, b).terms == ((2.0 + 0j, Packet((1.0,), 0.5)),)
        assert a.scaled(2.0).terms == ((2.0 + 0j, Delta((0.0,))),)
        # a dropped term is still validated
        with pytest.raises(DomainError):
            StateExpr(((1.0, Delta((0.0,))), (0.0, Delta((0.0, 1.0)))))

    def test_zero_coefficient_wave_is_harmless_under_translation_kernel(self):
        # <wave, wave> diverges under a translation kernel, but a wave with a
        # zero coefficient is no part of the state
        expr = StateExpr(((1.0, Delta((0.0,))), (0.0, PlaneWave((0.5,))),
                          (0.5, Packet((1.0,), 0.8))))
        plain = StateExpr(((1.0, Delta((0.0,))), (0.5, Packet((1.0,), 0.8))))
        assert inner_product(expr, expr, K1) == inner_product(plain, plain, K1)
        assert quad_inner_product(expr, expr, K1) == quad_inner_product(plain, plain, K1)
        theta = np.array([[-0.5], [0.0], [1.5]])
        got = ManifoldOverlap(expr, K1, ManifoldId.POSITION)(theta)
        assert got.tobytes() == ManifoldOverlap(plain, K1, ManifoldId.POSITION)(theta).tobytes()

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DomainError):
            StateExpr(((1.0, Delta((0.0,))), (1.0, Delta((0.0, 1.0)))))
        with pytest.raises(DomainError):
            StateExpr(((1.0, Delta((0.0,)), Delta((0.0, 1.0))),))
        with pytest.raises(DomainError):
            StateExpr(((1.0, Delta((0.0,))), (1.0, Delta((0.0,)), Delta((1.0,)))))
        single = StateExpr.single(Delta((0.0,)))
        pair = StateExpr.single(Delta((0.0,)), Delta((1.0,)))
        assert (single.arity, pair.arity) == (1, 2)
        with pytest.raises(DomainError):
            inner_product(single, pair, K1)
        with pytest.raises(DomainError):
            blend(1.0, single, 1.0, pair)

    def test_blend_takes_four_arguments(self):
        # joined bases are `_blended`'s; `blend` would use any it were given, silently
        packet, wave = StateExpr.single(Packet((0.0,), 1.0)), StateExpr.single(PlaneWave((1.0,)))
        with pytest.raises(TypeError):
            blend(1.0, StateExpr.single(Delta((0.0,))), 1.0, StateExpr.single(Delta((1.0,))),
                  algebra._joined_slots(packet, wave))

    def test_rejects_dimension_above_three(self):
        with pytest.raises(DomainError):
            Delta((0.0, 0.0, 0.0, 0.0))

    def test_packet_momentum_defaults_to_zero(self):
        packet = Packet((1.0, 2.0), 0.5)
        assert packet.momentum == (0.0, 0.0)


def _decades(low: float, high: float):
    """Hypothesis strategy: 10**x for x drawn from [low, high]."""
    return st.floats(low, high).map(lambda x: 10.0**x)


class TestFreePairRule:
    """`_check_free_pairs`, the one rule for the per-axis matrix M of two free factors."""

    def test_near_singular_pair_is_a_numerical_failure(self):
        # det(M) / 4 = conf (conf + 2 pair) > 0 and cond(M) ~ 2e17: near singular, not
        # invalid, though LAPACK's smallest eigenvalue of M comes out <= 0
        with pytest.raises(NumericalFailureError, match="near singular"):
            primitive_overlap(PlaneWave((0.1,)), PlaneWave((0.2,)), ConfinedKernel(1e-17, 1.0))

    @pytest.mark.parametrize("other, kernel", [(Packet((0.0,), 1e-5), K1),
                                               (PlaneWave((0.0,)), KC)], ids=["packet", "wave"])
    def test_extreme_width_is_a_numerical_failure(self, other, kernel):
        # s = 2.5e299: det(M) formed unscaled overflows to inf, and lambda_max^2 / inf
        # would pass the cap
        with pytest.raises(NumericalFailureError, match="near singular"):
            primitive_overlap(Packet((0.0,), 1e-150), other, kernel)

    @pytest.mark.parametrize("f, g", [
        # s = 1e308 is finite, 2 s is not: the form's diagonal overflowed into LAPACK
        (Packet((0.0,), 5e-155), Packet((0.0,), 5e-155)),
        # 2 s mu and -s |mu|^2 overflow: the overlap came out nan + nan j
        (Packet((1e10,), 1e-150), Packet((1e10,), 1e-150)),
        (Delta((0.0,)), Packet((1e10,), 1e-150)),
        (Packet((1e10,), 1e-150), Delta((0.0,))),
    ], ids=["two-s", "packet-packet", "delta-packet", "packet-delta"])
    def test_non_finite_profile_is_a_numerical_failure(self, f, g):
        with pytest.raises(NumericalFailureError, match="profile is not finite"):
            primitive_overlap(f, g, K1)
        packet = g if isinstance(f, Delta) else f
        with pytest.raises(NumericalFailureError, match="profile is not finite"):
            ManifoldOverlap(StateExpr.single(packet), K1, ManifoldId.POSITION)

    @settings(max_examples=500, deadline=None)
    @given(kernel=st.one_of(st.builds(TranslationKernel, _decades(-5.0, 5.0)),
                            st.builds(ConfinedKernel, _decades(-20.0, 4.0), _decades(-10.0, 10.0))),
           s=st.lists(st.one_of(st.just(0.0), _decades(-300.0, 300.0)), min_size=2, max_size=2))
    def test_decides_as_the_eigenvalues(self, kernel, s):
        # the rule against the exact det(M) / 4 and cond(M) = lambda_max / lambda_min of
        # the drawn (conf, pair, s), in 60-digit mpmath: DivergenceError where det(M) <= 0,
        # NumericalFailureError where cond(M) > CONDITION_CAP, else no error, also where
        # LAPACK's smallest eigenvalue of the rounded M is <= 0.  Near the cap the rule's
        # float arithmetic decides apart within about 1e-15 (relative), so draws within
        # 1e-12 of it are skipped
        with mpmath.workdps(60):
            (conf, pair), (s_f, s_g) = map(mpmath.mpf, kernel_coefficients(kernel)), s
            a, b = conf + pair + s_f, conf + pair + s_g
            det = (conf + s_f) * (conf + pair + s_g) + pair * (conf + s_g)
            largest = (a + b) / 2 + mpmath.sqrt(((a - b) / 2) ** 2 + pair**2)
            cond = largest**2 / det if det > 0 else mpmath.inf
            assume(det <= 0 or abs(cond / algebra.CONDITION_CAP - 1) >= 1e-12)
        want = (DivergenceError if det <= 0 else
                NumericalFailureError if cond > algebra.CONDITION_CAP else None)
        if want is None:
            algebra._check_free_pairs([s_f], [s_g], kernel)
        else:
            with pytest.raises(want):
                algebra._check_free_pairs([s_f], [s_g], kernel)


class TestPrimitiveOverlap:
    def test_delta_delta_is_direct(self):
        np.testing.assert_allclose(primitive_overlap(Delta((0.0,)), Delta((1.0,)), K1),
                                   math.exp(-0.5), rtol=1e-14)

    def test_delta_norm_is_one(self):
        for center in ((0.0,), (3.0, -1.0), (1.0, 2.0, 3.0)):
            value = primitive_overlap(Delta(center), Delta(center), K1)
            np.testing.assert_allclose(value, 1.0, rtol=1e-14)

    def test_plane_wave_pair_translation_diverges(self):
        # at sigma = 0.6205471095295118, pair * pair - pair**2 rounds to 2.2e-16
        for kernel in (K1, TranslationKernel(0.6205471095295118)):
            with pytest.raises(DivergenceError, match="PlaneWave"):
                primitive_overlap(PlaneWave((1.0,)), PlaneWave((1.0,)), kernel)

    def test_packet_pair_matches_oracle(self):
        f = Packet((1.0,), 0.8, (0.7,))
        g = Packet((-1.5,), 1.2, (-0.4,))
        closed = primitive_overlap(f, g, K1)
        quad, estimate = quad_pair_overlap(f, g, K1)
        np.testing.assert_allclose(closed, quad, rtol=1e-10)
        assert abs(closed - quad) <= 10 * estimate + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            primitive_overlap(Delta((0.0,)), Delta((0.0, 0.0)), K1)


@st.composite
def state_cases(draw):
    """Two states of one to three terms, of one arity (1 or 2) and dimension, and a kernel."""
    d, arity = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
        lambda c: abs(c) > 0.1)
    term = st.tuples(coeff, *[primitives(d)] * arity)
    states = [StateExpr(tuple(draw(st.lists(term, min_size=1, max_size=3)))) for _ in range(2)]
    return states, draw(kernels)


class TestInnerProduct:
    @settings(max_examples=150, deadline=None)
    @given(state_cases())
    def test_matches_the_referee(self, case):
        # relative to the term pairs' magnitudes, whose free-free overlaps are good to
        # 1.9e-12 (see TestOverlapMatrix), so cancellation between terms does not
        # loosen or tighten the check
        (phi, psi), kernel = case
        try:  # the term pairs' values
            terms = [referee.inner_product(StateExpr((a,)), StateExpr((b,)), kernel)
                     for a in phi.terms for b in psi.terms]
        except DivergenceError:
            with pytest.raises(DivergenceError):
                inner_product(phi, psi, kernel)
            return
        got, want = mpmath.mpc(inner_product(phi, psi, kernel)), mpmath.fsum(terms)
        assert abs(got - want) <= 1e-11 * sum(map(abs, terms)) + 1e-300

    def test_delta_overlap_follows_kernel(self):
        a = StateExpr.single(Delta((0.0,)))
        b = StateExpr.single(Delta((1.0,)))
        np.testing.assert_allclose(inner_product(a, b, K1), math.exp(-0.5), rtol=1e-14)

    def test_two_delta_superposition_norm(self):
        # |c1|^2 + |c2|^2 + 2 Re(c1 conj(c2)) exp(-|x1-x2|^2 / 2)
        c1, c2 = 0.8 + 0.3j, -0.2 + 0.5j
        x1, x2 = 0.5, 2.0
        expr = StateExpr(((c1, Delta((x1,))), (c2, Delta((x2,)))))
        expected = (abs(c1) ** 2 + abs(c2) ** 2
                    + 2 * (c1 * c2.conjugate()).real * math.exp(-0.5 * (x1 - x2) ** 2))
        np.testing.assert_allclose(inner_product(expr, expr, K1), expected, rtol=1e-13)

    def test_norm_is_real_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            kernel = K1 if rng.uniform() < 0.5 else KC
            state = random_state(rng, d=int(rng.integers(1, 4)))
            value = inner_product(state, state, kernel)
            assert value.imag == 0.0
            assert value.real >= 0.0

    def test_norm_imag_residue_small_without_clamping(self):
        # reorder terms so the clamp path is not taken
        rng = np.random.default_rng(12)
        for _ in range(50):
            state = random_state(rng, d=1, max_terms=3)
            if len(state.terms) < 2:
                continue
            reordered = StateExpr(tuple(reversed(state.terms)))
            value = inner_product(state, reordered, K1)
            assert abs(value.imag) <= 1e-10 * max(1.0, abs(value))

    def test_norm_clamp_takes_only_residues_within_tolerance(self):
        # within IMAG_RESIDUE_TOL of max(1, |total|) a norm clamps; beyond it, it raises
        assert algebra._clamp_norm(1 + 1e-12j) == complex(1.0, 0.0)
        assert algebra._clamp_norm(-1e-12) == complex(0.0, 0.0)
        for total, message in ((1 + 1e-9j, "imaginary residue"), (-1e-9 + 0j, "negative")):
            with pytest.raises(NumericalFailureError, match=message):
                algebra._clamp_norm(total)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            phi = random_state(rng, d=2)
            psi = random_state(rng, d=2)
            lhs = inner_product(phi, psi, K1)
            rhs = inner_product(psi, phi, K1).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_bilinearity(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            phi1 = random_state(rng)
            phi2 = random_state(rng)
            psi = random_state(rng)
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            lhs = inner_product(blend(a, phi1, b, phi2), psi, K1)
            rhs = a * inner_product(phi1, psi, K1) + b * inner_product(phi2, psi, K1)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_gram_matrix_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            prims = [random_primitive(rng, d=1) for _ in range(6)]
            gram = np.array([[primitive_overlap(f, g, K1) for g in prims] for f in prims])
            assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_divergence_propagates(self):
        wave = StateExpr.single(PlaneWave((1.0,)))
        with pytest.raises(DivergenceError):
            inner_product(wave, wave, K1)

    def test_oracle_equivalence_random_pairs(self):
        rng = np.random.default_rng(16)
        spec = QuadratureSpec()
        for index in range(20):
            kernel = K1 if index % 2 == 0 else KC
            kinds = ("delta", "packet", "wave") if kernel is KC else ("delta", "packet")
            d = int(rng.integers(1, 4))
            f = random_primitive(rng, d, kinds)
            g = random_primitive(rng, d, kinds)
            if isinstance(f, PlaneWave) and isinstance(g, PlaneWave) and kernel is K1:
                continue
            closed = primitive_overlap(f, g, kernel)
            quad, _ = quad_pair_overlap(f, g, kernel, spec)
            assert abs(closed - quad) <= 1e-6 * abs(quad)


class TestPairInnerProduct:
    def test_product_delta_norm_is_one(self):
        state = StateExpr.single(Delta((0.5,)), Delta((-2.0,)))
        np.testing.assert_allclose(inner_product(state, state, K1), 1.0, rtol=1e-14)

    def test_product_overlap_factorizes(self):
        lhs = StateExpr.single(Delta((0.0,)), Delta((1.0,)))
        rhs = StateExpr.single(Delta((2.0,)), Delta((-1.0,)))
        expected = math.exp(-0.5 * 4.0) * math.exp(-0.5 * 4.0)
        np.testing.assert_allclose(inner_product(lhs, rhs, K1), expected, rtol=1e-13)

    def test_matches_per_factor_product(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            fl, fr = random_primitive(rng), random_primitive(rng)
            gl, gr = random_primitive(rng), random_primitive(rng)
            pair = inner_product(StateExpr.single(fl, fr), StateExpr.single(gl, gr), K1)
            product = primitive_overlap(fl, gl, K1) * primitive_overlap(fr, gr, K1)
            assert abs(pair - product) <= 1e-12 * max(1.0, abs(product))


@st.composite
def matrix_cases(draw):
    d = draw(st.integers(1, 3))
    fs = draw(st.lists(primitives(d), min_size=1, max_size=4))
    gs = draw(st.lists(primitives(d), min_size=1, max_size=4))
    return fs, gs, draw(kernels)


class TestOverlapMatrix:
    """The broadcast overlap matrix against the 50-digit referee, entry by entry."""

    @settings(max_examples=400, deadline=None)
    @given(matrix_cases())
    def test_matches_the_referee(self, case):
        # measured over 75 000 pairs in these ranges: at most 1.8e-13 (relative) with a
        # delta and 1.9e-12 free-free, whose error grows with the size of the expanded
        # exponent (the worst on a value of 3.6e-114); 1e-300 absorbs entries that
        # underflow to subnormals
        fs, gs, kernel = case
        try:
            want = [[referee.overlap(f, g, kernel) for g in gs] for f in fs]
        except DivergenceError:
            with pytest.raises(DivergenceError):
                overlap_matrix(fs, gs, kernel)
            return
        got = overlap_matrix(fs, gs, kernel)
        assert got.shape == (len(fs), len(gs)) and got.dtype == complex
        for i, f in enumerate(fs):
            for j, g in enumerate(gs):
                bound = 1e-12 if isinstance(f, Delta) or isinstance(g, Delta) else 1e-11
                assert abs(mpmath.mpc(got[i, j]) - want[i][j]) <= bound * abs(want[i][j]) + 1e-300

    @settings(max_examples=400, deadline=None)
    @given(matrix_cases())
    def test_is_hermitian(self, case):
        # measured over 96 000 entries in these ranges: pairs with a delta are exactly
        # symmetric, free-free pairs at most 7.6e-12 (relative) apart; the bounds are
        # the referee test's
        fs, gs, kernel = case
        try:
            want = overlap_matrix(fs, gs, kernel).conj().T
        except DivergenceError:
            assume(False)
        got = overlap_matrix(gs, fs, kernel)
        for i, g in enumerate(gs):
            for j, f in enumerate(fs):
                bound = 1e-12 if isinstance(f, Delta) or isinstance(g, Delta) else 1e-11
                assert abs(got[i, j] - want[i, j]) <= bound * abs(want[i, j]) + 1e-300

    @pytest.mark.parametrize("f", [Delta((0.0,)), Packet((0.0,), 1.0), PlaneWave((1.0,))])
    @pytest.mark.parametrize("g", [Delta((0.0, 1.0)), Packet((0.0, 1.0), 1.0),
                                   PlaneWave((1.0, 0.5))])
    def test_dimension_mismatch(self, f, g):
        with pytest.raises(DomainError):
            primitive_overlap(f, g, KC)
        with pytest.raises(DomainError, match="dimension mismatch"):
            quad_pair_overlap(f, g, KC)
        with pytest.raises(DomainError):
            overlap_matrix([f], [g], KC)
        with pytest.raises(DomainError):
            overlap_matrix([Delta((2.0,)), g], [f, Delta((2.0, 0.0))], KC)

    def test_wave_pair_diverges_under_translation_kernel(self):
        waves = [PlaneWave((1.0,)), PlaneWave((-0.5,))]
        with pytest.raises(DivergenceError):
            referee.overlap(waves[0], waves[1], K1)
        with pytest.raises(DivergenceError):
            overlap_matrix([Delta((0.0,))] + waves, waves, K1)

    def test_primitive_overlap_is_the_one_by_one_case(self):
        f, g = Packet((0.5,), 0.8, (0.3,)), Delta((1.0,))
        assert primitive_overlap(f, g, KC) == overlap_matrix([f], [g], KC)[0, 0]

    def test_epr_norm_matches_reference_loop(self):
        cfg = EPRConfig()
        for kernel in (cfg.position_kernel, cfg.momentum_kernel):
            expr = build_epr_state(cfg, kernel).expr
            want = 0j
            for ci, f1, f2 in expr.terms:
                for dj, g1, g2 in expr.terms:
                    want += (ci * dj.conjugate() * primitive_overlap(f1, g1, kernel)
                             * primitive_overlap(f2, g2, kernel))
            got = inner_product(expr, expr, kernel)
            assert abs(got - want) <= 1e-13 * abs(want)


@st.composite
def free_blocks(draw):
    """1x1 to 4x4 blocks of packets and plane waves, rows drawn from small pools so
    that they repeat, under either kernel family."""
    d = draw(st.integers(1, 3))
    pools = [draw(st.lists(primitives(d, ("packet", "wave")), min_size=1, max_size=3))
             for _ in range(2)]
    fs, gs = (draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)) for pool in pools)
    return fs, gs, draw(kernels)


class TestFreeBlock:
    """Free-free blocks go through one stacked integral: the bits and the errors of
    the per-pair route, `primitive_overlap`, the 1x1 block."""

    # primitive_overlap (the 1x1 free block) of free pairs as float.hex of the real and
    # imaginary parts, recorded before the eigenvalue condition check; the double-slit
    # static-leg arcs of bench/golden rest on these bits.  They are the default OpenBLAS
    # kernel's: five of them (packet-packet-1d, wave-packet-1d, packet-wave-2d,
    # wave-packet-2d and packet-wave-3d) move by up to 1.3e-15 (relative) under
    # OPENBLAS_CORETYPE=Haswell, whose kernels round the eigvals and solve otherwise
    FREE_PAIR_BITS = [
        ("packet-packet", 1, "translation", "0x1.db3b5c42d56d2p-1", "0x1.c51972259d6c5p-3"),
        ("packet-wave", 1, "confined", "0x1.18fa20c805673p+0", "0x1.1a69686af5501p-1"),
        ("wave-packet", 1, "translation", "0x1.fa40278b59476p-5", "-0x1.8a060a4908706p-3"),
        ("wave-wave", 1, "confined", "0x1.00f8aae24887dp+1", "0x0.0p+0"),
        ("packet-packet", 2, "confined", "0x1.54b5a798f8286p-4", "0x1.94d5e76d14da8p-3"),
        ("packet-wave", 2, "translation", "-0x1.4a31f28a43b18p+0", "0x1.361eddb59b66ep+1"),
        ("wave-packet", 2, "translation", "-0x1.f6fbc4af6905bp-36", "0x1.be8b4c9ded205p-38"),
        ("wave-wave", 2, "confined", "0x1.b98ac8c419a37p-3", "0x0.0p+0"),
        ("packet-packet", 3, "translation", "-0x1.8e4fcf03f280cp-4", "0x1.ad0c50cdb5878p-5"),
        ("packet-wave", 3, "confined", "-0x1.cd18d9001b47fp-9", "-0x1.e1b7479137a6cp-4"),
        ("wave-packet", 3, "confined", "0x1.11581a8abe149p-7", "-0x1.266105dd25b4cp-6"),
        ("wave-wave", 3, "confined", "0x1.3c2b46b9f3ac5p-8", "0x0.0p+0"),
    ]

    @staticmethod
    def pinned_pair(kinds, d, kernel):
        first = {"packet": Packet((0.4, -1.1, 2.0)[:d], 0.7, (1.5, -0.3, 0.9)[:d]),
                 "wave": PlaneWave((0.8, -1.3, 0.45)[:d])}
        second = {"packet": Packet((-0.9, 0.6, -1.7)[:d], 1.4, (-0.6, 2.2, 0.1)[:d]),
                  "wave": PlaneWave((-0.35, 0.9, -2.1)[:d])}
        kernel = {"translation": TranslationKernel(1.3),
                  "confined": ConfinedKernel(0.15, 0.8)}[kernel]
        return (*(side[kind] for side, kind in zip((first, second), kinds.split("-"))), kernel)

    @pytest.mark.parametrize("kinds, d, kernel, real, imag", FREE_PAIR_BITS,
                             ids=[f"{c[0]}-{c[1]}d-{c[2]}" for c in FREE_PAIR_BITS])
    def test_free_pair_bits_are_pinned(self, kinds, d, kernel, real, imag):
        value = primitive_overlap(*self.pinned_pair(kinds, d, kernel))
        assert (value.real.hex(), value.imag.hex()) == (real, imag)

    def test_pinned_values_match_the_referee(self):
        # the pins hold rounding, and the values they round are right
        for kinds, d, kernel, real, imag in self.FREE_PAIR_BITS:
            want = referee.overlap(*self.pinned_pair(kinds, d, kernel))
            value = complex(float.fromhex(real), float.fromhex(imag))
            assert abs(value - want) <= 1e-14 * abs(want), (kinds, d)

    @settings(max_examples=300, deadline=None)
    @given(free_blocks())
    def test_entries_are_the_per_pair_bits(self, case):
        fs, gs, kernel = case
        want = {}
        for f in fs:
            for g in gs:
                try:
                    want[f, g] = primitive_overlap(f, g, kernel)
                except StateSphereError as exc:  # the first failing pair, row by row
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        overlap_matrix(fs, gs, kernel)
                    return
        algebra._blocks.clear()  # the 1x1 blocks are memoised too
        for _ in range(2):  # a miss, then a memo hit
            got = overlap_matrix(fs, gs, kernel)
            for i, f in enumerate(fs):
                for j, g in enumerate(gs):
                    assert ((got[i, j].real.hex(), got[i, j].imag.hex())
                            == (want[f, g].real.hex(), want[f, g].imag.hex()))

    def test_first_failing_pair_raises_in_row_order(self):
        # under K1 two plane waves diverge; a packet this wide against a plane wave
        # has a per-axis condition number near 4 pair / s ~ 8e12, above the cap
        wave, wide, other = PlaneWave((0.5,)), Packet((0.0,), 1e6), PlaneWave((-0.25,))
        with pytest.raises(DivergenceError):
            primitive_overlap(wave, other, K1)
        with pytest.raises(NumericalFailureError):
            primitive_overlap(wide, other, K1)
        with pytest.raises(DivergenceError):
            overlap_matrix([wave, wide], [other], K1)
        with pytest.raises(NumericalFailureError):
            overlap_matrix([wide, wave], [other], K1)


class TestFreeBlockMemo:
    def test_hit_returns_identical_values(self, monkeypatch):
        fs = [Packet((0.25,), 0.6, (0.5,)), PlaneWave((-0.75,))]
        gs = [PlaneWave((0.3,)), Packet((-1.0,), 1.2, (0.1,))]
        first = overlap_matrix(fs, gs, KC)
        calls = []
        monkeypatch.setattr(algebra, "_integrals", lambda *args: calls.append(args))
        second = overlap_matrix(list(fs), list(gs), KC)  # other bases, the same values
        assert not calls
        assert second.tobytes() == first.tobytes()
        second[0, 0] = 0.0  # a copy: the memo keeps its block
        assert overlap_matrix(fs, gs, KC).tobytes() == first.tobytes()
        monkeypatch.undo()
        assert all(first[i, j] == primitive_overlap(f, g, KC)
                   for i, f in enumerate(fs) for j, g in enumerate(gs))

    def test_size_is_bounded(self):
        assert 0 < algebra._BLOCK_MEMO_SIZE <= 1024
        for k in range(algebra._BLOCK_MEMO_SIZE + 8):
            overlap_matrix([Packet((0.0,), 1.0 + k / 64)], [PlaneWave((0.5,))], KC)
        assert len(algebra._blocks) <= algebra._BLOCK_MEMO_SIZE

    def test_diverging_pair_raises_every_time(self):
        wave = PlaneWave((0.5,))
        for _ in range(2):
            with pytest.raises(DivergenceError):
                overlap_matrix([wave], [wave], K1)

    def test_normalize_makes_one_eigvals_call(self, monkeypatch):
        # three packets: one 3x3 block, one stacked call (it was one per pair, nine)
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        monkeypatch.setattr(algebra, "_blocks", {})
        state = StateExpr(tuple((1.0, Packet((x,), 0.5 + x, (0.1 * x,))) for x in (0.3, 1.1, 2.4)))
        normalize(state, K1)
        assert calls == [(9, 2, 2)]


class TestL2InnerProduct:
    def test_unit_width_packet_mass(self):
        packet = StateExpr.single(Packet((0.0,), 1.0))
        np.testing.assert_allclose(l2_inner_product(packet, packet),
                                   math.sqrt(2 * math.pi), rtol=1e-14)

    def test_rejects_non_packets(self):
        delta = StateExpr.single(Delta((0.0,)))
        with pytest.raises(DomainError):
            l2_inner_product(delta, delta)
        # pair states slot by slot: the packets of the first slot pass, the wave fails
        pair = StateExpr.single(Packet((0.0,), 1.0), PlaneWave((0.5,)))
        with pytest.raises(DomainError, match="^L2 inner product requires packets only, got PlaneWave"):
            l2_inner_product(pair, pair)

    def test_momentum_separation_decay(self):
        # same center, width w: normalized overlap modulus is exp(-w^2 dp^2 / 2)
        w = 1.0
        for dp in (1.0, 2.0, 4.0):
            f = StateExpr.single(Packet((0.0,), w, (dp,)))
            g = StateExpr.single(Packet((0.0,), w))
            value = l2_inner_product(f, g)
            norm = l2_inner_product(g, g).real
            np.testing.assert_allclose(abs(value) / norm,
                                       math.exp(-0.5 * w**2 * dp**2), rtol=1e-12)

    def test_random_pair_matches_quadrature(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            f = Packet((float(rng.uniform(-3, 3)),), float(rng.uniform(0.4, 2.0)),
                       (float(rng.uniform(-1, 1)),))
            g = Packet((float(rng.uniform(-3, 3)),), float(rng.uniform(0.4, 2.0)),
                       (float(rng.uniform(-1, 1)),))
            closed = l2_inner_product(StateExpr.single(f), StateExpr.single(g))

            sf, sg = 1 / (4 * f.width**2), 1 / (4 * g.width**2)
            lo = min(f.center[0], g.center[0]) - 12 * max(f.width, g.width)
            hi = max(f.center[0], g.center[0]) + 12 * max(f.width, g.width)
            quad = tensor_grid_quadrature(
                lambda z: (-sf * (z[:, 0] - f.center[0]) ** 2 + 1j * f.momentum[0] * z[:, 0]
                           - sg * (z[:, 0] - g.center[0]) ** 2 - 1j * g.momentum[0] * z[:, 0]),
                [(lo, hi)], n=4001)
            np.testing.assert_allclose(closed, quad, rtol=1e-8)


def fourier_image(prim):
    """(k, F prim / k) for F f(q) = integral of f(x) exp(-i q.x) dx: a delta at u is the
    plane wave -u (k = 1), a plane wave p is 2 pi per axis times the delta at p, and a
    packet (c, w, p) is 2 w sqrt(pi) per axis times exp(i p.c) times the packet
    (p, 1 / (2 w), -c)."""
    d = prim.dimension
    if isinstance(prim, Delta):
        return 1.0, PlaneWave(tuple(-x for x in prim.center))
    if isinstance(prim, PlaneWave):
        return (2.0 * math.pi) ** d, Delta(prim.momentum)
    phase = sum(p * c for p, c in zip(prim.momentum, prim.center))
    k = (2.0 * prim.width * math.sqrt(math.pi)) ** d * complex(math.cos(phase), math.sin(phase))
    return k, Packet(prim.momentum, 1.0 / (2.0 * prim.width), tuple(-c for c in prim.center))


def dual_kernel(c: float, a: float):
    """K' and N with F (x) F of exp(-c (x^2 + y^2) - a (x - y)^2) = N K' per axis."""
    return (ConfinedKernel(1.0 / (4.0 * (c + 2.0 * a)), a / (4.0 * c * (c + 2.0 * a))),
            math.pi / math.sqrt(c * (c + 2.0 * a)))


@st.composite
def dual_primitives(draw, d, kind):
    """One primitive of the kind, coordinates and momenta +-4, so that no overlap
    under either kernel underflows."""
    vec = st.tuples(*[st.floats(-4.0, 4.0)] * d)
    if kind == "delta":
        return Delta(draw(vec))
    if kind == "wave":
        return PlaneWave(draw(vec))
    return Packet(draw(vec), draw(st.floats(0.2, 3.0)), draw(vec))


DUAL_KINDS = [(f, g) for f in ("delta", "wave", "packet") for g in ("delta", "wave", "packet")]


class TestDualKernel:
    """The Fourier transform maps a confined kernel exp(-c (x^2 + y^2) - a (x - y)^2) to
    N exp(-c' (p^2 + q^2) - a' (p - q)^2), c' = 1 / (4 (c + 2 a)), a' = a / (4 c (c + 2 a))
    and N = pi / sqrt(c (c + 2 a)) per axis, so <f, g>_K = (N / (2 pi)^2)^d k_f conj(k_g)
    <Ff, Fg>_K' exactly: a referee of the plane-wave algebra that needs no quadrature.
    Deltas become plane waves and plane waves deltas, so every closed form is checked
    against another one."""

    @pytest.mark.parametrize("kinds", DUAL_KINDS, ids=["-".join(k) for k in DUAL_KINDS])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), c=st.floats(0.05, 1.0), a=st.floats(0.2, 2.0))
    def test_overlaps_match_the_dual_kernel(self, kinds, data, d, c, a):
        f, g = (data.draw(dual_primitives(d, kind)) for kind in kinds)
        (k_f, image_f), (k_g, image_g) = fourier_image(f), fourier_image(g)
        dual, scale = dual_kernel(c, a)
        want = primitive_overlap(f, g, ConfinedKernel(c, a))
        got = ((scale / (2.0 * math.pi) ** 2) ** d * k_f * k_g.conjugate()
               * primitive_overlap(image_f, image_g, dual))
        assert abs(got - want) <= 1e-11 * abs(want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), d=st.integers(1, 3), c=st.floats(0.05, 1.0), a=st.floats(0.2, 2.0))
    def test_momentum_manifold_is_the_dual_position_manifold(self, data, d, c, a):
        # F w_t = (2 pi)^d delta_t and ||w_t||_K = N^(d/2) ||delta_t||_K', so the
        # plane-wave target's Gaussian transform meets the delta target's closed forms
        f = data.draw(st.sampled_from(["delta", "wave", "packet"]).flatmap(
            lambda kind: dual_primitives(d, kind)))
        theta = np.array(data.draw(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * d),
                                            min_size=1, max_size=4)))
        k_f, image = fourier_image(f)
        dual, scale = dual_kernel(c, a)
        want = ManifoldOverlap(StateExpr.single(f), ConfinedKernel(c, a), ManifoldId.MOMENTUM)
        got = ManifoldOverlap(StateExpr.single(image), dual, ManifoldId.POSITION)
        want, got = want(theta), (math.sqrt(scale) / (2.0 * math.pi)) ** d * k_f * got(theta)
        assert (np.abs(got - want) <= 1e-11 * np.abs(want)).all()
