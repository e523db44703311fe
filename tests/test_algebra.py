"""Tests for the closed-form Gaussian-integral engine and inner products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesphere import (ConfinedKernel, Delta, DivergenceError, DomainError,
                         EPRConfig, NumericalFailureError, Packet, PlaneWave,
                         QuadForm, StateExpr, StateSphereError,
                         TranslationKernel, blend, build_epr_state,
                         gaussian_integral, inner_product, l2_inner_product,
                         overlap_matrix, primitive_overlap, compile_pair)
from statesphere import ManifoldId, algebra
from statesphere.manifolds import ManifoldOverlap
from statesphere.oracle import QuadratureSpec, quad_inner_product, quad_pair_overlap

from helpers import (kernels, primitives, random_primitive, random_state,
                     tensor_grid_quadrature)

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

    def test_rejects_dimension_above_three(self):
        with pytest.raises(DomainError):
            Delta((0.0, 0.0, 0.0, 0.0))

    def test_packet_momentum_defaults_to_zero(self):
        packet = Packet((1.0, 2.0), 0.5)
        assert packet.momentum == (0.0, 0.0)


class TestGaussianIntegral:
    def test_standard_normal_mass(self):
        form = QuadForm(np.array([[1.0 + 0j]]), np.zeros(1, dtype=complex), 0j)
        np.testing.assert_allclose(gaussian_integral(form), math.sqrt(2 * math.pi), rtol=1e-14)

    def test_separable_identity(self):
        form = QuadForm(np.eye(2, dtype=complex), np.zeros(2, dtype=complex), 0j)
        np.testing.assert_allclose(gaussian_integral(form), 2 * math.pi, rtol=1e-14)

    def test_random_spd_with_complex_shift_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.normal(size=(2, 2))
            a = m @ m.T + 0.5 * np.eye(2) + 0.3j * _random_symmetric(rng, 2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            form = QuadForm(a.astype(complex), b.astype(complex), complex(rng.normal() * 0.1))
            closed = gaussian_integral(form)

            peak = np.linalg.solve(a.real, b.real)
            half = 10.0 / math.sqrt(np.linalg.eigvalsh(a.real).min())
            boxes = [(p - half, p + half) for p in peak]
            quad = tensor_grid_quadrature(
                lambda z: (-0.5 * np.einsum("ni,ij,nj->n", z, a, z)
                           + z @ b + form.constant),
                boxes, n=1201)
            np.testing.assert_allclose(closed, quad, rtol=1e-8)

    def test_rejects_non_spd_real_part(self):
        form = QuadForm(np.array([[-1.0 + 0j]]), np.zeros(1, dtype=complex), 0j)
        with pytest.raises(DomainError):
            gaussian_integral(form)

    def test_rejects_near_singular(self):
        a = np.array([[1.0, 0.0], [0.0, 1e-14]], dtype=complex)
        form = QuadForm(a, np.zeros(2, dtype=complex), 0j)
        with pytest.raises(NumericalFailureError):
            gaussian_integral(form)


def _random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


class TestCompilePair:
    def test_delta_delta_is_direct(self):
        form = compile_pair(Delta((0.0,)), Delta((1.0,)), K1)
        assert form.n == 0
        np.testing.assert_allclose(gaussian_integral(form), math.exp(-0.5), rtol=1e-14)

    def test_delta_norm_is_one(self):
        for center in ((0.0,), (3.0, -1.0), (1.0, 2.0, 3.0)):
            value = primitive_overlap(Delta(center), Delta(center), K1)
            np.testing.assert_allclose(value, 1.0, rtol=1e-14)

    def test_plane_wave_pair_confined_is_spd(self):
        form = compile_pair(PlaneWave((1.0, 0.5)), PlaneWave((-0.5, 0.2)), KC)
        assert form.n == 4
        assert np.linalg.eigvalsh(form.matrix.real).min() > 0

    def test_plane_wave_pair_translation_diverges(self):
        # at sigma = 0.6205471095295118, pair * pair - pair**2 rounds to 2.2e-16
        for kernel in (K1, TranslationKernel(0.6205471095295118)):
            with pytest.raises(DivergenceError, match="PlaneWave"):
                compile_pair(PlaneWave((1.0,)), PlaneWave((1.0,)), kernel)

    def test_packet_pair_matches_oracle(self):
        f = Packet((1.0,), 0.8, (0.7,))
        g = Packet((-1.5,), 1.2, (-0.4,))
        closed = primitive_overlap(f, g, K1)
        quad, estimate = quad_pair_overlap(f, g, K1)
        np.testing.assert_allclose(closed, quad, rtol=1e-10)
        assert abs(closed - quad) <= 10 * estimate + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            compile_pair(Delta((0.0,)), Delta((0.0, 0.0)), K1)


class TestInnerProduct:
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


def reference_overlap(f, g, kernel) -> complex:
    return gaussian_integral(compile_pair(f, g, kernel))


@st.composite
def matrix_cases(draw):
    d = draw(st.integers(1, 3))
    fs = draw(st.lists(primitives(d), min_size=1, max_size=4))
    gs = draw(st.lists(primitives(d), min_size=1, max_size=4))
    return fs, gs, draw(kernels)


class TestOverlapMatrix:
    """The broadcast overlap matrix against the general integral, entry by entry."""

    @settings(max_examples=400, deadline=None)
    @given(matrix_cases())
    def test_matches_general_integral(self, case):
        fs, gs, kernel = case
        try:
            want = [[reference_overlap(f, g, kernel) for g in gs] for f in fs]
        except StateSphereError as exc:
            with pytest.raises(type(exc)):
                overlap_matrix(fs, gs, kernel)
            return
        got = overlap_matrix(fs, gs, kernel)
        assert got.shape == (len(fs), len(gs)) and got.dtype == complex
        for i, f in enumerate(fs):
            for j, g in enumerate(gs):
                if isinstance(f, Delta) or isinstance(g, Delta):
                    # 1e-300 absorbs entries that underflow to subnormals
                    assert abs(got[i, j] - want[i][j]) <= 1e-12 * abs(want[i][j]) + 1e-300
                else:
                    assert got[i, j] == want[i][j]  # free-free: the same arithmetic

    @pytest.mark.parametrize("f", [Delta((0.0,)), Packet((0.0,), 1.0), PlaneWave((1.0,))])
    @pytest.mark.parametrize("g", [Delta((0.0, 1.0)), Packet((0.0, 1.0), 1.0),
                                   PlaneWave((1.0, 0.5))])
    def test_dimension_mismatch(self, f, g):
        with pytest.raises(DomainError):
            compile_pair(f, g, KC)
        with pytest.raises(DomainError):
            overlap_matrix([f], [g], KC)
        with pytest.raises(DomainError):
            overlap_matrix([Delta((2.0,)), g], [f, Delta((2.0, 0.0))], KC)

    def test_wave_pair_diverges_under_translation_kernel(self):
        waves = [PlaneWave((1.0,)), PlaneWave((-0.5,))]
        with pytest.raises(DivergenceError):
            reference_overlap(waves[0], waves[1], K1)
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
                    want += (ci * dj.conjugate() * reference_overlap(f1, g1, kernel)
                             * reference_overlap(f2, g2, kernel))
            got = inner_product(expr, expr, kernel)
            assert abs(got - want) <= 1e-13 * abs(want)


class TestFreeOverlapCache:
    def test_hit_returns_identical_value(self):
        f, g = Packet((0.25,), 0.6, (0.5,)), PlaneWave((-0.75,))
        first = overlap_matrix([f], [g], KC)[0, 0]
        hits = algebra._free_overlap.cache_info().hits
        second = overlap_matrix([f], [g], KC)[0, 0]
        assert algebra._free_overlap.cache_info().hits == hits + 1
        assert second == first
        assert second == reference_overlap(f, g, KC)

    def test_size_is_bounded(self):
        maxsize = algebra._free_overlap.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024

    def test_diverging_pair_raises_every_time(self):
        wave = PlaneWave((0.5,))
        for _ in range(2):
            with pytest.raises(DivergenceError):
                overlap_matrix([wave], [wave], K1)


class TestL2InnerProduct:
    def test_unit_width_packet_mass(self):
        packet = StateExpr.single(Packet((0.0,), 1.0))
        np.testing.assert_allclose(l2_inner_product(packet, packet),
                                   math.sqrt(2 * math.pi), rtol=1e-14)

    def test_rejects_non_packets(self):
        delta = StateExpr.single(Delta((0.0,)))
        with pytest.raises(DomainError):
            l2_inner_product(delta, delta)

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
