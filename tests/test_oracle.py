"""Tests for the quadrature oracle and finite differences."""

import math

import numpy as np
import pytest

from statesphere import (BoxTooSmallError, ConfinedKernel, Delta, DomainError,
                         Packet, PlaneWave, StateExpr, TranslationKernel,
                         inner_product, primitive_overlap)
from statesphere.oracle import (QuadratureRule, QuadratureSpec,
                                finite_difference, quad_inner_product,
                                quad_pair_overlap)

K1 = TranslationKernel(1.0)
KC = ConfinedKernel(0.1, 1.0)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(nodes_per_axis=32)
        with pytest.raises(DomainError):
            QuadratureSpec(nodes_per_axis=64)
        with pytest.raises(DomainError):
            QuadratureSpec(refinement_levels=0)
        with pytest.raises(DomainError):
            QuadratureSpec(box_halfwidth=-1.0)


class TestQuadPairOverlap:
    def test_delta_delta_is_exact_substitution(self):
        value, estimate = quad_pair_overlap(Delta((0.0,)), Delta((2.0,)), K1)
        assert estimate == 0.0
        np.testing.assert_allclose(value, math.exp(-2.0), rtol=1e-15)

    def test_packet_packet_matches_closed_form(self):
        f = Packet((0.5,), 0.6, (1.2,))
        g = Packet((-0.8,), 1.1, (-0.5,))
        closed = primitive_overlap(f, g, K1)
        value, _ = quad_pair_overlap(f, g, K1, QuadratureSpec(nodes_per_axis=257))
        np.testing.assert_allclose(value, closed, rtol=1e-8)

    def test_plane_wave_pair_confined_matches_closed_form(self):
        f = PlaneWave((1.0,))
        g = PlaneWave((-0.7,))
        closed = primitive_overlap(f, g, KC)
        value, _ = quad_pair_overlap(f, g, KC)
        np.testing.assert_allclose(value, closed, rtol=1e-6)

    def test_delta_packet_reduces_dimension(self):
        f = Delta((1.0, -1.0))
        g = Packet((0.0, 0.5), 0.9, (0.3, -0.2))
        closed = primitive_overlap(f, g, K1)
        value, _ = quad_pair_overlap(f, g, K1)
        np.testing.assert_allclose(value, closed, rtol=1e-8)

    def test_three_dimensional_pair(self):
        f = Packet((1.0, 0.0, -1.0), 0.8)
        g = Packet((0.0, 0.5, 0.0), 1.2, (0.4, 0.0, -0.4))
        closed = primitive_overlap(f, g, K1)
        value, _ = quad_pair_overlap(f, g, K1, QuadratureSpec(nodes_per_axis=129))
        np.testing.assert_allclose(value, closed, rtol=1e-7)

    def test_trapezoid_rule_also_converges(self):
        f = Packet((0.0,), 1.0)
        g = Packet((1.0,), 1.0)
        closed = primitive_overlap(f, g, K1)
        spec = QuadratureSpec(rule=QuadratureRule.TRAPEZOID, nodes_per_axis=513)
        value, _ = quad_pair_overlap(f, g, K1, spec)
        np.testing.assert_allclose(value, closed, rtol=1e-8)

    def test_undersized_box_raises(self):
        spec = QuadratureSpec(box_halfwidth=1.0)
        with pytest.raises(BoxTooSmallError):
            quad_pair_overlap(Packet((0.0,), 1.0), Packet((0.0,), 1.0), K1, spec)

    def test_refinement_estimates_decrease(self):
        # a deliberately wide box keeps the early levels under-resolved, so
        # the ladder is visible above the rounding floor
        f = Packet((0.4,), 0.5)
        g = Packet((-0.6,), 0.5)
        spec = QuadratureSpec(nodes_per_axis=33, refinement_levels=5, box_halfwidth=40.0)
        from statesphere.oracle import _quad_pair_level, _refine
        _, _, history = _refine(lambda n: _quad_pair_level(f, g, K1, spec, n), spec)
        estimates = [abs(b - a) for a, b in zip(history, history[1:])]
        assert all(later < earlier for earlier, later in zip(estimates, estimates[1:]))
        assert estimates[-1] < 1e-10


class TestQuadInnerProduct:
    def test_state_level_agreement(self):
        phi = StateExpr(((0.7 + 0.1j, Delta((0.0,))), (0.3 - 0.4j, Packet((1.0,), 0.8))))
        psi = StateExpr(((1.0 + 0j, Packet((-0.5,), 1.1, (0.6,))),))
        closed = inner_product(phi, psi, K1)
        value, estimate = quad_inner_product(phi, psi, K1)
        assert abs(closed - value) <= max(1e-9, 10 * estimate)

    def test_pair_state_agreement(self):
        phi = StateExpr(((1.0, Delta((0.0,)), Delta((1.0,))),
                          (0.5, Delta((0.5,)), Delta((1.5,)))))
        psi = StateExpr(((1.0, Packet((0.2,), 0.9), Delta((1.2,))),))
        closed = inner_product(phi, psi, K1)
        value, _ = quad_inner_product(phi, psi, K1)
        np.testing.assert_allclose(value, closed, rtol=1e-8)

    def test_arity_mismatch_rejected(self):
        phi = StateExpr.single(Delta((0.0,)))
        psi = StateExpr.single(Delta((0.0,)), Delta((0.0,)))
        with pytest.raises(DomainError):
            quad_inner_product(phi, psi, K1)
        with pytest.raises(DomainError):
            inner_product(phi, psi, K1)


class TestFiniteDifference:
    def test_kernel_diagonal_gives_identity(self):
        def f(x, y):
            d = x - y
            return math.exp(-0.5 * float(d @ d))

        # the bare stencil error is ~h^2, so h = 5e-4 keeps it under 1e-6
        at = (np.array([0.3, -0.2, 0.8]), np.array([0.3, -0.2, 0.8]))
        for i in range(3):
            for k in range(3):
                value = finite_difference(f, at, (i, k), 5e-4)
                assert abs(value - (1.0 if i == k else 0.0)) <= 1e-6

    def test_constant_function_is_zero(self):
        value = finite_difference(lambda x, y: 4.2, (np.zeros(2), np.zeros(2)), (0, 1), 0.1)
        assert value == 0.0

    def test_quadratic_is_exact(self):
        # central differences are exact on quadratics up to rounding
        def f(x, y):
            return 2.0 * x[0] * y[1] + x[1] * y[0] - 3.0 * x[0] * y[0]

        at = (np.array([0.5, 1.0]), np.array([-1.0, 2.0]))
        np.testing.assert_allclose(finite_difference(f, at, (0, 1), 0.1), 2.0, atol=1e-10)
        np.testing.assert_allclose(finite_difference(f, at, (1, 0), 0.1), 1.0, atol=1e-10)
        np.testing.assert_allclose(finite_difference(f, at, (0, 0), 0.1), -3.0, atol=1e-10)

    def test_halving_step_quarters_error(self):
        def f(x, y):
            return math.sin(x[0]) * math.cos(y[0])

        at = (np.array([0.7]), np.array([0.3]))
        exact = math.cos(0.7) * -math.sin(0.3)
        e1 = abs(finite_difference(f, at, (0, 0), 0.1) - exact)
        e2 = abs(finite_difference(f, at, (0, 0), 0.05) - exact)
        assert 3.0 <= e1 / e2 <= 5.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(DomainError):
            finite_difference(lambda x, y: 0.0, (np.zeros(1), np.zeros(1)), (0, 0), 0.0)
