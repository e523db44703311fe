"""Tests for classical-space embeddings, Gram checks, and projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesphere import (ConfinedKernel, Delta, DivergenceError, DomainError,
                         ManifoldId, NumericalFailureError, Packet,
                         StateExpr, StateSphereError, TranslationKernel,
                         blend, embed_momentum, embed_pair_momentum,
                         embed_pair_position, embed_position,
                         gram_min_eigenvalue, hilbert_norm, inner_product,
                         manifold_member, manifold_separation,
                         nearest_classical_point, normalize, sphere_angle)
from statesphere.manifolds import ManifoldOverlap

from helpers import coords, kernels, primitives

K1 = TranslationKernel(1.0)
KC = ConfinedKernel(0.1, 1.0)

EMBED = {
    ManifoldId.POSITION: lambda t, d: embed_position(t),
    ManifoldId.MOMENTUM: lambda t, d: embed_momentum(t),
    ManifoldId.POSITION_PAIR: lambda t, d: embed_pair_position(t[:d], t[d:]),
    ManifoldId.MOMENTUM_PAIR: lambda t, d: embed_pair_momentum(t[:d], t[d:]),
}


def scalar_overlap(expr, kernel, manifold, theta):
    """Term-by-term reference: <expr, m(theta)> / ||m(theta)||."""
    target = EMBED[manifold](tuple(float(t) for t in theta), expr.dimension)
    return inner_product(expr, target, kernel) / hilbert_norm(target, kernel)


@st.composite
def states(draw, arity, d, kinds=("delta", "packet", "wave")):
    coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
        lambda c: abs(c) > 0.1)
    terms = draw(st.lists(
        st.tuples(coeff, *[primitives(d, kinds)] * arity), min_size=1, max_size=3))
    return StateExpr(tuple(terms))


@st.composite
def overlap_cases(draw):
    manifold = draw(st.sampled_from(list(ManifoldId)))
    d = draw(st.integers(1, 2))
    arity = 2 if manifold.is_pair else 1
    expr = draw(states(arity, d))
    theta = np.array(draw(st.lists(st.tuples(*[coords] * (arity * d)),
                                   min_size=1, max_size=4)))
    return manifold, draw(kernels), expr, theta


class TestEmbeddings:
    def test_position_embedding_shape(self):
        state = embed_position((0.0, 0.0, 0.0))
        assert state.terms == ((1.0 + 0j, Delta((0.0, 0.0, 0.0))),)

    def test_position_angles_follow_kernel(self):
        a = normalize(embed_position((0.0, 0.0)), K1)
        b = normalize(embed_position((1.0, 2.0)), K1)
        np.testing.assert_allclose(sphere_angle(a, b), math.acos(math.exp(-2.5)), atol=1e-12)

    def test_position_embedding_injective_on_samples(self):
        rng = np.random.default_rng(21)
        points = [tuple(rng.uniform(-5, 5, 2)) for _ in range(15)]
        states = [normalize(embed_position(p), K1) for p in points]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert sphere_angle(states[i], states[j]) > 0.0

    def test_momentum_embedding_finite_under_confined(self):
        wave = embed_momentum((1.5,))
        norm = inner_product(wave, wave, KC).real
        assert 0.0 < norm < math.inf

    def test_momentum_overlap_strictly_contractive(self):
        p = embed_momentum((0.5,))
        q = embed_momentum((1.5,))
        value = abs(inner_product(p, q, KC))
        value /= hilbert_norm(p, KC) * hilbert_norm(q, KC)
        assert value < 1.0

    def test_momentum_diverges_under_translation(self):
        wave = embed_momentum((1.0,))
        with pytest.raises(DivergenceError):
            inner_product(wave, wave, K1)

    def test_pair_position_norm_one(self):
        pair = embed_pair_position((1.0,), (2.0,))
        np.testing.assert_allclose(
            normalize(pair, K1).raw_norm, 1.0, rtol=1e-14)

    def test_pair_momentum_orthogonality_structure(self):
        pair = embed_pair_momentum((1.0,), (-1.0,))
        norm = normalize(pair, KC).raw_norm
        assert 0.0 < norm < math.inf


class TestGram:
    def test_two_points_closed_form(self):
        # eigenvalues 1 +/- exp(-1/2) for two points one unit apart
        value = gram_min_eigenvalue([(0.0,), (1.0,)], K1)
        np.testing.assert_allclose(value, 1.0 - math.exp(-0.5), rtol=1e-12)

    def test_single_point(self):
        assert gram_min_eigenvalue([(2.0, 1.0)], K1) == 1.0

    def test_fifty_random_points_positive(self):
        rng = np.random.default_rng(22)
        points = [tuple(rng.uniform(-10, 10, 3)) for _ in range(50)]
        assert gram_min_eigenvalue(points, K1) > 0.0

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            gram_min_eigenvalue([(0.0,), (0.0,)], K1)


class TestNearestClassicalPoint:
    def test_delta_recovers_its_point(self):
        state = normalize(embed_position((1.25,)), K1)
        result = nearest_classical_point(state, ManifoldId.POSITION, (-5.0, 5.0))
        assert abs(result.point[0] - 1.25) <= 1e-6
        assert result.residual_angle <= 1e-6
        assert not result.tie

    def test_projection_consistency_random_points(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            u = float(rng.uniform(-3, 3))
            state = normalize(embed_position((u,)), K1)
            result = nearest_classical_point(state, ManifoldId.POSITION, (-4.0, 4.0),
                                             coarse=41)
            assert abs(result.point[0] - u) <= 1e-6
            assert result.residual_angle <= 1e-6

    def test_packet_projects_to_its_center(self):
        state = normalize(StateExpr.single(Packet((0.7,), 1.0)), K1)
        result = nearest_classical_point(state, ManifoldId.POSITION, (-5.0, 5.0))
        assert abs(result.point[0] - 0.7) <= 1e-6
        assert result.residual_angle > 0.1

    def test_symmetric_superposition_reports_tie(self):
        s = 4.0
        expr = blend(1.0, embed_position((-s,)), 1.0, embed_position((s,)))
        state = normalize(expr, K1)
        result = nearest_classical_point(state, ManifoldId.POSITION, (-8.0, 8.0),
                                         coarse=33)
        assert result.tie
        assert abs(result.point[0] + s) <= 1e-6  # lexicographically smaller peak

    def test_tiny_real_overlaps_rank_instead_of_tie(self):
        # every real overlap lies below 1e-9, yet the grid cell at 0 is the
        # clear maximum: an absolute tie tolerance made all seven cells tie
        state = normalize(StateExpr.single(Delta((0.0,)), coeff=1e-12 + 0.5j), K1)
        result = nearest_classical_point(state, ManifoldId.POSITION, (-6.0, 6.0), coarse=7)
        assert not result.tie
        assert abs(result.point[0]) <= 1e-6
        assert result.overlap == pytest.approx(2e-12, rel=1e-6)

    def test_pair_manifold_projection(self):
        state = normalize(embed_pair_position((0.5,), (1.5,)), K1)
        result = nearest_classical_point(state, ManifoldId.POSITION_PAIR,
                                         ((-3.0, 3.0), (-3.0, 3.0)), coarse=21)
        u, v = result.point
        assert abs(u[0] - 0.5) <= 1e-6
        assert abs(v[0] - 1.5) <= 1e-6

    def test_momentum_manifold_under_confined(self):
        state = normalize(embed_momentum((0.8,)), KC)
        result = nearest_classical_point(state, ManifoldId.MOMENTUM, (-2.0, 2.0),
                                         coarse=21)
        assert abs(result.point[0] - 0.8) <= 1e-5
        assert result.residual_angle <= 1e-6

    def test_oblique_ridge_pair_projection(self):
        # the real overlap peaks on p = q at the end of a ridge oblique to
        # both axes, where coordinate sweeps alone crawl
        state = normalize(StateExpr(((1j, Delta((3.0,)), Delta((3.0,))),)),
                          ConfinedKernel(0.5, 1.0))
        result = nearest_classical_point(state, ManifoldId.MOMENTUM_PAIR, (-6.0, 6.0),
                                         coarse=5)
        (p,), (q,) = result.point
        assert abs(p - q) <= 1e-6

    def test_arity_mismatch_rejected(self):
        state = normalize(embed_position((0.0,)), K1)
        with pytest.raises(DomainError):
            nearest_classical_point(state, ManifoldId.POSITION_PAIR, (-1.0, 1.0))

    def test_empty_box_rejected(self):
        state = normalize(embed_position((0.0,)), K1)
        with pytest.raises(DomainError):
            nearest_classical_point(state, ManifoldId.POSITION, (2.0, 2.0))

    def test_far_box_under_confined_kernel(self):
        # ||delta_u||^2 = exp(-1800) underflows at the box edges; the ratio
        # <psi, delta_u> / ||delta_u|| stays finite.
        state = normalize(StateExpr.single(Packet((0.5,), 1.0)), ConfinedKernel(1.0, 1.0))
        result = nearest_classical_point(state, ManifoldId.POSITION, (-30.0, 30.0))
        assert math.isfinite(result.overlap)
        assert 0.0 <= result.residual_angle <= math.pi / 2

    def test_tie_across_grid_chunks(self):
        # 65^2 grid points span two evaluation chunks; the second peak,
        # (3.875, 3.875), lies in the second one
        expr = blend(1.0, embed_pair_position((-3.0,), (-3.0,)),
                     1.0, embed_pair_position((3.875,), (3.875,)))
        state = normalize(expr, K1)
        result = nearest_classical_point(state, ManifoldId.POSITION_PAIR,
                                         ((-4.0, 4.0), (-4.0, 4.0)), coarse=65)
        assert result.tie
        (u,), (v,) = result.point
        assert abs(u + 3.0) <= 1e-6 and abs(v + 3.0) <= 1e-6
        assert result.iterations > 65**2


class TestManifoldOverlap:
    """The batched evaluator against the term-by-term inner product."""

    @settings(max_examples=300, deadline=None)
    @given(overlap_cases())
    def test_matches_term_by_term(self, case):
        manifold, kernel, expr, theta = case
        try:
            want = [scalar_overlap(expr, kernel, manifold, t) for t in theta]
        except StateSphereError as exc:
            with pytest.raises(type(exc)):
                ManifoldOverlap(expr, kernel, manifold)(theta)
            return
        got = ManifoldOverlap(expr, kernel, manifold)(theta)
        for t, g, w in zip(theta, got, want):
            # relative to the term magnitudes, so cancellation between terms
            # does not loosen or tighten the check
            scale = sum(abs(scalar_overlap(StateExpr((term,)), kernel, manifold, t))
                        for term in expr.terms)
            assert abs(g - w) <= 1e-12 * scale + 1e-300

    @pytest.mark.parametrize("kernel, error", [
        (K1, DivergenceError),
        (ConfinedKernel(1e-13, 1.0), NumericalFailureError),
    ])
    def test_momentum_errors_match(self, kernel, error):
        expr = StateExpr.single(Delta((0.5,)))
        with pytest.raises(error):
            scalar_overlap(expr, kernel, ManifoldId.MOMENTUM, (0.0,))
        with pytest.raises(error):
            ManifoldOverlap(expr, kernel, ManifoldId.MOMENTUM)
        with pytest.raises(error):
            nearest_classical_point(normalize(expr, kernel), ManifoldId.MOMENTUM, (-1.0, 1.0))

    def test_rejects_wrong_point_size(self):
        overlap = ManifoldOverlap(embed_pair_position((0.0,), (1.0,)), K1,
                                  ManifoldId.POSITION_PAIR)
        with pytest.raises(DomainError):
            overlap(np.zeros((3, 1)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_projection_is_a_local_maximum(self, data):
        manifold = data.draw(st.sampled_from(list(ManifoldId)))
        momentum = manifold in (ManifoldId.MOMENTUM, ManifoldId.MOMENTUM_PAIR)
        kernel = data.draw(kernels.filter(
            lambda k: isinstance(k, ConfinedKernel) or not momentum))
        kinds = ("delta", "packet", "wave") if isinstance(kernel, ConfinedKernel) \
            else ("delta", "packet")
        arity = 2 if manifold.is_pair else 1
        state = normalize(data.draw(states(arity, 1, kinds)), kernel)
        coarse = data.draw(st.integers(5, 17))
        lo, hi = -6.0, 6.0
        result = nearest_classical_point(state, manifold, (lo, hi), coarse=coarse)
        point = np.array(result.point).ravel()

        def clamped(theta):
            value = scalar_overlap(state.expr, kernel, manifold, theta).real
            return min(1.0, max(0.0, value))

        grid = np.linspace(lo, hi, coarse)
        for theta in np.stack(np.meshgrid(*[grid] * arity, indexing="ij"), -1).reshape(-1, arity):
            # a cell within the 1e-9 tie tolerance of an earlier one loses to it
            assert result.overlap >= clamped(theta) - 1e-9
        for k in range(arity):
            for step in (-1e-4, 1e-4):
                theta = point.copy()
                theta[k] += step
                if lo <= theta[k] <= hi:
                    assert result.overlap >= clamped(theta) - 1e-12


class TestManifoldSeparation:
    def test_position_vs_momentum_positive(self):
        angle = manifold_separation((0.0,), ManifoldId.POSITION, ManifoldId.MOMENTUM,
                                    KC, box=(-2.0, 2.0), resolution=17)
        assert angle > 0.05

    def test_same_manifold_vanishes(self):
        angle = manifold_separation((0.5,), ManifoldId.POSITION, ManifoldId.POSITION,
                                    KC, box=(-2.0, 2.0), resolution=17)
        assert angle <= 1e-6

    def test_no_sampled_pair_reaches_unit_overlap(self):
        for alpha in (1e-2, 1e-4, 1e-6):
            kernel = ConfinedKernel(alpha, 1.0)
            angle = manifold_separation((0.0,), ManifoldId.POSITION,
                                        ManifoldId.MOMENTUM, kernel,
                                        box=(-2.0, 2.0), resolution=9)
            assert math.cos(angle) <= 1.0 - 1e-9

    def test_separation_grows_as_confinement_weakens(self):
        # weaker confinement pushes plane waves toward non-normalizability,
        # nearly orthogonal to every position state
        angles = [manifold_separation((0.0,), ManifoldId.POSITION, ManifoldId.MOMENTUM,
                                      ConfinedKernel(alpha, 1.0),
                                      box=(-2.0, 2.0), resolution=9)
                  for alpha in (1.0, 0.1, 0.01)]
        assert angles[0] < angles[1] < angles[2] < math.pi / 2

    def test_member_state_helper(self):
        state = manifold_member(ManifoldId.POSITION, (1.0,), K1)
        assert state.raw_norm == 1.0
        assert not state.is_pair


class TestSeparationGridContainsSelf:
    def test_grid_point_match(self):
        # box includes the member's own parameter, so separation hits zero there
        angle = manifold_separation((0.0, 0.0), ManifoldId.POSITION_PAIR,
                                    ManifoldId.POSITION_PAIR, K1,
                                    box=(-1.0, 1.0), resolution=5)
        assert angle <= 1e-9
