"""Tests for classical-space embeddings, Gram checks, and projections."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statesphere import (ConfinedKernel, Delta, DivergenceError, DomainError,
                         ManifoldId, NumericalFailureError, Packet, PlaneWave,
                         StateExpr, TranslationKernel,
                         blend, embed_momentum, embed_pair_momentum,
                         embed_pair_position, embed_position,
                         gram_min_eigenvalue, hilbert_norm, inner_product,
                         manifold_member, manifold_separation,
                         nearest_classical_points,
                         normalize, sphere_angle)
from statesphere.kernels import kernel_coefficients, kernel_value
from statesphere.manifolds import ManifoldOverlap, gram_matrix

import referee
from helpers import coords, kernels, primitives, random_pair_state, random_state

K1 = TranslationKernel(1.0)
KC = ConfinedKernel(0.1, 1.0)
NARROW = Packet((0.2,), 1e-7)  # per-axis form against a plane wave: cond ~ 5e13 under K1
OVERFLOWING = Packet((1e10,), 1e-150)  # its profile's 2 s center overflows

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


def referee_overlap(expr, kernel, manifold, theta):
    """The same in the 50-digit referee."""
    target = EMBED[manifold](tuple(float(t) for t in theta), expr.dimension)
    with mpmath.workdps(referee.DPS):
        return referee.inner_product(expr, target, kernel) / referee.norm(target, kernel)


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

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DomainError):
            gram_matrix([(0.0,), (1.0, 2.0)], K1)

    def test_no_points_give_an_empty_matrix(self):
        assert gram_matrix([], K1).shape == (0, 0)

    def test_no_points_have_no_smallest_eigenvalue(self):
        with pytest.raises(DomainError, match="at least one point"):
            gram_min_eigenvalue([], K1)

    @pytest.mark.parametrize("points, message", [
        ([(0.0,), (math.nan,)], "non-finite component in (nan,)"),
        ([(1.0, 2.0, 3.0, 4.0)], "dimension must be an integer from 1 to 3, got 4"),
        ([(0.0,), (1.0, 2.0)], "all primitives in a state must share one dimension"),
        ([(1 + 2j,)], "coordinates must be reals, got (1+2j)"),
        ([(0.0,), (0.0,)], "points must be pairwise distinct"),
        ([(0.0, 1.0), (-0.0, 1.0)], "points must be pairwise distinct"),
        ([(0.0,), (0.0,), (1.0, 2.0)], "points must be pairwise distinct"),
    ], ids=["non-finite", "4-d", "mixed-dimension", "complex", "repeated", "signed-zero",
            "repeated-before-mixed"])
    def test_bad_points_keep_their_message(self, points, message):
        with pytest.raises(DomainError) as info:
            gram_matrix(points, K1)
        assert str(info.value) == message

    def test_points_read_as_the_primitives_read_them(self):
        # a scalar is a 1-d point, as Delta reads it; arrays and lists agree
        want = gram_matrix([(1.0,), (2.5,)], K1)
        assert gram_matrix([1.0, 2.5], K1).tobytes() == want.tobytes()
        assert gram_matrix(np.array([[1.0], [2.5]]), K1).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_entries_match_kernel_value(self, data):
        kernel = data.draw(kernels)
        d = data.draw(st.integers(1, 3))
        points = data.draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=6,
                                    unique=True))
        g = gram_matrix(points, kernel)
        assert (g == g.T).all()
        conf, pair = kernel_coefficients(kernel)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                want = kernel_value(kernel, x, y)
                # one rounding of the summed exponent e moves exp(e) by about
                # |e| ulp, so the bound grows with the exponent's size
                exponent = pair * sum((a - b) ** 2 for a, b in zip(x, y)) \
                    + conf * (sum(a * a for a in x) + sum(b * b for b in y))
                assert abs(g[i, j] - want) <= 1e-15 * max(1.0, exponent) * want


class TestNearestClassicalPoint:
    def test_delta_recovers_its_point(self):
        state = normalize(embed_position((1.25,)), K1)
        result = nearest_classical_points([state], ManifoldId.POSITION, (-5.0, 5.0))[0]
        assert abs(result.point[0] - 1.25) <= 1e-6
        assert result.residual_angle <= 1e-6
        assert not result.tie

    def test_projection_consistency_random_points(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            u = float(rng.uniform(-3, 3))
            state = normalize(embed_position((u,)), K1)
            result = nearest_classical_points([state], ManifoldId.POSITION, (-4.0, 4.0),
                                              coarse=41)[0]
            assert abs(result.point[0] - u) <= 1e-6
            assert result.residual_angle <= 1e-6

    def test_packet_projects_to_its_center(self):
        state = normalize(StateExpr.single(Packet((0.7,), 1.0)), K1)
        result = nearest_classical_points([state], ManifoldId.POSITION, (-5.0, 5.0))[0]
        assert abs(result.point[0] - 0.7) <= 1e-6
        assert result.residual_angle > 0.1

    def test_symmetric_superposition_reports_tie(self):
        s = 4.0
        expr = blend(1.0, embed_position((-s,)), 1.0, embed_position((s,)))
        state = normalize(expr, K1)
        result = nearest_classical_points([state], ManifoldId.POSITION, (-8.0, 8.0),
                                          coarse=33)[0]
        assert result.tie
        assert abs(result.point[0] + s) <= 1e-6  # lexicographically smaller peak

    def test_tiny_real_overlaps_rank_instead_of_tie(self):
        # every real overlap lies below 1e-9, yet the grid cell at 0 is the
        # clear maximum: an absolute tie tolerance made all seven cells tie
        state = normalize(StateExpr.single(Delta((0.0,)), coeff=1e-12 + 0.5j), K1)
        result = nearest_classical_points([state], ManifoldId.POSITION, (-6.0, 6.0), coarse=7)[0]
        assert not result.tie
        assert abs(result.point[0]) <= 1e-6
        assert result.overlap == pytest.approx(2e-12, rel=1e-6)

    def test_pair_manifold_projection(self):
        state = normalize(embed_pair_position((0.5,), (1.5,)), K1)
        result = nearest_classical_points([state], ManifoldId.POSITION_PAIR,
                                          ((-3.0, 3.0), (-3.0, 3.0)), coarse=21)[0]
        u, v = result.point
        assert abs(u[0] - 0.5) <= 1e-6
        assert abs(v[0] - 1.5) <= 1e-6

    def test_momentum_manifold_under_confined(self):
        state = normalize(embed_momentum((0.8,)), KC)
        result = nearest_classical_points([state], ManifoldId.MOMENTUM, (-2.0, 2.0),
                                          coarse=21)[0]
        assert abs(result.point[0] - 0.8) <= 1e-5
        assert result.residual_angle <= 1e-6

    def test_oblique_ridge_pair_projection(self):
        # the real overlap peaks on p = q at the end of a ridge oblique to
        # both axes, where coordinate sweeps alone crawl
        state = normalize(StateExpr(((1j, Delta((3.0,)), Delta((3.0,))),)),
                          ConfinedKernel(0.5, 1.0))
        result = nearest_classical_points([state], ManifoldId.MOMENTUM_PAIR, (-6.0, 6.0),
                                          coarse=5)[0]
        (p,), (q,) = result.point
        assert abs(p - q) <= 1e-6

    def test_arity_mismatch_rejected(self):
        state = normalize(embed_position((0.0,)), K1)
        with pytest.raises(DomainError):
            nearest_classical_points([state], ManifoldId.POSITION_PAIR, (-1.0, 1.0))

    def test_empty_box_rejected(self):
        state = normalize(embed_position((0.0,)), K1)
        with pytest.raises(DomainError):
            nearest_classical_points([state], ManifoldId.POSITION, (2.0, 2.0))

    def test_far_box_under_confined_kernel(self):
        # ||delta_u||^2 = exp(-1800) underflows at the box edges; the ratio
        # <psi, delta_u> / ||delta_u|| stays finite.
        state = normalize(StateExpr.single(Packet((0.5,), 1.0)), ConfinedKernel(1.0, 1.0))
        result = nearest_classical_points([state], ManifoldId.POSITION, (-30.0, 30.0))[0]
        assert math.isfinite(result.overlap)
        assert 0.0 <= result.residual_angle <= math.pi / 2

    def test_tie_across_grid_chunks(self):
        # 65^2 grid points span two evaluation chunks; the second peak,
        # (3.875, 3.875), lies in the second one
        expr = blend(1.0, embed_pair_position((-3.0,), (-3.0,)),
                     1.0, embed_pair_position((3.875,), (3.875,)))
        state = normalize(expr, K1)
        result = nearest_classical_points([state], ManifoldId.POSITION_PAIR,
                                          ((-4.0, 4.0), (-4.0, 4.0)), coarse=65)[0]
        assert result.tie
        (u,), (v,) = result.point
        assert abs(u + 3.0) <= 1e-6 and abs(v + 3.0) <= 1e-6
        assert result.iterations > 65**2

    def test_ascent_holds_bound_with_outward_gradient(self):
        # the best cell lies on the v = -6 bound, whose gradient points out
        # of the box; clipped steps without an active set stalled there
        expr = StateExpr(((-1.0, Delta((0.0,)), Delta((0.0,))),
                          (-1.0, Delta((1.0,)), Packet((0.0,), 1.0, (3.0,)))))
        state = normalize(expr, TranslationKernel(1.5))
        result = nearest_classical_points([state], ManifoldId.POSITION_PAIR, (-6.0, 6.0),
                                          coarse=5)[0]
        assert result.point[1] == (-6.0,)
        assert_local_maximum(result, state, ManifoldId.POSITION_PAIR, -6.0, 6.0, 5)

    @pytest.mark.parametrize("width", [0.08, 0.1, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("center", [0.0, 0.37, -1.234])
    def test_packet_center_is_exact(self, width, center):
        state = normalize(StateExpr.single(Packet((center,), width)), K1)
        coarse = 33
        result = nearest_classical_points([state], ManifoldId.POSITION, (-5.0, 5.0),
                                          coarse=coarse)[0]
        assert abs(result.point[0] - center) <= 1e-12
        assert result.iterations <= coarse + 50

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_batch_matches_one_state_calls(self, data):
        # the states draw their terms from one pool, so a batch shares, repeats
        # and reorders primitive tuples; boxes small against the coordinates
        # leave many peaks outside, so the active set binds
        manifold = data.draw(st.sampled_from(list(ManifoldId)))
        momentum = manifold in (ManifoldId.MOMENTUM, ManifoldId.MOMENTUM_PAIR)
        kernel = data.draw(kernels.filter(
            lambda k: isinstance(k, ConfinedKernel) or not momentum))
        kinds = ("delta", "packet", "wave") if isinstance(kernel, ConfinedKernel) \
            else ("delta", "packet")
        arity = 2 if manifold.is_pair else 1
        pool = data.draw(st.lists(st.tuples(*[primitives(1, kinds)] * arity),
                                  min_size=1, max_size=4))
        coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
            lambda c: abs(c) > 0.1)
        term = st.tuples(coeff, st.sampled_from(pool))
        batch = []
        for terms in data.draw(st.lists(st.lists(term, min_size=1, max_size=3),
                                        min_size=2, max_size=5)):
            try:
                batch.append(normalize(StateExpr(tuple((c, *p) for c, p in terms)), kernel))
            except DomainError:
                assume(False)  # terms that cancel exactly leave no norm
        lo = data.draw(st.floats(-6.0, 5.0))
        box = (lo, lo + data.draw(st.floats(0.05, 3.0)))
        coarse = data.draw(st.integers(2, 9))
        results = nearest_classical_points(batch, manifold, box, coarse=coarse)
        assert len(results) == len(batch)
        for state, got in zip(batch, results):
            want = nearest_classical_points([state], manifold, box, coarse=coarse)[0]
            # a state padded to the batch's width sums exact zeros; for longer
            # states BLAS may round a padded product differently in the last
            # bit, and the check leaves room for that
            assert got.tie == want.tie
            assert got.iterations == want.iterations
            assert abs(got.residual_angle - want.residual_angle) <= 1e-12
            assert np.abs(np.subtract(got.point, want.point)).max() <= 1e-8  # the ascent's last step

    @pytest.mark.parametrize("kernel, manifold, exprs", [
        # the even-minimum saddle start, a delta on a grid point (at its peak from the
        # start), a three-term climb, and a delta held on the u = 6 bound
        (ConfinedKernel(0.5, 2.0), ManifoldId.POSITION, [
            StateExpr(((1.0, PlaneWave((1.0,))), (-0.5, Delta((0.0,))))),
            embed_position((3.0,)),
            StateExpr(((1.0, Packet((0.7,), 0.4)), (0.6j, Packet((-1.1,), 0.9)),
                       (-0.3, Delta((1.9,))))),
            embed_position((7.5,))]),
        # held on v = -6 and on u = 6 while the other coordinate climbs, a pair at its
        # peak from the start, and a two-term climb
        (TranslationKernel(1.5), ManifoldId.POSITION_PAIR, [
            StateExpr(((-1.0, Delta((0.0,)), Delta((0.0,))),
                       (-1.0, Delta((1.0,)), Packet((0.0,), 1.0, (3.0,))))),
            embed_pair_position((3.0,), (0.0,)),
            StateExpr(((1.0, Packet((0.7,), 0.4), Packet((-1.3,), 0.6)),
                       (0.5j, Delta((1.1,)), Packet((0.2,), 1.2)))),
            StateExpr(((1.0, Delta((9.0,)), Packet((0.35,), 0.5)),))]),
    ])
    def test_whole_array_rounds_match_one_state_calls(self, kernel, manifold, exprs):
        # each round forms a trial for every state of the batch, and discards the
        # trials of stopped ones: none may reach a result, all of whose fields equal
        # the one-state call's (states of at most 3 terms keep their bits)
        states = [normalize(e, kernel) for e in exprs]
        alone = [nearest_classical_points([s], manifold, (-6.0, 6.0), coarse=5)[0]
                 for s in states]
        assert len({r.iterations for r in alone}) >= 3  # the states stop in different rounds
        assert min(r.iterations for r in alone) == 5**len(alone[0].point) + 1
        assert any(6.0 in np.abs(r.point) for r in alone)  # held on a bound
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
            got = nearest_classical_points([states[k] for k in order], manifold, (-6.0, 6.0),
                                           coarse=5)
            assert got == [alone[k] for k in order]

    def test_batch_rejects_mixed_kernels(self):
        states = [normalize(embed_position((0.0,)), K1), normalize(embed_position((0.0,)), KC)]
        with pytest.raises(DomainError, match="kernel"):
            nearest_classical_points(states, ManifoldId.POSITION, (-1.0, 1.0))
        assert nearest_classical_points([], ManifoldId.POSITION, (-1.0, 1.0)) == []

    @pytest.mark.parametrize("kwargs, name", [
        ({"coarse": 5.5}, "coarse"),
        ({"coarse": 1}, "coarse"),
        ({"coarse": True}, "coarse"),
        ({"box": (-math.inf, 1.0)}, "box"),
        ({"box": (0.0, math.inf)}, "box"),
        ({"box": (math.nan, 1.0)}, "box"),
        ({"box": ((-1.0, 1.0),) * 3}, r"box must give 1 \(lo, hi\) intervals"),
    ])
    def test_rejects_bad_search_arguments(self, kwargs, name):
        # non-finite box bounds made the refinement loop forever
        state = normalize(embed_position((0.0,)), K1)
        with pytest.raises(DomainError, match=name):
            nearest_classical_points([state], ManifoldId.POSITION,
                                     **({"box": (-1.0, 1.0)} | kwargs))


class TestManifoldOverlap:
    """The batched evaluator against the term-by-term referee."""

    @settings(max_examples=300, deadline=None)
    @given(overlap_cases())
    def test_matches_term_by_term(self, case):
        manifold, kernel, expr, theta = case
        try:  # per point, the terms' values
            want = [[referee_overlap(StateExpr((term,)), kernel, manifold, t)
                     for term in expr.terms] for t in theta]
        except DivergenceError:
            with pytest.raises(DivergenceError):
                ManifoldOverlap(expr, kernel, manifold)(theta)
            return
        got = ManifoldOverlap(expr, kernel, manifold)(theta)
        for g, terms in zip(got, want):
            # relative to the term magnitudes, so cancellation between terms
            # does not loosen or tighten the check
            scale = sum(map(abs, terms))
            assert abs(mpmath.mpc(g) - mpmath.fsum(terms)) <= 1e-12 * scale + 1e-300

    @pytest.mark.parametrize("kernel, error", [
        (K1, DivergenceError),
        (ConfinedKernel(1e-13, 1.0), NumericalFailureError),
        # det(M) > 0, but LAPACK's smallest eigenvalue of the target norm's M is <= 0
        (ConfinedKernel(1e-17, 1.0), NumericalFailureError),
    ])
    def test_momentum_errors_match(self, kernel, error):
        # a delta reaches the error through the target norm, a plane wave
        # through its own factor, also in slots that mix deltas, packets and
        # waves with the wave not first; the batched overlap raises the same
        # error, with the same message, as the term-by-term inner product
        delta, packet, wave = Delta((0.5,)), Packet((0.3,), 0.8, (0.2,)), PlaneWave((0.5,))
        exprs = [StateExpr.single(delta), StateExpr.single(wave),
                 StateExpr(((1.0, delta), (0.5j, packet), (2.0, wave), (1.0, Delta((1.0,))))),
                 StateExpr(((1.0, packet, delta), (0.5, delta, wave), (1j, wave, packet)))]
        for expr in exprs:
            assert_momentum_error_matches(expr, kernel, error)
        delta = normalize(StateExpr.single(Delta((0.5,))), kernel)
        with pytest.raises(error):
            nearest_classical_points([delta], ManifoldId.MOMENTUM, (-1.0, 1.0))

    @pytest.mark.parametrize("terms, error", [
        (((1.0, Delta((0.5,))), (1.0, NARROW), (1.0, PlaneWave((0.5,)))), NumericalFailureError),
        (((1.0, Delta((0.5,))), (1.0, PlaneWave((0.5,))), (1.0, NARROW)), DivergenceError),
        # the first slot in full, then the second, then the target norm
        (((1.0, Delta((0.5,)), NARROW), (1.0, PlaneWave((0.5,)), Delta((1.0,)))),
         DivergenceError),
        (((1.0, Delta((0.5,)), Packet((0.0,), 1.0)), (1.0, Delta((1.0,)), NARROW)),
         NumericalFailureError),
        # a packet profile that is not finite raises where its slot is met, not before
        (((1.0, PlaneWave((0.5,)), OVERFLOWING),), DivergenceError),
        (((1.0, OVERFLOWING, PlaneWave((0.5,))),), NumericalFailureError),
    ])
    def test_momentum_errors_in_term_by_term_order(self, terms, error):
        # under K1 a plane wave's form diverges and NARROW's is near singular:
        # the first form the term-by-term path meets decides the error
        assert_momentum_error_matches(StateExpr(terms), K1, error)

    @pytest.mark.parametrize("conf", [1e-1, 1e-2, 1e-4, 1e-6])
    def test_weak_confinement_keeps_delta_digits(self, conf):
        # against a plane wave, a delta's alpha + beta.beta / (4 g) = -(conf + 1) |u|^2 +
        # |u|^2 / (conf + 1) cancels to -conf (conf + 2) / (conf + 1) |u|^2; summed as
        # written, it lost up to 2.5 digits at |u| = 60 (2e-13 to 7e-13 relative at each
        # conf).  The bound is 5e-14 beyond eps |exponent|, the rounding of the exponent
        # itself, which reaches 1.5e-13 at conf = 0.1 (exponent -687)
        mpmath = pytest.importorskip("mpmath")
        u, t = np.linspace(-60.0, 60.0, 25), np.linspace(-1.0, 1.0, 9)
        got = ManifoldOverlap([StateExpr.single(Delta((x,))) for x in u],
                              ConfinedKernel(conf, 1.0), ManifoldId.MOMENTUM)(t[:, None])
        with mpmath.workdps(50):
            c, pi = mpmath.mpf(conf), mpmath.pi
            g, dual = c + 1, c + 2  # conf + pair, conf + 2 pair
            scale = mpmath.sqrt(pi / g) * mpmath.root(c * dual / pi**2, 4)
            for row, x in zip(got, u.tolist()):
                for value, y in zip(row, t.tolist()):
                    exponent = (-c * dual / g * x**2 - 1j * x * y / g
                                - (1 / (4 * g) - 1 / (4 * dual)) * y**2)
                    want = complex(scale * mpmath.exp(exponent))
                    bound = 5e-14 + np.finfo(float).eps * abs(complex(exponent))
                    assert abs(value - want) <= bound * abs(want)

    def test_batch_memory_is_bounded(self):
        # 256 terms over 20000 points: one unchunked (points, terms) complex
        # array alone takes 78 MiB; a chunk of 4096 points takes 16 MiB
        u = np.linspace(-3.0, 3.0, 256)
        expr = StateExpr(tuple((1.0, Delta((a,)), Delta((a + 1.0,))) for a in u))
        overlap = ManifoldOverlap(expr, K1, ManifoldId.POSITION_PAIR)
        theta = np.random.default_rng(5).uniform(-4.0, 4.0, (20000, 2))
        tracemalloc.start()
        try:
            values = overlap(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # points on either side of a chunk boundary keep their values
        assert values[4090:4100].tobytes() == overlap(theta[4090:4100]).tobytes()

    @pytest.mark.parametrize("manifold", [ManifoldId.POSITION, ManifoldId.POSITION_PAIR])
    def test_padded_batch_keeps_each_state_bitwise(self, manifold):
        # 1-, 2- and 3-term states in one table, the shorter ones padded with
        # exact zeros, in both orders; 1500 points cross the batch's chunk
        # seam at 4096 // 3 = 1365
        arity = 2 if manifold.is_pair else 1
        prims = [Delta((0.3,)), Packet((-0.8,), 0.6, (0.4,)), Delta((1.1,)), Packet((0.5,), 1.3)]
        batch = [StateExpr(tuple((complex(1.0, 0.5 * k), *prims[k:k + arity]) for k in range(n)))
                 for n in (1, 2, 3)]
        theta = np.random.default_rng(3).uniform(-3.0, 3.0, (1500, arity))
        for order in (batch, batch[::-1]):
            for state, got in zip(order, ManifoldOverlap(order, K1, manifold)(theta)):
                assert got.tobytes() == ManifoldOverlap(state, K1, manifold)(theta).tobytes()

    def test_derivatives_match_central_differences(self):
        # gradient from differences of values, Hessian from differences of
        # gradients, step 1e-5: both agree to about 3e-9 of their largest entry
        rng, h = np.random.default_rng(11), 1e-5
        for i in range(200):
            manifold = list(ManifoldId)[i % 4]
            # plane waves, as states or as momentum targets, only where they normalize
            confined = manifold.primitive is PlaneWave or i % 8 >= 4
            kernel = KC if confined else K1
            kinds = ("delta", "packet", "wave") if confined else ("delta", "packet")
            make = random_pair_state if manifold.is_pair else random_state
            overlap = ManifoldOverlap(make(rng, int(rng.integers(1, 4)), kinds, max_terms=3),
                                      kernel, manifold)
            theta = rng.uniform(-3.0, 3.0, (1, overlap.axes))
            step = h * np.eye(overlap.axes)
            _, gradient, hessian = overlap._derivatives(theta)
            slopes = (overlap(theta + step).real - overlap(theta - step).real) / (2.0 * h)
            curvatures = (overlap._derivatives(theta + step)[1]
                          - overlap._derivatives(theta - step)[1]) / (2.0 * h)
            for want, got in ((gradient[0], slopes), (hessian[0], curvatures)):
                assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max(), (i, manifold)

    def test_rejects_wrong_point_size(self):
        overlap = ManifoldOverlap(embed_pair_position((0.0,), (1.0,)), K1,
                                  ManifoldId.POSITION_PAIR)
        with pytest.raises(DomainError):
            overlap(np.zeros((3, 1)))

    def test_projection_climbs_off_a_saddle(self):
        # the state is even in p, so the best coarse cell, p = 0, has no slope
        # along p, where the overlap curves up
        state = normalize(StateExpr(((-0.25, PlaneWave((0.0,)), Delta((6.75,))),
                                     (2.0, Packet((0.0,), 2.0), Delta((7.75,))))),
                          ConfinedKernel(0.0625, 1.0))
        manifold = ManifoldId.MOMENTUM_PAIR
        result = nearest_classical_points([state], manifold, (-6.0, 6.0), coarse=5)[0]
        assert_local_maximum(result, state, manifold, -6.0, 6.0, 5)

    def test_retries_keep_climbing_past_a_saddle(self):
        # on the way up the Hessian curves up by about 0.09 and down by 1.0:
        # retries that jumped from lam = top to lam = top + 1.0 crept on with
        # tiny steps and met the 100-step cap short of the top
        state = normalize(StateExpr(((1j, PlaneWave((0.0,)), PlaneWave((1.5,))),
                                     (-1.0, Delta((0.0,)), Delta((0.0,))))),
                          ConfinedKernel(0.125, 2.0))
        manifold = ManifoldId.POSITION_PAIR
        result = nearest_classical_points([state], manifold, (-6.0, 6.0), coarse=6)[0]
        assert_local_maximum(result, state, manifold, -6.0, 6.0, 6)

    def test_projection_leaves_a_flat_saddle(self):
        # at the v = 0 saddle (Hessian eigenvalues -1.01 and +0.0034, zero
        # gradient) the nudge's unit step overshoots; a raised shift then left
        # a 1e-10 step and the ascent ended at v = 1.0e-10, overlap
        # 0.5696325120, below the maxima near |v| = 0.25 (0.569678)
        state = normalize(StateExpr(((2.0, Delta((0.0,)), Packet((0.0,), 2.0)),
                                     (-0.25, Delta((0.0,)), Delta((0.0,))))),
                          TranslationKernel(0.75))
        manifold = ManifoldId.POSITION_PAIR
        result = nearest_classical_points([state], manifold, (-6, 6), coarse=5)[0]
        assert_local_maximum(result, state, manifold, -6.0, 6.0, 5)

    def test_projection_leaves_an_even_minimum(self):
        # the overlap is even in u and the best coarse cell, u = 0, is a local
        # minimum: the unit nudge overshoots, and a raised shift left a 3e-13
        # step that ended the ascent at u = 3.3e-13, overlap 0.4882103205
        state = normalize(StateExpr(((1.0, PlaneWave((1.0,))), (-0.5, Delta((0.0,))))),
                          ConfinedKernel(0.5, 2.0))
        result = nearest_classical_points([state], ManifoldId.POSITION, (-6.0, 6.0),
                                          coarse=5)[0]
        assert abs(abs(result.point[0]) - 0.4787) <= 1e-4
        assert_local_maximum(result, state, ManifoldId.POSITION, -6.0, 6.0, 5)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_projection_is_a_local_maximum(self, data):
        check_projection_is_local_maximum(data)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(st.data())
    def test_projection_is_a_local_maximum_stress(self, data):
        check_projection_is_local_maximum(data)


def assert_momentum_error_matches(expr, kernel, error):
    manifold = ManifoldId.MOMENTUM_PAIR if expr.arity == 2 else ManifoldId.MOMENTUM
    with pytest.raises(error) as term_by_term:
        scalar_overlap(expr, kernel, manifold, (0.0,) * expr.arity)
    with pytest.raises(error) as batched:
        ManifoldOverlap(expr, kernel, manifold)
    assert str(batched.value) == str(term_by_term.value)


def assert_local_maximum(result, state, manifold, lo, hi, coarse):
    """The projection beats every coarse grid cell and its +-1e-4 neighbours
    along each axis inside the box."""
    kernel = state.kernel
    point = np.array(result.point).ravel()
    axes = len(point)

    def clamped(theta):
        value = scalar_overlap(state.expr, kernel, manifold, theta).real
        return min(1.0, max(0.0, value))

    grid = np.linspace(lo, hi, coarse)
    for theta in np.stack(np.meshgrid(*[grid] * axes, indexing="ij"), -1).reshape(-1, axes):
        # a cell within the 1e-9 tie tolerance of an earlier one loses to it
        assert result.overlap >= clamped(theta) - 1e-9
    for k in range(axes):
        for step in (-1e-4, 1e-4):
            theta = point.copy()
            theta[k] += step
            if lo <= theta[k] <= hi:
                assert result.overlap >= clamped(theta) - 1e-12


def check_projection_is_local_maximum(data):
    manifold = data.draw(st.sampled_from(list(ManifoldId)))
    momentum = manifold in (ManifoldId.MOMENTUM, ManifoldId.MOMENTUM_PAIR)
    kernel = data.draw(kernels.filter(
        lambda k: isinstance(k, ConfinedKernel) or not momentum))
    kinds = ("delta", "packet", "wave") if isinstance(kernel, ConfinedKernel) \
        else ("delta", "packet")
    arity = 2 if manifold.is_pair else 1
    try:
        state = normalize(data.draw(states(arity, 1, kinds)), kernel)
    except DomainError:
        # terms that cancel exactly, as in delta(0) delta(0) - delta(0) delta(0),
        # leave no norm; normalize rightly refuses them
        assume(False)
    coarse = data.draw(st.integers(5, 17))
    lo, hi = -6.0, 6.0
    result = nearest_classical_points([state], manifold, (lo, hi), coarse=coarse)[0]
    assert_local_maximum(result, state, manifold, lo, hi, coarse)


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

    @pytest.mark.parametrize("kwargs, name", [
        ({"box": (-math.inf, 3.0)}, "box"),
        ({"box": (-3.0, math.nan)}, "box"),
        ({"resolution": 0}, "resolution"),
        ({"resolution": 1}, "resolution"),
        ({"resolution": 2.5}, "resolution"),
        ({"resolution": True}, "resolution"),
    ])
    def test_rejects_bad_scan_arguments(self, kwargs, name):
        with pytest.raises(DomainError, match=name):
            manifold_separation((0.0,), ManifoldId.POSITION, ManifoldId.MOMENTUM, KC,
                                **kwargs)

    def test_member_state_helper(self):
        state = manifold_member(ManifoldId.POSITION, (1.0,), K1)
        assert state.raw_norm == 1.0
        assert state.expr.arity == 1


class TestSeparationGridContainsSelf:
    def test_grid_point_match(self):
        # box includes the member's own parameter, so separation hits zero there
        angle = manifold_separation((0.0, 0.0), ManifoldId.POSITION_PAIR,
                                    ManifoldId.POSITION_PAIR, K1,
                                    box=(-1.0, 1.0), resolution=5)
        assert angle <= 1e-9
