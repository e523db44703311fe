"""Tests for the quadrature oracle and finite differences."""

import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import referee
from helpers import run_python
from statesphere import (BoxTooSmallError, ConfinedKernel, Delta, DivergenceError, DomainError,
                         ManifoldId, NumericalFailureError, Packet, PlaneWave, StateExpr,
                         TranslationKernel, induced_metric, inner_product, kernel_value,
                         overlap_matrix, primitive_overlap)
from statesphere.cli import _random_convergent_pair
from statesphere.kernels import _metric_reference, kernel_coefficients
from statesphere.manifolds import ManifoldOverlap
from statesphere.oracle import (_STRIP_BYTES, BOUNDARY_DECAY, QuadratureSpec, _bands, _box,
                                _factors, _gauss_legendre, _nodes, _quad_block, _quad_pair_level,
                                _refine, _rows, _side, finite_difference, quad_inner_product,
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

    def test_top_level_is_bounded(self):
        # construction only: a top level of n nodes gives an 8 n^2 byte block
        assert QuadratureSpec(nodes_per_axis=4097, refinement_levels=1).nodes_per_axis == 4097
        assert QuadratureSpec(nodes_per_axis=257, refinement_levels=5).refinement_levels == 5
        assert QuadratureSpec(nodes_per_axis=35, refinement_levels=7).refinement_levels == 7
        for kwargs, field in (({"nodes_per_axis": 100001}, "nodes_per_axis"),
                              ({"nodes_per_axis": 4099, "refinement_levels": 1}, "nodes_per_axis"),
                              ({"refinement_levels": 10}, "refinement_levels"),
                              ({"refinement_levels": 6}, "refinement_levels"),
                              ({"nodes_per_axis": 35, "refinement_levels": 8},
                               "refinement_levels")):
            with pytest.raises(DomainError, match=f"^{field} must be an integer"):
                QuadratureSpec(**kwargs)


KINDS = {
    "delta": lambda d: Delta((0.7, -0.4, 1.1)[:d]),
    "packet": lambda d: Packet((-0.5, 0.3, 0.9)[:d], 0.8, (0.6, -0.2, 0.4)[:d]),
    "wave": lambda d: PlaneWave((0.9, -0.5, 0.3)[:d]),
}


# every kind pair but the one that diverges: two plane waves under K1
KIND_PAIRS = [(f, g, kernel) for f in KINDS for g in KINDS for kernel in (K1, KC)
              if not (kernel is K1 and f == g == "wave")]


class TestQuadPairOverlap:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("f_kind, g_kind, kernel", KIND_PAIRS,
                             ids=[f"{f}-{g}-{type(k).__name__}" for f, g, k in KIND_PAIRS])
    def test_every_kind_pair_matches_closed_form(self, f_kind, g_kind, kernel, d):
        # one block routine for all nine kind pairs, with one- and multi-axis
        # delta sides; a delta pair is the same one-node block at every level.  The
        # 50-digit referee agrees with both
        f, g = KINDS[f_kind](d), KINDS[g_kind](d)
        value, estimate = quad_pair_overlap(f, g, kernel, QuadratureSpec(129, 2))
        np.testing.assert_allclose(value, overlap_matrix([f], [g], kernel)[0, 0], rtol=1e-8)
        np.testing.assert_allclose(value, complex(referee.overlap(f, g, kernel)), rtol=1e-8)
        if f_kind == g_kind == "delta":
            assert estimate == 0.0

    def test_diverging_pair_raises_as_the_closed_form(self):
        # two plane waves under a translation kernel: the integrand does not decay
        waves = PlaneWave((1.0,)), PlaneWave((0.5,))
        with pytest.raises(DivergenceError, match="diverges under this kernel"):
            quad_pair_overlap(*waves, K1)
        with pytest.raises(DivergenceError):
            primitive_overlap(*waves, K1)

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

    @pytest.mark.parametrize("levels", [1, 3])
    def test_delta_pair_is_integrated_once(self, monkeypatch, levels):
        # a delta pair has no nodes: one block per axis for the whole ladder, and the
        # value of any one level, bit for bit
        f, g = KINDS["delta"](3), Delta((0.2, 0.5, -0.9))
        want = _quad_pair_level(f, g, KC, 257)
        calls = []

        def counted(*args):
            calls.append(args)
            return _quad_block(*args)

        monkeypatch.setattr("statesphere.oracle._quad_block", counted)
        value, estimate = quad_pair_overlap(f, g, KC, QuadratureSpec(257, levels))
        assert len(calls) == 3
        assert value == want
        assert estimate == (0.0 if levels > 1 else math.inf)

    def test_undersized_box_raises(self, monkeypatch):
        monkeypatch.setattr("statesphere.oracle._PAD", 1.0)
        for f in (Packet((0.0,), 1.0), Delta((0.0,))):  # two free sides, then a delta side
            with pytest.raises(BoxTooSmallError):
                quad_pair_overlap(f, Packet((0.0,), 1.0), K1)

    @pytest.mark.parametrize("bad", [complex("nan"), complex(1.0, math.inf)])
    def test_non_finite_level_raises(self, bad):
        # NaN compares False with everything, so the ladder returned (nan, nan, ...)
        with pytest.raises(NumericalFailureError, match="at 257 nodes per axis is not finite"):
            _refine(lambda n: bad, QuadratureSpec())

    def test_growing_estimates_raise(self):
        # each level moves 100x further than the last, beyond 1e-6 of the value
        levels = {257: 1.0, 513: 1.001, 1025: 1.1}
        with pytest.raises(NumericalFailureError, match="quadrature refinement is not converging"):
            _refine(levels.get, QuadratureSpec())

    def test_refinement_estimates_decrease(self, monkeypatch):
        # a deliberately wide box (half-width 65 / sqrt(8/3) = 39.8) keeps the
        # early levels under-resolved, so the ladder is visible above the
        # rounding floor
        monkeypatch.setattr("statesphere.oracle._PAD", 65.0)
        f = Packet((0.4,), 0.5)
        g = Packet((-0.6,), 0.5)
        spec = QuadratureSpec(nodes_per_axis=33, refinement_levels=5)
        _, _, history = _refine(lambda n: _quad_pair_level(f, g, K1, n), spec)
        estimates = [abs(b - a) for a, b in zip(history, history[1:])]
        assert all(later < earlier for earlier, later in zip(estimates, estimates[1:]))
        assert estimates[-1] < 1e-10


# a one-particle state in each kind, a pair state in each ordered pair of kinds, on
# every manifold its kernel allows; plane waves (and their manifolds) under KC only
MANIFOLD_CASES = [(manifold, kinds, kernel) for kernel in (K1, KC) for manifold in ManifoldId
                  if kernel is KC or manifold.primitive is Delta
                  for kinds in itertools.product(
                      ["delta", "packet"] + (["wave"] if kernel is KC else []),
                      repeat=2 if manifold.is_pair else 1)]


class TestManifoldCompiler:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("manifold, kinds, kernel", MANIFOLD_CASES, ids=[
        f"{m.value}-{'-'.join(k)}-{type(kernel).__name__}" for m, k, kernel in MANIFOLD_CASES])
    def test_manifold_overlap_matches_quadrature(self, manifold, kinds, kernel, d):
        # the compiled quadratic exponents (`_slot_exponents`, target norm folded
        # in) against <state, target> / ||target|| by quadrature, with `target`
        # the unnormalized embedding at theta
        state = StateExpr.single(*(KINDS[kind](d) for kind in kinds))
        theta = np.array([0.3, -0.2, 0.5, -0.4, 0.6, 0.1][:d * len(kinds)])
        target = StateExpr.single(*(manifold.primitive(tuple(t))
                                    for t in np.split(theta, len(kinds))))
        spec = QuadratureSpec(129, 2)
        value, _ = quad_inner_product(state, target, kernel, spec)
        norm_sq, _ = quad_inner_product(target, target, kernel, spec)
        got = ManifoldOverlap(state, kernel, manifold)(theta[None])[0]
        np.testing.assert_allclose(got, value / math.sqrt(norm_sq.real), rtol=1e-8)


# Refinement histories (levels 257, 513, 1025) recorded from the complex-grid
# implementation that evaluated the whole integrand on each 2-d block.
_HISTORIES = {
    "packet_packet_translation": (
        (Packet((0.5,), 0.6, (1.2,)), Packet((-0.8,), 1.1, (-0.5,)), K1),
        (1.4136930303442943+0.4507372168999706j), (1.4136930303442239+0.4507372168999469j),
        (1.4136930303441557+0.4507372168999249j)),
    "packet_packet_confined": (
        (Packet((0.5,), 0.6, (1.2,)), Packet((-0.8,), 1.1, (-0.5,)), KC),
        (1.0662014430377795+0.30220406667004757j), (1.066201443037726+0.3022040666700321j),
        (1.0662014430376745+0.3022040666700173j)),
    "wave_wave_confined": (
        (PlaneWave((1.0,)), PlaneWave((-0.7,)), KC),
        (0.1840029695075493+3.81725900925476e-15j), (0.1840029695075454+9.70861220052556e-16j),
        (0.1840029695075332-1.5545613162018108e-15j)),
    "wave_packet_confined": (
        (PlaneWave((0.8,)), Packet((0.3,), 0.7, (-0.4,)), KC),
        (1.8831593951690597+0.4730278092514589j), (1.8831593951689665+0.47302780925143445j),
        (1.883159395168875+0.4730278092514114j)),
    "delta_packet": (
        (Delta((1.0,)), Packet((0.0,), 0.9, (0.3,)), K1),
        (1.5567437981993582-0.29212834263051557j), (1.5567437981993186-0.29212834263050813j),
        (1.5567437981992809-0.2921283426305011j)),
    "packet_delta": (
        (Packet((0.0,), 0.9, (0.3,)), Delta((1.0,)), KC),
        (0.9725155402456596+0.21030694744211942j), (0.9725155402456345+0.210306947442114j),
        (0.9725155402456113+0.21030694744210893j)),
    "three_dimensional": (
        (Packet((1.0, 0.0, -1.0), 0.8), Packet((0.0, 0.5, 0.0), 1.2, (0.4, 0.0, -0.4)), K1),
        (88.62225856973524-42.428786249518495j), (88.6222585697217-42.428786249512j),
        (88.62225856970895-42.42878624950589j)),
}


class TestQuadratureBlocks:
    @pytest.mark.parametrize("name", sorted(_HISTORIES))
    def test_refinement_history_matches_recorded(self, name):
        (f, g, kernel), *want = _HISTORIES[name]
        spec = QuadratureSpec()
        _, _, history = _refine(lambda n: _quad_pair_level(f, g, kernel, n), spec)
        np.testing.assert_allclose(history, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [513, 1025])
    def test_2d_block_holds_one_strip(self, n):
        # tracemalloc sees numpy buffers; one bound for every n: the strip
        # budget plus O(n) vectors at the largest n here, about 0.93 MB
        f = Packet((0.5,), 0.6, (1.2,))
        g = Packet((-0.8,), 1.1, (-0.5,))
        _quad_pair_level(f, g, K1, n)  # warm the node cache
        tracemalloc.start()
        try:
            _quad_pair_level(f, g, K1, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * _STRIP_BYTES + 32 * 8 * 1025

    # rows per strip at 257 columns: the last strip is partial (257 = 85 * 3 + 2)
    # or a single row (257 = 64 * 4 + 1)
    @pytest.mark.parametrize("rows", [3, 4])
    def test_strips_match_one_strip(self, monkeypatch, rows):
        spec = QuadratureSpec()
        for (f, g, kernel), *_ in _HISTORIES.values():
            def history(strip_bytes):
                monkeypatch.setattr("statesphere.oracle._STRIP_BYTES", strip_bytes)
                return _refine(lambda n: _quad_pair_level(f, g, kernel, n), spec)[2]
            np.testing.assert_allclose(history(8 * rows * 257), history(1 << 40),
                                       rtol=1e-13, atol=0.0)

    # one side's box moved by half its half-width, so exactly one box edge
    # cuts into the integrand: a row edge if f's box moves, else a column edge
    @pytest.mark.parametrize("rows", [3, 4])
    @pytest.mark.parametrize("by", [-0.5, 0.5], ids=["last", "first"])
    @pytest.mark.parametrize("f, g, moved", [
        (Packet((0.3,), 0.7), Delta((0.1,)), "f"),  # one-column block: a row edge
        (Delta((0.1,)), Packet((0.3,), 0.7), "g"),  # one-row block: a column edge
        (Packet((0.3,), 0.7), Packet((-0.2,), 1.1), "f"),
        (Packet((0.3,), 0.7), Packet((-0.2,), 1.1), "g"),
    ], ids=["one-column row", "one-row column", "2-d row", "2-d column"])
    def test_lone_offending_edge_raises(self, monkeypatch, f, g, moved, by, rows):
        side = f if moved == "f" else g

        def moved_box(prim, other, kernel, axis):
            lo, hi = _box(prim, other, kernel, axis)
            shift = by * 0.5 * (hi - lo) if prim is side else 0.0
            return lo + shift, hi + shift

        columns = 1 if isinstance(g, Delta) else 257
        monkeypatch.setattr("statesphere.oracle._STRIP_BYTES", 8 * rows * columns)
        _quad_pair_level(f, g, K1, 257)  # the unmoved box passes
        monkeypatch.setattr("statesphere.oracle._box", moved_box)
        with pytest.raises(BoxTooSmallError, match="of its peak; enlarge the box"):
            _quad_pair_level(f, g, K1, 257)


def _dense_block(f, g, kernel, n, axis=0):
    """The whole block at once: u @ K @ v, the bound on its distance from the
    strips' value, and K's edge/peak ratio."""
    _, pair = kernel_coefficients(kernel)
    x, u, env_x = _side(f, g, kernel, axis, n, conjugate=False)
    y, v, env_y = _side(g, f, kernel, axis, n, conjugate=True)
    big_k = np.exp(env_x[:, None] - pair * (x[:, None] - y) ** 2 + env_y)
    edges = [big_k[:, [0, -1]].max() if len(y) > 1 else 0.0,
             big_k[[0, -1]].max() if len(x) > 1 else 0.0]
    peak = big_k.max()
    # plus one subnormal spacing per row and entry: below 2.2e-308 neither K nor
    # the row scale carries 53 bits
    floor = np.finfo(float).smallest_subnormal * (n + np.abs(u).sum()) * np.abs(v).sum()
    bound = 1e-13 * (np.abs(u) @ big_k @ np.abs(v)) + floor
    return u @ big_k @ v, bound, max(edges) / peak if peak else 0.0


def _coordinates(reach):
    return st.floats(-reach, reach, allow_nan=False, allow_infinity=False)


# near the origin, or far enough for boxes where exp(env_x) underflows in part
_centers = st.one_of(_coordinates(10.0), _coordinates(120.0))


def _primitive(kind):
    if kind == "delta":
        return st.builds(lambda c: Delta((c,)), _centers)
    if kind == "wave":
        return st.builds(lambda p: PlaneWave((p,)), _coordinates(1.5))
    return st.builds(lambda c, w, p: Packet((c,), w, (p,)),
                     _centers, st.floats(0.1, 1.5), _coordinates(1.5))


# a wide packet far from its partner: exp(env_x) underflows on part of the box, which
# happens only where K's peak is itself within about e^-50 of underflow
FAR_BOXES = [
    (Packet((80.0,), 1.5), Packet((-3.0,), 0.3), ConfinedKernel(0.01, 2.0)),
    (Packet((80.0,), 1.5), Packet((-3.0,), 0.3), TranslationKernel(0.5)),
    (Packet((89.0,), 1.5), Delta((0.0,)), ConfinedKernel(0.02, 0.5)),
]


def _check_against_dense(f, g, kernel, n):
    """Check one block; False, checking nothing, within 1% of the edge threshold."""
    value, bound, ratio = _dense_block(f, g, kernel, n)
    if abs(ratio / BOUNDARY_DECAY - 1.0) <= 0.01:
        return False
    if ratio > BOUNDARY_DECAY:
        with pytest.raises(BoxTooSmallError):
            _quad_block(f, g, kernel, 0, n)
    else:
        assert abs(_quad_block(f, g, kernel, 0, n) - value) <= bound
    return True


class TestBlockAgainstDense:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_strips_match_the_dense_block(self, data):
        # the row scale, the in-place differences and the strip maxima against the
        # whole K at once; a drawn box pad makes both sides of the edge check occur
        kernel = data.draw(st.one_of(
            st.builds(TranslationKernel, st.floats(0.3, 3.0)),
            st.builds(ConfinedKernel, st.floats(0.01, 1.0), st.floats(0.2, 3.0))))
        kinds = data.draw(st.tuples(*[st.sampled_from(sorted(KINDS))] * 2))
        assume(isinstance(kernel, ConfinedKernel) or kinds != ("wave", "wave"))
        f, g = (data.draw(_primitive(kind)) for kind in kinds)
        n = data.draw(st.integers(16, 128)) * 2 + 1
        with mock.patch("statesphere.oracle._PAD", data.draw(st.floats(3.0, 12.0))):
            assume(_check_against_dense(f, g, kernel, n))

    @pytest.mark.parametrize("f, g, kernel", FAR_BOXES)
    def test_far_box_underflows_the_row_scale(self, f, g, kernel):
        _, _, env_x = _side(f, g, kernel, 0, 257, conjugate=False)
        scale = np.exp(env_x)
        assert scale.min() == 0.0 < scale.max()
        assert _check_against_dense(f, g, kernel, 257)


class _CountingExp:
    """numpy, with a count of the entries np.exp is asked for."""

    def __init__(self):
        self.entries = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, a, *args, **kwargs):
        self.entries += np.size(a)
        return np.exp(a, *args, **kwargs)


_FREE_PAIRS = sorted(name for name, ((f, g, _), *_) in _HISTORIES.items()
                     if not isinstance(f, Delta) and not isinstance(g, Delta))


class TestBand:
    # the top default level, where the strips evaluate only their rows' bands of K

    @pytest.mark.parametrize("name", sorted(_HISTORIES))
    def test_top_level_matches_the_dense_block(self, name):
        (f, g, kernel), *_ = _HISTORIES[name]
        for axis in range(f.dimension):
            value, bound, ratio = _dense_block(f, g, kernel, 1025, axis)
            assert ratio < BOUNDARY_DECAY
            assert abs(_quad_block(f, g, kernel, axis, 1025) - value) <= bound

    @pytest.mark.parametrize("f, g, kernel", FAR_BOXES)
    def test_far_box_top_level_matches_the_dense_block(self, f, g, kernel):
        assert _check_against_dense(f, g, kernel, 1025)

    @pytest.mark.parametrize("by", [-0.5, 0.5], ids=["last", "first"])
    @pytest.mark.parametrize("moved", ["f", "g"], ids=["row", "column"])
    def test_edges_are_read_outside_the_bands(self, monkeypatch, moved, by):
        # one strip per row and bands that leave out the edge that the moved box
        # cuts into the integrand: the edge check still reads it
        f, g = Packet((0.3,), 0.7), Packet((-0.2,), 1.1)
        side = f if moved == "f" else g

        def moved_box(prim, other, kernel, axis):
            lo, hi = _box(prim, other, kernel, axis)
            shift = by * 0.5 * (hi - lo) if prim is side else 0.0
            return lo + shift, hi + shift

        def bands(x, env_x, y, *args):
            lo, hi, peak = _bands(x, env_x, y, *args)
            lo[:], hi[:] = 1, len(y) - 1
            if moved == "f":
                lo[:], hi[:] = 0, len(y)
                lo[[0, -1]], hi[[0, -1]] = len(y), 0
            return lo, hi, peak

        monkeypatch.setattr("statesphere.oracle._STRIP_BYTES", 8 * 257)
        monkeypatch.setattr("statesphere.oracle._bands", bands)
        _quad_pair_level(f, g, K1, 257)  # the unmoved box passes
        monkeypatch.setattr("statesphere.oracle._box", moved_box)
        with pytest.raises(BoxTooSmallError, match="of its peak; enlarge the box"):
            _quad_pair_level(f, g, K1, 257)

    @pytest.mark.parametrize("name", _FREE_PAIRS)
    def test_exponentiates_a_band(self, monkeypatch, name):
        # the whole block would be d n^2 entries, plus O(n) for the sides and edges
        (f, g, kernel), *_ = _HISTORIES[name]
        counting = _CountingExp()
        monkeypatch.setattr("statesphere.oracle.np", counting)
        _quad_pair_level(f, g, kernel, 1025)
        assert counting.entries <= 0.6 * f.dimension * 1025**2


# every axis of every recorded pair, and the boxes where the row scale underflows
_ROW_CASES = [(f, g, kernel, axis) for (f, g, kernel), *_ in _HISTORIES.values()
              for axis in range(f.dimension)] + [(f, g, kernel, 0) for f, g, kernel in FAR_BOXES]


def _boxes(reach):
    # node arrays as boxes place them: centres up to 120 from the origin, half-widths
    # from 1e-3 to 50, with signed zeros mixed in
    return st.tuples(_coordinates(reach), st.floats(1e-3, 50.0)).flatmap(
        lambda box: st.lists(st.one_of(st.floats(box[0] - box[1], box[0] + box[1]),
                                       st.sampled_from([0.0, -0.0])), min_size=2, max_size=40))


class TestStripKernel:
    @pytest.mark.parametrize("n", [257, 513, 1025])
    def test_two_nodes_give_the_dense_row_maxima(self, n):
        # the edge check reads each row's maximum from the two nodes either side of the
        # row's maximum in y, and K on the edge columns: the bits of the whole K's row
        # maxima and edge columns, so it reads the same edge and peak
        for f, g, kernel, axis in _ROW_CASES:
            _, pair = kernel_coefficients(kernel)
            x, _, env_x = _side(f, g, kernel, axis, n, conjugate=False)
            y, _, env_y = _side(g, f, kernel, axis, n, conjugate=True)
            big_k = np.exp(env_x[:, None] - pair * (x[:, None] - y) ** 2 + env_y)  # as dense
            free = len(x) > 1 and len(y) > 1
            k = _rows(x, env_x, y, env_y, pair,
                      _bands(x, env_x, y, g, kernel, axis)[2] if free else None)
            np.testing.assert_array_equal(k.max(axis=1), big_k.max(axis=1))
            np.testing.assert_array_equal(k[:, [0, -1]], big_k[:, [0, -1]])

    @settings(max_examples=300, deadline=None)
    @given(_boxes(120.0), _boxes(120.0), st.data())
    def test_rank_two_product_is_the_difference(self, x, y, data):
        # a strip's product [1, -x][lo:hi] @ [y; 1][:, c0:c1], as the block forms it, has the
        # bits of y - x; + 0.0 maps -0 to +0 and nothing else, as the strip squares next,
        # since a BLAS sum from +0 gives -0 - +0 as +0
        x, y = np.array(x), np.array(y)
        lo, hi = sorted(data.draw(st.lists(st.integers(0, len(x)), min_size=2, max_size=2,
                                           unique=True)))
        c0, c1 = sorted(data.draw(st.lists(st.integers(0, len(y)), min_size=2, max_size=2,
                                           unique=True)))
        left, right = _factors(x, y)
        got = np.empty((hi - lo, c1 - c0))
        np.matmul(left[lo:hi], right[:, c0:c1], out=got)
        want = y[None, c0:c1] - x[lo:hi, None]
        np.testing.assert_array_equal((got + 0.0).view(np.int64), (want + 0.0).view(np.int64))
        np.testing.assert_array_equal(np.square(got).view(np.int64),
                                      np.square(want).view(np.int64))


# median and maximum of |quad - closed| / |quad| over run_oracle_verify's draws at
# seeds 0-99, recorded from the quadrature that added the x envelope in each strip
_REFEREE_ERRORS = (6.690416055749331e-14, 6.8114998154748594e-12)


class TestRefereeAccuracy:
    def test_errors_stay_within_twice_the_recorded(self):
        errors = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for kernel in (K1, KC):  # drawn as run_oracle_verify draws them
                f, g = _random_convergent_pair(rng, kernel)
                quad, _ = quad_pair_overlap(f, g, kernel)
                errors.append(abs(quad - primitive_overlap(f, g, kernel)) / abs(quad))
        median, worst = _REFEREE_ERRORS
        assert np.median(errors) <= 2.0 * median
        assert max(errors) <= 2.0 * worst


class TestGaussLegendreCache:
    def test_mapped_nodes_match_fresh_rule_bit_for_bit(self):
        lo, hi = -1.5, 2.75
        half = 0.5 * (hi - lo)
        for n in (33, 257, 513):
            x, w = np.polynomial.legendre.leggauss(n)
            for _ in range(2):  # cold, then warm
                got_x, got_w = _nodes(lo, hi, n)
                assert got_x.tobytes() == (lo + half * (x + 1.0)).tobytes()
                assert got_w.tobytes() == (half * w).tobytes()

    def test_cached_rule_is_read_only(self):
        x, w = _gauss_legendre(33)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert _gauss_legendre(33)[0] is x

    def test_cold_and_warm_cache_agree_with_fresh_rules(self, monkeypatch):
        f = Packet((0.5, -0.2), 0.6, (1.2, 0.3))
        g = Packet((-0.8, 0.4), 1.1, (-0.5, 0.0))
        _gauss_legendre.cache_clear()
        cold = quad_pair_overlap(f, g, KC)
        warm = quad_pair_overlap(f, g, KC)
        with monkeypatch.context() as m:
            m.setattr("statesphere.oracle._gauss_legendre",
                      np.polynomial.legendre.leggauss)
            fresh = quad_pair_overlap(f, g, KC)
        assert cold == warm == fresh

    def test_import_builds_no_rule(self):
        cp = run_python("-c", "import statesphere.oracle as o; "
                              "print(o._gauss_legendre.cache_info().currsize)")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "0"


@functools.cache
def _reference_rule(n: int, bits: int = 160):
    """Gauss-Legendre nodes t >= 0 and weights of order n to 40 digits, as mpmath
    numbers: Newton from numpy's nodes, P_{n-1} and P_n from the three-term
    recurrence in 2**-bits fixed point over Python integers, the rest in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        scale = mpmath.mpf(2) ** bits
        nodes = [mpmath.mpf(t) for t in np.polynomial.legendre.leggauss(n)[0][n // 2:]]
        for step in range(3):  # nodes to about 1e-16, then 1e-30, then past 40 digits
            x = np.array([int(t * scale) for t in nodes], dtype=object)
            lower, upper = np.full(len(x), 1 << bits, dtype=object), x.copy()
            for k in range(1, n):
                lower, upper = upper, ((2 * k + 1) * ((x * upper) >> bits) - k * lower) // (k + 1)
            below = [mpmath.mpf(q) / scale for q in lower]  # P_{n-1}
            if step < 2:  # P_n / P_n' with P_n' = n (t P_n - P_{n-1}) / (t^2 - 1)
                nodes = [t - p / scale * (t * t - 1) / (n * (t * p / scale - q))
                         for t, p, q in zip(nodes, upper, below)]
        return nodes, [2 * (1 - t * t) / (n * q) ** 2 for t, q in zip(nodes, below)]


class TestGaussLegendreRule:
    def test_reference_rule_is_exact(self):
        # the reference itself: a weight sum of 2 and exact even moments to 30 digits
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = _reference_rule(1025)
        with mpmath.workdps(40):
            for k in (0, 1, 10, 500, 1024):
                moment = 2 * mpmath.fsum(w * t ** (2 * k) for t, w in zip(nodes, weights))
                moment -= weights[0] * nodes[0] ** (2 * k)  # t = 0 is counted once
                assert abs(moment - mpmath.mpf(2) / (2 * k + 1)) <= mpmath.mpf(10) ** -30, k

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: numpy's leggauss weights are 1.0e-8 off at the "
                       "end node; a better rule moves bench/golden bits")
    def test_weights_match_a_40_digit_rule(self):
        pytest.importorskip("mpmath")
        w = _gauss_legendre(1025)[1]
        half = np.array([float(v) for v in _reference_rule(1025)[1]])
        want = np.concatenate([half[:0:-1], half])  # the rule is even
        assert np.abs(w / want - 1.0).max() <= 1e-10


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

    def test_pair_state_estimate_adds_per_term(self):
        phi = StateExpr(((0.8 - 0.3j, Packet((0.0,), 0.7), Delta((1.0,))),
                         (0.4j, Delta((0.5,)), Packet((1.5,), 0.9, (0.4,)))))
        psi = StateExpr(((1.1, Packet((0.2,), 0.9), Packet((1.2,), 0.6)),
                         (-0.6 + 0.2j, Delta((-0.3,)), Packet((0.8,), 1.2))))
        spec = QuadratureSpec(nodes_per_axis=65)
        want = 0.0
        for ci, *fs in phi.terms:
            for dj, *gs in psi.terms:
                parts = [quad_pair_overlap(f, g, K1, spec) for f, g in zip(fs, gs)]
                want += abs(ci * dj) * sum(
                    e * math.prod(abs(v) for j, (v, _) in enumerate(parts) if j != k)
                    for k, (_, e) in enumerate(parts))
        _, estimate = quad_inner_product(phi, psi, K1, spec)
        assert want > 0.0
        assert estimate == pytest.approx(want, rel=1e-12)

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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_induced_metric_is_the_scalar_stencil(self, data):
        # induced_metric takes every corner of its stencil in one kernel call; it must
        # equal the Richardson step over finite_difference of one-pair kernel values
        kernel = data.draw(st.one_of(
            st.builds(TranslationKernel, st.floats(0.3, 3.0)),
            st.builds(ConfinedKernel, st.floats(0.01, 1.0), st.floats(0.2, 3.0))))
        d = data.draw(st.integers(1, 3))
        at = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=d, max_size=d))
        scale = _metric_reference(kernel)[1] ** -0.5
        h = min(max(scale * 10.0 ** data.draw(st.floats(-5.0, -1.0)), 1e-5 * scale), 0.1 * scale)
        point = np.array(at, dtype=float)

        def stencil(step):
            return np.array([[finite_difference(lambda x, y: kernel_value(kernel, x, y),
                                                (point, point), (i, k), step)
                              for k in range(d)] for i in range(d)])

        want = (4.0 * stencil(h / 2.0) - stencil(h)) / 3.0
        assert np.array_equal(induced_metric(kernel, at, h).matrix, 0.5 * (want + want.T))
