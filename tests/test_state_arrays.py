"""States as arrays: coefficients, and per particle slot a `Basis` of distinct
primitives with each term's row in it.

The array form must reproduce the term-by-term algebra: the EPR pair state
keeps its bits, `inner_product` agrees with the per-pair reference loop, the
two constructors build equal states with the same messages on bad input, and
an `epr` op builds no per-term primitive objects.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statesphere import (Basis, Delta, DomainError, EPRConfig, Packet, PlaneWave, StateExpr,
                         StateSphereError, TranslationKernel, blend, build_epr_state,
                         inner_product, l2_inner_product, norm_ratio, primitive_overlap)
from statesphere.algebra import KINDS
from statesphere.cli import main

from helpers import kernels, primitives

# build_epr_state before states became arrays: float.hex of raw_norm, and the
# SHA-256 of "re,im" float.hex pairs of the 64 coefficients joined by spaces
EPR_BITS = {
    "default-position": (EPRConfig(), "position", "0x1.fa0ba5365c5ffp+1",
                         "b305a684ce464777a69c3f85bce90cb1d90711da884f8c8f25cf581c3b0e9f0f"),
    "default-momentum": (EPRConfig(), "momentum", "0x1.b5b84bb96cde9p+0",
                         "e0164f06d3580330ad15fd66fce40c03e73e5e3180778c4aac4c62efee231737"),
    "shifted-position": (EPRConfig(x0=-1.7, envelope_width=3.2), "position",
                         "0x1.93679d71ce418p+1",
                         "0c389f09640a75bb9fd47324bb9398f10e0b28aa02a50f02e0f67b8c3a0a07bf"),
}


@pytest.mark.parametrize("name", sorted(EPR_BITS))
def test_epr_state_keeps_its_bits(name):
    cfg, which, raw_norm, digest = EPR_BITS[name]
    state = build_epr_state(cfg, getattr(cfg, f"{which}_kernel"))
    hexes = " ".join(f"{c.real.hex()},{c.imag.hex()}" for c in state.expr.coeffs.tolist())
    assert state.raw_norm.hex() == raw_norm
    assert len(state.expr.coeffs) == cfg.discretization_n
    assert hashlib.sha256(hexes.encode()).hexdigest() == digest


def basis_of(prims) -> Basis:
    """The checked array constructor on the fields of `prims`."""
    zero = (0.0,) * prims[0].dimension
    return Basis([KINDS.index(type(p)) for p in prims],
                 [getattr(p, "center", zero) for p in prims],
                 [getattr(p, "width", 0.0) for p in prims],
                 [getattr(p, "momentum", zero) for p in prims])


@st.composite
def pooled_states(draw, arity, d, pool):
    """A state of 1-8 terms whose primitives all come from `pool`, so they
    repeat across terms and slots; some coefficients are zero."""
    n = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.one_of(st.just(0j), st.complex_numbers(
        min_magnitude=0.1, max_magnitude=2.0, allow_nan=False, allow_infinity=False)),
        min_size=n, max_size=n))
    assume(any(coeffs))
    rows = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=arity,
                                  max_size=arity), min_size=n, max_size=n))
    return coeffs, rows


@st.composite
def state_pairs(draw):
    arity, d = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    pool = draw(st.lists(primitives(d), min_size=1, max_size=4))
    return pool, draw(pooled_states(arity, d, pool)), draw(pooled_states(arity, d, pool))


def from_terms(pool, state) -> StateExpr:
    coeffs, rows = state
    return StateExpr(tuple((c, *(pool[i] for i in row)) for c, row in zip(coeffs, rows)))


def from_arrays(pool, state) -> StateExpr:
    coeffs, rows = state
    basis = basis_of(pool)
    return StateExpr.from_arrays(coeffs, [basis] * len(rows[0]), np.array(rows).T)


@settings(max_examples=150, deadline=None)
@given(state_pairs(), kernels)
def test_arrays_match_the_term_by_term_algebra(case, kernel):
    pool, a, b = case
    phi, psi = from_terms(pool, a), from_terms(pool, b)
    assert StateExpr(phi.terms) == phi and hash(StateExpr(phi.terms)) == hash(phi)
    assert from_arrays(pool, a) == phi and hash(from_arrays(pool, a)) == hash(phi)
    try:
        pairs = [ci * dj.conjugate() * np.prod([primitive_overlap(f, g, kernel)
                                                for f, g in zip(fs, gs)])
                 for ci, *fs in phi.terms for dj, *gs in psi.terms]
    except StateSphereError as exc:
        with pytest.raises(type(exc)):
            inner_product(phi, psi, kernel)
        return
    want = complex(sum(pairs))
    got = inner_product(phi, psi, kernel)
    assert abs(got - want) <= 1e-13 * sum(map(abs, pairs))
    assert inner_product(from_arrays(pool, a), from_arrays(pool, b), kernel) == got


def test_terms_are_a_read_only_view():
    expr = StateExpr(((1.0, Delta((0.0,))), (0.5j, Packet((1.0,), 0.8)), (2.0, Delta((0.0,)))))
    assert expr.terms == ((1.0 + 0j, Delta((0.0,))), (0.5j, Packet((1.0,), 0.8)),
                          (2.0 + 0j, Delta((0.0,))))
    assert len(expr.bases[0]) == 2 and expr.indices[0].tolist() == [0, 1, 0]
    with pytest.raises(AttributeError):
        expr.terms = ()


def message(build) -> str:
    with pytest.raises(DomainError) as info:
        build()
    return str(info.value)


D0, D1 = Delta((0.0,)), Delta((1.0,))
B1 = Basis(Delta, [[0.0], [1.0]])


@pytest.mark.parametrize("by_terms, by_arrays", [
    (lambda: Delta((float("nan"),)), lambda: Basis(Delta, [[float("nan")]])),
    (lambda: Packet((0.0,), 1.0, (float("inf"),)),
     lambda: Basis(Packet, [[0.0]], 1.0, [[float("inf")]])),
    (lambda: Packet((0.0,), -1.0), lambda: Basis(Packet, [[0.0]], -1.0)),
    (lambda: Delta((10**400,)), lambda: Basis(Delta, [[10**400]])),
    (lambda: Packet((0.0,), 10**400), lambda: Basis(Packet, [[0.0]], 10**400)),
    (lambda: Packet((0.0,), 1e160), lambda: Basis([0, 2], [[0.0], [0.0]], [0.0, 1e160])),
    (lambda: StateExpr(((complex("nan"), D0),)),
     lambda: StateExpr.from_arrays([complex("nan")], [B1], [[0]])),
    (lambda: StateExpr(((1.0, D0, D1), (1.0, D0))),
     lambda: StateExpr.from_arrays([1.0, 1.0], [B1, B1], [[0, 1], [0]])),
    (lambda: StateExpr(((1.0, D0, D1), (1.0, D0))),
     lambda: StateExpr.from_arrays([1.0], [B1], [[0], [1]])),
    (lambda: StateExpr(((1.0, D0, Delta((0.0, 1.0))),)),
     lambda: StateExpr.from_arrays([1.0], [B1, Basis(Delta, [[0.0, 1.0]])], [[0], [0]])),
    (lambda: StateExpr(((0.0, D0), (0j, D1))),
     lambda: StateExpr.from_arrays([0.0, 0j], [B1], [[0, 1]])),
    (lambda: StateExpr(()), lambda: StateExpr.from_arrays([], [B1], [[]])),
    (lambda: StateExpr(((1.0,),)), lambda: StateExpr.from_arrays([1.0], [], [])),
], ids=["center", "momentum", "width", "huge-center", "huge-width", "formed-width",
        "coefficient", "lengths", "arity", "dimension",
        "all-zero", "empty", "no-slot"])
def test_array_constructor_checks_like_the_terms_path(by_terms, by_arrays):
    assert message(by_arrays) == message(by_terms)


def test_array_constructor_drops_zero_terms_and_ignores_unused_rows():
    basis = Basis([0, 1, 2], [[0.0], [5.0], [1.0]], [0.0, 0.0, 0.8], [[0.0], [0.5], [0.3]])
    state = StateExpr.from_arrays([0.0, 2.0, 1j], [basis], [[1, 0, 2]])
    assert state.terms == ((2.0 + 0j, Delta((0.0,))), (1j, Packet((1.0,), 0.8, (0.3,))))
    # the plane wave's row stays in the basis but not in the overlaps, where it would diverge
    assert state.bases == (basis,)
    kernel = TranslationKernel(1.0)
    assert inner_product(state, state, kernel) == inner_product(StateExpr(state.terms),
                                                                StateExpr(state.terms), kernel)
    for bad in ([[3]], [[-1]], [[0.5]]):
        with pytest.raises(DomainError, match="rows"):
            StateExpr.from_arrays([1.0], [basis], bad)
    for kind in ([3], [2.7], [True], int, "Delta"):
        with pytest.raises(DomainError, match="not a primitive"):
            Basis(kind, [[0.0]], 1.0)


def test_l2_reads_only_the_rows_terms_use():
    """A delta kept in a basis only by a zero term, a zero weight or an unused
    row is not square-integrable, but no term uses it."""
    packet = StateExpr.single(Packet((0.0,), 1.0))
    with_deltas = StateExpr(((1.0, Delta((0.0,))), (1.0, Packet((1.0,), 0.5))))
    both = Basis([0, 2], [[0.0], [0.0]], [0.0, 1.0])
    for state in (StateExpr(((0.0, Delta((0.0,))), (1.0, Packet((0.0,), 1.0)))),
                  blend(0.0, with_deltas, 1.0, packet),
                  StateExpr.from_arrays([1.0], [both], [[1]])):
        assert l2_inner_product(state, state) == l2_inner_product(packet, packet)
        assert norm_ratio(state, TranslationKernel(1.0)) == norm_ratio(packet,
                                                                       TranslationKernel(1.0))
    with pytest.raises(DomainError, match="packets only"):
        l2_inner_product(with_deltas, packet)


def test_arrays_are_read_only_copies():
    coeffs, rows, centers = np.array([1.0, 2.0]), np.array([0, 1]), np.array([[0.0], [1.0]])
    basis = Basis(Delta, centers)
    state = StateExpr.from_arrays(coeffs, [basis], [rows])
    before = (state.terms, hash(state))
    coeffs[0], rows[0], centers[0, 0] = 5.0, 1, 7.0
    assert (state.terms, hash(state)) == before == (StateExpr(state.terms).terms, hash(state))
    for array in (state.coeffs, *state.indices, *(getattr(basis, name) for name in
                                                   ("kind", "center", "width", "s", "momentum"))):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_basis_memo_is_bounded():
    """Blends with many partners, and cuts to many row sets, keep no more on a
    long-lived basis than its one `split`, which serves both sides."""
    a = StateExpr.single(Packet((0.0,), 1.0))
    for k in range(200):
        inner_product(blend(1.0, a, 1.0, StateExpr.single(Packet((k + 1.0,), 1.0))), a,
                      TranslationKernel(1.0))
    basis = Basis(Delta, [[float(k)] for k in range(8)])
    for k in range(200):
        state = StateExpr.from_arrays([1.0, 1.0], [basis], [[k % 8, (k // 8) % 8]])
        inner_product(state, state, TranslationKernel(1.0))
    for held in (a.bases[0]._split, basis._split):
        assert held is None or (isinstance(held, tuple) and len(held) == 3)


def test_blend_and_scaled_keep_the_bases():
    a = StateExpr(((1.0, D0), (2.0, D1)))
    b = StateExpr.single(Packet((0.5,), 1.0))
    assert a.scaled(3.0).bases == a.bases
    mixed = blend(1.0, a, 0.5, b)
    assert mixed.terms == (*a.terms, (0.5 + 0j, Packet((0.5,), 1.0)))
    assert blend(1.0, a, 2.0, a).bases == a.bases
    assert blend(0.0, a, 1.0, b) == b
    pair = StateExpr.single(D0, D1)
    with pytest.raises(DomainError):
        blend(1.0, a, 1.0, pair)


def test_epr_op_builds_only_the_collapse_target(monkeypatch):
    """An `epr` op builds its 64-term pair state as arrays: the only primitive
    objects it constructs are the two of its collapse target."""
    built = []
    for cls in (Delta, Packet, PlaneWave):
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, check=check: (built.append(type(self)), check(self)))
    common = ["epr", "--n", "64", "--x0=0.7", "--envelope-width=4.2"]
    position = [*common, "--profile", "position", "--a-values=-0.5,0.1,0.8",
                "--measure-position=1.3"]
    momentum = [*common, "--profile", "momentum", "--a-values=-1,0,0.5", "--grid=-2,2,9",
                "--measure-momentum=0.6"]
    for argv, target in ((position, Delta), (momentum, PlaneWave)):
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert built == [target, target]
