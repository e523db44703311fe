"""Embeddings of classical position/momentum space into the state space,
and projections of arbitrary states back onto those manifolds.

Positions embed as delta states, momenta as plane waves; pairs embed as
product states.  Plane-wave manifolds exist only under confined kernels:
under translation-invariant kernels their norms diverge and the operations
raise instead of regularizing silently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (Delta, PlaneWave, StateExpr, as_vec, hilbert_norm,
                      inner_product)
from .errors import DomainError
from .geometry import SphereState, normalize
from .kernels import KernelSpec, kernel_value

_TIE_TOL = 1e-9


class ManifoldId(Enum):
    """Classical manifolds inside the state space."""

    POSITION = "position"
    MOMENTUM = "momentum"
    POSITION_PAIR = "position-pair"
    MOMENTUM_PAIR = "momentum-pair"

    @property
    def is_pair(self) -> bool:
        return self in (ManifoldId.POSITION_PAIR, ManifoldId.MOMENTUM_PAIR)


def embed_position(u) -> StateExpr:
    """Map a classical point to its delta state, with zero phase."""
    return StateExpr.single(Delta(as_vec(u)))


def embed_momentum(p) -> StateExpr:
    """Map a classical momentum to its plane-wave state."""
    return StateExpr.single(PlaneWave(as_vec(p)))


def embed_pair_position(u, v) -> StateExpr:
    """Map a pair of classical points to the product of their delta states."""
    return StateExpr.single(Delta(as_vec(u)), Delta(as_vec(v)))


def embed_pair_momentum(p, q) -> StateExpr:
    """Map a pair of momenta to the product of their plane-wave states."""
    return StateExpr.single(PlaneWave(as_vec(p)), PlaneWave(as_vec(q)))


def gram_matrix(points, kernel: KernelSpec) -> np.ndarray:
    """Gram matrix of embedded delta states at the given points."""
    pts = [as_vec(p) for p in points]
    if len(set(pts)) != len(pts):
        raise DomainError("points must be pairwise distinct")
    n = len(pts)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = kernel_value(kernel, pts[i], pts[j])
    return g


def gram_min_eigenvalue(points, kernel: KernelSpec) -> float:
    """Smallest eigenvalue of the delta Gram matrix; positive iff the embedded
    states are linearly independent."""
    return float(np.linalg.eigvalsh(gram_matrix(points, kernel)).min())


@dataclass(frozen=True)
class ProjectionResult:
    """Best classical-manifold match for a state.

    `overlap` is the (clamped) real overlap with the normalized manifold
    state and equals cos(residual_angle); `tie` reports that a second coarse
    grid cell came within 1e-9 of the maximum.
    """

    point: tuple
    overlap: float
    residual_angle: float
    iterations: int
    tie: bool = False


def _manifold_expr(manifold: ManifoldId, params: np.ndarray, d: int):
    if manifold is ManifoldId.POSITION:
        return embed_position(tuple(params))
    if manifold is ManifoldId.MOMENTUM:
        return embed_momentum(tuple(params))
    if manifold is ManifoldId.POSITION_PAIR:
        return embed_pair_position(tuple(params[:d]), tuple(params[d:]))
    return embed_pair_momentum(tuple(params[:d]), tuple(params[d:]))


def _normalize_box(box, axes: int):
    pairs = list(box) if not (len(box) == 2 and np.isscalar(box[0])) else [box] * axes
    if len(pairs) == 1 and axes > 1:
        pairs = pairs * axes
    if len(pairs) != axes:
        raise DomainError(f"box must give {axes} (lo, hi) intervals")
    out = []
    for lo, hi in pairs:
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise DomainError(f"empty box interval ({lo}, {hi})")
        out.append((lo, hi))
    return out


def _golden_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization; returns (argmax, evaluations)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        evals += 1
    return 0.5 * (a + b), evals


def nearest_classical_point(state: SphereState, manifold: ManifoldId, box,
                            coarse: int = 33, tol: float = 1e-8) -> ProjectionResult:
    """Best-overlap point of a classical manifold for the given state.

    Scans a coarse grid over `box` (one (lo, hi) interval per manifold
    parameter axis), then refines the winning cell by coordinate-wise
    golden-section search down to `tol`.  Ties on the coarse grid go to the
    lexicographically smallest parameter and set the `tie` flag.
    """
    if manifold.is_pair != state.is_pair:
        raise DomainError(f"{manifold.value} manifold does not match the state arity")
    if coarse < 2:
        raise DomainError("coarse grid needs at least 2 cells per axis")
    d = state.expr.dimension
    axes = 2 * d if manifold.is_pair else d
    intervals = _normalize_box(box, axes)

    def objective(params: np.ndarray) -> float:
        target = _manifold_expr(manifold, params, d)
        return (inner_product(state.expr, target, state.kernel)
                / hilbert_norm(target, state.kernel)).real

    grids = [np.linspace(lo, hi, coarse) for lo, hi in intervals]
    best_value = -math.inf
    best_index = None
    tie = False
    evals = 0
    for index in itertools.product(range(coarse), repeat=axes):
        params = np.array([grids[k][i] for k, i in enumerate(index)])
        value = objective(params)
        evals += 1
        if value > best_value + _TIE_TOL:
            best_value, best_index, tie = value, index, False
        elif value > best_value - _TIE_TOL:
            tie = True
            if value > best_value:
                best_value = value  # keep the earlier (lexicographically smaller) cell

    point = np.array([grids[k][i] for k, i in enumerate(best_index)])
    cells = [(hi - lo) / (coarse - 1) for lo, hi in intervals]
    for _ in range(100):
        moved = 0.0
        for k in range(axes):
            lo = max(intervals[k][0], point[k] - cells[k])
            hi = min(intervals[k][1], point[k] + cells[k])

            def slice_obj(value, k=k):
                trial = point.copy()
                trial[k] = value
                return objective(trial)

            new_k, used = _golden_max(slice_obj, lo, hi, tol)
            evals += used
            moved = max(moved, abs(new_k - point[k]))
            point[k] = new_k
        cells = [max(c * 0.5, tol) for c in cells]
        if moved < tol:
            break

    final = objective(point)
    evals += 1
    final = min(1.0, max(0.0, final))
    coords = tuple(float(v) for v in point)
    result_point = (coords[:d], coords[d:]) if manifold.is_pair else coords
    return ProjectionResult(point=result_point, overlap=final,
                            residual_angle=math.acos(final), iterations=evals, tie=tie)


def manifold_member(manifold: ManifoldId, params, kernel: KernelSpec) -> SphereState:
    """Normalized state of a manifold at the given parameter value."""
    params = np.atleast_1d(np.asarray(params, dtype=float))
    d = len(params) // 2 if manifold.is_pair else len(params)
    return normalize(_manifold_expr(manifold, params, d), kernel)


def manifold_separation(params, manifold_a: ManifoldId, manifold_b: ManifoldId,
                        kernel: KernelSpec, box=(-3.0, 3.0), resolution: int = 21) -> float:
    """Smallest angle between a state of manifold A and a sampled grid of B.

    A strictly positive return is a sampled certificate that the manifolds do
    not meet near the scanned region; a member of its own manifold returns 0
    at the matching grid point.
    """
    state_a = manifold_member(manifold_a, params, kernel)
    d = state_a.expr.dimension
    axes = 2 * d if manifold_b.is_pair else d
    if manifold_b.is_pair != state_a.is_pair:
        raise DomainError("manifolds of different arity cannot be compared")
    intervals = _normalize_box(box, axes)
    grids = [np.linspace(lo, hi, resolution) for lo, hi in intervals]
    best = math.pi
    for index in itertools.product(range(resolution), repeat=axes):
        p = np.array([grids[k][i] for k, i in enumerate(index)])
        target = _manifold_expr(manifold_b, p, d)
        value = abs(inner_product(state_a.expr, target, kernel)) / hilbert_norm(target, kernel)
        best = min(best, math.acos(min(1.0, value)))
    return best
