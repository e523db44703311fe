"""Embeddings of classical position/momentum space into the state space,
and projections of arbitrary states back onto those manifolds.

Positions embed as delta states, momenta as plane waves; pairs embed as
product states.  Plane-wave manifolds exist only under confined kernels:
under translation-invariant kernels their norms diverge and the operations
raise instead of regularizing silently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (Delta, PlaneWave, StateExpr, _check_form_matrix, _free_pair_margin,
                      _profile, as_vec, overlap_matrix)
from .errors import DomainError
from .geometry import SphereState, normalize
from .kernels import KernelSpec, _finite, _positive, kernel_coefficients

_TIE_TOL = 1e-9  # relative to the compared overlaps
_CHUNK = 4096  # manifold points per batched evaluation


class ManifoldId(Enum):
    """Classical manifolds inside the state space."""

    POSITION = "position"
    MOMENTUM = "momentum"
    POSITION_PAIR = "position-pair"
    MOMENTUM_PAIR = "momentum-pair"

    @property
    def is_pair(self) -> bool:
        return self in (ManifoldId.POSITION_PAIR, ManifoldId.MOMENTUM_PAIR)

    @property
    def primitive(self) -> type:
        return PlaneWave if self in (ManifoldId.MOMENTUM, ManifoldId.MOMENTUM_PAIR) else Delta


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
    deltas = [Delta(p) for p in points]
    if len(set(deltas)) != len(deltas):
        raise DomainError("points must be pairwise distinct")
    return overlap_matrix(deltas, deltas, kernel).real


def gram_min_eigenvalue(points, kernel: KernelSpec) -> float:
    """Smallest eigenvalue of the delta Gram matrix; positive iff the embedded
    states are linearly independent."""
    return float(np.linalg.eigvalsh(gram_matrix(points, kernel)).min())


@dataclass(frozen=True)
class ProjectionResult:
    """Best classical-manifold match for a state.

    `overlap` is the (clamped) real overlap with the normalized manifold
    state and equals cos(residual_angle); `tie` reports that a second coarse
    grid cell came within 1e-9 (relative) of the maximum.
    """

    point: tuple
    overlap: float
    residual_angle: float
    iterations: int
    tie: bool = False


def _normalize_box(box, axes: int):
    pairs = list(box) if not (len(box) == 2 and np.isscalar(box[0])) else [box] * axes
    if len(pairs) == 1 and axes > 1:
        pairs = pairs * axes
    if len(pairs) != axes:
        raise DomainError(f"box must give {axes} (lo, hi) intervals")
    out = []
    for lo, hi in pairs:
        lo, hi = _finite(lo, "box"), _finite(hi, "box")
        if not lo < hi:
            raise DomainError(f"empty box interval ({lo}, {hi})")
        out.append((lo, hi))
    return out


def _slot_exponents(prims, target: type, kernel: KernelSpec, margins: dict):
    """Per primitive of one particle slot, (alpha, beta, gamma) with
    log(<prim, m(t)> / ||m(t)||) = alpha + beta.t + gamma |t|^2 for a delta or
    plane-wave target m(t): the closed forms of `compile_pair` and
    `gaussian_integral`, the deltas and the free primitives each in one
    broadcast, since the per-axis matrix M depends on the kind and s alone.
    `margins` maps each free (kind, s) to its checked det(M) / 4 against a
    plane wave, the target norm's to ("PlaneWave", 0.0)."""
    conf, pair = kernel_coefficients(kernel)
    n, d = len(prims), prims[0].dimension
    deltas = [i for i, p in enumerate(prims) if isinstance(p, Delta)]
    free = [i for i, p in enumerate(prims) if not isinstance(p, Delta)]
    alpha, beta, gamma = np.empty(n, dtype=complex), np.empty((n, d), dtype=complex), np.empty(n)
    if target is PlaneWave:  # log ||w_t|| = norm_alpha + norm_gamma |t|^2
        norm_alpha = 0.25 * d * math.log(math.pi**2 / margins["PlaneWave", 0.0])
        norm_gamma = -1.0 / (4.0 * (conf + 2.0 * pair))
    if deltas:
        u = np.array([prims[i].center for i in deltas])
        uu = (u * u).sum(axis=1)
        if target is Delta:
            alpha[deltas], beta[deltas], gamma[deltas] = -(conf + pair) * uu, 2.0 * pair * u, -pair
        else:
            alpha[deltas] = (0.5 * d * math.log(math.pi / (conf + pair))
                             - conf * (conf + 2.0 * pair) / (conf + pair) * uu - norm_alpha)
            beta[deltas] = -1j * pair / (conf + pair) * u
            gamma[deltas] = -1.0 / (4.0 * (conf + pair)) - norm_gamma
    if free:
        s, lin, const = map(np.array, zip(*(_profile(prims[i], conjugate=False) for i in free)))
        lin_sq = (lin * lin).sum(axis=1)
        if target is Delta:
            m = 2.0 * (conf + pair + s)
            alpha[free] = 0.5 * d * np.log(2.0 * math.pi / m) + lin_sq / (2.0 * m) + const
            beta[free] = (2.0 * pair / m)[:, None] * lin
            gamma[free] = -pair * (conf + s) / (conf + pair + s)
        else:
            margin = np.array([margins[type(prims[i]).__name__, s_i] for i, s_i in zip(free, s)])
            alpha[free] = (0.5 * d * np.log(math.pi**2 / margin)
                           + (conf + pair) * lin_sq / (4.0 * margin) + const - norm_alpha)
            beta[free] = (-0.5j * pair / margin)[:, None] * lin
            gamma[free] = -(conf + pair + s) / (4.0 * margin) - norm_gamma
    return alpha, beta, gamma


class ManifoldOverlap:
    """<expr, m(theta)> / ||m(theta)|| in closed form for batches of manifold
    parameters: one row of theta per point, u or p for one particle, (u, v)
    or (p, q) for a pair, whose targets are products of one-particle factors.

    Each particle slot compiles once (`_slot_exponents`) to a quadratic
    exponent in theta per term, the target norm folded in, so a batch is one
    complex exp over (points, terms), taken _CHUNK points at a time.
    Compiling raises the errors of the term-by-term `inner_product` and
    `hilbert_norm` in the same order.  Only a 2x2 M against a plane wave can
    fail (a 1x1 M = 2 (conf + pair + s) has condition number 1); each is
    checked once per distinct free (kind, s), the target norm's last.
    """

    def __init__(self, expr: StateExpr, kernel: KernelSpec, manifold: ManifoldId):
        if manifold.is_pair != (expr.arity == 2):
            raise DomainError(f"{manifold.value} manifold does not match the state arity")
        coeffs, *slots = zip(*expr.terms)
        margins = {}
        if manifold.primitive is PlaneWave:
            conf, pair = kernel_coefficients(kernel)
            keys = [(type(p).__name__, _profile(p, conjugate=False)[0])
                    for slot in slots for p in slot if not isinstance(p, Delta)]
            for kind, s in dict.fromkeys(keys + [("PlaneWave", 0.0)]):
                margins[kind, s] = _free_pair_margin(kind, s, "PlaneWave", 0.0, kernel)
                _check_form_matrix(2.0 * np.array([[conf + pair + s, -pair],
                                                   [-pair, conf + pair]]))
        alphas, betas, gammas = zip(*(_slot_exponents(slot, manifold.primitive, kernel, margins)
                                      for slot in slots))
        self.axes = expr.arity * expr.dimension
        self._alpha = np.log(np.array(coeffs)) + sum(alphas)
        self._beta = np.concatenate(betas, axis=1).T
        self._gamma = np.repeat(gammas, expr.dimension, axis=0)

    def _terms(self, theta: np.ndarray) -> np.ndarray:
        return np.exp(self._alpha + theta @ self._beta + (theta * theta) @ self._gamma)

    def __call__(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2 or theta.shape[1] != self.axes:
            raise DomainError(f"manifold points need {self.axes} coordinates each")
        values = np.empty(len(theta), dtype=complex)
        for start in range(0, len(theta), _CHUNK):
            values[start:start + _CHUNK] = self._terms(theta[start:start + _CHUNK]).sum(axis=1)
        return values

    def derivatives(self, point: np.ndarray):
        """Real part of the overlap at one point, with its gradient and
        Hessian, from one evaluation of the terms."""
        weights = self._terms(point)
        slopes = self._beta + 2.0 * point[:, None] * self._gamma  # d exponent / d theta
        gradient = (slopes @ weights).real
        hessian = ((slopes * weights) @ slopes.T + np.diag(2.0 * self._gamma @ weights)).real
        return float(weights.sum().real), gradient, hessian

    def grid(self, grids):
        """Values over the product of per-axis grids in `itertools.product`
        order, as (points, values) chunks of _CHUNK points: bounded memory."""
        shape = tuple(len(g) for g in grids)
        total = math.prod(shape)
        for start in range(0, total, _CHUNK):
            index = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)
            theta = np.stack([g[i] for g, i in zip(grids, index)], axis=1)
            yield theta, self(theta)


def _grid_count(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 2:
        raise DomainError(f"{name} must be an integer of at least 2, got {value!r}")
    return int(value)


def nearest_classical_point(state: SphereState, manifold: ManifoldId, box,
                            coarse: int = 33, tol: float = 1e-8) -> ProjectionResult:
    """Best-overlap point of a classical manifold for the given state.

    Evaluates a coarse grid of `coarse` points per axis over `box` (one
    (lo, hi) interval per manifold parameter axis); ties go to the
    lexicographically smallest parameter and set the `tie` flag.  From the
    best cell a shifted Newton ascent climbs the real overlap on its
    closed-form derivatives: coordinates on a bound whose gradient points
    out of the box are held (active set), the others take the clipped step
    (lam I - H)^-1 g, with lam just above max(0, top eigenvalue of H) and
    raised 4x until the overlap rises.  The ascent stops after a step of at
    most `tol` (taken unless the overlap falls), when no shift rises, or
    after 100 iterations.  `iterations` counts the manifold points
    evaluated: the grid and every point of the ascent.
    """
    coarse = _grid_count(coarse, "coarse")
    tol = _positive(tol, "tol")
    overlap = ManifoldOverlap(state.expr, state.kernel, manifold)
    intervals = _normalize_box(box, overlap.axes)

    grids = [np.linspace(lo, hi, coarse) for lo, hi in intervals]
    best_value = -math.inf
    best_point = None
    tie = False
    evals = 0
    for theta, values in overlap.grid(grids):
        evals += len(theta)
        for i, value in enumerate(values.real.tolist()):
            margin = _TIE_TOL * min(abs(value), abs(best_value))
            if value > best_value + margin:
                best_value, best_point, tie = value, theta[i], False
            elif value >= best_value - margin:
                tie = True
                if value > best_value:
                    best_value = value  # keep the earlier (lexicographically smaller) cell

    lows, highs = np.array(intervals).T
    point = best_point.copy()
    value, gradient, hessian = overlap.derivatives(point)
    evals += 1
    for _ in range(100):
        free = ~(((point <= lows) & (gradient < 0.0)) | ((point >= highs) & (gradient > 0.0)))
        g = gradient[free]
        eigenvalues, vectors = np.linalg.eigh(hessian[np.ix_(free, free)])
        if not (g.any() or (eigenvalues[-1:] > 0.0).any()):
            break
        along = vectors.T @ g
        scale = max(np.abs(eigenvalues).max(), np.abs(g).max())
        if eigenvalues[-1] > 0.0:  # no slope along upward curvature: a saddle, climb it
            along[-1] = math.copysign(max(abs(along[-1]), 1e-12 * scale), along[-1])
        shift = max(0.0, eigenvalues[-1]) + 1e-12 * scale
        for _ in range(64):  # after k tries a step is at most axes * 1e12 / 4**k
            trial = point.copy()
            trial[free] += vectors @ (along / (shift - eigenvalues))
            np.clip(trial, lows, highs, out=trial)
            last = np.abs(trial - point).max() <= tol
            trial_value, *trial_derivatives = overlap.derivatives(trial)
            evals += 1
            rose = trial_value > value or (last and trial_value >= value)
            if rose:
                point, value, (gradient, hessian) = trial, trial_value, trial_derivatives
            if rose or last:
                break
            shift *= 4.0
        if last or not rose:
            break

    final = min(1.0, max(0.0, value))
    coords = tuple(float(v) for v in point)
    d = state.expr.dimension
    result_point = (coords[:d], coords[d:]) if manifold.is_pair else coords
    return ProjectionResult(point=result_point, overlap=final,
                            residual_angle=math.acos(final), iterations=evals, tie=tie)


def manifold_member(manifold: ManifoldId, params, kernel: KernelSpec) -> SphereState:
    """Normalized state of a manifold at the given parameter value."""
    params = np.atleast_1d(np.asarray(params, dtype=float))
    slots = np.array_split(params, 2) if manifold.is_pair else (params,)
    return normalize(StateExpr.single(*(manifold.primitive(tuple(p)) for p in slots)), kernel)


def manifold_separation(params, manifold_a: ManifoldId, manifold_b: ManifoldId,
                        kernel: KernelSpec, box=(-3.0, 3.0), resolution: int = 21) -> float:
    """Smallest angle between a state of manifold A and a sampled grid of B.

    A strictly positive return is a sampled certificate that the manifolds do
    not meet near the scanned region; a member of its own manifold returns 0
    at the matching grid point.
    """
    resolution = _grid_count(resolution, "resolution")
    state_a = manifold_member(manifold_a, params, kernel)
    overlap = ManifoldOverlap(state_a.expr, kernel, manifold_b)
    intervals = _normalize_box(box, overlap.axes)
    grids = [np.linspace(lo, hi, resolution) for lo, hi in intervals]
    best = max(float(np.abs(values).max()) for _, values in overlap.grid(grids))
    return math.acos(min(1.0, best))
