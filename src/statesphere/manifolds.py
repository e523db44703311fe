"""Embeddings of classical position/momentum space into the state space,
and projections of arbitrary states back onto those manifolds.

Positions embed as delta states, momenta as plane waves; pairs embed as
product states.  Plane-wave manifolds exist only under confined kernels:
under translation-invariant kernels their norms diverge and the operations
raise instead of regularizing silently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import CONDITION_CAP, Delta, PlaneWave, StateExpr, _profile, as_vec
from .errors import DivergenceError, DomainError, NumericalFailureError
from .geometry import SphereState, normalize
from .kernels import KernelSpec, kernel_coefficients, kernel_value

_TIE_TOL = 1e-9  # relative to the compared overlaps
_CHUNK = 4096  # manifold points per batched evaluation
_LINE = 21  # points per line grid of the refinement zoom
_NEWTON_STEPS = 20


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
    grid cell came within 1e-9 (relative) of the maximum.
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


def _check_axis_matrix(m: np.ndarray):
    """The positivity and conditioning checks `gaussian_integral` makes on
    M (x) I_d, made on the per-axis matrix M."""
    if np.linalg.eigvalsh(m).min() <= 0.0:
        raise DomainError("real part of the quadratic form is not positive definite")
    if np.linalg.cond(m) > CONDITION_CAP:
        raise NumericalFailureError(
            f"quadratic form is near singular (condition number above {CONDITION_CAP:g})")


def _diverges(name: str, kernel: KernelSpec) -> DivergenceError:
    return DivergenceError(f"inner product of {name} and PlaneWave "
                           f"diverges under {type(kernel).__name__}")


def _log_factor(prim, momentum: bool, kernel: KernelSpec):
    """(alpha, beta, gamma) with log(<prim, m(t)> / ||m(t)||) = alpha + beta.t
    + gamma |t|^2 for the delta (position) or plane-wave (momentum) target m(t).

    These are the closed forms of `compile_pair` and `gaussian_integral`: the
    per-axis matrix M depends on the primitive alone, and only the linear
    vector b and the constant c move with t.  For position targets the norm
    ||delta_t|| = exp(-conf |t|^2) is already folded in.  A 1x1 M equals
    2 (conf + pair + s) > 0 with condition number 1, so only the 2x2 M of a
    free primitive against a plane wave is checked.
    """
    conf, pair = kernel_coefficients(kernel)
    d = prim.dimension
    if isinstance(prim, Delta):
        u = np.array(prim.center)
        if not momentum:
            return -(conf + pair) * float(u @ u), 2.0 * pair * u, -pair
        m = 2.0 * (conf + pair)
        return (0.5 * d * math.log(2.0 * math.pi / m)
                - conf * (conf + 2.0 * pair) / (conf + pair) * float(u @ u),
                -1j * pair / (conf + pair) * u, -1.0 / (2.0 * m))
    s, lin, const = _profile(prim, conjugate=False)
    lin_sq = complex(lin @ lin)
    if not momentum:
        m = 2.0 * (conf + pair + s)
        return (0.5 * d * math.log(2.0 * math.pi / m) + lin_sq / (2.0 * m) + const,
                2.0 * pair / m * lin, -pair * (conf + s) / (conf + pair + s))
    a_f, a_t = conf + pair + s, conf + pair
    margin = (conf + s) * a_t + conf * pair  # a_f a_t - pair^2 without cancellation
    if margin <= 0.0:
        raise _diverges(type(prim).__name__, kernel)
    _check_axis_matrix(2.0 * np.array([[a_f, -pair], [-pair, a_t]]))
    return (d * math.log(2.0 * math.pi) - 0.5 * d * math.log(4.0 * margin)
            + a_t * lin_sq / (4.0 * margin) + const,
            -0.5j * pair / margin * lin, -a_f / (4.0 * margin))


def _log_wave_norm(kernel: KernelSpec, d: int):
    """(alpha, gamma) with log ||w_q|| = alpha + gamma |q|^2 for plane waves."""
    conf, pair = kernel_coefficients(kernel)
    margin = conf * (conf + 2.0 * pair)
    if margin <= 0.0:
        raise _diverges("PlaneWave", kernel)
    _check_axis_matrix(2.0 * np.array([[conf + pair, -pair], [-pair, conf + pair]]))
    return (0.5 * d * math.log(2.0 * math.pi) - 0.25 * d * math.log(4.0 * margin),
            -1.0 / (4.0 * (conf + 2.0 * pair)))


class ManifoldOverlap:
    """<expr, m(theta)> / ||m(theta)|| in closed form for batches of manifold
    parameters: one row of theta per point, u or p for one particle, (u, v)
    or (p, q) for a pair, whose targets are products of one-particle factors.

    Each term compiles once to a quadratic exponent in theta, so a batch is
    one complex exp over (points, terms).  The target norm is part of the
    exponent, so far-out targets whose norm underflows give a finite ratio.
    Compiling raises the errors the term-by-term `inner_product` and
    `hilbert_norm` of the target would raise.
    """

    def __init__(self, expr: StateExpr, kernel: KernelSpec, manifold: ManifoldId):
        if manifold.is_pair != (expr.arity == 2):
            raise DomainError(f"{manifold.value} manifold does not match the state arity")
        momentum = manifold in (ManifoldId.MOMENTUM, ManifoldId.MOMENTUM_PAIR)
        d = expr.dimension
        alpha, beta, gamma = [], [], []
        for coeff, *prims in expr.terms:
            if coeff == 0:
                continue
            factors = [_log_factor(prim, momentum, kernel) for prim in prims]
            alpha.append(cmath.log(coeff) + sum(f[0] for f in factors))
            beta.append(np.concatenate([f[1] for f in factors]))
            gamma.append(np.repeat([f[2] for f in factors], d))
        self.axes = expr.arity * d
        self._alpha = np.array(alpha)
        self._beta = np.array(beta).T
        self._gamma = np.array(gamma).T
        if momentum:
            norm_alpha, norm_gamma = _log_wave_norm(kernel, d)
            self._alpha -= expr.arity * norm_alpha
            self._gamma -= norm_gamma

    def _terms(self, theta: np.ndarray) -> np.ndarray:
        return np.exp(self._alpha + theta @ self._beta + (theta * theta) @ self._gamma)

    def __call__(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 2 or theta.shape[1] != self.axes:
            raise DomainError(f"manifold points need {self.axes} coordinates each")
        return self._terms(theta).sum(axis=1)

    def newton_step(self, theta: np.ndarray):
        """Newton step towards a maximum of the real part at one point, or
        None where its Hessian is not negative definite."""
        weights = self._terms(theta)
        slopes = self._beta + 2.0 * theta[:, None] * self._gamma  # d exponent / d theta
        gradient = (slopes @ weights).real
        hessian = ((slopes * weights) @ slopes.T + np.diag(2.0 * self._gamma @ weights)).real
        if np.linalg.eigvalsh(hessian).max() >= 0.0:
            return None
        return -np.linalg.solve(hessian, gradient)

    def grid(self, grids):
        """Values over the product of per-axis grids in `itertools.product`
        order, as (points, values) chunks of at most _CHUNK points, so memory
        does not grow with the grid."""
        shape = tuple(len(g) for g in grids)
        total = math.prod(shape)
        for start in range(0, total, _CHUNK):
            index = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)
            theta = np.stack([g[i] for g, i in zip(grids, index)], axis=1)
            yield theta, self(theta)


def nearest_classical_point(state: SphereState, manifold: ManifoldId, box,
                            coarse: int = 33, tol: float = 1e-8) -> ProjectionResult:
    """Best-overlap point of a classical manifold for the given state.

    Evaluates a coarse grid over `box` (one (lo, hi) interval per manifold
    parameter axis), then refines the winning cell by coordinate sweeps: on
    each axis a line grid of _LINE points over +-cell zooms onto its best
    point until its spacing is at most `tol`.  Newton steps on the
    closed-form derivatives then polish the point.  Ties on the coarse grid
    go to the lexicographically smallest parameter and set the `tie` flag.
    `iterations` counts the manifold points evaluated.
    """
    overlap = ManifoldOverlap(state.expr, state.kernel, manifold)
    if coarse < 2:
        raise DomainError("coarse grid needs at least 2 cells per axis")
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

    point = best_point.copy()
    value = best_value
    cells = [(hi - lo) / (coarse - 1) for lo, hi in intervals]
    for _ in range(100):
        moved = 0.0
        for k in range(overlap.axes):
            start = point[k]
            lo = max(intervals[k][0], start - cells[k])
            hi = min(intervals[k][1], start + cells[k])
            while True:
                line = np.linspace(lo, hi, _LINE)
                trial = np.tile(point, (_LINE, 1))
                trial[:, k] = line
                values = overlap(trial).real
                evals += _LINE
                best = int(np.argmax(values))
                point[k], value = line[best], float(values[best])
                if line[1] - line[0] <= tol:
                    break
                lo, hi = line[max(best - 1, 0)], line[min(best + 1, _LINE - 1)]
            step = abs(point[k] - start)
            moved = max(moved, step)
            # a halving window that the climb keeps hitting would stall it
            cells[k] = max(0.5 * cells[k], 2.0 * step, tol)
        if moved < tol:
            break

    # Coordinate sweeps zigzag slowly up ridges oblique to the axes, as on
    # pair manifolds; Newton steps finish the climb where the maximum is concave.
    lows, highs = np.array(intervals).T
    for _ in range(_NEWTON_STEPS):
        step = overlap.newton_step(point)
        if step is None:
            break
        trial = np.clip(point + step, lows, highs)
        trial_value = float(overlap(trial[None]).real[0])
        evals += 1
        if not trial_value > value:
            break
        point, value = trial, trial_value
        if np.abs(step).max() <= tol:
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
    overlap = ManifoldOverlap(state_a.expr, kernel, manifold_b)
    intervals = _normalize_box(box, overlap.axes)
    grids = [np.linspace(lo, hi, resolution) for lo, hi in intervals]
    best = max(float(np.abs(values).max()) for _, values in overlap.grid(grids))
    return math.acos(min(1.0, best))
