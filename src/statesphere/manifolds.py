"""Embeddings of classical position/momentum space into the state space,
and projections of arbitrary states back onto those manifolds.

Positions embed as delta states, momenta as plane waves; pairs embed as
product states.  Plane-wave manifolds exist only under confined kernels:
under translation-invariant kernels their norms diverge and the operations
raise instead of regularizing silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Basis, Delta, PlaneWave, StateExpr, _check_free_pairs, _stacked, overlap_matrix
from .errors import DomainError
from .geometry import SphereState, _arc, normalize
from .kernels import KernelSpec, _finite, _integer, _reals, as_vec, kernel_coefficients

_TIE_TOL = 1e-9  # relative to the compared overlaps
_STEP_TOL = 1e-8  # an ascent ends after a step this short
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
    """Gram matrix of embedded delta states at the given points, from one checked
    `Basis` of the point array; a bad point raises its own message, as a `Delta`."""
    try:
        basis = Basis(Delta, points)
        rows = basis.center.tolist()
    except DomainError:  # the first bad point's message, else mixed dimensions below
        basis, rows = None, [Delta(p).center for p in points]
    if len(set(map(tuple, rows))) != len(rows):  # tuples of floats: 0.0 == -0.0
        raise DomainError("points must be pairwise distinct")
    if basis is None:
        basis = Basis.of([Delta(row) for row in rows]) if rows else ()
    return overlap_matrix(basis, basis, kernel).real


def gram_min_eigenvalue(points, kernel: KernelSpec) -> float:
    """Smallest eigenvalue of the delta Gram matrix; positive iff the embedded
    states are linearly independent."""
    gram = gram_matrix(points, kernel)
    if not len(gram):
        raise DomainError("the smallest Gram eigenvalue needs at least one point")
    return float(np.linalg.eigvalsh(gram).min())


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
    pairs = [box] * axes if len(box) == 2 and np.isscalar(box[0]) else list(box)
    pairs = pairs * axes if len(pairs) == 1 else pairs
    if len(pairs) != axes:
        raise DomainError(f"box must give {axes} (lo, hi) intervals")
    out = []
    for lo, hi in pairs:
        lo, hi = _finite(lo, "box"), _finite(hi, "box")
        if not lo < hi:
            raise DomainError(f"empty box interval ({lo}, {hi})")
        out.append((lo, hi))
    return out


def _slot_exponents(basis: Basis, target: type, kernel: KernelSpec):
    """Per primitive of one slot basis, (alpha, beta, gamma) with
    log(<prim, m(t)> / ||m(t)||) = alpha + beta.t + gamma |t|^2: against a delta, the
    logs of the closed forms of `_delta_delta` and `_delta_free`, the deltas and the
    free primitives each in one broadcast; against a plane wave w_t, the integral over y
    of exp(i t.y) delta_y, their Gaussian integral, with g = conf - gamma > 0 where
    `_check_free_pairs` passed every free s, and 0, against 0, less log ||w_t|| =
    d/4 log(pi^2 / (conf (conf + 2 pair))) - |t|^2 / (4 (conf + 2 pair))."""
    conf, pair = kernel_coefficients(kernel)
    (n, d), (deltas, free, (s, lin, const)) = basis.center.shape, basis.split()
    alpha, beta, gamma = np.empty(n, dtype=complex), np.empty((n, d), dtype=complex), np.empty(n)
    if len(deltas):  # against a plane wave alpha already has + beta.beta / (4 g): it cancels
        u = basis.center[deltas]
        uu = (u * u).sum(axis=1)
        k = conf * (conf + 2.0 * pair) / (conf + pair) if target is PlaneWave else conf + pair
        alpha[deltas], beta[deltas], gamma[deltas] = -k * uu, 2.0 * pair * u, -pair
    if len(free):
        m, lin_sq = 2.0 * (conf + pair + s), (lin * lin).sum(axis=1)
        alpha[free] = 0.5 * d * np.log(2.0 * math.pi / m) + lin_sq / (2.0 * m) + const
        beta[free] = (2.0 * pair / m)[:, None] * lin
        gamma[free] = -pair * (conf + s) / (conf + pair + s)
    if target is PlaneWave:  # + beta.beta r, then d/2 log(pi / g) less the norm's constant
        r = 0.25 / (conf - gamma)  # 1 / (4 g)
        if len(free):
            alpha[free] += (beta[free] * beta[free]).sum(axis=1) * r[free]
        alpha += 0.5 * d * np.log(4.0 * math.sqrt(conf * (conf + pair) + pair * conf) * r)
        beta *= (-2j * r)[:, None]
        gamma = 0.25 / (conf + 2.0 * pair) - r
    return alpha, beta, gamma


class ManifoldOverlap:
    """<expr, m(theta)> / ||m(theta)|| in closed form for batches of manifold
    parameters: one row of theta per point, u or p for one particle, (u, v)
    or (p, q) for a pair, whose targets are products of one-particle factors.

    `exprs` is one state expression, or a sequence of them of one arity and
    dimension (values then per state and point); their distinct bases of
    each slot, whole, compile in one stack (`_slot_exponents`) to quadratic exponents
    in theta, the target norm folded in.  Each state's terms are stored once as
    dense arrays, alpha (states, width) and beta, gamma (states, axes, width),
    shorter states padded with a term of exact weight 0, so a batch is one
    complex exp over (states, points, width) per _CHUNK (state, point) pairs;
    padding can move the last bit of long or multi-axis rows only.
    Compiling raises the errors of the term-by-term `inner_product` and
    `hilbert_norm` in the same order: a non-finite packet profile, or a 2x2 M
    against a plane wave (`_check_free_pairs` on [each distinct free s, slot by
    slot, then 0.0 for the target norm] x [0.0]); a basis row no term uses (see
    `StateExpr.from_arrays`) is checked too.
    """

    def __init__(self, exprs, kernel: KernelSpec, manifold: ManifoldId):
        self._single = isinstance(exprs, StateExpr)
        exprs = [exprs] if self._single else list(exprs)
        arity, dimension = exprs[0].arity, exprs[0].dimension
        if manifold.is_pair != (arity == 2) or len({(e.arity, e.dimension) for e in exprs}) > 1:
            raise DomainError(f"the states must share one dimension and the {manifold.value} "
                              "manifold's arity")
        # per slot: the distinct bases (by identity) stacked into one, and the terms' rows in it
        bases = [list(dict.fromkeys(e.bases[k] for e in exprs)) for k in range(arity)]
        starts = [dict(zip(slot, np.cumsum([0] + [len(b) for b in slot]))) for slot in bases]
        rows = [np.concatenate([start[e.bases[k]] + e.indices[k] for e in exprs])
                for k, start in enumerate(starts)]
        bases = [slot[0] if len(slot) == 1 else _stacked(slot) for slot in bases]
        if manifold.primitive is PlaneWave:  # in term-by-term order: each slot, then the norm
            for basis in bases:  # the free rows' s, once the split has checked their profile
                _check_free_pairs(basis.s[basis.split()[1]].tolist(), [0.0], kernel)
            _check_free_pairs([0.0], [0.0], kernel)
        alphas, betas, gammas = zip(*([x[r] for x in _slot_exponents(
            basis, manifold.primitive, kernel)] for basis, r in zip(bases, rows)))
        self.axes = arity * dimension
        # a last term, alpha = -inf and beta = gamma = 0, pads each state with exact zeros
        # to the width, at least 2: numpy rounds a one-column product on another path
        zero, count = np.zeros((self.axes, 1)), np.array([len(e.coeffs) for e in exprs])
        coeffs = np.concatenate([e.coeffs for e in exprs])
        slot = np.arange(max(2, count.max()))
        table = np.where(slot < count[:, None], (np.cumsum(count) - count)[:, None] + slot,
                         len(coeffs))  # (states, width): each state's terms, then the pad
        # gathered once: alpha (states, width), beta and gamma (states, axes, width)
        self._alpha = np.append(np.log(coeffs) + sum(alphas), -np.inf)[table]
        self._beta, self._gamma = (np.concatenate([x, zero], axis=1)[:, table].transpose(1, 0, 2)
                                   for x in (np.concatenate(betas, axis=1).T,
                                             np.repeat(gammas, dimension, axis=0)))
        self._chunk = max(1, _CHUNK // len(exprs))  # points per evaluation

    def _terms(self, theta: np.ndarray) -> np.ndarray:
        """Padded term weights of every state at theta: (states, points, width)."""
        return np.exp(self._alpha[:, None] + theta @ self._beta + (theta * theta) @ self._gamma)

    def __call__(self, theta) -> np.ndarray:
        theta = _reals(theta, "manifold points")
        if theta.ndim != 2 or theta.shape[1] != self.axes:
            raise DomainError(f"manifold points need {self.axes} coordinates each")
        values = np.empty((len(self._alpha), len(theta)), dtype=complex)
        for start in range(0, len(theta), self._chunk):
            chunk = slice(start, start + self._chunk)
            values[:, chunk] = self._terms(theta[chunk]).sum(axis=2)
        return values[0] if self._single else values

    def _derivatives(self, theta: np.ndarray):
        """Real part of the overlap of state i at theta[i], its gradient and Hessian
        (one state broadcasts over the rows of theta)."""
        weights = self._terms(theta[:, None])[:, 0]
        slopes = self._beta + 2.0 * theta[:, :, None] * self._gamma  # d exponent / d theta
        hessian = (slopes * weights[:, None]) @ slopes.transpose(0, 2, 1)
        diagonal = np.arange(self.axes)
        hessian[:, diagonal, diagonal] += ((2.0 * self._gamma) @ weights[:, :, None])[:, :, 0]
        return weights.sum(axis=1).real, (slopes @ weights[:, :, None])[:, :, 0].real, hessian.real

    def grid(self, grids):
        """Values over the product of per-axis grids in `itertools.product`
        order, as (points, values) chunks: bounded memory."""
        shape = tuple(len(g) for g in grids)
        total = math.prod(shape)
        for start in range(0, total, self._chunk):
            index = np.unravel_index(np.arange(start, min(start + self._chunk, total)), shape)
            theta = np.stack([g[i] for g, i in zip(grids, index)], axis=1)
            yield theta, self(theta)


def nearest_classical_points(states, manifold: ManifoldId, box,
                             coarse: int = 33) -> list[ProjectionResult]:
    """Best-overlap point of a classical manifold for each state (one kernel).

    A coarse grid of `coarse` points per axis over `box` (one (lo, hi) per
    manifold axis) picks a start, the lexicographically smallest of tied
    cells, which sets `tie`; a shifted Newton ascent on the closed-form
    derivatives then climbs the real overlap, holding coordinates on a bound
    whose gradient points out (the active set) and stepping (lam I - H)^-1 g
    with lam just above max(0, top eigenvalue e of H), raised 4x until the
    overlap rises (lam - e where H is negative definite).  It stops after a
    step of at most _STEP_TOL (taken unless the overlap falls), when no shift
    rises, or after 100 steps.  `iterations` counts the points evaluated, grid
    included.  The ascents run in lockstep on whole arrays: each round forms
    the trial of every state, one `eigh` and one `_derivatives` call for all,
    and discards the trials of stopped states through the `climbing` mask.
    """
    coarse, states = _integer(coarse, "coarse", 2), list(states)
    if not states:
        return []
    if any(s.kernel != states[0].kernel for s in states):
        raise DomainError("the states of one projection must share a kernel")
    overlap = ManifoldOverlap([s.expr for s in states], states[0].kernel, manifold)
    intervals = _normalize_box(box, overlap.axes)
    # the sequential scan, vectorised: a value above the maximum so far by more than
    # _TIE_TOL (relative to the smaller) leads and clears `tie`, one within it sets it
    count, axes = len(states), overlap.axes
    best, points, tie = np.full(count, -math.inf), np.zeros((count, axes)), np.zeros(count, bool)
    for theta, values in overlap.grid([np.linspace(lo, hi, coarse) for lo, hi in intervals]):
        running = np.fmax.accumulate(np.column_stack([best, values.real]), axis=1)
        prior, best = running[:, :-1], running[:, -1]  # NaN never leads
        margin = _TIE_TOL * np.minimum(np.abs(values.real), np.abs(prior))
        lead, near = values.real > prior + margin, values.real >= prior - margin
        led, last = lead.any(axis=1), len(theta) - 1 - np.argmax(lead[:, ::-1], axis=1)
        after = np.arange(len(theta)) > last[:, None]  # beyond the last lead
        tie = np.where(led, (near & after).any(axis=1), tie | near.any(axis=1))
        points[led] = theta[last[led]]

    lows, highs = np.array(intervals).T
    # contiguous copies, which the rounds update: matmul rounds a strided g differently at 6 axes
    value, gradient, hessian = (x.copy() for x in overlap._derivatives(points))
    climbing, evals = np.ones(count, dtype=bool), np.full(count, coarse**axes + 1)
    steps, tries = np.zeros((2, count), dtype=int)  # tries since the last step
    while climbing.any():  # every state's trial, a stopped one's discarded
        free = ~(((points <= lows) & (gradient < 0.0)) | ((points >= highs) & (gradient > 0.0)))
        g, h, held = gradient, hessian, not free.all()
        if held:  # zero slope, zero Hessian row and column
            g, h = np.where(free, g, 0.0), np.where(free[:, None] & free[..., None], h, 0.0)
        eig, vec = np.linalg.eigh(h)
        top = np.maximum(0.0, eig[:, -1])
        climbing &= g.any(axis=1) | (top > 0.0)  # else no slope and no upward curvature
        along = (vec.transpose(0, 2, 1) @ g[:, :, None])[:, :, 0]
        scale = np.maximum(np.abs(eig).max(axis=1), np.abs(g).max(axis=1))
        up = top > 0.0  # no slope along upward curvature: a saddle, climb it
        if up.any():  # a unit step where nudged, 4x shorter a retry
            nudged = up & (np.abs(along[:, -1]) < 1e-12 * scale)
            along[up, -1] = np.copysign(np.maximum(np.abs(along[up, -1]), 1e-12 * scale[up]),
                                        along[up, -1])
        # lam = top + 1e-12 scale, 4x per retry; where H is negative definite, lam - eig[-1]
        # grows 4x instead: lam alone starts near 0 there and would take ~20 retries to
        # shorten a step (a held coordinate's eigenvalue 0 keeps a row on the plain rule)
        grow = 4.0 ** tries
        shift = (top + 1e-12 * scale) * grow + (top - eig[:, -1]) * (grow - 1.0)
        # after k tries, at most axes * 1e12 / 4**k; a stopped row (H = 0 and g = 0: 0 / 0) skips it
        np.divide(along, shift[:, None] - eig, out=along, where=climbing[:, None])
        if up.any():
            along[nudged, -1] = np.copysign(1.0 / grow[nudged], along[nudged, -1])
        move = (vec @ along[:, :, None])[:, :, 0]
        trial = np.clip(points + (np.where(free, move, 0.0) if held else move), lows, highs)
        last = np.abs(trial - points).max(axis=1) <= _STEP_TOL
        trial_value, *derivatives = overlap._derivatives(trial)
        evals += climbing
        rose = climbing & ((trial_value > value) | (last & (trial_value >= value)))
        points[rose], value[rose], gradient[rose], hessian[rose] = (
            x[rose] for x in (trial, trial_value, *derivatives))
        steps += rose
        tries = np.where(rose, 0, tries + climbing)
        climbing &= ~(last | (tries == 64) | (steps == 100))

    d, final = states[0].expr.dimension, [min(1.0, max(0.0, v)) for v in value.tolist()]
    return [ProjectionResult(point=(tuple(p[:d]), tuple(p[d:])) if manifold.is_pair else tuple(p),
                             overlap=f, residual_angle=_arc(f), iterations=n, tie=t)
            for p, f, n, t in zip(points.tolist(), final, evals.tolist(), tie.tolist())]


def manifold_member(manifold: ManifoldId, params, kernel: KernelSpec) -> SphereState:
    """Normalized state of a manifold at the given parameter value."""
    params = np.atleast_1d(_reals(params, "params"))
    slots = np.array_split(params, 2) if manifold.is_pair else (params,)
    return normalize(StateExpr.single(*(manifold.primitive(tuple(p)) for p in slots)), kernel)


def manifold_separation(params, manifold_a: ManifoldId, manifold_b: ManifoldId,
                        kernel: KernelSpec, box=(-3.0, 3.0), resolution: int = 21) -> float:
    """Smallest angle between a state of manifold A and a sampled grid of B.

    A strictly positive return is a sampled certificate that the manifolds do
    not meet near the scanned region; a member of its own manifold returns 0
    at the matching grid point.
    """
    resolution = _integer(resolution, "resolution", 2)
    state_a = manifold_member(manifold_a, params, kernel)
    overlap = ManifoldOverlap(state_a.expr, kernel, manifold_b)
    grids = [np.linspace(lo, hi, resolution) for lo, hi in _normalize_box(box, overlap.axes)]
    best = max(float(np.abs(values).max()) for _, values in overlap.grid(grids))
    return _arc(best)
