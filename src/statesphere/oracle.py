"""Independent numerical verification of the closed forms.

Inner products are re-evaluated by brute tensor-grid quadrature.  The
integrand of every supported primitive pair factorizes across coordinate
axes, so a 2d-dimensional integral is computed as a product of d
two-dimensional blocks; this is an identity of the integrand, not of the
closed-form evaluation path, so the check stays independent.  Deltas are
substituted analytically and never discretized as spikes.

Integration boxes are centered on the real-part maximum of the (quadratic)
integrand exponent and sized from its curvature, so the integrand decays
below 1e-16 of its peak at every box edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Delta, Packet, PlaneWave, Primitive, StateExpr
from .errors import BoxTooSmallError, DomainError, NumericalFailureError
from .kernels import KernelSpec, kernel_coefficients, kernel_value

BOUNDARY_DECAY = 1e-16
_PAD = 10.0  # box half-extent in units of 1/sqrt(marginal curvature)


class QuadratureRule(Enum):
    TRAPEZOID = "trapezoid"
    GAUSS_LEGENDRE = "gauss-legendre"


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the brute-force integrator.

    A box_halfwidth of None sizes each box from the integrand itself; the
    error estimate is the difference of the last two refinement levels.
    """

    box_halfwidth: float | None = None
    nodes_per_axis: int = 257
    rule: QuadratureRule = QuadratureRule.GAUSS_LEGENDRE
    refinement_levels: int = 3

    def __post_init__(self):
        if self.box_halfwidth is not None and self.box_halfwidth <= 0:
            raise DomainError("box_halfwidth must be positive")
        if self.nodes_per_axis < 33 or self.nodes_per_axis % 2 == 0:
            raise DomainError("nodes_per_axis must be an odd integer >= 33")
        if self.refinement_levels < 1:
            raise DomainError("refinement_levels must be >= 1")


def _nodes(rule: QuadratureRule, lo: float, hi: float, n: int):
    if rule is QuadratureRule.GAUSS_LEGENDRE:
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (hi - lo)
        return lo + half * (x + 1.0), half * w
    x = np.linspace(lo, hi, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _quad_weight(prim: Primitive) -> float:
    return 1.0 / (4.0 * prim.width**2) if isinstance(prim, Packet) else 0.0


def _real_anchor(prim: Primitive, axis: int) -> float:
    return prim.center[axis] if isinstance(prim, Packet) else 0.0


def _integrand_factor(prim, conjugate: bool, axis: int):
    """Per-axis factor of a free primitive as a vectorized callable."""
    sign = -1.0 if conjugate else 1.0
    if isinstance(prim, Packet):
        c = prim.center[axis]
        s = 1.0 / (4.0 * prim.width**2)
        p = prim.momentum[axis]
        return lambda t: np.exp(-s * (t - c) ** 2 + 1j * sign * p * t)
    if isinstance(prim, PlaneWave):
        p = prim.momentum[axis]
        return lambda t: np.exp(1j * sign * p * t)
    raise DomainError(f"no integrand factor for {prim!r}")


def _check_boundary(values: np.ndarray):
    peak = np.abs(values).max()
    if peak == 0.0:
        return
    if values.ndim == 1:
        edge = max(abs(values[0]), abs(values[-1]))
    else:
        edge = max(np.abs(values[0, :]).max(), np.abs(values[-1, :]).max(),
                   np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max())
    if edge > BOUNDARY_DECAY * peak:
        raise BoxTooSmallError(
            f"integrand at box edge is {edge / peak:.2e} of its peak; enlarge the box")


def _boxes_2d(f, g, kernel, axis, halfwidth):
    """Boxes for one (x_i, y_i) block from the exponent's peak and curvature."""
    conf, pair = kernel_coefficients(kernel)
    s_f, s_g = _quad_weight(f), _quad_weight(g)
    cxx = 2.0 * (conf + pair + s_f)
    cyy = 2.0 * (conf + pair + s_g)
    cxy = -2.0 * pair
    det = cxx * cyy - cxy * cxy
    if det <= 0.0:
        raise DomainError("integrand does not decay; the pair diverges under this kernel")
    rx = 2.0 * s_f * _real_anchor(f, axis)
    ry = 2.0 * s_g * _real_anchor(g, axis)
    x_star = (cyy * rx - cxy * ry) / det
    y_star = (cxx * ry - cxy * rx) / det
    if halfwidth is not None:
        pad_x = pad_y = halfwidth
    else:
        pad_x = _PAD / math.sqrt(cxx - cxy * cxy / cyy)
        pad_y = _PAD / math.sqrt(cyy - cxy * cxy / cxx)
    return (x_star - pad_x, x_star + pad_x), (y_star - pad_y, y_star + pad_y)


def _quad_block_2d(f, g, kernel, axis, rule, n, halfwidth):
    conf, pair = kernel_coefficients(kernel)
    box_x, box_y = _boxes_2d(f, g, kernel, axis, halfwidth)
    fx = _integrand_factor(f, conjugate=False, axis=axis)
    gy = _integrand_factor(g, conjugate=True, axis=axis)
    x, wx = _nodes(rule, *box_x, n)
    y, wy = _nodes(rule, *box_y, n)
    x_col = x[:, None]
    y_row = y[None, :]
    values = (np.exp(-conf * (x_col**2 + y_row**2) - pair * (x_col - y_row) ** 2)
              * fx(x)[:, None] * gy(y)[None, :])
    _check_boundary(values)
    return complex(wx @ values @ wy)


def _quad_block_1d(free, conjugate, kernel, axis, anchor, rule, n, halfwidth):
    conf, pair = kernel_coefficients(kernel)
    s = _quad_weight(free)
    curv = 2.0 * (conf + pair + s)
    lin = 2.0 * pair * anchor + 2.0 * s * _real_anchor(free, axis)
    t_star = lin / curv
    pad = halfwidth if halfwidth is not None else _PAD / math.sqrt(curv)
    h = _integrand_factor(free, conjugate=conjugate, axis=axis)
    t, w = _nodes(rule, t_star - pad, t_star + pad, n)
    values = np.exp(-conf * (anchor**2 + t**2) - pair * (anchor - t) ** 2) * h(t)
    _check_boundary(values)
    return complex(w @ values)


def _quad_pair_level(f: Primitive, g: Primitive, kernel, spec, n: int) -> complex:
    d = f.dimension
    value = 1.0 + 0j
    if isinstance(f, Delta) or isinstance(g, Delta):
        if isinstance(f, Delta):
            anchors, free, conjugate = f.center, g, True
        else:
            anchors, free, conjugate = g.center, f, False
        for axis in range(d):
            value *= _quad_block_1d(free, conjugate, kernel, axis, anchors[axis],
                                    spec.rule, n, spec.box_halfwidth)
        return value
    for axis in range(d):
        value *= _quad_block_2d(f, g, kernel, axis, spec.rule, n, spec.box_halfwidth)
    return value


def _refine(level_value, spec):
    """Run the refinement ladder; returns (value, estimate, history)."""
    history = []
    n = spec.nodes_per_axis
    for _ in range(spec.refinement_levels):
        history.append(level_value(n))
        n = 2 * n - 1
    if len(history) == 1:
        return history[0], math.inf, history
    estimate = abs(history[-1] - history[-2])
    if len(history) >= 3:
        prev = abs(history[-2] - history[-3])
        scale = max(abs(history[-1]), 1e-300)
        if estimate > 10.0 * prev and estimate > 1e-6 * scale:
            raise NumericalFailureError(
                f"quadrature refinement is not converging "
                f"(estimates {prev:.3e} -> {estimate:.3e})")
    return history[-1], estimate, history


def quad_pair_overlap(f: Primitive, g: Primitive, kernel: KernelSpec,
                      spec: QuadratureSpec = QuadratureSpec()) -> tuple[complex, float]:
    """<f, g> under the kernel by tensor-grid quadrature, with an error estimate.

    Delta pairs are evaluated by exact substitution and report zero error.
    """
    if f.dimension != g.dimension:
        raise DomainError("dimension mismatch")
    if isinstance(f, Delta) and isinstance(g, Delta):
        return complex(kernel_value(kernel, f.center, g.center)), 0.0
    value, estimate, _ = _refine(lambda n: _quad_pair_level(f, g, kernel, spec, n), spec)
    return value, estimate


def quad_inner_product(phi: StateExpr, psi: StateExpr, kernel: KernelSpec,
                       spec: QuadratureSpec = QuadratureSpec()) -> tuple[complex, float]:
    """Inner product of two states by quadrature; error estimates add per term.

    On pair states the per-particle factors of a term pair multiply; values
    v_k with errors e_k contribute sum_k e_k prod_{j != k} |v_j| to the estimate.
    """
    if not isinstance(phi, StateExpr) or not isinstance(psi, StateExpr):
        raise DomainError(f"not state expressions: {phi!r}, {psi!r}")
    if phi.arity != psi.arity:
        raise DomainError("states must have matching arity")
    total = 0j
    err = 0.0
    for ci, *fi in phi.terms:
        for dj, *gj in psi.terms:
            if ci == 0 or dj == 0:
                continue
            parts = [quad_pair_overlap(f, g, kernel, spec) for f, g in zip(fi, gj)]
            value = ci * dj.conjugate()
            for v, _ in parts:
                value *= v
            total += value
            err += abs(ci * dj) * sum(
                e * math.prod(abs(v) for j, (v, _) in enumerate(parts) if j != k)
                for k, (_, e) in enumerate(parts))
    return total, err


def finite_difference(f, at, directions: tuple[int, int], h: float) -> float:
    """Central mixed second difference d^2 f / dx_i dy_k with O(h^2) error.

    `f` maps two coordinate arrays to a scalar; `at` is the (x, y) base point.
    """
    if h <= 0:
        raise DomainError("step must be positive")
    x0, y0 = (np.asarray(v, dtype=float) for v in at)
    i, k = directions
    ei = np.zeros_like(x0)
    ek = np.zeros_like(y0)
    ei[i] = h
    ek[k] = h
    return (f(x0 + ei, y0 + ek) - f(x0 + ei, y0 - ek)
            - f(x0 - ei, y0 + ek) + f(x0 - ei, y0 - ek)) / (4.0 * h * h)
