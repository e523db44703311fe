"""Independent numerical verification of the closed forms.

Inner products are re-evaluated by brute tensor-grid quadrature.  The
integrand of every supported primitive pair factorizes across coordinate
axes, so a 2d-dimensional integral is computed as a product of d
two-dimensional blocks; this is an identity of the integrand, not of the
closed-form evaluation path, so the check stays independent.  Deltas are
substituted analytically and never discretized as spikes.

Every node value is the integrand sampled pointwise: |integrand| is one real
grid built in place (8 n^2 bytes per 2-d block, 8.4 MB at n = 1025), and the
unit-modulus phases e^{+-i p t} ride on the quadrature weights.

Integration boxes are centered on the real-part maximum of the (quadratic)
integrand exponent and sized from its curvature, so the integrand decays
below 1e-16 of its peak at every box edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Delta, Packet, Primitive, StateExpr, _pairwise, _slot_matrices
from .errors import BoxTooSmallError, DomainError, NumericalFailureError
from .kernels import KernelSpec, _integer, _positive, kernel_coefficients, kernel_value

BOUNDARY_DECAY = 1e-16
_PAD = 10.0  # box half-extent in units of 1/sqrt(marginal curvature)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the brute-force integrator.

    A box_halfwidth of None sizes each box from the integrand itself; the
    error estimate is the difference of the last two refinement levels.
    """

    box_halfwidth: float | None = None
    nodes_per_axis: int = 257
    refinement_levels: int = 3

    def __post_init__(self):
        if self.box_halfwidth is not None:
            object.__setattr__(self, "box_halfwidth",
                               _positive(self.box_halfwidth, "box_halfwidth"))
        for name, lo in (("nodes_per_axis", 33), ("refinement_levels", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo))
        if self.nodes_per_axis % 2 == 0:
            raise DomainError(f"nodes_per_axis must be odd, got {self.nodes_per_axis!r}")


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _nodes(lo: float, hi: float, n: int):
    x, w = _gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _quad_weight(prim: Primitive) -> float:
    return 1.0 / (4.0 * prim.width**2) if isinstance(prim, Packet) else 0.0


def _real_anchor(prim: Primitive, axis: int) -> float:
    return prim.center[axis] if isinstance(prim, Packet) else 0.0


def _envelope(prim: Primitive, axis: int, t: np.ndarray) -> np.ndarray:
    """Real exponent -s(t - c)^2 of a free primitive's factor on one axis (0 for a wave)."""
    return -_quad_weight(prim) * (t - _real_anchor(prim, axis)) ** 2


def _phased(prim: Primitive, axis: int, t: np.ndarray, w: np.ndarray, conjugate: bool):
    """Weights times the unit-modulus phase e^{+-i p t} of a free primitive's factor."""
    return w * np.exp((-1j if conjugate else 1j) * prim.momentum[axis] * t)


def _check_boundary(magnitude: np.ndarray):
    """Raise unless |integrand|, a real grid, decays at every box edge."""
    peak = magnitude.max()
    if peak == 0.0:
        return
    edge = max(np.take(magnitude, [0, -1], axis=a).max() for a in range(magnitude.ndim))
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


def _quad_block_2d(f, g, kernel, axis, n, halfwidth):
    conf, pair = kernel_coefficients(kernel)
    box_x, box_y = _boxes_2d(f, g, kernel, axis, halfwidth)
    x, wx = _nodes(*box_x, n)
    y, wy = _nodes(*box_y, n)
    # |integrand| in place in one real n x n array; x^2 + y^2 - 2xy would cancel
    magnitude = np.subtract.outer(x, y)
    np.square(magnitude, out=magnitude)
    magnitude *= -pair
    magnitude += (_envelope(f, axis, x) - conf * x**2)[:, None]
    magnitude += _envelope(g, axis, y) - conf * y**2
    np.exp(magnitude, out=magnitude)
    _check_boundary(magnitude)
    v = _phased(g, axis, y, wy, conjugate=True)
    mv = magnitude @ np.stack([v.real, v.imag], 1)
    return complex(_phased(f, axis, x, wx, conjugate=False) @ (mv[:, 0] + 1j * mv[:, 1]))


def _quad_block_1d(free, conjugate, kernel, axis, anchor, n, halfwidth):
    conf, pair = kernel_coefficients(kernel)
    s = _quad_weight(free)
    curv = 2.0 * (conf + pair + s)
    lin = 2.0 * pair * anchor + 2.0 * s * _real_anchor(free, axis)
    t_star = lin / curv
    pad = halfwidth if halfwidth is not None else _PAD / math.sqrt(curv)
    t, w = _nodes(t_star - pad, t_star + pad, n)
    magnitude = np.exp(-conf * (anchor**2 + t**2) - pair * (anchor - t) ** 2
                       + _envelope(free, axis, t))
    _check_boundary(magnitude)
    return complex(_phased(free, axis, t, w, conjugate) @ magnitude)


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
                                    n, spec.box_halfwidth)
        return value
    for axis in range(d):
        value *= _quad_block_2d(f, g, kernel, axis, n, spec.box_halfwidth)
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
    """Inner product of two states by quadrature, with an error estimate.

    The terms are summed as in `inner_product`, unclamped, over per-slot
    matrices of `quad_pair_overlap` values V_k and estimates E_k; the
    estimate is sum(|outer(c, conj(d))| * sum_k E_k prod_{j != k} |V_j|).
    """
    weights, slots = _slot_matrices(phi, psi, lambda fs, gs: _pairwise(
        fs, gs, lambda f, g: quad_pair_overlap(f, g, kernel, spec)))
    values = [slot[..., 0] for slot in slots]
    sizes = [np.abs(v) for v in values]
    spread = sum(slot[..., 1].real * math.prod(sizes[:k] + sizes[k + 1:])
                 for k, slot in enumerate(slots))
    return (complex(math.prod(values, start=weights).sum()),
            float((np.abs(weights) * spread).sum()))


def finite_difference(f, at, directions: tuple[int, int], h: float) -> float:
    """Central mixed second difference d^2 f / dx_i dy_k with O(h^2) error.

    `f` maps two coordinate arrays to a scalar; `at` is the (x, y) base point.
    """
    h = _positive(h, "step")
    x0, y0 = (np.asarray(v, dtype=float) for v in at)
    i, k = directions
    ei = np.zeros_like(x0)
    ek = np.zeros_like(y0)
    ei[i] = h
    ek[k] = h
    return (f(x0 + ei, y0 + ek) - f(x0 + ei, y0 - ek)
            - f(x0 - ei, y0 + ek) + f(x0 - ei, y0 - ek)) / (4.0 * h * h)
