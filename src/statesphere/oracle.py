"""Independent numerical verification of the closed forms.

Inner products are re-evaluated by brute tensor-grid quadrature.  The
integrand of every supported primitive pair factorizes across coordinate
axes, so a 2d-dimensional integral is a product of d blocks, one per axis;
this is an identity of the integrand, not of the closed-form evaluation
path, so the check stays independent.  One routine builds every block from
two sides: a free primitive is Gauss-Legendre nodes on a box, a delta one
node at its coordinate (substituted exactly, never a discretized spike).

|integrand| = K = exp(env_f(x)) exp(-pair (y - x)^2) exp(env_g(y)): the middle factor
fills real row strips in one reused buffer of about 512 KB, y - x as the product [1, -x] @
[y; 1] (rounded once: products by 1 are exact); the outer factors and the phases
e^{+-i p t} ride on the weights.  Each free side's box is centered on the real-part peak
of the exponent in its variable and sized so K decays below 1e-16 of its peak at its edges.

Along a row, log K is a concave quadratic in y, so a strip exponentiates only the
columns where one of its rows is within BAND_DECAY of the largest row maximum, one
node wider.  A box makes sum|u| sum|v| max(K) (200/pi) / sqrt(1 - rho^2) times the
|u| K |v| mass, rho the x-y correlation in K: the bands leave out under 6.4e-19 /
sqrt(1 - rho^2) of the mass, below the sum's rounding unless rho^2 > 0.9999.  A row's
largest node is one of the two either side of its maximum; the edge check reads K there.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Delta, Packet, Primitive, StateExpr, _slot_matrices
from .errors import BoxTooSmallError, DomainError, NumericalFailureError
from .kernels import KernelSpec, _integer, _positive, kernel_coefficients

BOUNDARY_DECAY = 1e-16
BAND_DECAY = 1e-20  # share of K's peak below which entries are skipped (module docstring)
MAX_NODES = 4097  # top refinement level: a strip of about 512 KB at any level
_PAD = 10.0  # box half-extent in units of 1/sqrt(marginal curvature)
_STRIP_BYTES = 65 * 8192  # 64 rows at 1025 nodes, a whole block at 257


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the brute-force integrator.

    Boxes are sized from the integrand itself; the error estimate is the
    difference of the last two refinement levels.  Level k = 0, 1, ... has
    (nodes_per_axis - 1) 2^k + 1 nodes per axis, at most MAX_NODES.
    """

    nodes_per_axis: int = 257
    refinement_levels: int = 3

    def __post_init__(self):
        nodes = _integer(self.nodes_per_axis, "nodes_per_axis", 33, MAX_NODES)
        if nodes % 2 == 0:
            raise DomainError(f"nodes_per_axis must be odd, got {nodes!r}")
        top = ((MAX_NODES - 1) // (nodes - 1)).bit_length()
        object.__setattr__(self, "nodes_per_axis", nodes)
        object.__setattr__(self, "refinement_levels",
                           _integer(self.refinement_levels, "refinement_levels", 1, top))


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _nodes(lo: float, hi: float, n: int):
    x, w = _gauss_legendre(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _quad_weight(prim: Primitive) -> float:
    return 1.0 / (4.0 * prim.width**2) if isinstance(prim, Packet) else 0.0


def _real_anchor(prim: Primitive, axis: int) -> float:
    return prim.center[axis] if isinstance(prim, Packet) else 0.0


def _box(prim: Primitive, other: Primitive, kernel, axis: int):
    """Box of a free side from the exponent's peak and curvature in its variable:
    the other variable is maximized out if free, else fixed at the delta."""
    conf, pair = kernel_coefficients(kernel)
    s, cxy = _quad_weight(prim), -2.0 * pair
    cxx, rx = 2.0 * (conf + pair + s), 2.0 * s * _real_anchor(prim, axis)
    if isinstance(other, Delta):
        peak, curvature = (2.0 * pair * other.center[axis] + rx) / cxx, cxx
    else:
        cyy = 2.0 * (conf + pair + _quad_weight(other))
        det = cxx * cyy - cxy * cxy
        if det <= 0.0:
            raise DomainError("integrand does not decay; the pair diverges under this kernel")
        ry = 2.0 * _quad_weight(other) * _real_anchor(other, axis)
        peak, curvature = (cyy * rx - cxy * ry) / det, cxx - cxy * cxy / cyy
    pad = _PAD / math.sqrt(curvature)
    return peak - pad, peak + pad


def _side(prim: Primitive, other: Primitive, kernel, axis: int, n: int, conjugate: bool):
    """Nodes, phased weights and real log-envelope of one factor on one axis."""
    conf, _ = kernel_coefficients(kernel)
    if isinstance(prim, Delta):
        t = np.array([prim.center[axis]])
        return t, np.ones(1, complex), -conf * t**2
    t, w = _nodes(*_box(prim, other, kernel, axis), n)
    phased = w * np.exp((-1j if conjugate else 1j) * prim.momentum[axis] * t)
    return t, phased, -_quad_weight(prim) * (t - _real_anchor(prim, axis)) ** 2 - conf * t**2


def _bands(x, env_x, y, g: Primitive, kernel, axis: int):
    """Each row's maximum of log K in y, and its columns [lo, hi) within log(BAND_DECAY) of
    the largest, one node wider each side; lo = len(y), hi = 0 on a row wholly below."""
    conf, pair = kernel_coefficients(kernel)
    s, c = _quad_weight(g), _real_anchor(g, axis)
    peak = (s * c + pair * x) / (s + conf + pair)  # row maxima of a concave quadratic
    top = env_x - s * (peak - c) ** 2 - conf * peak**2 - pair * (x - peak) ** 2
    reach = top - top.max() - math.log(BAND_DECAY)
    half = np.sqrt(np.maximum(reach, 0.0) / (s + conf + pair))
    lo = np.maximum(np.searchsorted(y, peak - half) - 1, 0)
    hi = np.minimum(np.searchsorted(y, peak + half, "right") + 1, len(y))
    lo[reach < 0.0], hi[reach < 0.0] = len(y), 0
    return lo, hi, peak


def _rows(x, env_x, y, env_y, pair: float, peak=None):
    """K on each row, evaluated as the whole block would be: every column or, given the
    rows' maxima in y, the first, the two nodes either side of the maximum and the last."""
    cols = (None, slice(None))
    if peak is not None:  # log K is concave along a row: its largest node is one of the two
        j = np.clip(np.searchsorted(y, peak), 1, len(y) - 1)[:, None]
        cols = np.hstack([0 * j, j - 1, j, 0 * j + len(y) - 1])
    return np.exp(env_x[:, None] - pair * (x[:, None] - y[cols]) ** 2 + env_y[cols])


def _factors(x, y):
    """[1, -x] and [y; 1], whose product is y - x rounded once: products by 1 are exact."""
    return np.stack([np.ones_like(x), -x], axis=1), np.stack([y, np.ones_like(y)])


def _quad_block(f: Primitive, g: Primitive, kernel, axis: int, n: int) -> complex:
    """u @ K @ v on one axis: the middle factor of K in row strips over their rows' bands,
    the outer ones on u and v, or K whole if one vector; raises unless K decays at its edges."""
    _, pair = kernel_coefficients(kernel)
    x, u, env_x = _side(f, g, kernel, axis, n, conjugate=False)
    y, v, env_y = _side(g, f, kernel, axis, n, conjugate=True)
    peak = None  # a one-node side: K is one vector, evaluated whole
    if len(x) > 1 and len(y) > 1:
        first, stop, peak = _bands(x, env_x, y, g, kernel, axis)
    k = _rows(x, env_x, y, env_y, pair, peak)
    top, most = k.max(axis=1), k.max()
    edge = max(top[[0, -1]].max() * (len(x) > 1), k[:, [0, -1]].max() * (len(y) > 1))
    if most > 0.0 and edge > BOUNDARY_DECAY * most:
        raise BoxTooSmallError(
            f"integrand at box edge is {edge / most:.2e} of its peak; enlarge the box")
    if peak is None:
        return complex(u @ k @ v)
    rows = max(1, _STRIP_BYTES // (8 * len(y)))
    starts = np.arange(0, len(x), rows)
    left, right = _factors(x, y)
    buffer, mv = np.empty(min(rows, len(x)) * len(y)), np.zeros((len(x), 2))
    v = (v * np.exp(env_y)).view(float).reshape(-1, 2)  # columns Re v, Im v: a real product
    for lo, c0, c1 in zip(starts, np.minimum.reduceat(first, starts),
                          np.maximum.reduceat(stop, starts)):
        if c0 >= c1:  # every row of the strip is below the band
            continue
        hi = min(lo + rows, len(x))
        strip = buffer[:(hi - lo) * (c1 - c0)].reshape(hi - lo, -1)
        np.matmul(left[lo:hi], right[:, c0:c1], out=strip)  # y - x
        np.square(strip, out=strip)
        strip *= -pair
        np.exp(strip, out=strip)
        np.matmul(strip, v[c0:c1], out=mv[lo:hi])
    return complex((u * np.exp(env_x)) @ mv.view(complex)[:, 0])


def _quad_pair_level(f: Primitive, g: Primitive, kernel, n: int) -> complex:
    return math.prod((_quad_block(f, g, kernel, axis, n) for axis in range(f.dimension)),
                     start=1.0 + 0j)


def _refine(level_value, spec):
    """Run the refinement ladder; returns (value, estimate, history)."""
    history, n = [], spec.nodes_per_axis
    for _ in range(spec.refinement_levels):
        history.append(level_value(n))
        if not cmath.isfinite(history[-1]):
            raise NumericalFailureError(f"quadrature at {n} nodes per axis is not finite")
        n = 2 * n - 1
    if len(history) == 1:
        return history[0], math.inf, history
    estimate = abs(history[-1] - history[-2])
    if len(history) >= 3:
        prev = abs(history[-2] - history[-3])
        if estimate > 10.0 * prev and estimate > 1e-6 * max(abs(history[-1]), 1e-300):
            raise NumericalFailureError(
                f"quadrature refinement is not converging "
                f"(estimates {prev:.3e} -> {estimate:.3e})")
    return history[-1], estimate, history


def quad_pair_overlap(f: Primitive, g: Primitive, kernel: KernelSpec,
                      spec: QuadratureSpec = QuadratureSpec()) -> tuple[complex, float]:
    """<f, g> under the kernel by tensor-grid quadrature, with an error estimate.

    A delta is substituted exactly, as a one-node side; a delta pair has no
    nodes, so it is integrated once for every level and its estimate is 0.
    """
    if f.dimension != g.dimension:
        raise DomainError("dimension mismatch")
    level = functools.cache(lambda n: _quad_pair_level(f, g, kernel, n))
    delta_pair = isinstance(f, Delta) and isinstance(g, Delta)
    return _refine(lambda n: level(1 if delta_pair else n), spec)[:2]


def quad_inner_product(phi: StateExpr, psi: StateExpr, kernel: KernelSpec,
                       spec: QuadratureSpec = QuadratureSpec()) -> tuple[complex, float]:
    """Inner product of two states by quadrature, with an error estimate.

    The terms are summed as in `inner_product`, unclamped, over per-slot
    matrices of `quad_pair_overlap` values V_k and estimates E_k; the
    estimate is sum(|outer(c, conj(d))| * sum_k E_k prod_{j != k} |V_j|).
    """
    weights, slots = _slot_matrices(phi, psi, lambda fs, gs: np.array(
        [[quad_pair_overlap(f, g, kernel, spec) for g in gs.primitives()]
         for f in fs.primitives()]))
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
    ei, ek = np.zeros_like(x0), np.zeros_like(y0)
    ei[directions[0]], ek[directions[1]] = h, h
    return (f(x0 + ei, y0 + ek) - f(x0 + ei, y0 - ek)
            - f(x0 - ei, y0 + ek) + f(x0 - ei, y0 - ek)) / (4.0 * h * h)
