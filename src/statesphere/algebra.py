"""States as complex combinations of Gaussian-type primitives, and their
inner products in closed form.

Every inner product compiles, primitive pair by primitive pair, into one
canonical complex Gaussian integral

    integral of exp(-z^T A z / 2 + b^T z + c) dz
        = (2 pi)^(n/2) det(A)^(-1/2) exp(b^T A^{-1} b / 2 + c),

where A is complex symmetric with positive-definite real part.  Dirac deltas
are substituted exactly, which lowers the integration dimension instead of
approximating a spike.  `overlap_matrix` evaluates the integrals of every
pair of primitives of two states at once: the ones with a delta in closed
form, broadcast over blocks of pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DivergenceError, DomainError, NumericalFailureError
from .kernels import KernelSpec, Vec, _formed, _positive, as_vec, kernel_coefficients

IMAG_RESIDUE_TOL = 1e-10
CONDITION_CAP = 1e12


def _finite_complex(z, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class Delta:
    """Position eigenstate concentrated at a single point."""

    center: Vec

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec(self.center))

    @property
    def dimension(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class PlaneWave:
    """Momentum eigenstate exp(i p.x); square-summable only under confined kernels."""

    momentum: Vec

    def __post_init__(self):
        object.__setattr__(self, "momentum", as_vec(self.momentum))

    @property
    def dimension(self) -> int:
        return len(self.momentum)


@dataclass(frozen=True)
class Packet:
    """Gaussian packet exp(-|x - center|^2 / (4 width^2)) exp(i momentum.x).

    Unnormalized; the squared amplitude has standard deviation `width`.
    """

    center: Vec
    width: float
    momentum: Vec = None

    def __post_init__(self):
        center = as_vec(self.center)
        object.__setattr__(self, "center", center)
        width = _positive(self.width, "packet width")
        _formed(lambda: 1.0 / (4.0 * width**2), "1/(4 width^2) of the packet width")
        object.__setattr__(self, "width", width)
        momentum = as_vec(self.momentum) if self.momentum is not None else (0.0,) * len(center)
        if len(momentum) != len(center):
            raise DomainError("packet momentum and center dimensions differ")
        object.__setattr__(self, "momentum", momentum)

    @property
    def dimension(self) -> int:
        return len(self.center)


Primitive = Union[Delta, PlaneWave, Packet]


@dataclass(frozen=True)
class StateExpr:
    """Finite complex combination of product primitives.

    Each term is (coefficient, primitive_1, ..., primitive_arity): arity 1
    describes one particle, arity 2 a particle pair in the tensor-product
    space.  All terms share one arity and one dimension.  Terms with a zero
    coefficient are validated, then dropped.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise DomainError("state expression needs at least one term")
        arity = len(self.terms[0]) - 1
        if arity < 1:
            raise DomainError("a term needs a coefficient and at least one primitive")
        dim = None
        terms = []
        for term in self.terms:
            if len(term) != 1 + arity:
                raise DomainError("all terms of a state must have the same arity")
            coeff = _finite_complex(term[0], "coefficient")
            for prim in term[1:]:
                if not isinstance(prim, (Delta, PlaneWave, Packet)):
                    raise DomainError(f"not a primitive: {prim!r}")
                if dim is None:
                    dim = prim.dimension
                elif prim.dimension != dim:
                    raise DomainError("all primitives in a state must share one dimension")
            if coeff != 0:
                terms.append((coeff, *term[1:]))
        if not terms:
            raise DomainError("state expression must have a nonzero coefficient")
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "_arity", arity)
        object.__setattr__(self, "_dim", dim)

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def dimension(self) -> int:
        return self._dim

    @classmethod
    def single(cls, *prims: Primitive, coeff=1.0) -> "StateExpr":
        return cls(((coeff, *prims),))

    def scaled(self, z) -> "StateExpr":
        z = _finite_complex(z, "scale")
        return StateExpr(tuple((t[0] * z, *t[1:]) for t in self.terms))


def blend(wa, a: StateExpr, wb, b: StateExpr) -> StateExpr:
    """Linear combination wa*a + wb*b of two expressions of equal arity and
    dimension; the combined expression rejects a mismatch."""
    wa = _finite_complex(wa, "weight")
    wb = _finite_complex(wb, "weight")
    terms = tuple((wa * t[0], *t[1:]) for t in a.terms)
    terms += tuple((wb * t[0], *t[1:]) for t in b.terms)
    return StateExpr(terms)


@dataclass
class QuadForm:
    """Canonical complex Gaussian exponent: integrand exp(-z^T A z / 2 + b^T z + c)."""

    matrix: np.ndarray
    linear: np.ndarray
    constant: complex

    @property
    def n(self) -> int:
        return len(self.linear)


def _check_form_matrix(a: np.ndarray):
    """Re(A) positive definite, else `DomainError`; cond(A) <= CONDITION_CAP (a real
    A's from its eigenvalues, a complex A's by SVD), else `NumericalFailureError`."""
    eigenvalues = np.linalg.eigvalsh(a.real)  # ascending
    if eigenvalues[0] <= 0.0:
        raise DomainError("real part of the quadratic form is not positive definite")
    cond = np.linalg.cond(a) if np.count_nonzero(a.imag) else eigenvalues[-1] / eigenvalues[0]
    if cond > CONDITION_CAP:
        raise NumericalFailureError(
            f"quadratic form is near singular (condition number above {CONDITION_CAP:g})")


def _free_pair_margin(f_kind: str, s_f: float, g_kind: str, s_g: float,
                      kernel: KernelSpec) -> float:
    """det(M) / 4 = (conf + pair + s_f)(conf + pair + s_g) - pair^2 of the
    per-axis matrix M of two free factors, formed without cancellation (0 for
    two plane waves under a translation kernel); `DivergenceError` unless > 0."""
    conf, pair = kernel_coefficients(kernel)
    margin = (conf + s_f) * (conf + pair + s_g) + pair * (conf + s_g)
    if margin <= 0.0:
        raise DivergenceError(f"inner product of {f_kind} and {g_kind} diverges "
                              f"under {type(kernel).__name__}")
    return margin


def gaussian_integral(form: QuadForm) -> complex:
    """Closed-form value of the canonical Gaussian integral.

    The determinant square root multiplies the principal square roots of the
    eigenvalues of A.  With Re(A) positive definite every eigenvalue lies in
    the right half plane, so this branch is continuous with the real case.

    Raises
    ------
    DomainError
        If the real part of A is not positive definite.
    NumericalFailureError
        If the condition number of A exceeds CONDITION_CAP.
    """
    n = form.n
    if n == 0:
        return complex(np.exp(form.constant))
    a = np.asarray(form.matrix, dtype=complex)
    b = np.asarray(form.linear, dtype=complex)
    _check_form_matrix(a)
    sqrt_det = complex(np.prod(np.sqrt(np.linalg.eigvals(a))))
    x = np.linalg.solve(a, b)
    exponent = 0.5 * complex(np.dot(b, x)) + form.constant
    return complex((2.0 * math.pi) ** (n / 2.0) / sqrt_det * np.exp(exponent))


def _profile(prim: Primitive, conjugate: bool):
    """Quadratic coefficient, linear vector and constant of exp(...) for one
    free factor; `conjugate` selects the complex-conjugated side."""
    sign = -1.0 if conjugate else 1.0
    if isinstance(prim, Packet):
        s = 1.0 / (4.0 * prim.width**2)
        mu = np.array(prim.center)
        p = np.array(prim.momentum)
        return s, 2.0 * s * mu + 1j * sign * p, -s * float(np.dot(mu, mu))
    if isinstance(prim, PlaneWave):
        p = np.array(prim.momentum)
        return 0.0, 1j * sign * p, 0.0
    raise DomainError(f"primitive has no free-variable profile: {prim!r}")


def compile_pair(f: Primitive, g: Primitive, kernel: KernelSpec) -> QuadForm:
    """Compile the inner-product integrand k(x,y) f(x) conj(g(y)) to canonical form.

    Deltas substitute their centers exactly: the form has dimension 2d when
    both factors are free, d when one is a delta, and 0 when both are.
    """
    if f.dimension != g.dimension:
        raise DomainError(f"dimension mismatch between {f!r} and {g!r}")
    d = f.dimension
    conf, pair = kernel_coefficients(kernel)
    eye = np.eye(d)

    if isinstance(f, Delta) and isinstance(g, Delta):
        u = np.array(f.center)
        v = np.array(g.center)
        du = u - v
        c = -conf * float(np.dot(u, u) + np.dot(v, v)) - pair * float(np.dot(du, du))
        return QuadForm(np.empty((0, 0), dtype=complex), np.empty(0, dtype=complex), complex(c))

    if isinstance(f, Delta) or isinstance(g, Delta):
        if isinstance(f, Delta):
            anchor = np.array(f.center)
            s, lin, const = _profile(g, conjugate=True)
        else:
            anchor = np.array(g.center)
            s, lin, const = _profile(f, conjugate=False)
        a = 2.0 * (conf + pair + s) * eye
        b = 2.0 * pair * anchor + lin
        c = -(conf + pair) * float(np.dot(anchor, anchor)) + const
        return QuadForm(a.astype(complex), b.astype(complex), complex(c))

    s_f, lin_f, const_f = _profile(f, conjugate=False)
    s_g, lin_g, const_g = _profile(g, conjugate=True)
    _free_pair_margin(type(f).__name__, s_f, type(g).__name__, s_g, kernel)
    a = np.zeros((2 * d, 2 * d), dtype=complex)
    a[:d, :d] = 2.0 * (conf + pair + s_f) * eye
    a[d:, d:] = 2.0 * (conf + pair + s_g) * eye
    a[:d, d:] = -2.0 * pair * eye
    a[d:, :d] = -2.0 * pair * eye
    b = np.concatenate([lin_f, lin_g]).astype(complex)
    return QuadForm(a, b, complex(const_f + const_g))


def _delta_delta(u: np.ndarray, v: np.ndarray, conf: float, pair: float) -> np.ndarray:
    """Overlaps exp(-conf (|u|^2 + |v|^2) - pair |u - v|^2) of deltas at the
    rows of `u` with deltas at the rows of `v`."""
    du = u[:, None, :] - v
    c = -pair * (du * du).sum(axis=-1)
    if conf:
        c -= conf * ((u * u).sum(axis=1)[:, None] + (v * v).sum(axis=1))
    return np.exp(c)


def _delta_free(anchors: np.ndarray, free, conjugate: bool, conf: float,
                pair: float) -> np.ndarray:
    """Overlaps of deltas at `anchors` (rows) with free primitives (columns).

    The form `compile_pair` builds is A = m I_d with m = 2 (conf + pair + s)
    > 0, so the integral is (2 pi / m)^(d/2) exp(b.b / (2 m) + c) and can
    neither fail nor need the eigen/solve route.  `conjugate` says the free
    primitives are the conjugated (right) side.
    """
    s, lin, const = map(np.array, zip(*(_profile(p, conjugate) for p in free)))
    m = 2.0 * (conf + pair + s)
    b = 2.0 * pair * anchors[:, None, :] + lin
    c = -(conf + pair) * (anchors * anchors).sum(axis=1)[:, None] + const
    d = anchors.shape[1]
    return (2.0 * math.pi / m) ** (d / 2.0) * np.exp((b * b).sum(axis=-1) / (2.0 * m) + c)


@functools.lru_cache(maxsize=256)
def _free_overlap(f: Primitive, g: Primitive, kernel: KernelSpec) -> complex:
    """<f, g> for two free primitives through the general integral; a
    bounded memo, since states repeat the same few primitives.  Errors are
    raised again on every call, not stored."""
    return gaussian_integral(compile_pair(f, g, kernel))


def overlap_matrix(fs, gs, kernel: KernelSpec) -> np.ndarray:
    """Matrix of primitive overlaps <f_i, g_j> under the kernel, linear in f
    and conjugate-linear in g, as a complex (len(fs), len(gs)) array.

    Delta-delta entries (`_delta_delta`) and delta-free entries
    (`_delta_free`) are closed forms, each block in one broadcast pass.
    Free-free entries (packets and plane waves) are
    `gaussian_integral(compile_pair(f, g, kernel))`, memoised per distinct
    pair, and raise what it raises.
    """
    fs, gs = tuple(fs), tuple(gs)
    if len({p.dimension for p in fs} | {p.dimension for p in gs}) > 1:
        bad = next(((f, g) for f in fs for g in gs if f.dimension != g.dimension), None)
        if bad is not None:
            raise DomainError(f"dimension mismatch between {bad[0]!r} and {bad[1]!r}")
    conf, pair = kernel_coefficients(kernel)
    f_delta = [i for i, f in enumerate(fs) if isinstance(f, Delta)]
    g_delta = [j for j, g in enumerate(gs) if isinstance(g, Delta)]
    f_free = [i for i, f in enumerate(fs) if not isinstance(f, Delta)]
    g_free = [j for j, g in enumerate(gs) if not isinstance(g, Delta)]
    u = np.array([fs[i].center for i in f_delta])
    v = np.array([gs[j].center for j in g_delta])
    blocks = []  # (rows, columns, entries)
    if f_delta and g_delta:
        blocks.append((f_delta, g_delta, _delta_delta(u, v, conf, pair)))
    if f_delta and g_free:
        blocks.append((f_delta, g_free,
                       _delta_free(u, [gs[j] for j in g_free], True, conf, pair)))
    if f_free and g_delta:
        blocks.append((f_free, g_delta,
                       _delta_free(v, [fs[i] for i in f_free], False, conf, pair).T))
    if f_free and g_free:
        blocks.append((f_free, g_free, [[_free_overlap(fs[i], gs[j], kernel) for j in g_free]
                                         for i in f_free]))
    if len(blocks) == 1:  # no scatter: its fixed cost shows on 1-3 term states
        return np.asarray(blocks[0][2], dtype=complex)
    out = np.empty((len(fs), len(gs)), dtype=complex)
    for rows, columns, entries in blocks:
        out[np.ix_(rows, columns)] = entries
    return out


def primitive_overlap(f: Primitive, g: Primitive, kernel: KernelSpec) -> complex:
    """<f, g> under the kernel, linear in f and conjugate-linear in g: the
    1x1 case of `overlap_matrix`."""
    return complex(overlap_matrix((f,), (g,), kernel)[0, 0])


def _clamp_norm(total: complex) -> complex:
    tol = IMAG_RESIDUE_TOL * max(1.0, abs(total))
    if abs(total.imag) > tol:
        raise NumericalFailureError(
            f"norm has imaginary residue {total.imag:.3e} beyond tolerance")
    re = total.real
    if re < 0.0:
        if re < -tol:
            raise NumericalFailureError(f"norm came out negative: {re:.3e}")
        re = 0.0
    return complex(re, 0.0)


def _slot_matrices(phi: StateExpr, psi: StateExpr, pair_matrix):
    """Weights outer(c, conj(d)) of two validated states and, per slot k,
    pair_matrix(slot-k primitives of phi, slot-k primitives of psi)."""
    if not isinstance(phi, StateExpr) or not isinstance(psi, StateExpr):
        raise DomainError("inner products need two state expressions")
    if phi.arity != psi.arity:
        raise DomainError(f"states have different arities ({phi.arity} and {psi.arity})")
    if phi.dimension != psi.dimension:
        raise DomainError("states have different dimensions")
    c = np.array([t[0] for t in phi.terms])
    d = np.array([t[0] for t in psi.terms])
    slots = [pair_matrix([t[k] for t in phi.terms], [t[k] for t in psi.terms])
             for k in range(1, phi.arity + 1)]
    return c[:, None] * d.conj(), slots


def _pairwise(fs, gs, pair) -> np.ndarray:
    """Matrix of pair(f, g) over the primitives fs (rows) and gs (columns)."""
    return np.array([[pair(f, g) for g in gs] for f in fs])


def _sum_terms(phi: StateExpr, psi: StateExpr, pair_matrix) -> complex:
    """Sum over term pairs of c_i conj(d_j) times the product, particle by
    particle, of the primitive overlaps: the one array reduction
    sum(outer(c, conj(d)) * M_1 * ... * M_arity) over `_slot_matrices`.
    For phi == psi the value is real nonnegative; an imaginary residue within
    1e-10 (relative) is clamped to zero, anything larger raises.
    """
    weights, matrices = _slot_matrices(phi, psi, pair_matrix)
    total = complex(math.prod(matrices, start=weights).sum())
    if phi == psi:
        total = _clamp_norm(total)
    return total


def inner_product(phi: StateExpr, psi: StateExpr, kernel: KernelSpec) -> complex:
    """Sesquilinear inner product, linear in `phi` and conjugate-linear in `psi`.

    On pair states the factors of each product term multiply.
    """
    return _sum_terms(phi, psi, lambda fs, gs: overlap_matrix(fs, gs, kernel))


def norm_sq(expr: StateExpr, kernel: KernelSpec) -> float:
    """Squared kernel norm of a state (real, nonnegative)."""
    return inner_product(expr, expr, kernel).real


def hilbert_norm(expr: StateExpr, kernel: KernelSpec) -> float:
    return math.sqrt(norm_sq(expr, kernel))


def _l2_pair(f: Packet, g: Packet) -> complex:
    s_f, lin_f, const_f = _profile(f, conjugate=False)
    s_g, lin_g, const_g = _profile(g, conjugate=True)
    d = f.dimension
    a = 2.0 * (s_f + s_g) * np.eye(d, dtype=complex)
    return gaussian_integral(QuadForm(a, lin_f + lin_g, complex(const_f + const_g)))


def l2_inner_product(phi: StateExpr, psi: StateExpr) -> complex:
    """Ordinary L2 inner product; defined for packet-only states.

    Deltas and plane waves are rejected since they are not square-integrable.
    """
    for prim in (p for expr in (phi, psi) for term in expr.terms for p in term[1:]):
        if not isinstance(prim, Packet):
            raise DomainError(f"L2 inner product requires packets only, got {type(prim).__name__}")
    return _sum_terms(phi, psi, lambda fs, gs: _pairwise(fs, gs, _l2_pair))
