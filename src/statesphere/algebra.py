"""States as complex combinations of Gaussian-type primitives, and their
inner products in closed form.

Every inner product compiles, primitive pair by primitive pair, into one
canonical complex Gaussian integral

    integral of exp(-z^T A z / 2 + b^T z + c) dz
        = (2 pi)^(n/2) det(A)^(-1/2) exp(b^T A^{-1} b / 2 + c),

where A is complex symmetric with positive-definite real part.  Dirac deltas
are substituted exactly, which lowers the integration dimension instead of
approximating a spike.  `overlap_matrix` evaluates the integrals of every
pair of primitives of two states at once, block by block: the ones with a
delta in closed form, broadcast, the rest as one stack of forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DivergenceError, DomainError, NumericalFailureError
from .kernels import (MAX_DIMENSION, KernelSpec, TranslationKernel, Vec, _finite_complex, _formed,
                      _positive, _reals, as_vec, kernel_coefficients)

IMAG_RESIDUE_TOL = 1e-10
CONDITION_CAP = 1e12
_NEAR_SINGULAR = f"quadratic form is near singular (condition number above {CONDITION_CAP:g})"


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
KINDS = (Delta, PlaneWave, Packet)  # the kind codes of a `Basis`
_FIELDS = ("kind", "center", "width", "momentum", "s")


class Basis:
    """The distinct primitives of one particle slot as read-only arrays: `kind`
    (codes into KINDS), `center` (n, d), `width`, `s` = 1/(4 width^2) and
    `momentum` (n, d), 0 where a kind lacks the field.  The constructor takes
    arrays, or one value (one KINDS class for `kind`) for every row, and checks
    them at once; a bad row raises the message its primitive raises.  `of`
    takes primitive objects.  `_split` keeps a basis's `split`, None until it is
    first read."""

    __slots__ = (*_FIELDS, "_split")

    def __init__(self, kind, center, width=0.0, momentum=0.0):
        center, width, momentum = map(_reals, (center, width, momentum),
                                      ("coordinates", "packet width", "coordinates"))
        if center.ndim != 2 or not 0 < center.shape[1] <= MAX_DIMENSION:
            raise DomainError(f"dimension must be an integer from 1 to {MAX_DIMENSION}, "
                              f"got centers of shape {center.shape}")
        kind = np.array(KINDS.index(kind) if isinstance(kind, type) and kind in KINDS else kind)
        bad = kind.ravel() if kind.dtype.kind not in "iu" else kind[(kind < 0) | (kind > 2)]
        if bad.size:
            raise DomainError(f"not a primitive: kind {bad.tolist()[0]!r}")
        fields = np.empty(len(center), int), np.empty(len(center)), np.empty(center.shape)
        try:  # each field takes its array, or one value for every row
            for field, value in zip(fields, (kind, width, momentum)):
                field[...] = value
        except ValueError:
            raise DomainError(f"the arrays of a basis need {len(center)} rows") from None
        self.kind, width, momentum = fields
        packet = self.kind == 2
        self.center, self.momentum = (np.where(absent[:, None], 0.0, vectors) for absent, vectors
                                      in ((self.kind == 1, center), (self.kind == 0, momentum)))
        self.width, fine = np.where(packet, width, 0.0), True
        if packet.any():  # as Packet checks them: width > 0 and 0 < 1/(4 width^2) < inf
            with np.errstate(all="ignore"):
                s = 1.0 / (4.0 * width[packet]**2)
            fine = ((width[packet] > 0.0) & (s > 0.0) & (s < math.inf)).all()
        if not (fine and np.isfinite(self.center).all() and np.isfinite(self.momentum).all()):
            self.primitives()  # raises the first bad row's message
        self._set(self.kind, self.center, self.width, self.momentum)

    def _set(self, kind, center, width, momentum, s=None) -> "Basis":
        if s is None:  # as Packet forms it, in Python floats
            s = np.array([1.0 / (4.0 * w**2) if w else 0.0 for w in width.tolist()]
                         if width.any() else np.zeros(len(width)))
        for name, field in zip(_FIELDS, (kind, center, width, momentum, s)):
            field.setflags(write=False)
            setattr(self, name, field)
        self._split = None
        return self

    @classmethod
    def of(cls, prims) -> "Basis":
        if len({p.dimension for p in prims}) > 1:
            raise DomainError("all primitives in a state must share one dimension")
        kind, zero = np.array([KINDS.index(type(p)) for p in prims]), (0.0,) * prims[0].dimension
        width, momentum = np.zeros(len(prims)), np.zeros((len(prims), len(zero)))
        free = [p for p in prims if type(p) is not Delta]
        if free:  # a delta has neither field
            width[kind != 0] = [getattr(p, "width", 0.0) for p in free]
            momentum[kind != 0] = [p.momentum for p in free]
        return object.__new__(cls)._set(
            kind, np.array([getattr(p, "center", zero) for p in prims]), width, momentum)

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def dimension(self) -> int:
        return self.center.shape[1]

    def primitives(self) -> list:
        return [Delta(c) if k == 0 else PlaneWave(p) if k == 1 else Packet(c, w, p)
                for k, c, w, p in zip(self.kind.tolist(), self.center.tolist(),
                                      self.width.tolist(), self.momentum.tolist())]

    def split(self):
        """Delta rows, free rows, and the free rows' profile (s, linear vector, constant)
        of exp(...), once per basis: a packet's is (s, 2 s mu + i p, -s |mu|^2), finite or
        `NumericalFailureError`, a plane wave's (0, i p, 0), and with no free rows it is
        (None,) * 3.  The conjugated side of an inner product conjugates the linear vector
        where it reads it."""
        if self._split is None:
            free, profile = self.kind.nonzero()[0], (None,) * 3
            if len(free):
                s, mu, packet = self.s[free], self.center[free], self.kind[free] == 2
                lin, const = 1j * self.momentum[free], 0.0  # a plane wave's
                if packet.any():
                    with np.errstate(over="ignore", invalid="ignore"):  # checked below
                        scaled = (2.0 * s)[:, None] * mu  # inf * 0 is NaN: checks 2 s too
                        const = -s * (mu[:, None] @ mu[..., None])[:, 0, 0]
                    if not (np.isfinite(scaled).all() and np.isfinite(const).all()):
                        raise NumericalFailureError("a packet's profile is not finite: 2 s, "
                                                    "2 s center or s |center|^2 overflows")
                    lin = np.where(packet[:, None], scaled + lin, lin)
                profile = s, lin, np.where(packet, const, 0.0)
            self._split = (self.kind == 0).nonzero()[0], free, profile
        return self._split

    def cut(self, idx: np.ndarray):
        """This basis cut to the rows `idx` uses, and `idx` into it."""
        used = np.bincount(idx, minlength=len(self)) > 0
        if used.all():
            return self, idx
        return (object.__new__(Basis)._set(*(getattr(self, name)[used] for name in _FIELDS)),
                (np.cumsum(used) - 1)[idx])


def _stacked(bases) -> Basis:
    """One basis of the rows of `bases`, in their order."""
    return object.__new__(Basis)._set(*(np.concatenate([getattr(b, name) for b in bases])
                                        for name in _FIELDS))


def _joined(a: Basis, ia, b: Basis, ib):
    """One basis of `a` and `b` (`a` if they are one), and the rows into it."""
    if a is b:
        return a, np.concatenate([ia, ib])
    return _stacked([a, b]), np.concatenate([ia, ib + len(a)])


def _checked(coeffs, bases, indices) -> tuple:
    """Copies of a state's arrays, checked once each with the messages of the term-by-term
    checks."""
    try:
        coeffs, indices = np.array(coeffs, dtype=complex), [np.array(i) for i in indices]
    except (TypeError, ValueError, OverflowError):
        raise DomainError("a state needs complex coefficients and integer row arrays") from None
    if coeffs.ndim != 1 or not len(coeffs):
        raise DomainError("state expression needs at least one term")
    if not bases:
        raise DomainError("a term needs a coefficient and at least one primitive")
    if len(indices) != len(bases) or any(i.shape != coeffs.shape for i in indices):
        raise DomainError("all terms of a state must have the same arity")
    if not np.isfinite(coeffs).all():
        _finite_complex(coeffs[~np.isfinite(coeffs)][0], "coefficient")
    for basis, i in zip(bases, indices):
        if not (isinstance(basis, Basis) and i.dtype.kind in "iu"
                and 0 <= min(i.tolist()) and max(i.tolist()) < len(basis)):
            raise DomainError("each slot needs a Basis and integer rows into it")
    indices = [i.astype(np.intp, copy=False) for i in indices]  # one dtype: equal rows, equal bytes
    if len({basis.dimension for basis in bases}) > 1:
        raise DomainError("all primitives in a state must share one dimension")
    return coeffs, bases, indices


class StateExpr:
    """Finite complex combination of product primitives.

    Each term is (coefficient, primitive_1, ..., primitive_arity): arity 1
    describes one particle, arity 2 a particle pair in the tensor-product
    space.  All terms share one arity and one dimension.  Terms with a zero
    coefficient are validated, then dropped.  A state is stored as arrays:
    `coeffs`, and per slot k a `Basis` `bases[k]` of primitives and
    `indices[k]`, each term's row in it; `from_arrays` takes these directly,
    and `.terms` is built from them on first read.  Equality and hashing go
    by the terms' values.
    """

    def __init__(self, terms):
        if any(len(term) != len(terms[0]) for term in terms):
            raise DomainError("all terms of a state must have the same arity")
        bad = [p for term in terms for p in term[1:] if not isinstance(p, KINDS)]
        if bad:
            raise DomainError(f"not a primitive: {bad[0]!r}")
        rows = [{} for _ in terms[0][1:]] if terms else []  # per slot: distinct primitives
        indices = [[slot.setdefault(p, len(slot)) for p in prims]
                   for slot, prims in zip(rows, list(zip(*terms))[1:])]
        self._set(*_checked([_finite_complex(term[0], "coefficient") for term in terms],
                            [Basis.of(list(slot)) for slot in rows], indices))

    @classmethod
    def from_arrays(cls, coeffs, bases, indices) -> "StateExpr":
        """State of coefficients `coeffs` and, per slot, the `Basis` `bases[k]` and
        the term rows `indices[k]` into it: for large states, or many states over
        one basis, which is kept whole: its rows no term uses are checked but take
        no part in inner products."""
        return object.__new__(cls)._set(*_checked(coeffs, bases, indices), whole=False)

    def _set(self, coeffs, bases, indices, whole=True) -> "StateExpr":
        """Store the arrays read-only, zero terms dropped; `whole`: every basis row is a
        kept term's."""
        if not coeffs.all():
            if not coeffs.any():
                raise DomainError("state expression must have a nonzero coefficient")
            coeffs, indices, whole = coeffs[coeffs != 0], [i[coeffs != 0] for i in indices], False
        for array in (coeffs, *indices):
            array.setflags(write=False)
        self.__dict__.update(coeffs=coeffs, bases=tuple(bases), indices=tuple(indices),
                             _whole=whole)
        return self

    def _slots(self) -> list:
        """Per slot, (basis, term rows), the basis cut to the rows the terms use."""
        slots = zip(self.bases, self.indices)
        return list(slots) if self._whole else [basis.cut(idx) for basis, idx in slots]

    def __setattr__(self, name, value):
        raise AttributeError(f"StateExpr is immutable; cannot set {name!r}")

    @property
    def arity(self) -> int:
        return len(self.bases)

    @property
    def dimension(self) -> int:
        return self.bases[0].dimension

    @functools.cached_property
    def terms(self) -> tuple:
        prims = [basis.primitives() for basis in self.bases]
        return tuple(zip(self.coeffs.tolist(), *([p[i] for i in idx.tolist()]
                                                 for p, idx in zip(prims, self.indices))))

    @functools.cached_property
    def _key(self) -> tuple:
        """The terms' values as bytes, -0.0 read as 0.0: the coefficients, and
        per term the kind, width, center and momentum of each slot."""
        rows = [np.column_stack([b.kind[i], b.width[i], b.center[i], b.momentum[i]])
                for b, i in zip(self.bases, self.indices)]
        return self.arity, (self.coeffs + 0.0).tobytes(), (np.hstack(rows) + 0.0).tobytes()

    def __eq__(self, other):
        if not isinstance(other, StateExpr):
            return NotImplemented
        # term counts first, since a key is a pass over every term
        return self is other or (len(self.coeffs) == len(other.coeffs) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"StateExpr(terms={self.terms!r})"

    @classmethod
    def single(cls, *prims: Primitive, coeff=1.0) -> "StateExpr":
        return cls(((coeff, *prims),))

    def scaled(self, z) -> "StateExpr":
        z = _finite_complex(z, "scale")  # Python's complex product: numpy's may fuse a multiply-add
        return object.__new__(StateExpr)._set(np.array([c * z for c in self.coeffs.tolist()]),
                                              self.bases, self.indices, self._whole)


def _joined_slots(a: StateExpr, b: StateExpr) -> tuple:
    """Per slot the bases of a and b joined and the rows of a's terms, then b's, in
    them, with whether both states are whole: what `_blended` shares across weights."""
    if (a.arity, a.dimension) != (b.arity, b.dimension):
        raise DomainError("all terms of a state must have the same arity and dimension")
    return (*zip(*map(_joined, a.bases, a.indices, b.bases, b.indices)), a._whole and b._whole)


def blend(wa, a: StateExpr, wb, b: StateExpr) -> StateExpr:
    """Linear combination wa*a + wb*b of two expressions of equal arity and
    dimension, each slot's bases joined.  A mismatch is rejected."""
    return _blended(wa, a, wb, b)


def _blended(wa, a: StateExpr, wb, b: StateExpr, slots: tuple | None = None) -> StateExpr:
    """`blend` over `slots`, if given: the `_joined_slots(a, b)` of many blends."""
    wa = _finite_complex(wa, "weight")
    wb = _finite_complex(wb, "weight")
    coeffs = [wa * c for c in a.coeffs.tolist()] + [wb * c for c in b.coeffs.tolist()]
    return object.__new__(StateExpr)._set(np.array(coeffs), *(slots or _joined_slots(a, b)))


def _check_free_pairs(s_f: list, s_g: list, kernel: KernelSpec):
    """The one rule for whether free pairs' forms are usable: per distinct pair of the
    floats `s_f` (rows) and `s_g` (columns; 0 a plane wave's), row by row, the per-axis
    M = 2 [[conf + pair + s_f, -pair], [-pair, conf + pair + s_g]] needs det(M) / 4 =
    (conf + s_f)(conf + pair + s_g) + pair (conf + s_g) > 0, formed without cancellation,
    else `DivergenceError`, and cond(M) = lambda_max^2 / det(M) <= CONDITION_CAP, taken on
    M over its largest entry so that no product overflows, else `NumericalFailureError`."""
    conf, pair = kernel_coefficients(kernel)
    for f in dict.fromkeys(s_f):
        for g in dict.fromkeys(s_g):
            if (conf + f) * (conf + pair + g) + pair * (conf + g) <= 0.0:
                f_kind, g_kind = ("Packet" if s else "PlaneWave" for s in (f, g))
                raise DivergenceError(f"inner product of {f_kind} and {g_kind} diverges "
                                      f"under {type(kernel).__name__}")
            a, b = conf + pair + f, conf + pair + g
            top = max(a, b)
            a, b, p = a / top, b / top, pair / top
            det = (conf + f) / top * b + p * ((conf + g) / top)  # det(M / (2 top))
            largest = 0.5 * (a + b) + math.hypot(0.5 * (a - b), p)
            if largest * largest > CONDITION_CAP * det:
                raise NumericalFailureError(_NEAR_SINGULAR)


def _integrals(a: np.ndarray, b: np.ndarray, c: list) -> list:
    """The integrals of exp(-z^T A z / 2 + b^T z + c) of a stack of checked forms, complex
    A (m, n, n) and b (m, n), n > 0, and constants c: (2 pi)^(n/2) det(A)^(-1/2)
    exp(b^T A^-1 b / 2 + c), the root of det(A) the product of the principal roots of
    A's eigenvalues (in the right half plane, as Re(A) is positive definite).  Each
    entry has its lone form's bits: LAPACK runs form by form, matmul dots as np.dot,
    math.prod from 1 multiplies as np.prod."""
    roots = np.sqrt(np.linalg.eigvals(a)).tolist()
    dots = (b[:, None, :] @ np.linalg.solve(a, b[:, :, None])).ravel().tolist()
    scale = (2.0 * math.pi) ** (b.shape[1] / 2.0)
    return [complex(scale / math.prod(r, start=1 + 0j) * np.exp(0.5 * dot + ci))
            for r, dot, ci in zip(roots, dots, c)]


def _free_forms(f_profile, g_profile, conf: float, pair: float):
    """Forms of the free factors of `Basis.split` profiles f_profile (rows) and g_profile
    (columns, conjugated), row by row: A = M (x) I_d, M = 2 [[conf + pair + s_f, -pair],
    [-pair, conf + pair + s_g]]; b (m, 2d); c, a list."""
    (s_f, lin_f, const_f), (s_g, lin_g, const_g) = f_profile, g_profile
    nf, (ng, d), n = len(s_f), lin_g.shape, 2 * lin_g.shape[1]
    a = np.zeros((nf, ng, n, n), dtype=complex)
    flat = a.reshape(nf, ng, -1)  # a view: its diagonals are strided slices
    flat[..., :d * (n + 1):n + 1] = (2.0 * (conf + pair + s_f))[:, None, None]
    flat[..., d * (n + 1)::n + 1] = (2.0 * (conf + pair + s_g))[:, None]
    flat[..., d:d * n:n + 1] = flat[..., d * n::n + 1] = -2.0 * pair
    b = np.empty((nf, ng, n), dtype=complex)
    b[..., :d], b[..., d:] = lin_f[:, None], lin_g
    c = [complex(x + y) for x in const_f.tolist() for y in const_g.tolist()]
    return a.reshape(-1, n, n), b.reshape(-1, n), c


def _delta_delta(u: np.ndarray, v: np.ndarray, conf: float, pair: float) -> np.ndarray:
    """Overlaps exp(-conf (|u|^2 + |v|^2) - pair |u - v|^2) of deltas at the
    rows of `u` with deltas at the rows of `v`."""
    du = u[:, None, :] - v
    c = -pair * (du * du).sum(axis=-1)
    if conf:
        c -= conf * ((u * u).sum(axis=1)[:, None] + (v * v).sum(axis=1))
    return np.exp(c)


def _isotropic(m, b: np.ndarray, c) -> np.ndarray:
    """The integral of exp(-m |z|^2 / 2 + b.z + c) over R^d, d = b.shape[-1], m > 0."""
    d = b.shape[-1]
    return (2.0 * math.pi / m) ** (d / 2.0) * np.exp((b * b).sum(axis=-1) / (2.0 * m) + c)


def _delta_free(anchors: np.ndarray, profile, conf: float, pair: float) -> np.ndarray:
    """Overlaps of deltas at `anchors` (rows) with free primitives (columns) of
    `Basis.split` profile (s, linear vectors, constants).

    Substituting the delta leaves the form A = m I_d with m = 2 (conf + pair + s)
    > 0, so the integral is `_isotropic` and can neither fail nor need the
    eigen/solve route.
    """
    s, lin, const = profile
    m = 2.0 * (conf + pair + s)
    b = 2.0 * pair * anchors[:, None, :] + lin
    c = -(conf + pair) * (anchors * anchors).sum(axis=1)[:, None] + const
    return _isotropic(m, b, c)


_BLOCK_MEMO_SIZE = 256  # free-free blocks `_free_block` keeps, emptied when full
_blocks: dict = {}


def _free_block(f_profile, g_profile, kernel: KernelSpec) -> np.ndarray:
    """Free-free overlaps of two `Basis.split` profiles, the columns' conjugated:
    `_check_free_pairs` once, then the `_free_forms` in one `_integrals` stack, each entry
    with the bits of its pair's 1x1 block.  Memoised on the profiles' bytes, a copy
    returned; errors are raised again on every call."""
    conf, pair = kernel_coefficients(kernel)
    key = *(x.tobytes() for x in (*f_profile, *g_profile)), conf, pair
    entries = _blocks.get(key)
    if entries is None:
        (s_f, *_), (s_g, *_) = f_profile, g_profile
        _check_free_pairs(s_f.tolist(), s_g.tolist(), kernel)
        entries = np.array(_integrals(*_free_forms(f_profile, g_profile, conf, pair)))
        if len(_blocks) >= _BLOCK_MEMO_SIZE:
            _blocks.clear()
        entries = _blocks[key] = entries.reshape(-1, len(s_g))
    return entries.copy()


def overlap_matrix(fs, gs, kernel: KernelSpec) -> np.ndarray:
    """Matrix of primitive overlaps <f_i, g_j> under the kernel, linear in f
    and conjugate-linear in g, as a complex (len(fs), len(gs)) array; fs and
    gs are each a `Basis` or a sequence of primitives.

    Delta-delta entries (`_delta_delta`) and delta-free entries
    (`_delta_free`) are closed forms, each block in one broadcast pass.
    Free-free entries (packets and plane waves) are the 2d-dimensional integrals
    of `_free_forms`, in one memoised stack per block (`_free_block`), after
    `_check_free_pairs` decides, row by row, whether each pair diverges
    (`DivergenceError`) or is near singular (`NumericalFailureError`).
    """
    if not (isinstance(fs, Basis) and isinstance(gs, Basis)):  # skipped: its cost shows on 1x1
        fs, gs = (b if isinstance(b, Basis) else tuple(b) for b in (fs, gs))
        if len(fs) and len(gs):
            fs, gs = (b if isinstance(b, Basis) else Basis.of(b) for b in (fs, gs))
    if not (len(fs) and len(gs)):
        return np.empty((len(fs), len(gs)), dtype=complex)
    if fs.dimension != gs.dimension:
        raise DomainError(f"dimension mismatch between {fs.dimension}-d and "
                          f"{gs.dimension}-d primitives")
    conf, pair = kernel_coefficients(kernel)
    (f_delta, f_free, f_profile), (g_delta, g_free, g_profile) = fs.split(), gs.split()
    if len(g_free):  # the conjugated side
        g_profile = g_profile[0], g_profile[1].conj(), g_profile[2]
    u = fs.center[f_delta] if len(f_delta) else None  # an empty index costs as much as a row
    v = gs.center[g_delta] if len(g_delta) else None
    blocks = []  # (rows, columns, entries)
    if len(f_delta) and len(g_delta):
        blocks.append((f_delta, g_delta, _delta_delta(u, v, conf, pair)))
    if len(f_delta) and len(g_free):
        blocks.append((f_delta, g_free, _delta_free(u, g_profile, conf, pair)))
    if len(f_free) and len(g_delta):
        blocks.append((f_free, g_delta, _delta_free(v, f_profile, conf, pair).T))
    if len(f_free) and len(g_free):
        blocks.append((f_free, g_free, _free_block(f_profile, g_profile, kernel)))
    if len(blocks) == 1:  # no scatter: its fixed cost shows on 1-3 term states
        return np.asarray(blocks[0][2], dtype=complex)
    out = np.empty((len(fs), len(gs)), dtype=complex)
    for rows, columns, entries in blocks:
        out[rows[:, None], columns] = entries
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


def _slot_matrices(phi: StateExpr, psi: StateExpr, pair_matrix) -> list:
    """Per slot k of two validated states, pair_matrix(slot-k basis of phi, slot-k
    basis of psi) at the term rows."""
    if not isinstance(phi, StateExpr) or not isinstance(psi, StateExpr):
        raise DomainError("inner products need two state expressions")
    if phi.arity != psi.arity:
        raise DomainError(f"states have different arities ({phi.arity} and {psi.arity})")
    if phi.dimension != psi.dimension:
        raise DomainError("states have different dimensions")
    return [pair_matrix(fs, gs)[ia][:, ib]
            for (fs, ia), (gs, ib) in zip(phi._slots(), psi._slots())]


def _sum_terms(phi: StateExpr, psi: StateExpr, matrices) -> complex:
    """Sum over term pairs of c_i conj(d_j) times the product, particle by particle, of
    the primitive overlaps: the one reduction sum(outer(c, conj(d)) * M_1 * ... * M_arity)
    over the per-slot term matrices M_k.  For phi == psi the value is real nonnegative;
    an imaginary residue within 1e-10 (relative) is clamped to zero, anything larger raises.
    """
    total = complex(math.prod(matrices, start=phi.coeffs[:, None] * psi.coeffs.conj()).sum())
    # the clamp leaves a real total >= 0 with imaginary part +0.0 as it is: skip comparing then
    if (total.real < 0.0 or math.copysign(1.0, total.imag) < 0.0 or total.imag) and phi == psi:
        total = _clamp_norm(total)
    return total


def inner_product(phi: StateExpr, psi: StateExpr, kernel: KernelSpec) -> complex:
    """Sesquilinear inner product, linear in `phi` and conjugate-linear in `psi`.

    On pair states the factors of each product term multiply.
    """
    return _sum_terms(phi, psi, _slot_matrices(
        phi, psi, lambda fs, gs: overlap_matrix(fs, gs, kernel)))


def norm_sq(expr: StateExpr, kernel: KernelSpec) -> float:
    """Squared kernel norm of a state (real, nonnegative)."""
    return inner_product(expr, expr, kernel).real


def hilbert_norm(expr: StateExpr, kernel: KernelSpec) -> float:
    return math.sqrt(norm_sq(expr, kernel))


def _l2_matrix(fs: Basis, gs: Basis) -> np.ndarray:
    """L2 overlaps of the packets of fs (rows) and gs (columns): the forms
    (2 (s_f + s_g) I, lin_f + conj(lin_g), const_f + const_g), in closed form.
    Deltas and plane waves are rejected since they are not square-integrable."""
    for basis in (fs, gs):  # cut to the rows the terms use
        if (basis.kind != 2).any():
            raise DomainError("L2 inner product requires packets only, got "
                              f"{KINDS[basis.kind[basis.kind != 2][0]].__name__}")
    (s_f, lin_f, const_f), (s_g, lin_g, const_g) = fs.split()[2], gs.split()[2]
    return _isotropic(2.0 * (s_f[:, None] + s_g), lin_f[:, None] + lin_g.conj(),
                      const_f[:, None] + const_g)


def l2_inner_product(phi: StateExpr, psi: StateExpr) -> complex:
    """Ordinary L2 inner product; defined for packet-only states (`_l2_matrix`)."""
    return _sum_terms(phi, psi, _slot_matrices(phi, psi, _l2_matrix))


def norm_ratio(phi, kernel: TranslationKernel) -> float:
    """Kernel-norm to L2-norm ratio of a packet state, mass-normalized.

    Returns <phi,phi>_K / ((2 pi sigma^2)^(d/2) <phi,phi>_L2).  The divisor is
    the total mass of the Gaussian kernel, so the ratio tends to 1 as packet
    widths grow large against sigma.
    """
    if not isinstance(kernel, TranslationKernel):
        raise DomainError("norm_ratio compares against translation kernels only")
    l2_norm = l2_inner_product(phi, phi).real  # rejects anything but packets
    h_norm = inner_product(phi, phi, kernel).real
    mass = (2.0 * math.pi * kernel.sigma**2) ** (phi.dimension / 2.0)
    return h_norm / (mass * l2_norm)
