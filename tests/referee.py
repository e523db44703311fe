"""A 50-digit referee for the closed forms, in mpmath, sharing no code with the engine.

Every primitive-pair overlap is a product over axes.  On one axis the kernel is
exp(-conf (x^2 + y^2) - pair (x - y)^2), a delta at u substitutes x = u, and a free
primitive is exp(-s x^2 + l x + c): a packet (center mu, width w, momentum p) has
s = 1/(4 w^2), l = 2 s mu + i p and c = -s mu^2, a plane wave s = c = 0 and l = i p;
the conjugated side has -i p.  So an axis has one of three closed forms:

- two deltas: exp(-conf (u^2 + v^2) - pair (u - v)^2);
- a delta at u and a free side: sqrt(pi / a) exp(b^2 / (4 a) - (conf + pair) u^2 + c),
  a = conf + pair + s and b = 2 pair u + l;
- two free sides: 2 pi det(M)^(-1/2) exp(b^T M^-1 b / 2 + c_f + c_g), with
  M = 2 [[conf + pair + s_f, -pair], [-pair, conf + pair + s_g]] and b = (l_f, l_g).
  det(M) / 4 = (conf + s_f)(conf + pair + s_g) + pair (conf + s_g) is formed without
  cancellation; where it is <= 0 (two plane waves under a translation kernel) the
  integral diverges and the referee raises `DivergenceError`.

Values are read from the primitives' and kernels' float fields (the width, not the
engine's rounded s; sigma, not its rounded 1/(2 sigma^2)) and evaluated at DPS
digits, or at the caller's working precision if that is higher.  mpmath's exponent
range is unbounded, so exp(-1800) is no underflow, but a value that cancels keeps
only DPS digits less the cancellation: 1 - exp(-b^2 / 2) at b = 1e-9 keeps about 32
(`sphere_angle` raises its digits until it keeps DPS).  Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed. (SIAM 2002); mpmath (mpmath.org).
"""

import mpmath
from mpmath import mpf

from statesphere import Delta, DivergenceError, PlaneWave, TranslationKernel

DPS = 50
MAX_DPS = 1600  # sphere_angle's digits at most


def _digits() -> int:
    """DPS, or the caller's working precision if higher: a referee never lowers it."""
    return max(DPS, mpmath.mp.dps)


def coefficients(kernel) -> tuple:
    """(conf, pair) of the kernel, from its fields."""
    if isinstance(kernel, TranslationKernel):
        return mpf(0), 1 / (2 * mpf(kernel.sigma) ** 2)
    return mpf(kernel.alpha), mpf(kernel.beta)


def _profile(prim, axis: int, conjugate: bool) -> tuple:
    """(s, l, c) of a free primitive on one axis, of its conjugate if `conjugate`."""
    wave = mpmath.mpc(0, -prim.momentum[axis] if conjugate else prim.momentum[axis])
    if isinstance(prim, PlaneWave):
        return mpf(0), wave, mpf(0)
    s, mu = 1 / (4 * mpf(prim.width) ** 2), mpf(prim.center[axis])
    return s, 2 * s * mu + wave, -s * mu * mu


def _axis(f, g, axis: int, conf, pair):
    if isinstance(f, Delta) and isinstance(g, Delta):
        u, v = mpf(f.center[axis]), mpf(g.center[axis])
        return mpmath.exp(-conf * (u * u + v * v) - pair * (u - v) ** 2)
    if isinstance(f, Delta) or isinstance(g, Delta):
        delta, free, conjugate = (f, g, True) if isinstance(f, Delta) else (g, f, False)
        u, (s, l, c) = mpf(delta.center[axis]), _profile(free, axis, conjugate)
        a, b = conf + pair + s, 2 * pair * u + l
        return mpmath.sqrt(mpmath.pi / a) * mpmath.exp(b * b / (4 * a) - (conf + pair) * u * u + c)
    (s_f, l_f, c_f), (s_g, l_g, c_g) = _profile(f, axis, False), _profile(g, axis, True)
    m11, m22, m12 = 2 * (conf + pair + s_f), 2 * (conf + pair + s_g), -2 * pair
    det = 4 * ((conf + s_f) * (conf + pair + s_g) + pair * (conf + s_g))  # det(M)
    if det <= 0:
        raise DivergenceError(f"inner product of {type(f).__name__} and {type(g).__name__} "
                              "diverges")
    quad = (m22 * l_f * l_f - 2 * m12 * l_f * l_g + m11 * l_g * l_g) / det  # b^T M^-1 b
    return 2 * mpmath.pi / mpmath.sqrt(det) * mpmath.exp(quad / 2 + c_f + c_g)


def overlap(f, g, kernel) -> mpmath.mpc:
    """<f, g> under the kernel, linear in f and conjugate-linear in g."""
    assert f.dimension == g.dimension
    with mpmath.workdps(_digits()):
        conf, pair = coefficients(kernel)
        return mpmath.mpc(mpmath.fprod(_axis(f, g, axis, conf, pair)
                                       for axis in range(f.dimension)))


def inner_product(phi, psi, kernel) -> mpmath.mpc:
    """<phi, psi> term by term: the sum of c_i conj(d_j) times the slots' overlaps."""
    with mpmath.workdps(_digits()):
        return mpmath.fsum(mpmath.mpc(ci) * mpmath.conj(dj)
                           * mpmath.fprod(overlap(f, g, kernel) for f, g in zip(fs, gs))
                           for ci, *fs in phi.terms for dj, *gs in psi.terms)


def norm(expr, kernel) -> mpf:
    """The kernel norm of a state."""
    with mpmath.workdps(_digits()):
        return mpmath.sqrt(mpmath.re(inner_product(expr, expr, kernel)))


def sphere_angle(phi, psi, kernel) -> mpf:
    """The angle between two states as vectors: arccos of Re<phi, psi> / (|phi| |psi|).

    Near 0 (or pi) 1 - |cos| cancels the leading digits: 1 - exp(-b^2 / 2) at b = 1e-300
    needs about 650.  So the digits double until 1 - |cos| keeps DPS of them, up to
    MAX_DPS, enough for deltas any two distinct floats apart (b^2 >= 2.5e-647).
    """
    dps = _digits()
    while True:
        with mpmath.workdps(dps):
            cosine = mpmath.re(inner_product(phi, psi, kernel)) / (norm(phi, kernel)
                                                                   * norm(psi, kernel))
            if 1 - abs(cosine) > mpf(10) ** (DPS - dps) or dps >= MAX_DPS:
                return mpmath.acos(max(-1, min(1, cosine)))
        dps *= 2
