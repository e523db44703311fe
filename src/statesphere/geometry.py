"""States on the unit sphere, great-circle paths between them, and the
conversion of arc lengths to physical collapse times in Planck units.

The sphere has unit radius in the kernel norm; distances between states are
angles, so with the Planck length as the unit of length an arc of theta
radians is theta Planck lengths, and a collapse traversing it at a given
speed takes theta * (Planck length) / speed seconds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .algebra import StateExpr, _blended, _joined_slots, inner_product, norm_sq
from .errors import DomainError, GeodesicUndeterminedError
from .kernels import KernelSpec, _positive, _real, as_vec

PLANCK_LENGTH_M = 1.6e-35
LIGHT_SPEED_M_PER_S = 2.99792458e8

_ANTIPODAL_TOL = 1e-12
_DEGENERATE_ANGLE = 1e-12


@dataclass(frozen=True)
class UnitSystem:
    """Physical unit constants; the Planck time is derived from the quotient."""

    planck_length_m: float = PLANCK_LENGTH_M
    light_speed_m_per_s: float = LIGHT_SPEED_M_PER_S

    def __post_init__(self):
        for name in ("planck_length_m", "light_speed_m_per_s"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))

    @property
    def planck_time_s(self) -> float:
        return self.planck_length_m / self.light_speed_m_per_s


@dataclass(frozen=True)
class SphereState:
    """Unit-norm state under a fixed kernel.

    `expr` already carries the rescaling; `raw_norm` is the norm of the
    expression that was normalized, so the original is recoverable.
    """

    expr: StateExpr
    kernel: KernelSpec
    raw_norm: float

    def norm_defect(self) -> float:
        """|<expr,expr> - 1|; diagnostic for the unit-norm invariant."""
        return abs(norm_sq(self.expr, self.kernel) - 1.0)


def _on_sphere(expr: StateExpr, kernel: KernelSpec, n2: float) -> SphereState:
    """`expr` rescaled to unit norm, given its squared norm n2 (finite and > 0, or
    DomainError)."""
    if not math.isfinite(n2) or n2 <= 0.0:
        raise DomainError(f"state has zero or undefined norm ({n2!r}); cannot normalize")
    norm = math.sqrt(n2)
    return SphereState(expr.scaled(complex(1.0 / norm)), kernel, norm)


def normalize(expr: StateExpr, kernel: KernelSpec) -> SphereState:
    """Project a state expression onto the unit sphere of the kernel norm."""
    return _on_sphere(expr, kernel, norm_sq(expr, kernel))


def state_overlap(a: SphereState, b: SphereState) -> complex:
    """Kernel inner product of two unit states."""
    if a.kernel != b.kernel:
        raise DomainError("states live on spheres of different kernels")
    return inner_product(a.expr, b.expr, a.kernel)


def _arc(cosine: float) -> float:
    """arccos of a cosine clamped to [-1, 1]."""
    return math.acos(min(1.0, max(-1.0, cosine)))


def sphere_angle(a: SphereState, b: SphereState) -> float:
    """Angle between the states as vectors: arccos of the real overlap part."""
    return _arc(state_overlap(a, b).real)


def fs_angle(a: SphereState, b: SphereState) -> float:
    """Phase-insensitive angle: arccos of the overlap modulus, in [0, pi/2]."""
    return _arc(abs(state_overlap(a, b)))


@dataclass(frozen=True)
class GeodesicPath:
    """Great-circle path from `start` to `end_aligned` subtending `theta`.

    The end state is the raw end state with the overlap phase removed
    (`alignment_phase`), so the overlap driving the interpolation is real
    and nonnegative.
    """

    start: SphereState
    end_aligned: SphereState
    theta: float
    alignment_phase: float

    @functools.cached_property
    def _slots(self) -> tuple:
        """The endpoints' bases joined, once per path: every `geodesic_at` sample's."""
        return _joined_slots(self.start.expr, self.end_aligned.expr)


def _geodesic(start: SphereState, end: SphereState, ov: complex) -> GeodesicPath:
    """The geodesic from `start` to `end`, whose overlap is `ov`: the end's phase factor
    removed, none if `ov` is 0; antipodal endpoints (real overlap -1) raise
    GeodesicUndeterminedError."""
    if ov.real <= -(1.0 - _ANTIPODAL_TOL):
        raise GeodesicUndeterminedError(
            "endpoints are antipodal; the geodesic plane is undetermined")
    magnitude = abs(ov)
    phase = math.atan2(ov.imag, ov.real) if magnitude > 0.0 else 0.0
    factor = complex(math.cos(phase), math.sin(phase))
    aligned = SphereState(end.expr.scaled(factor), end.kernel, end.raw_norm)
    return GeodesicPath(start, aligned, _arc(magnitude), phase)


def geodesic_between(start: SphereState, end: SphereState) -> GeodesicPath:
    """The geodesic from `start` to `end`; antipodal endpoints have no unique plane."""
    return _geodesic(start, end, state_overlap(start, end))


def geodesic_at(path: GeodesicPath, t: float) -> SphereState:
    """State at parameter t in [0, 1] along the path.

    phi_t = [sin((1-t) theta) start + sin(t theta) end_aligned] / sin(theta);
    unit norm holds because the aligned overlap equals cos(theta).  Below
    _DEGENERATE_ANGLE the path is the start state.
    """
    t = _real(t, "path parameter")
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise DomainError(f"path parameter must lie in [0, 1], got {t!r}")
    theta = path.theta
    if theta < _DEGENERATE_ANGLE:
        return path.start
    sin_theta = math.sin(theta)
    mixed = _blended(math.sin((1.0 - t) * theta) / sin_theta, path.start.expr,
                     math.sin(t * theta) / sin_theta, path.end_aligned.expr, path._slots)
    return SphereState(mixed, path.start.kernel, raw_norm=1.0)


def collapse_time(path: GeodesicPath, units: UnitSystem = UnitSystem(),
                  speed_m_per_s: float | None = None) -> float:
    """Seconds to traverse the path at the given speed (default: light speed)."""
    speed = units.light_speed_m_per_s if speed_m_per_s is None else speed_m_per_s
    return path.theta * units.planck_length_m / _positive(speed, "speed")


def classical_path_length(a, b) -> float:
    """Length of the straight segment between two classical points.

    Measured along the embedded classical manifold this is the Euclidean
    distance |a - b|, which can exceed the chordal sphere distance without
    bound.
    """
    av, bv = as_vec(a), as_vec(b)
    if len(av) != len(bv):
        raise DomainError("points have different dimensions")
    return math.dist(av, bv)
