"""States on the unit sphere, great-circle paths between them, and the
conversion of arc lengths to physical collapse times in Planck units.

The sphere has unit radius in the kernel norm; distances between states are
angles, so with the Planck length as the unit of length an arc of theta
radians is theta Planck lengths, and a collapse traversing it at a given
speed takes theta * (Planck length) / speed seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import StateExpr, as_vec, blend, inner_product, norm_sq
from .errors import DomainError, GeodesicUndeterminedError
from .kernels import KernelSpec, _positive

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
        _positive(self.planck_length_m, "planck_length_m")
        _positive(self.light_speed_m_per_s, "light_speed_m_per_s")

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

    @property
    def is_pair(self) -> bool:
        return self.expr.arity == 2

    def norm_defect(self) -> float:
        """|<expr,expr> - 1|; diagnostic for the unit-norm invariant."""
        return abs(norm_sq(self.expr, self.kernel) - 1.0)


def normalize(expr: StateExpr, kernel: KernelSpec) -> SphereState:
    """Project a state expression onto the unit sphere of the kernel norm."""
    n2 = norm_sq(expr, kernel)
    if not math.isfinite(n2) or n2 <= 0.0:
        raise DomainError(f"state has zero or undefined norm ({n2!r}); cannot normalize")
    norm = math.sqrt(n2)
    return SphereState(expr=expr.scaled(1.0 / norm), kernel=kernel, raw_norm=norm)


def state_overlap(a: SphereState, b: SphereState) -> complex:
    """Kernel inner product of two unit states."""
    if a.kernel != b.kernel:
        raise DomainError("states live on spheres of different kernels")
    return inner_product(a.expr, b.expr, a.kernel)


def sphere_angle(a: SphereState, b: SphereState) -> float:
    """Angle between the states as vectors: arccos of the real overlap part."""
    ov = state_overlap(a, b)
    return math.acos(min(1.0, max(-1.0, ov.real)))


def fs_angle(a: SphereState, b: SphereState) -> float:
    """Phase-insensitive angle: arccos of the overlap modulus, in [0, pi/2]."""
    ov = state_overlap(a, b)
    return math.acos(min(1.0, max(0.0, abs(ov))))


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


def geodesic_between(start: SphereState, end: SphereState) -> GeodesicPath:
    """Construct the geodesic from `start` to `end`.

    Raises GeodesicUndeterminedError for antipodal endpoints (real overlap
    -1), where no unique great-circle plane exists.
    """
    ov = state_overlap(start, end)
    if ov.real <= -(1.0 - _ANTIPODAL_TOL):
        raise GeodesicUndeterminedError(
            "endpoints are antipodal; the geodesic plane is undetermined")
    magnitude = abs(ov)
    if magnitude > 0.0:
        phase = math.atan2(ov.imag, ov.real)
        factor = complex(math.cos(phase), math.sin(phase))
    else:
        phase = 0.0
        factor = 1.0 + 0j
    aligned = SphereState(expr=end.expr.scaled(factor), kernel=end.kernel,
                          raw_norm=end.raw_norm)
    theta = math.acos(min(1.0, magnitude))
    return GeodesicPath(start=start, end_aligned=aligned, theta=theta,
                        alignment_phase=phase)


def geodesic_at(path: GeodesicPath, t: float) -> SphereState:
    """State at parameter t in [0, 1] along the path.

    phi_t = [sin((1-t) theta) start + sin(t theta) end_aligned] / sin(theta);
    unit norm holds because the aligned overlap equals cos(theta).
    """
    if not -1e-12 <= t <= 1.0 + 1e-12:
        raise DomainError(f"path parameter must lie in [0, 1], got {t!r}")
    theta = path.theta
    if theta < _DEGENERATE_ANGLE:
        return path.start
    sin_theta = math.sin(theta)
    w0 = math.sin((1.0 - t) * theta) / sin_theta
    w1 = math.sin(t * theta) / sin_theta
    mixed = blend(w0, path.start.expr, w1, path.end_aligned.expr)
    return SphereState(expr=mixed, kernel=path.start.kernel, raw_norm=1.0)


def arc_length(path: GeodesicPath) -> float:
    """Arc length in Planck lengths; equal to theta on the unit sphere."""
    return path.theta


def collapse_time(path: GeodesicPath, units: UnitSystem = UnitSystem(),
                  speed_m_per_s: float | None = None) -> float:
    """Seconds to traverse the path at the given speed (default: light speed)."""
    speed = units.light_speed_m_per_s if speed_m_per_s is None else speed_m_per_s
    _positive(speed, "speed")
    return path.theta * units.planck_length_m / speed


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
