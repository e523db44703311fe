"""End-to-end scenario builders: the double-slit trajectory with detector
intensity, and the entangled pair with position/momentum collapse.

Both scenarios are kinematic.  Propagation segments translate packet centers
uniformly at fixed width (an optional flag applies the free-Gaussian width
spreading law), the slit screen interpolates linearly in state space between
the incoming packet and the two-slit superposition, and every measurement is
a geodesic collapse onto a classical-manifold state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import Delta, Packet, StateExpr, _finite_complex, blend
from .errors import DomainError
from .geometry import (GeodesicPath, SphereState, UnitSystem, collapse_time,
                       geodesic_at, geodesic_between, normalize, sphere_angle)
from .kernels import (ConfinedKernel, KernelSpec, TranslationKernel, _finite,
                      _positive)
from .manifolds import (ManifoldId, ManifoldOverlap, embed_pair_momentum,
                        embed_pair_position, nearest_classical_point)


# --------------------------------------------------------------------------
# double slit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SlitConfig:
    """Double-slit scenario parameters, all in Planck units.

    The state space is one-dimensional along the screen axis.  `wavenumber`
    is the longitudinal momentum used by the detector phase model, and
    `screen_to_detector` the flight distance behind the screen.
    """

    slit_positions: tuple[float, float] = (-1.165, 1.165)
    coefficients: tuple[complex, complex] = (1.0 + 0j, 1.0 + 0j)
    packet_width: float = 0.1
    wavenumber: float = 40.0
    screen_to_detector: float = 80.0
    detector_grid: tuple[float, float, int] = (-30.0, 30.0, 1201)
    which_path: bool = False
    detected_point: float | None = None
    source_center: float | None = None
    samples_per_segment: int = 9
    spread_widths: bool = False

    def __post_init__(self):
        x1, x2 = (_finite(x, "slit_positions") for x in self.slit_positions)
        if x1 == x2:
            raise DomainError("slit positions must differ")
        object.__setattr__(self, "slit_positions", (x1, x2))
        c1, c2 = (_finite_complex(c, "coefficients") for c in self.coefficients)
        if c1 == 0 and c2 == 0:
            raise DomainError("at least one slit coefficient must be nonzero")
        object.__setattr__(self, "coefficients", (c1, c2))
        for name in ("packet_width", "wavenumber", "screen_to_detector"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        for name in ("detected_point", "source_center"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite(getattr(self, name), name))
        lo, hi, count = self.detector_grid
        if not (-math.inf < lo < hi < math.inf and int(count) >= 2):
            raise DomainError("detector grid needs finite lo < hi and at least 2 points")
        if self.samples_per_segment < 2:
            raise DomainError("need at least 2 samples per segment")

    @property
    def slit_midpoint(self) -> float:
        return 0.5 * (self.slit_positions[0] + self.slit_positions[1])

    @property
    def arrival_center(self) -> float:
        """Intensity-weighted slit position the incoming packet is aimed at;
        with one slit closed this is the open slit, so the split degenerates."""
        w1, w2 = (abs(c) ** 2 for c in self.coefficients)
        x1, x2 = self.slit_positions
        return (w1 * x1 + w2 * x2) / (w1 + w2)

    @property
    def slit_separation(self) -> float:
        return abs(self.slit_positions[1] - self.slit_positions[0])

    @property
    def predicted_fringe_spacing(self) -> float:
        return 2.0 * math.pi * self.screen_to_detector / (self.wavenumber * self.slit_separation)

    def spread_width(self, fraction: float) -> float:
        """Packet width after free spreading over `fraction` of the flight
        from the screen to the detector."""
        w = self.packet_width
        flight = fraction * self.screen_to_detector / self.wavenumber
        return w * math.sqrt(1.0 + (flight / (2.0 * w * w)) ** 2)

    @property
    def detector_envelope_width(self) -> float:
        """Packet width after free spreading over the flight to the detector."""
        return self.spread_width(1.0)


@dataclass(frozen=True)
class DetectorCurve:
    """Detector intensity curve, its fringe summary and the collapse point.

    `visibility` is (Imax - Imin) / (Imax + Imin) over the central window of
    about one fringe period; Imin ranges over interior local minima, and a
    fringeless (monotone-envelope) curve reports visibility 0 and no spacing.
    `detected_point` is where the trajectory collapses; a which-path run also
    names the slit it keeps.
    """

    points: tuple[tuple[float, float], ...]
    visibility: float
    fringe_spacing: float | None
    predicted_fringe_spacing: float
    envelope_width: float
    detected_point: float
    which_path_slit: float | None = None


def _fringe_summary(xs: np.ndarray, intensity: np.ndarray, mid: float, spacing: float):
    window = np.abs(xs - mid) <= 0.55 * spacing
    idx = np.flatnonzero(window)
    if len(idx) < 3:
        raise DomainError("detector grid is too coarse for the central fringe window")
    inner = idx[1:-1]
    minima = inner[(intensity[inner] < intensity[inner - 1])
                   & (intensity[inner] < intensity[inner + 1])]
    i_max = float(intensity[idx].max())
    if len(minima) == 0 or i_max <= 0.0:
        return 0.0, None
    i_min = float(intensity[minima].min())
    visibility = (i_max - i_min) / (i_max + i_min)
    peak = idx[int(np.argmax(intensity[idx]))]
    left = minima[minima < peak]
    right = minima[minima > peak]
    measured = None
    if len(left) and len(right):
        measured = float(xs[right.min()] - xs[left.max()])
    return visibility, measured


def _intensity(cfg: SlitConfig, sources) -> tuple[np.ndarray, np.ndarray]:
    """Detector grid and intensity of the (coefficient, slit position) sources."""
    lo, hi, count = cfg.detector_grid
    xs = np.linspace(lo, hi, int(count))
    length = cfg.screen_to_detector
    w_env = cfg.detector_envelope_width
    amplitude = np.zeros(len(xs), dtype=complex)
    for c, xj in sources:
        r = np.sqrt(length**2 + (xs - xj) ** 2)
        amplitude += c * np.exp(1j * cfg.wavenumber * r) * np.exp(-((xs - xj) ** 2) / (4.0 * w_env**2))
    return xs, np.abs(amplitude) ** 2


def detector_intensity(cfg: SlitConfig) -> DetectorCurve:
    """Two-path detector intensity on the configured grid.

    Each open slit contributes c_j * exp(i k r_j(x)) * g(x - x_j), with
    r_j(x) the slit-to-point distance and g the freely spread packet
    envelope; intensity is the squared modulus of the sum.  The detected
    point is `cfg.detected_point`, or else the argmax of this two-path
    intensity.  A which-path collapse keeps the slit nearest the detected
    point (ties toward the smaller position), leaves a single envelope and
    destroys the fringes.
    """
    sources = list(zip(cfg.coefficients, cfg.slit_positions))
    xs, intensity = _intensity(cfg, sources)
    detected = cfg.detected_point
    if detected is None:
        detected = float(xs[int(np.argmax(intensity))])
    slit = None
    if cfg.which_path:
        slit = min(sorted(cfg.slit_positions), key=lambda x: abs(x - detected))
        xs, intensity = _intensity(cfg, [sources[cfg.slit_positions.index(slit)]])
    visibility, measured = _fringe_summary(xs, intensity, cfg.slit_midpoint,
                                           cfg.predicted_fringe_spacing)
    return DetectorCurve(points=tuple(zip(xs.tolist(), intensity.tolist())),
                         visibility=visibility, fringe_spacing=measured,
                         predicted_fringe_spacing=cfg.predicted_fringe_spacing,
                         envelope_width=cfg.detector_envelope_width,
                         detected_point=detected, which_path_slit=slit)


class SegmentKind(Enum):
    PROPAGATION = "propagation"
    REFRACTION_SPLIT = "refraction-split"
    COLLAPSE = "collapse"


@dataclass(frozen=True)
class TrajectorySegment:
    """One leg of a state-space trajectory with its summary metrics."""

    kind: SegmentKind
    samples: tuple[tuple[float, SphereState], ...]
    arc_length: float
    max_residual_angle: float
    collapse_time_s: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Ordered trajectory segments plus the detector curve that fixed the
    collapse target on the screen."""

    segments: tuple[TrajectorySegment, ...]
    detector: DetectorCurve
    kernel: KernelSpec

    @property
    def detected_point(self) -> float:
        return self.detector.detected_point

    @property
    def total_arc_length(self) -> float:
        return sum(seg.arc_length for seg in self.segments)


def _polyline_arc(states) -> float:
    return sum(sphere_angle(a, b) for a, b in zip(states, states[1:]))


def build_double_slit_trajectory(cfg: SlitConfig,
                                 kernel: KernelSpec = TranslationKernel(1.0),
                                 units: UnitSystem = UnitSystem()) -> Trajectory:
    """Full state-space trajectory through the double-slit scenario.

    Segments: (1) propagation of the source packet to the screen, (2) the
    slit split, interpolated linearly in state space with per-sample
    renormalization, (3) propagation of the superposition toward the
    detector, (4) geodesic collapse onto the packet at the detected point.
    A which-path measurement moves the collapse directly behind the split,
    targeting the slit the detector curve keeps, after which the single
    surviving packet propagates to the detector.
    """
    n = cfg.samples_per_segment
    w = cfg.packet_width
    x1, x2 = cfg.slit_positions
    c1, c2 = cfg.coefficients
    mid = cfg.arrival_center
    src = mid if cfg.source_center is None else float(cfg.source_center)
    curve = detector_intensity(cfg)
    detected = curve.detected_point
    box = (min(x1, x2, detected) - 6.0 * w - 2.0, max(x1, x2, detected) + 6.0 * w + 2.0)

    def packet_state(center, width=w):
        return normalize(StateExpr.single(Packet((center,), width)), kernel)

    def superposition(width):
        return normalize(blend(c1, StateExpr.single(Packet((x1,), width)),
                               c2, StateExpr.single(Packet((x2,), width))), kernel)

    # (1) source -> screen
    seg1_states = [packet_state(src + t * (mid - src)) for t in np.linspace(0.0, 1.0, n)]

    # (2) refraction: packet -> normalized two-slit superposition
    arrived = seg1_states[-1]
    split = superposition(w)
    seg2_states = [arrived]
    for t in np.linspace(0.0, 1.0, n)[1:-1]:
        seg2_states.append(normalize(blend(1.0 - t, arrived.expr, t, split.expr), kernel))
    seg2_states.append(split)

    # residual angle per distinct sample state, shared by all segments
    residuals = {}

    def segment(kind, offset, states, path=None):
        samples = tuple((offset + j / (len(states) - 1), s) for j, s in enumerate(states))
        for s in states:
            if s not in residuals:
                residuals[s] = nearest_classical_point(
                    s, ManifoldId.POSITION, box, coarse=41).residual_angle
        time = collapse_time(path, units) if path is not None else None
        return TrajectorySegment(kind=kind, samples=samples,
                                 arc_length=_polyline_arc(states),
                                 max_residual_angle=max(residuals[s] for s in states),
                                 collapse_time_s=time)

    segments = [
        segment(SegmentKind.PROPAGATION, 0.0, seg1_states),
        segment(SegmentKind.REFRACTION_SPLIT, 1.0, seg2_states),
    ]

    def collapse_segment(offset, start_state, target_state):
        path = geodesic_between(start_state, target_state)
        states = [geodesic_at(path, t) for t in np.linspace(0.0, 1.0, n)]
        states[0], states[-1] = path.start, path.end_aligned
        return segment(SegmentKind.COLLAPSE, offset, states, path)

    if cfg.which_path:
        slit = curve.which_path_slit
        seg3 = collapse_segment(2.0, split, packet_state(slit))
        last = seg3.samples[-1][1]
        if cfg.spread_widths:
            seg4_states = [last] + [packet_state(slit, cfg.spread_width(t))
                                    for t in np.linspace(0.0, 1.0, n)[1:]]
        else:
            seg4_states = [last] * n
        segments.append(seg3)
        segments.append(segment(SegmentKind.PROPAGATION, 3.0, seg4_states))
    else:
        if cfg.spread_widths:
            seg3_states = [split] + [superposition(cfg.spread_width(t))
                                     for t in np.linspace(0.0, 1.0, n)[1:]]
        else:
            seg3_states = [split] * n
        segments.append(segment(SegmentKind.PROPAGATION, 2.0, seg3_states))
        arriving = seg3_states[-1]
        target = packet_state(detected, cfg.detector_envelope_width if cfg.spread_widths else w)
        segments.append(collapse_segment(3.0, arriving, target))

    return Trajectory(segments=tuple(segments), detector=curve, kernel=kernel)


# --------------------------------------------------------------------------
# entangled pair
# --------------------------------------------------------------------------

# An n-term pair state takes n x n overlap matrices per particle.
MAX_DISCRETIZATION = 1024


@dataclass(frozen=True)
class EPRConfig:
    """Entangled-pair scenario: positions correlate as x2 = x0 + x1 and
    momenta anti-correlate.

    The ideal perfectly correlated state has infinite norm, so the pair is
    regularized by a Gaussian envelope of width `envelope_width` and
    discretized by a trapezoid rule with `discretization_n` nodes spanning
    four envelope widths each side.
    """

    x0: float = 1.0
    envelope_width: float = 5.0
    discretization_n: int = 64
    confined_alpha: float = 0.1
    measured_position: float | None = None
    measured_momentum: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x0", _finite(self.x0, "x0"))
        for name in ("envelope_width", "confined_alpha"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        for name in ("measured_position", "measured_momentum"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _finite(getattr(self, name), name))
        n = self.discretization_n
        if isinstance(n, bool) or not isinstance(n, int) or not 8 <= n <= MAX_DISCRETIZATION:
            raise DomainError(f"discretization_n must be an integer from 8 to "
                              f"{MAX_DISCRETIZATION}, got {n!r}")
        if self.measured_position is not None and self.measured_momentum is not None:
            raise DomainError("set at most one of measured_position / measured_momentum")

    @property
    def position_kernel(self) -> TranslationKernel:
        return TranslationKernel(1.0)

    @property
    def momentum_kernel(self) -> ConfinedKernel:
        return ConfinedKernel(self.confined_alpha, 1.0)


def build_epr_state(cfg: EPRConfig,
                    kernel: KernelSpec | None = None) -> SphereState:
    """Discretized, envelope-regularized correlated pair state on the unit
    sphere of the given kernel (default: the position kernel)."""
    kernel = cfg.position_kernel if kernel is None else kernel
    n = cfg.discretization_n
    width = cfg.envelope_width
    u = np.linspace(-4.0 * width, 4.0 * width, n)
    h = u[1] - u[0]
    weights = np.full(n, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    coeffs = weights * np.exp(-(u**2) / (2.0 * width**2))
    terms = tuple((complex(c), Delta((float(uj),)), Delta((float(cfg.x0 + uj),)))
                  for c, uj in zip(coeffs, u))
    return normalize(StateExpr(terms), kernel)


def position_correlation_profile(state: StateExpr, cfg: EPRConfig, a: float,
                                 b_grid) -> list[tuple[float, float]]:
    """Real overlap of the pair state with normalized point pairs (a, b).

    The profile over b peaks at b = x0 + a up to the envelope regularization
    bias a / (envelope_width^2 + 1), which stays within one grid step for
    grids at least that coarse.
    """
    bs = np.asarray(b_grid, dtype=float)
    overlap = ManifoldOverlap(state, cfg.position_kernel, ManifoldId.POSITION_PAIR)
    values = overlap(np.column_stack([np.full(len(bs), float(a)), bs]))
    return list(zip(bs.tolist(), values.real.tolist()))


def position_collapse(state: SphereState, a: float, cfg: EPRConfig) -> GeodesicPath:
    """Geodesic collapse onto the point pair (a, x0 + a)."""
    target = normalize(embed_pair_position((float(a),), (cfg.x0 + float(a),)), state.kernel)
    return geodesic_between(state, target)


def momentum_collapse(state: SphereState, q: float, cfg: EPRConfig) -> GeodesicPath:
    """Geodesic collapse onto the anti-correlated momentum pair (q, -q).

    Requires a confined kernel; plane-wave targets have no finite norm under
    translation-invariant kernels.
    """
    target = normalize(embed_pair_momentum((float(q),), (-float(q),)), state.kernel)
    return geodesic_between(state, target)


def momentum_correlation_profile(state: SphereState, cfg: EPRConfig,
                                 q_grid) -> list[tuple[tuple[float, float], float]]:
    """Normalized overlap modulus with plane-wave pairs on a momentum grid.

    The ridge of maxima runs along q2 = -q1; using the modulus makes the
    profile invariant under a global phase of the state.  Requires a
    confined kernel, as `momentum_collapse` does.
    """
    qs = np.asarray(q_grid, dtype=float)
    pairs = np.stack(np.meshgrid(qs, qs, indexing="ij"), axis=-1).reshape(-1, 2)
    overlap = ManifoldOverlap(state.expr, state.kernel, ManifoldId.MOMENTUM_PAIR)
    values = np.abs(overlap(pairs))
    return [((q1, q2), v) for (q1, q2), v in zip(pairs.tolist(), values.tolist())]
