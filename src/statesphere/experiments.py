"""End-to-end scenario builders: the double-slit trajectory with detector
intensity, and the entangled pair with position/momentum collapse.

Both scenarios are kinematic.  A propagation segment holds one state, the
slit screen interpolates linearly in state space between the incoming packet
and the two-slit superposition, and every measurement is a geodesic collapse
onto a classical-manifold state.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (Basis, Delta, Packet, StateExpr, _clamp_norm, _finite_complex,
                      _blended, _joined_slots, blend, overlap_matrix)
from .errors import DomainError, NumericalFailureError
from .geometry import (GeodesicPath, SphereState, _alignment, _arc, _unit_scale, collapse_time,
                       geodesic_at, geodesic_between, normalize)
from .kernels import (ConfinedKernel, KernelSpec, TranslationKernel, _finite,
                      _formed, _integer, _positive)
from .manifolds import (ManifoldId, ManifoldOverlap, embed_pair_momentum,
                        embed_pair_position, nearest_classical_points)


# --------------------------------------------------------------------------
# double slit
# --------------------------------------------------------------------------

SEGMENT_SAMPLES = 9  # states sampled along each trajectory segment
# Bound on the grid points, samples, scanned pairs or random cases one
# computation evaluates, so an oversized count fails as bad input.
MAX_POINTS = 100_000
_SLIT_KERNEL = TranslationKernel(1.0)


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

    def __post_init__(self):
        x1, x2 = (_finite(x, "slit_positions") for x in self.slit_positions)
        if x1 == x2:
            raise DomainError("slit positions must differ")
        object.__setattr__(self, "slit_positions", (x1, x2))
        c1, c2 = (_finite_complex(c, "coefficients") for c in self.coefficients)
        if c1 == 0 and c2 == 0:
            raise DomainError("at least one slit coefficient must be nonzero")
        object.__setattr__(self, "coefficients", (c1, c2))
        _formed(lambda: abs(c1)**2 + abs(c2)**2, "|c1|^2 + |c2|^2 of coefficients")
        for name in ("packet_width", "wavenumber", "screen_to_detector"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))
        if self.detected_point is not None:
            object.__setattr__(self, "detected_point", _finite(self.detected_point, "detected_point"))
        lo, hi, count = self.detector_grid
        lo, hi = _finite(lo, "detector_grid"), _finite(hi, "detector_grid")
        if not lo < hi:
            raise DomainError(f"detector_grid needs lo < hi, got {self.detector_grid!r}")
        object.__setattr__(self, "detector_grid",
                           (lo, hi, _integer(count, "detector_grid count", 2, MAX_POINTS)))
        _formed(lambda: self.detector_envelope_width,
                "detector_envelope_width of packet_width, wavenumber and screen_to_detector")

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

    @property
    def detector_envelope_width(self) -> float:
        """Packet width after free spreading over the flight to the detector."""
        w = self.packet_width
        flight = self.screen_to_detector / self.wavenumber
        return w * math.sqrt(1.0 + (flight / (2.0 * w * w)) ** 2)


@dataclass(frozen=True)
class DetectorCurve:
    """Detector intensity curve, its fringe summary and the collapse point.

    `points` pairs the grid `xs` with the `intensity` on it, on first read.
    `visibility` is (Imax - Imin) / (Imax + Imin) over the central window of
    about one fringe period; Imin ranges over interior local minima, and a
    fringeless (monotone-envelope) curve reports visibility 0 and no spacing.
    `detected_point` is where the trajectory collapses; a which-path run also
    names the slit it keeps.
    """

    xs: array  # of doubles, which compare by value
    intensity: array
    visibility: float
    fringe_spacing: float | None
    predicted_fringe_spacing: float
    envelope_width: float
    detected_point: float
    which_path_slit: float | None = None

    @functools.cached_property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs, self.intensity))


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
    xs = np.linspace(lo, hi, count)
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
    return DetectorCurve(array("d", xs.tobytes()), array("d", intensity.tobytes()), visibility,
                         measured, cfg.predicted_fringe_spacing, cfg.detector_envelope_width,
                         detected, slit)


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


def _overlaps(gram: np.ndarray, pairs) -> list[complex]:
    """<a, b> of state pairs over the frame of `gram` as `inner_product` forms them, a norm
    (a is b) clamped; one stack per shape: numpy rounds a stacked 1x1 product otherwise."""
    values, shapes = {}, {}
    for k, (a, b) in enumerate(pairs):
        shapes.setdefault((len(a.coeffs), len(b.coeffs)), []).append(k)
    for ks in shapes.values():
        weights = np.stack([pairs[k][0].coeffs[:, None] * pairs[k][1].coeffs.conj() for k in ks])
        ia, ib = (np.array([pairs[k][side].indices[0] for k in ks]) for side in (0, 1))
        totals = (weights * gram[ia[:, :, None], ib[:, None, :]]).sum(axis=(1, 2))
        values.update(zip(ks, totals.tolist()))
    return [_clamp_norm(values[k]) if a is b else values[k] for k, (a, b) in enumerate(pairs)]


def build_double_slit_trajectory(cfg: SlitConfig) -> Trajectory:
    """Full state-space trajectory through the double-slit scenario, under
    the unit translation kernel.

    Segments: (1) propagation of the packet arriving at the screen, (2) the
    slit split, interpolated linearly in state space with per-sample
    renormalization, (3) propagation of the superposition toward the
    detector, (4) geodesic collapse onto the packet at the detected point.
    A which-path measurement moves the collapse directly behind the split,
    targeting the slit the detector curve keeps, after which the single
    surviving packet propagates to the detector.  Every state is a StateExpr
    over one frame, the distinct packets, whose one Gram matrix gives each
    norm and angle, bit for bit `normalize` and `sphere_angle`."""
    n = SEGMENT_SAMPLES
    w = cfg.packet_width
    x1, x2 = cfg.slit_positions
    c1, c2 = cfg.coefficients
    curve = detector_intensity(cfg)
    detected = curve.detected_point
    box = (min(x1, x2, detected) - 6.0 * w - 2.0, max(x1, x2, detected) + 6.0 * w + 2.0)
    centers = [cfg.arrival_center, x1, x2, curve.which_path_slit if cfg.which_path else detected]
    xs = list(dict.fromkeys(centers))  # the frame: one packet per distinct center
    frame = Basis(Packet, [[x] for x in xs], w)
    gram = overlap_matrix(frame, frame, _SLIT_KERNEL)
    arrival, slit1, slit2, target = (StateExpr.from_arrays([1.0], [frame], [[xs.index(x)]])
                                     for x in centers)
    ts = np.linspace(0.0, 1.0, n)[1:-1]

    def normalized(exprs):  # `normalize` over the frame
        units = [_unit_scale(n2.real) for n2 in _overlaps(gram, [(e, e) for e in exprs])]
        return [SphereState(e.scaled(scale), _SLIT_KERNEL, norm)
                for e, (norm, scale) in zip(exprs, units)]

    arrived, split, aimed = normalized([arrival, blend(c1, slit1, c2, slit2), target])
    # refraction: packet -> normalized two-slit superposition, the endpoints' bases joined once
    slots = _joined_slots(arrived.expr, split.expr)
    refraction = [arrived, *normalized([_blended(1.0 - t, arrived.expr, t, split.expr, slots)
                                        for t in ts]), split]
    theta, phase, factor = _alignment(_overlaps(gram, [(split.expr, aimed.expr)])[0])
    aligned = SphereState(aimed.expr.scaled(factor), _SLIT_KERNEL, aimed.raw_norm)
    path = GeodesicPath(split, aligned, theta, phase)
    collapse = [split, *(geodesic_at(path, t) for t in ts), aligned]
    legs = [(SegmentKind.PROPAGATION, [arrived] * n), (SegmentKind.REFRACTION_SPLIT, refraction)]
    if cfg.which_path:
        legs += [(SegmentKind.COLLAPSE, collapse), (SegmentKind.PROPAGATION, [aligned] * n)]
    else:
        legs += [(SegmentKind.PROPAGATION, [split] * n), (SegmentKind.COLLAPSE, collapse)]

    slot = {}  # distinct states by value, in first-use order: the first stands for equal ones
    order = [[slot.setdefault(((s.expr.coeffs + 0.0).tobytes(), s.expr.indices[0].tobytes(),
                               s.raw_norm), (len(slot), s))[0] for s in states]
             for _, states in legs]
    distinct = [state for _, state in slot.values()]
    steps = list(dict.fromkeys((a, b) for ks in order for a, b in zip(ks, ks[1:])))
    overlaps = _overlaps(gram, [(distinct[a].expr, distinct[b].expr) for a, b in steps])
    angles = {step: _arc(ov.real) for step, ov in zip(steps, overlaps)}
    projections = nearest_classical_points(distinct, ManifoldId.POSITION, box, coarse=41)
    seconds = collapse_time(path)
    segments = tuple(
        TrajectorySegment(kind=kind,
                          samples=tuple((offset + j / (n - 1), distinct[k]) for j, k in enumerate(ks)),
                          arc_length=sum(angles[step] for step in zip(ks, ks[1:])),
                          max_residual_angle=max(projections[k].residual_angle for k in ks),
                          collapse_time_s=seconds if kind is SegmentKind.COLLAPSE else None)
        for offset, ((kind, _), ks) in enumerate(zip(legs, order)))
    return Trajectory(segments=segments, detector=curve, kernel=_SLIT_KERNEL)


# --------------------------------------------------------------------------
# entangled pair
# --------------------------------------------------------------------------

# An n-term pair state takes n x n overlap matrices per particle.
MAX_DISCRETIZATION = 1024
MAX_PARTNER_SHIFT = 1e-6  # of the node spacing, by rounding x0 + u to a partner point


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
        object.__setattr__(self, "discretization_n", _integer(
            self.discretization_n, "discretization_n", 8, MAX_DISCRETIZATION))
        if self.measured_position is not None and self.measured_momentum is not None:
            raise DomainError("set at most one of measured_position / measured_momentum")
        _formed(lambda: 1.0 / (2.0 * self.envelope_width**2),
                "1/(2 envelope_width^2) of envelope_width")

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
    shift = float(np.abs(cfg.x0 + u - cfg.x0 - u).max())  # rounding of the partners x0 + u
    if shift > MAX_PARTNER_SHIFT * h:
        raise DomainError(f"x0 = {cfg.x0!r} rounds the partners x0 + u by {shift:.3g}, over "
                          f"{MAX_PARTNER_SHIFT:g} of the node spacing {h:.3g}; bring --x0 nearer 0")
    weights = np.full(n, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    coeffs = weights * np.exp(-(u**2) / (2.0 * width**2))
    bases = [Basis(Delta, u[:, None]), Basis(Delta, (cfg.x0 + u)[:, None])]
    return normalize(StateExpr.from_arrays(coeffs, bases, [np.arange(n)] * 2), kernel)


def correlation_rows(state: SphereState, manifold: ManifoldId, firsts, grids) -> list[np.ndarray]:
    """Overlaps of `state` with the pair manifold along each row (first, grid),
    from one compiled overlap; a non-finite value raises NumericalFailureError."""
    with np.errstate(over="ignore", invalid="ignore"):  # far-out exponents, caught below
        overlap = ManifoldOverlap(state.expr, state.kernel, manifold)
        values = [overlap(np.column_stack([np.full(len(grid), first), grid]))
                  for first, grid in zip(firsts, grids)]
    for first, row in zip(firsts, values):
        if not np.isfinite(row).all():
            raise NumericalFailureError(f"the overlap along the ridge row at {first!r} is not "
                                        "finite")
    return values


def position_correlation_profile(state: SphereState, a: float,
                                 b_grid) -> list[tuple[float, float]]:
    """Real overlap of the pair state with normalized point pairs (a, b).

    The profile over b peaks at b = x0 + a up to the envelope regularization
    bias a / (envelope_width^2 + 1), which stays within one grid step for
    grids at least that coarse.
    """
    bs = np.asarray(b_grid, dtype=float)
    (values,) = correlation_rows(state, ManifoldId.POSITION_PAIR, [float(a)], [bs])
    return list(zip(bs.tolist(), values.real.tolist()))


def position_collapse(state: SphereState, a: float, cfg: EPRConfig) -> GeodesicPath:
    """Geodesic collapse onto the point pair (a, x0 + a)."""
    target = normalize(embed_pair_position((float(a),), (cfg.x0 + float(a),)), state.kernel)
    return geodesic_between(state, target)


def momentum_collapse(state: SphereState, q: float) -> GeodesicPath:
    """Geodesic collapse onto the anti-correlated momentum pair (q, -q).

    Requires a confined kernel; plane-wave targets have no finite norm under
    translation-invariant kernels.
    """
    target = normalize(embed_pair_momentum((float(q),), (-float(q),)), state.kernel)
    return geodesic_between(state, target)


def momentum_correlation_profile(state: SphereState,
                                 q_grid) -> list[tuple[tuple[float, float], float]]:
    """Normalized overlap modulus with plane-wave pairs on a momentum grid.

    The ridge of maxima runs along q2 = -q1; using the modulus makes the
    profile invariant under a global phase of the state.  Requires a
    confined kernel, as `momentum_collapse` does.
    """
    qs = np.asarray(q_grid, dtype=float)
    q = qs.tolist()
    rows = correlation_rows(state, ManifoldId.MOMENTUM_PAIR, q, [qs] * len(q))
    return [((q1, q2), v) for q1, row in zip(q, rows) for q2, v in zip(q, np.abs(row).tolist())]
