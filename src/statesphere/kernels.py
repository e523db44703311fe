"""Inner-product kernels and the metric they induce on embedded classical space.

Two kernel families are supported.  The translation-invariant family

    k(x, y) = exp(-|x - y|^2 / (2 sigma^2))

reproduces Euclidean geometry on the manifold of position states.  The
confined family

    k(x, y) = exp(-alpha |x|^2) exp(-beta |x - y|^2) exp(-alpha |y|^2)

damps states far from the origin, which makes plane waves normalizable at the
price of an alpha-dependent distortion of the induced metric away from the
origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np

from .errors import DomainError


def _finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return value


def _positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class TranslationKernel:
    """Translation-invariant Gaussian kernel exp(-|x-y|^2 / (2 sigma^2))."""

    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _positive(self.sigma, "sigma"))

    @property
    def quad_coeff(self) -> float:
        """Coefficient of |x-y|^2 in the kernel exponent."""
        return 1.0 / (2.0 * self.sigma**2)


@dataclass(frozen=True)
class ConfinedKernel:
    """Confined kernel exp(-alpha|x|^2) exp(-beta|x-y|^2) exp(-alpha|y|^2)."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _positive(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _positive(self.beta, "beta"))


KernelSpec = Union[TranslationKernel, ConfinedKernel]


def kernel_coefficients(kernel: KernelSpec) -> tuple[float, float]:
    """Return (confinement, pair) coefficients of the exponent
    -confinement*|x|^2 - pair*|x-y|^2 - confinement*|y|^2."""
    if isinstance(kernel, TranslationKernel):
        return 0.0, kernel.quad_coeff
    if isinstance(kernel, ConfinedKernel):
        return kernel.alpha, kernel.beta
    raise DomainError(f"unknown kernel spec: {kernel!r}")


def kernel_value(kernel: KernelSpec, x, y) -> float:
    """Evaluate the kernel at a pair of points of equal dimension."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.shape != yv.shape:
        raise DomainError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    conf, pair = kernel_coefficients(kernel)
    exponent = -pair * float(np.dot(xv - yv, xv - yv))
    if conf:
        exponent -= conf * (float(np.dot(xv, xv)) + float(np.dot(yv, yv)))
    return math.exp(exponent)


class MetricReference(Enum):
    """Reference metric a report is compared against."""

    EUCLIDEAN = "euclidean"
    SCALED_EUCLIDEAN = "scaled-euclidean"


@dataclass(frozen=True)
class MetricReport:
    """Induced metric at a point together with its distance to a reference.

    `matrix` holds the mixed second derivatives d^2 k / dx_i dy_k evaluated
    on the diagonal x = y = point; `deviation` is the max-abs entrywise
    distance to `reference_factor` times the identity.
    """

    point: tuple[float, ...]
    matrix: np.ndarray
    deviation: float
    reference: MetricReference
    reference_factor: float = 1.0
    step: float = field(default=1e-3, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("metric matrix must be square")
        if np.max(np.abs(m - m.T)) > 1e-9:
            raise DomainError("metric matrix is not symmetric to 1e-9")
        object.__setattr__(self, "matrix", m)


def _metric_reference(kernel: KernelSpec) -> tuple[MetricReference, float]:
    if isinstance(kernel, TranslationKernel):
        if kernel.sigma == 1.0:
            return MetricReference.EUCLIDEAN, 1.0
        return MetricReference.SCALED_EUCLIDEAN, 1.0 / kernel.sigma**2
    return MetricReference.SCALED_EUCLIDEAN, 2.0 * kernel.beta


def induced_metric(kernel: KernelSpec, at, h: float = 1e-3,
                   richardson: bool = True) -> MetricReport:
    """Metric induced on the manifold of position states, by finite differences.

    Each component is the central mixed second difference of the kernel,
    d^2 k(x, y) / dx_i dy_k evaluated at x = y = `at`, with O(h^2) error.  By
    default one Richardson step over {h, h/2} cancels the leading error term;
    pass richardson=False for the bare stencil.
    """
    from .oracle import finite_difference

    h = _positive(h, "h")
    point = tuple(float(c) for c in np.atleast_1d(np.asarray(at, dtype=float)))
    if not all(math.isfinite(c) for c in point):
        raise DomainError(f"metric point must be finite, got {point!r}")
    d = len(point)
    pt = np.array(point)

    def f(x, y):
        return kernel_value(kernel, x, y)

    def stencil(step: float) -> np.ndarray:
        g = np.empty((d, d))
        for i in range(d):
            for k in range(d):
                g[i, k] = finite_difference(f, (pt, pt), (i, k), step)
        return g

    g = (4.0 * stencil(h / 2.0) - stencil(h)) / 3.0 if richardson else stencil(h)
    g = 0.5 * (g + g.T)  # stencil is symmetric up to rounding
    reference, factor = _metric_reference(kernel)
    deviation = float(np.max(np.abs(g - factor * np.eye(d))))
    return MetricReport(point=point, matrix=g, deviation=deviation,
                        reference=reference, reference_factor=factor, step=h)


def norm_ratio(phi, kernel: TranslationKernel) -> float:
    """Kernel-norm to L2-norm ratio of a packet state, mass-normalized.

    Returns <phi,phi>_K / ((2 pi sigma^2)^(d/2) <phi,phi>_L2).  The divisor is
    the total mass of the Gaussian kernel, so the ratio tends to 1 as packet
    widths grow large against sigma.
    """
    from .algebra import inner_product, l2_inner_product

    if not isinstance(kernel, TranslationKernel):
        raise DomainError("norm_ratio compares against translation kernels only")
    l2_norm = l2_inner_product(phi, phi).real  # rejects anything but packets
    h_norm = inner_product(phi, phi, kernel).real
    mass = (2.0 * math.pi * kernel.sigma**2) ** (phi.dimension / 2.0)
    return h_norm / (mass * l2_norm)
