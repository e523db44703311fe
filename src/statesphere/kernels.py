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
import operator
import reprlib
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import DomainError

Vec = tuple[float, ...]

MAX_DIMENSION = 3


def _shown(value) -> str:
    """reprlib's bounded repr; a value whose repr fails (an int past 4300 digits) by its type."""
    try:
        return reprlib.repr(value)
    except ValueError:
        return f"a value of type {type(value).__name__}"


def _real(value, name: str = "coordinates", kind: str = "a real number") -> float:
    """float(value) of a real or numeric string; a complex value, whose real part numpy's
    float() keeps with only a warning, or a value float() rejects is a DomainError."""
    try:
        if not isinstance(value, (complex, np.complexfloating)):
            return float(value)
    except OverflowError:
        raise DomainError(f"{name} is out of floating-point range") from None
    except (TypeError, ValueError):
        pass
    raise DomainError(f"{name} must be {kind}, got {_shown(value)}")


def _reals(value, name: str) -> np.ndarray:
    """A new float array of `value`, whose entries must be reals in floating-point range."""
    try:
        array = np.array(value)
        if array.dtype.kind == "c":
            raise TypeError
        return array.astype(float, copy=False)  # np.array copied it
    except OverflowError:
        raise DomainError(f"{name} is out of floating-point range") from None
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be reals") from None


def _finite_complex(z, name: str) -> complex:
    """complex(z) if finite; a value complex() rejects is a DomainError, as in `_real`."""
    try:
        z = complex(z)
    except OverflowError:
        raise DomainError(f"{name} is out of floating-point range") from None
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a complex number, got {_shown(z)}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def _finite(value: float, name: str) -> float:
    value = _real(value, name)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return value


def _positive(value: float, name: str) -> float:
    value = _real(value, name)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _formed(formula, name: str) -> float:
    """formula() if it is a positive finite float; `name` says what it is formed from."""
    try:
        value = formula()
    except ArithmeticError:  # float ** overflows, or / divides by an underflowed 0
        raise DomainError(f"{name} is out of floating-point range") from None
    return _positive(value, name)


def _integer(value, name: str, lo: int, hi: float = math.inf) -> int:
    """value as an int if it is an integer (numpy's too; no bool, float or str) from lo to hi."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not lo <= number <= hi:
        bound = f"of at least {lo}" if hi == math.inf else f"from {lo} to {hi}"
        raise DomainError(f"{name} must be an integer {bound}, got {_shown(value)}")
    return number


def as_vec(value) -> Vec:
    """Coerce a real, a 0-d or 1-d array, or an iterable of reals to a validated
    coordinate tuple; any other value is a DomainError."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = np.atleast_1d(value).tolist()  # nested lists for 2-d, rejected below
    elif isinstance(value, (int, float, str, bytes)) or not hasattr(value, "__iter__"):
        value = (value,)
    try:
        vec = tuple(_real(v, "coordinates", "reals") for v in value)
    except TypeError:  # iterating the value failed
        raise DomainError(f"coordinates must be reals, got {_shown(value)}") from None
    if not 0 < len(vec) <= MAX_DIMENSION:
        raise DomainError(f"dimension must be an integer from 1 to {MAX_DIMENSION}, "
                          f"got {len(vec)}")
    if not all(map(math.isfinite, vec)):
        raise DomainError(f"non-finite component in {vec!r}")
    return vec


@dataclass(frozen=True)
class TranslationKernel:
    """Translation-invariant Gaussian kernel exp(-|x-y|^2 / (2 sigma^2))."""

    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _positive(self.sigma, "sigma"))
        _formed(lambda: self.quad_coeff, "1/(2 sigma^2) of sigma")

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


def kernel_value(kernel: KernelSpec, x, y):
    """The kernel at a pair of points of equal dimension d (a float), or at stacked
    points of shapes (..., d) that broadcast (an array); a stacked value is the
    one-pair value bit for bit (np.matmul sums as np.dot does, math.exp per value)."""
    xv, yv = np.atleast_1d(_reals(x, "x")), np.atleast_1d(_reals(y, "y"))
    if xv.shape[-1] != yv.shape[-1]:
        raise DomainError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    conf, pair = kernel_coefficients(kernel)

    def square(v):
        return (v[..., None, :] @ v[..., :, None])[..., 0, 0]

    exponent = -pair * square(xv - yv)
    if conf:
        exponent = exponent - conf * (square(xv) + square(yv))
    if exponent.ndim == 0:
        return math.exp(exponent)
    return np.fromiter(map(math.exp, exponent.flat), float, exponent.size).reshape(exponent.shape)


class MetricReference(Enum):
    """Reference metric a report is compared against."""

    EUCLIDEAN = "euclidean"
    SCALED_EUCLIDEAN = "scaled-euclidean"


@dataclass(frozen=True)
class MetricReport:
    """Induced metric at a point together with its distance to a reference.

    `matrix` holds the mixed second derivatives d^2 k / dx_i dy_k evaluated
    on the diagonal x = y = point; `deviation` is the max-abs entrywise
    distance to `reference_factor` times the identity.  Under ConfinedKernel `matrix`
    is the unnormalized kernel's e^{-2 alpha |u|^2} (2 beta I + 4 alpha^2 u u^T) at
    u = point, not the normalized embedding's 2 beta I.
    """

    point: tuple[float, ...]
    matrix: np.ndarray
    deviation: float
    reference: MetricReference
    reference_factor: float = 1.0

    def __post_init__(self):
        m = _reals(self.matrix, "metric matrix")
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


def _metric_step(kernel: KernelSpec, h: float, name: str) -> float:
    """h, if it lies 1e-5 to 0.1 length scales 1/sqrt(reference_factor)."""
    h, scale = _positive(h, name), _metric_reference(kernel)[1] ** -0.5
    if not 1e-5 * scale <= h <= 0.1 * scale:
        raise DomainError(f"{name} must lie in [{1e-5 * scale!r}, {0.1 * scale!r}], got {h!r}")
    return h


def induced_metric(kernel: KernelSpec, at, h: float = 1e-3) -> MetricReport:
    """Metric induced on the manifold of position states, by finite differences.

    Each component is the central mixed second difference of the kernel,
    d^2 k(x, y) / dx_i dy_k evaluated at x = y = `at`, with O(h^2) error; one
    Richardson step over {h, h/2} cancels the leading error term; each value is
    oracle.finite_difference's over one-pair kernel values, bit for bit.  `h` must
    lie 1e-5 to 0.1 kernel length scales, and `at` has 1 to MAX_DIMENSION
    finite coordinates, as every primitive's, near enough to the origin that
    rounding moves no corner `at +- h` off its step by more than 1e-5 of it.
    """
    h = _metric_step(kernel, h, "h")
    point = as_vec(at)
    if math.ulp(max(map(abs, point)) + h) > 1e-5 * h:
        raise DomainError(f"at is too far from the origin for step {h!r}: got {point!r}")
    d = len(point)
    # v[step, x sign, y sign, i, k]: k at x = point +- step e_i, y = point +- step e_k
    steps = np.array([h / 2.0, h])[:, None, None]
    shifts = steps * np.eye(d)
    corners = np.array(point) + np.stack([shifts, -shifts], axis=1)
    v = kernel_value(kernel, corners[:, :, None, :, None], corners[:, None, :, None, :])
    stencil = (v[:, 0, 0] - v[:, 0, 1] - v[:, 1, 0] + v[:, 1, 1]) / (4.0 * steps * steps)
    g = (4.0 * stencil[0] - stencil[1]) / 3.0
    g = 0.5 * (g + g.T)  # stencil is symmetric up to rounding
    reference, factor = _metric_reference(kernel)
    deviation = float(np.max(np.abs(g - factor * np.eye(d))))
    return MetricReport(point=point, matrix=g, deviation=deviation,
                        reference=reference, reference_factor=factor)

