"""Geometry of quantum states on the unit sphere of a Gaussian-kernel
Hilbert space: closed-form inner products, induced metrics on embedded
classical space, geodesic collapse paths in Planck units, and the
double-slit / entangled-pair scenarios built on top of them."""

__version__ = "0.1.0"

from .algebra import (Basis, Delta, Packet, PlaneWave, StateExpr, blend,
                      hilbert_norm, inner_product, l2_inner_product, norm_ratio,
                      norm_sq, overlap_matrix, primitive_overlap)
from .errors import (BoxTooSmallError, DivergenceError, DomainError,
                     GeodesicUndeterminedError, NumericalFailureError,
                     StateSphereError)
from .experiments import (DetectorCurve, EPRConfig, SegmentKind, SlitConfig,
                          Trajectory, TrajectorySegment,
                          build_double_slit_trajectory, build_epr_state,
                          detector_intensity, momentum_collapse,
                          momentum_correlation_profile, position_collapse,
                          position_correlation_profile)
from .geometry import (GeodesicPath, SphereState, UnitSystem,
                       classical_path_length, collapse_time, fs_angle,
                       geodesic_at, geodesic_between, normalize, sphere_angle,
                       state_overlap)
from .kernels import (ConfinedKernel, KernelSpec, MetricReference,
                      MetricReport, TranslationKernel, induced_metric,
                      kernel_value)
from .manifolds import (ManifoldId, ProjectionResult, embed_momentum,
                        embed_pair_momentum, embed_pair_position,
                        embed_position, gram_matrix, gram_min_eigenvalue,
                        manifold_member, manifold_separation,
                        nearest_classical_points)
from .oracle import (QuadratureSpec, finite_difference, quad_inner_product,
                     quad_pair_overlap)
