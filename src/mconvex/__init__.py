"""Numerical toolkit for m-convex domains.

Builds and verifies m-plurisubharmonic defining functions by convexifying
the signed distance to the boundary, transports principal curvatures
through tubular collars, and probes domain hyperbolicity through
minimal-pseudometric upper bounds and degenerating disc chains.
"""

from . import barrier, discs, hyperbolicity, mpsh, numkit, surfaces, tubular
from .barrier import BarrierFunction, build_barrier, verify_barrier
from .hyperbolicity import bck_metric, metric_upper_bound
from .mpsh import grid_verdict, min_m_trace
from .surfaces import ImplicitDomain, SurfacePoint, make_domain, principal_curvatures
from .tubular import (
    ProjectionResult,
    TubularCollar,
    grad_delta,
    hessian_delta,
    reach_estimate,
    signed_distance,
    transport_curvatures,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierFunction",
    "ImplicitDomain",
    "ProjectionResult",
    "SurfacePoint",
    "TubularCollar",
    "barrier",
    "bck_metric",
    "build_barrier",
    "discs",
    "grad_delta",
    "grid_verdict",
    "hessian_delta",
    "hyperbolicity",
    "make_domain",
    "metric_upper_bound",
    "min_m_trace",
    "mpsh",
    "numkit",
    "principal_curvatures",
    "reach_estimate",
    "signed_distance",
    "surfaces",
    "transport_curvatures",
    "tubular",
    "verify_barrier",
]
