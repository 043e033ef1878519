"""Hypersurfaces, implicit domains, and curvature classifiers.

A domain is given implicitly as ``{phi < 0}`` with an evaluable defining
field, gradient, and Hessian. Principal curvatures of the boundary are read
off the shape operator of the level set, with the sign convention that the
boundary sphere of a ball is positively curved from the inner side. A small
catalog of closed-form domains in R^3 (halfspace, ball, cylinder, slab,
catenoid, Scherk) doubles as the test corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import mpsh, numkit

BOUNDARY_TOL = 1e-8
GRADIENT_FLOOR = 1e-8


class NotOnBoundaryError(ValueError):
    def __init__(self, residual: float, point=None):
        self.residual = residual
        self.point = point
        where = "" if point is None else f" at {np.asarray(point).tolist()}"
        super().__init__(f"point is off the boundary{where}: |phi| = {residual:.3e}")


class SingularPointError(ValueError):
    def __init__(self, grad_norm: float, point=None):
        self.grad_norm = grad_norm
        self.point = point
        where = "" if point is None else f" at {np.asarray(point).tolist()}"
        super().__init__(
            f"defining gradient vanishes{where}: |grad phi| = {grad_norm:.3e}"
        )


@dataclass(frozen=True)
class SurfacePoint:
    """Boundary points with their inner normals and shape-operator data.

    For one point in R^n the fields have shapes (n,), (n,), (n-1,) and
    (n-1, n); a batch adds the same leading axes to each. ``curvatures``
    are ascending principal curvatures from the inner side (units
    1/length); row j of ``directions`` is the unit principal direction for
    ``curvatures[..., j]``.
    """

    position: np.ndarray
    inner_normal: np.ndarray
    curvatures: np.ndarray
    directions: np.ndarray


class ImplicitDomain:
    """A domain ``{phi < 0}`` with evaluable defining field and derivatives.

    ``phi`` accepts arrays of shape (..., n); ``grad`` and ``hess`` return
    new arrays of shapes (..., n) and (..., n, n); the projection solver
    overwrites the gradients it is handed. Missing analytic derivatives fall
    back to centered differences and set ``fd_fallback``. ``exact_sdf`` marks
    ``phi`` as the exact signed distance to the boundary, in which case
    ``exact_projection`` must return the foot, distance and multiplicity.
    """

    def __init__(
        self,
        name: str,
        dim: int,
        phi: Callable[[np.ndarray], np.ndarray],
        grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        hess: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        boundary_sampler: Optional[Callable[[int], np.ndarray]] = None,
        box: Optional[np.ndarray] = None,
        exact_projection: Optional[Callable[[np.ndarray], tuple]] = None,
        reach_hint: Optional[float] = None,
        check_gradient: bool = True,
    ):
        self.name = name
        self.dim = int(dim)
        self._phi = phi
        self._grad = grad
        self._hess = hess
        self.fd_fallback = grad is None or hess is None
        self._boundary_sampler = boundary_sampler
        self.box = None if box is None else np.asarray(box, dtype=float)
        self.exact_projection = exact_projection
        self.exact_sdf = exact_projection is not None
        self.reach_hint = reach_hint
        if check_gradient and boundary_sampler is not None:
            samples = self.boundary_samples(64)
            norms = np.linalg.norm(self.grad(samples), axis=-1)
            if np.any(norms < GRADIENT_FLOOR):
                raise SingularPointError(float(norms.min()))

    def phi(self, x: np.ndarray) -> np.ndarray:
        return self._phi(np.asarray(x, dtype=float))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return self._grad(x)
        if x.ndim == 1:
            return numkit.gradient_fd(self._phi, x)
        return np.stack([numkit.gradient_fd(self._phi, row) for row in x.reshape(-1, self.dim)]).reshape(x.shape)

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            return self._hess(x)
        if x.ndim == 1:
            return numkit.hessian_fd(self._phi, x)
        flat = x.reshape(-1, self.dim)
        return np.stack([numkit.hessian_fd(self._phi, row) for row in flat]).reshape(
            x.shape + (self.dim,)
        )

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.phi(x) < 0.0

    def boundary_samples(self, count: int) -> np.ndarray:
        if self._boundary_sampler is None:
            raise ValueError(f"domain {self.name!r} has no boundary sampler")
        return np.asarray(self._boundary_sampler(count), dtype=float)


def boundary_frames(domain: ImplicitDomain, feet: np.ndarray) -> SurfacePoint:
    """Shape-operator eigendata of the boundary at a batch of points.

    ``feet`` has shape (..., n); the returned :class:`SurfacePoint` carries
    the same leading shape: positions (..., n), inner normals (..., n),
    ascending curvatures (..., n-1) and principal directions (..., n-1, n),
    each direction signed so that its first component larger than 1e-12 in
    magnitude is positive. The shape operator is the tangential part of
    ``Hess(phi)/|grad phi|``, which for the ``{phi < 0}`` convention carries
    the inner-side sign: the unit ball boundary comes out with curvatures
    +1. One eigen solve covers the whole batch.

    Raises :class:`NotOnBoundaryError` or :class:`SingularPointError` for
    the first point off the boundary or with a vanishing gradient.
    """
    p = np.asarray(feet, dtype=float)
    residual = np.abs(domain.phi(p))
    off = residual > BOUNDARY_TOL * (1.0 + np.linalg.norm(p, axis=-1))
    if np.any(off):
        i = numkit.first_index(off)
        raise NotOnBoundaryError(float(residual[i]), p[i])
    g = np.asarray(domain.grad(p), dtype=float)
    gnorm = np.linalg.norm(g, axis=-1)
    singular = gnorm < GRADIENT_FLOOR
    if np.any(singular):
        i = numkit.first_index(singular)
        raise SingularPointError(float(gnorm[i]), p[i])
    outward = g / gnorm[..., None]
    h = np.asarray(domain.hess(p), dtype=float)
    proj = np.eye(domain.dim) - outward[..., :, None] * outward[..., None, :]
    shape_full = proj @ h @ proj / gnorm[..., None, None]
    tangent = numkit.orthonormal_complement(outward)
    shape_t = tangent @ shape_full @ np.swapaxes(tangent, -1, -2)
    shape_t = 0.5 * (shape_t + np.swapaxes(shape_t, -1, -2))
    eig = numkit.sym_eigen(shape_t)
    # row j of each direction matrix is column j of the eigenvectors, mapped
    # from tangent coordinates back to R^n
    columns = np.swapaxes(tangent, -1, -2) @ eig.eigenvectors
    directions = np.swapaxes(numkit.canonical_sign(columns), -1, -2)
    return SurfacePoint(
        position=p,
        inner_normal=-outward,
        curvatures=eig.eigenvalues,
        directions=directions,
    )


def principal_curvatures(domain: ImplicitDomain, p: np.ndarray) -> SurfacePoint:
    """Shape-operator eigendata of the boundary at one point ``p``."""
    return boundary_frames(domain, p)


def m_convexity_defect(sp: SurfacePoint, m: int):
    """Sum of the m smallest principal curvatures; nonnegative iff m-convex."""
    return mpsh.sum_smallest(sp.curvatures, m)


def is_m_flat(sp: SurfacePoint, m: int, tol: float):
    """True when the m smallest principal curvatures all vanish within tol."""
    curvatures = np.asarray(sp.curvatures)
    mpsh.check_m(m, curvatures.shape[-1])
    return np.all(np.abs(curvatures[..., :m]) <= tol, axis=-1)


def default_flat_tol(curvatures: np.ndarray) -> float:
    """Scale-aware flatness tolerance: 1e-6 times the curvature scale."""
    peak = float(np.max(np.abs(curvatures))) if curvatures.size else 0.0
    return 1e-6 * max(1.0, peak)


@dataclass(frozen=True)
class FlatnessReport:
    """Sampled census of m-flat boundary points.

    ``outside_fraction`` is the fraction of flat samples at radius > r0, a
    sampled proxy for flatness near infinity. Sampled evidence only: a
    finite sample cannot certify the global topology of the flat set.
    """

    m: int
    tol: float
    total: int
    flat_count: int
    flat_points: np.ndarray
    bounding_box: Optional[np.ndarray]
    r0: float
    outside_fraction: float
    note: str = "sampled evidence only"


def m_flatness_report(
    domain: ImplicitDomain,
    samples: np.ndarray,
    m: int,
    tol: Optional[float] = None,
    r0: float = 1.0,
) -> FlatnessReport:
    """Classify boundary samples as m-flat or not and summarize where they sit."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty boundary sample set")
    frames = boundary_frames(domain, samples)
    use_tol = default_flat_tol(frames.curvatures) if tol is None else float(tol)
    flags = is_m_flat(frames, m, use_tol)
    flat_pts = samples[flags]
    if flat_pts.size:
        box = np.stack([flat_pts.min(axis=0), flat_pts.max(axis=0)])
        radii = np.linalg.norm(flat_pts, axis=-1)
        outside = float(np.mean(radii > r0))
    else:
        box = None
        outside = 0.0
    return FlatnessReport(
        m=m,
        tol=use_tol,
        total=len(samples),
        flat_count=int(flags.sum()),
        flat_points=flat_pts,
        bounding_box=box,
        r0=r0,
        outside_fraction=outside,
    )


# ---------------------------------------------------------------------------
# catalog

# every catalog domain lives in R^3
AMBIENT_DIM = 3


def _fibonacci_directions(count: int) -> np.ndarray:
    k = np.arange(count, dtype=float)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - 2.0 * (k + 0.5) / count
    theta = 2.0 * np.pi * k / golden
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=-1)


def sphere(radius: float = 1.0) -> ImplicitDomain:
    """The ball of given radius; phi is the exact signed distance."""
    r = float(radius)

    def phi(x):
        return np.sqrt(numkit.axis_sum(np.square(np.asarray(x, dtype=float)))) - r

    def grad(x):
        nrm = np.linalg.norm(x, axis=-1, keepdims=True)
        return x / np.maximum(nrm, 1e-300)

    def hess(x):
        x = np.asarray(x, dtype=float)
        nrm = np.linalg.norm(x, axis=-1)[..., None, None]
        unit = x / np.maximum(nrm[..., 0], 1e-300)
        eye = np.broadcast_to(np.eye(3), x.shape + (3,))
        return (eye - unit[..., :, None] * unit[..., None, :]) / np.maximum(nrm, 1e-300)

    def boundary(count):
        return r * _fibonacci_directions(count)

    def project(x):
        x = np.asarray(x, dtype=float)
        nrm = np.linalg.norm(x, axis=-1)
        delta = nrm - r
        safe = np.maximum(nrm, 1e-300)
        foot = x * (r / safe)[..., None]
        multiplicity = np.where(nrm < 1e-12, np.inf, 1.0)
        return foot, delta, multiplicity

    return ImplicitDomain(
        "sphere",
        AMBIENT_DIM,
        phi,
        grad,
        hess,
        boundary_sampler=boundary,
        box=np.array([[-r, -r, -r], [r, r, r]]),
        exact_projection=project,
        reach_hint=r,
    )


def halfspace() -> ImplicitDomain:
    """The halfspace {x3 < 0}; phi = x3 is the exact signed distance."""

    def phi(x):
        return np.asarray(x, dtype=float)[..., 2]

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 2] = 1.0
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (3,))

    def boundary(count):
        side = int(np.ceil(np.sqrt(count)))
        ticks = np.linspace(-2.0, 2.0, side)
        u, v = np.meshgrid(ticks, ticks, indexing="ij")
        pts = np.stack([u.ravel(), v.ravel(), np.zeros(side * side)], axis=-1)
        return pts[:count]

    def project(x):
        x = np.asarray(x, dtype=float)
        foot = x.copy()
        foot[..., 2] = 0.0
        return foot, x[..., 2], np.ones(x.shape[:-1])

    return ImplicitDomain(
        "halfspace",
        AMBIENT_DIM,
        phi,
        grad,
        hess,
        boundary_sampler=boundary,
        box=np.array([[-2.0, -2.0, -2.0], [2.0, 2.0, 0.0]]),
        exact_projection=project,
        reach_hint=np.inf,
    )


def cylinder(radius: float = 1.0) -> ImplicitDomain:
    """The solid cylinder {x1^2 + x2^2 < R^2}; phi is the exact signed distance."""
    r = float(radius)

    def rho(x):
        return np.linalg.norm(np.asarray(x, dtype=float)[..., :2], axis=-1)

    def phi(x):
        return rho(x) - r

    def grad(x):
        x = np.asarray(x, dtype=float)
        rr = np.maximum(rho(x), 1e-300)
        g = np.zeros_like(x)
        g[..., 0] = x[..., 0] / rr
        g[..., 1] = x[..., 1] / rr
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        rr = np.maximum(rho(x), 1e-300)
        ux = x[..., 0] / rr
        uy = x[..., 1] / rr
        h = np.zeros(x.shape + (3,))
        h[..., 0, 0] = (1.0 - ux * ux) / rr
        h[..., 1, 1] = (1.0 - uy * uy) / rr
        h[..., 0, 1] = -ux * uy / rr
        h[..., 1, 0] = h[..., 0, 1]
        return h

    def boundary(count):
        side = int(np.ceil(np.sqrt(count)))
        theta = np.linspace(0.0, 2.0 * np.pi, side, endpoint=False)
        z = np.linspace(-2.0, 2.0, side)
        t, zz = np.meshgrid(theta, z, indexing="ij")
        pts = np.stack(
            [r * np.cos(t.ravel()), r * np.sin(t.ravel()), zz.ravel()], axis=-1
        )
        return pts[:count]

    def project(x):
        x = np.asarray(x, dtype=float)
        rr = rho(x)
        delta = rr - r
        safe = np.maximum(rr, 1e-300)
        foot = x.copy()
        foot[..., 0] = x[..., 0] * (r / safe)
        foot[..., 1] = x[..., 1] * (r / safe)
        multiplicity = np.where(rr < 1e-12, np.inf, 1.0)
        return foot, delta, multiplicity

    return ImplicitDomain(
        "cylinder",
        AMBIENT_DIM,
        phi,
        grad,
        hess,
        boundary_sampler=boundary,
        box=np.array([[-r, -r, -2.0], [r, r, 2.0]]),
        exact_projection=project,
        reach_hint=r,
    )


def slab(half_width: float = 1.0) -> ImplicitDomain:
    """The slab {|x3| < a} between two parallel planes; exact signed distance."""
    a = float(half_width)

    def phi(x):
        return np.abs(np.asarray(x, dtype=float)[..., 2]) - a

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 2] = np.where(x[..., 2] >= 0.0, 1.0, -1.0)
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (3,))

    def boundary(count):
        side = int(np.ceil(np.sqrt(count / 2)))
        ticks = np.linspace(-2.0, 2.0, side)
        u, v = np.meshgrid(ticks, ticks, indexing="ij")
        top = np.stack([u.ravel(), v.ravel(), np.full(side * side, a)], axis=-1)
        bottom = top.copy()
        bottom[:, 2] = -a
        pts = np.empty((2 * side * side, 3))
        pts[0::2] = top
        pts[1::2] = bottom
        return pts[:count]

    def project(x):
        x = np.asarray(x, dtype=float)
        z = x[..., 2]
        foot = x.copy()
        foot[..., 2] = np.where(z >= 0.0, a, -a)
        delta = np.abs(z) - a
        multiplicity = np.where(np.abs(z) < 1e-12, 2.0, 1.0)
        return foot, delta, multiplicity

    return ImplicitDomain(
        "slab",
        AMBIENT_DIM,
        phi,
        grad,
        hess,
        boundary_sampler=boundary,
        box=np.array([[-2.0, -2.0, -a], [2.0, 2.0, a]]),
        exact_projection=project,
        reach_hint=a,
    )


def catenoid(scale: float = 1.0, z_extent: float = 1.2) -> ImplicitDomain:
    """The inner catenoid domain {r < scale*cosh(x3/scale)} around the axis.

    Not a distance field: signed distances use the generic projection
    solver. The boundary is the catenoid of neck radius ``scale``.
    """
    s = float(scale)

    def rho(x):
        return np.sqrt(numkit.axis_sum(np.square(np.asarray(x, dtype=float)[..., :2])))

    def phi(x):
        x = np.asarray(x, dtype=float)
        return rho(x) - s * np.cosh(x[..., 2] / s)

    def grad(x):
        x = np.asarray(x, dtype=float)
        rr = np.maximum(rho(x), 1e-300)
        g = np.zeros_like(x)
        g[..., 0] = x[..., 0] / rr
        g[..., 1] = x[..., 1] / rr
        g[..., 2] = -np.sinh(x[..., 2] / s)
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        rr = np.maximum(rho(x), 1e-300)
        ux = x[..., 0] / rr
        uy = x[..., 1] / rr
        h = np.zeros(x.shape + (3,))
        h[..., 0, 0] = (1.0 - ux * ux) / rr
        h[..., 1, 1] = (1.0 - uy * uy) / rr
        h[..., 0, 1] = -ux * uy / rr
        h[..., 1, 0] = h[..., 0, 1]
        h[..., 2, 2] = -np.cosh(x[..., 2] / s) / s
        return h

    def boundary(count):
        side = int(np.ceil(np.sqrt(count)))
        theta = np.linspace(0.0, 2.0 * np.pi, side, endpoint=False)
        # odd row count keeps the neck (the curvature extremum) in the lattice
        rows = side if side % 2 == 1 else side + 1
        v = np.linspace(-z_extent, z_extent, rows)
        t, vv = np.meshgrid(theta, v, indexing="ij")
        t = t.ravel()
        vv = vv.ravel()
        r = s * np.cosh(vv / s)
        pts = np.stack([r * np.cos(t), r * np.sin(t), vv], axis=-1)
        return pts[:count]

    rmax = s * np.cosh(z_extent / s)
    return ImplicitDomain(
        "catenoid",
        AMBIENT_DIM,
        phi,
        grad,
        hess,
        boundary_sampler=boundary,
        box=np.array([[-rmax, -rmax, -z_extent], [rmax, rmax, z_extent]]),
        reach_hint=s,
    )


def scherk() -> ImplicitDomain:
    """One cell of Scherk's doubly periodic surface, e^{x3} cos x1 = cos x2."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.exp(x[..., 2]) * np.cos(x[..., 0]) - np.cos(x[..., 1])

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        ez = np.exp(x[..., 2])
        g[..., 0] = -ez * np.sin(x[..., 0])
        g[..., 1] = np.sin(x[..., 1])
        g[..., 2] = ez * np.cos(x[..., 0])
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        ez = np.exp(x[..., 2])
        h = np.zeros(x.shape + (3,))
        h[..., 0, 0] = -ez * np.cos(x[..., 0])
        h[..., 1, 1] = np.cos(x[..., 1])
        h[..., 2, 2] = ez * np.cos(x[..., 0])
        h[..., 0, 2] = -ez * np.sin(x[..., 0])
        h[..., 2, 0] = h[..., 0, 2]
        return h

    def boundary(count):
        side = int(np.ceil(np.sqrt(count)))
        lim = 0.45 * np.pi
        u = np.linspace(-lim, lim, side)
        v = np.linspace(-lim, lim, side)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        uu = uu.ravel()
        vv = vv.ravel()
        z = np.log(np.cos(vv) / np.cos(uu))
        return np.stack([uu, vv, z], axis=-1)[:count]

    return ImplicitDomain(
        "scherk",
        AMBIENT_DIM,
        phi,
        grad,
        hess,
        boundary_sampler=boundary,
        box=np.array([[-1.4, -1.4, -2.0], [1.4, 1.4, 2.0]]),
    )


DOMAIN_BUILDERS = {
    "sphere": sphere,
    "halfspace": halfspace,
    "cylinder": cylinder,
    "slab": slab,
    "catenoid": catenoid,
    "scherk": scherk,
}


def make_domain(name: str, **params) -> ImplicitDomain:
    try:
        builder = DOMAIN_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown domain {name!r}; choices: {sorted(DOMAIN_BUILDERS)}")
    return builder(**params)
