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
    back to centered differences and set ``fd_fallback``. An
    ``exact_projection`` marks ``phi`` as the exact signed distance to the
    boundary and returns the foot, distance and multiplicity.

    ``hess_floor(centers, radii)`` takes B balls, centres (B, n) and radii
    (B,), and returns (B,) values -M <= 0, each with ``phi + (M/2)|x|^2``
    convex on its closed ball B(centers[i], radii[i]), that is a lower bound
    on the eigenvalues of Hess ``phi`` there where ``phi`` is C^2; row i
    depends on row i alone. A floor that depends on the ball is NaN for a
    NaN centre or radius and -inf where it overflows; neither certifies
    anything. Like ``reach_hint`` it is domain geometry; it is what certifies
    a witness disc of the metric search, and a domain without it certifies
    none. Where it is 0, ``phi`` is convex on the ball, which also lets the
    radius solve of the search drop a losing candidate disc with one probe
    circle.
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
        hess_floor: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
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
        self.reach_hint = reach_hint
        self.hess_floor = hess_floor
        if boundary_sampler is not None:
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


def _radial(x: np.ndarray, k: int, order: int) -> np.ndarray:
    """The distance rho of (..., n) points from the axis {x_1 = ... = x_k = 0}
    (order 0), its gradient (order 1, shape (..., n)) or its Hessian (order
    2, shape (..., n, n)): u_i and (delta_ij - u_i u_j) / rho in the first k
    coordinates, u = x / rho, zero elsewhere. The quotients floor rho at
    1e-300. Written entry by entry: a broadcast ``eye(k) - u u^T`` ran 2-4x
    slower on 2x10^4 points on a 2-core x86 host. rho squares column by
    column and adds in ``numkit.axis_sum``'s order: the same bits as squaring
    the strided slice ``x[..., :k]``, and for k = 2 about 2.5x faster on
    4,352 points.
    """
    sq = x[..., 0] * x[..., 0]
    for i in range(1, k):
        sq += x[..., i] * x[..., i]
    rho = np.sqrt(sq)
    if order == 0:
        return rho
    rho = np.maximum(rho, 1e-300)
    if order == 1:
        g = np.zeros_like(x)
        for i in range(k):
            g[..., i] = x[..., i] / rho
        return g
    u = [x[..., i] / rho for i in range(k)]
    h = np.zeros(x.shape + x.shape[-1:])
    for i in range(k):
        h[..., i, i] = (1.0 - u[i] * u[i]) / rho
        for j in range(i + 1, k):
            h[..., i, j] = h[..., j, i] = -u[i] * u[j] / rho
    return h


def _convex_floor(centers, radii) -> np.ndarray:
    """The Hessian floor of a convex ``phi``."""
    return np.zeros(len(radii))


def _round(name, k, r, boundary, box) -> ImplicitDomain:
    """The points within r of the axis {x_1 = ... = x_k = 0}: the ball for
    k = 3, the solid cylinder about the x3-axis for k = 2. phi is the exact
    signed distance; the foot scales the first k coordinates by r / rho, and
    points on the axis (rho < 1e-12) have every foot at infinite
    multiplicity."""

    def project(x):
        x = np.asarray(x, dtype=float)
        rho = _radial(x, k, 0)
        foot = x.copy()
        foot[..., :k] = x[..., :k] * (r / np.maximum(rho, 1e-300))[..., None]
        return foot, rho - r, np.where(rho < 1e-12, np.inf, 1.0)

    return ImplicitDomain(
        name,
        AMBIENT_DIM,
        lambda x: _radial(x, k, 0) - r,
        lambda x: _radial(x, k, 1),
        lambda x: _radial(x, k, 2),
        boundary_sampler=boundary,
        box=box,
        exact_projection=project,
        reach_hint=r,
        hess_floor=_convex_floor,
    )


def sphere(radius: float = 1.0) -> ImplicitDomain:
    """The ball of given radius; phi is the exact signed distance."""
    r = float(radius)
    return _round("sphere", 3, r, lambda count: r * _fibonacci_directions(count),
                  np.array([[-r, -r, -r], [r, r, r]]))


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
        hess_floor=_convex_floor,
    )


def cylinder(radius: float = 1.0) -> ImplicitDomain:
    """The solid cylinder {x1^2 + x2^2 < R^2}; phi is the exact signed distance."""
    r = float(radius)

    def boundary(count):
        side = int(np.ceil(np.sqrt(count)))
        theta = np.linspace(0.0, 2.0 * np.pi, side, endpoint=False)
        z = np.linspace(-2.0, 2.0, side)
        t, zz = np.meshgrid(theta, z, indexing="ij")
        pts = np.stack(
            [r * np.cos(t.ravel()), r * np.sin(t.ravel()), zz.ravel()], axis=-1
        )
        return pts[:count]

    return _round("cylinder", 2, r, boundary, np.array([[-r, -r, -2.0], [r, r, 2.0]]))


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
        hess_floor=_convex_floor,
    )


def catenoid(scale: float = 1.0, z_extent: float = 1.2) -> ImplicitDomain:
    """The inner catenoid domain {r < scale*cosh(x3/scale)} around the axis.

    Not a distance field: signed distances use the generic projection
    solver. The boundary is the catenoid of neck radius ``scale``.
    """
    s = float(scale)

    def phi(x):
        return _radial(x, 2, 0) - s * np.cosh(x[..., 2] / s)

    def grad(x):
        g = _radial(x, 2, 1)
        g[..., 2] = -np.sinh(x[..., 2] / s)
        return g

    def hess(x):
        h = _radial(x, 2, 2)
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

    def hess_floor(centers, radii):
        # rho is convex and -s cosh(x3/s) has second derivative -cosh(x3/s)/s;
        # an overflow gives -inf, which certifies nothing
        with np.errstate(over="ignore"):
            return -np.cosh((np.abs(centers[:, 2]) + radii) / s) / s

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
        hess_floor=hess_floor,
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

    def hess_floor(centers, radii):
        # the Hessian's eigenvalues are cos x2 and +-e^x3 (its x1-x3 block has
        # trace 0 and determinant -e^(2 x3)); an overflow gives -inf, and
        # np.maximum keeps a NaN
        with np.errstate(over="ignore"):
            return -np.maximum(1.0, np.exp(centers[:, 2] + radii))

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
        hess_floor=hess_floor,
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
