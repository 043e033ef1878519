"""Signed distance fields, nearest-point projection, and curvature transport.

Within the reach of an embedded boundary, every point has a unique nearest
boundary point, the signed distance has unit gradient, and its Hessian at an
offset point is carried by the boundary frame with eigenvalues
``nu_j / (1 + delta * nu_j)``. This module computes those objects: a
multi-start projection solver for generic implicit boundaries, analytic
shortcuts for exact distance fields, a reach estimator combining focal and
bottleneck bounds, and the curvature bound checks the collar construction
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit, surfaces
from .surfaces import ImplicitDomain, SurfacePoint

# the multi-start projection: boundary seeds per point, convergence
# tolerance, pull and Newton budgets, and the nearest-foot census tolerances
STARTS = 16
TOL = 1e-10
MAX_PULL_ITERS = 60
NEWTON_ITERS = 4
CLUSTER_TOL = 1e-6
EQUAL_DISTANCE_TOL = 1e-7
# midpoints a pruned bisection hands ``below`` per call, at most (one level
# always runs)
BISECT_POINTS = 16


class ProjectionError(RuntimeError):
    """The projection solver failed to converge for some points."""

    def __init__(self, message: str, best_foot=None, residual=None):
        self.best_foot = best_foot
        self.residual = residual
        super().__init__(message)


class FocalPointError(ValueError):
    """A point lies at or beyond a focal distance of the boundary."""


@dataclass(frozen=True)
class TubularCollar:
    """Working radii for the collar construction, strictly nested.

    ``0 < eps1 < eps2 < eps0 < eps0p < reach/2`` where ``reach`` is the
    tubular radius in force (user supplied or estimated).
    """

    reach: float
    eps0p: float
    eps0: float
    eps2: float
    eps1: float

    def __post_init__(self):
        if not (0.0 < self.eps1 < self.eps2 < self.eps0 < self.eps0p):
            raise ValueError(
                f"collar radii must satisfy 0 < eps1 < eps2 < eps0 < eps0p, got "
                f"{self.eps1}, {self.eps2}, {self.eps0}, {self.eps0p}"
            )
        if not self.eps0p < 0.5 * self.reach:
            raise ValueError(
                f"outer collar radius {self.eps0p} must stay below half the "
                f"tubular radius {self.reach}"
            )


@dataclass(frozen=True)
class ProjectionResult:
    """Foot point and signed distance of one query point.

    ``multiplicity`` counts the distinct nearest feet found; a value above 1
    signals the point is at or beyond the reach. ``residual`` is the defining
    field value at the foot.
    """

    foot: np.ndarray
    distance: float
    multiplicity: int
    residual: float


def _newton_to_surface(domain: ImplicitDomain, p: np.ndarray, reps: int = 2) -> np.ndarray:
    for _ in range(reps):
        val = domain.phi(p)[..., None]
        g = domain.grad(p)
        gsq = np.maximum(numkit.axis_sum(g * g), 1e-300)[..., None]
        g *= val
        g /= gsq
        p = p - g
    return p


def _newton_polish(domain: ImplicitDomain, p: np.ndarray, xq: np.ndarray, ns: int):
    """Lagrange-Newton polish on (p, mu): x - p - mu * grad(p) = 0, phi(p) = 0.

    ``p`` holds ``ns`` candidate rows per point of ``xq``. A point with a
    singular system stops polishing alone: no point depends on its batch.
    """
    dim = p.shape[-1]
    p2 = p.copy()
    g = domain.grad(p2)
    mu = numkit.axis_sum((xq - p2) * g) / np.maximum(numkit.axis_sum(g * g), 1e-280)
    live = np.ones(len(p) // ns, dtype=bool)  # query points still being polished
    rows = slice(None)  # their candidate rows; a view while every point is live
    for _ in range(NEWTON_ITERS):
        q, m, xr = p2[rows], mu[rows], xq[rows]
        g = domain.grad(q)
        h = domain.hess(q)
        r1 = xr - q - m[:, None] * g
        r2 = domain.phi(q)
        jac = np.zeros((q.shape[0], dim + 1, dim + 1))
        jac[:, :dim, :dim] = -np.eye(dim)[None, :, :] - m[:, None, None] * h
        jac[:, :dim, dim] = -g
        jac[:, dim, :dim] = g
        jac[:, dim, dim] = 1e-14
        rhs = np.concatenate([r1, r2[:, None]], axis=-1)
        try:
            delta = np.linalg.solve(jac, -rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # slogdet runs the same LU as solve: sign 0 exactly where it fails
            with np.errstate(invalid="ignore"):
                singular = np.linalg.slogdet(jac)[0] == 0.0
            frozen = np.any(singular.reshape(-1, ns), axis=1)
            live[np.flatnonzero(live)[frozen]] = False
            if not np.any(live):
                break
            keep = np.repeat(~frozen, ns)
            q, m, jac, rhs = q[keep], m[keep], jac[keep], rhs[keep]
            rows = np.repeat(live, ns)
            delta = np.linalg.solve(jac, -rhs[..., None])[..., 0]
        delta = np.where(np.isfinite(delta), delta, 0.0)
        step = delta[:, :dim]
        slen = np.sqrt(numkit.axis_sum(step * step))[:, None]
        step = step * np.minimum(1.0, 0.25 / np.maximum(slen, 1e-300))
        p2[rows] = q + step
        mu[rows] = m + np.clip(delta[:, dim], -0.25, 0.25)
    return _newton_to_surface(domain, p2, reps=2)


def project_batch(
    domain: ImplicitDomain,
    points: np.ndarray,
    *,
    warm_feet: Optional[np.ndarray] = None,
):
    """Vectorized nearest-point projection onto the boundary.

    Returns ``(feet, distances, multiplicities)`` with shapes (B, n), (B,),
    (B,). Distances are signed: negative inside the domain. Uses the exact
    projection when the domain provides one, otherwise multi-start
    tangential pulls followed by a Lagrange-Newton polish. Rows are
    independent: a point gets the same bits alone as inside any batch.

    ``warm_feet`` supplies one known-good starting foot per point (for
    example the foot of a nearby point when evaluating difference
    stencils); it replaces the multi-start seeding, so it must only be used
    well inside the reach where the nearest foot is unique.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if domain.exact_projection is not None:
        foot, delta, mult = domain.exact_projection(x)
        return foot, np.asarray(delta, dtype=float), np.asarray(mult, dtype=float)

    nb, dim = x.shape
    # diverging starts overflow to inf and NaN; the ok mask below drops them
    with np.errstate(over="ignore", invalid="ignore"):
        if warm_feet is not None:
            ns = 1
            warm = np.asarray(warm_feet, dtype=float).reshape(nb, dim)
            p = _newton_to_surface(domain, warm, reps=3)
        else:
            # the boundary seeds are Newton-polished once for all points; the
            # query point itself gets three Newton reps to seed, three to polish
            seeds = _newton_to_surface(domain, domain.boundary_samples(STARTS), reps=3)
            ns = seeds.shape[0] + 1
            p = np.empty((nb, ns, dim))
            p[:, :-1, :] = seeds[None, :, :]
            p[:, -1, :] = _newton_to_surface(domain, x, reps=6)
            p = p.reshape(nb * ns, dim)
        xq = np.repeat(x, ns, axis=0)

        # Damped tangential pulls (full steps oscillate near focal configurations);
        # the rows still moving stay contiguous in pa and xa until they stop
        pa, xa, rows = p, xq, np.arange(len(p))
        for _ in range(MAX_PULL_ITERS):
            g = domain.grad(pa)
            g /= np.maximum(np.sqrt(numkit.axis_sum(g * g)), 1e-300)[:, None]
            d = xa - pa
            step = d - numkit.axis_sum(d * g)[:, None] * g
            step *= 0.6  # the damping
            slen = np.sqrt(numkit.axis_sum(step * step))
            cap = 0.5 * (1.0 + np.sqrt(numkit.axis_sum(d * d)))
            step *= np.minimum(1.0, cap / np.maximum(slen, 1e-300))[:, None]
            pa = _newton_to_surface(domain, pa + step, reps=2)
            moved = np.sqrt(numkit.axis_sum(step * step)) >= 0.01 * TOL
            if not moved.all():
                p[rows[~moved]] = pa[~moved]
                pa, xa, rows = pa[moved], xa[moved], rows[moved]
                if rows.size == 0:
                    break
        p[rows] = pa

        # Non-destructive: the polished candidate only replaces the pull result
        # where it ends up strictly closer to the surface-optimality conditions.
        p2 = _newton_polish(domain, p, xq, ns)

        def residuals(cand):
            phi_c = np.abs(domain.phi(cand))
            g_c = domain.grad(cand)
            gsq = np.maximum(numkit.axis_sum(g_c * g_c), 1e-280)
            d_c = xq - cand
            g_c *= (numkit.axis_sum(d_c * g_c) / gsq)[:, None]
            d_c -= g_c
            return phi_c, np.sqrt(numkit.axis_sum(d_c * d_c))

        phi_a, tang_a = residuals(p)
        phi_b, tang_b = residuals(p2)
    take_b = (phi_b + tang_b) < (phi_a + tang_a)
    p = np.where(take_b[:, None], p2, p)
    phi_feet = np.where(take_b, phi_b, phi_a).reshape(nb, ns)
    tang_res = np.where(take_b, tang_b, tang_a).reshape(nb, ns)

    p = p.reshape(nb, ns, dim)
    scale = 1.0 + np.sqrt(numkit.axis_sum(x * x))
    ok = phi_feet <= 1e-9 * scale[:, None]
    ok &= tang_res <= 1e3 * TOL * scale[:, None]
    # only sharply converged critical points may witness extra nearest feet;
    # near-focal valleys leave loosely converged candidates at nearly the
    # best distance that would otherwise fake a multiplicity
    critical = ok & (tang_res <= 1e2 * TOL * scale[:, None])

    dist = np.sqrt(numkit.axis_sum(np.square(x[:, None, :] - p)))
    dist_masked = np.where(ok, dist, np.inf)
    best_idx = np.argmin(dist_masked, axis=1)
    best = dist_masked[np.arange(nb), best_idx]
    if not np.all(np.isfinite(best)):
        bad = int(np.argmax(~np.isfinite(best)))
        raise ProjectionError(
            f"projection failed to converge at {x[bad].tolist()}",
            best_foot=p[bad, np.argmin(dist[bad])],
            residual=float(np.min(phi_feet[bad])),
        )

    feet = p[np.arange(nb), best_idx]
    near = critical & (dist <= (best + EQUAL_DISTANCE_TOL * (1.0 + best))[:, None])
    mult = _count_feet(p, near, CLUSTER_TOL * scale)

    sign = np.where(domain.phi(x) >= 0.0, 1.0, -1.0)
    delta = sign * best
    return feet, delta, mult


def _count_feet(candidates: np.ndarray, near: np.ndarray, sep_tol: np.ndarray) -> np.ndarray:
    """Distinct nearest feet per point, at least 1: shape (B,).

    Greedy along the start axis of ``candidates`` (B, S, n): a candidate
    marked ``near`` (B, S) opens a new foot unless it lies within ``sep_tol``
    (B,) of a foot opened by an earlier candidate of the same point.
    """
    opened = np.zeros(near.shape, dtype=bool)
    for j in range(near.shape[1]):
        gap = numkit.row_norms(candidates[:, j : j + 1] - candidates[:, :j])[..., 0]
        apart = ~opened[:, :j] | (gap > sep_tol[:, None])
        opened[:, j] = near[:, j] & np.all(apart, axis=1)
    return np.maximum(1.0, np.count_nonzero(opened, axis=1))


def signed_distance(domain: ImplicitDomain, x: np.ndarray) -> ProjectionResult:
    """Signed distance and nearest foot of a single point (negative inside)."""
    x = np.asarray(x, dtype=float)
    feet, delta, mult = project_batch(domain, x[None, :])
    residual = float(abs(domain.phi(feet[0])))
    return ProjectionResult(
        foot=feet[0],
        distance=float(delta[0]),
        multiplicity=int(mult[0]) if np.isfinite(mult[0]) else int(1e9),
        residual=residual,
    )


@dataclass(frozen=True)
class DistanceJet:
    """Signed distance with its first and second derivatives at B points.

    ``feet`` (B, n), ``delta`` (B,) and ``multiplicity`` (B,) come from the
    projection. ``active`` (B,) marks the rows above the floor given to
    :func:`distance_jet`; only those rows fill ``grad`` (B, n), the unit
    gradient of the signed distance, ``curvatures`` (B, n-1), the
    transported curvatures ``nu / (1 + delta * nu)`` in ascending order, and
    ``directions`` (B, n-1, n), the principal directions at the feet. The
    other rows hold zeros.
    """

    feet: np.ndarray
    delta: np.ndarray
    multiplicity: np.ndarray
    active: np.ndarray
    grad: np.ndarray
    curvatures: np.ndarray
    directions: np.ndarray

    def hessian(self) -> np.ndarray:
        """Hessian of the signed distance, sum_j nu_j d_j d_j^T, shape (B, n, n).

        The boundary frame at the foot diagonalizes it all along the normal
        line; the normal direction carries eigenvalue zero.
        """
        d = self.directions
        return np.swapaxes(d, -1, -2) @ (self.curvatures[..., None] * d)


def distance_jet(
    domain: ImplicitDomain, points: np.ndarray, floor: float = -np.inf
) -> DistanceJet:
    """One batched projection and one batched frame solve for B points.

    ``points`` has shape (B, n), or (n,) for one point. Rows with signed
    distance at or below ``floor`` get zero jets before any multiplicity or
    frame work. Raises :class:`FocalPointError` naming the first remaining
    point with more than one nearest foot, or one past a focal distance.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    nb, dim = x.shape
    feet, delta, mult = project_batch(domain, x)
    active = delta > floor
    grad = np.zeros((nb, dim))
    curvatures = np.zeros((nb, dim - 1))
    directions = np.zeros((nb, dim - 1, dim))
    multi = active & (mult > 1)
    if np.any(multi):
        i = int(np.argmax(multi))
        raise FocalPointError(
            f"point {x[i].tolist()} has {mult[i]:g} nearest feet; beyond reach"
        )
    if np.any(active):
        xa, fa, ta = x[active], feet[active], delta[active]
        frames = surfaces.boundary_frames(domain, fa)
        on_boundary = np.abs(ta) < 1e-12 * (1.0 + np.linalg.norm(xa, axis=-1))
        safe = np.where(on_boundary, 1.0, ta)[:, None]
        outward = -frames.inner_normal
        grad[active] = np.where(on_boundary[:, None], outward, (xa - fa) / safe)
        curvatures[active] = transport_curvatures(frames, ta)
        directions[active] = frames.directions
    return DistanceJet(feet, delta, mult, active, grad, curvatures, directions)


def grad_delta(domain: ImplicitDomain, x: np.ndarray) -> np.ndarray:
    """Unit gradient of the signed distance, pointing toward increasing distance."""
    return distance_jet(domain, x).grad[0]


def transport_curvatures(sp: SurfacePoint, t) -> np.ndarray:
    """Principal curvatures of the parallel hypersurfaces at signed offsets t.

    The offset point is ``p + t * grad_delta(p)`` with t <= 0 inside; each
    curvature maps to ``nu / (1 + t * nu)``, which preserves order and sign
    and is the identity at t = 0. ``t`` has the leading shape of ``sp``.
    """
    nu = np.asarray(sp.curvatures, dtype=float)
    t = np.asarray(t, dtype=float)
    denom = 1.0 + t[..., None] * nu
    focal = np.any(denom <= 0.0, axis=-1)
    if np.any(focal):
        i = numkit.first_index(focal)
        raise FocalPointError(
            f"offset {float(t[i])} from {np.asarray(sp.position)[i].tolist()} reaches "
            f"a focal point: 1 + t*nu = {denom[i].min():.3e}"
        )
    return nu / denom


def hessian_delta(domain: ImplicitDomain, x: np.ndarray) -> np.ndarray:
    """Hessian of the signed distance assembled from transported curvatures."""
    return distance_jet(domain, x).hessian()[0]


@dataclass(frozen=True)
class ReachEstimate:
    """Lower-bound reach estimate over a sampled boundary region.

    ``focal_bound`` is 1/max|nu| over the samples; ``bottleneck_bound`` is
    the smallest normal distance at which the nearest foot jumps to another
    sheet (half the cross-sheet separation). Local evidence only: values
    reflect the sampled region, not the full boundary.
    """

    value: float
    focal_bound: float
    bottleneck_bound: float
    capped: bool
    samples: int
    note: str = "estimate over sampled region only"


def reach_estimate(
    domain: ImplicitDomain,
    boundary_samples: np.ndarray,
    probe_count: int = 24,
    cap: Optional[float] = None,
) -> ReachEstimate:
    """Estimate the tubular radius from focal and bottleneck phenomena.

    The bottleneck bound is the smallest offset at which a probe ray (along
    either normal) leaves its foot: all rays are tested at ``cap`` in one
    batch, and those that fail there are bisected together. Only the
    smallest offset is reported, so the bisection drops every ray that can
    no longer be the smallest, and once few rays are left one projection
    call evaluates the midpoints of several levels (see :func:`bisect`).
    Projection rows do not depend on their batch, so the result equals that
    of bisecting every ray alone.
    """
    pts = np.atleast_2d(np.asarray(boundary_samples, dtype=float))
    if pts.size == 0:
        raise ValueError("empty boundary sample set")
    frames = surfaces.boundary_frames(domain, pts)
    peak = float(np.max(np.abs(frames.curvatures)))
    focal = np.inf if peak == 0.0 else 1.0 / peak
    if focal < 1e-12:
        return ReachEstimate(0.0, focal, 0.0, False, len(pts))

    if cap is None:
        if np.isfinite(focal):
            cap = 2.0 * focal
        elif domain.box is not None:
            cap = float(np.max(domain.box[1] - domain.box[0]))
        else:
            cap = 8.0

    stride = max(1, len(pts) // probe_count)
    normals = frames.inner_normal[::stride]
    origins = np.repeat(pts[::stride], 2, axis=0)
    directions = np.stack([normals, -normals], axis=1).reshape(origins.shape)

    def same_foot(o, d, s):
        feet, _, mult = project_batch(domain, o + s[:, None] * d)
        return (mult <= 1) & (numkit.row_norms(feet - o)[:, 0] <= 1e-5 * (1.0 + s))

    offsets = np.full(len(origins), cap)
    rays = np.flatnonzero(~same_foot(origins, directions, offsets))
    if rays.size:
        o, d = origins[rays], directions[rays]
        lo, _ = bisect(
            lambda s, r: same_foot(o[r], d[r], s),
            np.zeros(rays.size), offsets[rays], 40, prune=True,
        )
        offsets[rays] = lo  # exact at the minimum, the one value read
    bottleneck = float(np.min(offsets))
    value = min(focal, bottleneck)
    return ReachEstimate(
        value=float(value),
        focal_bound=float(focal),
        bottleneck_bound=bottleneck,
        capped=rays.size == 0 and not np.isfinite(focal),
        samples=len(pts),
    )


def bisect(below, lo: np.ndarray, hi: np.ndarray, iters: int, *, prune: bool = False):
    """Bisect many brackets at once; returns the final ``(lo, hi)``.

    ``below(mid)`` marks the rows whose crossing lies beyond ``mid``: those
    rows move ``lo`` up to ``mid``, the others move ``hi`` down to it.

    With ``prune`` only ``min(lo)`` is wanted. Before each round, a row whose
    ``lo`` is at or above the smallest ``hi`` of the live rows is dropped: its
    final ``lo`` cannot fall below the final ``lo`` of the row holding that
    ``hi``, since ``lo`` only rises and ``hi`` only falls. A dropped row keeps
    the bracket it had, so ``min(lo)`` is still exact, whether or not
    ``below`` is monotone. The
    live rows then advance by as many levels as fit ``BISECT_POINTS``: one
    call ``below(mid, rows)``, ``rows`` giving the row of each ``mid``,
    evaluates every midpoint those levels could visit, and the walk down that
    tree takes the bits of the one-level loop.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.arange(lo.size)
    left = iters
    while left > 0 and live.size:
        levels = 1
        if prune:
            live = live[lo[live] < np.min(hi[live])]
            while levels < left and live.size * (2 ** (levels + 1) - 1) <= BISECT_POINTS:
                levels += 1
        # midpoint tree of the next levels, heap order: node k has children
        # 2k + 1 (crossing below its midpoint) and 2k + 2 (beyond it)
        lo_t, hi_t = [lo[live]], [hi[live]]
        mid = []
        for k in range(2**levels - 1):
            mid.append(0.5 * (lo_t[k] + hi_t[k]))
            lo_t += [lo_t[k], mid[k]]
            hi_t += [mid[k], hi_t[k]]
        mid = np.concatenate(mid)
        up = below(mid, np.tile(live, 2**levels - 1)) if prune else below(mid)
        node = np.zeros(live.size, dtype=int)
        cols = np.arange(live.size)
        for _ in range(levels):
            at = node * live.size + cols
            lo[live] = np.where(up[at], mid[at], lo[live])
            hi[live] = np.where(up[at], hi[live], mid[at])
            node = 2 * node + 1 + up[at]
        left -= levels
    return lo, hi


@dataclass(frozen=True)
class BoundsViolation:
    point: np.ndarray
    curvatures: np.ndarray
    margin: float
    check: str


@dataclass(frozen=True)
class CurvatureBoundsReport:
    """Margins for the collar curvature bounds over boundary samples.

    Checks, per sample: every curvature lies in [-(m-1)/eps, 1/eps], and the
    sum of the nonpositive curvatures is at least -(m-1)/eps. Margins are
    slack amounts; negative margin means violation.
    """

    eps: float
    m: int
    samples: int
    worst_lower: float
    worst_upper: float
    worst_negative_sum: float
    violations: tuple

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def curvature_bounds_check(
    domain: ImplicitDomain,
    eps: float,
    m: int,
    boundary_samples: np.ndarray,
    tol: float = 1e-9,
) -> CurvatureBoundsReport:
    pts = np.atleast_2d(np.asarray(boundary_samples, dtype=float))
    lower = -(m - 1) / eps
    upper = 1.0 / eps
    nu = surfaces.boundary_frames(domain, pts).curvatures
    negsum = np.sum(np.where(nu <= 0.0, nu, 0.0), axis=-1)
    # one column per check, in the order the violations are listed
    margins = np.stack(
        [np.min(nu - lower, axis=-1), np.min(upper - nu, axis=-1), negsum - lower], axis=-1
    )
    worst = np.min(margins, axis=0, initial=np.inf)
    labels = ("lower", "upper", "negative-sum")
    violations = tuple(
        BoundsViolation(pts[i], nu[i].copy(), float(margins[i, k]), labels[k])
        for i, k in np.argwhere(margins < -tol)
    )
    return CurvatureBoundsReport(
        eps=eps,
        m=m,
        samples=len(pts),
        worst_lower=float(worst[0]),
        worst_upper=float(worst[1]),
        worst_negative_sum=float(worst[2]),
        violations=violations,
    )


def collar_points(
    domain: ImplicitDomain,
    count: int,
    depth_min: float,
    depth_max: float,
) -> np.ndarray:
    """Deterministic collar samples p + t * inner_normal, depths stratified.

    Depths run over (depth_min, depth_max), both positive distances into the
    domain; the signed distance at the returned points is minus the depth.
    """
    if not 0.0 <= depth_min < depth_max:
        raise ValueError("need 0 <= depth_min < depth_max")
    n_depth = max(4, int(round(count ** (1.0 / 3.0))))
    n_base = int(np.ceil(count / n_depth))
    base = domain.boundary_samples(n_base)
    depths = depth_min + (depth_max - depth_min) * (
        (np.arange(n_depth) + 0.5) / n_depth
    )
    g = domain.grad(base)
    inner = -g / numkit.row_norms(g)
    pts = base[:, None, :] + depths[None, :, None] * inner[:, None, :]
    return pts.reshape(-1, base.shape[-1])[:count]
