"""Signed distance fields, nearest-point projection, and curvature transport.

Within the reach of an embedded boundary, every point has a unique nearest
boundary point, the signed distance has unit gradient, and its Hessian at an
offset point is carried by the boundary frame with eigenvalues
``nu_j / (1 + delta * nu_j)``. This module computes those objects: a
multi-start projection solver for generic implicit boundaries in R^3 (a few
damped tangential pulls per start, then closed-form Lagrange-Newton steps),
analytic shortcuts for exact distance fields, a reach estimator
combining focal and bottleneck bounds, and the curvature bound checks the
collar construction relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkit, surfaces
from .surfaces import ImplicitDomain, SurfacePoint

# the multi-start projection: boundary seeds per point, convergence
# tolerance, step budget, and the nearest-foot census tolerances
STARTS = 16
TOL = 1e-10
MAX_PULL_ITERS = 60
CLUSTER_TOL = 1e-6
EQUAL_DISTANCE_TOL = 1e-7
# midpoints a pruned bisection hands ``below`` per call, at most (one level
# always runs)
BISECT_POINTS = 16
# start rows one pass of the pull loop holds: 256 cold query points, so a
# warm call (one row per point) of up to 4,352 points is never split
BLOCK_ROWS = 256 * (STARTS + 1)
# damped pulls each start row takes before its Lagrange-Newton steps
DAMPED_PULLS = 2


class ProjectionError(RuntimeError):
    """The projection solver failed to converge for some points; ``point``
    is the first such point, ``best_foot`` and ``residual`` its best try."""

    def __init__(self, message: str, best_foot=None, residual=None, point=None):
        self.best_foot = best_foot
        self.residual = residual
        self.point = point
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
    tangential pulls and Lagrange-Newton steps, which need n = 3: another
    dimension without an exact projection raises ``ValueError``. Each
    start row takes ``DAMPED_PULLS`` damped pulls, then Lagrange-Newton
    steps solved in closed form per row (see :func:`_lagrange_steps`) under
    the same step cap, until its step falls below ``0.01 * TOL`` or ``MAX_PULL_ITERS``
    steps have run; a row whose Newton system is singular takes the damped
    pull instead. The tail converges quadratically where the damped pull
    only contracts linearly, near focal points above all. Each row's
    candidate is the foot its loop ends on. Rows are independent: a point
    gets the same bits alone as inside any batch. A NaN or infinite row of
    ``points`` or ``warm_feet`` raises ``ValueError`` naming the argument
    and the row; a point whose norm overflows raises ``ProjectionError``.

    The seeding and the pull loop run in blocks of at most ``BLOCK_ROWS``
    (4,352) start rows, 256 cold points; the foot selection and the census
    run once over the whole batch, so memory grows with the batch only
    through the per-point outputs of the blocks and of the selection.

    ``warm_feet`` supplies one known-good starting foot per point (for
    example the foot of a nearby point when evaluating difference
    stencils); it replaces the multi-start seeding, so it must only be used
    well inside the reach where the nearest foot is unique.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    numkit.require_finite("points", x)
    if warm_feet is not None:
        numkit.require_finite("warm_feet", np.asarray(warm_feet, dtype=float))
    if domain.exact_projection is not None:
        foot, delta, mult = domain.exact_projection(x)
        return foot, np.asarray(delta, dtype=float), np.asarray(mult, dtype=float)
    if domain.dim != 3:
        raise ValueError(
            f"projection onto {domain.name!r} needs an exact projection: "
            f"the multi-start solver works in dimension 3, not {domain.dim}"
        )

    nb, dim = x.shape
    # diverging starts overflow to inf and NaN, and so does the norm of a huge
    # point; the ok mask below drops them
    with np.errstate(over="ignore", invalid="ignore"):
        warm = warm_feet is not None
        if warm:
            starts = np.asarray(warm_feet, dtype=float).reshape(nb, dim)
            ns = 1
        else:
            # the boundary seeds are Newton-polished once for all points
            starts = _newton_to_surface(domain, domain.boundary_samples(STARTS), reps=3)
            ns = starts.shape[0] + 1
        p = np.empty((nb, ns, dim))
        phi_feet, tang_res = np.empty((nb, ns)), np.empty((nb, ns))
        size = max(1, BLOCK_ROWS // ns)
        for lo in range(0, nb, size):
            blk = slice(lo, lo + size)
            p[blk], phi_feet[blk], tang_res[blk] = _candidates(
                domain, x[blk], starts[blk] if warm else starts, warm)
        scale = 1.0 + np.sqrt(numkit.axis_sum(x * x))
        dist = np.sqrt(numkit.axis_sum(np.square(x[:, None, :] - p)))

    # a point whose norm overflows has no tolerance to meet: no row of it is ok
    ok = np.isfinite(scale)[:, None] & (phi_feet <= 1e-9 * scale[:, None])
    ok &= tang_res <= 1e3 * TOL * scale[:, None]
    # only sharply converged critical points may witness extra nearest feet;
    # near-focal valleys leave loosely converged candidates at nearly the
    # best distance that would otherwise fake a multiplicity
    critical = ok & (tang_res <= 1e2 * TOL * scale[:, None])

    dist_masked = np.where(ok, dist, np.inf)
    best_idx = np.argmin(dist_masked, axis=1)
    best = dist_masked[np.arange(nb), best_idx]
    if not np.all(np.isfinite(best)):
        bad = int(np.argmax(~np.isfinite(best)))
        raise ProjectionError(
            f"projection failed to converge at {x[bad].tolist()}",
            best_foot=p[bad, np.argmin(dist[bad])],
            residual=float(np.min(phi_feet[bad])),
            point=x[bad],
        )

    feet = p[np.arange(nb), best_idx]
    near = critical & (dist <= (best + EQUAL_DISTANCE_TOL * (1.0 + best))[:, None])
    mult = _count_feet(p, near, CLUSTER_TOL * scale)

    sign = np.where(domain.phi(x) >= 0.0, 1.0, -1.0)
    delta = sign * best
    return feet, delta, mult


def _candidates(domain: ImplicitDomain, x: np.ndarray, starts: np.ndarray, warm: bool):
    """Pulled start rows of the points ``x`` (b, n): the candidate feet
    (b, S, n) with their ``|phi|`` and tangential residuals (b, S).

    Warm, ``starts`` holds one foot per point, S = 1. Cold, it holds the
    polished boundary seeds every point starts from, and each point also
    starts from itself, S = len(starts) + 1.
    """
    nb, dim = x.shape
    if warm:
        ns = 1
        p = _newton_to_surface(domain, starts, reps=3)
    else:
        # the query point itself gets three Newton reps to seed, three to polish
        ns = starts.shape[0] + 1
        p = np.empty((nb, ns, dim))
        p[:, :-1, :] = starts[None, :, :]
        p[:, -1, :] = _newton_to_surface(domain, x, reps=6)
        p = p.reshape(nb * ns, dim)
    xq = np.repeat(x, ns, axis=0)

    # Damped tangential pulls first (full steps oscillate near focal
    # configurations), then Lagrange-Newton steps, which converge where the
    # damped pull only contracts linearly; the rows still moving stay
    # contiguous in pa and xa until they stop
    pa, xa, rows = p, xq, np.arange(len(p))
    for it in range(MAX_PULL_ITERS):
        g = domain.grad(pa)
        d = xa - pa
        tail = it >= DAMPED_PULLS
        if tail:
            newton = _lagrange_steps(domain.hess(pa), g, d, domain.phi(pa))
        g /= np.maximum(np.sqrt(numkit.axis_sum(g * g)), 1e-300)[:, None]
        step = d - numkit.axis_sum(d * g)[:, None] * g
        step *= 0.6  # the damping
        if tail:  # a row with a singular system takes its damped pull
            step = np.where(np.isfinite(newton).all(axis=-1)[:, None], newton, step)
        slen = np.sqrt(numkit.axis_sum(step * step))
        cap = 0.5 * (1.0 + np.sqrt(numkit.axis_sum(d * d)))
        step *= np.minimum(1.0, cap / np.maximum(slen, 1e-300))[:, None]
        pa = _newton_to_surface(domain, pa + step, reps=1 if tail else 2)
        moved = np.sqrt(numkit.axis_sum(step * step)) >= 0.01 * TOL
        if not moved.all():
            p[rows[~moved]] = pa[~moved]
            pa, xa, rows = pa[moved], xa[moved], rows[moved]
            if rows.size == 0:
                break
    p[rows] = pa

    phi_feet = np.abs(domain.phi(p))
    g = domain.grad(p)
    d = xq - p
    gsq = np.maximum(numkit.axis_sum(g * g), 1e-280)
    g *= (numkit.axis_sum(d * g) / gsq)[:, None]
    d -= g
    tang_res = np.sqrt(numkit.axis_sum(d * d))
    return p.reshape(nb, ns, dim), phi_feet.reshape(nb, ns), tang_res.reshape(nb, ns)


def _lagrange_steps(h: np.ndarray, g: np.ndarray, d: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The foot part of one Lagrange-Newton step per row, shape (N, 3).

    The foot ``p`` and multiplier ``mu`` of a nearest foot of ``x`` solve
    ``x - p - mu grad(p) = 0`` and ``phi(p) = 0``. One Newton step on that
    system, with its Jacobian ``[-(I + mu H), -g; g^T, 1e-14]`` and
    ``mu`` by least squares, solved in closed form at each row: the Schur
    complement of the 3x3 block ``M = I + mu H``, through its adjugate.
    ``h`` (N, 3, 3), ``g = grad(p)`` and ``d = x - p`` (N, 3), ``val =
    phi(p)`` (N,). A row whose block or complement is singular, or whose step
    is not finite, gets NaN; each row is solved on its own.

    Written on contiguous columns, entry by entry: a stacked
    ``np.linalg.solve`` of the 4x4 systems ran 1.5-2x slower on 4,352 rows
    on a 2-core x86 host.
    """
    gc, dc = g.T.copy(), d.T.copy()
    gsq = gc[0] * gc[0] + gc[1] * gc[1] + gc[2] * gc[2]
    mu = (dc[0] * gc[0] + dc[1] * gc[1] + dc[2] * gc[2]) / np.maximum(gsq, 1e-280)
    r = dc - mu * gc
    m = h.reshape(-1, 9).T.copy()
    m *= mu
    m[[0, 4, 8]] += 1.0
    m = m.reshape(3, 3, -1)
    # adj[i][j], the cofactor of m_ji
    adj = [[m[(j + 1) % 3, (i + 1) % 3] * m[(j + 2) % 3, (i + 2) % 3]
            - m[(j + 1) % 3, (i + 2) % 3] * m[(j + 2) % 3, (i + 1) % 3]
            for j in range(3)] for i in range(3)]
    det = m[0, 0] * adj[0][0] + m[0, 1] * adj[1][0] + m[0, 2] * adj[2][0]
    adj_r = [adj[i][0] * r[0] + adj[i][1] * r[1] + adj[i][2] * r[2] for i in range(3)]
    adj_g = [adj[i][0] * gc[0] + adj[i][1] * gc[1] + adj[i][2] * gc[2] for i in range(3)]
    # dmu = (-phi D - g.adj r) / (1e-14 D - g.adj g) and dp = (adj r - dmu adj g) / D
    # with D = det M
    num = -val * det - (gc[0] * adj_r[0] + gc[1] * adj_r[1] + gc[2] * adj_r[2])
    schur = 1e-14 * det - (gc[0] * adj_g[0] + gc[1] * adj_g[1] + gc[2] * adj_g[2])
    solvable = (det != 0.0) & (schur != 0.0)
    dmu = num / np.where(solvable, schur, 1.0)
    det = np.where(solvable, det, np.nan)
    step = np.empty_like(g)
    for i in range(3):
        step[:, i] = (adj_r[i] - dmu * adj_g[i]) / det
    return step


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
    of bisecting every ray alone. A NaN or infinite sample raises
    ``ValueError`` naming ``boundary_samples`` and its row.
    """
    pts = np.atleast_2d(np.asarray(boundary_samples, dtype=float))
    if pts.size == 0:
        raise ValueError("empty boundary sample set")
    numkit.require_finite("boundary_samples", pts)
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

    ``below(mid, rows)`` marks the midpoints beyond which the crossing of
    their row lies, ``rows`` giving the row of each ``mid``: those rows move
    ``lo`` up to ``mid``, the others move ``hi`` down to it. Without
    ``prune``, each call holds one midpoint per row, in row order.

    With ``prune`` only ``min(lo)`` is wanted. Before each round, a row whose
    ``lo`` is at or above the smallest ``hi`` of the live rows is dropped: its
    final ``lo`` cannot fall below the final ``lo`` of the row holding that
    ``hi``, since ``lo`` only rises and ``hi`` only falls. A dropped row keeps
    the bracket it had, so ``min(lo)`` is still exact, whether or not
    ``below`` is monotone. The live rows then advance by as many levels as
    fit ``BISECT_POINTS``: one call evaluates every midpoint those levels
    could visit, and the walk down that tree takes the bits of the one-level
    loop.
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
        up = below(mid, np.tile(live, 2**levels - 1))
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
    numkit.require_finite("boundary_samples", pts)
    if not 0.0 < eps < np.inf:  # false for NaN
        raise ValueError(f"eps must be positive and finite, got eps = {eps}")
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
