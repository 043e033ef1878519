"""Minimal-pseudometric upper bounds, the Klein-ball oracle, and
degeneration probes for product-like domains.

The infinitesimal pseudometric at (p, v) is the infimum of 1/r over
conformal harmonic discs sending 0 to p with x-derivative r*v. Searching
the family of flat round discs composed with disc automorphisms gives
certified upper bounds: a disc of radius R whose center sits at distance a
from p yields 1/r = R |v| / (R^2 - a^2). On the unit ball this family is
rich enough to reproduce the Beltrami-Cayley-Klein metric, which serves as
the exact oracle. Bounds on other domains are upper bounds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numkit
from .surfaces import ImplicitDomain

CONTAINMENT_MARGIN = -1e-9


class OutsideDomainError(ValueError):
    """The base point of a metric query is not inside the domain."""


def bck_metric(p: np.ndarray, v: np.ndarray) -> float:
    """Beltrami-Cayley-Klein length of v at p in the unit ball.

    The classical Klein-model expression
    sqrt(|v|^2/(1-|p|^2) + (p.v)^2/(1-|p|^2)^2).
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    psq = float(p @ p)
    if psq >= 1.0:
        raise ValueError(f"point must lie in the open unit ball, |p| = {math.sqrt(psq):.6f}")
    one = 1.0 - psq
    pv = float(p @ v)
    return math.sqrt(float(v @ v) / one + pv * pv / (one * one))


@dataclass(frozen=True)
class DiscWitness:
    """A flat round disc: center, radius, and an orthonormal spanning pair."""

    center: np.ndarray
    radius: float
    u: np.ndarray
    w: np.ndarray

    def point(self, t: float, theta: float) -> np.ndarray:
        return (
            self.center
            + t * self.radius * (math.cos(theta) * self.u + math.sin(theta) * self.w)
        )


@dataclass(frozen=True)
class MetricEstimate:
    """An upper bound for the minimal pseudometric with its witnessing disc."""

    point: np.ndarray
    direction: np.ndarray
    bound: float
    witness: DiscWitness
    offset: float
    containment_checked: bool
    exact_on_ball: bool = False


@dataclass
class DiscSearchSpec:
    orientations: int = 8
    golden_iters: int = 18
    angle_tol: float = 1e-3
    radius_cap: float = 1e3
    lattice_radii: int = 32
    lattice_angles: int = 64
    seed: int = 0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, iters: int):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    if fc >= fd:
        return c, fc
    return d, fd


def _circle_margin(domain, center, u, w, radius, angles, refine=False):
    """Max of phi over the boundary circle; golden-refined if asked."""
    th = 2.0 * np.pi * np.arange(angles) / angles
    pts = (
        center[None, :]
        + radius * np.cos(th)[:, None] * u[None, :]
        + radius * np.sin(th)[:, None] * w[None, :]
    )
    vals = np.asarray(domain.phi(pts), dtype=float)
    k = int(np.argmax(vals))
    best = float(vals[k])
    if not refine:
        return best
    span = 2.0 * np.pi / angles

    def at(theta: float) -> float:
        x = center + radius * (math.cos(theta) * u + math.sin(theta) * w)
        return float(domain.phi(x))

    _, refined = _golden_max(at, th[k] - span, th[k] + span, 40)
    return max(best, refined)


def _lattice_margin(domain, center, u, w, radius, radii, angles):
    rr = radius * (np.arange(1, radii + 1) / radii)
    th = 2.0 * np.pi * np.arange(angles) / angles
    ct = np.cos(th)
    st = np.sin(th)
    pts = (
        center[None, None, :]
        + rr[:, None, None] * ct[None, :, None] * u[None, None, :]
        + rr[:, None, None] * st[None, :, None] * w[None, None, :]
    )
    vals = np.asarray(domain.phi(pts.reshape(-1, center.size)), dtype=float)
    vals = np.append(vals, float(domain.phi(center)))
    return float(np.max(vals))


def _circle_margins_many(domain, center, u, w, radii, angles):
    """Boundary-circle maxima of phi for a whole vector of radii at once."""
    radii = np.asarray(radii, dtype=float)
    th = 2.0 * np.pi * np.arange(angles) / angles
    ring = np.cos(th)[:, None] * u[None, :] + np.sin(th)[:, None] * w[None, :]
    pts = center[None, None, :] + radii[:, None, None] * ring[None, :, :]
    vals = np.asarray(domain.phi(pts.reshape(-1, center.size)), dtype=float)
    return vals.reshape(radii.size, angles).max(axis=1)


def _max_disc_radius(domain, center, u, w, spec, refine=False) -> float:
    """Largest admissible radius for a flat disc at this center and plane.

    Staged radius grids, each a single batched field evaluation; the refined
    variant finishes with a golden-polished bisection for certification.
    """
    phi0 = float(domain.phi(center))
    if phi0 > CONTAINMENT_MARGIN:
        return 0.0
    g = np.asarray(domain.grad(center), dtype=float)
    # first-order clearance guess; the gradient can vanish at interior
    # critical points of phi, so clamp to a unit-scale bracket seed
    est = min(1.0, max(1e-6, abs(phi0) / max(1e-9, float(np.linalg.norm(g)))))

    lo, hi = 0.0, None
    r = est
    for _ in range(60):
        m = _circle_margins_many(domain, center, u, w, [r], spec.lattice_angles)[0]
        if m > CONTAINMENT_MARGIN:
            hi = r
            break
        lo = r
        r *= 1.8
        if r > spec.radius_cap:
            return spec.radius_cap
    if hi is None:
        return spec.radius_cap

    for _ in range(3):
        rr = np.linspace(lo, hi, 18)[1:-1]
        margins = _circle_margins_many(domain, center, u, w, rr, spec.lattice_angles)
        bad = margins > CONTAINMENT_MARGIN
        if bad.any():
            first = int(np.argmax(bad))
            hi = rr[first]
            if first > 0:
                lo = rr[first - 1]
        else:
            lo = rr[-1]

    if not refine:
        return lo

    def refined(radius: float) -> float:
        return _circle_margin(domain, center, u, w, radius, spec.lattice_angles, True)

    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if refined(mid) <= CONTAINMENT_MARGIN:
            lo = mid
        else:
            hi = mid
    return lo


def metric_upper_bound(
    domain: ImplicitDomain,
    p: np.ndarray,
    v: np.ndarray,
    spec: Optional[DiscSearchSpec] = None,
) -> MetricEstimate:
    """Best 1/r over flat discs through p with automorphism reparametrization.

    Searches plane orientations containing v, in-plane center offsets, and
    disc radii (coarse grids with golden refinement). The returned bound is
    always an upper bound for the pseudometric; the witnessing disc is
    containment-checked on its boundary circle and an interior polar
    lattice. Complete over plane orientations in R^3; in higher dimensions
    the orientation set is a sampled subfamily, so bounds remain valid but
    may be looser.
    """
    spec = spec or DiscSearchSpec()
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if float(domain.phi(p)) >= 0.0:
        raise OutsideDomainError(f"base point {p.tolist()} is not inside the domain")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        raise ValueError("direction must be nonzero")
    vhat = v / vnorm
    n = p.size

    comp = numkit.orthonormal_complement(vhat)
    rng = np.random.default_rng(spec.seed)

    def orientation(theta: float, pair) -> np.ndarray:
        e, f = pair
        return math.cos(theta) * e + math.sin(theta) * f

    pairs = [(comp[0], comp[1])]
    if n > 3:
        for _ in range(max(0, spec.orientations - 2)):
            raw = rng.standard_normal(n)
            raw -= (raw @ vhat) * vhat
            raw /= np.linalg.norm(raw)
            second = rng.standard_normal(n)
            second -= (second @ vhat) * vhat
            second -= (second @ raw) * raw
            second /= np.linalg.norm(second)
            pairs.append((raw, second))

    def evaluate(theta: float, s1: float, s2: float, pair, refine=False):
        w = orientation(theta, pair)
        q = p + s1 * vhat + s2 * w
        a = math.hypot(s1, s2)
        radius = _max_disc_radius(domain, q, vhat, w, spec, refine)
        if radius <= a * (1.0 + 1e-12) or radius <= 0.0:
            return -np.inf, None, a
        r_eff = (radius * radius - a * a) / radius
        return r_eff, DiscWitness(center=q, radius=radius, u=vhat, w=w), a

    def offset_search(theta: float, pair, s0=(0.0, 0.0), coarse=True):
        """Pattern search for the best in-plane center offset."""
        s1, s2 = s0
        r, wit, _ = evaluate(theta, s1, s2, pair)
        if not np.isfinite(r):
            return -np.inf, None, (s1, s2)
        step = 0.25 * (wit.radius if wit else 1.0)
        floor = 1e-4 * max(1.0, wit.radius if wit else 1.0)
        if coarse:
            floor = 10.0 * floor
        dirs = [
            (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
            (0.7071067811865476, 0.7071067811865476),
            (0.7071067811865476, -0.7071067811865476),
            (-0.7071067811865476, 0.7071067811865476),
            (-0.7071067811865476, -0.7071067811865476),
        ]
        while step > floor:
            improved = False
            for dx, dy in dirs:
                cand, wit_c, _ = evaluate(theta, s1 + step * dx, s2 + step * dy, pair)
                if cand > r:
                    r, wit = cand, wit_c
                    s1, s2 = s1 + step * dx, s2 + step * dy
                    improved = True
                    break
            if not improved:
                step *= 0.5
        return r, wit, (s1, s2)

    best_r = -np.inf
    best = None  # (theta, pair, witness, (s1, s2))
    thetas = [math.pi * k / spec.orientations for k in range(spec.orientations)]
    for pair in pairs:
        for theta in thetas:
            r, wit, s = offset_search(theta, pair, coarse=True)
            if r > best_r:
                best_r, best = r, (theta, pair, wit, s)

    if best is None or best_r <= 0.0:
        return MetricEstimate(
            point=p,
            direction=v,
            bound=math.inf,
            witness=DiscWitness(p, 0.0, vhat, comp[0]),
            offset=0.0,
            containment_checked=False,
        )

    theta_b, pair_b, wit_b, s_b = best

    # orientation refinement with warm-started offset searches
    def theta_objective(theta: float) -> float:
        r, _, _ = offset_search(theta, pair_b, s0=s_b, coarse=True)
        return r

    theta_b, _ = _golden_max(
        theta_objective,
        theta_b - math.pi / spec.orientations,
        theta_b + math.pi / spec.orientations,
        max(
            spec.golden_iters,
            int(math.log(math.pi / spec.angle_tol) / math.log(1.0 / _GOLDEN)),
        ),
    )
    _, wit_b2, s_b = offset_search(theta_b, pair_b, s0=s_b, coarse=False)
    if wit_b2 is not None:
        wit_b = wit_b2

    # final certified disc: refined circle maximum plus interior lattice
    _, wit_fin, a_b = evaluate(theta_b, s_b[0], s_b[1], pair_b, refine=True)
    if wit_fin is None:
        wit_fin, a_b = wit_b, math.hypot(*s_b)
    radius = wit_fin.radius
    for _ in range(60):
        lat = _lattice_margin(
            domain,
            wit_fin.center,
            wit_fin.u,
            wit_fin.w,
            radius,
            spec.lattice_radii,
            spec.lattice_angles,
        )
        circ = _circle_margin(
            domain, wit_fin.center, wit_fin.u, wit_fin.w, radius, spec.lattice_angles, True
        )
        if max(lat, circ) <= CONTAINMENT_MARGIN:
            break
        radius *= 0.999
    wit_fin = DiscWitness(center=wit_fin.center, radius=radius, u=wit_fin.u, w=wit_fin.w)
    r_eff = (radius * radius - a_b * a_b) / radius
    if r_eff <= 0.0:
        raise RuntimeError("disc search collapsed to a degenerate witness")
    bound = vnorm / r_eff
    return MetricEstimate(
        point=p,
        direction=v,
        bound=float(bound),
        witness=wit_fin,
        offset=float(a_b),
        containment_checked=True,
        exact_on_ball=(domain.name == "sphere"),
    )


# ---------------------------------------------------------------------------
# degenerating product-like domains


@dataclass(frozen=True)
class OmegaD:
    """The domain {|z| < 1, z^2 (x^2 + y^2) < 1, (x, y) in D when z = 0}.

    ``membership`` decides the planar slice D; ``omitted_points`` document
    points of the plane that D avoids (evidence for slice parabolicity when
    claiming weak hyperbolicity, recorded but not decided numerically).
    """

    membership: Callable[[float, float], bool]
    omitted_points: tuple = ()
    name: str = "omega-d"


def omega_d_membership(dom: OmegaD, x: np.ndarray) -> bool:
    """Exact evaluation of the three defining clauses."""
    x = np.asarray(x, dtype=float)
    px, py, pz = float(x[0]), float(x[1]), float(x[2])
    if not abs(pz) < 1.0:
        return False
    if not pz * pz * (px * px + py * py) < 1.0:
        return False
    if pz == 0.0 and not dom.membership(px, py):
        return False
    return True


def planar_disc(radius: float = 2.0, center=(0.0, 0.0)) -> OmegaD:
    cx, cy = center
    r2 = radius * radius
    return OmegaD(
        membership=lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 < r2,
        name="bounded-disc-slice",
    )


def punctured_plane(points=((0.5, 5.0), (-3.0, -4.0))) -> OmegaD:
    pts = tuple((float(a), float(b)) for a, b in points)
    return OmegaD(
        membership=lambda x, y: all((x, y) != q for q in pts),
        omitted_points=pts,
        name="twice-punctured-plane-slice",
    )


def full_plane() -> OmegaD:
    return OmegaD(membership=lambda x, y: True, name="full-plane-slice")


# the slices a config can name
SLICES = {"disc": planar_disc, "punctured-plane": punctured_plane, "plane": full_plane}


def poincare_distance(z: complex, w: complex) -> float:
    """Distance on the unit disc in the normalization where the extremal
    flat disc through the ball center realizes the Klein distance."""
    m = abs(z - w) / abs(1.0 - np.conj(w) * z)
    if m >= 1.0:
        return math.inf
    return math.atanh(m)


class ChainError(RuntimeError):
    """The disc chain could not be built (slice too thin at an endpoint)."""


@dataclass(frozen=True)
class ChainBound:
    """Upper bound for the internal distance between two slice points.

    Three Poincare lengths: a vertical disc lifting each endpoint by 1/k,
    and the horizontal disc of radius k at height 1/k joining the lifts.
    """

    k: int
    total: float
    vertical_p: float
    horizontal: float
    vertical_q: float
    radius_p: float
    radius_q: float


def omega_d_distance_chain(
    dom: OmegaD,
    p: np.ndarray,
    q: np.ndarray,
    k: int,
    vertical_radius: float = 0.9,
    chord_direction=(1.0, 0.0),
    min_radius: float = 1e-6,
) -> ChainBound:
    """Distance upper bound through lifted discs at height 1/k.

    The vertical discs shrink adaptively until they fit in the domain;
    below ``min_radius`` the construction fails.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if k < 2:
        raise ValueError("k must be at least 2")
    for name, pt in (("p", p), ("q", q)):
        if pt[2] != 0.0:
            raise ValueError(f"{name} must lie in the z = 0 slice")
        if not omega_d_membership(dom, pt):
            raise ValueError(f"{name} is not in the domain slice")
    if np.allclose(p, q):
        return ChainBound(k, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    u = np.array([chord_direction[0], chord_direction[1], 0.0], dtype=float)
    u /= np.linalg.norm(u)
    e3 = np.array([0.0, 0.0, 1.0])

    def fit_vertical(center: np.ndarray) -> float:
        radius = vertical_radius
        while radius >= min_radius:
            if _vertical_disc_inside(dom, center, u, radius) and radius * k > 1.0:
                return radius
            radius *= 0.7
        raise ChainError(
            f"no admissible vertical disc of radius >= {min_radius} at "
            f"{center.tolist()}"
        )

    r_p = fit_vertical(p)
    r_q = fit_vertical(q)
    lift = 1.0 / k
    vert_p = math.atanh(lift / r_p)
    vert_q = math.atanh(lift / r_q)

    zp = complex(p[0], p[1]) / k
    zq = complex(q[0], q[1]) / k
    horiz = poincare_distance(zp, zq)

    total = vert_p + horiz + vert_q
    return ChainBound(
        k=k,
        total=total,
        vertical_p=vert_p,
        horizontal=horiz,
        vertical_q=vert_q,
        radius_p=r_p,
        radius_q=r_q,
    )


def _vertical_disc_inside(dom: OmegaD, center, u, radius, rings=16, spokes=32) -> bool:
    """Sampled containment for the vertical disc spanned by (u, e3).

    The z = 0 chord is checked densely against the slice membership; the
    global clauses are checked on a polar lattice.
    """
    for t in np.linspace(-radius, radius, 65):
        x = center[0] + t * u[0]
        y = center[1] + t * u[1]
        if not dom.membership(float(x), float(y)):
            return False
    rr = radius * (np.arange(1, rings + 1) / rings)
    th = 2.0 * np.pi * np.arange(spokes) / spokes
    for r in rr:
        for t in th:
            pt = center + r * math.cos(t) * u + np.array([0.0, 0.0, r * math.sin(t)])
            if not omega_d_membership(dom, pt):
                return False
    return True


# ---------------------------------------------------------------------------
# convex domains as halfspace intersections


@dataclass(frozen=True)
class HalfspaceIntersection:
    """The convex domain given by the inequalities (normals . x) < constants."""

    normals: np.ndarray
    constants: np.ndarray
    interior_point: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        if np.any(np.linalg.norm(normals, axis=1) < 1e-14):
            raise ValueError("halfspace normals must be nonzero")
        vals = normals @ np.asarray(self.interior_point, dtype=float)
        if np.any(vals >= np.asarray(self.constants, dtype=float)):
            raise ValueError("claimed interior point violates a halfspace")

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(np.atleast_2d(self.normals) @ x < np.asarray(self.constants))
        )


@dataclass(frozen=True)
class PlaneWitness:
    base: np.ndarray
    span: np.ndarray  # (2, n) orthonormal


def convex_contains_2plane(h: HalfspaceIntersection):
    """Whether the intersection contains an affine 2-plane.

    True exactly when the functionals span rank at most n-2: then any plane
    whose direction space lies in their common kernel fits, and one is
    exhibited. Conversely a contained plane forces every functional to be
    bounded above on it, hence to vanish on its direction space.
    """
    normals = np.atleast_2d(np.asarray(h.normals, dtype=float))
    n = normals.shape[1]
    u, s, vt = np.linalg.svd(normals)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    if rank <= n - 2:
        kernel = vt[rank:]
        witness = PlaneWitness(
            base=np.asarray(h.interior_point, dtype=float), span=kernel[:2].copy()
        )
        return True, rank, witness
    return False, rank, None


def plane_escape_trials(
    h: HalfspaceIntersection,
    trials: int,
    rng: np.random.Generator,
    radius: float = 1e6,
    probes: int = 16,
):
    """Randomized counterpart of the rank test: how many random 2-planes
    through the interior point stay inside out to the given radius."""
    n = np.atleast_2d(np.asarray(h.normals, dtype=float)).shape[1]
    contained = 0
    witness = None
    for _ in range(trials):
        frame = rng.standard_normal((n, 2))
        qmat, _ = np.linalg.qr(frame)
        span = qmat.T
        angles = 2.0 * np.pi * np.arange(probes) / probes
        ring = (
            h.interior_point[None, :]
            + radius * np.cos(angles)[:, None] * span[0][None, :]
            + radius * np.sin(angles)[:, None] * span[1][None, :]
        )
        if all(h.contains(row) for row in ring):
            contained += 1
            witness = PlaneWitness(base=np.asarray(h.interior_point, dtype=float), span=span)
    return contained, witness
