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
from typing import Callable

import numpy as np

from . import numkit, tubular
from .surfaces import ImplicitDomain

CONTAINMENT_MARGIN = -1e-9


class OutsideDomainError(ValueError):
    """The base point ``point`` of a metric query is not inside the domain."""

    def __init__(self, message: str, point=None):
        self.point = point
        super().__init__(message)


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


# the disc search: the plane orientations of each grid, the grids zooming in
# on the best one, the largest radius tried, and the angles of each solve circle
ORIENTATIONS = 8
ZOOM_LEVELS = 2
RADIUS_CAP = 1e3
LATTICE_ANGLES = 64

# searches score a disc by its radius times this: the radius that the
# LATTICE_ANGLES samples of its circle certify where phi is convex (the
# inscribed polygon's apothem), so no search favours an overstated radius
_INSCRIBED = math.cos(math.pi / LATTICE_ANGLES)

# the containment certificate of a witness disc (see ``_disc_certificate``):
# the angles of its polar mesh, the rings a negative Hessian floor pays for,
# and the steps of the radius bisection from 0
MESH_ANGLES = 512
MESH_RINGS = 32
CERTIFY_ITERS = 40

# at most this many points per phi call of the radius solve: enough rows to
# amortise the call, few enough to keep a lockstep round's arrays small (on a
# 2-core x86 host, 4,096 ran fastest of 2,048 to 16,384, and 8,192 ran 20%
# slower)
PHI_POINTS = 4096


def _ring_max(domain, centers, rings, plane, radii):
    """The maxima of phi (B, R), NaN where a sample is, over the circles
    centers[i] + radii[i, j] u, u over the unit points ``rings[plane[i]]`` of
    a (P, A, n) table; ``PHI_POINTS`` points per phi call at most, or one row."""
    count, n = rings.shape[1:]
    flat = rings.reshape(len(rings), -1)
    rows = max(1, PHI_POINTS // (radii.shape[1] * count))
    out = np.empty(radii.shape)
    for k in range(0, len(radii), rows):
        r = radii[k:k + rows]
        pts = r[:, :, None] * flat[plane[k:k + rows], None, :]
        pts += centers[k:k + rows].repeat(count, axis=0).reshape(len(r), 1, -1)  # np.tile
        vals = np.asarray(domain.phi(pts.reshape(-1, n)), dtype=float)
        out[k:k + rows] = vals.reshape(r.shape + (-1,)).max(axis=-1)
        del pts, vals  # freed before the next chunk's points are built
    return out


def _first_exit(domain, centers, rings, plane, radii, stop, chunk):
    """Per row, the first column of radii whose circle leaves the domain or
    where ``stop`` is set (R if none), ``chunk`` columns per ``_ring_max``
    call, so a row's circles past its first exit chunk are never evaluated."""
    first = np.full(len(radii), radii.shape[1])
    left = np.arange(len(radii))
    for k in range(0, radii.shape[1], chunk):
        if left.size == 0:
            break
        hit = _ring_max(domain, centers[left], rings, plane[left], radii[left, k:k + chunk])
        # a NaN sample makes the maximum NaN, which is not inside
        hit = ~(hit <= CONTAINMENT_MARGIN) | stop[left, k:k + chunk]
        done = hit.any(axis=1)
        first[left[done]] = k + np.argmax(hit[done], axis=1)
        left = left[~done]
    return first


def _circles_leave(domain, centers, rings, plane, radii):
    """Per row, whether the circle of radius ``radii`` leaves the domain: some
    sample has phi above ``CONTAINMENT_MARGIN`` (a NaN sample decides nothing)."""
    return _ring_max(domain, centers, rings, plane, radii[:, None])[:, 0] > CONTAINMENT_MARGIN


def _threshold_radii(beat, a2):
    """Per row, the largest radius whose score does not beat ``beat``: the
    root of (t^2 - a2) / t = beat, t = radius ``_INSCRIBED``, stepped down
    until the float test holds; NaN where ``beat`` is not finite."""
    q = np.full(len(beat), np.nan)
    fin = np.flatnonzero(np.isfinite(beat))
    b, a = beat[fin], a2[fin]
    r = (b + np.sqrt(b * b + 4.0 * a)) / 2.0 / _INSCRIBED
    while True:
        t = r * _INSCRIBED
        over = (t * t - a) / t > b
        if not over.any():
            break
        r[over] = np.nextafter(r[over], 0.0)
    q[fin] = r
    return q


def _disc_radii(domain, centers, rings, plane=None, beat=None, a2=None):
    """Largest admissible radii of flat discs at B centers, with the top of
    each final bracket (NaN where the radius is 0, outside the margin, or the
    cap): a growing radius brackets the boundary and three 16-radius grids
    narrow the bracket, each step batched over the centers; a row rounds
    exactly as a one-center search. A centre or circle is inside only where
    phi is at most ``CONTAINMENT_MARGIN``, so a NaN value counts as outside.

    Row i lies in the plane of the unit ring ``rings[plane[i]]`` of a
    (P, A, n) table; without ``plane``, ``rings`` is one (A, n) ring for
    every row. Given per-row scores ``beat`` and squared offsets ``a2``, the
    rows that cannot beat are dropped with a NaN radius before each grid. The
    score (t^2 - a2) / t of t = R ``_INSCRIBED`` grows with the radius R, so a
    row is dropped when one circle at a radius q whose score does not beat
    shows that R ends below q:
    - the bracket top T, whose circle left at the growth or the last grid;
    - a probe circle at q that leaves, with max phi above the margin (a NaN
      probe drops nothing). On any domain q is the last column of the coming
      grid whose score does not beat: if its circle leaves, the grid's first
      exit is at or before it. Where the domain's ``hess_floor`` is 0 on one
      ball holding every row's ball B(c, T) (one one-row call), q is the
      largest radius in the bracket whose score does not beat
      (``_threshold_radii``), probed at most once per row, as q does not
      change from grid to grid: phi is then convex along each sampled ray,
      the centre is inside, and R is 0 or a radius whose circle was
      evaluated inside, so every circle up to R is inside at the sampled
      angles and a circle at q that leaves means R < q.
    A kept row is solved exactly as without ``beat``, and a row with
    ``beat = -inf`` is never dropped; so its bracket top is the one its
    witness certificate in ``metric_upper_bound`` bisects up to.
    """
    if plane is None:
        rings, plane = rings[None], np.zeros(len(centers), dtype=int)
    radius, hi = np.zeros(len(centers)), np.full(len(centers), np.nan)
    phi0 = np.asarray(domain.phi(centers), dtype=float)
    rows = np.flatnonzero(phi0 <= CONTAINMENT_MARGIN)
    if rows.size == 0:
        return radius, hi
    radius[rows] = RADIUS_CAP
    g = numkit.row_norms(np.asarray(domain.grad(centers[rows]), dtype=float))[:, 0]
    # radii est * 1.8^k (accumulate multiplies in order) from a first-order
    # clearance guess clamped to a unit-scale seed, as the gradient can vanish
    # at interior critical points (fmax and fmin pass over a NaN like max and
    # min); the circle of est is always tried, a later radius past the cap ends
    # the search at the cap
    seq = np.full((rows.size, 60), 1.8)
    seq[:, 0] = np.fmin(1.0, np.fmax(1e-6, np.abs(phi0[rows]) / np.fmax(1e-9, g)))
    seq = np.multiply.accumulate(seq, axis=1)
    capped = seq > RADIUS_CAP
    capped[:, 0] = False
    f = _first_exit(domain, centers[rows], rings, plane[rows], seq, capped, 4)  # exits come early
    keep = np.flatnonzero(f < 60)
    keep = keep[~capped[keep, f[keep]]]
    f, rows = f[keep], rows[keep]
    top, lo = seq[keep, f], np.where(f > 0, seq[keep, f - 1], 0.0)
    if beat is not None:
        tp = _threshold_radii(beat, a2)
        tried = np.zeros(len(centers), dtype=bool)
    for _ in range(3):
        # np.linspace(lo, top, 18)[1:-1], rounded alike (top - lo is never subnormal)
        rr = np.arange(1.0, 17.0) * ((top - lo) / 17)[:, None] + lo[:, None]
        if beat is not None and rows.size:
            b, a = beat[rows, None], a2[rows, None]
            t = np.hstack([rr, top[:, None]]) * _INSCRIBED
            # per row, the grid columns and the top whose scores do not beat
            low = (t * t - a) / t <= b
            out = low[:, -1]
            c = centers[rows]
            mid = 0.5 * (c.min(axis=0) + c.max(axis=0))
            big = np.max(numkit.row_norms(c - mid)[:, 0] + top, keepdims=True)
            if domain.hess_floor is not None and domain.hess_floor(mid[None], big)[0] == 0.0:
                q = tp[rows]
                # a row whose probe at q came back inside is not probed there again
                probe = (lo < q) & (q < top) & ~tried[rows]
                tried[rows[probe]] = True
            else:
                j = np.cumprod(low[:, :-1], axis=1).sum(axis=1) - 1
                q = rr[np.arange(rows.size), j]
                probe = j >= 0
            probe &= ~out
            out[probe] = _circles_leave(domain, c[probe], rings, plane[rows[probe]], q[probe])
            radius[rows[out]] = np.nan
            rows, top, lo, rr = rows[~out], top[~out], lo[~out], rr[~out]
        f = _first_exit(domain, centers[rows], rings, plane[rows], rr,
                        np.zeros(rr.shape, bool), 8)
        at = np.arange(rows.size)
        top = np.where(f < 16, rr[at, np.minimum(f, 15)], top)
        lo = np.where(f < 16, np.where(f > 0, rr[at, f - 1], lo), rr[:, -1])
    radius[rows], hi[rows] = lo, top
    return radius, hi


def _disc_certificate(domain, center, span, top):
    """The predicate ``certified(radii, rows)`` of ``tubular.bisect``: whether
    the flat disc of each radius, at most ``top``, about ``center`` in the
    plane of the orthonormal (2, n) ``span`` lies in {phi <= CONTAINMENT_MARGIN}.

    The mesh argument. A polar mesh of N = ``MESH_ANGLES`` rays whose outer
    ring is circumscribed, at radius R / cos(pi/N), spans a polygon that
    contains the disc of radius R, cut by its rings into convex cells. On a
    convex cell K where phi + (M/2)|x|^2 is convex (Hess phi >= -M), each x
    has phi(x) <= max over the vertices v of phi(v) + (M/2)|v - x|^2, so
    phi <= max(vertices) + (M/2) diam(K)^2. With -M the domain's
    ``hess_floor`` over the ball holding the mesh, the largest mesh value plus
    (M/2) times the largest squared cell diameter bounds phi on the disc.
    Where the floor over the ball of ``top`` is 0, the maximum principle
    leaves the outer ring alone to decide; otherwise the mesh has
    ``MESH_RINGS`` evenly spaced rings and the centre, and each radius pays
    for the floor of its own ball. A NaN value or floor certifies nothing.
    """
    n = center.size
    grow = 1.0 / math.cos(math.pi / MESH_ANGLES)
    rings = 1 if domain.hess_floor(center[None], np.array([top * grow]))[0] >= 0.0 else MESH_RINGS
    r = np.arange(rings + 1) * (grow / rings)
    unit = plane_ring(0.0, span, r[1:, None, None], MESH_ANGLES).reshape(1, -1, n)
    if rings > 1:
        unit = np.concatenate([np.zeros((1, 1, n)), unit], axis=1)
    # a cell's diameter is its diagonal or its outer chord
    cos = math.cos(2.0 * math.pi / MESH_ANGLES)
    d2 = float(np.max(np.maximum(r[:-1] ** 2 + r[1:] ** 2 - 2.0 * cos * r[:-1] * r[1:],
                                 2.0 * (1.0 - cos) * r[1:] ** 2)))

    def certified(radii, rows):
        centers = np.broadcast_to(center, (len(radii), n))
        vals = _ring_max(domain, centers, unit, np.zeros(len(radii), int), radii[:, None])[:, 0]
        m = 0.0 if rings == 1 else -np.minimum(domain.hess_floor(centers, radii * grow), 0.0)
        return vals + 0.5 * d2 * m * radii * radii <= CONTAINMENT_MARGIN

    return certified


def _pair_frame(domain, p, v):
    """The norm of v and the orthonormal (3, n) frame of v-hat and its
    complement, for the disc search of one pair (p, v); ``OutsideDomainError``
    when p is not inside, ``ValueError`` when v is 0."""
    if not float(domain.phi(p)) < 0.0:  # a NaN value is not inside
        raise OutsideDomainError(f"base point {p.tolist()} is not inside the domain", point=p)
    # the metric is homogeneous of degree 1 in v: scaling v by the power of
    # two at or below its largest component is exact, and its norm can then
    # neither underflow nor overflow
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        raise ValueError("direction must be nonzero")
    scale = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    unorm = float(np.linalg.norm(v / scale))
    vhat = v / scale / unorm
    return unorm * scale, np.vstack([vhat, numkit.orthonormal_complement(vhat)])


def _offset_searches(domain, base, vhat, w, rings, s, coarse):
    """Pattern searches for the best in-plane centre offset, one per row: the
    disc at offset s1 + i s2 of search i is centred at base + s1 vhat + s2 w
    of that row, in the plane of its unit circle ``rings[i]``, and search i
    starts at ``s[i]``. Each round scores the eight neighbours of every live
    search in one solve; the first, in ``dirs`` order, that beats the
    search's best wins, and otherwise its step halves. The per-search best
    score (-inf where the start has no disc), its offset, and its disc's
    bracket top from ``_disc_radii``, the same as a new solve of it alone."""

    def scores(search, z, beat):
        """Per row, the score of the disc at offset z of search ``search``:
        1/bound of its radius times ``_INSCRIBED``, and -inf for a degenerate
        disc or one dropped as unable to beat ``beat``; also the radii and tops."""
        s1, s2 = z.real, z.imag
        centers = base[search] + s1[:, None] * vhat[search] + s2[:, None] * w[search]
        radius, top = _disc_radii(domain, centers, rings, search, beat, s1 * s1 + s2 * s2)
        a = np.array([math.hypot(x, y) for x, y in zip(s1.tolist(), s2.tolist())])
        r = radius * _INSCRIBED
        good = (r > a * (1.0 + 1e-12)) & (r > 0.0)  # false for NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(good, (r * r - a * a) / r, -np.inf), radius, top

    s = s.astype(complex)
    best, radius, top = scores(np.arange(len(s)), s, np.full(len(s), -np.inf))
    step = 0.25 * radius
    floor = 1e-4 * np.maximum(1.0, radius) * (10.0 if coarse else 1.0)
    h = 0.7071067811865476
    dirs = np.array([1.0, -1.0, 1j, -1j, h + h * 1j, h - h * 1j, -h + h * 1j, -h - h * 1j])
    # the centre each search left at its last gain: scoring below its best,
    # that neighbour can never win, so it is not solved again
    back = np.full(len(s), complex(np.nan, np.nan))
    live = np.flatnonzero(np.isfinite(best) & (step > floor))
    while live.size:
        trial = s[live, None] + step[live, None] * dirs
        fresh = trial != back[live, None]
        search = np.broadcast_to(live[:, None], fresh.shape)[fresh]
        score, hi = np.full(fresh.shape, -np.inf), np.full(fresh.shape, np.nan)
        score[fresh], _, hi[fresh] = scores(search, trial[fresh], best[search])
        gain = score > best[live, None]
        won = gain.any(axis=1)
        j, at = np.argmax(gain[won], axis=1), live[won]
        back[at] = s[at]
        best[at], s[at], top[at] = score[won, j], trial[won, j], hi[won, j]
        step[live[~won]] *= 0.5
        live = live[step[live] > floor[live]]
    return best, s, top


def _search(domain, p, v, frames):
    """The disc searches of a stack of pairs (p, v), each with its
    ``_pair_frame``, in lockstep: each round of the searches of every pair is
    one ``_disc_radii`` call. The estimates of the pairs in order, up to the
    first whose certification raises, and that error (or None)."""
    if not frames:
        return (), None
    norm, frame = zip(*frames)
    vhat, *comp = np.array(frame).swapaxes(0, 1)
    # the estimates when no disc is certified
    estimates = [MetricEstimate(p[k], v[k], math.inf, DiscWitness(p[k], 0.0, vhat[k], comp[0][k]),
                                0.0, False) for k in range(len(p))]
    if domain.hess_floor is None:
        return tuple(estimates), None

    def planes(pair, theta):
        """The second spanning vectors and unit circles of the planes at
        angles ``theta`` about the pairs ``pair``."""
        w = np.array([math.cos(t) * comp[0][k] + math.sin(t) * comp[1][k]
                      for k, t in zip(pair.tolist(), theta.tolist())])
        return w, plane_ring(0.0, np.stack([vhat[pair], w], axis=1), 1.0, LATTICE_ANGLES)

    # the plane angle: the ORIENTATIONS coarse planes from offset 0, then
    # ZOOM_LEVELS grids of ORIENTATIONS planes about the best angle so far,
    # each spanning the half-spacing left by the grid before it and
    # warm-started at the best offset; a pair whose coarse grid finds no disc
    # leaves, and the best plane of each other pair gets a finer last search
    live = np.arange(len(p))
    best, theta, s_b = np.full(len(p), -np.inf), np.zeros(len(p)), np.zeros(len(p), complex)
    grid = math.pi * np.arange(ORIENTATIONS) / ORIENTATIONS
    half = ORIENTATIONS // 2
    for level in range(ZOOM_LEVELS + 1):
        pair = live.repeat(ORIENTATIONS)
        angle = theta[live, None] + grid
        w, rings = planes(pair, angle.ravel())
        r, s, _ = (x.reshape(live.size, ORIENTATIONS) for x in _offset_searches(
            domain, p[pair], vhat[pair], w, rings, s_b[pair], coarse=True))
        j = np.argmax(r, axis=1)  # the first best plane
        won = r[np.arange(live.size), j] > best[live]
        at, j = live[won], j[won]
        best[at], theta[at], s_b[at] = r[won, j], angle[won, j], s[won, j]
        if not (live := live[best[live] > 0.0]).size:
            return tuple(estimates), None
        grid = np.array([k for k in range(-half, half + 1) if k]) * (
            math.pi / ORIENTATIONS ** (level + 2))
    w, rings = planes(live, theta[live])
    _, s, top = _offset_searches(domain, p[live], vhat[live], w, rings, s_b[live], coarse=False)

    # the witnesses: per pair, one bisection of the certificate from 0 up to
    # the top of the best disc's radius bracket (NaN at the cap), so only a
    # certified radius comes back
    center = p[live] + s.real[:, None] * vhat[live] + s.imag[:, None] * w
    for i, k in enumerate(live.tolist()):
        top_i = RADIUS_CAP if math.isnan(top[i]) else float(top[i])
        try:
            certified = _disc_certificate(domain, center[i], np.stack([vhat[k], w[i]]), top_i)
            rad = float(tubular.bisect(certified, [0.0], [top_i], CERTIFY_ITERS)[0][0])
        except Exception as exc:
            return tuple(estimates[:k]), exc
        a_b = math.hypot(s[i].real, s[i].imag)
        if rad > a_b * (1.0 + 1e-12):
            estimates[k] = MetricEstimate(p[k], v[k], norm[k] / ((rad * rad - a_b * a_b) / rad),
                                          DiscWitness(center[i], rad, vhat[k], w[i]), a_b, True)
    return tuple(estimates), None


def metric_upper_bound(
    domain: ImplicitDomain,
    p: np.ndarray,
    v: np.ndarray,
) -> MetricEstimate | tuple[MetricEstimate, ...]:
    """Best 1/r over flat discs through p with automorphism reparametrization.

    Searches plane orientations containing v, in-plane center offsets, and
    disc radii. A pattern search per orientation finds the best center
    offset, scoring each disc by the radius its sampled circle certifies
    where phi is convex. The plane angle comes from grids of ``ORIENTATIONS``
    planes: the coarse one from offset 0, then ``ZOOM_LEVELS`` finer ones
    about the best angle so far, warm-started at its offset; the best plane
    gets a last, finer pattern search. The searches of every pair of a stack
    run in lockstep, each round sharing one batched radius solve. A
    candidate offset that cannot beat its search's best is dropped as soon
    as its bracket top or one probe circle before a radius grid shows it
    (see ``_disc_radii``). The result is bit-identical to searching one
    pair, one plane and one offset at a time.

    The returned bound is always an upper bound for the pseudometric. Its
    witnessing disc is certified, pair by pair, by a bisection of the radius
    from 0 up to the top of the radius bracket the search found for it, on
    ``_disc_certificate``: phi is sampled on a polar mesh whose polygon
    contains the disc, and the domain's batched ``hess_floor`` bounds phi
    between the samples. A pair whose disc does not certify, and every pair
    of a domain without a ``hess_floor``, gets bound inf with
    ``containment_checked=False``. Points and directions lie in R^3, where the
    planes containing v are one circle of orientations; any other dimension
    raises ``ValueError``, and so does a NaN or infinite entry, naming the
    argument and the row.

    ``p`` and ``v`` of shape (3,) give one ``MetricEstimate``; stacks of
    shape (B, 3) give a tuple of B. An error is the one the first failing
    pair raises, with ``pair`` set to that pair's index and ``estimates`` to
    the estimates of the pairs before it.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.shape != v.shape:
        raise ValueError(f"point shape {p.shape} and direction shape {v.shape} differ")
    if p.shape[-1:] != (3,):
        raise ValueError(f"points and directions must lie in R^3, got shape {p.shape}")
    numkit.require_finite("p", p, OutsideDomainError)  # a NaN point is not inside
    numkit.require_finite("v", v)
    stack_p, stack_v = p.reshape(-1, 3), v.reshape(-1, 3)
    frames, error = [], None
    try:
        for pk, vk in zip(stack_p, stack_v):
            frames.append(_pair_frame(domain, pk, vk))
    except Exception as exc:
        error = exc
    k = len(frames)
    estimates, failed = _search(domain, stack_p[:k], stack_v[:k], frames)
    error = failed or error  # a certification error comes from an earlier pair
    if error is not None:
        error.pair, error.estimates = len(estimates), estimates
        raise error
    return estimates[0] if p.ndim == 1 else estimates


# ---------------------------------------------------------------------------
# degenerating product-like domains


@dataclass(frozen=True)
class OmegaD:
    """The domain {|z| < 1, z^2 (x^2 + y^2) < 1, (x, y) in D when z = 0}.

    ``membership(x, y)`` decides the planar slice D elementwise: coordinate
    arrays in, a boolean array of their broadcast shape out. ``omitted_points``
    document points of the plane that D avoids (evidence for slice
    parabolicity when claiming weak hyperbolicity, recorded but not decided
    numerically).
    """

    membership: Callable[[np.ndarray, np.ndarray], np.ndarray]
    omitted_points: tuple = ()
    name: str = "omega-d"


def omega_d_membership(dom: OmegaD, x: np.ndarray):
    """Exact evaluation of the three defining clauses on (..., 3) points:
    a (...) boolean array, or one bool for a (3,) point."""
    x = np.asarray(x, dtype=float)
    px, py, pz = x[..., 0], x[..., 1], x[..., 2]
    inside = (np.abs(pz) < 1.0) & (pz * pz * (px * px + py * py) < 1.0)
    inside &= (pz != 0.0) | dom.membership(px, py)
    return inside if inside.ndim else bool(inside)


def planar_disc(radius: float = 2.0, center=(0.0, 0.0)) -> OmegaD:
    cx, cy = center
    r2 = radius * radius
    return OmegaD(
        membership=lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 < r2,
        name="bounded-disc-slice",
    )


def punctured_plane(points=((0.5, 5.0), (-3.0, -4.0))) -> OmegaD:
    pts = tuple((float(a), float(b)) for a, b in points)
    qx, qy = np.array(pts).reshape(-1, 2).T
    return OmegaD(
        membership=lambda x, y: np.all(
            (np.expand_dims(x, -1) != qx) | (np.expand_dims(y, -1) != qy), axis=-1),
        omitted_points=pts,
        name="twice-punctured-plane-slice",
    )


def full_plane() -> OmegaD:
    return OmegaD(membership=lambda x, y: np.ones(np.broadcast(x, y).shape, dtype=bool),
                  name="full-plane-slice")


# the slices a config can name
SLICES = {"disc": planar_disc, "punctured-plane": punctured_plane, "plane": full_plane}


def poincare_distance(z: complex, w: complex) -> float:
    """Distance on the unit disc in the normalization where the extremal
    flat disc through the ball center realizes the Klein distance."""
    m = abs(z - w) / abs(1.0 - np.conj(w) * z)
    if m >= 1.0:
        return math.inf
    return math.atanh(m)


# the first radius of a chain's vertical discs, and the smallest tried
VERTICAL_RADIUS = 0.9
MIN_VERTICAL_RADIUS = 1e-6


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
    chord_direction=(1.0, 0.0),
) -> ChainBound:
    """Distance upper bound through lifted discs at height 1/k.

    The vertical discs shrink from ``VERTICAL_RADIUS`` until they fit in the
    domain; below ``MIN_VERTICAL_RADIUS`` the construction fails.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
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

    def fit_vertical(center: np.ndarray) -> float:
        radius = VERTICAL_RADIUS
        while radius >= MIN_VERTICAL_RADIUS:
            if _vertical_disc_inside(dom, center, u, radius) and radius * k > 1.0:
                return radius
            radius *= 0.7
        raise ChainError(
            f"no admissible vertical disc of radius >= {MIN_VERTICAL_RADIUS} at "
            f"{center.tolist()}"
        )

    r_p, r_q = fit_vertical(p), fit_vertical(q)
    lift = 1.0 / k
    vert_p, vert_q = math.atanh(lift / r_p), math.atanh(lift / r_q)
    horiz = poincare_distance(complex(p[0], p[1]) / k, complex(q[0], q[1]) / k)
    return ChainBound(k, vert_p + horiz + vert_q, vert_p, horiz, vert_q, r_p, r_q)


def _vertical_disc_inside(dom: OmegaD, center, u, radius, rings=16, spokes=32) -> bool:
    """Sampled containment for the vertical disc spanned by (u, e3).

    The z = 0 chord is checked densely against the slice membership; the
    global clauses are checked on a polar lattice.
    """
    t = np.linspace(-radius, radius, 65)
    if not np.all(dom.membership(center[0] + t * u[0], center[1] + t * u[1])):
        return False
    r = radius * (np.arange(1, rings + 1) / rings)[:, None, None]
    pts = plane_ring(center, np.stack([u, [0.0, 0.0, 1.0]]), r, spokes)
    return bool(np.all(omega_d_membership(dom, pts)))


# ---------------------------------------------------------------------------
# convex domains as halfspace intersections


@dataclass(frozen=True)
class HalfspaceIntersection:
    """The convex domain {x : normals @ x < constants}: k x n normals, k
    constants and an n-vector interior point, held as float arrays."""

    normals: np.ndarray
    constants: np.ndarray
    interior_point: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        constants = np.asarray(self.constants, dtype=float)
        interior = np.asarray(self.interior_point, dtype=float)
        if normals.ndim != 2 or constants.shape != normals.shape[:1] \
                or interior.shape != normals.shape[1:]:
            raise ValueError(
                "normals must be k x n, constants k and the interior point n, got shapes "
                f"{normals.shape}, {constants.shape} and {interior.shape}"
            )
        if np.any(np.linalg.norm(normals, axis=1) < 1e-14):
            raise ValueError("halfspace normals must be nonzero")
        if np.any(normals @ interior >= constants):
            raise ValueError("claimed interior point violates a halfspace")
        for name, value in zip(("normals", "constants", "interior_point"),
                               (normals, constants, interior)):
            object.__setattr__(self, name, value)

    def contains(self, x: np.ndarray):
        """Whether (..., n) points satisfy every inequality: a (...) boolean
        array, or one bool for an (n,) point."""
        inside = np.all(np.asarray(x, dtype=float) @ self.normals.T < self.constants, axis=-1)
        return inside if inside.ndim else bool(inside)


@dataclass(frozen=True)
class PlaneWitness:
    base: np.ndarray
    span: np.ndarray  # (2, n) orthonormal


def plane_ring(base, span: np.ndarray, radius, probes: int) -> np.ndarray:
    """``probes`` equally spaced points at ``radius`` around ``base`` in each
    plane of a (..., 2, n) stack of orthonormal spans: shape (..., probes, n).
    An array ``radius`` of shape (R, 1, 1) with one (2, n) span gives R
    concentric rings, shape (R, probes, n)."""
    angles = 2.0 * np.pi * np.arange(probes) / probes
    return (
        base
        + radius * np.cos(angles)[:, None] * span[..., None, 0, :]
        + radius * np.sin(angles)[:, None] * span[..., None, 1, :]
    )


def convex_contains_2plane(h: HalfspaceIntersection):
    """Whether the intersection contains an affine 2-plane.

    True exactly when the functionals span rank at most n-2: then any plane
    whose direction space lies in their common kernel fits, and one is
    exhibited. Conversely a contained plane forces every functional to be
    bounded above on it, hence to vanish on its direction space.
    """
    u, s, vt = np.linalg.svd(h.normals)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
    if rank <= h.normals.shape[1] - 2:
        return True, rank, PlaneWitness(base=h.interior_point, span=vt[rank:rank + 2].copy())
    return False, rank, None


# planes per batched QR and contains call; fixed, so memory stays flat for any trials
ESCAPE_BLOCK = 256


def plane_escape_trials(
    h: HalfspaceIntersection,
    trials: int,
    rng: np.random.Generator,
    radius: float = 1e6,
    probes: int = 16,
):
    """Randomized counterpart of the rank test: how many random 2-planes
    through the interior point stay inside out to the given radius, and the
    span of the last one that does."""
    contained, witness = 0, None
    for start in range(0, trials, ESCAPE_BLOCK):
        frames = rng.standard_normal((min(ESCAPE_BLOCK, trials - start), h.normals.shape[1], 2))
        spans = np.swapaxes(np.linalg.qr(frames)[0], -1, -2)
        inside = np.all(h.contains(plane_ring(h.interior_point, spans, radius, probes)), axis=-1)
        contained += int(np.count_nonzero(inside))
        if inside.any():
            witness = PlaneWitness(base=h.interior_point, span=spans[np.flatnonzero(inside)[-1]])
    return contained, witness
