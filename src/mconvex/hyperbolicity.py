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
from typing import Callable, NamedTuple

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


# the disc search: coarse plane orientations, golden-section steps refining
# the best one, the largest radius tried, and the polar lattice (radii by
# angles) on which a witness disc is containment-checked
ORIENTATIONS = 8
GOLDEN_ITERS = 18
RADIUS_CAP = 1e3
LATTICE_RADII = 32
LATTICE_ANGLES = 64

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# at most this many points per phi call of the radius solve: enough rows to
# amortise the call, few enough to keep a lockstep round's arrays small (on a
# 2-core x86 host, 4,096 ran fastest of 2,048 to 16,384, and 8,192 ran 20%
# slower)
PHI_POINTS = 4096

# pairs of one metric_upper_bound stack searched in lockstep at a time; the
# searches of a group are all in flight together, so this bounds their state
LOCKSTEP_PAIRS = 8


def _golden_points(lo, hi, iters):
    """Golden-section search for a maximum on [lo, hi] as a coroutine: it
    yields the points to evaluate (the opening two together, then one per
    step), is sent their values, and returns (argmax, max)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = yield c, d
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            (fc,) = yield (c,)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            (fd,) = yield (d,)
    if fc >= fd:
        return c, fc
    return d, fd


def _golden_max(fn: Callable[[float], float], lo: float, hi: float, iters: int):
    search = _golden_points(lo, hi, iters)
    try:
        points = next(search)
        while True:
            points = search.send([fn(x) for x in points])
    except StopIteration as stop:
        return stop.value


def _circle_margin(domain, center, u, w, radius, angles):
    """Max of phi over the boundary circle, golden-refined."""
    th = 2.0 * np.pi * np.arange(angles) / angles
    pts = center + radius * np.cos(th)[:, None] * u + radius * np.sin(th)[:, None] * w
    vals = np.asarray(domain.phi(pts), dtype=float)
    k = int(np.argmax(vals))
    best = float(vals[k])
    span = 2.0 * np.pi / angles

    def at(theta: float) -> float:
        x = center + radius * (math.cos(theta) * u + math.sin(theta) * w)
        return float(domain.phi(x))

    _, refined = _golden_max(at, th[k] - span, th[k] + span, 40)
    return max(best, refined)


def _lattice_margin(domain, center, u, w, radius, radii, angles):
    rr = (radius * (np.arange(1, radii + 1) / radii))[:, None, None]
    th = 2.0 * np.pi * np.arange(angles) / angles
    pts = center + rr * np.cos(th)[:, None] * u + rr * np.sin(th)[:, None] * w
    vals = np.asarray(domain.phi(pts.reshape(-1, center.size)), dtype=float)
    vals = np.append(vals, float(domain.phi(center)))
    return float(np.max(vals))


def _circle_ring(u, w, angles):
    """The (A, n) unit circle of the plane span(u, w) at A = angles equal steps."""
    th = 2.0 * np.pi * np.arange(angles) / angles
    return np.cos(th)[:, None] * u + np.sin(th)[:, None] * w


def _circle_margins_many(domain, centers, rings, plane, radii):
    """Boundary-circle maxima of phi (B, R) for radii (B, R) about B centers,
    row i on the unit ring ``rings[plane[i]]`` of the (P, A, n) table."""
    count, n = rings.shape[1:]
    pts = radii[:, :, None] * rings.reshape(len(rings), -1)[plane, None, :]
    pts += centers.repeat(count, axis=0).reshape(len(centers), 1, -1)  # np.tile(centers, count)
    vals = np.asarray(domain.phi(pts.reshape(-1, n)), dtype=float)
    return vals.reshape(radii.shape + (-1,)).max(axis=-1)


def _first_exit(domain, centers, rings, plane, radii, stop, chunk):
    """Per row, the first column of radii whose circle leaves the domain or
    where ``stop`` is set (R if none); ``chunk`` columns and at most
    ``PHI_POINTS`` points per field evaluation, so a row's circles past its
    first exit chunk are never evaluated."""
    first = np.full(len(radii), radii.shape[1])
    left = np.arange(len(radii))
    rows = max(1, PHI_POINTS // (chunk * rings.shape[1]))
    for k in range(0, radii.shape[1], chunk):
        if left.size == 0:
            break
        hit = np.concatenate([
            _circle_margins_many(domain, centers[b], rings, plane[b], radii[b, k:k + chunk])
            for b in (left[i:i + rows] for i in range(0, left.size, rows))
        ])
        hit = (hit > CONTAINMENT_MARGIN) | stop[left, k:k + chunk]
        done = hit.any(axis=1)
        first[left[done]] = k + np.argmax(hit[done], axis=1)
        left = left[~done]
    return first


def _disc_radii(domain, centers, rings, plane=None, beat=None, a2=None):
    """Largest admissible radii of flat discs at B centers, with the top of
    each final bracket (NaN where the radius is 0, outside the margin, or the
    cap): a growing radius brackets the boundary and three 16-radius grids
    narrow the bracket, each step batched over the centers; a row rounds
    exactly as a one-center search.

    Row i lies in the plane of the unit ring ``rings[plane[i]]`` of a
    (P, A, n) table; without ``plane``, ``rings`` is one (A, n) ring for
    every row. Given per-row scores ``beat`` and squared offsets ``a2``, a
    row whose bracket top T has (T^2 - a2) / T <= beat after the growth or a
    grid is dropped with a NaN radius: its radius would end below T, and the
    score R - a2 / R grows with R, so it cannot beat. A row with
    ``beat = -inf`` is never dropped.
    """
    if plane is None:
        rings, plane = rings[None], np.zeros(len(centers), dtype=int)
    radius, hi = np.zeros(len(centers)), np.full(len(centers), np.nan)
    phi0 = np.asarray(domain.phi(centers), dtype=float)
    rows = np.flatnonzero(~(phi0 > CONTAINMENT_MARGIN))
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
    for _ in range(3):
        if beat is not None:
            out = (top * top - a2[rows]) / top <= beat[rows]
            radius[rows[out]] = np.nan
            rows, top, lo = rows[~out], top[~out], lo[~out]
        # np.linspace(lo, top, 18)[1:-1], rounded alike (top - lo is never subnormal)
        rr = np.arange(1.0, 17.0) * ((top - lo) / 17)[:, None] + lo[:, None]
        f = _first_exit(domain, centers[rows], rings, plane[rows], rr,
                        np.zeros(rr.shape, bool), 8)
        at = np.arange(rows.size)
        top = np.where(f < 16, rr[at, np.minimum(f, 15)], top)
        lo = np.where(f < 16, np.where(f > 0, rr[at, f - 1], lo), rr[:, -1])
    radius[rows], hi[rows] = lo, top
    return radius, hi


def _certified_disc_radius(domain, center, u, w) -> float:
    """The radius of ``_disc_radii`` at one center, finished by a bisection
    on golden-refined circle maxima for certification."""
    ring = _circle_ring(u, w, LATTICE_ANGLES)
    radius, top = _disc_radii(domain, center[None, :], ring)
    lo, hi = float(radius[0]), float(top[0])
    if math.isnan(hi):
        return lo
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if _circle_margin(domain, center, u, w, mid, LATTICE_ANGLES) <= CONTAINMENT_MARGIN:
            lo = mid
        else:
            hi = mid
    return lo


# the score and radius of an offset that cannot improve its search
_BEATEN = (-math.inf, math.nan)


class _Solve(NamedTuple):
    """Radius solves a search asks for (see ``_disc_radii``): centers (B, n),
    a (P, A, n) table of unit rings with a plane index per row, and per row
    the score to beat and the squared offset."""

    centers: np.ndarray
    rings: np.ndarray
    plane: np.ndarray
    beat: np.ndarray
    a2: np.ndarray


def _merge(solves):
    """One solve holding the rows of all, in order, with the planes renumbered."""
    if len(solves) == 1:
        return solves[0]
    shift = np.cumsum([0] + [len(s.rings) for s in solves[:-1]])
    solves = [s._replace(plane=s.plane + k) for s, k in zip(solves, shift)]
    return _Solve(*map(np.concatenate, zip(*solves)))


def _lockstep(searches):
    """Run search generators side by side and return their values in order.

    A search yields a ``_Solve`` and is sent the radii of its rows. Each
    round merges the solves of every live search into one, yields it, and
    sends each search its own rows of the answer, so a lockstep is itself a
    search and nests with ``yield from``.
    """
    searches = list(searches)
    values = [None] * len(searches)
    answers = dict.fromkeys(range(len(searches)))
    while True:
        asks = {}
        for i, answer in answers.items():
            try:
                asks[i] = searches[i].send(answer)
            except StopIteration as stop:
                values[i] = stop.value
        if not asks:
            return values
        radii = yield _merge(list(asks.values()))
        cuts = np.cumsum([len(s.centers) for s in asks.values()])[:-1]
        answers = dict(zip(asks, np.split(radii, cuts)))


def _golden_search(fn, lo, hi, iters):
    """``_golden_max`` as a search: fn(x) is a search whose value is the
    function's at x, and the two opening points run in lockstep."""
    golden = _golden_points(lo, hi, iters)
    points = next(golden)
    while True:
        values = yield from _lockstep(fn(x) for x in points)
        try:
            points = golden.send(values)
        except StopIteration as stop:
            return stop.value


def _solve_all(domain, search):
    """Run a search to its value, answering each solve with one
    ``_disc_radii`` call."""
    radii = None
    while True:
        try:
            ask = search.send(radii)
        except StopIteration as stop:
            return stop.value
        radii = _disc_radii(domain, ask.centers, ask.rings, ask.plane, ask.beat, ask.a2)[0]


def _caught(search):
    """The search, with the error it raises, if any, as its value."""
    try:
        return (yield from search)
    except Exception as exc:
        return exc


def _search(domain, p, v):
    """The disc search of one pair (p, v), as a search generator (see
    ``_lockstep``) whose value is its ``MetricEstimate``."""
    if float(domain.phi(p)) >= 0.0:
        raise OutsideDomainError(f"base point {p.tolist()} is not inside the domain")
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        raise ValueError("direction must be nonzero")
    vhat = v / vnorm
    comp = numkit.orthonormal_complement(vhat)

    def plane(theta: float):
        """The disc plane's second spanning vector at theta and its unit circle."""
        w = math.cos(theta) * comp[0] + math.sin(theta) * comp[1]
        return w, _circle_ring(vhat, w, LATTICE_ANGLES)

    def centers(w, offsets):
        """The disc centers p + s1 vhat + s2 w of in-plane offsets s1 + i s2."""
        z = np.asarray(offsets, dtype=complex)
        return p + z.real[:, None] * vhat + z.imag[:, None] * w

    def witness(w, s, radius):
        return DiscWitness(center=centers(w, [complex(*s)])[0], radius=radius, u=vhat, w=w)

    def evaluate(at, offsets, beat):
        """(1/bound, radius) at each in-plane offset s1 + i s2, in one solve;
        ``_BEATEN`` where that does not beat ``beat``, as for a disc that is
        degenerate or was dropped as unable to."""
        w, ring = at
        z = np.asarray(offsets, dtype=complex)
        radii = yield _Solve(centers(w, z), ring[None], np.zeros(len(z), dtype=int),
                             np.full(len(z), beat), z.real * z.real + z.imag * z.imag)
        out = []
        for s, radius in zip(offsets, radii.tolist()):
            a = math.hypot(s.real, s.imag)
            good = radius > a * (1.0 + 1e-12) and radius > 0.0  # false for NaN
            score = (radius * radius - a * a) / radius if good else -np.inf
            out.append((score, radius) if score > beat else _BEATEN)
        return out

    def offset_search(at, s0=(0.0, 0.0), coarse=True):
        """Pattern search for the best in-plane center offset: (1/bound, radius, offset)."""
        s1, s2 = s0
        ((r, radius),) = yield from evaluate(at, [complex(s1, s2)], -np.inf)
        if not np.isfinite(r):
            return -np.inf, None, (s1, s2)
        step = 0.25 * radius
        floor = 1e-4 * max(1.0, radius)
        if coarse:
            floor = 10.0 * floor
        h = 0.7071067811865476
        dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        dirs += [(h, h), (h, -h), (-h, h), (-h, -h)]
        # every offset scored so far, as s1 + i s2: the search often steps
        # back to one. An offset that did not beat r stays _BEATEN, as r never
        # falls and only a gain is read back.
        seen = {complex(s1, s2): (r, radius)}
        while step > floor:
            # all eight neighbours in one batch; the first in dirs order that improves wins
            trial = [complex(s1 + step * dx, s2 + step * dy) for dx, dy in dirs]
            fresh = [z for z in dict.fromkeys(trial) if z not in seen]
            if fresh:
                seen.update(zip(fresh, (yield from evaluate(at, fresh, r))))
            gain = next((z for z in trial if seen[z][0] > r), None)
            if gain is None:
                step *= 0.5
            else:
                (r, radius), s1, s2 = seen[gain], gain.real, gain.imag
        return r, radius, (s1, s2)

    thetas = [math.pi * k / ORIENTATIONS for k in range(ORIENTATIONS)]
    planes = [(theta, plane(theta)) for theta in thetas]
    coarse = yield from _lockstep(offset_search(at) for _, at in planes)
    best_r = -np.inf
    best = None  # (theta, plane, radius, (s1, s2))
    for (theta, at), (r, radius, s) in zip(planes, coarse):
        if r > best_r:
            best_r, best = r, (theta, at, radius, s)

    if best is None or best_r <= 0.0:
        return MetricEstimate(
            point=p,
            direction=v,
            bound=math.inf,
            witness=DiscWitness(p, 0.0, vhat, comp[0]),
            offset=0.0,
            containment_checked=False,
        )

    theta_b, at, radius, s_b = best
    wit_b = witness(at[0], s_b, radius)

    def refined(theta):
        return (yield from offset_search(plane(theta), s0=s_b))[0]

    # orientation refinement with warm-started offset searches, one after
    # another but for the opening two
    theta_b, _ = yield from _golden_search(
        refined,
        theta_b - math.pi / ORIENTATIONS,
        theta_b + math.pi / ORIENTATIONS,
        GOLDEN_ITERS,
    )
    at = plane(theta_b)
    _, radius, s_b = yield from offset_search(at, s0=s_b, coarse=False)
    if radius is not None:
        wit_b = witness(at[0], s_b, radius)

    # final certified disc: refined circle maximum plus interior lattice
    w = at[0]
    center = centers(w, [complex(*s_b)])[0]
    radius = _certified_disc_radius(domain, center, vhat, w)
    a_b = math.hypot(*s_b)
    if radius <= a_b * (1.0 + 1e-12) or radius <= 0.0:
        wit_fin = wit_b
    else:
        wit_fin = DiscWitness(center=center, radius=radius, u=vhat, w=w)
    radius = wit_fin.radius
    for _ in range(60):
        disc = (domain, wit_fin.center, wit_fin.u, wit_fin.w, radius)
        lat = _lattice_margin(*disc, LATTICE_RADII, LATTICE_ANGLES)
        if max(lat, _circle_margin(*disc, LATTICE_ANGLES)) <= CONTAINMENT_MARGIN:
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


def metric_upper_bound(
    domain: ImplicitDomain,
    p: np.ndarray,
    v: np.ndarray,
) -> MetricEstimate | tuple[MetricEstimate, ...]:
    """Best 1/r over flat discs through p with automorphism reparametrization.

    Searches plane orientations containing v, in-plane center offsets, and
    disc radii. A pattern search per orientation finds the best center
    offset; the best orientation is then refined by a golden-section search
    over the plane angle, each step a warm-started pattern search, and a last
    finer pattern search. All searches that do not wait on one another run
    in lockstep, sharing each batched radius solve: the coarse orientations
    together, the two opening points of the golden refinement together (the
    later ones follow one another), and, for stacks, all pairs of a group of
    ``LOCKSTEP_PAIRS``. A candidate offset whose radius bracket already shows
    that it cannot beat its search's best is dropped before its bracket is
    narrowed. The result is bit-identical to searching one pair and one
    offset at a time.

    The returned bound is always an upper bound for the pseudometric; the
    witnessing disc is containment-checked, pair by pair, on its boundary
    circle and an interior polar lattice. Points and directions lie in R^3,
    where the planes containing v are one circle of orientations; any other
    dimension raises ``ValueError``.

    ``p`` and ``v`` of shape (3,) give one ``MetricEstimate``; stacks of
    shape (B, 3) give a tuple of B. An error of a stack is the one the first
    failing pair raises, with ``pair`` set to that pair's index and
    ``estimates`` to the estimates of the pairs before it.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.shape != v.shape:
        raise ValueError(f"point shape {p.shape} and direction shape {v.shape} differ")
    if p.shape[-1:] != (3,):
        raise ValueError(f"points and directions must lie in R^3, got shape {p.shape}")
    if p.ndim == 1:
        return _solve_all(domain, _search(domain, p, v))
    estimates = []
    for k in range(0, len(p), LOCKSTEP_PAIRS):
        group = (_caught(_search(domain, *pv))
                 for pv in zip(p[k:k + LOCKSTEP_PAIRS], v[k:k + LOCKSTEP_PAIRS]))
        for est in _solve_all(domain, _lockstep(group)):
            if isinstance(est, Exception):
                est.pair, est.estimates = len(estimates), tuple(estimates)
                raise est
            estimates.append(est)
    return tuple(estimates)


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
        radius = vertical_radius
        while radius >= min_radius:
            if _vertical_disc_inside(dom, center, u, radius) and radius * k > 1.0:
                return radius
            radius *= 0.7
        raise ChainError(
            f"no admissible vertical disc of radius >= {min_radius} at "
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
    r = radius * (np.arange(1, rings + 1) / rings)[:, None]
    th = 2.0 * np.pi * np.arange(spokes) / spokes
    pts = center + (r * np.cos(th))[..., None] * u
    pts[..., 2] += r * np.sin(th)
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


def plane_ring(base: np.ndarray, span: np.ndarray, radius: float, probes: int) -> np.ndarray:
    """``probes`` equally spaced points at ``radius`` around ``base`` in each
    plane of a (..., 2, n) stack of orthonormal spans: shape (..., probes, n)."""
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
