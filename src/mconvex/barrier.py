"""Construction of m-plurisubharmonic defining functions from signed distance.

The defining function is built in three stages. A convex increasing profile
``h(t) = (exp(a*t) - 1)/a`` reshapes the signed distance so that the normal
Hessian eigenvalue ``h''`` dominates the worst negative tangential sum on a
collar band; composing with the plateau ``h(-eps0)`` outside the band gives
a continuous function, and a convex C^2 cap ``chi`` (constant below
``h(-eps2)``, identity above ``h(-eps1)``) smooths the seam. The final
rescale by ``c = -1/h(-eps1)`` puts the regular level range at (-1, 0]:
there the level sets of the result are exactly level sets of the signed
distance at ``h^{-1}(t/c)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mpsh, numkit, surfaces, tubular
from .surfaces import ImplicitDomain
from .tubular import TubularCollar


# build_barrier: boundary samples checked for m-convexity and the negative
# curvature sum tolerated there; verify_barrier: the gates of (b), (d), (e)
BOUNDARY_CHECK_SAMPLES = 256
CONVEXITY_TOL = 1e-9
BOUNDARY_TOL = 1e-8
EIGEN_TOL = 1e-6
LEVEL_TOL = 1e-6


class MConvexityError(ValueError):
    """The boundary fails the m-convexity precondition at a sample."""

    def __init__(self, point: np.ndarray, sigma_m: float, m: int):
        self.point = np.asarray(point, dtype=float)
        self.sigma_m = sigma_m
        self.m = m
        super().__init__(
            f"boundary is not {m}-convex at {self.point.tolist()}: "
            f"curvature sum {sigma_m:.3e} < 0"
        )


@dataclass(frozen=True)
class ConvexProfile:
    """The convex increasing reshaping profile and its design context.

    ``h(0) = 0``, ``h'(0) = 1``, ``h''(0) = alpha``; for t < 0 the profile is
    negative with slope in [0, 1). ``curvature_floor`` records the value
    ``(m-1)/eps`` that ``h''`` must strictly exceed on the working band.
    """

    alpha: float
    m: int
    eps: float

    @property
    def curvature_floor(self) -> float:
        return (self.m - 1) / self.eps

    def value(self, t):
        return np.expm1(self.alpha * np.asarray(t, dtype=float)) / self.alpha

    def d1(self, t):
        return np.exp(self.alpha * np.asarray(t, dtype=float))

    def d2(self, t):
        return self.alpha * np.exp(self.alpha * np.asarray(t, dtype=float))

    def inverse(self, y):
        return np.log1p(self.alpha * np.asarray(y, dtype=float)) / self.alpha

    def band_width(self) -> float:
        """Largest radius with h'' above the curvature floor on [-radius, 0]."""
        floor = self.curvature_floor
        if floor <= 0.0:
            return math.inf
        return math.log(self.alpha / floor) / self.alpha


def make_profile(alpha: float, m: int, eps: float) -> ConvexProfile:
    """Validated exponential profile; requires ``alpha > (m-1)/eps`` strictly."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    floor = (m - 1) / eps
    if not alpha > floor:
        raise ValueError(
            f"alpha must strictly exceed (m-1)/eps = {floor:.6g}, got {alpha:.6g}"
        )
    return ConvexProfile(alpha=float(alpha), m=int(m), eps=float(eps))


def default_alpha(m: int, eps: float) -> float:
    """Twice the threshold; for m = 1 the threshold is zero, use 1/eps."""
    return 2.0 * (m - 1) / eps if m >= 2 else 1.0 / eps


def choose_collar(
    profile: ConvexProfile,
    eps: float,
    safety: float = 0.99,
    ratios: tuple = (0.9, 0.6, 0.3),
) -> TubularCollar:
    """Nested collar radii inside the band where the profile convexity wins.

    The outer radius is ``safety * min(eps/2, band_width)``; the inner radii
    follow the default ratios eps0/eps0p, eps2/eps0, eps1/eps0.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError("safety must lie in (0, 1)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    width = profile.band_width()
    eps0p = safety * min(0.5 * eps, width)
    if not eps0p > 0.0:
        raise ValueError("outer collar radius must be positive")
    r0, r2, r1 = ratios
    eps0 = r0 * eps0p
    eps2 = r2 * eps0
    eps1 = r1 * eps0
    return TubularCollar(reach=eps, eps0p=eps0p, eps0=eps0, eps2=eps2, eps1=eps1)


def _cap_polynomials(chi1: np.ndarray) -> tuple:
    """(chi', chi'', antiderivative of chi', its value at u = 1), ascending in u."""
    poly = np.polynomial.polynomial
    anti = poly.polyint(chi1)
    return chi1, poly.polyder(chi1), anti, poly.polyval(1.0, anti)


# per cap degree: chi' on the transition is the smoothstep polynomial in u
CAP_POLYNOMIALS = {
    3: _cap_polynomials(np.array([0.0, 0.0, 3.0, -2.0])),
    5: _cap_polynomials(np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])),
    7: _cap_polynomials(np.array([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])),
}


@dataclass(frozen=True)
class SmoothingCap:
    """Convex C^2 cap: constant below ``lo``, identity above ``hi``.

    On the transition the derivative is the smoothstep polynomial of the
    given degree in the rescaled variable, integrated in closed form; its
    nonnegative derivative makes the cap convex, and the zero endpoint
    slopes of the smoothstep give the C^2 matching.
    """

    lo: float
    hi: float
    degree: int = 3

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate cap interval [{self.lo}, {self.hi}]")
        if self.degree not in CAP_POLYNOMIALS:
            raise ValueError(
                f"unsupported cap degree {self.degree}; choices "
                f"{sorted(CAP_POLYNOMIALS)}"
            )

    @property
    def plateau(self) -> float:
        # the smoothstep family integrates to 1/2 over the transition
        return 0.5 * (self.lo + self.hi)

    def _u(self, t):
        return np.clip((np.asarray(t, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        _, _, anti, anti1 = CAP_POLYNOMIALS[self.degree]
        # chi(t) = hi - (hi-lo)*(I(1) - I(u)), I the antiderivative of chi'
        anti_u = np.polynomial.polynomial.polyval(self._u(t), anti)
        mid = self.hi - (self.hi - self.lo) * (anti1 - anti_u)
        return np.where(t >= self.hi, t, np.where(t <= self.lo, self.plateau, mid))

    def d1(self, t):
        t = np.asarray(t, dtype=float)
        s = np.polynomial.polynomial.polyval(self._u(t), CAP_POLYNOMIALS[self.degree][0])
        return np.where(t >= self.hi, 1.0, np.where(t <= self.lo, 0.0, s))

    def d2(self, t):
        t = np.asarray(t, dtype=float)
        chi2 = CAP_POLYNOMIALS[self.degree][1]
        s = np.polynomial.polynomial.polyval(self._u(t), chi2) / (self.hi - self.lo)
        inside = (t > self.lo) & (t < self.hi)
        return np.where(inside, s, 0.0)


def make_cap(collar: TubularCollar, profile: ConvexProfile, degree: int = 3) -> SmoothingCap:
    """Cap thresholds from the collar radii, with a convexity self-check."""
    lo = float(profile.value(-collar.eps2))
    hi = float(profile.value(-collar.eps1))
    cap = SmoothingCap(lo=lo, hi=hi, degree=degree)
    mid = np.linspace(lo, hi, 1000)
    curv = cap.d2(mid)
    if np.any(curv < -1e-12):
        raise RuntimeError(
            f"cap construction produced negative convexity {curv.min():.3e}"
        )
    return cap


@dataclass(frozen=True)
class BarrierJets:
    """First and second jets of the defining function at B points in R^n.

    ``delta`` (B,), the signed distance of every row from its one cold
    projection, plateau rows included; ``gradient`` (B, n), ``hessian``
    (B, n, n), and ``spectrum`` (B, n), the analytic Hessian eigenvalues in
    ascending order.
    """

    delta: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray
    spectrum: np.ndarray


class BarrierFunction:
    """The assembled defining function ``c * chi(h(delta))`` with its jets.

    Nonpositive on the closed domain, zero exactly on the boundary, constant
    on the deep plateau; gradient and Hessian are assembled analytically
    from the nearest-point frame via the chain rule. Levels in (-1, 0) are
    levels of the signed distance at ``h^{-1}(t/c)``.
    """

    def __init__(
        self,
        domain: ImplicitDomain,
        collar: TubularCollar,
        profile: ConvexProfile,
        cap: SmoothingCap,
    ):
        self.domain = domain
        self.collar = collar
        self.profile = profile
        self.cap = cap
        self.scale = -1.0 / float(profile.value(-collar.eps1))
        if not self.scale > 0.0:
            raise ValueError("profile must be negative at -eps1")

    @property
    def m(self) -> int:
        return self.profile.m

    def delta(self, x: np.ndarray) -> float:
        return tubular.signed_distance(self.domain, x).distance

    def delta_batch(self, points: np.ndarray) -> np.ndarray:
        _, dlt, _ = tubular.project_batch(self.domain, points)
        return dlt

    def value(self, x: np.ndarray) -> float:
        return self.value_from_delta(self.delta(x))

    def value_from_delta(self, delta) -> float:
        d = np.maximum(np.asarray(delta, dtype=float), -self.collar.eps0)
        out = self.scale * self.cap.value(self.profile.value(d))
        return float(out) if out.ndim == 0 else out

    def value_batch(self, points: np.ndarray) -> np.ndarray:
        return self.value_from_delta(self.delta_batch(points))

    def chain_coefficients(self, delta):
        """The chain rule for ``rho = c * chi(h(delta))`` at signed distances.

        Returns ``(first, second)`` with the shape of ``delta``: with
        ``r = h(delta)``,

            first  = c chi'(r) h'(delta)
            second = c (chi'(r) h''(delta) + chi''(r) h'(delta)^2)

        so that ``grad rho = first * grad delta`` and
        ``Hess rho = first * Hess delta + second * grad delta grad delta^T``.
        """
        r = self.profile.value(delta)
        h1 = self.profile.d1(delta)
        c1 = self.cap.d1(r)
        return (
            self.scale * c1 * h1,
            self.scale * (c1 * self.profile.d2(delta) + self.cap.d2(r) * h1 * h1),
        )

    def jets(self, points: np.ndarray) -> BarrierJets:
        """Gradient, Hessian and predicted spectrum at B points.

        ``points`` has shape (B, n), or (n,) for one point; see
        :class:`BarrierJets` for the output shapes. ``Hess delta`` has the
        transported curvatures on the boundary frame and zero along
        ``grad delta``, so the spectrum is ``first`` times those curvatures
        plus ``second`` (see :meth:`chain_coefficients`). Rows on the
        plateau ``delta <= -eps2`` get zero jets; one batched projection and
        frame solve serve the rest.
        """
        jet = tubular.distance_jet(self.domain, points, floor=-self.collar.eps2)
        a = jet.active
        nb, dim = jet.grad.shape
        gradient = np.zeros((nb, dim))
        hessian = np.zeros((nb, dim, dim))
        spectrum = np.zeros((nb, dim))
        if np.any(a):
            first, second = self.chain_coefficients(jet.delta[a])
            first, second = first[:, None], second[:, None]
            g = jet.grad[a]
            gradient[a] = first * g
            hessian[a] = first[..., None] * jet.hessian()[a] + second[..., None] * (
                g[:, :, None] * g[:, None, :]
            )
            spectrum[a] = np.sort(
                np.concatenate([first * jet.curvatures[a], second], axis=-1), axis=-1
            )
        return BarrierJets(jet.delta, gradient, hessian, spectrum)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.jets(x).gradient[0]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Chain-rule Hessian, exact in the nearest-point frame."""
        return self.jets(x).hessian[0]

    def eigen_list(self, x: np.ndarray) -> np.ndarray:
        """The analytic Hessian spectrum: scaled transported curvatures plus
        the normal eigenvalue, sorted ascending."""
        return self.jets(x).spectrum[0]

    def level_delta(self, t: float) -> float:
        """Signed distance of the level set {rho = t} for t in (-1, 0)."""
        if not -1.0 < t < 0.0:
            raise ValueError(f"level must lie in (-1, 0), got {t}")
        return float(self.profile.inverse(t / self.scale))

    def hessian_batch(self, points: np.ndarray):
        """Analytic Hessians and predicted spectra for many points at once.

        Returns ``(hessians, eigen_lists)`` of shapes (B, n, n) and (B, n).
        """
        jets = self.jets(points)
        return jets.hessian, jets.spectrum


def build_barrier(
    domain: ImplicitDomain,
    m: int,
    eps: float,
    alpha: Optional[float] = None,
    safety: float = 0.99,
    ratios: tuple = (0.9, 0.6, 0.3),
    cap_degree: int = 3,
) -> BarrierFunction:
    """Assemble and precondition-check the defining function.

    Verifies m-convexity at boundary samples before building; rejects with
    the offending point and curvature sum otherwise. ``eps`` must not exceed
    the tubular radius of the boundary (callers pass a reach estimate).
    """
    samples = domain.boundary_samples(BOUNDARY_CHECK_SAMPLES)
    sigma = surfaces.m_convexity_defect(surfaces.boundary_frames(domain, samples), m)
    concave = sigma < -CONVEXITY_TOL
    if np.any(concave):
        i = int(np.argmax(concave))
        raise MConvexityError(samples[i], float(sigma[i]), m)
    a = default_alpha(m, eps) if alpha is None else float(alpha)
    profile = make_profile(a, m, eps)
    collar = choose_collar(profile, eps, safety=safety, ratios=tuple(ratios))
    cap = make_cap(collar, profile, degree=cap_degree)
    return BarrierFunction(domain, collar, profile, cap)


@dataclass(frozen=True)
class BarrierCheck:
    name: str
    worst_value: float
    threshold: float
    passed: bool
    worst_point: Optional[np.ndarray] = None
    count: int = 0


@dataclass(frozen=True)
class BarrierReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_barrier(
    bf: BarrierFunction,
    interior_points: np.ndarray,
    boundary_points: np.ndarray,
    psh_tol: float = 1e-8,
    level_count: int = 10,
    fd_check_count: int = 0,
) -> BarrierReport:
    """Check the built function against its construction contract.

    (a) the sum of the m smallest Hessian eigenvalues is >= -psh_tol at every
    interior sample; (b) the function vanishes on boundary samples; (c) the
    gradient does not vanish on the regular level range (-1, 0]; (d) the
    analytic Hessian spectrum matches the transported-curvature list, and
    optionally a finite-difference Hessian; (e) levels in (-1, 0) sit at the
    predicted signed distance, located by bisection along inner normals,
    warm-started from the boundary foot inside eps1 and checked by one cold
    projection at the located points.

    Each interior and boundary point is projected cold once; (c) and the
    finite-difference selection reuse those signed distances. A NaN or
    infinite sample raises ``ValueError`` naming its argument and row.
    """
    interior_points = np.atleast_2d(np.asarray(interior_points, dtype=float))
    boundary_points = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    numkit.require_finite("interior_points", interior_points)
    numkit.require_finite("boundary_points", boundary_points)
    checks = []
    jets = bf.jets(interior_points)

    # (a) m-plurisubharmonicity margins over the interior grid; the same
    # eigen solve serves the spectrum check (d)
    actual = numkit.sym_eigen(jets.hessian).eigenvalues
    margins = mpsh.sum_smallest(actual, bf.m)
    widx = int(np.argmin(margins))
    worst = float(margins[widx])
    worst_pt = interior_points[widx]
    checks.append(BarrierCheck("psh-margin", worst, -psh_tol,
                               bool(worst >= -psh_tol), worst_pt, len(interior_points)))

    # (b) zero on the boundary
    bdeltas = bf.delta_batch(boundary_points)
    bvals = np.abs(bf.value_from_delta(bdeltas))
    bidx = int(np.argmax(bvals))
    checks.append(BarrierCheck("boundary-zero", float(bvals[bidx]), BOUNDARY_TOL,
                               bool(bvals[bidx] <= BOUNDARY_TOL), boundary_points[bidx],
                               len(boundary_points)))

    # (c) nonvanishing gradient on the regular range; |grad delta| = 1 makes
    # the gradient norm a function of the signed distance alone
    floor = 1e-6 * bf.scale
    all_pts = np.concatenate([interior_points, boundary_points])
    deltas_all = np.concatenate([jets.delta, bdeltas])
    vals = bf.value_from_delta(jets.delta)
    # boundary samples lie on the level 0 by construction, whatever the sign
    # of the rounding noise in their signed distance
    regular_mask = np.concatenate([(vals > -1.0) & (vals <= 0.0),
                                   np.ones(len(boundary_points), dtype=bool)])
    gnorms = bf.chain_coefficients(deltas_all)[0]
    worst_g = np.inf
    worst_gpt = None
    regular = int(np.sum(regular_mask))
    if regular:
        masked = np.where(regular_mask, gnorms, np.inf)
        gidx = int(np.argmin(masked))
        worst_g = float(masked[gidx])
        worst_gpt = all_pts[gidx]
    checks.append(BarrierCheck("gradient-floor", float(worst_g), floor,
                               bool(worst_g > floor), worst_gpt, regular))

    # (d) analytic spectrum equals the transported-curvature list; optional
    # finite-difference cross-check on inner-collar points, where the cap is
    # the identity and differencing is well conditioned
    errs = np.max(np.abs(jets.spectrum - actual), axis=-1)
    err_pts = interior_points
    if fd_check_count > 0:
        inner = interior_points[jets.delta > -0.95 * bf.collar.eps1][:fd_check_count]
        if len(inner):
            fd = numkit.hessian_fd_richardson_batch(bf.value_batch, inner, 1e-3)
            _, pred = bf.hessian_batch(inner)
            fd_errs = np.max(np.abs(np.linalg.eigvalsh(fd) - pred), axis=-1)
            errs = np.concatenate([errs, fd_errs])
            err_pts = np.concatenate([interior_points, inner])
    eidx = int(np.argmax(errs))
    worst_eig = float(errs[eidx])
    worst_ept = err_pts[eidx] if worst_eig > 0.0 else None
    checks.append(BarrierCheck("eigen-list", float(worst_eig), EIGEN_TOL,
                               bool(worst_eig <= EIGEN_TOL), worst_ept, len(interior_points)))

    # (e) level sets of rho are level sets of the signed distance
    levels = [-(k + 1.0) / (level_count + 1.0) for k in range(level_count)]
    base = boundary_points[:: max(1, len(boundary_points) // 32)][:32]
    located, level_targets = _bisect_levels(bf, base, levels)
    worst_lvl = 0.0
    worst_lpt = None
    if len(located):
        dlt = bf.delta_batch(located)
        errs = np.abs(dlt - level_targets)
        lidx = int(np.argmax(errs))
        worst_lvl = float(errs[lidx])
        worst_lpt = located[lidx]
    checks.append(BarrierCheck("level-set", float(worst_lvl), LEVEL_TOL,
                               bool(worst_lvl <= LEVEL_TOL), worst_lpt, len(located)))

    return BarrierReport(checks=tuple(checks))


def _bisect_levels(bf: BarrierFunction, base: np.ndarray, levels, iters: int = 48):
    """Locate every level on every inner-normal ray by batched bisection.

    Every ray point lies within eps1 < reach/2 of its boundary origin, so
    that origin is its unique nearest foot and warm-starts its projection.
    """
    base = np.asarray(base, dtype=float)
    if not len(levels) or not len(base):
        return np.zeros((0, bf.domain.dim)), np.zeros(0)
    g = bf.domain.grad(base)
    # rays in level-major order, one per level and base point
    origins = np.tile(base, (len(levels), 1))
    inners = np.tile(-g / numkit.row_norms(g), (len(levels), 1))
    tvals = np.repeat(np.asarray(levels, dtype=float), len(base))
    targets = np.repeat([bf.level_delta(t) for t in levels], len(base))

    def gap(s, rows):
        x = origins[rows] + s[:, None] * inners[rows]
        _, dlt, _ = tubular.project_batch(bf.domain, x, warm_feet=origins[rows])
        return bf.value_from_delta(dlt) - tvals[rows]

    hi = np.full(len(origins), bf.collar.eps1)
    # rho decreases into the domain, level is bracketed
    valid = gap(hi, np.arange(len(origins))) < 0.0
    lo, hi = tubular.bisect(lambda s, rows: gap(s, rows) > 0.0, np.zeros(len(origins)), hi, iters)
    s = 0.5 * (lo + hi)
    located = origins + s[:, None] * inners
    return located[valid], targets[valid]
