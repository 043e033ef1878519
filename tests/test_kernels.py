"""The batched kernels against the per-point code they replaced.

The reference functions below are the earlier per-point implementations,
kept verbatim as oracles: a cyclic Jacobi eigensolver, the shape-operator
loop of ``principal_curvatures``, the scalar barrier jets, the per-segment
Weierstrass integration, the per-point composed Laplacian and
subharmonicity sweep, the pull loop of the cold projection over every
start row with axis-wise norms, the per-ray reach bisection, the per-point
nearest-foot census, the cold level bisection, the axis-norm catenoid
radius, and the per-center disc radius and one-offset-at-a-time pattern
search of the disc search. Every kernel row must match its reference within
1e-12 * (1 + |reference|); the warm-started level bisection must keep the
same rays and levels and locate its points within 1e-12 of the cold ones;
the sweep, the integration, the projection, the reach estimate, the census,
the catenoid jets and the disc search must match exactly. The cold and warm
projection (``test_projection_matches_reference_pull_loop``, the catenoid
axis and the failing Scherk point) must give the reference's feet,
distances and multiplicities bit for bit, and a point with no converged
start the same ProjectionError. The lockstep disc search is also checked
against itself: radii solved with per-row planes and with
candidates dropped as unable to win must equal those solved one plane at a
time without dropping (and a dropped row must truly not win), and a stack
of pairs must give, bit for bit, the estimates of one pair at a time.
The Omega_D and convex probes are checked against their per-point
containment: the scalar membership and vertical-disc test must give the
same membership and every ChainBound field bit for bit, and the per-trial
escape loop the same count, witness span and generator state.
"""

import importlib.util
import math
import os

import numpy as np
import pytest

import mconvex
from mconvex import barrier, cli, discs, hyperbolicity, mpsh, numkit, surfaces, tubular


def assert_close(actual, reference):
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    assert actual.shape == reference.shape
    err = np.abs(actual - reference)
    bound = 1e-12 * (1.0 + np.abs(reference))
    assert np.all(err <= bound), float(np.max(err - bound))


# ---------------------------------------------------------------------------
# reference: per-point code


def ref_canonical_sign(vectors):
    out = vectors.copy()
    n = out.shape[0]
    for j in range(out.shape[1]):
        col = out[:, j]
        for i in range(n):
            if abs(col[i]) > 1e-12:
                if col[i] < 0.0:
                    out[:, j] = -col
                break
    return out


def ref_jacobi_eigen(a, sweeps=50):
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    w = 0.5 * (a + a.T)
    v = np.eye(n)
    stop = 1e-15 * (1.0 + norm)
    off_entries = ~np.eye(n, dtype=bool)
    for _ in range(sweeps):
        off = math.sqrt(float(np.sum(w[off_entries] ** 2)))
        if off <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = w[p, q]
                if abs(apq) <= 1e-18 * (1.0 + norm):
                    continue
                tau = (w[q, q] - w[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot_p = c * w[:, p] - s * w[:, q]
                rot_q = s * w[:, p] + c * w[:, q]
                w[:, p], w[:, q] = rot_p, rot_q
                rot_p = c * w[p, :] - s * w[q, :]
                rot_q = s * w[p, :] + c * w[q, :]
                w[p, :], w[q, :] = rot_p, rot_q
                w[p, q] = 0.0
                w[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    lam = np.diag(w).copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], ref_canonical_sign(v[:, order])


def ref_complement(unit):
    n = unit.size
    basis = [unit / np.linalg.norm(unit)]
    for idx in np.argsort(np.abs(unit), kind="stable"):
        e = np.zeros(n)
        e[idx] = 1.0
        for b in basis:
            e = e - np.dot(e, b) * b
        norm = np.linalg.norm(e)
        if norm > 1e-10:
            basis.append(e / norm)
        if len(basis) == n:
            break
    return np.array(basis[1:])


def ref_principal_curvatures(domain, p):
    """Returns (inner normal, curvatures, directions) at one boundary point."""
    g = np.asarray(domain.grad(p), dtype=float)
    gnorm = float(np.linalg.norm(g))
    outward = g / gnorm
    h = np.asarray(domain.hess(p), dtype=float)
    proj = np.eye(domain.dim) - np.outer(outward, outward)
    shape_full = proj @ h @ proj / gnorm
    tangent = ref_complement(outward)
    shape_t = tangent @ shape_full @ tangent.T
    shape_t = 0.5 * (shape_t + shape_t.T)
    lam, vec = ref_jacobi_eigen(shape_t)
    directions = vec.T @ tangent
    directions = ref_canonical_sign(directions.T).T
    return -outward, lam, directions


def ref_grad_delta(bf, x, res):
    if res.multiplicity > 1:
        raise tubular.FocalPointError(f"point {x.tolist()} is beyond the reach")
    if abs(res.distance) < 1e-12 * (1.0 + np.linalg.norm(x)):
        g = np.asarray(bf.domain.grad(res.foot), dtype=float)
        return g / np.linalg.norm(g)
    return (x - res.foot) / res.distance


def ref_coefficients(bf, t):
    r0 = float(bf.profile.value(t))
    h1 = float(bf.profile.d1(t))
    h2 = float(bf.profile.d2(t))
    c1 = float(bf.cap.d1(r0))
    c2 = float(bf.cap.d2(r0))
    return c1, h1, c1 * h2 + c2 * h1 * h1


def ref_gradient(bf, x):
    res = tubular.signed_distance(bf.domain, x)
    if res.distance <= -bf.collar.eps2:
        return np.zeros(bf.domain.dim)
    grad_d = ref_grad_delta(bf, x, res)
    c1, h1, _ = ref_coefficients(bf, res.distance)
    return bf.scale * c1 * h1 * grad_d


def ref_hessian(bf, x):
    res = tubular.signed_distance(bf.domain, x)
    dim = bf.domain.dim
    if res.distance <= -bf.collar.eps2:
        return np.zeros((dim, dim))
    _, nu, directions = ref_principal_curvatures(bf.domain, res.foot)
    nu_x = nu / (1.0 + res.distance * nu)
    grad_d = ref_grad_delta(bf, x, res)
    hess_d = np.zeros((dim, dim))
    for j in range(nu_x.size):
        d = directions[j]
        hess_d += nu_x[j] * np.outer(d, d)
    c1, h1, normal_coeff = ref_coefficients(bf, res.distance)
    return bf.scale * (c1 * h1 * hess_d + normal_coeff * np.outer(grad_d, grad_d))


def ref_eigen_list(bf, x):
    res = tubular.signed_distance(bf.domain, x)
    if res.distance <= -bf.collar.eps2:
        return np.zeros(bf.domain.dim)
    _, nu, _ = ref_principal_curvatures(bf.domain, res.foot)
    nu_x = nu / (1.0 + res.distance * nu)
    c1, h1, normal_coeff = ref_coefficients(bf, res.distance)
    tangent = bf.scale * c1 * h1 * nu_x
    return np.sort(np.append(tangent, bf.scale * normal_coeff))


# ---------------------------------------------------------------------------
# eigen-spectrum


def test_sym_eigen_stack_matches_single_calls_and_jacobi():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 8):
        a = rng.standard_normal((40, n, n))
        a = a + np.swapaxes(a, -1, -2)
        eig = numkit.sym_eigen(a)
        for i in range(len(a)):
            single = numkit.sym_eigen(a[i])
            assert np.array_equal(single.eigenvalues, eig.eigenvalues[i])
            assert np.array_equal(single.eigenvectors, eig.eigenvectors[i])
            lam, vec = ref_jacobi_eigen(a[i])
            assert_close(eig.eigenvalues[i], lam)
            assert_close(eig.eigenvectors[i], vec)


def test_sym_eigen_stack_names_bad_matrix():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = 0.5
    with pytest.raises(numkit.AsymmetricMatrixError) as err:
        numkit.sym_eigen(stack)
    assert err.value.index == (2,)
    assert err.value.asymmetry > 0.1
    stack[2, 0, 1] = 0.0
    stack[1, 2, 2] = np.nan
    with pytest.raises(numkit.NonFiniteMatrixError) as err:
        numkit.sym_eigen(stack)
    assert err.value.index == (1,)


# ---------------------------------------------------------------------------
# boundary frames


@pytest.mark.parametrize(
    "domain, count",
    [(surfaces.sphere(), 64), (surfaces.catenoid(), 100), (surfaces.scherk(), 100)],
    ids=["sphere", "catenoid", "scherk"],
)
def test_boundary_frames_match_per_point_loop(domain, count):
    samples = domain.boundary_samples(count)
    frames = surfaces.boundary_frames(domain, samples)
    assert frames.curvatures.shape == (len(samples), 2)
    assert frames.directions.shape == (len(samples), 2, 3)
    for i, p in enumerate(samples):
        normal, nu, directions = ref_principal_curvatures(domain, p)
        assert_close(frames.inner_normal[i], normal)
        assert_close(frames.curvatures[i], nu)
        # degenerate spectra (umbilic points) fix only the frame matrix
        shape = directions.T @ (nu[:, None] * directions)
        d = frames.directions[i]
        assert_close(d.T @ (frames.curvatures[i][:, None] * d), shape)
        if np.min(np.diff(nu)) > 1e-6:
            assert_close(d, directions)
        single = surfaces.principal_curvatures(domain, p)
        assert np.array_equal(single.curvatures, frames.curvatures[i])


# ---------------------------------------------------------------------------
# distance and barrier jets


def test_barrier_jets_match_scalar_reference_on_catenoid_collar():
    cat = surfaces.catenoid()
    bf = barrier.build_barrier(cat, m=2, eps=0.78)
    pts = tubular.collar_points(cat, 40, 1e-3, 0.98 * bf.collar.eps0p)
    jets = bf.jets(pts)
    plateau = 0
    for i, x in enumerate(pts):
        assert_close(jets.gradient[i], ref_gradient(bf, x))
        assert_close(jets.hessian[i], ref_hessian(bf, x))
        assert_close(jets.spectrum[i], ref_eigen_list(bf, x))
        plateau += int(not np.any(jets.hessian[i]))
    assert 0 < plateau < len(pts)  # both plateau and collar rows covered
    hessians, spectra = bf.hessian_batch(pts)
    assert np.array_equal(hessians, jets.hessian)
    assert np.array_equal(spectra, jets.spectrum)
    assert np.array_equal(bf.hessian(pts[0]), jets.hessian[0])


def test_slab_midplane_rows_get_zero_jets():
    slab = surfaces.slab()
    bf = barrier.build_barrier(slab, m=2, eps=1.0)
    pts = np.array([[0.3, 0.1, 0.0], [0.0, 0.0, 0.95], [-1.0, 0.5, 0.0]])
    jet = tubular.distance_jet(slab, pts, floor=-bf.collar.eps2)
    assert list(jet.multiplicity) == [2.0, 1.0, 2.0]
    assert list(jet.active) == [False, True, False]
    jets = bf.jets(pts)
    for i in (0, 2):
        assert not np.any(jets.gradient[i])
        assert not np.any(jets.hessian[i])
        assert not np.any(jets.spectrum[i])
    assert np.linalg.norm(jets.gradient[1]) > 0.0


def test_collar_row_with_two_feet_raises_naming_point():
    thin = surfaces.slab(half_width=0.1)
    bf = barrier.build_barrier(thin, m=2, eps=1.0)
    pts = np.array([[0.0, 0.0, 0.09], [0.25, -0.5, 0.0]])
    assert bf.collar.eps2 > 0.1  # the midplane lies on the collar, not the plateau
    with pytest.raises(tubular.FocalPointError, match=r"\[0\.25, -0\.5, 0\.0\]"):
        bf.jets(pts)
    with pytest.raises(tubular.FocalPointError, match=r"\[0\.25, -0\.5, 0\.0\]"):
        tubular.distance_jet(thin, pts)


def test_distance_jet_hessian_matches_scalar_wrappers():
    cat = surfaces.catenoid()
    pts = tubular.collar_points(cat, 8, 0.05, 0.25)
    jet = tubular.distance_jet(cat, pts)
    hessians = jet.hessian()
    for i, x in enumerate(pts):
        assert np.array_equal(tubular.hessian_delta(cat, x), hessians[i])
        assert np.array_equal(tubular.grad_delta(cat, x), jet.grad[i])


# ---------------------------------------------------------------------------
# cold projection: the pull loop over every start row


def ref_newton_to_surface(domain, p, reps=2):
    for _ in range(reps):
        val = domain.phi(p)[..., None]
        g = domain.grad(p)
        gsq = np.maximum(np.sum(g * g, axis=-1, keepdims=True), 1e-300)
        p = p - val * g / gsq
    return p


def ref_newton_polish(domain, p, xq, ns):
    dim = p.shape[-1]
    p2 = p.copy()
    g = domain.grad(p2)
    mu = np.sum((xq - p2) * g, axis=-1) / np.maximum(np.sum(g * g, axis=-1), 1e-280)
    live = np.ones(len(p) // ns, dtype=bool)
    rows = slice(None)
    for _ in range(tubular.NEWTON_ITERS):
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
        slen = np.linalg.norm(step, axis=-1, keepdims=True)
        step = step * np.minimum(1.0, 0.25 / np.maximum(slen, 1e-300))
        p2[rows] = q + step
        mu[rows] = m + np.clip(delta[:, dim], -0.25, 0.25)
    return ref_newton_to_surface(domain, p2, reps=2)


def ref_project_batch(domain, points, warm_feet=None):
    x = np.atleast_2d(np.asarray(points, dtype=float))
    nb, dim = x.shape
    if warm_feet is not None:
        ns = 1
        p = np.asarray(warm_feet, dtype=float).reshape(nb, 1, dim).copy()
    else:
        seeds = domain.boundary_samples(tubular.STARTS)
        ns = seeds.shape[0] + 1
        p = np.empty((nb, ns, dim))
        p[:, :-1, :] = seeds[None, :, :]
        p[:, -1, :] = ref_newton_to_surface(domain, x, reps=3)
    p = p.reshape(nb * ns, dim)
    xq = np.repeat(x, ns, axis=0)

    p = ref_newton_to_surface(domain, p, reps=3)
    damp = 0.6
    active = np.arange(p.shape[0])
    for _ in range(tubular.MAX_PULL_ITERS):
        pa = p[active]
        xa = xq[active]
        g = domain.grad(pa)
        gn = np.linalg.norm(g, axis=-1, keepdims=True)
        unit = g / np.maximum(gn, 1e-300)
        d = xa - pa
        step = damp * (d - np.sum(d * unit, axis=-1, keepdims=True) * unit)
        slen = np.linalg.norm(step, axis=-1, keepdims=True)
        cap = 0.5 * (1.0 + np.linalg.norm(d, axis=-1, keepdims=True))
        step = step * np.minimum(1.0, cap / np.maximum(slen, 1e-300))
        p[active] = ref_newton_to_surface(domain, pa + step, reps=2)
        moved = np.linalg.norm(step, axis=-1) >= 0.01 * tubular.TOL
        active = active[moved]
        if active.size == 0:
            break

    p2 = ref_newton_polish(domain, p, xq, ns)

    def residuals(cand):
        phi_c = np.abs(domain.phi(cand))
        g_c = domain.grad(cand)
        gsq = np.maximum(np.sum(g_c * g_c, axis=-1), 1e-280)
        d_c = xq - cand
        tang_c = d_c - (np.sum(d_c * g_c, axis=-1) / gsq)[..., None] * g_c
        return phi_c, np.linalg.norm(tang_c, axis=-1)

    phi_a, tang_a = residuals(p)
    phi_b, tang_b = residuals(p2)
    take_b = (phi_b + tang_b) < (phi_a + tang_a)
    p = np.where(take_b[:, None], p2, p)
    phi_feet = np.where(take_b, phi_b, phi_a).reshape(nb, ns)
    tang_res = np.where(take_b, tang_b, tang_a).reshape(nb, ns)

    p = p.reshape(nb, ns, dim)
    scale = 1.0 + np.linalg.norm(x, axis=-1)
    ok = phi_feet <= 1e-9 * scale[:, None]
    ok &= tang_res <= 1e3 * tubular.TOL * scale[:, None]
    critical = ok & (tang_res <= 1e2 * tubular.TOL * scale[:, None])

    dist = np.linalg.norm(x[:, None, :] - p, axis=-1)
    dist_masked = np.where(ok, dist, np.inf)
    best_idx = np.argmin(dist_masked, axis=1)
    best = dist_masked[np.arange(nb), best_idx]
    if not np.all(np.isfinite(best)):
        bad = int(np.argmax(~np.isfinite(best)))
        raise tubular.ProjectionError(
            f"projection failed to converge at {x[bad].tolist()}",
            best_foot=p[bad, np.argmin(dist[bad])],
            residual=float(np.min(phi_feet[bad])),
        )

    feet = p[np.arange(nb), best_idx]
    near = critical & (dist <= (best + tubular.EQUAL_DISTANCE_TOL * (1.0 + best))[:, None])
    mult = tubular._count_feet(p, near, tubular.CLUSTER_TOL * scale)

    sign = np.where(domain.phi(x) >= 0.0, 1.0, -1.0)
    return feet, sign * best, mult


def assert_same_projection(domain, points, warm_feet=None):
    got = tubular.project_batch(domain, points, warm_feet=warm_feet)
    with np.errstate(over="ignore", invalid="ignore"):  # diverging starts
        want = ref_project_batch(domain, points, warm_feet=warm_feet)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)
    return got


@pytest.mark.parametrize("name", ["catenoid", "scherk", "catenoid-loose-seeds"])
def test_projection_matches_reference_pull_loop(name):
    domain = surfaces.make_domain(name.split("-")[0])
    if name.endswith("loose-seeds"):
        # seeds off the surface, so each Newton rep of their polish moves them
        cat = domain
        domain = surfaces.ImplicitDomain(
            name, 3, cat.phi, cat._grad, cat._hess, box=cat.box,
            boundary_sampler=lambda count: 1.1 * cat.boundary_samples(count),
        )
    rng = np.random.default_rng(11)
    lo, hi = 0.8 * domain.box
    for count in (1, 24, 500):
        assert_same_projection(domain, rng.uniform(lo, hi, (count, 3)))
    collar = tubular.collar_points(domain, 300, 0.02, 0.98)
    feet = assert_same_projection(domain, collar)[0]
    moved = collar + 1e-3 * rng.standard_normal(collar.shape)
    assert_same_projection(domain, moved, warm_feet=feet)


def test_projection_matches_reference_on_catenoid_axis(monkeypatch):
    singular = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: singular.append(len(a)) or slogdet(a))
    axis = np.outer([0.0, 0.3, -0.5], [0.0, 0.0, 1.0])
    mult = assert_same_projection(surfaces.catenoid(), axis)[2]
    # the polish met singular systems there, and every axis point has many feet
    assert singular and np.all(mult > 1)


def test_failed_projection_raises_as_reference():
    scherk = surfaces.scherk()
    errors = []
    for project in (tubular.project_batch, ref_project_batch):
        with pytest.raises(tubular.ProjectionError) as info, np.errstate(all="ignore"):
            project(scherk, np.array([0.0, 0.0, 40.0]))
        errors.append(info.value)
    got, want = errors
    assert str(got) == str(want) and got.residual == want.residual
    assert np.array_equal(got.best_foot, want.best_foot)
    assert got.residual == pytest.approx(13.41, abs=0.01)


# ---------------------------------------------------------------------------
# reach bisection and the nearest-foot census


def ref_largest_same_foot_offset(domain, p, direction, cap, iters=40):
    def same_foot(s):
        x = p + s * direction
        feet, _, mult = tubular.project_batch(domain, x[None, :])
        if mult[0] > 1:
            return False
        return float(np.linalg.norm(feet[0] - p)) <= 1e-5 * (1.0 + s)

    if same_foot(cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if same_foot(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ref_reach_estimate(domain, boundary_samples, probe_count=24, cap=None):
    pts = np.atleast_2d(np.asarray(boundary_samples, dtype=float))
    frames = surfaces.boundary_frames(domain, pts)
    peak = float(np.max(np.abs(frames.curvatures)))
    focal = np.inf if peak == 0.0 else 1.0 / peak
    if cap is None:
        if np.isfinite(focal):
            cap = 2.0 * focal
        elif domain.box is not None:
            cap = float(np.max(domain.box[1] - domain.box[0]))
        else:
            cap = 8.0
    stride = max(1, len(pts) // probe_count)
    bottleneck = np.inf
    capped = True
    for p, normal in zip(pts[::stride], frames.inner_normal[::stride]):
        for direction in (normal, -normal):
            s_ok = ref_largest_same_foot_offset(domain, p, direction, cap)
            if s_ok < cap:
                capped = False
            bottleneck = min(bottleneck, s_ok)
    return tubular.ReachEstimate(
        value=float(min(focal, bottleneck)),
        focal_bound=float(focal),
        bottleneck_bound=float(bottleneck),
        capped=capped and not np.isfinite(focal),
        samples=len(pts),
    )


def ref_count_feet(candidates, near, sep_tol):
    mult = np.ones(len(candidates))
    for i in range(len(candidates)):
        reps = []
        for row in candidates[i][near[i]]:
            if all(np.linalg.norm(row - r) > sep_tol[i] for r in reps):
                reps.append(row)
        mult[i] = max(1, len(reps))
    return mult


@pytest.mark.parametrize(
    "name, samples, probes",
    [("catenoid", 144, 12), ("catenoid", 256, 8), ("scherk", 144, 12),
     ("sphere", 64, 6), ("slab", 64, 6)],
)
def test_reach_estimate_matches_per_ray_bisection(name, samples, probes):
    domain = surfaces.make_domain(name)
    pts = domain.boundary_samples(samples)
    est = tubular.reach_estimate(domain, pts, probe_count=probes)
    assert est == ref_reach_estimate(domain, pts, probe_count=probes)


def test_foot_census_matches_greedy_loop(monkeypatch):
    calls = []
    count_feet = tubular._count_feet

    def recording(candidates, near, sep_tol):
        mult = count_feet(candidates, near, sep_tol)
        calls.append((candidates, near, sep_tol, mult))
        return mult

    monkeypatch.setattr(tubular, "_count_feet", recording)
    cat = surfaces.catenoid()
    ball = surfaces.sphere()
    generic = surfaces.ImplicitDomain(
        "generic-sphere", 3, ball.phi, ball._grad, ball._hess,
        boundary_sampler=ball._boundary_sampler, box=ball.box,
    )
    tubular.project_batch(cat, np.zeros(3))
    axis = np.outer(np.linspace(-0.5, 0.5, 5), [0.0, 0.0, 1.0])
    tubular.project_batch(cat, np.vstack([tubular.collar_points(cat, 300, 0.02, 0.98), axis]))
    tubular.project_batch(cat, tubular.collar_points(cat, 64, 0.05, 0.3))
    tubular.project_batch(generic, np.zeros(3))
    assert len(calls) == 4
    for candidates, near, sep_tol, mult in calls:
        assert np.array_equal(mult, ref_count_feet(candidates, near, sep_tol))
    assert calls[0][3][0] > 1 and np.any(calls[1][3] > 1) and calls[3][3][0] > 1


# ---------------------------------------------------------------------------
# level bisection


def ref_bisect_levels(bf, base, levels, iters=48):
    base = np.asarray(base, dtype=float)
    if not len(levels) or not len(base):
        return np.zeros((0, bf.domain.dim)), np.zeros(0)
    g = bf.domain.grad(base)
    origins = np.tile(base, (len(levels), 1))
    inners = np.tile(-g / numkit.row_norms(g), (len(levels), 1))
    tvals = np.repeat(np.asarray(levels, dtype=float), len(base))
    targets = np.repeat([bf.level_delta(t) for t in levels], len(base))

    def gap(s):
        return bf.value_batch(origins + s[:, None] * inners) - tvals

    hi = np.full(len(origins), bf.collar.eps1)
    valid = gap(hi) < 0.0
    lo, hi = tubular.bisect(lambda s: gap(s) > 0.0, np.zeros(len(origins)), hi, iters)
    s = 0.5 * (lo + hi)
    located = origins + s[:, None] * inners
    return located[valid], targets[valid]


@pytest.mark.parametrize("name", ["catenoid", "scherk"])
def test_level_bisection_matches_cold_reference(name):
    domain = surfaces.make_domain(name)
    est = tubular.reach_estimate(domain, domain.boundary_samples(128), probe_count=8)
    bf = barrier.build_barrier(domain, m=2, eps=0.8 * est.value)
    base = domain.boundary_samples(512)[::16][:32]
    levels = [-(k + 1.0) / 11.0 for k in range(10)]
    located, targets = barrier._bisect_levels(bf, base, levels)
    ref_located, ref_targets = ref_bisect_levels(bf, base, levels)
    # equal shapes and points within 1e-12 on rays apart by far more: the
    # same rays were kept
    assert np.array_equal(targets, ref_targets) and located.shape == ref_located.shape
    assert np.max(np.abs(located - ref_located)) <= 1e-12


# ---------------------------------------------------------------------------
# m-trace


def test_grid_verdict_names_sample_with_asymmetric_hessian():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    hessians = np.stack([np.eye(3), np.eye(3)])
    hessians[1, 0, 2] = 1.0
    with pytest.raises(RuntimeError, match=r"verdict failed at sample \[1\.0, 2\.0, 3\.0\]"):
        mpsh.grid_verdict(None, pts, 2, hessians=hessians)


def test_sum_smallest_batched():
    spectra = np.array([[-1.0, 2.0, 5.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(mpsh.sum_smallest(spectra, 2), [1.0, 0.0])
    assert mpsh.min_m_trace(np.diag([-1.0, 2.0, 5.0]), 2) == 1.0
    for m in (0, 4):
        with pytest.raises(ValueError, match="m must be in"):
            mpsh.sum_smallest(spectra, m)


# ---------------------------------------------------------------------------
# disc search


def ref_circle_margins_many(domain, center, u, w, radii, angles):
    radii = np.asarray(radii, dtype=float)
    th = 2.0 * np.pi * np.arange(angles) / angles
    ring = np.cos(th)[:, None] * u[None, :] + np.sin(th)[:, None] * w[None, :]
    pts = center[None, None, :] + radii[:, None, None] * ring[None, :, :]
    vals = np.asarray(domain.phi(pts.reshape(-1, center.size)), dtype=float)
    return vals.reshape(radii.size, angles).max(axis=1)


def ref_max_disc_radius(domain, center, u, w, refine=False):
    margin, cap = hyperbolicity.CONTAINMENT_MARGIN, hyperbolicity.RADIUS_CAP
    angles = hyperbolicity.LATTICE_ANGLES
    phi0 = float(domain.phi(center))
    if phi0 > margin:
        return 0.0
    g = np.asarray(domain.grad(center), dtype=float)
    est = min(1.0, max(1e-6, abs(phi0) / max(1e-9, float(np.linalg.norm(g)))))
    lo, hi = 0.0, None
    r = est
    for _ in range(60):
        m = ref_circle_margins_many(domain, center, u, w, [r], angles)[0]
        if m > margin:
            hi = r
            break
        lo = r
        r *= 1.8
        if r > cap:
            return cap
    if hi is None:
        return cap
    for _ in range(3):
        rr = np.linspace(lo, hi, 18)[1:-1]
        bad = ref_circle_margins_many(domain, center, u, w, rr, angles) > margin
        if bad.any():
            first = int(np.argmax(bad))
            hi = rr[first]
            if first > 0:
                lo = rr[first - 1]
        else:
            lo = rr[-1]
    if not refine:
        return lo
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        circ = hyperbolicity._circle_margin(domain, center, u, w, mid, angles)
        if circ <= margin:
            lo = mid
        else:
            hi = mid
    return lo


def ref_metric_upper_bound(domain, p, v):
    """The one-offset-at-a-time search of ``metric_upper_bound``."""
    hyp = hyperbolicity
    orientations = hyp.ORIENTATIONS
    vnorm = float(np.linalg.norm(v))
    vhat = v / vnorm
    comp = numkit.orthonormal_complement(vhat)
    pair = (comp[0], comp[1])

    def evaluate(theta, s1, s2, refine=False):
        w = math.cos(theta) * pair[0] + math.sin(theta) * pair[1]
        q = p + s1 * vhat + s2 * w
        a = math.hypot(s1, s2)
        radius = ref_max_disc_radius(domain, q, vhat, w, refine)
        if radius <= a * (1.0 + 1e-12) or radius <= 0.0:
            return -np.inf, None, a
        return (radius * radius - a * a) / radius, hyp.DiscWitness(q, radius, vhat, w), a

    def offset_search(theta, s0=(0.0, 0.0), coarse=True):
        s1, s2 = s0
        r, wit, _ = evaluate(theta, s1, s2)
        if not np.isfinite(r):
            return -np.inf, None, (s1, s2)
        step = 0.25 * wit.radius
        floor = 1e-4 * max(1.0, wit.radius) * (10.0 if coarse else 1.0)
        h = 0.7071067811865476
        dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (h, h), (h, -h), (-h, h), (-h, -h)]
        while step > floor:
            for dx, dy in dirs:
                cand, wit_c, _ = evaluate(theta, s1 + step * dx, s2 + step * dy)
                if cand > r:
                    r, wit = cand, wit_c
                    s1, s2 = s1 + step * dx, s2 + step * dy
                    break
            else:
                step *= 0.5
        return r, wit, (s1, s2)

    best_r, best = -np.inf, None
    for k in range(orientations):
        theta = math.pi * k / orientations
        r, wit, s = offset_search(theta)
        if r > best_r:
            best_r, best = r, (theta, wit, s)
    theta_b, wit_b, s_b = best
    theta_b, _ = hyp._golden_max(
        lambda t: offset_search(t, s0=s_b)[0],
        theta_b - math.pi / orientations,
        theta_b + math.pi / orientations,
        hyp.GOLDEN_ITERS,
    )
    _, wit_b2, s_b = offset_search(theta_b, s0=s_b, coarse=False)
    _, wit_fin, a_b = evaluate(theta_b, s_b[0], s_b[1], refine=True)
    radius = wit_fin.radius
    for _ in range(60):
        args = (domain, wit_fin.center, wit_fin.u, wit_fin.w, radius)
        lat = hyp._lattice_margin(*args, hyp.LATTICE_RADII, hyp.LATTICE_ANGLES)
        circ = hyp._circle_margin(*args, hyp.LATTICE_ANGLES)
        if max(lat, circ) <= hyp.CONTAINMENT_MARGIN:
            break
        radius *= 0.999
    return vnorm / ((radius * radius - a_b * a_b) / radius), a_b, radius, wit_fin


def test_sphere_phi_rounds_as_axis_norm():
    ball = surfaces.sphere(0.7)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4000, 3)) * rng.uniform(1e-3, 1e3, (4000, 1))
    assert np.array_equal(ball.phi(x), np.linalg.norm(x, axis=-1) - 0.7)
    assert np.array_equal(ball.phi(x.reshape(10, 400, 3)).ravel(), ball.phi(x))
    assert all(ball.phi(row) == np.linalg.norm(row, axis=-1) - 0.7 for row in x[:200])


def ref_catenoid_jets(x, s):
    x = np.asarray(x, dtype=float)
    rho = np.linalg.norm(x[..., :2], axis=-1)
    rr = np.maximum(rho, 1e-300)
    g = np.zeros_like(x)
    g[..., 0] = x[..., 0] / rr
    g[..., 1] = x[..., 1] / rr
    g[..., 2] = -np.sinh(x[..., 2] / s)
    ux, uy = x[..., 0] / rr, x[..., 1] / rr
    h = np.zeros(x.shape + (3,))
    h[..., 0, 0] = (1.0 - ux * ux) / rr
    h[..., 1, 1] = (1.0 - uy * uy) / rr
    h[..., 0, 1] = -ux * uy / rr
    h[..., 1, 0] = h[..., 0, 1]
    h[..., 2, 2] = -np.cosh(x[..., 2] / s) / s
    return rho - s * np.cosh(x[..., 2] / s), g, h


def test_catenoid_phi_rounds_as_axis_norm():
    cat = surfaces.catenoid(1.3)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4000, 3)) * rng.uniform(1e-3, 1e2, (4000, 1))
    x = np.vstack([x, [[0.0, 0.0, 0.4], [0.0, 0.0, 0.0]]])

    def same(a, b):
        return all(np.array_equal(u, v) for u, v in zip(a, b))

    jets = (cat.phi(x), cat.grad(x), cat.hess(x))
    assert same(jets, ref_catenoid_jets(x, 1.3))
    y = x[:4000].reshape(10, 400, 3)
    assert same((cat.phi(y).ravel(), cat.grad(y).reshape(-1, 3), cat.hess(y).reshape(-1, 3, 3)),
                (j[:4000] for j in jets))
    rows = list(x[:200]) + list(x[-2:])
    assert all(same((cat.phi(r), cat.grad(r), cat.hess(r)), ref_catenoid_jets(r, 1.3))
               for r in rows)


@pytest.mark.parametrize("name", ["sphere", "catenoid"])
def test_disc_radii_match_per_center_search(name, monkeypatch):
    domain = {"sphere": surfaces.sphere(), "catenoid": surfaces.catenoid()}[name]
    rng = np.random.default_rng(11)
    normal = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    u, w = numkit.orthonormal_complement(normal)
    centers = rng.uniform(-0.8, 0.8, (24, 3))
    centers[0] = [0.0, 0.0, 2.0]  # outside: radius 0
    centers[1] = 0.5 * u  # the first circle already leaves the ball
    centers[2:4] = [0.99 * normal, 0.9 * normal]  # the radius grows 5 and 2 times
    ring = hyperbolicity._circle_ring(u, w, hyperbolicity.LATTICE_ANGLES)
    for c in centers[:4]:
        got = hyperbolicity._certified_disc_radius(domain, c, u, w)
        assert got == ref_max_disc_radius(domain, c, u, w, refine=True)
    for cap in (hyperbolicity.RADIUS_CAP, 0.05):
        monkeypatch.setattr(hyperbolicity, "RADIUS_CAP", cap)
        radius, _ = hyperbolicity._disc_radii(domain, centers, ring)
        expected = [ref_max_disc_radius(domain, c, u, w) for c in centers]
        assert radius.tolist() == expected


@pytest.mark.parametrize(
    "name, seed", [("sphere", 2024), ("sphere", 7), ("catenoid", 3)]
)
def test_metric_upper_bound_matches_sequential_search(name, seed):
    domain = {"sphere": surfaces.sphere(), "catenoid": surfaces.catenoid()}[name]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    p = rng.standard_normal(3)
    p *= 0.6 * rng.uniform() / np.linalg.norm(p)
    est = hyperbolicity.metric_upper_bound(domain, p, v)
    bound, offset, radius, wit = ref_metric_upper_bound(domain, p, v)
    assert (est.bound, est.offset, est.witness.radius) == (bound, offset, radius)
    assert np.array_equal(est.witness.center, wit.center)
    assert np.array_equal(est.witness.w, wit.w)


@pytest.mark.parametrize("name", ["sphere", "catenoid"])
def test_pruned_disc_radii_are_sound(name):
    domain = {"sphere": surfaces.sphere(), "catenoid": surfaces.catenoid()}[name]
    rng = np.random.default_rng(23)
    rings = []
    for normal in rng.standard_normal((3, 3)):
        u, w = numkit.orthonormal_complement(normal / np.linalg.norm(normal))
        rings.append(hyperbolicity._circle_ring(u, w, hyperbolicity.LATTICE_ANGLES))
    rings = np.stack(rings)
    centers = rng.uniform(-0.5, 0.5, (30, 3))
    plane = rng.integers(0, len(rings), len(centers))
    a2 = rng.uniform(0.0, 0.2, len(centers))
    radius, top = hyperbolicity._disc_radii(domain, centers, rings, plane)
    # per-row planes round as one plane at a time
    for k, ring in enumerate(rings):
        rows = plane == k
        alone = hyperbolicity._disc_radii(domain, centers[rows], ring)
        assert np.array_equal(alone[0], radius[rows])
        assert np.array_equal(alone[1], top[rows], equal_nan=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.where(radius > 0.0, (radius * radius - a2) / radius, -np.inf)
    # just below its score a row cannot be dropped; at or above it, it may be
    beat = score + np.tile([-1e-9, 0.0, 0.05, 0.5, -0.05], 6) * (1.0 + np.abs(score))
    beat[7] = -np.inf
    got, got_top = hyperbolicity._disc_radii(domain, centers, rings, plane, beat, a2)
    dropped = np.isnan(got)
    assert dropped.any() and not dropped[7]
    assert np.array_equal(got[~dropped], radius[~dropped])
    assert np.array_equal(got_top[~dropped], top[~dropped], equal_nan=True)
    assert np.all(score[dropped] <= beat[dropped])


@pytest.mark.parametrize("name", ["sphere", "catenoid"])
def test_stacked_metric_matches_per_pair(name):
    domain = {"sphere": surfaces.sphere(), "catenoid": surfaces.catenoid()}[name]
    rng = np.random.default_rng(31)
    v = rng.standard_normal((6, 3))
    p = rng.standard_normal((6, 3))
    p *= (0.9 * rng.uniform(size=6) ** (1.0 / 3.0) / np.linalg.norm(p, axis=1))[:, None]
    stack = hyperbolicity.metric_upper_bound(domain, p, v)
    assert isinstance(stack, tuple) and len(stack) == 6
    for est, pi, vi in zip(stack, p, v):
        one = hyperbolicity.metric_upper_bound(domain, pi, vi)
        assert (est.bound, est.offset, est.witness.radius) == (
            one.bound, one.offset, one.witness.radius)
        for field in ("center", "u", "w"):
            assert np.array_equal(getattr(est.witness, field), getattr(one.witness, field))


def test_stacked_metric_error_names_first_failing_pair():
    ball = surfaces.sphere()
    p = np.array([[0.1, 0.2, 0.0], [2.0, 0.0, 0.0], [0.0, 0.3, 0.1], [0.0, 0.0, 0.0]])
    v = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(hyperbolicity.OutsideDomainError) as info:
        hyperbolicity.metric_upper_bound(ball, p, v)
    assert info.value.pair == 1
    (first,) = info.value.estimates
    assert first.bound == hyperbolicity.metric_upper_bound(ball, p[0], v[0]).bound
    with pytest.raises(ValueError, match="shape"):
        hyperbolicity.metric_upper_bound(ball, p, v[0])


# ---------------------------------------------------------------------------
# composed Laplacian and the subharmonicity sweep


def ref_integrate(entry, z):
    z0 = entry.base_point
    length = abs(z - z0)
    if length == 0.0:
        return entry.base_value.copy()
    n = max(16, int(np.ceil(entry.nodes_per_unit * length)))
    nodes, weights = np.polynomial.legendre.leggauss(min(n, 200))
    t = 0.5 * (nodes + 1.0)
    zt = z0 + t * (z - z0)
    vals = entry.phi(zt)
    integral = 0.5 * (z - z0) * np.einsum("k,kj->j", weights, vals)
    return entry.base_value + integral.real


def ref_composition_laplacian(field, cm, z, harmonic_tol=1e-6):
    fx, fy = cm.jet1(z)
    fx = np.asarray(fx, dtype=float)
    fy = np.asarray(fy, dtype=float)
    resid = discs.harmonicity_residual(cm, z)
    scale = max(1.0, float(fx @ fx + fy @ fy))
    if float(np.linalg.norm(resid)) > harmonic_tol * scale:
        raise discs.NonHarmonicMapError(
            f"map {cm.name!r} has Laplacian {resid.tolist()} at {z}"
        )
    x = np.asarray(cm.f(z), dtype=float)
    h = np.asarray(field.hessian(x), dtype=float)
    return float(fx @ h @ fx + fy @ h @ fy)


def ref_subharmonicity_sweep(field, cm, grid=None, tol=1e-8):
    zz = cm.grid() if grid is None else np.asarray(grid)
    best = np.inf
    argmin = complex(zz[0]) if len(zz) else 0.0
    violations = 0
    rho_min, rho_max = np.inf, -np.inf
    for z in zz:
        z = complex(z)
        lap = ref_composition_laplacian(field, cm, z)
        val = float(field.value(np.asarray(cm.f(z), dtype=float)))
        rho_min = min(rho_min, val)
        rho_max = max(rho_max, val)
        if lap < best:
            best, argmin = lap, z
        if lap < -tol:
            violations += 1
    return discs.SweepReport(
        map_name=cm.name,
        total=len(zz),
        min_laplacian=float(best),
        argmin=argmin,
        violations=violations,
        rho_min=float(rho_min),
        rho_max=float(rho_max),
    )


SWEEP_BARRIERS = {"sphere": 1.0, "slab": 1.0, "catenoid": 0.78}


@pytest.mark.parametrize("name", sorted(SWEEP_BARRIERS))
def test_sweep_matches_per_point_reference(name):
    bf = barrier.build_barrier(surfaces.make_domain(name), m=2, eps=SWEEP_BARRIERS[name])
    for cm in cli.default_test_maps(name):
        assert discs.subharmonicity_sweep(bf, cm) == ref_subharmonicity_sweep(bf, cm), cm.name
    neg = mpsh.ScalarField(lambda x: -float(x @ x), hess=lambda x: -2.0 * np.eye(3))
    cm = cli.default_test_maps(name)[0]
    flagged = discs.subharmonicity_sweep(neg, cm)
    assert flagged == ref_subharmonicity_sweep(neg, cm)
    assert flagged.violations > 0


def all_map_types():
    maps = [m for name in SWEEP_BARRIERS for m in cli.default_test_maps(name)]
    maps.append(discs.weierstrass_map(discs.weierstrass_enneper(), scale=0.2, radius=0.6))
    # no jets given: both come from centered differences
    maps.append(discs.ConformalMap("differenced-catenoid", discs.catenoid_map(scale=0.4).f))
    return maps


def test_array_jets_match_per_point_calls():
    for cm in all_map_types():
        zz = cm.grid(rings=3, spokes=5)[:14].reshape(2, 7)
        arrays = (cm.f(zz),) + tuple(cm.jet1(zz)) + tuple(cm.jet2(zz))
        for idx in np.ndindex(zz.shape):
            z = complex(zz[idx])
            single = (cm.f(z),) + tuple(cm.jet1(z)) + tuple(cm.jet2(z))
            for a, s in zip(arrays, single):
                assert np.shape(s) == (3,) and np.shape(a) == zz.shape + (3,), cm.name
                assert np.array_equal(a[idx], s), (cm.name, z)
        lap = discs.composition_laplacian(mpsh.ScalarField(np.sum, hess=np.diag), cm, zz)
        assert lap.shape == zz.shape


def test_grouped_integration_matches_per_segment_rule():
    for cm in all_map_types():
        if not cm.name.startswith("weierstrass-"):
            continue
        entry = discs.WEIERSTRASS_DATA[cm.name]()
        zz = np.append(cm.grid(), entry.base_point)  # one zero-length segment
        ref = np.stack([ref_integrate(entry, complex(z)) for z in zz])
        lifted = discs.weierstrass_map(entry).f(zz)
        assert np.array_equal(lifted, ref), cm.name


def test_nonharmonic_batch_names_first_bad_parameter():
    def kinked(z):
        u = np.asarray(z).real
        bump = np.where(u > 0.2, u * u, 0.0)
        return np.stack([bump, np.zeros_like(u), np.zeros_like(u)], axis=-1)

    cm = discs.ConformalMap("kinked", kinked)
    zz = np.array([0.0, 0.1 + 0.1j, 0.5j, 0.3, 0.4 - 0.1j])
    field = mpsh.ScalarField(lambda x: float(x @ x), hess=lambda x: 2.0 * np.eye(3))
    with pytest.raises(discs.NonHarmonicMapError, match=r"at \(0\.3\+0j\)$"):
        discs.composition_laplacian(field, cm, zz)
    assert np.array_equal(discs.composition_laplacian(field, cm, zz[:3]), np.zeros(3))


def test_sweep_on_barrier_takes_one_jets_call():
    bf = barrier.build_barrier(surfaces.sphere(), m=2, eps=1.0)
    calls = []

    def jets(points):
        calls.append(len(points))
        return barrier.BarrierFunction.jets(bf, points)

    def refuse(x):
        raise AssertionError("per-point barrier call")

    bf.jets, bf.hessian, bf.value = jets, refuse, refuse
    cm = cli.default_test_maps("sphere")[3]
    rep = discs.subharmonicity_sweep(bf, cm)
    assert calls == [rep.total] and rep.total == len(cm.grid())


# ---------------------------------------------------------------------------
# reference: per-point containment of the omega-d and convex probes


def ref_omega_d_membership(dom, x):
    x = np.asarray(x, dtype=float)
    px, py, pz = float(x[0]), float(x[1]), float(x[2])
    if not abs(pz) < 1.0:
        return False
    if not pz * pz * (px * px + py * py) < 1.0:
        return False
    if pz == 0.0 and not dom.membership(px, py):
        return False
    return True


def ref_vertical_disc_inside(dom, center, u, radius, rings=16, spokes=32):
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
            if not ref_omega_d_membership(dom, pt):
                return False
    return True


def ref_contains(h, x):
    return bool(np.all(np.atleast_2d(h.normals) @ x < np.asarray(h.constants)))


def ref_plane_escape_trials(h, trials, rng, radius=1e6, probes=16):
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
        if all(ref_contains(h, row) for row in ring):
            contained += 1
            witness = hyperbolicity.PlaneWitness(
                base=np.asarray(h.interior_point, dtype=float), span=span)
    return contained, witness


# the scalar slice memberships the array ones replace, and two test slices
REF_SLICES = {
    "disc": lambda x, y: (x - 0.0) ** 2 + (y - 0.0) ** 2 < 4.0,
    "punctured-plane": lambda x, y: all((x, y) != q for q in ((0.5, 5.0), (-3.0, -4.0))),
    "plane": lambda x, y: True,
    "thin-strip": lambda x, y: abs(y) < 1e-8,
    "holed-plane": lambda x, y: (x + 0.5) ** 2 + y * y > 0.04,
}
TEST_SLICES = {name: REF_SLICES[name] for name in ("thin-strip", "holed-plane")}


def chain_or_error(dom, p, q, k, chord):
    try:
        return hyperbolicity.omega_d_distance_chain(dom, p, q, k, chord_direction=chord)
    except hyperbolicity.ChainError as err:
        return str(err)


def slice_domain(name):
    if name in TEST_SLICES:
        return hyperbolicity.OmegaD(membership=TEST_SLICES[name], name=name)
    return hyperbolicity.SLICES[name]()


@pytest.mark.parametrize("name", list(REF_SLICES))
def test_omega_d_membership_matches_per_point(name):
    # the punctures, the disc rim, the hole and the strip, on and off z = 0
    xy = [(0.5, 5.0), (-3.0, -4.0), (2.0, 0.0), (0.0, 2.0), (1.2, 1.6), (-0.5, 0.2),
          (-0.5, 0.0), (0.3, 1e-9), (0.3, 0.0), (9.0, -9.0)]
    zs = [0.0, -0.0, 1e-3, -0.05, 0.2, 0.5, 0.999, 1.0, -1.5]
    pts = np.array([[x, y, z] for x, y in xy for z in zs]).reshape(len(xy), len(zs), 3)
    dom, ref_dom = slice_domain(name), hyperbolicity.OmegaD(membership=REF_SLICES[name])
    got = hyperbolicity.omega_d_membership(dom, pts)
    assert got.tolist() == [[ref_omega_d_membership(ref_dom, x) for x in row] for row in pts]
    assert got.any() and not got.all()


@pytest.mark.parametrize("name", list(REF_SLICES))
def test_chain_matches_per_point_containment(name, monkeypatch):
    p, q = np.zeros(3), np.array([1.0, 0.0, 0.0])
    ks, chords = (2, 3, 10, 100, 1000, 10000), ((1.0, 0.0), (0.6, 0.8), (0.0, 1.0))
    dom = slice_domain(name)
    got = [chain_or_error(dom, p, q, k, chord) for k in ks for chord in chords]
    monkeypatch.setattr(hyperbolicity, "omega_d_membership", ref_omega_d_membership)
    monkeypatch.setattr(hyperbolicity, "_vertical_disc_inside", ref_vertical_disc_inside)
    ref_dom = hyperbolicity.OmegaD(membership=REF_SLICES[name], name=name)
    ref = [chain_or_error(ref_dom, p, q, k, chord) for k in ks for chord in chords]
    assert got == ref  # every ChainBound field, bit for bit, or the same ChainError
    assert any(isinstance(bound, hyperbolicity.ChainBound) for bound in got)


ESCAPE_FIXTURES = {
    "slab": ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [1.0, 1.0], [0.0, 0.0, 0.0]),
    "wedge": ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0], [0.0, -1.0, -1.0]),
    "one-halfspace": ([[0.0, 0.0, 1.0]], [1.0], [0.0, 0.0, 0.0]),
    "three-halfspaces": (np.eye(3), [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
    "zero-normals": (np.zeros((0, 3)), np.zeros(0), np.zeros(3)),
}


@pytest.mark.parametrize("radius", [1e6, 2.0])
@pytest.mark.parametrize("name", list(ESCAPE_FIXTURES))
def test_escape_trials_match_per_trial_loop(name, radius):
    h = hyperbolicity.HalfspaceIntersection(*ESCAPE_FIXTURES[name])
    trials = 2 * hyperbolicity.ESCAPE_BLOCK + 37
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    count, witness = hyperbolicity.plane_escape_trials(h, trials, rng, radius=radius)
    ref_count, ref_witness = ref_plane_escape_trials(h, trials, ref_rng, radius=radius)
    assert count == ref_count
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (witness is None) == (ref_witness is None)
    if witness is not None:
        assert np.array_equal(witness.base, ref_witness.base)
        assert np.array_equal(witness.span, ref_witness.span)
    # a radius-2 ring leaves the slab for steep planes only: some trials in and some out
    if (name, radius) == ("slab", 2.0):
        assert 0 < count < trials


def test_escape_trials_take_one_contains_call_per_block(monkeypatch):
    h = hyperbolicity.HalfspaceIntersection(*ESCAPE_FIXTURES["wedge"])
    calls = []
    contains = hyperbolicity.HalfspaceIntersection.contains

    def counted(self, x):
        calls.append(np.shape(x))
        return contains(self, x)

    monkeypatch.setattr(hyperbolicity.HalfspaceIntersection, "contains", counted)
    count, _ = hyperbolicity.plane_escape_trials(h, 10000, np.random.default_rng(0))
    assert count == 0
    assert len(calls) <= math.ceil(10000 / hyperbolicity.ESCAPE_BLOCK)
    assert sum(shape[0] for shape in calls) == 10000


# ---------------------------------------------------------------------------
# the names the benchmark traces


def test_traced_names_resolve_on_the_package():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, _ in spans.FUNCTIONS:
        assert callable(getattr(getattr(mconvex, module), name)), f"{module}.{name}"
    for name, _ in spans.BARRIER_METHODS:
        assert callable(getattr(barrier.BarrierFunction, name)), f"BarrierFunction.{name}"
    domain = surfaces.make_domain("catenoid")
    assert callable(tubular.project_batch)
    for name in spans.DOMAIN_FIELDS:
        assert callable(getattr(domain, name)), f"surfaces.{name}"
