import warnings

import numpy as np
import pytest

from mconvex import numkit, surfaces, tubular


def generic_sphere():
    """Unit-ball domain stripped of its exact projection, to exercise the
    multi-start solver on a case with a known answer."""
    ball = surfaces.sphere()
    return surfaces.ImplicitDomain(
        "generic-sphere", 3, ball.phi, ball._grad, ball._hess,
        boundary_sampler=ball._boundary_sampler, box=ball.box,
    )


def test_signed_distance_ball_inside():
    ball = surfaces.sphere()
    res = tubular.signed_distance(ball, np.array([0.5, 0.0, 0.0]))
    assert res.distance == pytest.approx(-0.5, abs=1e-12)
    assert np.allclose(res.foot, [1.0, 0.0, 0.0], atol=1e-12)
    assert res.multiplicity == 1


def test_signed_distance_ball_outside():
    ball = surfaces.sphere()
    res = tubular.signed_distance(ball, np.array([2.0, 0.0, 0.0]))
    assert res.distance == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.foot, [1.0, 0.0, 0.0], atol=1e-12)


def test_generic_solver_matches_exact_on_sphere():
    gen = generic_sphere()
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.9, 0.9, size=(20, 3))
    feet, delta, mult = tubular.project_batch(gen, pts)
    exact = np.linalg.norm(pts, axis=-1) - 1.0
    assert np.max(np.abs(delta - exact)) < 1e-9
    assert np.max(np.abs(np.abs(np.linalg.norm(feet, axis=-1)) - 1.0)) < 1e-9


def test_catenoid_axis_multiplicity():
    cat = surfaces.catenoid()
    res = tubular.signed_distance(cat, np.zeros(3))
    assert res.distance == pytest.approx(-1.0, abs=1e-8)
    assert res.multiplicity > 1


@pytest.mark.parametrize("case", ["catenoid-axis", "generic-sphere-centre", "scherk"])
def test_projection_rows_do_not_depend_on_their_batch(case):
    # the appended centre has several nearest feet and singular Newton
    # systems; it must not stop the polish of the other points. On Scherk,
    # some starts of the last point diverge and the other starts stop
    # pulling after many different numbers of steps, so rows leave the
    # loop's working arrays at different times
    if case == "catenoid-axis":
        dom = surfaces.catenoid()
        pts = tubular.collar_points(dom, 20, 0.02, 0.3)
    elif case == "generic-sphere-centre":
        dom = generic_sphere()
        pts = np.random.default_rng(2).uniform(-0.9, 0.9, size=(20, 3))
    else:
        dom = surfaces.scherk()
        base = dom.boundary_samples(144)[::24]
        normal = surfaces.boundary_frames(dom, base).inner_normal
        pts = np.vstack([tubular.collar_points(dom, 20, 0.02, 0.3), base + 2.0 * normal,
                         base - 2.0 * normal, [[1.666, 0.0, -1.169]]])
        seen = []
        grad = dom._grad
        dom._grad = lambda x: seen.append((len(x), np.isfinite(x).all())) or grad(x)
    batch = pts if case == "scherk" else np.vstack([pts, np.zeros((1, 3))])
    feet, delta, mult = tubular.project_batch(dom, batch)
    if case == "scherk":
        assert not all(finite for _, finite in seen)
        assert len({rows for rows, _ in seen}) > 20
    else:
        assert mult[-1] > 1
    for i, x in enumerate(batch):
        foot, dlt, m = tubular.project_batch(dom, x)
        assert np.array_equal(foot[0], feet[i]), i
        assert dlt[0] == delta[i] and m[0] == mult[i], i


def test_foot_lies_on_boundary():
    cat = surfaces.catenoid()
    pts = tubular.collar_points(cat, 50, 0.02, 0.3)
    feet, delta, _ = tubular.project_batch(cat, pts)
    scale = 1.0 + np.linalg.norm(pts, axis=-1)
    assert np.max(np.abs(cat.phi(feet)) / scale) < 1e-8


def test_grad_delta_examples():
    ball = surfaces.sphere()
    g = tubular.grad_delta(ball, np.array([0.5, 0.0, 0.0]))
    assert np.allclose(g, [1.0, 0.0, 0.0], atol=1e-12)
    plane = surfaces.halfspace()
    g = tubular.grad_delta(plane, np.array([0.0, 0.0, -0.3]))
    assert np.allclose(g, [0.0, 0.0, 1.0], atol=1e-12)


def test_grad_delta_unit_norm_and_fd_agreement_catenoid():
    cat = surfaces.catenoid()
    pts = tubular.collar_points(cat, 12, 0.05, 0.3)
    for x in pts:
        g = tubular.grad_delta(cat, x)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-6
        gfd = numkit.gradient_fd(
            lambda y: tubular.signed_distance(cat, y).distance, x, 1e-5
        )
        assert np.max(np.abs(g - gfd)) < 1e-5


def test_transport_examples():
    ball = surfaces.sphere()
    sp = surfaces.principal_curvatures(ball, np.array([1.0, 0.0, 0.0]))
    moved = tubular.transport_curvatures(sp, -0.5)
    assert np.allclose(moved, [2.0, 2.0], atol=1e-12)

    plane = surfaces.halfspace()
    spp = surfaces.principal_curvatures(plane, np.zeros(3))
    assert np.allclose(tubular.transport_curvatures(spp, -0.7), [0.0, 0.0])

    cat = surfaces.catenoid()
    neck = surfaces.principal_curvatures(cat, np.array([1.0, 0.0, 0.0]))
    moved = tubular.transport_curvatures(neck, -0.2)
    assert np.allclose(moved, [-1.0 / 1.2, 1.0 / 0.8], atol=1e-9)
    assert moved.sum() == pytest.approx(1.0 / 0.8 - 1.0 / 1.2)
    assert moved.sum() > 0.0


def test_transport_focal_rejected():
    ball = surfaces.sphere()
    sp = surfaces.principal_curvatures(ball, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(tubular.FocalPointError):
        tubular.transport_curvatures(sp, -1.0)


def test_transport_monotone_and_sign_preserving():
    rng = np.random.default_rng(4)
    for _ in range(50):
        nu = np.sort(rng.uniform(-0.9, 2.0, size=3))
        sp = surfaces.SurfacePoint(np.zeros(3), np.zeros(3), nu, np.zeros((3, 3)))
        ts = -np.sort(rng.uniform(0.0, 0.45, size=4))  # valid: |t| nu < 1
        prev = nu
        for t in ts:
            cur = tubular.transport_curvatures(sp, t)
            assert np.all(cur >= prev - 1e-12)  # moving inward never decreases
            assert np.all(np.sign(cur) == np.sign(nu))
            assert np.all(np.diff(cur) >= -1e-12)  # ordering preserved
            prev = cur


def test_transport_semigroup():
    rng = np.random.default_rng(9)
    for _ in range(50):
        nu = np.sort(rng.uniform(-1.0, 3.0, size=4))
        sp = surfaces.SurfacePoint(np.zeros(3), np.zeros(3), nu, np.zeros((4, 3)))
        t, s = -rng.uniform(0.0, 0.2, size=2)
        if np.any(1.0 + (t + s) * nu <= 0.05):
            continue
        once = tubular.transport_curvatures(sp, t)
        sp2 = surfaces.SurfacePoint(np.zeros(3), np.zeros(3), once, np.zeros((4, 3)))
        twice = tubular.transport_curvatures(sp2, s)
        direct = tubular.transport_curvatures(sp, t + s)
        assert np.max(np.abs(twice - direct)) < 1e-10


def test_hessian_delta_plane_zero():
    plane = surfaces.halfspace()
    h = tubular.hessian_delta(plane, np.array([0.4, 1.0, -0.2]))
    assert np.max(np.abs(h)) == 0.0


def test_hessian_delta_ball():
    ball = surfaces.sphere()
    x = np.array([0.5, 0.0, 0.0])
    h = tubular.hessian_delta(ball, x)
    eig = numkit.sym_eigen(h)
    assert np.max(np.abs(eig.eigenvalues - [0.0, 2.0, 2.0])) < 1e-9
    kernel = eig.eigenvectors[:, 0]
    assert np.max(np.abs(np.abs(kernel) - [1.0, 0.0, 0.0])) < 1e-9


def test_hessian_delta_annihilates_gradient():
    for dom in (surfaces.sphere(), surfaces.catenoid()):
        pts = tubular.collar_points(dom, 10, 0.05, 0.25)
        for x in pts:
            h = tubular.hessian_delta(dom, x)
            g = tubular.grad_delta(dom, x)
            assert np.max(np.abs(h @ g)) < 1e-6


def test_hessian_delta_fd_agreement():
    for dom in (surfaces.sphere(), surfaces.cylinder(), surfaces.catenoid()):
        pts = tubular.collar_points(dom, 8, 0.05, 0.25)
        for x in pts:
            h = tubular.hessian_delta(dom, x)
            hfd = numkit.hessian_fd(
                lambda y: tubular.signed_distance(dom, y).distance, x, 1e-4
            )
            assert np.max(np.abs(h - hfd)) < 1e-4


def brute_force_catenoid_cut_from_neck():
    """Independent two-sheet search: largest s with the neck still nearest."""
    v = np.linspace(-3.0, 3.0, 6001)
    profile = np.stack([np.cosh(v), v], axis=-1)  # (r, z) curve

    def dist(r, z):
        return np.min(np.hypot(profile[:, 0] - r, profile[:, 1] - z))

    lo, hi = 0.0, 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        # inward from the neck point (1, 0); cylindrical radius is |1 - mid|
        d = dist(abs(1.0 - mid), 0.0)
        if abs(d - mid) < 1e-9:
            lo = mid
        else:
            hi = mid
    return lo


def test_reach_estimates():
    ball = surfaces.sphere()
    est = tubular.reach_estimate(ball, ball.boundary_samples(64), probe_count=6)
    assert est.value == pytest.approx(1.0, abs=1e-6)

    slab = surfaces.slab()
    est = tubular.reach_estimate(slab, slab.boundary_samples(64), probe_count=6)
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert est.focal_bound == np.inf

    cat = surfaces.catenoid()
    est = tubular.reach_estimate(cat, cat.boundary_samples(100), probe_count=8)
    brute = brute_force_catenoid_cut_from_neck()
    assert est.value <= 1.0 + 1e-6
    assert abs(est.value - brute) / brute < 0.05


def test_scherk_reach_estimate_emits_no_warnings():
    # diverging starts overflow inside the solver; the ok mask drops them,
    # so they must neither print a RuntimeWarning nor move the estimate
    dom = surfaces.scherk()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = tubular.reach_estimate(dom, dom.boundary_samples(144), probe_count=12)
    assert est == tubular.ReachEstimate(
        value=1.0164265726490214,
        focal_bound=1.0164265726490214,
        bottleneck_bound=1.4316311903477201,
        capped=False,
        samples=144,
    )


def test_reach_empty_rejected():
    with pytest.raises(ValueError):
        tubular.reach_estimate(surfaces.sphere(), np.zeros((0, 3)))


def test_reach_estimate_projection_counts():
    # catenoid, 144 samples, 12 probes: bisecting every failing ray one level
    # per call took 41 cold calls on 864 points
    cat = surfaces.catenoid()
    calls = []
    project = tubular.project_batch

    def counting(domain, points, **kw):
        calls.append(len(np.atleast_2d(points)))
        return project(domain, points, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tubular, "project_batch", counting)
        est = tubular.reach_estimate(cat, cat.boundary_samples(144), probe_count=12)
    assert est.value == 0.9996039413508695
    assert (len(calls), sum(calls)) == (13, 198)


# ---------------------------------------------------------------------------
# the pruned bisection against each ray bisected alone


def hashed_predicate(keys, bias):
    """Non-monotone, bit-deterministic: the bits of the offset hashed with
    the ray's key; rays sharing a key answer alike."""

    def below(mid, rows):
        h = mid.view(np.uint64) * keys[rows]
        return (h >> np.uint64(40)) % np.uint64(1000) < bias[rows]

    return below


def threshold_predicate(thresholds):
    return lambda mid, rows: mid < thresholds[rows]


def sequential_finals(below, lo, hi, iters):
    """Each ray bisected alone, one predicate call per midpoint."""
    finals = np.empty(len(lo))
    for r in range(len(lo)):
        a, b = lo[r : r + 1].copy(), hi[r : r + 1].copy()
        for _ in range(iters):
            mid = 0.5 * (a + b)
            up = below(mid, np.array([r]))
            a, b = np.where(up, mid, a), np.where(up, b, mid)
        finals[r] = a[0]
    return finals


def pruned_min(below, lo, hi, iters):
    sizes = []

    def recording(mid, rows):
        assert mid.shape == rows.shape
        sizes.append(len(mid))
        return below(mid, rows)

    got, _ = tubular.bisect(recording, lo, hi, iters, prune=True)
    assert max(sizes, default=0) <= max(tubular.BISECT_POINTS, len(lo))
    return float(np.min(got)), sizes


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("iters", [1, 5, 40, 41, 43])
def test_pruned_bisection_min_matches_sequential_on_random_predicates(seed, iters):
    rng = np.random.default_rng(seed)
    rays = int(rng.integers(1, 24))
    # a few keys and brackets shared by several rays: exact ties
    keys = rng.integers(1, 2**63, size=max(1, rays // 3), dtype=np.uint64) | np.uint64(1)
    pick = rng.integers(0, len(keys), size=rays)
    lo = np.round(rng.uniform(0.0, 0.5, size=len(keys)), 1)[pick]
    hi = lo + np.round(rng.uniform(0.1, 1.0, size=len(keys)), 1)[pick]
    below = hashed_predicate(keys[pick], rng.integers(200, 800, size=rays))
    want = np.min(sequential_finals(below, lo, hi, iters))
    got, _ = pruned_min(below, lo, hi, iters)
    assert got == want


@pytest.mark.parametrize("iters", [7, 40, 41])
def test_pruned_bisection_keeps_tied_rays(iters):
    # every ray of a ball crosses at its centre: the brackets never separate,
    # nothing is pruned, and the level count stays at what the budget allows
    rays = 14
    below = threshold_predicate(np.full(rays, 0.7))
    lo, hi = np.zeros(rays), np.full(rays, 2.0)
    got, sizes = pruned_min(below, lo, hi, iters)
    assert got == sequential_finals(below, lo, hi, iters)[0]
    assert sizes == [rays] * iters


def test_pruned_bisection_follows_a_late_switch_of_the_minimum():
    # ray 0 holds the smallest hi for many levels, ray 1 ends lower
    thresholds = np.array([0.5 - 1.0e-9, 0.5 - 1.1e-9])
    below = threshold_predicate(thresholds)
    lo, hi = np.array([0.0, 0.2]), np.array([1.0, 0.9])
    _, early_hi = tubular.bisect(lambda m: m < thresholds, lo, hi, 10)
    finals = sequential_finals(below, lo, hi, 40)
    assert early_hi[0] < early_hi[1] and finals[1] < finals[0]
    got, sizes = pruned_min(below, lo, hi, 40)
    assert got == finals[1]
    assert len(sizes) < 40  # several levels per call once few rays are live


@pytest.mark.parametrize("iters", [0, 1, 6, 40, 41])
def test_plain_bisection_keeps_every_bracket(iters):
    rng = np.random.default_rng(7)
    keys = rng.integers(1, 2**63, size=9, dtype=np.uint64) | np.uint64(1)
    below = hashed_predicate(keys, rng.integers(200, 800, size=9))
    lo, hi = rng.uniform(0.0, 0.5, size=9), rng.uniform(0.6, 1.5, size=9)
    rows = np.arange(9)
    got, _ = tubular.bisect(lambda m: below(m, rows), lo, hi, iters)
    assert np.array_equal(got, sequential_finals(below, lo, hi, iters))


def test_curvature_bounds_examples():
    ball = surfaces.sphere()
    rep = tubular.curvature_bounds_check(ball, 1.0, 2, ball.boundary_samples(32))
    assert rep.passed
    assert rep.worst_upper == pytest.approx(0.0, abs=1e-9)

    plane = surfaces.halfspace()
    for eps in (0.5, 1.0, 3.0):
        rep = tubular.curvature_bounds_check(plane, eps, 2, plane.boundary_samples(16))
        assert rep.passed

    cat = surfaces.catenoid()
    rep = tubular.curvature_bounds_check(cat, 0.5, 2, cat.boundary_samples(64))
    assert rep.passed
    assert rep.worst_lower >= 1.0 - 1e-6  # curvatures in [-1, 1] inside [-2, 2]
    assert rep.worst_upper >= 1.0 - 1e-6


def test_curvature_bounds_violation_detected():
    # inconsistent eps: the unit ball cannot have a tube of radius 2
    ball = surfaces.sphere()
    rep = tubular.curvature_bounds_check(ball, 2.0, 2, ball.boundary_samples(16))
    assert not rep.passed
    assert any(v.check == "upper" for v in rep.violations)


def test_collar_points_depths():
    cat = surfaces.catenoid()
    pts = tubular.collar_points(cat, 60, 0.05, 0.2)
    _, delta, _ = tubular.project_batch(cat, pts)
    assert np.all(delta < -0.049)
    assert np.all(delta > -0.201)


def test_warm_start_projection_agrees():
    cat = surfaces.catenoid()
    pts = tubular.collar_points(cat, 30, 0.05, 0.25)
    feet, delta, _ = tubular.project_batch(cat, pts)
    shifted = pts + 1e-4
    feet2, delta2, _ = tubular.project_batch(cat, shifted, warm_feet=feet)
    feet3, delta3, _ = tubular.project_batch(cat, shifted)
    assert np.max(np.abs(delta2 - delta3)) < 1e-10
    assert np.max(np.linalg.norm(feet2 - feet3, axis=-1)) < 1e-7


def test_collar_invariants_unit_gradient():
    # |grad delta| = 1 via finite differences of the distance field itself
    for dom in (surfaces.sphere(), surfaces.slab()):
        pts = tubular.collar_points(dom, 40, 0.05, 0.4)
        for x in pts[:10]:
            g = numkit.gradient_fd(
                lambda y: tubular.signed_distance(dom, y).distance, x, 1e-5
            )
            assert abs(np.linalg.norm(g) - 1.0) < 1e-6
