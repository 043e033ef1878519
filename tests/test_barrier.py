import numpy as np
import pytest

from mconvex import barrier, mpsh, numkit, surfaces, tubular


def test_profile_normalization():
    prof = barrier.make_profile(4.0, 2, 1.0)
    assert prof.value(0.0) == 0.0
    assert prof.d1(0.0) == 1.0
    assert prof.d2(0.0) == 4.0


def test_profile_frozen_value():
    prof = barrier.make_profile(4.0, 2, 1.0)
    assert prof.value(-0.25) == pytest.approx(-0.15803013970713942, abs=1e-15)


def test_profile_negative_with_small_slope():
    prof = barrier.make_profile(3.0, 2, 1.0)
    ts = np.linspace(-5.0, -1e-6, 200)
    assert np.all(prof.value(ts) < 0.0)
    assert np.all(prof.d1(ts) > 0.0)
    assert np.all(prof.d1(ts) < 1.0)
    assert np.all(prof.d2(ts) > 0.0)


def test_profile_threshold_strict():
    with pytest.raises(ValueError):
        barrier.make_profile(1.0, 2, 1.0)  # alpha == (m-1)/eps exactly
    prof = barrier.make_profile(1.0001, 2, 1.0)
    assert prof.alpha == pytest.approx(1.0001)


def test_profile_inverse_roundtrip():
    prof = barrier.make_profile(2.5, 2, 1.0)
    ts = np.linspace(-0.4, -0.001, 20)
    assert np.max(np.abs(prof.inverse(prof.value(ts)) - ts)) < 1e-14


def test_collar_example_values():
    prof = barrier.make_profile(4.0, 2, 1.0)
    assert prof.band_width() == pytest.approx(np.log(4.0) / 4.0, abs=1e-15)
    col = barrier.choose_collar(prof, 1.0, safety=0.99)
    assert col.eps0p == pytest.approx(0.343108, abs=1e-6)
    assert 0.0 < col.eps1 < col.eps2 < col.eps0 < col.eps0p < 0.5


def test_collar_band_keeps_profile_convexity_dominant():
    # across a grid of alphas the chosen band must keep h'' above the floor
    for alpha in np.linspace(1.01, 40.0, 25):
        prof = barrier.make_profile(alpha, 2, 1.0)
        col = barrier.choose_collar(prof, 1.0)
        floor = prof.curvature_floor
        ts = np.linspace(-col.eps0p, 0.0, 50)
        assert np.all(prof.d2(ts) > floor)


def test_collar_rejects_bad_safety():
    prof = barrier.make_profile(4.0, 2, 1.0)
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            barrier.choose_collar(prof, 1.0, safety=bad)


def test_collar_m1_band_is_finite():
    prof = barrier.make_profile(1.0, 1, 1.0)
    assert prof.band_width() == np.inf
    col = barrier.choose_collar(prof, 1.0)
    assert col.eps0p < 0.5


def test_cap_shape():
    prof = barrier.make_profile(4.0, 2, 1.0)
    col = barrier.choose_collar(prof, 1.0)
    cap = barrier.make_cap(col, prof)
    lo, hi = cap.lo, cap.hi
    assert lo == pytest.approx(float(prof.value(-col.eps2)))
    assert hi == pytest.approx(float(prof.value(-col.eps1)))
    # identity above, flat below, smoothstep midpoint slope one half
    assert float(cap.value(hi + 0.3)) == hi + 0.3
    assert float(cap.d1(lo - 0.2)) == 0.0
    assert float(cap.value(lo - 0.2)) == cap.plateau
    assert float(cap.d1(0.5 * (lo + hi))) == pytest.approx(0.5, abs=1e-12)
    mid = np.linspace(lo, hi, 1000)
    assert np.all(cap.d2(mid) >= -1e-12)


@pytest.mark.parametrize("degree", [3, 5, 7])
def test_cap_degrees_convex_and_c1(degree):
    cap = barrier.SmoothingCap(lo=-2.0, hi=-1.0, degree=degree)
    ts = np.linspace(-2.2, -0.8, 400)
    d1 = cap.d1(ts)
    assert np.all(d1 >= 0.0) and np.all(d1 <= 1.0)
    assert np.all(cap.d2(ts) >= -1e-12)
    eps = 1e-7
    for joint in (-2.0, -1.0):
        jump = float(cap.d1(joint + eps) - cap.d1(joint - eps))
        assert abs(jump) < 1e-5


def test_cap_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        barrier.SmoothingCap(lo=-1.0, hi=-1.0)
    with pytest.raises(ValueError):
        barrier.SmoothingCap(lo=-1.0, hi=-2.0)


def test_build_rejects_nonconvex_boundary():
    ball = surfaces.sphere()

    def phi(x):
        return 1.0 - np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def grad(x):
        x = np.asarray(x, dtype=float)
        nrm = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-300)
        return -x / nrm

    def hess(x):
        return -ball.hess(x)

    exterior = surfaces.ImplicitDomain(
        "ball-exterior", 3, phi, grad, hess,
        boundary_sampler=ball._boundary_sampler,
    )
    with pytest.raises(barrier.MConvexityError) as err:
        barrier.build_barrier(exterior, m=2, eps=0.5)
    assert err.value.sigma_m < -1e-9


def test_halfspace_barrier_spectrum():
    plane = surfaces.halfspace()
    bf = barrier.build_barrier(plane, m=2, eps=1.0)
    x = np.array([0.4, -0.2, -0.05])
    eig = bf.eigen_list(x)
    assert np.all(eig >= 0.0)
    assert np.allclose(eig[:2], 0.0)
    assert eig[2] > 0.0  # normal direction carries the profile convexity
    for m in (1, 2):
        assert mpsh.min_m_trace(bf.hessian(x), m) >= 0.0


def test_ball_barrier_example_point():
    # alpha = 4 variant: spectrum at (0.9, 0, 0) matches the assembled list
    # and a Richardson-extrapolated difference Hessian
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0, alpha=4.0)
    x = np.array([0.9, 0.0, 0.0])
    pred = bf.eigen_list(x)
    analytic = numkit.sym_eigen(bf.hessian(x)).eigenvalues
    assert np.max(np.abs(pred - analytic)) < 1e-10
    fd = numkit.hessian_fd_richardson_batch(bf.value_batch, x[None], 1e-3)[0]
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(fd)) - pred)) < 1e-6


def test_barrier_value_contract():
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0)
    assert bf.value(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    interior = tubular.collar_points(ball, 64, 1e-3, 0.9)
    vals = bf.value_batch(interior)
    assert np.all(vals <= 0.0)
    # plateau region: constant value, vanishing derivatives
    deep = np.array([0.15, 0.1, 0.0])
    plateau = bf.scale * bf.cap.plateau
    assert bf.value(deep) == pytest.approx(plateau)
    assert np.linalg.norm(bf.gradient(deep)) == 0.0
    assert np.max(np.abs(bf.hessian(deep))) == 0.0
    assert plateau < -1.0  # the regular range (-1, 0] sits above it


def test_level_delta_roundtrip():
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0)
    for t in (-0.9, -0.5, -0.1):
        tau = bf.level_delta(t)
        assert -bf.collar.eps1 < tau < 0.0
        x = np.array([1.0 + tau, 0.0, 0.0])
        assert bf.value(x) == pytest.approx(t, abs=1e-12)
    with pytest.raises(ValueError):
        bf.level_delta(-1.5)


def test_sphere_level_set_constant_delta():
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0)
    boundary = ball.boundary_samples(64)
    located, targets = barrier._bisect_levels(bf, boundary, [-0.5])
    deltas = bf.delta_batch(located)
    assert np.std(deltas) <= 1e-7
    assert np.max(np.abs(deltas - targets)) < 1e-9


def test_verify_barrier_passes_on_catalog():
    for dom, eps in ((surfaces.sphere(), 1.0), (surfaces.slab(), 1.0)):
        bf = barrier.build_barrier(dom, m=2, eps=eps)
        interior = tubular.collar_points(dom, 400, 1e-3, 0.98 * bf.collar.eps0p)
        boundary = dom.boundary_samples(128)
        rep = barrier.verify_barrier(bf, interior, boundary, fd_check_count=5)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_verify_barrier_catenoid():
    cat = surfaces.catenoid()
    bf = barrier.build_barrier(cat, m=2, eps=0.78)
    interior = tubular.collar_points(cat, 300, 1e-3, 0.98 * bf.collar.eps0p)
    boundary = cat.boundary_samples(100)
    rep = barrier.verify_barrier(bf, interior, boundary, fd_check_count=4)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def ref_verify_barrier(bf, interior, boundary, level_count=10):
    """verify_barrier before its warm start, at the default tolerances and
    no finite-difference check: checks (b), (c) and the level bracket each
    project their points cold again. Of check (e) it returns the count."""
    check = barrier.BarrierCheck
    hessians, spectra = bf.hessian_batch(interior)
    actual = numkit.sym_eigen(hessians).eigenvalues
    margins = mpsh.sum_smallest(actual, bf.m)
    i = int(np.argmin(margins))
    checks = [check("psh-margin", float(margins[i]), -1e-8, bool(margins[i] >= -1e-8),
                    interior[i], len(interior))]
    bvals = np.abs(bf.value_batch(boundary))
    i = int(np.argmax(bvals))
    checks.append(check("boundary-zero", float(bvals[i]), 1e-8, bool(bvals[i] <= 1e-8),
                        boundary[i], len(boundary)))
    floor = 1e-6 * bf.scale
    all_pts = np.concatenate([interior, boundary])
    deltas = bf.delta_batch(all_pts)
    vals = bf.value_from_delta(deltas)
    regular = (vals > -1.0) & (vals <= 0.0)
    masked = np.where(regular, bf.chain_coefficients(deltas)[0], np.inf)
    i = int(np.argmin(masked))
    checks.append(check("gradient-floor", float(masked[i]), floor, bool(masked[i] > floor),
                        all_pts[i] if regular.any() else None, int(regular.sum())))
    errs = np.max(np.abs(spectra - actual), axis=-1)
    i = int(np.argmax(errs))
    checks.append(check("eigen-list", float(errs[i]), 1e-6, bool(errs[i] <= 1e-6),
                        interior[i] if errs[i] > 0.0 else None, len(interior)))
    base = boundary[:: max(1, len(boundary) // 32)][:32]
    g = bf.domain.grad(base)
    rays = base - bf.collar.eps1 * g / numkit.row_norms(g)
    levels = np.repeat([-(k + 1.0) / (level_count + 1.0) for k in range(level_count)], len(base))
    bracketed = bf.value_batch(np.tile(rays, (level_count, 1))) - levels < 0.0
    return checks, int(np.sum(bracketed))


def test_verify_barrier_projects_each_point_cold_once(monkeypatch):
    cat = surfaces.catenoid()
    bf = barrier.build_barrier(cat, m=2, eps=0.78)
    interior = tubular.collar_points(cat, 300, 1e-3, 0.98 * bf.collar.eps0p)
    boundary = cat.boundary_samples(64)
    ref_checks, level_count = ref_verify_barrier(bf, interior, boundary)
    assert np.any(bf.delta_batch(interior) <= -bf.collar.eps2)  # plateau rows too

    calls = []
    project = tubular.project_batch

    def recording(domain, points, *, warm_feet=None):
        calls.append((len(np.atleast_2d(points)), warm_feet is not None))
        return project(domain, points, warm_feet=warm_feet)

    monkeypatch.setattr(tubular, "project_batch", recording)
    rep = barrier.verify_barrier(bf, interior, boundary, fd_check_count=0)
    monkeypatch.undo()

    level = rep.checks[-1]
    assert level.count == level_count == 320 and level.passed and level.worst_value <= 1e-12
    cold = sum(n for n, warm in calls if not warm)
    assert cold == len(interior) + len(boundary) + level.count
    assert [n for n, warm in calls if warm] == [320] * 49
    for got, want in zip(rep.checks[:4], ref_checks):
        assert (got.name, got.worst_value, got.threshold, got.passed, got.count) == (
            want.name, want.worst_value, want.threshold, want.passed, want.count)
        assert (got.worst_point is None) == (want.worst_point is None)
        assert got.worst_point is None or np.array_equal(got.worst_point, want.worst_point)
    assert [c.name for c in rep.checks] == [c.name for c in ref_checks] + ["level-set"]


class _ConcaveCap(barrier.SmoothingCap):
    """Deliberately broken cap: concave transition, for the negative control."""

    def d2(self, t):
        return -40.0 * np.ones_like(np.asarray(t, dtype=float))


def test_tampered_cap_flagged_by_verification():
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0)
    bad_cap = _ConcaveCap(lo=bf.cap.lo, hi=bf.cap.hi, degree=3)
    tampered = barrier.BarrierFunction(ball, bf.collar, bf.profile, bad_cap)
    # points inside the cap transition band, where the fake concavity acts
    depth = 0.5 * (bf.collar.eps1 + bf.collar.eps2)
    pts = tubular.collar_points(ball, 50, depth * 0.98, depth * 1.02)
    boundary = ball.boundary_samples(32)
    rep = barrier.verify_barrier(tampered, pts, boundary)
    assert not {c.name: c for c in rep.checks}["psh-margin"].passed


def test_strong_convexity_transfer_strict_inside():
    # over boundary points that are nowhere 2-flat, the curvature sum grows
    # strictly when moving inward
    cat = surfaces.catenoid()
    for p in cat.boundary_samples(32):
        sp = surfaces.principal_curvatures(cat, p)
        h_boundary = float(np.sum(sp.curvatures[:2]))
        for t in (-0.1, -0.3):
            moved = tubular.transport_curvatures(sp, t)
            assert np.sum(moved[:2]) > h_boundary


def test_m_flat_boundary_keeps_equality():
    # slab boundary planes are 2-flat: the transported sum stays exactly zero
    slab = surfaces.slab()
    sp = surfaces.principal_curvatures(slab, np.array([0.3, 0.1, 1.0]))
    for t in (-0.2, -0.6):
        assert np.sum(tubular.transport_curvatures(sp, t)) == 0.0
