import math
import warnings

import numpy as np
import pytest

from mconvex import hyperbolicity as hyp
from mconvex import numkit, surfaces


def test_bck_examples():
    assert hyp.bck_metric(np.zeros(3), np.array([0.0, 2.0, 0.0])) == pytest.approx(2.0)
    assert hyp.bck_metric([0.5, 0.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(4.0 / 3.0)
    assert hyp.bck_metric([0.5, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(
        1.0 / np.sqrt(0.75)
    )


def test_bck_outside_rejected():
    with pytest.raises(ValueError):
        hyp.bck_metric([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def test_metric_ball_center():
    ball = surfaces.sphere()
    est = hyp.metric_upper_bound(ball, np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert est.bound >= 1.0 - 1e-6
    assert est.bound <= 1.01


def test_metric_ball_named_directions():
    ball = surfaces.sphere()
    p = np.array([0.5, 0.0, 0.0])
    for v, exact in (
        (np.array([1.0, 0.0, 0.0]), 4.0 / 3.0),
        (np.array([0.0, 1.0, 0.0]), 2.0 / np.sqrt(3.0)),
    ):
        est = hyp.metric_upper_bound(ball, p, v)
        assert est.bound >= exact - 1e-6
        assert est.bound <= 1.01 * exact
        assert est.containment_checked


def test_metric_direction_scaling():
    ball = surfaces.sphere()
    p = np.array([0.2, 0.1, -0.3])
    v = np.array([0.4, -1.0, 0.2])
    one = hyp.metric_upper_bound(ball, p, v)
    three = hyp.metric_upper_bound(ball, p, 3.0 * v)
    assert three.bound == pytest.approx(3.0 * one.bound, rel=1e-6)


def test_metric_witness_disc_inside_domain():
    ball = surfaces.sphere()
    est = hyp.metric_upper_bound(
        ball, np.array([0.3, -0.2, 0.4]), np.array([1.0, 1.0, 0.0])
    )
    wit = est.witness
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t = np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        x = wit.point(t, theta)
        assert float(ball.phi(x)) <= 0.0
    # the base point itself lies on the disc plane within the radius
    offset = est.point - wit.center
    assert abs(offset @ np.cross(wit.u, wit.w)) < 1e-9
    assert np.linalg.norm(offset) <= wit.radius


def holed_ball(hole=(0.45, 0.0, 0.0), hole_radius=0.03):
    """The unit ball minus a small closed ball: phi is the larger of the two
    distance terms, grad the unit normal of the term attaining it."""
    c = np.array(hole)

    def terms(x):
        return np.linalg.norm(x, axis=-1) - 1.0, hole_radius - np.linalg.norm(x - c, axis=-1)

    def phi(x):
        return np.maximum(*terms(x))

    def grad(x):
        outer, inner = terms(x)
        to_hole = (c - x) / np.linalg.norm(x - c, axis=-1, keepdims=True)
        return np.where((outer >= inner)[..., None], x / np.linalg.norm(x, axis=-1, keepdims=True),
                        to_hole)

    return surfaces.ImplicitDomain("holed-ball", 3, phi, grad,
                                   lambda x: np.zeros(np.shape(x) + (3,)))


def test_metric_disc_still_outside_after_shrinking_certifies_nothing():
    # a sampled-only search once returned a witness of this pair that crossed
    # the hole (124 of 79,600 polar points of the disc were outside); the
    # holed ball supplies no Hessian floor, so it certifies no disc at all
    p = np.array([0.466510478745201, -0.08826736280877501, 0.03393068502209852])
    v = np.array([0.3290705269267498, -0.09091017751389677, 0.35734678009100607])
    est = hyp.metric_upper_bound(holed_ball(), p, v)
    assert est.bound == np.inf and not est.containment_checked
    assert est.witness.radius == 0.0 and est.offset == 0.0


def spiked_ball(spikes, sigma=1e-4):
    """The unit ball with thin concave spikes: phi = |x| - 1 + sum_k g_k,
    where g_k = exp(-|x - spike_k|^2 / (2 sigma^2)), is positive within about
    sigma of each of the (k, 3) ``spikes`` (one (3,) spike is one row). Hess
    g_k has smallest eigenvalue -g_k / sigma^2, so the honest floor over a
    ball at distance d_k from spike k is the sum of
    -exp(-d_k^2 / (2 sigma^2)) / sigma^2."""
    spikes = np.atleast_2d(np.asarray(spikes, dtype=float))

    def g(x):
        d2 = np.sum(np.square(x[..., None, :] - spikes), axis=-1)
        return np.exp(-d2 / (2.0 * sigma * sigma))

    def phi(x):
        return np.sqrt(np.sum(np.square(x), axis=-1)) - 1.0 + np.sum(g(x), axis=-1)

    def grad(x):
        unit = x / np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), 1e-300)
        pull = np.sum(g(x)[..., None] * (x[..., None, :] - spikes), axis=-2)
        return unit - pull / (sigma * sigma)

    def hess_floor(centers, radii):
        d = np.maximum(0.0, np.linalg.norm(centers[:, None] - spikes, axis=-1) - radii[:, None])
        return -np.sum(np.exp(-d * d / (2.0 * sigma * sigma)), axis=-1) / (sigma * sigma)

    return surfaces.ImplicitDomain("spiked-ball", 3, phi, grad, hess_floor=hess_floor)


def test_metric_witness_does_not_cross_a_thin_spike():
    # the spike sits on the witness disc this pair gets on the plain ball,
    # halfway out and between the samples of a 32 x 64 polar lattice and of
    # the 64-angle circles of the search; a sampled-only check certified that
    # disc, spike and all
    p, v = np.array([0.3, -0.2, 0.1]), np.array([0.2, 1.0, -0.4])
    spike = np.array([0.3407188609591998, 0.3296811283542553, 0.3315148503138151])
    domain = spiked_ball(spike)
    est = hyp.metric_upper_bound(domain, p, v)
    if not est.containment_checked:
        assert est.bound == np.inf
        return
    wit = est.witness
    normal = np.cross(wit.u, wit.w)
    off = spike - wit.center
    inplane = off - (off @ normal) * normal
    nearest = wit.center + inplane * min(1.0, wit.radius / np.linalg.norm(inplane))
    assert float(domain.phi(nearest)) <= 0.0
    assert est.bound >= hyp.bck_metric(p, v)


@pytest.mark.parametrize("name", sorted(surfaces.DOMAIN_BUILDERS))
def test_hess_floor_bounds_the_hessian(name):
    domain = surfaces.make_domain(name)
    rng = np.random.default_rng(4)
    draws = []
    for _ in range(20):
        center, radius = rng.uniform(-1.0, 1.0, 3), rng.uniform(0.01, 1.5)
        d = rng.standard_normal((500, 3))
        d *= radius * rng.uniform(0.0, 1.0, (500, 1)) ** (1.0 / 3.0) / np.linalg.norm(
            d, axis=1, keepdims=True)
        draws.append((center, radius, d))
    centers, radii, _ = (np.array(x) for x in zip(*draws))
    floors = domain.hess_floor(centers, radii)
    assert isinstance(floors, np.ndarray) and floors.shape == (20,)
    for (center, radius, d), floor in zip(draws, floors):
        # each row of the batch is the floor of its ball alone
        assert np.array_equal(domain.hess_floor(center[None], np.array([radius])), [floor])
        eig = numkit.sym_eigen(domain.hess(center + d)).eigenvalues
        assert floor <= 0.0
        assert np.all(floor <= eig[:, 0] + 1e-9 * (1.0 + np.abs(eig).max(axis=1)))


@pytest.mark.parametrize("name", ["catenoid", "scherk"])
def test_hess_floor_certifies_nothing_past_overflow_or_at_nan(name):
    # cosh and exp overflow far up the axis: the floor is -inf, with no
    # warning; a NaN centre or radius gives NaN (Scherk's scalar
    # -max(1.0, nan) gave -1 for either)
    domain = surfaces.make_domain(name)
    centers = np.array([[0.1, 0.2, 800.0], [0.3, -0.1, 799.0], [np.nan] * 3, [0.1, 0.2, 0.3],
                        [0.1, 0.2, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floors = domain.hess_floor(centers, np.array([0.5, 2.0, 0.5, np.nan, 0.5]))
    assert floors[0] == floors[1] == -np.inf
    assert np.isnan(floors[2:4]).all() and -np.inf < floors[4] < 0.0


def test_every_catalog_domain_has_a_hess_floor():
    # without one, the metric search certifies no disc of the domain
    for name, build in surfaces.DOMAIN_BUILDERS.items():
        assert callable(build().hess_floor), name


@pytest.mark.parametrize("name", ["sphere", "cylinder", "catenoid", "scherk"])
def test_certified_witnesses_lie_inside(name):
    domain = surfaces.make_domain(name)
    rng = np.random.default_rng(8)
    p = rng.uniform(-0.4, 0.4, (40, 3))
    p = p[domain.phi(p) < -0.05][:2]
    v = rng.standard_normal((2, 3))
    t = np.linspace(0.0, 1.0, 200)[:, None, None]
    theta = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)[None, :, None]
    for est in hyp.metric_upper_bound(domain, p, v):
        assert est.containment_checked
        wit = est.witness
        x = wit.center + wit.radius * t * (np.cos(theta) * wit.u + np.sin(theta) * wit.w)
        assert np.max(domain.phi(x)) <= 0.0


def test_metric_rejects_non_finite_input():
    ball = surfaces.sphere()
    with pytest.raises(ValueError, match=r"^v must be finite, got \[nan, 1\.0, 0\.0\]"):
        hyp.metric_upper_bound(ball, np.zeros(3), np.array([np.nan, 1.0, 0.0]))
    pts = np.array([[0.1, 0.0, 0.0], [0.0, np.inf, 0.0]])
    with pytest.raises(ValueError, match=r"^p row \[1\] must be finite"):
        hyp.metric_upper_bound(ball, pts, np.ones((2, 3)))
    dirs = np.ones((2, 3))
    dirs[0, 2] = -np.inf
    with pytest.raises(ValueError, match=r"^v row \[0\] must be finite"):
        hyp.metric_upper_bound(ball, np.zeros((2, 3)), dirs)


def test_metric_tiny_direction_scales():
    # the norm of such a direction underflows to 0; the metric is
    # homogeneous of degree 1 in it
    ball = surfaces.sphere()
    one = hyp.metric_upper_bound(ball, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    tiny = hyp.metric_upper_bound(ball, np.zeros(3), np.array([1e-300, 0.0, 0.0]))
    assert tiny.containment_checked and tiny.bound == pytest.approx(1e-300 * one.bound, rel=1e-12)
    v = np.array([0.4, -1.0, 0.2])
    p = np.array([0.2, 0.1, -0.3])
    scaled = hyp.metric_upper_bound(ball, p, 2.0 ** -1000 * v)
    assert scaled.bound == 2.0 ** -1000 * hyp.metric_upper_bound(ball, p, v).bound


def test_outside_domain_error_carries_its_point():
    pts = np.array([[0.1, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(hyp.OutsideDomainError) as info:
        hyp.metric_upper_bound(surfaces.sphere(), pts, np.ones((2, 3)))
    assert info.value.pair == 1 and np.array_equal(info.value.point, pts[1])


def test_metric_search_rounds_stay_few(monkeypatch):
    # the orientation search runs each grid's planes in lockstep, one radius
    # solve per round of all their pattern searches, so a pair takes about 90
    # radius solves; a sequential angle refinement took 442
    calls = []
    solve = hyp._disc_radii

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(hyp, "_disc_radii", counted)
    ball = surfaces.sphere()
    rng = np.random.default_rng(2024)  # the draws of acceptance criterion 7
    for _ in range(3):
        direction = rng.standard_normal(3)
        radius = 0.9 * rng.uniform() ** (1.0 / 3.0)
        point = rng.standard_normal(3)
        point *= radius / np.linalg.norm(point)
        calls.clear()
        est = hyp.metric_upper_bound(ball, point, direction)
        assert est.containment_checked and 0 < len(calls) <= 150


def test_metric_stack_phi_points_stay_few():
    # candidate discs that cannot win are dropped after one probe circle, not
    # three radius grids: the six pairs below took 33,412,019 phi points when
    # each such disc ran its grids until its bracket top fell
    ball = surfaces.sphere()
    points = []

    def phi(x):
        points.append(np.shape(x)[0] if np.ndim(x) > 1 else 1)
        return ball.phi(x)

    counted = surfaces.ImplicitDomain("counted-ball", 3, phi, ball.grad, ball.hess,
                                      hess_floor=ball.hess_floor)
    rng = np.random.default_rng(2024)  # the draws of acceptance criterion 7
    p, v = np.zeros((6, 3)), np.zeros((6, 3))
    for k in range(6):
        v[k] = rng.standard_normal(3)
        radius = 0.9 * rng.uniform() ** (1.0 / 3.0)
        p[k] = rng.standard_normal(3)
        p[k] *= radius / np.linalg.norm(p[k])
    assert all(est.containment_checked for est in hyp.metric_upper_bound(counted, p, v))
    assert sum(points) <= 0.55 * 33_412_019


def acceptance_pairs(count):
    """The first ``count`` pairs of acceptance criterion 7's draws."""
    rng = np.random.default_rng(2024)
    p, v = np.zeros((count, 3)), np.zeros((count, 3))
    for k in range(count):
        v[k] = rng.standard_normal(3)
        radius = 0.9 * rng.uniform() ** (1.0 / 3.0)
        p[k] = rng.standard_normal(3)
        p[k] *= radius / np.linalg.norm(p[k])
    return p, v


def test_metric_stack_runs_in_one_lockstep(monkeypatch):
    # every pair of a stack searches in lockstep, so a round of all their
    # searches is one radius solve: ten pairs took 196 solves when they were
    # searched in groups of eight, each pair at its own pace
    calls = []
    solve = hyp._disc_radii

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(hyp, "_disc_radii", counted)
    stack = hyp.metric_upper_bound(surfaces.sphere(), *acceptance_pairs(10))
    assert all(est.containment_checked for est in stack)
    assert len(calls) <= 150


def test_threshold_probes_do_not_repeat(monkeypatch):
    # on the ball the Hessian floor is 0, so a row's probe radius is the
    # same before each grid; a row whose probe circle came back inside was
    # probed again at that radius (4,299 of 23,821 probes of a seed-0 bench
    # pass)
    seen, repeats = set(), []
    solve, leave = hyp._disc_radii, hyp._circles_leave

    def solving(*args, **kwargs):
        seen.clear()
        return solve(*args, **kwargs)

    def probing(domain, centers, rings, plane, radii):
        for key in zip(map(bytes, centers), plane.tolist(), radii.tolist()):
            repeats.append(key in seen)
            seen.add(key)
        return leave(domain, centers, rings, plane, radii)

    monkeypatch.setattr(hyp, "_disc_radii", solving)
    monkeypatch.setattr(hyp, "_circles_leave", probing)
    hyp.metric_upper_bound(surfaces.sphere(), *acceptance_pairs(3))
    assert len(repeats) > 1000 and not any(repeats)


def test_metric_monotone_under_inclusion():
    small = surfaces.cylinder(1.0)
    large = surfaces.cylinder(1.5)
    rng = np.random.default_rng(1)
    for _ in range(3):
        p = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)])
        v = rng.standard_normal(3)
        b_small = hyp.metric_upper_bound(small, p, v).bound
        b_large = hyp.metric_upper_bound(large, p, v).bound
        assert b_small >= b_large - 1e-9


def test_metric_point_outside_rejected():
    ball = surfaces.sphere()
    with pytest.raises(hyp.OutsideDomainError):
        hyp.metric_upper_bound(ball, np.array([2.0, 0.0, 0.0]), np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        hyp.metric_upper_bound(ball, np.zeros(3), np.zeros(3))


def nan_ball():
    """The unit ball with phi NaN wherever x0 > 0.5."""
    ball = surfaces.sphere()

    def phi(x):
        return np.where(np.asarray(x)[..., 0] > 0.5, np.nan, ball.phi(x))

    return surfaces.ImplicitDomain("nan-ball", 3, phi, ball.grad, ball.hess)


def test_disc_radii_count_nan_as_outside():
    # a circle with one NaN sample leaves the domain, however far inside
    # its other samples are; so does a centre where phi is NaN
    ring = hyp.plane_ring(0.0, np.eye(3)[:2], 1.0, 64)
    radius, top = hyp._disc_radii(nan_ball(), np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0]]), ring)
    assert 0.49 < radius[0] <= 0.5 < top[0] < 0.51
    assert radius[1] == 0.0 and np.isnan(top[1])


def test_metric_nan_base_point_rejected():
    v = np.array([1.0, 0.0, 0.0])
    for domain, p in ((surfaces.sphere(), [np.nan, 0.0, 0.0]), (nan_ball(), [0.7, 0.0, 0.0])):
        with pytest.raises(hyp.OutsideDomainError):
            hyp.metric_upper_bound(domain, np.array(p), v)


def test_metric_rejects_points_outside_r3():
    calls = []
    ball = surfaces.sphere()
    ball._phi = lambda x: calls.append(x) or np.zeros(np.shape(x)[:-1])
    with pytest.raises(ValueError, match=r"R\^3, got shape \(4,\)"):
        hyp.metric_upper_bound(ball, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match=r"R\^3, got shape \(5, 2\)"):
        hyp.metric_upper_bound(ball, np.zeros((5, 2)), np.ones((5, 2)))
    assert calls == []  # rejected before any search starts


def test_omega_membership_examples():
    dom = hyp.planar_disc(radius=2.0)
    assert hyp.omega_d_membership(dom, np.array([0.0, 0.0, 0.0]))
    assert not hyp.omega_d_membership(dom, np.array([10.0, 0.0, 0.5]))
    assert hyp.omega_d_membership(dom, np.array([10.0, 0.0, 0.05]))
    # the slice clause bites only at z = 0
    assert not hyp.omega_d_membership(dom, np.array([3.0, 0.0, 0.0]))
    assert hyp.omega_d_membership(dom, np.array([3.0, 0.0, 0.1]))


def test_chain_coincident_points():
    dom = hyp.punctured_plane()
    cb = hyp.omega_d_distance_chain(dom, np.zeros(3), np.zeros(3), 100)
    assert cb.total == 0.0


def test_chain_monotone_and_vanishing():
    dom = hyp.punctured_plane()
    p = np.array([0.0, 0.0, 0.0])
    q = np.array([1.0, 0.0, 0.0])
    prev = np.inf
    totals = []
    for k in (10, 100, 1000, 10000):
        cb = hyp.omega_d_distance_chain(dom, p, q, k)
        assert cb.total <= prev + 1e-12
        prev = cb.total
        totals.append(cb.total)
    assert totals[2] < 0.05  # documented milestone at k = 1000
    assert totals[3] < 0.01


def test_chain_horizontal_term_scale():
    # the horizontal hop is about |p - q| / k for large k
    dom = hyp.full_plane()
    cb = hyp.omega_d_distance_chain(
        dom, np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 10000
    )
    assert cb.horizontal == pytest.approx(1e-4, rel=1e-6)


def test_chain_rejects_bad_endpoints():
    dom = hyp.punctured_plane()
    with pytest.raises(ValueError):
        hyp.omega_d_distance_chain(
            dom, np.array([0.0, 0.0, 0.5]), np.zeros(3), 10
        )
    with pytest.raises(ValueError):
        hyp.omega_d_distance_chain(
            dom, np.zeros(3), np.array([1.0, 0.0, 0.0]), 1
        )


def test_chain_thin_slice_error():
    # a slice so thin that no admissible vertical disc exists across it
    thin = hyp.OmegaD(membership=lambda x, y: abs(y) < 1e-8, name="thin-strip")
    with pytest.raises(hyp.ChainError):
        hyp.omega_d_distance_chain(
            thin,
            np.zeros(3),
            np.array([1.0, 0.0, 0.0]),
            100,
            chord_direction=(0.0, 1.0),
        )


def test_chain_adaptive_radius_shrinks():
    # an open hole near the chord forces a smaller vertical disc at p
    hole = hyp.OmegaD(
        membership=lambda x, y: (x + 0.5) ** 2 + y * y > 0.04,
        name="holed-plane",
    )
    cb = hyp.omega_d_distance_chain(
        hole, np.zeros(3), np.array([1.0, 0.0, 0.0]), 100
    )
    assert cb.radius_p < 0.9  # shrunk to clear the hole on the negative side
    # the q side shrinks only for the hyperboloid clause, so it stays larger
    assert cb.radius_p < cb.radius_q
    assert np.isfinite(cb.total)


def test_convex_classifier_fixtures():
    slab = hyp.HalfspaceIntersection(
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        np.array([1.0, 1.0]),
        np.zeros(3),
    )
    contains, rank, witness = hyp.convex_contains_2plane(slab)
    assert contains and rank == 1
    angles = 2.0 * np.pi * np.arange(32) / 32
    ring = (
        witness.base[None, :]
        + 1e6 * np.cos(angles)[:, None] * witness.span[0][None, :]
        + 1e6 * np.sin(angles)[:, None] * witness.span[1][None, :]
    )
    assert all(slab.contains(row) for row in ring)

    wedge = hyp.HalfspaceIntersection(
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.zeros(2),
        np.array([0.0, -1.0, -1.0]),
    )
    contains, rank, witness = hyp.convex_contains_2plane(wedge)
    assert not contains and rank == 2 and witness is None

    free = hyp.HalfspaceIntersection(np.zeros((0, 3)), np.zeros(0), np.zeros(3))
    contains, rank, _ = hyp.convex_contains_2plane(free)
    assert contains and rank == 0


def test_classifier_agrees_with_randomized_escape():
    rng = np.random.default_rng(7)
    fixtures = [
        hyp.HalfspaceIntersection(
            np.array([[0.0, 0.0, 1.0]]), np.array([1.0]), np.zeros(3)
        ),
        hyp.HalfspaceIntersection(
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.array([1.0, 1.0, 1.0]),
            np.zeros(3),
        ),
    ]
    for h in fixtures:
        contains, rank, witness = hyp.convex_contains_2plane(h)
        hits, _ = hyp.plane_escape_trials(h, 300, rng)
        if contains:
            assert witness is not None
        else:
            assert hits == 0


def test_interior_point_validated():
    with pytest.raises(ValueError):
        hyp.HalfspaceIntersection(
            np.array([[0.0, 0.0, 1.0]]), np.array([-1.0]), np.zeros(3)
        )


@pytest.mark.parametrize("normals, constants, interior", [
    ([[0.0, 0.0, 1.0]], [1.0, 5.0], [0.0, 0.0, 0.0]),  # k = 1 normals, 2 constants
    ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], [1.0], [0.0, 0.0, 0.0]),
    ([[0.0, 0.0, 1.0]], [1.0], [0.0, 0.0]),  # n = 3 normals, 2-vector interior
    ([[0.0, 0.0, 1.0]], [[1.0]], [0.0, 0.0, 0.0]),
    ([[[0.0, 0.0, 1.0]]], [1.0], [0.0, 0.0, 0.0]),
], ids=["extra-constant", "missing-constant", "short-interior", "nested-constants",
        "nested-normals"])
def test_halfspace_shapes_validated(normals, constants, interior):
    # batched containment would otherwise broadcast mismatched shapes silently
    with pytest.raises(ValueError, match="k x n"):
        hyp.HalfspaceIntersection(normals, constants, interior)


def test_batched_containment_matches_points():
    wedge = hyp.HalfspaceIntersection([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0],
                                      [0.0, -1.0, -1.0])
    pts = np.random.default_rng(3).standard_normal((4, 5, 3))
    inside = wedge.contains(pts)
    assert inside.shape == (4, 5)
    assert inside.tolist() == [[wedge.contains(x) for x in row] for row in pts]
    assert type(wedge.contains(pts[0, 0])) is bool

    dom = hyp.punctured_plane()
    pts = np.array([[0.5, 5.0, 0.0], [0.5, 5.0, 0.1], [0.5, 4.0, 0.0], [9.0, 0.0, 0.2]])
    assert hyp.omega_d_membership(dom, pts).tolist() == [False, True, True, False]
    assert type(hyp.omega_d_membership(dom, pts[0])) is bool
    for make in hyp.SLICES.values():
        x, y = np.zeros((2, 3)), np.ones((1, 3))
        assert make().membership(x, y).shape == (2, 3)
