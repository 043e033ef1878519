import numpy as np
import pytest

from mconvex import hyperbolicity as hyp
from mconvex import surfaces


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
