import numpy as np
import pytest

from mconvex import discs, surfaces


def test_ball_curvatures_positive():
    ball = surfaces.sphere()
    sp = surfaces.principal_curvatures(ball, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(sp.curvatures, [1.0, 1.0], atol=1e-9)
    assert np.allclose(sp.inner_normal, [-1.0, 0.0, 0.0])
    # inner-side convention: every sampled ball boundary point is positively curved
    for p in ball.boundary_samples(50):
        sp = surfaces.principal_curvatures(ball, p)
        assert np.all(sp.curvatures > 0.9)


def test_halfspace_flat():
    plane = surfaces.halfspace()
    sp = surfaces.principal_curvatures(plane, np.array([0.3, -2.0, 0.0]))
    assert np.allclose(sp.curvatures, [0.0, 0.0], atol=1e-12)


def test_catenoid_neck():
    cat = surfaces.catenoid()
    sp = surfaces.principal_curvatures(cat, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(sp.curvatures, [-1.0, 1.0], atol=1e-9)
    assert abs(sp.curvatures.sum()) < 1e-9


def form_curvatures(fu, fv, fuu, fuv, fvv, inner_sign=1.0):
    """Ascending principal curvatures from the first and second fundamental forms.

    The normal is ``inner_sign * (fu x fv) / |fu x fv|``; this is the
    independent oracle for the shape-operator curvatures.
    """
    fu = np.asarray(fu, dtype=float)
    fv = np.asarray(fv, dtype=float)
    normal = np.cross(fu, fv)
    normal = inner_sign * normal / np.linalg.norm(normal)
    first = np.array([[fu @ fu, fu @ fv], [fu @ fv, fv @ fv]])
    second = np.array(
        [[normal @ fuu, normal @ fuv], [normal @ fuv, normal @ fvv]], dtype=float
    )
    # eigenvalues of I^-1 II are real
    return np.sort(np.linalg.eigvals(np.linalg.solve(first, second)).real)


def map_curvatures(cm, z, inner_sign=1.0):
    """Fundamental-form curvatures of a conformal chart at parameter z."""
    return form_curvatures(*cm.jet1(z), *cm.jet2(z), inner_sign=inner_sign)


def sphere_chart(u, v, r=1.0):
    """(r cos u cos v, r sin u cos v, r sin v) and its jets; the inner side is -(fu x fv)."""
    point = r * np.array([np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v)])
    jets = (
        r * np.array([-np.sin(u) * np.cos(v), np.cos(u) * np.cos(v), 0.0]),
        r * np.array([-np.cos(u) * np.sin(v), -np.sin(u) * np.sin(v), np.cos(v)]),
        r * np.array([-np.cos(u) * np.cos(v), -np.sin(u) * np.cos(v), 0.0]),
        r * np.array([np.sin(u) * np.sin(v), -np.cos(u) * np.sin(v), 0.0]),
        r * np.array([-np.cos(u) * np.cos(v), -np.sin(u) * np.cos(v), -np.sin(v)]),
    )
    return point, jets


def scherk_chart(u, v):
    """Scherk's surface as the graph x3 = log(cos v / cos u), and its jets."""
    point = np.array([u, v, np.log(np.cos(v) / np.cos(u))])
    jets = (
        np.array([1.0, 0.0, np.tan(u)]),
        np.array([0.0, 1.0, -np.tan(v)]),
        np.array([0.0, 0.0, 1.0 / np.cos(u) ** 2]),
        np.zeros(3),
        np.array([0.0, 0.0, -1.0 / np.cos(v) ** 2]),
    )
    return point, jets


def chart_grid(extent_u, extent_v, n=8, shrink=0.05):
    """n x n parameter lattice, each range pulled in by ``shrink`` of its width."""
    (u0, u1), (v0, v1) = extent_u, extent_v
    du, dv = shrink * (u1 - u0), shrink * (v1 - v0)
    u, v = np.meshgrid(
        np.linspace(u0 + du, u1 - du, n), np.linspace(v0 + dv, v1 - dv, n), indexing="ij"
    )
    return np.stack([u.ravel(), v.ravel()], axis=-1)


def test_catenoid_parametric_oracle_agreement():
    cat = surfaces.catenoid()
    chart = discs.catenoid_map()
    for u, v in [(0.0, 0.0), (0.5, 0.3), (2.0, -0.7), (4.0, 1.0)]:
        # the chart's real part is the height, so (u, v) enters as v + iu
        kappa = map_curvatures(chart, v + 1j * u)
        p = np.array([np.cosh(v) * np.cos(u), np.cosh(v) * np.sin(u), v])
        sp = surfaces.principal_curvatures(cat, p)
        assert np.max(np.abs(kappa - sp.curvatures)) < 1e-5


def test_sphere_parametric_oracle_agreement():
    ball = surfaces.sphere()
    for u, v in [(0.0, 0.0), (1.0, 0.4), (2.5, -0.9)]:
        p, jets = sphere_chart(u, v)
        kappa = form_curvatures(*jets, inner_sign=-1.0)
        sp = surfaces.principal_curvatures(ball, p)
        assert np.max(np.abs(kappa - sp.curvatures)) < 1e-5


def test_scherk_parametric_oracle_agreement():
    dom = surfaces.scherk()
    for u, v in [(0.0, 0.0), (0.6, 0.2), (-0.8, 0.9)]:
        p, jets = scherk_chart(u, v)
        kappa = form_curvatures(*jets)
        sp = surfaces.principal_curvatures(dom, p)
        # orientation-free comparison: minimal surfaces have symmetric spectra
        assert np.max(np.abs(np.abs(kappa) - np.abs(sp.curvatures))) < 1e-5


def test_minimal_catalog_mean_curvature_vanishes():
    scherk = 0.45 * np.pi
    charts = [
        ("catenoid", lambda u, v: map_curvatures(discs.catenoid_map(), v + 1j * u),
         (0.0, 2.0 * np.pi), (-1.2, 1.2)),
        ("helicoid", lambda u, v: map_curvatures(discs.helicoid_map(), u + 1j * v),
         (-1.2, 1.2), (-1.2, 1.2)),
        ("enneper", lambda u, v: map_curvatures(discs.enneper_map(), u + 1j * v),
         (-0.8, 0.8), (-0.8, 0.8)),
        ("scherk", lambda u, v: form_curvatures(*scherk_chart(u, v)[1]),
         (-scherk, scherk), (-scherk, scherk)),
    ]
    for name, curvatures, extent_u, extent_v in charts:
        for u, v in chart_grid(extent_u, extent_v):
            kappa = curvatures(u, v)
            assert abs(kappa.sum()) <= 1e-6, name


def test_principal_directions_tangent():
    for dom in (surfaces.sphere(), surfaces.catenoid(), surfaces.cylinder()):
        for p in dom.boundary_samples(32):
            sp = surfaces.principal_curvatures(dom, p)
            assert np.max(np.abs(sp.directions @ sp.inner_normal)) <= 1e-9
            assert np.all(np.diff(sp.curvatures) >= -1e-12)


def test_off_boundary_rejected():
    ball = surfaces.sphere()
    with pytest.raises(surfaces.NotOnBoundaryError) as err:
        surfaces.principal_curvatures(ball, np.array([0.5, 0.0, 0.0]))
    assert err.value.residual == pytest.approx(0.5)


def test_m_convexity_defect_examples():
    ball = surfaces.sphere()
    sp = surfaces.principal_curvatures(ball, np.array([1.0, 0.0, 0.0]))
    assert surfaces.m_convexity_defect(sp, 2) == pytest.approx(2.0)
    cat = surfaces.catenoid()
    neck = surfaces.principal_curvatures(cat, np.array([1.0, 0.0, 0.0]))
    assert surfaces.m_convexity_defect(neck, 2) == pytest.approx(0.0, abs=1e-9)
    plane = surfaces.halfspace()
    flat = surfaces.principal_curvatures(plane, np.zeros(3))
    for m in (1, 2):
        assert surfaces.m_convexity_defect(flat, m) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        surfaces.m_convexity_defect(flat, 3)


def test_is_m_flat_examples():
    plane = surfaces.halfspace()
    sp = surfaces.principal_curvatures(plane, np.zeros(3))
    assert surfaces.is_m_flat(sp, 2, 1e-8)
    cat = surfaces.catenoid()
    neck = surfaces.principal_curvatures(cat, np.array([1.0, 0.0, 0.0]))
    assert not surfaces.is_m_flat(neck, 2, 1e-8)
    cyl = surfaces.cylinder()
    side = surfaces.principal_curvatures(cyl, np.array([1.0, 0.0, 0.5]))
    assert np.allclose(side.curvatures, [0.0, 1.0], atol=1e-9)
    assert surfaces.is_m_flat(side, 1, 1e-8)
    assert not surfaces.is_m_flat(side, 2, 1e-8)


def test_flatness_report_catenoid_never_flat():
    cat = surfaces.catenoid()
    rep = surfaces.m_flatness_report(cat, cat.boundary_samples(100), 2)
    assert rep.flat_count == 0
    assert rep.note == "sampled evidence only"


def test_flatness_report_slab_flat_everywhere():
    slab = surfaces.slab()
    rep = surfaces.m_flatness_report(slab, slab.boundary_samples(100), 2, r0=1.0)
    assert rep.flat_count == rep.total
    assert rep.outside_fraction > 0.0  # flat samples persist beyond the radius


def test_flatness_report_sphere_none():
    ball = surfaces.sphere()
    rep = surfaces.m_flatness_report(ball, ball.boundary_samples(64), 2)
    assert rep.flat_count == 0


def test_flatness_report_empty_rejected():
    with pytest.raises(ValueError):
        surfaces.m_flatness_report(surfaces.sphere(), np.zeros((0, 3)), 2)


def test_domain_catalog_names():
    for name in surfaces.DOMAIN_BUILDERS:
        dom = surfaces.make_domain(name)
        samples = dom.boundary_samples(16)
        assert np.max(np.abs(dom.phi(samples))) < 1e-8
    with pytest.raises(ValueError):
        surfaces.make_domain("torus")


def test_degenerate_gradient_rejected_at_construction():
    # phi = x3^2 vanishes to second order on its zero set
    def phi(x):
        return np.asarray(x, dtype=float)[..., 2] ** 2

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 2] = 2.0 * x[..., 2]
        return g

    def boundary(count):
        pts = np.zeros((count, 3))
        pts[:, 0] = np.linspace(-1.0, 1.0, count)
        return pts

    with pytest.raises(surfaces.SingularPointError):
        surfaces.ImplicitDomain(
            "degenerate", 3, phi, grad, lambda x: np.zeros(np.shape(x) + (3,)),
            boundary_sampler=boundary,
        )


def test_fd_fallback_domain():
    # defining field without analytic derivatives: differenced curvatures
    def phi(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.linalg.norm(x, axis=-1) - 1.0
        return out[0] if np.asarray(x).ndim == 1 else out

    def boundary(count):
        return surfaces.sphere().boundary_samples(count)

    dom = surfaces.ImplicitDomain(
        "fd-sphere", 3, lambda x: np.linalg.norm(np.asarray(x), axis=-1) - 1.0,
        boundary_sampler=boundary,
    )
    assert dom.fd_fallback
    sp = surfaces.principal_curvatures(dom, np.array([0.0, 1.0, 0.0]))
    assert np.max(np.abs(sp.curvatures - [1.0, 1.0])) < 1e-5
