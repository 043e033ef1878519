import numpy as np
import pytest

from mconvex import barrier, discs, mpsh, surfaces


def quadratic_field():
    return mpsh.ScalarField(
        lambda x: float(x @ x),
        hess=lambda x: 2.0 * np.eye(3),
    )


def test_affine_disc_conformal_exactly():
    p = np.array([0.1, -0.2, 0.3])
    u = np.array([0.5, 0.0, 0.0])
    w = np.array([0.0, 0.5, 0.0])
    cm = discs.affine_disc(p, u, w)
    fx, fy = cm.jet1(0.3 + 0.2j)
    assert fx @ fy == 0.0 and fx @ fx - fy @ fy == 0.0
    assert np.array_equal(discs.harmonicity_residual(cm, 0.1j), np.zeros(3))


def test_nonconformal_map_residual():
    cm = discs.affine_disc(
        np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
    )
    for z in (0.0, 0.5 + 0.5j, -0.7j):
        fx, fy = cm.jet1(z)
        assert fx @ fy == 0.0
        assert fx @ fx - fy @ fy == pytest.approx(-3.0)


def test_closed_form_charts_conformal_harmonic():
    for cm in (discs.catenoid_map(), discs.helicoid_map(), discs.enneper_map()):
        for z in cm.grid(6, 12):
            fx, fy = cm.jet1(z)
            scale = max(1e-12, float(fx @ fx))
            assert abs(fx @ fy) <= 1e-6 * scale
            assert abs(fx @ fx - fy @ fy) <= 1e-6 * scale
            assert np.max(np.abs(discs.harmonicity_residual(cm, z))) <= 1e-8


def test_fd_jets_detect_nonharmonic():
    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.stack(
            [z.real**2, np.zeros_like(z.real), np.zeros_like(z.real)], axis=-1
        )

    cm = discs.ConformalMap("x-squared", f)
    resid = discs.harmonicity_residual(cm, 0.3 + 0.1j)
    assert np.max(np.abs(resid - [2.0, 0.0, 0.0])) < 1e-5


def test_weierstrass_catenoid_matches_closed_form():
    wm = discs.weierstrass_map(discs.weierstrass_catenoid(), center=1.0, radius=0.4)
    for z in (1.2 + 0.1j, 0.8 - 0.3j, 1.0 + 0.4j):
        u, v = np.log(abs(z)), np.angle(z)
        expect = np.array([-np.cosh(u) * np.cos(v), -np.cosh(u) * np.sin(v), u])
        assert np.max(np.abs(wm.f(z) - expect)) < 1e-10


def test_weierstrass_helicoid_matches_closed_form():
    wm = discs.weierstrass_map(discs.weierstrass_helicoid(), radius=0.6)
    for z in (0.3 + 0.2j, -0.4 + 0.5j):
        x, y = z.real, z.imag
        expect = np.array([np.sinh(x) * np.sin(y), -np.sinh(x) * np.cos(y), -y])
        assert np.max(np.abs(wm.f(z) - expect)) < 1e-12


def test_weierstrass_enneper_matches_chart_normalization():
    # the generating data g = z, dh = z dz integrates to half the classical chart
    wm = discs.weierstrass_map(discs.weierstrass_enneper(), radius=0.6)
    em = discs.enneper_map()
    for z in (0.3 + 0.2j, -0.1 - 0.5j):
        assert np.max(np.abs(2.0 * wm.f(z) - em.f(z))) < 1e-12


def test_weierstrass_residuals_random_samples():
    rng = np.random.default_rng(8)
    entries = [
        (discs.weierstrass_map(discs.weierstrass_catenoid(), center=1.0, radius=0.4), 1.0),
        (discs.weierstrass_map(discs.weierstrass_helicoid(), radius=0.6), 0.0),
        (discs.weierstrass_map(discs.weierstrass_enneper(), radius=0.6), 0.0),
    ]
    for cm, center in entries:
        for _ in range(1000):
            z = center + (rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4))
            if cm.near_branch(z):
                continue
            fx, fy = cm.jet1(z)
            scale = max(1e-12, float(fx @ fx))
            assert abs(fx @ fy) <= 1e-6 * scale and abs(fx @ fx - fy @ fy) <= 1e-6 * scale
            assert np.max(np.abs(discs.harmonicity_residual(cm, z))) <= 1e-6


def test_composition_laplacian_quadratic():
    field = quadratic_field()
    u = np.array([0.3, 0.0, 0.0])
    w = np.array([0.0, 0.3, 0.0])
    cm = discs.affine_disc(np.zeros(3), u, w)
    for z in (0.0, 0.2 + 0.1j):
        lap = discs.composition_laplacian(field, cm, z)
        fx, _ = cm.jet1(z)
        assert lap == pytest.approx(4.0 * float(fx @ fx))
    # conformal harmonic chart: same identity through the conformal factor
    cat = discs.catenoid_map(scale=0.4)
    z = 0.3 + 0.5j
    fx, _ = cat.jet1(z)
    lap = discs.composition_laplacian(field, cat, z)
    assert lap == pytest.approx(4.0 * float(fx @ fx), rel=1e-9)


def test_composition_laplacian_linear_field_zero():
    field = mpsh.ScalarField(
        lambda x: float(x[0] + 2.0 * x[1]),
        hess=lambda x: np.zeros((3, 3)),
    )
    cm = discs.catenoid_map(scale=0.5)
    assert discs.composition_laplacian(field, cm, 0.2 - 0.3j) == 0.0


def test_composition_rejects_nonharmonic():
    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.stack(
            [z.real**2, np.zeros_like(z.real), np.zeros_like(z.real)], axis=-1
        )

    cm = discs.ConformalMap("x-squared", f)
    with pytest.raises(discs.NonHarmonicMapError):
        discs.composition_laplacian(quadratic_field(), cm, 0.1 + 0.1j)


def test_composition_matches_fd_laplacian_of_pullback():
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0)
    cm = discs.affine_disc(
        np.array([0.5, 0.0, 0.0]), np.array([0.35, 0.0, 0.0]),
        np.array([0.0, 0.35, 0.0]),
    )
    for z in (0.1 + 0.2j, -0.4 + 0.3j, 0.6j):
        lap = discs.composition_laplacian(bf, cm, z)
        h = 1e-4

        def pull(zz):
            return bf.value(np.asarray(cm.f(zz), dtype=float))

        fd = (
            pull(z + h) + pull(z - h) + pull(z + 1j * h) + pull(z - 1j * h)
            - 4.0 * pull(z)
        ) / (h * h)
        assert abs(lap - fd) < 1e-5 * (1.0 + abs(lap))


def test_sweep_barrier_nonnegative_and_negative_control():
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0)
    cm = discs.affine_disc(
        np.zeros(3), np.array([0.9, 0.0, 0.0]), np.array([0.0, 0.9, 0.0]),
        name="equator",
    )
    rep = discs.subharmonicity_sweep(bf, cm)
    assert rep.violations == 0
    assert rep.min_laplacian >= -1e-8
    assert rep.rho_min >= bf.scale * bf.cap.plateau - 1e-12

    neg = mpsh.ScalarField(
        lambda x: -float(x @ x), hess=lambda x: -2.0 * np.eye(3)
    )
    rep = discs.subharmonicity_sweep(neg, cm)
    assert rep.violations > 0
    assert rep.min_laplacian < -1e-3


def test_sweep_slab_level_plane_equality_case():
    slab = surfaces.slab()
    bf = barrier.build_barrier(slab, m=2, eps=1.0)
    # a plane parallel to the flat boundary, inside the collar band
    cm = discs.affine_disc(
        np.array([0.0, 0.0, 0.92]), np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]), name="level-plane",
    )
    rep = discs.subharmonicity_sweep(bf, cm)
    assert rep.violations == 0
    assert rep.min_laplacian == pytest.approx(0.0, abs=1e-12)
    assert rep.rho_max - rep.rho_min < 1e-12  # the composition is constant


def test_sweep_containment_guard():
    ball = surfaces.sphere()
    bf = barrier.build_barrier(ball, m=2, eps=1.0)
    runaway = discs.affine_disc(
        np.zeros(3), np.array([1.5, 0.0, 0.0]), np.array([0.0, 1.5, 0.0])
    )
    with pytest.raises(ValueError, match="leaves the field's region"):
        discs.subharmonicity_sweep(
            bf, runaway, inside=lambda x: ball.phi(x) <= 1e-9
        )


def test_grid_avoids_branch_points():
    wm = discs.weierstrass_map(discs.weierstrass_enneper(), radius=0.5)
    zz = wm.grid()
    assert all(abs(z) > 5e-4 for z in zz)
