import numpy as np
import pytest

from mconvex import mpsh, numkit


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_trace_identity_any_plane():
    rng = np.random.default_rng(0)
    for _ in range(10):
        plane = mpsh.random_mplane(rng, 3, 2)
        assert mpsh.trace_on_plane(np.eye(3), plane) == pytest.approx(2.0, abs=1e-12)


def test_trace_coordinate_plane():
    h = np.diag([-1.0, 2.0, 5.0])
    plane = mpsh.MPlane(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert mpsh.trace_on_plane(h, plane) == pytest.approx(1.0)


def test_trace_matches_reorthonormalized_sum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_symmetric(rng, 4)
        plane = mpsh.random_mplane(rng, 4, 2)
        # direct summation over an independently re-orthonormalized basis
        q, _ = np.linalg.qr(plane.basis.T)
        direct = sum(float(q[:, j] @ h @ q[:, j]) for j in range(2))
        assert abs(mpsh.trace_on_plane(h, plane) - direct) < 1e-12


def test_trace_basis_invariance():
    rng = np.random.default_rng(2)
    h = random_symmetric(rng, 5)
    plane = mpsh.random_mplane(rng, 5, 3)
    base = mpsh.trace_on_plane(h, plane)
    for _ in range(10):
        # random rotation within the plane
        g = rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        rotated = mpsh.MPlane(q.T @ plane.basis)
        assert abs(mpsh.trace_on_plane(h, rotated) - base) < 1e-12


def test_non_orthonormal_rejected():
    with pytest.raises(ValueError):
        mpsh.MPlane(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))


def test_min_m_trace_examples():
    h = np.diag([-1.0, 2.0, 5.0])
    assert mpsh.min_m_trace(h, 2) == pytest.approx(1.0)
    assert mpsh.min_m_trace(np.zeros((3, 3)), 1) == 0.0
    assert mpsh.min_m_trace(np.zeros((3, 3)), 3) == 0.0
    with pytest.raises(ValueError):
        mpsh.min_m_trace(h, 4)


def test_min_m_trace_is_infimum_over_planes():
    # sampling oracle: uniform draws to localize the minimizing plane, then
    # annealed perturbations of the incumbent to close in on the infimum;
    # independent of the eigensolver throughout
    rng = np.random.default_rng(3)
    h = random_symmetric(rng, 4)
    floor = mpsh.min_m_trace(h, 2)
    best = np.inf
    best_basis = None
    for i in range(10000):
        if best_basis is None or i < 4000:
            plane = mpsh.random_mplane(rng, 4, 2)
        else:
            sigma = 0.3 * (1.0 - (i - 4000) / 6000.0) ** 2 + 1e-4
            frame = best_basis.T + sigma * rng.standard_normal((4, 2))
            q, r = np.linalg.qr(frame)
            plane = mpsh.MPlane(q.T[:2])
        val = mpsh.trace_on_plane(h, plane)
        assert val >= floor - 1e-9
        if val < best:
            best = val
            best_basis = plane.basis
    assert best - floor < 1e-3


def test_min_m_trace_monotonicity_and_sum_rule():
    rng = np.random.default_rng(4)
    for _ in range(10):
        h = random_symmetric(rng, 5)
        eig = numkit.sym_eigen(h)
        for m in range(1, 5):
            step = mpsh.min_m_trace(h, m + 1) - mpsh.min_m_trace(h, m)
            assert abs(step - eig.eigenvalues[m]) < 1e-12
        assert abs(mpsh.min_m_trace(h, 5) - np.trace(h)) < 1e-10


def test_is_m_psh_verdicts():
    convex = mpsh.ScalarField(
        lambda x: float(x @ x), hess=lambda x: 2.0 * np.eye(len(x))
    )
    v = mpsh.is_m_psh_at(convex, np.array([0.3, -0.2, 0.5]), 2)
    assert v.verdict == "strictly-psh"
    assert v.margin == pytest.approx(4.0)

    # harmonic in the plane: margin exactly zero in dimension two
    saddle2 = mpsh.ScalarField(
        lambda x: float(x[0] ** 2 - x[1] ** 2),
        hess=lambda x: np.diag([2.0, -2.0]),
    )
    v = mpsh.is_m_psh_at(saddle2, np.zeros(2), 2)
    assert v.verdict == "psh"
    assert v.margin == pytest.approx(0.0, abs=1e-15)

    # the same saddle extended to three dimensions fails: the plane spanned
    # by the concave direction and the flat one has negative trace
    saddle3 = mpsh.ScalarField(
        lambda x: float(x[0] ** 2 - x[1] ** 2),
        hess=lambda x: np.diag([2.0, -2.0, 0.0]),
    )
    v = mpsh.is_m_psh_at(saddle3, np.zeros(3), 2)
    assert v.verdict == "violated"
    assert v.margin == pytest.approx(-2.0)

    concave = mpsh.ScalarField(
        lambda x: -float(x @ x), hess=lambda x: -2.0 * np.eye(len(x))
    )
    v = mpsh.is_m_psh_at(concave, np.array([0.1, 0.1, 0.1]), 2)
    assert v.verdict == "violated"
    assert v.margin == pytest.approx(-4.0)


def test_worst_plane_achieves_margin():
    rng = np.random.default_rng(5)
    h = random_symmetric(rng, 4)
    field = mpsh.ScalarField(lambda x: 0.0, hess=lambda x: h)
    v = mpsh.is_m_psh_at(field, np.zeros(4), 2)
    assert mpsh.trace_on_plane(h, v.worst_plane) == pytest.approx(v.margin, abs=1e-10)


def test_fd_hessian_fallback():
    field = mpsh.ScalarField(lambda x: float(x @ x))
    v = mpsh.is_m_psh_at(field, np.array([0.2, 0.4, -0.1]), 2, tol=1e-5)
    assert v.verdict == "strictly-psh"
    assert v.margin == pytest.approx(4.0, abs=1e-5)


def test_grid_verdict_counts():
    rng = np.random.default_rng(6)
    pts = rng.uniform(-1.0, 1.0, size=(50, 3))
    convex = mpsh.ScalarField(lambda x: float(x @ x), hess=lambda x: 2.0 * np.eye(3))
    v = mpsh.grid_verdict(convex, pts, 2)
    assert v.strict_count == v.total and v.passed

    concave = mpsh.ScalarField(lambda x: -float(x @ x), hess=lambda x: -2.0 * np.eye(3))
    v = mpsh.grid_verdict(concave, pts, 2)
    assert v.violated_count == v.total and not v.passed
    assert v.worst_margin == pytest.approx(-4.0)


def test_grid_verdict_failure_names_sample():
    def bad_hess(x):
        raise RuntimeError("no hessian here")

    field = mpsh.ScalarField(lambda x: 0.0, hess=bad_hess)
    with pytest.raises(RuntimeError, match=r"verdict failed at sample"):
        mpsh.grid_verdict(field, np.array([[1.0, 2.0, 3.0]]), 2)


def test_grid_verdict_precomputed_hessians():
    pts = np.zeros((3, 3))
    hessians = np.stack([np.eye(3), 2 * np.eye(3), -np.eye(3)])
    v = mpsh.grid_verdict(None, pts, 2, hessians=hessians)
    assert v.violated_count == 1 and v.strict_count == 2


def test_m_out_of_range_rejected():
    # regressions: m = 0 summed nothing and passed every point of a concave
    # field; m > n indexed past the spectrum with a bare IndexError
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 1.0, size=(10, 3))
    concave = mpsh.ScalarField(lambda x: -float(x @ x), hess=lambda x: -2.0 * np.eye(3))
    for m in (0, 4):
        with pytest.raises(ValueError, match=r"m must be in \[1, 3\]"):
            mpsh.grid_verdict(concave, pts, m)
        with pytest.raises(ValueError, match=r"m must be in \[1, 3\]"):
            mpsh.is_m_psh_at(concave, pts[0], m)
