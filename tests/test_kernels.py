"""The batched kernels against the per-point code they replaced.

The reference functions below are the earlier per-point implementations,
kept verbatim as oracles: a cyclic Jacobi eigensolver, the shape-operator
loop of ``principal_curvatures``, and the scalar barrier jets. Every kernel
row must match its reference within 1e-12 * (1 + |reference|).
"""

import math

import numpy as np
import pytest

from mconvex import barrier, mpsh, numkit, surfaces, tubular


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
    res = tubular.signed_distance(bf.domain, x, bf.settings)
    if res.distance <= -bf.collar.eps2:
        return np.zeros(bf.domain.dim)
    grad_d = ref_grad_delta(bf, x, res)
    c1, h1, _ = ref_coefficients(bf, res.distance)
    return bf.scale * c1 * h1 * grad_d


def ref_hessian(bf, x):
    res = tubular.signed_distance(bf.domain, x, bf.settings)
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
    res = tubular.signed_distance(bf.domain, x, bf.settings)
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
