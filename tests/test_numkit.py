import numpy as np
import pytest

from mconvex import numkit


def charpoly_roots_by_bisection(a, tol=1e-12):
    """Independent eigenvalue oracle: sign changes of det(A - t*I)."""
    a = np.asarray(a, dtype=float)
    bound = float(np.abs(a).sum())  # Gershgorin-style radius
    grid = np.linspace(-bound - 1.0, bound + 1.0, 4001)
    vals = np.array([np.linalg.det(a - t * np.eye(a.shape[0])) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0.0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = np.linalg.det(a - mid * np.eye(a.shape[0]))
                if fm == 0.0 or hi - lo < tol:
                    break
                if flo * fm < 0.0:
                    hi, fhi = mid, fm
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots))


def test_identity_eigenvalues():
    eig = numkit.sym_eigen(np.eye(3))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0])


def test_diagonal_sorted():
    eig = numkit.sym_eigen(np.diag([5.0, -1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [-1.0, 2.0, 5.0])


def test_random_symmetric_matches_charpoly_bisection():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    a = 0.5 * (a + a.T)
    eig = numkit.sym_eigen(a)
    oracle = charpoly_roots_by_bisection(a)
    assert oracle.size == 4
    assert np.max(np.abs(eig.eigenvalues - oracle)) < 1e-8


def test_reconstruction_and_orthogonality():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        for _ in range(5):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            eig = numkit.sym_eigen(a)
            norm = np.linalg.norm(a)
            assert np.linalg.norm(eig.reconstruct() - a) <= 1e-9 * (1.0 + norm)
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) < 1e-10
            resid = a @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues
            assert np.linalg.norm(resid) <= 1e-9 * (1.0 + norm)


def test_eigen_deterministic_with_repeated_eigenvalues():
    a = np.diag([2.0, 2.0, 1.0])
    first = numkit.sym_eigen(a)
    second = numkit.sym_eigen(a.copy())
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    # canonical sign: first sizable component of each eigenvector positive
    for j in range(3):
        col = first.eigenvectors[:, j]
        lead = col[np.argmax(np.abs(col) > 1e-12)]
        assert lead > 0


def test_asymmetric_rejected_with_magnitude():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(numkit.AsymmetricMatrixError) as err:
        numkit.sym_eigen(a)
    assert err.value.asymmetry > 0.1


def test_dimension_cap():
    with pytest.raises(ValueError):
        numkit.sym_eigen(np.eye(9))


def test_gradient_linear_field():
    g = numkit.gradient_fd(lambda x: x[0], np.array([0.3, 0.7]), step=1e-4)
    assert np.max(np.abs(g - [1.0, 0.0])) < 1e-8


def test_gradient_quadratic_field():
    g = numkit.gradient_fd(lambda x: float(x @ x), np.array([1.0, 2.0, 3.0]), step=1e-4)
    assert np.max(np.abs(g - [2.0, 4.0, 6.0])) < 1e-6


def test_gradient_sphere_distance():
    g = numkit.gradient_fd(
        lambda x: np.linalg.norm(x) - 1.0, np.array([0.5, 0.0, 0.0])
    )
    assert np.max(np.abs(g - [1.0, 0.0, 0.0])) < 1e-6


def test_hessian_bilinear():
    h = numkit.hessian_fd(lambda x: x[0] * x[1], np.array([0.4, -0.2]), step=1e-4)
    assert np.max(np.abs(h - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-6


def test_hessian_quadratic_identity():
    h = numkit.hessian_fd(lambda x: 0.5 * float(x @ x), np.array([0.1, 0.2, 0.3]))
    assert np.max(np.abs(h - np.eye(3))) < 1e-6


def test_hessian_radial_distance_eigenvalues():
    h = numkit.hessian_fd(
        lambda x: np.linalg.norm(x) - 1.0, np.array([0.5, 0.0, 0.0]), step=1e-4
    )
    eig = numkit.sym_eigen(h)
    assert np.max(np.abs(eig.eigenvalues - [0.0, 2.0, 2.0])) < 1e-4


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((3, 3))

    def f(x):
        return float(np.sin(x[0]) * x[1] + x.T @ coeffs @ x + np.exp(0.3 * x[2]))

    h = numkit.hessian_fd(f, rng.standard_normal(3))
    assert np.array_equal(h, h.T)


def test_richardson_consistency_halving_step():
    fields = [
        (lambda x: float(np.sin(x[0]) + np.cos(2.0 * x[1])), np.array([0.4, -0.3])),
        (lambda x: float(np.exp(x[0] * x[1])), np.array([0.5, 0.2])),
    ]
    grads = [
        np.array([np.cos(0.4), -2.0 * np.sin(-0.6)]),
        np.exp(0.1) * np.array([0.2, 0.5]),
    ]
    for (f, x), exact in zip(fields, grads):
        err_h = np.linalg.norm(numkit.gradient_fd(f, x, step=1e-2) - exact)
        err_h2 = np.linalg.norm(numkit.gradient_fd(f, x, step=5e-3) - exact)
        assert err_h >= 3.0 * err_h2


def test_field_failure_carries_point():
    def f(x):
        if x[0] > 1.0:
            raise RuntimeError("outside chart")
        return float(x[0])

    with pytest.raises(numkit.FieldEvaluationError) as err:
        numkit.gradient_fd(f, np.array([1.0, 0.0]), step=1e-3)
    assert err.value.point[0] > 1.0


def test_batched_hessian_matches_scalar():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((3, 3))
    q = 0.5 * (q + q.T)

    def batch(pts):
        pts = np.atleast_2d(pts)
        return np.einsum("bi,ij,bj->b", pts, q, pts) + np.sin(pts[:, 0])

    def scalar(x):
        # same evaluation path, so stencil values agree bit for bit
        return float(batch(x[None, :])[0])

    pts = rng.standard_normal((4, 3))
    hb = numkit.hessian_fd_batch(batch, pts, step=1e-4)
    for i, row in enumerate(pts):
        hs = numkit.hessian_fd(scalar, row, step=1e-4)
        assert np.max(np.abs(hb[i] - hs)) < 1e-12


def test_richardson_batch_beats_plain_on_smooth_field():
    def batch(pts):
        pts = np.atleast_2d(pts)
        return np.sin(pts[:, 0]) * np.exp(pts[:, 1])

    x = np.array([[0.3, 0.4]])
    exact = np.array(
        [
            [-np.sin(0.3) * np.exp(0.4), np.cos(0.3) * np.exp(0.4)],
            [np.cos(0.3) * np.exp(0.4), np.sin(0.3) * np.exp(0.4)],
        ]
    )
    plain = numkit.hessian_fd_batch(batch, x, step=1e-2)[0]
    rich = numkit.hessian_fd_richardson_batch(batch, x, step=1e-2)[0]
    assert np.max(np.abs(rich - exact)) < 0.1 * np.max(np.abs(plain - exact))


@pytest.mark.parametrize("n", [2, 3])
def test_axis_sum_rounds_as_axis_reductions(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal((3000, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (3000, n))
    v[:4, 0] = [np.inf, -np.inf, np.nan, np.inf]
    v[1, -1] = np.inf
    with np.errstate(invalid="ignore"):  # inf - inf
        for x in (v, v.reshape(10, 300, n), v[0]):
            norms = np.sqrt(numkit.axis_sum(x * x))
            assert np.array_equal(norms, np.linalg.norm(x, axis=-1), equal_nan=True)
            assert np.array_equal(numkit.axis_sum(x * x), np.sum(x * x, axis=-1), equal_nan=True)
            assert np.array_equal(numkit.axis_sum(x), np.sum(x, axis=-1), equal_nan=True)
        assert np.isnan(numkit.axis_sum(v[:4])).tolist() == [False, True, True, False]
