"""Dense linear algebra and finite differences for small ambient dimensions.

All geometry in this package lives in R^n with 2 <= n <= 8, so the kernels
here are written for stacks of small dense symmetric matrices: a batched
LAPACK eigensolver with canonical eigenvector signs, and centered finite
differences used to cross-check analytic gradients and Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8

# Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-12

# Base scale for the default centered-difference step 1e-4 * (1 + |x|).
DEFAULT_FD_SCALE = 1e-4


class AsymmetricMatrixError(ValueError):
    """Input matrix is not symmetric within tolerance.

    ``index`` locates the offending matrix in a stack; it is None when a
    single matrix was given.
    """

    def __init__(self, asymmetry: float, tolerance: float, index=None):
        self.asymmetry = asymmetry
        self.tolerance = tolerance
        self.index = index
        where = "" if index is None else f" in matrix {list(index)} of the stack"
        super().__init__(
            f"matrix asymmetry {asymmetry:.3e} exceeds tolerance {tolerance:.3e}{where}"
        )


class NonFiniteMatrixError(ValueError):
    """Input matrix has non-finite entries; ``index`` as for asymmetry."""

    def __init__(self, index=None):
        self.index = index
        where = "" if index is None else f" in matrix {list(index)} of the stack"
        super().__init__(f"matrix has non-finite entries{where}")


class FieldEvaluationError(RuntimeError):
    """A scalar field could not be evaluated at a stencil point."""

    def __init__(self, point: np.ndarray, cause: BaseException):
        self.point = np.asarray(point, dtype=float)
        self.cause = cause
        super().__init__(f"field evaluation failed at {self.point.tolist()}: {cause}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Sorted spectra of one small symmetric matrix or a stack of them.

    ``eigenvalues`` has shape (..., n), ascending along the last axis;
    ``eigenvectors`` has shape (..., n, n), and column j of each matrix is
    the unit eigenvector for ``eigenvalues[..., j]``, signed so that its
    first component larger than 1e-12 in magnitude is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def canonical_sign(vectors: np.ndarray) -> np.ndarray:
    """Flip the columns of (..., n, k) so each first sizable entry is positive.

    A column's leading entry is its first component larger than 1e-12 in
    magnitude; the output has the input's shape.
    """
    big = np.abs(vectors) > 1e-12
    lead = big & (np.cumsum(big, axis=-2) == 1)
    flip = np.any(lead & (vectors < 0.0), axis=-2, keepdims=True)
    return np.where(flip, -vectors, vectors)


def first_index(mask: np.ndarray) -> tuple:
    """Index of the first True entry of a nonempty boolean array."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def require_finite(name: str, x: np.ndarray, error=ValueError) -> None:
    """Raise ``error`` (a ``ValueError`` by default) naming ``name`` and the
    first row of the (..., n) array ``x`` that holds a NaN or an infinity."""
    bad = ~np.isfinite(x)
    if bad.any():
        row = first_index(bad.any(axis=-1)) if x.ndim > 1 else ()
        at = f" row {list(row)}" if row else ""
        raise error(f"{name}{at} must be finite, got {x[row].tolist()}")


def sym_eigen(a: np.ndarray) -> EigenDecomposition:
    """Eigen-decompose a symmetric matrix, or a stack of them, in one call.

    ``a`` has shape (..., n, n) with n <= MAX_DIM; the result holds
    eigenvalues of shape (..., n) and eigenvectors of shape (..., n, n), see
    :class:`EigenDecomposition`. The symmetric part goes to LAPACK through
    ``np.linalg.eigh``, which returns ascending eigenvalues; eigenvector
    signs are then canonicalized. Deterministic for a fixed input, and each
    matrix of a stack decomposes exactly as it would alone.

    Raises :class:`AsymmetricMatrixError` when the asymmetry of a matrix
    exceeds ``SYMMETRY_RTOL * (1 + |a|)``, reporting the measured magnitude
    of the first such matrix and its index in the stack.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    stacked = a.ndim > 2
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1))
        raise NonFiniteMatrixError(first_index(~finite) if stacked else None)

    at = np.swapaxes(a, -1, -2)
    tol = SYMMETRY_RTOL * (1.0 + np.sqrt(np.sum(a * a, axis=(-2, -1))))
    asym = np.sqrt(np.sum((a - at) ** 2, axis=(-2, -1)))
    bad = asym > tol
    if np.any(bad):
        i = first_index(bad)
        raise AsymmetricMatrixError(float(asym[i]), float(tol[i]), i if stacked else None)

    values, vectors = np.linalg.eigh(0.5 * (a + at))
    return EigenDecomposition(eigenvalues=values, eigenvectors=canonical_sign(vectors))


def default_step(x: np.ndarray) -> float:
    """Centered-difference step balancing truncation against cancellation."""
    return DEFAULT_FD_SCALE * (1.0 + float(np.linalg.norm(x)))


def _eval(f, point: np.ndarray) -> float:
    try:
        return float(f(point))
    except Exception as exc:  # propagate with the offending stencil point
        raise FieldEvaluationError(point, exc) from exc


def gradient_fd(f, x: np.ndarray, step: float | None = None) -> np.ndarray:
    """Centered-difference gradient of a scalar field, O(step^2) accurate."""
    x = np.asarray(x, dtype=float)
    h = default_step(x) if step is None else float(step)
    if h <= 0.0:
        raise ValueError("step must be positive")
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (_eval(f, xp) - _eval(f, xm)) / (2.0 * h)
    return grad


def hessian_fd(f, x: np.ndarray, step: float | None = None) -> np.ndarray:
    """Centered second-difference Hessian of a scalar field at one point.

    The stencil of :func:`hessian_fd_batch`, with ``f`` called once per
    stencil point; the returned matrix satisfies ``H == H.T`` bit for bit.
    """
    x = np.asarray(x, dtype=float)
    h = default_step(x) if step is None else float(step)
    if h <= 0.0:
        raise ValueError("step must be positive")
    return hessian_fd_batch(_pointwise(f), x, h)[0]


def _pointwise(f):
    """Batch evaluator calling the scalar field ``f`` once per row."""
    return lambda grid: [_eval(f, p) for p in grid]


def hessian_stencil(n: int, step: float):
    """Offsets of the centered second-difference stencil, plus index helpers.

    Returns ``(offsets, diag_index, cross_index)`` where offsets has shape
    (1 + 2n + 2n(n-1), n): the center, the 2n axis points, then the four
    corners for every i < j pair in order (+-, +-).
    """
    rows = [np.zeros(n)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        rows.append(e)
        rows.append(-e)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            base = np.zeros(n)
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    off = base.copy()
                    off[i] = si * step
                    off[j] = sj * step
                    rows.append(off)
            pairs.append((i, j))
    return np.array(rows), pairs


def hessian_fd_batch(values_fn, points: np.ndarray, step: float) -> np.ndarray:
    """Centered-difference Hessians for a batch of points at once.

    ``values_fn`` evaluates the scalar field on an (N, n) array; all stencil
    evaluations are gathered into a single call, which is what makes
    finite-difference validation affordable when each field value costs a
    projection solve.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    nb, n = points.shape
    offsets, pairs = hessian_stencil(n, step)
    ns = offsets.shape[0]
    grid = (points[:, None, :] + offsets[None, :, :]).reshape(nb * ns, n)
    vals = np.asarray(values_fn(grid), dtype=float).reshape(nb, ns)
    hess = np.zeros((nb, n, n))
    f0 = vals[:, 0]
    for i in range(n):
        fp = vals[:, 1 + 2 * i]
        fm = vals[:, 2 + 2 * i]
        hess[:, i, i] = (fp - 2.0 * f0 + fm) / (step * step)
    base = 1 + 2 * n
    for k, (i, j) in enumerate(pairs):
        fpp = vals[:, base + 4 * k]
        fpm = vals[:, base + 4 * k + 1]
        fmp = vals[:, base + 4 * k + 2]
        fmm = vals[:, base + 4 * k + 3]
        val = (fpp - fpm - fmp + fmm) / (4.0 * step * step)
        hess[:, i, j] = val
        hess[:, j, i] = val
    return hess


def hessian_fd_richardson_batch(values_fn, points: np.ndarray, step: float) -> np.ndarray:
    coarse = hessian_fd_batch(values_fn, points, step)
    fine = hessian_fd_batch(values_fn, points, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (..., n) arrays, shape (..., 1).

    A stacked matmul rounds exactly like ``np.dot`` on each row, so batched
    and single-vector callers get the same bits.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (..., n) array, shape (..., 1).

    Each row rounds exactly like the 1-D ``np.linalg.norm`` of that row,
    which the axis-wise form does not.
    """
    return np.sqrt(_dot(v, v))


def axis_sum(v: np.ndarray) -> np.ndarray:
    """Sum over the last axis of a (..., n) array with n >= 2, shape (...).

    Adds the columns left to right, which rounds exactly like ``np.sum(v,
    axis=-1)`` for n < 8 (numpy adds longer rows pairwise), so
    ``np.sqrt(axis_sum(v * v))`` rounds like ``np.linalg.norm(v, axis=-1)``;
    several times faster on (N, 3) batches.
    """
    total = v[..., 0] + v[..., 1]
    for j in range(2, v.shape[-1]):
        total += v[..., j]
    return total


def orthonormal_complement(unit: np.ndarray) -> np.ndarray:
    """Rows form an orthonormal basis of the hyperplane orthogonal to ``unit``.

    ``unit`` has shape (..., n) and the result (..., n-1, n). Deterministic:
    Gram-Schmidt over the standard basis, least-aligned axes first. The n-1
    least-aligned axes always complete ``unit`` to a basis (the left-out
    axis carries its largest component), so each row is found in n-1 steps.
    """
    unit = np.asarray(unit, dtype=float)
    n = unit.shape[-1]
    basis = [unit / row_norms(unit)]
    axes = np.argsort(np.abs(unit), axis=-1, kind="stable")
    eye = np.eye(n)
    for k in range(n - 1):
        e = eye[axes[..., k]]
        for b in basis:
            e = e - _dot(e, b) * b
        basis.append(e / row_norms(e))
    return np.stack(basis[1:], axis=-2)
