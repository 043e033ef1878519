"""Traces of Hessians over m-planes and m-plurisubharmonicity verdicts.

A C^2 function is m-plurisubharmonic when the trace of its Hessian over
every m-plane is nonnegative; the infimum of those traces equals the sum of
the m smallest Hessian eigenvalues, which is what the verdicts below
measure. Gridwise application gives counts, the worst margin, and the worst
point over a sample set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import numkit

ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True)
class MPlane:
    """An m-plane through the origin given by an orthonormal basis (rows)."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        gram = b @ b.T
        err = float(np.max(np.abs(gram - np.eye(b.shape[0]))))
        if err > ORTHONORMAL_TOL:
            raise ValueError(f"basis is not orthonormal: deviation {err:.3e}")

    @property
    def m(self) -> int:
        return self.basis.shape[0]


def random_mplane(rng: np.random.Generator, n: int, m: int) -> MPlane:
    """Uniform random m-plane: orthonormalized Gaussian frame."""
    g = rng.standard_normal((n, m))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return MPlane(q.T[:m])


def trace_on_plane(h: np.ndarray, plane: MPlane) -> float:
    """Trace of the restriction of the quadratic form ``h`` to the plane."""
    b = plane.basis
    return float(np.einsum("ik,kl,il->", b, np.asarray(h, dtype=float), b))


def check_m(m: int, n: int) -> None:
    """Reject a plane dimension m outside [1, n]."""
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")


def sum_smallest(eigenvalues: np.ndarray, m: int) -> np.ndarray:
    """Sum of the m smallest entries of ascending spectra.

    ``eigenvalues`` has shape (..., n), sorted ascending along the last
    axis; the result has shape (...). Raises ``ValueError`` unless
    ``1 <= m <= n``.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    check_m(m, eigenvalues.shape[-1])
    return np.sum(eigenvalues[..., :m], axis=-1)


def min_m_trace(h: np.ndarray, m: int):
    """Sum of the m smallest eigenvalues: the infimum of traces over m-planes.

    ``h`` is one matrix (n, n) or a stack (..., n, n); the result has shape
    (...).
    """
    return sum_smallest(numkit.sym_eigen(h).eigenvalues, m)


class ScalarField:
    """A C^2 field bundled with its derivatives, differencing when absent."""

    def __init__(self, fn: Callable, grad: Optional[Callable] = None,
                 hess: Optional[Callable] = None, name: str = "field"):
        self.fn = fn
        self._grad = grad
        self._hess = hess
        self.name = name

    def value(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def value_batch(self, points) -> np.ndarray:
        """Values at B points (B, n), shape (B,)."""
        return np.array([self.value(x) for x in np.atleast_2d(points)])

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(x), dtype=float)
        return numkit.gradient_fd(self.fn, x)

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            return np.asarray(self._hess(x), dtype=float)
        return numkit.hessian_fd(self.fn, x)


@dataclass(frozen=True)
class PshVerdict:
    """Pointwise verdict with its margin (sum of m smallest eigenvalues)."""

    point: np.ndarray
    margin: float
    verdict: str  # "strictly-psh" | "psh" | "violated"
    worst_plane: Optional[MPlane] = None


def default_margin_tol(h: np.ndarray) -> float:
    return 1e-8 * (1.0 + float(np.linalg.norm(h)))


def is_m_psh_at(
    field,
    x: np.ndarray,
    m: int,
    tol: Optional[float] = None,
) -> PshVerdict:
    """Classify a point by the sum of the m smallest Hessian eigenvalues.

    ``field`` is anything :func:`hessian_stack` takes. The margin decides
    the verdict against the scale-aware tolerance band.
    """
    x = np.asarray(x, dtype=float)
    h = hessian_stack(field, x)[0]
    use_tol = default_margin_tol(h) if tol is None else float(tol)
    eig = numkit.sym_eigen(h)
    margin = float(sum_smallest(eig.eigenvalues, m))
    if margin < -use_tol:
        verdict = "violated"
    elif margin > use_tol:
        verdict = "strictly-psh"
    else:
        verdict = "psh"
    worst = MPlane(eig.eigenvectors[:, :m].T.copy())
    return PshVerdict(point=x, margin=margin, verdict=verdict, worst_plane=worst)


def hessian_stack(field, points: np.ndarray) -> np.ndarray:
    """Hessians of a field at B points (B, n), shape (B, n, n).

    A field with batched ``jets`` (a ``BarrierFunction``) takes one call. A
    ``ScalarField``, or any field exposing ``hessian(x)``, is queried row by
    row, and a plain callable is differenced; a failing row raises
    ``RuntimeError`` naming the sample.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if hasattr(field, "jets"):
        return field.jets(points).hessian
    hessian = getattr(field, "hessian", None) or (lambda x: numkit.hessian_fd(field, x))
    rows = []
    for row in points:
        try:
            rows.append(np.asarray(hessian(row), dtype=float))
        except Exception as exc:
            raise RuntimeError(f"verdict failed at sample {row.tolist()}: {exc}") from exc
    return np.asarray(rows)


@dataclass(frozen=True)
class GridVerdict:
    """Census of pointwise verdicts over a sample grid."""

    m: int
    tol: float
    total: int
    strict_count: int
    psh_count: int
    violated_count: int
    worst_margin: float
    worst_point: np.ndarray

    @property
    def passed(self) -> bool:
        return self.violated_count == 0


def grid_verdict(
    field,
    points: np.ndarray,
    m: int,
    tol: float = 1e-8,
    hessians: Optional[np.ndarray] = None,
) -> GridVerdict:
    """Run the pointwise verdict over a grid of sample points.

    ``hessians`` may be precomputed, shape (B, n, n) for B points; otherwise
    :func:`hessian_stack` evaluates them. All margins come from one batched
    eigen solve. Any evaluation failure aborts with the offending sample in
    the exception message; ties for the worst margin go to the first sample.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if hessians is None:
        hessians = hessian_stack(field, points)
    try:
        eig = numkit.sym_eigen(np.asarray(hessians, dtype=float))
    except (numkit.AsymmetricMatrixError, numkit.NonFiniteMatrixError) as exc:
        row = points[exc.index[0]]
        raise RuntimeError(f"verdict failed at sample {row.tolist()}: {exc}") from exc
    margins = sum_smallest(eig.eigenvalues, m)
    worst = int(np.argmin(margins))
    violated = int(np.count_nonzero(margins < -tol))
    strict = int(np.count_nonzero(margins > tol))
    return GridVerdict(
        m=m,
        tol=tol,
        total=len(points),
        strict_count=strict,
        psh_count=len(points) - strict - violated,
        violated_count=violated,
        worst_margin=float(margins[worst]),
        worst_point=points[worst],
    )
