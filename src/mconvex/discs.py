"""Conformal harmonic test maps and subharmonicity of composed fields.

A conformal harmonic map from a plane domain into R^n parametrizes a
branched minimal surface; composing a C^2 ambient function with it and
taking the parameter Laplacian measures the trace of the ambient Hessian
over the tangent plane, scaled by the conformal factor. The catalog holds
affine discs, closed-form minimal charts, and maps generated from
holomorphic Gauss-map data by numerical integration. Maps, jets and
composed Laplacians take arrays of parameters: a whole sample grid is one
call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import mpsh


class NonHarmonicMapError(ValueError):
    """A composition was requested for a map that is not harmonic."""


JET_STEP = 1e-5


class ConformalMap:
    """A plane-to-R^n map with first and second parameter jets.

    ``f(z)``, ``jet1(z)`` and ``jet2(z)`` take complex parameters of any
    shape S and return arrays of shape S + (n,): the points, the pair
    (f_x, f_y) and the triple (f_xx, f_xy, f_yy). A scalar z gives (n,).
    Missing jets fall back to centered differences (first jets from values,
    second jets from first jets). ``branch_points`` are parameter values
    where the rank drops; residual checks skip a small neighborhood of them.
    """

    def __init__(
        self,
        name: str,
        f: Callable,
        jet1: Optional[Callable] = None,
        jet2: Optional[Callable] = None,
        center: complex = 0.0,
        radius: float = 1.0,
        branch_points: Sequence[complex] = (),
        branch_clearance: float = 1e-3,
    ):
        self.name = name
        self.f = f
        self._jet1 = jet1
        self._jet2 = jet2
        self.center = complex(center)
        self.radius = float(radius)
        self.branch_points = tuple(complex(b) for b in branch_points)
        self.branch_clearance = float(branch_clearance)

    def __call__(self, z):
        return self.f(z)

    def jet1(self, z):
        """(f_x, f_y) at z."""
        if self._jet1 is not None:
            return self._jet1(z)
        h, two_h = _steps(z)
        fx = (self.f(z + h) - self.f(z - h)) / two_h
        fy = (self.f(z + 1j * h) - self.f(z - 1j * h)) / two_h
        return np.asarray(fx, dtype=float), np.asarray(fy, dtype=float)

    def jet2(self, z):
        """(f_xx, f_xy, f_yy) at z, differencing the first jets if needed."""
        if self._jet2 is not None:
            return self._jet2(z)
        h, two_h = _steps(z)
        fx_p, fy_p = self.jet1(z + h)
        fx_m, fy_m = self.jet1(z - h)
        fx_u, fy_u = self.jet1(z + 1j * h)
        fx_d, fy_d = self.jet1(z - 1j * h)
        fxx = (np.asarray(fx_p) - np.asarray(fx_m)) / two_h
        fxy = (np.asarray(fx_u) - np.asarray(fx_d)) / two_h
        fyy = (np.asarray(fy_u) - np.asarray(fy_d)) / two_h
        return fxx, fxy, fyy

    def near_branch(self, z):
        """Whether each parameter lies within the clearance of a branch point."""
        gap = np.abs(np.subtract.outer(z, np.array(self.branch_points, dtype=complex)))
        return np.any(gap < self.branch_clearance, axis=-1)

    def grid(self, rings: int = 8, spokes: int = 16, fill: float = 0.95) -> np.ndarray:
        """Deterministic polar lattice of parameter samples inside the disc."""
        rr = self.radius * fill * (np.arange(1, rings + 1) / rings)
        th = 2.0 * np.pi * np.arange(spokes) / spokes
        zz = (rr[:, None] * np.exp(1j * th)[None, :]).ravel() + self.center
        pts = np.concatenate([[self.center], zz])
        return pts[~self.near_branch(pts)]


def _steps(z):
    """The difference step at each parameter, and twice it on a trailing axis."""
    h = JET_STEP * (1.0 + np.abs(np.asarray(z)))
    return h, 2.0 * np.asarray(h)[..., None]


def _stack(*components):
    """Components broadcast against each other, stacked on a last axis."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def affine_disc(p, u, w, radius: float = 1.0, name: str = "affine") -> ConformalMap:
    """The map z -> p + Re(z) u + Im(z) w; conformal when u, w are an
    orthogonal pair of equal length."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)

    def f(z):
        z = np.asarray(z, dtype=complex)
        return p + np.multiply.outer(z.real, u) + np.multiply.outer(z.imag, w)

    def jet1(z):
        shape = np.shape(z) + u.shape
        return np.broadcast_to(u, shape), np.broadcast_to(w, shape)

    def jet2(z):
        zero = np.zeros(np.shape(z) + u.shape)
        return zero, zero, zero

    return ConformalMap(name, f, jet1, jet2, radius=radius)


def catenoid_map(scale: float = 1.0, shift=(0.0, 0.0, 0.0), radius: float = 1.0) -> ConformalMap:
    """Closed-form conformal catenoid chart around the neck."""
    s = float(scale)
    shift = np.asarray(shift, dtype=float)

    def f(z):
        z = np.asarray(z, dtype=complex)
        u, v = z.real, z.imag
        return shift + s * _stack(np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), u)

    def jet1(z):
        u, v = z.real, z.imag
        fx = s * _stack(np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), 1.0)
        fy = s * _stack(-np.cosh(u) * np.sin(v), np.cosh(u) * np.cos(v), 0.0)
        return fx, fy

    def jet2(z):
        u, v = z.real, z.imag
        fxx = s * _stack(np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), 0.0)
        fxy = s * _stack(-np.sinh(u) * np.sin(v), np.sinh(u) * np.cos(v), 0.0)
        fyy = -fxx
        return fxx, fxy, fyy

    return ConformalMap("catenoid-chart", f, jet1, jet2, radius=radius)


def helicoid_map(scale: float = 1.0, shift=(0.0, 0.0, 0.0), radius: float = 1.0) -> ConformalMap:
    """Closed-form conformal helicoid chart (sinh x sin y, -sinh x cos y, -y)."""
    s = float(scale)
    shift = np.asarray(shift, dtype=float)

    def f(z):
        z = np.asarray(z, dtype=complex)
        u, v = z.real, z.imag
        return shift + s * _stack(np.sinh(u) * np.sin(v), -np.sinh(u) * np.cos(v), -v)

    def jet1(z):
        u, v = z.real, z.imag
        fx = s * _stack(np.cosh(u) * np.sin(v), -np.cosh(u) * np.cos(v), 0.0)
        fy = s * _stack(np.sinh(u) * np.cos(v), np.sinh(u) * np.sin(v), -1.0)
        return fx, fy

    def jet2(z):
        u, v = z.real, z.imag
        fxx = s * _stack(np.sinh(u) * np.sin(v), -np.sinh(u) * np.cos(v), 0.0)
        fxy = s * _stack(np.cosh(u) * np.cos(v), np.cosh(u) * np.sin(v), 0.0)
        fyy = -fxx
        return fxx, fxy, fyy

    return ConformalMap("helicoid-chart", f, jet1, jet2, radius=radius)


def enneper_map(scale: float = 1.0, shift=(0.0, 0.0, 0.0), radius: float = 0.8) -> ConformalMap:
    """Closed-form Enneper chart (u - u^3/3 + u v^2, -v + v^3/3 - v u^2, u^2 - v^2)."""
    s = float(scale)
    shift = np.asarray(shift, dtype=float)

    def f(z):
        z = np.asarray(z, dtype=complex)
        u, v = z.real, z.imag
        return shift + s * _stack(
            u - u**3 / 3.0 + u * v**2, -v + v**3 / 3.0 - v * u**2, u**2 - v**2
        )

    def jet1(z):
        u, v = z.real, z.imag
        fx = s * _stack(1.0 - u * u + v * v, -2.0 * u * v, 2.0 * u)
        fy = s * _stack(2.0 * u * v, -1.0 + v * v - u * u, -2.0 * v)
        return fx, fy

    def jet2(z):
        u, v = z.real, z.imag
        fxx = s * _stack(-2.0 * u, -2.0 * v, 2.0)
        fxy = s * _stack(2.0 * v, -2.0 * u, 0.0)
        fyy = s * _stack(2.0 * u, 2.0 * v, -2.0)
        return fxx, fxy, fyy

    return ConformalMap("enneper-chart", f, jet1, jet2, radius=radius)


@dataclass
class WeierstrassEntry:
    """Holomorphic generating data: Gauss map g and height differential dh.

    ``dh`` is the density against dz. The induced map integrates
    ``Re (1/2 (1/g - g), i/2 (1/g + g), 1) dh`` from the base point along
    straight segments; first jets come from the integrand, second jets from
    differencing it.
    """

    name: str
    g: Callable
    dh: Callable
    base_point: complex
    base_value: np.ndarray = field(default_factory=lambda: np.zeros(3))
    nodes_per_unit: int = 64
    branch_points: Sequence[complex] = ()

    def phi(self, z):
        z = np.asarray(z, dtype=complex)
        # one parameter takes the array loops a batch takes, not scalar math
        gz, dhz = self.g(z.reshape(-1)), self.dh(z.reshape(-1))
        return _stack(
            0.5 * (1.0 / gz - gz) * dhz, 0.5j * (1.0 / gz + gz) * dhz, dhz
        ).reshape(z.shape + (3,))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple:
    """Read-only nodes and weights of the n-point rule (n in [16, 200])."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def weierstrass_map(
    entry: WeierstrassEntry,
    scale: float = 1.0,
    shift=(0.0, 0.0, 0.0),
    center: complex = 0.0,
    radius: float = 0.5,
) -> ConformalMap:
    """Numerically integrated conformal harmonic map from generating data.

    Gauss-Legendre panels along the segment from the base point, at least
    ``nodes_per_unit`` nodes per unit of path length.
    """
    shift = np.asarray(shift, dtype=float)
    s = float(scale)

    def f(z):
        z = np.asarray(z, dtype=complex)
        dz = z.ravel() - entry.base_point
        length = np.abs(dz)
        nodes = np.minimum(np.maximum(16, np.ceil(entry.nodes_per_unit * length)), 200)
        nodes[length == 0.0] = 0
        out = np.tile(entry.base_value, (dz.size, 1))
        # one Gauss-Legendre rule per node count, shared by its segments
        for n in np.unique(nodes[nodes > 0]):
            rows = np.flatnonzero(nodes == n)
            x, weights = _gauss_legendre(int(n))
            step = dz[rows, None]
            vals = entry.phi(entry.base_point + 0.5 * (x + 1.0) * step)  # (G, N, 3)
            integral = 0.5 * step * np.einsum("k,gkj->gj", weights, vals)
            out[rows] = entry.base_value + integral.real
        return shift + s * out.reshape(z.shape + (3,))

    def jet1(z):
        phi = entry.phi(z)
        return s * phi.real, -s * phi.imag

    def jet2(z):
        h, two_h = _steps(z)
        dx = entry.phi(z + h) - entry.phi(z - h)
        dy = entry.phi(z + 1j * h) - entry.phi(z - 1j * h)
        return s * dx.real / two_h, s * dy.real / two_h, s * -dy.imag / two_h

    return ConformalMap(f"weierstrass-{entry.name}", f, jet1, jet2, center=center,
                        radius=radius, branch_points=entry.branch_points)


def weierstrass_catenoid() -> WeierstrassEntry:
    """g(z) = z, dh = dz/z on an annulus around |z| = 1."""
    return WeierstrassEntry(
        name="catenoid",
        g=lambda z: z,
        dh=lambda z: 1.0 / z,
        base_point=1.0 + 0.0j,
        base_value=np.array([-1.0, 0.0, 0.0]),
    )


def weierstrass_helicoid() -> WeierstrassEntry:
    """g(z) = exp(z), dh = i dz."""
    return WeierstrassEntry(
        name="helicoid",
        g=np.exp,
        dh=lambda z: 1j * np.ones_like(np.asarray(z, dtype=complex)),
        base_point=0.0 + 0.0j,
        base_value=np.zeros(3),
    )


def weierstrass_enneper() -> WeierstrassEntry:
    """g(z) = z, dh = z dz; branch point at the origin has rank zero."""
    return WeierstrassEntry(
        name="enneper",
        g=lambda z: z,
        dh=lambda z: z,
        base_point=0.0 + 0.0j,
        base_value=np.zeros(3),
        branch_points=(0.0 + 0.0j,),
    )


# the map types a config entry can name, besides ``affine``
CHART_MAPS = {
    "catenoid-chart": catenoid_map,
    "helicoid-chart": helicoid_map,
    "enneper-chart": enneper_map,
}
WEIERSTRASS_DATA = {
    "weierstrass-catenoid": weierstrass_catenoid,
    "weierstrass-helicoid": weierstrass_helicoid,
    "weierstrass-enneper": weierstrass_enneper,
}


def harmonicity_residual(cm: ConformalMap, z) -> np.ndarray:
    """The parameter Laplacian f_xx + f_yy, componentwise, shape S + (n,)."""
    fxx, _, fyy = cm.jet2(z)
    return np.asarray(fxx, dtype=float) + np.asarray(fyy, dtype=float)


def composition_laplacian(field, cm: ConformalMap, z, harmonic_tol: float = 1e-6):
    """Laplacian of (field o map) at parameters z of a harmonic map.

    Equals ``Hess[f_x, f_x] + Hess[f_y, f_y]``: the gradient term drops by
    harmonicity, which is checked against ``harmonic_tol``; the first
    parameter that fails raises :class:`NonHarmonicMapError` naming it. At
    immersion points this is ``|f_x|^2`` times the Hessian trace over the
    tangent plane of the parametrized surface.

    ``z`` is one parameter (the result is a float) or an array of shape S
    (the result has shape S); the Hessians come from one
    :func:`mpsh.hessian_stack` call.
    """
    zz = np.asarray(z, dtype=complex)
    flat = zz.reshape(-1)
    lap = _laplacian_of_images(field, cm, flat, cm.f(flat), harmonic_tol)
    return float(lap[0]) if zz.ndim == 0 else lap.reshape(zz.shape)


def _laplacian_of_images(field, cm: ConformalMap, z, images, harmonic_tol=1e-6):
    """``composition_laplacian`` at the parameters z (B,) whose images
    ``cm.f(z)`` (B, n) the caller already has."""
    fx, fy = (np.asarray(j, dtype=float) for j in cm.jet1(z))
    resid = harmonicity_residual(cm, z)
    scale = np.maximum(1.0, np.sum(fx * fx + fy * fy, axis=-1))
    bad = np.linalg.norm(resid, axis=-1) > harmonic_tol * scale
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonHarmonicMapError(
            f"map {cm.name!r} has Laplacian {resid[i].tolist()} at {complex(z[i])}"
        )
    h = mpsh.hessian_stack(field, images)
    return (fx[:, None] @ h @ fx[..., None] + fy[:, None] @ h @ fy[..., None])[:, 0, 0]


@dataclass(frozen=True)
class SweepReport:
    """Subharmonicity census of a composed field over a parameter grid."""

    map_name: str
    total: int
    min_laplacian: float
    argmin: complex
    violations: int
    rho_min: float
    rho_max: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def subharmonicity_sweep(
    field,
    cm: ConformalMap,
    grid: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    inside=None,
) -> SweepReport:
    """Minimum composed Laplacian over the grid, with the range of the
    composed field values (constancy evidence for the range collapse).

    ``inside`` optionally validates that the image stays in the field's
    region: it maps the (B, n) images to a boolean array, and a sample
    outside aborts the sweep.
    """
    zz = np.asarray(cm.grid() if grid is None else grid, dtype=complex)
    images = np.asarray(cm.f(zz), dtype=float)
    if inside is not None:
        kept = np.asarray(inside(images), dtype=bool)
        if not kept.all():
            raise ValueError(
                f"map {cm.name!r} leaves the field's region at parameter "
                f"{complex(zz[np.argmin(kept)])}"
            )
    lap = _laplacian_of_images(field, cm, zz, images)
    values = field.value_batch(images)
    worst = int(np.argmin(lap))
    return SweepReport(
        map_name=cm.name,
        total=len(zz),
        min_laplacian=float(lap[worst]),
        argmin=complex(zz[worst]),
        violations=int(np.count_nonzero(lap < -tol)),
        rho_min=float(np.min(values)),
        rho_max=float(np.max(values)),
    )
