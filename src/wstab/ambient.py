"""Flat ambient spaces with a smooth density and an implicit boundary.

Every ambient is flat (Euclidean space or a product such as R x S^1 x R,
whose S^1 factor is a periodic parameter range of the surface), so Ric = 0
and S = 0 and the weighted curvatures come from the density alone.
Points are numpy arrays of shape (3,) or batches (N, 3) (dimension 2 is
accepted by the pointwise operations as well).  All callbacks are vectorized
over the leading axis and pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, SingularBoundaryError

Array = np.ndarray

#: finite-difference steps for the consistency check (relative to 1 + |p|)
FD_STEP_GRAD = 1e-5
FD_STEP_HESS = 2e-4


def vector3(value, what: str) -> Array:
    """A parameter that must be a 3-vector; any other shape is an InputError."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise InputError(f"{what} needs 3 entries, got shape {v.shape}")
    return v


def unit_vector3(value, what: str) -> Array:
    """A 3-vector parameter scaled to unit length; its length must be a
    positive finite number."""
    v = vector3(value, what)
    n = np.linalg.norm(v)
    if not 0.0 < n < np.inf:
        raise InputError(f"{what} needs a positive finite length, got {n:g}")
    return v / n


def _axis_index(axis) -> int:
    index = int(axis)
    if index not in (0, 1, 2):
        raise InputError(f"boundary axis must be 0, 1 or 2, got {axis!r}")
    return index


def _batch(p: Array) -> tuple[Array, bool]:
    P = np.asarray(p, dtype=float)
    if P.ndim == 1:
        return P[None, :], True
    return P, False


@dataclass(frozen=True)
class Density:
    """Log-density psi = log f with analytic gradient and Hessian.

    ``psi(P) -> (N,)``, ``grad_psi(P) -> (N, d)``, ``hess_psi(P) -> (N, d, d)``.
    """

    psi: Callable[[Array], Array]
    grad_psi: Callable[[Array], Array]
    hess_psi: Callable[[Array], Array]
    name: str = "custom"

    def f(self, p: Array) -> Array:
        return np.exp(self.psi(np.asarray(p, dtype=float)))

    def lap_psi(self, p: Array) -> Array:
        H = self.hess_psi(np.asarray(p, dtype=float))
        return np.trace(H, axis1=-2, axis2=-1)


@dataclass(frozen=True)
class BoundarySpec:
    """Implicit boundary: the ambient manifold is {phi >= 0}."""

    phi: Callable[[Array], Array]
    grad_phi: Callable[[Array], Array]
    hess_phi: Callable[[Array], Array]
    name: str = "custom"


@dataclass(frozen=True)
class AmbientSpace:
    """Flat ambient manifold with density and optional implicit boundary."""

    dim: int
    density: Density
    boundary: Optional[BoundarySpec] = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def bakry_emery_ricci(space: AmbientSpace, p: Array, v: Array) -> float:
    """Ric_f(v, v) = Ric(v, v) - hess(psi)(v, v) = -hess(psi)(v, v) for a
    unit vector v."""
    P, _ = _batch(p)
    V, _ = _batch(v)
    norms = np.linalg.norm(V, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise InputError("bakry_emery_ricci requires unit direction vectors")
    H = space.density.hess_psi(P)
    out = -np.einsum("nij,ni,nj->n", H, V, V)
    return float(out[0]) if np.asarray(p).ndim == 1 else out


def perelman_scalar(space: AmbientSpace, p: Array):
    """S_f = S - 2*lap(psi) - |grad(psi)|^2 = -2*lap(psi) - |grad(psi)|^2."""
    P, single = _batch(p)
    g = space.density.grad_psi(P)
    out = -2.0 * space.density.lap_psi(P) - np.sum(g * g, axis=-1)
    return float(out[0]) if single else out


def boundary_inner_normal(space: AmbientSpace, p: Array):
    """Inner unit normal xi = grad(phi)/|grad(phi)| at a boundary point."""
    if space.boundary is None:
        raise InputError("ambient space has no boundary")
    P, single = _batch(p)
    phi = np.atleast_1d(space.boundary.phi(P))
    if not np.all(np.abs(phi) <= 1e-10):
        raise InputError("point is not on the boundary (|phi| > 1e-10)")
    g = space.boundary.grad_phi(P)
    norms = np.linalg.norm(g, axis=-1)
    if not np.all(norms >= 1e-12):
        raise SingularBoundaryError("degenerate level-set gradient on the boundary")
    xi = g / norms[:, None]
    return xi[0] if single else xi


def boundary_second_fundamental(space: AmbientSpace, p: Array, v: Array, w: Array) -> float:
    """II(v, w) of the ambient boundary w.r.t. the inner normal.

    Positive semidefinite for a locally convex boundary.
    """
    if space.boundary is None:
        raise InputError("ambient space has no boundary")
    P, _ = _batch(p)
    V, _ = _batch(v)
    W, _ = _batch(w)
    g = space.boundary.grad_phi(P)
    gn = np.linalg.norm(g, axis=-1)
    for T in (V, W):
        tangency = np.abs(np.sum(T * g, axis=-1)) / np.maximum(
            gn * np.linalg.norm(T, axis=-1), 1e-300)
        if np.any(tangency > 1e-10):
            raise InputError("vectors must be tangent to the boundary")
    out = np.einsum("nij,ni,nj->n", boundary_ii_matrix(space, P), V, W)
    return float(out[0]) if np.asarray(p).ndim == 1 else out


def boundary_ii_matrix(space: AmbientSpace, p: Array) -> Array:
    """Full boundary shape bilinear form -hess(phi)/|grad(phi)| at points p.

    Restricting to directions tangent to the boundary gives II.
    """
    P, single = _batch(p)
    g = space.boundary.grad_phi(P)
    gn = np.linalg.norm(g, axis=-1)
    H = -space.boundary.hess_phi(P) / gn[:, None, None]
    return H[0] if single else H


def boundary_f_mean_curvature(space: AmbientSpace, p: Array):
    """(H_f) of the ambient boundary w.r.t. the inner normal: tr II - <grad psi, xi>."""
    P, single = _batch(p)
    xi = np.atleast_2d(boundary_inner_normal(space, P))
    H = np.atleast_3d(boundary_ii_matrix(space, P))
    trace_full = np.trace(H, axis1=-2, axis2=-1)
    normal_part = np.einsum("nij,ni,nj->n", H, xi, xi)
    trace_tan = trace_full - normal_part
    gpsi = space.density.grad_psi(P)
    out = trace_tan - np.sum(gpsi * xi, axis=-1)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# density consistency check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    max_residual_grad: float
    max_residual_hess: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.max_residual_grad, self.max_residual_hess) <= self.tol


def fd_grad_psi(density: Density, P: Array) -> Array:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    d = P.shape[1]
    h = FD_STEP_GRAD * (1.0 + np.linalg.norm(P, axis=-1))
    out = np.empty_like(P)
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        out[:, i] = (density.psi(P + h[:, None] * e) - density.psi(P - h[:, None] * e)) / (2 * h)
    return out


def fd_hess_psi(density: Density, P: Array) -> Array:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    n, d = P.shape
    h = FD_STEP_HESS * (1.0 + np.linalg.norm(P, axis=-1))
    H = np.empty((n, d, d))
    psi0 = density.psi(P)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = 1.0
        H[:, i, i] = (density.psi(P + h[:, None] * ei) - 2 * psi0
                      + density.psi(P - h[:, None] * ei)) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = 1.0
            hp = h[:, None]
            val = (density.psi(P + hp * (ei + ej)) - density.psi(P + hp * (ei - ej))
                   - density.psi(P - hp * (ei - ej)) + density.psi(P - hp * (ei + ej))) / (4 * h**2)
            H[:, i, j] = val
            H[:, j, i] = val
    return H


def density_consistency_check(space: AmbientSpace, samples: Array,
                              tol: float = 1e-6) -> ConsistencyReport:
    """Compare analytic grad/hess of psi against centered finite differences."""
    P = np.atleast_2d(np.asarray(samples, dtype=float))
    g_a = space.density.grad_psi(P)
    g_fd = fd_grad_psi(space.density, P)
    scale_g = np.maximum(np.linalg.norm(g_a, axis=-1), 1.0)
    res_g = np.linalg.norm(g_a - g_fd, axis=-1) / scale_g
    H_a = space.density.hess_psi(P)
    H_fd = fd_hess_psi(space.density, P)
    scale_h = np.maximum(np.linalg.norm(H_a.reshape(len(P), -1), axis=-1), 1.0)
    res_h = np.linalg.norm((H_a - H_fd).reshape(len(P), -1), axis=-1) / scale_h
    return ConsistencyReport(float(res_g.max()), float(res_h.max()), tol)


# ---------------------------------------------------------------------------
# built-in density registry
# ---------------------------------------------------------------------------

def _constant_density(value: float = 1.0) -> Density:
    value = float(value)
    if not 0.0 < value < np.inf:
        raise InputError(f"constant density value must be positive and "
                         f"finite, got {value:g}")
    c = float(np.log(value))

    def psi(P):
        return np.full(len(np.atleast_2d(P)), c)

    def grad(P):
        return np.zeros_like(np.atleast_2d(P))

    def hess(P):
        P = np.atleast_2d(P)
        return np.zeros((len(P), P.shape[1], P.shape[1]))

    return Density(psi, grad, hess, name="constant")


def _gaussian_density() -> Density:
    def psi(P):
        P = np.atleast_2d(P)
        return -np.sum(P * P, axis=-1)

    def grad(P):
        return -2.0 * np.atleast_2d(P)

    def hess(P):
        P = np.atleast_2d(P)
        d = P.shape[1]
        return np.broadcast_to(-2.0 * np.eye(d), (len(P), d, d)).copy()

    return Density(psi, grad, hess, name="gaussian")


def _radial_log_density(k: float) -> Density:
    k = float(k)

    def psi(P):
        P = np.atleast_2d(P)
        return k * np.log(np.linalg.norm(P, axis=-1))

    def grad(P):
        P = np.atleast_2d(P)
        r2 = np.sum(P * P, axis=-1)
        return k * P / r2[:, None]

    def hess(P):
        P = np.atleast_2d(P)
        d = P.shape[1]
        r2 = np.sum(P * P, axis=-1)
        eye = np.eye(d)
        return k * (eye[None] / r2[:, None, None]
                    - 2.0 * P[:, :, None] * P[:, None, :] / (r2 ** 2)[:, None, None])

    return Density(psi, grad, hess, name=f"radial-log(k={k})")


def _linear_density(a, b: float = 0.0) -> Density:
    a = vector3(a, "linear density a")
    b = float(b)

    def psi(P):
        return np.atleast_2d(P) @ a + b

    def grad(P):
        P = np.atleast_2d(P)
        return np.broadcast_to(a, P.shape).copy()

    def hess(P):
        P = np.atleast_2d(P)
        d = P.shape[1]
        return np.zeros((len(P), d, d))

    return Density(psi, grad, hess, name="linear")


def _radial_smooth_density(coeffs) -> Density:
    """psi = g(|p|) for a polynomial g given by ascending coefficients."""
    g = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    g1 = g.deriv()
    g2 = g1.deriv()

    def psi(P):
        P = np.atleast_2d(P)
        return g(np.linalg.norm(P, axis=-1))

    def grad(P):
        P = np.atleast_2d(P)
        r = np.linalg.norm(P, axis=-1)
        return (g1(r) / r)[:, None] * P

    def hess(P):
        P = np.atleast_2d(P)
        d = P.shape[1]
        r = np.linalg.norm(P, axis=-1)
        n = P / r[:, None]
        nn = n[:, :, None] * n[:, None, :]
        eye = np.eye(d)[None]
        return (g2(r)[:, None, None] * nn
                + (g1(r) / r)[:, None, None] * (eye - nn))

    return Density(psi, grad, hess, name="radial-smooth")


DENSITY_REGISTRY = {
    "constant": _constant_density,
    "gaussian": _gaussian_density,
    "radial-log": _radial_log_density,
    "linear": _linear_density,
    "radial-smooth": _radial_smooth_density,
}


def make_density(name: str, **params) -> Density:
    try:
        factory = DENSITY_REGISTRY[name]
    except KeyError:
        raise InputError(f"unknown density '{name}'") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# built-in boundary registry
# ---------------------------------------------------------------------------

def _half_space_boundary(axis: int = 2, offset: float = 0.0) -> BoundarySpec:
    axis = _axis_index(axis)
    offset = float(offset)

    def phi(P):
        return np.atleast_2d(P)[:, axis] - offset

    def grad(P):
        P = np.atleast_2d(P)
        g = np.zeros_like(P)
        g[:, axis] = 1.0
        return g

    def hess(P):
        P = np.atleast_2d(P)
        d = P.shape[1]
        return np.zeros((len(P), d, d))

    return BoundarySpec(phi, grad, hess, name="half-space")


def _slab_boundary(axis: int = 2, halfwidth: float = 1.0) -> BoundarySpec:
    axis = _axis_index(axis)
    halfwidth = float(halfwidth)
    if not 0.0 < halfwidth < np.inf:
        raise InputError(f"slab halfwidth must be positive and finite, "
                         f"got {halfwidth:g}")

    def phi(P):
        return halfwidth - np.abs(np.atleast_2d(P)[:, axis])

    def grad(P):
        P = np.atleast_2d(P)
        g = np.zeros_like(P)
        g[:, axis] = -np.sign(P[:, axis])
        return g

    def hess(P):
        P = np.atleast_2d(P)
        d = P.shape[1]
        return np.zeros((len(P), d, d))

    return BoundarySpec(phi, grad, hess, name="slab")


def _sphere_levelset(radius, center, sign):
    radius = float(radius)
    center = np.zeros(3) if center is None else vector3(center, "ball center")

    def phi(P):
        r = np.linalg.norm(np.atleast_2d(P) - center, axis=-1)
        return sign * (r - radius)

    def grad(P):
        Q = np.atleast_2d(P) - center
        r = np.linalg.norm(Q, axis=-1)
        return sign * Q / r[:, None]

    def hess(P):
        Q = np.atleast_2d(P) - center
        d = Q.shape[1]
        r = np.linalg.norm(Q, axis=-1)
        n = Q / r[:, None]
        nn = n[:, :, None] * n[:, None, :]
        return sign * (np.eye(d)[None] - nn) / r[:, None, None]

    return phi, grad, hess


def _ball_boundary(radius: float = 1.0, center=None) -> BoundarySpec:
    phi, grad, hess = _sphere_levelset(radius, center, -1.0)
    return BoundarySpec(phi, grad, hess, name="ball")


def _ball_complement_boundary(radius: float = 1.0, center=None) -> BoundarySpec:
    phi, grad, hess = _sphere_levelset(radius, center, +1.0)
    return BoundarySpec(phi, grad, hess, name="ball-complement")


def _cone_boundary(alpha: float, axis=None) -> BoundarySpec:
    """Solid circular cone of half-angle alpha around an axis through 0."""
    alpha = float(alpha)
    if not 0.0 < alpha < np.pi:
        raise InputError(f"cone alpha must lie in (0, pi), got {alpha:g}")
    a = unit_vector3((0.0, 0.0, 1.0) if axis is None else axis, "cone axis")
    ca = float(np.cos(alpha))

    def phi(P):
        P = np.atleast_2d(P)
        return P @ a / np.linalg.norm(P, axis=-1) - ca

    def grad(P):
        P = np.atleast_2d(P)
        r = np.linalg.norm(P, axis=-1)
        n = P / r[:, None]
        c = n @ a
        return (a[None] - c[:, None] * n) / r[:, None]

    def hess(P):
        P = np.atleast_2d(P)
        r = np.linalg.norm(P, axis=-1)
        n = P / r[:, None]
        c = n @ a
        na = n[:, :, None] * a[None, None, :]
        an = a[None, :, None] * n[:, None, :]
        nn = n[:, :, None] * n[:, None, :]
        eye = np.eye(P.shape[1])[None]
        return -(na + an + c[:, None, None] * eye - 3.0 * c[:, None, None] * nn) \
            / (r ** 2)[:, None, None]

    return BoundarySpec(phi, grad, hess, name="cone")


BOUNDARY_REGISTRY = {
    "none": lambda: None,
    "half-space": _half_space_boundary,
    "slab": _slab_boundary,
    "ball": _ball_boundary,
    "ball-complement": _ball_complement_boundary,
    "cone": _cone_boundary,
}


def make_boundary(name: str, **params) -> Optional[BoundarySpec]:
    try:
        factory = BOUNDARY_REGISTRY[name]
    except KeyError:
        raise InputError(f"unknown boundary '{name}'") from None
    return factory(**params)


def make_space(dim: int = 3, density=("constant", {}),
               boundary=("none", {})) -> AmbientSpace:
    """Convenience constructor from registry names."""
    dname, dparams = density
    bname, bparams = boundary
    return AmbientSpace(
        dim=dim,
        density=make_density(dname, **dparams),
        boundary=make_boundary(bname, **bparams),
    )
