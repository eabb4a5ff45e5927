"""Flat ambient spaces with a smooth density and an implicit boundary.

Every ambient is flat (Euclidean space or a product such as R x S^1 x R,
whose S^1 factor is a periodic parameter range of the surface), so Ric = 0
and S = 0 and the weighted curvatures come from the density alone.
Every operation and callback takes a batch of N points as a float array
(N, 3), N >= 1, and returns one row per point: a scalar field as (N,), a
vector field as (N, 3) and a bilinear form as (N, 3, 3).  A single point is
a 1-row batch.  All callbacks are pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, SingularBoundaryError

Array = np.ndarray

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


@dataclass(frozen=True)
class Density:
    """Log-density psi = log f with analytic gradient and Hessian.

    ``psi(P) -> (N,)``, ``grad_psi(P) -> (N, 3)``, ``hess_psi(P) -> (N, 3, 3)``.
    """

    psi: Callable[[Array], Array]
    grad_psi: Callable[[Array], Array]
    hess_psi: Callable[[Array], Array]


@dataclass(frozen=True)
class BoundarySpec:
    """Implicit boundary: the ambient manifold is {phi >= 0}."""

    phi: Callable[[Array], Array]
    grad_phi: Callable[[Array], Array]
    hess_phi: Callable[[Array], Array]


@dataclass(frozen=True)
class AmbientSpace:
    """Flat 3-dimensional ambient manifold with density and optional
    implicit boundary."""

    density: Density
    boundary: Optional[BoundarySpec] = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def point_columns(n: int, *shape) -> Array:
    """An uninitialised (n, *shape) array of n points stored component-major,
    a view of a (*shape, n) buffer: each per-point column such as
    ``out[:, i, a]`` is contiguous, so the kernels read and write whole
    columns."""
    buf = np.empty(shape + (n,))
    return buf.transpose((len(shape),) + tuple(range(len(shape))))


def ordered_sum(terms) -> Array:
    """The (N,) terms added in the order given onto +0.0, as numpy's sums
    add them, so that a sum of zeros is +0.0 whatever their signs.  The
    per-point kernels make every 3-long sum through this on (N,) columns:
    bit for bit np.sum over a 3-long axis, np.trace, and np.linalg.norm,
    without numpy's loop over 3-long rows."""
    terms = iter(terms)
    total = 0.0 + next(terms)
    for term in terms:
        total += term
    return total


def dot(x, y) -> Array:
    """sum_j x_j y_j of two sequences of (N,) columns, such as the
    transposes of two (N, 3) arrays, added in order j = 0, 1, 2: bit for
    bit np.sum(X * Y, axis=-1)."""
    return ordered_sum(xj * yj for xj, yj in zip(x, y))


def squared_norm(P: Array) -> Array:
    """|p|^2 of each point of P (N, 3), added (x0 + x1) + x2 on its (N,)
    columns: the order np.sum and np.linalg.norm add a 3-long last axis
    in, without a numpy loop over each 3-long row."""
    x, y, z = P.T
    return x * x + y * y + z * z


def norm(P: Array) -> Array:
    """|p| of each point of P (N, 3), bit for bit np.linalg.norm(P, axis=-1)."""
    return np.sqrt(squared_norm(P))


def trace(A: Array) -> Array:
    """The trace of each matrix of A (N, 3, 3), bit for bit np.trace."""
    return ordered_sum(A[:, i, i] for i in range(3))


def quadratic_form(A: Array, V: Array) -> Array:
    """A(v, v) = sum_ij A_ij v_i v_j for matrices A (N, 3, 3) and vectors
    V (N, 3), summed with j inner; returns (N,)."""
    v = V.T
    return ordered_sum(A[:, i, j] * v[i] * v[j]
                       for i in range(3) for j in range(3))


class DensityJet:
    """The gradient, Hessian and Laplacian of psi at the points P (N, 3),
    each evaluated once, and the density's curvature terms read from them.
    The builtin densities return the Hessian component-major
    (``point_columns``) and the gradient in the layout of P, so both are
    component-major on a chart's points."""

    def __init__(self, density: Density, P: Array):
        self.grad, self.hess = density.grad_psi(P), density.hess_psi(P)
        self.lap = trace(self.hess)

    def bakry_emery_ricci(self, V: Array) -> Array:
        """Ric_f(v, v) = Ric(v, v) - hess(psi)(v, v) = -hess(psi)(v, v)
        for unit vectors V (N, 3); returns (N,)."""
        if np.any(np.abs(norm(V) - 1.0) > 1e-12):
            raise InputError("bakry_emery_ricci requires unit direction vectors")
        return -quadratic_form(self.hess, V)

    def perelman_scalar(self) -> Array:
        """S_f = S - 2*lap(psi) - |grad(psi)|^2 = -2*lap(psi) - |grad(psi)|^2."""
        return -2.0 * self.lap - squared_norm(self.grad)


def boundary_inner_normal(space: AmbientSpace, P: Array) -> Array:
    """Inner unit normals xi = grad(phi)/|grad(phi)| at boundary points."""
    if space.boundary is None:
        raise InputError("ambient space has no boundary")
    if not np.all(np.abs(space.boundary.phi(P)) <= 1e-10):
        raise InputError("point is not on the boundary (|phi| > 1e-10)")
    g = space.boundary.grad_phi(P)
    norms = norm(g)
    if not np.all(norms >= 1e-12):
        raise SingularBoundaryError("degenerate level-set gradient on the boundary")
    return g / norms[:, None]


def boundary_ii_matrix(space: AmbientSpace, P: Array) -> Array:
    """Full boundary shape bilinear form -hess(phi)/|grad(phi)| at points P.

    Restricting to directions tangent to the boundary gives the second
    fundamental form II w.r.t. the inner normal, positive semidefinite for
    a locally convex boundary.
    """
    gn = norm(space.boundary.grad_phi(P))
    return -space.boundary.hess_phi(P) / gn[:, None, None]


def boundary_f_mean_curvature(space: AmbientSpace, P: Array) -> Array:
    """(H_f) of the ambient boundary w.r.t. the inner normal: tr II - <grad psi, xi>."""
    xi = boundary_inner_normal(space, P)
    H = boundary_ii_matrix(space, P)
    trace_tan = trace(H) - quadratic_form(H, xi)
    return trace_tan - dot(space.density.grad_psi(P).T, xi.T)


# ---------------------------------------------------------------------------
# built-in density registry
# ---------------------------------------------------------------------------

def _zero_hessian(P):
    H = point_columns(len(P), 3, 3)
    H[...] = 0.0
    return H


def _constant_density(value: float = 1.0) -> Density:
    value = float(value)
    if not 0.0 < value < np.inf:
        raise InputError(f"constant density value must be positive and "
                         f"finite, got {value:g}")
    c = float(np.log(value))

    def psi(P):
        return np.full(len(P), c)

    return Density(psi, np.zeros_like, _zero_hessian)


def _gaussian_density() -> Density:
    def psi(P):
        return -squared_norm(P)

    def grad(P):
        return -2.0 * P

    def hess(P):
        # -2 I with the -0.0 off the diagonal that -2.0 * np.eye(3) has
        H = point_columns(len(P), 3, 3)
        H[...] = -0.0
        for i in range(3):
            H[:, i, i] = -2.0
        return H

    return Density(psi, grad, hess)


def _radial_log_density(k: float) -> Density:
    k = float(k)

    def psi(P):
        return k * np.log(norm(P))

    def grad(P):
        r2 = squared_norm(P)
        return k * P / r2[:, None]

    def hess(P):
        """k (I / r^2 - 2 p p^T / r^4), each symmetric entry computed once:
        (2 x_i) x_j = (2 x_j) x_i, as doubling is exact."""
        r2 = squared_norm(P)
        r4, x = r2 ** 2, P.T
        eye = (0.0 / r2, 1.0 / r2)
        H = point_columns(len(P), 3, 3)
        for i in range(3):
            two_x = 2.0 * x[i]
            for j in range(i, 3):
                H[:, i, j] = H[:, j, i] = k * (eye[i == j]
                                               - two_x * x[j] / r4)
        return H

    return Density(psi, grad, hess)


def _linear_density(a, b: float = 0.0) -> Density:
    a = vector3(a, "linear density a")
    b = float(b)

    def psi(P):
        return dot(P.T, a) + b

    def grad(P):
        g = np.empty_like(P)
        g[...] = a
        return g

    return Density(psi, grad, _zero_hessian)


def _radial_smooth_density(coeffs) -> Density:
    """psi = g(|p|) for a polynomial g given by ascending coefficients."""
    g = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    g1 = g.deriv()
    g2 = g1.deriv()

    def psi(P):
        return g(norm(P))

    def grad(P):
        r = norm(P)
        return (g1(r) / r)[:, None] * P

    def hess(P):
        """g'' n n^T + (g' / r)(I - n n^T), each symmetric entry once."""
        r = norm(P)
        n = P.T / r
        a, c = g2(r), g1(r) / r
        H = point_columns(len(P), 3, 3)
        for i in range(3):
            for j in range(i, 3):
                nn = n[i] * n[j]
                H[:, i, j] = H[:, j, i] = (a * nn
                                           + c * (float(i == j) - nn))
        return H

    return Density(psi, grad, hess)


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
        return P[:, axis] - offset

    def grad(P):
        g = np.zeros_like(P)
        g[:, axis] = 1.0
        return g

    return BoundarySpec(phi, grad, _zero_hessian)


def _slab_boundary(axis: int = 2, halfwidth: float = 1.0) -> BoundarySpec:
    axis = _axis_index(axis)
    halfwidth = float(halfwidth)
    if not 0.0 < halfwidth < np.inf:
        raise InputError(f"slab halfwidth must be positive and finite, "
                         f"got {halfwidth:g}")

    def phi(P):
        return halfwidth - np.abs(P[:, axis])

    def grad(P):
        g = np.zeros_like(P)
        g[:, axis] = -np.sign(P[:, axis])
        return g

    return BoundarySpec(phi, grad, _zero_hessian)


def _sphere_levelset(radius, center, sign) -> BoundarySpec:
    radius = float(radius)
    center = np.zeros(3) if center is None else vector3(center, "ball center")

    def phi(P):
        return sign * (norm(P - center) - radius)

    def grad(P):
        Q = P - center
        return sign * Q / norm(Q)[:, None]

    def hess(P):
        Q = P - center
        r = norm(Q)
        n = Q / r[:, None]
        nn = n[:, :, None] * n[:, None, :]
        return sign * (np.eye(3)[None] - nn) / r[:, None, None]

    return BoundarySpec(phi, grad, hess)


def _ball_boundary(radius: float = 1.0, center=None) -> BoundarySpec:
    return _sphere_levelset(radius, center, -1.0)


def _ball_complement_boundary(radius: float = 1.0, center=None) -> BoundarySpec:
    return _sphere_levelset(radius, center, +1.0)


def _cone_boundary(alpha: float, axis=None) -> BoundarySpec:
    """Solid circular cone of half-angle alpha around an axis through 0."""
    alpha = float(alpha)
    if not 0.0 < alpha < np.pi:
        raise InputError(f"cone alpha must lie in (0, pi), got {alpha:g}")
    a = unit_vector3((0.0, 0.0, 1.0) if axis is None else axis, "cone axis")
    ca = float(np.cos(alpha))

    def phi(P):
        return dot(P.T, a) / norm(P) - ca

    def grad(P):
        r = norm(P)
        n = P / r[:, None]
        c = dot(n.T, a)
        return (a[None] - c[:, None] * n) / r[:, None]

    def hess(P):
        r = norm(P)
        n = P / r[:, None]
        c = dot(n.T, a)
        na = n[:, :, None] * a[None, None, :]
        an = a[None, :, None] * n[:, None, :]
        nn = n[:, :, None] * n[:, None, :]
        eye = np.eye(3)[None]
        return -(na + an + c[:, None, None] * eye - 3.0 * c[:, None, None] * nn) \
            / (r ** 2)[:, None, None]

    return BoundarySpec(phi, grad, hess)


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


def make_space(density=("constant", {}),
               boundary=("none", {})) -> AmbientSpace:
    """Convenience constructor from registry names."""
    dname, dparams = density
    bname, bparams = boundary
    return AmbientSpace(
        density=make_density(dname, **dparams),
        boundary=make_boundary(bname, **bparams),
    )
