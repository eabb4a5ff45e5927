"""Shared builders for the test suite.

Charts and geometry are cached per configuration: they are treated as
immutable by every consumer, so sharing them across tests is safe and
keeps the suite fast.
"""
from __future__ import annotations

import functools
import hashlib
import math
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wstab.ambient import (BOUNDARY_REGISTRY, DENSITY_REGISTRY, AmbientSpace,
                           BoundarySpec, Density, boundary_normal_and_ii,
                           ordered_sum)
from wstab.functionals import RotationFlow, ScalingFlow
from wstab.stability import _factor_below_spectrum
from wstab.surface import (PlanarDisk, RectPatch, RoundSphere, SphericalCap,
                           SurfaceChart, _along, extrinsic_geometry,
                           surface_chart)

TAU = 2.0 * math.pi


# SHA-256 of the sin/cos/tan values the meshes of every builtin up to
# resolution 33 are built from; a libm that rounds them differently changes
# every float digest the tests pin
TRIG_DIGEST = "c636fd3fca5a60ea0dde6e43b3b214ebd80ae6fc2d5e980230e3ae956463f313"


# SHA-256 of the exp, log, sparse LU and eigsh values of
# _float_kernel_digest on the platform that recorded the output digests
FLOAT_KERNEL_DIGEST = "edd0e2a08a569c502249e0311cbda0901c87a1e6ef87cf6fe2d4d91c3ba9ae41"


@functools.lru_cache(maxsize=None)
def same_trig() -> bool:
    """Whether this platform's trigonometry rounds like the one that
    recorded the pinned digests."""
    h = hashlib.sha256()
    for rings in range(1, 34):
        ang = 2 * np.pi * np.arange(6 * rings) / (6 * rings)
        h.update(np.cos(ang).tobytes() + np.sin(ang).tobytes())
    h.update(np.array([np.tan(np.pi / 4), np.tan(0.35),
                       np.cos(0.7)]).tobytes())
    return h.hexdigest() == TRIG_DIGEST


def _float_kernel_digest() -> str:
    """SHA-256 of exp and log on fixed grids, and of one fixed sparse LU
    solve and shift-invert eigsh with the LU options and start vector the
    eigensolver uses: numpy's exp and log kernels, and the OpenBLAS kernel
    set under SuperLU and ARPACK, each move the last bits of the outputs."""
    h = hashlib.sha256()
    h.update(np.exp(np.linspace(-4.0, 4.0, 4099)).tobytes())
    h.update(np.log(np.linspace(0.05, 8.0, 4099)).tobytes())
    n = 10
    L1 = sp.diags([-np.ones(n - 1), 2.0 + np.linspace(0.0, 1.0, n),
                   -np.ones(n - 1)], [-1, 0, 1])
    A = (sp.kron(L1, sp.identity(n)) + sp.kron(sp.identity(n), L1)).tocsc()
    M = sp.diags(1.0 + 0.1 * np.cos(np.arange(n * n))).tocsc()
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    op = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    vals, _ = spla.eigsh(A, k=6, M=M, sigma=0.0, which="LM", OPinv=op,
                         v0=np.random.default_rng(0).standard_normal(n * n))
    h.update(lu.solve(np.sin(np.arange(n * n) + 1.0)).tobytes())
    h.update(vals.tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def same_float_kernels() -> bool:
    """Whether this platform's trigonometry, exp, log and sparse solvers
    round like the ones that recorded the pinned output digests."""
    return same_trig() and _float_kernel_digest() == FLOAT_KERNEL_DIGEST


EPS = np.finfo(float).eps


def constrained_lambda_min(asm) -> float:
    """Minimum Rayleigh quotient of (K-P-B, M) over {u : 1^T M u = 0}, by
    ARPACK: the reference the inertia verdict is tested against.

    A modified eigenproblem on the spectrum's shifted factor: with c = M 1
    and z = (A - sigma M)^-1 c, the saddle-point inverse
    b -> w - z (c.w)/(c.z), w = (A - sigma M)^-1 b, maps into the
    constraint space and its shift-invert eigenvalues are exactly those
    of the pencil restricted to it.
    """
    sigma, lu = _factor_below_spectrum(asm)
    c = asm.M @ np.ones(asm.dof)
    z = lu.solve(c)
    cz = float(c @ z)

    def constrained_solve(b):
        w = lu.solve(b)
        return w - z * (float(c @ w) / cz)

    n = asm.dof
    op = spla.LinearOperator((n, n), matvec=constrained_solve, dtype=float)
    vals, _ = spla.eigsh(asm.operator, k=1, M=asm.M, sigma=sigma, which="LM",
                         OPinv=op, v0=np.random.default_rng(0).standard_normal(n))
    return float(vals[0])


def second_along(Hc, J, D, E, Q) -> list:
    """The columns of Hc(D, E) + J Q for a chart Hessian Hc (N, 3, pd, pd)
    on parameter directions D and E and the Jacobian J on their derivative
    Q, each sum in the chain rule's order: the second derivative of the
    chart along a blend of its parameters."""
    pd = D.shape[1]
    return [ordered_sum(Hc[:, i, a, b] * D[:, a] * E[:, b]
                        for a in range(pd) for b in range(pd)) + JQ
            for i, JQ in enumerate(_along(J, Q))]


def assert_same_bits(got, want):
    """Equal shapes, values and sign bits, so a -0.0 where a +0.0 is
    wanted fails."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def eps_apart(got, want, relative: bool = False) -> float:
    """The largest difference of two arrays in units of the double
    epsilon, relative to each entry of ``want`` where asked."""
    diff = np.abs(got - want)
    if relative:
        diff = diff / np.abs(want)
    return float(np.max(diff)) / EPS


def affine_slice_oracle(family, s):
    """The unit normals and w da_f of a scaled or rotated slice in closed
    form: a scaling by 1 + s keeps the normal and multiplies the area
    element by (1 + s)^2, and a rotation R turns the normal to R N and
    keeps the area element."""
    base, flow = family.data, family.flow
    f = np.exp(base.space.density.psi(flow.map(s, base.pos)))
    if isinstance(flow, ScalingFlow):
        return base.N, (1.0 + s) ** 2 * base.w_da * f
    assert isinstance(flow, RotationFlow)
    return base.N @ flow.linear(s).T, base.w_da * f


def assert_affine_slice(family, s, N, w_daf, frame_N, frame_w_daf):
    """A scaled or rotated slice's normals and w da_f lie within 4 eps of
    the closed form and within 16 eps of the frame path's (measured on the
    test surfaces: 1 and 6.2 eps)."""
    want_N, want_w_daf = affine_slice_oracle(family, s)
    assert eps_apart(N, want_N) <= 4.0
    assert eps_apart(w_daf, want_w_daf, relative=True) <= 4.0
    assert eps_apart(N, frame_N) <= 16.0
    assert eps_apart(w_daf, frame_w_daf, relative=True) <= 16.0


def boundary_f_mean_curvature(space: AmbientSpace, P) -> np.ndarray:
    """(H_f) of the ambient boundary w.r.t. the inner normal at boundary
    points P (N, 3), tr II - II(xi, xi) - <grad psi, xi>: the reference the
    chart's H_boundary and the geometry's Hf_boundary are tested against."""
    xi, II = boundary_normal_and_ii(space, P)
    return (np.trace(II, axis1=-2, axis2=-1)
            - np.einsum("nij,ni,nj->n", II, xi, xi)
            - np.sum(space.density.grad_psi(P) * xi, axis=-1))


def make_density(name: str, **params) -> Density:
    return DENSITY_REGISTRY[name](**params)


def make_boundary(name: str, **params) -> Optional[BoundarySpec]:
    return BOUNDARY_REGISTRY[name](**params)


def make_space(density=("constant", {}),
               boundary=("none", {})) -> AmbientSpace:
    """An ambient space from registry names and parameters."""
    (dname, dparams), (bname, bparams) = density, boundary
    return AmbientSpace(make_density(dname, **dparams),
                        make_boundary(bname, **bparams))


@functools.lru_cache(maxsize=None)
def space_half_space(density_name="constant", **params) -> AmbientSpace:
    return make_space(density=(density_name, dict(params)),
                      boundary=("half-space", {"axis": 2}))


@functools.lru_cache(maxsize=None)
def space_ball(density_name="constant", radius=1.0, center=(0.0, 0.0, 0.0),
               **params) -> AmbientSpace:
    return make_space(density=(density_name, dict(params)),
                      boundary=("ball", {"radius": radius, "center": center}))


@functools.lru_cache(maxsize=None)
def space_slab_product(density_name="constant", **params) -> AmbientSpace:
    return make_space(density=(density_name, dict(params)),
                      boundary=("slab", {"axis": 2, "halfwidth": 1.0}))


@functools.lru_cache(maxsize=None)
def space_free(density_name="constant", **params) -> AmbientSpace:
    return make_space(density=(density_name, dict(params)))


def quadratic_density(a: float) -> Density:
    """psi = a*(x^2 - y^2 - z^2): convex along x, concave transversally."""

    def psi(P):
        return a * (P[:, 0]**2 - P[:, 1]**2 - P[:, 2]**2)

    def grad(P):
        return 2.0 * a * np.stack([P[:, 0], -P[:, 1], -P[:, 2]], axis=-1)

    def hess(P):
        H = np.zeros((len(P), 3, 3))
        H[:, 0, 0] = 2.0 * a
        H[:, 1, 1] = -2.0 * a
        H[:, 2, 2] = -2.0 * a
        return H

    return Density(psi, grad, hess)


@functools.lru_cache(maxsize=None)
def space_quadratic_ball(a: float = 4.5, radius: float = 0.45) -> AmbientSpace:
    return AmbientSpace(density=quadratic_density(a),
                        boundary=make_boundary("ball", radius=radius))


def space_offset_ball(density_name="constant", **params) -> AmbientSpace:
    return space_ball(density_name, radius=1.0, center=(2.0, 0.0, 0.0),
                      **params)


@functools.lru_cache(maxsize=None)
def space_cone(density_name="constant", **params) -> AmbientSpace:
    return make_space(density=(density_name, dict(params)),
                      boundary=("cone", {"alpha": 0.7}))


def slice_immersion() -> RectPatch:
    return RectPatch(origin=(0, 0, 0), du=(0, 1, 0), dv=(0, 0, 1),
                     u_range=(0.0, TAU), v_range=(-1.0, 1.0), periodic_u=True)


# the test surfaces: each kind's ambient boundary and immersion
#   hemisphere  unit half-sphere in the half-space z >= 0
#   disk        flat unit disk through the center of the unit ball at (2,0,0)
#   slice       flat cylinder slice of the slab |z| <= 1, periodic in y
#   sphere      closed unit sphere
#   cone        spherical cap meeting the cone of half-angle 0.7 orthogonally
SURFACES = {
    "hemisphere": (space_half_space, SphericalCap),
    "disk": (space_offset_ball,
             lambda: PlanarDisk(center=(2, 0, 0), e1=(1, 0, 0),
                                e2=(0, 1, 0), radius=1.0)),
    "slice": (space_slab_product, slice_immersion),
    "sphere": (space_free, RoundSphere),
    "cone": (space_cone, lambda: SphericalCap(alpha=0.7)),
}


@functools.lru_cache(maxsize=None)
def cached_chart(kind: str, resolution: int) -> SurfaceChart:
    """The chart of a test surface, shared by every ambient space."""
    return surface_chart(SURFACES[kind][1](), resolution)


@functools.lru_cache(maxsize=None)
def free_geometry(kind: str, resolution: int, density_name="constant",
                  **params):
    """The geometry of a test surface under a density in an ambient without
    boundary, where every flow is an admissible variation."""
    return extrinsic_geometry(space_free(density_name, **params),
                              cached_chart(kind, resolution))


@functools.lru_cache(maxsize=None)
def cached_geometry(kind: str, resolution: int, density_name="constant",
                    **params):
    """(space, immersion, mesh, geometry) of a test surface under a
    density."""
    space = SURFACES[kind][0](density_name, **params)
    chart = cached_chart(kind, resolution)
    return (space, chart.mesh.immersion, chart.mesh,
            extrinsic_geometry(space, chart))
