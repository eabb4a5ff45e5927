"""Shared builders for the test suite.

Meshes and geometry are cached per configuration: they are treated as
immutable by every consumer, so sharing them across tests is safe and
keeps the suite fast.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from wstab.ambient import AmbientSpace, Density, make_boundary, make_space
from wstab.surface import (PlanarDisk, RectPatch, RoundSphere, SphericalCap,
                           extrinsic_geometry, mesh_from_immersion)

TAU = 2.0 * math.pi


@functools.lru_cache(maxsize=None)
def space_half_space(density_name="constant", **params) -> AmbientSpace:
    return make_space(dim=3, density=(density_name, dict(params)),
                      boundary=("half-space", {"axis": 2}))


@functools.lru_cache(maxsize=None)
def space_ball(density_name="constant", radius=1.0, center=(0.0, 0.0, 0.0),
               **params) -> AmbientSpace:
    return make_space(dim=3, density=(density_name, dict(params)),
                      boundary=("ball", {"radius": radius, "center": center}))


@functools.lru_cache(maxsize=None)
def space_slab_product(density_name="constant", **params) -> AmbientSpace:
    return make_space(dim=3, density=(density_name, dict(params)),
                      boundary=("slab", {"axis": 2, "halfwidth": 1.0}))


@functools.lru_cache(maxsize=None)
def space_free(density_name="constant", **params) -> AmbientSpace:
    return make_space(dim=3, density=(density_name, dict(params)))


def quadratic_density(a: float) -> Density:
    """psi = a*(x^2 - y^2 - z^2): convex along x, concave transversally."""

    def psi(P):
        P = np.atleast_2d(P)
        return a * (P[:, 0]**2 - P[:, 1]**2 - P[:, 2]**2)

    def grad(P):
        P = np.atleast_2d(P)
        return 2.0 * a * np.stack([P[:, 0], -P[:, 1], -P[:, 2]], axis=-1)

    def hess(P):
        P = np.atleast_2d(P)
        H = np.zeros((len(P), 3, 3))
        H[:, 0, 0] = 2.0 * a
        H[:, 1, 1] = -2.0 * a
        H[:, 2, 2] = -2.0 * a
        return H

    return Density(psi, grad, hess, name="anisotropic-quadratic")


@functools.lru_cache(maxsize=None)
def space_quadratic_ball(a: float = 4.5, radius: float = 0.45) -> AmbientSpace:
    return AmbientSpace(dim=3, density=quadratic_density(a),
                        boundary=make_boundary("ball", radius=radius))


@functools.lru_cache(maxsize=None)
def hemisphere_mesh(resolution=24, density_name="constant", **params):
    space = space_half_space(density_name, **params)
    imm = SphericalCap()
    mesh = mesh_from_immersion(imm, resolution, space=space)
    return space, imm, mesh


@functools.lru_cache(maxsize=None)
def offset_disk_mesh(resolution=24, density_name="constant", **params):
    """Flat unit disk through the center of a unit ball centered at (2,0,0)."""
    space = space_ball(density_name, radius=1.0, center=(2.0, 0.0, 0.0),
                       **params)
    imm = PlanarDisk(center=(2, 0, 0), e1=(1, 0, 0), e2=(0, 1, 0), radius=1.0)
    mesh = mesh_from_immersion(imm, resolution, space=space)
    return space, imm, mesh


def slice_immersion() -> RectPatch:
    return RectPatch(origin=(0, 0, 0), du=(0, 1, 0), dv=(0, 0, 1),
                     u_range=(0.0, TAU), v_range=(-1.0, 1.0), periodic_u=True)


@functools.lru_cache(maxsize=None)
def slice_mesh(resolution=24, density_name="constant", **params):
    space = space_slab_product(density_name, **params)
    imm = slice_immersion()
    mesh = mesh_from_immersion(imm, resolution, space=space)
    return space, imm, mesh


@functools.lru_cache(maxsize=None)
def sphere_mesh(resolution=24, density_name="constant", radius=1.0, **params):
    space = space_free(density_name, **params)
    imm = RoundSphere(radius=radius)
    mesh = mesh_from_immersion(imm, resolution, space=space)
    return space, imm, mesh


@functools.lru_cache(maxsize=None)
def cached_geometry(kind: str, resolution: int, density_name="constant",
                    **params):
    builder = {"hemisphere": hemisphere_mesh, "disk": offset_disk_mesh,
               "slice": slice_mesh, "sphere": sphere_mesh}[kind]
    space, imm, mesh = builder(resolution, density_name, **params)
    data = extrinsic_geometry(space, imm, mesh)
    return space, imm, mesh, data
