"""Immersed surfaces with boundary: charts, meshes, extrinsic geometry.

All curvature quantities come from first and second derivatives of the
reference immersion evaluated at quadrature points; the triangle mesh only
carries connectivity and quadrature structure.  Every immersion supplies
analytic first and second chart derivatives.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .ambient import (AmbientSpace, bakry_emery_ricci,
                      boundary_f_mean_curvature, boundary_ii_matrix,
                      boundary_inner_normal, perelman_scalar, unit_vector3,
                      vector3)
from .errors import ImmersionError, InputError, MeshingError

Array = np.ndarray

# every surface integral uses Gauss3 on the unit reference triangle
# {x>=0, y>=0, x+y<=1} (weights sum to the reference area 1/2) and every
# boundary integral Gauss2 on the unit interval [0, 1]
TRI_POINTS = np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]])
TRI_WEIGHTS = np.array([1 / 6, 1 / 6, 1 / 6])
EDGE_POINTS = np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
EDGE_WEIGHTS = np.array([0.5, 0.5])
# the P1 hat functions at the triangle points, (3, R)
TRI_HATS = np.stack([1 - TRI_POINTS[:, 0] - TRI_POINTS[:, 1],
                     TRI_POINTS[:, 0], TRI_POINTS[:, 1]])

# a rect patch is meshed with square cells, so its v rows grow with the
# aspect ratio; this bounds them to MAX_RECT_ASPECT times the resolution
MAX_RECT_ASPECT = 64.0
# meshes hold about resolution^2 triangles built in Python lists; this is 8
# times the finest resolution any builtin, test or benchmark uses
MAX_RESOLUTION = 1024


@dataclass(frozen=True)
class ParamArc:
    """Boundary arc in parameter space, t in [0, 1].

    ``inward`` gives a parameter-space direction pointing into the domain;
    only its sign relative to the domain matters.
    """

    c: Callable[[Array], Array]
    dc: Callable[[Array], Array]
    ddc: Callable[[Array], Array]
    inward: Callable[[Array], Array]


class Immersion:
    """Reference immersion of a surface into the ambient space.

    Subclasses set ``domain`` and implement ``chart`` (N, 3) and its
    analytic derivatives ``chart_jac`` (N, 3, pd) and ``chart_hess``
    (N, 3, pd, pd), with pd = ``param_dim``.
    """

    param_dim = 2
    orientation_sign = 1

    # domain: ("disk", rho) | ("rect", (u0,u1,v0,v1), per_u, per_v) | ("sphere",)
    domain: tuple = ()

    def chart(self, Q: Array) -> Array:
        raise NotImplementedError

    def boundary_arcs(self) -> List[ParamArc]:
        kind = self.domain[0]
        if kind == "disk":
            rho = self.domain[1]
            two_pi = 2 * np.pi

            def c(t):
                ang = two_pi * np.asarray(t)
                return rho * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

            def dc(t):
                ang = two_pi * np.asarray(t)
                return rho * two_pi * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)

            def ddc(t):
                ang = two_pi * np.asarray(t)
                return -rho * two_pi**2 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

            def inward(t):
                ang = two_pi * np.asarray(t)
                return -np.stack([np.cos(ang), np.sin(ang)], axis=-1)

            return [ParamArc(c, dc, ddc, inward)]
        if kind == "rect":
            (u0, u1, v0, v1), per_u, per_v = self.domain[1], self.domain[2], self.domain[3]
            arcs = []

            def line(p0, p1, n):
                p0 = np.asarray(p0, float)
                p1 = np.asarray(p1, float)
                d = p1 - p0
                n = np.asarray(n, float)
                return ParamArc(
                    c=lambda t: p0 + np.asarray(t)[..., None] * d,
                    dc=lambda t: np.broadcast_to(d, np.shape(t) + (2,)).copy(),
                    ddc=lambda t: np.zeros(np.shape(t) + (2,)),
                    inward=lambda t: np.broadcast_to(n, np.shape(t) + (2,)).copy(),
                )

            if not per_v:
                arcs.append(line((u0, v0), (u1, v0), (0, 1)))
                arcs.append(line((u0, v1), (u1, v1), (0, -1)))
            if not per_u:
                arcs.append(line((u0, v0), (u0, v1), (1, 0)))
                arcs.append(line((u1, v0), (u1, v1), (-1, 0)))
            return arcs
        return []


# ---------------------------------------------------------------------------
# built-in immersions
# ---------------------------------------------------------------------------

def _orientation_sign(sign) -> int:
    """The sign that orients the unit normal: 1 or -1, nothing else."""
    if isinstance(sign, bool) or sign not in (1, -1):
        raise InputError(f"orientation_sign must be 1 or -1, got {sign!r}")
    return int(sign)


def _radius(value, what: str) -> float:
    """A radius of 0 collapses the chart to a point (a negative one
    reflects it); a NaN is left to the mesh and metric guards."""
    r = float(value)
    if r == 0.0:
        raise InputError(f"{what} must be nonzero")
    return r


def _rotation_to(axis) -> Array:
    """Rotation matrix mapping e3 to the direction of the given axis."""
    a = unit_vector3(axis, "cap axis")
    e3 = np.array([0.0, 0.0, 1.0])
    v = np.cross(e3, a)
    c = float(e3 @ a)
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


class SphericalCap(Immersion):
    """Spherical cap of opening angle alpha about an axis.

    Chart is the inverse stereographic projection from the antipode, scaled
    so the parameter domain is the disk of radius tan(alpha/2); alpha = pi/2
    gives a hemisphere, alpha = pi a full sphere minus a point (not used).
    The normal with orientation_sign = +1 points away from the center.
    """

    def __init__(self, radius=1.0, alpha=np.pi / 2, axis=(0, 0, 1),
                 center=(0, 0, 0), orientation_sign=1):
        if not 0 < alpha < np.pi:
            raise InputError("cap opening angle must lie in (0, pi)")
        self.radius = _radius(radius, "cap radius")
        self.alpha = float(alpha)
        self.center = vector3(center, "cap center")
        self.rot = _rotation_to(axis)
        self.orientation_sign = _orientation_sign(orientation_sign)
        self.domain = ("disk", float(np.tan(alpha / 2)))

    def _unit(self, Q):
        Q = np.atleast_2d(Q)
        u, v = Q[:, 0], Q[:, 1]
        w = u * u + v * v
        D = 1.0 + w
        e = np.stack([2 * u, 2 * v, 1 - w], axis=-1)
        return e, D, u, v, w

    def chart(self, Q):
        e, D, *_ = self._unit(Q)
        s = e / D[:, None]
        return self.center + self.radius * s @ self.rot.T

    def chart_jac(self, Q):
        e, D, u, v, w = self._unit(Q)
        n = len(D)
        # derivatives of e and D
        e_u = np.stack([np.full(n, 2.0), np.zeros(n), -2 * u], axis=-1)
        e_v = np.stack([np.zeros(n), np.full(n, 2.0), -2 * v], axis=-1)
        D_u, D_v = 2 * u, 2 * v
        s_u = e_u / D[:, None] - e * (D_u / D**2)[:, None]
        s_v = e_v / D[:, None] - e * (D_v / D**2)[:, None]
        J = np.stack([s_u, s_v], axis=-1) * self.radius
        return np.einsum("ij,nja->nia", self.rot, J)

    def chart_hess(self, Q):
        e, D, u, v, w = self._unit(Q)
        n = len(D)
        z = np.zeros(n)
        two = np.full(n, 2.0)
        e_a = np.stack([np.stack([two, z, -2 * u], -1),
                        np.stack([z, two, -2 * v], -1)], axis=1)  # (n,2,3)
        D_a = np.stack([2 * u, 2 * v], axis=-1)  # (n,2)
        # e_ab: e_uu = e_vv = (0,0,-2), e_uv = 0; D_ab = 2*I
        e_ab = np.zeros((n, 2, 2, 3))
        e_ab[:, 0, 0, 2] = -2.0
        e_ab[:, 1, 1, 2] = -2.0
        D_ab = 2.0 * np.eye(2)[None, :, :] * np.ones((n, 1, 1))
        Dm = D[:, None, None, None]
        Da = D_a[:, :, None, None]
        Db = D_a[:, None, :, None]
        s_ab = (e_ab / Dm
                - e_a[:, :, None, :] * Db / Dm**2
                - e_a[:, None, :, :] * Da / Dm**2
                - e[:, None, None, :] * D_ab[..., None] / Dm**2
                + 2.0 * e[:, None, None, :] * Da * Db / Dm**3)
        H = self.radius * np.einsum("ij,nabj->niab", self.rot, s_ab)
        return H


class PlanarDisk(Immersion):
    """Flat disk spanned by two orthonormal vectors."""

    def __init__(self, center=(0, 0, 0), e1=(1, 0, 0), e2=(0, 1, 0),
                 radius=1.0, orientation_sign=1):
        self.center = vector3(center, "disk center")
        self.e1 = vector3(e1, "disk e1")
        self.e2 = vector3(e2, "disk e2")
        if not (abs(self.e1 @ self.e2) <= 1e-12
                and abs(np.linalg.norm(self.e1) - 1) <= 1e-12
                and abs(np.linalg.norm(self.e2) - 1) <= 1e-12):
            raise InputError("disk frame must be orthonormal")
        self.radius = _radius(radius, "disk radius")
        self.orientation_sign = _orientation_sign(orientation_sign)
        self.domain = ("disk", self.radius)

    def chart(self, Q):
        Q = np.atleast_2d(Q)
        return self.center + np.outer(Q[:, 0], self.e1) + np.outer(Q[:, 1], self.e2)

    def chart_jac(self, Q):
        Q = np.atleast_2d(Q)
        J = np.stack([self.e1, self.e2], axis=-1)
        return np.broadcast_to(J, (len(Q), 3, 2)).copy()

    def chart_hess(self, Q):
        Q = np.atleast_2d(Q)
        return np.zeros((len(Q), 3, 2, 2))


class RectPatch(Immersion):
    """Affine patch over a rectangle, optionally periodic in u and/or v.

    chart(u, v) = origin + u*du + v*dv.  Used for flat slices of product
    ambients (cylinders and tori in periodic coordinates).
    """

    def __init__(self, origin=(0, 0, 0), du=(0, 1, 0), dv=(0, 0, 1),
                 u_range=(0.0, 1.0), v_range=(0.0, 1.0),
                 periodic_u=False, periodic_v=False, orientation_sign=1):
        self.origin = vector3(origin, "patch origin")
        self.du = vector3(du, "patch du")
        self.dv = vector3(dv, "patch dv")
        self.orientation_sign = _orientation_sign(orientation_sign)
        ranges = np.asarray([u_range, v_range], float)
        if (ranges.shape != (2, 2) or not np.all(np.isfinite(ranges))
                or np.any(ranges[:, 0] >= ranges[:, 1])):
            raise InputError("patch u_range and v_range need 2 finite, "
                             "increasing entries each")
        self.domain = ("rect", tuple(float(x) for x in ranges.ravel()),
                       bool(periodic_u), bool(periodic_v))

    def chart(self, Q):
        Q = np.atleast_2d(Q)
        return self.origin + np.outer(Q[:, 0], self.du) + np.outer(Q[:, 1], self.dv)

    def chart_jac(self, Q):
        Q = np.atleast_2d(Q)
        J = np.stack([self.du, self.dv], axis=-1)
        return np.broadcast_to(J, (len(Q), 3, 2)).copy()

    def chart_hess(self, Q):
        Q = np.atleast_2d(Q)
        return np.zeros((len(Q), 3, 2, 2))


class RoundSphere(Immersion):
    """Closed round sphere via radial projection of the unit-cube surface.

    Parameter points live on the cube surface (param_dim = 3); the chart is
    center + r*q/|q|, which is smooth away from the origin.
    """

    param_dim = 3

    def __init__(self, radius=1.0, center=(0, 0, 0), orientation_sign=1):
        self.radius = _radius(radius, "sphere radius")
        self.center = vector3(center, "sphere center")
        self.orientation_sign = _orientation_sign(orientation_sign)
        self.domain = ("sphere",)

    def chart(self, Q):
        Q = np.atleast_2d(Q)
        r = np.linalg.norm(Q, axis=-1)
        return self.center + self.radius * Q / r[:, None]

    def chart_jac(self, Q):
        Q = np.atleast_2d(Q)
        r = np.linalg.norm(Q, axis=-1)
        eye = np.eye(3)[None]
        nn = Q[:, :, None] * Q[:, None, :] / (r**2)[:, None, None]
        return self.radius * (eye - nn) / r[:, None, None]

    def chart_hess(self, Q):
        Q = np.atleast_2d(Q)
        r = np.linalg.norm(Q, axis=-1)
        n = Q / r[:, None]
        eye3 = np.eye(3)
        nn = n[:, :, None] * n[:, None, :]
        # H[p,i,a,b] = r*(-d_ia n_b - d_ib n_a - n_i d_ab + 3 n_i n_a n_b)/|q|^2
        term = (-eye3[None, :, :, None] * n[:, None, None, :]
                - eye3[None, :, None, :] * n[:, None, :, None]
                - n[:, :, None, None] * eye3[None, None, :, :]
                + 3.0 * n[:, :, None, None] * nn[:, None, :, :])
        return self.radius * term / (r**2)[:, None, None, None]


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass
class SurfaceMesh:
    """Triangulated surface tied to its reference immersion."""

    immersion: Immersion
    params: Array              # (V, pd) parameter-space points
    positions: Array           # (V, 3) ambient positions
    triangles: Array           # (F, 3) int, consistently oriented
    tri_params: Array          # (F, 3, pd) per-corner parameters, seam-unwrapped
    boundary_edges: Array      # (B, 3) int: (v_i, v_j, arc_id)
    boundary_t: Array          # (B, 2) arc parameter range of each edge
    resolution: int
    n_loops: int = 0
    genus: int = 0
    # triangles with one edge on a boundary arc get a transfinite blend so
    # quadrature covers the exact parameter domain (no polygon sliver)
    curved_tri: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    curved_loc: Array = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    curved_arc: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    curved_t: Array = field(default_factory=lambda: np.zeros((0, 2)))

    @property
    def n_vertices(self):
        return len(self.params)

    @functools.cached_property
    def n_edges(self):
        e = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        return len(np.unique(e, axis=0))

    @property
    def chi(self):
        return self.n_vertices - self.n_edges + len(self.triangles)


def _boundary_loops(boundary_edges: Array) -> int:
    """Count connected components of the boundary edge graph (union-find)."""
    if len(boundary_edges) == 0:
        return 0
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for i, j in boundary_edges[:, :2]:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
    roots = {find(int(v)) for v in np.unique(boundary_edges[:, :2])}
    return len(roots)


def _min_angle_from_corners(p: Array) -> float:
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    c = p[:, 2] - p[:, 1]
    la = np.linalg.norm(a, axis=1)
    lb = np.linalg.norm(b, axis=1)
    lc = np.linalg.norm(c, axis=1)
    cos0 = np.sum(a * b, axis=1) / (la * lb)
    cos1 = -np.sum(a * c, axis=1) / (la * lc)
    cos2 = np.sum(b * c, axis=1) / (lb * lc)
    ang = np.degrees(np.arccos(np.clip(np.stack([cos0, cos1, cos2]), -1, 1)))
    return float(ang.min())


def _disk_mesh(rho: float, rings: int):
    """Concentric-ring triangulation of the disk of radius rho."""
    params = [np.zeros((1, 2))]
    ring_start = [0]
    for i in range(1, rings + 1):
        n = 6 * i
        ang = 2 * np.pi * np.arange(n) / n
        r = rho * i / rings
        params.append(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1))
        ring_start.append(ring_start[-1] + (1 if i == 1 else 6 * (i - 1)))
    params = np.concatenate(params)
    tris = []
    # center fan
    s1 = ring_start[1]
    for j in range(6):
        tris.append((0, s1 + j, s1 + (j + 1) % 6))
    # annuli: merge walk over sorted angles
    for i in range(2, rings + 1):
        n1, n2 = 6 * (i - 1), 6 * i
        o1, o2 = ring_start[i - 1], ring_start[i]
        a1 = 2 * np.pi * np.arange(n1 + 1) / n1
        a2 = 2 * np.pi * np.arange(n2 + 1) / n2
        i1 = i2 = 0
        while i1 < n1 or i2 < n2:
            next1 = a1[i1 + 1] if i1 < n1 else np.inf
            next2 = a2[i2 + 1] if i2 < n2 else np.inf
            if next2 <= next1:
                tris.append((o1 + i1 % n1, o2 + i2 % n2, o2 + (i2 + 1) % n2))
                i2 += 1
            else:
                tris.append((o1 + i1 % n1, o2 + i2 % n2, o1 + (i1 + 1) % n1))
                i1 += 1
    tris = np.asarray(tris, dtype=np.int64)
    # boundary: outer ring, arc parameter t = angle / 2pi
    nb = 6 * rings
    ob = ring_start[rings]
    be = np.stack([ob + np.arange(nb), ob + (np.arange(nb) + 1) % nb,
                   np.zeros(nb, dtype=np.int64)], axis=-1)
    bt = np.stack([np.arange(nb) / nb, (np.arange(nb) + 1) / nb], axis=-1)
    return params, tris, be, bt


def _rect_mesh(bounds, per_u, per_v, resolution):
    u0, u1, v0, v1 = bounds
    lu, lv = u1 - u0, v1 - v0
    if not lv / lu <= MAX_RECT_ASPECT:
        raise InputError(f"rect patch v_range is more than {MAX_RECT_ASPECT:g} "
                         f"times longer than its u_range")
    nu = resolution
    nv = max(2, int(round(resolution * lv / lu)))
    cols = nu if per_u else nu + 1
    rows = nv if per_v else nv + 1
    uu = u0 + lu * np.arange(cols) / nu
    vv = v0 + lv * np.arange(rows) / nv
    U, V = np.meshgrid(uu, vv, indexing="ij")
    params = np.stack([U.ravel(), V.ravel()], axis=-1)

    def vid(i, j):
        return (i % cols if per_u else i) * rows + (j % rows if per_v else j)

    def par(i, j):
        # unwrapped parameter coordinates (seam vertices keep u1/v1)
        return (u0 + lu * i / nu, v0 + lv * j / nv)

    tris, tp = [], []
    for i in range(nu):
        for j in range(nv):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            pa, pb = par(i, j), par(i + 1, j)
            pc, pd_ = par(i + 1, j + 1), par(i, j + 1)
            tris.append((a, b, c))
            tp.append((pa, pb, pc))
            tris.append((a, c, d))
            tp.append((pa, pc, pd_))
    tris = np.asarray(tris, dtype=np.int64)
    tp = np.asarray(tp, dtype=float)
    be, bt = [], []
    arc_id = 0
    if not per_v:
        for j, v_edge in ((0, 0), (nv, 1)):
            for i in range(nu):
                be.append((vid(i, j), vid(i + 1, j), arc_id + v_edge))
                bt.append((i / nu, (i + 1) / nu))
        arc_id += 2
    if not per_u:
        for i, u_edge in ((0, 0), (nu, 1)):
            for j in range(nv):
                be.append((vid(i, j), vid(i, j + 1), arc_id + u_edge))
                bt.append((j / nv, (j + 1) / nv))
    be = np.asarray(be, dtype=np.int64).reshape(-1, 3)
    bt = np.asarray(bt, dtype=float).reshape(-1, 2)
    return params, tris, tp, be, bt


def _cube_sphere_mesh(resolution):
    """Triangulated cube surface (params), for radial-projection spheres."""
    n = max(4, resolution // 2)
    verts = []
    index = {}

    def vid(p):
        key = tuple(np.round(p, 12))
        if key not in index:
            index[key] = len(verts)
            verts.append(np.asarray(p, float))
        return index[key]

    tris = []
    axes = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for ax, a1, a2 in axes:
        for sgn in (1.0, -1.0):
            grid = np.empty((n + 1, n + 1), dtype=np.int64)
            for i in range(n + 1):
                for j in range(n + 1):
                    p = np.zeros(3)
                    p[ax] = sgn
                    p[a1] = -1 + 2 * i / n
                    p[a2] = -1 + 2 * j / n
                    grid[i, j] = vid(p)
            for i in range(n):
                for j in range(n):
                    a, b = grid[i, j], grid[i + 1, j]
                    c, d = grid[i + 1, j + 1], grid[i, j + 1]
                    if sgn > 0:
                        tris.append((a, b, c))
                        tris.append((a, c, d))
                    else:
                        tris.append((a, c, b))
                        tris.append((a, d, c))
    params = np.asarray(verts)
    tris = np.asarray(tris, dtype=np.int64)
    return params, tris


def mesh_from_immersion(imm: Immersion, resolution: int,
                        space: Optional[AmbientSpace] = None) -> SurfaceMesh:
    """Build a triangle mesh over the immersion's parameter domain.

    With an ambient space given, boundary vertices are refined by one Newton
    step onto {phi = 0} and checked to 1e-10.
    """
    if not 4 <= resolution <= MAX_RESOLUTION:
        raise InputError(f"resolution must lie in [4, {MAX_RESOLUTION}]")
    kind = imm.domain[0]
    tp = None
    if kind == "disk":
        params, tris, be, bt = _disk_mesh(imm.domain[1], resolution)
    elif kind == "rect":
        params, tris, tp, be, bt = _rect_mesh(imm.domain[1], imm.domain[2],
                                              imm.domain[3], resolution)
    elif kind == "sphere":
        params, tris = _cube_sphere_mesh(resolution)
        be = np.zeros((0, 3), dtype=np.int64)
        bt = np.zeros((0, 2))
    else:
        raise InputError(f"unknown parameter domain '{kind}'")

    positions = imm.chart(params)
    if kind == "sphere":
        # orient triangles so the parametric normal matches orientation_sign
        ctr = positions.mean(axis=0)
        p = positions[tris]
        nrm = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        out = np.sum(nrm * (p.mean(axis=1) - ctr), axis=1)
        flip = out < 0
        tris[flip] = tris[flip][:, [0, 2, 1]]

    # project boundary vertices onto the ambient boundary
    if space is not None and space.boundary is not None and len(be):
        bidx = np.unique(be[:, :2])
        P = positions[bidx]
        phi = np.atleast_1d(space.boundary.phi(P))
        g = space.boundary.grad_phi(P)
        P = P - phi[:, None] * g / np.sum(g * g, axis=-1)[:, None]
        res = np.max(np.abs(np.atleast_1d(space.boundary.phi(P))))
        if not res <= 1e-10:
            raise MeshingError(
                f"boundary projection residual {res:.2e} exceeds 1e-10")
        positions[bidx] = P

    if tp is None:
        tp = params[tris]
    mesh = SurfaceMesh(imm, params, positions, tris, tp, be, bt, resolution)
    if len(be):
        edge_map = {}
        locs = ((0, 1), (1, 2), (2, 0))
        for f_idx, t in enumerate(tris):
            for li, lj in locs:
                edge_map[(t[li], t[lj])] = (f_idx, li, lj)
        c_tri, c_loc, c_arc, c_t = [], [], [], []
        for (vi, vj, aid), (t0, t1) in zip(be, bt):
            key = (vi, vj) if (vi, vj) in edge_map else (vj, vi)
            f_idx, li, lj = edge_map[key]
            if key[0] != vi:
                li, lj = lj, li
            c_tri.append(f_idx)
            c_loc.append((li, lj))
            c_arc.append(aid)
            c_t.append((t0, t1))
        mesh.curved_tri = np.asarray(c_tri, dtype=np.int64)
        mesh.curved_loc = np.asarray(c_loc, dtype=np.int64)
        mesh.curved_arc = np.asarray(c_arc, dtype=np.int64)
        mesh.curved_t = np.asarray(c_t, dtype=float)
    corners = imm.chart(tp.reshape(-1, tp.shape[2])).reshape(len(tris), 3, 3)
    if not _min_angle_from_corners(corners) >= 5.0:
        raise MeshingError("mesh contains a triangle with min angle < 5 degrees")
    m = _boundary_loops(be)
    mesh.n_loops = m
    mesh.genus = (2 - m - mesh.chi) // 2
    return mesh


# ---------------------------------------------------------------------------
# extrinsic geometry
# ---------------------------------------------------------------------------

@dataclass
class ExtrinsicData:
    """Pointwise geometry at interior and boundary quadrature points."""

    # interior arrays, one entry per (triangle, quadrature point)
    params: Array            # (Q, pd)
    pos: Array               # (Q, 3)
    E1: Array                # (Q, 3) chart derivative along edge q1-q0
    E2: Array
    D1: Array                # (Q, pd) parameter-space direction behind E1
    D2: Array
    Ginv: Array              # (Q, 2, 2) inverse metric in the (E1, E2) frame
    w_da: Array              # unweighted area element x quadrature weight
    f: Array
    N: Array
    H: Array
    H_f: Array
    sigma2: Array
    K: Array
    ricf_NN: Array
    grad_psi: Array          # ambient gradient of psi
    grad_s_psi: Array        # tangential gradient of psi
    lap_s_psi: Array         # surface Laplacian of psi
    S_f: Array
    # boundary arrays, one entry per (boundary edge, quadrature point)
    bedge_index: Array = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    bedge_local: Array = field(default_factory=lambda: np.zeros(0))
    b_params: Array = field(default_factory=lambda: np.zeros((0, 2)))
    b_pos: Array = field(default_factory=lambda: np.zeros((0, 3)))
    b_nu: Array = field(default_factory=lambda: np.zeros((0, 3)))
    b_xi: Array = field(default_factory=lambda: np.zeros((0, 3)))
    b_N: Array = field(default_factory=lambda: np.zeros((0, 3)))
    contact: Array = field(default_factory=lambda: np.zeros(0))
    II_NN: Array = field(default_factory=lambda: np.zeros(0))
    Hf_boundary: Array = field(default_factory=lambda: np.zeros(0))
    h_geod: Array = field(default_factory=lambda: np.zeros(0))
    w_dl: Array = field(default_factory=lambda: np.zeros(0))
    f_b: Array = field(default_factory=lambda: np.zeros(0))

    @property
    def w_daf(self):
        return self.w_da * self.f

    @property
    def w_dlf(self):
        return self.w_dl * self.f_b

    @property
    def has_boundary(self):
        return len(self.bedge_index) > 0


def _blended_param_points(imm: Immersion, mesh: SurfaceMesh):
    """Per-quadrature-point parameters, tangent directions, and curvature.

    Affine triangles give constant directions and zero second derivatives;
    triangles with a boundary-arc edge get the transfinite blend pulling the
    straight edge onto the arc, so the union of elements covers the exact
    parameter domain.
    """
    tp = mesh.tri_params
    F = len(tp)
    R = len(TRI_POINTS)
    pd = tp.shape[2]
    q0 = tp[:, 0]
    d1 = tp[:, 1] - q0
    d2 = tp[:, 2] - q0
    xi = TRI_POINTS[:, 0]
    eta = TRI_POINTS[:, 1]
    Q = (q0[:, None, :] + xi[None, :, None] * d1[:, None, :]
         + eta[None, :, None] * d2[:, None, :])
    D1 = np.broadcast_to(d1[:, None, :], (F, R, pd)).copy()
    D2 = np.broadcast_to(d2[:, None, :], (F, R, pd)).copy()
    Q11 = np.zeros((F, R, pd))
    Q12 = np.zeros((F, R, pd))
    Q22 = np.zeros((F, R, pd))
    if len(mesh.curved_tri):
        dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        arcs = imm.boundary_arcs()
        for aid in np.unique(mesh.curved_arc):
            sel = mesh.curved_arc == aid
            ct = mesh.curved_tri[sel]
            li = mesh.curved_loc[sel, 0]
            lj = mesh.curved_loc[sel, 1]
            ti = mesh.curved_t[sel, 0]
            tj = mesh.curved_t[sel, 1]
            arc = arcs[int(aid)]
            a = TRI_HATS[li]                            # (C, R)
            b = TRI_HATS[lj]
            da = dlam[li]                               # (C, 2)
            db = dlam[lj]
            S = a + b
            u = b / S
            dt = (tj - ti)[:, None]
            t = ti[:, None] + dt * u
            C = len(ct)
            cv = arc.c(t.ravel()).reshape(C, R, pd)
            dcv = arc.dc(t.ravel()).reshape(C, R, pd)
            ddcv = arc.ddc(t.ravel()).reshape(C, R, pd)
            pi = tp[ct, li]                             # (C, pd)
            pj = tp[ct, lj]
            dp = (pj - pi)[:, None, :]
            g = cv - (pi[:, None, :] + dp * u[..., None])
            gp = dt[..., None] * dcv - dp
            gpp = (dt**2)[..., None] * ddcv
            Sa = da + db                                # (C, 2)
            num = a[..., None] * db[:, None, :] - b[..., None] * da[:, None, :]
            ua = num / (S**2)[..., None]                # (C, R, 2)
            # u_{alpha beta}
            uab = np.empty((C, R, 2, 2))
            for al in range(2):
                for be_ in range(2):
                    uab[:, :, al, be_] = (
                        (da[:, be_] * db[:, al] - db[:, be_] * da[:, al])[:, None]
                        / S**2
                        - 2.0 * num[:, :, al] * Sa[:, be_][:, None] / S**3)
            Sb = S[..., None]
            Q[ct] += Sb * g
            D1[ct] += Sa[:, 0][:, None, None] * g + Sb * gp * ua[:, :, 0][..., None]
            D2[ct] += Sa[:, 1][:, None, None] * g + Sb * gp * ua[:, :, 1][..., None]
            u1 = ua[:, :, 0][..., None]
            u2 = ua[:, :, 1][..., None]
            Q11[ct] = (2 * Sa[:, 0][:, None, None] * gp * u1
                       + Sb * gpp * u1**2 + Sb * gp * uab[:, :, 0, 0][..., None])
            Q12[ct] = (Sa[:, 0][:, None, None] * gp * u2
                       + Sa[:, 1][:, None, None] * gp * u1
                       + Sb * gpp * u1 * u2
                       + Sb * gp * uab[:, :, 0, 1][..., None])
            Q22[ct] = (2 * Sa[:, 1][:, None, None] * gp * u2
                       + Sb * gpp * u2**2 + Sb * gp * uab[:, :, 1, 1][..., None])
    n = F * R
    return (Q.reshape(n, pd), D1.reshape(n, pd), D2.reshape(n, pd),
            Q11.reshape(n, pd), Q12.reshape(n, pd), Q22.reshape(n, pd))


def _chart_at_quadrature(imm: Immersion, mesh: SurfaceMesh):
    """Blended parameters Q with their directions D1, D2, the chart's
    positions and Jacobian at Q, and the blend's (Q11, Q12, Q22)."""
    Q, D1, D2, Q11, Q12, Q22 = _blended_param_points(imm, mesh)
    return Q, D1, D2, imm.chart(Q), imm.chart_jac(Q), (Q11, Q12, Q22)


def _first_order_fields(space: AmbientSpace, orientation_sign: int,
                        Q: Array, D1: Array, D2: Array,
                        pos: Array, J: Array) -> dict:
    """First-order ExtrinsicData fields from the chart at quadrature points."""
    if space.dim != 3:
        raise InputError("surface geometry supports 3-dimensional ambients only")
    E1 = np.einsum("nia,na->ni", J, D1)
    E2 = np.einsum("nia,na->ni", J, D2)
    g11 = np.sum(E1 * E1, axis=1)
    g12 = np.sum(E1 * E2, axis=1)
    g22 = np.sum(E2 * E2, axis=1)
    detG = g11 * g22 - g12 * g12
    if not np.all(detG > 1e-20):
        raise ImmersionError("chart Jacobian is rank deficient at a quadrature point")
    Ginv = np.empty((len(Q), 2, 2))
    Ginv[:, 0, 0] = g22 / detG
    Ginv[:, 1, 1] = g11 / detG
    Ginv[:, 0, 1] = Ginv[:, 1, 0] = -g12 / detG
    Nv = np.cross(E1, E2)
    Nv = orientation_sign * Nv / np.linalg.norm(Nv, axis=1)[:, None]
    return dict(params=Q, pos=pos,
                E1=E1, E2=E2, D1=D1, D2=D2, Ginv=Ginv,
                w_da=np.sqrt(detG) * np.tile(TRI_WEIGHTS,
                                             len(Q) // len(TRI_WEIGHTS)),
                f=np.exp(space.density.psi(pos)), N=Nv)


def _shape_operator(Hc: Array, d1r: Array, d2r: Array,
                    J: Array, Q2, Nv: Array, Ginv: Array) -> Array:
    """Shape operator in the (E1, E2) frame from the chart Hessian Hc
    along the blended directions; its temporaries are the largest of the
    geometry and are freed on return."""
    Q11, Q12, Q22 = Q2
    F11 = np.einsum("niab,na,nb->ni", Hc, d1r, d1r) + np.einsum("nia,na->ni", J, Q11)
    F12 = np.einsum("niab,na,nb->ni", Hc, d1r, d2r) + np.einsum("nia,na->ni", J, Q12)
    F22 = np.einsum("niab,na,nb->ni", Hc, d2r, d2r) + np.einsum("nia,na->ni", J, Q22)
    # second fundamental form coordinate components: sigma_ab = -<N, F_ab>
    L = np.empty((len(J), 2, 2))
    L[:, 0, 0] = -np.sum(Nv * F11, axis=1)
    L[:, 0, 1] = L[:, 1, 0] = -np.sum(Nv * F12, axis=1)
    L[:, 1, 1] = -np.sum(Nv * F22, axis=1)
    return np.einsum("nab,nbc->nac", Ginv, L)


def _interior_geometry(space: AmbientSpace, sign: int, Q: Array, D1: Array,
                       D2: Array, pos: Array, J: Array, Q2, Hc: Array):
    first = _first_order_fields(space, sign, Q, D1, D2, pos, J)
    Nv = first["N"]
    S = _shape_operator(Hc, D1, D2, J, Q2, Nv, first["Ginv"])
    trS = S[:, 0, 0] + S[:, 1, 1]
    H = -0.5 * trS
    sigma2 = np.einsum("nab,nba->n", S, S)
    K = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    gpsi = space.density.grad_psi(pos)
    gN = np.sum(gpsi * Nv, axis=1)
    ricf_NN = bakry_emery_ricci(space, pos, Nv)
    # lap_S psi = lap psi - hess(psi)(N, N) + 2 H <grad psi, N>
    lap_s = space.density.lap_psi(pos) + ricf_NN + 2.0 * H * gN
    return dict(first, H=H, H_f=2.0 * H - gN, sigma2=sigma2, K=K,
                ricf_NN=ricf_NN, grad_psi=gpsi,
                grad_s_psi=gpsi - gN[:, None] * Nv, lap_s_psi=lap_s,
                S_f=perelman_scalar(space, pos))


def _chart_at_boundary(imm: Immersion, mesh: SurfaceMesh):
    """The chart at the boundary quadrature points, Gauss2 on each boundary
    edge with the edges grouped by arc: the edge of each point, its
    parameters qb, the ambient boundary curve g with its derivatives g' and
    g'' in the arc parameter, the chart Jacobian Jb and an ambient direction
    v_in pointing into the surface.  None for a mesh without boundary."""
    arc_id = mesh.boundary_edges[:, 2]
    if len(arc_id) == 0:
        return None
    R = len(EDGE_POINTS)
    edges = np.repeat(np.argsort(arc_id, kind="stable"), R)
    t0, t1 = mesh.boundary_t[edges].T
    ts = t0 + np.tile(EDGE_POINTS, len(edges) // R) * (t1 - t0)
    q, dq, ddq, inward = (np.empty((len(ts), 2)) for _ in range(4))
    arcs = imm.boundary_arcs()
    for aid in np.unique(arc_id):
        sel = arc_id[edges] == aid
        arc = arcs[int(aid)]
        q[sel], dq[sel] = arc.c(ts[sel]), arc.dc(ts[sel])
        ddq[sel], inward[sel] = arc.ddc(ts[sel]), arc.inward(ts[sel])
    g = imm.chart(q)
    Jb = imm.chart_jac(q)
    dg = np.einsum("nia,na->ni", Jb, dq)
    ddg = (np.einsum("niab,na,nb->ni", imm.chart_hess(q), dq, dq)
           + np.einsum("nia,na->ni", Jb, ddq))
    eps = 1e-4
    v_in = (imm.chart(q + eps * inward) - g) / eps
    return edges, q, g, dg, ddg, Jb, v_in


def _boundary_geometry(space: AmbientSpace, sign: int, mesh: SurfaceMesh,
                       edges: Array, qb: Array, g: Array, dg: Array,
                       ddg: Array, Jb: Array, v_in: Array):
    """Boundary fields from the arrays that _chart_at_boundary returns."""
    n_edges = len(edges) // len(EDGE_POINTS)
    speed = np.linalg.norm(dg, axis=1)
    T = dg / speed[:, None]
    # curve acceleration projected off T, per unit length
    acc = (ddg - np.sum(ddg * T, axis=1)[:, None] * T) / speed[:, None] ** 2
    Nv = _normal_from_jac(sign, Jb)
    nu = np.cross(Nv, T)
    nu = nu * np.sign(np.sum(nu * v_in, axis=1))[:, None]
    t0, t1 = mesh.boundary_t[edges].T
    if space.boundary is not None:
        xi = np.atleast_2d(boundary_inner_normal(space, g))
        IImat = boundary_ii_matrix(space, g)
        II_NN = np.einsum("nij,ni,nj->n", np.atleast_3d(IImat), Nv, Nv)
        Hf_b = np.atleast_1d(boundary_f_mean_curvature(space, g))
        contact = np.sum(Nv * xi, axis=1)
    else:
        xi = np.zeros_like(g)
        II_NN = np.zeros(len(g))
        Hf_b = np.zeros(len(g))
        contact = np.zeros(len(g))
    return dict(bedge_index=edges, bedge_local=np.tile(EDGE_POINTS, n_edges),
                b_params=qb, b_pos=g, b_nu=nu, b_xi=xi, b_N=Nv,
                contact=contact, II_NN=II_NN, Hf_boundary=Hf_b,
                h_geod=np.sum(acc * nu, axis=1),
                w_dl=np.tile(EDGE_WEIGHTS, n_edges) * (t1 - t0) * speed,
                f_b=np.exp(space.density.psi(g)))


def _normal_from_jac(sign: int, J: Array) -> Array:
    """Unit normal from a chart Jacobian (works for param_dim 2 and 3),
    oriented by the immersion's orientation sign."""
    if J.shape[2] == 2:
        Nv = np.cross(J[:, :, 0], J[:, :, 1])
    else:
        # param_dim 3: the Jacobian has rank 2; normal spans its null space
        U, s, Vt = np.linalg.svd(J)
        Nv = U[:, :, 2]
        # fix a consistent sign using the cross of the two leading columns
        cr = np.cross(U[:, :, 0], U[:, :, 1])
        Nv = Nv * np.sign(np.sum(Nv * cr, axis=1))[:, None]
    return sign * Nv / np.linalg.norm(Nv, axis=1)[:, None]


def _fields_from_chart(space: AmbientSpace, sign: int, mesh: SurfaceMesh,
                       chart, Hc: Array, boundary) -> ExtrinsicData:
    """All pointwise geometry from the chart at the quadrature points (the
    tuple _chart_at_quadrature returns), the chart Hessian Hc there and
    the boundary arrays of _chart_at_boundary (None without a boundary)."""
    fields = _interior_geometry(space, sign, *chart, Hc)
    if boundary is not None:
        fields.update(_boundary_geometry(space, sign, mesh, *boundary))
    return ExtrinsicData(**fields)


def extrinsic_geometry(space: AmbientSpace, imm: Immersion,
                       mesh: SurfaceMesh) -> ExtrinsicData:
    """Evaluate all pointwise geometry at quadrature points of the mesh."""
    chart = _chart_at_quadrature(imm, mesh)
    return _fields_from_chart(space, imm.orientation_sign, mesh, chart,
                              imm.chart_hess(chart[0]),
                              _chart_at_boundary(imm, mesh))


@dataclass(frozen=True)
class StationarityVerdict:
    strong: bool
    volume_constrained: bool
    H_f_mean: float
    H_f_spread: float
    max_contact: float


def stationarity_verdict(data: ExtrinsicData,
                         tol_H: Optional[float] = None) -> StationarityVerdict:
    """Constant H_f within tol_H and orthogonal contact within 1e-6."""
    w = data.w_daf
    mean = float(np.sum(data.H_f * w) / np.sum(w))
    spread = float(np.max(np.abs(data.H_f - mean)))
    contact = float(np.max(np.abs(data.contact))) if data.has_boundary else 0.0
    if tol_H is None:
        tol_H = 1e-6 * (1.0 + abs(mean))
    vc = spread <= tol_H and contact <= 1e-6
    strong = vc and abs(mean) <= tol_H
    return StationarityVerdict(strong, vc, mean, spread, contact)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def export_off(mesh: SurfaceMesh, path: str) -> None:
    """ASCII OFF plus a '<path>.bnd' sidecar with boundary edge records."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {len(mesh.triangles)} 0\n")
        for p in mesh.positions:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
    with open(path + ".bnd", "w") as fh:
        fh.write("# v_i v_j arc_id t0 t1\n")
        for (i, j, a), (t0, t1) in zip(mesh.boundary_edges, mesh.boundary_t):
            fh.write(f"{i} {j} {a} {t0:.17g} {t1:.17g}\n")


def import_off(path: str):
    """Read an OFF file; returns (positions, triangles, boundary_edges, boundary_t)."""
    with open(path) as fh:
        tokens = fh.read().split()
    if tokens[0] != "OFF":
        raise InputError("not an OFF file")
    nv, nf = int(tokens[1]), int(tokens[2])
    k = 4
    pos = np.array(tokens[k:k + 3 * nv], dtype=float).reshape(nv, 3)
    k += 3 * nv
    tris = []
    for _ in range(nf):
        cnt = int(tokens[k])
        if cnt != 3:
            raise InputError("only triangle faces are supported")
        tris.append([int(tokens[k + 1]), int(tokens[k + 2]), int(tokens[k + 3])])
        k += 4
    be = np.zeros((0, 3), dtype=np.int64)
    bt = np.zeros((0, 2))
    try:
        rows = np.loadtxt(path + ".bnd", comments="#", ndmin=2)
        if rows.size:
            be = rows[:, :3].astype(np.int64)
            bt = rows[:, 3:5]
    except OSError:
        pass
    return pos, np.asarray(tris, dtype=np.int64), be, bt

