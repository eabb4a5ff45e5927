"""Immersed surfaces with boundary: charts, meshes, extrinsic geometry.

All curvature quantities come from first and second derivatives of the
reference immersion evaluated at quadrature points; the triangle mesh only
carries connectivity and quadrature structure.  Every immersion supplies
analytic first and second chart derivatives.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .ambient import (AmbientSpace, DensityJet, boundary_f_mean_curvature,
                      boundary_ii_matrix, boundary_inner_normal, dot, norm,
                      ordered_sum, point_columns, quadratic_form,
                      squared_norm, unit_vector3, vector3)
from .errors import (ImmersionError, InputError, MeshingError,
                     PreconditionError)

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
# meshes hold about resolution^2 triangles in numpy arrays of about
# resolution^2 rows; this is 8 times the finest resolution any builtin,
# test or benchmark uses
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

    Subclasses set ``domain`` and implement, on a batch Q (N, pd) of
    parameter points with pd = ``param_dim``, ``chart`` (N, 3) and its
    analytic derivatives ``chart_jac`` (N, 3, pd) and ``chart_hess``
    (N, 3, pd, pd), both component-major (``ambient.point_columns``).
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
    c = float(a[2])
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    # vx @ vx = v v^T - |v|^2 I
    vx2 = np.outer(v, v) - dot(v, v) * np.eye(3)
    return np.eye(3) + vx + vx2 / (1.0 + c)


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
        """The unscaled chart e / D as the components of e, with D, u, v."""
        u, v = Q[:, 0], Q[:, 1]
        w = u * u + v * v
        return (2 * u, 2 * v, 1 - w), 1.0 + w, u, v

    def chart(self, Q):
        e, D, *_ = self._unit(Q)
        s = [self.radius * (ej / D) for ej in e]
        return np.stack([c + dot(row, s)
                         for c, row in zip(self.center, self.rot)]).T

    @staticmethod
    def _first(u, v):
        """(e_a, D_a) for a = u, v: e_u = (2, 0, -2u), D_u = 2u and
        e_v = (0, 2, -2v), D_v = 2v."""
        return ((2.0, 0.0, -2 * u), 2 * u), ((0.0, 2.0, -2 * v), 2 * v)

    def chart_jac(self, Q):
        e, D, u, v = self._unit(Q)
        rot, J = self.rot, point_columns(len(D), 3, 2)
        D2 = D**2
        for a, (e_a, D_a) in enumerate(self._first(u, v)):
            k = D_a / D2
            s = [(e_a[j] / D - e[j] * k) * self.radius for j in range(3)]
            for i in range(3):
                J[:, i, a] = dot(rot[i], s)
        return J

    def chart_hess(self, Q):
        e, D, u, v = self._unit(Q)
        e_a, D_a = zip(*self._first(u, v))
        rot, H = self.rot, point_columns(len(D), 3, 2, 2)
        D2, D3 = D**2, D**3
        for a in range(2):
            for b in range(2):
                # e_uu = e_vv = (0, 0, -2), e_uv = 0; D_ab = 2 delta_ab
                e_ab = (0.0, 0.0, -2.0 if a == b else 0.0)
                D_ab = 2.0 if a == b else 0.0
                s = [e_ab[j] / D - e_a[a][j] * D_a[b] / D2
                     - e_a[b][j] * D_a[a] / D2 - e[j] * D_ab / D2
                     + 2.0 * e[j] * D_a[a] * D_a[b] / D3 for j in range(3)]
                for i in range(3):
                    H[:, i, a, b] = self.radius * dot(rot[i], s)
        return H


class AffineImmersion(Immersion):
    """chart(u, v) = origin + u*du + v*dv."""

    origin: Array
    du: Array
    dv: Array

    def chart(self, Q):
        return self.origin + np.outer(Q[:, 0], self.du) + np.outer(Q[:, 1], self.dv)

    def chart_jac(self, Q):
        J = point_columns(len(Q), 3, 2)
        J[...] = np.stack([self.du, self.dv], axis=-1)
        return J

    def chart_hess(self, Q):
        H = point_columns(len(Q), 3, 2, 2)
        H[...] = 0.0
        return H


class PlanarDisk(AffineImmersion):
    """Flat disk spanned by two orthonormal vectors."""

    def __init__(self, center=(0, 0, 0), e1=(1, 0, 0), e2=(0, 1, 0),
                 radius=1.0, orientation_sign=1):
        self.origin = vector3(center, "disk center")
        self.du = vector3(e1, "disk e1")
        self.dv = vector3(e2, "disk e2")
        if not (abs(self.du @ self.dv) <= 1e-12
                and abs(np.linalg.norm(self.du) - 1) <= 1e-12
                and abs(np.linalg.norm(self.dv) - 1) <= 1e-12):
            raise InputError("disk frame must be orthonormal")
        self.radius = _radius(radius, "disk radius")
        self.orientation_sign = _orientation_sign(orientation_sign)
        self.domain = ("disk", self.radius)


class RectPatch(AffineImmersion):
    """Affine patch over a rectangle, optionally periodic in u and/or v.

    Used for flat slices of product ambients (cylinders and tori in
    periodic coordinates).
    """

    def __init__(self, origin=(0, 0, 0), du=(0, 1, 0), dv=(0, 0, 1),
                 u_range=(0.0, 1.0), v_range=(0.0, 1.0),
                 periodic_u=False, periodic_v=False, orientation_sign=1):
        self.origin = vector3(origin, "patch origin")
        self.du = vector3(du, "patch du")
        self.dv = vector3(dv, "patch dv")
        # du and dv must span a plane: finite, nonzero and not parallel
        if not np.linalg.norm(np.cross(unit_vector3(du, "patch du"),
                                       unit_vector3(dv, "patch dv"))) > 1e-12:
            raise InputError("patch du and dv must not be parallel")
        self.orientation_sign = _orientation_sign(orientation_sign)
        ranges = np.asarray([u_range, v_range], float)
        if (ranges.shape != (2, 2) or not np.all(np.isfinite(ranges))
                or np.any(ranges[:, 0] >= ranges[:, 1])):
            raise InputError("patch u_range and v_range need 2 finite, "
                             "increasing entries each")
        self.domain = ("rect", tuple(float(x) for x in ranges.ravel()),
                       bool(periodic_u), bool(periodic_v))


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
        return self.center + self.radius * Q / norm(Q)[:, None]

    def chart_jac(self, Q):
        r = norm(Q)
        r2 = r**2
        J = point_columns(len(Q), 3, 3)
        for i in range(3):
            for j in range(3):
                J[:, i, j] = self.radius * ((1.0 if i == j else 0.0)
                                            - Q[:, i] * Q[:, j] / r2) / r
        return J

    def chart_hess(self, Q):
        r = norm(Q)
        r2 = r**2
        n = Q.T / r
        H = point_columns(len(Q), 3, 3, 3)
        # H[p,i,a,b] = r*(-d_ia n_b - d_ib n_a - n_i d_ab + 3 n_i n_a n_b)/|q|^2
        for i in range(3):
            n3 = 3.0 * n[i]
            for a in range(3):
                d_ia = 1.0 if i == a else 0.0
                for b in range(3):
                    d_ib = 1.0 if i == b else 0.0
                    d_ab = 1.0 if a == b else 0.0
                    term = (-d_ia * n[b] - d_ib * n[a] - n[i] * d_ab
                            + n3 * (n[a] * n[b]))
                    H[:, i, a, b] = self.radius * term / r2
        return H


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    edges: Array               # (E, 2) int: each edge's (v_i, v_j), v_i < v_j
    triangle_edges: Array      # (F, 3) int: edge c joins corners c, c + 1
    boundary_edge_ids: Array   # (B,) int: each boundary edge's edge
    n_loops: int               # connected components of the boundary
    # the triangle of each boundary edge and its corners holding (v_i, v_j):
    # it gets a transfinite blend so quadrature covers the exact parameter
    # domain (no polygon sliver)
    curved_tri: Array          # (B,) int
    curved_loc: Array          # (B, 2) int

    @property
    def n_vertices(self):
        return len(self.params)

    @property
    def chi(self):
        return self.n_vertices - len(self.edges) + len(self.triangles)


def _min_angle_from_corners(p: Array) -> float:
    a, b, c = ((p[:, j] - p[:, i]).T for i, j in ((0, 1), (0, 2), (1, 2)))
    la, lb, lc = (np.sqrt(dot(x, x)) for x in (a, b, c))
    cos0 = dot(a, b) / (la * lb)
    cos1 = -dot(a, c) / (la * lc)
    cos2 = dot(b, c) / (lb * lc)
    ang = np.degrees(np.arccos(np.clip(np.stack([cos0, cos1, cos2]), -1, 1)))
    return float(ang.min())


def _disk_mesh(rho: float, rings: int):
    """Concentric-ring triangulation of the disk of radius rho.

    Ring i >= 1 holds 6i vertices at angles 2 pi j / 6i, starting at
    vertex 1 + 3i(i-1).  The annulus between rings i-1 and i is a merge
    walk over the two rings' next angles, one triangle per step, taking the
    outer ring's step first on ties.
    """
    ring = np.repeat(np.arange(1, rings + 1), 6 * np.arange(1, rings + 1))
    ang = 2 * np.pi * (np.arange(len(ring)) - 3 * ring * (ring - 1)) / (6 * ring)
    r = rho * ring / rings
    params = np.concatenate([np.zeros((1, 2)), np.stack(
        [r * np.cos(ang), r * np.sin(ang)], axis=-1)])
    j = np.arange(6)
    fan = np.stack([np.zeros(6, dtype=np.int64), 1 + j, 1 + (j + 1) % 6],
                   axis=-1)
    # the steps of the annuli i = 2..rings: the outer rings', step k of n
    # at angle 2 pi k / n, then the inner rings'; sorted by annulus, angle
    # and ring, a tie takes the outer ring's step first
    outer = np.arange(2, rings + 1)
    n = np.concatenate([6 * outer, 6 * (outer - 1)])
    i = np.repeat(np.concatenate([outer, outer]), n)
    inner = np.repeat(np.arange(len(n)) >= len(outer), n)
    k = 1 + np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
    order = np.lexsort((inner, 2 * np.pi * k / np.repeat(n, n), i))
    i, inner = i[order], inner[order]
    n1, o1 = 6 * (i - 1), 1 + 3 * (i - 1) * (i - 2)
    n2, o2 = 6 * i, 1 + 3 * i * (i - 1)
    # steps taken per ring before this one: annulus i starts at step
    # 6i(i-2), after 3(i-1)(i-2) inner steps
    i1 = np.cumsum(inner) - inner - 3 * (i - 1) * (i - 2)
    i2 = np.arange(len(i)) - 6 * i * (i - 2) - i1
    walk = np.stack([o1 + i1 % n1, o2 + i2 % n2,
                     np.where(inner, o1 + (i1 + 1) % n1, o2 + (i2 + 1) % n2)],
                    axis=-1)
    tris = np.concatenate([fan, walk])
    # boundary: outer ring, arc parameter t = angle / 2pi
    nb = 6 * rings
    ob = 1 + 3 * rings * (rings - 1)
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
        return np.stack([u0 + lu * i / nu, v0 + lv * j / nv], axis=-1)

    # cells (i, j) in row-major order, two triangles each: (a, b, c), (a, c, d)
    i, j = (x.ravel() for x in np.meshgrid(np.arange(nu), np.arange(nv),
                                           indexing="ij"))
    corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
    tris = np.stack([vid(*corners[c]) for c in (0, 1, 2, 0, 2, 3)],
                    axis=-1).reshape(-1, 3)
    tp = np.stack([par(*corners[c]) for c in (0, 1, 2, 0, 2, 3)],
                  axis=1).reshape(-1, 3, 2)
    be, bt = [], []
    arc_id = 0
    if not per_v:
        i = np.arange(nu)
        for j, v_edge in ((0, 0), (nv, 1)):
            be.append(np.stack([vid(i, j), vid(i + 1, j),
                                np.full(nu, arc_id + v_edge)], axis=-1))
            bt.append(np.stack([i / nu, (i + 1) / nu], axis=-1))
        arc_id += 2
    if not per_u:
        j = np.arange(nv)
        for i, u_edge in ((0, 0), (nu, 1)):
            be.append(np.stack([vid(i, j), vid(i, j + 1),
                                np.full(nv, arc_id + u_edge)], axis=-1))
            bt.append(np.stack([j / nv, (j + 1) / nv], axis=-1))
    be = np.concatenate(be or [np.zeros((0, 3), dtype=np.int64)])
    bt = np.concatenate(bt or [np.zeros((0, 2))])
    return params, tris, tp, be, bt


def _cube_sphere_mesh(resolution):
    """Triangulated cube surface (params), for radial-projection spheres.

    Each face is an n x n grid of cells.  The faces share their edge
    vertices; vertices are numbered in the order the faces first reach
    them, so a vertex's lattice index (its coordinates in steps of 2/n)
    identifies it across faces.
    """
    n = max(4, resolution // 2)
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    grid = -1 + 2 * np.stack([i, j]) / n
    points, lattice = [], []
    for ax, a1, a2 in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for sgn in (1.0, -1.0):
            p = np.empty((n + 1, n + 1, 3))
            p[..., ax] = sgn
            p[..., a1], p[..., a2] = grid
            q = np.empty((n + 1, n + 1, 3), dtype=np.int64)
            q[..., ax] = n if sgn > 0 else 0
            q[..., a1], q[..., a2] = i, j
            points.append(p.reshape(-1, 3))
            lattice.append(q.reshape(-1, 3))
    points = np.concatenate(points)
    key = np.concatenate(lattice) @ np.array([(n + 1) ** 2, n + 1, 1])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(len(order))
    params = points[first[order]]
    grid = renumber[inverse].reshape(6, n + 1, n + 1)
    a, b = grid[:, :-1, :-1], grid[:, 1:, :-1]
    c, d = grid[:, 1:, 1:], grid[:, :-1, 1:]
    pos = np.array([True, False] * 3)[:, None, None]
    # positive faces (a, b, c), (a, c, d); negative faces reversed
    tris = np.stack([a, np.where(pos, b, c), np.where(pos, c, b),
                     a, np.where(pos, c, d), np.where(pos, d, c)],
                    axis=-1).reshape(-1, 3)
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
        out = dot(nrm.T, (p.mean(axis=1) - ctr).T)
        flip = out < 0
        tris[flip] = tris[flip][:, [0, 2, 1]]
    if tp is None:
        # disk and sphere corners are vertices, charted before the boundary
        # projection; rect corners on a seam keep unwrapped parameters
        tp = params[tris]
        corners = positions[tris]
    else:
        corners = imm.chart(tp.reshape(-1, tp.shape[2])).reshape(len(tris), 3, 3)

    # project boundary vertices onto the ambient boundary
    if space is not None and space.boundary is not None and len(be):
        bidx = np.unique(be[:, :2])
        P = positions[bidx]
        phi = space.boundary.phi(P)
        g = space.boundary.grad_phi(P)
        P = P - phi[:, None] * g / squared_norm(g)[:, None]
        res = np.max(np.abs(space.boundary.phi(P)))
        if not res <= 1e-10:
            raise MeshingError(
                f"boundary projection residual {res:.2e} exceeds 1e-10")
        positions[bidx] = P
    if not _min_angle_from_corners(corners) >= 5.0:
        raise MeshingError("mesh contains a triangle with min angle < 5 degrees")
    return SurfaceMesh(imm, params, positions, tris, tp, be, bt, resolution,
                       *_number_edges(tris, be, len(params)))


def _number_edges(tris: Array, be: Array, V: int):
    """The edges, the edge ids of each triangle and boundary edge, the loop
    count, and each boundary edge's triangle and corners holding (v_i, v_j).

    Corner c of triangle f starts the triangle edge 3f + c.  One unique
    over the undirected keys of the 3F triangle edges, then the B boundary
    edges, numbers the edges in key order and finds the one triangle edge
    of each boundary edge.
    """
    start = tris.ravel()
    i = np.concatenate([start, be[:, 0]])
    j = np.concatenate([tris[:, [1, 2, 0]].ravel(), be[:, 1]])
    uniq, first, inverse = np.unique(np.minimum(i, j) * V + np.maximum(i, j),
                                     return_index=True, return_inverse=True)
    e = first[inverse[len(start):]]
    tri, c = np.divmod(e, 3)
    loc = np.stack([c, (c + 1) % 3], axis=-1)
    loc = np.where((start[e] == be[:, 0])[:, None], loc, loc[:, ::-1])
    return (np.stack(np.divmod(uniq, V), axis=-1),
            inverse[:len(start)].reshape(-1, 3), inverse[len(start):],
            _boundary_loops(be), tri, loc)


def _boundary_loops(be: Array) -> int:
    """The number of connected components of the boundary edge graph: its
    vertices less the edges that join two components (union-find)."""
    parent = {}

    def root(v):
        while parent.setdefault(v, v) != v:
            parent[v] = v = parent[parent[v]]
        return v

    joins = 0
    for a, b in be[:, :2].tolist():
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            joins += 1
    return len(parent) - joins


# ---------------------------------------------------------------------------
# the density-free chart and the density terms on it
# ---------------------------------------------------------------------------

def _blended_param_points(imm: Immersion, mesh: SurfaceMesh):
    """Per-quadrature-point parameters, tangent directions, and curvature.

    Affine triangles give constant directions and zero second derivatives;
    triangles with a boundary-arc edge get the transfinite blend pulling the
    straight edge onto the arc, so the union of elements covers the exact
    parameter domain.  Returns Q, D1, D2 and Q2 = (Q11, Q12, Q22) stacked,
    each component-major: its parameter components are contiguous (F R,)
    columns.
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
    # (F, R, pd) views of (pd, F, R) buffers
    q0, d1, d2 = (x.T[:, :, None] for x in (q0, d1, d2))
    Q = np.moveaxis(np.add(q0 + xi * d1, eta * d2, out=np.empty((pd, F, R))),
                    0, -1)
    D1, D2 = (np.moveaxis(np.broadcast_to(d, (pd, F, R)).copy(), 0, -1)
              for d in (d1, d2))
    Q2 = np.moveaxis(np.zeros((3, pd, F, R)), 1, -1)
    if len(mesh.curved_tri):
        dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        ct, (li, lj) = mesh.curved_tri, mesh.curved_loc.T
        ti, tj = mesh.boundary_t.T
        a = TRI_HATS[li]                                # (B, R)
        b = TRI_HATS[lj]
        da = dlam[li]                                   # (B, 2)
        db = dlam[lj]
        S = a + b
        u = b / S
        dt = (tj - ti)[:, None]
        cv, dcv, ddcv, _ = _on_arcs(imm, mesh.boundary_edges[:, 2],
                                    ti[:, None] + dt * u)
        pi = tp[ct, li]                                 # (B, pd)
        pj = tp[ct, lj]
        dp = (pj - pi)[:, None, :]
        g = cv - (pi[:, None, :] + dp * u[..., None])
        gp = dt[..., None] * dcv - dp
        gpp = (dt**2)[..., None] * ddcv
        Sa = da + db                                    # (B, 2)
        num = a[..., None] * db[:, None, :] - b[..., None] * da[:, None, :]
        ua = num / (S**2)[..., None]                    # (B, R, 2)
        # u_{alpha beta}
        S2, S3 = (S**2)[..., None, None], (S**3)[..., None, None]
        uab = ((db[:, :, None] * da[:, None, :]
                - da[:, :, None] * db[:, None, :])[:, None] / S2
               - 2.0 * num[..., :, None] * Sa[:, None, None, :] / S3)
        Sb = S[..., None]
        # the blend is a sum over a triangle's boundary edges, and two
        # corner triangles of a rect patch have edges on two arcs
        np.add.at(Q, ct, Sb * g)
        np.add.at(D1, ct, Sa[:, 0][:, None, None] * g
                  + Sb * gp * ua[:, :, 0][..., None])
        np.add.at(D2, ct, Sa[:, 1][:, None, None] * g
                  + Sb * gp * ua[:, :, 1][..., None])
        u1 = ua[:, :, 0][..., None]
        u2 = ua[:, :, 1][..., None]
        np.add.at(Q2[0], ct, 2 * Sa[:, 0][:, None, None] * gp * u1
                  + Sb * gpp * u1**2 + Sb * gp * uab[:, :, 0, 0][..., None])
        np.add.at(Q2[1], ct, Sa[:, 0][:, None, None] * gp * u2
                  + Sa[:, 1][:, None, None] * gp * u1
                  + Sb * gpp * u1 * u2
                  + Sb * gp * uab[:, :, 0, 1][..., None])
        np.add.at(Q2[2], ct, 2 * Sa[:, 1][:, None, None] * gp * u2
                  + Sb * gpp * u2**2 + Sb * gp * uab[:, :, 1, 1][..., None])
    n = F * R
    return (Q.reshape(n, pd), D1.reshape(n, pd), D2.reshape(n, pd),
            Q2.reshape(3, n, pd))


def _on_arcs(imm: Immersion, arc_id: Array, t: Array) -> Array:
    """The boundary arcs at parameters t (B, k), row i on arc arc_id[i]:
    the points c, their derivatives dc and ddc, and the parameter
    directions into the domain, stacked (4, B, k, pd)."""
    out = np.empty((4,) + t.shape + (imm.param_dim,))
    for aid, arc in enumerate(imm.boundary_arcs()):
        sel = arc_id == aid
        ts = t[sel]
        out[:, sel] = arc.c(ts), arc.dc(ts), arc.ddc(ts), arc.inward(ts)
    return out


def _chart_at_boundary(imm: Immersion, mesh: SurfaceMesh) -> dict:
    """The chart at the boundary quadrature points, one row per (boundary
    edge, Gauss2 point) in mesh edge order: the SurfaceChart boundary
    fields that a flow moves or keeps, empty for a mesh without
    boundary."""
    t0, t1 = mesh.boundary_t.T
    t = t0[:, None] + EDGE_POINTS * (t1 - t0)[:, None]
    q, dq, ddq, inward = _on_arcs(imm, mesh.boundary_edges[:, 2],
                                  t).reshape(4, -1, imm.param_dim)
    Jb = imm.chart_jac(q)
    dg, ddg = _chain_rule(Jb, dq[:, :, None], ddq[:, :, None, None],
                          imm.chart_hess(q))
    return dict(b_params=q, b_inward=inward, b_pos=imm.chart(q),
                b_dg=dg[:, :, 0], b_ddg=ddg[:, :, 0, 0], b_J=Jb)


# The geometry kernels work on the (N,) columns of each quantity's ambient
# components, and each sum adds its terms in index order onto +0.0, with no
# BLAS product, so the per-point geometry does not depend on the BLAS
# kernel set.  The chart stores its per-point arrays component-major, so
# those columns are contiguous.

def _along(J: Array, D: Array) -> list:
    """The columns of J D, the chart derivative along the parameter
    directions D (N, pd)."""
    return [ordered_sum(J[:, i, a] * D[:, a] for a in range(D.shape[1]))
            for i in range(3)]


def _second_along(Hc: Optional[Array], J: Array, D: Array, E: Array,
                  Q: Array) -> list:
    """The columns of Hc(D, E) + J Q, the chart Hessian Hc (N, 3, pd, pd)
    on the parameter directions D and E (summed with b inner) plus the
    Jacobian on their derivative Q: the second derivative of the chart
    along a curve or blend of the parameters.  A Hessian of None is zero
    and is not contracted: its sum is the +0.0 that zeros sum to."""
    pd = D.shape[1]
    return [(0.0 if Hc is None else
             ordered_sum(Hc[:, i, a, b] * D[:, a] * E[:, b]
                         for a in range(pd) for b in range(pd))) + JQ
            for i, JQ in enumerate(_along(J, Q))]


def _chain_rule(DF: Array, J: Array, H: Optional[Array] = None,
                D2F: Optional[Array] = None) -> tuple:
    """DF J and DF H + D2F(J, J), component-major: the derivatives J
    (N, m, k) and H (N, m, k, k) of a map of k parameters composed with a
    map of Jacobian DF (N, 3, m) and Hessian D2F (N, 3, m, m), or None for
    a map whose Hessian is zero.  The second is None without H."""
    k = J.shape[2]
    moved_J = np.array([_along(DF, J[:, :, a]) for a in range(k)]).T
    if H is None:
        return moved_J, None
    # the columns nested [b][a][i], so that .T puts them at [:, i, a, b]
    return moved_J, np.array([[
        _second_along(D2F, DF, J[:, :, a], J[:, :, b], H[:, :, a, b])
        for a in range(k)] for b in range(k)]).T


def _cross(x, y) -> tuple:
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _unit_normal(sign: int, E1, E2) -> Array:
    """E1 x E2 over its length, oriented by the sign, as a component-major
    (N, 3) array."""
    n = _cross(E1, E2)
    length = np.sqrt(dot(n, n))
    return np.stack([sign * c / length for c in n]).T


def _normal_and_area(sign: int, E1, E2):
    """The unit normal and the area element times the Gauss3 weight of the
    frame columns E1, E2, with the metric (g11, g12, g22, det G) they come
    from: everything a variation slice reads."""
    g11, g12, g22 = dot(E1, E1), dot(E1, E2), dot(E2, E2)
    detG = g11 * g22 - g12 * g12
    if not np.all(detG > 1e-20):
        raise ImmersionError("chart Jacobian is rank deficient at a quadrature point")
    w_da = (np.sqrt(detG).reshape(-1, len(TRI_WEIGHTS)) * TRI_WEIGHTS).ravel()
    return _unit_normal(sign, E1, E2), w_da, (g11, g12, g22, detG)


def _frame(sign: int, D1: Array, D2: Array, J: Array):
    """The chart's frame (E1, E2) along the blended directions as columns,
    the inverse metric (g^11, g^12, g^22) in that frame, the unit normal
    and the area element times the Gauss3 weight."""
    E1, E2 = _along(J, D1), _along(J, D2)
    Nv, w_da, (g11, g12, g22, detG) = _normal_and_area(sign, E1, E2)
    return E1, E2, (g22 / detG, -g12 / detG, g11 / detG), Nv, w_da


def _shape_operator(Hc: Array, d1r: Array, d2r: Array, J: Array, Q2,
                    Nv: Array, Ginv) -> tuple:
    """Shape operator in the (E1, E2) frame from the chart Hessian Hc
    along the blended directions: its entries (S11, S12, S21, S22) as
    columns, from the inverse metric columns (g^11, g^12, g^22)."""
    N = Nv.T
    # second fundamental form coordinate components: sigma_ab = -<N, F_ab>
    L11, L12, L22 = (-dot(N, _second_along(Hc, J, da, db, Qab))
                     for da, db, Qab in ((d1r, d1r, Q2[0]),
                                         (d1r, d2r, Q2[1]),
                                         (d2r, d2r, Q2[2])))
    G11, G12, G22 = Ginv
    return (ordered_sum((G11 * L11, G12 * L12)),
            ordered_sum((G11 * L12, G12 * L22)),
            ordered_sum((G12 * L11, G22 * L12)),
            ordered_sum((G12 * L12, G22 * L22)))


def _normal_from_jac(sign: int, J: Array) -> Array:
    """Unit normal J_u x J_v of a 2-parameter chart Jacobian, oriented by
    the immersion's orientation sign.  Every mesher orders the corners of
    its parameter triangles counterclockwise, so this is the normal that
    the triangles' frames give."""
    return _unit_normal(sign, J[:, :, 0].T, J[:, :, 1].T)


def vertex_normals(mesh: SurfaceMesh) -> Array:
    """Unit normals at mesh vertices, oriented like the quadrature normals."""
    imm = mesh.immersion
    if imm.param_dim == 2:
        return _normal_from_jac(imm.orientation_sign, imm.chart_jac(mesh.params))
    # per-corner triangle frames, last writer wins (orientations agree)
    Nv = np.zeros((mesh.n_vertices, 3))
    tp = mesh.tri_params
    edges = (tp[:, 1:] - tp[:, :1]).transpose(0, 2, 1)
    for c in range(3):
        frame, _ = _chain_rule(imm.chart_jac(tp[:, c]), edges)
        Nv[mesh.triangles[:, c]] = _normal_from_jac(imm.orientation_sign,
                                                    frame)
    return Nv


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """Everything about a meshed surface that does not depend on the density.

    The chart of the mesh's immersion at the interior quadrature points
    (Gauss3 on the blended triangles) and at the boundary quadrature points
    (Gauss2 on the boundary edges), and the Riemannian geometry read from
    it.  ``surface_chart`` stores the interior per-point arrays
    component-major (``ambient.point_columns``), and so do the derived
    frame and normal.  Of ``space`` only the boundary is read, so one chart
    serves every density.  ``surface_chart`` builds it from an immersion;
    ``dataclasses.replace`` with new positions, Jacobians, Hessians and
    boundary curve derives the rest again, which is how a flow moves it.
    """

    space: InitVar[AmbientSpace]
    mesh: SurfaceMesh
    # interior, one row per (triangle, quadrature point): the blended
    # parameters, their directions and second derivatives (Q11, Q12, Q22),
    # and the chart's positions, Jacobian and Hessian there
    params: Array            # (Q, pd)
    D1: Array                # (Q, pd)
    D2: Array
    Q2: Array                # (3, Q, pd)
    pos: Array               # (Q, 3)
    J: Array                 # (Q, 3, pd)
    hess: Array              # (Q, 3, pd, pd)
    # boundary, one row per (boundary edge, Gauss2 point) in mesh edge
    # order, empty without one: the arc parameters with a parameter
    # direction into the domain, the boundary curve g with its arc
    # derivatives g', g'' and the chart Jacobian there
    b_params: Array
    b_inward: Array
    b_pos: Array
    b_dg: Array
    b_ddg: Array
    b_J: Array
    # derived, interior
    E1: Array = field(init=False)      # chart derivative along D1
    E2: Array = field(init=False)
    Ginv: Array = field(init=False)    # inverse metric in the (E1, E2) frame
    N: Array = field(init=False)
    w_da: Array = field(init=False)    # area element x quadrature weight
    H: Array = field(init=False)
    sigma2: Array = field(init=False)
    K: Array = field(init=False)
    # derived, boundary
    b_nu: Array = field(init=False)    # inner conormal
    b_xi: Array = field(init=False)    # inner normal of the ambient boundary
    b_N: Array = field(init=False)
    contact: Array = field(init=False)
    II_NN: Array = field(init=False)
    h_geod: Array = field(init=False)
    w_dl: Array = field(init=False)    # length element x quadrature weight

    def __post_init__(self, space: AmbientSpace):
        sign = self.mesh.immersion.orientation_sign
        E1, E2, Ginv, Nv, w_da = _frame(sign, self.D1, self.D2, self.J)
        S11, S12, S21, S22 = _shape_operator(self.hess, self.D1, self.D2,
                                             self.J, self.Q2, Nv, Ginv)
        G11, G12, G22 = Ginv
        fields = dict(E1=np.stack(E1).T, E2=np.stack(E2).T,
                      Ginv=np.stack([G11, G12, G12, G22]).reshape(
                          2, 2, -1).transpose(2, 0, 1),
                      N=Nv, w_da=w_da, H=-0.5 * (S11 + S22),
                      sigma2=ordered_sum((S11 * S11, S12 * S21, S21 * S12,
                                          S22 * S22)),
                      K=S11 * S22 - S12 * S21,
                      **self._boundary_fields(space, sign))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _boundary_fields(self, space: AmbientSpace, sign: int) -> dict:
        speed = norm(self.b_dg)
        T = self.b_dg / speed[:, None]
        # curve acceleration projected off T, per unit length
        acc = ((self.b_ddg - dot(self.b_ddg.T, T.T)[:, None] * T)
               / speed[:, None] ** 2)
        Nv = _normal_from_jac(sign, self.b_J)
        nu = np.cross(Nv, T)
        # the chart's image of the inward parameter direction orients nu
        v_in = _along(self.b_J, self.b_inward)
        nu = nu * np.sign(dot(nu.T, v_in))[:, None]
        t0, t1 = self.mesh.boundary_t.T
        g = self.b_pos
        xi, II_NN = np.zeros_like(g), np.zeros(len(g))
        if space.boundary is not None:
            xi = boundary_inner_normal(space, g)
            II_NN = quadratic_form(boundary_ii_matrix(space, g), Nv)
        return dict(b_nu=nu, b_xi=xi, b_N=Nv, contact=dot(Nv.T, xi.T),
                    II_NN=II_NN, h_geod=dot(acc.T, nu.T),
                    w_dl=(EDGE_WEIGHTS * (t1 - t0)[:, None]).ravel() * speed)

    @property
    def has_boundary(self):
        return len(self.b_pos) > 0


def surface_chart(imm: Immersion, resolution: int,
                  space: AmbientSpace) -> SurfaceChart:
    """Mesh the immersion with its boundary vertices on the ambient
    boundary of ``space`` and evaluate its chart on the mesh."""
    mesh = mesh_from_immersion(imm, resolution, space=space)
    Q, D1, D2, Q2 = _blended_param_points(imm, mesh)
    pos = np.ascontiguousarray(imm.chart(Q).T).T
    return SurfaceChart(space, mesh, Q, D1, D2, Q2, pos,
                        imm.chart_jac(Q), imm.chart_hess(Q),
                        **_chart_at_boundary(imm, mesh))


@dataclass(frozen=True, eq=False)
class ExtrinsicData:
    """The density terms of the geometry at a chart's quadrature points,
    with the ambient ``space`` they come from; every other attribute is the
    chart's own."""

    chart: SurfaceChart
    space: AmbientSpace
    f: Array
    H_f: Array               # 2H - <grad psi, N>
    ricf_NN: Array
    grad_psi: Array          # ambient gradient of psi
    grad_s_psi: Array        # tangential gradient of psi
    lap_s_psi: Array         # surface Laplacian of psi
    S_f: Array
    f_b: Array               # f on the boundary
    Hf_boundary: Array       # H_f of the ambient boundary

    def __getattr__(self, name):
        if name == "chart":      # not set yet, as while copying
            raise AttributeError(name)
        return getattr(self.chart, name)

    @property
    def w_daf(self):
        return self.w_da * self.f

    @property
    def w_dlf(self):
        return self.w_dl * self.f_b


def extrinsic_geometry(space: AmbientSpace,
                       chart: SurfaceChart) -> ExtrinsicData:
    """The density terms on a chart: everything the density of ``space``
    adds to the chart's Riemannian geometry."""
    pos, Nv, H = chart.pos, chart.N, chart.H
    jet = DensityJet(space.density, pos)
    gN = dot(jet.grad.T, Nv.T)
    ricf_NN = jet.bakry_emery_ricci(Nv)
    g = chart.b_pos
    # lap_S psi = lap psi - hess(psi)(N, N) + 2 H <grad psi, N>
    return ExtrinsicData(
        chart, space, f=np.exp(space.density.psi(pos)), H_f=2.0 * H - gN,
        grad_psi=jet.grad, grad_s_psi=jet.grad - gN[:, None] * Nv,
        ricf_NN=ricf_NN, lap_s_psi=jet.lap + ricf_NN + 2.0 * H * gN,
        S_f=jet.perelman_scalar(), f_b=np.exp(space.density.psi(g)),
        Hf_boundary=(boundary_f_mean_curvature(space, g)
                     if space.boundary is not None else np.zeros(len(g))))


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


# the H_f spread within which the second variation, the Jacobi operator,
# the stability-topology chain and the foliation identity take a surface
# as f-stationary
STATIONARY_TOL_H = 1e-5


def stationary_H_f(data: ExtrinsicData, what: str) -> float:
    """The constant H_f of a surface f-stationary under volume constraint
    within STATIONARY_TOL_H; raises ``PreconditionError``, saying that
    ``what`` needs it, where the surface is not."""
    verdict = stationarity_verdict(data, tol_H=STATIONARY_TOL_H)
    if not verdict.volume_constrained:
        raise PreconditionError(f"{what} requires an f-stationary surface")
    return verdict.H_f_mean


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_off(mesh: SurfaceMesh, path: str) -> None:
    """ASCII OFF plus a '<path>.bnd' sidecar with boundary edge records."""
    pos, tris = mesh.positions, mesh.triangles
    edges, ts = mesh.boundary_edges, mesh.boundary_t
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {len(tris)} 0\n")
        fh.write("%.17g %.17g %.17g\n" * len(pos)
                 % tuple(pos.ravel().tolist()))
        fh.write("3 %d %d %d\n" * len(tris) % tuple(tris.ravel().tolist()))
    with open(path + ".bnd", "w") as fh:
        fh.write("# v_i v_j arc_id t0 t1\n")
        rows = [x for e, t in zip(edges.tolist(), ts.tolist())
                for x in (*e, *t)]
        fh.write("%d %d %d %.17g %.17g\n" * len(edges) % tuple(rows))
