"""Immersed surfaces with boundary: charts, meshes, extrinsic geometry.

All curvature quantities come from first and second derivatives of the
reference immersion evaluated at quadrature points; the triangle mesh only
carries connectivity and quadrature structure.  Every immersion supplies
analytic first and second chart derivatives.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .ambient import (AmbientSpace, DensityJet, boundary_normal_and_ii,
                      check_on_boundary, dot, norm, ordered_sum,
                      point_columns, quadratic_form, trace, unit_vector3,
                      vector3)
from .errors import (ImmersionError, InputError, MeshingError,
                     NumericalFailure, PreconditionError)

Array = np.ndarray

# every boundary integral uses Gauss2 on the unit interval [0, 1]
EDGE_POINTS = np.array([0.5 - 0.5 / np.sqrt(3), 0.5 + 0.5 / np.sqrt(3)])
EDGE_WEIGHTS = np.array([0.5, 0.5])


@dataclass(frozen=True, eq=False)
class TriangleRule:
    """A quadrature rule on the unit reference triangle {x>=0, y>=0,
    x+y<=1}: its points (R, 2), its weights (R,), positive and summing to
    the reference area 1/2, and the P1 hats at its points (3, R)."""

    points: Array
    weights: Array

    @functools.cached_property
    def hats(self) -> Array:
        x, y = self.points[:, 0], self.points[:, 1]
        return np.stack([1 - x - y, x, y])

    @functools.cached_property
    def hat_gram_min(self) -> float:
        """The smallest eigenvalue of sum_r h_r h_r^T over the points r, h_r
        the hats there (1/4 for Gauss3): an element mass matrix
        sum_r w_r h_r h_r^T is at least this times min_r w_r, as the
        weights w_r are positive."""
        return float(np.linalg.eigvalsh(self.hats @ self.hats.T)[0])


def _collapsed_gauss3() -> TriangleRule:
    """Gauss-Legendre 3 in s and in t on [0, 1], mapped to the triangle by
    (x, y) = (s (1 - t), s t) with its Jacobian s in the weights (Duffy,
    SIAM J. Numer. Anal. 19 (1982) 1260): the apex s = 0 is corner 0.
    Exact for x^p y^q with p + q <= 4, and along its points the blend
    b / (a + b) of the hats of corners 1 and 2 is t, so a rim triangle's
    integrand is smooth in (s, t)."""
    g = 0.5 * np.sqrt(3 / 5)
    nodes, w = np.array([0.5 - g, 0.5, 0.5 + g]), np.array([5, 8, 5]) / 18
    s, t = (x.ravel() for x in np.meshgrid(nodes, nodes, indexing="ij"))
    return TriangleRule(np.stack([s * (1 - t), s * t], axis=-1),
                        np.outer(w, w).ravel() * s)


GAUSS3 = TriangleRule(
    np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]]),
    np.array([1 / 6, 1 / 6, 1 / 6]))
COLLAPSED3 = _collapsed_gauss3()


@dataclass(frozen=True, eq=False)
class QuadratureBlock:
    """One rule on the triangles it covers, (F_b,) triangle ids."""

    rule: TriangleRule
    tris: Array


# a rect patch is meshed with square cells, so its v rows grow with the
# aspect ratio; this bounds them to MAX_RECT_ASPECT times the resolution
MAX_RECT_ASPECT = 64.0
# meshes hold about resolution^2 triangles in numpy arrays of about
# resolution^2 rows; this is 8 times the finest resolution any builtin,
# test or benchmark uses
MAX_RESOLUTION = 1024
# the points per boundary arc, ends included, at which a scenario's
# surface is checked against the ambient boundary when it is read
ARC_SAMPLES = 9


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


# ---------------------------------------------------------------------------
# built-in immersions
# ---------------------------------------------------------------------------

def _orientation_sign(sign) -> int:
    """The sign that orients the unit normal: 1 or -1, nothing else."""
    if isinstance(sign, bool) or sign not in (1, -1):
        raise InputError(f"orientation_sign must be 1 or -1, got {sign!r}")
    return int(sign)


def _radius(value, what: str) -> float:
    """A positive finite radius: 0 collapses the chart to a point, and a
    negative one reflects it, which orientation_sign alone may do."""
    r = float(value)
    if not 0.0 < r < np.inf:
        raise InputError(f"{what} must be positive and finite, got {r:g}")
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
    # the triangle of each boundary edge and its corners holding (v_i, v_j):
    # it gets a transfinite blend so quadrature covers the exact parameter
    # domain (no polygon sliver)
    curved_tri: Array          # (B,) int
    curved_loc: Array          # (B, 2) int
    # the interior quadrature rows are (triangle, point) block by block, in
    # each block's triangle order (``_quadrature_blocks``)
    blocks: tuple

    @property
    def n_vertices(self):
        return len(self.params)

    def block_rows(self):
        """Each quadrature block with the slice of the rows it holds."""
        start = 0
        for block in self.blocks:
            stop = start + len(block.tris) * len(block.rule.weights)
            yield block, slice(start, stop)
            start = stop

    @functools.cached_property
    def point_weights(self) -> Array:
        """The quadrature weight of each interior row."""
        return np.concatenate([np.tile(b.rule.weights, len(b.tris))
                               for b in self.blocks])

    @property
    def chi(self):
        return self.n_vertices - len(self.edges) + len(self.triangles)

    @property
    def n_loops(self):
        """The boundary's connected components: each arc of the domain
        closes on itself, except a rect patch's four sides, which close
        one loop together."""
        arcs = _arc_count(self.immersion.domain)
        return 1 if arcs == 4 else arcs


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
    outer ring's step first on ties.  So a rim triangle is an outer step
    of the last annulus, (inner vertex, rim vertex k, rim vertex k + 1),
    and holds its boundary edge k at corners 1 and 2.
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


def _rect_sides(per_u: bool, per_v: bool) -> list:
    """The boundary sides of a rect patch in arc order, each as the
    parameter it holds fixed (0 for u, 1 for v) and at which end (0 low,
    1 high): v0, v1, then u0, u1, none across a periodic direction."""
    return [(axis, end) for axis, end in ((1, 0), (1, 1), (0, 0), (0, 1))
            if not (per_u, per_v)[axis]]


def _arc_count(domain: tuple) -> int:
    """The boundary arcs of a parameter domain: a disk's rim, a rect
    patch's ``_rect_sides`` and none on a sphere."""
    if domain[0] == "disk":
        return 1
    return len(_rect_sides(*domain[2:])) if domain[0] == "rect" else 0


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
    # side (axis, end) takes the n[1 - axis] lattice steps k -> k + 1 at
    # lattice index end * n[axis] of its fixed parameter
    be, bt, n = [], [], (nu, nv)
    for arc_id, (axis, end) in enumerate(_rect_sides(per_u, per_v)):
        k, fixed = np.arange(n[1 - axis]), end * n[axis]
        ends = [vid(fixed, s) if axis == 0 else vid(s, fixed)
                for s in (k, k + 1)]
        be.append(np.stack([*ends, np.full(len(k), arc_id)], axis=-1))
        bt.append(np.stack([k / len(k), (k + 1) / len(k)], axis=-1))
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


def mesh_from_immersion(imm: Immersion, resolution: int) -> SurfaceMesh:
    """Build a triangle mesh over the immersion's parameter domain, its
    vertices at the chart's values."""
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
    if tp is None:
        # disk and sphere corners are vertices; rect corners on a seam
        # keep unwrapped parameters
        tp = params[tris]
        corners = positions[tris]
    else:
        corners = imm.chart(tp.reshape(-1, tp.shape[2])).reshape(len(tris), 3, 3)
    if not _min_angle_from_corners(corners) >= 5.0:
        raise MeshingError("mesh contains a triangle with min angle < 5 degrees")
    numbered = _number_edges(tris, be, len(params))
    return SurfaceMesh(imm, params, positions, tris, tp, be, bt, resolution,
                       *numbered, _quadrature_blocks(kind, len(tris),
                                                     *numbered[3:]))


def _quadrature_blocks(kind: str, n_tris: int, curved_tri: Array,
                       curved_loc: Array) -> tuple:
    """Gauss3 on every triangle but a disk's rim triangles, COLLAPSED3 on
    those.  A rim triangle's blend u = b / (a + b) is not smooth at the
    corner opposite its arc, where Gauss3 converges at O(h^2) only; the
    collapsed rule's apex is that corner, corner 0 (``_disk_mesh``).  A
    rect side is straight, so its blend's gap is zero to rounding and its
    triangles stay with Gauss3."""
    if kind != "disk":
        return (QuadratureBlock(GAUSS3, np.arange(n_tris)),)
    if not np.all(curved_loc == (1, 2)):
        raise MeshingError("a rim triangle's arc edge is not at corners 1, 2")
    rim = np.zeros(n_tris, dtype=bool)
    rim[curved_tri] = True
    return (QuadratureBlock(GAUSS3, np.flatnonzero(~rim)),
            QuadratureBlock(COLLAPSED3, curved_tri))


def _number_edges(tris: Array, be: Array, V: int):
    """The edges, the edge ids of each triangle and boundary edge, and each
    boundary edge's triangle and corners holding (v_i, v_j).

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
            tri, loc)


# ---------------------------------------------------------------------------
# the chart of the immersion and the ambient terms on it
# ---------------------------------------------------------------------------

def _blended_param_points(imm: Immersion, mesh: SurfaceMesh):
    """Per-quadrature-point parameters and their derivatives along the
    triangle's reference coordinates, block by block.

    Affine triangles give constant directions and zero second derivatives;
    triangles with a boundary-arc edge get the transfinite blend pulling the
    straight edge onto the arc, so the union of elements covers the exact
    parameter domain.  Returns Q (n, pd), its first derivatives D
    (n, pd, 2) and its second derivatives H (n, pd, 2, 2), symmetric in
    the last two axes, each component-major (``ambient.point_columns``).
    """
    n, pd = len(mesh.point_weights), mesh.tri_params.shape[2]
    Q, D, H = (point_columns(n, pd, *k) for k in ((), (2,), (2, 2)))
    H[...] = 0.0
    local = np.empty(len(mesh.triangles), dtype=np.int64)
    for block, rows in mesh.block_rows():
        F, R = len(block.tris), len(block.rule.weights)
        local[block.tris] = np.arange(F)
        mine = np.isin(mesh.curved_tri, block.tris)
        _blend_block(imm, mesh, block, local[mesh.curved_tri[mine]], mine,
                     *(x[rows].reshape((F, R) + x.shape[1:])
                       for x in (Q, D, H)))
    return Q, D, H


def _blend_block(imm: Immersion, mesh: SurfaceMesh, block: QuadratureBlock,
                 ct: Array, edges: Array, Q: Array, D: Array, H: Array):
    """``_blended_param_points`` on one block, into its (F, R, ...) rows:
    ``ct`` holds the block's triangle (a position in ``block.tris``) of
    each of the boundary ``edges``."""
    tp = mesh.tri_params[block.tris]
    rule = block.rule
    q0 = tp[:, 0]
    d1 = tp[:, 1] - q0
    d2 = tp[:, 2] - q0
    xi = rule.points[:, 0]
    eta = rule.points[:, 1]
    # the (..., F, R) views of the component-major rows
    q0, d1, d2 = (x.T[:, :, None] for x in (q0, d1, d2))
    np.add(q0 + xi * d1, eta * d2, out=np.moveaxis(Q, -1, 0))
    D_cols = D.transpose(2, 3, 0, 1)
    D_cols[:, 0], D_cols[:, 1] = d1, d2
    if not len(ct):
        return
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    li, lj = mesh.curved_loc[edges].T
    ti, tj = mesh.boundary_t[edges].T
    a = rule.hats[li]                               # (B, R)
    b = rule.hats[lj]
    da = dlam[li]                                   # (B, 2)
    db = dlam[lj]
    S = a + b
    u = b / S
    dt = (tj - ti)[:, None]
    cv, dcv, ddcv, _ = _on_arcs(imm, mesh.boundary_edges[edges, 2],
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
    for k in range(2):
        np.add.at(D[..., k], ct, Sa[:, k][:, None, None] * g
                  + Sb * gp * ua[:, :, k][..., None])
    u1 = ua[:, :, 0][..., None]
    u2 = ua[:, :, 1][..., None]
    np.add.at(H[..., 0, 0], ct, 2 * Sa[:, 0][:, None, None] * gp * u1
              + Sb * gpp * u1**2 + Sb * gp * uab[:, :, 0, 0][..., None])
    np.add.at(H[..., 0, 1], ct, Sa[:, 0][:, None, None] * gp * u2
              + Sa[:, 1][:, None, None] * gp * u1
              + Sb * gpp * u1 * u2
              + Sb * gp * uab[:, :, 0, 1][..., None])
    np.add.at(H[..., 1, 1], ct, 2 * Sa[:, 1][:, None, None] * gp * u2
              + Sb * gpp * u2**2 + Sb * gp * uab[:, :, 1, 1][..., None])
    H[..., 1, 0] = H[..., 0, 1]


def _on_arcs(imm: Immersion, arc_id: Array, t: Array) -> Array:
    """The boundary arcs at parameters t (B, k), row i on arc arc_id[i]:
    the points c, their derivatives dc and ddc, and the parameter
    directions into the domain, stacked (4, B, k, pd).  A disk's arc is
    its rim at angle 2 pi t, a rect patch's are its ``_rect_sides``, each
    c = p0 + t (p1 - p0) between two corners of the domain; a sphere and
    a torus have none, so their rows are always empty."""
    shape = t.shape + (imm.param_dim,)
    if not len(arc_id):
        return np.empty((4,) + shape)
    if imm.domain[0] == "disk":
        rho, two_pi = imm.domain[1], 2 * np.pi
        ang = two_pi * t
        cs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        dcs = np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
        return np.stack([rho * cs, rho * two_pi * dcs,
                         -rho * two_pi**2 * cs, -cs])
    bounds, per_u, per_v = imm.domain[1:]
    u0, u1, v0, v1 = bounds
    sides = []
    for axis, end in _rect_sides(per_u, per_v):
        p0, p1, inward = [u0, v0], [u1, v1], [0.0, 0.0]
        p0[axis] = p1[axis] = bounds[2 * axis + end]
        inward[axis] = 1.0 - 2 * end
        sides.append((p0, p1, inward))
    p0, p1, inward = np.array(sides)[arc_id, :, None].transpose(1, 0, 2, 3)
    d = p1 - p0
    return np.stack([p0 + t[..., None] * d, np.broadcast_to(d, shape),
                     np.zeros(shape), np.broadcast_to(inward, shape)])


def check_arcs_on_boundary(imm: Immersion, space: AmbientSpace) -> None:
    """Raise ``InputError`` where the immersion's boundary arcs, sampled
    at ARC_SAMPLES points each with their ends, are off the ambient
    boundary (``ambient.check_on_boundary``): the check that
    ``extrinsic_geometry``'s ``boundary_normal_and_ii`` makes, without a
    mesh.  Where the ambient space has no boundary, the domain alone
    decides, with no chart: a surface with boundary arcs is refused."""
    arcs = _arc_count(imm.domain)
    if not arcs:
        return
    if space.boundary is None:
        raise InputError("the surface has a boundary but the ambient space "
                         "has none for it to lie on")
    t = np.tile(np.linspace(0.0, 1.0, ARC_SAMPLES), (arcs, 1))
    q = _on_arcs(imm, np.arange(arcs), t)[0].reshape(-1, imm.param_dim)
    check_on_boundary(space.boundary, imm.chart(q),
                      "the surface's boundary is off the ambient boundary")


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
    return dict(b_inward=inward, b_pos=imm.chart(q), b_dg=dg[:, :, 0],
                b_ddg=ddg[:, :, 0, 0], b_J=Jb)


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


def _chain_rule(DF: Array, J: Array, H: Optional[Array] = None,
                D2F: Optional[Array] = None) -> tuple:
    """DF J and DF H + D2F(J, J), component-major: the derivatives J
    (N, m, k) and H (N, m, k, k), H symmetric, of a map of k parameters
    composed with a map of Jacobian DF (N, 3, m) and Hessian D2F
    (N, 3, m, m), or None for a zero Hessian, which is not contracted (its
    sum is the +0.0 that zeros sum to).  Each H entry a <= b is computed
    once, D2F summed with its second index inner, and mirrored; without H
    the second is None."""
    n, m, k = J.shape
    moved_J = point_columns(n, 3, k)
    for a in range(k):
        for i, column in enumerate(_along(DF, J[:, :, a])):
            moved_J[:, i, a] = column
    if H is None:
        return moved_J, None
    moved_H = point_columns(n, 3, k, k)
    for a in range(k):
        for b in range(a, k):
            for i, DFH in enumerate(_along(DF, H[:, :, a, b])):
                column = moved_H[:, i, a, b]
                if D2F is None:
                    column[...] = 0.0
                else:
                    ordered_sum((D2F[:, i, c, d] * J[:, c, a] * J[:, d, b]
                                 for c in range(m) for d in range(m)),
                                out=column)
                column += DFH
                moved_H[:, i, b, a] = column
    return moved_J, moved_H


def _cross(x, y) -> tuple:
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _unit_normal(sign: int, E: Array) -> Array:
    """E1 x E2 over its length for the first two columns of a frame E
    (N, 3, k), oriented by the sign, component-major (N, 3).  The meshers
    order their parameter triangles counterclockwise, so a 2-parameter
    chart's Jacobian gives the normal that the triangles' frames give."""
    n = _cross(E[:, :, 0].T, E[:, :, 1].T)
    length = np.sqrt(dot(n, n))
    return np.stack([sign * c / length for c in n]).T


def _frame(sign: int, E: Array, weights: Array):
    """The inverse metric (g^11, g^12, g^22) in the frame E (N, 3, 2) as
    columns, the unit normal and the area element times the quadrature
    weight of each row (``SurfaceMesh.point_weights``).
    The rank test is relative, det G > 1e-20 g11 g22 (the sine of the
    frame's angle above 1e-10), so it holds at every scale of the chart."""
    E1, E2 = E.T
    g11, g12, g22 = dot(E1, E1), dot(E1, E2), dot(E2, E2)
    detG = g11 * g22 - g12 * g12
    if not np.all(detG > 1e-20 * (g11 * g22)):
        raise ImmersionError("chart Jacobian is rank deficient at a quadrature point")
    w_da = np.sqrt(detG) * weights
    return (g22 / detG, -g12 / detG, g11 / detG), _unit_normal(sign, E), w_da


def _shape_operator(F: Array, Nv: Array, Ginv) -> tuple:
    """Shape operator in the frame (E1, E2) from the frame's second
    derivatives F (N, 3, 2, 2): its entries (S11, S12, S21, S22) as
    columns, from the inverse metric columns (g^11, g^12, g^22)."""
    N = Nv.T
    # second fundamental form coordinate components: sigma_ab = -<N, F_ab>
    L11, L12, L22 = (-dot(N, F[:, :, a, b].T)
                     for a, b in ((0, 0), (0, 1), (1, 1)))
    G11, G12, G22 = Ginv
    return (ordered_sum((G11 * L11, G12 * L12)),
            ordered_sum((G11 * L12, G12 * L22)),
            ordered_sum((G12 * L11, G22 * L12)),
            ordered_sum((G12 * L12, G22 * L22)))


def vertex_normals(mesh: SurfaceMesh) -> Array:
    """Unit normals at mesh vertices, oriented like the quadrature normals."""
    imm = mesh.immersion
    if imm.param_dim == 2:
        return _unit_normal(imm.orientation_sign, imm.chart_jac(mesh.params))
    # per-corner triangle frames, last writer wins (orientations agree)
    Nv = np.zeros((mesh.n_vertices, 3))
    tp = mesh.tri_params
    edges = (tp[:, 1:] - tp[:, :1]).transpose(0, 2, 1)
    for c in range(3):
        frame, _ = _chain_rule(imm.chart_jac(tp[:, c]), edges)
        Nv[mesh.triangles[:, c]] = _unit_normal(imm.orientation_sign, frame)
    return Nv


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """Everything about a meshed surface that its immersion alone decides.

    The chart of the mesh's immersion at the interior quadrature points
    (the mesh's blocks on the blended triangles) and at the boundary
    quadrature points
    (Gauss2 on the boundary edges), and the Riemannian geometry read from
    it.  ``surface_chart`` stores the interior per-point arrays
    component-major (``ambient.point_columns``), and so do the derived
    frame and normal.  It reads no ambient space, so one chart serves every
    density and every ambient boundary: ``extrinsic_geometry`` reads both.
    ``surface_chart`` builds it from an immersion; ``dataclasses.replace``
    with a new pos, E, F and boundary curve derives the rest again, which
    is how a flow moves it.
    """

    mesh: SurfaceMesh
    # interior, one row per (triangle, quadrature point) block by block
    # (``SurfaceMesh.block_rows``): the positions, the frame E = (E1, E2)
    # of the surface's derivatives along the triangle's reference
    # coordinates, and their derivatives F_ab
    pos: Array               # (Q, 3)
    E: Array                 # (Q, 3, 2)
    F: Array                 # (Q, 3, 2, 2), symmetric in a, b
    # boundary, one row per (boundary edge, Gauss2 point) in mesh edge
    # order, empty without one: an inward parameter direction, the curve g
    # with its arc derivatives g', g'', and the chart Jacobian there
    b_inward: Array
    b_pos: Array
    b_dg: Array
    b_ddg: Array
    b_J: Array
    # derived, interior
    Ginv: Array = field(init=False)    # inverse metric in the frame E
    N: Array = field(init=False)
    w_da: Array = field(init=False)    # area element x quadrature weight
    H: Array = field(init=False)
    sigma2: Array = field(init=False)
    K: Array = field(init=False)
    # derived, boundary
    b_nu: Array = field(init=False)    # inner conormal
    b_N: Array = field(init=False)
    h_geod: Array = field(init=False)
    b_curvature: Array = field(init=False)  # |acc|, h_geod its b_nu part
    w_dl: Array = field(init=False)    # length element x quadrature weight

    def __post_init__(self):
        sign = self.mesh.immersion.orientation_sign
        Ginv, Nv, w_da = _frame(sign, self.E, self.mesh.point_weights)
        S11, S12, S21, S22 = _shape_operator(self.F, Nv, Ginv)
        G11, G12, G22 = Ginv
        fields = dict(Ginv=np.stack([G11, G12, G12, G22]).reshape(
                          2, 2, -1).transpose(2, 0, 1),
                      N=Nv, w_da=w_da, H=-0.5 * (S11 + S22),
                      sigma2=ordered_sum((S11 * S11, S12 * S21, S21 * S12,
                                          S22 * S22)),
                      K=S11 * S22 - S12 * S21,
                      **self._boundary_fields(sign))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _boundary_fields(self, sign: int) -> dict:
        speed = norm(self.b_dg)
        T = self.b_dg / speed[:, None]
        # curve acceleration projected off T, per unit length
        acc = ((self.b_ddg - dot(self.b_ddg.T, T.T)[:, None] * T)
               / speed[:, None] ** 2)
        Nv = _unit_normal(sign, self.b_J)
        nu = np.cross(Nv, T)
        # the chart's image of the inward parameter direction orients nu
        v_in = _along(self.b_J, self.b_inward)
        nu = nu * np.sign(dot(nu.T, v_in))[:, None]
        t0, t1 = self.mesh.boundary_t.T
        return dict(b_nu=nu, b_N=Nv, h_geod=dot(acc.T, nu.T),
                    b_curvature=norm(acc),
                    w_dl=(EDGE_WEIGHTS * (t1 - t0)[:, None]).ravel() * speed)

    @property
    def has_boundary(self):
        return len(self.b_pos) > 0


def surface_chart(imm: Immersion, resolution: int) -> SurfaceChart:
    """Mesh the immersion and evaluate its chart on the mesh: the frame
    and its derivatives by one chain rule through the blend, and the
    boundary curve along the domain's arcs."""
    mesh = mesh_from_immersion(imm, resolution)
    Q, D, H = _blended_param_points(imm, mesh)
    pos = np.ascontiguousarray(imm.chart(Q).T).T
    E, F = _chain_rule(imm.chart_jac(Q), D, H, imm.chart_hess(Q))
    return SurfaceChart(mesh, pos, E, F, **_chart_at_boundary(imm, mesh))


@dataclass(frozen=True, eq=False)
class ExtrinsicData:
    """The ambient terms of the geometry at a chart's quadrature points,
    those of the density and those of the ambient boundary, with the
    ambient ``space`` they come from; every other attribute is the chart's
    own."""

    chart: SurfaceChart
    space: AmbientSpace
    # boundary, zeros where the ambient space has no boundary
    b_xi: Array              # inner normal of the ambient boundary
    contact: Array           # <N, xi>
    II_NN: Array
    # the ambient boundary's mean curvature along it, tr II - II(xi, xi)
    H_boundary: Array
    f: Array
    H_f: Array               # 2H - <grad psi, N>
    ricf_NN: Array
    grad_s_psi: Array        # tangential gradient of psi
    lap_s_psi: Array         # surface Laplacian of psi
    S_f: Array
    f_b: Array               # f on the boundary
    Hf_boundary: Array       # H_boundary - <grad psi, xi>

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
    """The ambient terms on a chart: everything that the ambient boundary
    of ``space`` and its density add to the chart's Riemannian geometry."""
    g, bN = chart.b_pos, chart.b_N
    xi, II_NN, H_bd = np.zeros_like(g), np.zeros(len(g)), np.zeros(len(g))
    if space.boundary is not None:
        xi, II = boundary_normal_and_ii(space, g)
        II_NN = quadratic_form(II, bN)
        H_bd = trace(II) - quadratic_form(II, xi)
    pos, Nv, H = chart.pos, chart.N, chart.H
    jet = DensityJet(space.density, pos)
    gN = dot(jet.grad.T, Nv.T)
    ricf_NN = jet.bakry_emery_ricci(Nv)
    # lap_S psi = lap psi - hess(psi)(N, N) + 2 H <grad psi, N>
    data = ExtrinsicData(
        chart, space, b_xi=xi, contact=dot(bN.T, xi.T), II_NN=II_NN,
        H_boundary=H_bd, f=np.exp(space.density.psi(pos)), H_f=2.0 * H - gN,
        grad_s_psi=jet.grad - gN[:, None] * Nv,
        ricf_NN=ricf_NN, lap_s_psi=jet.lap + ricf_NN + 2.0 * H * gN,
        S_f=jet.perelman_scalar(), f_b=np.exp(space.density.psi(g)),
        Hf_boundary=H_bd - dot(space.density.grad_psi(g).T, xi.T))
    # every field after chart and space is an ambient term; a density
    # beyond the float range leaves no verdict to read from them
    for term in fields(ExtrinsicData)[2:]:
        if not np.all(np.isfinite(getattr(data, term.name))):
            raise NumericalFailure(f"density term {term.name} is not finite")
    return data


def H_f_rounding(data: ExtrinsicData) -> Array:
    """A bound of the rounding in H_f at each point: 16 eps times the size
    of the terms it is summed from, sum_ab |g^ab| |F_ab| for 2H (each
    sigma_ab = -<N, F_ab> is at most |F_ab|) and |grad_S psi| +
    |<grad psi, N>| >= |grad psi| for <grad psi, N>.  On a flat surface
    whose density gradient is tangent H_f is this rounding alone: a
    tilted plane's blended rim gives a nonzero F, and <N, F> is rounding
    there."""
    gN = 2.0 * data.H - data.H_f
    size = ordered_sum([np.abs(data.Ginv[:, a, b]) * norm(data.F[:, :, a, b])
                        for a in range(2) for b in range(2)]
                       + [norm(data.grad_s_psi), np.abs(gN)])
    return 16 * np.finfo(float).eps * size


def stationarity_verdict(data: ExtrinsicData) -> dict:
    """Constant H_f and orthogonal contact within 1e-6: the strong and
    volume-constrained verdicts, the mean and spread of H_f and the
    largest contact.  H_f is held to 1e-6 times the largest
    |2H| + |<grad psi, N>| of its terms plus the largest of its rounding
    (``H_f_rounding``), so the verdicts do not depend on the unit of
    length, and a plane whose H_f is rounding alone is stationary."""
    w = data.w_daf
    mean = float(np.sum(data.H_f * w) / np.sum(w))
    spread = float(np.max(np.abs(data.H_f - mean)))
    contact = float(np.max(np.abs(data.contact), initial=0.0))
    two_H = 2.0 * data.H
    tol = (1e-6 * float(np.max(np.abs(two_H) + np.abs(two_H - data.H_f)))
           + float(np.max(H_f_rounding(data))))
    vc = spread <= tol and contact <= 1e-6
    return {"strong": vc and abs(mean) <= tol, "volume_constrained": vc,
            "H_f_mean": mean, "H_f_spread": spread, "max_contact": contact}


def stationary_H_f(data: ExtrinsicData, what: str) -> float:
    """The constant H_f of a surface f-stationary under volume constraint
    by ``stationarity_verdict``; raises ``PreconditionError``, saying that
    ``what`` needs it, where the surface is not.  The second variation,
    the Jacobi operator, the stability-topology chain and the foliation
    identity ask it."""
    verdict = stationarity_verdict(data)
    if not verdict["volume_constrained"]:
        raise PreconditionError(f"{what} requires an f-stationary surface")
    return verdict["H_f_mean"]


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
