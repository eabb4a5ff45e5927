"""Weighted area/volume functionals, variations, and their derivatives.

Variations are ambient flows applied to a reference immersion; the deformed
surface reuses the base mesh connectivity, so A_f(s) and V_f(s) are smooth
functions of the flow parameter and safe to differentiate by finite
differences.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ambient import AmbientSpace, unit_vector3, vector3
from .errors import InputError, NumericalFailure, PreconditionError
from .surface import (ExtrinsicData, Immersion, SurfaceMesh,
                      _chart_at_boundary, _chart_at_quadrature,
                      _fields_from_chart, _first_order_fields,
                      _normal_from_jac, stationarity_verdict)

Array = np.ndarray

FD_FIELD_JAC = 1e-5


# ---------------------------------------------------------------------------
# variation fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationField:
    """Ambient vector field along the surface, optionally cut off in params.

    ``X`` maps ambient positions (N, 3) to vectors (N, 3); ``cutoff`` maps
    parameter points to scalars and must vanish with its first derivatives
    where it reaches the edge of its support.
    """

    X: Callable[[Array], Array]
    cutoff: Optional[Callable[[Array], Array]] = None
    name: str = "field"

    def values(self, pos: Array, params: Optional[Array] = None) -> Array:
        v = self.X(np.atleast_2d(pos))
        if self.cutoff is not None:
            if params is None:
                raise InputError("cutoff field requires parameter points")
            v = v * np.atleast_1d(self.cutoff(np.atleast_2d(params)))[:, None]
        return v

    def check_admissible(self, space: AmbientSpace, data: ExtrinsicData,
                         tol: float = 1e-8) -> None:
        if space.boundary is None or not data.has_boundary:
            return
        Xb = self.values(data.b_pos, data.b_params)
        worst = float(np.max(np.abs(np.sum(Xb * data.b_xi, axis=1))))
        if worst > tol:
            raise InputError(
                f"variation field is not tangent to the ambient boundary "
                f"(max |<X, xi>| = {worst:.2e})")


def normal_component(field: VariationField, data: ExtrinsicData) -> Array:
    Xv = field.values(data.pos, data.params)
    return np.sum(Xv * data.N, axis=1)


# ---------------------------------------------------------------------------
# flows and deformed families
# ---------------------------------------------------------------------------

class Flow:
    """One-parameter family of ambient maps phi_s acting on base points.

    Subclasses implement ``map``, ``velocity`` (d/ds phi_s at the particle
    started from base point P) and the spatial Jacobian ``jac``; ``hess``
    falls back to centered finite differences of ``map``.
    """

    def map(self, s: float, P: Array) -> Array:
        raise NotImplementedError

    def hess(self, s: float, P: Array) -> Array:
        P = np.atleast_2d(P)
        H = np.empty((len(P), 3, 3, 3))
        h = 2e-4
        F0 = self.map(s, P)
        for a in range(3):
            ea = np.zeros(3)
            ea[a] = h
            H[:, :, a, a] = (self.map(s, P + ea) - 2 * F0 + self.map(s, P - ea)) / h**2
            for b in range(a + 1, 3):
                eb = np.zeros(3)
                eb[b] = h
                v = (self.map(s, P + ea + eb) - self.map(s, P + ea - eb)
                     - self.map(s, P - ea + eb) + self.map(s, P - ea - eb)) / (4 * h**2)
                H[:, :, a, b] = v
                H[:, :, b, a] = v
        return H


class TranslationFlow(Flow):
    def __init__(self, direction):
        self.d = vector3(direction, "translation direction")

    def map(self, s, P):
        return np.atleast_2d(P) + s * self.d

    def velocity(self, s, P):
        return np.broadcast_to(self.d, np.atleast_2d(P).shape).copy()

    def jac(self, s, P):
        return np.broadcast_to(np.eye(3), (len(np.atleast_2d(P)), 3, 3)).copy()

    def hess(self, s, P):
        return np.zeros((len(np.atleast_2d(P)), 3, 3, 3))


class ScalingFlow(Flow):
    """p -> c + (1+s)(p - c); inflates spheres of center c."""

    def __init__(self, center=(0, 0, 0)):
        self.c = vector3(center, "scaling center")

    def map(self, s, P):
        return self.c + (1.0 + s) * (np.atleast_2d(P) - self.c)

    def velocity(self, s, P):
        return np.atleast_2d(P) - self.c

    def jac(self, s, P):
        return np.broadcast_to((1.0 + s) * np.eye(3),
                               (len(np.atleast_2d(P)), 3, 3)).copy()

    def hess(self, s, P):
        return np.zeros((len(np.atleast_2d(P)), 3, 3, 3))


class RotationFlow(Flow):
    """Rotation of angle s about an axis through a point."""

    def __init__(self, axis=(0, 0, 1), point=(0, 0, 0)):
        self.a = unit_vector3(axis, "rotation axis")
        self.c = vector3(point, "rotation point")

    def _rot(self, s):
        a = self.a
        ax = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        return np.eye(3) + np.sin(s) * ax + (1 - np.cos(s)) * ax @ ax

    def map(self, s, P):
        return self.c + (np.atleast_2d(P) - self.c) @ self._rot(s).T

    def velocity(self, s, P):
        rel = (np.atleast_2d(P) - self.c) @ self._rot(s).T
        return np.cross(self.a, rel)

    def jac(self, s, P):
        return np.broadcast_to(self._rot(s), (len(np.atleast_2d(P)), 3, 3)).copy()

    def hess(self, s, P):
        return np.zeros((len(np.atleast_2d(P)), 3, 3, 3))


class FieldFlow(Flow):
    """p -> p + s*X(p) for a smooth ambient field X."""

    def __init__(self, X, Xjac=None, Xhess=None):
        self.X = X
        self.Xjac = Xjac
        self.Xhess = Xhess

    def map(self, s, P):
        P = np.atleast_2d(P)
        return P + s * self.X(P)

    def velocity(self, s, P):
        return self.X(np.atleast_2d(P))

    def jac(self, s, P):
        P = np.atleast_2d(P)
        if self.Xjac is not None:
            DX = self.Xjac(P)
        else:
            DX = np.empty((len(P), 3, 3))
            h = FD_FIELD_JAC
            for a in range(3):
                e = np.zeros(3)
                e[a] = h
                DX[:, :, a] = (self.X(P + e) - self.X(P - e)) / (2 * h)
        return np.eye(3)[None] + s * DX

    def hess(self, s, P):
        if s == 0.0:
            return np.zeros((len(np.atleast_2d(P)), 3, 3, 3))
        if self.Xhess is not None:
            return s * self.Xhess(np.atleast_2d(P))
        return super().hess(s, P)


@dataclass
class DeformedFamily:
    """A variation: base surface plus an ambient flow.

    The base chart is evaluated once, on first use, and kept for the
    family's lifetime; every slice is the flow applied to it.  Area and
    volume read the base positions and Jacobians only; full geometry also
    reads the base chart Hessian and boundary arrays, kept on first use.
    ``base_data`` is the full geometry of the base, computed on first use
    when it is not given.  Each slice's A_f and volume rate are kept per s,
    so the FD variations, the swept volume and the samples share slices.
    """

    space: AmbientSpace
    base: Immersion
    mesh: SurfaceMesh
    flow: Flow
    base_data: Optional[ExtrinsicData] = None
    # s -> (A_f(s), V_f'(s)): two floats per slice, never arrays
    _slices: Dict[float, Tuple[float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @functools.cached_property
    def base_chart(self) -> Tuple[Array, ...]:
        """(Q, D1, D2, P0, J0, Q2) of the base at the quadrature points."""
        return _chart_at_quadrature(self.base, self.mesh)

    @functools.cached_property
    def base_second_order(self) -> Tuple[Array, Optional[tuple]]:
        """The base chart Hessian H0 at the quadrature points and the base
        boundary arrays (see surface._chart_at_boundary); full geometry of a
        slice off the base reads them, area and volume never do."""
        return (self.base.chart_hess(self.base_chart[0]),
                _chart_at_boundary(self.base, self.mesh))

    def area_elements(self, s: float):
        """Positions, unit normals and w da_f of the slice at s."""
        Q, D1, D2, P0, J0, _ = self.base_chart
        pos, J = P0, J0
        if s != 0.0:       # the slice at 0 is the base
            pos = self.flow.map(s, P0)
            J = np.matmul(self.flow.jac(s, P0), J0)
        first = _first_order_fields(self.space, self.base.orientation_sign,
                                    Q, D1, D2, pos, J)
        return first["pos"], first["N"], first["w_da"] * first["f"]

    def _slice(self, s: float) -> Tuple[float, float]:
        """(A_f, V_f') of the slice at s, evaluated once per s.

        V_f'(s) = int_Sigma <dphi/ds, N_s> f da over the slice."""
        s = float(s)
        if s not in self._slices:
            _, N, w_daf = self.area_elements(s)
            vel = self.flow.velocity(s, self.base_chart[3])
            rate = float(np.sum(np.sum(vel * N, axis=1) * w_daf))
            self._slices[s] = (float(np.sum(w_daf)), rate)
        return self._slices[s]

    def weighted_area(self, s: float) -> float:
        """A_f of the slice at s."""
        return self._slice(s)[0]

    def geometry(self, s: float) -> ExtrinsicData:
        """Full geometry of the slice at s; the base's is computed once.

        Off the base it is the flow applied to the cached base data, with
        the chain rule for the second derivatives: the chart Hessian is
        Dphi H0 + D^2phi(J0, J0), and along the boundary curve
        g'' -> Dphi g'' + D^2phi(g', g').  A flow that moves the boundary
        curve off the ambient boundary is not an admissible variation.
        """
        sign = self.base.orientation_sign
        if s == 0.0:
            if self.base_data is None:
                self.base_data = _fields_from_chart(
                    self.space, sign, self.mesh, self.base_chart,
                    *self.base_second_order)
            return self.base_data
        Q, D1, D2, P0, J0, Q2 = self.base_chart
        H0, boundary = self.base_second_order
        DF = self.flow.jac(s, P0)
        Hc = (np.einsum("nij,njab->niab", DF, H0)
              + np.einsum("nijk,nja,nkb->niab", self.flow.hess(s, P0),
                          J0, J0))
        chart = (Q, D1, D2, self.flow.map(s, P0), np.matmul(DF, J0), Q2)
        if boundary is not None:
            edges, qb, g0, dg0, ddg0, Jb0, v0 = boundary
            g = self.flow.map(s, g0)
            bd = self.space.boundary
            if bd is not None:
                res = np.max(np.abs(np.atleast_1d(bd.phi(g))))
                if not res <= 1e-10:
                    raise InputError(
                        f"the flow moves the slice at s = {s} off the "
                        f"ambient boundary (max |phi| = {res:.2e}), so it "
                        f"is not an admissible variation")
            DFb = self.flow.jac(s, g0)
            dg = np.einsum("nij,nj->ni", DFb, dg0)
            ddg = (np.einsum("nij,nj->ni", DFb, ddg0)
                   + np.einsum("nijk,nj,nk->ni", self.flow.hess(s, g0),
                               dg0, dg0))
            boundary = (edges, qb, g, dg, ddg, np.matmul(DFb, Jb0),
                        np.einsum("nij,nj->ni", DFb, v0))
        return _fields_from_chart(self.space, sign, self.mesh, chart, Hc,
                                  boundary)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

# 5-point Gauss-Lobatto on [-1, 1]: exact to degree 7, and its end nodes
# are the panel ends, which neighbouring panels share
LOBATTO5_NODES = (-1.0, -np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0), 1.0)
LOBATTO5_WEIGHTS = (0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1)


def swept_weighted_volume(family: DeformedFamily,
                          s_values: Sequence[float]) -> List[float]:
    """V_f(s) = int_0^s int_Sigma <dphi/dt, N_t> f da dt at each s of a grid.

    The grid starts next to 0 and moves away from it on one side; the
    integral runs panel by panel over [0, s1], [s1, s2], ... with a 5-point
    Gauss-Lobatto rule whose end nodes are the grid values themselves, so
    neighbouring panels and the caller's A_f(s) share the family's slices.
    """
    out = []
    total = a = 0.0
    for b in map(float, s_values):
        if b != a:
            if not (a * b >= 0.0 and abs(b) > abs(a)):
                raise InputError(
                    f"swept volume grid must move away from 0 on one side "
                    f"(got {a!r} then {b!r})")
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            inner = [mid + half * x for x in LOBATTO5_NODES[1:4]]
            total += half * sum(wt * family._slice(t)[1] for t, wt in
                                zip([a, *inner, b], LOBATTO5_WEIGHTS))
            a = b
        out.append(total)
    return out


def first_variation_formula(space: AmbientSpace, data: ExtrinsicData,
                            field: VariationField) -> float:
    """A_f'(0) = -int H_f u da_f - int_bd <X, nu> dl_f."""
    field.check_admissible(space, data)
    u = normal_component(field, data)
    out = -float(np.sum(data.H_f * u * data.w_daf))
    if data.has_boundary:
        Xb = field.values(data.b_pos, data.b_params)
        out -= float(np.sum(np.sum(Xb * data.b_nu, axis=1) * data.w_dlf))
    return out


def volume_first_variation(data: ExtrinsicData,
                           field: VariationField) -> float:
    """V_f'(0) = int u da_f."""
    u = normal_component(field, data)
    return float(np.sum(u * data.w_daf))


@dataclass(frozen=True)
class FDReport:
    value: float
    error_estimate: float


def first_variation_fd(family: DeformedFamily, h: float = 1e-3) -> FDReport:
    """Richardson-extrapolated centered difference of A_f at s = 0."""
    def diff(step):
        return (family.weighted_area(step)
                - family.weighted_area(-step)) / (2 * step)

    d1 = diff(h)
    d2 = diff(h / 2)
    value = (4 * d2 - d1) / 3
    err = abs(d2 - d1) / 3
    if err > 1e-3 * max(1.0, abs(value)):
        raise NumericalFailure(
            f"first-variation FD estimates inconsistent across steps "
            f"(spread {err:.2e})")
    return FDReport(value, err)


def second_variation_fd(family: DeformedFamily, h: float = 1e-2) -> FDReport:
    """(A_f + H_f V_f)''(0) by a 5-point stencil with Richardson.

    Requires the base surface to be f-stationary under volume constraint.
    """
    data0 = family.geometry(0.0)
    verdict = stationarity_verdict(data0, tol_H=1e-5)
    if not verdict.volume_constrained:
        raise PreconditionError(
            "second variation formula requires an f-stationary base surface")
    Hf0 = verdict.H_f_mean
    volume = {}
    for side in ((h / 2, h), (-h / 2, -h)):
        volume.update(zip(side, swept_weighted_volume(family, side)))

    def W(s):
        if s == 0.0:
            return float(np.sum(data0.w_daf))
        return family.weighted_area(s) + Hf0 * volume[s]

    w0 = W(0.0)

    def d2(step):
        return (W(step) - 2 * w0 + W(-step)) / step**2

    a = d2(h)
    b = d2(h / 2)
    value = (4 * b - a) / 3
    err = abs(b - a) / 3
    return FDReport(value, err)


# ---------------------------------------------------------------------------
# divergence theorem / integration by parts
# ---------------------------------------------------------------------------

def surface_divergence(imm: Immersion, data: ExtrinsicData,
                       field: VariationField) -> Array:
    """div_Sigma X at interior quadrature points.

    Finite differences of X(chart(q)) along the two triangle edge directions
    give the derivatives paired with the frame (E1, E2); contraction with the
    inverse metric in that frame yields the tangential divergence.
    """
    d1 = data.D1
    d2 = data.D2
    Q = data.params
    h = FD_FIELD_JAC

    def Xtilde(Qp):
        return field.values(imm.chart(Qp), Qp)

    dX1 = (Xtilde(Q + h * d1) - Xtilde(Q - h * d1)) / (2 * h)
    dX2 = (Xtilde(Q + h * d2) - Xtilde(Q - h * d2)) / (2 * h)
    # pair derivatives with frame vectors: div = g^{ab} <d_a X, E_b>
    m11 = np.sum(dX1 * data.E1, axis=1)
    m12 = np.sum(dX1 * data.E2, axis=1)
    m21 = np.sum(dX2 * data.E1, axis=1)
    m22 = np.sum(dX2 * data.E2, axis=1)
    G = data.Ginv
    return (G[:, 0, 0] * m11 + G[:, 0, 1] * m12
            + G[:, 1, 0] * m21 + G[:, 1, 1] * m22)


def divergence_theorem_residual(space: AmbientSpace, mesh: SurfaceMesh,
                                data: ExtrinsicData,
                                field: VariationField) -> float:
    """Residual of int div_{Sigma,f} X da_f = -int H_f <X,N> da_f - int <X,nu> dl_f."""
    imm = mesh.immersion
    div = surface_divergence(imm, data, field)
    Xv = field.values(data.pos, data.params)
    div_f = div + np.sum(space.density.grad_psi(data.pos) * Xv, axis=1)
    lhs = float(np.sum(div_f * data.w_daf))
    un = np.sum(Xv * data.N, axis=1)
    bulk = float(np.sum(data.H_f * un * data.w_daf))
    flux = 0.0
    if data.has_boundary:
        Xb = field.values(data.b_pos, data.b_params)
        flux = float(np.sum(np.sum(Xb * data.b_nu, axis=1) * data.w_dlf))
    return abs(lhs + bulk + flux)


class SurfaceGradientField(VariationField):
    """Tangential gradient of an ambient scalar, evaluated via the immersion.

    Off-surface positions are never needed: the field is evaluated at
    parameter points, where the normal comes from the chart Jacobian, so it
    composes cleanly with the finite differences in ``surface_divergence``.
    Feeding it to ``divergence_theorem_residual`` reproduces the integration
    by parts identity for the surface Laplacian.
    """

    def __init__(self, imm: Immersion, g_grad: Callable[[Array], Array],
                 name: str = "surface-gradient"):
        object.__setattr__(self, "X", None)
        object.__setattr__(self, "cutoff", None)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "imm", imm)
        object.__setattr__(self, "g_grad", g_grad)

    def values(self, pos, params=None):
        if params is None:
            raise InputError("SurfaceGradientField requires parameter points")
        Q = np.atleast_2d(params)
        imm = self.imm
        P = imm.chart(Q)
        Nv = _normal_from_jac(imm.orientation_sign, imm.chart_jac(Q))
        g = self.g_grad(P)
        return g - np.sum(g * Nv, axis=1)[:, None] * Nv
