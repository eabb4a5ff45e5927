"""Weighted area/volume functionals, variations, and their derivatives.

Variations are ambient flows applied to a reference immersion; the deformed
surface reuses the base mesh connectivity, so A_f(s) and V_f(s) are smooth
functions of the flow parameter and safe to differentiate by finite
differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ambient import AmbientSpace
from .errors import InputError, NumericalFailure, PreconditionError
from .surface import (ExtrinsicData, Immersion, SurfaceMesh,
                      extrinsic_geometry, stationarity_verdict)

Array = np.ndarray

FD_FIELD_JAC = 1e-5


@dataclass(frozen=True)
class Quadrature:
    """Named quadrature rules used for surface and boundary integrals."""

    rule: str = "Gauss3"             # Centroid1 | Gauss3 | Gauss6
    boundary_rule: str = "Gauss2"    # Midpoint | Gauss2


def geometry(space: AmbientSpace, mesh: SurfaceMesh, quad: Quadrature,
             imm: Optional[Immersion] = None) -> ExtrinsicData:
    return extrinsic_geometry(space, imm, mesh, quad.rule, quad.boundary_rule)


# ---------------------------------------------------------------------------
# variation fields
# ---------------------------------------------------------------------------

def quintic_bump(x: Array) -> Array:
    """C^2 bump on [0, 1]: 0 at 0 with two flat derivatives, 1 at 1."""
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


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
    """One-parameter family of ambient maps phi_s acting on base points."""

    def map(self, s: float, P: Array) -> Array:
        raise NotImplementedError

    def velocity(self, s: float, P: Array) -> Array:
        """d/ds phi_s at the particle started from base point P."""
        h = 1e-6
        return (self.map(s + h, P) - self.map(s - h, P)) / (2 * h)

    def jac(self, s: float, P: Array) -> Array:
        P = np.atleast_2d(P)
        J = np.empty((len(P), 3, 3))
        h = FD_FIELD_JAC
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            J[:, :, a] = (self.map(s, P + e) - self.map(s, P - e)) / (2 * h)
        return J

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
        self.d = np.asarray(direction, float)

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
        self.c = np.asarray(center, float)

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
        a = np.asarray(axis, float)
        self.a = a / np.linalg.norm(a)
        self.c = np.asarray(point, float)

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


class DeformedImmersion(Immersion):
    """Base immersion pushed through an ambient flow at parameter s.

    Boundary points are re-projected onto {phi = 0} after the flow; the
    boundary curve derivatives of the projected curve are taken by finite
    differences in the arc parameter.
    """

    def __init__(self, base: Immersion, flow: Flow, s: float,
                 space: Optional[AmbientSpace] = None):
        self.base = base
        self.flow = flow
        self.s = float(s)
        self.space = space
        self.param_dim = base.param_dim
        self.orientation_sign = base.orientation_sign
        self.domain = base.domain

    def chart(self, Q):
        return self.flow.map(self.s, self.base.chart(Q))

    def chart_jac(self, Q):
        P0 = self.base.chart(Q)
        J0 = self.base.chart_jac(Q)
        DF = self.flow.jac(self.s, P0)
        return np.einsum("nij,nja->nia", DF, J0)

    def chart_hess(self, Q):
        P0 = self.base.chart(Q)
        J0 = self.base.chart_jac(Q)
        H0 = self.base.chart_hess(Q)
        DF = self.flow.jac(self.s, P0)
        HF = self.flow.hess(self.s, P0)
        term1 = np.einsum("nij,njab->niab", DF, H0)
        term2 = np.einsum("nijk,nja,nkb->niab", HF, J0, J0)
        return term1 + term2

    def boundary_chart(self, Q):
        P = self.flow.map(self.s, self.base.boundary_chart(Q))
        if self.space is not None and self.space.boundary is not None:
            bd = self.space.boundary
            for _ in range(3):
                phi = np.atleast_1d(bd.phi(P))
                if np.max(np.abs(phi)) <= 1e-12:
                    break
                g = bd.grad_phi(P)
                P = P - phi[:, None] * g / np.sum(g * g, axis=-1)[:, None]
        return P

    def boundary_curve_derivs(self, arc, ts):
        if self.space is None or self.space.boundary is None:
            return super().boundary_curve_derivs(arc, ts)
        ts = np.asarray(ts, float)
        h = 1e-4

        def g_at(t):
            return self.boundary_chart(arc.c(t))

        g = g_at(ts)
        gp = g_at(ts + h)
        gm = g_at(ts - h)
        dg = (gp - gm) / (2 * h)
        ddg = (gp - 2 * g + gm) / h**2
        return g, dg, ddg

    def boundary_arcs(self):
        return self.base.boundary_arcs()


@dataclass
class DeformedFamily:
    """A variation: base surface plus an ambient flow."""

    space: AmbientSpace
    base: Immersion
    mesh: SurfaceMesh
    flow: Flow

    def immersion(self, s: float) -> Immersion:
        if s == 0.0:
            return self.base
        return DeformedImmersion(self.base, self.flow, s, self.space)

    def geometry(self, s: float, quad: Quadrature) -> ExtrinsicData:
        return geometry(self.space, self.mesh, quad, self.immersion(s))

    def rebase(self, s0: float) -> "DeformedFamily":
        """Family restarted from the surface at parameter s0.

        Valid for flows that compose additively in s (translations,
        rotations).
        """
        return DeformedFamily(self.space,
                              DeformedImmersion(self.base, self.flow, s0,
                                                self.space),
                              self.mesh, self.flow)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def weighted_area(space: AmbientSpace, mesh: SurfaceMesh,
                  quad: Quadrature = Quadrature(),
                  imm: Optional[Immersion] = None,
                  data: Optional[ExtrinsicData] = None) -> float:
    if data is None:
        data = geometry(space, mesh, quad, imm)
    return float(np.sum(data.w_daf))


GL8_NODES, GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def swept_weighted_volume(space: AmbientSpace, family: DeformedFamily,
                          s: float, quad: Quadrature = Quadrature()) -> float:
    """V_f(s) = int_0^s int_Sigma <dphi/dt, N_t> f da dt."""
    if s == 0.0:
        return 0.0
    base_data = family.geometry(0.0, quad)
    pos0 = base_data.pos
    total = 0.0
    for node, wt in zip(GL8_NODES, GL8_WEIGHTS):
        t = 0.5 * s * (node + 1.0)
        data_t = family.geometry(t, quad)
        vel = family.flow.velocity(t, pos0)
        integrand = np.sum(vel * data_t.N, axis=1) * data_t.w_daf
        total += wt * float(np.sum(integrand))
    return 0.5 * s * total


def first_variation_formula(space: AmbientSpace, mesh: SurfaceMesh,
                            data: ExtrinsicData, field: VariationField,
                            quad: Quadrature = Quadrature()) -> float:
    """A_f'(0) = -int H_f u da_f - int_bd <X, nu> dl_f."""
    field.check_admissible(space, data)
    u = normal_component(field, data)
    out = -float(np.sum(data.H_f * u * data.w_daf))
    if data.has_boundary:
        Xb = field.values(data.b_pos, data.b_params)
        out -= float(np.sum(np.sum(Xb * data.b_nu, axis=1) * data.w_dlf))
    return out


def volume_first_variation(space: AmbientSpace, mesh: SurfaceMesh,
                           data: ExtrinsicData, field: VariationField,
                           quad: Quadrature = Quadrature()) -> float:
    """V_f'(0) = int u da_f."""
    u = normal_component(field, data)
    return float(np.sum(u * data.w_daf))


@dataclass(frozen=True)
class FDReport:
    value: float
    error_estimate: float


def _area_of(family: DeformedFamily, s: float, quad: Quadrature) -> float:
    return weighted_area(family.space, family.mesh, quad,
                         imm=family.immersion(s))


def first_variation_fd(space: AmbientSpace, family: DeformedFamily,
                       quad: Quadrature = Quadrature(),
                       h: float = 1e-3) -> FDReport:
    """Richardson-extrapolated centered difference of A_f at s = 0."""
    def diff(step):
        return (_area_of(family, step, quad)
                - _area_of(family, -step, quad)) / (2 * step)

    d1 = diff(h)
    d2 = diff(h / 2)
    value = (4 * d2 - d1) / 3
    err = abs(d2 - d1) / 3
    if err > 1e-3 * max(1.0, abs(value)):
        raise NumericalFailure(
            f"first-variation FD estimates inconsistent across steps "
            f"(spread {err:.2e})")
    return FDReport(value, err)


def second_variation_fd(space: AmbientSpace, family: DeformedFamily,
                        quad: Quadrature = Quadrature(),
                        h: float = 1e-2) -> FDReport:
    """(A_f + H_f V_f)''(0) by a 5-point stencil with Richardson.

    Requires the base surface to be f-stationary under volume constraint.
    """
    data0 = family.geometry(0.0, quad)
    verdict = stationarity_verdict(space, family.mesh, data0, tol_H=1e-5)
    if not verdict.volume_constrained:
        raise PreconditionError(
            "second variation formula requires an f-stationary base surface")
    Hf0 = verdict.H_f_mean

    def W(s):
        if s == 0.0:
            return float(np.sum(data0.w_daf))
        return (_area_of(family, s, quad)
                + Hf0 * swept_weighted_volume(space, family, s, quad))

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
                                data: ExtrinsicData, field: VariationField,
                                quad: Quadrature = Quadrature()) -> float:
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
        J = imm.chart_jac(Q)
        if Q.shape[1] == 2:
            Nv = np.cross(J[:, :, 0], J[:, :, 1])
        else:
            U, _, _ = np.linalg.svd(J)
            Nv = U[:, :, 2]
        Nv = Nv / np.linalg.norm(Nv, axis=1)[:, None]
        g = self.g_grad(P)
        return g - np.sum(g * Nv, axis=1)[:, None] * Nv
