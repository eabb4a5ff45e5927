"""Numerical checkers for curvature identities, topology and area bounds,
and equality-case (rigidity) certificates.

Inequalities are only asserted when their hypotheses hold at the sampled
quadrature points; hypothesis truth is always computed and reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambient import AmbientSpace
from .errors import InputError, PreconditionError
from .functionals import DeformedFamily, Quadrature
from .stability import IndexFormAssembly
from .surface import ExtrinsicData, SurfaceMesh, stationarity_verdict

Array = np.ndarray

FLAG_TOL = 1e-6


@dataclass(frozen=True)
class RigidityFlags:
    """Equality-case certificate extracted from pointwise geometry."""

    totally_geodesic: bool
    density_const_on_surface: bool
    ricci_normal_zero: bool
    II_NN_zero: bool
    boundary_geodesic: bool
    gauss_flat: bool

    @property
    def all_true(self) -> bool:
        return all((self.totally_geodesic, self.density_const_on_surface,
                    self.ricci_normal_zero, self.II_NN_zero,
                    self.boundary_geodesic, self.gauss_flat))


def rigidity_flags(space: AmbientSpace, mesh: SurfaceMesh,
                   data: ExtrinsicData, tol: float = FLAG_TOL) -> RigidityFlags:
    sigma_max = float(np.sqrt(np.max(data.sigma2)))
    grad_max = float(np.max(np.linalg.norm(data.grad_s_psi, axis=1)))
    ric_max = float(np.max(np.abs(data.ricf_NN)))
    k_max = float(np.max(np.abs(data.K)))
    if data.has_boundary:
        ii_max = float(np.max(np.abs(data.II_NN)))
        h_max = float(np.max(np.abs(data.h_geod)))
    else:
        ii_max = 0.0
        h_max = 0.0
    return RigidityFlags(
        totally_geodesic=sigma_max <= tol,
        density_const_on_surface=grad_max <= tol,
        ricci_normal_zero=ric_max <= tol,
        II_NN_zero=ii_max <= tol,
        boundary_geodesic=h_max <= tol,
        gauss_flat=k_max <= tol,
    )


def gauss_rearrangement_residual(space: AmbientSpace, mesh: SurfaceMesh,
                                 data: ExtrinsicData) -> float:
    """Max pointwise residual of
    Ric_f(N,N) + |sigma|^2 = (S_f + H_f^2)/2 + (|sigma|^2 + |grad_S psi|^2)/2
                             - K + lap_S psi.
    """
    if space.dim != 3:
        raise InputError("the rearrangement identity is for surfaces in 3-manifolds")
    lhs = data.ricf_NN + data.sigma2
    grad2 = np.sum(data.grad_s_psi * data.grad_s_psi, axis=1)
    rhs = (0.5 * (data.S_f + data.H_f**2) + 0.5 * (data.sigma2 + grad2)
           - data.K + data.lap_s_psi)
    return float(np.max(np.abs(lhs - rhs)))


def boundary_identity_residual(space: AmbientSpace, data: ExtrinsicData) -> float:
    """Max residual of II(N,N) = 2 H_bd - h on orthogonally meeting surfaces.

    2 H_bd is the trace of the boundary's second fundamental form; it is
    recovered from the boundary f-mean curvature by adding back <grad psi, xi>.
    """
    if not data.has_boundary:
        raise InputError("surface has no boundary")
    gpsi = space.density.grad_psi(data.b_pos)
    two_H = data.Hf_boundary + np.einsum("ni,ni->n", gpsi, data.b_xi)
    return float(np.max(np.abs(data.II_NN - (two_H - data.h_geod))))


@dataclass(frozen=True)
class Hypothesis:
    name: str
    sampled_min: float
    holds: bool


@dataclass(frozen=True)
class ChainReport:
    """Stability-topology chain: I_f(u,u) with u = 1/sqrt(f) against 2 pi chi."""

    I_f_u: float
    bound1: float
    bound2: float
    chi: int
    hyp_curvature: Hypothesis        # S_f + H_f^2 >= 0
    hyp_convexity: Hypothesis        # (H_f)_bd >= 0
    asserted: bool
    chain_holds: bool
    tol: float
    has_boundary: bool


def stability_topology_chain(space: AmbientSpace, mesh: SurfaceMesh,
                             data: ExtrinsicData,
                             asm: Optional[IndexFormAssembly] = None,
                             tol: float = 1e-6) -> ChainReport:
    verdict = stationarity_verdict(space, mesh, data, tol_H=1e-5)
    if not verdict.volume_constrained:
        raise PreconditionError("chain evaluation requires an f-stationary surface")
    grad2 = np.sum(data.grad_s_psi * data.grad_s_psi, axis=1)
    # u^2 da_f = da, so every integral below is unweighted
    I_f_u = float(np.sum((0.25 * grad2 - data.ricf_NN - data.sigma2) * data.w_da))
    shf = data.S_f + data.H_f**2
    bound1 = (-0.5 * float(np.sum(shf * data.w_da))
              - 0.5 * float(np.sum(data.sigma2 * data.w_da))
              - 0.25 * float(np.sum(grad2 * data.w_da)))
    if data.has_boundary:
        I_f_u -= float(np.sum(data.II_NN * data.w_dl))
        bound1 -= float(np.sum(data.Hf_boundary * data.w_dl))
    chi = mesh.chi
    bound1 += 2 * np.pi * chi
    bound2 = 2 * np.pi * chi
    hyp1 = Hypothesis("S_f + H_f^2 >= 0", float(np.min(shf)),
                      bool(np.min(shf) >= -tol))
    min_hfb = float(np.min(data.Hf_boundary)) if data.has_boundary else 0.0
    hyp2 = Hypothesis("(H_f)_boundary >= 0", min_hfb, min_hfb >= -tol)
    asserted = hyp1.holds and hyp2.holds
    scale = 1.0 + abs(bound2)
    ctol = max(tol * scale, 1e-4)
    chain_holds = (not asserted) or (I_f_u <= bound1 + ctol
                                     and bound1 <= bound2 + ctol)
    return ChainReport(I_f_u, bound1, bound2, chi, hyp1, hyp2,
                       asserted, chain_holds, ctol, data.has_boundary)


SPHERE_OR_TORUS = "SphereOrTorus"
DISK_OR_CYLINDER = "DiskOrCylinder"
INCONSISTENT = "Inconsistent"
NOT_APPLICABLE = "NotApplicable"


def topology_verdict(chain: ChainReport, strongly_stable: bool) -> str:
    """Topology classification under the chain's hypotheses plus stability."""
    if not (chain.hyp_curvature.holds and chain.hyp_convexity.holds):
        return NOT_APPLICABLE
    if not strongly_stable:
        return NOT_APPLICABLE
    if chain.has_boundary:
        return DISK_OR_CYLINDER if chain.chi in (0, 1) else INCONSISTENT
    return SPHERE_OR_TORUS if chain.chi in (0, 2) else INCONSISTENT


@dataclass(frozen=True)
class BoundReport:
    applicable: bool
    hypothesis: Hypothesis
    S0: float
    chi: int
    A_f: float
    bound: float
    slack: float
    passed: bool


def area_bound_check(space: AmbientSpace, mesh: SurfaceMesh,
                     data: ExtrinsicData, S0: float,
                     tol: float = 1e-9) -> BoundReport:
    """Check A_f <= 4 pi / S0 (S0 > 0, disk) or A_f >= 4 pi chi / S0 (S0 < 0)."""
    if S0 == 0.0:
        raise InputError("S0 = 0 makes both area bounds degenerate")
    margin = float(np.min(data.S_f - S0 * data.f))
    hyp = Hypothesis("S_f >= S0 * f", margin, margin >= -1e-9)
    A_f = float(np.sum(data.w_daf))
    chi = mesh.chi
    if not hyp.holds:
        return BoundReport(False, hyp, S0, chi, A_f, np.nan, np.nan, False)
    if S0 > 0:
        bound = 4 * np.pi / S0
        slack = bound - A_f
        passed = chi == 1 and A_f <= bound + tol
        return BoundReport(True, hyp, S0, chi, A_f, bound, slack, passed)
    if chi >= 0:
        return BoundReport(False, hyp, S0, chi, A_f, np.nan, np.nan, False)
    bound = 4 * np.pi * chi / S0
    slack = A_f - bound
    return BoundReport(True, hyp, S0, chi, A_f, bound, slack, A_f >= bound - tol)


@dataclass(frozen=True)
class FoliationReport:
    s_values: Array
    lhs: Array                  # H_f'(s) * A_f(s)
    rhs: Array                  # boundary + potential integrals
    max_rel_residual: float
    hyp_ricci: Hypothesis
    hyp_boundary: Hypothesis
    monotone_asserted: bool
    monotone_holds: bool


def foliation_monotonicity_check(space: AmbientSpace, family: DeformedFamily,
                                 quad: Quadrature = Quadrature(),
                                 s_values=(-0.1, 0.0, 0.1),
                                 h: float = 1e-3,
                                 tol: float = 1e-3) -> FoliationReport:
    """Verify H_f'(s) A_f(s) = int_bd II u dl_f + int (Ric_f(N,N)+|sigma|^2) u da_f."""
    s_values = np.asarray(s_values, float)
    base_data = family.geometry(0.0, quad)
    pos0 = base_data.pos
    bpos0 = base_data.b_pos if base_data.has_boundary else None
    lhs = np.empty(len(s_values))
    rhs = np.empty(len(s_values))
    dHfs = np.empty(len(s_values))
    ric_min = np.inf
    ii_min = np.inf
    for i, s in enumerate(s_values):
        d = family.geometry(s, quad)
        verdict = stationarity_verdict(space, family.mesh, d, tol_H=1e-5)
        if not verdict.volume_constrained:
            raise PreconditionError(f"slice at s = {s} is not f-stationary")
        u = np.sum(family.flow.velocity(s, pos0) * d.N, axis=1)
        if np.min(u) <= 0:
            raise PreconditionError("foliation speed u must be positive")
        dp = family.geometry(s + h, quad)
        dm = family.geometry(s - h, quad)
        wp = np.sum(dp.w_daf)
        wm = np.sum(dm.w_daf)
        Hp = float(np.sum(dp.H_f * dp.w_daf) / wp)
        Hm = float(np.sum(dm.H_f * dm.w_daf) / wm)
        dHf = (Hp - Hm) / (2 * h)
        A_f = float(np.sum(d.w_daf))
        lhs[i] = dHf * A_f
        dHfs[i] = dHf
        pot = d.ricf_NN + d.sigma2
        val = float(np.sum(pot * u * d.w_daf))
        if d.has_boundary:
            ub = np.sum(family.flow.velocity(s, bpos0) * d.b_N, axis=1)
            val += float(np.sum(d.II_NN * ub * d.w_dlf))
            ii_min = min(ii_min, float(np.min(d.II_NN)))
        ric_min = min(ric_min, float(np.min(d.ricf_NN)))
        rhs[i] = val
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    resid = float(np.max(np.abs(lhs - rhs))) / scale
    if ii_min is np.inf:
        ii_min = 0.0
    hyp_r = Hypothesis("Ric_f >= 0", ric_min, ric_min >= -1e-9)
    hyp_b = Hypothesis("II >= 0", ii_min, ii_min >= -1e-9)
    asserted = hyp_r.holds and hyp_b.holds
    monotone = (not asserted) or bool(np.all(dHfs >= -tol))
    return FoliationReport(s_values, lhs, rhs, resid, hyp_r, hyp_b,
                           asserted, monotone)
