"""Numerical checkers for curvature identities, topology and area bounds,
and equality-case (rigidity) certificates.

Inequalities are only asserted when their hypotheses hold at the sampled
quadrature points; hypothesis truth is always computed and reported.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import dot, norm, squared_norm
from .errors import InputError, PreconditionError
from .functionals import DeformedFamily
from .surface import ExtrinsicData, stationary_H_f

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


def rigidity_flags(data: ExtrinsicData) -> RigidityFlags:
    sigma_max = float(np.sqrt(np.max(data.sigma2)))
    grad_max = float(np.max(norm(data.grad_s_psi)))
    ric_max = float(np.max(np.abs(data.ricf_NN)))
    k_max = float(np.max(np.abs(data.K)))
    if data.has_boundary:
        ii_max = float(np.max(np.abs(data.II_NN)))
        h_max = float(np.max(np.abs(data.h_geod)))
    else:
        ii_max = 0.0
        h_max = 0.0
    return RigidityFlags(
        totally_geodesic=sigma_max <= FLAG_TOL,
        density_const_on_surface=grad_max <= FLAG_TOL,
        ricci_normal_zero=ric_max <= FLAG_TOL,
        II_NN_zero=ii_max <= FLAG_TOL,
        boundary_geodesic=h_max <= FLAG_TOL,
        gauss_flat=k_max <= FLAG_TOL,
    )


def gauss_rearrangement_residual(data: ExtrinsicData) -> float:
    """Max pointwise residual of
    Ric_f(N,N) + |sigma|^2 = (S_f + H_f^2)/2 + (|sigma|^2 + |grad_S psi|^2)/2
                             - K + lap_S psi.
    """
    lhs = data.ricf_NN + data.sigma2
    grad2 = squared_norm(data.grad_s_psi)
    rhs = (0.5 * (data.S_f + data.H_f**2) + 0.5 * (data.sigma2 + grad2)
           - data.K + data.lap_s_psi)
    return float(np.max(np.abs(lhs - rhs)))


def boundary_identity_residual(data: ExtrinsicData) -> float:
    """Max residual of II(N,N) = H_boundary - h on orthogonally meeting
    surfaces, H_boundary the trace of the ambient boundary's second
    fundamental form, which the chart keeps: no density term enters."""
    if not data.has_boundary:
        raise InputError("surface has no boundary")
    return float(np.max(np.abs(data.II_NN - (data.H_boundary - data.h_geod))))


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


# the slack of the chain's hypotheses, and its relative slack on the
# inequalities, which never drops below 1e-4
CHAIN_TOL = 1e-6


def stability_topology_chain(data: ExtrinsicData) -> ChainReport:
    stationary_H_f(data, "the stability-topology chain")
    grad2 = squared_norm(data.grad_s_psi)
    # u^2 da_f = da, so every integral below is unweighted
    I_f_u = float(np.sum((0.25 * grad2 - data.ricf_NN - data.sigma2) * data.w_da))
    shf = data.S_f + data.H_f**2
    bound1 = (-0.5 * float(np.sum(shf * data.w_da))
              - 0.5 * float(np.sum(data.sigma2 * data.w_da))
              - 0.25 * float(np.sum(grad2 * data.w_da)))
    if data.has_boundary:
        I_f_u -= float(np.sum(data.II_NN * data.w_dl))
        bound1 -= float(np.sum(data.Hf_boundary * data.w_dl))
    chi = data.mesh.chi
    bound1 += 2 * np.pi * chi
    bound2 = 2 * np.pi * chi
    hyp1 = Hypothesis("S_f + H_f^2 >= 0", float(np.min(shf)),
                      bool(np.min(shf) >= -CHAIN_TOL))
    min_hfb = float(np.min(data.Hf_boundary)) if data.has_boundary else 0.0
    hyp2 = Hypothesis("(H_f)_boundary >= 0", min_hfb, min_hfb >= -CHAIN_TOL)
    asserted = hyp1.holds and hyp2.holds
    scale = 1.0 + abs(bound2)
    ctol = max(CHAIN_TOL * scale, 1e-4)
    chain_holds = (not asserted) or (I_f_u <= bound1 + ctol
                                     and bound1 <= bound2 + ctol)
    return ChainReport(I_f_u, bound1, bound2, chi, hyp1, hyp2,
                       asserted, chain_holds, ctol, data.has_boundary)


# the verdicts of topology_verdict, each named once
TOPOLOGY_VERDICTS = (SPHERE_OR_TORUS, DISK_OR_CYLINDER, INCONSISTENT,
                     NOT_APPLICABLE) = ("SphereOrTorus", "DiskOrCylinder",
                                        "Inconsistent", "NotApplicable")


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


# the slack of A_f against an area bound
AREA_BOUND_TOL = 1e-9


def area_bound_check(data: ExtrinsicData, S0: float,
                     strongly_stable: bool) -> BoundReport:
    """Check A_f <= 4 pi / S0 (S0 > 0, a disk) or A_f >= 4 pi chi / S0
    (S0 < 0, chi < 0) on a strongly stable surface with S_f >= S0 f; the
    bounds apply nowhere else."""
    if S0 == 0.0:
        raise InputError("S0 = 0 makes both area bounds degenerate")
    margin = float(np.min(data.S_f - S0 * data.f))
    hyp = Hypothesis("S_f >= S0 * f", margin, margin >= -1e-9)
    A_f = float(np.sum(data.w_daf))
    chi = data.mesh.chi
    if S0 > 0:
        applies, bound = chi == 1, 4 * np.pi / S0
        slack, passed = bound - A_f, A_f <= bound + AREA_BOUND_TOL
    else:
        applies, bound = chi < 0, 4 * np.pi * chi / S0
        slack, passed = A_f - bound, A_f >= bound - AREA_BOUND_TOL
    if not (strongly_stable and hyp.holds and applies):
        return BoundReport(False, hyp, S0, chi, A_f, np.nan, np.nan, False)
    return BoundReport(True, hyp, S0, chi, A_f, bound, slack, passed)


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


# the leaves the foliation identity is checked on, and the centered
# difference step of H_f'(s) on each
FOLIATION_S_VALUES = (-0.1, 0.0, 0.1)
FOLIATION_STEP = 1e-3


def foliation_monotonicity_check(family: DeformedFamily,
                                 tol: float = 1e-3) -> FoliationReport:
    """Verify H_f'(s) A_f(s) = int_bd II u dl_f + int (Ric_f(N,N)+|sigma|^2) u da_f."""
    s_values, h = np.asarray(FOLIATION_S_VALUES, float), FOLIATION_STEP
    pos0, bpos0 = family.data.pos, family.data.b_pos
    lhs = np.empty(len(s_values))
    rhs = np.empty(len(s_values))
    dHfs = np.empty(len(s_values))
    ric_min = np.inf
    ii_min = np.inf
    for i, s in enumerate(s_values):
        d = family.geometry(s)
        stationary_H_f(d, f"the foliation identity at s = {s}")
        u = dot(family.flow.velocity(s, pos0).T, d.N.T)
        if np.min(u) <= 0:
            raise PreconditionError("foliation speed u must be positive")
        dp = family.geometry(s + h)
        dm = family.geometry(s - h)
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
            ub = dot(family.flow.velocity(s, bpos0).T, d.b_N.T)
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
