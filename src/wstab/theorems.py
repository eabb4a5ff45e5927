"""Numerical checkers for curvature identities, topology and area bounds,
and equality-case (rigidity) certificates.

Inequalities are only asserted when their hypotheses hold at the sampled
quadrature points; hypothesis truth is always computed and reported.  Each
check returns the plain-JSON block that a report holds, built once here.
"""
from __future__ import annotations

import numpy as np

from .ambient import dot, norm, squared_norm
from .errors import InputError, PreconditionError
from .functionals import DeformedFamily
from .surface import ExtrinsicData, H_f_rounding, stationary_H_f

FLAG_TOL = 1e-6


def rigidity_flags(data: ExtrinsicData) -> dict:
    """The equality-case certificate read from pointwise geometry: each
    flag, and whether all of them hold.  Each quantity is measured in the
    length L = sqrt(area) raised to its dimension, L for sigma, grad_S psi,
    II(N,N) and h, L^2 for Ric_f(N,N) and K, so that the flags do not
    depend on the unit of length."""
    L = float(np.sqrt(np.sum(data.w_da)))
    sigma_max = L * float(np.sqrt(np.max(data.sigma2)))
    grad_max = L * float(np.max(norm(data.grad_s_psi)))
    ric_max = L**2 * float(np.max(np.abs(data.ricf_NN)))
    k_max = L**2 * float(np.max(np.abs(data.K)))
    ii_max = L * float(np.max(np.abs(data.II_NN), initial=0.0))
    h_max = L * float(np.max(np.abs(data.h_geod), initial=0.0))
    flags = {
        "totally_geodesic": sigma_max <= FLAG_TOL,
        "density_const_on_surface": grad_max <= FLAG_TOL,
        "ricci_normal_zero": ric_max <= FLAG_TOL,
        "II_NN_zero": ii_max <= FLAG_TOL,
        "boundary_geodesic": h_max <= FLAG_TOL,
        "gauss_flat": k_max <= FLAG_TOL,
    }
    return {**flags, "all_true": all(flags.values())}


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
    fundamental form, which the geometry reads from the ambient boundary
    alone: no density term enters."""
    if not data.has_boundary:
        raise InputError("surface has no boundary")
    return float(np.max(np.abs(data.II_NN - (data.H_boundary - data.h_geod))))


def identity_scales(data: ExtrinsicData) -> tuple:
    """The units of the identities' residuals: the largest sum of the
    rearrangement's terms' magnitudes at a point, and the largest
    |II(N,N)| + |H_boundary| + |acc| at a boundary point (0 without one),
    the boundary curve's curvature |acc| standing for h, which may be 0."""
    gauss = (np.abs(data.ricf_NN) + 1.5 * data.sigma2 + np.abs(data.K)
             + 0.5 * (np.abs(data.S_f) + data.H_f**2
                      + squared_norm(data.grad_s_psi))
             + np.abs(data.lap_s_psi))
    boundary = (np.abs(data.II_NN) + np.abs(data.H_boundary)
                + data.b_curvature)
    return float(np.max(gauss)), float(np.max(boundary, initial=0.0))


def _sampled(minimum: float, slack: float) -> dict:
    """A hypothesis "X >= 0" as its report reads it: the least sampled X,
    and whether it holds within the slack."""
    return {"sampled_min": minimum, "holds": minimum >= -slack}


# the slack of the chain's hypotheses, and its relative slack on the
# inequalities, which never drops below 1e-4
CHAIN_TOL = 1e-6


def stability_topology_chain(data: ExtrinsicData) -> dict:
    """The stability-topology chain: I_f(u,u) with u = 1/sqrt(f) against
    2 pi chi, asserted where S_f + H_f^2 >= 0 and (H_f)_boundary >= 0."""
    stationary_H_f(data, "the stability-topology chain")
    grad2 = squared_norm(data.grad_s_psi)
    # u^2 da_f = da, so every integral below is unweighted
    I_f_u = (float(np.sum((0.25 * grad2 - data.ricf_NN - data.sigma2)
                          * data.w_da))
             - float(np.sum(data.II_NN * data.w_dl)))
    shf = data.S_f + data.H_f**2
    bound1 = (-0.5 * float(np.sum(shf * data.w_da))
              - 0.5 * float(np.sum(data.sigma2 * data.w_da))
              - 0.25 * float(np.sum(grad2 * data.w_da))
              - float(np.sum(data.Hf_boundary * data.w_dl)))
    chi = data.mesh.chi
    bound1 += 2 * np.pi * chi
    bound2 = 2 * np.pi * chi
    curvature = _sampled(float(np.min(shf)), CHAIN_TOL)
    convexity = _sampled(float(np.min(data.Hf_boundary))
                         if data.has_boundary else 0.0, CHAIN_TOL)
    asserted = curvature["holds"] and convexity["holds"]
    ctol = max(CHAIN_TOL * (1.0 + abs(bound2)), 1e-4)
    chain_holds = (not asserted) or (I_f_u <= bound1 + ctol
                                     and bound1 <= bound2 + ctol)
    return {"I_f_u": I_f_u, "bound1": bound1, "bound2": bound2, "chi": chi,
            "hypothesis_curvature": curvature,
            "hypothesis_convexity": convexity,
            "asserted": asserted, "chain_holds": chain_holds}


# the verdicts of topology_verdict, each named once
TOPOLOGY_VERDICTS = (SPHERE_OR_TORUS, DISK_OR_CYLINDER, INCONSISTENT,
                     NOT_APPLICABLE) = ("SphereOrTorus", "DiskOrCylinder",
                                        "Inconsistent", "NotApplicable")


def topology_verdict(chain: dict, strongly_stable: bool,
                     has_boundary: bool) -> str:
    """Topology classification under the chain's hypotheses plus
    stability, of a surface with or without boundary."""
    if not chain["asserted"] or not strongly_stable:
        return NOT_APPLICABLE
    if has_boundary:
        return DISK_OR_CYLINDER if chain["chi"] in (0, 1) else INCONSISTENT
    return SPHERE_OR_TORUS if chain["chi"] in (0, 2) else INCONSISTENT


# the slack of A_f against an area bound
AREA_BOUND_TOL = 1e-9


def area_bound_check(data: ExtrinsicData, S0: float,
                     strongly_stable: bool) -> dict:
    """Check A_f <= 4 pi / S0 (S0 > 0, a disk) or A_f >= 4 pi chi / S0
    (S0 < 0, chi < 0) on a strongly stable surface with S_f >= S0 f; the
    bounds apply nowhere else, and an inapplicable bound and its slack are
    None."""
    if S0 == 0.0:
        raise InputError("S0 = 0 makes both area bounds degenerate")
    hyp = _sampled(float(np.min(data.S_f - S0 * data.f)), 1e-9)
    A_f = float(np.sum(data.w_daf))
    chi = data.mesh.chi
    if S0 > 0:
        applies, bound = chi == 1, 4 * np.pi / S0
        slack, passed = bound - A_f, A_f <= bound + AREA_BOUND_TOL
    else:
        applies, bound = chi < 0, 4 * np.pi * chi / S0
        slack, passed = A_f - bound, A_f >= bound - AREA_BOUND_TOL
    applicable = strongly_stable and hyp["holds"] and applies
    if not applicable:
        bound, slack, passed = None, None, False
    return {"applicable": applicable, "hypothesis": hyp, "S0": S0,
            "chi": chi, "A_f": A_f, "bound": bound, "slack": slack,
            "passed": passed}


# the leaves the foliation identity is checked on, and the centered
# difference step of H_f'(s) on each
FOLIATION_S_VALUES = (-0.1, 0.0, 0.1)
FOLIATION_STEP = 1e-3
# what a difference of the identity's sides that is rounding alone reads
FOLIATION_ROUNDING_SHARE = 1e-6


def foliation_monotonicity_check(family: DeformedFamily,
                                 tol: float = 1e-3) -> dict:
    """Verify H_f'(s) A_f(s) = int_bd II u dl_f + int (Ric_f(N,N)+|sigma|^2)
    u da_f on each leaf, lhs against rhs, and H_f' >= -tol where Ric_f >= 0
    and II >= 0."""
    s_values, h = np.asarray(FOLIATION_S_VALUES, float), FOLIATION_STEP
    pos0, bpos0 = family.data.pos, family.data.b_pos
    lhs = np.empty(len(s_values))
    rhs = np.empty(len(s_values))
    dHfs = np.empty(len(s_values))
    rounding = np.empty(len(s_values))
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
        ub = dot(family.flow.velocity(s, bpos0).T, d.b_N.T)
        interior = (d.ricf_NN + d.sigma2) * u * d.w_daf
        boundary = d.II_NN * ub * d.w_dlf
        rhs[i] = float(np.sum(interior)) + float(np.sum(boundary))
        # the difference quotient's rounding, and 16 eps of rhs's terms
        rounding[i] = (A_f * float(np.max(H_f_rounding(dp))
                                   + np.max(H_f_rounding(dm))) / (2 * h)
                       + 16 * np.finfo(float).eps
                       * float(np.sum(np.abs(interior))
                               + np.sum(np.abs(boundary))))
        ii_min = min(ii_min, float(np.min(d.II_NN, initial=np.inf)))
        ric_min = min(ric_min, float(np.min(d.ricf_NN)))
    # relative to the larger side, and never to less than the rounding
    # over FOLIATION_ROUNDING_SHARE, so that a difference of rounding
    # alone reads at most that share; 0 where the sides agree
    diff = float(np.max(np.abs(lhs - rhs)))
    resid = diff / max(float(np.max(np.abs(lhs))),
                       float(np.max(np.abs(rhs))),
                       float(np.max(rounding)) / FOLIATION_ROUNDING_SHARE
                       ) if diff else 0.0
    if ii_min is np.inf:
        ii_min = 0.0
    ricci = _sampled(ric_min, 1e-9)
    boundary = _sampled(ii_min, 1e-9)
    asserted = ricci["holds"] and boundary["holds"]
    monotone = (not asserted) or bool(np.all(dHfs >= -tol))
    return {"s_values": s_values.tolist(), "lhs": lhs.tolist(),
            "rhs": rhs.tolist(), "max_rel_residual": resid,
            "hypothesis_ricci": ricci, "hypothesis_boundary": boundary,
            "monotone_asserted": asserted, "monotone_holds": monotone}
