"""Discrete index form, f-Jacobi operator, and stability spectra.

P1 finite elements on the surface mesh; the Robin condition
du/dnu + II(N,N) u = 0 is the natural boundary condition of the bilinear
form and is never imposed strongly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .ambient import AmbientSpace
from .errors import InputError, NumericalFailure, PreconditionError
from .functionals import DeformedFamily, Quadrature, geometry
from .surface import SurfaceMesh, TRI_RULES, stationarity_verdict

Array = np.ndarray

# gradients of the P1 hats in reference coordinates (xi, eta)
HAT_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass
class IndexFormAssembly:
    """Discretized index form I_f(v, w) = v^T (K - P - B) w."""

    space: AmbientSpace
    mesh: SurfaceMesh
    quad: Quadrature
    K: sp.csr_matrix      # weighted stiffness
    P: sp.csr_matrix      # potential (Ric_f(N,N) + |sigma|^2) mass
    B: sp.csr_matrix      # Robin boundary term II(N,N)
    M: sp.csr_matrix      # weighted mass
    data: object          # ExtrinsicData used during assembly

    @property
    def dof(self) -> int:
        return self.K.shape[0]

    @property
    def operator(self) -> sp.csr_matrix:
        return (self.K - self.P - self.B).tocsr()

    @functools.cached_property
    def shifted_factor(self) -> "ShiftedFactor":
        """The one factorization both spectral solves share."""
        return _factor_below_spectrum(self)


def assemble(space: AmbientSpace, mesh: SurfaceMesh,
             quad: Quadrature = Quadrature()) -> IndexFormAssembly:
    data = geometry(space, mesh, quad)
    tris = mesh.triangles
    F = len(tris)
    ref_pts, _ = TRI_RULES[quad.rule]
    R = len(ref_pts)
    lam = np.stack([1 - ref_pts[:, 0] - ref_pts[:, 1],
                    ref_pts[:, 0], ref_pts[:, 1]])          # (3, R)
    w = data.w_daf.reshape(F, R)
    pot = (data.ricf_NN + data.sigma2).reshape(F, R)
    Ginv = data.Ginv.reshape(F, R, 2, 2)
    n = mesh.n_vertices

    rows, cols, kv, pv, mv = [], [], [], [], []
    for i in range(3):
        for j in range(3):
            gij = np.einsum("a,frab,b->fr", HAT_GRADS[i], Ginv, HAT_GRADS[j])
            ke = np.sum(w * gij, axis=1)
            pe = np.sum(w * pot * lam[i][None, :] * lam[j][None, :], axis=1)
            me = np.sum(w * lam[i][None, :] * lam[j][None, :], axis=1)
            rows.append(tris[:, i])
            cols.append(tris[:, j])
            kv.append(ke)
            pv.append(pe)
            mv.append(me)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    K = sp.coo_matrix((np.concatenate(kv), (rows, cols)), shape=(n, n)).tocsr()
    P = sp.coo_matrix((np.concatenate(pv), (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((np.concatenate(mv), (rows, cols)), shape=(n, n)).tocsr()

    B = sp.csr_matrix((n, n))
    if data.has_boundary:
        E = len(mesh.boundary_edges)
        Rb = len(data.bedge_local) // E
        x = data.bedge_local.reshape(E, Rb)
        wb = (data.w_dlf * data.II_NN).reshape(E, Rb)
        hats = np.stack([1.0 - x, x])                        # (2, E, Rb)
        br, bc, bv = [], [], []
        for i in range(2):
            for j in range(2):
                be = np.sum(wb * hats[i] * hats[j], axis=1)
                br.append(mesh.boundary_edges[:, i])
                bc.append(mesh.boundary_edges[:, j])
                bv.append(be)
        B = sp.coo_matrix((np.concatenate(bv),
                           (np.concatenate(br), np.concatenate(bc))),
                          shape=(n, n)).tocsr()
    return IndexFormAssembly(space, mesh, quad, K, P, B, M, data)


def index_form_value(asm: IndexFormAssembly, v: Array, w: Array) -> float:
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    if v.shape != (asm.dof,) or w.shape != (asm.dof,):
        raise InputError("coefficient vector length does not match DOF count")
    return float(v @ (asm.operator @ w))


def jacobi_apply(asm: IndexFormAssembly, u: Array) -> Array:
    """Discrete L_f(u) = lap_{Sigma,f} u + (Ric_f(N,N)+|sigma|^2) u, mass-inverted."""
    u = np.asarray(u, float)
    if u.shape != (asm.dof,):
        raise InputError("coefficient vector length does not match DOF count")
    rhs = (asm.P - asm.K) @ u
    return spla.spsolve(asm.M.tocsc(), rhs)


def jacobi_symmetry_residual(asm: IndexFormAssembly, v: Array, w: Array) -> float:
    A = asm.operator
    return abs(float(v @ (A @ w)) - float(w @ (A @ v)))


@dataclass
class SpectralResult:
    eigenvalues: Array
    eigenfunctions: Array      # (dof, count)
    solver_residuals: Array

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


def _pencil_residuals(A, M, vals, vecs) -> Array:
    out = np.empty(len(vals))
    for i, lam in enumerate(vals):
        u = vecs[:, i]
        out[i] = np.linalg.norm(A @ u - lam * (M @ u)) / np.linalg.norm(u)
    return out


@dataclass(frozen=True)
class ShiftedFactor:
    """Sparse LU of A - sigma M, A = K - P - B, with sigma < lambda_min."""

    sigma: float
    lu: spla.SuperLU


def _factor_below_spectrum(asm: IndexFormAssembly) -> ShiftedFactor:
    """Factor A - sigma M for the first sigma the factor proves is low enough.

    The LU runs in symmetric mode without pivoting off the diagonal, so it
    is an L D L^T factorization of a symmetric permutation and, by
    Sylvester's law of inertia, its negative pivots count the eigenvalues
    below sigma.  A sigma is accepted only with all pivots positive.
    """
    A = asm.operator
    M = asm.M
    pot = asm.data.ricf_NN + asm.data.sigma2
    sigma = -float(np.max(np.abs(pot))) - 1.0
    for _ in range(4):
        try:
            lu = spla.splu((A - sigma * M).tocsc(),
                           permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError:      # exactly singular: sigma is an eigenvalue
            lu = None
        if (lu is not None and np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0.0)):
            return ShiftedFactor(sigma, lu)
        sigma *= 2.0
    raise NumericalFailure("shift-invert eigensolver failed to bracket "
                           "the lowest eigenvalue")


def _shift_invert_eigsh(asm: IndexFormAssembly, count: int, solve):
    """ARPACK shift-invert mode with ``solve`` applying (A - sigma M)^-1."""
    n = asm.dof
    op = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    # a fixed start vector keeps the result identical from run to run
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        return spla.eigsh(asm.operator, k=count, M=asm.M,
                          sigma=asm.shifted_factor.sigma, which="LM",
                          OPinv=op, v0=v0)
    except (spla.ArpackError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc


def robin_eigenproblem(asm: IndexFormAssembly, count: int = 6) -> SpectralResult:
    """Smallest eigenpairs of (K - P - B) u = lambda M u."""
    if count >= asm.dof:
        raise InputError("requested as many eigenpairs as degrees of freedom")
    vals, vecs = _shift_invert_eigsh(asm, count, asm.shifted_factor.lu.solve)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    A = asm.operator
    res = _pencil_residuals(A, asm.M, vals, vecs)
    if np.max(res) > 1e-8 * max(1.0, spla.norm(A, np.inf)):
        raise NumericalFailure(f"eigenpair residual too large: {np.max(res):.2e}")
    return SpectralResult(vals, vecs, res)


def strong_stability_verdict(spec: SpectralResult,
                             tol: Optional[float] = None) -> bool:
    """True iff the index form is nonnegative (lambda_min >= -tol)."""
    if tol is None:
        tol = 1e-3 * max(1.0, float(np.max(np.abs(spec.eigenvalues))))
    return spec.lambda_min >= -tol


def constrained_lambda_min(asm: IndexFormAssembly) -> float:
    """Minimum Rayleigh quotient of (K-P-B, M) over {u : 1^T M u = 0}.

    A modified eigenproblem on the same shifted factor: with c = M 1 and
    z = (A - sigma M)^-1 c, the saddle-point inverse
    b -> w - z (c.w)/(c.z), w = (A - sigma M)^-1 b, maps into the
    constraint space and its shift-invert eigenvalues are exactly those
    of the pencil restricted to it.
    """
    solve = asm.shifted_factor.lu.solve
    c = asm.M @ np.ones(asm.dof)
    z = solve(c)
    cz = float(c @ z)

    def constrained_solve(b):
        w = solve(b)
        return w - z * (float(c @ w) / cz)

    vals, _ = _shift_invert_eigsh(asm, 1, constrained_solve)
    return float(vals[0])


def volume_constrained_verdict(asm: IndexFormAssembly,
                               tol: float = 1e-3) -> bool:
    """True iff I_f(u,u) >= 0 for all u with int u da_f = 0 (discretely)."""
    return constrained_lambda_min(asm) >= -tol


# ---------------------------------------------------------------------------
# Jacobi operator finite-difference check
# ---------------------------------------------------------------------------

def vertex_normals(mesh: SurfaceMesh, imm=None) -> Array:
    """Unit normals at mesh vertices, oriented like the quadrature normals."""
    if imm is None:
        imm = mesh.immersion
    if imm.param_dim == 2:
        J = imm.chart_jac(mesh.params)
        Nv = np.cross(J[:, :, 0], J[:, :, 1])
        # raw parameter axes may be flipped relative to triangle orientation;
        # fix the global sign from the first triangle's frame
        tp = mesh.tri_params[0]
        Jt = imm.chart_jac(tp[0][None])
        e1 = Jt[0] @ (tp[1] - tp[0])
        e2 = Jt[0] @ (tp[2] - tp[0])
        raw = np.cross(J[mesh.triangles[0, 0], :, 0], J[mesh.triangles[0, 0], :, 1])
        s = np.sign(np.dot(np.cross(e1, e2), raw))
        Nv = s * Nv
    else:
        # per-corner triangle frames, last writer wins (orientations agree)
        Nv = np.zeros((mesh.n_vertices, 3))
        tp = mesh.tri_params
        for c in range(3):
            Jc = imm.chart_jac(tp[:, c])
            d1 = tp[:, 1] - tp[:, 0]
            d2 = tp[:, 2] - tp[:, 0]
            e1 = np.einsum("nia,na->ni", Jc, d1)
            e2 = np.einsum("nia,na->ni", Jc, d2)
            Nv[mesh.triangles[:, c]] = np.cross(e1, e2)
    Nv = imm.orientation_sign * Nv / np.linalg.norm(Nv, axis=1)[:, None]
    return Nv


@dataclass(frozen=True)
class JacobiCheckReport:
    max_residual: float
    scale: float
    passed: bool


def jacobi_fd_check(space: AmbientSpace, family: DeformedFamily,
                    asm: IndexFormAssembly, h: float = 1e-3,
                    tol: float = 1e-3) -> JacobiCheckReport:
    """Verify H_f'(0) = L_f(u) pointwise for the family's normal speed u."""
    quad = asm.quad
    data0 = asm.data
    verdict = stationarity_verdict(space, family.mesh, data0, tol_H=1e-5)
    if not verdict.volume_constrained:
        raise PreconditionError("jacobi_fd_check requires an f-stationary base")
    # normal speed at the vertices
    Nv = vertex_normals(family.mesh)
    vel = family.flow.velocity(0.0, family.mesh.positions)
    u = np.sum(vel * Nv, axis=1)
    Lu = jacobi_apply(asm, u)
    # interpolate L_f(u) to quadrature points
    ref_pts, _ = TRI_RULES[quad.rule]
    lam = np.stack([1 - ref_pts[:, 0] - ref_pts[:, 1],
                    ref_pts[:, 0], ref_pts[:, 1]])
    tris = family.mesh.triangles
    Lq = (Lu[tris][:, :, None] * lam[None, :, :]).sum(axis=1).ravel()
    # FD of H_f per material quadrature point
    dp = family.geometry(h, quad).H_f
    dm = family.geometry(-h, quad).H_f
    dHf = (dp - dm) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(Lq))), float(np.max(np.abs(dHf))))
    resid = float(np.max(np.abs(dHf - Lq))) / scale
    return JacobiCheckReport(resid, scale, resid <= tol)
