"""Discrete index form, f-Jacobi operator, and stability spectra.

P1 finite elements on the surface mesh; the Robin condition
du/dnu + II(N,N) u = 0 is the natural boundary condition of the bilinear
form and is never imposed strongly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ambient import ordered_sum
from .errors import InputError, NumericalFailure
from .functionals import DeformedFamily
from .surface import (EDGE_POINTS, TRI_HATS, TRI_WEIGHTS, ExtrinsicData,
                      stationary_H_f)

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

Array = np.ndarray

# gradients of the P1 hats in reference coordinates (xi, eta)
HAT_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

# eigenpairs a spectrum solves for; the coarsest mesh any scenario can
# build (a doubly periodic rect patch at resolution 4) has 8 DOF
EIGENPAIRS = 6

# the smallest eigenvalue of sum_r h_r h_r^T over the quadrature points r,
# h_r the P1 hats there (1/4 for Gauss3): an element mass matrix
# sum_r w_r h_r h_r^T is at least this times min_r w_r
HAT_GRAM_MIN = float(np.linalg.eigvalsh(TRI_HATS @ TRI_HATS.T)[0])


@dataclass
class IndexFormAssembly:
    """Discretized index form I_f(v, w) = v^T (K - P - B) w as its element
    triplets: a matrix's entry (i, j) is the sum of its values at the t with
    (rows[t], cols[t]) = (i, j).  The CSR matrices are built on first read,
    so scipy loads only for a solve."""

    rows: Array           # the triangle triplets' rows and columns
    cols: Array
    k: Array              # weighted stiffness
    p: Array              # potential (Ric_f(N,N) + |sigma|^2) mass
    m: Array              # weighted mass
    b_rows: Array         # the boundary edge triplets' rows and columns
    b_cols: Array
    b: Array              # Robin boundary term II(N,N)
    data: ExtrinsicData   # the geometry it was assembled from

    @property
    def dof(self) -> int:
        return self.data.mesh.n_vertices

    def _csr(self, values: Array, rows: Array, cols: Array) -> sp.csr_matrix:
        import scipy.sparse as sp
        return sp.coo_matrix((values, (rows, cols)),
                             shape=(self.dof, self.dof)).tocsr()

    @functools.cached_property
    def K(self) -> sp.csr_matrix:
        return self._csr(self.k, self.rows, self.cols)

    @functools.cached_property
    def P(self) -> sp.csr_matrix:
        return self._csr(self.p, self.rows, self.cols)

    @functools.cached_property
    def M(self) -> sp.csr_matrix:
        return self._csr(self.m, self.rows, self.cols)

    @functools.cached_property
    def B(self) -> sp.csr_matrix:
        return self._csr(self.b, self.b_rows, self.b_cols)

    @functools.cached_property
    def operator(self) -> sp.csr_matrix:
        """K - P - B, built once; every solve and check reads this one."""
        return (self.K - self.P - self.B).tocsr()


def _by_point(x: Array, points: int) -> Array:
    """The values x of (element, quadrature point) rows, ``points`` per
    element, as one contiguous column per quadrature point."""
    return np.ascontiguousarray(x.reshape(-1, points).T)


def assemble(data: ExtrinsicData) -> IndexFormAssembly:
    """The index form of the surface whose geometry is ``data``.  Each
    element sum over its quadrature points adds contiguous columns in
    order onto +0.0, bit for bit np.sum over the 3-long row."""
    mesh = data.mesh
    tris = mesh.triangles
    R = len(TRI_WEIGHTS)
    w = _by_point(data.w_daf, R)
    wpot = w * _by_point(data.ricf_NN + data.sigma2, R)
    G = [[_by_point(data.Ginv[:, a, b], R) for b in range(2)]
         for a in range(2)]
    signed_G = {1.0: G, -1.0: [[-g for g in row] for row in G]}
    # the weights times each hat, ((w pot) hat_i) hat_j and (w hat_i) hat_j
    # as the element sums multiplied them
    w_hat = [[w[r] * h for r, h in enumerate(hat)] for hat in TRI_HATS]
    wpot_hat = [[wpot[r] * h for r, h in enumerate(hat)] for hat in TRI_HATS]

    rows, cols, kv, pv, mv = [], [], [], [], []
    for i in range(3):
        for j in range(3):
            # <grad hat_i, grad hat_j> = sum_ab gi_a g^ab gj_b, b inner;
            # the hat gradients are 0 or +-1, so a term is +-g^ab exactly,
            # and a zero term leaves a sum begun at +0.0 unchanged
            gi, gj = HAT_GRADS[i].tolist(), HAT_GRADS[j].tolist()
            gij = ordered_sum(signed_G[gi[a] * gj[b]][a][b]
                              for a in range(2) for b in range(2)
                              if gi[a] * gj[b] != 0)
            hj = TRI_HATS[j]
            rows.append(tris[:, i])
            cols.append(tris[:, j])
            kv.append(ordered_sum(x * g for x, g in zip(w, gij)))
            pv.append(ordered_sum(x * h for x, h in zip(wpot_hat[i], hj)))
            mv.append(ordered_sum(x * h for x, h in zip(w_hat[i], hj)))

    # the boundary rows are (edge, Gauss2 point) in mesh edge order, none
    # on a closed surface
    edges = mesh.boundary_edges
    wb = _by_point(data.w_dlf * data.II_NN, len(EDGE_POINTS))
    hats = (1.0 - EDGE_POINTS, EDGE_POINTS)
    br, bc, bv = [], [], []
    for i in range(2):
        for j in range(2):
            br.append(edges[:, i])
            bc.append(edges[:, j])
            bv.append(ordered_sum(x * hi * hj for x, hi, hj
                                  in zip(wb, hats[i], hats[j])))
    return IndexFormAssembly(*map(np.concatenate, (rows, cols, kv, pv, mv,
                                                   br, bc, bv)), data)


def index_form_value(asm: IndexFormAssembly, v: Array, w: Array) -> float:
    """I_f(v, w), the sum of a v_i w_j over the triplets (i, j, a) of
    K - P - B: numpy sums, no BLAS product and no sparse matrix."""
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    if v.shape != (asm.dof,) or w.shape != (asm.dof,):
        raise InputError("coefficient vector length does not match DOF count")
    interior = (asm.k - asm.p) * v[asm.rows] * w[asm.cols]
    robin = asm.b * v[asm.b_rows] * w[asm.b_cols]
    return float(np.sum(interior) - np.sum(robin))


def jacobi_apply(asm: IndexFormAssembly, u: Array) -> Array:
    """Discrete L_f(u) = lap_{Sigma,f} u + (Ric_f(N,N)+|sigma|^2) u, mass-inverted."""
    u = np.asarray(u, float)
    if u.shape != (asm.dof,):
        raise InputError("coefficient vector length does not match DOF count")
    factor = _ldlt(asm.M)
    if factor is None:
        raise NumericalFailure("singular mass matrix")
    return factor[0].solve((asm.P - asm.K) @ u)


@dataclass
class SpectralResult:
    asm: IndexFormAssembly     # the index form it is the spectrum of
    eigenvalues: Array
    eigenfunctions: Array      # (dof, EIGENPAIRS)
    solver_residuals: Array

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    def verdict_tol(self, rel_tol: float) -> float:
        """The stability verdicts' tolerance, rel_tol max(1, max |lambda|)."""
        return rel_tol * max(1.0, float(np.max(np.abs(self.eigenvalues))))


def _pencil_residuals(A, M, vals, vecs) -> Array:
    out = np.empty(len(vals))
    for i, lam in enumerate(vals):
        u = vecs[:, i]
        out[i] = np.linalg.norm(A @ u - lam * (M @ u)) / np.linalg.norm(u)
    return out


def _ldlt(matrix: sp.spmatrix) -> tuple[spla.SuperLU, int] | None:
    """The factor of a symmetric matrix and its count of negative pivots.

    SuperLU runs in symmetric mode with diagonal pivots and MMD ordering on
    A^T + A, so its factor is an L D L^T factorization of a symmetric
    permutation, and by Sylvester's law of inertia the negative pivots
    count the matrix's negative eigenvalues.  None when the matrix is
    singular (a zero or non-finite pivot) or SuperLU pivoted off the
    diagonal, where the count says nothing.
    """
    import scipy.sparse.linalg as spla
    try:
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:          # an exactly zero pivot
        return None
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(np.isfinite(pivots) & (pivots != 0.0))):
        return None
    return lu, int(np.count_nonzero(pivots < 0.0))


def _spectrum_floor(asm: IndexFormAssembly) -> float:
    """A lower bound of the pencil's eigenvalues that the assembly proves.

    u^T A u >= -|A|_inf |u|^2, and u^T M u >= m |u|^2 with m the least
    vertex sum of the element bounds HAT_GRAM_MIN min_r w_r, since each
    element's mass matrix is sum_r w_r h_r h_r^T with weights w_r > 0.  So
    every eigenvalue is at least -|A|_inf / m; twice that is returned, a
    margin for the rounding of both.  NaN where m is not positive.
    """
    import scipy.sparse.linalg as spla
    tris = asm.data.mesh.triangles
    w_min = asm.data.w_daf.reshape(len(tris), -1).min(axis=1)
    m = np.bincount(tris.ravel(), np.repeat(HAT_GRAM_MIN * w_min, 3),
                    minlength=asm.dof).min()
    return -2.0 * spla.norm(asm.operator, np.inf) / m if m > 0 else np.nan


def _factor_below_spectrum(asm: IndexFormAssembly
                           ) -> tuple[float, spla.SuperLU]:
    """A shift sigma below the spectrum with the factor of A - sigma M.

    A sigma is accepted when ``_ldlt`` finds no negative pivot, so no
    eigenvalue lies below it.  The shift starts at -max|potential| - 1 and
    doubles until it is accepted; a shift below the proven floor
    (``_spectrum_floor``) that the factor still rejects is a numerical
    failure.
    """
    A = asm.operator
    M = asm.M
    pot = asm.data.ricf_NN + asm.data.sigma2
    sigma = -float(np.max(np.abs(pot))) - 1.0
    floor = None              # evaluated at the first rejected shift
    while True:
        factor = _ldlt(A - sigma * M)
        if factor is not None and factor[1] == 0:
            return sigma, factor[0]
        if floor is None:
            floor = _spectrum_floor(asm)
        if not sigma >= floor:
            raise NumericalFailure("shift-invert eigensolver failed to "
                                   "bracket the lowest eigenvalue")
        sigma *= 2.0


def robin_eigenproblem(asm: IndexFormAssembly) -> SpectralResult:
    """The EIGENPAIRS smallest eigenpairs of (K - P - B) u = lambda M u, by
    ARPACK in shift-invert mode on the factor of A - sigma M."""
    import scipy.sparse.linalg as spla
    sigma, lu = _factor_below_spectrum(asm)
    A, n = asm.operator, asm.dof
    op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    # a fixed start vector keeps the result identical from run to run
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = spla.eigsh(A, k=EIGENPAIRS, M=asm.M, sigma=sigma,
                                which="LM", OPinv=op, v0=v0)
    except (spla.ArpackError, np.linalg.LinAlgError) as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    res = _pencil_residuals(A, asm.M, vals, vecs)
    if np.max(res) > 1e-8 * max(1.0, spla.norm(A, np.inf)):
        raise NumericalFailure(f"eigenpair residual too large: {np.max(res):.2e}")
    return SpectralResult(asm, vals, vecs, res)


def strong_stability_verdict(spec: SpectralResult,
                             rel_tol: float = 1e-3) -> bool:
    """True iff the index form is nonnegative (lambda_min >= -tol), with
    tol = spec.verdict_tol(rel_tol)."""
    return spec.lambda_min >= -spec.verdict_tol(rel_tol)


def volume_constrained_verdict(spec: SpectralResult,
                               rel_tol: float = 1e-3) -> bool:
    """True iff I_f(u,u) >= 0 for all u with int u da_f = 0 (discretely),
    within tol = spec.verdict_tol(rel_tol).

    The constraint has codimension one, so by Cauchy interlacing the
    constrained minimum lies in [lambda_1, lambda_2] of the spectrum
    ``spec``.  Only when -tol falls between the two is H = A + tol M
    factored, and the verdict is an inertia count (Haynsworth's formula
    for H bordered by c = M 1): with no negative pivot H is positive
    definite, with two or more H is negative on a plane that meets
    {c.u = 0}, and with exactly one H is nonnegative on {c.u = 0} iff
    c.H^-1 c <= 0.
    """
    lam, tol = spec.eigenvalues, spec.verdict_tol(rel_tol)
    if lam[0] >= -tol:
        return True
    if lam[1] < -tol:
        return False
    asm = spec.asm
    factor = _ldlt(asm.operator + tol * asm.M)
    if factor is None:
        raise NumericalFailure("volume-constrained verdict: A + tol M has "
                               "no L D L^T factor")
    lu, negatives = factor
    if negatives != 1:
        return negatives == 0
    c = asm.M @ np.ones(asm.dof)
    return float(c @ lu.solve(c)) <= 0.0


# ---------------------------------------------------------------------------
# Jacobi operator finite-difference check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiCheckReport:
    max_residual: float
    scale: float
    passed: bool


# the centered difference step of H_f'(0), and the largest residual
# relative to max(1, max |L_f u|, max |H_f'|) that passes
JACOBI_FD_STEP = 1e-3
JACOBI_FD_TOL = 1e-3


def jacobi_fd_check(family: DeformedFamily) -> JacobiCheckReport:
    """Verify H_f'(0) = L_f(u) pointwise for the family's normal speed u."""
    stationary_H_f(family.data, "the Jacobi operator")
    Lu = jacobi_apply(assemble(family.data), family.vertex_normal_speed())
    # interpolate L_f(u) to quadrature points
    tris = family.data.mesh.triangles
    Lq = ordered_sum(Lu[tris[:, c], None] * TRI_HATS[c]
                     for c in range(3)).ravel()
    # FD of H_f per material quadrature point
    h = JACOBI_FD_STEP
    dp = family.geometry(h).H_f
    dm = family.geometry(-h).H_f
    dHf = (dp - dm) / (2 * h)
    scale = max(1.0, float(np.max(np.abs(Lq))), float(np.max(np.abs(dHf))))
    resid = float(np.max(np.abs(dHf - Lq))) / scale
    return JacobiCheckReport(resid, scale, resid <= JACOBI_FD_TOL)
