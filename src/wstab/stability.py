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

# the corner pairs (i, j), i <= j, of a triangle and of a boundary edge
TRI_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
EDGE_PAIRS = ((0, 0), (0, 1), (1, 1))


@dataclass
class IndexFormAssembly:
    """Discretized index form I_f(v, w) = v^T (K - P - B) w by slot: slot i
    < dof is the diagonal entry (i, i), and slot dof + e the entries (i, j)
    and (j, i) of the mesh edge e = (i, j).  Every matrix is a CSR on this
    one symmetric pattern, built on first read, so scipy loads only for a
    solve."""

    k: Array              # weighted stiffness
    p: Array              # potential (Ric_f(N,N) + |sigma|^2) mass
    m: Array              # weighted mass
    b: Array              # Robin boundary term II(N,N)
    data: ExtrinsicData   # the geometry it was assembled from

    @property
    def dof(self) -> int:
        return self.data.mesh.n_vertices

    @functools.cached_property
    def _pattern(self) -> tuple[Array, Array, Array]:
        """The CSR indptr and indices of the diagonal and of each edge as
        (i, j) and (j, i), and the slot of each stored entry."""
        n, edges = self.dof, self.data.mesh.edges
        diag = np.arange(n)
        rows, cols = np.hstack([[diag, diag], edges.T, edges.T[::-1]])
        slots = np.concatenate([diag, np.tile(n + np.arange(len(edges)), 2)])
        order = np.lexsort((cols, rows))
        indptr = np.bincount(rows + 1, minlength=n + 1).cumsum(dtype=np.int32)
        return indptr, cols[order].astype(np.int32), slots[order]

    def _csr(self, values: Array) -> sp.csr_matrix:
        """The matrix whose slots hold ``values``."""
        import scipy.sparse as sp
        indptr, indices, slots = self._pattern
        return sp.csr_matrix((values[slots], indices, indptr),
                             shape=(self.dof, self.dof))

    def shifted(self, shift: float) -> sp.csr_matrix:
        """A + shift M, on the same pattern."""
        return self._csr(self.k - self.p - self.b + shift * self.m)

    K = functools.cached_property(lambda self: self._csr(self.k))
    P = functools.cached_property(lambda self: self._csr(self.p))
    M = functools.cached_property(lambda self: self._csr(self.m))
    B = functools.cached_property(lambda self: self._csr(self.b))
    # K - P - B, built once; every solve and check reads this one
    operator = functools.cached_property(
        lambda self: self._csr(self.k - self.p - self.b))


def _by_point(x: Array, points: int) -> Array:
    """The values x of (element, quadrature point) rows, ``points`` per
    element, as one contiguous column per quadrature point."""
    return np.ascontiguousarray(x.reshape(-1, points).T)


def _hat_sums(weights: Array, hats, pairs) -> Array:
    """The element sums of (w hat_i) hat_j over the quadrature points, pair
    by pair, from one weight column w per point."""
    return np.concatenate([ordered_sum(x * hi * hj for x, hi, hj
                                       in zip(weights, hats[i], hats[j]))
                           for i, j in pairs])


def assemble(data: ExtrinsicData) -> IndexFormAssembly:
    """The index form of the surface whose geometry is ``data``.  Each
    element value (i, j), i <= j, adds contiguous columns over its points in
    order onto +0.0, bit for bit np.sum over the row; np.bincount then adds
    a slot's element values in input order onto +0.0: pair by pair in
    TRI_PAIRS (EDGE_PAIRS) order, by triangle (boundary edge) in a pair."""
    mesh = data.mesh
    n, R = mesh.n_vertices, len(TRI_WEIGHTS)
    w = _by_point(data.w_daf, R)
    G = [[_by_point(data.Ginv[:, a, b], R) for b in range(2)]
         for a in range(2)]
    signed_G = {1.0: G, -1.0: [[-g for g in row] for row in G]}
    slots, kv = [], []
    for i, j in TRI_PAIRS:
        # <grad hat_i, grad hat_j> = sum_ab gi_a g^ab gj_b, b inner;
        # the hat gradients are 0 or +-1, so a term is +-g^ab exactly,
        # and a zero term leaves a sum begun at +0.0 unchanged
        gi, gj = HAT_GRADS[i].tolist(), HAT_GRADS[j].tolist()
        gij = ordered_sum(signed_G[gi[a] * gj[b]][a][b]
                          for a in range(2) for b in range(2)
                          if gi[a] * gj[b] != 0)
        kv.append(ordered_sum(x * g for x, g in zip(w, gij)))
        # edge c joins corners c and c + 1, so corners i < j the edge
        # opposite corner 3 - i - j
        slots.append(mesh.triangles[:, i] if i == j
                     else n + mesh.triangle_edges[:, (4 - i - j) % 3])
    # the boundary rows are (edge, Gauss2 point) in mesh edge order, none
    # on a closed surface
    b_slots = [mesh.boundary_edges[:, i] if i == j
               else n + mesh.boundary_edge_ids for i, j in EDGE_PAIRS]
    wpot = w * _by_point(data.ricf_NN + data.sigma2, R)
    wb = _by_point(data.w_dlf * data.II_NN, len(EDGE_POINTS))
    values = (np.concatenate(kv), _hat_sums(wpot, TRI_HATS, TRI_PAIRS),
              _hat_sums(w, TRI_HATS, TRI_PAIRS),
              _hat_sums(wb, (1.0 - EDGE_POINTS, EDGE_POINTS), EDGE_PAIRS))
    slots, b_slots = np.concatenate(slots), np.concatenate(b_slots)
    return IndexFormAssembly(*(
        np.bincount(s, v, minlength=n + len(mesh.edges))
        for s, v in zip((slots, slots, slots, b_slots), values)), data)


def index_form_value(asm: IndexFormAssembly, v: Array, w: Array) -> float:
    """I_f(v, w), the sum of a v_i w_i over the diagonal slots plus the sum
    of a (v_i w_j + v_j w_i) over the edge slots of K - P - B: numpy sums,
    no BLAS product and no sparse matrix, and exactly symmetric in v, w."""
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    if v.shape != (asm.dof,) or w.shape != (asm.dof,):
        raise InputError("coefficient vector length does not match DOF count")
    a, n = asm.k - asm.p - asm.b, asm.dof
    i, j = asm.data.mesh.edges.T
    return float(np.sum(a[:n] * (v * w))
                 + np.sum(a[n:] * (v[i] * w[j] + v[j] * w[i])))


def jacobi_apply(asm: IndexFormAssembly, u: Array) -> Array:
    """Discrete L_f(u) = lap_{Sigma,f} u + (Ric_f(N,N)+|sigma|^2) u, mass-inverted."""
    u = np.asarray(u, float)
    if u.shape != (asm.dof,):
        raise InputError("coefficient vector length does not match DOF count")
    factor = _ldlt(asm.M)
    if factor is None:
        raise NumericalFailure("singular mass matrix")
    return factor[0].solve(asm._csr(asm.p - asm.k) @ u)


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


def _ldlt(matrix: sp.csr_matrix) -> tuple[spla.SuperLU, int] | None:
    """The factor of an exactly symmetric CSR matrix, which SuperLU gets as
    its own CSC (the transpose, on the same arrays), and its negative pivot
    count.

    SuperLU runs in symmetric mode with diagonal pivots and MMD ordering on
    A^T + A, so its factor is an L D L^T factorization of a symmetric
    permutation, and by Sylvester's law of inertia the negative pivots
    count the matrix's negative eigenvalues.  None when the matrix is
    singular (a zero or non-finite pivot) or SuperLU pivoted off the
    diagonal, where the count says nothing.
    """
    import scipy.sparse.linalg as spla
    try:
        lu = spla.splu(matrix.T, permc_spec="MMD_AT_PLUS_A",
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
    pot = asm.data.ricf_NN + asm.data.sigma2
    sigma = -float(np.max(np.abs(pot))) - 1.0
    floor = None              # evaluated at the first rejected shift
    while True:
        factor = _ldlt(asm.shifted(-sigma))
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
    # a fixed start vector, and a seeded generator for the random vector
    # ARPACK asks for when its Lanczos basis breaks down (scipy draws OS
    # entropy otherwise), keep the result identical from run to run
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    try:
        vals, vecs = spla.eigsh(A, k=EIGENPAIRS, M=asm.M, sigma=sigma,
                                which="LM", OPinv=op, v0=v0, rng=rng)
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
    factor = _ldlt(asm.shifted(tol))
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
