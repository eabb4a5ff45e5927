"""Tests for the index form assembly, spectra, and stability verdicts."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cf
from wstab.ambient import make_space
from wstab.errors import InputError, NumericalFailure
from wstab.functionals import DeformedFamily, ScalingFlow, TranslationFlow
from wstab.stability import (assemble, constrained_lambda_min,
                             index_form_value, jacobi_apply, jacobi_fd_check,
                             jacobi_symmetry_residual, robin_eigenproblem,
                             strong_stability_verdict,
                             volume_constrained_verdict)
from wstab.surface import RectPatch, SphericalCap, mesh_from_immersion

TAU = 2.0 * math.pi
RNG = np.random.default_rng(11)


def assembly(kind, resolution, density="constant", **params):
    space, imm, mesh, _ = cf.cached_geometry(kind, resolution, density,
                                             **params)
    return assemble(space, mesh, cf.QUAD)


def cone_cap_assembly(resolution):
    """Cap in a convex cone with the log-convex density psi = |p|^2/2."""
    alpha = 0.7
    space = make_space(dim=3,
                       density=("radial-smooth", {"coeffs": (0.0, 0.0, 0.5)}),
                       boundary=("cone", {"alpha": alpha}))
    mesh = mesh_from_immersion(SphericalCap(alpha=alpha), resolution,
                               space=space)
    return assemble(space, mesh, cf.QUAD)


def flat_torus_assembly(resolution):
    """Doubly periodic slice of a weighted product with psi = x."""
    space = make_space(dim=3, density=("linear", {"a": (1.0, 0.0, 0.0)}),
                       metric_kind="product", circumferences=(None, TAU, TAU))
    imm = RectPatch(origin=(0, 0, 0), du=(0, 1, 0), dv=(0, 0, 1),
                    u_range=(0.0, TAU), v_range=(0.0, TAU), periodic_u=True,
                    periodic_v=True)
    return assemble(space, mesh_from_immersion(imm, resolution, space=space),
                    cf.QUAD)


ORACLE_ASSEMBLIES = {
    "gaussian-hemisphere": lambda: assembly("hemisphere", 12, "gaussian"),
    "convex-cone-cap": lambda: cone_cap_assembly(12),
    "flat-torus": lambda: flat_torus_assembly(12),
    "closed-sphere": lambda: assembly("sphere", 12),
}


class TestAssembly:
    def test_matrices_are_symmetric(self):
        asm = assembly("hemisphere", 16, "gaussian")
        for mat in (asm.K, asm.P, asm.B, asm.M):
            assert abs(mat - mat.T).max() < 1e-12

    def test_mass_matrix_is_positive_definite(self):
        asm = assembly("hemisphere", 12)
        vals = np.linalg.eigvalsh(asm.M.toarray())
        assert vals[0] > 0.0

    def test_stiffness_annihilates_constants(self):
        asm = assembly("slice", 16, "linear", a=(1.0, 0.0, 0.0))
        ones = np.ones(asm.dof)
        assert float(np.max(np.abs(asm.K @ ones))) < 1e-12

    def test_index_form_of_constant_on_hemisphere(self):
        """I_f(1,1) = -int (Ric_f + |sigma|^2) da_f = -4 pi, no Robin term."""
        asm = assembly("hemisphere", 24)
        ones = np.ones(asm.dof)
        assert index_form_value(asm, ones, ones) == pytest.approx(
            -2.0 * TAU, rel=1e-3)

    def test_index_form_rejects_wrong_length(self):
        asm = assembly("hemisphere", 8)
        with pytest.raises(InputError):
            index_form_value(asm, np.ones(3), np.ones(asm.dof))


class TestSpectrum:
    @pytest.mark.parametrize("k", [-3.0, -2.5, -2.0, -1.5, -1.0])
    def test_hemisphere_log_family_lowest_mode(self, k):
        """Constant functions are exact eigenfunctions with lambda = -(2+k)."""
        asm = assembly("hemisphere", 16, "radial-log", k=k)
        spec = robin_eigenproblem(asm)
        assert spec.lambda_min == pytest.approx(-(2.0 + k), abs=1e-9)

    def test_flat_slice_is_neutral(self):
        asm = assembly("slice", 16, "linear", a=(1.0, 0.0, 0.0))
        spec = robin_eigenproblem(asm)
        assert spec.lambda_min == pytest.approx(0.0, abs=1e-10)
        assert strong_stability_verdict(spec)

    def test_closed_sphere_is_unstable(self):
        asm = assembly("sphere", 24)
        spec = robin_eigenproblem(asm)
        assert spec.lambda_min == pytest.approx(-2.0, abs=2e-2)
        assert not strong_stability_verdict(spec)

    def test_eigenvalues_sorted_with_small_residuals(self):
        asm = assembly("hemisphere", 16, "gaussian")
        spec = robin_eigenproblem(asm, count=5)
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        assert float(np.max(spec.solver_residuals)) < 1e-6

    def test_count_cannot_exceed_dof(self):
        asm = assembly("hemisphere", 8)
        with pytest.raises(InputError):
            robin_eigenproblem(asm, count=asm.dof + 1)

    def test_constant_density_shift_leaves_spectrum_unchanged(self):
        """Adding a constant to psi rescales all matrices uniformly."""
        base = assembly("slice", 12)
        shifted = assembly("slice", 12, "linear", a=(0.0, 0.0, 0.0), b=2.0)
        s0 = robin_eigenproblem(base).eigenvalues
        s1 = robin_eigenproblem(shifted).eigenvalues
        assert np.allclose(s0, s1, atol=1e-9)


@pytest.mark.parametrize("name", sorted(ORACLE_ASSEMBLIES))
class TestDenseOracle:
    """The shift-invert solves against dense solves of the full pencil."""

    def test_spectrum_matches_dense_pencil(self, name):
        asm = ORACLE_ASSEMBLIES[name]()
        spec = robin_eigenproblem(asm, count=6)
        dense = scipy.linalg.eigh(asm.operator.toarray(), asm.M.toarray(),
                                  subset_by_index=[0, 5], eigvals_only=True)
        assert np.max(np.abs(spec.eigenvalues - dense)) < 1e-10

    def test_constrained_minimum_matches_dense_basis(self, name):
        asm = ORACLE_ASSEMBLIES[name]()
        M = asm.M.toarray()
        c = M @ np.ones(asm.dof)
        # orthonormal basis of {u : c.u = 0}: the complement of c in a QR
        Q, _ = np.linalg.qr(np.column_stack([c, np.eye(asm.dof)[:, 1:]]))
        Z = Q[:, 1:]
        dense = scipy.linalg.eigh(Z.T @ asm.operator.toarray() @ Z,
                                  Z.T @ M @ Z, subset_by_index=[0, 0],
                                  eigvals_only=True)[0]
        assert abs(constrained_lambda_min(asm) - dense) < 1e-10


class TestShiftedFactor:
    def test_accepted_shift_lies_below_the_spectrum(self):
        asm = assembly("hemisphere", 12, "gaussian")
        dense = scipy.linalg.eigh(asm.operator.toarray(), asm.M.toarray(),
                                  subset_by_index=[0, 0], eigvals_only=True)
        assert asm.shifted_factor.sigma < dense[0]

    def test_factor_is_shared_between_solves(self):
        asm = assembly("hemisphere", 12, "gaussian")
        factor = asm.shifted_factor
        robin_eigenproblem(asm)
        constrained_lambda_min(asm)
        assert asm.shifted_factor is factor

    def test_constrained_solve_above_old_dense_limit(self):
        """Mean-zero l = 1 modes: lambda = 2 - (2 + k) = 2.5 for k = -2.5."""
        asm = assembly("hemisphere", 48, "radial-log", k=-2.5)
        assert asm.dof == 7057
        assert constrained_lambda_min(asm) == pytest.approx(2.5, abs=1e-3)

    def test_arpack_failure_is_a_numerical_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        asm = assembly("hemisphere", 8)
        with pytest.raises(NumericalFailure):
            robin_eigenproblem(asm)
        with pytest.raises(NumericalFailure):
            constrained_lambda_min(asm)


class TestJacobiOperator:
    def test_flat_slice_annihilates_constants(self):
        asm = assembly("slice", 16, "linear", a=(1.0, 0.0, 0.0))
        Lu = jacobi_apply(asm, np.ones(asm.dof))
        assert float(np.max(np.abs(Lu))) < 1e-10

    def test_hemisphere_constant_gives_potential(self):
        """L_f(1) = Ric_f(N,N) + |sigma|^2 = 2 on the unit hemisphere."""
        asm = assembly("hemisphere", 24)
        Lu = jacobi_apply(asm, np.ones(asm.dof))
        assert np.allclose(Lu, 2.0, atol=5e-3)

    def test_linearity(self):
        asm = assembly("hemisphere", 12, "gaussian")
        u = RNG.normal(size=asm.dof)
        v = RNG.normal(size=asm.dof)
        lhs = jacobi_apply(asm, 2.0 * u - 3.0 * v)
        rhs = 2.0 * jacobi_apply(asm, u) - 3.0 * jacobi_apply(asm, v)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_symmetry_residual(self):
        asm = assembly("hemisphere", 16, "radial-log", k=-2.0)
        for _ in range(5):
            v = RNG.normal(size=asm.dof)
            w = RNG.normal(size=asm.dof)
            assert jacobi_symmetry_residual(asm, v, w) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_index_form_is_symmetric_bilinear(self, seed):
        asm = assembly("hemisphere", 12, "gaussian")
        rng = np.random.default_rng(seed)
        v = rng.normal(size=asm.dof)
        w = rng.normal(size=asm.dof)
        a = rng.uniform(-2.0, 2.0)
        sym = abs(index_form_value(asm, v, w) - index_form_value(asm, w, v))
        lin = abs(index_form_value(asm, a * v, w)
                  - a * index_form_value(asm, v, w))
        scale = 1.0 + abs(index_form_value(asm, v, v))
        assert sym < 1e-8 * scale
        assert lin < 1e-8 * scale

    @pytest.mark.parametrize("kind,density,params,flow", [
        ("slice", "constant", {}, TranslationFlow((1, 0, 0))),
        ("hemisphere", "constant", {}, ScalingFlow()),
        ("hemisphere", "radial-log", {"k": -2.5}, ScalingFlow()),
    ])
    def test_fd_consistency_along_families(self, kind, density, params, flow):
        space, imm, mesh, _ = cf.cached_geometry(kind, 24, density, **params)
        asm = assemble(space, mesh, cf.QUAD)
        family = DeformedFamily(space, imm, mesh, flow)
        report = jacobi_fd_check(space, family, asm)
        assert report.passed, f"residual {report.max_residual:.2e}"


class TestConstrainedStability:
    def test_constrained_minimum_dominates_unconstrained(self):
        asm = assembly("hemisphere", 16, "radial-log", k=-2.5)
        spec = robin_eigenproblem(asm)
        assert constrained_lambda_min(asm) >= spec.lambda_min - 1e-12

    def test_gaussian_hemisphere_is_constrained_unstable(self):
        asm = assembly("hemisphere", 24, "gaussian")
        assert not volume_constrained_verdict(asm)

    def test_convex_cone_cap_is_constrained_stable(self):
        from wstab.ambient import make_space
        alpha = 0.7
        space = make_space(dim=3,
                           density=("radial-smooth",
                                    {"coeffs": (0.0, 0.0, 0.5)}),
                           boundary=("cone", {"alpha": alpha}))
        imm = SphericalCap(alpha=alpha)
        mesh = mesh_from_immersion(imm, 24, space=space)
        asm = assemble(space, mesh, cf.QUAD)
        assert volume_constrained_verdict(asm)

    def test_neutral_slice_is_constrained_stable(self):
        asm = assembly("slice", 16, "linear", a=(1.0, 0.0, 0.0))
        assert volume_constrained_verdict(asm)
