"""Tests for the index form assembly, spectra, and stability verdicts."""
import functools
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special

from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cf
import wstab.scenarios as scenarios
import wstab.stability as stability
from conftest import make_space
from wstab.errors import InputError, NumericalFailure
from wstab.functionals import DeformedFamily, ScalingFlow, TranslationFlow
from wstab.stability import (SpectralResult, assemble, index_form_value,
                             jacobi_apply, jacobi_fd_check,
                             robin_eigenproblem, strong_stability_verdict,
                             volume_constrained_verdict)
from wstab.surface import (COLLAPSED3, GAUSS3, PlanarDisk, RectPatch,
                           RoundSphere, extrinsic_geometry, surface_chart)

TAU = 2.0 * math.pi
RNG = np.random.default_rng(11)


def assembly(kind, resolution, density="constant", **params):
    return assemble(cf.cached_geometry(kind, resolution, density,
                                       **params)[3])


def cone_cap_assembly(resolution):
    """Cap in a convex cone with the log-convex density psi = |p|^2/2."""
    return assembly("cone", resolution, "radial-smooth",
                    coeffs=(0.0, 0.0, 0.5))


def flat_torus_assembly(resolution):
    """Doubly periodic slice of a weighted product with psi = x."""
    space = make_space(density=("linear", {"a": (1.0, 0.0, 0.0)}))
    imm = RectPatch(origin=(0, 0, 0), du=(0, 1, 0), dv=(0, 0, 1),
                    u_range=(0.0, TAU), v_range=(0.0, TAU), periodic_u=True,
                    periodic_v=True)
    return assemble(extrinsic_geometry(space,
                                       surface_chart(imm, resolution)))


def disk_in_ball(radius, resolution=12, density="constant"):
    """The equatorial disk of a ball, both of the given radius, with the
    density (constant unless named) at the resolution (12 unless given)."""
    space = cf.space_ball(density, radius=radius)
    chart = surface_chart(PlanarDisk(radius=radius), resolution)
    return assemble(extrinsic_geometry(space, chart))


def round_sphere(radius, resolution=8):
    """The round sphere of the given radius with constant density."""
    space = cf.space_free()
    chart = surface_chart(RoundSphere(radius=radius), resolution)
    return assemble(extrinsic_geometry(space, chart))


def disk_lambda_1(density) -> float:
    """lambda_1 of the equatorial unit disk in the unit ball in closed form.
    The Robin condition is du/dr = II(N, N) u = u at r = 1, and the lowest
    mode is radial.  Under a constant density it is I0(x r), so lambda_1 =
    -x^2 with x I1(x) = I0(x).  Under psi = -|p|^2, Ric_f(N, N) = 2 and the
    operator is -u'' - u'/r + 2 r u' - 2 u, whose mode is Kummer's
    M(a, 1, r^2) with lambda_1 = -4a - 2, where 2 a M(a + 1, 2, 1) =
    M(a, 1, 1)."""
    if density == "constant":
        x = scipy.optimize.brentq(
            lambda x: x * scipy.special.i1(x) - scipy.special.i0(x),
            1.0, 2.0, xtol=1e-15, rtol=1e-15)
        return -x * x
    a = scipy.optimize.brentq(
        lambda a: (2.0 * a * scipy.special.hyp1f1(a + 1.0, 2.0, 1.0)
                   - scipy.special.hyp1f1(a, 1.0, 1.0)),
        0.1, 0.9, xtol=1e-15, rtol=1e-15)
    return -4.0 * a - 2.0


@functools.lru_cache(maxsize=None)
def builtin_assembly(name):
    """The index form of a builtin, or of the radius-0.5 disk in a ball."""
    if name == "disk-in-ball":
        return disk_in_ball(0.5)
    scn = scenarios.builtin_scenario(name)
    return assemble(extrinsic_geometry(scn.space, scenarios.build_chart(scn)))


ASSEMBLY_CASES = scenarios.builtin_names() + ["disk-in-ball"]


def dense_constrained_minimum(asm) -> float:
    """The constrained minimum from a dense solve on an orthonormal basis
    of {u : c.u = 0}, c = M 1: the complement of c in a QR."""
    M = asm.M.toarray()
    c = M @ np.ones(asm.dof)
    Q, _ = np.linalg.qr(np.column_stack([c, np.eye(asm.dof)[:, 1:]]))
    Z = Q[:, 1:]
    return scipy.linalg.eigh(Z.T @ asm.operator.toarray() @ Z, Z.T @ M @ Z,
                             subset_by_index=[0, 0], eigvals_only=True)[0]


def with_tol(spec, tol) -> float:
    """The rel_tol that gives spec.verdict_tol the value tol."""
    return tol / spec.verdict_tol(1.0)


ORACLE_ASSEMBLIES = {
    "gaussian-hemisphere": lambda: assembly("hemisphere", 12, "gaussian"),
    "convex-cone-cap": lambda: cone_cap_assembly(12),
    "flat-torus": lambda: flat_torus_assembly(12),
    "closed-sphere": lambda: assembly("sphere", 12),
}


class TestAssembly:
    def test_matrices_are_symmetric(self):
        """Exactly, on every builtin and on the disk in a ball, as are both
        shifted pencils the solver factors."""
        for name in ASSEMBLY_CASES:
            asm = builtin_assembly(name)
            for mat in (asm.K, asm.P, asm.M, asm.B, asm.operator,
                        asm.shifted(0.25), asm.shifted(-3.0)):
                assert (mat != mat.T).nnz == 0, name

    @pytest.mark.parametrize("name", ASSEMBLY_CASES)
    def test_matrices_share_one_pattern(self, name):
        """The diagonal and each mesh edge both ways, in every matrix."""
        asm = builtin_assembly(name)
        mesh = asm.data.mesh
        mats = (asm.K, asm.P, asm.M, asm.B, asm.operator,
                asm.shifted(0.25))
        for mat in mats:
            for attr in ("indptr", "indices"):
                assert np.shares_memory(getattr(mat, attr),
                                        getattr(asm.K, attr))
        assert asm.K.nnz == asm.dof + 2 * len(mesh.edges)
        diag = np.arange(asm.dof)
        rows = np.repeat(diag, np.diff(asm.K.indptr))
        pairs = np.stack([rows, asm.K.indices], axis=-1)
        want = np.concatenate([np.stack([diag, diag], axis=-1), mesh.edges,
                               mesh.edges[:, ::-1]])
        assert np.array_equal(pairs, want[np.lexsort(want.T[::-1])])

    def test_a_spectrum_run_builds_no_coo_matrix(self, monkeypatch,
                                                 tmp_path):
        """No COO conversion and no sparse sum or difference on the way to
        a spectrum and a factored volume-constrained verdict."""
        from wstab.cli import main

        def forbidden(*args, **kwargs):
            raise AssertionError("sparse conversion or arithmetic")

        monkeypatch.setattr(sp, "coo_matrix", forbidden)
        for name in ("__add__", "__sub__", "tocsc"):
            monkeypatch.setattr(sp.csr_matrix, name, forbidden)
        assert main(["builtin", "paper-ex-3.8-convex-cone",
                     "--out", str(tmp_path)]) == 0

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
        spec = robin_eigenproblem(asm)
        assert len(spec.eigenvalues) == 6
        assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
        assert float(np.max(spec.solver_residuals)) < 1e-6

    def test_constant_density_shift_leaves_spectrum_unchanged(self):
        """Adding a constant to psi rescales all matrices uniformly."""
        base = assembly("slice", 12)
        shifted = assembly("slice", 12, "linear", a=(0.0, 0.0, 0.0), b=2.0)
        s0 = robin_eigenproblem(base).eigenvalues
        s1 = robin_eigenproblem(shifted).eigenvalues
        assert np.allclose(s0, s1, atol=1e-9)


class TestDiskOracles:
    """The lowest eigenvalue of the equatorial unit disk in the unit ball
    against its closed form: the P1 error at resolutions 12 and 24, each
    bound at least 9% above the measured one (1.8e-3 over 1.63e-3 and
    4.3e-4 over 3.92e-4 under a constant density, 2.0e-3 over 1.67e-3 and
    4.9e-4 over 4.05e-4 under the Gaussian), falls at an
    observed order of at least 1.8.  The bounds were set 25% above the
    errors under Gauss3 on the rim triangles (1.44e-3 and 3.40e-4, 1.61e-3
    and 3.93e-4), whose quadrature error offset part of the P1 error."""

    @pytest.mark.parametrize("density,closed_form,bounds", [
        ("constant", -2.58656285917809, (1.8e-3, 4.3e-4)),
        ("gaussian", -3.505250706451, (2.0e-3, 4.9e-4)),
    ])
    def test_lowest_eigenvalue_converges_to_the_closed_form(
            self, density, closed_form, bounds):
        want = disk_lambda_1(density)
        assert want == pytest.approx(closed_form, abs=1e-12)
        errors = [abs(robin_eigenproblem(disk_in_ball(
            1.0, resolution, density)).lambda_min - want)
            for resolution in (12, 24)]
        assert errors[0] <= bounds[0] and errors[1] <= bounds[1]
        assert math.log2(errors[0] / errors[1]) >= 1.8


class TestUnitOfLength:
    """A surface scaled by r, with its ambient boundary, has the pencil
    scaled by 1 / r^2: its chart passes the rank test at any scale, its
    eigenvalues times r^2 are those of the unit surface, and its verdicts
    are the unit surface's."""

    SURFACES = {"sphere": round_sphere,
                "disk": lambda r: disk_in_ball(r, resolution=8)}

    @pytest.mark.parametrize("surface", sorted(SURFACES))
    @pytest.mark.parametrize("radius", [1e-6, 100.0])
    def test_eigenvalues_scale_by_the_square_of_the_radius(self, surface,
                                                           radius):
        """Within 1e-9 of the largest (measured: 4e-16 at r = 1e-6 and
        2.3e-12 at r = 100)."""
        build = self.SURFACES[surface]
        unit, scaled = (robin_eigenproblem(build(r)).eigenvalues
                        for r in (1.0, radius))
        assert (np.max(np.abs(scaled * radius**2 - unit))
                <= 1e-9 * np.max(np.abs(unit)))

    @pytest.mark.parametrize("surface", sorted(SURFACES))
    @pytest.mark.parametrize("radius", [1e-6, 100.0])
    def test_verdicts_are_those_of_the_unit_surface(self, surface, radius):
        """The sphere of radius 100 has lambda_min = -2.0e-4 and is strongly
        unstable, as the unit sphere is: its verdict tolerance is 1e-3
        max|lambda|, which scales with the spectrum."""
        build = self.SURFACES[surface]
        unit, scaled = (robin_eigenproblem(build(r)) for r in (1.0, radius))
        assert not strong_stability_verdict(scaled)
        for verdict in (strong_stability_verdict, volume_constrained_verdict):
            assert verdict(scaled) == verdict(unit)
        assert scaled.verdict_tol(1e-3) == pytest.approx(
            unit.verdict_tol(1e-3) / radius**2, rel=1e-9)


@pytest.mark.parametrize("name", sorted(ORACLE_ASSEMBLIES))
class TestDenseOracle:
    """The shift-invert solves against dense solves of the full pencil."""

    def test_spectrum_matches_dense_pencil(self, name):
        asm = ORACLE_ASSEMBLIES[name]()
        spec = robin_eigenproblem(asm)
        dense = scipy.linalg.eigh(asm.operator.toarray(), asm.M.toarray(),
                                  subset_by_index=[0, 5], eigvals_only=True)
        assert np.max(np.abs(spec.eigenvalues - dense)) < 1e-10

    def test_constrained_minimum_matches_dense_basis(self, name):
        asm = ORACLE_ASSEMBLIES[name]()
        dense = dense_constrained_minimum(asm)
        assert abs(cf.constrained_lambda_min(asm) - dense) < 1e-10

    def test_verdict_turns_at_the_dense_constrained_minimum(self, name):
        """-tol 1e-6 relative below the dense minimum mu gives true, and
        1e-6 relative above it false."""
        asm = ORACLE_ASSEMBLIES[name]()
        spec = robin_eigenproblem(asm)
        mu = dense_constrained_minimum(asm)
        for side, want in [(-1.0, True), (1.0, False)]:
            tol = -(mu + side * 1e-6 * abs(mu))
            assert volume_constrained_verdict(spec, with_tol(spec, tol)) \
                == want, side


class TestMassFloor:
    """The element mass bound that ``_spectrum_floor`` proves, on the four
    cap builtins, whose rim triangles take the collapsed rule; that the
    floor lies below each builtin's spectrum is
    ``test_builtin_shifts_come_from_the_first_four_tries``'s."""

    CAPS = ["gauss-identity-suite", "paper-ex-3.8-convex-cone",
            "paper-ex-3.8-gaussian-halfspace", "paper-ex-3.9-threshold"]

    @pytest.mark.parametrize("name", CAPS)
    def test_element_mass_is_at_least_its_rule_bound(self, name):
        """Each element mass matrix sum_r w_r h_r h_r^T is at least
        rule.hat_gram_min min_r w_r times the identity, under its own
        block's rule."""
        data = builtin_assembly(name).data
        rules = []
        for block, rows in data.mesh.block_rows():
            hats = block.rule.hats
            w = data.w_daf[rows].reshape(len(block.tris), -1)
            least = np.linalg.eigvalsh(np.einsum("fr,ir,jr->fij", w, hats,
                                                 hats))[:, 0]
            bound = block.rule.hat_gram_min * w.min(axis=1)
            assert np.all(least >= bound * (1.0 - 1e-12)), name
            rules.append(block.rule)
        assert rules == [GAUSS3, COLLAPSED3]


class TestShiftedFactor:
    def test_accepted_shift_lies_below_the_spectrum(self):
        asm = assembly("hemisphere", 12, "gaussian")
        dense = scipy.linalg.eigh(asm.operator.toarray(), asm.M.toarray(),
                                  subset_by_index=[0, 0], eigvals_only=True)
        sigma, _ = stability._factor_below_spectrum(asm)
        assert sigma < dense[0]

    def test_constrained_solve_above_old_dense_limit(self):
        """Mean-zero l = 1 modes: lambda = 2 - (2 + k) = 2.5 for k = -2.5,
        so the verdict turns there; below it the factor decides."""
        asm = assembly("hemisphere", 48, "radial-log", k=-2.5)
        assert asm.dof == 7057
        assert cf.constrained_lambda_min(asm) == pytest.approx(2.5, abs=1e-3)
        spec = robin_eigenproblem(asm)
        assert volume_constrained_verdict(spec, with_tol(spec, -2.49))
        assert not volume_constrained_verdict(spec, with_tol(spec, -2.51))

    def test_robin_term_below_the_first_four_shifts(self):
        """The disk's potential vanishes, so the search starts at sigma = -1,
        and its Robin term II(N, N) = 1 / radius sets lambda_min: -2.585 at
        radius 1 and, as the pencil scales by 1 / radius^2, -10.34 at
        radius 0.5, below the fourth shift -8."""
        small, unit = (robin_eigenproblem(disk_in_ball(r))
                       for r in (0.5, 1.0))
        assert unit.lambda_min == pytest.approx(-2.5849, abs=1e-4)
        assert small.lambda_min == pytest.approx(4.0 * unit.lambda_min,
                                                 rel=1e-9)
        assert stability._factor_below_spectrum(small.asm)[0] == -16.0
        floor = stability._spectrum_floor(small.asm)
        assert floor < small.lambda_min

    def test_a_shift_below_the_floor_that_fails_is_a_numerical_failure(
            self, monkeypatch):
        """With every factor refused, the search stops at the first shift
        below the proven floor instead of doubling forever."""
        asm = disk_in_ball(0.5)
        floor = stability._spectrum_floor(asm)
        tried = []

        def refused(A, **kwargs):
            tried.append(A)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spla, "splu", refused)
        with pytest.raises(NumericalFailure, match="bracket"):
            stability._factor_below_spectrum(asm)
        assert len(tried) == math.ceil(math.log2(-floor)) + 1

    def test_arpack_failure_is_a_numerical_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        with pytest.raises(NumericalFailure):
            robin_eigenproblem(assembly("hemisphere", 8))

    @pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
    def test_restarted_spectrum_is_identical_run_to_run(self, coretype):
        """ARPACK asks for a random vector when its basis breaks down on the
        torus's multiple eigenvalues, as it does under some OpenBLAS kernel
        sets; the generator it draws from is seeded, so six spectra in one
        fresh interpreter agree bit for bit.  On a numpy without OpenBLAS
        the variable does nothing and this passes trivially."""
        src = os.path.dirname(os.path.dirname(stability.__file__))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
                   OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "from wstab.scenarios import build_chart, builtin_scenario\n"
             "from wstab.stability import assemble, robin_eigenproblem\n"
             "from wstab.surface import extrinsic_geometry\n"
             "scn = builtin_scenario('paper-product-torus')\n"
             "data = extrinsic_geometry(scn.space, build_chart(scn))\n"
             "asm = assemble(data)\n"
             "print(len({robin_eigenproblem(asm).eigenvalues.tobytes()\n"
             "           for _ in range(6)}))"],
            env=env, check=True, capture_output=True, text=True, timeout=300)
        assert out.stdout.split() == ["1"]


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

    @pytest.mark.parametrize("name", scenarios.builtin_names())
    def test_index_form_is_the_operator_product(self, name):
        """The slot sum agrees with v^T (K - P - B) w from the CSR
        operator within 1e-13 of the sum of |A_ij v_i w_j|."""
        asm = builtin_assembly(name)
        rng = np.random.default_rng(5)
        for v, w in [(np.ones(asm.dof),) * 2,
                     rng.normal(size=(2, asm.dof))]:
            scale = np.abs(v) @ (abs(asm.operator) @ np.abs(w))
            assert abs(index_form_value(asm, v, w)
                       - v @ (asm.operator @ w)) <= 1e-13 * scale

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_index_form_is_symmetric_bilinear(self, seed):
        asm = assembly("hemisphere", 12, "gaussian")
        rng = np.random.default_rng(seed)
        v = rng.normal(size=asm.dof)
        w = rng.normal(size=asm.dof)
        a = rng.uniform(-2.0, 2.0)
        assert index_form_value(asm, v, w) == index_form_value(asm, w, v)
        lin = abs(index_form_value(asm, a * v, w)
                  - a * index_form_value(asm, v, w))
        scale = 1.0 + abs(index_form_value(asm, v, v))
        assert lin < 1e-8 * scale

    @pytest.mark.parametrize("kind,density,params,flow", [
        ("slice", "constant", {}, TranslationFlow((1, 0, 0))),
        ("hemisphere", "constant", {}, ScalingFlow()),
        ("hemisphere", "radial-log", {"k": -2.5}, ScalingFlow()),
    ])
    def test_fd_consistency_along_families(self, kind, density, params, flow):
        space, imm, mesh, data = cf.cached_geometry(kind, 24, density, **params)
        family = DeformedFamily(data, flow)
        report = jacobi_fd_check(family)
        assert report.passed, f"residual {report.max_residual:.2e}"


class TestConstrainedStability:
    def test_constrained_minimum_dominates_unconstrained(self):
        asm = assembly("hemisphere", 16, "radial-log", k=-2.5)
        spec = robin_eigenproblem(asm)
        assert cf.constrained_lambda_min(asm) >= spec.lambda_min - 1e-12

    def test_gaussian_hemisphere_is_constrained_unstable(self):
        asm = assembly("hemisphere", 24, "gaussian")
        assert not volume_constrained_verdict(robin_eigenproblem(asm))
        assert cf.constrained_lambda_min(asm) < -1e-3

    def test_convex_cone_cap_is_constrained_stable(self):
        asm = cone_cap_assembly(24)
        assert volume_constrained_verdict(robin_eigenproblem(asm))
        assert cf.constrained_lambda_min(asm) >= -1e-3

    def test_neutral_slice_is_constrained_stable(self):
        asm = assembly("slice", 16, "linear", a=(1.0, 0.0, 0.0))
        assert volume_constrained_verdict(robin_eigenproblem(asm))
        assert cf.constrained_lambda_min(asm) >= -1e-3


@pytest.fixture(scope="module")
def builtin_pass():
    """Run every builtin once.  For each spectrum run, record its name, the
    verdict, its absolute tolerance, the constrained minimum of the
    reference solve and the spectrum; also record the name of every run
    whose verdict factored A + tol M."""
    verdict = scenarios.volume_constrained_verdict
    ldlt = stability._ldlt
    runs, factored, calls = [], [], []
    current = [None]

    def recording_verdict(spec, rel_tol):
        before = len(calls)
        out = verdict(spec, rel_tol)
        if len(calls) > before:
            factored.append(current[0])
        runs.append((current[0], out, spec.verdict_tol(rel_tol),
                     cf.constrained_lambda_min(spec.asm), spec))
        return out

    def counting_ldlt(matrix):
        calls.append(matrix)
        return ldlt(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "volume_constrained_verdict", recording_verdict)
        mp.setattr(stability, "_ldlt", counting_ldlt)
        for name in scenarios.builtin_names():
            current[0] = name
            scenarios.run_scenario(scenarios.builtin_scenario(name))
    return runs, factored


class TestConstrainedVerdictFromSpectrum:
    def test_verdict_equals_the_constrained_solve(self, builtin_pass):
        runs, _ = builtin_pass
        assert len(runs) == 13       # the threshold sweep counts five
        for name, out, tol, mu, _ in runs:
            assert out == (mu >= -tol), name

    def test_builtin_shifts_come_from_the_first_four_tries(
            self, builtin_pass):
        """Each builtin's accepted shift is one of the four that the search
        tried before it doubled on to a proven floor, and that floor lies
        below its spectrum."""
        runs, _ = builtin_pass
        for name, _, _, _, spec in runs:
            data = spec.asm.data
            sigma0 = -float(np.max(np.abs(data.ricf_NN + data.sigma2))) - 1.0
            assert stability._factor_below_spectrum(spec.asm)[0] in [
                sigma0 * 2.0 ** k for k in range(4)], name
            assert stability._spectrum_floor(spec.asm) < spec.lambda_min, name

    def test_a_pass_solves_only_where_the_spectrum_straddles_tol(
            self, builtin_pass):
        _, factored = builtin_pass
        assert sorted(factored) == ["paper-ex-3.8-convex-cone",
                                  "paper-ex-3.9-threshold",
                                  "paper-ex-3.9-threshold",
                                  "sphere-classical-instability"]

    @pytest.mark.parametrize("eigenvalues,solves,verdict", [
        ([0.0, 1.0], 0, True), ([-0.5, -0.2], 0, False),
        ([-0.5, 0.0], 1, True)])
    def test_interlacing_decides_before_solving(self, monkeypatch,
                                                eigenvalues, solves, verdict):
        """The stubbed factorization has no negative pivot."""
        calls = []
        monkeypatch.setattr(stability, "_ldlt",
                            lambda matrix: calls.append(matrix) or (None, 0))
        spec = spectrum_of(pencil(np.diag(eigenvalues)), eigenvalues)
        assert volume_constrained_verdict(spec, rel_tol=1e-3) == verdict
        assert len(calls) == solves


def pencil(A, M=None):
    """A hand-built assembly: the pencil (A, M), M the identity if None."""
    A = np.asarray(A, float)
    M = np.eye(len(A)) if M is None else np.asarray(M, float)
    return SimpleNamespace(operator=sp.csr_matrix(A), M=sp.csr_matrix(M),
                           dof=len(A),
                           shifted=lambda s: sp.csr_matrix(A + s * M))


def spectrum_of(asm, eigenvalues):
    """A spectrum of ``asm`` that reports ``eigenvalues``, computed or not."""
    n = len(eigenvalues)
    return SpectralResult(asm, np.array(eigenvalues, float), np.zeros(n))


# the pencil with eigenvalue -1 on the constants and 1 on their complement
CONSTANT_GROUND_STATE = np.eye(3) - 2.0 * np.full((3, 3), 1.0 / 3.0)


class TestInertiaVerdict:
    """Each branch of the factored verdict, with the spectrum straddling
    -tol = -1e-3 and the pencil's own inertia deciding."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """The negative pivot counts of every factorization."""
        ldlt, out = stability._ldlt, []

        def counting(matrix):
            factor = ldlt(matrix)
            out.append(None if factor is None else factor[1])
            return factor

        monkeypatch.setattr(stability, "_ldlt", counting)
        return out

    @pytest.mark.parametrize("A,M,count,verdict", [
        # constrained minimum -0.35 with M = I, between lambda_1 and lambda_2
        (np.diag([-1.0, 0.5, 3.0]), None, 1, False),
        (np.diag([-1.0, 0.5, 3.0]), [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2],
                                     [0.0, 0.2, 1.5]], 1, False),
        (CONSTANT_GROUND_STATE, None, 1, True),
        # pencils whose inertia the spectrum misreports, as rounding can
        # where lambda_1 or lambda_2 lies within rounding of -tol
        (np.diag([1.0, 2.0, 3.0]), None, 0, True),
        (np.diag([-1.0, -0.5, 3.0]), None, 2, False),
    ])
    def test_count_decides(self, counts, A, M, count, verdict):
        asm = pencil(A, M)
        spec = spectrum_of(asm, [-1.0, 0.5, 3.0])
        assert volume_constrained_verdict(spec, with_tol(spec, 1e-3)) \
            == verdict
        assert counts == [count]
        if count == 1:
            assert (dense_constrained_minimum(asm) >= -1e-3) == verdict

    def test_lambda_1_within_rounding_of_tol(self):
        """-tol a few ulps above lambda_1 = -0.5 of the k = -1.5 log-radial
        hemisphere: A + tol M is singular to rounding, and the count still
        decides, true as lambda_2 = 1.5."""
        spec = robin_eigenproblem(assembly("hemisphere", 12, "radial-log",
                                           k=-1.5))
        lam1 = spec.lambda_min
        rel_tol = with_tol(spec, -lam1)
        while not lam1 < -spec.verdict_tol(rel_tol):
            rel_tol = np.nextafter(rel_tol, 0.0)
        assert -spec.verdict_tol(rel_tol) - lam1 <= 8 * cf.EPS * abs(lam1)
        assert spec.eigenvalues[1] > 1.0
        assert volume_constrained_verdict(spec, rel_tol)

    @staticmethod
    def singular(A, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    @staticmethod
    def off_diagonal(A, **kwargs):
        return SimpleNamespace(perm_r=np.array([1, 0, 2]),
                               perm_c=np.arange(3),
                               U=sp.identity(3, format="csr"))

    @pytest.mark.parametrize("splu", ["singular", "off_diagonal"])
    def test_no_factor_is_a_numerical_failure(self, monkeypatch, splu):
        monkeypatch.setattr(spla, "splu", getattr(self, splu))
        spec = spectrum_of(pencil(np.diag([-1.0, 0.5, 3.0])),
                           [-1.0, 0.5, 3.0])
        with pytest.raises(NumericalFailure, match="volume-constrained"):
            volume_constrained_verdict(spec)
