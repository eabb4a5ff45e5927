"""Tests for weighted functionals, variations, and divergence identities."""
import math

import numpy as np
import pytest

import conftest as cf
from wstab import surface
from wstab.ambient import AmbientSpace, BoundarySpec, make_density
from wstab.errors import InputError, NumericalFailure, PreconditionError
from wstab.functionals import (DeformedFamily, DeformedImmersion, FieldFlow,
                               RotationFlow, ScalingFlow,
                               SurfaceGradientField, TranslationFlow,
                               VariationField, divergence_theorem_residual,
                               first_variation_fd, first_variation_formula,
                               second_variation_fd, swept_weighted_volume,
                               volume_first_variation)
from wstab.surface import PlanarDisk, extrinsic_geometry, mesh_from_immersion

TAU = 2.0 * math.pi


def position_field():
    return VariationField(X=lambda P: np.atleast_2d(P), name="position")


class TestWeightedArea:
    def test_hemisphere_constant(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 32)
        assert np.sum(data.w_daf) == pytest.approx(TAU, rel=2e-4)

    def test_hemisphere_gaussian_closed_form(self):
        """|p| = 1 on the surface, so the density is a constant e^{-1}."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 32,
                                                    "gaussian")
        expected = math.exp(-1.0) * TAU
        assert np.sum(data.w_daf) == pytest.approx(expected, rel=2e-4)


class TestFirstOrderGeometry:
    """Area and swept volume read only positions, normals and w da_f."""

    @pytest.mark.parametrize("kind,density,params", [
        ("hemisphere", "radial-log", {"k": -2.5}),
        ("slice", "linear", {"a": (1.0, 0.0, 0.0)}),
        ("disk", "gaussian", {}),
        ("sphere", "constant", {}),
    ])
    def test_area_elements_match_full_geometry(self, kind, density,
                                               params):
        space, imm, mesh, data = cf.cached_geometry(kind, 16, density,
                                                    **params)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        pos, N, w_daf = family.area_elements(0.0)
        assert np.array_equal(pos, data.pos)
        assert np.array_equal(N, data.N)
        assert np.array_equal(w_daf, data.w_daf)
        assert family.weighted_area(0.0) == np.sum(data.w_daf)

    def test_deformed_immersion_area_matches_full_geometry(self):
        space, imm, mesh, _ = cf.cached_geometry("hemisphere", 16,
                                                 "radial-log", k=-2.5)
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        data = extrinsic_geometry(space, family.immersion(0.05), mesh)
        _, N, w_daf = family.area_elements(0.05)
        assert np.array_equal(N, data.N)
        assert family.weighted_area(0.05) == np.sum(data.w_daf)

    def test_area_and_volume_skip_second_order_geometry(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("second-order geometry evaluated")

        space, imm, mesh, _ = cf.cached_geometry("hemisphere", 16)
        for cls in (type(imm), DeformedImmersion):
            monkeypatch.setattr(cls, "chart_hess", forbidden)
        monkeypatch.setattr(surface, "_boundary_geometry", forbidden)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        assert family.weighted_area(0.1) > 0
        assert swept_weighted_volume(family, [0.1])[0] > 0


def swirl(P):
    """Smooth field without a closed-form Jacobian: FieldFlow takes its
    Jacobian by finite differences."""
    P = np.atleast_2d(P)
    return np.stack([np.sin(P[:, 1]), P[:, 0] * P[:, 2], np.cos(P[:, 0])],
                    axis=-1)


class TestFamilySlices:
    @pytest.mark.parametrize("kind", ["hemisphere", "slice"])
    @pytest.mark.parametrize("flow", [
        TranslationFlow((0.6, 0.8, 0.0)), ScalingFlow((0.1, -0.2, 0.3)),
        RotationFlow((1.0, 1.0, 0.0), (0.0, 0.5, 0.0)), FieldFlow(swirl),
    ], ids=["translation", "scaling", "rotation", "field"])
    def test_slices_equal_the_generic_path(self, kind, flow):
        """The flow applied to the cached base chart gives the arrays the
        deformed immersion gives, bit for bit."""
        space, imm, mesh, _ = cf.cached_geometry(kind, 12, "gaussian")
        family = DeformedFamily(space, imm, mesh, flow)
        for s in (0.0, 1e-3, -1e-3, 0.2):
            generic = extrinsic_geometry(space, family.immersion(s), mesh)
            want = (generic.pos, generic.N, generic.w_daf)
            for got, exp in zip(family.area_elements(s), want):
                assert np.array_equal(got, exp)
            assert family.weighted_area(s) == np.sum(generic.w_daf)

    def test_base_chart_is_evaluated_once_per_rule(self, monkeypatch):
        """Across both FD variations and a swept volume a family blends the
        quadrature points and evaluates the base Jacobian once."""
        space = cf.space_half_space("radial-log", k=-2.5)
        imm = surface.SphericalCap()
        mesh = mesh_from_immersion(imm, 12, space=space)
        family = DeformedFamily(space, imm, mesh, ScalingFlow(),
                                base_data=extrinsic_geometry(space, imm, mesh))
        counts = {"blend": 0, "jac": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(surface, "_blended_param_points",
                            counting("blend", surface._blended_param_points))
        monkeypatch.setattr(imm, "chart_jac", counting("jac", imm.chart_jac))
        first_variation_fd(family)
        second_variation_fd(family)
        swept_weighted_volume(family, [0.1])
        assert counts == {"blend": 1, "jac": 1}

    def test_base_geometry_is_reused_only_for_its_rules(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        family = DeformedFamily(space, imm, mesh, ScalingFlow(),
                                base_data=data)
        assert family.geometry(0.0) is data
        assert family.base_data is data
        fresh = DeformedFamily(space, imm, mesh, ScalingFlow())
        computed = fresh.geometry(0.0)
        assert fresh.base_data is computed
        assert fresh.geometry(0.0) is computed
        assert np.array_equal(computed.H_f, data.H_f)


class TestFirstVariation:
    def test_hemisphere_inflation_formula_is_4pi(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        val = first_variation_formula(space, data, position_field())
        assert val == pytest.approx(2.0 * TAU, rel=1e-4)

    def test_hemisphere_inflation_fd_matches(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        fd = first_variation_fd(family)
        assert fd.value == pytest.approx(2.0 * TAU, rel=1e-4)
        assert fd.error_estimate < 1e-5

    @pytest.mark.parametrize("kind,density,params,flow,field", [
        ("hemisphere", "gaussian", {}, ScalingFlow(),
         position_field()),
        ("hemisphere", "radial-log", {"k": -2.5}, ScalingFlow(),
         position_field()),
        ("slice", "linear", {"a": (1.0, 0.0, 0.0)}, TranslationFlow((1, 0, 0)),
         VariationField(X=lambda P: np.broadcast_to([1.0, 0, 0],
                                                    np.atleast_2d(P).shape))),
        ("slice", "gaussian", {}, TranslationFlow((1, 0, 0)),
         VariationField(X=lambda P: np.broadcast_to([1.0, 0, 0],
                                                    np.atleast_2d(P).shape))),
    ])
    def test_fd_matches_formula(self, kind, density, params, flow,
                                field):
        space, imm, mesh, data = cf.cached_geometry(kind, 24, density,
                                                    **params)
        formula = first_variation_formula(space, data, field)
        fd = first_variation_fd(DeformedFamily(space, imm, mesh, flow))
        assert fd.value == pytest.approx(formula,
                                         abs=max(1e-6, 1e-4 * abs(formula)))

    def test_rotation_leaves_area_invariant(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24,
                                                    "gaussian")
        field = VariationField(
            X=lambda P: np.cross([0.0, 0.0, 1.0], np.atleast_2d(P)))
        formula = first_variation_formula(space, data, field)
        fd = first_variation_fd(
            DeformedFamily(space, imm, mesh, RotationFlow()))
        assert abs(formula) < 1e-10
        assert abs(fd.value) < 1e-8

    def test_volume_first_variation_of_inflation(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        val = volume_first_variation(data, position_field())
        assert val == pytest.approx(TAU, rel=1e-4)

    def test_inadmissible_field_is_rejected(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        lift = VariationField(
            X=lambda P: np.broadcast_to([0.0, 0.0, 1.0],
                                        np.atleast_2d(P).shape))
        with pytest.raises(InputError):
            first_variation_formula(space, data, lift)


SAMPLE_SIDES = ([0.05, 0.1, 0.15, 0.2], [-0.05, -0.1, -0.15, -0.2])


class TestSweptVolume:
    def test_hemisphere_inflation_shell(self):
        space, imm, mesh, _ = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        s = 0.1
        expected = (TAU / 3.0) * ((1.0 + s)**3 - 1.0)
        assert swept_weighted_volume(family, [s])[0] == pytest.approx(
            expected, rel=1e-4)

    @pytest.mark.parametrize("grid", SAMPLE_SIDES)
    def test_hemisphere_grid_matches_one_panel_calls(self, grid):
        """The inflation rate is a quadratic in s, so one Lobatto panel is
        exact and the panels may only differ from it by rounding."""
        space, imm, mesh, _ = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        volumes = swept_weighted_volume(family, grid)
        for s, v in zip(grid, volumes):
            assert abs(v - swept_weighted_volume(family, [s])[0]) <= 1e-13

    def test_negative_parameter_flips_sign(self):
        space, imm, mesh, _ = cf.cached_geometry("hemisphere", 16)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        assert swept_weighted_volume(family, [-0.1])[0] < 0.0
        assert swept_weighted_volume(family, [0.0]) == [0.0]
        assert swept_weighted_volume(family, []) == []

    def test_slab_translation_closed_form(self):
        space, imm, mesh, _ = cf.cached_geometry("slice", 16)
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        for grid in SAMPLE_SIDES:
            volumes = swept_weighted_volume(family, grid)
            assert volumes == pytest.approx([s * 2.0 * TAU for s in grid],
                                            rel=1e-12)

    @pytest.mark.parametrize("grid", [[0.1, 0.05], [0.1, -0.2],
                                      [-0.1, 0.0], [float("nan")]])
    def test_grid_must_move_away_from_zero_on_one_side(self, grid):
        space, imm, mesh, _ = cf.cached_geometry("slice", 8)
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        with pytest.raises(InputError):
            swept_weighted_volume(family, grid)

    def test_each_slice_is_evaluated_once(self, monkeypatch):
        """Neighbouring panels share their end slices, and A_f(s) at a grid
        value reuses the volume's slice: 4 panels take 17 slices."""
        space, imm, mesh, _ = cf.cached_geometry("slice", 8)
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        slices = []
        area_elements = family.area_elements

        def counting(s):
            slices.append(s)
            return area_elements(s)

        monkeypatch.setattr(family, "area_elements", counting)
        swept_weighted_volume(family, SAMPLE_SIDES[0])
        for s in SAMPLE_SIDES[0]:
            family.weighted_area(s)
        assert len(slices) == 17
        assert len(set(slices)) == 17


class TestBoundaryReprojection:
    @staticmethod
    def space_with_boundary(phi, grad_phi):
        spec = BoundarySpec(phi, grad_phi, lambda P: np.zeros((len(P), 3, 3)))
        return AmbientSpace(dim=3, density=make_density("constant"),
                            boundary=spec)

    def test_slow_newton_convergence_is_a_numerical_failure(self):
        """On {z^3 = 0} Newton only shrinks z by 2/3 per step: 3 steps from
        z = 0.1 leave a residual of 2.6e-5."""
        space = self.space_with_boundary(
            lambda P: np.atleast_2d(P)[:, 2] ** 3,
            lambda P: np.stack([np.zeros(len(P)), np.zeros(len(P)),
                                3.0 * np.atleast_2d(P)[:, 2] ** 2], axis=-1))
        moved = DeformedImmersion(PlanarDisk(), TranslationFlow((0, 0, 1)),
                                  0.1, space)
        with pytest.raises(NumericalFailure, match="re-projection"):
            moved.boundary_chart(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_nan_residual_is_a_numerical_failure(self):
        space = self.space_with_boundary(
            lambda P: np.full(len(np.atleast_2d(P)), np.nan),
            lambda P: np.tile([0.0, 0.0, 1.0], (len(P), 1)))
        moved = DeformedImmersion(PlanarDisk(), TranslationFlow((0, 0, 1)),
                                  0.1, space)
        with pytest.raises(NumericalFailure, match="re-projection"):
            moved.boundary_chart(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_converged_projection_lands_on_the_boundary(self):
        space = self.space_with_boundary(
            lambda P: np.atleast_2d(P)[:, 2],
            lambda P: np.tile([0.0, 0.0, 1.0], (len(P), 1)))
        moved = DeformedImmersion(PlanarDisk(), TranslationFlow((0, 0, 1)),
                                  0.1, space)
        P = moved.boundary_chart(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(P, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-15)


class TestSecondVariation:
    def test_hemisphere_inflation_is_minus_4pi(self):
        space, imm, mesh, _ = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        fd = second_variation_fd(family)
        assert fd.value == pytest.approx(-2.0 * TAU, rel=1e-3)

    def test_flat_slice_translation_is_neutral(self):
        space, imm, mesh, _ = cf.cached_geometry("slice", 16, "linear",
                                                 a=(1.0, 0.0, 0.0))
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        fd = second_variation_fd(family)
        assert abs(fd.value) < 1e-6

    def test_requires_stationary_base(self):
        space = cf.space_ball(radius=1.0, center=(2.0, 0.0, 0.0))
        rho = math.sqrt(1.0 - 0.25)
        imm = PlanarDisk(center=(2, 0, 0.5), e1=(1, 0, 0), e2=(0, 1, 0),
                         radius=rho)
        mesh = mesh_from_immersion(imm, 12, space=space)
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        with pytest.raises(PreconditionError):
            second_variation_fd(family)


class TestDivergenceTheorem:
    @pytest.mark.parametrize("density,params", [
        ("constant", {}),
        ("gaussian", {}),
        ("radial-log", {"k": -2.0}),
    ])
    def test_position_field_on_hemisphere(self, density, params):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24, density,
                                                    **params)
        res = divergence_theorem_residual(space, mesh, data, position_field())
        assert res < 1e-6

    def test_tangential_rotation_field(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24,
                                                    "gaussian")
        field = VariationField(
            X=lambda P: np.cross([0.0, 0.0, 1.0], np.atleast_2d(P)))
        res = divergence_theorem_residual(space, mesh, data, field)
        assert res < 1e-6

    def test_integration_by_parts_on_disk(self):
        """Residual of the surface Laplacian identity shrinks at order 2."""
        c = np.array([2.0, 0.0, 0.0])
        residuals = {}
        for resolution in (16, 32):
            space, imm, mesh, data = cf.cached_geometry("disk", resolution)
            grad_field = SurfaceGradientField(
                imm, lambda P: 2.0 * (np.atleast_2d(P) - c))
            residuals[resolution] = divergence_theorem_residual(
                space, mesh, data, grad_field)
        assert residuals[32] < 5e-4
        assert residuals[32] < 0.35 * residuals[16]
