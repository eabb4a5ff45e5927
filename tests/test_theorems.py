"""Tests for curvature identities, topology chains, area bounds, rigidity."""
import math

import numpy as np
import pytest

import conftest as cf
from wstab.errors import InputError, PreconditionError
from wstab.functionals import DeformedFamily, ScalingFlow, TranslationFlow
from wstab.stability import (assemble, robin_eigenproblem,
                             strong_stability_verdict)
from wstab.surface import PlanarDisk, extrinsic_geometry, mesh_from_immersion
from wstab.theorems import (DISK_OR_CYLINDER, NOT_APPLICABLE, SPHERE_OR_TORUS,
                            area_bound_check, boundary_identity_residual,
                            foliation_monotonicity_check,
                            gauss_rearrangement_residual, rigidity_flags,
                            stability_topology_chain, topology_verdict)

TAU = 2.0 * math.pi


def quadratic_disk(resolution=24):
    """Flat disk through the center of a small ball, density convex along
    the normal and concave along the disk."""
    space = cf.space_quadratic_ball(a=4.5, radius=0.45)
    imm = PlanarDisk(center=(0, 0, 0), e1=(0, 1, 0), e2=(0, 0, 1),
                     radius=0.45)
    mesh = mesh_from_immersion(imm, resolution, space=space)
    data = extrinsic_geometry(space, imm, mesh)
    return space, imm, mesh, data


class TestGaussRearrangement:
    @pytest.mark.parametrize("kind,density,params", [
        ("hemisphere", "constant", {}),
        ("hemisphere", "gaussian", {}),
        ("hemisphere", "radial-log", {"k": -2.0}),
        ("slice", "linear", {"a": (1.0, 0.0, 0.0)}),
        ("slice", "gaussian", {}),
        ("sphere", "constant", {}),
        ("disk", "radial-log", {"k": -2.5}),
    ])
    def test_pointwise_identity(self, kind, density, params):
        space, imm, mesh, data = cf.cached_geometry(kind, 16, density,
                                                    **params)
        assert gauss_rearrangement_residual(space, data) < 1e-9


class TestBoundaryIdentity:
    def test_hemisphere_all_terms_vanish(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        assert boundary_identity_residual(space, data) < 1e-10

    def test_disk_in_ball(self):
        """II(N,N) = 1 = 2 H_bd - h with H_bd = 1 and h = 1."""
        space, imm, mesh, data = cf.cached_geometry("disk", 16)
        assert boundary_identity_residual(space, data) < 1e-10

    def test_requires_boundary(self):
        space, imm, mesh, data = cf.cached_geometry("sphere", 12)
        with pytest.raises(InputError):
            boundary_identity_residual(space, data)


class TestStabilityTopologyChain:
    def test_flat_slice_realizes_equality(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        chain = stability_topology_chain(mesh, data)
        assert chain.asserted and chain.chain_holds
        assert chain.chi == 0
        assert chain.I_f_u == pytest.approx(0.0, abs=1e-10)
        assert chain.bound1 == pytest.approx(0.0, abs=1e-10)
        assert chain.bound2 == 0.0

    def test_hemisphere_borderline_density(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24,
                                                    "radial-log", k=-2.0)
        chain = stability_topology_chain(mesh, data)
        assert chain.asserted and chain.chain_holds
        assert chain.chi == 1
        assert chain.I_f_u == pytest.approx(0.0, abs=1e-6)
        assert chain.bound1 == pytest.approx(0.0, abs=1e-3)
        assert chain.bound2 == pytest.approx(TAU, rel=1e-12)

    def test_sphere_in_ball_complement(self):
        from wstab.ambient import make_space
        from wstab.surface import RoundSphere
        space = make_space(dim=3, density=("radial-log", {"k": -2.0}),
                           boundary=("ball-complement", {"radius": 1.0}))
        imm = RoundSphere(radius=2.0)
        mesh = mesh_from_immersion(imm, 24, space=space)
        data = extrinsic_geometry(space, imm, mesh)
        chain = stability_topology_chain(mesh, data)
        assert chain.asserted and chain.chain_holds
        assert chain.chi == 2
        assert chain.I_f_u == pytest.approx(0.0, abs=1e-6)
        assert chain.bound2 == pytest.approx(2.0 * TAU, rel=1e-12)
        asm = assemble(space, mesh)
        spec = robin_eigenproblem(asm)
        strong = strong_stability_verdict(spec)
        assert topology_verdict(chain, strong) == SPHERE_OR_TORUS

    def test_requires_stationary_surface(self):
        space = cf.space_ball(radius=1.0, center=(2.0, 0.0, 0.0))
        rho = math.sqrt(1.0 - 0.25)
        imm = PlanarDisk(center=(2, 0, 0.5), e1=(1, 0, 0), e2=(0, 1, 0),
                         radius=rho)
        mesh = mesh_from_immersion(imm, 12, space=space)
        data = extrinsic_geometry(space, imm, mesh)
        with pytest.raises(PreconditionError):
            stability_topology_chain(mesh, data)


class TestTopologyVerdict:
    def test_flat_slice_is_disk_or_cylinder(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        chain = stability_topology_chain(mesh, data)
        spec = robin_eigenproblem(assemble(space, mesh))
        strong = strong_stability_verdict(spec)
        assert topology_verdict(chain, strong) == DISK_OR_CYLINDER

    def test_hemisphere_at_threshold(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-2.0)
        chain = stability_topology_chain(mesh, data)
        spec = robin_eigenproblem(assemble(space, mesh))
        strong = strong_stability_verdict(spec)
        assert topology_verdict(chain, strong) == DISK_OR_CYLINDER

    def test_unstable_hemisphere_is_not_applicable(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-1.5)
        chain = stability_topology_chain(mesh, data)
        spec = robin_eigenproblem(assemble(space, mesh))
        assert spec.lambda_min < -0.4
        strong = strong_stability_verdict(spec)
        assert topology_verdict(chain, strong) == NOT_APPLICABLE


class TestAreaBounds:
    def test_degenerate_threshold_rejected(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 12)
        with pytest.raises(InputError):
            area_bound_check(mesh, data, 0.0)

    def test_negative_threshold_needs_negative_chi(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        report = area_bound_check(mesh, data, -1.0)
        assert report.hypothesis.holds
        assert not report.applicable

    def test_failed_hypothesis_is_reported(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        report = area_bound_check(mesh, data, 1.0)
        assert not report.hypothesis.holds
        assert not report.applicable

    def test_stable_disk_satisfies_positive_bound(self):
        space, imm, mesh, data = quadratic_disk(24)
        spec = robin_eigenproblem(assemble(space, mesh))
        assert spec.lambda_min > 1.0
        report = area_bound_check(mesh, data, 0.5)
        assert report.applicable and report.passed
        assert report.hypothesis.sampled_min > 1.0
        assert report.chi == 1
        assert report.slack > 0.0
        assert report.bound == pytest.approx(8.0 * math.pi, rel=1e-12)


class TestRigidity:
    def test_flat_slice_is_fully_rigid(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        flags = rigidity_flags(data)
        assert flags.all_true

    def test_hemisphere_is_not_rigid(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        flags = rigidity_flags(data)
        assert not flags.totally_geodesic
        assert not flags.gauss_flat
        assert flags.density_const_on_surface
        assert not flags.all_true

    def test_equality_case_pairs_with_chain_equality(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        chain = stability_topology_chain(mesh, data)
        flags = rigidity_flags(data)
        assert flags.all_true
        assert abs(chain.I_f_u - chain.bound1) < chain.tol
        assert abs(chain.bound1 - chain.bound2) < chain.tol


class TestFoliation:
    def test_flat_foliation_is_monotone(self):
        space, imm, mesh, _ = cf.cached_geometry("slice", 12, "linear",
                                                 a=(1.0, 0.0, 0.0))
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        report = foliation_monotonicity_check(family)
        assert report.max_rel_residual < 1e-6
        assert report.monotone_asserted and report.monotone_holds

    def test_gaussian_identity_with_nonzero_potential(self):
        space, imm, mesh, _ = cf.cached_geometry("slice", 12, "gaussian")
        family = DeformedFamily(space, imm, mesh, TranslationFlow((1, 0, 0)))
        report = foliation_monotonicity_check(family)
        assert report.max_rel_residual < 1e-4
        assert report.hyp_ricci.holds
        assert report.monotone_asserted and report.monotone_holds

    @pytest.mark.parametrize("surface", ["cone-cap", "log-radial-hemisphere"])
    def test_scaled_caps_satisfy_the_identity(self, surface):
        """Curved slices: the caps of radius 1 + s in a convex cone under
        psi = |p|^2 / 2, and in a half-space under psi = -2.5 log|p|."""
        if surface == "cone-cap":
            space, imm, mesh = cf.cone_cap_mesh(24)
        else:
            space, imm, mesh, _ = cf.cached_geometry("hemisphere", 24,
                                                     "radial-log", k=-2.5)
        family = DeformedFamily(space, imm, mesh, ScalingFlow())
        report = foliation_monotonicity_check(family)
        assert report.max_rel_residual <= 1e-5

    def test_negative_speed_is_rejected(self):
        space, imm, mesh, _ = cf.cached_geometry("slice", 12)
        family = DeformedFamily(space, imm, mesh, TranslationFlow((-1, 0, 0)))
        with pytest.raises(PreconditionError):
            foliation_monotonicity_check(family)
