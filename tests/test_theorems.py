"""Tests for curvature identities, topology chains, area bounds, rigidity."""
import math

import numpy as np
import pytest

import conftest as cf
from wstab.ambient import (BOUNDARY_REGISTRY, AmbientSpace, Density,
                           point_columns)
from wstab.errors import InputError, PreconditionError
from wstab.functionals import DeformedFamily, ScalingFlow, TranslationFlow
from wstab.stability import (assemble, robin_eigenproblem,
                             strong_stability_verdict)
from wstab.surface import (PlanarDisk, RectPatch, extrinsic_geometry,
                           surface_chart)
from wstab.theorems import (CHAIN_TOL, DISK_OR_CYLINDER, NOT_APPLICABLE,
                            SPHERE_OR_TORUS, area_bound_check, boundary_identity_residual,
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
    data = extrinsic_geometry(space, surface_chart(imm, resolution))
    return space, imm, data.mesh, data


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
        assert gauss_rearrangement_residual(data) < 1e-9


class TestBoundaryIdentity:
    def test_hemisphere_all_terms_vanish(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        assert boundary_identity_residual(data) < 1e-10

    def test_disk_in_ball(self):
        """II(N,N) = 1 = 2 H_bd - h with H_bd = 1 and h = 1."""
        space, imm, mesh, data = cf.cached_geometry("disk", 16)
        assert boundary_identity_residual(data) < 1e-10

    def test_requires_boundary(self):
        space, imm, mesh, data = cf.cached_geometry("sphere", 12)
        with pytest.raises(InputError):
            boundary_identity_residual(data)


class TestStabilityTopologyChain:
    def test_flat_slice_realizes_equality(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        chain = stability_topology_chain(data)
        assert chain["asserted"] and chain["chain_holds"]
        assert chain["chi"] == 0
        assert chain["I_f_u"] == pytest.approx(0.0, abs=1e-10)
        assert chain["bound1"] == pytest.approx(0.0, abs=1e-10)
        assert chain["bound2"] == 0.0

    def test_hemisphere_borderline_density(self):
        """The k = -2 half-sphere is the chain's equality case: bound1 is 0
        to the quadrature error of A_f, within 1.2e-7 (measured: 2.97e-8;
        7.27e-5 under Gauss3 on the rim triangles)."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24,
                                                    "radial-log", k=-2.0)
        chain = stability_topology_chain(data)
        assert chain["asserted"] and chain["chain_holds"]
        assert chain["chi"] == 1
        assert chain["I_f_u"] == pytest.approx(0.0, abs=1e-6)
        assert chain["bound1"] == pytest.approx(0.0, abs=1.2e-7)
        assert chain["bound2"] == pytest.approx(TAU, rel=1e-12)

    def test_borderline_density_at_resolution_16(self):
        """The equality case at resolution 16, where Gauss3 on the rim
        triangles gave bound1 = 1.67e-4, above the chain's floor of 1e-4:
        the chain held there only because that error was positive.  Now
        |bound1| is within 1e-6 (measured: 2.2e-7), far below the floor,
        so the chain holds whichever sign the error takes."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-2.0)
        chain = stability_topology_chain(data)
        assert chain["asserted"] and chain["chain_holds"]
        assert abs(chain["bound1"]) <= 1e-6

    def test_sphere_in_ball_complement(self):
        from conftest import make_space
        from wstab.surface import RoundSphere
        space = make_space(density=("radial-log", {"k": -2.0}),
                           boundary=("ball-complement", {"radius": 1.0}))
        imm = RoundSphere(radius=2.0)
        data = extrinsic_geometry(space, surface_chart(imm, 24))
        chain = stability_topology_chain(data)
        assert chain["asserted"] and chain["chain_holds"]
        assert chain["chi"] == 2
        assert chain["I_f_u"] == pytest.approx(0.0, abs=1e-6)
        assert chain["bound2"] == pytest.approx(2.0 * TAU, rel=1e-12)
        asm = assemble(data)
        spec = robin_eigenproblem(asm)
        strong = strong_stability_verdict(spec)
        assert (topology_verdict(chain, strong, data.has_boundary)
                == SPHERE_OR_TORUS)

    def test_requires_stationary_surface(self):
        space = cf.space_ball(radius=1.0, center=(2.0, 0.0, 0.0))
        rho = math.sqrt(1.0 - 0.25)
        imm = PlanarDisk(center=(2, 0, 0.5), e1=(1, 0, 0), e2=(0, 1, 0),
                         radius=rho)
        data = extrinsic_geometry(space, surface_chart(imm, 12))
        with pytest.raises(PreconditionError):
            stability_topology_chain(data)


class TestTopologyVerdict:
    def test_flat_slice_is_disk_or_cylinder(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        chain = stability_topology_chain(data)
        spec = robin_eigenproblem(assemble(data))
        strong = strong_stability_verdict(spec)
        assert (topology_verdict(chain, strong, data.has_boundary)
                == DISK_OR_CYLINDER)

    def test_hemisphere_at_threshold(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-2.0)
        chain = stability_topology_chain(data)
        spec = robin_eigenproblem(assemble(data))
        strong = strong_stability_verdict(spec)
        assert (topology_verdict(chain, strong, data.has_boundary)
                == DISK_OR_CYLINDER)

    def test_unstable_hemisphere_is_not_applicable(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-1.5)
        chain = stability_topology_chain(data)
        spec = robin_eigenproblem(assemble(data))
        assert spec.lambda_min < -0.4
        strong = strong_stability_verdict(spec)
        assert (topology_verdict(chain, strong, data.has_boundary)
                == NOT_APPLICABLE)


class TestAreaBounds:
    def test_degenerate_threshold_rejected(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 12)
        with pytest.raises(InputError):
            area_bound_check(data, 0.0, True)

    def test_negative_threshold_needs_negative_chi(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        report = area_bound_check(data, -1.0, True)
        assert report["hypothesis"]["holds"]
        assert not report["applicable"]

    def test_failed_hypothesis_is_reported(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        report = area_bound_check(data, 1.0, True)
        assert not report["hypothesis"]["holds"]
        assert not report["applicable"]

    def test_unstable_surface_is_not_applicable(self):
        """The Gaussian unit sphere meets S_f >= 20 f, but lambda_min = -4:
        the bounds are for stable surfaces."""
        space, imm, mesh, data = cf.cached_geometry("sphere", 16, "gaussian")
        strong = strong_stability_verdict(robin_eigenproblem(assemble(data)))
        assert not strong
        report = area_bound_check(data, 20.0, strong)
        assert report["hypothesis"]["holds"]
        assert not report["applicable"] and not report["passed"]
        assert report["bound"] is None and report["slack"] is None

    def test_positive_threshold_needs_a_disk(self):
        """A stable closed sphere meeting S_f >= S0 f is outside the disk
        bound, not a failure of it."""
        space, imm, mesh, data = cf.cached_geometry("sphere", 12, "gaussian")
        report = area_bound_check(data, 20.0, True)
        assert report["hypothesis"]["holds"] and report["chi"] == 2
        assert not report["applicable"]

    def test_stable_disk_satisfies_positive_bound(self):
        space, imm, mesh, data = quadratic_disk(24)
        spec = robin_eigenproblem(assemble(data))
        assert spec.lambda_min > 1.0
        report = area_bound_check(data, 0.5, strong_stability_verdict(spec))
        assert report["applicable"] and report["passed"]
        assert report["hypothesis"]["sampled_min"] > 1.0
        assert report["chi"] == 1
        assert report["slack"] > 0.0
        assert report["bound"] == pytest.approx(8.0 * math.pi, rel=1e-12)


class TestRigidity:
    def test_flat_slice_is_fully_rigid(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        flags = rigidity_flags(data)
        assert flags["all_true"]

    def test_hemisphere_is_not_rigid(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        flags = rigidity_flags(data)
        assert not flags["totally_geodesic"]
        assert not flags["gauss_flat"]
        assert flags["density_const_on_surface"]
        assert not flags["all_true"]

    def test_equality_case_pairs_with_chain_equality(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        chain = stability_topology_chain(data)
        flags = rigidity_flags(data)
        assert flags["all_true"]
        # the chain's slack on its inequalities, at chi = 0
        tol = max(CHAIN_TOL * (1.0 + abs(chain["bound2"])), 1e-4)
        assert abs(chain["I_f_u"] - chain["bound1"]) < tol
        assert abs(chain["bound1"] - chain["bound2"]) < tol


class TestFoliation:
    def test_flat_foliation_is_monotone(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 12, "linear",
                                                    a=(1.0, 0.0, 0.0))
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
        report = foliation_monotonicity_check(family)
        assert report["max_rel_residual"] < 1e-6
        assert report["monotone_asserted"] and report["monotone_holds"]

    def test_gaussian_identity_with_nonzero_potential(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 12, "gaussian")
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
        report = foliation_monotonicity_check(family)
        assert report["max_rel_residual"] < 1e-4
        assert report["hypothesis_ricci"]["holds"]
        assert report["monotone_asserted"] and report["monotone_holds"]

    @pytest.mark.parametrize("surface", ["cone-cap", "log-radial-hemisphere"])
    def test_scaled_caps_satisfy_the_identity(self, surface):
        """Curved slices: the caps of radius 1 + s in a convex cone under
        psi = |p|^2 / 2, and in a half-space under psi = -2.5 log|p|."""
        if surface == "cone-cap":
            space, imm, mesh, data = cf.cached_geometry(
                "cone", 24, "radial-smooth", coeffs=(0.0, 0.0, 0.5))
        else:
            space, imm, mesh, data = cf.cached_geometry("hemisphere", 24,
                                                        "radial-log", k=-2.5)
        family = DeformedFamily(data, ScalingFlow())
        report = foliation_monotonicity_check(family)
        assert report["max_rel_residual"] <= 1e-5

    def test_sides_of_rounding_alone_read_as_rounding(self):
        """Planes containing the z axis, at angle 0.3 to the xz plane,
        between the slab planes |z| <= 1 under psi = z^2: grad psi is
        tangent, so H_f is <grad psi, N> = 2z N_z with N_z rounding, and
        the translated leaves have the same H_f, so lhs is 0, while rhs
        is the Ricci term -2 N_z^2 of 1e-32.  Relative to the larger side
        alone the residual read 1."""
        def hess(P):
            H = point_columns(len(P), 3, 3)
            H[...] = 0.0
            H[:, 2, 2] = 2.0
            return H

        def grad(P):
            g = np.zeros_like(P)
            g[:, 2] = 2.0 * P[:, 2]
            return g

        space = AmbientSpace(Density(lambda P: P[:, 2] ** 2, grad, hess),
                             BOUNDARY_REGISTRY["slab"](axis=2, halfwidth=1.0))
        c, s = math.cos(0.3), math.sin(0.3)
        imm = RectPatch(origin=(0, 0, -1), du=(c, s, 0),
                        dv=(0.5 * c, 0.5 * s, 1), u_range=(0, 1),
                        v_range=(0, 2), periodic_u=True)
        data = extrinsic_geometry(space, surface_chart(imm, 8))
        family = DeformedFamily(data, TranslationFlow((s, -c, 0.0)))
        report = foliation_monotonicity_check(family)
        assert report["lhs"] == [0.0, 0.0, 0.0]
        assert all(0.0 < -r < 1e-30 for r in report["rhs"])
        assert report["max_rel_residual"] <= 1e-6
        assert report["monotone_asserted"] and report["monotone_holds"]

    def test_negative_speed_is_rejected(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 12)
        family = DeformedFamily(data, TranslationFlow((-1, 0, 0)))
        with pytest.raises(PreconditionError):
            foliation_monotonicity_check(family)
