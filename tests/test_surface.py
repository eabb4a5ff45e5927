"""Tests for immersions, meshing, and pointwise extrinsic geometry."""
import dataclasses
import math

import numpy as np
import pytest

import conftest as cf
from wstab.ambient import bakry_emery_ricci, make_space, perelman_scalar
from wstab.errors import ImmersionError, InputError, MeshingError
from wstab.surface import (MAX_RESOLUTION, PlanarDisk, RectPatch, RoundSphere,
                           SphericalCap, export_off, extrinsic_geometry, import_off,
                           mesh_from_immersion, stationarity_verdict)

TAU = 2.0 * math.pi


class TestHemisphereGeometry:
    def test_pointwise_curvatures(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        assert np.allclose(data.H, -1.0, atol=1e-10)
        assert np.allclose(data.sigma2, 2.0, atol=1e-10)
        assert np.allclose(data.K, 1.0, atol=1e-10)
        assert np.allclose(data.H_f, -2.0, atol=1e-10)

    def test_orthogonal_contact_and_geodesic_boundary(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        assert float(np.max(np.abs(data.contact))) < 1e-12
        assert float(np.max(np.abs(data.h_geod))) < 1e-10
        assert float(np.max(np.abs(data.II_NN))) < 1e-12

    @pytest.mark.parametrize("k", [-3.0, -2.5, -2.0, -1.0])
    def test_f_mean_curvature_log_radial(self, k):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=k)
        assert np.allclose(data.H_f, -(2.0 + k), atol=1e-10)

    def test_orientation_sign_flips_normal(self):
        space = cf.space_half_space()
        imm = SphericalCap(orientation_sign=-1)
        mesh = mesh_from_immersion(imm, 12, space=space)
        data = extrinsic_geometry(space, imm, mesh)
        assert np.allclose(data.H, 1.0, atol=1e-10)

    @pytest.mark.parametrize("resolution,tol", [(16, 2e-3), (32, 2e-4),
                                                (64, 1e-4)])
    def test_weighted_area_convergence(self, resolution, tol):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", resolution)
        area = float(np.sum(data.w_daf))
        assert abs(area - TAU) / TAU < tol


class TestWeightedCurvatures:
    @pytest.mark.parametrize("kind,density,params", [
        ("hemisphere", "gaussian", {}),
        ("hemisphere", "radial-log", {"k": -2.5}),
        ("sphere", "constant", {}),
    ])
    def test_geometry_uses_the_ambient_formulas(self, kind, density, params):
        """Ric_f(N, N) and S_f at the quadrature points are the ambient
        operators' values, bit for bit."""
        space, _, _, data = cf.cached_geometry(kind, 12, density, **params)
        assert np.array_equal(data.ricf_NN,
                              bakry_emery_ricci(space, data.pos, data.N))
        assert np.array_equal(data.S_f, perelman_scalar(space, data.pos))


class TestProductSlice:
    def test_totally_geodesic_flat_slice(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        assert np.allclose(data.sigma2, 0.0, atol=1e-12)
        assert np.allclose(data.K, 0.0, atol=1e-12)
        assert np.allclose(data.H_f, -1.0, atol=1e-12)
        assert np.allclose(data.S_f, -1.0, atol=1e-12)
        assert np.allclose(data.II_NN, 0.0, atol=1e-12)

    def test_seam_triangles_are_well_shaped(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16)
        area = float(np.sum(data.w_daf))
        assert area == pytest.approx(2.0 * TAU, rel=1e-12)


class TestTopology:
    def test_disk(self):
        _, _, mesh, _ = cf.cached_geometry("hemisphere", 12)
        assert mesh.chi == 1
        assert mesh.n_loops == 1
        assert mesh.genus == 0

    def test_cylinder(self):
        _, _, mesh, _ = cf.cached_geometry("slice", 12)
        assert mesh.chi == 0
        assert mesh.n_loops == 2

    def test_torus(self):
        from wstab.surface import RectPatch
        space = cf.space_free()
        imm = RectPatch(origin=(0, 0, 0), du=(0, 1, 0), dv=(0, 0, 1),
                        u_range=(0, TAU), v_range=(0, TAU),
                        periodic_u=True, periodic_v=True)
        mesh = mesh_from_immersion(imm, 12, space=space)
        assert mesh.chi == 0
        assert mesh.n_loops == 0
        assert mesh.genus == 1

    def test_sphere(self):
        _, _, mesh, _ = cf.cached_geometry("sphere", 12)
        assert mesh.chi == 2
        assert mesh.n_loops == 0

    def test_edges_are_counted_once_per_mesh(self, monkeypatch):
        _, _, mesh, _ = cf.cached_geometry("hemisphere", 8)
        mesh = dataclasses.replace(mesh)      # a copy without cached counts
        axes = []
        unique = np.unique

        def counting(*args, **kwargs):
            axes.append(kwargs.get("axis"))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        assert mesh.chi == mesh.chi == 1
        assert axes == [0]


class TestGaussBonnet:
    @pytest.mark.parametrize("kind,chi", [("hemisphere", 1), ("sphere", 2),
                                          ("slice", 0)])
    def test_total_curvature(self, kind, chi):
        space, imm, mesh, data = cf.cached_geometry(kind, 24)
        total = float(np.sum(data.K * data.w_da))
        if data.has_boundary:
            total += float(np.sum(data.h_geod * data.w_dl))
        assert total == pytest.approx(TAU * chi, abs=2e-3)

    def test_flat_disk_boundary_curvature(self):
        space = cf.space_ball()
        imm = PlanarDisk(radius=1.0)
        mesh = mesh_from_immersion(imm, 16, space=space)
        data = extrinsic_geometry(space, imm, mesh)
        assert np.allclose(data.h_geod, 1.0, atol=1e-6)
        assert float(np.sum(data.h_geod * data.w_dl)) == pytest.approx(
            TAU, rel=1e-8)


class TestStationarity:
    def test_gaussian_hemisphere_is_strongly_stationary(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "gaussian")
        v = stationarity_verdict(data)
        assert v.strong
        assert v.H_f_mean == pytest.approx(0.0, abs=1e-10)

    def test_k_family_is_volume_constrained_only(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-2.5)
        v = stationarity_verdict(data)
        assert v.volume_constrained and not v.strong
        assert v.H_f_mean == pytest.approx(0.5, abs=1e-10)

    def test_chord_disk_has_nonzero_contact(self):
        space = cf.space_ball(radius=1.0, center=(2.0, 0.0, 0.0))
        rho = math.sqrt(1.0 - 0.25)
        imm = PlanarDisk(center=(2, 0, 0.5), e1=(1, 0, 0), e2=(0, 1, 0),
                         radius=rho)
        mesh = mesh_from_immersion(imm, 12, space=space)
        data = extrinsic_geometry(space, imm, mesh)
        v = stationarity_verdict(data)
        assert not v.volume_constrained
        assert v.max_contact == pytest.approx(0.5, abs=1e-10)


class TestMeshing:
    def test_resolution_floor(self):
        with pytest.raises(InputError):
            mesh_from_immersion(SphericalCap(), 3, space=cf.space_half_space())

    @pytest.mark.parametrize("imm", [SphericalCap(), cf.slice_immersion(),
                                     RoundSphere()],
                             ids=["disk", "rect", "sphere"])
    def test_resolution_cap(self, imm):
        """Rejected before any mesh list is built."""
        with pytest.raises(InputError, match=str(MAX_RESOLUTION)):
            mesh_from_immersion(imm, 100000000)

    def test_boundary_vertices_lie_on_ambient_boundary(self):
        space, imm, mesh, _ = cf.cached_geometry("hemisphere", 16)
        ids = np.unique(mesh.boundary_edges[:, :2])
        phi = space.boundary.phi(mesh.positions[ids])
        assert float(np.max(np.abs(phi))) < 1e-10

    def test_off_roundtrip(self, tmp_path):
        _, _, mesh, _ = cf.cached_geometry("hemisphere", 12)
        path = str(tmp_path / "mesh.off")
        export_off(mesh, path)
        pos, tris, be, bt = import_off(path)
        assert np.allclose(pos, mesh.positions)
        assert np.array_equal(tris, mesh.triangles)
        assert np.array_equal(be, mesh.boundary_edges)
        assert np.allclose(bt, mesh.boundary_t)

    def test_sphere_normals_point_outward(self):
        space, imm, mesh, data = cf.cached_geometry("sphere", 12)
        assert np.all(np.sum(data.N * data.pos, axis=1) > 0)


class TestOrientationSign:
    @pytest.mark.parametrize("cls", [SphericalCap, PlanarDisk, RectPatch,
                                     RoundSphere])
    @pytest.mark.parametrize("sign", [0, 1.5, 1e30, True, float("nan"),
                                      "1"])
    def test_only_plus_or_minus_one(self, cls, sign):
        with pytest.raises(InputError, match="orientation_sign"):
            cls(orientation_sign=sign)


class TestNanGuards:
    """Every comparison with NaN is False: the guards test their pass
    condition, so a NaN trips them."""

    def test_disk_frame(self):
        with pytest.raises(InputError, match="orthonormal"):
            PlanarDisk(e1=(float("nan"), 0.0, 0.0))

    def test_boundary_projection_residual(self):
        space = make_space(boundary=("half-space",
                                     {"offset": float("nan")}))
        with pytest.raises(MeshingError, match="projection residual"):
            mesh_from_immersion(SphericalCap(), 8, space=space)

    def test_min_angle(self):
        with pytest.raises(MeshingError, match="min angle"):
            mesh_from_immersion(SphericalCap(radius=float("nan")), 8)

    def test_metric_rank(self):
        _, _, mesh, _ = cf.cached_geometry("hemisphere", 8)
        with pytest.raises(ImmersionError, match="rank deficient"):
            extrinsic_geometry(cf.space_free(),
                               SphericalCap(radius=float("nan")), mesh)
