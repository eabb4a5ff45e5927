"""Tests for immersions, meshing, and pointwise extrinsic geometry."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

import conftest as cf
from wstab.ambient import bakry_emery_ricci, make_space, perelman_scalar
from wstab.errors import ImmersionError, InputError, MeshingError
from wstab.scenarios import (build_immersion, build_space, builtin_names,
                             builtin_scenario)
from wstab.surface import (MAX_RESOLUTION, PlanarDisk, RectPatch, RoundSphere,
                           SphericalCap, export_off, extrinsic_geometry, import_off,
                           mesh_from_immersion, stationarity_verdict,
                           surface_chart)

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
        data = extrinsic_geometry(space, surface_chart(imm, 12, space))
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
        sort = np.sort

        def counting(*args, **kwargs):
            axes.append(kwargs.get("axis", -1))
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting)
        assert mesh.chi == mesh.chi == 1
        assert axes == [-1]


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
        data = extrinsic_geometry(space, surface_chart(imm, 16, space))
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
        data = extrinsic_geometry(space, surface_chart(imm, 12, space))
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
        chart = cf.cached_chart("hemisphere", 8)
        with pytest.raises(ImmersionError, match="rank deficient"):
            dataclasses.replace(chart, space=cf.space_half_space(),
                                J=np.zeros_like(chart.J))


# SHA-256 digests of every builtin's mesh, recorded before the meshers were
# rewritten with array operations: (integer arrays with chi, boundary loops
# and genus; float arrays; export_off text with its .bnd sidecar)
INT_ARRAYS = ("triangles", "boundary_edges", "curved_tri", "curved_loc",
              "curved_arc")
FLOAT_ARRAYS = ("params", "positions", "tri_params", "boundary_t", "curved_t")
PIN_RESOLUTIONS = (4, 5, 12, 24, 33)
MESH_DIGESTS = {
    ("flat-slab-slice", 4): (
        "3c2a2ca8a294ac86fb853d43349fc79de2741f5682bf3be63e0b3e665a3ca159",
        "74742d25a808b0fb08258ac54d07c8010c0a96ec98f9bf2addaf0431f4d465e5",
        "34f1984c63f19d8a79b12f7d2e907f91ba66a3914b08a3b3190056dcc8945ee8",
    ),
    ("flat-slab-slice", 5): (
        "815cd0dbb3c42932dba0606c5ab0995330e98fcf4287a7b1f38a3caf4fee934d",
        "9d24d1ef1414cb9b455d5ee252da3d728b7f0122fd08e845919acfc22b7e82ba",
        "fddf3c8c1b119d0f4cd5bc7c3e57243281e8ac9b0fc0e1df7f6a6879973eabf0",
    ),
    ("flat-slab-slice", 12): (
        "38c584f845f09a776f54cb1b60e9dc69b6ba49599d6a33168578821fbb941b6d",
        "4f9f6766bc762c5bb345944f25b1efcfa886c3cd3bd6c5f8b38c1d7d53132f5c",
        "fb42ea27fd6db9980cc28aef3f918d7cc5de9d46a52b57b5953905cc82afff32",
    ),
    ("flat-slab-slice", 24): (
        "3d79085f01d4798c1c27b2a91d66041f4af7319528de4dbf085283797a202f10",
        "033f312b1544a3544626f113a70be729e594e8ce4700081bca691a74ef170e1e",
        "a7912baaabed063e0a00123fd47b0f5df36ad79a3f02a4507f4cc9a0fb630e55",
    ),
    ("flat-slab-slice", 33): (
        "32e31172670ec804b3ff3259ae323327aba840663bb0a1fb6c3c166fbc8db08b",
        "fb50e76107501593f9d6cccda3656bb9145fbd85c094178e18f662f21d8edaf7",
        "7c48f9b9dbfaf8890e8f462df42a136b0e1de30d2a26f311447b709f5eb99b70",
    ),
    ("gauss-identity-suite", 4): (
        "9270a1099c866c9aa982845399c8a01d9ee9ef84370810dee4e75567c32cb5ce",
        "194e18d619cdb542877039bea455d1b54851b78d5444d90064889e5fa462bb5d",
        "afaa73e712d7db0c680025d6f274cccd8a1fdf1f3283e7caa5bedaac62c2020b",
    ),
    ("gauss-identity-suite", 5): (
        "0558ace9b2354e69a1f14737bbd5b9b3525feae4ed9bf09dd18b44e896781a12",
        "95ca4d17b0a45432cb99777ba5a47b6931baecaca484191e51a1ff1529742e04",
        "319223914e2ace25ee008b1e33d6e0acb82117fe7c98d2e0dcb51dcb06895ac7",
    ),
    ("gauss-identity-suite", 12): (
        "6f0094fae494fa8f0335c56d121f4ff26b460e5e17947906df6128e50da96f19",
        "b3007b4ded33ee1e9a60ba2c4fb7df32fafec8b61ac7cafb163b79d58382f58f",
        "21b1909afdf6e52f67f4981639aea3a1893e4aa812ad9a4c1fcf4c43c6ef9a43",
    ),
    ("gauss-identity-suite", 24): (
        "b99de4d55206f29e490b54ab78b92cde38aadd7a7545ef42d52b0248cf5a2120",
        "c4b1785d350b8030bc672f5e954ac08092354b910e86e4b68457d405294f5e85",
        "8ad406e94a1702bfb0ddb80327fa08177f55567b44a22ea4645ab264d38da5b2",
    ),
    ("gauss-identity-suite", 33): (
        "ca62ac0d8cd41c034d8f1c0c1095af5c42ca9fd24bcecf1e8c2705f88bca5532",
        "f8e5c5cc0f1039aa2d6833f7d080c6139f34cac0c96f8b626b8d1e3a511ec9e9",
        "e8e7af76ef99781648bcc5bdcc65ad6b325f46c7f3f4d18e792a57d43df9d457",
    ),
    ("paper-Mr-k-minus-2", 4): (
        "537adf7842968a69f9fbaaab11bcaaf6a70e797a5b017d2c6f158e6b0d4a442b",
        "f98fec2aeaf594db948a504248fbeb72ea19cfa6b6fe9bb1517769dd88840cb9",
        "14d7ad1574383f944b261ee1466439a367e5127afc960cae1952601b25a39ac7",
    ),
    ("paper-Mr-k-minus-2", 5): (
        "537adf7842968a69f9fbaaab11bcaaf6a70e797a5b017d2c6f158e6b0d4a442b",
        "f98fec2aeaf594db948a504248fbeb72ea19cfa6b6fe9bb1517769dd88840cb9",
        "14d7ad1574383f944b261ee1466439a367e5127afc960cae1952601b25a39ac7",
    ),
    ("paper-Mr-k-minus-2", 12): (
        "abbad73194f2a92ebed06d09d672d3c03d74d4c693ae6cd5c8d4850f9df42bad",
        "443d47dd23e4b7b19e8a0f88069190edb655925bd06b82230ae18566a582b412",
        "07d306cf153534aeeb8864448b88c26d782a56d5d58f8e3bf930cc1336f50158",
    ),
    ("paper-Mr-k-minus-2", 24): (
        "4b2354dae9ec60e4a2ee17c191fdab2cea5f55a9a37ac5f1777b6cee4de7c407",
        "2cb6bdd24f915ae722ce8c799249e6ca0606754fa30558826c21fe41eccac314",
        "45a5d91c195a3a4b49be9bb2798f1042709be0a2fbbaf7bbc9b35a6e50d395bd",
    ),
    ("paper-Mr-k-minus-2", 33): (
        "54d3ee945fc306031913a6d60e3a0d104df57825707d23d694775e580f2136a4",
        "fa9a3f5e9a820c860894d2a49c0d1dee521695294a73fcfe2a495d158da637ac",
        "8849a9ffcd2653cabd5f519a1e4c2eaeabe1c95e1485cf337a9e1cc79434a4f2",
    ),
    ("paper-ex-3.8-convex-cone", 4): (
        "9270a1099c866c9aa982845399c8a01d9ee9ef84370810dee4e75567c32cb5ce",
        "3bf2692c2c38c8639a8c1fb7c199ce9de13787d9f1db4456378b46fb8b34a702",
        "3217813e8467d96e26f271a18c5e9229533a0a1413256ebd8a3be7a7cd5ddb16",
    ),
    ("paper-ex-3.8-convex-cone", 5): (
        "0558ace9b2354e69a1f14737bbd5b9b3525feae4ed9bf09dd18b44e896781a12",
        "7b12610fd5525138f720f41240d6f9f9dafb8707d9d13bc8375ee0cf4091a3d6",
        "a98c11d428eef0e835b8694619c4bc79f255b205e7c2c77db3a359ae92d76365",
    ),
    ("paper-ex-3.8-convex-cone", 12): (
        "6f0094fae494fa8f0335c56d121f4ff26b460e5e17947906df6128e50da96f19",
        "acaebd6d1283c2a6743332dd6d52aa5ad75d85df0f7bcc327b2305829e40130e",
        "f502cb75a03fd1e92ecc13aaa622db3bb1abeff50bef8f61a5edbabeadda3dfa",
    ),
    ("paper-ex-3.8-convex-cone", 24): (
        "b99de4d55206f29e490b54ab78b92cde38aadd7a7545ef42d52b0248cf5a2120",
        "92dd07274a1977254b34ddbf1dab78f5e75c3951c55a87b8d828288b97683ab2",
        "f69b1ba0ed78a534da0f3f1838682bbae58e74d6ef023bd5dcebe27fec96d57a",
    ),
    ("paper-ex-3.8-convex-cone", 33): (
        "ca62ac0d8cd41c034d8f1c0c1095af5c42ca9fd24bcecf1e8c2705f88bca5532",
        "93c3e57768ed872729fb4b59995e837097720c12d31eb9c4ad64c1346cb4f920",
        "52867c9b074d9e6114678e9f2480ae297c5c1d447f3e089c93e4028befacd9c5",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 4): (
        "9270a1099c866c9aa982845399c8a01d9ee9ef84370810dee4e75567c32cb5ce",
        "194e18d619cdb542877039bea455d1b54851b78d5444d90064889e5fa462bb5d",
        "afaa73e712d7db0c680025d6f274cccd8a1fdf1f3283e7caa5bedaac62c2020b",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 5): (
        "0558ace9b2354e69a1f14737bbd5b9b3525feae4ed9bf09dd18b44e896781a12",
        "95ca4d17b0a45432cb99777ba5a47b6931baecaca484191e51a1ff1529742e04",
        "319223914e2ace25ee008b1e33d6e0acb82117fe7c98d2e0dcb51dcb06895ac7",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 12): (
        "6f0094fae494fa8f0335c56d121f4ff26b460e5e17947906df6128e50da96f19",
        "b3007b4ded33ee1e9a60ba2c4fb7df32fafec8b61ac7cafb163b79d58382f58f",
        "21b1909afdf6e52f67f4981639aea3a1893e4aa812ad9a4c1fcf4c43c6ef9a43",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 24): (
        "b99de4d55206f29e490b54ab78b92cde38aadd7a7545ef42d52b0248cf5a2120",
        "c4b1785d350b8030bc672f5e954ac08092354b910e86e4b68457d405294f5e85",
        "8ad406e94a1702bfb0ddb80327fa08177f55567b44a22ea4645ab264d38da5b2",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 33): (
        "ca62ac0d8cd41c034d8f1c0c1095af5c42ca9fd24bcecf1e8c2705f88bca5532",
        "f8e5c5cc0f1039aa2d6833f7d080c6139f34cac0c96f8b626b8d1e3a511ec9e9",
        "e8e7af76ef99781648bcc5bdcc65ad6b325f46c7f3f4d18e792a57d43df9d457",
    ),
    ("paper-ex-3.9-threshold", 4): (
        "9270a1099c866c9aa982845399c8a01d9ee9ef84370810dee4e75567c32cb5ce",
        "194e18d619cdb542877039bea455d1b54851b78d5444d90064889e5fa462bb5d",
        "afaa73e712d7db0c680025d6f274cccd8a1fdf1f3283e7caa5bedaac62c2020b",
    ),
    ("paper-ex-3.9-threshold", 5): (
        "0558ace9b2354e69a1f14737bbd5b9b3525feae4ed9bf09dd18b44e896781a12",
        "95ca4d17b0a45432cb99777ba5a47b6931baecaca484191e51a1ff1529742e04",
        "319223914e2ace25ee008b1e33d6e0acb82117fe7c98d2e0dcb51dcb06895ac7",
    ),
    ("paper-ex-3.9-threshold", 12): (
        "6f0094fae494fa8f0335c56d121f4ff26b460e5e17947906df6128e50da96f19",
        "b3007b4ded33ee1e9a60ba2c4fb7df32fafec8b61ac7cafb163b79d58382f58f",
        "21b1909afdf6e52f67f4981639aea3a1893e4aa812ad9a4c1fcf4c43c6ef9a43",
    ),
    ("paper-ex-3.9-threshold", 24): (
        "b99de4d55206f29e490b54ab78b92cde38aadd7a7545ef42d52b0248cf5a2120",
        "c4b1785d350b8030bc672f5e954ac08092354b910e86e4b68457d405294f5e85",
        "8ad406e94a1702bfb0ddb80327fa08177f55567b44a22ea4645ab264d38da5b2",
    ),
    ("paper-ex-3.9-threshold", 33): (
        "ca62ac0d8cd41c034d8f1c0c1095af5c42ca9fd24bcecf1e8c2705f88bca5532",
        "f8e5c5cc0f1039aa2d6833f7d080c6139f34cac0c96f8b626b8d1e3a511ec9e9",
        "e8e7af76ef99781648bcc5bdcc65ad6b325f46c7f3f4d18e792a57d43df9d457",
    ),
    ("paper-product-cylinder", 4): (
        "3c2a2ca8a294ac86fb853d43349fc79de2741f5682bf3be63e0b3e665a3ca159",
        "74742d25a808b0fb08258ac54d07c8010c0a96ec98f9bf2addaf0431f4d465e5",
        "34f1984c63f19d8a79b12f7d2e907f91ba66a3914b08a3b3190056dcc8945ee8",
    ),
    ("paper-product-cylinder", 5): (
        "815cd0dbb3c42932dba0606c5ab0995330e98fcf4287a7b1f38a3caf4fee934d",
        "9d24d1ef1414cb9b455d5ee252da3d728b7f0122fd08e845919acfc22b7e82ba",
        "fddf3c8c1b119d0f4cd5bc7c3e57243281e8ac9b0fc0e1df7f6a6879973eabf0",
    ),
    ("paper-product-cylinder", 12): (
        "38c584f845f09a776f54cb1b60e9dc69b6ba49599d6a33168578821fbb941b6d",
        "4f9f6766bc762c5bb345944f25b1efcfa886c3cd3bd6c5f8b38c1d7d53132f5c",
        "fb42ea27fd6db9980cc28aef3f918d7cc5de9d46a52b57b5953905cc82afff32",
    ),
    ("paper-product-cylinder", 24): (
        "3d79085f01d4798c1c27b2a91d66041f4af7319528de4dbf085283797a202f10",
        "033f312b1544a3544626f113a70be729e594e8ce4700081bca691a74ef170e1e",
        "a7912baaabed063e0a00123fd47b0f5df36ad79a3f02a4507f4cc9a0fb630e55",
    ),
    ("paper-product-cylinder", 33): (
        "32e31172670ec804b3ff3259ae323327aba840663bb0a1fb6c3c166fbc8db08b",
        "fb50e76107501593f9d6cccda3656bb9145fbd85c094178e18f662f21d8edaf7",
        "7c48f9b9dbfaf8890e8f462df42a136b0e1de30d2a26f311447b709f5eb99b70",
    ),
    ("paper-product-torus", 4): (
        "f48b08ce69b0862ca0cf3cd2cf3ffa6829a05e7705feb1fe0b96592000d7f354",
        "44f371beefe30c018f8cac3f0d5028610411bfceaaa1489fb8ba71587da48c25",
        "026b053ab3b1a854997d203d11a3e65f8d23bca6c2d281c2316f1a2385c27965",
    ),
    ("paper-product-torus", 5): (
        "da0ca8d234cc0106f7859edc10a390272e198a5b76d93f9344765bd939df4010",
        "6c812494587346538aef08ce6e550edc861198499aef08b8a1368ea739723f73",
        "ad9dca34133d0ee8cd33fc4636c7630a6c52bafa015fae55dc32c35280ba4e80",
    ),
    ("paper-product-torus", 12): (
        "e0b75d3a38467f6a9ae03ce57f5bab301ca6b605bba00ab0552a84b4b840880a",
        "aa21ef4dbe3c059ad53b1417aaad624807b142ecb8dd809cda295c2c933e80e8",
        "51e2aa14b65c1e14197424d2ecd89947538312906bba4da17207cedc9ec32acb",
    ),
    ("paper-product-torus", 24): (
        "0292ec640a27b86fe4ca7e1335746549b54ea29d728e4d67d1c5e6d1f64fb4d1",
        "183623c2510a71491f1d585b32593d0d833b0ac682687d98361a2efb9661ee48",
        "a358acf9372d1059566bffead6524ff7dd3d5c33fd793d6f298d9b00706e5611",
    ),
    ("paper-product-torus", 33): (
        "5cf044741a2262a4507770837756fb9c06f5b92d0eda7095da2f17e82b45b505",
        "e40940f8ade153f55c799d789f8ac1e2d71fcb0a9ae502a4cf237dd72eb52602",
        "37071bf66397b72d59c0b0a1b7de01b103a77032bde728415cb4e89e1b1e37c7",
    ),
    ("sphere-classical-instability", 4): (
        "537adf7842968a69f9fbaaab11bcaaf6a70e797a5b017d2c6f158e6b0d4a442b",
        "fc843dec7f714ed3bd7540ccd6603fd00ae8a455c3d1d378755def24aa4687d8",
        "3c261dfea68e95841ff575cc674f9800f2694bcd4a091c287332b6d269103dbc",
    ),
    ("sphere-classical-instability", 5): (
        "537adf7842968a69f9fbaaab11bcaaf6a70e797a5b017d2c6f158e6b0d4a442b",
        "fc843dec7f714ed3bd7540ccd6603fd00ae8a455c3d1d378755def24aa4687d8",
        "3c261dfea68e95841ff575cc674f9800f2694bcd4a091c287332b6d269103dbc",
    ),
    ("sphere-classical-instability", 12): (
        "abbad73194f2a92ebed06d09d672d3c03d74d4c693ae6cd5c8d4850f9df42bad",
        "fc40e4024c2bc4ed199c24751c51b8e73d8152e38f005e44f5aed0440fcb4723",
        "abd9dcfc8824a67015d10a4309aae09795e94175f81a63e3c92c1f958b994f87",
    ),
    ("sphere-classical-instability", 24): (
        "4b2354dae9ec60e4a2ee17c191fdab2cea5f55a9a37ac5f1777b6cee4de7c407",
        "6eed9adde857abd18df4ecdfbaaf07bb390b0b336ca317c6c696fc6922827201",
        "06f2c39135975d79a8a9f37a734432241c58379a4c640e4683a58170bf84db3c",
    ),
    ("sphere-classical-instability", 33): (
        "54d3ee945fc306031913a6d60e3a0d104df57825707d23d694775e580f2136a4",
        "77ab8929735174ffab2dcc33f86ef15164264741e885690c3a1d6ad0ed04ddab",
        "0dc946f92259d655726803a9ebdf6f8ef11300ca037a9141d62bdeccd41a88b8",
    ),
}

def _array_digest(mesh, names, prefix=""):
    h = hashlib.sha256(prefix.encode())
    for name in names:
        a = np.ascontiguousarray(getattr(mesh, name))
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestMeshPins:
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_meshes_match_their_digests(self, name, tmp_path):
        """Integer arrays always; float arrays and OFF text where this
        platform's trigonometry rounds like the one that recorded them."""
        scn = builtin_scenario(name)
        same_trig = cf.same_trig()
        for resolution in PIN_RESOLUTIONS:
            mesh = mesh_from_immersion(build_immersion(scn), resolution,
                                       space=build_space(scn))
            ints, floats, off = MESH_DIGESTS[(name, resolution)]
            topology = (f"chi {mesh.chi} loops {mesh.n_loops} "
                        f"genus {mesh.genus}\n")
            assert _array_digest(mesh, INT_ARRAYS, topology) == ints, resolution
            if not same_trig:
                continue
            assert _array_digest(mesh, FLOAT_ARRAYS) == floats, resolution
            path = str(tmp_path / "mesh.off")
            export_off(mesh, path)
            with open(path, "rb") as fh, open(path + ".bnd", "rb") as fb:
                text = fh.read() + b"\0" + fb.read()
            assert hashlib.sha256(text).hexdigest() == off, resolution

    @pytest.mark.parametrize("imm", [
        SphericalCap(), cf.slice_immersion(),
        RectPatch(u_range=(0.0, 1.0), v_range=(0.0, 1.5)),
        RectPatch(u_range=(0.0, TAU), v_range=(0.0, TAU),
                  periodic_u=True, periodic_v=True),
        RoundSphere()], ids=["disk", "periodic-u", "rect", "torus", "sphere"])
    @pytest.mark.parametrize("resolution", [4, 5, 12])
    def test_edges_and_boundary_records_are_consistent(self, imm, resolution):
        mesh = mesh_from_immersion(imm, resolution)
        t = mesh.triangles
        directed = np.stack([t, t[:, [1, 2, 0]]], axis=-1).reshape(-1, 2)
        V = mesh.n_vertices
        keys = directed[:, 0] * V + directed[:, 1]
        assert len(np.unique(keys)) == len(keys)       # consistent orientation
        lo, hi = np.sort(directed, axis=1).T
        undirected, count = np.unique(lo * V + hi, return_counts=True)
        assert np.all((count == 1) | (count == 2))
        # an edge in two triangles is crossed in opposite directions, so
        # the edges in one triangle are exactly the boundary edges
        be = mesh.boundary_edges
        assert len(be) == np.count_nonzero(count == 1)
        assert set(np.minimum(be[:, 0], be[:, 1]) * V
                   + np.maximum(be[:, 0], be[:, 1])) == set(
                       undirected[count == 1])
        tri = t[mesh.curved_tri]
        rows = np.arange(len(be))
        assert np.array_equal(tri[rows, mesh.curved_loc[:, 0]], be[:, 0])
        assert np.array_equal(tri[rows, mesh.curved_loc[:, 1]], be[:, 1])
        assert np.array_equal(mesh.curved_arc, be[:, 2])
        assert np.array_equal(mesh.curved_t, mesh.boundary_t)
