"""Tests for immersions, meshing, and pointwise extrinsic geometry."""
import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import conftest as cf
from wstab.ambient import (AmbientSpace, Density, DensityJet,
                           boundary_ii_matrix, boundary_inner_normal,
                           make_space)
from wstab.errors import ImmersionError, InputError, MeshingError
from wstab.functionals import DeformedFamily, RotationFlow
from wstab.scenarios import (build_immersion, build_space, builtin_names,
                             builtin_scenario)
from wstab.stability import HAT_GRADS, assemble
from wstab.surface import (EDGE_POINTS, MAX_RESOLUTION, TRI_HATS, TRI_WEIGHTS,
                           PlanarDisk, RectPatch, RoundSphere, SphericalCap,
                           _on_arcs, export_off, extrinsic_geometry,
                           mesh_from_immersion, stationarity_verdict,
                           surface_chart, vertex_normals)
from wstab.theorems import boundary_identity_residual

TAU = 2.0 * math.pi


def genus(mesh):
    """The genus of an orientable mesh from its Euler characteristic and
    boundary loop count."""
    return (2 - mesh.n_loops - mesh.chi) // 2


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
        jet = DensityJet(space.density, data.pos)
        assert np.array_equal(data.ricf_NN, jet.bakry_emery_ricci(data.N))
        assert np.array_equal(data.S_f, jet.perelman_scalar())

    def test_each_density_derivative_is_evaluated_once(self):
        """Ric_f(N, N), lap_S psi and S_f read one gradient and one Hessian
        of psi at the interior points."""
        base = make_space(density=("radial-log", {"k": -2.5}),
                          boundary=("half-space", {"axis": 2})).density
        chart = cf.cached_chart("hemisphere", 12)
        calls = {"grad": 0, "hess": 0}

        def counting(name, fn):
            def wrapper(P):
                calls[name] += len(P) == len(chart.pos)
                return fn(P)
            return wrapper

        density = Density(base.psi, counting("grad", base.grad_psi),
                          counting("hess", base.hess_psi))
        space = AmbientSpace(density, cf.space_half_space().boundary)
        data = extrinsic_geometry(space, chart)
        assert calls == {"grad": 1, "hess": 1}
        want = cf.cached_geometry("hemisphere", 12, "radial-log", k=-2.5)[3]
        for name in ("ricf_NN", "lap_s_psi", "S_f", "grad_s_psi"):
            assert np.array_equal(getattr(data, name), getattr(want, name))


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
        assert genus(mesh) == 0

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
        assert genus(mesh) == 1

    def test_sphere(self):
        _, _, mesh, _ = cf.cached_geometry("sphere", 12)
        assert mesh.chi == 2
        assert mesh.n_loops == 0

    @pytest.mark.parametrize("name", builtin_names() + ["rect"])
    @pytest.mark.parametrize("resolution", [4, 5, 12])
    def test_loops_are_the_boundary_graph_components(self, name, resolution):
        """The union-find counts what scipy's connected components of the
        boundary edge graph count on its vertices."""
        from scipy.sparse.csgraph import connected_components
        if name == "rect":
            mesh = mesh_from_immersion(
                RectPatch(u_range=(0.0, 1.0), v_range=(0.0, 1.5)), resolution)
        else:
            scn = builtin_scenario(name)
            mesh = mesh_from_immersion(build_immersion(scn), resolution,
                                       space=build_space(scn))
        be = mesh.boundary_edges
        V = mesh.n_vertices
        graph = sp.coo_matrix((np.ones(len(be)), (be[:, 0], be[:, 1])),
                              shape=(V, V))
        # every vertex off the boundary is a component of its own
        want = (connected_components(graph, directed=False)[0] - V
                + len(np.unique(be[:, :2])))
        assert mesh.n_loops == want

    def test_edges_are_counted_once_per_mesh(self, monkeypatch):
        """One unique over the triangle edge keys per mesh build, and
        none when its counts are read."""
        imm = SphericalCap()
        F = 6 * 8 * 8
        sizes = []
        unique = np.unique

        def counting(ar, *args, **kwargs):
            sizes.append(np.size(ar))
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        mesh = mesh_from_immersion(imm, 8, space=cf.space_half_space())
        assert len(mesh.triangles) == F
        assert len([n for n in sizes if n >= 3 * F]) == 1
        del sizes[:]
        assert (mesh.chi, mesh.n_loops, genus(mesh)) == (1, 1, 0)
        assert mesh.chi == mesh.n_vertices - len(mesh.edges) + F
        assert sizes == []
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.edges = mesh.edges[:0]


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
        """export_off writes each vertex, face and boundary record as its
        own line, floats to 17 significant digits, so reading the files
        back gives the mesh exactly."""
        _, _, mesh, _ = cf.cached_geometry("hemisphere", 12)
        path = str(tmp_path / "mesh.off")
        export_off(mesh, path)
        lines = (["OFF", f"{mesh.n_vertices} {len(mesh.triangles)} 0"]
                 + ["{:.17g} {:.17g} {:.17g}".format(*p)
                    for p in mesh.positions.tolist()]
                 + ["3 {} {} {}".format(*t)
                    for t in mesh.triangles.tolist()])
        bnd = ["# v_i v_j arc_id t0 t1"] + [
            "{} {} {} {:.17g} {:.17g}".format(*e, *t) for e, t in
            zip(mesh.boundary_edges.tolist(), mesh.boundary_t.tolist())]
        with open(path) as fh, open(path + ".bnd") as fb:
            assert fh.read() == "\n".join(lines) + "\n"
            assert fb.read() == "\n".join(bnd) + "\n"
        nv = mesh.n_vertices
        pos = np.loadtxt(path, skiprows=2, max_rows=nv)
        tris = np.loadtxt(path, skiprows=2 + nv, dtype=np.int64)
        rows = np.loadtxt(path + ".bnd", ndmin=2)
        assert np.array_equal(pos, mesh.positions)
        assert np.array_equal(tris, np.column_stack(
            [np.full(len(mesh.triangles), 3), mesh.triangles]))
        assert len(rows) > 0
        assert np.array_equal(rows[:, :3].astype(np.int64),
                              mesh.boundary_edges)
        assert np.array_equal(rows[:, 3:], mesh.boundary_t)

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

    @pytest.mark.parametrize("du,dv", [
        ((float("nan"), 1.0, 0.0), (0.0, 0.0, 1.0)),
        ((0.0, 1.0, 0.0), (0.0, float("nan"), 1.0)),
    ], ids=["du", "dv"])
    def test_patch_directions(self, du, dv):
        with pytest.raises(InputError, match="patch d[uv]"):
            RectPatch(du=du, dv=dv)

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


# SHA-256 digests of every builtin's mesh, recorded before the mesher
# numbered its edges once: (integer arrays with chi, boundary loops and
# genus; float arrays; export_off text with its .bnd sidecar)
INT_ARRAYS = ("triangles", "boundary_edges", "curved_tri", "curved_loc")
FLOAT_ARRAYS = ("params", "positions", "tri_params", "boundary_t")
PIN_RESOLUTIONS = (4, 5, 12, 24, 33)
MESH_DIGESTS = {
    ("flat-slab-slice", 4): (
        "a781640544b55a99fe6653bfa8fddedcea84dfae4adb8cefa94d65d1aae5a7fe",
        "08f143b359184200183867f96acfd929f1c1ec65be320d0ada52f99fe46b9ded",
        "34f1984c63f19d8a79b12f7d2e907f91ba66a3914b08a3b3190056dcc8945ee8",
    ),
    ("flat-slab-slice", 5): (
        "24280506fa10c4551f56e437b04ec6777ec023afc4548d1e4799593ce785a115",
        "fc2f3e535a41ed606e0a083526a425ca9801ce72c404ed65ea05b9b39282b7c6",
        "fddf3c8c1b119d0f4cd5bc7c3e57243281e8ac9b0fc0e1df7f6a6879973eabf0",
    ),
    ("flat-slab-slice", 12): (
        "5d16acda70015d45a9c7b5004df1744ca1d064ce6c84f4126764a8c5a5e54653",
        "4d77123fff66482bc865310b8a48962a0af073a376f1a0dbd44bebb3c9ba8e5c",
        "fb42ea27fd6db9980cc28aef3f918d7cc5de9d46a52b57b5953905cc82afff32",
    ),
    ("flat-slab-slice", 24): (
        "d40c00a6bd234928ddf3871a12563ec734feefd046a798c31364e21a8f814abf",
        "0bca5f28c9733f5050399901aaaab5e8cf43330c7edaa1b66977dc91acbbd98b",
        "a7912baaabed063e0a00123fd47b0f5df36ad79a3f02a4507f4cc9a0fb630e55",
    ),
    ("flat-slab-slice", 33): (
        "9cf3175334da7f2647ba830c9a74a2478a147efd7403da69a3999907228efc80",
        "9a1fecdc6c8da1201e3b033c1b0cd56f28918b94a98bcf4932ea5478ea93dc27",
        "7c48f9b9dbfaf8890e8f462df42a136b0e1de30d2a26f311447b709f5eb99b70",
    ),
    ("gauss-identity-suite", 4): (
        "69c112bffb0611ead6d06a74357ac7c9269ec19b1372da939143d3281eb82202",
        "14df2ccf744c51137ada933fb4dcc9c1cd62cd88b02a8c189098673564c48d3a",
        "afaa73e712d7db0c680025d6f274cccd8a1fdf1f3283e7caa5bedaac62c2020b",
    ),
    ("gauss-identity-suite", 5): (
        "00d908d453420e7c455870f8b995edd9755ebcb5b7900f28de3ea4bced03f40e",
        "14dc13c8905680304e68d07e6223b67878c358aaef07864862ca7e916bcd8dce",
        "319223914e2ace25ee008b1e33d6e0acb82117fe7c98d2e0dcb51dcb06895ac7",
    ),
    ("gauss-identity-suite", 12): (
        "195010b109cf9ebaf74d48b2ae663a251128263cb25728ce7234670351514a7e",
        "d3a9fb6dc0fda385fd708067676eaefc1f6cc142678e64bc06072490da22616d",
        "21b1909afdf6e52f67f4981639aea3a1893e4aa812ad9a4c1fcf4c43c6ef9a43",
    ),
    ("gauss-identity-suite", 24): (
        "ffddc9b93e81982a9bfe79ee3dbceda8fc58c19861663d789d2b699478d64670",
        "d945cb92d88e7fdebd9bc68d8988b6f42f1cb0024cc1bf5871d432147a6ee938",
        "8ad406e94a1702bfb0ddb80327fa08177f55567b44a22ea4645ab264d38da5b2",
    ),
    ("gauss-identity-suite", 33): (
        "7752999442118e4b944b5ee940fb9f669116fc32968c191d888342c97d785fbe",
        "032ccecac51ebd4e73ffdda3d5e9a6135cd23f99effde520397489d2711c017c",
        "e8e7af76ef99781648bcc5bdcc65ad6b325f46c7f3f4d18e792a57d43df9d457",
    ),
    ("paper-Mr-k-minus-2", 4): (
        "3e22eb41bd2507184092b7507bfebef941f38dba6c2c2ce836d09020c1aa8aab",
        "92655f3f87d7002a27ddbf9a9ff656b5e201e4e771fce5a5e4b58ee5c09020b7",
        "14d7ad1574383f944b261ee1466439a367e5127afc960cae1952601b25a39ac7",
    ),
    ("paper-Mr-k-minus-2", 5): (
        "3e22eb41bd2507184092b7507bfebef941f38dba6c2c2ce836d09020c1aa8aab",
        "92655f3f87d7002a27ddbf9a9ff656b5e201e4e771fce5a5e4b58ee5c09020b7",
        "14d7ad1574383f944b261ee1466439a367e5127afc960cae1952601b25a39ac7",
    ),
    ("paper-Mr-k-minus-2", 12): (
        "44ea37fc987cd50724fae665df5aa977e112dd89f6df0ef553d57cadd20599f1",
        "a3846e87be2b86493c3fbe9399fa4cf2d42a6f871b1ae4047ec0814a44122794",
        "07d306cf153534aeeb8864448b88c26d782a56d5d58f8e3bf930cc1336f50158",
    ),
    ("paper-Mr-k-minus-2", 24): (
        "e02e0d45e19912c574e88698b0b176a7421f6f3e46149466690620d2acebfef3",
        "3f75d39ac6a43ff79f965db5b31730754c3d7c4fc92d5170ba3fb5652a03d1b8",
        "45a5d91c195a3a4b49be9bb2798f1042709be0a2fbbaf7bbc9b35a6e50d395bd",
    ),
    ("paper-Mr-k-minus-2", 33): (
        "ab634dd0a79bd8d2315c4414fca7d9626cba53370da5b4e3d374bf0730306f94",
        "88115180fe708bceb825b5e6f28fe598c35a5192c30cac8729bd3ec096dd9eea",
        "8849a9ffcd2653cabd5f519a1e4c2eaeabe1c95e1485cf337a9e1cc79434a4f2",
    ),
    ("paper-ex-3.8-convex-cone", 4): (
        "69c112bffb0611ead6d06a74357ac7c9269ec19b1372da939143d3281eb82202",
        "9b0c789eb46932574068eed2718d9c6354a01b9f51fc53cad9f4140d879d6860",
        "3217813e8467d96e26f271a18c5e9229533a0a1413256ebd8a3be7a7cd5ddb16",
    ),
    ("paper-ex-3.8-convex-cone", 5): (
        "00d908d453420e7c455870f8b995edd9755ebcb5b7900f28de3ea4bced03f40e",
        "204981d847fb82c74d8368b2a46f055811f74e1ef94aa2447f9e194cd2ce4c2a",
        "a98c11d428eef0e835b8694619c4bc79f255b205e7c2c77db3a359ae92d76365",
    ),
    ("paper-ex-3.8-convex-cone", 12): (
        "195010b109cf9ebaf74d48b2ae663a251128263cb25728ce7234670351514a7e",
        "629bec75d52eebeb0401044add125573e7f10c6ce5bbe0f7c4dc4cd9a974a5f8",
        "f502cb75a03fd1e92ecc13aaa622db3bb1abeff50bef8f61a5edbabeadda3dfa",
    ),
    ("paper-ex-3.8-convex-cone", 24): (
        "ffddc9b93e81982a9bfe79ee3dbceda8fc58c19861663d789d2b699478d64670",
        "964fd59d8b61637bd29901cad4a56e50de2d961b404dabadc5129ba4602f1842",
        "f69b1ba0ed78a534da0f3f1838682bbae58e74d6ef023bd5dcebe27fec96d57a",
    ),
    ("paper-ex-3.8-convex-cone", 33): (
        "7752999442118e4b944b5ee940fb9f669116fc32968c191d888342c97d785fbe",
        "05b2c36397bb7bf33072fb5dd38355092ca6b36d3ff405dfff77129cb701591c",
        "52867c9b074d9e6114678e9f2480ae297c5c1d447f3e089c93e4028befacd9c5",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 4): (
        "69c112bffb0611ead6d06a74357ac7c9269ec19b1372da939143d3281eb82202",
        "14df2ccf744c51137ada933fb4dcc9c1cd62cd88b02a8c189098673564c48d3a",
        "afaa73e712d7db0c680025d6f274cccd8a1fdf1f3283e7caa5bedaac62c2020b",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 5): (
        "00d908d453420e7c455870f8b995edd9755ebcb5b7900f28de3ea4bced03f40e",
        "14dc13c8905680304e68d07e6223b67878c358aaef07864862ca7e916bcd8dce",
        "319223914e2ace25ee008b1e33d6e0acb82117fe7c98d2e0dcb51dcb06895ac7",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 12): (
        "195010b109cf9ebaf74d48b2ae663a251128263cb25728ce7234670351514a7e",
        "d3a9fb6dc0fda385fd708067676eaefc1f6cc142678e64bc06072490da22616d",
        "21b1909afdf6e52f67f4981639aea3a1893e4aa812ad9a4c1fcf4c43c6ef9a43",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 24): (
        "ffddc9b93e81982a9bfe79ee3dbceda8fc58c19861663d789d2b699478d64670",
        "d945cb92d88e7fdebd9bc68d8988b6f42f1cb0024cc1bf5871d432147a6ee938",
        "8ad406e94a1702bfb0ddb80327fa08177f55567b44a22ea4645ab264d38da5b2",
    ),
    ("paper-ex-3.8-gaussian-halfspace", 33): (
        "7752999442118e4b944b5ee940fb9f669116fc32968c191d888342c97d785fbe",
        "032ccecac51ebd4e73ffdda3d5e9a6135cd23f99effde520397489d2711c017c",
        "e8e7af76ef99781648bcc5bdcc65ad6b325f46c7f3f4d18e792a57d43df9d457",
    ),
    ("paper-ex-3.9-threshold", 4): (
        "69c112bffb0611ead6d06a74357ac7c9269ec19b1372da939143d3281eb82202",
        "14df2ccf744c51137ada933fb4dcc9c1cd62cd88b02a8c189098673564c48d3a",
        "afaa73e712d7db0c680025d6f274cccd8a1fdf1f3283e7caa5bedaac62c2020b",
    ),
    ("paper-ex-3.9-threshold", 5): (
        "00d908d453420e7c455870f8b995edd9755ebcb5b7900f28de3ea4bced03f40e",
        "14dc13c8905680304e68d07e6223b67878c358aaef07864862ca7e916bcd8dce",
        "319223914e2ace25ee008b1e33d6e0acb82117fe7c98d2e0dcb51dcb06895ac7",
    ),
    ("paper-ex-3.9-threshold", 12): (
        "195010b109cf9ebaf74d48b2ae663a251128263cb25728ce7234670351514a7e",
        "d3a9fb6dc0fda385fd708067676eaefc1f6cc142678e64bc06072490da22616d",
        "21b1909afdf6e52f67f4981639aea3a1893e4aa812ad9a4c1fcf4c43c6ef9a43",
    ),
    ("paper-ex-3.9-threshold", 24): (
        "ffddc9b93e81982a9bfe79ee3dbceda8fc58c19861663d789d2b699478d64670",
        "d945cb92d88e7fdebd9bc68d8988b6f42f1cb0024cc1bf5871d432147a6ee938",
        "8ad406e94a1702bfb0ddb80327fa08177f55567b44a22ea4645ab264d38da5b2",
    ),
    ("paper-ex-3.9-threshold", 33): (
        "7752999442118e4b944b5ee940fb9f669116fc32968c191d888342c97d785fbe",
        "032ccecac51ebd4e73ffdda3d5e9a6135cd23f99effde520397489d2711c017c",
        "e8e7af76ef99781648bcc5bdcc65ad6b325f46c7f3f4d18e792a57d43df9d457",
    ),
    ("paper-product-cylinder", 4): (
        "a781640544b55a99fe6653bfa8fddedcea84dfae4adb8cefa94d65d1aae5a7fe",
        "08f143b359184200183867f96acfd929f1c1ec65be320d0ada52f99fe46b9ded",
        "34f1984c63f19d8a79b12f7d2e907f91ba66a3914b08a3b3190056dcc8945ee8",
    ),
    ("paper-product-cylinder", 5): (
        "24280506fa10c4551f56e437b04ec6777ec023afc4548d1e4799593ce785a115",
        "fc2f3e535a41ed606e0a083526a425ca9801ce72c404ed65ea05b9b39282b7c6",
        "fddf3c8c1b119d0f4cd5bc7c3e57243281e8ac9b0fc0e1df7f6a6879973eabf0",
    ),
    ("paper-product-cylinder", 12): (
        "5d16acda70015d45a9c7b5004df1744ca1d064ce6c84f4126764a8c5a5e54653",
        "4d77123fff66482bc865310b8a48962a0af073a376f1a0dbd44bebb3c9ba8e5c",
        "fb42ea27fd6db9980cc28aef3f918d7cc5de9d46a52b57b5953905cc82afff32",
    ),
    ("paper-product-cylinder", 24): (
        "d40c00a6bd234928ddf3871a12563ec734feefd046a798c31364e21a8f814abf",
        "0bca5f28c9733f5050399901aaaab5e8cf43330c7edaa1b66977dc91acbbd98b",
        "a7912baaabed063e0a00123fd47b0f5df36ad79a3f02a4507f4cc9a0fb630e55",
    ),
    ("paper-product-cylinder", 33): (
        "9cf3175334da7f2647ba830c9a74a2478a147efd7403da69a3999907228efc80",
        "9a1fecdc6c8da1201e3b033c1b0cd56f28918b94a98bcf4932ea5478ea93dc27",
        "7c48f9b9dbfaf8890e8f462df42a136b0e1de30d2a26f311447b709f5eb99b70",
    ),
    ("paper-product-torus", 4): (
        "c9847242c22b9d3417d087a9bcb013ad965d20650967f7e85ee068fd9b33d4e8",
        "9ca344b137612a5288d28ce746f72403840c416996a909e5a97a64d92b13b4b5",
        "026b053ab3b1a854997d203d11a3e65f8d23bca6c2d281c2316f1a2385c27965",
    ),
    ("paper-product-torus", 5): (
        "a088b9141079dd35931f897ee50d6614441ba1ecb1e5538a66e67320959b19f5",
        "f0e778e52b9931cbd454f2d8d086960fc66f53af6aa4e40259f905b9e6960095",
        "ad9dca34133d0ee8cd33fc4636c7630a6c52bafa015fae55dc32c35280ba4e80",
    ),
    ("paper-product-torus", 12): (
        "fa28bbc8772e22dc2a805410ee2fc7810361bbb21259126a6cf45fd5f44adc5c",
        "5b348c69bdab13646f9e18d463d0b49a07b6459f7dd8e93c651c81f7eedb37ca",
        "51e2aa14b65c1e14197424d2ecd89947538312906bba4da17207cedc9ec32acb",
    ),
    ("paper-product-torus", 24): (
        "26295b91875449ba481f85f3e59731764de05232994602565b3d2455ad275fc7",
        "450b905bf58d501f5c1a07bfe2de4b7d827c1de31f98d127518fe28de03e8e41",
        "a358acf9372d1059566bffead6524ff7dd3d5c33fd793d6f298d9b00706e5611",
    ),
    ("paper-product-torus", 33): (
        "a3d7ba271d50422b5df7e55403aebf5001c96d2154e7e58883274eb2d9e108f1",
        "b2c7ca1c696a37a4aa9fdbdf62e82f92c4dc1950db0739e19b0f564c1589f10d",
        "37071bf66397b72d59c0b0a1b7de01b103a77032bde728415cb4e89e1b1e37c7",
    ),
    ("sphere-classical-instability", 4): (
        "3e22eb41bd2507184092b7507bfebef941f38dba6c2c2ce836d09020c1aa8aab",
        "eeca7a517ebe4419564ee5b76b5e4aaa41410fc214bb9b0d3cd03eff8643bd8a",
        "3c261dfea68e95841ff575cc674f9800f2694bcd4a091c287332b6d269103dbc",
    ),
    ("sphere-classical-instability", 5): (
        "3e22eb41bd2507184092b7507bfebef941f38dba6c2c2ce836d09020c1aa8aab",
        "eeca7a517ebe4419564ee5b76b5e4aaa41410fc214bb9b0d3cd03eff8643bd8a",
        "3c261dfea68e95841ff575cc674f9800f2694bcd4a091c287332b6d269103dbc",
    ),
    ("sphere-classical-instability", 12): (
        "44ea37fc987cd50724fae665df5aa977e112dd89f6df0ef553d57cadd20599f1",
        "7bee3069d3c57d0bd92486607d4dcc02ab843438242dc9cd0d79c6656de98505",
        "abd9dcfc8824a67015d10a4309aae09795e94175f81a63e3c92c1f958b994f87",
    ),
    ("sphere-classical-instability", 24): (
        "e02e0d45e19912c574e88698b0b176a7421f6f3e46149466690620d2acebfef3",
        "bad10ac61d37150775e0675366823af26c77090076468128008cf9349e91b45f",
        "06f2c39135975d79a8a9f37a734432241c58379a4c640e4683a58170bf84db3c",
    ),
    ("sphere-classical-instability", 33): (
        "ab634dd0a79bd8d2315c4414fca7d9626cba53370da5b4e3d374bf0730306f94",
        "c4ad3223b391a82b8c0e5d093cc564c6db4a3cca180ce8fdf08393d4715abb3d",
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
                        f"genus {genus(mesh)}\n")
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
        assert len(mesh.edges) == len(undirected)
        # the edges in key order, and each triangle's and boundary edge's id
        assert np.array_equal(mesh.edges[:, 0] * V + mesh.edges[:, 1],
                              undirected)
        ends = np.sort(mesh.edges[mesh.triangle_edges], axis=-1)
        assert np.array_equal(ends, np.sort(directed.reshape(-1, 3, 2),
                                            axis=-1))
        assert np.array_equal(np.sort(mesh.edges[mesh.boundary_edge_ids],
                                      axis=-1), np.sort(be[:, :2], axis=-1))
        tri = t[mesh.curved_tri]
        rows = np.arange(len(be))
        assert np.array_equal(tri[rows, mesh.curved_loc[:, 0]], be[:, 0])
        assert np.array_equal(tri[rows, mesh.curved_loc[:, 1]], be[:, 1])
        if imm.param_dim == 2:
            # counterclockwise parameter triangles, so that vertex_normals
            # may take J_u x J_v for the triangles' normal
            d1, d2 = (mesh.tri_params[:, c] - mesh.tri_params[:, 0]
                      for c in (1, 2))
            assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)


# ---------------------------------------------------------------------------
# the geometry kernels against the einsum forms they replaced, and against
# np.sum in index order where a sum is 3 long: every output keeps its bits,
# signed zeros included
# ---------------------------------------------------------------------------

def einsum_frame(sign, D1, D2, J):
    E1 = np.einsum("nia,na->ni", J, D1)
    E2 = np.einsum("nia,na->ni", J, D2)
    g11 = np.sum(E1 * E1, axis=1)
    g12 = np.sum(E1 * E2, axis=1)
    g22 = np.sum(E2 * E2, axis=1)
    detG = g11 * g22 - g12 * g12
    Ginv = (np.stack([g22, -g12, -g12, g11], axis=-1)
            / detG[:, None]).reshape(-1, 2, 2)
    Nv = np.cross(E1, E2)
    Nv = sign * Nv / np.linalg.norm(Nv, axis=1)[:, None]
    w_da = np.sqrt(detG) * np.tile(TRI_WEIGHTS, len(J) // len(TRI_WEIGHTS))
    return E1, E2, Ginv, Nv, w_da


def einsum_curvatures(chart, Nv, Ginv):
    """H, |sigma|^2 and K from the chart Hessian."""
    Hc, d1r, d2r, J = chart.hess, chart.D1, chart.D2, chart.J
    Q11, Q12, Q22 = chart.Q2
    F11 = (np.einsum("niab,na,nb->ni", Hc, d1r, d1r)
           + np.einsum("nia,na->ni", J, Q11))
    F12 = (np.einsum("niab,na,nb->ni", Hc, d1r, d2r)
           + np.einsum("nia,na->ni", J, Q12))
    F22 = (np.einsum("niab,na,nb->ni", Hc, d2r, d2r)
           + np.einsum("nia,na->ni", J, Q22))
    L11, L12, L22 = (-np.sum(Nv * F, axis=1) for F in (F11, F12, F22))
    L = np.stack([L11, L12, L12, L22], axis=-1).reshape(-1, 2, 2)
    S = np.einsum("nab,nbc->nac", Ginv, L)
    return (-0.5 * (S[:, 0, 0] + S[:, 1, 1]), np.einsum("nab,nba->n", S, S),
            S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0])


def numpy_cap_derivatives(imm, Q):
    """The cap's chart derivatives, each rotation row an np.sum."""
    u, v = Q[:, 0], Q[:, 1]
    w = u * u + v * v
    D = 1.0 + w
    e = np.stack([2 * u, 2 * v, 1 - w], axis=-1)
    n = len(D)
    e_u = np.stack([np.full(n, 2.0), np.zeros(n), -2 * u], axis=-1)
    e_v = np.stack([np.zeros(n), np.full(n, 2.0), -2 * v], axis=-1)
    s_u = e_u / D[:, None] - e * (2 * u / D**2)[:, None]
    s_v = e_v / D[:, None] - e * (2 * v / D**2)[:, None]
    s_a = np.stack([s_u, s_v], axis=-1) * imm.radius
    J = np.sum(imm.rot[None, :, :, None] * s_a[:, None], axis=2)
    z, two = np.zeros(n), np.full(n, 2.0)
    e_a = np.stack([np.stack([two, z, -2 * u], -1),
                    np.stack([z, two, -2 * v], -1)], axis=1)
    D_a = np.stack([2 * u, 2 * v], axis=-1)
    e_ab = np.zeros((n, 2, 2, 3))
    e_ab[:, 0, 0, 2] = -2.0
    e_ab[:, 1, 1, 2] = -2.0
    D_ab = 2.0 * np.eye(2)[None, :, :] * np.ones((n, 1, 1))
    Dm = D[:, None, None, None]
    Da = D_a[:, :, None, None]
    Db = D_a[:, None, :, None]
    s_ab = (e_ab / Dm
            - e_a[:, :, None, :] * Db / Dm**2
            - e_a[:, None, :, :] * Da / Dm**2
            - e[:, None, None, :] * D_ab[..., None] / Dm**2
            + 2.0 * e[:, None, None, :] * Da * Db / Dm**3)
    return J, imm.radius * np.sum(imm.rot[None, :, None, None, :]
                                  * s_ab[:, None], axis=-1)


def einsum_sphere_derivatives(imm, Q):
    r = np.linalg.norm(Q, axis=-1)
    eye = np.eye(3)
    nn = Q[:, :, None] * Q[:, None, :] / (r**2)[:, None, None]
    J = imm.radius * (eye[None] - nn) / r[:, None, None]
    n = Q / r[:, None]
    nn = n[:, :, None] * n[:, None, :]
    term = (-eye[None, :, :, None] * n[:, None, None, :]
            - eye[None, :, None, :] * n[:, None, :, None]
            - n[:, :, None, None] * eye[None, None, :, :]
            + 3.0 * n[:, :, None, None] * nn[:, None, :, :])
    return J, imm.radius * term / (r**2)[:, None, None, None]


def einsum_boundary(space, data):
    """b_dg, b_ddg, b_N, b_nu, II_NN and the ambient boundary's H_f."""
    imm, mesh = data.mesh.immersion, data.mesh
    t0, t1 = mesh.boundary_t.T
    t = t0[:, None] + EDGE_POINTS * (t1 - t0)[:, None]
    q, dq, ddq, _ = _on_arcs(imm, mesh.boundary_edges[:, 2],
                             t).reshape(4, -1, imm.param_dim)
    Jb = imm.chart_jac(q)
    dg = np.einsum("nia,na->ni", Jb, dq)
    ddg = (np.einsum("niab,na,nb->ni", imm.chart_hess(q), dq, dq)
           + np.einsum("nia,na->ni", Jb, ddq))
    Nv = np.cross(Jb[:, :, 0], Jb[:, :, 1])
    Nv = imm.orientation_sign * Nv / np.linalg.norm(Nv, axis=1)[:, None]
    T = dg / np.linalg.norm(dg, axis=1)[:, None]
    nu = np.cross(Nv, T)
    v_in = np.einsum("nia,na->ni", Jb, data.b_inward)
    nu = nu * np.sign(np.sum(nu * v_in, axis=1))[:, None]
    g = data.b_pos
    II = boundary_ii_matrix(space, g)
    xi = boundary_inner_normal(space, g)
    Hf = (np.trace(II, axis1=-2, axis2=-1)
          - np.einsum("nij,ni,nj->n", II, xi, xi)
          - np.sum(space.density.grad_psi(g) * xi, axis=-1))
    return (dg, ddg, Nv, nu, np.einsum("nij,ni,nj->n", II, Nv, Nv), Hf)


def on_pattern(mesh, slots, values):
    """The CSR arrays (indptr, indices, data) of the matrix whose entries
    add ``values`` onto +0.0 in input order by slot (np.bincount), slot i
    the diagonal (i, i) and slot V + e both entries of the mesh edge e."""
    V, edges = mesh.n_vertices, mesh.edges
    sums = np.bincount(slots, values, minlength=V + len(edges))
    diag = np.arange(V)
    rows = np.concatenate([diag, edges[:, 0], edges[:, 1]])
    cols = np.concatenate([diag, edges[:, 1], edges[:, 0]])
    entry = np.concatenate([sums[:V], sums[V:], sums[V:]])
    order = np.argsort(rows * V + cols, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(V + 1))
    return indptr, cols[order], entry[order]


def pair_slots(mesh, corners, pairs):
    """The slots of the corner pairs (i, j), i <= j, of the rows of
    ``corners``, pair by pair: vertex i's for i = j, else the slot of the
    edge joining the two corners, found by its key."""
    V, e = mesh.n_vertices, mesh.edges
    out = []
    for i, j in pairs:
        a, b = corners[:, i], corners[:, j]
        out.append(a if i == j else V + np.searchsorted(
            e[:, 0] * V + e[:, 1], np.minimum(a, b) * V + np.maximum(a, b)))
    return np.concatenate(out)


TRI_PAIRS = [(i, j) for i in range(3) for j in range(i, 3)]


def einsum_stiffness(data):
    F = len(data.mesh.triangles)
    w = data.w_daf.reshape(F, 3)
    Ginv = data.Ginv.reshape(F, 3, 2, 2)
    kv = [np.sum(w * np.einsum("a,frab,b->fr", HAT_GRADS[i], Ginv,
                               HAT_GRADS[j]), axis=1)
          for i, j in TRI_PAIRS]
    return on_pattern(data.mesh, pair_slots(data.mesh, data.mesh.triangles,
                                            TRI_PAIRS), np.concatenate(kv))


def numpy_element_sums(data):
    """The potential, mass and Robin matrices with each element sum over
    its quadrature points an np.sum over the 3-long (2-long on an edge)
    row."""
    mesh = data.mesh
    edges, F = mesh.boundary_edges, len(mesh.triangles)
    w = data.w_daf.reshape(F, 3)
    pot = (data.ricf_NN + data.sigma2).reshape(F, 3)
    pv, mv = [], []
    for i, j in TRI_PAIRS:
        hi, hj = TRI_HATS[i][None, :], TRI_HATS[j][None, :]
        pv.append(np.sum(w * pot * hi * hj, axis=1))
        mv.append(np.sum(w * hi * hj, axis=1))
    slots = pair_slots(mesh, mesh.triangles, TRI_PAIRS)
    out = [on_pattern(mesh, slots, np.concatenate(v)) for v in (pv, mv)]
    wb = (data.w_dlf * data.II_NN).reshape(len(edges), len(EDGE_POINTS))
    hats = np.stack([1.0 - EDGE_POINTS, EDGE_POINTS])
    pairs = ((0, 0), (0, 1), (1, 1))
    bv = [np.sum(wb * hats[i] * hats[j], axis=1) for i, j in pairs]
    return out + [on_pattern(mesh, pair_slots(mesh, edges, pairs),
                             np.concatenate(bv))]


# every builtin's surface and ambient, and three charts the builtins leave
# out: a cap whose rotation has 9 nonzero entries, an off-center sphere and
# a patch with non-orthogonal directions
KERNEL_EXTRAS = {
    "cap-axis-123": (
        lambda: make_space(density=("radial-smooth",
                                    {"coeffs": (0.0, 0.0, 0.5)}),
                           boundary=("cone", {"alpha": 0.7,
                                              "axis": (1, 2, 3)})),
        lambda: SphericalCap(alpha=0.7, axis=(1, 2, 3)), 16),
    "off-center-sphere": (
        lambda: make_space(density=("gaussian", {})),
        lambda: RoundSphere(radius=1.3, center=(0.2, -0.4, 0.5)), 12),
    "skew-rect": (
        lambda: make_space(density=("linear", {"a": (0.3, -0.2, 0.5)})),
        lambda: RectPatch(du=(1.0, 0.3, 0.0), dv=(0.2, 0.5, 1.1)), 12),
}
KERNEL_CASES = builtin_names() + sorted(KERNEL_EXTRAS)


@functools.lru_cache(maxsize=None)
def kernel_case(name):
    if name in KERNEL_EXTRAS:
        space, imm, resolution = KERNEL_EXTRAS[name]
        space = space()
        chart = surface_chart(imm(), resolution, space)
    else:
        scn = builtin_scenario(name)
        space = build_space(scn)
        chart = surface_chart(build_immersion(scn), scn.resolution, space)
    return space, extrinsic_geometry(space, chart)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_frame_and_curvatures(self, name):
        _, data = kernel_case(name)
        sign = data.mesh.immersion.orientation_sign
        E1, E2, Ginv, Nv, w_da = einsum_frame(sign, data.D1, data.D2, data.J)
        for got, want in ((data.E1, E1), (data.E2, E2), (data.Ginv, Ginv),
                          (data.N, Nv), (data.w_da, w_da)):
            cf.assert_same_bits(got, want)
        for got, want in zip((data.H, data.sigma2, data.K),
                             einsum_curvatures(data.chart, Nv, Ginv)):
            cf.assert_same_bits(got, want)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_chart_derivatives(self, name):
        _, data = kernel_case(name)
        imm = data.mesh.immersion
        if isinstance(imm, SphericalCap):
            ref = numpy_cap_derivatives
        elif isinstance(imm, RoundSphere):
            ref = einsum_sphere_derivatives
        else:
            pytest.skip("an affine chart has constant derivatives")
        for Q in (data.params, data.b_params):
            J, H = ref(imm, Q)
            cf.assert_same_bits(imm.chart_jac(Q), J)
            cf.assert_same_bits(imm.chart_hess(Q), H)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_boundary_fields(self, name):
        space, data = kernel_case(name)
        if not data.has_boundary or space.boundary is None:
            pytest.skip("no boundary on the ambient boundary")
        got = (data.b_dg, data.b_ddg, data.b_N, data.b_nu, data.II_NN,
               data.Hf_boundary)
        for g, want in zip(got, einsum_boundary(space, data)):
            cf.assert_same_bits(g, want)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_density_terms_and_stiffness(self, name):
        space, data = kernel_case(name)
        cf.assert_same_bits(data.ricf_NN, -np.einsum(
            "nij,ni,nj->n", space.density.hess_psi(data.pos), data.N, data.N))
        asm = assemble(data)
        for got, want in zip((asm.K, asm.P, asm.M, asm.B),
                             (einsum_stiffness(data),
                              *numpy_element_sums(data))):
            for attr, array in zip(("indptr", "indices", "data"), want):
                cf.assert_same_bits(getattr(got, attr), array)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_per_point_columns_are_contiguous(self, name):
        """The chart's and the density jet's per-point arrays are
        component-major, so every column the kernels read is contiguous."""
        space, data = kernel_case(name)
        jet = DensityJet(space.density, data.pos)
        arrays = {name: getattr(data, name) for name in (
            "params", "D1", "D2", "pos", "J", "hess", "N", "E1", "E2",
            "Ginv")}
        arrays.update({f"Q2[{k}]": q for k, q in enumerate(data.Q2)})
        arrays.update(grad_psi=jet.grad, hess_psi=jet.hess)
        for label, a in arrays.items():
            for index in np.ndindex(a.shape[1:]):
                column = a[(slice(None),) + index]
                assert column.flags.c_contiguous, (label, index)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_slice_normals_and_area(self, name):
        """A full rotation, off the base: the slice turns the base normal
        to R N and keeps the area element, within a few eps of the frame
        of the moved Jacobian.  The surface sits in an ambient without
        boundary, with the same density, so that any flow is admissible."""
        space, data = kernel_case(name)
        space = AmbientSpace(density=space.density)
        data = extrinsic_geometry(space, data.chart)
        flow = RotationFlow((1.0, 2.0, 3.0), (0.1, -0.2, 0.3))
        s = 0.1
        J = np.matmul(flow.jac(s, data.pos), data.J)
        *_, Nv, w_da = einsum_frame(data.mesh.immersion.orientation_sign,
                                    data.D1, data.D2, J)
        family = DeformedFamily(data, flow)
        pos, N, w_daf = family.area_elements(s)
        cf.assert_affine_slice(family, s, N, w_daf, Nv,
                               w_da * np.exp(space.density.psi(pos)))


def numpy_vertex_normals(mesh):
    imm, tp = mesh.immersion, mesh.tri_params
    Nv = np.zeros((mesh.n_vertices, 3))
    for c in range(3):
        Jc = imm.chart_jac(tp[:, c])
        e1 = np.sum(Jc * (tp[:, 1] - tp[:, 0])[:, None], axis=-1)
        e2 = np.sum(Jc * (tp[:, 2] - tp[:, 0])[:, None], axis=-1)
        Nv[mesh.triangles[:, c]] = np.cross(e1, e2)
    return imm.orientation_sign * Nv / np.linalg.norm(Nv, axis=1)[:, None]


@pytest.fixture
def einsum_calls(monkeypatch):
    """The subscripts of every np.einsum call made while a test runs."""
    calls, einsum = [], np.einsum

    def recording(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    return calls


class TestLaneOrderKernels:
    """The 3-long contractions whose np.einsum form sums in a vector-lane
    order that depends on the platform: each is summed in index order, bit
    for bit np.sum over the 3-long axis, and calls no np.einsum."""

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_boundary_identity_residual(self, name, einsum_calls):
        space, data = kernel_case(name)
        if not data.has_boundary or space.boundary is None:
            pytest.skip("no boundary on the ambient boundary")
        gpsi = space.density.grad_psi(data.b_pos)
        two_H = data.Hf_boundary + np.sum(gpsi * data.b_xi, axis=-1)
        want = float(np.max(np.abs(data.II_NN - (two_H - data.h_geod))))
        einsum_calls.clear()
        assert boundary_identity_residual(data) == want
        assert einsum_calls == []

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_slice_boundary_curve(self, name, einsum_calls):
        """A full rotation of the boundary curve's g' and g'', in an
        ambient without boundary so that any flow is admissible."""
        _, data = kernel_case(name)
        if not data.has_boundary:
            pytest.skip("no boundary")
        data = extrinsic_geometry(cf.space_free(), data.chart)
        flow = RotationFlow((1.0, 2.0, 3.0), (0.1, -0.2, 0.3))
        s, g0, dg0 = 0.1, data.b_pos, data.b_dg
        DFb = flow.jac(s, g0)
        want_dg = np.sum(DFb * dg0[:, None], axis=-1)
        want_ddg = np.sum(DFb * data.b_ddg[:, None], axis=-1)
        einsum_calls.clear()
        moved = DeformedFamily(data, flow).geometry(s)
        cf.assert_same_bits(moved.b_dg, want_dg)
        cf.assert_same_bits(moved.b_ddg, want_ddg)
        assert einsum_calls == []

    @pytest.mark.parametrize("name", [n for n in KERNEL_CASES
                                      if "sphere" in n or "Mr" in n])
    def test_vertex_normals_of_a_3_parameter_chart(self, name, einsum_calls):
        _, data = kernel_case(name)
        assert data.mesh.immersion.param_dim == 3
        want = numpy_vertex_normals(data.mesh)
        einsum_calls.clear()
        cf.assert_same_bits(vertex_normals(data.mesh), want)
        assert einsum_calls == []


def per_point_digests() -> dict:
    """SHA-256 of the per-point geometry of the rotation scenario's cap,
    whose rotation matrix has 9 nonzero entries, in its cone: the cap's
    rotation, the mesh, every array of the chart and of the density terms,
    and the full geometry and the area elements of the slice s = 0.1 of
    the rotation about the cone's axis."""
    space = make_space(density=("radial-smooth", {"coeffs": (0.0, 0.0, 0.5)}),
                       boundary=("cone", {"alpha": 0.7, "axis": (1, 2, 3)}))
    imm = SphericalCap(alpha=0.7, axis=(1, 2, 3))
    data = extrinsic_geometry(space, surface_chart(imm, 16, space))
    family = DeformedFamily(data, RotationFlow((1, 2, 3)))

    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def fields(obj):
        return [getattr(obj, f.name) for f in dataclasses.fields(obj)
                if isinstance(getattr(obj, f.name), np.ndarray)]

    mesh, moved = data.mesh, family.geometry(0.1)
    return {"rot": digest([imm.rot]),
            "mesh": digest([mesh.params, mesh.positions]),
            "chart": digest(fields(data.chart)),
            "density terms": digest(fields(data)),
            "slice geometry": digest(fields(moved.chart) + fields(moved)),
            "slice area elements": digest(family.area_elements(0.1))}


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_per_point_geometry_does_not_depend_on_the_blas_kernels(coretype):
    """The per-point geometry sums every 3-long product in index order
    with no BLAS call, so it is bit for bit the same under another
    OpenBLAS kernel set, chosen for a fresh interpreter by
    OPENBLAS_CORETYPE.  On a numpy without OpenBLAS the variable does
    nothing and this passes trivially."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["wstab"].__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, tests]))
    out = subprocess.run(
        [sys.executable, "-c", "import json, test_surface; "
         "print(json.dumps(test_surface.per_point_digests()))"],
        env=env, check=True, capture_output=True, text=True, timeout=300)
    assert json.loads(out.stdout) == per_point_digests()
