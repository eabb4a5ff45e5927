"""Tests for weighted functionals, variations, and divergence identities."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import conftest as cf
from conftest import make_density
from wstab import functionals, surface
from wstab.ambient import AmbientSpace, BoundarySpec
from wstab.errors import ImmersionError, InputError, PreconditionError
from wstab.functionals import (DeformedFamily, FieldFlow,
                               RotationFlow, ScalingFlow, TranslationFlow,
                               first_variation_fd, first_variation_formula,
                               second_variation_fd, swept_weighted_volume)
from wstab.surface import (PlanarDisk, RectPatch, SphericalCap,
                           extrinsic_geometry, surface_chart)

TAU = 2.0 * math.pi


AFFINE_FLOWS = pytest.mark.parametrize("flow", [
    TranslationFlow((0.6, 0.8, 0.0)), ScalingFlow((0.1, -0.2, 0.3)),
    RotationFlow((1.0, 2.0, 3.0), (0.0, 0.5, 0.0)),
], ids=["translation", "scaling", "rotation"])


class TestWeightedArea:
    """The unit hemisphere's A_f at resolution 32 within 5e-9 relative
    (measured: 1.18e-9; 6.4e-6 under Gauss3 on the rim triangles)."""

    def test_hemisphere_constant(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 32)
        assert np.sum(data.w_daf) == pytest.approx(TAU, rel=5e-9)

    def test_hemisphere_gaussian_closed_form(self):
        """|p| = 1 on the surface, so the density is a constant e^{-1}."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 32,
                                                    "gaussian")
        expected = math.exp(-1.0) * TAU
        assert np.sum(data.w_daf) == pytest.approx(expected, rel=5e-9)


class TestFirstOrderGeometry:
    """Area and swept volume read only positions, normals and w da_f.
    Flows that move an ambient boundary act here on surfaces in an ambient
    without boundary, under the same density."""

    @pytest.mark.parametrize("kind,density,params", [
        ("hemisphere", "radial-log", {"k": -2.5}),
        ("slice", "linear", {"a": (1.0, 0.0, 0.0)}),
        ("disk", "gaussian", {}),
        ("sphere", "constant", {}),
    ])
    def test_area_elements_match_full_geometry(self, kind, density,
                                               params):
        data = cf.free_geometry(kind, 16, density, **params)
        family = DeformedFamily(data, ScalingFlow())
        pos, N, w_daf = family.area_elements(0.0)
        assert np.array_equal(pos, data.pos)
        assert np.array_equal(N, data.N)
        assert np.array_equal(w_daf, data.w_daf)
        assert family.weighted_area(0.0) == np.sum(data.w_daf)

    def test_deformed_immersion_area_matches_full_geometry(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-2.5)
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
        data = family.geometry(0.05)
        _, N, w_daf = family.area_elements(0.05)
        assert np.array_equal(N, data.N)
        assert family.weighted_area(0.05) == np.sum(data.w_daf)

    def test_area_and_volume_skip_second_order_geometry(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("second-order geometry evaluated")

        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        flow = ScalingFlow()
        for owner, name in ((type(imm), "chart_hess"),
                            (surface, "_shape_operator"),
                            (surface.SurfaceChart, "_boundary_fields")):
            monkeypatch.setattr(owner, name, forbidden)
        family = DeformedFamily(data, flow)
        assert family.weighted_area(0.1) > 0
        assert swept_weighted_volume(family, [0.1])[0] > 0

    @AFFINE_FLOWS
    def test_slices_call_no_einsum_or_cross(self, monkeypatch, flow):
        """Off the base, a slice's normals and area element are component
        arithmetic on (N,) columns."""
        data = cf.free_geometry("hemisphere", 16)
        calls = {"einsum": 0, "cross": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        family = DeformedFamily(data, flow)
        for s in (0.1, -1e-3):
            _, N, w_daf = family.area_elements(s)
            assert N.shape == data.N.shape and np.all(w_daf > 0)
        assert calls == {"einsum": 0, "cross": 0}


def moved_frame(DF, E):
    """DF E at each point, each entry an np.sum over the 3-long axis."""
    return np.sum(DF[:, :, :, None] * E[:, None, :, :], axis=2)


def stacked_slice(family, s):
    """A slice as a flow that is not affine builds it: the per-point
    Jacobians times the base frame, then the normal and area element of
    the moved frame."""
    base, flow = family.data, family.flow
    E = moved_frame(flow.jac(s, base.pos), base.E)
    _, N, w_da = surface._frame(base.mesh.immersion.orientation_sign, E,
                                base.mesh.point_weights)
    pos = flow.map(s, base.pos)
    return pos, N, w_da * np.exp(base.space.density.psi(pos))


def chart_first_slice(family, s):
    """The full geometry of a slice with the flow composed with the chart
    before the blend, (Dphi J) D, where the family composes Dphi (J D):
    the chart's Jacobian J and Hessian at the blended parameters moved by
    the chain rule, then taken along the blend's derivatives D and H."""
    base, flow = family.data, family.flow
    imm = base.mesh.immersion
    Q, D, H = surface._blended_param_points(imm, base.mesh)
    affine = isinstance(flow, functionals.AffineFlow)
    J, Hc = surface._chain_rule(flow.jac(s, base.pos), imm.chart_jac(Q),
                                imm.chart_hess(Q),
                                None if affine else flow.hess(s, base.pos))
    E, F = np.empty_like(base.E), np.empty_like(base.F)
    for a in range(2):
        E[:, :, a] = np.array(surface._along(J, D[:, :, a])).T
        for b in range(2):
            F[:, :, a, b] = np.array(cf.second_along(
                Hc, J, D[:, :, a], D[:, :, b], H[:, :, a, b])).T
    return extrinsic_geometry(base.space, dataclasses.replace(
        base.chart, pos=flow.map(s, base.pos), E=E, F=F))


class TestAffineSlices:
    @AFFINE_FLOWS
    @pytest.mark.parametrize("s", [1e-3, -1e-3, 5e-3, -5e-3, 0.2, -0.2])
    def test_slices_equal_the_stacked_jacobian_path(self, flow, s):
        """A translated slice is the stacked path's bit for bit; a scaled
        or rotated one, which takes Q N and lambda^2 w da from the base,
        agrees with it and with its closed form to a few eps.  The surface
        sits in an ambient without boundary, where every flow here is
        admissible."""
        data = cf.free_geometry("hemisphere", 16, "radial-log", k=-1.3)
        family = DeformedFamily(data, flow)
        (pos, N, w_daf), want = (family.area_elements(s),
                                 stacked_slice(family, s))
        assert np.array_equal(pos, want[0])
        if isinstance(flow, TranslationFlow):
            assert np.array_equal(N, want[1])
            assert np.array_equal(w_daf, want[2])
        else:
            cf.assert_affine_slice(family, s, N, w_daf, *want[1:])

    def test_field_flow_slices_are_unchanged(self):
        data = cf.free_geometry("hemisphere", 16, "gaussian")
        family = DeformedFamily(data, FieldFlow(*swirl()))
        for s in (1e-3, -5e-3, 0.2):
            for got, want in zip(family.area_elements(s),
                                 stacked_slice(family, s)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("flow,scale", [
        (TranslationFlow((0.6, 0.8, 0.0)), lambda s: 1.0),
        (ScalingFlow(), lambda s: 1.0 + s),
    ], ids=["translation", "scaling"])
    def test_translated_slices_keep_the_base_normal_and_area(
            self, monkeypatch, flow, scale):
        """A translation or a scaling keeps the base normal and multiplies
        the base area element by lambda^2: neither moves the frame to
        compute a normal and an area element again, nor takes a cross
        product."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "gaussian")
        calls = {"frame": 0, "cross": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(functionals, "_frame",
                            counting("frame", functionals._frame))
        monkeypatch.setattr(np, "cross", counting("cross", np.cross))
        family = DeformedFamily(data, flow)
        for s in (0.1, -1e-3):
            pos, N, w_daf = family.area_elements(s)
            assert N is data.N
            assert np.array_equal(w_daf, scale(s) ** 2 * data.w_da
                                  * np.exp(space.density.psi(pos)))
        assert calls == {"frame": 0, "cross": 0}

    def test_collapsed_slice_is_refused_before_its_density(self):
        """Scaling by 1 + s = 0 collapses the half-sphere onto the center,
        where the log-radial density takes log 0: the slice is refused as
        rank deficient, and the density is never evaluated there."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12,
                                                    "radial-log", k=-2.5)
        family = DeformedFamily(data, ScalingFlow())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImmersionError, match="rank deficient"):
                family.area_elements(-1.0)


class TestSimilarityFlows:
    """Every affine flow is a similarity lambda(s) Q(s) whose velocity turns
    with Q(s), so a slice keeps the base normal speed u0 and evaluates only
    its density."""

    @AFFINE_FLOWS
    @pytest.mark.parametrize("s", [1e-3, -1e-3, 0.2, -0.2])
    def test_velocity_turns_with_the_rotation(self, flow, s):
        """linear(s) = lambda Q with Q a rotation, the map is affine with
        that matrix, and velocity(s, P) = Q(s) velocity(0, P), each within
        4 eps; the velocity is the map's s-derivative."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        P = data.pos
        lam, Q = flow.scale(s), flow.rotation(s)
        assert cf.eps_apart(Q.T @ Q, np.eye(3)) <= 4.0
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=4 * cf.EPS)
        assert cf.eps_apart(flow.linear(s), lam * Q) <= 4.0
        moved = flow.map(s, P) - flow.map(s, np.zeros((1, 3)))
        assert cf.eps_apart(moved, P @ flow.linear(s).T) <= 8.0
        v0 = flow.velocity(0.0, P)
        scale = np.max(np.abs(v0))
        assert cf.eps_apart(flow.velocity(s, P) / scale,
                            v0 @ Q.T / scale) <= 4.0
        h = 1e-6
        fd = (flow.map(s + h, P) - flow.map(s - h, P)) / (2 * h)
        assert np.max(np.abs(fd - flow.velocity(s, P))) <= 1e-8 * scale

    @AFFINE_FLOWS
    def test_volume_rate_from_the_base_normal_speed(self, flow):
        """V_f'(s) = sum u0 w da_f matches the per-slice sum of
        <velocity(s), N_s> w da_f within 16 eps of the sum of its terms'
        magnitudes.  The surface sits in an ambient without boundary, where
        every flow here is admissible."""
        data = cf.free_geometry("hemisphere", 16, "radial-log", k=-1.3)
        family = DeformedFamily(data, flow)
        u0 = family.base_normal_speed
        assert np.array_equal(
            u0, np.sum(flow.velocity(0.0, data.pos) * data.N, axis=1))
        for s in (1e-3, -1e-3, 0.2, -0.2):
            _, N, w_daf = family.area_elements(s)
            rate = family._slice(s)[1]
            assert rate == float(np.sum(u0 * w_daf))
            terms = (np.sum(flow.velocity(s, data.pos) * N, axis=1)
                     * w_daf)
            assert (abs(rate - np.sum(terms))
                    <= 16 * cf.EPS * np.sum(np.abs(terms)))

    @AFFINE_FLOWS
    def test_slices_evaluate_only_their_density(self, monkeypatch, flow):
        """The base normal speed is taken once per family; after it, each
        slice calls no velocity and the density's psi once."""
        calls = {"velocity": 0, "psi": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        gaussian = make_density("gaussian")
        space = AmbientSpace(density=dataclasses.replace(
            gaussian, psi=counting("psi", gaussian.psi)))
        data = extrinsic_geometry(space, cf.cached_chart("hemisphere", 16))
        family = DeformedFamily(data, flow)
        family.weighted_area(0.2)
        monkeypatch.setattr(flow, "velocity",
                            counting("velocity", flow.velocity))
        calls["psi"] = 0
        # two Lobatto panels: 8 new slices
        swept_weighted_volume(family, [0.05, 0.1])
        assert calls == {"velocity": 0, "psi": 8}


def swirl():
    """X = (sin y, xz, cos x) with its Jacobian and second derivative."""
    def X(P):
        x, y, z = P.T
        return np.stack([np.sin(y), x * z, np.cos(x)], axis=-1)

    def Xjac(P):
        x, y, z = P.T
        DX = np.zeros((len(P), 3, 3))
        DX[:, 0, 1] = np.cos(y)
        DX[:, 1, 0], DX[:, 1, 2] = z, x
        DX[:, 2, 0] = -np.sin(x)
        return DX

    def Xhess(P):
        x, y, z = P.T
        D2X = np.zeros((len(P), 3, 3, 3))
        D2X[:, 0, 1, 1] = -np.sin(y)
        D2X[:, 1, 0, 2] = D2X[:, 1, 2, 0] = 1.0
        D2X[:, 2, 0, 0] = -np.cos(x)
        return D2X

    return X, Xjac, Xhess


class TestFamilySlices:
    @pytest.mark.parametrize("kind", ["hemisphere", "slice"])
    @pytest.mark.parametrize("flow", [
        TranslationFlow((0.6, 0.8, 0.0)), ScalingFlow((0.1, -0.2, 0.3)),
        RotationFlow((1.0, 1.0, 0.0), (0.0, 0.5, 0.0)), FieldFlow(*swirl()),
    ], ids=["translation", "scaling", "rotation", "field"])
    def test_slices_equal_the_generic_path(self, kind, flow):
        """A slice's area elements are its full geometry's: bit for bit at
        s = 0 and for a translation or a field flow, and to a few eps where
        a scaled or rotated slice takes Q N and lambda^2 w da from the
        base.  Most of these flows move the boundary plane, so
        the surfaces sit in an ambient without boundary here."""
        data = cf.free_geometry(kind, 12, "gaussian")
        family = DeformedFamily(data, flow)
        for s in (0.0, 1e-3, -1e-3, 0.2):
            full = family.geometry(s)
            pos, N, w_daf = family.area_elements(s)
            assert np.array_equal(pos, full.pos)
            A_f = family.weighted_area(s)
            if s == 0.0 or isinstance(flow, (TranslationFlow, FieldFlow)):
                assert np.array_equal(N, full.N)
                assert np.array_equal(w_daf, full.w_daf)
                assert A_f == np.sum(full.w_daf)
            else:
                cf.assert_affine_slice(family, s, N, w_daf, full.N,
                                       full.w_daf)
                assert A_f == pytest.approx(np.sum(full.w_daf),
                                            rel=16 * cf.EPS)

    @pytest.mark.parametrize("flow", [
        ScalingFlow((0.1, -0.2, 0.3)), RotationFlow((1.0, 2.0, 3.0)),
    ], ids=["scaling", "rotation"])
    def test_affine_slices_contract_no_hessian(self, monkeypatch, flow):
        """An affine flow's Hessian is zero: the flow has none to evaluate,
        a full slice contracts none and calls no np.einsum, and its frame
        derivatives F and boundary g'' keep the bits of the sums that
        added those zeros."""
        data = cf.free_geometry("cone", 12, "gaussian")
        s, P0, g0, dg0 = 0.1, data.pos, data.b_pos, data.b_dg

        def chain_rule(DF, D2F, J, H):
            """DF H + D2F(J, J), each entry an np.sum over the 3-long
            axes."""
            DFH = np.sum(DF[:, :, :, None, None] * H[:, None], axis=2)
            D2FJJ = np.sum(D2F[:, :, :, :, None, None]
                           * J[:, None, :, None, :, None]
                           * J[:, None, None, :, None, :], axis=(2, 3))
            return DFH + D2FJJ

        def zero_hess(P):
            return np.zeros((len(P), 3, 3, 3))

        assert not hasattr(flow, "hess")
        want_F = chain_rule(flow.jac(s, P0), zero_hess(P0), data.E, data.F)
        want_ddg = chain_rule(flow.jac(s, g0), zero_hess(g0),
                              dg0[:, :, None], data.b_ddg[:, :, None, None])

        def forbidden(*args, **kwargs):
            raise AssertionError("einsum called")
        monkeypatch.setattr(np, "einsum", forbidden)
        moved = DeformedFamily(data, flow).geometry(s)
        for got, want in ((moved.F, want_F),
                          (moved.b_ddg, want_ddg[:, :, 0, 0])):
            cf.assert_same_bits(got, want)

    @pytest.mark.parametrize("kind", ["hemisphere", "cone", "sphere"])
    @pytest.mark.parametrize("flow", [
        FieldFlow(*swirl()), ScalingFlow((0.1, -0.2, 0.3)),
        RotationFlow((1.0, 2.0, 3.0), (0.0, 0.5, 0.0)),
    ], ids=["field", "scaling", "rotation"])
    def test_slices_match_the_chart_first_association(self, kind, flow):
        """A family moves the base frame, Dphi (J D); composing the flow
        with the chart first, (Dphi J) D, differs by rounding only: N
        within 4 eps, w da_f within 16 eps relative, H_f within 64 eps,
        and K and |sigma|^2 within 48 eps of their largest value on the
        Gauss3 block (measured: 2.1, 9.8, 52, 24 and 27.6 eps).  On the
        collapsed block of a cap's rim triangles, K and |sigma|^2 are
        within 4 eps of the size (sum_ab |g^ab| |F_ab|)^2 of the terms they
        are summed from at each point (measured: 0.96 eps); there the
        cone's K, zero but for rounding, differs by 52 eps of its largest
        value."""
        data = cf.free_geometry(kind, 16, "gaussian")
        family = DeformedFamily(data, flow)
        for s in (1e-3, -5e-3, 0.2, -0.2):
            got, want = family.geometry(s), chart_first_slice(family, s)
            assert cf.eps_apart(got.N, want.N) <= 4.0
            assert cf.eps_apart(got.w_daf, want.w_daf, relative=True) <= 16.0
            assert cf.eps_apart(got.H_f, want.H_f) <= 64.0
            for block, rows in data.mesh.block_rows():
                for name in ("K", "sigma2"):
                    g, w = getattr(got, name)[rows], getattr(want, name)[rows]
                    if block.rule is surface.GAUSS3:
                        scale = float(np.max(np.abs(w)))
                        assert cf.eps_apart(g, w) <= 48.0 * scale, name
                        continue
                    size = sum(np.abs(want.Ginv[rows, a, b])
                               * np.linalg.norm(want.F[rows, :, a, b], axis=1)
                               for a in range(2) for b in range(2)) ** 2
                    assert np.max(np.abs(g - w) / size) <= 4.0 * cf.EPS, name

    @pytest.mark.parametrize("exact_slice", ["cone-cap", "slab-slice"])
    def test_slices_match_exact_surfaces(self, exact_slice):
        """Scaling a cone cap about the apex gives the cap of radius 1 + s,
        translating a slab slice gives the slice with origin (s, 0, 0):
        every interior and boundary field agrees to rounding."""
        if exact_slice == "cone-cap":
            space, imm, mesh, data = cf.cached_geometry(
                "cone", 24, "radial-smooth", coeffs=(0.0, 0.0, 0.5))
            flow = ScalingFlow()

            def exact(s):
                return SphericalCap(radius=1.0 + s, alpha=0.7)
        else:
            space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                        a=(1.0, 0.0, 0.0))
            flow = TranslationFlow((1, 0, 0))

            def exact(s):
                return RectPatch(origin=(s, 0, 0), du=(0, 1, 0),
                                 dv=(0, 0, 1), u_range=(0.0, TAU),
                                 v_range=(-1.0, 1.0), periodic_u=True)
        family = DeformedFamily(data, flow)
        for s in (0.1, -0.1):
            got = family.geometry(s)
            want = extrinsic_geometry(
                space, surface_chart(exact(s), mesh.resolution))
            assert got.has_boundary
            for f in dataclasses.fields(want) + dataclasses.fields(want.chart):
                a = getattr(got, f.name)
                b = getattr(want, f.name)
                if not isinstance(b, np.ndarray):      # the chart, the mesh
                    continue
                assert a.shape == b.shape, f.name
                scale = max(1.0, float(np.max(np.abs(b))))
                assert np.max(np.abs(a - b)) <= 1e-12 * scale, f.name

    def test_family_evaluates_no_chart_of_its_own(self, monkeypatch):
        """Both FD variations, a swept volume and a full slice read the base
        chart: a family blends no quadrature point and evaluates no chart."""
        def forbidden(*args, **kwargs):
            raise AssertionError("chart evaluated")

        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12,
                                                    "radial-log", k=-2.5)
        family = DeformedFamily(data, ScalingFlow())
        monkeypatch.setattr(surface, "_blended_param_points", forbidden)
        for name in ("chart", "chart_jac", "chart_hess"):
            monkeypatch.setattr(type(imm), name, forbidden)
        first_variation_fd(family)
        second_variation_fd(family)
        swept_weighted_volume(family, [0.1])
        assert family.geometry(0.1).has_boundary

    def test_slices_carry_the_base_space(self):
        """A family moves the surface in the ambient of its base geometry:
        every slice keeps that space and is weighted by its density."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16,
                                                    "radial-log", k=-2.5)
        family = DeformedFamily(data, ScalingFlow())
        for s in (0.1, -0.1):
            moved = family.geometry(s)
            assert moved.space is data.space
            assert np.array_equal(
                moved.f, np.exp(data.space.density.psi(moved.pos)))
        # A_f(1 + s) = 2 pi (1 + s)^(2 + k), so A_f'(0) = 2 pi (2 + k)
        assert first_variation_fd(family).value == pytest.approx(
            TAU * (2.0 - 2.5), rel=1e-3)

    def test_base_geometry_is_reused_only_for_its_rules(self):
        """The slice at 0 is the base geometry itself."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        family = DeformedFamily(data, ScalingFlow())
        assert family.geometry(0.0) is data
        pos, N, w_daf = family.area_elements(0.0)
        assert pos is data.pos and N is data.N
        assert np.array_equal(w_daf, data.w_daf)


class TestFirstVariation:
    """The unit hemisphere's inflation at resolution 24: A_f' = 4 pi and
    V_f' = 2 pi within 2e-8 relative, the quadrature error of A_f
    (measured: 4.7e-9 on all three; 1.16e-5 under Gauss3 on the rim
    triangles)."""

    def test_hemisphere_inflation_formula_is_4pi(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        val = first_variation_formula(DeformedFamily(data, ScalingFlow()))
        assert val == pytest.approx(2.0 * TAU, rel=2e-8)

    def test_hemisphere_inflation_fd_matches(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(data, ScalingFlow())
        fd = first_variation_fd(family)
        assert fd.value == pytest.approx(2.0 * TAU, rel=2e-8)
        assert fd.error_estimate < 1e-5

    @pytest.mark.parametrize("kind,density,params,flow", [
        ("hemisphere", "gaussian", {}, ScalingFlow()),
        ("hemisphere", "radial-log", {"k": -2.5}, ScalingFlow()),
        ("slice", "linear", {"a": (1.0, 0.0, 0.0)}, TranslationFlow((1, 0, 0))),
        ("slice", "gaussian", {}, TranslationFlow((1, 0, 0))),
    ])
    def test_fd_matches_formula(self, kind, density, params, flow):
        space, imm, mesh, data = cf.cached_geometry(kind, 24, density,
                                                    **params)
        family = DeformedFamily(data, flow)
        formula = first_variation_formula(family)
        fd = first_variation_fd(family)
        assert fd.value == pytest.approx(formula,
                                         abs=max(1e-6, 1e-4 * abs(formula)))

    def test_rotation_leaves_area_invariant(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24,
                                                    "gaussian")
        family = DeformedFamily(data, RotationFlow())
        formula = first_variation_formula(family)
        fd = first_variation_fd(family)
        assert abs(formula) < 1e-10
        assert abs(fd.value) < 1e-8

    def test_volume_first_variation_of_inflation(self):
        """V_f'(0) = int u da_f, with u = 1 on the unit hemisphere."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(data, ScalingFlow())
        assert family._slice(0.0)[1] == pytest.approx(TAU, rel=2e-8)

    def test_inadmissible_field_is_rejected(self):
        """Tilting the half-sphere about the x axis turns its boundary off
        the plane z = 0."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        with pytest.raises(InputError, match="not tangent"):
            DeformedFamily(data, RotationFlow((1, 0, 0)))


SAMPLE_SIDES = ([0.05, 0.1, 0.15, 0.2], [-0.05, -0.1, -0.15, -0.2])


class TestSweptVolume:
    def test_hemisphere_inflation_shell(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(data, ScalingFlow())
        s = 0.1
        expected = (TAU / 3.0) * ((1.0 + s)**3 - 1.0)
        assert swept_weighted_volume(family, [s])[0] == pytest.approx(
            expected, rel=1e-4)

    @pytest.mark.parametrize("grid", SAMPLE_SIDES)
    def test_hemisphere_grid_matches_one_panel_calls(self, grid):
        """The inflation rate is a quadratic in s, so one Lobatto panel is
        exact and the panels may only differ from it by rounding."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(data, ScalingFlow())
        volumes = swept_weighted_volume(family, grid)
        for s, v in zip(grid, volumes):
            assert abs(v - swept_weighted_volume(family, [s])[0]) <= 1e-13

    def test_negative_parameter_flips_sign(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 16)
        family = DeformedFamily(data, ScalingFlow())
        assert swept_weighted_volume(family, [-0.1])[0] < 0.0
        assert swept_weighted_volume(family, [0.0]) == [0.0]
        assert swept_weighted_volume(family, []) == []

    def test_slab_translation_closed_form(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16)
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
        for grid in SAMPLE_SIDES:
            volumes = swept_weighted_volume(family, grid)
            assert volumes == pytest.approx([s * 2.0 * TAU for s in grid],
                                            rel=1e-12)

    @pytest.mark.parametrize("grid", [[0.1, 0.05], [0.1, -0.2],
                                      [-0.1, 0.0], [float("nan")]])
    def test_grid_must_move_away_from_zero_on_one_side(self, grid):
        space, imm, mesh, data = cf.cached_geometry("slice", 8)
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
        with pytest.raises(InputError):
            swept_weighted_volume(family, grid)

    def test_each_slice_is_evaluated_once(self, monkeypatch):
        """Neighbouring panels share their end slices, and A_f(s) at a grid
        value reuses the volume's slice: 4 panels take 17 slices."""
        space, imm, mesh, data = cf.cached_geometry("slice", 8)
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
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


class TestBoundaryStaysOnTheAmbientBoundary:
    """A slice whose boundary leaves the ambient boundary is not a
    deformation by hypersurfaces with boundary in the ambient boundary."""

    def test_lifting_the_hemisphere_is_rejected(self):
        """The family is refused when it is built, before any slice."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        with pytest.raises(InputError, match="not tangent"):
            DeformedFamily(data, TranslationFlow((0, 0, 1)))

    def test_nan_velocity_on_the_boundary_is_rejected(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        with pytest.raises(InputError, match=r"max \|<X, xi>\| = nan"):
            DeformedFamily(data, FieldFlow(
                lambda P: np.full(P.shape, np.nan),
                lambda P: np.zeros((len(P), 3, 3)),
                lambda P: np.zeros((len(P), 3, 3, 3))))

    def test_nan_level_set_is_rejected(self):
        """The flow is tangent to the ambient boundary at s = 0, where the
        family is built, and leaves it later: the slice is refused."""
        # phi is 0 on the unit circle, where the base's boundary lies, and
        # NaN off it
        spec = BoundarySpec(
            lambda P: np.where(np.abs(np.linalg.norm(P, axis=1) - 1.0)
                               <= 1e-12, 0.0, np.nan),
            lambda P: np.tile([0.0, 0.0, 1.0], (len(P), 1)),
            lambda P: np.zeros((len(P), 3, 3)))
        space = AmbientSpace(density=make_density("constant"),
                             boundary=spec)
        data = extrinsic_geometry(space, surface_chart(PlanarDisk(), 8))
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
        with pytest.raises(InputError, match=r"s = 0\.1\b"):
            family.geometry(0.1)

    @pytest.mark.parametrize("flow", [
        TranslationFlow((0.6, 0.8, 0.0)), ScalingFlow(),
        RotationFlow((0, 0, 1), (0.3, 0.0, 0.0))],
        ids=["translation", "scaling", "rotation"])
    def test_flows_that_keep_the_boundary_plane_pass(self, flow):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        family = DeformedFamily(data, flow)
        for s in (0.1, -0.1):
            data = family.geometry(s)
            assert np.max(np.abs(data.b_pos[:, 2])) <= 1e-15
            assert np.max(np.abs(data.contact)) <= 1e-12


class TestSecondVariation:
    def test_hemisphere_inflation_is_minus_4pi(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24)
        family = DeformedFamily(data, ScalingFlow())
        fd = second_variation_fd(family)
        assert fd.value == pytest.approx(-2.0 * TAU, rel=1e-3)

    def test_flat_slice_translation_is_neutral(self):
        space, imm, mesh, data = cf.cached_geometry("slice", 16, "linear",
                                                    a=(1.0, 0.0, 0.0))
        family = DeformedFamily(data, TranslationFlow((1, 0, 0)))
        fd = second_variation_fd(family)
        assert abs(fd.value) < 1e-6

    def test_vertex_normal_speed_of_inflation_is_one(self):
        """Scaling the unit hemisphere about its center moves each vertex
        along its unit normal at unit speed."""
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 12)
        u = DeformedFamily(data, ScalingFlow()).vertex_normal_speed()
        assert u.shape == (mesh.n_vertices,)
        assert np.allclose(u, 1.0, rtol=0.0, atol=1e-14)

    def test_requires_stationary_base(self):
        """A disk off the ball's center meets its sphere at an angle; the
        rotation about the z axis through the center is tangent to the
        sphere, so the family is admissible and only the base fails."""
        space = cf.space_ball(radius=1.0, center=(2.0, 0.0, 0.0))
        rho = math.sqrt(1.0 - 0.25)
        imm = PlanarDisk(center=(2, 0, 0.5), e1=(1, 0, 0), e2=(0, 1, 0),
                         radius=rho)
        data = extrinsic_geometry(space, surface_chart(imm, 12))
        family = DeformedFamily(data, RotationFlow((0, 0, 1), (2, 0, 0)))
        with pytest.raises(PreconditionError):
            second_variation_fd(family)


class TestDivergenceTheorem:
    """The weighted divergence theorem in its first-variation form: along
    the flow of X, A_f'(0) = int div_f X da_f, which integration by parts
    turns into -int H_f <X, N> da_f - int <X, nu> dl_f."""

    @staticmethod
    def residual(data, flow):
        family = DeformedFamily(data, flow)
        return abs(first_variation_fd(family).value
                   - first_variation_formula(family))

    @pytest.mark.parametrize("density,params", [
        ("constant", {}),
        ("gaussian", {}),
        ("radial-log", {"k": -2.0}),
    ])
    def test_position_field_on_hemisphere(self, density, params):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24, density,
                                                    **params)
        assert self.residual(data, ScalingFlow()) < 1e-6

    def test_tangential_rotation_field(self):
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 24,
                                                    "gaussian")
        assert self.residual(data, RotationFlow()) < 1e-6
