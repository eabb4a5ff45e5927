"""Tests for ambient spaces, densities, and boundary curvature operators."""
import itertools

import numpy as np
import pytest

import conftest as cf
from conftest import (boundary_f_mean_curvature, make_boundary,
                      make_density, make_space)
from wstab.ambient import (BOUNDARY_REGISTRY, DENSITY_REGISTRY, DensityJet,
                           boundary_normal_and_ii, dot, norm, ordered_sum,
                           squared_norm, trace)
from wstab.errors import InputError, SingularBoundaryError
from wstab.functionals import RotationFlow, ScalingFlow, TranslationFlow
from wstab.scenarios import FLOW_REGISTRY, SURFACE_REGISTRY

RNG = np.random.default_rng(7)

# steps of the finite-difference references (relative to 1 + |p|)
FD_STEP_GRAD = 1e-5
FD_STEP_HESS = 2e-4


def fd_grad_psi(density, P):
    """Central differences of psi along each axis."""
    h = FD_STEP_GRAD * (1.0 + np.linalg.norm(P, axis=-1))
    out = np.empty_like(P)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        out[:, i] = (density.psi(P + h[:, None] * e)
                     - density.psi(P - h[:, None] * e)) / (2 * h)
    return out


def fd_hess_psi(density, P):
    """Second central differences of psi, mixed ones on the diagonals."""
    h = FD_STEP_HESS * (1.0 + np.linalg.norm(P, axis=-1))
    H = np.empty((len(P), 3, 3))
    psi0 = density.psi(P)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = 1.0
        H[:, i, i] = (density.psi(P + h[:, None] * ei) - 2 * psi0
                      + density.psi(P - h[:, None] * ei)) / h**2
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = 1.0
            hp = h[:, None]
            val = (density.psi(P + hp * (ei + ej))
                   - density.psi(P + hp * (ei - ej))
                   - density.psi(P - hp * (ei - ej))
                   + density.psi(P - hp * (ei + ej))) / (4 * h**2)
            H[:, i, j] = val
            H[:, j, i] = val
    return H


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


def row(p):
    """A single point as the 1-row batch every operation takes."""
    return np.asarray(p, float)[None, :]


class TestBakryEmeryRicci:
    def test_gaussian_is_two_for_all_unit_directions(self):
        space = make_space(density=("gaussian", {}))
        for _ in range(10):
            p = RNG.normal(size=3)
            v = unit(RNG.normal(size=3))
            jet = DensityJet(space.density, row(p))
            assert jet.bakry_emery_ricci(row(v))[0] == pytest.approx(
                2.0, abs=1e-10)

    def test_constant_density_is_flat(self):
        jet = DensityJet(make_space().density, row([1.0, 2.0, 3.0]))
        assert jet.bakry_emery_ricci(row([0, 0, 1.0]))[0] == 0.0

    def test_rejects_non_unit_direction(self):
        space = make_space(density=("gaussian", {}))
        jet = DensityJet(space.density, row([0.0, 0.0, 0.0]))
        with pytest.raises(InputError):
            jet.bakry_emery_ricci(row([0.0, 0.0, 2.0]))

    def test_batch_matches_pointwise(self):
        space = make_space(density=("radial-log", {"k": -2.0}))
        P = RNG.normal(size=(5, 3)) + 4.0
        V = np.stack([unit(v) for v in RNG.normal(size=(5, 3))])
        batch = DensityJet(space.density, P).bakry_emery_ricci(V)
        single = [DensityJet(space.density, row(p)).bakry_emery_ricci(
            row(v))[0] for p, v in zip(P, V)]
        assert np.allclose(batch, single, atol=1e-14)


class TestPerelmanScalar:
    def test_gaussian_closed_form(self):
        space = make_space(density=("gaussian", {}))
        for _ in range(10):
            p = RNG.normal(size=3)
            expected = 12.0 - 4.0 * np.dot(p, p)
            jet = DensityJet(space.density, row(p))
            assert jet.perelman_scalar()[0] == pytest.approx(expected,
                                                             abs=1e-10)

    @pytest.mark.parametrize("k", [-3.0, -2.5, -2.0, -1.0])
    def test_radial_log_closed_form(self, k):
        space = make_space(density=("radial-log", {"k": k}))
        for r in (0.5, 1.0, 2.0):
            p = r * unit(RNG.normal(size=3))
            expected = -k * (k + 2.0) / r**2
            jet = DensityJet(space.density, row(p))
            assert jet.perelman_scalar()[0] == pytest.approx(expected,
                                                             abs=1e-10)

    def test_constant_density_vanishes(self):
        jet = DensityJet(make_space().density, row([0.3, -0.2, 5.0]))
        assert jet.perelman_scalar()[0] == 0.0


class TestBoundaryOperators:
    def test_half_space_inner_normal(self):
        space = make_space(boundary=("half-space", {"axis": 2}))
        xi = boundary_normal_and_ii(space, row([0.3, -1.0, 0.0]))[0]
        assert np.allclose(xi, [[0, 0, 1]])

    def test_inner_normal_requires_boundary_point(self):
        space = make_space(boundary=("half-space", {"axis": 2}))
        with pytest.raises(InputError):
            boundary_normal_and_ii(space, row([0.0, 0.0, 0.5]))

    def test_inner_normal_rejects_nan_level_set(self):
        space = make_space(boundary=("half-space",
                                     {"offset": float("nan")}))
        with pytest.raises(InputError, match="not on the boundary"):
            boundary_normal_and_ii(space, row([0.0, 0.0, 0.0]))

    def test_inner_normal_rejects_nan_gradient(self):
        from wstab.ambient import AmbientSpace, BoundarySpec
        half = make_boundary("half-space", axis=2)
        nan_grad = BoundarySpec(half.phi,
                                lambda P: np.full((len(P), 3), np.nan),
                                half.hess_phi)
        space = AmbientSpace(density=make_density("constant"),
                             boundary=nan_grad)
        with pytest.raises(SingularBoundaryError):
            boundary_normal_and_ii(space, row([1.0, 0.0, 0.0]))

    def test_degenerate_gradient_is_singular(self):
        from wstab.ambient import AmbientSpace, BoundarySpec

        def phi(P):
            return P[:, 2]**2

        def grad(P):
            g = np.zeros_like(P)
            g[:, 2] = 2.0 * P[:, 2]
            return g

        def hess(P):
            H = np.zeros((len(P), 3, 3))
            H[:, 2, 2] = 2.0
            return H

        space = AmbientSpace(density=make_density("constant"),
                             boundary=BoundarySpec(phi, grad, hess))
        with pytest.raises(SingularBoundaryError):
            boundary_normal_and_ii(space, row([1.0, 0.0, 0.0]))

    def test_ball_second_fundamental_is_curvature_of_sphere(self):
        R = 2.0
        space = make_space(boundary=("ball", {"radius": R}))
        p = R * unit([1.0, 1.0, 0.3])
        xi, II = boundary_normal_and_ii(space, row(p))
        assert np.allclose(xi, row(-p / R))
        t = unit(np.cross(p, [0, 0, 1.0]))
        assert t @ II[0] @ t == pytest.approx(1.0 / R, abs=1e-12)

    def test_ball_complement_flips_sign(self):
        space = make_space(boundary=("ball-complement", {"radius": 1.0}))
        p = unit([0.2, -0.5, 0.8])
        t = unit(np.cross(p, [1.0, 0, 0]))
        II = boundary_normal_and_ii(space, row(p))[1][0]
        assert t @ II @ t == pytest.approx(-1.0, abs=1e-12)

    def test_cone_radial_direction_is_flat(self):
        space = make_space(boundary=("cone", {"alpha": 0.7}))
        n = unit([np.sin(0.7), 0.0, np.cos(0.7)])
        p = 1.3 * n
        II = boundary_normal_and_ii(space, row(p))[1][0]
        assert n @ II @ n == pytest.approx(0.0, abs=1e-12)

    def test_ii_matrix_restricts_to_directional_values(self):
        """On the tangent plane of a sphere of radius R the matrix is II =
        (1/R) I: every direction has curvature 1/R, with no cross term."""
        space = make_space(boundary=("ball", {"radius": 0.7}))
        p = 0.7 * unit([1.0, 2.0, -0.5])
        M = boundary_normal_and_ii(space, row(p))[1][0]
        t1 = unit(np.cross(p, [0.0, 0.0, 1.0]))
        t2 = unit(np.cross(p, t1))
        T = np.stack([t1, t2], axis=-1)
        assert np.allclose(T.T @ M @ T, np.eye(2) / 0.7, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k,r", [(-3.0, 1.0), (-2.0, 1.0), (-2.0, 2.0),
                                     (-1.0, 0.5)])
    def test_sphere_boundary_f_mean_curvature(self, k, r):
        """(H_f) of the inward-curving sphere M_r equals -(k+2)/r."""
        space = make_space(density=("radial-log", {"k": k}),
                           boundary=("ball-complement", {"radius": r}))
        p = r * unit(RNG.normal(size=3))
        got = boundary_f_mean_curvature(space, row(p))[0]
        assert got == pytest.approx(-(k + 2.0) / r, abs=1e-10)


class TestBallRadius:
    @pytest.mark.parametrize("name", ["ball", "ball-complement"])
    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"),
                                        float("inf")])
    def test_radius_must_be_positive_and_finite(self, name, radius):
        """A negative radius turned the ball inside out, so that the unit
        disk met it only after meshing, as a projection residual."""
        with pytest.raises(InputError, match=f"{name} radius must be "
                                             f"positive and finite"):
            make_boundary(name, radius=radius)


class TestDensityRegistry:
    @pytest.mark.parametrize("name,params,point_shift", [
        ("constant", {}, 0.0),
        ("gaussian", {}, 0.0),
        ("radial-log", {"k": -2.5}, 3.0),
        ("linear", {"a": (0.5, -1.0, 0.25), "b": 2.0}, 0.0),
        ("radial-smooth", {"coeffs": (0.0, 0.0, 0.5, -0.1)}, 3.0),
    ])
    def test_analytic_derivatives_match_finite_differences(self, name, params,
                                                           point_shift):
        density = make_density(name, **params)
        P = RNG.normal(size=(6, 3)) + point_shift
        assert np.allclose(density.grad_psi(P), fd_grad_psi(density, P),
                           atol=1e-7)
        assert np.allclose(density.hess_psi(P), fd_hess_psi(density, P),
                           atol=1e-5)


# parameters for every registry entry; a new entry needs one here
DENSITY_PARAMS = {"constant": {}, "gaussian": {}, "radial-log": {"k": -2.0},
                  "linear": {"a": (1.0, 0.0, 0.0)},
                  "radial-smooth": {"coeffs": (0.0, 0.0, 0.5)}}
BOUNDARY_PARAMS = {"none": {}, "half-space": {}, "slab": {}, "ball": {},
                   "ball-complement": {}, "cone": {"alpha": 0.7}}
FLOW_PARAMS = {"translation": {"direction": (1.0, 0.0, 0.0)}, "scaling": {},
               "rotation": {}}


def on_boundary(name, n, rng):
    """n points on the default boundary of each registry entry."""
    ang = rng.uniform(0.0, 2 * np.pi, n)
    t = rng.uniform(0.5, 2.0, n)
    if name == "half-space":
        return np.stack([t, ang, np.zeros(n)], axis=-1)
    if name == "slab":
        return np.stack([t, ang, np.where(np.arange(n) % 2, 1.0, -1.0)],
                        axis=-1)
    if name == "cone":
        s, c = np.sin(0.7), np.cos(0.7)
        return t[:, None] * np.stack([s * np.cos(ang), s * np.sin(ang),
                                      np.full(n, c)], axis=-1)
    P = rng.normal(size=(n, 3))                        # ball, ball-complement
    return P / np.linalg.norm(P, axis=1)[:, None]


class TestBatchConvention:
    """Every callback takes an (N, .) batch, N = 1 included, and returns
    one row per point."""

    def test_every_registry_entry_has_parameters(self):
        assert set(DENSITY_PARAMS) == set(DENSITY_REGISTRY)
        assert set(BOUNDARY_PARAMS) == set(BOUNDARY_REGISTRY)
        assert set(FLOW_PARAMS) == set(FLOW_REGISTRY)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("name", sorted(DENSITY_REGISTRY))
    def test_density(self, name, n):
        space = make_space(density=(name, DENSITY_PARAMS[name]))
        rng = np.random.default_rng(n)
        P = rng.normal(size=(n, 3)) + 3.0
        V = rng.normal(size=(n, 3))
        V /= np.linalg.norm(V, axis=1)[:, None]
        d = space.density
        assert d.psi(P).shape == (n,)
        assert d.grad_psi(P).shape == (n, 3)
        assert d.hess_psi(P).shape == (n, 3, 3)
        jet = DensityJet(d, P)
        assert jet.lap.shape == (n,)
        assert jet.bakry_emery_ricci(V).shape == (n,)
        assert jet.perelman_scalar().shape == (n,)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("name", sorted(BOUNDARY_REGISTRY))
    def test_boundary(self, name, n):
        space = make_space(boundary=(name, BOUNDARY_PARAMS[name]))
        P = on_boundary(name, n, np.random.default_rng(n))
        if name == "none":
            assert space.boundary is None
            with pytest.raises(InputError, match="no boundary"):
                boundary_normal_and_ii(space, P)
            return
        b = space.boundary
        assert b.phi(P).shape == (n,)
        assert b.grad_phi(P).shape == (n, 3)
        assert b.hess_phi(P).shape == (n, 3, 3)
        xi, II = boundary_normal_and_ii(space, P)
        assert xi.shape == (n, 3)
        assert II.shape == (n, 3, 3)
        assert boundary_f_mean_curvature(space, P).shape == (n,)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("name", sorted(SURFACE_REGISTRY))
    def test_immersion(self, name, n):
        imm = SURFACE_REGISTRY[name]()
        pd = imm.param_dim
        Q = 0.3 * np.random.default_rng(n).uniform(0.1, 1.0, size=(n, pd))
        assert imm.chart(Q).shape == (n, 3)
        assert imm.chart_jac(Q).shape == (n, 3, pd)
        assert imm.chart_hess(Q).shape == (n, 3, pd, pd)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("name", sorted(FLOW_REGISTRY))
    def test_flow(self, name, n):
        flow = FLOW_REGISTRY[name](**FLOW_PARAMS[name])
        P = np.random.default_rng(n).normal(size=(n, 3))
        assert flow.map(0.1, P).shape == (n, 3)
        assert flow.velocity(0.1, P).shape == (n, 3)
        assert flow.jac(0.1, P).shape == (n, 3, 3)


class TestColumnKernels:
    """The radius, and the translation, scaling and rotation maps, are
    arithmetic on (N,) columns, bit for bit the numpy forms over 3-long
    rows and the explicit component sums."""

    @staticmethod
    def points(seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((1000, 3))
                * 10.0 ** rng.uniform(-3.0, 3.0, (1000, 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_radius(self, seed):
        P = self.points(seed)
        assert np.array_equal(squared_norm(P), np.sum(P * P, axis=-1))
        assert np.array_equal(norm(P), np.linalg.norm(P, axis=-1))

    @staticmethod
    def signed_zeros(P):
        """P with its first rows +-0.0 in every sign pattern of its 3 (or
        9) entries and the next rows zero in all but one entry."""
        P = P.copy()
        k = P[0].size
        flat = P.reshape(len(P), k)
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        flat[:8] = 0.0 * np.resize(signs, (8, k))
        flat[8:8 + k] = np.where(np.eye(k, dtype=bool), flat[8:8 + k],
                                 -0.0)
        return P

    @staticmethod
    def layouts(P):
        """P point-major and component-major, values equal."""
        return P, np.moveaxis(np.ascontiguousarray(np.moveaxis(P, 0, -1)),
                              -1, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sums_over_a_3_long_axis(self, seed):
        """Each column kernel against the numpy form over 3-long rows that
        it replaces, bit for bit and sign for sign, zeros included, on
        either layout."""
        P0, V0 = (self.signed_zeros(self.points(seed + k)) for k in (0, 3))
        A0 = self.signed_zeros(np.stack([self.points(seed + k)
                                         for k in (6, 7, 8)], axis=1))
        for P, V, A in zip(self.layouts(P0), self.layouts(V0),
                           self.layouts(A0)):
            cf.assert_same_bits(ordered_sum(P.T), np.sum(P, axis=1))
            cf.assert_same_bits(dot(P.T, V.T), np.sum(P * V, axis=-1))
            cf.assert_same_bits(squared_norm(P), np.sum(P * P, axis=-1))
            cf.assert_same_bits(norm(P), np.linalg.norm(P, axis=-1))
            cf.assert_same_bits(trace(A), np.trace(A, axis1=-2, axis2=-1))

    def test_a_sum_of_negative_zeros_is_positive(self):
        """numpy's sums start from +0.0; a bare (x0 + x1) + x2 would give
        -0.0."""
        zeros = np.full((4, 3), -0.0)
        assert not np.any(np.signbit(np.sum(zeros, axis=1)))
        cf.assert_same_bits(ordered_sum(zeros.T), np.sum(zeros, axis=1))
        cf.assert_same_bits(dot(zeros.T, np.ones((3, 4))),
                            np.sum(zeros, axis=1))

    @pytest.mark.parametrize("name,params", [
        ("gaussian", {}), ("radial-log", {"k": -2.6}),
        ("radial-smooth", {"coeffs": (0.3, -0.2, 0.5)})])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_density_hessians(self, name, params, seed):
        """The Hessians, each symmetric entry computed once into a
        component-major buffer, against the broadcast forms over (N, 3, 3)
        that they replace."""
        P = self.points(seed)
        eye = np.eye(3)[None]
        if name == "gaussian":
            want = np.broadcast_to(-2.0 * np.eye(3), (len(P), 3, 3)).copy()
        elif name == "radial-log":
            r2 = np.sum(P * P, axis=-1)
            want = params["k"] * (eye / r2[:, None, None]
                                  - 2.0 * P[:, :, None] * P[:, None, :]
                                  / (r2 ** 2)[:, None, None])
        else:
            g = np.polynomial.Polynomial(params["coeffs"])
            r = np.linalg.norm(P, axis=-1)
            n = P / r[:, None]
            nn = n[:, :, None] * n[:, None, :]
            want = (g.deriv(2)(r)[:, None, None] * nn
                    + (g.deriv()(r) / r)[:, None, None] * (eye - nn))
        for Q in self.layouts(P):
            H = make_density(name, **params).hess_psi(Q)
            cf.assert_same_bits(H, want)
            assert all(H[:, i, j].flags.c_contiguous
                       for i in range(3) for j in range(3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_translation_and_scaling(self, seed):
        P, s = self.points(seed), 0.1 * (seed - 1.5)
        d, c = self.points(seed + 3)[:2]
        translation, scaling = TranslationFlow(d), ScalingFlow(c)
        for got, want in (
                (translation.map(s, P), P + s * d),
                (translation.velocity(s, P), np.broadcast_to(d, P.shape)),
                (scaling.map(s, P), c + (1.0 + s) * (P - c)),
                (scaling.velocity(s, P), P - c)):
            assert got.shape == P.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotation(self, seed):
        """Q(s)(p - c) added (q_i0 r0 + q_i1 r1) + q_i2 r2 per component,
        then c + Q(s)(p - c) and a x Q(s)(p - c), with no matrix product."""
        P, s = self.points(seed), 0.1 * (seed - 1.5)
        a, c = self.points(seed + 3)[:2]
        flow = RotationFlow(a, c)
        Q, (a0, a1, a2) = flow.rotation(s), flow.a
        r = P - c
        t0, t1, t2 = ((Q[i, 0] * r[:, 0] + Q[i, 1] * r[:, 1])
                      + Q[i, 2] * r[:, 2] for i in range(3))
        for got, want in (
                (flow.map(s, P), np.stack([c[0] + t0, c[1] + t1,
                                           c[2] + t2], axis=1)),
                (flow.velocity(s, P), np.stack([a1 * t2 - a2 * t1,
                                                a2 * t0 - a0 * t2,
                                                a0 * t1 - a1 * t0], axis=1))):
            assert got.shape == P.shape
            assert np.array_equal(got, want)
