"""Tests for ambient spaces, densities, and boundary curvature operators."""
import numpy as np
import pytest

from wstab.ambient import (bakry_emery_ricci, boundary_f_mean_curvature,
                           boundary_ii_matrix, boundary_inner_normal,
                           boundary_second_fundamental,
                           density_consistency_check, fd_grad_psi, fd_hess_psi,
                           make_boundary, make_density, make_space,
                           perelman_scalar)
from wstab.errors import InputError, SingularBoundaryError

RNG = np.random.default_rng(7)


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


class TestBakryEmeryRicci:
    def test_gaussian_is_two_for_all_unit_directions(self):
        space = make_space(density=("gaussian", {}))
        for _ in range(10):
            p = RNG.normal(size=3)
            v = unit(RNG.normal(size=3))
            assert bakry_emery_ricci(space, p, v) == pytest.approx(2.0, abs=1e-10)

    def test_constant_density_is_flat(self):
        space = make_space()
        assert bakry_emery_ricci(space, [1.0, 2.0, 3.0], [0, 0, 1.0]) == 0.0

    def test_rejects_non_unit_direction(self):
        space = make_space(density=("gaussian", {}))
        with pytest.raises(InputError):
            bakry_emery_ricci(space, [0.0, 0.0, 0.0], [0.0, 0.0, 2.0])

    def test_batch_matches_pointwise(self):
        space = make_space(density=("radial-log", {"k": -2.0}))
        P = RNG.normal(size=(5, 3)) + 4.0
        V = np.stack([unit(v) for v in RNG.normal(size=(5, 3))])
        batch = bakry_emery_ricci(space, P, V)
        single = [bakry_emery_ricci(space, p, v) for p, v in zip(P, V)]
        assert np.allclose(batch, single, atol=1e-14)


class TestPerelmanScalar:
    def test_gaussian_closed_form(self):
        space = make_space(density=("gaussian", {}))
        for _ in range(10):
            p = RNG.normal(size=3)
            expected = 12.0 - 4.0 * np.dot(p, p)
            assert perelman_scalar(space, p) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("k", [-3.0, -2.5, -2.0, -1.0])
    def test_radial_log_closed_form(self, k):
        space = make_space(density=("radial-log", {"k": k}))
        for r in (0.5, 1.0, 2.0):
            p = r * unit(RNG.normal(size=3))
            expected = -k * (k + 2.0) / r**2
            assert perelman_scalar(space, p) == pytest.approx(expected, abs=1e-10)

    def test_constant_density_vanishes(self):
        space = make_space()
        assert perelman_scalar(space, [0.3, -0.2, 5.0]) == 0.0


class TestBoundaryOperators:
    def test_half_space_inner_normal(self):
        space = make_space(boundary=("half-space", {"axis": 2}))
        xi = boundary_inner_normal(space, [0.3, -1.0, 0.0])
        assert np.allclose(xi, [0, 0, 1])

    def test_inner_normal_requires_boundary_point(self):
        space = make_space(boundary=("half-space", {"axis": 2}))
        with pytest.raises(InputError):
            boundary_inner_normal(space, [0.0, 0.0, 0.5])

    def test_inner_normal_rejects_nan_level_set(self):
        space = make_space(boundary=("half-space",
                                     {"offset": float("nan")}))
        with pytest.raises(InputError, match="not on the boundary"):
            boundary_inner_normal(space, [0.0, 0.0, 0.0])

    def test_inner_normal_rejects_nan_gradient(self):
        from wstab.ambient import AmbientSpace, BoundarySpec
        half = make_boundary("half-space", axis=2)
        nan_grad = BoundarySpec(half.phi,
                                lambda P: np.full((len(P), 3), np.nan),
                                half.hess_phi)
        space = AmbientSpace(dim=3, density=make_density("constant"),
                             boundary=nan_grad)
        with pytest.raises(SingularBoundaryError):
            boundary_inner_normal(space, [1.0, 0.0, 0.0])

    def test_degenerate_gradient_is_singular(self):
        from wstab.ambient import BoundarySpec

        def phi(P):
            P = np.atleast_2d(P)
            return P[:, 2]**2

        def grad(P):
            P = np.atleast_2d(P)
            g = np.zeros_like(P)
            g[:, 2] = 2.0 * P[:, 2]
            return g

        def hess(P):
            P = np.atleast_2d(P)
            H = np.zeros((len(P), 3, 3))
            H[:, 2, 2] = 2.0
            return H

        space = make_space()
        space = type(space)(dim=3, density=space.density,
                            boundary=BoundarySpec(phi, grad, hess, "degenerate"))
        with pytest.raises(SingularBoundaryError):
            boundary_inner_normal(space, [1.0, 0.0, 0.0])

    def test_ball_second_fundamental_is_curvature_of_sphere(self):
        R = 2.0
        space = make_space(boundary=("ball", {"radius": R}))
        p = R * unit([1.0, 1.0, 0.3])
        xi = boundary_inner_normal(space, p)
        assert np.allclose(xi, -p / R)
        t = unit(np.cross(p, [0, 0, 1.0]))
        assert boundary_second_fundamental(space, p, t, t) == pytest.approx(
            1.0 / R, abs=1e-12)

    def test_ball_complement_flips_sign(self):
        space = make_space(boundary=("ball-complement", {"radius": 1.0}))
        p = unit([0.2, -0.5, 0.8])
        t = unit(np.cross(p, [1.0, 0, 0]))
        assert boundary_second_fundamental(space, p, t, t) == pytest.approx(
            -1.0, abs=1e-12)

    def test_cone_radial_direction_is_flat(self):
        space = make_space(boundary=("cone", {"alpha": 0.7}))
        n = unit([np.sin(0.7), 0.0, np.cos(0.7)])
        p = 1.3 * n
        assert boundary_second_fundamental(space, p, n, n) == pytest.approx(
            0.0, abs=1e-12)

    def test_second_fundamental_rejects_non_tangent(self):
        space = make_space(boundary=("ball", {"radius": 1.0}))
        p = unit([1.0, 0, 0])
        with pytest.raises(InputError):
            boundary_second_fundamental(space, p, p, p)

    def test_ii_matrix_restricts_to_directional_values(self):
        space = make_space(boundary=("ball", {"radius": 0.7}))
        p = 0.7 * unit([1.0, 2.0, -0.5])
        M = boundary_ii_matrix(space, p)
        t = unit(np.cross(p, [0.0, 0.0, 1.0]))
        assert t @ M @ t == pytest.approx(
            boundary_second_fundamental(space, p, t, t), abs=1e-12)

    @pytest.mark.parametrize("k,r", [(-3.0, 1.0), (-2.0, 1.0), (-2.0, 2.0),
                                     (-1.0, 0.5)])
    def test_sphere_boundary_f_mean_curvature(self, k, r):
        """(H_f) of the inward-curving sphere M_r equals -(k+2)/r."""
        space = make_space(density=("radial-log", {"k": k}),
                           boundary=("ball-complement", {"radius": r}))
        p = r * unit(RNG.normal(size=3))
        got = boundary_f_mean_curvature(space, p)
        assert got == pytest.approx(-(k + 2.0) / r, abs=1e-10)


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

    def test_consistency_check_passes_for_registry(self):
        for name, params, shift in [("gaussian", {}, 0.0),
                                    ("radial-log", {"k": -2.0}, 3.0)]:
            space = make_space(density=(name, params))
            P = RNG.normal(size=(8, 3)) + shift
            report = density_consistency_check(space, P)
            assert report.passed

    def test_unknown_names_rejected(self):
        with pytest.raises(InputError):
            make_density("no-such-density")
        with pytest.raises(InputError):
            make_boundary("no-such-boundary")

    def test_f_is_exp_psi(self):
        density = make_density("linear", a=(1.0, 0.0, 0.0))
        p = np.array([0.3, 7.0, -2.0])
        assert density.f(p) == pytest.approx(np.exp(0.3), rel=1e-14)
