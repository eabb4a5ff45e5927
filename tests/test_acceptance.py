"""Acceptance suite: ten end-to-end criteria, one printed line each.

Each criterion prints a single [PASS]/[FAIL] line on the real stdout so
the verdicts are visible even under pytest output capture.
"""
import contextlib
import functools
import json
import math
import sys
import time

import numpy as np
import pytest

import conftest as cf
from conftest import boundary_f_mean_curvature, make_space
from wstab.ambient import DensityJet
from wstab.functionals import (DeformedFamily, FieldFlow, RotationFlow,
                               ScalingFlow, TranslationFlow,
                               first_variation_fd, first_variation_formula,
                               second_variation_fd)
from wstab.scenarios import builtin_names, builtin_scenario, run_scenario
from wstab.stability import (assemble, index_form_value, jacobi_fd_check,
                             robin_eigenproblem, volume_constrained_verdict)
from wstab.surface import extrinsic_geometry
from wstab.theorems import (boundary_identity_residual,
                            gauss_rearrangement_residual)

TAU = 2.0 * math.pi
RNG = np.random.default_rng(23)

DISK_CENTER = np.array([2.0, 0.0, 0.0])


@contextlib.contextmanager
def criterion(number, budget=None):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except Exception:
        print(f"[FAIL] criterion-{number}: {info['detail']}",
              file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    line = f"[PASS] criterion-{number}: {info['detail']} ({elapsed:.1f}s)"
    print(line, file=sys.__stdout__)
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {number} runtime {elapsed:.1f}s exceeds {budget}s"


# ---------------------------------------------------------------------------
# reusable pieces
# ---------------------------------------------------------------------------

def axial_z_field(direction):
    """X(p) = z * d with analytic Jacobian; vanishes on the plane z = 0."""
    d = np.asarray(direction, float)

    def X(P):
        P = np.atleast_2d(P)
        return P[:, 2][:, None] * d

    def Xjac(P):
        J = np.zeros((len(np.atleast_2d(P)), 3, 3))
        J[:, :, 2] = d
        return J

    def Xhess(P):
        return np.zeros((len(np.atleast_2d(P)), 3, 3, 3))

    return X, Xjac, Xhess


def parabolic_field():
    """X(p) = (1 - z^2) e1; vanishes on the slab walls z = +-1."""

    def X(P):
        P = np.atleast_2d(P)
        out = np.zeros_like(P)
        out[:, 0] = 1.0 - P[:, 2]**2
        return out

    def Xjac(P):
        J = np.zeros((len(np.atleast_2d(P)), 3, 3))
        J[:, 0, 2] = -2.0 * np.atleast_2d(P)[:, 2]
        return J

    def Xhess(P):
        H = np.zeros((len(np.atleast_2d(P)), 3, 3, 3))
        H[:, 0, 2, 2] = -2.0
        return H

    return X, Xjac, Xhess


def bump_field(direction):
    """X(p) = (1 - |p - c|^2) d; vanishes on the unit sphere around c."""
    d = np.asarray(direction, float)

    def X(P):
        P = np.atleast_2d(P)
        w = 1.0 - np.sum((P - DISK_CENTER)**2, axis=1)
        return w[:, None] * d

    def Xjac(P):
        P = np.atleast_2d(P)
        return -2.0 * np.einsum("i,na->nia", d, P - DISK_CENTER)

    def Xhess(P):
        """D^2 X = -2 d (x) I."""
        return np.broadcast_to(-2.0 * np.einsum("i,ab->iab", d, np.eye(3)),
                               (len(np.atleast_2d(P)), 3, 3, 3))

    return X, Xjac, Xhess


def bump_plus_rotation():
    """Mixed normal/tangential field, still tangent to the ball boundary."""
    e3 = np.array([0.0, 0.0, 1.0])
    Xb, Jb, Hb = bump_field((0, 0, 1))
    ax = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def X(P):
        P = np.atleast_2d(P)
        return Xb(P) + np.cross(e3, P - DISK_CENTER)

    def Xjac(P):
        return Jb(P) + ax[None]

    # the rotation part is linear
    return X, Xjac, Hb


# surfaces x densities used by criteria 2 and 6; the slice lives in a
# product space with a periodic circle direction, so its densities must be
# constant along that direction to be well defined on the quotient
MATRIX = {
    "hemisphere": [("constant", {}), ("gaussian", {}),
                   ("radial-log", {"k": -2.0}), ("radial-log", {"k": -1.0})],
    "disk": [("constant", {}), ("gaussian", {}),
             ("radial-log", {"k": -2.0}), ("radial-log", {"k": -1.0})],
    "slice": [("constant", {}), ("linear", {"a": (1.0, 0.0, 0.0)}),
              ("linear", {"a": (0.0, 0.0, 1.0)}),
              ("linear", {"a": (1.0, 0.0, 1.0)})],
}


def matrix_flows(kind):
    if kind == "hemisphere":
        return [ScalingFlow(), RotationFlow(), TranslationFlow((1, 0, 0))]
    if kind == "disk":
        return [FieldFlow(*bump_field((0, 0, 1))),
                RotationFlow(axis=(0, 0, 1), point=tuple(DISK_CENTER)),
                FieldFlow(*bump_plus_rotation())]
    return [TranslationFlow((1, 0, 0)), TranslationFlow((0, 1, 0)),
            TranslationFlow((1, 1, 0))]


@functools.lru_cache(maxsize=None)
def builtin_run(name, pass_id):
    result = run_scenario(builtin_scenario(name))
    blob = json.dumps(result.report, sort_keys=True)
    return result, blob


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_curvature_closed_forms():
    with criterion(1, budget=1.0) as info:
        gauss = make_space(density=("gaussian", {}))
        # 20 (p, v) pairs, each p drawn before its v
        P, V = RNG.normal(size=(20, 2, 3)).transpose(1, 0, 2)
        V /= np.linalg.norm(V, axis=1)[:, None]
        jet = DensityJet(gauss.density, P)
        worst = max(
            float(np.max(np.abs(jet.bakry_emery_ricci(V) - 2.0))),
            float(np.max(np.abs(jet.perelman_scalar()
                                - (12.0 - 4.0 * np.sum(P * P, axis=1))))))
        for k in (-3.0, -2.5, -2.0, -1.0):
            for r in (0.5, 1.0, 2.0):
                space = make_space(density=("radial-log", {"k": k}),
                                   boundary=("ball-complement",
                                             {"radius": r}))
                p = r * RNG.normal(size=(1, 3))
                p *= r / np.linalg.norm(p)
                S_f = DensityJet(space.density, p).perelman_scalar()[0]
                worst = max(worst, abs(S_f + k * (k + 2.0) / np.sum(p * p)))
                worst = max(worst, abs(boundary_f_mean_curvature(space, p)[0]
                                       + (k + 2.0) / r))
        assert worst < 1e-10
        info["detail"] = f"closed-form max error {worst:.2e}"


def test_criterion_2_first_variation_matrix():
    with criterion(2, budget=30.0) as info:
        worst = 0.0
        count = 0
        for kind, densities in MATRIX.items():
            for dens, params in densities:
                space, imm, mesh, data = cf.cached_geometry(kind, 16, dens,
                                                            **params)
                for flow in matrix_flows(kind):
                    family = DeformedFamily(data, flow)
                    formula = first_variation_formula(family)
                    fd = first_variation_fd(family)
                    diff = abs(fd.value - formula)
                    assert diff <= max(1e-6, 1e-4 * abs(formula)), \
                        f"{kind}/{dens}/{type(flow).__name__}: diff {diff:.2e}"
                    worst = max(worst, diff)
                    count += 1
        assert count == 36
        # hemisphere inflation oracle at constant density
        space, imm, mesh, data = cf.cached_geometry("hemisphere", 32)
        val = first_variation_formula(DeformedFamily(data, ScalingFlow()))
        # the quadrature error of A_f (measured: 1.18e-9)
        assert val == pytest.approx(2.0 * TAU, rel=5e-9)
        info["detail"] = (f"{count} FD/formula pairs, max diff {worst:.2e}, "
                          f"inflation A_f' = {val:.6f}")


def test_criterion_3_second_variation_matrix():
    with criterion(3, budget=60.0) as info:
        Xz3 = axial_z_field((0, 0, 1))
        Xz1 = axial_z_field((1, 0, 0))
        Xpar = parabolic_field()
        bases = [
            ("hemisphere", "constant", {},
             [ScalingFlow(), FieldFlow(*Xz3), FieldFlow(*Xz1)]),
            ("slice", "linear", {"a": (1.0, 0.0, 0.0)},
             [TranslationFlow((1, 0, 0)), FieldFlow(*Xz1), FieldFlow(*Xpar)]),
            ("hemisphere", "radial-log", {"k": -2.0},
             [ScalingFlow(), FieldFlow(*Xz3), FieldFlow(*Xz1)]),
        ]
        worst = 0.0
        for kind, dens, params, flows in bases:
            # Richardson-extrapolated P1 index form against the FD of the
            # constrained area functional
            asms = {}
            for res in (24, 48):
                space, imm, mesh, data = cf.cached_geometry(kind, res, dens,
                                                            **params)
                asms[res] = (assemble(data), data)
            for flow in flows:
                vals = {}
                for res, (asm, data) in asms.items():
                    u = DeformedFamily(data, flow).vertex_normal_speed()
                    vals[res] = index_form_value(asm, u, u)
                ifv = (4.0 * vals[48] - vals[24]) / 3.0
                fd = second_variation_fd(DeformedFamily(asms[24][1], flow))
                rel = abs(fd.value - ifv) / max(1.0, abs(ifv))
                assert rel <= 1e-3, f"{kind}/{dens}: rel {rel:.2e}"
                worst = max(worst, rel)
        info["detail"] = f"9 FD/index-form pairs, max relative {worst:.2e}"


def test_criterion_4_stability_threshold():
    with criterion(4, budget=120.0) as info:
        ks = (-3.0, -2.5, -2.0, -1.5, -1.0)
        chart = cf.cached_chart("hemisphere", 64)
        lams = {}
        for k in ks:
            space = cf.space_half_space("radial-log", k=k)
            spec = robin_eigenproblem(assemble(extrinsic_geometry(space,
                                                                  chart)))
            lams[k] = spec.lambda_min
            assert abs(lams[k] + (2.0 + k)) <= 2e-2
            if k == -2.5:
                lam2 = {64: spec.eigenvalues[1]}
        # zero crossing: linear interpolation across the sign change
        pairs = sorted(lams.items())
        crossing = None
        for (k0, l0), (k1, l1) in zip(pairs, pairs[1:]):
            if l0 == 0.0:
                crossing = k0
                break
            if l0 * l1 < 0:
                crossing = k0 - l0 * (k1 - k0) / (l1 - l0)
                break
        if crossing is None and abs(lams[-2.0]) <= 2e-2:
            crossing = -2.0
        assert crossing is not None and abs(crossing + 2.0) <= 2e-2
        # convergence across resolutions: the lowest mode is constant, which
        # P1 reproduces exactly, so the order is read off the next one,
        # lambda_2 = l(l+1) - 2 - k = 2.5 at l = 2, k = -2.5
        space = cf.space_half_space("radial-log", k=-2.5)
        for res in (32, 128):
            data = extrinsic_geometry(space, cf.cached_chart("hemisphere", res))
            lam2[res] = robin_eigenproblem(assemble(data)).eigenvalues[1]
        errs = {res: abs(lam - 2.5) for res, lam in lam2.items()}
        order = math.log(errs[32] / errs[128]) / math.log(4.0)
        assert order >= 1.8, f"lambda_2 convergence order {order:.2f}"
        info["detail"] = (f"lambda(k) exact to {max(abs(lams[k] + 2 + k) for k in ks):.1e}, "
                          f"crossing at {crossing:.4f}, lambda_2 order "
                          f"{order:.2f} (error {errs[128]:.1e} at 128)")


def test_criterion_5_product_cylinder_equality():
    with criterion(5, budget=30.0) as info:
        result, _ = builtin_run("paper-product-cylinder", 0)
        assert result.passed, [c.name for c in result.checks if not c.passed]
        res = result.report["results"]
        lam = res["spectrum"]["lambda_min"]
        assert abs(lam) <= 1e-3
        assert res["rigidity"]["all_true"]
        topo = res["topology"]
        assert abs(topo["I_f_u"]) <= 1e-6
        assert topo["chi"] == 0
        assert topo["asserted"] and topo["chain_holds"]
        info["detail"] = (f"lambda_min = {lam:.2e}, rigidity all true, "
                          f"|I_f_u| = {abs(topo['I_f_u']):.2e}, chi = 0")


def test_criterion_6_curvature_identities():
    with criterion(6, budget=60.0) as info:
        worst_g = 0.0
        worst_b = 0.0
        for kind, densities in MATRIX.items():
            for dens, params in densities:
                space, imm, mesh, data = cf.cached_geometry(kind, 16, dens,
                                                            **params)
                worst_g = max(worst_g, gauss_rearrangement_residual(data))
                if data.has_boundary:
                    worst_b = max(worst_b, boundary_identity_residual(data))
        assert worst_g <= 1e-5
        assert worst_b <= 1e-6
        info["detail"] = (f"rearrangement max {worst_g:.2e}, "
                          f"boundary max {worst_b:.2e}")


def test_criterion_7_constrained_stability_examples():
    with criterion(7) as info:
        gauss = assemble(cf.cached_geometry("hemisphere", 24, "gaussian")[3])
        cone = assemble(cf.cached_geometry("cone", 24, "radial-smooth",
                                           coeffs=(0.0, 0.0, 0.5))[3])
        assert not volume_constrained_verdict(robin_eigenproblem(gauss))
        assert volume_constrained_verdict(robin_eigenproblem(cone))
        # the constrained minima of an independent ARPACK solve
        lam_gauss = cf.constrained_lambda_min(gauss)
        assert lam_gauss < -1e-3
        lam_cone = cf.constrained_lambda_min(cone)
        assert lam_cone >= -1e-3
        info["detail"] = (f"gaussian half-space {lam_gauss:+.3f} (unstable), "
                          f"convex cone {lam_cone:+.3f} (stable)")


def _collect_results(report):
    """All per-run results dicts, descending into sweep sub-reports."""
    found = []
    if "results" in report:
        found.append(report["results"])
    for sub in report.get("runs", {}).values():
        found.extend(_collect_results(sub))
    return found


def test_criterion_8_topology_bound_suite():
    with criterion(8) as info:
        inspected = 0
        for name in builtin_names():
            result, _ = builtin_run(name, 0)
            assert result.passed, \
                f"{name}: {[c.name for c in result.checks if not c.passed]}"
            for res in _collect_results(result.report):
                topo = res.get("topology")
                if topo is None:
                    continue
                inspected += 1
                assert topo["verdict"] != "Inconsistent", name
                hyp = (topo["hypothesis_curvature"]["holds"]
                       and topo["hypothesis_convexity"]["holds"])
                strong = res.get("spectrum", {}).get("verdict_strong")
                if hyp and strong:
                    assert topo["chi"] >= 0, name
        assert inspected >= 4
        info["detail"] = (f"{len(builtin_names())} builtins pass, "
                          f"{inspected} topology verdicts, none Inconsistent")


def test_criterion_9_jacobi_fd_families():
    with criterion(9) as info:
        families = [
            ("slice", "linear", {"a": (1.0, 0.0, 0.0)},
             TranslationFlow((1, 0, 0))),
            ("hemisphere", "radial-log", {"k": -2.0}, ScalingFlow()),
            ("hemisphere", "radial-log", {"k": -2.5}, ScalingFlow()),
        ]
        worst = 0.0
        for kind, dens, params, flow in families:
            space, imm, mesh, data = cf.cached_geometry(kind, 24, dens, **params)
            rep = jacobi_fd_check(DeformedFamily(data, flow))
            assert rep.passed and rep.max_residual <= 1e-3
            worst = max(worst, rep.max_residual)
        info["detail"] = f"3 families, max relative residual {worst:.2e}"


def test_criterion_10_determinism():
    with criterion(10) as info:
        for name in builtin_names():
            _, first = builtin_run(name, 0)
            _, second = builtin_run(name, 1)
            assert first == second, f"{name}: reports differ between runs"
        info["detail"] = (f"{len(builtin_names())} builtins byte-identical "
                          f"across two runs")
