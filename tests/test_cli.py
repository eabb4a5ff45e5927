"""End-to-end tests of the command line interface."""
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import wstab
from wstab import scenarios
from wstab.cli import main

SMALL_SCENARIO = {
    "name": "small-hemisphere",
    "ambient": {
        "density": {"name": "radial-log", "k": -2.5},
        "boundary": {"name": "half-space", "axis": 2},
    },
    "surface": {"builtin": "spherical-cap"},
    "resolution": 8,
    "tasks": ["stationarity", "spectrum", "identities"],
    "expect": {"lambda_min": 0.5, "lambda_tol": 1e-6,
               "volume_constrained": True},
}


NAN, INF = float("nan"), float("inf")


def nested(depth):
    """A list nested depth levels deep."""
    value = [1.0]
    for _ in range(depth - 1):
        value = [value]
    return value


def write_config(tmp_path, tree, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return str(path)


def half_sphere(density, resolution, tasks, **extra):
    tree = {"ambient": {"density": density,
                        "boundary": {"name": "half-space", "axis": 2}},
            "surface": {"builtin": "spherical-cap"},
            "resolution": resolution, "tasks": tasks}
    tree.update(extra)
    return tree


def run_report(tmp_path, tree):
    """Exit code and report.json of one `wstab run`."""
    out_dir = tmp_path / "out"
    code = main(["run", write_config(tmp_path, tree), "--out", str(out_dir)])
    return code, json.loads((out_dir / "report.json").read_text())


class TestList:
    def test_builtins_are_listed_with_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper-ex-3.9-threshold" in out
        assert "paper-Mr-k-minus-2" in out
        lines = [ln for ln in out.splitlines() if ":" in ln]
        assert len(lines) >= 8


class TestRun:
    def test_successful_run_writes_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out_dir]) == 0
        printed = capsys.readouterr().out
        assert "[PASS]" in printed and "[FAIL]" not in printed
        report = json.loads(open(os.path.join(out_dir, "report.json")).read())
        assert report["name"] == "small-hemisphere"
        assert "spectrum" in report["results"]
        assert report["results"]["spectrum"]["lambda_min"] == pytest.approx(
            0.5, abs=1e-9)
        assert os.path.exists(os.path.join(out_dir, "meta.json"))
        assert os.path.exists(os.path.join(out_dir, "spectrum.csv"))

    def test_failed_expectation_exits_2(self, tmp_path, capsys):
        tree = dict(SMALL_SCENARIO)
        tree["expect"] = {"lambda_min": -1.0, "lambda_tol": 1e-6}
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_key_exits_4_and_names_it(self, tmp_path, capsys):
        tree = dict(SMALL_SCENARIO)
        tree["bogus"] = 1
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        assert "bogus" in capsys.readouterr().err

    def test_invalid_json_exits_4(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4

    def test_missing_file_exits_4(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 4

    def test_unknown_builtin_exits_4(self, tmp_path):
        assert main(["builtin", "no-such-scenario",
                     "--out", str(tmp_path / "out")]) == 4

    def test_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("error", [
        np.linalg.LinAlgError("Singular matrix"),
        FloatingPointError("overflow encountered in exp"),
        spla.ArpackError(-9999),
    ])
    def test_numerical_error_outside_the_solvers_exits_3(
            self, tmp_path, capsys, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(scenarios, "mesh_from_immersion", failing)
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        err_lines = captured.err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("numerical failure: ")
        assert "Traceback" not in captured.out + captured.err

    def test_memory_exhaustion_exits_3_in_one_line(self, tmp_path, capsys,
                                                   monkeypatch):
        """A mesh too large for memory ends in one line, not a traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(scenarios, "mesh_from_immersion", exhausted)
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "numerical failure: out of memory (try a lower resolution)"]
        assert "Traceback" not in captured.out + captured.err


class TestMalformedParameterValues:
    @pytest.mark.parametrize("density,surface", [
        ({"name": "radial-log", "k": "abc"}, {"builtin": "spherical-cap"}),
        ({"name": "linear", "a": [1.0]}, {"builtin": "spherical-cap"}),
        ({"name": "radial-smooth", "coeffs": []},
         {"builtin": "spherical-cap"}),
        ({"name": "constant"}, {"builtin": "spherical-cap", "radius": "x"}),
    ])
    def test_exits_4_without_traceback(self, tmp_path, capsys, density,
                                       surface):
        tree = half_sphere(density, 8, ["stationarity"], surface=surface)
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("changes", [
        {"ambient": {"density": {"name": "constant"},
                     "boundary": {"name": "half-space", "axis": 3}}},
        {"ambient": {"density": {"name": {}}}},
        {"expect": {"lambda_min": 0.5, "lambda_tol": [1e-6]}},
        {"tolerances": {"verdict": "tight"}},
        {"S0": [1.0]},
        {"tasks": ["first-variation"],
         "variation": {"flow": "translation", "direction": [1.0, 0.0]}},
        {"surface": {"builtin": "spherical-cap", "center": [0.0, 0.0]}},
        {"surface": {"builtin": "rect-patch", "v_range": [1.0]}},
        {"ambient": {"density": {"name": "constant"}},
         "surface": {"builtin": "rect-patch", "u_range": [0.0, 0.01]}},
        {"ambient": {"density": {"name": "constant"},
                     "boundary": {"name": "half-space", "offset": NAN}}},
        {"ambient": {"density": {"name": "constant"},
                     "boundary": {"name": "cone", "alpha": NAN}},
         "surface": {"builtin": "spherical-cap", "alpha": 0.7}},
        {"ambient": {"density": {"name": "radial-log", "k": 10**400},
                     "boundary": {"name": "half-space", "axis": 2}}},
        {"tolerances": {"verdict": NAN}},
        {"tasks": ["area-bounds"], "S0": INF},
        {"expect": {"lambda_min": -INF}},
        {"expect": {"strong": NAN}},
        {"surface": {"builtin": "spherical-cap", "radius": INF}},
        {"tasks": ["first-variation"],
         "variation": {"flow": "translation", "direction": [NAN, 0.0, 0.0]}},
        {"ambient": {"density": {"name": "radial-log", "k": -2.5},
                     "boundary": {"name": "half-space", "axis": 2},
                     "circumferences": [None, INF, None]}},
        {"ambient": {"density": {"name": "radial-log", "k": nested(600)},
                     "boundary": {"name": "half-space", "axis": 2}}},
        {"surface": {"builtin": "spherical-cap", "orientation_sign": 0}},
        {"ambient": {"density": {"name": "constant", "value": 0},
                     "boundary": {"name": "half-space", "axis": 2}}},
        {"ambient": {"density": {"name": "constant", "value": -1},
                     "boundary": {"name": "half-space", "axis": 2}}},
        {"surface": {"builtin": "spherical-cap", "axis": [0.0, 0.0, 0.0]}},
        {"tasks": ["first-variation"],
         "variation": {"flow": "rotation", "axis": [0.0, 0.0, 0.0]}},
        {"ambient": {"density": {"name": "constant"},
                     "boundary": {"name": "cone", "alpha": 0.7,
                                  "axis": [0.0, 0.0, 0.0]}},
         "surface": {"builtin": "spherical-cap", "alpha": 0.7}},
        {"surface": {"builtin": "spherical-cap", "radius": 0.0}},
        {"surface": {"builtin": "planar-disk", "radius": 0.0}},
        {"surface": {"builtin": "round-sphere", "radius": 0.0}},
    ], ids=["boundary-axis", "density-name", "expect-number", "tolerance",
            "S0", "flow-vector", "cap-center", "patch-range", "patch-aspect",
            "nan-offset", "nan-cone-alpha", "huge-int-k", "nan-tolerance",
            "inf-S0", "inf-expect", "nan-expect-flag", "inf-radius",
            "nan-flow-direction", "inf-circumference", "deep-nesting",
            "orientation-zero", "zero-density", "negative-density",
            "zero-cap-axis", "zero-rotation-axis", "zero-cone-axis",
            "zero-cap-radius", "zero-disk-radius", "zero-sphere-radius"])
    def test_malformed_scenario_value_exits_4(self, tmp_path, capsys,
                                              changes):
        tree = dict(SMALL_SCENARIO, **changes)
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("builtin,key,value", [
        ("flat-slab-slice", "halfwidth", -1.0),
        ("paper-ex-3.8-convex-cone", "alpha", 0.0),
        ("paper-ex-3.8-convex-cone", "alpha", 4.0),
    ], ids=["negative-slab-halfwidth", "zero-cone-alpha", "cone-alpha-above-pi"])
    def test_degenerate_boundary_parameter_exits_4(self, tmp_path, capsys,
                                                   builtin, key, value):
        """Rejected when the boundary is built, not later as a boundary
        projection residual (exit 3)."""
        tree = scenarios.scenario_to_tree(scenarios.builtin_scenario(builtin))
        tree["ambient"]["boundary"][key] = value
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert key in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_flow_leaving_the_ambient_boundary_exits_4(self, tmp_path,
                                                      capsys):
        """Lifting a half-sphere off its plane is not a variation by
        surfaces with boundary in the ambient boundary."""
        tree = half_sphere({"name": "radial-log", "k": -2.5}, 8,
                           ["stationarity", "foliation"],
                           variation={"flow": "translation",
                                      "direction": [0.0, 0.0, 1.0]})
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "s = -0.1" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("changes", [
        {"resolution": 100000000},
        {"sweep": {"param": "resolution", "values": [8, 2048]}}],
        ids=["resolution", "sweep-value"])
    def test_resolution_above_the_cap_exits_4_before_meshing(
            self, tmp_path, capsys, monkeypatch, changes):
        from wstab.surface import MAX_RESOLUTION

        def forbidden(*args, **kwargs):
            raise AssertionError("meshed a resolution above the cap")

        monkeypatch.setattr(scenarios, "mesh_from_immersion", forbidden)
        cfg = write_config(tmp_path, dict(SMALL_SCENARIO, **changes))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert str(MAX_RESOLUTION) in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("key,value", [
        ("metric_kind", "product"), ("circumferences", [None, 6.25, None])],
        ids=["metric_kind", "circumferences"])
    def test_removed_ambient_keys_exit_4(self, tmp_path, capsys, key, value):
        """Nothing reads them: the S^1 factor of a product slice is the
        surface's periodic range."""
        tree = copy.deepcopy(SMALL_SCENARIO)
        tree["ambient"][key] = value
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        assert f"unknown key '{key}' in ambient" in capsys.readouterr().err


def count_calls(monkeypatch):
    """Count `_run_single` runs, full `extrinsic_geometry` calls, blended
    quadrature point evaluations and `SphericalCap.chart_jac` calls."""
    from wstab import functionals, stability, surface, theorems
    counts = {"runs": 0, "geometry": 0, "blend": 0, "cap_jac": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenarios, "_run_single",
                        counting("runs", scenarios._run_single))
    monkeypatch.setattr(surface, "_blended_param_points",
                        counting("blend", surface._blended_param_points))
    monkeypatch.setattr(surface.SphericalCap, "chart_jac",
                        counting("cap_jac", surface.SphericalCap.chart_jac))
    original = surface.extrinsic_geometry
    geometry = counting("geometry", original)
    for module in (scenarios, stability, functionals, theorems):
        if getattr(module, "extrinsic_geometry", None) is original:
            monkeypatch.setattr(module, "extrinsic_geometry", geometry)
    return counts


class TestGeometryCalls:
    @pytest.mark.parametrize("name", ["paper-product-torus",
                                      "paper-ex-3.9-threshold"])
    def test_spectrum_builtin_evaluates_geometry_once_per_run(
            self, tmp_path, monkeypatch, name):
        """The assembly's geometry also serves the report and the tasks."""
        counts = count_calls(monkeypatch)
        assert main(["builtin", name, "--out", str(tmp_path / "out")]) == 0
        assert counts["runs"] >= 1
        assert counts["geometry"] == counts["runs"]

    def test_builtin_suite_makes_13_full_geometry_calls(self, tmp_path,
                                                       monkeypatch):
        """flat-slab-slice makes 1, the base, shared by the second variation
        and the foliation's s = 0 slice; its 8 other foliation slices are
        the flow applied to the family's cached base chart."""
        from wstab.scenarios import builtin_names
        counts = count_calls(monkeypatch)
        per_builtin = {}
        for name in builtin_names():
            before = counts["geometry"]
            assert main(["builtin", name, "--out", str(tmp_path / name)]) == 0
            per_builtin[name] = counts["geometry"] - before
        assert per_builtin.pop("flat-slab-slice") == 1
        assert per_builtin.pop("paper-ex-3.9-threshold") == 5
        assert set(per_builtin.values()) == {1}
        assert counts["geometry"] == 13

    def test_foliation_slices_reuse_the_base_chart(self, tmp_path,
                                                   monkeypatch):
        """The mesh, the base geometry and the family's cache are the only
        chart evaluations (deformed immersions re-evaluating the base took
        130 charts, 40 Jacobians and 11 Hessians)."""
        from wstab.surface import RectPatch
        calls = {"chart": 0, "chart_jac": 0, "chart_hess": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(RectPatch, name,
                                counting(name, getattr(RectPatch, name)))
        assert main(["builtin", "flat-slab-slice",
                     "--out", str(tmp_path / "out")]) == 0
        assert calls["chart"] <= 8
        assert calls["chart_jac"] <= 6
        assert calls["chart_hess"] <= 4

    @pytest.mark.parametrize("variation", [
        {"flow": "scaling"},
        {"flow": "translation", "direction": [0.6, 0.8, 0.0]},
    ])
    def test_variation_job_evaluates_the_base_once(self, tmp_path,
                                                   monkeypatch, variation):
        """The FD slices are the flow applied to the family's cached base
        chart (evaluating every slice from scratch took 2 full geometries,
        127 blends and 133 cap Jacobians), and each s is evaluated once: 4
        first-variation slices, 17 for the second variation and 32 more for
        the samples (a swept volume from scratch per s took 113)."""
        from wstab.functionals import DeformedFamily
        tree = half_sphere({"name": "radial-log", "k": -2.6}, 24,
                           ["stationarity", "first-variation",
                            "second-variation"], variation=variation)
        counts = count_calls(monkeypatch)
        slices = []
        area_elements = DeformedFamily.area_elements

        def counting_slices(self, s):
            slices.append(float(s))
            return area_elements(self, s)

        monkeypatch.setattr(DeformedFamily, "area_elements", counting_slices)
        code, _ = run_report(tmp_path, tree)
        assert code == 0
        assert counts["geometry"] == 1
        assert counts["blend"] <= 3
        assert counts["cap_jac"] <= 9
        assert len(slices) <= 53
        assert len(set(slices)) == len(slices)


class TestVerdicts:
    def test_volume_constrained_expectation_is_applied_at_any_dof(
            self, tmp_path, capsys):
        """The Gaussian half-sphere is constrained unstable at 4921 DOF."""
        tree = half_sphere({"name": "gaussian"}, 40,
                           ["stationarity", "spectrum"],
                           expect={"volume_constrained": True})
        code, report = run_report(tmp_path, tree)
        assert code == 2
        assert "[FAIL] spectrum" in capsys.readouterr().out
        spectrum = report["results"]["spectrum"]
        assert spectrum["dof"] == 4921
        assert spectrum["verdict_volume_constrained"] is False

    @pytest.mark.parametrize("tolerances,strong,topology", [
        ({}, True, "SphereOrTorus"),
        ({"verdict": 1e-6}, False, "NotApplicable"),
    ])
    def test_topology_uses_the_spectrum_verdict(self, tmp_path, tolerances,
                                                strong, topology):
        """lambda_min = -2.5e-4 for k = -1.999: stable only under the
        default verdict tolerance."""
        tree = {"ambient": {"density": {"name": "radial-log", "k": -1.999},
                            "boundary": {"name": "ball-complement",
                                         "radius": 1.0}},
                "surface": {"builtin": "round-sphere", "radius": 2.0},
                "resolution": 12, "tasks": ["spectrum", "topology"],
                "tolerances": tolerances}
        code, report = run_report(tmp_path, tree)
        assert code == 0
        assert report["results"]["spectrum"]["verdict_strong"] is strong
        assert report["results"]["topology"]["verdict"] == topology


class TestSweep:
    def test_density_sweep_produces_samples(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out_dir = str(tmp_path / "out")
        code = main(["sweep", cfg, "--param", "ambient.density.k",
                     "--range=-3:-2:0.5", "--out", out_dir])
        assert code == 0
        rows = open(os.path.join(out_dir, "samples.csv")).read().splitlines()
        assert len(rows) == 4  # header + three values
        lams = [float(r.split(",")[1]) for r in rows[1:]]
        assert lams == pytest.approx([1.0, 0.5, 0.0], abs=1e-8)
        assert os.path.exists(os.path.join(out_dir, "plot.gp"))

    def test_empty_range_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        assert main(["sweep", cfg, "--param", "ambient.density.k",
                     "--range=1:0:1", "--out", str(tmp_path / "out")]) == 4

    @pytest.mark.parametrize("spec", ["-3:-2:nan", "-3:-2:inf"])
    def test_non_finite_range_exits_4(self, tmp_path, capsys, spec):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        assert main(["sweep", cfg, "--param", "ambient.density.k",
                     f"--range={spec}", "--out", str(tmp_path / "out")]) == 4
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [NAN, INF, 8.7])
    def test_resolution_sweep_values_must_be_integers_from_4(
            self, tmp_path, capsys, value):
        tree = half_sphere({"name": "constant"}, 6, ["stationarity"],
                           sweep={"param": "resolution", "values": [6, value]})
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_resolution_sweep_without_spectrum_has_no_order_column(
            self, tmp_path):
        tree = half_sphere({"name": "constant"}, 6, ["stationarity"],
                           sweep={"param": "resolution", "values": [6, 8, 10]})
        code, report = run_report(tmp_path, tree)
        assert code == 0
        header = (tmp_path / "out" / "samples.csv").read_text().splitlines()[0]
        assert header == "resolution,lambda_min"
        assert [len(row) for row in report["sweep"]["rows"]] == [2, 2, 2]

    def test_zero_crossing_matches_target_within_rounding(self, tmp_path):
        tree = half_sphere({"name": "radial-log", "k": -2.0}, 8, ["spectrum"],
                           sweep={"param": "ambient.density.k",
                                  "values": [-3.0, -2.0000000000000004, -1.0]},
                           expect={"sweep_zero_crossing": -2.0})
        code, report = run_report(tmp_path, tree)
        assert code == 0
        assert report["checks"][0]["passed"]

    def test_malformed_range_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        assert main(["sweep", cfg, "--param", "ambient.density.k",
                     "--range=1:2", "--out", str(tmp_path / "out")]) == 4


class TestExportMesh:
    def test_writes_off_file(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out_dir = str(tmp_path / "out")
        assert main(["export-mesh", cfg, "--out", out_dir]) == 0
        off = open(os.path.join(out_dir, "mesh.off")).read()
        assert off.startswith("OFF")


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        blobs = []
        for tag in ("a", "b"):
            out_dir = str(tmp_path / tag)
            assert main(["run", cfg, "--out", out_dir]) == 0
            blobs.append(open(os.path.join(out_dir, "report.json"),
                              "rb").read())
        assert blobs[0] == blobs[1]

    def test_fine_mesh_reports_are_byte_identical_across_processes(
            self, tmp_path):
        """7057 DOF, in two fresh interpreters."""
        tree = half_sphere({"name": "radial-log", "k": -2.5}, 48,
                           ["spectrum"])
        cfg = write_config(tmp_path, tree)
        src = os.path.dirname(os.path.dirname(wstab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        blobs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            subprocess.run([sys.executable, "-m", "wstab.cli", "run", cfg,
                            "--out", str(out_dir)], env=env, check=True,
                           capture_output=True, timeout=300)
            blobs.append((out_dir / "report.json").read_bytes())
        assert json.loads(blobs[0])["results"]["spectrum"]["dof"] == 7057
        assert blobs[0] == blobs[1]


# Integers lie in [-3, 8], so that no resolution exceeds 8 and every run
# stays small; floats lie in [-8, 8] or are non-finite or near a limit.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8)
    | st.floats(-8.0, 8.0, allow_nan=False)
    | st.sampled_from([NAN, INF, -INF, 0.0, 1e300, -1e300, 1e-300])
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=3)),
    max_leaves=6)


def contract_base_trees():
    """Scenario trees of every builtin without its sweep, at resolution 8."""
    from wstab.scenarios import (builtin_names, builtin_scenario,
                                 scenario_to_tree)
    trees = []
    for name in builtin_names():
        tree = scenario_to_tree(builtin_scenario(name))
        tree.pop("sweep", None)
        tree["resolution"] = 8
        trees.append(tree)
    return trees + [copy.deepcopy(SMALL_SCENARIO)]


def tree_paths(tree, prefix=()):
    """Paths to every key and list entry of a JSON tree."""
    items = (tree.items() if isinstance(tree, dict) else
             enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from tree_paths(value, prefix + (key,))


@st.composite
def scenario_trees(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    tree = copy.deepcopy(draw(st.sampled_from(contract_base_trees())))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(tree_paths(tree))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    return tree


class TestCliContract:
    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(tree=scenario_trees())
    def test_any_scenario_tree_exits_0_2_3_or_4_without_traceback(self, tree):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tree, fh)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["run", path, "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in out.getvalue() + err.getvalue()
