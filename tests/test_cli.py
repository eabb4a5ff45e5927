"""End-to-end tests of the command line interface."""
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy import integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cf
import wstab
from wstab import scenarios, surface
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
        report = json.loads(Path(out_dir, "report.json").read_text())
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

        monkeypatch.setattr(surface, "mesh_from_immersion", failing)
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

        monkeypatch.setattr(surface, "mesh_from_immersion", exhausted)
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
        {"expect": {"strong": "false"}},
        {"tasks": ["stationarity", "topology"], "expect": {"chi": 0.7}},
        {"tasks": ["stationarity", "topology"],
         "expect": {"topology": "Disk"}},
        {"expect": {"lambda_tol": 1e-12}},
        {"expect": {"lambda_min": 0.5, "lambda_tol": 0.0}},
    ], ids=["boundary-axis", "density-name", "expect-number", "tolerance",
            "S0", "flow-vector", "cap-center", "patch-range", "patch-aspect",
            "nan-offset", "nan-cone-alpha", "huge-int-k", "nan-tolerance",
            "inf-S0", "inf-expect", "nan-expect-flag", "inf-radius",
            "nan-flow-direction", "inf-circumference", "deep-nesting",
            "orientation-zero", "zero-density", "negative-density",
            "zero-cap-axis", "zero-rotation-axis", "zero-cone-axis",
            "zero-cap-radius", "zero-disk-radius", "zero-sphere-radius",
            "string-expect-flag", "fractional-chi", "unknown-topology",
            "lambda-tol-without-lambda-min", "zero-lambda-tol"])
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

    @pytest.mark.parametrize("du,dv,key", [
        ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], "du"),
        ([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], "dv"),
        ([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], "parallel"),
        ([0.0, 1.0, 0.0], [0.0, -2.0, 0.0], "parallel"),
    ], ids=["zero-du", "zero-dv", "equal", "antiparallel"])
    def test_degenerate_patch_direction_exits_4(self, tmp_path, capsys,
                                                du, dv, key):
        """Rejected when the patch is built, not later as a mesh with a
        degenerate triangle (exit 3)."""
        tree = {"ambient": {"density": {"name": "constant"}},
                "surface": {"builtin": "rect-patch", "du": du, "dv": dv},
                "resolution": 6, "tasks": ["stationarity"]}
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert key in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_flow_leaving_the_ambient_boundary_exits_4(self, tmp_path,
                                                      capsys):
        """Lifting a half-sphere off its plane is not a variation by
        surfaces with boundary in the ambient boundary, whatever the tasks:
        the run stops before any of them and writes no samples."""
        for tasks in (["stationarity", "foliation"],
                      ["stationarity", "second-variation"],
                      ["stationarity"]):
            tree = half_sphere({"name": "radial-log", "k": -2.5}, 12, tasks,
                               variation={"flow": "translation",
                                          "direction": [0.0, 0.0, 1.0]})
            cfg = write_config(tmp_path, tree)
            out_dir = tmp_path / "_".join(tasks)
            assert main(["run", cfg, "--out", str(out_dir)]) == 4, tasks
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: ")
            assert "not tangent to the ambient boundary" in captured.err
            assert "Traceback" not in captured.out + captured.err
            assert not (out_dir / "samples.csv").exists()

    @pytest.mark.parametrize("changes", [
        {"resolution": 100000000},
        {"sweep": {"param": "resolution", "values": [8, 2048]}}],
        ids=["resolution", "sweep-value"])
    def test_resolution_above_the_cap_exits_4_before_meshing(
            self, tmp_path, capsys, monkeypatch, changes):
        from wstab.surface import MAX_RESOLUTION

        def forbidden(*args, **kwargs):
            raise AssertionError("meshed a resolution above the cap")

        monkeypatch.setattr(surface, "mesh_from_immersion", forbidden)
        cfg = write_config(tmp_path, dict(SMALL_SCENARIO, **changes))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert str(MAX_RESOLUTION) in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_zero_S0_exits_4_before_meshing(self, tmp_path, capsys,
                                            monkeypatch):
        """S0 = 0 makes both area bounds degenerate, so the scenario is
        rejected when it is read (it was rejected by the area bound check,
        after meshing, assembling and solving)."""
        runs = []
        monkeypatch.setattr(scenarios, "_run_single", runs.append)
        tree = {"ambient": {"density": {"name": "gaussian"}},
                "surface": {"builtin": "round-sphere"}, "resolution": 16,
                "tasks": ["stationarity", "spectrum", "area-bounds"],
                "S0": 0}
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "S0 = 0" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert runs == []

    def test_bad_sweep_value_exits_4_before_any_value_runs(
            self, tmp_path, capsys, monkeypatch):
        """The last S0 of the sweep is 0: every value is read before the
        first is meshed or solved."""
        counts = {"assemble": 0, "robin_eigenproblem": 0, "build_chart": 0}
        for name in counts:
            def counting(*args, name=name, original=getattr(scenarios, name),
                         **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(scenarios, name, counting)
        tree = half_sphere({"name": "radial-log", "k": -2.5}, 12,
                           ["spectrum", "area-bounds"], S0=0.5,
                           sweep={"param": "S0", "values": [0.5, 0.25, 0.0]})
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "S0 = 0" in captured.err
        assert counts == {"assemble": 0, "robin_eigenproblem": 0,
                          "build_chart": 0}

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
    """Count `_run_single` runs, chart builds, `extrinsic_geometry` density
    evaluations, blended quadrature point evaluations and
    `SphericalCap.chart_jac` calls."""
    from wstab import functionals, stability, theorems
    counts = {"runs": 0, "charts": 0, "geometry": 0, "blend": 0,
              "cap_jac": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenarios, "_run_single",
                        counting("runs", scenarios._run_single))
    monkeypatch.setattr(scenarios, "surface_chart",
                        counting("charts", scenarios.surface_chart))
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
        """One chart serves every run, the threshold's five densities
        included; each run evaluates its density terms once, for the
        assembly, the report and the tasks."""
        counts = count_calls(monkeypatch)
        assert main(["builtin", name, "--out", str(tmp_path / "out")]) == 0
        assert counts["runs"] >= 1
        assert counts["charts"] == 1
        assert counts["geometry"] == counts["runs"]

    def test_builtin_suite_builds_9_charts(self, tmp_path, monkeypatch):
        """One chart per builtin (13 before the threshold sweep shared
        one); flat-slab-slice evaluates density terms on its base and on
        the 8 foliation slices off it, every other run on its base."""
        from wstab.scenarios import builtin_names
        counts = count_calls(monkeypatch)
        charts, geometry = {}, {}
        for name in builtin_names():
            before = dict(counts)
            assert main(["builtin", name, "--out", str(tmp_path / name)]) == 0
            charts[name] = counts["charts"] - before["charts"]
            geometry[name] = counts["geometry"] - before["geometry"]
        assert set(charts.values()) == {1}
        assert counts["charts"] == 9
        assert geometry.pop("flat-slab-slice") == 9
        assert geometry.pop("paper-ex-3.9-threshold") == 5
        assert set(geometry.values()) == {1}
        assert counts["runs"] == 13

    def test_foliation_slices_reuse_the_base_chart(self, tmp_path,
                                                   monkeypatch):
        """The chart of the run is the only chart evaluation besides the
        mesh and the vertex normals: 4 charts (vertices, seam corners,
        quadrature and boundary points), 3 Jacobians and 2 Hessians
        (deformed immersions re-evaluating the base took 130 charts, 40
        Jacobians and 11 Hessians, a family charting its own base 8, 6
        and 4)."""
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
        assert calls["chart"] <= 4
        assert calls["chart_jac"] <= 3
        assert calls["chart_hess"] <= 2

    @pytest.mark.parametrize("variation", [
        {"flow": "scaling"},
        {"flow": "translation", "direction": [0.6, 0.8, 0.0]},
    ])
    def test_variation_job_evaluates_the_base_once(self, tmp_path,
                                                   monkeypatch, variation):
        """The FD slices are the flow applied to the run's chart (evaluating
        every slice from scratch took 2 full geometries, 127 blends and 133
        cap Jacobians), and each s is evaluated once: 4 first-variation
        slices, 17 for the second variation and 32 more for the samples (a
        swept volume from scratch per s took 113)."""
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
        assert counts["charts"] == 1
        assert counts["geometry"] == 1
        assert counts["blend"] == 1
        assert counts["cap_jac"] <= 3
        assert len(slices) <= 53
        assert len(set(slices)) == len(slices)


class TestLazyRun:
    """A run assembles and solves its index form once, at the first task
    that reads it, and not at all if no task does."""

    @pytest.mark.parametrize("tree,calls", [
        (half_sphere({"name": "radial-log", "k": -2.6}, 12,
                     ["stationarity", "first-variation"],
                     variation={"flow": "scaling"}), 0),
        (half_sphere({"name": "radial-log", "k": -2.5}, 12, ["area-bounds"],
                     S0=0.5), 1),
        (scenarios.scenario_to_tree(
            scenarios.builtin_scenario("flat-slab-slice")), 1),
    ], ids=["first-variation", "area-bounds", "flat-slab-slice"])
    def test_index_form_is_built_once_if_a_task_reads_it(
            self, monkeypatch, tree, calls):
        counts = {"assemble": 0, "robin_eigenproblem": 0}
        for name, original in [(name, getattr(scenarios, name))
                               for name in counts]:
            def counting(*args, name=name, original=original, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(scenarios, name, counting)
        scenarios.run_scenario(scenarios.parse_scenario(tree))
        assert counts == {"assemble": calls, "robin_eigenproblem": calls}

    def test_task_order_does_not_change_the_outputs(self, tmp_path):
        """All nine tasks on the flat slab slice, listed forwards and
        backwards, write the same bytes."""
        from wstab.scenarios import TASKS
        tree = scenarios.scenario_to_tree(
            scenarios.builtin_scenario("flat-slab-slice"))
        tree.update(S0=-1.0)
        outputs = []
        for tasks in (list(TASKS), list(TASKS)[::-1]):
            out_dir = tmp_path / tasks[0]
            assert main(["run", write_config(tmp_path, dict(tree, tasks=tasks)),
                         "--out", str(out_dir)]) == 0
            outputs.append({name: (out_dir / name).read_bytes() for name in
                            ("report.json", "samples.csv", "spectrum.csv")})
        assert outputs[0] == outputs[1]


class TestScipyLoadsToSolve:
    """scipy loads the first time a run factors or solves: starting up, a
    variation run, `list` and `export-mesh` never load it."""

    @staticmethod
    def scipy_modules(tmp_path, argv) -> list:
        """The scipy modules in sys.modules of a fresh interpreter after it
        imports wstab.cli and, unless argv is None, runs main(argv)."""
        listing = tmp_path / "modules.json"
        code = ("import json, sys\n"
                "from wstab.cli import main\n"
                f"assert {argv!r} is None or main({argv!r}) == 0\n"
                "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                f"json.dump(sorted(loaded), open({str(listing)!r}, 'w'))\n")
        src = os.path.dirname(os.path.dirname(wstab.__file__))
        subprocess.run([sys.executable, "-c", code],
                       env=dict(os.environ, PYTHONPATH=src), check=True,
                       capture_output=True, timeout=120)
        return json.loads(listing.read_text())

    @pytest.mark.parametrize("command", [
        "import", "variation-run", "other-tasks", "list", "export-mesh"])
    def test_no_solve_loads_no_scipy(self, tmp_path, command):
        out = ["--out", str(tmp_path / "out")]
        other_tasks = dict(SCENARIO_TREES["cone"], tasks=[
            "stationarity", "identities", "rigidity", "foliation"])
        argv = {"import": None,
                "variation-run": ["run", write_config(
                    tmp_path, SCENARIO_TREES["scaling"])] + out,
                "other-tasks": ["run", write_config(
                    tmp_path, other_tasks)] + out,
                "list": ["list"],
                "export-mesh": ["export-mesh", "gauss-identity-suite"] + out,
                }[command]
        assert self.scipy_modules(tmp_path, argv) == []

    def test_a_builtin_run_loads_it(self, tmp_path):
        loaded = self.scipy_modules(
            tmp_path, ["builtin", "paper-product-cylinder",
                       "--out", str(tmp_path / "out")])
        assert "scipy.sparse.linalg" in loaded


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

    @pytest.mark.parametrize("tasks", [
        ["stationarity", "spectrum", "area-bounds"], ["area-bounds"]])
    def test_area_bounds_need_a_strongly_stable_surface(self, tmp_path,
                                                        capsys, tasks):
        """The Gaussian unit sphere has lambda_min = -4: the area bounds do
        not apply to it, whether or not the spectrum task is asked for."""
        tree = {"ambient": {"density": {"name": "gaussian"}},
                "surface": {"builtin": "round-sphere"},
                "resolution": 16, "tasks": tasks, "S0": 20}
        code, report = run_report(tmp_path, tree)
        assert code == 0
        assert "[PASS] area-bounds: not applicable" in capsys.readouterr().out
        bounds = report["results"]["area_bounds"]
        assert bounds["hypothesis"]["holds"] is True
        assert bounds["applicable"] is False

    def test_foliation_tolerance_reaches_the_monotonicity_verdict(
            self, monkeypatch):
        """tolerances.foliation is the monotonicity check's tol, not only
        the bound on its identity residual."""
        check, tols = scenarios.foliation_monotonicity_check, []

        def recording(family, **kwargs):
            tols.append(kwargs.get("tol"))
            return check(family, **kwargs)

        monkeypatch.setattr(scenarios, "foliation_monotonicity_check",
                            recording)
        tree = scenarios.scenario_to_tree(
            scenarios.builtin_scenario("flat-slab-slice"))
        tree.pop("expect")
        tree.update(resolution=8, tasks=["foliation"],
                    tolerances={"foliation": 0.25})
        result = scenarios.run_scenario(scenarios.parse_scenario(tree))
        assert result.passed
        assert tols == [0.25]


SWEEP_K = {"param": "ambient.density.k", "values": [-3.0, -2.0, -1.0]}


class TestExpectations:
    """Every expectation is evaluated by one task, and a sweep evaluates
    only sweep_zero_crossing: any other use exits 4 before a run."""

    @pytest.mark.parametrize("tasks,extra,key,task", [
        (["stationarity"], {}, "lambda_min", "spectrum"),
        (["spectrum"], {}, "chi", "topology"),
        (["spectrum"], {}, "rigidity_all_true", "rigidity"),
        (["spectrum"], {}, "sweep_zero_crossing", "spectrum"),
        (["spectrum"], {"sweep": SWEEP_K}, "lambda_min", "spectrum"),
        (["stationarity"], {"sweep": SWEEP_K}, "sweep_zero_crossing",
         "spectrum"),
    ], ids=["no-spectrum", "no-topology", "no-rigidity",
            "zero-crossing-without-sweep", "single-run-key-in-sweep",
            "zero-crossing-sweep-without-spectrum"])
    def test_expectation_without_its_task_exits_4(
            self, tmp_path, capsys, monkeypatch, tasks, extra, key, task):
        runs = []
        monkeypatch.setattr(scenarios, "_run_single", runs.append)
        value = True if key == "rigidity_all_true" else -2
        tree = half_sphere({"name": "radial-log", "k": -2.0}, 8, tasks,
                           expect={key: value}, **extra)
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert f"expect.{key}" in captured.err
        assert f"'{task}'" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert runs == []

    @pytest.mark.parametrize("key,task", [
        ("rigidity_all_true", "rigidity"), ("I_f_u_zero", "topology")])
    @pytest.mark.parametrize("value,code", [(True, 0), (False, 2)])
    def test_a_flag_expectation_is_an_equality(self, tmp_path, key, task,
                                               value, code):
        """The flat slab slice is rigid with I_f(u, u) = 0, so expecting
        either flag false fails the run."""
        tree = scenarios.scenario_to_tree(
            scenarios.builtin_scenario("flat-slab-slice"))
        tree.update(resolution=8, tasks=[task], expect={key: value})
        tree.pop("variation")
        assert run_report(tmp_path, tree)[0] == code

    def test_readme_schema_example_checks_its_expectation(self, tmp_path,
                                                          capsys):
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
        assert len(blocks) == 1
        code, report = run_report(tmp_path, json.loads(blocks[0]))
        assert code == 0
        assert [c["name"] for c in report["checks"]] == [
            "sweep-zero-crossing"]
        assert "no asserted checks" not in capsys.readouterr().out


class TestSweep:
    def test_density_sweep_produces_samples(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out_dir = str(tmp_path / "out")
        code = main(["sweep", cfg, "--param", "ambient.density.k",
                     "--range=-3:-2:0.5", "--out", out_dir])
        assert code == 0
        rows = Path(out_dir, "samples.csv").read_text().splitlines()
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_resolution_sweep_without_spectrum_exits_4(
            self, tmp_path, capsys, monkeypatch, command):
        """A sweep tabulates lambda_min, so a scenario that does not run
        'spectrum' is rejected before its first run, as a sweep block or
        from the sweep command."""
        runs = []
        monkeypatch.setattr(scenarios, "_run_single", runs.append)
        tree = half_sphere({"name": "constant"}, 6, ["stationarity"])
        out_dir = tmp_path / "out"
        if command == "run":
            tree["sweep"] = {"param": "resolution", "values": [6, 8, 10]}
            argv = ["run", write_config(tmp_path, tree)]
        else:
            argv = ["sweep", write_config(tmp_path, tree), "--param",
                    "resolution", "--range=6:10:2"]
        assert main(argv + ["--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "'spectrum'" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert runs == []
        assert not out_dir.exists()

    def test_order_column_is_blank_where_the_errors_are_rounding(
            self, tmp_path):
        """P1 reproduces the constant lowest mode of the half-sphere, so
        lambda_min differs across resolutions by rounding only."""
        out_dir = tmp_path / "out"
        assert main(["sweep", "gauss-identity-suite", "--param",
                     "resolution", "--range=8:16:4",
                     "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert [row[2] for row in report["sweep"]["rows"]] == ["", "", ""]

    def test_order_column_of_a_non_constant_lowest_mode(self, tmp_path):
        """A flat disk at height 1 under psi = -log|p|: its potential
        varies, so its lowest mode is not constant and converges at
        about order 3 between resolutions 8 and 12."""
        tree = {"ambient": {"density": {"name": "radial-log", "k": -1.0}},
                "surface": {"builtin": "planar-disk",
                            "center": [0.0, 0.0, 1.0]},
                "resolution": 8, "tasks": ["spectrum"],
                "sweep": {"param": "resolution", "values": [8, 12, 16]}}
        code, report = run_report(tmp_path, tree)
        assert code == 0
        orders = [row[2] for row in report["sweep"]["rows"]]
        assert orders[1:] == ["", ""]
        assert 2.5 < orders[0] < 4.0

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

    @pytest.mark.parametrize("spec", [
        "1e16:2e16:1",                      # step below the float spacing
        "0:1:1e-6",                         # a million runs
        "1e16:1.0000000000000002e16:1",     # 2 steps, but 1e16 + 1 == 1e16
    ])
    def test_range_too_long_or_stalled_exits_4_without_a_run(self, tmp_path,
                                                              spec):
        """In a fresh interpreter with a timeout, since a loop that never
        ends would hang the suite."""
        src = os.path.dirname(os.path.dirname(wstab.__file__))
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "wstab.cli", "sweep",
             "gauss-identity-suite", "--param", "ambient.density.k",
             f"--range={spec}", "--out", str(out_dir)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=20)
        assert proc.returncode == 4
        assert "config error" in proc.stderr
        assert not out_dir.exists()

    def test_scenario_sweep_above_the_cap_exits_4_without_a_run(
            self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(scenarios, "_run_single", runs.append)
        values = [-3.0 + i * 1e-3 for i in range(scenarios.MAX_SWEEP_VALUES)]
        tree = half_sphere({"name": "radial-log", "k": -2.0}, 8, ["spectrum"],
                           sweep={"param": "ambient.density.k",
                                  "values": values})
        scenarios.parse_scenario(tree, "at-the-cap")
        tree["sweep"]["values"].append(-1.0)
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        assert str(scenarios.MAX_SWEEP_VALUES) in capsys.readouterr().err
        assert runs == []


class TestExportMesh:
    def test_writes_off_file(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        out_dir = str(tmp_path / "out")
        assert main(["export-mesh", cfg, "--out", out_dir]) == 0
        off = Path(out_dir, "mesh.off").read_text()
        assert off.startswith("OFF")


# SHA-256 of every builtin's report.json, spectrum.csv and samples.csv,
# recorded before one density-free chart was shared by a run, its variation
# family and its density sweep: that change, and any other refactor, keeps
# every output byte for byte.  Every spectrum.csv, every report.json and
# the threshold's samples.csv were re-recorded when the index form moved
# onto one symmetric sparsity pattern (eigenvalues moved by at most 2.1e-14).
OUTPUT_DIGESTS = {
    "flat-slab-slice": {
        "report.json": "785cc478966238418f5ec329c2730abfac248c4632788788916c40d8f279f2b1",
        "spectrum.csv": "f2f8cfb245b2f4e8ca871c3a247c5390e5c6ab693922a4a90bd93c067d5b8471",
        "samples.csv": "203046c0b9770f03cb0acd33c3080c1afe659b529d5cd6f0a25009ba32ddfda4",
    },
    "gauss-identity-suite": {
        "report.json": "a151695f9bc6b2e94fabbf1f6b0c90bf1f7671ce8446cf55a29efb399b99dcbd",
        "spectrum.csv": "46c04de2e7b0e2b04996c8337e33213021cb1b7e037b3882f3069941d6e163d5",
    },
    "paper-Mr-k-minus-2": {
        "report.json": "5de30e9c17215d5e32ec6bc5dd4f8ace50b459f9f36613780d911e939781ef9b",
        "spectrum.csv": "6fb483e8c1d6e01e4a0ac76e9dc84874818ec610ccc4b5c583ca455ae5f1fc8b",
    },
    "paper-ex-3.8-convex-cone": {
        "report.json": "e5fb9920805aa468f4dca7badb0747e7c387fb1d9b5f7f65205f15fa7f040b77",
        "spectrum.csv": "f4b0f0914d59eff0d2a4372d21f4abcec2c0b2d61ecffa66ab4540b8dae9a5f9",
    },
    "paper-ex-3.8-gaussian-halfspace": {
        "report.json": "4b707d7986e5233827f2c825161812c028e584db2622a90d6bce4afc3d8672c8",
        "spectrum.csv": "748bdf44bede882c2bbce1f830af411da20e22bda9673a0347749aef42ef72f7",
    },
    "paper-ex-3.9-threshold": {
        "report.json": "5bb7974116998cd82f95954bb35149f1e80c8c7b0752a411473b83a3e3ad2f4a",
        "samples.csv": "63e04211fed2a201fdd39ad76484b141dd7167918f0db25f44852fb460e27c71",
    },
    "paper-product-cylinder": {
        "report.json": "c41aeb951ce5bab1470004a2b830cc2f32d6eeda54c3467d252716a61f5da177",
        "spectrum.csv": "7ace55491c016455e4846ef46b42e4e7f056f28cd1d6be8f17f092bb0b3bee55",
    },
    "paper-product-torus": {
        "report.json": "9b79f9bdeaa853a0c158f25d085e5b9b8fc234c9edb8e6b7ceb7bcdc5d0d7fa8",
        "spectrum.csv": "4ef1f98623b9b60f48255919971c17338069c628bdb59692246c9a56cad8f302",
    },
    "sphere-classical-instability": {
        "report.json": "32e517355c4cf3a51e3f544da1d63287fb6b1b2fd5c1bb2afdbc3d9c86756ecd",
        "spectrum.csv": "6368a7abf62a55c32049881c2958fdf30bfc228893d82aaac823ab43a23d6c25",
    },
}


# SHA-256 of the outputs of runs no builtin covers: a curved scaling
# variation and a cone foliation (the CI scenarios), a density sweep
# sharing one chart, a rect patch with 4 boundary arcs in a free ambient,
# and a translation and a rotation variation.  The scaling samples were
# recorded after scaled and rotated slices took their normal and area
# element from the cofactor matrix; the scaling report and the rotation and
# cone samples after a similarity slice took lambda^2 w da and the base
# normal speed; the rotation outputs after every per-point sum and the
# rotation matrices were summed in index order with no BLAS product; every
# output holding a spectrum or an index form (the scaling, translation,
# rect, rotation and sweep reports, the rect and rotation spectra and the
# sweep samples) after the index form moved onto one symmetric sparsity
# pattern; the rest before the mesher numbered its edges once.
SCENARIO_DIGESTS = {
    "scaling": {
        "report.json": "c628ad789eb9daf4a97df97c579b38dc1a7809bd12a62f40e73f93c958c72659",
        "samples.csv": "bebdd41f37d24d2e815c61d13c18fa522820351529330becb3d0f139f663a02d",
    },
    "cone": {
        "report.json": "79100df9b420aa1af99eab21b24102b6fff7f5360095fff7b1ff602f073484e7",
        "samples.csv": "98210c4c74ae099dc407747525860b50d9ac2a55e81c29d96a6e438aca4a80fc",
    },
    "sweep-k": {
        "report.json": "8f191e6fdd8bbbcf8f6ac499fc6fdb522e710c28d9e716c5441ae418344e2c08",
        "samples.csv": "63e04211fed2a201fdd39ad76484b141dd7167918f0db25f44852fb460e27c71",
    },
    "rect": {
        "report.json": "846aefe2b0ed1045713d3ba9cc1fa383758312d473a35ddee72c4958020fa769",
        "spectrum.csv": "844caa16d94b85f049d9658d78cb98f78d690970de06338eebbc80a66d131735",
    },
    "translation": {
        "report.json": "a79b4c90bc6f017446cb89b9cdfda2950a173e4aa3e0b5c0cf75331ec4bec0b3",
        "samples.csv": "6594150145017accdfd011782c5dfb3aaca216b4b2e659c7bf0428df9f652a03",
    },
    "rotation": {
        "report.json": "fa9dd31f8e76dd587f04d7bb458265070ede0052ffcb2d21834a9cc1a87c6599",
        "spectrum.csv": "42bf29eb09c18b523602a21c4292cbad1cd0d94839cf6e8843043b7aecb7f9f3",
        "samples.csv": "176552f0c9bab8bf8988589ab123b1b405705c4c27676754e5e865844c959726",
    },
}

SCENARIO_TREES = {
    "scaling": half_sphere({"name": "radial-log", "k": -2.6}, 24,
                           ["stationarity", "first-variation",
                            "second-variation"],
                           variation={"flow": "scaling"}),
    "cone": {"ambient": {"density": {"name": "radial-smooth",
                                     "coeffs": [0.0, 0.0, 0.5]},
                         "boundary": {"name": "cone", "alpha": 0.7}},
             "surface": {"builtin": "spherical-cap", "alpha": 0.7},
             "resolution": 24, "tasks": ["stationarity", "foliation"],
             "variation": {"flow": "scaling"}},
    "rect": {"ambient": {"density": {"name": "gaussian"}},
             "surface": {"builtin": "rect-patch",
                         "origin": [1.0, -0.5, -0.75],
                         "u_range": [0.0, 1.0], "v_range": [0.0, 1.5]},
             "resolution": 12,
             "tasks": ["stationarity", "spectrum", "identities",
                       "topology"]},
    # the variation-fd translation job, off-axis
    "translation": half_sphere({"name": "radial-log", "k": -1.3}, 24,
                               ["stationarity", "first-variation",
                                "second-variation"],
                               variation={"flow": "translation",
                                          "direction": [0.6, 0.8, 0.0]}),
    # a cap whose rotation has 9 nonzero entries, rotated about its axis
    "rotation": {"ambient": {"density": {"name": "radial-smooth",
                                         "coeffs": [0.0, 0.0, 0.5]},
                             "boundary": {"name": "cone", "alpha": 0.7,
                                          "axis": [1, 2, 3]}},
                 "surface": {"builtin": "spherical-cap", "alpha": 0.7,
                             "axis": [1, 2, 3]},
                 "resolution": 16,
                 "tasks": ["stationarity", "first-variation", "spectrum"],
                 "variation": {"flow": "rotation", "axis": [1, 2, 3]}},
}


class TestDeterminism:
    @pytest.mark.skipif(not cf.same_float_kernels(), reason=(
        "this platform's trigonometry, exp, log or sparse solvers round "
        "unlike the recording one"))
    @pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
    def test_builtin_outputs_match_their_digests(self, tmp_path, name):
        out_dir = tmp_path / name
        assert main(["builtin", name, "--out", str(out_dir)]) == 0
        written = {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                   for f in ("report.json", "spectrum.csv", "samples.csv")
                   if (out_dir / f).exists()}
        assert written == OUTPUT_DIGESTS[name]

    @pytest.mark.skipif(not cf.same_float_kernels(), reason=(
        "this platform's trigonometry, exp, log or sparse solvers round "
        "unlike the recording one"))
    @pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
    def test_scenario_outputs_match_their_digests(self, tmp_path, name):
        out_dir = tmp_path / name
        if name == "sweep-k":
            argv = ["sweep", "gauss-identity-suite", "--param",
                    "ambient.density.k", "--range=-3:-1:0.5"]
        else:
            argv = ["run", write_config(tmp_path, SCENARIO_TREES[name],
                                        f"{name}.json")]
        assert main(argv + ["--out", str(out_dir)]) == 0
        written = {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
                   for f in ("report.json", "spectrum.csv", "samples.csv")
                   if (out_dir / f).exists()}
        assert written == SCENARIO_DIGESTS[name]

    def test_every_builtin_has_output_digests(self):
        assert sorted(OUTPUT_DIGESTS) == scenarios.builtin_names()

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SCENARIO)
        blobs = []
        for tag in ("a", "b"):
            out_dir = str(tmp_path / tag)
            assert main(["run", cfg, "--out", out_dir]) == 0
            blobs.append(Path(out_dir, "report.json").read_bytes())
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


class TestScenarioValues:
    """Values of the pinned scenarios against closed forms or recorded
    values, with stated tolerances.  These run on any platform, also where
    the digests above skip.  Where a docstring gives the measured error
    under other float kernels, it is the largest of the recording platform,
    OPENBLAS_CORETYPE=Haswell and NPY_DISABLE_CPU_FEATURES="X86_V4
    AVX512_ICL AVX512_SPR"."""

    @staticmethod
    def run_scenario(tmp_path, name):
        """The columns s, A_f, V_f of samples.csv and the report."""
        out_dir = tmp_path / name
        assert main(["run", write_config(tmp_path, SCENARIO_TREES[name],
                                         f"{name}.json"),
                     "--out", str(out_dir)]) == 0
        rows = (out_dir / "samples.csv").read_text().splitlines()[1:]
        samples = np.array([[float(x) for x in r.split(",")] for r in rows])
        return samples.T, json.loads((out_dir / "report.json").read_text())

    def test_scaling(self, tmp_path):
        """Scaling by 1 + s multiplies the area element by (1 + s)^2 and the
        log-radial density by (1 + s)^k, so A_f(s) = (1 + s)^(2 + k) A_f(0)
        to rounding (measured: 0.7 eps) and A_f'(0) = 2 pi (2 + k) to the
        quadrature error (measured: 1.2e-5 relative at resolution 24)."""
        k = SCENARIO_TREES["scaling"]["ambient"]["density"]["k"]
        (s, A_f, _), report = self.run_scenario(tmp_path, "scaling")
        want = (1.0 + s) ** (2.0 + k) * A_f[s == 0.0]
        assert np.max(np.abs(A_f - want) / want) <= 8 * cf.EPS
        fd = report["results"]["first_variation"]["fd"]
        assert fd == pytest.approx(2.0 * np.pi * (2.0 + k), rel=1e-4)

    def test_cone(self, tmp_path):
        """Scaling the unit cap about the cone's apex multiplies the area
        element by (1 + s)^2 and the density e^(r^2 / 2) by
        e^(((1 + s)^2 - 1) / 2), to rounding (measured: 0.7 eps relative);
        the normal speed is |p| = 1, so V_f(s) is the integral of A_f from
        0 to s (measured: 3.3e-16)."""
        (s, A_f, V_f), _ = self.run_scenario(tmp_path, "cone")

        def area(t):
            return (1.0 + t) ** 2 * np.exp(((1.0 + t) ** 2 - 1.0) / 2.0) * A0

        A0 = A_f[s == 0.0]
        assert np.max(np.abs(A_f - area(s)) / area(s)) <= 8 * cf.EPS
        swept = [integrate.quad(lambda t: area(t)[0], 0.0, t)[0] for t in s]
        assert np.max(np.abs(V_f - swept)) <= 1e-9

    def test_rotation(self, tmp_path):
        """A rotation about the cone's axis maps the cap onto itself in a
        radial density: A_f(s) = A_f(0) to rounding (measured: 0 eps) and
        V_f(s) = 0 (measured: 2e-19 A_f)."""
        (s, A_f, V_f), _ = self.run_scenario(tmp_path, "rotation")
        A0 = A_f[s == 0.0]
        assert np.max(np.abs(A_f - A0)) <= 8 * cf.EPS * A0
        assert np.max(np.abs(V_f)) <= 1e-15 * A0


    def test_rect(self, tmp_path):
        """A flat rectangle in the plane x = 1 under the Gaussian density
        psi = -|p|^2 has H_f = 2 and the constants as its lowest mode,
        lambda_min = -2 (measured: 5.8e-15), and A_f = e^-1 pi erf(1/2)
        erf(3/4) to the quadrature error (measured: 1.3e-7 relative).  The
        other eigenvalues and the topology chain match recorded values
        within 1e-9 max(1, |value|) (measured: 3.6e-15)."""
        code, report = run_report(tmp_path, SCENARIO_TREES["rect"])
        assert code == 0
        A_f = math.exp(-1.0) * math.pi * math.erf(0.5) * math.erf(0.75)
        assert report["geometry"]["A_f"] == pytest.approx(A_f, rel=1e-6)
        assert report["geometry"]["H_f_mean"] == pytest.approx(2.0,
                                                               abs=1e-12)
        results = report["results"]
        got = results["spectrum"]["eigenvalues"] + [
            results["topology"][key] for key in ("I_f_u", "bound1",
                                                 "bound2")]
        want = [-2.0, 3.4706236614004666, 8.95807079146189,
                14.565111681808183, 16.88497686401926, 28.307866755648753,
                -2.59375, -2.3105646928204138, 2.0 * math.pi]
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(np.array(got) - want) <= 1e-9 * scale)
        assert results["topology"]["verdict"] == "NotApplicable"

    def test_translation(self, tmp_path):
        """An in-plane unit translation d of the unit half-sphere under the
        log-radial density |p|^k.  Turning the picture by pi about the z
        axis maps the slice at s to the one at -s, so A_f'(0) = 0, from
        the FD and from the formula (measured: 1.7e-9 and 9.4e-10).  On
        the sphere |p + s d|^2 = 1 + s^2 + 2 s <d, p>, so A_f(s) is
        pi ((1 + s)^(2+k) - (1 - s)^(2+k)) / ((2 + k) s), and V_f(s) the
        integral over [0, s] of pi int_{-1}^{1} u (1 + t^2 + 2 t u)^(k/2) du
        dt: A_f(s) / A_f(0) agrees with it within 1e-6 relative (measured:
        1.7e-7) and V_f(s) within 1e-4 max |V_f| (measured: 1.7e-5), the
        quadrature error of the curved triangles.  The normal speed <d, N>
        is an l = 1 harmonic, so I_f(u, u) = -k 2 pi / 3: the FD within
        2e-4 relative (measured: 3.5e-5), the P1 index form within 1e-3
        (measured: 3.6e-4)."""
        k = SCENARIO_TREES["translation"]["ambient"]["density"]["k"]
        (s, A_f, V_f), report = self.run_scenario(tmp_path, "translation")
        first = report["results"]["first_variation"]
        assert abs(first["fd"]) <= 1e-8 and abs(first["formula"]) <= 1e-8

        def area(t):
            if t == 0.0:
                return 2.0 * math.pi
            return (math.pi * ((1.0 + t) ** (2.0 + k) - (1.0 - t) ** (2.0 + k))
                    / ((2.0 + k) * t))

        def volume(t):
            return integrate.dblquad(
                lambda u, r: math.pi * u * (1.0 + r * r + 2.0 * r * u)
                ** (k / 2.0), 0.0, t, -1.0, 1.0)[0]

        ratio = np.array([area(t) for t in s]) / (2.0 * math.pi)
        assert np.max(np.abs(A_f / A_f[s == 0.0] / ratio - 1.0)) <= 1e-6
        want_V = np.array([volume(t) for t in s])
        assert np.max(np.abs(V_f - want_V)) <= 1e-4 * np.max(np.abs(want_V))
        second = report["results"]["second_variation"]
        want = -k * 2.0 * math.pi / 3.0
        assert second["fd"] == pytest.approx(want, rel=2e-4)
        assert second["index_form"] == pytest.approx(want, rel=1e-3)

    def test_sweep_k(self, tmp_path):
        """The constants are the lowest mode of the log-radial half-sphere,
        so lambda_min = -(2 + k) at every k of the sweep, in its runs and
        in its table (measured: 1.1e-14)."""
        out_dir = tmp_path / "sweep-k"
        assert main(["sweep", "gauss-identity-suite", "--param",
                     "ambient.density.k", "--range=-3:-1:0.5",
                     "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        rows = report["sweep"]["rows"]
        assert [r[0] for r in rows] == [-3.0, -2.5, -2.0, -1.5, -1.0]
        for k, lam in (r[:2] for r in rows):
            run = report["runs"][str(k)]["results"]["spectrum"]
            assert run["lambda_min"] == lam
            assert abs(lam + (2.0 + k)) <= 1e-12, k


# each builtin's A_f, its six lowest eigenvalues and its verdicts, to 12
# significant digits (an eigenvalue below 1e-9 as 0); a sweep's per value
BUILTIN_VALUES = {
    "flat-slab-slice": (
        12.5663706144, [0.0, 1.01274914318, 1.01274914318, 2.54959750165,
                        3.69269256187, 3.69269256187],
        {"strong": True, "volume_constrained": True,
         "topology": "DiskOrCylinder", "rigidity": True}),
    "gauss-identity-suite": (
        6.28311257683, [0.5, 2.50097774039, 2.50097956347, 6.5080953652,
                        6.50816609984, 6.51467712662],
        {"strong": True, "volume_constrained": True}),
    "paper-Mr-k-minus-2": (
        12.5663705385, [0.0, 0.501323142749, 0.501323142749, 0.502174197358,
                        1.50944230009, 1.50944230009],
        {"strong": True, "volume_constrained": True,
         "topology": "SphereOrTorus"}),
    "paper-ex-3.8-convex-cone": (
        2.43600515777, [-1.0, 6.41880507257, 6.41881609135, 19.7447042102,
                        19.744767941, 29.0354878515],
        {"strong": False, "volume_constrained": True}),
    "paper-ex-3.8-gaussian-halfspace": (
        2.31142794358, [-4.0, -1.99902225961, -1.99902043653, 2.0080953652,
                        2.00816609984, 2.01467712662],
        {"strong": False, "volume_constrained": False}),
    "paper-ex-3.9-threshold": {
        -1.0: (6.28311257683, [-1.0, 1.00097774039, 1.00097956347,
                               5.0080953652, 5.00816609984, 5.01467712662],
               {"strong": False, "volume_constrained": True}),
        -1.5: (6.28311257683, [-0.5, 1.50097774039, 1.50097956347,
                               5.5080953652, 5.50816609984, 5.51467712662],
               {"strong": False, "volume_constrained": True}),
        -2.0: (6.28311257683, [0.0, 2.00097774039, 2.00097956347,
                               6.0080953652, 6.00816609984, 6.01467712662],
               {"strong": True, "volume_constrained": True}),
        -2.5: (6.28311257683, [0.5, 2.50097774039, 2.50097956347,
                               6.5080953652, 6.50816609984, 6.51467712662],
               {"strong": True, "volume_constrained": True}),
        -3.0: (6.28311257683, [1.0, 3.00097774039, 3.00097956347,
                               7.0080953652, 7.00816609984, 7.01467712662],
               {"strong": True, "volume_constrained": True}),
    },
    "paper-product-cylinder": (
        12.5663706144, [0.0, 1.00569509265, 1.00569509265, 2.49927016406,
                        3.55901784272, 3.55901784272],
        {"strong": True, "volume_constrained": True,
         "topology": "DiskOrCylinder", "rigidity": True,
         "area_bound_applies": False}),
    "paper-product-torus": (
        39.4784176044, [0.0, 1.00572453375, 1.00572453375, 1.00572453375,
                        1.00572453375, 2.01144906751],
        {"strong": True, "volume_constrained": True,
         "topology": "SphereOrTorus", "rigidity": True}),
    "sphere-classical-instability": (
        12.5663705385, [-2.0, 0.00529257099571, 0.00529257099572,
                        0.00869678943312, 4.03776920036, 4.03776920036],
        {"strong": False, "volume_constrained": True,
         "topology": "NotApplicable"}),
}


class TestBuiltinValues:
    """Each builtin's A_f, eigenvalues and verdicts against recorded values
    with stated tolerances: A_f within 1e-10 relative and each eigenvalue
    within 1e-9 max(1, |lambda|).  Another BLAS kernel set or exp/log
    kernel moves them in the 15th digit (measured with
    OPENBLAS_CORETYPE=Haswell: at most 8e-15 on an eigenvalue, and A_f
    not at all).  These run on any platform, also where the digests above
    skip."""

    @staticmethod
    def verdicts(report):
        results = report["results"]
        out = {"strong": results["spectrum"]["verdict_strong"],
               "volume_constrained":
                   results["spectrum"]["verdict_volume_constrained"]}
        if "topology" in results:
            out["topology"] = results["topology"]["verdict"]
        if "rigidity" in results:
            out["rigidity"] = results["rigidity"]["all_true"]
        if "area_bounds" in results:
            out["area_bound_applies"] = results["area_bounds"]["applicable"]
        return out

    @pytest.mark.parametrize("name", sorted(BUILTIN_VALUES))
    def test_builtin(self, tmp_path, name):
        out_dir = tmp_path / name
        assert main(["builtin", name, "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        want = BUILTIN_VALUES[name]
        if "runs" in report:
            runs = {float(k): run for k, run in report["runs"].items()}
        else:
            runs, want = {None: report}, {None: want}
        assert sorted(runs, key=str) == sorted(want, key=str)
        for key, (A_f, eigenvalues, verdicts) in want.items():
            run = runs[key]
            assert run["geometry"]["A_f"] == pytest.approx(A_f, rel=1e-10)
            got = np.array(run["results"]["spectrum"]["eigenvalues"])
            scale = np.maximum(1.0, np.abs(eigenvalues))
            assert np.all(np.abs(got - eigenvalues) <= 1e-9 * scale), key
            assert self.verdicts(run) == verdicts, key


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
    """Scenario trees of every builtin without its sweep, at resolution 8.

    A tree holds no sweep, so a builtin sweep's expectation goes too."""
    from wstab.scenarios import (builtin_names, builtin_scenario,
                                 scenario_to_tree)
    trees = []
    for name in builtin_names():
        scn = builtin_scenario(name)
        tree = scenario_to_tree(scn)
        if scn.sweep is not None:
            tree.pop("expect", None)
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
