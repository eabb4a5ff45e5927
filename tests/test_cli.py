"""End-to-end tests of the command line interface."""
import contextlib
import copy
import dataclasses
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

    @pytest.mark.parametrize("command", ["run", "sweep", "export-mesh"])
    @pytest.mark.parametrize("case", ["not-utf-8", "directory"])
    def test_unreadable_scenario_file_exits_4_in_one_line(
            self, tmp_path, capsys, command, case):
        """The one tree loader of run, sweep and export-mesh turns a file it
        cannot decode or open into a config error (both raised a traceback
        and exited 1)."""
        path = tmp_path / "scenario.json"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "resolution", "--range=8:12:4"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            f"config error: cannot read scenario file {path}: ")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "SCENARIO"], ["builtin", "paper-product-torus"],
        ["sweep", "gauss-identity-suite", "--param", "resolution",
         "--range=8:12:4"],
        ["export-mesh", "gauss-identity-suite"]],
        ids=["run", "builtin", "sweep", "export-mesh"])
    def test_out_naming_a_file_exits_4_before_the_run(
            self, tmp_path, capsys, monkeypatch, argv):
        """Nothing is read, meshed or run (the run finished, then writing
        its outputs raised FileExistsError with a traceback, exit 1)."""
        def forbidden(*args, **kwargs):
            raise AssertionError("read a scenario for an --out it cannot use")

        for name in ("parse_scenario", "builtin_scenario"):
            monkeypatch.setattr(wstab.cli, name, forbidden)
        out = tmp_path / "taken"
        out.write_text("keep")
        argv = [write_config(tmp_path, SMALL_SCENARIO) if a == "SCENARIO"
                else a for a in argv]
        assert main(argv + ["--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"config error: --out {out} is a file, not a directory"]
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("command", ["run", "export-mesh"])
    def test_output_that_cannot_be_written_exits_4_in_one_line(
            self, tmp_path, capsys, command):
        """An --out under a file cannot be created."""
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "out"
        assert main([command, write_config(tmp_path, SMALL_SCENARIO),
                     "--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: ")
        assert str(out_dir) in captured.err
        assert "Traceback" not in captured.out + captured.err

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
        {"tasks": [[], "spectrum"]},
        {"sweep": {"param": 3, "values": [1, 2]}, "expect": {}},
    ], ids=["boundary-axis", "density-name", "expect-number", "tolerance",
            "S0", "flow-vector", "cap-center", "patch-range", "patch-aspect",
            "nan-offset", "nan-cone-alpha", "huge-int-k", "nan-tolerance",
            "inf-S0", "inf-expect", "nan-expect-flag", "inf-radius",
            "nan-flow-direction", "inf-circumference", "deep-nesting",
            "orientation-zero", "zero-density", "negative-density",
            "zero-cap-axis", "zero-rotation-axis", "zero-cone-axis",
            "zero-cap-radius", "zero-disk-radius", "zero-sphere-radius",
            "string-expect-flag", "fractional-chi", "unknown-topology",
            "lambda-tol-without-lambda-min", "zero-lambda-tol",
            "list-task", "numeric-sweep-param"])
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
        tree = scenarios.builtin_tree(builtin)
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

    @staticmethod
    def count_charts_and_solves(monkeypatch) -> dict:
        counts = {"assemble": 0, "robin_eigenproblem": 0, "build_chart": 0}
        for name in counts:
            def counting(*args, name=name, original=getattr(scenarios, name),
                         **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(scenarios, name, counting)
        return counts

    def test_bad_sweep_value_exits_4_before_any_value_runs(
            self, tmp_path, capsys, monkeypatch):
        """The last S0 of the sweep is 0: every value is read before the
        first is meshed or solved."""
        counts = self.count_charts_and_solves(monkeypatch)
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

    @pytest.mark.parametrize("surface,boundary,param,values,message", [
        ({"builtin": "spherical-cap"}, {"name": "half-space", "axis": 2},
         "ambient.boundary.axis", [2, 7], "boundary axis must be 0, 1 or 2"),
        ({"builtin": "spherical-cap", "alpha": 0.7},
         {"name": "cone", "alpha": 0.7}, "surface.alpha", [0.7, 3.5],
         "cap opening angle must lie in (0, pi)"),
    ], ids=["boundary-axis", "cap-alpha-above-pi"])
    def test_bad_registry_value_in_a_sweep_exits_4_before_any_chart(
            self, tmp_path, capsys, monkeypatch, surface, boundary, param,
            values, message):
        """Each value's ambient space and immersion are built when the
        scenario is read, so a malformed last value exits 4 with nothing
        meshed or solved (the first value was meshed and solved)."""
        counts = self.count_charts_and_solves(monkeypatch)
        tree = half_sphere({"name": "radial-smooth",
                            "coeffs": [0.0, 0.0, 0.5]}, 8, ["spectrum"],
                           surface=surface,
                           sweep={"param": param, "values": values})
        tree["ambient"]["boundary"] = boundary
        out_dir = tmp_path / "out"
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert counts == {"assemble": 0, "robin_eigenproblem": 0,
                          "build_chart": 0}
        assert not out_dir.exists()

    def test_sweep_value_off_the_ambient_boundary_exits_4_before_any_chart(
            self, tmp_path, capsys, monkeypatch):
        """Offset 0.5 lifts the half-space plane off the half-sphere's rim.
        Each value's boundary arcs are checked against the ambient boundary
        when the sweep is read, so nothing is meshed or charted, and the
        message names the value (the chart's check found it after meshing
        and solving offset 0, and named neither)."""
        calls = {"surface_chart": 0, "mesh_from_immersion": 0}
        for module, name in ((scenarios, "surface_chart"),
                             (surface, "mesh_from_immersion")):
            def counting(*args, name=name, original=getattr(module, name),
                         **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        out_dir = tmp_path / "out"
        assert main(["sweep", "gauss-identity-suite",
                     "--param", "ambient.boundary.offset",
                     "--range=0:0.5:0.5", "--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: sweep ambient.boundary.offset = 0.5: ")
        assert "off the ambient boundary" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.out + captured.err
        assert calls == {"surface_chart": 0, "mesh_from_immersion": 0}
        assert not out_dir.exists()

    def test_sweep_base_off_the_ambient_boundary_exits_4(self, tmp_path,
                                                          capsys):
        """A sweep's base tree is checked as a single run's is, though
        every value puts the rim on the plane: it is the surface that
        export-mesh meshes for the scenario.  Its refusal names no value."""
        tree = half_sphere({"name": "radial-log", "k": -2.5}, 8, ["spectrum"],
                           sweep={"param": "ambient.boundary.offset",
                                  "values": [0.0, 0.0]})
        tree["ambient"]["boundary"]["offset"] = 0.5
        out_dir = tmp_path / "out"
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(out_dir)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: the surface's boundary is "
                                 "off the ambient boundary")
        assert not out_dir.exists()

    def test_refused_middle_sweep_value_is_named(self, tmp_path, capsys):
        """The registry's own error gains the sweep's parameter and the
        value it refused; the values around it are valid."""
        tree = half_sphere({"name": "radial-log", "k": -2.5}, 8, ["spectrum"],
                           sweep={"param": "ambient.boundary.axis",
                                  "values": [2, 7, 2]})
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep ambient.boundary.axis = "
                              "7.0: boundary axis must be 0, 1 or 2")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("block", ["density", "boundary", "surface",
                                       "flow"])
    def test_unknown_registry_name_exits_4_and_names_its_block(
            self, tmp_path, capsys, block):
        tree = half_sphere({"name": "radial-log", "k": -2.5}, 8,
                           ["first-variation"], variation={"flow": "scaling"})
        node, key = {"density": (tree["ambient"]["density"], "name"),
                     "boundary": (tree["ambient"]["boundary"], "name"),
                     "surface": (tree["surface"], "builtin"),
                     "flow": (tree["variation"], "flow")}[block]
        node[key] = "no-such-name"
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            f"config error: unknown {block} 'no-such-name' (available: ")

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
    evaluations, blended quadrature point evaluations,
    `SphericalCap.chart_jac` calls and the `grad_phi` evaluations of the
    ambient boundary of each scenario parsed."""
    from wstab import functionals, stability, theorems
    counts = {"runs": 0, "charts": 0, "geometry": 0, "blend": 0,
              "cap_jac": 0, "grad_phi": 0}

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
    space = scenarios.AmbientSpace

    def counted_space(density, boundary):
        if boundary is not None:
            boundary = dataclasses.replace(
                boundary, grad_phi=counting("grad_phi", boundary.grad_phi))
        return space(density, boundary)

    monkeypatch.setattr(scenarios, "AmbientSpace", counted_space)
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

    @pytest.mark.parametrize("name,calls", [("gauss-identity-suite", 1),
                                            ("flat-slab-slice", 9)],
                             ids=["gauss-identity-suite", "flat-slab-slice"])
    def test_boundary_gradient_once_per_point_set(self, tmp_path,
                                                  monkeypatch, name, calls):
        """grad(phi) is evaluated once per geometry (the base and each of
        the flat slab's 8 foliation slices) for the boundary's normal and
        shape form together (3 and 19 while each evaluated it, 2 and 10
        while the mesher projected the boundary vertices)."""
        counts = count_calls(monkeypatch)
        assert main(["builtin", name, "--out", str(tmp_path / "out")]) == 0
        assert counts["grad_phi"] == calls

    def test_tolerance_sweep_builds_one_chart(self, tmp_path, monkeypatch):
        """A sweep shares one chart among its values unless it sweeps the
        surface or the resolution: the chart reads no ambient space, so a
        tolerance leaves it as it is (each value built its own chart while
        only density sweeps shared one)."""
        tree = scenarios.builtin_tree("gauss-identity-suite")
        tree.pop("expect")
        tree.update(tolerances={"verdict": 1e-3},
                    sweep={"param": "tolerances.verdict",
                           "values": [1e-3, 1e-2]})
        counts = count_calls(monkeypatch)
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(tmp_path / "out")]) == 0
        assert counts["runs"] == 2
        assert counts["charts"] == 1
        assert counts["geometry"] == 2

    def test_foliation_slices_reuse_the_base_chart(self, tmp_path,
                                                   monkeypatch):
        """The chart of the run is the only chart evaluation besides the
        mesh, the vertex normals and the check of the boundary arcs when
        the scenario is read: 5 charts (9 points per arc, vertices, seam
        corners, quadrature and boundary points), 3 Jacobians and 2
        Hessians (deformed immersions re-evaluating the base took 130
        charts, 40 Jacobians and 11 Hessians, a family charting its own
        base 8, 6 and 4)."""
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
        assert calls["chart"] <= 5
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
        (scenarios.builtin_tree("flat-slab-slice"), 1),
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
        tree = scenarios.builtin_tree("flat-slab-slice")
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
        tree = scenarios.builtin_tree("flat-slab-slice")
        tree.pop("expect")
        tree.update(resolution=8, tasks=["foliation"],
                    tolerances={"foliation": 0.25})
        result = scenarios.run_scenario(scenarios.parse_scenario(tree))
        assert result.passed
        assert tols == [0.25]

    @pytest.mark.parametrize("name,ricci_holds", [("flat-slab-slice", True),
                                                  ("cone", False)])
    def test_foliation_block_reports_both_hypotheses(self, name,
                                                     ricci_holds):
        """Ric_f >= 0 and II >= 0 are reported with their sampled minima,
        and the monotonicity is asserted only where both hold: the flat
        slab has Ric_f = II = 0, and the cone's density psi = |p|^2 / 2
        has Ric_f = -1 on its convex boundary."""
        tree = (scenarios.builtin_tree(name) if name == "flat-slab-slice"
                else copy.deepcopy(SCENARIO_TREES[name]))
        tree.pop("expect", None)
        tree.update(resolution=8, tasks=["foliation"])
        block = scenarios.run_scenario(scenarios.parse_scenario(
            tree)).report["results"]["foliation"]
        ricci, boundary = (block["hypothesis_ricci"],
                           block["hypothesis_boundary"])
        assert set(ricci) == set(boundary) == {"sampled_min", "holds"}
        assert ricci["holds"] == ricci_holds and boundary["holds"]
        assert (ricci["sampled_min"] >= -1e-9) == ricci_holds
        assert block["monotone_asserted"] == ricci_holds


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
        tree = scenarios.builtin_tree("flat-slab-slice")
        tree.update(resolution=8, tasks=[task], expect={key: value})
        tree.pop("variation")
        assert run_report(tmp_path, tree)[0] == code

    # for each row of the expectation table, a builtin and the expectations
    # that make its check fail: the builtin's own one inverted, or, for
    # lambda_tol, a lambda_min 1e-4 off (within the default 1e-3) with
    # lambda_tol below that error
    FAILING = {
        "lambda_min": ("gauss-identity-suite", {"lambda_min": -0.5}),
        "lambda_tol": ("gauss-identity-suite",
                       {"lambda_min": 0.5001, "lambda_tol": 1e-5}),
        "strong": ("gauss-identity-suite", {"strong": False}),
        "volume_constrained": ("paper-ex-3.8-gaussian-halfspace",
                               {"volume_constrained": True}),
        "topology": ("paper-product-torus", {"topology": "DiskOrCylinder"}),
        "chi": ("paper-product-torus", {"chi": 2}),
        "I_f_u_zero": ("paper-product-cylinder", {"I_f_u_zero": False}),
        "rigidity_all_true": ("paper-product-torus",
                              {"rigidity_all_true": False}),
        "sweep_zero_crossing": ("paper-ex-3.9-threshold",
                                {"sweep_zero_crossing": -1.0}),
    }

    @pytest.mark.parametrize("key", list(scenarios.EXPECTATIONS))
    def test_every_expectation_can_fail(self, tmp_path, capsys, key):
        """Each expectation FAILs its task's check, and only that check,
        when the run does not meet it."""
        if key not in self.FAILING:
            pytest.fail(f"no failing case for expect.{key}")
        name, expect = self.FAILING[key]
        tree = scenarios.builtin_tree(name)
        tree["expect"].update(expect)
        code, report = run_report(tmp_path, tree)
        assert code == 2
        task = scenarios.EXPECTATIONS[key].task
        failed = "sweep-zero-crossing" if task == "sweep" else task
        assert [c["name"] for c in report["checks"] if not c["passed"]] == [
            failed]
        assert f"[FAIL] {failed}: " in capsys.readouterr().out

    def test_readme_table_is_the_expectation_table(self):
        """The README's expect table lists each key of the code's table
        once, in its order, with its task and JSON kind."""
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            rows = re.findall(r"^\| `(\w+)` \| `?([\w ]+?)`? \| ([\w ]+?) \|",
                              fh.read(), re.M)
        assert [(key, task, kind) for key, task, kind in rows] == [
            (key, row.task, row.kind)
            for key, row in scenarios.EXPECTATIONS.items()]

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
        """The equatorial disk in the unit ball: its Robin term bends its
        lowest mode, which is not constant and converges at about order 3
        between resolutions 8 and 12 (measured: 3.455)."""
        tree = {"ambient": {"boundary": {"name": "ball", "radius": 1.0}},
                "surface": {"builtin": "planar-disk"},
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


def unit_sphere(value):
    """The unit sphere under a constant density of the given value."""
    return {"ambient": {"density": {"name": "constant", "value": value}},
            "surface": {"builtin": "round-sphere"}, "resolution": 12,
            "tasks": ["stationarity", "spectrum", "topology"],
            "expect": {"lambda_min": -2.0, "lambda_tol": 2e-2,
                       "strong": False, "volume_constrained": True,
                       "topology": "NotApplicable"}}


class TestScaledDensity:
    def test_a_constant_density_leaves_every_verdict(self, tmp_path):
        """Scaling f by a constant scales the pencil's two sides alike:
        the eigenpair residual scales with it (2.2e-7 at 1e8) and passes
        the solver's relative gate, as it did the task's absolute 1e-8
        gate only up to about 1e6."""
        verdicts = []
        for value in (1.0, 1e4, 1e8):
            (tmp_path / str(value)).mkdir()
            code, report = run_report(tmp_path / str(value),
                                      unit_sphere(value))
            assert code == 0
            spectrum = report["results"]["spectrum"]
            assert spectrum["lambda_min"] == pytest.approx(-2.0, abs=2e-2)
            verdicts.append(
                (spectrum["verdict_strong"],
                 spectrum["verdict_volume_constrained"],
                 report["results"]["topology"]["verdict"],
                 report["results"]["stationarity"]["volume_constrained"],
                 [c["passed"] for c in report["checks"]]))
        assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_an_overflowing_density_exits_3_after_one_factor(
            self, tmp_path, capsys, monkeypatch):
        """At 1e308 the stiffness overflows and the proven floor is -inf,
        which no shift lies below: the shift search used to double sigma
        forever.  Past 20 factors the count fails the test."""
        from wstab import stability
        calls = []
        ldlt = stability._ldlt

        def counting(matrix):
            calls.append(matrix.shape)
            assert len(calls) <= 20, "the shift search does not stop"
            return ldlt(matrix)

        monkeypatch.setattr(stability, "_ldlt", counting)
        tree = dict(unit_sphere(1e308), resolution=8,
                    tasks=["stationarity", "spectrum"])
        tree.pop("expect")
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "numerical failure: shift-invert eigensolver failed to bracket "
            "the lowest eigenvalue"]
        assert len(calls) == 1


class TestNonFinite:
    """A value beyond the float range stops the run with exit 3 and one
    line, and writes no report: report.json is strict JSON."""

    @pytest.mark.parametrize("density,surface,message", [
        ({"name": "constant", "value": 1e308}, {"builtin": "round-sphere"},
         "weighted area A_f is not finite"),
        ({"name": "radial-log", "k": 2000.0},
         {"builtin": "round-sphere", "radius": 2.0},
         "density term f is not finite"),
    ], ids=["area", "density"])
    def test_overflow_exits_3_without_a_report(self, tmp_path, capsys,
                                               density, surface, message):
        """A_f = 4 pi 1e308 overflows, and so does f = 2^2000; both runs
        wrote Infinity and NaN into report.json and exited 2."""
        tree = {"ambient": {"density": density}, "surface": surface,
                "resolution": 8, "tasks": ["stationarity"]}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"numerical failure: {message}"]
        assert captured.out == ""
        assert not out.exists()

    def test_a_nan_in_the_report_exits_3_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        """The strict serialization is the backstop for any value that
        reaches a report block without a finiteness check."""
        monkeypatch.setitem(scenarios.TASKS, "stationarity",
                            lambda run: ({"value": NAN}, True, ""))
        tree = half_sphere({"name": "constant"}, 6, ["stationarity"])
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, tree),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert not out.exists()


# a surface and ambient of each radius, the radius at RADIUS_PATHS
RADIUS_TREES = {
    "cap": half_sphere({"name": "constant"}, 8, ["stationarity"]),
    "disk": {"ambient": {"boundary": {"name": "ball", "radius": 1.0}},
             "surface": {"builtin": "planar-disk", "radius": 1.0},
             "resolution": 8, "tasks": ["stationarity", "identities"]},
    "sphere": {"ambient": {}, "surface": {"builtin": "round-sphere"},
               "resolution": 8, "tasks": ["stationarity"]},
    "ball": {"ambient": {"boundary": {"name": "ball", "radius": 1.0}},
             "surface": {"builtin": "planar-disk"},
             "resolution": 8, "tasks": ["stationarity"]},
    "ball-complement": {
        "ambient": {"boundary": {"name": "ball-complement", "radius": 1.0}},
        "surface": {"builtin": "round-sphere", "radius": 2.0},
        "resolution": 8, "tasks": ["stationarity"]},
}
RADIUS_PATHS = {"cap": ("surface",), "disk": ("surface",),
                "sphere": ("surface",), "ball": ("ambient", "boundary"),
                "ball-complement": ("ambient", "boundary")}


class TestRadius:
    @pytest.mark.parametrize("value", [0.0, -1.0, INF])
    @pytest.mark.parametrize("kind", sorted(RADIUS_TREES))
    def test_radius_that_is_not_positive_and_finite_exits_4(
            self, tmp_path, capsys, kind, value):
        """A negative disk radius turned the disk's inward direction
        outward, so that identities FAILed with a boundary residual of 2
        (exit 2), and a negative ball radius exited 3 after meshing."""
        tree = copy.deepcopy(RADIUS_TREES[kind])
        node = tree
        for key in RADIUS_PATHS[kind]:
            node = node.setdefault(key, {})
        node["radius"] = value
        cfg = write_config(tmp_path, tree)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ")
        assert "radius" in err[0]


class TestOffBoundarySurface:
    @pytest.mark.parametrize("command", ["run", "export-mesh"])
    @pytest.mark.parametrize("surface", [
        {"builtin": "planar-disk"},
        {"builtin": "rect-patch", "origin": [1.0, -0.5, -0.75],
         "u_range": [0.0, 1.0], "v_range": [0.0, 1.5]},
    ], ids=["disk", "rect"])
    def test_surface_with_boundary_in_an_ambient_without_one_exits_4(
            self, tmp_path, capsys, command, surface):
        """The paper's surfaces have their boundary on the ambient
        boundary: a unit disk with none reported itself f-stationary,
        though its first variation under scaling is 2 pi, and an open
        rect patch reported itself volume-constrained stationary."""
        tree = {"ambient": {"density": {"name": "gaussian"}},
                "surface": surface, "resolution": 8,
                "tasks": ["stationarity", "spectrum"]}
        cfg = write_config(tmp_path, tree)
        out_dir = tmp_path / "out"
        assert main([command, cfg, "--out", str(out_dir)]) == 4
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0] == ("config error: the surface has a boundary but the "
                          "ambient space has none for it to lie on")
        assert "Traceback" not in captured.out + captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "export-mesh"])
    def test_disk_in_a_cone_exits_4(self, tmp_path, capsys, command):
        """The rim of a radius-0.5 disk through the apex is off the cone:
        the check of its boundary arcs finds it when the scenario is read,
        with an InputError (a MeshingError, exit 3, before the mesher
        checked it)."""
        tree = {"ambient": {"boundary": {"name": "cone", "alpha": 0.7}},
                "surface": {"builtin": "planar-disk", "radius": 0.5},
                "resolution": 12, "tasks": ["stationarity"]}
        cfg = write_config(tmp_path, tree)
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: the surface's boundary is "
                                 "off the ambient boundary")


def sphere_tree(radius, tasks, **extra):
    tree = {"surface": {"builtin": "round-sphere", "radius": radius},
            "ambient": {}, "resolution": 8, "tasks": tasks}
    tree.update(extra)
    return tree


def disk_in_ball_tree(radius, tasks, **extra):
    tree = {"ambient": {"boundary": {"name": "ball", "radius": radius}},
            "surface": {"builtin": "planar-disk", "radius": radius},
            "resolution": 8, "tasks": tasks}
    tree.update(extra)
    return tree


def check_passed(tree, name):
    """Whether the run of the tree passes its check of the given name."""
    result = scenarios.run_scenario(scenarios.parse_scenario(tree))
    return {c.name: c.passed for c in result.checks}[name]


class TestUnitOfLengthTolerances:
    """The identity and variation checks measure each residual against
    the size of the terms it combines, so a surface passes or fails them
    alike at every unit of length.  Each case holds a surface of radius r
    whose terms have the size of r to the power of their units; with its
    residual moved by a small fraction of that size, it fails."""

    def test_small_sphere_passes_its_identities(self):
        """The Gauss rearrangement of a constant-density sphere of radius
        1e-6 leaves 4.9e-4 of terms of size 1/r^2 = 1e12: rounding, which
        an absolute tolerance of 1e-5 failed."""
        assert check_passed(sphere_tree(1e-6, ["identities"]), "identities")

    @pytest.mark.parametrize("tree,target,shift", [
        # a Gauss residual of 1e-3 / r^2 on terms of size 6 / r^2
        (sphere_tree(1e3, ["identities"]),
         "gauss_rearrangement_residual", 1e-9),
        # a boundary residual of 1e-4 / r on terms of size 4 / r
        (disk_in_ball_tree(1e3, ["identities"]),
         "boundary_identity_residual", 1e-7),
    ], ids=["gauss-1e3", "boundary-1e3"])
    def test_identity_residual_above_its_terms_fails(
            self, monkeypatch, tree, target, shift):
        assert check_passed(tree, "identities")
        residual = getattr(scenarios, target)
        monkeypatch.setattr(scenarios, target,
                            lambda data: residual(data) + shift)
        assert not check_passed(tree, "identities")

    def test_sphere_stationarity_at_every_radius(self):
        """A constant-density sphere of radius r has H_f = -2/r: it is
        stationary under volume constraint, and not strongly, at every
        radius.  Radius 1e7 passed for strongly stationary, with
        H_f = -2e-7, under the absolute tolerance 1e-6 (1 + |mean H_f|)."""
        def verdict(radius):
            tree = sphere_tree(radius, ["stationarity"])
            result = scenarios.run_scenario(scenarios.parse_scenario(tree))
            return result.report["results"]["stationarity"]

        assert verdict(1e7)["strong"] is False
        assert verdict(1e-9)["volume_constrained"] is True

    @pytest.mark.parametrize("radius", [1.0, 1e7])
    def test_sphere_is_not_rigid_at_any_radius(self, radius):
        """Each rigidity flag measures its quantity in sqrt(area) to the
        power of its units, so a round sphere is neither totally geodesic
        nor flat at any radius.  At radius 1e7, |sigma| = 1.4e-7 and
        K = 1e-14 read as zero under the absolute tolerance 1e-6."""
        tree = sphere_tree(radius, ["rigidity"])
        result = scenarios.run_scenario(scenarios.parse_scenario(tree))
        block = result.report["results"]["rigidity"]
        assert block["totally_geodesic"] is False
        assert block["gauss_flat"] is False
        assert block["all_true"] is False

    @pytest.mark.parametrize("density", ["constant", "gaussian"])
    def test_tilted_plane_in_a_ball_is_stationary(self, density):
        """A disk through the centre of the unit ball, tilted off the
        axes, is totally geodesic and meets the sphere orthogonally.  Its
        blended rim gives a nonzero F, so H_f is rounding there (spread
        4.9e-16) while |2H| + |<grad psi, N>| is rounding too: without a
        rounding term in the tolerance it was not stationary, and the
        second variation and the topology chain raised."""
        tree = disk_in_ball_tree(
            1.0, ["stationarity", "second-variation", "spectrum", "topology"],
            variation={"flow": "rotation", "axis": [0.0, 1.0, 0.0]})
        tree["ambient"]["density"] = {"name": density}
        tree["surface"].update(e1=[0.6, 0.0, 0.8], e2=[0.0, 1.0, 0.0])
        result = scenarios.run_scenario(scenarios.parse_scenario(tree))
        block = result.report["results"]["stationarity"]
        assert block["H_f_spread"] > 0.0
        assert block["volume_constrained"] is True
        assert block["strong"] is True
        assert all(check.passed for check in result.checks)

    def test_cone_foliation_residual_at_every_radius(self):
        """The foliation identity's residual on the cone's cap is relative
        to the larger side: 2.1e-6 at cap radius 1 and 1.2e-6 at radius
        1e-3, which a floor of 1 on the sides' size read as 3.6e-9."""
        def residual(radius):
            cone = SCENARIO_TREES["cone"]
            tree = dict(cone, surface=dict(cone["surface"], radius=radius))
            result = scenarios.run_scenario(scenarios.parse_scenario(tree))
            return result.report["results"]["foliation"]["max_rel_residual"]

        unit, small = residual(1.0), residual(1e-3)
        assert unit / 10 <= small <= 10 * unit

    @pytest.mark.parametrize("radius", [1e-6, 1.0, 1e3])
    def test_rotation_about_a_diameter_passes_its_variations(self, radius):
        """A rotation maps a constant-density sphere onto itself: its
        normal speed is rounding, and I_f(u, u) (1e-30 at radius 1) is the
        rounding of a rounding, which the check allows as such."""
        tree = sphere_tree(radius, ["first-variation", "second-variation"],
                           variation={"flow": "rotation",
                                      "axis": [1.0, 2.0, 3.0]})
        assert check_passed(tree, "first-variation")
        assert check_passed(tree, "second-variation")

    @pytest.mark.parametrize("task,tree,target,shift", [
        # A_f'(0) = 8 pi r^2 under scaling, off by 1%
        ("first-variation",
         sphere_tree(1e-6, ["first-variation"],
                     variation={"flow": "scaling"}),
         "first_variation_fd", 0.08 * math.pi * 1e-12),
        # a rotation about a diameter, I_f(y, y) = 0: off by its
        # stiffness part, the integral of |grad y|^2 = pi r^2
        ("second-variation",
         disk_in_ball_tree(1e-6, ["second-variation"],
                           variation={"flow": "rotation",
                                      "axis": [1.0, 0.0, 0.0]}),
         "second_variation_fd", math.pi * 1e-12),
        # a unit translation of the unit half-sphere, I_f(u, u) = 2.72
        # (measured): off by a third of it, which a unit of
        # sum |a_ij u_i u_j| (1231 at resolution 12) would let pass
        ("second-variation",
         half_sphere({"name": "radial-log", "k": -1.3}, 12,
                     ["second-variation"],
                     variation={"flow": "translation",
                                "direction": [0.6, 0.8, 0.0]}),
         "second_variation_fd", 0.9),
    ], ids=["first-1e-6", "second-1e-6", "second-translation"])
    def test_variation_off_by_its_terms_fails(self, monkeypatch, task, tree,
                                              target, shift):
        assert check_passed(tree, task)
        fd = getattr(scenarios, target)

        def shifted(family):
            report = fd(family)
            return dataclasses.replace(report, value=report.value + shift)

        monkeypatch.setattr(scenarios, target, shifted)
        assert not check_passed(tree, task)


# SHA-256 of every builtin's report.json, spectrum.csv and samples.csv,
# recorded before one density-free chart was shared by a run, its variation
# family and its density sweep: that change, and any other refactor, keeps
# every output byte for byte.  Every spectrum.csv, every report.json and
# the threshold's samples.csv were re-recorded when the index form moved
# onto one symmetric sparsity pattern (eigenvalues moved by at most 2.1e-14).
# The flat-slab-slice report was re-recorded when its foliation block gained
# the two hypotheses, with every other byte unchanged.  The four cap
# builtins' outputs were re-recorded when the rim triangles of a disk domain
# took the collapsed rule (A_f moved by at most 7.3e-5, an eigenvalue by
# at most 6.0e-4, each toward its closed form or reference value; no
# verdict or check moved).
OUTPUT_DIGESTS = {
    "flat-slab-slice": {
        "report.json": "33e9ffd068b6863ca9c1f614e2131d4b2ea36909deefca060bb6b875b5f132dc",
        "spectrum.csv": "f2f8cfb245b2f4e8ca871c3a247c5390e5c6ab693922a4a90bd93c067d5b8471",
        "samples.csv": "203046c0b9770f03cb0acd33c3080c1afe659b529d5cd6f0a25009ba32ddfda4",
    },
    "gauss-identity-suite": {
        "report.json": "61b959e3223a50b05051f4ee950c4ab8f593b7d228a29e2a4f791eefe89fc0d7",
        "spectrum.csv": "f11461ecc42b1c97de59562e1c3b6a4ec4edfa564493bdedaa3eb6fdb7edcd02",
    },
    "paper-Mr-k-minus-2": {
        "report.json": "5de30e9c17215d5e32ec6bc5dd4f8ace50b459f9f36613780d911e939781ef9b",
        "spectrum.csv": "6fb483e8c1d6e01e4a0ac76e9dc84874818ec610ccc4b5c583ca455ae5f1fc8b",
    },
    "paper-ex-3.8-convex-cone": {
        "report.json": "37f8d0cb0356788d7be8e141202517d2c26fe36658c3b29f79962e7284f33860",
        "spectrum.csv": "c858de8e4fada176ffb7a0364f7000b4d06e7ad8861fcdd92c62ae1860006195",
    },
    "paper-ex-3.8-gaussian-halfspace": {
        "report.json": "61c10d5979e3db2ccffdfe42e5ff11425992888ae81e338cd7f60fa45efd72e0",
        "spectrum.csv": "3e9c68f84067ae917420460bc5cb75c5c1c7ba9b61c7de9cdfb52196e9f63215",
    },
    "paper-ex-3.9-threshold": {
        "report.json": "d7f7146fa8d167d0919513f277aebccbae806986428edc095526fff242467444",
        "samples.csv": "543ffde53f59a652bc01a18441beec51649f8a324446962318f31889656790f1",
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
# sharing one chart, a rect patch periodic in u between slab planes, and
# a translation and a rotation variation.  The scaling samples were
# recorded after scaled and rotated slices took their normal and area
# element from the cofactor matrix; the scaling report and the rotation and
# cone samples after a similarity slice took lambda^2 w da and the base
# normal speed; the rotation outputs after every per-point sum and the
# rotation matrices were summed in index order with no BLAS product; every
# output holding a spectrum or an index form (the scaling, translation,
# rect, rotation and sweep reports, the rect and rotation spectra and the
# sweep samples) after the index form moved onto one symmetric sparsity
# pattern; the cone report after a slice moved the base frame, Dphi (J D),
# in place of the chart, (Dphi J) D (one foliation lhs, an FD of H_f with
# step 1e-3, moved by 2.2e-13 relative, one rhs by 2 ulp); the rect
# outputs when an open patch in an ambient without boundary became
# malformed input; the rest before the mesher numbered its edges once.
# Every output of a cap (all but the rect's) was re-recorded when the rim
# triangles of a disk domain took the collapsed rule.
SCENARIO_DIGESTS = {
    "scaling": {
        "report.json": "41d8903252d1d398ebd378df68a701d5c93548771398c9f710065fda8b603ddf",
        "samples.csv": "c35070bdc9f2febdb77bd503eb5b8555f6289203b47841a1142a5c7f569703a4",
    },
    "cone": {
        "report.json": "f0eae7d6bd982816ef11dcfe595723b1391f60e3f738236d2e9e3841e7d9e1b5",
        "samples.csv": "b3a33bd7cf553bf4f046252c8fdbd434be7148f49a51a3df38519385b4a4ef5c",
    },
    "sweep-k": {
        "report.json": "579a8de30abcb86cc2f25e350b59367dbb882dee6b05954ae6f141db381e535f",
        "samples.csv": "543ffde53f59a652bc01a18441beec51649f8a324446962318f31889656790f1",
    },
    "rect": {
        "report.json": "daf6f219d6d8f7478ecd6d20d508948bd0bc93906897b20f8c215e6278a93dda",
        "spectrum.csv": "d2fe6cde39c713869b177a0a5da665dadf6395a770bd13d22ea7eba5e0753e5a",
    },
    "translation": {
        "report.json": "31690ef1d31e3294e7734c4c8fb9da0608e1b7c033cb8046b1e53bb61552465e",
        "samples.csv": "73e5663d52df8a55d8ccb5608e89260d3da2c64984c5ce4dd368807d110f11f5",
    },
    "rotation": {
        "report.json": "35fa199cff0f349c8be158b867d4570bbf8231e8bcc42a3005a4431f5344a120",
        "spectrum.csv": "a149c8e28b99002c1b55676216a0d9cc9e8ab1a562da5f23acc967855e6ba459",
        "samples.csv": "54b54e298b133de7a35c9488fbed37a35501824f46c1f330e573acd0d7a1fcdf",
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
    # a rect patch periodic in u between the slab planes |z| <= 0.75
    "rect": {"ambient": {"density": {"name": "gaussian"},
                         "boundary": {"name": "slab", "axis": 2,
                                      "halfwidth": 0.75}},
             "surface": {"builtin": "rect-patch",
                         "origin": [1.0, -0.5, -0.75],
                         "u_range": [0.0, 1.0], "v_range": [0.0, 1.5],
                         "periodic_u": True},
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

    @pytest.mark.parametrize("name", scenarios.builtin_names())
    def test_report_holds_plain_json_values(self, name):
        """Every task builds its block from Python values, so the report
        is dumped as built, with no numpy scalar or array in it."""
        report = scenarios.run_scenario(
            scenarios.builtin_scenario(name)).report
        stack = [report]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                assert all(isinstance(k, str) for k in node)
                stack += node.values()
            elif isinstance(node, list):
                stack += node
            else:
                assert type(node) in (bool, int, float, str, type(None)), (
                    name, type(node))

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
        to rounding (measured: 0.7 eps), and A_f'(0) = 2 pi (2 + k), by FD
        and by the formula, to the quadrature error of A_f within 2e-8
        relative (measured: 4.7e-9 on both at resolution 24; 1.2e-5 under
        Gauss3 on the rim triangles)."""
        k = SCENARIO_TREES["scaling"]["ambient"]["density"]["k"]
        (s, A_f, _), report = self.run_scenario(tmp_path, "scaling")
        want = (1.0 + s) ** (2.0 + k) * A_f[s == 0.0]
        assert np.max(np.abs(A_f - want) / want) <= 8 * cf.EPS
        first = report["results"]["first_variation"]
        for value in (first["fd"], first["formula"]):
            assert value == pytest.approx(2.0 * np.pi * (2.0 + k), rel=2e-8)

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
        """A flat band in the plane x = 1, periodic in y, between the slab
        planes z = -0.75 and z = 0.75, under the Gaussian density
        psi = -|p|^2 has H_f = 2 and the constants as its lowest mode,
        lambda_min = -2 (measured: 9e-15), and A_f = e^-1 pi erf(1/2)
        erf(3/4) to the quadrature error (measured: 1.3e-7 relative).  The
        other eigenvalues and the topology chain match recorded values
        within 1e-9 max(1, |value|)."""
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
        want = [-2.0, 3.4707082645661957, 16.88589308530677,
                37.45004179598267, 39.43183832067802, 39.56854236649709,
                -2.59375, -5.59375, 0.0]
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
        6.28318527748, [0.5, 2.50096036106, 2.50096218409, 6.50805173112,
                        6.5081224579, 6.51459025813],
        {"strong": True, "volume_constrained": True}),
    "paper-Mr-k-minus-2": (
        12.5663705385, [0.0, 0.501323142749, 0.501323142749, 0.502174197358,
                        1.50944230009, 1.50944230009],
        {"strong": True, "volume_constrained": True,
         "topology": "SphereOrTorus"}),
    "paper-ex-3.8-convex-cone": (
        2.43605181248, [-1.0, 6.41867197572, 6.41868299378, 19.7443494265,
                        19.7444131519, 29.0348925917],
        {"strong": False, "volume_constrained": True}),
    "paper-ex-3.8-gaussian-halfspace": (
        2.31145468866, [-4.0, -1.99903963894, -1.99903781591, 2.00805173112,
                        2.0081224579, 2.01459025813],
        {"strong": False, "volume_constrained": False}),
    "paper-ex-3.9-threshold": {
        -1.0: (6.28318527748, [-1.0, 1.00096036106, 1.00096218409,
                               5.00805173112, 5.0081224579, 5.01459025813],
               {"strong": False, "volume_constrained": True}),
        -1.5: (6.28318527748, [-0.5, 1.50096036106, 1.50096218409,
                               5.50805173112, 5.5081224579, 5.51459025813],
               {"strong": False, "volume_constrained": True}),
        -2.0: (6.28318527748, [0.0, 2.00096036106, 2.00096218409,
                               6.00805173112, 6.0081224579, 6.01459025813],
               {"strong": True, "volume_constrained": True}),
        -2.5: (6.28318527748, [0.5, 2.50096036106, 2.50096218409,
                               6.50805173112, 6.5081224579, 6.51459025813],
               {"strong": True, "volume_constrained": True}),
        -3.0: (6.28318527748, [1.0, 3.00096036106, 3.00096218409,
                               7.00805173112, 7.0081224579, 7.01459025813],
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
    from wstab.scenarios import builtin_names, builtin_tree
    trees = []
    for name in builtin_names():
        tree = builtin_tree(name)
        if tree.pop("sweep", None) is not None:
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
