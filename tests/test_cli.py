"""End-to-end tests of the command line interface."""
import json
import os
import subprocess
import sys

import pytest
import scipy.sparse.linalg as spla

import wstab
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
