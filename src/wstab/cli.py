"""Command-line front end: scenario runner, builtin registry, sweeps.

Exit codes: 0 all asserted checks pass, 2 a check failed, 3 numerical
failure, 4 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, InputError, NumericalFailure, WstabError
from .scenarios import (MAX_SWEEP_VALUES, RunResult, builtin_descriptions,
                        builtin_scenario, builtin_tree, parse_scenario,
                        run_scenario)
from .surface import export_off

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

GNUPLOT_TEMPLATE = """# generated by wstab {version}
set datafile separator ','
set key autotitle columnhead
set grid
set term push
plot '{csv}' using 1:2 with linespoints title '{title}'
pause -1
"""


def _load_tree(path: str) -> tuple:
    """The scenario tree in a JSON file and the name the file gives it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}")
    except RecursionError:
        raise ConfigError(f"JSON in {path} is nested too deeply")
    return obj, os.path.splitext(os.path.basename(path))[0]


def _resolve_tree(ref: str) -> tuple:
    """A scenario reference is a config-file path or a builtin name."""
    if os.path.exists(ref) or ref.endswith(".json"):
        return _load_tree(ref)
    return builtin_tree(ref), ref


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(rows)


def _write_outputs(result: RunResult, out_dir: str) -> None:
    # strict JSON, or nothing written
    try:
        report = json.dumps(result.report, sort_keys=True, indent=2,
                            allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"report.json would not be JSON: {exc}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w",
              encoding="utf-8") as fh:
        fh.write(report + "\n")
    meta = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(),
        "version": __version__,
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if result.samples:
        csv_path = os.path.join(out_dir, "samples.csv")
        _write_csv(csv_path, result.samples_header, result.samples)
        with open(os.path.join(out_dir, "plot.gp"), "w",
                  encoding="utf-8") as fh:
            fh.write(GNUPLOT_TEMPLATE.format(version=__version__,
                                             csv="samples.csv",
                                             title=result.scenario.name))
    if result.spectrum_rows:
        _write_csv(os.path.join(out_dir, "spectrum.csv"),
                   ["index", "eigenvalue", "residual"], result.spectrum_rows)
    if result.mesh is not None:
        export_off(result.mesh, os.path.join(out_dir, "mesh.off"))


def _finish(result: RunResult, out_dir: str) -> int:
    _write_outputs(result, out_dir)
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    if not result.checks:
        print("no asserted checks for this scenario")
    print(f"report written to {os.path.join(out_dir, 'report.json')}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def cmd_run(args) -> int:
    scn = parse_scenario(*_load_tree(args.scenario))
    result = run_scenario(scn)
    return _finish(result, args.out)


def cmd_builtin(args) -> int:
    scn = builtin_scenario(args.name)
    result = run_scenario(scn)
    return _finish(result, args.out)


def cmd_list(args) -> int:
    for name, desc in builtin_descriptions():
        print(f"{name}: {desc}")
    return EXIT_OK


def _parse_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("range must be formatted a:b:step")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"non-numeric range component in '{spec}'")
    if not all(math.isfinite(x) for x in (a, b, step)):
        raise ConfigError(f"range '{spec}' has a non-finite component")
    if step <= 0:
        raise ConfigError("range step must be positive")
    if (b - a) / step >= MAX_SWEEP_VALUES:
        raise ConfigError(f"range '{spec}' has more than {MAX_SWEEP_VALUES} "
                          f"values")
    values = []
    v = a
    while v <= b + 1e-12:
        values.append(round(v, 12))
        if v + step == v:
            raise ConfigError(f"range step {step:g} is below the float "
                              f"spacing at {v:g}")
        v += step
    if not values:
        raise ConfigError(f"range '{spec}' is empty")
    return values


def cmd_sweep(args) -> int:
    tree, name = _resolve_tree(args.scenario)
    parse_scenario(tree, name)      # the scenario must be valid as given
    values = _parse_range(args.range)
    tree = {k: v for k, v in tree.items() if k != "expect"}
    tree["sweep"] = {"param": args.param, "values": values}
    result = run_scenario(parse_scenario(tree, name))
    return _finish(result, args.out)


def cmd_export_mesh(args) -> int:
    from .surface import mesh_from_immersion
    scn = parse_scenario(*_resolve_tree(args.scenario))
    mesh = mesh_from_immersion(scn.immersion, scn.resolution)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "mesh.off")
    export_off(mesh, path)
    print(f"mesh written to {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wstab",
        description=("weighted-geometry stability toolkit for free boundary "
                     "surfaces"))
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a scenario config file")
    pr.add_argument("scenario", help="path to a JSON scenario file")
    pr.add_argument("--out", default="out", help="output directory")
    pr.set_defaults(func=cmd_run)

    pb = sub.add_parser("builtin", help="run a builtin scenario by name")
    pb.add_argument("name")
    pb.add_argument("--out", default="out", help="output directory")
    pb.set_defaults(func=cmd_builtin)

    pl = sub.add_parser("list", help="list builtin scenarios")
    pl.set_defaults(func=cmd_list)

    ps = sub.add_parser("sweep",
                        help="sweep a numeric scenario parameter")
    ps.add_argument("scenario",
                    help="scenario config file or builtin name")
    ps.add_argument("--param", required=True,
                    help="dotted path of the knob, e.g. ambient.density.k")
    ps.add_argument("--range", required=True, help="a:b:step")
    ps.add_argument("--out", default="out", help="output directory")
    ps.set_defaults(func=cmd_sweep)

    pe = sub.add_parser("export-mesh",
                        help="mesh a scenario's surface and write an OFF file")
    pe.add_argument("scenario",
                    help="scenario config file or builtin name")
    pe.add_argument("--out", default="out", help="output directory")
    pe.set_defaults(func=cmd_export_mesh)
    return p


# the numerical exceptions a run can raise outside wstab's own; ARPACK's
# are none of them, since robin_eigenproblem turns each into a
# NumericalFailure
NUMERICAL_ERRORS = (np.linalg.LinAlgError, FloatingPointError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out is not None and os.path.exists(out) and not os.path.isdir(out):
            raise ConfigError(f"--out {out} is a file, not a directory")
        # the guards judge an overflow or a NaN, as each tests its pass
        # condition; numpy's warnings about one would add lines to the
        # one-line message, or a traceback under -W error
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, InputError, OSError) as exc:
        # an OSError reads or writes a file the command names
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except WstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NUMERICAL_ERRORS as exc:
        detail = " ".join(str(exc).split())
        print(f"numerical failure: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical failure: out of memory (try a lower resolution)",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
