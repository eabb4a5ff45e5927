"""The benchmark's workloads: deterministic job lists drawn from a seed.

A job is one ``wstab.cli.main`` call plus the closed forms its
``report.json`` must match.  The program receives only builtin names or the
scenario JSON files written here; the seed never reaches it.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import List, Tuple

# fine-mesh is left out of BENCHMARK.json while its report.json differs
# between runs above 3000 DOF (the shift-invert eigensolver path)
WORKLOADS = ("builtin-suite", "variation-fd", "fine-mesh")

# every builtin of the CLI; the lambda_min closed forms are the paper's
BUILTINS = (
    "flat-slab-slice", "gauss-identity-suite", "paper-Mr-k-minus-2",
    "paper-ex-3.8-convex-cone", "paper-ex-3.8-gaussian-halfspace",
    "paper-ex-3.9-threshold", "paper-product-cylinder",
    "paper-product-torus", "sphere-classical-instability",
)
BUILTIN_LAMBDA_MIN = {
    "flat-slab-slice": 0.0,
    "gauss-identity-suite": 0.5,
    "paper-Mr-k-minus-2": 0.0,
    "paper-product-cylinder": 0.0,
    "paper-product-torus": 0.0,
    "sphere-classical-instability": -2.0,
}
THRESHOLD_SWEEP_K = (-3.0, -2.5, -2.0, -1.5, -1.0)

# the log-radial half-sphere, whose spectrum and variations have closed
# forms: lambda_min = -(2+k) and A_f'(0) = 2 pi (2+k) under scaling
K_RANGE = (-3.0, -1.0)
# variation-fd keeps k this far from the threshold k = -2, where the scaling
# A_f'(0) vanishes and accuracy_digits would measure an absolute error
K_THRESHOLD_GAP = 0.25
# below resolution 24 the translation second-variation check fails
VARIATION_RESOLUTION = 24
# crosses DENSE_DOF_LIMIT (3000) and CONSTRAINED_DOF_LIMIT (4500)
FINE_MESH_RESOLUTIONS = (24, 32, 48, 96)

# a smaller version of each workload for the self-test and the warm-up
TINY_BUILTINS = ("paper-product-cylinder", "paper-product-torus",
                 "paper-Mr-k-minus-2")
TINY_RESOLUTION = 10
TINY_FINE_MESH_RESOLUTIONS = (8, 12)


@dataclass(frozen=True)
class Job:
    key: str                      # unique within a pass; names its out dir
    argv: Tuple[str, ...]         # wstab.cli.main arguments, without --out
    # (path into report.json, closed-form value) pairs
    closed_forms: Tuple[Tuple[Tuple[str, ...], float], ...] = ()


def _half_sphere(k: float, resolution: int, tasks, variation=None) -> dict:
    tree = {
        "ambient": {"density": {"name": "radial-log", "k": k},
                    "boundary": {"name": "half-space", "axis": 2}},
        "surface": {"builtin": "spherical-cap"},
        "resolution": resolution,
        "tasks": list(tasks),
    }
    if variation is not None:
        tree["variation"] = variation
    return tree


def _scenario_job(key: str, tree: dict, scenario_dir: str,
                  closed_forms) -> Job:
    path = os.path.join(scenario_dir, f"{key}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree, fh, sort_keys=True, indent=2)
    return Job(key, ("run", path), tuple(closed_forms))


def _builtin_suite(rng: random.Random, tiny: bool) -> List[Job]:
    names = list(TINY_BUILTINS if tiny else BUILTINS)
    rng.shuffle(names)
    jobs = []
    for name in names:
        forms = []
        if name in BUILTIN_LAMBDA_MIN:
            forms.append((("results", "spectrum", "lambda_min"),
                          BUILTIN_LAMBDA_MIN[name]))
        if name == "paper-ex-3.9-threshold":
            forms += [(("runs", repr(k), "results", "spectrum", "lambda_min"),
                       -(2.0 + k)) for k in THRESHOLD_SWEEP_K]
        jobs.append(Job(name, ("builtin", name), tuple(forms)))
    return jobs


def _variation_fd(rng: random.Random, tiny: bool,
                  scenario_dir: str) -> List[Job]:
    k = round(-2.0 + rng.choice((-1.0, 1.0))
              * rng.uniform(K_THRESHOLD_GAP, 1.0), 3)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    direction = [round(math.cos(theta), 6), round(math.sin(theta), 6), 0.0]
    resolution = TINY_RESOLUTION if tiny else VARIATION_RESOLUTION
    tasks = (["stationarity", "first-variation"] if tiny else
             ["stationarity", "first-variation", "second-variation"])
    first_variation = {"scaling": 2.0 * math.pi * (2.0 + k),
                       "translation": 0.0}
    flows = {"scaling": {"flow": "scaling"},
             "translation": {"flow": "translation", "direction": direction}}
    jobs = []
    for flow, variation in flows.items():
        forms = [(("results", "first_variation", which),
                  first_variation[flow]) for which in ("fd", "formula")]
        jobs.append(_scenario_job(
            f"{flow}", _half_sphere(k, resolution, tasks, variation),
            scenario_dir, forms))
    return jobs


def _fine_mesh(rng: random.Random, tiny: bool,
               scenario_dir: str) -> List[Job]:
    k = round(rng.uniform(*K_RANGE), 3)
    resolutions = (TINY_FINE_MESH_RESOLUTIONS if tiny
                   else FINE_MESH_RESOLUTIONS)
    lambda_min = (("results", "spectrum", "lambda_min"), -(2.0 + k))
    return [_scenario_job(f"res{res}", _half_sphere(k, res, ["spectrum"]),
                          scenario_dir, [lambda_min])
            for res in resolutions]


def generate(workload: str, seed: int, scenario_dir: str,
             tiny: bool = False) -> List[Job]:
    """The jobs of one pass, writing any scenario files to scenario_dir."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(scenario_dir, exist_ok=True)
    if workload == "builtin-suite":
        return _builtin_suite(rng, tiny)
    if workload == "variation-fd":
        return _variation_fd(rng, tiny, scenario_dir)
    if workload == "fine-mesh":
        return _fine_mesh(rng, tiny, scenario_dir)
    raise ValueError(f"unknown workload {workload!r}")
