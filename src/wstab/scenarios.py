"""Scenario schema, builtin registry, and the task runner behind the CLI.

A scenario is a strict key-value tree (JSON on disk) naming an ambient
space, a surface, a resolution, a set of tasks, and optional variation,
sweep, and expectation blocks.  Unknown keys anywhere in the tree are
rejected, and the ambient space, surface and flow it names are built, and
the surface's boundary checked against the ambient one, as it is parsed,
for every value of a sweep.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .ambient import BOUNDARY_REGISTRY, DENSITY_REGISTRY, AmbientSpace
from .errors import ConfigError, InputError, NumericalFailure, WstabError
from .functionals import (DeformedFamily, Flow, RotationFlow, ScalingFlow,
                          TranslationFlow, first_variation_fd,
                          first_variation_formula, first_variation_scale,
                          second_variation_fd, swept_weighted_volume)
from .stability import (assemble, index_form_scale, index_form_value,
                        robin_eigenproblem, strong_stability_verdict,
                        volume_constrained_verdict)
from .surface import (MAX_RESOLUTION, Immersion, PlanarDisk, RectPatch,
                      RoundSphere, SphericalCap, SurfaceChart,
                      check_arcs_on_boundary, extrinsic_geometry,
                      stationarity_verdict, surface_chart)
from .theorems import (INCONSISTENT, TOPOLOGY_VERDICTS, area_bound_check,
                       boundary_identity_residual,
                       foliation_monotonicity_check,
                       gauss_rearrangement_residual, identity_scales,
                       rigidity_flags, stability_topology_chain,
                       topology_verdict)

TAU = 2.0 * math.pi

SURFACE_REGISTRY = {
    "spherical-cap": SphericalCap,
    "planar-disk": PlanarDisk,
    "rect-patch": RectPatch,
    "round-sphere": RoundSphere,
}

FLOW_REGISTRY = {
    "translation": TranslationFlow,
    "scaling": ScalingFlow,
    "rotation": RotationFlow,
}

# scenario trees are a few levels deep; the registry parameter builders
# recurse into nested lists
MAX_NESTING = 16
# every sweep value is a full run; a sweep may queue no more than this
MAX_SWEEP_VALUES = 1000

# identity and variation tolerances are relative to their terms' size
DEFAULT_TOLS = {
    "identity": 1e-5,
    "boundary_identity": 1e-6,
    "variation": 1e-3,
    "verdict": 1e-3,
    "foliation": 1e-3,
}


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where} "
                              f"(allowed: {', '.join(sorted(allowed))})")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:          # an int beyond the float range
        return False


def _check_values(obj: dict) -> None:
    """json reads NaN, Infinity and ints beyond the float range; no scenario
    value may be any of them, nor nested deeper than MAX_NESTING."""
    stack = [(key, value, 1) for key, value in obj.items()]
    while stack:
        where, value, depth = stack.pop()
        if depth > MAX_NESTING:
            raise ConfigError(f"{where} is nested more than {MAX_NESTING} "
                              f"levels deep")
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and not _finite(value)):
            raise ConfigError(f"{where} must be a finite number")
        if isinstance(value, dict):
            stack += [(f"{where}.{k}", v, depth + 1)
                      for k, v in value.items()]
        elif isinstance(value, (list, tuple)):
            stack += [(f"{where}[{i}]", v, depth + 1)
                      for i, v in enumerate(value)]


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _build(obj, registry: dict, kind: str, key: str):
    """The registry object that a block names by its key, built from the
    block's other keys.  An unknown name or parameter, or a parameter value
    the object rejects, is a ConfigError (or the object's InputError)."""
    obj = _require_mapping(obj, f"{kind} block")
    if key not in obj:
        raise ConfigError(f"missing '{key}' key naming the {kind}")
    name = obj[key]
    if not isinstance(name, str) or name not in registry:
        raise ConfigError(f"unknown {kind} '{name}' "
                          f"(available: {', '.join(sorted(registry))})")
    params = {k: _tupled(v) for k, v in obj.items() if k != key}
    allowed = set(inspect.signature(registry[name]).parameters)
    for k in params:
        if k not in allowed:
            raise ConfigError(f"unknown parameter '{k}' for {kind} "
                              f"'{name}' (allowed: {', '.join(sorted(allowed))})")
    try:
        return registry[name](**params)
    except WstabError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"malformed {kind} parameter value: {exc}") from None


def _with_value(tree: dict, path: str, value) -> dict:
    """A copy of the tree with the value set at the dotted path; only the
    mappings along the path are copied."""
    *keys, last = path.split(".")
    tree = node = dict(tree)
    for k in keys:
        if not isinstance(node.get(k), dict):
            raise ConfigError(f"sweep parameter path '{path}' does not resolve")
        node[k] = dict(node[k])
        node = node[k]
    node[last] = value
    return tree


@dataclass
class Scenario:
    """A parsed scenario with its ambient space, immersion and flow built;
    a sweep's runs are the scenarios of its values, in order."""
    name: str
    space: AmbientSpace
    immersion: Immersion
    resolution: int
    tasks: List[str]
    runs: List["Scenario"]
    flow: Optional[Flow] = None
    tolerances: Dict[str, float] = field(default_factory=dict)
    S0: Optional[float] = None
    sweep: Optional[dict] = None
    expect: Dict[str, Any] = field(default_factory=dict)

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLS[key]))


TOP_KEYS = {"name", "ambient", "surface", "resolution", "tasks", "variation",
            "tolerances", "S0", "sweep", "expect", "description"}


def parse_scenario(obj: dict, default_name: str = "scenario") -> Scenario:
    obj = _require_mapping(obj, "scenario")
    _check_keys(obj, TOP_KEYS, "scenario")
    _check_values(obj)
    for req in ("ambient", "surface", "resolution", "tasks"):
        if req not in obj:
            raise ConfigError(f"scenario is missing required key '{req}'")

    amb = _require_mapping(obj["ambient"], "ambient")
    _check_keys(amb, {"density", "boundary"}, "ambient")
    ambient = {"density": amb.get("density", {"name": "constant"}),
               "boundary": amb.get("boundary", {"name": "none"})}
    space = AmbientSpace(
        _build(ambient["density"], DENSITY_REGISTRY, "density", "name"),
        _build(ambient["boundary"], BOUNDARY_REGISTRY, "boundary", "name"))
    immersion = _build(obj["surface"], SURFACE_REGISTRY, "surface", "builtin")
    check_arcs_on_boundary(immersion, space)

    resolution = obj["resolution"]
    if not (isinstance(resolution, int)
            and 4 <= resolution <= MAX_RESOLUTION):
        raise ConfigError(f"resolution must be an integer in "
                          f"[4, {MAX_RESOLUTION}]")

    tasks = obj["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks must be a non-empty list")
    for t in tasks:
        if not isinstance(t, str) or t not in TASKS:
            raise ConfigError(f"unknown task '{t}' "
                              f"(available: {', '.join(TASKS)})")

    variation = obj.get("variation")
    flow = (None if variation is None
            else _build(variation, FLOW_REGISTRY, "flow", "flow"))

    tols = obj.get("tolerances", {})
    tols = _require_mapping(tols, "tolerances")
    _check_keys(tols, DEFAULT_TOLS, "tolerances")

    sweep = obj.get("sweep")
    if sweep is not None:
        sweep = _require_mapping(sweep, "sweep")
        _check_keys(sweep, {"param", "values"}, "sweep")
        if "param" not in sweep or "values" not in sweep:
            raise ConfigError("sweep block requires 'param' and 'values'")
        if not isinstance(sweep["param"], str):
            raise ConfigError("sweep param must be a dotted path string")
        if not isinstance(sweep["values"], list) or not sweep["values"]:
            raise ConfigError("sweep values must be a non-empty list")
        if len(sweep["values"]) > MAX_SWEEP_VALUES:
            raise ConfigError(f"a sweep takes at most {MAX_SWEEP_VALUES} "
                              f"values, got {len(sweep['values'])}")
        for v in sweep["values"]:
            v = _number(v, "sweep value")
            if sweep["param"] == "resolution" and not (
                    v.is_integer() and 4 <= v <= MAX_RESOLUTION):
                raise ConfigError(f"resolution sweep values must be "
                                  f"integers in [4, {MAX_RESOLUTION}], "
                                  f"got {v!r}")

    expect = _require_mapping(obj.get("expect", {}), "expect")
    _check_keys(expect, EXPECTATIONS, "expect")
    for key, value in expect.items():
        for is_kind, want in EXPECT_KINDS[EXPECTATIONS[key].kind]:
            if not is_kind(value):
                raise ConfigError(f"expect.{key} must be {want}, got {value!r}")
    for key in expect:
        needs = EXPECTATIONS[key].needs
        if needs not in (None, *expect):
            raise ConfigError(f"expect.{key} needs expect.{needs}")
    for key in expect:
        in_sweep = EXPECTATIONS[key].task == "sweep"  # of spectrum runs
        task = "spectrum" if in_sweep else EXPECTATIONS[key].task
        if task not in tasks or (sweep is not None) != in_sweep:
            where = ("a sweep that runs" if in_sweep
                     else "a run, not a sweep, of")
            raise ConfigError(f"expect.{key} needs {where} the task '{task}'")

    needs_var = {"first-variation", "second-variation", "foliation"} & set(tasks)
    if needs_var and flow is None:
        raise ConfigError(f"tasks {sorted(needs_var)} require a variation block")
    if "area-bounds" in tasks and obj.get("S0") is None:
        raise ConfigError("task 'area-bounds' requires the scenario key 'S0'")
    if sweep is not None and "spectrum" not in tasks:
        raise ConfigError("a sweep tabulates lambda_min, so it needs the "
                          "task 'spectrum'")
    S0 = None if obj.get("S0") is None else _number(obj["S0"], "S0")
    if S0 == 0.0:
        raise ConfigError("S0 = 0 makes both area bounds degenerate")

    name = str(obj.get("name", default_name))
    # each value runs the tree with the ambient defaults filled in and the
    # value set, without the sweep and its expectation, so every value is
    # built, and its surface's boundary checked against the ambient one,
    # before anything is meshed
    runs = []
    if sweep is not None:
        base = {k: v for k, v in obj.items() if k not in ("sweep", "expect")}
        base["ambient"] = ambient
        param = sweep["param"]
        for v in sweep["values"]:
            v = int(v) if param == "resolution" else float(v)
            try:
                runs.append(parse_scenario(_with_value(base, param, v), name))
            except (ConfigError, InputError) as exc:
                raise ConfigError(f"sweep {param} = {v!r}: {exc}") from None

    return Scenario(
        name=name,
        space=space,
        immersion=immersion,
        resolution=resolution,
        tasks=list(tasks),
        flow=flow,
        tolerances={k: _number(v, f"tolerances.{k}") for k, v in tols.items()},
        S0=S0,
        sweep=dict(sweep) if sweep is not None else None,
        runs=runs,
        expect=dict(expect),
    )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

Check = NamedTuple("Check", [("name", str), ("passed", bool), ("detail", str)])


@dataclass
class RunResult:
    scenario: Scenario
    report: dict
    checks: List[Check]
    samples_header: List[str]
    samples: List[list]
    spectrum_rows: List[list]
    mesh: Any = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def build_chart(scn: Scenario) -> SurfaceChart:
    return surface_chart(scn.immersion, scn.resolution)


def run_scenario(scn: Scenario) -> RunResult:
    if scn.sweep is not None:
        return _run_sweep(scn)
    return _run_single(scn, build_chart(scn))


def _run_sweep(scn: Scenario) -> RunResult:
    param = scn.sweep["param"]
    values = scn.sweep["values"]
    rows = []
    sub_reports = {}
    # the chart is the surface's alone, so only a value of it charts anew
    shared = (param != "resolution" and not param.startswith("surface.")
              and build_chart(scn))
    for v, sub in zip(values, scn.runs):
        res = _run_single(sub, shared or build_chart(sub))
        rows.append([float(v), res.report["results"]["spectrum"]["lambda_min"]])
        sub_reports[repr(float(v))] = res.report
    header = [param, "lambda_min"]
    if param == "resolution" and len(rows) >= 3:
        # observed convergence order against the finest value, where both
        # errors are above rounding (a constant eigenfunction has none)
        header.append("order")
        lam_ref = rows[-1][1]
        errs = [abs(r[1] - lam_ref) for r in rows]
        noise = 1e-12 * max(1.0, abs(lam_ref))
        hs = [1.0 / r[0] for r in rows]
        for i in range(len(rows)):
            if i + 1 < len(rows) - 1 and min(errs[i], errs[i + 1]) > noise:
                order = math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1])
                rows[i].append(order)
            else:
                rows[i].append("")
    sweep = {"param": param, "values": [float(v) for v in values],
             "rows": rows}
    # only sweep_zero_crossing binds to a sweep
    checks = [_checked("sweep-zero-crossing", "sweep", sweep, True, "",
                       scn.expect)] if scn.expect else []
    report = {"name": scn.name, "sweep": sweep, "runs": sub_reports,
              "checks": [c._asdict() for c in checks]}
    return RunResult(scn, report, checks, header, rows, [], None)


class _Run:
    """One run's density terms, stationarity verdict and variation family;
    its assembly, spectrum and strong verdict are built on first read."""

    def __init__(self, scn: Scenario, chart: SurfaceChart):
        self.scn = scn
        self.data = extrinsic_geometry(scn.space, chart)
        self.stationary = stationarity_verdict(self.data)
        # an inadmissible flow exits 4 before any task
        self.family = (DeformedFamily(self.data, scn.flow)
                       if scn.flow is not None else None)

    @functools.cached_property
    def asm(self):
        return assemble(self.data)

    @functools.cached_property
    def spec(self):
        return robin_eigenproblem(self.asm)

    @functools.cached_property
    def strong(self) -> bool:
        return strong_stability_verdict(self.spec, self.scn.tol("verdict"))


# a task maps a run to its report block, whether it passed, and the detail
# of its check; the task's expectations are then applied to both

def _stationarity(run):
    st = run.stationary
    return (st, st["volume_constrained"],
            f"H_f spread {st['H_f_spread']:.2e}, "
            f"contact {st['max_contact']:.2e}")


def _first_variation(run):
    fd = first_variation_fd(run.family).value
    formula = first_variation_formula(run.family)
    diff = abs(fd - formula)
    tol = run.scn.tol("variation") * first_variation_scale(run.family)
    return ({"fd": fd, "formula": formula, "difference": diff}, diff <= tol,
            f"|fd - formula| = {diff:.2e}")


def _second_variation(run):
    fd = second_variation_fd(run.family).value
    u = run.family.vertex_normal_speed()
    ifv = index_form_value(run.asm, u, u)
    diff = abs(fd - ifv)
    scale, rounding = index_form_scale(run.asm, u,
                                       run.family.vertex_speed_size())
    tol = run.scn.tol("variation") * scale + rounding
    return ({"fd": fd, "index_form": ifv, "difference": diff}, diff <= tol,
            f"|fd - I_f(u,u)| = {diff:.2e}")


def _spectrum(run):
    spec = run.spec
    residual = float(np.max(spec.solver_residuals))
    return ({"dof": run.asm.dof, "eigenvalues": spec.eigenvalues.tolist(),
             "lambda_min": spec.lambda_min, "verdict_strong": run.strong,
             "verdict_volume_constrained": volume_constrained_verdict(
                 spec, run.scn.tol("verdict")),
             "residual_max": residual}, True, f"residual_max = {residual:.2e}")


def _identities(run):
    data, tol = run.data, run.scn.tol
    scale, b_scale = identity_scales(data)
    resid = gauss_rearrangement_residual(data)
    block = {"gauss_rearrangement_residual": resid}
    ok = resid <= tol("identity") * scale
    detail = f"rearrangement {resid:.2e}"
    if data.has_boundary:
        bres = boundary_identity_residual(data)
        block["boundary_identity_residual"] = bres
        ok = ok and bres <= tol("boundary_identity") * b_scale
        detail += f", boundary {bres:.2e}"
    return block, ok, detail


def _topology(run):
    chain = stability_topology_chain(run.data)
    verdict = topology_verdict(chain, run.strong, run.data.has_boundary)
    return ({**chain, "verdict": verdict},
            chain["chain_holds"] and verdict != INCONSISTENT,
            f"verdict {verdict}, chi {chain['chi']}")


def _area_bounds(run):
    block = area_bound_check(run.data, run.scn.S0, run.strong)
    applicable = block["applicable"]
    return (block, block["passed"] or not applicable,
            "applicable" if applicable else "not applicable")


def _rigidity(run):
    flags = rigidity_flags(run.data)
    return flags, True, f"all_true = {flags['all_true']}"


def _foliation(run):
    tol = run.scn.tol("foliation")
    block = foliation_monotonicity_check(run.family, tol=tol)
    resid = block["max_rel_residual"]
    return (block, resid <= tol and block["monotone_holds"],
            f"identity residual {resid:.2e}")


# each JSON kind of an expect value: its tests in turn, and what each wants
_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
           "a number")
EXPECT_KINDS = {
    "flag": [(lambda v: type(v) is bool, "true or false")],
    "integer": [(lambda v: type(v) is int, "an integer")],
    "topology verdict": [(lambda v: v in TOPOLOGY_VERDICTS,
                          f"one of {', '.join(TOPOLOGY_VERDICTS)}")],
    "number": [_NUMBER],
    "positive number": [_NUMBER, (lambda v: v > 0, "positive")],
}


class Expectation(NamedTuple):
    """One expect key; holds(got, want, expect): does got meet want?"""
    task: str       # whose report block it reads ("sweep": the sweep's)
    kind: str       # its JSON kind, a key of EXPECT_KINDS
    read: Any = None  # the value it compares: a block key or read(block, want)
    holds: Callable[[Any, Any, dict], bool] = lambda got, want, exp: got == want
    detail: str = ""  # what its check's detail appends, of got, want, block b
    needs: Optional[str] = None     # the key it is a parameter of


def _zero_crossing(sweep: dict, want) -> tuple:
    """The target want, lambda_min there or None, and whether it decreases."""
    target, lams = float(want), [r[1] for r in sweep["rows"]]
    at_target = next((r[1] for r in sweep["rows"] if math.isclose(
        r[0], target, rel_tol=1e-9, abs_tol=1e-12)), None)
    return target, at_target, all(a > b - 1e-9 for a, b in zip(lams, lams[1:]))


# every expect key, in the order a check applies them
EXPECTATIONS = {
    "lambda_min": Expectation(
        "spectrum", "number", "lambda_min", lambda got, want, exp: abs(
            got - float(want)) <= float(exp.get("lambda_tol", 1e-3)),
        ", lambda_min = {got:.6f} (expected {want})"),
    "lambda_tol": Expectation("spectrum", "positive number",
                              needs="lambda_min"),
    "strong": Expectation("spectrum", "flag", "verdict_strong",
                          detail=", strong = {got}"),
    "volume_constrained": Expectation("spectrum", "flag",
                                      "verdict_volume_constrained",
                                      detail=", volume_constrained = {got}"),
    "topology": Expectation("topology", "topology verdict", "verdict"),
    "chi": Expectation("topology", "integer", "chi"),
    "I_f_u_zero": Expectation("topology", "flag", lambda b, want: abs(
        b["I_f_u"]) <= 1e-6 * max(1.0, abs(b["bound2"])),
        detail=", I_f_u = {b[I_f_u]:.2e}"),
    "rigidity_all_true": Expectation("rigidity", "flag", "all_true"),
    "sweep_zero_crossing": Expectation(
        "sweep", "number", _zero_crossing,
        lambda got, want, exp: got[1] is not None and abs(got[1]) <= 2e-2
        and got[2], "lambda_min({got[0]}) = {got[1]!r}, decreasing = {got[2]}"),
}


def _checked(name, task, block, passed, detail, expect) -> Check:
    """A task's check with the task's expectations in expect applied."""
    for key, row in EXPECTATIONS.items():
        if row.task == task and key in expect and not row.needs:
            want = expect[key]
            got = (block[row.read] if isinstance(row.read, str)
                   else row.read(block, want))
            passed = passed and row.holds(got, want, expect)
            detail += row.detail.format(got=got, want=want, b=block)
    return Check(name, bool(passed), detail)


# the tasks in the order a run evaluates them; a task's block goes in the
# report under its name with "_" for "-", and its check takes its name
TASKS = {"stationarity": _stationarity, "first-variation": _first_variation,
         "second-variation": _second_variation, "spectrum": _spectrum,
         "identities": _identities, "topology": _topology,
         "area-bounds": _area_bounds, "rigidity": _rigidity,
         "foliation": _foliation}


def _run_single(scn: Scenario, chart: SurfaceChart) -> RunResult:
    """Run the scenario's tasks on the chart of its surface."""
    run, mesh = _Run(scn, chart), chart.mesh
    results, checks = {}, []
    for task, evaluate in TASKS.items():
        if task in scn.tasks:
            block, passed, detail = evaluate(run)
            results[task.replace("-", "_")] = block
            checks.append(_checked(task, task, block, passed, detail,
                                   scn.expect))
    checks.sort(key=lambda c: c.name)
    A_f = float(np.sum(run.data.w_daf))
    if not math.isfinite(A_f):
        raise NumericalFailure("weighted area A_f is not finite")
    report = {"name": scn.name,
              "geometry": {"n_vertices": mesh.n_vertices,
                           "n_triangles": len(mesh.triangles),
                           "chi": mesh.chi, "boundary_loops": mesh.n_loops,
                           "A_f": A_f,
                           "H_f_mean": run.stationary["H_f_mean"]},
              "results": dict(sorted(results.items())),
              "checks": [c._asdict() for c in checks]}
    spectrum_rows = ([[i, float(lam), float(r)] for i, (lam, r) in enumerate(
        zip(run.spec.eigenvalues, run.spec.solver_residuals))]
        if "spectrum" in scn.tasks else [])
    samples_header, samples, family = [], [], run.family
    if family is not None:
        samples_header = ["s", "A_f", "V_f"]
        grid = [float(s) for s in np.linspace(-0.2, 0.2, 9)]
        volume = {grid[4]: 0.0}
        for side in (grid[5:], grid[3::-1]):
            volume.update(zip(side, swept_weighted_volume(family, side)))
        samples = [[s, family.weighted_area(s), volume[s]] for s in grid]
    return RunResult(scn, report, checks, samples_header, samples,
                     spectrum_rows, mesh)


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

def _builtin_defs() -> Dict[str, dict]:
    # the S^1 factor of the product R x S^1 x R is the periodic u range
    slab_slice_surface = {
        "builtin": "rect-patch",
        "origin": [0.0, 0.0, 0.0],
        "du": [0.0, 1.0, 0.0],
        "dv": [0.0, 0.0, 1.0],
        "u_range": [0.0, TAU],
        "v_range": [-1.0, 1.0],
        "periodic_u": True,
    }
    return {
        "paper-ex-3.9-threshold": {
            "description": ("half-sphere with log-radial density psi = k log|p|; "
                            "sweeps k and locates the stability threshold k = -2"),
            "ambient": {"density": {"name": "radial-log", "k": -2.0},
                        "boundary": {"name": "half-space", "axis": 2}},
            "surface": {"builtin": "spherical-cap"},
            "resolution": 24,
            "tasks": ["spectrum"],
            "sweep": {"param": "ambient.density.k",
                      "values": [-3.0, -2.5, -2.0, -1.5, -1.0]},
            "expect": {"sweep_zero_crossing": -2.0},
        },
        "paper-product-cylinder": {
            "description": ("flat cylinder slice of a weighted product with "
                            "psi = x; the equality case S_f + H_f^2 = 0"),
            "ambient": {"density": {"name": "linear", "a": [1.0, 0.0, 0.0]},
                        "boundary": {"name": "slab", "axis": 2,
                                     "halfwidth": 1.0}},
            "surface": slab_slice_surface,
            "resolution": 24,
            "tasks": ["stationarity", "spectrum", "identities", "topology",
                      "rigidity", "area-bounds"],
            "S0": -1.0,
            "expect": {"lambda_min": 0.0, "strong": True,
                       "rigidity_all_true": True, "topology": "DiskOrCylinder",
                       "chi": 0, "I_f_u_zero": True},
        },
        "paper-product-torus": {
            "description": ("flat torus slice of a doubly periodic weighted "
                            "product with psi = x; closed equality case"),
            "ambient": {"density": {"name": "linear", "a": [1.0, 0.0, 0.0]}},
            "surface": {"builtin": "rect-patch",
                        "origin": [0.0, 0.0, 0.0],
                        "du": [0.0, 1.0, 0.0],
                        "dv": [0.0, 0.0, 1.0],
                        "u_range": [0.0, TAU],
                        "v_range": [0.0, TAU],
                        "periodic_u": True,
                        "periodic_v": True},
            "resolution": 24,
            "tasks": ["stationarity", "spectrum", "topology", "rigidity"],
            "expect": {"lambda_min": 0.0, "strong": True,
                       "rigidity_all_true": True,
                       "topology": "SphereOrTorus", "chi": 0},
        },
        "paper-Mr-k-minus-2": {
            "description": ("round sphere of radius 2 outside the unit ball "
                            "with psi = -2 log|p|: S_f = 0, H_f = 0, "
                            "lambda_min = 0"),
            "ambient": {"density": {"name": "radial-log", "k": -2.0},
                        "boundary": {"name": "ball-complement",
                                     "radius": 1.0}},
            "surface": {"builtin": "round-sphere", "radius": 2.0},
            "resolution": 24,
            "tasks": ["stationarity", "spectrum", "identities", "topology"],
            "expect": {"lambda_min": 0.0, "strong": True,
                       "topology": "SphereOrTorus", "chi": 2},
        },
        "paper-ex-3.8-gaussian-halfspace": {
            "description": ("unit half-sphere in a half-space with the "
                            "Gaussian density psi = -|p|^2: stationary but "
                            "volume-constrained unstable (translations)"),
            "ambient": {"density": {"name": "gaussian"},
                        "boundary": {"name": "half-space", "axis": 2}},
            "surface": {"builtin": "spherical-cap"},
            "resolution": 24,
            "tasks": ["stationarity", "spectrum"],
            "expect": {"strong": False, "volume_constrained": False},
        },
        "paper-ex-3.8-convex-cone": {
            "description": ("spherical cap inside a convex cone with the "
                            "log-convex radial density psi = |p|^2/2: "
                            "volume-constrained stable"),
            "ambient": {"density": {"name": "radial-smooth",
                                    "coeffs": [0.0, 0.0, 0.5]},
                        "boundary": {"name": "cone", "alpha": 0.7}},
            "surface": {"builtin": "spherical-cap", "alpha": 0.7},
            "resolution": 24,
            "tasks": ["stationarity", "spectrum"],
            "expect": {"strong": False, "volume_constrained": True},
        },
        "gauss-identity-suite": {
            "description": ("half-sphere with psi = -2.5 log|p|: curvature "
                            "rearrangement and boundary identities plus "
                            "spectrum (lambda_min = 0.5)"),
            "ambient": {"density": {"name": "radial-log", "k": -2.5},
                        "boundary": {"name": "half-space", "axis": 2}},
            "surface": {"builtin": "spherical-cap"},
            "resolution": 24,
            "tasks": ["stationarity", "spectrum", "identities"],
            "expect": {"lambda_min": 0.5, "strong": True},
        },
        "sphere-classical-instability": {
            "description": ("closed unit sphere with constant density: "
                            "lambda_min = -2, strongly unstable"),
            "ambient": {"density": {"name": "constant"}},
            "surface": {"builtin": "round-sphere"},
            "resolution": 24,
            "tasks": ["stationarity", "spectrum", "topology"],
            "expect": {"lambda_min": -2.0, "lambda_tol": 2e-2,
                       "strong": False, "topology": "NotApplicable"},
        },
        "flat-slab-slice": {
            "description": ("flat cylinder slice of a constant-density slab "
                            "product: every rigidity flag true, all "
                            "variations vanish"),
            "ambient": {"density": {"name": "constant"},
                        "boundary": {"name": "slab", "axis": 2,
                                     "halfwidth": 1.0}},
            "surface": slab_slice_surface,
            "resolution": 16,
            "tasks": ["stationarity", "first-variation", "second-variation",
                      "spectrum", "rigidity", "topology", "foliation"],
            "variation": {"flow": "translation",
                          "direction": [1.0, 0.0, 0.0]},
            "expect": {"lambda_min": 0.0, "strong": True,
                       "rigidity_all_true": True,
                       "topology": "DiskOrCylinder", "chi": 0},
        },
    }


def builtin_names() -> List[str]:
    return sorted(_builtin_defs())


def builtin_tree(name: str) -> dict:
    """A fresh copy of the builtin scenario's tree, to edit or parse."""
    defs = _builtin_defs()
    if name not in defs:
        raise ConfigError(f"unknown builtin scenario '{name}' "
                          f"(available: {', '.join(sorted(defs))})")
    return defs[name]


def builtin_scenario(name: str) -> Scenario:
    return parse_scenario(builtin_tree(name), name)


def builtin_descriptions() -> List[tuple]:
    return [(name, _builtin_defs()[name]["description"])
            for name in builtin_names()]
