"""Scenario schema, builtin registry, and the task runner behind the CLI.

A scenario is a strict key-value tree (JSON on disk) naming an ambient
space, a surface, a resolution, a set of tasks, and optional variation,
sweep, and expectation blocks.  Unknown keys anywhere in the tree are
rejected.
"""
from __future__ import annotations

import contextlib
import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from .ambient import (BOUNDARY_REGISTRY, DENSITY_REGISTRY, AmbientSpace,
                      make_space)
from .errors import ConfigError, WstabError
from .functionals import (DeformedFamily, RotationFlow, ScalingFlow,
                          TranslationFlow, first_variation_fd,
                          second_variation_fd, swept_weighted_volume)
from .stability import (assemble, index_form_value, robin_eigenproblem,
                        strong_stability_verdict, vertex_normals,
                        volume_constrained_verdict)
from .surface import (MAX_RESOLUTION, PlanarDisk, RectPatch, RoundSphere,
                      SphericalCap, extrinsic_geometry, mesh_from_immersion,
                      stationarity_verdict)
from .theorems import (area_bound_check, boundary_identity_residual,
                       foliation_monotonicity_check,
                       gauss_rearrangement_residual, rigidity_flags,
                       stability_topology_chain, topology_verdict)

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

TASKS = ("stationarity", "first-variation", "second-variation", "spectrum",
         "identities", "topology", "area-bounds", "rigidity", "foliation")

EXPECT_KEYS = {"lambda_min", "lambda_tol", "strong", "volume_constrained",
               "topology", "chi", "rigidity_all_true", "I_f_u_zero",
               "sweep_zero_crossing"}

# expectations read as numbers; the others are read as flags or names
NUMERIC_EXPECT_KEYS = {"lambda_min", "lambda_tol", "chi",
                       "sweep_zero_crossing"}

TOLERANCE_KEYS = {"identity", "boundary_identity", "variation", "verdict",
                  "foliation"}

# scenario trees are a few levels deep; the registry parameter builders
# recurse into nested lists
MAX_NESTING = 16

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


def _registry_params(obj: dict, registry: dict, kind: str):
    obj = _require_mapping(obj, kind)
    if "name" not in obj:
        raise ConfigError(f"{kind} block requires a 'name' key")
    name = obj["name"]
    if not isinstance(name, str) or name not in registry:
        raise ConfigError(f"unknown {kind} '{name}' "
                          f"(available: {', '.join(sorted(registry))})")
    factory = registry[name]
    params = {k: v for k, v in obj.items() if k != "name"}
    if factory is not None:
        try:
            allowed = set(inspect.signature(factory).parameters)
        except (TypeError, ValueError):
            allowed = set(params)
        for key in params:
            if key not in allowed:
                raise ConfigError(f"unknown parameter '{key}' for {kind} "
                                  f"'{name}' (allowed: {', '.join(sorted(allowed))})")
    return name, params


@dataclass
class Scenario:
    name: str
    ambient: dict
    surface: dict
    resolution: int
    tasks: List[str]
    variation: Optional[dict] = None
    tolerances: Dict[str, float] = field(default_factory=dict)
    S0: Optional[float] = None
    sweep: Optional[dict] = None
    expect: Dict[str, Any] = field(default_factory=dict)
    description: str = ""

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
    density = amb.get("density", {"name": "constant"})
    boundary = amb.get("boundary", {"name": "none"})
    _registry_params(density, DENSITY_REGISTRY, "density")
    _registry_params(boundary, BOUNDARY_REGISTRY, "boundary")

    surf = _require_mapping(obj["surface"], "surface")
    if "builtin" not in surf:
        raise ConfigError("surface block requires a 'builtin' key")
    _registry_params({("name" if k == "builtin" else k): v
                      for k, v in surf.items()}, SURFACE_REGISTRY, "surface")

    resolution = obj["resolution"]
    if not (isinstance(resolution, int)
            and 4 <= resolution <= MAX_RESOLUTION):
        raise ConfigError(f"resolution must be an integer in "
                          f"[4, {MAX_RESOLUTION}]")

    tasks = obj["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks must be a non-empty list")
    for t in tasks:
        if t not in TASKS:
            raise ConfigError(f"unknown task '{t}' "
                              f"(available: {', '.join(TASKS)})")

    variation = obj.get("variation")
    if variation is not None:
        variation = _require_mapping(variation, "variation")
        flow_obj = {("name" if k == "flow" else k): v
                    for k, v in variation.items()}
        if "name" not in flow_obj:
            raise ConfigError("variation block requires a 'flow' key")
        _registry_params(flow_obj, FLOW_REGISTRY, "flow")

    tols = obj.get("tolerances", {})
    tols = _require_mapping(tols, "tolerances")
    _check_keys(tols, TOLERANCE_KEYS, "tolerances")

    sweep = obj.get("sweep")
    if sweep is not None:
        sweep = _require_mapping(sweep, "sweep")
        _check_keys(sweep, {"param", "values"}, "sweep")
        if "param" not in sweep or "values" not in sweep:
            raise ConfigError("sweep block requires 'param' and 'values'")
        if not isinstance(sweep["values"], list) or not sweep["values"]:
            raise ConfigError("sweep values must be a non-empty list")
        for v in sweep["values"]:
            v = _number(v, "sweep value")
            if sweep["param"] == "resolution" and not (
                    v.is_integer() and 4 <= v <= MAX_RESOLUTION):
                raise ConfigError(f"resolution sweep values must be "
                                  f"integers in [4, {MAX_RESOLUTION}], "
                                  f"got {v!r}")

    expect = obj.get("expect", {})
    expect = _require_mapping(expect, "expect")
    _check_keys(expect, EXPECT_KEYS, "expect")
    for key in NUMERIC_EXPECT_KEYS & set(expect):
        _number(expect[key], f"expect.{key}")

    needs_var = {"first-variation", "second-variation", "foliation"} & set(tasks)
    if needs_var and variation is None:
        raise ConfigError(f"tasks {sorted(needs_var)} require a variation block")
    if "area-bounds" in tasks and obj.get("S0") is None:
        raise ConfigError("task 'area-bounds' requires the scenario key 'S0'")

    return Scenario(
        name=str(obj.get("name", default_name)),
        ambient={"density": dict(density), "boundary": dict(boundary)},
        surface=dict(surf),
        resolution=resolution,
        tasks=list(tasks),
        variation=dict(variation) if variation is not None else None,
        tolerances={k: _number(v, f"tolerances.{k}") for k, v in tols.items()},
        S0=None if obj.get("S0") is None else _number(obj["S0"], "S0"),
        sweep=dict(sweep) if sweep is not None else None,
        expect=dict(expect),
        description=str(obj.get("description", "")),
    )


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


@contextlib.contextmanager
def _parameter_values(kind: str):
    """A malformed parameter value of a registry object is a ConfigError."""
    try:
        yield
    except WstabError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"malformed {kind} parameter value: {exc}") from None


def build_space(scn: Scenario) -> AmbientSpace:
    amb = scn.ambient
    d = dict(amb["density"])
    b = dict(amb["boundary"])
    with _parameter_values("ambient"):
        return make_space(
            dim=3,
            density=(d.pop("name"), {k: _tupled(v) for k, v in d.items()}),
            boundary=(b.pop("name"), {k: _tupled(v) for k, v in b.items()}),
        )


def build_immersion(scn: Scenario):
    cfg = dict(scn.surface)
    name = cfg.pop("builtin")
    cls = SURFACE_REGISTRY[name]
    with _parameter_values("surface"):
        return cls(**{k: _tupled(v) for k, v in cfg.items()})


def build_flow(scn: Scenario):
    cfg = dict(scn.variation)
    name = cfg.pop("flow")
    cls = FLOW_REGISTRY[name]
    with _parameter_values("flow"):
        return cls(**{k: _tupled(v) for k, v in cfg.items()})


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


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


def _f(x) -> float:
    return float(x)


def run_scenario(scn: Scenario) -> RunResult:
    if scn.sweep is not None:
        return _run_sweep(scn)
    return _run_single(scn)


def _set_path(tree: dict, path: str, value) -> None:
    keys = path.split(".")
    node = tree
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"sweep parameter path '{path}' does not resolve")
        node = node[k]
    last = keys[-1]
    if not isinstance(node, dict):
        raise ConfigError(f"sweep parameter path '{path}' does not resolve")
    node[last] = value


def scenario_to_tree(scn: Scenario) -> dict:
    tree = {
        "name": scn.name,
        "ambient": {"density": dict(scn.ambient["density"]),
                    "boundary": dict(scn.ambient["boundary"])},
        "surface": dict(scn.surface),
        "resolution": scn.resolution,
        "tasks": list(scn.tasks),
    }
    if scn.variation is not None:
        tree["variation"] = dict(scn.variation)
    if scn.tolerances:
        tree["tolerances"] = dict(scn.tolerances)
    if scn.S0 is not None:
        tree["S0"] = scn.S0
    if scn.expect:
        tree["expect"] = dict(scn.expect)
    if scn.description:
        tree["description"] = scn.description
    return tree


def _run_sweep(scn: Scenario) -> RunResult:
    param = scn.sweep["param"]
    values = scn.sweep["values"]
    rows = []
    sub_reports = {}
    for v in values:
        tree = scenario_to_tree(scn)
        tree.pop("expect", None)
        _set_path(tree, param, int(v) if param == "resolution" else float(v))
        res = _run_single(parse_scenario(tree, scn.name))
        lam = res.report.get("results", {}).get("spectrum", {}).get("lambda_min")
        rows.append([float(v), lam])
        sub_reports[repr(float(v))] = res.report
    header = [param, "lambda_min"]
    if param == "resolution" and len(rows) >= 3 and "spectrum" in scn.tasks:
        # observed convergence order against the finest value
        header.append("order")
        lam_ref = rows[-1][1]
        errs = [abs(r[1] - lam_ref) for r in rows]
        hs = [1.0 / r[0] for r in rows]
        for i in range(len(rows)):
            if i + 1 < len(rows) - 1 and errs[i + 1] > 0 and errs[i] > 0:
                order = math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1])
                rows[i].append(order)
            else:
                rows[i].append("")
    checks = []
    if "sweep_zero_crossing" in scn.expect:
        target = float(scn.expect["sweep_zero_crossing"])
        at_target = [r[1] for r in rows
                     if math.isclose(r[0], target, rel_tol=1e-9, abs_tol=1e-12)]
        lam = at_target[0] if at_target else None
        ok = lam is not None and abs(lam) <= 2e-2
        lams = [r[1] for r in rows]
        monotone = all(lams[i] > lams[i + 1] - 1e-9 for i in range(len(lams) - 1))
        checks.append(Check("sweep-zero-crossing", bool(ok and monotone),
                            f"lambda_min({target}) = {lam!r}, "
                            f"decreasing = {monotone}"))
    report = {"name": scn.name, "sweep": {"param": param,
                                          "values": [float(v) for v in values],
                                          "rows": [[_none_or_f(x) for x in r]
                                                   for r in rows]},
              "runs": sub_reports,
              "checks": [c.as_dict() for c in checks]}
    return RunResult(scn, report, checks, header, rows, [], None)


def _none_or_f(x):
    if x is None or x == "":
        return x
    return float(x)


def _run_single(scn: Scenario) -> RunResult:
    space = build_space(scn)
    imm = build_immersion(scn)
    mesh = mesh_from_immersion(imm, scn.resolution, space=space)
    needs_asm = {"spectrum", "second-variation", "topology"} & set(scn.tasks)
    asm = assemble(space, mesh) if needs_asm else None
    data = (asm.data if asm is not None
            else extrinsic_geometry(space, imm, mesh))
    report: Dict[str, Any] = {
        "name": scn.name,
        "geometry": {
            "n_vertices": int(mesh.n_vertices),
            "n_triangles": int(len(mesh.triangles)),
            "chi": int(mesh.chi),
            "boundary_loops": int(mesh.n_loops),
            "A_f": _f(np.sum(data.w_daf)),
            "H_f_mean": _f(np.sum(data.H_f * data.w_daf) / np.sum(data.w_daf)),
        },
    }
    checks: List[Check] = []
    spectrum_rows: List[list] = []
    samples_header: List[str] = []
    samples: List[list] = []

    # one spectrum and one strong verdict serve both spectrum and topology
    spec = strong = None
    if {"spectrum", "topology"} & set(scn.tasks):
        spec = robin_eigenproblem(asm, count=6)
        vtol = scn.tol("verdict") * max(
            1.0, float(np.max(np.abs(spec.eigenvalues))))
        strong = strong_stability_verdict(spec, tol=vtol)
    flow = build_flow(scn) if scn.variation is not None else None
    family = (DeformedFamily(space, imm, mesh, flow, base_data=data)
              if flow is not None else None)

    results: Dict[str, Any] = {}

    def t_stationarity():
        v = stationarity_verdict(data)
        results["stationarity"] = {
            "strong": bool(v.strong),
            "volume_constrained": bool(v.volume_constrained),
            "H_f_mean": _f(v.H_f_mean),
            "H_f_spread": _f(v.H_f_spread),
            "max_contact": _f(v.max_contact),
        }
        checks.append(Check("stationarity", bool(v.volume_constrained),
                            f"H_f spread {v.H_f_spread:.2e}, "
                            f"contact {v.max_contact:.2e}"))

    def t_first_variation():
        from .functionals import VariationField, first_variation_formula
        fd = first_variation_fd(family)
        vf = VariationField(X=lambda P: flow.velocity(0.0, P), name="flow")
        formula = first_variation_formula(space, data, vf)
        diff = abs(fd.value - formula)
        tol = max(1e-6, scn.tol("variation") * abs(formula))
        results["first_variation"] = {"fd": _f(fd.value),
                                      "formula": _f(formula),
                                      "difference": _f(diff)}
        checks.append(Check("first-variation", diff <= tol,
                            f"|fd - formula| = {diff:.2e}"))

    def t_second_variation():
        fd = second_variation_fd(family)
        Nv = vertex_normals(mesh, imm)
        u = np.sum(flow.velocity(0.0, mesh.positions) * Nv, axis=1)
        ifv = index_form_value(asm, u, u)
        diff = abs(fd.value - ifv)
        tol = scn.tol("variation") * max(1.0, abs(ifv))
        results["second_variation"] = {"fd": _f(fd.value),
                                       "index_form": _f(ifv),
                                       "difference": _f(diff)}
        checks.append(Check("second-variation", diff <= tol,
                            f"|fd - I_f(u,u)| = {diff:.2e}"))

    def t_spectrum():
        constrained = volume_constrained_verdict(asm, tol=vtol)
        results["spectrum"] = {
            "dof": int(asm.dof),
            "eigenvalues": [_f(x) for x in spec.eigenvalues],
            "lambda_min": _f(spec.lambda_min),
            "verdict_strong": bool(strong),
            "verdict_volume_constrained": constrained,
            "residual_max": _f(np.max(spec.solver_residuals)),
        }
        for i, (lam, r) in enumerate(zip(spec.eigenvalues,
                                         spec.solver_residuals)):
            spectrum_rows.append([i, _f(lam), _f(r)])
        ok = float(np.max(spec.solver_residuals)) <= 1e-8
        detail = f"residual_max = {np.max(spec.solver_residuals):.2e}"
        exp = scn.expect
        if "lambda_min" in exp:
            lt = float(exp.get("lambda_tol", 1e-3))
            ok = ok and abs(spec.lambda_min - float(exp["lambda_min"])) <= lt
            detail += (f", lambda_min = {spec.lambda_min:.6f} "
                       f"(expected {exp['lambda_min']})")
        if "strong" in exp:
            ok = ok and strong == bool(exp["strong"])
            detail += f", strong = {strong}"
        if "volume_constrained" in exp:
            ok = ok and constrained == bool(exp["volume_constrained"])
            detail += f", volume_constrained = {constrained}"
        checks.append(Check("spectrum", bool(ok), detail))

    def t_identities():
        resid = gauss_rearrangement_residual(space, data)
        out = {"gauss_rearrangement_residual": _f(resid)}
        ok = resid <= scn.tol("identity")
        detail = f"rearrangement {resid:.2e}"
        if data.has_boundary:
            bres = boundary_identity_residual(space, data)
            out["boundary_identity_residual"] = _f(bres)
            ok = ok and bres <= scn.tol("boundary_identity")
            detail += f", boundary {bres:.2e}"
        results["identities"] = out
        checks.append(Check("identities", bool(ok), detail))

    def t_topology():
        chain = stability_topology_chain(mesh, data)
        verdict = topology_verdict(chain, strong)
        results["topology"] = {
            "I_f_u": _f(chain.I_f_u),
            "bound1": _f(chain.bound1),
            "bound2": _f(chain.bound2),
            "chi": int(chain.chi),
            "hypothesis_curvature": {"sampled_min": _f(chain.hyp_curvature.sampled_min),
                                     "holds": bool(chain.hyp_curvature.holds)},
            "hypothesis_convexity": {"sampled_min": _f(chain.hyp_convexity.sampled_min),
                                     "holds": bool(chain.hyp_convexity.holds)},
            "asserted": bool(chain.asserted),
            "chain_holds": bool(chain.chain_holds),
            "verdict": verdict,
        }
        ok = chain.chain_holds and verdict != "Inconsistent"
        detail = f"verdict {verdict}, chi {chain.chi}"
        exp = scn.expect
        if "topology" in exp:
            ok = ok and verdict == exp["topology"]
        if "chi" in exp:
            ok = ok and chain.chi == int(exp["chi"])
        if exp.get("I_f_u_zero"):
            ok = ok and abs(chain.I_f_u) <= 1e-6 * max(1.0, abs(chain.bound2))
            detail += f", I_f_u = {chain.I_f_u:.2e}"
        checks.append(Check("topology", bool(ok), detail))

    def t_area_bounds():
        rep = area_bound_check(mesh, data, scn.S0)
        results["area_bounds"] = {
            "applicable": bool(rep.applicable),
            "hypothesis": {"sampled_min": _f(rep.hypothesis.sampled_min),
                           "holds": bool(rep.hypothesis.holds)},
            "S0": _f(rep.S0),
            "chi": int(rep.chi),
            "A_f": _f(rep.A_f),
            "bound": None if np.isnan(rep.bound) else _f(rep.bound),
            "slack": None if np.isnan(rep.slack) else _f(rep.slack),
            "passed": bool(rep.passed),
        }
        ok = rep.passed if rep.applicable else True
        checks.append(Check("area-bounds", bool(ok),
                            "applicable" if rep.applicable else "not applicable"))

    def t_rigidity():
        flags = rigidity_flags(data)
        results["rigidity"] = {
            "totally_geodesic": flags.totally_geodesic,
            "density_const_on_surface": flags.density_const_on_surface,
            "ricci_normal_zero": flags.ricci_normal_zero,
            "II_NN_zero": flags.II_NN_zero,
            "boundary_geodesic": flags.boundary_geodesic,
            "gauss_flat": flags.gauss_flat,
            "all_true": flags.all_true,
        }
        ok = True
        if scn.expect.get("rigidity_all_true"):
            ok = flags.all_true
        checks.append(Check("rigidity", bool(ok), f"all_true = {flags.all_true}"))

    def t_foliation():
        rep = foliation_monotonicity_check(family)
        results["foliation"] = {
            "s_values": [_f(s) for s in rep.s_values],
            "lhs": [_f(x) for x in rep.lhs],
            "rhs": [_f(x) for x in rep.rhs],
            "max_rel_residual": _f(rep.max_rel_residual),
            "monotone_asserted": bool(rep.monotone_asserted),
            "monotone_holds": bool(rep.monotone_holds),
        }
        ok = (rep.max_rel_residual <= scn.tol("foliation")
              and rep.monotone_holds)
        checks.append(Check("foliation", bool(ok),
                            f"identity residual {rep.max_rel_residual:.2e}"))

    runners = {
        "stationarity": t_stationarity,
        "first-variation": t_first_variation,
        "second-variation": t_second_variation,
        "spectrum": t_spectrum,
        "identities": t_identities,
        "topology": t_topology,
        "area-bounds": t_area_bounds,
        "rigidity": t_rigidity,
        "foliation": t_foliation,
    }

    for t in TASKS:
        if t in scn.tasks:
            runners[t]()

    checks.sort(key=lambda c: c.name)
    report["results"] = {k: results[k] for k in sorted(results)}
    report["checks"] = [c.as_dict() for c in checks]

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


def builtin_scenario(name: str) -> Scenario:
    defs = _builtin_defs()
    if name not in defs:
        raise ConfigError(f"unknown builtin scenario '{name}' "
                          f"(available: {', '.join(sorted(defs))})")
    return parse_scenario(defs[name], name)


def builtin_descriptions() -> List[tuple]:
    return [(name, _builtin_defs()[name]["description"])
            for name in builtin_names()]
