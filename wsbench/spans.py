"""Layer spans recorded from outside the program.

A ``Tracer`` replaces the public functions of each ``wstab`` layer with
wrappers that record a span per call: layer, start, end and the span that
caused it.  Spans stay in memory; ``summary()`` turns them into per-layer
counts and self times when the traced pass ends.  The program itself is not
changed and carries no timer.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# layer -> (module, function) pairs; a name missing from the module is
# skipped, so a layer whose functions were removed reports 0 calls
LAYERS = {
    "cli": [("cli", "main")],
    "scenarios": [("scenarios", "run_scenario")],
    "surface.mesh": [("surface", "mesh_from_immersion"),
                     ("surface", "euler_characteristic")],
    "surface.geometry": [("surface", "extrinsic_geometry"),
                         ("functionals", "geometry")],
    "functionals.variation": [("functionals", name) for name in (
        "weighted_area", "swept_weighted_volume", "first_variation_formula",
        "volume_first_variation", "first_variation_fd",
        "second_variation_fd")],
    "stability.assemble": [("stability", "assemble")],
    "stability.eigensolve": [("stability", "robin_eigenproblem")],
    "stability.constrained": [("stability", "constrained_lambda_min")],
    "theorems": [("theorems", name) for name in (
        "rigidity_flags", "gauss_rearrangement_residual",
        "boundary_identity_residual", "stability_topology_chain",
        "topology_verdict", "area_bound_check",
        "foliation_monotonicity_check")],
}

# spans opened on a thread with no open span of its own (the task pool in
# wstab.scenarios) are children of the innermost open span of this layer
POOL_PARENT_LAYER = "scenarios"


@dataclass
class Span:
    layer: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    children: List["Span"] = field(default_factory=list)

    def self_seconds(self) -> float:
        """Duration minus the part of it covered by child spans."""
        covered = 0.0
        reach = self.start
        for c in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(c.start, reach), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (self.end - self.start) - covered


class Tracer:
    """Context manager: wrap the layer functions, restore them on exit."""

    def __init__(self):
        self.spans: List[Span] = []
        self.points = 0
        self.dof_max = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parents: List[Span] = []
        self._patches: list = []

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "wstab"
                                         or name.startswith("wstab."))]
        for layer, targets in LAYERS.items():
            for mod_name, fn_name in targets:
                mod = sys.modules.get(f"wstab.{mod_name}")
                original = getattr(mod, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original)
                # install under every module name bound to the function,
                # since modules import each other's functions by name
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, bound, original))
                            setattr(m, bound, wrapper)

    def __exit__(self, *exc) -> None:
        for m, bound, original in reversed(self._patches):
            setattr(m, bound, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                with self._lock:
                    parent = (self._pool_parents[-1]
                              if self._pool_parents else None)
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)   # re-entry within one layer
            span = Span(layer, parent, time.perf_counter())
            stack.append(span)
            if layer == POOL_PARENT_LAYER:
                with self._lock:
                    self._pool_parents.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    if layer == POOL_PARENT_LAYER:
                        self._pool_parents.remove(span)
                    if parent is not None:
                        parent.children.append(span)
                    self.spans.append(span)
            with self._lock:
                if layer == "surface.geometry":   # interior + boundary
                    self.points += len(result.w_da) + len(result.w_dl)
                elif layer == "stability.eigensolve":
                    self.dof_max = max(self.dof_max, int(args[0].dof))
            return result
        return wrapper

    # -- results ----------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Per-layer calls and self seconds, plus the layer counters."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            mine = [s for s in self.spans if s.layer == layer]
            out[f"{layer}.calls"] = len(mine)
            out[f"{layer}.self_s"] = sum(s.self_seconds() for s in mine)
        out["surface.geometry.points"] = self.points
        out["stability.eigensolve.dof_max"] = self.dof_max
        return out
