"""Self-test of the benchmark itself, on tiny inputs of each workload.

    python3 wsbench/selftest.py

Run from the root of a checkout; takes about two minutes.  It checks that
the tracer installs and restores its wrappers, skips missing functions and
links spans opened on the task pool to the open ``scenarios`` span; that a
traced and an untraced run of each workload print every metric listed in
``BENCHMARK.json`` with its unit and fail no job; and that the per-layer
counts repeat exactly between two traced runs.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-layer metrics that count work and must repeat exactly
COUNT_SUFFIXES = (".calls", ".points", ".repeat_ratio", ".skipped",
                  ".dof_max", ".calls_per_job", ".bytes_written")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def tracer_checks() -> None:
    import wstab.cli
    import wstab.scenarios
    import wstab.stability

    bound = {(m.__name__, n): v for m in (wstab.cli, wstab.scenarios,
                                          wstab.stability)
             for n, v in vars(m).items() if callable(v)}
    layers = dict(spans.LAYERS)
    spans.LAYERS["stability.eigensolve"] = (
        layers["stability.eigensolve"] + [("stability", "no_such_function")])
    previous = os.environ.get("WSTAB_THREADS")
    os.environ["WSTAB_THREADS"] = "2"   # run the tasks on the pool
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as out, \
                spans.Tracer() as tracer, \
                contextlib.redirect_stdout(io.StringIO()):
            check(wstab.scenarios.assemble is not
                  bound[("wstab.scenarios", "assemble")],
                  "assemble not wrapped where scenarios binds it")
            code = wstab.cli.main(["builtin", "paper-product-cylinder",
                                   "--out", out])
    finally:
        spans.LAYERS.clear()
        spans.LAYERS.update(layers)
        if previous is None:
            del os.environ["WSTAB_THREADS"]
        else:
            os.environ["WSTAB_THREADS"] = previous
    check(code == 0, "paper-product-cylinder failed under the tracer")
    restored = {(m.__name__, n): v for m in (wstab.cli, wstab.scenarios,
                                             wstab.stability)
                for n, v in vars(m).items() if callable(v)}
    check(restored == bound, "tracer did not restore the original functions")
    summary = tracer.summary()
    check(summary["stability.eigensolve.calls"] > 0, "no eigensolve spans")
    roots = [s for s in tracer.spans if s.parent is None]
    check([s.layer for s in roots] == ["cli"],
          f"spans without a parent: {[s.layer for s in roots]}")
    for s in tracer.spans:
        if s.layer not in ("cli", "scenarios"):
            chain = s
            while chain.parent is not None and chain.layer != "scenarios":
                chain = chain.parent
            check(chain.layer == "scenarios",
                  f"{s.layer} span not linked to the scenarios span")


def run(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(done.returncode == 0,
          f"{workload} trace {trace} exited {done.returncode}: "
          f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(workload, lines, result, specs) -> None:
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{workload}: jobs failed")
    check(set(result["metrics"]) == {s["name"] for s in specs},
          f"{workload}: metrics differ from BENCHMARK.json")
    for s in specs:
        got = result["metrics"][s["name"]]
        check(got["unit"] == s["unit"], f"{workload}: unit of {s['name']}")
        check(any(line.split()[:1] == [s["name"]] and s["unit"] in line
                  for line in lines),
              f"{workload}: {s['name']} not printed with its unit")


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer_checks()
    print("tracer: wrappers installed, restored, linked to scenarios")
    for workload in WORKLOADS:
        lines, result = run(workload, 0)
        check_metrics(workload, lines, result, spec["end_to_end"])
        traced = []
        for _ in range(2):
            lines, result = run(workload, 1)
            check_metrics(workload, lines, result, spec["per_layer"])
            traced.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)})
        check(traced[0] == traced[1],
              f"{workload}: per-layer counts differ between traced runs")
        print(f"{workload}: metrics and units complete, counts repeat")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
