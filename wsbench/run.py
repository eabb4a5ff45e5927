"""Benchmark of the wstab command line, one workload per run.

    python3 wsbench/run.py --workload builtin-suite --seed 1 \
        --seconds 50 --trace 0

Run from the root of a checkout.  The program is run from ``src`` in a
worker process (``worker.py``) with fixed thread settings; this process
times the set-up, reads the worker's timings and checks, and prints one
line per metric with its unit and sample count, then the result as one JSON
object on the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Drift diagnostics (CPU steal, load, a reference kernel) are printed and
kept beside the outputs in ``.bench_build/wsbench``; they are not metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh interpreters timed for setup_s, after one discarded warm-up
SETUP_SAMPLES = 8
# set-up and worker must end within this, or the run fails without a result
TIMEOUT_S = 160.0

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
                    "accuracy_digits": "digits", "success_rate": "ratio"}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        if layer not in ("scenarios", "cli"):   # one call per job
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "stability.eigensolve.dof_max": "dof",
        "stability.eigensolve.repeat_ratio": "ratio",
        "stability.constrained.skipped": "count",
        "surface.geometry.points": "count",
        "surface.geometry.calls_per_job": "ratio",
        "cli.bytes_written": "bytes",
        "trace.overhead_ratio": "ratio",
    })
    return units


def thread_env() -> dict:
    """One task thread, and BLAS threads to fill the cores: 1 x nproc."""
    nproc = len(os.sched_getaffinity(0))
    return {"WSTAB_THREADS": "1", "OPENBLAS_NUM_THREADS": str(nproc),
            "OMP_NUM_THREADS": str(nproc)}


def proc_sample() -> dict:
    """CPU steal ticks and load average: drift diagnostics only."""
    with open("/proc/stat", encoding="ascii") as fh:
        cpu = fh.readline().split()
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {"steal_ticks": int(cpu[8]), "loadavg": load}


def end_to_end(result: dict, setup_times, failed_jobs: int,
               attempted: int) -> dict:
    passes = [p for p in result["passes"] if not p["traced"]]
    digits = [j["digits"] for p in result["passes"] for j in p["jobs"]
              if j["digits"] is not None]
    return {
        "setup_s": (median(setup_times), len(setup_times), "interpreters"),
        "pass_s": (median([p["seconds"] for p in passes]), len(passes),
                   "passes"),
        "peak_rss_mb": (result["peak_rss_mb"], 1, "process"),
        "accuracy_digits": (min(digits) if digits else 0.0, len(digits),
                            "jobs with closed forms"),
        "success_rate": ((attempted - failed_jobs) / attempted, attempted,
                         "jobs"),
    }


def per_layer(result: dict) -> dict:
    """Counts from the first traced pass, self times as medians."""
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    first = traced[0]
    layers = first["layers"]
    out = {name: (value, 1, "traced pass") for name, value in layers.items()}
    for name in layers:
        if name.endswith(".self_s"):
            out[name] = (median([p["layers"][name] for p in traced]),
                         len(traced), "traced passes")
    assemblies = layers["stability.assemble.calls"]
    out["stability.eigensolve.repeat_ratio"] = (
        layers["stability.eigensolve.calls"] / assemblies
        if assemblies else 0.0, 1, "traced pass")
    out["surface.geometry.calls_per_job"] = (
        layers["surface.geometry.calls"] / len(first["jobs"]), 1,
        "traced pass")
    out["stability.constrained.skipped"] = (
        sum(j["skipped"] for j in first["jobs"]), 1, "traced pass")
    out["cli.bytes_written"] = (sum(j["bytes"] for j in first["jobs"]), 1,
                                "traced pass")
    out["trace.overhead_ratio"] = (
        median([p["seconds"] for p in traced])
        / median([p["seconds"] for p in untraced]), len(result["passes"]),
        "traced and untraced passes")
    return out


def failed_job_count(result: dict) -> int:
    """Jobs with a problem, or whose report.json differs from pass 1."""
    first_sha = {j["key"]: j["sha256"] for j in result["passes"][0]["jobs"]}
    failed = 0
    for i, p in enumerate(result["passes"]):
        for j in p["jobs"]:
            if j["sha256"] != first_sha.get(j["key"]):
                j["problems"].append("report.json differs from pass 1")
            if j["problems"]:
                failed += 1
                print(f"FAILED pass {i + 1} job {j['key']}: "
                      + "; ".join(j["problems"]))
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="a small version of the workload (self-test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wstab" / "cli.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'wstab'}",
              file=sys.stderr)
        return 2
    out = ROOT / ".bench_build" / "wsbench" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, **thread_env())
    worker = [sys.executable, str(BENCH_DIR / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--out", str(out)] + (["--tiny"] if args.tiny else [])
    deadline = time.monotonic() + TIMEOUT_S
    before = proc_sample()

    def run_worker(extra):
        try:
            done = subprocess.run(
                worker + extra, env=env, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"worker did not finish within {TIMEOUT_S} s",
                  file=sys.stderr)
            return False
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
        return done.returncode == 0

    # set-up samples are split before and after the passes, so that they
    # span the run as the passes do; the first one is discarded
    setup_times = []

    def time_setup(count: int) -> bool:
        for _ in range(count):
            t = time.perf_counter()
            if not run_worker(["--setup-only"]):
                return False
            setup_times.append(time.perf_counter() - t)
        return True

    if not time_setup(1 + SETUP_SAMPLES // 2):
        return 1
    del setup_times[0]
    result_path = out / "worker.json"
    if not (run_worker(["--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--result", str(result_path)])
            and time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)):
        return 1
    result = json.loads(result_path.read_text(encoding="utf-8"))
    after = proc_sample()

    attempted = sum(len(p["jobs"]) for p in result["passes"])
    failed = failed_job_count(result)
    if args.trace:
        measured, units = per_layer(result), per_layer_units()
    else:
        measured = end_to_end(result, setup_times, failed, attempted)
        units = END_TO_END_UNITS
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result['passes'])} passes of {result['jobs_per_pass']} "
          f"jobs, {failed} of {attempted} jobs failed")
    for name in units:
        value, count, what = measured[name]
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} "
              f"(from {count} {what})")
    diagnostics = {"before": before, "after": after,
                   "reference_kernel_s": result["reference_kernel_s"],
                   "setup_samples_s": setup_times,
                   "thread_env": thread_env()}
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    (out / f"diagnostics-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(diagnostics, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name][0], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
