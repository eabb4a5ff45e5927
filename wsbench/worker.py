"""The process that runs the program: one caller, closed loop.

``run.py`` starts this file in a fresh interpreter whose thread settings are
fixed before numpy is imported.  It imports ``wstab.cli`` from the checkout's
``src``, generates the workload, then runs whole passes over the jobs until
the run's time is used, alternating untraced and traced passes when tracing.
Each job is checked here; the timings and checks go to a JSON file that
``run.py`` reads.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# a pass always runs twice, so that a traced run has an untraced pass to
# compare with; after that, no pass starts that would end past --seconds
MIN_PASSES = 2
# a closed form holds within this share of max(1, |closed form|)
CLOSED_FORM_TOL = 1e-3
DIGITS_CAP = 16.0


def _import_program():
    import wstab.cli
    origin = Path(wstab.cli.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise SystemExit(f"wstab imported from {origin}, not from {SRC_DIR}")
    return wstab.cli


def _lookup(tree, path):
    for key in path:
        if not isinstance(tree, dict) or key not in tree:
            return None
        tree = tree[key]
    return tree


def _null_verdicts(tree) -> int:
    """Spectrum results whose volume-constrained verdict was skipped."""
    if not isinstance(tree, dict):
        return 0
    n = 0
    spectrum = _lookup(tree, ("results", "spectrum"))
    if isinstance(spectrum, dict) and spectrum.get(
            "verdict_volume_constrained", False) is None:
        n += 1
    for sub in (tree.get("runs") or {}).values():
        n += _null_verdicts(sub)
    return n


def check_report(job, report):
    """(problems, accuracy digits or None) of one report against its job."""
    problems = []
    digits = []
    for path, expected in job.closed_forms:
        got = _lookup(report, path)
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            problems.append(f"no number at {'.'.join(path)}")
            continue
        rel = abs(got - expected) / max(1.0, abs(expected))
        digits.append(DIGITS_CAP if rel == 0 else
                      min(DIGITS_CAP, -math.log10(rel)))
        if not rel <= CLOSED_FORM_TOL:
            problems.append(f"{'.'.join(path)} = {got!r}, closed form "
                            f"{expected!r}")
    return problems, (min(digits) if digits else None)


def run_job(cli, job, out_dir: Path) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    output = io.StringIO()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(output):
            code = cli.main([*job.argv, "--out", str(out_dir)])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a failing job is counted, never fatal to the run
        code = None
        problems.append("raised " + traceback.format_exc(limit=1).strip())
    seconds = time.perf_counter() - start

    text = output.getvalue()
    if code != 0:
        problems.append(f"exit code {code}")
    if "[FAIL]" in text:
        problems.append("[FAIL] line printed")
    if "Traceback" in text:
        problems.append("traceback printed")
    record = {"key": job.key, "seconds": seconds, "digits": None,
              "sha256": None, "skipped": 0,
              "bytes": sum(p.stat().st_size for p in out_dir.rglob("*")
                           if p.is_file())}
    report_path = out_dir / "report.json"
    if report_path.is_file():
        raw = report_path.read_bytes()
        record["sha256"] = hashlib.sha256(raw).hexdigest()
        try:
            report = json.loads(raw)
        except ValueError as exc:
            problems.append(f"report.json is not JSON: {exc}")
        else:
            more, record["digits"] = check_report(job, report)
            problems += more
            record["skipped"] = _null_verdicts(report)
    else:
        problems.append("no report.json")
    record["problems"] = problems
    return record


def run_pass(cli, jobs, out_root: Path, traced: bool) -> dict:
    tracer = Tracer() if traced else contextlib.nullcontext()
    with tracer:
        records = [run_job(cli, job, out_root / job.key) for job in jobs]
    result = {"traced": traced,
              "seconds": sum(r["seconds"] for r in records),
              "jobs": records}
    if traced:
        result["layers"] = tracer.summary()
    return result


def reference_kernel_seconds() -> float:
    """Median time of a fixed dense symmetric eigensolve (drift probe)."""
    a = np.random.default_rng(0).standard_normal((400, 400))
    s = a @ a.T
    times = []
    for _ in range(7):
        t = time.perf_counter()
        np.linalg.eigh(s)
        times.append(time.perf_counter() - t)
    return sorted(times)[len(times) // 2]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result")
    args = p.parse_args(argv)

    out = Path(args.out)
    cli = _import_program()
    jobs = workloads.generate(args.workload, args.seed,
                              str(out / "scenarios"), args.tiny)
    if args.setup_only:
        return 0

    # warm-up: lazy imports and first-call set-up, untimed and unchecked
    for job in workloads.generate(args.workload, args.seed,
                                  str(out / "warmup"), tiny=True):
        run_job(cli, job, out / "warmup" / job.key)
    kernel_before = reference_kernel_seconds()

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(cli, jobs, out / "jobs", traced))
        projected = time.perf_counter() - start + passes[-1]["seconds"]
        if len(passes) >= MIN_PASSES and projected > args.seconds:
            break

    result = {
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_kernel_s": [kernel_before, reference_kernel_seconds()],
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
