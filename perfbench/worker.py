"""The run process: imports dtclust and runs one workload's jobs, one at a time.

Started by run.py in a fresh interpreter with the checkout's `src` on
PYTHONPATH. It never generates inputs, so its peak RSS is that of the jobs.
Each job is one `dtclust.cli.main(argv)` call writing into its own directory.
With tracing on, jobs alternate untraced and traced so the run measures its
own tracing overhead. The outcome goes to a JSON file named by `--result`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import dtclust
import numpy as np
from dtclust import cli

import tracing
from workloads import WORKLOADS, report_digest

MIN_JOBS = {0: 3, 1: 4}  # by --trace; a traced run holds at least two traced jobs
HARD_STOP_S = 140.0  # start no job after this, whatever --seconds says

# Small, so the kernel adds nothing to the run process's peak RSS.
_CALIB_CODES = np.random.default_rng(0).integers(0, 50_000, 60_000)


def calibrate() -> float:
    """Wall time of a fixed numpy sort plus a pure-Python loop (~0.1 s)."""
    t0 = time.perf_counter()
    for _ in range(10):
        np.unique(_CALIB_CODES, return_inverse=True)
    acc = 0
    for i in range(450_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_job(main, argv: list[str], out: Path) -> dict:
    """Run one CLI job into `out`; return its wall time, outcome and report text."""
    error = None
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            rc = main(argv + ["--out", str(out)])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed job
            rc, error = None, repr(exc)
        job_s = time.perf_counter() - t0
    report = out / "report.json"
    text = report.read_text(encoding="utf-8") if report.is_file() else None
    size = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
    shutil.rmtree(out, ignore_errors=True)
    return {"job_s": job_s, "rc": rc, "error": error, "report": text, "artifact_bytes": size}


def run(workload, csv: Path, work: Path, seconds: float, trace: int, spans_path: Path | None) -> dict:
    tracer = tracing.Tracer() if trace else None
    argv = list(workload.argv) + ["--input", str(csv)]
    jobs, layer, rounds = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(jobs) >= MIN_JOBS[trace] and (
                elapsed + statistics.median(rounds) > seconds or elapsed > HARD_STOP_S):
            break
        t0 = time.perf_counter()
        k = len(jobs)
        traced = tracer is not None and k % 2 == 1
        calib_s = calibrate()
        if traced:
            tracer.start_job(k)
            first = len(tracer.spans)
            with tracing.patched(tracer):
                job = run_job(tracer.wrap(tracing.ROOT, cli.main), argv, work / f"job{k}")
        else:
            job = run_job(cli.main, argv, work / f"job{k}")
        text = job.pop("report")
        job.update(traced=traced, calib_s=calib_s, digest=report_digest(text) if text else None)
        if traced and text:
            layer.append(tracing.job_metrics(
                tracer.spans, first, tracer.kept, json.loads(text), job["artifact_bytes"]))
            tracer.kept.clear()
        jobs.append(job)
        rounds.append(time.perf_counter() - t0)

    if tracer is not None and spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}))
    return {
        "jobs": jobs,
        "layer": layer,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, type=Path, help="the src directory dtclust must come from")
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args()
    if args.src.resolve() not in Path(dtclust.__file__).resolve().parents:
        print(f"perfbench: dtclust imported from {dtclust.__file__}, not {args.src}", file=sys.stderr)
        return 2
    outcome = run(WORKLOADS[args.workload], args.input, args.work, args.seconds, args.trace, args.spans)
    args.result.write_text(json.dumps(outcome), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
