"""dtclust benchmark: run one workload through the real CLI and print its metrics.

    python3 perfbench/run.py --workload census-extract --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --list

Run from the root of a source checkout. One run:

1. generates the workload's CSV with `dtclust synth` (pinned generator seed
   chosen by `--seed`) and checks its sha256 against references.json;
2. times `setup_s`: fresh interpreters that import dtclust and build the
   CLI parser, median of several;
3. starts one run process (worker.py) that calls `dtclust.cli.main(argv)`
   job after job for `--seconds`, one job at a time;
4. checks each job's report.json against the reference digest; a mismatch,
   a non-zero exit or an exception counts as a failed job.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`). Scratch files go to `.perfbench_work/` and span
dumps to `.perfbench_out/`, both under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends within this


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child_env(root: Path) -> dict:
    """Environment for every child: dtclust from the checkout's src, bytecode cached
    there, so set-up is timed as a user with an installed package pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["DTCLUST_LOG"] = "WARNING"
    return env


def generate_input(root: Path, env: dict, dataset: str, synth_seed: int, dest: Path) -> Path:
    spec = wl.DATASETS[dataset]
    cmd = [sys.executable, "-m", "dtclust", "synth", *spec.synth_args,
           "--seed", str(synth_seed), "--out", str(dest)]
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return dest / "data.csv"


def measure_setup(root: Path, env: dict) -> float:
    """Median wall time from process start to an imported dtclust with its parser built."""
    code = "import dtclust.cli as c; c.build_parser()"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True, timeout=30)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_worker(root: Path, env: dict, workload: str, csv: Path, work: Path, seconds: float,
               trace: int, timeout: float, spans: Path | None = None) -> dict:
    result = work / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--input", str(csv),
           "--work", str(work), "--seconds", str(seconds), "--trace", str(trace),
           "--src", str(root / "src"), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=log, stderr=log, timeout=timeout)
    if proc.returncode != 0:
        tail = (work / "worker.log").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"run process exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def failed_jobs(jobs: list[dict], reference: str) -> list[str]:
    """One line per failed job: non-zero exit, exception, or report digest mismatch."""
    out = []
    for k, job in enumerate(jobs):
        if job["error"] is not None:
            out.append(f"job {k}: raised {job['error']}")
        elif job["rc"] != 0:
            out.append(f"job {k}: exit code {job['rc']}")
        elif job["digest"] != reference:
            out.append(f"job {k}: report digest {job['digest']} != reference {reference}")
    return out


def count_mismatches(layer: list[dict], recorded: dict) -> tuple[list[str], list[str]]:
    """Exact counts that differ between traced jobs (errors), and from the recorded
    seed-code values (notes: a program change may legitimately move them)."""
    errors, notes = [], []
    for name in wl.EXACT_COUNTS:
        seen = sorted({m[name] for m in layer})
        if len(seen) > 1:
            errors.append(f"{name} differs between traced jobs: {seen}")
        elif seen and name in recorded and seen[0] != recorded[name]:
            notes.append(f"{name} = {seen[0]}, seed code recorded {recorded[name]}")
    return errors, notes


def end_to_end(outcome: dict, workload: wl.Workload, setup_s: float) -> dict:
    job_s = statistics.median(j["job_s"] for j in outcome["jobs"])
    values = {
        "job_s": job_s,
        "rows_per_s": workload.rows_per_job() / job_s,
        "peak_rss_mb": outcome["maxrss_kb"] / 1024,
        "setup_s": setup_s,
    }
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in wl.END_TO_END}


def _median(values: list):
    """Median; of whole numbers, the lower middle one, so counts stay whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer(outcome: dict) -> dict:
    jobs = outcome["jobs"]
    values = {name: _median([m[name] for m in outcome["layer"]]) for name in outcome["layer"][0]}
    values["host.calib_s"] = statistics.median(j["calib_s"] for j in jobs)
    values["trace.overhead_ratio"] = (statistics.median(j["job_s"] for j in jobs if j["traced"])
                                      / statistics.median(j["job_s"] for j in jobs if not j["traced"]))
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in wl.PER_LAYER}


def list_metrics() -> None:
    for w in wl.WORKLOADS.values():
        print(f"workload {w.name}: {w.why}")
    for m in wl.END_TO_END:
        print(f"end-to-end {m.name} [{m.unit}] better {m.better}, bound {m.bound}")
    for m in wl.PER_LAYER:
        print(f"per-layer {m.name} [{m.unit}] better {m.better}; moves {m.moves}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--list", action="store_true", help="print every metric with its unit and exit")
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    began = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "dtclust" / "cli.py").is_file():
        return fail(f"no dtclust source under {root / 'src'}; run from the root of a checkout")
    workload = wl.WORKLOADS[args.workload]
    dataset = wl.DATASETS[workload.dataset]
    synth_seed = dataset.seed_for(args.seed)
    refs = wl.load_references()
    key = str(synth_seed)
    env = child_env(root)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        csv = generate_input(root, env, workload.dataset, synth_seed, work / "input")
        digest = wl.file_sha256(csv)
        expected = refs["inputs"][workload.dataset][key]
        if digest != expected:
            return fail(f"{workload.dataset} input (synth seed {synth_seed}) has sha256 {digest}, "
                        f"pinned {expected}; the generator changed")
        setup_s = measure_setup(root, env)
        spans = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
        timeout = RUN_LIMIT_S - (time.perf_counter() - began)
        outcome = run_worker(root, env, args.workload, csv, work, args.seconds, args.trace, timeout, spans)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = outcome["jobs"]
    failures = failed_jobs(jobs, refs["reports"][args.workload][key])
    if args.trace:
        errors, notes = count_mismatches(outcome["layer"], refs["counts"][args.workload][key])
        if errors:
            return fail("exact counts do not repeat: " + "; ".join(errors))
        for note in notes:
            print(f"perfbench: note: {note}", file=sys.stderr)
        if not outcome["layer"]:
            return fail("no traced job produced a report")
        metrics = per_layer(outcome)
    else:
        metrics = end_to_end(outcome, workload, setup_s)
    for line in failures:
        print(f"perfbench: failed {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "synth_seed": synth_seed, "input_sha256": digest,
        "jobs": len(jobs), "error_rate": len(failures) / len(jobs),
        "job_s": [j["job_s"] for j in jobs], "calib_s": [j["calib_s"] for j in jobs],
        "traced": [j["traced"] for j in jobs], "setup_s": setup_s,
        "elapsed_s": time.perf_counter() - began,
    }))
    print(json.dumps({"correct": not failures, "attempted": len(jobs), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
