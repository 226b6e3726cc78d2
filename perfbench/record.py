"""Record references.json from the code in the current checkout.

    python3 perfbench/record.py

For every dataset's pinned generator seeds it stores the CSV's sha256, and for
every workload the report digest and the exact counts of a traced run. The
committed file was recorded from the seed code; re-record only when a change
is meant to alter reports, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads as wl


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    work = root / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    refs = {"inputs": {}, "reports": {}, "counts": {}}
    try:
        for name, spec in wl.DATASETS.items():
            refs["inputs"][name] = {}
            for seed in spec.seeds:
                csv = run.generate_input(root, env, name, seed, work / name / str(seed))
                refs["inputs"][name][str(seed)] = wl.file_sha256(csv)
        for name, workload in wl.WORKLOADS.items():
            refs["reports"][name], refs["counts"][name] = {}, {}
            for seed in wl.DATASETS[workload.dataset].seeds:
                csv = work / workload.dataset / str(seed) / "data.csv"
                job_dir = work / "jobs"
                job_dir.mkdir(parents=True, exist_ok=True)
                outcome = run.run_worker(root, env, name, csv, job_dir, 0, 1, timeout=600)
                digests = {j["digest"] for j in outcome["jobs"] if j["rc"] == 0}
                if len(digests) != 1 or any(j["rc"] != 0 for j in outcome["jobs"]):
                    print(f"{name} seed {seed}: jobs failed or disagree: {digests}", file=sys.stderr)
                    return 1
                errors, _ = run.count_mismatches(outcome["layer"], {})
                if errors:
                    print(f"{name} seed {seed}: {errors}", file=sys.stderr)
                    return 1
                refs["reports"][name][str(seed)] = digests.pop()
                refs["counts"][name][str(seed)] = {c: outcome["layer"][0][c] for c in wl.EXACT_COUNTS}
                print(f"{name} seed {seed}: {refs['counts'][name][str(seed)]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
