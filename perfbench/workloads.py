"""Workloads, metric definitions and the correctness references of the benchmark.

Each workload is one `dtclust` CLI job run repeatedly on one generated CSV.
The benchmark's `--seed` picks one of a few pinned generator seeds per dataset,
so every seed maps to an input whose sha256 and reference report digest were
recorded from the seed code (see `references.json` and `record.py`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


@dataclass(frozen=True)
class DatasetSpec:
    """A CSV made by `dtclust synth`; `seeds` are the pinned generator seeds."""

    synth_args: tuple[str, ...]
    rows: int
    seeds: tuple[int, ...]

    def seed_for(self, bench_seed: int) -> int:
        return self.seeds[bench_seed % len(self.seeds)]


DATASETS = {
    "census": DatasetSpec(("--generate", "census", "--rows", "32561"), 32561, (7, 8, 9)),
}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    argv: tuple[str, ...]
    why: str
    samples: int = 0
    fraction: float = 0.0

    def rows_per_job(self) -> int:
        """Rows fitted by one job: the full table once, plus each bagged sample."""
        n = DATASETS[self.dataset].rows
        return n + self.samples * math.ceil(self.fraction * n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census-extract", "census",
            ("extract", "--label", "label", "--class", "yes"),
            "first command on a census-sized table: ingest and profile of ~93k categories "
            "dominate; split search runs on unbinned columns with up to 32.5k codes",
        ),
        Workload(
            "census-stability", "census",
            ("stability", "--label", "label", "--class", "yes", "--bins", "16",
             "--samples", "20", "--fraction", "0.8", "--seed", "3"),
            "21 pipeline fits on ~26k rows with <=16 codes per column: split search on "
            "big nodes, a binning refit per sample and pairwise Jaccard scoring",
            samples=20, fraction=0.8,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only
    moves: str = ""  # per-layer: which end-to-end metric it should move, on which workload


END_TO_END = (
    Metric("job_s", "s", "lower", 0.25),
    Metric("rows_per_s", "rows/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)

_INGEST = "job_s, rows_per_s, peak_rss_mb on census-extract"
_PROFILE = "job_s on census-extract"
_PREP = "job_s on census-stability"
_PIPE = "job_s on census-stability"
_SPLIT = "job_s, rows_per_s on census-stability"
_TRAIN = "job_s on census-stability"
_EXTRACT = "job_s on census-stability"
_STAB = "job_s on census-stability"
_CLI = "job_s on census-extract and census-stability"
_DIAG = "none (diagnostic)"

PER_LAYER = (
    Metric("dataset.load_csv_s", "s", "lower", moves=_INGEST),
    Metric("dataset.cells", "count", "lower", moves=_INGEST),
    Metric("dataset.dictionary_entries", "count", "lower", moves=_INGEST),
    Metric("dataset.profile_s", "s", "lower", moves=_PROFILE),
    Metric("dataset.profile_categories", "count", "lower", moves=_PROFILE),
    Metric("dataset.profile_kept_ratio", "ratio", "higher", moves=_PROFILE),
    Metric("preprocess.apply_plan_s", "s", "lower", moves=_PREP),
    Metric("preprocess.apply_plan_calls", "count", "lower", moves=_PREP),
    Metric("preprocess.columns_binned", "count", "lower", moves=_PREP),
    Metric("preprocess.columns_reordered", "count", "lower", moves=_PREP),
    Metric("pipeline.run_extraction_s", "s", "lower", moves=_PIPE),
    Metric("pipeline.run_extraction_calls", "count", "lower", moves=_PIPE),
    Metric("tree.best_split_s", "s", "lower", moves=_SPLIT),
    Metric("tree.best_split_calls", "count", "lower", moves=_SPLIT),
    Metric("tree.best_split_cells", "count", "lower", moves=_SPLIT),
    Metric("tree.pivots_evaluated", "count", "lower", moves=_SPLIT),
    Metric("tree.split_accept_ratio", "ratio", "higher", moves=_SPLIT),
    Metric("tree.train_s", "s", "lower", moves=_TRAIN),
    Metric("tree.train_self_s", "s", "lower", moves=_TRAIN),
    Metric("tree.trees", "count", "lower", moves=_TRAIN),
    Metric("tree.nodes", "count", "lower", moves=_TRAIN),
    Metric("extract.extract_iterative_self_s", "s", "lower", moves=_EXTRACT),
    Metric("extract.linearize_rule_s", "s", "lower", moves=_EXTRACT),
    Metric("extract.rules_linearized", "count", "lower", moves=_EXTRACT),
    Metric("extract.rules_used_ratio", "ratio", "higher", moves=_EXTRACT),
    Metric("stability.stability_report_self_s", "s", "lower", moves=_STAB),
    Metric("stability.samples", "count", "lower", moves=_STAB),
    Metric("stability.sample_s", "s", "lower", moves=_STAB),
    Metric("stability.draw_sample_s", "s", "lower", moves=_STAB),
    Metric("stability.pairwise_score_s", "s", "lower", moves=_STAB),
    Metric("stability.pairwise_score_calls", "count", "lower", moves=_STAB),
    Metric("cli.run_self_s", "s", "lower", moves=_CLI),
    Metric("cli.artifacts_s", "s", "lower", moves=_CLI),
    Metric("cli.artifact_bytes", "bytes", "lower", moves=_CLI),
    Metric("host.calib_s", "s", "lower", moves=_DIAG),
    Metric("trace.overhead_ratio", "ratio", "lower", moves=_DIAG),
)

# Counts that must read the same on every traced job of the same input.
EXACT_COUNTS = (
    "tree.best_split_calls",
    "tree.pivots_evaluated",
    "tree.nodes",
    "extract.rules_linearized",
    "dataset.profile_categories",
)


def report_digest(report_text: str) -> str:
    """sha256 of a report.json without `schema_version` and the `config` echo."""
    doc = json.loads(report_text)
    doc.pop("schema_version", None)
    doc.pop("config", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)
