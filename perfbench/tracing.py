"""Spans around the calls into each dtclust layer, recorded from outside the package.

The traced run replaces module attributes that dtclust looks up at call time
with timing wrappers and puts the originals back afterwards; nothing under
`src/` is edited. Spans live in memory as `[name, start, end, parent, job]`
lists. Counts that need extra work (distinct codes per column, cells, nodes)
are derived after each job from the inputs and results the wrappers kept, so
they add nothing to any span.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from dtclust.cli import PROFILE_CATEGORY_CAP
from dtclust.preprocess import BinningSpec, OrdinalEncoding

# (module, attribute, span name). Each attribute is the name the caller looks
# up at call time, so wrapping it in that module catches every call.
TARGETS = (
    ("dtclust.cli", "load_csv", "dataset.load_csv"),
    ("dtclust.cli", "profile", "dataset.profile"),
    ("dtclust.cli", "run_extraction", "pipeline.run_extraction"),
    ("dtclust.cli", "stability_report", "stability.stability_report"),
    ("dtclust.cli", "_write_artifacts", "cli.artifacts"),
    ("dtclust.pipeline", "apply_plan", "preprocess.apply_plan"),
    ("dtclust.pipeline", "extract_iterative", "extract.extract_iterative"),
    ("dtclust.pipeline", "run_extraction", "pipeline.run_extraction"),
    ("dtclust.extract", "train", "tree.train"),
    ("dtclust.extract", "linearize_rule", "extract.linearize_rule"),
    ("dtclust.tree", "best_split", "tree.best_split"),
    ("dtclust.stability", "draw_sample", "stability.draw_sample"),
    ("dtclust.stability", "pairwise_score", "stability.pairwise_score"),
)
ROOT = "cli.main"

# What the derived counts need from a call, by span name: (args, result) -> record.
# Split results and trees are not kept whole, which would hold every node's rows.
_KEEP = {
    "dataset.load_csv": lambda args, result: result,
    "dataset.profile": lambda args, result: result,
    "preprocess.apply_plan": lambda args, result: result[1],
    "tree.best_split": lambda args, result: (args[0], args[1], result is not None),
    "tree.train": lambda args, result: len(result.nodes),
}

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: list[tuple[str, object]] = []
        self.job = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = _KEEP.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep is not None:
                self.kept.append((name, keep(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def start_job(self, job: int) -> None:
        self.job = job
        self.kept.clear()


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                print(f"perfbench: {module_name}.{attr} not found; span {span} not recorded",
                      file=sys.stderr)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def job_metrics(spans: list[list], first: int, kept, report: dict, artifact_bytes: int) -> dict:
    """Per-layer metrics of the traced job whose spans start at index `first`."""
    own = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    sample_fits = []
    for i in range(first, len(spans)):
        s = spans[i]
        name = s[NAME]
        total[name] += s[END] - s[START]
        self_total[name] += own[i]
        calls[name] += 1
        if name == "pipeline.run_extraction" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "stability.stability_report":
            sample_fits.append(s[END] - s[START])

    cells = dictionary = categories = kept_categories = 0
    binned = reordered = 0
    split_cells = pivots = accepted = trees = nodes = 0
    for name, record in kept:
        if name == "dataset.load_csv":
            cells += record.row_count * (len(record.columns) + 1)
            dictionary += sum(len(c.dictionary) for c in record.columns)
        elif name == "dataset.profile":
            for cats in record.columns.values():
                categories += len(cats)
                kept_categories += min(len(cats), PROFILE_CATEGORY_CAP)
        elif name == "preprocess.apply_plan":
            for entry in record.entries.values():
                binned += any(isinstance(step, BinningSpec) for step in entry.steps)
                reordered += any(isinstance(step, OrdinalEncoding) for step in entry.steps)
        elif name == "tree.best_split":
            rows, ds, found = record
            split_cells += len(rows) * len(ds.columns)
            pivots += _pivots(rows, ds)
            accepted += found
        elif name == "tree.train":
            trees += 1
            nodes += record

    rules = calls["extract.linearize_rule"]
    used = sum(1 for c in report.get("clusters", []) if c.get("rule") is not None)
    return {
        "dataset.load_csv_s": total["dataset.load_csv"],
        "dataset.cells": cells,
        "dataset.dictionary_entries": dictionary,
        "dataset.profile_s": total["dataset.profile"],
        "dataset.profile_categories": categories,
        "dataset.profile_kept_ratio": kept_categories / categories if categories else 0.0,
        "preprocess.apply_plan_s": total["preprocess.apply_plan"],
        "preprocess.apply_plan_calls": calls["preprocess.apply_plan"],
        "preprocess.columns_binned": binned,
        "preprocess.columns_reordered": reordered,
        "pipeline.run_extraction_s": total["pipeline.run_extraction"],
        "pipeline.run_extraction_calls": calls["pipeline.run_extraction"],
        "tree.best_split_s": total["tree.best_split"],
        "tree.best_split_calls": calls["tree.best_split"],
        "tree.best_split_cells": split_cells,
        "tree.pivots_evaluated": pivots,
        "tree.split_accept_ratio": accepted / calls["tree.best_split"] if calls["tree.best_split"] else 0.0,
        "tree.train_s": total["tree.train"],
        "tree.train_self_s": self_total["tree.train"],
        "tree.trees": trees,
        "tree.nodes": nodes,
        "extract.extract_iterative_self_s": self_total["extract.extract_iterative"],
        "extract.linearize_rule_s": total["extract.linearize_rule"],
        "extract.rules_linearized": rules,
        "extract.rules_used_ratio": used / rules if rules else 0.0,
        "stability.stability_report_self_s": self_total["stability.stability_report"],
        "stability.samples": calls["stability.draw_sample"],
        "stability.sample_s": statistics.median(sample_fits) if sample_fits else 0.0,
        "stability.draw_sample_s": total["stability.draw_sample"],
        "stability.pairwise_score_s": total["stability.pairwise_score"],
        "stability.pairwise_score_calls": calls["stability.pairwise_score"],
        "cli.run_self_s": self_total[ROOT],
        "cli.artifacts_s": total["cli.artifacts"],
        "cli.artifact_bytes": artifact_bytes,
    }


def _pivots(rows, ds) -> int:
    """Candidate pivots an exhaustive search weighs: distinct codes per column in
    the node, minus one on ordered columns; a column with one code offers none."""
    out = 0
    for col in ds.columns:
        distinct = np.unique(col.codes[rows]).size
        if distinct >= 2:
            out += distinct - 1 if col.kind.is_ordered else distinct
    return out

