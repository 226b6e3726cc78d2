"""End-to-end orchestration: preprocessing plan + iterative extraction in one call."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import extract
from .dataset import Dataset
from .errors import ConfigError
from .extract import ClusterCandidate, extract_iterative, fbeta_score
from .preprocess import PreprocessPlan, TransformLog, apply_plan
from .rules import render_rule_text, rule_to_dict
from .tree import DecisionTree, TrainParams, impurity


@dataclass(frozen=True)
class PipelineConfig:
    """Everything extraction needs beyond the dataset itself.

    target_class is resolved by Dataset.class_code: None, the default, means
    code 1 of a binary label and is a ConfigError with more classes, as on the
    command line. beta and n_clusters are checked when the config is built, so
    a caller fails before it reads any table; n_clusters 0 makes cli.run
    profile only, and run_extraction refuses it.
    """

    target_class: int | str | None = None
    beta: float = 0.33
    n_clusters: int = 3
    params: TrainParams = field(default_factory=TrainParams)
    plan: PreprocessPlan = field(default_factory=PreprocessPlan)

    def __post_init__(self) -> None:
        if not 0 < self.beta < math.inf:
            raise ConfigError(f"beta must be finite and > 0, got {self.beta}")
        if self.n_clusters < 0:
            raise ConfigError(f"--clusters must be >= 0, got {self.n_clusters}")

    def to_dict(self) -> dict:
        return {
            "target_class": self.target_class,
            "beta": self.beta,
            "n_clusters": self.n_clusters,
            "train_params": asdict(self.params),
            "plan": self.plan.to_dict(),
        }


@dataclass(eq=False)
class ExtractionResult:
    """One fit of the pipeline.

    source is the table passed to run_extraction, whole; the log's source
    columns are its columns, so rules render over its values. prepared holds
    the rows the fit ran on, transformed: every row of source, or with rows=
    only those rows, in that order. Trees and cluster row ids index prepared.
    Without rows they are row ids of source; with rows, row id r of prepared
    is row rows[r] of source, so a cluster's rows in source are
    rows[cluster.row_ids]. With clusters_only the trees are partial (see
    extract_iterative): they hold every cluster, but are not the whole trees.
    """

    source: Dataset
    prepared: Dataset
    log: TransformLog
    target_class: int
    beta: float
    clusters: list[ClusterCandidate]
    trees: list[DecisionTree]


def run_extraction(ds: Dataset, config: PipelineConfig, rows: np.ndarray | None = None, *,
                   clusters_only: bool = False) -> ExtractionResult:
    """Apply the preprocessing plan, then extract clusters by node removal.

    rows, when given, fit everything on those row ids of ds alone (a bagged
    sample); see ExtractionResult for what the result's row ids then mean.
    clusters_only is extract_iterative's: the same clusters from partial trees,
    for a caller that reads no tree.
    """
    target = ds.class_code(config.target_class)
    prepared, log = apply_plan(ds, config.plan, target, rows=rows)
    outcome = extract_iterative(
        prepared,
        config.params,
        target,
        beta=config.beta,
        n_clusters=config.n_clusters,
        clusters_only=clusters_only,
    )
    return ExtractionResult(ds, prepared, log, target, config.beta, outcome.clusters, outcome.trees)


def cluster_record(cand: ClusterCandidate, result: ExtractionResult) -> dict:
    """One cluster as a flat report row (metric columns plus the decoded rule)."""
    population = result.prepared.row_count
    # looked up on the module at call time, so a wrapper installed there sees every rule
    rule = extract.linearize_rule(result.trees[cand.tree_index], cand.node_id, result.log,
                                  result.target_class)
    return {
        "tree_index": cand.tree_index,
        "node_id": cand.node_id,
        "gini_impurity": impurity([cand.fp, cand.tp], "gini"),
        "size": cand.size,
        "tp": cand.tp,
        "fp": cand.fp,
        "fn": cand.fn,
        "precision": cand.precision,
        "recall": cand.recall,
        "f1": fbeta_score(cand.precision, cand.recall, 1.0),
        "f05": fbeta_score(cand.precision, cand.recall, 0.5),
        "f_beta": cand.f_beta,
        "beta": result.beta,
        "population_share": cand.size / population,
        "recall_overall": cand.recall_overall,
        "rule": rule_to_dict(rule),
        "sentence": render_rule_text(
            rule,
            result.source.class_names,
            precision=cand.precision,
            size=cand.size,
            share=cand.size / population,
        ),
    }
