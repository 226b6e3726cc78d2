"""End-to-end orchestration: preprocessing plan + iterative extraction in one call."""

from __future__ import annotations

from dataclasses import dataclass, field

from .dataset import Dataset
from .extract import ClusterCandidate, extract_iterative, fbeta_score
from .preprocess import PreprocessPlan, TransformLog, apply_plan
from .rules import render_rule_text, rule_to_dict
from .tree import DecisionTree, TrainParams, impurity


@dataclass(frozen=True)
class PipelineConfig:
    """Everything extraction needs beyond the dataset itself."""

    target_class: int | str = 1
    beta: float = 0.33
    n_clusters: int = 3
    params: TrainParams = field(default_factory=TrainParams)
    plan: PreprocessPlan = field(default_factory=PreprocessPlan)

    def to_dict(self) -> dict:
        return {
            "target_class": self.target_class,
            "beta": self.beta,
            "n_clusters": self.n_clusters,
            "train_params": {
                "impurity_metric": self.params.impurity_metric,
                "max_depth": self.params.max_depth,
                "min_gain": self.params.min_gain,
                "min_samples_leaf": self.params.min_samples_leaf,
            },
            "plan": self.plan.to_dict(),
        }


@dataclass(eq=False)
class ExtractionResult:
    source: Dataset
    prepared: Dataset
    log: TransformLog
    target_class: int
    beta: float
    clusters: list[ClusterCandidate]
    trees: list[DecisionTree]


def run_extraction(ds: Dataset, config: PipelineConfig) -> ExtractionResult:
    """Apply the preprocessing plan, then extract clusters by node removal."""
    target = ds.class_code(config.target_class)
    prepared, log = apply_plan(ds, config.plan, target)
    outcome = extract_iterative(
        prepared,
        config.params,
        target,
        beta=config.beta,
        n_clusters=config.n_clusters,
        transform_log=log,
    )
    return ExtractionResult(ds, prepared, log, target, config.beta, outcome.clusters, outcome.trees)


def cluster_record(cand: ClusterCandidate, result: ExtractionResult) -> dict:
    """One cluster as a flat report row (metric columns plus the decoded rule)."""
    population = result.source.row_count
    record = {
        "tree_index": cand.tree_index,
        "node_id": cand.node_id,
        "gini_impurity": impurity([cand.fp, cand.tp], "gini") if cand.size else 0.0,
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
        "rule": rule_to_dict(cand.rule) if cand.rule is not None else None,
        "sentence": render_rule_text(
            cand.rule,
            result.source.class_names,
            precision=cand.precision,
            size=cand.size,
            share=cand.size / population,
        ) if cand.rule is not None else None,
    }
    return record
