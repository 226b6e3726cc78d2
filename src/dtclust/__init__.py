"""Interpretable supervised clustering with iteratively retrained decision trees.

Find large, class-pure groups of rows in a labelled table and describe each one
as a short conjunction of attribute tests over the original values.
"""

from .dataset import (
    Column,
    ColumnKind,
    Dataset,
    ProfileReport,
    load_csv,
    load_features_csv,
    profile,
)
from .errors import ConfigError, DataError, DtclustError, InternalError
from .extract import (
    ClusterCandidate,
    extract_iterative,
    fbeta_score,
    linearize_rule,
    rank_nodes,
    select_from_single_tree,
)
from .pipeline import PipelineConfig, cluster_record, run_extraction
from .preprocess import (
    BinningSpec,
    ContingencyTable,
    OrdinalEncoding,
    PreprocessPlan,
    TransformLog,
    apply_plan,
    bin_column,
    build_contingency,
    encode_by_class_frequency,
    jaro_winkler,
)
from .rules import MISSING, Predicate, RangeTest, Rule, SetTest, apply_rule, render_rule_text
from .stability import StabilityParams, StabilityReport, draw_sample, pairwise_score, stability_report
from .synth import (
    HiddenGroupSpec,
    RecoveryReport,
    census_group_specs,
    census_like_features,
    evaluate_recovery,
    plant_groups,
    titanic_like,
    write_csv,
)
from .tree import DecisionTree, Split, TrainParams, TreeNode, best_split, impurity, to_dot, train

__version__ = "0.1.0"

__all__ = [
    "Column", "ColumnKind", "Dataset", "ProfileReport", "load_csv", "load_features_csv",
    "profile",
    "ConfigError", "DataError", "DtclustError", "InternalError",
    "ClusterCandidate", "extract_iterative", "fbeta_score", "linearize_rule",
    "rank_nodes", "select_from_single_tree",
    "PipelineConfig", "cluster_record", "run_extraction",
    "BinningSpec", "ContingencyTable", "OrdinalEncoding", "PreprocessPlan",
    "TransformLog", "apply_plan", "bin_column", "build_contingency",
    "encode_by_class_frequency", "jaro_winkler",
    "MISSING", "Predicate", "RangeTest", "Rule", "SetTest", "apply_rule", "render_rule_text",
    "StabilityParams", "StabilityReport", "draw_sample", "pairwise_score", "stability_report",
    "HiddenGroupSpec", "RecoveryReport", "census_group_specs", "census_like_features",
    "evaluate_recovery", "plant_groups", "titanic_like", "write_csv",
    "DecisionTree", "Split", "TrainParams", "TreeNode", "best_split", "impurity",
    "to_dot", "train",
]
