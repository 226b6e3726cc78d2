"""Cluster extraction: rank tree nodes by F-beta, pick the best, remove, retrain.

Every node of a trained tree (internal nodes included) is a candidate cluster
for the target class. Candidates are scored with the F-beta measure, where
beta < 1 prefers purer groups and beta > 1 prefers larger ones. Two selection
modes exist: taking several unrelated nodes from a single tree, and the
stronger iterative mode that removes the best node's rows and retrains so the
next tree can dedicate its full depth to what remains.

A cluster is a (tree_index, node_id) pair. Its rule is not part of extraction:
linearize_rule decodes the node's root path when a report needs the rule,
reading original codes off each column's ColumnLog.code_map().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ColumnKind, Dataset
from .errors import ConfigError, DataError, InternalError
from .preprocess import ColumnLog, TransformLog
from .rules import MISSING, Bound, Predicate, RangeTest, Rule, SetTest
from .tree import DecisionTree, TrainParams, TreeNode, histogram_layout, train


def fbeta_score(precision: float, recall: float, beta: float) -> float:
    """Harmonic F-measure; recall weighted beta times as heavily as precision."""
    if not 0 < beta < math.inf:
        raise ConfigError(f"beta must be finite and > 0, got {beta}")
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


@dataclass(eq=False)
class ClusterCandidate:
    """A tree node scored as a cluster of the target class; row_ids is the node's own array."""

    node_id: int
    tree_index: int
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_beta: float
    size: int
    row_ids: np.ndarray
    recall_overall: float | None = None  # recall against the full dataset in iterative mode


def _candidate(node: TreeNode, tree_index: int, target_class: int, beta: float,
               total_in_class: int) -> ClusterCandidate:
    tp = int(node.class_counts[target_class])
    fp = node.samples - tp
    fn = total_in_class - tp
    precision = tp / node.samples
    recall = tp / total_in_class
    return ClusterCandidate(
        node_id=node.id,
        tree_index=tree_index,
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f_beta=fbeta_score(precision, recall, beta),
        size=node.samples,
        row_ids=node.rows,
    )


def rank_nodes(tree: DecisionTree, target_class: int, beta: float,
               tree_index: int = 0) -> list[ClusterCandidate]:
    """All nodes of the tree as candidates, best F-beta first (ties: smaller id)."""
    total = int(tree.root.class_counts[target_class])
    if total <= 0:
        raise DataError("tree's training data holds no rows of the target class")
    candidates = [_candidate(n, tree_index, target_class, beta, total) for n in tree.nodes]
    candidates.sort(key=lambda c: (-c.f_beta, c.node_id))
    return candidates


def select_from_single_tree(tree: DecisionTree, target_class: int, beta: float,
                            k: int = 3) -> list[ClusterCandidate]:
    """Up to k unrelated clusters from one tree.

    Greedy over the ranked list; a node is skipped when an already selected node
    lies on its root path or in its subtree, so selected clusters never nest.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    blocked: set[int] = set()
    chosen: list[ClusterCandidate] = []
    for cand in rank_nodes(tree, target_class, beta):
        if len(chosen) == k:
            break
        if cand.node_id in blocked:
            continue
        chosen.append(cand)
        blocked.add(cand.node_id)
        blocked |= tree.ancestors(cand.node_id)
        stack = [cand.node_id]
        while stack:
            node = tree.node(stack.pop())
            if node.children is not None:
                blocked.update(node.children)
                stack.extend(node.children)
    return chosen


@dataclass(eq=False)
class ExtractionOutcome:
    clusters: list[ClusterCandidate]
    trees: list[DecisionTree]


def extract_iterative(
    ds: Dataset,
    params: TrainParams,
    target_class: int,
    beta: float,
    n_clusters: int,
) -> ExtractionOutcome:
    """Extract up to n_clusters clusters by best-node removal and retraining.

    Each round trains a tree on the rows not yet claimed, takes the node with
    the highest F-beta (scored against the remaining target-class count), then
    drops that node's rows. Stops early when the data runs out or no node
    scores above zero. Row ids always refer to the full dataset.
    """
    if n_clusters < 1:
        raise ConfigError("n_clusters must be >= 1")
    if ds.labels is None:
        raise DataError("extraction requires labels")
    target_class = ds.class_code(target_class)
    total_overall = int((ds.labels == target_class).sum())

    layout = histogram_layout(ds)
    remaining = np.arange(ds.row_count)
    clusters: list[ClusterCandidate] = []
    trees: list[DecisionTree] = []
    for tree_index in range(n_clusters):
        if len(remaining) == 0:
            break
        total = int((ds.labels[remaining] == target_class).sum())
        if total == 0:
            break
        tree = train(ds, params, rows=remaining, layout=layout)
        trees.append(tree)

        cand = rank_nodes(tree, target_class, beta, tree_index)[0]
        if cand.f_beta <= 0:
            break
        cand.recall_overall = cand.tp / total_overall
        clusters.append(cand)
        remaining = np.setdiff1d(remaining, cand.row_ids, assume_unique=True)
    return ExtractionOutcome(clusters, trees)


# ---------------------------------------------------------------------------
# Rule linearization
# ---------------------------------------------------------------------------

def linearize_rule(tree: DecisionTree, node_id: int, transform_log: TransformLog,
                   target_class: int | None = None) -> Rule:
    """Decode the root-to-node path into a conjunction over original values.

    Each split on the path is tested on the column's code map
    (ColumnLog.code_map(): original code -> final code), so every attribute
    gets the set of original codes that pass all of its tests, among the codes
    its transforms can reach. Consecutive ordered conditions on one attribute
    thereby merge into a single range; set predicates flip to their complement
    when that reads shorter.
    """
    node = tree.node(node_id)
    if target_class is None:
        target_class = node.decision

    # per attribute, in path order: its log entry, its code map, and the mask of
    # original codes whose final code passes every test on the path
    decoded: dict[str, tuple[ColumnLog, np.ndarray, np.ndarray]] = {}
    for split, went_left in tree.path(node_id):
        if split.attribute not in decoded:
            entry = transform_log.for_column(split.attribute)
            final = entry.code_map()
            decoded[split.attribute] = (entry, final, np.ones(final.size, dtype=bool))
        _, final, passes = decoded[split.attribute]
        passes &= split.goes_left(final) == went_left

    predicates = []
    for attr, (entry, final, passes) in decoded.items():
        reachable = final >= 0
        reachable[0] = entry.source.has_missing
        pred = _predicate_from_codes(attr, set(np.flatnonzero(passes & reachable).tolist()),
                                     set(np.flatnonzero(reachable).tolist()), entry)
        if pred is not None:
            predicates.append(pred)
    return Rule(tuple(predicates), target_class)


def _predicate_from_codes(attr: str, allowed: set[int], reachable: set[int],
                          entry: ColumnLog) -> Predicate | None:
    # missing (0) is reachable exactly when the source column has missing cells
    universe = set(range(1, entry.source.n_values + 1)) | (reachable & {0})
    if allowed >= universe:
        return None
    if entry.source.kind in (ColumnKind.NUMERIC, ColumnKind.DATETIME):
        return _ordered_predicate(attr, allowed, reachable, entry)
    return _set_predicate(attr, allowed, universe, entry)


def _ordered_predicate(attr: str, allowed: set[int], reachable: set[int],
                       entry: ColumnLog) -> Predicate:
    source = entry.source
    codes = sorted(allowed - {0})
    if not codes:
        return SetTest(attr, (MISSING,))
    # codes unrepresentable by the transform chain (dropped empty bins) carry no
    # rows, so the interval hull absorbs them; reachable gaps would be a bug
    gaps = set(range(codes[0], codes[-1] + 1)) - allowed
    if gaps & reachable:
        raise InternalError(
            f"non-contiguous code range for ordered column {attr!r}: "
            f"reachable gap codes {sorted(gaps & reachable)}"
        )
    lo_code, hi_code = codes[0], codes[-1]

    def bound(code: int) -> Bound:
        return Bound(float(source.values[code - 1]), source.dictionary[code - 1])

    lo = bound(lo_code - 1) if lo_code > 1 else None
    hi = bound(hi_code) if hi_code < source.n_values else None
    if lo is None and hi is None:
        # every value passes: only the missing sentinel is excluded
        return SetTest(attr, (MISSING,), negated=True)
    return RangeTest(attr, lo, hi, include_missing=0 in allowed)


def _set_predicate(attr: str, allowed: set[int], universe: set[int], entry: ColumnLog) -> SetTest:
    complement = universe - allowed
    negated = len(complement) < len(allowed)
    codes = sorted(complement if negated else allowed)
    return SetTest(attr, tuple(MISSING if c == 0 else entry.source.dictionary[c - 1] for c in codes),
                   negated)
