"""Cluster extraction: rank tree nodes by F-beta, pick the best, remove, retrain.

Every node of a trained tree (internal nodes included) is a candidate cluster
for the target class. Candidates are scored with the F-beta measure, where
beta < 1 prefers purer groups and beta > 1 prefers larger ones. Two selection
modes exist: taking several unrelated nodes from a single tree, and the
stronger iterative mode that removes the best node's rows and retrains so the
next tree can dedicate its full depth to what remains.

Iterative extraction can grow partial trees (clusters_only) for a caller that
reads only the clusters, as stability samples do: a node is split only while a
node below it could still beat the round's best, which keeps every round's
cluster.

A cluster is a (tree_index, node_id) pair. Its rule is not part of extraction:
linearize_rule decodes the node's root path when a report needs the rule,
reading original codes off each column's ColumnLog.code_map().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import ColumnKind, Dataset
from .errors import ConfigError, DataError, InternalError
from .preprocess import ColumnLog, TransformLog
from .rules import MISSING, Bound, Predicate, RangeTest, Rule, SetTest
from .tree import DecisionTree, TrainParams, TreeNode, histogram_layout, train


def check_beta(beta: float) -> None:
    """Raise ConfigError unless beta > 0 and beta * beta is finite, so F-beta is never NaN."""
    if not (beta > 0 and math.isfinite(beta * beta)):
        raise ConfigError(f"beta must be finite and > 0, with beta*beta finite, got {beta}")


def fbeta_score(precision: float, recall: float, beta: float) -> float:
    """Harmonic F-measure; recall weighted beta times as heavily as precision."""
    check_beta(beta)
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


@dataclass(eq=False)
class ClusterCandidate:
    """A tree node scored as a cluster of the target class.

    row_ids is the node's rows, a view of its tree's one row order: ascending
    for a leaf, in partition order for an internal node. A leaf of a partial
    tree (extract_iterative's clusters_only) may be internal in the whole tree,
    so only the set of rows is the same in both.
    """

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


class _RoundBest:
    """F-beta's exact order on one round's nodes, and the round's best node.

    With beta = a / c, a node holding tp of the round's total target rows among
    size rows has F-beta (a^2 + c^2) tp / (a^2 total + c^2 size), so nodes
    order as the integer ratio tp / denominator(size).

    offer(node) keeps the best node offered so far, ties to the earlier one,
    and is train's opens hook: a node opens only when some node below it could
    still beat that best. A descendant holds at most the node's tp target rows
    among at least as many rows, so its ratio is at most tp / denominator(tp).
    The round's winner keeps its rows and its place: each of its ancestors has
    a bound of at least its F-beta and every earlier node a smaller one, and a
    node whose bound only ties the best has no descendant that could win the
    tie, which goes to the earlier node.
    """

    def __init__(self, target_class: int, beta: float, total: int) -> None:
        a, c = float(beta).as_integer_ratio()
        self._target, self._base, self._c2 = target_class, a * a * total, c * c
        self.node: TreeNode | None = None
        self._tp, self._denom = 0, 1  # the best node's ratio

    def denominator(self, size: int) -> int:
        return self._base + self._c2 * size

    def offer(self, node: TreeNode) -> bool:
        tp = int(node.class_counts[self._target])
        denom = self.denominator(node.samples)
        if tp * self._denom > self._tp * denom:
            self.node, self._tp, self._denom = node, tp, denom
        return tp * self._denom > self._tp * self.denominator(tp)


def rank_nodes(tree: DecisionTree, target_class: int, beta: float,
               tree_index: int = 0) -> list[ClusterCandidate]:
    """All nodes of the tree as candidates, best exact F-beta first (ties: smaller id)."""
    total = int(tree.root.class_counts[target_class])
    if total <= 0:
        raise DataError("tree's training data holds no rows of the target class")
    order = _RoundBest(target_class, beta, total)

    def key(node: TreeNode) -> tuple[Fraction, int]:
        tp = int(node.class_counts[target_class])
        return -Fraction(tp, order.denominator(node.samples)), node.id

    return [_candidate(n, tree_index, target_class, beta, total)
            for n in sorted(tree.nodes, key=key)]


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
    """The rounds' clusters, and the tree each round trained. With
    clusters_only, a tree is the whole tree cut below every node under which
    no node could win its round."""

    clusters: list[ClusterCandidate]
    trees: list[DecisionTree]


def extract_iterative(
    ds: Dataset,
    params: TrainParams,
    target_class: int,
    beta: float,
    n_clusters: int,
    *,
    clusters_only: bool = False,
) -> ExtractionOutcome:
    """Extract up to n_clusters clusters by best-node removal and retraining.

    Each round trains a tree on the rows not yet claimed, takes the node with
    the highest exact F-beta (scored against the remaining target-class count,
    ties to the smaller id), then drops that node's rows. Stops early when no
    target-class rows are left. Row ids always refer to the full dataset.

    clusters_only grows each tree only below nodes that can still beat the best
    node made so far (_RoundBest.offer): the clusters, rows and scores are
    those of whole trees, while the trees are partial and node ids differ from
    a whole tree's. A caller that reads only the clusters' rows sets it.
    """
    if n_clusters < 1:
        raise ConfigError("n_clusters must be >= 1")
    if ds.labels is None:
        raise DataError("extraction requires labels")
    target_class = ds.class_code(target_class)
    total_overall = int((ds.labels == target_class).sum())

    layout = histogram_layout(ds)
    unclaimed = np.ones(ds.row_count, dtype=bool)
    clusters: list[ClusterCandidate] = []
    trees: list[DecisionTree] = []
    for tree_index in range(n_clusters):
        remaining = np.flatnonzero(unclaimed)
        total = int((ds.labels[remaining] == target_class).sum())
        if total == 0:
            break
        best = _RoundBest(target_class, beta, total)
        tree = train(ds, params, rows=remaining, layout=layout,
                     opens=best.offer if clusters_only else None)
        trees.append(tree)
        if not clusters_only:
            for node in tree.nodes:
                best.offer(node)

        cand = _candidate(best.node, tree_index, target_class, beta, total)
        cand.recall_overall = cand.tp / total_overall
        clusters.append(cand)
        unclaimed[cand.row_ids] = False
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
        pred = _predicate_from_codes(attr, passes & reachable, reachable, entry)
        if pred is not None:
            predicates.append(pred)
    return Rule(tuple(predicates), target_class)


def _predicate_from_codes(attr: str, allowed: np.ndarray, reachable: np.ndarray,
                          entry: ColumnLog) -> Predicate | None:
    """The test on one attribute that passes the allowed original codes, or None
    when it passes every code. allowed and reachable are masks over the original
    codes 0..n_values: the codes that pass the path's tests, and those the
    column's transforms can reach (missing, 0, exactly when the source column
    has missing cells); allowed is within reachable."""
    # the universe is every value, and missing when it is reachable
    outside = ~allowed
    outside[0] &= reachable[0]
    if not outside.any():
        return None
    if entry.source.kind in (ColumnKind.NUMERIC, ColumnKind.DATETIME):
        return _ordered_predicate(attr, allowed, reachable, entry)
    return _set_predicate(attr, allowed, outside, entry)


def _ordered_predicate(attr: str, allowed: np.ndarray, reachable: np.ndarray,
                       entry: ColumnLog) -> Predicate:
    source = entry.source
    codes = np.flatnonzero(allowed[1:]) + 1
    if not codes.size:
        return SetTest(attr, (MISSING,))
    lo_code, hi_code = int(codes[0]), int(codes[-1])
    # codes unrepresentable by the transform chain (dropped empty bins) carry no
    # rows, so the interval hull absorbs them; reachable gaps would be a bug
    gaps = np.flatnonzero(reachable[lo_code:hi_code + 1] & ~allowed[lo_code:hi_code + 1])
    if gaps.size:
        raise InternalError(
            f"non-contiguous code range for ordered column {attr!r}: "
            f"reachable gap codes {(gaps + lo_code).tolist()}"
        )

    def bound(code: int) -> Bound:
        return Bound(float(source.values[code - 1]), source.dictionary[code - 1])

    lo = bound(lo_code - 1) if lo_code > 1 else None
    hi = bound(hi_code) if hi_code < source.n_values else None
    if lo is None and hi is None:
        # every value passes: only the missing sentinel is excluded
        return SetTest(attr, (MISSING,), negated=True)
    return RangeTest(attr, lo, hi, include_missing=bool(allowed[0]))


def _set_predicate(attr: str, allowed: np.ndarray, complement: np.ndarray,
                   entry: ColumnLog) -> SetTest:
    allowed_codes, complement_codes = np.flatnonzero(allowed), np.flatnonzero(complement)
    negated = complement_codes.size < allowed_codes.size
    codes = (complement_codes if negated else allowed_codes).tolist()
    return SetTest(attr, tuple(MISSING if c == 0 else entry.source.dictionary[c - 1] for c in codes),
                   negated)
