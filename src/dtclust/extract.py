"""Cluster extraction: rank tree nodes by F-beta, pick the best, remove, retrain.

Every node of a trained tree (internal nodes included) is a candidate cluster
for the target class. Candidates are scored with the F-beta measure, where
beta < 1 prefers purer groups and beta > 1 prefers larger ones. Two selection
modes exist: taking several unrelated nodes from a single tree, and the
stronger iterative mode that removes the best node's rows and retrains so the
next tree can dedicate its full depth to what remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ColumnKind, Dataset
from .errors import ConfigError, DataError
from .preprocess import BinningSpec, OrdinalEncoding, TransformLog, ColumnLog
from .rules import MISSING, Bound, Interval, Predicate, Rule
from .tree import DecisionTree, TrainParams, TreeNode, train


def fbeta_score(precision: float, recall: float, beta: float) -> float:
    """Harmonic F-measure; recall weighted beta times as heavily as precision."""
    if beta <= 0:
        raise ConfigError("beta must be > 0")
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


@dataclass(eq=False)
class ClusterCandidate:
    """A tree node scored as a cluster of the target class."""

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
    rule: Rule | None = None
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
    beta: float = 0.33,
    n_clusters: int = 3,
    transform_log: TransformLog | None = None,
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

    remaining = np.arange(ds.row_count)
    clusters: list[ClusterCandidate] = []
    trees: list[DecisionTree] = []
    for tree_index in range(n_clusters):
        if len(remaining) == 0:
            break
        total = int((ds.labels[remaining] == target_class).sum())
        if total == 0:
            break
        tree = train(ds, params, rows=remaining)
        trees.append(tree)

        cand = rank_nodes(tree, target_class, beta, tree_index)[0]
        if cand.f_beta <= 0:
            break
        cand.recall_overall = cand.tp / total_overall if total_overall else 0.0
        if transform_log is not None:
            cand.rule = linearize_rule(tree, cand.node_id, transform_log, target_class)
        clusters.append(cand)
        remaining = np.setdiff1d(remaining, cand.row_ids, assume_unique=True)
    return ExtractionOutcome(clusters, trees)


# ---------------------------------------------------------------------------
# Rule linearization
# ---------------------------------------------------------------------------

def linearize_rule(tree: DecisionTree, node_id: int, transform_log: TransformLog,
                   target_class: int | None = None) -> Rule:
    """Decode the root-to-node path into a conjunction over original values.

    Consecutive ordered conditions on one attribute merge into a single range
    of codes; code ranges are pushed back through recorded reorderings and
    binnings to reach original values. Set predicates flip to their complement
    when that reads shorter.
    """
    node = tree.node(node_id)
    if target_class is None:
        target_class = node.decision

    order: list[str] = []
    ordinal_bounds: dict[str, list[float]] = {}
    nominal_tests: dict[str, dict] = {}
    for split, went_left in tree.path(node_id):
        attr = split.attribute
        if attr not in order:
            order.append(attr)
        if split.ordinal:
            lo, hi = ordinal_bounds.get(attr, [-1, np.inf])
            if went_left:
                hi = min(hi, split.pivot)
            else:
                lo = max(lo, split.pivot)
            ordinal_bounds[attr] = [lo, hi]
        else:
            entry = nominal_tests.setdefault(attr, {"eq": None, "ne": set()})
            if went_left:
                entry["eq"] = split.pivot
            else:
                entry["ne"].add(split.pivot)

    predicates = []
    for attr in order:
        entry = transform_log.for_column(attr)
        universe = _final_universe(entry)
        if attr in ordinal_bounds:
            lo, hi = ordinal_bounds[attr]
            allowed = {c for c in universe if lo < c <= hi}
        else:
            tests = nominal_tests[attr]
            if tests["eq"] is not None:
                allowed = {tests["eq"]}
            else:
                allowed = universe - tests["ne"]
        allowed = _invert_transforms(allowed, entry)
        reachable = _invert_transforms(universe, entry)
        pred = _predicate_from_codes(attr, allowed, reachable, entry)
        if pred is not None:
            predicates.append(pred)
    return Rule(tuple(predicates), target_class)


def _final_universe(entry: ColumnLog) -> set[int]:
    m = len(entry.original_dictionary)
    for step in entry.steps:
        if isinstance(step, BinningSpec):
            m = len(step.bins)
    codes = set(range(1, m + 1))
    if entry.had_missing:
        codes.add(0)
    return codes


def _invert_transforms(allowed: set[int], entry: ColumnLog) -> set[int]:
    for step in reversed(entry.steps):
        keep_missing = 0 in allowed
        if isinstance(step, OrdinalEncoding):
            allowed = {old for old, new in enumerate(step.permutation) if new in allowed and old != 0}
        else:
            members = step.member_map()
            allowed = {c for b in allowed if b != 0 for c in members.get(b, ())}
        if keep_missing:
            allowed.add(0)
    return allowed


def _predicate_from_codes(attr: str, allowed: set[int], reachable: set[int],
                          entry: ColumnLog) -> Predicate | None:
    m = len(entry.original_dictionary)
    universe = set(range(1, m + 1)) | ({0} if entry.had_missing else set())
    if allowed >= universe:
        return None
    kind = entry.original_kind
    if kind in (ColumnKind.NUMERIC, ColumnKind.DATETIME):
        return _ordered_predicate(attr, allowed, reachable, entry)
    return _set_predicate(attr, allowed, universe, entry)


def _ordered_predicate(attr: str, allowed: set[int], reachable: set[int],
                       entry: ColumnLog) -> Predicate:
    m = len(entry.original_dictionary)
    include_missing = 0 in allowed and entry.had_missing
    codes = sorted(allowed - {0})
    if not codes:
        return Predicate(attr, "==", MISSING)
    # codes unrepresentable by the transform chain (dropped empty bins) carry no
    # rows, so the interval hull absorbs them; reachable gaps would be a bug
    gaps = set(range(codes[0], codes[-1] + 1)) - allowed
    if gaps & reachable:
        raise AssertionError(f"non-contiguous code range for ordered column {attr!r}")
    lo_code, hi_code = codes[0], codes[-1]

    def bound(code: int) -> Bound:
        return Bound(float(entry.original_values[code - 1]), entry.original_dictionary[code - 1])

    lo = bound(lo_code - 1) if lo_code > 1 else None
    hi = bound(hi_code) if hi_code < m else None
    if lo is None and hi is None:
        # only the missing sentinel is excluded (or included alone with values)
        return Predicate(attr, "not_in", (MISSING,))
    if lo is None:
        return Predicate(attr, "<=", hi, include_missing=include_missing)
    if hi is None:
        return Predicate(attr, ">", lo, include_missing=include_missing)
    return Predicate(attr, "in", Interval(lo, hi), include_missing=include_missing)


def _set_predicate(attr: str, allowed: set[int], universe: set[int], entry: ColumnLog) -> Predicate:
    def texts(codes: set[int]) -> tuple:
        ordered = sorted(codes)
        return tuple(MISSING if c == 0 else entry.original_dictionary[c - 1] for c in ordered)

    complement = universe - allowed
    if len(complement) < len(allowed):
        values = texts(complement)
        return Predicate(attr, "!=", values[0]) if len(values) == 1 else Predicate(attr, "not_in", values)
    values = texts(allowed)
    return Predicate(attr, "==", values[0]) if len(values) == 1 else Predicate(attr, "in", values)
