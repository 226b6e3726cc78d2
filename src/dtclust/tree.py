"""Binary CART-style decision trees over encoded datasets.

Splits are found by exhaustive search: every column, every code present in the
node's rows as a pivot. Ordered columns (numeric, datetime, symbolic-ordinal)
test x <= pivot vs x > pivot; nominal columns (symbolic-nominal, boolean) test
x = pivot vs x != pivot. The missing sentinel 0 takes part like any other code:
it sorts below all values and forms its own category.

Training is deterministic: ties between equal-gain splits resolve to the lower
column index, then the lower pivot code; majority ties at leaves resolve to the
lowest class code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError

_METRICS = ("gini", "entropy")


@dataclass(frozen=True)
class TrainParams:
    """Knobs for tree growth; defaults give a depth-5 tree with no pruning threshold."""

    impurity_metric: str = "gini"
    max_depth: int = 5
    min_gain: float = 0.0
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.impurity_metric not in _METRICS:
            raise ConfigError(f"impurity_metric must be one of {_METRICS}")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.min_gain < 0:
            raise ConfigError("min_gain must be >= 0")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")


@dataclass(frozen=True, eq=False)
class Split:
    gain: float
    pivot: int
    attribute: str
    column_index: int
    ordinal: bool
    left_rows: np.ndarray
    right_rows: np.ndarray

    def test_text(self, ds: Dataset) -> str:
        op = "<=" if self.ordinal else "="
        return f"{self.attribute} {op} {ds.column(self.attribute).decode(self.pivot)}"


@dataclass(eq=False)
class TreeNode:
    id: int
    depth: int
    rows: np.ndarray
    class_counts: np.ndarray
    impurity: float
    decision: int
    parent: int | None
    split: Split | None = None
    children: tuple[int, int] | None = None

    @property
    def samples(self) -> int:
        return len(self.rows)

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass(eq=False)
class DecisionTree:
    nodes: list[TreeNode]
    params: TrainParams

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes if n.is_leaf]

    def ancestors(self, node_id: int) -> set[int]:
        out: set[int] = set()
        parent = self.nodes[node_id].parent
        while parent is not None:
            out.add(parent)
            parent = self.nodes[parent].parent
        return out

    def path(self, node_id: int) -> list[tuple[Split, bool]]:
        """(split, went_left) pairs from the root down to node_id."""
        chain: list[int] = [node_id]
        while self.nodes[chain[-1]].parent is not None:
            chain.append(self.nodes[chain[-1]].parent)
        chain.reverse()
        steps = []
        for here, there in zip(chain, chain[1:]):
            node = self.nodes[here]
            steps.append((node.split, there == node.children[0]))
        return steps

    def to_dict(self) -> dict:
        out = []
        for n in self.nodes:
            rec: dict = {
                "id": n.id,
                "depth": n.depth,
                "samples": n.samples,
                "class_counts": [int(c) for c in n.class_counts],
                "impurity": float(n.impurity),
                "decision": int(n.decision),
                "parent": n.parent,
            }
            if n.split is not None:
                rec["split"] = {
                    "attribute": n.split.attribute,
                    "pivot": int(n.split.pivot),
                    "ordinal": n.split.ordinal,
                    "gain": float(n.split.gain),
                    "children": list(n.children),
                }
            out.append(rec)
        return {"impurity_metric": self.params.impurity_metric, "nodes": out}


# ---------------------------------------------------------------------------
# Impurity
# ---------------------------------------------------------------------------

def impurity(class_counts, metric: str = "gini") -> float:
    """Gini index or entropy (log base 2) of a class-count vector; 0 when pure."""
    counts = np.asarray(class_counts, dtype=np.float64)
    n = counts.sum()
    if counts.size == 0 or n <= 0:
        raise DataError("impurity of an empty node is undefined")
    p = counts / n
    if metric == "gini":
        return float(1.0 - (p ** 2).sum())
    if metric == "entropy":
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum())
    raise ConfigError(f"unknown impurity metric {metric!r}")


def split_gain(parent_counts, left_counts, right_counts, metric: str = "gini") -> float:
    """Impurity decrease of a split: imp(parent) - weighted mean of child impurities."""
    parent = np.asarray(parent_counts, dtype=np.float64)
    left = np.asarray(left_counts, dtype=np.float64)
    right = np.asarray(right_counts, dtype=np.float64)
    if not np.array_equal(left + right, parent):
        raise DataError("left + right counts must equal parent counts")
    n, nl, nr = parent.sum(), left.sum(), right.sum()
    return float(
        impurity(parent, metric)
        - (nl / n) * impurity(left, metric)
        - (nr / n) * impurity(right, metric)
    )


def _impurity_matrix(counts: np.ndarray, totals: np.ndarray, metric: str) -> np.ndarray:
    """Row-wise impurity for a (candidates x classes) count matrix."""
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / totals[:, None]
    if metric == "gini":
        return 1.0 - (p ** 2).sum(axis=1)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -(p * logs).sum(axis=1)


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

def best_split(rows: np.ndarray, ds: Dataset, params: TrainParams) -> Split | None:
    """Exhaustive best split of the given rows, or None when no gain beats min_gain.

    Scans every column and every code present in the rows as a pivot; keeps the
    strictly best gain, so equal-gain ties go to the earliest column and the
    lowest pivot.
    """
    y = ds.labels[rows]
    n = len(rows)
    n_classes = ds.n_classes
    parent_counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    parent_imp = impurity(parent_counts, params.impurity_metric)

    best: tuple[float, int, int] | None = None  # gain, column index, pivot
    for ci, col in enumerate(ds.columns):
        found = _best_pivot(
            col.codes[rows], y, n_classes, col.kind.is_ordered,
            params, parent_imp, parent_counts,
        )
        if found is None:
            continue
        gain, pivot = found
        if gain > params.min_gain and (best is None or gain > best[0]):
            best = (gain, ci, pivot)

    if best is None:
        return None
    gain, ci, pivot = best
    col = ds.columns[ci]
    if col.kind.is_ordered:
        mask = col.codes[rows] <= pivot
    else:
        mask = col.codes[rows] == pivot
    return Split(gain, pivot, col.name, ci, col.kind.is_ordered, rows[mask], rows[~mask])


def _best_pivot(codes, y, n_classes, ordinal, params, parent_imp, parent_counts):
    uniq, inv = np.unique(codes, return_inverse=True)
    if uniq.size < 2:
        return None
    cnt = np.bincount(inv * n_classes + y, minlength=uniq.size * n_classes)
    cnt = cnt.reshape(uniq.size, n_classes).astype(np.float64)

    if ordinal:
        left = np.cumsum(cnt, axis=0)[:-1]
        pivots = uniq[:-1]
    else:
        left = cnt
        pivots = uniq
    right = parent_counts[None, :] - left
    n_left = left.sum(axis=1)
    n_right = len(y) - n_left

    msl = params.min_samples_leaf
    valid = (n_left >= msl) & (n_right >= msl)
    if not valid.any():
        return None

    imp_left = _impurity_matrix(left, n_left, params.impurity_metric)
    imp_right = _impurity_matrix(right, n_right, params.impurity_metric)
    gains = parent_imp - (n_left * imp_left + n_right * imp_right) / len(y)
    gains[~valid] = -np.inf

    best = int(np.argmax(gains))  # first maximum -> lowest pivot on ties
    return float(gains[best]), int(pivots[best])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(ds: Dataset, params: TrainParams = TrainParams(), rows: np.ndarray | None = None) -> DecisionTree:
    """Grow a tree by recursive best-split search, breadth-first node ids.

    rows restricts training to a subset of the dataset (used by iterative
    extraction); node row ids always refer to the full dataset.
    """
    if ds.labels is None:
        raise DataError("training requires a labelled dataset")
    if rows is None:
        rows = np.arange(ds.row_count)
    if len(rows) == 0:
        raise DataError("cannot train on an empty dataset")

    n_classes = ds.n_classes
    metric = params.impurity_metric
    nodes: list[TreeNode] = []

    def make_node(node_rows: np.ndarray, depth: int, parent: int | None) -> TreeNode:
        counts = np.bincount(ds.labels[node_rows], minlength=n_classes)
        node = TreeNode(
            id=len(nodes),
            depth=depth,
            rows=node_rows,
            class_counts=counts,
            impurity=impurity(counts, metric),
            decision=int(np.argmax(counts)),
            parent=parent,
        )
        nodes.append(node)
        return node

    queue = [make_node(rows, 0, None)]
    while queue:
        node = queue.pop(0)
        if node.depth >= params.max_depth:
            continue
        if node.samples < 2 * params.min_samples_leaf or node.impurity == 0.0:
            continue
        split = best_split(node.rows, ds, params)
        if split is None:
            continue
        node.split = split
        left = make_node(split.left_rows, node.depth + 1, node.id)
        right = make_node(split.right_rows, node.depth + 1, node.id)
        node.children = (left.id, right.id)
        queue.extend((left, right))

    return DecisionTree(nodes, params)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _dot_escape(text: str) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\r", "").replace("\n", "\\n")


def to_dot(tree: DecisionTree, ds: Dataset, highlight: set[int] | None = None) -> str:
    """Render the tree as a DOT digraph; highlighted node ids are filled."""
    highlight = highlight or set()
    lines = [
        "digraph decision_tree {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for node in tree.nodes:
        parts = [f"id={node.id}"]
        if node.split is not None:
            parts.append(node.split.test_text(ds))
        parts.append(f"impurity={node.impurity:.4f}")
        parts.append(f"samples={node.samples}")
        parts.append(f"decision={ds.class_names[node.decision]}")
        label = "\\n".join(_dot_escape(p) for p in parts)
        style = ', style=filled, fillcolor="gold"' if node.id in highlight else ""
        lines.append(f'  n{node.id} [label="{label}"{style}];')
    for node in tree.nodes:
        if node.children is not None:
            left, right = node.children
            lines.append(f'  n{node.id} -> n{left} [label="true"];')
            lines.append(f'  n{node.id} -> n{right} [label="false"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
