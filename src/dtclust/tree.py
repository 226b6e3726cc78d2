"""Binary CART-style decision trees over encoded datasets.

Splits are found by exhaustive search: every column, every code present in the
node's rows as a pivot. Ordered columns (numeric, datetime, symbolic-ordinal)
test x <= pivot vs x > pivot; nominal columns (symbolic-nominal, boolean) test
x = pivot vs x != pivot. The missing sentinel 0 takes part like any other code:
it sorts below all values and forms its own category.

Search needs no sort: codes are dense integers 0..n_values, so one bincount
over per-dataset keys gives a node's class histogram over a group of columns'
codes at once, and a cumulative sum per column gives the ordered splits' left
sides. Columns with more codes than the table has rows get a group of their
own, which bounds a histogram's memory.

Trees grow level by level, and best_split searches each open node. A group
keeps the histograms of a level's nodes while they hold no more counts than
the table has rows. For such a group, one bincount per level counts the
smaller child of every split made on the level above, each larger child's
histogram is its parent's minus its sibling's, and best_split is handed the
node's histogram instead of counting it. A wide group, whose histogram for
even one node would outsize the table, keeps none, nor does a group on a level
with more nodes than it keeps histograms for: there best_split counts the
node's own. Either way only the codes present in the node are scored.

Scoring runs class by class. Each step (gathering the present codes, the
cumulative sums, left and right counts, each side's impurity, the gain) works
on one contiguous row of candidates per class, never on a (candidates x
classes) matrix, whose strided gathers, cumsums and row sums cost several
times more. The summation-order contract: _class_sum adds the class terms of
an impurity in the order numpy sums a (candidates x classes) row, in sequence
below 8 classes and pairwise from 8 on, so the gains keep the bits of that
matrix form and reports stay byte-identical. Node impurities go through
impurity() as before.

Training is deterministic: ties between equal-gain splits resolve to the lower
column index, then the lower pivot code; majority ties at leaves resolve to the
lowest class code. Node ids are breadth-first.
"""

from __future__ import annotations

import math
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
        if not 0 <= self.min_gain < math.inf:
            raise ConfigError(f"min_gain must be finite and >= 0, got {self.min_gain}")
        if self.min_samples_leaf < 1:
            raise ConfigError("min_samples_leaf must be >= 1")


@dataclass(frozen=True, eq=False)
class Split:
    """A node's test; the rows it sends each way are the children's rows."""

    gain: float
    pivot: int
    attribute: str
    column_index: int
    ordinal: bool

    def goes_left(self, codes: np.ndarray) -> np.ndarray:
        """Mask of the codes that pass the test: x <= pivot, or x = pivot when nominal."""
        return codes <= self.pivot if self.ordinal else codes == self.pivot

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

    def _chain(self, node_id: int) -> list[int]:
        """node_id, its parent, and so on up to the root."""
        chain = [node_id]
        while self.nodes[chain[-1]].parent is not None:
            chain.append(self.nodes[chain[-1]].parent)
        return chain

    def ancestors(self, node_id: int) -> set[int]:
        return set(self._chain(node_id)[1:])

    def path(self, node_id: int) -> list[tuple[Split, bool]]:
        """(split, went_left) pairs from the root down to node_id."""
        chain = self._chain(node_id)[::-1]
        return [(self.nodes[here].split, there == self.nodes[here].children[0])
                for here, there in zip(chain, chain[1:])]

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


def _class_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Candidate-wise sum of per-class rows, bit for bit as numpy sums a
    (candidates x classes) matrix along its classes: in sequence below 8
    classes, by numpy's own pairwise reduction from 8 on."""
    if len(terms) < 8:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    return np.stack(terms, axis=1).sum(axis=1)


def _side_impurity(counts: list[np.ndarray], totals: np.ndarray, metric: str) -> np.ndarray:
    """Impurity of each candidate's side from its per-class count rows."""
    ps = [row / totals for row in counts]
    if metric == "gini":
        return 1.0 - _class_sum([p * p for p in ps])
    return -_class_sum([p * np.log2(np.where(p > 0, p, 1.0)) for p in ps])  # 0 log 0 = 0


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _HistogramGroup:
    """Consecutive columns whose class histograms come from one bincount.

    The group's bins are its columns' codes laid end to end: code c of member
    j is bin starts[j] + c. A row's key in a member is its class * n_bins +
    the bin of its code, so one bincount over a node's keys gives its
    (classes x bins) histogram.

    keys:    rows x members, the key of each row in each member.
    columns: dataset column index of each member.
    starts:  first bin of each member.
    member:  member of each bin.
    ordered: whether each member splits with <= (else with =).
    n_bins:  bins in the group, the sum of its members' code counts.
    max_nodes: the most nodes whose histograms a level keeps, so that they
             hold no more counts than the table has rows; 0 when even one
             node's would hold more (a wide group).
    """

    keys: np.ndarray
    columns: np.ndarray
    starts: np.ndarray
    member: np.ndarray
    ordered: np.ndarray
    n_bins: int
    max_nodes: int


def histogram_layout(ds: Dataset) -> tuple[_HistogramGroup, ...]:
    """The per-dataset key layout that split search counts classes with.

    Columns are packed in order into groups of at most max(largest column's
    code count, rows) bins, which bounds one node's histogram by the input's
    own size whatever the number of columns.
    """
    widths = [col.n_values + 1 for col in ds.columns]
    cap = max(max(widths, default=0), ds.row_count)
    groups: list[_HistogramGroup] = []
    members: list[int] = []
    total = 0
    for ci, width in enumerate(widths):
        if members and total + width > cap:
            groups.append(_histogram_group(ds, members))
            members, total = [], 0
        members.append(ci)
        total += width
    if members:
        groups.append(_histogram_group(ds, members))
    return tuple(groups)


def _histogram_group(ds: Dataset, members: list[int]) -> _HistogramGroup:
    cols = [ds.columns[ci] for ci in members]
    widths = np.array([col.n_values + 1 for col in cols])
    starts = np.cumsum(widths) - widths
    n_bins = int(widths.sum())
    keys = np.stack([col.codes for col in cols], axis=1).astype(np.intp)
    keys += starts
    keys += (ds.labels.astype(np.intp) * n_bins)[:, None]
    ordered = np.array([col.kind.is_ordered for col in cols])
    member = np.repeat(np.arange(len(cols)), widths)
    max_nodes = ds.row_count // (ds.n_classes * n_bins)
    return _HistogramGroup(keys, np.array(members), starts, member, ordered, n_bins, max_nodes)


def _histograms(group: _HistogramGroup, row_sets: list[np.ndarray], n_classes: int) -> np.ndarray:
    """(sets x classes x bins) class histograms of several row sets from one
    bincount: each set's keys are offset by its slot."""
    size = n_classes * group.n_bins
    keys = np.take(group.keys, np.concatenate(row_sets), axis=0)
    if len(row_sets) > 1:
        keys += np.repeat(np.arange(len(row_sets)) * size, [len(r) for r in row_sets])[:, None]
    cnt = np.bincount(keys.ravel(), minlength=len(row_sets) * size)
    return cnt.reshape(len(row_sets), n_classes, group.n_bins)


def best_split(rows: np.ndarray, ds: Dataset, params: TrainParams,
               layout: tuple[_HistogramGroup, ...] | None = None,
               hists: list[np.ndarray | None] | None = None, *,
               class_counts: np.ndarray | None = None,
               node_impurity: float | None = None) -> Split | None:
    """Exhaustive best split of the given rows, or None when no gain beats min_gain.

    Scans every column and every code present in the rows as a pivot; keeps the
    strictly best gain, so equal-gain ties go to the earliest column and the
    lowest pivot. layout is histogram_layout(ds), built here when not given.
    hists holds, per group of layout, the rows' (classes x bins) histogram when
    the caller already has it (train derives them by subtraction) and
    None for one to be counted here. class_counts and node_impurity are the
    rows' class counts and impurity, counted here when not given. Each group
    is scored class by class by _best_in_group, with gains bit-identical to a
    (candidates x classes) matrix kernel. The result is the test alone;
    Split.goes_left partitions rows by it.
    """
    if layout is None:
        layout = histogram_layout(ds)
    if hists is None:
        hists = [None] * len(layout)
    if class_counts is None:
        class_counts = np.bincount(ds.labels[rows], minlength=ds.n_classes)
    parent_counts = class_counts.astype(np.float64)
    parent_imp = impurity(parent_counts, params.impurity_metric) if node_impurity is None else node_impurity

    best: tuple[float, int, int] | None = None  # gain, column index, pivot
    for group, hist in zip(layout, hists):
        if hist is None:
            hist = _histograms(group, [rows], ds.n_classes)[0]
        found = _best_in_group(group, hist, parent_counts, parent_imp, params)
        if found is not None and found[0] > params.min_gain and (best is None or found[0] > best[0]):
            best = found

    if best is None:
        return None
    gain, ci, pivot = best
    col = ds.columns[ci]
    return Split(gain, pivot, col.name, ci, col.kind.is_ordered)


def _best_in_group(group, cnt, parent_counts, parent_imp, params):
    """(gain, column, pivot) of the group's first best valid candidate, or None,
    from the node's (classes x bins) histogram cnt.

    Each step runs on one contiguous row per class, never on a (candidates x
    classes) matrix; _class_sum adds the class terms in the order such a
    matrix's row sum would, so the gains keep their bits
    (tests/helpers.py::reference_best_in_group is that matrix form).
    """
    n = int(parent_counts.sum())

    # the pivots are the codes present in the node, in (column, code) order;
    # each member's pivots are the run of them from bounds[member] on
    present = np.flatnonzero(cnt.any(axis=0))
    bounds = np.searchsorted(present, group.starts)
    runs = np.diff(bounds, append=len(present))
    ordered = np.repeat(group.ordered, runs)

    def left_of(row):
        # left of a pivot: its own code (nominal), or every present code of
        # its column up to it (ordered), a cumulative sum restarted at each column
        counts = row[present]
        cum = np.zeros(len(present) + 1, dtype=counts.dtype)
        np.cumsum(counts, out=cum[1:])
        return np.where(ordered, cum[1:] - np.repeat(cum[bounds], runs), counts)

    left = [left_of(row) for row in cnt]
    n_left = sum(left)
    msl = params.min_samples_leaf
    valid = np.flatnonzero((n_left >= msl) & (n - n_left >= msl))
    if valid.size == 0:
        return None

    left_counts = [row[valid].astype(np.float64) for row in left]
    right_counts = [parent - side for parent, side in zip(parent_counts, left_counts)]
    n_left = n_left[valid].astype(np.float64)
    n_right = n - n_left
    imp_left = _side_impurity(left_counts, n_left, params.impurity_metric)
    imp_right = _side_impurity(right_counts, n_right, params.impurity_metric)
    gains = parent_imp - (n_left * imp_left + n_right * imp_right) / n

    best = int(np.argmax(gains))  # first maximum -> earliest column, lowest pivot
    code = present[valid[best]]
    j = group.member[code]
    return float(gains[best]), int(group.columns[j]), int(code - group.starts[j])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(ds: Dataset, params: TrainParams = TrainParams(), rows: np.ndarray | None = None,
          layout: tuple[_HistogramGroup, ...] | None = None) -> DecisionTree:
    """Grow a tree level by level, breadth-first node ids.

    Each open node is searched with best_split. A group keeps the histograms
    of a level's nodes while they hold no more counts than the table has rows
    (_HistogramGroup.max_nodes); then one bincount per level counts the smaller
    child of each split, and the larger child's histogram is its parent's minus
    the smaller one's. rows restricts training to a subset of the dataset (used
    by iterative extraction); node row ids always refer to the full dataset.
    layout is histogram_layout(ds), built here when not given.
    """
    if ds.labels is None:
        raise DataError("training requires a labelled dataset")
    if rows is None:
        rows = np.arange(ds.row_count)
    if len(rows) == 0:
        raise DataError("cannot train on an empty dataset")

    labels = ds.labels
    n_classes = ds.n_classes
    metric = params.impurity_metric
    nodes: list[TreeNode] = []

    def make_node(node_rows: np.ndarray, counts: np.ndarray, depth: int, parent: int | None) -> TreeNode:
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

    def is_open(node: TreeNode) -> bool:
        return (node.depth < params.max_depth and node.samples >= 2 * params.min_samples_leaf
                and node.impurity != 0.0)

    if layout is None:
        layout = histogram_layout(ds)
    root = make_node(rows, np.bincount(labels[rows], minlength=n_classes), 0, None)
    if not is_open(root):
        return DecisionTree(nodes, params)
    level = [root]
    # per group: the (nodes x classes x bins) histograms of the level, or None
    hists = [_histograms(g, [rows], n_classes) if g.max_nodes >= 1 else None for g in layout]
    while True:
        # per split whose children are not both closed: parent slot, smaller
        # child's rows, and each open child with whether it is the larger one
        slots, smaller, children = [], [], []
        for slot, node in enumerate(level):
            split = best_split(node.rows, ds, params, layout,
                               [None if h is None else h[slot] for h in hists],
                               class_counts=node.class_counts, node_impurity=node.impurity)
            if split is None:
                continue
            node.split = split
            mask = split.goes_left(ds.columns[split.column_index].codes[node.rows])
            sides = (node.rows[mask], node.rows[~mask])
            small = 0 if len(sides[0]) <= len(sides[1]) else 1
            small_counts = np.bincount(labels[sides[small]], minlength=n_classes)
            pair_counts = (small_counts, node.class_counts - small_counts)
            left, right = (make_node(sides[k], pair_counts[k != small], node.depth + 1, node.id)
                           for k in (0, 1))
            node.children = (left.id, right.id)
            opened = [(child, k != small) for k, child in enumerate((left, right)) if is_open(child)]
            if opened:
                children.extend((child, len(slots), larger) for child, larger in opened)
                slots.append(slot)
                smaller.append(sides[small])
        level = [child for child, _, _ in children]
        if not level:
            break
        # a kept group stacks the smaller children, then the larger ones; one
        # whose level outgrows max_nodes keeps none from here on
        pick = [pair + len(slots) * larger for _, pair, larger in children]
        for g, group in enumerate(layout):
            if hists[g] is not None and len(level) <= group.max_nodes:
                small = _histograms(group, smaller, n_classes)
                hists[g] = np.concatenate((small, hists[g][slots] - small))[pick]
            else:
                hists[g] = None

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
