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
own, which bounds a histogram's memory. Keys are int32 whenever the largest
key a kept level can form fits (it is below max(rows, classes x bins)), so the
per-dataset key matrix and every gather of it move half the bytes of intp.

Trees grow level by level. A group keeps the histograms of a level's nodes
while they hold no more counts than the table has rows. For such a kept
group, one bincount per level counts the smaller child of every split made on
the level above, and each larger child's histogram is its parent's minus its
sibling's. A wide group, whose histogram for even one node would outsize the
table, keeps none, nor does a group on a level with more nodes than it keeps
histograms for: there each node's own histogram is counted.

One scorer, _best_in_level, scores every group: all of a level's nodes in
one pass over their stacked (nodes x classes x bins) histograms, and a group
counted per node as a level of one. A group's candidates are the bins present
in some node of the level, so a small node is scored on its few codes. A code
absent from a node either fails the leaf-size test there or repeats, to the
bit, the gain of the present code before it in its column, so the first
maximum still picks a present code. best_split runs once per open node: it
takes the level's results for the kept groups, scores the others, and merges
them.

Scoring runs class by class. Each step (the cumulative sums, left and right
counts, each side's impurity, the gain) works on one contiguous (nodes x
candidates) row per class, never on a (candidates x classes) matrix, whose
strided gathers, cumsums and row sums cost several times more. The
summation-order contract: _class_sum adds the class terms of an impurity in
the order numpy sums a (candidates x classes) row, in sequence below 8 classes
and pairwise from 8 on, so the gains keep the bits of that matrix form and
reports stay byte-identical. Node impurities go through impurity().

Row ids are stored once per tree. train copies the rows it is given into one
array, the tree's row order, and the root's rows is that array. Splitting a
node partitions its slice of the order in place, stably, left side first, so
each child's rows is a view of its part of the parent's slice. Each side is
taken with np.compress, which has no per-element branch for a boolean index
to mispredict. A node's rows are ascending until its children are partitioned;
only leaves stay so.

Training is deterministic: ties between equal-gain splits resolve to the lower
column index, then the lower pivot code; majority ties at leaves resolve to the
lowest class code. Node ids are breadth-first.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
    """One node of a tree. rows is a view of the tree's one row order: the node's
    row ids into the full dataset, ascending for a leaf, and for a split node its
    left child's rows followed by its right child's."""

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
    """Candidate-wise sum of per-class arrays, bit for bit as numpy sums a
    (candidates x classes) matrix along its classes: in sequence below 8
    classes, by numpy's own pairwise reduction from 8 on. That reduction runs
    along a contiguous axis only, so the classes are stacked last and each
    candidate's terms summed as one row."""
    if len(terms) < 8:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    return np.stack(terms, axis=-1).reshape(-1, len(terms)).sum(axis=1).reshape(terms[0].shape)


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

    keys:    rows x members, the key of each row in each member; int32 when
             every key of a level's max(1, max_nodes) slots of classes x bins
             fits, which holds while max(rows, classes x bins) < 2**31, and
             intp otherwise.
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
    own size whatever the number of columns. Each group's keys are int32
    where they fit.
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
    size = ds.n_classes * n_bins
    max_nodes = ds.row_count // size
    # a level's keys stay below max(1, max_nodes) * size <= max(rows, size)
    dtype = np.int32 if max(1, max_nodes) * size < 2**31 else np.intp
    keys = np.stack([col.codes for col in cols], axis=1, dtype=dtype)
    keys += starts.astype(dtype)
    keys += (ds.labels.astype(dtype) * n_bins)[:, None]
    ordered = np.array([col.kind.is_ordered for col in cols])
    member = np.repeat(np.arange(len(cols)), widths)
    return _HistogramGroup(keys, np.array(members), starts, member, ordered, n_bins, max_nodes)


def _histograms(group: _HistogramGroup, row_sets: list[np.ndarray], n_classes: int) -> np.ndarray:
    """(sets x classes x bins) class histograms of several row sets from one
    bincount: each set's keys are offset by its slot. The offsets are made in
    the keys' dtype, so the repeated offset array is as small as the keys; a
    kept group's level of at most max_nodes sets stays within the bound that
    dtype was chosen for, so every slot offset fits it."""
    size = n_classes * group.n_bins
    keys = np.take(group.keys, np.concatenate(row_sets), axis=0)
    if len(row_sets) > 1:
        offsets = np.arange(len(row_sets), dtype=keys.dtype) * size
        keys += np.repeat(offsets, [len(r) for r in row_sets])[:, None]
    cnt = np.bincount(keys.ravel(), minlength=len(row_sets) * size)
    return cnt.reshape(len(row_sets), n_classes, group.n_bins)


def best_split(rows: np.ndarray, ds: Dataset, params: TrainParams,
               layout: tuple[_HistogramGroup, ...] | None = None, *,
               class_counts: np.ndarray | None = None,
               node_impurity: float | None = None,
               found: dict[int, tuple[float, int, int] | None] | None = None) -> Split | None:
    """Exhaustive best split of the given rows, or None when no gain beats min_gain.

    Scans every column and every code present in the rows as a pivot; keeps the
    strictly best gain, so equal-gain ties go to the earliest column and the
    lowest pivot. layout is histogram_layout(ds), built here when not given.
    class_counts and node_impurity are the rows' class counts and impurity,
    counted here when not given. found maps the index in layout of a group
    already scored for these rows (train scores a kept group's whole level at
    once) to its (gain, column, pivot), or None when it has no valid candidate;
    every other group's histogram is counted here and scored by _best_in_level
    as a level of one node. The groups' results merge in layout order, which is
    column order: a higher gain wins, and an equal one stays with the lower
    column. The result is the test alone; Split.goes_left partitions rows by it.
    """
    if layout is None:
        layout = histogram_layout(ds)
    if found is None:
        found = {}
    if class_counts is None:
        class_counts = np.bincount(ds.labels[rows], minlength=ds.n_classes)
    parent_counts = class_counts.astype(np.float64)
    if node_impurity is None:
        node_impurity = impurity(parent_counts, params.impurity_metric)

    best: tuple[float, int, int] | None = None  # gain, column index, pivot
    for g, group in enumerate(layout):
        if g in found:
            cand = found[g]
        else:
            cand, = _best_in_level(group, _histograms(group, [rows], ds.n_classes),
                                   parent_counts[None], np.array([node_impurity]), params)
        if cand is not None and cand[0] > params.min_gain and (best is None or cand[0] > best[0]):
            best = cand

    if best is None:
        return None
    gain, ci, pivot = best
    col = ds.columns[ci]
    return Split(gain, pivot, col.name, ci, col.kind.is_ordered)


def _best_in_level(group, hists, class_counts, impurities, params):
    """Per node of a level, the (gain, column, pivot) of the group's first best
    valid candidate, or None, from the level's (nodes x classes x bins)
    histograms hists; class_counts is the nodes' (nodes x classes) float64
    class counts, impurities the array of their impurities. best_split scores
    a node alone as a level of one.

    The candidates are the bins present in some node of the level, taken out
    of hists in one take, so a small node is scored on its few codes.
    A candidate absent from a node cannot win there: its left side is that of
    the candidate before it in its column. Either that leaves a side empty (a
    nominal code, or an ordered code below every present one) and fails the
    leaf-size test, or it repeats, to the bit, the gain of the present code
    before it, which the first maximum keeps.

    Each step runs on one contiguous (nodes x candidates) row per class;
    _class_sum adds the class terms in the order a (candidates x classes)
    matrix's row sum would, so the gains keep that matrix form's bits
    (tests/helpers.py::reference_best_in_group). A side without rows gives a
    NaN gain, masked out with the other invalid candidates.
    """
    n_nodes = len(hists)
    bins = np.flatnonzero(hists.any(axis=(0, 1)))
    by_class = hists.transpose(1, 0, 2).take(bins, axis=2)
    # member m's candidates are bounds[m]:bounds[m + 1]
    bounds = np.searchsorted(bins, np.append(group.starts, group.n_bins))
    runs = bounds[1:] - bounds[:-1]
    ordered = np.repeat(group.ordered, runs)

    def left_of(row):
        # left of a pivot: its own code (nominal), or every candidate of its
        # column up to it (ordered), a cumulative sum restarted at each
        # column's first candidate
        cum = np.zeros((n_nodes, len(bins) + 1), dtype=row.dtype)
        np.cumsum(row, axis=1, out=cum[:, 1:])
        return np.where(ordered, cum[:, 1:] - cum.take(bounds[:-1], axis=1).repeat(runs, axis=1), row)

    left = [left_of(row) for row in by_class]
    n_left = sum(left)
    n = class_counts.sum(axis=1, keepdims=True)
    msl = params.min_samples_leaf
    valid = (n_left >= msl) & (n - n_left >= msl)

    with np.errstate(invalid="ignore"):
        left_counts = [side.astype(np.float64) for side in left]
        right_counts = [parent - side for parent, side in zip(class_counts.T[:, :, None], left_counts)]
        n_left = n_left.astype(np.float64)
        n_right = n - n_left
        imp_left = _side_impurity(left_counts, n_left, params.impurity_metric)
        imp_right = _side_impurity(right_counts, n_right, params.impurity_metric)
        gains = impurities[:, None] - (n_left * imp_left + n_right * imp_right) / n

    # first maximum per node -> earliest column, lowest pivot; -inf marks a
    # node with no valid candidate
    gains[~valid] = -np.inf
    best = gains.argmax(axis=1)
    code = bins[best]
    j = group.member[code]
    return [None if gain == -np.inf else (gain, column, pivot)
            for gain, column, pivot in zip(gains[np.arange(n_nodes), best].tolist(),
                                           group.columns[j].tolist(),
                                           (code - group.starts[j]).tolist())]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(ds: Dataset, params: TrainParams = TrainParams(), rows: np.ndarray | None = None,
          layout: tuple[_HistogramGroup, ...] | None = None, *,
          opens: Callable[[TreeNode], bool] | None = None) -> DecisionTree:
    """Grow a tree level by level, breadth-first node ids.

    Each open node is searched with one best_split call. A group keeps the
    histograms of a level's nodes while they hold no more counts than the table
    has rows (_HistogramGroup.max_nodes); then one bincount per level counts the
    smaller child of each split, the larger child's histogram is its parent's
    minus the smaller one's, and _best_in_level scores the whole level in the
    group before its nodes are searched. best_split gets each node's results
    for the kept groups and scores the other groups on the node alone.
    A split node's slice is partitioned with np.compress, branch-free, stably,
    left side first.
    rows restricts training to a subset of the dataset (used by iterative
    extraction); node row ids always refer to the full dataset, and a
    DataError is raised when rows repeats an id or holds one outside
    0..row_count-1. rows is copied, never changed: the copy is the tree's row
    order. layout is histogram_layout(ds), built here when not given.
    opens is an extra stopping rule: it is called once on each node as the node
    is made, in node id order, and a node it refuses stays a leaf, so the tree
    is the whole tree cut below the refused nodes (iterative extraction passes
    one that refuses nodes under which no node can win the round).
    """
    if ds.labels is None:
        raise DataError("training requires a labelled dataset")
    # the tree's one row order: the root's rows, and every node a slice of it
    n_rows = ds.row_count
    rows = np.arange(n_rows) if rows is None else np.array(rows)
    if rows.size == 0:
        raise DataError("cannot train on an empty dataset")
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise DataError(f"rows must be a 1-d array of integer row ids, got {rows.dtype} "
                        f"of shape {rows.shape}")
    if rows.min() < 0 or rows.max() >= n_rows:
        raise DataError(f"rows holds a row id outside 0..{n_rows - 1}")
    taken = np.zeros(n_rows, dtype=bool)
    taken[rows] = True
    if np.count_nonzero(taken) != len(rows):
        raise DataError("rows repeats a row id")

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
        # opens sees every node, closed by the other rules or not
        return ((opens is None or opens(node)) and node.depth < params.max_depth
                and node.samples >= 2 * params.min_samples_leaf and node.impurity != 0.0)

    if layout is None:
        layout = histogram_layout(ds)
    root = make_node(rows, np.bincount(labels[rows], minlength=n_classes), 0, None)
    if not is_open(root):
        return DecisionTree(nodes, params)
    level = [root]
    # per group: the (nodes x classes x bins) histograms of the level, or None
    hists = [_histograms(g, [rows], n_classes) if g.max_nodes >= 1 else None for g in layout]
    while True:
        # per kept group: each node's best candidate in it, scored for the
        # whole level at once
        counts = np.stack([node.class_counts for node in level]).astype(np.float64)
        impurities = np.array([node.impurity for node in level])
        scored = {g: _best_in_level(group, hists[g], counts, impurities, params)
                  for g, group in enumerate(layout) if hists[g] is not None}
        # per split whose children are not both closed: parent slot, smaller
        # child's rows, and each open child with whether it is the larger one
        slots, smaller, children = [], [], []
        for slot, node in enumerate(level):
            split = best_split(node.rows, ds, params, layout,
                               class_counts=node.class_counts, node_impurity=node.impurity,
                               found={g: level_best[slot] for g, level_best in scored.items()})
            if split is None:
                continue
            node.split = split
            # partition the node's slice in place, stably, left side first
            mask = split.goes_left(ds.columns[split.column_index].codes[node.rows])
            sides = (node.rows.compress(mask), node.rows.compress(~mask))
            n_left = len(sides[0])
            node.rows[:n_left], node.rows[n_left:] = sides
            sides = (node.rows[:n_left], node.rows[n_left:])
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
