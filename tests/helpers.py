"""Shared test fixtures: oracle implementations and hand-built reference objects.

The split oracle re-derives the best split by brute force (explicit partition
per pivot, scalar impurity formulas) so the trainer's vectorized search can be
checked against an independent computation. The reference encoder and the
reference profile do the same for ingest: one Python float()/strptime call per
cell per step, and every category of every column.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np

from dtclust.dataset import (
    DEFAULT_DATETIME_PATTERNS,
    DEFAULT_MISSING_TOKENS,
    MISSING_CODE,
    Column,
    ColumnKind,
    Dataset,
)
from dtclust.errors import DataError
from dtclust.tree import DecisionTree, TrainParams, TreeNode


# ---------------------------------------------------------------------------
# Independent split-search oracle
# ---------------------------------------------------------------------------

def oracle_impurity(counts, metric):
    n = sum(counts)
    if metric == "gini":
        return 1.0 - sum((c / n) ** 2 for c in counts)
    return -sum((c / n) * math.log2(c / n) for c in counts if c > 0)


def oracle_gain(y_parent, y_left, y_right, n_classes, metric):
    parent = np.bincount(y_parent, minlength=n_classes)
    left = np.bincount(y_left, minlength=n_classes)
    right = np.bincount(y_right, minlength=n_classes)
    n, nl, nr = len(y_parent), len(y_left), len(y_right)
    # the weighted child term is summed before dividing so that mirrored
    # splits (left/right swapped) are exact float ties, as in the trainer;
    # the shared lowest-column, lowest-pivot tie-break then decides both
    children = nl * oracle_impurity(left, metric) + nr * oracle_impurity(right, metric)
    return oracle_impurity(parent, metric) - children / n


def oracle_best_split(rows, ds, params):
    """Exhaustive (attribute, pivot) scan; first strict improvement wins ties."""
    y = ds.labels[rows]
    best = None  # (gain, column index, pivot)
    for ci, col in enumerate(ds.columns):
        codes = col.codes[rows]
        for pivot in sorted(set(int(c) for c in codes)):
            if col.kind.is_ordered:
                left_mask = codes <= pivot
            else:
                left_mask = codes == pivot
            nl = int(left_mask.sum())
            nr = len(rows) - nl
            if nl < params.min_samples_leaf or nr < params.min_samples_leaf or nl == 0 or nr == 0:
                continue
            gain = oracle_gain(y, y[left_mask], y[~left_mask], ds.n_classes, params.impurity_metric)
            if gain > params.min_gain and (best is None or gain > best[0]):
                best = (gain, ci, pivot)
    return best


def assert_tree_matches_oracle(tree, ds, params, tol=1e-12):
    """Every internal node's chosen split must equal the oracle's."""
    for node in tree.nodes:
        if node.split is None:
            continue
        expected = oracle_best_split(node.rows, ds, params)
        assert expected is not None, f"node {node.id}: trainer split where oracle found none"
        gain, ci, pivot = expected
        assert node.split.column_index == ci, (
            f"node {node.id}: attribute {node.split.attribute} != oracle column {ci}"
        )
        assert node.split.pivot == pivot, f"node {node.id}: pivot {node.split.pivot} != {pivot}"
        assert abs(node.split.gain - gain) <= tol, (
            f"node {node.id}: gain {node.split.gain} vs oracle {gain}"
        )
    for node in tree.nodes:
        if node.split is None and node.depth < params.max_depth \
                and node.samples >= 2 * params.min_samples_leaf:
            assert oracle_best_split(node.rows, ds, params) is None, (
                f"leaf {node.id}: oracle found a split the trainer missed"
            )


# ---------------------------------------------------------------------------
# Reference group scorer: the (candidates x classes) matrix kernel
# ---------------------------------------------------------------------------

def _impurity_matrix(counts: np.ndarray, totals: np.ndarray, metric: str) -> np.ndarray:
    """Row-wise impurity for a (candidates x classes) count matrix."""
    with np.errstate(invalid="ignore", divide="ignore"):
        p = counts / totals[:, None]
    if metric == "gini":
        return 1.0 - (p ** 2).sum(axis=1)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return -(p * logs).sum(axis=1)


def reference_best_in_group(group, cnt, parent_counts, parent_imp, params):
    """(gain, column, pivot) of the group's first best valid candidate, or None,
    from the node's (classes x bins) histogram cnt.

    The matrix form of tree._best_in_group, kept to pin the bits of its gains:
    the oracle's tolerance cannot see a last-bit change, report.json can.
    """
    n_classes = len(parent_counts)
    n = int(parent_counts.sum())

    # the pivots are the codes present in the node, in (column, code) order
    present = np.flatnonzero(cnt.any(axis=0))
    counts = cnt[:, present]
    member = group.member[present]
    # left of a pivot: its own code (nominal), or every present code of its
    # column up to it (ordered), a cumulative sum restarted at each column
    cum = np.zeros((n_classes, len(present) + 1), dtype=counts.dtype)
    np.cumsum(counts, axis=1, out=cum[:, 1:])
    first = np.searchsorted(present, group.starts)[member]
    left = np.where(group.ordered[member], cum[:, 1:] - cum[:, first], counts)
    n_left = left.sum(axis=0)
    msl = params.min_samples_leaf
    valid = np.flatnonzero((n_left >= msl) & (n - n_left >= msl))
    if valid.size == 0:
        return None

    left_counts = np.ascontiguousarray(left[:, valid].T, dtype=np.float64)
    right_counts = parent_counts[None, :] - left_counts
    n_left = n_left[valid].astype(np.float64)
    n_right = n - n_left
    imp_left = _impurity_matrix(left_counts, n_left, params.impurity_metric)
    imp_right = _impurity_matrix(right_counts, n_right, params.impurity_metric)
    gains = parent_imp - (n_left * imp_left + n_right * imp_right) / n

    best = int(np.argmax(gains))  # first maximum -> earliest column, lowest pivot
    i = valid[best]
    j = member[i]
    return float(gains[best]), int(group.columns[j]), int(present[i] - group.starts[j])


# ---------------------------------------------------------------------------
# Per-cell reference encoder and uncapped reference profile
# ---------------------------------------------------------------------------

def _ref_number(text):
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _ref_datetime(text, pattern):
    try:
        dt = datetime.strptime(text, pattern)
    except ValueError:
        return None
    if dt.year == 1900 and "%Y" not in pattern and "%y" not in pattern:
        return dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond / 1e6
    return dt.replace(tzinfo=timezone.utc).timestamp()


def _ref_infer(present, datetime_patterns):
    if not present:
        return ColumnKind.SYMBOLIC_NOMINAL, None
    if all(_ref_number(c) is not None for c in present):
        return ColumnKind.NUMERIC, None
    for pattern in datetime_patterns:
        if all(_ref_datetime(c, pattern) is not None for c in present):
            return ColumnKind.DATETIME, pattern
    if all(c.lower() in {"true", "false", "0", "1"} for c in present):
        return ColumnKind.BOOLEAN, None
    return ColumnKind.SYMBOLIC_NOMINAL, None


def reference_encode(name, cells, kind_hint=None, missing_tokens=DEFAULT_MISSING_TOKENS,
                     datetime_patterns=DEFAULT_DATETIME_PATTERNS) -> Column:
    """One feature column as the loader encodes it: cells stripped, kind
    inferred (or hinted), then a dictionary keyed by parsed value (first-seen
    text) or sorted text.

    Every cell is parsed one at a time, again at each step, with no numpy.
    """
    cells = [c.strip() for c in cells]
    missing = set(missing_tokens)
    present = [c for c in cells if c not in missing]
    kind, pattern = _ref_infer(present, datetime_patterns)
    if kind_hint is not None:
        kind = ColumnKind(kind_hint)
        if kind is not ColumnKind.DATETIME:
            pattern = None
        elif pattern is None:
            pattern = next((p for p in datetime_patterns
                            if all(_ref_datetime(c, p) is not None for c in present)), None)
            if pattern is None:
                raise DataError(f"column {name!r} hinted datetime but no pattern matches")

    if kind is ColumnKind.NUMERIC or kind is ColumnKind.DATETIME:
        parse = _ref_number if kind is ColumnKind.NUMERIC else (lambda t: _ref_datetime(t, pattern))
        by_value = {}
        for c in present:
            v = parse(c)
            if v is None:
                raise DataError(f"column {name!r}: cell {c!r} does not parse as {kind.value}")
            by_value.setdefault(v, c)
        ordered = sorted(by_value)
        code_of = {v: i + 1 for i, v in enumerate(ordered)}
        codes = np.array([MISSING_CODE if c in missing else code_of[parse(c)] for c in cells],
                         dtype=np.int32)
        return Column(name, kind, codes, tuple(by_value[v] for v in ordered),
                      values=np.array(ordered, dtype=np.float64), pattern=pattern)

    ordered_texts = sorted(set(present))
    code_of_text = {t: i + 1 for i, t in enumerate(ordered_texts)}
    codes = np.array([MISSING_CODE if c in missing else code_of_text[c] for c in cells],
                     dtype=np.int32)
    return Column(name, kind, codes, tuple(ordered_texts))


def assert_columns_equal(got: Column, expected: Column) -> None:
    """Kind, pattern, codes, dictionary and the bits of the natural values all agree."""
    assert got.name == expected.name
    assert got.kind is expected.kind, got.name
    assert got.pattern == expected.pattern, got.name
    assert got.codes.dtype == expected.codes.dtype
    assert got.codes.tolist() == expected.codes.tolist(), got.name
    assert got.dictionary == expected.dictionary, got.name
    if expected.values is None:
        assert got.values is None, got.name
    else:
        assert got.values.dtype == expected.values.dtype
        assert got.values.tobytes() == expected.values.tobytes(), got.name


def reference_profile(ds: Dataset) -> dict[str, list[tuple[str, int, tuple[float, ...]]]]:
    """Every present category of every column as (value, count, class_rates), in code order."""
    out = {}
    for col in ds.columns:
        cats = []
        for code in range(col.n_values + 1):
            dist = np.bincount(ds.labels[col.codes == code], minlength=ds.n_classes)
            count = int(dist.sum())
            if count:
                cats.append((col.decode(code), count, tuple(float(v) for v in dist / count)))
        out[col.name] = cats
    return out


# ---------------------------------------------------------------------------
# Random dataset generation
# ---------------------------------------------------------------------------

def random_dataset(rng, max_rows=200, max_cols=6, wide_column=False) -> Dataset:
    """A small mixed-kind dataset (all five column kinds) with occasional missing codes.

    wide_column inserts one more column, at a random position, whose
    dictionary is longer than the table, so most of its codes are absent and
    split search must pack the columns into several histogram groups.
    """
    n = int(rng.integers(20, max_rows + 1))
    n_cols = int(rng.integers(2, max_cols + 1))
    n_classes = int(rng.integers(2, 4))
    columns = []
    for j in range(n_cols):
        u = int(rng.integers(2, 13))
        codes = rng.integers(1, u + 1, size=n).astype(np.int32)
        if rng.random() < 0.3:
            codes[rng.random(n) < 0.1] = 0
        roll = rng.random()
        if roll < 0.4:
            values = np.sort(rng.uniform(-100, 100, size=u))
            dictionary = tuple(repr(float(v)) for v in values)
            columns.append(Column(f"col{j}", ColumnKind.NUMERIC, codes, dictionary, values=values))
        elif roll < 0.55:
            values = np.sort(rng.choice(86_400, size=u, replace=False)).astype(np.float64)
            dictionary = tuple(
                f"{int(v) // 3600:02d}:{int(v) // 60 % 60:02d}:{int(v) % 60:02d}"
                for v in values
            )
            columns.append(Column(f"col{j}", ColumnKind.DATETIME, codes, dictionary,
                                  values=values, pattern="%H:%M:%S"))
        elif roll < 0.65:
            codes = np.minimum(codes, 2)
            columns.append(Column(f"col{j}", ColumnKind.BOOLEAN, codes, ("false", "true")))
        else:
            kind = ColumnKind.SYMBOLIC_NOMINAL if rng.random() < 0.7 else ColumnKind.SYMBOLIC_ORDINAL
            dictionary = tuple(f"v{j}_{i}" for i in range(u))
            columns.append(Column(f"col{j}", kind, codes, dictionary))
    # labels loosely track the first column so trees have something to find
    base = columns[0].codes.astype(float)
    noisy = base + rng.normal(0, base.std() + 0.5, size=n)
    edges = np.quantile(noisy, np.linspace(0, 1, n_classes + 1)[1:-1])
    labels = np.searchsorted(edges, noisy).astype(np.int32)
    if len(np.unique(labels)) < 2:
        labels[: n // 2] = 0
        labels[n // 2:] = 1
    names = tuple(f"class{k}" for k in range(int(labels.max()) + 1))
    if wide_column:
        u = n + int(rng.integers(1, 2 * n + 1))
        codes = rng.integers(0, u + 1, size=n).astype(np.int32)
        dictionary = tuple(f"w{i}" for i in range(u))
        if rng.random() < 0.5:
            wide = Column("wide", ColumnKind.NUMERIC, codes, dictionary, values=np.arange(u, dtype=float))
        else:
            wide = Column("wide", ColumnKind.SYMBOLIC_NOMINAL, codes, dictionary)
        columns.insert(int(rng.integers(0, len(columns) + 1)), wide)
    return Dataset(tuple(columns), labels, names)


def random_plan(rng, ds: Dataset):
    """A plan over ds: each binnable column gets a valid directive with even
    odds (a random method of its kind, k in 2..6), and reordering is on or off."""
    from dtclust.preprocess import BINNING_METHODS, BinDirective, PreprocessPlan

    per_column = {}
    for col in ds.columns:
        methods = BINNING_METHODS.get(col.kind)
        if methods and rng.random() < 0.5:
            per_column[col.name] = BinDirective(str(rng.choice(methods)), int(rng.integers(2, 7)))
    return PreprocessPlan(per_column=per_column, reorder_symbolic=bool(rng.random() < 0.5))


# ---------------------------------------------------------------------------
# Hand-built trees
# ---------------------------------------------------------------------------

def _node(nodes, counts, depth, parent):
    counts = np.array(counts)
    node = TreeNode(
        id=len(nodes),
        depth=depth,
        rows=np.arange(int(counts.sum())),
        class_counts=counts,
        impurity=1.0 - float(((counts / counts.sum()) ** 2).sum()),
        decision=int(np.argmax(counts)),
        parent=parent,
    )
    nodes.append(node)
    return node


def _link(parent, left, right):
    parent.children = (left.id, right.id)


# class order is [other, target]; the six reference nodes carry the published
# metric-table counts (sizes 314/168/170/23/117/41, 342 target rows in total)
REFERENCE_COUNTS = {
    "c1": (81, 233), "c2": (8, 160), "c3": (9, 161),
    "c4": (1, 22), "c5": (48, 69), "c6": (18, 23),
}


def reference_metric_tree() -> tuple[DecisionTree, dict[str, int]]:
    """A consistent tree embedding the six reference clusters; returns (tree, name->id)."""
    nodes: list[TreeNode] = []
    root = _node(nodes, (545, 342), 0, None)           # 0
    c1 = _node(nodes, REFERENCE_COUNTS["c1"], 1, 0)    # 1
    b = _node(nodes, (464, 109), 1, 0)                 # 2
    _link(root, c1, b)
    c3 = _node(nodes, REFERENCE_COUNTS["c3"], 2, 1)    # 3
    y = _node(nodes, (72, 72), 2, 1)                   # 4
    _link(c1, c3, y)
    c6 = _node(nodes, REFERENCE_COUNTS["c6"], 2, 2)    # 5
    z = _node(nodes, (446, 86), 2, 2)                  # 6
    _link(b, c6, z)
    c2 = _node(nodes, REFERENCE_COUNTS["c2"], 3, 3)    # 7
    pad1 = _node(nodes, (1, 1), 3, 3)                  # 8
    _link(c3, c2, pad1)
    c5 = _node(nodes, REFERENCE_COUNTS["c5"], 3, 4)    # 9
    pad2 = _node(nodes, (24, 3), 3, 4)                 # 10
    _link(y, c5, pad2)
    c4 = _node(nodes, REFERENCE_COUNTS["c4"], 3, 5)    # 11
    pad3 = _node(nodes, (17, 1), 3, 5)                 # 12
    _link(c6, c4, pad3)
    ids = {"c1": 1, "c2": 7, "c3": 3, "c4": 11, "c5": 9, "c6": 5}
    return DecisionTree(nodes, TrainParams()), ids


def selection_scenario_tree() -> tuple[DecisionTree, dict[str, int]]:
    """A tree where greedy unrelated-node selection must pick a then d.

    a's descendants (b, c, e) rank just below it; d is a small pure node in the
    other branch whose ancestor f ranks below d itself.
    """
    nodes: list[TreeNode] = []
    root = _node(nodes, (298, 255), 0, None)  # 0
    mid = _node(nodes, (281, 233), 1, 0)      # 1
    f = _node(nodes, (17, 22), 1, 0)          # 2
    _link(root, mid, f)
    a = _node(nodes, (81, 233), 2, 1)         # 3
    junk = _node(nodes, (200, 0), 2, 1)       # 4
    _link(mid, a, junk)
    d = _node(nodes, (1, 22), 2, 2)           # 5
    pad = _node(nodes, (16, 0), 2, 2)         # 6
    _link(f, d, pad)
    b = _node(nodes, (8, 160), 3, 3)          # 7
    e = _node(nodes, (73, 73), 3, 3)          # 8
    _link(a, b, e)
    c = _node(nodes, (3, 150), 4, 7)          # 9
    pad2 = _node(nodes, (5, 10), 4, 7)        # 10
    _link(b, c, pad2)
    ids = {"a": 3, "b": 7, "c": 9, "d": 5, "e": 8, "f": 2, "junk": 4, "mid": 1}
    return DecisionTree(nodes, TrainParams()), ids


def single_split_tree(ds: Dataset, column: str, pivot: int) -> DecisionTree:
    """A root with one ordered split on the given column, for linearization tests."""
    from dtclust.tree import Split, impurity

    rows = np.arange(ds.row_count)
    split = Split(0.1, pivot, column, ds.column_names.index(column), True)
    mask = split.goes_left(ds.column(column).codes)
    nodes: list[TreeNode] = []

    def node(node_rows, depth, parent):
        counts = np.bincount(ds.labels[node_rows], minlength=ds.n_classes)
        n = TreeNode(len(nodes), depth, node_rows, counts, impurity(counts), int(np.argmax(counts)), parent)
        nodes.append(n)
        return n

    root = node(rows, 0, None)
    root.split = split
    left = node(rows[mask], 1, 0)
    right = node(rows[~mask], 1, 0)
    root.children = (left.id, right.id)
    return DecisionTree(nodes, TrainParams())


def ordinal_symbolic_dataset(name: str, dictionary: tuple[str, ...]) -> Dataset:
    """One symbolic-ordinal column with every dictionary value appearing once."""
    m = len(dictionary)
    codes = np.arange(1, m + 1, dtype=np.int32)
    col = Column(name, ColumnKind.SYMBOLIC_ORDINAL, codes, dictionary)
    labels = (codes > m // 2).astype(np.int32)
    return Dataset((col,), labels, ("0", "1"))


def reference_original_codes(final_codes: set[int], entry) -> set[int]:
    """The original codes of a logged column whose final code is in final_codes.

    Undoes the column's steps one at a time, last first, on Python sets: a
    binning step through each bin's members, a reordering through its
    permutation. Missing (0) stays missing through every step.
    """
    from dtclust.preprocess import OrdinalEncoding

    codes = set(final_codes)
    for step in reversed(entry.steps):
        keep_missing = 0 in codes
        if isinstance(step, OrdinalEncoding):
            codes = {old for old, new in enumerate(step.code_map) if new in codes and old != 0}
        else:
            members = {b.id: b.members for b in step.bins}
            codes = {c for b in codes if b != 0 for c in members.get(b, ())}
        if keep_missing:
            codes.add(0)
    return codes


def identity_log(ds: Dataset):
    """A TransformLog with an identity entry per column."""
    from dtclust.preprocess import ColumnLog, TransformLog

    log = TransformLog()
    for col in ds.columns:
        log.entries[col.name] = ColumnLog(col, [], col.kind)
    return log


# ---------------------------------------------------------------------------
# The four-city worked example
# ---------------------------------------------------------------------------

def city_dataset() -> Dataset:
    """Eight rows over one city column; target class is 0."""
    dictionary = ("Amsterdam", "London", "New York", "Shanghai")
    codes = np.array([1, 2, 3, 4, 4, 3, 2, 1], dtype=np.int32)
    labels = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=np.int32)
    col = Column("city", ColumnKind.SYMBOLIC_NOMINAL, codes, dictionary)
    return Dataset((col,), labels, ("0", "1"))
