"""Shared test fixtures: oracle implementations and hand-built reference objects.

The split oracle re-derives the best split by brute force (explicit partition
per pivot, scalar impurity formulas) so the trainer's vectorized search can be
checked against an independent computation. The reference extraction grows
whole trees from that oracle and runs iterative extraction on exact fractions
and Python sets; the reference transform record rebuilds a fit's bins
eagerly, and the reference rule decodes a node's path on Python sets of
codes. The reference encoder and the reference profile do the same for
ingest: one Python float()/strptime call per cell per step, and every
category of every column. The reference CSV reader
keeps every row as a list and transposes them, as the loader no longer does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from dtclust.dataset import (
    DEFAULT_DATETIME_PATTERNS,
    DEFAULT_MISSING_TOKENS,
    MISSING_CODE,
    Column,
    ColumnKind,
    Dataset,
    format_value,
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
# Independent iterative extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceRound:
    """One round of reference_extract: the winning node, its rows, its counts,
    and every node's exact F-beta by node id, so a caller can name a tie."""

    tree_index: int
    node_id: int
    rows: frozenset
    tp: int
    fp: int
    fn: int
    f_beta: tuple


def exact_fbeta(tp: int, size: int, total: int, beta: float) -> Fraction:
    """F-beta of a node holding tp of the total target rows among size rows, as a Fraction."""
    if tp == 0:
        return Fraction(0)
    b2 = Fraction(beta) ** 2
    precision, recall = Fraction(tp, size), Fraction(tp, total)
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def reference_tree(ds, rows, params):
    """Each node's rows as a sorted list, by breadth-first node id.

    A node is searched under train's stopping rules: depth below max_depth,
    at least 2 * min_samples_leaf rows, and more than one class. Its split is
    oracle_best_split's; the rows are partitioned with a Python loop.
    """
    labels = ds.labels.tolist()
    nodes = [(sorted(rows), 0)]
    i = 0
    while i < len(nodes):
        node_rows, depth = nodes[i]
        i += 1
        if (depth >= params.max_depth or len(node_rows) < 2 * params.min_samples_leaf
                or len({labels[r] for r in node_rows}) == 1):
            continue
        found = oracle_best_split(np.array(node_rows), ds, params)
        if found is None:
            continue
        _, ci, pivot = found
        col = ds.columns[ci]
        codes = col.codes.tolist()
        left, right = [], []
        for r in node_rows:
            passes = codes[r] <= pivot if col.kind.is_ordered else codes[r] == pivot
            (left if passes else right).append(r)
        nodes.extend(((left, depth + 1), (right, depth + 1)))
    return [node_rows for node_rows, _ in nodes]


def reference_extract(ds, params, target_class, beta, n_clusters):
    """Iterative extraction rebuilt from the split oracle: the rounds it takes.

    Each round grows reference_tree on the rows not yet claimed, ranks every
    node by exact_fbeta against the target rows left (ties to the smaller id),
    stops when the best scores 0, and removes the winner's rows from a Python
    set. It stops early, as extract_iterative does, when no rows or no target
    rows are left.
    """
    labels = ds.labels.tolist()
    remaining = set(range(ds.row_count))
    rounds = []
    for tree_index in range(n_clusters):
        total = sum(1 for r in remaining if labels[r] == target_class)
        if not remaining or total == 0:
            break
        nodes = reference_tree(ds, remaining, params)
        tps = [sum(1 for r in rows if labels[r] == target_class) for rows in nodes]
        scores = tuple(exact_fbeta(tp, len(rows), total, beta) for tp, rows in zip(tps, nodes))
        best = min(range(len(nodes)), key=lambda i: (-scores[i], i))
        if scores[best] <= 0:
            break
        tp = tps[best]
        rounds.append(ReferenceRound(tree_index, best, frozenset(nodes[best]), tp,
                                     len(nodes[best]) - tp, total - tp, scores))
        remaining -= set(nodes[best])
    return rounds


# ---------------------------------------------------------------------------
# Reference split scorer: the (candidates x classes) matrix kernel
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

    The reference for tree._best_in_level, node by node: the same arithmetic
    as a (candidates x classes) matrix over the codes present in the node.
    It pins the bits of the scorer's gains, which the oracle's tolerance
    cannot see and report.json prints.
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
# Per-cell reference encoder, uncapped reference profile, row-list CSV reader
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


def reference_read_table(path: str, delimiter: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """A row-list CSV reader, the reference for dataset._read_table: every
    non-empty row kept as a list, then transposed with zip(*rows). The file
    line of each row is kept beside it for the ragged-row message.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                rows, lines = [], []
                for row in reader:
                    if row:
                        rows.append(row)
                        lines.append(reader.line_num)
            except csv.Error as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, data = [h.strip() for h in rows[0]], rows[1:]
    if not data:
        raise DataError(f"{path}: no data rows")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate header names {dupes}")
    if set(map(len, data)) != {len(header)}:
        i, row = next((i, row) for i, row in enumerate(data) if len(row) != len(header))
        raise DataError(f"{path}, line {lines[i + 1]}: {len(row)} cells, header has {len(header)}")
    return header, list(zip(*data))


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


def subset(ds: Dataset, row_ids) -> Dataset:
    """A copy of ds cut to the given rows, in their order, with every dictionary kept whole."""
    cols = tuple(Column(c.name, c.kind, c.codes[row_ids], c.dictionary, c.values, c.pattern)
                 for c in ds.columns)
    return Dataset(cols, ds.labels[row_ids], ds.class_names)


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


def exact_tie_tree() -> DecisionTree:
    """A tree whose root (2 target rows of 12) and node 4 (1 of 5) both have
    F1 = 2/7 exactly, while fbeta_score's floats put node 4 one ulp ahead."""
    nodes: list[TreeNode] = []
    root = _node(nodes, (10, 2), 0, None)  # 0
    a = _node(nodes, (5, 1), 1, 0)         # 1
    b = _node(nodes, (5, 1), 1, 0)         # 2
    _link(root, a, b)
    c = _node(nodes, (1, 0), 2, 1)         # 3
    d = _node(nodes, (4, 1), 2, 1)         # 4
    _link(a, c, d)
    return DecisionTree(nodes, TrainParams())


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


def reference_predicate(attr: str, allowed: set[int], reachable: set[int], entry):
    """The test extract._predicate_from_codes builds, from Python sets of
    original codes: those that pass the path's tests (allowed) and those the
    column's transforms can reach (reachable, 0 when the source has missing
    cells). None when every code of the universe passes; a reachable code
    inside an ordered column's hull that does not pass is an InternalError."""
    from dtclust.errors import InternalError
    from dtclust.rules import MISSING, Bound, RangeTest, SetTest

    source = entry.source
    universe = set(range(1, source.n_values + 1)) | (reachable & {0})
    if allowed >= universe:
        return None
    if source.kind not in (ColumnKind.NUMERIC, ColumnKind.DATETIME):
        complement = universe - allowed
        negated = len(complement) < len(allowed)
        codes = sorted(complement if negated else allowed)
        return SetTest(attr, tuple(MISSING if c == 0 else source.dictionary[c - 1] for c in codes),
                       negated)
    codes = sorted(allowed - {0})
    if not codes:
        return SetTest(attr, (MISSING,))
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
        return SetTest(attr, (MISSING,), negated=True)
    return RangeTest(attr, lo, hi, include_missing=0 in allowed)


def reference_rule(tree: DecisionTree, node_id: int, log, target_class: int):
    """extract.linearize_rule on Python sets: per attribute on the node's root
    path, in path order, the original codes whose final code passes every test
    and that the transforms reach, made into a test by reference_predicate."""
    from dtclust.rules import Rule

    allowed: dict[str, set[int]] = {}
    for split, went_left in tree.path(node_id):
        final = log.for_column(split.attribute).code_map()
        passing = set(np.flatnonzero(split.goes_left(final) == went_left).tolist())
        allowed[split.attribute] = allowed.get(split.attribute, passing) & passing
    predicates = []
    for attr, codes in allowed.items():
        entry = log.for_column(attr)
        reachable = set(np.flatnonzero(entry.code_map() >= 0).tolist()) - {0}
        if entry.source.has_missing:
            reachable.add(0)
        pred = reference_predicate(attr, codes & reachable, reachable, entry)
        if pred is not None:
            predicates.append(pred)
    return Rule(tuple(predicates), target_class)


def reference_log_dict(log, fitted: Dataset, prepared: Dataset) -> dict:
    """log.to_dict() rebuilt eagerly from each step's code map, for a plan fit
    on the table fitted that gave the table prepared.

    A bin's members are the codes its map sends to it. On a numeric or
    datetime column they must be one run of codes, and the representative is
    the bin's natural value in prepared, as text. On a symbolic column they
    are listed in the order the method packs them: by code (equal-width), by
    text (similarity), or by rows on fitted, most first, then code
    (frequency); the representative is the one text, or all of them in braces.
    """
    from dtclust.preprocess import OrdinalEncoding

    out = {"columns": {}, "dropped": dict(log.dropped)}
    for name, entry in log.entries.items():
        source = entry.source
        counts = np.bincount(fitted.column(name).codes, minlength=source.n_values + 1)
        order = {
            "symbolic-equal-width": lambda c: c,
            "symbolic-similarity": lambda c: source.dictionary[c - 1],
            "symbolic-frequency": lambda c: (-counts[c], c),
        }
        steps = []
        for step in entry.steps:
            if isinstance(step, OrdinalEncoding):
                steps.append({"transform": "reorder", "permutation": step.code_map.tolist()})
                continue
            bins = []
            for b in range(1, int(step.code_map.max()) + 1):
                members = np.flatnonzero(step.code_map == b).tolist()
                if source.values is not None:
                    assert members == list(range(members[0], members[-1] + 1)), (name, b)
                    text = format_value(float(prepared.column(name).values[b - 1]),
                                        source.kind, source.pattern)
                else:
                    members.sort(key=order[step.method])
                    names = [source.dictionary[c - 1] for c in members]
                    text = names[0] if len(names) == 1 else "{" + ",".join(names) + "}"
                bins.append({"id": b, "members": members, "representative": text})
            steps.append({"transform": "binning", "method": step.method, "k": step.k,
                          "bins": bins})
        out["columns"][name] = {
            "kind": source.kind.value,
            "final_kind": entry.final_kind.value,
            "dictionary": list(source.dictionary),
            "steps": steps,
        }
    return out


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
