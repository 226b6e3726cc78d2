"""Column transforms that make shallow trees effective: binning and class-frequency ordering.

Binning cuts the number of distinct codes a column carries; class-frequency
encoding reorders a symbolic column so that values correlated with the target
class become separable by a single threshold split.

Each step is a code map, one integer array with map[old code] = new code:
missing (0) maps to 0, and a code that no kept bin holds maps to -1. Every step
is fit from per-code row counts alone, so apply_plan counts each column once,
(code x in-target-class), over the rows it fits; with rows= those are a
sample's rows of the one encoded table, and no row-sliced copy is made. A
column's steps are composed into one map (ColumnLog.code_map()) and the column
is rewritten with one gather through it. Every step is recorded in a
TransformLog, so extracted rules can always be rendered over original values.
A step is plain data, fit with its display text: a binning's members and
representatives and a reordered column's dictionary are tuples, so a prepared
dataset and its log can be written out or pickled like a loaded one.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import Column, ColumnKind, Dataset, MISSING_CODE, format_value
from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Transform steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bin:
    """One kept bin, as report.json and display show it.

    members are the previous step's codes the bin holds: a range for an ordered
    column, a tuple in group order for a symbolic one.
    """

    id: int
    members: range | tuple[int, ...]
    representative: str


@dataclass(frozen=True, eq=False)
class BinningSpec:
    """A binning step; code_map[old code] = bin id, 0 for missing, -1 outside every kept bin.

    members[i] are the previous step's codes that bin i + 1 holds, and
    representatives[i] is that bin's display text.
    """

    method: str
    k: int
    code_map: np.ndarray
    members: tuple[range | tuple[int, ...], ...]
    representatives: tuple[str, ...]

    @property
    def bins(self) -> tuple[Bin, ...]:
        return tuple(Bin(i + 1, members, text)
                     for i, (members, text) in enumerate(zip(self.members, self.representatives)))


@dataclass(frozen=True, eq=False)
class OrdinalEncoding:
    """A reordering step; code_map is a permutation, code_map[old code] = new code, 0 fixed."""

    code_map: np.ndarray


Transform = BinningSpec | OrdinalEncoding


_SYMBOLIC = (ColumnKind.SYMBOLIC_NOMINAL, ColumnKind.SYMBOLIC_ORDINAL)

# The binning methods a directive may name, per binnable kind.
_SYMBOLIC_METHODS = ("frequency", "equal-width", "similarity")
BINNING_METHODS = {
    ColumnKind.NUMERIC: ("percentile", "equal-width"),
    ColumnKind.DATETIME: ("frequency", "equal-width"),
    ColumnKind.SYMBOLIC_NOMINAL: _SYMBOLIC_METHODS,
    ColumnKind.SYMBOLIC_ORDINAL: _SYMBOLIC_METHODS,
}


def check_binning(col: Column, method: str, k: int) -> None:
    """Raise ConfigError unless method can bin a column of col's kind into k >= 2 bins.

    Decided from the kind alone, never from the values the column holds, so a
    plan is checked before any work and whatever rows a sample draws.
    """
    methods = BINNING_METHODS.get(col.kind)
    if methods is None:
        raise ConfigError(f"cannot bin a {col.kind.value} column ({col.name!r})")
    if method not in methods:
        raise ConfigError(f"unknown {col.kind.value} binning method {method!r} for column "
                          f"{col.name!r}; expected one of {', '.join(methods)}")
    if k < 2:
        raise ConfigError(f"binning needs k >= 2, got {k}")


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

def bin_column(col: Column, method: str, k: int) -> tuple[BinningSpec, Column]:
    """Replace a column's codes by at most k bin ids, by a method of its kind.

    Numeric and datetime columns are cut into value intervals: equal-width cuts
    [min, max] into k spans of equal width (last span closed); percentile
    (numeric) and frequency (datetime) place edges at the i*n/k rank quantiles
    of the row values, so each bin holds roughly the same number of rows.
    Duplicate edges collapse. Symbolic columns are grouped by _bin_symbolic.
    """
    check_binning(col, method, k)
    spec, kind, values = _fit_binning(
        col, np.bincount(col.codes, minlength=col.n_values + 1), method, k, logging.WARNING)
    return spec, Column(col.name, kind, spec.code_map[col.codes], spec.representatives,
                        values=values, pattern=col.pattern)


def _fit_binning(col: Column, counts: np.ndarray, method: str, k: int, level: int
                 ) -> tuple[BinningSpec, ColumnKind, np.ndarray | None]:
    """The binning of col fit from counts[c], the rows of code c (0 included) it is fit
    on, and the rewritten column's kind and natural values."""
    if col.kind in _SYMBOLIC:
        return _bin_symbolic(col, counts, method, k, level), ColumnKind.SYMBOLIC_NOMINAL, None
    inner = "equal-width" if method == "equal-width" else "percentile"
    spec, values = _bin_ordered(col, counts, inner, k, f"{col.kind.value}-{method}")
    return spec, col.kind, values


def _bin_ordered(col: Column, counts: np.ndarray, method: str, k: int, label: str
                 ) -> tuple[BinningSpec, np.ndarray]:
    """The interval binning and each kept bin's natural value."""
    # values ascend with the code, so ends[i] counts the rows up to value i and
    # a bin's values are one run of codes: the run starts where an edge is
    # searched into the values, with no search per value
    ends = np.cumsum(counts[1:])
    n = int(ends[-1]) if ends.size else 0
    if n == 0:
        raise DataError(f"column {col.name!r} has no non-missing values to bin")
    values = col.values
    # the first and last values that hold rows
    vmin = float(values[np.searchsorted(ends, 0, side="right")])
    vmax = float(values[np.searchsorted(ends, n, side="left")])
    if method == "equal-width":
        all_edges = np.linspace(vmin, vmax, k + 1)
        # value v lands in bin j iff edges[j] <= v < edges[j+1]; max joins the last bin
        bounds = np.searchsorted(values, all_edges[1:-1], side="left")
        reps = (all_edges[:-1] + all_edges[1:]) / 2
    else:  # percentile
        ranks = np.ceil(np.arange(1, k) * n / k)
        # the r-th smallest row value is the first value whose run ends at or after r
        edges = np.unique(values[np.searchsorted(ends, ranks[ranks >= 1])])
        edges = edges[edges != vmax]
        # value v lands in bin j iff edges[j-1] < v <= edges[j]
        bounds = np.searchsorted(values, edges, side="right")
        reps = np.append(edges, vmax)

    # bin j holds the values starts[j] .. starts[j+1] - 1 (code = value index + 1)
    starts = np.concatenate(([0], bounds, [values.size]))
    rows_before = np.concatenate(([0], ends))
    # keep only bins with observed values, renumbered 1..m in value order
    observed = np.flatnonzero(rows_before[starts[1:]] - rows_before[starts[:-1]])
    renumber = np.full(len(reps), -1, dtype=np.int32)
    renumber[observed] = np.arange(1, observed.size + 1)
    code_map = np.zeros(col.n_values + 1, dtype=np.int32)
    code_map[1:] = np.repeat(renumber, np.diff(starts))
    rep_values = np.asarray(reps, dtype=np.float64)[observed]
    members = tuple(map(range, (starts[observed] + 1).tolist(), (starts[observed + 1] + 1).tolist()))
    texts = tuple(format_value(v, col.kind, col.pattern) for v in rep_values.tolist())
    return BinningSpec(label, k, code_map, members, texts), rep_values


def _bin_symbolic(col: Column, counts: np.ndarray, method: str, k: int, level: int
                  ) -> BinningSpec:
    """Group a symbolic column's values into at most k bins.

    equal-width chops the current dictionary order into near-equal groups;
    frequency sorts values by occurrence count and greedily packs them so each
    bin's joint mass approaches rows/k; similarity sorts values lexicographically
    and cuts at the k-1 adjacent pairs with the largest Jaro-Winkler distance.
    """
    m = col.n_values
    if m < 2:
        raise DataError(f"column {col.name!r} needs >= 2 unique values to bin")

    if k >= m:
        log.log(level, "column %r: k=%d >= %d unique values, identity binning", col.name, k, m)
        groups = [[c] for c in range(1, m + 1)]
    elif method == "equal-width":
        groups = [part.tolist() for part in np.array_split(np.arange(1, m + 1), k)]
    elif method == "frequency":
        total = int(counts[1:].sum())
        order = sorted(range(1, m + 1), key=lambda c: (-counts[c], c))
        target = total / k
        groups, current, mass = [], [], 0
        for c in order:
            current.append(c)
            mass += int(counts[c])
            if mass >= target and len(groups) < k - 1:
                groups.append(current)
                current, mass = [], 0
        if current:
            groups.append(current)
    else:  # similarity
        order = sorted(range(1, m + 1), key=lambda c: col.dictionary[c - 1])
        gaps = [1.0 - jaro_winkler(col.dictionary[order[i] - 1], col.dictionary[order[i + 1] - 1])
                for i in range(m - 1)]
        cuts = sorted(sorted(range(m - 1), key=lambda i: (-gaps[i], i))[: k - 1])
        groups, start = [], 0
        for cut in cuts:
            groups.append(order[start:cut + 1])
            start = cut + 1
        groups.append(order[start:])

    code_map = np.full(m + 1, -1, dtype=np.int32)
    code_map[MISSING_CODE] = MISSING_CODE
    texts = []
    for i, g in enumerate(groups):
        code_map[g] = i + 1
        names = [col.dictionary[c - 1] for c in g]
        texts.append(names[0] if len(names) == 1 else "{" + ",".join(names) + "}")
    return BinningSpec(f"symbolic-{method}", k, code_map, tuple(map(tuple, groups)), tuple(texts))


# ---------------------------------------------------------------------------
# String similarity
# ---------------------------------------------------------------------------

def jaro_winkler(a: str, b: str) -> float:
    """Jaro-Winkler similarity in [0, 1]; prefix scale 0.1, prefix cap 4, boost above 0.7."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0

    window = max(max(la, lb) // 2 - 1, 0)
    matched_a = [False] * la
    matched_b = [False] * lb
    matches = 0
    for i in range(la):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        for j in range(lo, hi):
            if not matched_b[j] and a[i] == b[j]:
                matched_a[i] = matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    seq_a = [a[i] for i in range(la) if matched_a[i]]
    seq_b = [b[j] for j in range(lb) if matched_b[j]]
    transpositions = sum(x != y for x, y in zip(seq_a, seq_b)) / 2

    jaro = (matches / la + matches / lb + (matches - transpositions) / matches) / 3
    if jaro > 0.7:
        prefix = 0
        for x, y in zip(a, b):
            if x != y or prefix == 4:
                break
            prefix += 1
        jaro += prefix * 0.1 * (1.0 - jaro)
    return jaro


# ---------------------------------------------------------------------------
# Class-frequency ordinal encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueClassCount:
    code: int
    value: str
    in_class: int
    total: int

    @property
    def frequency(self) -> float:
        return self.in_class / self.total if self.total else 0.0


@dataclass(frozen=True)
class ContingencyTable:
    column: str
    target_class: int
    entries: tuple[ValueClassCount, ...]


def build_contingency(col: Column, labels: np.ndarray, target_class: int) -> ContingencyTable:
    """Per unique value: how often its rows belong to the target class."""
    if col.kind not in (ColumnKind.SYMBOLIC_NOMINAL, ColumnKind.SYMBOLIC_ORDINAL, ColumnKind.BOOLEAN):
        raise ConfigError(f"contingency table expects a symbolic column, got {col.kind.value}")
    counts = _class_counts(col.codes, labels == target_class, col.n_values)
    entries = tuple(
        ValueClassCount(c, col.dictionary[c - 1], int(hits), int(hits + misses))
        for c, (misses, hits) in enumerate(counts.tolist())
        if c and hits + misses
    )
    return ContingencyTable(col.name, target_class, entries)


def _class_counts(codes: np.ndarray, hits: np.ndarray, m: int) -> np.ndarray:
    """(m + 1) x 2 rows per code, split by hits: [:, 0] outside, [:, 1] in the target class."""
    return np.bincount(codes * 2 + hits, minlength=2 * (m + 1)).reshape(m + 1, 2)


def _frequency_order(counts: np.ndarray) -> np.ndarray:
    """The old codes, best target-class rate first, from _class_counts; ties keep code order."""
    totals = counts.sum(axis=1)[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        freqs = np.where(totals > 0, counts[1:, 1] / totals, 0.0)
    return np.argsort(-freqs, kind="stable") + 1


def _reorder(order: np.ndarray, texts: Sequence[str]) -> tuple[OrdinalEncoding, tuple[str, ...]]:
    """The reordering step that gives old code order[i] the new code i + 1, and its dictionary."""
    m = order.size
    perm = np.zeros(m + 1, dtype=np.int32)
    perm[order] = np.arange(1, m + 1)
    return OrdinalEncoding(perm), tuple(texts[old - 1] for old in order.tolist())


def encode_by_class_frequency(
    col: Column, labels: np.ndarray, target_class: int
) -> tuple[OrdinalEncoding, Column]:
    """Reorder a symbolic column's dictionary by target-class frequency, descending.

    Values that concentrate the target class end up adjacent at the low-code end,
    so one <= split can separate them. Ties keep the prior dictionary order.
    The returned column is symbolic-ordinal.
    """
    if col.kind not in _SYMBOLIC:
        raise ConfigError(f"cannot frequency-encode a {col.kind.value} column")
    counts = _class_counts(col.codes, labels == target_class, col.n_values)
    enc, texts = _reorder(_frequency_order(counts), col.dictionary)
    return enc, Column(col.name, ColumnKind.SYMBOLIC_ORDINAL, enc.code_map[col.codes], texts)


# ---------------------------------------------------------------------------
# Whole-table plans and the transform log
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinDirective:
    method: str
    k: int


@dataclass
class PreprocessPlan:
    """What to do to each column before training.

    numeric_bins, when set, percentile-bins every numeric column with that k.
    per_column overrides or adds directives by column name. reorder_symbolic
    applies class-frequency encoding to every (post-binning) nominal symbolic
    column. Symbolic columns that still exceed high_cardinality_threshold
    distinct values are dropped with a warning.
    """

    numeric_bins: int | None = None
    per_column: dict[str, BinDirective] = field(default_factory=dict)
    reorder_symbolic: bool = True
    high_cardinality_threshold: int = 100

    def __post_init__(self) -> None:
        if self.high_cardinality_threshold < 0:
            raise ConfigError("high_cardinality_threshold must be >= 0, "
                              f"got {self.high_cardinality_threshold}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "PreprocessPlan":
        """The plan of a JSON object, uncoerced; TypeError names a field of the wrong type.

        A boolean is not an integer here: type(True) is bool, not int.
        """
        numeric_bins = raw.get("numeric_bins", cls.numeric_bins)
        per_column = raw.get("per_column", {})
        reorder_symbolic = raw.get("reorder_symbolic", cls.reorder_symbolic)
        threshold = raw.get("high_cardinality_threshold", cls.high_cardinality_threshold)
        if numeric_bins is not None and type(numeric_bins) is not int:
            raise TypeError("'numeric_bins' must be an integer or null")
        if not isinstance(per_column, dict) or not all(
                isinstance(e, dict) and isinstance(e.get("method"), str) and type(e.get("k")) is int
                for e in per_column.values()):
            raise TypeError("'per_column' must map column names to "
                            "{\"method\": string, \"k\": integer} objects")
        if type(reorder_symbolic) is not bool:
            raise TypeError("'reorder_symbolic' must be true or false")
        if type(threshold) is not int:
            raise TypeError("'high_cardinality_threshold' must be an integer")
        per_column = {name: BinDirective(e["method"], e["k"]) for name, e in per_column.items()}
        return cls(numeric_bins, per_column, reorder_symbolic, threshold)

    def directive(self, col: Column) -> BinDirective | None:
        """How col is binned: its per_column entry, else numeric_bins for a numeric column."""
        directive = self.per_column.get(col.name)
        if directive is None and self.numeric_bins is not None and col.kind is ColumnKind.NUMERIC:
            directive = BinDirective("percentile", self.numeric_bins)
        return directive

    def check(self, ds: Dataset) -> None:
        """Raise ConfigError unless every directive names a column of ds that it can bin."""
        for name in self.per_column:
            ds.column(name)
        for col in ds.columns:
            directive = self.directive(col)
            if directive is not None:
                check_binning(col, directive.method, directive.k)


@dataclass
class ColumnLog:
    """One column's transforms: the source column as loaded, its steps, and its final kind.

    source is the column of the dataset the plan ran on; its kind, dictionary,
    values and missing cells are what rules are rendered over.
    """

    source: Column
    steps: list[Transform]
    final_kind: ColumnKind

    def code_map(self) -> np.ndarray:
        """The steps' code maps composed: map[original code] = final code.

        Missing (0) maps to 0; an original code that no kept bin holds maps to -1.
        """
        if not self.steps:
            return np.arange(self.source.n_values + 1)
        final = self.steps[0].code_map
        for step in self.steps[1:]:
            final = np.where(final < 0, -1, step.code_map[final])
        return final


@dataclass
class TransformLog:
    entries: dict[str, ColumnLog] = field(default_factory=dict)
    dropped: dict[str, str] = field(default_factory=dict)

    def for_column(self, name: str) -> ColumnLog:
        try:
            return self.entries[name]
        except KeyError:
            raise ConfigError(f"no transform record for column {name!r}") from None

    def to_dict(self) -> dict:
        out: dict = {"columns": {}, "dropped": dict(self.dropped)}
        for name, entry in self.entries.items():
            steps = []
            for step in entry.steps:
                if isinstance(step, BinningSpec):
                    steps.append({
                        "transform": "binning",
                        "method": step.method,
                        "k": step.k,
                        "bins": [
                            {"id": b.id, "members": list(b.members), "representative": b.representative}
                            for b in step.bins
                        ],
                    })
                else:
                    steps.append({"transform": "reorder", "permutation": step.code_map.tolist()})
            out["columns"][name] = {
                "kind": entry.source.kind.value,
                "final_kind": entry.final_kind.value,
                "dictionary": list(entry.source.dictionary),
                "steps": steps,
            }
        return out


def apply_plan(
    ds: Dataset, plan: PreprocessPlan, target_class: int | None = None,
    rows: np.ndarray | None = None,
) -> tuple[Dataset, TransformLog]:
    """Run the plan over every column, returning the transformed dataset and its log.

    rows, when given, are row ids of ds: the plan is fit on those rows alone
    and the returned dataset holds them, in that order, as if the plan ran on a
    copy of ds cut to those rows. No such copy is made: each column's codes are
    gathered once, counted once per (code, in target class or not), and mapped
    with one gather through the composed map of its steps. The log's source
    columns are ds's own, so rules render over the whole table. A fit on rows
    repeats what a fit on the whole table already said, so its warnings are
    logged at DEBUG. A transformed column's dictionary is built as its steps
    are fit: the bins' representatives, then the texts in reordered code order.

    The log gets one entry per surviving column (identity entries included), so
    rule rendering never lacks a record.
    """
    if plan.reorder_symbolic and target_class is None:
        raise ConfigError("reorder_symbolic requires a target class")
    plan.check(ds)

    labels = ds.labels if rows is None or ds.labels is None else ds.labels.take(rows)
    hits = labels == target_class if plan.reorder_symbolic else None
    level = logging.WARNING if rows is None else logging.DEBUG
    out_columns: list[Column] = []
    logbook = TransformLog()
    for col in ds.columns:
        codes = col.codes if rows is None else col.codes.take(rows)
        kind, n, values, texts = col.kind, col.n_values, col.values, col.dictionary
        steps: list[Transform] = []
        # one count per column: by code and class where a reordering may follow, else by code
        counts = None
        if plan.reorder_symbolic and kind in _SYMBOLIC:
            counts = _class_counts(codes, hits, n)
        directive = plan.directive(col)
        if directive is not None:
            totals = np.bincount(codes, minlength=n + 1) if counts is None else counts.sum(axis=1)
            try:
                spec, kind, values = _fit_binning(col, totals, directive.method, directive.k, level)
            except DataError as exc:
                log.log(level, "skipped binning for %r: %s", col.name, exc)
            else:
                steps.append(spec)
                texts = spec.representatives
                n = len(texts)

        if kind in _SYMBOLIC and n > plan.high_cardinality_threshold:
            log.log(
                level,
                "dropping column %r: %d unique values exceed threshold %d and no binning applied",
                col.name, n, plan.high_cardinality_threshold,
            )
            logbook.dropped[col.name] = (
                f"{n} unique values exceed threshold {plan.high_cardinality_threshold}"
            )
            continue

        if plan.reorder_symbolic and kind is ColumnKind.SYMBOLIC_NOMINAL and n > 1:
            if steps:
                # only a symbolic binning comes first, and it maps every code to a bin
                keys = (steps[0].code_map[:, None] * 2 + [0, 1]).ravel()
                counts = np.bincount(keys, weights=counts.ravel(),
                                     minlength=2 * (n + 1)).reshape(n + 1, 2)
            enc, texts = _reorder(_frequency_order(counts), texts)
            steps.append(enc)
            kind, values = ColumnKind.SYMBOLIC_ORDINAL, None

        entry = ColumnLog(col, steps, kind)
        logbook.entries[col.name] = entry
        if steps:
            codes = entry.code_map().take(codes)
        elif rows is None:
            out_columns.append(col)
            continue
        out_columns.append(Column(col.name, kind, codes, texts, values=values, pattern=col.pattern))

    return Dataset(tuple(out_columns), labels, ds.class_names), logbook
