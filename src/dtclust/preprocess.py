"""Column transforms that make shallow trees effective: binning and class-frequency ordering.

Binning cuts the number of distinct codes a column carries; class-frequency
encoding reorders a symbolic column so that values correlated with the target
class become separable by a single threshold split.

Each step is a code map, one integer array with map[old code] = new code:
missing (0) maps to 0, and a code that no kept bin holds maps to -1. A step
rewrites its column with one gather, map[codes]. Every step is recorded in a
TransformLog, and ColumnLog.code_map() composes a column's steps, so extracted
rules can always be rendered over original values.
"""

from __future__ import annotations

import logging
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
    """A binning step; code_map[old code] = bin id, 0 for missing, -1 outside every kept bin."""

    method: str
    k: int
    bins: tuple[Bin, ...]
    code_map: np.ndarray


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
    if col.kind in _SYMBOLIC:
        return _bin_symbolic(col, method, k)
    inner = "equal-width" if method == "equal-width" else "percentile"
    return _bin_ordered(col, inner, k, f"{col.kind.value}-{method}")


def _bin_ordered(col: Column, method: str, k: int, label: str) -> tuple[BinningSpec, Column]:
    # rows per value (code - 1); values ascend with the code, so the counts
    # are the sorted column's run lengths
    counts = np.bincount(col.codes, minlength=col.n_values + 1)[1:]
    kept = np.flatnonzero(counts)
    if kept.size == 0:
        raise DataError(f"column {col.name!r} has no non-missing values to bin")
    values = col.values

    vmin, vmax = float(values[kept[0]]), float(values[kept[-1]])
    if method == "equal-width":
        all_edges = np.linspace(vmin, vmax, k + 1)
        # value v lands in bin j iff edges[j] <= v < edges[j+1]; max joins the last bin
        dict_bins = np.searchsorted(all_edges[1:-1], values, side="right")
        reps = (all_edges[:-1] + all_edges[1:]) / 2
    else:  # percentile
        ends = np.cumsum(counts)
        n = int(ends[-1])
        ranks = [int(np.ceil(i * n / k)) for i in range(1, k)]
        # the r-th smallest row value is the first value whose run ends at or after r
        edges = sorted({float(values[np.searchsorted(ends, r)]) for r in ranks if r >= 1} - {vmax})
        # value v lands in bin j iff edges[j-1] < v <= edges[j]
        dict_bins = np.searchsorted(np.array(edges), values, side="left")
        reps = edges + [vmax]

    # keep only bins with observed values, renumbered 1..m in value order
    observed = np.flatnonzero(np.bincount(dict_bins[kept], minlength=len(reps)))
    renumber = np.full(len(reps), -1, dtype=np.int32)
    renumber[observed] = np.arange(1, observed.size + 1)
    code_map = np.zeros(col.n_values + 1, dtype=np.int32)
    code_map[1:] = renumber[dict_bins]
    # values ascend with the code, so a bin's codes are one run: [start, stop)
    start = np.searchsorted(dict_bins, observed, side="left") + 1
    stop = np.searchsorted(dict_bins, observed, side="right") + 1
    rep_values = np.asarray(reps, dtype=np.float64)[observed]
    bins = tuple(
        Bin(i + 1, range(a, b), format_value(v, col.kind, col.pattern))
        for i, (a, b, v) in enumerate(zip(start.tolist(), stop.tolist(), rep_values.tolist()))
    )
    return _binned(col, label, k, bins, code_map, col.kind, rep_values)


def _bin_symbolic(col: Column, method: str, k: int) -> tuple[BinningSpec, Column]:
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
        log.warning("column %r: k=%d >= %d unique values, identity binning", col.name, k, m)
        groups = [[c] for c in range(1, m + 1)]
    elif method == "equal-width":
        groups = [list(part) for part in np.array_split(np.arange(1, m + 1), k)]
    elif method == "frequency":
        counts = np.bincount(col.codes, minlength=m + 1)
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
    bins = []
    for i, g in enumerate(groups):
        members = tuple(int(c) for c in g)
        code_map[list(members)] = i + 1
        names = [col.dictionary[c - 1] for c in members]
        bins.append(Bin(i + 1, members, names[0] if len(names) == 1 else "{" + ",".join(names) + "}"))
    return _binned(col, f"symbolic-{method}", k, tuple(bins), code_map,
                   ColumnKind.SYMBOLIC_NOMINAL, None)


def _binned(col: Column, method: str, k: int, bins: tuple[Bin, ...], code_map: np.ndarray,
            kind: ColumnKind, values: np.ndarray | None) -> tuple[BinningSpec, Column]:
    """The binning step and the column it rewrites with one gather through its code map."""
    spec = BinningSpec(method, k, bins, code_map)
    return spec, Column(col.name, kind, code_map[col.codes],
                        tuple(b.representative for b in bins), values=values, pattern=col.pattern)


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
    m = col.n_values
    totals = np.bincount(col.codes, minlength=m + 1)
    in_class = np.bincount(col.codes[labels == target_class], minlength=m + 1)
    entries = tuple(
        ValueClassCount(c, col.dictionary[c - 1], int(in_class[c]), int(totals[c]))
        for c in range(1, m + 1)
        if totals[c] > 0
    )
    return ContingencyTable(col.name, target_class, entries)


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
    m = col.n_values
    totals = np.bincount(col.codes, minlength=m + 1).astype(np.float64)
    in_class = np.bincount(col.codes[labels == target_class], minlength=m + 1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        freqs = np.where(totals[1:] > 0, in_class[1:] / totals[1:], 0.0)

    order = np.argsort(-freqs, kind="stable") + 1  # old codes, best class rate first
    perm = np.zeros(m + 1, dtype=np.int32)
    perm[order] = np.arange(1, m + 1)
    new_col = Column(
        col.name,
        ColumnKind.SYMBOLIC_ORDINAL,
        perm[col.codes],
        tuple(col.dictionary[old - 1] for old in order.tolist()),
    )
    return OrdinalEncoding(perm), new_col


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
        return {
            "numeric_bins": self.numeric_bins,
            "per_column": {name: asdict(d) for name, d in self.per_column.items()},
            "reorder_symbolic": self.reorder_symbolic,
            "high_cardinality_threshold": self.high_cardinality_threshold,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PreprocessPlan":
        """The plan of a JSON object, uncoerced; TypeError names a field of the wrong type.

        A boolean is not an integer here: type(True) is bool, not int.
        """
        numeric_bins = raw.get("numeric_bins")
        per_column = raw.get("per_column", {})
        reorder_symbolic = raw.get("reorder_symbolic", True)
        threshold = raw.get("high_cardinality_threshold", 100)
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
        final = np.arange(self.source.n_values + 1)
        for step in self.steps:
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
    ds: Dataset, plan: PreprocessPlan, target_class: int | None = None
) -> tuple[Dataset, TransformLog]:
    """Run the plan over every column, returning the transformed dataset and its log.

    The log gets one entry per surviving column (identity entries included), so
    rule rendering never lacks a record.
    """
    if plan.reorder_symbolic and target_class is None:
        raise ConfigError("reorder_symbolic requires a target class")
    plan.check(ds)

    out_columns: list[Column] = []
    logbook = TransformLog()
    for col in ds.columns:
        entry = ColumnLog(col, [], col.kind)
        current = col

        directive = plan.directive(col)
        if directive is not None:
            try:
                spec, current = bin_column(current, directive.method, directive.k)
                entry.steps.append(spec)
            except DataError as exc:
                log.warning("skipped binning for %r: %s", col.name, exc)

        if current.kind in _SYMBOLIC and current.n_values > plan.high_cardinality_threshold:
            log.warning(
                "dropping column %r: %d unique values exceed threshold %d and no binning applied",
                col.name, current.n_values, plan.high_cardinality_threshold,
            )
            logbook.dropped[col.name] = (
                f"{current.n_values} unique values exceed threshold {plan.high_cardinality_threshold}"
            )
            continue

        if plan.reorder_symbolic and current.kind is ColumnKind.SYMBOLIC_NOMINAL and current.n_values > 1:
            enc, current = encode_by_class_frequency(current, ds.labels, target_class)
            entry.steps.append(enc)

        entry.final_kind = current.kind
        out_columns.append(current)
        logbook.entries[col.name] = entry

    return Dataset(tuple(out_columns), ds.labels, ds.class_names), logbook

