"""Tabular data ingestion: CSV loading, column-kind inference, ordinal encoding, profiling.

Every column is stored as an integer code array plus an ordered dictionary of the
distinct original values. Code 0 is reserved for missing cells; real values get
codes 1..m. For numeric and datetime columns the dictionary is sorted ascending
by natural value, so code order coincides with value order and the tree can
compare codes directly.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

MISSING_CODE = 0
MISSING_DISPLAY = "(missing)"

DEFAULT_MISSING_TOKENS = ("", "?", "NA")

DEFAULT_DATETIME_PATTERNS = (
    "%Y-%m-%d",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S",
    "%H:%M:%S",
)


class ColumnKind(Enum):
    NUMERIC = "numeric"
    SYMBOLIC_NOMINAL = "symbolic-nominal"
    SYMBOLIC_ORDINAL = "symbolic-ordinal"
    DATETIME = "datetime"
    BOOLEAN = "boolean"

    @property
    def is_ordered(self) -> bool:
        """True for kinds whose codes carry a meaningful total order (split with <=/>)."""
        return self in (ColumnKind.NUMERIC, ColumnKind.SYMBOLIC_ORDINAL, ColumnKind.DATETIME)


@dataclass(frozen=True, eq=False)
class Column:
    """One encoded column.

    codes:      per-row code, int32; 0 means missing.
    dictionary: original display value for code c at dictionary[c-1].
    values:     natural (sortable) value per dictionary entry for numeric and
                datetime columns; None for symbolic/boolean.
    pattern:    strptime pattern used to parse a datetime column.
    """

    name: str
    kind: ColumnKind
    codes: np.ndarray
    dictionary: tuple[str, ...]
    values: np.ndarray | None = None
    pattern: str | None = None

    @property
    def n_values(self) -> int:
        return len(self.dictionary)

    @property
    def has_missing(self) -> bool:
        return bool((self.codes == MISSING_CODE).any())

    def decode(self, code: int) -> str:
        """Original display text for a code; the missing sentinel decodes to a marker."""
        if code == MISSING_CODE:
            return MISSING_DISPLAY
        return self.dictionary[code - 1]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An encoded table plus (optionally) a class-label column.

    Class codes are contiguous from 0; class_names maps code -> label text.
    Immutable after construction: preprocessing builds new Dataset objects.
    """

    columns: tuple[Column, ...]
    labels: np.ndarray | None
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        n = self.row_count
        for col in self.columns:
            if len(col.codes) != n:
                raise DataError(f"column {col.name!r} has {len(col.codes)} rows, expected {n}")
        if self.labels is not None and len(self.labels) != n:
            raise DataError(f"labels have {len(self.labels)} rows, expected {n}")

    @property
    def row_count(self) -> int:
        if self.labels is not None:
            return len(self.labels)
        return len(self.columns[0].codes) if self.columns else 0

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise ConfigError(f"unknown column {name!r}")

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise ConfigError(f"unknown column {name!r}")

    def class_code(self, cls: int | str) -> int:
        if isinstance(cls, str):
            try:
                return self.class_names.index(cls)
            except ValueError:
                raise ConfigError(f"unknown class {cls!r}; classes: {list(self.class_names)}") from None
        if not 0 <= int(cls) < self.n_classes:
            raise ConfigError(f"class code {cls} out of range; {self.n_classes} classes")
        return int(cls)

    def with_column(self, new: Column) -> "Dataset":
        cols = tuple(new if c.name == new.name else c for c in self.columns)
        if all(c is not new for c in cols):
            raise ConfigError(f"unknown column {new.name!r}")
        return Dataset(cols, self.labels, self.class_names)

    def subset(self, row_ids: np.ndarray) -> "Dataset":
        """Row-sliced copy (used for bagged samples)."""
        cols = tuple(
            Column(c.name, c.kind, c.codes[row_ids], c.dictionary, c.values, c.pattern)
            for c in self.columns
        )
        labels = self.labels[row_ids] if self.labels is not None else None
        return Dataset(cols, labels, self.class_names)


def format_value(value: float, kind: ColumnKind, pattern: str | None = None) -> str:
    """Render a natural (parsed) value back to display text."""
    if kind is ColumnKind.DATETIME:
        if pattern and ("%Y" in pattern or "%y" in pattern):
            return datetime.fromtimestamp(value, tz=timezone.utc).strftime(pattern)
        secs = int(round(value))
        return f"{secs // 3600:02d}:{secs % 3600 // 60:02d}:{secs % 60:02d}"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _parse_number(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    if not np.isfinite(v):
        return None
    return v


def _parse_datetime(text: str, pattern: str) -> float | None:
    try:
        dt = datetime.strptime(text, pattern)
    except ValueError:
        return None
    if dt.year == 1900 and "%Y" not in pattern and "%y" not in pattern:
        # time-of-day pattern: natural value is seconds since midnight
        return dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond / 1e6
    return dt.replace(tzinfo=timezone.utc).timestamp()


_BOOL_TOKENS = {"true", "false", "0", "1"}


def infer_kinds(
    raw_table: Sequence[Sequence[str]],
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    datetime_patterns: Sequence[str] = DEFAULT_DATETIME_PATTERNS,
) -> list[tuple[ColumnKind, str | None]]:
    """Infer a kind (and datetime pattern) for each column of a parsed text table.

    A column is numeric when every non-missing cell parses as a finite number,
    datetime when one pattern parses every non-missing cell, boolean when all
    values are in {true, false, 0, 1} (case-insensitive), symbolic-nominal
    otherwise. Symbolic-ordinal is never inferred; it requires an explicit hint.
    """
    if not raw_table or not raw_table[0]:
        raise DataError("cannot infer kinds of an empty table")
    n_cols = len(raw_table[0])
    missing = set(missing_tokens)
    out: list[tuple[ColumnKind, str | None]] = []
    for j in range(n_cols):
        cells = [row[j] for row in raw_table if row[j] not in missing]
        out.append(_infer_one(cells, datetime_patterns))
    return out


def _infer_one(cells: list[str], datetime_patterns: Sequence[str]) -> tuple[ColumnKind, str | None]:
    if not cells:
        return ColumnKind.SYMBOLIC_NOMINAL, None
    if all(_parse_number(c) is not None for c in cells):
        return ColumnKind.NUMERIC, None
    for pattern in datetime_patterns:
        if all(_parse_datetime(c, pattern) is not None for c in cells):
            return ColumnKind.DATETIME, pattern
    if all(c.lower() in _BOOL_TOKENS for c in cells):
        return ColumnKind.BOOLEAN, None
    return ColumnKind.SYMBOLIC_NOMINAL, None


def encode_column(
    name: str,
    cells: Sequence[str],
    kind: ColumnKind,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    pattern: str | None = None,
) -> Column:
    """Encode raw text cells into a Column of the given kind.

    Numeric and datetime columns key dictionary entries by parsed value (the
    first-seen text is kept as the display form), so the dictionary order is
    exactly the natural value order. Symbolic and boolean dictionaries are
    sorted lexicographically.
    """
    missing = set(missing_tokens)
    present = [c for c in cells if c not in missing]

    if kind is ColumnKind.NUMERIC or kind is ColumnKind.DATETIME:
        parse = _parse_number if kind is ColumnKind.NUMERIC else (lambda t: _parse_datetime(t, pattern))
        by_value: dict[float, str] = {}
        for c in present:
            v = parse(c)
            if v is None:
                raise DataError(f"column {name!r}: cell {c!r} does not parse as {kind.value}")
            by_value.setdefault(v, c)
        ordered = sorted(by_value)
        code_of = {v: i + 1 for i, v in enumerate(ordered)}
        codes = np.array(
            [MISSING_CODE if c in missing else code_of[parse(c)] for c in cells], dtype=np.int32
        )
        return Column(
            name,
            kind,
            codes,
            tuple(by_value[v] for v in ordered),
            values=np.array(ordered, dtype=np.float64),
            pattern=pattern,
        )

    ordered_texts = sorted(set(present))
    code_of_text = {t: i + 1 for i, t in enumerate(ordered_texts)}
    codes = np.array(
        [MISSING_CODE if c in missing else code_of_text[c] for c in cells], dtype=np.int32
    )
    return Column(name, kind, codes, tuple(ordered_texts))


def _read_table(path: str, delimiter: str) -> tuple[list[str], list[list[str]]]:
    """Parse a headered CSV into stripped cells, validating shape."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            rows = [[cell.strip() for cell in row] for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, data = rows[0], rows[1:]
    if not data:
        raise DataError(f"{path}: no data rows")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate header names {dupes}")
    for i, row in enumerate(data):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}")
    return header, data


def _encode_features(names, table, kind_hints, missing_tokens, datetime_patterns) -> list[Column]:
    """Infer (or take hinted) kinds per column and encode them all."""
    hints = dict(kind_hints or {})
    inferred = infer_kinds(table, missing_tokens, datetime_patterns) if names else []
    columns = []
    for pos, name in enumerate(names):
        kind, pattern = inferred[pos]
        if name in hints:
            hint = hints.pop(name)
            kind = ColumnKind(hint) if isinstance(hint, str) else hint
            if kind is not ColumnKind.DATETIME:
                pattern = None
            elif pattern is None:
                pattern = _first_matching_pattern(table, pos, set(missing_tokens),
                                                  datetime_patterns, name)
        columns.append(encode_column(name, [row[pos] for row in table], kind,
                                     missing_tokens, pattern))
    if hints:
        raise ConfigError(f"kind hints for unknown columns: {sorted(hints)}")
    return columns


def load_csv(
    path: str,
    label: str | int | None = None,
    kind_hints: Mapping[str, ColumnKind | str] | None = None,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    datetime_patterns: Sequence[str] = DEFAULT_DATETIME_PATTERNS,
    delimiter: str = ",",
) -> Dataset:
    """Load a headered CSV into an encoded Dataset.

    label selects the class column by name or position (default: last column).
    Cells are stripped of surrounding whitespace before matching missing tokens.
    kind_hints overrides inference per column name, e.g. {"grade": "symbolic-ordinal"}.
    """
    header, data = _read_table(path, delimiter)

    if label is None:
        label_idx = len(header) - 1
    elif isinstance(label, int):
        if not 0 <= label < len(header):
            raise ConfigError(f"label index {label} out of range")
        label_idx = label
    else:
        if label not in header:
            raise ConfigError(f"label column {label!r} not in header {header}")
        label_idx = header.index(label)

    missing = set(missing_tokens)
    label_cells = [row[label_idx] for row in data]
    present_labels = [c for c in label_cells if c not in missing]
    if not present_labels:
        raise DataError(f"label column {header[label_idx]!r} is entirely missing")
    if len(present_labels) != len(label_cells):
        raise DataError(f"label column {header[label_idx]!r} has missing cells")
    class_names = tuple(sorted(set(label_cells)))
    class_code = {name: i for i, name in enumerate(class_names)}
    labels = np.array([class_code[c] for c in label_cells], dtype=np.int32)

    feature_idx = [j for j in range(len(header)) if j != label_idx]
    table = [[row[j] for j in feature_idx] for row in data]
    names = [header[j] for j in feature_idx]
    columns = _encode_features(names, table, kind_hints, missing_tokens, datetime_patterns)

    ds = Dataset(tuple(columns), labels, class_names)
    log.info("loaded %s: %d rows, %d feature columns, %d classes",
             path, ds.row_count, len(columns), ds.n_classes)
    return ds


def load_features_csv(
    path: str,
    kind_hints: Mapping[str, ColumnKind | str] | None = None,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    datetime_patterns: Sequence[str] = DEFAULT_DATETIME_PATTERNS,
    delimiter: str = ",",
) -> Dataset:
    """Load a headered CSV that has no class column (all columns become features)."""
    header, data = _read_table(path, delimiter)
    columns = _encode_features(header, data, kind_hints, missing_tokens, datetime_patterns)
    return Dataset(tuple(columns), None, ())


def _first_matching_pattern(table, pos, missing, patterns, name):
    cells = [row[pos] for row in table if row[pos] not in missing]
    for pattern in patterns:
        if all(_parse_datetime(c, pattern) is not None for c in cells):
            return pattern
    raise DataError(f"column {name!r} hinted datetime but no pattern matches")


@dataclass(frozen=True)
class CategoryProfile:
    value: str
    count: int
    class_rates: tuple[float, ...]


@dataclass(frozen=True)
class ProfileReport:
    """Per-column category counts and class rates, plus overall class prevalence."""

    row_count: int
    class_names: tuple[str, ...]
    class_prevalence: tuple[float, ...]
    columns: dict[str, tuple[CategoryProfile, ...]]

    def rate(self, column: str, value: str, cls: int) -> float:
        for cat in self.columns[column]:
            if cat.value == value:
                return cat.class_rates[cls]
        raise KeyError(f"{value!r} not found in column {column!r}")


def profile(ds: Dataset) -> ProfileReport:
    """Tabulate, per column and category, how rows distribute over the classes."""
    if ds.labels is None:
        raise DataError("profile requires a labelled dataset")
    n_classes = ds.n_classes
    prevalence = tuple(float(v) for v in np.bincount(ds.labels, minlength=n_classes) / ds.row_count)

    per_column: dict[str, tuple[CategoryProfile, ...]] = {}
    for col in ds.columns:
        joint = np.bincount(
            col.codes.astype(np.int64) * n_classes + ds.labels,
            minlength=(col.n_values + 1) * n_classes,
        ).reshape(col.n_values + 1, n_classes)
        cats = []
        for code in np.flatnonzero(joint.any(axis=1)):
            dist = joint[code]
            count = int(dist.sum())
            cats.append(CategoryProfile(col.decode(int(code)), count, tuple(float(v) for v in dist / count)))
        per_column[col.name] = tuple(cats)
    return ProfileReport(ds.row_count, ds.class_names, prevalence, per_column)
