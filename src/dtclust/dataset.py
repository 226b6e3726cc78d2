"""Tabular data ingestion: CSV loading, column-kind inference, ordinal encoding, profiling.

Every column is stored as an integer code array plus an ordered dictionary of the
distinct original values. Code 0 is reserved for missing cells; real values get
codes 1..m. For numeric and datetime columns the dictionary is sorted ascending
by natural value, so code order coincides with value order and the tree can
compare codes directly.

Loading splits the table into columns once and parses each present cell once:
kind inference parses a numeric column in one numpy conversion (Python float()
syntax) and a datetime column with one strptime per cell, and hands the values
to the encoder. A profile keeps the PROFILE_CATEGORY_CAP most frequent
categories of each column and counts the rest.
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

# categories per column that a profile keeps, the most frequent first
PROFILE_CATEGORY_CAP = 30

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

    def __post_init__(self) -> None:
        codes = self.codes
        if codes.size and (codes.min() < MISSING_CODE or codes.max() > len(self.dictionary)):
            raise DataError(
                f"column {self.name!r} has codes in {codes.min()}..{codes.max()}, "
                f"outside 0..{len(self.dictionary)}"
            )

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

    def class_code(self, cls: int | str | None) -> int:
        """The code of a target class; the one place a class given by a user is resolved.

        None means code 1 of a binary label, and is a ConfigError naming the
        classes with any other class count. A string is a class name, or else a
        class code written as text. An int is a class code.
        """
        if cls is None:
            if self.n_classes == 2:
                return 1
            raise ConfigError(f"--class is required with {self.n_classes} classes: "
                              f"{list(self.class_names)}")
        if isinstance(cls, str):
            if cls in self.class_names:
                return self.class_names.index(cls)
            try:
                cls = int(cls)
            except ValueError:
                raise ConfigError(f"unknown class {cls!r}; classes: {list(self.class_names)}") from None
        if not 0 <= int(cls) < self.n_classes:
            raise ConfigError(f"class code {cls} out of range; {self.n_classes} classes")
        return int(cls)

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


def _infer_one(
    present: list[str], datetime_patterns: Sequence[str]
) -> tuple[ColumnKind, str | None, np.ndarray | None]:
    """Kind and pattern of a column's present cells, plus their parsed values
    when the kind is numeric or datetime, so the encoder need not parse again.

    A column is numeric when every present cell parses as a finite number,
    datetime when one pattern parses every present cell, boolean when all
    values are in {true, false, 0, 1} (case-insensitive), symbolic-nominal
    otherwise. Symbolic-ordinal is never inferred; it requires an explicit hint.
    """
    if not present:
        return ColumnKind.SYMBOLIC_NOMINAL, None, None
    vals = _parse_numbers(present)
    if vals is not None:
        return ColumnKind.NUMERIC, None, vals
    match = _match_datetime(present, datetime_patterns)
    if match is not None:
        return ColumnKind.DATETIME, *match
    if all(c.lower() in _BOOL_TOKENS for c in present):
        return ColumnKind.BOOLEAN, None, None
    return ColumnKind.SYMBOLIC_NOMINAL, None, None


def _parse_numbers(present: list[str]) -> np.ndarray | None:
    """All cells parsed at once (numpy follows Python float() syntax); None
    unless every cell is a finite number."""
    try:
        vals = np.array(present, dtype=np.float64)
    except ValueError:
        return None
    return vals if np.isfinite(vals).all() else None


def _parse_datetimes(present: list[str], pattern: str) -> np.ndarray | None:
    """One strptime per cell; None as soon as a cell does not match the pattern."""
    out = []
    for c in present:
        v = _parse_datetime(c, pattern)
        if v is None:
            return None
        out.append(v)
    return np.array(out, dtype=np.float64)


def _match_datetime(present: list[str], patterns: Sequence[str]) -> tuple[str, np.ndarray] | None:
    """The first pattern that parses every cell, with the parsed values."""
    for pattern in patterns:
        vals = _parse_datetimes(present, pattern)
        if vals is not None:
            return pattern, vals
    return None


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
    return _encode(name, cells, [c for c in cells if c not in missing], missing, kind, pattern)


def _encode(
    name: str,
    cells: Sequence[str],
    present: list[str],
    missing: set[str],
    kind: ColumnKind,
    pattern: str | None,
    vals: np.ndarray | None = None,
) -> Column:
    """Encode one column whose present (non-missing) cells are already split out.

    vals, when given, are the parsed values of the present cells of a numeric
    or datetime column; otherwise they are parsed here, once per cell.
    """
    if kind is not ColumnKind.NUMERIC and kind is not ColumnKind.DATETIME:
        ordered_texts = sorted(set(present))
        code_of_text = {t: i + 1 for i, t in enumerate(ordered_texts)}
        codes = np.array([code_of_text.get(c, MISSING_CODE) for c in cells], dtype=np.int32)
        return Column(name, kind, codes, tuple(ordered_texts))

    if vals is None:
        vals = _parse_numbers(present) if kind is ColumnKind.NUMERIC else _parse_datetimes(present, pattern)
    if vals is None:
        parse = _parse_numbers if kind is ColumnKind.NUMERIC else (lambda c: _parse_datetimes(c, pattern))
        bad = next(c for c in present if parse([c]) is None)
        raise DataError(f"column {name!r}: cell {bad!r} does not parse as {kind.value}")
    # a stable sort: first[i] is where value i is first seen, whose text is its display form
    _, first, inverse = np.unique(vals, return_index=True, return_inverse=True)
    codes = np.zeros(len(cells), dtype=np.int32)
    if len(present) == len(cells):
        codes[:] = inverse + 1
    else:
        codes[np.fromiter((c not in missing for c in cells), bool, len(cells))] = inverse + 1
    return Column(
        name,
        kind,
        codes,
        tuple(present[i] for i in first.tolist()),
        values=vals[first],
        pattern=pattern,
    )


def _read_table(path: str, delimiter: str) -> tuple[list[str], list[list[str]]]:
    """Parse a headered CSV into stripped cells, validating shape.

    A leading UTF-8 byte-order mark is read as encoding, not as header text.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                rows = [[cell.strip() for cell in row] for row in reader if row]
            except csv.Error as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc
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


def _encode_features(names, columns, kind_hints, missing_tokens, datetime_patterns) -> list[Column]:
    """Infer (or take hinted) kinds per column and encode them all.

    columns holds each feature's cells, in the order of names. Every present
    cell of a numeric or datetime column is parsed once, by the kind inference.
    """
    hints = dict(kind_hints or {})
    missing = set(missing_tokens)
    encoded = []
    for name, cells in zip(names, columns):
        present = [c for c in cells if c not in missing]
        kind, pattern, vals = _infer_one(present, datetime_patterns)
        if name in hints:
            hint = hints.pop(name)
            hinted = ColumnKind(hint) if isinstance(hint, str) else hint
            if hinted is not kind:
                kind, pattern, vals = hinted, None, None
                if kind is ColumnKind.DATETIME:
                    match = _match_datetime(present, datetime_patterns)
                    if match is None:
                        raise DataError(f"column {name!r} hinted datetime but no pattern matches")
                    pattern, vals = match
        encoded.append(_encode(name, cells, present, missing, kind, pattern, vals))
    if hints:
        raise ConfigError(f"kind hints for unknown columns: {sorted(hints)}")
    return encoded


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

    table = list(zip(*data))
    missing = set(missing_tokens)
    label_cells = table.pop(label_idx)
    present_labels = [c for c in label_cells if c not in missing]
    if not present_labels:
        raise DataError(f"label column {header[label_idx]!r} is entirely missing")
    if len(present_labels) != len(label_cells):
        raise DataError(f"label column {header[label_idx]!r} has missing cells")
    class_names = tuple(sorted(set(label_cells)))
    class_code = {name: i for i, name in enumerate(class_names)}
    labels = np.array([class_code[c] for c in label_cells], dtype=np.int32)

    names = header[:label_idx] + header[label_idx + 1:]
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
    columns = _encode_features(header, zip(*data), kind_hints, missing_tokens, datetime_patterns)
    return Dataset(tuple(columns), None, ())


@dataclass(frozen=True)
class CategoryProfile:
    value: str
    count: int
    class_rates: tuple[float, ...]


@dataclass(frozen=True)
class ProfileReport:
    """Per-column category counts and class rates, plus overall class prevalence.

    columns keeps, per column, the PROFILE_CATEGORY_CAP categories with the
    most rows (ties by display text), in that order; n_categories counts every
    category present, kept or not.
    """

    row_count: int
    class_names: tuple[str, ...]
    class_prevalence: tuple[float, ...]
    columns: dict[str, tuple[CategoryProfile, ...]]
    n_categories: dict[str, int]


def profile(ds: Dataset) -> ProfileReport:
    """Tabulate, per column and category, how rows distribute over the classes.

    Only the PROFILE_CATEGORY_CAP categories with the most rows per column are
    built, ordered by (-count, display text); the missing marker sorts as text.
    """
    if ds.labels is None:
        raise DataError("profile requires a labelled dataset")
    n_classes = ds.n_classes
    prevalence = tuple(float(v) for v in np.bincount(ds.labels, minlength=n_classes) / ds.row_count)

    per_column: dict[str, tuple[CategoryProfile, ...]] = {}
    n_categories: dict[str, int] = {}
    for col in ds.columns:
        joint = np.bincount(
            col.codes.astype(np.int64) * n_classes + ds.labels,
            minlength=(col.n_values + 1) * n_classes,
        ).reshape(col.n_values + 1, n_classes)
        counts = joint.sum(axis=1)
        present = np.flatnonzero(counts)
        n_categories[col.name] = len(present)
        kept = _top_categories(col, present, counts)
        rates = joint[kept] / counts[kept, None]
        per_column[col.name] = tuple(
            CategoryProfile(col.decode(code), int(counts[code]), tuple(r))
            for code, r in zip(kept, rates.tolist())
        )
    return ProfileReport(ds.row_count, ds.class_names, prevalence, per_column, n_categories)


def _top_categories(col: Column, present: np.ndarray, counts: np.ndarray) -> list[int]:
    """The first PROFILE_CATEGORY_CAP of the present codes sorted by (-count, text).

    Only codes whose count reaches the cap-th largest count can qualify; the
    stable sort over them, in code order, keeps the full sort's tie order.
    """
    if len(present) > PROFILE_CATEGORY_CAP:
        present_counts = counts[present]
        floor = np.partition(present_counts, -PROFILE_CATEGORY_CAP)[-PROFILE_CATEGORY_CAP]
        present = present[present_counts >= floor]
    cnt = counts.tolist()
    ranked = sorted(present.tolist(), key=lambda c: (-cnt[c], col.decode(c)))
    return ranked[:PROFILE_CATEGORY_CAP]
