"""Tabular data ingestion: CSV loading, column-kind inference, ordinal encoding, profiling.

Every column is stored as an integer code array plus an ordered dictionary of the
distinct original values. Code 0 is reserved for missing cells; real values get
codes 1..m. For numeric and datetime columns the dictionary is sorted ascending
by natural value, so code order coincides with value order and the tree can
compare codes directly.

Loading reads the raw cells and splits them into columns once. No Python-level
loop then runs over a column's cells; the per-cell work is left to C (csv,
dict, map, numpy):

1. A column that may be numeric (no kind hint, or a numeric one) is parsed
   from its raw cells in one numpy conversion, with Python float() syntax. If
   every cell is a finite number, it is a numeric column with no missing cell
   and np.unique gives its codes; only the display text of each value is
   stripped. The step is skipped when a missing token itself parses as a
   number, since such cells must still read as missing.
2. Any other column, and the label, is interned: its distinct texts in
   first-seen order and each cell's index into them. Stripping (texts that
   strip alike merge), missing-token tests, kind inference, datetime parsing
   and the dictionary then work on the distinct texts, and one gather maps
   every cell to its code.

A profile keeps the PROFILE_CATEGORY_CAP most frequent categories of each
column and counts the rest.
"""

from __future__ import annotations

import csv
import heapq
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from itertools import compress, count
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

    def natural_value(self, text: str) -> float | None:
        """The value a text stands for on a numeric or datetime column, parsed
        as the loader parses a cell; None when it does not parse or the column
        is of another kind."""
        text = text.strip()
        if self.kind is ColumnKind.NUMERIC:
            vals = _parse_numbers([text])
            return None if vals is None else float(vals[0])
        if self.kind is ColumnKind.DATETIME and self.pattern is not None:
            return _parse_datetime(text, self.pattern)
        return None


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
    """Kind and pattern of a column's distinct present texts, plus their parsed
    values when the kind is numeric or datetime, so the encoder need not parse again.

    A column is numeric when every present text parses as a finite number,
    datetime when one pattern parses every present text, boolean when all
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


def _parse_numbers(texts: Sequence[str]) -> np.ndarray | None:
    """All texts parsed at once (numpy follows Python float() syntax, which
    ignores surrounding whitespace); None unless every text is a finite number.

    numpy reads every text before it raises, so the first text is tried alone
    first: when it fails, the whole column cannot parse.
    """
    try:
        np.array(texts[:1], dtype=np.float64)
        vals = np.array(texts, dtype=np.float64)
    except ValueError:
        return None
    return vals if np.isfinite(vals).all() else None


def _parse_datetimes(texts: Sequence[str], pattern: str) -> np.ndarray | None:
    """One strptime per text; None as soon as a text does not match the pattern."""
    out = []
    for c in texts:
        v = _parse_datetime(c, pattern)
        if v is None:
            return None
        out.append(v)
    return np.array(out, dtype=np.float64)


def _match_datetime(texts: Sequence[str], patterns: Sequence[str]) -> tuple[str, np.ndarray] | None:
    """The first pattern that parses every text, with the parsed values."""
    for pattern in patterns:
        vals = _parse_datetimes(texts, pattern)
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
    """Encode raw text cells into a Column of the given kind, as the loader does.

    Cells are stripped of surrounding whitespace. Numeric and datetime columns
    key dictionary entries by parsed value (the text of the first row holding
    the value is its display form), so the dictionary order is exactly the
    natural value order. Symbolic and boolean dictionaries are sorted
    lexicographically. A datetime column without a pattern takes the first
    default pattern that parses every present cell.
    """
    return _encode_cells(name, cells, kind, frozenset(missing_tokens), DEFAULT_DATETIME_PATTERNS, pattern)


def _encode_cells(
    name: str,
    cells: Sequence[str],
    kind: ColumnKind | None,
    missing: frozenset[str],
    datetime_patterns: Sequence[str],
    pattern: str | None = None,
) -> Column:
    """Encode one column of raw cells; kind None infers it.

    A column that may be numeric is first parsed from its raw cells in one
    numpy call. A cell that parses reads as its stripped text would: float()
    ignores surrounding whitespace, all of which str.strip removes. So when
    every cell is a finite number and no missing token is one, no cell is
    missing. Any other column is interned, and the rest of the work is per
    distinct text.
    """
    if kind in (None, ColumnKind.NUMERIC) and not any(_parse_numbers([t]) is not None for t in missing):
        vals = _parse_numbers(cells)
        if vals is not None:
            # a stable sort: first[i] is the row where value i is first seen
            _, first, inverse = np.unique(vals, return_index=True, return_inverse=True)
            dictionary = tuple(cells[i].strip() for i in first.tolist())
            return Column(name, ColumnKind.NUMERIC, (inverse + 1).astype(np.int32), dictionary,
                          values=vals[first])

    texts, ids = _intern(cells)
    is_present = [t not in missing for t in texts]
    present = list(compress(texts, is_present))
    vals = None
    if kind is None:
        kind, pattern, vals = _infer_one(present, datetime_patterns)
    elif kind is ColumnKind.DATETIME and pattern is None:
        match = _match_datetime(present, datetime_patterns)
        if match is None:
            raise DataError(f"column {name!r} hinted datetime but no pattern matches")
        pattern, vals = match

    if kind is not ColumnKind.NUMERIC and kind is not ColumnKind.DATETIME:
        ordered = sorted(present)
        code_of_text = dict(zip(ordered, range(1, len(ordered) + 1)))
        table = np.array([code_of_text.get(t, MISSING_CODE) for t in texts], dtype=np.int32)
        return Column(name, kind, table[ids], tuple(ordered))

    if vals is None:
        vals = _parse_numbers(present) if kind is ColumnKind.NUMERIC else _parse_datetimes(present, pattern)
    if vals is None:
        parse = _parse_numbers if kind is ColumnKind.NUMERIC else (lambda c: _parse_datetimes(c, pattern))
        bad = next(c for c in present if parse([c]) is None)
        raise DataError(f"column {name!r}: cell {bad!r} does not parse as {kind.value}")
    # texts are in first-seen order, so first[i] is the earliest text of value i
    _, first, inverse = np.unique(vals, return_index=True, return_inverse=True)
    table = np.zeros(len(texts), dtype=np.int32)
    table[np.array(is_present, dtype=bool)] = inverse + 1
    return Column(
        name,
        kind,
        table[ids],
        tuple(present[i] for i in first.tolist()),
        values=vals[first],
        pattern=pattern,
    )


def _intern(cells: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct stripped texts of the cells, in first-seen order, and each
    cell's index into them.

    Only the distinct raw texts are stripped; raw texts that strip alike merge.
    """
    raw, ids = _first_seen(cells)
    stripped = [t.strip() for t in raw]
    if stripped == raw:
        return raw, ids
    texts, of_raw = _first_seen(stripped)
    return texts, of_raw[ids]


def _first_seen(items: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct items in first-seen order and each item's index into them,
    with no Python-level loop over the items."""
    row_of: dict[str, int] = {}
    # setdefault hands back, per item, the row where its text was first seen
    firsts = np.fromiter(map(row_of.setdefault, items, count()), np.int32, len(items))
    index = np.empty(len(items), dtype=np.int32)
    index[np.fromiter(row_of.values(), np.int32, len(row_of))] = np.arange(len(row_of), dtype=np.int32)
    return list(row_of), index[firsts]


def _read_table(path: str, delimiter: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """Parse a headered CSV into its stripped header names and its columns of
    raw cells, validating shape.

    A leading UTF-8 byte-order mark is read as encoding, not as header text.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                rows = list(filter(None, reader))
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
        raise DataError(f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}")
    return header, list(zip(*data))


def _encode_features(names, columns, kind_hints, missing_tokens, datetime_patterns) -> list[Column]:
    """Encode each feature's raw cells (columns, in the order of names) with
    its hinted kind, or else the kind it infers."""
    hints = dict(kind_hints or {})
    missing = frozenset(missing_tokens)
    encoded = []
    for name, cells in zip(names, columns):
        kind = None
        if name in hints:
            hint = hints.pop(name)
            kind = ColumnKind(hint) if isinstance(hint, str) else hint
        encoded.append(_encode_cells(name, cells, kind, missing, datetime_patterns))
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
    header, columns = _read_table(path, delimiter)

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

    # class codes run from 0: the label is encoded as a symbolic column, less one
    label_col = _encode_cells(header[label_idx], columns.pop(label_idx), ColumnKind.SYMBOLIC_NOMINAL,
                              frozenset(missing_tokens), datetime_patterns)
    if not label_col.n_values:
        raise DataError(f"label column {header[label_idx]!r} is entirely missing")
    if label_col.has_missing:
        raise DataError(f"label column {header[label_idx]!r} has missing cells")

    names = header[:label_idx] + header[label_idx + 1:]
    features = _encode_features(names, columns, kind_hints, missing_tokens, datetime_patterns)

    ds = Dataset(tuple(features), label_col.codes - 1, label_col.dictionary)
    log.info("loaded %s: %d rows, %d feature columns, %d classes",
             path, ds.row_count, len(features), ds.n_classes)
    return ds


def load_features_csv(
    path: str,
    kind_hints: Mapping[str, ColumnKind | str] | None = None,
    missing_tokens: Sequence[str] = DEFAULT_MISSING_TOKENS,
    datetime_patterns: Sequence[str] = DEFAULT_DATETIME_PATTERNS,
    delimiter: str = ",",
) -> Dataset:
    """Load a headered CSV that has no class column (all columns become features)."""
    header, columns = _read_table(path, delimiter)
    columns = _encode_features(header, columns, kind_hints, missing_tokens, datetime_patterns)
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
    """The first PROFILE_CATEGORY_CAP of the present codes sorted by (-count, text, code).

    Only codes whose count reaches the cap-th largest count can qualify. Those
    above it are all kept and ranked in full; display texts are compared among
    the codes tied at it only to pick the ones that fill the cap.
    """
    texts = (MISSING_DISPLAY, *col.dictionary)
    cap = PROFILE_CATEGORY_CAP
    present_counts = counts[present]
    floor = np.partition(present_counts, -cap)[-cap] if len(present) > cap else 0
    above = present[present_counts > floor].tolist()
    ranked = sorted(zip((-counts[above]).tolist(), map(texts.__getitem__, above), above))
    tied = present[present_counts == floor].tolist()
    fill = heapq.nsmallest(cap - len(ranked), zip(map(texts.__getitem__, tied), tied))
    return [code for *_, code in ranked] + [code for _, code in fill]
