"""Tabular data ingestion: CSV loading, column-kind inference, ordinal encoding, profiling.

Every column is stored as an integer code array plus an ordered dictionary of the
distinct original values. Code 0 is reserved for missing cells; real values get
codes 1..m. For numeric and datetime columns the dictionary is sorted ascending
by natural value, so code order coincides with value order and the tree can
compare codes directly.

Loading interns each column while the CSV is read, so only a column's
distinct texts stay alive, never a list of all its cells. No Python-level
loop runs over the cells; the per-cell work is left to C (csv, dict, map,
numpy):

1. csv.reader rows are taken _CHUNK_ROWS at a time and flattened, and the
   strided slice j::width of a chunk is column j's part of it. Each part is
   interned into the column's first-seen dict, so a column ends as its
   distinct raw texts in first-seen order and each row's int32 index into
   them. A chunk's cells are dropped once it is interned.
2. Each column then runs one path, once per distinct text: stripping (raw
   texts that strip alike merge), missing-token tests, kind inference,
   numeric or datetime parsing and the dictionary. One gather maps every row
   to its code.

A profile keeps the PROFILE_CATEGORY_CAP most frequent categories of each
column and counts the rest.
"""

from __future__ import annotations

import csv
import heapq
import logging
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

MISSING_CODE = 0
MISSING_DISPLAY = "(missing)"

# categories per column that a profile keeps, the most frequent first
PROFILE_CATEGORY_CAP = 30

# rows the reader flattens and interns at a time. Small, so that a chunk's
# freshly parsed cells are still in cache when they are hashed, and their
# memory is reused by the next chunk; at 4,096 rows the census table read ~20%
# slower. Large enough that the per-chunk numpy calls cost little.
_CHUNK_ROWS = 256

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


@dataclass(frozen=True)
class LoadSettings:
    """How a CSV is read, checked when built, so a bad value fails before any table is read.

    datetime_patterns are tried on a column in turn. A kind hint may be a
    ColumnKind or its value text; it is stored, read-only, as the text.
    """

    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS
    delimiter: str = ","
    kind_hints: Mapping[str, str] = field(default_factory=dict)
    datetime_patterns: tuple[str, ...] = DEFAULT_DATETIME_PATTERNS

    def __post_init__(self) -> None:
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(f"--delimiter must be one character, got {self.delimiter!r}")
        for key in ("missing_tokens", "datetime_patterns"):
            value = getattr(self, key)
            if (isinstance(value, str) or not isinstance(value, Sequence)
                    or not all(isinstance(v, str) for v in value)):
                raise ConfigError(f"{key} must be a sequence of strings, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        if not isinstance(self.kind_hints, Mapping):
            raise ConfigError(f"kind_hints must map column names to kinds, got {self.kind_hints!r}")
        hints = {}
        for name, hint in self.kind_hints.items():
            try:
                hints[name] = ColumnKind(hint).value
            except ValueError:
                raise ConfigError(f"kind hint {hint!r} for column {name!r} is not one of: "
                                  f"{', '.join(k.value for k in ColumnKind)}") from None
        object.__setattr__(self, "kind_hints", MappingProxyType(hints))


@dataclass(frozen=True, eq=False)
class Column:
    """One encoded column.

    codes:      per-row code, int32; 0 means missing.
    dictionary: original display value for code c at dictionary[c-1]; a
                tuple as loaded, a sequence whose texts are built on first
                read in a transformed column.
    values:     natural (sortable) value per dictionary entry for numeric and
                datetime columns; None for symbolic/boolean.
    pattern:    strptime pattern used to parse a datetime column.
    """

    name: str
    kind: ColumnKind
    codes: np.ndarray
    dictionary: Sequence[str]
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
    if _BOOL_TOKENS.issuperset(map(str.lower, present)):
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
    return _encode_cells(name, *_first_seen(cells), kind, frozenset(missing_tokens),
                         DEFAULT_DATETIME_PATTERNS, pattern)


def _encode_cells(
    name: str,
    raw: list[str],
    ids: np.ndarray,
    kind: ColumnKind | None,
    missing: frozenset[str],
    datetime_patterns: Sequence[str],
    pattern: str | None = None,
) -> Column:
    """Encode one interned column, its distinct raw texts in first-seen order
    and each row's index into them; kind None infers it.

    Each step runs once per distinct text, through C-level map and filter:
    stripping (raw texts that strip alike merge, in first-seen order),
    missing-token tests, kind inference, parsing and the dictionary. One
    gather through a per-text code table then gives every row its code.
    """
    texts = list(map(str.strip, raw))
    if texts != raw:
        texts, of_raw = _first_seen(texts)
        ids = of_raw[ids]
    # texts are distinct, so each missing token is at most one of them
    absent = list(map(texts.index, missing.intersection(texts)))
    is_present = np.ones(len(texts), dtype=bool)
    is_present[absent] = False
    present = list(compress(texts, is_present.tolist())) if absent else texts
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
        code_of_text = dict(zip(ordered, count(1)))
        table = np.fromiter(map(code_of_text.get, texts, repeat(MISSING_CODE)), np.int32, len(texts))
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
    table[is_present] = inverse + 1
    return Column(
        name,
        kind,
        table[ids],
        tuple(map(present.__getitem__, first.tolist())),
        values=vals[first],
        pattern=pattern,
    )


def _first_seen(items: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct items in first-seen order and each item's index into them,
    with no Python-level loop over the items."""
    seen = _first_seen_dict()
    ids = np.fromiter(map(seen.__getitem__, items), np.int32, len(items))
    return list(seen), ids


def _first_seen_dict() -> defaultdict[str, int]:
    """A dict that, looked up with a text it lacks, adds it with the next index
    (0, 1, ...); its keys stay in first-seen order."""
    return defaultdict(count().__next__)


def _read_table(path: str, delimiter: str) -> tuple[list[str], list[tuple[list[str], np.ndarray]]]:
    """Parse a headered CSV into its stripped header names and, per column,
    its distinct raw texts in first-seen order with each row's int32 index
    into them, validating shape.

    One csv.reader pass takes the non-empty data rows _CHUNK_ROWS at a time
    and interns each column's part of a chunk into the column's first-seen
    dict, so no list of all cells is ever built. The whole file is read before
    any shape check, so a csv.Error anywhere wins, then an empty file, no data
    rows, duplicate header names, and the first ragged row, named by its file
    line.

    A leading UTF-8 byte-order mark is read as encoding, not as header text.
    """
    ragged: list[tuple[int, int]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            rows = filter(None, reader)
            try:
                header = next(rows, None)
                columns = [] if header is None else _intern_columns(
                    _note_ragged(rows, len(header), reader, ragged), len(header), ragged)
            except csv.Error as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    if header is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if not (columns or ragged):
        raise DataError(f"{path}: no data rows")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataError(f"{path}: duplicate header names {dupes}")
    if ragged:
        line, n = ragged[0]
        raise DataError(f"{path}, line {line}: {n} cells, header has {len(header)}")
    return header, columns


def _intern_columns(rows, width: int, ragged: list[tuple[int, int]]) -> list[tuple[list[str], np.ndarray]]:
    """Per column, its distinct texts in first-seen order and each row's index
    into them; empty when there are no rows or a row is ragged.

    Rows are flattened _CHUNK_ROWS at a time, and column j's part of a chunk is
    its strided slice j::width, interned into the column's first-seen dict.
    A ragged row misaligns the parts, so nothing is returned then; the rest of
    the file is still read, so that a later csv.Error wins.
    """
    seen = [_first_seen_dict() for _ in range(width)]
    ids: list[list[np.ndarray]] = [[] for _ in range(width)]
    for cells in iter(lambda: list(chain.from_iterable(islice(rows, _CHUNK_ROWS))), []):
        for j, (index_of, parts) in enumerate(zip(seen, ids)):
            column = cells[j::width]
            parts.append(np.fromiter(map(index_of.__getitem__, column), np.int32, len(column)))
    if ragged or not ids[0]:
        return []
    return [(list(index_of), np.concatenate(parts)) for index_of, parts in zip(seen, ids)]


def _note_ragged(rows, width: int, reader, ragged: list[tuple[int, int]]):
    """The rows unchanged; the file line and width of the first row whose
    width is not the header's is appended to ragged."""
    for row in rows:
        if len(row) != width and not ragged:
            ragged.append((reader.line_num, len(row)))
        yield row


def _encode_features(names, columns, settings: LoadSettings) -> list[Column]:
    """Encode each feature's interned cells (columns, in the order of names)
    with its hinted kind, or else the kind it infers; a hint for no feature fails first."""
    hints = settings.kind_hints
    unknown = sorted(set(hints) - set(names))
    if unknown:
        raise ConfigError(f"kind hints for unknown columns: {unknown}")
    missing = frozenset(settings.missing_tokens)
    return [_encode_cells(name, texts, ids, ColumnKind(hints[name]) if name in hints else None, missing,
                          settings.datetime_patterns)
            for name, (texts, ids) in zip(names, columns)]


def load_csv(path: str, label: str | int | None = None, settings: LoadSettings = LoadSettings()) -> Dataset:
    """Load a headered CSV into an encoded Dataset, read as settings say.

    label selects the class column by name or position (default: last column).
    Cells are stripped of surrounding whitespace before matching missing tokens.
    """
    header, columns = _read_table(path, settings.delimiter)

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
    label_col = _encode_cells(header[label_idx], *columns.pop(label_idx), ColumnKind.SYMBOLIC_NOMINAL,
                              frozenset(settings.missing_tokens), settings.datetime_patterns)
    if not label_col.n_values:
        raise DataError(f"label column {header[label_idx]!r} is entirely missing")
    if label_col.has_missing:
        raise DataError(f"label column {header[label_idx]!r} has missing cells")

    names = header[:label_idx] + header[label_idx + 1:]
    features = _encode_features(names, columns, settings)

    ds = Dataset(tuple(features), label_col.codes - 1, label_col.dictionary)
    log.info("loaded %s: %d rows, %d feature columns, %d classes",
             path, ds.row_count, len(features), ds.n_classes)
    return ds


def load_features_csv(path: str, settings: LoadSettings = LoadSettings()) -> Dataset:
    """Load a headered CSV that has no class column (all columns become features)."""
    header, columns = _read_table(path, settings.delimiter)
    return Dataset(tuple(_encode_features(header, columns, settings)), None, ())


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
