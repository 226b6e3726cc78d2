"""CSV loading, kind inference, encoding round-trips, and profiling."""

import csv
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust import dataset
from dtclust.cli import main
from dtclust.dataset import (
    _read_table,
    DEFAULT_DATETIME_PATTERNS,
    DEFAULT_MISSING_TOKENS,
    Column,
    ColumnKind,
    Dataset,
    LoadSettings,
    MISSING_CODE,
    PROFILE_CATEGORY_CAP,
    encode_column,
    load_csv,
    load_features_csv,
    profile,
)
from dtclust.errors import ConfigError, DataError
from dtclust.synth import titanic_like, write_csv

from helpers import assert_columns_equal, reference_encode, reference_profile, reference_read_table


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def census_slice(tmp_path_factory):
    """The first 5,000 rows of the synth census table (generator seed 7), as a CSV path."""
    root = tmp_path_factory.mktemp("census")
    assert main(["synth", "--generate", "census", "--seed", "7", "--out", str(root)]) == 0
    with open(root / "data.csv", encoding="utf-8") as fh:
        head = [next(fh) for _ in range(5001)]
    path = root / "slice.csv"
    path.write_text("".join(head), encoding="utf-8")
    return str(path)


def inferred_kinds(tmp_path, table):
    """(kind, pattern) of each column of a headerless text table, as the loader infers them."""
    header = ",".join(f"c{j}" for j in range(len(table[0])))
    text = "\n".join([header, *(",".join(row) for row in table)]) + "\n"
    return [(c.kind, c.pattern) for c in load_features_csv(write(tmp_path, text)).columns]


class TestInferKinds:
    def test_numeric_with_missing(self, tmp_path):
        table = [["1.5"], ["2"], ["?"]]
        assert inferred_kinds(tmp_path, table)[0][0] is ColumnKind.NUMERIC

    def test_dates(self, tmp_path):
        table = [["2020-01-01"], ["2020-02-01"]]
        kind, pattern = inferred_kinds(tmp_path, table)[0]
        assert kind is ColumnKind.DATETIME
        assert pattern == "%Y-%m-%d"

    def test_symbolic_fallback(self, tmp_path):
        table = [["Exec-managerial"], ["Sales"]]
        assert inferred_kinds(tmp_path, table)[0][0] is ColumnKind.SYMBOLIC_NOMINAL

    def test_boolean(self, tmp_path):
        table = [["true"], ["False"], ["true"]]
        assert inferred_kinds(tmp_path, table)[0][0] is ColumnKind.BOOLEAN

    def test_zero_one_is_numeric(self, tmp_path):
        table = [["0"], ["1"]]
        assert inferred_kinds(tmp_path, table)[0][0] is ColumnKind.NUMERIC

    def test_mixed_row(self, tmp_path):
        table = [["1", "a", "2021-05-01 10:00:00"], ["2", "b", "2021-05-02 11:30:00"]]
        kinds = [k for k, _ in inferred_kinds(tmp_path, table)]
        assert kinds == [ColumnKind.NUMERIC, ColumnKind.SYMBOLIC_NOMINAL, ColumnKind.DATETIME]


class TestLoadCsv:
    def test_basic(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b,y\n1,x,0\n2,y,1\n3,x,0\n"))
        assert ds.row_count == 3
        assert ds.column_names == ("a", "b")
        assert ds.class_names == ("0", "1")
        assert list(ds.labels) == [0, 1, 0]

    def test_label_cells_are_stripped(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n1, yes\n2,yes\n3,no \n"))
        assert ds.class_names == ("no", "yes")
        assert list(ds.labels) == [1, 1, 0]

    def test_label_by_name(self, tmp_path):
        ds = load_csv(write(tmp_path, "y,a\nyes,1\nno,2\n"), label="y")
        assert ds.column_names == ("a",)
        assert ds.class_names == ("no", "yes")

    def test_header_only_errors(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, "a,b,y\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(str(tmp_path / "nope.csv"))

    def test_arity_mismatch(self, tmp_path):
        with pytest.raises(DataError, match="line 3"):
            load_csv(write(tmp_path, "a,y\n1,0\n1,0,extra\n"))

    @pytest.mark.parametrize("text, line", [
        ("a,b,label\n1,2,x\n\n\n3,4\n", 5),
        ('a,b,label\n"1\n2",2,x\n3,4\n', 4),
        ('a,b,label\n1,2,x\n3,"4\n5"\n', 4),
    ], ids=["blank-lines", "quoted-newline-before", "quoted-newline-in-row"])
    def test_arity_mismatch_names_file_line(self, tmp_path, text, line):
        path = write(tmp_path, text)
        with pytest.raises(DataError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}, line {line}: 2 cells, header has 3"

    def test_duplicate_headers(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_csv(write(tmp_path, "a,a,y\n1,2,0\n"))

    def test_label_only_csv(self, tmp_path):
        ds = load_csv(write(tmp_path, "y\n0\n1\n"))
        assert ds.columns == ()
        assert ds.row_count == 2

    def test_unknown_label(self, tmp_path):
        with pytest.raises(ConfigError):
            load_csv(write(tmp_path, "a,y\n1,0\n"), label="nope")

    def test_label_all_missing(self, tmp_path):
        with pytest.raises(DataError, match="entirely missing"):
            load_csv(write(tmp_path, "a,y\n1,?\n2,\n"))

    def test_label_partially_missing(self, tmp_path):
        with pytest.raises(DataError, match="missing cells"):
            load_csv(write(tmp_path, "a,y\n1,0\n2,?\n"))

    def test_missing_cells_get_sentinel(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b,y\n1,x,0\n?,NA,1\n"))
        assert ds.column("a").codes[1] == MISSING_CODE
        assert ds.column("b").codes[1] == MISSING_CODE

    def test_custom_missing_tokens(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n?,0\nx,1\n"), settings=LoadSettings(missing_tokens=("",)))
        col = ds.column("a")
        assert col.has_missing is False
        assert "?" in col.dictionary

    def test_kind_hint_ordinal(self, tmp_path):
        ds = load_csv(write(tmp_path, "grade,y\nlow,0\nhigh,1\nmid,0\n"),
                      settings=LoadSettings(kind_hints={"grade": "symbolic-ordinal"}))
        assert ds.column("grade").kind is ColumnKind.SYMBOLIC_ORDINAL

    def test_hint_for_unknown_column(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown columns"):
            load_csv(write(tmp_path, "a,y\n1,0\n"), settings=LoadSettings(kind_hints={"zzz": "numeric"}))

    def test_hint_for_unknown_column_fails_before_encoding(self, tmp_path):
        # "a" cannot be a datetime, but the unknown name is reported before any column is encoded
        hints = {"a": "datetime", "zzz": "numeric"}
        with pytest.raises(ConfigError, match=r"unknown columns: \['zzz'\]"):
            load_csv(write(tmp_path, "a,y\nx,0\n"), settings=LoadSettings(kind_hints=hints))

    def test_quoted_cells(self, tmp_path):
        ds = load_csv(write(tmp_path, 'a,y\n"hello, world",0\nplain,1\n'))
        assert "hello, world" in ds.column("a").dictionary

    def test_features_csv(self, tmp_path):
        ds = load_features_csv(write(tmp_path, "a,b\n1,x\n2,y\n"))
        assert ds.labels is None
        assert ds.column_names == ("a", "b")


class TestLoadSettings:
    @pytest.mark.parametrize("field, value, message", [
        ("delimiter", "ab", "--delimiter must be one character, got 'ab'"),
        ("missing_tokens", "NA", "missing_tokens must be a sequence of strings, got 'NA'"),
        ("missing_tokens", ("", None), "missing_tokens must be a sequence of strings"),
        ("kind_hints", {"a": "bogus"}, "kind hint 'bogus' for column 'a' is not one of: numeric, "),
        ("kind_hints", ["a"], "kind_hints must map column names to kinds"),
        ("datetime_patterns", "%Y", "datetime_patterns must be a sequence of strings, got '%Y'"),
    ], ids=["delimiter", "missing-string", "missing-non-string", "hint-kind", "hints-not-mapping",
            "patterns-string"])
    def test_bad_value_is_config_error(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            LoadSettings(**{field: value})

    def test_values_are_stored_as_tuples_and_kind_texts(self):
        load = LoadSettings(missing_tokens=["?"], datetime_patterns=["%Y"],
                            kind_hints={"a": ColumnKind.SYMBOLIC_ORDINAL, "b": "numeric"})
        assert load.missing_tokens == ("?",)
        assert load.datetime_patterns == ("%Y",)
        assert dict(load.kind_hints) == {"a": "symbolic-ordinal", "b": "numeric"}
        with pytest.raises(TypeError):
            load.kind_hints["c"] = "numeric"


class TestEncoding:
    def test_numeric_dictionary_sorted(self):
        col = encode_column("v", ["3", "1", "2", "1"], ColumnKind.NUMERIC)
        assert col.dictionary == ("1", "2", "3")
        assert list(col.codes) == [3, 1, 2, 1]
        assert list(col.values) == [1.0, 2.0, 3.0]

    def test_symbolic_dictionary_lexicographic(self):
        col = encode_column("v", ["b", "a", "c", "a"], ColumnKind.SYMBOLIC_NOMINAL)
        assert col.dictionary == ("a", "b", "c")

    def test_datetime_order(self):
        col = encode_column("v", ["2021-03-01", "2020-01-15"], ColumnKind.DATETIME,
                            pattern="%Y-%m-%d")
        assert col.dictionary == ("2020-01-15", "2021-03-01")
        assert col.values[0] < col.values[1]

    def test_roundtrip_decode(self, tmp_path):
        text = "a,b,y\n1.5,x,0\n2,y y,1\n-7,x,0\n"
        ds = load_csv(write(tmp_path, text))
        raw_rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        for j, col in enumerate(ds.columns):
            for i in range(ds.row_count):
                assert col.decode(int(col.codes[i])) == raw_rows[i][j]

    def test_dictionary_bijective(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\nfoo,0\nbar,1\nfoo,0\nbaz,1\n"))
        col = ds.column("a")
        assert len(set(col.dictionary)) == len(col.dictionary)
        present = set(int(c) for c in col.codes)
        assert present == {1, 2, 3}

    def test_unparseable_numeric_errors(self):
        with pytest.raises(DataError, match="cell 'abc' does not parse as numeric"):
            encode_column("v", ["1", "abc", "inf"], ColumnKind.NUMERIC)

    def test_non_finite_numeric_errors(self):
        with pytest.raises(DataError, match="cell '1e400' does not parse as numeric"):
            encode_column("v", ["1", "1e400", "abc"], ColumnKind.NUMERIC)

    @pytest.mark.parametrize("cells, display, negative", [
        (["-0", "0", "0.0"], ("-0",), True),
        (["0.0", "-0", "0"], ("0.0",), False),
    ])
    def test_signed_zero_keeps_first_seen(self, cells, display, negative):
        col = encode_column("v", cells, ColumnKind.NUMERIC)
        assert col.dictionary == display
        assert list(col.codes) == [1, 1, 1]
        assert bool(np.signbit(col.values[0])) is negative

    def test_trailing_nul_is_its_own_symbol(self):
        col = encode_column("v", ["x\x00", "x", "x\x00"], ColumnKind.SYMBOLIC_NOMINAL)
        assert col.dictionary == ("x", "x\x00")
        assert list(col.codes) == [2, 1, 2]


# cell families for the encoder property: a column draws from one to three of them
_CELL_FAMILIES = (
    ("1", "1.0", "+1", "-0", "0", ".5", "1e5", "1_000", "\u0661\u0662", "-3.25", "0.0"),
    ("inf", "-inf", "nan", "1e400", "0x10"),
    ("", "?", "NA"),
    ("true", "False", "TRUE", "fAlSe", "0", "1"),
    ("2020-01-02", "2019-12-31", "2020-1-2"),
    ("2020-01-02T03:04:05", "2021-06-30T23:59:59"),
    ("2020-01-02 03:04:05", "2021-06-30 23:59:59"),
    ("12:30:00", "00:00:00", "23:59:59"),
    ("x", "x\x00", "a", "B", "a b", "(missing)"),
    # str.strip removes "\x1c" and the no-break space; float() accepts only the latter
    (" 1", "1.5 ", "\t?", "\u00a01", "1\x1c", " x "),
)
_KIND_HINTS = (None, "numeric", "datetime", "boolean", "symbolic-nominal", "symbolic-ordinal")


@st.composite
def _column_cells(draw):
    families = draw(st.lists(st.sampled_from(_CELL_FAMILIES), min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.sampled_from(sum(families, ())), min_size=1, max_size=40))


def _encode_or_error(fn):
    try:
        return fn()
    except DataError as exc:
        return str(exc)


def _assert_loader_matches_reference(csv_path, cells, hint, missing_tokens=DEFAULT_MISSING_TOKENS,
                                     datetime_patterns=DEFAULT_DATETIME_PATTERNS):
    """One column of cells, written to csv_path and loaded, encodes as the reference does."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([["c"], *([c] for c in cells)])
    loader = LoadSettings(missing_tokens=missing_tokens, kind_hints={"c": hint} if hint else {},
                          datetime_patterns=datetime_patterns)
    expected = _encode_or_error(lambda: reference_encode("c", cells, hint, missing_tokens,
                                                         datetime_patterns))
    got = _encode_or_error(lambda: load_features_csv(str(csv_path), loader).columns[0])
    if isinstance(expected, str):
        assert got == expected
        return
    assert_columns_equal(got, expected)
    assert_columns_equal(encode_column("c", cells, expected.kind, missing_tokens, expected.pattern),
                         expected)


class TestEncoderEquivalence:
    """The loader agrees with the per-cell reference encoder in tests/helpers.py."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("prop") / "column.csv"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(cells=_column_cells(), hint=st.sampled_from(_KIND_HINTS))
    def test_loader_matches_reference(self, csv_path, cells, hint):
        _assert_loader_matches_reference(csv_path, cells, hint)

    @pytest.mark.parametrize("cells, hint, options", [
        # a missing token that parses as a number: "-1" and " -1" are missing cells
        (["1", "-1", "2.5", " -1"], None, {"missing_tokens": ("-1",)}),
        (["1", "-1", "2.5"], "numeric", {"missing_tokens": ("-1",)}),
        # the only missing cell is the last row
        (["3", "1", "2", "1", "?"], None, {}),
        # hints that name another kind than the numbers the cells parse as
        (["3", "10", " 2", "10"], "symbolic-ordinal", {}),
        (["3", "10", " 2", "10"], "datetime", {}),
        (["2020", " 1999", "2020"], "datetime", {"datetime_patterns": ("%Y",)}),
        # " 1", "1" and "1.0" are one value, shown as the earliest row's text
        ([" 1", "2", "1", "1.0"], None, {}),
        (["1.0", " 1", "1", "2"], None, {}),
        ([" 1", "?", "1.0", "1"], None, {}),
        ([" 1", "1", "1.0"], "numeric", {}),
        # a first cell that does not parse: symbolic, or an error under a numeric hint
        (["x", "1", "2", "3"], None, {}),
        (["x", "1", "2"], "numeric", {}),
        # a first cell that parses but is not finite
        (["nan", "1", "2", "1"], None, {}),
    ], ids=["missing-number", "missing-number-hinted", "missing-last", "ordinal-hint",
            "datetime-hint-no-pattern", "datetime-hint", "merge-stripped-first",
            "merge-decimal-first", "merge-with-missing", "merge-hinted", "first-text",
            "first-text-hinted", "first-nan"])
    def test_case_matches_reference(self, csv_path, cells, hint, options):
        _assert_loader_matches_reference(csv_path, cells, hint, **options)

    def test_census_slice_matches_reference(self, census_slice):
        ds = load_csv(census_slice, label="label")
        with open(census_slice, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        features = [j for j, name in enumerate(header) if name != "label"]
        assert ds.column_names == tuple(header[j] for j in features)
        for col, j in zip(ds.columns, features):
            assert_columns_equal(col, reference_encode(header[j], [row[j] for row in rows]))


# raw cells hold no delimiter, quote or line break; quoted cells may hold any of them
_RAW_CELL = st.text(alphabet="ab1.? ", max_size=4)
_QUOTED_TEXT = st.text(alphabet=',;\t\n\r"ab ', max_size=6)
_LONG_FIELD = "x" * (csv.field_size_limit() + 1)


@st.composite
def _csv_line(draw, delimiter, width):
    """One written line: blank, whitespace only, or cells (quoted or raw) of about the header's width."""
    shape = draw(st.sampled_from(("cells", "cells", "cells", "blank", "space")))
    if shape == "blank":
        return ""
    if shape == "space":
        return draw(st.sampled_from((" ", "  ", " \t ")))
    n = width if draw(st.integers(0, 19)) < 19 else draw(st.sampled_from((width - 1, width + 1)))
    cells = []
    for _ in range(n):
        if draw(st.booleans()):
            cells.append('"' + draw(_QUOTED_TEXT).replace('"', '""') + '"')
        else:
            cells.append(draw(_RAW_CELL))
    return delimiter.join(cells)


@st.composite
def _csv_text(draw):
    """(text, delimiter) of a small CSV that may be malformed in every way the reader checks."""
    delimiter = draw(st.sampled_from((",", ";", "\t")))
    eol = draw(st.sampled_from(("\n", "\r\n", "\r")))
    lines = []
    if draw(st.integers(0, 19)) < 19:
        names = ("a", "b", "c", "label") if draw(st.integers(0, 4)) < 4 else ("a", " a", "label")
        header = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        lines.append(delimiter.join(header))
        lines += draw(st.lists(_csv_line(delimiter, len(header)), max_size=8))
    if lines and draw(st.integers(0, 19)) == 19:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] += delimiter + draw(st.sampled_from((_LONG_FIELD, f'"{_LONG_FIELD}"')))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text, delimiter


def _read_or_error(read, path, delimiter):
    """The header and every column's cells, or the DataError message.

    _read_table gives each column as its distinct texts and each row's index
    into them; the cells are rebuilt from that pair, which loses nothing, after
    checking that the texts are distinct, in first-seen order, with int32 ids.
    """
    try:
        header, columns = read(path, delimiter)
    except DataError as exc:
        return str(exc)
    if read is _read_table:
        interned = columns
        columns = [[texts[i] for i in ids.tolist()] for texts, ids in interned]
        for (texts, ids), cells in zip(interned, columns):
            assert ids.dtype == np.int32
            assert texts == list(dict.fromkeys(cells))
    return header, [tuple(c) for c in columns]


def _write_raw(path, text):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def _assert_reader_matches_reference(csv_path, text, delimiter):
    path = _write_raw(csv_path, text)
    assert _read_or_error(_read_table, path, delimiter) == _read_or_error(reference_read_table, path, delimiter)


def _assert_error_precedence(csv_path, text, message):
    path = _write_raw(csv_path, text)
    expected = _read_or_error(reference_read_table, path, ",")
    assert _read_or_error(_read_table, path, ",") == expected == path + message


# (text, message after the path) of files that break a reader check; the last
# two put the failing row past the first chunk of one or two rows
_ERROR_CASES = [
    (f"a,label\n1,2,3\n1,{_LONG_FIELD}\n",
     ", line 3: field larger than field limit (131072)"),
    ("a,a,label\n1,2\n", ": duplicate header names ['a']"),
    ("a,label\n1,2,3\n\n", ", line 2: 3 cells, header has 2"),
    ("", ": empty file"),
    ("\ufeff\r\n\r\n", ": empty file"),
    ("a,label\r\n\r\n", ": no data rows"),
    (f"\ufeffa,label\n1,2\n\n1,2\n1,2,3\n1,2\n1,{_LONG_FIELD}\n",
     ", line 7: field larger than field limit (131072)"),
    ("a,label\n1,2\n1,2\n\n1,2\n1\n1,2,3\n", ", line 6: 1 cells, header has 2"),
]
_ERROR_IDS = ["csv-error-after-ragged-row", "duplicate-header-before-ragged-row", "ragged-row",
              "empty", "blank-lines-only", "header-only", "late-csv-error-after-ragged-row",
              "late-ragged-row"]


class TestReaderEquivalence:
    """_read_table agrees with the row-list reference reader in tests/helpers.py."""

    @pytest.fixture(scope="class")
    def csv_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader") / "table.csv"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=_csv_text())
    def test_matches_reference(self, csv_path, case):
        _assert_reader_matches_reference(csv_path, *case)

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=_csv_text())
    def test_matches_reference_in_small_chunks(self, csv_path, chunk_rows, case):
        # ragged rows, blank lines, csv errors and a byte-order mark land in later chunks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_CHUNK_ROWS", chunk_rows)
            _assert_reader_matches_reference(csv_path, *case)

    @pytest.mark.parametrize("text, message", _ERROR_CASES, ids=_ERROR_IDS)
    def test_error_precedence(self, csv_path, text, message):
        _assert_error_precedence(csv_path, text, message)

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    @pytest.mark.parametrize("text, message", _ERROR_CASES, ids=_ERROR_IDS)
    def test_error_precedence_in_small_chunks(self, csv_path, monkeypatch, chunk_rows, text, message):
        monkeypatch.setattr(dataset, "_CHUNK_ROWS", chunk_rows)
        _assert_error_precedence(csv_path, text, message)


def _traced_peak(read):
    """The tracemalloc peak, in bytes, while read() runs."""
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    # load_csv keeps only each column's distinct texts and int32 row ids, so on
    # a table of few distinct texts its peak is a small share of a reader that
    # holds every cell (~0.13 of it); a loader that holds every cell until it
    # encodes reads ~0.74 of it
    PEAK_SHARE = 0.5

    def test_peak_is_a_fraction_of_a_reader_holding_every_cell(self, tmp_path):
        path = tmp_path / "few.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["count", "rate", "color", "code", "bucket", "day", "flag", "label"])
            writer.writerows([i % 37, i % 11 * 2.5, f"red{i % 5}", f"x{i % 13}", i % 97,
                              f"2020-01-{i % 28 + 1:02d}", "yes" if i % 3 else "no", i % 2]
                             for i in range(20_000))
        path = str(path)
        loaded = _traced_peak(lambda: load_csv(path, label="label"))
        held = _traced_peak(lambda: reference_read_table(path, ","))
        assert loaded < self.PEAK_SHARE * held, (loaded, held)


class TestDataset:
    def test_class_code(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n1,no\n2,yes\n"))
        assert ds.class_code("yes") == 1
        assert ds.class_code(0) == 0
        with pytest.raises(ConfigError):
            ds.class_code("maybe")
        with pytest.raises(ConfigError):
            ds.class_code(7)

    def test_unknown_column(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n1,0\n"))
        with pytest.raises(ConfigError):
            ds.column("zzz")

    @pytest.mark.parametrize("bad", [3, -1])
    def test_column_rejects_codes_outside_dictionary(self, bad):
        # two dictionary entries allow codes 0 (missing), 1 and 2 only
        with pytest.raises(DataError, match="outside 0..2"):
            Column("c", ColumnKind.SYMBOLIC_NOMINAL, np.array([1, bad, 0], dtype=np.int32), ("a", "b"))


class TestProfile:
    def test_rates_sum_to_one(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\nx,0\nx,1\ny,0\nz,1\nz,1\n"))
        report = profile(ds)
        for cats in report.columns.values():
            for cat in cats:
                assert abs(sum(cat.class_rates) - 1.0) < 1e-12

    def test_counts_sum_to_rows(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\nx,0\n?,1\ny,0\n"))
        report = profile(ds)
        assert sum(c.count for c in report.columns["a"]) == ds.row_count

    def test_single_class(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\nx,0\ny,0\n"))
        report = profile(ds)
        for cat in report.columns["a"]:
            assert cat.class_rates == (1.0,)

    def test_liner_class_and_sex_rates(self):
        # survival-rate structure of the 887-passenger table: roughly 61/42/24
        # percent by class and 75/20 percent by sex
        report = profile(titanic_like())
        assert report.row_count == 887
        survived = report.class_names.index("survived")
        rate = {(name, cat.value): cat.class_rates[survived]
                for name in ("passenger-class", "sex") for cat in report.columns[name]}
        assert abs(rate["passenger-class", "1st"] - 0.61) < 0.05
        assert abs(rate["passenger-class", "2nd"] - 0.42) < 0.05
        assert abs(rate["passenger-class", "3rd"] - 0.24) < 0.05
        assert abs(rate["sex", "female"] - 0.75) < 0.05
        assert abs(rate["sex", "male"] - 0.20) < 0.05


def _profile_rows(report, name):
    return [(c.value, c.count, c.class_rates) for c in report.columns[name]]


def _top_of_full_sort(cats):
    return sorted(cats, key=lambda c: (-c[1], c[0]))[:PROFILE_CATEGORY_CAP]


class TestProfileCap:
    def test_cap_keeps_first_of_full_sort(self):
        # 41 categories: missing and a literal "(missing)" tie at the top count,
        # and the count-2 tier straddles the cutoff at 30
        counts = [9, 9, 7, 7, 7] + [3] * 20 + [2] * 14 + [1] * 2
        codes = np.repeat(np.arange(len(counts)), counts).astype(np.int32)
        dictionary = ("(missing)",) + tuple(f"v{i:02d}" for i in range(len(counts) - 1, 0, -1))
        labels = (np.arange(len(codes)) % 4 == 0).astype(np.int32)
        ds = Dataset((Column("c", ColumnKind.SYMBOLIC_NOMINAL, codes, dictionary),), labels, ("n", "y"))
        report = profile(ds)
        full = reference_profile(ds)["c"]
        assert report.n_categories["c"] == len(full) == 41
        assert _profile_rows(report, "c") == _top_of_full_sort(full)
        # the two "(missing)" texts tie on (count, value): the missing cells (code 0) come first
        assert [c.value for c in report.columns["c"][:2]] == ["(missing)", "(missing)"]
        assert report.columns["c"][0].class_rates == (6 / 9, 3 / 9)
        assert report.columns["c"][1].class_rates == (7 / 9, 2 / 9)

    def test_cap_matches_reference_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n_values = int(rng.integers(1, 80))
            n = int(rng.integers(1, 300))
            # skewed draws give runs of equal counts around the cutoff
            codes = np.minimum(rng.geometric(rng.uniform(0.02, 0.5), size=n) - 1, n_values).astype(np.int32)
            labels = rng.integers(0, 3, size=n).astype(np.int32)
            dictionary = tuple(str(v) for v in rng.permutation(n_values))
            ds = Dataset((Column("c", ColumnKind.SYMBOLIC_NOMINAL, codes, dictionary),),
                         labels, ("a", "b", "c"))
            report = profile(ds)
            full = reference_profile(ds)["c"]
            assert report.n_categories["c"] == len(full)
            assert _profile_rows(report, "c") == _top_of_full_sort(full)

    def test_profile_json_matches_uncapped_rendering(self, census_slice, tmp_path):
        assert main(["profile", "--input", census_slice, "--label", "label",
                     "--out", str(tmp_path)]) == 0
        ds = load_csv(census_slice, label="label")
        columns = {
            name: {
                "categories": [{"value": v, "count": n, "class_rates": list(r)}
                               for v, n, r in _top_of_full_sort(cats)],
                "n_categories": len(cats),
                "truncated": len(cats) > PROFILE_CATEGORY_CAP,
            }
            for name, cats in reference_profile(ds).items()
        }
        assert any(info["truncated"] for info in columns.values())
        prevalence = np.bincount(ds.labels) / ds.row_count
        expected = {"row_count": ds.row_count, "class_names": list(ds.class_names),
                    "class_prevalence": [float(p) for p in prevalence], "columns": columns}
        text = json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "profile.json").read_text(encoding="utf-8") == text


class TestWriteCsv:
    def test_roundtrip_through_file(self, tmp_path):
        ds = titanic_like(n_rows=50)
        path = tmp_path / "liner.csv"
        write_csv(ds, str(path), label_column="survived")
        back = load_csv(str(path), label="survived")
        assert back.row_count == ds.row_count
        assert back.class_names == ds.class_names
        assert list(back.labels) == list(ds.labels)

    def test_liner_csv_has_887_rows(self, tmp_path):
        path = tmp_path / "liner.csv"
        write_csv(titanic_like(), str(path), label_column="survived")
        assert load_csv(str(path), label="survived").row_count == 887

    def test_census_csv_shape(self, tmp_path):
        # the canonical census table: 32561 rows, 15 columns, income as label
        from dtclust.synth import census_like_features

        path = tmp_path / "census.csv"
        write_csv(census_like_features(32561, seed=7), str(path))
        ds = load_csv(str(path), label="income", settings=LoadSettings(missing_tokens=("",)))
        assert ds.row_count == 32561
        assert len(ds.columns) == 14  # 15 columns = 14 features + the label
        assert ds.class_names == ("<=50K", ">50K")
