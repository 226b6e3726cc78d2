"""CSV loading, kind inference, encoding round-trips, and profiling."""

import numpy as np
import pytest

from dtclust.dataset import (
    Column,
    ColumnKind,
    Dataset,
    MISSING_CODE,
    encode_column,
    infer_kinds,
    load_csv,
    load_features_csv,
    profile,
)
from dtclust.errors import ConfigError, DataError
from dtclust.synth import titanic_like, write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestInferKinds:
    def test_numeric_with_missing(self):
        table = [["1.5"], ["2"], ["?"]]
        assert infer_kinds(table)[0][0] is ColumnKind.NUMERIC

    def test_dates(self):
        table = [["2020-01-01"], ["2020-02-01"]]
        kind, pattern = infer_kinds(table)[0]
        assert kind is ColumnKind.DATETIME
        assert pattern == "%Y-%m-%d"

    def test_symbolic_fallback(self):
        table = [["Exec-managerial"], ["Sales"]]
        assert infer_kinds(table)[0][0] is ColumnKind.SYMBOLIC_NOMINAL

    def test_boolean(self):
        table = [["true"], ["False"], ["true"]]
        assert infer_kinds(table)[0][0] is ColumnKind.BOOLEAN

    def test_zero_one_is_numeric(self):
        table = [["0"], ["1"]]
        assert infer_kinds(table)[0][0] is ColumnKind.NUMERIC

    def test_mixed_row(self):
        table = [["1", "a", "2021-05-01 10:00:00"], ["2", "b", "2021-05-02 11:30:00"]]
        kinds = [k for k, _ in infer_kinds(table)]
        assert kinds == [ColumnKind.NUMERIC, ColumnKind.SYMBOLIC_NOMINAL, ColumnKind.DATETIME]


class TestLoadCsv:
    def test_basic(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b,y\n1,x,0\n2,y,1\n3,x,0\n"))
        assert ds.row_count == 3
        assert ds.column_names == ("a", "b")
        assert ds.class_names == ("0", "1")
        assert list(ds.labels) == [0, 1, 0]

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
        with pytest.raises(DataError, match="row 3"):
            load_csv(write(tmp_path, "a,y\n1,0\n1,0,extra\n"))

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
        ds = load_csv(write(tmp_path, "a,y\n?,0\nx,1\n"), missing_tokens=("",))
        col = ds.column("a")
        assert col.has_missing is False
        assert "?" in col.dictionary

    def test_kind_hint_ordinal(self, tmp_path):
        ds = load_csv(write(tmp_path, "grade,y\nlow,0\nhigh,1\nmid,0\n"),
                      kind_hints={"grade": "symbolic-ordinal"})
        assert ds.column("grade").kind is ColumnKind.SYMBOLIC_ORDINAL

    def test_hint_for_unknown_column(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown columns"):
            load_csv(write(tmp_path, "a,y\n1,0\n"), kind_hints={"zzz": "numeric"})

    def test_quoted_cells(self, tmp_path):
        ds = load_csv(write(tmp_path, 'a,y\n"hello, world",0\nplain,1\n'))
        assert "hello, world" in ds.column("a").dictionary

    def test_features_csv(self, tmp_path):
        ds = load_features_csv(write(tmp_path, "a,b\n1,x\n2,y\n"))
        assert ds.labels is None
        assert ds.column_names == ("a", "b")


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
        with pytest.raises(DataError):
            encode_column("v", ["1", "abc"], ColumnKind.NUMERIC)


class TestDataset:
    def test_subset(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,y\n1,0\n2,1\n3,0\n"))
        sub = ds.subset(np.array([0, 2]))
        assert sub.row_count == 2
        assert list(sub.labels) == [0, 0]

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
        assert abs(report.rate("passenger-class", "1st", survived) - 0.61) < 0.05
        assert abs(report.rate("passenger-class", "2nd", survived) - 0.42) < 0.05
        assert abs(report.rate("passenger-class", "3rd", survived) - 0.24) < 0.05
        assert abs(report.rate("sex", "female", survived) - 0.75) < 0.05
        assert abs(report.rate("sex", "male", survived) - 0.20) < 0.05


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
        ds = load_csv(str(path), label="income", missing_tokens=("",))
        assert ds.row_count == 32561
        assert len(ds.columns) == 14  # 15 columns = 14 features + the label
        assert ds.class_names == ("<=50K", ">50K")
