"""Binning methods, string similarity, and class-frequency ordinal encoding."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust.dataset import Column, ColumnKind, Dataset, encode_column
from dtclust.errors import ConfigError, DataError
from dtclust.preprocess import (
    Bin,
    BinDirective,
    BinningSpec,
    ColumnLog,
    OrdinalEncoding,
    PreprocessPlan,
    apply_plan,
    bin_column,
    build_contingency,
    encode_by_class_frequency,
    jaro_winkler,
)

from helpers import city_dataset, random_dataset, random_plan, reference_log_dict, subset


def numeric_column(values, name="v"):
    return encode_column(name, [repr(float(v)) for v in values], ColumnKind.NUMERIC)


def symbolic_column(values, name="v"):
    return encode_column(name, list(values), ColumnKind.SYMBOLIC_NOMINAL)


def date_column(values, name="v"):
    return encode_column(name, list(values), ColumnKind.DATETIME, pattern="%Y-%m-%d")


def bin_of(spec, value_code):
    for b in spec.bins:
        if value_code in b.members:
            return b
    raise AssertionError(f"code {value_code} not covered by any bin")


class TestBinNumeric:
    def test_equal_width_midpoint_split(self):
        spec, col = bin_column(numeric_column(range(11)), "equal-width", 2)
        # intervals [0, 5) and [5, 10]
        assert len(spec.bins) == 2
        assert [tuple(b.members) for b in spec.bins] == [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)]
        assert spec.bins[0].representative == "2.5"
        assert spec.bins[1].representative == "7.5"
        assert sorted(set(col.codes.tolist())) == [1, 2]

    def test_percentile_rank_edges(self):
        # sorted-rank oracle: edges at ranks ceil(i*8/4) -> values {2, 4, 6}
        spec, col = bin_column(numeric_column(range(1, 9)), "percentile", 4)
        assert [tuple(b.members) for b in spec.bins] == [(1, 2), (3, 4), (5, 6), (7, 8)]
        assert [b.representative for b in spec.bins] == ["2", "4", "6", "8"]

    def test_percentile_weighted_by_occurrence(self):
        # value 1 occupies the first half of the sorted rows
        col = encode_column("v", ["1"] * 6 + ["2", "3", "4", "5", "6", "7"], ColumnKind.NUMERIC)
        spec, _ = bin_column(col, "percentile", 2)
        assert bin_of(spec, 1).id != bin_of(spec, 2).id

    def test_constant_column_collapses(self):
        spec, col = bin_column(numeric_column([5, 5, 5]), "percentile", 4)
        assert len(spec.bins) == 1
        assert set(col.codes.tolist()) == {1}

    def test_k_too_small(self):
        with pytest.raises(ConfigError):
            bin_column(numeric_column([1, 2]), "percentile", 1)

    def test_all_missing(self):
        col = Column("v", ColumnKind.NUMERIC, np.zeros(3, dtype=np.int32), (), np.array([]))
        with pytest.raises(DataError):
            bin_column(col, "percentile", 2)

    def test_missing_keeps_sentinel(self):
        col = encode_column("v", ["1", "?", "2", "3", "4"], ColumnKind.NUMERIC)
        _, out = bin_column(col, "percentile", 2)
        assert out.codes[1] == 0

    def test_wrong_kind(self):
        with pytest.raises(ConfigError):
            bin_column(symbolic_column("ab"), "percentile", 2)


class TestBinSymbolic:
    def test_equal_width_even_split(self):
        spec, _ = bin_column(symbolic_column(["a", "b", "c", "d"]), "equal-width", 2)
        assert [len(b.members) for b in spec.bins] == [2, 2]

    def test_frequency_greedy_packing(self):
        # counts US:90 NL:5 BE:3 DE:2, target mass 50 -> {US} | {NL, BE, DE}
        values = ["US"] * 90 + ["NL"] * 5 + ["BE"] * 3 + ["DE"] * 2
        col = symbolic_column(values)
        spec, _ = bin_column(col, "frequency", 2)
        names = [tuple(col.dictionary[c - 1] for c in b.members) for b in spec.bins]
        assert names[0] == ("US",)
        assert set(names[1]) == {"NL", "BE", "DE"}

    def test_similarity_cuts_largest_gap(self):
        # adjacent Jaro-Winkler distances: d(AB1, AB2) ~ 0.18, d(AB2, XY9) = 1.0
        col = symbolic_column(["AB1", "AB2", "XY9"] * 2)
        spec, _ = bin_column(col, "similarity", 2)
        names = [set(col.dictionary[c - 1] for c in b.members) for b in spec.bins]
        assert names == [{"AB1", "AB2"}, {"XY9"}]

    def test_k_exceeding_uniques_is_identity(self, caplog):
        col = symbolic_column(["a", "b", "c"])
        with caplog.at_level(logging.WARNING):
            spec, out = bin_column(col, "frequency", 10)
        assert len(spec.bins) == col.n_values
        assert "identity" in caplog.text
        assert list(out.codes) == list(col.codes)

    def test_binned_column_stays_nominal(self):
        _, out = bin_column(symbolic_column(["a", "b", "c", "d"]), "frequency", 2)
        assert out.kind is ColumnKind.SYMBOLIC_NOMINAL

    def test_needs_two_uniques(self):
        with pytest.raises(DataError):
            bin_column(symbolic_column(["a", "a"]), "frequency", 2)


class TestBinDatetime:
    def test_equal_width_daily(self):
        days = [f"2020-01-{d:02d}" for d in range(1, 32)]
        spec, _ = bin_column(date_column(days), "equal-width", 31)
        assert len(spec.bins) == 31
        assert all(len(b.members) == 1 for b in spec.bins)

    def test_frequency_balanced(self):
        col = date_column(["2020-01-01"] * 6 + ["2020-12-31"] * 6)
        spec, out = bin_column(col, "frequency", 2)
        assert len(spec.bins) == 2
        assert int((out.codes == 1).sum()) == 6
        assert int((out.codes == 2).sum()) == 6

    def test_equal_width_span_midpoint(self):
        # span midpoint is around July 1st, so Jan 1-2 sit together
        spec, out = bin_column(date_column(["2020-01-01", "2020-01-02", "2020-12-31"]),
                               "equal-width", 2)
        assert [tuple(b.members) for b in spec.bins] == [(1, 2), (3,)]

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            bin_column(date_column(["2020-01-01", "2020-05-01"]), "quantile", 2)


class TestJaroWinkler:
    def test_identity(self):
        assert jaro_winkler("abc", "abc") == 1.0

    def test_empty(self):
        assert jaro_winkler("", "abc") == 0.0
        assert jaro_winkler("abc", "") == 0.0

    def test_no_common(self):
        assert jaro_winkler("abc", "xyz") == 0.0

    def test_classic_pair(self):
        # 6 chars each, 6 matches, 1 transposition, common prefix 3:
        # jaro = (1 + 1 + 5/6)/3 = 0.94444; winkler = 0.94444 + 3*0.1*0.05556
        assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.961111, abs=1e-4)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        alphabet = "abcdef"
        for _ in range(200):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 8)))
            s = jaro_winkler(a, b)
            assert 0.0 <= s <= 1.0
            assert s == pytest.approx(jaro_winkler(b, a), abs=1e-12)
            assert jaro_winkler(a, a) == 1.0


class TestContingency:
    def test_city_example(self):
        ds = city_dataset()
        table = build_contingency(ds.column("city"), ds.labels, target_class=0)
        frequency = {e.value: e.frequency for e in table.entries}
        assert frequency == {"Amsterdam": 0.0, "London": 1.0, "New York": 0.0, "Shanghai": 0.5}
        by_value = {e.value: (e.in_class, e.total) for e in table.entries}
        assert by_value == {"Amsterdam": (0, 2), "London": (2, 2),
                            "New York": (0, 2), "Shanghai": (1, 2)}

    def test_all_in_class(self):
        col = symbolic_column(["a", "b", "a"])
        table = build_contingency(col, np.zeros(3, dtype=np.int32), 0)
        assert all(e.frequency == 1.0 for e in table.entries)

    def test_absent_value(self):
        col = symbolic_column(["a", "b"])
        table = build_contingency(col, np.array([0, 1]), 0)
        assert [(e.value, e.frequency) for e in table.entries] == [("a", 1.0), ("b", 0.0)]


class TestClassFrequencyEncoding:
    def test_city_example_order(self):
        ds = city_dataset()
        enc, col = encode_by_class_frequency(ds.column("city"), ds.labels, target_class=0)
        assert col.dictionary == ("London", "Shanghai", "Amsterdam", "New York")
        assert col.kind is ColumnKind.SYMBOLIC_ORDINAL
        # original codes [1 2 3 4 4 3 2 1] (A L N S S N L A) -> [3 1 4 2 2 4 1 3]
        assert list(col.codes) == [3, 1, 4, 2, 2, 4, 1, 3]

    def test_direct_sort(self):
        # frequencies a: 0.9, b: 0.1, c: 0.5 -> order a, c, b
        values = ["a"] * 10 + ["b"] * 10 + ["c"] * 10
        labels = np.array([1] * 9 + [0] + [1] + [0] * 9 + [1] * 5 + [0] * 5, dtype=np.int32)
        enc, col = encode_by_class_frequency(symbolic_column(values), labels, target_class=1)
        assert col.dictionary == ("a", "c", "b")

    def test_already_sorted_is_identity(self):
        values = ["a"] * 4 + ["b"] * 4
        labels = np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=np.int32)
        enc, col = encode_by_class_frequency(symbolic_column(values), labels, target_class=1)
        assert enc.code_map.tolist() == [0, 1, 2]

    def test_permutation_bijective(self):
        ds = city_dataset()
        enc, _ = encode_by_class_frequency(ds.column("city"), ds.labels, 0)
        assert sorted(enc.code_map.tolist()) == [0, 1, 2, 3, 4]
        assert enc.code_map[0] == 0
        inv = np.argsort(enc.code_map)
        assert [inv[enc.code_map[c]] for c in range(5)] == list(range(5))

    def test_frequencies_non_increasing(self):
        rng = np.random.default_rng(17)
        values = [f"v{i}" for i in rng.integers(0, 8, size=100)]
        labels = rng.integers(0, 2, size=100).astype(np.int32)
        col = symbolic_column(values)
        _, out = encode_by_class_frequency(col, labels, target_class=1)
        table = build_contingency(out, labels, 1)
        freqs = [e.frequency for e in table.entries]
        assert all(a >= b - 1e-12 for a, b in zip(freqs, freqs[1:]))

    def test_missing_code_fixed(self):
        col = encode_column("v", ["a", "?", "b", "a"], ColumnKind.SYMBOLIC_NOMINAL)
        labels = np.array([1, 1, 0, 0], dtype=np.int32)
        enc, out = encode_by_class_frequency(col, labels, 1)
        assert out.codes[1] == 0


class TestCodeMap:
    def test_dropped_code_stays_dropped_through_later_steps(self):
        # code 2 falls in no kept bin; the reordering after the binning must
        # not read -1 as an index into its permutation
        binning = BinningSpec("numeric-equal-width", 3, np.array([0, 1, -1, 2], dtype=np.int32),
                              lambda: (Bin(1, range(1, 2), "a"), Bin(2, range(3, 4), "c")))
        source = Column("v", ColumnKind.NUMERIC, np.array([1, 2, 3], dtype=np.int32),
                        ("a", "b", "c"), np.arange(3.0))
        entry = ColumnLog(source, [binning, OrdinalEncoding(np.array([0, 2, 1]))],
                          ColumnKind.SYMBOLIC_ORDINAL)
        assert entry.code_map().tolist() == [0, 2, -1, 1]


def partition_is_valid(spec, col):
    covered = sorted(c for b in spec.bins for c in b.members)
    assert covered == sorted(set(covered)), "bins overlap"
    present = set(int(c) for c in col.codes if c != 0)
    assert present <= set(covered), "observed codes escape the binning"


class TestPartitionProperty:
    @pytest.mark.parametrize("method", ["equal-width", "percentile"])
    def test_numeric(self, method):
        rng = np.random.default_rng(3)
        for _ in range(20):
            col = numeric_column(rng.uniform(-50, 50, size=rng.integers(2, 40)))
            k = int(rng.integers(2, 8))
            spec, out = bin_column(col, method, k)
            partition_is_valid(spec, col)
            assert 1 <= len(spec.bins) <= k
            assert len(set(out.codes.tolist()) - {0}) <= col.n_values

    @pytest.mark.parametrize("method", ["equal-width", "frequency", "similarity"])
    def test_symbolic(self, method):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = int(rng.integers(2, 15))
            values = [f"w{i}" for i in rng.integers(0, u, size=60)]
            col = symbolic_column(values)
            k = int(rng.integers(2, 8))
            spec, out = bin_column(col, method, k)
            partition_is_valid(spec, col)
            assert len(set(out.codes.tolist()) - {0}) <= col.n_values


class TestApplyPlan:
    def make_dataset(self):
        rng = np.random.default_rng(9)
        n = 80
        num = numeric_column(rng.uniform(0, 10, size=n), name="num")
        sym = symbolic_column([f"s{i}" for i in rng.integers(0, 5, size=n)], name="sym")
        labels = rng.integers(0, 2, size=n).astype(np.int32)
        return Dataset((num, sym), labels, ("0", "1"))

    def test_reorder_and_bin(self):
        ds = self.make_dataset()
        plan = PreprocessPlan(numeric_bins=4, reorder_symbolic=True)
        out, log = apply_plan(ds, plan, target_class=1)
        assert out.column("num").n_values <= 4
        assert out.column("sym").kind is ColumnKind.SYMBOLIC_ORDINAL
        assert set(log.entries) == {"num", "sym"}
        assert len(log.for_column("num").steps) == 1
        assert len(log.for_column("sym").steps) == 1

    def test_reorder_requires_target(self):
        ds = self.make_dataset()
        with pytest.raises(ConfigError):
            apply_plan(ds, PreprocessPlan(reorder_symbolic=True), target_class=None)

    def test_high_cardinality_drop(self, caplog):
        values = [f"id{i}" for i in range(60)]
        col = symbolic_column(values, name="ident")
        labels = np.zeros(60, dtype=np.int32)
        labels[::2] = 1
        ds = Dataset((col,), labels, ("0", "1"))
        plan = PreprocessPlan(reorder_symbolic=False, high_cardinality_threshold=10)
        with caplog.at_level(logging.WARNING):
            out, log = apply_plan(ds, plan, target_class=1)
        assert "ident" in log.dropped
        assert out.columns == ()

    def test_binning_prevents_drop(self):
        values = [f"id{i}" for i in range(60)]
        ds = Dataset((symbolic_column(values, name="ident"),),
                     np.tile([0, 1], 30).astype(np.int32), ("0", "1"))
        plan = PreprocessPlan(
            per_column={"ident": BinDirective("frequency", 5)},
            reorder_symbolic=False,
            high_cardinality_threshold=10,
        )
        out, log = apply_plan(ds, plan, target_class=1)
        assert "ident" not in log.dropped
        assert out.column("ident").n_values <= 5

    def test_unknown_plan_column(self):
        ds = self.make_dataset()
        plan = PreprocessPlan(per_column={"zzz": BinDirective("percentile", 3)})
        with pytest.raises(ConfigError):
            apply_plan(ds, plan, target_class=1)

    def test_plan_dict_roundtrip(self):
        plan = PreprocessPlan(numeric_bins=7,
                              per_column={"a": BinDirective("similarity", 3)},
                              reorder_symbolic=False,
                              high_cardinality_threshold=42)
        again = PreprocessPlan.from_dict(plan.to_dict())
        assert again == plan


def sample_case(seed, wide):
    """A random table, plan and target class, and row ids to fit on: a sample
    of any size, now and then shuffled, and now and then with one column
    missing on every sampled row (so an ordered column's binning is skipped)."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, max_rows=150, max_cols=5, wide_column=wide)
    plan = random_plan(rng, ds)
    target = int(rng.integers(0, ds.n_classes))
    ids = np.sort(rng.choice(ds.row_count, size=int(rng.integers(1, ds.row_count + 1)),
                             replace=False))
    if rng.random() < 0.2:
        rng.shuffle(ids)
    if rng.random() < 0.3:
        j = int(rng.integers(0, len(ds.columns)))
        col = ds.columns[j]
        codes = col.codes.copy()
        codes[ids] = 0
        blanked = Column(col.name, col.kind, codes, col.dictionary, col.values, col.pattern)
        ds = Dataset(ds.columns[:j] + (blanked,) + ds.columns[j + 1:], ds.labels, ds.class_names)
    return ds, plan, target, ids


def compact(ds):
    """ds with each numeric and datetime column's dictionary cut to the values its rows hold."""
    cols = []
    for col in ds.columns:
        if col.values is None:
            cols.append(col)
            continue
        present = np.flatnonzero(np.bincount(col.codes, minlength=col.n_values + 1)[1:]) + 1
        recode = np.zeros(col.n_values + 1, dtype=np.int32)
        recode[present] = np.arange(1, present.size + 1)
        cols.append(Column(col.name, col.kind, recode[col.codes],
                           tuple(col.dictionary[c - 1] for c in present), col.values[present - 1],
                           col.pattern))
    return Dataset(tuple(cols), ds.labels, ds.class_names)


def step_kinds(log):
    return {name: [type(step).__name__ for step in entry.steps] for name, entry in log.entries.items()}


class TestSamplePath:
    """apply_plan(ds, plan, t, rows=ids) against apply_plan on a copy of ds cut
    to those rows: the same columns, the same steps and the same record."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
    def test_equals_gathered_table(self, seed, wide):
        ds, plan, target, ids = sample_case(seed, wide)
        got, got_log = apply_plan(ds, plan, target, rows=ids)
        gathered = subset(ds, ids)
        want, want_log = apply_plan(gathered, plan, target)
        assert got.labels.tolist() == want.labels.tolist()
        assert got.class_names == want.class_names
        assert got.column_names == want.column_names
        for a, b in zip(got.columns, want.columns):
            assert a.kind is b.kind, a.name
            assert a.codes.dtype == b.codes.dtype, a.name
            assert a.codes.tolist() == b.codes.tolist(), a.name
            assert a.n_values == b.n_values, a.name
            assert a.dictionary == b.dictionary, a.name
            if b.values is None:
                assert a.values is None, a.name
            else:
                assert a.values.tobytes() == b.values.tobytes(), a.name
        assert step_kinds(got_log) == step_kinds(want_log)
        assert got_log.dropped == want_log.dropped
        # the record built on first read equals one rebuilt eagerly from the code maps
        assert got_log.to_dict() == reference_log_dict(got_log, gathered, got)
        assert got_log.to_dict() == want_log.to_dict()
        # the values a sample lacks move no edge: a binned numeric or datetime
        # column gets the bins of the same rows with those values cut away
        cut, _ = apply_plan(compact(gathered), plan, target)
        for a, b in zip(got.columns, cut.columns):
            if a.values is not None and got_log.entries[a.name].steps:
                assert a.codes.tolist() == b.codes.tolist(), a.name
                assert a.values.tobytes() == b.values.tobytes(), a.name

    def test_cases_reach_every_path(self):
        seen = set()
        for seed in range(80):
            for wide in (False, True):
                ds, plan, target, ids = sample_case(seed, wide)
                _, log = apply_plan(ds, plan, target, rows=ids)
                sample = subset(ds, ids)
                for col, part in zip(ds.columns, sample.columns):
                    if set(col.codes.tolist()) - set(part.codes.tolist()) - {0}:
                        seen.add("code absent from the sample")
                    if col.name == "wide":
                        seen.add("wide column")
                    entry = log.entries.get(col.name)
                    if entry is None:
                        seen.add("dropped")
                        continue
                    binnings = [s for s in entry.steps if isinstance(s, BinningSpec)]
                    seen.update(s.method for s in binnings)
                    if plan.directive(col) is not None and not binnings:
                        assert not part.codes.any()
                        seen.add("skipped binning")
                    if any((s.code_map < 0).any() for s in binnings):
                        seen.add("empty bin dropped")
                    if binnings and isinstance(entry.steps[-1], OrdinalEncoding):
                        seen.add("reordered after binning")
        assert seen == {"code absent from the sample", "wide column", "dropped", "skipped binning",
                        "empty bin dropped", "reordered after binning",
                        "numeric-percentile", "numeric-equal-width", "datetime-frequency",
                        "datetime-equal-width", "symbolic-frequency", "symbolic-equal-width",
                        "symbolic-similarity"}
