"""Impurity metrics, exhaustive split search, training, and DOT export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust import tree as tree_module
from dtclust.dataset import Column, ColumnKind, Dataset
from dtclust.errors import ConfigError, DataError
from dtclust.preprocess import encode_by_class_frequency
from dtclust.tree import (
    TrainParams,
    best_split,
    histogram_layout,
    impurity,
    to_dot,
    train,
)

from helpers import (
    assert_tree_matches_oracle,
    city_dataset,
    oracle_best_split,
    random_dataset,
    reference_best_in_group,
)


class TestImpurity:
    def test_pure_node(self):
        assert impurity([7, 0]) == 0.0
        assert impurity([0, 0, 9], "entropy") == 0.0

    def test_uniform_binary_entropy(self):
        assert impurity([5, 5], "entropy") == pytest.approx(1.0)

    def test_reference_cluster_counts(self):
        # gini values of the six reference clusters, as published alongside
        # their sizes and precisions
        expected = {
            (81, 233): 0.3828, (8, 160): 0.0907, (9, 161): 0.1002,
            (1, 22): 0.0832, (48, 69): 0.4839, (18, 23): 0.4925,
        }
        for counts, gini in expected.items():
            assert impurity(list(counts)) == pytest.approx(gini, abs=1e-3)

    def test_gini_half(self):
        assert impurity([10, 10]) == pytest.approx(0.5)

    def test_empty_errors(self):
        with pytest.raises(DataError):
            impurity([])
        with pytest.raises(DataError):
            impurity([0, 0])

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            impurity([1, 2], "mse")


def ordinal_dataset(codes, labels, n_classes=2):
    codes = np.asarray(codes, dtype=np.int32)
    m = int(codes.max())
    col = Column("x", ColumnKind.NUMERIC, codes,
                 tuple(str(i) for i in range(1, m + 1)),
                 values=np.arange(1, m + 1, dtype=np.float64))
    names = tuple(str(i) for i in range(n_classes))
    return Dataset((col,), np.asarray(labels, dtype=np.int32), names)


def assert_split_matches_oracle(rows, ds, params):
    got = best_split(rows, ds, params)
    expected = oracle_best_split(rows, ds, params)
    if expected is None:
        assert got is None
        return
    gain, ci, pivot = expected
    assert got is not None, f"oracle split on column {ci} at {pivot} missed"
    assert (got.column_index, got.pivot) == (ci, pivot)
    assert abs(got.gain - gain) <= 1e-12


class TestBestSplit:
    def test_city_example_pivot(self):
        # after class-frequency encoding the best pivot is the code of Shanghai,
        # separating label multisets [0,1,0,0] and [1,1,1,1]
        ds = city_dataset()
        _, encoded = encode_by_class_frequency(ds.column("city"), ds.labels, target_class=0)
        encoded_ds = Dataset((encoded,), ds.labels, ds.class_names)
        split = best_split(np.arange(8), encoded_ds, TrainParams())
        assert split is not None
        assert split.pivot == 2
        assert encoded.dictionary[split.pivot - 1] == "Shanghai"
        left = split.goes_left(encoded.codes)
        left_labels = sorted(ds.labels[left].tolist())
        right_labels = sorted(ds.labels[~left].tolist())
        assert left_labels == [0, 0, 0, 1]
        assert right_labels == [1, 1, 1, 1]

    def test_pure_node_has_no_split(self):
        ds = ordinal_dataset([1, 2, 3, 4], [1, 1, 1, 1])
        assert best_split(np.arange(4), ds, TrainParams()) is None

    def test_respects_min_samples_leaf(self):
        ds = ordinal_dataset([1, 2, 2, 2], [0, 1, 1, 1])
        split = best_split(np.arange(4), ds, TrainParams(min_samples_leaf=2))
        if split is not None:
            n_left = np.count_nonzero(split.goes_left(ds.columns[0].codes))
            assert min(n_left, 4 - n_left) >= 2

    def test_min_gain_strict(self):
        ds = ordinal_dataset([1, 1, 2, 2], [0, 1, 0, 1])
        assert best_split(np.arange(4), ds, TrainParams()) is None

    def test_missing_participates_as_lowest(self):
        codes = np.array([0, 0, 1, 1], dtype=np.int32)
        col = Column("x", ColumnKind.NUMERIC, codes, ("5",), values=np.array([5.0]))
        ds = Dataset((col,), np.array([0, 0, 1, 1], dtype=np.int32), ("0", "1"))
        split = best_split(np.arange(4), ds, TrainParams())
        assert split is not None
        assert split.pivot == 0
        assert np.flatnonzero(split.goes_left(codes)).tolist() == [0, 1]

    @pytest.mark.parametrize("metric", ["gini", "entropy"])
    def test_matches_oracle_on_fixed_case(self, metric):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, max_rows=30, max_cols=4)
        assert_split_matches_oracle(np.arange(ds.row_count), ds, TrainParams(impurity_metric=metric))


class TestBestSplitProperty:
    """best_split against the brute-force oracle on random nodes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
        subset=st.booleans(),
        min_samples_leaf=st.sampled_from([1, 3]),
        metric=st.sampled_from(["gini", "entropy"]),
    )
    def test_equals_oracle(self, seed, wide, subset, min_samples_leaf, metric):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, max_rows=120, max_cols=5, wide_column=wide)
        rows = np.arange(ds.row_count)
        if subset:
            # a node's rows: some codes of each column are absent from it
            rows = np.sort(rng.choice(rows, size=int(rng.integers(2, len(rows) + 1)), replace=False))
        assert_split_matches_oracle(rows, ds, TrainParams(metric, min_samples_leaf=min_samples_leaf))

    def test_wide_column_forces_several_groups(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ds = random_dataset(rng, max_rows=120, max_cols=5, wide_column=True)
            assert len(histogram_layout(ds)) > 1


def is_open(node, params):
    """Whether training searches the node for a split."""
    return (node.depth < params.max_depth and node.samples >= 2 * params.min_samples_leaf
            and node.impurity != 0.0)


def tree_case(seed, wide, subset):
    """A random table and, when subset, a random subset of its rows to train on."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, max_rows=120, max_cols=5, wide_column=wide)
    rows = None
    if subset:
        rows = np.sort(rng.choice(ds.row_count, size=int(rng.integers(2, ds.row_count + 1)),
                                  replace=False))
    return ds, rows


class TestTrainProperty:
    """Whole trees against the brute-force oracle: every node of every level,
    through histograms counted on the smaller child and subtracted from the
    parent on narrow groups, and counted per node on wide ones and on levels
    that outgrow a narrow group's max_nodes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
        subset=st.booleans(),
        max_depth=st.integers(1, 4),
        min_samples_leaf=st.sampled_from([1, 3]),
        metric=st.sampled_from(["gini", "entropy"]),
    )
    def test_equals_oracle(self, seed, wide, subset, max_depth, min_samples_leaf, metric):
        ds, rows = tree_case(seed, wide, subset)
        params = TrainParams(metric, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        tree = train(ds, params, rows=rows)
        assert_tree_matches_oracle(tree, ds, params)
        root_rows = np.arange(ds.row_count) if rows is None else rows
        assert tree.root.rows.tolist() == root_rows.tolist()
        for node in tree.nodes:
            expected = np.bincount(ds.labels[node.rows], minlength=ds.n_classes)
            assert node.class_counts.tolist() == expected.tolist(), f"node {node.id}"

    def test_cases_reach_every_path(self):
        # the property's tables hit both group kinds, narrow groups below the
        # root (subtracted histograms), levels with more open nodes than a
        # narrow group keeps histograms for, and splits where only the smaller
        # or only the larger child is searched again
        seen = set()
        for seed in range(40):
            for wide in (False, True):
                ds, rows = tree_case(seed, wide, subset=seed % 2 == 1)
                params = TrainParams(max_depth=4, min_samples_leaf=3)
                layout = histogram_layout(ds)
                tree = train(ds, params, rows=rows, layout=layout)
                seen.update("narrow" if g.max_nodes >= 1 else "wide" for g in layout)
                open_at = np.bincount([n.depth for n in tree.nodes if is_open(n, params)],
                                      minlength=params.max_depth)
                for g in layout:
                    if g.max_nodes >= 1 and open_at[1:].any():
                        seen.add("narrow below root")
                    if 1 <= g.max_nodes < open_at.max():
                        seen.add("level outgrows narrow group")
                for node in tree.nodes:
                    if node.children is None:
                        continue
                    kids = sorted((tree.node(c) for c in node.children), key=lambda k: k.samples)
                    opened = [is_open(k, params) for k in kids]
                    if opened == [True, False]:
                        seen.add("only smaller open")
                    elif opened == [False, True]:
                        seen.add("only larger open")
        assert seen == {"narrow", "wide", "narrow below root", "level outgrows narrow group",
                        "only smaller open", "only larger open"}


def test_narrow_histograms_never_outgrow_the_table(monkeypatch):
    # a narrow group's histograms, of one node or of a whole level's smaller
    # children, hold no more counts than the table has rows
    counted = []
    real = tree_module._histograms

    def spy(group, row_sets, n_classes):
        out = real(group, row_sets, n_classes)
        if group.max_nodes >= 1:
            counted.append((out.size, len(row_sets)))
        return out

    monkeypatch.setattr(tree_module, "_histograms", spy)
    level_counts = 0
    for seed in range(40):
        ds = random_dataset(np.random.default_rng(seed), max_rows=400, max_cols=3)
        counted.clear()
        train(ds, TrainParams(max_depth=6))
        assert all(size <= ds.row_count for size, _ in counted), f"seed {seed}"
        level_counts += sum(sets > 1 for _, sets in counted)
    assert level_counts > 0


def kernel_case(seed, n_classes):
    """A random table and node rows for one group scorer call per group: narrow
    groups that mix ordered and nominal members, wide groups, codes absent from
    the node and classes with no rows in it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 150))
    columns = []
    for j in range(int(rng.integers(1, 6))):
        wide = rng.random() < 0.25
        u = n + int(rng.integers(1, 2 * n + 1)) if wide else int(rng.integers(1, 13))
        codes = rng.integers(0, u + 1, size=n).astype(np.int32)
        dictionary = tuple(f"v{i}" for i in range(u))
        if rng.random() < 0.5:
            columns.append(Column(f"col{j}", ColumnKind.NUMERIC, codes, dictionary,
                                  values=np.arange(u, dtype=np.float64)))
        else:
            columns.append(Column(f"col{j}", ColumnKind.SYMBOLIC_NOMINAL, codes, dictionary))
    used = rng.choice(n_classes, size=int(rng.integers(1, n_classes + 1)), replace=False)
    labels = rng.choice(used, size=n, p=rng.dirichlet(np.ones(len(used)))).astype(np.int32)
    ds = Dataset(tuple(columns), labels, tuple(f"c{k}" for k in range(n_classes)))
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    return ds, rows


def gain_bits(found):
    return None if found is None else (found[0].hex(), found[1], found[2])


class TestGroupScorerBits:
    """The class-by-class group scorer against the (candidates x classes)
    matrix kernel it replaced, bit for bit. The oracle's tolerance cannot see
    a last-bit change in a gain, and report.json prints every gain."""

    @pytest.mark.parametrize("n_classes", range(2, 13))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        min_samples_leaf=st.sampled_from([1, 3]),
        metric=st.sampled_from(["gini", "entropy"]),
    )
    def test_equals_matrix_kernel(self, n_classes, seed, min_samples_leaf, metric):
        ds, rows = kernel_case(seed, n_classes)
        params = TrainParams(metric, min_samples_leaf=min_samples_leaf)
        parent_counts = np.bincount(ds.labels[rows], minlength=n_classes).astype(np.float64)
        parent_imp = impurity(parent_counts, metric)
        for group in histogram_layout(ds):
            cnt = tree_module._histograms(group, [rows], n_classes)[0]
            got = tree_module._best_in_group(group, cnt, parent_counts, parent_imp, params)
            want = reference_best_in_group(group, cnt, parent_counts, parent_imp, params)
            assert gain_bits(got) == gain_bits(want), f"group of columns {group.columns.tolist()}"

    def test_cases_reach_every_layout(self):
        seen = set()
        for seed in range(60):
            ds, rows = kernel_case(seed, n_classes=8)
            if len(np.unique(ds.labels[rows])) < ds.n_classes:
                seen.add("class absent")
            for group in histogram_layout(ds):
                cnt = tree_module._histograms(group, [rows], ds.n_classes)[0]
                if not cnt.any(axis=0).all():
                    seen.add("code absent")
                seen.add("wide" if group.max_nodes == 0 else "narrow")
                if len(set(group.ordered.tolist())) == 2:
                    seen.add("mixed members")
        assert seen == {"class absent", "code absent", "wide", "narrow", "mixed members"}

    @pytest.mark.parametrize("n_classes", range(2, 13))
    def test_class_sum_is_numpy_row_sum(self, n_classes):
        # numpy sums a short row in sequence and a longer one pairwise; a
        # numpy that reorders either reduction fails here
        rng = np.random.default_rng(n_classes)
        terms = [rng.random(4000) * 10.0 ** rng.integers(-8, 8, 4000) for _ in range(n_classes)]
        want = np.stack(terms, axis=1).sum(axis=1)
        assert tree_module._class_sum(terms).tobytes() == want.tobytes()


class TestTrain:
    def test_single_class_single_leaf(self):
        ds = ordinal_dataset([1, 2, 3], [0, 0, 0], n_classes=1)
        tree = train(ds, TrainParams())
        assert len(tree.nodes) == 1
        assert tree.root.impurity == 0.0
        assert tree.root.is_leaf

    def test_city_depth_one(self):
        ds = city_dataset()
        _, encoded = encode_by_class_frequency(ds.column("city"), ds.labels, 0)
        encoded_ds = Dataset((encoded,), ds.labels, ds.class_names)
        tree = train(encoded_ds, TrainParams(max_depth=1))
        assert len(tree.nodes) == 3
        left, right = (tree.node(i) for i in tree.root.children)
        assert list(left.class_counts) == [3, 1]
        assert list(right.class_counts) == [0, 4]

    def test_breadth_first_ids(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng)
        tree = train(ds, TrainParams(max_depth=3))
        assert [n.id for n in tree.nodes] == list(range(len(tree.nodes)))
        for node in tree.nodes:
            if node.children:
                assert node.children[0] == node.children[1] - 1
                assert all(c > node.id for c in node.children)

    def test_partition_property(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng)
        tree = train(ds, TrainParams(max_depth=4))
        leaf_rows = np.concatenate([n.rows for n in tree.nodes if n.is_leaf])
        assert sorted(leaf_rows.tolist()) == list(range(ds.row_count))
        for node in tree.nodes:
            if node.children:
                kids = [tree.node(c) for c in node.children]
                assert sum(k.samples for k in kids) == node.samples

    def test_monotone_purity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ds = random_dataset(rng)
            tree = train(ds, TrainParams(max_depth=3))
            for node in tree.nodes:
                if node.children:
                    kids = [tree.node(c) for c in node.children]
                    weighted = sum(k.samples * k.impurity for k in kids) / node.samples
                    assert weighted <= node.impurity + 1e-12
                    assert node.split.gain > 0

    def test_determinism(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng)
        t1 = train(ds, TrainParams(max_depth=4))
        t2 = train(ds, TrainParams(max_depth=4))
        assert len(t1.nodes) == len(t2.nodes)
        for a, b in zip(t1.nodes, t2.nodes):
            assert a.samples == b.samples
            assert (a.split is None) == (b.split is None)
            if a.split:
                assert (a.split.attribute, a.split.pivot) == (b.split.attribute, b.split.pivot)
                assert a.split.gain == b.split.gain

    def test_trainer_equals_oracle_200_rows(self):
        rng = np.random.default_rng(42)
        ds = random_dataset(rng, max_rows=200, max_cols=6)
        params = TrainParams(max_depth=2)
        tree = train(ds, params)
        assert_tree_matches_oracle(tree, ds, params)

    def test_empty_dataset(self):
        ds = ordinal_dataset([1, 2], [0, 1])
        with pytest.raises(DataError):
            train(ds, TrainParams(), rows=np.array([], dtype=int))

    def test_majority_tie_lowest_class(self):
        ds = ordinal_dataset([1, 1, 2, 2], [0, 1, 0, 1])
        tree = train(ds, TrainParams())
        assert tree.root.decision == 0

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            TrainParams(max_depth=0)
        with pytest.raises(ConfigError):
            TrainParams(impurity_metric="variance")
        with pytest.raises(ConfigError):
            TrainParams(min_gain=-0.1)


class TestToDot:
    def test_single_leaf(self):
        ds = ordinal_dataset([1, 2], [0, 0], n_classes=1)
        dot = to_dot(train(ds, TrainParams()), ds)
        assert dot.count("->") == 0
        assert 'n0 [label="' in dot

    def test_depth_one_structure(self):
        ds = city_dataset()
        _, encoded = encode_by_class_frequency(ds.column("city"), ds.labels, 0)
        encoded_ds = Dataset((encoded,), ds.labels, ds.class_names)
        dot = to_dot(train(encoded_ds, TrainParams(max_depth=1)), encoded_ds)
        assert dot.count("->") == 2
        assert '[label="true"]' in dot
        assert '[label="false"]' in dot

    def test_highlight(self):
        ds = city_dataset()
        tree = train(ds, TrainParams(max_depth=1))
        dot = to_dot(tree, ds, highlight={0})
        assert "fillcolor" in dot

    def test_awkward_value_text_escaped(self):
        from dtclust.dataset import Column, ColumnKind

        codes = np.array([1, 1, 2, 2], dtype=np.int32)
        col = Column("q", ColumnKind.SYMBOLIC_NOMINAL, codes, ('say "hi"', "two\nlines"))
        ds = Dataset((col,), np.array([0, 0, 1, 1], dtype=np.int32), ("0", "1"))
        dot = to_dot(train(ds, TrainParams(max_depth=1)), ds)
        assert '\\"hi\\"' in dot
        for line in dot.splitlines():
            assert line.count('"') % 2 == 0 or "\\n" in line  # labels stay on one line

    def test_grammar(self):
        # parse with an independent DOT grammar (pyparsing)
        pyparsing = pytest.importorskip("pyparsing")
        pp = pyparsing
        ident = pp.Word(pp.alphanums + "_") | pp.QuotedString('"', esc_char="\\", unquote_results=False)
        attr = pp.Group(ident + pp.Suppress("=") + ident)
        attr_list = pp.Suppress("[") + pp.DelimitedList(attr, delim=pp.Optional(",")) + pp.Suppress("]")
        node_stmt = ident + pp.Optional(attr_list) + pp.Suppress(";")
        edge_stmt = ident + pp.Suppress("->") + ident + pp.Optional(attr_list) + pp.Suppress(";")
        stmt = pp.Group(edge_stmt) | pp.Group(node_stmt)
        graph = pp.Keyword("digraph") + ident + pp.Suppress("{") + pp.ZeroOrMore(stmt) + pp.Suppress("}")

        rng = np.random.default_rng(31)
        ds = random_dataset(rng)
        dot = to_dot(train(ds, TrainParams(max_depth=3)), ds)
        graph.parse_string(dot, parse_all=True)
