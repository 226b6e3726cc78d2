"""Impurity metrics, exhaustive split search, training, and DOT export."""

from unittest import mock

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


def split_bits(split):
    return None if split is None else (
        split.gain.hex(), split.pivot, split.attribute, split.column_index, split.ordinal)


class TestTrainProperty:
    """Whole trees against the brute-force oracle: every node of every level,
    through histograms counted on the smaller child and subtracted from the
    parent and scored a level at a time on narrow groups, and counted and
    scored per node on wide ones and on levels that outgrow a narrow group's
    max_nodes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
        subset=st.booleans(),
        max_depth=st.integers(1, 4),
        min_samples_leaf=st.sampled_from([1, 3]),
        metric=st.sampled_from(["gini", "entropy"]),
        min_gain=st.sampled_from([0.0, 0.02]),
    )
    def test_equals_oracle(self, seed, wide, subset, max_depth, min_samples_leaf, metric, min_gain):
        ds, rows = tree_case(seed, wide, subset)
        root_rows = np.arange(ds.row_count) if rows is None else rows.copy()
        params = TrainParams(metric, max_depth=max_depth, min_gain=min_gain,
                             min_samples_leaf=min_samples_leaf)
        searched_rows = []
        real = tree_module.best_split

        def spy(node_rows, *args, **kwargs):
            searched_rows.append(node_rows)
            return real(node_rows, *args, **kwargs)

        with mock.patch.object(tree_module, "best_split", spy):
            tree = train(ds, params, rows=rows)
        assert_tree_matches_oracle(tree, ds, params)
        # best_split runs once per searched node, in node order, on its rows
        searched = [node for node in tree.nodes if is_open(node, params)]
        assert len(searched_rows) == len(searched)
        assert all(got is node.rows for got, node in zip(searched_rows, searched))
        # each searched node's split, or its lack of one, is the one best_split
        # finds on the node's rows alone, to the bit
        for node in searched:
            assert split_bits(node.split) == split_bits(best_split(node.rows, ds, params)), (
                f"node {node.id}")
        # the tree keeps one row order: the root holds the given rows, permuted
        # by the splits, and the caller's array is left as it was
        assert np.sort(tree.root.rows).tolist() == root_rows.tolist()
        if rows is not None:
            assert rows.tolist() == root_rows.tolist()
        for node in tree.nodes:
            assert np.shares_memory(node.rows, tree.root.rows), f"node {node.id}"
            expected = np.bincount(ds.labels[node.rows], minlength=ds.n_classes)
            assert node.class_counts.tolist() == expected.tolist(), f"node {node.id}"
            if node.is_leaf:
                assert (np.diff(node.rows) > 0).all(), f"leaf {node.id} is not ascending"
            else:
                # the node's slice is its left child's rows, then its right child's
                left, right = (tree.node(c).rows for c in node.children)
                assert node.rows[:len(left)].tolist() == left.tolist(), f"node {node.id}"
                assert node.rows[len(left):].tolist() == right.tolist(), f"node {node.id}"

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
                # a searched node whose best gain is positive but within
                # min_gain = 0.02, so the filter alone leaves it a leaf
                strict = TrainParams(max_depth=4, min_samples_leaf=3, min_gain=0.02)
                for node in train(ds, strict, rows=rows, layout=layout).nodes:
                    if node.is_leaf and is_open(node, strict) \
                            and oracle_best_split(node.rows, ds, params) is not None:
                        seen.add("min_gain rejects a split")
        assert seen == {"narrow", "wide", "narrow below root", "level outgrows narrow group",
                        "only smaller open", "only larger open", "min_gain rejects a split"}


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


class TestHistogramLayout:
    """The per-dataset keys against plain per-row counting."""

    @staticmethod
    def reference_histograms(ds, group, row_sets):
        # (sets x classes x bins), one row and one member at a time
        ref = np.zeros((len(row_sets), ds.n_classes, group.n_bins), dtype=np.int64)
        for i, rows in enumerate(row_sets):
            for j, ci in enumerate(group.columns):
                np.add.at(ref, (i, ds.labels[rows], group.starts[j] + ds.columns[ci].codes[rows]), 1)
        return ref

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
    def test_keys_and_widest_level(self, seed, wide):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, max_rows=400, max_cols=5, wide_column=wide)
        everything = np.arange(ds.row_count)
        for group in histogram_layout(ds):
            assert group.keys.dtype == np.int32
            whole = tree_module._histograms(group, [everything], ds.n_classes)
            assert whole.tolist() == self.reference_histograms(ds, group, [everything]).tolist()
            if group.max_nodes < 1:
                continue
            # a level of max_nodes sets: the last one's keys carry the largest
            # slot offset a kept group ever adds
            cuts = np.sort(rng.choice(np.arange(1, ds.row_count), size=group.max_nodes - 1,
                                      replace=False))
            level = np.split(rng.permutation(everything), cuts)
            got = tree_module._histograms(group, level, ds.n_classes)
            assert got.tolist() == self.reference_histograms(ds, group, level).tolist()

    def test_cases_reach_every_layout(self):
        seen = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            ds = random_dataset(rng, max_rows=400, max_cols=5, wide_column=seed % 2 == 1)
            for group in histogram_layout(ds):
                seen.add("wide" if group.max_nodes == 0 else
                         "one node" if group.max_nodes == 1 else "several nodes")
        assert seen == {"wide", "one node", "several nodes"}

    def test_keys_past_int32_are_intp(self):
        # 2**16 classes x (2**15 + 2) bins is past 2**31, so the group's keys
        # are intp, and a row of the last class keeps its key, which int32
        # would wrap; the group is wide, so no histogram is ever counted
        n_classes, width = 2**16, 2**15 + 1
        codes = np.array([width, 1, 0], dtype=np.int32)
        col = Column("c", ColumnKind.SYMBOLIC_NOMINAL, codes, tuple(f"v{i}" for i in range(width)))
        labels = np.array([n_classes - 1, 0, 1], dtype=np.int32)
        ds = Dataset((col,), labels, tuple(f"k{i}" for i in range(n_classes)))
        group, = histogram_layout(ds)
        assert group.keys.dtype == np.intp and group.max_nodes == 0
        assert group.n_bins * n_classes >= 2**31
        expected = labels.astype(np.int64) * group.n_bins + codes
        assert group.keys[:, 0].tolist() == expected.tolist()


def kernel_case(seed, n_classes):
    """A random table and node rows: narrow groups that mix ordered and
    nominal members, wide groups, codes absent from the node and classes with
    no rows in it."""
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


def level_case(seed, n_classes):
    """kernel_case's table and a level over it: 1-6 disjoint nodes drawn from
    its node rows."""
    ds, rows = kernel_case(seed, n_classes)
    rng = np.random.default_rng([seed, n_classes])
    n_nodes = int(rng.integers(1, min(6, len(rows)) + 1))
    cuts = np.sort(rng.choice(np.arange(1, len(rows)), size=n_nodes - 1, replace=False))
    return ds, np.split(rng.permutation(rows), cuts)


def score_level(ds, level, params):
    """Per group of ds's layout: the group, the level's histograms and
    _best_in_level's result for each node."""
    counts = np.stack([np.bincount(ds.labels[rows], minlength=ds.n_classes)
                       for rows in level]).astype(np.float64)
    impurities = np.array([impurity(c, params.impurity_metric) for c in counts])
    for group in histogram_layout(ds):
        hists = tree_module._histograms(group, level, ds.n_classes)
        yield group, hists, tree_module._best_in_level(group, hists, counts, impurities, params)


class TestScorerBits:
    """The split scorer on a level against the (candidates x classes) matrix
    kernel on each node's own histogram, bit for bit. The oracle's tolerance
    cannot see a last-bit change in a gain, and report.json prints every
    gain. The scorer scores the bins present in some node of the level; the
    kernel scores the codes present in the node alone."""

    @pytest.mark.parametrize("n_classes", range(2, 13))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        min_samples_leaf=st.sampled_from([1, 3]),
        metric=st.sampled_from(["gini", "entropy"]),
    )
    def test_equals_matrix_kernel(self, n_classes, seed, min_samples_leaf, metric):
        ds, level = level_case(seed, n_classes)
        params = TrainParams(metric, min_samples_leaf=min_samples_leaf)
        for group, hists, got in score_level(ds, level, params):
            assert len(got) == len(level)
            for i, rows in enumerate(level):
                cnt = tree_module._histograms(group, [rows], n_classes)[0]
                parent_counts = np.bincount(ds.labels[rows], minlength=n_classes).astype(np.float64)
                want = reference_best_in_group(group, cnt, parent_counts,
                                               impurity(parent_counts, metric), params)
                assert gain_bits(got[i]) == gain_bits(want), (
                    f"node {i} of {len(level)}, group of columns {group.columns.tolist()}")

    def test_cases_reach_every_layout(self):
        seen = set()
        params = TrainParams(min_samples_leaf=3)
        for seed in range(60):
            ds, level = level_case(seed, n_classes=8)
            if len(level) == 1:
                seen.add("one node")
            for group, hists, found in score_level(ds, level, params):
                present = hists.any(axis=1)
                if not present.all():
                    seen.add("code absent from a node")
                if not present.any(axis=0).all():
                    seen.add("code absent from the level")
                    if group.max_nodes:
                        seen.add("kept group with a code absent from the level")
                if not hists.any(axis=2).all():
                    seen.add("class absent from a node")
                if group.max_nodes:
                    seen.add("kept group")
                elif len(level) >= 2:
                    seen.add("wide group on several nodes")
                if len(set(group.ordered.tolist())) == 2:
                    seen.add("mixed members")
                if None in found and any(f is not None for f in found):
                    seen.add("some nodes without a candidate")
        assert seen == {"one node", "code absent from a node", "code absent from the level",
                        "kept group with a code absent from the level",
                        "class absent from a node", "kept group", "wide group on several nodes",
                        "mixed members", "some nodes without a candidate"}

    @staticmethod
    def merged_reference(ds, rows, layout, params):
        """Per group of layout, in order, the reference's result on the rows'
        own histogram, and the best of them as best_split keeps it: a gain above
        min_gain that beats every earlier group's, or None."""
        counts = np.bincount(ds.labels[rows], minlength=ds.n_classes).astype(np.float64)
        node_impurity = impurity(counts, params.impurity_metric)
        per_group = [reference_best_in_group(group, tree_module._histograms(group, [rows], ds.n_classes)[0],
                                             counts, node_impurity, params)
                     for group in layout]
        best = None
        for cand in per_group:
            if cand is not None and cand[0] > params.min_gain and (best is None or cand[0] > best[0]):
                best = cand
        return per_group, best

    @staticmethod
    def train_found(ds, level, params, layout):
        """Per node of the level, the found map train passes best_split: the
        level's results in each kept group whose max_nodes holds the level."""
        scored = [found for _, _, found in score_level(ds, level, params)]
        kept = [g for g, group in enumerate(layout) if len(level) <= group.max_nodes]
        return [{g: scored[g][i] for g in kept} for i in range(len(level))]

    @pytest.mark.parametrize("n_classes", range(2, 13))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        min_samples_leaf=st.sampled_from([1, 3]),
        metric=st.sampled_from(["gini", "entropy"]),
        min_gain=st.sampled_from([0.0, 0.05]),
    )
    def test_best_split_merges_groups(self, n_classes, seed, min_samples_leaf, metric, min_gain):
        # best_split on each node of a level, with every group scored on the
        # node alone and with the kept groups' results taken from the level as
        # train takes them, equals the reference's best over the groups in
        # layout order, bit for bit
        ds, level = level_case(seed, n_classes)
        params = TrainParams(metric, min_gain=min_gain, min_samples_leaf=min_samples_leaf)
        layout = histogram_layout(ds)
        for rows, kept in zip(level, self.train_found(ds, level, params, layout)):
            _, want = self.merged_reference(ds, rows, layout, params)
            for found in (None, kept):
                split = best_split(rows, ds, params, layout, found=found)
                got = None if split is None else (split.gain, split.column_index, split.pivot)
                assert gain_bits(got) == gain_bits(want), f"found for groups {found and sorted(found)}"
                if split is not None:
                    col = ds.columns[split.column_index]
                    assert (split.attribute, split.ordinal) == (col.name, col.kind.is_ordered)

    def test_best_split_cases_reach_every_path(self):
        seen = set()
        for seed in range(60):
            for min_gain in (0.0, 0.05):
                params = TrainParams(min_gain=min_gain, min_samples_leaf=3)
                ds, level = level_case(seed, n_classes=8)
                layout = histogram_layout(ds)
                for rows, kept in zip(level, self.train_found(ds, level, params, layout)):
                    if kept:
                        seen.add("kept group taken from the level")
                    if len(kept) < len(layout):
                        seen.add("group scored on the node alone")
                    per_group, best = self.merged_reference(ds, rows, layout, params)
                    gains = [cand[0] for cand in per_group if cand is not None]
                    if best is None:
                        seen.add("gain held back by min_gain" if gains else "no candidate")
                        continue
                    if best is not per_group[0]:
                        seen.add("won by a later group")
                    if gains.count(best[0]) > 1:
                        seen.add("equal gains in two groups")
        assert seen == {"kept group taken from the level", "group scored on the node alone",
                        "gain held back by min_gain", "no candidate", "won by a later group",
                        "equal gains in two groups"}

    @pytest.mark.parametrize("n_classes", range(2, 13))
    def test_class_sum_is_numpy_row_sum(self, n_classes):
        # numpy sums a short row in sequence and a longer one pairwise; a
        # numpy that reorders either reduction fails here, and (nodes x
        # candidates) terms sum as their flattened rows do
        rng = np.random.default_rng(n_classes)
        terms = [rng.random(4000) * 10.0 ** rng.integers(-8, 8, 4000) for _ in range(n_classes)]
        want = np.stack(terms, axis=1).sum(axis=1)
        assert tree_module._class_sum(terms).tobytes() == want.tobytes()
        level = tree_module._class_sum([t.reshape(8, 500) for t in terms])
        assert level.shape == (8, 500) and level.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("rows, message", [
        ([-1, -2, 0, 5, 5, 5], "outside 0..7"),
        ([0, 3, -1], "outside 0..7"),
        ([0, 8], "outside 0..7"),
        ([0, 5, 5, 5], "repeats a row id"),
        ([7, 2, 7], "repeats a row id"),
        (np.ones(8, dtype=bool), "integer row ids"),
        ([0.0, 1.0], "integer row ids"),
        ([[0, 1], [2, 3]], "integer row ids"),
        (5, "integer row ids"),
    ])
    def test_refuses_bad_row_ids(self, rows, message):
        # a negative id would wrap to a row from the end, a repeated one would
        # be counted twice, and a mask would select rather than name rows
        ds = ordinal_dataset([1, 2, 3, 4, 1, 2, 3, 4], [0, 1, 0, 1, 1, 0, 1, 0])
        with pytest.raises(DataError, match=message):
            train(ds, TrainParams(), rows=np.array(rows))

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


def node_record(node):
    return (node.id, node.depth, node.parent, node.children, node.rows.tolist(),
            node.class_counts.tolist(), node.impurity.hex(), node.decision, split_bits(node.split))


class TestOpensHook:
    """train's opens hook: an extra stopping rule, called on every node made."""

    @pytest.mark.parametrize("seed", range(12))
    def test_called_once_per_node_made(self, seed):
        ds, rows = tree_case(seed, wide=seed % 3 == 0, subset=seed % 2 == 0)
        rng = np.random.default_rng(seed)
        seen, refused = [], set()

        def opens(node):
            seen.append(node)
            if rng.random() < 0.3:
                refused.add(node.id)
                return False
            return True

        tree = train(ds, TrainParams(max_depth=4), rows=rows, opens=opens)
        assert len(seen) == len(tree.nodes)
        assert all(got is node for got, node in zip(seen, tree.nodes))
        assert all(tree.node(i).is_leaf for i in refused)

    @pytest.mark.parametrize("seed", range(12))
    def test_always_open_is_no_hook(self, seed):
        ds, rows = tree_case(seed, wide=seed % 3 == 0, subset=seed % 2 == 0)
        params = TrainParams(max_depth=4, min_samples_leaf=1 + seed % 3)
        whole = train(ds, params, rows=rows)
        hooked = train(ds, params, rows=rows, opens=lambda node: True)
        assert [node_record(n) for n in hooked.nodes] == [node_record(n) for n in whole.nodes]

    def test_never_open_is_root_only(self):
        ds, rows = tree_case(3, wide=False, subset=True)
        tree = train(ds, TrainParams(max_depth=4), rows=rows, opens=lambda node: False)
        assert len(tree.nodes) == 1 and tree.root.is_leaf
        assert tree.root.rows.tolist() == rows.tolist()
        assert len(train(ds, TrainParams(max_depth=4), rows=rows).nodes) > 1


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
