"""F-beta scoring, node ranking and selection, iterative extraction, rule decoding."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust.dataset import ColumnKind, Dataset
from dtclust.errors import ConfigError, DataError, InternalError
from dtclust.extract import (
    _ordered_predicate,
    extract_iterative,
    fbeta_score,
    linearize_rule,
    rank_nodes,
    select_from_single_tree,
)
from dtclust.pipeline import PipelineConfig, run_extraction
from dtclust.preprocess import BinDirective, PreprocessPlan, apply_plan
from dtclust.rules import MISSING, RangeTest, SetTest, apply_rule, rule_from_dict, rule_to_dict
from dtclust.stability import draw_sample
from dtclust.tree import TrainParams, train

from helpers import (
    city_dataset,
    identity_log,
    ordinal_symbolic_dataset,
    random_dataset,
    reference_metric_tree,
    reference_original_codes,
    selection_scenario_tree,
    single_split_tree,
)

# the published metric table: precision, recall, F1, F-0.5 per cluster
REFERENCE_METRICS = {
    "c1": (0.7420, 0.68128, 0.71037, 0.7290),
    "c2": (0.9523, 0.46784, 0.62745, 0.7889),
    "c3": (0.94706, 0.47076, 0.62891, 0.7876),
    "c4": (0.95652, 0.06433, 0.12054, 0.2534),
    "c5": (0.5897, 0.20175, 0.30065, 0.4259),
    "c6": (0.5610, 0.06725, 0.12010, 0.2272),
}


class TestFbetaScore:
    @pytest.mark.parametrize("name", sorted(REFERENCE_METRICS))
    def test_reference_table(self, name):
        p, r, f1, f05 = REFERENCE_METRICS[name]
        assert fbeta_score(p, r, 1.0) == pytest.approx(f1, abs=1e-3)
        assert fbeta_score(p, r, 0.5) == pytest.approx(f05, abs=1e-3)

    def test_additive_variant_is_wrong(self):
        # an additive numerator (a common transcription slip) does not reproduce
        # the reference table; the harmonic form does
        p, r, _, f05 = REFERENCE_METRICS["c2"]
        beta = 0.5
        additive = (1 + beta**2) * (p + r) / (beta**2 * p + r)
        assert abs(additive - f05) > 0.1
        assert abs(fbeta_score(p, r, beta) - f05) < 1e-3

    def test_fixed_point(self):
        for x in (0.0, 0.25, 0.5, 1.0):
            for beta in (0.33, 0.5, 1.0, 2.0):
                assert fbeta_score(x, x, beta) == pytest.approx(x, abs=1e-12)

    def test_zero_when_both_zero(self):
        assert fbeta_score(0.0, 0.0, 1.0) == 0.0

    def test_beta_monotone_when_precision_exceeds_recall(self):
        p, r = 0.9, 0.3
        scores = [fbeta_score(p, r, b) for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            f = fbeta_score(rng.random(), rng.random(), rng.uniform(0.05, 5))
            assert 0.0 <= f <= 1.0

    def test_invalid_beta(self):
        with pytest.raises(ConfigError):
            fbeta_score(0.5, 0.5, 0.0)


class TestNodeFbeta:
    def test_reference_nodes(self):
        # the reference tree's root holds all 342 target rows
        tree, ids = reference_metric_tree()
        assert tree.root.class_counts[1] == 342
        for beta, column in ((1.0, 2), (0.5, 3)):
            scores = {c.node_id: c.f_beta for c in rank_nodes(tree, 1, beta)}
            for name, metrics in REFERENCE_METRICS.items():
                assert scores[ids[name]] == pytest.approx(metrics[column], abs=1e-3)

    def test_increasing_in_tp(self):
        # a 100-row node against 342 target rows: F1 grows with every true positive
        scores = [fbeta_score(tp / 100, tp / 342, 1.0) for tp in range(0, 101, 10)]
        assert all(a < b for a, b in zip(scores, scores[1:]))


class TestRankNodes:
    def test_f1_top_is_c1(self):
        tree, ids = reference_metric_tree()
        ranked = rank_nodes(tree, target_class=1, beta=1.0)
        assert ranked[0].node_id == ids["c1"]
        assert ranked[0].f_beta == pytest.approx(0.71037, abs=1e-3)

    def test_f05_top_is_c2(self):
        tree, ids = reference_metric_tree()
        ranked = rank_nodes(tree, target_class=1, beta=0.5)
        assert ranked[0].node_id == ids["c2"]
        assert ranked[0].f_beta == pytest.approx(0.7889, abs=1e-3)

    def test_permutation_of_all_nodes(self):
        tree, _ = reference_metric_tree()
        ranked = rank_nodes(tree, 1, 0.33)
        assert sorted(c.node_id for c in ranked) == [n.id for n in tree.nodes]

    def test_root_of_pure_tree_scores_one(self):
        ds = city_dataset()
        pure = Dataset(ds.columns, np.ones(8, dtype=np.int32), ("0", "1"))
        tree = train(pure, TrainParams())
        ranked = rank_nodes(tree, 1, 0.5)
        assert ranked[0].node_id == 0
        assert ranked[0].f_beta == 1.0

    def test_no_positives_errors(self):
        ds = city_dataset()
        none = Dataset(ds.columns, np.zeros(8, dtype=np.int32), ("0", "1"))
        tree = train(none, TrainParams())
        with pytest.raises(DataError):
            rank_nodes(tree, 1, 0.5)


class TestSelectFromSingleTree:
    def test_scenario_two_clusters(self):
        # after the best node, its relatives are all blocked; the next pick is
        # the small pure node whose own ancestor ranks below it
        tree, ids = selection_scenario_tree()
        chosen = select_from_single_tree(tree, target_class=1, beta=1.0, k=2)
        assert [c.node_id for c in chosen] == [ids["a"], ids["d"]]

    def test_relatives_never_selected(self):
        tree, ids = selection_scenario_tree()
        chosen = select_from_single_tree(tree, 1, 1.0, k=3)
        picked = {c.node_id for c in chosen}
        assert ids["a"] in picked and ids["d"] in picked
        for blocked in ("b", "c", "e", "f", "mid"):
            assert ids[blocked] not in picked

    def test_k1_is_global_max(self):
        tree, _ = reference_metric_tree()
        ranked = rank_nodes(tree, 1, 0.5)
        chosen = select_from_single_tree(tree, 1, 0.5, k=1)
        assert len(chosen) == 1
        assert chosen[0].node_id == ranked[0].node_id

    def test_chain_tree_yields_one(self):
        # every node on a single path: only one selectable
        ds = ordinal_symbolic_dataset("x", tuple(f"v{i}" for i in range(8)))
        tree = train(ds, TrainParams(max_depth=7, min_samples_leaf=1))
        chosen = select_from_single_tree(tree, 1, 0.5, k=5)
        ids = [c.node_id for c in chosen]
        for a in ids:
            for b in ids:
                if a != b:
                    assert a not in tree.ancestors(b)

    def test_no_ancestor_descendant_pairs(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            ds = random_dataset(rng)
            tree = train(ds, TrainParams(max_depth=4))
            chosen = select_from_single_tree(tree, 1, 0.33, k=4)
            picked = [c.node_id for c in chosen]
            for a in picked:
                ancestors = tree.ancestors(a)
                for b in picked:
                    if b != a:
                        assert b not in ancestors


class TestExtractIterative:
    def test_clusters_disjoint(self):
        rng = np.random.default_rng(19)
        ds = random_dataset(rng, max_rows=150)
        out = extract_iterative(ds, TrainParams(max_depth=3), target_class=1,
                                beta=0.5, n_clusters=4)
        seen = set()
        for cand in out.clusters:
            rows = set(cand.row_ids.tolist())
            assert not rows & seen
            seen |= rows

    def test_stops_when_data_consumed(self):
        ds = city_dataset()
        pure = Dataset(ds.columns, np.ones(8, dtype=np.int32), ("0", "1"))
        out = extract_iterative(pure, TrainParams(), 1, beta=0.5, n_clusters=5)
        assert len(out.clusters) == 1
        assert out.clusters[0].size == 8

    def test_stops_without_positives(self):
        ds = city_dataset()
        out = extract_iterative(ds, TrainParams(max_depth=2), 0, beta=0.5, n_clusters=8)
        assert len(out.clusters) <= 3
        covered = sum(c.tp for c in out.clusters)
        assert covered <= 3  # only three class-0 rows exist

    def test_row_ids_refer_to_original(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, max_rows=100)
        out = extract_iterative(ds, TrainParams(max_depth=2), 1, beta=0.5, n_clusters=3)
        for cand in out.clusters:
            assert cand.row_ids.max() < ds.row_count
            labels = ds.labels[cand.row_ids]
            assert int((labels == 1).sum()) == cand.tp

    def test_fn_counts_remaining_positives(self):
        rng = np.random.default_rng(37)
        ds = random_dataset(rng, max_rows=120)
        out = extract_iterative(ds, TrainParams(max_depth=2), 1, beta=0.5, n_clusters=2)
        if len(out.clusters) == 2:
            first, second = out.clusters
            remaining_pos = int((ds.labels == 1).sum()) - first.tp
            assert second.tp + second.fn == remaining_pos

    def test_invalid_target(self):
        ds = city_dataset()
        with pytest.raises(ConfigError):
            extract_iterative(ds, TrainParams(), 9, beta=0.5, n_clusters=1)


COUNTRY_ORDER = (
    "Holand-Netherlands", "Trinadad&Tobago", "Italy", "Nicaragua", "Portugal",
    "Scotland", "Outlying-US(Guam-USVI-etc)", "Thailand", "China", "France",
    "Columbia", "Canada", "Philippines", "South", "Iran", "India", "Greece",
    "Cambodia", "Puerto-Rico", "Taiwan", "Guatemala", "Honduras", "Ireland",
    "Jamaica", "Dominican-Republic", "Laos", "Cuba", "?", "Germany", "Hong",
    "Yugoslavia", "Mexico", "United-States", "England", "Peru", "Poland",
    "El-Salvador", "Haiti", "Japan", "Vietnam", "Hungary", "Ecuador",
)

EDUCATION_ORDER = (
    "1st-4th", "7th-8th", "Prof-school", "HS-grad", "Bachelors", "5th-6th",
    "Doctorate", "11th", "10th", "Masters", "Preschool", "Assoc-acdm",
    "Assoc-voc", "9th", "12th", "Some-college",
)


class TestLinearize:
    def test_country_tail_expansion(self):
        # "country > Dominican-Republic" over the reordered 42-value dictionary
        # expands to the 17 values after the pivot, United-States included
        ds = ordinal_symbolic_dataset("native-country", COUNTRY_ORDER)
        pivot = COUNTRY_ORDER.index("Dominican-Republic") + 1
        tree = single_split_tree(ds, "native-country", pivot)
        right_child = tree.root.children[1]
        rule = linearize_rule(tree, right_child, identity_log(ds))
        assert len(rule.predicates) == 1
        pred = rule.predicates[0]
        assert pred.op == "in"
        assert set(pred.values) == set(COUNTRY_ORDER[pivot:])
        assert len(pred.values) == 17
        assert "United-States" in pred.values

    def test_education_singleton(self):
        ds = ordinal_symbolic_dataset("education", EDUCATION_ORDER)
        pivot = EDUCATION_ORDER.index("12th") + 1
        tree = single_split_tree(ds, "education", pivot)
        rule = linearize_rule(tree, tree.root.children[1], identity_log(ds))
        pred = rule.predicates[0]
        assert pred.op == "=="
        assert pred.values == ("Some-college",)

    def test_root_is_empty_rule(self):
        ds = city_dataset()
        tree = train(ds, TrainParams(max_depth=2))
        rule = linearize_rule(tree, 0, identity_log(ds))
        assert rule.predicates == ()
        assert len(apply_rule(rule, ds)) == ds.row_count

    def test_interval_merging(self):
        # two ordered conditions on one attribute merge into a single range
        rng = np.random.default_rng(11)
        values = np.sort(rng.uniform(0, 100, size=40))
        from dtclust.dataset import encode_column
        col = encode_column("x", [repr(float(v)) for v in values], ColumnKind.NUMERIC)
        labels = ((col.codes > 10) & (col.codes <= 25)).astype(np.int32)
        ds = Dataset((col,), labels, ("0", "1"))
        tree = train(ds, TrainParams(max_depth=2))
        log = identity_log(ds)
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, log)
            assert len(rule.predicates) <= 1
            if node.depth == 2 and node.impurity == 0.0 and node.decision == 1:
                pred = rule.predicates[0]
                assert pred.op == "in"
                assert isinstance(pred, RangeTest)

    def test_complement_rendering(self):
        # excluding one nominal value renders as != rather than a long in-set
        ds = city_dataset()
        tree = train(ds, TrainParams(max_depth=1))
        log = identity_log(ds)
        left, right = tree.root.children
        rule_l = linearize_rule(tree, left, log)
        rule_r = linearize_rule(tree, right, log)
        ops = {rule_l.predicates[0].op, rule_r.predicates[0].op}
        assert ops == {"==", "!="}

    def test_ordered_not_missing(self):
        # a numeric column split at the missing pivot: the child that keeps every
        # value reads like a symbolic column's "not missing" test
        from dtclust.dataset import encode_column
        col = encode_column("x", ["1.5", "", "2.5", "", "3.5", "7", "", "9"], ColumnKind.NUMERIC)
        labels = (col.codes == 0).astype(np.int32)
        ds = Dataset((col,), labels, ("0", "1"))
        tree = train(ds, TrainParams(max_depth=1))
        assert tree.root.split.pivot == 0
        child = tree.node(tree.root.children[1])
        rule = linearize_rule(tree, child.id, identity_log(ds))
        assert rule.text() == "x is not missing"
        assert rule_to_dict(rule)["predicates"] == [{"attribute": "x", "op": "!=", "value": None}]
        assert np.array_equal(apply_rule(rule, ds), child.rows)

    def test_missing_transform_record(self):
        ds = city_dataset()
        tree = train(ds, TrainParams(max_depth=1))
        from dtclust.preprocess import TransformLog
        with pytest.raises(ConfigError):
            linearize_rule(tree, 1, TransformLog())

    def test_reachable_gap_is_internal_error(self):
        # codes {1, 3} with code 2 reachable cannot be one interval
        ds = ordinal_symbolic_dataset("grade", ("a", "b", "c"))
        entry = identity_log(ds).entries["grade"]
        with pytest.raises(InternalError, match=r"'grade'.*\[2\]"):
            _ordered_predicate("grade", {1, 3}, {1, 2, 3}, entry)


class TestApplyRule:
    def test_empty_rule_matches_all(self):
        from dtclust.rules import Rule
        ds = city_dataset()
        assert len(apply_rule(Rule((), 0), ds)) == 8

    def test_unknown_attribute(self):
        from dtclust.rules import Rule
        ds = city_dataset()
        rule = Rule((SetTest("nope", ("x",)),), 0)
        with pytest.raises(ConfigError):
            apply_rule(rule, ds)

    def test_missing_marker(self):
        from dtclust.dataset import encode_column
        from dtclust.rules import Rule
        col = encode_column("a", ["x", "?", "y", "?"], ColumnKind.SYMBOLIC_NOMINAL)
        ds = Dataset((col,), np.zeros(4, dtype=np.int32), ("0",))
        rule = Rule((SetTest("a", (MISSING,)),), 0)
        assert sorted(apply_rule(rule, ds).tolist()) == [1, 3]
        rule = Rule((SetTest("a", (MISSING,), negated=True),), 0)
        assert sorted(apply_rule(rule, ds).tolist()) == [0, 2]

    @pytest.mark.parametrize("kind, cells, raw, expected", [
        # numeric equality is on values: "0.0" is the 0 of rows 0 and 2
        (ColumnKind.NUMERIC, ["0", "1", "0", "?", "2"], {"op": "==", "value": 0.0}, [0, 2]),
        (ColumnKind.NUMERIC, ["0", "1", "0", "?", "2"], {"op": "!=", "value": "0.0"}, [1, 3, 4]),
        (ColumnKind.NUMERIC, ["0", "1", "0", "?", "2"], {"op": "in", "values": ["2.0", "x", None]}, [3, 4]),
        (ColumnKind.DATETIME, ["2020-01-02", "?", "2021-06-30"], {"op": "==", "value": "2020-1-2"}, [0]),
        # on a symbolic column a value must be a display text
        (ColumnKind.SYMBOLIC_NOMINAL, ["0", "0.0", "1"], {"op": "==", "value": "0.0"}, [1]),
    ])
    def test_set_test_on_values(self, kind, cells, raw, expected):
        from dtclust.dataset import encode_column
        from dtclust.rules import Rule, predicate_from_dict
        col = encode_column("a", cells, kind)
        ds = Dataset((col,), np.zeros(len(cells), dtype=np.int32), ("0",))
        rule = Rule((predicate_from_dict({"attribute": "a", **raw}),), 0)
        assert apply_rule(rule, ds).tolist() == expected


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_unpreprocessed(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng)
        tree = train(ds, TrainParams(max_depth=3))
        log = identity_log(ds)
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, log)
            got = apply_rule(rule, ds)
            assert sorted(got.tolist()) == sorted(node.rows.tolist()), f"node {node.id}"

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_through_full_pipeline(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng)
        plan = PreprocessPlan(numeric_bins=3, reorder_symbolic=True)
        prepared, log = apply_plan(ds, plan, target_class=1)
        tree = train(prepared, TrainParams(max_depth=3))
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, log)
            got = apply_rule(rule, ds)
            assert sorted(got.tolist()) == sorted(node.rows.tolist()), f"node {node.id}"

    def test_dropped_bin_gap_roundtrip(self):
        # a dictionary value no row carries (as in bagged sample views) can
        # leave an equal-width bin empty; rules must still decode and round-trip
        from dtclust.dataset import Column

        values = np.array([0.0, 4.9, 6.0, 10.0])
        col = Column("x", ColumnKind.NUMERIC, np.array([1, 1, 3, 3, 4, 4], dtype=np.int32),
                     ("0.0", "4.9", "6.0", "10.0"), values=values)
        ds = Dataset((col,), np.array([0, 0, 0, 0, 1, 1], dtype=np.int32), ("0", "1"))
        plan = PreprocessPlan(per_column={"x": BinDirective("equal-width", 4)},
                              reorder_symbolic=False)
        prepared, log = apply_plan(ds, plan, target_class=1)
        spec = log.for_column("x").steps[0]
        assert 2 not in {c for b in spec.bins for c in b.members}  # code 2 fell out
        tree = train(prepared, TrainParams(max_depth=1))
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, log)
            got = apply_rule(rule, ds)
            assert sorted(got.tolist()) == sorted(node.rows.tolist())

    def test_subset_view_roundtrip_with_equal_width_bins(self):
        # stability-style scenario: refit binning on a row subset whose
        # dictionary keeps values the subset never observes
        rng = np.random.default_rng(55)
        from dtclust.dataset import encode_column

        col = encode_column("v", [repr(float(v)) for v in rng.uniform(0, 100, 200)],
                            ColumnKind.NUMERIC)
        labels = (col.codes > 100).astype(np.int32)
        full = Dataset((col,), labels, ("0", "1"))
        for k in range(5):
            ids = np.sort(rng.choice(200, size=120, replace=False))
            view = full.subset(ids)
            plan = PreprocessPlan(per_column={"v": BinDirective("equal-width", 6)},
                                  reorder_symbolic=False)
            prepared, log = apply_plan(view, plan, target_class=1)
            tree = train(prepared, TrainParams(max_depth=3))
            for node in tree.nodes:
                rule = linearize_rule(tree, node.id, log)
                got = apply_rule(rule, view)
                assert sorted(got.tolist()) == sorted(node.rows.tolist())

    def test_binned_datetime_roundtrip(self):
        # a binned timestamp column must decode to time ranges that reselect
        # exactly the node rows
        from dtclust.dataset import encode_column

        rng = np.random.default_rng(41)
        stamps = [f"2021-06-{int(d):02d}" for d in rng.integers(1, 29, size=120)]
        col = encode_column("when", stamps, ColumnKind.DATETIME, pattern="%Y-%m-%d")
        labels = (col.codes > col.n_values // 2).astype(np.int32)
        noise = rng.random(120) < 0.1
        labels[noise] = 1 - labels[noise]
        ds = Dataset((col,), labels, ("0", "1"))

        plan = PreprocessPlan(per_column={"when": BinDirective("frequency", 4)},
                              reorder_symbolic=False)
        prepared, log = apply_plan(ds, plan, target_class=1)
        assert prepared.column("when").n_values <= 4
        tree = train(prepared, TrainParams(max_depth=2))
        assert tree.root.split is not None
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, log)
            got = apply_rule(rule, ds)
            assert sorted(got.tolist()) == sorted(node.rows.tolist())
            for pred in rule.predicates:
                assert "2021-06-" in pred.text()

    def test_iterative_snapshot_roundtrip(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, max_rows=150)
        plan = PreprocessPlan(reorder_symbolic=True)
        prepared, log = apply_plan(ds, plan, target_class=1)
        out = extract_iterative(prepared, TrainParams(max_depth=3), 1, beta=0.5, n_clusters=3)
        removed: set[int] = set()
        for cand in out.clusters:
            snapshot = np.array(sorted(set(range(ds.row_count)) - removed))
            rule = linearize_rule(out.trees[cand.tree_index], cand.node_id, log, 1)
            got = apply_rule(rule, ds, rows=snapshot)
            assert sorted(got.tolist()) == sorted(cand.row_ids.tolist())
            removed |= set(cand.row_ids.tolist())


def assert_extraction_round_trips(ds, plan, target_class, beta, depth):
    """Every node of every tree decodes to a rule that survives a JSON round trip
    and reselects exactly its rows among the rows left at that iteration; the
    clusters are pairwise disjoint. Every logged column's code map sends to each
    final code the original codes that the set-based reference inversion finds."""
    config = PipelineConfig(target_class=target_class, beta=beta, n_clusters=3,
                            params=TrainParams(max_depth=depth), plan=plan)
    result = run_extraction(ds, config)
    for name, entry in result.log.entries.items():
        final = entry.code_map()
        for code in range(result.prepared.column(name).n_values + 1):
            expected = reference_original_codes({code}, entry)
            assert set(np.flatnonzero(final == code).tolist()) == expected, (name, code)
    for tree in result.trees:
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, result.log)
            parsed = rule_from_dict(json.loads(json.dumps(rule_to_dict(rule))))
            assert parsed == rule, rule.text()
            got = apply_rule(parsed, result.source, rows=tree.root.rows)
            assert np.array_equal(got, node.rows), (tree.root.rows.size, node.id, rule.text())
    claimed = np.concatenate([c.row_ids for c in result.clusters] + [np.array([], dtype=int)])
    assert np.unique(claimed).size == claimed.size


class TestRoundTripProperty:
    """linearize -> apply_rule through real transform logs: binning and reordering."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        numeric=st.sampled_from([None, "percentile", "equal-width"]),
        symbolic=st.sampled_from([None, "frequency", "equal-width", "similarity"]),
        k=st.integers(2, 6),
        reorder=st.booleans(),
        beta=st.sampled_from([0.33, 1.0, 3.0]),
        depth=st.integers(1, 4),
        fraction=st.sampled_from([1.0, 0.1]),
        wide=st.booleans(),
    )
    def test_every_node_reselects_its_rows(self, seed, numeric, symbolic, k, reorder, beta, depth,
                                           fraction, wide):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, max_rows=150, max_cols=5, wide_column=wide)
        if fraction < 1.0:
            # a bagged sample keeps the full dictionaries, so some codes are
            # absent; equal-width binning drops a bin that would hold only
            # absent codes, and the code map sends those codes to -1
            ds, _ = draw_sample(ds, fraction, seed, 0)
        datetime_method = {"percentile": "frequency"}.get(numeric, numeric)
        per_column = {}
        for col in ds.columns:
            if col.kind is ColumnKind.NUMERIC and numeric:
                per_column[col.name] = BinDirective(numeric, k)
            elif col.kind is ColumnKind.DATETIME and numeric:
                per_column[col.name] = BinDirective(datetime_method, k)
            elif col.kind in (ColumnKind.SYMBOLIC_NOMINAL, ColumnKind.SYMBOLIC_ORDINAL) and symbolic:
                per_column[col.name] = BinDirective(symbolic, k)
        plan = PreprocessPlan(per_column=per_column, reorder_symbolic=reorder)
        target = int(rng.integers(0, ds.n_classes))
        assert_extraction_round_trips(ds, plan, target, beta, depth)
