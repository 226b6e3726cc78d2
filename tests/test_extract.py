"""F-beta scoring, node ranking and selection, iterative extraction, rule decoding."""

import json
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust.dataset import ColumnKind, Dataset
from dtclust.errors import ConfigError, DataError, InternalError
from dtclust.extract import (
    _RoundBest,
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
from dtclust.tree import DecisionTree, TrainParams, train

from helpers import (
    city_dataset,
    exact_fbeta,
    exact_tie_tree,
    identity_log,
    ordinal_symbolic_dataset,
    random_dataset,
    random_plan,
    reference_extract,
    reference_metric_tree,
    reference_original_codes,
    reference_rule,
    selection_scenario_tree,
    single_split_tree,
    subset,
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

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf"), 1e155])
    def test_invalid_beta(self, beta):
        # beta 1e155 is finite, but beta * beta is not, and F-beta would be NaN
        with pytest.raises(ConfigError, match="beta must be finite"):
            fbeta_score(0.5, 0.5, beta)


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

    def test_exact_tie_goes_to_smaller_id(self):
        tree = exact_tie_tree()
        ranked = rank_nodes(tree, target_class=1, beta=1.0)
        assert [c.node_id for c in ranked[:2]] == [0, 4]
        assert ranked[1].f_beta > ranked[0].f_beta  # the floats alone would rank node 4 first

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([1e-200, 0.33, 1e150]))
    def test_order_is_exact(self, seed, beta):
        # the order of exact_fbeta's Fractions, ties to the smaller id; at
        # beta 1e-200 the float beta**2 is 0, so float F-beta is the precision
        # alone, and at 1e150 it is 1e300
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, max_rows=120, max_cols=4)
        tree = train(ds, TrainParams(max_depth=int(rng.integers(1, 5)),
                                     min_samples_leaf=int(rng.choice([1, 3]))))
        target = int(rng.choice(np.flatnonzero(tree.root.class_counts)))
        total = int(tree.root.class_counts[target])
        want = sorted(tree.nodes, key=lambda n: (
            -exact_fbeta(int(n.class_counts[target]), n.samples, total, beta), n.id))
        assert [c.node_id for c in rank_nodes(tree, target, beta)] == [n.id for n in want]

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
        allowed = np.array([False, True, False, True])
        reachable = np.array([False, True, True, True])
        with pytest.raises(InternalError, match=r"'grade'.*\[2\]"):
            _ordered_predicate("grade", allowed, reachable, entry)


def linearize_case(seed, wide):
    """A tree grown on a random plan's output for a bagged sample (most
    fractions leave codes absent, so equal-width binning drops empty bins),
    with the sample's log and a target class."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, max_rows=150, max_cols=5, wide_column=wide)
    plan = random_plan(rng, ds)
    target = int(rng.integers(0, ds.n_classes))
    rows = draw_sample(ds, float(rng.choice([1.0, 0.3, 0.1])), seed, 0)
    prepared, log = apply_plan(ds, plan, target, rows=rows)
    return train(prepared, TrainParams(max_depth=int(rng.integers(1, 5)))), log, target


class TestLinearizeOnArrays:
    """linearize_rule decodes on masks of original codes; reference_rule
    keeps the same logic on Python sets. Every node's rule is the same."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
    def test_equals_set_reference(self, seed, wide):
        tree, log, target = linearize_case(seed, wide)
        for node in tree.nodes:
            assert linearize_rule(tree, node.id, log, target) == reference_rule(
                tree, node.id, log, target), f"node {node.id}"

    def test_cases_reach_every_path(self):
        # the property's paths test columns with dropped empty bins and with
        # missing cells, and give every kind of test
        seen = set()
        for seed in range(60):
            for wide in (False, True):
                tree, log, target = linearize_case(seed, wide)
                for node in tree.nodes:
                    attrs = {split.attribute for split, _ in tree.path(node.id)}
                    for attr in attrs:
                        entry = log.for_column(attr)
                        if (entry.code_map() < 0).any():
                            seen.add("dropped empty bin")
                        if entry.source.has_missing:
                            seen.add("missing cells")
                    for pred in linearize_rule(tree, node.id, log, target).predicates:
                        if isinstance(pred, RangeTest):
                            seen.add("range with missing" if pred.include_missing else "range")
                        elif MISSING in pred.values:
                            seen.add("not missing" if pred.negated else "missing")
                        else:
                            seen.add("negated set" if pred.negated else "set")
        assert seen == {"dropped empty bin", "missing cells", "range", "range with missing",
                        "not missing", "missing", "negated set", "set"}


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

    def test_sample_roundtrip_with_equal_width_bins(self):
        # stability-style scenario: refit binning on a sample of the rows,
        # whose dictionary keeps values the sample never observes
        rng = np.random.default_rng(55)
        from dtclust.dataset import encode_column

        col = encode_column("v", [repr(float(v)) for v in rng.uniform(0, 100, 200)],
                            ColumnKind.NUMERIC)
        labels = (col.codes > 100).astype(np.int32)
        full = Dataset((col,), labels, ("0", "1"))
        for k in range(5):
            ids = np.sort(rng.choice(200, size=120, replace=False))
            plan = PreprocessPlan(per_column={"v": BinDirective("equal-width", 6)},
                                  reorder_symbolic=False)
            prepared, log = apply_plan(full, plan, target_class=1, rows=ids)
            tree = train(prepared, TrainParams(max_depth=3))
            for node in tree.nodes:
                rule = linearize_rule(tree, node.id, log)
                got = apply_rule(rule, full, rows=ids)
                assert sorted(got.tolist()) == sorted(ids[node.rows].tolist())

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


def assert_extraction_round_trips(ds, plan, target_class, beta, depth, rows=None):
    """Every node of every tree decodes to a rule that survives a JSON round trip
    and reselects exactly its rows among the rows left at that iteration; the
    clusters are pairwise disjoint. Every logged column's code map sends to each
    final code the original codes that the set-based reference inversion finds.
    With rows, the fit runs on those rows of ds, and the rules are applied to ds."""
    config = PipelineConfig(target_class=target_class, beta=beta, n_clusters=3,
                            params=TrainParams(max_depth=depth), plan=plan)
    result = run_extraction(ds, config, rows=rows)
    ids = np.arange(ds.row_count) if rows is None else rows
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
            got = apply_rule(parsed, result.source, rows=ids[tree.root.rows])
            assert np.array_equal(got, ids[node.rows]), (tree.root.rows.size, node.id, rule.text())
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
        # a bagged sample is fit on the full dictionaries, so some codes are
        # absent; equal-width binning drops a bin that would hold only absent
        # codes, and the code map sends those codes to -1
        rows = draw_sample(ds, fraction, seed, 0) if fraction < 1.0 else None
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
        assert_extraction_round_trips(ds, plan, target, beta, depth, rows)


def extraction_case(seed, wide):
    """A random table and pipeline config, and a bagged sample of its rows."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, max_rows=120, max_cols=5, wide_column=wide)
    params = TrainParams(str(rng.choice(["gini", "entropy"])), max_depth=int(rng.integers(1, 5)),
                         min_samples_leaf=int(rng.choice([1, 3])))
    config = PipelineConfig(target_class=int(rng.integers(0, ds.n_classes)),
                            beta=float(rng.choice([0.33, 1.0, 3.0])), n_clusters=3,
                            params=params, plan=random_plan(rng, ds))
    ids = draw_sample(ds, float(rng.choice([0.3, 0.6, 0.9])), seed, 0)
    return ds, config, ids


def assert_matches_reference(ds, config, rows):
    """run_extraction(ds, config, rows=rows) takes the rounds reference_extract
    takes on the plan's output for the same rows, cut from ds before the fit;
    each cluster's rule reselects its rows of ds among the rows left."""
    where = "full table" if rows is None else f"sample of {len(rows)} rows"
    ids = np.arange(ds.row_count) if rows is None else rows
    result = run_extraction(ds, config, rows=rows)
    prepared, _ = apply_plan(subset(ds, ids), config.plan, config.target_class)
    expected = reference_extract(prepared, config.params, config.target_class, config.beta,
                                 config.n_clusters)
    remaining = np.arange(len(ids))
    for got, want in zip_longest(result.clusters, expected):
        assert got is not None and want is not None, (
            f"{where}: {len(result.clusters)} clusters, the reference takes {len(expected)}")
        assert got.tree_index == want.tree_index, where
        tree = result.trees[got.tree_index]
        assert len(tree.nodes) == len(want.f_beta), f"{where}, round {want.tree_index}: tree size"
        if got.node_id != want.node_id:
            floats = {c.node_id: c.f_beta for c in rank_nodes(tree, config.target_class, config.beta)}
            pytest.fail(
                f"{where}, round {want.tree_index}: the float F-beta ranks node {got.node_id} "
                f"first and the exact one node {want.node_id}; floats "
                f"{floats[got.node_id]!r} vs {floats[want.node_id]!r}, exact "
                f"{want.f_beta[got.node_id]} vs {want.f_beta[want.node_id]}")
        assert set(got.row_ids.tolist()) == want.rows, f"{where}, round {want.tree_index}"
        assert (got.tp, got.fp, got.fn) == (want.tp, want.fp, want.fn), where
        rule = linearize_rule(tree, got.node_id, result.log, result.target_class)
        reselected = apply_rule(rule, ds, rows=ids[remaining])
        assert reselected.tolist() == sorted(ids[got.row_ids].tolist()), (where, rule.text())
        remaining = np.setdiff1d(remaining, got.row_ids, assume_unique=True)


class TestReferenceExtraction:
    """Iterative extraction end to end, on the whole table and on a bagged
    sample, against reference_extract: the same (tree, node) each round, the
    same rows and counts, and rules that reselect them. The winner is the
    first node in (F-beta descending, node id) order, and the property holds
    that order to exact F-beta: a float tie that exact arithmetic breaks the
    other way fails it and is named."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
    def test_equals_reference(self, seed, wide):
        ds, config, ids = extraction_case(seed, wide)
        assert_matches_reference(ds, config, None)
        assert_matches_reference(ds, config, ids)

    def test_cases_reach_every_path(self):
        # the property's cases take one, two and three rounds, stop early with
        # no node above 0, and rank nodes whose exact F-beta ties at the top
        seen = set()
        for seed in range(60):
            for wide in (False, True):
                ds, config, ids = extraction_case(seed, wide)
                for rows in (np.arange(ds.row_count), ids):
                    prepared, _ = apply_plan(subset(ds, rows), config.plan, config.target_class)
                    rounds = reference_extract(prepared, config.params, config.target_class,
                                               config.beta, config.n_clusters)
                    seen.add(f"{len(rounds)} rounds")
                    for r in rounds:
                        if r.f_beta.count(r.f_beta[r.node_id]) > 1:
                            seen.add("exact tie at the top")
        assert seen == {"0 rounds", "1 rounds", "2 rounds", "3 rounds", "exact tie at the top"}


def clusters_only_case(seed, wide):
    """A random table and pipeline config over the whole range of training
    settings, and a bagged sample of its rows."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, max_rows=120, max_cols=5, wide_column=wide)
    params = TrainParams(str(rng.choice(["gini", "entropy"])), max_depth=int(rng.integers(1, 7)),
                         min_gain=float(rng.choice([0.0, 0.01])),
                         min_samples_leaf=int(rng.integers(1, 4)))
    config = PipelineConfig(target_class=int(rng.integers(0, ds.n_classes)),
                            beta=float(rng.choice([0.1, 0.33, 1.0, 3.0, 10.0])), n_clusters=3,
                            params=params, plan=random_plan(rng, ds))
    ids = draw_sample(ds, float(rng.choice([0.3, 0.6, 0.9])), seed, 0)
    return ds, config, ids


def tree_map(part, whole):
    """The whole tree's id of each node of the partial tree, by partial id.

    The partial tree must be the whole tree cut below some nodes: the root
    and every child of a split node of it are nodes of the whole tree with the
    same rows and counts, a split node splits as in the whole tree, and the
    nodes keep their breadth-first order."""
    ids = [0]
    for node in part.nodes:
        assert node.id < len(ids), f"partial node {node.id} is no child of a kept split"
        twin = whole.node(ids[node.id])
        assert (node.depth, node.class_counts.tolist()) == (twin.depth, twin.class_counts.tolist())
        assert np.sort(node.rows).tolist() == np.sort(twin.rows).tolist(), f"node {node.id}"
        if node.split is not None:
            assert (node.split.gain.hex(), node.split.column_index, node.split.pivot) == (
                twin.split.gain.hex(), twin.split.column_index, twin.split.pivot), f"node {node.id}"
            assert node.children == (len(ids), len(ids) + 1)
            ids.extend(twin.children)
    assert len(ids) == len(part.nodes)
    assert ids == sorted(ids), "the partial tree's nodes are out of breadth-first order"
    return ids


def assert_clusters_only_exact(ds, config, rows):
    """clusters_only takes the clusters whole trees give, and each of its
    trees is a whole tree cut below some nodes; the clusters' rows are
    reference_extract's too."""
    where = "full table" if rows is None else f"sample of {len(rows)} rows"
    whole = run_extraction(ds, config, rows=rows)
    part = run_extraction(ds, config, rows=rows, clusters_only=True)
    ids = np.arange(ds.row_count) if rows is None else rows
    prepared, _ = apply_plan(subset(ds, ids), config.plan, config.target_class)
    expected = reference_extract(prepared, config.params, config.target_class, config.beta,
                                 config.n_clusters)
    assert len(part.clusters) == len(whole.clusters) == len(expected), where
    for got, want, ref in zip(part.clusters, whole.clusters, expected):
        assert (got.tree_index, got.tp, got.fp, got.fn, got.size, got.f_beta.hex()) == (
            want.tree_index, want.tp, want.fp, want.fn, want.size, want.f_beta.hex()), where
        assert np.sort(got.row_ids).tolist() == np.sort(want.row_ids).tolist(), where
        assert set(got.row_ids.tolist()) == ref.rows, where
    assert len(part.trees) == len(whole.trees), where
    for p, w in zip(part.trees, whole.trees):
        tree_map(p, w)


class TestClustersOnly:
    """Iterative extraction with clusters_only grows each tree only below the
    nodes that can still beat the best node made so far; its rounds must be
    those of whole trees, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
    def test_equals_whole_trees(self, seed, wide):
        ds, config, ids = clusters_only_case(seed, wide)
        assert_clusters_only_exact(ds, config, None)
        assert_clusters_only_exact(ds, config, ids)

    def test_cases_reach_every_path(self):
        # the property's cases include rounds where the bound cuts nodes and
        # where it cuts none, with beta above 1 among them, rounds whose top
        # ties exactly, extractions that end before n_clusters, and a node
        # refused because its bound only ties the best node made before it
        seen = set()
        for seed in range(40):
            for wide in (False, True):
                ds, config, ids = clusters_only_case(seed, wide)
                for rows in (None, ids):
                    whole = run_extraction(ds, config, rows=rows)
                    part = run_extraction(ds, config, rows=rows, clusters_only=True)
                    if len(part.clusters) < config.n_clusters:
                        seen.add("ends early")
                    for p, w, cluster in zip(part.trees, whole.trees, part.clusters):
                        cut = len(p.nodes) < len(w.nodes)
                        seen.add("cuts nodes" if cut else "cuts none")
                        if cut and config.beta > 1:
                            seen.add("cuts nodes, beta > 1")
                        total = int(p.root.class_counts[config.target_class])
                        scores = [exact_fbeta(int(n.class_counts[config.target_class]), n.samples,
                                              total, config.beta) for n in w.nodes]
                        if scores.count(max(scores)) > 1:
                            seen.add("exact tie at the top")
                        best, twins = 0, tree_map(p, w)
                        for n in p.nodes:
                            tp = int(n.class_counts[config.target_class])
                            best = max(best, exact_fbeta(tp, n.samples, total, config.beta))
                            if tp and exact_fbeta(tp, tp, total, config.beta) == best and n.is_leaf \
                                    and w.node(twins[n.id]).split is not None:
                                seen.add("bound ties the best")
        assert seen == {"cuts nodes", "cuts none", "cuts nodes, beta > 1", "exact tie at the top",
                        "ends early", "bound ties the best"}

    def test_exact_tie_keeps_the_smaller_id(self):
        # the root and node 4 both score F1 = 2/7; node 4 does not displace the
        # root as the best so far, and the nodes a partial tree would make
        # (those below opened nodes) rank the root first, as the whole tree does
        tree = exact_tie_tree()
        best = _RoundBest(1, 1.0, 2)
        made, opened = [], set()
        for node in tree.nodes:
            if node.parent is None or node.parent in opened:
                made.append(node)
                if best.offer(node):
                    opened.add(node.id)
        assert opened == {0, 1, 2, 4}
        assert best.node.id == 0
        assert rank_nodes(DecisionTree(made, tree.params), 1, 1.0)[0].node_id == 0
        # a whole tree, offered in id order after training, keeps the root too
        whole = _RoundBest(1, 1.0, 2)
        for node in tree.nodes:
            whole.offer(node)
        assert whole.node.id == 0
        assert rank_nodes(tree, 1, 1.0)[0].node_id == 0
