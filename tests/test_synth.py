"""Hidden-group planting, recovery scoring, and the feature generators."""

import logging

import numpy as np
import pytest

from dtclust.dataset import ColumnKind, Dataset, encode_column
from dtclust.errors import ConfigError
from dtclust.rules import Rule, SetTest, rule_from_dict
from dtclust.synth import (
    CENSUS_COLUMNS,
    GROUP1_COUNTRIES,
    HiddenGroupSpec,
    census_group_specs,
    census_like_features,
    evaluate_recovery,
    plant_groups,
    titanic_like,
)


def simple_features(n=400, seed=0):
    rng = np.random.default_rng(seed)
    color = encode_column("color", [("red" if v < 0.3 else "blue") for v in rng.random(n)],
                          ColumnKind.SYMBOLIC_NOMINAL)
    size = encode_column("size", [repr(float(v)) for v in rng.uniform(0, 10, n)],
                         ColumnKind.NUMERIC)
    return Dataset((color, size), None, ())


def red_rule():
    return Rule((SetTest("color", ("red",)),), 1)


class TestHiddenGroupSpec:
    def test_noise_bounds_validated(self):
        with pytest.raises(ConfigError):
            HiddenGroupSpec(red_rule(), p_in=0.4, p_out=0.5)
        with pytest.raises(ConfigError):
            HiddenGroupSpec(red_rule(), p_in=1.2, p_out=0.0)

    def test_dict_roundtrip(self):
        spec = HiddenGroupSpec(red_rule(), share=0.3, p_in=0.9, p_out=0.1)
        again = HiddenGroupSpec.from_dict(spec.to_dict())
        assert again.rule == spec.rule
        assert (again.share, again.p_in, again.p_out) == (0.3, 0.9, 0.1)


class TestPlantGroups:
    def test_noiseless_planting(self):
        features = simple_features()
        spec = HiddenGroupSpec(red_rule(), p_in=1.0, p_out=0.0)
        labelled, truth = plant_groups(features, [spec], seed=1)
        positive = np.where(labelled.labels == 1)[0]
        assert sorted(positive.tolist()) == sorted(truth[0].tolist())

    def test_match_all_rule(self):
        features = simple_features()
        spec = HiddenGroupSpec(Rule((), 1), p_in=1.0, p_out=0.0)
        labelled, truth = plant_groups(features, [spec], seed=1)
        assert labelled.labels.sum() == features.row_count
        assert len(truth[0]) == features.row_count

    def test_expected_positive_rate(self):
        features = simple_features(n=5000, seed=3)
        spec = HiddenGroupSpec(red_rule(), p_in=0.9, p_out=0.1)
        labelled, truth = plant_groups(features, [spec], seed=2)
        share = len(truth[0]) / features.row_count
        expected = share * 0.9 + (1 - share) * 0.1
        rate = labelled.labels.mean()
        sigma = np.sqrt(expected * (1 - expected) / features.row_count)
        assert abs(rate - expected) < 3 * sigma

    def test_first_match_wins(self):
        features = simple_features(n=2000, seed=4)
        big = HiddenGroupSpec(Rule((), 1), p_in=1.0, p_out=0.0)          # matches everything
        red = HiddenGroupSpec(red_rule(), p_in=1.0, p_out=0.0)
        labelled, truth = plant_groups(features, [red, big], seed=0)
        assert labelled.labels.sum() == features.row_count
        assert len(truth[0]) < len(truth[1]) == features.row_count

    def test_mismatched_background_rate(self):
        features = simple_features()
        a = HiddenGroupSpec(red_rule(), p_out=0.05)
        b = HiddenGroupSpec(Rule((), 1), p_out=0.10)
        with pytest.raises(ConfigError):
            plant_groups(features, [a, b], seed=0)

    def test_unknown_column_in_rule(self):
        features = simple_features()
        bad = HiddenGroupSpec(Rule((SetTest("nope", ("x",)),), 1))
        with pytest.raises(ConfigError):
            plant_groups(features, [bad], seed=0)

    def test_deterministic(self):
        features = simple_features()
        spec = HiddenGroupSpec(red_rule())
        a, _ = plant_groups(features, [spec], seed=5)
        b, _ = plant_groups(features, [spec], seed=5)
        assert list(a.labels) == list(b.labels)

    def test_needs_specs(self):
        with pytest.raises(ConfigError):
            plant_groups(simple_features(), [], seed=0)

    def test_group_matching_no_row_is_logged(self, caplog):
        # many rows hold 0 siblings and none holds 0.5: that group plants
        # nothing and says so
        features = titanic_like(n_rows=300, seed=1)
        specs = [
            HiddenGroupSpec(rule_from_dict({"target_class": 1, "predicates": [
                {"attribute": "siblings-aboard", "op": "==", "value": value}]}))
            for value in (0.0, 0.5)
        ]
        with caplog.at_level(logging.WARNING, logger="dtclust.synth"):
            _, truth = plant_groups(features, specs, seed=0)
        assert len(truth[0]) > 0 and len(truth[1]) == 0
        empty = [r.getMessage() for r in caplog.records if "matches no row" in r.getMessage()]
        assert empty == ["group 1 matches no row: siblings-aboard = 0.5"]


class TestEvaluateRecovery:
    def test_exact_match(self):
        truth = [np.arange(50)]
        report = evaluate_recovery([np.arange(50)], truth)
        assert report.score(0, 0).jaccard == 1.0

    def test_disjoint(self):
        report = evaluate_recovery([np.arange(10)], [np.arange(10, 20)])
        assert report.score(0, 0).jaccard == 0.0

    def test_set_arithmetic(self):
        report = evaluate_recovery([np.arange(1, 91)], [np.arange(1, 101)])
        s = report.score(0, 0)
        assert s.jaccard == pytest.approx(0.9)
        assert s.precision == pytest.approx(1.0)
        assert s.recall == pytest.approx(0.9)

    def test_assignment_invariant_under_cluster_order(self):
        truth = [np.arange(0, 40), np.arange(50, 100)]
        clusters = [np.arange(0, 38), np.arange(50, 95)]
        fwd = evaluate_recovery(clusters, truth)
        rev = evaluate_recovery(clusters[::-1], truth)
        fwd_map = {g: c for c, g in fwd.assignment}
        rev_map = {g: len(clusters) - 1 - c for c, g in rev.assignment}
        assert fwd_map == rev_map


class TestGenerators:
    def test_census_shape(self):
        ds = census_like_features(n_rows=2000, seed=1)
        assert ds.row_count == 2000
        assert ds.column_names == CENSUS_COLUMNS
        assert len(ds.columns) == 15
        assert ds.labels is None
        kinds = {c.name: c.kind for c in ds.columns}
        assert kinds["fnlwgt"] is ColumnKind.NUMERIC
        assert kinds["native-country"] is ColumnKind.SYMBOLIC_NOMINAL
        assert ds.column("native-country").n_values == 42

    def test_census_group_shares(self):
        # the four planted rules should match their published population shares
        features = census_like_features(n_rows=32561, seed=7)
        specs = census_group_specs()
        _, truth = plant_groups(features, specs, seed=7)
        targets = [0.178, 0.05, 0.042, 0.016]
        for rows, target in zip(truth, targets):
            assert abs(len(rows) / features.row_count - target) < 0.02

    def test_census_negative_capital_gain(self):
        ds = census_like_features(n_rows=500, seed=2)
        assert ds.column("capital-gain").values.min() < -75.82

    def test_group1_countries_present(self):
        ds = census_like_features(n_rows=5000, seed=3)
        dictionary = set(ds.column("native-country").dictionary)
        assert set(GROUP1_COUNTRIES) <= dictionary

    def test_liner_shape(self):
        ds = titanic_like()
        assert ds.row_count == 887
        assert ds.class_names == ("died", "survived")
        assert ds.column("passenger-class").dictionary == ("1st", "2nd", "3rd")

    def test_generators_deterministic(self):
        a = census_like_features(n_rows=300, seed=9)
        b = census_like_features(n_rows=300, seed=9)
        for ca, cb in zip(a.columns, b.columns):
            assert list(ca.codes) == list(cb.codes)
            assert ca.dictionary == cb.dictionary
