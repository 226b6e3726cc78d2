"""Bagged sampling and cluster stability scoring."""

import json
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust import cli, pipeline, stability
from dtclust.errors import ConfigError, DataError
from dtclust.pipeline import PipelineConfig, run_extraction
from dtclust.preprocess import BinningSpec, OrdinalEncoding, PreprocessPlan, apply_plan
from dtclust.stability import StabilityParams, draw_sample, pairwise_score, stability_report
from dtclust.synth import titanic_like, write_csv
from dtclust.tree import TrainParams, train

from helpers import random_dataset, random_plan


@pytest.fixture(scope="module")
def liner():
    return titanic_like(n_rows=300, seed=5)


class TestDrawSample:
    def test_full_fraction_is_every_row(self, liner):
        ids = draw_sample(liner, 1.0, seed=0, k=0)
        assert list(ids) == list(range(liner.row_count))

    def test_half_fraction_cardinality(self, liner):
        ids = draw_sample(liner, 0.5, seed=0, k=0)
        assert len(set(ids.tolist())) == 150

    def test_ids_ascend_within_the_table(self, liner):
        ids = draw_sample(liner, 0.4, seed=9, k=1)
        assert np.all(np.diff(ids) > 0)
        assert 0 <= ids[0] and ids[-1] < liner.row_count

    def test_deterministic_per_seed_and_index(self, liner):
        a = draw_sample(liner, 0.6, seed=4, k=2)
        b = draw_sample(liner, 0.6, seed=4, k=2)
        c = draw_sample(liner, 0.6, seed=4, k=3)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_fraction_bounds(self, liner):
        with pytest.raises(ConfigError):
            draw_sample(liner, 0.0, 0, 0)
        with pytest.raises(ConfigError):
            draw_sample(liner, 1.5, 0, 0)

    def test_labels_follow_rows(self, liner):
        ids = draw_sample(liner, 0.4, seed=9, k=1)
        prepared, _ = apply_plan(liner, PreprocessPlan(), liner.class_code("survived"), rows=ids)
        assert prepared.row_count == ids.size
        assert list(prepared.labels) == list(liner.labels[ids])


def set_pairwise_score(c_rows, c_prime_rows, sample_rows):
    """Reference formula: the same score from sorted-set operations."""
    if np.setdiff1d(c_prime_rows, sample_rows).size:
        raise DataError("sample cluster contains rows outside the sample")
    restricted = np.intersect1d(c_rows, sample_rows)
    union = np.union1d(restricted, c_prime_rows)
    if union.size == 0:
        return 1.0
    return np.intersect1d(restricted, c_prime_rows).size / union.size


class TestPairwiseScore:
    def test_identical_restricted_sets(self):
        sample = np.arange(10)
        assert pairwise_score(np.array([1, 2, 3]), np.array([1, 2, 3]), sample) == 1.0

    def test_disjoint_sets(self):
        sample = np.arange(10)
        assert pairwise_score(np.array([1, 2]), np.array([3, 4]), sample) == 0.0

    def test_direct_set_arithmetic(self):
        sample = np.arange(10)
        score = pairwise_score(np.array([1, 2, 3]), np.array([2, 3, 4]), sample)
        assert score == pytest.approx(0.5)

    def test_restriction_to_sample(self):
        # original cluster rows outside the sample do not count
        sample = np.array([0, 1, 2, 3])
        score = pairwise_score(np.array([1, 2, 50, 60]), np.array([1, 2]), sample)
        assert score == 1.0

    def test_both_empty_is_one(self):
        sample = np.array([0, 1])
        assert pairwise_score(np.array([5, 6]), np.array([], dtype=int), sample) == 1.0

    def test_sample_cluster_must_be_inside(self):
        with pytest.raises(DataError):
            pairwise_score(np.array([0]), np.array([99]), np.arange(10))

    def test_symmetric_after_restriction(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sample = np.sort(rng.choice(100, size=60, replace=False))
            a = np.intersect1d(rng.choice(100, size=30), sample)
            b = np.intersect1d(rng.choice(100, size=30), sample)
            assert pairwise_score(a, b, sample) == pytest.approx(
                pairwise_score(b, a, sample), abs=1e-12)

    def test_equals_set_formula_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            sample = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            # original clusters may reach past the sample and the largest sample id
            c = rng.choice(n + 50, size=int(rng.integers(0, n + 1)))
            c_prime = rng.choice(sample, size=int(rng.integers(0, len(sample) + 1)))
            assert pairwise_score(c, c_prime, sample) == set_pairwise_score(c, c_prime, sample)


def step_counts(log):
    """Columns binned and columns reordered in a transform log."""
    entries = log.entries.values()
    return (sum(any(isinstance(s, BinningSpec) for s in e.steps) for e in entries),
            sum(any(isinstance(s, OrdinalEncoding) for s in e.steps) for e in entries))


class TestStabilityReport:
    def make_config(self):
        return PipelineConfig(target_class="survived", beta=0.5, n_clusters=2,
                              params=TrainParams(max_depth=3))

    def test_full_fraction_scores_one(self, liner):
        config = self.make_config()
        result = run_extraction(liner, config)
        report = stability_report(liner, result.clusters, config,
                                  StabilityParams(n_samples=3, fraction=1.0, seed=0))
        for cluster in report.clusters:
            assert cluster.per_sample == (1.0,) * 3
            assert cluster.mean == 1.0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_full_fraction_scores_one_property(self, seed):
        # a sample of every row refits the same plan on the same table, so it
        # finds the same clusters, whatever the plan, class and depth
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, max_rows=120, max_cols=5)
        config = PipelineConfig(target_class=int(rng.integers(0, ds.n_classes)),
                                beta=float(rng.choice([0.33, 1.0, 3.0])), n_clusters=3,
                                params=TrainParams(max_depth=int(rng.integers(1, 4))),
                                plan=random_plan(rng, ds))
        result = run_extraction(ds, config)
        if not result.clusters:
            return
        params = StabilityParams(n_samples=2, fraction=1.0, seed=int(rng.integers(0, 100)))
        report = stability_report(ds, result.clusters, config, params)
        for cluster in report.clusters:
            assert cluster.per_sample == (1.0, 1.0)

    def test_samples_fit_through_pipeline_module(self, liner, monkeypatch, tmp_path):
        # draw_sample, run_extraction and apply_plan are each looked up on the
        # module that calls them, at call time, once per sample: a wrapper
        # installed there (as a traced benchmark run installs one) sees every
        # sample, and the log apply_plan returns records every sample's steps.
        # A sample reads only its clusters, so it grows partial trees
        # (clusters_only); the main fit's trees in report.json stay whole
        config = replace(self.make_config(), plan=PreprocessPlan(numeric_bins=4))
        result = run_extraction(liner, config)
        calls = {"draw_sample": [], "run_extraction": [], "apply_plan": []}

        def spy(module, name, record):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                record.append((args, kwargs, out))
                return out

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((stability, "draw_sample"), (pipeline, "run_extraction"),
                             (pipeline, "apply_plan")):
            spy(module, name, calls[name])
        stability_report(liner, result.clusters, config,
                         StabilityParams(n_samples=3, fraction=0.8, seed=0))
        assert [len(c) for c in calls.values()] == [3, 3, 3]
        steps = step_counts(result.log)
        assert all(steps)
        for (_, _, ids), (fit_args, fit_kwargs, _), (plan_args, plan_kwargs, (prepared, log)) in zip(
                *calls.values()):
            assert fit_args[0] is liner and fit_kwargs["rows"] is ids
            assert fit_kwargs["clusters_only"] is True
            assert plan_args[0] is liner and plan_kwargs["rows"] is ids
            assert prepared.row_count == ids.size
            assert step_counts(log) == steps

        # the same through the stability command: the main fit (cli's own
        # run_extraction) grows whole trees, which report.json holds
        csv = tmp_path / "liner.csv"
        write_csv(liner, str(csv), label_column="survived")
        main_fits = []
        spy(cli, "run_extraction", main_fits)
        for record in calls.values():
            record.clear()
        out = tmp_path / "out"
        assert cli.main(["stability", "--input", str(csv), "--label", "survived",
                         "--class", "survived", "--beta", "0.5", "--clusters", "2",
                         "--depth", "3", "--bins", "4", "--samples", "3", "--out", str(out)]) == 0
        # apply_plan prepares the main fit too
        assert [len(c) for c in calls.values()] == [3, 3, 4]
        assert all(kwargs["clusters_only"] is True for _, kwargs, _ in calls["run_extraction"])
        (_, kwargs, fit), = main_fits
        assert not kwargs.get("clusters_only", False)
        trees = json.loads((out / "report.json").read_text())["trees"]
        assert len(trees) == len(fit.trees) >= 2
        remaining = np.arange(fit.prepared.row_count)
        for k, tree_dict in enumerate(trees):
            whole = train(fit.prepared, fit.trees[k].params, rows=remaining)
            assert json.loads(json.dumps(whole.to_dict())) == tree_dict, f"tree {k}"
            if k < len(fit.clusters):
                remaining = np.setdiff1d(remaining, whole.node(fit.clusters[k].node_id).rows)

    def test_reproducible(self, liner):
        config = self.make_config()
        result = run_extraction(liner, config)
        params = StabilityParams(n_samples=5, fraction=0.8, seed=7)
        a = stability_report(liner, result.clusters, config, params)
        b = stability_report(liner, result.clusters, config, params)
        assert a.to_dict() == b.to_dict()

    def test_scores_in_range_and_max_property(self, liner):
        config = self.make_config()
        result = run_extraction(liner, config)
        report = stability_report(liner, result.clusters, config,
                                  StabilityParams(n_samples=6, fraction=0.7, seed=1))
        for cluster in report.clusters:
            assert all(0.0 <= s <= 1.0 for s in cluster.per_sample)
            assert cluster.min <= cluster.mean <= cluster.max
        # max property: recompute one sample by hand and compare
        ids = draw_sample(liner, 0.7, seed=1, k=0)
        sample_result = run_extraction(liner, replace(config, n_clusters=len(result.clusters)),
                                       rows=ids)
        sample_clusters = [ids[c.row_ids] for c in sample_result.clusters]
        for i, original in enumerate(result.clusters):
            scores = [pairwise_score(original.row_ids, rows, ids) for rows in sample_clusters]
            assert report.clusters[i].per_sample[0] == pytest.approx(max(scores), abs=1e-12)

    def test_needs_clusters(self, liner):
        with pytest.raises(ConfigError):
            stability_report(liner, [], self.make_config(), StabilityParams(n_samples=2))

    def test_needs_positive_samples(self):
        with pytest.raises(ConfigError, match="--samples must be >= 1, got 0"):
            StabilityParams(n_samples=0)
