"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from dtclust.dataset import Dataset
from dtclust.extract import (
    fbeta_score,
    linearize_rule,
    select_from_single_tree,
)
from dtclust.pipeline import PipelineConfig, run_extraction
from dtclust.preprocess import PreprocessPlan, build_contingency, encode_by_class_frequency
from dtclust.rules import apply_rule
from dtclust.stability import StabilityParams, stability_report
from dtclust.synth import census_group_specs, census_like_features, evaluate_recovery, plant_groups, titanic_like
from dtclust.tree import TrainParams, best_split, train

import test_invariants
from helpers import assert_tree_matches_oracle, city_dataset, identity_log

# precision, recall, F1, F-0.5 for the six reference clusters
REFERENCE_ROWS = {
    "c1": (0.7420, 0.68128, 0.71037, 0.7290),
    "c2": (0.9523, 0.46784, 0.62745, 0.7889),
    "c3": (0.94706, 0.47076, 0.62891, 0.7876),
    "c4": (0.95652, 0.06433, 0.12054, 0.2534),
    "c5": (0.5897, 0.20175, 0.30065, 0.4259),
    "c6": (0.5610, 0.06725, 0.12010, 0.2272),
}

CENSUS_SEED = 7
DEPTH3 = TrainParams(max_depth=3)


def report(line: str) -> None:
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# Shared heavy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_corpus():
    """100 random datasets with trained trees (criterion 3; reused by criterion 6)."""
    from helpers import random_dataset

    rng = np.random.default_rng(2024)
    corpus = []
    for i in range(100):
        ds = random_dataset(rng, max_rows=200, max_cols=6)
        params = TrainParams(impurity_metric="gini" if i % 2 == 0 else "entropy", max_depth=2)
        corpus.append((ds, params, train(ds, params)))
    return corpus


@pytest.fixture(scope="module")
def census():
    features = census_like_features(32561, seed=CENSUS_SEED)
    labelled, truth = plant_groups(features, census_group_specs(), seed=CENSUS_SEED)
    return labelled, truth


@pytest.fixture(scope="module")
def census_run(census):
    labelled, truth = census
    config = PipelineConfig(target_class="yes", beta=0.33, n_clusters=3, params=DEPTH3)
    start = time.perf_counter()
    result = run_extraction(labelled, config)
    elapsed = time.perf_counter() - start
    return labelled, truth, config, result, elapsed


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_c1_fmeasure_fidelity():
    for name, (p, r, f1, f05) in REFERENCE_ROWS.items():
        assert fbeta_score(p, r, 1.0) == pytest.approx(f1, abs=1e-3), name
        assert fbeta_score(p, r, 0.5) == pytest.approx(f05, abs=1e-3), name
    report("ACCEPTANCE 1 PASS: F-measure fidelity: all six reference rows "
           "reproduce F1 and F-0.5 within 1e-3")


def test_c2_additive_form_erratum():
    # the additive-numerator transcription of the F-measure disagrees with the
    # reference table by far more than the acceptance threshold; the harmonic
    # form is the one that matches
    p, r, _, f05 = REFERENCE_ROWS["c2"]
    beta = 0.5
    additive = (1 + beta**2) * (p + r) / (beta**2 * p + r)
    harmonic = fbeta_score(p, r, beta)
    assert abs(additive - f05) > 0.1
    assert abs(harmonic - f05) < 1e-3
    report(f"ACCEPTANCE 2 PASS: erratum check: additive form gives {additive:.4f} "
           f"vs reference {f05} (off by {abs(additive - f05):.2f}); harmonic form matches")


def test_c3_split_oracle_equivalence(oracle_corpus):
    start = time.perf_counter()
    nodes_checked = 0
    for ds, params, tree in oracle_corpus:
        assert_tree_matches_oracle(tree, ds, params, tol=1e-12)
        nodes_checked += len(tree.nodes)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"ACCEPTANCE 3 PASS: split-oracle equivalence on 100 datasets "
           f"({nodes_checked} nodes, gain tolerance 1e-12) in {elapsed:.1f}s")


def test_c4_city_worked_example():
    ds = city_dataset()
    table = build_contingency(ds.column("city"), ds.labels, target_class=0)
    counts = {e.value: (e.in_class, e.total) for e in table.entries}
    assert counts == {"Amsterdam": (0, 2), "London": (2, 2),
                      "New York": (0, 2), "Shanghai": (1, 2)}

    _, encoded = encode_by_class_frequency(ds.column("city"), ds.labels, target_class=0)
    assert encoded.dictionary == ("London", "Shanghai", "Amsterdam", "New York")

    encoded_ds = Dataset((encoded,), ds.labels, ds.class_names)
    split = best_split(np.arange(8), encoded_ds, TrainParams())
    assert encoded.dictionary[split.pivot - 1] == "Shanghai"
    left = split.goes_left(encoded.codes)
    assert sorted(ds.labels[left].tolist()) == [0, 0, 0, 1]
    assert sorted(ds.labels[~left].tolist()) == [1, 1, 1, 1]
    report("ACCEPTANCE 4 PASS: ordinal-encoding worked example: contingency, "
           "encoding order, and the pivot split all match exactly")


def test_c5_synthetic_recovery(census_run):
    labelled, truth, config, result, elapsed = census_run
    assert elapsed < 60.0
    assert len(result.clusters) == 3

    recovery = evaluate_recovery(result.clusters, truth)
    top_vs_group1 = recovery.score(0, 0).jaccard
    assert top_vs_group1 >= 0.9

    off_config = PipelineConfig(target_class="yes", beta=0.33, n_clusters=3, params=DEPTH3,
                                plan=PreprocessPlan(reorder_symbolic=False))
    off_result = run_extraction(labelled, off_config)
    off_recovery = evaluate_recovery(off_result.clusters, truth)
    recall_on = max(s.recall for s in recovery.scores if s.group_index == 0)
    recall_off = max(s.recall for s in off_recovery.scores if s.group_index == 0)
    assert recall_on > recall_off

    single = select_from_single_tree(result.trees[0], result.target_class, 0.33, k=2)
    assert len(single) == 2
    assert result.clusters[1].tp >= single[1].tp

    report(f"ACCEPTANCE 5 PASS: synthetic recovery: top cluster vs planted group 1 "
           f"Jaccard {top_vs_group1:.3f} (>= 0.9); 3 clusters in {elapsed:.1f}s (< 60s); "
           f"reordering lifts group-1 recall {recall_off:.3f} -> {recall_on:.3f}; "
           f"retrained 2nd cluster holds {result.clusters[1].tp} target rows vs "
           f"{single[1].tp} for the single-tree runner-up")


def test_c6_linearization_round_trip(oracle_corpus, census_run):
    checked = 0
    for ds, params, tree in oracle_corpus:
        log = identity_log(ds)
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, log)
            got = apply_rule(rule, ds)
            assert sorted(got.tolist()) == sorted(node.rows.tolist())
            checked += 1

    labelled, _, _, result, _ = census_run
    for tree in result.trees:
        universe = tree.root.rows
        for node in tree.nodes:
            rule = linearize_rule(tree, node.id, result.log)
            got = apply_rule(rule, labelled, rows=universe)
            assert sorted(got.tolist()) == sorted(node.rows.tolist())
            checked += 1
    report(f"ACCEPTANCE 6 PASS: linearization round-trip: {checked} nodes decode "
           f"to rules that reselect their training rows exactly")


def _income_task(labelled: Dataset) -> Dataset:
    """The natural prediction task of the census table: high income vs the rest."""
    income = labelled.column("income")
    positive_code = income.dictionary.index(">50K") + 1
    labels = (income.codes == positive_code).astype(np.int32)
    features = tuple(c for c in labelled.columns if c.name != "income")
    return Dataset(features, labels, ("<=50K", ">50K"))


def test_c7_stability(census):
    start = time.perf_counter()
    labelled, _ = census
    liner = titanic_like()

    liner_config = PipelineConfig(target_class="survived", beta=0.33, n_clusters=2, params=DEPTH3)
    liner_result = run_extraction(liner, liner_config)

    # exactness at f=1: the sample is the dataset, so every score is exactly 1
    exact = stability_report(liner, liner_result.clusters, liner_config,
                             StabilityParams(n_samples=3, fraction=1.0, seed=0))
    for cluster in exact.clusters:
        assert cluster.per_sample == (1.0,) * 3

    liner_stab = stability_report(liner, liner_result.clusters[:1], liner_config,
                                  StabilityParams(n_samples=20, fraction=0.8, seed=3))
    liner_score = liner_stab.score(0)
    assert 0.80 <= liner_score <= 1.0

    # the census table's own prediction task (high income), same pipeline
    # settings: its best cluster is noise-driven and genuinely unstable
    income = _income_task(labelled)
    income_config = PipelineConfig(target_class=">50K", beta=0.33, n_clusters=1, params=DEPTH3)
    income_result = run_extraction(income, income_config)
    income_stab = stability_report(income, income_result.clusters, income_config,
                                   StabilityParams(n_samples=20, fraction=0.8, seed=3))
    income_score = income_stab.score(0)
    assert liner_score > income_score

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(f"ACCEPTANCE 7 PASS: stability: f=1 scores exactly 1.0; passenger-table "
           f"top cluster {liner_score:.3f} in [0.80, 1.0] and above the census-table "
           f"income-task top cluster {income_score:.3f}; finished in {elapsed:.0f}s (< 120s)")


def test_c8_invariant_suites(tmp_path):
    test_invariants.check_purity_monotonicity()
    test_invariants.check_binning_partition()
    test_invariants.check_frequency_order()
    test_invariants.check_fbeta_range()
    test_invariants.check_iterative_disjoint()
    test_invariants.check_report_reproducibility(tmp_path)
    report("ACCEPTANCE 8 PASS: invariant suites: purity monotonicity, binning "
           "partition, frequency order, F-beta range, cluster disjointness, "
           "byte-identical reports (also runnable via tests/test_invariants.py)")
