"""Standalone invariant suites; each check function is reused by the acceptance tests.

Run alone with: pytest tests/test_invariants.py
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust.extract import extract_iterative, fbeta_score
from dtclust.preprocess import PreprocessPlan, apply_plan, bin_column, build_contingency
from dtclust.tree import TrainParams, train

from helpers import random_dataset, random_plan


def check_purity_monotonicity(n_datasets=20, seed=101):
    """Accepted splits never increase weighted child impurity; positive gain is strict."""
    rng = np.random.default_rng(seed)
    for _ in range(n_datasets):
        ds = random_dataset(rng)
        for metric in ("gini", "entropy"):
            tree = train(ds, TrainParams(impurity_metric=metric, max_depth=3))
            for node in tree.nodes:
                if node.children is None:
                    continue
                kids = [tree.node(c) for c in node.children]
                weighted = sum(k.samples * k.impurity for k in kids) / node.samples
                assert weighted <= node.impurity + 1e-12
                assert node.split.gain > 0.0
                assert abs((node.impurity - weighted) - node.split.gain) < 1e-9


def check_binning_partition(n_cases=30, seed=102):
    """Bins are disjoint, cover all observed codes, and never increase unique counts."""
    from dtclust.dataset import ColumnKind, encode_column

    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        k = int(rng.integers(2, 9))
        numeric = encode_column(
            "n", [repr(float(v)) for v in rng.uniform(-10, 10, size=rng.integers(3, 60))],
            ColumnKind.NUMERIC)
        symbolic = encode_column(
            "s", [f"t{i}" for i in rng.integers(0, 12, size=60)], ColumnKind.SYMBOLIC_NOMINAL)
        for col, method in (
            (numeric, ("equal-width", "percentile")[int(rng.integers(2))]),
            (symbolic, ("equal-width", "frequency", "similarity")[int(rng.integers(3))]),
        ):
            spec, out = bin_column(col, method, k)
            covered = [c for b in spec.bins for c in b.members]
            assert len(covered) == len(set(covered)), "bins overlap"
            present = set(int(c) for c in col.codes if c != 0)
            assert present <= set(covered), "observed codes not covered"
            assert 1 <= len(spec.bins) <= max(k, col.n_values)
            uniques_before = len(set(col.codes.tolist()))
            uniques_after = len(set(out.codes.tolist()))
            assert uniques_after <= uniques_before


def check_frequency_order(n_cases=25, seed=103):
    """After class-frequency encoding, per-value target rates are non-increasing."""
    from dtclust.dataset import ColumnKind, encode_column
    from dtclust.preprocess import encode_by_class_frequency

    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        u = int(rng.integers(2, 15))
        col = encode_column("c", [f"v{i}" for i in rng.integers(0, u, size=120)],
                            ColumnKind.SYMBOLIC_NOMINAL)
        labels = rng.integers(0, 2, size=120).astype(np.int32)
        _, out = encode_by_class_frequency(col, labels, target_class=1)
        freqs = [e.frequency for e in build_contingency(out, labels, 1).entries]
        assert all(a >= b - 1e-12 for a, b in zip(freqs, freqs[1:]))


def check_fbeta_range(n_cases=2000, seed=104):
    """F-beta stays inside [0, 1] across the whole argument space."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        f = fbeta_score(rng.random(), rng.random(), rng.uniform(0.01, 8))
        assert 0.0 <= f <= 1.0


def check_iterative_disjoint(n_datasets=10, seed=105):
    """Node removal guarantees pairwise-disjoint cluster row sets."""
    rng = np.random.default_rng(seed)
    for _ in range(n_datasets):
        ds = random_dataset(rng)
        out = extract_iterative(ds, TrainParams(max_depth=3), 1, beta=0.33, n_clusters=4)
        seen: set[int] = set()
        for cand in out.clusters:
            rows = set(cand.row_ids.tolist())
            assert not (rows & seen)
            seen |= rows


def _report_bytes(config, path):
    """The report.json bytes one run of config writes, through the CLI's own writer."""
    from dtclust.cli import _write_json, run

    _write_json(path, run(config).to_dict())
    return path.read_bytes()


def check_report_reproducibility(tmp_dir):
    """Identical config and seeds produce byte-identical machine-readable reports."""
    from dtclust.cli import RunConfig, StabilityParams
    from dtclust.pipeline import PipelineConfig
    from dtclust.synth import titanic_like, write_csv

    csv_path = tmp_dir / "liner.csv"
    write_csv(titanic_like(n_rows=250, seed=8), str(csv_path), label_column="survived")
    config = RunConfig(
        input=str(csv_path),
        label="survived",
        pipeline=PipelineConfig(target_class="survived", beta=0.5, n_clusters=2,
                                params=TrainParams(max_depth=3)),
        stability=StabilityParams(n_samples=3, fraction=0.8, seed=4),
    )
    first = _report_bytes(config, tmp_dir / "first.json")
    second = _report_bytes(config, tmp_dir / "second.json")
    assert first == second
    json.loads(first)  # well-formed
    return first


def test_purity_monotonicity():
    check_purity_monotonicity()


def test_binning_partition():
    check_binning_partition()


def test_frequency_order():
    check_frequency_order()


def test_fbeta_range():
    check_fbeta_range()


def test_iterative_disjoint():
    check_iterative_disjoint()


def test_report_reproducibility(tmp_path):
    check_report_reproducibility(tmp_path)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_report_reproducibility_property(tmp_path_factory, seed):
    # any table, plan, class and stability seed: two runs write the same
    # bytes, and the report is strict JSON (no NaN or Infinity)
    from dtclust.cli import RunConfig, StabilityParams
    from dtclust.dataset import load_csv
    from dtclust.pipeline import PipelineConfig
    from dtclust.synth import write_csv

    rng = np.random.default_rng(seed)
    tmp_dir = tmp_path_factory.mktemp("table")
    csv_path = tmp_dir / "data.csv"
    write_csv(random_dataset(rng, max_rows=120, max_cols=5), str(csv_path))
    ds = load_csv(str(csv_path), label="label")
    config = RunConfig(
        input=str(csv_path),
        label="label",
        pipeline=PipelineConfig(target_class=str(rng.choice(ds.class_names)),
                                beta=float(rng.choice([0.33, 1.0, 3.0])), n_clusters=3,
                                params=TrainParams(max_depth=int(rng.integers(1, 4))),
                                plan=random_plan(rng, ds)),
        stability=StabilityParams(n_samples=2, fraction=0.7, seed=int(rng.integers(0, 100))),
    )
    first = _report_bytes(config, tmp_dir / "first.json")
    assert _report_bytes(config, tmp_dir / "second.json") == first
    json.loads(first, parse_constant=_reject_constant)


def test_pipeline_determinism():
    # same dataset and plan, twice, node-for-node
    rng = np.random.default_rng(9)
    ds = random_dataset(rng)
    plan = PreprocessPlan(numeric_bins=4)
    a, _ = apply_plan(ds, plan, target_class=1)
    b, _ = apply_plan(ds, plan, target_class=1)
    for ca, cb in zip(a.columns, b.columns):
        assert list(ca.codes) == list(cb.codes)
        assert ca.dictionary == cb.dictionary
