"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from dtclust import cli  # noqa: E402
from dtclust.synth import titanic_like, write_csv  # noqa: E402


@pytest.fixture(scope="module")
def tiny_argv(tmp_path_factory):
    csv = tmp_path_factory.mktemp("input") / "data.csv"
    write_csv(titanic_like(120, 5), str(csv), label_column="survived")
    return ["stability", "--input", str(csv), "--label", "survived", "--class", "survived",
            "--samples", "3", "--fraction", "0.8", "--seed", "3"]


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_record_parents_and_self_time():
    tracer = tracing.Tracer()

    def inner():
        return 1

    wrapped_inner = tracer.wrap("inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert tracer.wrap("outer", outer)() == 2
    names = [s[tracing.NAME] for s in tracer.spans]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    own = tracing.self_times(tracer.spans)
    outer_span = tracer.spans[0]
    children = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans[1:])
    assert own[0] == pytest.approx(outer_span[tracing.END] - outer_span[tracing.START] - children)


def test_wrong_reference_digest_counts_as_failed_job(tiny_argv, tmp_path):
    job = worker.run_job(cli.main, tiny_argv, tmp_path / "job")
    assert job["rc"] == 0 and job["error"] is None
    job["digest"] = wl.report_digest(job.pop("report"))
    assert run.failed_jobs([job], job["digest"]) == []
    failures = run.failed_jobs([job], "0" * 64)
    assert len(failures) == 1 and "digest" in failures[0]


def test_nonzero_exit_counts_as_failed_job(tiny_argv, tmp_path):
    argv = [a if a != "survived" else "no-such-column" for a in tiny_argv]
    job = worker.run_job(cli.main, argv, tmp_path / "job")
    job["digest"] = None
    assert job["rc"] != 0
    assert len(run.failed_jobs([job], "0" * 64)) == 1


def test_digest_ignores_schema_version_and_config_echo():
    doc = {"schema_version": 1, "config": {"input": "a.csv"}, "clusters": [1]}
    bumped = dict(doc, schema_version=2, config={"input": "b.csv"})
    assert wl.report_digest(json.dumps(doc)) == wl.report_digest(json.dumps(bumped))
    changed = dict(doc, clusters=[2])
    assert wl.report_digest(json.dumps(doc)) != wl.report_digest(json.dumps(changed))


def _targets():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.TARGETS}


def test_traced_job_restores_module_attributes(tiny_argv, tmp_path):
    before = _targets()
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert all(getattr(importlib.import_module(m), a) is not before[(m, a)] for m, a in before)
        job = worker.run_job(tracer.wrap(tracing.ROOT, cli.main), tiny_argv, tmp_path / "job")
    assert _targets() == before
    assert job["rc"] == 0
    metrics = tracing.job_metrics(tracer.spans, 0, tracer.kept, json.loads(job["report"]),
                                  job["artifact_bytes"])
    assert metrics["stability.samples"] == 3
    assert metrics["pipeline.run_extraction_calls"] == 4
    assert metrics["tree.best_split_calls"] > 0 and metrics["tree.pivots_evaluated"] > 0


def test_patched_restores_attributes_when_the_job_raises():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            raise RuntimeError("job crashed")
    assert _targets() == before


def test_benchmark_json_matches_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in wl.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in wl.PER_LAYER]
