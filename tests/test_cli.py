"""End-to-end command-line runs: subcommands, artifacts, exit codes."""

import json

import numpy as np
import pytest

from dtclust.cli import main
from dtclust.dataset import load_csv
from dtclust.rules import Bound, Interval, MISSING, Predicate, Rule, render_rule_text, rule_from_dict
from dtclust.synth import titanic_like, write_csv


@pytest.fixture(scope="module")
def liner_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "liner.csv"
    write_csv(titanic_like(n_rows=400, seed=2), str(path), label_column="survived")
    return str(path)


@pytest.fixture
def grades_csv(tmp_path):
    """A small table whose "NA" is data once the config overrides the missing tokens."""
    csv_path = tmp_path / "grades.csv"
    csv_path.write_text(
        "grade,score,y\nlow,1,0\nNA,2,0\nhigh,3,1\nmid,4,1\nlow,5,0\nhigh,6,1\n")
    cfg_path = tmp_path / "hints.json"
    cfg_path.write_text(json.dumps({"ordinal_hints": ["grade"], "missing_tokens": [""]}))
    return str(csv_path), str(cfg_path)


class TestRenderRuleText:
    def test_empty_rule(self):
        text = render_rule_text(Rule((), 1), ("died", "survived"))
        assert text == "IF (always) THEN survived"

    def test_not_in_phrasing(self):
        rule = Rule((Predicate("country", "not_in", ("United-States", "Canada")),), 0)
        text = render_rule_text(rule, ("no", "yes"))
        assert "country is not in {United-States, Canada}" in text

    def test_interval_clause(self):
        rule = Rule((Predicate("fare", "in", Interval(Bound(10.0, "10"), Bound(50.0, "50"))),), 1)
        text = render_rule_text(rule, ("no", "yes"))
        assert "10 < fare <= 50" in text

    def test_metrics_suffix(self):
        text = render_rule_text(Rule((), 1), ("no", "yes"),
                                precision=0.9512, size=120, share=0.25)
        assert "precision 0.951" in text
        assert "covers 120 rows" in text
        assert "25.0% of population" in text

    def test_missing_clause(self):
        rule = Rule((Predicate("age", "==", MISSING),), 1)
        assert "age is missing" in render_rule_text(rule, ("no", "yes"))


class TestProfileCommand:
    def test_stdout_and_json(self, liner_csv, tmp_path, capsys):
        out = tmp_path / "prof"
        code = main(["profile", "--input", liner_csv, "--label", "survived",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rows: 400" in printed
        doc = json.loads((out / "profile.json").read_text())
        assert doc["row_count"] == 400
        assert set(doc["columns"]) >= {"passenger-class", "sex"}

    def test_config_matches_extract_profile(self, grades_csv, tmp_path):
        csv_path, cfg_path = grades_csv
        flags = ["--input", csv_path, "--label", "y", "--config", cfg_path]
        assert main(["profile", *flags, "--out", str(tmp_path / "prof")]) == 0
        assert main(["extract", *flags, "--clusters", "1", "--out", str(tmp_path / "run")]) == 0
        profile_doc = json.loads((tmp_path / "prof" / "profile.json").read_text())
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert profile_doc == report["profile"]
        grade_values = {c["value"] for c in profile_doc["columns"]["grade"]["categories"]}
        assert "NA" in grade_values


class TestExtractCommand:
    def test_full_run_artifacts(self, liner_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "extract", "--input", liner_csv, "--label", "survived",
            "--class", "survived", "--beta", "0.5", "--depth", "3",
            "--clusters", "2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "report.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 2
        assert "seed" not in report["config"]
        assert 1 <= len(report["clusters"]) <= 2
        for i, cluster in enumerate(report["clusters"], start=1):
            assert (out / f"tree_{i:02d}.dot").exists()
            assert (out / f"cluster_{i:02d}.rule.txt").exists()
            assert (out / f"cluster_{i:02d}.rows.txt").exists()
            for key in ("gini_impurity", "size", "precision", "recall", "f1", "f05", "f_beta"):
                assert key in cluster

    def test_reports_byte_identical(self, liner_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["extract", "--input", liner_csv, "--label", "survived",
                "--clusters", "2", "--depth", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_row_lists_match_rules(self, liner_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["extract", "--input", liner_csv, "--label", "survived",
                     "--clusters", "1", "--depth", "3", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        rows = [int(r) for r in (out / "cluster_01.rows.txt").read_text().split()]
        ds = load_csv(liner_csv, label="survived")
        from dtclust.rules import apply_rule
        rule = rule_from_dict(report["clusters"][0]["rule"])
        assert sorted(apply_rule(rule, ds).tolist()) == sorted(rows)

    def test_trees_serialized_in_report(self, liner_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["extract", "--input", liner_csv, "--label", "survived",
                     "--clusters", "2", "--depth", "2", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["trees"]) == len(report["clusters"])
        for tree in report["trees"]:
            assert tree["nodes"][0]["id"] == 0
            assert "class_counts" in tree["nodes"][0]

    def test_config_file_hints_and_tokens(self, tmp_path):
        csv_path = tmp_path / "grades.csv"
        csv_path.write_text(
            "grade,score,y\nlow,1,0\nNA,2,0\nhigh,3,1\nmid,4,1\nlow,5,0\nhigh,6,1\n")
        cfg = {
            "ordinal_hints": ["grade"],
            "missing_tokens": [""],
            "numeric_bins": 3,
            "per_column": {"grade": {"method": "equal-width", "k": 2}},
        }
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["extract", "--input", str(csv_path), "--label", "y",
                     "--clusters", "1", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["kind_hints"] == {"grade": "symbolic-ordinal"}
        assert report["config"]["missing_tokens"] == [""]
        assert report["transform_log"]["columns"]["grade"]["kind"] == "symbolic-ordinal"
        # "NA" is data now, not a missing marker
        grade_values = {c["value"] for col, info in report["profile"]["columns"].items()
                        if col == "grade" for c in info["categories"]}
        assert "NA" in grade_values

    def test_config_extra_datetime_pattern(self, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("when,y\n01/05/2021,0\n20/06/2021,1\n03/07/2021,0\n15/08/2021,1\n")
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps({"datetime_patterns": ["%d/%m/%Y"]}))
        out = tmp_path / "run"
        assert main(["extract", "--input", str(csv_path), "--label", "y",
                     "--clusters", "1", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["transform_log"]["columns"]["when"]["kind"] == "datetime"

    def test_malformed_config_file(self, liner_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["extract", "--input", liner_csv, "--label", "survived",
                     "--config", str(bad)]) == 2

    def test_zero_clusters_profile_only(self, liner_csv, tmp_path):
        out = tmp_path / "p0"
        assert main(["extract", "--input", liner_csv, "--label", "survived",
                     "--clusters", "0", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["clusters"] == []

    def test_unknown_label_is_config_error(self, liner_csv):
        assert main(["extract", "--input", liner_csv, "--label", "nope"]) == 2

    def test_unknown_class_is_config_error(self, liner_csv):
        assert main(["extract", "--input", liner_csv, "--label", "survived",
                     "--class", "martian"]) == 2

    def test_header_only_is_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        assert main(["extract", "--input", str(path)]) == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["extract", "--input", str(tmp_path / "nope.csv")]) == 3


class TestStabilityCommand:
    def test_stability_section(self, liner_csv, tmp_path, capsys):
        out = tmp_path / "stab"
        code = main([
            "stability", "--input", liner_csv, "--label", "survived",
            "--clusters", "1", "--depth", "3", "--samples", "4",
            "--fraction", "0.8", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stability"]["n_samples"] == 4
        scores = report["stability"]["clusters"][0]["per_sample"]
        assert len(scores) == 4
        assert all(0.0 <= s <= 1.0 for s in scores)
        assert "stability over 4 samples" in capsys.readouterr().out


class TestSynthCommand:
    def test_generate_census_with_default_groups(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = main(["synth", "--generate", "census", "--rows", "800",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "data.csv").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["groups"]) == 4
        ds = load_csv(str(out / "data.csv"), label="label", missing_tokens=("",))
        assert ds.row_count == 800
        assert ds.class_names == ("no", "yes")

    def test_generate_liner(self, tmp_path):
        out = tmp_path / "liner"
        assert main(["synth", "--generate", "liner", "--rows", "100",
                     "--seed", "1", "--out", str(out)]) == 0
        ds = load_csv(str(out / "data.csv"), label="survived")
        assert ds.row_count == 100

    def test_features_with_spec_file(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("color,size\n" + "\n".join(
            f"{'red' if i % 3 == 0 else 'blue'},{i}" for i in range(60)) + "\n")
        spec = {
            "groups": [{
                "rule": {"target_class": 1, "predicates": [
                    {"attribute": "color", "op": "==", "value": "red"}]},
                "p_in": 1.0, "p_out": 0.0,
            }],
        }
        spec_path = tmp_path / "groups.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "planted"
        assert main(["synth", "--features", str(features), "--spec", str(spec_path),
                     "--seed", "0", "--out", str(out)]) == 0
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["groups"][0]["rows"]) == 20

    def test_synth_needs_source(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2


class TestExportDot:
    def test_writes_dot(self, liner_csv, tmp_path):
        out = tmp_path / "dot"
        assert main(["export-dot", "--input", liner_csv, "--label", "survived",
                     "--depth", "2", "--out", str(out)]) == 0
        dot = (out / "tree.dot").read_text()
        assert dot.startswith("digraph")
        assert "->" in dot

    def test_config_matches_extract_tree(self, grades_csv, tmp_path):
        csv_path, cfg_path = grades_csv
        flags = ["--input", csv_path, "--label", "y", "--config", cfg_path]
        assert main(["export-dot", *flags, "--out", str(tmp_path / "dot")]) == 0
        assert main(["extract", *flags, "--clusters", "1", "--out", str(tmp_path / "run")]) == 0
        dot = (tmp_path / "dot" / "tree.dot").read_bytes()
        assert dot == (tmp_path / "run" / "tree_01.dot").read_bytes()

    def test_stdout_when_no_out(self, liner_csv, capsys):
        assert main(["export-dot", "--input", liner_csv, "--label", "survived",
                     "--depth", "1"]) == 0
        assert capsys.readouterr().out.startswith("digraph")
