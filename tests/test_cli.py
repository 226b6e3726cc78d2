"""End-to-end command-line runs: subcommands, artifacts, exit codes."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust import cli
from dtclust.cli import (
    _load,
    _run_config_from_args,
    _write_json,
    build_parser,
    json_chunks,
    main,
)
from dtclust.dataset import LoadSettings, load_csv
from dtclust.errors import ConfigError, InternalError
from dtclust.pipeline import PipelineConfig, run_extraction
from dtclust.rules import (
    MISSING,
    Bound,
    RangeTest,
    Rule,
    SetTest,
    apply_rule,
    render_rule_text,
    rule_from_dict,
)
from dtclust.stability import StabilityParams
from dtclust.synth import HiddenGroupSpec, titanic_like, write_csv
from dtclust.tree import _METRICS, TrainParams

from helpers import assert_columns_equal

ROOT = Path(__file__).resolve().parent.parent


# a census table of 50 rows labelled by the spec file {tmp}/spec.json
SPEC_FLAGS = ["--generate", "census", "--rows", "50", "--spec", "{tmp}/spec.json"]


def one_group(predicate, **fields):
    """A spec planting one group defined by the given predicate record and group fields."""
    return {"groups": [{"rule": {"target_class": 1, "predicates": [predicate]}, **fields}]}


AGE_30 = {"attribute": "age", "op": "<=", "value": 30}

# settings-file contents that are not JSON the parser can read: a byte that is
# not UTF-8, nesting deeper than the parser recurses, an integer too long to convert
UNREADABLE_JSON = {
    "not-utf8": b'{"numeric_bins": 4}\xff',
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    "long-integer": b'{"numeric_bins": ' + b"9" * 5000 + b"}",
}


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


@pytest.fixture(scope="module")
def kinds_csv(tmp_path_factory):
    """One column of each kind a plan check tells apart, a constant symbolic one included."""
    path = tmp_path_factory.mktemp("data") / "kinds.csv"
    path.write_text("age,sex,const,flag,y\n" + "".join(
        f"{20 + i},{'fm'[i % 2]},x,{'true' if i % 3 else 'false'},{i % 2}\n" for i in range(12)))
    return str(path)


class TestRenderRuleText:
    def test_empty_rule(self):
        text = render_rule_text(Rule((), 1), ("died", "survived"))
        assert text == "IF (always) THEN survived"

    def test_not_in_phrasing(self):
        rule = Rule((SetTest("country", ("United-States", "Canada"), negated=True),), 0)
        text = render_rule_text(rule, ("no", "yes"))
        assert "country is not in {United-States, Canada}" in text

    def test_interval_clause(self):
        rule = Rule((RangeTest("fare", Bound(10.0, "10"), Bound(50.0, "50")),), 1)
        text = render_rule_text(rule, ("no", "yes"))
        assert "10 < fare <= 50" in text

    def test_metrics_suffix(self):
        text = render_rule_text(Rule((), 1), ("no", "yes"),
                                precision=0.9512, size=120, share=0.25)
        assert "precision 0.951" in text
        assert "covers 120 rows" in text
        assert "25.0% of population" in text

    def test_missing_clause(self):
        rule = Rule((SetTest("age", (MISSING,)),), 1)
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
                     "--clusters", "3", "--depth", "3", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        row_lists = [[int(r) for r in (out / f"cluster_{i:02d}.rows.txt").read_text().split()]
                     for i in range(1, len(report["clusters"]) + 1)]
        assert len(row_lists) == 3
        for rows in row_lists:
            assert all(a < b for a, b in zip(rows, rows[1:]))
        # the first tree trains on every row, so its cluster's rule selects exactly its rows
        ds = load_csv(liner_csv, label="survived")
        rule = rule_from_dict(report["clusters"][0]["rule"])
        assert apply_rule(rule, ds).tolist() == row_lists[0]

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

    @pytest.mark.parametrize("content", [b"{not json", *UNREADABLE_JSON.values()],
                             ids=["not-json", *UNREADABLE_JSON])
    def test_malformed_config_file(self, liner_csv, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["extract", "--input", liner_csv, "--label", "survived",
                     "--config", str(bad)]) == 2
        assert f"malformed config {bad}: " in capsys.readouterr().err

    def test_three_classes_need_a_class_in_library_and_cli(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("x,y\n" + "".join(f"{i},{'pqr'[i % 3]}\n" for i in range(12)))
        message = "--class is required with 3 classes: ['p', 'q', 'r']"
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_extraction(load_csv(str(path)), PipelineConfig(n_clusters=1))
        assert main(["extract", "--input", str(path)]) == 2
        assert message in capsys.readouterr().err

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

    def test_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y\n\xe9t\xe9,0\nb,1\n")
        assert main(["extract", "--input", str(path), "--label", "y"]) == 3
        assert f"{path} is not UTF-8 text" in capsys.readouterr().err

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("a,y\nb,0\n" + "x" * 200_000 + ",1\n")
        assert main(["extract", "--input", str(path), "--label", "y"]) == 3
        assert f"{path}, line 3: field larger than field limit" in capsys.readouterr().err

    def test_byte_order_mark_is_not_header_text(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("a,b,y\n" + "".join(f"{i % 2},{i},{i % 3}\n" for i in range(12)),
                        encoding="utf-8-sig")
        out = tmp_path / "run"
        assert main(["extract", "--input", str(path), "--label", "a", "--class", "1",
                     "--clusters", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["label"] == "a"
        assert set(report["profile"]["columns"]) == {"b", "y"}
        assert set(report["transform_log"]["columns"]) == {"b", "y"}

    @pytest.mark.parametrize("config, message", [
        ({"missing_tokens": 5}, "missing_tokens must be a sequence of strings, got 5"),
        ([1, 2], "the top level must be a JSON object"),
        ({"datetime_patterns": "%Y"}, "datetime_patterns must be a sequence of strings, got '%Y'"),
        ({"ordinal_hints": ["grade", 3]}, "'ordinal_hints' must be a list of strings"),
        ({"missing_tokens": ["", 3]}, "missing_tokens must be a sequence of strings, got ['', 3]"),
        ({"datetime_patterns": ["%Y", None]},
         "datetime_patterns must be a sequence of strings, got ['%Y', None]"),
    ])
    def test_malformed_loader_hints(self, liner_csv, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["profile", "--input", liner_csv, "--label", "survived",
                     "--config", str(cfg_path)]) == 2
        assert f"malformed config {cfg_path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"per_column": [1]}, "'per_column' must map column names"),
        ({"per_column": {"age": 3}}, "'per_column' must map column names"),
        ({"per_column": {"age": {"method": "percentile"}}}, "'per_column' must map column names"),
        ({"per_column": {"age": {"method": "percentile", "k": "3"}}},
         "'per_column' must map column names"),
        ({"per_column": {"age": {"method": "percentile", "k": True}}},
         "'per_column' must map column names"),
        ({"per_column": {"age": {"method": 5, "k": 3}}}, "'per_column' must map column names"),
        ({"numeric_bins": "ten"}, "'numeric_bins' must be an integer or null"),
        ({"numeric_bins": 4.5}, "'numeric_bins' must be an integer or null"),
        ({"numeric_bins": True}, "'numeric_bins' must be an integer or null"),
        ({"high_cardinality_threshold": None}, "'high_cardinality_threshold' must be an integer"),
        ({"high_cardinality_threshold": False}, "'high_cardinality_threshold' must be an integer"),
        ({"reorder_symbolic": "no"}, "'reorder_symbolic' must be true or false"),
        ({"reorder_symbolic": 0}, "'reorder_symbolic' must be true or false"),
    ])
    def test_malformed_plan_fields(self, liner_csv, tmp_path, capsys, config, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        for command in ("profile", "extract"):
            assert main([command, "--input", liner_csv, "--label", "survived",
                         "--config", str(cfg_path)]) == 2, command
            assert message in capsys.readouterr().err, command

    @pytest.mark.parametrize("command", ["profile", "extract"])
    def test_unknown_config_key(self, liner_csv, tmp_path, capsys, command):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps({"numeric_bin": 4, "reorder_symbolc": False}))
        assert main([command, "--input", liner_csv, "--label", "survived",
                     "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown keys ['numeric_bin', 'reorder_symbolc']" in err
        assert ("accepted keys: numeric_bins, per_column, reorder_symbolic, "
                "high_cardinality_threshold, missing_tokens, datetime_patterns, ordinal_hints") in err

    @pytest.mark.parametrize("command", ["profile", "extract", "stability", "export-dot"])
    def test_negative_high_cardinality_threshold(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps({"high_cardinality_threshold": -5}))
        # the input does not exist: exit 3 would mean the check ran after loading
        assert main([command, "--input", str(tmp_path / "nope.csv"),
                     "--config", str(cfg_path)]) == 2
        assert "high_cardinality_threshold must be >= 0, got -5" in capsys.readouterr().err

    def test_reorder_symbolic_config_and_flag_precedence(self, liner_csv, tmp_path):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps({"reorder_symbolic": False}))

        def report(name, *flags):
            out = tmp_path / name
            assert main(["extract", "--input", liner_csv, "--label", "survived", "--clusters", "2",
                         "--depth", "3", *flags, "--out", str(out)]) == 0
            return json.loads((out / "report.json").read_text())

        default = report("default")
        flag_off = report("flag-off", "--reorder-symbolic", "off")
        config_off = report("config-off", "--config", str(cfg_path))
        flag_wins = report("flag-on", "--config", str(cfg_path), "--reorder-symbolic", "on")
        assert default["config"]["plan"]["reorder_symbolic"] is True
        assert config_off["config"]["plan"]["reorder_symbolic"] is False
        assert flag_wins["config"]["plan"]["reorder_symbolic"] is True
        assert default["clusters"] != flag_off["clusters"]
        assert config_off["clusters"] == flag_off["clusters"]
        assert flag_wins["clusters"] == default["clusters"]

    def test_missing_token_flag_overrides_config(self, grades_csv, tmp_path):
        csv_path, cfg_path = grades_csv
        out = tmp_path / "run"
        assert main(["extract", "--input", csv_path, "--label", "y", "--config", cfg_path,
                     "--missing-token", "NA", "--clusters", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["missing_tokens"] == ["NA"]
        grade = report["profile"]["columns"]["grade"]["categories"]
        assert "NA" not in {c["value"] for c in grade}

    @pytest.mark.parametrize("delimiter", ["ab", ""])
    def test_delimiter_not_one_character(self, liner_csv, capsys, delimiter):
        assert main(["profile", "--input", liner_csv, "--label", "survived",
                     "--delimiter", delimiter]) == 2
        assert "--delimiter must be one character" in capsys.readouterr().err

    def test_delimiter_flag_and_library_agree(self, tmp_path):
        path = tmp_path / "semicolon.csv"
        path.write_text("city;size;y\nParis, FR;1;no\nOslo;2;yes\nParis, FR;3;yes\nRome;4;no\n")
        argv = ["extract", "--input", str(path), "--label", "y", "--delimiter", ";"]
        from_flags = _load(_run_config_from_args(build_parser().parse_args(argv)))
        from_library = load_csv(str(path), label="y", settings=LoadSettings(delimiter=";"))
        assert from_flags.column_names == from_library.column_names == ("city", "size")
        for got, expected in zip(from_flags.columns, from_library.columns):
            assert_columns_equal(got, expected)
        assert list(from_flags.labels) == list(from_library.labels)
        assert main([*argv, "--clusters", "1"]) == 0

    @pytest.mark.parametrize("flags, config", [
        (["--bins", "1"], None), (["--bins", "-2"], None), (["--bins", "0"], None),
        ([], {"numeric_bins": 0}),
    ])
    def test_bins_below_two_is_config_error(self, liner_csv, tmp_path, capsys, flags, config):
        if config is not None:
            cfg_path = tmp_path / "plan.json"
            cfg_path.write_text(json.dumps(config))
            flags = ["--config", str(cfg_path)]
        assert main(["extract", "--input", liner_csv, "--label", "survived", *flags]) == 2
        assert "binning needs k >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "extract", "export-dot"])
    @pytest.mark.parametrize("config, message", [
        ({"numeric_bins": 0}, "binning needs k >= 2, got 0"),
        ({"per_column": {"age": {"method": "percentile", "k": 1}}}, "binning needs k >= 2, got 1"),
        ({"per_column": {"nope": {"method": "percentile", "k": 3}}}, "unknown column 'nope'"),
        ({"per_column": {"age": {"method": "bogus", "k": 3}}},
         "unknown numeric binning method 'bogus' for column 'age'"),
        # k at or above the distinct-value count, and a column with one value
        ({"per_column": {"sex": {"method": "percentile", "k": 2}}},
         "unknown symbolic-nominal binning method 'percentile' for column 'sex'"),
        ({"per_column": {"const": {"method": "percentile", "k": 3}}},
         "unknown symbolic-nominal binning method 'percentile' for column 'const'"),
        ({"per_column": {"flag": {"method": "frequency", "k": 2}}},
         "cannot bin a boolean column ('flag')"),
    ])
    def test_plan_checked_on_every_subcommand(self, kinds_csv, tmp_path, capsys, command,
                                              config, message):
        cfg_path = tmp_path / "plan.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, "--input", kinds_csv, "--label", "y",
                     "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--beta", "inf"), ("--beta", "0"), ("--beta", "-1"), ("--beta", "1e155"),
        ("--min-gain", "nan"), ("--min-gain", "inf"), ("--min-gain", "-1"),
    ])
    def test_non_finite_or_out_of_range_model_flag(self, tmp_path, capsys, flag, value):
        # the input does not exist: exit 3 would mean the check ran after loading
        assert main(["extract", "--input", str(tmp_path / "nope.csv"), flag, value]) == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_negative_clusters_is_config_error(self, liner_csv, capsys):
        assert main(["extract", "--input", liner_csv, "--label", "survived",
                     "--clusters", "-2"]) == 2
        assert "--clusters must be >= 0" in capsys.readouterr().err

    def test_internal_error_exits_4(self, liner_csv, monkeypatch, capsys):
        def broken(config):
            raise InternalError("invariant broken")

        monkeypatch.setattr("dtclust.cli.run", broken)
        assert main(["extract", "--input", liner_csv, "--label", "survived"]) == 4
        assert "internal error: invariant broken" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"), ("--samples", "-2"),
        ("--fraction", "0"), ("--fraction", "nan"), ("--fraction", "1.5"),
        ("--seed", "-1"),
    ])
    def test_sampling_flag_checked_before_loading(self, tmp_path, capsys, flag, value):
        # the input does not exist: exit 3 would mean the check ran after loading
        assert main(["stability", "--input", str(tmp_path / "nope.csv"), flag, value]) == 2
        assert f"{flag} must be" in capsys.readouterr().err


class TestSynthCommand:
    def test_generate_census_with_default_groups(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = main(["synth", "--generate", "census", "--rows", "800",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "data.csv").exists()
        truth = json.loads((out / "truth.json").read_text())
        assert len(truth["groups"]) == 4
        ds = load_csv(str(out / "data.csv"), label="label", settings=LoadSettings(missing_tokens=("",)))
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

    @pytest.mark.parametrize("generator", ["census", "liner"])
    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_rows_below_one_is_config_error(self, tmp_path, capsys, generator, rows):
        out = tmp_path / "synth"
        assert main(["synth", "--generate", generator, "--rows", rows, "--out", str(out)]) == 2
        assert f"--rows must be >= 1, got {rows}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["census", "liner"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, generator):
        out = tmp_path / "synth"
        assert main(["synth", "--generate", generator, "--rows", "50", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_needs_source(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flags, spec", [
        (["--generate", "census", "--rows", "50", "--p-in", "nan"], None),
        (["--generate", "census", "--rows", "50", "--spec", "{tmp}/missing.json"], None),
        ([], None),
        (SPEC_FLAGS, one_group({"attribute": "sex", "op": "in", "values": "Male"})),
        (SPEC_FLAGS, one_group({"attribute": "sex", "op": "in", "values": ["Male", 1]})),
        (SPEC_FLAGS, one_group({"attribute": "age", "op": "<=", "value": 30,
                                "include_missing": "false"})),
        (SPEC_FLAGS, one_group({"attribute": "age", "op": "<=", "value": "30"})),
        (SPEC_FLAGS, one_group({"attribute": "age", "op": ">", "value": True})),
        (SPEC_FLAGS, one_group({"attribute": "age", "op": "in", "lo": {"value": 30},
                                "hi": {"value": False}})),
        (SPEC_FLAGS, one_group({"attribute": "age", "op": "in", "lo": None, "hi": None})),
        (SPEC_FLAGS, one_group({"attribute": "age", "op": "~", "value": 30})),
        (SPEC_FLAGS, {"groups": [{"rule": "age <= 30"}]}),
        (SPEC_FLAGS, one_group(AGE_30, share=float("nan"), p_in=True, p_out="0.05")),
        (SPEC_FLAGS, one_group(AGE_30, share=float("nan"))),
        (SPEC_FLAGS, one_group(AGE_30, share=1.5)),
        (SPEC_FLAGS, one_group(AGE_30, share="0.2")),
        (SPEC_FLAGS, one_group(AGE_30, share=False)),
        (SPEC_FLAGS, one_group(AGE_30, p_in=True)),
        (SPEC_FLAGS, one_group(AGE_30, p_in=None)),
        (SPEC_FLAGS, one_group(AGE_30, p_out="0.05")),
        (SPEC_FLAGS, {"groups": ["age <= 30"]}),
    ], ids=["p-in-nan", "missing-spec", "no-source", "values-string", "values-number",
            "include-missing-string", "bound-string", "bound-boolean", "interval-bound-boolean",
            "open-interval", "unknown-op", "rule-not-object", "share-nan-p-in-true-p-out-string",
            "share-nan", "share-above-one", "share-string", "share-boolean", "p-in-boolean",
            "p-in-null", "p-out-string", "group-not-object"])
    def test_config_error_leaves_no_output_directory(self, tmp_path, capsys, flags, spec):
        if spec is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "D"
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert main(["synth", *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON)
    def test_unreadable_spec_file(self, tmp_path, capsys, content):
        bad = tmp_path / "spec.json"
        bad.write_bytes(content)
        out = tmp_path / "D"
        assert main(["synth", *[f.format(tmp=tmp_path) for f in SPEC_FLAGS], "--out", str(out)]) == 2
        assert f"malformed spec {bad}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--generate", "liner", "--spec", "{tmp}/spec.json"], "--spec"),
        (["--generate", "liner", "--default-groups"], "--default-groups"),
        (["--generate", "liner", "--features", "{tmp}/missing.csv"], "--features"),
        (["--generate", "liner", "--p-in", "0.9"], "--p-in"),
        (["--generate", "liner", "--p-out", "0.0"], "--p-out"),
        (["--generate", "liner", "--label-name", "y"], "--label-name"),
        (["--generate", "census", "--features", "{tmp}/missing.csv"], "--features"),
        (["--features", "{tmp}/missing.csv", "--default-groups", "--rows", "10"], "--rows"),
        (["--generate", "census", "--missing-token", "NA"], "--missing-token"),
        ([*SPEC_FLAGS, "--p-out", "0.0"], "--p-out"),
        ([*SPEC_FLAGS, "--default-groups"], "--default-groups"),
    ], ids=["liner-spec", "liner-default-groups", "liner-features", "liner-p-in",
            "liner-p-out", "liner-label-name", "census-features", "features-rows",
            "missing-token-without-features", "spec-p-out", "spec-default-groups"])
    def test_ignored_flag_is_config_error(self, tmp_path, capsys, flags, flag):
        (tmp_path / "spec.json").write_text(json.dumps(one_group(AGE_30)))
        out = tmp_path / "D"
        assert main(["synth", *[f.format(tmp=tmp_path) for f in flags], "--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_features_missing_token_overrides_empty_default(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("color,size\n" + "".join(
            f"{'red' if i % 2 else 'X'},{'' if i % 3 == 0 else i}\n" for i in range(30)))
        spec = one_group({"attribute": "color", "op": "==", "value": "red"}, p_in=1.0, p_out=0.0)
        (tmp_path / "spec.json").write_text(json.dumps(spec))

        def synth(name, *flags):
            out = tmp_path / name
            assert main(["synth", "--features", str(features), "--spec", str(tmp_path / "spec.json"),
                         *flags, "--out", str(out)]) == 0
            return (out / "data.csv").read_text().splitlines()

        default, with_x = synth("default"), synth("x", "--missing-token", "X")
        # "" is missing by default, so size stays numeric and X stays a color
        assert default[1:3] == ["X,,no", "red,1,yes"]
        # with --missing-token X only, X is missing and "" is a size value
        assert with_x[1:3] == [",,no", "red,1,yes"]

    @pytest.mark.parametrize("source, label", [
        (["--generate", "census", "--rows", "50"], "age"),
        (["--features", "{tmp}/features.csv", "--spec", "{tmp}/spec.json"], "age"),
        (["--features", "{tmp}/features.csv", "--spec", "{tmp}/spec.json"], None),
    ], ids=["census", "features", "features-default-name"])
    def test_label_name_of_a_feature_column_is_config_error(self, tmp_path, capsys, source, label):
        # the written table would repeat a header name, which no loader reads
        (tmp_path / "features.csv").write_text("age,label\n" + "".join(f"{20 + i},x\n" for i in range(30)))
        (tmp_path / "spec.json").write_text(json.dumps(one_group(AGE_30)))
        out = tmp_path / "D"
        flags = [f.format(tmp=tmp_path) for f in source] + (["--label-name", label] if label else [])
        assert main(["synth", *flags, "--out", str(out)]) == 2
        assert f"label name {label or 'label'!r} is already a feature column" in capsys.readouterr().err
        assert not out.exists()

    def test_generator_default_row_count(self, tmp_path):
        out = tmp_path / "liner"
        assert main(["synth", "--generate", "liner", "--out", str(out)]) == 0
        assert load_csv(str(out / "data.csv"), label="survived").row_count == 887

    def test_half_open_spec_interval_echoes_one_sided_test(self, tmp_path):
        spec = one_group({"attribute": "age", "op": "in", "lo": {"value": 30}})
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "D"
        flags = [f.format(tmp=tmp_path) for f in SPEC_FLAGS]
        assert main(["synth", *flags, "--out", str(out)]) == 0
        rule = json.loads((out / "truth.json").read_text())["groups"][0]["spec"]["rule"]
        assert rule["predicates"] == [{"attribute": "age", "op": ">", "value": 30.0, "text": "30",
                                       "include_missing": False}]
        assert rule["text"] == "age > 30"

    def test_census_label_name_checked_before_features_are_built(self, tmp_path, monkeypatch, capsys):
        def build_features(*args, **kwargs):
            pytest.fail("the feature table was built before the label name was checked")

        monkeypatch.setattr("dtclust.cli.census_like_features", build_features)
        out = tmp_path / "D"
        assert main(["synth", "--generate", "census", "--label-name", "age", "--out", str(out)]) == 2
        assert "label name 'age' is already a feature column" in capsys.readouterr().err
        assert not out.exists()

    def test_group_specs_checked_before_features_are_built(self, tmp_path, monkeypatch):
        def build_features(*args, **kwargs):
            pytest.fail("the feature table was built before the group specs were checked")

        monkeypatch.setattr("dtclust.cli.census_like_features", build_features)
        out = tmp_path / "D"
        assert main(["synth", "--generate", "census", "--p-in", "nan", "--out", str(out)]) == 2
        assert not out.exists()


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

    def test_rejects_clusters_flag(self, liner_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", "--input", liner_csv, "--label", "survived", "--clusters", "7"])
        assert exc.value.code == 2
        assert "--clusters" in capsys.readouterr().err


class TestOutPath:
    """An --out that cannot be a directory is a config error of every subcommand that writes."""

    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("argv", [
        ["profile", "--input", "{csv}", "--label", "survived"],
        ["extract", "--input", "{csv}", "--label", "survived", "--clusters", "1", "--depth", "2"],
        ["stability", "--input", "{csv}", "--label", "survived", "--clusters", "1", "--depth", "2",
         "--samples", "2"],
        ["synth", "--generate", "liner", "--rows", "50"],
        ["export-dot", "--input", "{csv}", "--label", "survived", "--depth", "2"],
    ], ids=lambda argv: argv[0])
    def test_out_naming_a_file_is_config_error(self, liner_csv, tmp_path, capsys, monkeypatch,
                                               argv, under_file):
        # --out is refused before the run: neither the run nor a table read may start
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("run", "load_csv", "titanic_like"):
            monkeypatch.setattr(cli, name, refuse)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "run" if under_file else taken
        assert main([a.format(csv=liner_csv) for a in argv] + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: cannot write --out {out}: {taken} is not a directory\n"
        assert captured.out == ""
        assert taken.read_text() == "a file\n"
        assert sorted(tmp_path.iterdir()) == [taken]


class TestRerun:
    """A run into an --out that holds an earlier run's artifacts leaves only its own."""

    @staticmethod
    def _extract(liner_csv, out, clusters):
        return main(["extract", "--input", liner_csv, "--label", "survived", "--clusters",
                     str(clusters), "--depth", "2", "--out", str(out)])

    def test_fewer_clusters_leave_no_stale_files(self, liner_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert self._extract(liner_csv, out, 3) == 0
        assert {"cluster_03.rows.txt", "tree_03.dot"} <= {p.name for p in out.iterdir()}
        assert self._extract(liner_csv, out, 1) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cluster_01.rows.txt", "cluster_01.rule.txt", "report.json", "report.txt", "tree_01.dot"]
        assert len(json.loads((out / "report.json").read_text())["clusters"]) == 1

    def test_other_files_survive(self, liner_csv, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        kept = ["notes.txt", "tree_2.dot", "cluster_02.rows.txt.bak", "tree_02.dot.orig"]
        for name in kept:
            (out / name).write_text("mine\n")
        (out / "tree_07.dot").mkdir()
        assert self._extract(liner_csv, out, 1) == 0
        for name in kept:
            assert (out / name).read_text() == "mine\n"
        assert (out / "tree_07.dot").is_dir()


class TestPartialReport:
    """A report that fails to encode partway through leaves no partial report.json."""

    @staticmethod
    def _put_nan_in_report(monkeypatch):
        # the key sorts last, so most of the report is streamed before the error
        to_dict = cli.RunReport.to_dict
        monkeypatch.setattr(cli.RunReport, "to_dict",
                            lambda self: {**to_dict(self), "~nan": float("nan")})

    @staticmethod
    def _extract(liner_csv, out):
        return main(["extract", "--input", liner_csv, "--label", "survived", "--clusters", "1",
                     "--depth", "2", "--out", str(out)])

    def test_no_file_remains(self, liner_csv, tmp_path, capsys, monkeypatch):
        self._put_nan_in_report(monkeypatch)
        out = tmp_path / "run"
        assert self._extract(liner_csv, out) == 4
        assert "internal error: Out of range float values" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_earlier_report_is_kept(self, liner_csv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert self._extract(liner_csv, out) == 0
        earlier = sorted(out.iterdir())
        report = (out / "report.json").read_bytes()
        self._put_nan_in_report(monkeypatch)
        assert self._extract(liner_csv, out) == 4
        assert (out / "report.json").read_bytes() == report
        assert sorted(out.iterdir()) == earlier


class TestDefaults:
    """Each flag default is read from the dataclass that owns the setting."""

    @pytest.mark.parametrize("command", ["profile", "extract", "stability", "synth", "export-dot"])
    def test_help_shows_dataclass_defaults(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        shown = []
        if command in ("extract", "stability", "export-dot"):
            shown += [f"F-measure beta (default {PipelineConfig.beta})",
                      f"max tree depth (default {TrainParams.max_depth})",
                      "--metric {" + ",".join(_METRICS) + "}"]
        if command in ("extract", "stability"):
            shown.append(f"clusters to extract (default {PipelineConfig.n_clusters})")
        if command == "stability":
            shown += [f"number of bagged samples (default {StabilityParams.n_samples})",
                      f"sample fraction (default {StabilityParams.fraction})",
                      f"sampling seed (default {StabilityParams.seed})"]
        for text in shown:
            assert text in out

    @pytest.mark.parametrize("command", ["extract", "stability"])
    def test_minimal_argv_gives_dataclass_defaults(self, command):
        config = _run_config_from_args(build_parser().parse_args([command, "--input", "t.csv"]))
        assert config.pipeline.params == TrainParams()
        assert config.pipeline.beta == PipelineConfig.beta
        assert config.pipeline.n_clusters == PipelineConfig.n_clusters
        assert config.pipeline == PipelineConfig()
        assert config.stability == (StabilityParams() if command == "stability" else None)

    def test_minimal_argv_echoes_the_same_config(self):
        # report.json's config echo keeps its keys and values for the minimal argv
        config = _run_config_from_args(build_parser().parse_args(["extract", "--input", "t.csv"]))
        assert config.to_dict() == {
            "schema_version": 2, "input": "t.csv", "label": None,
            "missing_tokens": ["", "?", "NA"], "delimiter": ",", "kind_hints": {},
            "datetime_patterns": ["%Y-%m-%d", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%H:%M:%S"],
            "target_class": None, "beta": 0.33, "n_clusters": 3,
            "train_params": {"impurity_metric": "gini", "max_depth": 5, "min_gain": 0.0,
                             "min_samples_leaf": 1},
            "plan": {"high_cardinality_threshold": 100, "numeric_bins": None, "per_column": {},
                     "reorder_symbolic": True},
        }
        assert config.load == LoadSettings()

    def test_synth_rates_default_to_group_spec(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--generate", "census", "--rows", "200", "--out", str(out)]) == 0
        groups = json.loads((out / "truth.json").read_text())["groups"]
        assert {(g["spec"]["p_in"], g["spec"]["p_out"]) for g in groups} == {
            (HiddenGroupSpec.p_in, HiddenGroupSpec.p_out)}


# every leaf kind json.dumps encodes, with the edges of its number and string formatting
_TEXT = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr),
                          st.sampled_from('\x00\x1f\x7f"\\/\u2028\U0001f600')), max_size=6)
_NUMBER = st.one_of(
    st.integers(),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, 1e16, 2 ** 64, -(2 ** 64) - 1)),
)
_LEAF = st.one_of(st.none(), st.booleans(), _NUMBER, _TEXT)
_BAD_LEAF = st.sampled_from((float("nan"), float("inf"), float("-inf"), np.int64(1), set()))
# the keys of one dict are drawn from one family; across families they may not sort
_KEY_FAMILIES = (_TEXT, _NUMBER | st.booleans(), st.none())


def _json_trees(leaf, key_families=_KEY_FAMILIES):
    return st.recursive(
        st.one_of(leaf, st.lists(st.booleans(), min_size=1), st.lists(st.integers(), min_size=1),
                  st.lists(_TEXT, min_size=1), st.sampled_from(([True, 1], [1, True], [0, False, "0"]))),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.sampled_from(key_families).flatmap(lambda k: st.dictionaries(k, children, max_size=4)),
        ),
        max_leaves=20,
    )


def _dumps_or_error(dump, obj):
    try:
        return dump(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _joined_chunks(obj):
    return "".join(json_chunks(obj))


class TestJsonText:
    """json_chunks, joined, returns what json.dumps(sort_keys=True, indent=2,
    allow_nan=False) does."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(obj=_json_trees(_LEAF))
    def test_equals_json_dumps(self, obj):
        assert _joined_chunks(obj) == _reference_dumps(obj)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(obj=_json_trees(_LEAF | _BAD_LEAF, (*_KEY_FAMILIES, st.one_of(*_KEY_FAMILIES))))
    def test_raises_as_json_dumps(self, obj):
        assert _dumps_or_error(_joined_chunks, obj) == _dumps_or_error(_reference_dumps, obj)

    @pytest.mark.parametrize("obj, error", [
        (float("nan"), ValueError),
        ([1, float("inf")], ValueError),
        ({"a": [float("-inf")]}, ValueError),
        ({float("nan"): 1}, ValueError),
        (np.int64(1), TypeError),
        ([np.int64(1)], TypeError),
        (set(), TypeError),
        ({(1, 2): 1}, TypeError),
        ({1: 0, "a": 1}, TypeError),
        ({None: 0, True: 1}, TypeError),
    ], ids=["nan", "inf-in-list", "neg-inf-in-dict", "nan-key", "np-int64", "np-int64-in-list",
            "set", "tuple-key", "unorderable-keys", "null-and-bool-keys"])
    def test_error_type(self, obj, error):
        with pytest.raises(error):
            _reference_dumps(obj)
        with pytest.raises(error):
            _joined_chunks(obj)

    @pytest.mark.parametrize("obj", [
        [True, False], [True, 1], [1, 2 ** 70, -3], ["a", "\u00e9", "\udc80"], {1.5: [], 0: {}, True: ()},
        {"": [[], {}, ()]}, [-0.0, 5e-324, 1e16],
    ], ids=["all-bool", "bool-and-int", "ints", "strs", "number-keys", "empty-containers",
            "float-edges"])
    def test_cases(self, obj):
        assert _joined_chunks(obj) == _reference_dumps(obj)

    def test_write_holds_no_whole_text(self, tmp_path):
        # 24 flat lists of 2,000 distinct strings: ~2.6 MB of JSON, no list over 4% of it
        obj = {f"column-{i:02d}": {"dictionary": [f"{i:02d}-{j:06d}-" + "x" * 30 for j in range(2000)],
                                   "codes": list(range(i, i + 50))}
               for i in range(24)}
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            _write_json(path, obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = path.read_bytes()
        assert data == (_reference_dumps(obj) + "\n").encode()
        assert len(data) >= 2 * 2 ** 20
        assert peak < len(data) / 4, (peak, len(data))


def _dtclust(args, cwd, env=None, python_flags=()):
    """Run the dtclust command line in a fresh interpreter."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *python_flags, "-m", "dtclust", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestLogLevel:
    """DTCLUST_LOG is read in a fresh interpreter: under pytest the root logger
    already has handlers, so logging.basicConfig would do nothing."""

    @pytest.mark.parametrize("value", ["basic_format", "verbose", ""])
    def test_unknown_level_is_config_error(self, liner_csv, tmp_path, value):
        env = dict(os.environ, DTCLUST_LOG=value)
        done = _dtclust(["profile", "--input", liner_csv, "--label", "survived"], tmp_path, env)
        assert done.returncode == 2, done.stderr
        assert done.stderr == (f"config error: DTCLUST_LOG={value!r} is not a log level; "
                               "use DEBUG, INFO, WARNING, ERROR or CRITICAL\n")

    @pytest.mark.parametrize("value, logs", [("info", True), ("Error", False)])
    def test_known_level_in_any_case(self, liner_csv, tmp_path, value, logs):
        env = dict(os.environ, DTCLUST_LOG=value)
        done = _dtclust(["profile", "--input", liner_csv, "--label", "survived"], tmp_path, env)
        assert done.returncode == 0, done.stderr
        assert ("INFO dtclust.dataset: loaded" in done.stderr) is logs


def test_stability_warns_once_per_plan_warning(tmp_path):
    # every sample refits the plan and meets the column the whole table
    # dropped; its repeat is a DEBUG line, so a warning shows once
    rows = ["name,grade,passed"] + [f"n{i},{'abc'[i % 3]},{'yes' if i % 3 else 'no'}"
                                     for i in range(300)]
    (tmp_path / "named.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    args = ["stability", "--input", "named.csv", "--label", "passed", "--class", "yes",
            "--samples", "5", "--out", "stab"]
    dropping = "WARNING dtclust.preprocess: dropping column 'name': 300 unique values"
    done = _dtclust(args, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr.count(dropping) == 1, done.stderr
    done = _dtclust(args, tmp_path, dict(os.environ, DTCLUST_LOG="DEBUG"))
    assert done.returncode == 0, done.stderr
    assert done.stderr.count(dropping) == 1
    assert done.stderr.count("DEBUG dtclust.preprocess: dropping column 'name'") == 5


def test_every_file_opened_names_its_encoding(tmp_path):
    # an open() without encoding= is an EncodingWarning here, and the warning an error
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    table = ["--input", "liner/data.csv", "--label", "survived"]
    for args in (["synth", "--generate", "liner", "--out", "liner"],
                 ["profile", *table, "--out", "profile"],
                 ["extract", *table, "--out", "extract"],
                 ["stability", *table, "--samples", "2", "--out", "stability"],
                 ["export-dot", *table, "--out", "dot"]):
        done = _dtclust(args, tmp_path, python_flags=flags)
        assert done.returncode == 0, (args, done.stderr)
