"""Golden digests: the artifact bytes of six fixed CLI runs through every binning method.

The table is generated in-repo (census-style features, planted groups, and two
datetime columns derived from the row index, one with missing cells). Five runs
read it as written; the sixth reads a copy with a byte-order mark, CRLF line
endings, blank lines and a text column whose quoted cells hold the delimiter,
a doubled quote or a newline. One more digest pins the cluster_NN.rows.txt
files of the extract and extract-deep runs, and another the tree_NN.dot and
cluster_NN.rule.txt files of the extract run. Each run
starts in a fresh directory with relative paths, so the config echo inside
report.json does not depend on where the tests run. A digest moves only when
the artifact itself changes; re-record it on purpose, never to make a run pass.
"""

import csv
import hashlib
import json
from datetime import date, timedelta

import pytest

from dtclust.cli import main
from dtclust.dataset import ColumnKind, Dataset, encode_column
from dtclust.synth import census_group_specs, census_like_features, plant_groups, write_csv

ROWS = 3000

PLAN = {
    "per_column": {
        "fnlwgt": {"method": "percentile", "k": 6},
        "capital-gain": {"method": "equal-width", "k": 5},
        "day": {"method": "frequency", "k": 4},
        "clock": {"method": "equal-width", "k": 3},
        "native-country": {"method": "frequency", "k": 5},
        "occupation": {"method": "equal-width", "k": 4},
        "education": {"method": "similarity", "k": 4},
    },
}

GOLDEN = {
    "extract": "8aba3eb0fe519d4ee27698b514e7c84c8ff86ea8f55121ad3d84acf69e8c6ea2",
    "stability": "f41ab0ec62b734e76711bc91fcb67a20e06d1f3caf44dd35b7314b12973c6e9d",
    "profile": "37caa177bfdde7a8eb0fdd63881707f699246f2f546e12d56a54e57460003120",
    "export-dot": "8c238302e38607d26e8232dcacc6b833cec98d963455f2aca6c9295c34e60220",
    "extract-deep": "e813cfc0d86bb16bd9c00d4d039aaf82d00164cc295cb80c07463161e94da3be",
    "extract-messy": "0dd39363384de08c6945c76ec76cefc35f896811fd4ce3c67c27d41a1ecb698b",
    # every cluster_NN.rows.txt of the extract run, then of the extract-deep run
    "rows": "c92d19f51e518afbe77e26157c38cdbcdd15b31b006129c99913526b4dfda8fd",
    # every tree_NN.dot, then every cluster_NN.rule.txt, of the extract run
    "dot-and-rules": "8c5044314d48ab984e35b5f0b5bbc7e2981c0d7d358715a588498b3e42756776",
}

EXTRACT_ARGV = ["extract", "--config", "plan.json", "--class", "yes"]
DEEP_ARGV = [*EXTRACT_ARGV, "--depth", "7", "--min-samples-leaf", "3"]

# the text column of the messy copy: cells that need quoting, and one missing
NOTES = ("plain", "comma, inside", "two\nlines", 'say "hi"', "", "three\r\nline\nbreaks")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    features = census_like_features(ROWS, 7)
    labelled, _ = plant_groups(features, census_group_specs(), 7)
    start = date(2020, 1, 1)
    days = ["" if i % 13 == 0 else (start + timedelta(days=i * 37 % 400)).isoformat()
            for i in range(ROWS)]
    clock = [f"{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}"
             for s in (i * 7919 % 86400 for i in range(ROWS))]
    extra = (
        encode_column("day", days, ColumnKind.DATETIME, pattern="%Y-%m-%d"),
        encode_column("clock", clock, ColumnKind.DATETIME, pattern="%H:%M:%S"),
    )
    table = Dataset(labelled.columns + extra, labelled.labels, labelled.class_names)
    root = tmp_path_factory.mktemp("golden")
    write_csv(table, str(root / "data.csv"))
    (root / "plan.json").write_text(json.dumps(PLAN))
    _write_messy_copy(root / "data.csv", root / "messy.csv")
    return root


def _write_messy_copy(src, dst):
    """data.csv with a note column after the first, a BOM, CRLF endings and a blank line every 97 rows."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="", encoding="utf-8-sig") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        for i, row in enumerate(rows):
            writer.writerow([row[0], "note" if i == 0 else NOTES[i * 7 % len(NOTES)], *row[1:]])
            if i % 97 == 96:
                fh.write("\r\n")


@pytest.mark.parametrize("name, argv, artifact", [
    pytest.param("extract", EXTRACT_ARGV, "report.json", id="extract-argv0"),
    pytest.param("stability", ["stability", "--config", "plan.json", "--class", "yes",
                               "--samples", "3", "--reorder-symbolic", "off"],
                 "report.json", id="stability-argv1"),
    pytest.param("profile", ["profile", "--config", "plan.json"], "profile.json",
                 id="profile-argv2"),
    pytest.param("export-dot", ["export-dot", "--config", "plan.json", "--class", "yes"],
                 "tree.dot", id="export-dot-argv3"),
    pytest.param("extract-deep", DEEP_ARGV, "report.json", id="extract-deep-argv4"),
])
def test_report_digest(workdir, monkeypatch, name, argv, artifact):
    monkeypatch.chdir(workdir)
    out = f"run-{name}"
    assert main([*argv, "--input", "data.csv", "--label", "label", "--out", out]) == 0
    data = (workdir / out / artifact).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


def test_messy_copy_digest(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    argv = ["extract", "--config", "plan.json", "--class", "yes",
            "--input", "messy.csv", "--label", "label", "--out", "run-extract-messy"]
    assert main(argv) == 0
    data = (workdir / "run-extract-messy" / "report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN["extract-messy"]


def test_row_lists_digest(workdir, monkeypatch):
    # a cluster taken from an internal node is the one whose row order the
    # tree permutes, so the pinned runs must hold at least one
    monkeypatch.chdir(workdir)
    digest = hashlib.sha256()
    internal = 0
    for name, argv in (("extract", EXTRACT_ARGV), ("extract-deep", DEEP_ARGV)):
        out = workdir / f"rows-{name}"
        assert main([*argv, "--input", "data.csv", "--label", "label", "--out", out.name]) == 0
        report = json.loads((out / "report.json").read_text())
        for i, cluster in enumerate(report["clusters"], start=1):
            digest.update((out / f"cluster_{i:02d}.rows.txt").read_bytes())
            node = report["trees"][cluster["tree_index"]]["nodes"][cluster["node_id"]]
            internal += "split" in node
    assert internal >= 1
    assert digest.hexdigest() == GOLDEN["rows"]


def test_dot_and_rule_files_digest(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    out = workdir / "dot-and-rules"
    assert main([*EXTRACT_ARGV, "--input", "data.csv", "--label", "label", "--out", out.name]) == 0
    trees = sorted(out.glob("tree_*.dot"))
    rules = sorted(out.glob("cluster_*.rule.txt"))
    assert len(trees) == 3 and len(rules) == 3
    digest = hashlib.sha256()
    for path in trees + rules:
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN["dot-and-rules"]
