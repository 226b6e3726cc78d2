"""Every demo script, and the README's library snippet and group-spec example, runs against the
package in this checkout; the scripts run with pyproject.toml's warnings as errors."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dtclust.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the builtin warning classes that pyproject.toml's filterwarnings makes errors,
# made errors in each script's interpreter too
WARNINGS_AS_ERRORS = [f"-Werror::{name}" for name in re.findall(
    r'"error::(\w+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))]


def test_warnings_as_errors_read():
    assert {"-Werror::DeprecationWarning", "-Werror::ResourceWarning"} <= set(WARNINGS_AS_ERRORS)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_library_snippet(tmp_path):
    """The README's python block, verbatim, on the synth liner table saved as passengers.csv."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    assert main(["synth", "--generate", "liner", "--out", str(tmp_path)]) == 0
    (tmp_path / "data.csv").rename(tmp_path / "passengers.csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, "-c", snippet], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rules = done.stdout.splitlines()
    assert len(rules) == 3
    assert all(rule.startswith("IF ") and " THEN survived " in rule for rule in rules)


def test_readme_group_spec_example(tmp_path):
    """The README's group-spec JSON block, verbatim, as a synth --spec file."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```json\n(\{\"groups\".*?)```", readme, re.DOTALL).group(1)
    (tmp_path / "spec.json").write_text(example, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["synth", "--generate", "census", "--rows", "500",
                 "--spec", str(tmp_path / "spec.json"), "--out", str(out)]) == 0
    groups = json.loads((out / "truth.json").read_text())["groups"]
    documented = json.loads(example)["groups"]
    assert len(groups) == len(documented)
    for group, spec in zip(groups, documented):
        assert [(p["attribute"], p["op"]) for p in group["spec"]["rule"]["predicates"]] == \
            [(p["attribute"], p["op"]) for p in spec["rule"]["predicates"]]
        assert group["rows"]
