"""Metamorphic and fuzz properties of the command line, run through cli.main.

Row order: shuffling a CSV's data rows leaves extract's clusters unchanged.
Exit codes: any small CSV under any flag set exits 0, 2 or 3, never 4, and
warns nothing.
"""

import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dtclust.cli import main

# numbers with ties, one value under two texts ("1" and "1.0"), and whitespace
_NUMBERS = st.sampled_from(["1", "1.0", "2", " 2", "3", "3.50", "-4"])
_SYMBOLS = st.sampled_from(["a", "b", " b", "c d"])
_MISSING = st.sampled_from(["", "?", "NA"])
_LABELS = st.sampled_from(["n", "y"])

_EXTRACT_FLAGS = (
    [], ["--bins", "2"], ["--beta", "0.5", "--depth", "2"],
    ["--metric", "entropy", "--min-samples-leaf", "2"], ["--clusters", "2", "--reorder-symbolic", "off"],
)


def _write(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _run(argv: list[str]) -> tuple[int, str, list[warnings.WarningMessage]]:
    """main's exit code, its stderr and the warnings it raised; an argparse refusal exits 2."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), caught


@st.composite
def _tables(draw):
    """A small labelled table of numeric and symbolic columns with ties and missing cells."""
    n_rows = draw(st.integers(4, 24))
    kinds = draw(st.lists(st.sampled_from([_NUMBERS, _SYMBOLS]), min_size=1, max_size=3))
    # a column has missing cells or none
    kinds = [st.one_of(kind, _MISSING) if draw(st.booleans()) else kind for kind in kinds]
    rows = [[draw(kind) for kind in kinds] + [draw(_LABELS)] for _ in range(n_rows)]
    # both classes are present, so the target class is always code 1 of two
    rows[0][-1], rows[1][-1] = "n", "y"
    return [f"c{j}" for j in range(len(kinds))] + ["label"], rows


def _extract(directory: Path, header, rows, flags) -> list[tuple[dict, list[int]]]:
    """Each cluster's report record and its sorted row ids, from extract's artifacts."""
    _write(directory / "data.csv", header, rows)
    argv = ["extract", "--input", str(directory / "data.csv"), "--label", "label",
            "--out", str(directory / "out"), *flags]
    code, err, caught = _run(argv)
    assert code == 0, err
    assert not caught, [str(w.message) for w in caught]
    records = json.loads((directory / "out" / "report.json").read_text(encoding="utf-8"))["clusters"]
    return [(rec, [int(r) for r in (directory / "out" / f"cluster_{i + 1:02d}.rows.txt")
                   .read_text(encoding="utf-8").split()])
            for i, rec in enumerate(records)]


def _without_texts(predicate: dict) -> dict:
    """A predicate record with its bounds' display texts left out: the value and value set stay."""
    out = {k: v for k, v in predicate.items() if k != "text"}
    for side in ("lo", "hi"):
        if side in out:
            out[side] = {"value": out[side]["value"]}
    return out


def _one_text_per_value(rows) -> bool:
    """Whether no number in the table is written under two texts."""
    texts: dict[float, set[str]] = {}
    for text in {cell.strip() for row in rows for cell in row[:-1]}:
        try:
            texts.setdefault(float(text), set()).add(text)
        except ValueError:
            pass
    return all(len(group) == 1 for group in texts.values())


class TestRowOrder:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(table=_tables(), flags=st.sampled_from(_EXTRACT_FLAGS), data=st.data())
    def test_shuffled_rows_give_the_same_clusters(self, table, flags, data):
        header, rows = table
        perm = data.draw(st.permutations(range(len(rows))))
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("plain", "shuffled"):
                (Path(tmp) / name).mkdir()
            plain = _extract(Path(tmp) / "plain", header, rows, flags)
            # row j of the shuffled file is row perm[j] of the plain one
            shuffled = _extract(Path(tmp) / "shuffled", header, [rows[i] for i in perm], flags)
        assert len(shuffled) == len(plain)
        exact = _one_text_per_value(rows)
        for (rec, ids), (rec2, ids2) in zip(plain, shuffled):
            assert sorted(perm[j] for j in ids2) == ids
            assert (rec2["tree_index"], rec2["node_id"]) == (rec["tree_index"], rec["node_id"])
            preds, preds2 = rec["rule"]["predicates"], rec2["rule"]["predicates"]
            assert list(map(_without_texts, preds2)) == list(map(_without_texts, preds))
            if exact:
                assert rec2["sentence"] == rec["sentence"]

    def test_a_value_reads_as_its_first_text(self, tmp_path):
        # the column holds 1 as "1" and as "1.0"; the rule's bound reads as the first seen
        header = ["a", "label"]
        rows = [["1", "y"], ["2", "n"], ["1.0", "y"], ["3", "n"], ["2", "n"], ["3", "n"]]
        texts = []
        for name, order in (("plain", rows), ("reversed", rows[::-1])):
            (tmp_path / name).mkdir()
            [(rec, _)] = _extract(tmp_path / name, header, order, ["--clusters", "1"])
            [pred] = rec["rule"]["predicates"]
            assert _without_texts(pred) == {"attribute": "a", "op": "<=", "include_missing": False,
                                            "value": 1.0}
            texts.append(pred["text"])
        assert texts == ["1", "1.0"]


_DATES = st.sampled_from(["2020-01-02", "1999-12-31 ", "2021-06-30"])
_CELLS = st.one_of(_NUMBERS, _SYMBOLS, _DATES, _MISSING, st.sampled_from(["1e309", "-1e309", "  ", "x,y"]))


@st.composite
def _fuzz_tables(draw):
    """A small table of mixed cells, most often with two classes; its label
    column may also hold one or three classes, or missing cells."""
    width = draw(st.integers(1, 3))
    n_rows = draw(st.integers(2, 16))
    labels = draw(st.sampled_from([_LABELS] * 4 + [st.sampled_from(["n", "y", "m"]), st.just("y"),
                                                   st.one_of(_LABELS, _MISSING)]))
    column_cells = [draw(st.sampled_from([_CELLS, _NUMBERS, _SYMBOLS, _DATES])) for _ in range(width)]
    rows = [[draw(cells) for cells in column_cells] + [draw(labels)] for _ in range(n_rows)]
    if labels is _LABELS:
        rows[0][-1], rows[1][-1] = "n", "y"
    return [f"c{j}" for j in range(width)] + ["label"], rows


# each flag's first value is a common valid one; the later ones include values a run refuses
_MODEL_FLAGS = {
    "--class": ["y", "n", "zz", "1"],
    "--beta": ["0.5", "2", "0", "1e200", "nan"],
    "--depth": ["1", "3", "0"],
    "--bins": ["2", "3", "1"],
    "--reorder-symbolic": ["on", "off"],
    "--metric": ["gini", "entropy"],
    "--min-gain": ["0", "0.1", "-1"],
    "--min-samples-leaf": ["1", "3", "0"],
}
_COMMAND_FLAGS = {
    "profile": {},
    "extract": {**_MODEL_FLAGS, "--clusters": ["1", "2", "0"]},
    "stability": {**_MODEL_FLAGS, "--clusters": ["1", "2"], "--samples": ["2", "1"],
                  "--fraction": ["0.5", "1.0", "0", "1.5"], "--seed": ["0", "3"]},
    "export-dot": _MODEL_FLAGS,
}


def _flag_value(values: list[str]):
    """A flag's first value most of the time, any of its values otherwise."""
    return st.sampled_from([values[0]] * 2 + values)


class TestExitCodes:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(table=_fuzz_tables(), command=st.sampled_from(sorted(_COMMAND_FLAGS)), data=st.data())
    def test_exits_0_2_or_3_without_warnings(self, table, command, data):
        header, rows = table
        choices = _COMMAND_FLAGS[command]
        names = data.draw(st.lists(st.sampled_from(sorted(choices)), unique=True, max_size=4)
                          if choices else st.just([]))
        flags = [part for name in names for part in (name, data.draw(_flag_value(choices[name])))]
        with tempfile.TemporaryDirectory() as tmp:
            _write(Path(tmp) / "data.csv", header, rows)
            out = ["--out", str(Path(tmp) / "out")] if data.draw(st.booleans()) else []
            code, err, caught = _run([command, "--input", str(Path(tmp) / "data.csv"),
                                      "--label", "label", *out, *flags])
        assert code in (0, 2, 3), err
        assert not caught, [str(w.message) for w in caught]
