"""Human-readable rules: conjunctions of attribute tests over original values.

A Rule is what a tree path becomes after decoding: every predicate speaks the
language of the raw CSV (value sets, numeric bounds), not internal codes, so a
rule can be checked against the original table or quoted in a report. A
predicate is one of two tests, each rendering, serialising and evaluating
itself: a RangeTest on an ordered column or a SetTest over display texts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Column, Dataset, MISSING_CODE, MISSING_DISPLAY
from .errors import ConfigError


class _Missing:
    """Marker for the missing value among a SetTest's values."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()


@dataclass(frozen=True)
class Bound:
    """A numeric/datetime endpoint with its display text."""

    value: float
    text: str


@dataclass(frozen=True)
class RangeTest:
    """lo < x <= hi on an ordered column; either side may be open (None), not both.

    include_missing widens the test to also accept missing cells.
    """

    attribute: str
    lo: Bound | None
    hi: Bound | None
    include_missing: bool = False

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise ConfigError(f"range test on {self.attribute!r} needs a lower or an upper bound")

    @property
    def op(self) -> str:
        return "<=" if self.lo is None else ">" if self.hi is None else "in"

    def text(self) -> str:
        a = self.attribute
        if self.lo is None:
            s = f"{a} <= {self.hi.text}"
        elif self.hi is None:
            s = f"{a} > {self.lo.text}"
        else:
            s = f"{self.lo.text} < {a} <= {self.hi.text}"
        return s + " (or missing)" if self.include_missing else s

    def to_dict(self) -> dict:
        out: dict = {"attribute": self.attribute, "op": self.op, "include_missing": self.include_missing}
        if self.lo is None or self.hi is None:
            out.update(asdict(self.hi if self.lo is None else self.lo))
        else:
            out.update(lo=asdict(self.lo), hi=asdict(self.hi))
        return out

    def matches(self, col: Column, codes: np.ndarray) -> np.ndarray:
        if col.values is None:
            raise ConfigError(f"ordered predicate on unordered column {col.name!r}")
        lo = -np.inf if self.lo is None else self.lo.value
        hi = np.inf if self.hi is None else self.hi.value
        v = np.concatenate(([np.nan], col.values))[codes]
        sat = (v > lo) & (v <= hi)
        sat[codes == MISSING_CODE] = self.include_missing
        return sat


@dataclass(frozen=True)
class SetTest:
    """x is one of values, or none of them when negated; a value is a display text or MISSING."""

    attribute: str
    values: tuple
    negated: bool = False

    @property
    def op(self) -> str:
        if len(self.values) == 1:
            return "!=" if self.negated else "=="
        return "not_in" if self.negated else "in"

    def text(self) -> str:
        a = self.attribute
        if len(self.values) != 1:
            shown = ", ".join(MISSING_DISPLAY if v is MISSING else str(v) for v in self.values)
            return f"{a} is {'not in' if self.negated else 'in'} {{{shown}}}"
        (v,) = self.values
        if v is MISSING:
            return f"{a} is not missing" if self.negated else f"{a} is missing"
        return f"{a} != {v}" if self.negated else f"{a} = {v}"

    def to_dict(self) -> dict:
        plain = [None if v is MISSING else v for v in self.values]
        key, value = ("value", plain[0]) if len(plain) == 1 else ("values", plain)
        return {"attribute": self.attribute, "op": self.op, key: value}

    def matches(self, col: Column, codes: np.ndarray) -> np.ndarray:
        lookup = {text: i + 1 for i, text in enumerate(col.dictionary)}
        lookup[MISSING] = MISSING_CODE
        wanted = np.array([lookup[v] for v in self.values if v in lookup], dtype=np.int32)
        return np.isin(codes, wanted, invert=self.negated)


Predicate = RangeTest | SetTest


@dataclass(frozen=True)
class Rule:
    """A conjunction of predicates characterizing rows of one target class."""

    predicates: tuple[Predicate, ...]
    target_class: int

    def text(self) -> str:
        if not self.predicates:
            return "(always)"
        return " AND ".join(p.text() for p in self.predicates)


def render_rule_text(
    rule: Rule,
    class_names: tuple[str, ...],
    precision: float | None = None,
    size: int | None = None,
    share: float | None = None,
) -> str:
    """One-sentence rendering: IF <conditions> THEN <class> (precision, coverage)."""
    sentence = f"IF {rule.text()} THEN {class_names[rule.target_class]}"
    notes = []
    if precision is not None:
        notes.append(f"precision {precision:.3f}")
    if size is not None:
        notes.append(f"covers {size} rows")
    if share is not None:
        notes.append(f"{100 * share:.1f}% of population")
    if notes:
        sentence += f" ({', '.join(notes)})"
    return sentence


# ---------------------------------------------------------------------------
# JSON round-trip (reports, synthetic-group spec files)
# ---------------------------------------------------------------------------

def _bound_from_dict(raw) -> Bound:
    """A bound written as {"value": number, "text": ...} or as a bare number."""
    value = raw["value"] if isinstance(raw, dict) else raw
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"a range bound's value must be a finite number, got {value!r}")
    return Bound(float(value), str(raw.get("text", value) if isinstance(raw, dict) else value))


def predicate_from_dict(raw: dict) -> Predicate:
    """The test a JSON predicate record describes; ConfigError names a field of the wrong type."""
    attr, op = raw["attribute"], raw["op"]
    include_missing = raw.get("include_missing", False)
    if type(include_missing) is not bool:
        raise ConfigError(f"'include_missing' of {attr!r} must be true or false, "
                          f"got {include_missing!r}")
    if op in ("<=", ">"):
        bound = _bound_from_dict(raw)
        lo, hi = (None, bound) if op == "<=" else (bound, None)
        return RangeTest(attr, lo, hi, include_missing)
    if op == "in" and ("lo" in raw or "hi" in raw):
        lo, hi = (None if raw.get(side) is None else _bound_from_dict(raw[side])
                  for side in ("lo", "hi"))
        return RangeTest(attr, lo, hi, include_missing)
    if op in ("in", "not_in"):
        values = raw["values"]
        if not isinstance(values, list) or not all(v is None or isinstance(v, str) for v in values):
            raise ConfigError(f"'values' of {attr!r} must be a list of strings or nulls, got {values!r}")
        return SetTest(attr, tuple(MISSING if v is None else v for v in values), negated=op == "not_in")
    if op in ("==", "!="):
        v = raw.get("value")
        return SetTest(attr, (MISSING if v is None else str(v),), negated=op == "!=")
    raise ConfigError(f"unknown predicate op {op!r}")


def rule_to_dict(rule: Rule) -> dict:
    return {
        "target_class": rule.target_class,
        "predicates": [p.to_dict() for p in rule.predicates],
        "text": rule.text(),
    }


def rule_from_dict(raw: dict) -> Rule:
    if not isinstance(raw, dict):
        raise ConfigError(f"a rule must be a JSON object, got {raw!r}")
    return Rule(
        tuple(predicate_from_dict(p) for p in raw.get("predicates", [])),
        int(raw.get("target_class", 0)),
    )


# ---------------------------------------------------------------------------
# Evaluation against a dataset
# ---------------------------------------------------------------------------

def apply_rule(rule: Rule, ds: Dataset, rows: np.ndarray | None = None) -> np.ndarray:
    """Row ids (of ds, or of the given subset) satisfying every predicate.

    Predicates are evaluated over original values: numeric bounds against the
    parsed numbers, set membership against the display texts.
    """
    if rows is None:
        rows = np.arange(ds.row_count)
    mask = np.ones(len(rows), dtype=bool)
    for pred in rule.predicates:
        col = ds.column(pred.attribute)
        mask &= pred.matches(col, col.codes[rows])
    return rows[mask]
