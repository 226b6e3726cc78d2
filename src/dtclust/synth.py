"""Synthetic validation: plant hidden class-dense groups, then score their recovery.

Planting perturbs labels only: rows matching a group rule turn positive with
probability p_in, everything else with the (much lower) background rate p_out.
The feature table itself is never altered, so ground-truth membership stays a
pure function of the rules. Generators for census-style and liner-passenger
feature tables make the whole exercise self-contained.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import (
    Column,
    ColumnKind,
    Dataset,
    encode_column,
    format_value,
)
from .errors import ConfigError
from .rules import Bound, RangeTest, Rule, SetTest, apply_rule, rule_from_dict, rule_to_dict

log = logging.getLogger(__name__)

# write_csv writes a missing cell as "", so the tables synth builds and reads
# take "" as their one missing token
WRITTEN_MISSING_TOKENS = ("",)


@dataclass(frozen=True)
class HiddenGroupSpec:
    """A planted group: its defining rule, expected population share, label noise."""

    rule: Rule
    share: float | None = None
    p_in: float = 0.95
    p_out: float = 0.05

    def __post_init__(self) -> None:
        if not 0 <= self.p_out < self.p_in <= 1:
            raise ConfigError(f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}")
        if self.share is not None and not 0 <= self.share <= 1:
            raise ConfigError(f"a group's share must be null or in [0, 1], got {self.share}")

    def to_dict(self) -> dict:
        return {"rule": rule_to_dict(self.rule), "share": self.share,
                "p_in": self.p_in, "p_out": self.p_out}

    @classmethod
    def from_dict(cls, raw: dict) -> "HiddenGroupSpec":
        """A group record of a spec file; share, p_in and p_out must be JSON numbers."""
        rule = rule_from_dict(raw["rule"])
        share, p_in, p_out = raw.get("share"), raw.get("p_in", cls.p_in), raw.get("p_out", cls.p_out)
        for key, value in (("share", share), ("p_in", p_in), ("p_out", p_out)):
            if type(value) not in (int, float) and not (key == "share" and value is None):
                raise ConfigError(f"a group's {key} must be a number, got {value!r}")
        return cls(rule, share, float(p_in), float(p_out))


def plant_groups(
    features: Dataset, specs: Sequence[HiddenGroupSpec], seed: int
) -> tuple[Dataset, list[np.ndarray]]:
    """Label a feature table so the given rules become class-dense groups.

    Rows matching several rules are claimed by the first match. Returns the
    labelled dataset (classes "no"/"yes") and, per spec, the full set of rows
    matching its rule.
    """
    if not specs:
        raise ConfigError("plant_groups needs at least one group spec")
    p_outs = {spec.p_out for spec in specs}
    if len(p_outs) > 1:
        raise ConfigError("all group specs must share one background rate p_out")

    n = features.row_count
    truth = [apply_rule(spec.rule, features) for spec in specs]
    for i, (spec, rows) in enumerate(zip(specs, truth)):
        if len(rows) == 0:
            log.warning("group %d matches no row: %s", i, spec.rule.text())

    p = np.full(n, specs[0].p_out)
    claimed = np.zeros(n, dtype=bool)
    multiplicity = 0
    for spec, rows in zip(specs, truth):
        multiplicity += len(rows)
        fresh = rows[~claimed[rows]]
        p[fresh] = spec.p_in
        claimed[rows] = True
    union = int(claimed.sum())
    if multiplicity > union:
        log.warning("group rules overlap on %d rows (%.1f%% of matched rows)",
                    multiplicity - union, 100 * (multiplicity - union) / multiplicity)

    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < p).astype(np.int32)
    labelled = Dataset(features.columns, labels, ("no", "yes"))
    return labelled, truth


@dataclass(frozen=True)
class MatchScore:
    cluster_index: int
    group_index: int
    jaccard: float
    precision: float
    recall: float


@dataclass(frozen=True)
class RecoveryReport:
    """Pairwise membership agreement between extracted clusters and planted groups."""

    scores: tuple[MatchScore, ...]
    assignment: tuple[tuple[int, int], ...]  # (cluster_index, group_index), best Jaccard first

    def score(self, cluster_index: int, group_index: int) -> MatchScore:
        for s in self.scores:
            if s.cluster_index == cluster_index and s.group_index == group_index:
                return s
        raise KeyError((cluster_index, group_index))


def evaluate_recovery(clusters: Sequence, truth: Sequence[np.ndarray]) -> RecoveryReport:
    """Jaccard/precision/recall of every cluster against every planted group.

    clusters may be ClusterCandidates or plain row-id arrays. The assignment
    greedily pairs the highest-Jaccard (cluster, group) combinations, so it is
    invariant to the order clusters arrive in.
    """
    cluster_rows = [np.asarray(getattr(c, "row_ids", c)) for c in clusters]
    scores = []
    for i, c_rows in enumerate(cluster_rows):
        for j, g_rows in enumerate(truth):
            inter = np.intersect1d(c_rows, g_rows).size
            union = np.union1d(c_rows, g_rows).size
            scores.append(MatchScore(
                i, j,
                jaccard=inter / union if union else 1.0,
                precision=inter / len(c_rows) if len(c_rows) else 0.0,
                recall=inter / len(g_rows) if len(g_rows) else 0.0,
            ))
    assignment = []
    used_c: set[int] = set()
    used_g: set[int] = set()
    for s in sorted(scores, key=lambda s: (-s.jaccard, s.cluster_index, s.group_index)):
        if s.cluster_index not in used_c and s.group_index not in used_g:
            assignment.append((s.cluster_index, s.group_index))
            used_c.add(s.cluster_index)
            used_g.add(s.group_index)
    return RecoveryReport(tuple(scores), tuple(assignment))


# ---------------------------------------------------------------------------
# Feature generators
# ---------------------------------------------------------------------------

_WORKCLASS = {
    "Private": 0.70, "Self-emp-not-inc": 0.08, "Local-gov": 0.065, "?": 0.055,
    "State-gov": 0.04, "Self-emp-inc": 0.035, "Federal-gov": 0.03,
    "Without-pay": 0.003, "Never-worked": 0.002,
}

# (name, schooling-years code, weight); weights roughly follow census shares
_EDUCATION = [
    ("Preschool", 1, 0.005), ("1st-4th", 2, 0.005), ("5th-6th", 3, 0.010),
    ("7th-8th", 4, 0.019), ("9th", 5, 0.015), ("10th", 6, 0.027),
    ("11th", 7, 0.035), ("12th", 8, 0.013), ("HS-grad", 9, 0.320),
    ("Some-college", 10, 0.220), ("Assoc-voc", 11, 0.040), ("Assoc-acdm", 12, 0.032),
    ("Bachelors", 13, 0.166), ("Masters", 14, 0.054), ("Prof-school", 15, 0.017),
    ("Doctorate", 16, 0.012),
]

_MARITAL = {
    "Married-civ-spouse": 0.44, "Never-married": 0.30, "Divorced": 0.17,
    "Widowed": 0.04, "Married-spouse-absent": 0.02, "Separated": 0.025,
    "Married-AF-spouse": 0.005,
}

_OCCUPATION = {
    "Exec-managerial": 0.138, "Prof-specialty": 0.13, "Craft-repair": 0.13,
    "Adm-clerical": 0.12, "Sales": 0.11, "Other-service": 0.10,
    "Machine-op-inspct": 0.06, "?": 0.056, "Transport-moving": 0.05,
    "Handlers-cleaners": 0.04, "Farming-fishing": 0.03, "Tech-support": 0.03,
    "Protective-serv": 0.02, "Priv-house-serv": 0.004, "Armed-Forces": 0.001,
}

_RELATIONSHIP = {
    "Husband": 0.36, "Not-in-family": 0.32, "Own-child": 0.14,
    "Unmarried": 0.10, "Wife": 0.05, "Other-relative": 0.03,
}

_RACE = {
    "White": 0.70, "Black": 0.20, "Asian-Pac-Islander": 0.05,
    "Amer-Indian-Eskimo": 0.02, "Other": 0.03,
}

GROUP1_COUNTRIES = (
    "Ecuador", "El-Salvador", "Haiti", "Cuba", "France", "Yugoslavia", "Germany",
    "?", "Poland", "Hungary", "Laos", "Mexico", "Japan", "Hong", "Vietnam",
    "Peru", "England", "United-States",
)

# weights inside the hidden group-1 country set; deliberately not dominated by
# one country so a single equality split cannot imitate the whole set
_COUNTRY_IN = {
    "United-States": 0.235, "Mexico": 0.030, "Germany": 0.020, "England": 0.015,
    "Japan": 0.012, "Poland": 0.010, "Cuba": 0.008, "?": 0.008, "Vietnam": 0.006,
    "Peru": 0.005, "Hungary": 0.004, "Ecuador": 0.004, "El-Salvador": 0.004,
    "Haiti": 0.003, "France": 0.003, "Yugoslavia": 0.002, "Laos": 0.002,
    "Hong": 0.001,
}

_COUNTRY_OUT_RAW = {
    "Canada": 0.055, "Philippines": 0.050, "India": 0.045, "China": 0.040,
    "Italy": 0.040, "Puerto-Rico": 0.035, "South": 0.033, "Taiwan": 0.030,
    "Iran": 0.028, "Portugal": 0.027, "Nicaragua": 0.026, "Greece": 0.026,
    "Columbia": 0.025, "Cambodia": 0.024, "Thailand": 0.024, "Ireland": 0.023,
    "Jamaica": 0.023, "Honduras": 0.022, "Guatemala": 0.021, "Scotland": 0.020,
    "Trinadad&Tobago": 0.018, "Dominican-Republic": 0.017,
    "Outlying-US(Guam-USVI-etc)": 0.017, "Holand-Netherlands": 0.016,
}

_FNLWGT_THRESHOLD = 285194.62
_FNLWGT_SPAN = 500000.0

# fraction of a country's rows below the fnlwgt threshold; unlisted countries
# use the base rate. The graded tail blends the weakest group-1 countries into
# the background so the class-frequency order has no clean cut.
_FNLWGT_BELOW_P = {
    "Mexico": 0.38, "Germany": 0.34, "England": 0.30, "Vietnam": 0.28,
    "Peru": 0.26, "Hungary": 0.25, "Ecuador": 0.24, "El-Salvador": 0.23,
    "Haiti": 0.22, "France": 0.21, "Yugoslavia": 0.20, "Laos": 0.19,
    "Hong": 0.18,
}
_FNLWGT_BELOW_BASE = (_FNLWGT_THRESHOLD - 20000.0) / _FNLWGT_SPAN

_INCOME = {"<=50K": 0.82, ">50K": 0.18}

_SEX = {"Male": 0.66, "Female": 0.34}


def _categorical(rng, table: dict[str, float], n: int) -> list[str]:
    names = list(table)
    weights = np.array([table[k] for k in names], dtype=np.float64)
    weights /= weights.sum()
    return [names[i] for i in rng.choice(len(names), size=n, p=weights)]


def _column_from_texts(name: str, cells: list[str], kind: ColumnKind) -> Column:
    # generated values never collide with missing tokens on purpose
    return encode_column(name, cells, kind, missing_tokens=WRITTEN_MISSING_TOKENS)


# the census-style feature columns, in table order
CENSUS_COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status", "occupation",
    "relationship", "race", "sex", "capital-gain", "capital-loss", "hours-per-week",
    "native-country", "income",
)


def census_like_features(n_rows: int = 32561, seed: int = 7) -> Dataset:
    """A census-style feature table (CENSUS_COLUMNS, no labels) for planting groups.

    Columns are drawn independently, so the population share of any conjunction
    is the product of its marginal probabilities. capital-gain and capital-loss
    straddle zero so that negative thresholds select meaningful fractions.
    """
    rng = np.random.default_rng(seed)
    n = n_rows

    country_table = dict(_COUNTRY_IN)
    out_total = 1.0 - sum(_COUNTRY_IN.values())
    raw_sum = sum(_COUNTRY_OUT_RAW.values())
    country_table.update({k: v * out_total / raw_sum for k, v in _COUNTRY_OUT_RAW.items()})
    country = np.array(_categorical(rng, country_table, n))

    age = np.clip(np.round(rng.normal(38, 13, n)), 17, 90).astype(int)

    below_p = np.full(n, _FNLWGT_BELOW_BASE)
    for name, p in _FNLWGT_BELOW_P.items():
        below_p[country == name] = p
    fnlwgt_lo = _FNLWGT_THRESHOLD - _FNLWGT_SPAN * below_p
    fnlwgt = np.round(fnlwgt_lo + rng.uniform(0, _FNLWGT_SPAN, n), 2)

    edu_idx = rng.choice(
        len(_EDUCATION), size=n,
        p=np.array([w for _, _, w in _EDUCATION]) / sum(w for _, _, w in _EDUCATION),
    )
    capital_gain = np.round(rng.normal(0, 1000, n), 2)
    capital_loss = np.round(rng.normal(100, 400, n), 2)
    hour_branch = rng.choice(3, size=n, p=[0.51, 0.25, 0.24])
    hours = np.where(
        hour_branch == 0, 40,
        np.where(
            hour_branch == 1,
            np.clip(np.round(rng.normal(46, 9, n)), 41, 99),
            np.clip(np.round(rng.normal(26, 7, n)), 1, 39),
        ),
    ).astype(int)

    occupation = _categorical(rng, _OCCUPATION, n)
    income = _categorical(rng, _INCOME, n)

    def kinds_and_texts():
        """Each column's kind and texts in table order, drawn as the column is encoded."""
        yield ColumnKind.NUMERIC, [str(int(v)) for v in age]
        yield ColumnKind.SYMBOLIC_NOMINAL, _categorical(rng, _WORKCLASS, n)
        yield ColumnKind.NUMERIC, [repr(float(v)) for v in fnlwgt]
        yield ColumnKind.SYMBOLIC_NOMINAL, [_EDUCATION[i][0] for i in edu_idx]
        yield ColumnKind.NUMERIC, [str(_EDUCATION[i][1]) for i in edu_idx]
        yield ColumnKind.SYMBOLIC_NOMINAL, _categorical(rng, _MARITAL, n)
        yield ColumnKind.SYMBOLIC_NOMINAL, occupation
        yield ColumnKind.SYMBOLIC_NOMINAL, _categorical(rng, _RELATIONSHIP, n)
        yield ColumnKind.SYMBOLIC_NOMINAL, _categorical(rng, _RACE, n)
        yield ColumnKind.SYMBOLIC_NOMINAL, _categorical(rng, _SEX, n)
        yield ColumnKind.NUMERIC, [repr(float(v)) for v in capital_gain]
        yield ColumnKind.NUMERIC, [repr(float(v)) for v in capital_loss]
        yield ColumnKind.NUMERIC, [str(int(v)) for v in hours]
        yield ColumnKind.SYMBOLIC_NOMINAL, list(country)
        yield ColumnKind.SYMBOLIC_NOMINAL, income

    return Dataset(tuple(_column_from_texts(name, texts, kind)
                         for name, (kind, texts) in zip(CENSUS_COLUMNS, kinds_and_texts(), strict=True)),
                   None, ())


def census_group_specs(p_in: float = HiddenGroupSpec.p_in,
                       p_out: float = HiddenGroupSpec.p_out) -> list[HiddenGroupSpec]:
    """The four benchmark hidden groups over the census-style features."""
    def le(attr, value):
        return RangeTest(attr, None, Bound(value, format_value(value, ColumnKind.NUMERIC)))

    rules = [
        (Rule((
            le("fnlwgt", 285194.62),
            SetTest("native-country", GROUP1_COUNTRIES),
        ), 1), 0.178),
        (Rule((
            SetTest("occupation", ("Exec-managerial",)),
            le("capital-gain", -75.82),
            SetTest("race", ("Amer-Indian-Eskimo", "Asian-Pac-Islander", "White")),
        ), 1), 0.05),
        (Rule((
            le("capital-loss", 115.42),
            le("education-num", 9.1),
            SetTest("income", (">50K",)),
        ), 1), 0.042),
        (Rule((
            le("hours-per-week", 35.12),
            SetTest("marital-status", ("Widowed", "Married-spouse-absent", "Divorced")),
            SetTest("relationship", ("Not-in-family",)),
        ), 1), 0.016),
    ]
    return [HiddenGroupSpec(rule, share, p_in, p_out) for rule, share in rules]


# survival probability per (sex, passenger class), tuned to the class and sex
# survival rates quoted for the 887-passenger liner table
_LINER_SURVIVAL = {
    ("female", "1st"): 0.96, ("female", "2nd"): 0.91, ("female", "3rd"): 0.50,
    ("male", "1st"): 0.33, ("male", "2nd"): 0.125, ("male", "3rd"): 0.14,
}
_LINER_CLASS_P = {"1st": 0.2435, "2nd": 0.2074, "3rd": 0.5491}
_LINER_FEMALE_P = {"1st": 0.435, "2nd": 0.413, "3rd": 0.30}
_LINER_FARE = {"1st": (85.0, 40.0), "2nd": (21.0, 8.0), "3rd": (13.0, 6.0)}


def titanic_like(n_rows: int = 887, seed: int = 11) -> Dataset:
    """A small labelled passenger table with the classic class/sex survival structure."""
    rng = np.random.default_rng(seed)
    n = n_rows
    pclass = _categorical(rng, _LINER_CLASS_P, n)
    sex = ["female" if rng.random() < _LINER_FEMALE_P[c] else "male" for c in pclass]
    survived = [
        "survived" if rng.random() < _LINER_SURVIVAL[(s, c)] else "died"
        for s, c in zip(sex, pclass)
    ]
    age = np.clip(np.round(rng.normal(30, 13, n), 1), 0.5, 80.0)
    fare = [
        round(max(rng.normal(*_LINER_FARE[c]), 3.0), 2)
        for c in pclass
    ]
    siblings = np.minimum(rng.poisson(0.5, n), 8)
    parents = np.minimum(rng.poisson(0.4, n), 6)

    columns = (
        _column_from_texts("passenger-class", pclass, ColumnKind.SYMBOLIC_NOMINAL),
        _column_from_texts("sex", sex, ColumnKind.SYMBOLIC_NOMINAL),
        _column_from_texts("age", [repr(float(v)) for v in age], ColumnKind.NUMERIC),
        _column_from_texts("siblings-aboard", [str(int(v)) for v in siblings], ColumnKind.NUMERIC),
        _column_from_texts("parents-aboard", [str(int(v)) for v in parents], ColumnKind.NUMERIC),
        _column_from_texts("fare", [repr(float(v)) for v in fare], ColumnKind.NUMERIC),
    )
    label_code = {"died": 0, "survived": 1}
    labels = np.array([label_code[s] for s in survived], dtype=np.int32)
    return Dataset(columns, labels, ("died", "survived"))


def write_csv(ds: Dataset, path: str, label_column: str = "label") -> None:
    """Dump a dataset back to CSV with original display values; a missing cell is written as "".

    Each column's texts come from one gather of its codes through the missing
    text and its dictionary (code 0 is missing), the label's through the class names.
    """
    header = list(ds.column_names)
    columns = [(WRITTEN_MISSING_TOKENS + col.dictionary, col.codes) for col in ds.columns]
    if ds.labels is not None:
        header.append(label_column)
        columns.append((ds.class_names, ds.labels))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(np.array(texts, dtype=object)[codes].tolist() for texts, codes in columns)))
