"""Command-line interface: profile, extract, stability, synth, export-dot.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal error.
Set DTCLUST_LOG=DEBUG|INFO|WARNING to control log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from json.encoder import INFINITY, encode_basestring_ascii
from pathlib import Path

from .dataset import (
    DEFAULT_DATETIME_PATTERNS,
    DEFAULT_MISSING_TOKENS,
    PROFILE_CATEGORY_CAP,
    Dataset,
    load_csv,
    load_features_csv,
    profile,
)
from .errors import ConfigError, DataError
from .pipeline import ExtractionResult, PipelineConfig, cluster_record, run_extraction
from .preprocess import PreprocessPlan
from .stability import StabilityParams, StabilityReport, stability_report
from .synth import (
    HiddenGroupSpec,
    census_group_specs,
    census_like_features,
    plant_groups,
    titanic_like,
    write_csv,
)
from .tree import _METRICS, TrainParams, to_dot

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2


@dataclass
class RunConfig:
    """Everything one end-to-end run needs; validated before any work starts."""

    input: str
    label: str | None = None
    missing_tokens: tuple[str, ...] = DEFAULT_MISSING_TOKENS
    delimiter: str = ","
    kind_hints: dict[str, str] = field(default_factory=dict)
    datetime_patterns: tuple[str, ...] = DEFAULT_DATETIME_PATTERNS
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    stability: StabilityParams | None = None

    def to_dict(self) -> dict:
        cfg = {
            "schema_version": SCHEMA_VERSION,
            "input": self.input,
            "label": self.label,
            "missing_tokens": list(self.missing_tokens),
            "delimiter": self.delimiter,
            "kind_hints": dict(self.kind_hints),
            "datetime_patterns": list(self.datetime_patterns),
            **self.pipeline.to_dict(),
        }
        if self.stability is not None:
            cfg["stability"] = asdict(self.stability)
        return cfg


@dataclass(eq=False)
class RunReport:
    """One run's outcome; clusters holds the cluster_record of each extracted cluster."""

    config: RunConfig
    dataset: Dataset
    profile_summary: dict
    result: ExtractionResult | None
    clusters: list[dict]
    stability: StabilityReport | None
    timings: dict[str, float]

    def to_dict(self) -> dict:
        """Machine-readable report; excludes wall-clock timings so bytes are reproducible."""
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "profile": self.profile_summary,
            "clusters": self.clusters,
            "trees": [t.to_dict() for t in self.result.trees] if self.result else [],
            "stability": self.stability.to_dict() if self.stability else None,
            "transform_log": self.result.log.to_dict() if self.result else None,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict()) + "\n"

    def to_text(self) -> str:
        lines = ["cluster extraction report", "=" * 60]
        ds = self.dataset
        lines.append(f"input: {self.config.input}")
        lines.append(f"rows: {ds.row_count}   feature columns: {len(ds.columns)}   "
                     f"classes: {', '.join(ds.class_names)}")
        prev = ", ".join(f"{n}={p:.3f}" for n, p in
                         zip(ds.class_names, self.profile_summary["class_prevalence"]))
        lines.append(f"class prevalence: {prev}")
        if self.result is not None:
            cfg = self.config.pipeline
            lines.append(f"target class: {ds.class_names[self.result.target_class]}   "
                         f"beta: {cfg.beta}   depth: {cfg.params.max_depth}   "
                         f"metric: {cfg.params.impurity_metric}")
            lines.append("")
            header = (f"{'#':>2} {'tree':>4} {'node':>4} {'size':>7} {'gini':>7} "
                      f"{'prec':>7} {'recall':>7} {'F1':>7} {'F-0.5':>7} {'F-beta':>7}")
            lines.append(header)
            for i, rec in enumerate(self.clusters):
                lines.append(
                    f"{i + 1:>2} {rec['tree_index']:>4} {rec['node_id']:>4} {rec['size']:>7} "
                    f"{rec['gini_impurity']:>7.4f} {rec['precision']:>7.4f} {rec['recall']:>7.4f} "
                    f"{rec['f1']:>7.4f} {rec['f05']:>7.4f} {rec['f_beta']:>7.4f}"
                )
            lines.append("")
            for i, rec in enumerate(self.clusters):
                lines.append(f"cluster {i + 1}: {rec['sentence']}")
            if not self.clusters:
                lines.append("no clusters extracted")
        if self.stability is not None:
            lines.append("")
            params = self.stability.params
            lines.append(f"stability over {params.n_samples} samples "
                         f"(fraction {params.fraction}, seed {params.seed}):")
            for c in self.stability.clusters:
                lines.append(f"  cluster {c.cluster_index + 1}: mean {c.mean:.4f} "
                             f"min {c.min:.4f} max {c.max:.4f}")
        lines.append("")
        lines.append("timings: " + "  ".join(f"{k} {v:.2f}s" for k, v in self.timings.items()))
        return "\n".join(lines) + "\n"


def json_text(obj, newline: str = "\n") -> str:
    """Exactly json.dumps(obj, sort_keys=True, indent=2, allow_nan=False): the
    same bytes, and the same exception type for a value it cannot encode.

    json.dumps runs an indented dump in its pure-Python encoder, one generator
    step per token. Here a list whose items are all str, or all exactly int
    (bool prints otherwise), is joined in one C-level pass; everything else
    recurses, with newline the line break and indent of obj's own level.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(encode_basestring_ascii, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(_key_text(k)) + ": " + json_text(v, inner)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if x != x or x == INFINITY or x == -INFINITY:
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json.dumps turns it into a string before quoting it."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _profile_summary(ds: Dataset) -> dict:
    report = profile(ds)
    columns = {}
    for name, cats in report.columns.items():
        columns[name] = {
            "categories": [
                {"value": c.value, "count": c.count, "class_rates": list(c.class_rates)}
                for c in cats
            ],
            "n_categories": report.n_categories[name],
            "truncated": report.n_categories[name] > PROFILE_CATEGORY_CAP,
        }
    return {
        "row_count": report.row_count,
        "class_names": list(report.class_names),
        "class_prevalence": list(report.class_prevalence),
        "columns": columns,
    }


def run(config: RunConfig) -> RunReport:
    """The one orchestrator of extract, stability and export-dot; it writes nothing.

    load and check the plan -> resolve the class -> profile -> iterative
    extraction when n_clusters > 0 -> stability when configured.
    """
    timings: dict[str, float] = {}

    t = time.perf_counter()
    ds = _load(config)
    pipeline = replace(config.pipeline, target_class=ds.class_code(config.pipeline.target_class))
    timings["load"] = time.perf_counter() - t

    t = time.perf_counter()
    summary = _profile_summary(ds)
    timings["profile"] = time.perf_counter() - t

    result = None
    records: list[dict] = []
    if pipeline.n_clusters > 0:
        t = time.perf_counter()
        result = run_extraction(ds, pipeline)
        records = [cluster_record(c, result) for c in result.clusters]
        timings["extract"] = time.perf_counter() - t

    stab = None
    if config.stability is not None and result is not None and result.clusters:
        t = time.perf_counter()
        stab = stability_report(ds, result.clusters, pipeline, config.stability)
        timings["stability"] = time.perf_counter() - t

    return RunReport(config, ds, summary, result, records, stab, timings)


def _load(config: RunConfig) -> Dataset:
    """The one place the CLI reads its input table, with the config's loader hints.

    The plan is checked against the table right away, so a directive that
    cannot bin its column fails every subcommand before any other work.
    """
    ds = load_csv(config.input, label=config.label, kind_hints=config.kind_hints or None,
                  missing_tokens=config.missing_tokens,
                  datetime_patterns=config.datetime_patterns, delimiter=config.delimiter)
    config.pipeline.plan.check(ds)
    return ds


def _tree_dot(result: ExtractionResult, k: int) -> str:
    """DOT graph of tree k with the clusters taken from it highlighted."""
    chosen = {c.node_id for c in result.clusters if c.tree_index == k}
    return to_dot(result.trees[k], result.prepared, highlight=chosen)


def _write_artifacts(report: RunReport, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    if report.result is None:
        return
    for k in range(len(report.result.trees)):
        (out / f"tree_{k + 1:02d}.dot").write_text(_tree_dot(report.result, k), encoding="utf-8")
    for i, (rec, cand) in enumerate(zip(report.clusters, report.result.clusters)):
        body = [rec["sentence"], ""]
        for key in ("tree_index", "node_id", "size", "tp", "fp", "fn", "precision",
                    "recall", "f1", "f05", "f_beta", "gini_impurity", "population_share"):
            body.append(f"{key}: {rec[key]}")
        (out / f"cluster_{i + 1:02d}.rule.txt").write_text("\n".join(body) + "\n", encoding="utf-8")
        rows = "\n".join(str(r) for r in cand.row_ids)
        (out / f"cluster_{i + 1:02d}.rows.txt").write_text(rows + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--label", default=None, help="label column name (default: last column)")
    p.add_argument("--missing-token", action="append", default=None,
                   help="missing-value token (repeatable; default: '', '?', 'NA')")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--config", default=None,
                   help="JSON config file: preprocessing plan and loader hints")
    p.add_argument("--out", default=None, help="output directory for artifacts")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="target_class", default=None,
                   help="target class name or code (default: code 1 of a binary label)")
    p.add_argument("--beta", type=float, default=PipelineConfig.beta,
                   help="F-measure beta (default %(default)s)")
    p.add_argument("--depth", type=int, default=TrainParams.max_depth,
                   help="max tree depth (default %(default)s)")
    p.add_argument("--bins", type=int, default=None,
                   help="percentile-bin all numeric columns into this many bins")
    p.add_argument("--reorder-symbolic", choices=("on", "off"), default=None,
                   help="class-frequency reordering of symbolic columns (default: config, else on)")
    p.add_argument("--metric", choices=_METRICS, default=TrainParams.impurity_metric)
    p.add_argument("--min-gain", type=float, default=TrainParams.min_gain)
    p.add_argument("--min-samples-leaf", type=int, default=TrainParams.min_samples_leaf)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtclust",
        description="Extract large class-pure row groups from labelled CSV tables "
                    "with iteratively retrained shallow decision trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="per-column class-rate profile")
    _add_io_args(p)

    for name, text in (("extract", "run the full extraction pipeline"),
                       ("stability", "extraction plus bagged stability scores")):
        p = sub.add_parser(name, help=text)
        _add_io_args(p)
        _add_model_args(p)
        p.add_argument("--clusters", type=int, default=PipelineConfig.n_clusters,
                       help="clusters to extract (default %(default)s)")
    # the loop ends on the stability parser, which adds the bagging flags
    p.add_argument("--samples", type=int, default=StabilityParams.n_samples,
                   help="number of bagged samples (default %(default)s)")
    p.add_argument("--fraction", type=float, default=StabilityParams.fraction,
                   help="sample fraction (default %(default)s)")
    p.add_argument("--seed", type=int, default=StabilityParams.seed,
                   help="sampling seed (default %(default)s)")

    p = sub.add_parser("synth", help="generate a labelled dataset with planted groups")
    p.add_argument("--generate", choices=("census", "liner"), default=None,
                   help="built-in feature generator")
    p.add_argument("--features", default=None, help="feature CSV to label (no label column)")
    p.add_argument("--spec", default=None, help="JSON group-spec file")
    p.add_argument("--default-groups", action="store_true",
                   help="plant the four built-in census benchmark groups")
    p.add_argument("--rows", type=int, default=None,
                   help="row count (default: 32561 for census, 887 for liner)")
    p.add_argument("--seed", type=int, default=7)
    # None tells cmd_synth the flag was not given; it fills in the defaults
    p.add_argument("--p-in", type=float, default=None)
    p.add_argument("--p-out", type=float, default=None)
    p.add_argument("--label-name", default=None)
    p.add_argument("--missing-token", action="append", default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("export-dot", help="train one tree and write its DOT graph")
    _add_io_args(p)
    _add_model_args(p)
    p.set_defaults(clusters=1)
    return parser


# Config keys read by the loader: column names to treat as symbolic-ordinal,
# missing tokens, and extra strptime patterns tried after the built-in ones.
_LOADER_KEYS = ("missing_tokens", "datetime_patterns", "ordinal_hints")


def _read_json(path: str, what: str):
    """The parsed JSON of a settings file (what names it in errors); every failure is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    # ValueError: bad JSON, bad UTF-8, or an integer literal too long to convert;
    # RecursionError: arrays or objects nested too deeply to parse
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from exc


def _read_config_file(args) -> tuple[dict, PreprocessPlan]:
    """The optional JSON pipeline config and its plan: PreprocessPlan fields plus _LOADER_KEYS.

    Any other top-level key, or a value of the wrong type, is a ConfigError.
    """
    raw = _read_json(args.config, "config") if args.config else {}
    if not isinstance(raw, dict):
        raise ConfigError(f"malformed config {args.config}: the top level must be a JSON object")
    accepted = [f.name for f in fields(PreprocessPlan)] + list(_LOADER_KEYS)
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise ConfigError(f"malformed config {args.config}: unknown keys {unknown}; "
                          f"accepted keys: {', '.join(accepted)}")
    for key in _LOADER_KEYS:
        value = raw.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"malformed config {args.config}: {key!r} must be a list of strings")
    try:
        return raw, PreprocessPlan.from_dict(raw)
    except TypeError as exc:
        raise ConfigError(f"malformed config {args.config}: {exc}") from exc


def _pipeline_from_args(args, plan: PreprocessPlan) -> PipelineConfig:
    """The model flags over the config's plan; --bins and --reorder-symbolic apply when given."""
    if args.bins is not None:
        plan.numeric_bins = args.bins
    if args.reorder_symbolic is not None:
        plan.reorder_symbolic = args.reorder_symbolic == "on"
    return PipelineConfig(
        target_class=args.target_class,
        beta=args.beta,
        n_clusters=args.clusters,
        params=TrainParams(args.metric, args.depth, args.min_gain, args.min_samples_leaf),
        plan=plan,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_profile(args) -> int:
    summary = _profile_summary(_load(_run_config_from_args(args)))
    print(f"rows: {summary['row_count']}   classes: {', '.join(summary['class_names'])}")
    print("prevalence: " + ", ".join(
        f"{n}={p:.3f}" for n, p in zip(summary["class_names"], summary["class_prevalence"])))
    for name, info in summary["columns"].items():
        print(f"\n{name} ({info['n_categories']} categories"
              + (", truncated)" if info["truncated"] else ")"))
        for cat in info["categories"]:
            rates = ", ".join(f"{r:.3f}" for r in cat["class_rates"])
            print(f"  {cat['value']}: count={cat['count']} rates=[{rates}]")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "profile.json").write_text(json_text(summary) + "\n", encoding="utf-8")
    return 0


def _run_config_from_args(args) -> RunConfig:
    if len(args.delimiter) != 1:
        raise ConfigError(f"--delimiter must be one character, got {args.delimiter!r}")
    raw, plan = _read_config_file(args)
    hints = {name: "symbolic-ordinal" for name in raw.get("ordinal_hints", ())}
    patterns = DEFAULT_DATETIME_PATTERNS + tuple(raw.get("datetime_patterns", ()))
    return RunConfig(
        input=args.input,
        label=args.label,
        missing_tokens=tuple(args.missing_token or raw.get("missing_tokens", DEFAULT_MISSING_TOKENS)),
        delimiter=args.delimiter,
        kind_hints=hints,
        datetime_patterns=patterns,
        pipeline=(_pipeline_from_args(args, plan) if args.command != "profile"
                  else PipelineConfig(plan=plan)),
        stability=(StabilityParams(args.samples, args.fraction, args.seed)
                   if args.command == "stability" else None),
    )


def cmd_run(args) -> int:
    """extract and stability: one run, its artifacts written, its text report printed."""
    report = run(_run_config_from_args(args))
    if args.out:
        _write_artifacts(report, Path(args.out))
    print(report.to_text(), end="")
    return 0


def _check_synth_flags(args) -> None:
    """Refuse each flag that the chosen table source would ignore."""
    if args.rows is not None and args.rows < 1:
        raise ConfigError(f"--rows must be >= 1, got {args.rows}")
    planting = [flag for flag, value in (
        ("--spec", args.spec), ("--default-groups", args.default_groups or None),
        ("--features", args.features), ("--p-in", args.p_in), ("--p-out", args.p_out),
        ("--label-name", args.label_name)) if value is not None]
    if args.generate == "liner" and planting:
        raise ConfigError(f"{planting[0]} does not apply to --generate liner, which plants no groups")
    if args.features and (args.generate or args.rows is not None):
        flag = "--generate" if args.generate else "--rows"
        raise ConfigError(f"--features does not go with {flag}: the feature file is the table")
    if args.missing_token and not args.features:
        raise ConfigError("--missing-token applies only to a --features file")
    built_in = [flag for flag in planting if flag in ("--default-groups", "--p-in", "--p-out")]
    if args.spec and built_in:
        raise ConfigError(f"{built_in[0]} does not go with --spec: "
                          "the spec file gives the groups and their rates")


def cmd_synth(args) -> int:
    """Check the flags and group specs, then build and write the labelled table; --out is made last."""
    _check_synth_flags(args)
    out = Path(args.out)
    size = {} if args.rows is None else {"n_rows": args.rows}

    if args.generate == "liner":
        ds = titanic_like(seed=args.seed, **size)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(ds, str(out / "data.csv"), label_column="survived")
        print(f"wrote {out / 'data.csv'} ({ds.row_count} rows)")
        return 0

    if args.generate != "census" and not args.features:
        raise ConfigError("synth needs --generate or --features")
    if args.spec:
        raw = _read_json(args.spec, "spec")
        try:
            specs = [HiddenGroupSpec.from_dict(g) for g in raw["groups"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed spec {args.spec}: {exc}") from exc
    elif args.default_groups or args.generate == "census":
        specs = census_group_specs(
            p_in=HiddenGroupSpec.p_in if args.p_in is None else args.p_in,
            p_out=HiddenGroupSpec.p_out if args.p_out is None else args.p_out,
        )
    else:
        raise ConfigError("synth needs --spec or --default-groups")

    if args.generate == "census":
        features = census_like_features(seed=args.seed, **size)
    else:
        features = load_features_csv(
            args.features,
            missing_tokens=tuple(args.missing_token) if args.missing_token else ("",),
        )
    labelled, truth = plant_groups(features, specs, args.seed)
    truth_doc = {
        "seed": args.seed,
        "groups": [
            {"spec": spec.to_dict(), "rows": [int(r) for r in rows]}
            for spec, rows in zip(specs, truth)
        ],
    }
    truth_text = json.dumps(truth_doc, sort_keys=True, allow_nan=False) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    label_name = "label" if args.label_name is None else args.label_name
    write_csv(labelled, str(out / "data.csv"), label_column=label_name)
    (out / "truth.json").write_text(truth_text, encoding="utf-8")
    shares = ", ".join(f"{len(rows) / features.row_count:.3f}" for rows in truth)
    print(f"wrote {out / 'data.csv'} ({features.row_count} rows); group shares: {shares}")
    return 0


def cmd_export_dot(args) -> int:
    result = run(_run_config_from_args(args)).result
    if not result.trees:
        raise DataError("no tree was trained (no target-class rows?)")
    dot = _tree_dot(result, 0)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tree.dot").write_text(dot, encoding="utf-8")
        print(f"wrote {out / 'tree.dot'}")
    else:
        print(dot, end="")
    return 0


_COMMANDS = {
    "profile": cmd_profile,
    "extract": cmd_run,
    "stability": cmd_run,
    "synth": cmd_synth,
    "export-dot": cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DTCLUST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
