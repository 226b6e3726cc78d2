"""Command-line interface: profile, extract, stability, synth, export-dot.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal error.
Set DTCLUST_LOG to a logging level name (DEBUG, INFO, WARNING, ERROR, CRITICAL;
any case) to control log verbosity; any other value is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from json.encoder import INFINITY, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator

from .dataset import (
    PROFILE_CATEGORY_CAP,
    Dataset,
    LoadSettings,
    load_csv,
    load_features_csv,
    profile,
)
from .errors import ConfigError, DataError
from .pipeline import ExtractionResult, PipelineConfig, cluster_record, run_extraction
from .preprocess import PreprocessPlan
from .stability import StabilityParams, StabilityReport, stability_report
from .synth import (
    CENSUS_COLUMNS,
    WRITTEN_MISSING_TOKENS,
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
    load: LoadSettings = field(default_factory=LoadSettings)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    stability: StabilityParams | None = None

    def to_dict(self) -> dict:
        cfg = {
            "schema_version": SCHEMA_VERSION,
            "input": self.input,
            "label": self.label,
            "missing_tokens": list(self.load.missing_tokens),
            "delimiter": self.load.delimiter,
            "kind_hints": dict(self.load.kind_hints),
            "datetime_patterns": list(self.load.datetime_patterns),
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


def json_chunks(obj, newline: str = "\n") -> Iterator[str]:
    """The text of json.dumps(obj, sort_keys=True, indent=2, allow_nan=False),
    in chunks: joined, the same bytes, and the same exception type for a value
    it cannot encode, raised once the chunks before it are out.

    json.dumps runs an indented dump in its pure-Python encoder, one generator
    step per token. Here a list whose items are all str, or all exactly int
    (bool prints otherwise), is one chunk joined in one C-level pass; a dict or
    any other list yields its parts, with newline the line break and indent of
    obj's own level. The largest chunk is the largest such flat list, so no
    text of the whole document is built.
    """
    if not isinstance(obj, (list, tuple, dict)):
        yield _scalar_text(obj)
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    elif isinstance(obj, dict):
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            yield sep + encode_basestring_ascii(_key_text(k)) + ": "
            yield from json_chunks(v, inner)
            sep = "," + inner
        yield newline + "}"
    else:
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {str} or kinds == {int}:
            text = encode_basestring_ascii if str in kinds else int.__repr__
            yield "[" + inner + ("," + inner).join(map(text, obj)) + newline + "]"
            return
        sep = "[" + inner
        for v in obj:
            yield sep
            yield from json_chunks(v, inner)
            sep = "," + inner
        yield newline + "]"


def _scalar_text(obj) -> str:
    """A value that is not a list, tuple or dict, as json.dumps prints it."""
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
    """The one place the CLI reads its input table, with the config's loader settings.

    The plan is checked against the table right away, so a directive that
    cannot bin its column fails every subcommand before any other work.
    """
    ds = load_csv(config.input, label=config.label, settings=config.load)
    config.pipeline.plan.check(ds)
    return ds


def _tree_dot(result: ExtractionResult, k: int) -> str:
    """DOT graph of tree k with the clusters taken from it highlighted."""
    chosen = {c.node_id for c in result.clusters if c.tree_index == k}
    return to_dot(result.trees[k], result.prepared, highlight=chosen)


def _out_dir(value: str) -> Path:
    """--out as a Path, refused before any work if it cannot be a directory:
    it names an existing non-directory, or lies under one. Nothing is created
    here; _write_out makes the directory."""
    out = Path(value)
    try:
        blocker = next((p for p in (out, *out.parents) if p.exists()), None)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc
    if blocker is not None and not blocker.is_dir():
        raise ConfigError(f"cannot write --out {out}: {blocker} is not a directory")
    return out


def _write_out(out: Path, write: Callable[[], object]) -> None:
    """Make the --out directory, then run write(); any OSError is a ConfigError naming --out."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        write()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {out}: {exc}") from exc


def _write_json(path: Path, obj) -> None:
    """Write json_chunks(obj) and a newline to path as the chunks come, so
    no text of the whole document is held; the file is opened as write_text
    opens it. The chunks go to path.partial, which replaces path only after
    the last one; on any error it is removed and path is left as it was."""
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.writelines(json_chunks(obj))
            fh.write("\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# The per-tree and per-cluster files of a run. One of these in --out that the
# run did not write is left from an earlier run, and the run removes it.
_NUMBERED_ARTIFACT = re.compile(r"tree_\d{2,}\.dot|cluster_\d{2,}\.(rule|rows)\.txt")


def _write_artifacts(report: RunReport, out: Path) -> None:
    """Every artifact of one run into out: report.json streamed by _write_json,
    then report.txt, and with an extraction each tree's DOT graph and each
    cluster's rule and sorted row list. Once all are written, the tree and
    cluster files an earlier run left in out are removed; other files stay."""
    _write_json(out / "report.json", report.to_dict())
    written = set()

    def write(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")
        written.add(name)

    write("report.txt", report.to_text())
    if report.result is not None:
        for k in range(len(report.result.trees)):
            write(f"tree_{k + 1:02d}.dot", _tree_dot(report.result, k))
        for i, (rec, cand) in enumerate(zip(report.clusters, report.result.clusters)):
            body = [rec["sentence"], ""]
            for key in ("tree_index", "node_id", "size", "tp", "fp", "fn", "precision",
                        "recall", "f1", "f05", "f_beta", "gini_impurity", "population_share"):
                body.append(f"{key}: {rec[key]}")
            write(f"cluster_{i + 1:02d}.rule.txt", "\n".join(body) + "\n")
            # a cluster from an internal node holds its rows in the tree's partition order
            write(f"cluster_{i + 1:02d}.rows.txt",
                  "\n".join(map(str, sorted(cand.row_ids.tolist()))) + "\n")
    for path in out.iterdir():
        if path.name not in written and _NUMBERED_ARTIFACT.fullmatch(path.name) and path.is_file():
            path.unlink()


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--label", default=None, help="label column name (default: last column)")
    p.add_argument("--missing-token", action="append", default=None,
                   help="missing-value token (repeatable; default: "
                        f"{', '.join(map(repr, LoadSettings.missing_tokens))})")
    p.add_argument("--delimiter", default=LoadSettings.delimiter)
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
    # LoadSettings checks the other loader keys; ordinal_hints becomes its kind_hints
    hints = raw.get("ordinal_hints", [])
    if not isinstance(hints, list) or not all(isinstance(v, str) for v in hints):
        raise ConfigError(f"malformed config {args.config}: 'ordinal_hints' must be a list of strings")
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
    out = _out_dir(args.out) if args.out else None
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
    if out:
        _write_out(out, lambda: _write_json(out / "profile.json", summary))
    return 0


def _load_settings(args, raw: dict) -> LoadSettings:
    """The loader flags over the config file's loader keys. LoadSettings checks
    the file's values, and its error names the file; the file's datetime
    patterns are tried after the built-in ones."""
    try:
        from_file = LoadSettings(missing_tokens=raw.get("missing_tokens", LoadSettings.missing_tokens),
                                 datetime_patterns=raw.get("datetime_patterns", ()))
    except ConfigError as exc:
        raise ConfigError(f"malformed config {args.config}: {exc}") from exc
    return replace(
        from_file,
        missing_tokens=args.missing_token or from_file.missing_tokens,
        delimiter=args.delimiter,
        kind_hints={name: "symbolic-ordinal" for name in raw.get("ordinal_hints", ())},
        datetime_patterns=LoadSettings.datetime_patterns + from_file.datetime_patterns,
    )


def _run_config_from_args(args) -> RunConfig:
    raw, plan = _read_config_file(args)
    return RunConfig(
        input=args.input,
        label=args.label,
        load=_load_settings(args, raw),
        pipeline=(_pipeline_from_args(args, plan) if args.command != "profile"
                  else PipelineConfig(plan=plan)),
        stability=(StabilityParams(args.samples, args.fraction, args.seed)
                   if args.command == "stability" else None),
    )


def cmd_run(args) -> int:
    """extract and stability: one run, its artifacts written, its text report printed."""
    out = _out_dir(args.out) if args.out else None
    report = run(_run_config_from_args(args))
    if out:
        _write_out(out, lambda: _write_artifacts(report, out))
    print(report.to_text(), end="")
    return 0


def _check_synth_flags(args) -> None:
    """Refuse each flag that the chosen table source would ignore."""
    if args.rows is not None and args.rows < 1:
        raise ConfigError(f"--rows must be >= 1, got {args.rows}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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


def _check_label_name(label_name: str, feature_names) -> None:
    if label_name in feature_names:
        raise ConfigError(f"label name {label_name!r} is already a feature column; "
                          "pick another with --label-name")


def cmd_synth(args) -> int:
    """Check the flags and group specs, then build and write the labelled table; --out is made last."""
    _check_synth_flags(args)
    out = _out_dir(args.out)
    size = {} if args.rows is None else {"n_rows": args.rows}

    if args.generate == "liner":
        ds = titanic_like(seed=args.seed, **size)
        _write_out(out, lambda: write_csv(ds, str(out / "data.csv"), label_column="survived"))
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

    label_name = "label" if args.label_name is None else args.label_name
    if args.generate == "census":
        _check_label_name(label_name, CENSUS_COLUMNS)
        features = census_like_features(seed=args.seed, **size)
    else:
        features = load_features_csv(
            args.features, LoadSettings(missing_tokens=args.missing_token or WRITTEN_MISSING_TOKENS))
        _check_label_name(label_name, features.column_names)
    labelled, truth = plant_groups(features, specs, args.seed)
    truth_doc = {
        "seed": args.seed,
        "groups": [
            {"spec": spec.to_dict(), "rows": [int(r) for r in rows]}
            for spec, rows in zip(specs, truth)
        ],
    }
    truth_text = json.dumps(truth_doc, sort_keys=True, allow_nan=False) + "\n"

    def write() -> None:
        write_csv(labelled, str(out / "data.csv"), label_column=label_name)
        (out / "truth.json").write_text(truth_text, encoding="utf-8")

    _write_out(out, write)
    shares = ", ".join(f"{len(rows) / features.row_count:.3f}" for rows in truth)
    print(f"wrote {out / 'data.csv'} ({features.row_count} rows); group shares: {shares}")
    return 0


def cmd_export_dot(args) -> int:
    out = _out_dir(args.out) if args.out else None
    result = run(_run_config_from_args(args)).result
    if not result.trees:
        raise DataError("no tree was trained (no target-class rows?)")
    dot = _tree_dot(result, 0)
    if out:
        _write_out(out, lambda: (out / "tree.dot").write_text(dot, encoding="utf-8"))
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


def _configure_logging() -> None:
    """Log at the DTCLUST_LOG level (default WARNING); a name logging does not know is a ConfigError."""
    name = os.environ.get("DTCLUST_LOG", "WARNING")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigError(f"DTCLUST_LOG={name!r} is not a log level; "
                          "use DEBUG, INFO, WARNING, ERROR or CRITICAL")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
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
