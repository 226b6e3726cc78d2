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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dataset import (
    DEFAULT_DATETIME_PATTERNS,
    DEFAULT_MISSING_TOKENS,
    Dataset,
    load_csv,
    load_features_csv,
    profile,
)
from .errors import ConfigError, DataError
from .pipeline import ExtractionResult, PipelineConfig, cluster_record, run_extraction
from .preprocess import PreprocessPlan
from .stability import StabilityReport, stability_report
from .synth import (
    HiddenGroupSpec,
    census_group_specs,
    census_like_features,
    plant_groups,
    titanic_like,
    write_csv,
)
from .tree import TrainParams, to_dot

log = logging.getLogger(__name__)

SCHEMA_VERSION = 2
PROFILE_CATEGORY_CAP = 30


@dataclass(frozen=True)
class StabilityParams:
    n_samples: int = 20
    fraction: float = 0.8
    seed: int = 0


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
    out: str | None = None

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
            cfg["stability"] = {
                "n_samples": self.stability.n_samples,
                "fraction": self.stability.fraction,
                "seed": self.stability.seed,
            }
        return cfg


@dataclass(eq=False)
class RunReport:
    config: RunConfig
    dataset: Dataset
    profile_summary: dict
    result: ExtractionResult | None
    stability: StabilityReport | None
    timings: dict[str, float]

    def to_dict(self) -> dict:
        """Machine-readable report; excludes wall-clock timings so bytes are reproducible."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "profile": self.profile_summary,
            "clusters": [],
            "trees": [],
            "stability": self.stability.to_dict() if self.stability else None,
            "transform_log": self.result.log.to_dict() if self.result else None,
        }
        if self.result is not None:
            out["clusters"] = [cluster_record(c, self.result) for c in self.result.clusters]
            out["trees"] = [t.to_dict() for t in self.result.trees]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

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
            records = [cluster_record(c, self.result) for c in self.result.clusters]
            for i, rec in enumerate(records):
                lines.append(
                    f"{i + 1:>2} {rec['tree_index']:>4} {rec['node_id']:>4} {rec['size']:>7} "
                    f"{rec['gini_impurity']:>7.4f} {rec['precision']:>7.4f} {rec['recall']:>7.4f} "
                    f"{rec['f1']:>7.4f} {rec['f05']:>7.4f} {rec['f_beta']:>7.4f}"
                )
            lines.append("")
            for i, rec in enumerate(records):
                if rec["sentence"] is not None:
                    lines.append(f"cluster {i + 1}: {rec['sentence']}")
            if not self.result.clusters:
                lines.append("no clusters extracted")
        if self.stability is not None:
            lines.append("")
            lines.append(f"stability over {self.stability.n_samples} samples "
                         f"(fraction {self.stability.fraction}, seed {self.stability.seed}):")
            for c in self.stability.clusters:
                lines.append(f"  cluster {c.cluster_index + 1}: mean {c.mean:.4f} "
                             f"min {c.min:.4f} max {c.max:.4f}")
        lines.append("")
        lines.append("timings: " + "  ".join(f"{k} {v:.2f}s" for k, v in self.timings.items()))
        return "\n".join(lines) + "\n"


def _profile_summary(ds: Dataset) -> dict:
    report = profile(ds)
    columns = {}
    for name, cats in report.columns.items():
        ordered = sorted(cats, key=lambda c: (-c.count, c.value))
        columns[name] = {
            "categories": [
                {"value": c.value, "count": c.count, "class_rates": list(c.class_rates)}
                for c in ordered[:PROFILE_CATEGORY_CAP]
            ],
            "n_categories": len(cats),
            "truncated": len(cats) > PROFILE_CATEGORY_CAP,
        }
    return {
        "row_count": report.row_count,
        "class_names": list(report.class_names),
        "class_prevalence": list(report.class_prevalence),
        "columns": columns,
    }


def run(config: RunConfig) -> RunReport:
    """profile -> preprocess -> iterative extraction -> optional stability, with artifacts."""
    timings: dict[str, float] = {}

    t = time.perf_counter()
    ds = _load(config)
    pipeline = replace(config.pipeline, target_class=_resolve_class(ds, config.pipeline.target_class))
    timings["load"] = time.perf_counter() - t

    t = time.perf_counter()
    summary = _profile_summary(ds)
    timings["profile"] = time.perf_counter() - t

    result = None
    if pipeline.n_clusters > 0:
        t = time.perf_counter()
        result = run_extraction(ds, pipeline)
        timings["extract"] = time.perf_counter() - t

    stab = None
    if config.stability is not None and result is not None and result.clusters:
        t = time.perf_counter()
        stab = stability_report(
            ds, result.clusters, pipeline,
            n_samples=config.stability.n_samples,
            fraction=config.stability.fraction,
            seed=config.stability.seed,
        )
        timings["stability"] = time.perf_counter() - t

    report = RunReport(config, ds, summary, result, stab, timings)
    if config.out:
        _write_artifacts(report, Path(config.out))
    return report


def _load(config: RunConfig) -> Dataset:
    """The one place the CLI reads its input table, with the config's loader hints."""
    return load_csv(config.input, label=config.label, kind_hints=config.kind_hints or None,
                    missing_tokens=config.missing_tokens,
                    datetime_patterns=config.datetime_patterns, delimiter=config.delimiter)


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
    for i, cand in enumerate(report.result.clusters):
        rec = cluster_record(cand, report.result)
        body = [rec["sentence"] or "(rule unavailable)"]
        body.append("")
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
    p.add_argument("--beta", type=float, default=0.33, help="F-measure beta (default 0.33)")
    p.add_argument("--depth", type=int, default=5, help="max tree depth (default 5)")
    p.add_argument("--clusters", type=int, default=3, help="clusters to extract (default 3)")
    p.add_argument("--bins", type=int, default=None,
                   help="percentile-bin all numeric columns into this many bins")
    p.add_argument("--reorder-symbolic", choices=("on", "off"), default="on",
                   help="class-frequency reordering of symbolic columns (default on)")
    p.add_argument("--metric", choices=("gini", "entropy"), default="gini")
    p.add_argument("--min-gain", type=float, default=0.0)
    p.add_argument("--min-samples-leaf", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtclust",
        description="Extract large class-pure row groups from labelled CSV tables "
                    "with iteratively retrained shallow decision trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="per-column class-rate profile")
    _add_io_args(p)

    p = sub.add_parser("extract", help="run the full extraction pipeline")
    _add_io_args(p)
    _add_model_args(p)

    p = sub.add_parser("stability", help="extraction plus bagged stability scores")
    _add_io_args(p)
    _add_model_args(p)
    p.add_argument("--samples", type=int, default=20, help="number of bagged samples (default 20)")
    p.add_argument("--fraction", type=float, default=0.8, help="sample fraction (default 0.8)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")

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
    p.add_argument("--p-in", type=float, default=0.95)
    p.add_argument("--p-out", type=float, default=0.05)
    p.add_argument("--label-name", default="label")
    p.add_argument("--missing-token", action="append", default=None)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("export-dot", help="train one tree and write its DOT graph")
    _add_io_args(p)
    _add_model_args(p)
    return parser


def _read_config_file(args) -> dict:
    """The optional JSON pipeline config: plan fields plus loader hints.

    Recognized keys: numeric_bins, per_column, reorder_symbolic,
    high_cardinality_threshold, ordinal_hints (column names to treat as
    symbolic-ordinal), missing_tokens, datetime_patterns (extra strptime
    patterns tried after the built-in ones).
    """
    if not args.config:
        return {}
    try:
        with open(args.config, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {args.config}: {exc}") from exc


def _plan_from_args(args, raw: dict) -> PreprocessPlan:
    try:
        plan = PreprocessPlan.from_dict(raw) if raw else PreprocessPlan()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config {args.config}: {exc}") from exc
    if args.bins is not None:
        plan.numeric_bins = args.bins
    plan.reorder_symbolic = args.reorder_symbolic == "on"
    return plan


def _pipeline_from_args(args, raw: dict) -> PipelineConfig:
    return PipelineConfig(
        target_class=args.target_class,
        beta=args.beta,
        n_clusters=args.clusters,
        params=TrainParams(args.metric, args.depth, args.min_gain, args.min_samples_leaf),
        plan=_plan_from_args(args, raw),
    )


def _resolve_class(ds: Dataset, raw: str | int | None) -> int:
    if raw is None:
        if ds.n_classes == 2:
            return 1
        raise ConfigError(f"--class is required with {ds.n_classes} classes: {list(ds.class_names)}")
    if isinstance(raw, int):
        return ds.class_code(raw)
    if raw in ds.class_names:
        return ds.class_names.index(raw)
    try:
        return ds.class_code(int(raw))
    except ValueError:
        raise ConfigError(f"unknown class {raw!r}; classes: {list(ds.class_names)}") from None


def _missing_tokens(args) -> tuple[str, ...]:
    return tuple(args.missing_token) if args.missing_token else DEFAULT_MISSING_TOKENS


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
        text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        (out / "profile.json").write_text(text, encoding="utf-8")
    return 0


def _run_config_from_args(args, stability: StabilityParams | None = None) -> RunConfig:
    raw = _read_config_file(args)
    missing = tuple(raw["missing_tokens"]) if "missing_tokens" in raw else _missing_tokens(args)
    hints = {name: "symbolic-ordinal" for name in raw.get("ordinal_hints", ())}
    patterns = DEFAULT_DATETIME_PATTERNS + tuple(raw.get("datetime_patterns", ()))
    return RunConfig(
        input=args.input,
        label=args.label,
        missing_tokens=missing,
        delimiter=args.delimiter,
        kind_hints=hints,
        datetime_patterns=patterns,
        pipeline=_pipeline_from_args(args, raw) if args.command != "profile" else PipelineConfig(),
        stability=stability,
        out=args.out,
    )


def cmd_extract(args) -> int:
    report = run(_run_config_from_args(args))
    print(report.to_text(), end="")
    return 0


def cmd_stability(args) -> int:
    stability = StabilityParams(args.samples, args.fraction, args.seed)
    report = run(_run_config_from_args(args, stability))
    print(report.to_text(), end="")
    return 0


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.generate == "liner":
        ds = titanic_like(args.rows or 887, args.seed)
        write_csv(ds, str(out / "data.csv"), label_column="survived")
        print(f"wrote {out / 'data.csv'} ({ds.row_count} rows)")
        return 0

    if args.generate == "census":
        features = census_like_features(args.rows or 32561, args.seed)
    elif args.features:
        features = load_features_csv(
            args.features,
            missing_tokens=tuple(args.missing_token) if args.missing_token else ("",),
        )
    else:
        raise ConfigError("synth needs --generate or --features")

    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                raw = json.load(fh)
            specs = [HiddenGroupSpec.from_dict(g) for g in raw["groups"]]
        except OSError as exc:
            raise ConfigError(f"cannot read spec {args.spec}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed spec {args.spec}: {exc}") from exc
    elif args.default_groups or args.generate == "census":
        specs = census_group_specs(p_in=args.p_in, p_out=args.p_out)
    else:
        raise ConfigError("synth needs --spec or --default-groups")

    labelled, truth = plant_groups(features, specs, args.seed)
    write_csv(labelled, str(out / "data.csv"), label_column=args.label_name)
    truth_doc = {
        "seed": args.seed,
        "groups": [
            {"spec": spec.to_dict(), "rows": [int(r) for r in rows]}
            for spec, rows in zip(specs, truth)
        ],
    }
    (out / "truth.json").write_text(json.dumps(truth_doc, sort_keys=True) + "\n", encoding="utf-8")
    shares = ", ".join(f"{len(rows) / features.row_count:.3f}" for rows in truth)
    print(f"wrote {out / 'data.csv'} ({features.row_count} rows); group shares: {shares}")
    return 0


def cmd_export_dot(args) -> int:
    config = _run_config_from_args(args)
    ds = _load(config)
    pipeline = replace(config.pipeline, n_clusters=1,
                       target_class=_resolve_class(ds, config.pipeline.target_class))
    result = run_extraction(ds, pipeline)
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
    "extract": cmd_extract,
    "stability": cmd_stability,
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
