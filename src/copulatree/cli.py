"""Command-line surface: fit / predict / simulate / flu.

CSV in, JSON/TSV out, everything deterministic given (inputs, flags,
seed).  Exit codes: 0 ok, 2 schema error, 3 fit failure, 4 configuration
error.  Failures print a single machine-parsable line to stderr:
``error: <code>: <message>``.  A run whose pseudo-observation estimator
fell back prints one ``warning: pseudo: <method>: <notes>`` line to stderr
and lists the notes in ``cv_report.json``.

Flags may be seeded from a key=value config file via --config; explicit
flags win.
"""

from __future__ import annotations

import argparse
import csv
import locale  # noqa: F401  argparse's gettext imports it for the first parser; do it at start-up
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .copulas import spec_for
from .data import CATEGORICAL, NUMERIC, Column, Dataset, categorical_column, numeric_column
from .errors import (
    ConfigError,
    CopulaTreeError,
    DomainError,
    FitError,
    IngestionError,
    InsufficientDataError,
    RegressionError,
    ScenarioError,
    SchemaError,
)
from .margins import (
    MarginTreeConfig,
    pseudo_discrete,
    pseudo_empirical,
    pseudo_kernel,
    pseudo_margin_tree,
    pseudo_parametric_normal,
)
from .pruning import check_cv_options, check_cv_rows, fit_pruned_tree
from .serialize import (
    FORMAT_VERSION,
    read_tree_json,
    write_cv_report_json,
    write_cv_report_tsv,
    write_json,
    write_leaf_report,
    write_predictions_csv,
    write_prune_path_tsv,
    write_tree_json,
)
from .tree import StoppingConfig

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_FIT = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# CSV input for fit/predict


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV; every row has the header's length.

    Rows count from 1 at the header, as the lines of a file without
    quoted line breaks do."""
    rows = []
    with open(path, newline="") as fh:
        try:
            for row in csv.reader(fh):
                rows.append(row)
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise SchemaError(f"{path}: row {len(rows) + 1}: {exc}") from None
        except UnicodeDecodeError:
            raise SchemaError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header = rows.pop(0)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(f"{path}: line {i + 2}: {'short' if len(row) < len(header) else 'long'} row")
    return header, rows


def read_fit_csv(path) -> Dataset:
    """Header convention: responses ``y_*``; covariates ``x_<name>:num`` or
    ``x_<name>:cat``."""
    header, rows = _read_csv(path)

    y_cols, x_cols = [], []
    for i, name in enumerate(header):
        if name.startswith("y_"):
            y_cols.append(i)
        elif name.startswith("x_"):
            body = name[2:]
            if ":" not in body:
                raise SchemaError(f"{path}: covariate column {name!r} needs a :num or :cat suffix")
            colname, kind = body.rsplit(":", 1)
            if kind not in (NUMERIC, CATEGORICAL):
                raise SchemaError(f"{path}: column {name!r} has unknown kind {kind!r}")
            if any(colname == seen for _, seen, _ in x_cols):  # predict finds columns by name
                raise SchemaError(f"{path}: covariate name {colname!r} appears twice")
            x_cols.append((i, colname, kind))
    if len(y_cols) != 2:
        raise SchemaError(f"{path}: expected exactly 2 y_ columns, found {len(y_cols)}")

    try:
        y = np.array([[float(row[i]) for i in y_cols] for row in rows])
    except ValueError as exc:
        raise SchemaError(f"{path}: bad response value ({exc})") from None
    covs = tuple(_column(path, colname, kind, [row[i] for row in rows]) for i, colname, kind in x_cols)
    return Dataset(y, covs)


def _column(path, name: str, kind: str, raw: list[str], levels=()) -> Column:
    """Covariate ``name`` from its CSV fields; a categorical level table
    starts with ``levels``, as ``data.categorical_column`` builds it."""
    if kind == CATEGORICAL:
        return categorical_column(name, raw, levels)
    try:
        return numeric_column(name, [float(v) for v in raw])
    except ValueError as exc:
        raise SchemaError(f"{path}: column {name}: {exc}") from None


def _covariates_for_tree(path, tree) -> Dataset:
    """Covariate CSV matched against a fitted tree's schema.

    Accepts either the fit header convention (x_<name>:kind) or plain
    column names; a fit-convention column wins over a plain one, as ``fit``
    reads it and ignores the plain one.  Unseen categorical labels extend the
    level table past the training codes, which routes them right at every
    categorical rule.
    """
    header, rows = _read_csv(path)

    covs = []
    for sch in tree.schema:
        found = [i for i, h in enumerate(header) if h.startswith("x_") and h[2:].rsplit(":", 1)[0] == sch.name]
        found = found or [i for i, h in enumerate(header) if h == sch.name]
        if not found:
            raise SchemaError(f"{path}: missing covariate column {sch.name!r}")
        if len(found) > 1:
            raise SchemaError(f"{path}: covariate column {sch.name!r} appears twice")
        covs.append(_column(path, sch.name, sch.kind, [row[found[0]] for row in rows], sch.levels))
    return Dataset(np.zeros((len(rows), 2)), tuple(covs))


# ---------------------------------------------------------------------------
# subcommands


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _stopping_from_args(args) -> StoppingConfig:
    """The growth limits; raises ConfigError on a bad one or a bad CV option."""
    check_cv_options(args.folds, args.repeats, args.rule)
    return StoppingConfig(
        min_leaf=args.min_leaf,
        min_gain=args.min_gain,
        max_leaves=args.max_leaves,
        max_candidates=args.max_candidates,
    )


def _make_pseudo(args, data: Dataset):
    method = args.pseudo
    if method == "empirical":
        return pseudo_empirical(data)
    if method == "kernel":
        if args.bandwidth is None:
            raise ConfigError("--bandwidth is required for the kernel method")
        return pseudo_kernel(data, h=args.bandwidth)
    if method == "normal":
        design = None
        if args.design:
            names = [c.name for c in data.covariates]
            design = []
            for want in args.design.split(","):
                if want not in names:
                    raise SchemaError(f"design column {want!r} not in covariates {names}")
                design.append(names.index(want))
        return pseudo_parametric_normal(data, design)
    if method == "margin-tree":
        config = MarginTreeConfig(min_leaf=args.margin_min_leaf, seed=args.seed)
        return pseudo_margin_tree(data, config)
    if method == "discrete":
        return pseudo_discrete(data)
    raise ConfigError(f"unknown pseudo method {method!r}")


def _with_pseudo_notes(report, pseudo):
    """``report`` with the pseudo estimator's notes (its fallbacks) added,
    which are also printed as one warning line."""
    if pseudo.notes:
        print(f"warning: pseudo: {pseudo.method}: {', '.join(pseudo.notes)}", file=sys.stderr)
    return replace(report, notes=report.notes + pseudo.notes)


def _pruned_fit(args, spec, data: Dataset, stopping: StoppingConfig):
    """Fit the pruned tree of ``args`` to ``data`` on every CPU and write its
    tree.json, prune_path.tsv and cv_report.tsv/.json in ``args.out``; too few
    rows for CV fail before the pseudo estimator runs.
    Returns (out as a Path, maximal, path, report with pseudo notes, subtree)."""
    from ._fork import cpus

    check_cv_rows(data.n, args.folds, stopping.min_leaf)
    pseudo = _make_pseudo(args, data)
    maximal, path, report, subtree = fit_pruned_tree(
        spec, pseudo, data,
        stopping=stopping, folds=args.folds, repeats=args.repeats,
        seed=args.seed, rule=args.rule, jobs=cpus(),
    )
    report = _with_pseudo_notes(report, pseudo)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tree_json(subtree, out / "tree.json")
    write_prune_path_tsv(path, out / "prune_path.tsv")
    write_cv_report_tsv(report, out / "cv_report.tsv")
    write_cv_report_json(report, out / "cv_report.json")
    return out, maximal, path, report, subtree


def cmd_fit(args) -> int:
    _require(args, "input", "out", "family", "seed")
    stopping = _stopping_from_args(args)
    spec = spec_for(args.family)
    data = read_fit_csv(args.input)
    out, maximal, path, report, subtree = _pruned_fit(args, spec, data, stopping)
    theta, tau, leaf_ids = subtree.predict(data)
    write_predictions_csv(out / "predictions.csv", range(data.n), leaf_ids, theta, tau)
    print(
        f"fit: {subtree.n_leaves} leaves (maximal {maximal.n_leaves}), "
        f"train loglik {path.entry_for_k(report.chosen_k).train_loglik:.3f}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    _require(args, "tree", "input", "out")
    tree = read_tree_json(args.tree)
    data = _covariates_for_tree(args.input, tree)
    theta, tau, leaf_ids = tree.predict(data)
    write_predictions_csv(args.out, range(data.n), leaf_ids, theta, tau)
    print(f"predict: {data.n} rows -> {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import simulation as sim

    study = sim.PipelineConfig()  # the preset of every flag left unset; explicit flags and --config values win
    preset = dict(sources=",".join(study.sources), bandwidth=study.kernel_h, folds=study.cv_folds,
                  repeats=study.cv_repeats, rule=study.cv_rule, reps=500 if args.scale == "paper" else 50, n=1000,
                  **asdict(study.stopping))  # its fields are the stopping flags' dests
    for name, value in preset.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    _require(args, "out", "seed")
    families = args.families.split(",") if args.families != "all" else [f.value for f in sim.Family]
    families = [spec_for(f).family.value for f in families]  # records name each family as the study does
    surfaces = args.surfaces.split(",") if args.surfaces != "all" else list(sim.SURFACES)
    sim.check_unique(families, "family")
    for s in surfaces:
        if s not in sim.SURFACES:
            raise ConfigError(f"unknown surface {s!r}")
    sim.check_unique(surfaces, "surface")
    for name, value in (("reps", args.reps), ("n", args.n), ("jobs", args.jobs)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    config = sim.PipelineConfig(
        sources=tuple(args.sources.split(",")),
        stopping=_stopping_from_args(args),
        cv_folds=args.folds,
        cv_repeats=args.repeats,
        cv_rule=args.rule,
        kernel_h=args.bandwidth,
    )
    check_cv_rows(args.n, config.cv_folds, config.stopping.min_leaf)  # as run_study does, so --dry-run agrees
    cells = [(f, s) for f in families for s in surfaces]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config_echo = {
        "scale": args.scale,
        "n_reps": args.reps,
        "n": args.n,
        "seed": args.seed,
        "cells": [list(c) for c in cells],
        "sources": list(config.sources),
    }
    if args.dry_run:
        summary = {"format_version": FORMAT_VERSION, "cells": [], "config": config_echo}
    else:
        records = sim.run_study(cells, args.reps, args.n, args.seed, config, n_jobs=args.jobs)
        sim.write_records_tsv(records, out / "records.tsv")
        summary = sim.summarize(records)
        summary["config"] = config_echo
    write_json(summary, out / "summary.json")
    print(f"simulate: {len(cells)} cells x {args.reps} reps -> {out}")
    return EXIT_OK


def cmd_flu(args) -> int:
    from . import compositional

    _require(args, "input", "out", "seed")
    stopping = _stopping_from_args(args)
    spec = spec_for(args.family)
    records = compositional.read_weekly_csv(args.input)
    unit_years = compositional.aggregate_counts(records, min_total=args.min_cases)
    if not unit_years:
        raise SchemaError("no data: every unit-year fell below the minimum case count")

    points = [compositional.ilr_forward(uy.composition) for uy in unit_years]
    y = np.array([[p.y1, p.y2] for p in points])
    seasons = [uy.season for uy in unit_years]
    covs = [categorical_column("season", seasons)]
    if any(uy.itz for uy in unit_years):
        covs.append(categorical_column("itz", [uy.itz or "?" for uy in unit_years]))
    data = Dataset(y, tuple(covs))

    out, _, path, report, subtree = _pruned_fit(args, spec, data, stopping)
    compositional.write_ilr_csv(unit_years, out / "ilr.csv")
    write_leaf_report(subtree, out / "leaf_report.tsv")

    root_ll = path.entries[-1].train_loglik
    cond_ll = path.entry_for_k(report.chosen_k).train_loglik
    print(
        f"flu: {len(unit_years)} unit-seasons, {subtree.n_leaves} leaves, "
        f"loglik {root_ll:.3f} -> {cond_ll:.3f}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_stopping_flags(p, **defaults):
    """The growth limits' flags; one missing from ``defaults`` is unset (None)."""
    p.add_argument("--min-leaf", type=int, default=defaults.get("min_leaf"))
    p.add_argument("--min-gain", type=float, default=defaults.get("min_gain"))
    p.add_argument("--max-leaves", type=int, default=defaults.get("max_leaves"))
    p.add_argument("--max-candidates", type=int, default=defaults.get("max_candidates"))


def _add_cv_flags(p, folds=None, repeats=None, rule=None):
    p.add_argument("--folds", type=int, default=folds)
    p.add_argument("--repeats", type=int, default=repeats)
    p.add_argument("--rule", choices=["MaxMean", "OneSE"], default=rule)


def build_parser() -> _Parser:
    parser = _Parser(prog="copulatree", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key=value file of flag defaults")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.subcommands = sub.choices

    p = sub.add_parser("fit", parents=[common], help="fit a conditional copula tree to a CSV dataset")
    p.add_argument("--input", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--pseudo", default="empirical",
                   choices=["empirical", "kernel", "normal", "margin-tree", "discrete"])
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--design", default=None, help="comma-separated design columns for --pseudo normal")
    p.add_argument("--margin-min-leaf", type=int, default=MarginTreeConfig.min_leaf)
    p.add_argument("--seed", type=int, default=None)
    _add_stopping_flags(p, **asdict(StoppingConfig()))
    _add_cv_flags(p, folds=3, repeats=10, rule="OneSE")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", parents=[common], help="apply a fitted tree JSON to covariates")
    p.add_argument("--tree", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", parents=[common], help="run the scenario study")
    p.add_argument("--families", default="all")
    p.add_argument("--surfaces", default="all")
    p.add_argument("--sources")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per replication and per CPU; "
                        "the output does not depend on it")
    p.add_argument("--out", default=None)
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--dry-run", action="store_true", help="echo the resolved config without running")
    # --sources, --bandwidth, --reps, --n and these flags are unset (None) here:
    # cmd_simulate fills them from the study preset
    _add_stopping_flags(p)
    _add_cv_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("flu", parents=[common], help="end-to-end compositional pipeline")
    p.add_argument("--input", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--family", default="frank")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--min-cases", type=int, default=50)
    p.add_argument("--margin-min-leaf", type=int, default=MarginTreeConfig.min_leaf)
    _add_stopping_flags(p, **asdict(StoppingConfig()))
    _add_cv_flags(p, folds=3, repeats=50, rule="OneSE")
    p.set_defaults(func=cmd_flu, pseudo="margin-tree")

    return parser


def _load_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path} line {i + 1}: expected key=value")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    return values


_TRUE = ("true", "yes", "on", "1")
_FALSE = ("false", "no", "off", "0")


def _config_argv(subparser: argparse.ArgumentParser, values: dict) -> list[str]:
    """Command-line tokens that set the config file's values.

    Parsing them before the command line's own flags puts every value
    through the flag's type and choices, and lets an explicit flag win.
    """
    options = {a.dest: a for a in subparser._actions if a.option_strings and a.dest != "help"}
    tokens = []
    for key, val in values.items():
        action = options.get(key)
        if action is None or key == "config":
            raise ConfigError(f"unknown config key {key!r}")
        flag = action.option_strings[-1]
        if isinstance(action, argparse._StoreTrueAction):
            if val.lower() not in _TRUE + _FALSE:
                raise ConfigError(f"{key}: expected true or false, got {val!r}")
            tokens += [flag] if val.lower() in _TRUE else []
        else:
            tokens.append(f"{flag}={val}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            values = _load_config_file(args.config)
            try:
                tokens = _config_argv(parser.subcommands[args.command], values)
                args = parser.parse_args(argv[:at] + tokens + argv[at:])
            except ConfigError as exc:
                raise ConfigError(f"{args.config}: {exc}") from None
        if getattr(args, "seed", None) is not None and args.seed < 0:  # numpy's seeds are >= 0
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (SchemaError, IngestionError, OSError) as exc:
        print(f"error: schema: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ConfigError, DomainError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, InsufficientDataError, RegressionError, ScenarioError) as exc:
        print(f"error: fit: {exc}", file=sys.stderr)
        return EXIT_FIT
    except CopulaTreeError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_FIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
