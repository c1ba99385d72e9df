"""Machine-readable artifact formats (all schema-versioned).

Tree JSON:  {format_version, family, nodes: [{id, n, theta, tau, loglik,
rule?, left?, right?}], covariates: [{name, kind, levels?}]}.
Categorical rules store level *names*; numeric rules the threshold.
Round trips through :func:`tree_from_json` are stable.
"""

from __future__ import annotations

import csv
import json
import math

from .copulas import FitResult, spec_for
from .data import CATEGORICAL, NUMERIC
from .errors import DomainError, SchemaError
from .pruning import CvReport, PrunePath, lambda_intervals
from .tree import ColumnSchema, CopulaTree, SplitRule, StoppingConfig, TreeNode

FORMAT_VERSION = 1


def tree_to_doc(tree: CopulaTree) -> dict:
    nodes = []
    for node in tree.nodes():
        entry = {
            "id": node.id,
            "n": node.fit.n_obs,
            "theta": node.fit.theta_hat,
            "tau": node.fit.tau_hat,
            "loglik": node.fit.loglik,
        }
        if not node.is_leaf:
            rule = node.rule
            if rule.is_numeric:
                entry["rule"] = {"feature": rule.feature, "kind": "num", "threshold": rule.threshold}
            else:
                levels = tree.schema[rule.feature].levels
                entry["rule"] = {
                    "feature": rule.feature,
                    "kind": "cat",
                    "left_levels": sorted(levels[c] for c in rule.left_levels),
                }
            entry["left"] = node.left.id
            entry["right"] = node.right.id
        nodes.append(entry)
    covariates = []
    for col in tree.schema:
        cov = {"name": col.name, "kind": col.kind}
        if col.levels is not None:
            cov["levels"] = list(col.levels)
        covariates.append(cov)
    return {
        "format_version": FORMAT_VERSION,
        "family": tree.spec.family.value,
        "nodes": nodes,
        "covariates": covariates,
    }


def _fields(obj, keys, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"tree document: {where} is not an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"tree document: {where} lacks {', '.join(map(repr, missing))}")
    return obj


def _typed(value, kinds, where: str, what: str):
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise SchemaError(f"tree document: {where}: {what}")
    return value


def _names(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"tree document: {where}: levels must be a list of names")
    return value


def tree_from_doc(doc: dict) -> CopulaTree:
    """Rebuild a tree from its document; SchemaError on any malformed part."""
    _fields(doc, ("format_version", "family", "nodes", "covariates"), "the document")
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(f"unsupported tree format_version {doc['format_version']!r}")
    try:
        spec = spec_for(doc["family"])
    except DomainError as exc:
        raise SchemaError(f"tree document: {exc}") from None
    schema = []
    for i, c in enumerate(_typed(doc["covariates"], list, "covariates", "not a list")):
        where = f"covariate {i}"
        _fields(c, ("name", "kind"), where)
        if c["kind"] not in (NUMERIC, CATEGORICAL) or (c["kind"] == CATEGORICAL) != ("levels" in c):
            raise SchemaError(f"tree document: {where}: bad kind or levels")
        levels = tuple(_names(c["levels"], where)) if "levels" in c else None
        schema.append(ColumnSchema(c["name"], c["kind"], levels))
    raw = {}
    for i, e in enumerate(_typed(doc["nodes"], list, "nodes", "not a list")):
        _fields(e, ("id", "n", "theta", "tau", "loglik"), f"node {i}")
        raw[_typed(e["id"], int, f"node {i}", "id is not an integer")] = e
    if not raw:
        raise SchemaError("tree document: no nodes")
    seen = set()

    def build(node_id, depth: int) -> TreeNode:
        if node_id not in raw or node_id in seen:
            raise SchemaError(f"tree document: node id {node_id!r} is missing or reached twice")
        seen.add(node_id)
        e = raw[node_id]
        where = f"node {node_id}"
        fit = FitResult(
            *(_typed(e[k], (int, float), where, f"{k} is not a number") for k in ("theta", "tau", "loglik")),
            _typed(e["n"], int, where, "n is not an integer"),
            True,
        )
        node = TreeNode(node_id, fit, depth)
        if "rule" in e:
            r = _fields(e["rule"], ("feature", "kind"), f"{where} rule")
            _fields(e, ("left", "right"), where)
            feature = r["feature"]
            if not isinstance(feature, int) or not 0 <= feature < len(schema):
                raise SchemaError(f"tree document: {where}: no covariate {feature!r}")
            column = schema[feature]
            if r["kind"] != column.kind:
                raise SchemaError(f"tree document: {where}: a {r['kind']!r} rule on a {column.kind} covariate")
            if r["kind"] == NUMERIC:
                threshold = _fields(r, ("threshold",), where)["threshold"]
                node.rule = SplitRule(feature, threshold=float(_typed(threshold, (int, float), where, "bad threshold")))
            else:
                names = _names(_fields(r, ("left_levels",), where)["left_levels"], where)
                if not set(names) <= set(column.levels):
                    raise SchemaError(f"tree document: {where}: left_levels not among the covariate's levels")
                index = {name: i for i, name in enumerate(column.levels)}
                node.rule = SplitRule(feature, left_levels=frozenset(index[name] for name in names))
            node.left = build(e["left"], depth + 1)
            node.right = build(e["right"], depth + 1)
        return node

    return CopulaTree(spec, build(min(raw), 0), tuple(schema), StoppingConfig())


def write_tree_json(tree: CopulaTree, path) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_doc(tree), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_tree_json(path) -> CopulaTree:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: not a JSON document ({exc})") from None
    return tree_from_doc(doc)


def write_prune_path_tsv(path_obj: PrunePath, path) -> None:
    intervals = lambda_intervals(path_obj)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["format_version", FORMAT_VERSION])
        writer.writerow(["K", "train_loglik", "lambda_lo", "lambda_hi"])
        for entry in path_obj.entries:
            lo, hi = intervals.get(entry.k, (math.nan, math.nan))
            writer.writerow([entry.k, repr(entry.train_loglik), repr(lo), repr(hi)])


def write_cv_report_tsv(report: CvReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        writer.writerow(["format_version", FORMAT_VERSION])
        writer.writerow(["K", "mean_val_loglik", "se", "n_folds"])
        for k in report.k_values:
            writer.writerow([k, repr(report.mean_loglik[k]), repr(report.se_loglik[k]), report.n_scores])


def cv_report_to_doc(report: CvReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "chosen_k": report.chosen_k,
        "rule": report.rule,
        "folds": report.folds,
        "repeats": report.repeats,
        "seed": report.seed,
        "lambda_interval": list(report.lambda_interval),
        "per_k": {
            str(k): {"mean": report.mean_loglik[k], "se": report.se_loglik[k]}
            for k in report.k_values
        },
        "notes": list(report.notes),
    }


def write_cv_report_json(report: CvReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(cv_report_to_doc(report), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_predictions_csv(path, row_ids, leaf_ids, thetas, taus) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row_id", "leaf_id", "theta", "tau"])
        for rid, lid, th, ta in zip(row_ids, leaf_ids, thetas, taus):
            writer.writerow([rid, lid, repr(float(th)), repr(float(ta))])


def _read_versioned_tsv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        head = next(reader)
        if head[0] != "format_version" or int(head[1]) != FORMAT_VERSION:
            raise SchemaError(f"{path}: unsupported format_version {head[1:]}")
        cols = next(reader)
        return [dict(zip(cols, row)) for row in reader]


def read_prune_path_tsv(path) -> list[dict]:
    """Rows with K, train_loglik and the lambda interval, floats parsed."""
    rows = _read_versioned_tsv(path)
    return [
        {
            "K": int(r["K"]),
            "train_loglik": float(r["train_loglik"]),
            "lambda_lo": float(r["lambda_lo"]),
            "lambda_hi": float(r["lambda_hi"]),
        }
        for r in rows
    ]


def read_cv_report_tsv(path) -> list[dict]:
    rows = _read_versioned_tsv(path)
    return [
        {
            "K": int(r["K"]),
            "mean_val_loglik": float(r["mean_val_loglik"]),
            "se": float(r["se"]),
            "n_folds": int(r["n_folds"]),
        }
        for r in rows
    ]


def read_predictions_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        {
            "row_id": int(r["row_id"]),
            "leaf_id": int(r["leaf_id"]),
            "theta": float(r["theta"]),
            "tau": float(r["tau"]),
        }
        for r in rows
    ]
