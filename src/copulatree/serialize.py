"""Machine-readable artifact formats: every ``--out`` file is written here.

The dialect is one for all artifacts.  JSON documents (:func:`write_json`)
have a one-space indent, sorted keys and a final newline.  Tables
(:func:`write_table`) end lines with ``\n``: TSVs open with a
``format_version`` row ahead of the header, CSVs (predictions, ilr) have
the header alone.  Floats are written with ``repr``, so they read back
bit for bit.

Tree JSON:  {format_version, family, nodes: [{id, n, theta, tau, loglik,
rule?, left?, right?}], covariates: [{name, kind, levels?}]}.
Categorical rules store level *names*; numeric rules the threshold.
Round trips through :func:`read_tree_json` / :func:`tree_from_doc` are
stable.
"""

from __future__ import annotations

import csv
import json
import math

from .copulas import FitResult, spec_for, theta_to_tau
from .data import CATEGORICAL, NUMERIC
from .errors import DomainError, SchemaError
from .pruning import CvReport, PrunePath, lambda_intervals
from .tree import ColumnSchema, CopulaTree, SplitRule, TreeNode, walk

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


def _float(value, where: str, what: str, bad: str = "") -> float:
    """A JSON number as a float; an integer no float holds is a SchemaError,
    and a non-number one with message ``bad`` (default: not a number)."""
    try:
        return float(_typed(value, (int, float), where, bad or f"{what} is not a number"))
    except OverflowError:
        raise SchemaError(f"tree document: {where}: {what} does not fit a float") from None


def _node_id(value, where: str, what: str) -> int:
    """A JSON integer that fits int64, as the leaf ids of predictions do."""
    if not -2**63 <= _typed(value, int, where, f"{what} is not an integer") < 2**63:
        raise SchemaError(f"tree document: {where}: {what} does not fit int64")
    return value


def _names(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"tree document: {where}: levels must be a list of names")
    return value


def tree_from_doc(doc: dict) -> CopulaTree:
    """Rebuild a tree from its document; SchemaError on any malformed part."""
    _fields(doc, ("format_version", "family", "nodes", "covariates"), "the document")
    if _typed(doc["format_version"], int, "format_version", "not an integer") != FORMAT_VERSION:
        raise SchemaError(f"unsupported tree format_version {doc['format_version']!r}")
    try:
        spec = spec_for(doc["family"])
    except DomainError as exc:
        raise SchemaError(f"tree document: {exc}") from None
    schema = []
    for i, c in enumerate(_typed(doc["covariates"], list, "covariates", "not a list")):
        where = f"covariate {i}"
        _fields(c, ("name", "kind"), where)
        _typed(c["name"], str, where, "name is not a string")
        if c["kind"] not in (NUMERIC, CATEGORICAL) or (c["kind"] == CATEGORICAL) != ("levels" in c):
            raise SchemaError(f"tree document: {where}: bad kind or levels")
        levels = tuple(_names(c["levels"], where)) if "levels" in c else None
        if any(c["name"] == seen.name for seen in schema):
            raise SchemaError(f"tree document: {where}: name {c['name']!r} appears twice")
        schema.append(ColumnSchema(c["name"], c["kind"], levels))
    raw = {}
    for i, e in enumerate(_typed(doc["nodes"], list, "nodes", "not a list")):
        _fields(e, ("id", "n", "theta", "tau", "loglik"), f"node {i}")
        if _node_id(e["id"], f"node {i}", "id") in raw:
            raise SchemaError(f"tree document: node {i}: id {e['id']} appears twice")
        raw[e["id"]] = e
    if not raw:
        raise SchemaError("tree document: no nodes")

    # each node before its children, left subtree first, on a stack: a chain may be any depth
    top = TreeNode(-1, None, -1)  # the root becomes its left child
    stack, seen = [(top, "left", min(raw))], set()
    while stack:
        parent, side, node_id = stack.pop()
        _node_id(node_id, f"node {parent.id}", side)
        if node_id not in raw or node_id in seen:
            raise SchemaError(f"tree document: node id {node_id!r} is missing or reached twice")
        seen.add(node_id)
        e = raw[node_id]
        where = f"node {node_id}"
        fit = FitResult(
            *(_float(e[k], where, k) for k in ("theta", "tau", "loglik")),
            _typed(e["n"], int, where, "n is not an integer"),
            True,
        )
        try:
            tau = theta_to_tau(spec, fit.theta_hat)
        except DomainError as exc:
            raise SchemaError(f"tree document: {where}: {exc}") from None
        if not (fit.tau_hat == tau and fit.tau_hat.hex() == tau.hex()):  # bit for bit; NaN never
            raise SchemaError(f"tree document: {where}: tau is not the Kendall tau of theta")
        if not math.isfinite(fit.loglik):
            raise SchemaError(f"tree document: {where}: loglik is not finite")
        if fit.n_obs < 1:
            raise SchemaError(f"tree document: {where}: n is below 1")
        node = TreeNode(node_id, fit, parent.depth + 1)
        setattr(parent, side, node)
        if "rule" in e:
            r = _fields(e["rule"], ("feature", "kind"), f"{where} rule")
            _fields(e, ("left", "right"), where)
            feature = _typed(r["feature"], int, where, "feature is not an integer")
            if not 0 <= feature < len(schema):
                raise SchemaError(f"tree document: {where}: no covariate {feature!r}")
            column = schema[feature]
            if r["kind"] != column.kind:
                raise SchemaError(f"tree document: {where}: a {r['kind']!r} rule on a {column.kind} covariate")
            if r["kind"] == NUMERIC:
                threshold = _fields(r, ("threshold",), where)["threshold"]
                node.rule = SplitRule(feature, threshold=_float(threshold, where, "threshold", "bad threshold"))
            else:
                names = _names(_fields(r, ("left_levels",), where)["left_levels"], where)
                if not set(names) <= set(column.levels):
                    raise SchemaError(f"tree document: {where}: left_levels not among the covariate's levels")
                index = {name: i for i, name in enumerate(column.levels)}
                node.rule = SplitRule(feature, left_levels=frozenset(index[name] for name in names))
            stack += [(node, "right", e["right"]), (node, "left", e["left"])]
    for node in walk(top.left):
        if not node.is_leaf and node.left.fit.n_obs + node.right.fit.n_obs != node.fit.n_obs:
            raise SchemaError(f"tree document: node {node.id}: its children's n do not add up to its own")
    return CopulaTree(spec, top.left, tuple(schema))


def write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_table(path, header, rows, tsv: bool = True) -> None:
    """A TSV led by the ``format_version`` row, or with ``tsv=False`` a CSV."""
    with open(path, "w", newline="") as fh:
        if tsv:
            writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
            writer.writerow(["format_version", FORMAT_VERSION])
        else:
            writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_tree_json(tree: CopulaTree, path) -> None:
    write_json(tree_to_doc(tree), path)


def read_tree_json(path) -> CopulaTree:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, UnicodeDecodeError) as exc:  # ValueError: bad JSON, or an integer over 4300 digits
            raise SchemaError(f"{path}: not a JSON document ({exc})") from None
    return tree_from_doc(doc)


def write_prune_path_tsv(path_obj: PrunePath, path) -> None:
    intervals = lambda_intervals(path_obj)
    rows = []
    for entry in path_obj.entries:
        lo, hi = intervals.get(entry.k, (math.nan, math.nan))
        rows.append([entry.k, repr(entry.train_loglik), repr(lo), repr(hi)])
    write_table(path, ["K", "train_loglik", "lambda_lo", "lambda_hi"], rows)


def write_cv_report_tsv(report: CvReport, path) -> None:
    write_table(
        path,
        ["K", "mean_val_loglik", "se", "n_folds"],
        ([k, repr(report.mean_loglik[k]), repr(report.se_loglik[k]), report.n_scores] for k in report.k_values),
    )


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
    write_json(cv_report_to_doc(report), path)


def write_predictions_csv(path, row_ids, leaf_ids, thetas, taus) -> None:
    write_table(
        path,
        ["row_id", "leaf_id", "theta", "tau"],
        ([rid, lid, repr(float(th)), repr(float(ta))] for rid, lid, th, ta in zip(row_ids, leaf_ids, thetas, taus)),
        tsv=False,
    )


def _rule_text(tree: CopulaTree, node: TreeNode, going_left: bool) -> str:
    rule = node.rule
    sch = tree.schema[rule.feature]
    if rule.is_numeric:
        op = "<=" if going_left else ">"
        return f"{sch.name} {op} {rule.threshold:g}"
    names = sorted(sch.levels[c] for c in rule.left_levels)
    if going_left:
        return f"{sch.name} in {{{', '.join(names)}}}"
    return f"{sch.name} not in {{{', '.join(names)}}}"


def write_leaf_report(tree: CopulaTree, path) -> None:
    """One row per leaf, depth first from the left: its fit and the
    conditions on the path to it, ``(root)`` for a one-leaf tree."""
    rows, conds = [], {tree.root.id: []}
    for node in walk(tree.root):  # parents first, left children first
        if node.is_leaf:
            fit = node.fit
            rows.append([node.id, fit.n_obs, repr(fit.tau_hat), repr(fit.theta_hat), repr(fit.loglik),
                         " & ".join(conds[node.id]) or "(root)"])
        else:
            conds[node.left.id] = conds[node.id] + [_rule_text(tree, node, True)]
            conds[node.right.id] = conds[node.id] + [_rule_text(tree, node, False)]
    write_table(path, ["leaf_id", "n", "tau", "theta", "loglik", "rules"], rows)
