"""The three benchmark workloads: inputs, CLI calls and output checks.

Inputs come from the seed alone.  ``write_inputs`` runs in a child
process (it imports copulatree to generate them); everything else runs
in the benchmark's parent process and reads the artifacts with the
standard library only.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import csv
import json
import math
import os

WORKLOADS = ("study_step", "fit_exhaustive", "flu")

FIT_N = 300  # rows of the fit_exhaustive CSV
STUDY_N = 1000  # rows of the study_step replication
FLU_REPEATS = 10  # CV repeats of the flu workload (3 folds)
# the flu fixture's planted dependence: Frank tau by season index
FLU_FIXTURE = {"start_year": 2010, "tau_low": 0.02, "tau_high": 0.75, "shift_season": 5}

# artifacts each workload must leave in --out
ARTIFACTS = {
    "study_step": ("records.tsv", "summary.json"),
    "fit_exhaustive": ("tree.json", "prune_path.tsv", "cv_report.tsv", "cv_report.json",
                       "predictions.csv"),
    "flu": ("ilr.csv", "tree.json", "prune_path.tsv", "cv_report.tsv", "cv_report.json",
            "leaf_report.tsv"),
}

# A run's tau error may exceed the covariate-blind answer's by this factor:
# a root-only tree, which the OneSE rule picks on a few fit_exhaustive
# inputs, is within a few percent of it, while a wrong tree or a wrong
# tau bridge is far off.  The exact tree is pinned by reference.json.
BLIND_SLACK = 1.25

# Leaf theta/tau/loglik and study metrics must match the reference within
# this relative-plus-absolute tolerance: a different split or K moves them
# by far more, while a tau bridge that differs in the last ~1e-12 passes.
FLOAT_TOL = 1e-9


def write_inputs(workload: str, seed: int, out: str) -> None:
    """Generate the workload's input files and truth.json into ``out``."""
    os.makedirs(out, exist_ok=True)
    truth: dict = {"workload": workload, "seed": seed}
    if workload == "fit_exhaustive":
        from copulatree.simulation import ScenarioSpec, generate

        ds = generate(ScenarioSpec("frank", "step", FIT_N, seed))
        with open(os.path.join(out, "input.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["y_1", "y_2", "x_x1:num", "x_x2:num"])
            for (y1, y2), (x1, x2) in zip(ds.y.tolist(), ds.x.tolist()):
                writer.writerow([repr(y1), repr(y2), repr(x1), repr(x2)])
        truth["tau_true"] = ds.tau_true.tolist()
    elif workload == "flu":
        from copulatree.fludata import write_flu_fixture_csv

        write_flu_fixture_csv(os.path.join(out, "input.csv"), seed, **FLU_FIXTURE)
    elif workload != "study_step":
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(out, "truth.json"), "w") as fh:
        json.dump(truth, fh)


def cli_argv(workload: str, seed: int, inputs: str, out: str) -> tuple[list[str], list[str]]:
    """(timed CLI call, untimed follow-up call) for one run."""
    s = str(seed)
    if workload == "study_step":
        return [
            "simulate", "--families", "clayton", "--surfaces", "step", "--reps", "1",
            "--n", str(STUDY_N), "--repeats", "1", "--jobs", "1", "--seed", s, "--out", out,
        ], []
    src = os.path.join(inputs, "input.csv")
    if workload == "fit_exhaustive":
        return [
            "fit", "--input", src, "--out", out, "--family", "frank", "--pseudo", "margin-tree",
            "--folds", "3", "--repeats", "1", "--seed", s,
        ], []
    if workload == "flu":
        return [
            "flu", "--input", src, "--out", out, "--family", "frank", "--seed", s,
            "--repeats", str(FLU_REPEATS),
        ], [
            "predict", "--tree", os.path.join(out, "tree.json"),
            "--input", os.path.join(out, "ilr.csv"), "--out", _flu_predictions(out),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _flu_predictions(out: str) -> str:
    return out.rstrip("/") + ".predict.csv"


# ---------------------------------------------------------------------------
# reading artifacts


def _read_tsv(path, delimiter="\t"):
    with open(path, newline="") as fh:
        return list(csv.reader(fh, delimiter=delimiter))


def _tree_signature(out: str) -> dict:
    with open(os.path.join(out, "tree.json")) as fh:
        doc = json.load(fh)
    with open(os.path.join(out, "cv_report.json")) as fh:
        chosen_k = json.load(fh)["chosen_k"]
    splits, leaves = [], []
    for node in doc["nodes"]:
        if "rule" in node:
            rule = node["rule"]
            splits.append({
                "id": node["id"],
                "feature": doc["covariates"][rule["feature"]]["name"],
                "threshold": rule.get("threshold"),
                "left_levels": rule.get("left_levels"),
            })
        else:
            leaves.append({k: node[k] for k in ("id", "n", "theta", "tau", "loglik")})
    return {"chosen_k": chosen_k, "n_leaves": len(leaves), "splits": splits, "leaves": leaves}


def _study_rows(out: str) -> list[dict]:
    rows = _read_tsv(os.path.join(out, "records.tsv"))
    if rows[0] != ["format_version", "1"]:
        raise ValueError(f"records.tsv: unexpected header {rows[0]}")
    cols = rows[1]
    return [dict(zip(cols, r)) for r in rows[2:]]


def signature(workload: str, out: str) -> dict:
    """What the reference pins down for a run: tree, K, leaf fits / study records."""
    if workload == "study_step":
        return {
            "records": {
                f"{r['source']}/{r['model']}/{r['metric']}": float(r["value"])
                for r in _study_rows(out)
            }
        }
    return _tree_signature(out)


def has_splits(workload: str, sig: dict) -> bool:
    """Whether a signature's selected tree splits (every source's, for the study)."""
    if workload == "study_step":
        counts = [v for k, v in sig["records"].items() if k.endswith("/conditional/n_splits")]
        return bool(counts) and min(counts) > 0
    return sig["n_leaves"] > 1 and bool(sig["splits"])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * (1.0 + abs(b))


def compare(workload: str, got: dict, ref: dict) -> list[str]:
    """Differences between a run's signature and the recorded reference."""
    errors = []
    if workload == "study_step":
        if sorted(got["records"]) != sorted(ref["records"]):
            return ["records.tsv rows differ from the reference"]
        for key, want in ref["records"].items():
            have = got["records"][key]
            same = have == want if key.endswith("/n_splits") else _close(have, want)
            if not same:
                errors.append(f"{key}: {have!r} != reference {want!r}")
        return errors
    for key in ("chosen_k", "n_leaves", "splits"):
        if got[key] != ref[key]:
            errors.append(f"{key}: {got[key]!r} != reference {ref[key]!r}")
    if errors:
        return errors
    for have, want in zip(got["leaves"], ref["leaves"]):
        if have["id"] != want["id"] or have["n"] != want["n"]:
            errors.append(f"leaf {have['id']}/{have['n']} != reference {want['id']}/{want['n']}")
            continue
        for k in ("theta", "tau", "loglik"):
            if not _close(have[k], want[k]):
                errors.append(f"leaf {want['id']} {k}: {have[k]!r} != reference {want[k]!r}")
    return errors


# ---------------------------------------------------------------------------
# accuracy against the planted truth


def _mse(pred, true) -> float:
    return sum((p - t) ** 2 for p, t in zip(pred, true)) / len(true)


def _variance(vals) -> float:
    mean = sum(vals) / len(vals)
    return _mse(vals, [mean] * len(vals))


def _flu_true_tau(season: str) -> float:
    index = int(season.split("/")[0]) - FLU_FIXTURE["start_year"]
    high = index >= FLU_FIXTURE["shift_season"]
    return FLU_FIXTURE["tau_high"] if high else FLU_FIXTURE["tau_low"]


def accuracy(workload: str, out: str, truth: dict) -> tuple[float, float]:
    """(tau_mse of the run, tau_mse of the covariate-blind answer).

    The blind answer is one tau for every row: the study's own benchmark
    rows, or the best constant (the truth's mean) elsewhere.
    """
    if workload == "study_step":
        rows = [r for r in _study_rows(out) if r["metric"] == "mse_tau"]
        cond = [float(r["value"]) for r in rows if r["model"] == "conditional"]
        blind = [float(r["value"]) for r in rows if r["model"] == "benchmark"]
        return sum(cond) / len(cond), sum(blind) / len(blind)
    if workload == "fit_exhaustive":
        rows = _read_tsv(os.path.join(out, "predictions.csv"), ",")
        pred = [float(r[3]) for r in rows[1:]]
        true = truth["tau_true"]
    else:
        seasons = [r[1] for r in _read_tsv(os.path.join(out, "ilr.csv"), ",")[1:]]
        rows = _read_tsv(_flu_predictions(out), ",")
        pred = [float(r[3]) for r in rows[1:]]
        true = [_flu_true_tau(s) for s in seasons]
    if len(pred) != len(true):
        raise ValueError(f"{len(pred)} predictions for {len(true)} rows")
    return _mse(pred, true), _variance(true)


def check(workload: str, out: str, truth: dict, ref: dict | None) -> tuple[float, list[str]]:
    """(tau_mse, problems) for one run's artifacts.

    A run passes when every artifact exists, its tau error is within
    BLIND_SLACK of the covariate-blind answer's, and, for a data seed
    recorded in reference.json, the selected tree matches it.
    """
    missing = [a for a in ARTIFACTS[workload] if not os.path.isfile(os.path.join(out, a))]
    if missing:
        return math.nan, [f"missing artifacts: {missing}"]
    problems = []
    tau_mse, blind = accuracy(workload, out, truth)
    if not tau_mse < BLIND_SLACK * blind:
        problems.append(f"tau_mse {tau_mse:.6g} is not below {BLIND_SLACK} x the "
                        f"covariate-blind {blind:.6g}")
    if ref is not None:
        problems += compare(workload, signature(workload, out), ref)
    return tau_mse, problems
