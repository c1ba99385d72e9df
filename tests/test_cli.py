"""End-to-end tests of the command-line surface (in-process)."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtri

import copulatree
from copulatree import copulas as cp
from copulatree import simulation as sim
from copulatree.cli import EXIT_CONFIG, EXIT_OK, EXIT_SCHEMA, build_parser, main
from copulatree.fludata import write_flu_fixture_csv
from copulatree.margins import MarginTreeConfig
from copulatree.tree import StoppingConfig


@pytest.fixture(scope="module")
def fit_csv(tmp_path_factory):
    """Two-group Clayton dataset in the fit CSV schema."""
    path = tmp_path_factory.mktemp("data") / "input.csv"
    rng = np.random.default_rng(11)
    n = 400
    grp = rng.integers(0, 2, n)
    tau = np.where(grp == 0, 0.2, 0.7)
    theta = 2 * tau / (1 - tau)
    u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
    v = cp.conditional_quantile(cp.spec_for("clayton"), theta, u, rng.random(n))
    y = ndtri(np.column_stack([u, v]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y_a", "y_b", "x_g:cat", "x_z:num"])
        for i in range(n):
            w.writerow([y[i, 0], y[i, 1], "ab"[grp[i]], rng.random()])
    return path


def run_fit(fit_csv, out, extra=()):
    return main(
        [
            "fit", "--input", str(fit_csv), "--out", str(out),
            "--family", "clayton", "--pseudo", "empirical",
            "--seed", "5", "--repeats", "3", "--min-leaf", "50",
            "--max-candidates", "16",
        ]
        + list(extra)
    )


def test_cli_import_leaves_out_scipy_optimize_and_stats():
    """The CLI's import graph: scipy's optimizer and stats packages cost
    about 0.6 s at every start and the program uses neither."""
    src = os.path.dirname(os.path.dirname(copulatree.__file__))
    code = (
        "import sys, copulatree.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


class TestFit:
    def test_artifacts_and_roundtrip(self, fit_csv, tmp_path):
        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        for name in ("tree.json", "prune_path.tsv", "cv_report.tsv", "cv_report.json", "predictions.csv"):
            assert (out / name).exists()
        doc = json.loads((out / "tree.json").read_text())
        assert doc["format_version"] == 1
        assert doc["family"] == "clayton"

        pred_out = tmp_path / "pred.csv"
        rc = main(["predict", "--tree", str(out / "tree.json"), "--input", str(fit_csv), "--out", str(pred_out)])
        assert rc == EXIT_OK
        fit_rows = list(csv.DictReader(open(out / "predictions.csv")))
        pred_rows = list(csv.DictReader(open(pred_out)))
        assert fit_rows == pred_rows

        # leaf assignment counts match stored n per node
        leaf_n = {str(e["id"]): e["n"] for e in doc["nodes"] if "rule" not in e}
        counts = {}
        for row in pred_rows:
            counts[row["leaf_id"]] = counts.get(row["leaf_id"], 0) + 1
        assert counts == leaf_n

    def test_artifacts_roundtrip_through_readers(self, fit_csv, tmp_path):
        from copulatree.serialize import (
            read_cv_report_tsv,
            read_predictions_csv,
            read_prune_path_tsv,
            read_tree_json,
        )

        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        tree = read_tree_json(out / "tree.json")
        path_rows = read_prune_path_tsv(out / "prune_path.tsv")
        cv_rows = read_cv_report_tsv(out / "cv_report.tsv")
        preds = read_predictions_csv(out / "predictions.csv")
        assert any(r["K"] == tree.n_leaves for r in path_rows)  # selected K on the path
        assert all(r["se"] >= 0 for r in cv_rows)
        assert len(preds) == len(list(csv.reader(open(fit_csv)))) - 1
        assert {p["leaf_id"] for p in preds} == {l.id for l in tree.leaves()}

    def test_byte_identical_artifacts(self, fit_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_fit(fit_csv, out1) == EXIT_OK
        assert run_fit(fit_csv, out2) == EXIT_OK
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_short_row_is_schema_error(self, fit_csv, tmp_path, capsys):
        short = tmp_path / "short.csv"
        lines = fit_csv.read_text().splitlines()
        short.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:]) + "\n")
        assert run_fit(short, tmp_path / "fit") == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: schema: {short}: line 4: short row"]

    def test_long_row_is_schema_error(self, fit_csv, tmp_path, capsys):
        # an unquoted comma in a categorical value splits it into an extra field
        long = tmp_path / "long.csv"
        lines = fit_csv.read_text().splitlines()
        long.write_text("\n".join(lines[:6] + [lines[6] + ",b"] + lines[7:]) + "\n")
        assert run_fit(long, tmp_path / "fit") == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: schema: {long}: line 7: long row"]
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_max_candidates_below_one_is_config_error(self, fit_csv, tmp_path, capsys, value, via_config):
        argv = ["fit", "--input", str(fit_csv), "--out", str(tmp_path / "o"), "--family", "clayton", "--seed", "1"]
        if via_config:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"max_candidates = {value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--max-candidates", value]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: config: max_candidates must be >= 1 or unset"]

    def test_missing_column_schema_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y_a,x_g:cat\n1.0,a\n")
        rc = main(["fit", "--input", str(bad), "--out", str(tmp_path / "o"),
                   "--family", "clayton", "--seed", "1"])
        assert rc == EXIT_SCHEMA

    def test_bad_family_config_exit(self, fit_csv, tmp_path):
        rc = main(["fit", "--input", str(fit_csv), "--out", str(tmp_path / "o"),
                   "--family", "gauss", "--seed", "1"])
        assert rc == EXIT_CONFIG

    def test_kernel_requires_bandwidth(self, fit_csv, tmp_path):
        rc = main(["fit", "--input", str(fit_csv), "--out", str(tmp_path / "o"),
                   "--family", "clayton", "--pseudo", "kernel", "--seed", "1"])
        assert rc == EXIT_CONFIG

    def test_config_file_defaults(self, fit_csv, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed=77\nfamily=clayton\nrepeats=2\n")
        out = tmp_path / "cfgfit"
        rc = main(["fit", "--input", str(fit_csv), "--out", str(out), "--config", str(cfg)])
        assert rc == EXIT_OK
        doc = json.loads((out / "cv_report.json").read_text())
        assert doc["seed"] == 77 and doc["repeats"] == 2

    def test_flag_beats_config(self, fit_csv, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed=77\nfamily=clayton\nrepeats=2\n")
        out = tmp_path / "cfgfit2"
        rc = main(["fit", "--input", str(fit_csv), "--out", str(out),
                   "--config", str(cfg), "--seed", "5"])
        assert rc == EXIT_OK
        assert json.loads((out / "cv_report.json").read_text())["seed"] == 5

    def test_flag_with_equals_beats_config(self, fit_csv, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed=77\nfamily=clayton\nrepeats=2\n")
        out = tmp_path / "cfgfit3"
        rc = main(["fit", "--input", str(fit_csv), "--out", str(out),
                   "--config", str(cfg), "--seed=5", "--max-candidates=16"])
        assert rc == EXIT_OK
        doc = json.loads((out / "cv_report.json").read_text())
        assert doc["seed"] == 5 and doc["repeats"] == 2

    @pytest.mark.parametrize(
        "line", ["min_leaf = abc", "rule = Bogus", "dry_run = maybe", "no_such_key = 1", "pseudo = magic"]
    )
    def test_bad_config_value_is_config_error(self, fit_csv, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed=1\nfamily=clayton\n{line}\n")
        command = "simulate" if line.startswith("dry_run") else "fit"
        argv = [command, "--out", str(tmp_path / "o"), "--config", str(cfg)]
        if command == "fit":
            argv += ["--input", str(fit_csv)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")


class TestSimulateConfig:
    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_max_candidates_below_one_is_config_error(self, tmp_path, capsys, value, via_config):
        argv = ["simulate", "--families", "clayton", "--surfaces", "step", "--reps", "1", "--n", "200",
                "--seed", "1", "--out", str(tmp_path / "sim")]
        if via_config:
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(f"max_candidates = {value}\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--max-candidates", value]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: config: max_candidates must be >= 1 or unset"]


class TestParser:
    def test_defaults_are_the_config_defaults(self):
        parser = build_parser()
        study = sim.PipelineConfig()
        for command, stopping in (("fit", StoppingConfig()), ("flu", StoppingConfig()),
                                  ("simulate", study.stopping)):
            args = parser.parse_args([command])
            assert (args.min_leaf, args.min_gain, args.max_leaves, args.max_candidates) == (
                stopping.min_leaf, stopping.min_gain, stopping.max_leaves, stopping.max_candidates)
        for command in ("fit", "flu"):
            assert parser.parse_args([command]).margin_min_leaf == MarginTreeConfig().min_leaf
        args = parser.parse_args(["simulate"])
        assert (args.sources, args.folds, args.repeats, args.rule, args.bandwidth) == (
            ",".join(study.sources), study.cv_folds, study.cv_repeats, study.cv_rule, study.kernel_h)
        # the study preset itself
        assert (args.max_candidates, args.repeats, args.rule) == (16, 5, "MaxMean")


class TestPredict:
    def test_single_leaf_constant_tau(self, tmp_path):
        doc = {
            "format_version": 1,
            "family": "clayton",
            "nodes": [{"id": 0, "n": 100, "theta": 2.0, "tau": 0.5, "loglik": 10.0}],
            "covariates": [{"name": "g", "kind": "cat", "levels": ["a", "b"]}],
        }
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(doc))
        cov = tmp_path / "cov.csv"
        cov.write_text("g\na\nb\nzzz\n")  # includes an unseen level
        out = tmp_path / "pred.csv"
        assert main(["predict", "--tree", str(tree_path), "--input", str(cov), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 3
        assert {r["tau"] for r in rows} == {"0.5"}

    def test_unseen_level_routes_right(self, fit_csv, tmp_path):
        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        doc = json.loads((out / "tree.json").read_text())
        if "rule" not in doc["nodes"][0]:
            pytest.skip("single-leaf tree at this seed")
        cov = tmp_path / "cov.csv"
        cov.write_text("x_g:cat,x_z:num\nnever-seen,0.5\n")
        pred = tmp_path / "p.csv"
        assert main(["predict", "--tree", str(out / "tree.json"), "--input", str(cov), "--out", str(pred)]) == EXIT_OK
        row = list(csv.DictReader(open(pred)))[0]
        right_id = doc["nodes"][0]["right"]
        by_id = {e["id"]: e for e in doc["nodes"]}
        node = by_id[right_id]
        while "rule" in node:
            node = by_id[node["right"]] if node["rule"]["kind"] == "cat" else by_id[node["left"]]
        assert int(row["leaf_id"]) in {e["id"] for e in doc["nodes"] if "rule" not in e}

    def test_missing_covariate_schema_exit(self, fit_csv, tmp_path):
        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        cov = tmp_path / "cov.csv"
        cov.write_text("x_other:num\n1.0\n")
        rc = main(["predict", "--tree", str(out / "tree.json"), "--input", str(cov), "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_SCHEMA

    def test_short_row_is_schema_error(self, fit_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        cov = tmp_path / "cov.csv"
        cov.write_text("x_g:cat,x_z:num\na,0.5\nb\n")
        capsys.readouterr()
        rc = main(["predict", "--tree", str(out / "tree.json"), "--input", str(cov), "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema: ") and err[0].endswith("short row")

    def test_long_row_is_schema_error(self, fit_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        cov = tmp_path / "cov.csv"
        cov.write_text("x_g:cat,x_z:num\na,0.5\na,b,0.5\n")
        capsys.readouterr()
        rc = main(["predict", "--tree", str(out / "tree.json"), "--input", str(cov), "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: schema: {cov}: line 3: long row"]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("doc", ['{"format_version": 1}', "not json at all", "[1, 2]",
                                     '{"format_version": 1, "family": "clayton", "covariates": [],'
                                     ' "nodes": [{"id": 0, "n": 5, "theta": 2.0, "tau": 0.5,'
                                     ' "loglik": 1.0, "rule": {"feature": 0, "kind": "num",'
                                     ' "threshold": 0.5}, "left": 1, "right": 2}]}'])
    def test_malformed_tree_is_schema_error(self, tmp_path, capsys, doc):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(doc)
        cov = tmp_path / "cov.csv"
        cov.write_text("g\na\n")
        rc = main(["predict", "--tree", str(tree_path), "--input", str(cov), "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: schema: ")


class TestSimulate:
    def test_smoke_and_summary_columns(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--families", "clayton", "--surfaces", "step",
                   "--sources", "U", "--reps", "2", "--n", "400", "--seed", "9",
                   "--repeats", "1", "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        cell = summary["cells"][0]
        assert {"mse_tau", "mse_copula", "loglik", "n_splits"} <= set(cell)
        rows = list(csv.reader(open(out / "records.tsv"), delimiter="\t"))
        assert rows[0] == ["format_version", "1"]

    def test_paper_preset_config_echo(self, tmp_path):
        out = tmp_path / "paper"
        rc = main(["simulate", "--scale", "paper", "--seed", "1", "--out", str(out), "--dry-run"])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["n_reps"] == 500
        assert summary["config"]["n"] == 1000

    @pytest.mark.parametrize("flag, runs", [("false", True), ("true", False), ("No", True), ("1", False)])
    def test_config_dry_run_is_a_boolean(self, tmp_path, flag, runs):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"dry_run = {flag}\nseed = 9\n")
        out = tmp_path / "sim"
        rc = main(["simulate", "--families", "clayton", "--surfaces", "step", "--sources", "U",
                   "--reps", "1", "--n", "200", "--min-leaf", "30", "--repeats", "1", "--out", str(out),
                   "--config", str(cfg)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert bool(summary["cells"]) == runs
        assert (out / "records.tsv").exists() == runs

    def test_invalid_family_exit(self, tmp_path):
        rc = main(["simulate", "--families", "gauss", "--seed", "1", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("flu") / "weekly.csv"
    write_flu_fixture_csv(path, seed=7, n_units=30, n_seasons=6, shift_season=3)
    return path


class TestFlu:
    def test_pipeline_and_determinism(self, fixture_csv, tmp_path):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        args = ["flu", "--input", str(fixture_csv), "--seed", "3", "--repeats", "5",
                "--min-leaf", "25"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        report = (out1 / "leaf_report.tsv").read_text().splitlines()
        assert report[1].split("\t") == ["leaf_id", "n", "tau", "theta", "loglik", "rules"]

    def test_conditional_beats_single_copula(self, fixture_csv, tmp_path):
        out = tmp_path / "f"
        assert main(["flu", "--input", str(fixture_csv), "--seed", "3",
                     "--repeats", "5", "--min-leaf", "25", "--out", str(out)]) == EXIT_OK
        rows = list(csv.reader(open(out / "prune_path.tsv"), delimiter="\t"))[2:]
        lls = {int(r[0]): float(r[1]) for r in rows}
        assert max(lls.values()) >= lls[1]

    def test_empty_after_filter(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text(
            "unit_id,iso_week,count_h1,count_h3,count_b\n"
            "u1,2015-W20,3,4,5\n"
        )
        rc = main(["flu", "--input", str(path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA

    def test_malformed_week_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,iso_week,count_h1,count_h3,count_b\n"
            "u1,2015/20,30,30,30\n"
        )
        rc = main(["flu", "--input", str(path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
