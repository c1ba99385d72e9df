"""End-to-end tests of the command-line surface (in-process)."""

import csv
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

import copulatree
from copulatree import _fork
from copulatree import copulas as cp
from copulatree import cli
from copulatree import compositional as co
from copulatree import margins as mg
from copulatree import pruning as pr
from copulatree import simulation as sim
from copulatree import tree as tr
from copulatree.cli import EXIT_CONFIG, EXIT_FIT, EXIT_OK, EXIT_SCHEMA, build_parser, main
from copulatree.fludata import write_flu_fixture_csv
from copulatree.margins import MarginTreeConfig
from copulatree.tree import StoppingConfig


# (config key, value, error message) of malformed values that fit and
# simulate both read; fit alone has --margin-min-leaf
BAD_VALUES = [
    ("max_candidates", "-1", "max_candidates must be >= 1 or unset"),
    ("max_candidates", "0", "max_candidates must be >= 1 or unset"),
    ("min_gain", "nan", "min_gain must be >= 0"),
    ("min_gain", "-inf", "min_gain must be >= 0"),
    ("repeats", "0", "repeats must be >= 1"),
    ("repeats", "-1", "repeats must be >= 1"),
    ("bandwidth", "nan", "bandwidth must be > 0, got nan"),
]
FIT_BAD_VALUES = BAD_VALUES + [
    ("margin_min_leaf", "0", "margin min_leaf must be >= 1"),
    ("margin_min_leaf", "-5", "margin min_leaf must be >= 1"),
]
# the fit --pseudo method that reads a key; fit reads every other key whatever the method
PSEUDO_READING = {"bandwidth": "kernel", "margin_min_leaf": "margin-tree"}


def bad_value_ids(cases):
    """Test ids: the bare value for max_candidates, key=value for the others."""
    return [value if key == "max_candidates" else f"{key}={value}" for key, value, _ in cases]


def with_bad_value(argv, tmp_path, key, value, via_config):
    """``argv`` setting ``key`` to ``value`` by flag or through a --config file."""
    if via_config:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {value}\n")
        return argv + ["--config", str(cfg)]
    return argv + [f"--{key.replace('_', '-')}={value}"]


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


def after_cli_import(expr: str, argv=None) -> str:
    """What ``expr`` (it may read ``sys``) prints in a fresh interpreter after
    ``import copulatree.cli`` and, given ``argv``, a successful CLI call."""
    src = os.path.dirname(os.path.dirname(copulatree.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    call = "" if argv is None else f"assert copulatree.cli.main({[str(a) for a in argv]!r}) == 0; "
    out = subprocess.run([sys.executable, "-c", f"import sys, copulatree.cli; {call}print({expr})"], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


# expressions that print the loaded modules an import guard forbids
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
POOL_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.'))"
# modules that no command needs, apart from the commands that NEEDED names
UNUSED = ("numpy.ma", "numpy.polynomial", "numpy.random", "secrets", "hashlib", "logging", "statistics", "decimal",
          "fractions", "copulatree.simulation", "copulatree.compositional", "copulatree._fork", "multiprocessing",
          "concurrent.futures")
NEEDED = {"fit": ("copulatree._fork",),
          "flu": ("copulatree.compositional", "copulatree._fork"),
          "simulate": ("copulatree.simulation", "logging", "statistics", "decimal", "fractions", "copulatree._fork")}


def test_cli_import_leaves_out_scipy_special():
    """The program runs on numpy alone: its optimizer and ranks live in the
    package, its normal CDF and quantile come from the standard library and
    its segment sums are numpy's, so the CLI loads no scipy module at all.
    Importing scipy.optimize and scipy.stats cost about 0.6 s of start-up,
    scipy.sparse about 0.2 s."""
    assert after_cli_import(SCIPY_LOADED) == "[]"


def test_cli_import_leaves_out_multiprocessing():
    """The fork map that spreads fold trees and replications uses ``os``
    alone; importing multiprocessing would cost every CLI call start-up time."""
    assert after_cli_import(POOL_LOADED) == "[]"


TRACER_INSTALL = """
import importlib, json, sys
sys.path[:0] = sys.argv[1:]
import tracer
wrappers = tracer.install(tracer.Tracer())
wanted = [f"{module}.{name}" for module, names in tracer.WRAPPED.items() for name in names]
bound = [qual for qual, wrapper in wrappers.items()
         if getattr(importlib.import_module("copulatree." + qual.split(".")[0]), qual.split(".")[1]) is wrapper]
print(json.dumps([wanted, bound]))
"""


def test_benchmark_tracer_installs():
    """The benchmark's tracer (perfbench/tracer.py) wraps package functions
    by module attribute and fails its install on a name that is gone or on
    a reference it cannot rebind (a dict, a default argument, a partial);
    every benchmark run would then fail."""
    src = os.path.dirname(os.path.dirname(copulatree.__file__))
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    out = subprocess.run([sys.executable, "-c", TRACER_INSTALL, src, perfbench], capture_output=True, text=True,
                         check=True)
    wanted, bound = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(wanted) == len(set(wanted)) > 0
    assert sorted(bound) == sorted(wanted)


def fit_margin_tree_argv(fit_csv, out):
    return ["fit", "--input", fit_csv, "--out", out, "--family", "clayton", "--pseudo", "margin-tree",
            "--seed", "5", "--repeats", "1", "--min-leaf", "50", "--max-candidates", "16"]


def test_fit_leaves_out_scipy_and_multiprocessing(fit_csv, tmp_path):
    argv = fit_margin_tree_argv(fit_csv, tmp_path / "o")
    assert after_cli_import(f"{SCIPY_LOADED} + {POOL_LOADED}", argv) == "[]"


@pytest.mark.parametrize("call", ["import", "fit", "predict", "flu", "simulate"])
def test_cli_loads_only_what_the_command_runs(call, fit_csv, fixture_csv, tmp_path):
    """Start-up and each command leave out what they do not run:
    - the study (``simulation``, which brings ``logging``, and ``statistics``
      for the normal quantile, with its ``decimal`` and ``fractions``) and
      the flu ingest (``compositional``), outside ``simulate`` and ``flu``;
    - the fork map (``_fork``), outside the commands that fit pruned trees,
      so that start-up does not compile it;
    - numpy.ma, which ``np.unique`` and ``np.percentile`` import (9-15 ms and
      0.5 MiB), where ``data.unique`` and ``simulation._quartiles`` do not;
    - numpy.polynomial, whose ``polyval`` ``copulas._polyval`` replaces;
    - numpy.random, with the ``secrets`` and OpenSSL ``hashlib`` it imports
      (about 6 MiB and 14 ms), whose streams ``_pcg64`` reproduces;
    - multiprocessing and concurrent.futures, as ``_fork.fork_map`` forks
      with ``os`` alone."""
    argv = {
        "import": None,
        "fit": fit_margin_tree_argv(fit_csv, tmp_path / "o"),
        "predict": ["predict", "--tree", tmp_path / "fit" / "tree.json", "--input", fit_csv,
                    "--out", tmp_path / "p.csv"],
        "flu": ["flu", "--input", fixture_csv, "--out", tmp_path / "o", "--seed", "3", "--repeats", "1",
                "--min-leaf", "25"],
        "simulate": ["simulate", "--families", "clayton", "--surfaces", "step", "--reps", "2", "--jobs", "2",
                     "--n", "300", "--repeats", "1", "--min-leaf", "30", "--seed", "1", "--out", tmp_path / "o"],
    }[call]
    if call == "predict":
        assert run_fit(fit_csv, tmp_path / "fit") == EXIT_OK
    unused = [m for m in UNUSED if m not in NEEDED.get(call, ())]
    assert after_cli_import(f"sorted(m for m in {unused!r} if m in sys.modules)", argv) == "[]"


PACKAGE_MODULES = ["copulatree"] + [f"copulatree.{m.name}" for m in pkgutil.iter_modules(copulatree.__path__)]


def test_python_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(copulatree.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "copulatree", "fit"], env=env, capture_output=True, text=True)
    assert out.returncode == EXIT_CONFIG
    assert out.stderr.splitlines() == ["error: config: --input is required (flag or config file)"]


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_every_exported_name_resolves(module):
    """No ``__all__`` names something its module no longer defines."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


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
        """The tables read back with the csv module, every field parsing;
        the TSVs open with the format_version row and then their header."""
        from copulatree.serialize import read_tree_json

        def table(name, delimiter):
            with open(out / name, newline="") as fh:
                return list(csv.reader(fh, delimiter=delimiter))

        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        tree = read_tree_json(out / "tree.json")
        path_table = table("prune_path.tsv", "\t")
        cv_table = table("cv_report.tsv", "\t")
        pred_table = table("predictions.csv", ",")
        assert path_table[:2] == [["format_version", "1"], ["K", "train_loglik", "lambda_lo", "lambda_hi"]]
        assert cv_table[:2] == [["format_version", "1"], ["K", "mean_val_loglik", "se", "n_folds"]]
        assert pred_table[0] == ["row_id", "leaf_id", "theta", "tau"]
        path_rows = [(int(k), float(ll), float(lo), float(hi)) for k, ll, lo, hi in path_table[2:]]
        cv_rows = [(int(k), float(mean), float(se), int(n)) for k, mean, se, n in cv_table[2:]]
        preds = [(int(r), int(leaf), float(th), float(ta)) for r, leaf, th, ta in pred_table[1:]]
        assert any(k == tree.n_leaves for k, *_ in path_rows)  # selected K on the path
        assert all(se >= 0 for _, _, se, _ in cv_rows)
        assert len(preds) == len(list(csv.reader(open(fit_csv)))) - 1
        assert {leaf for _, leaf, _, _ in preds} == {l.id for l in tree.leaves()}

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

    @pytest.mark.parametrize("key, value, message", FIT_BAD_VALUES, ids=bad_value_ids(FIT_BAD_VALUES))
    @pytest.mark.parametrize("via_config", [False, True])
    def test_max_candidates_below_one_is_config_error(self, fit_csv, tmp_path, capsys, key, value, message, via_config):
        """Each malformed value, max_candidates below one among them, is one config-error line."""
        argv = ["fit", "--input", str(fit_csv), "--out", str(tmp_path / "o"), "--family", "clayton", "--seed", "1",
                "--pseudo", PSEUDO_READING.get(key, "empirical")]
        assert main(with_bad_value(argv, tmp_path, key, value, via_config)) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config: {message}"]

    def test_repeated_covariate_name_is_schema_error(self, fit_csv, tmp_path, capsys):
        """``x_z:num`` and ``x_z:cat`` would both be covariate z, and predict
        finds a tree's covariates by name."""
        rows = fit_csv.read_text().splitlines()
        twice = tmp_path / "twice.csv"
        twice.write_text("\n".join([rows[0] + ",x_z:cat"] + [row + ",c" for row in rows[1:]]) + "\n")
        assert run_fit(twice, tmp_path / "fit") == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: schema: {twice}: covariate name 'z' appears twice"]
        assert not (tmp_path / "fit").exists()

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
    @pytest.mark.parametrize("key, value, message", BAD_VALUES, ids=bad_value_ids(BAD_VALUES))
    @pytest.mark.parametrize("via_config", [False, True])
    def test_max_candidates_below_one_is_config_error(self, tmp_path, capsys, key, value, message, via_config):
        """Each malformed value, max_candidates below one among them, is one config-error line."""
        argv = ["simulate", "--families", "clayton", "--surfaces", "step", "--reps", "1", "--n", "200",
                "--seed", "1", "--out", str(tmp_path / "sim")]
        assert main(with_bad_value(argv, tmp_path, key, value, via_config)) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: config: {message}"]


# (flags, error message) of CV and growth options every command checks before it works
EARLY_BAD = [
    (["--repeats", "0"], "repeats must be >= 1"),
    (["--folds", "1"], "folds must be >= 2"),
    (["--max-candidates", "0"], "max_candidates must be >= 1 or unset"),
    (["--seed", "-3"], "seed must be >= 0, got -3"),
]
# (flags, error message) of study sizes and sources that simulate checks before it works
SIMULATE_BAD = [
    (["--reps", "0"], "reps must be >= 1, got 0"),
    (["--reps", "-1"], "reps must be >= 1, got -1"),
    (["--jobs", "0"], "jobs must be >= 1, got 0"),
    (["--n", "0"], "n must be >= 1, got 0"),
    (["--n", "-5"], "n must be >= 1, got -5"),
    (["--sources", "X"], "unknown pseudo source 'X'"),
    (["--sources", "U,X"], "unknown pseudo source 'X'"),
    # a repeated name would run and count its cells or source twice
    (["--families", "clayton,clayton"], "family 'clayton' appears twice"),
    (["--families", "clayton,CLAYTON"], "family 'clayton' appears twice"),
    (["--surfaces", "step,step"], "surface 'step' appears twice"),
    (["--sources", "U,U"], "pseudo source 'U' appears twice"),
]
EARLY_CASES = [pytest.param(command, flags, message, id=f"{command}-{flags[0][2:]}")
               for command in ("fit", "flu", "simulate") for flags, message in EARLY_BAD]
EARLY_CASES += [pytest.param("simulate", flags, message, id=f"simulate-{flags[0][2:]}={flags[1]}")
                for flags, message in SIMULATE_BAD]


@pytest.mark.parametrize("command, flags, message", EARLY_CASES)
def test_bad_options_fail_before_any_work(command, flags, message, fit_csv, fixture_csv, tmp_path, capsys,
                                          monkeypatch):
    """A bad option exits 4 before any input is read, any data is generated
    or any tree is grown."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the options were checked")

    for module, name in ((cli, "read_fit_csv"), (co, "read_weekly_csv"), (tr, "grow"), (mg, "grow"),
                         (sim, "generate")):
        monkeypatch.setattr(module, name, refuse)
    argv = {
        "fit": ["fit", "--input", str(fit_csv), "--family", "clayton", "--pseudo", "margin-tree"],
        "flu": ["flu", "--input", str(fixture_csv)],
        "simulate": ["simulate", "--families", "clayton", "--surfaces", "step", "--reps", "1", "--n", "200"],
    }[command]
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "o")] + flags) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [f"error: config: {message}"]


@pytest.mark.parametrize("command", ["fit", "flu", "simulate", "simulate --dry-run"])
def test_too_few_rows_for_cv_fail_before_any_work(command, fit_csv, tmp_path, capsys, monkeypatch):
    """Fewer rows than folds * 2 * min_leaf exit 3 before any pseudo-observations
    are built, any data is generated, any row table is built or any tree is
    grown; a study's dry run rejects what its real run would."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the row count was checked")

    for module, name in ((tr, "build_maximal_tree"), (pr, "build_maximal_tree"), (tr, "_row_table"),
                         (pr, "_row_table"), (mg, "pseudo_margin_tree"), (cli, "pseudo_margin_tree"),
                         (sim, "generate")):
        monkeypatch.setattr(module, name, refuse)
    flu_csv = tmp_path / "flu.csv"
    write_flu_fixture_csv(flu_csv, seed=1000)  # 720 unit-seasons
    simulate = ["simulate", "--families", "clayton", "--surfaces", "step", "--reps", "1", "--n", "200",
                "--min-leaf", "50"]
    argv, need, got = {
        "fit": (["fit", "--input", str(fit_csv), "--family", "clayton", "--pseudo", "margin-tree",
                 "--min-leaf", "70"], 420, 400),
        "flu": (["flu", "--input", str(flu_csv), "--min-leaf", "130"], 780, 720),
        "simulate": (simulate, 300, 200),
        "simulate --dry-run": (simulate + ["--dry-run"], 300, 200),
    }[command]
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "o")]) == EXIT_FIT
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: fit: need at least folds * 2 * min_leaf = {need} rows, got {got}"
    ]


def with_bad_line(good, line, mutate, tmp_path):
    """A copy of the CSV ``good`` whose 0-based ``line`` is ``mutate(line)``."""
    lines = good.read_bytes().split(b"\n")
    lines[line] = mutate(lines[line])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines))
    return bad


def argv_reading(command, path, tmp_path):
    """A ``fit``, ``flu`` or ``predict`` call that reads ``path``; predict's
    tree has one categorical covariate and no split."""
    if command != "predict":
        return [command, "--input", str(path), "--seed", "1", "--out", str(tmp_path / "o")] + (
            ["--family", "clayton"] if command == "fit" else [])
    doc = {"format_version": 1, "family": "clayton", "covariates": [{"name": "g", "kind": "cat", "levels": ["a"]}],
           "nodes": [{"id": 0, "n": 100, "theta": 2.0, "tau": 0.5, "loglik": 10.0}]}
    (tmp_path / "tree.json").write_text(json.dumps(doc))
    return ["predict", "--tree", str(tmp_path / "tree.json"), "--input", str(path), "--out", str(tmp_path / "p.csv")]


@pytest.mark.parametrize("command, message", [
    ("fit", "{bad}: not UTF-8 text"),
    ("predict", "{bad}: not UTF-8 text"),
    ("flu", "{bad} row 3: not UTF-8 text"),
], ids=["fit", "predict", "flu"])
def test_undecodable_input_is_schema_error(command, message, fit_csv, fixture_csv, tmp_path, capsys):
    """Invalid UTF-8 in an input CSV (on its fifth line) is one schema-error
    line, not a UnicodeDecodeError traceback; flu's streamed ingest names
    the row."""
    bad = with_bad_line(fixture_csv if command == "flu" else fit_csv, 4, lambda line: b"\xff" + line, tmp_path)
    assert main(argv_reading(command, bad, tmp_path)) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: schema: " + message.format(bad=bad)]


@pytest.mark.parametrize("command, line, message", [
    ("fit", 4, "{bad}: row 5: field larger than field limit (131072)"),
    ("predict", 4, "{bad}: row 5: field larger than field limit (131072)"),
    ("flu", 4, "{bad} row 3: field larger than field limit (131072)"),
    ("flu", 0, "{bad}: header: field larger than field limit (131072)"),
], ids=["fit", "predict", "flu", "flu-header"])
def test_overlong_field_is_schema_error(command, line, message, fit_csv, fixture_csv, tmp_path, capsys):
    """A quoted field longer than ``csv.field_size_limit()`` is one
    schema-error line that names its row, not a ``_csv.Error`` traceback."""
    overlong = lambda text: b'"' + b"a" * 200_000 + b'",' + text
    bad = with_bad_line(fixture_csv if command == "flu" else fit_csv, line, overlong, tmp_path)
    assert main(argv_reading(command, bad, tmp_path)) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: schema: " + message.format(bad=bad)]


@pytest.mark.parametrize("command", ["fit", "flu", "simulate"])
def test_undecodable_config_is_config_error(command, fit_csv, fixture_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"seed = 1\nfamily = clayton\xff\n")
    argv = {
        "fit": ["fit", "--input", str(fit_csv)],
        "flu": ["flu", "--input", str(fixture_csv)],
        "simulate": ["simulate"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "o"), "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.strip().splitlines() == [f"error: config: {cfg}: not UTF-8 text"]


@pytest.mark.parametrize("command", ["fit", "flu"])
def test_margin_tree_fallback_is_one_warning_line_and_a_report_note(command, fit_csv, fixture_csv, tmp_path,
                                                                    capsys):
    """A margin tree that cannot split falls back to empirical ranks. The run
    says so in one ``warning: pseudo:`` line and in cv_report.json's notes,
    not in a Python warning that shows a source path."""
    argv = {
        "fit": fit_margin_tree_argv(str(fit_csv), str(tmp_path / "o")),
        "flu": ["flu", "--input", str(fixture_csv), "--out", str(tmp_path / "o"), "--seed", "3", "--repeats", "1",
                "--min-leaf", "25"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--margin-min-leaf", "100000"]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == ["warning: pseudo: margin_tree: fallback_empirical"]
    assert "fallback_empirical" in json.loads((tmp_path / "o" / "cv_report.json").read_text())["notes"]


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

    def test_fit_convention_column_wins_over_a_plain_one(self, fit_csv, tmp_path):
        """``fit`` ignores a column named ``g`` beside ``x_g:cat``; ``predict``
        must read ``x_g:cat`` too, or it routes rows by the other column."""
        rows = list(csv.reader(open(fit_csv)))
        both = tmp_path / "both.csv"
        with open(both, "w", newline="") as fh:
            csv.writer(fh).writerows([["g"] + rows[0]] + [["ba"[r[2] == "b"]] + r for r in rows[1:]])
        out = tmp_path / "fit"
        assert run_fit(both, out) == EXIT_OK
        assert json.loads((out / "tree.json").read_text())["nodes"][0]["rule"]["kind"] == "cat"
        pred = tmp_path / "p.csv"
        assert main(["predict", "--tree", str(out / "tree.json"), "--input", str(both), "--out", str(pred)]) == EXIT_OK
        assert pred.read_bytes() == (out / "predictions.csv").read_bytes()

    def test_covariate_matched_twice_is_schema_error(self, fit_csv, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run_fit(fit_csv, out) == EXIT_OK
        cov = tmp_path / "cov.csv"
        cov.write_text("x_g:cat,x_z:num,x_z:cat\na,0.5,0.5\n")
        capsys.readouterr()
        rc = main(["predict", "--tree", str(out / "tree.json"), "--input", str(cov), "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_SCHEMA
        assert capsys.readouterr().err.splitlines() == [f"error: schema: {cov}: covariate column 'z' appears twice"]

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
                                     pytest.param("1" + "0" * 5000, id="int-over-4300-digits"),
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

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["nodes"][0].update(left=[1]),
        lambda doc: doc["nodes"][0].update(right={"a": 1}),
        lambda doc: doc["nodes"][0].update(left=True),
        lambda doc: doc["nodes"][0].update(left=1.0),
        lambda doc: doc["nodes"][0]["rule"].update(feature=False),
        lambda doc: doc.update(format_version=True),
        lambda doc: doc["covariates"][0].update(name=["x"]),
        lambda doc: doc["nodes"][2].update(id=1),
        lambda doc: doc["nodes"][1].update(theta=10**400),
        lambda doc: doc["nodes"][0]["rule"].update(threshold=10**400),
        lambda doc: (doc["nodes"][1].update(id=2**63), doc["nodes"][0].update(left=2**63)),
        # values outside what a fit writes: a theta outside Clayton's domain,
        # every theta and tau NaN or -7.0 (in Frank's domain, so its tau
        # gives it away), a tau one ulp off its theta's, a non-finite
        # loglik, an n below 1, and children whose n do not add up
        lambda doc: doc["nodes"][1].update(theta=float("nan")),
        lambda doc: doc["nodes"][1].update(theta=float("inf")),
        lambda doc: doc["nodes"][1].update(theta=-7.0),
        lambda doc: [e.update(theta=float("nan"), tau=float("nan")) for e in doc["nodes"]],
        lambda doc: (doc.update(family="frank"), [e.update(theta=-7.0, tau=-7.0) for e in doc["nodes"]]),
        lambda doc: doc["nodes"][2].update(tau=math.nextafter(doc["nodes"][2]["tau"], 1.0)),
        lambda doc: doc["nodes"][1].update(loglik=float("nan")),
        lambda doc: doc["nodes"][0].update(loglik=-float("inf")),
        lambda doc: (doc["nodes"][1].update(n=0), doc["nodes"][0].update(n=10)),
        lambda doc: (doc["nodes"][1].update(n=-10), doc["nodes"][0].update(n=0)),
        lambda doc: doc["nodes"][0].update(n=21),
    ])
    def test_wrongly_typed_tree_field_is_schema_error(self, tmp_path, capsys, edit):
        """An id, feature or format_version that is not an integer (a bool is
        not), a covariate name that is not a string, a repeated id, a number
        no float holds, an id over int64 and a node no fit writes are one
        schema-error line each, not a traceback or a silent 1."""
        doc = chain_doc(1)
        edit(doc)
        rc = main(predict_chain(tmp_path, doc, [0.5]))
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_SCHEMA and len(err) == 1 and err[0].startswith("error: schema: tree document: "), err

    def test_deep_chain_predicts_every_row(self, tmp_path):
        """A 2,000-level tree document reads back without recursion."""
        values = [-1.0, 0.5, 1000.5, 5000.0]
        assert main(predict_chain(tmp_path, chain_doc(2000), values)) == EXIT_OK
        rows = list(csv.DictReader(open(tmp_path / "p.csv")))
        assert [int(r["leaf_id"]) for r in rows] == [1, 3, 2003, 4000]


def chain_doc(depth: int) -> dict:
    """A Clayton tree document whose internal node 2i splits x at i, its left
    child a leaf and its right child the next internal node, ``depth`` levels
    deep.  Each leaf holds 10 rows, and node i has theta 1 + i and its tau."""
    def node(i, n=10, **rest):
        return {"id": i, "n": n, "theta": 1.0 + i, "tau": cp.theta_to_tau(cp.spec_for("clayton"), 1.0 + i),
                "loglik": 0.0, **rest}

    nodes = [node(2 * i, 10 * (depth - i + 1), rule={"feature": 0, "kind": "num", "threshold": float(i)},
                  left=2 * i + 1, right=2 * i + 2) for i in range(depth)]
    nodes += [node(2 * i + 1) for i in range(depth)] + [node(2 * depth)]
    return {"format_version": 1, "family": "clayton", "nodes": nodes, "covariates": [{"name": "x", "kind": "num"}]}


def predict_chain(tmp_path, doc, values) -> list[str]:
    """``predict`` argv for tree ``doc`` on covariate x = ``values``."""
    (tmp_path / "tree.json").write_text(json.dumps(doc))
    (tmp_path / "cov.csv").write_text("x\n" + "".join(f"{v!r}\n" for v in values))
    return ["predict", "--tree", str(tmp_path / "tree.json"), "--input", str(tmp_path / "cov.csv"),
            "--out", str(tmp_path / "p.csv")]


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

    def test_two_jobs_write_the_same_bytes(self, tmp_path):
        argv = ["simulate", "--families", "clayton", "--surfaces", "step", "--sources", "U",
                "--reps", "2", "--n", "400", "--seed", "9", "--repeats", "1"]
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == EXIT_OK
        for name in ("records.tsv", "summary.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_family_names_are_written_canonical(self, tmp_path):
        """A family given as ``Clayton`` is the study of ``clayton``, and
        writes its name, and every other byte, as ``clayton`` does."""
        argv = ["simulate", "--surfaces", "step", "--sources", "U", "--reps", "1", "--n", "200",
                "--min-leaf", "30", "--seed", "9", "--repeats", "1"]
        for name in ("clayton", "Clayton"):
            assert main(argv + ["--families", name, "--out", str(tmp_path / name)]) == EXIT_OK
        for artifact in ("records.tsv", "summary.json"):
            assert (tmp_path / "Clayton" / artifact).read_bytes() == (tmp_path / "clayton" / artifact).read_bytes()

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

    def test_output_does_not_depend_on_the_worker_count(self, fixture_csv, tmp_path, monkeypatch):
        args = ["flu", "--input", str(fixture_csv), "--seed", "3", "--repeats", "5", "--min-leaf", "25"]
        for workers in (1, 3):
            monkeypatch.setattr(_fork, "cpus", lambda: workers)
            assert main(args + ["--out", str(tmp_path / str(workers))]) == EXIT_OK
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        for name in os.listdir(tmp_path / "1"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

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

    def test_short_row_is_schema_error(self, fixture_csv, tmp_path, capsys):
        short = tmp_path / "short.csv"
        lines = fixture_csv.read_text().splitlines()
        short.write_text("\n".join(lines + ["u1,2010-W40,3"]) + "\n")
        rc = main(["flu", "--input", str(short), "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: schema: {short} row {len(lines) - 1}: short row"]
        assert not (tmp_path / "o").exists()

    def test_malformed_week_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,iso_week,count_h1,count_h3,count_b\n"
            "u1,2015/20,30,30,30\n"
        )
        rc = main(["flu", "--input", str(path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == EXIT_SCHEMA
