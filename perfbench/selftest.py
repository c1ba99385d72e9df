"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They run the real CLI in child processes (a few minutes in all).  The
file is not named test_*.py so the repository's own suite does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELDOUT_SEED])
def test_exact_counters_repeat_and_artifacts_match(workload, seed, capsys):
    """Two traced calls of one data seed give the same exact counters, and
    their artifacts are byte-identical to an untraced call's and match
    reference.json."""
    bench = run.Run(ROOT, workload, f"selftest-{workload}-seed{seed}")
    data_seed = run.data_seed(seed, 0)
    calls = [bench.call(data_seed), bench.call(data_seed, traced=True),
             bench.call(data_seed, traced=True)]
    assert bench.failures == {}
    assert str(data_seed) in bench.reference, "reference.json does not pin this seed"
    assert len({c["digest"] for c in calls}) == 1
    first, second = calls[1]["layers"], calls[2]["layers"]
    assert {n: first[n] for n in tracer.EXACT} == {n: second[n] for n in tracer.EXACT}
    assert first["copulas.fit_mle.calls"] > 0 and first["tree.split_fits"] > 0
    with capsys.disabled():
        print(f"\n{workload} seed {seed}: " + ", ".join(f"{n}={first[n]}" for n in tracer.EXACT))


def test_rounds_call_every_input_equally_often(monkeypatch):
    bench = run.Run(ROOT, "flu", "selftest-rounds", reference={})
    made = []
    monkeypatch.setattr(bench, "call", lambda seed, traced=False: made.append(seed) or {})
    calls = bench.rounds([5, 6], [False, False], seconds=0.0)
    assert made == [5, 6, 5, 6] and [len(c) for c in calls] == [2, 2]


def test_tracer_rebinds_every_reference():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer, copulatree.cli\n"
        "from copulatree import tree, cli, copulas, pruning\n"
        "w = tracer.install(tracer.Tracer())\n"
        "assert tree.fit_mle is w['copulas.fit_mle'] is copulas.fit_mle\n"
        "assert tree._log_density is w['copulas.log_density']\n"
        "assert cli.fit_pruned_tree is w['pruning.fit_pruned_tree'] is pruning.fit_pruned_tree\n"
        "import copulatree; assert copulatree.fit_mle is w['copulas.fit_mle']\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE)], env=run.child_env(ROOT / "src"),
                   check=True)


def test_tracer_reports_a_missed_binding():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer, copulatree.cli\n"
        "from copulatree import copulas\n"
        "copulas.HIDDEN = (copulas.fit_mle,)\n"
        "try:\n"
        "    tracer.install(tracer.Tracer())\n"
        "except RuntimeError as exc:\n"
        "    assert 'copulas.fit_mle' in str(exc), exc\n"
        "else:\n"
        "    raise SystemExit('install did not notice the hidden reference')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE)], env=run.child_env(ROOT / "src"),
                   check=True)


def test_self_time_subtracts_direct_children():
    spans = [
        ["pruning.cross_validate", 0.0, 10.0, -1, None],
        ["tree.build_maximal_tree", 1.0, 5.0, 0, None],
        ["tree.find_optimal_split", 1.5, 4.5, 1, False],
        ["copulas.fit_mle", 2.0, 3.0, 2, [40, True, False]],
        ["copulas.fit_mle", 5.0, 6.0, 0, [60, False, True]],
    ]
    m = tracer.layer_metrics(spans)
    assert m["pruning.cross_validate.self_s"] == 10.0 - 4.0 - 1.0
    assert m["tree.find_optimal_split.self_s"] == 3.0 - 1.0
    assert m["tree.split_fits"] == 1 and m["pruning.cv_fold_trees"] == 1
    assert m["copulas.fit_mle.rows"] == 100
    assert m["copulas.fit_mle.not_converged"] == 1 and m["copulas.fit_mle.at_bound"] == 1


def test_every_reference_tree_splits():
    """A program that stops splitting must fail the output check on every
    pinned input, the reference inputs of every run included."""
    doc = json.loads((HERE / "reference.json").read_text())
    assert str(run.REFERENCE_SEED) in map(str, doc["data_seeds"])
    for workload in workloads.WORKLOADS:
        pinned = doc["workloads"][workload]
        assert sorted(pinned) == sorted(map(str, doc["data_seeds"]))
        for seed, sig in pinned.items():
            assert workloads.has_splits(workload, sig), (workload, seed)


def test_reference_check_rejects_another_tree():
    ref = json.loads((HERE / "reference.json").read_text())["workloads"]["flu"]
    sig = ref[str(run.REFERENCE_SEED)]
    other = json.loads(json.dumps(sig))
    other["chosen_k"] += 1
    assert workloads.compare("flu", sig, sig) == []
    assert workloads.compare("flu", other, sig)
    noisy = json.loads(json.dumps(sig))
    noisy["leaves"][0]["tau"] += 1e-12
    assert workloads.compare("flu", noisy, sig) == []
    noisy["leaves"][0]["tau"] += 1e-6
    assert workloads.compare("flu", noisy, sig)


def test_without_the_program_it_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flu",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
