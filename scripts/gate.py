#!/usr/bin/env python3
"""Gate a change against its parent: the same bytes, the same counts, and paired times.

    python scripts/gate.py PARENT CHANGE [--pairs N]

PARENT and CHANGE are checkout roots.  Every run is a fresh child process
that imports one checkout's ``src`` and this checkout's ``perfbench/``.  One
JSON document goes to standard output; the exit code is 1 when a check
finds a difference.  The checks:

- ``artifacts``: each workload's inputs and ``--out`` files for data seeds
  20242, 1000 and 2000, a ``predict`` on each fit_exhaustive input (the fit
  header convention ``x_<name>:num``), and a small study of all nine family
  x surface cells (study_step alone fits no Gumbel and calls no Frank or
  Gumbel ``cdf``), written at full affinity and under ``taskset -c 0``.
  Every file that differs from the parent's full-affinity copy is named.
- ``uncapped``: the record digest (floats as ``float.hex``) and bounded
  Brent search count of six uncapped U-source Clayton study replications at
  n=1000, each keyed as ``run_study`` keys it.
- ``counters``: every ``tracer.EXACT`` counter of one traced ``child.py``
  call per workload, data seed 1000, under ``taskset -c 0``.
- ``timed_outputs``: every timed call below wrote the same ``--out`` files.

Each of ``--pairs`` rounds then calls every workload's timed CLI argv (data
seed 1000) in three fresh ``child.py`` processes, as the benchmark does: the
parent (A), the change (B) and the parent again (A', the A/A control), in
an order that rotates by round.  ``setup_s`` runs from launch to the
child's ``ready_time``, ``wall_s`` is the timed call and ``call_s`` their
sum.  Per workload and time the document gives the B/A and A'/A medians,
quartiles (``statistics.quantiles``, inclusive) and wins (rounds the later
side was faster), and a verdict: "faster" when the B/A median lies below
the A'/A quartiles and B was faster in at least nine rounds in ten,
"slower" in the mirror case, else "not resolved".
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(SCRIPTS), "perfbench")
sys.path.insert(0, PERFBENCH)

import run as perfbench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DATA_SEED = 1000
ARTIFACT_SEEDS = (20242, 1000, 2000)
STUDY_ALL = ["simulate", "--families", "all", "--surfaces", "all", "--reps", "1", "--n", "300",
             "--repeats", "1", "--jobs", "1", "--seed", str(ARTIFACT_SEEDS[0])]
UNCAPPED = ([("gentle_sigmoid", 20241, (cell, rep)) for cell in (0, 1) for rep in (0, 1)]
            + [("step", 20240, (0, rep)) for rep in (0, 1)])
PINNED = ["taskset", "-c", "0"]
ORDERS = (("A", "B", "A'"), ("B", "A'", "A"), ("A'", "A", "B"))
TIMES = ("setup_s", "wall_s", "call_s")


def write_artifacts(out: str) -> None:
    from copulatree.cli import main

    for workload in workloads.WORKLOADS:
        for seed in ARTIFACT_SEEDS:
            base = os.path.join(out, workload, str(seed))
            inputs = os.path.join(base, "inputs")
            workloads.write_inputs(workload, seed, inputs)
            calls = list(workloads.cli_argv(workload, seed, inputs, os.path.join(base, "out")))
            if workload == "fit_exhaustive":
                calls.append(["predict", "--tree", os.path.join(base, "out", "tree.json"),
                              "--input", os.path.join(inputs, "input.csv"),
                              "--out", os.path.join(base, "out.predict.csv")])
            for argv in calls:
                if argv and main(argv) != 0:
                    raise SystemExit(f"{workload} seed {seed}: {argv[0]} failed")
    if main(STUDY_ALL + ["--out", os.path.join(out, "study_all", "out")]) != 0:
        raise SystemExit("study_all: simulate failed")


def uncapped_replications() -> None:
    """Print the record digest and search count of each UNCAPPED replication as JSON."""
    from copulatree import copulas
    from copulatree import simulation as sim
    from copulatree._pcg64 import seed_words
    from copulatree.tree import StoppingConfig

    searches = 0
    fminbound = copulas._fminbound

    def counting(*args, **kwargs):
        nonlocal searches
        searches += 1
        return fminbound(*args, **kwargs)

    copulas._fminbound = counting
    config = sim.PipelineConfig(sources=("U",), stopping=StoppingConfig())
    rows = {}
    for surface, base, key in UNCAPPED:
        searches = 0
        scenario = sim.ScenarioSpec("clayton", surface, 1000, seed_words(base, spawn_key=key)[0])
        records = sim.run_replication(scenario, config, rep=key[1])
        text = "\n".join("\t".join(v.hex() if isinstance(v, float) else str(v) for v in vars(r).values())
                         for r in records)
        rows[f"{surface} {base} {key}"] = [hashlib.sha256(text.encode()).hexdigest()[:16], searches]
    print(json.dumps(rows))


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child(checkout: str, args: list[str], cwd: str, pinned: bool = False) -> str:
    """Standard output of one Python child importing ``checkout``'s copulatree."""
    proc = subprocess.run([*(PINNED if pinned else []), sys.executable, *args], cwd=cwd, text=True,
                          env=perfbench.child_env(Path(checkout) / "src"), capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def in_child(checkout: str, call: str, cwd: str, pinned: bool = False) -> str:
    """Run ``gate.<call>`` in a child process."""
    code = f"import sys; sys.path.append({SCRIPTS!r}); import gate; gate.{call}"
    return child(checkout, ["-c", code], cwd, pinned)


def cli_call(checkout: str, workload: str, work: str, tag: str, trace: bool = False) -> dict:
    """child.py's result of the workload's timed CLI call, with ``setup_s`` and the --out digest."""
    out, result = os.path.join(work, tag), os.path.join(work, tag + ".json")
    argv, _ = workloads.cli_argv(workload, DATA_SEED, os.path.join(work, workload, f"inputs-{DATA_SEED}"), out)
    trace_dir = tempfile.mkdtemp(dir=work) if trace else "-"
    launched = time.time()
    child(checkout, [os.path.join(PERFBENCH, "child.py"), "cli", result, trace_dir, "--", *argv], work, pinned=trace)
    with open(result) as fh:
        res = json.load(fh)
    if res["exit_code"] != 0:
        raise SystemExit(f"{checkout}: {workload} exited {res['exit_code']}")
    res["setup_s"] = res["ready_time"] - launched
    res["call_s"] = res["setup_s"] + res["wall_s"]
    res["digest"] = perfbench._digest(Path(out))
    shutil.rmtree(out)
    return res


def files(root: str) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def differing(a: str, b: str) -> list[str]:
    """Paths of the files that differ between trees ``a`` and ``b``, or are under one only."""
    fa, fb = files(a), files(b)
    return sorted(p for p in fa.keys() | fb.keys() if fa.get(p) != fb.get(p))


def check_artifacts(sides: dict, work: str) -> dict:
    trees = {}
    for side, checkout in sides.items():
        for label, pinned in (("", False), (" taskset -c 0", True)):
            trees[side + label] = out = os.path.join(work, "artifacts", side + label.replace(" ", "_"))
            log(f"artifacts: {side}{label or ' full affinity'}")
            in_child(checkout, f"write_artifacts({out!r})", work, pinned)
    differ = {label: differing(trees["parent"], tree) for label, tree in trees.items() if label != "parent"}
    return {"same": not any(differ.values()), "files": len(files(trees["parent"])), "differ": differ}


def check_uncapped(sides: dict, work: str) -> dict:
    rows = {}
    for side, checkout in sides.items():
        log(f"uncapped replications: {side}")
        rows[side] = json.loads(in_child(checkout, "uncapped_replications()", work))
    differ = [f"{key}: {row} -> {rows['change'][key]}" for key, row in rows["parent"].items()
              if row != rows["change"][key]]
    return {"same": not differ, "differ": differ, "parent": rows["parent"]}


def check_counters(sides: dict, work: str) -> dict:
    counters = {side: {} for side in sides}
    for workload in workloads.WORKLOADS:
        for side, checkout in sides.items():
            log(f"traced counters: {workload} {side}")
            layers = cli_call(checkout, workload, work, f"traced-{side}", trace=True)["layers"]
            counters[side][workload] = {name: layers[name] for name in tracer.EXACT}
    differ = [f"{workload} {name}: {value} -> {counters['change'][workload][name]}"
              for workload, values in counters["parent"].items() for name, value in values.items()
              if value != counters["change"][workload][name]]
    return {"same": not differ, "differ": differ, "parent": counters["parent"]}


def summary(ratios: list[float]) -> dict:
    q1, q2, q3 = quantiles(ratios, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "wins": sum(r < 1.0 for r in ratios), "ratios": ratios}


def verdict(ba: list[float], aa: list[float]) -> str:
    """'faster', 'slower' or 'not resolved': B/A ratios ``ba`` against the A'/A control ``aa``."""
    q1, _, q3 = quantiles(aa, n=4, method="inclusive")
    if median(ba) < q1 and 10 * sum(r < 1.0 for r in ba) >= 9 * len(ba):
        return "faster"
    if median(ba) > q3 and 10 * sum(r > 1.0 for r in ba) >= 9 * len(ba):
        return "slower"
    return "not resolved"


def paired_times(sides: dict, work: str, pairs: int) -> tuple[dict, dict, dict]:
    """(per workload and time the ratios' summaries and verdict, the timed_outputs check, host)."""
    checkouts = {"A": sides["parent"], "B": sides["change"], "A'": sides["parent"]}
    ratios = {w: {t: {"B/A": [], "A'/A": []} for t in TIMES} for w in workloads.WORKLOADS}
    digests = {w: set() for w in workloads.WORKLOADS}
    for i in range(pairs):
        for workload in workloads.WORKLOADS:
            res = {side: cli_call(checkouts[side], workload, work, "timed") for side in ORDERS[i % len(ORDERS)]}
            digests[workload].update(r["digest"] for r in res.values())
            for t in TIMES:
                ratios[workload][t]["B/A"].append(res["B"][t] / res["A"][t])
                ratios[workload][t]["A'/A"].append(res["A'"][t] / res["A"][t])
        log(f"round {i + 1} of {pairs}: wall_s B/A " + ", ".join(
            f"{w} {ratios[w]['wall_s']['B/A'][-1]:.3f}" for w in workloads.WORKLOADS))
    times = {w: {t: {**{k: summary(v) for k, v in r.items()}, "verdict": verdict(r["B/A"], r["A'/A"])}
                 for t, r in by_time.items()} for w, by_time in ratios.items()}
    differ = [w for w, d in digests.items() if len(d) > 1]
    return times, {"same": not differ, "differ": differ}, res["A"]["host"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=20)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")
    given = {"parent": args.parent, "change": args.change}
    sides = {side: os.path.abspath(path) for side, path in given.items()}
    for side, checkout in sides.items():
        if not os.path.isfile(os.path.join(checkout, "src", "copulatree", "cli.py")):
            p.error(f"{side}: no copulatree sources under {checkout}/src")

    started = time.monotonic()
    work = tempfile.mkdtemp(prefix="gate-")
    try:
        for workload in workloads.WORKLOADS:
            child(sides["parent"], [os.path.join(PERFBENCH, "child.py"), "gen", workload, os.path.join(work, workload),
                                    str(DATA_SEED)], work)
        checks = {"artifacts": check_artifacts(sides, work), "uncapped": check_uncapped(sides, work),
                  "counters": check_counters(sides, work)}
        times, checks["timed_outputs"], host = paired_times(sides, work, args.pairs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "host": {"nproc": len(os.sched_getaffinity(0)), **host,
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "checkouts": {side: {"path": given[side], "commit": subprocess.run(  # the checkout's own .git only
            ["git", f"--git-dir={checkout}/.git", f"--work-tree={checkout}", "describe", "--always", "--dirty"],
            capture_output=True, text=True).stdout.strip() or None} for side, checkout in sides.items()},
        "pairs": args.pairs,
        "checks": checks,
        "times": times,
        "seconds": round(time.monotonic() - started, 1),
    }, indent=1))
    return 0 if all(check["same"] for check in checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
