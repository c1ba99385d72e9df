#!/usr/bin/env python3
"""Write every benchmark workload's inputs and artifacts for a fixed set of data seeds.

    python scripts/bench_artifacts.py OUT

For each workload of perfbench/workloads.py and each data seed, OUT/WORKLOAD/SEED
gets the generated inputs (``inputs/``), the CLI's ``--out`` directory (``out/``)
and, for flu and fit_exhaustive, a ``predict`` output (``out.predict.csv``).
The calls are the benchmark's own, made in this process with the copulatree
of this checkout's ``src``; fit_exhaustive's ``predict`` is added here, so that
the fit header convention (``x_<name>:num``) goes through ``predict`` too, where
flu's ``ilr.csv`` has plain column names.  OUT/study_all/out then gets one small
study of all nine family x surface cells: study_step is Clayton's alone, so no
workload reaches Frank's or Gumbel's ``cdf`` or fits a Gumbel copula.

Last it prints one line, ``<count> files, sha256 <hex>``: the number of files
under OUT and one sha256 over each file's path relative to OUT (``/``-separated),
its size and its bytes, in sorted path order.  Two checkouts wrote the same
files exactly when they print the same line; ``diff -r`` names the ones that differ.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from copulatree.cli import main  # noqa: E402

DATA_SEEDS = (20242, 1000, 2000)
STUDY_ALL = ["simulate", "--families", "all", "--surfaces", "all", "--reps", "1", "--n", "300",
             "--repeats", "1", "--jobs", "1", "--seed", str(DATA_SEEDS[0])]


def write_all(out: str) -> None:
    for workload in workloads.WORKLOADS:
        for seed in DATA_SEEDS:
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


def digest(out: str) -> str:
    """``<count> files, sha256 <hex>`` of every file under ``out``."""
    paths = sorted(os.path.relpath(os.path.join(d, f), out).replace(os.sep, "/")
                   for d, _, files in os.walk(out) for f in files)
    h = hashlib.sha256()
    for rel in paths:
        with open(os.path.join(out, rel), "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode() + data)
    return f"{len(paths)} files, sha256 {h.hexdigest()}"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    write_all(sys.argv[1])
    print(digest(sys.argv[1]))
