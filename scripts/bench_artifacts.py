#!/usr/bin/env python3
"""Write every benchmark workload's inputs and artifacts for a fixed set of data seeds.

    python scripts/bench_artifacts.py OUT

For each workload of perfbench/workloads.py and each data seed, OUT/WORKLOAD/SEED
gets the generated inputs (``inputs/``), the CLI's ``--out`` directory (``out/``)
and, for flu, the follow-up ``predict`` output (``out.predict.csv``).  The
calls are the benchmark's own, made in this process with the copulatree of
this checkout's ``src``.  OUT/study_all/out then gets one small study of all
nine family x surface cells: study_step is Clayton's alone, so no workload
reaches Frank's or Gumbel's ``cdf`` or fits a Gumbel copula.  Two checkouts'
outputs compare with ``diff -r``.
"""

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
            for argv in workloads.cli_argv(workload, seed, inputs, os.path.join(base, "out")):
                if argv and main(argv) != 0:
                    raise SystemExit(f"{workload} seed {seed}: {argv[0]} failed")
    if main(STUDY_ALL + ["--out", os.path.join(out, "study_all", "out")]) != 0:
        raise SystemExit("study_all: simulate failed")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    write_all(sys.argv[1])
