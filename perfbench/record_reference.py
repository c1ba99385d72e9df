"""Record reference.json: what each workload's reference inputs must produce.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are the reference (the
commit that introduced the benchmark).  For every workload it records
the selected tree (split features, thresholds, level sets, leaf count),
the chosen K and the leaf fits, or for study_step the records, of three
data seeds: the reference inputs of every run (run.REFERENCE_SEED) and
the inputs of the default and held-out seeds.  The calls go through
run.Run, as in a benchmark run.  Every recorded tree must split, so that
a change which stops splitting fails the output check.  A later change
that alters any of these fails the benchmark's output check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    seeds = [run.REFERENCE_SEED, run.data_seed(run.DEFAULT_SEED, 0),
             run.data_seed(run.HELDOUT_SEED, 0)]
    doc = {"data_seeds": seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        bench = run.Run(run.HERE.parent, workload, f"record-{workload}", reference={})
        doc["workloads"][workload] = {}
        for seed in seeds:
            res = bench.call(seed)
            if res is None:
                raise SystemExit(f"{workload}: {bench.failures}")
            sig = workloads.signature(workload, str(bench.work / res["tag"]))
            if not workloads.has_splits(workload, sig):
                raise SystemExit(f"{workload} data seed {seed}: the selected tree does not "
                                 "split; choose another reference seed")
            doc["workloads"][workload][str(seed)] = sig
            print(f"{workload} data seed {seed}: tau_mse {res['tau_mse']:.6g}")
        shutil.rmtree(bench.work)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
