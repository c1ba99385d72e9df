#!/usr/bin/env python3
"""Paired fresh-process wall times of two checkouts on one benchmark workload.

    python scripts/paired_wall.py PARENT CHANGE --workload W --pairs N
                                  [--data-seed S] [--json PATH]

PARENT and CHANGE are the roots of two checkouts.  Each round makes three
calls of the workload's timed CLI argv (perfbench/workloads.py) on the same
generated inputs, each a fresh ``perfbench/child.py`` process, as the
benchmark makes them: the parent (A), the change (B) and the parent again
(A', the A/A control).  The order of the three rotates from round to round,
so no side always runs first or last.  A round gives the ratios B/A and
A'/A of ``wall_s``.

Pairing within a round cancels the host's slow drift, and a fresh process
per call avoids the bias of importing two copies into one process.  A
change shows when the B/A median lies outside the A'/A quartiles and the
A/A median is near 1.  The last line of output is the JSON summary: per
comparison the median ratio, its quartiles (``statistics.quantiles``,
inclusive), the rounds in which the later side was faster ("wins") and
the number of rounds, plus whether every call's ``--out`` files were
identical.  perfbench/ is read, never edited.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import run as perfbench  # noqa: E402
import workloads  # noqa: E402

ORDERS = (("A", "B", "A'"), ("B", "A'", "A"), ("A'", "A", "B"))


def child(checkout: str, args: list[str], cwd: str) -> None:
    """One perfbench child process importing ``checkout``'s copulatree."""
    env = perfbench.child_env(Path(checkout) / "src")
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: child.py {args[0]} exited {proc.returncode}:\n{proc.stdout}")


def call(checkout: str, workload: str, seed: int, work: str, tag: str) -> tuple[float, str]:
    """(wall_s, digest of the --out files) of one timed CLI call."""
    out = os.path.join(work, tag)
    argv, _ = workloads.cli_argv(workload, seed, os.path.join(work, "inputs"), out)
    result = os.path.join(work, tag + ".json")
    child(checkout, ["cli", result, "-", "--", *argv], work)
    with open(result) as fh:
        res = json.load(fh)
    if res["exit_code"] != 0:
        raise SystemExit(f"{checkout}: {workload} exited {res['exit_code']}")
    digest = perfbench._digest(Path(out))
    shutil.rmtree(out)
    return res["wall_s"], digest


def summary(ratios: list[float]) -> dict:
    q1, q2, q3 = quantiles(ratios, n=4, method="inclusive")
    return {"median_ratio": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "wins": sum(r < 1.0 for r in ratios), "pairs": len(ratios), "ratios": ratios}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--data-seed", type=int, default=1000)
    p.add_argument("--json", default=None, help="also write the summary here")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    checkouts = {"A": parent, "B": change, "A'": parent}

    work = tempfile.mkdtemp(prefix="paired-wall-")
    try:
        child(parent, ["gen", args.workload, work, str(args.data_seed)], work)
        os.rename(os.path.join(work, f"inputs-{args.data_seed}"), os.path.join(work, "inputs"))
        ab, aa, digests = [], [], set()
        for i in range(args.pairs):
            wall = {}
            for side in ORDERS[i % len(ORDERS)]:
                wall[side], digest = call(checkouts[side], args.workload, args.data_seed, work, f"r{i}")
                digests.add(digest)
            ab.append(wall["B"] / wall["A"])
            aa.append(wall["A'"] / wall["A"])
            print(f"round {i + 1}: " + ", ".join(f"{side} {wall[side]:.4f} s" for side in checkouts),
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": args.workload, "data_seed": args.data_seed, "nproc": len(os.sched_getaffinity(0)),
        "parent": parent, "change": change,
        "B/A": summary(ab), "A'/A": summary(aa), "artifacts_identical": len(digests) == 1,
    }
    for name in ("B/A", "A'/A"):
        s = result[name]
        print(f"{name}: median {s['median_ratio']:.4f} (IQR {s['q1']:.4f}-{s['q3']:.4f}), "
              f"faster in {s['wins']} of {s['pairs']}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
    print(json.dumps({k: v for k, v in result.items() if k not in ("parent", "change")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
