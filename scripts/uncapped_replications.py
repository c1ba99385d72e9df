#!/usr/bin/env python3
"""Time uncapped U-source Clayton study replications, one line each.

    python scripts/uncapped_replications.py

Each replication is the one ``run_study`` would run for that cell and
replication index (``seed_words(base, spawn_key=(cell, rep))``): the
gentle sigmoid at base seed 20241 with keys (0, 0), (0, 1), (1, 0) and
(1, 1), and the step at base seed 20240 with keys (0, 0) and (0, 1).  All
use ``PipelineConfig``'s CV with no candidate cap, on source U, at n=1000,
in this process with the copulatree of this checkout's ``src``.

Each line gives the wall seconds, the number of bounded Brent searches
(``copulas._fminbound`` calls) and a digest of the replication's
``RepRecord``s (floats as ``float.hex``), so two checkouts' lines compare
directly: equal digests mean equal records.
"""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from copulatree import copulas  # noqa: E402
from copulatree import simulation as sim  # noqa: E402
from copulatree._pcg64 import seed_words  # noqa: E402
from copulatree.tree import StoppingConfig  # noqa: E402

N = 1000
REPLICATIONS = (
    [("gentle_sigmoid", 20241, (cell, rep)) for cell in (0, 1) for rep in (0, 1)]
    + [("step", 20240, (0, rep)) for rep in (0, 1)]
)


def digest(records) -> str:
    text = "\n".join(
        "\t".join(v.hex() if isinstance(v, float) else str(v) for v in vars(r).values()) for r in records
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> None:
    searches = 0
    fminbound = copulas._fminbound

    def counting(*args, **kwargs):
        nonlocal searches
        searches += 1
        return fminbound(*args, **kwargs)

    copulas._fminbound = counting
    config = sim.PipelineConfig(sources=("U",), stopping=StoppingConfig())
    total = 0.0
    for surface, base, key in REPLICATIONS:
        scenario = sim.ScenarioSpec("clayton", surface, N, seed_words(base, spawn_key=key)[0])
        searches = 0
        t0 = time.perf_counter()
        records = sim.run_replication(scenario, config, rep=key[1])
        seconds = time.perf_counter() - t0
        total += seconds
        print(f"{surface:15s} base {base} key {key}: {seconds:6.2f} s  {searches:6d} searches  "
              f"records {digest(records)}", flush=True)
    print(f"total {total:.2f} s")


if __name__ == "__main__":
    main()
