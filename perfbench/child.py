"""One fresh process of a benchmark run.

    python3 child.py gen WORKLOAD DIR SEED...
        Write each data seed's inputs, and the truth planted in them, to
        DIR/inputs-SEED.

    python3 child.py cli RESULT.json TRACE_DIR|- -- ARGV... [-- POST_ARGV...]
        Import copulatree, call ``copulatree.cli.main(ARGV)`` and write the
        timings to RESULT.json.  With a TRACE_DIR the public functions are
        wrapped first (see tracer.py); the spans of the timed call go to
        TRACE_DIR/spans.json and its per-layer metrics to RESULT.json.
        POST_ARGV, if given, is a second CLI call made after the timed one
        (``predict`` for the flu workload).

The parent sets PYTHONPATH to the checkout's ``src`` directory and caps
the BLAS/OpenMP thread pools through the environment.
"""

from __future__ import annotations

import json
import sys
import time


def _gen(workload: str, out: str, seeds: list[str]) -> None:
    import os

    import workloads

    for seed in seeds:
        workloads.write_inputs(workload, int(seed), os.path.join(out, f"inputs-{seed}"))


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cli(result_path: str, trace_dir: str, argv: list[str], post: list[str]) -> None:
    import copulatree.cli

    ready = time.time()
    recorder = None
    if trace_dir != "-":
        import tracer

        recorder = tracer.Tracer()
        tracer.install(recorder)

    t0 = time.perf_counter()
    code = copulatree.cli.main(argv)
    wall = time.perf_counter() - t0
    spans = list(recorder.spans) if recorder else None  # the timed call only
    post_code = copulatree.cli.main(post) if post and code == 0 else None

    import os
    import resource

    import numpy
    import scipy

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "ready_time": ready,
        "wall_s": wall,
        "exit_code": code,
        "post_exit_code": post_code,
        "peak_rss_mb": rss_kb / 1024.0,
        "module": copulatree.cli.__file__,
        "host": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
        },
    }
    if spans is not None:
        tracer.write_spans(spans, os.path.join(trace_dir, "spans.json"))
        result["layers"] = tracer.layer_metrics(spans)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> None:
    if argv[0] == "gen":
        _gen(argv[1], argv[2], argv[3:])
    elif argv[0] == "cli":
        rest = argv[3:]
        if not rest or rest[0] != "--":
            raise SystemExit("child.py cli: expected -- before the CLI arguments")
        rest = rest[1:]
        if "--" in rest:
            cut = rest.index("--")
            cli_argv, post = rest[:cut], rest[cut + 1:]
        else:
            cli_argv, post = rest, []
        _cli(argv[1], argv[2], cli_argv, post)
    else:
        raise SystemExit(f"child.py: unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
