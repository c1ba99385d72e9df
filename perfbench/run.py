"""copulatree benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {study_step,fit_exhaustive,flu}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its
``src`` directory.  Every CLI call is a fresh ``python3 child.py``
process with ``--jobs 1``.  The last line of standard output is the JSON
result; the lines before it give the same numbers for people, with
quartiles, fail_rate and the host record.  Working files go to
``.perfbench-work/`` in the checkout.

A run's inputs are fixed before it starts: the reference inputs
(REFERENCE_SEED, the same in every run and pinned in reference.json) and
those of data seed ``seed * 1000``.  The calls go round-robin over them
in whole rounds, so a faster program makes more rounds of the same
inputs, never other inputs.

--trace 0  Rounds over both inputs until ``--seconds`` are used, at least
           two.  Every call of an input must write byte-identical
           artifacts.  Reports wall_s as the median over the inputs of
           each input's median, setup_s as the median over all calls and
           peak_rss_mb as the largest.  Prints tau_mse of the reference
           inputs.
--trace 1  Rounds of one untraced and one traced call on the data seed's
           inputs for ``--seconds``, at least two.  Reports the traced
           calls' per-layer medians and trace_overhead_pct.  Traced and
           untraced artifacts must be byte-identical and the exact
           counters must repeat.

A call fails on a non-zero exit, a missing artifact, a tau error worse
than workloads.BLIND_SLACK times the covariate-blind one, or, for data
seeds recorded in reference.json, any difference from the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 2  # not used while tuning; for validating claims
REFERENCE_SEED = 20242  # data seed of the reference inputs of every run
RUN_LIMIT_S = 165.0  # hard stop for one benchmark run
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# per-layer metrics measured on every workload (BENCHMARK.json per_layer)
PER_LAYER = {
    "copulas.fit_mle.calls": "count",
    "copulas.fit_mle.rows": "rows",
    "copulas.fit_mle.s": "s",
    "copulas.fit_mle.not_converged": "count",
    "copulas.fit_mle.at_bound": "count",
    "copulas.log_density.s": "s",
    "tree.find_optimal_split.calls": "count",
    "tree.find_optimal_split.s": "s",
    "tree.find_optimal_split.self_s": "s",
    "tree.split_fits": "count",
    "tree.splits_accepted": "count",
    "tree.split_fit_yield": "ratio",
    "tree.build_maximal_tree.calls": "count",
    "tree.build_maximal_tree.s": "s",
    "tree.tree_loglik.s": "s",
    "pruning.fit_pruned_tree.s": "s",
    "pruning.cross_validate.s": "s",
    "pruning.cross_validate.self_s": "s",
    "pruning.cv_fold_trees": "count",
    "pruning.prune_path.calls": "count",
    "pruning.prune_path.s": "s",
    "margins.pseudo.s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_pct": "%",
}

# layers that only some workloads call: printed and kept in layers.json,
# but not in the JSON line, where they would read 0 on the other workloads
WORKLOAD_LAYERS = {
    "study_step": ("copulas.cdf.s", "margins.pseudo_kernel.s", "margins.pseudo_kernel.peak_mb",
                   "margins.pseudo_parametric_normal.s", "simulation.generate.s",
                   "simulation.evaluate.s", "simulation.run_replication.s"),
    "fit_exhaustive": ("margins.pseudo_margin_tree.s", "serialize.write_s",
                       "serialize.bytes_written", "cli.read_fit_csv.s"),
    "flu": ("tree.order_modalities.s", "margins.pseudo_margin_tree.s", "serialize.write_s",
            "serialize.bytes_written",
            "compositional.read_weekly_csv.s", "compositional.aggregate_counts.s",
            "compositional.write_ilr_csv.s"),
}


def data_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


class Run:
    """One benchmark run: its working directory, deadline and failures.

    Calls are checked against reference.json unless ``reference`` is given
    (record_reference.py passes ``{}`` to record it afresh).
    """

    def __init__(self, root: Path, workload: str, name: str, reference: dict | None = None):
        self.src = root / "src"
        self.workload = workload
        self.work = root / ".perfbench-work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env(self.src)
        self.attempted = 0
        self.failures: dict[str, str] = {}  # call tag -> why it failed
        if reference is None:
            with open(HERE / "reference.json") as fh:
                reference = json.load(fh)["workloads"][workload]
        self.reference = reference

    def child(self, args: list[str], log: Path) -> int:
        """Run child.py to completion inside the run's time limit."""
        with open(log, "w") as fh:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                    cwd=self.work, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                return proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                return -1
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def generate(self, seeds: list[int]) -> None:
        """Write the inputs of every data seed not generated yet."""
        todo = [str(s) for s in seeds if not (self.work / f"inputs-{s}" / "truth.json").is_file()]
        if todo and self.child(["gen", self.workload, str(self.work), *todo],
                               self.work / f"gen-{todo[0]}.log") != 0:
            raise SystemExit(f"error: generating {self.workload} inputs failed "
                             f"(see {self.work / f'gen-{todo[0]}.log'})")

    def call(self, seed: int, traced: bool = False) -> dict | None:
        """One CLI process on data seed ``seed``; None when it failed."""
        self.attempted += 1
        tag = f"call{self.attempted:02d}"
        self.generate([seed])
        inputs = self.work / f"inputs-{seed}"
        with open(inputs / "truth.json") as fh:
            truth = json.load(fh)
        out = self.work / tag
        trace_dir = self.work / f"{tag}-trace" if traced else None
        if trace_dir:
            trace_dir.mkdir()
        argv, post = workloads.cli_argv(self.workload, seed, str(inputs), str(out))
        result_path = self.work / f"{tag}.json"
        launched = time.time()
        code = self.child(
            ["cli", str(result_path), str(trace_dir or "-"), "--", *argv,
             *(["--", *post] if post else [])],
            self.work / f"{tag}.log",
        )
        problems = []
        if code != 0 or not result_path.is_file():
            problems.append(f"child exited with {code} (see {tag}.log)")
        else:
            with open(result_path) as fh:
                res = json.load(fh)
            if not Path(res["module"]).resolve().is_relative_to(self.src.resolve()):
                problems.append(f"imported copulatree from {res['module']}, not {self.src}")
            if res["exit_code"] != 0 or res["post_exit_code"] not in (None, 0):
                problems.append(f"CLI exit codes {res['exit_code']}, {res['post_exit_code']}")
        if not problems:
            try:
                tau_mse, found = workloads.check(self.workload, str(out), truth,
                                                 self.reference.get(str(seed)))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found = [f"unreadable artifacts: {exc!r}"]
            problems += found
        if problems:
            self.fail(tag, f"data seed {seed}: " + "; ".join(problems))
            return None
        res.update(tag=tag, seed=seed, setup_s=res["ready_time"] - launched, tau_mse=tau_mse,
                   digest=_digest(out))
        return res

    def tidy(self) -> None:
        """Delete the generated inputs and --out copies; keep logs and traces."""
        for path in self.work.iterdir():
            if path.is_dir() and not path.name.endswith("-trace"):
                shutil.rmtree(path)

    def fail(self, tag: str, why: str) -> None:
        self.failures.setdefault(tag, why)

    def same_artifacts(self, results: list[dict]) -> None:
        """Fail every call whose --out artifacts differ from the first call's."""
        for res in results[1:]:
            if res["digest"] != results[0]["digest"]:
                self.fail(res["tag"], f"--out artifacts differ from {results[0]['tag']}")

    def rounds(self, seeds: list[int], traced: list[bool], seconds: float,
               min_rounds: int = 2) -> list[list[dict]]:
        """Per position of ``seeds``, its successful calls, made in rounds.

        A round calls every seed once, traced where ``traced`` says so.
        Only whole rounds are made, so every position is called equally
        often: a round is not started when the previous one's duration
        says it would overrun ``seconds``, but ``min_rounds`` are made
        unless calls fail.
        """
        calls: list[list[dict]] = [[] for _ in seeds]
        start = time.monotonic()
        last = 0.0
        for done in range(1000):
            now = time.monotonic()
            if done >= min_rounds and now - start + last > seconds:
                break
            if self.failures or now + last > self.deadline:
                break
            for pos, (seed, trace) in enumerate(zip(seeds, traced)):
                res = self.call(seed, trace)
                if res is not None:
                    calls[pos].append(res)
            last = time.monotonic() - now
        return calls


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        cur = env.get(var, "")
        env[var] = str(min(int(cur), cap)) if cur.isdigit() and int(cur) > 0 else str(cap)
    return env


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def _measure_plain(run: Run, seed: int, seconds: float):
    seeds = [REFERENCE_SEED, data_seed(seed, 0)]
    run.generate(seeds)
    by_input = run.rounds(seeds, [False, False], seconds)
    for calls in by_input:
        run.same_artifacts(calls)
    if run.failures or min(map(len, by_input)) < 2:
        return {}, None
    timed = [r for calls in by_input for r in calls]
    samples = {
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    for name, vals in samples.items():
        print(f"{name:<14} median {median(vals):.6g} {_spread(vals)} {END_TO_END[name]}")
    for s, calls in zip(seeds, by_input):
        print(f"  data seed {s}: wall_s median {median(r['wall_s'] for r in calls):.6g} s "
              f"over {len(calls)} calls, tau_mse {calls[0]['tau_mse']:.6g} tau2")
    # tau_mse and fail_rate are printed, not reported: on an unchanged
    # program they read the same on every run, and any change to the
    # answer already fails the run through reference.json
    print(f"{'tau_mse':<14} {by_input[0][0]['tau_mse']:.6g} tau2 "
          f"(reference data seed {REFERENCE_SEED})")
    return {
        "wall_s": median(median(r["wall_s"] for r in calls) for calls in by_input),
        "setup_s": median(samples["setup_s"]),
        "peak_rss_mb": max(samples["peak_rss_mb"]),
    }, timed[0]["host"]


def _measure_traced(run: Run, seed: int, seconds: float):
    seeds = [data_seed(seed, 0)] * 2
    run.generate(seeds[:1])
    plain, traced = run.rounds(seeds, [False, True], seconds)
    run.same_artifacts(plain + traced)
    if run.failures or len(traced) < 2:
        return {}, None
    first = traced[0]["layers"]
    for res in traced[1:]:
        moved = [n for n in tracer.EXACT if res["layers"][n] != first[n]]
        if moved:
            run.fail(res["tag"], f"exact counters {moved} differ from {traced[0]['tag']}")
    layers = [r["layers"] for r in traced]
    metrics = {name: median(lay[name] for lay in layers) for name in first}
    metrics.update({name: first[name] for name in tracer.EXACT})
    wall_plain = median(r["wall_s"] for r in plain)
    wall_traced = median(r["wall_s"] for r in traced)
    metrics["trace_overhead_pct"] = 100.0 * (wall_traced - wall_plain) / wall_plain
    print(f"traced calls {len(traced)}, untraced {len(plain)}: wall median "
          f"{wall_traced:.6g} s vs {wall_plain:.6g} s")
    for name in list(PER_LAYER) + list(WORKLOAD_LAYERS[run.workload]):
        unit = PER_LAYER.get(name) or ("bytes" if name.endswith("bytes_written")
                                       else "MiB" if name.endswith("_mb") else "s")
        print(f"{name:<36} {metrics[name]:.6g} {unit}")
    with open(run.work / "layers.json", "w") as fh:
        json.dump({"median": metrics, "calls": layers}, fh, indent=1)
    return {name: metrics[name] for name in PER_LAYER}, traced[0]["host"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "copulatree" / "cli.py").is_file():
        print(f"error: no copulatree sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    measure = _measure_traced if args.trace else _measure_plain
    metrics, host = measure(run, args.seed, args.seconds)
    run.tidy()
    units = PER_LAYER if args.trace else END_TO_END
    host = {"nproc": len(os.sched_getaffinity(0)), **(host or {}),
            "blas_env_cap": run.env["OPENBLAS_NUM_THREADS"]}
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"fail_rate {len(run.failures) / run.attempted:.6g} ratio "
          f"({len(run.failures)} of {run.attempted} calls)")
    for tag, why in run.failures.items():
        print(f"FAILED {tag}: {why}")
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(run.work / "result.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "host": host, "failures": run.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
