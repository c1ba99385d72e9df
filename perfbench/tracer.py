"""Per-layer tracing of copulatree, installed from outside the package.

``install()`` replaces selected public functions of the copulatree modules
with wrappers that record a span (name, start, end, parent) per call.
Every module-level name in the package that refers to a wrapped function
is rebound, not only the name in its home module, because modules import
each other's functions by name (``tree.fit_mle``, ``cli.fit_pruned_tree``,
``tree._log_density`` ...).  After rebinding, the garbage collector is
asked who still refers to each original function; any namespace or
container other than the wrapper itself is a missed binding and fails
the install.

Spans are kept in memory and written out once, when the run ends.
``layer_metrics()`` turns them into the per-layer metrics of the
benchmark: call counts, busy time, self time (span minus its direct
child spans) and the deterministic counters marked with a dagger in
NOTES.md.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

# module -> public functions to wrap
WRAPPED = {
    "copulas": ("fit_mle", "log_density", "cdf"),
    "tree": ("find_optimal_split", "order_modalities", "build_maximal_tree", "tree_loglik"),
    "pruning": ("fit_pruned_tree", "cross_validate", "prune_path"),
    "margins": ("pseudo_kernel", "pseudo_parametric_normal", "pseudo_margin_tree"),
    "simulation": ("generate", "evaluate", "run_replication"),
    "compositional": ("read_weekly_csv", "aggregate_counts", "write_ilr_csv"),
    "serialize": (
        "write_tree_json",
        "write_prune_path_tsv",
        "write_cv_report_tsv",
        "write_cv_report_json",
        "write_predictions_csv",
    ),
    "cli": ("read_fit_csv", "main"),
}

# fit_mle's search interval (copulas.fit_mle): Clayton and Gumbel search
# tau in [1e-4, 1 - 1e-4], Frank searches theta in [-50, 50]; the bounded
# optimiser stops within a few xatol (1e-6) of a bound it runs into.
_TAU_MARGIN = 1e-4
_FRANK_THETA_MAX = 50.0
_BOUND_TOL = 1e-5

# span fields
NAME, START, END, PARENT, ATTR = range(5)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attr_of = _ATTRIBUTES.get(name)
        if name.startswith("serialize."):
            attr_of = _bytes_written(name, inspect.signature(fn))
        tracks_memory = name == "margins.pseudo_kernel"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if tracks_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if tracks_memory:
                    span[ATTR] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if attr_of is not None:
                span[ATTR] = attr_of(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "attr"], "spans": spans}, fh)


def _bytes_written(name, signature):
    if "path" not in signature.parameters:
        raise RuntimeError(f"{name} has no 'path' parameter")
    return lambda args, kwargs, result: os.path.getsize(
        signature.bind(*args, **kwargs).arguments["path"])


def _fit_attributes(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    data = args[1] if len(args) > 1 else kwargs["data"]
    family = spec.family.value
    theta = result.theta_hat
    if family == "frank":
        at_bound = _FRANK_THETA_MAX - abs(theta) <= _BOUND_TOL
    else:
        param = theta / (2.0 + theta) if family == "clayton" else 1.0 - 1.0 / theta
        at_bound = min(param - _TAU_MARGIN, 1.0 - _TAU_MARGIN - param) <= _BOUND_TOL
    return [len(data), bool(result.converged), bool(at_bound)]


def _split_attributes(args, kwargs, result):
    return result is not None


_ATTRIBUTES = {
    "copulas.fit_mle": _fit_attributes,
    "tree.find_optimal_split": _split_attributes,
}


def install(tracer: Tracer) -> dict[str, object]:
    """Wrap every function in WRAPPED and rebind all package references.

    Returns the wrappers by qualified name.  Raises RuntimeError when any
    reference to an original function survives the rebinding.
    """
    originals = {}
    for short, names in WRAPPED.items():
        mod = importlib.import_module(f"copulatree.{short}")
        for fname in names:
            originals[f"{short}.{fname}"] = getattr(mod, fname)
    wrappers = {qual: tracer.wrap(qual, fn) for qual, fn in originals.items()}
    by_id = {id(fn): qual for qual, fn in originals.items()}

    for mod in _copulatree_modules().values():
        ns = vars(mod)
        for key, value in list(ns.items()):
            qual = by_id.get(id(value))
            if qual is not None:
                ns[key] = wrappers[qual]

    gc.collect()
    missed = []
    for qual in list(originals):
        for ref in gc.get_referrers(originals[qual]):
            # the wrapper's closure cell and this function's own frame and
            # table are the only references allowed to remain
            if ref is originals or type(ref).__name__ in ("cell", "frame"):
                continue
            missed.append(f"{qual} still referenced from {_owner(ref)}")
    if missed:
        raise RuntimeError("tracer missed bindings: " + "; ".join(missed))
    return wrappers


def _copulatree_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "copulatree" or name.startswith("copulatree."))
    }


def _owner(ref) -> str:
    for name, mod in _copulatree_modules().items():
        if vars(mod) is ref:
            return f"module {name}"
    return type(ref).__name__


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _under(spans, ancestor: str) -> list[bool]:
    """Per span: does an enclosing span (itself excluded) have this name?"""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        p = s[PARENT]
        if p >= 0:
            inside[i] = inside[p] or spans[p][NAME] == ancestor
    return inside


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals of one traced run, keyed by metric name."""
    self_s = _self_times(spans)
    under_split = _under(spans, "tree.find_optimal_split")
    under_cv = _under(spans, "pruning.cross_validate")

    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, st in zip(spans, self_s):
        name = s[NAME]
        busy[name] = busy.get(name, 0.0) + s[END] - s[START]
        own[name] = own.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1

    fits = [s for s in spans if s[NAME] == "copulas.fit_mle"]
    split_fits = sum(1 for s, u in zip(spans, under_split) if u and s[NAME] == "copulas.fit_mle")
    accepted = sum(1 for s in spans if s[NAME] == "tree.find_optimal_split" and s[ATTR])
    kernel_peaks = [s[ATTR] for s in spans if s[NAME] == "margins.pseudo_kernel"]

    return {
        "copulas.fit_mle.calls": len(fits),
        "copulas.fit_mle.rows": sum(s[ATTR][0] for s in fits if s[ATTR]),
        "copulas.fit_mle.s": busy.get("copulas.fit_mle", 0.0),
        "copulas.fit_mle.not_converged": sum(1 for s in fits if s[ATTR] and not s[ATTR][1]),
        "copulas.fit_mle.at_bound": sum(1 for s in fits if s[ATTR] and s[ATTR][2]),
        "copulas.log_density.s": busy.get("copulas.log_density", 0.0),
        "copulas.cdf.s": busy.get("copulas.cdf", 0.0),
        "tree.find_optimal_split.calls": calls.get("tree.find_optimal_split", 0),
        "tree.find_optimal_split.s": busy.get("tree.find_optimal_split", 0.0),
        "tree.find_optimal_split.self_s": own.get("tree.find_optimal_split", 0.0),
        "tree.split_fits": split_fits,
        "tree.splits_accepted": accepted,
        "tree.split_fit_yield": 2.0 * accepted / split_fits if split_fits else 0.0,
        "tree.order_modalities.s": busy.get("tree.order_modalities", 0.0),
        "tree.build_maximal_tree.calls": calls.get("tree.build_maximal_tree", 0),
        "tree.build_maximal_tree.s": busy.get("tree.build_maximal_tree", 0.0),
        "tree.tree_loglik.s": busy.get("tree.tree_loglik", 0.0),
        "pruning.fit_pruned_tree.s": busy.get("pruning.fit_pruned_tree", 0.0),
        "pruning.cross_validate.s": busy.get("pruning.cross_validate", 0.0),
        "pruning.cross_validate.self_s": own.get("pruning.cross_validate", 0.0),
        "pruning.cv_fold_trees": sum(
            1 for s, u in zip(spans, under_cv) if u and s[NAME] == "tree.build_maximal_tree"
        ),
        "pruning.prune_path.calls": calls.get("pruning.prune_path", 0),
        "pruning.prune_path.s": busy.get("pruning.prune_path", 0.0),
        "margins.pseudo.s": sum(busy.get(f"margins.{f}", 0.0) for f in WRAPPED["margins"]),
        "margins.pseudo_kernel.s": busy.get("margins.pseudo_kernel", 0.0),
        "margins.pseudo_kernel.peak_mb": max(kernel_peaks, default=0.0),
        "margins.pseudo_parametric_normal.s": busy.get("margins.pseudo_parametric_normal", 0.0),
        "margins.pseudo_margin_tree.s": busy.get("margins.pseudo_margin_tree", 0.0),
        "simulation.generate.s": busy.get("simulation.generate", 0.0),
        "simulation.evaluate.s": busy.get("simulation.evaluate", 0.0),
        "simulation.run_replication.s": busy.get("simulation.run_replication", 0.0),
        "compositional.read_weekly_csv.s": busy.get("compositional.read_weekly_csv", 0.0),
        "compositional.aggregate_counts.s": busy.get("compositional.aggregate_counts", 0.0),
        "compositional.write_ilr_csv.s": busy.get("compositional.write_ilr_csv", 0.0),
        "serialize.write_s": sum(busy.get(f"serialize.{f}", 0.0) for f in WRAPPED["serialize"]),
        "serialize.bytes_written": sum(
            s[ATTR] or 0 for s in spans if s[NAME].startswith("serialize.write_")
        ),
        "cli.read_fit_csv.s": busy.get("cli.read_fit_csv", 0.0),
        "cli.main.self_s": own.get("cli.main", 0.0),
    }


# counters that must repeat exactly across runs of one seed
EXACT = (
    "copulas.fit_mle.calls",
    "copulas.fit_mle.rows",
    "copulas.fit_mle.not_converged",
    "copulas.fit_mle.at_bound",
    "tree.find_optimal_split.calls",
    "tree.split_fits",
    "tree.splits_accepted",
    "tree.build_maximal_tree.calls",
    "pruning.cv_fold_trees",
    "pruning.prune_path.calls",
    "serialize.bytes_written",
)
