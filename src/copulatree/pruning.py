"""Weakest-link pruning and cross-validated subtree selection.

The penalised criterion (average training log-likelihood minus lambda
times the leaf count) is maximised over a *nested* path of subtrees: at
each step the internal node with the smallest per-extra-leaf
log-likelihood gain collapses, exactly the Breiman error-complexity
construction transposed to log-likelihood units.  The path realises the
property that the best K-leaf subtree is contained in the best
(K+1)-leaf subtree, so the penalised optimum never requires enumerating
all subtrees.

Lambda itself is not chosen directly: repeated k-fold cross-validation
scores every path size by held-out log-likelihood and either the mean
maximiser (MaxMean) or the one-standard-error rule (OneSE, Breiman's
rule) picks the leaf count.

The path and the size chooser read only the nodes' ``fit.loglik``, so the
least-squares margin trees of ``margins`` (whose ``loglik`` is minus the
SSE) use them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._pcg64 import PCG64
from .copulas import CopulaSpec, log_density
from .data import Dataset, PseudoObservations
from .errors import ConfigError, InsufficientDataError
from .tree import (
    CopulaTree,
    StoppingConfig,
    TreeNode,
    _row_table,
    build_maximal_tree,
    route,
    walk,
)

if TYPE_CHECKING:
    from ._fork import Forked

__all__ = [
    "PathEntry",
    "PrunePath",
    "CvReport",
    "prune_path",
    "select_penalized",
    "check_cv_options",
    "check_cv_rows",
    "cross_validate",
    "fit_pruned_tree",
    "lambda_intervals",
]


@dataclass(frozen=True)
class PathEntry:
    tree: CopulaTree
    k: int
    train_loglik: float


@dataclass(frozen=True)
class PrunePath:
    """Nested subtrees with strictly decreasing leaf counts down to 1."""

    entries: tuple[PathEntry, ...]
    n: int

    def entry_for_k(self, k: int) -> PathEntry:
        """Entry with the largest leaf count <= k."""
        return next((e for e in self.entries if e.k <= k), self.entries[-1])

    @property
    def k_values(self) -> list[int]:
        return [e.k for e in self.entries]


def _copy_pruned(node: TreeNode, leafset: frozenset[int]) -> TreeNode:
    if node.id in leafset or node.is_leaf:
        return TreeNode(node.id, node.fit, node.depth)
    new = TreeNode(node.id, node.fit, node.depth, node.rule)
    new.left = _copy_pruned(node.left, leafset)
    new.right = _copy_pruned(node.right, leafset)
    return new


def weakest_link_path(root: TreeNode) -> list[tuple[TreeNode, int, float]]:
    """Iterative weakest-link collapse recording every distinct leaf count.

    At each step the internal node minimising

        g(t) = (loglik(subtree at t) - loglik(t as leaf)) / (leaves(t) - 1)

    collapses; ties collapse the deepest node first, then the lowest id.
    Returns (pruned copy of the tree, leaf count, summed leaf loglik) for
    every step, from the full tree down to the root alone.  Each step lists
    the leaves under every node of the current subtree once, children
    before their parents.
    """
    by_id = {nd.id: nd for nd in walk(root)}
    leafset = frozenset(nd.id for nd in by_id.values() if nd.is_leaf)

    def pruned_nodes():
        """Nodes of the current subtree, each before its children."""
        stack = [root]
        while stack:
            nd = stack.pop()
            yield nd
            if nd.id not in leafset:
                stack += (nd.right, nd.left)

    def snapshot():
        return (
            _copy_pruned(root, leafset),
            len(leafset),
            sum(by_id[i].fit.loglik for i in sorted(leafset)),
        )

    path = [snapshot()]
    while len(leafset) > 1:
        candidates = []
        below: dict[int, list[int]] = {}
        for nd in reversed(list(pruned_nodes())):  # children before their parents
            if nd.id in leafset:
                below[nd.id] = [nd.id]
                continue
            under = below[nd.id] = below[nd.left.id] + below[nd.right.id]
            gain = sum(by_id[i].fit.loglik for i in sorted(under)) - nd.fit.loglik
            g = gain / (len(under) - 1)
            candidates.append((g, -nd.depth, nd.id, under))
        g, _, nid, under = min(candidates)
        leafset = (leafset - set(under)) | {nid}
        path.append(snapshot())
    return path


def prune_path(tree: CopulaTree) -> PrunePath:
    """The weakest-link path of a copula tree; training log-likelihoods
    come from the fits stored at build time."""
    entries = tuple(
        PathEntry(CopulaTree(tree.spec, root, tree.schema), k, loglik)
        for root, k, loglik in weakest_link_path(tree.root)
    )
    return PrunePath(entries, tree.root.fit.n_obs)


def leaves_below(root: TreeNode) -> dict[int, list[int]]:
    """Node id -> ids of the leaves of the subtree at that node, for every
    node under ``root``.  A pruned copy keeps its nodes' ids, so this maps
    each leaf of any subtree on the prune path to the maximal leaves under it."""
    below: dict[int, list[int]] = {}
    for nd in reversed(list(walk(root))):  # children before their parents
        below[nd.id] = [nd.id] if nd.is_leaf else below[nd.left.id] + below[nd.right.id]
    return below


def choose_k(scores: list[dict[int, float]], rule: str, path_ks=()) -> tuple[list[int], dict, dict, int]:
    """Leaf count chosen from per-fold held-out scores (higher is better).

    ``scores`` maps each leaf count of a fold's path to its held-out score.
    A leaf count absent from a fold (``path_ks`` adds the full-data path's)
    takes that fold's nearest smaller entry.  MaxMean picks the best mean
    score, OneSE the smallest count whose mean is within one standard
    error of it.  Returns (leaf counts, means, standard errors, choice).
    """
    ks = sorted({k for sc in scores for k in sc} | set(path_ks))
    mean, se = {}, {}
    for k in ks:
        vals = []
        for sc in scores:
            avail = [kk for kk in sc if kk <= k]
            vals.append(sc[max(avail)] if avail else sc[min(sc)])
        arr = np.asarray(vals)
        mean[k] = float(arr.mean())
        se[k] = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0

    k_best = min(ks, key=lambda k: (-mean[k], k))
    if rule == "MaxMean":
        return ks, mean, se, k_best
    floor = mean[k_best] - se[k_best]
    return ks, mean, se, min(k for k in ks if mean[k] >= floor)


def select_penalized(path: PrunePath, lam: float) -> PathEntry:
    """Path entry maximising train_loglik/n - lam * K; ties favour smaller K."""
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    best = None
    for entry in sorted(path.entries, key=lambda e: e.k):
        score = entry.train_loglik / path.n - lam * entry.k
        if best is None or score > best[0]:
            best = (score, entry)
    return best[1]


def lambda_intervals(path: PrunePath) -> dict[int, tuple[float, float]]:
    """For each K on the penalised-selection envelope, the lambda interval
    over which that entry is the maximiser (half-open, increasing lambda).

    Each entry defines the line loglik/n - K * lambda; the intervals are
    the upper-envelope segments, walked structurally from K_max down to 1
    so every step strictly decreases K (no fixed-point hazards).
    """
    entries = sorted(path.entries, key=lambda e: e.k, reverse=True)
    out: dict[int, tuple[float, float]] = {}
    lam = 0.0
    cur = select_penalized(path, 0.0)
    while True:
        smaller = [e for e in entries if e.k < cur.k]
        if not smaller:
            out[cur.k] = (lam, math.inf)
            return out
        crossings = [
            ((cur.train_loglik - e.train_loglik) / (path.n * (cur.k - e.k)), e)
            for e in smaller
        ]
        crit = min(c for c, _ in crossings)
        # beyond a shared crossing the smallest-K line wins (flattest slope)
        nxt = min((e for c, e in crossings if c == crit), key=lambda e: e.k)
        crit = max(crit, lam)
        if crit > lam:
            out[cur.k] = (lam, crit)
        lam = crit
        cur = nxt


@dataclass(frozen=True)
class CvReport:
    """Per-leaf-count validation log-likelihood across folds x repeats."""

    k_values: tuple[int, ...]
    mean_loglik: dict[int, float]
    se_loglik: dict[int, float]
    n_scores: int
    chosen_k: int
    lambda_interval: tuple[float, float]
    rule: str
    folds: int
    repeats: int
    seed: int
    notes: tuple[str, ...] = field(default=())


def check_cv_options(folds: int, repeats: int, rule: str) -> None:
    """Raise ConfigError unless folds >= 2, repeats >= 1 and rule is MaxMean or OneSE."""
    if folds < 2:
        raise ConfigError("folds must be >= 2")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if rule not in ("MaxMean", "OneSE"):
        raise ConfigError(f"unknown CV rule {rule!r}")


def check_cv_rows(n: int, folds: int, min_leaf: int) -> None:
    """Raise InsufficientDataError unless n >= folds * 2 * min_leaf, so that a
    fold's training rows can hold a split; callers check it before any work."""
    if n < folds * 2 * min_leaf:
        raise InsufficientDataError(f"need at least folds * 2 * min_leaf = {folds * 2 * min_leaf} rows, got {n}")


def _path_scores(maximal: CopulaTree, uv: np.ndarray, columns) -> dict[int, float]:
    """Held-out log-likelihood of every subtree on the prune path of ``maximal``.

    The held-out rows (pseudo-observations ``uv``, covariate ``columns``)
    are routed once through the maximal tree; the rows reaching a path
    leaf are those of the maximal leaves under it, in row order.  Each
    node's summed log-density is computed once, and an entry's score adds
    its leaves' sums in id order, skipping leaves no row reaches, so it
    equals ``tree_loglik`` of that subtree bit for bit.
    """
    leaf_of_row = route(maximal.root, columns, len(uv))
    below = leaves_below(maximal.root)

    def node_sum(node) -> float | None:
        """Summed log-density of the rows reaching ``node``; None when none does."""
        reaches = np.zeros(len(below), dtype=bool)  # by maximal node id
        reaches[below[node.id]] = True
        at = uv[reaches[leaf_of_row]]
        return float(np.sum(log_density(maximal.spec, node.fit.theta_hat, at[:, 0], at[:, 1]))) if len(at) else None

    sums: dict[int, float | None] = {}
    scores = {}
    for entry in prune_path(maximal).entries:
        total = 0.0
        for leaf in entry.tree.leaves():
            if leaf.id not in sums:
                sums[leaf.id] = node_sum(leaf)
            if sums[leaf.id] is not None:
                total += sums[leaf.id]
        scores[entry.k] = total
    return scores


def _cv_work(spec, pseudo, data, folds, repeats, seed, stopping, jobs) -> Forked:
    """The CV's maximal trees, spread over ``jobs`` processes.

    Item 0 is the full-data maximal tree, which the caller grows in this
    process (``first``) while the fold trees grow; item 1 + r * folds + f
    is fold f of repeat r, whose result is its held-out scores
    (``_path_scores``).  One row table of all rows serves every tree.
    """
    from ._fork import Forked  # here, not at import: the CLI's start-up compiles every module it loads

    table = _row_table(spec, pseudo.values)

    def grow(split):
        if split is None:
            return build_maximal_tree(spec, pseudo, data, stopping, _table=table)
        chunks, f = split
        val_idx = np.sort(chunks[f])
        train_idx = np.sort(np.concatenate([chunks[g] for g in range(folds) if g != f]))
        fold_tree = build_maximal_tree(spec, pseudo, data, stopping, train_idx, _table=table)
        return _path_scores(fold_tree, pseudo.values[val_idx], [c.values[val_idx] for c in data.covariates])

    splits = [None]
    for rep in range(repeats):
        chunks = np.array_split(PCG64(seed, spawn_key=(rep,)).permutation(data.n), folds)
        splits += [(chunks, f) for f in range(folds)]
    return Forked(grow, splits, jobs)


def cross_validate(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    folds: int = 3,
    repeats: int = 10,
    seed: int = 0,
    rule: str = "OneSE",
    stopping: StoppingConfig = StoppingConfig(),
    path: PrunePath | None = None,
    *,
    _work: Forked | None = None,
) -> CvReport:
    """Repeated k-fold choice of the pruned size; deterministic given seed.

    Every fold grows its own maximal tree and prune path on its training
    rows of ``data`` and ``pseudo``, and scores each path subtree by
    held-out log-likelihood from one routing of its validation rows
    (``_path_scores``).  Leaf counts absent from a fold's path contribute
    that path's nearest smaller entry.  ``rule`` is MaxMean or OneSE; the
    chosen K is snapped to the full-data path (built here unless supplied).

    The trees grow in this process.  ``_work`` is internal:
    ``fit_pruned_tree`` passes the work (``_cv_work``) whose full-data tree
    it grew, so that the fold trees this process grows still grow inside
    this call, where the benchmark's tracer counts them
    (``pruning.cv_fold_trees`` in perfbench/tracer.py).
    """
    check_cv_options(folds, repeats, rule)
    check_cv_rows(data.n, folds, stopping.min_leaf)
    if _work is None:
        with _cv_work(spec, pseudo, data, folds, repeats, seed, stopping, 1) as work:
            if path is None:
                path = prune_path(work.first())
            scores = work.gather()
    else:
        scores = _work.gather()

    ks, mean, se, chosen = choose_k(scores, rule, path.k_values)
    chosen = path.entry_for_k(chosen).k

    intervals = lambda_intervals(path)
    lam_int = intervals.get(chosen, (math.nan, math.nan))
    notes = () if chosen in intervals else ("chosen_k_off_envelope",)
    return CvReport(
        k_values=tuple(ks),
        mean_loglik=mean,
        se_loglik=se,
        n_scores=len(scores),
        chosen_k=chosen,
        lambda_interval=lam_int,
        rule=rule,
        folds=folds,
        repeats=repeats,
        seed=seed,
        notes=notes,
    )


def fit_pruned_tree(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    stopping: StoppingConfig = StoppingConfig(),
    folds: int = 3,
    repeats: int = 10,
    seed: int = 0,
    rule: str = "OneSE",
    *,
    jobs: int = 1,
) -> tuple[CopulaTree, PrunePath, CvReport, CopulaTree]:
    """Maximal tree, its prune path, the CV report and the selected subtree.

    The maximal tree grows in this process while the CV's fold trees grow
    over ``jobs`` processes (``_cv_work``); the result does not depend on
    ``jobs``.
    """
    check_cv_options(folds, repeats, rule)
    check_cv_rows(data.n, folds, stopping.min_leaf)
    with _cv_work(spec, pseudo, data, folds, repeats, seed, stopping, jobs) as work:
        maximal = work.first()
        path = prune_path(maximal)
        report = cross_validate(spec, pseudo, data, folds, repeats, seed, rule, stopping, path=path, _work=work)
    return maximal, path, report, path.entry_for_k(report.chosen_k).tree
