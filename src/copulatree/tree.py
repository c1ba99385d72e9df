"""Conditional copula estimation by log-likelihood regression trees.

The covariate space is partitioned by recursive binary splits; every node
carries the maximum-likelihood copula fit of the pseudo-observations
routed to it.  A split's gain is the summed child log-likelihood minus
the parent log-likelihood, and the maximal tree is grown breadth first
from a work list until the stopping rules bite.

Numeric features test midpoints between consecutive distinct observed
values (optionally capped to an evenly spaced subset for large nodes).
Categorical features are ordered by the per-level fitted parameter and
only the contiguous cuts of that ordering are tested; levels too sparse
to fit are first merged into the level with the closest response-rank
mean.  Ties are broken by (feature index, threshold / shortest left set),
so the search result does not depend on row or evaluation order.

The search is exact without refitting every cut.  A screen bounds each
cut's gain from above first:

* every row's log-density and its derivative in theta are evaluated on a
  fixed per-family grid spanning fit_mle's search interval
  (``copulas.screen_grid``);
* prefix sums over the rows in cut order (sorted x, or the level groups
  of ``order_modalities``) give both sides' sums at every grid node;
* on each grid cell a side's log-likelihood lies below the two tangent
  parabolas at the cell's ends whose curvature is a proven cap on the
  side's summed second derivative (``copulas.curvature_caps``, derived
  there per family), so the largest maximum of the lower of the two
  parabolas, over all cells, bounds what fit_mle can reach.

Cuts are then refit with fit_mle in descending order of their bound
until the next bound falls below the best exact gain (a bound equal to
it is still refit, for the tie rule).  The winner, its fits and its gain
come from the same fit_mle calls an exhaustive search makes, so trees
are bit-identical to refitting every cut; a non-finite bound only means
that cut is refit.  The grid is processed in column blocks, so the
screen's memory grows only linearly with the node size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .copulas import (
    CopulaSpec,
    FitResult,
    curvature_caps,
    fit_mle,
    log_density_and_score,
    screen_grid,
)
from .copulas import log_density as _log_density
from .data import CATEGORICAL, NUMERIC, Column, Dataset, PseudoObservations
from .errors import ConfigError, SchemaError

__all__ = [
    "SplitRule",
    "TreeNode",
    "CopulaTree",
    "StoppingConfig",
    "ColumnSchema",
    "node_fit",
    "order_modalities",
    "find_optimal_split",
    "build_maximal_tree",
    "tree_loglik",
    "calibrate_min_gain",
]


# Largest array the split screen builds, in values (bounds its memory).
_SCREEN_BLOCK_ELEMENTS = 1 << 12
# Per-row allowance for rounding in a screened bound and in fit_mle's own
# summed objective; it only ever widens a bound.
_SCREEN_SLACK = 1e-6


@dataclass(frozen=True)
class StoppingConfig:
    """Growth limits for the maximal tree.

    ``max_candidates`` optionally caps the number of numeric thresholds
    examined per node (evenly spaced over the admissible midpoints); the
    search stays exhaustive whenever the node has no more distinct values
    than the cap.
    """

    min_leaf: int = 50
    min_gain: float = 0.0
    max_leaves: int = 32
    min_fit_n: int = 10
    max_candidates: int | None = None

    def __post_init__(self):
        if self.min_leaf < self.min_fit_n:
            raise ConfigError("min_leaf must be >= min_fit_n")
        if self.min_gain < 0 and not math.isinf(self.min_gain):
            raise ConfigError("min_gain must be >= 0")
        if self.max_leaves < 1:
            raise ConfigError("max_leaves must be >= 1")


@dataclass(frozen=True)
class SplitRule:
    """Routing rule of an internal node.

    Numeric: rows with value <= threshold go left.  Categorical: rows
    whose level code is in ``left_levels`` go left; anything else,
    including levels unseen at fit time, goes right.
    """

    feature: int
    threshold: float | None = None
    left_levels: frozenset[int] | None = None

    @property
    def is_numeric(self) -> bool:
        return self.threshold is not None


@dataclass
class TreeNode:
    id: int
    fit: FitResult
    depth: int = 0
    rule: SplitRule | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    levels: tuple[str, ...] | None = None


def schema_of(data: Dataset) -> tuple[ColumnSchema, ...]:
    return tuple(ColumnSchema(c.name, c.kind, c.levels) for c in data.covariates)


@dataclass
class CopulaTree:
    spec: CopulaSpec
    root: TreeNode
    schema: tuple[ColumnSchema, ...]
    stopping: StoppingConfig

    def nodes(self) -> list[TreeNode]:
        """All nodes in id order."""
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.extend([node.right, node.left])
        return sorted(out, key=lambda n: n.id)

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes() if n.is_leaf]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def predict_row(self, x) -> tuple[float, float, int]:
        """(theta, tau, leaf id) for a single covariate vector.

        ``x`` holds one entry per schema column: a float for numeric
        columns, an integer level code for categorical ones (use -1 for
        levels absent from the level table).
        """
        if len(x) != len(self.schema):
            raise SchemaError(f"expected {len(self.schema)} covariates, got {len(x)}")
        node = self.root
        while not node.is_leaf:
            rule = node.rule
            val = x[rule.feature]
            if rule.is_numeric:
                node = node.left if float(val) <= rule.threshold else node.right
            else:
                node = node.left if int(val) in rule.left_levels else node.right
        return node.fit.theta_hat, node.fit.tau_hat, node.id

    def assign(self, data: Dataset) -> np.ndarray:
        """Vectorised leaf-id assignment for every row of ``data``."""
        _check_schema(self, data)
        n = data.n
        out = np.empty(n, dtype=np.int64)
        stack = [(self.root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = node.id
                continue
            rule = node.rule
            col = data.covariates[rule.feature]
            vals = col.values[idx]
            if rule.is_numeric:
                go_left = vals <= rule.threshold
            else:
                go_left = np.isin(vals, list(rule.left_levels))
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    def predict(self, data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(theta, tau, leaf id) arrays for every row of ``data``."""
        leaf_ids = self.assign(data)
        by_id = {n.id: n for n in self.leaves()}
        theta = np.array([by_id[i].fit.theta_hat for i in leaf_ids])
        tau = np.array([by_id[i].fit.tau_hat for i in leaf_ids])
        return theta, tau, leaf_ids


def _check_schema(tree: CopulaTree, data: Dataset) -> None:
    if len(data.covariates) != len(tree.schema):
        raise SchemaError(
            f"dataset has {len(data.covariates)} covariates, tree expects {len(tree.schema)}"
        )
    for col, sch in zip(data.covariates, tree.schema):
        if col.kind != sch.kind:
            raise SchemaError(f"column {col.name}: kind {col.kind} != schema {sch.kind}")


# ---------------------------------------------------------------------------
# node-level operations


def node_fit(spec: CopulaSpec, pseudo: PseudoObservations, rows=None, min_fit_n: int = 10) -> FitResult:
    """MLE fit of the rows at a node (delegates to copulas.fit_mle)."""
    uv = pseudo.values if rows is None else pseudo.values[rows]
    return fit_mle(spec, uv, min_fit_n=min_fit_n)


def order_modalities(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    feature: int,
    rows=None,
    min_fit_n: int = 10,
) -> list[tuple[int, ...]]:
    """Order the observed levels of a categorical feature by fitted theta.

    Levels with fewer than ``min_fit_n`` rows are merged into the level
    group with the closest within-node response-rank mean before fitting.
    Returns level-code groups sorted ascending by the group theta_hat
    (ties by the lowest level code in the group).
    """
    col = data.covariates[feature]
    if col.kind != CATEGORICAL:
        raise ConfigError(f"feature {feature} ({col.name}) is not categorical")
    idx = np.arange(data.n) if rows is None else np.asarray(rows)
    codes = col.values[idx]
    uv = pseudo.values[idx]
    # merge key: mean over both response columns of the within-node ranks
    rank_mean = (rankdata(uv[:, 0]) + rankdata(uv[:, 1])) / (2.0 * (len(idx) + 1))

    groups: list[list[int]] = [[int(c)] for c in np.unique(codes)]

    def group_stats(group):
        mask = np.isin(codes, group)
        return int(mask.sum()), float(rank_mean[mask].mean())

    while len(groups) > 1:
        stats = [group_stats(g) for g in groups]
        sparse = [i for i, (cnt, _) in enumerate(stats) if cnt < min_fit_n]
        if not sparse:
            break
        i = min(sparse, key=lambda i: (stats[i][0], groups[i][0]))
        others = [j for j in range(len(groups)) if j != i]
        j = min(others, key=lambda j: (abs(stats[j][1] - stats[i][1]), groups[j][0]))
        merged = sorted(groups[i] + groups[j])
        groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [merged]
        groups.sort(key=lambda g: g[0])

    fitted = []
    for g in groups:
        mask = np.isin(codes, g)
        if mask.sum() >= min_fit_n:
            theta = fit_mle(spec, uv[mask], min_fit_n=min_fit_n).theta_hat
        else:  # single under-sized group left: order degenerates
            theta = 0.0
        fitted.append((theta, g[0], tuple(g)))
    fitted.sort(key=lambda t: (t[0], t[1]))
    return [g for _, _, g in fitted]


@dataclass(frozen=True)
class _Candidate:
    rule: SplitRule
    gain: float
    left_fit: FitResult
    right_fit: FitResult
    left_rows: np.ndarray = field(repr=False)
    right_rows: np.ndarray = field(repr=False)


def _numeric_split_positions(xs: np.ndarray, min_leaf: int, cap: int | None):
    """Admissible cut positions (split after sorted index p) and thresholds."""
    n = len(xs)
    boundary = np.nonzero(xs[:-1] < xs[1:])[0]  # xs sorted ascending
    ok = boundary[(boundary + 1 >= min_leaf) & (n - boundary - 1 >= min_leaf)]
    if cap is not None and len(ok) > cap:
        pick = np.unique(np.round(np.linspace(0, len(ok) - 1, cap)).astype(int))
        ok = ok[pick]
    return ok, 0.5 * (xs[ok] + xs[ok + 1])


@dataclass(frozen=True)
class _FeatureCuts:
    """The admissible cuts of one feature at a node.

    ``order`` puts the node's rows in cut order (sorted x, or the level
    groups of ``order_modalities``), so every cut's left side is the first
    ``n_left`` rows of it.
    """

    feature: int
    rules: list[SplitRule]
    order: np.ndarray
    n_left: np.ndarray


def _feature_cuts(spec, pseudo, data, stopping, idx, j) -> _FeatureCuts:
    col = data.covariates[j]
    if col.kind == NUMERIC:
        order = np.argsort(col.values[idx], kind="stable")
        positions, thresholds = _numeric_split_positions(
            col.values[idx][order], stopping.min_leaf, stopping.max_candidates
        )
        rules = [SplitRule(j, threshold=float(s)) for s in thresholds]
        return _FeatureCuts(j, rules, order, positions + 1)
    groups = order_modalities(spec, pseudo, data, j, idx, stopping.min_fit_n)
    codes = col.values[idx]
    rank = np.empty(int(codes.max()) + 1, dtype=np.int64)
    for r, g in enumerate(groups):
        rank[list(g)] = r
    counts = np.cumsum(np.bincount(rank[codes], minlength=len(groups)))
    rules, n_left = [], []
    for cut in range(1, len(groups)):
        n = int(counts[cut - 1])
        if n < stopping.min_leaf or len(idx) - n < stopping.min_leaf:
            continue
        rules.append(SplitRule(j, left_levels=frozenset(c for g in groups[:cut] for c in g)))
        n_left.append(n)
    order = np.argsort(rank[codes], kind="stable")
    return _FeatureCuts(j, rules, order, np.asarray(n_left, dtype=np.int64))


def _cut_rows(data, idx, cuts: _FeatureCuts, i):
    """(left, right) global rows of cut ``i``, in the node's row order."""
    rule = cuts.rules[i]
    if rule.is_numeric:
        n = cuts.n_left[i]
        return idx[cuts.order[:n]], idx[cuts.order[n:]]
    mask = np.isin(data.covariates[cuts.feature].values[idx], list(rule.left_levels))
    return idx[mask], idx[~mask]


def _cell_maxima(f, g, curvature, theta):
    """Upper bound on max L over each grid cell, for every cut side.

    ``f``/``g`` hold a side's summed log-likelihood and score at the nodes
    (one row per cut side).  Since L'' <= C = ``curvature`` on a cell [a, b], L
    lies below both tangent parabolas
        P_a(t) = f(a) + g(a)(t - a) + C/2 (t - a)^2
        P_b(t) = f(b) + g(b)(t - b) + C/2 (t - b)^2.
    Their difference is linear, so min(P_a, P_b) is P_a up to their
    crossing and P_b after it; being convex pieces, its maximum is at a,
    b or the crossing.
    """
    h = np.diff(theta)
    c = 0.5 * curvature
    fa, fb, ga, gb = f[:, :-1], f[:, 1:], g[:, :-1], g[:, 1:]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        slope = ga - gb + 2.0 * c * h  # >= 0 when the cap holds
        s = np.clip((fb - fa - gb * h + c * h * h) / slope, 0.0, h)
        top = np.where(
            slope > 0.0,
            fa + s * (ga + c * s),
            np.maximum(fa + h * (ga + c * h), fb - h * (gb - c * h)),
        )
        out = np.maximum(np.maximum(fa, fb), top)
    return np.where(np.isfinite(out), out, np.inf)


def _screen_bounds(spec, uv, features, parent_loglik) -> np.ndarray:
    """Upper bound on the gain of every cut, in (feature, position) order.

    Each side's maximal log-likelihood over fit_mle's search interval is
    bounded from the rows' log-density and score on the screen grid (the
    prefix sums of the rows in cut order) and the per-cell curvature caps
    of ``copulas.curvature_caps``.  A non-finite value anywhere in a cut's
    computation makes its bound +inf, which only means "refit it".
    The grid is taken in column blocks of about _SCREEN_BLOCK_ELEMENTS
    values per array (at least one cell per block), so memory grows
    linearly with the node and the number of cuts.
    """
    features = [fc for fc in features if len(fc.rules)]
    n_cuts = sum(len(fc.rules) for fc in features)
    if n_cuts == 0:
        return np.empty(0)
    theta = screen_grid(spec)
    caps, row_caps, offset = curvature_caps(spec, theta, uv)
    n = len(uv)
    n_left = np.concatenate([fc.n_left for fc in features])
    sizes = np.concatenate([n_left, n - n_left]).astype(float)
    w_left = np.concatenate([np.cumsum(row_caps[fc.order])[fc.n_left - 1] for fc in features])
    weights = np.concatenate([w_left, row_caps.sum() - w_left])
    starts = [np.concatenate(([0], fc.n_left)) for fc in features]
    width = max(1, _SCREEN_BLOCK_ELEMENTS // max(n, len(sizes)))
    best = np.full(len(sizes), -np.inf)
    for k0 in range(0, len(theta) - 1, width):
        k1 = min(k0 + width, len(theta) - 1)
        nodes = theta[k0 : k1 + 1]
        ll, score = log_density_and_score(spec, nodes, uv[:, 0], uv[:, 1])
        curvature = np.minimum(
            sizes[:, None] * caps[k0:k1], weights[:, None] + sizes[:, None] * offset[k0:k1]
        )
        cell = _cell_maxima(
            _side_sums(ll, features, starts),
            _side_sums(score, features, starts),
            np.maximum(curvature, 0.0),
            nodes,
        )
        np.maximum(best, cell.max(axis=1), out=best)
    return best[:n_cuts] + best[n_cuts:] - parent_loglik + _SCREEN_SLACK * n


def _side_sums(table, features, starts) -> np.ndarray:
    """Column sums of ``table`` over every cut's left side, then every right side."""
    prefix = [
        np.cumsum(np.add.reduceat(table[fc.order], s, axis=0), axis=0)
        for fc, s in zip(features, starts)
    ]
    return np.concatenate([p[:-1] for p in prefix] + [p[-1] - p[:-1] for p in prefix])


def find_optimal_split(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    stopping: StoppingConfig,
    rows=None,
    parent_fit: FitResult | None = None,
) -> _Candidate | None:
    """Best admissible split of a node, or None when nothing improves.

    The candidate maximising gain = loglik(left) + loglik(right) -
    loglik(parent) is returned only if gain > stopping.min_gain; ties go
    to the first cut in (feature, position) order.  Cuts are refit with
    fit_mle in descending order of their screened gain bound until the
    next bound falls below the best exact gain, so the answer is the one
    an exhaustive refit of every cut gives.
    """
    idx = np.arange(data.n) if rows is None else np.asarray(rows)
    if len(idx) < 2 * stopping.min_leaf:
        return None
    if parent_fit is None:
        parent_fit = node_fit(spec, pseudo, idx, stopping.min_fit_n)

    features = [
        _feature_cuts(spec, pseudo, data, stopping, idx, j) for j in range(len(data.covariates))
    ]
    cuts = [(fc, i) for fc in features for i in range(len(fc.rules))]
    bound = _screen_bounds(spec, pseudo.values[idx], features, parent_fit.loglik)

    best: _Candidate | None = None
    best_k = -1
    for k in np.lexsort((np.arange(len(cuts)), -bound)):
        if not bound[k] > stopping.min_gain or (best is not None and bound[k] < best.gain):
            break
        fc, i = cuts[k]
        left_rows, right_rows = _cut_rows(data, idx, fc, i)
        lf = fit_mle(spec, pseudo.values[left_rows], min_fit_n=stopping.min_fit_n)
        rf = fit_mle(spec, pseudo.values[right_rows], min_fit_n=stopping.min_fit_n)
        gain = lf.loglik + rf.loglik - parent_fit.loglik
        if best is None or gain > best.gain or (gain == best.gain and k < best_k):
            best = _Candidate(fc.rules[i], gain, lf, rf, left_rows, right_rows)
            best_k = k

    if best is None or not best.gain > stopping.min_gain:
        return None
    return best


def build_maximal_tree(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    stopping: StoppingConfig = StoppingConfig(),
) -> CopulaTree:
    """Grow the maximal tree breadth first from a FIFO work list."""
    if pseudo.values.shape[0] != data.n:
        raise SchemaError("pseudo-observations and dataset are not row aligned")
    root = TreeNode(0, node_fit(spec, pseudo, None, stopping.min_fit_n))
    queue: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(data.n))]
    n_terminal = 1
    next_id = 1
    while queue:
        node, idx = queue.pop(0)
        if n_terminal >= stopping.max_leaves:
            continue
        cand = find_optimal_split(spec, pseudo, data, stopping, idx, node.fit)
        if cand is None:
            continue
        node.rule = cand.rule
        node.left = TreeNode(next_id, cand.left_fit, node.depth + 1)
        node.right = TreeNode(next_id + 1, cand.right_fit, node.depth + 1)
        next_id += 2
        n_terminal += 1
        queue.append((node.left, cand.left_rows))
        queue.append((node.right, cand.right_rows))
    return CopulaTree(spec, root, schema_of(data), stopping)


def tree_loglik(tree: CopulaTree, pseudo: PseudoObservations, data: Dataset) -> float:
    """Summed log-density of rows under their leaf parameters."""
    leaf_ids = tree.assign(data)
    total = 0.0
    for leaf in tree.leaves():
        mask = leaf_ids == leaf.id
        if not mask.any():
            continue
        uv = pseudo.values[mask]
        total += float(np.sum(_log_density(tree.spec, leaf.fit.theta_hat, uv[:, 0], uv[:, 1])))
    return total


def calibrate_min_gain(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    stopping: StoppingConfig,
    n_permutations: int = 40,
    alpha: float = 0.05,
    seed=0,
) -> float:
    """Permutation-null calibration of min_gain.

    Permuting the pseudo-observation rows against the covariates destroys
    any covariate effect; the (1 - alpha) quantile of the best root gain
    over those permutations is a noise floor for accepting splits.
    """
    rng = np.random.default_rng(seed)
    null_stopping = StoppingConfig(
        min_leaf=stopping.min_leaf,
        min_gain=-math.inf,
        max_leaves=stopping.max_leaves,
        min_fit_n=stopping.min_fit_n,
        max_candidates=stopping.max_candidates,
    )
    gains = []
    for _ in range(n_permutations):
        perm = rng.permutation(data.n)
        shuffled = PseudoObservations(pseudo.values[perm], pseudo.method)
        cand = find_optimal_split(spec, shuffled, data, null_stopping)
        gains.append(0.0 if cand is None else max(cand.gain, 0.0))
    # conservative empirical quantile: next order statistic up, never interpolated
    return float(np.quantile(np.asarray(gains), 1.0 - alpha, method="higher"))
