"""Conditional copula estimation by log-likelihood regression trees.

The covariate space is partitioned by recursive binary splits; every node
carries the maximum-likelihood copula fit of the pseudo-observations
routed to it.  A split's gain is the summed child log-likelihood minus
the parent log-likelihood, and the maximal tree is grown breadth first
from a work list until the stopping rules bite.

The grower (``grow``), the cut enumeration and the router (``route``)
are shared with the least-squares margin trees of ``margins``, whose node
criterion is minus the sum of squared errors (``sse_fit``/``sse_split``).

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
from dataclasses import dataclass, field, replace

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
# Per-row allowance, relative to the node's SSE, for rounding in the prefix
# sums of sse_split; it only ever widens a bound.
_SSE_SLACK = 1e-12
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

    def goes_left(self, values: np.ndarray) -> np.ndarray:
        """Mask of the ``values`` (of this rule's feature) routed left."""
        if self.is_numeric:
            return values <= self.threshold
        return np.isin(values, list(self.left_levels))


@dataclass(frozen=True)
class SseFit:
    """Least-squares fit of a node: the mean response, and minus the sum
    of squared errors as ``loglik``, so that pruning and the CV size
    choice read one field for both kinds of tree."""

    mean: float
    loglik: float


@dataclass
class TreeNode:
    id: int
    fit: FitResult | SseFit
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

    def nodes(self) -> list[TreeNode]:
        """All nodes in id order."""
        return sorted(walk(self.root), key=lambda n: n.id)

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
        columns = [
            np.array([float(v) if sch.kind == NUMERIC else int(v)]) for v, sch in zip(x, self.schema)
        ]
        leaf_id = route(self.root, columns, 1)[0]
        node = next(n for n in self.leaves() if n.id == leaf_id)
        return node.fit.theta_hat, node.fit.tau_hat, node.id

    def assign(self, data: Dataset) -> np.ndarray:
        """Vectorised leaf-id assignment for every row of ``data``."""
        _check_schema(self, data)
        return route(self.root, [c.values for c in data.covariates], data.n)

    def predict(self, data: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(theta, tau, leaf id) arrays for every row of ``data``."""
        leaf_ids = self.assign(data)
        by_id = {n.id: n for n in self.leaves()}
        theta = np.array([by_id[i].fit.theta_hat for i in leaf_ids])
        tau = np.array([by_id[i].fit.tau_hat for i in leaf_ids])
        return theta, tau, leaf_ids


def walk(node: TreeNode):
    """Every node of the subtree at ``node``, parents before children."""
    stack = [node]
    while stack:
        nd = stack.pop()
        yield nd
        if not nd.is_leaf:
            stack.extend([nd.right, nd.left])


def route(root: TreeNode, columns, n: int) -> np.ndarray:
    """Leaf id of each of ``n`` rows; ``columns[j]`` holds feature j's values.

    Each internal node splits the rows reaching it with one vectorised
    ``SplitRule.goes_left``; this is the only walker from root to leaf.
    """
    out = np.empty(n, dtype=np.int64)
    stack = [(root, np.arange(n))]
    while stack:
        node, at = stack.pop()
        if node.is_leaf:
            out[at] = node.id
            continue
        left = node.rule.goes_left(columns[node.rule.feature][at])
        stack.append((node.left, at[left]))
        stack.append((node.right, at[~left]))
    return out


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
    group_of = np.empty(len(col.levels), dtype=np.int64)  # level code -> group index

    while True:
        for k, g in enumerate(groups):
            group_of[g] = k
        member = group_of[codes]
        masks = [member == k for k in range(len(groups))]
        stats = [(int(m.sum()), float(rank_mean[m].mean())) for m in masks]
        sparse = [i for i, (cnt, _) in enumerate(stats) if cnt < min_fit_n]
        if len(groups) == 1 or not sparse:
            break
        i = min(sparse, key=lambda i: (stats[i][0], groups[i][0]))
        others = [j for j in range(len(groups)) if j != i]
        j = min(others, key=lambda j: (abs(stats[j][1] - stats[i][1]), groups[j][0]))
        merged = sorted(groups[i] + groups[j])
        groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [merged]
        groups.sort(key=lambda g: g[0])

    fitted = []
    for g, mask, (cnt, _) in zip(groups, masks, stats):
        if cnt >= min_fit_n:
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
    left_fit: FitResult | SseFit
    right_fit: FitResult | SseFit
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

    ``cuts`` holds each cut's numeric threshold, or the level set it sends
    left.  ``order`` puts the node's rows in cut order (sorted x, or the
    level groups of a categorical feature), so every cut's left side is
    the first ``n_left`` rows of it.
    """

    feature: int
    cuts: np.ndarray | list[frozenset[int]]
    order: np.ndarray
    n_left: np.ndarray

    def rule(self, k: int) -> SplitRule:
        cut = self.cuts[k]
        if isinstance(cut, frozenset):
            return SplitRule(self.feature, left_levels=cut)
        return SplitRule(self.feature, threshold=float(cut))


def _node_cuts(data, idx, min_leaf, cap, level_groups) -> list[_FeatureCuts]:
    """The admissible cuts of every feature at the node of rows ``idx``.

    A numeric feature is cut between distinct values (at most ``cap`` cuts
    when given); a categorical one at the contiguous cuts of
    ``level_groups(j)``, its level groups in cut order.
    """
    features = []
    for j, col in enumerate(data.covariates):
        x = col.values[idx]
        if col.kind == NUMERIC:
            order = np.argsort(x, kind="stable")
            positions, thresholds = _numeric_split_positions(x[order], min_leaf, cap)
            features.append(_FeatureCuts(j, thresholds, order, positions + 1))
            continue
        groups = level_groups(j)
        rank = np.empty(int(x.max()) + 1, dtype=np.int64)
        for r, g in enumerate(groups):
            rank[list(g)] = r
        counts = np.cumsum(np.bincount(rank[x], minlength=len(groups)))
        level_sets, n_left = [], []
        for cut in range(1, len(groups)):
            n = int(counts[cut - 1])
            if n < min_leaf or len(x) - n < min_leaf:
                continue
            level_sets.append(frozenset(c for g in groups[:cut] for c in g))
            n_left.append(n)
        order = np.argsort(rank[x], kind="stable")
        features.append(_FeatureCuts(j, level_sets, order, np.asarray(n_left, dtype=np.int64)))
    return features


def _cut_rows(data, idx, rule: SplitRule):
    """(left, right) global rows of a cut, in the node's row order."""
    left = rule.goes_left(data.covariates[rule.feature].values[idx])
    return idx[left], idx[~left]


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
    features = [fc for fc in features if len(fc.n_left)]
    n_cuts = sum(len(fc.n_left) for fc in features)
    if n_cuts == 0:
        return np.empty(0)
    theta = screen_grid(spec)
    caps, row_caps, offset = curvature_caps(spec, theta, uv)
    n = len(uv)
    n_left = np.concatenate([fc.n_left for fc in features])
    sizes = np.concatenate([n_left, n - n_left]).astype(float)
    w_left = np.concatenate([np.cumsum(row_caps[fc.order])[fc.n_left - 1] for fc in features])
    weights = np.concatenate([w_left, row_caps.sum() - w_left])
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
            _side_sums(ll, features),
            _side_sums(score, features),
            np.maximum(curvature, 0.0),
            nodes,
        )
        np.maximum(best, cell.max(axis=1), out=best)
    return best[:n_cuts] + best[n_cuts:] - parent_loglik + _SCREEN_SLACK * n


def _side_sums(table, features) -> np.ndarray:
    """Column sums of ``table`` over every cut's left side, then every right side."""
    prefix = [
        np.cumsum(np.add.reduceat(table[fc.order], np.concatenate(([0], fc.n_left)), axis=0), axis=0)
        for fc in features
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

    features = _node_cuts(
        data, idx, stopping.min_leaf, stopping.max_candidates,
        lambda j: order_modalities(spec, pseudo, data, j, idx, stopping.min_fit_n),
    )
    return _refit_best(
        data, idx, features,
        _screen_bounds(spec, pseudo.values[idx], features, parent_fit.loglik),
        lambda rows: fit_mle(spec, pseudo.values[rows], min_fit_n=stopping.min_fit_n),
        lambda lf, rf: lf.loglik + rf.loglik - parent_fit.loglik,
        stopping.min_gain,
    )


def _refit_best(data, idx, features, bound, fit, gain_of, min_gain) -> _Candidate | None:
    """Refit cuts in descending order of their gain ``bound`` until the next
    bound falls below the best exact gain ``gain_of(left fit, right fit)``.

    Ties go to the first cut in (feature, position) order, and only a gain
    above ``min_gain`` is returned.  Given true upper bounds, the answer is
    the one refitting every cut gives.
    """
    starts = np.cumsum([0] + [len(fc.n_left) for fc in features])
    best, best_k = None, -1
    for k in np.lexsort((np.arange(len(bound)), -bound)):
        if not bound[k] > min_gain or (best is not None and bound[k] < best.gain):
            break
        f = int(np.searchsorted(starts, k, side="right")) - 1
        rule = features[f].rule(k - starts[f])
        left_rows, right_rows = _cut_rows(data, idx, rule)
        lf, rf = fit(left_rows), fit(right_rows)
        gain = gain_of(lf, rf)
        if best is None or gain > best.gain or (gain == best.gain and k < best_k):
            best, best_k = _Candidate(rule, gain, lf, rf, left_rows, right_rows), k
    return best if best is not None and best.gain > min_gain else None


def sse_fit(y: np.ndarray) -> SseFit:
    """Least-squares fit of the responses ``y`` at a node."""
    return SseFit(float(y.mean()), -float(np.sum((y - y.mean()) ** 2)))


def _levels_by_mean(y, codes) -> list[tuple[int]]:
    """A node's levels as singleton groups in ascending order of mean response."""
    levels = np.unique(codes)
    means = [float(y[codes == c].mean()) for c in levels]
    return [(int(c),) for _, c in sorted(zip(means, levels))]


def sse_split(y: np.ndarray, data: Dataset, idx, parent: SseFit, min_leaf: int) -> _Candidate | None:
    """Best split of a node by sum of squared errors, or None when none reduces it.

    The cuts are those of the copula criterion without a candidate cap,
    with a categorical feature's levels ordered by mean response.  Every
    cut's summed child SSE comes from prefix sums of the centred responses
    and their squares in cut order; widened by _SSE_SLACK per row against
    rounding, it bounds the cut's gain for the refit of ``_refit_best``.
    """
    if len(idx) < 2 * min_leaf or not data.covariates:
        return None
    yv = y[idx]
    features = _node_cuts(
        data, idx, min_leaf, None, lambda j: _levels_by_mean(yv, data.covariates[j].values[idx])
    )
    centred = yv - parent.mean
    s1, s2 = _side_sums(np.column_stack([centred, centred**2]), features).T
    n_left = np.concatenate([fc.n_left for fc in features])
    side_sse = s2 - s1**2 / np.concatenate([n_left, len(idx) - n_left])
    parent_sse = -parent.loglik
    return _refit_best(
        data, idx, features,
        parent_sse * (1.0 + _SSE_SLACK * len(idx)) - side_sse[: len(n_left)] - side_sse[len(n_left) :],
        lambda rows: sse_fit(y[rows]),
        lambda lf, rf: parent_sse + lf.loglik + rf.loglik,  # (parent - left) - right, in SSE
        0.0,
    )


def grow(fit, split, rows: np.ndarray, max_leaves: int) -> TreeNode:
    """Grow a maximal tree on ``rows`` breadth first from a FIFO work list.

    The node criterion is ``fit(rows)``, a node's fit, and ``split(rows,
    node_fit)``, its best admissible split (a ``_Candidate``) or None.
    Nodes are numbered in the order they are created.
    """
    root = TreeNode(0, fit(rows))
    queue: list[tuple[TreeNode, np.ndarray]] = [(root, rows)]
    n_terminal = 1
    next_id = 1
    while queue:
        node, idx = queue.pop(0)
        if n_terminal >= max_leaves:
            continue
        cand = split(idx, node.fit)
        if cand is None:
            continue
        node.rule = cand.rule
        node.left = TreeNode(next_id, cand.left_fit, node.depth + 1)
        node.right = TreeNode(next_id + 1, cand.right_fit, node.depth + 1)
        next_id += 2
        n_terminal += 1
        queue.append((node.left, cand.left_rows))
        queue.append((node.right, cand.right_rows))
    return root


def build_maximal_tree(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    stopping: StoppingConfig = StoppingConfig(),
) -> CopulaTree:
    """Grow the maximal copula tree by the log-likelihood criterion."""
    if pseudo.values.shape[0] != data.n:
        raise SchemaError("pseudo-observations and dataset are not row aligned")
    root = grow(
        lambda idx: node_fit(spec, pseudo, idx, stopping.min_fit_n),
        lambda idx, fit: find_optimal_split(spec, pseudo, data, stopping, idx, fit),
        np.arange(data.n),
        stopping.max_leaves,
    )
    return CopulaTree(spec, root, schema_of(data))


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
    null_stopping = replace(stopping, min_gain=-math.inf)
    gains = []
    for _ in range(n_permutations):
        perm = rng.permutation(data.n)
        shuffled = PseudoObservations(pseudo.values[perm], pseudo.method)
        cand = find_optimal_split(spec, shuffled, data, null_stopping)
        gains.append(0.0 if cand is None else max(cand.gain, 0.0))
    # conservative empirical quantile: next order statistic up, never interpolated
    return float(np.quantile(np.asarray(gains), 1.0 - alpha, method="higher"))
