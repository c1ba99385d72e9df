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
mean; within one maximal tree each level group is searched once
(``_Build``).  Ties are broken by (feature index, threshold / shortest
left set), so the search result does not depend on row or evaluation
order.

The search is exact without refitting every cut.  A screen bounds each
cut's gain from above first:

* every row's log-density and its derivative in theta are evaluated on a
  fixed per-family grid spanning fit_mle's search interval
  (``copulas.screen_grid``), once per pruned fit, whose CV fold trees
  grow on row indices into the same table (``_row_table``);
* prefix sums over a node's rows in cut order (sorted x, or the level
  groups of ``order_modalities``) give both sides' sums at every grid node
  (``_side_sums``, numpy only);
* on each grid cell a side's log-likelihood lies below the two tangent
  parabolas at the cell's ends whose curvature is a proven cap on the
  side's summed second derivative (``copulas.curvature_caps``, derived
  there per family), so the largest maximum of the lower of the two
  parabolas, over all cells, bounds what fit_mle can reach.

The cut with the top bound is refit first.  Its exact gain g* leaves few
cuts whose bound still reaches it, and only their grid cells that can
still lift them to g* are bisected, a few levels deep, with the row
kernel evaluated at the new midpoints alone.  Cuts are then refit with
fit_mle in descending order of their bound until the next bound falls
below the best exact gain (a bound equal to it is still refit, for the
tie rule).  The winner, its fits and its gain come from the same fit_mle
calls an exhaustive search makes, so trees are bit-identical to
refitting every cut; a non-finite bound only means that cut is refit.
_SCREEN_BUDGET bounds the values the screen's working arrays hold at
once, beyond the row table: every blocked kernel sizes its blocks from
the arrays it holds (``_per_block``), the side sums gather a node's rows
of the table a chunk at a time, and the live cells are bisected in
chunks.  Only the row table, the per-row and per-cut vectors and the
live cells carried from one bisection level to the next grow with the
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .copulas import (
    MIN_FIT_N,
    CopulaSpec,
    FitResult,
    _check_interior,
    _mle_search,
    curvature_caps,
    fit_mle,
    log_density_and_score,
    screen_grid,
    theta_to_tau,
)
from .copulas import log_density as _log_density
from .data import CATEGORICAL, NUMERIC, Dataset, PseudoObservations, average_ranks, unique
from .errors import ConfigError, SchemaError

__all__ = [
    "SplitRule",
    "TreeNode",
    "CopulaTree",
    "StoppingConfig",
    "ColumnSchema",
    "order_modalities",
    "find_optimal_split",
    "build_maximal_tree",
    "tree_loglik",
]


# Values the split screen's working arrays hold at once, beyond the row table.
_SCREEN_BUDGET = 1 << 16
# Bisection levels of the screen's live cells before any cut is refit.
_REFINE_LEVELS = 3
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
    max_candidates: int | None = None

    def __post_init__(self):
        if self.min_leaf < MIN_FIT_N:
            raise ConfigError(f"min_leaf must be >= {MIN_FIT_N}")
        if not self.min_gain >= 0:
            raise ConfigError("min_gain must be >= 0")
        if self.max_leaves < 1:
            raise ConfigError("max_leaves must be >= 1")
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ConfigError("max_candidates must be >= 1 or unset")


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
        lut = self._left_lookup
        return lut[np.clip(values, -1, len(lut) - 1)]

    @cached_property
    def _left_lookup(self) -> np.ndarray:
        """Level code -> goes left, for codes 0 .. max(left_levels) + 1.  The
        last entry is False, and every code outside the table is clipped onto
        it or, below zero, onto index -1, the same entry."""
        lut = np.zeros(max(self.left_levels, default=-1) + 2, dtype=bool)
        lut[list(self.left_levels)] = True
        return lut


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


def walk(node: TreeNode, cut=()):
    """Every node of the subtree at ``node``, parents before children; a
    node whose id is in ``cut`` counts as a leaf."""
    stack = [node]
    while stack:
        nd = stack.pop()
        yield nd
        if not nd.is_leaf and nd.id not in cut:
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


def order_modalities(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    feature: int,
    rows=None,
    *,
    _searches: dict | None = None,
) -> list[tuple[int, ...]]:
    """Order the observed levels of a categorical feature by fitted theta.

    Levels with fewer than ``MIN_FIT_N`` rows are merged into the level
    group with the closest within-node response-rank mean before fitting.
    Returns level-code groups sorted ascending by the group theta_hat
    (ties by the lowest level code in the group).  Only theta is used, so
    a group gets fit_mle's search without its tau.

    ``_searches`` is internal: ``find_optimal_split`` passes its memo of
    searches keyed by their ascending global rows (``_Build``); a group
    found there is not searched again.
    """
    col = data.covariates[feature]
    if col.kind != CATEGORICAL:
        raise ConfigError(f"feature {feature} ({col.name}) is not categorical")
    idx = np.arange(data.n) if rows is None else np.asarray(rows)
    codes = col.values[idx]
    uv = pseudo.values[idx]
    rank_mean = None  # merge key, ranked only once a merge is needed

    groups: list[list[int]] = [[int(c)] for c in unique(codes)]
    group_of = np.empty(len(col.levels), dtype=np.int64)  # level code -> group index

    while True:
        for k, g in enumerate(groups):
            group_of[g] = k
        member = group_of[codes]
        masks = [member == k for k in range(len(groups))]
        counts = [int(m.sum()) for m in masks]
        sparse = [i for i, cnt in enumerate(counts) if cnt < MIN_FIT_N]
        if len(groups) == 1 or not sparse:
            break
        if rank_mean is None:
            # mean over both response columns of the within-node ranks
            rank_mean = (average_ranks(uv[:, 0]) + average_ranks(uv[:, 1])) / (2.0 * (len(idx) + 1))
        means = [float(rank_mean[m].mean()) for m in masks]
        i = min(sparse, key=lambda i: (counts[i], groups[i][0]))
        others = [j for j in range(len(groups)) if j != i]
        j = min(others, key=lambda j: (abs(means[j] - means[i]), groups[j][0]))
        merged = sorted(groups[i] + groups[j])
        groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [merged]
        groups.sort(key=lambda g: g[0])

    if len(groups) > 1 or counts[0] >= MIN_FIT_N:  # some group is fitted
        _check_interior(uv[:, 0], uv[:, 1])
    searches = {} if _searches is None else _searches
    fitted = []
    for g, mask, cnt in zip(groups, masks, counts):
        if cnt < MIN_FIT_N:  # single under-sized group left: order degenerates
            theta = 0.0
        else:
            key = idx[mask].tobytes()
            if key not in searches:
                searches[key] = _mle_search(spec, uv[mask])
            theta = searches[key][0]
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
        pick = unique(np.round(np.linspace(0, len(ok) - 1, cap)).astype(int))
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


def _per_block(size: int, buffers: int) -> int:
    """Items per block when each item takes ``size`` values in each of the
    ``buffers`` arrays a blocked kernel holds at once, so that the block
    keeps to _SCREEN_BUDGET (at least one item)."""
    return max(1, _SCREEN_BUDGET // (buffers * size))


def _gather(values, rows) -> np.ndarray:
    """``values[rows]`` with everything past the first axis flattened.

    Not ``np.take``, which first copies a non-contiguous ``values`` (a
    column block of the row table) whole.
    """
    return values[rows].reshape(len(rows), -1)


def _pairwise_sum(values, rows, chunk) -> np.ndarray:
    """numpy's pairwise sum of ``values[rows]`` over the rows, bit for bit,
    gathering at most max(chunk, 128) rows at a time.

    numpy's pairwise summation halves a run of more than 128 terms, rounded
    down to a multiple of 8, and sums each half the same way; pieces are
    cut at those same points.  A piece is summed by ``np.add.reduceat``,
    which adds its first row to the pairwise sum of the rest, so the piece
    is put after a row of -0.0, the exact zero of addition.
    """
    n = len(rows)
    if n > max(chunk, 128):
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values, rows[:half], chunk) + _pairwise_sum(values, rows[half:], chunk)
    piece = np.empty((n + 1, math.prod(values.shape[1:])))
    piece[0] = -0.0
    piece[1:] = _gather(values, rows)
    return np.add.reduceat(piece, [0], axis=0)[0]


def _segment_sums(values, rows, starts, chunk) -> np.ndarray:
    """``np.add.reduceat`` of ``values[rows]`` (flattened past the first axis)
    at ``starts``, bit for bit, gathering about ``chunk`` rows at a time.

    Runs of whole segments that fit one chunk are gathered and reduced
    together, which serves many short segments; a longer segment is its
    first row plus the pairwise sum of the rest, summed in chunks
    (``_pairwise_sum``), which serves few long ones.
    """
    ends = np.append(starts[1:], len(rows))
    out = np.empty((len(starts), math.prod(values.shape[1:])))
    i = 0
    while i < len(starts):
        j = int(np.searchsorted(ends, starts[i] + chunk, side="right"))
        if j > i:  # segments i .. j - 1 end within one chunk
            r0 = starts[i]
            out[i:j] = np.add.reduceat(_gather(values, rows[r0 : ends[j - 1]]), starts[i:j] - r0, axis=0)
            i = j
        else:
            seg = rows[starts[i] : ends[i]]
            out[i] = _gather(values, seg[:1])[0] + _pairwise_sum(values, seg[1:], chunk)
            i += 1
    return out


def _side_sums(splits):
    """A function that sums the rows of an (rows, ...) array over every
    cut's left side, then every right side, into an (..., sides) array.

    ``splits`` holds, per feature, the rows in cut order (as row numbers of
    that array) and the left-side sizes of its cuts, ascending.  Each
    feature's rows are summed between consecutive cuts as one
    ``np.add.reduceat`` over all of them in cut order would sum them, bit
    for bit, but no more than a chunk of them is gathered at once
    (``_segment_sums``), and prefix sums of those segments give the sides.
    Sides come last, so that each grid node of a screen block is one run of
    sides.  One feature at a time, as one gather and reduceat over every
    feature's rows took about 1.7 times as long on the study benchmark's
    nodes (numpy 2.4, 2 vCPUs).
    """
    splits = [(rows, np.append(0, n_left)) for rows, n_left in splits]
    n_cuts = sum(len(starts) - 1 for _, starts in splits)

    def sums(values):
        width = math.prod(values.shape[1:])
        chunk = _per_block(width, 2)  # the gathered rows and their segment sums
        out = np.empty((width, 2 * n_cuts))
        k = 0
        for rows, starts in splits:
            prefix = np.cumsum(_segment_sums(values, rows, starts, chunk), axis=0)
            k1 = k + len(starts) - 1
            out[:, k:k1] = prefix[:-1].T
            np.subtract(prefix[-1, :, None], prefix[:-1].T, out=out[:, n_cuts + k : n_cuts + k1])
            k = k1
        return out.reshape(values.shape[1:] + (2 * n_cuts,))

    return sums


def _kernel_table(spec, theta, uv) -> np.ndarray:
    """Every row's log-density and score at each of ``theta``, shape (rows, 2, len(theta)).

    Built in row blocks sized for the eight or so block-shaped arrays the
    kernel holds at once, so that only the table grows with the rows.
    """
    table = np.empty((len(uv), 2, len(theta)))
    step = _per_block(len(theta), 8)
    for r in range(0, len(uv), step):
        rows = uv[r : r + step]
        table[r : r + step, 0], table[r : r + step, 1] = log_density_and_score(spec, theta, rows[:, 0], rows[:, 1])
    return table


def _row_table(spec, uv) -> np.ndarray:
    """Every row's log-density and score at every screen-grid node, shape (rows, 2, nodes)."""
    return _kernel_table(spec, screen_grid(spec), uv)


def _cell_maxima(fa, fb, ga, gb, curvature, a, b):
    """Upper bound on max L over each cell [a, b], for every cut side.

    ``fa``/``ga`` and ``fb``/``gb`` hold a side's summed log-likelihood and
    score at the cell's ends.  Since L'' <= C = ``curvature`` on the cell,
    L lies below both tangent parabolas
        P_a(t) = f(a) + g(a)(t - a) + C/2 (t - a)^2
        P_b(t) = f(b) + g(b)(t - b) + C/2 (t - b)^2.
    Their difference is linear, so min(P_a, P_b) is P_a up to their
    crossing and P_b after it; being convex pieces, its maximum is at a,
    b or the crossing.  All arguments broadcast, so the grid's cells and
    the bisected cells of the refinement share this.  With c = C/2,
    h = b - a and slope = g(a) - g(b) + 2ch, the crossing lies at
    s = (f(b) - f(a) - g(b)h + ch^2) / slope, clipped to [0, h]; the
    bound is the largest of f(a), f(b) and, if slope > 0, P_a(a + s),
    else the larger of P_a(b) and P_b(a).  A non-finite result is +inf.
    It is computed in place in four arrays of the cells' shape, each
    operation as that expression evaluates it.
    """
    h = b - a
    shape = np.broadcast(fa, fb, ga, gb, curvature, h).shape
    c, slope, s, t = (np.empty(shape) for _ in range(4))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        np.multiply(curvature, 0.5, out=c)
        np.multiply(c, 2.0, out=t)
        t *= h
        np.subtract(ga, gb, out=slope)
        slope += t  # >= 0 when the cap holds
        np.subtract(fb, fa, out=s)
        np.multiply(gb, h, out=t)
        s -= t
        np.multiply(c, h, out=t)
        t *= h
        s += t
        s /= slope
        np.clip(s, 0.0, h, out=s)
        np.multiply(c, s, out=t)  # t = P_a(a + s)
        t += ga
        t *= s
        t += fa
        np.multiply(c, h, out=s)  # s = P_a(b)
        s += ga
        s *= h
        s += fa
        c *= h  # c = P_b(a)
        np.subtract(gb, c, out=c)
        c *= h
        np.subtract(fb, c, out=c)
        np.maximum(s, c, out=s)
        np.copyto(s, t, where=slope > 0.0)
        np.maximum(fa, fb, out=t)
        np.maximum(t, s, out=t)
    t[~np.isfinite(t)] = np.inf
    return t


class _Screen:
    """Upper bounds on the gain of every cut of a node, in (feature, position) order.

    Each side's maximal log-likelihood over fit_mle's search interval is
    bounded from the rows' log-density and score on the screen grid, read
    from the row table (``table[at[i]]`` holds node row i), and the
    per-cell curvature caps of ``copulas.curvature_caps``.  A non-finite
    value anywhere in a cut's computation makes its bound +inf, which only
    means "refit it".  The grid is bounded in column blocks, the side sums
    gather the table's rows a chunk at a time, and the live cells are
    bisected in chunks, each sized from the arrays it holds, so the working
    arrays keep to about _SCREEN_BUDGET values.
    """

    def __init__(self, spec, table, at, uv, features, parent_loglik):
        self.spec, self.table, self.uv = spec, table, uv
        self.theta = screen_grid(spec)
        features = [fc for fc in features if len(fc.n_left)]
        self.n_left = np.concatenate([fc.n_left for fc in features] + [np.empty(0, dtype=np.int64)])
        self.slot = np.repeat(np.arange(len(features)), [len(fc.n_left) for fc in features])
        self.orders = [fc.order for fc in features]
        self.table_orders = [at[fc.order] for fc in features]
        n = len(uv)
        self.caps, row_caps, self.offset = curvature_caps(spec, self.theta, uv)
        self.sizes = np.concatenate([self.n_left, n - self.n_left]).astype(float)
        # a side's curvature is the lower of its two caps; with no per-row cap
        # (offset +inf: Frank and Gumbel) the first is the lower, bit for bit
        self.weights = None
        if not np.all(self.offset == np.inf):
            self.weights = _side_sums(self._splits(np.arange(len(self.n_left)), self.orders))(row_caps)
        self.base = parent_loglik - _SCREEN_SLACK * n  # bound = left + right - base

    def _splits(self, ks, orders):
        """_side_sums' splits of the cuts ``ks`` (ascending)."""
        return [(orders[f], self.n_left[ks[self.slot[ks] == f]]) for f in unique(self.slot[ks])]

    def _grid_cells(self, ks):
        """(first cell, f, g, curvature, cell bounds) per column block, for the cuts ``ks``.

        f and g, the sides' summed log-likelihood and score, have shape
        (nodes, sides), and the curvature and bounds (cells, sides).  A
        block holds eight arrays of cells x sides at most: f and g, the
        curvature, the cell bounds and _cell_maxima's four.
        """
        sides = np.concatenate([ks, len(self.n_left) + ks])
        size = self.sizes[sides]
        side_sums = _side_sums(self._splits(ks, self.table_orders))
        last = len(self.theta) - 1
        width = min(last, _per_block(len(sides), 8))  # all cells in one block: bounds keeps it for refine
        for k0 in range(0, last, width):
            k1 = min(k0 + width, last)
            f, g = side_sums(self.table[:, :, k0 : k1 + 1])
            curvature = self.caps[k0:k1, None] * size
            if self.weights is not None:
                np.minimum(curvature, self.weights[sides] + self.offset[k0:k1, None] * size, out=curvature)
            np.maximum(curvature, 0.0, out=curvature)
            a, b = self.theta[k0:k1, None], self.theta[k0 + 1 : k1 + 1, None]
            yield k0, f, g, curvature, _cell_maxima(f[:-1], f[1:], g[:-1], g[1:], curvature, a, b)

    def bounds(self) -> np.ndarray:
        """The grid's bound on every cut's gain."""
        n_cuts = len(self.n_left)
        best = np.full(2 * n_cuts, -np.inf)
        if not n_cuts:
            return best
        for n_blocks, block in enumerate(self._grid_cells(np.arange(n_cuts)), 1):
            np.maximum(best, block[-1].max(axis=0), out=best)
        self.best = best
        self.block = block if n_blocks == 1 else None  # the whole grid; refine reads its cuts' rows
        return best[:n_cuts] + best[n_cuts:] - self.base

    def refine(self, bound, top, target, min_gain) -> np.ndarray:
        """``bound`` (from ``bounds``) tightened for the cuts that can still
        reach ``target``, the exact gain of cut ``top``.

        A cell of such a cut is live while its bound plus the other side's
        best can still reach ``target`` (and exceed ``min_gain``).  Live
        cells are bisected _REFINE_LEVELS times, a chunk at a time (see
        ``_bisect``): the row kernel is evaluated at the new midpoints only,
        summed per side, and each half is bounded under its parent cell's
        curvature cap, which holds on any sub-cell.  Every side's best and
        the best of its dead cells take all of a level's cells into account
        before the next level's liveness test.  Frank's cell around
        theta = 0, where the kernel is undefined, is kept whole.
        """
        ks = np.flatnonzero((bound >= target) & (bound > min_gain))
        ks = ks[ks != top]
        if not len(ks):
            return bound
        m = len(ks)
        other = np.concatenate([np.arange(m, 2 * m), np.arange(m)])  # the other side of each side
        sides = np.concatenate([ks, len(self.n_left) + ks])
        best = self.best[sides]
        rest = np.full(2 * m, -np.inf)  # each side's largest bound over its dead cells
        if self.block is None:
            blocks = self._grid_cells(ks)
        else:
            blocks = [(0,) + tuple(a[:, sides] for a in self.block[1:])]
        # a live cell is a column (side, a, b, f(a), f(b), g(a), g(b), curvature, bound)
        live = []
        for k0, f, g, curvature, cell in blocks:
            alive = self._reaches(cell + best[other], target, min_gain)
            np.maximum(rest, np.where(alive, -np.inf, cell).max(axis=0), out=rest)
            c, r = np.nonzero(alive)
            live.append(np.stack([r, self.theta[k0 + c], self.theta[k0 + c + 1], f[c, r], f[c + 1, r],
                                  g[c, r], g[c + 1, r], curvature[c, r], cell[c, r]]))
        cells = np.concatenate(live, axis=1)
        side_sums = _side_sums(self._splits(ks, self.orders))
        step = _per_block(len(cells), 4)  # cells per chunk: the chunk, its halves, the bisection's own arrays
        for level in range(_REFINE_LEVELS + 1):
            side = cells[0].astype(np.intp)
            best = rest.copy()
            np.maximum.at(best, side, cells[-1])
            if level == _REFINE_LEVELS:
                break
            alive = self._reaches(cells[-1] + best[other[side]], target, min_gain)
            np.maximum.at(rest, side[~alive], cells[-1][~alive])
            if not alive.any():
                break
            cells = cells[:, alive]
            cells = np.concatenate([self._bisect(cells[:, c0 : c0 + step], side_sums, len(ks))
                                    for c0 in range(0, cells.shape[1], step)], axis=1)
        out = bound.copy()
        out[ks] = np.minimum(bound[ks], best[:m] + best[m:] - self.base)
        return out

    def _reaches(self, total, target, min_gain):
        gain = total - self.base
        return (gain >= target) & (gain > min_gain)

    def _bisect(self, cells, side_sums, n_cuts) -> np.ndarray:
        """Both halves of every live cell, with their bounds (see ``refine``).

        ``side_sums`` sums node rows over the sides of the ``n_cuts`` live
        cuts.  The midpoints are evaluated in column blocks sized for the
        block's kernel table and its side sums, two arrays of two values per
        node row or side and column, and one more for the sums' own work.
        """
        whole = (cells[1] < 0.0) & (cells[2] > 0.0)
        kept, cells = cells[:, whole], cells[:, ~whole]
        side, a, b, fa, fb, ga, gb, curvature, parent = cells
        side = side.astype(np.intp)
        mid = 0.5 * (a + b)
        grid, col = unique(mid, return_inverse=True)
        fm, gm = np.empty(len(mid)), np.empty(len(mid))
        width = _per_block(2 * max(len(self.uv), 2 * n_cuts), 3)
        for c0 in range(0, len(grid), width):
            sums = side_sums(_kernel_table(self.spec, grid[c0 : c0 + width], self.uv))
            sel = (col >= c0) & (col < c0 + width)
            fm[sel], gm[sel] = sums[0, col[sel] - c0, side[sel]], sums[1, col[sel] - c0, side[sel]]
        low = np.minimum(_cell_maxima(fa, fm, ga, gm, curvature, a, mid), parent)
        high = np.minimum(_cell_maxima(fm, fb, gm, gb, curvature, mid, b), parent)
        return np.concatenate([
            np.stack([side, a, mid, fa, fm, ga, gm, curvature, low]),
            np.stack([side, mid, b, fm, fb, gm, gb, curvature, high]),
            kept,
        ], axis=1)


@dataclass(frozen=True)
class _Build:
    """What the split searches of one maximal tree share, for that build only.

    ``table`` is the row table of all of the pseudo-observations' rows
    (``_row_table``), which a pruned fit shares between its full-data tree
    and every CV fold tree.  ``searches`` maps a level group's rows, the
    build's global row indices in ascending order as bytes, to its fit_mle
    search (theta_hat, loglik, converged); ``order_modalities`` fills it,
    and a refit cut side that is one such group reads it.  Node rows are
    ascending at every node (the root's rows are, children are masks of
    them), so equal row sets give equal keys.  A ``find_optimal_split``
    call on its own makes one for its node.
    """

    table: np.ndarray
    searches: dict[bytes, tuple[float, float, bool]] = field(default_factory=dict)


def _rule(features, k: int) -> SplitRule:
    """Rule of cut ``k`` in (feature, position) order."""
    for fc in features:
        if k < len(fc.n_left):
            return fc.rule(k)
        k -= len(fc.n_left)
    raise IndexError(k)


def find_optimal_split(
    spec: CopulaSpec,
    pseudo: PseudoObservations,
    data: Dataset,
    stopping: StoppingConfig,
    rows=None,
    parent_fit: FitResult | None = None,
    *,
    _build: _Build | None = None,
) -> _Candidate | None:
    """Best admissible split of a node, or None when nothing improves.

    The candidate maximising gain = loglik(left) + loglik(right) -
    loglik(parent) is returned only if gain > stopping.min_gain; ties go
    to the first cut in (feature, position) order.  Cuts are refit with
    fit_mle in descending order of their screened gain bound until the
    next bound falls below the best exact gain, so the answer is the one
    an exhaustive refit of every cut gives.  The cut with the top grid
    bound is refit first; its exact gain lets ``_Screen.refine`` tighten
    the bounds of the cuts that might beat it.

    ``_build`` is internal: ``build_maximal_tree`` passes the row table of
    all of ``pseudo``'s rows and its memo of level-group searches.  Without
    it the node's rows get their own table and memo.
    """
    idx = np.arange(data.n) if rows is None else np.asarray(rows)
    if len(idx) < 2 * stopping.min_leaf:
        return None
    if parent_fit is None:
        parent_fit = fit_mle(spec, pseudo.values[idx])
    if _build is None:
        _build, at = _Build(_row_table(spec, pseudo.values[idx])), np.arange(len(idx))
    else:
        at = idx
    searches = _build.searches
    features = _node_cuts(
        data, idx, stopping.min_leaf, stopping.max_candidates,
        lambda j: order_modalities(spec, pseudo, data, j, idx, _searches=searches),
    )

    def fit(rows):
        found = searches.get(rows.tobytes())
        if found is None:
            return fit_mle(spec, pseudo.values[rows])
        theta_hat, loglik, converged = found  # a level group's search: add its tau
        return FitResult(theta_hat, theta_to_tau(spec, theta_hat), loglik, len(rows), converged)

    def gain_of(lf, rf):
        return lf.loglik + rf.loglik - parent_fit.loglik

    screen = _Screen(spec, _build.table, at, pseudo.values[idx], features, parent_fit.loglik)
    bound = screen.bounds()
    fitted = {}
    if len(bound) and bound.max() > stopping.min_gain:
        top = int(np.argmax(bound))  # the first cut _refit_best would refit
        fitted[top] = tuple(fit(rows) for rows in _cut_rows(data, idx, _rule(features, top)))
        bound = screen.refine(bound, top, gain_of(*fitted[top]), stopping.min_gain)
    return _refit_best(data, idx, features, bound, fit, gain_of, stopping.min_gain, fitted)


def _refit_best(data, idx, features, bound, fit, gain_of, min_gain, fitted=None) -> _Candidate | None:
    """Refit cuts in descending order of their gain ``bound`` until the next
    bound falls below the best exact gain ``gain_of(left fit, right fit)``.

    Ties go to the first cut in (feature, position) order, and only a gain
    above ``min_gain`` is returned.  Given true upper bounds, the answer is
    the one refitting every cut gives.  ``fitted`` maps cuts fitted
    already to their (left, right) fits.
    """
    fitted = fitted or {}
    best, best_k = None, -1
    for k in np.lexsort((np.arange(len(bound)), -bound)):
        if not bound[k] > min_gain or (best is not None and bound[k] < best.gain):
            break
        rule = _rule(features, k)
        left_rows, right_rows = _cut_rows(data, idx, rule)
        lf, rf = fitted[k] if k in fitted else (fit(left_rows), fit(right_rows))
        gain = gain_of(lf, rf)
        if best is None or gain > best.gain or (gain == best.gain and k < best_k):
            best, best_k = _Candidate(rule, gain, lf, rf, left_rows, right_rows), k
    return best if best is not None and best.gain > min_gain else None


def sse_fit(y: np.ndarray) -> SseFit:
    """Least-squares fit of the responses ``y`` at a node."""
    mean = y.mean()
    return SseFit(float(mean), -float(np.sum((y - mean) ** 2)))


def _levels_by_mean(y, codes) -> list[tuple[int]]:
    """A node's levels as singleton groups in ascending order of mean response."""
    levels = unique(codes)
    means = [float(y[codes == c].mean()) for c in levels]
    return [(int(c),) for _, c in sorted(zip(means, levels))]


def sse_split(y: np.ndarray, data: Dataset, idx, parent: SseFit, min_leaf: int) -> _Candidate | None:
    """Best split of a node by sum of squared errors, or None when none reduces it.

    The cuts are those of the copula criterion without a candidate cap,
    with a categorical feature's levels ordered by mean response.  Every
    cut's summed child SSE comes from running sums of the centred responses
    and their squares in cut order; widened by _SSE_SLACK per row against
    rounding, it bounds the cut's gain for the refit of ``_refit_best``.
    """
    if len(idx) < 2 * min_leaf or not data.covariates:
        return None
    yv = y[idx]
    features = _node_cuts(
        data, idx, min_leaf, None, lambda j: _levels_by_mean(yv, data.covariates[j].values[idx])
    )
    centred, parent_sse, bound = yv - parent.mean, -parent.loglik, []
    for fc in features:  # the left side of cut k ends at row n_left[k] - 1 of fc.order
        c, k = centred[fc.order], fc.n_left - 1
        s1, s2 = np.cumsum(c), np.cumsum(c**2)
        left_sse = s2[k] - s1[k] ** 2 / fc.n_left
        right_sse = (s2[-1] - s2[k]) - (s1[-1] - s1[k]) ** 2 / (len(idx) - fc.n_left)
        bound.append(parent_sse * (1.0 + _SSE_SLACK * len(idx)) - left_sse - right_sse)
    return _refit_best(
        data, idx, features,
        np.concatenate(bound),
        lambda rows: sse_fit(y[rows]),
        lambda lf, rf: parent_sse + lf.loglik + rf.loglik,  # (parent - left) - right, in SSE
        0.0,
    )


def grow(fit, split, rows: np.ndarray, max_leaves: int) -> TreeNode:
    """Grow a maximal tree on ``rows`` breadth first from a FIFO work list.

    The node criterion is ``fit(rows)``, a node's fit, and ``split(rows,
    fit)``, its best admissible split (a ``_Candidate``) or None.
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
    rows=None,
    *,
    _table: np.ndarray | None = None,
) -> CopulaTree:
    """Grow the maximal copula tree by the log-likelihood criterion.

    The tree is grown on ``rows`` (ascending; all rows by default) and
    equals the tree grown on ``data.subset(rows)``.  Every row's screen
    entries are computed once (``_row_table``), and every node's split
    search reads its rows from that table.  Each level group is searched
    at most once per tree (``_Build``).

    ``_table`` is internal: ``pruning`` passes the row table of all rows,
    built once per fit and read by the full-data tree and every CV fold
    tree.
    """
    if pseudo.values.shape[0] != data.n:
        raise SchemaError("pseudo-observations and dataset are not row aligned")
    build = _Build(_row_table(spec, pseudo.values) if _table is None else _table)
    root = grow(
        lambda idx: fit_mle(spec, pseudo.values[idx]),
        lambda idx, fit: find_optimal_split(spec, pseudo, data, stopping, idx, fit, _build=build),
        np.arange(data.n) if rows is None else np.asarray(rows),
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
