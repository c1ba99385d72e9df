"""Pseudo-observation estimators: the once-and-for-all margin step.

Five ways to turn responses into estimated probability-integral
transforms, all clamped strictly inside (0, 1):

* ``pseudo_empirical``    -- global average ranks / (n + 1)
* ``pseudo_kernel``       -- covariate-weighted ECDF (product Gaussian kernel)
* ``pseudo_parametric_normal`` -- OLS mean, unit variance, normal CDF of residuals
* ``pseudo_discrete``     -- within-class average ranks for categorical covariates
* ``pseudo_margin_tree``  -- mixture of per-leaf ECDFs from a least-squares
  regression tree per response column, pruned by cross-validation

Ties always take average ranks; the rank denominator is (count + 1).
Nothing here is random except the margin-tree CV fold assignment, which
takes an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._pcg64 import PCG64
from .data import CATEGORICAL, NUMERIC, Dataset, PseudoObservations, average_ranks, unique
from .errors import ConfigError, RegressionError
from .pruning import choose_k, leaves_below, weakest_link_path
from .tree import TreeNode, _per_block, grow, route, sse_fit, sse_split, walk

__all__ = [
    "check_bandwidth",
    "pseudo_empirical",
    "pseudo_kernel",
    "pseudo_parametric_normal",
    "pseudo_discrete",
    "pseudo_margin_tree",
    "MarginTreeConfig",
]


def _column_ranks(y: np.ndarray) -> np.ndarray:
    return np.column_stack([average_ranks(y[:, j]) for j in range(y.shape[1])])


def pseudo_empirical(data: Dataset) -> PseudoObservations:
    """Covariate-free baseline: per-column average ranks over (n + 1)."""
    vals = _column_ranks(data.responses) / (data.n + 1)
    return PseudoObservations(vals, "empirical")


def check_bandwidth(h: float) -> None:
    """Raise ConfigError unless the kernel bandwidth ``h`` is > 0 (NaN is not)."""
    if not h > 0:
        raise ConfigError(f"bandwidth must be > 0, got {h}")


def pseudo_kernel(data: Dataset, h: float) -> PseudoObservations:
    """Kernel-weighted conditional ECDF with a product Gaussian kernel.

    The self term is included, so the weight denominator is never zero;
    the result is clamped to [1/(2n), 1 - 1/(2n)].
    Rows are weighted in blocks sized for the four (rows, n) arrays a
    block holds (``tree._per_block``), so memory grows linearly in n;
    every row's arithmetic is that of the whole n x n matrix.
    A block's squared scaled distances are added one covariate at a time
    into one (rows, n) array, in the order in which summing the
    (rows, n, covariates) cube over its last axis adds them.
    """
    check_bandwidth(h)
    if any(c.kind != NUMERIC for c in data.covariates):
        raise ConfigError("pseudo_kernel requires all covariates to be numeric")
    n = data.n
    eps = 1.0 / (2.0 * n)
    out = np.empty_like(data.responses)
    step = _per_block(n, 4)  # w, d, the 1{Y_l <= Y_i} mask and the masked weights
    for i0 in range(0, n, step):
        rows = slice(i0, i0 + step)
        w = np.zeros((min(step, n - i0), n))  # (i, l): squared scaled distance
        d = np.empty_like(w)
        for c in data.covariates:
            np.subtract(c.values[rows, None], c.values[None, :], out=d)
            d /= h
            d *= d
            w += d
        w *= -0.5  # log kernel up to const
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)  # kernel weight, largest 1 in each row
        denom = w.sum(axis=1)
        for j in range(data.k):
            yj = data.responses[:, j]
            below = yj[None, :] <= yj[rows, None]  # (i, l) = 1{Y_l <= Y_i}
            out[rows, j] = np.where(below, w, 0.0).sum(axis=1) / denom
    return PseudoObservations(np.clip(out, eps, 1.0 - eps), f"kernel(h={h})")


def pseudo_parametric_normal(data: Dataset, design=None) -> PseudoObservations:
    """Normal margins with OLS mean and variance fixed at one.

    ``design`` lists the covariate indices entering the linear mean
    (default: every numeric covariate).  The pseudo-observation is the
    standard normal CDF of the fitted residual.
    """
    if design is None:
        design = [i for i, c in enumerate(data.covariates) if c.kind == NUMERIC]
    cols = []
    for i in design:
        c = data.covariates[i]
        if c.kind != NUMERIC:
            raise ConfigError(f"design column {c.name} is not numeric")
        cols.append(c.values)
    xmat = np.column_stack([np.ones(data.n)] + cols)
    if data.n <= xmat.shape[1]:
        raise RegressionError(f"need more than {xmat.shape[1]} rows for the regression")
    if np.linalg.matrix_rank(xmat) < xmat.shape[1]:
        raise RegressionError("rank-deficient regression design")
    beta, *_ = np.linalg.lstsq(xmat, data.responses, rcond=None)
    resid = data.responses - xmat @ beta
    cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in resid.ravel().tolist()]).reshape(resid.shape)
    eps = 1.0 / (2.0 * data.n)
    return PseudoObservations(np.clip(cdf, eps, 1.0 - eps), "parametric_normal")


def pseudo_discrete(data: Dataset) -> PseudoObservations:
    """Within-class average ranks for purely categorical covariates.

    A class is one observed combination of covariate levels.
    """
    if not data.covariates or any(c.kind != CATEGORICAL for c in data.covariates):
        raise ConfigError("pseudo_discrete requires categorical covariates only")
    combos = zip(*[c.values.tolist() for c in data.covariates])
    class_index: dict = {}
    labels = np.array([class_index.setdefault(c, len(class_index)) for c in combos])
    out = np.empty_like(data.responses)
    for lab in range(len(class_index)):
        mask = labels == lab
        block = data.responses[mask]
        out[mask] = _column_ranks(block) / (block.shape[0] + 1)
    return PseudoObservations(out, "discrete")


# ---------------------------------------------------------------------------
# least-squares margin trees

# The most leaves a margin tree is grown to, and the folds of its size choice.
_MAX_LEAVES = 32
_CV_FOLDS = 5


@dataclass(frozen=True)
class MarginTreeConfig:
    min_leaf: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ConfigError("margin min_leaf must be >= 1")


def _grow_sse(y, data, rows, min_leaf) -> TreeNode:
    return grow(
        lambda idx: sse_fit(y[idx]),
        lambda idx, fit: sse_split(y, data, idx, fit, min_leaf),
        rows,
        _MAX_LEAVES,
    )


def _holdout_score(root, below, leaf_of_row, y) -> float:
    """Minus the squared error of held-out responses ``y`` about their leaf
    means under the pruned tree ``root``, summed in row order.

    ``leaf_of_row`` holds each row's leaf in the maximal tree that ``root``
    was pruned from, and ``below`` that tree's ``leaves_below``.
    """
    mean = np.empty(len(below))  # by maximal node id
    for nd in walk(root):
        if nd.is_leaf:
            mean[below[nd.id]] = nd.fit.mean
    resid = y - mean[leaf_of_row]
    return -sum((resid**2).tolist())


def _cv_leaf_count(y, data, min_leaf, seed) -> int:
    """OneSE leaf count over one seeded split of the rows into _CV_FOLDS folds.

    Each fold's validation rows are routed once, through its maximal tree.
    """
    folds = np.array_split(PCG64(seed).permutation(data.n), _CV_FOLDS)
    scores = []
    for f, val_idx in enumerate(folds):
        train_idx = np.concatenate([g for i, g in enumerate(folds) if i != f])
        maximal = _grow_sse(y, data, train_idx, min_leaf)
        leaf_of_row = route(maximal, [c.values[val_idx] for c in data.covariates], len(val_idx))
        below, y_val = leaves_below(maximal), y[val_idx]
        scores.append({k: _holdout_score(root, below, leaf_of_row, y_val) for root, k, _ in weakest_link_path(maximal)})
    return choose_k(scores, "OneSE")[-1]


def _pruned_margin_tree(y, data, min_leaf, seed) -> TreeNode:
    """Root of the least-squares tree of ``y``, pruned to the CV leaf count."""
    path = weakest_link_path(_grow_sse(y, data, np.arange(data.n), min_leaf))
    k_star = _cv_leaf_count(y, data, min_leaf, seed) if len(path) > 1 else 1
    return next(root for root, k, _ in path if k <= k_star)


def pseudo_margin_tree(data: Dataset, config: MarginTreeConfig = MarginTreeConfig()) -> PseudoObservations:
    """Margin-tree pseudo-observations: within-leaf average ranks.

    One least-squares tree per response column, grown and pruned by the
    engine of the copula tree (``tree.sse_split`` as node criterion,
    categorical levels ordered by mean response), at the leaf count that
    5-fold cross-validation picks by the one-SE rule.  Falls back to the
    empirical estimator when the sample cannot support a split, and says so
    in ``notes`` (``fallback_empirical``).
    """
    if data.n < 2 * config.min_leaf:
        return replace(pseudo_empirical(data), method="margin_tree", notes=("fallback_empirical",))

    out = np.empty_like(data.responses)
    columns = [c.values for c in data.covariates]
    for j in range(data.k):
        y = data.responses[:, j]
        root = _pruned_margin_tree(y, data, config.min_leaf, config.seed + j)
        leaf_ids = route(root, columns, data.n)
        for leaf in unique(leaf_ids):
            mask = leaf_ids == leaf
            block = y[mask]
            out[mask, j] = average_ranks(block) / (block.size + 1)
    return PseudoObservations(out, "margin_tree")
