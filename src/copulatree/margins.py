"""Pseudo-observation estimators: the once-and-for-all margin step.

Four ways to turn responses into estimated probability-integral
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

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .data import CATEGORICAL, NUMERIC, Dataset, PseudoObservations, average_ranks
from .errors import ConfigError, RegressionError
from .pruning import choose_k, weakest_link_path
from .tree import ColumnSchema, TreeNode, grow, route, schema_of, sse_fit, sse_split, walk

__all__ = [
    "pseudo_empirical",
    "pseudo_kernel",
    "pseudo_parametric_normal",
    "pseudo_discrete",
    "pseudo_margin_tree",
    "MarginTree",
    "MarginTreeConfig",
]


# Rows per block of pseudo_kernel's weight matrix.
_KERNEL_BLOCK_ROWS = 128


def _column_ranks(y: np.ndarray) -> np.ndarray:
    return np.column_stack([average_ranks(y[:, j]) for j in range(y.shape[1])])


def pseudo_empirical(data: Dataset) -> PseudoObservations:
    """Covariate-free baseline: per-column average ranks over (n + 1)."""
    vals = _column_ranks(data.responses) / (data.n + 1)
    return PseudoObservations(vals, "empirical")


def pseudo_kernel(data: Dataset, h: float, clamp_eps: float | None = None) -> PseudoObservations:
    """Kernel-weighted conditional ECDF with a product Gaussian kernel.

    The self term is included, so the weight denominator is never zero;
    the result is clamped to [clamp_eps, 1 - clamp_eps] (default 1/(2n)).
    Rows are weighted in blocks of _KERNEL_BLOCK_ROWS, so memory grows
    linearly in n; every row's arithmetic is that of the whole n x n matrix.
    """
    if h <= 0:
        raise ConfigError(f"bandwidth must be > 0, got {h}")
    if any(c.kind != NUMERIC for c in data.covariates):
        raise ConfigError("pseudo_kernel requires all covariates to be numeric")
    n = data.n
    eps = 1.0 / (2.0 * n) if clamp_eps is None else float(clamp_eps)
    x = np.column_stack([c.values for c in data.covariates]) if data.covariates else np.zeros((n, 1))
    out = np.empty_like(data.responses)
    for i0 in range(0, n, _KERNEL_BLOCK_ROWS):
        rows = slice(i0, i0 + _KERNEL_BLOCK_ROWS)
        diff = (x[rows, None, :] - x[None, :, :]) / h
        logw = -0.5 * np.sum(diff * diff, axis=2)  # (i, l): log kernel up to const
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        denom = w.sum(axis=1)
        for j in range(data.k):
            yj = data.responses[:, j]
            below = yj[None, :] <= yj[rows, None]  # (i, l) = 1{Y_l <= Y_i}
            out[rows, j] = (w * below).sum(axis=1) / denom
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
    eps = 1.0 / (2.0 * data.n)
    return PseudoObservations(np.clip(ndtr(resid), eps, 1.0 - eps), "parametric_normal")


def pseudo_discrete(data: Dataset, grouping: dict | None = None) -> PseudoObservations:
    """Within-class average ranks for purely categorical covariates.

    Classes are groups of covariate-level combinations; ``grouping`` maps
    each observed combination (a tuple of level codes, or a bare code for
    a single covariate) to a class label.  Default: one class per
    observed combination.  Combinations missing from the map are a
    configuration error.
    """
    if not data.covariates or any(c.kind != CATEGORICAL for c in data.covariates):
        raise ConfigError("pseudo_discrete requires categorical covariates only")
    combos = list(zip(*[c.values.tolist() for c in data.covariates]))
    if grouping is None:
        labels = combos
    else:
        labels = []
        for combo in combos:
            key = combo if len(combo) > 1 else combo[0]
            if key not in grouping:
                raise ConfigError(f"grouping does not cover observed combination {key!r}")
            labels.append(grouping[key])
    class_index: dict = {}
    labels = np.array([class_index.setdefault(l, len(class_index)) for l in labels])
    out = np.empty_like(data.responses)
    for lab in np.unique(labels):
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


@dataclass
class MarginTree:
    """Pruned least-squares tree for one response column.

    Leaves hold the sorted training responses so the conditional CDF can
    be evaluated as a within-leaf ECDF (rank over count + 1).
    """

    root: TreeNode
    schema: tuple[ColumnSchema, ...]
    leaf_values: dict[int, np.ndarray]
    n_leaves: int

    def leaf_of_row(self, data: Dataset, row: int) -> int:
        return int(route(self.root, [c.values[[row]] for c in data.covariates], 1)[0])

    def cdf(self, t: float, data: Dataset, row: int) -> float:
        leaf = self.leaf_of_row(data, row)
        vals = self.leaf_values[leaf]
        r = float(np.searchsorted(vals, t, side="right"))
        return min(max(r / (len(vals) + 1.0), 1.0 / (len(vals) + 1.0)), len(vals) / (len(vals) + 1.0))


def _grow_sse(y, data, rows, min_leaf) -> TreeNode:
    return grow(
        lambda idx: sse_fit(y[idx]),
        lambda idx, fit: sse_split(y, data, idx, fit, min_leaf),
        rows,
        _MAX_LEAVES,
    )


def _holdout_score(root, y, data, rows) -> float:
    """Minus the squared error of ``rows`` about their leaf means, summed in row order."""
    means = {nd.id: nd.fit.mean for nd in walk(root) if nd.is_leaf}
    leaf = route(root, [c.values[rows] for c in data.covariates], len(rows))
    resid = y[rows] - np.array([means[i] for i in leaf])
    return -sum((resid**2).tolist())


def _cv_leaf_count(y, data, min_leaf, seed) -> int:
    """OneSE leaf count over one seeded split of the rows into _CV_FOLDS folds."""
    folds = np.array_split(np.random.default_rng(seed).permutation(data.n), _CV_FOLDS)
    scores = []
    for f, val_idx in enumerate(folds):
        train_idx = np.concatenate([g for i, g in enumerate(folds) if i != f])
        path = weakest_link_path(_grow_sse(y, data, train_idx, min_leaf))
        scores.append({k: _holdout_score(root, y, data, val_idx) for root, k, _ in path})
    return choose_k(scores, "OneSE")[-1]


def pseudo_margin_tree(
    data: Dataset, config: MarginTreeConfig = MarginTreeConfig()
) -> tuple[PseudoObservations, tuple[MarginTree, ...]]:
    """Margin-tree pseudo-observations: within-leaf average ranks.

    One least-squares tree per response column, grown and pruned by the
    engine of the copula tree (``tree.sse_split`` as node criterion,
    categorical levels ordered by mean response), at the leaf count that
    5-fold cross-validation picks by the one-SE rule.  Falls back to the
    empirical estimator when the sample cannot support a split.
    """
    if data.n < 2 * config.min_leaf:
        warnings.warn("too few rows for margin trees; falling back to empirical ranks")
        emp = pseudo_empirical(data)
        return replace(emp, method="margin_tree", notes=("fallback_empirical",)), ()

    out = np.empty_like(data.responses)
    trees = []
    columns = [c.values for c in data.covariates]
    for j in range(data.k):
        y = data.responses[:, j]
        path = weakest_link_path(_grow_sse(y, data, np.arange(data.n), config.min_leaf))
        k_star = _cv_leaf_count(y, data, config.min_leaf, config.seed + j) if len(path) > 1 else 1
        root, k, _ = next(entry for entry in path if entry[1] <= k_star)
        tree = MarginTree(root, schema_of(data), {}, k)
        leaf_ids = route(root, columns, data.n)
        for leaf in np.unique(leaf_ids):
            mask = leaf_ids == leaf
            block = y[mask]
            out[mask, j] = average_ranks(block) / (block.size + 1)
            tree.leaf_values[int(leaf)] = np.sort(block)
        trees.append(tree)
    return PseudoObservations(out, "margin_tree"), tuple(trees)
