"""Tabular containers shared by the margin estimators and the trees."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SchemaError

NUMERIC = "num"
CATEGORICAL = "cat"


@dataclass(frozen=True)
class Column:
    """One covariate column: numeric values or integer level codes."""

    name: str
    kind: str  # NUMERIC or CATEGORICAL
    values: np.ndarray
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"column {self.name}: unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.levels is None or len(self.levels) == 0:
                raise SchemaError(f"column {self.name}: categorical needs a level table")
            if self.values.size and (self.values.min() < 0 or self.values.max() >= len(self.levels)):
                raise SchemaError(f"column {self.name}: level code out of range")
        elif not np.all(np.isfinite(self.values)):
            raise SchemaError(f"column {self.name}: non-finite numeric value")


def numeric_column(name: str, values) -> Column:
    return Column(name, NUMERIC, np.asarray(values, dtype=float))


def categorical_column(name: str, labels) -> Column:
    """Build a categorical column; levels are the sorted unique labels."""
    labels = [str(x) for x in labels]
    levels = tuple(sorted(set(labels)))
    index = {lab: i for i, lab in enumerate(levels)}
    codes = np.array([index[x] for x in labels], dtype=np.int64)
    return Column(name, CATEGORICAL, codes, levels)


def average_ranks(x) -> np.ndarray:
    """1-based ranks of a finite 1-d array; tied values share their mean rank.

    The ranks are exact half-integers, so they equal
    ``scipy.stats.rankdata(x, method="average")`` bit for bit.
    """
    _, inv, cnt = np.unique(np.asarray(x), return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]


@dataclass(frozen=True)
class Dataset:
    """Response matrix (n x 2) plus tagged covariate columns, row aligned."""

    responses: np.ndarray
    covariates: tuple[Column, ...]

    def __post_init__(self):
        y = np.asarray(self.responses, dtype=float)
        if y.ndim != 2:
            raise SchemaError(f"responses must be 2-d, got shape {y.shape}")
        if y.shape[0] < 1:
            raise SchemaError("dataset needs at least one row")
        if not np.all(np.isfinite(y)):
            raise SchemaError("responses contain missing or non-finite values")
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "covariates", tuple(self.covariates))
        for col in self.covariates:
            if len(col.values) != y.shape[0]:
                raise SchemaError(f"column {col.name}: length mismatch with responses")

    @property
    def n(self) -> int:
        return self.responses.shape[0]

    @property
    def k(self) -> int:
        return self.responses.shape[1]

    def subset(self, idx) -> "Dataset":
        """Row subset; level tables are preserved unchanged."""
        cols = tuple(replace(c, values=c.values[idx]) for c in self.covariates)
        return Dataset(self.responses[idx], cols)


@dataclass(frozen=True)
class PseudoObservations:
    """Estimated probability-integral transforms of the responses.

    Every entry lies strictly inside (0, 1); ``method`` records how the
    values were produced and ``notes`` any fallbacks taken along the way.
    """

    values: np.ndarray
    method: str
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if np.any(vals <= 0.0) or np.any(vals >= 1.0):
            raise SchemaError("pseudo-observations must lie strictly inside (0, 1)")
        object.__setattr__(self, "values", vals)
