"""Monte-Carlo study: conditional copula trees vs a single-copula benchmark.

Nine scenario cells (three families x three Kendall-tau surfaces over two
uniform covariates).  Each replication generates covariates, per-row
copula parameters, true uniforms U and normal-margin responses Y, then
fits the conditional model (maximal tree + cross-validated pruning) and
the covariate-blind benchmark on three inputs: the true U, parametric
pseudo-observations V (OLS mean, unit variance) and kernel
pseudo-observations W.  Metrics per fit: MSE of the tau predictions, MSE
of the copula CDF evaluated at the true U points, in-sample
log-likelihood, and the selected number of splits.

The sigmoid surfaces as printed reach tau values at and below zero,
which leaves the Clayton/Gumbel tau domain; those rows are clamped into
[0.01, 0.9] and every clamp is counted and logged (see ``generate``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import copulas as cop
from ._fork import cpus, fork_map
from ._pcg64 import PCG64, seed_words
from .copulas import CopulaSpec, Family, spec_for
from .data import Dataset, PseudoObservations, numeric_column
from .errors import ConfigError, ScenarioError
from .margins import check_bandwidth, pseudo_kernel, pseudo_parametric_normal
from .pruning import check_cv_options, check_cv_rows, fit_pruned_tree
from .serialize import FORMAT_VERSION, write_table
from .tree import StoppingConfig

logger = logging.getLogger(__name__)

SURFACES = ("step", "steep_sigmoid", "gentle_sigmoid")

# linear mean coefficients (intercept, x1, x2) of the two response margins
MEAN_COEF = ((1.0, 0.2, 0.05), (1.0, -0.1, 0.2))

# kernel bandwidths tuned per family in the reference study
KERNEL_H = {Family.CLAYTON: 0.4, Family.FRANK: 0.4, Family.GUMBEL: 0.3}

TAU_CLAMP = (0.01, 0.9)

# pseudo-observation sources: true uniforms, parametric (normal) and kernel margins
SOURCES = ("U", "V", "W")


@dataclass(frozen=True)
class ScenarioSpec:
    family: str
    surface: str
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        spec_for(self.family)
        if self.surface not in SURFACES:
            raise ScenarioError(f"unknown tau surface {self.surface!r}")


@dataclass(frozen=True)
class SimulatedDataset:
    x: np.ndarray
    tau_true: np.ndarray
    theta_true: np.ndarray
    u: np.ndarray
    y: np.ndarray
    n_clamped: int = 0


def check_unique(names, what: str) -> None:
    """ConfigError on the first name that appears twice: a study cell or
    source listed twice would be run twice and counted twice."""
    seen = set()
    for name in names:
        if name in seen:
            raise ConfigError(f"{what} {name!r} appears twice")
        seen.add(name)


@dataclass(frozen=True)
class PipelineConfig:
    """How each replication fits its models."""

    sources: tuple[str, ...] = SOURCES
    stopping: StoppingConfig = field(default_factory=lambda: StoppingConfig(max_candidates=16))
    cv_folds: int = 3
    cv_repeats: int = 5
    cv_rule: str = "MaxMean"
    kernel_h: float | None = None  # None: family default

    def __post_init__(self):
        for src in self.sources:
            if src not in SOURCES:
                raise ConfigError(f"unknown pseudo source {src!r}")
        check_unique(self.sources, "pseudo source")
        check_cv_options(self.cv_folds, self.cv_repeats, self.cv_rule)
        if self.kernel_h is not None:
            check_bandwidth(self.kernel_h)


@dataclass(frozen=True)
class RepRecord:
    family: str
    surface: str
    n: int
    rep: int
    source: str
    model: str
    mse_tau: float
    mse_copula: float
    loglik: float
    n_splits: int


def tau_surface(kind: str, x1, x2):
    """Kendall tau as a function of the two covariates, as printed."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if kind == "step":
        return np.where(
            x2 < 0.75,
            np.where(x1 < 0.4, 0.3, 0.5),
            np.where(x1 < 0.4, 0.7, 0.9),
        )[()]
    s = 40.0 if kind == "steep_sigmoid" else 15.0
    return (
        0.3
        - 0.2 / (1.0 + np.exp(-s * (x1 - 0.4)))
        - 0.4 / (1.0 + np.exp(-s * (x2 - 0.75)))
    )[()]


def generate(spec: ScenarioSpec) -> SimulatedDataset:
    """Synthesise one scenario dataset; deterministic given the seed."""
    family = spec_for(spec.family)
    rng = PCG64(spec.seed)
    x = rng.random(2 * spec.n).reshape(spec.n, 2)
    tau = np.asarray(tau_surface(spec.surface, x[:, 0], x[:, 1]), dtype=float)

    lo, hi = family.tau_domain
    bad = (tau <= lo) | (tau >= hi)
    if family.family is Family.FRANK:
        bad |= np.abs(tau) < 1e-6
    n_clamped = int(bad.sum())
    if n_clamped:
        if family.family is Family.FRANK:
            sign = np.where(tau >= 0, 1.0, -1.0)
            tau = np.where(bad, sign * np.maximum(np.abs(tau), 1e-6), tau)
            tau = np.clip(tau, -TAU_CLAMP[1], TAU_CLAMP[1])
        else:
            tau = np.clip(tau, TAU_CLAMP[0], TAU_CLAMP[1])
        logger.warning(
            "%s/%s seed=%s: clamped %d of %d tau values into the family domain",
            spec.family, spec.surface, spec.seed, n_clamped, spec.n,
        )
        logger.debug("clamped row indices: %s", np.nonzero(bad)[0].tolist())

    theta = cop.tau_to_theta(family, tau)
    u1 = np.clip(rng.random(spec.n), 1e-12, 1.0 - 1e-12)  # inv_cdf raises at 0 and 1
    w = rng.random(spec.n)
    u2 = np.asarray(cop.conditional_quantile(family, theta, u1, w))
    u = np.column_stack([u1, u2])

    mu = np.column_stack(
        [c0 + c1 * x[:, 0] + c2 * x[:, 1] for (c0, c1, c2) in MEAN_COEF]
    )
    inv_cdf = NormalDist().inv_cdf
    y = np.array([inv_cdf(p) for p in u.ravel().tolist()]).reshape(u.shape) + mu
    return SimulatedDataset(x, tau, theta, u, y, n_clamped)


def evaluate(
    spec: CopulaSpec,
    theta_hat: np.ndarray,
    tau_hat: np.ndarray,
    ds: SimulatedDataset,
    pseudo_values: np.ndarray,
) -> tuple[float, float, float]:
    """(mse_tau, mse_copula, loglik) of per-row predictions.

    The copula MSE compares fitted vs true CDFs at the true U points; the
    log-likelihood is evaluated at the pseudo-observations the model saw.
    """
    mse_tau = float(np.mean((np.asarray(tau_hat) - ds.tau_true) ** 2))
    c_hat = cop.cdf(spec, theta_hat, ds.u[:, 0], ds.u[:, 1])
    c_true = cop.cdf(spec, ds.theta_true, ds.u[:, 0], ds.u[:, 1])
    mse_cop = float(np.mean((np.asarray(c_hat) - np.asarray(c_true)) ** 2))
    ll = float(
        np.sum(cop.log_density(spec, theta_hat, pseudo_values[:, 0], pseudo_values[:, 1]))
    )
    return mse_tau, mse_cop, ll


def _pseudo_sources(ds: SimulatedDataset, family: CopulaSpec, config: PipelineConfig):
    data = Dataset(
        ds.y,
        (numeric_column("x1", ds.x[:, 0]), numeric_column("x2", ds.x[:, 1])),
    )
    out = {}
    for src in config.sources:
        if src == "U":
            out[src] = PseudoObservations(np.clip(ds.u, 1e-12, 1 - 1e-12), "true_u")
        elif src == "V":
            out[src] = pseudo_parametric_normal(data)
        else:  # "W"; PipelineConfig admits no other source
            h = config.kernel_h if config.kernel_h is not None else KERNEL_H[family.family]
            out[src] = pseudo_kernel(data, h=h)
    return data, out


def run_replication(
    scenario: ScenarioSpec, config: PipelineConfig = PipelineConfig(), rep: int = 0
) -> list[RepRecord]:
    """Fit conditional and benchmark models on each configured source."""
    family = spec_for(scenario.family)
    ds = generate(scenario)
    data, sources = _pseudo_sources(ds, family, config)
    records = []
    for src, pseudo in sources.items():
        maximal, _, _, subtree = fit_pruned_tree(
            family, pseudo, data,
            stopping=config.stopping,
            folds=config.cv_folds,
            repeats=config.cv_repeats,
            seed=scenario.seed,
            rule=config.cv_rule,
            jobs=1,  # the study spreads its replications, not their folds
        )
        bench = maximal.root.fit  # fit_mle of every row: the covariate-blind benchmark
        mt, mc, ll = evaluate(
            family,
            np.full(scenario.n, bench.theta_hat),
            np.full(scenario.n, bench.tau_hat),
            ds,
            pseudo.values,
        )
        records.append(
            RepRecord(
                scenario.family, scenario.surface, scenario.n, rep,
                src, "benchmark", mt, mc, ll, 0,
            )
        )

        theta_hat, tau_hat, _ = subtree.predict(data)
        mt, mc, ll = evaluate(family, theta_hat, tau_hat, ds, pseudo.values)
        records.append(
            RepRecord(
                scenario.family, scenario.surface, scenario.n, rep,
                src, "conditional", mt, mc, ll, subtree.n_leaves - 1,
            )
        )
    return records


def run_study(
    cells: list[tuple[str, str]],
    n_reps: int = 50,
    n: int = 1000,
    base_seed: int = 20240,
    config: PipelineConfig = PipelineConfig(),
    n_jobs: int = 1,
) -> list[RepRecord]:
    """Replicated study over scenario cells; records in canonical order.

    Replications are independent seeded units; seeds are derived from
    (base_seed, cell index, replication index), so results do not depend
    on scheduling or on n_jobs.  The replications are spread over at most
    n_jobs processes, one per replication and per CPU (``_fork.fork_map``),
    as more would only sit idle.
    """
    check_cv_rows(n, config.cv_folds, config.stopping.min_leaf)
    tasks = []
    for ci, (fam, surf) in enumerate(cells):
        for rep in range(n_reps):
            seed = seed_words(base_seed, spawn_key=(ci, rep))[0]
            tasks.append((ScenarioSpec(fam, surf, n, seed), config, rep))

    chunks = fork_map(lambda task: run_replication(*task), tasks, min(n_jobs, cpus()))
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.family, r.surface, r.rep, r.source, r.model))
    return records


# ---------------------------------------------------------------------------
# study outputs


METRICS = ("mse_tau", "mse_copula", "loglik", "n_splits")


def write_records_tsv(records: list[RepRecord], path) -> None:
    """Long-format TSV: scenario, family, source, model, metric, value, rep."""
    write_table(
        path,
        ["scenario", "family", "source", "model", "metric", "value", "rep"],
        ([r.surface, r.family, r.source, r.model, metric, repr(getattr(r, metric)), r.rep]
         for r in records for metric in METRICS),
    )


def _quartiles(vals) -> list[float]:
    """The 25th, 50th and 75th percentiles of ``vals``, bit for bit as
    ``np.percentile(vals, [25, 50, 75])`` computes them, without its import
    of ``numpy.ma``.

    As numpy's default (linear) method: the virtual index v = (n - 1) q
    lies between neighbours a and b of the partially sorted values, t is
    v less a's index, and numpy's ``_lerp`` gives a + (b - a) t, or
    b - (b - a) (1 - t) at t >= 0.5.  Any NaN makes all three NaN.  The
    partition takes numpy's kth indices, so tied values (zeros of either
    sign) land where they do there.
    """
    n = len(vals)
    picks = []
    for q in (0.25, 0.5, 0.75):
        v = (n - 1) * q
        if v >= n - 1:  # numpy takes the last value twice, at index -1
            picks.append((-1, -1, v + 1))
        else:
            lo = math.floor(v)
            picks.append((lo, lo + 1, v - lo))
    kth = sorted({0, -1, *(i for lo, hi, _ in picks for i in (lo, hi))})
    arr = np.partition(np.asarray(vals, dtype=float), kth)
    if math.isnan(arr[-1]):
        return [math.nan] * 3
    out = []
    for lo, hi, t in picks:
        a, b = float(arr[lo]), float(arr[hi])
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return out


def summarize(records: list[RepRecord]) -> dict:
    """Medians and quartiles per (family, surface, source, model, metric)."""
    groups: dict[tuple, dict[str, list[float]]] = {}
    for r in records:
        key = (r.family, r.surface, r.source, r.model)
        bucket = groups.setdefault(key, {m: [] for m in METRICS})
        for m in METRICS:
            bucket[m].append(float(getattr(r, m)))
    cells = []
    for key in sorted(groups):
        fam, surf, src, model = key
        entry = {"family": fam, "scenario": surf, "source": src, "model": model}
        for m, vals in groups[key].items():
            q1, q2, q3 = _quartiles(vals)
            entry[m] = {"q1": q1, "median": q2, "q3": q3}
        entry["n_reps"] = len(groups[key][METRICS[0]])
        cells.append(entry)
    return {"format_version": FORMAT_VERSION, "cells": cells}
