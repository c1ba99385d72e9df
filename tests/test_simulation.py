"""Tests for the scenario study machinery."""

import csv
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from copulatree import copulas as cp
from copulatree import simulation as sim
from copulatree.errors import ScenarioError

CLAYTON = cp.spec_for("clayton")
FRANK = cp.spec_for("frank")


class TestTauSurface:
    def test_step_branches(self):
        assert sim.tau_surface("step", 0.39, 0.74) == 0.3
        assert sim.tau_surface("step", 0.41, 0.74) == 0.5
        assert sim.tau_surface("step", 0.39, 0.76) == 0.7
        assert sim.tau_surface("step", 0.41, 0.76) == 0.9

    def test_step_boundaries_use_strict_less(self):
        assert sim.tau_surface("step", 0.4, 0.75) == 0.9

    def test_steep_sigmoid_center(self):
        # logistic terms hit 1/2 at their centres: 0.3 - 0.1 - 0.2 = 0
        assert sim.tau_surface("steep_sigmoid", 0.4, 0.75) == pytest.approx(0.0, abs=1e-12)

    def test_gentle_vs_steep_slope(self):
        steep = sim.tau_surface("steep_sigmoid", 0.45, 0.0) - sim.tau_surface("steep_sigmoid", 0.35, 0.0)
        gentle = sim.tau_surface("gentle_sigmoid", 0.45, 0.0) - sim.tau_surface("gentle_sigmoid", 0.35, 0.0)
        assert steep < gentle < 0


class TestThetaFromTau:
    def test_matches_scalar_bridge(self):
        taus = np.linspace(-0.85, 0.85, 41)
        taus = taus[np.abs(taus) > 0.02]
        vec = cp.tau_to_theta(FRANK, taus)
        ref = np.array([cp.tau_to_theta(FRANK, t) for t in taus])
        assert np.abs(vec - ref).max() < 1e-8

    def test_closed_forms(self):
        assert cp.tau_to_theta(CLAYTON, np.array([0.5]))[0] == pytest.approx(2.0)
        gum = cp.spec_for("gumbel")
        assert cp.tau_to_theta(gum, np.array([0.75]))[0] == pytest.approx(4.0)


class TestGenerate:
    def test_step_cell_tau(self):
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", n=10_000, seed=99))
        cell = (ds.x[:, 0] >= 0.4) & (ds.x[:, 1] >= 0.75)
        tau = stats.kendalltau(ds.u[cell, 0], ds.u[cell, 1]).statistic
        assert tau == pytest.approx(0.9, abs=0.03)

    def test_uniform_margins(self):
        ds = sim.generate(sim.ScenarioSpec("frank", "step", n=5000, seed=7))
        assert stats.kstest(ds.u[:, 0], "uniform").pvalue > 0.01
        assert stats.kstest(ds.u[:, 1], "uniform").pvalue > 0.01

    def test_replay_bit_identical(self):
        a = sim.generate(sim.ScenarioSpec("gumbel", "gentle_sigmoid", n=500, seed=3))
        b = sim.generate(sim.ScenarioSpec("gumbel", "gentle_sigmoid", n=500, seed=3))
        for field in ("x", "tau_true", "theta_true", "u", "y"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_sigmoid_clamping_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="copulatree.simulation"):
            ds = sim.generate(sim.ScenarioSpec("clayton", "steep_sigmoid", n=1000, seed=3))
        assert ds.n_clamped > 0
        assert ds.tau_true.min() >= sim.TAU_CLAMP[0]
        assert any("clamped" in r.message for r in caplog.records)

    def test_y_means_follow_linear_model(self):
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", n=20_000, seed=11))
        resid1 = ds.y[:, 0] - (1.0 + 0.2 * ds.x[:, 0] + 0.05 * ds.x[:, 1])
        resid2 = ds.y[:, 1] - (1.0 - 0.1 * ds.x[:, 0] + 0.2 * ds.x[:, 1])
        assert abs(resid1.mean()) < 0.02 and abs(resid2.mean()) < 0.02
        assert resid1.std() == pytest.approx(1.0, abs=0.02)

    def test_bad_surface_rejected(self):
        with pytest.raises(ScenarioError):
            sim.ScenarioSpec("clayton", "cliff", 100, 0)


class TestEvaluate:
    def test_oracle_model_zero_error(self):
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", n=500, seed=5))
        mt, mc, ll = sim.evaluate(CLAYTON, ds.theta_true, ds.tau_true, ds, ds.u)
        assert mt == 0.0 and mc == 0.0
        assert np.isfinite(ll)

    def test_constant_model_matches_mixture_variance(self):
        # closed-form oracle: quadrant masses x step values
        masses = np.array([0.4 * 0.75, 0.6 * 0.75, 0.4 * 0.25, 0.6 * 0.25])
        values = np.array([0.3, 0.5, 0.7, 0.9])
        tau_bar = float(masses @ values)
        variance = float(masses @ (values - tau_bar) ** 2)
        assert variance == pytest.approx(0.0396, abs=1e-10)

        ds = sim.generate(sim.ScenarioSpec("clayton", "step", n=10_000, seed=21))
        tau_hat = np.full(10_000, ds.tau_true.mean())
        theta_hat = cp.tau_to_theta(CLAYTON, tau_hat)
        mt, _, _ = sim.evaluate(CLAYTON, theta_hat, tau_hat, ds, ds.u)
        assert mt == pytest.approx(variance, abs=0.01)

    def test_benchmark_loglik_equals_fit(self):
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", n=400, seed=31))
        fit = cp.fit_mle(CLAYTON, ds.u)
        _, _, ll = sim.evaluate(
            CLAYTON, np.full(400, fit.theta_hat), np.full(400, fit.tau_hat), ds, ds.u
        )
        assert ll == pytest.approx(fit.loglik, rel=1e-12)


@pytest.fixture(scope="module")
def records():
    config = sim.PipelineConfig(cv_repeats=2)
    return sim.run_replication(sim.ScenarioSpec("clayton", "step", 1000, 1234), config, rep=0)


class TestReplication:
    def test_benchmark_is_root_fit(self, records):
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", 1000, 1234))
        bench_u = next(r for r in records if r.source == "U" and r.model == "benchmark")
        fit = cp.fit_mle(CLAYTON, np.clip(ds.u, 1e-12, 1 - 1e-12))
        assert bench_u.loglik == pytest.approx(fit.loglik, rel=1e-12)
        assert bench_u.n_splits == 0

    def test_benchmark_records_are_those_of_a_fit_mle_of_every_row(self, records):
        # the maximal tree's root fit serves as the benchmark, bit for bit
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", 1000, 1234))
        _, sources = sim._pseudo_sources(ds, CLAYTON, sim.PipelineConfig(cv_repeats=2))
        for src, pseudo in sources.items():
            fit = cp.fit_mle(CLAYTON, pseudo.values)
            want = sim.evaluate(CLAYTON, np.full(1000, fit.theta_hat), np.full(1000, fit.tau_hat), ds, pseudo.values)
            got = next(r for r in records if r.source == src and r.model == "benchmark")
            assert (got.mse_tau, got.mse_copula, got.loglik) == want

    def test_conditional_dominates_in_sample(self, records):
        for src in ("U", "V", "W"):
            cond = next(r for r in records if r.source == src and r.model == "conditional")
            bench = next(r for r in records if r.source == src and r.model == "benchmark")
            assert cond.loglik >= bench.loglik
            assert cond.mse_tau < bench.mse_tau

    def test_all_sources_present(self, records):
        assert {(r.source, r.model) for r in records} == {
            (s, m) for s in ("U", "V", "W") for m in ("benchmark", "conditional")
        }


class TestStudyHarness:
    def test_study_deterministic_and_ordered(self):
        config = sim.PipelineConfig(sources=("U",), cv_repeats=1)
        a = sim.run_study([("clayton", "step")], n_reps=2, n=400, base_seed=5, config=config)
        b = sim.run_study([("clayton", "step")], n_reps=2, n=400, base_seed=5, config=config, n_jobs=2)
        assert a == b
        assert [r.rep for r in a] == sorted(r.rep for r in a)

    def test_pool_never_outnumbers_the_replications(self, monkeypatch):
        """A process pool forks all of its max_workers at its first submit, so
        n_jobs far above the replications must not size it.  The stand-in
        pool records its size and maps in this process."""
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        config = sim.PipelineConfig(sources=("U",), cv_repeats=1)
        cells = [("clayton", "step")]
        records = sim.run_study(cells, n_reps=2, n=400, base_seed=5, config=config, n_jobs=10**6)
        assert all(workers <= 2 for workers in asked)
        assert records == sim.run_study(cells, n_reps=2, n=400, base_seed=5, config=config)

    def test_tsv_and_summary_roundtrip(self, tmp_path):
        config = sim.PipelineConfig(sources=("U",), cv_repeats=1)
        records = sim.run_study([("clayton", "step")], n_reps=2, n=400, base_seed=5, config=config)
        tsv = tmp_path / "records.tsv"
        sim.write_records_tsv(records, tsv)
        with open(tsv, newline="") as fh:
            table = list(csv.reader(fh, delimiter="\t"))
        assert table[:2] == [["format_version", "1"],
                             ["scenario", "family", "source", "model", "metric", "value", "rep"]]
        rows = [dict(zip(table[1], row)) for row in table[2:]]
        assert len(rows) == len(records) * len(sim.METRICS)
        assert {r["metric"] for r in rows} == set(sim.METRICS)

        summary = sim.summarize(records)
        cell = summary["cells"][0]
        assert {"q1", "median", "q3"} <= set(cell["mse_tau"])


# few distinct values, so ties (signed zeros among them) are common
SUMMARY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(vals=st.lists(SUMMARY_VALUES, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_quartiles_are_numpys_percentiles_bit_for_bit(vals):
    """``summary.json``'s q1 / median / q3 keep the bits of
    ``np.percentile(vals, [25, 50, 75])``, NaN and either sign of zero included."""
    with np.errstate(all="ignore"):
        want = [float(v) for v in np.percentile(vals, [25, 50, 75])]
    assert [v.hex() for v in sim._quartiles(vals)] == [v.hex() for v in want]
