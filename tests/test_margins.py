"""Tests for the pseudo-observation estimators."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from copulatree import margins as mg
from copulatree import pruning as pr
from copulatree import simulation as sim
from copulatree import tree as tr
from copulatree.compositional import aggregate_counts, ilr_forward
from copulatree.data import Dataset, average_ranks, categorical_column, numeric_column, unique
from copulatree.errors import ConfigError, RegressionError
from copulatree.fludata import make_flu_fixture


def make_dataset(y, covs=()):
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = np.column_stack([y, y])
    return Dataset(y, tuple(covs))


def margin_tree_leaves(d, config):
    """Leaf count of each response column's pruned margin tree."""
    roots = [mg._pruned_margin_tree(d.responses[:, j], d, config.min_leaf, config.seed + j) for j in range(d.k)]
    return [sum(nd.is_leaf for nd in tr.walk(root)) for root in roots]


class TestEmpirical:
    def test_rank_example(self):
        d = make_dataset([3.0, 1.0, 2.0])
        p = mg.pseudo_empirical(d)
        assert np.allclose(p.values[:, 0], [0.75, 0.25, 0.50])

    def test_constant_column_average_ties(self):
        d = make_dataset([7.0, 7.0, 7.0, 7.0])
        assert np.allclose(mg.pseudo_empirical(d).values, 0.5)

    def test_rank_bounds(self):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.normal(size=50))
        p = mg.pseudo_empirical(d).values
        assert p.min() >= 1 / 51 - 1e-12 and p.max() <= 50 / 51 + 1e-12

    def test_single_row_is_half(self):
        assert np.allclose(mg.pseudo_empirical(make_dataset([4.2])).values, 0.5)


def scipy_ranks(x):
    return stats.rankdata(x, method="average")


class TestAverageRanks:
    """data.average_ranks against scipy.stats.rankdata(method="average")."""

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, 1.0, 2.5, -3.0]),  # heavy ties
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @example([4.2])
    @example([1.0, 1.0])
    @example([2.0, 1.0])
    @example([-0.0, 0.0, -0.0])
    def test_equals_scipy_bit_for_bit(self, values):
        x = np.array(values)
        got = average_ranks(x)
        assert got.dtype == np.float64
        assert got.tobytes() == scipy_ranks(x).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_call_sites_equal_scipy_ranks(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x = rng.random(n)
        y = np.round(rng.normal(size=(n, 2)) + 3.0 * (x > 0.5)[:, None], 1)  # many ties
        numeric = Dataset(y, (numeric_column("x", x),))
        discrete = Dataset(y, (categorical_column("g", rng.integers(0, 3, n)),))

        def estimates():
            config = mg.MarginTreeConfig(min_leaf=20, seed=0)
            pseudo = mg.pseudo_margin_tree(numeric, config)
            assert n < 40 or margin_tree_leaves(numeric, config)[0] > 1
            return mg.pseudo_empirical(numeric), mg.pseudo_discrete(discrete), pseudo

        ours = estimates()
        monkeypatch.setattr(mg, "average_ranks", scipy_ranks)
        for a, b in zip(ours, estimates()):
            assert a.values.tobytes() == b.values.tobytes()


class TestUnique:
    """data.unique against np.unique: values, inverse and counts."""

    @given(
        st.one_of(
            st.lists(st.integers(-3, 3), max_size=60).map(lambda v: np.array(v, dtype=np.int64)),
            st.lists(
                st.one_of(
                    st.sampled_from([-0.0, 0.0, 1.0, 2.5, -3.0]),  # heavy ties
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                max_size=60,
            ).map(lambda v: np.array(v, dtype=float)),
        )
    )
    @example(np.array([-0.0, 0.0, -0.0]))
    @example(np.array([], dtype=np.int64))
    def test_equals_np_unique(self, x):
        want, want_inverse, want_counts = np.unique(x, return_inverse=True, return_counts=True)
        for inverse in (False, True):
            for counts in (False, True):
                got = unique(x, return_inverse=inverse, return_counts=counts)
                if not (inverse or counts):
                    got = (got,)
                values, rest = got[0], list(got[1:])
                assert values.dtype == want.dtype
                assert len(values) == len(want) and np.all(values == want)  # 0.0 and -0.0 may swap
                if inverse:
                    assert np.array_equal(rest.pop(0), want_inverse)
                if counts:
                    assert np.array_equal(rest.pop(0), want_counts)


class TestKernel:
    def test_huge_bandwidth_matches_empirical(self):
        rng = np.random.default_rng(1)
        n = 200
        d = make_dataset(
            np.column_stack([rng.normal(size=n), rng.normal(size=n)]),
            [numeric_column("x", rng.random(n))],
        )
        pk = mg.pseudo_kernel(d, h=1e6)
        pe = mg.pseudo_empirical(d)
        assert np.abs(pk.values - pe.values).max() < 2.0 / n

    def test_single_row(self):
        d = make_dataset([1.0], [numeric_column("x", [0.3])])
        p = mg.pseudo_kernel(d, h=0.4)
        assert np.allclose(p.values, 0.5)  # clamped to [1/(2n), 1 - 1/(2n)] = {0.5}

    def test_scenario_uniformity(self):
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", n=1000, seed=42))
        d = Dataset(
            ds.y,
            (numeric_column("x1", ds.x[:, 0]), numeric_column("x2", ds.x[:, 1])),
        )
        p = mg.pseudo_kernel(d, h=0.4)
        for j in range(2):
            assert stats.kstest(p.values[:, j], "uniform").pvalue > 0.01

    def test_categorical_covariate_rejected(self):
        d = make_dataset([1.0, 2.0], [categorical_column("g", ["a", "b"])])
        with pytest.raises(ConfigError):
            mg.pseudo_kernel(d, h=0.4)

    def test_monotone_within_identical_covariates(self):
        # identical covariates: larger response cannot get a smaller value
        y = np.array([3.0, 1.0, 2.0, 5.0])
        d = make_dataset(y, [numeric_column("x", [0.5, 0.5, 0.5, 0.5])])
        p = mg.pseudo_kernel(d, h=0.2).values[:, 0]
        order = np.argsort(y)
        assert np.all(np.diff(p[order]) >= 0)


    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300, 301, 1000])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_blocks_equal_the_direct_formula(self, n, p):
        rng = np.random.default_rng(100 * n + p)
        x = rng.random((n, p))
        d = make_dataset(rng.normal(size=(n, 2)), [numeric_column(f"x{j}", x[:, j]) for j in range(p)])
        h = 0.3
        # the whole n x n weight matrix at once
        diff = (x[:, None, :] - x[None, :, :]) / h
        logw = -0.5 * np.sum(diff * diff, axis=2)
        w = np.exp(logw - logw.max(axis=1, keepdims=True))
        direct = np.column_stack([
            (w * (d.responses[None, :, j] <= d.responses[:, None, j])).sum(axis=1) / w.sum(axis=1)
            for j in range(2)
        ])
        eps = 1.0 / (2.0 * n)
        assert np.array_equal(mg.pseudo_kernel(d, h).values, np.clip(direct, eps, 1.0 - eps))

    def test_memory_grows_linearly(self):
        # the whole n x n x 2 difference array alone would be 61 MiB
        rng = np.random.default_rng(12)
        n = 2000
        d = make_dataset(rng.normal(size=(n, 2)), [numeric_column(f"x{j}", rng.random(n)) for j in range(2)])
        tracemalloc.start()
        try:
            mg.pseudo_kernel(d, h=0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestParametricNormal:
    def test_normal_quantiles(self):
        resid = np.tile([-1.96, 0.0, 1.96], 10)
        d = make_dataset(resid + 5.0)  # intercept absorbs the 5.0
        p = mg.pseudo_parametric_normal(d, design=[])
        expect = np.tile([0.0249979, 0.5, 0.9750021], 10)
        assert np.allclose(p.values[:, 0], expect, atol=1e-4)

    def test_fitted_mean_maps_to_half(self):
        rng = np.random.default_rng(3)
        x = rng.random(40)
        y = 1.0 + 2.0 * x
        d = make_dataset(y, [numeric_column("x", x)])
        p = mg.pseudo_parametric_normal(d)
        assert np.allclose(p.values[:, 0], 0.5, atol=1e-8)

    def test_recovers_true_uniforms_at_generating_model(self):
        ds = sim.generate(sim.ScenarioSpec("clayton", "step", n=1000, seed=7))
        d = Dataset(
            ds.y,
            (numeric_column("x1", ds.x[:, 0]), numeric_column("x2", ds.x[:, 1])),
        )
        p = mg.pseudo_parametric_normal(d)
        assert np.abs(p.values - ds.u).mean() < 0.05

    def test_rank_deficient(self):
        x = np.linspace(0, 1, 30)
        d = make_dataset(
            np.arange(30.0), [numeric_column("a", x), numeric_column("b", 2 * x)]
        )
        with pytest.raises(RegressionError):
            mg.pseudo_parametric_normal(d)


class TestDiscrete:
    def test_single_class_equals_empirical(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=30)
        d = make_dataset(y, [categorical_column("g", ["a"] * 30)])
        p = mg.pseudo_discrete(d)
        assert np.allclose(p.values, mg.pseudo_empirical(d).values)

    def test_singleton_classes_are_half(self):
        d = make_dataset(
            [5.0, -1.0, 3.0], [categorical_column("g", ["a", "b", "c"])]
        )
        assert np.allclose(mg.pseudo_discrete(d).values, 0.5)

    def test_pooled_uniformity_two_classes(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=2000)
        labels = ["a"] * 1000 + ["b"] * 1000
        d = make_dataset(y, [categorical_column("g", labels)])
        p = mg.pseudo_discrete(d)
        assert stats.kstest(p.values[:, 0], "uniform").pvalue > 0.01

    def test_numeric_covariate_rejected(self):
        d = make_dataset([1.0, 2.0], [numeric_column("x", [0.1, 0.2])])
        with pytest.raises(ConfigError):
            mg.pseudo_discrete(d)


class TestMarginTree:
    def test_covariate_independent_equals_empirical(self):
        rng = np.random.default_rng(6)
        d = make_dataset(
            np.column_stack([rng.normal(size=200), rng.normal(size=200)]),
            [numeric_column("x", rng.random(200))],
        )
        config = mg.MarginTreeConfig(min_leaf=20, seed=0)
        p = mg.pseudo_margin_tree(d, config)
        assert margin_tree_leaves(d, config) == [1, 1]
        assert np.allclose(p.values, mg.pseudo_empirical(d).values)

    def test_categorical_signal_recovered(self):
        rng = np.random.default_rng(7)
        n = 500
        lab = rng.integers(0, 2, n)
        y = np.column_stack([10.0 * lab + rng.normal(size=n), rng.normal(size=n)])
        d = Dataset(y, (categorical_column("g", ["ab"[i] for i in lab]),))
        config = mg.MarginTreeConfig(min_leaf=20, seed=1)
        p = mg.pseudo_margin_tree(d, config)
        assert margin_tree_leaves(d, config)[0] == 2
        for g in (0, 1):
            assert stats.kstest(p.values[lab == g, 0], "uniform").pvalue > 0.01

    def test_fallback_flag_when_too_small(self):
        d = make_dataset([1.0, 2.0, 3.0], [numeric_column("x", [0.1, 0.2, 0.3])])
        p = mg.pseudo_margin_tree(d, mg.MarginTreeConfig(min_leaf=20))
        assert "fallback_empirical" in p.notes
        assert np.allclose(p.values, mg.pseudo_empirical(d).values)


def holdout_score_per_entry(root, y, data, rows):
    """A pruned tree's held-out score with the rows routed through that tree itself."""
    means = {nd.id: nd.fit.mean for nd in tr.walk(root) if nd.is_leaf}
    leaf = tr.route(root, [c.values[rows] for c in data.covariates], len(rows))
    resid = y[rows] - np.array([means[i] for i in leaf])
    return -sum((resid**2).tolist())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cv_leaf_count_equals_routing_every_entry(seed, monkeypatch):
    """One routing per fold through the maximal tree gives every entry's
    score and the leaf count bit for bit as routing each entry on its own."""
    rng = np.random.default_rng(40 + seed)
    n = 400
    lab, x = rng.integers(0, 4, n), rng.random(n)
    y = np.column_stack([lab + 2.0 * (x > 0.5) + rng.normal(size=n), np.sin(6.0 * x) + rng.normal(size=n)])
    d = Dataset(y, (categorical_column("g", [str(i) for i in lab]), numeric_column("x", x)))
    seen = []
    choose_k = mg.choose_k
    monkeypatch.setattr(mg, "choose_k", lambda scores, rule: seen.append(scores) or choose_k(scores, rule))
    for j in range(2):
        got = mg._cv_leaf_count(y[:, j], d, 10, seed)
        folds = np.array_split(np.random.default_rng(seed).permutation(n), mg._CV_FOLDS)
        want = []
        for f, val_idx in enumerate(folds):
            train_idx = np.concatenate([g for i, g in enumerate(folds) if i != f])
            maximal = mg._grow_sse(y[:, j], d, train_idx, 10)
            want.append({k: holdout_score_per_entry(pr._copy_pruned(maximal, ids), y[:, j], d, val_idx)
                         for ids, k, _ in pr.weakest_link_path(maximal)})
        assert seen.pop() == want
        assert max(len(sc) for sc in want) > 2
        assert got == pr.choose_k(want, "OneSE")[-1]


class TestSharedInvariants:
    @pytest.mark.parametrize("method", ["empirical", "kernel", "normal", "margin_tree"])
    def test_strictly_interior(self, method):
        rng = np.random.default_rng(9)
        n = 120
        d = make_dataset(
            np.column_stack([rng.normal(size=n), rng.standard_t(3, size=n)]),
            [numeric_column("x", rng.random(n))],
        )
        if method == "empirical":
            p = mg.pseudo_empirical(d)
        elif method == "kernel":
            p = mg.pseudo_kernel(d, h=0.3)
        elif method == "normal":
            p = mg.pseudo_parametric_normal(d)
        else:
            p = mg.pseudo_margin_tree(d, mg.MarginTreeConfig(min_leaf=20, seed=3))
        assert np.all(p.values > 0.0) and np.all(p.values < 1.0)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        n = 150
        lab = rng.integers(0, 3, n)
        d = Dataset(
            np.column_stack([lab + rng.normal(size=n), rng.normal(size=n)]),
            (categorical_column("g", [str(i) for i in lab]), numeric_column("x", rng.random(n))),
        )
        a = mg.pseudo_margin_tree(d, mg.MarginTreeConfig(min_leaf=20, seed=4))
        b = mg.pseudo_margin_tree(d, mg.MarginTreeConfig(min_leaf=20, seed=4))
        assert np.array_equal(a.values, b.values)


def flu_dataset(seed):
    """The responses and covariates that the flu subcommand builds from the fixture."""
    unit_years = aggregate_counts(make_flu_fixture(seed), min_total=50)
    points = [ilr_forward(uy.composition) for uy in unit_years]
    covs = (
        categorical_column("season", [uy.season for uy in unit_years]),
        categorical_column("itz", [uy.itz for uy in unit_years]),
    )
    return Dataset(np.array([[pt.y1, pt.y2] for pt in points]), covs)


def scenario_dataset(seed):
    ds = sim.generate(sim.ScenarioSpec("frank", "step", 300, seed))
    return Dataset(ds.y, (numeric_column("x1", ds.x[:, 0]), numeric_column("x2", ds.x[:, 1])))


def mixed_dataset(seed, n=400):
    """Responses that step with a numeric and a categorical covariate."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    g = rng.integers(0, 5, n)
    effect = np.array([0.0, 1.5, -1.0, 3.0, 0.5])
    y1 = 2.0 * (x > 0.4) + effect[g] + rng.normal(size=n)
    y2 = -1.5 * (x > 0.7) + effect[::-1][g] + rng.normal(size=n)
    return Dataset(np.column_stack([y1, y2]), (numeric_column("x", x), categorical_column("g", [f"l{c}" for c in g])))


class TestMarginTreeDigests:
    """Margin-tree pseudo-observations pinned to the bytes of an earlier
    implementation with its own least-squares grower, prune path, CV and router."""

    # name: (dataset, CV seed, leaves the larger tree must have, sha256 of the values)
    PINNED = {
        "flu": (lambda: flu_dataset(1000), 1000, 1,
                "aaec62fe899523d933b90dcc178b3b15dc8b630ab7a5d6b57d84daf7b58257ea"),
        "scenario": (lambda: scenario_dataset(1000), 1000, 1,
                     "996c655c7532810251f1c30065f75a0cadf6645590ebd6ab4986b923d5f6be6a"),
        "mixed_a": (lambda: mixed_dataset(31), 31, 4,
                    "3e9ca2fd88fc01a37f42ffc850d6d6f87c8269fcb0cdee82915e6efe55960137"),
        "mixed_b": (lambda: mixed_dataset(32), 32, 4,
                    "f640ebccc9b795c0830f4328f6cc32a6eb8043154818405b75ada25f938f559f"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest(self, name):
        make, seed, min_leaves, digest = self.PINNED[name]
        d, config = make(), mg.MarginTreeConfig(min_leaf=20, seed=seed)
        p = mg.pseudo_margin_tree(d, config)
        assert max(margin_tree_leaves(d, config)) >= min_leaves
        assert hashlib.sha256(p.values.tobytes()).hexdigest() == digest
