"""Tests for the copula tree: split search, growth, prediction."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from copulatree import copulas as cp
from copulatree import margins as mg
from copulatree import tree as tr
from copulatree.compositional import aggregate_counts, ilr_forward
from copulatree.data import Dataset, PseudoObservations, categorical_column, numeric_column
from copulatree.errors import ConfigError, InsufficientDataError, SchemaError
from copulatree.fludata import make_flu_fixture
from copulatree.serialize import tree_from_doc, tree_to_doc

CLAYTON = cp.spec_for("clayton")


def copula_rows(tau, n, seed):
    theta = cp.tau_to_theta(CLAYTON, tau)
    rng = np.random.default_rng(seed)
    u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
    v = cp.conditional_quantile(CLAYTON, theta, u, rng.random(n))
    return np.column_stack([u, v])


def step_node(n, seed, with_x2_cut=True):
    """Scenario-(i)-style rows; optionally restricted to the x2 < 0.75 band."""
    rng = np.random.default_rng(seed)
    x1 = rng.random(n)
    x2 = rng.random(n) * (0.75 if with_x2_cut else 1.0)
    tau = np.where(x1 < 0.4, 0.3, 0.5)
    uv = copula_rows(tau, n, seed + 1)
    data = Dataset(np.zeros((n, 2)), (numeric_column("x1", x1), numeric_column("x2", x2)))
    return PseudoObservations(uv, "true"), data


class TestNodeFit:
    def test_independence_rows(self):
        rng = np.random.default_rng(1)
        assert abs(cp.fit_mle(CLAYTON, rng.random((500, 2)) * 0.998 + 0.001).tau_hat) < 0.1

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            cp.fit_mle(CLAYTON, copula_rows(0.5, 5, 2))


class TestOrderModalities:
    def _dataset(self, taus, n_per, seed, labels=None):
        blocks, labs = [], []
        for i, tau in enumerate(taus):
            blocks.append(copula_rows(tau, n_per, seed + i))
            labs += [labels[i] if labels else f"l{i}"] * n_per
        uv = np.vstack(blocks)
        data = Dataset(np.zeros((len(uv), 2)), (categorical_column("g", labs),))
        return PseudoObservations(uv, "t"), data

    def test_order_matches_true_taus(self):
        pseudo, data = self._dataset([0.5, 0.2, 0.8], 500, 100)
        groups = tr.order_modalities(CLAYTON, pseudo, data, 0)
        flat = [c for g in groups for c in g]
        # level codes follow sorted labels l0, l1, l2 -> taus 0.5, 0.2, 0.8
        assert flat == [1, 0, 2]

    def test_two_levels(self):
        pseudo, data = self._dataset([0.3, 0.6], 100, 200)
        groups = tr.order_modalities(CLAYTON, pseudo, data, 0)
        assert sorted(c for g in groups for c in g) == [0, 1]

    def test_identical_distributions_is_permutation(self):
        pseudo, data = self._dataset([0.4, 0.4, 0.4, 0.4], 80, 300)
        groups = tr.order_modalities(CLAYTON, pseudo, data, 0)
        assert sorted(c for g in groups for c in g) == [0, 1, 2, 3]

    def test_sparse_level_merged(self):
        pseudo, data = self._dataset([0.3, 0.7], 60, 400)
        # append three stray rows of a third level
        uv = np.vstack([pseudo.values, copula_rows(0.5, 3, 5)])
        labs = ["l0"] * 60 + ["l1"] * 60 + ["tiny"] * 3
        data = Dataset(np.zeros((123, 2)), (categorical_column("g", labs),))
        groups = tr.order_modalities(CLAYTON, PseudoObservations(uv, "t"), data, 0)
        assert len(groups) == 2  # the 3-row level joined a neighbour
        assert sorted(c for g in groups for c in g) == [0, 1, 2]

    def test_ranks_only_when_merging(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tr, "average_ranks", lambda x: calls.append(len(x)) or stats.rankdata(x))
        pseudo, data = self._dataset([0.3, 0.7], 60, 400)
        tr.order_modalities(CLAYTON, pseudo, data, 0)
        assert calls == []  # no level group below MIN_FIT_N
        uv = np.vstack([pseudo.values, copula_rows(0.5, 3, 5), copula_rows(0.5, 2, 6)])
        labs = ["l0"] * 60 + ["l1"] * 60 + ["tiny"] * 3 + ["wee"] * 2
        data = Dataset(np.zeros((125, 2)), (categorical_column("g", labs),))
        tr.order_modalities(CLAYTON, PseudoObservations(uv, "t"), data, 0)
        assert calls == [125, 125]  # both columns, once for all merges

    @settings(max_examples=30)
    @given(
        counts=st.lists(st.integers(1, 25), min_size=2, max_size=6),
        seed=st.integers(0, 1000),
    )
    def test_merges_equal_scipy_ranks(self, counts, seed):
        taus = np.linspace(0.1, 0.7, len(counts))
        uv = np.vstack([copula_rows(t, c, seed + i) for i, (t, c) in enumerate(zip(taus, counts))])
        uv = np.clip(np.round(uv, 1), 0.05, 0.95)  # heavy ties
        labs = [f"l{i}" for i, c in enumerate(counts) for _ in range(c)]
        data = Dataset(np.zeros((len(uv), 2)), (categorical_column("g", labs),))
        rows = np.random.default_rng(seed).permutation(len(uv))[: max(2, len(uv) - 3)]
        pseudo = PseudoObservations(uv, "t")
        ours = tr.order_modalities(CLAYTON, pseudo, data, 0, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "average_ranks", stats.rankdata)
            assert tr.order_modalities(CLAYTON, pseudo, data, 0, rows) == ours

    def test_numeric_feature_rejected(self):
        pseudo, _ = self._dataset([0.4], 50, 500)
        data = Dataset(np.zeros((50, 2)), (numeric_column("x", np.arange(50.0)),))
        with pytest.raises(ConfigError):
            tr.order_modalities(CLAYTON, pseudo, data, 0)


class TestFindOptimalSplit:
    def test_threshold_recovery_on_step(self):
        hits = 0
        stopping = tr.StoppingConfig(min_leaf=50, max_candidates=32)
        for seed in range(50):
            pseudo, data = step_node(1000, 1000 + 7 * seed)
            cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping)
            if (
                cand is not None
                and cand.rule.feature == 0
                and abs(cand.rule.threshold - 0.4) < 0.1
            ):
                hits += 1
        assert hits >= 40  # >= 80% of 50 seeds

    def test_min_leaf_boundary_single_candidate(self):
        n, min_leaf = 60, 30
        uv = copula_rows(0.5, n, 3)
        x = np.arange(n, dtype=float)
        data = Dataset(np.zeros((n, 2)), (numeric_column("x", x),))
        positions, thresholds = tr._numeric_split_positions(np.sort(x), min_leaf, None)
        assert len(positions) == 1
        assert thresholds[0] == pytest.approx(29.5)

    def test_no_split_when_gain_insufficient(self):
        uv = copula_rows(0.5, 200, 4)
        data = Dataset(np.zeros((200, 2)), (numeric_column("x", np.random.default_rng(0).random(200)),))
        stopping = tr.StoppingConfig(min_leaf=50, min_gain=1e9)
        assert tr.find_optimal_split(CLAYTON, PseudoObservations(uv, "t"), data, stopping) is None

    def test_oracle_equivalence_few_distinct(self):
        # <= 12 distinct values on the single numeric feature: the search
        # must equal brute force over every admissible threshold.
        stopping = tr.StoppingConfig(min_leaf=20)
        for case in range(10):
            rng = np.random.default_rng(9000 + case)
            n = 240
            levels = np.sort(rng.choice(np.linspace(0, 1, 25), size=12, replace=False))
            x = rng.choice(levels, size=n)
            tau = np.where(x < np.median(levels), 0.25, 0.65)
            uv = copula_rows(tau, n, 9100 + case)
            pseudo = PseudoObservations(uv, "t")
            data = Dataset(np.zeros((n, 2)), (numeric_column("x", x),))
            cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping)

            parent = cp.fit_mle(CLAYTON, uv)
            best = None
            xs = np.unique(x)
            for s in 0.5 * (xs[:-1] + xs[1:]):
                mask = x <= s
                if mask.sum() < 20 or (~mask).sum() < 20:
                    continue
                gain = (
                    cp.fit_mle(CLAYTON, uv[mask]).loglik
                    + cp.fit_mle(CLAYTON, uv[~mask]).loglik
                    - parent.loglik
                )
                if best is None or gain > best[0]:
                    best = (gain, s)
            if best is None or best[0] <= 0:
                assert cand is None
            else:
                assert cand.rule.threshold == best[1]
                assert cand.gain == pytest.approx(best[0], abs=1e-9)

    def test_categorical_dominates_one_vs_rest(self):
        rng = np.random.default_rng(42)
        n_per = 120
        taus = [0.15, 0.35, 0.55, 0.75]
        blocks = [copula_rows(t, n_per, 50 + i) for i, t in enumerate(taus)]
        uv = np.vstack(blocks)
        labs = sum([[f"l{i}"] * n_per for i in range(4)], [])
        data = Dataset(np.zeros((len(uv), 2)), (categorical_column("g", labs),))
        pseudo = PseudoObservations(uv, "t")
        stopping = tr.StoppingConfig(min_leaf=50)
        cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping)
        assert cand is not None

        parent = cp.fit_mle(CLAYTON, uv)
        codes = data.covariates[0].values
        one_vs_rest_best = -np.inf
        exhaustive_best = -np.inf
        import itertools

        for r in range(1, 4):
            for subset in itertools.combinations(range(4), r):
                mask = np.isin(codes, subset)
                if mask.sum() < 50 or (~mask).sum() < 50:
                    continue
                gain = (
                    cp.fit_mle(CLAYTON, uv[mask]).loglik
                    + cp.fit_mle(CLAYTON, uv[~mask]).loglik
                    - parent.loglik
                )
                exhaustive_best = max(exhaustive_best, gain)
                if r == 1:
                    one_vs_rest_best = max(one_vs_rest_best, gain)
        assert cand.gain >= one_vs_rest_best - 1e-9
        # exhaustive-subset agreement is reported, not asserted (the
        # ordering heuristic is exact for least squares, not proven here)
        print(f"ordered-search gain {cand.gain:.4f} vs exhaustive {exhaustive_best:.4f}")


class TestBuildAndPredict:
    def test_small_sample_single_leaf(self):
        uv = copula_rows(0.5, 60, 6)
        data = Dataset(np.zeros((60, 2)), (numeric_column("x", np.linspace(0, 1, 60)),))
        tree = tr.build_maximal_tree(CLAYTON, PseudoObservations(uv, "t"), data, tr.StoppingConfig(min_leaf=50))
        assert tree.n_leaves == 1
        assert tree.root.fit == cp.fit_mle(CLAYTON, uv)

    def test_step_scenario_grows_four_leaves(self):
        from copulatree import simulation as sim

        stopping = tr.StoppingConfig(min_leaf=50, max_candidates=16)
        hits = 0
        for seed in range(50):
            ds = sim.generate(sim.ScenarioSpec("clayton", "step", 1000, 3000 + seed))
            data = Dataset(
                np.zeros((1000, 2)),
                (numeric_column("x1", ds.x[:, 0]), numeric_column("x2", ds.x[:, 1])),
            )
            tree = tr.build_maximal_tree(CLAYTON, PseudoObservations(ds.u, "t"), data, stopping)
            if tree.n_leaves >= 4:
                hits += 1
        assert hits >= 48  # >= 95% of 50 seeds

    def test_deterministic_replay_and_permutation_invariance(self):
        pseudo, data = step_node(600, 77, with_x2_cut=False)
        stopping = tr.StoppingConfig(min_leaf=50, max_candidates=16)
        t1 = tr.build_maximal_tree(CLAYTON, pseudo, data, stopping)
        t2 = tr.build_maximal_tree(CLAYTON, pseudo, data, stopping)
        doc1, doc2 = tree_to_doc(t1), tree_to_doc(t2)
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)

        perm = np.random.default_rng(1).permutation(data.n)
        t3 = tr.build_maximal_tree(
            CLAYTON,
            PseudoObservations(pseudo.values[perm], "t"),
            data.subset(perm),
            stopping,
        )
        assert json.dumps(tree_to_doc(t3), sort_keys=True) == json.dumps(doc1, sort_keys=True)

    def test_max_leaves_cap(self):
        pseudo, data = step_node(1000, 88, with_x2_cut=False)
        tree = tr.build_maximal_tree(
            CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=50, max_leaves=3, max_candidates=8)
        )
        assert tree.n_leaves <= 3

    def test_single_leaf_predicts_root(self):
        uv = copula_rows(0.5, 120, 7)
        data = Dataset(np.zeros((120, 2)), (numeric_column("x", np.linspace(0, 1, 120)),))
        tree = tr.build_maximal_tree(
            CLAYTON, PseudoObservations(uv, "t"), data, tr.StoppingConfig(min_leaf=100)
        )
        assert tree.n_leaves == 1
        theta, _, leaf = tree.predict(data)
        assert np.all(theta == tree.root.fit.theta_hat)
        assert np.all(leaf == tree.root.id)

    def test_boundary_goes_left(self):
        pseudo, data = step_node(400, 111, with_x2_cut=False)
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=120, max_candidates=8))
        if tree.n_leaves < 2:
            pytest.skip("no split found at this seed")
        rule = tree.root.rule
        row = np.zeros(2)
        row[rule.feature] = rule.threshold
        leaf_id = tr.route(tree.root, [np.array([v]) for v in row], 1)[0]
        left_ids = {n.id for n in tr.CopulaTree(tree.spec, tree.root.left, tree.schema).nodes()}
        assert leaf_id in left_ids

    def test_training_partition_matches_n_obs(self):
        pseudo, data = step_node(800, 123, with_x2_cut=False)
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=50, max_candidates=16))
        leaf_ids = tree.assign(data)
        sizes = {leaf.id: leaf.fit.n_obs for leaf in tree.leaves()}
        counts = dict(zip(*np.unique(leaf_ids, return_counts=True)))
        assert {k: int(v) for k, v in counts.items()} == sizes

    def test_partition_property_random_points(self):
        pseudo, data = step_node(600, 321, with_x2_cut=False)
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=50, max_candidates=8))
        rng = np.random.default_rng(0)
        pts = rng.random((10_000, 2)) * 2 - 0.5  # also outside the training range

        def accepts(leaf_path_conditions, x):
            return all(cond(x) for cond in leaf_path_conditions)

        # build leaf predicates from the rule chains
        leaf_preds = {}

        def walk(node, conds):
            if node.is_leaf:
                leaf_preds[node.id] = list(conds)
                return
            rule = node.rule
            if rule.is_numeric:
                left = lambda x, r=rule: x[r.feature] <= r.threshold
                right = lambda x, r=rule: x[r.feature] > r.threshold
            else:
                left = lambda x, r=rule: int(x[r.feature]) in r.left_levels
                right = lambda x, r=rule: int(x[r.feature]) not in r.left_levels
            walk(node.left, conds + [left])
            walk(node.right, conds + [right])

        walk(tree.root, [])
        for x in pts[:200]:  # predicate check is slow; spot check 200
            hits = [lid for lid, conds in leaf_preds.items() if accepts(conds, x)]
            assert len(hits) == 1
        # vectorised full check
        ids = tree.assign(
            Dataset(np.zeros((len(pts), 2)), (numeric_column("x1", pts[:, 0]), numeric_column("x2", pts[:, 1])))
        )
        assert set(ids) <= {l.id for l in tree.leaves()}

    def test_unseen_level_routed_right(self):
        rng = np.random.default_rng(5)
        taus = [0.2, 0.7]
        uv = np.vstack([copula_rows(t, 150, 60 + i) for i, t in enumerate(taus)])
        labs = ["a"] * 150 + ["b"] * 150
        data = Dataset(np.zeros((300, 2)), (categorical_column("g", labs),))
        tree = tr.build_maximal_tree(
            CLAYTON, PseudoObservations(uv, "t"), data, tr.StoppingConfig(min_leaf=50)
        )
        assert tree.n_leaves == 2
        leaf_unseen = tr.route(tree.root, [np.array([-1])], 1)[0]  # unseen level code
        assert leaf_unseen == tree.root.right.id

    @given(
        left=st.frozensets(st.integers(0, 12), max_size=8),
        codes=st.lists(st.integers(-3, 20), max_size=40),
    )
    def test_level_lookup_routes_like_isin(self, left, codes):
        # negative codes and codes above every left level go right
        rule = tr.SplitRule(0, left_levels=left)
        values = np.array(codes + [-1, max(left, default=0) + 1], dtype=np.int64)
        assert np.array_equal(rule.goes_left(values), np.isin(values, list(left)))

    def test_tree_loglik_consistency(self):
        pseudo, data = step_node(700, 456, with_x2_cut=False)
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=50, max_candidates=16))
        total = tr.tree_loglik(tree, pseudo, data)
        assert total == pytest.approx(sum(l.fit.loglik for l in tree.leaves()), abs=1e-9)

        held_pseudo, held_data = step_node(300, 457, with_x2_cut=False)
        assert np.isfinite(tr.tree_loglik(tree, held_pseudo, held_data))

    def test_growth_monotonicity(self):
        # every accepted split has gain > min_gain >= 0: the summed leaf
        # loglik rises monotonically along the construction
        pseudo, data = step_node(900, 555, with_x2_cut=False)
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=50, max_candidates=16))
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.left.fit.loglik + node.right.fit.loglik > node.fit.loglik
                assert node.left.fit.n_obs + node.right.fit.n_obs == node.fit.n_obs
                assert min(node.left.fit.n_obs, node.right.fit.n_obs) >= 50

    def test_serialization_roundtrip(self):
        """A fitted tree of every family passes the document's checks and reads back."""
        pseudo, data = step_node(500, 666, with_x2_cut=False)
        for family in ("clayton", "frank", "gumbel"):
            stopping = tr.StoppingConfig(min_leaf=50, max_candidates=8)
            tree = tr.build_maximal_tree(cp.spec_for(family), pseudo, data, stopping)
            doc = tree_to_doc(tree)
            back = tree_from_doc(doc)
            assert len(doc["nodes"]) > 1
            assert json.dumps(tree_to_doc(back), sort_keys=True) == json.dumps(doc, sort_keys=True)
            theta1, tau1, id1 = tree.predict(data)
            theta2, tau2, id2 = back.predict(data)
            assert np.array_equal(id1, id2) and np.array_equal(theta1, theta2) and np.array_equal(tau1, tau2)

    def test_repeated_covariate_name_is_schema_error(self):
        """predict finds a tree's covariates by name, so two of one name are refused."""
        pseudo, data = step_node(500, 666, with_x2_cut=False)
        doc = tree_to_doc(tr.build_maximal_tree(CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=50, max_candidates=8)))
        doc["covariates"][1]["name"] = doc["covariates"][0]["name"]
        with pytest.raises(SchemaError, match="^tree document: covariate 1: name 'x1' appears twice$"):
            tree_from_doc(doc)


# ---------------------------------------------------------------------------
# the screened split search against a brute-force refit of every cut

FAMILIES = ("clayton", "frank", "gumbel")


def random_node(family, n, seed, kinds, taus):
    """Rows whose dependence steps with the first covariate, plus covariates of ``kinds``."""
    spec = cp.spec_for(family)
    rng = np.random.default_rng(seed)
    covs, first = [], None
    for j, kind in enumerate(kinds):
        if kind == "num":
            x = np.round(rng.random(n), int(rng.integers(1, 4)))  # ties in x
            covs.append(numeric_column(f"x{j}", x))
            key = x < 0.5
        else:
            codes = rng.integers(0, int(rng.integers(2, 7)), n)
            covs.append(categorical_column(f"g{j}", [f"l{c}" for c in codes]))
            key = codes % 2 == 0
        first = key if first is None else first
    tau = np.where(first, taus[0], taus[1])
    theta = cp.tau_to_theta(spec, tau)
    u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
    v = cp.conditional_quantile(spec, theta, u, rng.random(n))
    return spec, PseudoObservations(np.column_stack([u, v]), "t"), Dataset(np.zeros((n, 2)), tuple(covs))


def brute_force_split(spec, pseudo, data, stopping):
    """Refit every admissible cut in (feature, position) order; keep the first best."""
    idx = np.arange(data.n)
    parent = cp.fit_mle(spec, pseudo.values)
    best = None
    for j, col in enumerate(data.covariates):
        if col.kind == "num":
            _, thresholds = tr._numeric_split_positions(
                np.sort(col.values), stopping.min_leaf, stopping.max_candidates
            )
            cuts = [
                (tr.SplitRule(j, threshold=float(s)), idx[col.values <= s], idx[col.values > s])
                for s in thresholds
            ]
        else:
            groups = tr.order_modalities(spec, pseudo, data, j, idx)
            cuts = []
            for cut in range(1, len(groups)):
                left = frozenset(c for g in groups[:cut] for c in g)
                mask = np.isin(col.values, list(left))
                if min(mask.sum(), (~mask).sum()) >= stopping.min_leaf:
                    cuts.append((tr.SplitRule(j, left_levels=left), idx[mask], idx[~mask]))
        for rule, left_rows, right_rows in cuts:
            lf = cp.fit_mle(spec, pseudo.values[left_rows])
            rf = cp.fit_mle(spec, pseudo.values[right_rows])
            gain = lf.loglik + rf.loglik - parent.loglik
            if best is None or gain > best[1]:
                best = (rule, gain, lf, rf, left_rows, right_rows)
    return best if best is not None and best[1] > stopping.min_gain else None


def assert_same_split(cand, expected):
    assert (cand.rule, cand.gain, cand.left_fit, cand.right_fit) == expected[:4]
    assert np.array_equal(cand.left_rows, expected[4]) and np.array_equal(cand.right_rows, expected[5])


node_cases = st.fixed_dictionaries(
    {
        "family": st.sampled_from(FAMILIES),
        "n": st.integers(40, 160),
        "seed": st.integers(0, 2**31),
        "kinds": st.sampled_from([("num",), ("cat",), ("num", "cat"), ("cat", "num", "num")]),
        "taus": st.tuples(st.floats(0.05, 0.85), st.floats(0.05, 0.85)),
        "min_leaf": st.integers(10, 30),
        "max_candidates": st.one_of(st.none(), st.integers(1, 12)),
    }
)


class TestScreenedSplitSearch:
    @given(case=node_cases)
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force(self, case):
        spec, pseudo, data = random_node(case["family"], case["n"], case["seed"], case["kinds"], case["taus"])
        stopping = tr.StoppingConfig(min_leaf=case["min_leaf"], max_candidates=case["max_candidates"])
        cand = tr.find_optimal_split(spec, pseudo, data, stopping)
        expected = brute_force_split(spec, pseudo, data, stopping)
        if expected is None:
            assert cand is None
        else:
            assert_same_split(cand, expected)

    @given(case=node_cases, squash=st.sampled_from([1.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_every_bound_covers_its_refit_gain(self, case, squash):
        # squash > 1 pushes rows into the corners, where Clayton's caps are loosest
        spec, pseudo, data = random_node(case["family"], case["n"], case["seed"], case["kinds"], case["taus"])
        uv = np.clip(pseudo.values**squash, 1e-300, 1 - 1e-16)
        pseudo = PseudoObservations(uv, "t")
        stopping = tr.StoppingConfig(min_leaf=case["min_leaf"], max_candidates=case["max_candidates"])
        idx = np.arange(data.n)
        parent = cp.fit_mle(spec, uv)
        features = tr._node_cuts(
            data, idx, stopping.min_leaf, stopping.max_candidates,
            lambda j: tr.order_modalities(spec, pseudo, data, j, idx),
        )
        gains = []
        for fc in features:
            for k in range(len(fc.n_left)):
                left, right = tr._cut_rows(data, idx, fc.rule(k))
                gains.append(cp.fit_mle(spec, uv[left]).loglik + cp.fit_mle(spec, uv[right]).loglik - parent.loglik)
        gains = np.array(gains)
        screen = tr._Screen(spec, tr._row_table(spec, uv), idx, uv, features, parent.loglik)
        bound = screen.bounds()
        assert np.all(bound >= gains)
        if len(gains):
            top = int(np.argmax(bound))
            # the search's own target, the top cut's gain, and one that refines every cut
            for target in (gains[top], gains.min()):
                assert np.all(screen.refine(bound, top, target, -np.inf) >= gains)

    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**31), squash=st.sampled_from([1.0, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_caps_bound_every_rows_curvature(self, family, seed, squash):
        spec = cp.spec_for(family)
        rng = np.random.default_rng(seed)
        uv = np.clip(rng.random((40, 2)) ** squash, 1e-12, 1 - 1e-12)
        theta = cp.screen_grid(spec)
        cap, row_cap, offset = cp.curvature_caps(spec, theta, uv)
        assert np.all(cap >= 0.0)
        for k in rng.choice(len(theta) - 1, 16, replace=False):
            a, b = theta[k], theta[k + 1]
            t, h = a + (b - a) * rng.uniform(0.05, 0.95), 1e-3 * (b - a)
            _, score = cp.log_density_and_score(spec, np.array([t - h, t + h]), uv[:, 0], uv[:, 1])
            curvature = (score[:, 1] - score[:, 0]) / (2.0 * h)
            limit = np.minimum(cap[k], row_cap + offset[k])
            assert np.all(curvature <= limit + 1e-6 * (1.0 + np.abs(limit)))

    @given(case=node_cases, squash=st.sampled_from([1.0, 3.0]))
    @settings(max_examples=30, deadline=None)
    def test_per_row_term_is_summed_only_where_it_can_bind(self, case, squash):
        # Frank and Gumbel have no per-row curvature term (an offset of +inf),
        # so summing their zero row caps over every side would change no bound
        spec, pseudo, data = random_node(case["family"], case["n"], case["seed"], case["kinds"], case["taus"])
        uv = np.clip(pseudo.values**squash, 1e-300, 1 - 1e-16)
        idx = np.arange(data.n)
        features = tr._node_cuts(data, idx, case["min_leaf"], case["max_candidates"],
                                 lambda j: tr.order_modalities(spec, PseudoObservations(uv, "t"), data, j, idx))
        screen = tr._Screen(spec, tr._row_table(spec, uv), idx, uv, features, cp.fit_mle(spec, uv).loglik)
        bound = screen.bounds()
        _, row_caps, offset = cp.curvature_caps(spec, screen.theta, uv)
        assert (screen.weights is None) == (spec.family is not cp.Family.CLAYTON) == bool(np.all(offset == np.inf))
        screen.weights = tr._side_sums(screen._splits(np.arange(len(screen.n_left)), screen.orders))(row_caps)
        assert screen.bounds().tobytes() == bound.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("cat_first", [False, True])
    @pytest.mark.parametrize("later_first", [False, True])
    def test_equal_partitions_tie_to_the_first_feature(self, seed, cat_first, later_first, monkeypatch):
        # a categorical copy of a binary numeric covariate offers the same
        # partition twice; its gain ties exactly and the first feature wins,
        # also when valid but reversed bounds refit the later cut first
        if later_first:
            monkeypatch.setattr(tr._Screen, "bounds", lambda self: 1e9 + np.arange(len(self.n_left), dtype=float))
            monkeypatch.setattr(tr._Screen, "refine", lambda self, bound, *rest: bound)
        rng = np.random.default_rng(seed)
        n = 120
        x = (rng.random(n) < 0.5).astype(float)
        tau = np.where(x > 0, 0.6, 0.2)
        uv = copula_rows(tau, n, seed + 100)
        cols = [numeric_column("x", x), categorical_column("g", ["ab"[int(z)] for z in x])]
        data = Dataset(np.zeros((n, 2)), tuple(cols[::-1] if cat_first else cols))
        pseudo = PseudoObservations(uv, "t")
        stopping = tr.StoppingConfig(min_leaf=20)
        cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping)
        expected = brute_force_split(CLAYTON, pseudo, data, stopping)
        assert_same_split(cand, expected)
        assert cand.rule.feature == 0

    @given(family=st.sampled_from(FAMILIES), n=st.integers(10, 300), seed=st.integers(0, 2**31),
           tau=st.floats(0.02, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_fit_mle_is_row_permutation_invariant(self, family, n, seed, tau):
        spec = cp.spec_for(family)
        rng = np.random.default_rng(seed)
        uv = cp.sample(spec, cp.tau_to_theta(spec, tau), n, rng)
        uv = np.clip(uv, 1e-12, 1 - 1e-12)
        assert cp.fit_mle(spec, uv[rng.permutation(n)]) == cp.fit_mle(spec, uv)


def gentle_node(n, seed):
    """One numeric covariate along which Clayton's tau rises smoothly, so that
    many cuts come close to the best one."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    uv = copula_rows(0.3 + 0.15 * np.tanh(4.0 * (x - 0.5)), n, seed + 1)
    return PseudoObservations(np.clip(uv, 1e-12, 1 - 1e-12), "t"), Dataset(np.zeros((n, 2)), (numeric_column("x", x),))


class TestRefineEveryNode:
    def test_more_live_cells_than_the_budget_are_refined(self, monkeypatch):
        # refinement once stopped when a node's live cells held more values than
        # _SCREEN_BUDGET; it now bisects them in chunks and refits fewer cuts
        monkeypatch.setattr(tr, "_SCREEN_BUDGET", 1 << 11)
        pseudo, data = gentle_node(400, 2)
        stopping = tr.StoppingConfig(min_leaf=30)
        parent = cp.fit_mle(CLAYTON, pseudo.values)
        fits, live, real_fit, real_reaches = [], [], tr.fit_mle, tr._Screen._reaches

        def counting_fit(spec, uv):
            fits.append(len(uv))
            return real_fit(spec, uv)

        def reaches(self, total, target, min_gain):
            if total.ndim == 1:  # the live cells' liveness test, one call per level
                live.append(total.size)
            return real_reaches(self, total, target, min_gain)

        monkeypatch.setattr(tr, "fit_mle", counting_fit)
        monkeypatch.setattr(tr._Screen, "_reaches", reaches)
        cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping, parent_fit=parent)
        refined = len(fits)
        assert 9 * live[0] > tr._SCREEN_BUDGET and len(live) == tr._REFINE_LEVELS
        expected = brute_force_split(CLAYTON, pseudo, data, stopping)
        assert_same_split(cand, expected)
        # the old cutoff left such a node's grid bounds as they were, as no levels do
        fits.clear()
        monkeypatch.setattr(tr, "_REFINE_LEVELS", 0)
        assert_same_split(tr.find_optimal_split(CLAYTON, pseudo, data, stopping, parent_fit=parent), expected)
        assert refined < len(fits)


def cell_maxima_oracle(fa, fb, ga, gb, curvature, a, b):
    """_cell_maxima's closed form as one numpy expression per term."""
    h = b - a
    c = 0.5 * curvature
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        slope = ga - gb + 2.0 * c * h
        s = np.clip((fb - fa - gb * h + c * h * h) / slope, 0.0, h)
        top = np.where(
            slope > 0.0,
            fa + s * (ga + c * s),
            np.maximum(fa + h * (ga + c * h), fb - h * (gb - c * h)),
        )
        out = np.maximum(np.maximum(fa, fb), top)
    return np.where(np.isfinite(out), out, np.inf)


cell_values = st.one_of(
    st.floats(-1e3, 1e3), st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
)


class TestCellMaxima:
    @given(data=st.data(), n=st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_closed_form(self, data, n):
        # any values, slopes of either sign included; a NaN anywhere or +inf at a
        # cell end gives +inf, and every result has the closed form's bits
        fa, fb, ga, gb, curvature = (np.array(data.draw(st.lists(cell_values, min_size=n, max_size=n)))
                                     for _ in range(5))
        a = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n)))
        b = a + np.array(data.draw(st.lists(st.floats(0, 10), min_size=n, max_size=n)))
        got = tr._cell_maxima(fa, fb, ga, gb, curvature, a, b)
        assert got.tobytes() == cell_maxima_oracle(fa, fb, ga, gb, curvature, a, b).tobytes()
        inputs = np.stack([fa, fb, ga, gb, curvature])
        assert np.all(got[np.isnan(inputs).any(axis=0) | (np.stack([fa, fb]) == np.inf).any(axis=0)] == np.inf)
        assert not np.isnan(got).any() and not (got == -np.inf).any()

    @given(seed=st.integers(0, 2**31), sides=st.integers(1, 40), cells=st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_grid_blocks_broadcast(self, seed, sides, cells):
        # a grid block: (cells, sides) values against a column of the cells' ends
        rng = np.random.default_rng(seed)
        f, g = rng.normal(size=(2, cells + 1, sides)) * 100.0
        g[rng.random(g.shape) < 0.2] *= -50.0  # non-positive slopes
        curvature = rng.random((cells, sides)) * 10.0
        theta = np.sort(rng.normal(size=cells + 1))[:, None]
        args = (f[:-1], f[1:], g[:-1], g[1:], curvature, theta[:-1], theta[1:])
        assert tr._cell_maxima(*args).tobytes() == cell_maxima_oracle(*args).tobytes()


def side_sums_oracle(splits, values):
    """Every cut's left-side sum, then every right side, one row at a time (sides last)."""
    left = [values[rows[:k]].sum(axis=0) for rows, n_left in splits for k in n_left]
    right = [values[rows[k:]].sum(axis=0) for rows, n_left in splits for k in n_left]
    return np.moveaxis(np.array(left + right).reshape((-1,) + values.shape[1:]), 0, -1)


def side_sums_one_gather(splits, values):
    """The side sums from all of a feature's rows gathered at once and summed
    by one np.add.reduceat; _side_sums must give the same bits."""
    prefix = [
        np.cumsum(np.add.reduceat(values[rows].reshape(len(rows), -1), np.append(0, n_left), axis=0), axis=0)
        for rows, n_left in splits if len(n_left)
    ]
    sides = np.concatenate([p[:-1] for p in prefix] + [p[-1] - p[:-1] for p in prefix])
    return np.moveaxis(sides.reshape((len(sides),) + values.shape[1:]), 0, -1)


def random_splits(rng, n, kinds):
    """(a node's rows of an n-row array in cut order, left-side sizes) per kind of cuts."""
    splits = []
    for kind in kinds:
        m = int(rng.integers(2, n + 1))
        rows = rng.choice(n, m, replace=False)
        n_left = {
            "every": np.arange(1, m),  # 1-row segments
            "one": rng.integers(1, m, 1),
            "none": np.empty(0, dtype=np.int64),  # a feature without cuts
            "some": np.flatnonzero(rng.random(m - 1) < 0.5) + 1,
            "few": np.sort(rng.choice(np.arange(1, m), min(m - 1, 3), replace=False)),  # long segments
        }[kind]
        splits.append((rows, n_left))
    return splits


class TestSideSums:
    @given(seed=st.integers(0, 2**31), shape=st.sampled_from([(), (2,), (2, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_equals_row_by_row_sums(self, seed, shape):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        values = rng.normal(size=(n,) + shape) * 10.0 ** rng.integers(-3, 4, size=(n,) + shape)
        splits = random_splits(rng, n, ("every", "one", "none", "some"))
        for order in (splits, splits[::-1]):
            got = tr._side_sums(order)(values)
            want = side_sums_oracle(order, values)
            # a right side is a feature's total minus its left side
            total = [np.abs(values[rows]).sum(axis=0) for rows, n_left in order for _ in n_left]
            scale = np.moveaxis(np.array(total + total).reshape((-1,) + values.shape[1:]), 0, -1)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @given(seed=st.integers(0, 2**31), shape=st.sampled_from([(), (2,), (2, 3), (2, 64)]),
           budget=st.sampled_from([1 << 16, 1 << 10, 16]), n=st.sampled_from([40, 700, 3000]))
    @settings(max_examples=60, deadline=None)
    def test_chunks_sum_as_one_gather_does(self, seed, shape, budget, n):
        # short segments grouped into chunks, long ones summed in pieces, and
        # rows x width over the budget: every path gives one reduceat's bits
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n,) + shape) * 10.0 ** rng.integers(-3, 4, size=(n,) + shape)
        splits = random_splits(rng, n, ("few", "every", "none", "some", "one"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_SCREEN_BUDGET", budget)
            got = tr._side_sums(splits)(values)
        assert got.tobytes() == side_sums_one_gather(splits, values).tobytes()

    @pytest.mark.parametrize("n_left", [np.array([1000, 1900]), np.arange(5, 3000, 5)], ids=["few", "many"])
    def test_rows_are_gathered_a_chunk_at_a_time(self, n_left):
        # 3000 rows of 256 values in long or short segments: no gather holds
        # more than a chunk of rows, and each row is gathered once
        rng = np.random.default_rng(5)
        values = rng.normal(size=(3000, 2, 128))
        rows = rng.permutation(3000)
        gathered = []

        class Table(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray):
                    gathered.append(len(key))
                return super().__getitem__(key)

        got = tr._side_sums([(rows, n_left)])(values.view(Table))
        assert got.tobytes() == side_sums_one_gather([(rows, n_left)], values).tobytes()
        chunk = tr._SCREEN_BUDGET // (2 * 256)
        assert max(gathered) <= max(chunk, 128) and sum(gathered) == 3000

    def test_no_splits(self):
        values = np.ones((5, 2, 3))
        assert tr._side_sums([])(values).shape == (2, 3, 0)

    def test_one_block_node_sums_the_row_table_once(self, monkeypatch):
        # with the whole grid in one block, refine reads its cuts' sides from the
        # block bounds built rather than summing the table again
        pseudo, data = step_node(200, 0)
        stopping = tr.StoppingConfig(min_leaf=30, max_candidates=16)
        build = tr._Build(tr._row_table(CLAYTON, pseudo.values))
        reads, refines, real = [], [], tr._side_sums

        def counting(*args):
            sums = real(*args)

            def count(values):
                reads.append(np.shares_memory(values, build.table))
                return sums(values)

            return count

        def refine(self, bound, top, target, min_gain):
            refines.append(np.count_nonzero((bound >= target) & (bound > min_gain)) > 1)
            return real_refine(self, bound, top, target, min_gain)

        real_refine = tr._Screen.refine
        monkeypatch.setattr(tr, "_side_sums", counting)
        monkeypatch.setattr(tr._Screen, "refine", refine)
        cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping, _build=build)
        assert cand.rule.feature == 0
        assert refines == [True]  # refine had cuts besides the top one to tighten
        assert sum(reads) == 1


def node_rows(tree, data):
    """(node, its training rows) for every node of ``tree``."""
    out, stack = [], [(tree.root, np.arange(data.n))]
    while stack:
        node, rows = stack.pop()
        out.append((node, rows))
        if not node.is_leaf:
            left = node.rule.goes_left(data.covariates[node.rule.feature].values[rows])
            stack += [(node.left, rows[left]), (node.right, rows[~left])]
    return out


class TestMaximalTreeSearch:
    @given(case=node_cases, squash=st.sampled_from([1.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_every_node_equals_brute_force(self, case, squash):
        # the tree's shared row table must give each node the split a brute-force
        # refit of that node's rows alone gives; no leaf is left by the leaf cap
        spec, pseudo, data = random_node(case["family"], case["n"], case["seed"], case["kinds"], case["taus"])
        pseudo = PseudoObservations(np.clip(pseudo.values**squash, 1e-300, 1 - 1e-16), "t")
        stopping = tr.StoppingConfig(
            min_leaf=case["min_leaf"], max_candidates=case["max_candidates"], max_leaves=64
        )
        tree = tr.build_maximal_tree(spec, pseudo, data, stopping)
        for node, rows in node_rows(tree, data):
            expected = brute_force_split(
                spec, PseudoObservations(pseudo.values[rows], "t"), data.subset(rows), stopping
            )
            if node.is_leaf:
                assert expected is None
                continue
            gain = node.left.fit.loglik + node.right.fit.loglik - node.fit.loglik
            assert (node.rule, gain, node.left.fit, node.right.fit) == expected[:4]

    def test_memory_stays_linear_in_n(self):
        # an uncapped root search: the row table is the only array that grows with
        # the rows, every other one is held to the screen's budget
        peaks = {}
        for n in (2000, 4000):
            rng = np.random.default_rng(3)
            x = rng.random((n, 2))
            pseudo = PseudoObservations(copula_rows(np.where(x[:, 0] < 0.4, 0.3, 0.6), n, 4), "t")
            data = Dataset(np.zeros((n, 2)), (numeric_column("x1", x[:, 0]), numeric_column("x2", x[:, 1])))
            parent = cp.fit_mle(CLAYTON, pseudo.values)
            tracemalloc.start()
            try:
                cand = tr.find_optimal_split(CLAYTON, pseudo, data, tr.StoppingConfig(min_leaf=50), parent_fit=parent)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert cand.rule.feature == 0
        assert peaks[4000] <= 2.2 * peaks[2000]
        assert peaks[4000] < 24 * 2**20

    @pytest.mark.parametrize("n", [2000, 8000])
    def test_capped_search_keeps_to_the_budget(self, n):
        # a capped root search screens its whole grid in one block; beyond the
        # row table, its working set stays within a few budgets at any n
        rng = np.random.default_rng(3)
        x = rng.random((n, 2))
        pseudo = PseudoObservations(copula_rows(np.where(x[:, 0] < 0.4, 0.3, 0.6), n, 4), "t")
        data = Dataset(np.zeros((n, 2)), (numeric_column("x1", x[:, 0]), numeric_column("x2", x[:, 1])))
        parent = cp.fit_mle(CLAYTON, pseudo.values)
        build = tr._Build(tr._row_table(CLAYTON, pseudo.values))
        stopping = tr.StoppingConfig(min_leaf=50, max_candidates=16)
        tracemalloc.start()
        try:
            cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping, parent_fit=parent, _build=build)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cand.rule.feature == 0
        assert peak < 4 * tr._SCREEN_BUDGET * 8


# ---------------------------------------------------------------------------
# the per-tree memo of level-group searches


def flu_node(seed):
    """Pseudo-observations and covariates as the flu subcommand builds them from the fixture."""
    unit_years = aggregate_counts(make_flu_fixture(seed), min_total=50)
    y = np.array([[pt.y1, pt.y2] for pt in (ilr_forward(uy.composition) for uy in unit_years)])
    data = Dataset(y, (
        categorical_column("season", [uy.season for uy in unit_years]),
        categorical_column("itz", [uy.itz for uy in unit_years]),
    ))
    pseudo = mg.pseudo_margin_tree(data, mg.MarginTreeConfig(seed=seed))
    return pseudo, data


def sparse_levels_node(family, n, seed, n_features):
    """Rows whose dependence steps with the level of the first categorical
    covariate, whose levels are skewed so that some fall below MIN_FIT_N."""
    spec = cp.spec_for(family)
    rng = np.random.default_rng(seed)
    covs, level_tau = [], None
    for j in range(n_features):
        k = int(rng.integers(3, 9))
        p = rng.random(k) ** 3 + 1e-3
        codes = rng.choice(k, n, p=p / p.sum())
        covs.append(categorical_column(f"g{j}", [f"l{c}" for c in codes]))
        level_tau = rng.uniform(0.05, 0.8, k)[codes] if level_tau is None else level_tau
    theta = cp.tau_to_theta(spec, level_tau)
    u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
    v = np.clip(cp.conditional_quantile(spec, theta, u, rng.random(n)), 1e-12, 1 - 1e-12)
    return spec, PseudoObservations(np.column_stack([u, v]), "t"), Dataset(np.zeros((n, 2)), tuple(covs))


sparse_cases = st.fixed_dictionaries(
    {
        "family": st.sampled_from(FAMILIES),
        "n": st.integers(60, 240),
        "seed": st.integers(0, 2**31),
        "n_features": st.integers(1, 2),
        "min_leaf": st.integers(10, 30),
    }
)


class TestLevelSearchMemo:
    def test_no_build_searches_a_row_set_twice(self, monkeypatch):
        # fit_mle's and order_modalities' searches both go through the core;
        # a row set is its rows' values in canonical order
        searched = []

        def recording(search):
            def core(spec, uv):
                searched.append(uv[np.lexsort((uv[:, 1], uv[:, 0]))].tobytes())
                return search(spec, uv)
            return core

        monkeypatch.setattr(cp, "_mle_search", recording(cp._mle_search))
        monkeypatch.setattr(tr, "_mle_search", recording(tr._mle_search))
        pseudo, data = flu_node(1000)
        rng = np.random.default_rng(0)
        total = 0
        for rows in [np.arange(data.n)] + [np.sort(rng.permutation(data.n)[: data.n * 2 // 3]) for _ in range(3)]:
            searched.clear()
            tr.build_maximal_tree(cp.spec_for("frank"), PseudoObservations(pseudo.values[rows], "t"), data.subset(rows))
            assert len(searched) == len(set(searched))
            total += len(searched)
        assert total > 0

    @given(case=sparse_cases)
    @settings(max_examples=40, deadline=None)
    def test_tree_equals_growth_without_memo(self, case):
        spec, pseudo, data = sparse_levels_node(case["family"], case["n"], case["seed"], case["n_features"])
        stopping = tr.StoppingConfig(min_leaf=case["min_leaf"], max_leaves=64)
        tree = tr.build_maximal_tree(spec, pseudo, data, stopping)
        plain = tr.grow(
            lambda idx: cp.fit_mle(spec, pseudo.values[idx]),
            lambda idx, fit: tr.find_optimal_split(spec, pseudo, data, stopping, idx, fit),
            np.arange(data.n),
            stopping.max_leaves,
        )
        got, want = list(tr.walk(tree.root)), list(tr.walk(plain))
        assert [(n.id, n.rule, n.fit) for n in got] == [(n.id, n.rule, n.fit) for n in want]

    @given(case=sparse_cases)
    @settings(max_examples=40, deadline=None)
    def test_order_modalities_same_groups_with_memo(self, case):
        spec, pseudo, data = sparse_levels_node(case["family"], case["n"], case["seed"], case["n_features"])
        rows = np.sort(np.random.default_rng(case["seed"]).permutation(data.n)[: data.n * 3 // 4])
        memo = {}
        for j in range(len(data.covariates)):
            for idx in (None, rows):
                plain = tr.order_modalities(spec, pseudo, data, j, idx)
                assert tr.order_modalities(spec, pseudo, data, j, idx, _searches=memo) == plain
                assert tr.order_modalities(spec, pseudo, data, j, idx, _searches=memo) == plain  # read back
