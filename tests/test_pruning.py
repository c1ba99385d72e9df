"""Tests for weakest-link pruning and cross-validated selection."""

import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from copulatree import copulas as cp
from copulatree import pruning as pr
from copulatree import tree as tr
from copulatree.data import Dataset, PseudoObservations, categorical_column, numeric_column
from copulatree.errors import ConfigError, InsufficientDataError
from copulatree.serialize import tree_to_doc

CLAYTON = cp.spec_for("clayton")
STOP16 = tr.StoppingConfig(min_leaf=50, max_candidates=16)


def step_tree(n=1000, seed=0, stopping=STOP16):
    from copulatree import simulation as sim

    ds = sim.generate(sim.ScenarioSpec("clayton", "step", n, seed))
    data = Dataset(
        np.zeros((n, 2)),
        (numeric_column("x1", ds.x[:, 0]), numeric_column("x2", ds.x[:, 1])),
    )
    pseudo = PseudoObservations(ds.u, "t")
    return tr.build_maximal_tree(CLAYTON, pseudo, data, stopping), pseudo, data


def null_dataset(n, seed):
    # covariates and responses from independent streams: no signal at all
    ss_uv, ss_x = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(ss_x)
    uv = cp.sample(CLAYTON, cp.tau_to_theta(CLAYTON, 0.45), n, ss_uv)
    data = Dataset(
        np.zeros((n, 2)),
        (numeric_column("x1", rng.random(n)), numeric_column("x2", rng.random(n))),
    )
    return PseudoObservations(uv, "t"), data


def enumerate_best_per_k(tree):
    """Brute force: best summed leaf loglik over ALL pruned subtrees per K."""
    by_id = {nd.id: nd for nd in tree.nodes()}

    def subtrees(node):
        if node.is_leaf:
            return [frozenset([node.id])]
        out = [frozenset([node.id])]
        for l in subtrees(node.left):
            for r in subtrees(node.right):
                out.append(l | r)
        return out

    best = {}
    for leafset in subtrees(tree.root):
        k = len(leafset)
        ll = sum(by_id[i].fit.loglik for i in sorted(leafset))
        if k not in best or ll > best[k]:
            best[k] = ll
    return best


class TestPrunePath:
    def test_single_leaf_tree(self):
        uv = cp.sample(CLAYTON, 2.0, 80, 1)
        data = Dataset(np.zeros((80, 2)), (numeric_column("x", np.linspace(0, 1, 80)),))
        tree = tr.build_maximal_tree(CLAYTON, PseudoObservations(uv, "t"), data, tr.StoppingConfig(min_leaf=50))
        path = pr.prune_path(tree)
        assert len(path.entries) == 1 and path.entries[0].k == 1

    def test_k_strictly_decreasing_and_root_terminal(self):
        tree, _, _ = step_tree(seed=11)
        path = pr.prune_path(tree)
        ks = path.k_values
        assert all(a > b for a, b in zip(ks, ks[1:]))
        assert ks[-1] == 1
        assert path.entries[-1].train_loglik == pytest.approx(tree.root.fit.loglik)

    def test_nesting_by_node_ids(self):
        tree, _, _ = step_tree(seed=12)
        path = pr.prune_path(tree)
        id_sets = [set(nd.id for nd in e.tree.nodes()) for e in path.entries]
        assert all(later <= earlier for earlier, later in zip(id_sets, id_sets[1:]))

    def test_per_k_optimal_vs_enumeration(self):
        for seed in range(5):
            tree, _, _ = step_tree(
                n=600, seed=100 + seed,
                stopping=tr.StoppingConfig(min_leaf=60, max_leaves=9, max_candidates=10),
            )
            if tree.n_leaves > 10:
                continue
            best = enumerate_best_per_k(tree)
            path = pr.prune_path(tree)
            for entry in path.entries:
                assert entry.train_loglik == pytest.approx(best[entry.k], abs=1e-9)

    def test_train_loglik_monotone_in_k(self):
        tree, _, _ = step_tree(seed=13)
        path = pr.prune_path(tree)
        lls = [e.train_loglik for e in path.entries]
        assert all(a >= b for a, b in zip(lls, lls[1:]))


def recursive_weakest_link_path(root):
    """The weakest-link path as first written: the leaves under every
    internal node found recursively at every collapse step."""
    by_id = {nd.id: nd for nd in tr.walk(root)}
    leafset = frozenset(nd.id for nd in by_id.values() if nd.is_leaf)

    def leaves_under(node):
        if node.id in leafset or node.is_leaf:
            return [node.id]
        return leaves_under(node.left) + leaves_under(node.right)

    def snapshot():
        return pr._copy_pruned(root, leafset), len(leafset), sum(by_id[i].fit.loglik for i in sorted(leafset))

    path = [snapshot()]
    while len(leafset) > 1:
        candidates = []
        for nd in tr.walk(root):
            if nd.is_leaf or nd.id in leafset:
                continue
            under = leaves_under(nd)
            if not all(i in leafset for i in under):
                continue
            gain = sum(by_id[i].fit.loglik for i in sorted(under)) - nd.fit.loglik
            candidates.append((gain / (len(under) - 1), -nd.depth, nd.id, under))
        _, _, nid, under = min(candidates)
        leafset = (leafset - set(under)) | {nid}
        path.append(snapshot())
    return path


def random_tree(rng, n_leaves):
    """A random binary tree whose node logliks come from a few values, so
    that many collapse gains tie; ids are assigned as the tree grows."""
    def node(nid, depth):
        return tr.TreeNode(nid, tr.SseFit(0.0, float(rng.choice([-3.0, -1.0, -0.5, 0.0, 0.25]))), depth)

    root, leaves, next_id = node(0, 0), [], 1
    leaves.append(root)
    while len(leaves) < n_leaves:
        parent = leaves.pop(int(rng.integers(len(leaves))))
        parent.rule = tr.SplitRule(0, threshold=0.5)
        parent.left, parent.right = node(next_id, parent.depth + 1), node(next_id + 1, parent.depth + 1)
        next_id += 2
        leaves += [parent.left, parent.right]
    return root


@pytest.mark.parametrize("seed", range(40))
def test_weakest_link_path_equals_the_recursive_one(seed):
    rng = np.random.default_rng(seed)
    root = random_tree(rng, int(rng.integers(1, 40)))
    got, want = pr.weakest_link_path(root), recursive_weakest_link_path(root)
    assert [(k, ll) for _, k, ll in got] == [(k, ll) for _, k, ll in want]
    for (a, _, _), (b, _, _) in zip(got, want):
        assert [(nd.id, nd.is_leaf) for nd in tr.walk(a)] == [(nd.id, nd.is_leaf) for nd in tr.walk(b)]


def test_weakest_link_path_on_grown_trees_equals_the_recursive_one():
    for seed in (11, 12):
        root = step_tree(seed=seed)[0].root
        got, want = pr.weakest_link_path(root), recursive_weakest_link_path(root)
        assert [(k, ll) for _, k, ll in got] == [(k, ll) for _, k, ll in want]


class TestSelectPenalized:
    def test_endpoints(self):
        tree, _, _ = step_tree(seed=21)
        path = pr.prune_path(tree)
        assert pr.select_penalized(path, 0.0).k == max(path.k_values)
        span = (max(e.train_loglik for e in path.entries) - path.entries[-1].train_loglik) / path.n
        assert pr.select_penalized(path, span + 1e-9).k == 1

    def test_interval_midpoint_returns_that_k(self):
        tree, _, _ = step_tree(seed=22)
        path = pr.prune_path(tree)
        intervals = pr.lambda_intervals(path)
        assert 4 in intervals  # the four-cell step structure is on the envelope
        lo, hi = intervals[4]
        assert pr.select_penalized(path, 0.5 * (lo + hi)).k == 4

    def test_monotone_in_lambda(self):
        tree, _, _ = step_tree(seed=23)
        path = pr.prune_path(tree)
        ks = [pr.select_penalized(path, lam).k for lam in np.linspace(0, 0.2, 41)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_negative_lambda_rejected(self):
        tree, _, _ = step_tree(seed=24)
        path = pr.prune_path(tree)
        with pytest.raises(ConfigError):
            pr.select_penalized(path, -0.1)

    def test_lambda_intervals_terminate_on_degenerate_paths(self):
        # collinear and tied log-likelihoods give coincident crossings;
        # the envelope walk must still strictly descend in K
        from copulatree.copulas import FitResult
        from copulatree.tree import CopulaTree, TreeNode

        def entry(k, ll):
            fit = FitResult(1.0, 1 / 3, ll, 100, True)
            tree = CopulaTree(CLAYTON, TreeNode(0, fit), ())
            return pr.PathEntry(tree, k, ll)

        for lls in ([5.0, 4.0, 3.0, 2.0], [5.0, 5.0, 5.0, 1.0], [5.0, 4.999999999, 3.0, 0.0]):
            path = pr.PrunePath(tuple(entry(k, ll) for k, ll in zip([7, 5, 3, 1], lls)), 100)
            intervals = pr.lambda_intervals(path)
            assert 1 in intervals and intervals[1][1] == np.inf
            ks = list(intervals)
            assert all(a > b for a, b in zip(ks, ks[1:]))
            lo_hi = list(intervals.values())
            assert all(lo < hi for lo, hi in lo_hi)


class TestCrossValidate:
    def test_determinism(self):
        _, pseudo, data = step_tree(seed=31)
        a = pr.cross_validate(CLAYTON, pseudo, data, folds=3, repeats=2, seed=5, stopping=STOP16)
        b = pr.cross_validate(CLAYTON, pseudo, data, folds=3, repeats=2, seed=5, stopping=STOP16)
        assert a == b

    def test_chosen_k_in_path_and_finite_ses(self):
        tree, pseudo, data = step_tree(seed=32)
        path = pr.prune_path(tree)
        rep = pr.cross_validate(
            CLAYTON, pseudo, data, folds=3, repeats=1, seed=6, stopping=STOP16, path=path
        )
        assert rep.chosen_k in path.k_values
        assert all(se >= 0 and np.isfinite(se) for se in rep.se_loglik.values())

    def test_null_data_one_se_picks_root(self):
        picks = []
        for seed in range(3):
            pseudo, data = null_dataset(600, 40 + seed)
            rep = pr.cross_validate(
                CLAYTON, pseudo, data, folds=3, repeats=10, seed=seed,
                rule="OneSE", stopping=tr.StoppingConfig(min_leaf=50, max_candidates=8),
            )
            picks.append(rep.chosen_k)
        assert picks.count(1) >= 2

    def test_scenario_recovers_four_to_six_leaves(self):
        hits = 0
        for seed in range(5):
            _, pseudo, data = step_tree(seed=500 + seed)
            rep = pr.cross_validate(
                CLAYTON, pseudo, data, folds=3, repeats=10, seed=seed,
                rule="MaxMean", stopping=STOP16,
            )
            if rep.chosen_k in (4, 5, 6):
                hits += 1
        assert hits >= 4

    def test_insufficient_data(self):
        pseudo, data = null_dataset(200, 50)
        with pytest.raises(InsufficientDataError):
            pr.cross_validate(CLAYTON, pseudo, data, folds=3, repeats=1, seed=0, stopping=STOP16)

    def test_bad_rule_and_folds(self):
        pseudo, data = null_dataset(600, 51)
        with pytest.raises(ConfigError):
            pr.cross_validate(CLAYTON, pseudo, data, folds=1, repeats=1, seed=0)
        with pytest.raises(ConfigError):
            pr.cross_validate(CLAYTON, pseudo, data, rule="Wat", seed=0)


class TestFitPrunedTree:
    def test_pipeline_returns_selected_subtree(self):
        _, pseudo, data = step_tree(seed=61)
        maximal, path, report, subtree = pr.fit_pruned_tree(
            CLAYTON, pseudo, data, stopping=STOP16, folds=3, repeats=2, seed=9, rule="MaxMean"
        )
        assert subtree.n_leaves == report.chosen_k
        assert subtree.n_leaves <= maximal.n_leaves
        assert tr.tree_loglik(subtree, pseudo, data) >= path.entries[-1].train_loglik - 1e-9


# ---------------------------------------------------------------------------
# CV reuses the full data: fold trees grow on row indices and read one row
# table, and every pruned subtree is scored from one routing


def clayton_step_case(stopping):
    _, pseudo, data = step_tree(n=600, seed=71, stopping=stopping)
    return CLAYTON, pseudo, data, stopping


def frank_categorical_case():
    """Frank dependence stepping with the level of the first of two
    categorical covariates, some levels below MIN_FIT_N rows."""
    spec, n = cp.spec_for("frank"), 600
    rng = np.random.default_rng(72)
    g1 = rng.choice(6, n, p=[0.3, 0.3, 0.2, 0.1, 0.08, 0.02])
    g2 = rng.integers(0, 4, n)
    theta = cp.tau_to_theta(spec, np.array([0.1, 0.6, 0.3, 0.7, 0.2, 0.5])[g1])
    u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
    v = np.clip(cp.conditional_quantile(spec, theta, u, rng.random(n)), 1e-12, 1 - 1e-12)
    data = Dataset(np.zeros((n, 2)), (
        categorical_column("g1", [f"l{c}" for c in g1]),
        categorical_column("g2", [f"m{c}" for c in g2]),
    ))
    return spec, PseudoObservations(np.column_stack([u, v]), "t"), data, tr.StoppingConfig(min_leaf=20)


def gumbel_mixed_case():
    """Gumbel dependence stepping with a numeric and a categorical covariate."""
    spec, n = cp.spec_for("gumbel"), 500
    rng = np.random.default_rng(73)
    x, g = rng.random(n), rng.integers(0, 3, n)
    theta = cp.tau_to_theta(spec, np.where(x < 0.5, 0.2, 0.6) + 0.1 * (g == 2))
    u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
    v = np.clip(cp.conditional_quantile(spec, theta, u, rng.random(n)), 1e-12, 1 - 1e-12)
    data = Dataset(np.zeros((n, 2)), (numeric_column("x", x), categorical_column("g", [f"k{c}" for c in g])))
    return spec, PseudoObservations(np.column_stack([u, v]), "t"), data, tr.StoppingConfig(min_leaf=30)


CV_CASES = {
    "clayton_capped": lambda: clayton_step_case(tr.StoppingConfig(min_leaf=30, max_candidates=16)),
    "clayton_uncapped": lambda: clayton_step_case(tr.StoppingConfig(min_leaf=30)),
    "frank_categorical": frank_categorical_case,
    "gumbel_mixed": gumbel_mixed_case,
}


@pytest.mark.parametrize("case", list(CV_CASES))
def test_fold_tree_on_rows_equals_tree_on_subset(case):
    spec, pseudo, data, stopping = CV_CASES[case]()
    table = tr._row_table(spec, pseudo.values)
    rng = np.random.default_rng(5)
    for _ in range(3):
        rows = np.sort(rng.permutation(data.n)[: data.n * 2 // 3])
        on_rows = tr.build_maximal_tree(spec, pseudo, data, stopping, rows, _table=table)
        on_subset = tr.build_maximal_tree(spec, PseudoObservations(pseudo.values[rows], "t"), data.subset(rows), stopping)
        assert on_rows.n_leaves > 2
        assert json.dumps(tree_to_doc(on_rows)) == json.dumps(tree_to_doc(on_subset))


@pytest.mark.parametrize("case", list(CV_CASES))
def test_fold_scores_equal_tree_loglik_of_each_subtree(case, monkeypatch):
    spec, pseudo, data, stopping = CV_CASES[case]()
    folds = []

    def recording(maximal, uv, columns):
        scores = path_scores(maximal, uv, columns)
        folds.append((maximal, uv, columns, scores))
        return scores

    path_scores = pr._path_scores
    monkeypatch.setattr(pr, "_path_scores", recording)
    pr.cross_validate(spec, pseudo, data, folds=3, repeats=2, seed=4, stopping=stopping)
    assert len(folds) == 6
    maximal, uv, columns, _ = folds[0]
    # held-out rows that leave one leaf empty: it is skipped, as tree_loglik skips it
    keep = tr.route(maximal.root, columns, len(uv)) != maximal.leaves()[0].id
    folds.append((maximal, uv[keep], [v[keep] for v in columns], path_scores(maximal, uv[keep], [v[keep] for v in columns])))
    for maximal, uv, columns, scores in folds:
        val_pseudo = PseudoObservations(uv, "t")
        val_data = Dataset(np.zeros((len(uv), 2)), tuple(replace(c, values=v) for c, v in zip(data.covariates, columns)))
        path = pr.prune_path(maximal)
        assert list(scores) == path.k_values
        for entry in path.entries:
            assert scores[entry.k] == tr.tree_loglik(entry.tree, val_pseudo, val_data), entry.k


def test_fit_pruned_tree_builds_one_row_table(monkeypatch):
    calls = []

    def counting(spec, uv):
        calls.append(len(uv))
        return row_table(spec, uv)

    row_table = tr._row_table
    monkeypatch.setattr(pr, "_row_table", counting)
    monkeypatch.setattr(tr, "_row_table", counting)
    spec, pseudo, data, stopping = CV_CASES["frank_categorical"]()
    pr.fit_pruned_tree(spec, pseudo, data, stopping, folds=3, repeats=2, seed=1)
    assert calls == [data.n]
    calls.clear()
    pr.cross_validate(spec, pseudo, data, folds=3, repeats=1, seed=1, stopping=stopping)
    assert calls == [data.n]


@pytest.mark.parametrize("case", ["clayton_uncapped", "frank_categorical", "gumbel_mixed"])
def test_worker_count_changes_no_bit(case):
    """Fold trees spread over 2 or 3 processes give the serial report, path
    and selected tree bit for bit (pickle writes each float's 8 bytes); so
    does ``cross_validate`` alone, which grows every tree in this process."""
    spec, pseudo, data, stopping = CV_CASES[case]()
    runs = [pr.fit_pruned_tree(spec, pseudo, data, stopping, folds=3, repeats=2, seed=6, jobs=jobs)
            for jobs in (1, 2, 3)]
    alone = pr.cross_validate(spec, pseudo, data, folds=3, repeats=2, seed=6, stopping=stopping)
    assert runs[0][3].n_leaves > 1
    for maximal, path, report, subtree in runs:
        assert pickle.dumps(report) == pickle.dumps(runs[0][2]) == pickle.dumps(alone)
        assert json.dumps(tree_to_doc(subtree)) == json.dumps(tree_to_doc(runs[0][3]))
        assert json.dumps(tree_to_doc(maximal)) == json.dumps(tree_to_doc(runs[0][0]))
        assert [(e.k, e.train_loglik) for e in path.entries] == [(e.k, e.train_loglik) for e in runs[0][1].entries]
