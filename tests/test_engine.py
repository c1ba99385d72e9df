"""Properties of the tree engine shared by copula and margin trees.

The least-squares split against a brute-force refit of every cut, nested
prune paths for both node criteria, the router against a per-row walker,
and predictions across a serialize round trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulatree import copulas as cp
from copulatree import pruning as pr
from copulatree import tree as tr
from copulatree.data import Dataset, PseudoObservations, categorical_column, numeric_column
from copulatree.serialize import tree_from_doc, tree_to_doc

CLAYTON = cp.spec_for("clayton")


def mixed_data(seed, n, kinds):
    """Covariates of ``kinds`` (numeric with ties, or categorical), responses
    that step with them, and pseudo-observations whose tau does too."""
    rng = np.random.default_rng(seed)
    covs, signal = [], np.zeros(n)
    for j, kind in enumerate(kinds):
        if kind == "num":
            x = np.round(rng.random(n), int(rng.integers(1, 4)))
            signal += rng.normal() * (x > rng.random())
            covs.append(numeric_column(f"x{j}", x))
        else:
            codes = rng.integers(0, int(rng.integers(2, 7)), n)
            signal += rng.normal(size=codes.max() + 1)[codes]
            covs.append(categorical_column(f"g{j}", [f"l{c}" for c in codes]))
    y = signal + rng.normal(size=n)
    tau = np.clip(0.4 + 0.2 * np.tanh(signal), 0.05, 0.85)
    u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
    v = cp.conditional_quantile(CLAYTON, 2 * tau / (1 - tau), u, rng.random(n))
    pseudo = PseudoObservations(np.column_stack([u, v]), "t")
    return y, pseudo, Dataset(np.column_stack([y, y]), tuple(covs))


def brute_force_sse_split(y, data, min_leaf):
    """Every admissible cut by an explicit mask; the first largest SSE reduction."""
    idx = np.arange(data.n)

    def sse(v):
        return float(np.sum((v - v.mean()) ** 2))

    parent, best = sse(y), None
    for j, col in enumerate(data.covariates):
        x = col.values
        if col.kind == "num":
            values = np.unique(x)
            cuts = [tr.SplitRule(j, threshold=float(0.5 * (a + b))) for a, b in zip(values[:-1], values[1:])]
            masks = [x <= rule.threshold for rule in cuts]
        else:
            levels = np.unique(x)
            order = [int(c) for _, c in sorted(zip([float(y[x == c].mean()) for c in levels], levels))]
            cuts = [tr.SplitRule(j, left_levels=frozenset(order[:k])) for k in range(1, len(order))]
            masks = [np.isin(x, order[:k]) for k in range(1, len(order))]
        for rule, mask in zip(cuts, masks):
            if min(mask.sum(), (~mask).sum()) < min_leaf:
                continue
            gain = parent - sse(y[mask]) - sse(y[~mask])
            if best is None or gain > best[1]:
                best = (rule, gain, idx[mask], idx[~mask])
    return best if best is not None and best[1] > 0.0 else None


def reference_leaf(node, row):
    """Walk one covariate row from the root, one comparison per node."""
    while not node.is_leaf:
        rule, value = node.rule, row[node.rule.feature]
        goes_left = value <= rule.threshold if rule.is_numeric else int(value) in rule.left_levels
        node = node.left if goes_left else node.right
    return node.id


def grow_sse(y, data, min_leaf):
    return tr.grow(
        lambda idx: tr.sse_fit(y[idx]),
        lambda idx, fit: tr.sse_split(y, data, idx, fit, min_leaf),
        np.arange(data.n),
        32,
    )


cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31),
        "n": st.integers(40, 240),
        "kinds": st.sampled_from([("num",), ("cat",), ("num", "cat"), ("cat", "num", "num")]),
        "min_leaf": st.integers(5, 25),
    }
)


class TestSseSplit:
    @given(case=cases)
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force(self, case):
        y, _, data = mixed_data(case["seed"], case["n"], case["kinds"])
        cand = tr.sse_split(y, data, np.arange(data.n), tr.sse_fit(y), case["min_leaf"])
        expected = brute_force_sse_split(y, data, case["min_leaf"])
        if expected is None:
            assert cand is None
            return
        rule, gain, left, right = expected
        assert cand.rule == rule
        assert np.array_equal(cand.left_rows, left) and np.array_equal(cand.right_rows, right)
        assert cand.gain == gain

    @pytest.mark.parametrize("later_first", [False, True])
    def test_equal_partitions_tie_to_the_first_feature(self, later_first, monkeypatch):
        # a categorical copy of a binary numeric covariate offers the same
        # partition twice, summed in different orders by the prefix sums;
        # the first feature wins, also when valid but reversed bounds
        # refit the later cut first
        if later_first:
            refit = tr._refit_best
            monkeypatch.setattr(tr, "_refit_best", lambda data, idx, features, bound, *rest: refit(
                data, idx, features, 1e9 + np.arange(len(bound), dtype=float), *rest))
        rng = np.random.default_rng(3)
        x = (rng.random(200) < 0.5).astype(float)
        y = x + rng.normal(size=200)
        for cat_first in (False, True):
            cols = [numeric_column("x", x), categorical_column("g", ["ab"[int(z)] for z in x])]
            data = Dataset(np.column_stack([y, y]), tuple(cols[::-1] if cat_first else cols))
            cand = tr.sse_split(y, data, np.arange(200), tr.sse_fit(y), 10)
            assert cand.rule.feature == 0
            assert cand.rule == brute_force_sse_split(y, data, 10)[0]


class TestSseBound:
    @given(seed=st.integers(0, 2**31), n=st.integers(40, 240), kinds=st.sampled_from([("num",), ("cat",), ("num", "cat")]),
           min_leaf=st.integers(1, 25), scale=st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8]),
           shift=st.sampled_from([0.0, 1.0, -1e4, 1e8, -1e8]))
    @settings(max_examples=150, deadline=None)
    def test_every_bound_covers_its_refit(self, seed, n, kinds, min_leaf, scale, shift):
        """Every cut's bound that sse_split hands to _refit_best, at every node
        of a grown tree, is at least the gain of its exact refit: on numeric
        features with heavy ties, categorical ones with 3 to 6 levels, and
        responses scaled by 1e-8 to 1e8 and shifted by up to 1e8."""
        rng = np.random.default_rng(seed)
        covs = [numeric_column("x", rng.integers(0, int(rng.integers(2, 20)), n) / 2.0) if kind == "num"
                else categorical_column("g", [f"l{c}" for c in rng.integers(0, int(rng.integers(3, 7)), n)])
                for kind in kinds]
        signal = sum(rng.normal() * (c.values > rng.integers(0, 3)) for c in covs)
        y = shift + scale * np.round(signal + rng.normal(size=n), int(rng.integers(0, 3)))
        data, calls, refit = Dataset(np.column_stack([y, y]), tuple(covs)), [], tr._refit_best
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr, "_refit_best", lambda *args: calls.append(args) or refit(*args))
            grow_sse(y, data, min_leaf)
        for _, idx, features, bound, fit, gain_of, *_ in calls:
            for k in range(len(bound)):
                left, right = tr._cut_rows(data, idx, tr._rule(features, k))
                assert bound[k] >= gain_of(fit(left), fit(right))


def assert_strictly_nested(root, path):
    """K falls by at least one per step down to 1.  Every step's leaf ids
    cover each maximal leaf exactly once, and each step is the previous one
    with one subtree's leaves replaced by its root.  The pruned copy of a
    step has exactly its leaves, and the maximal tree's ids and rules."""
    ks = [k for _, k, _ in path]
    assert ks[-1] == 1 and all(a > b for a, b in zip(ks, ks[1:]))
    nodes, below = {nd.id: nd for nd in tr.walk(root)}, pr.leaves_below(root)
    maximal_leaves = sorted(i for i, nd in nodes.items() if nd.is_leaf)
    for ids, k, _ in path:
        assert len(ids) == k and sorted(j for i in ids for j in below[i]) == maximal_leaves
        copy = pr._copy_pruned(root, ids)
        assert {nd.id for nd in tr.walk(copy) if nd.is_leaf} == ids
        for nd in tr.walk(copy):
            if not nd.is_leaf:
                assert nd.rule == nodes[nd.id].rule
                assert (nd.left.id, nd.right.id) == (nodes[nd.id].left.id, nodes[nd.id].right.id)
    for (big, _, _), (small, _, _) in zip(path, path[1:]):
        [nid] = small - big
        assert big - small == set(pr.leaves_below(root, big)[nid])


class TestPrunePathNesting:
    @given(case=cases)
    @settings(max_examples=60, deadline=None)
    def test_least_squares_paths(self, case):
        y, _, data = mixed_data(case["seed"], case["n"], case["kinds"])
        root = grow_sse(y, data, case["min_leaf"])
        assert_strictly_nested(root, pr.weakest_link_path(root))

    @given(case=cases)
    @settings(max_examples=15, deadline=None)
    def test_copula_paths(self, case):
        _, pseudo, data = mixed_data(case["seed"], case["n"], case["kinds"])
        stopping = tr.StoppingConfig(min_leaf=max(case["min_leaf"], 10), max_candidates=6)
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, stopping)
        path = pr.weakest_link_path(tree.root)
        assert_strictly_nested(tree.root, path)
        entries = pr.prune_path(tree).entries
        assert [(e.k, e.train_loglik) for e in entries] == [(k, ll) for _, k, ll in path]
        assert [{nd.id for nd in e.tree.leaves()} for e in entries] == [ids for ids, _, _ in path]


class TestRouter:
    @given(case=cases, probe_seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_a_per_row_walk(self, case, probe_seed):
        y, _, data = mixed_data(case["seed"], case["n"], case["kinds"])
        root = grow_sse(y, data, case["min_leaf"])
        # probes: every threshold itself, values just either side of it,
        # random values, and level codes including the unseen code -1
        rng = np.random.default_rng(probe_seed)
        m = 200
        columns = []
        for j, col in enumerate(data.covariates):
            if col.kind == "num":
                cuts = [nd.rule.threshold for nd in tr.walk(root) if not nd.is_leaf and nd.rule.feature == j]
                edges = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf)])
                pool = np.concatenate([edges, rng.random(m)])
            else:
                pool = np.arange(-1, len(col.levels))
            columns.append(rng.choice(pool, m))
        leaf = tr.route(root, columns, m)
        for r in range(m):
            assert leaf[r] == reference_leaf(root, [c[r] for c in columns])

    @given(case=cases)
    @settings(max_examples=10, deadline=None)
    def test_predict_survives_a_serialize_round_trip(self, case):
        _, pseudo, data = mixed_data(case["seed"], case["n"], case["kinds"])
        stopping = tr.StoppingConfig(min_leaf=max(case["min_leaf"], 10), max_candidates=6)
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, stopping)
        back = tree_from_doc(tree_to_doc(tree))
        for a, b in zip(tree.predict(data), back.predict(data)):
            assert np.array_equal(a, b)
