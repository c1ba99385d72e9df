"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The scenario study shared by criteria 6, 7 and 12 runs
once per session (expect several minutes; it parallelises over the
available cores).

Criterion 2 integrates each density with the graded composite
Gauss-Legendre rule of ``conftest.graded_gauss_legendre`` (480 nodes per
axis).  At tau = 0.8 the Clayton and Gumbel densities have a diagonal
ridge whose width shrinks towards the corners; a plain 64-point tensor
rule cannot resolve it (its own error on the exact Clayton density is
9.96e-3, over the 5e-3 bound), whereas the graded rule's worst error over
the nine cells is 2.1e-7.  The bound therefore tests the density, not the
rule.

Criterion 7 is red and kept as stated.  The conditional model's median
tau-MSE on U reads 0.0050 (step), 0.0029 (steep), 0.0049 (gentle), so
step <= steep fails; steep <= gentle holds.  Both measured causes lie in
the program, not in the test.  The sigmoid surfaces as implemented are
clamped into the Clayton tau domain on about 26% of rows and carry about
a third of the step cell's tau variance.  And the study's
``max_candidates=16`` split grid places the step cell's thresholds
coarsely: leaves given their true mean tau on the fitted partition
already score 0.0036.  The failure persists at equal amplitude (sigmoid
signs flipped: 0.0030, 0.0034), while exhaustive search brings the step
cell to 0.0017 on 6 replications (sigmoid cells not rerun that way).
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from copulatree import copulas as cp
from copulatree import compositional as comp
from copulatree import pruning as pr
from copulatree import simulation as sim
from copulatree import tree as tr
from copulatree.cli import main
from copulatree.data import Dataset, PseudoObservations, numeric_column
from copulatree.fludata import write_flu_fixture_csv

CLAYTON = cp.spec_for("clayton")
FRANK = cp.spec_for("frank")
GUMBEL = cp.spec_for("gumbel")

N_JOBS = min(2, os.cpu_count() or 1)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print("\n" + line)
    return line


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def step_study():
    config = sim.PipelineConfig()  # U, V, W; MaxMean 3x5; capped split grid
    t0 = time.time()
    records = sim.run_study(
        [("clayton", "step")], n_reps=50, n=1000, base_seed=20240, config=config, n_jobs=N_JOBS
    )
    return records, time.time() - t0


@pytest.fixture(scope="module")
def sigmoid_study():
    config = sim.PipelineConfig(sources=("U",))
    t0 = time.time()
    records = sim.run_study(
        [("clayton", "steep_sigmoid"), ("clayton", "gentle_sigmoid")],
        n_reps=50, n=1000, base_seed=20241, config=config, n_jobs=N_JOBS,
    )
    return records, time.time() - t0


@pytest.fixture(scope="module")
def flu_runs(tmp_path_factory):
    """20 seeded end-to-end flu pipelines plus a byte-determinism check."""
    base = tmp_path_factory.mktemp("flu_acc")
    t0 = time.time()
    season_hits = 0
    loglik_pairs = []
    for seed in range(20):
        csv_path = base / f"weekly_{seed}.csv"
        write_flu_fixture_csv(csv_path, seed=9000 + seed)
        out = base / f"out_{seed}"
        rc = main(["flu", "--input", str(csv_path), "--seed", str(seed),
                   "--repeats", "10", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "tree.json").read_text())
        names = [c["name"] for c in doc["covariates"]]
        feats = {names[e["rule"]["feature"]] for e in doc["nodes"] if "rule" in e}
        if "season" in feats:
            season_hits += 1
        path_rows = (out / "prune_path.tsv").read_text().splitlines()[2:]
        lls = {int(r.split("\t")[0]): float(r.split("\t")[1]) for r in path_rows}
        loglik_pairs.append((max(lls.values()), lls[1]))

    deterministic = True
    for seed in (0, 7):
        out2 = base / f"redo_{seed}"
        rc = main(["flu", "--input", str(base / f"weekly_{seed}.csv"), "--seed", str(seed),
                   "--repeats", "10", "--out", str(out2)])
        assert rc == 0
        for name in os.listdir(out2):
            if (base / f"out_{seed}" / name).read_bytes() != (out2 / name).read_bytes():
                deterministic = False
    return season_hits, loglik_pairs, deterministic, time.time() - t0


# ---------------------------------------------------------------------------
# criteria


def test_acceptance_01_tau_theta_bijection():
    t0 = time.time()
    worst = 0.0
    for spec in (CLAYTON, FRANK, GUMBEL):
        if spec is FRANK:
            grid = np.concatenate([np.linspace(-0.9, -0.05, 10), np.linspace(0.05, 0.9, 10)])
        else:
            grid = np.linspace(0.05, 0.9, 20)
        for tau in grid:
            err = abs(tau - cp.theta_to_tau(spec, cp.tau_to_theta(spec, float(tau))))
            worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    line = report(1, "tau-theta bijection", ok, f"(max err {worst:.2e}, {elapsed:.2f}s)")
    assert ok, line


def test_acceptance_02_density_normalization(unit_square_integral):
    t0 = time.time()
    cells = []
    for spec in (CLAYTON, FRANK, GUMBEL):
        for tau in (0.1, 0.5, 0.8):
            total = unit_square_integral(spec, cp.tau_to_theta(spec, tau))
            cells.append((spec.family.value, tau, abs(total - 1.0)))
    elapsed = time.time() - t0
    bad = [(f, t, e) for f, t, e in cells if e > 5e-3]
    ok = not bad and elapsed < 5.0
    detail = f"({len(cells) - len(bad)}/9 cells within 5e-3, {elapsed:.2f}s"
    if bad:
        detail += "; over tolerance: " + ", ".join(f"{f} tau={t} err={e:.2e}" for f, t, e in bad)
    detail += ")"
    line = report(2, "density normalization", ok, detail)
    assert ok, line


def test_acceptance_03_mle_recovery():
    t0 = time.time()
    theta0 = cp.tau_to_theta(CLAYTON, 0.5)
    errs = []
    for seed in range(20):
        uv = cp.sample(CLAYTON, theta0, 2000, seed=11000 + seed)
        errs.append(abs(cp.fit_mle(CLAYTON, uv).tau_hat - 0.5))
    elapsed = time.time() - t0
    med, worst = float(np.median(errs)), float(np.max(errs))
    ok = med < 0.02 and worst < 0.05 and elapsed < 10.0
    line = report(3, "MLE recovery", ok, f"(median {med:.4f}, max {worst:.4f}, {elapsed:.1f}s)")
    assert ok, line


def test_acceptance_04_split_search_oracle():
    t0 = time.time()
    matches = 0
    for case in range(100):
        rng = np.random.default_rng(12000 + case)
        n = int(rng.integers(120, 400))
        m = int(rng.integers(2, 13))
        min_leaf = int(rng.choice([10, 20, 30]))
        levels = np.sort(rng.random(m))
        x = rng.choice(levels, size=n)
        cut = levels[m // 2]
        tau = np.where(x <= cut, rng.uniform(0.1, 0.4), rng.uniform(0.45, 0.8))
        theta = 2 * tau / (1 - tau)
        u = np.clip(rng.random(n), 1e-9, 1 - 1e-9)
        v = cp.conditional_quantile(CLAYTON, theta, u, rng.random(n))
        uv = np.column_stack([u, v])
        pseudo = PseudoObservations(uv, "t")
        data = Dataset(np.zeros((n, 2)), (numeric_column("x", x),))
        stopping = tr.StoppingConfig(min_leaf=min_leaf)
        cand = tr.find_optimal_split(CLAYTON, pseudo, data, stopping)

        parent = cp.fit_mle(CLAYTON, uv)
        best = None
        xs = np.unique(x)
        for s in 0.5 * (xs[:-1] + xs[1:]):
            mask = x <= s
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            gain = (
                cp.fit_mle(CLAYTON, uv[mask]).loglik
                + cp.fit_mle(CLAYTON, uv[~mask]).loglik
                - parent.loglik
            )
            if best is None or gain > best[0]:
                best = (gain, float(s))
        if best is None or best[0] <= 0.0:
            matches += cand is None
        else:
            matches += (
                cand is not None
                and cand.rule.threshold == best[1]
                and cand.gain == best[0]
            )
    elapsed = time.time() - t0
    ok = matches == 100 and elapsed < 30.0
    line = report(4, "split-search oracle", ok, f"({matches}/100 identical, {elapsed:.1f}s)")
    assert ok, line


def test_acceptance_05_prune_path_oracle():
    t0 = time.time()
    exact = 0
    for case in range(50):
        rng = np.random.default_rng(13000 + case)
        n = int(rng.integers(400, 800))
        taus = rng.uniform(0.1, 0.85, size=4)
        ds_seed = 13500 + case
        x = rng.random((n, 2))
        tau = np.where(
            x[:, 0] < 0.5,
            np.where(x[:, 1] < 0.5, taus[0], taus[1]),
            np.where(x[:, 1] < 0.5, taus[2], taus[3]),
        )
        theta = 2 * tau / (1 - tau)
        u = np.clip(np.random.default_rng(ds_seed).random(n), 1e-9, 1 - 1e-9)
        v = cp.conditional_quantile(CLAYTON, theta, u, np.random.default_rng(ds_seed + 1).random(n))
        pseudo = PseudoObservations(np.column_stack([u, v]), "t")
        data = Dataset(np.zeros((n, 2)), (numeric_column("x1", x[:, 0]), numeric_column("x2", x[:, 1])))
        stopping = tr.StoppingConfig(
            min_leaf=int(rng.choice([50, 60, 80])), max_leaves=int(rng.integers(4, 10)),
            max_candidates=10,
        )
        tree = tr.build_maximal_tree(CLAYTON, pseudo, data, stopping)
        path = pr.prune_path(tree)

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
        if all(entry.train_loglik == best[entry.k] for entry in path.entries):
            exact += 1
    elapsed = time.time() - t0
    ok = exact == 50 and elapsed < 60.0
    line = report(5, "prune-path oracle", ok, f"({exact}/50 exact, {elapsed:.1f}s)")
    assert ok, line


def _pick(records, surface, source, model):
    return [r for r in records if r.surface == surface and r.source == source and r.model == model]


def test_acceptance_06_step_scenario_recovery(step_study):
    records, elapsed = step_study
    cond = _pick(records, "step", "U", "conditional")
    bench = _pick(records, "step", "U", "benchmark")
    paired = list(zip(sorted(cond, key=lambda r: r.rep), sorted(bench, key=lambda r: r.rep)))
    wins = sum(c.mse_tau < b.mse_tau for c, b in paired)
    splits = [c.n_splits for c in cond]
    mode = max(set(splits), key=splits.count)
    rates = {}
    for src in ("V", "W"):
        c2 = _pick(records, "step", src, "conditional")
        b2 = _pick(records, "step", src, "benchmark")
        rates[src] = sum(
            c.mse_tau < b.mse_tau
            for c, b in zip(sorted(c2, key=lambda r: r.rep), sorted(b2, key=lambda r: r.rep))
        )
    ok = wins >= 48 and mode in (3, 4, 5) and elapsed < 600.0
    line = report(
        6, "step-scenario recovery", ok,
        f"(U wins {wins}/50, V {rates['V']}/50, W {rates['W']}/50, "
        f"n_splits mode {mode}, {elapsed:.0f}s)",
    )
    assert ok, line


def test_acceptance_07_degradation_ordering(step_study, sigmoid_study):
    step_records, t_step = step_study
    sig_records, t_sig = sigmoid_study
    med = {}
    for surface, records in (
        ("step", step_records), ("steep_sigmoid", sig_records), ("gentle_sigmoid", sig_records)
    ):
        vals = [r.mse_tau for r in _pick(records, surface, "U", "conditional")]
        med[surface] = float(np.median(vals))
    elapsed = t_step + t_sig
    ok = med["step"] <= med["steep_sigmoid"] <= med["gentle_sigmoid"] and elapsed < 1800.0
    line = report(
        7, "degradation ordering", ok,
        f"(medians {med['step']:.4f} <= {med['steep_sigmoid']:.4f} <= "
        f"{med['gentle_sigmoid']:.4f}; steep<=gentle holds: "
        f"{med['steep_sigmoid'] <= med['gentle_sigmoid']}, {elapsed:.0f}s)",
    )
    assert ok, line


def test_acceptance_08_cv_null_behaviour():
    t0 = time.time()
    picks = []
    for seed in range(20):
        ss_uv, ss_x = np.random.SeedSequence(31000 + seed).spawn(2)
        rng = np.random.default_rng(ss_x)
        uv = cp.sample(CLAYTON, cp.tau_to_theta(CLAYTON, 0.45), 600, ss_uv)
        data = Dataset(
            np.zeros((600, 2)),
            (numeric_column("x1", rng.random(600)), numeric_column("x2", rng.random(600))),
        )
        rep = pr.cross_validate(
            CLAYTON, PseudoObservations(uv, "t"), data, folds=3, repeats=10,
            seed=seed, rule="OneSE", stopping=tr.StoppingConfig(min_leaf=50, max_candidates=8),
        )
        picks.append(rep.chosen_k)
    elapsed = time.time() - t0
    rate = picks.count(1)
    ok = rate >= 18 and elapsed < 300.0
    line = report(8, "CV null behaviour", ok, f"(K=1 in {rate}/20 seeds, {elapsed:.0f}s)")
    assert ok, line


def test_acceptance_09_oracle_selection_trend():
    t0 = time.time()
    kmax = 32
    c = 0.06  # fixed so lambda_n straddles the true per-leaf gains at n=500
    stopping = tr.StoppingConfig(min_leaf=50, max_candidates=16)
    freqs = []
    for n in (500, 1000, 2000):
        lam = c * math.sqrt(kmax * math.log(kmax) / n)
        hits = 0
        for seed in range(20):
            ds = sim.generate(sim.ScenarioSpec("clayton", "step", n, 7000 + 13 * seed + n))
            data = Dataset(
                np.zeros((n, 2)),
                (numeric_column("x1", ds.x[:, 0]), numeric_column("x2", ds.x[:, 1])),
            )
            tree = tr.build_maximal_tree(CLAYTON, PseudoObservations(ds.u, "t"), data, stopping)
            path = pr.prune_path(tree)
            if pr.select_penalized(path, lam).k >= 4:
                hits += 1
        freqs.append(hits / 20)
    elapsed = time.time() - t0
    ok = freqs[0] <= freqs[1] <= freqs[2] and elapsed < 900.0
    line = report(9, "oracle-selection trend", ok, f"(freq K>=4: {freqs}, {elapsed:.0f}s)")
    assert ok, line


def test_acceptance_10_ilr():
    t0 = time.time()
    pt = comp.ilr_forward(comp.Composition3(1 / 3, 1 / 3, 1 / 3))
    center_ok = abs(pt.y1) <= 1e-15 and abs(pt.y2) <= 1e-15
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        raw = rng.dirichlet([1.0, 1.0, 1.0])
        raw = np.clip(raw, 1e-9, None)
        raw /= raw.sum()
        c = comp.Composition3(*raw)
        back = comp.ilr_inverse(comp.ilr_forward(c))
        worst = max(worst, abs(back.p1 - c.p1), abs(back.p2 - c.p2), abs(back.p3 - c.p3))
    elapsed = time.time() - t0
    ok = center_ok and worst <= 1e-12
    line = report(10, "ILR transform", ok, f"(max roundtrip err {worst:.2e}, {elapsed:.2f}s)")
    assert ok, line


def test_acceptance_11_flu_pipeline(flu_runs):
    season_hits, _, deterministic, elapsed = flu_runs
    ok = season_hits >= 16 and deterministic and elapsed < 180.0
    line = report(
        11, "flu pipeline fixture", ok,
        f"(season split {season_hits}/20, byte-determinism {deterministic}, {elapsed:.0f}s)",
    )
    assert ok, line


def test_acceptance_12_nestedness(step_study, sigmoid_study, flu_runs):
    records = step_study[0] + sigmoid_study[0]
    violations = 0
    keys = {(r.surface, r.rep, r.source) for r in records}
    for surface, rep, source in keys:
        sub = [r for r in records if (r.surface, r.rep, r.source) == (surface, rep, source)]
        cond = next(r for r in sub if r.model == "conditional")
        bench = next(r for r in sub if r.model == "benchmark")
        if cond.loglik < bench.loglik:
            violations += 1
    for best_ll, root_ll in flu_runs[1]:
        if best_ll < root_ll:
            violations += 1
    checked = len(keys) + len(flu_runs[1])
    ok = violations == 0
    line = report(12, "nestedness invariant", ok, f"({checked} fits, {violations} violations)")
    assert ok, line


def test_study_source_comparability(step_study):
    """U/V/W conditional fits agree far more than conditional vs benchmark."""
    records, _ = step_study
    ll = {
        src: np.array([r.loglik for r in sorted(_pick(records, "step", src, "conditional"), key=lambda r: r.rep)])
        for src in ("U", "V", "W")
    }
    bench = np.array([r.loglik for r in sorted(_pick(records, "step", "U", "benchmark"), key=lambda r: r.rep)])
    gap_model = float(np.median(ll["U"] - bench))
    for src in ("V", "W"):
        gap_src = abs(float(np.median(ll["U"] - ll[src])))
        assert gap_src < 0.5 * gap_model, (src, gap_src, gap_model)
