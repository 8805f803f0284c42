"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criteria that require the externally published datasets are
skipped unless the corresponding environment variables point at the files:

* CLICKGRAPH_SAMPLE_FILE  - the released ~1M-row link feature sample
* CLICKGRAPH_TABLE3_FILE  - a pagerank_eval.tsv produced from the full dumps
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from clickgraph import attention as A
from clickgraph import evidence as E
from clickgraph import graph as G
from clickgraph import hurdle as H
from clickgraph import ingest
from clickgraph import ranking as R
from clickgraph.cli import main

from conftest import write_toy_inputs
from helpers import (
    dense_pagerank_oracle,
    discrete_power_law_sample,
    multinomial_log,
    planted_core_graph,
    polya_evidence_oracle,
    random_graph,
)

SAMPLE_FILE = os.environ.get("CLICKGRAPH_SAMPLE_FILE")
TABLE3_FILE = os.environ.get("CLICKGRAPH_TABLE3_FILE")


def test_criterion_1_evidence_kernel_matches_polya_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n_states = int(rng.integers(2, 5))
        edges = [(0, j + 1) for j in range(n_states)]
        extra_row = rng.random() < 0.5
        if extra_row:
            edges += [(1, 0), (1, 2)]
        g = G.build_graph(edges, n_nodes=n_states + 1)
        alpha = rng.uniform(0.05, 8.0, size=g.n_edges)
        budget = int(rng.integers(0, 11))
        counts = rng.multinomial(budget, np.full(g.n_edges, 1.0 / g.n_edges)).astype(float)
        got = E.log_evidence(g, alpha, counts)
        rows = [alpha[:n_states]] + ([alpha[n_states:]] if extra_row else [])
        cnts = [counts[:n_states]] + ([counts[n_states:]] if extra_row else [])
        expected = polya_evidence_oracle(rows, cnts)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: PASS - 1000 tiny instances within 1e-9 of the sequential "
          f"predictive oracle (worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_weighted_pagerank_reductions():
    rng = np.random.default_rng(1002)
    worst_reduction = 0.0
    for seed in range(100):
        n = int(rng.integers(5, 201))
        g = random_graph(n, min(3.0 / max(n - 1, 1), 1.0) + 0.02, seed=2000 + seed)
        classic = G.pagerank(g, alpha=0.85).values
        weighted = R.weighted_pagerank(g, E.structural_hypothesis(g), alpha=0.85).values
        worst_reduction = max(worst_reduction, float(np.abs(classic - weighted).max()))
    assert worst_reduction <= 1e-10

    worst_solve = 0.0
    for seed in range(10):
        n = int(rng.integers(5, 51))
        g = random_graph(n, 0.15, seed=3000 + seed)
        w = rng.uniform(0.05, 4.0, size=g.n_edges)
        pr = R.weighted_pagerank(g, E.HypothesisMatrix("w", g, w), alpha=0.85).values
        oracle = dense_pagerank_oracle(g, 0.85, edge_weights=w)
        worst_solve = max(worst_solve, float(np.abs(pr - oracle).max()))
    assert worst_solve <= 1e-8

    g = random_graph(80, 0.08, seed=4000)
    w = rng.uniform(0.1, 2.0, size=g.n_edges)
    base = R.weighted_pagerank(g, E.HypothesisMatrix("w", g, w)).values
    row_scale = rng.uniform(0.01, 100.0, size=g.n_nodes)
    scaled = R.weighted_pagerank(
        g, E.HypothesisMatrix("w2", g, w * row_scale[g.edge_sources])
    ).values
    worst_scale = float(np.abs(base - scaled).max())
    assert worst_scale <= 1e-12
    print(f"criterion 2: PASS - all-ones reduction {worst_reduction:.2e} (<=1e-10), "
          f"dense solve {worst_solve:.2e} (<=1e-8), row scaling {worst_scale:.2e} (<=1e-12)")


def _synthetic_500(seed=20240801):
    g = planted_core_graph(seed=seed, n=500, core=60)
    cores = G.kcore(g)
    return g, cores


def test_criterion_3_hypothesis_ranking_recovery():
    t0 = time.perf_counter()
    g, cores = _synthetic_500()
    trg_core = np.maximum(cores.values[g.out_indices], 1.0)
    baseline = E.structural_hypothesis(g)
    kh = E.kcore_hypothesis(g, cores)
    grid = E.default_kappa_grid(g)

    favoring = multinomial_log(g, 1.0 / np.sqrt(trg_core), trips_per_source=1000, seed=11)
    above = E.bayes_factor_curve([kh], baseline, favoring, grid)[0]
    assert (above.log_bayes_factor > 0).all(), above.log_bayes_factor

    inverted = multinomial_log(g, np.sqrt(trg_core), trips_per_source=1000, seed=12)
    below = E.bayes_factor_curve([kh], baseline, inverted, grid)[0]
    assert (below.log_bayes_factor < 0).all(), below.log_bayes_factor

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3: PASS - kcore evidence above structural at every kappa for "
          f"1/sqrt(kcore) traffic (min logBF {above.log_bayes_factor.min():.1f}) and below "
          f"for inverted traffic (max logBF {below.log_bayes_factor.max():.1f}); {elapsed:.1f}s")


def test_criterion_4_rank_evaluation_recovers_generating_weights():
    g, cores = _synthetic_500()
    rng = np.random.default_rng(13)
    regions = np.asarray(
        rng.choice(
            ["lead", "body", "left-body", "right-body", "infobox", "navbox"],
            p=[0.08, 0.35, 0.07, 0.25, 0.05, 0.20],
            size=g.n_edges,
        ),
        dtype=object,
    )
    kh = E.kcore_hypothesis(g, cores)
    vh = E.visual_hypothesis(g, regions)
    combo = E.combine([kh, vh])
    log = multinomial_log(g, combo.values, trips_per_source=1000, seed=14)

    evals = R.evaluate_all(g, [kh, vh, combo], log, alphas=(0.80, 0.85, 0.90))
    lines = []
    for alpha in (0.80, 0.85, 0.90):
        rows = {r.hypothesis: r for r in evals if r.alpha == alpha}
        best = rows["kcore+visual"]
        assert best.rho > rows["baseline"].rho
        assert best.steiger_p < 0.01
        lines.append(f"alpha={alpha}: rho {best.rho:.3f} vs {rows['baseline'].rho:.3f}, "
                     f"p={best.steiger_p:.1e}")
    print("criterion 4: PASS - kcore+visual beats baseline with Steiger p<0.01 at "
          + "; ".join(lines))


@pytest.mark.skipif(TABLE3_FILE is None, reason="full-dump evaluation file not supplied")
def test_criterion_4_full_data_spearman_values():
    expected = {
        ("baseline", 0.80): 0.421, ("baseline", 0.85): 0.428, ("baseline", 0.90): 0.436,
        ("kcore+visual", 0.80): 0.530, ("kcore+visual", 0.85): 0.538, ("kcore+visual", 0.90): 0.545,
    }
    rows = {}
    with open(TABLE3_FILE, encoding="utf-8") as fh:
        header = None
        for line in fh:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            if header is None:
                header = fields
                continue
            rec = dict(zip(header, fields))
            rows[(rec["hypothesis"], round(float(rec["alpha"]), 2))] = float(rec["rho"])
    for key, value in expected.items():
        assert rows[key] == pytest.approx(value, abs=0.01)
    print("criterion 4 (full data): PASS - published correlation table reproduced within 0.01")


def test_criterion_5_regression_stage():
    rng = np.random.default_rng(1005)
    n = 50_000

    x = rng.normal(size=n)
    p = 1.0 / (1.0 + np.exp(-(-1.0 + 0.8 * x)))
    y = (rng.random(n) < p).astype(float)
    logit = H.fit_logistic(H.make_design(x, y, "x", standardize=False))
    assert logit.coef[0] == pytest.approx(-1.0, abs=0.05)
    assert logit.coef[1] == pytest.approx(0.8, abs=0.05)

    x2 = rng.normal(size=n)
    mu = np.exp(1.2 + 0.5 * x2)
    theta_true = 2.0
    y2 = rng.negative_binomial(theta_true, theta_true / (theta_true + mu))
    while (y2 == 0).any():
        idx = y2 == 0
        y2[idx] = rng.negative_binomial(theta_true, theta_true / (theta_true + mu[idx]))
    ztnb = H.fit_ztnb(H.make_design(x2, y2.astype(float), "x", standardize=False))
    assert ztnb.coef[0] == pytest.approx(1.2, abs=0.05)
    assert ztnb.coef[1] == pytest.approx(0.5, abs=0.05)
    assert ztnb.theta == pytest.approx(theta_true, rel=0.10)

    sub = slice(0, 200)
    X = np.column_stack([np.ones(200), x2[sub]])
    ysub = y2[sub].astype(float)
    h = 1e-6
    worst_rel = 0.0
    for _ in range(20):
        params = np.r_[rng.normal(scale=0.5, size=2), rng.normal(scale=0.3)]
        analytic = H.ztnb_loglik(params, X, ysub)[1]
        fd = np.empty_like(params)
        for k in range(len(params)):
            e = np.zeros_like(params)
            e[k] = h
            fd[k] = (H.ztnb_loglik(params + e, X, ysub)[0] - H.ztnb_loglik(params - e, X, ysub)[0]) / (2 * h)
        worst_rel = max(worst_rel, float(
            (np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)).max()
        ))
    assert worst_rel <= 1e-5

    identical = H.lrt(logit, logit)
    assert identical.statistic == 0.0 and identical.p == 1.0

    print(f"criterion 5: PASS - logistic ({logit.coef[0]:+.3f}, {logit.coef[1]:+.3f}) and "
          f"ztnb ({ztnb.coef[0]:+.3f}, {ztnb.coef[1]:+.3f}, theta {ztnb.theta:.2f}) recovered; "
          f"gradient vs FD {worst_rel:.1e}; identical-fit LRT (0, 1)")


@pytest.mark.skipif(SAMPLE_FILE is None, reason="published sample file not supplied")
def test_criterion_5_published_sample_directions():
    with open(SAMPLE_FILE, encoding="utf-8") as fh:
        head = fh.readline()
        delimiter = "," if head.count(",") > head.count("\t") else "\t"
    with open(SAMPLE_FILE, encoding="utf-8") as fh:
        table, _report = ingest.load_feature_table(fh, None, None, delimiter=delimiter)
    split = H.split_hurdle(table, threshold=10)
    for feature, expected_sign in (("trg_degree", -1.0), ("text_sim", 1.0)):
        design = H.make_design(
            np.asarray(table.data[feature], dtype=float), split.binary_y, feature, True
        )
        fit = H.fit_logistic(design)
        assert math.copysign(1.0, fit.coef[1]) == expected_sign, feature
    print("criterion 5 (published sample): PASS - trg_degree negative, text_sim positive")


def test_criterion_6_attention_statistics():
    t0 = time.perf_counter()
    assert A.gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)
    assert A.gini([0, 0, 0, 10]) == pytest.approx(0.75, abs=1e-12)
    rng = np.random.default_rng(1006)
    for _ in range(25):
        x = rng.integers(0, 1000, size=rng.integers(2, 50)).astype(float)
        if x.sum() == 0:
            continue
        c = float(rng.uniform(0.001, 1000.0))
        assert abs(A.gini(x) - A.gini(c * x)) <= 1e-12

    geo = np.random.default_rng(7).geometric(0.2, size=100_000)
    geo_report = A.fit_distributions(geo, xmin=1)
    assert geo_report.winner == "exponential"

    pl = discrete_power_law_sample(2.5, 100_000, seed=99)
    pl_report = A.fit_distributions(pl, xmin=1)
    assert pl_report.winner in ("power_law", "truncated_power_law")
    alpha_hat = pl_report.fits[pl_report.winner].params["alpha"]
    assert alpha_hat == pytest.approx(2.5, abs=0.1)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 6: PASS - Gini endpoints and scale invariance at 1e-12; geometric -> "
          f"exponential, power law -> {pl_report.winner} (alpha {alpha_hat:.3f}); {elapsed:.1f}s")


@pytest.mark.skipif(SAMPLE_FILE is None, reason="published sample file not supplied")
def test_criterion_7_published_sample_reproduces_overall_row():
    with open(SAMPLE_FILE, encoding="utf-8") as fh:
        head = fh.readline()
        delimiter = "," if head.count(",") > head.count("\t") else "\t"
    with open(SAMPLE_FILE, encoding="utf-8") as fh:
        table, _report = ingest.load_feature_table(fh, None, None, delimiter=delimiter)
    links, transitions = len(table), int(round(float(table.data["transitions"].sum())))
    mean = transitions / links
    assert links == 1_028_704
    assert transitions == 6_686_581
    assert mean == pytest.approx(6.5, abs=0.01)
    print(f"criterion 7: PASS - {links} links, {transitions} transitions, mean {mean:.4f}")


def test_criterion_8_end_to_end_fixture_byte_stable(tmp_path):
    inputs = write_toy_inputs(str(tmp_path))

    def run(out: str) -> None:
        args = ["--out", out, "--threshold", "10"]
        assert main(["build", "--edges", inputs["edges"],
                     "--clickstream", inputs["clickstream"], *args]) == 0
        assert main(["features", "--corpus", inputs["corpus"],
                     "--categories", inputs["categories"], "--visual", inputs["visual"],
                     "--projection-dim", "64", *args]) == 0
        for cmd in ("attention", "hurdle", "hyptrails", "pagerank"):
            assert main([cmd, *args]) == 0

    t0 = time.perf_counter()
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run(out_a)
    run(out_b)
    elapsed = time.perf_counter() - t0

    files = sorted(os.listdir(out_a))
    assert files == sorted(os.listdir(out_b))
    for fname in files:
        assert filecmp.cmp(os.path.join(out_a, fname), os.path.join(out_b, fname),
                           shallow=False), f"{fname} differs"
    assert elapsed < 5.0
    print(f"criterion 8: PASS - {len(files)} artifacts byte-identical across runs "
          f"({elapsed:.1f}s for both pipelines)")
