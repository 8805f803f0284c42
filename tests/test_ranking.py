"""Weighted PageRank, rank correlations, and the evaluation grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from clickgraph import evidence as E
from clickgraph import graph as G
from clickgraph import ranking as R
from clickgraph.errors import (
    AlignmentError,
    DegenerateInputError,
    PreconditionError,
)
from clickgraph.ingest import TransitionLog

from helpers import (
    brute_force_spearman_rho,
    dense_pagerank_oracle,
    multinomial_log,
    planted_core_graph,
    random_graph,
    steiger_oracle,
)


class TestWeightedPagerank:
    def test_all_ones_equals_classic(self):
        for seed in range(10):
            g = random_graph(60, 0.08, seed=seed)
            classic = G.pagerank(g, alpha=0.85).values
            weighted = R.weighted_pagerank(g, E.structural_hypothesis(g), alpha=0.85).values
            assert np.array_equal(classic, weighted)  # 1/outdeg == 1/row_sum bit for bit

    def test_single_node(self):
        g = G.build_graph([], n_nodes=1)
        h = E.structural_hypothesis(g)
        for alpha in (0.5, 0.85, 0.99):
            np.testing.assert_allclose(R.weighted_pagerank(g, h, alpha=alpha).values, [1.0])

    def test_four_node_toy_matches_dense_solve(self):
        g = G.build_graph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
        w = np.array([3.0, 1.0, 1.0, 1.0, 1.0])  # beliefs (3,1) out of node 0
        h = E.HypothesisMatrix("toy", g, w)
        pr = R.weighted_pagerank(g, h, alpha=0.85).values
        oracle = dense_pagerank_oracle(g, 0.85, edge_weights=w)
        np.testing.assert_allclose(pr, oracle, atol=1e-8)

    def test_random_weights_match_dense_solve(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            g = random_graph(40, 0.12, seed=50 + seed)
            w = rng.uniform(0.05, 3.0, size=g.n_edges)
            h = E.HypothesisMatrix("w", g, w)
            pr = R.weighted_pagerank(g, h, alpha=0.85).values
            np.testing.assert_allclose(pr, dense_pagerank_oracle(g, 0.85, w), atol=1e-8)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            g = random_graph(80, 0.04, seed=80 + seed)
            h = E.HypothesisMatrix("w", g, rng.uniform(0, 2, size=g.n_edges))
            for alpha in (0.80, 0.85, 0.90):
                total = R.weighted_pagerank(g, h, alpha=alpha).values.sum()
                assert abs(total - 1.0) <= 1e-9

    def test_scale_invariance_per_row_and_global(self):
        rng = np.random.default_rng(4)
        g = random_graph(50, 0.1, seed=90)
        w = rng.uniform(0.1, 2.0, size=g.n_edges)
        base = R.weighted_pagerank(g, E.HypothesisMatrix("w", g, w)).values
        row_scale = rng.uniform(0.01, 100.0, size=g.n_nodes)
        scaled = w * row_scale[g.edge_sources]
        pr_row = R.weighted_pagerank(g, E.HypothesisMatrix("w2", g, scaled)).values
        assert np.abs(base - pr_row).max() <= 1e-12
        pr_glob = R.weighted_pagerank(g, E.HypothesisMatrix("w3", g, w * 42.0)).values
        assert np.abs(base - pr_glob).max() <= 1e-12

    def test_zero_belief_rows_teleport_like_dangling(self):
        g = G.build_graph([(0, 1), (1, 0), (1, 2)], n_nodes=3)
        h = E.HypothesisMatrix("z", g, np.array([1.0, 0.0, 0.0]))  # node 1 all-zero
        pr = R.weighted_pagerank(g, h, alpha=0.85).values
        # dense oracle spreads node 1 (zero row) and node 2 (dangling) uniformly
        oracle = dense_pagerank_oracle(g, 0.85, edge_weights=np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(pr, oracle, atol=1e-9)

    def test_mismatched_graph_rejected(self):
        g = random_graph(10, 0.3, seed=5)
        other = random_graph(11, 0.3, seed=6)
        with pytest.raises(AlignmentError):
            R.weighted_pagerank(g, E.structural_hypothesis(other))

    def test_nonconvergence_carries_diagnostics(self):
        from clickgraph.errors import ConvergenceError

        g = random_graph(40, 0.15, seed=7)
        with pytest.raises(ConvergenceError) as exc:
            R.weighted_pagerank(g, E.structural_hypothesis(g), tol=1e-16, max_iter=2)
        assert exc.value.last is not None and len(exc.value.last) == 40

    def test_damping_monotonicity_on_strongly_connected_toy(self):
        g = G.build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0), (1, 3)])
        h = E.structural_hypothesis(g)
        uniform = np.full(g.n_nodes, 1.0 / g.n_nodes)
        dists = []
        for alpha in (0.80, 0.85, 0.90):
            pr = R.weighted_pagerank(g, h, alpha=alpha).values
            dists.append(np.abs(pr - uniform).sum())
        assert dists[0] <= dists[1] + 1e-12
        assert dists[1] <= dists[2] + 1e-12


class TestIncomingTransitionSums:
    def test_grouped_by_target(self):
        g = G.build_graph([(0, 1), (2, 1), (1, 0)])
        log = TransitionLog.from_pairs([0, 2], [1, 1], [25, 10], graph=g)
        views = R.incoming_transition_sums(log, 3)
        np.testing.assert_array_equal(views, [0.0, 35.0, 0.0])

    def test_random_log_matches_group_by_oracle(self):
        rng = np.random.default_rng(7)
        g = random_graph(30, 0.2, seed=7)
        slots = rng.choice(g.n_edges, size=g.n_edges // 2, replace=False)
        src = g.edge_sources[slots]
        trg = g.out_indices[slots]
        cnt = rng.integers(1, 99, size=len(slots))
        log = TransitionLog.from_pairs(src, trg, cnt, threshold=1, graph=g)
        views = R.incoming_transition_sums(log, g.n_nodes)
        oracle: dict[int, int] = {}
        for t, c in zip(trg, cnt):
            oracle[int(t)] = oracle.get(int(t), 0) + int(c)
        for node in range(g.n_nodes):
            assert views[node] == oracle.get(node, 0)


class TestSpearman:
    def test_identity(self):
        assert R.spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho == pytest.approx(1.0)

    def test_reversal(self):
        assert R.spearman([1, 2, 3, 4], [4, 3, 2, 1]).rho == pytest.approx(-1.0)

    def test_tied_data_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert R.spearman(x, y).rho == pytest.approx(
                brute_force_spearman_rho(x, y), abs=1e-12
            )

    def test_p_value_matches_t_reference(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=40)
        y = x + rng.normal(scale=2.0, size=40)
        ours = R.spearman(x, y)
        rho, n = ours.rho, 40
        t = rho * math.sqrt((n - 2) / (1 - rho * rho))
        expected = 2 * stats.t.sf(abs(t), n - 2)
        assert ours.p == pytest.approx(expected, rel=1e-10)

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            R.spearman([1, 1, 1], [1, 2, 3])

    def test_short_input_rejected(self):
        with pytest.raises(PreconditionError):
            R.spearman([1, 2], [2, 1])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_invariant_under_strictly_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = R.spearman(x, y).rho
        assert R.spearman(np.exp(x), y).rho == pytest.approx(base, abs=1e-12)
        assert R.spearman(x, 3.0 * y + 7.0).rho == pytest.approx(base, abs=1e-12)


class TestSteiger:
    def test_equal_correlations_give_zero(self):
        res = R.steiger_test(0.5, 0.5, 0.3, 1000)
        assert res.z == 0.0
        assert res.p_one_tailed == 0.5

    def test_pinned_reference_value(self):
        # frozen from an independent transcription of the pooled Fisher-z
        # statistic, evaluated before the implementation existed
        res = R.steiger_test(0.53, 0.43, 0.8, 10 ** 5)
        assert res.z == pytest.approx(58.005456565040454, abs=1e-9)
        assert res.p_one_tailed == 0.0
        z, p = steiger_oracle(0.53, 0.43, 0.8, 10 ** 5)
        assert res.z == pytest.approx(z, abs=1e-12)
        assert res.p_one_tailed == p

    def test_unit_correlation_rejected(self):
        with pytest.raises(DegenerateInputError):
            R.steiger_test(1.0, 0.4, 0.3, 100)

    def test_small_n_rejected(self):
        with pytest.raises(PreconditionError):
            R.steiger_test(0.5, 0.4, 0.3, 9)

    def test_null_calibration_approximately_standard_normal(self):
        rng = np.random.default_rng(99)
        n, reps = 150, 1200
        C = np.array([[1.0, 0.4, 0.4], [0.4, 1.0, 0.5], [0.4, 0.5, 1.0]])
        L = np.linalg.cholesky(C)
        zs = []
        for _ in range(reps):
            X = rng.standard_normal((n, 3)) @ L.T
            r12 = np.corrcoef(X[:, 0], X[:, 1])[0, 1]
            r13 = np.corrcoef(X[:, 0], X[:, 2])[0, 1]
            r23 = np.corrcoef(X[:, 1], X[:, 2])[0, 1]
            zs.append(R.steiger_test(r12, r13, r23, n).z)
        ks = stats.kstest(np.asarray(zs), "norm")
        assert ks.pvalue > 1e-3


class TestEvaluateAll:
    @staticmethod
    def _setup(seed=41):
        g = planted_core_graph(seed=seed, n=200, core=30)
        cores = G.kcore(g)
        rng = np.random.default_rng(seed + 1)
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
        log = multinomial_log(g, combo.values, trips_per_source=800, seed=seed + 2)
        return g, [kh, vh, combo], log

    def test_baseline_present_at_every_alpha(self):
        g, hyps, log = self._setup()
        evals = R.evaluate_all(g, hyps, log)
        baselines = [r for r in evals if r.hypothesis == "baseline"]
        assert sorted(r.alpha for r in baselines) == [0.80, 0.85, 0.90]
        for r in baselines:
            assert r.steiger_z is None and r.improved is None

    def test_generating_hypothesis_attains_best_rho(self):
        g, hyps, log = self._setup()
        evals = R.evaluate_all(g, hyps, log)
        for alpha in (0.80, 0.85, 0.90):
            rows = {r.hypothesis: r for r in evals if r.alpha == alpha}
            best = max(rows.values(), key=lambda r: r.rho)
            assert best.hypothesis in ("kcore+visual", "kcore")
            assert rows["kcore+visual"].rho > rows["baseline"].rho
            assert rows["kcore+visual"].improved

    def test_thread_pool_matches_serial(self):
        g, hyps, log = self._setup()
        serial = R.evaluate_all(g, hyps, log, threads=1)
        for threads in (0, 4):
            parallel = R.evaluate_all(g, hyps, log, threads=threads)
            assert [(r.hypothesis, r.alpha) for r in serial] == [
                (r.hypothesis, r.alpha) for r in parallel
            ]
            for a, b in zip(serial, parallel):
                assert a.rho == pytest.approx(b.rho, abs=1e-15)

    def test_restrict_to_viewed_changes_universe(self):
        g, hyps, log = self._setup()
        all_nodes = R.evaluate_all(g, hyps, log)[0]
        viewed = R.evaluate_all(g, hyps, log, restrict_to_viewed=True)[0]
        views = R.incoming_transition_sums(log, g.n_nodes)
        if (views == 0).any():
            assert all_nodes.rho != viewed.rho
