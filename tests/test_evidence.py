"""Hypothesis matrices, Dirichlet prior elicitation, and marginal likelihood."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from clickgraph import evidence as E
from clickgraph import graph as G
from clickgraph.errors import (
    AlignmentError,
    DegenerateInputError,
    ElicitationError,
    SchemaError,
    SupportError,
)
from clickgraph.graph import CentralityVector
from clickgraph.ingest import REGIONS, TransitionLog

from helpers import multinomial_log, planted_core_graph, polya_evidence_oracle, random_graph


def fan_graph():
    # one source with three out-links plus a vee
    return G.build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestStructuralHypothesis:
    def test_all_ones(self):
        g = fan_graph()
        h = E.structural_hypothesis(g)
        np.testing.assert_array_equal(h.values, np.ones(5))

    def test_empty_row_allowed(self):
        g = G.build_graph([(0, 1)], n_nodes=3)
        h = E.structural_hypothesis(g)
        assert len(h.values) == 1

    def test_row_normalized_form_is_uniform(self):
        g = fan_graph()
        alpha = E.elicit_prior(E.structural_hypothesis(g), kappa=3.0)
        np.testing.assert_allclose(alpha[:3], 1.0 + 3.0 / 3.0)


class TestKcoreHypothesis:
    def test_formula_before_smoothing(self):
        g = G.build_graph([(0, 1)])
        cores = CentralityVector(np.array([1, 4]))
        h = E.kcore_hypothesis(g, cores)
        assert h.values[0] - E.SMOOTHING_WEIGHT == pytest.approx(0.5)

    def test_core_one_gives_one(self):
        g = G.build_graph([(0, 1)])
        cores = CentralityVector(np.array([1, 1]))
        assert E.kcore_hypothesis(g, cores).values[0] == 1.0 + E.SMOOTHING_WEIGHT

    def test_core_zero_floored_to_one(self):
        g = G.build_graph([(0, 1)])
        cores = CentralityVector(np.array([0, 0]))
        assert E.kcore_hypothesis(g, cores).values[0] == 1.0 + E.SMOOTHING_WEIGHT

    def test_smoothing_adds_structural(self):
        g = G.build_graph([(0, 1)])
        cores = CentralityVector(np.array([1, 4]))
        assert E.kcore_hypothesis(g, cores).values[0] == pytest.approx(1.5)


class TestTextsimHypothesis:
    def test_zero_similarity_leaves_smoothing_only(self):
        g = G.build_graph([(0, 1)])
        h = E.textsim_hypothesis(g, np.array([0.0]))
        assert h.values[0] == 1.0

    def test_full_similarity(self):
        g = G.build_graph([(0, 1)])
        h = E.textsim_hypothesis(g, np.array([1.0]))
        assert h.values[0] == 2.0

    def test_missing_counts_as_zero(self):
        g = G.build_graph([(0, 1), (0, 2)])
        h = E.textsim_hypothesis(g, np.array([np.nan, 0.7]))
        assert h.values.tolist() == [1.0, 1.7]

    def test_matrix_equals_similarity_plus_ones(self):
        g = random_graph(10, 0.3, seed=0)
        rng = np.random.default_rng(0)
        sims = rng.random(g.n_edges)
        h = E.textsim_hypothesis(g, sims)
        np.testing.assert_allclose(h.values, sims + 1.0, atol=1e-15)

    def test_out_of_range_rejected(self):
        g = G.build_graph([(0, 1)])
        with pytest.raises(ValueError):
            E.textsim_hypothesis(g, np.array([1.5]))


def reference_visual_values(regions):
    """The former per-edge loop: 0/1 values, 0 for a missing (None or NaN) label."""
    values = np.zeros(len(regions))
    for e, label in enumerate(regions):
        if label is None or (isinstance(label, float) and np.isnan(label)):
            continue
        if label in E.PROMOTED_REGIONS:
            values[e] = 1.0
        elif label not in REGIONS:
            raise SchemaError(f"unknown region label {label!r}")
    return values


class TestVisualHypothesis:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(REGIONS + (None, math.nan, "sidebar", "footer")), max_size=30))
    def test_matches_the_per_edge_loop(self, labels):
        g = G.build_graph([(0, i + 1) for i in range(len(labels))], n_nodes=len(labels) + 1)
        regions = np.asarray(labels, dtype=object)
        try:
            values = reference_visual_values(regions)
        except SchemaError as exc:
            with pytest.raises(SchemaError, match=f"^{re.escape(str(exc))}$"):
                E.visual_hypothesis(g, regions)
            return
        h = E.visual_hypothesis(g, regions)
        assert h.values.tobytes() == (values + E.SMOOTHING_WEIGHT).tobytes()

    def test_region_rules(self):
        g = G.build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3)])
        regions = np.asarray(["lead", "navbox", "infobox", "left-body", "right-body",
                              None, np.nan, float("nan")], dtype=object)
        h = E.visual_hypothesis(g, regions)
        promoted = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert h.values.tobytes() == (promoted + E.SMOOTHING_WEIGHT).tobytes()

    def test_unknown_label_is_schema_error(self):
        g = G.build_graph([(0, 1), (0, 2), (0, 3), (1, 2)])
        regions = np.asarray([None, "lead", "sidebar", "footer"], dtype=object)
        with pytest.raises(SchemaError, match="^unknown region label 'sidebar'$"):
            E.visual_hypothesis(g, regions)

    def test_all_body_reduces_to_structural_after_normalization(self):
        g = fan_graph()
        h = E.visual_hypothesis(g, np.asarray(["body"] * 5, dtype=object))
        s = E.structural_hypothesis(g)
        for kappa in (1.0, 5.0):
            np.testing.assert_allclose(
                E.elicit_prior(h, kappa), E.elicit_prior(s, kappa), atol=1e-12
            )

    def test_missing_region_gets_belief_zero(self):
        g = G.build_graph([(0, 1), (0, 2)])
        h = E.visual_hypothesis(g, np.asarray(["lead", None], dtype=object))
        assert h.values.tolist() == [2.0, 1.0]


class TestCombine:
    def test_two_structurals_normalize_back_to_structural(self):
        g = fan_graph()
        s = E.structural_hypothesis(g)
        c = E.combine([s, s])
        for kappa in (2.0, 7.0):
            np.testing.assert_allclose(
                E.elicit_prior(c, kappa), E.elicit_prior(s, kappa), atol=1e-12
            )

    def test_elementwise_sum(self):
        g = random_graph(12, 0.3, seed=1)
        cores = G.kcore(g)
        kh = E.kcore_hypothesis(g, cores)
        rng = np.random.default_rng(1)
        regions = np.asarray(
            rng.choice(["lead", "body", "navbox", "infobox"], size=g.n_edges), dtype=object
        )
        vh = E.visual_hypothesis(g, regions)
        c = E.combine([kh, vh])
        np.testing.assert_allclose(c.values, kh.values + vh.values, atol=1e-15)
        assert c.name == "kcore+visual"

    def test_empty_list_rejected(self):
        with pytest.raises(DegenerateInputError):
            E.combine([])

    def test_mismatched_graphs_rejected(self):
        a = E.structural_hypothesis(fan_graph())
        b = E.structural_hypothesis(G.build_graph([(0, 1)]))
        with pytest.raises(AlignmentError):
            E.combine([a, b])


class TestElicitPrior:
    def test_uniform_two_edge_row(self):
        g = G.build_graph([(0, 1), (0, 2)])
        alpha = E.elicit_prior(E.structural_hypothesis(g), kappa=4.0)
        np.testing.assert_allclose(alpha, [3.0, 3.0])

    def test_weighted_row(self):
        g = G.build_graph([(0, 1), (0, 2)])
        h = E.HypothesisMatrix("w", g, np.array([3.0, 1.0]))
        alpha = E.elicit_prior(h, kappa=8.0)
        np.testing.assert_allclose(alpha, [7.0, 3.0])

    def test_kappa_to_zero_limit_is_uninformed(self):
        g = fan_graph()
        alpha = E.elicit_prior(E.structural_hypothesis(g), kappa=1e-15)
        np.testing.assert_allclose(alpha, 1.0, atol=1e-14)

    def test_zero_sum_row_raises(self):
        g = G.build_graph([(0, 1), (1, 2)])
        h = E.HypothesisMatrix("dead", g, np.array([0.0, 1.0]))
        with pytest.raises(ElicitationError):
            E.elicit_prior(h, kappa=1.0)

    def test_nonpositive_kappa_rejected(self):
        g = fan_graph()
        with pytest.raises(ValueError):
            E.elicit_prior(E.structural_hypothesis(g), kappa=0.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa_rejected(self, kappa):
        g = fan_graph()
        with pytest.raises(ValueError, match="^kappa must be positive and finite$"):
            E.elicit_prior(E.structural_hypothesis(g), kappa=kappa)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_beliefs_rejected(self, bad):
        g = fan_graph()
        with pytest.raises(ValueError, match="^beliefs must be finite$"):
            E.HypothesisMatrix("h", g, np.array([1.0, bad, 1.0, 1.0, 1.0]))


def reference_log_evidence(g, alpha, counts):
    """The former kernel: gammaln on every edge slot and on every row with out-edges."""
    n = counts.aligned_counts(g) if isinstance(counts, TransitionLog) else np.asarray(counts, dtype=np.float64)
    src = g.edge_sources
    row_a = np.bincount(src, weights=alpha, minlength=g.n_nodes)
    row_n = np.bincount(src, weights=n, minlength=g.n_nodes)
    rows = g.out_degrees() > 0
    total = float((gammaln(row_a[rows]) - gammaln(row_a[rows] + row_n[rows])).sum())
    total += float((gammaln(alpha + n) - gammaln(alpha)).sum())
    return total


@st.composite
def evidence_cases(draw):
    """A graph with sinks and isolated nodes, smoothed beliefs, a kappa, and counts
    that are all zero, fall on one row only, or fall on some slots, up to 1e9."""
    n = draw(st.integers(1, 25))
    node = st.integers(0, n - 1)
    g = G.build_graph(draw(st.lists(st.tuples(node, node), max_size=60)), n_nodes=n)
    beliefs = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=g.n_edges, max_size=g.n_edges)))
    h = E.HypothesisMatrix("h", g, beliefs + E.SMOOTHING_WEIGHT)
    kappa = draw(st.floats(1e-6, 1e6))
    count = st.one_of(st.just(0), st.integers(1, 10), st.integers(1, 10**9))
    counts = np.array(draw(st.lists(count, min_size=g.n_edges, max_size=g.n_edges)), dtype=np.float64)
    mode = draw(st.sampled_from(["zero", "one row", "some slots"]))
    if mode == "zero":
        counts[:] = 0.0
    elif mode == "one row" and g.n_edges:
        counts[g.edge_sources != g.edge_sources[draw(st.integers(0, g.n_edges - 1))]] = 0.0
    return g, E.elicit_prior(h, kappa), counts


class TestLogEvidence:
    def test_zero_counts_give_zero(self):
        g = fan_graph()
        alpha = E.elicit_prior(E.structural_hypothesis(g), kappa=2.0)
        assert E.log_evidence(g, alpha, np.zeros(g.n_edges)) == 0.0

    def test_single_row_uniform_prior_two_observations(self):
        # alpha=(1,1), counts=(1,1): (1/2) * (1/3)
        g = G.build_graph([(0, 1), (0, 2)])
        assert E.log_evidence(g, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(
            math.log(1 / 6), abs=1e-12
        )

    def test_matches_sequential_predictive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_states = int(rng.integers(2, 5))
            g = G.build_graph([(0, j + 1) for j in range(n_states)] + [(1, 0)])
            alpha_row0 = rng.uniform(0.1, 5.0, size=n_states)
            alpha = np.concatenate([alpha_row0, rng.uniform(0.1, 5.0, size=1)])
            counts = np.concatenate([
                rng.integers(0, 4, size=n_states).astype(float),
                rng.integers(0, 4, size=1).astype(float),
            ])
            expected = polya_evidence_oracle(
                [alpha_row0, alpha[-1:]], [counts[:-1], counts[-1:]]
            )
            assert E.log_evidence(g, alpha, counts) == pytest.approx(expected, abs=1e-9)

    def test_matches_monte_carlo_dirichlet_average(self):
        # 3-state toy chain: evidence == E_p~Dir(alpha) [ prod p^n ]
        g = G.build_graph([(0, 1), (0, 2), (0, 3)])
        alpha = np.array([1.5, 2.0, 0.8])
        counts = np.array([3.0, 1.0, 2.0])
        rng = np.random.default_rng(99)
        draws = rng.dirichlet(alpha, size=1_000_000)
        vals = np.prod(draws ** counts, axis=1)
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(math.exp(E.log_evidence(g, alpha, counts)) - mc) <= 3 * se

    def test_count_on_non_edge_is_support_error(self):
        g = fan_graph()
        other = G.build_graph([(2, 0), (3, 1)])
        log = TransitionLog.from_pairs([2], [0], [15], graph=other)
        alpha = E.elicit_prior(E.structural_hypothesis(g), kappa=1.0)
        with pytest.raises(SupportError):
            E.log_evidence(g, alpha, log)

    def test_rows_without_transitions_change_nothing(self):
        # growing the graph by rows that saw no transitions leaves evidence exact
        g = random_graph(30, 0.15, seed=2)
        log = multinomial_log(g, np.ones(g.n_edges), trips_per_source=20, seed=3)
        counts = log.aligned_counts(g)
        base = E.log_evidence(g, E.elicit_prior(E.structural_hypothesis(g), 2.0), counts)

        pairs = np.stack([g.edge_sources, g.out_indices], axis=1)
        extra = np.array([[30, 0], [30, 5], [31, 2]])
        g2 = G.build_graph(np.vstack([pairs, extra]), n_nodes=32)
        counts2 = np.zeros(g2.n_edges)
        slots = g2.edge_slots(g.edge_sources, g.out_indices)
        counts2[slots] = counts
        grown = E.log_evidence(g2, E.elicit_prior(E.structural_hypothesis(g2), 2.0), counts2)
        assert grown == base

    @settings(max_examples=300, deadline=None)
    @given(evidence_cases())
    def test_bit_equal_to_the_full_slot_reference(self, case):
        g, alpha, counts = case
        assert E.log_evidence(g, alpha, counts).hex() == reference_log_evidence(g, alpha, counts).hex()

    def test_transition_log_bit_equal_to_the_full_slot_reference(self):
        g = random_graph(60, 0.1, seed=12)
        log = multinomial_log(g, np.ones(g.n_edges), trips_per_source=5, seed=13)
        for kappa in E.default_kappa_grid(g):
            alpha = E.elicit_prior(E.kcore_hypothesis(g, G.kcore(g)), kappa)
            assert E.log_evidence(g, alpha, log) == reference_log_evidence(g, alpha, log)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_dense_counts_rejected(self, bad):
        g = G.build_graph([(0, 1), (0, 2), (1, 2), (2, 0)])
        alpha = E.elicit_prior(E.structural_hypothesis(g), kappa=2.0)
        with pytest.raises(ValueError, match="^counts must be finite$"):
            E.log_evidence(g, alpha, np.array([1.0, 0.0, 2.0, bad]))

    def test_negative_counts_rejected(self):
        g = fan_graph()
        alpha = E.elicit_prior(E.structural_hypothesis(g), kappa=2.0)
        with pytest.raises(ValueError, match="^counts must be nonnegative$"):
            E.log_evidence(g, alpha, np.array([1.0, 0.0, -2.0, 0.0, 0.0]))

    def test_bounds_of_the_accepted_parameters_keep_gammaln_finite(self):
        assert np.isfinite(gammaln(E.ALPHA_MIN))
        assert np.isfinite(gammaln(E.ALPHA_MAX))
        g = G.build_graph([(0, 1), (0, 2), (1, 2)])
        alpha = np.array([E.ALPHA_MIN, 1.0, np.nextafter(E.ALPHA_MAX, 0.0)])
        counts = np.array([0.0, 3.0, 0.0])
        assert E.log_evidence(g, alpha, counts) == reference_log_evidence(g, alpha, counts)

    @pytest.mark.parametrize("alpha", [
        [0.0, 1.0, 1.0],                  # zero
        [-1.0, 1.0, 1.0],                 # negative
        [math.nan, 1.0, 1.0],             # NaN
        [math.inf, 1.0, 1.0],             # infinite
        [-math.inf, 1.0, 1.0],
        [5e-324, 1.0, 1.0],               # subnormal: gammaln is +inf
        [1.0, 1.0, 3e305],                # gammaln overflows
        [2e305, 2e305, 1.0],              # each below the bound, their row sum above it
    ])
    def test_prior_outside_the_finite_range_of_gammaln_rejected(self, alpha):
        g = G.build_graph([(0, 1), (0, 2), (1, 2)])
        with pytest.raises(ElicitationError, match="Dirichlet parameters"):
            E.log_evidence(g, np.array(alpha), np.array([0.0, 0.0, 1.0]))

    def test_prior_of_another_length_is_an_alignment_error(self):
        g = G.build_graph([(0, 1), (0, 2), (1, 2)])
        with pytest.raises(AlignmentError, match="^2 Dirichlet parameters for 3 edges$"):
            E.log_evidence(g, np.ones(2), np.zeros(3))

    def test_elicited_priors_pass_the_guard_at_extreme_kappa(self):
        g = fan_graph()
        h = E.HypothesisMatrix("w", g, np.array([1e-300, 1.0, 4.0, 0.0, 3.0]))
        for kappa in (1e-300, 1.0, 1e300):  # alpha spans [1, 1 + kappa]
            alpha = E.elicit_prior(h, kappa)
            assert E.log_evidence(g, alpha, np.ones(g.n_edges)) == reference_log_evidence(g, alpha, np.ones(g.n_edges))


class TestInvariants:
    def test_evidence_equal_across_hypotheses_at_kappa_zero_limit(self):
        g = random_graph(40, 0.15, seed=5)
        log = multinomial_log(g, np.ones(g.n_edges), trips_per_source=30, seed=6)
        counts = log.aligned_counts(g)
        cores = G.kcore(g)
        hyps = [
            E.structural_hypothesis(g),
            E.kcore_hypothesis(g, cores),
            E.textsim_hypothesis(g, np.random.default_rng(1).random(g.n_edges)),
        ]
        kappa = 1e-13
        values = [E.log_evidence(g, E.elicit_prior(h, kappa), counts) for h in hyps]
        assert max(values) - min(values) <= 1e-9

    def test_global_scaling_leaves_evidence_unchanged(self):
        g = random_graph(25, 0.2, seed=7)
        log = multinomial_log(g, np.ones(g.n_edges), trips_per_source=25, seed=8)
        counts = log.aligned_counts(g)
        rng = np.random.default_rng(9)
        base = E.HypothesisMatrix("w", g, rng.uniform(0.1, 2.0, g.n_edges))
        scaled = E.HypothesisMatrix("w_scaled", g, base.values * 137.5)
        for kappa in (1.0, 10.0):
            a = E.log_evidence(g, E.elicit_prior(base, kappa), counts)
            b = E.log_evidence(g, E.elicit_prior(scaled, kappa), counts)
            assert a == pytest.approx(b, abs=1e-12)


class TestBayesFactorCurve:
    def test_hypothesis_equal_to_baseline_gives_zero(self):
        g = random_graph(20, 0.25, seed=10)
        log = multinomial_log(g, np.ones(g.n_edges), trips_per_source=15, seed=11)
        baseline = E.structural_hypothesis(g)
        grid = E.default_kappa_grid(g)
        curve = E.bayes_factor_curve([baseline], baseline, log, grid)[0]
        np.testing.assert_allclose(curve.log_bayes_factor, 0.0, atol=1e-9)

    def test_self_generated_preference_ranks_kcore_correctly(self):
        g = planted_core_graph(seed=31, n=150, core=25)
        cores = G.kcore(g)
        trg_core = np.maximum(cores.values[g.out_indices], 1.0)
        grid = E.default_kappa_grid(g)
        baseline = E.structural_hypothesis(g)
        kh = E.kcore_hypothesis(g, cores)

        favoring = multinomial_log(g, 1.0 / np.sqrt(trg_core), trips_per_source=400, seed=32)
        curve = E.bayes_factor_curve([kh], baseline, favoring, grid)[0]
        assert (curve.log_bayes_factor > 0).all()

        inverted = multinomial_log(g, np.sqrt(trg_core), trips_per_source=400, seed=33)
        curve = E.bayes_factor_curve([kh], baseline, inverted, grid)[0]
        assert (curve.log_bayes_factor < 0).all()

    def test_non_finite_counts_rejected(self):
        g = fan_graph()
        baseline = E.structural_hypothesis(g)
        counts = np.array([1.0, 0.0, 2.0, math.nan, 0.0])
        with pytest.raises(ValueError, match="^counts must be finite$"):
            E.bayes_factor_curve([baseline], baseline, counts, E.default_kappa_grid(g))

    def test_invalid_grid_rejected(self):
        g = fan_graph()
        baseline = E.structural_hypothesis(g)
        with pytest.raises(ValueError):
            E.bayes_factor_curve([baseline], baseline, np.zeros(g.n_edges), [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, bad):
        g = fan_graph()
        baseline = E.structural_hypothesis(g)
        with pytest.raises(ValueError, match="^kappa grid must be positive and finite$"):
            E.bayes_factor_curve([baseline], baseline, np.zeros(g.n_edges), [1.0, bad])


class TestKassRaftery:
    def test_threshold_labels(self):
        assert E.kass_raftery_verdict(0.5) == "not worth more than a bare mention"
        assert E.kass_raftery_verdict(2.0) == "positive"      # 2 lnBF = 4
        assert E.kass_raftery_verdict(4.0) == "strong"        # 2 lnBF = 8
        assert E.kass_raftery_verdict(6.0) == "very strong"   # 2 lnBF = 12
        assert E.kass_raftery_verdict(-6.0) == "against (very strong)"

    @pytest.mark.parametrize("log_bf, verdict", [
        (math.nan, "NA"),
        (math.inf, "very strong"),
        (-math.inf, "against (very strong)"),
        (0.0, "not worth more than a bare mention"),
        (-0.0, "not worth more than a bare mention"),
        (np.nextafter(1.0, 0.0), "not worth more than a bare mention"),  # 2 lnBF just below 2
        (1.0, "positive"),                                               # 2 lnBF = 2
        (np.nextafter(3.0, 0.0), "positive"),
        (3.0, "strong"),                                                 # 2 lnBF = 6
        (np.nextafter(5.0, 0.0), "strong"),
        (5.0, "very strong"),                                            # 2 lnBF = 10
        (-np.nextafter(1.0, 0.0), "against (not worth more than a bare mention)"),
        (-1.0, "against (positive)"),
        (-3.0, "against (strong)"),
        (-5.0, "against (very strong)"),
    ])
    def test_each_side_of_the_thresholds(self, log_bf, verdict):
        assert E.kass_raftery_verdict(log_bf) == verdict


class TestKappaGrid:
    def test_default_is_multiples_of_mean_out_degree(self):
        g = fan_graph()  # 5 edges over 4 nodes
        grid = E.default_kappa_grid(g)
        np.testing.assert_allclose(grid, np.array([1, 2, 3, 4, 5]) * 1.25)

    def test_log_spaced_spans_same_range(self):
        g = fan_graph()
        grid = E.default_kappa_grid(g, log_spaced=True)
        assert grid[0] == pytest.approx(1.25)
        assert grid[-1] == pytest.approx(6.25)
        ratios = grid[1:] / grid[:-1]
        np.testing.assert_allclose(ratios, ratios[0])
