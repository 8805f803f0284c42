"""Concentration statistics, Gini coefficients, and distribution fitting."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from clickgraph import attention as A
from clickgraph import graph as G
from clickgraph.errors import DegenerateInputError, InsufficientDataError
from clickgraph.ingest import TransitionLog

from helpers import brute_force_gini, discrete_power_law_sample, out_neighbors, random_graph


def log_from_counts(g, counts_by_pair):
    src = [p[0] for p in counts_by_pair]
    trg = [p[1] for p in counts_by_pair]
    cnt = list(counts_by_pair.values())
    return TransitionLog.from_pairs(src, trg, cnt, threshold=1, graph=g)


class TestTransitionHistogram:
    def test_half_mass_single_link(self):
        g = G.build_graph([(0, 1), (0, 2), (1, 2)])
        log = log_from_counts(g, {(0, 1): 10, (0, 2): 10, (1, 2): 20})
        hist, stats = A.transition_histogram(log)
        assert hist == {10: 2, 20: 1}
        assert stats.top_k == 1
        assert stats.top_share == pytest.approx(0.5)

    def test_equal_counts_need_half_the_links(self):
        g = G.build_graph([(0, 1), (0, 2), (1, 2), (2, 0)])
        log = log_from_counts(g, {(0, 1): 5, (0, 2): 5, (1, 2): 5, (2, 0): 5})
        _, stats = A.transition_histogram(log)
        assert stats.top_k == 2

    def test_empty_log(self):
        g = G.build_graph([(0, 1)])
        log = TransitionLog.from_pairs([], [], [], graph=g)
        hist, stats = A.transition_histogram(log)
        assert hist == {}
        assert stats.top_k is None and stats.top_share is None

    def test_random_log_matches_sort_and_scan_oracle(self):
        rng = np.random.default_rng(8)
        g = random_graph(40, 0.2, seed=8)
        slots = rng.choice(g.n_edges, size=60, replace=False)
        counts = {
            (int(g.edge_sources[e]), int(g.out_indices[e])): int(rng.integers(1, 500))
            for e in slots
        }
        log = log_from_counts(g, counts)
        _, stats = A.transition_histogram(log)
        values = sorted(counts.values(), reverse=True)
        running, k = 0, 0
        for v in values:
            running += v
            k += 1
            if running >= 0.5 * sum(values):
                break
        assert stats.top_k == k


class TestOutdegreeComparison:
    def test_one_article_five_links_one_used(self):
        g = G.build_graph([(0, j) for j in range(1, 6)])
        log = log_from_counts(g, {(0, 1): 12})
        wiki, trans = A.outdegree_comparison(g, log)
        assert wiki.tolist() == [5]
        assert trans.tolist() == [1]

    def test_article_without_used_links_excluded_from_both(self):
        g = G.build_graph([(0, 1), (1, 2), (2, 0)])
        log = log_from_counts(g, {(0, 1): 12})
        wiki, trans = A.outdegree_comparison(g, log)
        assert len(wiki) == len(trans) == 1

    def test_synthetic_matches_per_node_recount(self):
        rng = np.random.default_rng(4)
        g = random_graph(50, 0.15, seed=4)
        slots = rng.choice(g.n_edges, size=g.n_edges // 3, replace=False)
        counts = {
            (int(g.edge_sources[e]), int(g.out_indices[e])): int(rng.integers(1, 60))
            for e in slots
        }
        log = log_from_counts(g, counts)
        wiki, trans = A.outdegree_comparison(g, log)
        used_sources = sorted({s for s, _ in counts})
        assert wiki.tolist() == [len(out_neighbors(g, v)) for v in used_sources]
        assert trans.tolist() == [sum(1 for (s, _t) in counts if s == v) for v in used_sources]


class TestGini:
    def test_complete_equality(self):
        assert A.gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_extreme(self):
        assert A.gini([0, 0, 0, 10]) == pytest.approx(0.75, abs=1e-12)

    def test_matches_all_pairs_oracle(self):
        assert A.gini([1, 2, 3, 4]) == pytest.approx(brute_force_gini([1, 2, 3, 4]), abs=1e-12)

    def test_random_vectors_match_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.integers(0, 100, size=rng.integers(2, 30))
            if x.sum() == 0:
                continue
            assert A.gini(x) == pytest.approx(brute_force_gini(x), abs=1e-12)

    def test_all_zero_is_undefined(self):
        with pytest.raises(DegenerateInputError, match="all-zero"):
            A.gini([0, 0, 0])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            A.gini([])

    def test_negative_rejected(self):
        with pytest.raises(DegenerateInputError):
            A.gini([1, -1])

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.integers(0, 10_000), min_size=2, max_size=40).filter(
            lambda v: sum(v) > 0
        ),
        scale=st.floats(0.001, 1000.0),
    )
    def test_scale_invariance_and_bounds(self, values, scale):
        x = np.asarray(values, dtype=float)
        g1 = A.gini(x)
        g2 = A.gini(x * scale)
        assert abs(g1 - g2) <= 1e-12
        n = len(x)
        assert -1e-12 <= g1 <= (n - 1) / n + 1e-12


class TestPerArticleGini:
    def test_zero_count_articles_tallied(self):
        g = G.build_graph([(0, 1), (0, 2), (1, 2), (2, 0), (3, 0)])
        log = log_from_counts(g, {(0, 1): 10, (1, 2): 5})
        ginis, skipped = A.per_article_gini(g, log)
        # sources: 0 (counts 10,0), 1 (count 5), 2 (zero), 3 (zero)
        assert len(ginis) == 2
        assert skipped == 2
        assert ginis[0] == pytest.approx(0.5)  # [10, 0] over two links
        assert ginis[1] == pytest.approx(0.0)


class TestFitDistributions:
    def test_geometric_data_selects_exponential(self):
        rng = np.random.default_rng(7)
        samples = rng.geometric(0.2, size=20_000)
        report = A.fit_distributions(samples, xmin=1)
        assert report.winner == "exponential"
        lam = report.fits["exponential"].params["lambda"]
        assert lam == pytest.approx(-np.log(0.8), rel=0.05)

    def test_power_law_exponent_recovered(self):
        # the family-winner claim at full 1e5-sample scale lives in the
        # acceptance suite; a mimicking lognormal can tie within ~2 AIC there
        samples = discrete_power_law_sample(2.5, 20_000, seed=7)
        report = A.fit_distributions(samples, xmin=1)
        assert report.fits["power_law"].params["alpha"] == pytest.approx(2.5, abs=0.1)
        assert report.delta_aic["exponential"] > 100.0

    def test_constant_samples_rejected(self):
        with pytest.raises(DegenerateInputError):
            A.fit_distributions(np.full(100, 7), xmin=1)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            A.fit_distributions(np.arange(1, 30), xmin=1)

    @pytest.mark.parametrize("xmin", [0, -1])
    def test_xmin_below_one_is_refused_before_the_sample_count(self, xmin):
        # The discrete families start at 1; a zero in the tail made -inf logliks.
        samples = np.random.default_rng(5).zipf(2.2, 500) - 1
        with pytest.raises(DegenerateInputError, match=f"xmin={xmin} is below 1"):
            A.fit_distributions(samples, xmin=xmin)
        with pytest.raises(DegenerateInputError, match=f"xmin={xmin} is below 1"):
            A.fit_distributions(samples[:3], xmin=xmin)

    def test_reported_params_reproduce_reported_loglik(self):
        rng = np.random.default_rng(9)
        samples = rng.geometric(0.3, size=5_000)
        report = A.fit_distributions(samples, xmin=1)
        for family, fit in report.fits.items():
            if not fit.converged:
                continue
            again = A.family_loglik(family, fit.params, samples, xmin=1)
            assert np.isfinite(fit.loglik)
            assert again.hex() == fit.loglik.hex(), family

    def test_failed_fit_names_its_cause(self):
        # Zipf(1.6) counts above 10: the lognormal mu drifts towards -inf
        # until Nelder-Mead runs out of iterations.
        rng = np.random.default_rng(1)
        samples = np.minimum(rng.zipf(1.6, 300) + 8, 10**7)
        fit = A.fit_distributions(samples, xmin=10).fits["lognormal"]
        assert not fit.converged
        assert "iterations" in fit.message

    def test_lognormal_step_with_underflowing_sigma_is_rejected(self, monkeypatch):
        # exp(-800) is 0.0: such a Nelder-Mead step must cost +inf, not NaN or an error.
        probes = []
        minimize = A.optimize.minimize

        def probing_minimize(fun, x0, **kwargs):
            probes.append(fun(np.array([x0[0], -800.0])))
            return minimize(fun, x0, **kwargs)

        monkeypatch.setattr(A.optimize, "minimize", probing_minimize)
        rng = np.random.default_rng(3)
        samples = np.round(rng.lognormal(2.0, 0.7, 2_000))
        fit = A._fit_lognormal(samples[samples >= 1], 1)
        assert probes == [math.inf]
        assert fit.converged and fit.params["sigma"] > 0

    def test_winner_has_smallest_aic(self):
        rng = np.random.default_rng(14)
        samples = rng.geometric(0.4, size=5_000)
        report = A.fit_distributions(samples, xmin=1)
        best = min(
            (fit.aic for fit in report.fits.values() if fit.converged)
        )
        assert report.fits[report.winner].aic == best
        assert report.delta_aic[report.winner] == 0.0


def _same_float(a, b) -> bool:
    """Bit-identical, or both NaN."""
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (np.isnan(a) and np.isnan(b))


def _brute_log_norm(log_term, xmin: int, upper: int, chunk: int = 1_000_000) -> float:
    """log sum_{x=xmin}^{upper-1} exp(log_term(x)) for a term decreasing in x."""
    shift = log_term(np.array([float(xmin)]))[0]
    parts = []
    for lo in range(xmin, upper, chunk):
        x = np.arange(lo, min(lo + chunk, upper), dtype=np.float64)
        parts.append(math.fsum(np.exp(log_term(x) - shift)))
    return shift + math.log(math.fsum(parts))


class TestNormaliser:
    @pytest.mark.parametrize(
        "values",
        [
            [2.0, 2.0, 2.0],
            [1.0, 3.0, 3.0, -4.0],
            [0.0, -np.inf, 2.5],
            [-np.inf, -np.inf],
            [np.inf, 1.0],
            [np.inf, -np.inf, 0.0],
            [np.nan, 1.0],
            [np.inf, np.nan],
            [3.25],
            [-np.inf],
            [-0.0],
            [1e308, 1e308, -1e300],
        ],
    )
    def test_logsumexp_matches_scipy(self, values):
        a = np.array(values, dtype=np.float64)
        assert _same_float(A._logsumexp(a), special.logsumexp(a))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_logsumexp_matches_scipy_on_finite_arrays(self, a):
        with np.errstate(over="ignore"):
            assert _same_float(A._logsumexp(a), special.logsumexp(a))

    def test_logsumexp_leaves_its_input_alone(self):
        a = np.array([1.0, 5.0, 5.0])
        A._logsumexp(a)
        assert a.tolist() == [1.0, 5.0, 5.0]

    @pytest.mark.parametrize("xmin", [1, 10])
    @pytest.mark.parametrize("alpha, lam", [(1.5, 3e-5), (2.5, 1e-3)])
    def test_truncated_power_law_matches_long_sum(self, xmin, alpha, lam):
        brute = _brute_log_norm(lambda x: -alpha * np.log(x) - lam * x, xmin, 1_500_000)
        assert A._log_norm_tpl(alpha, lam, xmin) == pytest.approx(brute, abs=1e-9, rel=0)

    @pytest.mark.parametrize("xmin", [1, 10])
    @pytest.mark.parametrize("mu, sigma", [(1.0, 2.0), (0.5, 0.8)])
    def test_lognormal_matches_long_sum(self, xmin, mu, sigma):
        brute = _brute_log_norm(
            lambda x: -np.log(x) - 0.5 * ((np.log(x) - mu) / sigma) ** 2, xmin, 3_000_000
        )
        assert A._log_norm_lognormal(mu, sigma, xmin) == pytest.approx(brute, abs=1e-9, rel=0)

    def test_grid_is_read_only(self):
        x, lx = A._grid(3)
        assert x[0] == 3.0 and lx[0] == math.log(3.0)
        with pytest.raises(ValueError):
            x[0] = 1.0
        with pytest.raises(ValueError):
            lx[0] = 0.0


# The normalisers and the two Nelder-Mead fitters as written before they ran
# in per-fit work buffers on Python-float parameters.


def reference_logsumexp(a):
    a_max = a.max()
    if not np.isfinite(a_max):
        return a_max
    tied = a == a_max
    m = np.float64(np.count_nonzero(tied))
    shifted = a - a_max
    shifted[tied] = -np.inf
    s = np.exp(shifted).sum()
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def reference_logsumexp_every_lane(a, out=None):
    """``_logsumexp`` as it ran before it skipped the lanes where exp is +0.0."""
    i = int(a.argmax())
    a_max = a[i]
    if not np.isfinite(a_max):
        return a_max
    shifted = np.subtract(a, a_max, out=out)
    shifted[i] = -np.inf
    m = 1
    if shifted.max() == 0:
        tied = shifted == 0
        m += np.count_nonzero(tied)
        shifted[tied] = -np.inf
    s = np.exp(shifted, out=shifted).sum()
    m = np.float64(m)
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def reference_tail_integral(log_f, a):
    with A.warnings.catch_warnings():
        A.warnings.simplefilter("ignore", A.integrate.IntegrationWarning)
        val, _err = A.integrate.quad(lambda t: math.exp(log_f(t)), a, np.inf, limit=200)
    return val


def reference_log_norm_tpl(alpha, lam, xmin):
    upper = xmin + A._NORM_EXACT_TERMS
    x, lx = A._grid(xmin)
    head = reference_logsumexp(-alpha * lx - lam * x)
    tail = reference_tail_integral(lambda t: -alpha * math.log(t) - lam * t, upper - 0.5)
    return float(np.logaddexp(head, np.log(tail) if tail > 0 else -np.inf))


def reference_log_norm_lognormal(mu, sigma, xmin):
    upper = xmin + A._NORM_EXACT_TERMS
    _x, lx = A._grid(xmin)
    head = reference_logsumexp(-lx - 0.5 * ((lx - mu) / sigma) ** 2)
    z = (math.log(upper - 0.5) - mu) / sigma
    tail = math.sqrt(2.0 * math.pi) * sigma * special.ndtr(-z)
    return float(np.logaddexp(head, np.log(tail) if tail > 0 else -np.inf))


def reference_fit_truncated_power_law(x, xmin):
    logs = np.log(x).sum()
    total = x.sum()
    n = len(x)

    def nll(p):
        alpha, lam = p[0], max(math.exp(p[1]), 1e-9)
        if alpha < 0.0:
            return 1e18 * (1.0 + alpha * alpha)
        return alpha * logs + lam * total + n * reference_log_norm_tpl(alpha, lam, xmin)

    best = None
    for lam0 in (0.5, 0.05):
        res = A.optimize.minimize(
            nll, x0=np.array([1.5, math.log(lam0)]), method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
        )
        if best is None or res.fun < best.fun:
            best = res
    alpha, lam = float(best.x[0]), float(max(math.exp(best.x[1]), 1e-9))
    params = {"alpha": max(alpha, 0.0), "lambda": lam}
    ll = -float(best.fun)
    return A.FamilyFit(params, ll, 2 * 2 - 2 * ll, bool(best.success), str(best.message))


def reference_fit_lognormal(x, xmin):
    """The former fit: reference normaliser and the data term on every row."""
    lx = np.log(x)
    n = len(x)

    def nll(p):
        mu, sigma = p[0], math.exp(p[1])
        if sigma == 0.0:
            return math.inf
        return float(
            (lx + 0.5 * ((lx - mu) / sigma) ** 2).sum()
            + n * reference_log_norm_lognormal(mu, sigma, xmin)
        )

    res = A.optimize.minimize(
        nll,
        x0=np.array([float(lx.mean()), math.log(max(float(lx.std()), 0.1))]),
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
    )
    params = {"mu": float(res.x[0]), "sigma": float(math.exp(res.x[1]))}
    ll = -float(res.fun)
    return A.FamilyFit(params, ll, 2 * 2 - 2 * ll, bool(res.success), str(res.message))


def _fit_outcome(samples, xmin):
    try:
        return repr(A.fit_distributions(samples, xmin=xmin))
    except (InsufficientDataError, DegenerateInputError) as exc:
        return type(exc), str(exc)


class TestNormaliserMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(-1.0, 6.0), log_lam=st.floats(-21.0, 3.0), xmin=st.integers(1, 60))
    def test_truncated_power_law_bit_equal(self, alpha, log_lam, xmin):
        lam = math.exp(log_lam)
        want = reference_log_norm_tpl(np.float64(alpha), lam, xmin).hex()
        assert A._log_norm_tpl(alpha, lam, xmin).hex() == want

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(-2e6, 60.0), log_sigma=st.floats(-7.0, 7.0), xmin=st.integers(1, 60))
    def test_lognormal_bit_equal(self, mu, log_sigma, xmin):
        sigma = math.exp(log_sigma)
        want = reference_log_norm_lognormal(np.float64(mu), sigma, xmin).hex()
        assert A._log_norm_lognormal(mu, sigma, xmin).hex() == want

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40)))
    def test_logsumexp_in_place_matches_reference(self, a):
        work = a.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_float(A._logsumexp(work, out=work), reference_logsumexp(a))

    # Offsets from the maximum: far below, around and inside exp's +0.0
    # bound (-745.2), the subnormal band, ordinary terms, ties, -inf and NaN.
    @settings(max_examples=400, deadline=None)
    @given(base=st.floats(-1e3, 1e3), offsets=st.lists(st.one_of(
        st.floats(-2e3, -745.3), st.floats(-745.25, -745.1), st.floats(-745.1332, -708.4),
        st.floats(-60.0, 0.0), st.sampled_from([0.0, -745.2, -np.inf, np.nan])), min_size=1,
        max_size=60))
    @example(base=0.0, offsets=[-745.0, -800.0])  # a subnormal sum that a wider skip would lose
    def test_logsumexp_skipping_zero_lanes_matches_every_lane(self, base, offsets):
        terms = base + np.array([0.0, *offsets])
        for a in (terms, terms[::-1], terms[1:] if len(terms) > 1 else terms):
            want = reference_logsumexp_every_lane(a.copy())
            assert A._logsumexp(a).hex() == want.hex()
            work = a.copy()
            assert A._logsumexp(work, out=work).hex() == want.hex()

    def test_exp_is_positive_zero_below_the_skip_bound(self):
        grid = np.linspace(-800.0, A._EXP_ZERO, 1_000_001)
        zeros = np.exp(grid)
        assert not zeros.any() and not np.signbit(zeros).any()

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 400),
           case=st.tuples(st.sampled_from(["zipf", "geometric"]), st.sampled_from([1, 2, 5]))
           | st.tuples(st.just("zipf_tail"), st.sampled_from([9, 10])))
    @example(seed=1, n=300, case=("zipf_tail", 10))  # a walk that collapses and hits the cap
    def test_fit_distributions_identical(self, seed, n, case):
        family, xmin = case
        rng = np.random.default_rng(seed)
        if family == "zipf_tail":
            samples = rng.zipf(1.6, n) + 8
        else:
            samples = rng.zipf(2.2, n) if family == "zipf" else rng.geometric(0.15, n)
        got = _fit_outcome(samples, xmin)
        with mock.patch.object(A, "_fit_truncated_power_law", reference_fit_truncated_power_law), \
                mock.patch.object(A, "_fit_lognormal", reference_fit_lognormal):
            want = _fit_outcome(samples, xmin)
        assert got == want


def reference_family_loglik(family, params, samples, xmin):
    """``family_loglik`` as it was written apart from the fits' objectives:
    each family's expression evaluated on every row of the tail."""
    x = np.asarray(samples, dtype=np.float64)
    x = x[x >= xmin]
    n = len(x)
    if family == "power_law":
        alpha = params["alpha"]
        return float(-alpha * np.log(x).sum() - n * A._log_norm_pl(alpha, xmin))
    if family == "truncated_power_law":
        alpha, lam = params["alpha"], params["lambda"]
        return float(
            -alpha * np.log(x).sum() - lam * x.sum() - n * A._log_norm_tpl(alpha, lam, xmin)
        )
    if family == "lognormal":
        mu, sigma = params["mu"], params["sigma"]
        lx = np.log(x)
        return float(
            (-lx - 0.5 * ((lx - mu) / sigma) ** 2).sum()
            - n * A._log_norm_lognormal(mu, sigma, xmin)
        )
    if family == "exponential":
        lam = params["lambda"]
        return float(n * math.log(-math.expm1(-lam)) - lam * (x - xmin).sum())
    raise ValueError(f"unknown family {family!r}")


@st.composite
def loglik_params(draw, family):
    """Parameters of ``family`` over the ranges its fit explores; for the
    log-normal, also the walk towards the power-law limit (mu near -1.8e6,
    sigma near 1.2e3)."""
    if family == "power_law":
        return {"alpha": draw(st.floats(1.0001, 20.0))}
    if family == "truncated_power_law":
        return {"alpha": draw(st.floats(0.0, 6.0)), "lambda": math.exp(draw(st.floats(-21.0, 3.0)))}
    if family == "lognormal":
        mu, sigma = draw(st.one_of(
            st.tuples(st.floats(-1.9e6, -1.7e6), st.floats(1.1e3, 1.3e3)),
            st.tuples(st.floats(-5.0, 60.0), st.floats(-7.0, 7.0).map(math.exp))))
        return {"mu": mu, "sigma": sigma}
    return {"lambda": draw(st.floats(1e-6, 20.0))}


class TestFamilyLoglikMatchesReference:
    # Counts from 0 up, so that many draws leave an empty or a one-sample tail above xmin.
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), family=st.sampled_from(A.FAMILIES), xmin=st.integers(1, 12),
           samples=st.lists(st.integers(0, 40) | st.integers(1, 10**6), max_size=30))
    def test_bit_equal(self, data, family, xmin, samples):
        params = data.draw(loglik_params(family))
        for tail in (samples, [], [xmin - 1], [xmin], samples[:1]):
            want = reference_family_loglik(family, params, tail, xmin)
            assert A.family_loglik(family, params, tail, xmin).hex() == want.hex()

    def test_unknown_family_is_refused(self):
        with pytest.raises(ValueError, match="unknown family 'zipf'"):
            A.family_loglik("zipf", {}, [1, 2, 3], 1)


def zipf_tail(n: int) -> np.ndarray:
    """Seeded Zipf(1.6) + 8 counts: above xmin 9 their log-normal fit walks
    towards the power-law limit (mu near -2e6, sigma near 1e3)."""
    return (np.random.default_rng(n).zipf(1.6, n) + 8).astype(np.float64)


class _Caught(Exception):
    pass


def lognormal_objective(x, xmin):
    """The objective ``_fit_lognormal`` hands to Nelder-Mead, caught on its way in."""
    caught = []

    def catching_minimize(fun, x0, **kwargs):
        caught.append(fun)
        raise _Caught

    with mock.patch.object(A.optimize, "minimize", catching_minimize), pytest.raises(_Caught):
        A._fit_lognormal(x, xmin)
    return caught[0]


class TestLognormalDistinctCounts:
    X = zipf_tail(3000)

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(-2e6, 60.0), log_sigma=st.floats(-7.0, 10.0))
    @example(mu=-1.5e6, log_sigma=math.log(1e3))
    def test_data_term_equal_to_the_per_row_expression(self, mu, log_sigma):
        # with the normaliser at 0 the objective is the data term alone
        sigma = math.exp(log_sigma)
        lx = np.log(self.X)
        want = float((lx + 0.5 * ((lx - mu) / sigma) ** 2).sum())
        objective = lognormal_objective(self.X, 9)
        with mock.patch.object(A, "_log_norm_lognormal", lambda *args: 0.0):
            got = objective(np.array([mu, log_sigma]))
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("n", [300, 1000, 3000, 10_000])
    def test_fit_identical_to_the_per_row_reference(self, n):
        x = zipf_tail(n)
        fit = A._fit_lognormal(x, 9)
        assert fit.params["mu"] < -1e5  # the walk towards the power-law limit
        assert repr(fit) == repr(reference_fit_lognormal(x, 9))


# The two heads and the log-normal objective as they ran before each call
# allocated its own rows: in two work rows made once per fit, and the data
# term in two buffers made once per fit, gathered by ``np.take(..., out=,
# mode="clip")``.


def work_rows_log_norm_tpl(alpha, lam, xmin, work):
    upper = xmin + A._NORM_EXACT_TERMS
    x, lx = A._grid(xmin)
    terms, scratch = work
    np.multiply(lx, -alpha, out=terms)
    np.subtract(terms, np.multiply(x, lam, out=scratch), out=terms)
    head = A._logsumexp(terms, out=terms)
    tail = A._tail_integral(alpha, lam, upper - 0.5)
    return float(np.logaddexp(head, np.log(tail) if tail > 0 else -np.inf))


def work_rows_log_norm_lognormal(mu, sigma, xmin, work):
    upper = xmin + A._NORM_EXACT_TERMS
    _x, lx = A._grid(xmin)
    terms = work[0]
    np.subtract(lx, mu, out=terms)
    np.divide(terms, sigma, out=terms)
    np.square(terms, out=terms)
    np.multiply(terms, -0.5, out=terms)
    np.subtract(terms, lx, out=terms)
    head = A._logsumexp(terms, out=terms)
    z = (math.log(upper - 0.5) - mu) / sigma
    tail = math.sqrt(2.0 * math.pi) * sigma * special.ndtr(-z)
    return float(np.logaddexp(head, np.log(tail) if tail > 0 else -np.inf))


def work_rows_lognormal_objective(x, xmin):
    lx = np.log(x)
    n = len(x)
    work = np.empty((2, A._NORM_EXACT_TERMS))
    _distinct, first, row_of = np.unique(x, return_index=True, return_inverse=True)
    lu = lx[first]
    term, rows = np.empty_like(lu), np.empty_like(lx)

    def nll(p):
        mu, sigma = float(p[0]), math.exp(p[1])
        if sigma == 0.0:
            return math.inf
        np.subtract(lu, mu, out=term)
        np.divide(term, sigma, out=term)
        np.square(term, out=term)
        np.multiply(term, 0.5, out=term)
        np.add(lu, term, out=term)
        return float(np.take(term, row_of, out=rows, mode="clip").sum()
                     + n * work_rows_log_norm_lognormal(mu, sigma, xmin, work))

    return nll


#: The pipeline's two xmins (out-degree and transition-count sections), then any.
XMINS = st.sampled_from([1, 10]) | st.integers(1, 60)


class TestKernelsMatchWorkRows:
    # One set of work rows for every example, as one fit reused them for every step.
    WORK = np.empty((2, A._NORM_EXACT_TERMS))

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(-1.0, 6.0), log_lam=st.floats(-21.0, 3.0), xmin=XMINS)
    def test_truncated_power_law_head(self, alpha, log_lam, xmin):
        lam = math.exp(log_lam)
        want = work_rows_log_norm_tpl(alpha, lam, xmin, self.WORK)
        assert A._log_norm_tpl(alpha, lam, xmin).hex() == want.hex()

    @settings(max_examples=150, deadline=None)
    @given(mu=st.floats(-2e6, 60.0), log_sigma=st.floats(-7.0, 10.0), xmin=XMINS)
    @example(mu=-1.5e6, log_sigma=math.log(1e3), xmin=10)
    def test_lognormal_head(self, mu, log_sigma, xmin):
        sigma = math.exp(log_sigma)
        want = work_rows_log_norm_lognormal(mu, sigma, xmin, self.WORK)
        assert A._log_norm_lognormal(mu, sigma, xmin).hex() == want.hex()

    @settings(max_examples=150, deadline=None)
    @given(mu=st.floats(-2e6, 60.0), log_sigma=st.floats(-7.0, 10.0), xmin=st.sampled_from([1, 10]))
    @example(mu=-1.5e6, log_sigma=math.log(1e3), xmin=10)
    def test_lognormal_objective_data_term_and_head(self, mu, log_sigma, xmin):
        x = zipf_tail(3000) - 9 + xmin  # 216 distinct counts, the least at xmin
        p = np.array([mu, log_sigma])
        want = work_rows_lognormal_objective(x, xmin)(p)
        assert lognormal_objective(x, xmin)(p).hex() == want.hex()


class TestMemo:
    def test_signed_zeros_are_different_points(self):
        calls = []
        scored = A._memo(lambda p: calls.append(p.tobytes()) or float(len(calls)))
        assert scored(np.array([0.0, 1.0])) == 1.0
        assert scored(np.array([-0.0, 1.0])) == 2.0
        assert scored(np.array([0.0, 1.0])) == 1.0
        assert scored(np.array([-0.0, 1.0])) == 2.0
        assert len(calls) == 2

    def test_capped_walk_scores_each_point_once_and_fits_as_before(self, monkeypatch):
        # the input of test_failed_fit_names_its_cause: the simplex collapses
        # and Nelder-Mead asks again for points it has scored
        rng = np.random.default_rng(1)
        x = np.minimum(rng.zipf(1.6, 300) + 8, 10**7).astype(np.float64)
        x = x[x >= 10]
        asked, scored, nfev = [], [], []
        memo, minimize = A._memo, A.optimize.minimize

        def counting_memo(nll):
            once = memo(lambda p: scored.append(p.tobytes()) or nll(p))
            return lambda p: asked.append(p.tobytes()) or once(p)

        def recording_minimize(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(A, "_memo", counting_memo)
        monkeypatch.setattr(A.optimize, "minimize", recording_minimize)
        fit = A._fit_lognormal(x, 10)
        monkeypatch.undo()
        assert repr(fit) == repr(reference_fit_lognormal(x, 10))
        assert not fit.converged and "iterations" in fit.message
        assert nfev == [len(asked)]
        assert len(scored) == len(set(scored)) == len(set(asked)) < len(asked)
