"""Hurdle stages: logistic and zero-truncated negative binomial fits, LRT."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special, stats

from clickgraph import hurdle as H
from clickgraph import ingest
from clickgraph.errors import (
    CollinearityError,
    ConvergenceError,
    PreconditionError,
    SeparationError,
)


def sample_ztnb(rng, mu, theta):
    """Zero-truncated negative binomial draws by resampling zeros."""
    y = rng.negative_binomial(theta, theta / (theta + mu))
    while (y == 0).any():
        idx = y == 0
        y[idx] = rng.negative_binomial(theta, theta / (theta + mu[idx]))
    return y.astype(float)


def toy_table(counts, region=None):
    n = len(counts)
    data = {
        "transitions": np.asarray(counts, dtype=float),
        "region": np.asarray(region if region is not None else ["body"] * n, dtype=object),
    }
    for col in ingest.NETWORK_COLUMNS + ("text_sim", "topic_sim", "x_coord", "y_coord"):
        data[col] = np.linspace(0.0, 1.0, n)
    return ingest.LinkFeatureTable(
        src=np.arange(n, dtype=np.int64), trg=np.arange(n, dtype=np.int64), data=data
    )


class TestSplitHurdle:
    def test_basic_split(self):
        split = H.split_hurdle(toy_table([0, 5, 12]), threshold=10)
        np.testing.assert_array_equal(split.binary_y, [0, 0, 1])
        np.testing.assert_array_equal(split.count_rows, [2])
        np.testing.assert_array_equal(split.count_y, [12])

    def test_all_above_threshold_keeps_every_count_row(self):
        split = H.split_hurdle(toy_table([10, 11, 12]), threshold=10)
        assert len(split.count_rows) == 3

    def test_threshold_must_be_positive(self):
        with pytest.raises(PreconditionError):
            H.split_hurdle(toy_table([1, 2]), threshold=0)

    def test_stage_two_rows_match_count_oracle(self):
        rng = np.random.default_rng(0)
        counts = np.where(rng.random(200) < 0.3, rng.integers(10, 100, 200), 0)
        split = H.split_hurdle(toy_table(counts), threshold=10)
        assert len(split.count_rows) == int((counts > 0).sum())


class TestFitLogistic:
    def test_intercept_only_half_ones(self):
        y = np.tile([0.0, 1.0], 50)
        fit = H.fit_logistic(H.intercept_design(y))
        assert fit.coef[0] == pytest.approx(0.0, abs=1e-8)

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(42)
        n = 20_000
        x = rng.normal(size=n)
        p = 1.0 / (1.0 + np.exp(-(-1.0 + 0.8 * x)))
        y = (rng.random(n) < p).astype(float)
        fit = H.fit_logistic(H.make_design(x, y, "x", standardize=False))
        assert fit.coef[0] == pytest.approx(-1.0, abs=0.05)
        assert fit.coef[1] == pytest.approx(0.8, abs=0.05)
        assert fit.grad_norm <= 1e-6

    def test_all_ones_outcome_is_separation(self):
        with pytest.raises(SeparationError):
            H.fit_logistic(H.intercept_design(np.ones(30)))

    def test_perfectly_separated_data(self):
        x = np.r_[np.zeros(15), np.ones(15)]
        y = np.r_[np.zeros(15), np.ones(15)]
        with pytest.raises(SeparationError):
            H.fit_logistic(H.make_design(x, y, "x", standardize=False))

    def test_collinear_columns_named(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        X = np.column_stack([np.ones(50), x, x])
        design = H.DesignMatrix(X=X, y=(rng.random(50) < 0.5).astype(float),
                                columns=("intercept", "x1", "x1_copy"))
        with pytest.raises(CollinearityError) as exc:
            H.fit_logistic(design)
        assert "x1_copy" in exc.value.columns

    def test_loglik_not_below_the_starting_point(self):
        # Each damped Newton step is taken only if the likelihood does not fall.
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        y = (rng.random(500) < 1 / (1 + np.exp(-x))).astype(float)
        design = H.make_design(x, y, "x", standardize=True)
        fit = H.fit_logistic(design)
        assert fit.iterations > 0
        assert fit.loglik > H._logistic_ll(np.zeros(len(y)), y)

    def test_standardization_invariance(self):
        rng = np.random.default_rng(6)
        x = 3.0 + 2.5 * rng.normal(size=2_000)
        y = (rng.random(2_000) < 1 / (1 + np.exp(-(x - 3.0)))).astype(float)
        raw = H.fit_logistic(H.make_design(x, y, "x", standardize=False))
        scaled = H.fit_logistic(H.make_design(x, y, "x", standardize=True))
        assert scaled.loglik == pytest.approx(raw.loglik, abs=1e-6)
        sd = x.std()
        assert scaled.coef[1] == pytest.approx(raw.coef[1] * sd, rel=1e-6)


# _logistic_ll and _log1mexp as written before each became one expression;
# the ztnb references below use this _log1mexp.


def reference_logistic_ll(eta, y):
    return float(np.where(y > 0, -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)).sum())


def reference_log1mexp(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = z > -0.6931471805599453  # ln 2
    out[small] = np.log(-np.expm1(z[small]))
    out[~small] = np.log1p(-np.exp(z[~small]))
    return out


LN2 = math.log(2.0)


class TestKernelsMatchMaskedReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3) | st.floats(
            allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 800.0, -800.0])),
        hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))))
    @example((np.array([800.0, -800.0]), np.array([1.0, 0.0])))  # every row -0.0, the sum +0.0
    @example((np.array([0.0, -0.0]), np.array([1.0, 0.0])))
    def test_logistic_ll_is_one_logaddexp(self, problem):
        eta, y = problem
        with np.errstate(over="ignore"):  # a sum of terms near the float maximum
            assert H._logistic_ll(eta, y).hex() == reference_logistic_ll(eta, y).hex()

    # Both sides of -ln 2 and the values next to it, the subnormals, the far
    # tail where e^z underflows, 0 at the top of the range, -inf and NaN.
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
        st.floats(-3.0, 0.0), st.floats(-LN2 - 1e-9, -LN2 + 1e-9),
        st.sampled_from([-LN2, np.nextafter(-LN2, 0.0), np.nextafter(-LN2, -1.0),
                         -5e-324, -2.2250738585072014e-308, 0.0, -0.0, -np.inf, np.nan]),
        st.floats(-2.2250738585072014e-308, -5e-324), st.floats(-1e308, -3.0))))
    def test_log1mexp_is_one_where(self, z):
        with np.errstate(divide="ignore"):
            want = reference_log1mexp(z)
        got = H._log1mexp(z)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


class TestZtnbGradient:
    def test_matches_central_finite_differences_at_random_points(self):
        rng = np.random.default_rng(11)
        n = 150
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        mu = np.exp(0.8 + 0.4 * X[:, 1])
        y = sample_ztnb(rng, mu, theta=1.7)
        h = 1e-6
        for _ in range(20):
            params = np.r_[rng.normal(scale=0.5, size=2), rng.normal(scale=0.3)]
            analytic = H.ztnb_loglik(params, X, y)[1]
            fd = np.empty_like(params)
            for k in range(len(params)):
                e = np.zeros_like(params)
                e[k] = h
                fd[k] = (H.ztnb_loglik(params + e, X, y)[0] - H.ztnb_loglik(params - e, X, y)[0]) / (2 * h)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)
            assert rel.max() <= 1e-5


def reference_ztnb_loglik(params, X, y):
    """The log-likelihood as written before value and gradient shared one pass."""
    beta, theta = params[:-1], math.exp(params[-1])
    eta = X @ beta
    mu = np.exp(eta)
    log_ratio = math.log(theta) - np.log(theta + mu)  # ln(theta/(theta+mu)) < 0
    log_p0 = theta * log_ratio
    ll = (
        special.gammaln(y + theta)
        - special.gammaln(theta)
        - special.gammaln(y + 1.0)
        + theta * log_ratio
        + y * (eta - np.log(theta + mu))
        - reference_log1mexp(log_p0)
    )
    return float(ll.sum())


def reference_ztnb_gradient(params, X, y):
    """The gradient as written before value and gradient shared one pass."""
    beta, theta = params[:-1], math.exp(params[-1])
    eta = X @ beta
    mu = np.exp(eta)
    denom = theta + mu
    log_ratio = math.log(theta) - np.log(denom)
    log_p0 = theta * log_ratio
    # p0 / (1 - p0), stable while p0 -> 1
    p0_over_1mp0 = np.exp(log_p0 - reference_log1mexp(log_p0))

    # d ll / d eta = y - (y + theta) mu / denom - theta mu / denom * p0/(1-p0)
    dll_deta = y - (y + theta) * mu / denom - theta * mu / denom * p0_over_1mp0
    grad_beta = X.T @ dll_deta

    dll_dtheta = (
        special.digamma(y + theta)
        - special.digamma(theta)
        + log_ratio
        + 1.0
        - (theta + y) / denom
        + (log_ratio + mu / denom) * p0_over_1mp0
    )
    return np.concatenate([grad_beta, [theta * dll_dtheta.sum()]])


@st.composite
def ztnb_problems(draw):
    n = draw(st.integers(1, 60))
    p = draw(st.integers(1, 3))
    X = draw(hnp.arrays(np.float64, (n, p), elements=st.floats(-3.0, 3.0)))
    counts = st.one_of(st.integers(1, 30), st.integers(1, 10**6))
    y = draw(hnp.arrays(np.float64, n, elements=counts.map(float)))
    params = draw(hnp.arrays(np.float64, p + 1, elements=st.floats(-2.0, 2.0)))
    return params, X, y


class TestZtnbKernel:
    @settings(max_examples=300, deadline=None)
    @given(ztnb_problems())
    def test_value_and_gradient_bit_equal_to_separate_reference(self, problem):
        # With and without the per-fit distinct counts that fit_ztnb passes.
        params, X, y = problem
        for counts in (None, H.ztnb_counts(y)):
            value, gradient = H.ztnb_loglik(params, X, y, counts)
            assert value.hex() == reference_ztnb_loglik(params, X, y).hex()
            np.testing.assert_array_equal(
                gradient.view(np.int64), reference_ztnb_gradient(params, X, y).view(np.int64)
            )

    @pytest.mark.parametrize("log_theta", [800.0, -800.0])
    def test_theta_out_of_float_range_is_a_convergence_error(self, log_theta):
        # e^800 overflows and e^-800 underflows to 0.0; neither is a theta.
        X, y = np.ones((3, 1)), np.array([1.0, 4.0, 9.0])
        with pytest.raises(ConvergenceError, match=f"ln theta = {log_theta!r}"):
            H.ztnb_loglik(np.array([0.5, log_theta]), X, y)


def reference_fused_ztnb_loglik(params, X, y):
    """The one-pass kernel as written before its count terms were taken per
    distinct count (``gammaln(y + 1)`` and the ``y + theta`` terms per row)."""
    theta = math.exp(params[-1])
    log_theta = math.log(theta)
    eta = X @ params[:-1]
    mu = np.exp(eta)
    denom = theta + mu
    log_denom = np.log(denom)
    log_ratio = log_theta - log_denom
    log_p0 = theta * log_ratio
    log_1mp0 = reference_log1mexp(log_p0)
    ll = (
        special.gammaln(y + theta)
        - special.gammaln(theta)
        - special.gammaln(y + 1.0)
        + log_p0
        + y * (eta - log_denom)
        - log_1mp0
    )
    p0_over_1mp0 = np.exp(log_p0 - log_1mp0)
    dll_deta = y - (y + theta) * mu / denom - theta * mu / denom * p0_over_1mp0
    dll_dtheta = (
        special.digamma(y + theta)
        - special.digamma(theta)
        + log_ratio
        + 1.0
        - (theta + y) / denom
        + (log_ratio + mu / denom) * p0_over_1mp0
    )
    return float(ll.sum()), np.concatenate([X.T @ dll_deta, [theta * dll_dtheta.sum()]])


class TestZtnbDistinctCounts:
    def test_counts_are_distinct_values_and_log_factorials(self):
        y = np.array([3.0, 1.0, 3.0, 7.0, 1.0])
        distinct, inverse, log_factorial = H.ztnb_counts(y)
        np.testing.assert_array_equal(distinct, [1.0, 3.0, 7.0])
        np.testing.assert_array_equal(distinct[inverse], y)
        np.testing.assert_array_equal(log_factorial, special.gammaln(y + 1.0))

    @pytest.mark.parametrize("seed", [13, 21])
    def test_fit_identical_to_per_row_kernel(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=800)
        y = sample_ztnb(rng, np.exp(1.0 + 0.3 * x), theta=1.2)
        fits = [H.fit_ztnb(H.make_design(x, y, "x", standardize=True)),
                H.fit_ztnb(H.intercept_design(y))]
        monkeypatch.setattr(H, "ztnb_loglik", lambda params, X, y, counts=None:
                            reference_fused_ztnb_loglik(params, X, y))
        refs = [H.fit_ztnb(H.make_design(x, y, "x", standardize=True)),
                H.fit_ztnb(H.intercept_design(y))]
        for fit, ref in zip(fits, refs):
            assert fit.coef.tobytes() == ref.coef.tobytes()
            assert (fit.loglik, fit.theta, fit.grad_norm) == (ref.loglik, ref.theta, ref.grad_norm)
            assert fit.iterations == ref.iterations

    def test_zero_probability_rounding_to_one_is_a_convergence_error(self):
        # mu = e^-200 against theta = 1: theta + mu == theta, so log p0 == 0.0
        # and the truncated likelihood 1 / (1 - p0) would be +inf.
        X, y = np.ones((3, 1)), np.array([1.0, 4.0, 9.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=r"ln theta = 0\.0\b"):
                H.ztnb_loglik(np.array([-200.0, 0.0]), X, y)


class TestFitZtnb:
    def test_zero_outcome_rejected(self):
        design = H.intercept_design(np.array([0.0, 3.0, 5.0]))
        with pytest.raises(PreconditionError):
            H.fit_ztnb(design)

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(12)
        n = 20_000
        x = rng.normal(size=n)
        mu = np.exp(1.0 + 0.5 * x)
        y = sample_ztnb(rng, mu, theta=2.0)
        fit = H.fit_ztnb(H.make_design(x, y, "x", standardize=False))
        assert fit.coef[0] == pytest.approx(1.0, abs=0.05)
        assert fit.coef[1] == pytest.approx(0.5, abs=0.05)
        assert fit.theta == pytest.approx(2.0, rel=0.10)
        assert fit.grad_norm <= 1e-6

    def test_loglik_not_below_the_starting_point(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=800)
        y = sample_ztnb(rng, np.exp(1.0 + 0.3 * x), theta=1.2)
        design = H.make_design(x, y, "x", standardize=True)
        fit = H.fit_ztnb(design)
        start = np.array([np.log(y.mean()), 0.0, 0.0])  # fit_ztnb's x0: theta 1
        assert fit.iterations > 0
        assert fit.loglik > H.ztnb_loglik(start, design.X, y)[0]

    def test_one_kernel_call_per_evaluated_point(self, monkeypatch):
        # One kernel call per point the optimiser evaluates, and the fit
        # reports a value the kernel returned.
        points, values = [], []
        kernel = H.ztnb_loglik

        def counted(params, X, y, counts=None):
            value, gradient = kernel(params, X, y, counts)
            points.append(params.tobytes())
            values.append(value)
            return value, gradient

        monkeypatch.setattr(H, "ztnb_loglik", counted)
        rng = np.random.default_rng(13)
        x = rng.normal(size=800)
        y = sample_ztnb(rng, np.exp(1.0 + 0.3 * x), theta=1.2)
        fit = H.fit_ztnb(H.make_design(x, y, "x", standardize=True))
        assert fit.loglik in values
        assert len(set(points)) == len(points)

    def test_standardization_invariance(self):
        rng = np.random.default_rng(14)
        x = 5.0 + 2.0 * rng.normal(size=3_000)
        y = sample_ztnb(rng, np.exp(0.5 + 0.2 * (x - 5.0)), theta=2.5)
        raw = H.fit_ztnb(H.make_design(x, y, "x", standardize=False))
        scaled = H.fit_ztnb(H.make_design(x, y, "x", standardize=True))
        assert scaled.loglik == pytest.approx(raw.loglik, abs=1e-6)
        assert scaled.coef[1] == pytest.approx(raw.coef[1] * x.std(), rel=1e-4)


class TestLrt:
    @staticmethod
    def _fits(seed=15):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=2_000)
        y = (rng.random(2_000) < 1 / (1 + np.exp(-(0.3 * x)))).astype(float)
        full = H.fit_logistic(H.make_design(x, y, "x", standardize=True))
        reduced = H.fit_logistic(H.intercept_design(y))
        return full, reduced

    def test_identical_fits_give_zero_statistic_p_one(self):
        full, _ = self._fits()
        res = H.lrt(full, full)
        assert res.statistic == 0.0
        assert res.p == 1.0

    def test_p_for_statistic_3841_df_1_matches_quadrature_oracle(self):
        full, reduced = self._fits()
        fake_full = H.HurdleFit(
            coef=full.coef, columns=full.columns,
            loglik=reduced.loglik + 3.841 / 2, n_rows=full.n_rows,
        )
        res = H.lrt(fake_full, reduced)
        # independent oracle: numerically integrate the chi-square(1) density
        density = lambda t: math.exp(-t / 2) / math.sqrt(2 * math.pi * t)
        tail, _err = integrate.quad(density, 3.841, np.inf)
        assert fake_full.n_params - reduced.n_params == 1  # one degree of freedom
        assert res.p == pytest.approx(tail, abs=1e-8)
        assert res.p == pytest.approx(0.05, abs=1e-3)

    def test_nesting_violation_detected(self):
        full, reduced = self._fits()
        worse = H.HurdleFit(
            coef=full.coef, columns=full.columns,
            loglik=reduced.loglik - 1.0, n_rows=full.n_rows,
        )
        with pytest.raises(ConvergenceError):
            H.lrt(worse, reduced)

    def test_non_subset_columns_rejected(self):
        full, reduced = self._fits()
        with pytest.raises(PreconditionError):
            H.lrt(reduced, full)

    def test_null_p_values_approximately_uniform(self):
        # true effect is zero; LRT p across replications should look uniform
        rng = np.random.default_rng(16)
        pvals = []
        for _ in range(150):
            x = rng.normal(size=400)
            y = (rng.random(400) < 0.4).astype(float)
            if y.min() == y.max():
                continue
            full = H.fit_logistic(H.make_design(x, y, "x", standardize=True))
            reduced = H.fit_logistic(H.intercept_design(y))
            pvals.append(H.lrt(full, reduced).p)
        ks = stats.kstest(pvals, "uniform")
        assert ks.pvalue > 1e-3


class TestFeatureBattery:
    def test_rows_produced_with_fit_or_recorded_error(self):
        rng = np.random.default_rng(17)
        n = 400
        counts = np.where(rng.random(n) < 0.4, rng.integers(10, 200, n), 0)
        regions = rng.choice(["lead", "body", "navbox"], size=n)
        table = toy_table(counts, region=list(regions))
        rows = H.feature_battery(table, threshold=10)
        assert len(rows) == len(H.BATTERY)
        for row in rows:
            assert (row.binomial_coef is not None) or row.binomial_error
            assert (row.ztnb_coef is not None) or row.ztnb_error

    def test_absent_region_reports_collinearity(self):
        rng = np.random.default_rng(18)
        n = 300
        counts = np.where(rng.random(n) < 0.4, rng.integers(10, 60, n), 0)
        table = toy_table(counts, region=["body"] * n)  # no infobox links at all
        rows = {r.feature: r for r in H.feature_battery(table, threshold=10)}
        assert "CollinearityError" in rows["position = infobox"].binomial_error

    @pytest.mark.parametrize("counts, binomial, ztnb", [
        ([0, 3, 9] * 20, "SeparationError: outcome is constant; logistic MLE does not exist",
         "PreconditionError: no links reach the ztnb stage"),
        ([10, 30, 90] * 20, "SeparationError: outcome is constant; logistic MLE does not exist",
         None),
    ], ids=["no-link-used", "every-link-used"])
    def test_failed_baseline_error_is_each_rows_error_once(self, counts, binomial, ztnb):
        rows = H.feature_battery(toy_table(counts), threshold=10)
        assert [r.binomial_error for r in rows] == [binomial] * len(H.BATTERY)
        assert all(r.binomial_coef is None for r in rows)
        if ztnb is None:
            assert rows[0].ztnb_coef is not None and not rows[0].ztnb_error
        else:
            assert [r.ztnb_error for r in rows] == [ztnb] * len(H.BATTERY)

    def test_failed_ztnb_baseline_keeps_its_own_type(self, monkeypatch):
        def no_optimum(design):
            raise ConvergenceError("no optimum")

        monkeypatch.setattr(H, "fit_ztnb", no_optimum)
        rows = H.feature_battery(toy_table([0, 12, 40] * 20), threshold=10)
        assert [r.ztnb_error for r in rows] == ["ConvergenceError: no optimum"] * len(H.BATTERY)
        assert rows[0].binomial_coef is not None
