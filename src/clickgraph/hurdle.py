"""Fixed-effects hurdle regression of link success.

Stage one is a binomial logistic model of whether a link was used at least
``threshold`` times; stage two is a zero-truncated negative binomial model of
the counts of used links, fitted by L-BFGS-B on one kernel that returns the
log-likelihood and its gradient together.  Features are modeled one at a time
against an intercept-only reduction, judged by likelihood-ratio chi-square
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .errors import (
    CollinearityError,
    ConvergenceError,
    PreconditionError,
    SeparationError,
)
from .ingest import REGIONS, LinkFeatureTable

#: Feature battery in report order: (column or region indicator, transformation).
BATTERY = (
    ("trg_degree", "scale"),
    ("trg_in_degree", "scale"),
    ("trg_out_degree", "scale"),
    ("trg_kcore", "scale"),
    ("trg_pagerank", "scale"),
    ("text_sim", "scale"),
    ("topic_sim", "scale"),
    ("position = lead", "none"),
    ("position = body", "none"),
    ("position = left-body", "none"),
    ("position = right-body", "none"),
    ("position = infobox", "none"),
    ("position = navbox", "none"),
    ("x_coord", "scale"),
    ("y_coord", "scale"),
)


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Rows are links; first column is the intercept.

    Continuous predictors are z-scored over the fitted rows (binary
    indicators are left as is).
    """

    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]


def make_design(
    feature: np.ndarray,
    y: np.ndarray,
    name: str,
    standardize: bool,
) -> DesignMatrix:
    """Intercept + one predictor, optionally z-scored over these rows."""
    x = np.asarray(feature, dtype=np.float64)
    if standardize:
        mean = float(x.mean())
        sd = float(x.std())
        if sd == 0.0:
            raise CollinearityError([name])
        x = (x - mean) / sd
    X = np.column_stack([np.ones(len(x)), x])
    return DesignMatrix(X=X, y=np.asarray(y, dtype=np.float64), columns=("intercept", name))


def intercept_design(y: np.ndarray) -> DesignMatrix:
    y = np.asarray(y, dtype=np.float64)
    return DesignMatrix(X=np.ones((len(y), 1)), y=y, columns=("intercept",))


@dataclass(frozen=True)
class HurdleSplit:
    binary_y: np.ndarray      # 0/1 over all links
    count_rows: np.ndarray    # indices of links with count >= threshold
    count_y: np.ndarray


def split_hurdle(table: LinkFeatureTable, threshold: int = 10) -> HurdleSplit:
    """Split transition counts into the two hurdle stages."""
    if threshold < 1:
        raise PreconditionError("threshold must be >= 1")
    counts = table.data["transitions"]
    binary = (counts >= threshold).astype(np.float64)
    rows = np.flatnonzero(binary > 0)
    return HurdleSplit(binary_y=binary, count_rows=rows, count_y=counts[rows])


@dataclass(frozen=True, eq=False)
class HurdleFit:
    stage: str                # "binomial" | "ztnb"
    coef: np.ndarray
    columns: tuple[str, ...]
    loglik: float
    theta: float | None = None
    iterations: int = 0
    grad_norm: float = math.nan
    converged: bool = False
    ll_trace: tuple[float, ...] = ()
    n_rows: int = 0

    @property
    def n_params(self) -> int:
        return len(self.coef) + (1 if self.theta is not None else 0)


def _check_collinearity(X: np.ndarray, columns: tuple[str, ...]) -> None:
    _q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    ref = diag.max() if diag.size else 0.0
    bad = [columns[k] for k in range(len(diag)) if diag[k] <= 1e-10 * max(ref, 1.0)]
    if bad:
        raise CollinearityError(bad)


def _logistic_ll(eta: np.ndarray, y: np.ndarray) -> float:
    # log sigma(eta) = -log(1 + e^-eta) without overflow
    return float(np.where(y > 0, -np.logaddexp(0.0, -eta), -np.logaddexp(0.0, eta)).sum())


def fit_logistic(design: DesignMatrix, tol: float = 1e-10, max_iter: int = 100) -> HurdleFit:
    """Bernoulli logistic regression by damped Newton iterations.

    Each Newton step reuses the linear predictor of the accepted line-search
    point.  Raises :class:`SeparationError` when the outcome is constant or
    the data are perfectly separated (deviance collapsing, coefficients
    diverging) and :class:`CollinearityError` when the design is rank-deficient.
    """
    X, y = design.X, design.y
    if set(np.unique(y)) - {0.0, 1.0}:
        raise PreconditionError("logistic outcome must be 0/1")
    if y.min() == y.max():
        raise SeparationError("outcome is constant; logistic MLE does not exist")
    _check_collinearity(X, design.columns)

    n, p = X.shape
    beta = np.zeros(p)
    eta = X @ beta
    ll = _logistic_ll(eta, y)
    trace = [ll]
    for it in range(max_iter + 1):
        prob = special.expit(eta)
        grad = X.T @ (y - prob)
        gnorm = float(np.abs(grad).max()) / n

        if np.abs(beta).max() > 30.0:
            margins = (2.0 * y - 1.0) * eta
            if margins.min() > 0 or ll > -1e-6 * n:
                raise SeparationError(
                    "perfect separation: deviance collapsing, coefficients diverging"
                )
        if gnorm <= tol:
            return HurdleFit(
                stage="binomial", coef=beta, columns=design.columns, loglik=ll,
                iterations=it, grad_norm=gnorm, converged=True,
                ll_trace=tuple(trace), n_rows=n,
            )

        w = prob * (1.0 - prob)
        hess = X.T @ (X * w[:, None])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise CollinearityError(design.columns)

        lam = 1.0
        for _ in range(30):  # halve until the likelihood improves
            cand = beta + lam * step
            cand_eta = X @ cand
            cand_ll = _logistic_ll(cand_eta, y)
            if cand_ll >= ll:
                break
            lam *= 0.5
        else:
            break
        beta, eta, ll = cand, cand_eta, cand_ll
        trace.append(ll)
    raise ConvergenceError(
        f"logistic fit did not converge in {max_iter} iterations",
        last=beta, iterations=max_iter, trace=trace,
    )


# ---------------------------------------------------------------------------
# Zero-truncated negative binomial
# ---------------------------------------------------------------------------


def _log1mexp(z: np.ndarray) -> np.ndarray:
    # log(1 - e^z) for z < 0, stable on both ends
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = z > -0.6931471805599453  # ln 2
    out[small] = np.log(-np.expm1(z[small]))
    out[~small] = np.log1p(-np.exp(z[~small]))
    return out


def ztnb_counts(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`ztnb_loglik` needs of the counts alone, computed once per
    fit: the distinct counts, each row's index among them, and
    ``gammaln(y + 1)``."""
    distinct, inverse = np.unique(y, return_inverse=True)
    return distinct, inverse, special.gammaln(y + 1.0)


def ztnb_loglik(
    params: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    counts: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Log-likelihood of counts y >= 1 under NB(mu, theta) truncated at zero
    and its analytic gradient, as ``(value, gradient)`` from one pass.

    ``params`` is (beta..., ln theta) with log link mu = exp(X beta);
    the zero probability NB(0; mu, theta) = (theta / (theta + mu))^theta.
    ``counts`` is ``ztnb_counts(y)``, computed here when not given; the
    ``gammaln`` and ``digamma`` terms of ``y + theta`` are taken once per
    distinct count.  A theta outside the float range, or one at which a
    row's zero probability rounds to 1 (its truncated likelihood would be
    +inf), raises :class:`ConvergenceError`.
    """
    try:
        theta = math.exp(params[-1])
        log_theta = math.log(theta)
    except (OverflowError, ValueError):
        raise ConvergenceError(
            f"ztnb theta out of float range at ln theta = {float(params[-1])!r}", last=params
        ) from None
    distinct, inverse, log_y_factorial = ztnb_counts(y) if counts is None else counts
    eta = X @ params[:-1]
    mu = np.exp(eta)
    denom = theta + mu
    log_denom = np.log(denom)
    log_ratio = log_theta - log_denom  # ln(theta/(theta+mu)) < 0
    log_p0 = theta * log_ratio
    if (log_p0 == 0.0).any():
        raise ConvergenceError(
            f"ztnb zero probability rounds to 1 at ln theta = {float(params[-1])!r}", last=params
        )
    log_1mp0 = _log1mexp(log_p0)
    ll = (
        special.gammaln(distinct + theta)[inverse]
        - special.gammaln(theta)
        - log_y_factorial
        + log_p0
        + y * (eta - log_denom)
        - log_1mp0
    )
    # p0 / (1 - p0), stable while p0 -> 1
    p0_over_1mp0 = np.exp(log_p0 - log_1mp0)

    # d ll / d eta = y - (y + theta) mu / denom - theta mu / denom * p0/(1-p0)
    dll_deta = y - (y + theta) * mu / denom - theta * mu / denom * p0_over_1mp0
    dll_dtheta = (
        special.digamma(distinct + theta)[inverse]
        - special.digamma(theta)
        + log_ratio
        + 1.0
        - (theta + y) / denom
        + (log_ratio + mu / denom) * p0_over_1mp0
    )
    return float(ll.sum()), np.concatenate([X.T @ dll_deta, [theta * dll_dtheta.sum()]])


def fit_ztnb(design: DesignMatrix, theta_init: float = 1.0, max_iter: int = 500) -> HurdleFit:
    """Joint quasi-Newton ascent over (beta, ln theta).

    One :func:`ztnb_loglik` call per point L-BFGS-B evaluates, sharing one
    :func:`ztnb_counts`; the trace is the likelihood it reports at each
    iterate.  All outcomes must be >= 1;
    a fit that stops short of the gradient tolerance raises
    :class:`ConvergenceError` with the trace attached.
    """
    X, y = design.X, design.y
    if y.min() < 1:
        raise PreconditionError("zero-truncated outcome must be >= 1")
    if theta_init <= 0:
        raise PreconditionError("theta_init must be positive")
    _check_collinearity(X, design.columns)
    n, p = X.shape

    x0 = np.zeros(p + 1)
    x0[0] = math.log(float(y.mean()))
    x0[-1] = math.log(theta_init)

    trace: list[float] = []
    counts = ztnb_counts(y)

    def objective(params):
        ll, grad = ztnb_loglik(params, X, y, counts)
        return -ll, -grad

    def record(intermediate_result):
        trace.append(-intermediate_result.fun)

    res = optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        callback=record,
        options={"maxiter": max_iter, "ftol": 1e-14, "gtol": 1e-9},
    )
    ll = -float(res.fun)
    gnorm = float(np.abs(res.jac).max()) / n
    if gnorm > 1e-6:
        raise ConvergenceError(
            f"ztnb fit did not converge (scaled gradient {gnorm:.2e}): {res.message}",
            last=res.x, iterations=int(res.nit), trace=trace,
        )
    return HurdleFit(
        stage="ztnb", coef=res.x[:-1], columns=design.columns, loglik=ll,
        theta=float(math.exp(res.x[-1])), iterations=int(res.nit),
        grad_norm=gnorm, converged=True, ll_trace=tuple(trace), n_rows=n,
    )


@dataclass(frozen=True)
class LrtResult:
    statistic: float
    df: int
    p: float


def lrt(full: HurdleFit, reduced: HurdleFit) -> LrtResult:
    """Likelihood-ratio chi-square test of nested fits.

    statistic = 2 (lnL_full - lnL_reduced); p is the chi-square survival
    function, computed as the regularized upper incomplete gamma.
    """
    if not set(reduced.columns) <= set(full.columns):
        raise PreconditionError("reduced model columns must be a subset of the full model's")
    if full.n_rows != reduced.n_rows:
        raise PreconditionError("both fits must use the same rows")
    stat = 2.0 * (full.loglik - reduced.loglik)
    if stat < -1e-6:
        raise ConvergenceError(
            f"nesting violated numerically: full lnL {full.loglik:.6f} < reduced {reduced.loglik:.6f}"
        )
    stat = max(stat, 0.0)
    df = full.n_params - reduced.n_params
    p = 1.0 if df == 0 else float(special.gammaincc(df / 2.0, stat / 2.0))
    return LrtResult(statistic=stat, df=df, p=p)


@dataclass(frozen=True)
class BatteryRow:
    feature: str
    transformation: str
    binomial_coef: float | None = None
    binomial_lrt: float | None = None
    binomial_p: float | None = None
    binomial_error: str = ""
    ztnb_coef: float | None = None
    ztnb_lrt: float | None = None
    ztnb_p: float | None = None
    ztnb_error: str = ""


def _battery_feature(table: LinkFeatureTable, spec: str) -> np.ndarray:
    if spec.startswith("position = "):
        label = spec.split(" = ", 1)[1]
        if label not in REGIONS:
            raise PreconditionError(f"unknown region {label!r}")
        return (table.data["region"] == label).astype(np.float64)
    return np.asarray(table.data[spec], dtype=np.float64)


def feature_battery(
    table: LinkFeatureTable,
    threshold: int = 10,
    features: tuple[tuple[str, str], ...] = BATTERY,
) -> list[BatteryRow]:
    """One-feature-at-a-time hurdle fits with LRT against intercept-only.

    Per-feature failures (separation, collinearity, non-convergence) are
    recorded in the row rather than aborting the battery.
    """
    split = split_hurdle(table, threshold)
    rows: list[BatteryRow] = []

    reduced_bin, reduced_bin_err = None, ""
    try:
        reduced_bin = fit_logistic(intercept_design(split.binary_y))
    except Exception as exc:
        reduced_bin_err = f"{type(exc).__name__}: {exc}"
    reduced_cnt, reduced_cnt_err = None, ""
    try:
        if not len(split.count_rows):
            raise PreconditionError("no links reach the count stage")
        reduced_cnt = fit_ztnb(intercept_design(split.count_y))
    except Exception as exc:
        reduced_cnt_err = f"{type(exc).__name__}: {exc}"

    for spec, transform in features:
        values = _battery_feature(table, spec)
        kw: dict = {"feature": spec, "transformation": transform}
        try:
            if reduced_bin is None:
                raise SeparationError(reduced_bin_err or "no baseline binomial fit")
            design = make_design(values, split.binary_y, spec, transform == "scale")
            fit = fit_logistic(design)
            comp = lrt(fit, reduced_bin)
            kw.update(binomial_coef=float(fit.coef[1]), binomial_lrt=comp.statistic, binomial_p=comp.p)
        except Exception as exc:
            kw.update(binomial_error=f"{type(exc).__name__}: {exc}")
        try:
            if reduced_cnt is None:
                raise PreconditionError(reduced_cnt_err or "no baseline count fit")
            sub = values[split.count_rows]
            design = make_design(sub, split.count_y, spec, transform == "scale")
            fit = fit_ztnb(design)
            comp = lrt(fit, reduced_cnt)
            kw.update(ztnb_coef=float(fit.coef[1]), ztnb_lrt=comp.statistic, ztnb_p=comp.p)
        except Exception as exc:
            kw.update(ztnb_error=f"{type(exc).__name__}: {exc}")
        rows.append(BatteryRow(**kw))
    return rows
