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
    *((f"position = {region}", "none") for region in REGIONS),
    ("x_coord", "scale"),
    ("y_coord", "scale"),
)

#: Newton iterations stop when the largest score component over n reaches this.
LOGISTIC_TOL = 1e-10
LOGISTIC_MAX_ITER = 100
#: L-BFGS-B iteration cap of a ZTNB fit, which starts at theta = 1.
ZTNB_MAX_ITER = 500


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
    coef: np.ndarray
    columns: tuple[str, ...]
    loglik: float
    theta: float | None = None
    iterations: int = 0
    grad_norm: float = math.nan
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
    # log sigma(+-eta) = -log(1 + e^-+eta) without overflow; each row is
    # negated before the sum, as a sum of -0.0 terms is +0.0
    return float((-np.logaddexp(0.0, np.where(y > 0, -eta, eta))).sum())


def fit_logistic(design: DesignMatrix) -> HurdleFit:
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
    for it in range(LOGISTIC_MAX_ITER + 1):
        prob = special.expit(eta)
        grad = X.T @ (y - prob)
        gnorm = float(np.abs(grad).max()) / n

        if np.abs(beta).max() > 30.0:
            margins = (2.0 * y - 1.0) * eta
            if margins.min() > 0 or ll > -1e-6 * n:
                raise SeparationError(
                    "perfect separation: deviance collapsing, coefficients diverging"
                )
        if gnorm <= LOGISTIC_TOL:
            return HurdleFit(coef=beta, columns=design.columns, loglik=ll,
                             iterations=it, grad_norm=gnorm, n_rows=n)

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
    raise ConvergenceError(f"logistic fit did not converge in {LOGISTIC_MAX_ITER} iterations",
                           last=beta, iterations=LOGISTIC_MAX_ITER)


# ---------------------------------------------------------------------------
# Zero-truncated negative binomial
# ---------------------------------------------------------------------------


def _log1mexp(z: np.ndarray) -> np.ndarray:
    # log(1 - e^z) for z < 0, stable on both ends: each row takes the branch
    # that is stable for it (the first above -ln 2); the other may divide by
    # zero there, which is ignored
    with np.errstate(divide="ignore"):
        return np.where(z > -0.6931471805599453, np.log(-np.expm1(z)), np.log1p(-np.exp(z)))


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


def fit_ztnb(design: DesignMatrix) -> HurdleFit:
    """Joint quasi-Newton ascent over (beta, ln theta).

    One :func:`ztnb_loglik` call per point L-BFGS-B evaluates, sharing one
    :func:`ztnb_counts`.  All outcomes must be >= 1; a fit that stops short
    of the gradient tolerance raises :class:`ConvergenceError`.
    """
    X, y = design.X, design.y
    if y.min() < 1:
        raise PreconditionError("zero-truncated outcome must be >= 1")
    _check_collinearity(X, design.columns)
    n, p = X.shape

    x0 = np.zeros(p + 1)  # ln theta starts at 0
    x0[0] = math.log(float(y.mean()))

    counts = ztnb_counts(y)

    def objective(params):
        ll, grad = ztnb_loglik(params, X, y, counts)
        return -ll, -grad

    res = optimize.minimize(
        objective, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": ZTNB_MAX_ITER, "ftol": 1e-14, "gtol": 1e-9},
    )
    ll = -float(res.fun)
    gnorm = float(np.abs(res.jac).max()) / n
    if gnorm > 1e-6:
        raise ConvergenceError(
            f"ztnb fit did not converge (scaled gradient {gnorm:.2e}): {res.message}",
            last=res.x, iterations=int(res.nit),
        )
    return HurdleFit(
        coef=res.x[:-1], columns=design.columns, loglik=ll, theta=float(math.exp(res.x[-1])),
        iterations=int(res.nit), grad_norm=gnorm, n_rows=n,
    )


@dataclass(frozen=True)
class LrtResult:
    statistic: float
    p: float


def lrt(full: HurdleFit, reduced: HurdleFit) -> LrtResult:
    """Likelihood-ratio chi-square test of nested fits: the statistic and its p.

    statistic = 2 (lnL_full - lnL_reduced); p is the chi-square survival
    function at as many degrees of freedom as the full fit has extra
    parameters, computed as the regularized upper incomplete gamma.
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
    return LrtResult(statistic=stat, p=p)


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
    if spec.startswith("position = "):  # every BATTERY label is one of ingest.REGIONS
        return (table.data["region"] == spec.split(" = ", 1)[1]).astype(np.float64)
    return np.asarray(table.data[spec], dtype=np.float64)


def feature_battery(table: LinkFeatureTable, threshold: int = 10) -> list[BatteryRow]:
    """One-feature-at-a-time hurdle fits with LRT against intercept-only.

    Per-feature failures (separation, collinearity, non-convergence) are
    recorded in the row rather than aborting the battery; when a part's
    intercept-only fit fails, every row of that part carries its error.
    """
    split = split_hurdle(table, threshold)
    # (part, fitter, outcome, rows), built per call so that the fitters are
    # the module's at call time
    parts = (("binomial", fit_logistic, split.binary_y, slice(None)),
             ("ztnb", fit_ztnb, split.count_y, split.count_rows))
    reduced: dict[str, HurdleFit | str] = {}
    for part, fit, y, _rows in parts:
        try:
            if not len(y):
                raise PreconditionError(f"no links reach the {part} stage")
            reduced[part] = fit(intercept_design(y))
        except Exception as exc:
            reduced[part] = f"{type(exc).__name__}: {exc}"

    rows: list[BatteryRow] = []
    for spec, transform in BATTERY:
        values = _battery_feature(table, spec)
        kw: dict = {"feature": spec, "transformation": transform}
        for part, fit, y, part_rows in parts:
            if isinstance(reduced[part], str):
                kw[f"{part}_error"] = reduced[part]
                continue
            try:
                full = fit(make_design(values[part_rows], y, spec, transform == "scale"))
                comp = lrt(full, reduced[part])
                kw.update({f"{part}_coef": float(full.coef[1]), f"{part}_lrt": comp.statistic,
                           f"{part}_p": comp.p})
            except Exception as exc:
                kw[f"{part}_error"] = f"{type(exc).__name__}: {exc}"
        rows.append(BatteryRow(**kw))
    return rows
