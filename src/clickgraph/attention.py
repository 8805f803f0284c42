"""Focus-of-attention statistics.

How strongly clicks concentrate on few links: the transition-count
distribution, out-degree comparison between the full link network and the
used subnetwork, per-article Gini coefficients, and maximum-likelihood fits
of candidate count distributions compared by AIC.

The truncated power-law and log-normal normalisers sum the first 20,000
terms of the discrete series exactly, over a support grid cached per xmin,
and add the rest as a tail term: a midpoint-corrected integral for the
truncated power law, a closed-form Gaussian tail for the log-normal.  The
integral is QUADPACK's, through ``quad`` with ``full_output``: a failed
integration hands back its message with the value instead of issuing a
warning, so no call swaps the process-wide warning filter.

Each family's log-likelihood is written once, in ``_loglik``:
``family_loglik`` returns it, and every fit minimises its negation.  The
two Nelder-Mead fits run through one driver and score each point once.
When the simplex collapses (the log-normal walk on a power-law-like tail
does, and runs to its iteration cap), Nelder-Mead asks again for points it
has already scored; a memo local to the fit, keyed on the point's exact
bytes, answers those with the value computed the first time.  The
optimiser sees the same values in the same order, so its path, call count
and result are unchanged.
Within a log-normal step the head runs in place in one row and folds the
sign of ``-log x`` into its quadratic term instead of negating ``log x``
again, and the data term is computed once per distinct count; both keep
every bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from .errors import DegenerateInputError, InsufficientDataError
from .graph import LinkGraph
from .ingest import TransitionLog

FAMILIES = ("power_law", "truncated_power_law", "lognormal", "exponential")

# Exact partial sum up to xmin + this many terms; the remaining tail of the
# normalization series is a midpoint-corrected integral.
_NORM_EXACT_TERMS = 20000

# np.exp returns +0.0 below ln(2**-1075) ~ -745.1332; a shifted head term
# below this bound is written as that +0.0 instead of being passed to exp,
# whose subnormal path is several times slower.
_EXP_ZERO = -745.2


@dataclass(frozen=True)
class ConcentrationStats:
    total_transitions: int
    top_k: int | None          # smallest k with top-k links >= half the transitions
    top_share: float | None    # share carried by those k links


def transition_histogram(log: TransitionLog) -> tuple[dict[int, int], ConcentrationStats]:
    """Frequency of each transition-count value plus concentration stats."""
    if len(log) == 0:
        return {}, ConcentrationStats(0, None, None)
    values, freqs = np.unique(log.count, return_counts=True)
    hist = {int(v): int(f) for v, f in zip(values, freqs)}
    desc = np.sort(log.count)[::-1]
    cum = np.cumsum(desc)
    total = int(cum[-1])
    k = int(np.searchsorted(cum, 0.5 * total) + 1)
    return hist, ConcentrationStats(total, k, float(cum[k - 1] / total))


def outdegree_comparison(g: LinkGraph, log: TransitionLog) -> tuple[np.ndarray, np.ndarray]:
    """Out-degrees in the full network and in the used subnetwork, in node order.

    Only nodes appearing as transition sources enter either sample, so the
    two range over the same node set.
    """
    trans_out = np.bincount(log.src, minlength=g.n_nodes)
    shared = trans_out > 0  # a transition source always has wiki out-links too
    return g.out_degrees()[shared], trans_out[shared]


def gini(values) -> float:
    """Gini coefficient of nonnegative counts, zeros included.

    Uses the sorted O(n log n) identity for sum_i sum_j |x_i - x_j| / (2 n^2 mu).
    Only where the sum or the rank product of finite values overflows is the
    identity taken on the values divided by their maximum, so every result
    that does not overflow keeps its bits.  An empty vector, a value that is
    not finite, a negative value or an all-zero vector raises
    :class:`DegenerateInputError`.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise DegenerateInputError("gini of an empty vector")
    if not np.isfinite(x).all():
        raise DegenerateInputError("gini requires finite values")
    if (x < 0).any():
        raise DegenerateInputError("gini requires nonnegative values")
    xs = np.sort(x)
    if xs[-1] == 0:
        raise DegenerateInputError("gini of an all-zero vector is undefined")
    n = x.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        g = 2.0 * np.dot(ranks, xs) / (n * x.sum()) - (n + 1.0) / n
    if not np.isfinite(g):  # the sum or the rank product overflowed
        return gini(x / xs[-1])
    return float(g)


def per_article_gini(g: LinkGraph, log: TransitionLog) -> tuple[np.ndarray, int]:
    """Gini of each source article's out-link count vector (zeros included).

    Articles whose links saw no transitions at all have an undefined Gini and
    are excluded; the second return value tallies them.
    """
    counts = log.aligned_counts(g)
    indptr = g.out_indptr
    ginis: list[float] = []
    skipped = 0
    for i in range(g.n_nodes):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo:
            continue
        row = counts[lo:hi]
        if row.sum() == 0:
            skipped += 1
            continue
        ginis.append(gini(row))
    return np.asarray(ginis), skipped


# ---------------------------------------------------------------------------
# Discrete distribution fitting (support x >= xmin, integer x)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyFit:
    params: dict[str, float]
    loglik: float
    aic: float
    converged: bool
    message: str = ""


@dataclass(frozen=True)
class FitReport:
    n_tail: int
    fits: dict[str, FamilyFit]
    winner: str
    delta_aic: dict[str, float]


def _tail_integral(alpha: float, lam: float, a: float) -> float:
    """Integral of t^-alpha e^(-lam t) over [a, inf), the truncated power law's tail.

    ``full_output`` makes quad return QUADPACK's message for a failed
    integration instead of issuing a warning; the value is the same.
    """
    return integrate.quad(lambda t: math.exp(-alpha * math.log(t) - lam * t),
                          a, np.inf, limit=200, full_output=1)[0]


def _log_norm_pl(alpha: float, xmin: int) -> float:
    return float(np.log(special.zeta(alpha, xmin)))


@functools.lru_cache(maxsize=8)
def _grid(xmin: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact-head support ``x = xmin .. xmin + _NORM_EXACT_TERMS - 1`` and
    its ``log x``, read-only and shared by every optimiser step."""
    x = np.arange(xmin, xmin + _NORM_EXACT_TERMS, dtype=np.float64)
    lx = np.log(x)
    x.flags.writeable = False
    lx.flags.writeable = False
    return x, lx


def _logsumexp(a: np.ndarray, out: np.ndarray | None = None) -> np.float64:
    """``scipy.special.logsumexp(a)`` for a non-empty 1-D float64 array.

    The same arithmetic, step for step, without the array-API dispatch: the
    tied maxima are split out of the shifted sum and added back as
    ``log(m)``. A non-finite maximum is returned at once: it is scipy's
    answer (NaN, +inf, or -inf when every term is -inf), and the shifted
    sum would only trip NumPy's invalid-value flag.  The shifted terms go to
    ``out``, a float64 array of ``a``'s shape that may be ``a`` itself;
    without it they go to a new array and ``a`` is left alone.

    When an end of ``a`` lies below ``a_max + _EXP_ZERO``, exp runs only on
    the terms above that bound and the rest are written as the +0.0 exp
    would return, so the sum keeps every bit.  The ends suffice: on both
    heads' grids the smallest term lies at an end (the truncated power
    law's terms never increase, the log-normal's are concave in log x); a
    wrong guess would cost time, not bits.
    """
    i = int(a.argmax())  # the first maximum, or the first NaN
    a_max = a[i]
    if not np.isfinite(a_max):
        return a_max
    deep = min(a[0], a[-1]) - a_max < _EXP_ZERO  # read before `out` may overwrite `a`
    shifted = np.subtract(a, a_max, out=out)
    shifted[i] = -np.inf
    m = 1
    # A term ties a_max exactly where its shift is 0 (distinct finite floats
    # never differ by 0); one max pass finds whether any does.
    if shifted.max() == 0:
        tied = shifted == 0
        m += np.count_nonzero(tied)
        shifted[tied] = -np.inf
    if deep:
        live = shifted >= _EXP_ZERO
        np.exp(shifted, out=shifted, where=live)
        shifted[~live] = 0.0
    else:
        np.exp(shifted, out=shifted)
    s = shifted.sum()
    m = np.float64(m)
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def _head_plus_tail(head: np.float64, tail: float) -> float:
    """A normaliser's log: the exact head's log-sum plus its tail term."""
    return float(np.logaddexp(head, np.log(tail) if tail > 0 else -np.inf))


def _log_norm_tpl(alpha: float, lam: float, xmin: int) -> float:
    # Z = sum_{x >= xmin} x^-alpha e^(-lam x): exact head plus midpoint tail.
    x, lx = _grid(xmin)
    # -alpha * lx - lam * x, term by term, in place
    terms = np.multiply(lx, -alpha)
    terms -= x * lam
    head = _logsumexp(terms, out=terms)
    return _head_plus_tail(head, _tail_integral(alpha, lam, xmin + _NORM_EXACT_TERMS - 0.5))


def _log_norm_lognormal(mu: float, sigma: float, xmin: int) -> float:
    _x, lx = _grid(xmin)
    # -lx - 0.5 * ((lx - mu) / sigma) ** 2, term by term, in place, as
    # -0.5 * (...) ** 2 - lx: rounding is symmetric in sign, so this is the
    # same value bit for bit without a pass that negates lx
    terms = np.subtract(lx, mu)
    terms /= sigma
    np.square(terms, out=terms)
    terms *= -0.5
    terms -= lx
    head = _logsumexp(terms, out=terms)
    # Closed-form Gaussian tail: integral of (1/t) exp(-(ln t - mu)^2 / 2 s^2).
    z = (math.log(xmin + _NORM_EXACT_TERMS - 0.5) - mu) / sigma
    return _head_plus_tail(head, math.sqrt(2.0 * math.pi) * sigma * special.ndtr(-z))


def _loglik(family: str, x: np.ndarray, xmin: int):
    """``family``'s log-likelihood of the tail ``x`` (every sample >= xmin)
    as a function of its params dict.

    What depends on ``x`` alone is taken here, once, since the fits call the
    function at every optimiser step.  The log-normal data term
    ``-log x - 0.5 * ((log x - mu) / sigma) ** 2`` is computed once per
    distinct count, as ``-0.5 * (...) ** 2 - log x`` (the same value bit for
    bit, as in the head), and gathered back to row order before the sum:
    each row holds the value the per-row expression gives it, and the sum
    adds them in the same order.
    """
    n = len(x)
    if family == "power_law":
        logs = np.log(x).sum()
        return lambda p: -p["alpha"] * logs - n * _log_norm_pl(p["alpha"], xmin)
    if family == "truncated_power_law":
        logs, total = np.log(x).sum(), x.sum()
        return lambda p: (-p["alpha"] * logs - p["lambda"] * total
                          - n * _log_norm_tpl(p["alpha"], p["lambda"], xmin))
    if family == "lognormal":
        distinct, row_of = np.unique(x, return_inverse=True)
        lu = np.log(distinct)
        return lambda p: ((-0.5 * ((lu - p["mu"]) / p["sigma"]) ** 2 - lu)[row_of].sum()
                          - n * _log_norm_lognormal(p["mu"], p["sigma"], xmin))
    if family == "exponential":
        # Geometric on {xmin, xmin+1, ...}: p(x) = (1 - e^-lam) e^(-lam (x - xmin)).
        above = (x - xmin).sum()
        return lambda p: n * math.log(-math.expm1(-p["lambda"])) - p["lambda"] * above
    raise ValueError(f"unknown family {family!r}")


def _support_start(xmin) -> int:
    """``xmin`` as an int: a :class:`DegenerateInputError` refuses any but a whole number >= 1."""
    if xmin % 1:  # NaN and inf too
        raise DegenerateInputError(f"xmin={xmin} is not a whole number; the families are discrete")
    if xmin < 1:
        raise DegenerateInputError(f"xmin={xmin} is below 1, where the discrete families start")
    return int(xmin)


def family_loglik(family: str, params: dict[str, float], samples, xmin: int) -> float:
    """Log-likelihood of tail samples (>= xmin) under a fitted family: the
    function whose negation the fits minimise, with :func:`fit_distributions`'s ``xmin`` rule.

    Exposed so reported likelihoods can be re-checked against reported
    parameters.
    """
    xmin = _support_start(xmin)
    x = np.asarray(samples, dtype=np.float64)
    return float(_loglik(family, x[x >= xmin], xmin)(params))


def _memo(nll):
    """``nll`` that scores each distinct point once and answers a repeat
    with the value it gave the first time.

    Keyed on the point's exact bytes, so ``-0.0`` and ``0.0`` (and NaNs of
    different payloads) stay apart.  One memo per fit: it lives as long as
    the fit and is never shared between threads.
    """
    scores: dict[bytes, float] = {}

    def scored(p: np.ndarray) -> float:
        key = p.tobytes()
        score = scores.get(key)
        if score is None:  # an objective never returns None
            score = scores[key] = nll(p)
        return score

    return scored


def _nelder_mead(nll, starts):
    """The Nelder-Mead minimum of ``nll`` over runs from each start in turn,
    all scored through one memo: the first result with the lowest value."""
    scored = _memo(nll)
    best = None
    for x0 in starts:
        res = optimize.minimize(scored, x0=np.array(x0), method="Nelder-Mead",
                                options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000})
        if best is None or res.fun < best.fun:
            best = res
    return best


def _family_fit(params: dict[str, float], loglik, converged=True, message="") -> FamilyFit:
    """A fit's record, with the AIC of its ``len(params)`` free parameters."""
    loglik = float(loglik)
    return FamilyFit(params, loglik, 2 * len(params) - 2 * loglik, bool(converged), str(message))


def _fit_power_law(x: np.ndarray, xmin: int) -> FamilyFit:
    loglik = _loglik("power_law", x, xmin)
    res = optimize.minimize_scalar(lambda alpha: -loglik({"alpha": alpha}),
                                   bounds=(1.0001, 20.0), method="bounded")
    return _family_fit({"alpha": float(res.x)}, -res.fun, res.success, res.message)


def _fit_truncated_power_law(x: np.ndarray, xmin: int) -> FamilyFit:
    loglik = _loglik("truncated_power_law", x, xmin)

    def nll(p: np.ndarray) -> float:
        # Python floats: the quad integrand does scalar arithmetic in them
        alpha, lam = float(p[0]), max(math.exp(p[1]), 1e-9)
        if alpha < 0.0:  # keep the family on its valid range
            return 1e18 * (1.0 + alpha * alpha)
        return -loglik({"alpha": alpha, "lambda": lam})

    best = _nelder_mead(nll, [(1.5, math.log(lam0)) for lam0 in (0.5, 0.05)])
    alpha, lam = float(best.x[0]), float(max(math.exp(best.x[1]), 1e-9))
    return _family_fit({"alpha": max(alpha, 0.0), "lambda": lam}, -best.fun,
                       best.success, best.message)


def _fit_lognormal(x: np.ndarray, xmin: int) -> FamilyFit:
    loglik = _loglik("lognormal", x, xmin)

    def nll(p: np.ndarray) -> float:
        mu, sigma = float(p[0]), math.exp(p[1])
        if sigma == 0.0:  # exp underflow; the step would score NaN or raise
            return math.inf
        return -loglik({"mu": mu, "sigma": sigma})

    lx = np.log(x)
    res = _nelder_mead(nll, [(float(lx.mean()), math.log(max(float(lx.std()), 0.1)))])
    return _family_fit({"mu": float(res.x[0]), "sigma": float(math.exp(res.x[1]))}, -res.fun,
                       res.success, res.message)


def _fit_exponential(x: np.ndarray, xmin: int) -> FamilyFit:
    # Closed-form geometric MLE on the shifted tail.
    m = float((x - xmin).mean())
    params = {"lambda": math.log((1.0 + m) / m)}
    return _family_fit(params, _loglik("exponential", x, xmin)(params))


def fit_distributions(samples, xmin: int = 1) -> FitReport:
    """MLE fits of the four candidate families on samples >= xmin, AIC-compared.

    Families that fail to converge are recorded and excluded from the
    comparison; the winner is the smallest-AIC converged family.  The discrete
    families live on x = 1, 2, ..., so an ``xmin`` below 1 or not whole is refused.
    """
    xmin = _support_start(xmin)
    x = np.asarray(samples, dtype=np.float64)
    x = x[x >= xmin]
    if len(x) < 50:
        raise InsufficientDataError(f"{len(x)} samples >= xmin={xmin}; need at least 50")
    if np.all(x == x[0]):
        raise DegenerateInputError("constant samples admit no distribution comparison")

    fits: dict[str, FamilyFit] = {}
    fitters = (_fit_power_law, _fit_truncated_power_law, _fit_lognormal, _fit_exponential)
    for family, fitter in zip(FAMILIES, fitters):
        try:
            fits[family] = fitter(x, xmin)
        except Exception as exc:  # per-family failure; comparison proceeds
            fits[family] = FamilyFit({}, math.nan, math.inf, False, str(exc))

    converged = {f: fit for f, fit in fits.items() if fit.converged and math.isfinite(fit.aic)}
    if not converged:
        raise DegenerateInputError("no candidate family converged")
    winner = min(converged, key=lambda f: converged[f].aic)
    best_aic = converged[winner].aic
    delta = {f: (fit.aic - best_aic if math.isfinite(fit.aic) else math.inf) for f, fit in fits.items()}
    return FitReport(n_tail=len(x), fits=fits, winner=winner, delta_aic=delta)
