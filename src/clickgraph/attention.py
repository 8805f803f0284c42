"""Focus-of-attention statistics.

How strongly clicks concentrate on few links: the transition-count
distribution, out-degree comparison between the full link network and the
used subnetwork, per-article Gini coefficients, and maximum-likelihood fits
of candidate count distributions compared by AIC.

The truncated power-law and log-normal normalisers sum the first 20,000
terms of the discrete series exactly, over a support grid cached per xmin,
and add the rest as a tail term: a midpoint-corrected integral for the
truncated power law, a closed-form Gaussian tail for the log-normal.

The two Nelder-Mead fits score each point once.  When the simplex
collapses (the log-normal walk on a power-law-like tail does, and runs to
its iteration cap), Nelder-Mead asks again for points it has already
scored; a memo local to the fit, keyed on the point's exact bytes, answers
those with the value computed the first time.  The optimiser sees the same
values in the same order, so its path, call count and result are unchanged.
Within a log-normal step the head runs in one work row and folds the sign
of ``-log x`` into its quadratic term instead of negating ``log x`` again,
and the data term runs in place in two buffers made once per fit; both keep
every bit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from .errors import (
    DegenerateInputError,
    InsufficientDataError,
    UndefinedGiniError,
)
from .graph import LinkGraph
from .ingest import TransitionLog

FAMILIES = ("power_law", "truncated_power_law", "lognormal", "exponential")

# Exact partial sum up to xmin + this many terms; the remaining tail of the
# normalization series is a midpoint-corrected integral.
_NORM_EXACT_TERMS = 20000


@dataclass(frozen=True)
class DegreeDistribution:
    """Out-degree histogram of one network, restricted to shared source nodes."""

    histogram: dict[int, int]
    source: str  # "wiki" | "trans"
    restriction: str

    @property
    def total(self) -> int:
        return sum(self.histogram.values())


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


def outdegree_comparison(
    g: LinkGraph, log: TransitionLog
) -> tuple[DegreeDistribution, DegreeDistribution]:
    """Out-degree histograms of the full network and of the used subnetwork.

    Only nodes appearing as transition sources enter either histogram, so the
    two distributions range over the same node set.
    """
    wiki_out = g.out_degrees()
    trans_out = np.bincount(log.src, minlength=g.n_nodes) if len(log) else np.zeros(g.n_nodes, dtype=np.int64)
    shared = trans_out > 0  # a transition source always has wiki out-links too
    note = "sources present in both networks"

    def hist(vec: np.ndarray) -> dict[int, int]:
        values, freqs = np.unique(vec[shared], return_counts=True)
        return {int(v): int(f) for v, f in zip(values, freqs)}

    return (
        DegreeDistribution(hist(wiki_out), "wiki", note),
        DegreeDistribution(hist(trans_out), "trans", note),
    )


def gini(values) -> float:
    """Gini coefficient of nonnegative counts, zeros included.

    Uses the sorted O(n log n) identity for sum_i sum_j |x_i - x_j| / (2 n^2 mu).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise DegenerateInputError("gini of an empty vector")
    if (x < 0).any():
        raise DegenerateInputError("gini requires nonnegative values")
    total = x.sum()
    if total == 0:
        raise UndefinedGiniError("gini of an all-zero vector is undefined")
    n = x.size
    xs = np.sort(x)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * np.dot(ranks, xs) / (n * total) - (n + 1.0) / n)


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
    family: str
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


def _tail_integral(log_f, a: float) -> float:
    """Integral of f over [a, inf) for a smooth decaying log-density."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _err = integrate.quad(lambda t: math.exp(log_f(t)), a, np.inf, limit=200)
    return val


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
    sum would only add invalid-value warnings.  The shifted terms go to
    ``out``, a float64 array of ``a``'s shape that may be ``a`` itself;
    without it they go to a new array and ``a`` is left alone.
    """
    i = int(a.argmax())  # the first maximum, or the first NaN
    a_max = a[i]
    if not np.isfinite(a_max):
        return a_max
    shifted = np.subtract(a, a_max, out=out)
    shifted[i] = -np.inf
    m = 1
    # A term ties a_max exactly where its shift is 0 (distinct finite floats
    # never differ by 0); one max pass finds whether any does.
    if shifted.max() == 0:
        tied = shifted == 0
        m += np.count_nonzero(tied)
        shifted[tied] = -np.inf
    s = np.exp(shifted, out=shifted).sum()
    m = np.float64(m)
    if s != 0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def _norm_work() -> np.ndarray:
    """Scratch rows for the exact heads, made once per fit and reused by
    every optimiser step (never shared between fits, so threads are safe)."""
    return np.empty((2, _NORM_EXACT_TERMS))


def _log_norm_tpl(alpha: float, lam: float, xmin: int, work: np.ndarray | None = None) -> float:
    # Z = sum_{x >= xmin} x^-alpha e^(-lam x): exact head plus midpoint tail.
    upper = xmin + _NORM_EXACT_TERMS
    x, lx = _grid(xmin)
    terms, scratch = _norm_work() if work is None else work
    # -alpha * lx - lam * x, term by term, in the scratch rows
    np.multiply(lx, -alpha, out=terms)
    np.subtract(terms, np.multiply(x, lam, out=scratch), out=terms)
    head = _logsumexp(terms, out=terms)
    tail = _tail_integral(lambda t: -alpha * math.log(t) - lam * t, upper - 0.5)
    return float(np.logaddexp(head, np.log(tail) if tail > 0 else -np.inf))


def _log_norm_lognormal(mu: float, sigma: float, xmin: int, work: np.ndarray | None = None) -> float:
    upper = xmin + _NORM_EXACT_TERMS
    _x, lx = _grid(xmin)
    terms = (_norm_work() if work is None else work)[0]
    # -lx - 0.5 * ((lx - mu) / sigma) ** 2, term by term, in one scratch row,
    # as -0.5 * (...) ** 2 - lx: rounding is symmetric in sign, so this is
    # the same value bit for bit without a pass that negates lx
    np.subtract(lx, mu, out=terms)
    np.divide(terms, sigma, out=terms)
    np.square(terms, out=terms)
    np.multiply(terms, -0.5, out=terms)
    np.subtract(terms, lx, out=terms)
    head = _logsumexp(terms, out=terms)
    # Closed-form Gaussian tail: integral of (1/t) exp(-(ln t - mu)^2 / 2 s^2).
    z = (math.log(upper - 0.5) - mu) / sigma
    tail = math.sqrt(2.0 * math.pi) * sigma * special.ndtr(-z)
    return float(np.logaddexp(head, np.log(tail) if tail > 0 else -np.inf))


def family_loglik(family: str, params: dict[str, float], samples, xmin: int) -> float:
    """Log-likelihood of tail samples (>= xmin) under a fitted family.

    Exposed so reported likelihoods can be re-checked against reported
    parameters.
    """
    x = np.asarray(samples, dtype=np.float64)
    x = x[x >= xmin]
    n = len(x)
    if family == "power_law":
        alpha = params["alpha"]
        return float(-alpha * np.log(x).sum() - n * _log_norm_pl(alpha, xmin))
    if family == "truncated_power_law":
        alpha, lam = params["alpha"], params["lambda"]
        return float(
            -alpha * np.log(x).sum() - lam * x.sum() - n * _log_norm_tpl(alpha, lam, xmin)
        )
    if family == "lognormal":
        mu, sigma = params["mu"], params["sigma"]
        lx = np.log(x)
        return float(
            (-lx - 0.5 * ((lx - mu) / sigma) ** 2).sum()
            - n * _log_norm_lognormal(mu, sigma, xmin)
        )
    if family == "exponential":
        lam = params["lambda"]
        # Geometric on {xmin, xmin+1, ...}: p(x) = (1 - e^-lam) e^(-lam (x - xmin)).
        return float(n * math.log(-math.expm1(-lam)) - lam * (x - xmin).sum())
    raise ValueError(f"unknown family {family!r}")


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


def _fit_power_law(x: np.ndarray, xmin: int) -> FamilyFit:
    logs = np.log(x).sum()
    n = len(x)

    def nll(alpha: float) -> float:
        return alpha * logs + n * _log_norm_pl(alpha, xmin)

    res = optimize.minimize_scalar(nll, bounds=(1.0001, 20.0), method="bounded")
    params = {"alpha": float(res.x)}
    ll = -float(res.fun)
    return FamilyFit("power_law", params, ll, 2 * 1 - 2 * ll, bool(res.success), str(res.message))


def _fit_truncated_power_law(x: np.ndarray, xmin: int) -> FamilyFit:
    logs = np.log(x).sum()
    total = x.sum()
    n = len(x)
    work = _norm_work()

    def nll(p: np.ndarray) -> float:
        # Python floats: the quad integrand does scalar arithmetic in them
        alpha, lam = float(p[0]), max(math.exp(p[1]), 1e-9)
        if alpha < 0.0:  # keep the family on its valid range
            return 1e18 * (1.0 + alpha * alpha)
        return alpha * logs + lam * total + n * _log_norm_tpl(alpha, lam, xmin, work)

    best = None
    scored = _memo(nll)  # shared by both starts
    for lam0 in (0.5, 0.05):
        res = optimize.minimize(
            scored,
            x0=np.array([1.5, math.log(lam0)]),
            method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
        )
        if best is None or res.fun < best.fun:
            best = res
    alpha, lam = float(best.x[0]), float(max(math.exp(best.x[1]), 1e-9))
    params = {"alpha": max(alpha, 0.0), "lambda": lam}
    ll = -float(best.fun)
    return FamilyFit(
        "truncated_power_law", params, ll, 2 * 2 - 2 * ll, bool(best.success), str(best.message)
    )


def _fit_lognormal(x: np.ndarray, xmin: int) -> FamilyFit:
    """Nelder-Mead MLE of the discrete log-normal on the tail ``x``.

    Counts repeat, so the data term ``lx + 0.5 * ((lx - mu) / sigma) ** 2``
    is computed once per distinct count and gathered back to row order
    before the sum.  Each row then holds the value the per-row expression
    gives it, and the sum adds them in the same order: the objective, and
    so the whole fit, is bit-equal to evaluating the term on every row.
    The term and its gather run in place in buffers made once per fit.
    """
    lx = np.log(x)
    n = len(x)
    work = _norm_work()
    _distinct, first, row_of = np.unique(x, return_index=True, return_inverse=True)
    lu = lx[first]  # the logs of the distinct counts, not recomputed
    term, rows = np.empty_like(lu), np.empty_like(lx)

    def nll(p: np.ndarray) -> float:
        mu, sigma = float(p[0]), math.exp(p[1])
        if sigma == 0.0:  # exp underflow; the step would score NaN or raise
            return math.inf
        # lu + 0.5 * ((lu - mu) / sigma) ** 2, step by step, in place; the
        # indices are in range, and mode="clip" writes straight into ``rows``
        # where the default mode would gather into a temporary first
        np.subtract(lu, mu, out=term)
        np.divide(term, sigma, out=term)
        np.square(term, out=term)
        np.multiply(term, 0.5, out=term)
        np.add(lu, term, out=term)
        return float(
            np.take(term, row_of, out=rows, mode="clip").sum()
            + n * _log_norm_lognormal(mu, sigma, xmin, work)
        )

    res = optimize.minimize(
        _memo(nll),
        x0=np.array([float(lx.mean()), math.log(max(float(lx.std()), 0.1))]),
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
    )
    params = {"mu": float(res.x[0]), "sigma": float(math.exp(res.x[1]))}
    ll = -float(res.fun)
    return FamilyFit("lognormal", params, ll, 2 * 2 - 2 * ll, bool(res.success), str(res.message))


def _fit_exponential(x: np.ndarray, xmin: int) -> FamilyFit:
    # Closed-form geometric MLE on the shifted tail.
    m = float((x - xmin).mean())
    lam = math.log((1.0 + m) / m)
    params = {"lambda": lam}
    ll = family_loglik("exponential", params, x, xmin)
    return FamilyFit("exponential", params, ll, 2 * 1 - 2 * ll, True)


def fit_distributions(samples, xmin: int = 1) -> FitReport:
    """MLE fits of the four candidate families on samples >= xmin, AIC-compared.

    Families that fail to converge are recorded and excluded from the
    comparison; the winner is the smallest-AIC converged family.
    """
    x = np.asarray(samples, dtype=np.float64)
    x = x[x >= xmin]
    if len(x) < 50:
        raise InsufficientDataError(f"{len(x)} samples >= xmin={xmin}; need at least 50")
    if np.all(x == x[0]):
        raise DegenerateInputError("constant samples admit no distribution comparison")

    fits: dict[str, FamilyFit] = {}
    for family, fitter in (
        ("power_law", _fit_power_law),
        ("truncated_power_law", _fit_truncated_power_law),
        ("lognormal", _fit_lognormal),
        ("exponential", _fit_exponential),
    ):
        try:
            fits[family] = fitter(x, xmin)
        except Exception as exc:  # per-family failure; comparison proceeds
            fits[family] = FamilyFit(family, {}, math.nan, math.inf, False, str(exc))

    converged = {f: fit for f, fit in fits.items() if fit.converged and math.isfinite(fit.aic)}
    if not converged:
        raise DegenerateInputError("no candidate family converged")
    winner = min(converged, key=lambda f: converged[f].aic)
    best_aic = converged[winner].aic
    delta = {f: (fit.aic - best_aic if math.isfinite(fit.aic) else math.inf) for f, fit in fits.items()}
    return FitReport(n_tail=len(x), fits=fits, winner=winner, delta_aic=delta)
