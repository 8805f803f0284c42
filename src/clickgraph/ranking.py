"""Hypothesis-weighted PageRank and its evaluation against observed traffic.

The random walker follows out-links proportionally to hypothesis beliefs
instead of uniformly.  Rankings are scored by Spearman correlation against
per-article incoming transition sums, and improvements over the unweighted
baseline are tested with Steiger's Z for dependent correlations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import graph as graphmod
from .errors import (
    AlignmentError,
    DegenerateInputError,
    PreconditionError,
)
from .evidence import HypothesisMatrix
from .graph import CentralityVector, LinkGraph
from .ingest import TransitionLog

DEFAULT_ALPHAS = (0.80, 0.85, 0.90)


def weighted_pagerank(g: LinkGraph, h: HypothesisMatrix, alpha: float = 0.85) -> CentralityVector:
    """PageRank where a node's mass flows along edge (i, j) proportionally to
    the belief m_ij, normalized by the row sum over i's out-links.

    Rows whose beliefs sum to zero (dangling nodes included) teleport
    uniformly, matching the unweighted algorithm's dangling rule.
    """
    if not graphmod.same_structure(h.graph, g):
        raise AlignmentError("hypothesis is defined on a different graph")
    return graphmod.power_iteration(g, h.values, alpha, "weighted pagerank")


def incoming_transition_sums(log: TransitionLog, n_nodes: int) -> np.ndarray:
    """Per-article views from internal navigation: counts summed by target."""
    if len(log) == 0:
        return np.zeros(n_nodes)
    return np.bincount(log.trg, weights=log.count.astype(np.float64), minlength=n_nodes)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    # ranks 1..n, ties get the mean of the ranks they span
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mean_rank = (upper - counts + 1 + upper) / 2.0
    return mean_rank[inverse]


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p: float


def spearman(x, y) -> SpearmanResult:
    """Rank correlation with average ranks for ties.

    The p-value is the two-sided t-test with n - 2 degrees of freedom for the
    null of no correlation.  Inputs of unequal length, with a value that is
    not finite, or of fewer than 3 values raise :class:`PreconditionError`.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise PreconditionError("inputs must have equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise PreconditionError("inputs must be finite")
    n = len(x)
    if n < 3:
        raise PreconditionError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInputError("correlation undefined for a constant vector")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    rho = float(np.dot(rx, ry) / math.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        return SpearmanResult(rho=rho, p=0.0)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(special.stdtr(n - 2, -abs(t)))
    return SpearmanResult(rho=rho, p=p)


@dataclass(frozen=True)
class SteigerResult:
    z: float
    p_one_tailed: float


def steiger_test(r12: float, r13: float, r23: float, n: int) -> SteigerResult:
    """Steiger's Z for two dependent correlations sharing variable 1.

    Fisher-transforms r12 and r13 and corrects their covariance for the
    shared variable using the pooled correlation.  The one-tailed p is for
    the alternative r12 > r13 (the weighted ranking beating the baseline).
    A triple no one sample can give is a :class:`DegenerateInputError`.
    """
    for r in (r12, r13, r23):
        if not -1.0 < r < 1.0:
            raise DegenerateInputError("Fisher transform undefined at |r| = 1")
    if n < 10:
        raise PreconditionError("need at least 10 observations")
    z12 = math.atanh(r12)
    z13 = math.atanh(r13)
    rbar = 0.5 * (r12 + r13)
    rbar2 = rbar * rbar
    psi = r23 * (1.0 - 2.0 * rbar2) - 0.5 * rbar2 * (1.0 - 2.0 * rbar2 - r23 * r23)
    s = psi / (1.0 - rbar2) ** 2
    if s >= 1.0:
        raise DegenerateInputError(f"correlations {r12}, {r13} and {r23} are inconsistent: "
                                   f"their covariance term {s} is not below 1")
    z = (z12 - z13) * math.sqrt((n - 3) / (2.0 * (1.0 - s)))
    return SteigerResult(z=z, p_one_tailed=float(special.ndtr(-z)))


@dataclass(frozen=True, eq=False)
class RankEvaluation:
    """One (hypothesis, damping) cell of the evaluation grid."""

    hypothesis: str
    alpha: float
    pagerank: np.ndarray
    rho: float
    p: float
    steiger_z: float | None = None
    steiger_p: float | None = None
    improved: bool | None = None


def evaluate_all(
    g: LinkGraph,
    hypotheses: list[HypothesisMatrix],
    log: TransitionLog,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    restrict_to_viewed: bool = False,
    threads: int = 1,
) -> list[RankEvaluation]:
    """Baseline plus every hypothesis at every damping factor.

    The correlation universe is all articles by default (unviewed articles
    count 0 views); ``restrict_to_viewed`` drops articles without any
    incoming transitions instead; one of fewer than 3 articles, or of equal
    views, is refused before any PageRank runs, and a ranking equal on every
    article of the universe is refused by its name and damping factor.  Each
    weighted row carries Steiger's test against the baseline at the same
    damping factor, or None where the test is undefined (a correlation of
    +-1, an inconsistent triple, or n < 10).
    """
    views = incoming_transition_sums(log, g.n_nodes)
    mask = views >= 1 if restrict_to_viewed else np.ones(g.n_nodes, dtype=bool)
    v = views[mask]
    n = int(mask.sum())
    if n < 3:
        raise PreconditionError(f"{n} articles ranked; Spearman's rho needs at least 3")
    if v.min() == v.max():
        raise DegenerateInputError(f"all {n} articles ranked have {v[0]:.0f} views; "
                                   "Spearman's rho against views is undefined")

    def ranked(name: str, alpha: float, pr: np.ndarray) -> np.ndarray:
        r = pr[mask]
        if r.min() == r.max():
            raise DegenerateInputError(f"{name} PageRank at alpha={alpha} is equal on all {n} "
                                       "ranked articles; Spearman's rho is undefined")
        return r

    def evaluate_cell(hyp: HypothesisMatrix | None, alpha: float, baseline):
        if hyp is None:
            pr = graphmod.pagerank(g, alpha=alpha).values
            sp = spearman(ranked("baseline", alpha, pr), v)
            return RankEvaluation("baseline", alpha, pr, sp.rho, sp.p)
        pr = weighted_pagerank(g, hyp, alpha=alpha).values
        r = ranked(hyp.name, alpha, pr)
        sp = spearman(r, v)
        r23 = spearman(r, baseline.pagerank[mask]).rho
        try:
            st = steiger_test(sp.rho, baseline.rho, r23, n)
            z, p = st.z, st.p_one_tailed
        except (DegenerateInputError, PreconditionError):
            z = p = None
        return RankEvaluation(hyp.name, alpha, pr, sp.rho, sp.p,
                              steiger_z=z, steiger_p=p, improved=sp.rho > baseline.rho)

    baselines = {a: evaluate_cell(None, a, None) for a in alphas}
    cells = [(h, a) for a in alphas for h in hypotheses]
    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:
        results = list(pool.map(lambda c: evaluate_cell(c[0], c[1], baselines[c[1]]), cells))

    out: list[RankEvaluation] = []
    for i, a in enumerate(alphas):  # cells run alpha by alpha: one slice of results per alpha
        out.append(baselines[a])
        out.extend(results[i * len(hypotheses):(i + 1) * len(hypotheses)])
    return out
