"""Bayesian comparison of navigational hypotheses for a first-order Markov chain.

A hypothesis is a nonnegative belief value per graph edge.  Row-normalized
beliefs scaled by a strength parameter kappa become Dirichlet priors over each
article's out-transition probabilities; observed transition counts then yield
a marginal likelihood per hypothesis, and log Bayes factors against the
structural (uniform out-link) baseline rank the hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import (
    AlignmentError,
    DegenerateInputError,
    ElicitationError,
    SchemaError,
)
from .graph import CentralityVector, LinkGraph, same_structure
from .ingest import REGIONS, TransitionLog

#: Regions whose links get belief 1 in the visual hypothesis.
PROMOTED_REGIONS = frozenset({"lead", "left-body", "infobox"})

SMOOTHING_WEIGHT = 1.0  # weight of the structural matrix added for smoothing

#: The range of Dirichlet parameters (and of their row sums) that
#: ``log_evidence`` accepts: ``gammaln`` is finite on it.  Below the smallest
#: normal float gammaln reaches +inf (gammaln(5e-324) is inf), and it
#: overflows a little above 2.556e305.
ALPHA_MIN = float(np.finfo(np.float64).tiny)
ALPHA_MAX = 2.5e305


@dataclass(frozen=True, eq=False)
class HypothesisMatrix:
    """Sparse nonnegative beliefs aligned to the graph's edge slots."""

    name: str
    graph: LinkGraph
    values: np.ndarray
    filled: int = 0  # edges whose belief was missing and filled with 0

    def __post_init__(self):
        if len(self.values) != self.graph.n_edges:
            raise AlignmentError(
                f"{len(self.values)} beliefs for {self.graph.n_edges} edges"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("beliefs must be finite")
        if len(self.values) and self.values.min() < 0:
            raise ValueError("beliefs must be nonnegative")


def structural_hypothesis(g: LinkGraph) -> HypothesisMatrix:
    """Belief 1 on every edge: the uniform out-link baseline."""
    return HypothesisMatrix("structural", g, np.ones(g.n_edges))


def kcore_hypothesis(g: LinkGraph, kcore: CentralityVector, smooth: bool = True) -> HypothesisMatrix:
    """Belief 1/sqrt(target core number), cores floored at 1."""
    cores = np.asarray(kcore.values, dtype=np.float64)
    if len(cores) != g.n_nodes:
        raise AlignmentError(f"{len(cores)} core numbers for {g.n_nodes} nodes")
    if len(cores) and cores.min() < 0:
        raise ValueError("core numbers must be nonnegative")
    values = 1.0 / np.sqrt(np.maximum(cores[g.out_indices], 1.0))
    if smooth:
        values = values + SMOOTHING_WEIGHT
    return HypothesisMatrix("kcore", g, values)


def textsim_hypothesis(g: LinkGraph, sims: np.ndarray, smooth: bool = True) -> HypothesisMatrix:
    """Belief equal to the text similarity of the linked articles.

    NaN similarities (edges missing from the feature source) count as 0 and
    are tallied in ``filled``.
    """
    sims = np.asarray(sims, dtype=np.float64)
    if len(sims) != g.n_edges:
        raise AlignmentError(f"{len(sims)} similarities for {g.n_edges} edges")
    missing = np.isnan(sims)
    values = np.where(missing, 0.0, sims)
    if len(values) and (values.min() < 0 or values.max() > 1):
        raise ValueError("similarities must lie in [0, 1]")
    if smooth:
        values = values + SMOOTHING_WEIGHT
    return HypothesisMatrix("text_sim", g, values, filled=int(missing.sum()))


def visual_hypothesis(g: LinkGraph, regions: np.ndarray, smooth: bool = True) -> HypothesisMatrix:
    """Belief 1 for links in the lead, left body strip, or infobox; else 0.

    ``regions`` holds one label per edge; None marks edges without visual
    data (belief 0, tallied).  Unknown labels raise :class:`SchemaError`.
    """
    regions = np.asarray(regions, dtype=object)
    if len(regions) != g.n_edges:
        raise AlignmentError(f"{len(regions)} regions for {g.n_edges} edges")
    missing = np.equal(regions, None) | (regions != regions)  # None or NaN
    unknown = ~missing & ~np.isin(regions, REGIONS)
    if unknown.any():
        raise SchemaError(f"unknown region label {regions[np.argmax(unknown)]!r}")
    values = np.isin(regions, sorted(PROMOTED_REGIONS)).astype(np.float64)
    if smooth:
        values = values + SMOOTHING_WEIGHT
    return HypothesisMatrix("visual", g, values, filled=int(np.count_nonzero(missing)))


def combine(hyps: list[HypothesisMatrix], name: str | None = None) -> HypothesisMatrix:
    """Element-wise sum of already-smoothed hypotheses; no extra smoothing."""
    if not hyps:
        raise DegenerateInputError("cannot combine an empty list of hypotheses")
    base = hyps[0]
    values = base.values.copy()
    for h in hyps[1:]:
        if not same_structure(base.graph, h.graph):
            raise AlignmentError(f"hypothesis {h.name!r} is defined on a different graph")
        values += h.values
    return HypothesisMatrix(
        name or "+".join(h.name for h in hyps),
        base.graph,
        values,
        filled=sum(h.filled for h in hyps),
    )


@dataclass(frozen=True, eq=False)
class ElicitedPrior:
    """Per-edge Dirichlet parameters: 1 + kappa * row-normalized belief."""

    graph: LinkGraph
    alpha: np.ndarray


def elicit_prior(h: HypothesisMatrix, kappa: float) -> ElicitedPrior:
    """Turn beliefs into Dirichlet parameters at belief strength ``kappa``.

    Rows without out-edges get no parameters; a row whose beliefs sum to zero
    cannot be normalized and raises :class:`ElicitationError` (smoothing
    prevents this).
    """
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    g = h.graph
    src = g.edge_sources
    row_sum = np.bincount(src, weights=h.values, minlength=g.n_nodes)
    dead = (g.out_degrees() > 0) & (row_sum == 0)
    if dead.any():
        raise ElicitationError(
            f"{int(dead.sum())} rows have all-zero beliefs; apply smoothing first"
        )
    alpha = 1.0 + kappa * h.values / row_sum[src]
    return ElicitedPrior(graph=g, alpha=alpha)


def log_evidence(prior: ElicitedPrior, counts) -> float:
    """Log marginal likelihood of grouped transition counts under the prior.

    counts may be a :class:`TransitionLog` or a dense per-edge-slot vector of
    finite nonnegative counts.  Evidence is the product over source rows of
    Dirichlet-multinomial terms; the multinomial coefficient is omitted,
    identically for all hypotheses.

    ``gammaln`` runs only on the slots and rows that saw transitions.  Every
    other term is gammaln(a) - gammaln(a + 0.0), which is exactly +0.0 when
    gammaln(a) is finite, so those terms stay zeros in arrays of full length
    and both sums add the same values in the same order: the result is
    bit-equal to the sum over all slots and rows.  A prior whose parameters
    or row sums leave gammaln's finite range [``ALPHA_MIN``, ``ALPHA_MAX``)
    raises :class:`ElicitationError`; there the full sums are NaN or
    meaningless anyway.
    """
    g = prior.graph
    if isinstance(counts, TransitionLog):
        n = counts.aligned_counts(g)
    else:
        n = np.asarray(counts, dtype=np.float64)
        if len(n) != g.n_edges:
            raise AlignmentError(f"{len(n)} counts for {g.n_edges} edges")
        if len(n):
            lo, hi = n.min(), n.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("counts must be finite")
            if lo < 0:
                raise ValueError("counts must be nonnegative")
    alpha = np.asarray(prior.alpha, dtype=np.float64)
    if len(alpha) != g.n_edges:
        raise AlignmentError(f"{len(alpha)} Dirichlet parameters for {g.n_edges} edges")
    src = g.edge_sources
    row_a = np.bincount(src, weights=alpha, minlength=g.n_nodes)
    if len(alpha) and not (alpha.min() >= ALPHA_MIN and row_a.max() < ALPHA_MAX):
        raise ElicitationError(
            f"Dirichlet parameters and their row sums must lie in [{ALPHA_MIN!r}, {ALPHA_MAX!r})"
        )
    row_n = np.bincount(src, weights=n, minlength=g.n_nodes)
    rows = g.out_degrees() > 0
    row_a, row_n = row_a[rows], row_n[rows]

    terms = np.zeros(len(row_a))
    seen = np.flatnonzero(row_n > 0)
    a = row_a[seen]
    terms[seen] = gammaln(a) - gammaln(a + row_n[seen])
    total = float(terms.sum())

    terms = np.zeros(len(n))
    seen = np.flatnonzero(n > 0)
    a = alpha[seen]
    terms[seen] = gammaln(a + n[seen]) - gammaln(a)
    total += float(terms.sum())
    return total


def default_kappa_grid(
    g: LinkGraph,
    multipliers: tuple[float, ...] = (1, 2, 3, 4, 5),
    log_spaced: bool = False,
) -> np.ndarray:
    """Belief-strength grid: multiples of the mean out-degree.

    ``log_spaced`` spreads the same range geometrically instead.
    """
    mean_out = g.n_edges / g.n_nodes if g.n_nodes else 1.0
    mean_out = max(mean_out, 1.0)
    if log_spaced:
        return np.geomspace(multipliers[0] * mean_out, multipliers[-1] * mean_out, len(multipliers))
    return np.asarray(multipliers, dtype=np.float64) * mean_out


def kass_raftery_verdict(log_bf: float) -> str:
    """Label the strength of 2 ln BF on the conventional 2/6/10 thresholds.

    NaN has no strength and gets ``"NA"``.
    """
    v = 2.0 * log_bf
    if math.isnan(v):
        return "NA"  # as the stages write the NaN log Bayes factor beside it
    a = abs(v)
    if a < 2.0:
        label = "not worth more than a bare mention"
    elif a < 6.0:
        label = "positive"
    elif a < 10.0:
        label = "strong"
    else:
        label = "very strong"
    return label if v >= 0 else f"against ({label})"


@dataclass(frozen=True, eq=False)
class EvidenceCurve:
    """Log evidence and log Bayes factor vs. the baseline along the kappa grid."""

    hypothesis: str
    kappas: np.ndarray
    log_evidence: np.ndarray
    log_bayes_factor: np.ndarray
    verdicts: tuple[str, ...]


def bayes_factor_curve(
    hyps: list[HypothesisMatrix],
    baseline: HypothesisMatrix,
    counts,
    kappa_grid,
) -> list[EvidenceCurve]:
    """Evidence curves for each hypothesis against a shared baseline.

    All matrices must live on the same graph; counts are shared.  Bayes
    factors are reported as log-evidence differences at matching kappa.
    """
    kappas = np.asarray(kappa_grid, dtype=np.float64)
    if len(kappas) == 0 or not ((kappas > 0) & (kappas < math.inf)).all():
        raise ValueError("kappa grid must be positive and finite")
    g = baseline.graph
    if isinstance(counts, TransitionLog):
        counts = counts.aligned_counts(g)
    base_ev = np.array([log_evidence(elicit_prior(baseline, k), counts) for k in kappas])

    curves = []
    for h in hyps:
        if not same_structure(g, h.graph):
            raise AlignmentError(f"hypothesis {h.name!r} is defined on a different graph")
        ev = np.array([log_evidence(elicit_prior(h, k), counts) for k in kappas])
        bf = ev - base_ev
        curves.append(
            EvidenceCurve(
                hypothesis=h.name,
                kappas=kappas,
                log_evidence=ev,
                log_bayes_factor=bf,
                verdicts=tuple(kass_raftery_verdict(v) for v in bf),
            )
        )
    return curves
