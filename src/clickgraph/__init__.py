"""clickgraph: what makes a link successful in an information network.

Ingests a directed link graph and aggregated click transitions, computes
link features, fits hurdle regression models, compares navigational
hypotheses by Bayesian evidence, and ranks pages with a hypothesis-weighted
PageRank evaluated against observed traffic.

Only ``ClickgraphError`` and ``__version__`` load with the package; every
other export imports its submodule (and numpy/scipy) on first access.
"""

import importlib

from .errors import ClickgraphError

__version__ = "0.1.0"

_EXPORTS = {
    "graph": ("LinkGraph", "build_graph", "degrees", "kcore", "pagerank"),
    "ingest": ("TransitionLog", "LinkFeatureTable", "parse_edge_list", "parse_clickstream",
               "load_feature_table"),
    "evidence": ("HypothesisMatrix", "EvidenceCurve", "structural_hypothesis", "kcore_hypothesis",
                 "textsim_hypothesis", "visual_hypothesis", "combine", "elicit_prior",
                 "log_evidence", "bayes_factor_curve"),
    "ranking": ("RankEvaluation", "weighted_pagerank", "incoming_transition_sums", "spearman",
                "steiger_test", "evaluate_all"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["ClickgraphError", *_SUBMODULE, "__version__"]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
