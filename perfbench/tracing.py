"""Span tracing of clickgraph's public functions from outside the package.

``Tracer.install`` replaces each listed function in its defining module and in
every loaded module that bound it by name, so calls made inside the package
(``feature_battery`` -> ``fit_ztnb`` -> ``ztnb_loglik``, ``cli`` ->
``graph.kcore``) are caught too.  Spans (name, start, end, parent, busy time)
stay in memory; ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

#: (module, attribute) of every traced function; metric names are
#: ``<module>.<attribute>.<stat>``.
TARGETS = (
    ("graph", "load_graph"), ("graph", "build_graph"), ("graph", "kcore"),
    ("graph", "pagerank"), ("graph", "save_graph"),
    ("ingest", "parse_edge_list"), ("ingest", "parse_clickstream"),
    ("ingest", "TransitionLog.from_pairs"), ("ingest", "load_feature_table"),
    ("ingest", "feature_table_lines"), ("ingest", "transition_lines"),
    ("ingest", "build_feature_table"), ("ingest", "compute_network_features"),
    ("semantics", "corpus_from_lines"), ("semantics", "tfidf"), ("semantics", "project"),
    ("semantics", "edge_similarities"),
    ("attention", "transition_histogram"), ("attention", "per_article_gini"),
    ("attention", "fit_distributions"),
    ("hurdle", "feature_battery"), ("hurdle", "fit_logistic"), ("hurdle", "fit_ztnb"),
    ("hurdle", "ztnb_loglik"),
    ("evidence", "bayes_factor_curve"), ("evidence", "log_evidence"), ("evidence", "elicit_prior"),
    ("ranking", "evaluate_all"), ("ranking", "weighted_pagerank"), ("ranking", "spearman"),
)

#: Per-layer metrics reported from spans: (metric name, unit).
SPAN_METRICS = (
    ("graph.load_graph.calls", "count"), ("graph.load_graph.self_s", "s"),
    ("graph.build_graph.self_s", "s"),
    ("graph.kcore.calls", "count"), ("graph.kcore.self_s", "s"),
    ("graph.pagerank.calls", "count"), ("graph.pagerank.self_s", "s"),
    ("graph.save_graph.self_s", "s"),
    ("ingest.parse_edge_list.self_s", "s"), ("ingest.parse_clickstream.self_s", "s"),
    ("ingest.TransitionLog.from_pairs.self_s", "s"),
    ("ingest.load_feature_table.calls", "count"), ("ingest.load_feature_table.self_s", "s"),
    ("ingest.feature_table_lines.self_s", "s"), ("ingest.transition_lines.self_s", "s"),
    ("ingest.build_feature_table.self_s", "s"), ("ingest.compute_network_features.calls", "count"),
    ("semantics.corpus_from_lines.self_s", "s"), ("semantics.tfidf.self_s", "s"),
    ("semantics.project.self_s", "s"), ("semantics.edge_similarities.self_s", "s"),
    ("attention.transition_histogram.self_s", "s"), ("attention.per_article_gini.self_s", "s"),
    ("attention.fit_distributions.calls", "count"), ("attention.fit_distributions.self_s", "s"),
    ("hurdle.feature_battery.self_s", "s"),
    ("hurdle.fit_logistic.calls", "count"), ("hurdle.fit_logistic.iterations", "count"),
    ("hurdle.fit_ztnb.calls", "count"), ("hurdle.fit_ztnb.iterations", "count"),
    ("hurdle.ztnb_loglik.calls", "count"), ("hurdle.fits_failed", "count"),
    ("evidence.bayes_factor_curve.self_s", "s"),
    ("evidence.log_evidence.calls", "count"), ("evidence.log_evidence.self_s", "s"),
    ("evidence.elicit_prior.self_s", "s"),
    ("ranking.evaluate_all.self_s", "s"),
    ("ranking.weighted_pagerank.calls", "count"), ("ranking.weighted_pagerank.self_s", "s"),
    ("ranking.spearman.self_s", "s"),
)


class Tracer:
    """Records one span per traced call; install/uninstall swap the wrappers in."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, float]] = []  # id, name, start, end, parent, busy
        self.extra: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _observe(self, name: str, result) -> None:
        if name in ("hurdle.fit_logistic", "hurdle.fit_ztnb"):
            self._add(name + ".iterations", int(result.iterations))
        elif name == "hurdle.feature_battery":
            self._add("hurdle.fits_failed",
                      sum(bool(r.binomial_error) + bool(r.ztnb_error) for r in result))

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Timed across the iteration: busy time is spent inside next() only.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = tracer._stack[-1] if tracer._stack else 0
                start = time.perf_counter()
                busy = 0.0
                it = fn(*args, **kwargs)
                while True:
                    t = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += time.perf_counter() - t
                        break
                    busy += time.perf_counter() - t
                    yield item
                tracer.spans.append((tracer._new_id(), name, start, time.perf_counter(), parent, busy))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent, end - start))
            tracer._observe(name, result)
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; rebinds by-name imports in loaded modules too."""
        if self._restore:
            return
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for modname, attr in TARGETS:
            mod = importlib.import_module(f"clickgraph.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:  # classmethod on a class of the module
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, classmethod(self._wrap(name, orig.__func__)))
            else:
                orig = getattr(mod, attr)
                wrapped[id(orig)] = (orig, self._wrap(name, orig))
        # One pass over every loaded module finds each binding of an original.
        for module in list(sys.modules.values()):
            for key, value in list(getattr(module, "__dict__", {}).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, key, value))
                    setattr(module, key, hit[1])

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and extra counts recorded so far and reset."""
        spans, extra = self.spans, self.extra
        self.spans, self.extra = [], {}
        return spans, extra


def schedule(datasets: int, traced: bool, reps: int):
    """Repetition plan of every workload: yields ``(i, dataset, traced)``.

    Untraced, ``reps`` repetitions cycle through the input sets.  Traced, each
    input set runs untraced and then traced, so the two differ only by the
    tracing; ``reps // 2`` such pairs run (at least one).  The count is fixed,
    not timed, so one seed always attempts the same operations.
    """
    total = 2 * max(1, reps // 2) if traced else reps
    for i in range(total):
        yield i, (i // 2 if traced else i) % datasets, traced and i % 2 == 1


def rescale(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """``metrics`` with every time (a name ending in ``_s``) multiplied by ``factor``."""
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def summarize(spans: list, extra: dict) -> dict[str, float]:
    """Per-function ``calls`` and ``self_s`` (busy time minus children's), plus extras."""
    child_busy: dict[int, float] = {}
    for _sid, _name, _s, _e, parent, busy in spans:
        if parent:
            child_busy[parent] = child_busy.get(parent, 0.0) + busy
    out: dict[str, float] = {}
    for sid, name, _s, _e, _parent, busy in spans:
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + busy - child_busy.get(sid, 0.0)
    out.update(extra)
    return out


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum metric dicts (e.g. the traced stage processes of one pipeline run)."""
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def median_metrics(parts: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over repetitions; a metric missing from one counts 0."""
    keys = {k for p in parts for k in p}
    return {k: statistics.median(p.get(k, 0) for p in parts) for k in keys}
