"""In-process library session: ``python perfbench/session.py CONFIG.json RESULT.json``.

Each repetition parses one input set (set-up: edges, clickstream, corpus,
timed apart) and then runs the analysis through the public API: semantics,
feature table, k-core and the 7 hypotheses, Bayes-factor curves, weighted
PageRank evaluation, Gini and distribution fits, and the hurdle battery on a
seeded sample of source articles.  No text is read or written in the timed
analysis.  The runner fixes the repetition count; each repetition records
the monotonic instants around its set-up and analysis, so that the runner can
rescale them to reference seconds (see ``speed.py``).  Peak RSS is this
process's own (``RUSAGE_SELF``).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

from clickgraph import attention, cli, evidence, graph, hurdle, ingest, ranking, semantics
from clickgraph.errors import DegenerateInputError, InsufficientDataError

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from gen import THRESHOLD  # noqa: E402
from tracing import Tracer, schedule, summarize  # noqa: E402

#: The CLI's defaults (alphas, projection, kappa grid), as its stages use them.
DEFAULTS = cli.RunConfig(threshold=THRESHOLD)


class Ops:
    """Counts operations; a raised exception or a failed check marks one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def call(self, name: str, fn, *args, unavailable: tuple = (), **kwargs):
        """Run one operation; ``unavailable`` errors are outcomes the CLI reports, not failures."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except unavailable:
            raise
        except Exception:
            self.failed.append(f"{name}: {traceback.format_exc(limit=3)}")
            raise

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed.append(f"check {name} failed {detail}")


def setup(inputs: str, truth: dict, ops: Ops):
    """Parse edges, clickstream and corpus; align the generator's visual arrays."""
    path = lambda f: os.path.join(inputs, f)  # noqa: E731
    with open(path("edges.tsv"), encoding="utf-8") as fh:
        edges, name_to_id = ops.call("parse_edge_list", ingest.parse_edge_list, fh)
    labels = [""] * len(name_to_id)
    for name, idx in name_to_id.items():
        labels[idx] = name
    g = ops.call("build_graph", graph.build_graph, edges, labels=labels)
    with open(path("clickstream.tsv"), encoding="utf-8") as fh:
        log, stats = ops.call("parse_clickstream", ingest.parse_clickstream, fh, name_to_id, g,
                              threshold=THRESHOLD)
    with open(path("corpus.tsv"), encoding="utf-8") as tok, \
            open(path("categories.tsv"), encoding="utf-8") as cat:
        corpus = ops.call("corpus_from_lines", semantics.corpus_from_lines, tok, cat)

    got = {"lines": stats.lines, "malformed": stats.malformed, "external": stats.external,
           "non_edge": stats.non_edge, "below_threshold_pairs": stats.below_threshold_pairs,
           "kept_pairs": stats.kept_pairs, "kept_transitions": stats.kept_count}
    want = {k: truth[k] for k in got}
    ops.check("parse_clickstream drop counts", got == want, f"{got} != {want}")

    vis = np.load(path("visual.npz"))
    ids = np.asarray([name_to_id[name] for name in vis["names"].tolist()], dtype=np.int64)
    slots = g.edge_slots(ids[vis["src"]], ids[vis["trg"]])
    x, y = np.zeros(g.n_edges), np.zeros(g.n_edges)
    region = np.empty(g.n_edges, dtype=object)
    x[slots], y[slots] = vis["x"], vis["y"]
    region[slots] = np.asarray(ingest.REGIONS, dtype=object)[vis["region"]]
    ops.check("visual covers every edge", bool((slots >= 0).all()) and len(slots) == g.n_edges)
    return g, log, corpus, (x, y, region)


def analyse(state, seed, sample_share: float, ops: Ops) -> dict:
    g, log, corpus, (x, y, region) = state
    vectors = ops.call("tfidf", semantics.tfidf, corpus)
    proj = ops.call("project", semantics.project, vectors, corpus, dim=DEFAULTS.projection_dim,
                    seed=DEFAULTS.projection_seed)
    text_sim, topic_sim, _missing = ops.call("edge_similarities", semantics.edge_similarities,
                                             g, proj, corpus)
    table = ops.call("build_feature_table", ingest.build_feature_table,
                     g, log, text_sim, topic_sim, x, y, region)
    # k-core and the 7 hypotheses, by the CLI's own construction
    hyps = ops.call("build_hypotheses", cli._build_hypotheses, DEFAULTS, g, table)
    baseline = evidence.structural_hypothesis(g)
    grid = evidence.default_kappa_grid(g, DEFAULTS.kappa_multipliers, log_spaced=DEFAULTS.log_spaced)
    curves = ops.call("bayes_factor_curve", evidence.bayes_factor_curve, hyps, baseline, log, grid)
    curves += ops.call("bayes_factor_curve", evidence.bayes_factor_curve, [baseline], baseline, log, grid)
    evals = ops.call("evaluate_all", ranking.evaluate_all, g, hyps, log, alphas=DEFAULTS.alphas,
                     threads=DEFAULTS.threads)

    ops.call("per_article_gini", attention.per_article_gini, g, log)
    trans_out = np.bincount(log.src, minlength=g.n_nodes)
    shared = trans_out > 0
    for samples, xmin in ((g.out_degrees()[shared], DEFAULTS.xmin_degrees),
                          (trans_out[shared], DEFAULTS.xmin_degrees), (log.count, DEFAULTS.xmin_transitions)):
        try:
            ops.call("fit_distributions", attention.fit_distributions, samples, xmin=xmin,
                     unavailable=(InsufficientDataError, DegenerateInputError))
        except (InsufficientDataError, DegenerateInputError):
            pass

    eligible = np.unique(log.src)
    size = max(1, min(len(eligible), round(sample_share * g.n_nodes)))
    chosen = np.random.default_rng(seed).choice(eligible, size=size, replace=False)
    keep = np.isin(table.src, chosen)
    sub = ingest.LinkFeatureTable(src=table.src[keep], trg=table.trg[keep],
                                  data={k: v[keep] for k, v in table.data.items()}, labels=table.labels)
    rows = ops.call("feature_battery", hurdle.feature_battery, sub, threshold=THRESHOLD)
    return {"table": table, "curves": curves, "evals": evals, "rows": rows, "sample_rows": len(sub)}


def check(g, out: dict, ops: Ops) -> None:
    table, cores = out["table"], graph.kcore(g).values
    ops.check("kcore agrees with feature table",
              np.array_equal(table.data["src_kcore"], cores[table.src])
              and np.array_equal(table.data["trg_kcore"], cores[table.trg]))
    ev = [v for c in out["curves"] for v in c.log_evidence]
    ops.check("evidence finite, 8 x 5", len(ev) == 40 and all(math.isfinite(v) for v in ev))
    sums = [float(r.pagerank.sum()) for r in out["evals"]]
    ops.check("pagerank sums to 1, 8 x 3", len(sums) == 24 and all(abs(s - 1.0) <= 1e-9 for s in sums),
              str(sums))
    rows = out["rows"]
    ops.check("hurdle battery has 15 rows", len(rows) == 15)
    # each of the 30 fits is an operation; an error recorded in its row is a failure
    for r in rows:
        for stage, err in (("binomial", r.binomial_error), ("ztnb", r.ztnb_error)):
            ops.attempted += 1
            if err:
                ops.failed.append(f"fit {r.feature} {stage}: {err}")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    inputs, traced = cfg["inputs"], bool(cfg["trace"])
    truths = []
    for d in inputs:
        with open(os.path.join(d, "truth.json"), encoding="utf-8") as fh:
            truths.append(json.load(fh))
    ops = Ops()
    tracer = Tracer()
    reps = []
    start = time.perf_counter()
    for _i, dataset, trace_this in schedule(len(inputs), traced, cfg["reps"]):
        if trace_this:
            tracer.install()
        try:
            t0 = time.monotonic()
            state = setup(inputs[dataset], truths[dataset], ops)
            t1 = time.monotonic()
            out = analyse(state, [cfg["seed"], dataset], cfg["sample_share"], ops)
            t2 = time.monotonic()
        except Exception:  # already recorded as a failed operation
            break
        finally:
            tracer.uninstall()
        g, log = state[0], state[1]
        check(g, out, ops)
        wall_s, setup_s = t2 - t1, t1 - t0
        reps.append({"raw_wall_s": wall_s, "t0": t1, "t1": t2, "setup": {"raw_s": setup_s, "t0": t0, "t1": t1},
                     "traced": trace_this, "dataset": dataset, "layers": summarize(*tracer.take()),
                     "articles": g.n_nodes, "links": g.n_edges, "kept_pairs": len(log),
                     "sample_rows": out["sample_rows"]})
        state = out = g = log = None  # one dataset in memory at a time
        if time.perf_counter() - start + wall_s + setup_s > cfg["max_seconds"]:
            break

    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump({
            "reps": reps,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "attempted": ops.attempted,
            "failed": ops.failed,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
