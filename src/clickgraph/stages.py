"""The seven stage bodies, each the function named after its stage.

:func:`clickgraph.cli.run_stage` imports this module only on a cache miss, so
a hit neither compiles nor runs any of it.  For the same reason this module
never imports :mod:`clickgraph.cli`: under ``python -m clickgraph.cli`` the
running driver is ``__main__``, and that import would compile and execute a
second copy of it.

A body takes ``cfg``, a :class:`clickgraph.cli.RunConfig`, then the artifacts
its stage reads, loaded (``g`` and ``log``, then ``table``), then one open
text stream per input file it is given, as a keyword argument named by that
file's ``_FIELDS`` row (``edges``, ``corpus``, ...).  ``run_stage`` opens,
hashes and closes every one of them, so no body opens a file or reads a path
from ``cfg``.

Each body returns ({file name: (header notes, lines)}, summary, *stderr
lines): an artifact is named by its file name alone, as in ``STAGES``.
``run_stage`` writes an artifact's header, then its lines, except
where its lines are a function: that function takes the header and returns
every line of the file, so graph.tsv's magic line can come before it.  Only
``run_stage`` makes header lines and `<stage>:` prefixes; the analysis
stages' tables go through ``_table``.
Each body imports the kernels it runs, so ``build``, ``features`` and
``sample`` load numpy but not scipy.
"""

from __future__ import annotations

import itertools
import math

from .errors import ClickgraphError, DegenerateInputError, InsufficientDataError


def _fmt(x) -> str:
    import numpy as np

    if isinstance(x, str):
        return x
    if x is None:
        return "NA"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "NA"
    return repr(v)


def _table(columns, rows) -> list[str]:
    """A stage table's lines: the space-separated ``columns`` as its column
    line, then each row's cells through ``_fmt``."""
    return ["\t".join(columns.split()) + "\n", *("\t".join(map(_fmt, row)) + "\n" for row in rows)]


def build(cfg, edges, clickstream):
    from . import graph as graphmod, ingest

    pairs, name_to_id = ingest.parse_edge_list(edges)
    g = graphmod.build_graph(pairs, labels=list(name_to_id))  # ids follow first-seen order
    log, stats = ingest.parse_clickstream(
        clickstream, name_to_id, g, threshold=cfg.threshold, fail_fast=cfg.fail_fast
    )

    stat_notes = (
        f"threshold={cfg.threshold}",
        f"lines={stats.lines} malformed={stats.malformed} external={stats.external} "
        f"non_edge={stats.non_edge} below_threshold_pairs={stats.below_threshold_pairs}",
        f"kept_pairs={stats.kept_pairs} kept_transitions={stats.kept_count}",
    )
    outputs = {
        "graph.tsv": ((), lambda header: graphmod.save_graph(g, header)),
        "transitions.tsv": (stat_notes, ingest.transition_lines(log, g.labels)),
    }
    summary = (f"{g.n_nodes} articles, {g.n_edges} links ({g.self_loops} self-loops); "
               f"kept {stats.kept_pairs} transition pairs")
    if stats.malformed:
        return outputs, summary, f"skipped {stats.malformed} malformed lines"
    return outputs, summary


def features(cfg, g, log, feature_file=None, corpus=None, categories=None, visual=None):
    from . import ingest, semantics as semmod

    if feature_file is not None:
        table, report = ingest.load_feature_table(feature_file, g, log, alpha=cfg.damping,
                                                  recompute_network=cfg.recompute_network_features)
        report_lines = [f"rows_read={report.rows_read} rows_kept={report.rows_kept}\n"]
        for line_no, s, t, reason in report.rejected:
            report_lines.append(f"rejected line {line_no} ({s} -> {t}): {reason}\n")
        if report.rejected_count > len(report.rejected):
            report_lines.append(
                f"… and {report.rejected_count - len(report.rejected)} more rejected lines\n")
        for col, (mism, maxdiff) in sorted(report.consistency.items()):
            report_lines.append(f"consistency {col}: {mism} mismatches, max abs diff {maxdiff:.3e}\n")
        notes = (f"source=feature_file rows={len(table)}",)
    else:
        docs = semmod.corpus_from_lines(corpus, categories)
        proj = semmod.project(semmod.tfidf(docs), docs,
                              dim=cfg.projection_dim, seed=cfg.projection_seed)
        text_sim, topic_sim, missing = semmod.edge_similarities(g, proj, docs)
        x, y, region, covered, non_edge = ingest.read_visual(visual, g)
        table = ingest.build_feature_table(
            g, log, text_sim, topic_sim, x, y, region, covered=covered, alpha=cfg.damping
        )
        report_lines = [f"edges_without_corpus_article={missing}\n",
                        f"categories_without_corpus_article={docs.unmatched_category_rows}\n",
                        f"visual_rows_not_edges={non_edge}\n",
                        f"edges_without_visual_row={int((~covered).sum())}\n"]
        notes = (f"source=computed projection_dim={cfg.projection_dim} damping={cfg.damping}",
                 f"rows={len(table)}")
    outputs = {"features.tsv": (notes, ingest.feature_table_lines(table)),
               "features_report.txt": ((), report_lines)}
    return outputs, f"{len(table)} link records written"


def sample(cfg, g, log, table):
    import numpy as np
    from . import graph as graphmod, ingest

    eligible = graphmod._sorted_unique(log.src)  # sources with at least one outgoing transition
    if cfg.sample_size > len(eligible):
        raise ClickgraphError(
            f"sample size {cfg.sample_size} exceeds the {len(eligible)} eligible articles")
    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(eligible, size=cfg.sample_size, replace=False)
    in_sample = np.isin(table.src, chosen)
    sub = ingest.LinkFeatureTable(src=table.src[in_sample], trg=table.trg[in_sample],
                                  data={k: v[in_sample] for k, v in table.data.items()},
                                  labels=table.labels)
    notes = (f"sample_size={cfg.sample_size} eligible={len(eligible)} rows={len(sub)}",)
    outputs = {"sample.tsv": (notes, ingest.feature_table_lines(sub))}
    return outputs, f"{cfg.sample_size} articles, {len(sub)} link records"


def attention(cfg, g, log):
    import numpy as np
    from . import attention as attmod

    outputs = {}
    hist, conc = attmod.transition_histogram(log)
    outputs["attention_transition_hist.tsv"] = (
        (f"total_transitions={conc.total_transitions} "
         f"half_mass_links={_fmt(conc.top_k)} half_mass_share={_fmt(conc.top_share)}",),
        _table("count frequency", sorted(hist.items())),
    )

    wiki_out, trans_out = attmod.outdegree_comparison(g, log)
    outputs["attention_outdegree_hist.tsv"] = (
        ("restriction=sources present in both networks",),
        _table("network out_degree frequency",
               [(network, d, f) for network, out in (("wiki", wiki_out), ("trans", trans_out))
                for d, f in zip(*np.unique(out, return_counts=True))]),
    )

    ginis, skipped = attmod.per_article_gini(g, log)
    bins = np.linspace(0.0, 1.0, 21)
    freq, _ = np.histogram(ginis, bins=bins)
    outputs["attention_gini_hist.tsv"] = (
        (f"articles={len(ginis)} excluded_all_zero={skipped}",),
        _table("bin_lo bin_hi frequency", zip(bins[:-1], bins[1:], freq)),
    )

    sections = (
        ("wiki_out_degrees", wiki_out, cfg.xmin_degrees),
        ("trans_out_degrees", trans_out, cfg.xmin_degrees),
        ("transition_counts", log.count, cfg.xmin_transitions),
    )
    lines = []
    for name, samples, xmin in sections:
        lines.append(f"[{name}] xmin={xmin}\n")
        try:
            rep = attmod.fit_distributions(samples, xmin=xmin)
        except (InsufficientDataError, DegenerateInputError) as exc:
            lines.append(f"  unavailable: {exc}\n")
            continue
        lines.append(f"  winner: {rep.winner} (n_tail={rep.n_tail})\n")
        for fam in attmod.FAMILIES:
            fit = rep.fits[fam]
            if not fit.converged:
                lines.append(f"  {fam}: failed ({fit.message})\n")
                continue
            pars = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(fit.params.items()))
            lines.append(
                f"  {fam}: {pars} loglik={_fmt(fit.loglik)} aic={_fmt(fit.aic)} "
                f"delta_aic={_fmt(rep.delta_aic[fam])}\n"
            )
    outputs["attention_fits.txt"] = (
        ("model selection: AIC (2k - 2 lnL), smallest wins; xmin fixed per section, not searched",),
        lines,
    )
    return outputs, f"{len(ginis)} article Gini values, {skipped} excluded"


def hurdle(cfg, g, log, table):
    from . import hurdle as hurdlemod

    rows = hurdlemod.feature_battery(table, threshold=cfg.threshold)
    notes = (f"threshold={cfg.threshold} rows={len(table)}",
             "fixed-effects fits; one feature per model vs intercept-only, LRT chi-square p-values")
    lines = _table(
        "feature transformation binomial_coef binomial_lrt binomial_p binomial_error "
        "ztnb_coef ztnb_lrt ztnb_p ztnb_error",
        [(r.feature, r.transformation, r.binomial_coef, r.binomial_lrt, r.binomial_p,
          r.binomial_error or "-", r.ztnb_coef, r.ztnb_lrt, r.ztnb_p, r.ztnb_error or "-")
         for r in rows],
    )
    binomial = sum(r.binomial_coef is not None for r in rows)
    ztnb = sum(r.ztnb_coef is not None for r in rows)
    return ({"hurdle_fits.tsv": (notes, lines)},
            f"{binomial}/{len(rows)} binomial, {ztnb}/{len(rows)} ztnb fits")


def build_hypotheses(g, table) -> list:
    import numpy as np
    from . import evidence as evmod, graph as graphmod

    text = np.asarray(table.edge_values(g, "text_sim", fill=np.nan), dtype=np.float64)
    singles = [evmod.kcore_hypothesis(g, graphmod.kcore(g)),
               evmod.textsim_hypothesis(g, text),
               evmod.visual_hypothesis(g, table.edge_values(g, "region", fill=None))]
    return singles + [evmod.combine(list(parts))
                      for r in (2, 3) for parts in itertools.combinations(singles, r)]


def hyptrails(cfg, g, log, table):
    from . import evidence as evmod

    grid = evmod.default_kappa_grid(g, cfg.kappa_multipliers, log_spaced=cfg.log_spaced)
    baseline = evmod.structural_hypothesis(g)
    hyps = build_hypotheses(g, table)
    curves = evmod.bayes_factor_curve(hyps, baseline, log, grid)
    base_curve = evmod.bayes_factor_curve([baseline], baseline, log, grid)[0]

    notes = (f"kappa_grid={','.join(_fmt(k) for k in grid)}",
             f"smoothing=structural matrix, weight {evmod.SMOOTHING_WEIGHT}",
             "bayes_factor in log units vs structural baseline")
    lines = _table(
        "hypothesis kappa log_evidence log_bayes_factor verdict",
        [(c.hypothesis, k, c.log_evidence[i], c.log_bayes_factor[i], c.verdicts[i])
         for c in [base_curve] + curves for i, k in enumerate(c.kappas)],
    )
    last = [c.log_bayes_factor[-1] for c in curves]  # a tie for the largest names no best
    best = curves[last.index(max(last))].hypothesis if last.count(max(last)) == 1 else "none"
    return ({"hyptrails_evidence.tsv": (notes, lines)},
            f"{len(curves)} hypotheses; best at largest kappa: {best}")


def pagerank(cfg, g, log, table):
    from . import ranking as rankmod

    hyps = build_hypotheses(g, table)
    evals = rankmod.evaluate_all(g, hyps, log, alphas=cfg.alphas,
                                 restrict_to_viewed=cfg.restrict_to_viewed, threads=cfg.threads)
    notes = (f"alphas={','.join(_fmt(a) for a in cfg.alphas)} "
             f"universe={'viewed articles' if cfg.restrict_to_viewed else 'all articles'}",
             "steiger_p is one-tailed for weighted rho > baseline rho")
    lines = _table(
        "hypothesis alpha rho p steiger_z steiger_p improved",
        [(r.hypothesis, r.alpha, r.rho, r.p, r.steiger_z, r.steiger_p, r.improved) for r in evals],
    )
    best = max((r for r in evals if r.hypothesis != "baseline"), key=lambda r: r.rho)
    return ({"pagerank_eval.tsv": (notes, lines)},
            f"best hypothesis {best.hypothesis} (rho={best.rho:.3f} at alpha={best.alpha})")
