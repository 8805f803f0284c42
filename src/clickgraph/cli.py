"""Pipeline orchestrator: the run config, the stage table and its driver.

Every analysis stage is a subcommand writing plot-ready delimited files into
one output directory.  One table, ``STAGES``, names each stage's help line,
its body, the artifacts its cache key hashes beside its input files, the
artifacts it reads and the ones it writes; ``run_stage`` does the rest for all
of them.  A body only computes: it
returns its artifacts' header notes and lines, its summary and its warnings.
The driver alone writes into the output directory, writes every header but
``graph.tsv``'s (which :func:`graph.save_graph` writes) and prefixes every
printed line with the stage name.  Writes are atomic (temp file + rename), a
manifest records config and input hashes so unchanged reruns are skipped (it
is the only cache), and every output starts with a header naming the tool
version, config hash, and seeds.  The cache is checked before any input is
loaded, so a rerun on an unchanged directory parses nothing.  Each stage body
imports the modules it runs (numpy and the kernels), so a cache hit imports,
beyond :mod:`clickgraph.errors`, only argparse, hashlib and json: no numpy,
no scipy, and no dataclasses, whose ``inspect`` import alone would cost a hit
about an eighth of its time (``RunConfig`` is a ``namedtuple`` for that
reason).  A second table, ``_FIELDS``, has one row per run setting and is the
only place where a flag, its type, range, default, help text or subcommands
are stated: ``RunConfig``, every subparser, the flag each error names, and
``load_config``'s checks are built from it.  Flag and config-file values
enter in ``load_config`` alone, which checks each one's type, then its range.
Nothing here parses a tab-separated artifact: each has one reader beside its
writer, in :mod:`clickgraph.graph` for ``graph.tsv`` and
:mod:`clickgraph.ingest` for the rest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections import namedtuple
from typing import Callable, NamedTuple

from . import __version__
from .errors import (
    ClickgraphError,
    ConfigError,
    DegenerateInputError,
    DependencyError,
    InsufficientDataError,
)

ARTIFACTS = {
    "graph": "graph.tsv",
    "transitions": "transitions.tsv",
    "features": "features.tsv",
    "features_report": "features_report.txt",
    "sample": "sample.tsv",
    "attention_transitions": "attention_transition_hist.tsv",
    "attention_outdegree": "attention_outdegree_hist.tsv",
    "attention_gini": "attention_gini_hist.tsv",
    "attention_fits": "attention_fits.txt",
    "hurdle": "hurdle_fits.tsv",
    "hyptrails": "hyptrails_evidence.tsv",
    "pagerank": "pagerank_eval.tsv",
}

MANIFEST = "manifest.json"


class _Kind(NamedTuple):
    rule: str                               # the type rule, as a config problem prints it
    test: Callable[[object], bool]          # does a config-file value have this type?
    parse: Callable[[str], object] | None   # the flag's argparse type; None: a store_true switch


class _Field(NamedTuple):
    name: str
    default: object
    kind: _Kind
    stages: tuple[str, ...]   # the subcommands taking its flag; () for every subcommand
    help: str | None
    bound: tuple[str, Callable[[object], bool]] | None = None  # range rule as printed, its test
    flag: str | None = None   # the flag, when it is not the name spelled with dashes


def _numbers(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


_PATH = _Kind("a string or null", lambda v: v is None or isinstance(v, str), str)
_TEXT = _Kind("a string", lambda v: isinstance(v, str), str)
_INT = _Kind("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int)
_NUMBER = _Kind("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float)
_NUMBERS = _Kind("a list of numbers",
                 lambda v: isinstance(v, (list, tuple)) and all(map(_NUMBER.test, v)), _numbers)
_SWITCH = _Kind("true or false", lambda v: isinstance(v, bool), None)

_AT_LEAST_0 = ("be >= 0", lambda v: v >= 0)

#: One row per run setting.  The order is the order of the subcommands' flags
#: (shared ones first) and of the problems a ConfigError lists.  A path row's
#: stages are the stages whose cache key hashes that file.
_FIELDS = (
    _Field("edges", None, _PATH, ("build",), "tab-separated src/trg article-name pairs"),
    _Field("clickstream", None, _PATH, ("build",), "referrer/resource/count transition rows"),
    _Field("fail_fast", False, _SWITCH, ("build",), "abort on the first malformed clickstream line"),
    _Field("feature_file", None, _PATH, ("features",),
           "precomputed feature table to validate and pass through"),
    _Field("corpus", None, _PATH, ("features",), "article token file (name TAB token...)"),
    _Field("categories", None, _PATH, ("features",), "article category file (name TAB category...)"),
    _Field("visual", None, _PATH, ("features",),
           "per-link visual file (src trg x_coord y_coord region)"),
    _Field("projection_dim", 512, _INT, ("features",), "tf-idf projection dimensions (default 512)",
           ("be >= 1", lambda v: v >= 1)),
    _Field("projection_seed", 0, _INT, ("features",), "tf-idf projection seed (default 0)",
           _AT_LEAST_0),
    _Field("damping", 0.85, _NUMBER, ("features",), "damping for the pagerank feature",
           ("lie in (0, 1)", lambda v: 0 < v < 1)),
    _Field("recompute_network_features", False, _SWITCH, ("features",),
           "recompute network columns from the graph and report mismatches"),
    _Field("kappa_multipliers", (1, 2, 3, 4, 5), _NUMBERS, ("hyptrails",),
           "comma-separated multiples of the mean out-degree",
           ("be one or more finite values > 0", lambda v: v and all(0 < k < math.inf for k in v))),
    _Field("log_spaced", False, _SWITCH, ("hyptrails",),
           "space the kappa grid geometrically over the same range"),
    _Field("alphas", (0.80, 0.85, 0.90), _NUMBERS, ("pagerank",), "comma-separated damping factors",
           ("be one or more values in (0, 1)", lambda v: v and all(0 < a < 1 for a in v))),
    _Field("restrict_to_viewed", False, _SWITCH, ("pagerank",),
           "correlate only over articles with at least one view", flag="--viewed-only"),
    _Field("sample_size", 10000, _INT, ("sample",), "articles to sample (default 10000)",
           _AT_LEAST_0),
    _Field("xmin_degrees", 1, _INT, ("attention",), "out-degree fits' lower cutoff (default 1)"),
    _Field("xmin_transitions", 10, _INT, ("attention",),
           "transition-count fit's lower cutoff (default 10)"),
    _Field("out", "out", _TEXT, (), "output directory (default: out)"),
    _Field("seed", 0, _INT, (), "sampling seed", _AT_LEAST_0),
    _Field("threads", 1, _INT, (), "worker threads for grid evaluations"),
    _Field("threshold", 10, _INT, (), "minimum transition count (default 10)"),
)

#: Each field's flag, ``{field: "--option"}``; every ConfigError names a field by it.
_OPTIONS = {f.name: f.flag or "--" + f.name.replace("_", "-") for f in _FIELDS}


class RunConfig(namedtuple("RunConfig", [f.name for f in _FIELDS],
                           defaults=[f.default for f in _FIELDS])):
    """One run's settings: a field per row of ``_FIELDS``, holding its default."""

    __slots__ = ()

    def hash(self) -> str:
        # out dir and thread count do not affect results; keep reruns into a
        # different directory byte-identical.
        d = self._asdict()
        d.pop("out")
        d.pop("threads")
        blob = json.dumps(d, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the optional JSON config file with command-line overrides.

    Every value of the wrong type, then every value out of range, is named in
    one ``ConfigError``, before any stage reads or writes a file.
    """
    values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except OSError as exc:  # a directory, or a file this user may not read
            raise ConfigError(f"config file {args.config} cannot be read: {exc.strerror}") from None
        except ValueError as exc:  # invalid JSON or UTF-8
            raise ConfigError(f"config file {args.config} is not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object, "
                              f"got {type(raw).__name__}")
        unknown = set(raw) - set(RunConfig._fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        values.update(raw)
    for name in RunConfig._fields:
        v = getattr(args, name, None)
        if v is not None:
            values[name] = v
    problems = []
    for f in _FIELDS:
        if f.name not in values:
            continue
        v = values[f.name]
        if not f.kind.test(v):
            problems.append((f.name, f"must be {f.kind.rule}, got {v!r}"))
        elif f.kind is _NUMBERS:
            try:
                values[f.name] = tuple(float(x) for x in v)
            except OverflowError:  # a config-file integer beyond the float range
                digits = max(len(str(abs(x))) for x in v if isinstance(x, int))
                problems.append((f.name, "must be a list of numbers within the float range, "
                                         f"got an integer of {digits} digits"))
    wrong = {name for name, _ in problems}
    cfg = RunConfig(**values)
    for f in _FIELDS:
        value = getattr(cfg, f.name)
        if f.bound and f.name not in wrong and not f.bound[1](value):
            shown = (",".join(map(str, value)) or "nothing") if isinstance(value, tuple) else value
            problems.append((f.name, f"must {f.bound[0]}, got {shown}"))
    if problems:
        raise ConfigError("; ".join(f"{_OPTIONS[name]} {problem}" for name, problem in problems))
    return cfg


def _validate_inputs(cfg: RunConfig, inputs: tuple[str, ...]) -> None:
    """Refuse a required input path that is unset or missing, and any input
    path naming a directory, before a file is hashed or read."""
    # A precomputed feature table stands in for the files it would be computed from.
    if cfg.feature_file and "feature_file" in inputs:
        required = ("feature_file",)
    else:
        required = tuple(k for k in inputs if k != "feature_file")
    problems = []
    for name in inputs:
        path = getattr(cfg, name)
        if name in required and not path:
            problems.append(f"{_OPTIONS[name]} is required for this command")
        elif name in required and not os.path.exists(path):
            problems.append(f"{name} path does not exist: {path}")
        elif path and os.path.isdir(path):
            problems.append(f"{_OPTIONS[name]} names a directory, not a file: {path}")
    if problems:
        raise ConfigError("; ".join(problems))


def _atomic_write(path: str, content) -> None:
    """Write ``path`` through a temp file and a rename.

    ``content`` is an iterable of lines, or a function that writes the file
    at the path it is given.  The temp file is created with mode 0o666 less
    the umask, as ``open`` would create ``path`` itself.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if callable(content):
            os.close(fd)
            content(tmp)
        else:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(cfg: RunConfig, stage: str, notes: tuple[str, ...]) -> list[str]:
    return [
        f"# clickgraph {__version__}\n",
        f"# stage={stage} config={cfg.hash()} seed={cfg.seed} "
        f"projection_seed={cfg.projection_seed}\n",
        *(f"# {note}\n" for note in notes),
    ]


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


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_manifest(outdir: str) -> dict:
    path = os.path.join(outdir, MANIFEST)
    if not os.path.exists(path):
        return {"tool": "clickgraph", "version": __version__, "stages": {}}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _artifact_path(cfg: RunConfig, key: str) -> str:
    return os.path.join(cfg.out, ARTIFACTS[key])


def _key_files(cfg: RunConfig, keys: tuple[str, ...]) -> dict[str, str]:
    """The existing files a cache key hashes, by the name the manifest gives them."""
    # Artifacts inside the output directory are keyed by their relative name
    # so manifests stay identical across runs into different directories.
    out = os.path.abspath(cfg.out)
    files = {}
    for k in keys:
        p = _artifact_path(cfg, k) if k in ARTIFACTS else getattr(cfg, k)
        if p and os.path.exists(p):
            ap = os.path.abspath(p)
            files[os.path.relpath(ap, out) if ap.startswith(out + os.sep) else p] = p
    return files


# ---------------------------------------------------------------------------
# Stage bodies.  Each returns ({artifact: content}, summary, *stderr lines);
# a content is (header notes, lines), or for graph.tsv a function writing the
# file at the path it is given.  Only ``run_stage`` writes header lines and
# `<stage>:` prefixes; the analysis stages' tables go through ``_table``.
# ---------------------------------------------------------------------------


def _build(cfg: RunConfig):
    from . import graph as graphmod, ingest

    with open(cfg.edges, "r", encoding="utf-8") as fh:
        edges, name_to_id = ingest.parse_edge_list(fh)
    g = graphmod.build_graph(edges, labels=list(name_to_id))  # ids follow first-seen order

    with open(cfg.clickstream, "r", encoding="utf-8") as fh:
        log, stats = ingest.parse_clickstream(
            fh, name_to_id, g, threshold=cfg.threshold, fail_fast=cfg.fail_fast
        )

    graph_notes = [f"clickgraph {__version__}", f"stage=build config={cfg.hash()} seed={cfg.seed}"]
    stat_notes = (
        f"threshold={cfg.threshold}",
        f"lines={stats.lines} malformed={stats.malformed} external={stats.external} "
        f"non_edge={stats.non_edge} below_threshold_pairs={stats.below_threshold_pairs}",
        f"kept_pairs={stats.kept_pairs} kept_transitions={stats.kept_count}",
    )
    outputs = {
        "graph": lambda path: graphmod.save_graph(g, path, header_lines=graph_notes),
        "transitions": (stat_notes, ingest.transition_lines(log, g.labels)),
    }
    summary = (f"{g.n_nodes} articles, {g.n_edges} links ({g.self_loops} self-loops); "
               f"kept {stats.kept_pairs} transition pairs")
    if stats.malformed:
        return outputs, summary, f"skipped {stats.malformed} malformed lines"
    return outputs, summary


def _features(cfg: RunConfig, g, log):
    from . import ingest, semantics as semmod

    if cfg.feature_file:
        with open(cfg.feature_file, "r", encoding="utf-8") as fh:
            table, report = ingest.load_feature_table(
                fh, g, log, recompute_network=cfg.recompute_network_features)
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
        with open(cfg.corpus, "r", encoding="utf-8") as tok_fh, \
                open(cfg.categories, "r", encoding="utf-8") as cat_fh:
            corpus = semmod.corpus_from_lines(tok_fh, cat_fh)
        proj = semmod.project(semmod.tfidf(corpus), corpus,
                              dim=cfg.projection_dim, seed=cfg.projection_seed)
        text_sim, topic_sim, missing = semmod.edge_similarities(g, proj, corpus)
        with open(cfg.visual, "r", encoding="utf-8") as fh:
            x, y, region, covered, non_edge = ingest.read_visual(fh, g)
        table = ingest.build_feature_table(
            g, log, text_sim, topic_sim, x, y, region, covered=covered, alpha=cfg.damping
        )
        report_lines = [f"edges_without_corpus_article={missing}\n",
                        f"visual_rows_not_edges={non_edge}\n",
                        f"edges_without_visual_row={int((~covered).sum())}\n"]
        notes = (f"source=computed projection_dim={cfg.projection_dim} damping={cfg.damping}",
                 f"rows={len(table)}")
    outputs = {"features": (notes, ingest.feature_table_lines(table)),
               "features_report": ((), report_lines)}
    return outputs, f"{len(table)} link records written"


def _sample(cfg: RunConfig, g, log, table):
    import numpy as np
    from . import ingest

    eligible = np.unique(log.src)  # sources with at least one outgoing transition
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
    outputs = {"sample": (notes, ingest.feature_table_lines(sub))}
    return outputs, f"{cfg.sample_size} articles, {len(sub)} link records"


def _attention(cfg: RunConfig, g, log):
    import numpy as np
    from . import attention as attmod

    outputs = {}
    hist, conc = attmod.transition_histogram(log)
    outputs["attention_transitions"] = (
        (f"total_transitions={conc.total_transitions} "
         f"half_mass_links={_fmt(conc.top_k)} half_mass_share={_fmt(conc.top_share)}",),
        _table("count frequency", sorted(hist.items())),
    )

    wiki, trans = attmod.outdegree_comparison(g, log)
    outputs["attention_outdegree"] = (
        (f"restriction={wiki.restriction}",),
        _table("network out_degree frequency", [(dist.source, d, f) for dist in (wiki, trans)
                                                for d, f in sorted(dist.histogram.items())]),
    )

    ginis, skipped = attmod.per_article_gini(g, log)
    bins = np.linspace(0.0, 1.0, 21)
    freq, _ = np.histogram(ginis, bins=bins)
    outputs["attention_gini"] = (
        (f"articles={len(ginis)} excluded_all_zero={skipped}",),
        _table("bin_lo bin_hi frequency", zip(bins[:-1], bins[1:], freq)),
    )

    wiki_out = g.out_degrees()
    trans_out = np.bincount(log.src, minlength=g.n_nodes) if len(log) else np.zeros(g.n_nodes, dtype=np.int64)
    shared = trans_out > 0
    sections = (
        ("wiki_out_degrees", wiki_out[shared], cfg.xmin_degrees),
        ("trans_out_degrees", trans_out[shared], cfg.xmin_degrees),
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
    outputs["attention_fits"] = (
        ("model selection: AIC (2k - 2 lnL), smallest wins; xmin fixed per section, not searched",),
        lines,
    )
    return outputs, f"{len(ginis)} article Gini values, {skipped} excluded"


def _hurdle(cfg: RunConfig, g, log, table):
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
    return {"hurdle": (notes, lines)}, f"{binomial}/{len(rows)} binomial, {ztnb}/{len(rows)} ztnb fits"


def _build_hypotheses(cfg: RunConfig, g, table) -> list:
    import numpy as np
    from . import evidence as evmod, graph as graphmod

    cores = graphmod.kcore(g)
    text = table.edge_values(g, "text_sim", fill=np.nan)
    regions = table.edge_values(g, "region", fill=None)
    singles = [
        evmod.kcore_hypothesis(g, cores),
        evmod.textsim_hypothesis(g, np.asarray(text, dtype=np.float64)),
        evmod.visual_hypothesis(g, regions),
    ]
    by_name = {h.name: h for h in singles}
    combos = [
        evmod.combine([by_name["kcore"], by_name["text_sim"]]),
        evmod.combine([by_name["kcore"], by_name["visual"]]),
        evmod.combine([by_name["text_sim"], by_name["visual"]]),
        evmod.combine([by_name["kcore"], by_name["text_sim"], by_name["visual"]]),
    ]
    return singles + combos


def _hyptrails(cfg: RunConfig, g, log, table):
    from . import evidence as evmod

    baseline = evmod.structural_hypothesis(g)
    hyps = _build_hypotheses(cfg, g, table)
    grid = evmod.default_kappa_grid(g, cfg.kappa_multipliers, log_spaced=cfg.log_spaced)
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
    best = max(curves, key=lambda c: c.log_bayes_factor[-1])
    return ({"hyptrails": (notes, lines)},
            f"{len(curves)} hypotheses; best at largest kappa: {best.hypothesis}")


def _pagerank(cfg: RunConfig, g, log, table):
    from . import ranking as rankmod

    hyps = _build_hypotheses(cfg, g, table)
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
    return ({"pagerank": (notes, lines)},
            f"best hypothesis {best.hypothesis} (rho={best.rho:.3f} at alpha={best.alpha})")


# ---------------------------------------------------------------------------
# Stage table and driver
# ---------------------------------------------------------------------------


class Stage(NamedTuple):
    help: str                # the subcommand's line in `clickgraph --help`
    body: Callable[..., tuple]
    keys: tuple[str, ...]    # artifacts the cache key hashes, beside the stage's path fields
    reads: tuple[str, ...]   # earlier artifacts the stage needs, checked in this order
    writes: tuple[str, ...]  # artifacts the body returns, written in this order


_GRAPH = ("graph", "transitions")
_TABLE = (*_GRAPH, "features")

STAGES = {
    "build": Stage("parse edge list + clickstream into graph artifacts", _build, (), (), _GRAPH),
    "features": Stage("assemble the per-link feature table", _features, _GRAPH, _GRAPH,
                      ("features", "features_report")),
    "sample": Stage("seeded article sample of the feature table", _sample, _TABLE, _TABLE,
                    ("sample",)),
    "attention": Stage("concentration statistics and distribution fits", _attention, _GRAPH,
                       _GRAPH, ("attention_transitions", "attention_outdegree", "attention_gini",
                                "attention_fits")),
    "hurdle": Stage("two-stage regression battery over link features", _hurdle, ("features",),
                    _TABLE, ("hurdle",)),
    "hyptrails": Stage("Bayesian evidence curves for navigation hypotheses", _hyptrails, _TABLE,
                       _TABLE, ("hyptrails",)),
    "pagerank": Stage("weighted pagerank evaluation against views", _pagerank, _TABLE, _TABLE,
                      ("pagerank",)),
}

_PRODUCER = {artifact: name for name, stage in STAGES.items() for artifact in stage.writes}


def run_stage(name: str, cfg: RunConfig) -> int:
    """Run one stage, or report a cache hit without loading any input.

    The cache key hashes the config, the artifacts in ``STAGES[name].keys``
    and the input files of the path fields whose rows name the stage.
    On a miss, a stage that reads earlier artifacts gets graph and log (and
    the feature table if it reads one); every artifact the body returns is
    written atomically under this stage's header, then the key is recorded in
    the manifest, and the body's summary and warnings are printed under the
    stage's name.
    """
    stage = STAGES[name]
    if os.path.exists(cfg.out) and not os.path.isdir(cfg.out):
        raise ConfigError(f"{_OPTIONS['out']} names a file, not a directory: {cfg.out}")
    for artifact in stage.reads:
        if not os.path.exists(_artifact_path(cfg, artifact)):
            raise DependencyError(f"missing {ARTIFACTS[artifact]} in {cfg.out}; "
                                  f"run `clickgraph {_PRODUCER[artifact]}` first")
    inputs = tuple(f.name for f in _FIELDS if f.kind is _PATH and name in f.stages)
    _validate_inputs(cfg, inputs)
    manifest = _load_manifest(cfg.out)
    files = _key_files(cfg, stage.keys + inputs)
    key = {"config": cfg.hash(), "inputs": {n: _sha256(p) for n, p in files.items()}}
    entry = manifest["stages"].get(name)
    if entry is not None and entry.get("key") == key and all(
            os.path.exists(os.path.join(cfg.out, f)) for f in entry.get("outputs", [])):
        print(f"{name}: cache hit, outputs unchanged")
        return 0

    from . import graph as graphmod, ingest

    loaded: tuple = ()
    if stage.reads:
        g = graphmod.load_graph(_artifact_path(cfg, "graph"))
        with open(_artifact_path(cfg, "transitions"), "r", encoding="utf-8") as fh:
            loaded = (g, ingest.read_transitions(fh, g, cfg.threshold))
    if "features" in stage.reads:
        with open(_artifact_path(cfg, "features"), "r", encoding="utf-8") as fh:
            loaded += (ingest.load_feature_table(fh, *loaded)[0],)
    outputs, summary, *warnings = stage.body(cfg, *loaded)
    for artifact in stage.writes:
        content = outputs[artifact]
        if not callable(content):
            notes, lines = content
            content = [*_header(cfg, name, notes), *lines]
        _atomic_write(_artifact_path(cfg, artifact), content)
    # A keyed input the stage has just rewritten (`features --feature-file
    # OUT/features.tsv`) is keyed as written, so the same run next is a hit.
    written = {os.path.realpath(_artifact_path(cfg, a)) for a in stage.writes}
    for n, p in files.items():
        if os.path.realpath(p) in written:
            key["inputs"][n] = _sha256(p)
    manifest["stages"][name] = {"key": key, "outputs": [ARTIFACTS[a] for a in stage.writes]}
    _atomic_write(os.path.join(cfg.out, MANIFEST),
                  [json.dumps(manifest, sort_keys=True, indent=1) + "\n"])
    print(f"{name}: {summary}")
    for line in warnings:
        print(f"{name}: {line}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # One `error:` line and exit code 2, as for a value load_config refuses.
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clickgraph",
        description="Link-success analytics over a link graph and click transitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for f in sorted(_FIELDS, key=lambda f: bool(f.stages)):  # the shared flags first
            if name in f.stages or not f.stages:
                how = {"type": f.kind.parse} if f.kind.parse else {"action": "store_true"}
                p.add_argument(_OPTIONS[f.name], dest=f.name, default=None, help=f.help, **how)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return run_stage(args.command, cfg)
    except ClickgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
