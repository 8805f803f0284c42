"""Pipeline orchestrator: the run config, the stage table and its driver.

Every analysis stage is a subcommand writing plot-ready delimited files into
one output directory.  One table, ``STAGES``, names each stage's help line, the
artifacts it reads and the ones it writes; ``run_stage`` does the rest for all
of them.  An artifact has one name, its file name in the output directory
(``graph.tsv``, ``hurdle_fits.tsv``): the table, the bodies' returns, the
manifest, the cache keys and every error use it.  A stage's body is the
function named after it in :mod:`clickgraph.stages`.  A body only computes: it
returns its artifacts' header notes and lines, its summary and its warnings.
The driver alone writes into the output directory, makes every header and
prefixes every printed line with the stage name.  Writes are atomic (temp
file + rename), a manifest records each stage's cache key so unchanged reruns are
skipped (it is the only cache), and every output starts with a header naming
the tool version, config hash, and seeds.  The key is the config hash and the
sha256 of exactly what the stage reads: each artifact in its ``reads``, named
by file name, and each input file its body reads, named by its field
(``edges``, ``corpus``, ...), never by path, so equal bytes give equal keys
and headers wherever they lie.  ``run_stage`` is the one place a file a stage
reads is opened: each file in the key once, as UTF-8 text, hashed from that
handle, rewound and handed to its parser, so each digest in the key is of
exactly the bytes parsed.  The cache is checked before any input is parsed, so
a rerun on an unchanged directory parses nothing.

A cache hit compiles and runs no stage body: :mod:`clickgraph.stages` and
the kernels are imported on a miss alone, and ``main`` builds the subparser of
the one stage it runs.  So a hit imports, beyond :mod:`clickgraph.errors`,
only argparse, hashlib and json: no numpy, no scipy, no ``typing`` and no
dataclasses (whose ``inspect`` import alone would cost a hit about an eighth
of its time); ``RunConfig`` and the tables' rows are plain namedtuples for
that reason.  The split into two modules matters where bytecode is not cached
(``PYTHONDONTWRITEBYTECODE``, a read-only install): there every process
compiles each module it imports.  A second table, ``_FIELDS``, has one row per
run setting and is the only place where a flag, its type, range, default,
help text or subcommands are stated: ``RunConfig``, every subparser, the flag
each error names, and ``load_config``'s checks are built from it.  Flag and
config-file values enter in ``load_config`` alone, which checks each one's
type, then its range.  Nothing here parses a tab-separated artifact: each has
one reader beside its writer, in :mod:`clickgraph.graph` for ``graph.tsv`` and
:mod:`clickgraph.ingest` for the rest.

Every command line ends in ``main``, a help and a refused flag included,
and ``main`` flushes stdout itself, so every failure ends there: a flag the
parser refuses, a ``ClickgraphError`` or an ``OSError`` (a stdout on a full
disk or a closed pipe, whether a stage or a help writes it, an artifact, the
manifest or ``--out`` that cannot be written) is one ``error:`` line on
stderr and exit code 2.  A ``clickgraph`` process (the console script, ``python -m
clickgraph.cli``) ends in ``entry_point``, which calls ``os._exit`` on that
code, skipping the interpreter's teardown, which cost a stage 30-170 ms and
a cache hit about a tenth of its time.  In that process atexit handlers and
finalisers do not run, so every file a stage writes is closed before
``main`` returns.  ``main`` called in-process returns its exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from collections import namedtuple

from . import __version__
from .errors import ClickgraphError, ConfigError, DependencyError, MalformedInputError

MANIFEST = "manifest.json"


#: A value type.  ``rule``: the type rule, as a config problem prints it;
#: ``test``: does a config-file value have this type?  ``parse``: the flag's
#: argparse type, or None for a store_true switch.
_Kind = namedtuple("_Kind", "rule test parse")

#: A run setting.  ``stages``: the subcommands taking its flag, () for every
#: subcommand; ``bound``: (its range rule as printed, the rule's test) or None;
#: ``flag``: the flag, when it is not the name spelled with dashes.
_Field = namedtuple("_Field", "name default kind stages help bound flag", defaults=(None, None))


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
_AT_LEAST_1 = ("be >= 1", lambda v: v >= 1)

#: One row per run setting.  The order is the order of the subcommands' flags
#: (shared ones first) and of the problems a ConfigError lists.  A path row's
#: stages are the stages that read that file and key it by the row's name;
#: ``features`` reads either ``feature_file`` or the three rows after it.
_FIELDS = (
    _Field("edges", None, _PATH, ("build",), "tab-separated src/trg article-name pairs"),
    _Field("clickstream", None, _PATH, ("build",), "referrer/resource/count transition rows"),
    _Field("fail_fast", False, _SWITCH, ("build",), "abort on the first malformed clickstream line"),
    _Field("feature_file", None, _PATH, ("features",),
           "precomputed feature table to validate and pass through; "
           "--corpus, --categories and --visual are then ignored"),
    _Field("corpus", None, _PATH, ("features",), "article token file (name TAB token...)"),
    _Field("categories", None, _PATH, ("features",), "article category file (name TAB category...)"),
    _Field("visual", None, _PATH, ("features",),
           "per-link visual file (src trg x_coord y_coord region)"),
    _Field("projection_dim", 512, _INT, ("features",), "tf-idf projection dimensions (default 512)",
           _AT_LEAST_1),
    _Field("projection_seed", 0, _INT, ("features",), "tf-idf projection seed (default 0)",
           _AT_LEAST_0),
    _Field("damping", 0.85, _NUMBER, ("features",), "damping for the pagerank feature",
           ("lie in (0, 1)", lambda v: 0 < v < 1)),
    _Field("recompute_network_features", False, _SWITCH, ("features",),
           "recompute network columns from the graph and report mismatches"),
    _Field("kappa_multipliers", (1, 2, 3, 4, 5), _NUMBERS, ("hyptrails",),
           "comma-separated multiples of the mean out-degree",
           ("be one or more strictly increasing finite values > 0",
            lambda v: v and all(0 < k < math.inf for k in v) and sorted(set(v)) == list(v))),
    _Field("log_spaced", False, _SWITCH, ("hyptrails",),
           "space the kappa grid geometrically over the same range"),
    _Field("alphas", (0.80, 0.85, 0.90), _NUMBERS, ("pagerank",), "comma-separated damping factors",
           ("be one or more strictly increasing values in (0, 1)",
            lambda v: v and all(0 < a < 1 for a in v) and sorted(set(v)) == list(v))),
    _Field("restrict_to_viewed", False, _SWITCH, ("pagerank",),
           "correlate only over articles with at least one view", flag="--viewed-only"),
    _Field("sample_size", 10000, _INT, ("sample",), "articles to sample (default 10000)",
           _AT_LEAST_0),
    _Field("xmin_degrees", 1, _INT, ("attention",), "out-degree fits' lower cutoff (default 1)",
           _AT_LEAST_1),
    _Field("xmin_transitions", 10, _INT, ("attention",),
           "transition-count fit's lower cutoff (default 10)", _AT_LEAST_1),
    _Field("out", "out", _TEXT, (), "output directory (default: out)",
           ("be a non-empty path", lambda v: v != "")),
    _Field("seed", 0, _INT, (), "sampling seed", _AT_LEAST_0),
    _Field("threads", 1, _INT, (), "worker threads for grid evaluations", _AT_LEAST_1),
    _Field("threshold", 10, _INT, (), "minimum transition count (default 10)", _AT_LEAST_1),
)

#: Each field's flag, ``{field: "--option"}``; every ConfigError names a field by it.
_OPTIONS = {f.name: f.flag or "--" + f.name.replace("_", "-") for f in _FIELDS}


class RunConfig(namedtuple("RunConfig", [f.name for f in _FIELDS],
                           defaults=[f.default for f in _FIELDS])):
    """One run's settings: a field per row of ``_FIELDS``, holding its default."""

    __slots__ = ()

    def hash(self) -> str:
        # out dir and thread count do not affect results, and an input file is
        # keyed by its bytes, not its path: keep reruns into a different
        # directory, or on the same inputs elsewhere, byte-identical.
        d = self._asdict()
        d.pop("out")
        d.pop("threads")
        d.update((f.name, None) for f in _FIELDS if f.kind is _PATH)
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
        elif f.kind in (_INT, _NUMBER, _NUMBERS):
            numbers = v if f.kind is _NUMBERS else (v,)
            try:
                floats = tuple(map(float, numbers))
            except OverflowError:  # an integer beyond the float range
                digits = max(len(str(abs(x))) for x in numbers if isinstance(x, int))
                problems.append((f.name, f"must be {f.kind.rule} within the float range, "
                                         f"got an integer of {digits} digits"))
            else:
                values[f.name] = floats if f.kind is _NUMBERS else v
    wrong = {name for name, _ in problems}
    cfg = RunConfig(**values)
    for f in _FIELDS:
        value = getattr(cfg, f.name)
        if f.bound and f.name not in wrong and not f.bound[1](value):
            shown = ((",".join(map(str, value)) or "nothing") if isinstance(value, tuple)
                     else repr(value))
            problems.append((f.name, f"must {f.bound[0]}, got {shown}"))
    if problems:
        raise ConfigError("; ".join(f"{_OPTIONS[name]} {problem}" for name, problem in problems))
    return cfg


def _validate_inputs(cfg: RunConfig, inputs: tuple[str, ...]) -> None:
    """Refuse each of the input fields ``inputs`` whose path is unset, missing,
    or names a directory, a pipe or a device, by its flag, before a file is
    hashed or read: hashing would drain a pipe before the stage reads it."""
    problems = []
    for name in inputs:
        path = getattr(cfg, name)
        if not path:
            problems.append(f"{_OPTIONS[name]} is required for this command")
        elif not os.path.exists(path):
            problems.append(f"{_OPTIONS[name]} path does not exist: {path}")
        elif os.path.isdir(path):
            problems.append(f"{_OPTIONS[name]} names a directory, not a file: {path}")
        elif not os.path.isfile(path):
            problems.append(f"{_OPTIONS[name]} is not a regular file: {path}")
    if problems:
        raise ConfigError("; ".join(problems))


def _atomic_write(path: str, lines) -> None:
    """Write the iterable ``lines`` to ``path`` through a temp file and a rename.

    This is the one place a file in the output directory is opened for
    writing: as UTF-8, with no newline translation.  When ``lines`` raises, the
    exception propagates, ``path`` keeps its old bytes and the temp file is
    removed.  The temp file is created with mode 0o666 less the umask, as
    ``open`` would create ``path`` itself.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
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


def _open(path: str):
    """``path`` opened for reading as UTF-8 text, or one error line naming it."""
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:  # a file this user may not read, or one removed meanwhile
        raise MalformedInputError(f"{path} cannot be read: {exc.strerror}") from None


def _sha256(fh) -> str:
    """The sha256 of the bytes of the newly opened text stream ``fh``, read
    through ``fh.buffer``; ``fh`` is then rewound, so its parser reads exactly
    the bytes hashed."""
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.buffer.read(1 << 20), b""):
        h.update(chunk)
    fh.seek(0)
    return h.hexdigest()


def _load_manifest(outdir: str) -> dict:
    """The manifest in ``outdir``, or an empty one; refuse a file that is not
    a JSON object whose ``stages`` maps each stage to an object."""
    path = os.path.join(outdir, MANIFEST)
    if not os.path.exists(path):
        return {"tool": "clickgraph", "version": __version__, "stages": {}}
    try:
        with _open(path) as fh:
            manifest = json.load(fh)
    except ValueError:  # invalid JSON or UTF-8
        manifest = None
    entries = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(entries, dict) or not all(isinstance(e, dict) for e in entries.values()):
        raise MalformedInputError(f"{path} is not a manifest; deleting it makes every stage rerun")
    return manifest


def _record(outdir: str, name: str, entry: dict) -> None:
    """Set stage ``name``'s entry in a manifest re-read under an exclusive
    ``flock`` on ``outdir``, so stages run at once into it lose no entry."""
    import fcntl

    fd = os.open(outdir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        manifest = _load_manifest(outdir)
        manifest["stages"][name] = entry
        _atomic_write(os.path.join(outdir, MANIFEST),
                      [json.dumps(manifest, sort_keys=True, indent=1) + "\n"])
    finally:
        os.close(fd)  # releases the lock


# ---------------------------------------------------------------------------
# Stage table and driver
# ---------------------------------------------------------------------------


#: One stage.  ``help``: its line in ``clickgraph --help``; ``reads``: the
#: earlier artifacts it loads, checked in this order and hashed into its cache
#: key beside the input files of its path fields; ``writes``: the artifacts its
#: body returns, written in this order.  Each artifact is named by its file
#: name alone.  Its body is the function of the same name in
#: :mod:`clickgraph.stages`.
Stage = namedtuple("Stage", "help reads writes")

_GRAPH = ("graph.tsv", "transitions.tsv")
_TABLE = (*_GRAPH, "features.tsv")

STAGES = {
    "build": Stage("parse edge list + clickstream into graph artifacts", (), _GRAPH),
    "features": Stage("assemble the per-link feature table", _GRAPH,
                      ("features.tsv", "features_report.txt")),
    "sample": Stage("seeded article sample of the feature table", _TABLE, ("sample.tsv",)),
    "attention": Stage("concentration statistics and distribution fits", _GRAPH,
                       ("attention_transition_hist.tsv", "attention_outdegree_hist.tsv",
                        "attention_gini_hist.tsv", "attention_fits.txt")),
    "hurdle": Stage("two-stage regression battery over link features", _TABLE,
                    ("hurdle_fits.tsv",)),
    "hyptrails": Stage("Bayesian evidence curves for navigation hypotheses", _TABLE,
                       ("hyptrails_evidence.tsv",)),
    "pagerank": Stage("weighted pagerank evaluation against views", _TABLE,
                      ("pagerank_eval.tsv",)),
}

_PRODUCER = {artifact: name for name, stage in STAGES.items() for artifact in stage.writes}


def _build_hypotheses(cfg: RunConfig, g, table) -> list:
    """The seven navigation hypotheses that hyptrails and pagerank test, from
    :mod:`clickgraph.stages`; ``perfbench/session.py`` times them by this name
    and passes ``cfg``, which no hypothesis reads."""
    from . import stages

    return stages.build_hypotheses(g, table)


def run_stage(name: str, cfg: RunConfig) -> int:
    """Run one stage, or report a cache hit without loading any input.

    The stage's input fields are worked out once: the path fields whose rows
    name the stage, except that ``features`` reads ``feature_file`` alone
    when it is set and ``corpus``, ``categories`` and ``visual`` otherwise.
    Exactly these are validated, keyed, opened and passed to the body; a
    field outside them is ignored, however it is set.  The cache key hashes
    the config, the artifacts in ``STAGES[name].reads`` and these input
    files, each file by the name the manifest gives it: an artifact's file
    name, its only name, and an input's field.  Each of these files is
    opened here once, and its parser reads the handle its digest came from.
    On a miss, a stage that reads earlier artifacts gets graph and log (and
    the feature table if it reads one), then the streams of its input files;
    every artifact the body returns, keyed by its file name, is written
    atomically under that name in ``cfg.out`` with this stage's header, then
    the key is recorded in the manifest, and the body's summary and warnings
    are printed under the stage's name.
    """
    stage = STAGES[name]
    # The first write makes --out's missing directories below the nearest one that exists.
    existing = cfg.out
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError(
            f"{_OPTIONS['out']} names a file, not a directory: {cfg.out}" if existing == cfg.out
            else f"{_OPTIONS['out']} {cfg.out} lies below {existing}, which is not a directory")
    for artifact in stage.reads:
        if not os.path.exists(os.path.join(cfg.out, artifact)):
            raise DependencyError(f"missing {artifact} in {cfg.out}; "
                                  f"run `clickgraph {_PRODUCER[artifact]}` first")
    # A directory or a pipe here would be hashed, read or replaced: refuse it first.
    for file in (*stage.reads, *stage.writes, MANIFEST):
        if os.path.exists(path := os.path.join(cfg.out, file)) and not os.path.isfile(path):
            raise MalformedInputError(f"{path} is not a regular file" + (
                "; deleting it makes every stage rerun" if file == MANIFEST else ""))
    inputs = tuple(f.name for f in _FIELDS if f.kind is _PATH and name in f.stages)
    if "feature_file" in inputs:  # a precomputed table stands in for the other three files
        inputs = (("feature_file",) if cfg.feature_file
                  else tuple(n for n in inputs if n != "feature_file"))
    _validate_inputs(cfg, inputs)
    files = {a: os.path.join(cfg.out, a) for a in stage.reads}
    files.update({n: getattr(cfg, n) for n in inputs})
    handles = {}
    try:
        for n, p in files.items():  # each file the key names is opened here alone, once
            handles[n] = _open(p)
        entry = _load_manifest(cfg.out)["stages"].get(name)
        key = {"config": cfg.hash(), "inputs": {n: _sha256(fh) for n, fh in handles.items()}}
        if entry is not None and entry.get("key") == key and all(
                os.path.exists(os.path.join(cfg.out, f)) for f in entry.get("outputs", [])):
            print(f"{name}: cache hit, outputs unchanged")
            return 0

        from . import graph as graphmod, ingest, stages

        loaded: tuple = ()
        if stage.reads:
            g = graphmod.load_graph(handles["graph.tsv"])
            loaded = g, ingest.read_transitions(handles["transitions.tsv"], g, cfg.threshold)
        if "features.tsv" in stage.reads:
            loaded += (ingest.load_feature_table(handles["features.tsv"], *loaded)[0],)
        streams = {n: handles[n] for n in inputs}
        outputs, summary, *warnings = getattr(stages, name)(cfg, *loaded, **streams)
    except UnicodeDecodeError:
        for fh in handles.values():  # the decoder names no file: find the first one it refuses
            fh.seek(0)
            try:
                fh.buffer.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedInputError(f"{fh.name} is not UTF-8: {exc}") from None
        raise
    finally:
        for fh in handles.values():
            fh.close()
    for artifact in stage.writes:
        notes, lines = outputs[artifact]
        header = _header(cfg, name, notes)
        _atomic_write(os.path.join(cfg.out, artifact),
                      lines(header) if callable(lines) else itertools.chain(header, lines))
    # A keyed input the stage has just rewritten (`features --feature-file
    # OUT/features.tsv`) is keyed as written, so the same run next is a hit.
    written = {os.path.realpath(os.path.join(cfg.out, a)) for a in stage.writes}
    for n, p in files.items():
        if os.path.realpath(p) in written:
            with _open(p) as fh:
                key["inputs"][n] = _sha256(fh)
    _record(cfg.out, name, {"key": key, "outputs": list(stage.writes)})
    print(f"{name}: {summary}")
    for line in warnings:
        print(f"{name}: {line}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main prints it as the one `error:` line of a value load_config refuses.
        raise ConfigError(message)

    def _print_message(self, message, file=None):
        # argparse's own drops an OSError: a help that cannot be written is main's error.
        if message and (file := file or sys.stderr):  # None: its descriptor was closed at startup
            file.write(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of stage ``command`` when it is given."""
    parser = _Parser(
        prog="clickgraph",
        description="Link-success analytics over a link graph and click transitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fields = sorted(_FIELDS, key=lambda f: bool(f.stages))  # the shared flags first
    for name in (command,) if command else STAGES:
        p = sub.add_parser(name, help=STAGES[name].help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for f in fields:
            if name in f.stages or not f.stages:
                how = {"type": f.kind.parse} if f.kind.parse else {"action": "store_true"}
                p.add_argument(_OPTIONS[f.name], dest=f.name, default=None, help=f.help, **how)
    return parser


def main(argv=None) -> int:
    """Run the command line ``argv`` (default: this process's) and return its exit code.

    Every command line ends here, a help and a refused flag included: with 0
    after a stage's summary or a help, or with 2 after one ``error:`` line on
    stderr for a refused flag, a ``ClickgraphError`` or an ``OSError``, a
    stdout that cannot be written included.  No ``SystemExit`` leaves it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # A stage's own subparser parses, and prints help, usage and errors, as
    # the full parser would; the others are built only for the top-level help
    # and for a missing or unknown subcommand.
    parser = build_parser(argv[0] if argv and argv[0] in STAGES else None)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as printed:  # the help action, once its text is written
            code = printed.code
        else:
            code = run_stage(args.command, load_config(args))
        if sys.stdout is not None:  # None when the descriptor was closed at startup
            sys.stdout.flush()  # a full disk or a closed pipe raises here or in a print
        return code
    except (ClickgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    """Run ``main`` on this process's command line, then end the process at once.

    The ``clickgraph`` console script and ``python -m clickgraph.cli`` end
    here.  ``main`` has flushed stdout, and stderr is line-buffered, so
    ``os._exit`` ends the process on ``main``'s code (0, or 2 for an error
    line) without the interpreter's teardown, for every command line, a help
    and a refused flag included: atexit handlers and finalisers do not run,
    so every file a stage writes is closed, and its thread pool joined,
    before ``main`` returns.  A stderr that refuses even the error line ends
    it with 2.  Only an uncaught exception, a fault in the program,
    propagates as usual.
    """
    try:
        code = main()
    except OSError:  # stderr, too, cannot be written
        code = 2
    os._exit(code)


if __name__ == "__main__":
    entry_point()
