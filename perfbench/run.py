"""clickgraph benchmark: one command, three workloads, correctness checked every run.

    python3 perfbench/run.py --workload pipeline_cold --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout (it needs ``src/clickgraph``).  It
generates seeded inputs under ``.perfbench_work/``, runs the workload, checks
the program's outputs and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: end-to-end ``wall_s`` (mean of the timed repetitions),
  ``setup_s`` (median set-up) and ``peak_rss_mb`` (median per-repetition peak);
- ``--trace 1``: per-layer metrics from spans around clickgraph's public
  functions (see ``tracing.py``); untraced and traced repetitions alternate
  on the same inputs, and ``trace.overhead_s`` is the difference of their means.

Every time is reported in reference seconds: the raw time, rescaled by the
CPU speed a sampler process measured while it ran (see ``speed.py``),
because a shared machine drifts in speed by more than the bounds.

A workload runs a fixed number of repetitions, about ``--seconds`` of work at
the reference speed and at least MIN_REPS, so one seed always attempts the
same operations.  The pipelines run one input set per seed: their cost is
mostly imports and fits of a fixed size.  The library session's cost varies
more from graph to graph, so the seed gives it LIBRARY_DATASETS input sets of
one size and its repetitions cycle through them.  The line before the result records the environment, sizes, raw times
and every repetition.  Load is one process at a time, BLAS pinned to one
thread and ``--threads 1``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = {w["name"]: w["why"] for w in json.load(_fh)["workloads"]}
STAGES = ("build", "features", "sample", "attention", "hurdle", "hyptrails", "pagerank")

# Sizes fit the time budget of a 2-core machine: pipeline_cold repetitions
# take 9-15 s there, most of it 7 imports and the attention fits, whose
# cost hardly depends on the input size.
PIPELINE_ARTICLES = 600
LIBRARY_ARTICLES = 3000
LIBRARY_DATASETS = 5         # input sets per seed; repetitions cycle through them
SAMPLE_SHARE = 0.10          # sampled source articles, as a share of all articles
IMPORT_REPS = 3              # fresh-interpreter imports timed for set-up
MIN_REPS = 2                 # timed repetitions at least, whatever --seconds
#: Reference seconds one repetition takes; ``--seconds`` is divided by it.
REP_SECONDS = {"pipeline_cold": 6.0, "pipeline_rerun": 3.0, "library_session": 1.8}
STAGE_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CLI_METRICS = tuple((f"cli.{s}.wall_s", "s") for s in STAGES) + (
    ("cli.import_s", "s"), ("cli.cache_hits", "count"),
    ("cli.bytes_written", "bytes"), ("cli.bytes_read", "bytes"),
)
LAYER_METRICS = CLI_METRICS + tracing.SPAN_METRICS + (("trace.overhead_s", "s"),)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Run:
    """Paths, child environment and operation accounting of one benchmark run."""

    def __init__(self, root: str, work: str, seed: int, reps: int, traced: bool) -> None:
        self.root, self.work, self.seed, self.reps, self.traced = root, work, seed, reps, traced
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **BLAS_ENV)
        self.attempted = 0
        self.failures: list[str] = []   # failed operations (stage, fit or library call)
        self.broken: list[str] = []     # failed correctness checks: the run is not correct
        self.truths: list[dict] = []

    def rel(self, *parts: str) -> str:
        return os.path.relpath(os.path.join(self.work, *parts), self.root)

    def generate(self, count: int, articles: int) -> None:
        """Input sets ``inputs-<j>`` from seed (seed, j), each with its truth record."""
        for j in range(count):
            directory = os.path.join(self.work, f"inputs-{j}")
            self.truths.append(gen.write_inputs(directory, [self.seed, j], articles))

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.broken.append(what)

    @property
    def ok(self) -> bool:
        """No failed check and no failed operation other than a recorded hurdle fit error."""
        return not self.broken and all(f.startswith("fit ") for f in self.failures)

    def spawn(self, argv: list[str], log_name: str) -> tuple[int, float, int, str]:
        """Run one child to completion; returns (exit code, wall s, peak RSS KiB, stdout)."""
        out_path = os.path.join(self.work, log_name)
        with open(out_path, "w", encoding="utf-8") as out, \
                open(out_path + ".err", "w", encoding="utf-8") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(out_path + ".err", encoding="utf-8") as fh:
                self.failures.append(f"{' '.join(argv[1:4])} exited {proc.returncode}: {fh.read()[-2000:]}")
        return proc.returncode, wall, usage.ru_maxrss, stdout

    def repeat(self, one_rep) -> tuple[list[dict], list[dict]]:
        """Call ``one_rep(i, dataset, traced)`` as ``tracing.schedule`` plans;
        returns the untraced and the traced repetitions."""
        plain, with_trace = [], []
        for i, dataset, trace_this in tracing.schedule(len(self.truths), self.traced, self.reps):
            (with_trace if trace_this else plain).append(one_rep(i, dataset, trace_this))
            if not self.ok:
                break
        return plain, with_trace


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------


def stage_argv(run: Run, stage: str, dataset: int, out: str, traced: bool, spans: str) -> list[str]:
    inp = lambda f: run.rel(f"inputs-{dataset}", f)  # noqa: E731
    extra = {
        "build": ["--edges", inp("edges.tsv"), "--clickstream", inp("clickstream.tsv")],
        "features": ["--corpus", inp("corpus.tsv"), "--categories", inp("categories.tsv"),
                     "--visual", inp("visual.tsv")],
        "sample": ["--sample-size", str(round(SAMPLE_SHARE * run.truths[dataset]["articles"]))],
    }.get(stage, [])
    cli = [stage, *extra, "--out", out, "--threshold", str(gen.THRESHOLD), "--threads", "1"]
    if traced:
        return [sys.executable, os.path.join(HERE, "stage.py"), spans, *cli]
    return [sys.executable, "-m", "clickgraph.cli", *cli]


def run_pipeline(run: Run, dataset: int, out: str, traced: bool = False) -> dict:
    """All seven stages in order, each its own process, into ``out``.

    ``raw_wall_s`` is the sum of the stage processes' walls, taken between
    the monotonic instants ``t0`` and ``t1``.
    """
    rec = {"stages": {}, "rss_kb": 0, "cache_hits": 0, "layers": [], "t0": time.monotonic()}
    for stage in STAGES:
        spans = os.path.join(run.work, f"spans-{stage}.json")
        run.attempted += 1
        rc, wall, rss, stdout = run.spawn(stage_argv(run, stage, dataset, out, traced, spans), f"{stage}.log")
        rec["stages"][stage] = wall
        rec["rss_kb"] = max(rec["rss_kb"], rss)
        rec["cache_hits"] += "cache hit" in stdout
        if rc != 0:
            break
        if traced:
            with open(spans, encoding="utf-8") as fh:
                rec["layers"].append(json.load(fh))
    rec["raw_wall_s"], rec["t1"] = sum(rec["stages"].values()), time.monotonic()
    return rec


def _body(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


def _num(text: str) -> float:
    """A number as the CLI writes it; its ``NA`` reads as NaN."""
    return math.nan if text == "NA" else float(text)


def _header_counts(path: str) -> dict[str, int]:
    counts = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            for tok in line[1:].split():
                key, _, value = tok.partition("=")
                if value.isdigit():
                    counts[key] = int(value)
    return counts


def check_cold_outputs(run: Run, dataset: int, out: str) -> int:
    """Checks on a freshly written output directory; counts the 30 hurdle fits.

    Returns the number of rows ``sample`` kept.
    """
    truth = run.truths[dataset]
    path = lambda f: os.path.join(run.root, out, f)  # noqa: E731
    head = _header_counts(path("transitions.tsv"))
    keys = ("lines", "malformed", "external", "non_edge", "below_threshold_pairs",
            "kept_pairs", "kept_transitions")
    run.check({k: head.get(k) for k in keys} == {k: truth[k] for k in keys},
              f"build header {head} disagrees with the generator's truth")
    with open(os.path.join(run.work, f"inputs-{dataset}", "truth_pairs.tsv"), encoding="utf-8") as fh:
        want = sorted(fh)
    run.check(sorted(_body(path("transitions.tsv"))) == want, "transitions.tsv differs from the kept pairs")

    rows = _body(path("features.tsv"))
    col = rows[0].rstrip("\n").split("\t").index("transitions")
    total = sum(_num(r.split("\t")[col]) for r in rows[1:])
    run.check(total == truth["kept_transitions"], f"features.tsv transitions sum {total}")

    ev = [r.split("\t") for r in _body(path("hyptrails_evidence.tsv"))[1:]]
    run.check(len(ev) == 40 and all(math.isfinite(_num(r[2])) for r in ev),
              f"hyptrails_evidence.tsv: {len(ev)} rows, want 8 x 5 finite")
    pr = _body(path("pagerank_eval.tsv"))[1:]
    run.check(len(pr) == 24, f"pagerank_eval.tsv: {len(pr)} rows, want 8 x 3")

    fits = [r.rstrip("\n").split("\t") for r in _body(path("hurdle_fits.tsv"))[1:]]
    run.check(len(fits) == 15, f"hurdle_fits.tsv: {len(fits)} rows, want 15")
    for r in fits:
        for stage, err in (("binomial", r[5]), ("ztnb", r[9])):
            run.attempted += 1
            if err != "-":
                run.failures.append(f"fit {r[0]} {stage}: {err}")
    return _header_counts(path("sample.tsv")).get("rows", 0)


def snapshot(directory: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_identical(run: Run, a: str, b: str) -> None:
    names = sorted(os.listdir(a))
    run.check(names == sorted(os.listdir(b)), f"{a} and {b} hold different files")
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    for name in mismatch + errors:
        run.check(False, f"{name} differs between two runs on the same inputs")


def time_import(run: Run, statement: str) -> list[dict]:
    """Wall time of fresh interpreters running ``statement``, IMPORT_REPS times."""
    argv = [sys.executable, "-c", statement]
    walls = []
    for _ in range(IMPORT_REPS):
        run.attempted += 1
        t0 = time.monotonic()
        _rc, wall, _rss, _out = run.spawn(argv, "import.log")
        walls.append({"raw_s": wall, "t0": t0, "t1": time.monotonic()})
    return walls


def pipeline_layers(traced_reps: list[dict], plain_reps: list[dict]) -> dict:
    per_rep = []
    for rec in traced_reps:
        layer = tracing.merge([p["metrics"] for p in rec["layers"]])
        for key in ("import_s", "bytes_read", "bytes_written"):
            layer["cli." + key] = sum(p[key] for p in rec["layers"])
        layer["cli.cache_hits"] = rec["cache_hits"]
        per_rep.append(tracing.rescale(layer, rec["factor"]))
    layers = tracing.median_metrics(per_rep)
    for stage in STAGES if plain_reps else ():  # per-stage process wall, untraced repetitions
        layers[f"cli.{stage}.wall_s"] = statistics.median(r["stages"].get(stage, 0.0) * r["factor"]
                                                          for r in plain_reps)
    return layers


def workload_pipeline_cold(run: Run) -> dict:
    """Set-up is a fresh interpreter importing the CLI.  Every repetition
    runs the same inputs and must write a directory byte-identical to the
    first one's."""
    run.generate(1, PIPELINE_ARTICLES)
    setup = time_import(run, "import clickgraph.cli")
    first = os.path.join(run.root, run.rel("cold-0"))

    def one_rep(i: int, dataset: int, traced: bool) -> dict:
        out = run.rel(f"cold-{i}")
        rec = run_pipeline(run, dataset, out, traced)
        if run.ok:
            rec["sample_rows"] = check_cold_outputs(run, dataset, out)
            run.check(rec["cache_hits"] == 0, f"{rec['cache_hits']} cache hits in a cold run")
            if i == 0:
                return rec
            check_identical(run, first, os.path.join(run.root, out))
        shutil.rmtree(os.path.join(run.root, out), ignore_errors=True)
        return rec

    plain, with_trace = run.repeat(one_rep)
    return {"setup": setup, "plain": plain, "traced": with_trace}


def workload_pipeline_rerun(run: Run) -> dict:
    """Set-up is the cold run that fills the directory (once: it costs as much
    as a pipeline_cold repetition).  Every timed rerun must be all cache hits
    and leave every artifact byte-identical."""
    run.generate(1, PIPELINE_ARTICLES)
    out = run.rel("cold-0")
    cold = run_pipeline(run, 0, out)
    setup = [{"raw_s": cold["raw_wall_s"], "t0": cold["t0"], "t1": cold["t1"]}]
    if not run.ok:
        return {"setup": setup, "plain": [], "traced": []}
    sample_rows = check_cold_outputs(run, 0, out)
    before = snapshot(os.path.join(run.root, out))

    def one_rep(i: int, dataset: int, traced: bool) -> dict:
        rec = run_pipeline(run, dataset, out, traced)
        run.check(rec["cache_hits"] == len(STAGES), f"{rec['cache_hits']}/7 cache hits on a rerun")
        run.check(snapshot(os.path.join(run.root, out)) == before, "a cache-hit rerun changed an artifact")
        return rec | {"sample_rows": sample_rows}

    plain, with_trace = run.repeat(one_rep)
    return {"setup": setup, "plain": plain, "traced": with_trace}


# ---------------------------------------------------------------------------
# Library session (one worker process)
# ---------------------------------------------------------------------------


def workload_library_session(run: Run) -> dict:
    run.generate(LIBRARY_DATASETS, LIBRARY_ARTICLES)
    imports = time_import(
        run, "from clickgraph import attention, cli, evidence, graph, hurdle, ingest, ranking, semantics")
    cfg = {"inputs": [run.rel(f"inputs-{j}") for j in range(LIBRARY_DATASETS)], "reps": run.reps,
           "trace": int(run.traced), "seed": run.seed, "sample_share": SAMPLE_SHARE,
           "max_seconds": STAGE_TIMEOUT_S - 30}
    cfg_path, res_path = os.path.join(run.work, "session.json"), os.path.join(run.work, "result.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    rc, _wall, _rss, _out = run.spawn([sys.executable, os.path.join(HERE, "session.py"), cfg_path, res_path],
                                      "session.log")
    if rc != 0:
        return {"setup": [], "plain": [], "traced": []}
    with open(res_path, encoding="utf-8") as fh:
        res = json.load(fh)
    run.attempted += res["attempted"]
    for f in res["failed"]:
        (run.failures if f.startswith("fit ") else run.broken).append(f)
    reps = [r | {"rss_kb": res["maxrss_kb"]} for r in res["reps"]]
    return {
        "setup": imports, "parse": [r["setup"] for r in reps],
        "plain": [r for r in reps if not r["traced"]],
        "traced": [r for r in reps if r["traced"]],
    }


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------


def to_reference(res: dict, sampler: speed.Sampler) -> None:
    """Add reference-second times: ``wall_s`` and ``factor`` to every
    repetition, the set-up figures to ``setup_s`` and, for the library
    session, the traced repetitions' median ``layers``."""
    ref = lambda x: x["raw_s"] * sampler.factor(x["t0"], x["t1"])  # noqa: E731
    for rec in res["plain"] + res["traced"]:
        rec["factor"] = sampler.factor(rec["t0"], rec["t1"])
        rec["wall_s"] = rec["raw_wall_s"] * rec["factor"]
    res["setup_s"] = [ref(x) for x in res["setup"]]
    if res.get("parse"):  # library session: import, then parsing the inputs
        res["setup_s"] = [statistics.median(res["setup_s"]) + statistics.median(ref(x) for x in res["parse"])]
        res["layers"] = tracing.median_metrics([tracing.rescale(r["layers"], r["factor"]) for r in res["traced"]])


def environment(run: Run, workload: str, res: dict) -> dict:
    import numpy
    import scipy
    reps = res["plain"] + res["traced"]
    return {
        "workload": workload, "why": WORKLOADS[workload], "seed": run.seed,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)), "blas_env": BLAS_ENV,
        "datasets": [{k: t[k] for k in ("articles", "links", "kept_pairs", "kept_transitions")}
                     for t in run.truths],
        "sample_rows": [r.get("sample_rows") for r in reps],
        "setup_s": res["setup_s"], "raw_setup_s": [x["raw_s"] for x in res["setup"]],
        "rep_wall_s": [r["wall_s"] for r in res["plain"]],
        "rep_raw_wall_s": [r["raw_wall_s"] for r in res["plain"]],
        "rep_speed_factor": [r["factor"] for r in res["plain"]],
        "traced_rep_wall_s": [r["wall_s"] for r in res["traced"]],
        "raw_stage_wall_s": [r["stages"] for r in res["plain"] if "stages" in r],
        "failures": run.failures[:20], "broken": run.broken[:20],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "clickgraph", "cli.py")):
        print("error: run from the root of a clickgraph checkout (src/clickgraph missing)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    reps = max(MIN_REPS, math.ceil(args.seconds / REP_SECONDS[args.workload]))
    run = Run(root, work, args.seed, reps, bool(args.trace))
    # The program and the sampler share one CPU, so the sampler measures the
    # speed of the CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        os.makedirs(work)
        with speed.Sampler(os.path.join(work, "speed.json")) as sampler:
            res = globals()[f"workload_{args.workload}"](run)
        to_reference(res, sampler)
        print("# " + json.dumps(environment(run, args.workload, res), sort_keys=True))
        reps = res["plain"]
        if args.trace:
            if args.workload == "library_session":
                layers = dict(res["layers"])
            else:
                layers = pipeline_layers(res["traced"], reps)
            if reps and res["traced"]:
                layers["trace.overhead_s"] = (statistics.fmean(r["wall_s"] for r in res["traced"])
                                              - statistics.fmean(r["wall_s"] for r in reps))
            print("# layers " + json.dumps(layers, sort_keys=True))
            metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}
        else:
            values = {
                "wall_s": statistics.fmean(r["wall_s"] for r in reps) if reps else 0.0,
                "setup_s": statistics.median(res["setup_s"]) if res["setup_s"] else 0.0,
                "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024.0 if reps else 0.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        attempted = max(run.attempted, 1)
        failed = min(len(run.failures) + len(run.broken), attempted)
        print(json.dumps({"correct": run.ok and bool(reps), "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run or the self-test still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
