"""Self-test of the benchmark at a tiny size: ``python3 perfbench/selftest.py``.

Run from the root of a clickgraph checkout.  Checks that

- the generator is deterministic per seed (and differs across seeds);
- every workload prints, as its last line, exactly the result keys and every
  end-to-end (``--trace 0``) or per-layer (``--trace 1``) metric named in
  BENCHMARK.json, with a correct result;
- every wrapped function is called at least once in the traced
  ``pipeline_cold`` run (catches a wrapper that misses a by-name import) and
  the structural call counts match the CLI's stage wiring;
- in a directory holding only BENCHMARK.json and the benchmark, the command
  fails without printing a result.

Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402

TINY = 300
ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".perfbench_work", "selftest")

#: Calls per cold pipeline run, fixed by how the CLI wires its stages.
STRUCTURAL_COUNTS = {
    "ingest.load_feature_table.calls": 4,   # sample, hurdle, hyptrails, pagerank
    "graph.load_graph.calls": 6,            # every stage after build
    "graph.kcore.calls": 3,                 # features, hyptrails, pagerank
    "evidence.log_evidence.calls": 50,      # (7 + 1) x 5 kappas + 2 x 5 baseline
    "ranking.weighted_pagerank.calls": 21,  # 7 hypotheses x 3 alphas
    "graph.pagerank.calls": 4,              # features + 3 baseline alphas
    "cli.cache_hits": 0,
}
CLI_ONLY = {  # functions only the CLI stages call
    "graph.load_graph", "graph.save_graph", "ingest.load_feature_table",
    "ingest.feature_table_lines", "ingest.transition_lines", "attention.transition_histogram",
}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def run(argv: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 and cwd == ROOT:
        print(proc.stderr[-3000:])
    return proc.returncode, proc.stdout.strip().splitlines()


def run_tiny(workload: str, trace: int) -> tuple[int, list[str]]:
    """``run.main`` in a fresh interpreter with every workload at TINY articles."""
    args = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
            f"run.PIPELINE_ARTICLES = run.LIBRARY_ARTICLES = {TINY}; sys.exit(run.main({args!r}))")
    return run([sys.executable, "-c", code])


def check_generator() -> None:
    dirs = [os.path.join(SCRATCH, name) for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        gen.write_inputs(d, seed, TINY)
    files = sorted(os.listdir(dirs[0]))
    _, diff, err = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
    expect(not diff and not err, f"generator deterministic per seed ({diff + err or 'all equal'})")
    _, diff, _ = filecmp.cmpfiles(dirs[0], dirs[2], gen.INPUT_FILES, shallow=False)
    expect(len(diff) == len(gen.INPUT_FILES), "another seed gives other inputs")
    with open(os.path.join(dirs[0], "corpus.tsv"), encoding="utf-8") as fh:
        names = [line.split("\t")[0] for line in fh]
    expect(all(not (set(n) & set("\t\n#")) for n in names) and any(not n.isascii() for n in names),
           "titles are UTF-8, some non-ASCII, none with tab, newline or #")


def check_workloads(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, e2e), (1, per_layer)):
            rc, lines = run_tiny(name, trace)
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{name} --trace {trace}: no result line (exit {rc})")
                continue
            expect(rc == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}
                   and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} --trace {trace}: exit 0, correct, nothing failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted, f"{name} --trace {trace}: emits exactly the {len(wanted)} metrics")
            if trace == 1:
                check_calls(name, json.loads(lines[-2].removeprefix("# layers ")))


def check_calls(workload: str, layers: dict) -> None:
    targets = {f"{m}.{a}" for m, a in tracing.TARGETS}
    if workload == "pipeline_cold":
        missed = sorted(t for t in targets if not layers.get(t + ".calls"))
        expect(not missed, f"pipeline_cold calls every wrapped function (missed: {missed})")
        wrong = {k: layers.get(k) for k, v in STRUCTURAL_COUNTS.items() if layers.get(k, 0) != v}
        expect(not wrong, f"pipeline_cold structural counts {STRUCTURAL_COUNTS} (wrong: {wrong})")
    elif workload == "library_session":
        missed = sorted(t for t in targets - CLI_ONLY if not layers.get(t + ".calls"))
        expect(not missed, f"library_session calls every library function (missed: {missed})")
    else:
        expect(layers.get("cli.cache_hits") == 7, "pipeline_rerun: 7/7 cache hits")


def check_bare_directory(bench: dict) -> None:
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = bench["command"] + ["--workload", "pipeline_cold", "--seed", "3", "--seconds", "1",
                               "--trace", "0"]
    rc, lines = run(argv, cwd=bare)
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           f"without src/ the command fails and prints no result (exit {rc})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_generator()
        check_bare_directory(bench)
        check_workloads(bench)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
