"""Pipeline orchestration: stage wiring, caching, determinism, dependency errors."""

import argparse
import builtins
import collections
import errno
import filecmp
import hashlib
import inspect
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickgraph import __version__, cli, graph, ingest
from clickgraph import attention as A
from clickgraph.cli import MANIFEST, build_parser, load_config, main
from clickgraph.errors import ConfigError, MalformedInputError

from helpers import LEGAL_NAMES, discrete_power_law_sample, fresh_env, read_graph, run_fresh


def run_pipeline(inputs: dict[str, str], out: str, projection_dim: int = 64) -> None:
    args = ["--out", out, "--threshold", "10"]
    assert main(["build", "--edges", inputs["edges"],
                 "--clickstream", inputs["clickstream"], *args]) == 0
    assert main(["features", "--corpus", inputs["corpus"],
                 "--categories", inputs["categories"], "--visual", inputs["visual"],
                 "--projection-dim", str(projection_dim), *args]) == 0
    for cmd in ("attention", "hurdle", "hyptrails", "pagerank"):
        assert main([cmd, *args]) == 0


# Runs each JSON-encoded argv through cli.main, then prints the modules loaded from
# numpy, scipy, dataclasses and inspect (which dataclasses imports, with ast and dis),
# and on a second line the clickgraph modules loaded.
RUN_STAGES = """
import json, sys
from clickgraph.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "dataclasses", "inspect")))
print(sorted(m for m in sys.modules if m.split(".")[0] == "clickgraph"))
"""

# The modules a cache hit loads from the package: the stage bodies and kernels load on a miss.
DRIVER_MODULES = "['clickgraph', 'clickgraph.cli', 'clickgraph.errors']"


def _subcommands() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


class TestOptions:
    SHARED = [
        ("--help", "help", "show this help message and exit"),
        ("--config", "config", "JSON config file; flags override its values"),
        ("--out", "out", "output directory (default: out)"),
        ("--seed", "seed", "sampling seed"),
        ("--threads", "threads", "worker threads for grid evaluations"),
        ("--threshold", "threshold", "minimum transition count (default 10)"),
    ]
    OWN = {
        "build": [
            ("--edges", "edges", "tab-separated src/trg article-name pairs"),
            ("--clickstream", "clickstream", "referrer/resource/count transition rows"),
            ("--fail-fast", "fail_fast", "abort on the first malformed clickstream line"),
        ],
        "features": [
            ("--feature-file", "feature_file",
             "precomputed feature table to validate and pass through; "
             "--corpus, --categories and --visual are then ignored"),
            ("--corpus", "corpus", "article token file (name TAB token...)"),
            ("--categories", "categories", "article category file (name TAB category...)"),
            ("--visual", "visual", "per-link visual file (src trg x_coord y_coord region)"),
            ("--projection-dim", "projection_dim", "tf-idf projection dimensions (default 512)"),
            ("--projection-seed", "projection_seed", "tf-idf projection seed (default 0)"),
            ("--damping", "damping", "damping for the pagerank feature"),
            ("--recompute-network-features", "recompute_network_features",
             "recompute network columns from the graph and report mismatches"),
        ],
        "sample": [("--sample-size", "sample_size", "articles to sample (default 10000)")],
        "attention": [
            ("--xmin-degrees", "xmin_degrees", "out-degree fits' lower cutoff (default 1)"),
            ("--xmin-transitions", "xmin_transitions",
             "transition-count fit's lower cutoff (default 10)"),
        ],
        "hurdle": [],
        "hyptrails": [
            ("--kappa-multipliers", "kappa_multipliers",
             "comma-separated multiples of the mean out-degree"),
            ("--log-spaced", "log_spaced", "space the kappa grid geometrically over the same range"),
        ],
        "pagerank": [
            ("--alphas", "alphas", "comma-separated damping factors"),
            ("--viewed-only", "restrict_to_viewed",
             "correlate only over articles with at least one view"),
        ],
    }

    def test_each_subcommand_has_these_options_in_this_order(self):
        # The shared flags come first; `--help` prints them in this order.
        _, subcommands = _subcommands()
        assert list(subcommands) == list(self.OWN)
        for name, sub in subcommands.items():
            options = [(a.option_strings[-1], a.dest, a.help) for a in sub._actions]
            assert options == self.SHARED + self.OWN[name], name


class TestDefaults:
    def test_each_cli_default_equals_the_library_default_it_stands_for(self):
        # The CLI spells its defaults out so that --help imports no kernel;
        # this keeps them from drifting apart from the library's.
        from clickgraph import attention, evidence, hurdle, ranking, semantics

        def default(func, name):
            return inspect.signature(func).parameters[name].default

        library = {
            "damping": [default(f, "alpha") for f in (
                graph.pagerank, ingest.compute_network_features, ingest.build_feature_table,
                ingest.load_feature_table, ranking.weighted_pagerank)],
            "threshold": [ingest.DEFAULT_THRESHOLD, default(hurdle.split_hurdle, "threshold"),
                          default(hurdle.feature_battery, "threshold")],
            "alphas": [ranking.DEFAULT_ALPHAS],
            "projection_dim": [default(semantics.project, "dim")],
            "projection_seed": [default(semantics.project, "seed")],
            "kappa_multipliers": [default(evidence.default_kappa_grid, "multipliers")],
            "xmin_degrees": [default(attention.fit_distributions, "xmin")],
        }
        fields = {f.name: f.default for f in cli._FIELDS}
        for name, defaults in library.items():
            for value in defaults:
                assert value == fields[name] and type(value) is type(fields[name]), (name, value)


class TestImports:
    def test_importing_the_cli_loads_no_numpy_scipy_or_dataclasses(self):
        assert run_fresh(RUN_STAGES, "[]") == f"[]\n{DRIVER_MODULES}\n"

    def test_cache_hit_rerun_loads_no_numpy_scipy_or_dataclasses(self, toy_inputs, tmp_path):
        out = str(tmp_path / "out")
        args = ["--out", out, "--threshold", "10"]
        run_pipeline(toy_inputs, out)
        assert main(["sample", "--sample-size", "5", *args]) == 0
        reruns = [
            ["build", "--edges", toy_inputs["edges"], "--clickstream", toy_inputs["clickstream"], *args],
            ["features", "--corpus", toy_inputs["corpus"], "--categories", toy_inputs["categories"],
             "--visual", toy_inputs["visual"], "--projection-dim", "64", *args],
            ["sample", "--sample-size", "5", *args],
            *([stage, *args] for stage in ("attention", "hurdle", "hyptrails", "pagerank")),
        ]
        printed = run_fresh(RUN_STAGES, json.dumps(reruns)).splitlines()
        assert printed == [f"{argv[0]}: cache hit, outputs unchanged" for argv in reruns] + [
            "[]", DRIVER_MODULES]

    def test_cache_miss_build_features_and_sample_load_no_scipy(self, toy_inputs, tmp_path):
        out = str(tmp_path / "out")
        args = ["--out", out, "--threshold", "10"]
        run_pipeline(toy_inputs, out)
        fresh = ["--out", str(tmp_path / "fresh"), "--threshold", "10"]
        misses = [
            ["build", "--edges", toy_inputs["edges"], "--clickstream", toy_inputs["clickstream"],
             *fresh],
            ["features", "--corpus", toy_inputs["corpus"], "--categories", toy_inputs["categories"],
             "--visual", toy_inputs["visual"], "--projection-dim", "64", *fresh],
            ["sample", "--sample-size", "5", *args],
        ]
        *summaries, modules, package = run_fresh(RUN_STAGES, json.dumps(misses)).splitlines()
        assert [line.split(":")[0] for line in summaries] == ["build", "features", "sample"]
        assert "cache hit" not in "".join(summaries)
        assert "'numpy'" in modules and "scipy" not in modules
        assert "'clickgraph.stages'" in package

    def test_cache_miss_under_python_m_loads_no_second_cli(self, toy_inputs, tmp_path):
        # Under `python -m clickgraph.cli` the driver is __main__: a stage body
        # importing clickgraph.cli would compile and run a second copy of it.
        # The module ends the process with os._exit; here that raises SystemExit instead.
        code = ("import os, runpy, sys\n"
                "def _exit(code):\n    raise SystemExit(code)\n"
                "os._exit = _exit\n"
                "try:\n    runpy.run_module('clickgraph.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n    print(exc.code)\n"
                "print(sorted(m for m in sys.modules if m.startswith('clickgraph')))")
        printed = run_fresh(code, "build", "--edges", toy_inputs["edges"], "--clickstream",
                            toy_inputs["clickstream"], "--out", str(tmp_path / "out"))
        summary, rc, modules = printed.splitlines()
        assert summary.startswith("build: ") and rc == "0"
        assert "'clickgraph.stages'" in modules and "'clickgraph.cli'" not in modules


# `python -m clickgraph.cli`, which ends the process with os._exit after main returns.
PYTHON_M = [sys.executable, "-m", "clickgraph.cli"]


def _run(command, argv, cwd=None, stdout=subprocess.PIPE, **env):
    """Exit code, stdout and stderr of ``command argv`` in a fresh process;
    ``env`` sets variables, and a None value removes one."""
    environ = {k: v for k, v in {**fresh_env(), **env}.items() if v is not None}
    done = subprocess.run([*command, *argv], cwd=cwd, env=environ, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _tree(directory: str) -> dict[str, bytes]:
    files = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    return files


@pytest.fixture(scope="class")
def hit_out(toy_inputs, tmp_path_factory) -> str:
    """An output directory where every stage is a cache hit."""
    out = str(tmp_path_factory.mktemp("hits") / "out")
    run_pipeline(toy_inputs, out)
    return out


class TestProcessEnding:
    def test_python_m_prints_exits_and_writes_as_main_returns(self, toy_inputs, tmp_path,
                                                               capsys, monkeypatch):
        clicks = tmp_path / "clicks.tsv"  # one malformed line: build warns on stderr
        clicks.write_text(open(toy_inputs["clickstream"], encoding="utf-8").read()
                          + "Graph_theory\tProbability\tmany\n")
        stages = [
            ["build", "--edges", toy_inputs["edges"], "--clickstream", str(clicks)],
            ["features", "--corpus", toy_inputs["corpus"], "--categories", toy_inputs["categories"],
             "--visual", toy_inputs["visual"], "--projection-dim", "64"],
            ["sample", "--sample-size", "5"],
            *([stage] for stage in ("attention", "hurdle", "hyptrails", "pagerank")),
        ]
        refused = [["pagerank", "--alphas", "1.5"], ["hurdle", "--bogus"]]
        runs = [[*argv, "--out", "out"]
                for argv in stages + refused + [["hurdle", "--help"]] + stages]
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in each process
        (tmp_path / "m").mkdir()
        (tmp_path / "main").mkdir()
        # Block-buffered stdout, as on a pipe: a line not flushed before the exit would be lost.
        by_python_m = [_run(PYTHON_M, argv, cwd=tmp_path / "m", PYTHONUNBUFFERED=None)
                       for argv in runs]
        monkeypatch.chdir(tmp_path / "main")
        by_main = [(main(argv), *capsys.readouterr()) for argv in runs]
        assert by_python_m == by_main
        assert [rc for rc, _, _ in by_main] == [0] * 7 + [2, 2, 0] + [0] * 7
        assert "build: skipped 1 malformed" in by_main[0][2]
        assert by_main[9][1].startswith("usage: clickgraph hurdle [-h]")
        assert all(out.endswith(": cache hit, outputs unchanged\n") for _, out, _ in by_main[10:])
        assert _tree(str(tmp_path / "m" / "out")) == _tree(str(tmp_path / "main" / "out"))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_full_disk_is_one_error_line(self, hit_out, unbuffered):
        # Unbuffered, print or the help's write raises; buffered, main's flush
        # does.  A stage once ended in a traceback with exit 1 or in Python's
        # report with exit 120, a help in that report or silently with exit 0.
        with open("/dev/full", "w") as full:
            ended = [_run(PYTHON_M, argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
                     for argv in (["hurdle", "--out", hit_out], ["hurdle", "--help"])]
        assert ended == [(2, None, "error: [Errno 28] No space left on device\n")] * 2

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_closed_pipe_is_one_error_line(self, hit_out, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            ended = [_run(PYTHON_M, argv, stdout=write, PYTHONUNBUFFERED=unbuffered)
                     for argv in (["hurdle", "--out", hit_out], ["hurdle", "--help"])]
        finally:
            os.close(write)
        assert ended == [(2, None, "error: [Errno 32] Broken pipe\n")] * 2

    def test_stdout_closed_at_startup_ends_as_before(self, hit_out):
        # sys.stdout is None there: print writes nothing, and there is nothing to flush.
        assert _run(["sh", "-c", '"$@" >&-', "sh", *PYTHON_M],
                    ["hurdle", "--out", hit_out]) == (0, "", "")

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "rerun"])
    def test_artifact_that_cannot_be_written_is_one_error_line(self, toy_inputs, tmp_path,
                                                               capsys, monkeypatch, earlier):
        # os.replace once raised its OSError out of main as a traceback.
        out = str(tmp_path / "out")
        build = ["build", "--edges", toy_inputs["edges"], "--clickstream",
                 toy_inputs["clickstream"], "--out", out]
        if earlier:  # a different threshold makes the rerun a miss that rewrites graph.tsv
            assert main([*build, "--threshold", "5"]) == 0
        before = _tree(out)

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full_disk)
        capsys.readouterr()
        assert main(build) == 2
        monkeypatch.undo()
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        # The old files and manifest (none when fresh), and no .tmp-* file.
        assert _tree(out) == before


class TestHelpAndUsage:
    # main builds only the subparser of the stage named first; every text a
    # user can see must stay that of the parser of all seven subcommands.
    @pytest.mark.parametrize("argv", [
        *([stage, "--help"] for stage in cli.STAGES),
        ["--help"], [], ["bogus"], ["build", "--bogus"], ["pagerank", "--alphas", "x"],
    ])
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with monkeypatch.context() as full:
            full.setattr(cli, "build_parser", lambda command=None: build_parser())
            code = main(argv)
            printed = capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == (code, printed)
        assert printed.out or printed.err


class TestPipeline:
    def test_all_stages_succeed_in_sequence(self, toy_inputs, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        produced = set(os.listdir(out))
        for fname in (
            "graph.tsv", "transitions.tsv", "features.tsv",
            "attention_transition_hist.tsv", "attention_outdegree_hist.tsv",
            "attention_gini_hist.tsv", "attention_fits.txt",
            "hurdle_fits.tsv", "hyptrails_evidence.tsv", "pagerank_eval.tsv",
            "manifest.json",
        ):
            assert fname in produced

    def test_every_output_header_names_version_config_and_seed(self, toy_inputs, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        for fname in os.listdir(out):
            if not fname.endswith((".tsv", ".txt")):
                continue
            with open(os.path.join(out, fname), encoding="utf-8") as fh:
                head = fh.read(400)
            assert __version__ in head
            assert "config=" in head
            assert "seed=" in head

    def test_outputs_byte_stable_across_runs(self, toy_inputs, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_pipeline(toy_inputs, out_a)
        run_pipeline(toy_inputs, out_b)
        for fname in sorted(os.listdir(out_a)):
            assert filecmp.cmp(
                os.path.join(out_a, fname), os.path.join(out_b, fname), shallow=False
            ), f"{fname} differs between identical runs"

    def test_rerun_hits_cache_and_leaves_bytes_untouched(self, toy_inputs, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        before = {f: open(os.path.join(out, f), "rb").read() for f in os.listdir(out)}
        capsys.readouterr()
        run_pipeline(toy_inputs, out)
        printed = capsys.readouterr().out
        assert printed.count("cache hit") == 6
        after = {f: open(os.path.join(out, f), "rb").read() for f in os.listdir(out)}
        assert before == after

    def test_rerun_on_unchanged_directory_loads_nothing(self, toy_inputs, tmp_path, capsys,
                                                       monkeypatch):
        out = str(tmp_path / "out")
        args = ["--out", out, "--threshold", "10"]
        run_pipeline(toy_inputs, out)
        assert main(["sample", "--sample-size", "5", *args]) == 0
        capsys.readouterr()

        def refuse(*_args, **_kwargs):
            raise AssertionError("a cache-hit rerun loaded an input")

        monkeypatch.setattr(graph, "load_graph", refuse)
        monkeypatch.setattr(ingest, "load_feature_table", refuse)
        monkeypatch.setattr(ingest.TransitionLog, "from_pairs", refuse)
        reruns = {
            "build": ["--edges", toy_inputs["edges"], "--clickstream", toy_inputs["clickstream"]],
            "features": ["--corpus", toy_inputs["corpus"], "--categories", toy_inputs["categories"],
                         "--visual", toy_inputs["visual"], "--projection-dim", "64"],
            "sample": ["--sample-size", "5"],
        }
        for stage in ("build", "features", "sample", "attention", "hurdle", "hyptrails", "pagerank"):
            assert main([stage, *reruns.get(stage, []), *args]) == 0
            assert capsys.readouterr().out == f"{stage}: cache hit, outputs unchanged\n"

    def test_output_directory_holds_only_recorded_artifacts_and_manifest(self, toy_inputs, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        assert main(["sample", "--sample-size", "5", "--out", out, "--threshold", "10"]) == 0
        produced = set(os.listdir(out))
        assert produced == {MANIFEST, *(f for stage in cli.STAGES.values() for f in stage.writes)}
        with open(os.path.join(out, MANIFEST), encoding="utf-8") as fh:
            stages = json.load(fh)["stages"]
        assert {f for entry in stages.values() for f in entry["outputs"]} == produced - {MANIFEST}

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_output_modes_follow_umask(self, toy_inputs, tmp_path, umask, mode):
        out = str(tmp_path / "out")
        previous = os.umask(umask)
        try:
            run_pipeline(toy_inputs, out)
            assert main(["sample", "--sample-size", "5", "--out", out, "--threshold", "10"]) == 0
        finally:
            os.umask(previous)
        modes = {f: stat.S_IMODE(os.stat(os.path.join(out, f)).st_mode) for f in os.listdir(out)}
        assert modes == dict.fromkeys(modes, mode)

    def test_stage_reruns_when_config_changes(self, toy_inputs, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        capsys.readouterr()
        assert main(["pagerank", "--out", out, "--threshold", "10",
                     "--alphas", "0.5,0.9"]) == 0
        assert "cache hit" not in capsys.readouterr().out


class TestManifest:
    def test_a_stage_finishing_inside_another_keeps_both_entries(self, toy_inputs, tmp_path,
                                                                monkeypatch):
        # hurdle records its entry while attention's body runs, as when both
        # run at once into one --out; attention's write must not drop it.
        from clickgraph import stages

        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--out", out]) == 0
        assert main(["features", "--corpus", toy_inputs["corpus"], "--categories",
                     toy_inputs["categories"], "--visual", toy_inputs["visual"],
                     "--projection-dim", "64", "--out", out]) == 0
        attention = stages.attention

        def hurdle_meanwhile(cfg, g, log):
            assert cli.run_stage("hurdle", cfg) == 0
            return attention(cfg, g, log)

        monkeypatch.setattr(stages, "attention", hurdle_meanwhile)
        assert main(["attention", "--out", out]) == 0
        with open(os.path.join(out, MANIFEST), encoding="utf-8") as fh:
            recorded = json.load(fh)["stages"]
        assert sorted(recorded) == ["attention", "build", "features", "hurdle"]

    @pytest.mark.parametrize("text", ["garbage", "[]", '{"stages": {"build": 5}}'],
                             ids=["not_json", "not_an_object", "entry_not_an_object"])
    def test_corrupt_manifest_is_refused_before_anything_runs(self, toy_inputs, tmp_path, capsys,
                                                             monkeypatch, text):
        # Each once ended in a JSONDecodeError, TypeError or AttributeError traceback.
        from clickgraph import stages

        monkeypatch.setattr(stages, "build", None)  # so a body that ran would raise TypeError
        out = tmp_path / "out"
        out.mkdir()
        (out / MANIFEST).write_text(text, encoding="utf-8")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {out / MANIFEST} is not a manifest; "
                                           "deleting it makes every stage rerun\n")
        assert _tree(str(out)) == {MANIFEST: text.encode()}


def _copy_inputs(toy_inputs: dict[str, str], directory) -> dict[str, str]:
    os.makedirs(directory)
    return {name: shutil.copy(path, directory) for name, path in toy_inputs.items()}


class TestCacheKey:
    """A key hashes exactly what the stage reads, each input named by its field."""

    def test_each_key_names_the_artifacts_and_inputs_the_stage_reads(self, hit_out):
        with open(os.path.join(hit_out, MANIFEST), encoding="utf-8") as fh:
            stages = json.load(fh)["stages"]
        fields = {"build": {"edges", "clickstream"}, "features": {"corpus", "categories", "visual"}}
        for name, entry in stages.items():
            assert set(entry["key"]["inputs"]) == (
                set(cli.STAGES[name].reads) | fields.get(name, set())), name

    def test_dropping_a_used_link_makes_hurdle_refit(self, toy_inputs, tmp_path, capsys):
        # hurdle's key once hashed features.tsv alone: after build dropped a
        # used link it printed a cache hit and kept fits over 78 rows.
        inputs = _copy_inputs(toy_inputs, tmp_path / "in")
        out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
        run_pipeline(inputs, out)
        with open(inputs["edges"], encoding="utf-8") as fh:
            lines = fh.readlines()
        lines.remove("Graph_theory\tStatistics\n")
        with open(inputs["edges"], "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        assert main(["build", "--edges", inputs["edges"], "--clickstream", inputs["clickstream"],
                     "--out", out, "--threshold", "10"]) == 0
        shutil.copytree(out, fresh)
        os.remove(os.path.join(fresh, MANIFEST))
        capsys.readouterr()
        for directory in (out, fresh):
            assert main(["hurdle", "--out", directory, "--threshold", "10"]) == 0
        assert capsys.readouterr().out == "hurdle: 14/15 binomial, 15/15 ztnb fits\n" * 2
        fits = os.path.join(out, "hurdle_fits.tsv")
        assert filecmp.cmp(fits, os.path.join(fresh, "hurdle_fits.tsv"), shallow=False)
        with open(fits, encoding="utf-8") as fh:
            assert "rows=77" in fh.read()

    def test_build_is_a_hit_however_its_input_paths_are_spelled(self, toy_inputs, tmp_path,
                                                               capsys, monkeypatch):
        _copy_inputs(toy_inputs, tmp_path / "in")
        monkeypatch.chdir(tmp_path)
        args = ["--out", "out", "--threshold", "10"]
        assert main(["build", "--edges", "in/edges.tsv", "--clickstream", "in/clickstream.tsv",
                     *args]) == 0
        capsys.readouterr()
        for edges, clicks in ((str(tmp_path / "in" / "edges.tsv"), "./in/clickstream.tsv"),
                              ("./in/edges.tsv", str(tmp_path / "in" / "clickstream.tsv"))):
            assert main(["build", "--edges", edges, "--clickstream", clicks, *args]) == 0
            assert capsys.readouterr().out == "build: cache hit, outputs unchanged\n"

    def test_equal_inputs_in_two_directories_give_equal_output_trees(self, toy_inputs, tmp_path):
        trees = []
        for name in ("a", os.path.join("b", "deeper")):
            out = str(tmp_path / name / "out")
            run_pipeline(_copy_inputs(toy_inputs, tmp_path / name / "in"), out)
            trees.append(_tree(out))
        assert MANIFEST in trees[0]
        assert trees[0] == trees[1]


    def test_outputs_come_from_the_bytes_the_key_hashed(self, toy_inputs, tmp_path, monkeypatch):
        # edges.tsv is replaced by a file with one more article right after it
        # is hashed, as when another process rewrites an input during a run.
        # build once keyed the old bytes but parsed the new file by path, and
        # wrote a graph of 21 articles under the 20-article file's key.
        inputs = _copy_inputs(toy_inputs, tmp_path / "in")
        edges = inputs["edges"]
        with open(edges, "rb") as fh:
            old = fh.read()
        newer = tmp_path / "newer.tsv"
        newer.write_bytes(old + b"Graph_theory\tNew_article\n")
        sha256 = cli._sha256

        def hash_then_replace(source):
            digest = sha256(source)
            if source.name == edges and newer.exists():
                os.replace(newer, edges)
            return digest

        monkeypatch.setattr(cli, "_sha256", hash_then_replace)
        out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
        assert main(["build", "--edges", edges, "--clickstream", inputs["clickstream"],
                     "--out", out]) == 0
        monkeypatch.undo()
        with open(os.path.join(out, MANIFEST), encoding="utf-8") as fh:
            key = json.load(fh)["stages"]["build"]["key"]
        assert key["inputs"]["edges"] == hashlib.sha256(old).hexdigest()
        hashed = tmp_path / "hashed.tsv"
        hashed.write_bytes(old)
        assert main(["build", "--edges", str(hashed), "--clickstream", inputs["clickstream"],
                     "--out", ref]) == 0
        assert _tree(out) == _tree(ref)

    @pytest.mark.parametrize("name, flags, unread", [
        ("build", ("--edges", "--clickstream"), ()),
        ("features", ("--corpus", "--categories", "--visual"), ()),
        ("features", ("--feature-file",), ()),
        ("features", ("--feature-file",), ("--corpus", "--categories", "--visual")),
        ("attention", (), ()),
        ("hurdle", (), ()),
    ], ids=["build", "features_computed", "features_from_file", "features_from_file_and_unread",
            "attention", "hurdle"])
    def test_a_cache_miss_opens_each_keyed_file_once(self, toy_inputs, hit_out, tmp_path,
                                                    monkeypatch, name, flags, unread):
        # Each keyed file was opened twice: once to hash it, then by path to
        # parse it.  Beside --feature-file the three files the body ignores
        # were opened and hashed once each.
        out = str(tmp_path / "out")
        shutil.copytree(hit_out, out)
        os.remove(os.path.join(out, MANIFEST))  # so the stage is a miss
        paths = {**toy_inputs, "feature-file": os.path.join(hit_out, "features.tsv")}
        keyed = [paths[flag[2:]] for flag in flags]
        keyed += [os.path.join(out, a) for a in cli.STAGES[name].reads]
        flags += unread
        opened = collections.Counter()
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, str):
                opened[os.path.realpath(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        argv = [name, *(x for flag in flags for x in (flag, paths[flag[2:]])), "--out", out]
        assert main([*argv, "--projection-dim", "64"] if name == "features" else argv) == 0
        monkeypatch.undo()
        with open(os.path.join(out, MANIFEST), encoding="utf-8") as fh:
            assert len(json.load(fh)["stages"][name]["key"]["inputs"]) == len(keyed)
        assert {p: opened[os.path.realpath(p)] for p in keyed} == dict.fromkeys(keyed, 1)
        assert [opened[os.path.realpath(paths[flag[2:]])] for flag in unread] == [0] * len(unread)

    def test_feature_file_mode_keys_no_unread_input(self, toy_inputs, hit_out, tmp_path, capsys):
        # The key once hashed --corpus beside --feature-file, though the body
        # never reads it: a line appended to the corpus made the same run a
        # miss that rewrote features.tsv.
        corpus = _copy_inputs(toy_inputs, tmp_path / "in")["corpus"]
        out = str(tmp_path / "out")
        shutil.copytree(hit_out, out)
        argv = ["features", "--feature-file", os.path.join(hit_out, "features.tsv"),
                "--corpus", corpus, "--out", out]
        assert main(argv) == 0
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write("Unread_article\tword\n")
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == "features: cache hit, outputs unchanged\n"
        with open(os.path.join(out, MANIFEST), encoding="utf-8") as fh:
            key = json.load(fh)["stages"]["features"]["key"]
        assert sorted(key["inputs"]) == ["feature_file", "graph.tsv", "transitions.tsv"]


class TestPrintedOutput:
    COLD = (
        "build: 20 articles, 78 links (0 self-loops); kept 33 transition pairs\n"
        "features: 78 link records written\n"
        "sample: 5 articles, 18 link records\n"
        "attention: 16 article Gini values, 4 excluded\n"
        "hurdle: 15/15 binomial, 15/15 ztnb fits\n"
        "hyptrails: 7 hypotheses; best at largest kappa: kcore+visual\n"
        "pagerank: best hypothesis kcore (rho=0.634 at alpha=0.8)\n"
    )
    STAGES = ("build", "features", "sample", "attention", "hurdle", "hyptrails", "pagerank")

    def test_cold_run_and_rerun_print_exactly_this(self, toy_inputs, tmp_path, capsys):
        args = ["--out", str(tmp_path / "out"), "--threshold", "10"]
        extra = {
            "build": ["--edges", toy_inputs["edges"], "--clickstream", toy_inputs["clickstream"]],
            "features": ["--corpus", toy_inputs["corpus"], "--categories", toy_inputs["categories"],
                         "--visual", toy_inputs["visual"], "--projection-dim", "64"],
            "sample": ["--sample-size", "5"],
        }
        for printed in (self.COLD, "".join(f"{s}: cache hit, outputs unchanged\n" for s in self.STAGES)):
            for stage in self.STAGES:
                assert main([stage, *extra.get(stage, []), *args]) == 0
            assert capsys.readouterr() == (printed, "")


class TestDependencies:
    @pytest.mark.parametrize(
        "stage", ["features", "sample", "attention", "hurdle", "hyptrails", "pagerank"]
    )
    def test_stage_without_build_names_producer(self, stage, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        assert main([stage, "--out", empty]) == 2
        assert capsys.readouterr() == (
            "", f"error: missing graph.tsv in {empty}; run `clickgraph build` first\n")

    def test_hurdle_without_features_names_producer(self, toy_inputs, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", out]) == 0
        capsys.readouterr()
        assert main(["hurdle", "--out", out]) == 2
        assert capsys.readouterr() == (
            "", f"error: missing features.tsv in {out}; run `clickgraph features` first\n")

    def test_config_validation_lists_problems(self, tmp_path, capsys):
        rc = main(["build", "--out", str(tmp_path / "o"),
                   "--edges", str(tmp_path / "missing-edges.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "edges" in err and "clickstream" in err


class TestPathsRefusedBeforeReading:
    def test_input_path_that_is_a_directory_is_refused(self, toy_inputs, tmp_path, capsys):
        # _sha256 once met the directory with an IsADirectoryError traceback.
        out = tmp_path / "out"
        assert main(["build", "--edges", str(tmp_path), "--clickstream", toy_inputs["clickstream"],
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --edges names a directory, not a file: {tmp_path}\n")
        assert not out.exists()
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["features", "--corpus", str(tmp_path), "--categories", toy_inputs["categories"],
                     "--visual", toy_inputs["visual"], "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --corpus names a directory, not a file: {tmp_path}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_directory_beside_a_feature_file_is_not_refused(self, hit_out, tmp_path, capsys):
        # --visual was validated beside --feature-file, though the body never
        # reads it, and a directory there was refused.
        out = str(tmp_path / "out")
        shutil.copytree(hit_out, out)
        capsys.readouterr()
        assert main(["features", "--feature-file", os.path.join(hit_out, "features.tsv"),
                     "--visual", str(tmp_path), "--out", out]) == 0
        assert capsys.readouterr() == ("features: 78 link records written\n", "")

    @pytest.mark.parametrize("flag", ["--edges", "--clickstream", "--feature-file", "--corpus",
                                      "--categories", "--visual"])
    def test_missing_input_is_named_by_its_flag(self, toy_inputs, hit_out, tmp_path, capsys,
                                                flag):
        # The problem once named the field (`feature_file path does not
        # exist`), where every other ConfigError names the flag.
        missing = str(tmp_path / "nope.tsv")
        out = str(tmp_path / "out")
        shutil.copytree(hit_out, out)
        given = next(flags for flags in (("--edges", "--clickstream"), ("--feature-file",),
                                         ("--corpus", "--categories", "--visual")) if flag in flags)
        stage = "build" if "--edges" in given else "features"
        paths = {f: missing if f == flag else toy_inputs[f[2:]] for f in given}
        before = _tree(out)
        capsys.readouterr()
        assert main([stage, *(x for f in given for x in (f, paths[f])), "--out", out]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} path does not exist: {missing}\n")
        assert _tree(out) == before

    def test_input_path_that_is_a_pipe_is_refused(self, toy_inputs, tmp_path):
        # _sha256 drained a pipe for the cache key, so build read an empty
        # stream and wrote an empty graph with exit 0.  In a child process:
        # opening a FIFO that has no writer blocks, so a regression times out.
        fifo = tmp_path / "edges.fifo"
        os.mkfifo(fifo)
        out = tmp_path / "out"
        code = ("import sys; sys.stderr = sys.stdout; "
                "from clickgraph.cli import main; print(main(sys.argv[1:]))")
        printed = run_fresh(code, "build", "--edges", str(fifo), "--clickstream",
                            toy_inputs["clickstream"], "--out", str(out))
        assert printed == f"error: --edges is not a regular file: {fifo}\n2\n"
        assert not out.exists()

    @pytest.mark.parametrize("file, make", [
        (MANIFEST, os.mkdir), ("graph.tsv", os.mkdir), ("transitions.tsv", os.mkfifo),
        ("attention_fits.txt", os.mkdir),
    ], ids=["manifest_directory", "read_directory", "read_fifo", "written_directory"])
    def test_out_path_that_is_not_a_regular_file_is_refused(self, toy_inputs, tmp_path, file, make):
        # The directories once ended in an IsADirectoryError traceback, from
        # _load_manifest or _sha256, or from os.replace after the fits ran and
        # three of the four files were rewritten; _sha256 blocked on the FIFO.
        # In a child process, so a stage that blocks times out.
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--out", str(out)]) == 0
        target = out / file
        if target.exists():
            target.unlink()
        make(target)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        done = subprocess.run([*PYTHON_M, "attention", "--out", str(out)], env=fresh_env(),
                              capture_output=True, text=True, timeout=30)
        hint = "; deleting it makes every stage rerun" if file == MANIFEST else ""
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"error: {target} is not a regular file{hint}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, file])

    @pytest.mark.parametrize("file", ["edges", "transitions.tsv", MANIFEST])
    def test_file_that_cannot_be_opened_is_one_error_line(self, toy_inputs, tmp_path, capsys,
                                                          monkeypatch, file):
        # Each once ended in a PermissionError traceback with exit 1.  open is
        # made to refuse the one path, so this holds when run as root too.
        out = str(tmp_path / "out")
        build = ["build", "--edges", toy_inputs["edges"], "--clickstream",
                 toy_inputs["clickstream"], "--out", out]
        assert main(build) == 0
        before = _tree(out)
        target = toy_inputs["edges"] if file == "edges" else os.path.join(out, file)
        real_open = builtins.open

        def refusing_open(path, *args, **kwargs):
            if path == target:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refusing_open)
        capsys.readouterr()
        assert main(build if file == "edges" else ["attention", "--out", out]) == 2
        monkeypatch.undo()
        assert capsys.readouterr() == ("", f"error: {target} cannot be read: Permission denied\n")
        assert _tree(out) == before

    @pytest.mark.skipif(os.geteuid() == 0, reason="root reads a file of mode 000")
    def test_artifact_this_user_may_not_read_is_one_error_line(self, toy_inputs, tmp_path,
                                                               capsys):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--out", str(out)]) == 0
        (out / "transitions.tsv").chmod(0)
        capsys.readouterr()
        assert main(["attention", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {out / 'transitions.tsv'} cannot be read: Permission denied\n")

    @pytest.mark.parametrize("stage", ["build", "attention"])
    def test_out_below_a_file_is_refused(self, toy_inputs, tmp_path, capsys, stage):
        # build once parsed every input and died in os.makedirs with a
        # NotADirectoryError traceback.
        blocker = tmp_path / "out.txt"
        blocker.write_text("kept\n")
        out = blocker / "sub" / "dir"
        inputs = ["--edges", toy_inputs["edges"], "--clickstream", toy_inputs["clickstream"]]
        assert main([stage, *(inputs if stage == "build" else []), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --out {out} lies below {blocker}, which is not a directory\n")
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("stage", ["build", "attention"])
    def test_out_that_is_a_file_is_refused(self, toy_inputs, tmp_path, capsys, stage):
        # build once parsed every input and died in _atomic_write with a
        # FileExistsError traceback; a later stage read "missing graph.tsv in FILE".
        out = tmp_path / "out.txt"
        out.write_text("kept\n")
        inputs = ["--edges", toy_inputs["edges"], "--clickstream", toy_inputs["clickstream"]]
        assert main([stage, *(inputs if stage == "build" else []), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --out names a file, not a directory: {out}\n")
        assert out.read_text() == "kept\n"


class TestAtomicWrite:
    def test_line_source_that_raises_leaves_the_old_file(self, tmp_path):
        # Enough lines that some reach the temp file before the source fails.
        target = tmp_path / "graph.tsv"
        target.write_bytes(b"old\n")

        def lines():
            for i in range(100_000):
                yield f"{i}\t{i}\n"
            raise MalformedInputError("label 'C' names two nodes")

        with pytest.raises(MalformedInputError, match="^label 'C' names two nodes$"):
            cli._atomic_write(str(target), lines())
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["graph.tsv"]


class TestConfigRanges:
    @pytest.mark.parametrize("argv, problem", [
        (["features", "--damping", "1.5"], "--damping must lie in (0, 1), got 1.5"),
        (["pagerank", "--alphas", "1.0"],
         "--alphas must be one or more strictly increasing values in (0, 1), got 1.0"),
        (["pagerank", "--alphas", "0.85,nan"],
         "--alphas must be one or more strictly increasing values in (0, 1), got 0.85,nan"),
        (["hyptrails", "--kappa-multipliers", "0,1"],
         "--kappa-multipliers must be one or more strictly increasing finite values > 0, "
         "got 0.0,1.0"),
        (["hyptrails", "--kappa-multipliers", "0,1", "--log-spaced"],
         "--kappa-multipliers must be one or more strictly increasing finite values > 0, "
         "got 0.0,1.0"),
        (["hyptrails", "--kappa-multipliers", "nan"],
         "--kappa-multipliers must be one or more strictly increasing finite values > 0, got nan"),
        (["hyptrails", "--kappa-multipliers", "1,inf"],
         "--kappa-multipliers must be one or more strictly increasing finite values > 0, "
         "got 1.0,inf"),
        # "best at largest kappa" reads the last kappa, and --log-spaced spans first to last
        (["hyptrails", "--kappa-multipliers", "5,1"],
         "--kappa-multipliers must be one or more strictly increasing finite values > 0, "
         "got 5.0,1.0"),
        (["hyptrails", "--kappa-multipliers", "1,5,2", "--log-spaced"],
         "--kappa-multipliers must be one or more strictly increasing finite values > 0, "
         "got 1.0,5.0,2.0"),
        (["pagerank", "--alphas", "0.85,0.85"],
         "--alphas must be one or more strictly increasing values in (0, 1), got 0.85,0.85"),
        (["pagerank", "--alphas", "0.9,0.8"],
         "--alphas must be one or more strictly increasing values in (0, 1), got 0.9,0.8"),
        (["features", "--projection-dim", "0"], "--projection-dim must be >= 1, got 0"),
        (["features", "--projection-seed", "-2"], "--projection-seed must be >= 0, got -2"),
        (["sample", "--sample-size", "-1"], "--sample-size must be >= 0, got -1"),
        (["sample", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["sample", "--sample-size", "-1", "--seed", "-1"],
         "--sample-size must be >= 0, got -1; --seed must be >= 0, got -1"),
        (["build", "--threshold", "0"], "--threshold must be >= 1, got 0"),
        (["features", "--threshold", "0"], "--threshold must be >= 1, got 0"),
        (["attention", "--xmin-degrees", "-5"], "--xmin-degrees must be >= 1, got -5"),
        (["attention", "--xmin-transitions", "0"], "--xmin-transitions must be >= 1, got 0"),
        (["pagerank", "--threads", "-4"], "--threads must be >= 1, got -4"),
        (["hyptrails", "--threads", "0"], "--threads must be >= 1, got 0"),
    ])
    def test_out_of_range_value_stops_with_an_error_and_writes_nothing(
            self, toy_inputs, tmp_path, capsys, argv, problem):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("field, source", [
        *(pytest.param(f, s, id=f"{f.name}-{s}")
          for f in cli._FIELDS if f.kind is cli._INT for s in ("flag", "config")),
        # A number flag reads 10**400 as inf, which its range refuses; a config
        # file's --damping once printed all 401 digits in its range error.
        *(pytest.param(f, "config", id=f"{f.name}-config")
          for f in cli._FIELDS if f.kind is cli._NUMBER),
    ])
    def test_integer_beyond_the_float_range_is_one_error_line(self, tmp_path, capsys, field,
                                                              source):
        # --xmin-degrees, --xmin-transitions, --projection-dim and --threshold
        # each once ended in an OverflowError traceback inside a stage.
        out = tmp_path / "out"
        stage = field.stages[0] if field.stages else "hurdle"
        option = cli._OPTIONS[field.name]
        if source == "flag":
            argv = [stage, option, str(10**400), "--out", str(out)]
        else:
            (tmp_path / "run.json").write_text(json.dumps({field.name: 10**400, "out": str(out)}))
            argv = [stage, "--config", str(tmp_path / "run.json")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {option} must be {field.kind.rule} within the "
                                           "float range, got an integer of 401 digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_is_refused_and_nothing_is_written(self, toy_inputs, tmp_path, capsys,
                                                         monkeypatch, source):
        # build once wrote graph.tsv and transitions.tsv into the working
        # directory and then ended in a FileNotFoundError traceback.
        monkeypatch.chdir(tmp_path)
        argv = ["build", "--edges", toy_inputs["edges"], "--clickstream", toy_inputs["clickstream"]]
        if source == "flag":
            argv += ["--out", ""]
        else:
            (tmp_path / "run.json").write_text(json.dumps({"out": ""}))
            argv += ["--config", "run.json"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --out must be a non-empty path, got ''\n")
        assert os.listdir(tmp_path) == ([] if source == "flag" else ["run.json"])

    def test_refused_build_makes_no_output_directory(self, toy_inputs, tmp_path, capsys):
        # --threshold 0 once ran build and features with exit 0 and stopped only at hurdle.
        out = tmp_path / "fresh"
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--threshold", "0", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: --threshold must be >= 1, got 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("spacing", [[], ["--log-spaced"]], ids=["linear", "log_spaced"])
    def test_kappa_grid_beyond_the_float_range_is_one_error_line(self, hit_out, spacing):
        # 1e308 passes the range check, but times the toy graph's mean
        # out-degree, 3.9, it is inf: the stage once ended in a ValueError traceback.
        before = _tree(hit_out)
        argv = ["hyptrails", "--kappa-multipliers", "1e308", *spacing, "--out", hit_out]
        assert _run([sys.executable, "-m", "clickgraph.cli"], argv) == (
            2, "", "error: kappa multiplier 1e+308 times the mean out-degree 3.9 "
                   "is beyond the float range\n")
        assert _tree(hit_out) == before

    def test_config_file_value_is_checked_too(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"alphas": [], "damping": 0}))
        assert main(["pagerank", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: --damping must lie in (0, 1), got 0; "
            "--alphas must be one or more strictly increasing values in (0, 1), got nothing\n")

    @pytest.mark.parametrize("values, problem", [
        ({"damping": "x"}, "--damping must be a number, got 'x'"),
        ({"damping": True}, "--damping must be a number, got True"),
        ({"alphas": 0.85}, "--alphas must be a list of numbers, got 0.85"),
        ({"alphas": [0.8, None]}, "--alphas must be a list of numbers, got [0.8, None]"),
        ({"kappa_multipliers": "12"}, "--kappa-multipliers must be a list of numbers, got '12'"),
        ({"fail_fast": "no"}, "--fail-fast must be true or false, got 'no'"),
        ({"restrict_to_viewed": 1}, "--viewed-only must be true or false, got 1"),
        ({"threshold": 10.0}, "--threshold must be an integer, got 10.0"),
        ({"seed": True}, "--seed must be an integer, got True"),
        ({"threads": "2"}, "--threads must be an integer, got '2'"),
        ({"edges": 5}, "--edges must be a string or null, got 5"),
        ({"out": None}, "--out must be a string, got None"),
        ({"alphas": [0.8, 10**400]},
         "--alphas must be a list of numbers within the float range, got an integer of 401 digits"),
        ({"kappa_multipliers": [1, -10**400]}, "--kappa-multipliers must be a list of numbers "
         "within the float range, got an integer of 401 digits"),
        ({"damping": "x", "seed": 1.5, "sample_size": -1, "alphas": []},
         "--damping must be a number, got 'x'; --seed must be an integer, got 1.5; "
         "--alphas must be one or more strictly increasing values in (0, 1), got nothing; "
         "--sample-size must be >= 0, got -1"),
        ({"kappa_multipliers": [5, 1], "threshold": 0, "xmin_degrees": 0, "threads": 0},
         "--kappa-multipliers must be one or more strictly increasing finite values > 0, "
         "got 5.0,1.0; --xmin-degrees must be >= 1, got 0; --threads must be >= 1, got 0; "
         "--threshold must be >= 1, got 0"),
    ])
    def test_config_file_value_of_a_wrong_type_stops_with_an_error_and_writes_nothing(
            self, toy_inputs, tmp_path, capsys, values, problem):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"out": str(out), **values}))
        capsys.readouterr()
        assert main(["pagerank", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    # A legal flag value of each field kind, by the kind's type rule, and the
    # value it gives the field; a switch takes no value.
    FLAG_VALUES = {
        "a string or null": ("p.tsv", "p.tsv"),
        "a string": ("o", "o"),
        "an integer": ("3", 3),
        "a number": ("0.5", 0.5),
        "a list of numbers": ("0.25,0.5", (0.25, 0.5)),
        "true or false": (None, True),
    }

    def test_each_field_is_set_and_named_by_its_own_flag(self, tmp_path):
        parser, subcommands = _subcommands()
        cfg_path = tmp_path / "run.json"
        assert [f.name for f in cli._FIELDS] == list(cli.RunConfig._fields)
        for field in cli._FIELDS:
            stages = field.stages or tuple(subcommands)
            options = {name: {a.dest: a.option_strings[-1] for a in sub._actions}
                       for name, sub in subcommands.items()}
            assert [s for s in subcommands if field.name in options[s]] == list(stages)
            text, value = self.FLAG_VALUES[field.kind.rule]
            cfg_path.write_text(json.dumps({field.name: {}}))
            for stage in stages:
                option = options[stage][field.name]
                args = parser.parse_args([stage, option, *([text] if text else [])])
                assert getattr(load_config(args), field.name) == value
                with pytest.raises(ConfigError) as refused:
                    load_config(parser.parse_args([stage, "--config", str(cfg_path)]))
                assert str(refused.value) == f"{option} must be {field.kind.rule}, got {{}}"

    @pytest.mark.parametrize("argv, numbers", [
        (["pagerank", "--alphas"], "x"),
        (["hyptrails", "--kappa-multipliers"], "1,,2"),
    ])
    def test_flag_that_is_not_a_number_list_is_one_error_line(self, capsys, argv, numbers):
        # The message once read "invalid _csv_floats value: 'x'" under a usage block.
        assert main([*argv, numbers, "--out", "o"]) == 2
        assert capsys.readouterr() == (
            "", f"error: argument {argv[1]}: must be comma-separated numbers, got {numbers!r}\n")

    EVERY_FIELD = {
        "edges": "e.tsv", "clickstream": "c.tsv", "feature_file": None, "corpus": "x",
        "categories": "y", "visual": "v", "threshold": 3, "fail_fast": True,
        "recompute_network_features": True, "damping": 0.5, "alphas": [0.5, 0.75],
        "kappa_multipliers": [1, 2.5, 100], "log_spaced": True, "projection_dim": 16,
        "projection_seed": 4, "sample_size": 7, "seed": 9, "xmin_degrees": 2,
        "xmin_transitions": 5, "restrict_to_viewed": True, "threads": 2, "out": "o"}

    @pytest.mark.parametrize("values, argv, digest", [
        ({}, [], "d7c496cb744f8900"),
        ({"damping": 1e-3, "kappa_multipliers": [3]}, [], "1fd56aa28668598d"),
        ({}, ["--kappa-multipliers", "1,2", "--seed", "3"], "f87ca03ec35ef3cf"),
        (EVERY_FIELD, [], "f7fde41a6480d38e"),
        # An input is keyed by its bytes: its path, however spelled, is not hashed.
        ({**EVERY_FIELD, "edges": "/elsewhere/e.tsv", "clickstream": "./c.tsv",
          "feature_file": "f.tsv", "corpus": None}, [], "f7fde41a6480d38e"),
    ])
    def test_config_hash_is_pinned(self, tmp_path, values, argv, digest):
        # Every header and manifest entry carries this hash: a config that ran
        # before keeps its digest, so its outputs stay byte-identical.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(values))
        args = build_parser().parse_args(["hyptrails", "--config", str(cfg_path), *argv])
        assert load_config(args).hash() == digest

    @pytest.mark.parametrize("argv", [
        ["build", "--threshold", "1"],
        ["attention", "--xmin-degrees", "1", "--xmin-transitions", "1", "--threads", "1"],
        ["sample", "--sample-size", "0", "--seed", "0"],
        ["pagerank", "--alphas", "0.5"],
        ["hyptrails", "--kappa-multipliers", "0.5,1,7.5", "--log-spaced"],
    ])
    def test_values_that_run_stay_accepted(self, argv):
        args = build_parser().parse_args([*argv, "--out", "o"])
        load_config(args)  # raises ConfigError on a value out of range


class TestConfigFile:
    def test_config_file_supplies_paths(self, toy_inputs, tmp_path):
        out = str(tmp_path / "out")
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "edges": toy_inputs["edges"],
            "clickstream": toy_inputs["clickstream"],
            "threshold": 10,
        }))
        assert main(["build", "--config", str(cfg_path), "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "graph.tsv"))

    @pytest.mark.parametrize("text, problem", [
        ('{"damping": 0.5', "is not JSON: Expecting ',' delimiter: line 1 column 16 (char 15)"),
        ("[1, 2]", "must hold a JSON object, got list"),
    ])
    def test_config_file_that_is_not_a_json_object_is_refused(self, tmp_path, capsys, text, problem):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        assert main(["pagerank", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", f"error: config file {cfg_path} {problem}\n")
        assert not (tmp_path / "o").exists()

    def test_config_path_that_is_a_directory_is_refused(self, tmp_path, capsys):
        # It once ended in an IsADirectoryError traceback and exit code 1.
        assert main(["pagerank", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == (
            "", f"error: config file {tmp_path} cannot be read: Is a directory\n")

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"edges": "x", "bogus_key": 1}))
        rc = main(["build", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err


class TestSample:
    def test_fixed_seed_gives_identical_sample(self, toy_inputs, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            run_pipeline(toy_inputs, out)
            assert main(["sample", "--out", out, "--threshold", "10",
                         "--sample-size", "5", "--seed", "7"]) == 0
        assert filecmp.cmp(os.path.join(out_a, "sample.tsv"),
                           os.path.join(out_b, "sample.tsv"), shallow=False)

    def test_sample_size_equal_to_eligible_returns_full_set(self, toy_inputs, tmp_path):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        with open(os.path.join(out, "transitions.tsv"), encoding="utf-8") as fh:
            sources = {line.split("\t")[0] for line in fh if not line.startswith("#")}
        assert main(["sample", "--out", out, "--threshold", "10",
                     "--sample-size", str(len(sources)), "--seed", "1"]) == 0
        with open(os.path.join(out, "sample.tsv"), encoding="utf-8") as fh:
            sampled = {line.split("\t")[0] for line in fh
                       if not line.startswith("#") and not line.startswith("src")}
        assert sampled == sources

    def test_oversized_sample_reports_eligible_count(self, toy_inputs, tmp_path, capsys):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        rc = main(["sample", "--out", out, "--threshold", "10",
                   "--sample-size", "10000", "--seed", "1"])
        assert rc == 2
        assert "eligible" in capsys.readouterr().err

    def test_sampled_out_degrees_keep_power_law_family(self, tmp_path):
        # synthetic network whose out-degrees follow a discrete power law;
        # the sampled articles' transition out-degrees must stay in the
        # power-law family per the distribution fitter
        rng = np.random.default_rng(77)
        n = 1500
        degs = np.minimum(discrete_power_law_sample(2.2, n, seed=77), 60)
        edge_lines = []
        click_lines = []
        for i in range(n):
            targets = rng.choice(n - 1, size=degs[i], replace=False)
            targets = np.where(targets >= i, targets + 1, targets)
            for t in targets:
                edge_lines.append(f"p{i}\tp{t}\n")
                click_lines.append(f"p{i}\tp{t}\t{int(rng.integers(10, 40))}\n")
        src_dir = tmp_path / "src"
        src_dir.mkdir()
        (src_dir / "edges.tsv").write_text("".join(edge_lines))
        (src_dir / "clicks.tsv").write_text("".join(click_lines))
        out = str(tmp_path / "out")
        assert main(["build", "--edges", str(src_dir / "edges.tsv"),
                     "--clickstream", str(src_dir / "clicks.tsv"), "--out", out]) == 0

        # features stage is bypassed: write a minimal table straight from the graph
        g = read_graph(os.path.join(out, "graph.tsv"))
        name_to_id = g.name_to_id()
        src_names, trg_names, counts = [], [], []
        with open(os.path.join(out, "transitions.tsv"), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                a, b, c = line.rstrip("\n").split("\t")
                src_names.append(a), trg_names.append(b), counts.append(int(c))
        log = ingest.TransitionLog.from_pairs(
            [name_to_id[a] for a in src_names], [name_to_id[b] for b in trg_names],
            counts, graph=g)
        table = ingest.build_feature_table(
            g, log,
            text_sim=np.zeros(g.n_edges), topic_sim=np.zeros(g.n_edges),
            x_coord=np.zeros(g.n_edges), y_coord=np.zeros(g.n_edges),
            region=np.asarray(["body"] * g.n_edges, dtype=object),
        )
        with open(os.path.join(out, "features.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(ingest.feature_table_lines(table))

        assert main(["sample", "--out", out, "--sample-size", "600", "--seed", "5"]) == 0
        with open(os.path.join(out, "sample.tsv"), encoding="utf-8") as fh:
            sample, _ = ingest.load_feature_table(fh, g, log)
        used = sample.data["transitions"] > 0
        outdeg = np.bincount(sample.src[used])
        outdeg = outdeg[outdeg > 0]
        report = A.fit_distributions(outdeg, xmin=1)
        assert report.winner in ("power_law", "truncated_power_law")
        assert report.fits["power_law"].params["alpha"] == pytest.approx(2.2, abs=0.25)


class TestBuildInput:
    def test_article_name_starting_with_hash_is_rejected(self, tmp_path, capsys):
        # Later stages would read the row for '#C' as a comment and silently drop it.
        edges = tmp_path / "edges.tsv"
        edges.write_text("A\tB\nB\tC\n#C\tA\nC\tA\n")
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text("A\tB\t40\nB\tC\t30\n#C\tA\t70\nC\tA\t50\n")
        rc = main(["build", "--edges", str(edges), "--clickstream", str(clicks),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'#C'" in err

    @pytest.mark.parametrize("fail_fast, rc, err", [
        ((), 0, "build: skipped 1 malformed lines\n"),
        (("--fail-fast",), 2, "error: line 1: count '99999999999999999999' outside the int64 range\n"),
    ])
    def test_count_outside_int64_is_a_malformed_line(self, tmp_path, capsys, fail_fast, rc, err):
        edges = tmp_path / "edges.tsv"
        edges.write_text("A\tB\nB\tA\n")
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text("A\tB\t99999999999999999999\nB\tA\t30\n")
        assert main(["build", "--edges", str(edges), "--clickstream", str(clicks),
                     "--out", str(tmp_path / "o"), *fail_fast]) == rc
        assert capsys.readouterr().err == err

    def test_summed_count_outside_int64_names_both_articles(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("A\tB\nB\tA\n")
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text(f"A\tB\t{2**63 - 1}\nA\tB\t1\n")
        assert main(["build", "--edges", str(edges), "--clickstream", str(clicks),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: summed count {2**63} of 'A' -> 'B' outside the int64 range\n")

    def test_kept_total_outside_int64_is_refused(self, tmp_path, capsys):
        # Each count fits int64; their sum does not.
        edges = tmp_path / "edges.tsv"
        edges.write_text("A\tB\nB\tA\n")
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text(f"A\tB\t{6 * 10**18}\nB\tA\t{6 * 10**18}\n")
        assert main(["build", "--edges", str(edges), "--clickstream", str(clicks),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: total transition count 12000000000000000000 outside the int64 range\n")

    def test_empty_edge_list_builds_and_runs_features_and_attention(self, toy_inputs, tmp_path):
        # graph.tsv has no label line for a graph of no nodes; it still reads as labelled.
        edges, clicks = tmp_path / "edges.tsv", tmp_path / "clicks.tsv"
        edges.write_text("")
        clicks.write_text("")
        out = str(tmp_path / "o")
        assert main(["build", "--edges", str(edges), "--clickstream", str(clicks),
                     "--out", out]) == 0
        assert main(["features", "--corpus", toy_inputs["corpus"],
                     "--categories", toy_inputs["categories"], "--visual", toy_inputs["visual"],
                     "--out", out]) == 0
        assert main(["attention", "--out", out]) == 0

    def test_clickless_log_over_toy_graph_runs_attention(self, toy_inputs, tmp_path):
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text("")
        out = str(tmp_path / "o")
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream", str(clicks),
                     "--out", out]) == 0
        assert main(["attention", "--out", out]) == 0
        with open(os.path.join(out, "attention_fits.txt"), encoding="utf-8") as fh:
            assert sum(line.startswith("  unavailable: ") for line in fh) == 3
        with open(os.path.join(out, "attention_outdegree_hist.tsv"), encoding="utf-8") as fh:
            assert [line for line in fh if not line.startswith("#")] == [
                "network\tout_degree\tfrequency\n"]


class TestTransitionsInput:
    @pytest.mark.parametrize("row, message", [
        ("Nonexistent_page\tAlso_missing\t50\n", "article 'Nonexistent_page' is not in graph.tsv"),
        ("Graph_theory\tSocial_network\n", "expected 3 tab-separated fields, got 2"),
        ("Graph_theory\tSocial_network\tmany\n", "non-integer count 'many'"),
        # Line 6 is the first data row, after the 5 header lines.
        ("Graph_theory\tStatistics\t90\n", "pair 'Graph_theory' -> 'Statistics' repeats line 6"),
        ("Graph_theory\tSocial_network\t3\n",
         "count 3 for 'Graph_theory' -> 'Social_network' is below --threshold 10"),
        ("Statistics\tGraph_theory\t50\n",
         "pair 'Statistics' -> 'Graph_theory' is not a link in graph.tsv"),
        ("Graph_theory\tSocial_network\t99999999999999999999\n",
         "count '99999999999999999999' outside the int64 range"),
        # A row's own fault on a later line once beat the repeat on this one.
        ("Graph_theory\tStatistics\t90\nGraph_theory\tSocial_network\tmany\n",
         "pair 'Graph_theory' -> 'Statistics' repeats line 6"),
    ], ids=["unknown_article", "two_fields", "non_integer_count", "repeated_pair",
            "below_threshold", "not_a_link", "count_outside_int64", "repeat_before_bad_row"])
    def test_bad_row_names_its_line(self, toy_inputs, tmp_path, capsys, row, message):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        transitions = out / "transitions.tsv"
        lines = transitions.read_text(encoding="utf-8").splitlines(keepends=True)
        transitions.write_text("".join(lines) + row, encoding="utf-8")
        capsys.readouterr()
        assert main(["attention", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line {len(lines) + 1}: {message}\n"


class TestGraphInput:
    @pytest.mark.parametrize("row, message", [
        ("garbage\n", "expected 2 tab-separated fields, got 1"),
        ("edges\t3x\n", "non-integer field in 'edges\\t3x'"),
    ], ids=["one_field", "non_integer_count"])
    def test_corrupt_line_names_its_line(self, toy_inputs, tmp_path, capsys, row, message):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        path = out / "graph.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines) + row, encoding="utf-8")
        capsys.readouterr()
        assert main(["attention", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line {len(lines) + 1}: {message}\n"

    @pytest.mark.parametrize("row, message", [
        ("label\t20\tNew\n", "label index 20 outside [0, 20)"),
        # Line 6 labels node 0, after the magic line, two notes, nodes and selfloops.
        ("label\t0\tNew\n", "label index 0 repeats line 6"),
        ("label\t20\tGraph_theory\n", "label 'Graph_theory' already names node 0"),
    ], ids=["index_past_nodes", "repeated_index", "repeated_name"])
    def test_bad_label_names_its_line(self, toy_inputs, tmp_path, capsys, row, message):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        path = out / "graph.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines) + row, encoding="utf-8")
        capsys.readouterr()
        assert main(["attention", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line {len(lines) + 1}: {message}\n"

    def test_graph_without_labels_is_refused(self, toy_inputs, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        path = out / "graph.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith("label\t")),
                        encoding="utf-8")
        capsys.readouterr()
        assert main(["attention", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: graph.tsv carries no node labels; rerun `clickgraph build`\n")

    @pytest.mark.parametrize("row, message", [
        ("99999999999999999999\t1\n", "edge id 99999999999999999999 outside [0, 20)"),
        ("-1\t1\n", "edge id -1 outside [0, 20)"),
        ("1\t20\n", "edge id 20 outside [0, 20)"),
    ], ids=["beyond_int64", "negative", "past_nodes"])
    def test_edge_id_outside_the_nodes_names_its_line(self, toy_inputs, tmp_path, capsys, row,
                                                      message):
        # An id beyond int64 once ended in an OverflowError traceback and exit code 1.
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        path = out / "graph.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("edges\t"))
        lines[at] = f"edges\t{int(lines[at].split()[1]) + 1}\n"
        path.write_text("".join(lines) + row, encoding="utf-8")
        capsys.readouterr()
        assert main(["attention", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line {len(lines) + 1}: {message}\n"


class TestCorpusInput:
    def test_article_name_starting_with_hash_is_refused(self, toy_inputs, tmp_path, capsys):
        # Read as an article, such a line moved every idf and most text_sim values.
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", out]) == 0
        corpus = tmp_path / "corpus.tsv"
        with open(toy_inputs["corpus"], encoding="utf-8") as fh:
            corpus.write_text("# generated corpus\tof twenty articles\n" + fh.read(), encoding="utf-8")
        capsys.readouterr()
        assert main(["features", "--corpus", str(corpus), "--categories", toy_inputs["categories"],
                     "--visual", toy_inputs["visual"], "--projection-dim", "64", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: line 1: article name '# generated corpus' starts with '#'\n")


    def test_category_rows_for_articles_not_in_the_corpus_are_counted(self, toy_inputs,
                                                                      tmp_path):
        # Such rows were once dropped without a count.
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", out]) == 0
        categories = tmp_path / "categories.tsv"
        with open(toy_inputs["categories"], encoding="utf-8") as fh:
            categories.write_text(fh.read() + "Not_an_article\tnowhere\nOther\tx\ty\n",
                                  encoding="utf-8")
        assert main(["features", "--corpus", toy_inputs["corpus"], "--categories", str(categories),
                     "--visual", toy_inputs["visual"], "--projection-dim", "64", "--out", out]) == 0
        with open(os.path.join(out, "features_report.txt"), encoding="utf-8") as fh:
            assert "categories_without_corpus_article=2\n" in fh.readlines()


class TestFeatureFileInput:
    def test_own_output_as_input_is_recomputed_once(self, toy_inputs, tmp_path, capsys):
        # The first run rewrites the file its cache key hashes; the key must
        # record it as written, so the same run again is a cache hit.
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        path = os.path.join(out, "features.tsv")

        def body():
            with open(path, encoding="utf-8") as fh:
                return [line for line in fh if not line.startswith("#")]

        computed = body()
        capsys.readouterr()
        for _ in range(2):
            assert main(["features", "--feature-file", path, "--out", out, "--threshold", "10"]) == 0
        assert capsys.readouterr().out == (
            "features: 78 link records written\nfeatures: cache hit, outputs unchanged\n")
        assert body() == computed

    @pytest.mark.parametrize("bad_rows, more", [(20, None), (25, 5)])
    def test_report_lists_first_rejections_and_counts_the_rest(self, toy_inputs, tmp_path,
                                                               bad_rows, more):
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        feature_file = tmp_path / "dirty-features.tsv"
        with open(os.path.join(out, "features.tsv"), encoding="utf-8") as fh:
            text = fh.read()
        feature_file.write_text(text + "bad row\n" * bad_rows, encoding="utf-8")
        assert main(["features", "--feature-file", str(feature_file),
                     "--out", out, "--threshold", "10"]) == 0
        with open(os.path.join(out, "features_report.txt"), encoding="utf-8") as fh:
            report = [line for line in fh if not line.startswith("#")]
        listed = [line for line in report if line.startswith("rejected line ")]
        assert len(listed) == 20
        assert listed[0].endswith("( -> ): expected 18 fields, got 1\n")
        # Lines count from the top of the file, its '#' header lines included.
        assert listed[0].startswith(f"rejected line {text.count(chr(10)) + 1} (")
        tail = [line for line in report if "more rejected lines" in line]
        assert tail == ([] if more is None else [f"… and {more} more rejected lines\n"])


    def test_recompute_runs_pagerank_at_the_run_damping(self, toy_inputs, tmp_path):
        # The recompute once ran PageRank at 0.85 whatever --damping said: a
        # table written at --damping 0.5 reported 78 mismatches in each
        # PageRank column and left them overwritten with values at 0.85.
        out, again = str(tmp_path / "out"), str(tmp_path / "again")
        for directory in (out, again):
            assert main(["build", "--edges", toy_inputs["edges"],
                         "--clickstream", toy_inputs["clickstream"], "--out", directory]) == 0
        assert main(["features", "--corpus", toy_inputs["corpus"],
                     "--categories", toy_inputs["categories"], "--visual", toy_inputs["visual"],
                     "--projection-dim", "64", "--damping", "0.5", "--out", out]) == 0
        written = os.path.join(out, "features.tsv")
        assert main(["features", "--feature-file", written, "--recompute-network-features",
                     "--damping", "0.5", "--out", again]) == 0
        with open(os.path.join(again, "features_report.txt"), encoding="utf-8") as fh:
            report = fh.read()
        for col in ("src_pagerank", "trg_pagerank"):
            assert f"consistency {col}: 0 mismatches, max abs diff 0.000e+00\n" in report

        def body(directory):
            with open(os.path.join(directory, "features.tsv"), encoding="utf-8") as fh:
                return [line for line in fh if not line.startswith("#")]

        assert body(again) == body(out)


class TestHurdleSummary:
    def test_each_stage_counts_its_own_fits(self, toy_inputs, tmp_path, capsys, monkeypatch):
        # The battery calls the fitters the module holds at call time.
        from clickgraph import hurdle
        from clickgraph.errors import ConvergenceError

        def fail_on(feature, fit):
            def fitter(design):
                if design.columns[-1] == feature:
                    raise ConvergenceError("no optimum")
                return fit(design)
            return fitter

        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        os.unlink(os.path.join(out, "hurdle_fits.tsv"))
        monkeypatch.setattr(hurdle, "fit_ztnb", fail_on("trg_in_degree", hurdle.fit_ztnb))
        monkeypatch.setattr(hurdle, "fit_logistic", fail_on("text_sim", hurdle.fit_logistic))
        capsys.readouterr()
        assert main(["hurdle", "--out", out, "--threshold", "10"]) == 0
        assert capsys.readouterr().out == "hurdle: 14/15 binomial, 14/15 ztnb fits\n"
        rows = {row[0]: row for row in _rows(os.path.join(out, "hurdle_fits.tsv"))}
        assert rows["trg_in_degree"][-1] == "ConvergenceError: no optimum"
        assert rows["text_sim"][5] == "ConvergenceError: no optimum"
        assert rows["trg_in_degree"][5] == rows["text_sim"][-1] == "-"


class TestHyptrailsSummary:
    def test_a_tie_names_no_best_hypothesis(self, toy_inputs, tmp_path, capsys):
        # No transitions: every hypothesis has Bayes factor 0.0 at every kappa.
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text("")
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream", str(clicks),
                     "--out", out]) == 0
        assert main(["features", "--corpus", toy_inputs["corpus"], "--categories",
                     toy_inputs["categories"], "--visual", toy_inputs["visual"], "--out", out]) == 0
        capsys.readouterr()
        assert main(["hyptrails", "--out", out]) == 0
        assert capsys.readouterr().out == "hyptrails: 7 hypotheses; best at largest kappa: none\n"


class TestPagerankUniverse:
    def test_viewed_only_writes_na_where_steiger_is_undefined(self, toy_inputs, tmp_path):
        # On the 17 viewed toy articles kcore ranks exactly as the baseline
        # at alpha 0.85 and 0.9 (r23 = 1); that once exited 2.
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream",
                     toy_inputs["clickstream"], "--out", out]) == 0
        assert main(["features", "--corpus", toy_inputs["corpus"], "--categories",
                     toy_inputs["categories"], "--visual", toy_inputs["visual"],
                     "--projection-dim", "64", "--out", out]) == 0
        assert main(["pagerank", "--viewed-only", "--out", out]) == 0
        rows = [r for r in _rows(os.path.join(out, "pagerank_eval.tsv"))[1:] if r[0] == "kcore"]
        assert [r[1] for r in rows] == ["0.8", "0.85", "0.9"]
        assert rows[0][4:] != ["NA", "NA", "false"]
        assert [r[4:] for r in rows[1:]] == [["NA", "NA", "false"]] * 2

    @pytest.mark.parametrize("flags, message", [
        ((), "all 20 articles ranked have 0 views; Spearman's rho against views is undefined"),
        (("--viewed-only",), "0 articles ranked; Spearman's rho needs at least 3"),
    ], ids=["all-articles", "viewed-only"])
    def test_log_without_views_is_refused_with_its_reason(self, toy_inputs, tmp_path, capsys,
                                                           flags, message):
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text("")
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"], "--clickstream", str(clicks),
                     "--out", out]) == 0
        assert main(["features", "--corpus", toy_inputs["corpus"], "--categories",
                     toy_inputs["categories"], "--visual", toy_inputs["visual"], "--out", out]) == 0
        capsys.readouterr()
        assert main(["pagerank", *flags, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_constant_ranking_is_refused_with_its_name(self, tmp_path, capsys):
        # Every article of a 3-cycle has the same PageRank.
        files = {
            "edges": "a\tb\nb\tc\nc\ta\n",
            "clickstream": "a\tb\t10\nb\tc\t20\n",
            "corpus": "a\tgraph\nb\tgraph\tnode\nc\tnode\n",
            "categories": "a\tx\nb\tx\nc\ty\n",
            "visual": "src\ttrg\tx_coord\ty_coord\tregion\n"
                      "a\tb\t1\t1\tlead\nb\tc\t1\t1\tbody\nc\ta\t1\t1\tnavbox\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = str(tmp_path / "out")
        assert main(["build", "--edges", str(tmp_path / "edges"),
                     "--clickstream", str(tmp_path / "clickstream"), "--out", out]) == 0
        assert main(["features", *(f"--{name}={tmp_path / name}"
                                   for name in ("corpus", "categories", "visual")),
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["pagerank", "--out", out]) == 2
        assert capsys.readouterr().err == ("error: baseline PageRank at alpha=0.8 is equal on all "
                                           "3 ranked articles; Spearman's rho is undefined\n")


class TestAttentionFits:
    def test_xmin_below_one_is_refused_before_any_fit(self, toy_inputs, tmp_path):
        # It once ran with exit 0 and wrote both out-degree sections as
        # "unavailable: xmin=0 is below 1"; the fits start at x >= 1.
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", out]) == 0
        before = {name: open(os.path.join(out, name), "rb").read() for name in os.listdir(out)}
        # A fresh interpreter, so a warning prints as it would on stderr, here into stdout.
        code = ("import sys\nsys.stderr = sys.stdout\n"
                "from clickgraph.cli import main\nprint(main(sys.argv[1:]))\n")
        printed = run_fresh(code, "attention", "--xmin-degrees", "0", "--out", out)
        assert printed == "error: --xmin-degrees must be >= 1, got 0\n2\n"
        assert {name: open(os.path.join(out, name), "rb").read()
                for name in os.listdir(out)} == before


def _undecodable(path: str, directory) -> str:
    """A copy of ``path`` in ``directory`` with a line holding byte 0xff appended."""
    copy = os.path.join(directory, "bad-" + os.path.basename(path))
    with open(path, "rb") as src, open(copy, "wb") as dst:
        dst.write(src.read() + b"Bad\xff\tGraph_theory\n")
    return copy


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any file a stage reads ends in one line
    naming that file; each once ended in a UnicodeDecodeError traceback."""

    def _refused(self, capsys, argv, path):
        capsys.readouterr()
        assert main(argv) == 2
        with open(path, "rb") as fh:
            pos = fh.read().index(b"\xff")
        assert capsys.readouterr() == ("", f"error: {path} is not UTF-8: 'utf-8' codec can't "
                                           f"decode byte 0xff in position {pos}: invalid start byte\n")

    def test_edges(self, toy_inputs, tmp_path, capsys):
        edges = _undecodable(toy_inputs["edges"], tmp_path)
        out = tmp_path / "out"
        self._refused(capsys, ["build", "--edges", edges, "--clickstream",
                               toy_inputs["clickstream"], "--out", str(out)], edges)
        assert not out.exists()

    def test_visual(self, toy_inputs, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", out]) == 0
        visual = _undecodable(toy_inputs["visual"], tmp_path)
        self._refused(capsys, ["features", "--corpus", toy_inputs["corpus"], "--categories",
                               toy_inputs["categories"], "--visual", visual, "--out", out], visual)

    def test_graph(self, toy_inputs, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        graph_tsv = str(out / "graph.tsv")
        os.replace(_undecodable(graph_tsv, tmp_path), graph_tsv)
        self._refused(capsys, ["attention", "--out", str(out)], graph_tsv)


class TestVisualInput:
    @pytest.mark.parametrize("row, message", [
        ("Graph_theory\tNetwork_science\t10\n", "expected 5 tab-separated fields, got 3"),
        ("Graph_theory\tNetwork_science\tleft\t20\tlead\n", "non-numeric x_coord 'left'"),
        # Line 2 already places this link.
        ("Graph_theory\tSocial_network\t10\t20\tbody\n", "second row for the same link"),
        # build_feature_table once refused it later, without a line number.
        ("Graph_theory\tProbability\t10\t20\tfooter\n", "unknown region label 'footer'"),
    ], ids=["three_fields", "non_numeric_x", "repeated_link", "unknown_region"])
    def test_malformed_row_names_its_line(self, toy_inputs, tmp_path, capsys, row, message):
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", out]) == 0
        with open(toy_inputs["visual"], encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[2] = row
        bad = tmp_path / "bad-visual.tsv"
        bad.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        rc = main(["features", "--corpus", toy_inputs["corpus"], "--categories",
                   toy_inputs["categories"], "--visual", str(bad), "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == f"error: line 3: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("", "visual file has no header line"),
        ("# notes only\n\n", "visual file has no header line"),
        ("src\ttrg\tx_coord\ty_coord\n", "visual file missing column region"),
    ], ids=["empty", "comments_only", "missing_column"])
    def test_file_without_its_header_stops_with_an_error_and_writes_nothing(
            self, toy_inputs, tmp_path, capsys, text, message):
        # An empty visual file once passed as one covering no link: features
        # wrote 0 records and the later stages ran on nothing.
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        bad = tmp_path / "bad-visual.tsv"
        bad.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["features", "--corpus", toy_inputs["corpus"], "--categories",
                     toy_inputs["categories"], "--visual", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestFailFast:
    def test_malformed_clickstream_aborts_with_fail_fast(self, toy_inputs, tmp_path, capsys):
        bad = tmp_path / "bad-clicks.tsv"
        bad.write_text("A\tB\tnot-a-number\n")
        rc = main(["build", "--edges", toy_inputs["edges"], "--clickstream", str(bad),
                   "--out", str(tmp_path / "o"), "--fail-fast"])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err


def _rows(path: str) -> list[list[str]]:
    """The rows of a feature table file, below its '#' notes and column line."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]
    return rows[1:]


class TestNamesThroughTheStages:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(LEGAL_NAMES, min_size=1, max_size=6, unique=True), st.integers(1, 30), st.data())
    def test_build_features_sample_keep_names_and_counts(self, names, threshold, data):
        n = len(names)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   min_size=1, max_size=15, unique=True))
        clicked = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        clicked[0] = True
        counts = data.draw(st.lists(st.integers(threshold, 10**9), min_size=len(pairs),
                                    max_size=len(pairs)))
        links = [(names[s], names[t]) for s, t in pairs]
        with tempfile.TemporaryDirectory() as tmp:
            paths = {k: os.path.join(tmp, f"{k}.tsv")
                     for k in ("edges", "clickstream", "corpus", "categories", "visual")}
            seen = list(dict.fromkeys(name for link in links for name in link))
            text = {
                "edges": [f"{a}\t{b}\n" for a, b in links],
                "clickstream": [f"{a}\t{b}\t{c}\n" for (a, b), c, on in zip(links, counts, clicked) if on],
                "corpus": [f"{a}\tword{i % 3}\tshared\n" for i, a in enumerate(seen)],
                "categories": [f"{a}\tcategory{i % 2}\n" for i, a in enumerate(seen)],
                "visual": ["src\ttrg\tx_coord\ty_coord\tregion\n",
                           *(f"{a}\t{b}\t{i}\t{2 * i}\tbody\n" for i, (a, b) in enumerate(links))],
            }
            for key, lines in text.items():
                with open(paths[key], "w", encoding="utf-8", newline="\n") as fh:
                    fh.writelines(lines)
            out = os.path.join(tmp, "out")
            args = ["--out", out, "--threshold", str(threshold)]
            assert main(["build", "--edges", paths["edges"],
                         "--clickstream", paths["clickstream"], *args]) == 0
            assert main(["features", "--corpus", paths["corpus"], "--categories", paths["categories"],
                         "--visual", paths["visual"], "--projection-dim", "4", *args]) == 0
            sources = {a for (a, _), on in zip(links, clicked) if on}
            assert main(["sample", "--sample-size", str(len(sources)), *args]) == 0

            with open(os.path.join(out, "transitions.tsv"), encoding="utf-8") as fh:
                kept = int(fh.read().split("kept_transitions=")[1].split("\n")[0])
            assert read_graph(os.path.join(out, "graph.tsv")).labels == tuple(seen)
            features = _rows(os.path.join(out, "features.tsv"))
            sample = _rows(os.path.join(out, "sample.tsv"))
        column = ingest.FEATURE_COLUMNS.index("transitions")
        assert sorted((row[0], row[1]) for row in features) == sorted(links)
        assert sorted((row[0], row[1]) for row in sample) == sorted(l for l in links if l[0] in sources)
        assert kept == sum(c for c, on in zip(counts, clicked) if on)
        for rows in (features, sample):
            assert sum(int(row[column]) for row in rows) == kept
