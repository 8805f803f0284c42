"""Pipeline orchestration: stage wiring, caching, determinism, dependency errors."""

import argparse
import filecmp
import json
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickgraph import __version__, cli, graph, ingest
from clickgraph import attention as A
from clickgraph.cli import ARTIFACTS, MANIFEST, build_parser, load_config, main
from clickgraph.errors import ConfigError

from helpers import LEGAL_NAMES, discrete_power_law_sample, run_fresh


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
# numpy, scipy, dataclasses and inspect (which dataclasses imports, with ast and dis).
RUN_STAGES = """
import json, sys
from clickgraph.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "dataclasses", "inspect")))
"""


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
             "precomputed feature table to validate and pass through"),
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


class TestImports:
    def test_importing_the_cli_loads_no_numpy_scipy_or_dataclasses(self):
        assert run_fresh(RUN_STAGES, "[]") == "[]\n"

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
        assert printed == [f"{argv[0]}: cache hit, outputs unchanged" for argv in reruns] + ["[]"]

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
        *summaries, modules = run_fresh(RUN_STAGES, json.dumps(misses)).splitlines()
        assert [line.split(":")[0] for line in summaries] == ["build", "features", "sample"]
        assert "cache hit" not in "".join(summaries)
        assert "'numpy'" in modules and "scipy" not in modules


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
        assert produced == {MANIFEST, *ARTIFACTS.values()}
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
        rc = main([stage, "--out", str(tmp_path / "empty")])
        assert rc == 2
        assert "run `clickgraph build` first" in capsys.readouterr().err

    def test_hurdle_without_features_names_producer(self, toy_inputs, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", out]) == 0
        rc = main(["hurdle", "--out", out])
        assert rc == 2
        assert "features" in capsys.readouterr().err

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


class TestConfigRanges:
    @pytest.mark.parametrize("argv, problem", [
        (["features", "--damping", "1.5"], "--damping must lie in (0, 1), got 1.5"),
        (["pagerank", "--alphas", "1.0"], "--alphas must be one or more values in (0, 1), got 1.0"),
        (["pagerank", "--alphas", "0.85,nan"],
         "--alphas must be one or more values in (0, 1), got 0.85,nan"),
        (["hyptrails", "--kappa-multipliers", "0,1"],
         "--kappa-multipliers must be one or more finite values > 0, got 0.0,1.0"),
        (["hyptrails", "--kappa-multipliers", "0,1", "--log-spaced"],
         "--kappa-multipliers must be one or more finite values > 0, got 0.0,1.0"),
        (["hyptrails", "--kappa-multipliers", "nan"],
         "--kappa-multipliers must be one or more finite values > 0, got nan"),
        (["hyptrails", "--kappa-multipliers", "1,inf"],
         "--kappa-multipliers must be one or more finite values > 0, got 1.0,inf"),
        (["features", "--projection-dim", "0"], "--projection-dim must be >= 1, got 0"),
        (["features", "--projection-seed", "-2"], "--projection-seed must be >= 0, got -2"),
        (["sample", "--sample-size", "-1"], "--sample-size must be >= 0, got -1"),
        (["sample", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["sample", "--sample-size", "-1", "--seed", "-1"],
         "--sample-size must be >= 0, got -1; --seed must be >= 0, got -1"),
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

    def test_config_file_value_is_checked_too(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"alphas": [], "damping": 0}))
        assert main(["pagerank", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: --damping must lie in (0, 1), got 0; "
            "--alphas must be one or more values in (0, 1), got nothing\n")

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
         "--alphas must be one or more values in (0, 1), got nothing; "
         "--sample-size must be >= 0, got -1"),
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
        with pytest.raises(SystemExit) as stopped:
            main([*argv, numbers, "--out", "o"])
        assert stopped.value.code == 2
        assert capsys.readouterr() == (
            "", f"error: argument {argv[1]}: must be comma-separated numbers, got {numbers!r}\n")

    @pytest.mark.parametrize("values, argv, digest", [
        ({}, [], "d7c496cb744f8900"),
        ({"damping": 1e-3, "kappa_multipliers": [3]}, [], "1fd56aa28668598d"),
        ({}, ["--kappa-multipliers", "1,2", "--seed", "3"], "f87ca03ec35ef3cf"),
        ({"edges": "e.tsv", "clickstream": "c.tsv", "feature_file": None, "corpus": "x",
          "categories": "y", "visual": "v", "threshold": 3, "fail_fast": True,
          "recompute_network_features": True, "damping": 0.5, "alphas": [0.5, 0.75],
          "kappa_multipliers": [1, 2.5, 100], "log_spaced": True, "projection_dim": 16,
          "projection_seed": 4, "sample_size": 7, "seed": 9, "xmin_degrees": 2,
          "xmin_transitions": 5, "restrict_to_viewed": True, "threads": 2, "out": "o"},
         [], "f5243a4901c15aa7"),
    ])
    def test_config_hash_is_pinned(self, tmp_path, values, argv, digest):
        # Every header and manifest entry carries this hash: a config that ran
        # before keeps its digest, so its outputs stay byte-identical.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(values))
        args = build_parser().parse_args(["hyptrails", "--config", str(cfg_path), *argv])
        assert load_config(args).hash() == digest

    @pytest.mark.parametrize("argv", [
        ["build", "--threshold", "0"],
        ["attention", "--xmin-degrees", "0", "--xmin-transitions", "-1", "--threads", "0"],
        ["sample", "--sample-size", "0", "--seed", "0"],
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
        from clickgraph import graph as graphmod
        g = graphmod.load_graph(os.path.join(out, "graph.tsv"))
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
    ], ids=["unknown_article", "two_fields", "non_integer_count", "repeated_pair",
            "below_threshold", "not_a_link", "count_outside_int64"])
    def test_bad_row_names_its_line(self, toy_inputs, tmp_path, capsys, row, message):
        out = tmp_path / "out"
        assert main(["build", "--edges", toy_inputs["edges"],
                     "--clickstream", toy_inputs["clickstream"], "--out", str(out)]) == 0
        transitions = out / ARTIFACTS["transitions"]
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
        path = out / ARTIFACTS["graph"]
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
        path = out / ARTIFACTS["graph"]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines) + row, encoding="utf-8")
        capsys.readouterr()
        assert main(["attention", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line {len(lines) + 1}: {message}\n"


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
        path = out / ARTIFACTS["graph"]
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


class TestFeatureFileInput:
    def test_own_output_as_input_is_recomputed_once(self, toy_inputs, tmp_path, capsys):
        # The first run rewrites the file its cache key hashes; the key must
        # record it as written, so the same run again is a cache hit.
        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        path = os.path.join(out, ARTIFACTS["features"])

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


class TestHurdleSummary:
    def test_each_stage_counts_its_own_fits(self, toy_inputs, tmp_path, capsys, monkeypatch):
        from clickgraph import hurdle
        from clickgraph.errors import ConvergenceError

        fit_ztnb = hurdle.fit_ztnb

        def fail_on_one_feature(design):
            if design.columns[-1] == "trg_in_degree":
                raise ConvergenceError("no optimum")
            return fit_ztnb(design)

        out = str(tmp_path / "out")
        run_pipeline(toy_inputs, out)
        os.unlink(os.path.join(out, ARTIFACTS["hurdle"]))
        monkeypatch.setattr(hurdle, "fit_ztnb", fail_on_one_feature)
        capsys.readouterr()
        assert main(["hurdle", "--out", out, "--threshold", "10"]) == 0
        assert capsys.readouterr().out == "hurdle: 15/15 binomial, 14/15 ztnb fits\n"
        with open(os.path.join(out, ARTIFACTS["hurdle"]), encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh]
        errors = [row[-1] for row in rows if row[0] == "trg_in_degree"]
        assert errors == ["ConvergenceError: no optimum"]


class TestVisualInput:
    @pytest.mark.parametrize("row, message", [
        ("Graph_theory\tNetwork_science\t10\n", "expected 5 tab-separated fields, got 3"),
        ("Graph_theory\tNetwork_science\tleft\t20\tlead\n", "non-numeric x_coord 'left'"),
        # Line 2 already places this link.
        ("Graph_theory\tSocial_network\t10\t20\tbody\n", "second row for the same link"),
    ], ids=["three_fields", "non_numeric_x", "repeated_link"])
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

            with open(os.path.join(out, ARTIFACTS["transitions"]), encoding="utf-8") as fh:
                kept = int(fh.read().split("kept_transitions=")[1].split("\n")[0])
            assert graph.load_graph(os.path.join(out, ARTIFACTS["graph"])).labels == tuple(seen)
            features = _rows(os.path.join(out, ARTIFACTS["features"]))
            sample = _rows(os.path.join(out, ARTIFACTS["sample"]))
        column = ingest.FEATURE_COLUMNS.index("transitions")
        assert sorted((row[0], row[1]) for row in features) == sorted(links)
        assert sorted((row[0], row[1]) for row in sample) == sorted(l for l in links if l[0] in sources)
        assert kept == sum(c for c, on in zip(counts, clicked) if on)
        for rows in (features, sample):
            assert sum(int(row[column]) for row in rows) == kept
