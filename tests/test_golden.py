"""Golden outputs: two seven-stage runs (plus ``sample``) must reproduce what
is committed under ``tests/golden/``.

- **Toy fixture** (``tests/golden/toy/``, ``--projection-dim 64``): every
  artifact and ``manifest.json`` is committed.
- **Generator seed** (``tests/golden/gen-7-0-600.json``): the
  ``perfbench/gen.py`` seed [7, 0] inputs at 600 articles with the default
  projection dimension, the path the benchmark and users run. Only each
  file's sha256 and line count are committed; ``features.tsv`` alone is
  1.3 MB.
- **Generator seed at scale** (``tests/golden/gen-7-0-10000.json``): the same
  seed at 10,000 articles with ``sample --sample-size 1000``, where block
  boundaries and thread counts come into play; ``pagerank --threads 2`` must
  write the bytes ``--threads 1`` wrote. The run takes about 20 s, so it runs
  only when ``CLICKGRAPH_GOLDEN_SCALE=1`` is set.

The stages run through ``cli.main`` on inputs under a temporary directory,
given by absolute path. A cache key names each input by its field
(``edges``, ``corpus``, ...) and hashes its bytes, and the config hash leaves
input paths out, so ``manifest.json`` and every header are the same wherever
the test runs. On the numpy and scipy versions recorded beside each golden every file must
match byte for byte. On other versions the optimisers may move the last bits
of a float. There the toy files compare text and integers exactly and floats
at ``FLOAT_RTOL``, and each artifact hash in the manifest must be the sha256
of that run's own artifact; the generator run compares line counts, and the
digests of the files no fit writes (``VERSION_FREE``). Nothing is skipped.

A golden file changes only with a change whose stated purpose is that output
change. To regenerate the toy files, run ``run_stages`` into a scratch
directory and copy its ``out/`` over ``tests/golden/toy/``, keeping
``versions.json`` current; for the generator run, write ``gen_digests`` of
its ``out/`` with the current versions.
"""

import functools
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil

import numpy as np
import pytest
import scipy

from clickgraph.cli import main

from conftest import write_toy_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "toy")
VERSIONS_FILE = "versions.json"
GEN_DIGESTS = os.path.join(HERE, "golden", "gen-7-0-600.json")
GEN_SCRIPT = os.path.join(os.path.dirname(HERE), "perfbench", "gen.py")
GEN_SEED, GEN_ARTICLES, GEN_SAMPLE_SIZE = [7, 0], 600, 60
SCALE_DIGESTS = os.path.join(HERE, "golden", "gen-7-0-10000.json")
SCALE_ARTICLES, SCALE_SAMPLE_SIZE = 10_000, 1000
#: Generator-run artifacts written without a fit or an optimiser: their
#: digests must match on every numpy/scipy version.
VERSION_FREE = ("graph.tsv", "transitions.tsv", "features_report.txt")
#: Relative tolerance for floats when numpy or scipy differ from the recorded versions.
FLOAT_RTOL = 1e-6

# A numeric literal standing alone: not part of a word, hash or version string.
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
_INTEGER = re.compile(r"[-+]?\d+")


def write_gen_inputs(directory: str, articles: int = GEN_ARTICLES) -> dict[str, str]:
    """The ``perfbench/gen.py`` seed [7, 0] inputs at ``articles`` articles."""
    spec = importlib.util.spec_from_file_location("clickgraph_bench_gen", GEN_SCRIPT)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_inputs(directory, GEN_SEED, articles)
    return {name: os.path.join(directory, f"{name}.tsv")
            for name in ("edges", "clickstream", "corpus", "categories", "visual")}


def run_stages(workdir: str, write_inputs=write_toy_inputs, features_args=("--projection-dim", "64"),
               sample_size: int = 5) -> str:
    """Run the seven stages plus ``sample`` on ``write_inputs``'s input set,
    written to ``workdir/inputs``, into ``workdir/out``; returns the output directory."""
    os.mkdir(os.path.join(workdir, "inputs"))
    inputs = write_inputs(os.path.join(workdir, "inputs"))
    out = os.path.join(workdir, "out")
    args = ["--out", out, "--threshold", "10"]
    assert main(["build", "--edges", inputs["edges"],
                 "--clickstream", inputs["clickstream"], *args]) == 0
    assert main(["features", "--corpus", inputs["corpus"],
                 "--categories", inputs["categories"], "--visual", inputs["visual"],
                 *features_args, *args]) == 0
    assert main(["sample", "--sample-size", str(sample_size), *args]) == 0
    for cmd in ("attention", "hurdle", "hyptrails", "pagerank"):
        assert main([cmd, *args]) == 0
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest_view(directory: str) -> dict:
    """The manifest with each artifact hash that matches its own file replaced
    by a placeholder, so two runs compare on everything else."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for entry in manifest["stages"].values():
        inputs = entry["key"]["inputs"]
        for name, digest in inputs.items():
            path = os.path.join(directory, name)
            if os.path.isfile(path) and digest == _sha256(path):
                inputs[name] = f"sha256 of {name}"
    return manifest


def _numbers_match(want: str, got: str) -> bool:
    if _INTEGER.fullmatch(want) and _INTEGER.fullmatch(got):
        return want == got
    a, b = float(want), float(got)
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=FLOAT_RTOL)


def _text_mismatch(want: str, got: str) -> str | None:
    """First line where ``got`` differs from ``want`` beyond the float tolerance."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}"
    for no, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        if _NUMBER.split(w) != _NUMBER.split(g):
            return f"line {no}: text differs: {g!r} vs golden {w!r}"
        for a, b in zip(_NUMBER.findall(w), _NUMBER.findall(g)):
            if not _numbers_match(a, b):
                return f"line {no}: {b} vs golden {a}"
    return None


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _recorded_versions() -> bool:
    with open(os.path.join(GOLDEN, VERSIONS_FILE), encoding="utf-8") as fh:
        return json.load(fh) == _versions()


def gen_digests(out: str) -> dict:
    """sha256 and line count of every file in ``out``, with the versions that made them."""
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        files[name] = {"lines": data.count(b"\n"), "sha256": hashlib.sha256(data).hexdigest()}
    return {"versions": _versions(), "files": files}


def compare_to_golden(out: str, exact: bool) -> list[str]:
    """One message per file of ``out`` that does not reproduce the golden run."""
    names = sorted(f for f in os.listdir(GOLDEN) if f != VERSIONS_FILE)
    if sorted(os.listdir(out)) != names:
        return [f"files {sorted(os.listdir(out))} vs golden {names}"]
    problems = []
    for name in names:
        want_path, got_path = os.path.join(GOLDEN, name), os.path.join(out, name)
        if exact:
            with open(want_path, "rb") as a, open(got_path, "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{name}: bytes differ")
        elif name == "manifest.json":
            if _manifest_view(GOLDEN) != _manifest_view(out):
                problems.append(f"{name}: differs beyond artifact hashes")
        else:
            with open(want_path, encoding="utf-8") as a, open(got_path, encoding="utf-8") as b:
                why = _text_mismatch(a.read(), b.read())
            if why:
                problems.append(f"{name}: {why}")
    return problems


def test_toy_pipeline_reproduces_golden_outputs(tmp_path):
    out = run_stages(str(tmp_path))
    # The comparison other numpy/scipy versions get runs everywhere; the byte
    # comparison on top of it where the versions match the recorded ones.
    assert compare_to_golden(out, exact=False) == []
    if _recorded_versions():
        assert compare_to_golden(out, exact=True) == []


def test_tolerant_comparison_rejects_changed_text_and_integers():
    assert _text_mismatch("a\t1.5\t7\n", "a\t1.5000000001\t7\n") is None
    assert _text_mismatch("a\t1.5\t7\n", "b\t1.5\t7\n") is not None
    assert _text_mismatch("a\t1.5\t7\n", "a\t1.5\t8\n") is not None
    assert _text_mismatch("a\t1.5\t7\n", "a\t1.6\t7\n") is not None
    assert _text_mismatch("# config=3fa9e2\n", "# config=3fa9e3\n") is not None


@pytest.fixture(scope="module")
def gen_out(tmp_path_factory) -> str:
    """Output directory of the generator-seed run; tests must not change it."""
    return run_stages(str(tmp_path_factory.mktemp("gen")), write_gen_inputs, features_args=(),
                      sample_size=GEN_SAMPLE_SIZE)


def _body(path: str) -> bytes:
    """The file without its leading ``#`` lines."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    while lines and lines[0].startswith(b"#"):
        lines.pop(0)
    return b"".join(lines)


def assert_digests(out: str, digests_path: str) -> None:
    """Every file of ``out`` has the line count recorded in ``digests_path``,
    and its sha256 too on the recorded numpy and scipy versions (elsewhere
    only the ``VERSION_FREE`` files' digests must match)."""
    got = gen_digests(out)
    with open(digests_path, encoding="utf-8") as fh:
        want = json.load(fh)
    assert sorted(got["files"]) == sorted(want["files"])
    exact = got["versions"] == want["versions"]
    for name, digest in want["files"].items():
        assert got["files"][name]["lines"] == digest["lines"], name
        if exact or name in VERSION_FREE:
            assert got["files"][name]["sha256"] == digest["sha256"], name


def test_gen_seed_pipeline_reproduces_golden_digests(gen_out):
    assert_digests(gen_out, GEN_DIGESTS)


@pytest.mark.skipif(os.environ.get("CLICKGRAPH_GOLDEN_SCALE") != "1",
                    reason="the 10,000-article run takes about 20 s; set CLICKGRAPH_GOLDEN_SCALE=1")
def test_gen_seed_at_scale_reproduces_golden_digests(tmp_path):
    out = run_stages(str(tmp_path), functools.partial(write_gen_inputs, articles=SCALE_ARTICLES),
                     features_args=(), sample_size=SCALE_SAMPLE_SIZE)
    assert_digests(out, SCALE_DIGESTS)
    # threads is not part of the cache key: without pagerank_eval.tsv the stage reruns.
    two = str(tmp_path / "two")
    shutil.copytree(out, two)
    os.remove(os.path.join(two, "pagerank_eval.tsv"))
    assert main(["pagerank", "--threads", "2", "--out", two, "--threshold", "10"]) == 0
    for name in ("pagerank_eval.tsv", "manifest.json"):
        assert _sha256(os.path.join(two, name)) == _sha256(os.path.join(out, name)), name


def test_feature_file_round_trip_is_lossless(gen_out, tmp_path):
    # `features --feature-file` reads the table back and writes it again: the
    # body, every row and every float's text, must come back unchanged.
    out = str(tmp_path / "out")
    shutil.copytree(gen_out, out)
    features = os.path.join(out, "features.tsv")
    body = _body(features)
    assert main(["features", "--feature-file", features, "--out", out, "--threshold", "10"]) == 0
    assert _body(features) == body
    with open(os.path.join(out, "features_report.txt"), encoding="utf-8") as fh:
        assert "rejected" not in fh.read()
