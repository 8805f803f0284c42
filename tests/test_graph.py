"""Graph construction, degrees, core decomposition, and PageRank."""

import importlib.util
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clickgraph import graph as G
from clickgraph.errors import ClickgraphError, ConvergenceError, LineError, MalformedInputError

from helpers import dense_pagerank_oracle, kcore_oracle, out_neighbors, random_graph


class TestBuildGraph:
    def test_duplicate_collapse(self):
        g = G.build_graph([(0, 1), (0, 1), (1, 0)])
        assert g.n_nodes == 2
        assert g.n_edges == 2

    def test_empty(self):
        g = G.build_graph([], n_nodes=0)
        assert g.n_nodes == 0
        assert g.n_edges == 0

    def test_self_loops_retained_and_counted(self):
        g = G.build_graph([(0, 0), (0, 1)])
        assert g.n_edges == 2
        assert g.self_loops == 1

    def test_id_out_of_declared_range(self):
        with pytest.raises(MalformedInputError):
            G.build_graph([(0, 5)], n_nodes=3)

    def test_negative_id(self):
        with pytest.raises(MalformedInputError):
            G.build_graph([(-1, 0)])

    def test_ids_outside_node_range_are_not_edges(self):
        # Each pair's key src * n + trg aliases a real edge: 3 -> (1, 0), 5 -> (1, 2), 1 -> (0, 1).
        g = G.build_graph([(0, 1), (1, 0), (1, 2)])
        src, trg = [0, 2, -1], [3, -1, 4]
        np.testing.assert_array_equal(g.edge_slots(src, trg), [-1, -1, -1])

    def test_random_edges_match_set_oracle(self):
        rng = np.random.default_rng(11)
        edges = [tuple(e) for e in rng.integers(0, 40, size=(1000, 2))]
        g = G.build_graph(edges)
        unique = set(edges)
        assert g.n_edges == len(unique)
        assert g.n_nodes == max(max(s, t) for s, t in edges) + 1
        src, trg = np.asarray(sorted(unique)).T
        np.testing.assert_array_equal(g.edge_slots(src, trg), np.arange(len(unique)))

    def test_adjacency_sorted_both_directions(self):
        g = random_graph(30, 0.2, seed=3)
        for i in range(g.n_nodes):
            out = out_neighbors(g, i)
            assert np.all(np.diff(out) > 0)
        in_deg = [sum(j in out_neighbors(g, i) for i in range(g.n_nodes)) for j in range(g.n_nodes)]
        np.testing.assert_array_equal(g.in_degrees(), in_deg)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
        spare=st.integers(0, 4),
    )
    def test_matches_construction_from_sorted_set(self, pairs, spare):
        # Duplicates, self-loops, isolated nodes, ids below a larger declared
        # n_nodes, and the empty list (n_nodes = spare, possibly 0).
        n = max((max(p) for p in pairs), default=-1) + 1 + spare
        g = G.build_graph(pairs, n_nodes=n)
        edges = sorted(set(pairs))
        indptr = [0] * (n + 1)
        for s, _ in edges:
            indptr[s + 1] += 1
        np.testing.assert_array_equal(g.out_indptr, np.cumsum(indptr))
        np.testing.assert_array_equal(g.out_indices, [t for _, t in edges])
        assert g.self_loops == sum(s == t for s, t in edges)
        np.testing.assert_array_equal(g.in_degrees(), [sum(t == j for _, t in edges) for j in range(n)])
        np.testing.assert_array_equal(G.kcore(g).values, kcore_oracle(g))


class TestDegrees:
    def test_path(self):
        g = G.build_graph([(0, 1), (1, 2)])
        ind, outd, deg = G.degrees(g)
        assert list(outd.values) == [1, 1, 0]
        assert list(ind.values) == [0, 1, 1]
        assert list(deg.values) == [1, 2, 1]

    def test_empty(self):
        g = G.build_graph([], n_nodes=0)
        ind, outd, deg = G.degrees(g)
        assert len(ind.values) == len(outd.values) == len(deg.values) == 0

    def test_random_matches_dense_adjacency_scan(self):
        g = random_graph(60, 0.1, seed=5)
        adj = np.zeros((60, 60), dtype=int)
        for i in range(60):
            adj[i, out_neighbors(g, i)] = 1
        ind, outd, _ = G.degrees(g)
        np.testing.assert_array_equal(outd.values, adj.sum(axis=1))
        np.testing.assert_array_equal(ind.values, adj.sum(axis=0))

    def test_degree_sums_equal_edge_count(self):
        g = random_graph(80, 0.05, seed=9)
        ind, outd, _ = G.degrees(g)
        assert ind.values.sum() == outd.values.sum() == g.n_edges


def reference_kcore(g):
    """The bucket-queue k-core (Batagelj & Zaversnik) as written before the
    level-synchronous peeling, with its ``np.unique`` projection."""
    keep = g.edge_sources != g.out_indices
    src, trg = g.edge_sources[keep], g.out_indices[keep]
    n = g.n_nodes
    keys = np.unique(np.concatenate([src * n + trg, trg * n + src]))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    indices = keys % n
    core = np.diff(indptr).astype(np.int64)
    if n == 0:
        return core
    max_deg = int(core.max())
    bin_count = np.bincount(core, minlength=max_deg + 1)
    bin_ = np.concatenate(([0], np.cumsum(bin_count)[:-1]))
    vert = np.argsort(core, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[vert] = np.arange(n)
    for i in range(n):
        v = vert[i]
        for u in indices[indptr[v]:indptr[v + 1]]:
            if core[u] > core[v]:
                du, pu = core[u], pos[u]
                pw = bin_[du]
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_[du] += 1
                core[u] -= 1
    return core


@st.composite
def core_graphs(draw):
    """Nested cliques, stars, self-loops and random links over n nodes
    (n = 0 included); nodes no link touches stay isolated."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return G.build_graph([], n_nodes=0)
    node = st.integers(0, n - 1)
    order = draw(st.permutations(range(n)))
    pairs = []
    for size in draw(st.lists(st.integers(1, min(n, 12)), max_size=4)):
        members = order[:size]  # prefixes of one order, so the cliques nest
        pairs += [(a, b) if draw(st.booleans()) else (b, a)
                  for i, a in enumerate(members) for b in members[i + 1:]]
    for centre in draw(st.lists(node, max_size=3)):
        pairs += [(centre, leaf) for leaf in draw(st.lists(node, max_size=12))]
    pairs += [(v, v) for v in draw(st.lists(node, max_size=4))]
    pairs += draw(st.lists(st.tuples(node, node), max_size=40))
    return G.build_graph(pairs, n_nodes=n)


class TestKcore:
    @settings(max_examples=300, deadline=None)
    @given(core_graphs())
    def test_equals_bucket_queue_reference(self, g):
        got = G.kcore(g).values
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference_kcore(g))

    def test_gen_graph_without_numpy_unique(self, monkeypatch):
        # numpy 2.x's np.unique hashes int64 keys; the graph layer sorts instead.
        spec = importlib.util.spec_from_file_location(
            "clickgraph_bench_gen",
            os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "gen.py"))
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        d = gen.generate([5, 0], 3000)
        pairs = np.stack([d["src"], d["trg"]], axis=1)
        keys = np.unique(pairs[:, 0] * 3000 + pairs[:, 1])
        want = reference_kcore(G.build_graph(pairs, n_nodes=3000))

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refuse)
        g = G.build_graph(pairs, n_nodes=3000)
        np.testing.assert_array_equal(g._edge_keys, keys)
        np.testing.assert_array_equal(G.kcore(g).values, want)

    def test_triangle(self):
        g = G.build_graph([(0, 1), (1, 2), (2, 0)])
        assert list(G.kcore(g).values) == [2, 2, 2]

    def test_star(self):
        g = G.build_graph([(0, 1), (0, 2), (0, 3), (0, 4)])
        assert list(G.kcore(g).values) == [1, 1, 1, 1, 1]

    def test_self_loop_cannot_sustain_a_core(self):
        g = G.build_graph([(0, 0), (0, 1)])
        assert list(G.kcore(g).values) == [1, 1]

    def test_random_graph_matches_peeling_oracle(self):
        g = random_graph(200, 0.05, seed=13)
        np.testing.assert_array_equal(G.kcore(g).values, kcore_oracle(g))

    def test_nonnegative_integers(self):
        g = random_graph(50, 0.1, seed=17)
        cores = G.kcore(g).values
        assert cores.dtype.kind == "i"
        assert cores.min() >= 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_adding_an_edge_never_decreases_core_numbers(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(25, 0.1, seed=seed)
        before = G.kcore(g).values
        s, t = rng.integers(0, 25, size=2)
        pairs = np.stack([g.edge_sources, g.out_indices], axis=1)
        augmented = np.vstack([pairs, [[s, t]]])
        g2 = G.build_graph(augmented, n_nodes=25)
        after = G.kcore(g2).values
        assert np.all(after >= before)


class TestPagerank:
    def test_two_cycle_symmetry(self):
        g = G.build_graph([(0, 1), (1, 0)])
        np.testing.assert_allclose(G.pagerank(g, alpha=0.85).values, [0.5, 0.5], atol=1e-12)

    def test_single_node_no_edges(self):
        g = G.build_graph([], n_nodes=1)
        np.testing.assert_allclose(G.pagerank(g).values, [1.0])

    def test_chain_matches_dense_solve(self):
        g = G.build_graph([(0, 1), (1, 2)])
        pr = G.pagerank(g, alpha=0.85).values
        np.testing.assert_allclose(pr, dense_pagerank_oracle(g, 0.85), atol=1e-9)

    def test_random_graphs_match_dense_solve(self):
        for seed in range(5):
            g = random_graph(40, 0.1, seed=seed)
            pr = G.pagerank(g, alpha=0.85).values
            np.testing.assert_allclose(pr, dense_pagerank_oracle(g, 0.85), atol=1e-8)

    @pytest.mark.parametrize("alpha", [0.9, 0.99])
    def test_periodic_component_converges_at_high_damping(self, alpha):
        # The 2-cycle 1 <-> 2 holds an L1 change that shrinks only by alpha a
        # step: at 0.9 it needs more than 200 steps to reach 1e-10, and once
        # raised ConvergenceError.
        g = G.build_graph([(0, 0), (0, 1), (1, 2), (2, 1)], n_nodes=3)
        pr = G.pagerank(g, alpha=alpha).values
        np.testing.assert_allclose(pr, dense_pagerank_oracle(g, alpha), atol=1e-9)

    def test_probability_vector_on_every_input(self):
        for seed in range(8):
            g = random_graph(70, 0.03, seed=100 + seed)
            assert abs(G.pagerank(g).values.sum() - 1.0) <= 1e-9

    def test_alpha_and_tol_validation(self):
        g = G.build_graph([(0, 1)])
        with pytest.raises(ValueError):
            G.pagerank(g, alpha=1.0)
        with pytest.raises(ValueError):
            G.power_iteration(g, np.ones(g.n_edges), 0.85, 0.0, None, "pagerank")

    def test_nonconvergence_carries_last_iterate(self):
        g = random_graph(50, 0.1, seed=21)
        with pytest.raises(ConvergenceError) as exc:
            G.power_iteration(g, np.ones(g.n_edges), 0.95, 1e-16, 3, "pagerank")
        assert exc.value.last is not None
        assert len(exc.value.last) == 50
        assert exc.value.iterations == 3


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        g = random_graph(25, 0.15, seed=29, labels=True)
        path = tmp_path / "graph.tsv"
        G.save_graph(g, path, header_lines=["# tool test\n"])
        g2 = G.load_graph(path)
        assert G.same_structure(g, g2)
        assert g2.labels == g.labels

    @pytest.mark.parametrize("row, message", [
        ("garbage\n", "expected 2 tab-separated fields, got 1"),
        ("edges\t3x\n", "non-integer field in 'edges\\t3x'"),
        ("label\tone\tD\n", "non-integer field in 'label\\tone\\tD'"),
        ("label\t3\tD\n", "label index 3 outside [0, 3)"),
        ("label\t-1\tD\n", "label index -1 outside [0, 3)"),
        ("label\t1\tD\n", "label index 1 repeats line 5"),
        ("label\t5\tA\n", "label 'A' already names node 0"),
    ], ids=["one_field", "non_integer_count", "non_integer_label_id", "label_past_nodes",
            "negative_label", "repeated_label_index", "repeated_label_name"])
    def test_corrupt_line_raises_line_error(self, tmp_path, row, message):
        path = tmp_path / "graph.tsv"
        G.save_graph(G.build_graph([(0, 1), (1, 2), (2, 0)], labels=["A", "B", "C"]), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines) + row, encoding="utf-8")
        with pytest.raises(LineError) as exc:
            G.load_graph(path)
        assert str(exc.value) == f"line {len(lines) + 1}: {message}"

    def test_node_without_a_label_is_refused(self, tmp_path):
        path = tmp_path / "graph.tsv"
        G.save_graph(G.build_graph([(0, 1), (1, 2), (2, 0)], labels=["A", "B", "C"]), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if line != "label\t1\tB\n"), encoding="utf-8")
        with pytest.raises(MalformedInputError, match="^snapshot has no label for node 1$"):
            G.load_graph(path)

    @pytest.mark.parametrize("edges, line, message", [
        ([(0, 1), (1, 2), (2, 0)], "selfloops\t7\n", "snapshot declares 7 self-loops, found 0"),
        ([(0, 0), (0, 1), (2, 2)], "selfloops\t1\n", "snapshot declares 1 self-loops, found 2"),
    ], ids=["none_found", "more_found"])
    def test_self_loop_count_is_checked(self, tmp_path, edges, line, message):
        # The selfloops line was once skipped, so a wrong count loaded without a word.
        path = tmp_path / "graph.tsv"
        G.save_graph(G.build_graph(edges, labels=["A", "B", "C"]), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r"^selfloops\t\d+\n", line, text, flags=re.M), encoding="utf-8")
        with pytest.raises(MalformedInputError, match=f"^{message}$"):
            G.load_graph(path)
        path.write_text(re.sub(r"^selfloops\t\d+\n", "", text, flags=re.M), encoding="utf-8")
        assert G.load_graph(path).self_loops == sum(s == t for s, t in edges)

    def test_repeated_label_is_not_saved(self, tmp_path):
        g = G.build_graph([(0, 1), (1, 0)], labels=["C", "C"])
        with pytest.raises(MalformedInputError, match="^label 'C' names two nodes$"):
            G.save_graph(g, tmp_path / "graph.tsv")

    @pytest.mark.parametrize("label", ["A\tB", "A\nB", "A\rB"])
    def test_label_with_a_separator_is_refused(self, tmp_path, label):
        # load_graph reads with universal newlines, so a '\r' would split the line.
        g = G.build_graph([(0, 1), (1, 0)], labels=[label, "C"])
        with pytest.raises(MalformedInputError, match="contains separators"):
            G.save_graph(g, tmp_path / "graph.tsv")

    def test_magic_header_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("not a snapshot\n")
        with pytest.raises(MalformedInputError):
            G.load_graph(path)

    @pytest.mark.parametrize("edge, bad", [
        ("99999999999999999999\t1", "99999999999999999999"),
        ("-1\t1", "-1"),
        ("1\t3", "3"),
        ("1\t-99999999999999999999", "-99999999999999999999"),
    ], ids=["beyond_int64", "negative", "past_nodes", "negative_beyond_int64"])
    def test_edge_id_outside_the_nodes_names_its_line(self, tmp_path, edge, bad):
        # An id beyond int64 once escaped from build_graph as an OverflowError,
        # and the others were refused with no line number.
        path = tmp_path / "graph.tsv"
        G.save_graph(G.build_graph([(0, 1), (1, 2), (2, 0)], labels=["A", "B", "C"]), path)
        lines = path.read_text(encoding="utf-8").replace("edges\t3\n", "edges\t4\n").splitlines(
            keepends=True)
        path.write_text("".join(lines) + edge + "\n", encoding="utf-8")
        with pytest.raises(LineError) as exc:
            G.load_graph(path)
        assert str(exc.value) == f"line {len(lines) + 1}: edge id {bad} outside [0, 3)"

    def test_saved_edge_block_is_read_as_one_array(self, tmp_path):
        g = random_graph(40, 0.2, seed=3, labels=True)
        path = tmp_path / "graph.tsv"
        G.save_graph(g, path)
        read, returned = G._edge_block, []

        def recording(text, n_nodes):
            returned.append(read(text, n_nodes))
            return returned[-1]

        with mock.patch.object(G, "_edge_block", recording):
            g2 = G.load_graph(path)
        assert len(returned) == 1 and returned[0].shape == (g.n_edges, 2)
        assert G.same_structure(g, g2) and g2.labels == g.labels


def per_row_load(path):
    """``load_graph`` with every line through the per-row reader: its reference."""
    with mock.patch.object(G, "_edge_block", lambda text, n_nodes: None):
        return load_outcome(path)


def load_outcome(path):
    """The graph ``load_graph`` reads, as plain values, or its error's type and text."""
    try:
        g = G.load_graph(path)
    except ClickgraphError as exc:
        return type(exc), str(exc)
    return (g.n_nodes, g.labels, g.self_loops, g.out_indptr.dtype, g.out_indptr.tolist(),
            g.out_indices.dtype, g.out_indices.tolist())


# Edge fields that int() and np.loadtxt may read differently, or that lie
# outside the node range: "\u0661" is an Arabic-Indic one, U+01FE a letter
# numpy 2.4's integer parser takes for a digit, "1.0" a value numpy 1.x reads
# into an int column with only a DeprecationWarning.
ODD_IDS = ["+1", " 1", "1 ", "1_0", "\u0661", "\u01fe", "1.0", "\x1c1", "1\x1d", "\x1e1", "1\x1f",
           "\xa01", "01", "-0", "", "x", "-1", "99999999999999999999", "-99999999999999999999",
           "9223372036854775807", "9223372036854775808"]


@st.composite
def snapshots(draw):
    """A saved graph's text, its edge block perhaps changed line by line."""
    n = draw(st.integers(0, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)) if n else []
    labels = [f"n{i}" for i in range(n)] if draw(st.booleans()) else None
    g = G.build_graph(pairs, n_nodes=n, labels=labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.tsv")
        G.save_graph(g, path)
        with open(path, encoding="utf-8") as fh:
            head, _, block = fh.read().partition(f"edges\t{g.n_edges}\n")
    if labels is None and draw(st.booleans()):
        head = head.replace(f"nodes\t{n}\n", "nodes\t500\n")  # U+01FE reads as 462
    rows = block.splitlines()
    odd_rows = st.one_of(
        st.tuples(st.sampled_from(ODD_IDS), st.sampled_from(ODD_IDS)).map("\t".join),
        st.sampled_from(["# note", "#", "", " ", "1", "0\t1\t2", "0\t1\r", "0\r1", "\t",
                         "label\t0\tz", "nodes\t9", "edges\t1"]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows)))
        if at < len(rows) and draw(st.booleans()):  # one field of a row
            fields = rows[at].split("\t")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_IDS))
            rows[at] = "\t".join(fields)
        else:
            rows.insert(at, draw(odd_rows))
    declared = len(rows) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", ""]))
    return head + f"edges\t{declared}\n" + "".join(row + "\n" for row in rows[:-1]) + (
        rows[-1] + ending if rows else "")


def snapshot(nodes: int, *rows: str) -> str:
    """An unlabelled snapshot with these edge rows."""
    return f"{G.GRAPH_MAGIC}\nnodes\t{nodes}\nselfloops\t0\nedges\t{len(rows)}\n" + "".join(
        row + "\n" for row in rows)


class TestLoadGraphMatchesPerRowReader:
    @settings(max_examples=400, deadline=None)
    @given(snapshots())
    @example(snapshot(500, "0\t1", "\u01fe\t1"))
    @example(snapshot(3, "0\t1", "\x1c1\t2"))
    @example(snapshot(3, "0\t1", "", "1\t2"))
    @example(snapshot(3, "0\t1", "1.0\t2"))
    @example(snapshot(3, "0\t1", "1_0\t2"))
    @example(snapshot(3, "0\t1", "# note", "1\t2"))
    @example(snapshot(3, "0\t1", "99999999999999999999\t2"))
    @example(snapshot(3))
    @example(f"{G.GRAPH_MAGIC}\nnodes\t0\nselfloops\t0\nedges\t1\n0\t1\r\nnodes\t99999999999999999999\n")
    def test_same_graph_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph.tsv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert load_outcome(path) == per_row_load(path)
