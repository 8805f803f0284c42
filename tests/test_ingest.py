"""Edge-list, clickstream, transitions, visual and feature-table parsing."""

import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickgraph import graph as G
from clickgraph import ingest
from clickgraph.errors import (
    ClickgraphError,
    LineError,
    MalformedInputError,
    PreconditionError,
    SchemaError,
    SupportError,
)

from helpers import LEGAL_NAMES, random_graph


def small_graph():
    edges, names = ingest.parse_edge_list(["A\tB\n", "B\tA\n", "A\tC\n", "C\tB\n"])
    labels = sorted(names, key=names.get)
    return G.build_graph(edges, labels=labels), names


class TestParseEdgeList:
    def test_interning_first_seen_order(self):
        edges, names = ingest.parse_edge_list(["A\tB\n", "B\tA\n"])
        assert names == {"A": 0, "B": 1}
        assert edges == [(0, 1), (1, 0)]

    def test_duplicate_lines_passed_through(self):
        edges, _ = ingest.parse_edge_list(["A\tB\n", "A\tB\n"])
        assert edges == [(0, 1), (0, 1)]

    def test_empty_name_is_malformed(self):
        with pytest.raises(LineError):
            ingest.parse_edge_list(["A\t\n"])

    def test_wrong_arity(self):
        with pytest.raises(LineError):
            ingest.parse_edge_list(["A\tB\tC\n"])

    def test_round_trip_10k_lines_byte_identical(self):
        rng = np.random.default_rng(3)
        lines = [f"n{a}\tn{b}\n" for a, b in rng.integers(0, 500, size=(10_000, 2))]
        edges, names = ingest.parse_edge_list(lines)
        labels = sorted(names, key=names.get)
        out = [f"{labels[s]}\t{labels[t]}\n" for s, t in edges]
        assert out == lines


class TestParseClickstream:
    def test_basic_row_kept(self):
        g, names = small_graph()
        log, stats = ingest.parse_clickstream(["A\tB\t25\n"], names, g)
        assert len(log) == 1 and log.count[0] == 25
        assert stats.kept_count == 25

    def test_below_threshold_dropped(self):
        g, names = small_graph()
        log, stats = ingest.parse_clickstream(["A\tB\t5\n"], names, g, threshold=10)
        assert len(log) == 0
        assert stats.below_threshold_pairs == 1

    def test_external_referrer_dropped(self):
        g, names = small_graph()
        log, stats = ingest.parse_clickstream(["other-google\tB\t500\n"], names, g)
        assert len(log) == 0
        assert stats.external == 1

    def test_non_edge_dropped(self):
        g, names = small_graph()
        log, stats = ingest.parse_clickstream(["B\tC\t50\n"], names, g)  # no B->C edge
        assert len(log) == 0
        assert stats.non_edge == 1

    def test_four_column_type_ignored(self):
        g, names = small_graph()
        log, _ = ingest.parse_clickstream(["A\tB\tlink\t25\n"], names, g)
        assert len(log) == 1 and log.count[0] == 25

    def test_duplicates_summed_before_thresholding(self):
        g, names = small_graph()
        log, _ = ingest.parse_clickstream(["A\tB\t6\n", "A\tB\t6\n"], names, g, threshold=10)
        assert len(log) == 1 and log.count[0] == 12

    def test_malformed_fail_fast(self):
        g, names = small_graph()
        with pytest.raises(LineError) as exc:
            ingest.parse_clickstream(["A\tB\tnot-a-number\n"], names, g, fail_fast=True)
        assert exc.value.line_no == 1

    def test_malformed_skip_and_report(self):
        g, names = small_graph()
        log, stats = ingest.parse_clickstream(
            ["A\tB\t25\n", "garbage\n", "A\tC\tx\n"], names, g
        )
        assert len(log) == 1
        assert stats.malformed == 2

    @pytest.mark.parametrize("count", ["99999999999999999999", str(2**63), str(-(2**63) - 1)])
    def test_count_outside_int64_is_a_malformed_row(self, count):
        g, names = small_graph()
        lines = [f"A\tB\t{count}\n", "B\tA\t25\n", f"other\tB\t{count}\n"]
        log, stats = ingest.parse_clickstream(lines, names, g)
        assert (stats.malformed, stats.external, stats.kept_pairs) == (2, 0, 1)
        assert log.count.tolist() == [25]
        with pytest.raises(LineError, match=f"count '{count}' outside the int64 range") as exc:
            ingest.parse_clickstream(lines, names, g, fail_fast=True)
        assert exc.value.line_no == 1

    def test_int64_extremes_are_counts(self):
        g, names = small_graph()
        lines = [f"A\tB\t{2**63 - 1}\n", f"B\tA\t{-(2**63)}\n"]
        log, stats = ingest.parse_clickstream(lines, names, g, fail_fast=True)
        assert log.count.tolist() == [2**63 - 1]
        assert (stats.malformed, stats.below_threshold_pairs) == (0, 1)

    def test_summed_count_outside_int64_names_both_articles(self):
        g, names = small_graph()
        lines = ["B\tA\t25\n", f"A\tC\t{2**62}\n", f"A\tC\t{2**62}\n"]
        with pytest.raises(MalformedInputError,
                           match=f"summed count {2**63} of 'A' -> 'C' outside the int64 range"):
            ingest.parse_clickstream(lines, names, g)

    def test_ledger_sum_matches_kept_counts(self):
        g, names = small_graph()
        rng = np.random.default_rng(5)
        labels = sorted(names, key=names.get)
        lines = []
        for _ in range(200):
            s, t = rng.integers(0, len(labels), size=2)
            lines.append(f"{labels[s]}\t{labels[t]}\t{rng.integers(1, 40)}\n")
        log, stats = ingest.parse_clickstream(lines, names, g)
        assert int(log.count.sum()) == stats.kept_count

    def test_reparse_of_serialized_log_is_identical(self):
        g, names = small_graph()
        log, _ = ingest.parse_clickstream(
            ["A\tB\t25\n", "B\tA\t11\n", "A\tC\t99\n"], names, g
        )
        serialized = list(ingest.transition_lines(log, g.labels))
        log2, _ = ingest.parse_clickstream(serialized, names, g)
        np.testing.assert_array_equal(log.src, log2.src)
        np.testing.assert_array_equal(log.trg, log2.trg)
        np.testing.assert_array_equal(log.count, log2.count)


class TestTransitionLog:
    def test_total_outside_int64_refused_exactly(self):
        top = 2**63 - 1
        assert sum(ingest.TransitionLog.from_pairs([0, 1], [1, 0], [top - 10, 10]).count.tolist()) == top
        with pytest.raises(MalformedInputError, match=f"total transition count {2**63} outside"):
            ingest.TransitionLog.from_pairs([0, 1], [1, 0], [top - 9, 10])

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(MalformedInputError):
            ingest.TransitionLog.from_pairs([0, 0], [1, 1], [10, 20])

    def test_below_threshold_rejected(self):
        with pytest.raises(MalformedInputError):
            ingest.TransitionLog.from_pairs([0], [1], [5], threshold=10)

    def test_support_check_against_graph(self):
        g = G.build_graph([(0, 1)])
        with pytest.raises(SupportError):
            ingest.TransitionLog.from_pairs([1], [0], [10], graph=g)

    def test_ids_outside_graph_rejected(self):
        # The key of (0, 3) on a 3-node graph equals that of the edge (1, 0).
        g = G.build_graph([(0, 1), (1, 0), (1, 2)])
        with pytest.raises(SupportError):
            ingest.TransitionLog.from_pairs([0], [3], [50], graph=g)

    def test_aligned_counts(self):
        g = G.build_graph([(0, 1), (0, 2), (1, 2)])
        log = ingest.TransitionLog.from_pairs([0, 1], [2, 2], [30, 40], graph=g)
        np.testing.assert_array_equal(log.aligned_counts(g), [0.0, 30.0, 40.0])


def feature_file_lines(g, log, extra_row=None, drop_cols=(), transitions_col=True):
    """Render a well-formed feature file for the given graph, as text lines."""
    table = ingest.build_feature_table(
        g, log,
        text_sim=np.full(g.n_edges, 0.5),
        topic_sim=np.full(g.n_edges, 0.25),
        x_coord=np.arange(g.n_edges, dtype=float),
        y_coord=np.arange(g.n_edges, dtype=float),
        region=np.asarray(["body"] * g.n_edges, dtype=object),
    )
    lines = list(ingest.feature_table_lines(table))
    if not transitions_col or drop_cols:
        header = lines[0].rstrip("\n").split("\t")
        drop = set(drop_cols) | ({"transitions"} if not transitions_col else set())
        keep = [i for i, c in enumerate(header) if c not in drop]
        lines = ["\t".join(np.array(l.rstrip("\n").split("\t"))[keep]) + "\n" for l in lines]
    if extra_row is not None:
        lines.append(extra_row)
    return lines


def spy_on_loadtxt(monkeypatch) -> list:
    """Record each ``np.loadtxt`` call's outcome: the shape it returned, or the error type it raised."""
    calls, loadtxt = [], np.loadtxt

    def spy(*args, **kwargs):
        try:
            values = loadtxt(*args, **kwargs)
        except Exception as exc:
            calls.append(type(exc))
            raise
        calls.append(values.shape)
        return values

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


class TestLoadFeatureTable:
    def setup_method(self):
        self.g, self.names = small_graph()
        self.log = ingest.TransitionLog.from_pairs([0], [1], [25], graph=self.g)

    def test_counts_filled_from_log_when_column_absent(self):
        lines = feature_file_lines(self.g, self.log, transitions_col=False)
        table, report = ingest.load_feature_table(lines, self.g, self.log)
        assert report.rows_kept == len(table) == self.g.n_edges
        slot = {(int(s), int(t)): i for i, (s, t) in enumerate(zip(table.src, table.trg))}
        assert table.data["transitions"][slot[(0, 1)]] == 25
        assert table.data["transitions"][slot[(1, 0)]] == 0

    def test_out_of_range_similarity_rejected(self):
        lines = feature_file_lines(self.g, self.log)
        fields = lines[1].rstrip("\n").split("\t")
        fields[ingest.FEATURE_COLUMNS.index("text_sim")] = "1.2"
        lines[1] = "\t".join(fields) + "\n"
        table, report = ingest.load_feature_table(lines, self.g, self.log)
        reasons = [r[3] for r in report.rejected]
        assert any("text_sim" in r for r in reasons)
        assert len(table) == self.g.n_edges - 1

    def test_non_edge_row_listed_in_report(self):
        bad = "B\tC\t0\t1\t1\t1\t1\t1\t1\t1\t1\t0.1\t0.1\t0.5\t0.5\t0\t0\tbody\n"
        lines = feature_file_lines(self.g, self.log, extra_row=bad)
        table, report = ingest.load_feature_table(lines, self.g, self.log)
        assert any("not an edge" in r[3] for r in report.rejected)
        assert report.rows_read == report.rows_kept + len(report.rejected)

    def test_missing_mandatory_column_is_schema_error(self):
        lines = feature_file_lines(self.g, self.log, drop_cols=("region",))
        with pytest.raises(SchemaError):
            ingest.load_feature_table(lines, self.g, self.log)

    def test_repeated_column_is_schema_error(self):
        # Before, the last text_sim column silently won on every row.
        header, *rows = feature_file_lines(self.g, self.log)
        lines = [header.rstrip("\n") + "\t text_sim \tregion\n",
                 *(r.rstrip("\n") + "\t0.5\tbody\n" for r in rows), "short\trow\n"]
        with pytest.raises(SchemaError, match="^feature file names columns more than once: "
                                              "'text_sim', 'region'$"):
            ingest.load_feature_table(lines, self.g, self.log)

    def test_missing_network_columns_ok_when_recomputing(self):
        lines = feature_file_lines(self.g, self.log, drop_cols=ingest.NETWORK_COLUMNS)
        table, _ = ingest.load_feature_table(lines, self.g, self.log, recompute_network=True)
        assert "trg_kcore" in table.data

    def test_recompute_consistency_on_round_trip(self):
        # network features recomputed from the graph must agree with a file
        # that was itself produced from the graph
        lines = feature_file_lines(self.g, self.log)
        table, report = ingest.load_feature_table(lines, self.g, self.log, recompute_network=True)
        for col, (mismatches, maxdiff) in report.consistency.items():
            assert mismatches == 0, f"{col}: {maxdiff}"

    def test_duplicate_link_rows_rejected(self):
        lines = feature_file_lines(self.g, self.log)
        lines.append(lines[1])
        _, report = ingest.load_feature_table(lines, self.g, self.log)
        assert any("duplicate" in r[3] for r in report.rejected)

    def test_written_table_is_parsed_a_column_at_a_time(self, monkeypatch):
        # Faulty rows of every kind still leave the numbers to one loadtxt call.
        bad = "B\tC\t0\t1\t1\t1\t1\t1\t1\t1\t1\t0.1\t0.1\t0.5\t0.5\t0\t0\tbody\n"
        lines = ["# notes\n", *feature_file_lines(self.g, self.log, extra_row=bad)]
        lines[3] = lines[3].replace("\tbody\n", "\tsidebar\n")
        lines += [lines[2], "A\tB\t1\n"]
        want = reference_load_feature_table(lines, self.g, self.log)
        assert [r[3] for r in want[1].rejected] == [
            "unknown region label 'sidebar'", "not an edge of the graph", "duplicate link row",
            "expected 18 fields, got 3"]
        calls = spy_on_loadtxt(monkeypatch)
        assert_same_table(load_quietly(lines, self.g, self.log), want)
        # Every row of the right width: all but the comment, the header and the short row.
        assert calls == [(len(lines) - 3, len(ingest.FEATURE_COLUMNS) - 3)]

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\x1c1", "\x1f1", "1\r", "x"])
    def test_a_value_loadtxt_refuses_or_misreads_goes_through_the_per_row_parser(
            self, value, monkeypatch):
        lines = feature_file_lines(self.g, self.log)
        fields = lines[2].rstrip("\n").split("\t")
        fields[ingest.FEATURE_COLUMNS.index("x_coord")] = value
        lines[2] = "\t".join(fields) + "\n"
        calls = spy_on_loadtxt(monkeypatch)
        assert_same_table(load_quietly(lines, self.g, self.log),
                          reference_load_feature_table(lines, self.g, self.log))
        if value in ("\x1c1", "\x1f1"):  # loadtxt would strip the separator float refuses
            assert calls == []
        else:  # loadtxt refuses the rows, so float reads them
            assert calls == [ValueError]

    def test_table_without_graph_reads_its_numbers_with_loadtxt(self, monkeypatch):
        lines = [line.replace("\t", ",") for line in feature_file_lines(self.g, self.log)]
        calls = spy_on_loadtxt(monkeypatch)
        assert_same_table(load_quietly(lines, None, delimiter=","),
                          reference_load_feature_table(lines, None, delimiter=","))
        assert calls == [(self.g.n_edges, len(ingest.FEATURE_COLUMNS) - 3)]

    def test_rejected_list_is_capped_and_every_rejection_counted(self):
        lines = feature_file_lines(self.g, self.log)
        bad = "B\tC\t0\t1\t1\t1\t1\t1\t1\t1\t1\t0.1\t0.1\t0.5\t0.5\t0\t0\tbody\n"
        lines += [bad] * 10_000
        table, report = ingest.load_feature_table(lines, self.g, self.log)
        assert len(table) == report.rows_kept == self.g.n_edges
        assert report.rejected_count == 10_000
        assert report.rows_read == report.rows_kept + report.rejected_count
        first = len(lines) - 10_000 + 1  # 1-based line number of the first bad row
        assert report.rejected == [(first + i, "B", "C", "not an edge of the graph")
                                   for i in range(ingest.REJECTED_LISTED)]

    def test_last_listed_rejection_keeps_its_value_reason(self):
        header, first, *rest = feature_file_lines(self.g, self.log)
        fields = first.rstrip("\n").split("\t")
        fields[ingest.FEATURE_COLUMNS.index("region")] = "sidebar"
        short = ["x\n"] * (ingest.REJECTED_LISTED - 1)
        lines = [header, *short, "\t".join(fields) + "\n", first, *rest]
        table, report = ingest.load_feature_table(lines, self.g, self.log)
        assert report.rejected[-1] == (len(short) + 2, fields[0], fields[1],
                                       "unknown region label 'sidebar'")
        assert len(table) == self.g.n_edges

    def test_line_numbers_count_the_lines_before_the_header(self):
        header, first = feature_file_lines(self.g, self.log)[:2]
        lines = ["# one\n", "# two\n", "# three\n", header, first, "x\n"]
        _, report = ingest.load_feature_table(lines, self.g, self.log)
        assert report.rejected == [(6, "", "", "expected 18 fields, got 1")]

    def test_extra_column_values_are_checked_per_row(self):
        header, first, second = feature_file_lines(self.g, self.log)[:3]
        lines = [header.rstrip("\n") + "\tnote\n", first.rstrip("\n") + "\thello\n",
                 second.rstrip("\n") + "\t2.5\n"]
        table, report = ingest.load_feature_table(lines, self.g, self.log, recompute_network=True)
        fields = first.split("\t")
        assert report.rejected == [(2, fields[0], fields[1], "non-numeric value 'hello' in column note")]
        assert table.data["note"].tolist() == [2.5]

    def test_unlabeled_load_without_graph_interns_names(self):
        lines = feature_file_lines(self.g, self.log)
        table, report = ingest.load_feature_table(lines, None, None)
        assert report.rows_kept == self.g.n_edges
        assert len(table) == self.g.n_edges
        assert table.data["transitions"].sum() == 25


class TestBuildFeatureTable:
    def test_unknown_region_rejected(self):
        g, _ = small_graph()
        log = ingest.TransitionLog.from_pairs([], [], [], graph=g)
        with pytest.raises(SchemaError):
            ingest.build_feature_table(
                g, log,
                text_sim=np.zeros(g.n_edges), topic_sim=np.zeros(g.n_edges),
                x_coord=np.zeros(g.n_edges), y_coord=np.zeros(g.n_edges),
                region=np.asarray(["sidebar"] * g.n_edges, dtype=object),
            )

    def test_covered_mask_restricts_rows(self):
        g = random_graph(20, 0.2, seed=1, labels=True)
        log = ingest.TransitionLog.from_pairs([], [], [], graph=g)
        covered = np.zeros(g.n_edges, dtype=bool)
        covered[: g.n_edges // 2] = True
        table = ingest.build_feature_table(
            g, log,
            text_sim=np.zeros(g.n_edges), topic_sim=np.zeros(g.n_edges),
            x_coord=np.zeros(g.n_edges), y_coord=np.zeros(g.n_edges),
            region=np.asarray(["lead"] * g.n_edges, dtype=object),
            covered=covered,
        )
        assert len(table) == g.n_edges // 2


# ---------------------------------------------------------------------------
# The parsers as they were before every file's rows were matched to edges with
# one `edge_slots` call: each row was looked up on its own, as `has_edge` did,
# and the missing transitions column was joined through a dict.  Kept as
# references; the properties below hold the batched parsers to them.
# ---------------------------------------------------------------------------


def reference_has_edge(graph, src: int, trg: int) -> bool:
    n = graph.n_nodes
    if not (0 <= src < n and 0 <= trg < n):
        return False
    key = src * n + trg
    pos = int(graph._edge_keys.searchsorted(key))
    return pos < graph.n_edges and int(graph._edge_keys[pos]) == key


def reference_parse_clickstream(lines, name_to_id, graph, threshold=10, fail_fast=False):
    stats = ingest.DropStats()
    sums = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        stats.lines += 1
        fields = line.split("\t")
        if len(fields) == 3:
            ref, res, count_text = fields
        elif len(fields) == 4:
            ref, res, _type, count_text = fields
        else:
            if fail_fast:
                raise LineError(line_no, f"expected 3 or 4 tab-separated fields, got {len(fields)}")
            stats.malformed += 1
            continue
        try:
            count = int(count_text)
        except ValueError:
            if fail_fast:
                raise LineError(line_no, f"non-numeric count {count_text!r}")
            stats.malformed += 1
            continue
        src = name_to_id.get(ref)
        if src is None:
            stats.external += 1
            continue
        trg = name_to_id.get(res)
        if trg is None or not reference_has_edge(graph, src, trg):
            stats.non_edge += 1
            continue
        sums[(src, trg)] = sums.get((src, trg), 0) + count
    kept = {pair: c for pair, c in sums.items() if c >= threshold}
    stats.below_threshold_pairs = len(sums) - len(kept)
    stats.kept_pairs = len(kept)
    stats.kept_count = sum(kept.values())
    log = ingest.TransitionLog.from_pairs(
        src=[p[0] for p in kept], trg=[p[1] for p in kept], count=list(kept.values()),
        threshold=threshold, graph=graph,
    )
    return log, stats


def reference_load_feature_table(lines, graph, transitions=None, recompute_network=False,
                                 delimiter="\t"):
    """The former reader, with two fixes: lines are numbered from the start of
    the input, not as if the header were line 1, and an extra column holds
    numbers, as every column but src, trg and region does."""
    numbered = enumerate(lines, start=1)
    header = None
    for _, raw in numbered:
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        header = [h.strip() for h in line.split(delimiter)]
        break
    if header is None:
        raise SchemaError("feature file has no header line")
    colpos = {name: i for i, name in enumerate(header)}
    missing = [c for c in ingest._MANDATORY if c not in colpos]
    if not recompute_network:
        missing += [c for c in ingest.NETWORK_COLUMNS if c not in colpos]
    if missing:
        raise SchemaError(f"feature file missing mandatory columns: {', '.join(missing)}")
    name_to_id = {} if graph is None else graph.name_to_id()
    report = ingest.JoinReport()
    src_ids, trg_ids = [], []
    raw_cols = {c: [] for c in header if c not in ("src", "trg")}
    seen = set()
    numeric = {c for c in header if c not in ("src", "trg", "region")}
    for line_no, raw in numbered:
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        report.rows_read += 1
        fields = line.split(delimiter)
        if len(fields) != len(header):
            report.reject(line_no, "", "", f"expected {len(header)} fields, got {len(fields)}")
            continue
        src_name = fields[colpos["src"]]
        trg_name = fields[colpos["trg"]]
        if graph is None:
            s = name_to_id.setdefault(src_name, len(name_to_id))
            t = name_to_id.setdefault(trg_name, len(name_to_id))
        else:
            s = name_to_id.get(src_name, -1)
            t = name_to_id.get(trg_name, -1)
        if graph is not None and not reference_has_edge(graph, s, t):
            report.reject(line_no, src_name, trg_name, "not an edge of the graph")
            continue
        if (s, t) in seen:
            report.reject(line_no, src_name, trg_name, "duplicate link row")
            continue
        row_vals = {}
        bad = None
        for cname in raw_cols:
            text = fields[colpos[cname]]
            if cname in numeric:
                try:
                    row_vals[cname] = float(text)
                except ValueError:
                    bad = f"non-numeric value {text!r} in column {cname}"
                    break
            else:
                row_vals[cname] = text
        if bad is None:
            for sim in ("text_sim", "topic_sim"):
                v = row_vals.get(sim)
                if v is not None and not 0.0 <= float(v) <= 1.0:
                    bad = f"{sim} {v} outside [0, 1]"
                    break
        if bad is None and row_vals.get("region") not in (None, *ingest.REGIONS):
            bad = f"unknown region label {row_vals['region']!r}"
        if bad is not None:
            report.reject(line_no, src_name, trg_name, bad)
            continue
        seen.add((s, t))
        src_ids.append(s)
        trg_ids.append(t)
        for cname in raw_cols:
            raw_cols[cname].append(row_vals[cname])
    report.rows_kept = len(src_ids)
    src = np.asarray(src_ids, dtype=np.int64)
    trg = np.asarray(trg_ids, dtype=np.int64)
    data = {}
    for cname, values in raw_cols.items():
        data[cname] = np.asarray(values, dtype=object if cname == "region" else np.float64)
    if "transitions" not in data:
        data["transitions"] = np.zeros(len(src), dtype=np.float64)
        if transitions is not None and len(src):
            lookup = {(int(s), int(t)): int(c)
                      for s, t, c in zip(transitions.src, transitions.trg, transitions.count)}
            data["transitions"] = np.asarray(
                [lookup.get((int(s), int(t)), 0) for s, t in zip(src, trg)], dtype=np.float64)
    if recompute_network and graph is not None:
        computed = ingest._node_feature_columns(ingest.compute_network_features(graph), src, trg)
        for cname, vec in computed.items():
            if cname in raw_cols and len(src):
                diff = np.abs(data[cname] - vec)
                report.consistency[cname] = (int((diff > 1e-9).sum()), float(diff.max()))
            data[cname] = vec
    if graph is not None:
        labels = graph.labels
    else:
        labels = tuple(sorted(name_to_id, key=name_to_id.get)) or None
    return ingest.LinkFeatureTable(src=src, trg=trg, data=data, labels=labels), report


def reference_read_visual(lines, g):
    """The former reader of visual.tsv: its own split of each line and one
    ``float`` call per coordinate, a row's fault raised as the row is read,
    then the first second row for a link.  Each row is looked up on its own."""
    lookup = g.name_to_id()
    slot_of = {pair: i for i, pair in enumerate(zip(g.edge_sources.tolist(),
                                                    g.out_indices.tolist()))}
    rows, header = [], None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if header is None:
            header = fields
            pos = {name: i for i, name in enumerate(header)}
            for col in ("src", "trg", "x_coord", "y_coord", "region"):
                if col not in pos:
                    raise SchemaError(f"visual file missing column {col}")
            continue
        if len(fields) != len(header):
            raise LineError(line_no, f"expected {len(header)} tab-separated fields, "
                                     f"got {len(fields)}")
        xy = []
        for col in ("x_coord", "y_coord"):
            try:
                xy.append(float(fields[pos[col]]))
            except ValueError:
                raise LineError(line_no, f"non-numeric {col} {fields[pos[col]]!r}") from None
        pair = (lookup.get(fields[pos["src"]], -1), lookup.get(fields[pos["trg"]], -1))
        rows.append((line_no, slot_of.get(pair, -1), *xy, fields[pos["region"]]))
    if header is None:
        raise SchemaError("visual file has no header line")

    seen = set()
    for line_no, slot, *_ in rows:
        if slot >= 0 and slot in seen:
            raise LineError(line_no, "second row for the same link")
        seen.add(slot)
    x, y = np.zeros(g.n_edges), np.zeros(g.n_edges)
    region = np.full(g.n_edges, None, dtype=object)
    covered = np.zeros(g.n_edges, dtype=bool)
    for _, slot, x_value, y_value, label in rows:
        if slot >= 0:
            x[slot], y[slot], region[slot], covered[slot] = x_value, y_value, label, True
    return x, y, region, covered, sum(slot < 0 for _, slot, *_ in rows)


def outcome(call):
    """``call()``'s result, or the type and text of the ClickgraphError it raised."""
    try:
        return call()
    except ClickgraphError as exc:
        return type(exc), str(exc)


NAMES = ("A", "B", "C", "D", "E", "F")


@st.composite
def labeled_graphs(draw):
    pairs = [(s, t) for s in range(len(NAMES)) for t in range(len(NAMES))]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=20))
    return G.build_graph(edges, labels=NAMES)


CLICK_NAMES = st.sampled_from(NAMES + ("other-google", "Z", ""))
# Counts past 2**53 catch a sum taken in floats; 40 of them still fit int64.
COUNT_TEXTS = st.one_of(st.integers(-5, 40).map(str), st.integers(10**15, 10**16).map(str),
                        st.sampled_from(["x", "", "1.5", " 12", "+7"]))


@st.composite
def click_lines(draw):
    kind = draw(st.sampled_from(["three", "four", "three", "wrong", "blank"]))
    if kind == "blank":
        return "\n"
    if kind == "wrong":
        fields = draw(st.lists(CLICK_NAMES, max_size=5).filter(lambda f: len(f) not in (3, 4)))
    else:
        fields = [draw(CLICK_NAMES), draw(CLICK_NAMES), draw(COUNT_TEXTS)]
        if kind == "four":
            fields.insert(2, "link")
    return "\t".join(fields) + "\n"


class TestParseClickstreamMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(labeled_graphs(), st.lists(click_lines(), max_size=40), st.integers(1, 30),
           st.booleans())
    def test_same_log_and_drop_stats(self, g, lines, threshold, fail_fast):
        names = g.name_to_id()
        got = outcome(lambda: ingest.parse_clickstream(lines, names, g, threshold, fail_fast))
        want = outcome(lambda: reference_parse_clickstream(lines, names, g, threshold, fail_fast))
        if isinstance(want[0], type):
            assert got == want
            return
        (log, stats), (ref_log, ref_stats) = got, want
        assert stats == ref_stats
        assert all(type(getattr(stats, f)) is int for f in vars(stats))
        for col in ("src", "trg", "count"):
            assert getattr(log, col).dtype == getattr(ref_log, col).dtype == np.int64
            np.testing.assert_array_equal(getattr(log, col), getattr(ref_log, col))


# Values the reader must read as float() does: ordinary and bad ones; ones only
# float() reads (underscores, Arabic-Indic digits, U+001C, which np.loadtxt
# alone strips as whitespace, and a carriage return, which ends its line);
# ones neither reads; and ones both read alike.
VALUE_TEXTS = st.sampled_from(["0", "0.25", "1", "1.5", "-0.5", "nan", "x", "1e-3",
                               "1_0", "\u0661\u0662", "\x1c1", "1\r", "0x10", "1,5", "",
                               " 1.5", "+.5", "1e400", "Infinity", "-0"])
BOTH_READ = st.sampled_from(["3", "0.25", " 1.5", "+.5", "1e400", "nan", "Infinity", "-0", "1e-3"])
SIM_TEXTS = st.sampled_from(["0.5", "0", "1", " 0.25", "+.5", "-0", "1e-400"])
REGION_TEXTS = st.sampled_from(["body", "lead", "infobox", "sidebar", ""])


@st.composite
def feature_files(draw, pairs, links=None):
    """Header plus rows naming ``pairs``: good links, repeats, non-edges,
    unknown names, bad values and rows with the wrong field count.  Or, twice
    as often, well-formed rows on ``links`` (``pairs`` when None), of which
    one may have one fault: a field short, a drawn name, a drawn value in a
    similarity or another number column, or a drawn region.  The columns
    come in the written order or, one time in four, shuffled, with or
    without transitions and an extra number column."""
    columns = [c for c in ingest.FEATURE_COLUMNS
               if c != "transitions" or draw(st.booleans())]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(2, len(columns) - 1)), "extra")
    if draw(st.integers(0, 3)) == 0:
        columns = draw(st.permutations(columns))
    numbers = [c for c in columns if c not in ("src", "trg", "region")]
    lines = draw(st.lists(st.sampled_from(["# note\n", "\n"]), max_size=2))
    lines.append("\t".join(columns) + "\n")
    rows: list[str] = []
    n_rows = draw(st.integers(0, 40))
    clean = draw(st.integers(0, 2)) > 0
    odd = draw(st.integers(0, n_rows)) if clean else None  # the one row that may be bad
    for i in range(n_rows):
        if clean:
            fields = {c: draw(SIM_TEXTS if c.endswith("_sim") else BOTH_READ) for c in numbers}
            fields["src"], fields["trg"] = draw(pairs if links is None else links)
            fields["region"] = draw(st.sampled_from(ingest.REGIONS))
            if i == odd:
                fault = draw(st.sampled_from(["short", "name", "sim", "number", "region"]))
                if fault == "name":
                    fields[draw(st.sampled_from(["src", "trg"]))] = draw(
                        st.one_of(st.just("Z"), pairs.map(lambda pair: pair[0])))
                elif fault == "sim":
                    fields[draw(st.sampled_from(["text_sim", "topic_sim"]))] = draw(VALUE_TEXTS)
                elif fault == "number":
                    fields[draw(st.sampled_from(numbers))] = draw(VALUE_TEXTS)
                elif fault == "region":
                    fields["region"] = draw(REGION_TEXTS)
            cells = [fields[c] for c in columns]
            if i == odd and fault == "short":
                cells.pop(draw(st.integers(0, len(cells) - 1)))
            rows.append("\t".join(cells) + "\n")
            continue
        kind = draw(st.sampled_from(["row", "row", "row", "repeat", "short", "comment"]))
        if kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "short":
            rows.append("A\t" * draw(st.integers(0, 18)) + "A\n")
        elif kind == "comment":
            rows.append(draw(st.sampled_from(["# c\n", "\n"])))
        else:
            # One drawn value in one drawn column; the similarities get a legal one otherwise.
            fields = {c: "0.5" if c.endswith("_sim") else "3" for c in numbers}
            fields["src"], fields["trg"] = draw(pairs)
            fields["region"] = draw(REGION_TEXTS)
            fields[draw(st.sampled_from(numbers))] = draw(VALUE_TEXTS)
            rows.append("\t".join(fields[c] for c in columns) + "\n")
    return lines + rows


def load_quietly(*args, **kwargs):
    """``load_feature_table`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ingest.load_feature_table(*args, **kwargs)


def assert_same_table(got, want):
    (table, report), (ref_table, ref_report) = got, want
    assert repr(report) == repr(ref_report)  # repr: a NaN max diff equals itself
    assert table.labels == ref_table.labels
    np.testing.assert_array_equal(table.src, ref_table.src)
    np.testing.assert_array_equal(table.trg, ref_table.trg)
    assert list(table.data) == list(ref_table.data)
    for name, col in table.data.items():
        ref = ref_table.data[name]
        assert col.dtype == ref.dtype, name
        if col.dtype == object:
            assert col.tolist() == ref.tolist(), name
        else:
            assert col.tobytes() == ref.tobytes(), name


class TestLoadFeatureTableMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(labeled_graphs(), st.data(), st.booleans())
    def test_labeled_graph(self, g, data, recompute):
        edges = list(zip(g.edge_sources.tolist(), g.out_indices.tolist()))
        names = st.sampled_from(NAMES + ("Z",))
        links = st.sampled_from([(NAMES[s], NAMES[t]) for s, t in edges])
        lines = data.draw(feature_files(st.one_of(links, links, st.tuples(names, names)), links))
        logged = data.draw(st.lists(st.sampled_from(edges), unique=True))
        log = ingest.TransitionLog.from_pairs(
            [s for s, _ in logged], [t for _, t in logged],
            data.draw(st.lists(st.integers(10, 99), min_size=len(logged), max_size=len(logged))),
            graph=g)
        assert_same_table(
            load_quietly(lines, g, log, recompute_network=recompute),
            reference_load_feature_table(lines, g, log, recompute_network=recompute))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_without_graph(self, data):
        names = st.sampled_from(NAMES + ("Z",))
        lines = data.draw(feature_files(st.tuples(names, names)))
        assert_same_table(load_quietly(lines, None), reference_load_feature_table(lines, None))

    def test_transitions_without_graph_are_refused(self):
        g, _ = small_graph()
        log = ingest.TransitionLog.from_pairs([0], [1], [25], graph=g)
        with pytest.raises(PreconditionError):
            ingest.load_feature_table(feature_file_lines(g, log), None, log)


# Coordinates float and np.loadtxt read alike; ones only float reads
# (underscores, Arabic-Indic digits, a carriage return, which ends loadtxt's
# line), only loadtxt reads (a number beside U+001C to U+001F) or neither
# reads; and region labels outside REGIONS.
COORD_TEXTS = st.sampled_from(["0", "12", "3.5", "-0", " 7", "+.5", "1e400", "nan", "1e-3"])
ODD_COORDS = st.sampled_from(["left", "", "1_0", "\u0661\u0662", "\x1c1", "1\x1f", "\x1d2",
                              "\x1e", "1\r", "0x10", "1,5"])
ODD_REGIONS = st.sampled_from(["footer", "", "Body", "body\x1e", "lead\r"])


@st.composite
def visual_files(draw, g):
    """A visual file for ``g``: comment and blank lines, a header of the five
    columns, with or without an extra one, in the written or a drawn order,
    then rows on distinct links of ``g`` and on pairs that are no link, the
    latter with any region, among comment and blank lines.  Half the files
    have one kind of fault: rows of the wrong width, repeated rows, one odd
    coordinate text (``ODD_COORDS``), unknown names (U+001C to U+001F among
    them) or unknown regions on links."""
    columns = ["src", "trg", "x_coord", "y_coord", "region"]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), "extra")
    if draw(st.booleans()):
        columns = draw(st.permutations(columns))
    edges = set(zip(g.edge_sources.tolist(), g.out_indices.tolist()))
    links = iter(draw(st.permutations([(NAMES[s], NAMES[t]) for s, t in sorted(edges)])))
    ids = {name: i for i, name in enumerate(NAMES)}
    others = st.sampled_from([(a, b) for a in NAMES + ("Z",) for b in NAMES + ("Z",)
                              if (ids.get(a, -1), ids.get(b, -1)) not in edges])
    fault = draw(st.sampled_from([None] * 5 + ["width", "repeat", "coord", "name", "region"]))
    regions = st.sampled_from(ingest.REGIONS)
    any_region = st.one_of(regions, ODD_REGIONS)
    coords = st.one_of(COORD_TEXTS, st.just(draw(ODD_COORDS))) if fault == "coord" else COORD_TEXTS
    lines = draw(st.lists(st.sampled_from(["# note\n", "\n"]), max_size=2))
    lines.append("\t".join(columns) + "\n")
    rows: list[str] = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["link", "link", "link", "other", "comment", "odd"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c\n", "\n", "#\tA\tB\n"])))
            continue
        if kind == "odd" and fault == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
            lines.append(rows[-1])
            continue
        pair = next(links, None) if kind != "other" else None
        fields = dict(zip(("src", "trg"), pair or draw(others)))
        fields["x_coord"], fields["y_coord"] = draw(coords), draw(coords)
        fields["region"] = draw(any_region if pair is None or fault == "region" else regions)
        fields["extra"] = draw(st.sampled_from(["note", "", "1"]))
        if kind == "odd" and fault == "name":
            fields[draw(st.sampled_from(["src", "trg"]))] = draw(
                st.sampled_from(["Z", "A\x1c", "\x1fB", "", "a"]))
        cells = [fields[c] for c in columns]
        if kind == "odd" and fault == "width":
            if draw(st.booleans()):
                cells.pop(draw(st.integers(0, len(cells) - 1)))
            else:
                cells.insert(draw(st.integers(0, len(cells))), draw(COORD_TEXTS))
        rows.append("\t".join(cells) + "\n")
        lines.append(rows[-1])
    return lines


def first_unknown_region(lines, g):
    """The line number and region of the first row on a link of ``g`` whose
    region is not in REGIONS, in a file of rows of the header's width."""
    content = [(n, raw.rstrip("\n")) for n, raw in enumerate(lines, start=1)
               if raw.rstrip("\n") and not raw.startswith("#")]
    pos = {name: i for i, name in enumerate(content[0][1].split("\t"))}
    names = g.name_to_id()
    for line_no, line in content[1:]:
        fields = line.split("\t")
        s, t = names.get(fields[pos["src"]], -1), names.get(fields[pos["trg"]], -1)
        if reference_has_edge(g, s, t) and fields[pos["region"]] not in ingest.REGIONS:
            return line_no, fields[pos["region"]]
    return None


class TestReadVisualMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(labeled_graphs(), st.data())
    def test_same_arrays_or_same_error(self, g, data):
        lines = data.draw(visual_files(g))
        got = outcome(lambda: ingest.read_visual(lines, g))
        want = outcome(lambda: reference_read_visual(lines, g))
        if isinstance(want[0], type):
            assert got == want
            return
        # The reference left an unknown region on a link to build_feature_table;
        # the reader now refuses it, naming the first such row's line.
        x, y, region, covered, non_edge = want
        log = ingest.TransitionLog.from_pairs([], [], [], graph=g)
        zeros = np.zeros(g.n_edges)
        built = outcome(lambda: ingest.build_feature_table(g, log, zeros, zeros, x, y, region,
                                                           covered=covered))
        odd = first_unknown_region(lines, g)
        if isinstance(built, tuple):  # a refusal, (type, text)
            assert built[0] is SchemaError and built[1].startswith("unknown region label ")
            assert got == (LineError, "line {}: unknown region label {!r}".format(*odd))
            return
        assert odd is None
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()
        assert got[2].dtype == object and got[2].tolist() == region.tolist()
        assert got[3].dtype == bool and np.array_equal(got[3], covered)
        assert type(got[4]) is int and got[4] == non_edge


class TestArtifactRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(LEGAL_NAMES, min_size=1, max_size=8, unique=True), st.integers(-5, 20),
           st.data())
    def test_graph_and_transitions_survive_write_and_read(self, names, threshold, data):
        n = len(names)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=30))
        g = G.build_graph(pairs, n_nodes=n, labels=names)
        logged = data.draw(st.lists(st.integers(0, max(g.n_edges - 1, 0)), unique=True,
                                    max_size=g.n_edges))
        counts = data.draw(st.lists(st.integers(threshold, 2**58), min_size=len(logged),
                                    max_size=len(logged)))
        log = ingest.TransitionLog.from_pairs(g.edge_sources[logged], g.out_indices[logged],
                                              counts, threshold=threshold)
        with tempfile.TemporaryDirectory() as tmp:
            graph_path, transitions_path = (os.path.join(tmp, f) for f in ("g.tsv", "t.tsv"))
            G.save_graph(g, graph_path)
            with open(transitions_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(["# header\n", *ingest.transition_lines(log, g.labels)])
            g2 = G.load_graph(graph_path)
            with open(transitions_path, encoding="utf-8") as fh:
                back = ingest.read_transitions(fh, g2, threshold)
        assert g2.labels == g.labels
        for got, want in ((g2.out_indptr, g.out_indptr), (g2.out_indices, g.out_indices),
                          (back.src, log.src), (back.trg, log.trg), (back.count, log.count)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestReadersNeedLabels:
    UNLABELLED = "graph.tsv carries no node labels; rerun `clickgraph build`"

    @pytest.mark.parametrize("read, header", [
        (lambda lines, g: ingest.read_transitions(lines, g, 10), "# threshold=10\n"),
        (ingest.read_visual, "src\ttrg\tx_coord\ty_coord\tregion\n"),
        (ingest.load_feature_table, "\t".join(ingest.FEATURE_COLUMNS) + "\n"),
    ], ids=["read_transitions", "read_visual", "load_feature_table"])
    def test_unlabelled_graph_is_refused_unless_it_has_no_nodes(self, read, header):
        with pytest.raises(MalformedInputError, match=f"^{re.escape(self.UNLABELLED)}$"):
            read([header, "A\tB\t10\n"], G.build_graph([(0, 1), (1, 0)]))
        read([header], G.build_graph([], n_nodes=0))  # graph.tsv writes no label line for it


class TestReadVisual:
    @pytest.mark.parametrize("lines, message", [
        ([], "visual file has no header line"),
        (["# notes\n", "\n"], "visual file has no header line"),
        (["src\ttrg\tx_coord\ty_coord\n", "A\tB\t1\t2\n"], "visual file missing column region"),
        # the header is refused before the rows are read: the short row is no LineError
        (["src\ttrg\tx_coord\ty_coord\tregion\tx_coord\n", "A\tB\t1\n"],
         "visual file names columns more than once: 'x_coord'"),
    ])
    def test_a_file_without_its_header_is_a_schema_error(self, lines, message):
        g, _ = small_graph()
        with pytest.raises(SchemaError, match=f"^{message}$"):
            ingest.read_visual(lines, g)
