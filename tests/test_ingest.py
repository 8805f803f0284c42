"""Edge-list, clickstream, and feature-table parsing."""

import numpy as np
import pytest

from clickgraph import graph as G
from clickgraph import ingest
from clickgraph.errors import LineError, MalformedInputError, SchemaError, SupportError

from helpers import random_graph


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
        out = list(ingest.edge_lines(edges, labels))
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

    def test_ledger_sum_matches_kept_counts(self):
        g, names = small_graph()
        rng = np.random.default_rng(5)
        labels = sorted(names, key=names.get)
        lines = []
        for _ in range(200):
            s, t = rng.integers(0, len(labels), size=2)
            lines.append(f"{labels[s]}\t{labels[t]}\t{rng.integers(1, 40)}\n")
        log, stats = ingest.parse_clickstream(lines, names, g)
        assert log.total == stats.kept_count

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

    def test_unlabeled_load_without_graph_interns_names(self):
        lines = feature_file_lines(self.g, self.log)
        table, report = ingest.load_feature_table(lines, None, None)
        assert report.rows_kept == self.g.n_edges
        n, total, mean = ingest.table_stats(table)
        assert n == self.g.n_edges
        assert total == 25
        assert mean == pytest.approx(25 / self.g.n_edges)


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
