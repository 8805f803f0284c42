"""Readers and writers of the pipeline's tab-separated text.

The external edge list and clickstream are parsed here, and each text
artifact a stage hands on has its one reader here beside its writer:
``transitions.tsv`` (:func:`read_transitions`, :func:`transition_lines`),
``visual.tsv`` (:func:`read_visual`, consumed by :func:`build_feature_table`)
and ``features.tsv`` (:func:`load_feature_table`, :func:`feature_table_lines`).
``graph.tsv`` is read and written in :mod:`clickgraph.graph`.  Every reader
resolves all its rows with one :meth:`LinkGraph.edge_slots` call, and article
names become dense integer ids so the rest of the toolkit never touches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import graph as graphmod
from .errors import (
    LineError,
    MalformedInputError,
    PreconditionError,
    SchemaError,
    SupportError,
)
from .graph import LinkGraph

DEFAULT_THRESHOLD = 10

REGIONS = ("lead", "body", "left-body", "right-body", "infobox", "navbox")

#: Fixed column order of a serialized link-feature table.
FEATURE_COLUMNS = (
    "src", "trg", "transitions",
    "src_degree", "trg_degree",
    "src_in_degree", "trg_in_degree",
    "src_out_degree", "trg_out_degree",
    "src_kcore", "trg_kcore",
    "src_pagerank", "trg_pagerank",
    "text_sim", "topic_sim",
    "x_coord", "y_coord", "region",
)

NETWORK_COLUMNS = (
    "src_degree", "trg_degree",
    "src_in_degree", "trg_in_degree",
    "src_out_degree", "trg_out_degree",
    "src_kcore", "trg_kcore",
    "src_pagerank", "trg_pagerank",
)

_MANDATORY = ("src", "trg", "text_sim", "topic_sim", "x_coord", "y_coord", "region")

#: Rejected rows a ``JoinReport`` lists; any beyond are only counted.
REJECTED_LISTED = 20

#: The range of the int64 count column.
_COUNT_MIN, _COUNT_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True, eq=False)
class TransitionLog:
    """Observed per-edge transition counts, threshold-filtered and deduplicated."""

    src: np.ndarray
    trg: np.ndarray
    count: np.ndarray

    @classmethod
    def from_pairs(
        cls,
        src: Iterable[int],
        trg: Iterable[int],
        count: Iterable[int],
        threshold: int = DEFAULT_THRESHOLD,
        graph: LinkGraph | None = None,
    ) -> "TransitionLog":
        """Build a log from raw arrays, enforcing the invariants.

        Pairs must be unique after sorting; counts below ``threshold`` are
        rejected; when ``graph`` is given every pair must be one of its edges.
        """
        src = np.asarray(list(src), dtype=np.int64)
        trg = np.asarray(list(trg), dtype=np.int64)
        count = np.asarray(list(count), dtype=np.int64)
        order = np.lexsort((trg, src))
        src, trg, count = src[order], trg[order], count[order]
        if len(src) > 1:
            dup = (src[1:] == src[:-1]) & (trg[1:] == trg[:-1])
            if dup.any():
                raise MalformedInputError("duplicate (src, trg) pair in transition log")
        if count.size and count.min() < threshold:
            raise MalformedInputError(f"transition count below threshold {threshold}")
        total = sum(count.tolist())  # Python ints: exact where an int64 sum would wrap
        if not _COUNT_MIN <= total <= _COUNT_MAX:
            raise MalformedInputError(f"total transition count {total} outside the int64 range")
        if graph is not None and len(src):
            if (graph.edge_slots(src, trg) < 0).any():
                raise SupportError("transition pair is not an edge of the graph")
        return cls(src=src, trg=trg, count=count)

    def __len__(self) -> int:
        return len(self.count)

    @property
    def total(self) -> int:
        # Exact: from_pairs bounds the true total to int64, so wrapping partial sums cancel.
        return int(self.count.sum()) if len(self.count) else 0

    def aligned_counts(self, g: LinkGraph) -> np.ndarray:
        """Counts as a dense vector over the graph's edge slots.

        Raises :class:`SupportError` if any logged pair is not a graph edge.
        """
        out = np.zeros(g.n_edges, dtype=np.float64)
        if len(self.src) == 0:
            return out
        slots = g.edge_slots(self.src, self.trg)
        if (slots < 0).any():
            bad = int(np.argmax(slots < 0))
            raise SupportError(
                f"transition ({self.src[bad]}, {self.trg[bad]}) is not an edge of the graph"
            )
        out[slots] = self.count
        return out


@dataclass
class DropStats:
    """Accounting of what the clickstream parser kept and discarded."""

    lines: int = 0
    malformed: int = 0
    external: int = 0
    non_edge: int = 0
    below_threshold_pairs: int = 0
    kept_pairs: int = 0
    kept_count: int = 0


def _content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each line numbered from 1 and without its newline, but for empty and ``#`` lines."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if line and not line.startswith("#"):
            yield line_no, line


def _number(kind, text: str, col: str, line_no: int):
    """``kind(text)``; a value ``kind`` rejects raises LineError naming the column."""
    try:
        return kind(text)
    except ValueError:
        raise LineError(line_no, f"non-numeric {col} {text!r}") from None


def _article_ids(a: str, b: str, lookup: dict[str, int] | None, n_nodes: int,
                 line_no: int) -> tuple[int, int]:
    """Node ids of a row's two article fields, -1 for an article the graph lacks.

    With ``lookup`` (a labelled graph's names) the fields are names; without
    it they are integer ids, and one that is no integer raises
    :class:`LineError`.  Ids outside ``[0, n_nodes)`` get -1 too, which also
    keeps every id within int64.
    """
    if lookup is not None:
        return lookup.get(a, -1), lookup.get(b, -1)
    s, t = _number(int, a, "src", line_no), _number(int, b, "trg", line_no)
    return (s if 0 <= s < n_nodes else -1), (t if 0 <= t < n_nodes else -1)


def _repeats(slots: np.ndarray, rejected: np.ndarray | None = None) -> np.ndarray:
    """Per row, the earlier row whose link it repeats, or -1.

    A row repeats the first row with its slot that is neither a non-link
    (slot -1) nor ``rejected``, when that row comes before it.
    """
    keep = slots >= 0
    if rejected is not None:
        keep &= ~rejected
    rows = np.flatnonzero(keep)
    key, first = np.unique(slots[rows], return_index=True)  # a sort, not the int64 hash path
    if not len(key):
        return np.full(len(slots), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(key, slots), len(key) - 1)
    earlier = rows[first][pos]
    return np.where((key[pos] == slots) & (earlier < np.arange(len(slots))), earlier, -1)


def parse_edge_list(lines: Iterable[str]) -> tuple[list[tuple[int, int]], dict[str, int]]:
    """Parse ``src_name<TAB>trg_name`` lines into id pairs.

    Names are interned to dense ids in first-seen order.  Duplicate lines are
    passed through untouched; deduplication happens in :func:`graph.build_graph`.
    A name that is empty or starts with ``#`` raises :class:`LineError`: every
    artifact written later reads such a line as a comment, and MediaWiki
    titles cannot contain ``#``.
    """
    name_to_id: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def intern(name: str, line_no: int) -> int:
        idx = name_to_id.get(name)
        if idx is None:
            if not name:
                raise LineError(line_no, "empty article name")
            if name.startswith("#"):
                raise LineError(line_no, f"article name {name!r} starts with '#'")
            idx = len(name_to_id)
            name_to_id[name] = idx
        return idx

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise LineError(line_no, f"expected 2 tab-separated fields, got {len(fields)}")
        edges.append((intern(fields[0], line_no), intern(fields[1], line_no)))
    return edges, name_to_id


def parse_clickstream(
    lines: Iterable[str],
    name_to_id: dict[str, int],
    graph: LinkGraph,
    threshold: int = DEFAULT_THRESHOLD,
    fail_fast: bool = False,
) -> tuple[TransitionLog, DropStats]:
    """Parse clickstream rows into a :class:`TransitionLog`.

    Rows are ``referrer<TAB>resource<TAB>count`` or the 4-column variant with
    a type token before the count (the type is ignored).  Referrers that are
    not internal article names are dropped as external traffic, pairs that are
    not graph edges are dropped, duplicate pairs are summed, and only pairs
    with a summed count of at least ``threshold`` are kept.

    Malformed rows (a count that is no integer or lies outside int64 among
    them) raise :class:`LineError` when ``fail_fast`` is set and are
    otherwise skipped and counted in the returned :class:`DropStats`.  A
    kept pair whose summed count lies outside int64 raises
    :class:`MalformedInputError` naming both articles.
    """
    stats = DropStats()
    src_ids: list[int] = []
    trg_ids: list[int] = []
    counts: list[int] = []

    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        stats.lines += 1
        fields = line.split("\t")
        malformed = None
        if len(fields) not in (3, 4):
            malformed = f"expected 3 or 4 tab-separated fields, got {len(fields)}"
        else:
            count_text = fields[-1]  # a 4-column row's type token is ignored
            try:
                count = int(count_text)
            except ValueError:
                malformed = f"non-numeric count {count_text!r}"
            else:
                if not _COUNT_MIN <= count <= _COUNT_MAX:
                    malformed = f"count {count_text!r} outside the int64 range"
        if malformed is not None:
            if fail_fast:
                raise LineError(line_no, malformed)
            stats.malformed += 1
            continue

        src = name_to_id.get(fields[0])
        if src is None:
            stats.external += 1
            continue
        trg = name_to_id.get(fields[1])
        if trg is None:
            stats.non_edge += 1
            continue
        src_ids.append(src)
        trg_ids.append(trg)
        counts.append(count)

    slots = graph.edge_slots(src_ids, trg_ids).tolist()
    stats.non_edge += slots.count(-1)
    sums: dict[int, int] = {}
    for slot, count in zip(slots, counts):
        if slot >= 0:
            sums[slot] = sums.get(slot, 0) + count

    kept = {slot: c for slot, c in sums.items() if c >= threshold}
    for slot, c in kept.items():
        if not _COUNT_MIN <= c <= _COUNT_MAX:
            src, trg = int(graph.edge_sources[slot]), int(graph.out_indices[slot])
            if graph.labels is not None:
                src, trg = graph.labels[src], graph.labels[trg]
            raise MalformedInputError(f"summed count {c} of {src!r} -> {trg!r} outside the int64 range")
    stats.below_threshold_pairs = len(sums) - len(kept)
    stats.kept_pairs = len(kept)
    stats.kept_count = sum(kept.values())

    log = TransitionLog.from_pairs(
        src=graph.edge_sources[list(kept)],
        trg=graph.out_indices[list(kept)],
        count=list(kept.values()),
        threshold=threshold,
    )
    return log, stats


def transition_lines(log: TransitionLog, names: Sequence[str]) -> Iterable[str]:
    """Serialize a log back to 3-column clickstream format (reparse-stable)."""
    for s, t, c in zip(log.src, log.trg, log.count):
        yield f"{names[s]}\t{names[t]}\t{c}\n"


def read_transitions(lines: Iterable[str], g: LinkGraph, threshold: int) -> TransitionLog:
    """Read back a log written by :func:`transition_lines` for the graph ``g``.

    Lines that start with ``#`` or hold only whitespace are skipped.  Every
    other row is ``src<TAB>trg<TAB>count``: two articles of ``g`` (integer
    ids when ``g`` is unlabelled) that are a link of ``g`` not given on an
    earlier row, and an int64 count of at least ``threshold``.  The first row
    that is not raises :class:`LineError` naming its line.
    """
    lookup = g.name_to_id() if g.labels else None
    src, trg, count, line_nos = [], [], [], []
    texts: dict[int, tuple[str, str]] = {}  # ids outside the graph, by row
    for line_no, raw in enumerate(lines, start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        fields = raw.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise LineError(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        a, b, c = fields
        s, t = _article_ids(a, b, lookup, g.n_nodes, line_no)
        if s < 0 or t < 0:
            if lookup is not None:
                raise LineError(line_no, f"article {a if s < 0 else b!r} is not in graph.tsv")
            texts[len(src)] = (a, b)
        try:
            n = int(c)
        except ValueError:
            raise LineError(line_no, f"non-integer count {c!r}") from None
        if not _COUNT_MIN <= n <= _COUNT_MAX:
            raise LineError(line_no, f"count {c!r} outside the int64 range")
        src.append(s)
        trg.append(t)
        count.append(n)
        line_nos.append(line_no)

    # The first bad row: a repeated link, a count below the threshold, or no
    # link (a repeated non-link never comes first: its first row fails).
    slots = g.edge_slots(src, trg)
    earlier = _repeats(slots)
    below = np.asarray(count, dtype=np.int64) < threshold
    bad = np.flatnonzero((earlier >= 0) | below | (slots < 0))
    if len(bad):
        i = bad[0]
        if lookup is not None:
            pair = f"{g.labels[src[i]]!r} -> {g.labels[trg[i]]!r}"
        else:
            a, b = texts.get(i, (src[i], trg[i]))
            pair = f"{int(a)} -> {int(b)}"
        if earlier[i] >= 0:
            why = f"pair {pair} repeats line {line_nos[earlier[i]]}"
        elif below[i]:
            why = f"count {count[i]} for {pair} is below --threshold {threshold}"
        else:
            why = f"pair {pair} is not a link in graph.tsv"
        raise LineError(line_nos[i], why)
    return TransitionLog.from_pairs(src, trg, count, threshold=threshold)


@dataclass(frozen=True, eq=False)
class LinkFeatureTable:
    """One record per link: transition count plus network, semantic, and
    visual features.  ``src``/``trg`` are internal node ids."""

    src: np.ndarray
    trg: np.ndarray
    data: dict[str, np.ndarray]
    labels: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.src)

    def column(self, name: str) -> np.ndarray:
        if name == "src":
            return self.src
        if name == "trg":
            return self.trg
        return self.data[name]

    def edge_values(self, g: LinkGraph, name: str, fill=np.nan) -> np.ndarray:
        """Column spread over the graph's edge slots; uncovered edges get ``fill``."""
        col = self.column(name)
        out = np.full(g.n_edges, fill, dtype=col.dtype if col.dtype.kind == "f" else object)
        slots = g.edge_slots(self.src, self.trg)
        ok = slots >= 0
        out[slots[ok]] = col[ok]
        return out


@dataclass
class JoinReport:
    """Row-level problems and recompute-consistency findings from a table load.

    ``rejected`` lists the first ``REJECTED_LISTED`` rejected rows;
    ``rejected_count`` counts all of them.
    """

    rejected: list[tuple[int, str, str, str]] = field(default_factory=list)  # line, src, trg, reason
    consistency: dict[str, tuple[int, float]] = field(default_factory=dict)  # col -> (mismatches, max abs diff)
    rows_read: int = 0
    rows_kept: int = 0
    rejected_count: int = 0

    def reject(self, line_no: int, src: str, trg: str, reason: str) -> None:
        self.rejected_count += 1
        if len(self.rejected) < REJECTED_LISTED:
            self.rejected.append((line_no, src, trg, reason))


def compute_network_features(g: LinkGraph, alpha: float = 0.85) -> dict[str, np.ndarray]:
    """Per-node centralities keyed the way feature columns expect them."""
    ind, outd, deg = graphmod.degrees(g)
    cores = graphmod.kcore(g)
    pr = graphmod.pagerank(g, alpha=alpha)
    return {
        "degree": deg.values.astype(np.float64),
        "in_degree": ind.values.astype(np.float64),
        "out_degree": outd.values.astype(np.float64),
        "kcore": cores.values.astype(np.float64),
        "pagerank": pr.values,
    }


def _node_feature_columns(per_node: dict[str, np.ndarray], src: np.ndarray, trg: np.ndarray) -> dict[str, np.ndarray]:
    cols: dict[str, np.ndarray] = {}
    for base, vec in per_node.items():
        cols[f"src_{base}"] = vec[src]
        cols[f"trg_{base}"] = vec[trg]
    return cols


def _row_values(fields: list[str], numeric: list[tuple[str, int]],
                sims: list[tuple[str, int]], region_at: int) -> tuple[list[float] | None, str | None]:
    """A feature row's numbers, ``numeric``'s (column, field) pairs in turn, or
    None and why its values fail: first a non-numeric cell, then a similarity
    (at ``sims``' places in the numbers) outside [0, 1], then an unknown region."""
    values = []
    for col, i in numeric:
        try:
            values.append(float(fields[i]))
        except ValueError:
            return None, f"non-numeric value {fields[i]!r} in column {col}"
    for col, k in sims:
        if not 0.0 <= values[k] <= 1.0:
            return None, f"{col} {values[k]} outside [0, 1]"
    if fields[region_at] not in REGIONS:
        return None, f"unknown region label {fields[region_at]!r}"
    return values, None


def _parse_rows(rows: list[tuple[int, str]], width: int, colpos: dict[str, int],
                numeric: list[tuple[str, int]], name_to_id: dict[str, int] | None,
                graph: LinkGraph | None, delimiter: str) -> tuple:
    """The parse half of :func:`load_feature_table`, one row at a time: one
    entry per data row, with the fault the row has on its own.

    Returns line numbers, source and target ids (-1 where unknown), the
    numbers as a rows x ``numeric`` array (NaN for a row that is never
    kept), regions, field count and id faults (``early``, ranked before the
    join's), value faults (``late``, ranked after them) and the names that a
    row's ids do not give back (``texts``), the last three keyed by row.
    """
    sims = [(c, [n for n, _ in numeric].index(c)) for c in ("text_sim", "topic_sim")]
    blank = [math.nan] * len(numeric)  # the numbers of a row that is never kept
    line_nos, src_ids, trg_ids, values, regions = [], [], [], [], []
    early: dict[int, str] = {}
    late: dict[int, str] = {}
    texts: dict[int, tuple[str, str]] = {}
    for line_no, line in rows:
        row = len(line_nos)
        fields = line.split(delimiter)
        s, t, cells = -1, -1, None  # what a row that fails before its values keeps
        if len(fields) != width:
            early[row] = f"expected {width} fields, got {len(fields)}"
            texts[row] = ("", "")
        else:
            a, b = fields[colpos["src"]], fields[colpos["trg"]]
            if graph is None:
                s = name_to_id.setdefault(a, len(name_to_id))
                t = name_to_id.setdefault(b, len(name_to_id))
            else:
                try:
                    s, t = _article_ids(a, b, name_to_id, graph.n_nodes, line_no)
                except LineError:
                    early[row] = "non-integer id in unlabeled graph"
            if name_to_id is None or s < 0 or t < 0:
                texts[row] = (a, b)
            if row not in early:
                cells, why = _row_values(fields, numeric, sims, colpos["region"])
                if why is not None:
                    late[row] = why
        line_nos.append(line_no)
        src_ids.append(s)
        trg_ids.append(t)
        values.extend(blank if cells is None else cells)
        regions.append(None if cells is None else fields[colpos["region"]])
    values = np.array(values, dtype=np.float64).reshape(-1, len(numeric))
    return line_nos, src_ids, trg_ids, values, regions, early, late, texts


def _parse_columns(rows: list[tuple[int, str]], width: int, colpos: dict[str, int],
                   numeric: list[tuple[str, int]], name_to_id: dict[str, int],
                   delimiter: str) -> tuple | None:
    """:func:`_parse_rows`' result for a labelled graph's table in which no
    row has a fault of its own, or None for any other table.

    The names and the region come from one streamed pass (src and trg must
    be the first two columns and region the last), the numbers from one
    ``np.loadtxt`` call.  ``loadtxt`` reads a subset of what ``float`` reads
    (not ``1_0`` or non-ASCII digits), to the same bits, once the four
    separators it alone strips as whitespace are ruled out.  So a
    table this returns None for goes through the per-row parser, and its
    rejections, reasons and line numbers are the per-row parser's.
    """
    if (not rows or len(delimiter) != 1
            or (colpos["src"], colpos["trg"], colpos["region"]) != (0, 1, width - 1)):
        return None
    lookup = name_to_id.get
    src_ids, trg_ids, regions = [], [], []
    for _, line in rows:
        # loadtxt strips the separators U+001C to U+001F around a number; float refuses them.
        if (line.count(delimiter) != width - 1
                or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line):
            return None
        a, b, _ = line.split(delimiter, 2)
        region = line[line.rfind(delimiter) + 1:]
        s, t = lookup(a, -1), lookup(b, -1)
        if s < 0 or t < 0 or region not in REGIONS:
            return None
        src_ids.append(s)
        trg_ids.append(t)
        regions.append(region)
    try:
        values = np.loadtxt((line for _, line in rows), dtype=np.float64, comments=None,
                            delimiter=delimiter, quotechar=None, usecols=[i for _, i in numeric],
                            ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(rows), len(numeric)):
        return None
    names = [n for n, _ in numeric]
    for col in ("text_sim", "topic_sim"):
        sim = values[:, names.index(col)]
        if not ((sim >= 0.0) & (sim <= 1.0)).all():
            return None
    return [n for n, _ in rows], src_ids, trg_ids, values, regions, {}, {}, {}


def load_feature_table(
    lines: Iterable[str],
    graph: LinkGraph | None,
    transitions: TransitionLog | None = None,
    recompute_network: bool = False,
    delimiter: str = "\t",
) -> tuple[LinkFeatureTable, JoinReport]:
    """Load a delimited feature file and join it against graph and transitions.

    The header must name at least the mandatory columns (src, trg, the two
    similarities, coordinates, region); network columns may be recomputed
    from the graph instead (``recompute_network``), in which case a
    consistency report is filled for any network columns also present in the
    file.  A missing ``transitions`` column is filled from the log (0 where
    unobserved).

    Every column but src, trg and region, an extra one too, holds numbers.
    A row is rejected for its first fault: a wrong field count or a
    non-integer id, then no edge of the graph, then a repeat of a kept row's
    link, then its values (see :func:`_row_values`).  All are counted in the
    report, the first ``REJECTED_LISTED`` listed, by line number in the input.

    The rows are parsed, then joined.  A labelled graph's table is parsed a
    column at a time (:func:`_parse_columns`) unless a row has a fault of its
    own; then, and for every other table, one row at a time
    (:func:`_parse_rows`).  Both give the join the same ids and bits.

    ``graph=None`` skips edge validation and interns names from the file
    itself (useful for standalone inspection of published feature files).
    The ids are then the file's own, so ``transitions`` must be None.
    """
    if graph is None and transitions is not None:
        raise PreconditionError("a transition log needs the graph its ids refer to")
    numbered = _content_lines(lines)
    first = next(numbered, None)
    if first is None:
        raise SchemaError("feature file has no header line")
    header = [h.strip() for h in first[1].split(delimiter)]
    colpos = {name: i for i, name in enumerate(header)}

    missing = [c for c in _MANDATORY if c not in colpos]
    if not recompute_network:
        missing += [c for c in NETWORK_COLUMNS if c not in colpos]
    if missing:
        raise SchemaError(f"feature file missing mandatory columns: {', '.join(missing)}")

    if graph is None:
        name_to_id: dict[str, int] | None = {}  # grown on the fly
    else:
        name_to_id = graph.name_to_id() if graph.labels is not None else None
    numeric = [(c, i) for c, i in colpos.items() if c not in ("src", "trg", "region")]
    rows = list(numbered)
    parsed = None
    if graph is not None and name_to_id is not None:
        parsed = _parse_columns(rows, len(header), colpos, numeric, name_to_id, delimiter)
    if parsed is None:
        parsed = _parse_rows(rows, len(header), colpos, numeric, name_to_id, graph, delimiter)
    line_nos, src_ids, trg_ids, values, regions, early, late, texts = parsed

    src = np.asarray(src_ids, dtype=np.int64)
    trg = np.asarray(trg_ids, dtype=np.int64)
    if graph is None:
        labels = tuple(name_to_id) or None  # ids were handed out in first-seen order
        slots = graphmod._edge_key(src, trg, len(name_to_id))  # every pair counts as a link
    else:
        labels = graph.labels
        slots = graph.edge_slots(src, trg)

    # Join, in line order: one report.reject per rejected row, for its first fault.
    faulty = np.zeros(len(line_nos), dtype=bool)
    faulty[[*early, *late]] = True
    earlier = _repeats(slots, faulty)
    report = JoinReport(rows_read=len(line_nos))
    for row in np.flatnonzero((slots < 0) | (earlier >= 0) | faulty).tolist():
        if row in early:
            why = early[row]
        elif slots[row] < 0:
            why = "not an edge of the graph"
        elif earlier[row] >= 0:
            why = "duplicate link row"
        else:
            why = late[row]
        names = texts.get(row) or (labels[src_ids[row]], labels[trg_ids[row]])
        report.reject(line_nos[row], *names, why)
    kept = np.flatnonzero((slots >= 0) & (earlier < 0) & ~faulty)  # in line order
    report.rows_kept = len(kept)
    src, trg = src[kept], trg[kept]

    # In header order: each number column in turn from ``numbers``, region among them.
    numbers = iter(values[kept].T.copy())
    region = np.asarray(regions, dtype=object)[kept]
    data = {c: region if c == "region" else next(numbers) for c in colpos if c not in ("src", "trg")}
    if "transitions" not in data:
        data["transitions"] = (np.zeros(len(src)) if transitions is None
                               else transitions.aligned_counts(graph)[slots[kept]])

    if recompute_network and graph is not None:
        for cname, vec in _node_feature_columns(compute_network_features(graph), src, trg).items():
            if cname in colpos and len(src):
                diff = np.abs(data[cname] - vec)
                report.consistency[cname] = (int((diff > 1e-9).sum()), float(diff.max()))
            data[cname] = vec
    return LinkFeatureTable(src=src, trg=trg, data=data, labels=labels), report


def read_visual(lines: Iterable[str], g: LinkGraph) -> tuple:
    """Per-edge x, y, region and covered arrays, and the count of rows that are
    not edges, from a src/trg/x_coord/y_coord/region file.  A second row for
    the same link raises :class:`LineError`."""
    lookup = g.name_to_id() if g.labels else None
    src, trg, x_rows, y_rows, regions, line_nos = [], [], [], [], [], []
    header = None
    for line_no, line in _content_lines(lines):
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
        s, t = _article_ids(fields[pos["src"]], fields[pos["trg"]], lookup, g.n_nodes, line_no)
        src.append(s)
        trg.append(t)
        x_rows.append(_number(float, fields[pos["x_coord"]], "x_coord", line_no))
        y_rows.append(_number(float, fields[pos["y_coord"]], "y_coord", line_no))
        regions.append(fields[pos["region"]])
        line_nos.append(line_no)
    if header is None:
        raise SchemaError("visual file has no header line")

    slots = g.edge_slots(src, trg)
    again = np.flatnonzero(_repeats(slots) >= 0)
    if len(again):
        raise LineError(line_nos[again[0]], "second row for the same link")
    link = slots >= 0
    x, y = np.zeros(g.n_edges), np.zeros(g.n_edges)
    region = np.full(g.n_edges, None, dtype=object)
    covered = np.zeros(g.n_edges, dtype=bool)
    at = slots[link]
    x[at], y[at] = np.asarray(x_rows)[link], np.asarray(y_rows)[link]
    region[at], covered[at] = np.asarray(regions, dtype=object)[link], True
    return x, y, region, covered, int(np.count_nonzero(~link))


def build_feature_table(
    g: LinkGraph,
    log: TransitionLog,
    text_sim: np.ndarray,
    topic_sim: np.ndarray,
    x_coord: np.ndarray,
    y_coord: np.ndarray,
    region: np.ndarray,
    covered: np.ndarray | None = None,
    alpha: float = 0.85,
) -> LinkFeatureTable:
    """Assemble a feature table for the graph's edges from per-edge arrays.

    All arrays are aligned to the graph's edge slots.  ``covered`` masks the
    edges to include (default: all).  Network features are computed here.
    """
    m = g.n_edges
    for name, arr in (("text_sim", text_sim), ("topic_sim", topic_sim),
                      ("x_coord", x_coord), ("y_coord", y_coord), ("region", region)):
        if len(arr) != m:
            raise MalformedInputError(f"{name} has {len(arr)} entries for {m} edges")
    if covered is None:
        covered = np.ones(m, dtype=bool)
    for label in np.asarray(region, dtype=object)[covered]:
        if label not in REGIONS:
            raise SchemaError(f"unknown region label {label!r}")

    src = g.edge_sources[covered]
    trg = g.out_indices[covered]
    per_node = compute_network_features(g, alpha=alpha)
    data = _node_feature_columns(per_node, src, trg)
    data["transitions"] = log.aligned_counts(g)[covered]
    data["text_sim"] = np.asarray(text_sim, dtype=np.float64)[covered]
    data["topic_sim"] = np.asarray(topic_sim, dtype=np.float64)[covered]
    data["x_coord"] = np.asarray(x_coord, dtype=np.float64)[covered]
    data["y_coord"] = np.asarray(y_coord, dtype=np.float64)[covered]
    data["region"] = np.asarray(region, dtype=object)[covered]
    return LinkFeatureTable(src=src, trg=trg, data=data, labels=g.labels)


def _number_texts(values: np.ndarray) -> list[str]:
    """Each value as an integer when it is one below 1e15 in magnitude, else its repr."""
    v = np.asarray(values, dtype=np.float64)
    whole = (np.abs(v) < 1e15) & (v == np.trunc(v))  # float.is_integer(), NaN and inf excluded
    if whole.all():
        return list(map(str, v.astype(np.int64).tolist()))
    texts = list(map(repr, v.tolist()))
    at = np.flatnonzero(whole)
    for i, n in zip(at.tolist(), v[at].astype(np.int64).tolist()):
        texts[i] = str(n)
    return texts


def feature_table_lines(table: LinkFeatureTable, delimiter: str = "\t") -> Iterable[str]:
    """Serialize a table in the fixed column order (names when labeled), a column at a time."""
    yield delimiter.join(FEATURE_COLUMNS) + "\n"
    labels = table.labels
    columns = []
    for col in FEATURE_COLUMNS:
        if col in ("src", "trg"):
            ids = table.column(col).tolist()
            columns.append([labels[i] for i in ids] if labels else list(map(str, ids)))
        elif col == "region":
            columns.append(list(map(str, table.data["region"].tolist())))
        else:
            columns.append(_number_texts(table.data[col]))
    for cells in zip(*columns):
        yield delimiter.join(cells) + "\n"


def table_stats(table: LinkFeatureTable) -> tuple[int, int, float]:
    """(link count, total transitions, mean transitions per link)."""
    n = len(table)
    total = int(round(float(table.data["transitions"].sum())))
    mean = total / n if n else math.nan
    return n, total, mean
