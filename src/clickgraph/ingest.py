"""Readers and writers of the pipeline's tab-separated text.

The external edge list and clickstream are parsed here, and each text
artifact a stage hands on has its one reader here beside its writer:
``transitions.tsv`` (:func:`read_transitions`, :func:`transition_lines`),
``visual.tsv`` (:func:`read_visual`, consumed by :func:`build_feature_table`)
and ``features.tsv`` (:func:`load_feature_table`, :func:`feature_table_lines`).
``graph.tsv`` is read and written in :mod:`clickgraph.graph`.  Every reader
resolves all its rows with one :meth:`LinkGraph.edge_slots` call, and article
names become dense integer ids so the rest of the toolkit never touches them.
``features.tsv`` and ``visual.tsv`` share one parse, :func:`_parse_rows`:
one pass over the lines, then one ``np.loadtxt`` call for the numbers.
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


def _column_positions(header: list[str], what: str) -> dict[str, int]:
    """Each column name's position in ``header``; a :class:`SchemaError`
    names, by ``repr``, the columns it gives more than once."""
    pos = {name: i for i, name in enumerate(header)}
    if len(pos) < len(header):
        twice = ", ".join(repr(name) for name, i in pos.items() if header.index(name) != i)
        raise SchemaError(f"{what} file names columns more than once: {twice}")
    return pos


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
    """Read back a log written by :func:`transition_lines` for the labelled graph ``g``.

    Lines that start with ``#`` or hold only whitespace are skipped.  Every
    other row is ``src<TAB>trg<TAB>count``: two article names of ``g`` that
    are a link of ``g`` not given on an earlier row, and an int64 count of at
    least ``threshold``.  The first row that is not raises :class:`LineError`
    naming its line.
    """
    lookup = g.name_to_id()
    src, trg, count, line_nos = [], [], [], []
    for line_no, raw in enumerate(lines, start=1):
        if raw.startswith("#") or not raw.strip():
            continue
        fields = raw.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise LineError(line_no, f"expected 3 tab-separated fields, got {len(fields)}")
        a, b, c = fields
        s, t = lookup.get(a, -1), lookup.get(b, -1)
        if s < 0 or t < 0:
            raise LineError(line_no, f"article {a if s < 0 else b!r} is not in graph.tsv")
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

    # The first bad row: a repeated link, a count below the threshold, or no link.
    slots = g.edge_slots(src, trg)
    earlier = _repeats(slots)
    below = np.asarray(count, dtype=np.int64) < threshold
    bad = np.flatnonzero((earlier >= 0) | below | (slots < 0))
    if len(bad):
        i = bad[0]
        pair = f"{g.labels[src[i]]!r} -> {g.labels[trg[i]]!r}"
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

    def edge_values(self, g: LinkGraph, name: str, fill=np.nan) -> np.ndarray:
        """Column ``data[name]`` spread over the graph's edge slots; uncovered edges get ``fill``."""
        col = self.data[name]
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


def _parse_rows(rows: list[tuple[int, str]], width: int, colpos: dict[str, int],
                numeric: list[tuple[str, int]], name_to_id: dict[str, int], intern: bool,
                delimiter: str) -> tuple:
    """The parse of a per-link table: one entry per data row, its faults as
    facts that the caller phrases and judges by its own rules.

    One pass splits each line and resolves its names, then one ``np.loadtxt``
    call reads the ``numeric`` columns of the rows of the right width.  It
    reads what ``float`` reads, to the same bits, but for ``1_0``, non-ASCII
    digits and the separators U+001C to U+001F (which it alone strips as
    whitespace); where those may occur, ``float`` reads a row at a time.

    Returns line numbers, source and target ids (-1 for a name not in
    ``name_to_id``, unless ``intern`` grows it), the numbers as a rows x
    ``numeric`` array (NaN for a faulty row), regions, and keyed by row: the
    field count of a row of the wrong width (``widths``), the first
    ``(column, text)`` that ``float`` refuses (``refused``), and the names of
    a row of the wrong width ('') or with an unknown article (``texts``).
    """
    at_src, at_trg, at_region = colpos["src"], colpos["trg"], colpos["region"]
    src_ids, trg_ids, regions = [-1] * len(rows), [-1] * len(rows), [None] * len(rows)
    widths: dict[int, int] = {}
    refused: dict[int, tuple[str, str]] = {}
    texts: dict[int, tuple[str, str]] = {}
    wide = []  # rows of the right width
    separators = False  # whether a line holds U+001C to U+001F
    for row, (_, line) in enumerate(rows):
        fields = line.split(delimiter)
        if len(fields) != width:
            widths[row] = len(fields)
            texts[row] = ("", "")
            continue
        a, b = fields[at_src], fields[at_trg]
        if intern:
            s, t = name_to_id.setdefault(a, len(name_to_id)), name_to_id.setdefault(b, len(name_to_id))
        else:
            s, t = name_to_id.get(a, -1), name_to_id.get(b, -1)
            if s < 0 or t < 0:
                texts[row] = (a, b)
        src_ids[row], trg_ids[row], regions[row] = s, t, fields[at_region]
        separators = separators or ("\x1c" in line or "\x1d" in line
                                    or "\x1e" in line or "\x1f" in line)
        wide.append(row)

    cols = [i for _, i in numeric]
    values = None
    if wide and len(delimiter) == 1 and not separators:
        try:
            values = np.loadtxt((rows[row][1] for row in wide), dtype=np.float64, comments=None,
                                delimiter=delimiter, quotechar=None, usecols=cols, ndmin=2)
        except ValueError:
            pass
    if values is None or values.shape != (len(wide), len(cols)):
        # float, one row at a time; the first cell it refuses is the row's fault
        blank = [math.nan] * len(cols)
        values = []
        for row in wide:
            fields, cells = rows[row][1].split(delimiter), []
            for col, i in numeric:
                try:
                    cells.append(float(fields[i]))
                except ValueError:
                    refused[row] = (col, fields[i])
                    cells = blank
                    break
            values.extend(cells)
        values = np.array(values, dtype=np.float64).reshape(-1, len(cols))
    if widths:  # the right-width rows' numbers into their places among all rows
        full = np.full((len(rows), len(cols)), math.nan)
        full[wide] = values
        values = full
    return [n for n, _ in rows], src_ids, trg_ids, values, regions, widths, refused, texts


def load_feature_table(
    lines: Iterable[str],
    graph: LinkGraph | None,
    transitions: TransitionLog | None = None,
    recompute_network: bool = False,
    delimiter: str = "\t",
    alpha: float = 0.85,
) -> tuple[LinkFeatureTable, JoinReport]:
    """Load a delimited feature file and join it against graph and transitions.

    The header must name at least the mandatory columns (src, trg, the two
    similarities, coordinates, region), and no column twice; network columns may be recomputed
    from the graph instead (``recompute_network``, PageRank at damping
    ``alpha``), in which case a consistency report is filled for any network
    columns also present in the file.  A missing ``transitions`` column is
    filled from the log (0 where unobserved).

    Every column but src, trg and region, an extra one too, holds numbers.
    src and trg name articles of a labelled graph.  A row is rejected for its
    first fault: a wrong field count, then no edge of the graph, then a repeat
    of a kept row's link, then its values: a cell that is no number, then a
    similarity outside [0, 1], text_sim first, then an unknown region.  All
    are counted in the report, the first ``REJECTED_LISTED`` listed, by line
    number in the input.

    The rows are parsed by :func:`_parse_rows`, then joined.

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
    colpos = _column_positions(header, "feature")

    missing = [c for c in _MANDATORY if c not in colpos]
    if not recompute_network:
        missing += [c for c in NETWORK_COLUMNS if c not in colpos]
    if missing:
        raise SchemaError(f"feature file missing mandatory columns: {', '.join(missing)}")

    name_to_id = {} if graph is None else graph.name_to_id()  # without a graph, grown on the fly
    numeric = [(c, i) for c, i in colpos.items() if c not in ("src", "trg", "region")]
    line_nos, src_ids, trg_ids, values, regions, widths, refused, texts = _parse_rows(
        list(numbered), len(header), colpos, numeric, name_to_id, graph is None, delimiter)

    # Each row's first value fault: no number, a similarity outside [0, 1], an unknown region.
    late = {row: f"non-numeric value {t!r} in column {c}" for row, (c, t) in refused.items()}
    order = [c for c, _ in numeric]
    sims = [(c, order.index(c)) for c in ("text_sim", "topic_sim")]
    sim = values[:, [k for _, k in sims]]
    odd = ~((sim >= 0.0) & (sim <= 1.0)).all(axis=1)
    odd |= np.array([r not in REGIONS for r in regions], dtype=bool)
    for row in np.flatnonzero(odd).tolist():
        if row not in widths and row not in late:
            why = next((f"{c} {values[row, k].item()} outside [0, 1]" for c, k in sims
                        if not 0.0 <= values[row, k] <= 1.0), None)
            late[row] = why or f"unknown region label {regions[row]!r}"

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
    faulty[[*widths, *late]] = True
    earlier = _repeats(slots, faulty)
    report = JoinReport(rows_read=len(line_nos))
    for row in np.flatnonzero((slots < 0) | (earlier >= 0) | faulty).tolist():
        if row in widths:
            why = f"expected {len(header)} fields, got {widths[row]}"
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
        per_node = compute_network_features(graph, alpha=alpha)
        for cname, vec in _node_feature_columns(per_node, src, trg).items():
            if cname in colpos and len(src):
                diff = np.abs(data[cname] - vec)
                report.consistency[cname] = (int((diff > 1e-9).sum()), float(diff.max()))
            data[cname] = vec
    return LinkFeatureTable(src=src, trg=trg, data=data, labels=labels), report


def read_visual(lines: Iterable[str], g: LinkGraph) -> tuple:
    """Per-edge x, y, region and covered arrays, and the count of rows that are
    not edges, from a src/trg/x_coord/y_coord/region file naming articles of
    the labelled graph ``g``, parsed by :func:`_parse_rows`.  A header that
    names a column twice is a :class:`SchemaError`.  :class:`LineError`
    names the first row with the wrong field count or a coordinate that is no
    number (x_coord first), else the first second row for one link, else the
    first row of a link with an unknown region."""
    lookup = g.name_to_id()
    numbered = _content_lines(lines)
    first = next(numbered, None)
    if first is None:
        raise SchemaError("visual file has no header line")
    header = first[1].split("\t")
    pos = _column_positions(header, "visual")
    for col in ("src", "trg", "x_coord", "y_coord", "region"):
        if col not in pos:
            raise SchemaError(f"visual file missing column {col}")
    line_nos, src, trg, xy, regions, widths, refused, _ = _parse_rows(
        list(numbered), len(header), pos, [(c, pos[c]) for c in ("x_coord", "y_coord")],
        lookup, intern=False, delimiter="\t")
    if widths or refused:
        row = min(widths.keys() | refused.keys())
        raise LineError(line_nos[row],
                        f"expected {len(header)} tab-separated fields, got {widths[row]}"
                        if row in widths else "non-numeric {} {!r}".format(*refused[row]))

    slots = g.edge_slots(src, trg)
    again = np.flatnonzero(_repeats(slots) >= 0)
    if len(again):
        raise LineError(line_nos[again[0]], "second row for the same link")
    link = slots >= 0
    for row in np.flatnonzero(link).tolist():
        if regions[row] not in REGIONS:
            raise LineError(line_nos[row], f"unknown region label {regions[row]!r}")
    x, y = np.zeros(g.n_edges), np.zeros(g.n_edges)
    region = np.full(g.n_edges, None, dtype=object)
    covered = np.zeros(g.n_edges, dtype=bool)
    at = slots[link]
    x[at], y[at] = xy[link, 0], xy[link, 1]
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


def feature_table_lines(table: LinkFeatureTable) -> Iterable[str]:
    """Serialize a table in the fixed column order (names when labeled), a column at a time."""
    yield "\t".join(FEATURE_COLUMNS) + "\n"
    labels = table.labels
    columns = []
    for col in FEATURE_COLUMNS:
        if col in ("src", "trg"):
            ids = (table.src if col == "src" else table.trg).tolist()
            columns.append([labels[i] for i in ids] if labels else list(map(str, ids)))
        elif col == "region":
            columns.append(list(map(str, table.data["region"].tolist())))
        else:
            columns.append(_number_texts(table.data[col]))
    for cells in zip(*columns):
        yield "\t".join(cells) + "\n"

