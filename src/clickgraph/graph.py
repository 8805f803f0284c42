"""Sparse directed link graph and its network centrality measures.

The graph is stored once, as out-links in compressed sparse row form; in-degrees
are counted from it.  Instances are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConvergenceError, LineError, MalformedInputError

GRAPH_MAGIC = "#%clickgraph-graph v1"

#: The most nodes a graph may have: isqrt(2**63), so every int64 edge key
#: ``src * n_nodes + trg`` is exact.
_MAX_NODES = 3_037_000_499

#: L1 change at which classic and weighted PageRank stop iterating.
PAGERANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CentralityVector:
    """One value per node for a single centrality measure."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class LinkGraph:
    """Immutable directed graph over dense integer node ids.

    The out-adjacency is deduplicated and sorted ascending, so the flat edge
    list (``edge_sources``, ``out_indices``) is in lexicographic (src, trg)
    order, the order of the edge keys ``src * n_nodes + trg``.  Self-loops are
    kept and counted in ``self_loops``.
    """

    n_nodes: int
    out_indptr: np.ndarray
    out_indices: np.ndarray
    labels: tuple[str, ...] | None = None
    self_loops: int = 0

    @property
    def n_edges(self) -> int:
        return int(len(self.out_indices))

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.out_indices, minlength=self.n_nodes)

    @cached_property
    def edge_sources(self) -> np.ndarray:
        """Source node of every edge slot, aligned to ``out_indices``."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.out_degrees())

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        return _edge_key(self.edge_sources, self.out_indices, self.n_nodes)

    def edge_slots(self, src: np.ndarray, trg: np.ndarray) -> np.ndarray:
        """Flat edge index for each (src, trg) pair, -1 where no such edge.

        Ids outside ``[0, n_nodes)`` get -1 too; without the range check their
        key ``src * n_nodes + trg`` could alias a real edge.
        """
        src = np.asarray(src, dtype=np.int64)
        trg = np.asarray(trg, dtype=np.int64)
        if self.n_edges == 0:
            return np.full(len(src), -1, dtype=np.int64)
        n = self.n_nodes
        keys = _edge_key(src, trg, n)
        pos = np.minimum(np.searchsorted(self._edge_keys, keys), self.n_edges - 1)
        hit = (self._edge_keys[pos] == keys) & (src >= 0) & (src < n) & (trg >= 0) & (trg < n)
        return np.where(hit, pos, -1)

    def name_to_id(self) -> dict[str, int]:
        if self.labels is None and self.n_nodes:  # graph.tsv has no label line for 0 nodes
            raise MalformedInputError("graph.tsv carries no node labels; rerun `clickgraph build`")
        return {name: i for i, name in enumerate(self.labels or ())}


def same_structure(a: LinkGraph, b: LinkGraph) -> bool:
    """Whether two graphs have the identical node range and edge set."""
    return a is b or (
        a.n_nodes == b.n_nodes
        and a.n_edges == b.n_edges
        and np.array_equal(a.out_indptr, b.out_indptr)
        and np.array_equal(a.out_indices, b.out_indices)
    )


def _edge_key(src, trg, n_nodes: int):
    """The edge key ``src * n_nodes + trg``: ascending keys are (src, trg) order.

    Distinct only for ids in ``[0, n_nodes)``; callers check the range.
    """
    return src * n_nodes + trg


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of int64 keys by sort and adjacent compare.

    numpy 2.x's plain ``np.unique`` hashes integer input before it sorts,
    which at 90k edge keys is tens of times slower than this.
    """
    keys = np.sort(keys)
    if len(keys) > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


def _csr_from_keys(n_nodes: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sorted unique keys are the edges in CSR order; row i is the key range [i*n, (i+1)*n).
    indptr = np.searchsorted(keys, np.arange(n_nodes + 1, dtype=np.int64) * n_nodes)
    return indptr, keys % n_nodes


def build_graph(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    n_nodes: int | None = None,
    labels: Sequence[str] | None = None,
) -> LinkGraph:
    """Build a :class:`LinkGraph` from (src, trg) id pairs.

    Duplicate pairs are collapsed to a single edge; self-loops are kept.
    ``n_nodes`` declares the id range (defaults to ``max id + 1``, or to
    ``len(labels)`` when labels are given); any id outside it, or a node
    count outside ``[0, isqrt(2**63)]``, raises :class:`MalformedInputError`.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise MalformedInputError("edges must be (src, trg) pairs")
    if labels is not None:
        if n_nodes is None:
            n_nodes = len(labels)
        elif n_nodes != len(labels):
            raise MalformedInputError(f"{len(labels)} labels for {n_nodes} declared nodes")
    if arr.size and arr.min() < 0:
        raise MalformedInputError("node ids must be nonnegative")
    max_id = int(arr.max()) if arr.size else -1
    if n_nodes is None:
        n_nodes = max_id + 1
    elif max_id >= n_nodes:
        raise MalformedInputError(f"edge id {max_id} outside declared range [0, {n_nodes})")
    if not 0 <= n_nodes <= _MAX_NODES:
        raise MalformedInputError(f"node count {n_nodes} outside [0, {_MAX_NODES}]")

    keys = _sorted_unique(_edge_key(arr[:, 0], arr[:, 1], n_nodes))
    out_indptr, out_indices = _csr_from_keys(n_nodes, keys)
    self_loops = int(np.count_nonzero(keys // n_nodes == out_indices))
    return LinkGraph(
        n_nodes=n_nodes,
        out_indptr=out_indptr,
        out_indices=out_indices,
        labels=tuple(labels) if labels is not None else None,
        self_loops=self_loops,
    )


def degrees(g: LinkGraph) -> tuple[CentralityVector, CentralityVector, CentralityVector]:
    """Per-node in-degree, out-degree, and total degree."""
    ind = g.in_degrees()
    outd = g.out_degrees()
    return CentralityVector(ind), CentralityVector(outd), CentralityVector(ind + outd)


def _undirected_adjacency(g: LinkGraph) -> tuple[np.ndarray, np.ndarray]:
    # Union of both directions; self-loops dropped (they cannot sustain a core).
    keep = g.edge_sources != g.out_indices
    src, trg = g.edge_sources[keep], g.out_indices[keep]
    n = g.n_nodes
    keys = np.concatenate([_edge_key(src, trg, n), _edge_key(trg, src, n)])
    return _csr_from_keys(n, _sorted_unique(keys))


def _row_slots(indptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Positions in the CSR ``indices`` of every entry of the given rows, row by row."""
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(ends[-1] if len(ends) else 0)


def kcore(g: LinkGraph) -> CentralityVector:
    """Core number per node on the undirected projection.

    Level-synchronous peeling (Batagelj & Zaversnik, arXiv cs/0310049): at
    level k, every remaining node of degree <= k is removed at once, its
    neighbours lose one degree per removed link, and the neighbours that fall
    to k are removed in the next round; when none are left at k, k jumps to
    the smallest remaining degree.  A node's core number is the level at
    which it goes.  Each round costs the removed nodes' links, each level one
    scan of the nodes.  The values are integers, so the result is exact.
    """
    n = g.n_nodes
    indptr, indices = _undirected_adjacency(g)
    deg = np.diff(indptr)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    k, left = 0, n
    peel = np.flatnonzero(deg == 0)
    while left:
        if not len(peel):
            k = int(deg[alive].min())
            peel = np.flatnonzero(alive & (deg == k))
        core[peel] = k
        alive[peel] = False
        left -= len(peel)
        nbrs = indices[_row_slots(indptr, peel)]
        np.subtract.at(deg, nbrs, 1)
        nbrs = nbrs[alive[nbrs]]
        peel = _sorted_unique(nbrs[deg[nbrs] <= k])
    return CentralityVector(core)


def pagerank(g: LinkGraph, alpha: float = 0.85) -> CentralityVector:
    """Classic PageRank by power iteration from a uniform start.

    Dangling nodes (out-degree 0) spread their mass uniformly over all
    nodes.  Iteration stops at an L1 change of ``PAGERANK_TOL``; failure
    to converge raises :class:`ConvergenceError` carrying the last iterate.
    """
    return power_iteration(g, np.ones(g.n_edges), alpha, "pagerank")


def power_iteration(g: LinkGraph, weights: np.ndarray, alpha: float, name: str) -> CentralityVector:
    """The PageRank kernel shared by classic and weighted PageRank.

    Mass moves along edge slot e (aligned to ``out_indices``) with its
    ``weights[e]`` over the sum of its row's weights; nodes whose weights sum
    to zero (dangling nodes among them) spread theirs over all nodes.
    ``name`` labels the :class:`ConvergenceError` raised when the L1 change
    stays above ``PAGERANK_TOL`` after ``max_iter`` steps: at least 200, and
    enough for a change of 2 that shrinks by ``alpha`` a step (as on a
    periodic component) to reach ``PAGERANK_TOL``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    max_iter = max(200, 1 + math.ceil(math.log(PAGERANK_TOL / 2.0) / math.log(alpha)))
    n = g.n_nodes
    if n == 0:
        return CentralityVector(np.zeros(0))

    src = g.edge_sources
    trg = g.out_indices
    row_sum = np.bincount(src, weights=weights, minlength=n)
    uniform = ~(row_sum > 0)
    prob = np.divide(weights, row_sum[src], out=np.zeros(g.n_edges), where=~uniform[src])
    pr = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = np.bincount(trg, weights=pr[src] * prob, minlength=n)
        new = (1.0 - alpha) / n + alpha * (spread + pr[uniform].sum() / n)
        delta = float(np.abs(new - pr).sum())
        pr = new
        if delta <= PAGERANK_TOL:
            return CentralityVector(pr / pr.sum())
    raise ConvergenceError(
        f"{name} did not converge within {max_iter} iterations (last L1 change {delta:.3e})",
        last=pr,
        iterations=max_iter,
    )


def save_graph(g: LinkGraph, header_lines: Iterable[str] = ()) -> Iterator[str]:
    """The lines of a versioned text snapshot: node count, labels, sorted edge list.

    ``header_lines``, each a ``#`` line ending in a newline, follow the magic
    line.  A label holding a separator, or naming a second node, is refused
    when its line is reached.
    """
    yield GRAPH_MAGIC + "\n"
    yield from header_lines
    yield f"nodes\t{g.n_nodes}\n"
    yield f"selfloops\t{g.self_loops}\n"
    if g.labels is not None:
        seen: set[str] = set()
        for i, name in enumerate(g.labels):
            if "\t" in name or "\n" in name or "\r" in name:
                raise MalformedInputError(f"label {name!r} contains separators")
            if name in seen:
                raise MalformedInputError(f"label {name!r} names two nodes")
            seen.add(name)
            yield f"label\t{i}\t{name}\n"
    yield f"edges\t{g.n_edges}\n"
    for s, t in zip(g.edge_sources, g.out_indices):
        yield f"{s}\t{t}\n"


class _Snapshot:
    """What the lines of a ``graph.tsv`` read so far declare: the per-row reader."""

    def __init__(self) -> None:
        self.n_nodes: int | None = None
        self.n_edges: int | None = None
        self.self_loops: int | None = None
        self.labels: dict[int, tuple[int, str]] = {}  # node -> (line number, name)
        self.named: dict[str, int] = {}  # name -> node
        self.edges: list[tuple[int, int]] = []
        self.edge_lines: list[int] = []

    def read(self, line_no: int, raw: str) -> None:
        if raw.startswith("#"):
            return
        line = raw.rstrip("\n")
        fields = line.split("\t")
        want = 3 if fields[0] == "label" else 2
        if len(fields) != want:
            raise LineError(line_no, f"expected {want} tab-separated fields, got {len(fields)}")
        try:
            if fields[0] == "nodes":
                self.n_nodes = int(fields[1])
            elif fields[0] == "selfloops":
                self.self_loops = int(fields[1])
            elif fields[0] == "label":
                node, name = int(fields[1]), fields[2]
                if node in self.labels:
                    raise LineError(line_no, f"label index {node} repeats line {self.labels[node][0]}")
                if name in self.named:
                    raise LineError(line_no, f"label {name!r} already names node {self.named[name]}")
                self.labels[node] = (line_no, name)
                self.named[name] = node
            elif fields[0] == "edges":
                self.n_edges = int(fields[1])
            else:
                self.edges.append((int(fields[0]), int(fields[1])))
                self.edge_lines.append(line_no)
        except ValueError:
            raise LineError(line_no, f"non-integer field in {line!r}") from None

    def graph(self, edges: np.ndarray | None = None) -> LinkGraph:
        """The graph the lines declare, with ``edges`` (when given) as its edge list."""
        n_nodes = self.n_nodes
        if n_nodes is None:
            raise MalformedInputError("snapshot missing node count")
        found = len(self.edges) if edges is None else len(edges)
        if self.n_edges is not None and self.n_edges != found:
            raise MalformedInputError(f"snapshot declares {self.n_edges} edges, found {found}")
        label_seq = None
        if self.labels:
            for node, (line_no, _) in self.labels.items():
                if not 0 <= node < n_nodes:
                    raise LineError(line_no, f"label index {node} outside [0, {n_nodes})")
            if len(self.labels) < n_nodes:
                missing = next(i for i in range(n_nodes) if i not in self.labels)
                raise MalformedInputError(f"snapshot has no label for node {missing}")
            label_seq = [self.labels[i][1] for i in range(n_nodes)]
        if edges is None:
            for line_no, pair in zip(self.edge_lines, self.edges):
                for node in pair:
                    if not 0 <= node < n_nodes:
                        raise LineError(line_no, f"edge id {node} outside [0, {n_nodes})")
            edges = self.edges
        g = build_graph(edges, n_nodes=n_nodes, labels=label_seq)
        if self.self_loops is not None and self.self_loops != g.self_loops:
            raise MalformedInputError(
                f"snapshot declares {self.self_loops} self-loops, found {g.self_loops}")
        return g


def _edge_block(text: str, n_nodes: int | None) -> np.ndarray | None:
    """The ``(src, trg)`` rows of an edge block as an int64 array, or None.

    One ``np.loadtxt`` call reads them.  On ASCII text without the
    separators U+001C to U+001F, which it alone strips as whitespace, it
    reads a subset of what ``int`` reads (not ``1_0``, nor an id beyond
    int64), to the same values; numpy before 2.0 also reads ``1.0``, with a
    warning that is raised here.  (Beyond ASCII, numpy 2.4's integer parser
    takes thousands of letters, such as U+01FE, for digits.)  None, for any
    other block, or one whose rows are not one per line, two per row and ids
    within ``[0, n_nodes)``, sends the block to the per-row reader.
    """
    if n_nodes is None or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    n_lines = text.count("\n") + (not text.endswith("\n"))  # loadtxt skips blank lines
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Non-ASCII text fails to encode, with a UnicodeEncodeError: a ValueError.
            edges = np.loadtxt(io.BytesIO(text.encode("ascii")), dtype=np.int64, delimiter="\t",
                               comments=None, quotechar=None, encoding="ascii", ndmin=2)
    except (ValueError, Warning):
        return None
    if edges.shape != (n_lines, 2) or (n_lines and not 0 <= edges.min() <= edges.max() < n_nodes):
        return None
    return edges


def load_graph(fh: TextIO) -> LinkGraph:
    """Read a snapshot written by :func:`save_graph` from the text stream ``fh``.

    A line with the wrong field count or a non-integer field raises
    :class:`LineError` naming it, as does an edge id or a ``label`` index
    outside ``[0, nodes)``, or a ``label`` line whose index or name an
    earlier line gave.  When any node is labelled, a node without a label
    raises :class:`MalformedInputError`, as does an ``edges`` or a
    ``selfloops`` count (each optional) that the edge rows do not give.

    The lines up to ``edges`` go through the per-row reader; the block after
    it is read as one array by :func:`_edge_block`, or, when that returns
    None, by the per-row reader too, so every error and line number is the
    per-row reader's.
    """
    magic = fh.readline().rstrip("\n")
    if magic != GRAPH_MAGIC:
        raise MalformedInputError(f"not a graph snapshot (magic {magic!r})")
    snap = _Snapshot()
    line_no = 1
    for line_no, raw in enumerate(fh, start=2):
        snap.read(line_no, raw)
        if snap.n_edges is not None:
            break
    rest = fh.read()
    edges = None if snap.edges or not rest else _edge_block(rest, snap.n_nodes)
    if edges is None:
        for line_no, raw in enumerate(io.StringIO(rest), start=line_no + 1):
            snap.read(line_no, raw)
    del rest  # not held while the graph is built
    return snap.graph(edges)
