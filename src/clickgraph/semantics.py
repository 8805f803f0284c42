"""Semantic similarity features.

Articles become sublinear tf-idf vectors, a seeded sparse sign projection
compresses them to a fixed dimension, and text similarity is the cosine of
projected vectors.  Topic similarity is the overlap of two articles' category
sets, |A & B| / sqrt(|A| |B|): the cosine of their binary category indicators.

The sparse matrices are plain numpy arrays in compressed sparse row form
(:class:`CSR`), so this module needs no scipy.  ``tfidf`` stores each row's
terms in descending term order, and ``project`` adds each projected cell's
contributions in stored order, starting from +0.0.  That is the order scipy
left them in and added them in (``diags(scale) @ mat`` prepends each new
column, and ``V @ R`` then walks V's rows in stored order), so the projected
vectors, and every similarity and output byte after them, are bit-equal to
the scipy products ``tests/test_semantics.py`` keeps as its references.

``edge_similarities`` computes every link's text similarity in fixed-size
blocks of edges, with one BLAS dot per pair, and its topic overlap from one
set intersection per link.  It makes the same IEEE operations as the
single-pair cosine and category overlap that ``tests/test_semantics.py``
keeps as its reference, so its values are bit-equal to theirs.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterable, NamedTuple

import numpy as np

from .errors import LineError, MalformedInputError

DEFAULT_DIM = 512
_PROJECTION_CHUNK = 1024  # rows of the projection matrix drawn per rng call
_PROJECT_BLOCK = 256  # documents per block in project (about 64k products at dim 512)
_EDGE_BLOCK = 256  # edges per gather in edge_similarities (2 x 1 MB at dim 512)


class CSR(NamedTuple):
    """A sparse matrix by rows: row ``i`` holds ``data[indptr[i]:indptr[i + 1]]``
    in the columns ``indices[indptr[i]:indptr[i + 1]]``, in that stored order."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


@dataclass(frozen=True, eq=False)
class DocumentCorpus:
    """Token counts and category sets per article, plus document frequencies.

    Article ``i`` is the one ``name_to_idx`` maps to ``i``.  ``counts`` holds
    its terms as term ids in
    ``counts.indices[counts.indptr[i]:counts.indptr[i + 1]]``, in the order
    the article first used them, with their counts in ``counts.data``; its
    shape is (articles, terms).  ``unmatched_category_rows`` counts the
    category rows dropped because they name no article of the corpus.
    """

    name_to_idx: dict[str, int]
    counts: CSR
    categories: tuple[frozenset[str], ...]
    doc_freq: np.ndarray
    unmatched_category_rows: int

    @property
    def n_docs(self) -> int:
        return self.counts.shape[0]


def build_corpus(
    token_docs: Iterable[tuple[str, Iterable[str]]],
    category_docs: Iterable[tuple[str, Iterable[str]]] | None = None,
) -> DocumentCorpus:
    """Assemble a corpus from (name, tokens) pairs and optional categories.

    A category row naming no article of ``token_docs`` is dropped and counted;
    a second category row for one article is refused, as a second token row is.

    Articles and term ids are numbered in first-seen order.  Each article's
    term ids and counts go straight into int64 buffers, so the corpus holds no
    per-article Python objects.
    """
    name_to_idx: dict[str, int] = {}
    vocabulary: defaultdict[str, int] = defaultdict(count().__next__)  # a new term gets the next id
    indptr, indices, data = array("q", [0]), array("q"), array("q")
    for name, tokens in token_docs:
        if name in name_to_idx:
            raise MalformedInputError(f"duplicate article {name!r} in corpus")
        name_to_idx[name] = len(name_to_idx)
        counts = Counter(tokens)
        size = len(counts)
        # Through np.fromiter: array.extend converts item by item, several times slower.
        indices.frombytes(np.fromiter(map(vocabulary.__getitem__, counts), np.int64, size).tobytes())
        data.frombytes(np.fromiter(counts.values(), np.int64, size).tobytes())
        indptr.append(len(indices))

    n_docs = len(name_to_idx)
    cats: list[frozenset[str] | None] = [None] * n_docs  # None: no categories row yet
    unmatched = 0
    for name, labels in category_docs or ():
        idx = name_to_idx.get(name)
        if idx is None:
            unmatched += 1
        elif cats[idx] is not None:
            raise MalformedInputError(f"duplicate article {name!r} in categories")
        else:
            cats[idx] = frozenset(labels)

    n_terms = len(vocabulary)
    ids = np.frombuffer(indices, dtype=np.int64)
    return DocumentCorpus(
        name_to_idx=name_to_idx,
        counts=CSR(np.frombuffer(indptr, dtype=np.int64), ids, np.frombuffer(data, dtype=np.int64),
                   (n_docs, n_terms)),
        categories=tuple(c or frozenset() for c in cats),
        doc_freq=np.bincount(ids, minlength=n_terms),
        unmatched_category_rows=unmatched,
    )


def corpus_from_lines(
    token_lines: Iterable[str],
    category_lines: Iterable[str] | None = None,
) -> DocumentCorpus:
    """Read ``name<TAB>token<TAB>token...`` and category files.

    Blank lines and lines with an empty name are skipped.  An article name in
    the token file that starts with ``#`` raises :class:`LineError`, as in
    :func:`ingest.parse_edge_list`: every artifact written later reads such a
    line as a comment.
    """

    def parse(lines, refuse_comments):
        for line_no, raw in enumerate(lines, start=1):
            fields = raw.rstrip("\n").split("\t")
            name = fields[0]
            if not name:
                continue
            if refuse_comments and name.startswith("#"):
                raise LineError(line_no, f"article name {name!r} starts with '#'")
            yield name, filter(None, islice(fields, 1, None))

    cats = parse(category_lines, False) if category_lines is not None else None
    return build_corpus(parse(token_lines, True), cats)


def tfidf(corpus: DocumentCorpus) -> CSR:
    """Sublinear tf-idf: weight = (1 + ln tf) * ln(N / df), rows L2-normalized.

    Terms present in every document get weight 0 and are not stored; an
    all-zero row (e.g. a single-document corpus) stays zero rather than being
    normalized.  Each row stores its terms in descending term order.
    """
    if corpus.n_docs == 0:
        raise MalformedInputError("empty corpus")
    n = corpus.n_docs
    n_terms = max(corpus.counts.shape[1], 1)
    idf = np.log(n / corpus.doc_freq)
    counts = corpus.counts
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(counts.indptr))
    cols = counts.indices
    w = (1.0 + np.log(counts.data)) * idf[cols]
    keep = w != 0.0
    rows, cols, w = rows[keep], cols[keep], w[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    # The squares in ascending term order within each row, summed per row by
    # one reduceat: the call scipy's row sum makes.  (The keys are unique, so
    # any sort gives this order.)
    up = np.argsort(rows * n_terms + cols)
    filled = np.flatnonzero(np.diff(indptr))
    norms = np.zeros(n)
    if len(filled):
        norms[filled] = np.add.reduceat(w[up] * w[up], indptr[filled])
    norms = np.sqrt(norms)
    scale = np.ones(n)
    nz = norms > 0
    scale[nz] = 1.0 / norms[nz]
    # Each row reversed: entry p of row r moves to indptr[r] + indptr[r + 1] - 1 - p.
    down = up[np.repeat(indptr[:-1] + indptr[1:] - 1, np.diff(indptr)) - np.arange(len(up))]
    return CSR(indptr, cols[down], scale[rows[down]] * w[down], (n, n_terms))


def projection_matrix(n_features: int, dim: int, seed: int) -> CSR:
    """Sparse sign matrix with density 1/sqrt(n_features).

    Nonzero entries are +-s with s = sqrt(1 / (density * dim)), which keeps
    squared norms (hence pairwise distances) preserved in expectation.  The
    matrix is generated in fixed-size row chunks so equal seeds give bitwise
    equal results regardless of platform.

    Each chunk draws its uniforms and its sign uniforms as two ``(rows, dim)``
    blocks, and only the positions where the first falls below the density
    are kept, in row-major order: the CSR is built straight from those
    positions, with no dense block to fill and scan.  Its ``indptr``,
    ``indices`` and ``data`` are those of the dense blocks converted and
    stacked, which ``tests/test_semantics.py`` keeps as its reference.
    """
    if dim < 1:
        raise ValueError("projection dimension must be >= 1")
    density = 1.0 / np.sqrt(max(n_features, 1))
    s = np.sqrt(1.0 / (density * dim))
    rng = np.random.default_rng(seed)
    kept, signs = [], []  # per chunk: row-major positions in the whole matrix, sign uniforms
    for start in range(0, n_features, _PROJECTION_CHUNK):
        rows = min(_PROJECTION_CHUNK, n_features - start)
        u = rng.random((rows, dim))
        sign_u = rng.random((rows, dim))
        nz = np.flatnonzero(u < density)
        kept.append(nz + start * dim)
        signs.append(sign_u.reshape(-1)[nz])
    if not kept:
        return CSR(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), (0, dim))
    pos = np.concatenate(kept)
    data = np.where(np.concatenate(signs) < 0.5, s, -s)
    indptr = np.searchsorted(pos, np.arange(n_features + 1) * dim)
    return CSR(indptr, pos % dim, data, (n_features, dim))


def project(vectors: CSR, corpus: DocumentCorpus, dim: int = DEFAULT_DIM, seed: int = 0) -> np.ndarray:
    """Project tf-idf vectors down to ``dim`` with a seeded sparse sign matrix:
    the dense ``(n_docs, dim)`` matrix, row ``i`` for ``corpus``'s article ``i``.

    ``corpus`` is not read; it stays in the signature for the callers that
    pass it (``perfbench/session.py`` among them).

    Each stored weight multiplies each entry of its term's projection row, and
    each cell of the dense result adds its products in the weights' stored
    order (descending terms, for ``tfidf``'s rows), from +0.0, one at a time:
    ``np.bincount`` adds its weights in input order.  Documents go in blocks
    of ``_PROJECT_BLOCK``, which bounds the products held at once.
    """
    rmat = projection_matrix(vectors.shape[1], dim, seed)
    n = vectors.shape[0]
    dense = np.empty((n, dim))
    for lo in range(0, n, _PROJECT_BLOCK):
        hi = min(lo + _PROJECT_BLOCK, n)
        first, last = vectors.indptr[lo], vectors.indptr[hi]
        terms = vectors.indices[first:last]
        per = np.diff(rmat.indptr)[terms]  # projection entries per stored weight
        at = np.repeat(rmat.indptr[terms] - (np.cumsum(per) - per), per) + np.arange(per.sum())
        doc = np.repeat(np.repeat(np.arange(hi - lo), np.diff(vectors.indptr[lo:hi + 1])), per)
        products = np.repeat(vectors.data[first:last], per) * rmat.data[at]
        # Assigned into floats: with no products at all, bincount returns integer zeros.
        dense[lo:hi] = np.bincount(doc * dim + rmat.indices[at], weights=products,
                                   minlength=(hi - lo) * dim).reshape(hi - lo, dim)
    return dense


def edge_similarities(
    g,
    matrix: np.ndarray,
    corpus: DocumentCorpus,
) -> tuple[np.ndarray, np.ndarray, int]:
    """text_sim and topic_sim per graph edge, by article name.

    ``matrix`` holds the projected vectors that :func:`project` returns, row
    ``corpus.name_to_idx[name]`` for article ``name``.  Edges whose endpoints
    are missing from the corpus get similarity 0; the count of such edges is
    returned alongside.
    """
    labels = g.labels if g.labels is not None else tuple(g.name_to_id())  # () or refused
    lookup = corpus.name_to_idx.get
    doc_idx = np.fromiter((lookup(name, -1) for name in labels), dtype=np.int64, count=g.n_nodes)
    ia, ib = doc_idx[g.edge_sources], doc_idx[g.out_indices]
    found = np.flatnonzero((ia >= 0) & (ib >= 0))
    ia, ib = ia[found], ib[found]

    # Topics: |A & B| straight from the two articles' category sets.
    cats = corpus.categories
    sizes = np.fromiter(map(len, cats), dtype=np.int64, count=corpus.n_docs)
    inter = [len(cats[a] & cats[b]) for a, b in zip(ia.tolist(), ib.tolist())]

    # Text: matmul of stacked vectors calls BLAS ddot per pair, the same dot
    # as np.dot on the two vectors; edges are gathered in blocks to bound the
    # temporaries.
    sq = np.matmul(matrix[:, None, :], matrix[:, :, None]).ravel()
    uv = np.empty(len(found))
    for lo in range(0, len(found), _EDGE_BLOCK):
        block = slice(lo, lo + _EDGE_BLOCK)
        uv[block] = np.matmul(matrix[ia[block], None, :], matrix[ib[block], :, None]).ravel()

    nu, nv = sq[ia], sq[ib]
    la, lb = sizes[ia], sizes[ib]
    cos, overlap = np.zeros(len(found)), np.zeros(len(found))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(uv, np.sqrt(nu * nv), out=cos, where=(nu != 0.0) & (nv != 0.0))
    np.divide(inter, np.sqrt(la * lb), out=overlap, where=(la > 0) & (lb > 0))
    # As min(max(c, 0.0), 1.0): only values below 0 or above 1 move (-0.0 and nan stay).
    cos[cos < 0.0] = 0.0
    cos[cos > 1.0] = 1.0

    text, topic = np.zeros(g.n_edges), np.zeros(g.n_edges)
    text[found], topic[found] = cos, overlap
    return text, topic, g.n_edges - len(found)
