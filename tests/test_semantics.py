"""tf-idf weighting, sparse random projection, and similarity features."""

import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clickgraph import semantics as S
from clickgraph.graph import build_graph
from clickgraph.errors import LineError, MalformedInputError

from helpers import random_graph


def toy_corpus():
    return S.build_corpus(
        [
            ("a", ["cat", "dog", "cat"]),
            ("b", ["dog", "bird"]),
            ("c", ["fish", "bird", "bird"]),
        ],
        [("a", ["pets"]), ("b", ["pets", "birds"]), ("c", ["birds"])],
    )


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal dtype and bit patterns: a last-ulp or sign-of-zero change fails."""
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(
        x.view(np.uint64), y.view(np.uint64))


def as_scipy(m: S.CSR) -> sp.csr_matrix:
    """The scipy matrix with ``m``'s arrays, entries in ``m``'s stored order."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def same_csr(got: S.CSR, want: sp.csr_matrix) -> bool:
    """Equal shape, equal index arrays and bit-equal data, in stored order."""
    return (got.shape == want.shape and np.array_equal(got.indptr, want.indptr)
            and np.array_equal(got.indices, want.indices) and same_bits(got.data, want.data))


class ReferenceCorpus(NamedTuple):
    names: tuple
    vocabulary: dict
    token_counts: tuple  # one {term: count} dict per article, terms in first-seen order
    doc_freq: np.ndarray

    @property
    def n_docs(self) -> int:
        return len(self.names)


def reference_build_corpus(token_docs) -> ReferenceCorpus:
    """The corpus as ``build_corpus`` held it before: one dict per article."""
    names, token_counts = [], []
    for name, tokens in token_docs:
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        names.append(name)
        token_counts.append(counts)
    vocabulary: dict[str, int] = {}
    df: list[int] = []
    for counts in token_counts:
        for term in counts:
            col = vocabulary.get(term)
            if col is None:
                vocabulary[term] = len(df)
                df.append(1)
            else:
                df[col] += 1
    return ReferenceCorpus(tuple(names), vocabulary, tuple(token_counts),
                           np.asarray(df, dtype=np.int64))


def reference_tfidf(corpus: ReferenceCorpus):
    """tf-idf by scipy, as ``tfidf`` computed it before: one weight per
    (document, term) in dict order, the row norms by scipy's row sum, the
    scaling by ``diags(scale) @ mat`` (which leaves each row in descending
    term order)."""
    n = corpus.n_docs
    idf = np.log(n / corpus.doc_freq)
    rows, cols, vals = [], [], []
    for i, counts in enumerate(corpus.token_counts):
        for term, tf in counts.items():
            col = corpus.vocabulary[term]
            w = (1.0 + np.log(tf)) * idf[col]
            if w != 0.0:
                rows.append(i)
                cols.append(col)
                vals.append(w)
    mat = sp.csr_matrix((np.asarray(vals, dtype=np.float64), (rows, cols)),
                        shape=(n, max(len(corpus.vocabulary), 1)))
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    scale = np.ones(n)
    scale[norms > 0] = 1.0 / norms[norms > 0]
    return sp.diags(scale) @ mat


def term_counts(corpus: S.DocumentCorpus, terms, i: int) -> list[tuple[str, int]]:
    """Article ``i``'s (term, count) pairs, in stored order; ``terms[j]`` is term id ``j``."""
    lo, hi = corpus.counts.indptr[i], corpus.counts.indptr[i + 1]
    return [(terms[j], c) for j, c in zip(corpus.counts.indices[lo:hi].tolist(),
                                          corpus.counts.data[lo:hi].tolist())]


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Single-pair cosine: the reference for ``edge_similarities``' text values."""
    nu = float(np.dot(u, u))
    nv = float(np.dot(v, v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / np.sqrt(nu * nv))


def _row(name_to_idx: dict, article) -> int:
    return name_to_idx[article] if isinstance(article, str) else int(article)


def text_similarity(matrix, corpus, a, b) -> float:
    """Cosine of the projected vectors, clamped to [0, 1]."""
    sim = cosine(matrix[_row(corpus.name_to_idx, a)], matrix[_row(corpus.name_to_idx, b)])
    return min(max(sim, 0.0), 1.0)


def topic_similarity(corpus, a, b) -> float:
    """Cosine of binary category indicators: |A & B| / sqrt(|A| |B|)."""
    ca = corpus.categories[_row(corpus.name_to_idx, a)]
    cb = corpus.categories[_row(corpus.name_to_idx, b)]
    if not ca or not cb:
        return 0.0
    return len(ca & cb) / np.sqrt(len(ca) * len(cb))


def reference_edge_similarities(g, matrix, corpus):
    """Per-edge oracle: ``text_similarity`` and ``topic_similarity`` per link."""
    text, topic, missing = np.zeros(g.n_edges), np.zeros(g.n_edges), 0
    with np.errstate(divide="ignore", invalid="ignore"):  # norms whose product underflows
        for e in range(g.n_edges):
            a, b = g.labels[g.edge_sources[e]], g.labels[g.out_indices[e]]
            if a not in corpus.name_to_idx or b not in corpus.name_to_idx:
                missing += 1
                continue
            text[e] = text_similarity(matrix, corpus, a, b)
            topic[e] = topic_similarity(corpus, a, b)
    return text, topic, missing


# Documents over a 6-term vocabulary (empty ones and terms in every document
# give zero vectors), categories with repeats and empty lists.
documents = st.lists(
    st.tuples(st.lists(st.sampled_from("abcdef"), max_size=8),
              st.lists(st.sampled_from("pqrs"), max_size=5)),
    min_size=1, max_size=12,
)


@st.composite
def corpus_and_graph(draw):
    """A corpus and a labelled graph whose extra nodes are not in the corpus."""
    docs = draw(documents)
    names = [f"d{i}" for i in range(len(docs))]
    corpus = S.build_corpus(
        [(name, [f"w{t}" for t in tokens]) for name, (tokens, _) in zip(names, docs)],
        [(name, cats) for name, (_, cats) in zip(names, docs)],
    )
    labels = names + [f"missing{i}" for i in range(draw(st.integers(0, 3)))]
    n = len(labels)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80))
    g = build_graph(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), n_nodes=n, labels=labels)
    return corpus, g


# Articles with repeated, empty and non-ASCII tokens, and empty articles.
corpus_docs = st.lists(
    st.tuples(st.text(min_size=1, max_size=3),
              st.lists(st.sampled_from(["a", "b", "a b", "\u00e9", "\u65e5\u672c", "t1", "T1", ""])
                       | st.text(max_size=2), max_size=10)),
    max_size=10, unique_by=lambda doc: doc[0],
)


class TestBuildCorpus:
    @settings(max_examples=200, deadline=None)
    @given(docs=corpus_docs)
    def test_equal_to_the_dict_reference(self, docs):
        corpus, want = S.build_corpus(docs), reference_build_corpus(docs)
        assert list(corpus.name_to_idx.items()) == [(name, i) for i, name in enumerate(want.names)]
        assert corpus.doc_freq.dtype == np.int64 and np.array_equal(corpus.doc_freq, want.doc_freq)
        assert corpus.counts.shape == (len(docs), len(want.vocabulary))
        assert all(a.dtype == np.int64 for a in corpus.counts[:3])
        assert corpus.n_docs == len(docs)
        # Term ids in first-seen order, as the reference gives them.
        assert [term_counts(corpus, list(want.vocabulary), i) for i in range(len(docs))] == [
            list(counts.items()) for counts in want.token_counts]
        if docs:
            assert same_csr(S.tfidf(corpus), reference_tfidf(want))

    def test_lines_skip_blank_lines_empty_names_and_empty_tokens(self):
        corpus = S.corpus_from_lines(["a\tx\ty\n", "\n", "\tz\n", "b\tx\tx\t\ty\n"],
                                     ["# note\tc\n", "a\tc1\n", "\n"])
        assert corpus.name_to_idx == {"a": 0, "b": 1}
        assert [term_counts(corpus, "xy", i) for i in range(2)] == [[("x", 1), ("y", 1)],
                                                                    [("x", 2), ("y", 1)]]
        assert corpus.categories == (frozenset({"c1"}), frozenset())

    def test_category_rows_for_unknown_articles_are_dropped_and_counted(self):
        corpus = S.build_corpus([("a", ["x"]), ("b", ["y"])],
                                [("zz", ["c1"]), ("a", ["c2"]), ("zz", ["c3"]), ("q", [])])
        assert corpus.categories == (frozenset({"c2"}), frozenset())
        assert corpus.unmatched_category_rows == 3
        assert S.build_corpus([("a", ["x"])]).unmatched_category_rows == 0

    def test_second_category_row_for_an_article_is_refused(self):
        # The later row once replaced the earlier one without a word.
        with pytest.raises(MalformedInputError, match="^duplicate article 'a' in categories$"):
            S.corpus_from_lines(["a\tx\ty\n", "b\tx\n"], ["a\tc1\n", "a\tc2\n", "b\tc1\n"])
        corpus = S.corpus_from_lines(["a\tx\n"], ["zz\tc1\n", "zz\tc2\n", "a\t\n"])
        assert corpus.categories == (frozenset(),) and corpus.unmatched_category_rows == 2

    @pytest.mark.parametrize("lines, line_no, name", [
        (["# generated corpus v1\n", "a\tx\n"], 1, "# generated corpus v1"),
        (["a\tx\n", "\n", "#b\tx\ty\n"], 3, "#b"),
    ], ids=["header_line", "name"])
    def test_name_starting_with_hash_is_refused(self, lines, line_no, name):
        # Read as a document, such a line moved every idf and joined the vocabulary.
        with pytest.raises(LineError) as exc:
            S.corpus_from_lines(lines)
        assert str(exc.value) == f"line {line_no}: article name {name!r} starts with '#'"


class TestTfidf:
    def test_term_in_every_document_gets_zero_weight(self):
        corpus = S.build_corpus([("a", ["common", "x"]), ("b", ["common", "y"])])
        V = as_scipy(S.tfidf(corpus))
        assert V[:, 0].toarray().max() == 0.0  # term ids in first-seen order: "common" is 0

    def test_single_document_corpus_is_zero_vector(self):
        corpus = S.build_corpus([("only", ["w1", "w2", "w1"])])
        V = S.tfidf(corpus)
        assert len(V.data) == len(V.indices) == 0 and V.indptr.tolist() == [0, 0]

    def test_three_doc_corpus_matches_formula_oracle(self):
        corpus = toy_corpus()
        V = as_scipy(S.tfidf(corpus))
        # doc a: cat tf=2 df=1, dog tf=1 df=2
        w_cat = (1 + math.log(2)) * math.log(3 / 1)
        w_dog = (1 + math.log(1)) * math.log(3 / 2)
        norm = math.hypot(w_cat, w_dog)
        row = V[0].toarray().ravel()  # term ids in first-seen order: cat 0, dog 1
        assert row[0] == pytest.approx(w_cat / norm, abs=1e-12)
        assert row[1] == pytest.approx(w_dog / norm, abs=1e-12)

    def test_rows_l2_normalized(self):
        corpus = toy_corpus()
        V = as_scipy(S.tfidf(corpus))
        norms = np.sqrt(np.asarray(V.multiply(V).sum(axis=1)).ravel())
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(MalformedInputError):
            S.tfidf(S.build_corpus([]))

    @settings(max_examples=150, deadline=None)
    @given(docs=documents)
    def test_bit_equal_to_per_term_reference(self, docs):
        docs = [(f"d{i}", [f"w{t}" for t in tokens]) for i, (tokens, _) in enumerate(docs)]
        assert same_csr(S.tfidf(S.build_corpus(docs)), reference_tfidf(reference_build_corpus(docs)))


def reference_projection_matrix(n_features, dim, seed):
    """The former kernel: each chunk filled as a dense block, converted and stacked."""
    density = 1.0 / np.sqrt(max(n_features, 1))
    s = np.sqrt(1.0 / (density * dim))
    rng = np.random.default_rng(seed)
    blocks = []
    for start in range(0, n_features, S._PROJECTION_CHUNK):
        rows = min(S._PROJECTION_CHUNK, n_features - start)
        u = rng.random((rows, dim))
        signs = rng.random((rows, dim)) < 0.5
        block = np.zeros((rows, dim))
        nz = u < density
        block[nz] = np.where(signs[nz], s, -s)
        blocks.append(sp.csr_matrix(block))
    if not blocks:
        return sp.csr_matrix((0, dim))
    return sp.vstack(blocks, format="csr")


def spread_docs(n_terms: int, n_docs: int, seed: int) -> list[tuple[str, list[str]]]:
    """Exactly ``n_terms`` terms over ``n_docs`` documents, some of them empty.

    Each term lands in a random number of the non-empty documents, with
    repeats (tf > 1); a term in every document gets weight 0.  The tokens of
    a document are shuffled, so its terms reach the vocabulary out of order.
    """
    rng = np.random.default_rng(seed)
    live = rng.choice(n_docs, size=rng.integers(1, n_docs + 1), replace=False)
    tokens: list[list[str]] = [[] for _ in range(n_docs)]
    for term in range(n_terms):
        for doc in rng.choice(live, size=rng.integers(1, 2 * len(live) + 1)):
            tokens[doc].append(f"t{term}")
    for doc in tokens:
        rng.shuffle(doc)
    return [(f"d{i}", doc) for i, doc in enumerate(tokens)]


class TestProjection:
    def test_zero_vector_projects_to_zero(self):
        R = as_scipy(S.projection_matrix(100, 32, seed=0))
        z = sp.csr_matrix((1, 100))
        assert np.abs(np.asarray((z @ R).todense())).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        R = as_scipy(S.projection_matrix(300, 64, seed=1))
        u = sp.csr_matrix(rng.random(300))
        v = sp.csr_matrix(rng.random(300))
        left = np.asarray(((u + v) @ R).todense())
        right = np.asarray((u @ R).todense()) + np.asarray((v @ R).todense())
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_equal_seed_gives_bitwise_equal_vectors(self):
        corpus = toy_corpus()
        V = S.tfidf(corpus)
        p1 = S.project(V, corpus, dim=64, seed=9)
        p2 = S.project(V, corpus, dim=64, seed=9)
        assert np.array_equal(p1, p2)

    def test_different_seed_changes_vectors(self):
        corpus = toy_corpus()
        V = S.tfidf(corpus)
        p1 = S.project(V, corpus, dim=64, seed=9)
        p2 = S.project(V, corpus, dim=64, seed=10)
        assert not np.array_equal(p1, p2)

    @pytest.mark.parametrize("dim", [1, 512])
    @pytest.mark.parametrize("n_features", [0, 1, 1023, 1024, 1025, 5000])
    def test_csr_arrays_equal_to_the_dense_block_reference(self, n_features, dim):
        got = S.projection_matrix(n_features, dim, seed=11)
        assert got.shape == (n_features, dim)
        assert same_csr(got, reference_projection_matrix(n_features, dim, seed=11))

    @pytest.mark.parametrize("dim", [1, 64, 512])
    def test_projected_vectors_equal_to_the_dense_block_reference(self, dim):
        # 2,189 terms: the projection spans three chunks
        rng = np.random.default_rng(4)
        corpus = S.build_corpus(
            (f"d{i}", [f"w{t}" for t in rng.integers(0, 4000, 40)]) for i in range(80)
        )
        V = S.tfidf(corpus)
        assert V.shape[1] > S._PROJECTION_CHUNK
        want = np.asarray((as_scipy(V) @ reference_projection_matrix(V.shape[1], dim, 2)).todense())
        assert same_bits(S.project(V, corpus, dim=dim, seed=2), want)

    @settings(max_examples=60, deadline=None)
    @given(spec=st.tuples(st.sampled_from([1, 2, 7, 1023, 1024, 1025]), st.integers(1, 12),
                          st.integers(0, 2**32 - 1)),
           dim=st.sampled_from([1, 64, 512]), seed=st.integers(0, 3),
           block=st.sampled_from([1, 3, 256]))
    @example(spec=(1025, 1, 0), dim=512, seed=0, block=256)  # one document: every weight is 0
    @example(spec=(1023, 12, 1), dim=1, seed=0, block=3)
    @example(spec=(1024, 6, 2), dim=64, seed=1, block=1)
    def test_tfidf_and_projection_bit_equal_to_scipy(self, spec, dim, seed, block):
        docs = spread_docs(*spec)
        corpus = S.build_corpus(docs)
        assert corpus.counts.shape[1] == spec[0]
        V, want = S.tfidf(corpus), reference_tfidf(reference_build_corpus(docs))
        assert same_csr(V, want)
        product = np.asarray((want @ reference_projection_matrix(want.shape[1], dim, seed)).todense())
        with mock.patch.object(S, "_PROJECT_BLOCK", block):
            assert same_bits(S.project(V, corpus, dim=dim, seed=seed), product)

    def test_cosine_preserved_within_band_at_512(self):
        # exact-space cosine oracle on 100 random pairs
        rng = np.random.default_rng(3)
        D = 2000
        X = sp.random(200, D, density=0.05, random_state=7, format="csr")
        R = as_scipy(S.projection_matrix(D, 512, seed=5))
        P = np.asarray((X @ R).todense())
        Xd = np.asarray(X.todense())
        errors = []
        for i, j in rng.integers(0, 200, size=(100, 2)):
            exact = cosine(Xd[i], Xd[j])
            proj = cosine(P[i], P[j])
            errors.append(abs(exact - proj))
        within = np.mean(np.asarray(errors) <= 0.15)
        assert within >= 0.95


class TestTextSimilarity:
    def test_identical_documents(self):
        corpus = S.build_corpus(
            [("a", ["x", "y"]), ("b", ["x", "y"]), ("c", ["z", "w"])]
        )
        proj = S.project(S.tfidf(corpus), corpus, dim=64, seed=1)
        assert text_similarity(proj, corpus, "a", "b") == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_vocabularies_zero_in_exact_space(self):
        corpus = S.build_corpus(
            [("a", ["x", "y"]), ("b", ["z", "w"]), ("c", ["q", "r"])]
        )
        V = as_scipy(S.tfidf(corpus))
        assert cosine(V[0].toarray().ravel(), V[1].toarray().ravel()) == 0.0

    def test_projected_matches_exact_space_within_band(self):
        rng = np.random.default_rng(12)
        vocab = [f"w{k}" for k in range(400)]
        docs = [(f"d{i}", list(rng.choice(vocab, size=30))) for i in range(40)]
        corpus = S.build_corpus(docs)
        V = S.tfidf(corpus)
        proj = S.project(V, corpus, dim=512, seed=2)
        Vd = np.asarray(as_scipy(V).todense())
        for i, j in rng.integers(0, 40, size=(25, 2)):
            exact = max(0.0, cosine(Vd[i], Vd[j]))
            approx = text_similarity(proj, corpus, int(i), int(j))
            assert abs(exact - approx) <= 0.15

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(2)
        vocab = [f"w{k}" for k in range(50)]
        docs = [(f"d{i}", list(rng.choice(vocab, size=8))) for i in range(30)]
        corpus = S.build_corpus(docs)
        proj = S.project(S.tfidf(corpus), corpus, dim=16, seed=0)
        sims = [text_similarity(proj, corpus, i, j) for i in range(30) for j in range(30)]
        assert min(sims) >= 0.0 and max(sims) <= 1.0

    def test_symmetry(self):
        corpus = toy_corpus()
        proj = S.project(S.tfidf(corpus), corpus, dim=32, seed=0)
        assert text_similarity(proj, corpus, "a", "b") == text_similarity(proj, corpus, "b", "a")


class TestTopicSimilarity:
    def test_identical_nonempty_sets(self):
        corpus = toy_corpus()
        assert topic_similarity(corpus, "a", "a") == 1.0

    def test_disjoint_sets(self):
        corpus = S.build_corpus(
            [("a", ["t"]), ("b", ["t"])],
            [("a", ["c1"]), ("b", ["c2"])],
        )
        assert topic_similarity(corpus, "a", "b") == 0.0

    def test_overlap_formula(self):
        corpus = S.build_corpus(
            [("a", ["t"]), ("b", ["t"])],
            [("a", ["x", "y"]), ("b", ["y", "z"])],
        )
        assert topic_similarity(corpus, "a", "b") == pytest.approx(0.5, abs=1e-12)

    def test_empty_set_gives_zero(self):
        corpus = S.build_corpus([("a", ["t"]), ("b", ["t"])], [("a", ["c"])])
        assert topic_similarity(corpus, "a", "b") == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        ca=st.sets(st.sampled_from("abcdefgh"), max_size=6),
        cb=st.sets(st.sampled_from("abcdefgh"), max_size=6),
    )
    def test_symmetry_and_self_similarity(self, ca, cb):
        corpus = S.build_corpus(
            [("a", ["t"]), ("b", ["t"])],
            [("a", sorted(ca)), ("b", sorted(cb))],
        )
        assert topic_similarity(corpus, "a", "b") == topic_similarity(corpus, "b", "a")
        if ca:
            assert topic_similarity(corpus, "a", "a") == pytest.approx(1.0)


class TestEdgeSimilarities:
    @settings(max_examples=150, deadline=None)
    @given(data=corpus_and_graph(), dim=st.sampled_from([1, 16, 512]),
           block=st.sampled_from([1, 3, 256]))
    def test_bit_equal_to_per_edge_reference(self, data, dim, block):
        corpus, g = data
        proj = S.project(S.tfidf(corpus), corpus, dim=dim, seed=0)
        with mock.patch.object(S, "_EDGE_BLOCK", block):
            got = S.edge_similarities(g, proj, corpus)
        want = reference_edge_similarities(g, proj, corpus)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert got[2] == want[2]

    @settings(max_examples=150, deadline=None)
    @given(data=corpus_and_graph(), dim=st.sampled_from([1, 16]), block=st.sampled_from([1, 3]),
           values=st.data())
    def test_arbitrary_vectors_bit_equal_to_per_edge_reference(self, data, dim, block, values):
        # Signed, repeated, tiny and zero vectors: negative cosines, -0.0,
        # cosines just above 1 and norms that underflow all reach the clamp.
        corpus, g = data
        elements = st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 0.1, 1 / 3, 1e10,
                                    1e-100, -1e-170, 5e-324, -5e-324])
        proj = values.draw(hnp.arrays(np.float64, (corpus.n_docs, dim), elements=elements))
        with mock.patch.object(S, "_EDGE_BLOCK", block):
            got = S.edge_similarities(g, proj, corpus)
        want = reference_edge_similarities(g, proj, corpus)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert got[2] == want[2]

    def test_clamp_and_underflow_edge_cases(self):
        vectors = {
            "neg_zero": ([1.0, 0.0], [-5e-324, 1e10]),  # cosine underflows to -0.0, kept
            "tiny": ([1e-100, 0.0], [1e-100, 0.0]),  # |u|^2 |v|^2 underflows: 1e-200 / 0 -> 1.0
            "zero": ([0.0, 0.0], [1.0, 2.0]),
            "opposite": ([1.0, 1.0], [-1.0, -1.0]),
            "same": ([1 / 3, 0.1], [1 / 3, 0.1]),
        }
        names = [f"{case}_{end}" for case in vectors for end in "uv"]
        corpus = S.build_corpus([(name, ["t"]) for name in names])
        proj = np.asarray([vec for pair in vectors.values() for vec in pair])
        g = build_graph([(2 * i, 2 * i + 1) for i in range(len(vectors))], labels=names)
        text, _, _ = S.edge_similarities(g, proj, corpus)
        want, _, _ = reference_edge_similarities(g, proj, corpus)
        assert same_bits(text, want)
        assert [str(x) for x in text] == ["-0.0", "1.0", "0.0", "0.0", "1.0"]

    def test_default_block_on_a_graph_larger_than_one_block(self):
        # 1,036 edges: four full blocks of 256 and a partial one.
        g = random_graph(60, 0.3, seed=4, labels=True)
        assert g.n_edges % S._EDGE_BLOCK != 0 and g.n_edges > 2 * S._EDGE_BLOCK
        rng = np.random.default_rng(8)
        vocab = [f"w{k}" for k in range(300)]
        corpus = S.build_corpus(
            [(f"a{i}", list(rng.choice(vocab, size=25))) for i in range(55)],
            [(f"a{i}", list(rng.choice(["c1", "c2", "c3", "c4", "c5"], size=3))) for i in range(55)],
        )
        proj = S.project(S.tfidf(corpus), corpus, dim=512, seed=3)
        got = S.edge_similarities(g, proj, corpus)
        want = reference_edge_similarities(g, proj, corpus)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert got[2] == want[2] > 0

    def test_missing_articles_tallied(self):
        g = random_graph(6, 0.5, seed=1, labels=True)
        corpus = S.build_corpus([("a0", ["x", "y"]), ("a1", ["x", "z"])])
        proj = S.project(S.tfidf(corpus), corpus, dim=16, seed=0)
        text, topic, missing = S.edge_similarities(g, proj, corpus)
        assert len(text) == g.n_edges
        covered = int(np.sum((g.edge_sources <= 1) & (g.out_indices <= 1)))
        assert missing == g.n_edges - covered
