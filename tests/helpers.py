"""Shared synthetic-data builders and independent oracles for the test suite.

Oracles here deliberately avoid the library's own code paths: evidence is
checked against a sequential predictive product, PageRank against dense
linear solves, Gini against the all-pairs sum, and so on.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import strategies as st
from scipy.special import zeta

import clickgraph
from clickgraph import graph as graphmod
from clickgraph.ingest import TransitionLog


#: Article names every artifact carries losslessly: non-empty, no tab or line
#: break, not read as a comment; any other Unicode (surrogates are not text).
LEGAL_NAMES = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
                      min_size=1).filter(lambda name: not name.startswith("#"))


def fresh_env() -> dict[str, str]:
    """The environment under which a fresh interpreter imports this checkout's clickgraph."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(clickgraph.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this checkout's clickgraph."""
    done = subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout


def write_graph(g: graphmod.LinkGraph, path, header_lines=()) -> None:
    """Write ``save_graph``'s lines for ``g`` to ``path``, as ``clickgraph build`` writes them."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(graphmod.save_graph(g, header_lines))


def read_graph(path) -> graphmod.LinkGraph:
    """The graph ``load_graph`` reads from the snapshot at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return graphmod.load_graph(fh)


def random_graph(n: int, p: float, seed: int, labels: bool = False) -> graphmod.LinkGraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, trg = np.nonzero(mask)
    names = [f"a{i}" for i in range(n)] if labels else None
    return graphmod.build_graph(np.stack([src, trg], axis=1), n_nodes=n, labels=names)


def out_neighbors(g: graphmod.LinkGraph, i: int) -> np.ndarray:
    """Node ``i``'s out-neighbours, ascending: its slice of ``g.out_indices``."""
    return g.out_indices[g.out_indptr[i]:g.out_indptr[i + 1]]


def planted_core_graph(seed: int, n: int = 500, core: int = 60) -> graphmod.LinkGraph:
    """Dense core plus sparse periphery: a wide spread of core numbers."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(core):
        for j in range(core):
            if i != j and rng.random() < 0.5:
                edges.append((i, j))
    for i in range(core, n):
        for j in rng.choice(core, size=2, replace=False):
            edges.append((i, int(j)))
        j = int(rng.integers(core, n))
        if j != i:
            edges.append((i, j))
    for i in range(core):
        for j in rng.choice(np.arange(core, n), size=6, replace=False):
            edges.append((i, int(j)))
    return graphmod.build_graph(edges, n_nodes=n)


def multinomial_log(
    g: graphmod.LinkGraph,
    edge_weights: np.ndarray,
    trips_per_source: int = 1000,
    seed: int = 0,
) -> TransitionLog:
    """Transitions sampled per source from a multinomial over its out-links."""
    rng = np.random.default_rng(seed)
    src_all: list[int] = []
    trg_all: list[int] = []
    cnt_all: list[int] = []
    indptr, indices = g.out_indptr, g.out_indices
    for i in range(g.n_nodes):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo:
            continue
        w = edge_weights[lo:hi]
        counts = rng.multinomial(trips_per_source, w / w.sum())
        nz = counts > 0
        src_all.extend([i] * int(nz.sum()))
        trg_all.extend(int(t) for t in indices[lo:hi][nz])
        cnt_all.extend(int(c) for c in counts[nz])
    return TransitionLog.from_pairs(src_all, trg_all, cnt_all, threshold=1, graph=g)


def polya_evidence_oracle(alpha_rows: list[np.ndarray], count_rows: list[np.ndarray]) -> float:
    """Log evidence as a sequential predictive product (chain rule).

    Observations are revealed one at a time; each contributes
    (alpha_j + seen_j) / (A + seen_total).  Independent of the gamma-function
    expression used by the implementation.
    """
    total = 0.0
    for alpha, counts in zip(alpha_rows, count_rows):
        a = np.asarray(alpha, dtype=np.float64)
        big_a = float(a.sum())
        seen = np.zeros_like(a)
        seen_total = 0
        for j, c in enumerate(counts):
            for _ in range(int(c)):
                total += math.log((a[j] + seen[j]) / (big_a + seen_total))
                seen[j] += 1
                seen_total += 1
    return total


def dense_pagerank_oracle(
    g: graphmod.LinkGraph,
    alpha: float,
    edge_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Direct linear solve of the damped fixed point on a dense kernel.

    Rows without out-mass (dangling, or all-zero weights) spread uniformly.
    """
    n = g.n_nodes
    P = np.zeros((n, n))
    indptr, indices = g.out_indptr, g.out_indices
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        w = np.ones(hi - lo) if edge_weights is None else np.asarray(edge_weights[lo:hi], dtype=float)
        z = w.sum()
        if z > 0:
            for k in range(lo, hi):
                P[i, indices[k]] = w[k - lo] / z
        else:
            P[i, :] = 1.0 / n
    return np.linalg.solve(np.eye(n) - alpha * P.T, (1.0 - alpha) / n * np.ones(n))


def kcore_oracle(g: graphmod.LinkGraph) -> np.ndarray:
    """Core numbers by literal repeated deletion, per k, on the undirected projection."""
    n = g.n_nodes
    und: set[tuple[int, int]] = set()
    for i in range(n):
        for j in out_neighbors(g, i):
            j = int(j)
            if i != j:
                und.add((min(i, j), max(i, j)))
    core = np.zeros(n, dtype=np.int64)
    k = 1
    while True:
        alive = set(range(n))
        while True:
            deg = dict.fromkeys(alive, 0)
            for a, b in und:
                if a in alive and b in alive:
                    deg[a] += 1
                    deg[b] += 1
            drop = [v for v in alive if deg[v] < k]
            if not drop:
                break
            alive -= set(drop)
        if not alive:
            return core
        for v in alive:
            core[v] = k
        k += 1


def discrete_power_law_sample(alpha: float, n: int, seed: int, xmin: int = 1) -> np.ndarray:
    """Exact inverse-CDF draws from p(x) = x^-alpha / zeta(alpha, xmin)."""
    rng = np.random.default_rng(seed)
    cap = 10 ** 6
    xs = np.arange(xmin, cap + 1, dtype=np.float64)
    pmf = xs ** (-alpha) / zeta(alpha, xmin)
    cdf = np.cumsum(pmf)
    u = rng.random(n) * cdf[-1]  # clamp the 1e-9 tail beyond the table
    return (np.searchsorted(cdf, u) + xmin).astype(np.int64)


def brute_force_gini(values) -> float:
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean()))


def brute_force_spearman_rho(x, y) -> float:
    """Quadratic-time tie-aware ranks, then the explicit Pearson formula."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        out = np.empty(len(v))
        for i, a in enumerate(v):
            less = float((v < a).sum())
            equal = float((v == a).sum())
            out[i] = less + (equal + 1.0) / 2.0
        return out

    rx, ry = ranks(x), ranks(y)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    return float((dx * dy).sum() / math.sqrt((dx * dx).sum() * (dy * dy).sum()))


def steiger_oracle(r12: float, r13: float, r23: float, n: int) -> tuple[float, float]:
    """Independent transcription of the pooled-correlation Fisher-z statistic."""
    from scipy.special import ndtr

    z12, z13 = math.atanh(r12), math.atanh(r13)
    rbar = (r12 + r13) / 2.0
    psi = r23 * (1 - 2 * rbar ** 2) - 0.5 * rbar ** 2 * (1 - 2 * rbar ** 2 - r23 ** 2)
    s = psi / (1 - rbar ** 2) ** 2
    z = (z12 - z13) * math.sqrt((n - 3) / (2 * (1 - s)))
    return z, float(ndtr(-z))
