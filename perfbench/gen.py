"""Seeded synthetic inputs for the clickgraph benchmark, with a ground-truth sidecar.

Recipe (one seed gives byte-identical files):

- ``n`` articles with Wikipedia-style UTF-8 titles (letters including
  non-ASCII ones, digits, ``_ ( ) , ' -``; never tab, newline or ``#``).
- Out-degrees are zipf(2.0) draws, capped at ``n // 50`` and scaled to a mean
  of 15 (largest-remainder rounding, so there are exactly ``15 n`` links).
- Link targets are drawn, without repeats per source and never the source
  itself, with pareto(1.2) popularity weights.
- 40 % of links are clicked, with counts of zipf(1.6) + 8 (capped at 10**7).
- Clickstream noise with known counts: external referrers, non-edge pairs,
  4-column rows, duplicate pairs (summed by the parser) and malformed lines.
- Each article has 60 tokens from a zipf-weighted 20k vocabulary,
  2 categories, and every link a random x/y position and one of 6 regions.

``write_inputs`` writes the text inputs the CLI reads, ``visual.npz`` with
the visual arrays for in-process use, and ``truth.json`` / ``truth_pairs.tsv``
with what ``build`` must keep and drop at threshold 10.
"""

from __future__ import annotations

import json
import os

import numpy as np

THRESHOLD = 10
MEAN_OUT_DEGREE = 15
CLICKED_SHARE = 0.40
COUNT_CAP = 10**7
VOCABULARY = 20_000
TOKENS_PER_ARTICLE = 60
CATEGORIES_PER_ARTICLE = 2
REGIONS = ("lead", "body", "left-body", "right-body", "infobox", "navbox")
EXTERNAL_REFERRERS = ("other-search", "other-empty", "other-external", "other-internal", "other-other")

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "ch", "st", "tr", "sch", "ž", "ł", "ñ", "ç", "þ")
_VOWELS = ("a", "e", "i", "o", "u", "y", "é", "ö", "ü", "å", "ø", "ã", "í", "ā")
_SUFFIXES = ("", "", "", "", "_(film)", "_(band)", "_(album)", "_(disambiguation)",
             ",_Ohio", ",_Bavaria", "'s_law", "-class_destroyer", "_(1987_song)", "_FC")

INPUT_FILES = ("edges.tsv", "clickstream.tsv", "corpus.tsv", "categories.tsv", "visual.tsv")


def _word(rng: np.random.Generator, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(_ONSETS[rng.integers(len(_ONSETS))])
        parts.append(_VOWELS[rng.integers(len(_VOWELS))])
    return "".join(parts)


def article_names(rng: np.random.Generator, n: int) -> list[str]:
    """Unique titles such as ``Žóbra_Kitel_(band)`` or ``Tramü_1987``."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n:
        words = [_word(rng, int(rng.integers(1, 4))).capitalize()
                 for _ in range(int(rng.integers(1, 4)))]
        if rng.random() < 0.15:
            words.append(str(int(rng.integers(1800, 2020))))
        name = "_".join(words) + _SUFFIXES[rng.integers(len(_SUFFIXES))]
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _out_degrees(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = np.minimum(rng.zipf(2.0, n), max(n // 50, 1)).astype(np.float64)
    scaled = raw * (MEAN_OUT_DEGREE * n / raw.sum())
    deg = np.floor(scaled).astype(np.int64)
    short = MEAN_OUT_DEGREE * n - int(deg.sum())
    deg[np.argsort(deg - scaled, kind="stable")[:short]] += 1
    return np.clip(deg, 1, n - 1)


def _unique_targets(rng: np.random.Generator, deg: np.ndarray, popularity: np.ndarray) -> np.ndarray:
    """Sorted edge keys ``src * n + trg``: ``deg[s]`` distinct non-self targets each."""
    n = len(deg)
    p = popularity / popularity.sum()
    keys = np.zeros(0, dtype=np.int64)
    need = deg.copy()
    for _ in range(60):
        if not need.any():
            return keys
        src = np.repeat(np.arange(n, dtype=np.int64), need)
        trg = rng.choice(n, size=len(src), p=p)
        fresh = src * n + trg
        fresh = fresh[src != trg]
        # first draw wins per key; keep at most need[s] new keys per source
        fresh = np.setdiff1d(np.unique(fresh), keys, assume_unique=True)
        fsrc = fresh // n
        rank = np.arange(len(fresh)) - np.searchsorted(fsrc, fsrc)
        fresh = fresh[rank < need[fsrc]]
        keys = np.union1d(keys, fresh)
        need = deg - np.bincount(keys // n, minlength=n)
    # popular targets exhausted for a few large sources: fill uniformly
    extra = []
    have = set(keys.tolist())
    for s in np.flatnonzero(need):
        for t in rng.permutation(n):
            if need[s] == 0:
                break
            k = int(s) * n + int(t)
            if t != s and k not in have:
                have.add(k)
                extra.append(k)
                need[s] -= 1
    return np.union1d(keys, np.asarray(extra, dtype=np.int64))


def generate(seed, n: int) -> dict:
    """All inputs as arrays and lists; see the module docstring for the recipe.

    ``seed`` is anything ``numpy.random.default_rng`` takes, e.g. ``[seed, j]``.
    """
    rng = np.random.default_rng(seed)
    names = article_names(rng, n)
    deg = _out_degrees(rng, n)
    popularity = rng.pareto(1.2, n) + 1.0
    keys = _unique_targets(rng, deg, popularity)
    keys = keys[rng.permutation(len(keys))]  # edge file in no particular order
    src, trg = keys // n, keys % n
    m = len(keys)

    clicked = rng.random(m) < CLICKED_SHARE
    counts = np.minimum(rng.zipf(1.6, m) + 8, COUNT_CAP)
    vocab = [_word(rng, 2) + _word(rng, 1) + str(i) for i in range(VOCABULARY)]
    zipf_p = 1.0 / np.arange(1, VOCABULARY + 1)
    tokens = rng.choice(VOCABULARY, size=(n, TOKENS_PER_ARTICLE), p=zipf_p / zipf_p.sum())
    n_cats = max(n // 20, 10)
    cat_p = 1.0 / np.arange(1, n_cats + 1)
    cats = rng.choice(n_cats, size=(n, CATEGORIES_PER_ARTICLE), p=cat_p / cat_p.sum())
    return {
        "rng": rng, "names": names, "src": src, "trg": trg, "clicked": clicked,
        "counts": counts, "vocab": vocab, "tokens": tokens, "cats": cats,
        "x": rng.integers(0, 1920, m), "y": rng.integers(0, 4000, m),
        "region": rng.integers(0, len(REGIONS), m),
    }


def _clickstream(d: dict) -> tuple[list[str], dict, dict[tuple[str, str], int]]:
    """Rows with known noise, the drop counts ``build`` must report, and kept pairs."""
    rng, names = d["rng"], d["names"]
    n = len(names)
    src, trg = d["src"], d["trg"]
    edge_keys = set((src * n + trg).tolist())
    sums: dict[tuple[int, int], int] = {}
    rows: list[str] = []

    def emit(a: str, b: str, c) -> None:
        if rng.random() < 0.1:
            rows.append(f"{a}\t{b}\tlink\t{c}\n")  # 4-column variant, type ignored
        else:
            rows.append(f"{a}\t{b}\t{c}\n")

    for e in np.flatnonzero(d["clicked"]):
        s, t, c = int(src[e]), int(trg[e]), int(d["counts"][e])
        emit(names[s], names[t], c)
        sums[(s, t)] = sums.get((s, t), 0) + c
        if rng.random() < 0.03:  # same pair again: the parser sums it
            extra = int(rng.integers(1, 6))
            emit(names[s], names[t], extra)
            sums[(s, t)] += extra

    n_noise = max(len(sums) // 20, 5)
    for _ in range(n_noise):
        ref = EXTERNAL_REFERRERS[rng.integers(len(EXTERNAL_REFERRERS))]
        emit(ref, names[rng.integers(n)], int(rng.integers(10, 5000)))
    non_edge = 0
    while non_edge < n_noise:
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s * n + t in edge_keys:
            continue
        emit(names[s], names[t], int(rng.integers(10, 500)))
        non_edge += 1
    for i in range(n_noise // 5):  # red links: resource is no article at all
        emit(names[rng.integers(n)], f"Red_link_{i}_(stub)", 12)
    malformed = 0
    for i in range(n_noise // 5):
        a, b = names[rng.integers(n)], names[rng.integers(n)]
        rows.append((f"{a}\t{b}\n", f"{a}\t{b}\t1{i}x\n", f"{a}\t{b}\tlink\tother\t15\n")[i % 3])
        malformed += 1

    rows = [rows[i] for i in rng.permutation(len(rows))]
    kept = {(names[s], names[t]): c for (s, t), c in sums.items() if c >= THRESHOLD}
    below = [c for c in sums.values() if c < THRESHOLD]
    truth = {
        "lines": len(rows),
        "malformed": malformed,
        "external": n_noise,
        "non_edge": n_noise + n_noise // 5,
        "below_threshold_pairs": len(below),
        "kept_pairs": len(kept),
        "kept_transitions": int(sum(kept.values())),
    }
    return rows, truth, kept


def write_inputs(directory: str, seed, n: int) -> dict:
    """Write every input file into ``directory``; returns the truth record."""
    os.makedirs(directory, exist_ok=True)
    d = generate(seed, n)
    names = d["names"]
    path = lambda f: os.path.join(directory, f)  # noqa: E731

    def write(fname: str, lines) -> None:
        with open(path(fname), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)

    write("edges.tsv", (f"{names[s]}\t{names[t]}\n" for s, t in zip(d["src"], d["trg"])))
    rows, truth, kept = _clickstream(d)
    write("clickstream.tsv", rows)
    vocab = d["vocab"]
    write("corpus.tsv", (names[i] + "\t" + "\t".join(vocab[w] for w in d["tokens"][i]) + "\n"
                         for i in range(len(names))))
    write("categories.tsv", (names[i] + "\t" + "\t".join(f"Category_{c}" for c in d["cats"][i]) + "\n"
                             for i in range(len(names))))
    write("visual.tsv", ["src\ttrg\tx_coord\ty_coord\tregion\n"] + [
        f"{names[s]}\t{names[t]}\t{x}\t{y}\t{REGIONS[r]}\n"
        for s, t, x, y, r in zip(d["src"], d["trg"], d["x"], d["y"], d["region"])
    ])
    np.savez(path("visual.npz"), src=d["src"], trg=d["trg"], x=d["x"], y=d["y"], region=d["region"],
             names=np.asarray(names))
    write("truth_pairs.tsv", (f"{a}\t{b}\t{c}\n" for (a, b), c in sorted(kept.items())))
    truth.update(seed=seed, articles=n, links=int(len(d["src"])), threshold=THRESHOLD)
    with open(path("truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True, indent=1)
    return truth
