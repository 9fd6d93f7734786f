"""Correctness checks on the pipeline's artifacts, computed apart from it.

Each check re-derives what an artifact must hold from the inputs or from
an upstream artifact, with literal code that shares nothing with
``tagrec`` beyond the taxonomy's ``word_similarity`` (the matcher's
documented input).  A check raises :class:`CheckFailed` on the first
mismatch it finds.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from pathlib import Path

import numpy as np

# The bigram probability the program documents for unseen pairs.
FLOOR_PROB = 1e-9

_BODY_RE = re.compile(r"[a-z]+\Z")


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _tsv_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


# -- segmentation ---------------------------------------------------------


def load_lexicon(path: Path) -> frozenset[str]:
    words = (line.strip().lower() for line in path.read_text(encoding="utf-8").splitlines())
    return frozenset(w for w in words if _BODY_RE.fullmatch(w))


class Bigrams:
    """Joint bigram probabilities: count / total, ``FLOOR_PROB`` when unseen."""

    def __init__(self, counts: dict[tuple[str, str], int], floor: float = FLOOR_PROB):
        self.counts = counts
        self.total = sum(counts.values())
        self.floor = floor

    @classmethod
    def load(cls, path: Path) -> "Bigrams":
        counts: dict[tuple[str, str], int] = {}
        for w1, w2, count in _tsv_rows(path):
            key = (w1.strip().lower(), w2.strip().lower())
            counts[key] = counts.get(key, 0) + int(count)
        return cls(counts)

    def score(self, tokens: tuple[str, ...]) -> float:
        total = 0.0
        for pair in zip(tokens, tokens[1:]):
            count = self.counts.get(pair)
            total += math.log(count / self.total if count is not None else self.floor)
        return total


def all_splits(body: str, lexicon: frozenset[str]) -> list[tuple[str, ...]]:
    """Every split of ``body`` into lexicon words, uncapped."""
    suffix: list[list[tuple[str, ...]]] = [[] for _ in range(len(body) + 1)]
    suffix[len(body)] = [()]
    for i in range(len(body) - 1, -1, -1):
        for j in range(i + 1, len(body) + 1):
            word = body[i:j]
            if word in lexicon:
                suffix[i].extend((word,) + rest for rest in suffix[j])
    return suffix[0]


def best_split(body: str, lexicon: frozenset[str], bigrams: Bigrams) -> tuple[str, ...]:
    """The documented segmentation rule by exhaustive search.

    A body that is a lexicon word stays whole.  Otherwise the split with
    the highest summed bigram log-probability wins; ties go to fewer
    tokens, then to the lexicographically smallest token sequence.  No
    split gives ``()``.
    """
    if body in lexicon:
        return (body,)
    splits = all_splits(body, lexicon)
    if not splits:
        return ()
    return min(splits, key=lambda tokens: (-bigrams.score(tokens), len(tokens), tokens))


def normalize(raw: str) -> str | None:
    body = raw.strip()
    if body.startswith("#"):
        body = body[1:]
    body = body.lower()
    return body if _BODY_RE.fullmatch(body) else None


def read_users(path: Path) -> list[tuple[str, list[str]]]:
    return [(uid.strip(), [t.strip() for t in tags.split(",") if t.strip()]) for uid, tags in _tsv_rows(path)]


def check_profiles(users_path: Path, profiles_path: Path, lexicon: frozenset[str], bigrams: Bigrams) -> dict:
    """``profiles.tsv`` holds, per user, the union of each hashtag's best split."""
    users = read_users(users_path)
    splits: dict[str, tuple[str, ...]] = {}
    expected = []
    for uid, tags in users:
        words: set[str] = set()
        for tag in tags:
            body = normalize(tag)
            if body is None:
                continue
            if body not in splits:
                splits[body] = best_split(body, lexicon, bigrams)
            words.update(splits[body])
        expected.append((uid, " ".join(sorted(words))))
    produced = [tuple(row) for row in _tsv_rows(profiles_path)]
    _require(len(produced) == len(expected), f"profiles.tsv has {len(produced)} rows, expected {len(expected)}")
    for want, got in zip(expected, produced):
        _require(got == want, f"profile {want[0]}: got {got!r}, expected {want!r}")
    return {"distinct_bodies": len(splits)}


# -- matching -------------------------------------------------------------


def greedy_oracle(rows: tuple[str, ...], cols: tuple[str, ...], word_sim) -> float:
    """Literal greedy matching: repeatedly take the first row-major maximum,
    retire its row and column, and average the picked values."""
    grid = [[word_sim(u, v) for v in cols] for u in rows]
    dead_rows: set[int] = set()
    dead_cols: set[int] = set()
    total = 0.0
    for _ in range(min(len(rows), len(cols))):
        best, br, bc = -1.0, -1, -1
        for i in range(len(rows)):
            if i in dead_rows:
                continue
            for j in range(len(cols)):
                if j not in dead_cols and grid[i][j] > best:
                    best, br, bc = grid[i][j], i, j
        total += best
        dead_rows.add(br)
        dead_cols.add(bc)
    return total / min(len(rows), len(cols))


def profile_sim(words_a: frozenset[str], words_b: frozenset[str], word_sim) -> float:
    """Profile similarity with the documented canonical orientation: sorted
    word lists, the lexicographically smaller list as rows."""
    a, b = tuple(sorted(words_a)), tuple(sorted(words_b))
    if not a or not b:
        return 0.0
    if b < a:
        a, b = b, a
    return greedy_oracle(a, b, word_sim)


def read_profile_words(path: Path) -> list[tuple[str, frozenset[str]]]:
    return [(uid, frozenset(words.split())) for uid, words in _tsv_rows(path)]


class Sims:
    """``sims.tsv`` parsed into a full float64 similarity matrix."""

    def __init__(self, path: Path):
        self.rows = _tsv_rows(path)
        self.ids: list[str] = []
        self.index: dict[str, int] = {}
        for a, b, _ in self.rows:
            for pid in (a, b):
                if pid not in self.index:
                    self.index[pid] = len(self.ids)
                    self.ids.append(pid)
        i = np.array([self.index[a] for a, _, _ in self.rows], dtype=np.int64)
        j = np.array([self.index[b] for _, b, _ in self.rows], dtype=np.int64)
        # The program keeps the parsed values as float32.
        values = np.array([float(s) for _, _, s in self.rows]).astype(np.float32).astype(np.float64)
        self.full = np.ones((len(self.ids), len(self.ids)))
        self.full[i, j] = values
        self.full[j, i] = values


def check_sims(sims: Sims, profiles: list[tuple[str, frozenset[str]]], word_sim, seed: int, sample: int) -> dict:
    ids = [uid for uid, _ in profiles]
    n = len(ids)
    _require(sims.ids == ids, "sims.tsv ids differ from profiles.tsv ids or their order")
    _require(len(sims.rows) == n * (n - 1) // 2, f"sims.tsv has {len(sims.rows)} rows, expected {n * (n - 1) // 2}")
    words = dict(profiles)
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b, s = sims.rows[k]
            _require((a, b) == (ids[i], ids[j]), f"sims.tsv row {k + 1} is ({a}, {b}), expected ({ids[i]}, {ids[j]})")
            _require(0.0 <= float(s) <= 1.0, f"similarity {s} of ({a}, {b}) is outside [0, 1]")
            wa, wb = words[a], words[b]
            if not wa or not wb:
                _require(s == "0.000000", f"({a}, {b}) has an empty profile but reads {s}")
            elif wa == wb:
                _require(s == "1.000000", f"({a}, {b}) have equal word sets but read {s}")
            k += 1
    rng = random.Random(seed)
    for k in sorted(rng.sample(range(len(sims.rows)), min(sample, len(sims.rows)))):
        a, b, s = sims.rows[k]
        # The program stores float32 and writes it with 6 decimals.
        want = f"{float(np.float32(profile_sim(words[a], words[b], word_sim))):.6f}"
        _require(s == want, f"({a}, {b}) reads {s}, oracle gives {want}")
    return {"pairs": len(sims.rows)}


# -- clustering and recommendation ---------------------------------------


def check_clusters(clusters_path: Path, sims: Sims) -> dict:
    rows = _tsv_rows(clusters_path)
    _require([r[0] for r in rows] == sims.ids, "clusters.tsv ids differ from sims.tsv ids or their order")
    index = sims.index
    dist = 1.0 - sims.full
    np.fill_diagonal(dist, 0.0)
    medoid_of: dict[int, int] = {}
    for pid, cluster, medoid in rows:
        _require(medoid_of.setdefault(int(cluster), index[medoid]) == index[medoid], f"cluster {cluster} has two medoids")
    k = len(medoid_of)
    _require(sorted(medoid_of) == list(range(k)), "cluster indices are not 0..k-1")
    medoids = [medoid_of[c] for c in range(k)]
    assign = np.array([int(r[1]) for r in rows])
    for c, m in enumerate(medoids):
        _require(assign[m] == c, f"medoid {sims.ids[m]} is not in its own cluster {c}")
    to_medoids = dist[:, medoids]
    own = to_medoids[np.arange(len(rows)), assign]
    nearest = to_medoids.min(axis=1)
    bad = np.flatnonzero(own > nearest + 1e-9)
    _require(bad.size == 0, f"{bad.size} profiles are not with their nearest medoid, e.g. {sims.ids[bad[0]] if bad.size else ''}")
    for c, m in enumerate(medoids):
        members = np.flatnonzero(assign == c)
        sums = dist[np.ix_(members, members)].sum(axis=0)
        own_sum = sums[list(members).index(m)]
        _require(own_sum <= sums.min() + 1e-9, f"medoid of cluster {c} does not minimise its distance sum")
    return {"k": k}


def check_recommendations(recs_path: Path, clusters_path: Path, sims: Sims, top: int) -> dict:
    cluster_of = {pid: int(c) for pid, c, _ in _tsv_rows(clusters_path)}
    members: dict[int, list[str]] = {}
    for pid in sims.ids:
        members.setdefault(cluster_of[pid], []).append(pid)
    text = {}
    for a, b, s in sims.rows:
        text[a, b] = text[b, a] = s
    expected = []
    for target in sims.ids:
        ranked = sorted(
            ((cand, text[target, cand]) for cand in members[cluster_of[target]] if cand != target),
            key=lambda item: (-float(item[1]), item[0]),
        )
        size = len(members[cluster_of[target]])
        ranked = ranked[:top]
        _require(len(ranked) == min(top, size - 1), f"wrong recommendation count for {target}")
        expected += [(target, str(rank), cand, s) for rank, (cand, s) in enumerate(ranked, start=1)]
    produced = [tuple(row) for row in _tsv_rows(recs_path)]
    _require(len(produced) == len(expected), f"recommendations.tsv has {len(produced)} rows, expected {len(expected)}")
    for want, got in zip(expected, produced):
        _require(got == want, f"recommendation row {got!r}, expected {want!r}")
    return {"rows": len(produced)}


# -- caching --------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
