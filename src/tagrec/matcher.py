"""Profile-to-profile similarity and the full pairwise matrix.

Two profiles are compared by greedy best-pair matching over their word
sets: fill an n x m grid with word similarities, repeatedly take the
global maximum (the first in row-major order on ties), retire its row and
column, and average the picked values over min(n, m) rounds.  The rows
are the set whose sorted word tuple is smaller, so a score does not
depend on argument order, bit for bit.

Profiles that hold the same word set get the same scores, so the matrix
build scores each distinct non-empty word set once, in numpy batches:

1. Word table.  ``word_sim`` is called once for each unordered word pair
   that meets in some grid, and for no other pair, in the calling
   process.  The answers fill a float64 word x word table with one extra
   sentinel row and column of -1.
2. Greedy rounds.  A set's grids against a block of later sets (and
   against itself, when two profiles hold it) are gathered from the table
   as one ``(m, rows, cols)`` array, padded with the sentinel, and their
   greedy rounds run together.  No such array is larger than
   ``GRID_BYTES`` unless a single grid is.
3. Gather.  The set x set scores are copied into the condensed profile
   matrix one profile row at a time; empty profiles score 0.

Besides the grids, the build holds the table, (V + 1)^2 float64 for V
distinct profile words, and the set x set scores, (D + 1)^2 float32 for D
distinct word sets.
"""

from __future__ import annotations

import logging
from collections import Counter
from itertools import combinations
from multiprocessing import get_context

import numpy as np

from tagrec.errors import InputError, UnknownIdError

logger = logging.getLogger(__name__)

GRID_BYTES = 1 << 22  # largest batch of padded float64 grids


def _word_tuple(profile_or_words) -> tuple[str, ...]:
    words = getattr(profile_or_words, "words", profile_or_words)
    return tuple(sorted(set(words)))


def _match_batch(grids: np.ndarray, rounds: np.ndarray) -> np.ndarray:
    """Greedy matching scores of a batch of padded grids, as float64.

    ``grids`` has shape ``(m, n, w)``, padding cells at -1, and is
    overwritten.  Grid g sums its picks over ``rounds[g]`` rounds, in round
    order, and is divided by that count.
    """
    m, n, w = grids.shape
    flat = grids.reshape(m, n * w)
    g = np.arange(m)
    total = np.zeros(m)
    for r in range(int(rounds.max())):
        pick = flat.argmax(axis=1)  # first maximum in row-major order
        live = r < rounds
        total[live] += flat[g[live], pick[live]]
        i, j = np.divmod(pick, w)
        grids[g, i] = -1.0
        grids[g, :, j] = -1.0
    return total / rounds


def _word_table(vocab: list[str], padded: np.ndarray, lengths: np.ndarray, shared, word_sim) -> np.ndarray:
    """Word similarities for every word pair that meets in a scored grid.

    Set a meets the union of the sets after it, and itself when
    ``shared[a]``.  Each such unordered pair is asked of ``word_sim``
    once; every other cell, and the sentinel row and column at index V,
    holds -1.
    """
    v = len(vocab)
    need = np.zeros((v, v), dtype=bool)
    later = np.zeros(v, dtype=bool)
    for a in range(len(lengths) - 1, -1, -1):
        rows = padded[a, : lengths[a]]
        need[rows] |= later
        if shared[a]:
            need[np.ix_(rows, rows)] = True
        later[rows] = True
    need |= need.T
    table = np.full((v + 1, v + 1), -1.0)
    for i, wi in enumerate(vocab):
        js = np.flatnonzero(need[i, i:]) + i
        if js.size:
            values = [word_sim(wi, vocab[j]) for j in js.tolist()]
            table[i, js] = values
            table[js, i] = values
    return table


class _SetScorer:
    """Scores of distinct word sets against the sets after them.

    ``sets`` are distinct non-empty sorted word tuples in ascending order,
    so set a is the row side of every grid it is scored in.  Only sets
    with ``shared[a]`` true are scored against themselves.  The word table
    is filled on construction.
    """

    def __init__(self, sets: list[tuple[str, ...]], shared, word_sim):
        vocab = sorted(set().union(*sets))
        pos = {w: i for i, w in enumerate(vocab)}
        self.shared = shared
        self.lengths = np.array([len(s) for s in sets], dtype=np.intp)
        # word indices of each set, padded with the sentinel index V
        self.padded = np.full((len(sets), int(self.lengths.max())), len(vocab), dtype=np.intp)
        for a, s in enumerate(sets):
            self.padded[a, : len(s)] = [pos[w] for w in s]
        self.table = _word_table(vocab, self.padded, self.lengths, shared, word_sim)

    def columns(self, a: int) -> np.ndarray:
        """The sets that set ``a`` is scored against, ascending."""
        return np.arange(a if self.shared[a] else a + 1, len(self.lengths))

    def row(self, a: int) -> np.ndarray:
        """Float64 scores of set ``a`` against each of ``columns(a)``."""
        cols = self.columns(a)
        out = np.empty(cols.size)
        if not cols.size:
            return out
        n = int(self.lengths[a])
        rows = self.padded[a, :n, None]
        step = max(1, GRID_BYTES // (8 * n * int(self.lengths[cols].max())))
        for lo in range(0, cols.size, step):
            block = cols[lo : lo + step]
            width = int(self.lengths[block].max())
            grids = self.table[rows, self.padded[block, None, :width]]
            out[lo : lo + step] = _match_batch(grids, np.minimum(self.lengths[block], n))
        return out

    def rows(self, bounds: tuple[int, int]) -> tuple[int, list[np.ndarray]]:
        lo, hi = bounds
        return lo, [self.row(a) for a in range(lo, hi)]


def profile_similarity(p1, p2, word_sim) -> float:
    """Greedy-matching similarity between two profiles, in [0, 1].

    ``word_sim`` must be symmetric with values in [0, 1].  Either profile
    being empty scores 0.  The word lists are sorted and oriented
    canonically before matching, so results are bit-exact symmetric and
    ties in the grid resolve the same way no matter the argument order.
    """
    wa, wb = sorted((_word_tuple(p1), _word_tuple(p2)))
    if not wa:
        return 0.0
    if wa == wb:
        scorer = _SetScorer([wa], [True], word_sim)
    else:
        scorer = _SetScorer([wa, wb], [False, False], word_sim)
    return float(scorer.row(0)[0])


class SimilarityMatrix:
    """Symmetric profile similarities in condensed triangular float32 storage.

    Only the strict upper triangle is stored (N*(N-1)/2 entries); the
    diagonal is implicitly 1.
    """

    def __init__(self, ids, condensed: np.ndarray):
        self.ids = list(ids)
        n = len(self.ids)
        expected = n * (n - 1) // 2
        if condensed.shape != (expected,):
            raise InputError(f"condensed storage must have {expected} entries, got {condensed.shape}")
        self.condensed = np.asarray(condensed, dtype=np.float32)
        self._index = {pid: i for i, pid in enumerate(self.ids)}
        if len(self._index) != n:
            raise InputError("duplicate profile ids")

    @property
    def n(self) -> int:
        return len(self.ids)

    def index(self, profile_id: str) -> int:
        try:
            return self._index[profile_id]
        except KeyError:
            raise UnknownIdError(f"unknown profile id {profile_id!r}") from None

    def _k(self, i, j):
        # condensed index of pair (i, j) with i < j; i and j may be index arrays
        return self.n * i - i * (i + 1) // 2 + (j - i - 1)

    def sim(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        if i > j:
            i, j = j, i
        return float(self.condensed[self._k(i, j)])

    def sim_ids(self, a: str, b: str) -> float:
        return self.sim(self.index(a), self.index(b))

    def distances_to(self, j: int) -> np.ndarray:
        """1 - similarity from every profile to profile ``j`` (float64)."""
        n = self.n
        out = np.empty(n, dtype=np.float64)
        if j > 0:
            out[:j] = self.condensed[self._k(np.arange(j), j)]
        out[j] = 1.0  # self-similarity
        if j < n - 1:
            base = self._k(j, j + 1)
            out[j + 1 :] = self.condensed[base : base + (n - j - 1)]
        return 1.0 - out

    def pairwise_distances(self, indices) -> np.ndarray:
        """Square 1 - similarity matrix over the given profile indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if self.condensed.size == 0:
            return np.zeros((idx.size, idx.size), dtype=np.float64)
        lo = np.minimum.outer(idx, idx)
        hi = np.maximum.outer(idx, idx)
        # Diagonal cells get a bogus condensed index; they are overwritten below.
        dist = 1.0 - self.condensed[self._k(lo, hi)].astype(np.float64)
        np.fill_diagonal(dist, 0.0)
        return dist

    def iter_pairs(self):
        """Yield ``(id_i, id_j, sim)`` for every i < j in storage order,
        the order of ``itertools.combinations(ids, 2)``."""
        for (a, b), s in zip(combinations(self.ids, 2), self.condensed.tolist()):
            yield a, b, s

    def scaled(self, factor: float) -> "SimilarityMatrix":
        return SimilarityMatrix(self.ids, self.condensed * np.float32(factor))


# Worker state for the parallel matrix build; populated by the pool
# initializer after fork so tasks only carry row ranges.
_WORKER: dict = {}


def _init_worker(scorer):
    _WORKER["scorer"] = scorer


def _score_rows(bounds):
    return _WORKER["scorer"].rows(bounds)


def _row_chunks(n: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split rows into contiguous chunks with roughly equal pair counts."""
    total = n * (n - 1) // 2
    target = max(1, total // n_chunks)
    chunks = []
    lo = 0
    acc = 0
    for i in range(n):
        acc += n - 1 - i
        if acc >= target and i + 1 < n:
            chunks.append((lo, i + 1))
            lo = i + 1
            acc = 0
    if lo < n:
        chunks.append((lo, n))
    return chunks


def _scored_chunks(scorer: _SetScorer, chunks, workers: int):
    if workers <= 1 or len(chunks) < 2:
        yield from map(scorer.rows, chunks)
        return
    ctx = get_context("fork")
    with ctx.Pool(processes=workers, initializer=_init_worker, initargs=(scorer,)) as pool:
        yield from pool.imap_unordered(_score_rows, chunks)


def build_similarity_matrix(profiles, word_sim, workers: int = 1, progress=None) -> SimilarityMatrix:
    """Compute all N*(N-1)/2 profile similarities.

    Each distinct non-empty word set is scored once against every later
    one, and against itself when two profiles hold it; see the module
    docstring for the three steps and the memory they take.  ``word_sim``
    is called only in this process, before any scoring, once for each
    unordered word pair that some scored grid holds.  With
    ``workers > 1``, forked processes score contiguous ranges of distinct
    word sets from the finished word table; the result is the same.
    ``progress``, when given, is called with ``(done_pairs, total_pairs)``
    in profile pairs after each range.
    """
    profiles = list(profiles)
    ids = [p.id for p in profiles]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate profile ids")
    n = len(ids)
    words = [_word_tuple(p) for p in profiles]
    total_pairs = n * (n - 1) // 2
    counts = Counter(w for w in words if w)
    sets = sorted(counts)
    d = len(sets)
    # Set x set scores; the extra last row and column give empty profiles 0.
    scores = np.zeros((d + 1, d + 1), dtype=np.float32)
    if d:
        mult = np.array([counts[s] for s in sets], dtype=np.int64)
        scorer = _SetScorer(sets, mult > 1, word_sim)
        # profile pairs whose score each set row settles, for progress
        settled = mult * (mult.sum() - np.cumsum(mult)) + mult * (mult - 1) // 2
        done = 0
        # at least 16 chunks for progress, and 4 per worker to balance the pool
        for lo, rows in _scored_chunks(scorer, _row_chunks(d, 4 * max(workers, 4)), workers):
            for a, row in enumerate(rows, start=lo):
                cols = scorer.columns(a)
                scores[a, cols] = row
                scores[cols, a] = row
            done += int(settled[lo : lo + len(rows)].sum())
            if progress is not None:
                progress(done, total_pairs)

    index = {s: a for a, s in enumerate(sets)}
    set_of = np.array([index[w] if w else d for w in words], dtype=np.intp)
    condensed = np.empty(total_pairs, dtype=np.float32)
    k = 0
    for i in range(n - 1):
        condensed[k : k + n - 1 - i] = scores[set_of[i], set_of[i + 1 :]]
        k += n - 1 - i

    if progress is not None:
        progress(total_pairs, total_pairs)
    return SimilarityMatrix(ids, condensed)
