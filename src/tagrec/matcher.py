"""Profile-to-profile similarity and the full pairwise matrix.

Two profiles are compared by greedy best-pair matching over their word
sets: fill an n x m grid with word similarities, repeatedly take the
global maximum (the first in row-major order on ties), retire its row and
column, and average the picked values over min(n, m) rounds.  The rows
are the set whose sorted word tuple is smaller, so a score does not
depend on argument order, bit for bit.

Profiles that hold the same word set get the same scores, so the matrix
build scores each distinct non-empty word set once, in numpy batches:

1. Word table.  A float64 table with a row for each word that can score
   and one extra sentinel row and column of -1; each set holds the rows
   of its words.  With a ``word_table`` builder, as the pipeline passes
   ``Taxonomy.word_table``, the builder fills the whole table in one
   call, for the vocabulary plus one padding word whose row and column
   then become the sentinel in place, and ``word_sim`` is never called.
   A word that only one set holds, and that set not scored against
   itself, never meets a copy of itself; when the taxonomy does not know
   it either, it scores 0 against every word it meets, so all such words
   share one row of zeros.  Without a builder, ``word_sim`` is called
   once for each unordered word pair that meets in some grid, and for no
   other pair, and every word has its own row.
2. Greedy rounds.  A set is scored against the later sets (and against
   itself, when two profiles hold it), and the sets are scored in
   contiguous ranges of rows.  A pair of sets with no word similarity
   above 0 between them scores 0 and is never gathered: its rounds would
   add only zeros.  ``reach``, which words each set has a similarity
   above 0 to, is built once for all sets and finds these pairs for a
   whole range at once.  The other pairs of the range, from all its
   rows, are sorted by the sizes of their two sets and gathered from the
   table in batches, each one ``(m, rows, cols)`` array padded with the
   sentinel, and their greedy rounds run together.  No such array is
   larger than ``GRID_BYTES`` unless a single grid is.  A grid is
   finished after its last round or after a round whose pick is 0, since
   each later pick would add +0.0; once half a batch or fewer is
   unfinished, the finished grids are dropped from it.
   ``build_similarity_matrix`` logs how many set pairs were settled at 0,
   how many grids were dropped and how many batches were matched.
3. Gather.  Each range's pair scores are scattered into a set x set
   matrix, both ways, which is gathered into the condensed profile
   matrix in blocks of profile rows, each of about a quarter of
   ``GRID_BYTES`` at most: the rectangle of a block's rows against the
   later profiles, masked to its upper triangle.  Empty profiles score 0.

Besides the grids, the build holds the table, (R + 1)^2 float64 for R
word rows and the sentinel, ``reach``, D x (R + 1) bool for D distinct
word sets, and the set x set scores, (D + 1)^2 float32.  With the
taxonomy's builder, R is one row for each word that the taxonomy knows
or that can meet a copy of itself or a lowercase twin, plus the row of
zeros; without a builder, R is V, the number of distinct profile words.
"""

from __future__ import annotations

import logging
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from tagrec.errors import InputError, UnknownIdError

logger = logging.getLogger(__name__)

GRID_BYTES = 1 << 22  # largest batch of padded float64 grids; a gather block takes a quarter


def _word_tuple(profile_or_words) -> tuple[str, ...]:
    words = getattr(profile_or_words, "words", profile_or_words)
    return tuple(sorted(set(words)))


def _match_batch(grids: np.ndarray, rounds: np.ndarray) -> tuple[np.ndarray, int]:
    """Greedy matching scores of a batch of padded grids, as float64, and
    how many grids left the batch before its last round.

    ``grids`` has shape ``(m, n, w)``, cells in [0, 1], padding cells at
    -1, and is overwritten.  Grid g sums its picks over ``rounds[g]``
    rounds, in round order, and is divided by that count.  A grid is
    finished after its last round, or after a round whose pick is 0:
    every cell left is then at most 0, so each later pick of its rounds
    would add +0.0, which leaves a sum of values >= 0 unchanged.  A
    finished grid adds no more picks, and once half the batch or fewer is
    unfinished, the finished grids are dropped from it, so later rounds
    do not scan them.
    """
    m, n, w = grids.shape
    flat = grids.reshape(m, n * w)
    total = np.zeros(m)
    at = g = np.arange(m)  # at: the batch index of each grid in flat
    last = int(rounds.max()) - 1
    due = np.arange(last + 2)[:, None] < rounds  # due[r]: round r counts for the grid
    dropped = 0
    for r in range(last + 1):
        pick = flat.argmax(axis=1)  # first maximum in row-major order
        best = flat[g, pick]
        best *= due[r]  # a grid past its last round adds +0.0 or -0.0
        total[at] += best
        if r == last:
            break
        live = (best > 0) & due[r + 1]
        kept = int(np.count_nonzero(live))
        if 2 * kept <= at.size:
            dropped += at.size - kept
            if not kept:
                break
            flat, at, pick, due = flat[live], at[live], pick[live], due[:, live]
            grids = flat.reshape(kept, n, w)
            g = np.arange(kept)
        i, j = np.divmod(pick, w)
        grids[g, i] = -1.0
        grids[g, :, j] = -1.0
    return total / rounds, dropped


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
    is filled on construction, by ``word_table`` when it is given and by
    asking ``word_sim`` otherwise.  ``padded`` holds the table row of each
    set's words, padded with the sentinel's row.  ``reach``, a D x (R + 1)
    bool array for D sets and a table of R + 1 rows, is built then too:
    ``reach[a, r]`` is true when some word of set a has a similarity above
    0 to the words of row r.  It is built a few sets at a time, so no copy
    of the table is held.  Scoring only reads these arrays, so threads may
    score ranges of one scorer at once.
    """

    def __init__(self, sets: list[tuple[str, ...]], shared, word_sim, word_table=None):
        vocab = sorted(set().union(*sets))
        pos = {w: i for i, w in enumerate(vocab)}
        self.shared = np.asarray(shared, dtype=bool)
        self.lengths = np.array([len(s) for s in sets], dtype=np.intp)
        # vocabulary indices of each set, padded with the sentinel index V
        padded = np.full((len(sets), int(self.lengths.max())), len(vocab), dtype=np.intp)
        for a, s in enumerate(sets):
            padded[a, : len(s)] = [pos[w] for w in s]
        if word_table is None:
            rows = np.arange(len(vocab) + 1)
            self.table = _word_table(vocab, padded, self.lengths, self.shared, word_sim)
        else:
            # A word meets a copy of itself only when two sets hold it or a
            # shared set does; any other word's own cell is never read.
            in_shared = np.zeros(len(vocab) + 1, dtype=bool)
            in_shared[padded[self.shared]] = True
            alone = (np.bincount(padded.ravel(), minlength=len(vocab) + 1) == 1) & ~in_shared
            # Asking for one word more, not alone, gives the sentinel a row of
            # its own in the builder's array, so the bordered table needs no copy.
            alone[-1] = False
            rows, self.table = word_table([*vocab, ""], alone)
            self.table[rows[-1], :] = -1.0
            self.table[:, rows[-1]] = -1.0
        # table rows of each set's words, padded with the sentinel's row
        self.padded = rows[padded]
        # Cells no scored grid holds may be -1, and so is the sentinel row and
        # column.  Each gather of table rows is at most the size of reach.
        self.reach = np.empty((len(sets), len(self.table)), dtype=bool)
        step = max(1, self.reach.nbytes // (self.padded.shape[1] * self.table[0].nbytes))
        for lo in range(0, len(sets), step):
            (self.table[self.padded[lo : lo + step]] > 0).any(axis=1, out=self.reach[lo : lo + step])

    def rows(self, bounds: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, Counter]:
        """Float64 scores of the set pairs ``(a, b)`` that rows ``lo..hi-1``
        are scored in: ``b > a``, or ``b == a`` when ``shared[a]``.

        Returns the row and column sets of the pairs that were matched,
        their scores, and ``stats``.  A pair whose two sets have no
        word similarity above 0 between them is left out: it scores +0.0,
        as its greedy rounds would give, and its grid is never gathered.
        The other pairs are sorted by the sizes of their two sets and
        matched across rows in batches, each gathered as one ``(m, rows,
        cols)`` array padded with the sentinel at the bottom and the right,
        of at most ``GRID_BYTES`` unless it holds a single grid.  Padding
        cells are -1, so they never win while a real cell is left, and a
        score does not depend on its batch.  ``stats`` counts the pairs
        settled at 0 (``zero_pairs``), the ``_match_batch`` calls
        (``batches``) and the grids that left their batch before its last
        round (``dropped_grids``); the last depends on how the pairs are
        batched.
        """
        lo, hi = bounds
        stats: Counter = Counter()
        first = np.arange(lo + 1, hi + 1) - self.shared[lo:hi]  # first column set of each row set
        count = len(self.lengths) - first
        a = np.repeat(np.arange(lo, hi), count)
        b = np.arange(a.size) + np.repeat(first - (np.cumsum(count) - count), count)
        hit = np.zeros(a.size, dtype=bool)
        # one word position of every set b at a time, so no pair x word array
        # is held; one flat index gathers about twice as fast as two
        at = a * self.reach.shape[1]
        for words in self.padded.T:
            hit |= self.reach.take(at + words[b])
        a, b = a[hit], b[hit]
        stats["zero_pairs"] += hit.size - a.size
        la, lb = self.lengths[a], self.lengths[b]
        order = np.lexsort((lb, la))
        a, b, la, lb = a[order], b[order], la[order], lb[order]
        out = np.empty(a.size)
        s = 0
        while s < a.size:
            # padded cells of a batch of grids s..e-1 for each e, which only
            # grow with e; no batch of more than one grid holds more grids
            # than GRID_BYTES // 8
            window = slice(s, s + GRID_BYTES // 8)
            cells = np.arange(1, la[window].size + 1) * la[window] * np.maximum.accumulate(lb[window])
            e = s + max(1, int(np.searchsorted(cells, GRID_BYTES // 8, side="right")))
            grids = self.table[self.padded[a[s:e], : la[e - 1], None], self.padded[b[s:e], None, : lb[s:e].max()]]
            out[s:e], dropped = _match_batch(grids, np.minimum(la[s:e], lb[s:e]))
            stats["dropped_grids"] += dropped
            stats["batches"] += 1
            s = e
        return a, b, out, stats


def profile_similarity(p1, p2, word_sim) -> float:
    """Greedy-matching similarity between two profiles, in [0, 1].

    ``word_sim`` must be symmetric with values in [0, 1].  It is asked
    only about pairs of one word of ``p1`` and one word of ``p2``, in
    either argument order, so it need not cover any other pair, such as
    two words of the same profile.  Either profile being empty scores 0.
    The word lists are sorted and oriented canonically before matching, so
    results are bit-exact symmetric and ties in the grid resolve the same
    way no matter the argument order.
    """
    wa, wb = sorted((_word_tuple(p1), _word_tuple(p2)))
    if not wa:
        return 0.0
    if wa == wb:
        scorer = _SetScorer([wa], [True], word_sim)
    else:
        scorer = _SetScorer([wa, wb], [False, False], word_sim)
    score = scorer.rows((0, 1))[2]
    return float(score[0]) if score.size else 0.0


class SimilarityMatrix:
    """Symmetric profile similarities in condensed triangular float32 storage.

    Only the strict upper triangle is stored (N*(N-1)/2 entries), in the
    order of ``itertools.combinations(ids, 2)``, which is also the row
    order of ``sims.tsv``; the diagonal is implicitly 1.  :meth:`sim`
    reads one cell, and :meth:`block` gathers any rows x cols rectangle,
    the one gather k-medoids (as ``1 - block``) and ranking read the
    matrix through.
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

    def block(self, rows, cols) -> np.ndarray:
        """float32 similarities from the profiles at indices ``rows`` (axis
        0) to those at ``cols`` (axis 1); a cell of one profile with itself
        is 1.  At most 12 bytes per cell are held at once: the intp
        condensed index and the float32 result."""
        rows = np.asarray(rows, dtype=np.intp)[:, None]
        cols = np.asarray(cols, dtype=np.intp)[None, :]
        if self.condensed.size == 0:  # at most one profile
            return np.ones((rows.size, cols.size), dtype=np.float32)
        # _k(lo, hi) is hi plus _k(lo, 0), built in place in one array.  A
        # cell with rows == cols gets _k(i, i), in range (-1 wraps to the
        # last entry); it is overwritten below.
        index = np.maximum(rows, cols)
        np.add(index, self._k(rows, 0), out=index, where=rows <= cols)
        np.add(index, self._k(cols, 0), out=index, where=rows > cols)
        sims = self.condensed[index]
        del index
        sims[rows == cols] = 1.0
        return sims

    def scaled(self, factor: float) -> "SimilarityMatrix":
        return SimilarityMatrix(self.ids, self.condensed * np.float32(factor))


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
    """``scorer.rows`` of each chunk, in chunk order."""
    if workers == 1 or len(chunks) < 2:
        yield from map(scorer.rows, chunks)
        return
    with ThreadPoolExecutor(min(workers, len(chunks))) as pool:
        yield from pool.map(scorer.rows, chunks)


def build_similarity_matrix(
    profiles, word_sim, workers: int = 1, progress=None, *, word_table=None
) -> SimilarityMatrix:
    """Compute all N*(N-1)/2 profile similarities.

    Each distinct non-empty word set is scored once against every later
    one, and against itself when two profiles hold it; see the module
    docstring for the three steps and the memory they take.  The word
    table comes from ``word_table`` when it is given, called once as
    ``word_table(words, alone)``, and ``word_sim`` itself is not called.
    It returns ``(rows, table)``, a float64 table and the row of each word
    in it, with ``table[rows[i], rows[j]] == word_sim(words[i],
    words[j])`` for every ``i != j``, and for ``i == j`` unless
    ``alone[i]``, which marks a word whose own cell no grid reads, as
    :meth:`Taxonomy.word_table <tagrec.taxonomy.Taxonomy.word_table>`
    does.  Otherwise
    ``word_sim`` is called only in the calling thread, before any
    scoring, once for each unordered word pair that some scored grid
    holds.  With ``workers > 1``, a pool of threads scores contiguous
    ranges of distinct word sets from the finished word table; the result
    is the same.
    ``progress``, when given, is called with ``(done_pairs, total_pairs)``
    in profile pairs after each range.  One INFO log line gives the
    distinct set pairs scored, how many of them were settled at 0 without
    a grid, how many grids left their batch before its last round, and
    how many batches were matched, summed over every range.  The last two
    depend on how the pairs fall into ranges and batches; the scores do
    not.  ``workers`` below 1 raises :class:`InputError`, and no more
    threads are started than there are ranges.
    """
    if workers < 1:
        raise InputError(f"workers must be at least 1, got {workers}")
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
        scorer = _SetScorer(sets, mult > 1, word_sim, word_table)
        # profile pairs whose score each set row settles, for progress
        settled = mult * (mult.sum() - np.cumsum(mult)) + mult * (mult - 1) // 2
        done = 0
        stats: Counter = Counter()
        # at least 16 chunks for progress, and 4 per worker to balance the pool
        chunks = _row_chunks(d, 4 * max(workers, 4))
        for (lo, hi), (a, b, score, chunk_stats) in zip(chunks, _scored_chunks(scorer, chunks, workers)):
            scores[a, b] = score
            scores[b, a] = score
            stats.update(chunk_stats)
            done += int(settled[lo:hi].sum())
            if progress is not None:
                progress(done, total_pairs)
        del scorer  # the gather below needs no word table
        logger.info(
            "matcher: %d distinct set pairs, %d settled at 0 with no cell above 0, "
            "%d grids left their rounds early, %d greedy batches",
            d * (d - 1) // 2 + int(np.count_nonzero(mult > 1)),
            stats["zero_pairs"],
            stats["dropped_grids"],
            stats["batches"],
        )

    index = {s: a for a, s in enumerate(sets)}
    set_of = np.array([index[w] if w else d for w in words], dtype=np.intp)
    condensed = np.empty(total_pairs, dtype=np.float32)
    # A block row holds its scores row, float32 and bool rows of the block's
    # rectangle and its pairs.  A block of a quarter of GRID_BYTES adds nothing
    # to the tracemalloc peak of a 2,000-profile build; one of GRID_BYTES did.
    step = max(1, GRID_BYTES // 4 // (4 * (d + 1) + 9 * n))
    k = 0
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        block = scores.take(set_of[lo:hi], axis=0).take(set_of[lo + 1 :], axis=1)
        pairs = block[np.arange(lo + 1, n) > np.arange(lo, hi)[:, None]]
        condensed[k : k + pairs.size] = pairs
        k += pairs.size

    if progress is not None:
        progress(total_pairs, total_pairs)
    return SimilarityMatrix(ids, condensed)
