"""Hashtag segmentation: lexicon-gated splits plus bigram disambiguation.

A hashtag body may be split only into lexicon words; when several splits
compete, the one whose adjacent-word bigrams carry the highest joint
probability wins.  A body that is itself a dictionary word wins unsplit.
:func:`segment_all` segments a batch of hashtags at once: one walk of
the lexicon's character trie (:attr:`Lexicon.trie`) finds the lattice of
lexicon words of every body in lock-step, round r starting a walk at
every position that a split of r words reaches, in the manner of Aho and
Corasick's many-pattern matcher (1975).  The whole batch is then scored
in numpy, as columns of statuses, scores and trie word states
(:func:`segment_columns`), by one Viterbi dynamic program over every
body's lattice (Norvig, "Natural Language Corpus Data", *Beautiful
Data*, 2009), which finds each winner without listing the splits, in
rounds by token count over all bodies at once (:func:`_disambiguate`).
A body's status follows from its count of splits and its winner's token
count.  :func:`segment_all` is also the one place that parses raw
hashtags: an input that does not normalize gets an ``invalid`` result in
its place instead of ending the batch, and since a result depends on the
body alone, each distinct body is walked and segmented once however
often it occurs.  :func:`segment` is a batch of one that raises on an
invalid input.  :func:`enumerate_segmentations` lists the splits, up to
a cap, in plain Python that shares no code with the batch: it is the
tests' oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from typing import Iterator, NamedTuple

import numpy as np

from tagrec.corpus import DEAD, DEAD_COLUMN, ROOT, BigramModel, Lexicon, Trie
from tagrec.errors import InputError
from tagrec.tsv import read_rows

DEFAULT_MAX_CANDIDATES = 256


class SegmentStatus(Enum):
    EXACT_WORD = "exact_word"
    UNIQUE = "unique"
    DISAMBIGUATED = "disambiguated"
    UNSEGMENTABLE = "unsegmentable"
    INVALID = "invalid"


def _normalize(raw: str) -> str:
    """The letters-only body of a raw hashtag, or ``""`` if it has none."""
    body = raw.strip().removeprefix("#").lower()
    return body if body.isascii() and body.isalpha() else ""


def _invalid(raw: str) -> InputError:
    return InputError(f"hashtag {raw!r} does not normalize to a non-empty letters-only body")


@dataclass(frozen=True, slots=True)
class Hashtag:
    """A raw hashtag and its normalized letters-only body.

    The body is the raw text stripped of surrounding whitespace and one
    leading ``#``, lowercased; it normalizes when that is one or more
    letters ``a``-``z``.  :meth:`parse` raises where it does not, while
    :func:`segment_all` gives such an input ``Hashtag(raw, "")`` and an
    ``invalid`` result.
    """

    raw: str
    normalized: str

    @classmethod
    def parse(cls, raw: str) -> "Hashtag":
        body = _normalize(raw)
        if not body:
            raise _invalid(raw)
        return cls(raw=raw, normalized=body)


@dataclass(frozen=True)
class SegmentResult:
    hashtag: Hashtag
    tokens: tuple[str, ...]
    status: SegmentStatus
    log_score: float


class _Lattice(NamedTuple):
    """The lexicon lattice of a batch of bodies, from :func:`_walk`.

    Positions index the bodies joined by a separator: body ``k`` spans
    ``starts[k]`` up to the separator at ``starts[k] + len(body)``.
    ``walked[p]`` is true where a walk started, which is at every position
    that a split reaches, the body's end among them.  ``paths[p]`` counts
    the splits of the rest of its body from there, capped at 2: 1 at a
    reached end, 0 at every position no split reaches.  The edges are the
    lexicon words on some complete split, ordered by start, then length:
    ``origin`` is where each starts and ``state`` the trie state that
    spells it.  Body ``k``'s edges are those from ``bounds[k]`` up to
    ``bounds[k + 1]``.
    """

    starts: np.ndarray
    walked: np.ndarray
    paths: np.ndarray
    origin: np.ndarray
    state: np.ndarray
    bounds: np.ndarray


def _walk(bodies: list[str], trie: Trie) -> _Lattice:
    """Find the lexicon lattice of every body at once, in lock-step.

    Round r starts a walk at every position that a split of r words
    reaches, in every body, and advances them all one letter at a time
    through the trie; each word end found that no walk has started at
    starts one in the next round.  The paths are then counted backward,
    for all bodies at once a position within them at a time, and the
    edges that lead to no complete split are dropped.  Positions are
    int32, so the joined bodies must hold fewer than 2**31 characters.
    """
    text = ("\n".join(bodies) + "\n").encode("ascii")
    if len(text) >= 2**31:
        raise InputError(f"cannot segment {len(text)} characters of hashtag bodies in one batch")
    column = np.frombuffer(text, np.uint8) - np.uint8(ord("a"))
    del text
    np.minimum(column, DEAD_COLUMN, out=column)
    lengths = np.fromiter(map(len, bodies), np.int32, len(bodies))
    starts = np.cumsum(lengths + 1, dtype=np.int32) - (lengths + 1)
    table, is_word = trie.table.ravel(), trie.is_word
    walked = np.zeros(column.size, bool)
    walked[starts] = True
    # every word found, as origin << 32 | state; a state's id exceeds its
    # parent's, so sorted these run by origin, then length
    front, found = starts, [np.zeros(0, np.int64)]
    while front.size:
        origin, state, step, ahead = front, np.full(front.size, ROOT, np.int32), 0, [starts[:0]]
        while origin.size:
            state = table[state * (DEAD_COLUMN + 1) + column[origin + step]]
            step += 1
            live = state != DEAD
            origin, state = origin[live], state[live]
            hit = is_word[state]
            if np.count_nonzero(hit):
                word = origin[hit]
                found.append(word.astype(np.int64) << 32 | state[hit])
                end = word + step
                new = end[~walked[end]]
                walked[new] = True
                ahead.append(new)
        front = np.concatenate(ahead)
    edges = np.concatenate(found)
    del found
    edges.sort()
    origin, state = (edges >> 32).astype(np.int32), (edges & 0xFFFFFFFF).astype(np.int32)
    del edges
    end = origin + trie.depth[state]
    paths = np.zeros(column.size, np.int8)
    ends = starts + lengths
    paths[ends] = walked[ends]
    within = origin - np.repeat(starts, np.diff(_bounds(origin, starts, column.size)))
    for i in range(int(within.max(initial=0)), -1, -1):
        at = (within == i).nonzero()[0]  # the words from position i of each body, all ending past it
        if not at.size:
            continue
        here = origin[at]
        heads = firsts(here).nonzero()[0]  # where each origin's words begin
        paths[here[heads]] = np.minimum(np.add.reduceat(paths[end[at]], heads, dtype=np.intp), 2)
    keep = paths[end] > 0
    origin, state = origin[keep], state[keep]
    return _Lattice(starts, walked, paths, origin, state, _bounds(origin, starts, column.size))


def _bounds(origin: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """Where each body's edges begin in the sorted ``origin``, then its size."""
    return np.searchsorted(origin, np.append(starts, size))


def enumerate_segmentations(
    hashtag: str,
    lexicon: Lexicon,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[list[tuple[str, ...]], bool]:
    """List every split of the hashtag body into lexicon words.

    Returns ``(segmentations, truncated)``.  Segmentations are ordered by
    token count, then lexicographically, and at most ``max_candidates``
    are returned; ``truncated`` reports whether more existed.  A hashtag
    that does not normalize raises :class:`InputError`, as in
    :func:`segment`.  The splits are listed in plain Python, sharing no
    code with :func:`segment_all`, so the tests can check one against the
    other.
    """
    if max_candidates < 1:
        raise InputError(f"max_candidates must be positive, got {max_candidates}")
    body = Hashtag.parse(hashtag).normalized
    length = len(body)
    # words[i]: the lexicon words from i after which the rest of the body
    # still splits, by length, found from the body's end backward
    words: list[list[str]] = [[] for _ in body]
    for i in range(length - 1, -1, -1):
        for j in range(i + 1, length + 1):
            if (j == length or words[j]) and body[i:j] in lexicon.words:
                words[i].append(body[i:j])

    # Best-first expansion pops complete paths in (token count, tokens)
    # order, so truncation keeps the fewest-token candidates.
    results: list[tuple[str, ...]] = []
    frontier: list[tuple[int, tuple[str, ...], int]] = [(0, (), 0)]
    while frontier and len(results) <= max_candidates:
        count, tokens, pos = heapq.heappop(frontier)
        if pos == length:
            results.append(tokens)
            continue
        for w in words[pos]:
            heapq.heappush(frontier, (count + 1, tokens + (w,), pos + len(w)))
    truncated = len(results) > max_candidates
    return results[:max_candidates], truncated


def score_segmentation(tokens, bigrams: BigramModel) -> float:
    """Sum of log bigram probabilities along the token path; 0 for one token."""
    if not tokens:
        raise InputError("cannot score an empty segmentation")
    total = 0.0
    for prev, cur in zip(tokens, tokens[1:]):
        total += bigrams.log_probability(prev, cur)
    return total


def segment(hashtag: str, lexicon: Lexicon, bigrams: BigramModel) -> SegmentResult:
    """Split a hashtag into its most probable sequence of lexicon words.

    Selection rules, in order:

    * the whole body is itself a lexicon word -> that single word wins
      outright (status ``exact_word``), regardless of bigram scores;
    * exactly one lexically valid split exists -> returned as ``unique``;
    * several exist -> the highest-scoring one is returned as
      ``disambiguated``; ties go to fewer tokens, then lexicographic
      token order;
    * none exist (or, with a zero bigram floor, all score -inf) ->
      ``unsegmentable`` with no tokens.

    This is :func:`segment_all` of a batch of one, except that a hashtag
    whose result would be ``invalid`` raises :class:`InputError`.
    """
    result = next(segment_all([hashtag], lexicon, bigrams))
    if result.status is SegmentStatus.INVALID:
        raise _invalid(result.hashtag.raw)
    return result


def segment_all(hashtags, lexicon: Lexicon, bigrams: BigramModel) -> Iterator[SegmentResult]:
    """Segment every raw hashtag by the rules of :func:`segment`, in order.

    A hashtag that does not normalize gets an ``invalid`` result in its
    place: no tokens, a log score of -inf and ``Hashtag(raw, "")``.  One
    :func:`segment_columns` call parses every input and segments each
    distinct body once, before the first result; the results are yielded
    one per input.
    """
    raws = list(hashtags)
    segmented = segment_columns(raws, lexicon, bigrams)
    names = lexicon.trie.words[segmented.tokens].tolist()
    bounds = segmented.bounds.tolist()
    results = [
        (tuple(names[a:b]), _STATUSES[code], score)
        for code, score, a, b in zip(segmented.status.tolist(), segmented.score.tolist(), bounds, bounds[1:])
    ]
    # bodies[-1] and results[-1], for body_of's -1
    bodies = segmented.bodies + [""]
    results.append(((), SegmentStatus.INVALID, float("-inf")))
    for raw, k in zip(raws, segmented.body_of.tolist()):
        yield SegmentResult(Hashtag(raw, bodies[k]), *results[k])


# A body's status, by its code in _Segmented.status.
_STATUSES = (SegmentStatus.EXACT_WORD, SegmentStatus.UNIQUE, SegmentStatus.DISAMBIGUATED, SegmentStatus.UNSEGMENTABLE)
_EXACT, _UNIQUE, _DISAMBIGUATED, _UNSEGMENTABLE = range(len(_STATUSES))


class _Segmented(NamedTuple):
    """A batch of hashtags segmented, as columns, from :func:`segment_columns`.

    ``bodies`` are the distinct non-empty bodies, in order of first
    appearance, and ``body_of[i]`` is input i's index among them, or -1
    where the input is invalid.  Body k has the status
    ``_STATUSES[status[k]]``, the log score ``score[k]`` and the tokens
    ``tokens[bounds[k]:bounds[k + 1]]``, as int32 trie word states.
    """

    bodies: list[str]
    body_of: np.ndarray
    status: np.ndarray
    score: np.ndarray
    tokens: np.ndarray
    bounds: np.ndarray


def segment_columns(hashtags, lexicon: Lexicon, bigrams: BigramModel) -> _Segmented:
    """Segment every raw hashtag by the rules of :func:`segment`, as columns.

    One :func:`_walk` finds the lattice of each distinct body, and one
    :func:`_disambiguate` call scores every body on it.  Each status then
    follows from the count of splits at the body's start and the winner's
    token count.  A one-token winner is the exact word: it scores 0.0, no
    split scores more, since no bigram log probability is above 0, and a
    tie goes to fewer tokens.  A body with one split takes the winner's
    score, -inf where it has none, and keeps its lattice edges as tokens
    either way, since every edge of its lattice lies on that split.  A
    body with several splits and no winner is ``unsegmentable``.
    """
    normalized = list(map(_normalize, hashtags))
    bodies = list(dict.fromkeys(filter(None, normalized)))
    index = dict(zip(bodies, range(len(bodies))))
    body_of = np.fromiter(map(index.get, normalized, repeat(-1)), np.intp, len(normalized))
    trie = lexicon.trie
    lattice = _walk(bodies, trie)
    log_prob = _bigram_log_probs(trie, bigrams)
    lengths = np.fromiter(map(len, bodies), np.int32, len(bodies))
    per_body = np.diff(lattice.bounds)
    body = np.repeat(np.arange(len(bodies), dtype=np.int32), per_body)  # the body of each edge
    starts, state = lattice.starts, lattice.state
    score, won, chosen = _disambiguate(lattice.origin, state, body, starts, starts + lengths, trie.depth, log_prob)
    status = np.array([_UNSEGMENTABLE, _UNIQUE, _DISAMBIGUATED], np.int8)[lattice.paths[starts]]
    unique = status == _UNIQUE
    status[won == 1] = _EXACT
    status[(status == _DISAMBIGUATED) & (won == 0)] = _UNSEGMENTABLE
    n_tokens = np.where(unique, per_body, won)
    bounds = np.zeros(len(bodies) + 1, np.intp)
    np.cumsum(n_tokens, out=bounds[1:])
    tokens = np.empty(bounds[-1], np.int32)
    edges = np.repeat(unique, n_tokens)
    tokens[edges] = state[unique[body]]
    tokens[~edges] = chosen[np.repeat(~unique, won)]
    return _Segmented(bodies, body_of, status, score, tokens, bounds)


def _disambiguate(origin, state, body, starts, ends, depth, log_prob):
    """The winning split of every body, by one Viterbi in rounds.

    ``origin`` and ``state`` are the bodies' lattice edges, in
    :func:`_walk`'s order, ``body`` gives each edge's body, and body k
    spans ``starts[k]`` up to ``ends[k]``.  Returns each body's winning
    score and token count, and the winners' tokens laid end to end in
    body order; a body none of whose splits scores above -inf gets -inf
    and no tokens.  A split's score is summed as it is extended, a word
    at a time, ``((0.0 + lp1) + lp2) + ...``: the same additions in the
    same order as :func:`score_segmentation`, so the floats are the same.

    A state of the Viterbi, an (end, last word) pair, is an edge.  Round t
    holds the t-token prefixes of all bodies as (edge, parent, score)
    rows, the edge being the last word's, in rank order: by the parent's
    rank, then by the word's state.  The words that can follow one parent
    all start at its end, and word states are numbered in sorted word
    order, so the ranks order the rows' tokens as strings, and each edge
    sees its rows in (token count, tokens) order, round after round.

    A row dominates a later row at its edge when its score is at least as
    high: from there both get the same terms added in the same order, and
    float addition is monotone, so the later row can never win.  A row is
    kept only if its score is strictly above that of every earlier row at
    its edge: the rows of earlier rounds (``best_at``), then those before
    it in its own round.  Dominance is transitive, so comparing with every
    earlier row, kept or not, is comparing with the kept ones, and the
    rows kept are exactly those that no other row dominates.  A row with a
    lower score but a smaller key must be kept: extended, the two scores
    can round to a tie, which the smaller key wins.  A row scoring -inf is
    dropped as well; it leads only to splits scoring -inf, which are
    ``unsegmentable``.

    The winner is the highest-scoring row to reach its body's end, ties
    going to the earlier round, then to the smaller rank: fewer tokens,
    then token order, as :func:`segment`'s rules say.  Each round keeps
    only its (edge, parent) rows, for one backtrack of all winners at the
    end.
    """
    edges = origin.size
    end = origin + depth[state]
    next_lo = np.searchsorted(origin, end)  # the edges that can follow edge i: next_count[i] from next_lo[i]
    next_count = np.searchsorted(origin, end, "right") - next_lo
    final = end == ends[body]
    best_at = np.full(edges, -np.inf)  # the highest score kept at each edge so far
    best = np.full(starts.size, -np.inf)
    won = np.zeros(starts.size, np.intp)  # the round of each body's winner, 0 while it has none
    won_at = np.zeros(starts.size, np.intp)  # the winner's row in that round
    rounds: list[tuple[np.ndarray, np.ndarray]] = []  # each round's (edge, parent) rows
    edge = np.flatnonzero(origin == starts[body]).astype(np.int32)
    parent = np.full(edge.size, -1, np.int32)
    score = np.zeros(edge.size)
    while edge.size:
        keep = score > best_at[edge]
        edge, parent, score = edge[keep], parent[keep], score[keep]
        # Each edge's rows by descending score, ties in rank order; a row is
        # kept if every row before it there has a larger rank.  The key falls
        # from edge to edge, so its running minimum never crosses an edge.
        order = np.lexsort((-score, edge))
        key = (edges - edge[order].astype(np.int64)) * edge.size + order
        kept = np.empty(edge.size, bool)
        kept[order] = np.minimum.accumulate(key) == key
        head = order[firsts(edge[order])]  # each edge's highest row
        best_at[edge[head]] = score[head]
        edge, parent, score = edge[kept], parent[kept], score[kept]
        rounds.append((edge, parent))
        done = np.flatnonzero(final[edge])
        if done.size:
            # each body's best complete row of this round, ties in rank order
            done = done[np.lexsort((-score[done], body[edge[done]]))]
            done = done[firsts(body[edge[done]])]
            done = done[score[done] > best[body[edge[done]]]]
            best[body[edge[done]]] = score[done]
            won[body[edge[done]]] = len(rounds)
            won_at[body[edge[done]]] = done
        count = next_count[edge]
        parent = np.repeat(np.arange(edge.size, dtype=np.int32), count)
        child = ranges(next_lo[edge], count).astype(np.int32)
        score = score[parent] + log_prob(state[edge[parent]], state[child])
        edge = child
    tokens = np.empty(won.sum(), np.int32)
    row = at = np.zeros(0, np.intp)
    offset = np.cumsum(won) - won
    for t in range(len(rounds), 0, -1):  # backtrack all winners at once, last tokens first
        new = np.flatnonzero(won == t)
        row, at = np.concatenate((row, won_at[new])), np.concatenate((at, offset[new] + t - 1))
        edge, parent = rounds[t - 1]
        tokens[at] = state[edge[row]]
        row, at = parent[row], at - 1
    return best, won, tokens


def firsts(values: np.ndarray) -> np.ndarray:
    """A mask of the first value of each run of equal values."""
    first = np.ones(values.size, bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i] + j`` for each ``j < counts[i]``, for each ``i`` in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)


def _bigram_log_probs(trie: Trie, bigrams: BigramModel):
    """:meth:`BigramModel.log_probability` over two arrays of trie word states.

    The seen pairs of lexicon words are looked up in one sorted table
    keyed by ``prev << 32 | cur``, and give the exact floats that
    ``log_probability`` returns.
    """
    seen, floor = bigrams.log_probabilities()
    # each seen pair's two word states, -1 for a word outside the lexicon
    pair = np.fromiter(map(trie.state_of.get, chain.from_iterable(seen), repeat(-1)), np.int64, 2 * len(seen))
    pair = pair.reshape(-1, 2)
    known = (pair >= 0).all(axis=1)
    keys = pair[known, 0] << 32 | pair[known, 1]
    order = np.argsort(keys)
    # one key above every pair's, so that every lookup lands on a key
    keys = np.append(keys[order], np.iinfo(np.int64).max)
    values = np.append(np.fromiter(seen.values(), np.float64, len(seen))[known][order], floor)

    def log_prob(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
        key = prev.astype(np.int64) << 32 | cur
        at = np.searchsorted(keys, key)
        return np.where(keys[at] == key, values[at], floor)

    return log_prob


@dataclass(frozen=True)
class SegmentationFailure:
    hashtag: str
    expected: tuple[str, ...]
    produced: tuple[str, ...]
    lexicon_miss: bool


@dataclass(frozen=True)
class EvaluationReport:
    total: int
    correct: int
    failures: tuple[SegmentationFailure, ...] = field(default=())

    @property
    def success_rate(self) -> float:
        return self.correct / self.total


def evaluate_segmenter(golden, lexicon: Lexicon, bigrams: BigramModel) -> EvaluationReport:
    """Score the segmenter against ``(hashtag, expected tokens)`` pairs.

    A case counts as correct only on an exact token-sequence match; a
    hashtag that does not normalize produces no tokens.  Every hashtag is
    segmented in one :func:`segment_all` batch.  Failures whose expected
    tokens are missing from the lexicon are flagged ``lexicon_miss``: the
    lexical step cannot succeed there.
    """
    golden = [(raw, tuple(expected)) for raw, expected in golden]
    if not golden:
        raise InputError("golden set is empty")
    correct = 0
    failures: list[SegmentationFailure] = []
    for (raw, expected), result in zip(golden, segment_all([raw for raw, _ in golden], lexicon, bigrams)):
        produced = result.tokens
        if produced == expected:
            correct += 1
        else:
            miss = any(tok not in lexicon for tok in expected)
            failures.append(SegmentationFailure(raw, expected, produced, miss))
    return EvaluationReport(total=len(golden), correct=correct, failures=tuple(failures))


def load_golden(path) -> list[tuple[str, tuple[str, ...]]]:
    """Read a golden TSV of ``hashtag<TAB>token1 token2 ...`` rows."""
    return [
        (hashtag.strip(), tuple(tokens.split())) for _, (hashtag, tokens) in read_rows(path, 2, "golden set")
    ]
