"""Hashtag segmentation: lexicon-gated splits plus bigram disambiguation.

A hashtag body may be split only into lexicon words; when several splits
compete, the one whose adjacent-word bigrams carry the highest joint
probability wins.  A body that is itself a dictionary word short-circuits
both steps.  :func:`segment_all` segments a batch of hashtags at once:
one walk of the lexicon's character trie (:attr:`Lexicon.trie`) finds
the lattice of lexicon words of every body in lock-step, round r starting
a walk at every position that a split of r words reaches, in the manner
of Aho and Corasick's many-pattern matcher (1975).  Where one split
exists its words are read off the lattice; where several do, a Viterbi
dynamic program over the lattice (Norvig, "Natural Language Corpus
Data", *Beautiful Data*, 2009) finds the winner without listing the
splits.  :func:`segment_all` is also the one place that parses raw
hashtags: an input that does not normalize gets an ``invalid`` result
in its place instead of ending the batch, and since a result depends on
the body alone, each distinct body is walked and segmented once however
often it occurs.  :func:`segment` is a batch of one that raises on an
invalid input, and :func:`enumerate_segmentations` lists the splits, up
to a cap, for inspection and for tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from tagrec.corpus import _WORD_RE, DEAD, DEAD_COLUMN, ROOT, BigramModel, Lexicon, Trie
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
    return body if _WORD_RE.fullmatch(body) else ""


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
    text = ("\n".join(bodies) + "\n").encode("ascii", "replace")  # one byte per character
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
        head = np.ones(at.size, bool)  # where each origin's words begin
        np.not_equal(here[1:], here[:-1], out=head[1:])
        heads = head.nonzero()[0]
        paths[here[heads]] = np.minimum(np.add.reduceat(paths[end[at]], heads, dtype=np.intp), 2)
    keep = paths[end] > 0
    origin, state = origin[keep], state[keep]
    return _Lattice(starts, walked, paths, origin, state, _bounds(origin, starts, column.size))


def _bounds(origin: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """Where each body's edges begin in the sorted ``origin``, then its size."""
    return np.searchsorted(origin, np.append(starts, size))


def enumerate_segmentations(
    hashtag: Hashtag | str,
    lexicon: Lexicon,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[list[tuple[str, ...]], bool]:
    """List every split of the hashtag body into lexicon words.

    Returns ``(segmentations, truncated)``.  Segmentations are ordered by
    token count, then lexicographically, and at most ``max_candidates``
    are returned; ``truncated`` reports whether more existed.
    """
    if max_candidates < 1:
        raise InputError(f"max_candidates must be positive, got {max_candidates}")
    body = (hashtag if isinstance(hashtag, Hashtag) else Hashtag.parse(hashtag)).normalized
    length = len(body)
    trie = lexicon.trie
    lattice = _walk([body], trie)
    if not lattice.paths[0]:
        return [], False
    # words[i]: the lexicon words from i on some complete split, by length
    words: list[list[str]] = [[] for _ in body]
    for i, w in zip(lattice.origin.tolist(), trie.words[lattice.state].tolist()):
        words[i].append(w)

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


def _keep(front: list[tuple[float, tuple[str, ...]]], score: float, tokens: tuple[str, ...]) -> None:
    """Add a prefix to ``front`` unless another prefix there dominates it.

    A prefix dominates another at the same (end, last word) state when its
    score is at least as high and its (token count, tokens) key is smaller.
    Every extension adds the same terms to both scores in the same order,
    and float addition is monotone, so a dominated prefix can never become
    the winning split; a prefix with a lower score but a smaller key can,
    when the extended scores round to a tie.
    """
    key = (len(tokens), tokens)
    if any(s >= score and (len(t), t) < key for s, t in front):
        return
    front[:] = [(s, t) for s, t in front if not (score >= s and key < (len(t), t))]
    front.append((score, tokens))


def segment(hashtag: Hashtag | str, lexicon: Lexicon, bigrams: BigramModel) -> SegmentResult:
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
    """Segment every hashtag by the rules of :func:`segment`, in order.

    ``hashtags`` holds raw strings, parsed here, and :class:`Hashtag`
    values.  A raw string that does not normalize, and a ``Hashtag`` with
    an empty body, give an ``invalid`` result in their place: no tokens,
    a log score of -inf and ``Hashtag(raw, "")``.  Every input is parsed,
    and one :func:`_walk` finds the lattice of each distinct non-empty
    body, in order of first appearance, before the first result; each
    body is segmented once, and the results are yielded one per input.
    """
    tags = [h if isinstance(h, Hashtag) else Hashtag(h, _normalize(h)) for h in hashtags]
    bodies = list(dict.fromkeys(h.normalized for h in tags if h.normalized))
    segmented = dict(zip(bodies, _segment_bodies(bodies, lexicon, bigrams)))
    segmented[""] = (), SegmentStatus.INVALID, float("-inf")  # the body of every invalid input
    for h in tags:
        yield SegmentResult(h, *segmented[h.normalized])


def _segment_bodies(bodies: list[str], lexicon: Lexicon, bigrams: BigramModel):
    """Yield ``(tokens, status, log_score)`` for each body, in order.

    Every split is considered, without enumerating them: a Viterbi pass
    runs left to right over (end position, last word) states of the
    lexicon lattice, where the score of a path is the left-to-right sum
    :func:`score_segmentation` computes.  Each state keeps the prefixes no
    other prefix there dominates (see :func:`_keep`), so the result is the
    exact argmax of :func:`segment`'s rules.  A body with one split needs
    no such pass: every edge of its lattice lies on that split.
    """
    trie = lexicon.trie
    lattice = _walk(bodies, trie)
    names = trie.words[lattice.state].tolist()  # the word of each edge
    bounds = lattice.bounds.tolist()
    for k, (body, n) in enumerate(zip(bodies, lattice.paths[lattice.starts].tolist())):
        if body in lexicon:
            yield (body,), SegmentStatus.EXACT_WORD, 0.0
            continue
        if not n:
            yield (), SegmentStatus.UNSEGMENTABLE, float("-inf")
            continue
        edges = slice(bounds[k], bounds[k + 1])
        words = names[edges]
        if n == 1:
            tokens = tuple(words)
            yield tokens, SegmentStatus.UNIQUE, score_segmentation(tokens, bigrams)
            continue
        # states[i][w]: the non-dominated (score, tokens) prefixes that cover
        # body[:i] and end in the word w.
        states: dict[int, dict[str, list[tuple[float, tuple[str, ...]]]]] = {}
        for pos, w in zip((lattice.origin[edges] - lattice.starts[k]).tolist(), words):
            front = states.setdefault(pos + len(w), {}).setdefault(w, [])
            if not pos:
                front.append((0.0, (w,)))
                continue
            for prev, prefixes in states[pos].items():
                step = bigrams.log_probability(prev, w)
                for score, tokens in prefixes:
                    _keep(front, score + step, tokens + (w,))
        best_score, best = min(
            (p for front in states[len(body)].values() for p in front), key=lambda p: (-p[0], len(p[1]), p[1])
        )
        if best_score == float("-inf"):  # all paths hit unseen bigrams under a zero floor
            yield (), SegmentStatus.UNSEGMENTABLE, float("-inf")
        else:
            yield best, SegmentStatus.DISAMBIGUATED, best_score


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
