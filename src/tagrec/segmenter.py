"""Hashtag segmentation: lexicon-gated enumeration plus bigram disambiguation.

A hashtag body is split in two steps.  First every token sequence whose
words are all in the lexicon is enumerated; then, when several splits
compete, the one whose adjacent-word bigrams carry the highest joint
probability wins.  A body that is itself a dictionary word short-circuits
both steps.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from enum import Enum

from tagrec.corpus import BigramModel, Lexicon
from tagrec.errors import InputError
from tagrec.tsv import read_rows

DEFAULT_MAX_CANDIDATES = 256

_BODY_RE = re.compile(r"[a-z]+\Z")


class SegmentStatus(Enum):
    EXACT_WORD = "exact_word"
    UNIQUE = "unique"
    DISAMBIGUATED = "disambiguated"
    UNSEGMENTABLE = "unsegmentable"


@dataclass(frozen=True)
class Hashtag:
    """A raw hashtag and its normalized letters-only body."""

    raw: str
    normalized: str

    @classmethod
    def parse(cls, raw: str) -> "Hashtag":
        body = raw.strip()
        if body.startswith("#"):
            body = body[1:]
        body = body.lower()
        if not _BODY_RE.fullmatch(body):
            raise InputError(f"hashtag {raw!r} does not normalize to a non-empty letters-only body")
        return cls(raw=raw, normalized=body)


@dataclass(frozen=True)
class SegmentResult:
    hashtag: Hashtag
    tokens: tuple[str, ...]
    status: SegmentStatus
    log_score: float


def _as_hashtag(value: Hashtag | str) -> Hashtag:
    return value if isinstance(value, Hashtag) else Hashtag.parse(value)


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
    body = _as_hashtag(hashtag).normalized
    length = len(body)
    longest = min(lexicon.max_word_length, length)

    # words[i] = lexicon words starting at position i
    words: list[list[str]] = [[] for _ in range(length)]
    for i in range(length):
        for j in range(i + 1, min(length, i + longest) + 1):
            piece = body[i:j]
            if piece in lexicon:
                words[i].append(piece)

    # positions from which the end of the body is reachable
    reachable = [False] * (length + 1)
    reachable[length] = True
    for i in range(length - 1, -1, -1):
        reachable[i] = any(reachable[i + len(w)] for w in words[i])
    if not reachable[0]:
        return [], False

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
            if reachable[pos + len(w)]:
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

    Only the first ``DEFAULT_MAX_CANDIDATES`` splits in (token count,
    tokens) order are scored.
    """
    h = _as_hashtag(hashtag)
    if h.normalized in lexicon:
        return SegmentResult(h, (h.normalized,), SegmentStatus.EXACT_WORD, 0.0)

    candidates, _ = enumerate_segmentations(h, lexicon, DEFAULT_MAX_CANDIDATES)
    if not candidates:
        return SegmentResult(h, (), SegmentStatus.UNSEGMENTABLE, float("-inf"))
    if len(candidates) == 1:
        tokens = candidates[0]
        return SegmentResult(h, tokens, SegmentStatus.UNIQUE, score_segmentation(tokens, bigrams))

    # Candidates arrive ordered (fewest tokens, lexicographic); keeping the
    # first strict maximum realizes exactly that tie-break.
    best: tuple[str, ...] | None = None
    best_score = float("-inf")
    for tokens in candidates:
        s = score_segmentation(tokens, bigrams)
        if s > best_score:
            best, best_score = tokens, s
    if best is None:  # all paths hit unseen bigrams under a zero floor
        return SegmentResult(h, (), SegmentStatus.UNSEGMENTABLE, float("-inf"))
    return SegmentResult(h, best, SegmentStatus.DISAMBIGUATED, best_score)


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

    A case counts as correct only on an exact token-sequence match.
    Failures whose expected tokens are missing from the lexicon are
    flagged ``lexicon_miss``: the lexical step cannot succeed there.
    """
    golden = list(golden)
    if not golden:
        raise InputError("golden set is empty")
    correct = 0
    failures: list[SegmentationFailure] = []
    for raw, expected in golden:
        expected = tuple(expected)
        try:
            produced = segment(raw, lexicon, bigrams).tokens
        except InputError:
            produced = ()
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
