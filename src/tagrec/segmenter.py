"""Hashtag segmentation: lexicon-gated splits plus bigram disambiguation.

A hashtag body may be split only into lexicon words; when several splits
compete, the one whose adjacent-word bigrams carry the highest joint
probability wins.  A body that is itself a dictionary word short-circuits
both steps.  :func:`segment` finds the winner with a Viterbi dynamic
program over the lexicon lattice (Norvig, "Natural Language Corpus
Data", *Beautiful Data*, 2009), so it never lists the splits;
:func:`enumerate_segmentations` lists them, up to a cap, for inspection
and for tests.  The lattice is built forward from the start of the
body, so the lexicon is asked for pieces only at positions that some
split of the text before them reaches.  A result depends on the body
alone, so :func:`tagrec.profiles.build_profiles` gathers the distinct
raw hashtags of all its users first; then one loop there parses each of
them once with :meth:`Hashtag.parse` and calls :func:`segment` once per
distinct body.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from tagrec.corpus import _WORD_RE, BigramModel, Lexicon
from tagrec.errors import InputError
from tagrec.tsv import read_rows

DEFAULT_MAX_CANDIDATES = 256


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
        if not _WORD_RE.fullmatch(body):
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


def _lattice(body: str, lexicon: Lexicon) -> tuple[list[list[str]], list[int]]:
    """The lexicon words of ``body`` that lie on some complete split.

    Returns ``(words, paths)``, defined at the positions that a split of
    ``body[:i]`` into lexicon words reaches, 0 among them: there
    ``words[i]`` lists the lexicon words that start at ``i`` and after
    which the rest of the body still splits, in order of length, and
    ``paths[i]`` counts the splits of ``body[i:]``, capped at 2.  At every
    other position ``words[i]`` is ``[]`` and ``paths[i]`` is 0.

    The lattice is built forward from position 0, so the lexicon is asked
    for pieces only at positions an earlier word ends at; the paths are
    then counted backward over those positions only.
    """
    length = len(body)
    prefixes = lexicon.prefixes
    words: list[list[str]] = [[] for _ in range(length)]
    # 1 marks position 0 and each position a word ends at, until its paths are counted
    paths = [0] * (length + 1)
    paths[0] = 1
    starts = []
    for i in range(length):
        if not paths[i]:
            continue
        starts.append(i)
        here = words[i]
        for j in range(i + 1, length + 1):
            word = prefixes.get(body[i:j])
            if word is None:
                break
            if word:
                here.append(word)
                paths[j] = 1
    # paths[length] keeps its mark: 1 when a word ends there, else 0
    for i in reversed(starts):
        count = 0
        onward = []
        for w in words[i]:
            n = paths[i + len(w)]
            if n:
                onward.append(w)
                count += n
        words[i] = onward
        paths[i] = 2 if count > 2 else count
    return words, paths


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
    words, paths = _lattice(body, lexicon)
    if not paths[0]:
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

    Every split is considered, without enumerating them: a Viterbi pass
    runs left to right over (end position, last word) states of the
    lexicon lattice, where the score of a path is the left-to-right sum
    :func:`score_segmentation` computes.  Each state keeps the prefixes no
    other prefix there dominates (see :func:`_keep`), so the result is the
    exact argmax of the rules above.
    """
    h = _as_hashtag(hashtag)
    body = h.normalized
    if body in lexicon:
        return SegmentResult(h, (body,), SegmentStatus.EXACT_WORD, 0.0)

    length = len(body)
    words, paths = _lattice(body, lexicon)
    if not paths[0]:
        return SegmentResult(h, (), SegmentStatus.UNSEGMENTABLE, float("-inf"))
    if paths[0] == 1:
        # One split: every position on it has exactly one word onward.
        tokens: list[str] = []
        pos = 0
        while pos < length:
            (w,) = words[pos]
            tokens.append(w)
            pos += len(w)
        return SegmentResult(h, tuple(tokens), SegmentStatus.UNIQUE, score_segmentation(tokens, bigrams))

    # states[i][w]: the non-dominated (score, tokens) prefixes that cover
    # body[:i] and end in the word w.
    states: list[dict[str, list[tuple[float, tuple[str, ...]]]]] = [{} for _ in range(length + 1)]
    for w in words[0]:
        states[len(w)][w] = [(0.0, (w,))]
    for pos in range(1, length):
        here = states[pos]
        if not here:
            continue
        for w in words[pos]:
            front = states[pos + len(w)].setdefault(w, [])
            for prev, prefixes in here.items():
                step = bigrams.log_probability(prev, w)
                for score, tokens in prefixes:
                    _keep(front, score + step, tokens + (w,))
    best_score, best = min(
        (p for front in states[length].values() for p in front), key=lambda p: (-p[0], len(p[1]), p[1])
    )
    if best_score == float("-inf"):  # all paths hit unseen bigrams under a zero floor
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
