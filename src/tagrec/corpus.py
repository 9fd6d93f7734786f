"""Loaders for the word list and bigram table backing segmentation.

The lexicon gates which token sequences are considered valid splits of a
hashtag; the bigram model scores competing splits by their joint
probability mass in a reference corpus.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property

from tagrec.errors import EmptyResourceError, InputError, ParseError, ResourceError
from tagrec.tsv import read_rows

logger = logging.getLogger(__name__)

DEFAULT_FLOOR_PROB = 1e-9

_WORD_RE = re.compile(r"[a-z]+\Z")


@dataclass(frozen=True)
class Lexicon:
    """Set of valid lowercase words; lookups are exact-match."""

    words: frozenset[str]
    skipped_lines: int = 0

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    @cached_property
    def max_word_length(self) -> int:
        # Computed once per lexicon: the segmenter reads it for every hashtag.
        return max((len(w) for w in self.words), default=0)


class BigramModel:
    """Joint bigram probabilities: count(w1, w2) / total over all pairs.

    Unseen pairs receive ``floor_prob`` so every lexically valid path
    stays scoreable.  A floor of 0 makes paths through unseen bigrams
    score -inf, which the segmenter treats as rejected.
    """

    def __init__(self, counts: dict[tuple[str, str], int], floor_prob: float = DEFAULT_FLOOR_PROB):
        if not 0.0 <= floor_prob < 1.0:
            raise InputError(f"floor_prob must be in [0, 1), got {floor_prob}")
        self.counts = dict(counts)
        self.total = sum(self.counts.values())
        self.floor_prob = floor_prob

    def probability(self, w1: str, w2: str) -> float:
        count = self.counts.get((w1, w2))
        if count is None:
            return self.floor_prob
        return count / self.total

    def log_probability(self, w1: str, w2: str) -> float:
        p = self.probability(w1, w2)
        return math.log(p) if p > 0.0 else float("-inf")

    def __len__(self) -> int:
        return len(self.counts)


def load_lexicon(path) -> Lexicon:
    """Read a one-word-per-line UTF-8 file into a :class:`Lexicon`.

    Words are lowercased.  Lines containing anything but letters a-z are
    skipped and counted; the count is kept on the returned object for
    logging.  Raises :class:`EmptyResourceError` when no valid word
    survives.
    """
    words: set[str] = set()
    skipped = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                token = line.strip()
                if not token:
                    continue
                token = token.lower()
                if _WORD_RE.fullmatch(token):
                    words.add(token)
                else:
                    skipped += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise ResourceError(f"cannot read lexicon {path}: {exc}") from exc
    if not words:
        raise EmptyResourceError(f"lexicon {path} contains no valid words")
    if skipped:
        logger.info("lexicon %s: %d words, %d lines skipped", path, len(words), skipped)
    return Lexicon(words=frozenset(words), skipped_lines=skipped)


def load_bigrams(path, floor_prob: float = DEFAULT_FLOOR_PROB) -> BigramModel:
    """Read a TSV of ``w1<TAB>w2<TAB>count`` rows into a :class:`BigramModel`.

    Counts of duplicate rows are summed.  Words are lowercased so lookups
    agree with lexicon normalization.
    """
    counts: dict[tuple[str, str], int] = {}
    for line_no, (w1, w2, raw_count) in read_rows(path, 3, "bigrams"):
        w1, w2 = w1.strip().lower(), w2.strip().lower()
        if not w1 or not w2:
            raise ParseError(path, line_no, "empty word field")
        try:
            count = int(raw_count)
        except ValueError:
            raise ParseError(path, line_no, f"count is not an integer: {raw_count!r}") from None
        if count <= 0:
            raise ParseError(path, line_no, f"count must be positive, got {count}")
        key = (w1, w2)
        counts[key] = counts.get(key, 0) + count
    if not counts:
        raise EmptyResourceError(f"bigram file {path} contains no rows")
    return BigramModel(counts, floor_prob=floor_prob)
