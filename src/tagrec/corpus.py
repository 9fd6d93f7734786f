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
from types import MappingProxyType
from typing import Mapping

import numpy as np

from tagrec.config import DEFAULT_FLOOR_PROB
from tagrec.errors import EmptyResourceError, InputError, ParseError, ResourceError
from tagrec.tsv import read_rows

logger = logging.getLogger(__name__)

_WORD_RE = re.compile(r"[a-z]+\Z")

# Trie states and columns: see Trie.
DEAD, ROOT = 0, 1
DEAD_COLUMN = 26


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
    def trie(self) -> Trie:
        """The words as a character trie; built on first use, then kept."""
        return Trie.build(self.words)


@dataclass(frozen=True)
class Trie:
    """A character trie over a-z words, as an int32 transition table.

    ``table[s, c]`` is the state reached from state ``s`` by letter ``c``
    (0 for a up to 25 for z).  Column :data:`DEAD_COLUMN`, to which every
    byte outside a-z maps, and every transition that leaves the words lead
    to state :data:`DEAD`, which every column maps back to itself; the
    empty prefix is state :data:`ROOT`, and a state's id exceeds its
    parent's.  ``depth[s]`` is the length of the prefix state ``s``
    spells; ``is_word[s]`` flags the states that spell a whole word, and
    ``words[s]`` (an object array) is that word, the lexicon's own string,
    else None.  Word states are numbered in sorted word order, so ordering
    words by state orders them as strings.  Words with a character outside
    a-z are left out: no body that :meth:`tagrec.segmenter.Hashtag.parse`
    gives can hold one.
    """

    table: np.ndarray
    depth: np.ndarray
    is_word: np.ndarray
    words: np.ndarray

    @classmethod
    def build(cls, words) -> "Trie":
        # Sorted, each word shares its longest common prefix with the word
        # before it, and adds a new state for each longer prefix of its
        # own: numbered word by word, so each state exceeds its parent.
        spelled = sorted(filter(_WORD_RE.match, words))
        width = max(map(len, spelled), default=1)
        # letter[i, d]: letter d of word i, DEAD_COLUMN past its end
        padded = np.array(spelled, dtype=f"S{width}").view(np.uint8).reshape(len(spelled), width)
        letter = np.minimum(padded - np.uint8(ord("a")), DEAD_COLUMN)
        length = np.fromiter(map(len, spelled), np.intp, len(spelled))
        shared = np.zeros(len(spelled), np.intp)
        if len(spelled) > 1:  # distinct words differ within the width
            shared[1:] = np.argmin(letter[1:] == letter[:-1], axis=1)
        depth = np.arange(1, width + 1)
        new = (depth > shared[:, None]) & (depth <= length[:, None])  # word i's own prefixes
        states = ROOT + 1 + np.count_nonzero(new)
        node = np.zeros(new.shape, np.int32)
        node[new] = np.arange(ROOT + 1, states, dtype=np.int32)
        np.maximum.accumulate(node, axis=0, out=node)  # a shared prefix's state: the last word's
        parent = np.hstack((np.full((len(spelled), 1), ROOT, np.int32), node[:, :-1]))
        table = np.zeros((states, DEAD_COLUMN + 1), np.int32)
        table[parent[new], letter[new]] = node[new]
        ends = node[np.arange(len(spelled)), length - 1]
        is_word = np.zeros(states, bool)
        is_word[ends] = True
        spelling = np.full(states, None, dtype=object)
        spelling[ends] = np.array(spelled, dtype=object)
        return cls(
            table=table,
            depth=np.concatenate(([0, 0], np.nonzero(new)[1] + 1)).astype(np.int32),
            is_word=is_word,
            words=spelling,
        )

    @cached_property
    def state_of(self) -> dict[str, int]:
        """The state that spells each word; built on first use, then kept."""
        states = np.flatnonzero(self.is_word)
        return dict(zip(self.words[states].tolist(), states.tolist()))


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
        # log_probability's answers, computed once: the segmenter asks for
        # the same pairs many times over
        self._log_probs = {pair: _log(self.probability(*pair)) for pair in self.counts}
        self._log_floor = _log(floor_prob)

    def probability(self, w1: str, w2: str) -> float:
        count = self.counts.get((w1, w2))
        if count is None:
            return self.floor_prob
        return count / self.total

    def log_probability(self, w1: str, w2: str) -> float:
        """``log(probability(w1, w2))``, and -inf where that is 0."""
        return self._log_probs.get((w1, w2), self._log_floor)

    def log_probabilities(self) -> tuple[Mapping[tuple[str, str], float], float]:
        """:meth:`log_probability`'s answers: a read-only map of those for
        the seen pairs, and the one for every other pair."""
        return MappingProxyType(self._log_probs), self._log_floor

    def __len__(self) -> int:
        return len(self.counts)


def _log(p: float) -> float:
    return math.log(p) if p > 0.0 else float("-inf")


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
