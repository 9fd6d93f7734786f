"""User profiles derived from hashtags: ingestion and word extraction.

:func:`build_profiles` works in three flat phases over all users at once:

1. collect the distinct raw hashtags, in order of first appearance, and
   give every hashtag its index among them;
2. segment them in one batch (the segmenter's columnar entry, which
   parses each once and segments each distinct body once), giving each
   raw hashtag its body, or -1 when it does not normalize (``invalid``),
   and each body its tokens as trie word states;
3. build every :class:`Profile` from those columns: the counts of invalid
   and unsegmentable (no tokens) hashtags per user come from
   ``np.bincount``, and the words from one sort of the (user, word
   state) pairs of all tokens, so no per-hashtag result object is made.

:func:`build_profile` is a batch of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from tagrec.corpus import BigramModel, Lexicon
from tagrec.errors import ParseError
from tagrec.segmenter import firsts, ranges, segment_columns
from tagrec.segmenter import segment  # noqa: F401  pipebench/spans.py wraps profiles.segment
from tagrec.tsv import read_rows

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Profile:
    """A user id, their raw hashtags, and the extracted word set."""

    id: str
    hashtags: tuple[str, ...] = ()
    words: frozenset[str] = frozenset()
    n_unsegmentable: int = 0
    n_invalid: int = 0


def ingest_profiles(path) -> list[tuple[str, list[str]]]:
    """Read a users TSV of ``id<TAB>tag1,tag2,...`` rows.

    Repeated ids are merged in order of appearance; an empty tag field
    yields an empty hashtag list.
    """
    order: list[str] = []
    tags_by_id: dict[str, list[str]] = {}
    for line_no, (user_id, tag_field) in read_rows(path, 2, "users file"):
        user_id = user_id.strip()
        if not user_id:
            raise ParseError(path, line_no, "empty user id")
        if user_id not in tags_by_id:
            order.append(user_id)
            tags_by_id[user_id] = []
        tags_by_id[user_id].extend(filter(None, map(str.strip, tag_field.split(","))))
    return [(user_id, tags_by_id[user_id]) for user_id in order]


def build_profile(user_id: str, hashtags, lexicon: Lexicon, bigrams: BigramModel) -> Profile:
    """Segment every hashtag and collect the resulting words.

    Hashtags that fail normalization (digits, punctuation, non-ASCII) or
    that no lexicon path covers contribute nothing; both cases are
    counted on the returned profile.
    """
    return build_profiles([(user_id, hashtags)], lexicon, bigrams)[0]


def build_profiles(pairs, lexicon: Lexicon, bigrams: BigramModel) -> list[Profile]:
    """Build profiles for every ``(id, hashtags)`` pair, logging totals.

    Works in the three phases the module docstring describes, so each
    distinct raw hashtag is parsed once per call and each distinct
    normalized body is segmented once.  One INFO line gives the hashtags,
    the distinct raw hashtags, the distinct bodies and the hashtags that
    contributed no words.
    """
    pairs = [(user_id, tuple(hashtags)) for user_id, hashtags in pairs]
    # 1. the distinct raw hashtags, in order of first appearance, and the
    # index among them of every hashtag
    tags = list(chain.from_iterable(hashtags for _, hashtags in pairs))
    index = dict(zip(dict.fromkeys(tags), count()))
    raw = np.fromiter(map(index.__getitem__, tags), np.intp, len(tags))
    # 2. segment them in one batch: each hashtag's body, -1 if invalid
    segmented = segment_columns(index, lexicon, bigrams)
    body = segmented.body_of[raw]
    # 3. the profiles, from every hashtag's user, body and tokens
    user = np.repeat(np.arange(len(pairs), dtype=np.int64), [len(hashtags) for _, hashtags in pairs])
    valid = body >= 0
    n_invalid = np.bincount(user[~valid], minlength=len(pairs))
    user, body = user[valid], body[valid]
    tokens = np.diff(segmented.bounds)[body]
    n_unsegmentable = np.bincount(user[tokens == 0], minlength=len(pairs))
    # every token as user << 32 | word state, sorted and deduplicated in
    # place: np.unique would first build a hash table of them all
    words = np.repeat(user, tokens)
    words <<= 32
    words |= segmented.tokens[ranges(segmented.bounds[body], tokens)]
    words.sort()
    words = words[firsts(words)]
    cuts = np.searchsorted(words >> 32, np.arange(len(pairs) + 1)).tolist()
    names = lexicon.trie.words[words & 0xFFFFFFFF].tolist()
    built = [
        Profile(
            id=user_id,
            hashtags=hashtags,
            words=frozenset(names[a:b]),
            n_unsegmentable=unsegmentable,
            n_invalid=invalid,
        )
        for (user_id, hashtags), a, b, unsegmentable, invalid in zip(
            pairs, cuts, cuts[1:], n_unsegmentable.tolist(), n_invalid.tolist()
        )
    ]
    logger.info(
        "profiles: %d hashtags, %d distinct raw hashtags, %d distinct bodies, %d hashtags contributed no words",
        raw.size,
        len(index),
        len(segmented.bodies),
        int(n_invalid.sum() + n_unsegmentable.sum()),
    )
    return built
