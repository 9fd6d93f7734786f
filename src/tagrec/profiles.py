"""User profiles derived from hashtags: ingestion and word extraction.

:func:`build_profiles` works in three flat phases over all users at once:

1. collect the distinct raw hashtags, in order of first appearance;
2. segment them in one :func:`segment_all` batch, which parses each once
   and segments each distinct body once, giving each raw hashtag its
   tokens: ``()`` when its body has no split, ``None`` when it does not
   normalize (an ``invalid`` result);
3. build each :class:`Profile` from those tokens.

:func:`build_profile` is a batch of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

from tagrec.corpus import BigramModel, Lexicon
from tagrec.errors import ParseError
from tagrec.segmenter import SegmentStatus, segment_all
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
    # 1. the distinct raw hashtags, in order of first appearance; phase 2
    # maps each to its tokens, () when its body has no split, and leaves
    # None on one that does not normalize
    tokens_of: dict[str, tuple[str, ...] | None] = dict.fromkeys(
        chain.from_iterable(hashtags for _, hashtags in pairs)
    )
    # 2. segment every distinct raw hashtag in one batch
    bodies: set[str] = set()
    for raw, result in zip(tokens_of, segment_all(tokens_of, lexicon, bigrams)):
        if result.status is not SegmentStatus.INVALID:
            tokens_of[raw] = result.tokens
            bodies.add(result.hashtag.normalized)
    # 3. the profiles
    built = []
    for user_id, hashtags in pairs:
        found = [tokens_of[raw] for raw in hashtags]
        built.append(
            Profile(
                id=user_id,
                hashtags=hashtags,
                words=frozenset(chain.from_iterable(filter(None, found))),
                n_unsegmentable=found.count(()),
                n_invalid=found.count(None),
            )
        )
    logger.info(
        "profiles: %d hashtags, %d distinct raw hashtags, %d distinct bodies, %d hashtags contributed no words",
        sum(len(hashtags) for _, hashtags in pairs),
        len(tokens_of),
        len(bodies),
        sum(p.n_unsegmentable + p.n_invalid for p in built),
    )
    return built
