"""User profiles derived from hashtags: ingestion and word extraction."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from tagrec.corpus import BigramModel, Lexicon
from tagrec.errors import InputError, ParseError
from tagrec.segmenter import Hashtag, SegmentStatus, segment
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
        tags_by_id[user_id].extend(t.strip() for t in tag_field.split(",") if t.strip())
    return [(user_id, tags_by_id[user_id]) for user_id in order]


def build_profile(user_id: str, hashtags, lexicon: Lexicon, bigrams: BigramModel) -> Profile:
    """Segment every hashtag and collect the resulting words.

    Hashtags that fail normalization (digits, punctuation, non-ASCII) or
    that no lexicon path covers contribute nothing; both cases are
    counted on the returned profile.
    """
    words: set[str] = set()
    n_unsegmentable = 0
    n_invalid = 0
    for raw in hashtags:
        try:
            tag = Hashtag.parse(raw)
        except InputError:
            n_invalid += 1
            continue
        result = segment(tag, lexicon, bigrams)
        if result.status is SegmentStatus.UNSEGMENTABLE:
            n_unsegmentable += 1
        else:
            words.update(result.tokens)
    return Profile(
        id=user_id,
        hashtags=tuple(hashtags),
        words=frozenset(words),
        n_unsegmentable=n_unsegmentable,
        n_invalid=n_invalid,
    )


def build_profiles(pairs, lexicon: Lexicon, bigrams: BigramModel) -> list[Profile]:
    """Build profiles for every ``(id, hashtags)`` pair, logging totals."""
    profiles = [build_profile(user_id, tags, lexicon, bigrams) for user_id, tags in pairs]
    skipped = sum(p.n_unsegmentable + p.n_invalid for p in profiles)
    if skipped:
        logger.info("profiles: %d hashtags contributed no words", skipped)
    return profiles
