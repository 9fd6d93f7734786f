"""User profiles derived from hashtags: ingestion and word extraction."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from tagrec.corpus import BigramModel, Lexicon
from tagrec.errors import InputError, ParseError
from tagrec.segmenter import Hashtag, segment
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
    return _build_profile(user_id, hashtags, lexicon, bigrams, {}, {})


def _tokens(
    raw: str, lexicon: Lexicon, bigrams: BigramModel, splits: dict[str, tuple[str, ...]]
) -> tuple[str, ...] | None:
    """The tokens of the raw hashtag ``raw``, ``()`` when its body has no
    split, or ``None`` when it does not normalize; reads and fills
    ``splits``, normalized body -> the tokens of its one :func:`segment`
    call."""
    try:
        tag = Hashtag.parse(raw)
    except InputError:
        return None
    tokens = splits.get(tag.normalized)
    if tokens is None:
        tokens = splits[tag.normalized] = segment(tag, lexicon, bigrams).tokens
    return tokens


def _build_profile(
    user_id: str,
    hashtags,
    lexicon: Lexicon,
    bigrams: BigramModel,
    by_raw: dict[str, tuple[str, ...] | None],
    splits: dict[str, tuple[str, ...]],
) -> Profile:
    """:func:`build_profile`, reading and filling ``by_raw``, raw hashtag
    -> its :func:`_tokens`, and through it ``splits``."""
    words: set[str] = set()
    n_unsegmentable = 0
    n_invalid = 0
    for raw in hashtags:
        try:
            tokens = by_raw[raw]
        except KeyError:
            tokens = by_raw[raw] = _tokens(raw, lexicon, bigrams, splits)
        if tokens is None:
            n_invalid += 1
        elif tokens:
            words.update(tokens)
        else:  # only an unsegmentable hashtag has no tokens
            n_unsegmentable += 1
    return Profile(
        id=user_id,
        hashtags=tuple(hashtags),
        words=frozenset(words),
        n_unsegmentable=n_unsegmentable,
        n_invalid=n_invalid,
    )


def build_profiles(pairs, lexicon: Lexicon, bigrams: BigramModel) -> list[Profile]:
    """Build profiles for every ``(id, hashtags)`` pair, logging totals.

    Each distinct raw hashtag is parsed once per call, and each distinct
    normalized body is segmented once; both memos live only for this
    call.  One INFO line gives the hashtags, the distinct raw hashtags,
    the :func:`segment` calls and the hashtags that contributed no words.
    """
    by_raw: dict[str, tuple[str, ...] | None] = {}
    splits: dict[str, tuple[str, ...]] = {}
    profiles = [_build_profile(user_id, tags, lexicon, bigrams, by_raw, splits) for user_id, tags in pairs]
    logger.info(
        "profiles: %d hashtags, %d distinct raw hashtags, %d segment calls, %d hashtags contributed no words",
        sum(len(p.hashtags) for p in profiles),
        len(by_raw),
        len(splits),
        sum(p.n_unsegmentable + p.n_invalid for p in profiles),
    )
    return profiles
