"""User profiles derived from hashtags: ingestion and word extraction.

:func:`build_profiles` works in three flat phases over all users at once:

1. collect the distinct raw hashtags, in order of first appearance;
2. parse each distinct raw hashtag once with :meth:`Hashtag.parse`, then
   segment every distinct normalized body in one :func:`segment_all`
   batch, giving each raw hashtag its tokens: ``()`` when its body has no
   split, ``None`` when it does not normalize;
3. build each :class:`Profile` from those tokens.

:func:`build_profile` is a batch of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

from tagrec.corpus import BigramModel, Lexicon
from tagrec.errors import InputError, ParseError
from tagrec.segmenter import Hashtag, segment_all
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
    # 2. parse each distinct raw hashtag once, then segment every distinct
    # body, in order of first appearance, in one batch
    body_of: dict[str, str] = {}  # raw hashtag -> its normalized body
    first: dict[str, Hashtag] = {}  # normalized body -> the first hashtag with it
    for raw in tokens_of:
        try:
            tag = Hashtag.parse(raw)
        except InputError:
            continue
        body_of[raw] = tag.normalized
        first.setdefault(tag.normalized, tag)
    splits = {r.hashtag.normalized: r.tokens for r in segment_all(first.values(), lexicon, bigrams)}
    for raw, body in body_of.items():
        tokens_of[raw] = splits[body]
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
        len(first),
        sum(p.n_unsegmentable + p.n_invalid for p in built),
    )
    return built
