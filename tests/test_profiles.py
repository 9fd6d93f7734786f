"""Profile ingestion and word extraction."""

import logging
import random
from pathlib import Path

import pytest

from tagrec import segmenter
from tagrec.corpus import load_bigrams, load_lexicon
from tagrec.errors import InputError, ParseError, ResourceError
from tagrec.profiles import build_profile, build_profiles, ingest_profiles
from tagrec.segmenter import SegmentStatus, segment

from conftest import WORKED_LEXICON

DATA = Path(__file__).resolve().parent.parent / "data"


def write_users(tmp_path, text):
    path = tmp_path / "users.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def reference_profile(hashtags, lexicon, bigrams):
    """Parse and segment every hashtag on its own: (words, n_invalid, n_unsegmentable)."""
    words, n_invalid, n_unsegmentable = set(), 0, 0
    for raw in hashtags:
        try:
            tokens = segment(raw, lexicon, bigrams).tokens
        except InputError:
            n_invalid += 1
            continue
        words.update(tokens)
        n_unsegmentable += not tokens
    return frozenset(words), n_invalid, n_unsegmentable


class TestIngest:
    def test_parses_rows(self, tmp_path):
        path = write_users(tmp_path, "u1\t#worldwide,#throwbackthursday\n")
        assert ingest_profiles(path) == [("u1", ["#worldwide", "#throwbackthursday"])]

    def test_merges_duplicate_ids(self, tmp_path):
        path = write_users(tmp_path, "u1\t#a\nu2\t#b\nu1\t#c\n")
        assert ingest_profiles(path) == [("u1", ["#a", "#c"]), ("u2", ["#b"])]

    def test_empty_tag_field(self, tmp_path):
        path = write_users(tmp_path, "u1\t\n")
        assert ingest_profiles(path) == [("u1", [])]

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_users(tmp_path, "u1\t#a\nnotabbed\n")
        with pytest.raises(ParseError) as exc:
            ingest_profiles(path)
        assert exc.value.line_no == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ResourceError):
            ingest_profiles(tmp_path / "missing.tsv")

    def test_tags_keep_raw_form(self, tmp_path):
        path = write_users(tmp_path, "u1\tWorldWide, #tbt \n")
        assert ingest_profiles(path) == [("u1", ["WorldWide", "#tbt"])]


class TestBuildProfile:
    def test_collects_words_across_hashtags(self, worked_lexicon, worked_bigrams):
        profile = build_profile(
            "u1", ["#worldwidefestival", "#worldwide"], worked_lexicon, worked_bigrams
        )
        assert profile.words == {"worldwide", "festival"}
        assert profile.n_unsegmentable == 0

    def test_empty_hashtags(self, worked_lexicon, worked_bigrams):
        profile = build_profile("u2", [], worked_lexicon, worked_bigrams)
        assert profile.words == frozenset()

    def test_unsegmentable_counted(self, worked_lexicon, worked_bigrams):
        profile = build_profile("u3", ["#xqzv"], worked_lexicon, worked_bigrams)
        assert profile.words == frozenset()
        assert profile.n_unsegmentable == 1

    def test_invalid_hashtags_counted_not_fatal(self, worked_lexicon, worked_bigrams):
        profile = build_profile("u4", ["#tbt2015", "#worldwide"], worked_lexicon, worked_bigrams)
        assert profile.words == {"worldwide"}
        assert profile.n_invalid == 1

    def test_order_does_not_matter(self, worked_lexicon, worked_bigrams):
        tags = ["#worldwidefestival", "#throwbackthursday", "#worldwide"]
        a = build_profile("u", tags, worked_lexicon, worked_bigrams)
        b = build_profile("u", list(reversed(tags)), worked_lexicon, worked_bigrams)
        assert a.words == b.words

    def test_rebuild_is_idempotent(self, worked_lexicon, worked_bigrams):
        tags = ["#worldwidefestival", "#worldwide"]
        a = build_profile("u", tags, worked_lexicon, worked_bigrams)
        b = build_profile("u", tags, worked_lexicon, worked_bigrams)
        assert a == b

    def test_word_count_bounded_by_token_count(self, worked_lexicon, worked_bigrams):
        from tagrec.segmenter import segment

        tags = ["#worldwidefestival", "#throwbackthursday", "#worldwide"]
        profile = build_profile("u", tags, worked_lexicon, worked_bigrams)
        token_total = sum(len(segment(t, worked_lexicon, worked_bigrams).tokens) for t in tags)
        assert len(profile.words) <= token_total


class TestBuildProfiles:
    def test_batch(self, worked_lexicon, worked_bigrams):
        pairs = [("u1", ["#worldwide"]), ("u2", ["#xqzv"])]
        profiles = build_profiles(pairs, worked_lexicon, worked_bigrams)
        assert [p.id for p in profiles] == ["u1", "u2"]
        assert profiles[0].words == {"worldwide"}
        assert profiles[1].words == frozenset()

    def test_segments_each_distinct_body_once(self, worked_lexicon, worked_bigrams, monkeypatch):
        walk = segmenter._walk
        calls = []

        def counting_walk(bodies, trie):
            calls.append(list(bodies))
            return walk(bodies, trie)

        pairs = [
            ("u1", ["#WorldWideFestival", "#xqzv", "#tbt2015"]),
            ("u2", ["worldwidefestival", "#worldwide", "#xqzv"]),
            ("u3", ["#worldwidefestival", "#XQZV", "#throwbackthursday"]),
        ]
        monkeypatch.setattr(segmenter, "_walk", counting_walk)
        batch = build_profiles(pairs, worked_lexicon, worked_bigrams)
        # one walk, each distinct body once, in order of first appearance
        assert calls == [["worldwidefestival", "xqzv", "worldwide", "throwbackthursday"]]
        assert batch == [build_profile(user_id, tags, worked_lexicon, worked_bigrams) for user_id, tags in pairs]
        assert [p.n_unsegmentable for p in batch] == [1, 1, 1]
        assert [p.n_invalid for p in batch] == [1, 0, 0]

    def test_parses_each_distinct_raw_hashtag_once(self, worked_lexicon, worked_bigrams, monkeypatch, caplog):
        normalize, walk = segmenter._normalize, segmenter._walk
        parsed = []
        walked = []

        def counting_normalize(raw):
            parsed.append(raw)
            return normalize(raw)

        def counting_walk(bodies, trie):
            walked.append(list(bodies))
            return walk(bodies, trie)

        pairs = [
            ("u1", ["#Foo", "#tbt2015", "#xqzv", "#tbt2015", "#xqzv", "#Foo"]),
            ("u2", ["#foo", "foo", "#tbt2015", "#xqzv", "#worldwide"]),
            ("u3", ["#worldwide", "#Foo", "#xqzv"]),
        ]
        monkeypatch.setattr(segmenter, "_normalize", counting_normalize)
        monkeypatch.setattr(segmenter, "_walk", counting_walk)
        caplog.set_level(logging.INFO, logger="tagrec.profiles")
        batch = build_profiles(pairs, worked_lexicon, worked_bigrams)
        assert sorted(parsed) == sorted({raw for _, tags in pairs for raw in tags})
        # "#Foo", "#foo" and "foo" share the body "foo", walked once; "#tbt2015" is not walked
        assert walked == [["foo", "xqzv", "worldwide"]]
        assert [p.n_invalid for p in batch] == [2, 1, 0]
        assert [p.n_unsegmentable for p in batch] == [4, 3, 2]
        assert [p.words for p in batch] == [frozenset(), {"worldwide"}, {"worldwide"}]
        (record,) = [r for r in caplog.records if r.name == "tagrec.profiles"]
        assert record.getMessage() == (
            "profiles: 14 hashtags, 6 distinct raw hashtags, 3 distinct bodies, 12 hashtags contributed no words"
        )

    def test_matches_reference_without_memo(self, worked_lexicon, worked_bigrams):
        def reference(hashtags):
            return reference_profile(hashtags, worked_lexicon, worked_bigrams)

        rng = random.Random(5)
        nonwords = ["xqzv", "worldx", "thez", "backthrowz"]
        invalid = ["tbt2015", "#", "world wide", "café", "#the-cat", "ｃａｔ"]

        def draw_raw() -> str:
            kind = rng.random()
            if kind < 0.15:
                return rng.choice(invalid)
            if kind < 0.3:
                body = rng.choice(nonwords)
            else:
                body = "".join(rng.choices(WORKED_LEXICON, k=rng.randint(1, 3)))
            body = "".join(c.upper() if rng.random() < 0.3 else c for c in body)
            return rng.choice(["#", "", " #", "#"]) + body + rng.choice(["", "", " "])

        for _ in range(20):
            tag_pool = [draw_raw() for _ in range(rng.randint(1, 12))]
            ids = [f"u{rng.randint(0, 4)}" for _ in range(rng.randint(1, 8))]  # ids may repeat
            pairs = [(user_id, rng.choices(tag_pool, k=rng.randint(0, 8))) for user_id in ids]
            built = build_profiles(pairs, worked_lexicon, worked_bigrams)
            assert [p.id for p in built] == ids
            assert [p.hashtags for p in built] == [tuple(tags) for _, tags in pairs]
            assert [(p.words, p.n_invalid, p.n_unsegmentable) for p in built] == [
                reference(tags) for _, tags in pairs
            ]

    @pytest.mark.parametrize("floor", [1e-9, 0.0])
    def test_matches_segment_per_hashtag_on_the_bundled_corpus(self, floor):
        # Joined lexicon words split several ways here, so the batch's
        # disambiguated bodies meet invalid, unsegmentable and repeated hashtags.
        lexicon = load_lexicon(DATA / "lexicon.txt")
        bigrams = load_bigrams(DATA / "bigrams.tsv", floor_prob=floor)
        words = sorted(lexicon.words)
        rng = random.Random(20)
        pool = ["#" + "".join(rng.sample(words, rng.randint(1, 4))) for _ in range(300)]
        pool += ["#tbt2015", "#", "#café", "#qxzj", "#qxzjqq", " #WorldWide "]
        pairs = [(f"u{i % 37}", rng.choices(pool, k=rng.randint(0, 25))) for i in range(60)]  # ids repeat
        built = build_profiles(pairs, lexicon, bigrams)
        assert [(p.words, p.n_invalid, p.n_unsegmentable) for p in built] == [
            reference_profile(tags, lexicon, bigrams) for _, tags in pairs
        ]
        statuses = {r.status for r in segmenter.segment_all(pool, lexicon, bigrams)}
        assert statuses >= {SegmentStatus.EXACT_WORD, SegmentStatus.UNIQUE, SegmentStatus.INVALID}
        # under a zero floor each body with rival splits meets an unseen bigram on every one
        assert (SegmentStatus.DISAMBIGUATED in statuses) == (floor > 0)
        assert sum(p.n_unsegmentable for p in built) and sum(p.n_invalid for p in built)
