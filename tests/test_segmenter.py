"""Hashtag segmentation: enumeration, scoring, selection, evaluation."""

import math
import random
import re

import numpy as np
import pytest

from tagrec import segmenter
from tagrec.corpus import BigramModel, Lexicon
from tagrec.errors import InputError
from tagrec.segmenter import (
    Hashtag,
    SegmentationFailure,
    SegmentResult,
    SegmentStatus,
    _normalize,
    _walk,
    enumerate_segmentations,
    evaluate_segmenter,
    score_segmentation,
    segment,
    segment_all,
)


def lex(*words) -> Lexicon:
    return Lexicon(words=frozenset(words))


class TestHashtagParse:
    def test_strips_hash_and_lowercases(self):
        tag = Hashtag.parse("#WorldWide")
        assert tag.normalized == "worldwide"
        assert tag.raw == "#WorldWide"

    def test_plain_word_allowed(self):
        assert Hashtag.parse("tbt").normalized == "tbt"

    @pytest.mark.parametrize("raw", ["#", "", "#tbt2015", "#don't", "#café", "#a b"])
    def test_rejects_non_letter_bodies(self, raw):
        with pytest.raises(InputError):
            Hashtag.parse(raw)

    def test_normalize_matches_the_letters_regex_on_every_code_point(self):
        # Both forms judge the lowercased body, so a character that lowercases
        # into a-z passes either way: KELVIN SIGN gives "k".
        letters = re.compile("[a-z]+")

        def regex_form(raw):
            body = raw.strip().removeprefix("#").lower()
            return body if letters.fullmatch(body) else ""

        raws = ["#" + chr(c) + "a" for c in range(0x110000)]
        assert [raw for raw in raws if _normalize(raw) != regex_form(raw)] == []
        assert _normalize("#\u212aa") == "ka"


class TestEnumerate:
    def test_throwbackthursday_two_parses(self, worked_lexicon):
        results, truncated = enumerate_segmentations("#throwbackthursday", worked_lexicon)
        assert set(results) == {("throwback", "thursday"), ("throw", "back", "thursday")}
        assert not truncated

    def test_worldwide_two_parses(self, worked_lexicon):
        results, _ = enumerate_segmentations("#worldwide", worked_lexicon)
        assert set(results) == {("worldwide",), ("world", "wide")}

    def test_empty_body_raises(self):
        # as segment does; segment_all calls such an input invalid
        with pytest.raises(InputError):
            enumerate_segmentations("#world wide", lex("a", "b"))

    def test_no_parse_is_empty(self, worked_lexicon):
        results, truncated = enumerate_segmentations("#xqzv", worked_lexicon)
        assert results == [] and not truncated

    def test_ordering_fewest_tokens_then_lexicographic(self):
        lx = lex("ab", "a", "b", "abab")
        results, _ = enumerate_segmentations("abab", lx)
        assert results[0] == ("abab",)
        counts = [len(r) for r in results]
        assert counts == sorted(counts)
        for a, b in zip(results, results[1:]):
            assert (len(a), a) < (len(b), b)

    def test_truncation_flag_and_cap(self):
        lx = lex("a", "aa")
        body = "a" * 12
        full, truncated_full = enumerate_segmentations(body, lx, max_candidates=1024)
        assert not truncated_full
        capped, truncated = enumerate_segmentations(body, lx, max_candidates=5)
        assert truncated and len(capped) == 5
        assert capped == full[:5]

    def test_completeness_against_split_mask_oracle(self, subtests=None):
        # Brute force: every one of the 2^(len-1) split masks, gated by the lexicon.
        rng = random.Random(1234)
        alphabet = "ab"
        vocab = {"a", "b", "aa", "ab", "ba", "aba", "bab", "abab", "baa"}
        lx = lex(*vocab)
        for _ in range(200):
            body = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            expected = set()
            n = len(body)
            for mask in range(1 << max(0, n - 1)):
                pieces = []
                start = 0
                for pos in range(n - 1):
                    if mask >> pos & 1:
                        pieces.append(body[start : pos + 1])
                        start = pos + 1
                pieces.append(body[start:])
                if all(p in lx for p in pieces):
                    expected.add(tuple(pieces))
            got, truncated = enumerate_segmentations(body, lx, max_candidates=1 << 12)
            assert not truncated
            assert set(got) == expected

    def test_lists_splits_without_the_lattice_walk(self, monkeypatch):
        # the tests' oracle shares no code with segment_all's lattice
        def broken_walk(bodies, trie):
            raise AssertionError("enumerate_segmentations walked the trie")

        monkeypatch.setattr(segmenter, "_walk", broken_walk)
        lx = lex(*TestLattice.VOCAB)
        for body in TestLattice().bodies():
            want = sorted(splits_of(body, lx), key=lambda tokens: (len(tokens), tokens))
            assert enumerate_segmentations(body, lx, max_candidates=1 << 12) == (want, False), body

    def test_concatenation_reconstructs_body(self, worked_lexicon):
        results, _ = enumerate_segmentations("#throwbackthursday", worked_lexicon)
        for tokens in results:
            assert "".join(tokens) == "throwbackthursday"
            assert all(t in worked_lexicon for t in tokens)


class TestScore:
    def test_single_token_scores_zero(self, worked_bigrams):
        assert score_segmentation(("worldwide",), worked_bigrams) == 0.0

    def test_two_token_path(self, worked_bigrams):
        score = score_segmentation(("worldwide", "festival"), worked_bigrams)
        assert math.exp(score) == pytest.approx(0.0022, rel=1e-12)

    def test_three_token_path_multiplies(self, worked_bigrams):
        score = score_segmentation(("world", "wide", "festival"), worked_bigrams)
        assert score == pytest.approx(math.log(0.05) + math.log(0.0099), rel=1e-15)
        assert math.exp(score) == pytest.approx(0.05 * 0.0099, rel=1e-12)

    def test_empty_tokens_rejected(self, worked_bigrams):
        with pytest.raises(InputError):
            score_segmentation((), worked_bigrams)

    def test_no_underflow_at_fifty_tokens(self):
        model = BigramModel({("a", "a"): 1}, floor_prob=1e-9)
        score = score_segmentation(("b",) * 50, model)
        assert math.isfinite(score)
        assert score == pytest.approx(49 * math.log(1e-9))


class TestSegment:
    def test_disambiguates_worldwidefestival(self, worked_lexicon, worked_bigrams):
        result = segment("#worldwidefestival", worked_lexicon, worked_bigrams)
        assert result.tokens == ("worldwide", "festival")
        assert result.status is SegmentStatus.DISAMBIGUATED

    def test_exact_word_overrides_splits(self, worked_lexicon, worked_bigrams):
        result = segment("#worldwide", worked_lexicon, worked_bigrams)
        assert result.tokens == ("worldwide",)
        assert result.status is SegmentStatus.EXACT_WORD
        assert result.log_score == 0.0

    def test_exact_word_wins_even_with_huge_split_probability(self):
        # the split (world, wide) carries all bigram mass: p = 1, so it
        # ties the exact word at 0.0, alone and in a batch with its words
        lx = lex("worldwide", "world", "wide")
        model = BigramModel({("world", "wide"): 10**9})
        result = segment("#worldwide", lx, model)
        assert result.status is SegmentStatus.EXACT_WORD
        assert result.tokens == ("worldwide",)
        batch = TestBatch.follows_the_rules(["world", "worldwide", "wide", "worldwideworld"], lx, model)
        assert (batch[1].tokens, batch[1].status, batch[1].log_score) == (result.tokens, result.status, 0.0)

    def test_unsegmentable(self, worked_lexicon, worked_bigrams):
        result = segment("#xqzv", worked_lexicon, worked_bigrams)
        assert result.tokens == ()
        assert result.status is SegmentStatus.UNSEGMENTABLE

    def test_unique_parse(self, worked_bigrams):
        lx = lex("throw", "back")
        result = segment("#throwback", lx, worked_bigrams)
        assert result.status is SegmentStatus.UNIQUE
        assert result.tokens == ("throw", "back")

    def test_invalid_hashtag_raises(self, worked_lexicon, worked_bigrams):
        with pytest.raises(InputError):
            segment("#2015", worked_lexicon, worked_bigrams)

    def test_tie_breaks_prefer_fewer_tokens(self):
        # Equal scores: both candidate paths use only unseen bigrams.
        lx = lex("ab", "a", "b", "bb")
        model = BigramModel({("x", "y"): 1}, floor_prob=1e-9)
        result = segment("abb", lx, model)
        assert result.tokens == ("a", "bb")  # 2 tokens beats (a, b, b)

    def test_tie_breaks_then_lexicographic(self):
        lx = lex("aa", "a")
        model = BigramModel({("x", "y"): 1}, floor_prob=1e-9)
        result = segment("aaa", lx, model)
        # both 2-token parses score floor^1: (a, aa) < (aa, a)
        assert result.tokens == ("a", "aa")

    def test_zero_floor_rejects_unscoreable_paths(self):
        lx = lex("ab", "a", "b", "ba")
        model = BigramModel({("x", "y"): 1}, floor_prob=0.0)
        result = segment("abba", lx, model)
        assert result.status is SegmentStatus.UNSEGMENTABLE
        assert result.tokens == ()

    def test_result_is_member_of_enumeration(self, worked_lexicon, worked_bigrams):
        rng = random.Random(7)
        pool = ["worldwidefestival", "throwbackthursday", "worldwide", "backthursday", "xqzv"]
        for raw in pool:
            result = segment(raw, worked_lexicon, worked_bigrams)
            candidates, _ = enumerate_segmentations(raw, worked_lexicon)
            allowed = set(candidates) | {(Hashtag.parse(raw).normalized,), ()}
            assert result.tokens in allowed

    def test_determinism(self, worked_lexicon, worked_bigrams):
        results = {segment("#throwbackthursday", worked_lexicon, worked_bigrams).tokens for _ in range(5)}
        assert len(results) == 1

    def test_unique_even_when_unscoreable(self):
        # One split through an unseen bigram under a zero floor stays unique.
        lx = lex("throw", "back")
        model = BigramModel({("x", "y"): 1}, floor_prob=0.0)
        result = segment("#throwback", lx, model)
        assert result.status is SegmentStatus.UNIQUE
        assert result.tokens == ("throw", "back")
        assert result.log_score == float("-inf")

    def test_argmax_past_the_enumeration_cap(self):
        # 377 splits; the only one scoring 0 has the most tokens, so it lies
        # past the first DEFAULT_MAX_CANDIDATES in (token count, tokens) order.
        lx = lex("a", "aa")
        model = BigramModel({("a", "a"): 1})
        body = "a" * 13
        assert enumerate_segmentations(body, lx)[1]
        result = segment(body, lx, model)
        assert result.tokens == ("a",) * 13
        assert result.status is SegmentStatus.DISAMBIGUATED
        assert result.log_score == 0.0

    def test_prefix_with_lower_sum_wins_a_rounded_tie(self):
        # (ba, b, bb, bb) sums lower than (ba, bb, b, bb), but both reach
        # -68.25338534682302 after the last bigram, and then (ba, b, ...)
        # wins on token order: a state keeping only its best prefix loses it.
        lx = lex("a", "b", "ba", "bb")
        model = BigramModel({("b", "bb"): 10, ("a", "bb"): 2187, ("a", "b"): 2187, ("ba", "a"): 2})
        lower = score_segmentation(("ba", "b", "bb", "bb"), model)
        assert lower < score_segmentation(("ba", "bb", "b", "bb"), model)
        result = segment("babbbbbba", lx, model)
        assert result.tokens == ("ba", "b", "bb", "bb", "ba")
        assert result.log_score == score_segmentation(("ba", "bb", "b", "bb", "ba"), model)

    @pytest.mark.parametrize("floor", [1e-9, 0.25, 0.0])
    def test_matches_uncapped_enumeration(self, floor):
        # Quantised counts over a two-letter alphabet make tied scores common.
        rng = random.Random(floor)
        for _ in range(150):
            pieces = ("".join(rng.choice("ab") for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(2, 6)))
            vocab = sorted(set(pieces))
            counts = {(rng.choice(vocab), rng.choice(vocab)): rng.choice([1, 2, 4]) for _ in range(rng.randint(1, 8))}
            lx, model = lex(*vocab), BigramModel(counts, floor_prob=floor)
            for _ in range(6):
                body = "".join(rng.choice("ab") for _ in range(rng.randint(1, 14)))
                result = segment(body, lx, model)
                assert (result.tokens, result.status) == documented_rule(body, lx, model), (body, vocab, counts)
                if result.tokens:
                    assert result.log_score == score_segmentation(result.tokens, model)


def documented_rule(body, lexicon, bigrams):
    """``(tokens, status)`` by the rules of ``segment``, over every split."""
    if body in lexicon:
        return (body,), SegmentStatus.EXACT_WORD
    splits, truncated = enumerate_segmentations(body, lexicon, max_candidates=1 << 16)
    assert not truncated
    if not splits:
        return (), SegmentStatus.UNSEGMENTABLE
    if len(splits) == 1:
        return splits[0], SegmentStatus.UNIQUE
    best = min(splits, key=lambda tokens: (-score_segmentation(tokens, bigrams), len(tokens), tokens))
    if score_segmentation(best, bigrams) == float("-inf"):
        return (), SegmentStatus.UNSEGMENTABLE
    return best, SegmentStatus.DISAMBIGUATED


def splits_of(body, lexicon):
    """Every split of ``body`` into lexicon words, over all split masks."""
    n = len(body)
    found = []
    for mask in range(1 << max(0, n - 1)):
        cuts = [0, *(pos + 1 for pos in range(n - 1) if mask >> pos & 1), n]
        pieces = tuple(body[a:b] for a, b in zip(cuts, cuts[1:]))
        if n and all(p in lexicon for p in pieces):
            found.append(pieces)
    return found


def lattice_oracle(body, lexicon):
    """``(words, paths, reached)`` of ``body``, by brute force.

    ``reached[i]`` tells whether a split of ``body[:i]`` into lexicon words
    reaches ``i``.  At those positions ``words[i]`` lists the lexicon words
    that start at ``i`` and after which the rest of the body still splits,
    in order of length, and ``paths[i]`` counts the splits of ``body[i:]``,
    capped at 2; at every other position they are ``[]`` and 0.
    """
    n = len(body)
    reached = [i == 0 or bool(splits_of(body[:i], lexicon)) for i in range(n + 1)]
    words = [[] for _ in range(n)]
    paths = [0] * (n + 1)
    paths[n] = int(reached[n])
    for i in range(n):
        if reached[i]:
            ends = range(i + 1, n + 1)
            words[i] = [body[i:j] for j in ends if body[i:j] in lexicon and (j == n or splits_of(body[j:], lexicon))]
            paths[i] = min(2, len(splits_of(body[i:], lexicon)))
    return words, paths, reached


def lattice_of(bodies, lexicon):
    """Each body's ``(words, paths)`` from one :func:`_walk`, laid out as in :func:`lattice_oracle`."""
    trie = lexicon.trie
    lattice = _walk(bodies, trie)
    views = []
    for k, body in enumerate(bodies):
        start = int(lattice.starts[k])
        edges = slice(lattice.bounds[k], lattice.bounds[k + 1])
        words = [[] for _ in body]
        for i, state in zip(lattice.origin[edges].tolist(), lattice.state[edges].tolist()):
            words[i - start].append(trie.words[state])
        views.append((words, lattice.paths[start : start + len(body) + 1].tolist()))
    return views


class TestLattice:
    # "d" is in no word, so it makes unsegmentable bodies and dead ends: in
    # "abad", the splits of "aba" reach position 3, and none goes on from it.
    VOCAB = ("a", "b", "ab", "ba", "abc", "ca", "cab", "bcd")
    BODIES = ["d", "aba", "abad", "dabab", "abcab", "abcd", "cabab", "ababab", "bcdab", "abcabd"]

    def bodies(self):
        rng = random.Random(15)
        return self.BODIES + ["".join(rng.choice("abcd") for _ in range(rng.randint(1, 10))) for _ in range(300)]

    def test_matches_split_oracle(self):
        lx = lex(*self.VOCAB)
        seen = {"unsegmentable": 0, "dead_end": 0, "unreached": 0, "several": 0}
        for body in self.bodies():
            [(words, paths)] = lattice_of([body], lx)
            want_words, want_paths, reached = lattice_oracle(body, lx)
            assert (words, paths) == (want_words, want_paths), body
            seen["unsegmentable"] += not paths[0]
            seen["dead_end"] += any(reached[i] and not paths[i] for i in range(len(body))) and paths[0] > 0
            seen["unreached"] += not all(reached)
            seen["several"] += paths[0] == 2
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("floor", [1e-9, 0.0])
    def test_segment_follows_the_rules_on_oracle_bodies(self, floor):
        # One count for every seen pair makes splits of one length tie on
        # score; every pair with "ca" or "cab" is unseen, so under a zero
        # floor each split of "cabab" scores -inf.
        lx = lex(*self.VOCAB)
        counts = {(a, b): 1 for a in self.VOCAB for b in self.VOCAB if not {a, b} & {"ca", "cab"}}
        model = BigramModel(counts, floor_prob=floor)
        for body in self.bodies():
            result = segment(body, lx, model)
            assert (result.tokens, result.status) == documented_rule(body, lx, model), body
        assert segment("aba", lx, model).tokens == ("a", "ba")  # ties with (ab, a)
        rejected = segment("cabab", lx, model).status is SegmentStatus.UNSEGMENTABLE
        assert rejected == (floor == 0.0)

    def test_looks_up_pieces_only_where_a_split_reaches(self):
        # the walk starts once at each position a split reaches, and nowhere else
        lx = lex(*self.VOCAB)
        for body in self.bodies():
            walked = _walk([body], lx.trie).walked
            assert walked.tolist() == lattice_oracle(body, lx)[2], body
        assert np.flatnonzero(_walk(["dabab"], lx.trie).walked).tolist() == [0]


class TestBatch:
    """``segment_all`` and ``_walk`` over many bodies at once, against the oracles."""

    VOCAB = TestLattice.VOCAB

    def check(self, bodies, lexicon, floor):
        # Seen pairs count 1 each, so splits of one length tie on score.
        counts = {(a, b): 1 for a in lexicon.words for b in lexicon.words if not {a, b} & {"ca", "cab"}}
        model = BigramModel(counts, floor_prob=floor)
        raws = [f"#{body}" for body in bodies]
        results = list(segment_all(raws, lexicon, model))
        assert [r.hashtag for r in results] == [Hashtag(raw, body) for raw, body in zip(raws, bodies)]
        for raw, body, result in zip(raws, bodies, results):
            if not body:
                assert result == SegmentResult(Hashtag(raw, ""), (), SegmentStatus.INVALID, float("-inf"))
                with pytest.raises(InputError):
                    segment(raw, lexicon, model)
                continue
            assert (result.tokens, result.status) == documented_rule(body, lexicon, model), body
            if result.status in (SegmentStatus.UNIQUE, SegmentStatus.DISAMBIGUATED):
                assert result.log_score == score_segmentation(result.tokens, model), body
            else:  # exact_word or unsegmentable
                assert result.log_score == (0.0 if result.tokens else float("-inf")), body
            assert result == segment(raw, lexicon, model)  # a batch of one
        lattice = _walk(bodies, lexicon.trie)
        walked = lattice.walked.tolist()
        for body, view, start in zip(bodies, lattice_of(bodies, lexicon), lattice.starts.tolist()):
            words, paths, reached = lattice_oracle(body, lexicon)
            assert view == (words, paths), body
            assert walked[start : start + len(body) + 1] == reached, body
        return results

    @pytest.mark.parametrize("floor", [1e-9, 0.0])
    def test_matches_the_oracles_over_many_bodies(self, floor):
        lx = lex(*self.VOCAB)
        results = self.check(TestLattice().bodies() + [""], lx, floor)  # "" is invalid
        assert {r.status for r in results} == set(SegmentStatus)

    @pytest.mark.parametrize("floor", [1e-9, 0.0])
    def test_edge_batches(self, floor):
        lx = lex(*self.VOCAB)
        assert self.check([], lx, floor) == []
        (one,) = self.check(["abab"], lx, floor)
        assert one.status is SegmentStatus.DISAMBIGUATED
        nothing = self.check(["d", "dd", "ddd"], lx, floor)  # no word found at all
        assert {r.status for r in nothing} == {SegmentStatus.UNSEGMENTABLE}
        exact = self.check(["abc", "ab", "a"], lx, floor)
        assert [r.tokens for r in exact] == [("abc",), ("ab",), ("a",)]
        assert {r.status for r in exact} == {SegmentStatus.EXACT_WORD}
        repeated = self.check(["abab", "cab", "abab", "d", "abab"], lx, floor)
        assert repeated[0] == repeated[2] == repeated[4] != repeated[1]

    @staticmethod
    def follows_the_rules(bodies, lexicon, model):
        """Segment ``bodies`` in one batch and check each against ``documented_rule``."""
        results = list(segment_all(bodies, lexicon, model))
        for body, result in zip(bodies, results):
            if not body:
                assert result.status is SegmentStatus.INVALID
                continue
            assert (result.tokens, result.status) == documented_rule(body, lexicon, model), (body, model.counts)
            if result.status in (SegmentStatus.UNIQUE, SegmentStatus.DISAMBIGUATED):
                assert result.log_score == score_segmentation(result.tokens, model), body
            else:  # exact_word or unsegmentable
                assert result.log_score == (0.0 if result.tokens else float("-inf")), body
        return results

    @pytest.mark.parametrize("floor", [1e-9, 0.25, 0.0])
    def test_random_vocabularies_in_mixed_batches(self, floor):
        # test_matches_uncapped_enumeration's vocabularies, each with all its
        # bodies, repeats and an invalid one in one batch
        rng = random.Random(floor)
        statuses = set()
        for _ in range(150):
            pieces = ("".join(rng.choice("ab") for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(2, 6)))
            vocab = sorted(set(pieces))
            counts = {(rng.choice(vocab), rng.choice(vocab)): rng.choice([1, 2, 4]) for _ in range(rng.randint(1, 8))}
            lx, model = lex(*vocab), BigramModel(counts, floor_prob=floor)
            bodies = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 14))) for _ in range(12)]
            results = self.follows_the_rules(bodies + [""] + bodies[:4], lx, model)
            statuses.update(r.status for r in results)
        assert SegmentStatus.DISAMBIGUATED in statuses

    @pytest.mark.parametrize("floor", [1e-9, 0.25, 0.0])
    def test_rounded_tie_in_a_mixed_batch(self, floor):
        # TestSegment.test_prefix_with_lower_sum_wins_a_rounded_tie's body
        # among others of its lexicon
        lx = lex("a", "b", "ba", "bb")
        model = BigramModel({("b", "bb"): 10, ("a", "bb"): 2187, ("a", "b"): 2187, ("ba", "a"): 2}, floor_prob=floor)
        tie = "babbbbbba"
        bodies = [tie[:k] for k in range(1, len(tie))] + [tie, "abba", tie, "bbbb", tie[::-1]]
        results = self.follows_the_rules(bodies, lx, model)
        if floor == 1e-9:  # the floor the tie was found at
            assert results[bodies.index(tie)].tokens == ("ba", "b", "bb", "bb", "ba")

    def test_path_counts_cap_at_two_past_many_words(self):
        # 70 words start at each position of "a" * 70, most with 2 splits onward
        lx = lex(*("a" * n for n in range(1, 71)))
        [(words, paths)] = lattice_of(["a" * 70], lx)
        assert [len(w) for w in words] == list(range(70, 0, -1))
        assert paths == [2] * 69 + [1, 1]

    def test_no_word_straddles_two_bodies(self):
        lx = lex("abc", "ab")
        results = self.check(["ab", "c"], lx, 1e-9)
        assert [(r.tokens, r.status) for r in results] == [
            (("ab",), SegmentStatus.EXACT_WORD),
            ((), SegmentStatus.UNSEGMENTABLE),
        ]
        lattice = _walk(["ab", "c"], lx.trie)
        assert lattice.state.size == 1 and lx.trie.words[lattice.state[0]] == "ab"

    def test_invalid_inputs_get_a_result_in_place(self, worked_lexicon, worked_bigrams, monkeypatch):
        # one batch: three raws that do not normalize, and bodies that recur
        hashtags = [
            "#WorldWideFestival",
            "#tbt2015",
            "#world wide",
            "worldwidefestival",
            "#xqzv",
            "#",
            "#WORLDWIDE",
            " #WorldWide ",
        ]
        invalid = {1: Hashtag("#tbt2015", ""), 2: Hashtag("#world wide", ""), 5: Hashtag("#", "")}
        walked = []
        walk = segmenter._walk

        def counting_walk(bodies, trie):
            walked.append(list(bodies))
            return walk(bodies, trie)

        monkeypatch.setattr(segmenter, "_walk", counting_walk)
        results = list(segment_all(hashtags, worked_lexicon, worked_bigrams))
        # one walk, each distinct body once in order of first appearance
        assert walked == [["worldwidefestival", "xqzv", "worldwide"]]
        assert len(results) == len(hashtags)
        for k, (hashtag, result) in enumerate(zip(hashtags, results)):
            if k in invalid:
                assert result == SegmentResult(invalid[k], (), SegmentStatus.INVALID, float("-inf"))
                with pytest.raises(InputError):
                    segment(hashtag, worked_lexicon, worked_bigrams)
            else:
                assert result == segment(hashtag, worked_lexicon, worked_bigrams), hashtag
        statuses = ["disambiguated", "invalid", "invalid", "disambiguated", "unsegmentable", "invalid"]
        assert [r.status.value for r in results] == statuses + ["exact_word", "exact_word"]


class TestEvaluate:
    def test_perfect_single_item(self, worked_lexicon, worked_bigrams):
        report = evaluate_segmenter(
            [("#worldwide", ("worldwide",))], worked_lexicon, worked_bigrams
        )
        assert report.success_rate == 1.0
        assert report.failures == ()

    def test_reported_rate_matches_counts(self, worked_lexicon, worked_bigrams):
        golden = [
            ("#worldwidefestival", ("worldwide", "festival")),
            ("#throwbackthursday", ("throwback", "thursday")),
            ("#worldwide", ("worldwide",)),
            ("#unknownzz", ("unknown", "zz")),
        ]
        report = evaluate_segmenter(golden, worked_lexicon, worked_bigrams)
        assert report.total == 4 and report.correct == 3
        assert report.success_rate == pytest.approx(0.75)

    def test_lexicon_miss_flagged(self, worked_lexicon, worked_bigrams):
        report = evaluate_segmenter(
            [("#unknownzz", ("unknown", "zz"))], worked_lexicon, worked_bigrams
        )
        (failure,) = report.failures
        assert failure.lexicon_miss
        assert failure.produced == ()

    def test_segments_in_one_batch(self, worked_lexicon, worked_bigrams, monkeypatch):
        golden = [
            ("#worldwidefestival", ("worldwide", "festival")),
            ("#tbt2015", ("tbt",)),
            ("#throwbackthursday", ("throw", "back", "thursday")),
            ("#", ()),
            ("#WorldWide", ("worldwide",)),
            ("#unknownzz", ("unknown", "zz")),
            ("#worldwidefestival", ("world", "wide", "festival")),
        ]
        expected = []
        for raw, tokens in golden:
            try:
                produced = segment(raw, worked_lexicon, worked_bigrams).tokens
            except InputError:
                produced = ()
            if produced != tokens:
                miss = any(t not in worked_lexicon for t in tokens)
                expected.append(SegmentationFailure(raw, tokens, produced, miss))
        batches = []
        segment_all = segmenter.segment_all

        def counting(hashtags, *args):
            batches.append(list(hashtags))
            return segment_all(hashtags, *args)

        monkeypatch.setattr(segmenter, "segment_all", counting)
        report = evaluate_segmenter(iter(golden), worked_lexicon, worked_bigrams)
        assert batches == [[raw for raw, _ in golden]]
        assert report.failures == tuple(expected)
        assert (report.total, report.correct) == (7, 7 - len(expected))
        assert [f.hashtag for f in report.failures] == ["#tbt2015", "#throwbackthursday", "#unknownzz", "#worldwidefestival"]

    def test_empty_golden_rejected(self, worked_lexicon, worked_bigrams):
        with pytest.raises(InputError):
            evaluate_segmenter([], worked_lexicon, worked_bigrams)
