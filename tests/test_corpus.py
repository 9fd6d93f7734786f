"""Lexicon and bigram model loading."""

import math
from pathlib import Path

import numpy as np
import pytest

from tagrec.corpus import DEAD, DEAD_COLUMN, ROOT, BigramModel, Lexicon, load_bigrams, load_lexicon
from tagrec.errors import EmptyResourceError, InputError, ParseError, ResourceError

DATA = Path(__file__).resolve().parent.parent / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_normalizes_to_lowercase(self, tmp_path):
        path = write(tmp_path, "lex.txt", "Throwback\nthursday\nworld\n")
        lex = load_lexicon(path)
        assert lex.words == {"throwback", "thursday", "world"}
        assert lex.skipped_lines == 0

    def test_skips_non_letter_lines(self, tmp_path):
        path = write(tmp_path, "lex.txt", "don't\ncafe\n")
        lex = load_lexicon(path)
        assert lex.words == {"cafe"}
        assert lex.skipped_lines == 1

    def test_empty_file_raises(self, tmp_path):
        path = write(tmp_path, "lex.txt", "")
        with pytest.raises(EmptyResourceError):
            load_lexicon(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ResourceError):
            load_lexicon(tmp_path / "nope.txt")

    def test_blank_lines_not_counted_as_skipped(self, tmp_path):
        path = write(tmp_path, "lex.txt", "alpha\n\n\nbeta\n")
        lex = load_lexicon(path)
        assert lex.words == {"alpha", "beta"}
        assert lex.skipped_lines == 0

    def test_membership_and_prefixes(self, tmp_path):
        lex = load_lexicon(write(tmp_path, "lex.txt", "a\nlonger\nlong\n"))
        assert "a" in lex and "b" not in lex
        trie = lex.trie
        assert trie is lex.trie

        def spell(text):
            state = ROOT
            for ch in text:
                state = int(trie.table[state, ord(ch) - ord("a") if "a" <= ch <= "z" else DEAD_COLUMN])
            return state

        # one state per prefix of a word, past DEAD and ROOT
        prefixes = ["a", "l", "lo", "lon", "long", "longe", "longer"]
        states = [spell(p) for p in prefixes]
        assert sorted(states) == list(range(ROOT + 1, len(trie.table)))
        assert [trie.words[s] for s in states] == ["a", None, None, None, "long", None, "longer"]
        assert trie.is_word.tolist() == [w is not None for w in trie.words]
        assert [trie.depth[s] for s in states] == [len(p) for p in prefixes]
        assert all(states[i] < states[i + 1] for i in range(1, len(states) - 1))  # a child after its parent
        (longer,) = (w for w in lex.words if w == "longer")
        assert trie.words[spell("longer")] is longer  # the lexicon's own string
        for dead in ["b", "ab", "longerx", "lo-", "l\n"]:
            assert spell(dead) == DEAD
        assert (trie.table[DEAD] == DEAD).all() and (trie.table[:, DEAD_COLUMN] == DEAD).all()
        assert trie.table.dtype == np.int32 and trie.table.shape[1] == DEAD_COLUMN + 1

    def test_trie_leaves_out_words_outside_a_to_z(self):
        trie = Lexicon(words=frozenset({"ab", "a-b", "Ab", "café"})).trie
        assert [w for w in trie.words if w is not None] == ["ab"]
        assert len(trie.table) == 4  # DEAD, ROOT, "a", "ab"

    @pytest.mark.parametrize("words", [None, ("a", "aa", "ab", "b")], ids=["data", "prefixes"])
    def test_word_states_follow_sorted_word_order(self, words):
        # the segmenter ranks the prefixes of its Viterbi rounds by word state
        lex = load_lexicon(DATA / "lexicon.txt") if words is None else Lexicon(words=frozenset(words))
        trie = lex.trie
        states = np.flatnonzero(trie.is_word)
        assert trie.words[states].tolist() == sorted(lex.words)
        assert trie.state_of == dict(zip(trie.words[states].tolist(), states.tolist()))


class TestLoadBigrams:
    def test_worked_probabilities(self, worked_bigrams):
        assert worked_bigrams.probability("world", "wide") == pytest.approx(0.05, rel=1e-12)
        assert worked_bigrams.probability("wide", "festival") == pytest.approx(0.0099, rel=1e-12)
        assert worked_bigrams.probability("worldwide", "festival") == pytest.approx(0.0022, rel=1e-12)

    def test_unseen_pair_gets_floor(self, worked_bigrams):
        assert worked_bigrams.probability("zzz", "qqq") == worked_bigrams.floor_prob

    def test_duplicate_rows_aggregate(self, tmp_path):
        path = write(tmp_path, "bg.tsv", "a\tb\t3\na\tb\t2\n")
        model = load_bigrams(path)
        assert model.counts[("a", "b")] == 5
        assert model.total == 5

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "bg.tsv", "a\tb\t3\na\tb\n")
        with pytest.raises(ParseError) as exc:
            load_bigrams(path)
        assert exc.value.line_no == 2

    def test_non_integer_count_rejected(self, tmp_path):
        path = write(tmp_path, "bg.tsv", "a\tb\tmany\n")
        with pytest.raises(ParseError):
            load_bigrams(path)

    def test_non_positive_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_bigrams(write(tmp_path, "bg.tsv", "a\tb\t0\n"))

    def test_empty_file_raises(self, tmp_path):
        with pytest.raises(EmptyResourceError):
            load_bigrams(write(tmp_path, "bg.tsv", "\n"))

    def test_words_lowercased(self, tmp_path):
        model = load_bigrams(write(tmp_path, "bg.tsv", "World\tWide\t5\n"))
        assert model.probability("world", "wide") == 1.0


class TestBigramModel:
    def test_present_probabilities_sum_to_one(self, worked_bigrams):
        total = sum(worked_bigrams.probability(a, b) for a, b in worked_bigrams.counts)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_probabilities_in_range(self, worked_bigrams):
        for a, b in worked_bigrams.counts:
            assert 0.0 < worked_bigrams.probability(a, b) <= 1.0

    def test_deterministic_reload(self, worked_bigrams_file):
        m1 = load_bigrams(worked_bigrams_file)
        m2 = load_bigrams(worked_bigrams_file)
        assert m1.counts == m2.counts and m1.total == m2.total

    def test_zero_floor_gives_minus_inf_log(self):
        model = BigramModel({("a", "b"): 1}, floor_prob=0.0)
        assert model.probability("x", "y") == 0.0
        assert model.log_probability("x", "y") == float("-inf")
        assert model.log_probability("a", "b") == math.log(1.0)

    @pytest.mark.parametrize("floor", [1e-9, 0.0])
    def test_log_probability_is_log_of_probability(self, worked_bigrams_file, floor):
        model = load_bigrams(worked_bigrams_file, floor_prob=floor)
        words = sorted({w for pair in model.counts for w in pair} | {"zzz"})
        unseen = 0
        for a in words:
            for b in words:
                p = model.probability(a, b)
                assert model.log_probability(a, b) == (math.log(p) if p > 0 else float("-inf")), (a, b)
                unseen += (a, b) not in model.counts
        assert unseen and model.log_probability("zzz", "zzz") == (math.log(floor) if floor else float("-inf"))
        seen, unseen_log = model.log_probabilities()
        assert seen == {pair: model.log_probability(*pair) for pair in model.counts}
        assert unseen_log == model.log_probability("zzz", "zzz")
        with pytest.raises(TypeError):
            seen["zzz", "zzz"] = 0.0  # read-only

    def test_floor_must_be_below_one(self):
        with pytest.raises(InputError):
            BigramModel({("a", "b"): 1}, floor_prob=1.0)
