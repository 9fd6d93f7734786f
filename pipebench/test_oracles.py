"""The benchmark's oracles on small cases whose answers are known.

``run.py`` calls every ``test_*`` function here at the start of each run;
``python3 -m pytest pipebench/test_oracles.py`` runs them too.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import oracles

SCRATCH = Path(__file__).resolve().parent / "_runs"

# The acceptance suite's worked example: P(world, wide) = 0.05,
# P(wide, festival) = 0.0099, P(worldwide, festival) = 0.0022.
WORKED = oracles.Bigrams(
    {("world", "wide"): 500, ("wide", "festival"): 99, ("worldwide", "festival"): 22, ("filler", "mass"): 9379}
)
WORKED_LEXICON = frozenset({"worldwide", "world", "wide", "festival", "filler", "mass"})


def test_best_split_worked_example():
    assert oracles.best_split("worldwidefestival", WORKED_LEXICON, WORKED) == ("worldwide", "festival")


def test_best_split_exact_word_wins():
    favours_split = oracles.Bigrams({("world", "wide"): 10**9})
    assert oracles.best_split("worldwide", WORKED_LEXICON, favours_split) == ("worldwide",)


def test_best_split_no_split():
    assert oracles.best_split("qqq", WORKED_LEXICON, WORKED) == ()


def test_best_split_tie_goes_to_fewer_tokens():
    # log P(ab, cd) = log 0.01 equals log P(a, b) + log P(b, cd) = 2 log 0.1.
    bigrams = oracles.Bigrams({("ab", "cd"): 100, ("a", "b"): 1000, ("b", "cd"): 1000, ("x", "y"): 7900})
    lexicon = frozenset({"ab", "cd", "a", "b"})
    assert bigrams.score(("ab", "cd")) == bigrams.score(("a", "b", "cd"))
    assert oracles.best_split("abcd", lexicon, bigrams) == ("ab", "cd")


def test_best_split_tie_goes_to_lexicographic_order():
    # Both splits cross one unseen bigram and have two tokens.
    lexicon = frozenset({"a", "bc", "ab", "c"})
    assert oracles.best_split("abc", lexicon, oracles.Bigrams({("x", "y"): 1})) == ("a", "bc")


def test_all_splits_is_uncapped():
    assert len(oracles.all_splits("into" * 9, frozenset({"in", "to", "into"}))) == 2**9


def test_greedy_oracle_is_greedy_not_optimal():
    table = {("a", "x"): 0.9, ("a", "y"): 0.8, ("b", "x"): 0.85, ("b", "y"): 0.1}
    # Greedy takes 0.9 and is left with 0.1; the best assignment would be 1.65.
    assert oracles.greedy_oracle(("a", "b"), ("x", "y"), lambda u, v: table[u, v]) == 0.5


def test_greedy_oracle_tie_takes_first_row_major():
    table = {("a", "x"): 0.5, ("a", "y"): 0.5, ("b", "x"): 0.5, ("b", "y"): 0.0}
    # (a, x) is picked first, leaving (b, y) = 0; (a, y) first would leave 0.5.
    assert oracles.greedy_oracle(("a", "b"), ("x", "y"), lambda u, v: table[u, v]) == 0.25


def test_profile_sim_empty_and_equal_sets():
    identity = lambda u, v: 1.0 if u == v else 0.0  # noqa: E731
    assert oracles.profile_sim(frozenset(), frozenset({"a"}), identity) == 0.0
    assert oracles.profile_sim(frozenset({"a", "b"}), frozenset({"a", "b"}), identity) == 1.0
    assert oracles.profile_sim(frozenset({"a"}), frozenset({"a", "b", "c"}), identity) == 1.0


def _write(directory: Path, name: str, rows) -> Path:
    path = directory / name
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


def _raises(check, *args) -> bool:
    try:
        check(*args)
    except oracles.CheckFailed:
        return True
    return False


# Two tight pairs: {p, q} and {r, s}.
SIMS = [
    ("p", "q", "0.900000"),
    ("p", "r", "0.100000"),
    ("p", "s", "0.200000"),
    ("q", "r", "0.100000"),
    ("q", "s", "0.100000"),
    ("r", "s", "0.800000"),
]


def test_cluster_and_recommendation_checks():
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        tmp = Path(tmp)
        sims = oracles.Sims(_write(tmp, "sims.tsv", SIMS))
        good = _write(tmp, "good.tsv", [("p", "0", "p"), ("q", "0", "p"), ("r", "1", "r"), ("s", "1", "r")])
        oracles.check_clusters(good, sims)
        # s is nearer medoid r than medoid p.
        wrong = _write(tmp, "wrong.tsv", [("p", "0", "p"), ("q", "0", "p"), ("r", "1", "r"), ("s", "0", "p")])
        assert _raises(oracles.check_clusters, wrong, sims)

        recs = [
            ("p", "1", "q", "0.900000"),
            ("q", "1", "p", "0.900000"),
            ("r", "1", "s", "0.800000"),
            ("s", "1", "r", "0.800000"),
        ]
        oracles.check_recommendations(_write(tmp, "recs.tsv", recs), good, sims, 5)
        crossing = recs[:3] + [("s", "1", "p", "0.200000")]
        assert _raises(oracles.check_recommendations, _write(tmp, "bad.tsv", crossing), good, sims, 5)


def test_sims_check():
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        tmp = Path(tmp)
        profiles = [("p", frozenset({"a"})), ("q", frozenset({"a"})), ("r", frozenset({"b"})), ("s", frozenset())]
        identity = lambda u, v: 1.0 if u == v else 0.0  # noqa: E731
        rows = [("p", "q", "1.000000")] + [(a, b, "0.000000") for a, b in ("pr", "ps", "qr", "qs", "rs")]
        oracles.check_sims(oracles.Sims(_write(tmp, "sims.tsv", rows)), profiles, identity, seed=0, sample=6)
        off = [rows[0], ("p", "r", "0.500000")] + rows[2:]
        assert _raises(oracles.check_sims, oracles.Sims(_write(tmp, "off.tsv", off)), profiles, identity, 0, 6)
