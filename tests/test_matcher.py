"""Greedy profile matching and similarity matrix construction."""

import gc
import logging
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from tagrec import matcher
from tagrec.cluster import k_medoids
from tagrec.errors import InputError, UnknownIdError
from tagrec.matcher import (
    SimilarityMatrix,
    build_similarity_matrix,
    profile_similarity,
)
from tagrec.profiles import Profile
from tagrec.taxonomy import load_taxonomy

from conftest import square, table_word_sim

DATA = Path(__file__).resolve().parent.parent / "data"


def greedy_oracle(rows, cols, word_sim, rounds=None):
    """Independent re-implementation: materialize the grid, scan all cells
    every round, overwrite retired rows/columns with -1, stop when every
    row or every column is retired, or after ``rounds`` rounds."""
    grid = [[word_sim(u, v) for v in cols] for u in rows]
    n, m = len(rows), len(cols)
    total, counter = 0.0, 0
    retired_rows: set[int] = set()
    retired_cols: set[int] = set()
    while len(retired_rows) < n and len(retired_cols) < m and counter != rounds:
        best, br, bc = -2.0, -1, -1
        for i in range(n):
            for j in range(m):
                if grid[i][j] > best:
                    best, br, bc = grid[i][j], i, j
        total += best
        counter += 1
        retired_rows.add(br)
        retired_cols.add(bc)
        for j in range(m):
            grid[br][j] = -1.0
        for i in range(n):
            grid[i][bc] = -1.0
    return total / counter if counter else 0.0, counter


def random_word_sim(rng, words):
    table = {}
    words = sorted(words)
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            table[frozenset((a, b))] = rng.random()
    return table_word_sim(table)


class TestProfileSimilarity:
    def test_worked_example(self, worked_word_sim):
        p1 = {"information", "office"}
        p2 = {"salary", "work", "company"}
        value = profile_similarity(p1, p2, worked_word_sim)
        assert value == pytest.approx((0.781 + 0.388) / 2, rel=1e-12)
        assert value == pytest.approx(0.584, abs=1e-3)

    def test_identical_singletons(self, worked_word_sim):
        assert profile_similarity({"dog"}, {"dog"}, worked_word_sim) == 1.0

    def test_empty_profile_scores_zero(self, worked_word_sim):
        assert profile_similarity(set(), {"work"}, worked_word_sim) == 0.0
        assert profile_similarity(set(), set(), worked_word_sim) == 0.0

    def test_accepts_profile_objects(self, worked_word_sim):
        p1 = Profile(id="a", words=frozenset({"information", "office"}))
        p2 = Profile(id="b", words=frozenset({"salary", "work", "company"}))
        assert profile_similarity(p1, p2, worked_word_sim) == pytest.approx(0.5845, rel=1e-12)

    def test_matches_oracle_randomized(self):
        rng = random.Random(20240810)
        pool = [f"w{i}" for i in range(10)]
        for _ in range(1000):
            p1 = set(rng.sample(pool, rng.randint(1, 4)))
            p2 = set(rng.sample(pool, rng.randint(1, 4)))
            sw = random_word_sim(rng, set(p1) | set(p2))
            got = profile_similarity(p1, p2, sw)
            expected, counter = greedy_oracle(sorted(p1), sorted(p2), sw)
            assert got == expected
            assert counter == min(len(p1), len(p2))

    def test_bit_exact_symmetry_randomized(self):
        rng = random.Random(987)
        pool = [f"w{i}" for i in range(12)]
        for trial in range(1000):
            p1 = set(rng.sample(pool, rng.randint(0, 5)))
            p2 = set(rng.sample(pool, rng.randint(0, 5)))
            sw = random_word_sim(rng, set(p1) | set(p2))
            if trial % 2:
                # quantized values force ties through the grid
                base = sw

                def sw(a, b, _base=base):
                    return round(_base(a, b), 1)

            ab = profile_similarity(p1, p2, sw)
            ba = profile_similarity(p2, p1, sw)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_upper_bound_is_max_cell(self):
        rng = random.Random(55)
        pool = [f"w{i}" for i in range(8)]
        for _ in range(200):
            p1 = set(rng.sample(pool, rng.randint(1, 4)))
            p2 = set(rng.sample(pool, rng.randint(1, 4)))
            sw = random_word_sim(rng, set(p1) | set(p2))
            max_cell = max(sw(a, b) for a in p1 for b in p2)
            assert profile_similarity(p1, p2, sw) <= max_cell + 1e-15

    def test_all_ones_iff_perfect_matches(self):
        sw = table_word_sim({})  # identity 1, everything else 0
        assert profile_similarity({"a", "b"}, {"a", "b"}, sw) == 1.0
        assert profile_similarity({"a", "b"}, {"a", "c"}, sw) < 1.0


class TestSimilarityMatrix:
    def test_basic_accessors(self, blob_matrix):
        assert blob_matrix.n == 6
        assert blob_matrix.sim(0, 0) == 1.0
        assert blob_matrix.sim(0, 1) == pytest.approx(0.9)
        assert blob_matrix.sim(1, 0) == pytest.approx(0.9)
        assert blob_matrix.sim(blob_matrix.index("u0"), blob_matrix.index("u3")) == pytest.approx(0.1)

    def test_unknown_id(self, blob_matrix):
        with pytest.raises(UnknownIdError):
            blob_matrix.index("ghost")

    @staticmethod
    def random_matrix(n: int, seed: int) -> SimilarityMatrix:
        rng = np.random.default_rng(seed)
        return SimilarityMatrix([f"u{i}" for i in range(n)], rng.random(n * (n - 1) // 2, dtype=np.float32))

    def test_block_equals_square(self):
        for n, rows, cols in [
            (9, [8, 0, 3, 3, 5], [0, 3, 8, 1]),
            (9, range(9), range(9)),
            (2, [1, 0, 1], [0, 1]),
            (1, [0, 0], [0]),
            (0, [], []),
        ]:
            matrix = self.random_matrix(n, seed=n)
            block = matrix.block(rows, cols)
            assert block.dtype == np.float32
            assert np.array_equal(block, square(matrix)[np.ix_(list(rows), list(cols))])

    def test_block_peak_memory_of_one_large_cluster(self):
        matrix = self.random_matrix(1000, seed=1)
        members = np.random.default_rng(2).permutation(1000)
        expected = square(matrix)[np.ix_(members, members)]
        cells = members.size**2
        calls = {
            "block": lambda: matrix.block(members, members),
            # k = 1: each medoid update reads the one cluster's square of distances
            "k_medoids": lambda: k_medoids(matrix, k=1, seed=0),
        }
        for name, call in calls.items():
            gc.collect()
            tracemalloc.start()
            try:
                got = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if name == "block":
                assert np.array_equal(got, expected)
            else:
                distances = 1.0 - square(matrix).astype(np.float64)
                assert got.medoids == (matrix.ids[int(np.argmin(distances.sum(axis=0)))],)
            # an intp index and the float32 block, or the float32 block and the
            # float64 distances, plus numpy's cast buffers; int64 lo, hi and
            # index temporaries took 32 bytes per cell
            assert peak <= 12 * cells + 2**17, (name, peak / cells)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            SimilarityMatrix(["a", "a"], np.zeros(1, dtype=np.float32))

    def test_scaled_preserves_order(self, blob_matrix):
        scaled = blob_matrix.scaled(0.5)
        assert scaled.sim(0, 1) == pytest.approx(0.45)


class TestBuildMatrix:
    def make_profiles(self):
        return [
            Profile(id="a", words=frozenset({"information", "office"})),
            Profile(id="b", words=frozenset({"salary", "work", "company"})),
        ]

    def test_worked_pair(self, worked_word_sim):
        matrix = build_similarity_matrix(self.make_profiles(), worked_word_sim)
        assert matrix.sim(matrix.index("a"), matrix.index("b")) == pytest.approx(0.5845, abs=1e-6)
        assert matrix.sim(0, 0) == 1.0

    def test_single_profile(self, worked_word_sim):
        matrix = build_similarity_matrix(self.make_profiles()[:1], worked_word_sim)
        assert matrix.n == 1
        assert matrix.sim(0, 0) == 1.0

    def test_mutually_oov_profiles(self):
        sw = table_word_sim({})
        profiles = [Profile(id=f"p{i}", words=frozenset({f"w{i}"})) for i in range(3)]
        matrix = build_similarity_matrix(profiles, sw)
        for i in range(3):
            for j in range(3):
                assert matrix.sim(i, j) == (1.0 if i == j else 0.0)

    def test_duplicate_ids_rejected(self, worked_word_sim):
        profiles = self.make_profiles() + [Profile(id="a", words=frozenset({"work"}))]
        with pytest.raises(InputError):
            build_similarity_matrix(profiles, worked_word_sim)

    def test_entries_equal_individual_calls(self):
        rng = random.Random(3)
        pool = [f"w{i}" for i in range(12)]
        profiles = [
            Profile(id=f"p{i}", words=frozenset(rng.sample(pool, rng.randint(0, 5))))
            for i in range(8)
        ]
        vocab = set().union(*(p.words for p in profiles)) or {"x"}
        sw = random_word_sim(rng, vocab)
        matrix = build_similarity_matrix(profiles, sw)
        for _ in range(20):
            i, j = rng.randrange(8), rng.randrange(8)
            expected = 1.0 if i == j else profile_similarity(profiles[i], profiles[j], sw)
            assert matrix.sim(i, j) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("grid_bytes", [1, 2800, 8000], ids=["one-row", "three-rows", "eight-rows"])
    def test_gather_blocks_keep_the_matrix(self, monkeypatch, grid_bytes):
        # 23 profiles over 4 non-empty word sets and the empty one, gathered
        # in blocks of 1, 3 and 8 rows (the last block shorter) against one
        rng = random.Random(9)
        pool = [f"w{i}" for i in range(10)]
        distinct = [frozenset(rng.sample(pool, rng.randint(0, 4))) for _ in range(5)] + [frozenset()]
        profiles = [Profile(id=f"p{i}", words=rng.choice(distinct)) for i in range(23)]
        sw = random_word_sim(rng, set(pool))
        whole = build_similarity_matrix(profiles, sw)
        monkeypatch.setattr(matcher, "GRID_BYTES", grid_bytes)
        assert np.array_equal(build_similarity_matrix(profiles, sw).condensed, whole.condensed)

    def test_progress_hook_called(self, worked_word_sim):
        calls = []
        profiles = self.make_profiles()
        build_similarity_matrix(profiles, worked_word_sim, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (1, 1)


class TestParallelBuild:
    def test_workers_do_not_change_results(self, toy_taxonomy_half):
        rng = random.Random(31)
        vocab = ["dog", "cat", "animal", "entity", "zqxv", "warbler"]
        profiles = [
            Profile(id=f"p{i}", words=frozenset(rng.sample(vocab, rng.randint(0, 4))))
            for i in range(12)
        ]
        serial = build_similarity_matrix(profiles, toy_taxonomy_half.word_similarity, workers=1)
        parallel = build_similarity_matrix(profiles, toy_taxonomy_half.word_similarity, workers=2)
        assert serial.ids == parallel.ids
        assert np.array_equal(serial.condensed, parallel.condensed)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, worked_word_sim, workers):
        profiles = [Profile(id="a", words=frozenset({"office"})), Profile(id="b", words=frozenset({"work"}))]
        with pytest.raises(InputError, match="workers must be at least 1"):
            build_similarity_matrix(profiles, worked_word_sim, workers=workers)

    @pytest.mark.parametrize("sets, workers, started", [(3, 8, 3), (40, 2, 2), (40, 8, 8)])
    def test_forks_no_idle_processes(self, monkeypatch, sets, workers, started):
        """The pool starts no more threads than there are ranges, and none
        is left running after the build."""
        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(matcher, "ThreadPoolExecutor", Recorded)
        words = [f"w{k}" for k in range(5)]
        sw = random_word_sim(random.Random(5), words)
        # profile i holds the words of the set bits of i + 1, so 40 profiles repeat sets
        held = [frozenset(w for k, w in enumerate(words) if (i + 1) >> k & 1) for i in range(sets)]
        profiles = [Profile(id=f"p{i}", words=w) for i, w in enumerate(held)]
        chunks = matcher._row_chunks(len(set(held) - {frozenset()}), 4 * max(workers, 4))
        assert len(chunks) >= 2
        serial = build_similarity_matrix(profiles, sw)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so scoring ranges interleave
        try:
            pooled = build_similarity_matrix(profiles, sw, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert pools == [min(workers, len(chunks))] == [started]
        assert np.array_equal(pooled.condensed, serial.condensed)


class TestBatchedMatrix:
    """The whole batched matrix against the literal oracle, pair by pair."""

    @pytest.mark.parametrize(
        "workers, grid_bytes",
        [(1, matcher.GRID_BYTES), (2, matcher.GRID_BYTES), (1, 2048)],
        ids=["serial", "two-workers", "small-blocks"],
    )
    def test_every_pair_equals_oracle(self, monkeypatch, workers, grid_bytes):
        monkeypatch.setattr(matcher, "GRID_BYTES", grid_bytes)
        rng = random.Random(4242)
        pool = [f"w{i}" for i in range(14)]
        base = random_word_sim(rng, pool)

        def quantised(a, b):
            return round(base(a, b), 1)  # ties throughout the grids

        asked = []

        def recorded(a, b):
            asked.append(frozenset((a, b)))
            return quantised(a, b)

        # sizes 0..8 pad the grids; drawing 60 profiles from 27 sets repeats
        # sets, so shared sets are scored against themselves
        distinct = [frozenset(rng.sample(pool, size)) for size in range(9) for _ in range(3)]
        words = [rng.choice(distinct) for _ in range(60)]
        # a shared set whose words meet only each other
        words += [frozenset({"x1", "x2"})] * 2
        profiles = [Profile(id=f"p{i}", words=w) for i, w in enumerate(words)]
        matrix = build_similarity_matrix(profiles, recorded, workers=workers)

        k = 0
        grid_pairs = set()
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                rows, cols = sorted((tuple(sorted(words[i])), tuple(sorted(words[j]))))
                expected, _ = greedy_oracle(rows, cols, quantised)
                assert matrix.condensed[k] == np.float32(expected), (i, j)
                grid_pairs |= {frozenset((u, v)) for u in rows for v in cols}
                k += 1
        # word_sim is asked once per word pair some grid holds, and no other
        assert len(asked) == len(set(asked))
        assert set(asked) == grid_pairs

    @pytest.mark.parametrize(
        "workers, grid_bytes",
        [(1, matcher.GRID_BYTES), (2, matcher.GRID_BYTES), (1, 2048)],
        ids=["serial", "two-workers", "small-blocks"],
    )
    def test_table_builder_equals_pairwise(self, monkeypatch, workers, grid_bytes):
        monkeypatch.setattr(matcher, "GRID_BYTES", grid_bytes)
        rng = random.Random(2424)
        pool = [f"w{i}" for i in range(14)]
        base = random_word_sim(rng, pool)

        def quantised(a, b):
            return round(base(a, b), 1)

        def never(a, b):
            raise AssertionError("word_sim is not asked when a table builder is given")

        built = []

        def table(words):
            # cells of words outside every profile are 1, which no grid may read
            built.append(list(words))
            return np.array([[quantised(a, b) if {a, b} <= set(pool) else 1.0 for b in words] for a in words])

        distinct = [frozenset(rng.sample(pool, size)) for size in range(9) for _ in range(3)]
        profiles = [Profile(id=f"p{i}", words=rng.choice(distinct)) for i in range(60)]
        expected = build_similarity_matrix(profiles, quantised)
        matrix = build_similarity_matrix(
            profiles, never, workers=workers, word_table=lambda words, alone: (np.arange(len(words)), table(words))
        )
        assert len(built) == 1
        assert np.array_equal(matrix.condensed, expected.condensed)

    def test_empty_grids_score_zero(self):
        def never(a, b):
            raise AssertionError("no grid holds a word pair")

        profiles = [
            Profile(id="e1", words=frozenset()),
            Profile(id="e2", words=frozenset()),
            Profile(id="a", words=frozenset({"alpha"})),
        ]
        matrix = build_similarity_matrix(profiles, never)
        assert matrix.condensed.tolist() == [0.0, 0.0, 0.0]


class TestCompactWordTable:
    """The build over ``Taxonomy.word_table``, whose out-of-taxonomy words
    that never meet themselves share one zero row, against a build that
    asks ``word_similarity`` pair by pair."""

    CASES = [
        {"solo", "odd", "dog"},  # solo and odd: out of the taxonomy, in one set only
        {"zqxv", "cat"},  # zqxv: in two sets, so its identity cell of 1.0 is read
        {"zqxv", "dog", "animal"},
        {"ZQXV", "zqxv", "cat"},  # ties between the identity cell and a lowercase twin
        {"shared", "cat"},  # shared: in a set two profiles hold, scored against itself
        {"shared", "cat"},
        {"Dog", "dog", "lone"},  # mixed-case duplicates: of known words, and lone and Lone in one set each
        {"CAT", "entity", "Lone"},
        set(),
        set(),
    ]

    @classmethod
    def profiles(cls):
        rng = random.Random(64)
        pool = ["dog", "Dog", "cat", "CAT", "animal", "entity", "zqxv", "ZQXV", "solo", "qq", "rr", "Rr", "ss"]
        drawn = [set(rng.sample(pool, rng.randint(0, 5))) for _ in range(30)]
        sets = cls.CASES + drawn + rng.sample(drawn, 8)
        return [Profile(id=f"p{i:02d}", words=frozenset(s)) for i, s in enumerate(sets)]

    @pytest.mark.parametrize(
        "workers, grid_bytes",
        [(1, matcher.GRID_BYTES), (2, matcher.GRID_BYTES), (1, 256), (2, 256)],
        ids=["serial", "two-workers", "small-blocks", "two-workers-small-blocks"],
    )
    def test_equals_pairwise_build(self, monkeypatch, toy_taxonomy_half, workers, grid_bytes):
        monkeypatch.setattr(matcher, "GRID_BYTES", grid_bytes)
        tax = toy_taxonomy_half
        profiles = self.profiles()

        def never(a, b):
            raise AssertionError("word_sim is not asked when a table builder is given")

        expected = build_similarity_matrix(profiles, tax.word_similarity)
        matrix = build_similarity_matrix(profiles, never, workers=workers, word_table=tax.word_table)
        assert np.array_equal(matrix.condensed, expected.condensed)
        for (i, p), (j, q) in combinations(enumerate(profiles), 2):
            rows, cols = sorted((tuple(sorted(p.words)), tuple(sorted(q.words))))
            oracle = greedy_oracle(rows, cols, tax.word_similarity)[0] if rows else 0.0
            assert matrix.sim(i, j) == np.float32(oracle), (rows, cols)
        # the identity cell of zqxv wins: 1.0, then lin(animal, cat), over min(2, 3) rounds
        assert matrix.sim(1, 2) == np.float32((1.0 + tax.word_similarity("animal", "cat")) / 2)
        assert matrix.sim(4, 5) == 1.0

    def test_words_that_cannot_score_share_the_zero_row(self, toy_taxonomy_half):
        sets = sorted({tuple(sorted(s)) for s in self.CASES if s})
        scorer = matcher._SetScorer(sets, [s == ("cat", "shared") for s in sets], None, toy_taxonomy_half.word_table)
        row = {w: int(scorer.padded[a, k]) for a, s in enumerate(sets) for k, w in enumerate(s)}
        # solo and odd share the last row, of zeros; every other word has its own
        assert row["solo"] == row["odd"] == len(scorer.table) - 1
        assert len(set(row.values())) == len(row) - 1
        assert scorer.table[row["solo"]].max() == 0.0
        assert scorer.table[row["zqxv"], row["zqxv"]] == scorer.table[row["lone"], row["Lone"]] == 1.0
        # 13 words: 11 rows of their own, plus the padding word's and the
        # zero row, where a dense table has 13 + 1
        assert len(row) == 13 and len(scorer.table) == 11 + 2

    def test_peak_memory_of_open_vocabulary(self):
        """200 profiles, like the openvocab benchmark's, of lexicon words
        that the taxonomy mostly does not know.  A dense table over their
        vocabulary of about 1,000 words took a tracemalloc peak of 9.2 MB."""
        taxonomy = DATA / "taxonomy"
        tax = load_taxonomy(taxonomy / "synsets.tsv", taxonomy / "edges.tsv", taxonomy / "counts.tsv")
        lexicon = sorted({w.lower() for w in (DATA / "lexicon.txt").read_text(encoding="utf-8").split() if w.isalpha()})
        rng = random.Random(1)
        # user i posts 4 to 7 hashtags of one or two words each
        sizes = [sum(1 + (i + t) % 2 for t in range(4 + (i // 5) % 4)) for i in range(198)]
        profiles = [Profile(id=f"u{i:03d}", words=frozenset(rng.sample(lexicon, k))) for i, k in enumerate(sizes)]
        profiles += [Profile(id="u198"), Profile(id="u199")]
        gc.collect()
        tracemalloc.start()
        try:
            matrix = build_similarity_matrix(profiles, None, word_table=tax.word_table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.condensed.size == 200 * 199 // 2 and matrix.condensed.max() > 0
        assert peak < 3_000_000, peak / 1e6


class TestMatchBatch:
    """``_match_batch`` on padded batches of mostly-zero grids, grid by
    grid against the oracle."""

    @staticmethod
    def check(cells, rounds) -> int:
        """Match the grids ``cells`` (lists of rows) padded into one batch
        and compare each score with the oracle's; returns how many grids
        left the batch early."""
        grids = np.full((len(cells), max(map(len, cells)), max(len(c[0]) for c in cells)), -1.0)
        for g, c in enumerate(cells):
            grids[g, : len(c), : len(c[0])] = c
        got, dropped = matcher._match_batch(grids, np.array(rounds))
        for g, (c, r) in enumerate(zip(cells, rounds)):
            expected, counter = greedy_oracle(range(len(c)), range(len(c[0])), lambda i, j: c[i][j], rounds=r)
            assert counter == r
            assert got[g] == expected, (g, c, r)
        return dropped

    def test_all_zero_grids(self):
        assert self.check([[[0.0] * 3] * 3] * 4, [3] * 4) == 4

    def test_maximum_reaches_zero_midway(self):
        positive = [[0.5, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.125]]
        one_pick = [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        corner = [[0.0, 0.0, 0.75], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        # the last two pick 0 in the second round, so they leave before the third
        assert self.check([positive, one_pick, corner], [3, 3, 3]) == 2

    def test_finished_grid_adds_no_more_picks(self):
        # grid 0 has positive cells left after its one round, and the other
        # two keep it in the batch for the second round
        full = [[0.9, 0.8, 0.1], [0.7, 0.6, 0.2], [0.3, 0.4, 0.5]]
        assert self.check([full, full, full], [1, 3, 2]) == 2
        assert self.check([full, full, full], [1, 3, 3]) == 0

    def test_ties_at_a_positive_value(self):
        # the first maximum in row-major order is (0, 0); (0, 1) or (1, 0) would score more
        tied = [[0.5, 0.5, 0.0], [0.5, 0.0, 0.3]]
        assert self.check([tied], [2]) == 0
        assert self.check([[[0.5] * 4] * 4, tied, [[0.0, 0.0]]], [4, 2, 1]) == 2

    def test_batch_cut_down_at_half(self):
        live = [[0.5, 0.25, 0.0, 0.0], [0.25, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.125], [0.0, 0.0, 0.0, 0.0]]
        zero = [[0.0] * 4] * 4
        # 6 of 10 grids finish in the first round; the 4 left finish after 3 rounds
        assert self.check([zero] * 6 + [live] * 4, [4] * 10) == 10
        # 5 of 11 finish: more than half are live, so all leave together
        assert self.check([zero] * 5 + [live] * 6, [4] * 11) == 11

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mostly_zero_batches(self, seed):
        rng = random.Random(seed)
        dropped = 0
        for _ in range(25):
            n = rng.randint(1, 6)
            cells, rounds = [], []
            for _ in range(rng.choice([1, 2, 3, 8, 40])):
                rows, cols = rng.randint(1, n), rng.randint(1, 7)
                zero_share = rng.choice([1.0, 0.9, 0.7, 0.3])
                levels = rng.choice([2, 4, 0])  # few levels tie at positive values

                def cell():
                    if rng.random() < zero_share:
                        return 0.0
                    return rng.randint(1, levels) / levels if levels else rng.random()

                cells.append([[cell() for _ in range(cols)] for _ in range(rows)])
                full = min(rows, cols)
                rounds.append(full if rng.random() < 0.7 else rng.randint(1, full))
            dropped += self.check(cells, rounds)
        assert dropped  # some batches were cut down


class TestZeroPairFilter:
    """A set pair with no word similarity above 0 scores 0 without being
    matched, and the build logs how many such pairs it settled."""

    @staticmethod
    def sparse_profiles():
        rng = random.Random(77)
        pool = [f"w{i}" for i in range(20)]
        # a few distinct word pairs are similar, every other one is 0
        table = {frozenset(rng.sample(pool, 2)): rng.choice([0.25, 0.5, 0.75]) for _ in range(8)}
        distinct = [frozenset(rng.sample(pool, rng.randint(1, 4))) for _ in range(25)]
        profiles = [Profile(id=f"p{i}", words=rng.choice(distinct)) for i in range(60)]
        profiles.append(Profile(id="empty", words=frozenset()))
        return profiles, table_word_sim(table)

    @staticmethod
    def logged_counts(caplog) -> tuple:
        (record,) = [r for r in caplog.records if r.name == "tagrec.matcher" and r.msg.startswith("matcher:")]
        return record.args

    @pytest.mark.parametrize(
        "workers, grid_bytes",
        [(1, matcher.GRID_BYTES), (2, matcher.GRID_BYTES), (1, 2048)],
        ids=["serial", "two-workers", "small-blocks"],
    )
    def test_zero_pairs_never_matched(self, monkeypatch, caplog, workers, grid_bytes):
        monkeypatch.setattr(matcher, "GRID_BYTES", grid_bytes)
        caplog.set_level(logging.INFO, logger="tagrec.matcher")
        profiles, sw = self.sparse_profiles()
        matched = []
        match_batch = matcher._match_batch

        def counted(grids, rounds):
            # raises in a pool thread too, whose error the pool's map passes on
            assert (grids.reshape(len(grids), -1).max(axis=1) > 0).all(), "a grid with no cell above 0 was matched"
            matched.append(len(grids))
            return match_batch(grids, rounds)

        monkeypatch.setattr(matcher, "_match_batch", counted)
        matrix = build_similarity_matrix(profiles, sw, workers=workers)

        k = 0
        for i in range(len(profiles)):
            for j in range(i + 1, len(profiles)):
                rows, cols = sorted((tuple(sorted(profiles[i].words)), tuple(sorted(profiles[j].words))))
                expected = greedy_oracle(rows, cols, sw)[0] if rows else 0.0
                assert matrix.condensed[k] == np.float32(expected), (i, j)
                k += 1

        sets = sorted({tuple(sorted(p.words)) for p in profiles if p.words})
        shared = {s for s in sets if sum(tuple(sorted(p.words)) == s for p in profiles) > 1}
        pairs = list(combinations(sets, 2)) + [(s, s) for s in shared]
        positive = sum(any(sw(u, v) > 0 for u in a for v in b) for a, b in pairs)
        assert 0 < positive < len(pairs) / 2
        assert self.logged_counts(caplog)[:2] == (len(pairs), len(pairs) - positive)
        assert sum(matched) == positive

    def test_counts_do_not_depend_on_workers(self, caplog):
        caplog.set_level(logging.INFO, logger="tagrec.matcher")
        profiles, sw = self.sparse_profiles()
        counts = []
        for workers in (1, 2):
            caplog.clear()
            build_similarity_matrix(profiles, sw, workers=workers)
            counts.append(self.logged_counts(caplog))
        assert counts[0] == counts[1]
        assert counts[0][2] > 0  # some grids left their batch early


class TestCrossRowBatches:
    """``_SetScorer.rows`` matches the pairs of many row sets in one batch."""

    @staticmethod
    def recorded_blocks(monkeypatch) -> list[tuple[int, int]]:
        """Record the grid count and bytes of every block ``_match_batch`` gets."""
        blocks = []
        match_batch = matcher._match_batch

        def recorded(grids, rounds):
            blocks.append((len(grids), grids.nbytes))
            return match_batch(grids, rounds)

        monkeypatch.setattr(matcher, "_match_batch", recorded)
        return blocks

    @pytest.mark.parametrize("grid_bytes", [matcher.GRID_BYTES, 2048], ids=["default", "small-blocks"])
    def test_blocks_fit_grid_bytes(self, monkeypatch, grid_bytes):
        rng = random.Random(909)
        pool = [f"w{i:02d}" for i in range(40)]
        sets = sorted({tuple(sorted(rng.sample(pool, rng.randint(1, 12)))) for _ in range(150)})
        shared = [rng.random() < 0.3 for _ in sets]
        levels = np.random.default_rng(909).choice([0.0, 0.0, 0.0, 0.25, 0.5, 1.0], size=(len(pool), len(pool)))
        levels = np.triu(levels) + np.triu(levels, 1).T

        def table(words):
            at = [pool.index(w) if w in pool else 0 for w in words]
            return levels[np.ix_(at, at)].copy()

        def never(a, b):
            raise AssertionError("word_sim is not asked when a table builder is given")

        default = matcher.GRID_BYTES
        blocks = self.recorded_blocks(monkeypatch)
        scored, batches = {}, {}
        for limit in (default, grid_bytes):
            monkeypatch.setattr(matcher, "GRID_BYTES", limit)
            blocks.clear()
            scorer = matcher._SetScorer(sets, shared, never, lambda words, alone: (np.arange(len(words)), table(words)))
            a, b, scores, stats = scorer.rows((0, len(sets)))
            assert stats["batches"] == len(blocks)
            assert all(nbytes <= limit or grids == 1 for grids, nbytes in blocks)
            scored[limit] = dict(zip(zip(a.tolist(), b.tolist()), scores.tolist()))
            batches[limit] = len(blocks)
        # by default, more grids than one block holds, from many row sets in each block
        assert 1 < batches[default] < len(set(a.tolist())) / 4
        # a score does not depend on how the pairs were batched
        assert scored[grid_bytes] == scored[default]
        for (i, j), score in rng.sample(sorted(scored[grid_bytes].items()), 150):
            assert score == greedy_oracle(sets[i], sets[j], lambda u, v: levels[pool.index(u), pool.index(v)])[0]

    def test_one_batch_of_mixed_shapes_with_ties(self, monkeypatch):
        rng = random.Random(515)
        pool = [f"w{i}" for i in range(9)]
        # few levels, so grids tie at positive values
        sw = table_word_sim({frozenset(p): rng.choice([0.0, 0.5, 0.5, 1.0]) for p in combinations(pool, 2)})
        sets = sorted({tuple(sorted(rng.sample(pool, rng.randint(1, 5)))) for _ in range(40)})
        blocks = self.recorded_blocks(monkeypatch)
        scorer = matcher._SetScorer(sets, [True] * len(sets), sw)
        a, b, scores, _ = scorer.rows((0, len(sets)))
        ((grids, _),) = blocks
        shapes = {(len(sets[i]), len(sets[j])) for i, j in zip(a.tolist(), b.tolist())}
        assert len(shapes) > 10
        assert grids == a.size > len(set(a.tolist())) > 1
        for i, j, score in zip(a.tolist(), b.tolist(), scores.tolist()):
            assert score == greedy_oracle(sets[i], sets[j], sw)[0], (sets[i], sets[j])
