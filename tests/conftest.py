"""Shared fixtures: tiny corpora, toy taxonomies, and the two-blob matrix."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {name}: {verdict}", flush=True)

from tagrec.corpus import BigramModel, Lexicon, load_bigrams, load_lexicon
from tagrec.matcher import SimilarityMatrix
from tagrec.taxonomy import Synset, Taxonomy

# Bigram counts over total 10000 reproduce the worked segmentation
# probabilities exactly: P(world,wide)=0.05, P(wide,festival)=0.0099,
# P(worldwide,festival)=0.0022.
WORKED_BIGRAM_ROWS = [
    ("world", "wide", 500),
    ("wide", "festival", 99),
    ("worldwide", "festival", 22),
    ("throwback", "thursday", 40),
    ("throw", "back", 8),
    ("back", "thursday", 2),
    ("the", "cat", 9329),
]

WORKED_LEXICON = [
    "worldwide",
    "world",
    "wide",
    "festival",
    "throwback",
    "throw",
    "back",
    "thursday",
    "the",
    "cat",
    "a",
]


@pytest.fixture
def worked_lexicon_file(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("\n".join(WORKED_LEXICON) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def worked_bigrams_file(tmp_path):
    path = tmp_path / "bigrams.tsv"
    path.write_text(
        "".join(f"{a}\t{b}\t{c}\n" for a, b, c in WORKED_BIGRAM_ROWS),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def worked_lexicon(worked_lexicon_file) -> Lexicon:
    return load_lexicon(worked_lexicon_file)


@pytest.fixture
def worked_bigrams(worked_bigrams_file) -> BigramModel:
    return load_bigrams(worked_bigrams_file)


def make_taxonomy(own_counts: dict[str, int], ic_cap: float = 25.0) -> Taxonomy:
    """4-node toy hierarchy: top <- animal <- {dog, cat}."""
    synsets = {
        "n1": Synset("n1", "n", ("entity",)),
        "n2": Synset("n2", "n", ("animal",)),
        "n3": Synset("n3", "n", ("dog",)),
        "n4": Synset("n4", "n", ("cat",)),
    }
    parents = {"n2": {"n1"}, "n3": {"n2"}, "n4": {"n2"}}
    return Taxonomy(synsets, parents, own_counts, ic_cap=ic_cap)


@pytest.fixture
def toy_taxonomy_uniform() -> Taxonomy:
    # own counts all 8 -> freq: dog 8, cat 8, animal 24, root 32
    return make_taxonomy({"n1": 8, "n2": 8, "n3": 8, "n4": 8})


@pytest.fixture
def toy_taxonomy_half() -> Taxonomy:
    # freq: dog 8, cat 8, animal 16, root 32 -> lin(dog, cat) = 0.5
    return make_taxonomy({"n1": 16, "n2": 0, "n3": 8, "n4": 8})


# Word-similarity table for the worked profile-matching example
# (P1 = {information, office}, P2 = {salary, work, company}).
WORKED_WORD_SIMS = {
    frozenset(("salary", "information")): 0.127,
    frozenset(("salary", "office")): 0.109,
    frozenset(("work", "information")): 0.411,
    frozenset(("work", "office")): 0.781,
    frozenset(("company", "information")): 0.388,
    frozenset(("company", "office")): 0.615,
}


@pytest.fixture
def worked_word_sim():
    def sim(w1: str, w2: str) -> float:
        if w1 == w2:
            return 1.0
        return WORKED_WORD_SIMS[frozenset((w1, w2))]

    return sim


def table_word_sim(table: dict):
    """Wrap a {frozenset({w1, w2}): value} table as a similarity function."""

    def sim(w1: str, w2: str) -> float:
        if w1 == w2:
            return 1.0
        return table.get(frozenset((w1, w2)), 0.0)

    return sim


def pairwise_table(word_sim):
    """A ``word_table`` builder for ``build_similarity_matrix`` that asks
    ``word_sim`` about every pair of the words it is given, one row each.
    The padding word ``""`` is never asked about: its cells are -1, which
    the build overwrites with the same."""

    def build(words, alone):
        table = np.array([[word_sim(a, b) if a and b else -1.0 for b in words] for a in words], dtype=np.float64)
        return np.arange(len(words)), table

    return build


def two_blob_matrix() -> SimilarityMatrix:
    """6 profiles in two tight blocks: intra-sim 0.9, inter-sim 0.1."""
    ids = [f"u{i}" for i in range(6)]
    blob = [0, 0, 0, 1, 1, 1]
    cells = []
    for i in range(6):
        for j in range(i + 1, 6):
            cells.append(0.9 if blob[i] == blob[j] else 0.1)
    return SimilarityMatrix(ids, np.array(cells, dtype=np.float32))


@pytest.fixture
def blob_matrix() -> SimilarityMatrix:
    return two_blob_matrix()


def square(matrix: SimilarityMatrix) -> np.ndarray:
    """The dense float32 N x N similarity matrix, built from ``condensed``."""
    full = np.ones((matrix.n, matrix.n), dtype=np.float32)
    upper = np.triu_indices(matrix.n, 1)  # row-major, the storage order
    full[upper] = matrix.condensed
    full[upper[::-1]] = matrix.condensed
    return full


BLOB_OF = {f"u{i}": 0 if i < 3 else 1 for i in range(6)}
