"""Taxonomy loading, IC propagation, and the similarity measures."""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from tagrec.errors import (
    EmptyResourceError,
    InputError,
    ParseError,
    StructureError,
    UnknownIdError,
)
from tagrec.taxonomy import VIRTUAL_ROOT, Synset, Taxonomy, load_taxonomy

from conftest import make_taxonomy

DATA = Path(__file__).resolve().parent.parent / "data"


def brute_force_freq(synsets, parents, own_counts):
    """Oracle: freq(c) = sum of own counts over c's descendant closure."""
    children = {sid: set() for sid in synsets}
    for child, ps in parents.items():
        for parent in ps:
            children[parent].add(child)

    def descendants(sid):
        closure = {sid}
        stack = [sid]
        while stack:
            for ch in children[stack.pop()]:
                if ch not in closure:
                    closure.add(ch)
                    stack.append(ch)
        return closure

    return {sid: sum(own_counts.get(d, 1) for d in descendants(sid)) for sid in synsets}


def brute_force_ancestors(parents, sid):
    """Oracle: sid, the virtual root and everything reachable upward."""
    closure = {sid, VIRTUAL_ROOT}
    stack = [sid]
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in closure:
                closure.add(parent)
                stack.append(parent)
    return closure


def random_dag(rng, max_nodes=20):
    """Random DAG over a topological node order (edges point to lower ids)."""
    n = rng.randint(1, max_nodes)
    synsets = {f"s{i}": Synset(f"s{i}", "n", (f"w{i}",)) for i in range(n)}
    parents = {}
    for i in range(1, n):
        n_parents = rng.randint(0, min(3, i))
        if n_parents:
            parents[f"s{i}"] = {f"s{j}" for j in rng.sample(range(i), n_parents)}
    own_counts = {f"s{i}": rng.randint(0, 10) for i in range(n)}
    # keep the total positive
    own_counts["s0"] = max(1, own_counts["s0"])
    return synsets, parents, own_counts


class TestPropagation:
    def test_uniform_toy_counts(self, toy_taxonomy_uniform):
        tax = toy_taxonomy_uniform
        assert tax.freq["n3"] == 8 and tax.freq["n4"] == 8
        assert tax.freq["n2"] == 24
        assert tax.freq["n1"] == 32
        assert tax.freq[VIRTUAL_ROOT] == 32

    def test_ic_values_uniform(self, toy_taxonomy_uniform):
        tax = toy_taxonomy_uniform
        assert tax.ic["n2"] == pytest.approx(-math.log(24 / 32), rel=1e-12)
        assert tax.ic["n1"] == 0.0
        assert tax.ic[VIRTUAL_ROOT] == 0.0

    def test_ic_monotone_along_edges(self, toy_taxonomy_half):
        tax = toy_taxonomy_half
        for child, ps in tax.parents.items():
            for parent in ps:
                assert tax.ic[child] >= tax.ic[parent]

    def test_matches_brute_force_on_random_dags(self):
        rng = random.Random(20240811)
        for _ in range(50):
            synsets, parents, own_counts = random_dag(rng)
            tax = Taxonomy(synsets, parents, own_counts)
            oracle = brute_force_freq(synsets, parents, own_counts)
            for sid, expected in oracle.items():
                assert tax.freq[sid] == expected, sid
            assert tax.freq[VIRTUAL_ROOT] == sum(own_counts.get(s, 1) for s in synsets)
            for sid in synsets:
                assert tax.ancestors(sid) == brute_force_ancestors(parents, sid), sid
            assert tax.ancestors(VIRTUAL_ROOT) == {VIRTUAL_ROOT}

    def test_zero_frequency_gets_capped_ic(self):
        tax = make_taxonomy({"n1": 5, "n2": 1, "n3": 0, "n4": 0}, ic_cap=25.0)
        assert tax.freq["n3"] == 0
        assert tax.ic["n3"] == 25.0

    def test_all_zero_counts_rejected(self):
        with pytest.raises(EmptyResourceError):
            make_taxonomy({"n1": 0, "n2": 0, "n3": 0, "n4": 0})

    def test_negative_count_rejected(self):
        with pytest.raises(InputError):
            make_taxonomy({"n1": -1, "n2": 1, "n3": 1, "n4": 1})

    @pytest.mark.parametrize("ic_cap", [-1.0, 0.0, math.inf, math.nan])
    def test_ic_cap_not_positive_finite_rejected(self, ic_cap):
        with pytest.raises(InputError, match="ic_cap must be a positive finite number"):
            make_taxonomy({"n1": 5, "n2": 1, "n3": 0, "n4": 0}, ic_cap=ic_cap)


class TestStructure:
    def test_cycle_detected(self):
        synsets = {s: Synset(s, "n", (s,)) for s in ("a", "b")}
        with pytest.raises(StructureError):
            Taxonomy(synsets, {"a": {"b"}, "b": {"a"}}, {})
        # a cycle hanging below a root: the walk closes r, then stops at a and b
        synsets["r"] = Synset("r", "n", ("r",))
        with pytest.raises(StructureError):
            Taxonomy(synsets, {"a": {"r", "b"}, "b": {"a"}}, {})

    def test_self_loop_detected(self):
        synsets = {"a": Synset("a", "n", ("a",))}
        with pytest.raises(StructureError):
            Taxonomy(synsets, {"a": {"a"}}, {})

    def test_unknown_parent_rejected(self):
        synsets = {"a": Synset("a", "n", ("a",))}
        # an unknown parent, then an unknown child, which would otherwise drop its edge
        for parents, unknown in (({"a": {"ghost"}}, "parent id 'ghost'"), ({"zz": {"a"}}, "child id 'zz'")):
            with pytest.raises(UnknownIdError, match=unknown):
                Taxonomy(synsets, parents, {})

    def test_multi_root_joined_under_virtual_root(self):
        synsets = {s: Synset(s, "n", (s,)) for s in ("r1", "r2")}
        tax = Taxonomy(synsets, {}, {"r1": 3, "r2": 1})
        assert tax.roots == {"r1", "r2"}
        assert tax.freq[VIRTUAL_ROOT] == 4
        assert tax.ic["r1"] == pytest.approx(-math.log(3 / 4))
        assert tax.resnik("r1", "r2") == 0.0


class TestMeasures:
    def test_resnik_common_ancestor(self, toy_taxonomy_uniform):
        tax = toy_taxonomy_uniform
        assert tax.resnik("n3", "n4") == tax.ic["n2"]

    def test_resnik_self(self, toy_taxonomy_uniform):
        tax = toy_taxonomy_uniform
        assert tax.resnik("n3", "n3") == tax.ic["n3"]

    def test_resnik_unknown_id(self, toy_taxonomy_uniform):
        with pytest.raises(UnknownIdError):
            toy_taxonomy_uniform.resnik("n3", "ghost")
        for call in (lambda t: t.lin("n3", "ghost"), lambda t: t.lin("ghost", "n3"), lambda t: t.ancestors("ghost")):
            with pytest.raises(UnknownIdError, match="unknown synset id 'ghost'"):
                call(toy_taxonomy_uniform)

    def test_lin_half(self, toy_taxonomy_half):
        assert toy_taxonomy_half.lin("n3", "n4") == pytest.approx(0.5, abs=1e-12)

    def test_lin_identity(self, toy_taxonomy_half):
        assert toy_taxonomy_half.lin("n3", "n3") == 1.0

    def test_lin_root_degenerate(self, toy_taxonomy_uniform):
        # ic(root) = 0 -> zero denominator -> defined as 0
        assert toy_taxonomy_uniform.lin("n1", "n1") == 0.0

    def test_symmetry(self, toy_taxonomy_half):
        tax = toy_taxonomy_half
        ids = list(tax.synsets)
        for a in ids:
            for b in ids:
                assert tax.lin(a, b) == tax.lin(b, a)
                assert tax.resnik(a, b) == tax.resnik(b, a)
                assert 0.0 <= tax.lin(a, b) <= 1.0

    def test_range_on_random_dags(self):
        rng = random.Random(99)
        for _ in range(10):
            synsets, parents, own_counts = random_dag(rng, max_nodes=12)
            tax = Taxonomy(synsets, parents, own_counts)
            ids = list(synsets)
            for _ in range(30):
                a, b = rng.choice(ids), rng.choice(ids)
                value = tax.lin(a, b)
                assert 0.0 <= value <= 1.0
                assert value == tax.lin(b, a)


class TestWordSimilarity:
    def test_identity_rule(self, toy_taxonomy_half):
        assert toy_taxonomy_half.word_similarity("dog", "dog") == 1.0

    def test_identity_even_out_of_taxonomy(self, toy_taxonomy_half):
        assert toy_taxonomy_half.word_similarity("zqxv", "zqxv") == 1.0

    def test_toy_pair(self, toy_taxonomy_half):
        assert toy_taxonomy_half.word_similarity("dog", "cat") == pytest.approx(0.5, abs=1e-12)

    def test_oov_rule(self, toy_taxonomy_half):
        assert toy_taxonomy_half.word_similarity("dog", "zqxv") == 0.0

    def test_case_insensitive(self, toy_taxonomy_half):
        assert toy_taxonomy_half.word_similarity("Dog", "CAT") == pytest.approx(0.5, abs=1e-12)

    def test_max_over_senses_never_decreases_when_sense_added(self):
        base = {
            "n1": Synset("n1", "n", ()),
            "n2": Synset("n2", "n", ("pet",)),
            "n3": Synset("n3", "n", ("dog",)),
            "n4": Synset("n4", "n", ("cat",)),
        }
        parents = {"n2": {"n1"}, "n3": {"n2"}, "n4": {"n2"}}
        counts = {"n1": 16, "n2": 0, "n3": 8, "n4": 8}
        before = Taxonomy(base, parents, counts).word_similarity("dog", "cat")
        richer = dict(base)
        richer["n2"] = Synset("n2", "n", ("pet", "cat"))  # add a sense for "cat"
        after = Taxonomy(richer, parents, counts).word_similarity("dog", "cat")
        assert after >= before


class TestWordTable:
    """``word_table``'s contract: every cell it names equals
    ``word_similarity``, and words that cannot score share one zero row."""

    @staticmethod
    def assert_contract(tax, words, alone):
        rows, table = tax.word_table(words, alone)
        assert rows.shape == (len(words),) and table.dtype == np.float64
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j or not alone[i]:
                    assert table[rows[i], rows[j]] == tax.word_similarity(a, b), (a, b, alone[i], alone[j])
        lowered = [w.lower() for w in words]
        known = sum(w in tax.word_index for w in lowered)
        twins = sum(lowered.count(w) > 1 for w in lowered)
        zero = [i for i, w in enumerate(lowered) if alone[i] and w not in tax.word_index and lowered.count(w) == 1]
        # every word that cannot score is on the one row of zeros, the last
        assert {int(rows[i]) for i in zero} <= {len(table) - 1}
        assert not table[-1].any() and not table[:, -1].any()
        assert len(table) <= known + twins + (len(words) - sum(alone)) + 1
        return rows, table

    @staticmethod
    def masks(rng, n):
        yield [False] * n
        yield [True] * n
        for _ in range(4):
            yield [rng.random() < 0.5 for _ in range(n)]

    def test_bundled_taxonomy_and_oov_words(self):
        taxonomy = DATA / "taxonomy"
        tax = load_taxonomy(taxonomy / "synsets.tsv", taxonomy / "edges.tsv", taxonomy / "counts.tsv")
        rng = random.Random(99)
        words = sorted(tax.word_index) + ["zqxv", "warbler", "pizzarecipe", "qqq", "Zqxv"]
        rng.shuffle(words)
        for alone in self.masks(rng, len(words)):
            self.assert_contract(tax, words, alone)
        # all alone: only the known words and the two lowercase twins have rows
        rows, table = self.assert_contract(tax, words, [True] * len(words))
        assert len(table) == len(tax.word_index) + 2 + 1
        assert len({int(rows[words.index(w)]) for w in ("warbler", "pizzarecipe", "qqq")}) == 1

    def test_mixed_case_duplicates(self, toy_taxonomy_half):
        words = ["Dog", "dog", "CAT", "cat", "ZQXV", "zqxv", "animal", "Solo", "other"]
        for alone in self.masks(random.Random(7), len(words)):
            rows, table = self.assert_contract(toy_taxonomy_half, words, alone)
            assert table[rows[0], rows[1]] == 1.0
            dog_cat = toy_taxonomy_half.word_similarity("dog", "cat")
            assert table[rows[0], rows[2]] == table[rows[1], rows[3]] == dog_cat
            assert table[rows[4], rows[5]] == 1.0  # equal lowercased words, out of the taxonomy
        rows, _ = self.assert_contract(toy_taxonomy_half, words, [True] * len(words))
        assert rows[7] == rows[8] != rows[4]

    def test_empty_word_list(self, toy_taxonomy_half):
        rows, table = toy_taxonomy_half.word_table([], [])
        assert rows.shape == (0,) and table.shape == (1, 1) and table[0, 0] == 0.0

    def test_random_dags(self):
        rng = random.Random(3141)
        for k in range(40):
            synsets, parents, own_counts = random_dag(rng, max_nodes=12)
            n = len(synsets)
            rooted = k % 2 == 0
            if rooted:  # s0 above all: IC 0, so lin's denominator is 0 for s0 and s0
                for i in range(1, n):
                    parents.setdefault(f"s{i}", {"s0"})
            # every v word names several synsets, so words have several senses
            synsets = {sid: Synset(sid, "n", (*syn.words, f"v{i % 3}")) for i, (sid, syn) in enumerate(synsets.items())}
            if n > 1:
                own_counts[f"s{n - 1}"] = 0  # a leaf, so its frequency is 0 and its IC capped
            tax = Taxonomy(synsets, parents, own_counts)
            if rooted:
                assert tax.ic["s0"] == 0.0
            if n > 1:
                assert tax.ic[f"s{n - 1}"] == tax.ic_cap
            words = [f"w{i}" for i in range(len(synsets))] + ["v0", "v1", "v2", "V1", "zqxv", "solo", "ZQXV"]
            rng.shuffle(words)
            for alone in self.masks(rng, len(words)):
                self.assert_contract(tax, words, alone)


class TestLoadTaxonomy:
    def write_files(self, tmp_path, synsets, edges, counts=None):
        sp = tmp_path / "synsets.tsv"
        ep = tmp_path / "edges.tsv"
        sp.write_text(synsets, encoding="utf-8")
        ep.write_text(edges, encoding="utf-8")
        cp = None
        if counts is not None:
            cp = tmp_path / "counts.tsv"
            cp.write_text(counts, encoding="utf-8")
        return sp, ep, cp

    def test_load_toy_files(self, tmp_path):
        sp, ep, cp = self.write_files(
            tmp_path,
            "n1\tn\tentity\nn2\tn\tanimal\nn3\tn\tdog,puppy\nn4\tn\tcat\n",
            "n2\tn1\nn3\tn2\nn4\tn2\n",
            "n1\t8\nn2\t8\nn3\t8\nn4\t8\n",
        )
        tax = load_taxonomy(sp, ep, cp)
        assert tax.freq["n2"] == 24
        assert tax.word_index["puppy"] == {"n3"}

    def test_missing_counts_defaults_to_one(self, tmp_path):
        sp, ep, _ = self.write_files(tmp_path, "a\tn\talpha\nb\tn\tbeta\n", "b\ta\n")
        tax = load_taxonomy(sp, ep)
        assert tax.freq["a"] == 2 and tax.freq["b"] == 1

    def test_cycle_in_files(self, tmp_path):
        sp, ep, _ = self.write_files(tmp_path, "a\tn\talpha\nb\tn\tbeta\n", "a\tb\nb\ta\n")
        with pytest.raises(StructureError):
            load_taxonomy(sp, ep)

    def test_unknown_edge_id(self, tmp_path):
        sp, ep, _ = self.write_files(tmp_path, "a\tn\talpha\n", "a\tghost\n")
        with pytest.raises(UnknownIdError):
            load_taxonomy(sp, ep)

    def test_malformed_synset_row(self, tmp_path):
        sp, ep, _ = self.write_files(tmp_path, "a\tn\n", "")
        with pytest.raises(ParseError):
            load_taxonomy(sp, ep)

    def test_reserved_root_id_rejected(self, tmp_path):
        with pytest.raises(InputError, match="is reserved"):
            Taxonomy({VIRTUAL_ROOT: Synset(VIRTUAL_ROOT, "n", ("top",))}, {}, {})
        sp, ep, _ = self.write_files(tmp_path, f"a\tn\talpha\n{VIRTUAL_ROOT}\tn\ttop\n", "")
        with pytest.raises(ParseError, match="is reserved"):
            load_taxonomy(sp, ep)

    def test_duplicate_synset_id(self, tmp_path):
        sp, ep, _ = self.write_files(tmp_path, "a\tn\talpha\na\tn\tagain\n", "")
        with pytest.raises(ParseError):
            load_taxonomy(sp, ep)
