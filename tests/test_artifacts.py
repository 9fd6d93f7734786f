"""Artifact IO: atomic writes, sidecars, and reader validation."""

import numpy as np
import pytest

from tagrec import artifacts
from tagrec.errors import ParseError
from tagrec.matcher import SimilarityMatrix
from tagrec.profiles import Profile

from conftest import two_blob_matrix


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "x.tsv"
        artifacts.atomic_write_text(path, "one\n")
        artifacts.atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "x.tsv"
        artifacts.atomic_write_text(path, "ok\n")
        assert path.read_text() == "ok\n"


class TestSidecar:
    def test_cache_round_trip(self, tmp_path):
        out = tmp_path / "out.tsv"
        inp = tmp_path / "in.tsv"
        inp.write_text("data\n")
        artifacts.write_tsv(out, [("a", 1)])
        params = {"k": 2}
        inputs = {"in": inp}
        artifacts.write_sidecar(out, "stage", params, inputs, 0.1)
        assert artifacts.stage_is_cached(out, "stage", params, inputs)

    def test_input_change_invalidates(self, tmp_path):
        out, inp = tmp_path / "out.tsv", tmp_path / "in.tsv"
        inp.write_text("data\n")
        artifacts.write_tsv(out, [("a", 1)])
        artifacts.write_sidecar(out, "stage", {}, {"in": inp}, 0.1)
        inp.write_text("changed\n")
        assert not artifacts.stage_is_cached(out, "stage", {}, {"in": inp})

    def test_param_change_invalidates(self, tmp_path):
        out, inp = tmp_path / "out.tsv", tmp_path / "in.tsv"
        inp.write_text("data\n")
        artifacts.write_tsv(out, [("a", 1)])
        artifacts.write_sidecar(out, "stage", {"k": 2}, {"in": inp}, 0.1)
        assert not artifacts.stage_is_cached(out, "stage", {"k": 3}, {"in": inp})

    def test_tampered_output_invalidates(self, tmp_path):
        out, inp = tmp_path / "out.tsv", tmp_path / "in.tsv"
        inp.write_text("data\n")
        artifacts.write_tsv(out, [("a", 1)])
        artifacts.write_sidecar(out, "stage", {}, {"in": inp}, 0.1)
        out.write_text("tampered\n")
        assert not artifacts.stage_is_cached(out, "stage", {}, {"in": inp})


def sims_text(*rows) -> str:
    """``sims.tsv`` text from space-separated ``id id value`` rows."""
    return "".join("\t".join(row.split(" ")) + "\n" for row in rows)


def reversed_ids_matrix(n: int) -> SimilarityMatrix:
    """n ids stored in the reverse of their sorted order, distinct values
    that survive the 6-decimal format."""
    m = n * (n - 1) // 2
    values = np.round(np.arange(m) / max(m, 1), 6).astype(np.float32)
    return SimilarityMatrix([f"u{n - i}" for i in range(n)], values)


class TestSimsRoundTrip:
    @staticmethod
    def assert_rejected(tmp_path, text: str, line_no: int) -> None:
        path = tmp_path / "sims.tsv"
        path.write_text(text)
        with pytest.raises(ParseError) as excinfo:
            artifacts.read_sims_tsv(path)
        assert excinfo.value.line_no == line_no, text

    def test_round_trip_preserves_values_and_order(self, tmp_path):
        for matrix in [two_blob_matrix()] + [reversed_ids_matrix(n) for n in (0, 2, 3, 7)]:
            path = tmp_path / "sims.tsv"
            artifacts.write_sims_tsv(path, matrix)
            loaded = artifacts.read_sims_tsv(path)
            assert loaded.ids == matrix.ids
            assert np.array_equal(loaded.condensed, matrix.condensed)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sims.tsv"
        path.write_text(sims_text("", "b a 0.25", "", "b c 0.5", "a c 1", ""))
        loaded = artifacts.read_sims_tsv(path)
        assert loaded.ids == ["b", "a", "c"]
        assert loaded.condensed.tolist() == [0.25, 0.5, 1.0]

    def test_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "sims.tsv"
        path.write_text("a\tb\t0.5\na\tc\t0.5\n")  # (b, c) missing
        with pytest.raises(ParseError):
            artifacts.read_sims_tsv(path)
        # (a, c) missing: the first id's rows name only b, so (b, c) is one too many
        self.assert_rejected(tmp_path, sims_text("a b 0.5", "b c 0.5"), 2)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "sims.tsv"
        path.write_text("a\tb\t0.5\nb\ta\t0.5\n")
        with pytest.raises(ParseError):
            artifacts.read_sims_tsv(path)
        for text, line_no in [
            (sims_text("a b 0.5", "b a 0.5"), 2),
            (sims_text("a a 0.5"), 1),  # self pair
            (sims_text("a b 0.5", "a b 0.5"), 2),  # repeated row of the first id
            (sims_text("a b 0.5", "a c 0.5", "b b 0.5"), 3),  # later self pair
            (sims_text("a b 0.5", "a c 0.5", "b c 0.5", "b c 0.5"), 4),  # extra trailing row
            (sims_text("a b 0.5", "a c 0.5", "b c 0.5", "a b 0.5"), 4),
        ]:
            self.assert_rejected(tmp_path, text, line_no)

    def test_reordered_pairs_rejected(self, tmp_path):
        for text, line_no in [
            (sims_text("a b 0.5", "a c 0.5", "c b 0.5"), 3),
            (sims_text("a c 0.5", "a b 0.5", "b c 0.5"), 3),
            (sims_text("a b 0.5", "a c 0.5", "a d 0.5", "c d 0.5", "b c 0.5", "b d 0.5"), 4),
            (sims_text("a b 0.5", "a c 0.5", "a d 0.5", "b c 0.5", "a e 0.5"), 5),
        ]:
            self.assert_rejected(tmp_path, text, line_no)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "sims.tsv"
        path.write_text("a\tb\t1.5\n")
        with pytest.raises(ParseError):
            artifacts.read_sims_tsv(path)
        for value in ("1.5", "-0.1", "nan", "inf"):
            self.assert_rejected(tmp_path, sims_text("a b 0.5", "a c 0.5", f"b c {value}"), 3)

    def test_malformed_row_rejected(self, tmp_path):
        for text, line_no in [
            (sims_text("a b 0.5", "a c high", "b c 0.5"), 2),
            (sims_text("a b 0.5", "", "a c", "b c 0.5"), 3),
            (sims_text("a b 0.5 0.5"), 1),
        ]:
            self.assert_rejected(tmp_path, text, line_no)

    def test_six_decimal_format(self, tmp_path):
        matrix = SimilarityMatrix(["a", "b"], np.array([0.5845], dtype=np.float32))
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, matrix)
        assert path.read_text() == "a\tb\t0.584500\n"


class TestProfilesRoundTrip:
    def test_words_sorted_deterministically(self, tmp_path):
        profiles = [Profile(id="u1", words=frozenset({"zebra", "apple", "mango"}))]
        path = tmp_path / "profiles.tsv"
        artifacts.write_profiles_tsv(path, profiles)
        assert path.read_text() == "u1\tapple mango zebra\n"
        (loaded,) = artifacts.read_profiles_tsv(path)
        assert loaded.words == {"apple", "mango", "zebra"}


class TestClustersRoundTrip:
    def test_round_trip(self, tmp_path):
        from tagrec.cluster import k_medoids

        matrix = two_blob_matrix()
        clustering = k_medoids(matrix, k=2, seed=0)
        path = tmp_path / "clusters.tsv"
        artifacts.write_clusters_tsv(path, clustering, matrix.ids)
        loaded = artifacts.read_clusters_tsv(path)
        assert loaded.assignment == clustering.assignment
        assert loaded.medoids == clustering.medoids

    def test_read_back_leaves_run_fields_unset(self, tmp_path):
        from tagrec.cluster import k_medoids

        matrix = two_blob_matrix()
        clustering = k_medoids(matrix, k=2, seed=3)
        assert (clustering.seed, clustering.iterations) == (3, 2)
        assert clustering.cost == pytest.approx(0.4)  # four members at distance 0.1
        path = tmp_path / "clusters.tsv"
        artifacts.write_clusters_tsv(path, clustering, matrix.ids)
        loaded = artifacts.read_clusters_tsv(path)
        assert (loaded.cost, loaded.seed, loaded.iterations) == (None, None, None)

    def test_conflicting_medoid_rejected(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("a\t0\ta\nb\t0\tb\n")
        with pytest.raises(ParseError):
            artifacts.read_clusters_tsv(path)

    def test_gap_in_cluster_indices_rejected(self, tmp_path):
        path = tmp_path / "clusters.tsv"
        path.write_text("a\t0\ta\nb\t2\tb\n")
        with pytest.raises(ParseError):
            artifacts.read_clusters_tsv(path)
