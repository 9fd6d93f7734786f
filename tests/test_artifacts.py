"""Artifact IO: atomic writes, sidecars, and reader validation."""

import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tagrec import artifacts
from tagrec.corpus import DEFAULT_FLOOR_PROB
from tagrec.errors import InputError, ParseError
from tagrec.matcher import SimilarityMatrix
from tagrec.pipeline import compute_profiles, compute_simmatrix
from tagrec.profiles import Profile
from tagrec.taxonomy import DEFAULT_IC_CAP

from conftest import two_blob_matrix
from test_acceptance import make_synthetic_users

DATA = Path(__file__).resolve().parent.parent / "data"


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

    def test_writes_chunks(self, tmp_path):
        path = tmp_path / "x.tsv"
        artifacts.atomic_write_text(path, (f"{i}\n" for i in range(3)))
        assert path.read_text() == "0\n1\n2\n"

    def test_failing_chunk_leaves_old_file(self, tmp_path):
        path = tmp_path / "x.tsv"
        artifacts.atomic_write_text(path, "old\n")

        def chunks():
            yield "new\n"
            raise InputError("stop")

        with pytest.raises(InputError):
            artifacts.atomic_write_text(path, chunks())
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]


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

    def test_code_change_invalidates(self, tmp_path):
        out, inp = tmp_path / "out.tsv", tmp_path / "in.tsv"
        inp.write_text("data\n")
        artifacts.write_tsv(out, [("a", 1)])
        artifacts.write_sidecar(out, "stage", {"k": 2}, {"in": inp}, 0.1)
        meta_path = artifacts.sidecar_path(out)
        meta = json.loads(meta_path.read_text())
        assert meta["code_sha256"] == artifacts.code_sha256()
        assert meta["params"] == {"k": 2}
        meta["code_sha256"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        assert not artifacts.stage_is_cached(out, "stage", {"k": 2}, {"in": inp})

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


def matrix_of(values, ids=None) -> SimilarityMatrix:
    """The smallest matrix holding ``values`` first, then zeros."""
    values = np.asarray(values, dtype=np.float32)
    n = 1
    while n * (n - 1) // 2 < values.size:
        n += 1
    condensed = np.zeros(n * (n - 1) // 2, dtype=np.float32)
    condensed[: values.size] = values
    return SimilarityMatrix(ids[:n] if ids else [f"u{i}" for i in range(n)], condensed)


def format_reference(matrix: SimilarityMatrix) -> str:
    """``sims.tsv`` as the per-row ``"{:.6f}"`` writer made it."""
    return "".join(f"{a}\t{b}\t{s:.6f}\n" for a, b, s in matrix.iter_pairs())


class TestSimsWriter:
    TIES = np.arange(129, dtype=np.float32) / np.float32(128)  # every k/128: odd k end in 5 at the 7th decimal

    def assert_same_bytes(self, tmp_path, matrix: SimilarityMatrix) -> None:
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, matrix)
        assert path.read_bytes() == format_reference(matrix).encode()

    def test_format_matches_reference(self):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [
                rng.random(200_000, dtype=np.float32),
                self.TIES,
                np.nextafter(self.TIES, np.float32(0)),
                np.nextafter(self.TIES, np.float32(1)),
                np.array([0.0, 1.0, 0.5845, 1e-7, 4.9999997e-7, 5e-7, 0.9999995], dtype=np.float32),
            ]
        )
        values = values[(values >= 0) & (values <= 1)]
        got = artifacts.format_sims(values).tolist()
        assert got == [f"\t{v:.6f}\n".encode() for v in values.tolist()]

    def test_python_floats_of_float32_values(self):
        values = self.TIES.tolist()
        assert artifacts.format_sims(values).tolist() == [f"\t{v:.6f}\n".encode() for v in values]

    def test_same_bytes_as_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        for matrix in [
            matrix_of(rng.random(4000, dtype=np.float32)),
            matrix_of(self.TIES),
            matrix_of([0.0, 1.0, 0.0]),
            two_blob_matrix(),
            reversed_ids_matrix(2),
        ]:
            self.assert_same_bytes(tmp_path, matrix)

    def test_non_ascii_ids(self, tmp_path):
        ids = ["zoë", "日本語", "u\U0001F642", "#tag", "ascii", "Ω"]
        matrix = matrix_of(np.linspace(0, 1, 15, dtype=np.float32), ids)
        self.assert_same_bytes(tmp_path, matrix)
        assert artifacts.read_sims_tsv(tmp_path / "sims.tsv").ids == ids

    def test_no_pairs(self, tmp_path):
        for ids in ([], ["solo"]):
            path = tmp_path / "sims.tsv"
            artifacts.write_sims_tsv(path, SimilarityMatrix(ids, np.zeros(0, dtype=np.float32)))
            assert path.read_bytes() == b""

    @pytest.mark.parametrize("bad", [-0.0, -1e-9, 1.0000001, float("nan"), float("inf")])
    def test_unwritable_value_rejected(self, tmp_path, bad):
        matrix = matrix_of([0.5, bad, 0.25])
        path = tmp_path / "sims.tsv"
        with pytest.raises(InputError, match="similarity out of range"):
            artifacts.write_sims_tsv(path, matrix)
        assert not path.exists()

    def test_peak_memory_of_acceptance_matrix(self, tmp_path):
        users, profiles, sims = tmp_path / "users.tsv", tmp_path / "profiles.tsv", tmp_path / "sims.tsv"
        make_synthetic_users(users)
        compute_profiles(users, DATA / "lexicon.txt", DATA / "bigrams.tsv", DEFAULT_FLOOR_PROB, profiles)
        taxonomy = DATA / "taxonomy"
        tax_files = (taxonomy / "synsets.tsv", taxonomy / "edges.tsv", taxonomy / "counts.tsv")
        compute_simmatrix(profiles, *tax_files, DEFAULT_IC_CAP, 1, sims)
        matrix = artifacts.read_sims_tsv(sims)
        assert matrix.n == 500
        gc.collect()
        tracemalloc.start()
        try:
            artifacts.write_sims_tsv(tmp_path / "again.tsv", matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "again.tsv").read_bytes() == sims.read_bytes()
        # 124,750 pairs: the per-row "{:.6f}" writer peaked at 13.6 MB, the
        # block writer at 2.6 MB (10 bytes of digits per pair plus one block).
        assert peak < 5 * 2**20


class TestSimsMemo:
    def test_parsed_once_per_file_version(self, tmp_path, monkeypatch):
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, two_blob_matrix())
        parsed = []
        read_sims_tsv = artifacts.read_sims_tsv

        def counted(p):
            parsed.append(p)
            return read_sims_tsv(p)

        monkeypatch.setattr(artifacts, "read_sims_tsv", counted)
        memo = artifacts.FileHashes()
        first = memo.sims(path)
        assert memo.sims(path) is first
        assert len(parsed) == 1
        artifacts.write_sims_tsv(path, two_blob_matrix().scaled(0.5))
        second = memo.sims(path)
        assert len(parsed) == 2
        assert np.array_equal(second.condensed, first.condensed * np.float32(0.5))


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\t0\ta\nb\t1\tzzz\nc\t1\tzzz\n", "medoid 'zzz' of cluster 1 has no row"),
            ("a\t0\ta\nb\t1\ta\n", "medoid 'a' of cluster 1 is assigned to cluster 0"),
            ("a\t0\tb\nb\t1\tb\n", "medoid 'b' of cluster 0 is assigned to cluster 1"),
        ],
        ids=["no row", "medoid of two clusters", "assigned elsewhere"],
    )
    def test_impossible_medoid_rejected(self, tmp_path, text, message):
        path = tmp_path / "clusters.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            artifacts.read_clusters_tsv(path)
