"""Artifact IO: atomic writes, sidecars, and reader validation."""

import functools
import gc
import importlib
import json
import tracemalloc
from itertools import combinations, takewhile
from pathlib import Path

import numpy as np
import pytest

from tagrec import artifacts
from tagrec.corpus import DEFAULT_FLOOR_PROB
from tagrec.errors import InputError, ParseError, ResourceError
from tagrec.matcher import SimilarityMatrix
from tagrec.pipeline import compute_profiles, compute_simmatrix
from tagrec.profiles import Profile
from tagrec.taxonomy import DEFAULT_IC_CAP

from conftest import square, two_blob_matrix
from test_acceptance import make_synthetic_users

DATA = Path(__file__).resolve().parent.parent / "data"
PIPEBENCH = DATA.parent / "pipebench"


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "x.tsv"
        artifacts.atomic_write(path, "one\n")
        artifacts.atomic_write(path, "two\n")
        assert path.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "x.tsv"
        artifacts.atomic_write(path, "ok\n")
        assert path.read_text() == "ok\n"

    def test_writes_chunks(self, tmp_path):
        path = tmp_path / "x.tsv"
        artifacts.atomic_write(path, (f"{i}\n" for i in range(3)))
        assert path.read_text() == "0\n1\n2\n"

    def test_failing_chunk_leaves_old_file(self, tmp_path):
        path = tmp_path / "x.tsv"
        artifacts.atomic_write(path, "old\n")

        def chunks():
            yield "new\n"
            raise InputError("stop")

        with pytest.raises(InputError):
            artifacts.atomic_write(path, chunks())
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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: [],
            lambda meta: None,
            lambda meta: "stage",
            lambda meta: {**meta, "inputs": {"in": "abc"}},
            lambda meta: {**meta, "inputs": {"in": None}},
            lambda meta: {**meta, "inputs": ["in"]},
            lambda meta: {**meta, "inputs": None},
            # the earlier layout, with each input's path beside its digest
            lambda meta: {**meta, "inputs": {"in": {"path": meta["input_paths"]["in"], "sha256": meta["inputs"]["in"]}}},
        ],
        ids=["list", "null", "string", "input string", "input null", "inputs list", "inputs null", "nested inputs"],
    )
    def test_wrong_shape_is_a_miss(self, tmp_path, edit):
        out, inp = tmp_path / "out.tsv", tmp_path / "in.tsv"
        inp.write_text("data\n")
        artifacts.write_tsv(out, [("a", 1)])
        artifacts.write_sidecar(out, "stage", {}, {"in": inp}, 0.1)
        meta_path = artifacts.sidecar_path(out)
        meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))))
        assert artifacts.stage_is_cached(out, "stage", {}, {"in": inp}) is False

    def test_undecodable_sidecar_is_a_miss(self, tmp_path):
        out, inp = tmp_path / "out.tsv", tmp_path / "in.tsv"
        inp.write_text("data\n")
        artifacts.write_tsv(out, [("a", 1)])
        artifacts.write_sidecar(out, "stage", {}, {"in": inp}, 0.1)
        artifacts.sidecar_path(out).write_bytes(b'{"stage": "\xe9"}')
        assert artifacts.stage_is_cached(out, "stage", {}, {"in": inp}) is False


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
            # the writer's own layout of ids a, b, b
            (sims_text("a b 0.500000", "a b 0.500000", "b b 0.500000"), 2),
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
    """``sims.tsv`` as the per-row ``"{:.6f}"`` writer made it: a row for
    every i < j, in the order of ``itertools.combinations``."""
    sims = square(matrix).tolist()
    ids = matrix.ids
    return "".join(f"{ids[i]}\t{ids[j]}\t{sims[i][j]:.6f}\n" for i, j in combinations(range(matrix.n), 2))


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

    def test_peak_memory_of_acceptance_matrix(self, tmp_path, monkeypatch):
        users, profiles, sims = tmp_path / "users.tsv", tmp_path / "profiles.tsv", tmp_path / "sims.tsv"
        make_synthetic_users(users)
        compute_profiles(users, DATA / "lexicon.txt", DATA / "bigrams.tsv", DEFAULT_FLOOR_PROB, profiles)
        taxonomy = DATA / "taxonomy"
        tax_files = (taxonomy / "synsets.tsv", taxonomy / "edges.tsv", taxonomy / "counts.tsv")
        compute_simmatrix(profiles, *tax_files, DEFAULT_IC_CAP, 1, sims)

        def no_row_loop(path):
            raise AssertionError(f"{path} left the fast path")

        # A writer the fast path does not re-render exactly would only make reads slower.
        monkeypatch.setattr(artifacts, "_read_sims_rows", no_row_loop)
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
        # writer that formatted every cell at once at 2.6 MB (10 bytes per
        # pair), and the group writer at about 0.3 MB (one group of rows).
        assert peak < 2**20
        gc.collect()
        tracemalloc.start()
        try:
            again = artifacts.read_sims_tsv(sims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.condensed, matrix.condensed)
        # the 0.5 MB float32 matrix plus one block's temporaries, not a 3.1 MB file
        assert peak < 3 * 2**20


def read_outcome(reader, path):
    """What ``reader`` makes of ``path``: the ids and the condensed bytes,
    or the kind, line and text of its error."""
    try:
        matrix = reader(path)
    except (ParseError, ResourceError) as exc:
        return type(exc).__name__, getattr(exc, "line_no", None), str(exc)
    return matrix.ids, matrix.condensed.tobytes()


def micros_matrix(ids, seed: int = 0) -> SimilarityMatrix:
    """Random values that survive the 6-decimal format exactly."""
    n = len(ids)
    micros = np.random.default_rng(seed).integers(0, 1_000_001, n * (n - 1) // 2)
    return SimilarityMatrix(ids, (micros / 1e6).astype(np.float32))


PREFIX_IDS = ["u1", "u10", "u100", "u", "u1000", "u2"]
LENGTH_IDS = ["aaa", "a", "aaaa", "aa"]
NON_ASCII_IDS = ["zoë", "日本語", "u\U0001F642", "#tag", "ascii", "Ω", "zoé"]
THREE_PAIRS = sims_text("a b 0.125000", "a c 0.000001", "b c 1.000000")


class TestSimsBlockReader:
    """``read_sims_tsv`` loads the files ``write_sims_tsv`` writes on its
    fast path, by re-rendering them, and leaves every other file to
    ``_read_sims_rows``, the row loop."""

    row_loop = staticmethod(artifacts._read_sims_rows)

    @pytest.fixture
    def row_loop_reads(self, monkeypatch):
        """The paths that ``read_sims_tsv`` hands to the row loop."""
        paths = []

        def counted(path):
            paths.append(path)
            return self.row_loop(path)

        monkeypatch.setattr(artifacts, "_read_sims_rows", counted)
        return paths

    def assert_block_read(self, path, row_loop_reads, matrix=None, row_loop=False):
        """``path`` loads as the row loop loads it: on the fast path, or
        with ``row_loop`` through the row loop itself."""
        loaded = artifacts.read_sims_tsv(path)
        assert row_loop_reads == ([path] if row_loop else [])
        assert (loaded.ids, loaded.condensed.tobytes()) == read_outcome(self.row_loop, path)
        if matrix is not None:
            assert loaded.ids == matrix.ids
            assert np.array_equal(loaded.condensed, matrix.condensed)

    @pytest.mark.parametrize(
        "n, block", [(n, block) for n in (0, 2, 3, 7) for block in (16, 100, 1 << 16)] + [(300, 4096), (300, 1 << 16)]
    )
    def test_round_trip(self, tmp_path, monkeypatch, row_loop_reads, n, block):
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
        path = tmp_path / "sims.tsv"
        matrix = micros_matrix([f"user{i:04d}" for i in reversed(range(n))], seed=n)
        artifacts.write_sims_tsv(path, matrix)
        self.assert_block_read(path, row_loop_reads, matrix)

    @pytest.mark.parametrize("ids", [PREFIX_IDS, LENGTH_IDS, NON_ASCII_IDS], ids=["prefix", "length", "non-ascii"])
    @pytest.mark.parametrize("block", [16, 1 << 16])
    def test_awkward_ids(self, tmp_path, monkeypatch, row_loop_reads, ids, block):
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
        path = tmp_path / "sims.tsv"
        matrix = micros_matrix(ids)
        artifacts.write_sims_tsv(path, matrix)
        self.assert_block_read(path, row_loop_reads, matrix)

    @pytest.mark.parametrize("block", [16, 300, 2000, 1 << 16])
    def test_groups_hold_at_most_a_block(self, tmp_path, monkeypatch, row_loop_reads, block):
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
        rendered = []

        def recorded(values):
            rendered.append(len(values))
            return format_sims(values)

        format_sims = artifacts.format_sims
        monkeypatch.setattr(artifacts, "format_sims", recorded)
        path = tmp_path / "sims.tsv"
        ids = [f"user{i:03d}" + "x" * (i % 7) + "日" * (i % 3) for i in range(40)]
        matrix = micros_matrix(ids, seed=block)
        artifacts.write_sims_tsv(path, matrix)
        id_rows = {pid.encode(): 0 for pid in ids[:-1]}  # bytes of each id's rows, from the file
        for line in path.read_bytes().splitlines(keepends=True):
            id_rows[line.split(b"\t")[0]] += len(line)
        id_rows = list(id_rows.values())
        rendered.clear()
        self.assert_block_read(path, row_loop_reads, matrix)

        groups = [(rows.start, rows.stop) for rows, _, _ in artifacts._id_groups([pid.encode() for pid in ids])]
        assert [lo for lo, _ in groups] == [0] + [hi for _, hi in groups[:-1]]
        assert groups[-1][1] == len(ids) - 1
        # the fast path renders each group once, with that group's rows
        assert rendered == [sum(len(ids) - 1 - i for i in range(lo, hi)) for lo, hi in groups]
        for lo, hi in groups:
            size = sum(id_rows[lo:hi])
            assert size <= block or hi - lo == 1, (lo, hi, size)
            # a group takes every id that still fits, so there are no more groups than needed
            assert hi == len(ids) - 1 or size + id_rows[hi] > block, (lo, hi, size)

    @pytest.mark.parametrize("block", [16, 300, 1 << 16])
    def test_writer_writes_the_groups(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
        chunks = []
        atomic_write = artifacts.atomic_write

        def recorded(path, written, encoding):
            assert encoding is None
            chunks.extend(written)
            atomic_write(path, chunks, encoding)

        monkeypatch.setattr(artifacts, "atomic_write", recorded)
        ids = [f"user{i:03d}" + "x" * (i % 7) + "日" * (i % 3) for i in range(40)]
        encoded = [pid.encode() for pid in ids]
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, micros_matrix(ids, seed=block))
        groups = artifacts._id_groups(encoded)
        assert len(chunks) == len(groups)
        for chunk, (rows, _, size) in zip(chunks, groups):
            assert len(chunk) == size
            assert [line.split(b"\t")[0] for line in chunk.splitlines()] == [
                encoded[i] for i in rows for _ in encoded[i + 1 :]
            ]
        assert b"".join(chunks) == path.read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 40])
    @pytest.mark.parametrize("block", [16, 300, 1 << 16])
    def test_groups_cover_the_pairs_and_the_file(self, tmp_path, monkeypatch, n, block):
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
        ids = [f"u{i}" + "é" * (i % 4) for i in range(n)]
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, micros_matrix(ids))
        groups = artifacts._id_groups([pid.encode() for pid in ids])
        assert (groups == []) == (n < 2)
        slices = [pairs for _, pairs, _ in groups]
        # each group's pairs start where the last group's stop, from 0 to the last pair
        assert [s.start for s in slices] + [n * (n - 1) // 2] == [0] + [s.stop for s in slices]
        for rows, group_pairs, _ in groups:
            assert group_pairs.stop - group_pairs.start == sum(n - 1 - i for i in rows)
        assert sum(size for *_, size in groups) == path.stat().st_size

    def test_first_id_rows_span_blocks_and_rows_straddle_them(self, tmp_path, monkeypatch, row_loop_reads):
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", 64)
        path = tmp_path / "sims.tsv"
        matrix = micros_matrix([f"profile-{i:02d}-" + "x" * i for i in range(9)])
        artifacts.write_sims_tsv(path, matrix)
        text = path.read_bytes()
        first_id_rows = b"".join(line + b"\n" for line in text.split(b"\n") if line.startswith(b"profile-00-\t"))
        assert len(first_id_rows) > 2 * 64
        line_ends = {i + 1 for i, byte in enumerate(text) if byte == ord("\n")}
        assert any(boundary not in line_ends for boundary in range(64, len(text), 64))  # a row crosses a read
        self.assert_block_read(path, row_loop_reads, matrix)

    def test_no_final_newline(self, tmp_path, monkeypatch, row_loop_reads):
        # write_sims_tsv always ends the file with a newline, so the row loop reads this one
        for block in (16, 1 << 16):
            monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
            path = tmp_path / "sims.tsv"
            matrix = micros_matrix(PREFIX_IDS)
            artifacts.write_sims_tsv(path, matrix)
            path.write_bytes(path.read_bytes()[:-1])
            self.assert_block_read(path, row_loop_reads, matrix, row_loop=True)
            row_loop_reads.clear()

    def test_newline_before_a_short_group_cell(self, tmp_path, monkeypatch, row_loop_reads):
        # the last group, "c\td" alone, is read as "\nc\td\t0.500000": one newline, with no cell before it
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", 16)
        path = tmp_path / "sims.tsv"
        rows = sims_text("a b 0.500000", "a c 0.250000", "a d 0.250000", "b c 0.500000", "b d 0.500000")
        path.write_text(rows + "\nc\td\t0.500000", encoding="utf-8")
        self.assert_block_read(path, row_loop_reads, row_loop=True)

    @pytest.mark.parametrize("cell", ["0.25", "1", "1e-1", " 0.5", "0.5 ", "0", "1.0000000", "+0.5", "-0.0"])
    def test_other_cell_forms_parsed_by_float(self, tmp_path, row_loop_reads, cell):
        # write_sims_tsv writes only "D.DDDDDD" cells, so the row loop reads these
        path = tmp_path / "sims.tsv"
        path.write_text(THREE_PAIRS.replace("0.000001", cell), encoding="utf-8")
        self.assert_block_read(path, row_loop_reads, row_loop=True)
        assert artifacts.read_sims_tsv(path).condensed[1] == np.float32(float(cell))

    def test_every_canonical_cell_renders_back(self):
        """The fast path's premise: each cell from 0.000000 to 1.000000,
        decoded to float32 as the reader does, formats back to its own
        bytes, and the decoded value is the float32 of ``float(cell)``."""
        micros = np.arange(1_000_001)
        cells = np.empty((micros.size, 8), dtype=np.uint8)
        cells[:, 0] = ord("0") + micros // 1_000_000
        cells[:, 1] = ord(".")
        for column, power in enumerate((100_000, 10_000, 1_000, 100, 10, 1), start=2):
            cells[:, column] = ord("0") + micros // power % 10
        decoded = ((cells - np.uint8(ord("0"))) @ artifacts._MICROS / 1e6).astype(np.float32)
        text = cells.view("S8").ravel()
        assert np.array_equal(decoded, text.astype(np.float64).astype(np.float32))
        lines = np.char.add(np.char.add(b"\t", text), b"\n")
        assert np.array_equal(artifacts.format_sims(decoded), lines)

    @pytest.mark.parametrize(
        "cell", ["1.000001", "2.000000", "0.12345x", "0,123456", "0.5\u00e9", "nan", "inf", "", "-0.1"]
    )
    def test_invalid_cells_rejected_as_by_row_loop(self, tmp_path, cell):
        path = tmp_path / "sims.tsv"
        path.write_text(THREE_PAIRS.replace("0.000001", cell), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            artifacts.read_sims_tsv(path)
        assert exc.value.line_no == 2
        assert read_outcome(artifacts.read_sims_tsv, path) == read_outcome(self.row_loop, path)

    def test_id_holding_carriage_return(self, tmp_path):
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, micros_matrix(["a", "b\rc", "d"]))
        outcome = read_outcome(artifacts.read_sims_tsv, path)
        assert outcome == read_outcome(self.row_loop, path)
        assert outcome[0] == "ParseError"

    @pytest.mark.parametrize("form", ["crlf", "blank line", "cr only"])
    def test_carriage_returns_and_blank_lines_go_to_row_loop(self, tmp_path, row_loop_reads, form):
        path = tmp_path / "sims.tsv"
        matrix = micros_matrix(PREFIX_IDS)
        artifacts.write_sims_tsv(path, matrix)
        text = path.read_bytes()
        lines = text.splitlines(keepends=True)
        text = {
            "crlf": text.replace(b"\n", b"\r\n"),
            "blank line": b"".join(lines[:7] + [b"\n"] + lines[7:]),
            "cr only": text.replace(b"\n", b"\r"),
        }[form]
        path.write_bytes(text)
        loaded = artifacts.read_sims_tsv(path)
        assert row_loop_reads == [path]
        assert loaded.ids == matrix.ids
        assert np.array_equal(loaded.condensed, matrix.condensed)

    @staticmethod
    def mutations(lines: list[bytes]):
        """``(name, text)`` for each edit of a valid file's lines."""
        last = len(lines) - 1
        for at in sorted({0, 1, 4, 5, 6, 7, last // 2, last - 1}):
            yield f"swap {at}", b"".join(lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2 :])
        for at in sorted({0, 1, 5, 6, last // 2, last}):
            yield f"drop {at}", b"".join(lines[:at] + lines[at + 1 :])
            yield f"duplicate {at}", b"".join(lines[: at + 1] + lines[at:])
            yield f"blank before {at}", b"".join(lines[:at] + [b"\n"] + lines[at:])
            ids = lines[at].rsplit(b"\t", 1)[0]
            for cell in (b"0.5x", b"1.5", b"nan", b"-1e-9", b"1.000001", b""):
                yield f"value {cell!r} at {at}", b"".join(lines[:at] + [ids + b"\t" + cell + b"\n"] + lines[at + 1 :])
            for field in (0, 1):
                fields = lines[at].split(b"\t")
                fields[field] = fields[field][:-1]  # u10 -> u1, u -> ""
                yield f"shorten id {field} at {at}", b"".join(lines[:at] + [b"\t".join(fields)] + lines[at + 1 :])
                fields = lines[at].split(b"\t")
                fields[field] = fields[field][:-1] + b"x"  # u10 -> u1x
                yield f"respell id {field} at {at}", b"".join(lines[:at] + [b"\t".join(fields)] + lines[at + 1 :])
            yield f"extra field at {at}", b"".join(lines[:at] + [lines[at][:-1] + b"\tx\n"] + lines[at + 1 :])
            yield f"missing field at {at}", b"".join(lines[:at] + [lines[at].split(b"\t", 1)[1]] + lines[at + 1 :])
        for extra in (lines[0], lines[-1], b"u2\tu2\t0.500000\n", b"u2\tu1\t0.500000\n"):
            yield f"append {extra!r}", b"".join(lines + [extra])
        yield "crlf", b"".join(lines).replace(b"\n", b"\r\n")
        yield "no final newline", b"".join(lines)[:-1]
        yield "trailing blank lines", b"".join(lines) + b"\n\n"
        yield "only the first id's rows", b"".join(lines[:5])

    @pytest.mark.parametrize("block", [16, 64, 1 << 16])
    def test_mutations_match_row_loop(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, micros_matrix(PREFIX_IDS))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 15
        for name, text in self.mutations(lines):
            path.write_bytes(text)
            assert read_outcome(artifacts.read_sims_tsv, path) == read_outcome(self.row_loop, path), name


class TestSimsMemo:
    def test_parsed_once_per_file_version(self, tmp_path, monkeypatch):
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, two_blob_matrix())
        parsed = []
        read_sims_tsv = artifacts.read_sims_tsv

        def counted(p, **kwargs):
            parsed.append((p, kwargs))
            return read_sims_tsv(p, **kwargs)

        monkeypatch.setattr(artifacts, "read_sims_tsv", counted)
        memo = artifacts.FileHashes()
        first = memo.sims(path)
        assert memo.sims(path) is first
        assert len(parsed) == 1
        artifacts.write_sims_tsv(path, two_blob_matrix().scaled(0.5))
        second = memo.sims(path)
        assert len(parsed) == 2
        # no digest was matched, so both reads re-render
        assert parsed == [(path, {"trusted": False})] * 2
        assert np.array_equal(second.condensed, first.condensed * np.float32(0.5))


def first_rows_ids(text: bytes) -> list[str]:
    """The ids that the first id's rows of a ``sims.tsv`` text name."""
    rows = [line.split(b"\t") for line in text.splitlines()]
    first = rows[0][0]
    return [pid.decode() for pid in [first] + [row[1] for row in takewhile(lambda row: row[0] == first, rows)]]


class TestTrustedRead:
    """``read_sims_tsv(path, trusted=True)``, for a file whose digest the
    run has matched to its sidecar, skips only the re-rendering."""

    @staticmethod
    def written_sims(tmp_path, write_users) -> Path:
        """``sims.tsv`` of the users file that ``write_users(path)`` writes."""
        users, profiles, sims = tmp_path / "users.tsv", tmp_path / "profiles.tsv", tmp_path / "sims.tsv"
        write_users(users)
        compute_profiles(users, DATA / "lexicon.txt", DATA / "bigrams.tsv", DEFAULT_FLOOR_PROB, profiles)
        taxonomy = DATA / "taxonomy"
        tax_files = (taxonomy / "synsets.tsv", taxonomy / "edges.tsv", taxonomy / "counts.tsv")
        compute_simmatrix(profiles, *tax_files, DEFAULT_IC_CAP, 1, sims)
        return sims

    @staticmethod
    def assert_equals_checked_read(path, monkeypatch):
        checked = artifacts.read_sims_tsv(path)

        def refused(*args):
            raise AssertionError("the trusted read re-rendered or left the fast path")

        monkeypatch.setattr(artifacts, "_sims_rows", refused)
        monkeypatch.setattr(artifacts, "_read_sims_rows", refused)
        trusted = artifacts.read_sims_tsv(path, trusted=True)
        assert trusted.ids == checked.ids
        assert np.array_equal(trusted.condensed, checked.condensed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("workload", ["pools", "phrases", "openvocab"])
    def test_benchmark_workloads(self, tmp_path, monkeypatch, workload, seed):
        monkeypatch.syspath_prepend(str(PIPEBENCH))
        workloads = importlib.import_module("workloads")
        write = functools.partial(workloads.write_users, workloads.WORKLOADS[workload], seed, DATA / "lexicon.txt")
        self.assert_equals_checked_read(self.written_sims(tmp_path, write), monkeypatch)

    def test_acceptance_users(self, tmp_path, monkeypatch):
        self.assert_equals_checked_read(self.written_sims(tmp_path, make_synthetic_users), monkeypatch)

    @pytest.mark.parametrize("block", [16, 64, 1 << 16])
    def test_mutations_stay_in_range(self, tmp_path, monkeypatch, block):
        # What a forged sidecar can make the trusted read accept: the rows of
        # the ids that the first id's rows name, each value in [0, 1].
        monkeypatch.setattr(artifacts, "SIMS_READ_BLOCK", block)
        path = tmp_path / "sims.tsv"
        artifacts.write_sims_tsv(path, micros_matrix(PREFIX_IDS))
        lines = path.read_bytes().splitlines(keepends=True)
        trusted_read = functools.partial(artifacts.read_sims_tsv, trusted=True)
        accepted = 0
        for name, text in TestSimsBlockReader.mutations(lines):
            path.write_bytes(text)
            outcome = read_outcome(trusted_read, path)
            if outcome == read_outcome(artifacts.read_sims_tsv, path):
                continue
            accepted += 1
            ids, condensed = outcome
            values = np.frombuffer(condensed, dtype=np.float32)
            assert ids == first_rows_ids(text) and len(ids) == len(PREFIX_IDS), name
            assert np.isfinite(values).all() and values.min() >= 0 and values.max() <= 1, name
        assert accepted  # swapped or respelled ids after the first id's rows


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
