"""Pipeline artifact IO: atomic TSV writes, hashing, metadata sidecars.

Every stage output is written through a temp file + rename so interrupted
runs never leave a corrupt artifact, and is accompanied by a
``<name>.meta.json`` sidecar recording parameters, input hashes, the
output hash and a digest of the package source (:func:`code_sha256`).  A
stage is considered cached when its sidecar still matches the current
inputs, parameters and source.  Writers stream their text to the temp
file in chunks instead of building the whole file in memory.

``sims.tsv`` holds one row per pair in the matrix's storage order,
``(ids[0], ids[1]), (ids[0], ids[2]), ..., (ids[n-2], ids[n-1])``; its
reader accepts that order only.  Its writer formats every similarity at
once in numpy (:func:`format_sims`, the one implementation of the
6-decimal format, shared with ``recommendations.tsv``) and emits each
``ids[i]`` block of rows as one chunk.  Its reader checks and decodes
blocks of about 64 KiB of whole lines in numpy; a file it does not load
itself (a bad row, a ``\\r``, a blank line) is read again by a row loop,
which names the first bad row in its error.

One pipeline run keeps one :class:`FileHashes`: it hashes each file
version once and parses each ``sims.tsv`` version once, so the stages
after the first reader reuse the parsed matrix.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import tempfile
from array import array
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tagrec.cluster import Clustering
from tagrec.errors import InputError, ParseError
from tagrec.matcher import SimilarityMatrix
from tagrec.profiles import Profile
from tagrec.tsv import read_rows


def atomic_write_text(path, chunks) -> None:
    """Write ``chunks``, a string or an iterable of strings, to ``path``
    through a temp file in the same directory and a rename."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tsv(path, rows) -> None:
    atomic_write_text(path, ("\t".join(str(f) for f in row) + "\n" for row in rows))


def format_sims(values) -> np.ndarray:
    """``"\\t" + "{:.6f}".format(v) + "\\n"`` for every similarity ``v``,
    as an array of 10-byte ASCII strings, formatted at once.

    This is the one implementation of the 6-decimal similarity format.
    The values must be float32 numbers in [0, 1]; Python floats or a
    float64 array holding float32 values will do.  A float32 times 1e6
    is exact in float64, so ``np.rint`` (round half to even) of it is the
    correctly rounded 6-decimal value that ``"{:.6f}"`` prints.  A value
    outside [0, 1], NaN or -0.0 raises :class:`InputError`.
    """
    values = np.asarray(values)
    bad = np.flatnonzero(np.signbit(values) | ~(values <= 1.0))
    if bad.size:
        raise InputError(f"similarity out of range: {values[bad[0]]}")
    micros = np.rint(np.multiply(values, 1e6, dtype=np.float64)).astype(np.int32)
    cells = np.empty((micros.size, 10), dtype=np.uint8)
    cells[:, 0] = ord("\t")
    cells[:, 1] = ord("0") + micros // 1_000_000
    cells[:, 2] = ord(".")
    for column, power in enumerate((100_000, 10_000, 1_000, 100, 10, 1), start=3):
        cells[:, column] = ord("0") + micros // power % 10
    cells[:, 9] = ord("\n")
    return cells.view("S10").ravel()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # 64 KiB blocks stay under glibc's default mmap threshold (128 KiB), so
        # each block reuses heap memory instead of a fresh mmap and page faults.
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@functools.cache
def code_sha256() -> str:
    """sha256 over the names and bytes of the package's ``*.py`` files in
    name order, computed once per process on first use."""
    digest = hashlib.sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(source.name.encode() + b"\0" + source.read_bytes() + b"\0")
    return digest.hexdigest()


class FileHashes:
    """Per-run memo of what is derived from a file's bytes: each file's
    :func:`sha256_file` digest, and each ``sims.tsv`` parsed by
    :func:`read_sims_tsv` (both called through this module's globals).

    An entry is reused while the file's path, device, inode, size and
    mtime are the same.  One pipeline run keeps one memo: a stage replaces
    its artifact by rename at most once per run, so a rewrite there always
    shows as a new inode.  The memo holds the parsed matrices it returns,
    so it lives no longer than the run.
    """

    def __init__(self):
        self._digests: dict[tuple, str] = {}
        self._matrices: dict[tuple, SimilarityMatrix] = {}

    @staticmethod
    def _key(path) -> tuple:
        st = os.stat(path)
        return (os.fspath(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)

    def __call__(self, path) -> str:
        key = self._key(path)
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = sha256_file(path)
        return digest

    def sims(self, path) -> SimilarityMatrix:
        """The matrix of ``sims.tsv`` at ``path``, parsed once per version."""
        key = self._key(path)
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = self._matrices[key] = read_sims_tsv(path)
        return matrix


def sidecar_path(artifact_path) -> Path:
    return Path(str(artifact_path) + ".meta.json")


def write_sidecar(
    artifact_path, stage: str, params: dict, inputs: dict, elapsed: float, hashes: FileHashes | None = None
) -> None:
    hashes = hashes or FileHashes()
    meta = {
        "stage": stage,
        "params": params,
        "code_sha256": code_sha256(),
        "inputs": {name: {"path": str(p), "sha256": hashes(p)} for name, p in inputs.items()},
        "output_sha256": hashes(artifact_path),
        "elapsed_seconds": round(elapsed, 3),
    }
    atomic_write_text(sidecar_path(artifact_path), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def stage_is_cached(artifact_path, stage: str, params: dict, inputs: dict, hashes: FileHashes | None = None) -> bool:
    hashes = hashes or FileHashes()
    artifact_path = Path(artifact_path)
    meta_path = sidecar_path(artifact_path)
    if not artifact_path.exists() or not meta_path.exists():
        return False
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return False
    if meta.get("stage") != stage or meta.get("params") != params or meta.get("code_sha256") != code_sha256():
        return False
    recorded = meta.get("inputs", {})
    if set(recorded) != set(inputs):
        return False
    for name, p in inputs.items():
        if not Path(p).exists() or recorded[name].get("sha256") != hashes(p):
            return False
    return meta.get("output_sha256") == hashes(artifact_path)


# -- artifact writers/readers ------------------------------------------


def write_profiles_tsv(path, profiles) -> None:
    """``id<TAB>word1 word2 ...`` with words sorted for determinism."""
    write_tsv(path, ((p.id, " ".join(sorted(p.words))) for p in profiles))


def read_profiles_tsv(path) -> list[Profile]:
    return [
        Profile(id=pid, words=frozenset(words.split()))
        for _, (pid, words) in read_rows(path, 2, "profiles")
    ]


def write_sims_tsv(path, matrix: SimilarityMatrix) -> None:
    """``id_i<TAB>id_j<TAB>sim`` for i < j in storage order, 6 decimals.

    All values are formatted at once by :func:`format_sims`.  The rows of
    each ``ids[i]`` are joined into one chunk, written as it is made, so
    no text beyond one block of rows is held.
    """
    encoded = [pid.encode() for pid in matrix.ids]
    cells = format_sims(matrix.condensed)

    def chunks():
        start = 0
        for i, a in enumerate(encoded):
            end = start + len(encoded) - 1 - i
            # prefix, id_j, "\tsim\n" for every j > i
            parts = [a + b"\t"] * (3 * (end - start))
            parts[1::3] = encoded[i + 1 :]
            parts[2::3] = cells[start:end].tolist()
            yield b"".join(parts).decode()
            start = end

    atomic_write_text(path, chunks())


SIMS_READ_BLOCK = 1 << 16  # bytes read per block by read_sims_tsv; whole lines of them are checked at once
_MICROS = np.array([1e6, 0, 1e5, 1e4, 1e3, 100, 10, 1])  # place value of each byte of a "D.DDDDDD" cell


def read_sims_tsv(path) -> SimilarityMatrix:
    """Rebuild a :class:`SimilarityMatrix` from its TSV.

    Rows must come in storage order, the order of
    ``itertools.combinations(ids, 2)`` that :func:`write_sims_tsv` emits.
    The first id's rows name the ids.  The file is then read from the
    start in blocks of about ``SIMS_READ_BLOCK`` bytes of whole lines, and
    each block is checked and decoded in numpy, with no Python step per
    row: every line holds two tabs, its two ids are, byte for byte, the
    next pair of that order, and its value goes straight into the float32
    condensed array.  A ``D.DDDDDD`` cell is decoded from its digits
    (``micros / 1e6`` is the double ``float()`` returns); any other cell
    is parsed by ``float()``.  Values must lie in [0, 1], and the file
    must end after the last pair.  Beyond the matrix, it holds one block
    and the numpy temporaries of one block.

    A file that fails any check, or holds a ``\\r`` or a blank line, is
    read again from the start by the row loop :func:`_read_sims_rows`,
    which names the first bad row in its :class:`ParseError`, and also
    loads the CRLF files and blank lines that the block reader leaves to it.
    """
    matrix = _read_sims_blocks(path)
    return _read_sims_rows(path) if matrix is None else matrix


def _read_sims_blocks(path) -> SimilarityMatrix | None:
    """The block reader of :func:`read_sims_tsv`; ``None`` for any file
    it does not load exactly as :func:`_read_sims_rows` would."""
    try:
        with open(path, "rb") as fh:
            encoded = _first_id_pairs(fh)
            if encoded is None:
                return None
            decoder = _BlockDecoder(encoded)
            fh.seek(0)
            for block in _line_blocks(fh):
                if b"\r" in block or not decoder.decode(block):
                    return None
    except (OSError, UnicodeDecodeError):
        return None
    return decoder.matrix if decoder.done == decoder.matrix.condensed.size else None


def _first_id_pairs(fh) -> list[bytes] | None:
    """The encoded ids named by the first id's rows, or ``None`` when
    those rows are malformed or repeat an id."""
    ids: list[bytes] = []
    for line in fh:
        fields = line.rstrip(b"\n").split(b"\t")
        if len(fields) != 3:
            return None
        a, b, _ = fields
        if not ids:
            ids.append(a)
        elif a != ids[0]:
            break
        ids.append(b)
    return ids if len(set(ids)) == len(ids) else None


def _line_blocks(fh):
    """The file's bytes in blocks of whole lines, each ending in ``\\n``,
    the last line given one if it has none."""
    carry = b""
    while chunk := fh.read(SIMS_READ_BLOCK):
        block = carry + chunk
        end = block.rfind(b"\n") + 1
        carry = block[end:]
        if end:
            yield block[:end]
    if carry:
        yield carry + b"\n"


def _fields_match(buf: np.ndarray, starts, lengths, ref: np.ndarray, ref_starts) -> bool:
    """Whether each field ``buf[starts[r] : starts[r] + lengths[r]]`` holds
    the bytes of ``ref`` from ``ref_starts[r]``, compared in one gather."""
    pos = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(pos.size)
    ref_pos = np.repeat(ref_starts - starts, lengths)
    ref_pos += pos
    return np.array_equal(buf[pos], ref[ref_pos])


class _BlockDecoder:
    """Checks blocks of ``sims.tsv`` lines against the storage order of
    one id list and decodes their values into ``matrix.condensed``."""

    def __init__(self, encoded: list[bytes]):
        n = len(encoded)
        self.matrix = SimilarityMatrix(
            [pid.decode() for pid in encoded], np.empty(n * (n - 1) // 2, dtype=np.float32)
        )
        self.ids = np.frombuffer(b"".join(encoded), dtype=np.uint8)
        self.id_lengths = np.array([len(pid) for pid in encoded], dtype=np.intp)
        self.id_starts = np.cumsum(self.id_lengths) - self.id_lengths
        # condensed index of each pair (i, i + 1); the last entry is the pair count
        self.row_starts = self.matrix._k(np.arange(n), np.arange(1, n + 1))
        self.done = 0  # pairs read so far

    def decode(self, block: bytes) -> bool:
        """Check the lines of ``block`` as the next pairs and store their
        values; ``False`` if any check fails."""
        buf = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        tabs = np.flatnonzero(buf == ord("\t"))
        rows = ends.size
        if tabs.size != 2 * rows or self.done + rows > self.matrix.condensed.size:
            return False
        tab1, tab2 = tabs[0::2], tabs[1::2]
        starts = np.concatenate(([0], ends[:-1] + 1))

        # Row r's ids run from its line start to tab1[r] and on to tab2[r].
        # An id holds no tab or newline, so once both match, every line
        # holds exactly two of the 2 * rows tabs: a blank line never passes.
        k = np.arange(self.done, self.done + rows)
        i = np.searchsorted(self.row_starts, k, side="right") - 1
        j = i + 1 + (k - self.row_starts[i])
        first, second = tab1 - starts, tab2 - tab1 - 1
        if not (
            np.array_equal(first, self.id_lengths[i])
            and np.array_equal(second, self.id_lengths[j])
            and _fields_match(buf, starts, first, self.ids, self.id_starts[i])
            and _fields_match(buf, tab1 + 1, second, self.ids, self.id_starts[j])
        ):
            return False

        out = self.matrix.condensed[self.done : self.done + rows]
        cell_starts = tab2 + 1
        if not _decode_values(block, buf, cell_starts, ends, out):
            return False
        self.done += rows
        return True


def _decode_values(block: bytes, buf: np.ndarray, cell_starts, ends, out: np.ndarray) -> bool:
    """Store the value cell ``block[cell_starts[r] : ends[r]]`` of each row
    in ``out[r]``; ``False`` if one is not a number in [0, 1]."""
    fixed = np.flatnonzero(ends - cell_starts == 8)
    cells = sliding_window_view(buf, 8)[cell_starts[fixed]]
    point = cells[:, 1] == ord(".")
    cells[:, 1] = ord("0")
    digits = cells - np.uint8(ord("0"))  # a non-digit wraps above 9
    canonical = point & (digits <= 9).all(axis=1)
    micros = (digits @ _MICROS)[canonical]  # exact: float64 holds every integer of 7 digits
    if (micros > 1_000_000).any():
        return False
    # micros / 1e6 is the correctly rounded double, the one float() returns
    decoded = fixed[canonical]
    out[decoded] = micros / 1e6
    others = np.ones(out.size, dtype=bool)
    others[decoded] = False
    for r in np.flatnonzero(others).tolist():
        try:
            value = float(block[cell_starts[r] : ends[r]].decode())
        except ValueError:  # UnicodeDecodeError is one
            return False
        if not 0.0 <= value <= 1.0:
            return False
        out[r] = value
    return True


def _read_sims_rows(path) -> SimilarityMatrix:
    """The row loop of :func:`read_sims_tsv`, one Python step per row.

    The first id's rows name the ids; every later row must be the next
    pair of the storage order, so a missing, repeated, swapped, self or
    extra pair fails at the first row out of place.  Values go into a
    float32 buffer, with no Python object kept per row.
    """
    ids: list[str] = []
    seen: set[str] = set()
    rest = None  # the pairs due after the first id's rows
    values = array("f")
    for line_no, (a, b, raw) in read_rows(path, 3, "similarity matrix"):
        if rest is None and (not ids or a == ids[0]):
            if not ids:
                ids.append(a)
                seen.add(a)
            if b in seen:
                raise ParseError(path, line_no, f"pair ({a}, {b}) names id {b!r} twice")
            ids.append(b)
            seen.add(b)
        else:
            if rest is None:
                rest = itertools.combinations(ids[1:], 2)
            want = next(rest, None)
            if want is None:
                raise ParseError(path, line_no, f"extra pair ({a}, {b}) after the last pair")
            if want != (a, b):
                raise ParseError(path, line_no, f"expected pair ({want[0]}, {want[1]}), got ({a}, {b})")
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(path, line_no, f"similarity is not a number: {raw!r}") from None
        if not 0.0 <= value <= 1.0:
            raise ParseError(path, line_no, f"similarity out of range: {value}")
        values.append(value)

    n = len(ids)
    expected = n * (n - 1) // 2
    if len(values) != expected:
        raise ParseError(path, 0, f"expected {expected} pair rows for {n} ids, found {len(values)}")
    return SimilarityMatrix(ids, np.frombuffer(values, dtype=np.float32))


def write_clusters_tsv(path, clustering: Clustering, id_order) -> None:
    """``profile_id<TAB>cluster_index<TAB>medoid_id`` in matrix id order."""
    write_tsv(
        path,
        (
            (pid, clustering.assignment[pid], clustering.medoids[clustering.assignment[pid]])
            for pid in id_order
        ),
    )


def read_clusters_tsv(path) -> Clustering:
    assignment: dict[str, int] = {}
    medoids: dict[int, str] = {}
    for line_no, (pid, raw_cluster, medoid) in read_rows(path, 3, "clusters"):
        try:
            cluster = int(raw_cluster)
        except ValueError:
            raise ParseError(path, line_no, f"cluster index is not an integer: {raw_cluster!r}") from None
        if pid in assignment:
            raise ParseError(path, line_no, f"duplicate profile id {pid!r}")
        assignment[pid] = cluster
        if medoids.setdefault(cluster, medoid) != medoid:
            raise ParseError(path, line_no, f"conflicting medoid for cluster {cluster}")
    if not assignment:
        raise ParseError(path, 0, "no cluster rows")
    k = max(medoids) + 1
    if sorted(medoids) != list(range(k)):
        raise ParseError(path, 0, "cluster indices are not contiguous from 0")
    for cluster in range(k):
        medoid = medoids[cluster]
        if medoid not in assignment:
            raise ParseError(path, 0, f"medoid {medoid!r} of cluster {cluster} has no row")
        if assignment[medoid] != cluster:
            raise ParseError(
                path, 0, f"medoid {medoid!r} of cluster {cluster} is assigned to cluster {assignment[medoid]}"
            )
    return Clustering(k=k, medoids=tuple(medoids[c] for c in range(k)), assignment=assignment)


def recommendation_lines(recommendations) -> list[str]:
    """``target<TAB>rank<TAB>candidate<TAB>sim`` lines, rank starting at 1."""
    rows = [
        (rec.target, rank, candidate, sim)
        for rec in recommendations
        for rank, (candidate, sim) in enumerate(rec.items, start=1)
    ]
    tails = format_sims([sim for *_, sim in rows]).astype("U10").tolist()
    return [f"{target}\t{rank}\t{candidate}{tail}" for (target, rank, candidate, _), tail in zip(rows, tails)]


def write_recommendations_tsv(path, recommendations) -> None:
    """:func:`recommendation_lines` of ``recommendations`` as a file."""
    atomic_write_text(path, recommendation_lines(recommendations))
