"""Pipeline artifact IO: atomic TSV writes, hashing, metadata sidecars.

Every stage output is written through a temp file + rename so interrupted
runs never leave a corrupt artifact, and is accompanied by a
``<name>.meta.json`` sidecar recording parameters, input hashes, the
output hash and a digest of the package source (:func:`code_sha256`).  A
stage is considered cached when its sidecar still matches the current
inputs, parameters and source.  Writers stream their output to the temp
file in chunks instead of building the whole file in memory.

``sims.tsv`` holds one row per pair in the matrix's storage order,
``(ids[0], ids[1]), (ids[0], ids[2]), ..., (ids[n-2], ids[n-1])``; its
reader accepts that order only.  Its writer and its reader walk the file
in the same groups of consecutive ids' rows, of at most about 64 KiB,
which only :func:`_id_groups` bounds.  :func:`_sims_rows`, the one
definition of the file's layout, renders one group: it formats the
group's similarities in numpy (:func:`format_sims`, the one
implementation of the 6-decimal format, shared with
``recommendations.tsv``) and lays out its rows.  The writer writes one
rendered group at a time.  The reader's fast path decodes each group and
keeps it only if :func:`_sims_rows` renders the same bytes.  Every other
file (another number form, a ``\\r``, a blank line, a bad row) is read
again by a row loop, which names the first bad row in its error.

One pipeline run keeps one :class:`FileHashes`: it hashes each file
version once and parses each ``sims.tsv`` version once, so the stages
after the first reader reuse the parsed matrix.  The trust rule: a
``sims.tsv`` version whose sha256 this run's :func:`stage_is_cached` has
just matched to its sidecar is read ``trusted``, decoded without the
re-rendering, since the digest already proves every byte.  Trust lives
in that one run's memo, keyed by the file's stat; every other read (a
cold run, ``--force``, a digest mismatch, the stand-alone commands)
re-renders.
"""

from __future__ import annotations

import bisect
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


def atomic_write(path, chunks, encoding: str | None = "utf-8") -> None:
    """Write ``chunks``, a string or an iterable of strings, to ``path``
    through a temp file in the same directory and a rename.  With
    ``encoding=None``, the chunks are bytes, written as they are."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if encoding is None else "w", encoding=encoding) as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tsv(path, rows) -> None:
    atomic_write(path, ("\t".join(str(f) for f in row) + "\n" for row in rows))


def format_sims(values) -> np.ndarray:
    """``"\\t" + "{:.6f}".format(v) + "\\n"`` for every similarity ``v``,
    as an array of 10-byte ASCII strings, formatted at once.

    This is the one implementation of the 6-decimal similarity format.
    The values must be float32 numbers in [0, 1]; Python floats or a
    float64 array holding float32 values will do.  A float32 times 1e6
    is exact in float64, so ``np.rint`` (round half to even) of it is the
    correctly rounded 6-decimal value that ``"{:.6f}"`` prints.  A cell
    is two table entries, picked by those micros split at 1000 (see
    :func:`_cell_halves`), so a call makes a few numpy calls whatever its
    size.  A value outside [0, 1], NaN or -0.0 raises :class:`InputError`.
    """
    values = np.asarray(values)
    bad = np.flatnonzero(np.signbit(values) | ~(values <= 1.0))
    if bad.size:
        raise InputError(f"similarity out of range: {values[bad[0]]}")
    micros = np.rint(np.multiply(values, 1e6, dtype=np.float64)).astype(np.int32)
    high, low = np.divmod(micros.ravel(), 1000)
    heads, tails = _cell_halves()
    cells = np.empty(high.size, dtype=[("head", "V6"), ("tail", "V4")])
    cells["head"] = heads[high]
    cells["tail"] = tails[low]
    return cells.view("S10")


@functools.cache
def _cell_halves() -> tuple[np.ndarray, np.ndarray]:
    """The two halves of every similarity cell, as raw bytes: ``heads[k]``
    is ``"\\tD.DDD"`` for ``k`` thousandths, 0 to 1000, and ``tails[k]`` is
    ``"DDD\\n"`` for ``k`` millionths past them, 0 to 999."""
    heads = np.array([f"\t{k // 1000}.{k % 1000:03d}".encode() for k in range(1001)], dtype="S6")
    tails = np.array([f"{k:03d}\n".encode() for k in range(1000)], dtype="S4")
    return heads.view("V6"), tails.view("V4")


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
    :func:`sha256_file` digest, each ``sims.tsv`` parsed by
    :func:`read_sims_tsv` (both called through this module's globals),
    and the versions whose digest matched a sidecar's (:meth:`matches`).

    An entry is reused while the file's path, device, inode, size and
    mtime are the same.  One pipeline run keeps one memo: a stage replaces
    its artifact by rename at most once per run, so a rewrite there always
    shows as a new inode.  The memo holds the parsed matrices it returns,
    so it lives no longer than the run.
    """

    def __init__(self):
        self._digests: dict[tuple, str] = {}
        self._matrices: dict[tuple, SimilarityMatrix] = {}
        self._proved: set[tuple] = set()

    @staticmethod
    def _key(path) -> tuple:
        st = os.stat(path)
        return (os.fspath(path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)

    def _digest(self, key: tuple, path) -> str:
        digest = self._digests.get(key)
        if digest is None:
            digest = self._digests[key] = sha256_file(path)
        return digest

    def __call__(self, path) -> str:
        return self._digest(self._key(path), path)

    def matches(self, path, digest) -> bool:
        """Whether the file at ``path`` has the sha256 ``digest``.  A match
        marks this version of the file as proved, for :meth:`sims`."""
        key = self._key(path)
        if self._digest(key, path) != digest:
            return False
        self._proved.add(key)
        return True

    def sims(self, path) -> SimilarityMatrix:
        """The matrix of ``sims.tsv`` at ``path``, parsed once per version,
        and read with ``trusted`` when :meth:`matches` proved that version
        in this run."""
        key = self._key(path)
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = self._matrices[key] = read_sims_tsv(path, trusted=key in self._proved)
        return matrix


def sidecar_path(artifact_path) -> Path:
    return Path(str(artifact_path) + ".meta.json")


def _sidecar(stage: str, params: dict, inputs: dict, hashes: FileHashes) -> dict:
    """The sidecar fields that decide whether a stage is cached, bar the
    output digest: the stage, its params, :func:`code_sha256` and each
    input's digest by name.  Inputs are compared by content only, so a
    moved input with the same bytes leaves a stage cached."""
    return {
        "stage": stage,
        "params": params,
        "code_sha256": code_sha256(),
        "inputs": {name: hashes(p) for name, p in inputs.items()},
    }


def write_sidecar(
    artifact_path, stage: str, params: dict, inputs: dict, elapsed: float, hashes: FileHashes | None = None
) -> None:
    """Write the sidecar of ``artifact_path``: the fields of
    :func:`_sidecar` and the artifact's digest, then, for reading only,
    the input paths and the stage's elapsed seconds."""
    hashes = hashes or FileHashes()
    meta = {
        **_sidecar(stage, params, inputs, hashes),
        "output_sha256": hashes(artifact_path),
        "input_paths": {name: str(p) for name, p in inputs.items()},
        "elapsed_seconds": round(elapsed, 3),
    }
    atomic_write(sidecar_path(artifact_path), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def stage_is_cached(artifact_path, stage: str, params: dict, inputs: dict, hashes: FileHashes | None = None) -> bool:
    """Whether the sidecar of ``artifact_path`` holds every field of
    :func:`_sidecar` and the artifact's digest.  A missing artifact or
    input, and a sidecar that is missing, unreadable or of another shape,
    are a miss, not an error.  A hit proves the artifact's version in
    ``hashes`` (:meth:`FileHashes.matches`): it holds the bytes the stage
    wrote when it wrote that sidecar."""
    hashes = hashes or FileHashes()
    try:
        meta = json.loads(sidecar_path(artifact_path).read_text(encoding="utf-8"))
        return (
            isinstance(meta, dict)
            and all(meta.get(key) == value for key, value in _sidecar(stage, params, inputs, hashes).items())
            and hashes.matches(artifact_path, meta.get("output_sha256"))
        )
    except (OSError, ValueError):  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        return False


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

    The file is written one group of :func:`_id_groups` at a time, each
    rendered by :func:`_sims_rows` from that group's own values, so no
    text or formatted cell beyond one group is held.  A value that
    :func:`format_sims` refuses raises before ``path`` is replaced.
    """
    encoded = [pid.encode() for pid in matrix.ids]
    chunks = (_sims_rows(encoded, ids, matrix.condensed[pairs]) for ids, pairs, _ in _id_groups(encoded))
    atomic_write(path, chunks, encoding=None)


def _sims_rows(encoded: list[bytes], ids: range, values: np.ndarray) -> bytes:
    """The rows of ``encoded[i]`` for each ``i`` in ``ids``, a group of
    :func:`_id_groups`: that id, a tab, each later id and the
    :func:`format_sims` cell of ``values``, the group's similarities in
    storage order.

    This is the one definition of the file's layout: the writer emits it,
    and the fast path of :func:`read_sims_tsv` accepts only what it gives.
    """
    cells = format_sims(values).tolist()
    rows = []
    # joined per id: bytes.join keeps an 80-byte record per part, several times the bytes of the rows
    for i in ids:
        later = encoded[i + 1 :]
        parts = [encoded[i] + b"\t"] * (3 * len(later))
        parts[1::3] = later
        parts[2::3] = cells[: len(later)]
        del cells[: len(later)]  # the next id's cells come first now
        rows.append(b"".join(parts))
    return b"".join(rows)


SIMS_READ_BLOCK = 1 << 16  # most bytes of rows in one group of sims.tsv, written or read at once, bar one id's rows
_MICROS = np.array([1e6, 0, 1e5, 1e4, 1e3, 100, 10, 1])  # place value of each byte of a "D.DDDDDD" cell


def read_sims_tsv(path, *, trusted: bool = False) -> SimilarityMatrix:
    """Rebuild a :class:`SimilarityMatrix` from its TSV.

    Rows must come in storage order, the order of
    ``itertools.combinations(ids, 2)`` that :func:`write_sims_tsv` emits.
    The fast path accepts exactly the files that :func:`write_sims_tsv`
    writes.  The first id's rows name the ids, so the groups the writer
    wrote are known: the file is read in the groups of :func:`_id_groups`,
    the 8 bytes before each newline of a group are decoded as its cells
    (``micros / 1e6`` is the double ``float()`` returns), and a group is
    accepted only if :func:`_sims_rows` gives back its exact bytes from
    those ids and values.  The file must end after the last group.
    Beyond the matrix, it holds one group and its numpy temporaries.

    ``trusted`` is for a file whose sha256 this run has just matched to
    the sidecar that :func:`write_sims_tsv`'s stage wrote beside it
    (:meth:`FileHashes.sims`).  That digest covers every byte, so the
    fast path skips only the re-rendering; it still checks each group's
    size, newline count and first cell's place, that no cell exceeds 1,
    and that the file ends after the last group.  Any value it decodes
    is in [0, 1].

    Every other file, or a trusted one that fails those checks (which
    the re-rendering path would fail too), is read again from the start
    by the row loop :func:`_read_sims_rows`.  It loads other number
    forms, a missing final newline, CRLF line ends and blank lines, and
    names the first bad row in its :class:`ParseError`.
    """
    matrix = _read_sims_written(path, trusted)
    return _read_sims_rows(path) if matrix is None else matrix


def _read_sims_written(path, trusted: bool) -> SimilarityMatrix | None:
    """The fast path of :func:`read_sims_tsv`; ``None`` for any file
    that :func:`write_sims_tsv` would not write byte for byte (unless
    ``trusted`` skips the re-rendering)."""
    try:
        with open(path, "rb") as fh:
            encoded = _first_id_pairs(fh)
            # the row loop reads in universal-newline mode, where a "\r" in an id ends its line
            if encoded is None or any(b"\r" in pid for pid in encoded):
                return None
            n = len(encoded)
            matrix = SimilarityMatrix([pid.decode() for pid in encoded], np.empty(n * (n - 1) // 2, dtype=np.float32))
            if not _read_groups(fh, encoded, matrix.condensed, trusted):
                return None
            return None if fh.read(1) else matrix
    except (OSError, UnicodeDecodeError):
        return None


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


def _id_groups(encoded: list[bytes]) -> list[tuple[range, slice, int]]:
    """The groups that ``sims.tsv`` of the ``encoded`` ids is written and
    read in, each as ``(ids, pairs, size)``: the range of ids whose rows
    it holds, the slice of their pairs in storage order, and the bytes of
    those rows.

    This is the one place that knows where each group begins and ends.
    The groups cover ids ``0`` to ``n - 2`` in order, and each takes
    every next id whose rows still fit in ``SIMS_READ_BLOCK`` bytes; a
    group of one id may be larger.  Fewer than 2 ids have no rows and so
    no group.
    """
    n = len(encoded)
    lengths = np.array([len(pid) for pid in encoded[:-1]], dtype=np.int64)
    # id i has n-1-i rows of len_i + len_j + 11 bytes: two tabs, "D.DDDDDD" and "\n"
    rows = n - 1 - np.arange(n - 1)
    later = sum(map(len, encoded)) - np.cumsum(lengths)  # bytes of the ids after i
    starts = [0, *np.cumsum(rows * (lengths + 11) + later).tolist()]  # first byte of each id's rows
    pair_starts = [0, *np.cumsum(rows).tolist()]
    bounds = [0]
    while bounds[-1] < n - 1:
        lo = bounds[-1]
        fits = bisect.bisect_right(starts, starts[lo] + SIMS_READ_BLOCK) - 1  # the rows of ids lo..fits-1 fit
        bounds.append(max(lo + 1, fits))
    return [
        (range(lo, hi), slice(pair_starts[lo], pair_starts[hi]), starts[hi] - starts[lo])
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _read_groups(fh, encoded: list[bytes], condensed: np.ndarray, trusted: bool) -> bool:
    """Read the rows of ``encoded`` from the start of ``fh`` into
    ``condensed``, in the groups of :func:`_id_groups`; ``False`` at the
    first group that is not what :func:`_sims_rows` renders, or with
    ``trusted``, at the first that fails the checks before that one."""
    fh.seek(0)
    for ids, pairs, size in _id_groups(encoded):
        block = fh.read(size)
        data = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(data == ord("\n"))
        # the writer's group holds one newline per pair, each after an 8-byte cell
        if len(block) != size or ends.size != pairs.stop - pairs.start or ends[0] < 8:
            return False
        cells = sliding_window_view(data, 8)[ends - 8]
        micros = (cells - np.uint8(ord("0"))) @ _MICROS  # any bytes decode, to >= 0; the re-rendering keeps only digits
        if micros.max() > 1_000_000:  # format_sims refuses a value above 1
            return False
        condensed[pairs] = micros / 1e6
        if not trusted and _sims_rows(encoded, ids, condensed[pairs]) != block:
            return False
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
    """``target<TAB>rank<TAB>candidate<TAB>sim`` lines, rank starting at 1,
    with every similarity formatted in one :func:`format_sims` call."""
    tails = iter(format_sims([sim for rec in recommendations for _, sim in rec.items]).astype("U10").tolist())
    return [
        f"{rec.target}\t{rank}\t{candidate}{next(tails)}"
        for rec in recommendations
        for rank, (candidate, _) in enumerate(rec.items, start=1)
    ]


def write_recommendations_tsv(path, recommendations) -> None:
    """:func:`recommendation_lines` of ``recommendations`` as a file."""
    atomic_write(path, recommendation_lines(recommendations))
