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
``ids[i]`` block of rows as one chunk.

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


def read_sims_tsv(path) -> SimilarityMatrix:
    """Rebuild a :class:`SimilarityMatrix` from its TSV in one streaming pass.

    Rows must come in storage order, the order of
    ``itertools.combinations(ids, 2)`` that :func:`write_sims_tsv` emits.
    The first id's rows name the ids; every later row must be the next
    pair of that order, so a missing, repeated, swapped, self or extra pair
    fails at the first row out of place.  Values go straight into a float32
    buffer, with no Python object kept per row.
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
