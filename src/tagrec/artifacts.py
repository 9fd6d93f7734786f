"""Pipeline artifact IO: atomic TSV writes, hashing, metadata sidecars.

Every stage output is written through a temp file + rename so interrupted
runs never leave a corrupt artifact, and is accompanied by a
``<name>.meta.json`` sidecar recording parameters, input hashes, and the
output hash.  A stage is considered cached when its sidecar still matches
the current inputs and parameters.

``sims.tsv`` holds one row per pair in the matrix's storage order,
``(ids[0], ids[1]), (ids[0], ids[2]), ..., (ids[n-2], ids[n-1])``; its
reader accepts that order only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from array import array
from pathlib import Path

import numpy as np

from tagrec.cluster import Clustering
from tagrec.errors import ParseError
from tagrec.matcher import SimilarityMatrix
from tagrec.profiles import Profile
from tagrec.tsv import read_rows

SIM_FORMAT = "{:.6f}"


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tsv(path, rows) -> None:
    atomic_write_text(path, "".join("\t".join(str(f) for f in row) + "\n" for row in rows))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sidecar_path(artifact_path) -> Path:
    return Path(str(artifact_path) + ".meta.json")


def write_sidecar(artifact_path, stage: str, params: dict, inputs: dict, elapsed: float) -> None:
    meta = {
        "stage": stage,
        "params": params,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in inputs.items()},
        "output_sha256": sha256_file(artifact_path),
        "elapsed_seconds": round(elapsed, 3),
    }
    atomic_write_text(sidecar_path(artifact_path), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def stage_is_cached(artifact_path, stage: str, params: dict, inputs: dict) -> bool:
    artifact_path = Path(artifact_path)
    meta_path = sidecar_path(artifact_path)
    if not artifact_path.exists() or not meta_path.exists():
        return False
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return False
    if meta.get("stage") != stage or meta.get("params") != params:
        return False
    recorded = meta.get("inputs", {})
    if set(recorded) != set(inputs):
        return False
    for name, p in inputs.items():
        if not Path(p).exists() or recorded[name].get("sha256") != sha256_file(p):
            return False
    return meta.get("output_sha256") == sha256_file(artifact_path)


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
    """``id_i<TAB>id_j<TAB>sim`` for i < j, fixed 6-decimal formatting."""
    write_tsv(path, ((a, b, SIM_FORMAT.format(s)) for a, b, s in matrix.iter_pairs()))


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
    return Clustering(k=k, medoids=tuple(medoids[c] for c in range(k)), assignment=assignment)


def write_recommendations_tsv(path, recommendations) -> None:
    """``target<TAB>rank<TAB>candidate<TAB>sim`` rows, rank starting at 1."""

    def rows():
        for rec in recommendations:
            for rank, (candidate, sim) in enumerate(rec.items, start=1):
                yield rec.target, rank, candidate, SIM_FORMAT.format(sim)

    write_tsv(path, rows())
