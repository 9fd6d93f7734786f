"""Friend recommendation: rank the most similar profiles within a cluster.

A target's candidates are the other members of its own cluster, ordered
by similarity descending, ties by id ascending, at most ``top_k`` of
them.  Both entry points rank rows of similarities from targets to their
cluster's members, with the members in id order, in one place
(:func:`_ranked`): one stable sort along the rows of the negated block.
:func:`recommend` gathers one such row, :func:`recommend_all` each
cluster's float32 block of the matrix, once.

The matrix may come from a ``sims.tsv`` read ``trusted``, without the
re-rendering, because the run had just matched its digest (see
:mod:`tagrec.artifacts`).  Its values are in [0, 1] either way, so every
candidate's negated similarity sorts before the target's own +inf cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tagrec.cluster import Clustering
from tagrec.errors import InputError, UnknownIdError
from tagrec.matcher import SimilarityMatrix


@dataclass(frozen=True)
class Recommendation:
    target: str
    items: tuple[tuple[str, float], ...]  # (candidate id, similarity), descending


def _check_top_k(top_k: int) -> None:
    if top_k < 1:
        raise InputError(f"top_k must be positive, got {top_k}")


def _in_id_order(members, matrix: SimilarityMatrix) -> tuple[list[str], np.ndarray]:
    """``members`` sorted by id, and their matrix indices."""
    members = sorted(members)
    return members, np.array([matrix.index(pid) for pid in members], dtype=np.intp)


def _ranked(members: list[str], positions, block: np.ndarray, top_k: int) -> list[Recommendation]:
    """The recommendations for ``members[p]`` for each ``p`` in
    ``positions``, from ``block``, whose rows hold those targets' float32
    similarities to every member of their cluster in id order.  ``block``
    is overwritten."""
    np.negative(block, out=block)
    block[np.arange(len(positions)), positions] = np.inf  # each target sorts after its candidates
    # stable, so ties stay in id order; the copy frees the rest of the sort
    order = np.argsort(block, axis=1, kind="stable")[:, : min(top_k, len(members) - 1)].copy()
    sims = np.negative(np.take_along_axis(block, order, axis=1))  # -(-0.0) is +0.0
    return [
        Recommendation(target=members[p], items=tuple(zip([members[i] for i in cands], values)))
        for p, cands, values in zip(positions, order.tolist(), sims.tolist())
    ]


def recommend(target: str, clustering: Clustering, matrix: SimilarityMatrix, top_k: int) -> Recommendation:
    """Top ``top_k`` candidates from the target's own cluster.

    Candidates are ordered by similarity descending, ties by id
    ascending; the target itself never appears.  Small clusters simply
    yield fewer results.
    """
    _check_top_k(top_k)
    if target not in clustering.assignment:
        raise UnknownIdError(f"unknown profile id {target!r}")
    cluster = clustering.assignment[target]
    members, idx = _in_id_order((pid for pid, c in clustering.assignment.items() if c == cluster), matrix)
    pos = members.index(target)
    return _ranked(members, [pos], matrix.block(idx[pos : pos + 1], idx), top_k)[0]


def recommend_all(clustering: Clustering, matrix: SimilarityMatrix, top_k: int) -> list[Recommendation]:
    """:func:`recommend` for every profile, in matrix id order.

    Each cluster's block of similarities is gathered once, so the work is
    the sum over clusters of size x size, not profiles x profiles.
    """
    _check_top_k(top_k)
    for pid in matrix.ids:
        if pid not in clustering.assignment:
            raise UnknownIdError(f"unknown profile id {pid!r}")
    clusters: list[list[str]] = [[] for _ in range(clustering.k)]
    for pid, c in clustering.assignment.items():
        clusters[c].append(pid)
    recs: dict[str, Recommendation] = {}
    for cluster in clusters:
        members, idx = _in_id_order(cluster, matrix)
        recs.update(zip(members, _ranked(members, range(len(members)), matrix.block(idx, idx), top_k)))
    return [recs[pid] for pid in matrix.ids]
