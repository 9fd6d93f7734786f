"""Friend recommendation: rank the most similar profiles within a cluster.

A target's candidates are the other members of its own cluster, ordered
by similarity descending, ties by id ascending, at most ``top_k`` of
them.  Both entry points rank a row of similarities from the target to
its cluster's members, with the members in id order, by one stable sort
on the negated similarities: :func:`recommend` gathers one such row,
:func:`recommend_all` gathers each cluster's float32 block of the matrix
once and ranks every member's row of it.
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


def _ranked(members: list[str], pos: int, row: np.ndarray, top_k: int) -> Recommendation:
    """The recommendation for ``members[pos]`` from ``row``, its float32
    similarities to every member of its cluster in id order."""
    order = np.argsort(-row, kind="stable")  # stable: equal similarities stay in id order
    order = order[order != pos][:top_k]
    return Recommendation(
        target=members[pos], items=tuple(zip([members[i] for i in order.tolist()], row[order].tolist()))
    )


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
    return _ranked(members, pos, matrix.block(idx[pos : pos + 1], idx)[0], top_k)


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
        block = matrix.block(idx, idx)
        for pos, pid in enumerate(members):
            recs[pid] = _ranked(members, pos, block[pos], top_k)
    return [recs[pid] for pid in matrix.ids]
