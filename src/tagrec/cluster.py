"""Alternating k-medoids over a precomputed similarity matrix.

Distance is 1 - similarity.  The algorithm alternates nearest-medoid
assignment with per-cluster medoid re-selection until the medoid set
stabilizes; both steps only ever lower the total cost, so the recorded
cost trace is non-increasing.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np

from tagrec.errors import InputError
from tagrec.matcher import SimilarityMatrix

logger = logging.getLogger(__name__)

DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class Clustering:
    k: int
    medoids: tuple[str, ...]  # medoid id per cluster index
    assignment: dict[str, int]  # profile id -> cluster index
    # None when read back from clusters.tsv, which does not record them
    cost: float | None = None
    seed: int | None = None
    iterations: int | None = None
    cost_trace: tuple[float, ...] = ()

    def members(self, cluster: int) -> list[str]:
        return [pid for pid, c in self.assignment.items() if c == cluster]


def _assign(matrix: SimilarityMatrix, medoid_idx: list[int]) -> tuple[np.ndarray, float]:
    """Nearest-medoid assignment; medoids always claim themselves.

    Ties go to the lowest cluster index (numpy argmin keeps the first
    minimum).
    """
    columns = np.stack([matrix.distances_to(m) for m in medoid_idx], axis=1)
    assign = np.argmin(columns, axis=1)
    for c, m in enumerate(medoid_idx):
        assign[m] = c
    cost = float(columns[np.arange(matrix.n), assign].sum())
    return assign, cost


def k_medoids(
    matrix: SimilarityMatrix,
    k: int,
    seed: int,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Clustering:
    """Partition the matrix's profiles into ``k`` clusters.

    Initial medoids are drawn uniformly without replacement from the
    profile set using ``seed``; identical inputs always produce an
    identical clustering.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise InputError(f"max_iter must be positive, got {max_iter}")

    rng = random.Random(seed)
    medoid_idx = sorted(rng.sample(range(n), k))

    assign, cost = _assign(matrix, medoid_idx)
    trace = [cost]
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        new_medoids = list(medoid_idx)
        for c in range(k):
            members = np.flatnonzero(assign == c)
            dist = matrix.pairwise_distances(members)
            new_medoids[c] = int(members[int(np.argmin(dist.sum(axis=0)))])
        if new_medoids == medoid_idx:
            break
        medoid_idx = new_medoids
        assign, cost = _assign(matrix, medoid_idx)
        trace.append(cost)

    assignment = {matrix.ids[i]: int(assign[i]) for i in range(n)}
    clustering = Clustering(
        k=k,
        medoids=tuple(matrix.ids[m] for m in medoid_idx),
        assignment=assignment,
        cost=trace[-1],
        seed=seed,
        iterations=iterations,
        cost_trace=tuple(trace),
    )
    logger.info("k-medoids: k=%d converged after %d iterations, cost %.4f", k, iterations, clustering.cost)
    return clustering


def cluster_histogram(clustering: Clustering) -> list[tuple[int, int]]:
    """Cluster sizes as ``(cluster index, size)`` rows in index order."""
    sizes = [0] * clustering.k
    for c in clustering.assignment.values():
        sizes[c] += 1
    return list(enumerate(sizes))
