"""Batch ranking against a literal per-target sort."""

import numpy as np
import pytest

from tagrec.cluster import Clustering
from tagrec.matcher import SimilarityMatrix
from tagrec.recommend import Recommendation, recommend, recommend_all


def sorted_per_target(clustering: Clustering, matrix: SimilarityMatrix, top_k: int) -> list[Recommendation]:
    """Each target's cluster mates, sorted by (-similarity, id), cut to top_k."""
    recs = []
    for target in matrix.ids:
        cluster = clustering.assignment[target]
        scored = [
            (candidate, matrix.sim(matrix.index(target), matrix.index(candidate)))
            for candidate, c in clustering.assignment.items()
            if c == cluster and candidate != target
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        recs.append(Recommendation(target=target, items=tuple(scored[:top_k])))
    return recs


def random_case(seed: int, n: int, k: int, levels: int):
    """Shuffled ids (matrix order is not id order), similarities quantised
    to ``levels`` values so ties are common, a random assignment in which
    the last cluster is a singleton."""
    rng = np.random.default_rng(seed)
    ids = [f"p{i:03d}" for i in rng.permutation(n)]
    condensed = (rng.integers(0, levels, n * (n - 1) // 2) / (levels - 1)).astype(np.float32)
    matrix = SimilarityMatrix(ids, condensed)
    clusters = np.concatenate([rng.integers(0, k - 1, n - 1), [k - 1]])
    rng.shuffle(clusters)
    assignment = {pid: int(c) for pid, c in zip(ids, clusters)}
    medoids = tuple(next(pid for pid in ids if assignment[pid] == c) for c in range(k))
    return matrix, Clustering(k=k, medoids=medoids, assignment=assignment)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("top_k", [1, 3, 100])
def test_recommend_all_equals_sorted_per_target(seed, top_k):
    matrix, clustering = random_case(seed, n=40, k=4 + seed % 3, levels=2 + seed % 4)
    expected = sorted_per_target(clustering, matrix, top_k)
    assert recommend_all(clustering, matrix, top_k) == expected
    assert [recommend(pid, clustering, matrix, top_k) for pid in matrix.ids] == expected
    sizes = np.bincount(list(clustering.assignment.values()))
    assert sizes.min() == 1  # a singleton cluster gets no candidates
    if top_k == 100:  # larger than every cluster: all mates are listed
        assert all(len(rec.items) == sizes[clustering.assignment[rec.target]] - 1 for rec in expected)


def test_one_profile():
    matrix = SimilarityMatrix(["solo"], np.zeros(0, dtype=np.float32))
    clustering = Clustering(k=1, medoids=("solo",), assignment={"solo": 0})
    assert recommend_all(clustering, matrix, 5) == [Recommendation(target="solo", items=())]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("top_k", [1, 2, 5, 12])
def test_one_target_and_whole_clusters_rank_alike(seed, top_k):
    # three levels, so most candidates tie; clusters of sizes 1, 2 and up to
    # 12, so top_k reaches and passes the cluster size
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 1, 2, 5, 12]
    ids = [f"q{i:02d}" for i in rng.permutation(sum(sizes))]
    condensed = (rng.integers(0, 3, len(ids) * (len(ids) - 1) // 2) / 2).astype(np.float32)
    matrix = SimilarityMatrix(ids, condensed)
    clusters = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    assignment = {pid: int(c) for pid, c in zip(ids, clusters)}
    medoids = tuple(next(pid for pid in ids if assignment[pid] == c) for c in range(len(sizes)))
    clustering = Clustering(k=len(sizes), medoids=medoids, assignment=assignment)
    recs = recommend_all(clustering, matrix, top_k)
    assert recs == [recommend(pid, clustering, matrix, top_k) for pid in ids]
    assert recs == sorted_per_target(clustering, matrix, top_k)
    for rec in recs:
        assert len(rec.items) == min(top_k, sizes[assignment[rec.target]] - 1)
    sims = [sim for rec in recs for _, sim in rec.items]
    assert not any(np.signbit(sims))  # a zero similarity comes back as +0.0
    assert top_k < 12 or 0.0 in sims
