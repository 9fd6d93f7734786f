"""k-medoids clustering properties and oracles."""

import itertools

import numpy as np
import pytest

from tagrec.cluster import cluster_histogram, k_medoids
from tagrec.errors import InputError
from tagrec.matcher import SimilarityMatrix

from conftest import BLOB_OF, square, two_blob_matrix


def random_matrix(rng, n) -> SimilarityMatrix:
    condensed = rng.random(n * (n - 1) // 2).astype(np.float32)
    return SimilarityMatrix([f"p{i}" for i in range(n)], condensed)


def distances(matrix) -> np.ndarray:
    """The dense float64 N x N matrix of 1 - similarity."""
    return 1.0 - square(matrix).astype(np.float64)


def assignment_cost(matrix, medoid_indices) -> float:
    return float(distances(matrix)[:, list(medoid_indices)].min(axis=1).sum())


def brute_force_optimum(matrix, k) -> float:
    return min(
        assignment_cost(matrix, medoids)
        for medoids in itertools.combinations(range(matrix.n), k)
    )


class TestBasics:
    def test_k_equals_n(self, blob_matrix):
        clustering = k_medoids(blob_matrix, k=6, seed=0)
        assert set(clustering.medoids) == set(blob_matrix.ids)
        assert clustering.cost == 0.0
        assert sorted(clustering.assignment.values()) == list(range(6))

    def test_k_one_matches_brute_force(self, blob_matrix):
        clustering = k_medoids(blob_matrix, k=1, seed=3)
        best = min((float(column.sum()), m) for m, column in enumerate(distances(blob_matrix).T))
        assert clustering.cost == pytest.approx(best[0])
        assert set(clustering.assignment.values()) == {0}

    def test_k_out_of_range(self, blob_matrix):
        with pytest.raises(InputError):
            k_medoids(blob_matrix, k=0, seed=1)
        with pytest.raises(InputError):
            k_medoids(blob_matrix, k=7, seed=1)

    def test_medoids_are_dataset_members(self, blob_matrix):
        clustering = k_medoids(blob_matrix, k=3, seed=9)
        assert set(clustering.medoids) <= set(blob_matrix.ids)

    def test_medoid_assigned_to_own_cluster(self):
        rng = np.random.default_rng(11)
        matrix = random_matrix(rng, 7)
        clustering = k_medoids(matrix, k=3, seed=5)
        for c, medoid in enumerate(clustering.medoids):
            assert clustering.assignment[medoid] == c

    def test_every_cluster_non_empty(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            matrix = random_matrix(rng, 8)
            clustering = k_medoids(matrix, k=3, seed=seed)
            sizes = [size for _, size in cluster_histogram(clustering)]
            assert all(size >= 1 for size in sizes)
            assert sum(sizes) == 8


class TestTwoBlob:
    @pytest.mark.parametrize("seed", range(12))
    def test_blocks_recovered_for_every_seed(self, seed):
        matrix = two_blob_matrix()
        clustering = k_medoids(matrix, k=2, seed=seed)
        by_cluster = {}
        for pid, c in clustering.assignment.items():
            by_cluster.setdefault(c, set()).add(BLOB_OF[pid])
        assert all(len(blobs) == 1 for blobs in by_cluster.values())

    def test_matches_exhaustive_medoid_search(self):
        matrix = two_blob_matrix()
        clustering = k_medoids(matrix, k=2, seed=0)
        assert clustering.cost == pytest.approx(brute_force_optimum(matrix, 2))

    def test_histogram(self):
        matrix = two_blob_matrix()
        clustering = k_medoids(matrix, k=2, seed=0)
        assert sorted(size for _, size in cluster_histogram(clustering)) == [3, 3]


class TestProperties:
    def test_cost_trace_non_increasing(self):
        rng = np.random.default_rng(77)
        for seed in range(20):
            matrix = random_matrix(rng, 8)
            clustering = k_medoids(matrix, k=3, seed=seed)
            trace = clustering.cost_trace
            assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_fixed_point_after_convergence(self):
        rng = np.random.default_rng(123)
        matrix = random_matrix(rng, 8)
        clustering = k_medoids(matrix, k=3, seed=4, max_iter=100)
        medoid_idx = [matrix.index(m) for m in clustering.medoids]
        assign = np.argmin(distances(matrix)[:, medoid_idx], axis=1)
        for c, m in enumerate(medoid_idx):
            assign[m] = c
        for i, pid in enumerate(matrix.ids):
            assert clustering.assignment[pid] == int(assign[i])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        matrix = random_matrix(rng, 8)
        a = k_medoids(matrix, k=3, seed=21)
        b = k_medoids(matrix, k=3, seed=21)
        assert a == b

    def test_nearest_medoid_with_lowest_index_ties(self):
        # all points equidistant: everything joins cluster 0's medoid
        ids = ["a", "b", "c", "d"]
        condensed = np.full(6, 0.5, dtype=np.float32)
        matrix = SimilarityMatrix(ids, condensed)
        clustering = k_medoids(matrix, k=2, seed=1)
        non_medoids = set(ids) - set(clustering.medoids)
        for pid in non_medoids:
            assert clustering.assignment[pid] == 0

    def test_small_instance_optimality_gap(self):
        rng = np.random.default_rng(20240812)
        for trial in range(50):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            matrix = random_matrix(rng, n)
            optimum = brute_force_optimum(matrix, k)
            costs = [k_medoids(matrix, k=k, seed=seed).cost for seed in range(10)]
            assert all(c >= optimum - 1e-9 for c in costs), trial
            assert min(costs) <= optimum + 1e-9, trial


class TestHistogram:
    def test_singletons(self, blob_matrix):
        clustering = k_medoids(blob_matrix, k=6, seed=0)
        assert cluster_histogram(clustering) == [(i, 1) for i in range(6)]

    def test_single_cluster(self, blob_matrix):
        clustering = k_medoids(blob_matrix, k=1, seed=0)
        assert cluster_histogram(clustering) == [(0, 6)]
