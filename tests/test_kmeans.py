"""Traced Lloyd iterations and the replay oracle."""
import numpy as np
import pytest

from cluster_sieve.core import DataMatrix, DegenerateClustering
from cluster_sieve.kmeans import (
    KMeansConfig,
    KMeansTrace,
    cluster_sums,
    replay_matches,
    run_kmeans,
    step_centroids,
)

from conftest import blocked_means, gauss_data


def two_blobs(seed=0, n=20, q=2, sep=10.0):
    mu = blocked_means(n, q, np.array([[0.0, 0.0], [sep, 0.0]]))
    return gauss_data(seed, n, q, mu=mu, sigma=0.5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            KMeansConfig(K=1)
        with pytest.raises(ValueError):
            KMeansConfig(K=2, max_iter=0)
        with pytest.raises(ValueError):
            KMeansConfig(K=3, init_indices=(0, 1))
        with pytest.raises(ValueError):
            KMeansConfig(K=2, init_indices=(0, 0))


class TestRunKMeans:
    def test_separated_blobs_recovered(self):
        X = two_blobs()
        trace = run_kmeans(X, KMeansConfig(K=2, seed=3))
        part = trace.final_partition()
        assert trace.converged
        first, second = part.labels[:10], part.labels[10:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_step0_assigns_to_nearest_init_row(self):
        # four points on a line; init centers rows 0 and 3
        X = DataMatrix(np.array([[0.0], [1.0], [5.0], [6.0]]))
        trace = run_kmeans(X, KMeansConfig(K=2, init_indices=(0, 3)))
        assert trace.assignments[0].tolist() == [0, 0, 1, 1]

    def test_trace_shape_and_convergence_means_fixed_point(self):
        X = two_blobs(seed=5)
        trace = run_kmeans(X, KMeansConfig(K=2, seed=1))
        assert trace.assignments.shape == (trace.J + 1, X.n)
        assert np.array_equal(trace.assignments[-1], trace.assignments[-2])

    def test_same_seed_same_trace(self):
        X = two_blobs(seed=9)
        a = run_kmeans(X, KMeansConfig(K=2, seed=4))
        b = run_kmeans(X, KMeansConfig(K=2, seed=4))
        assert a.init_indices == b.init_indices
        assert np.array_equal(a.assignments, b.assignments)

    def test_degenerate_initial_assignment_raises(self):
        # duplicate init rows: every point prefers the lower index
        X = DataMatrix(np.array([[0.0], [0.0], [10.0]]))
        with pytest.raises(DegenerateClustering):
            run_kmeans(X, KMeansConfig(K=2, init_indices=(0, 1)))

    def test_k_larger_than_n_rejected(self):
        X = DataMatrix(np.zeros((3, 2)) + np.arange(3)[:, None])
        with pytest.raises(ValueError):
            run_kmeans(X, KMeansConfig(K=4, seed=0))


class TestCentroids:
    def test_step_centroids_match_group_mean(self):
        X = two_blobs(seed=2)
        trace = run_kmeans(X, KMeansConfig(K=2, seed=0))
        got = step_centroids(X.values, trace, 1)
        for l in range(2):
            mask = trace.assignments[0] == l
            np.testing.assert_allclose(got[l], X.values[mask].mean(axis=0))

    @pytest.mark.parametrize("n, q, K", [(3000, 10, 5), (400, 10, 8), (60, 2, 3)])
    def test_cluster_sums_equal_add_at_exactly(self, n, q, K):
        rng = np.random.default_rng(n + q + K)
        values = rng.standard_normal((n, q)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        labels = rng.integers(0, K, size=n)
        want = np.zeros((K, q))
        np.add.at(want, labels, values)
        np.testing.assert_array_equal(cluster_sums(values, labels, K), want)
        # labels that no row carries sum to zero
        one = cluster_sums(values[:1], labels[:1], K)
        np.testing.assert_array_equal(one[labels[0]], values[0])
        assert np.count_nonzero(one) == np.count_nonzero(values[0])

    def test_step0_centroids_are_init_rows(self):
        X = two_blobs(seed=2)
        trace = run_kmeans(X, KMeansConfig(K=2, seed=0))
        got = step_centroids(X.values, trace, 0)
        np.testing.assert_array_equal(got, X.values[list(trace.init_indices)])


class TestReplay:
    def test_original_data_always_matches(self):
        for seed in range(5):
            X = gauss_data(seed, 16, 2)
            try:
                trace = run_kmeans(X, KMeansConfig(K=3, seed=seed))
            except DegenerateClustering:
                continue
            assert replay_matches(X, trace)

    def test_large_perturbation_breaks_the_match(self):
        X = two_blobs(seed=1)
        trace = run_kmeans(X, KMeansConfig(K=2, seed=0))
        moved = X.values.copy()
        moved[0] = [100.0, 100.0]
        assert not replay_matches(DataMatrix(moved), trace)

    def test_row_count_mismatch_rejected(self):
        X = two_blobs(seed=1)
        trace = run_kmeans(X, KMeansConfig(K=2, seed=0))
        with pytest.raises(ValueError):
            replay_matches(DataMatrix(X.values[:-1]), trace)
