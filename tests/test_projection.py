"""Contrast spans, projection bundles, and degrees of freedom."""
import numpy as np
import pytest

from cluster_sieve.core import ClusterPartition, DataMatrix, DegenerateWithin
from cluster_sieve.projection import (
    PairSet,
    apply_PE,
    build_projection,
    contrast_vector,
)
from cluster_sieve.truncation import unknown_path


def part_of(labels, K):
    return ClusterPartition(np.asarray(labels), K)


class TestPairSet:
    def test_sorts_and_validates(self):
        ps = PairSet(((1, 2), (0, 1)), K=3)
        assert ps.pairs == ((0, 1), (1, 2))
        with pytest.raises(ValueError):
            PairSet((), K=3)
        with pytest.raises(ValueError):
            PairSet(((0, 0),), K=3)
        with pytest.raises(ValueError):
            PairSet(((0, 3),), K=3)
        with pytest.raises(ValueError):
            PairSet(((0, 1), (0, 1)), K=3)


class TestContrastVector:
    def test_frozen_small_case(self):
        part = part_of([0, 0, 1, 1, 2], 3)
        v = contrast_vector(part, 0, 1)
        np.testing.assert_allclose(v, [0.5, 0.5, -0.5, -0.5, 0.0])

    def test_inner_product_is_center_difference(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 4))
        part = part_of(rng.integers(0, 3, size=12), 3)
        if 0 in np.bincount(part.labels, minlength=3):
            pytest.skip("degenerate draw")
        v = contrast_vector(part, 0, 2)
        want = X[part.labels == 0].mean(0) - X[part.labels == 2].mean(0)
        np.testing.assert_allclose(X.T @ v, want, atol=1e-12)


class TestBuildProjection:
    def test_single_pair_rank_and_dfs(self):
        part = part_of([0, 0, 0, 1, 1, 2, 2, 2], 3)
        q = 4
        b = build_projection(part, PairSet(((0, 1),), 3), q)
        assert b.r == 1
        assert b.d == q
        # within-cluster dof over the two touched clusters: (3-1)+(2-1)
        assert b.d_star == q * 3
        assert b.touched == (0, 1)
        assert b.r_star == pytest.approx(b.d_star / b.d)

    def test_all_pairs_rank_is_K_minus_1(self):
        part = part_of([0, 0, 1, 1, 2, 2], 3)
        b = build_projection(part, PairSet(((0, 1), (0, 2), (1, 2)), 3), q=2)
        assert b.r == 2
        assert b.d == 4
        assert b.d_star == 2 * (6 - 3)

    def test_chain_pairs_span_equals_all_pairs_span(self):
        rng = np.random.default_rng(11)
        labels = np.repeat([0, 1, 2, 3], 4)
        part = part_of(labels, 4)
        X = rng.standard_normal((16, 3))
        all_pairs = [(k, kp) for k in range(4) for kp in range(k + 1, 4)]
        b_all = build_projection(part, PairSet(tuple(all_pairs), 4), q=3)
        b_chain = build_projection(part, PairSet(((0, 1), (1, 2), (2, 3)), 4), q=3)
        assert b_all.r == b_chain.r == 3
        np.testing.assert_allclose(
            apply_PE(b_all, X), apply_PE(b_chain, X), atol=1e-10
        )

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(5)
        part = part_of(rng.integers(0, 3, size=15), 3)
        if 0 in np.bincount(part.labels, minlength=3):
            pytest.skip("degenerate draw")
        X = rng.standard_normal((15, 2))
        b = build_projection(part, PairSet(((0, 2),), 3), q=2)
        once = apply_PE(b, X)
        np.testing.assert_allclose(apply_PE(b, once), once, atol=1e-12)

    def test_basis_is_orthonormal(self):
        part = part_of([0, 0, 1, 1, 2, 2, 2], 3)
        b = build_projection(part, PairSet(((0, 1), (1, 2)), 3), q=2)
        gram = b.basis_E.T @ b.basis_E
        np.testing.assert_allclose(gram, np.eye(b.r), atol=1e-12)

    def test_all_singletons_raise_degenerate_within(self):
        # d* = 0 leaves the chi test defined; only the F test's path,
        # which needs within-cluster spread, raises
        part = part_of([0, 1, 2], 3)
        b = build_projection(part, PairSet(((0, 1),), 3), q=2)
        assert (b.d, b.d_star, b.r_star) == (2, 0, 0.0)
        X = DataMatrix(np.arange(6.0).reshape(3, 2))
        with pytest.raises(DegenerateWithin):
            unknown_path(X, part, b)

    def test_K_mismatch_rejected(self):
        part = part_of([0, 0, 1, 1], 2)
        with pytest.raises(ValueError):
            build_projection(part, PairSet(((0, 1),), 3), q=1)
