"""Contrast spans, projection bundles, and degrees of freedom: the
closed form from cluster means against an orthonormal basis of the
contrast vectors (tests/oracles.py)."""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cluster_sieve.core import ClusterPartition, DataMatrix, DegenerateWithin
from cluster_sieve.projection import PairSet, build_projection, split
from cluster_sieve.truncation import unknown_path

from oracles import contrast_basis, contrast_vector, reference_split


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
            split(b_all, X)[0], split(b_chain, X)[0], atol=1e-10
        )

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(5)
        part = part_of(rng.integers(0, 3, size=15), 3)
        if 0 in np.bincount(part.labels, minlength=3):
            pytest.skip("degenerate draw")
        X = rng.standard_normal((15, 2))
        b = build_projection(part, PairSet(((0, 2),), 3), q=2)
        once = split(b, X)[0]
        np.testing.assert_allclose(split(b, once)[0], once, atol=1e-12)

    def test_basis_is_orthonormal(self):
        # the reference basis is orthonormal, of the bundle's rank, and
        # the between part is the projection onto it
        part = part_of([0, 0, 1, 1, 2, 2, 2], 3)
        V = PairSet(((0, 1), (1, 2)), 3)
        b = build_projection(part, V, q=2)
        basis = contrast_basis(part, V.pairs)
        np.testing.assert_allclose(basis.T @ basis, np.eye(b.r), atol=1e-12)
        X = np.random.default_rng(4).standard_normal((7, 2))
        np.testing.assert_allclose(split(b, X)[0], basis @ (basis.T @ X), atol=1e-12)

    def test_disconnected_pairs_count_their_components(self):
        part = part_of([0, 0, 1, 1, 2, 3, 3, 4, 4, 5], 6)
        b = build_projection(part, PairSet(((0, 1), (3, 4), (4, 5)), 6), q=2)
        assert b.component.tolist() == [0, 0, -1, 1, 1, 1]
        assert (b.r, b.d, b.touched) == (3, 6, (0, 1, 3, 4, 5))
        assert b.d_star == 2 * (9 - 5)

    def test_all_singletons_raise_degenerate_within(self):
        # d* = 0 leaves the chi test defined; only the F test's path,
        # which needs within-cluster spread, raises
        part = part_of([0, 1, 2], 3)
        b = build_projection(part, PairSet(((0, 1),), 3), q=2)
        assert (b.d, b.d_star, b.r_star) == (2, 0, 0.0)
        X = DataMatrix(np.arange(6.0).reshape(3, 2))
        with pytest.raises(DegenerateWithin):
            unknown_path(X, b)

    def test_K_mismatch_rejected(self):
        part = part_of([0, 0, 1, 1], 2)
        with pytest.raises(ValueError):
            build_projection(part, PairSet(((0, 1),), 3), q=1)


# derandomize: every run draws the same examples, so the suite stays
# deterministic; explore fresh draws by running with derandomize=False.
SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
SHAPES = ("single", "chain", "star", "all", "disconnected")


@st.composite
def split_cases(draw):
    """A partition with every cluster nonempty (K may equal n, making
    singletons), a pair set of one of SHAPES over some of its clusters
    (the rest untested), and data at a drawn scale and offset, with
    duplicated rows on request."""
    shape = draw(st.sampled_from(SHAPES))
    least = 4 if shape == "disconnected" else 2
    K = draw(st.integers(least, 7))
    n = draw(st.integers(K, K + 10))
    q = draw(st.integers(1, 3))
    m = draw(st.integers(least, K))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(K), rng.integers(0, K, n - K)])
    rng.shuffle(labels)
    used = [int(k) for k in rng.permutation(K)[:m]]
    if shape == "single":
        pairs = [used[:2]]
    elif shape == "chain":
        pairs = list(zip(used, used[1:]))
    elif shape == "star":
        pairs = [(used[0], k) for k in used[1:]]
    elif shape == "all":
        pairs = list(combinations(used, 2))
    else:
        h = m // 2
        pairs = list(zip(used[:h], used[1:h])) + list(zip(used[h:], used[h + 1:]))
    V = PairSet(tuple((min(p), max(p)) for p in pairs), K)
    scale = 10.0 ** draw(st.integers(-3, 6))
    offset = 10.0 ** draw(st.integers(-3, 6)) * draw(st.sampled_from([0.0, 1.0]))
    A = offset + scale * rng.standard_normal((n, q))
    if draw(st.booleans()):
        A[rng.integers(0, n, n // 2)] = A[0]
    return ClusterPartition(labels, K), V, A


class TestSplitAgainstReference:
    @SETTINGS
    @given(split_cases())
    def test_parts_and_counts_match_the_contrast_basis(self, case):
        part, V, A = case
        b = build_projection(part, V, A.shape[1])
        between, within = split(b, A)
        want_between, want_within = reference_split(part, V.pairs, A)
        tol = 1e-12 * float(np.linalg.norm(A, axis=1).max())
        np.testing.assert_allclose(between, want_between, rtol=0, atol=tol)
        np.testing.assert_allclose(within, want_within, rtol=0, atol=tol)
        q = A.shape[1]
        r = contrast_basis(part, V.pairs).shape[1]
        tested = sorted({k for pair in V.pairs for k in pair})
        assert (b.r, b.d) == (r, q * r)
        assert b.d_star == q * (int(part.sizes[tested].sum()) - len(tested))
