"""Contrast vectors between cluster pairs and the projections built on them.

A pair (k, k') of clusters defines a contrast vector whose inner
products with the data columns give the difference of the two cluster
centers. The span of the contrast vectors of all pairs under test
carries the between-cluster signal; its orthogonal basis defines the
projection used by every statistic, and two further projections split
the remainder into within-cluster variation (over the clusters under
test) and everything else.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ClusterPartition

if TYPE_CHECKING:
    from .selection import SelectionRule


@dataclass(frozen=True)
class PairSet:
    """The set of cluster-index pairs under test, with the rule that
    produced it. Pairs are (k, k') with k < k', 0-based, kept sorted."""

    pairs: tuple[tuple[int, int], ...]
    K: int
    rule: "SelectionRule | None" = None

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise ValueError("a pair set cannot be empty")
        seen = set()
        norm = []
        for k, kp in self.pairs:
            k, kp = int(k), int(kp)
            if not (0 <= k < kp < self.K):
                raise ValueError(f"bad pair ({k}, {kp}) for K={self.K}")
            if (k, kp) in seen:
                raise ValueError(f"duplicate pair ({k}, {kp})")
            seen.add((k, kp))
            norm.append((k, kp))
        object.__setattr__(self, "pairs", tuple(sorted(norm)))

    @classmethod
    def all_pairs(cls, K: int, rule: "SelectionRule | None" = None) -> "PairSet":
        return cls(tuple((k, kp) for k in range(K) for kp in range(k + 1, K)), K, rule)

    @property
    def touched(self) -> tuple[int, ...]:
        """Sorted cluster indices appearing in some pair."""
        return tuple(sorted({k for pair in self.pairs for k in pair}))

    def is_complete(self) -> bool:
        return len(self.pairs) == self.K * (self.K - 1) // 2


@dataclass(frozen=True)
class ProjectionBundle:
    """Orthonormal basis of the contrast span plus the derived counts.

    basis_E: n x r orthonormal matrix spanning the contrast span.
    d = q * r is the numerator degrees of freedom. d_star counts the
    within-cluster degrees of freedom over the touched clusters.
    """

    basis_E: np.ndarray
    r: int
    touched: tuple[int, ...]
    d: int
    d_star: int
    r_star: float

    def __post_init__(self):
        b = np.asarray(self.basis_E, dtype=float).copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis_E", b)


def contrast_vector(part: ClusterPartition, k: int, kp: int) -> np.ndarray:
    """The n-vector with 1/|C_k| on cluster k, -1/|C_k'| on cluster k',
    zero elsewhere. X^T v is the difference of the two cluster centers."""
    if k == kp:
        raise ValueError("a contrast needs two distinct clusters")
    v = np.zeros(part.n)
    v[part.labels == k] = 1.0 / part.sizes[k]
    v[part.labels == kp] = -1.0 / part.sizes[kp]
    return v


def build_projection(part: ClusterPartition, V: PairSet, q: int) -> ProjectionBundle:
    """Orthonormal basis of span{v_(k,k') : (k,k') in V} and the counts
    derived from it.

    When V contains every pair, the chain contrasts v_(k,k+1) are a
    basis of the span with rank exactly K-1, so they are orthonormalized
    directly. Otherwise the rank comes from an SVD of the stacked
    contrasts, dropping singular values below
    max(n, |V|) * machine epsilon * (largest singular value).

    When every touched cluster is a singleton, d* and r* are 0: the
    chi test needs no within-cluster spread, and the F test refuses
    such a bundle (unknown_path raises DegenerateWithin).
    """
    if V.K != part.K:
        raise ValueError("pair set and partition disagree on K")
    n = part.n
    if V.is_complete():
        chain = np.column_stack(
            [contrast_vector(part, k, k + 1) for k in range(part.K - 1)]
        )
        basis, _ = np.linalg.qr(chain)
        r = part.K - 1
    else:
        stacked = np.column_stack([contrast_vector(part, k, kp) for k, kp in V.pairs])
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        cutoff = max(n, len(V.pairs)) * np.finfo(float).eps * s[0]
        r = int(np.sum(s > cutoff))
        basis = u[:, :r]
    touched = V.touched
    d = q * r
    d_star = q * int(sum(part.sizes[k] for k in touched) - len(touched))
    r_star = d_star / d
    return ProjectionBundle(
        basis_E=basis, r=r, touched=touched, d=d, d_star=d_star, r_star=r_star
    )


def apply_PE(bundle: ProjectionBundle, A: np.ndarray) -> np.ndarray:
    """Project the columns of A onto the contrast span."""
    b = bundle.basis_E
    return b @ (b.T @ A)


def apply_P1(part: ClusterPartition, touched: tuple[int, ...], A: np.ndarray) -> np.ndarray:
    """Within-cluster centering over the touched clusters: row i becomes
    A_i minus its cluster mean if i's cluster is touched, else zero."""
    out = np.zeros_like(A, dtype=float)
    for k in touched:
        rows = part.labels == k
        out[rows] = A[rows] - A[rows].mean(axis=0)
    return out

