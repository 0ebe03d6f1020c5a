"""The tested pairs' contrast span, and the parts of the data it splits off.

The contrast of clusters (k, k') is 1/|C_k| on the rows of k, -1/|C_k'|
on those of k' and zero elsewhere. The tested pairs link clusters into
connected components, and over the rows of a component C the span of
their contrasts holds exactly the vectors constant on each cluster of C
that sum to zero. So a row of a tested cluster k projects onto the span
as mean_k - mean_C, its within-cluster part is the row less mean_k, both
are zero for untested clusters, and the rank is the exact count
(tested clusters) - (components).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ClusterPartition
from .kmeans import cluster_sums

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

    @property
    def touched(self) -> tuple[int, ...]:
        """Sorted cluster indices appearing in some pair."""
        return tuple(sorted({k for pair in self.pairs for k in pair}))


@dataclass(frozen=True)
class ProjectionBundle:
    """The contrast span of the tested pairs, as the partition and each
    cluster's component in the graph of the pairs (-1 when untested),
    with its rank r, the numerator degrees of freedom d = q * r, and the
    within-cluster degrees of freedom d_star = q * (rows - number) of the
    touched clusters."""

    part: ClusterPartition
    component: np.ndarray
    touched: tuple[int, ...]
    r: int
    d: int
    d_star: int
    r_star: float

    def __post_init__(self):
        c = np.asarray(self.component, dtype=int).copy()
        c.setflags(write=False)
        object.__setattr__(self, "component", c)


def build_projection(part: ClusterPartition, V: PairSet, q: int) -> ProjectionBundle:
    """The components of the graph of V's pairs and the counts of their
    contrast span. When every touched cluster is a singleton, d* and r*
    are 0: the chi test needs no within-cluster spread, and the F test
    refuses such a bundle (unknown_path raises DegenerateWithin)."""
    if V.K != part.K:
        raise ValueError("pair set and partition disagree on K")
    label = np.arange(part.K)
    for k, kp in V.pairs:
        # k's component absorbs kp's
        label[label == label[kp]] = label[k]
    touched = V.touched
    idx = list(touched)
    component = np.full(part.K, -1)
    # number the components 0, 1, ... by their surviving labels
    _, component[idx] = np.unique(label[idx], return_inverse=True)
    r = len(touched) - (int(component.max()) + 1)
    d_star = q * (int(part.sizes[idx].sum()) - len(touched))
    return ProjectionBundle(part, component, touched, r, q * r, d_star, d_star / (q * r))


def split(bundle: ProjectionBundle, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projection of the columns of A (n x q) onto the contrast span,
    and their within-cluster centering over the touched clusters: row i
    of cluster k becomes mean_k - mean_C and A_i - mean_k, C being k's
    component, and is zero in both when k is untested."""
    part, comp = bundle.part, bundle.component
    tested = comp >= 0
    sums = cluster_sums(A, part.labels, part.K)
    means = np.where(tested[:, None], sums / part.sizes[:, None], 0.0)
    comp_sums = cluster_sums(sums[tested], comp[tested], int(comp.max()) + 1)
    comp_sizes = np.bincount(comp[tested], weights=part.sizes[tested])
    grand = np.zeros_like(means)
    grand[tested] = (comp_sums / comp_sizes[:, None])[comp[tested]]
    row_tested = tested[part.labels][:, None]
    between = (means - grand)[part.labels]
    within = np.where(row_tested, A - means[part.labels], 0.0)
    return between, within
