"""Rules that choose which cluster pairs to test.

All data-dependent rules look at the data only through the l2 distances
between cluster centers, i.e. through ||A^T v|| for the contrast vector
v of each pair. The same function that selects pairs on the observed
data is reused by the truncation oracles to replay the selection on
perturbed matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClusterPartition, DataMatrix, EmptySelection
from .kmeans import cluster_sums
from .projection import PairSet

_RANK_KINDS = ("top", "bottom")
_THRESHOLD_KINDS = ("below", "above")
KINDS = ("fixed",) + _RANK_KINDS + _THRESHOLD_KINDS


@dataclass(frozen=True)
class SelectionRule:
    """One of: a fixed pair list, the g most / least separated pairs, or
    the pairs whose center distance is below / above a threshold."""

    kind: str
    pairs: tuple[tuple[int, int], ...] | None = None
    g: int | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if self.kind == "fixed":
            if not self.pairs:
                raise ValueError("a fixed rule needs at least one pair")
            norm = []
            for k, kp in self.pairs:
                k, kp = int(k), int(kp)
                if k == kp:
                    raise ValueError("a pair needs two distinct clusters")
                norm.append((min(k, kp), max(k, kp)))
            if len(set(norm)) != len(norm):
                raise ValueError("duplicate pairs in a fixed rule")
            object.__setattr__(self, "pairs", tuple(sorted(norm)))
        elif self.kind in _RANK_KINDS:
            if self.g is None or self.g < 1:
                raise ValueError("rank rules need g >= 1")
        else:
            if self.threshold is None or self.threshold <= 0:
                raise ValueError("threshold rules need a positive threshold")

    @classmethod
    def fixed(cls, pairs) -> "SelectionRule":
        return cls(kind="fixed", pairs=tuple(tuple(p) for p in pairs))

    @classmethod
    def fixed_all(cls, K: int) -> "SelectionRule":
        return cls.fixed([(k, kp) for k in range(K) for kp in range(k + 1, K)])

    @classmethod
    def top_g(cls, g: int) -> "SelectionRule":
        return cls(kind="top", g=int(g))

    @classmethod
    def bottom_g(cls, g: int) -> "SelectionRule":
        return cls(kind="bottom", g=int(g))

    @classmethod
    def threshold_below(cls, t: float) -> "SelectionRule":
        return cls(kind="below", threshold=float(t))

    @classmethod
    def threshold_above(cls, t: float) -> "SelectionRule":
        return cls(kind="above", threshold=float(t))

    @property
    def is_data_dependent(self) -> bool:
        return self.kind != "fixed"


def pair_center_diffs(
    values: np.ndarray, part: ClusterPartition
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """All pairs (k < k') with the q-vector difference of their cluster
    centers, which equals A^T v_(k,k') for the pair's contrast vector."""
    K = part.K
    means = cluster_sums(values, part.labels, K) / part.sizes[:, None]
    pairs = [(k, kp) for k in range(K) for kp in range(k + 1, K)]
    diffs = np.array([means[k] - means[kp] for k, kp in pairs])
    return pairs, diffs


def select_pairs(A: DataMatrix, part: ClusterPartition, rule: SelectionRule) -> PairSet:
    """Apply a selection rule to the clustered data.

    Rank rules include every pair tied with the rank-g boundary value,
    so the selection can exceed g pairs (ties are measure-zero under the
    model). Threshold rules may select nothing, which raises
    EmptySelection; tests report NA in that case.
    """
    if rule.kind == "fixed":
        return PairSet(rule.pairs, part.K, rule)
    # Squared center distances ||A^T v||^2 order pairs as the distances
    # do, so rank and threshold rules compare them directly.
    pairs, diffs = pair_center_diffs(A.values, part)
    sq = (diffs**2).sum(axis=1)
    if rule.kind == "top":
        if rule.g > len(pairs):
            raise ValueError(f"g={rule.g} exceeds the number of pairs {len(pairs)}")
        cutoff = np.sort(sq)[::-1][rule.g - 1]
        chosen = [p for p, s in zip(pairs, sq) if s >= cutoff]
    elif rule.kind == "bottom":
        if rule.g > len(pairs):
            raise ValueError(f"g={rule.g} exceeds the number of pairs {len(pairs)}")
        cutoff = np.sort(sq)[rule.g - 1]
        chosen = [p for p, s in zip(pairs, sq) if s <= cutoff]
    elif rule.kind == "below":
        t2 = rule.threshold**2
        chosen = [p for p, s in zip(pairs, sq) if s <= t2]
    else:
        t2 = rule.threshold**2
        chosen = [p for p, s in zip(pairs, sq) if s >= t2]
    if not chosen:
        raise EmptySelection(f"rule {rule.kind!r} selected no pair")
    return PairSet(tuple(chosen), part.K, rule)
