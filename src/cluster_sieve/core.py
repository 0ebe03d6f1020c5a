"""Shared data types: data matrices, partitions, interval unions, results.

Every truncation set in this package is a finite union of disjoint
intervals on [0, inf). The interval algebra here is the foundation the
truncation and distribution modules build on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

INF = float("inf")

# Two intervals merge when the gap between them is below this threshold.
# Root solvers return endpoints with finite precision, and open/closed
# distinctions are measure-zero under continuous distributions.
MERGE_TOL = 1e-12


class NotAvailable(Exception):
    """A p-value cannot be produced; callers report NA instead."""


class DegenerateClustering(NotAvailable):
    """Some iteration of Lloyd's algorithm produced an empty cluster."""


class DegenerateWithin(NotAvailable):
    """Every cluster under test is a singleton; within-cluster variation
    is unmeasurable and the variance-free statistic is undefined."""


class EmptySelection(NotAvailable):
    """A threshold selection rule selected no cluster pair."""


class ZeroMassSet(NotAvailable):
    """The truncation set carries no numerically detectable probability
    mass, even in log space and through the approximation fallback."""


@dataclass(frozen=True)
class DataMatrix:
    """An n x q real observation matrix, one observation per row.

    The wrapped array is made read-only so instances can be shared
    across concurrent workers.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
        if arr.shape[0] < 2 or arr.shape[1] < 1:
            raise ValueError(f"need at least 2 rows and 1 column, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ClusterPartition:
    """An assignment of n observations to K nonempty clusters.

    Cluster indices are 0-based throughout the library (the command
    line accepts and reports 1-based labels).
    """

    labels: np.ndarray
    K: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if self.K < 1:
            raise ValueError("K must be positive")
        if labels.min(initial=0) < 0 or labels.max(initial=-1) >= self.K:
            raise ValueError(f"labels must lie in [0, {self.K})")
        sizes = np.bincount(labels, minlength=self.K)
        if np.any(sizes == 0):
            raise ValueError("every cluster must be nonempty")
        labels = labels.copy()
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    def members(self, k: int) -> np.ndarray:
        """Row indices of cluster k."""
        return np.flatnonzero(self.labels == k)


@dataclass(frozen=True)
class Interval:
    """One interval on [0, inf]. Closedness matters for membership only;
    probability computations ignore it."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        # Coerce to plain Python scalars so reprs, hashing, and JSON
        # serialization never depend on which numeric path built us.
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "lo_closed", bool(self.lo_closed))
        object.__setattr__(self, "hi_closed", bool(self.hi_closed))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints cannot be NaN")
        if self.lo < 0:
            raise ValueError(f"interval endpoints must be >= 0, got lo={self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.hi == INF and self.hi_closed:
            # infinity is never attained; normalize so equal sets compare equal
            object.__setattr__(self, "hi_closed", False)


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint intervals on [0, inf), kept sorted.

    Construction canonicalizes: intervals are sorted by lower endpoint
    and any pair closer than MERGE_TOL is merged.
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        object.__setattr__(self, "intervals", _canonicalize(self.intervals))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls((Interval(0.0, INF),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalUnion":
        """Build from (lo, hi) pairs, clipping at 0 and dropping empty pieces."""
        kept = []
        for lo, hi in pairs:
            lo = max(float(lo), 0.0)
            hi = float(hi)
            if hi >= lo:
                kept.append(Interval(lo, hi))
        return cls(tuple(kept))

    @property
    def is_empty(self) -> bool:
        return len(self.intervals) == 0

    def measure(self) -> float:
        """Total Lebesgue length (inf if any piece is unbounded)."""
        return sum(iv.hi - iv.lo for iv in self.intervals)

    def __iter__(self):
        return iter(self.intervals)


def _canonicalize(intervals: Sequence[Interval]) -> tuple[Interval, ...]:
    if not intervals:
        return ()
    ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    merged = [ivs[0]]
    for iv in ivs[1:]:
        last = merged[-1]
        # Exact contact with both sides open leaves a removed point, as
        # the strict solvers produce around roots; never merge across it.
        point_gap = (
            iv.lo == last.hi and not last.hi_closed and not iv.lo_closed
        )
        if iv.lo <= last.hi + MERGE_TOL and not point_gap:
            # Overlap or near-contact: merge, keeping the outer closedness.
            if iv.hi > last.hi:
                hi, hic = iv.hi, iv.hi_closed
            elif iv.hi == last.hi:
                hi, hic = last.hi, last.hi_closed or iv.hi_closed
            else:
                hi, hic = last.hi, last.hi_closed
            loc = last.lo_closed or (iv.lo == last.lo and iv.lo_closed)
            merged[-1] = Interval(last.lo, hi, loc, hic)
        else:
            merged.append(iv)
    return tuple(merged)


def interval_contains(a: IntervalUnion, x: float, tol: float = 0.0) -> bool:
    """Membership test honoring endpoint closedness.

    A positive `tol` widens every interval by that amount, which is how
    results assert that an observed statistic lies in its truncation set
    despite finite-precision endpoints.
    """
    if x < 0:
        raise ValueError("membership is defined on [0, inf) only")
    for iv in a.intervals:
        lo_ok = x > iv.lo - tol if not iv.lo_closed and tol == 0.0 else x >= iv.lo - tol
        hi_ok = x < iv.hi + tol if not iv.hi_closed and tol == 0.0 else x <= iv.hi + tol
        if lo_ok and hi_ok:
            return True
    return False


class Method(Enum):
    """Which test produced a PValueResult."""

    KNOWN_SIGMA = "KnownSigma"
    KNOWN_SIGMA_SELECTED = "KnownSigmaSelected"
    BONFERRONI = "Bonferroni"
    UNKNOWN_SIGMA = "UnknownSigma"
    UNKNOWN_SIGMA_SELECTED = "UnknownSigmaSelected"
    PAIRWISE_KNOWN = "PairwiseKnown"


@dataclass(frozen=True)
class PValueResult:
    """Outcome of one test: statistic, reference law, truncation set,
    p-value, and diagnostics.

    `degenerate` marks a not-available result: the statistic and p-value
    are NaN and `diagnostics["reason"]` states why.
    """

    statistic: float
    df_num: int
    df_den: int | None
    truncation: IntervalUnion
    p_value: float
    method: Method
    degenerate: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.degenerate:
            if not (0.0 <= self.p_value <= 1.0):
                raise ValueError(f"p-value out of range: {self.p_value}")
            if self.statistic < 0:
                raise ValueError("statistic must be nonnegative")

    @classmethod
    def not_available(cls, method: Method, reason: str) -> "PValueResult":
        return cls(
            statistic=math.nan,
            df_num=0,
            df_den=None,
            truncation=IntervalUnion.empty(),
            p_value=math.nan,
            method=method,
            degenerate=True,
            diagnostics={"reason": reason},
        )
