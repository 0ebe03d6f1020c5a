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
    """Every piece of the truncation set has log mass -inf in double
    precision: a set of points only, or a lower tail below the normal
    range of doubles."""


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


_TYPES = (("lo", float), ("hi", float), ("lo_closed", bool), ("hi_closed", bool))
_FIELDS = tuple(f for f, _ in _TYPES)


@dataclass(frozen=True, eq=False, repr=False)
class IntervalUnion:
    """A finite union of disjoint intervals on [0, inf), held as four
    aligned read-only arrays sorted by lo.

    Construction canonicalizes through merge_pieces, the one merge rule
    of the package.
    """

    lo: np.ndarray
    hi: np.ndarray
    lo_closed: np.ndarray
    hi_closed: np.ndarray

    def __post_init__(self):
        # copies, so that no caller's array is frozen below
        lo, hi, lc, hc = (np.array(getattr(self, f), dtype=t) for f, t in _TYPES)
        if not ((lo >= 0.0).all() and (lo <= hi).all()):
            raise ValueError("interval endpoints must satisfy 0 <= lo <= hi")
        for name, arr in zip(_FIELDS, merge_pieces(lo, hi, lc, hc)[1:]):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_intervals(cls, intervals: Sequence[Interval]) -> "IntervalUnion":
        return cls(*([getattr(iv, f) for iv in intervals] for f in _FIELDS))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls((), (), (), ())

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls((0.0,), (INF,), (True,), (False,))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalUnion":
        """Build from (lo, hi) pairs, clipping at 0 and dropping empty pieces."""
        lo, hi = np.array(list(pairs), dtype=float).reshape(-1, 2).T
        lo = np.maximum(lo, 0.0)
        keep = hi >= lo
        closed = np.ones(int(keep.sum()), dtype=bool)
        return cls(lo[keep], hi[keep], closed, closed)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, *(getattr(self, f).tolist() for f in _FIELDS)))

    @property
    def is_empty(self) -> bool:
        return self.lo.size == 0

    def measure(self) -> float:
        """Total Lebesgue length (inf if any piece is unbounded)."""
        return float((self.hi - self.lo).sum())

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in _FIELDS
        )

    def __repr__(self):
        return f"IntervalUnion(intervals={self.intervals!r})"


def merge_pieces(lo, hi, lo_closed, hi_closed, group=None):
    """The one merge rule: the canonical form of interval pieces within
    each group (one group by default), as arrays (group, lo, hi,
    lo_closed, hi_closed). Pieces are sorted by (group, lo, closed starts
    first, hi), each upper end is raised to the running maximum of its
    group's (closed above open at a tie), and a piece joins the one
    before when it starts within MERGE_TOL of that maximum, unless both
    are open at one shared point: strict inequalities leave that point
    removed around a root. An unbounded piece is open at infinity, and a
    piece that holds no point is dropped first.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lc = np.asarray(lo_closed, dtype=bool)
    hc = np.asarray(hi_closed, dtype=bool) & (hi < INF)
    g = np.zeros(lo.size, dtype=int) if group is None else np.asarray(group)
    # a piece with lo == hi holds its point only when both ends are closed
    holds = (lo < hi) | (lc & hc)
    if not holds.all():
        g, lo, hi, lc, hc = (a[holds] for a in (g, lo, hi, lc, hc))
    if lo.size < 2:
        return g, lo, hi, lc, hc
    same = g[1:] == g[:-1]
    # Solver and sweep output has both ends strictly ascending within a
    # group, which makes the sort and the running maximum identities.
    if not ((g[1:] > g[:-1]) | (same & (lo[1:] > lo[:-1]) & (hi[1:] > hi[:-1]))).all():
        order = np.lexsort((hi, ~lc, lo, g))
        g, lo, hi, lc, hc = (a[order] for a in (g, lo, hi, lc, hc))
        same = g[1:] == g[:-1]
        # The running maximum by doubling: after the pass at k each upper
        # end is the largest of the 2k in its group up to it.
        k = 1
        while k < lo.size:
            h0, h1 = hi[:-k], hi[k:]
            up = (g[k:] == g[:-k]) & ((h0 > h1) | ((h0 == h1) & hc[:-k]))
            hi = np.concatenate([hi[:k], np.where(up, h0, h1)])
            hc = np.concatenate([hc[:k], np.where(up, hc[:-k], hc[k:])])
            k *= 2
    apart = (lo[1:] > hi[:-1] + MERGE_TOL) | ((lo[1:] == hi[:-1]) & ~(hc[:-1] | lc[1:]))
    new = np.concatenate(([True], ~same | apart))
    first, last = np.flatnonzero(new), np.flatnonzero(np.concatenate((new[1:], [True])))
    return g[first], lo[first], hi[last], lc[first], hc[last]


def interval_contains(a: IntervalUnion, x: float, tol: float = 0.0) -> bool:
    """Membership test honoring endpoint closedness.

    A positive `tol` widens every interval by that amount, which is how
    results assert that an observed statistic lies in its truncation set
    despite finite-precision endpoints.
    """
    if x < 0:
        raise ValueError("membership is defined on [0, inf) only")
    if tol != 0.0:
        return bool(((x >= a.lo - tol) & (x <= a.hi + tol)).any())
    lo_ok = np.where(a.lo_closed, x >= a.lo, x > a.lo)
    return bool((lo_ok & np.where(a.hi_closed, x <= a.hi, x < a.hi)).any())


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
