"""Shared data types: data matrices, partitions, interval unions, results.

Every truncation set in this package is a finite union of disjoint
closed intervals on [0, inf). The interval algebra here is the
foundation the truncation and distribution modules build on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

INF = float("inf")

# Two intervals merge when the gap between them is below this threshold:
# root solvers return endpoints with finite precision.
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


@dataclass(frozen=True)
class Interval:
    """One closed interval [lo, hi] on [0, inf]; with hi = inf it is
    [lo, inf)."""

    lo: float
    hi: float

    def __post_init__(self):
        # Coerce to plain Python scalars so reprs, hashing, and JSON
        # serialization never depend on which numeric path built us.
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints cannot be NaN")
        if self.lo < 0:
            raise ValueError(f"interval endpoints must be >= 0, got lo={self.lo}")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")


@dataclass(frozen=True, eq=False, repr=False)
class IntervalUnion:
    """A finite union of disjoint closed intervals on [0, inf), held as
    two aligned read-only arrays sorted by lo.

    Every set is taken closed. The reference laws are continuous, so the
    finitely many tie points by which a closed set differs from the
    exact one carry no probability. Construction canonicalizes through
    merge_pieces, the one merge rule of the package.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        # copies, so that no caller's array is frozen below
        lo, hi = np.array(self.lo, dtype=float), np.array(self.hi, dtype=float)
        if not ((lo >= 0.0).all() and (lo <= hi).all()):
            raise ValueError("interval endpoints must satisfy 0 <= lo <= hi")
        _, lo, hi = merge_pieces(lo, hi)
        for name, arr in (("lo", lo), ("hi", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls((), ())

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls((0.0,), (INF,))

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.lo.tolist(), self.hi.tolist()))

    @property
    def is_empty(self) -> bool:
        return self.lo.size == 0

    def __eq__(self, other):
        return (
            isinstance(other, IntervalUnion)
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __repr__(self):
        return f"IntervalUnion(intervals={self.intervals!r})"


def merge_pieces(lo, hi, group=None):
    """The one merge rule: the canonical form of closed pieces [lo, hi]
    within each group (one group by default), as arrays (group, lo, hi).
    Pieces are sorted by (group, lo, hi), each upper end is raised to the
    running maximum of its group, and a piece joins the one before when
    it starts within MERGE_TOL of that maximum.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    g = np.zeros(lo.size, dtype=int) if group is None else np.asarray(group)
    if lo.size < 2:
        return g, lo, hi
    same = g[1:] == g[:-1]
    # Solver and sweep output has both ends rising within a group, which
    # makes the sort and the running maximum identities.
    if not ((g[1:] > g[:-1]) | (same & (lo[1:] > lo[:-1]) & (hi[1:] > hi[:-1]))).all():
        order = np.lexsort((hi, lo, g))
        g, lo, hi = g[order], lo[order], hi[order]
        same = g[1:] == g[:-1]
        # The running maximum by doubling: after the pass at k each upper
        # end is the largest of the 2k in its group up to it.
        k = 1
        while k < lo.size:
            up = np.where(g[k:] == g[:-k], np.maximum(hi[:-k], hi[k:]), hi[k:])
            hi = np.concatenate([hi[:k], up])
            k *= 2
    new = np.concatenate(([True], ~same | (lo[1:] > hi[:-1] + MERGE_TOL)))
    first, last = np.flatnonzero(new), np.flatnonzero(np.concatenate((new[1:], [True])))
    return g[first], lo[first], hi[last]


def interval_contains(a: IntervalUnion, x: float, tol: float = 0.0) -> bool:
    """Whether x lies in a, every piece widened by tol on both sides,
    which is how results assert that an observed statistic lies in its
    truncation set despite finite-precision endpoints.
    """
    if x < 0:
        raise ValueError("membership is defined on [0, inf) only")
    return bool(((x >= a.lo - tol) & (x <= a.hi + tol)).any())


class Method(Enum):
    """Which test produced a PValueResult."""

    KNOWN_SIGMA = "KnownSigma"
    KNOWN_SIGMA_SELECTED = "KnownSigmaSelected"
    BONFERRONI = "Bonferroni"
    UNKNOWN_SIGMA = "UnknownSigma"
    UNKNOWN_SIGMA_SELECTED = "UnknownSigmaSelected"


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
