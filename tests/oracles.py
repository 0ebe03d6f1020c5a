"""Scalar reference solvers for the truncation inequalities.

These solve one inequality per call with plain Python arithmetic and
serve as test oracles for the batched numpy solvers in
cluster_sieve.truncation: the same stable-root quadratic formula, and
the same quartic candidate set and midpoint sign scan for the radical
form. `interval_intersect` is the scalar two-list sweep, and
`fold_intersection` intersects their solutions pairwise with it: the
reference for the batched sweep. `canonicalize` merges one interval at
a time: the reference for core.merge_pieces. `contrast_basis` is an
orthonormal basis of the tested pairs' contrast vectors, by SVD, and
`reference_split` projects onto it: the reference for
projection.split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cluster_sieve.core import INF, MERGE_TOL, ClusterPartition, Interval, IntervalUnion
from cluster_sieve.truncation import _IMAG_TOL, _RESIDUAL_TOL, _RESIDUAL_ULPS, _ROOT_COLLAPSE


@dataclass(frozen=True)
class QuadCoeffs:
    """The quadratic a*psi^2 + b*psi + c.

    A single squared distance along the known-variance path has a >= 0
    (it is a squared norm); differences of two such forms may have
    either sign.
    """

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class SqrtCoeffs:
    """The function l1*psi + l2*sqrt(psi) + l3*sqrt(psi)*sqrt(psi+r*)
    + l4*sqrt(psi+r*) + l5 appearing in the estimated-variance path."""

    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    r_star: float

    def __post_init__(self):
        if not self.r_star > 0:
            raise ValueError("r_star must be positive")

    def value(self, psi: float) -> float:
        rt = math.sqrt(psi + self.r_star)
        sq = math.sqrt(psi)
        return (
            self.l1 * psi
            + self.l2 * sq
            + self.l3 * sq * rt
            + self.l4 * rt
            + self.l5
        )


def _interval(lo: float, hi: float):
    """[max(lo, 0), hi], or None when that holds no psi in [0, inf)."""
    lo = max(lo, 0.0)
    if hi < lo or lo == INF:
        return None
    return Interval(lo, hi)


def solve_quad_leq(c: QuadCoeffs) -> IntervalUnion:
    """{psi >= 0 : a*psi^2 + b*psi + c <= 0}.

    All degenerate cases are handled: a zero leading coefficient falls
    back to the linear or constant inequality, and a non-positive
    discriminant keeps or discards the whole half-line by the sign of a.
    """
    a, b, cc = c.a, c.b, c.c
    if a == 0.0:
        if b == 0.0:
            return IntervalUnion.full() if cc <= 0.0 else IntervalUnion.empty()
        root = -cc / b
        iv = _interval(0.0, root) if b > 0.0 else _interval(root, INF)
        return IntervalUnion.from_intervals((iv,) if iv else ())
    disc = b * b - 4.0 * a * cc
    if disc <= 0.0:
        if a > 0.0:
            if disc == 0.0:
                root = -b / (2.0 * a)
                if root >= 0.0:
                    return IntervalUnion.from_intervals((Interval(root, root),))
            return IntervalUnion.empty()
        return IntervalUnion.full()
    # Two real roots; the classical formula cancels when b^2 >> 4ac, so
    # derive one root from the stable intermediate q and the other from
    # the product c/a = r1*r2.
    s = math.sqrt(disc)
    qq = -(b + math.copysign(s, b)) / 2.0 if b != 0.0 else s / 2.0
    r1 = qq / a
    r2 = cc / qq
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    pieces = (_interval(lo, hi),) if a > 0.0 else (_interval(0.0, lo), _interval(hi, INF))
    return IntervalUnion.from_intervals(tuple(iv for iv in pieces if iv))


def solve_sqrt_leq(c: SqrtCoeffs) -> IntervalUnion:
    """{psi >= 0 : c.value(psi) <= 0} for the radical form.

    Substituting y = sqrt(psi) and squaring the balanced equation
    (l3*y + l4)*sqrt(y^2 + r*) = -(l1*y^2 + l2*y + l5) turns the
    boundary into a quartic in y. Its admissible roots, together with
    the real roots of each side alone, partition [0, inf); a midpoint
    sign scan then keeps the non-positive pieces, mapped back through
    psi = y^2.
    """
    l1, l2, l3, l4, l5, rs = c.l1, c.l2, c.l3, c.l4, c.l5, c.r_star
    if l1 == 0.0 and l2 == 0.0 and l3 == 0.0 and l4 == 0.0:
        return IntervalUnion.full() if l5 <= 0.0 else IntervalUnion.empty()

    def g_of_y(y: float) -> float:
        rt = math.sqrt(y * y + rs)
        return l1 * y * y + l2 * y + l3 * y * rt + l4 * rt + l5

    def f1(y: float) -> float:
        return (l3 * y + l4) * math.sqrt(y * y + rs)

    def f2(y: float) -> float:
        return -(l1 * y * y + l2 * y + l5)

    def residual_tol(y: float) -> float:
        # the larger of the absolute tolerance and _RESIDUAL_ULPS ulps of
        # the sum of the magnitudes of the residual's terms
        rt = math.sqrt(y * y + rs)
        size = (abs(l3 * y) + abs(l4)) * rt + abs(l1 * y * y) + abs(l2 * y) + abs(l5)
        return max(_RESIDUAL_TOL, _RESIDUAL_ULPS * np.finfo(float).eps * size)

    quartic = np.array(
        [
            l3 * l3 - l1 * l1,
            2.0 * (l3 * l4 - l1 * l2),
            l4 * l4 + l3 * l3 * rs - l2 * l2 - 2.0 * l1 * l5,
            2.0 * (l3 * l4 * rs - l2 * l5),
            l4 * l4 * rs - l5 * l5,
        ]
    )
    cands = [0.0]
    if np.any(quartic != 0.0):
        for z in np.roots(quartic):
            y = float(z.real)
            if abs(z.imag) <= _IMAG_TOL and y >= 0.0:
                # Squaring introduces sign-flipped impostors; keep only
                # roots where both sides genuinely meet.
                if abs(f1(y) - f2(y)) <= residual_tol(y):
                    cands.append(y)
    # Roots of each side alone catch boundaries the squared equation
    # degenerates on (both sides vanishing identically).
    if l3 != 0.0:
        y = -l4 / l3
        if y >= 0.0:
            cands.append(y)
    if l1 != 0.0:
        disc = l2 * l2 - 4.0 * l1 * l5
        if disc >= 0.0:
            s = math.sqrt(disc)
            for y in ((-l2 - s) / (2.0 * l1), (-l2 + s) / (2.0 * l1)):
                if y >= 0.0:
                    cands.append(y)
    elif l2 != 0.0:
        y = -l5 / l2
        if y >= 0.0:
            cands.append(y)

    ys = sorted(cands)
    dedup = [ys[0]]
    for y in ys[1:]:
        if y - dedup[-1] > _ROOT_COLLAPSE:
            dedup.append(y)
    pieces = []
    for lo, hi in zip(dedup, dedup[1:]):
        if g_of_y(0.5 * (lo + hi)) <= 0.0:
            pieces.append(_interval(lo * lo, hi * hi))
    if g_of_y(dedup[-1] + 1.0) <= 0.0:
        pieces.append(_interval(dedup[-1] ** 2, INF))
    return IntervalUnion.from_intervals(tuple(iv for iv in pieces if iv))


def canonicalize(intervals) -> tuple[Interval, ...]:
    """The merge rule of IntervalUnion, one closed interval at a time:
    sorted by (lo, hi), each interval joins the last merged one when it
    starts within MERGE_TOL of its upper end."""
    merged: list[Interval] = []
    for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.hi)):
        if merged and iv.lo <= merged[-1].hi + MERGE_TOL:
            merged[-1] = Interval(merged[-1].lo, max(merged[-1].hi, iv.hi))
        else:
            merged.append(iv)
    return tuple(merged)


def interval_intersect(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Intersection of two unions of closed intervals.

    Linear sweep over the two sorted interval lists.
    """
    out = []
    ai, bi = 0, 0
    xs, ys = a.intervals, b.intervals
    while ai < len(xs) and bi < len(ys):
        x, y = xs[ai], ys[bi]
        lo = max(x.lo, y.lo)
        hi = min(x.hi, y.hi)
        if lo <= hi:
            out.append(Interval(lo, hi))
        if x.hi <= y.hi:
            ai += 1
        else:
            bi += 1
    return IntervalUnion.from_intervals(tuple(out))


def fold_intersection(sets, S: IntervalUnion | None = None) -> IntervalUnion:
    """Intersect interval unions one at a time, stopping once empty."""
    S = IntervalUnion.full() if S is None else S
    for piece in sets:
        S = interval_intersect(S, piece)
        if S.is_empty:
            break
    return S


def quad_rows_set(coef) -> IntervalUnion:
    """The intersection of solve_quad_leq over rows (a, b, c) of coef."""
    return fold_intersection(solve_quad_leq(QuadCoeffs(*row)) for row in coef)


def radical_rows_set(lam, rs: float) -> IntervalUnion:
    """The intersection of solve_sqrt_leq over rows (l1, ..., l5) of lam."""
    return fold_intersection(solve_sqrt_leq(SqrtCoeffs(*row, r_star=rs)) for row in lam)


def contrast_vector(part: ClusterPartition, k: int, kp: int) -> np.ndarray:
    """The n-vector with 1/|C_k| on cluster k, -1/|C_k'| on cluster k',
    zero elsewhere. X^T v is the difference of the two cluster centers."""
    if k == kp:
        raise ValueError("a contrast needs two distinct clusters")
    v = np.zeros(part.n)
    v[part.labels == k] = 1.0 / part.sizes[k]
    v[part.labels == kp] = -1.0 / part.sizes[kp]
    return v


def contrast_basis(part: ClusterPartition, pairs) -> np.ndarray:
    """An n x r orthonormal basis of span{v_(k,k') : (k,k') in pairs}: the
    left singular vectors of the stacked contrasts whose singular values
    exceed max(n, |pairs|) * machine epsilon * (largest singular value)."""
    stacked = np.column_stack([contrast_vector(part, k, kp) for k, kp in pairs])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    cutoff = max(part.n, len(pairs)) * np.finfo(float).eps * s[0]
    return u[:, : int(np.sum(s > cutoff))]


def reference_split(part: ClusterPartition, pairs, A: np.ndarray):
    """The projection of A onto the contrast span through its basis, and
    A centered within each tested cluster (zero on the other rows)."""
    basis = contrast_basis(part, pairs)
    within = np.zeros_like(A, dtype=float)
    for k in sorted({k for pair in pairs for k in pair}):
        rows = part.labels == k
        within[rows] = A[rows] - A[rows].mean(axis=0)
    return basis @ (basis.T @ A), within
