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


def _interval(lo: float, hi: float, lo_closed: bool = True, hi_closed: bool = True):
    if lo < 0.0:
        # 0 is then interior to the unclipped solution, so the clipped
        # endpoint is attained regardless of strictness.
        lo, lo_closed = 0.0, True
    if hi < lo or (hi == lo and not (lo_closed and hi_closed)):
        return None
    return Interval(lo, hi, lo_closed, hi_closed if hi < INF else False)


def solve_quad_leq(c: QuadCoeffs, strict: bool = False) -> IntervalUnion:
    """{psi >= 0 : a*psi^2 + b*psi + c <= 0} (or < 0 when strict).

    All degenerate cases are handled: a zero leading coefficient falls
    back to the linear or constant inequality, and a non-positive
    discriminant keeps or discards the whole half-line by the sign of a.
    """
    a, b, cc = c.a, c.b, c.c
    closed = not strict
    if a == 0.0:
        if b == 0.0:
            ok = cc < 0.0 or (cc == 0.0 and closed)
            return IntervalUnion.full() if ok else IntervalUnion.empty()
        root = -cc / b
        if b > 0.0:
            iv = _interval(0.0, root, True, closed)
            return IntervalUnion.from_intervals((iv,) if iv else ())
        iv = _interval(root, INF, closed, False)
        return IntervalUnion.from_intervals((iv,))
    disc = b * b - 4.0 * a * cc
    if disc <= 0.0:
        if a > 0.0:
            if disc == 0.0 and closed:
                root = -b / (2.0 * a)
                if root >= 0.0:
                    return IntervalUnion.from_intervals((Interval(root, root),))
            return IntervalUnion.empty()
        if disc == 0.0 and strict:
            root = -b / (2.0 * a)
            if root > 0.0:
                return IntervalUnion.from_intervals(
                    (Interval(0.0, root, True, False), Interval(root, INF, False, False))
                )
            if root == 0.0:
                return IntervalUnion.from_intervals((Interval(0.0, INF, False, False),))
        return IntervalUnion.full()
    # Two real roots; the classical formula cancels when b^2 >> 4ac, so
    # derive one root from the stable intermediate q and the other from
    # the product c/a = r1*r2.
    s = math.sqrt(disc)
    qq = -(b + math.copysign(s, b)) / 2.0 if b != 0.0 else s / 2.0
    r1 = qq / a
    r2 = cc / qq
    lo, hi = (r1, r2) if r1 <= r2 else (r2, r1)
    if a > 0.0:
        iv = _interval(lo, hi, closed, closed)
        return IntervalUnion.from_intervals((iv,) if iv else ())
    pieces = []
    left = _interval(0.0, lo, True, closed)
    if left:
        pieces.append(left)
    right = _interval(hi, INF, closed, False)
    if right:
        pieces.append(right)
    return IntervalUnion.from_intervals(tuple(pieces))


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
            pieces.append(Interval(lo * lo, hi * hi))
    if g_of_y(dedup[-1] + 1.0) <= 0.0:
        pieces.append(Interval(dedup[-1] ** 2, INF))
    return IntervalUnion.from_intervals(tuple(pieces))


def canonicalize(intervals) -> tuple[Interval, ...]:
    """The merge rule of IntervalUnion, one interval at a time: sorted by
    lower end with closed starts first, each interval joins the last
    merged one when it starts within MERGE_TOL of its upper end, unless
    both are open at one shared point. A piece that holds no point, lo ==
    hi with an open end, is dropped first."""
    ivs = [iv for iv in intervals if iv.lo < iv.hi or (iv.lo_closed and iv.hi_closed)]
    if not ivs:
        return ()
    ivs = sorted(ivs, key=lambda iv: (iv.lo, not iv.lo_closed, iv.hi))
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


def interval_intersect(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Intersection of two interval unions.

    Linear sweep over the two sorted interval lists.
    """
    out = []
    ai, bi = 0, 0
    xs, ys = a.intervals, b.intervals
    while ai < len(xs) and bi < len(ys):
        x, y = xs[ai], ys[bi]
        lo = max(x.lo, y.lo)
        hi = min(x.hi, y.hi)
        if lo < hi or (lo == hi and _closed_at(x, lo) and _closed_at(y, lo)):
            lo_closed = _closed_at(x, lo) and _closed_at(y, lo)
            hi_closed = _closed_hi_at(x, hi) and _closed_hi_at(y, hi)
            out.append(Interval(lo, hi, lo_closed, hi_closed))
        if x.hi <= y.hi:
            ai += 1
        else:
            bi += 1
    return IntervalUnion.from_intervals(tuple(out))


def _closed_at(iv: Interval, point: float) -> bool:
    # Closedness of iv at `point` approached as a lower endpoint.
    if point == iv.lo:
        return iv.lo_closed
    return True


def _closed_hi_at(iv: Interval, point: float) -> bool:
    if point == iv.hi:
        return iv.hi_closed
    return True


def fold_intersection(sets, S: IntervalUnion | None = None) -> IntervalUnion:
    """Intersect interval unions one at a time, stopping once empty."""
    S = IntervalUnion.full() if S is None else S
    for piece in sets:
        S = interval_intersect(S, piece)
        if S.is_empty:
            break
    return S


def quad_rows_set(coef, strict=None) -> IntervalUnion:
    """The intersection of solve_quad_leq over rows (a, b, c) of coef."""
    strict = np.zeros(len(coef), dtype=bool) if strict is None else strict
    return fold_intersection(
        solve_quad_leq(QuadCoeffs(*row), strict=bool(s)) for row, s in zip(coef, strict)
    )


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
