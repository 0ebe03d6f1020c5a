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
projection.split. `_known_rows` and `_unknown_rows` build one Lloyd
step's rows and `_selection_batch` the selection event's, each family on
its own path: the reference for the row builder of
truncation.truncation_set. `_log_survival` is one upper tail of
distributions._log_tails at one point. `union_of` is the IntervalUnion
of a sequence of Interval pieces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cluster_sieve.core import INF, MERGE_TOL, ClusterPartition, Interval, IntervalUnion
from cluster_sieve.distributions import _log_tails
from cluster_sieve.kmeans import KMeansTrace, step_centroids
from cluster_sieve.projection import PairSet
from cluster_sieve.truncation import (
    _GRAM_ULPS,
    _IMAG_TOL,
    _QUAD_TERMS,
    _RADICAL_TERMS,
    _RESIDUAL_TOL,
    _RESIDUAL_ULPS,
    _ROOT_COLLAPSE,
    KnownPath,
    UnknownPath,
    _clean_radical,
    _cross_gram,
    _pair_grams,
    _radical_rows,
    _selection_rows,
)


def union_of(intervals) -> IntervalUnion:
    return IntervalUnion([iv.lo for iv in intervals], [iv.hi for iv in intervals])


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
        return union_of((iv,) if iv else ())
    disc = b * b - 4.0 * a * cc
    if disc <= 0.0:
        if a > 0.0:
            if disc == 0.0:
                root = -b / (2.0 * a)
                if root >= 0.0:
                    return union_of((Interval(root, root),))
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
    return union_of(tuple(iv for iv in pieces if iv))


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
    return union_of(tuple(iv for iv in pieces if iv))


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
    return union_of(tuple(out))


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


def _competitor_split(curr: np.ndarray, K: int):
    """A function taking an n x K matrix G to G[i, curr_i] and G[i, l]
    over the competitors l != curr_i, both flattened in (i, l) order."""
    rows = np.arange(curr.size)
    keep = np.ones((curr.size, K), dtype=bool)
    keep[rows, curr] = False
    return lambda G: (np.repeat(G[rows, curr], K - 1), G[keep])


def _known_rows(trace: KMeansTrace, path: KnownPath, j: int) -> np.ndarray:
    """Rows (a, b, c) of a*psi^2 + b*psi + c <= 0 for every (point,
    competitor) pair of Lloyd step j: the squared distance of x_i(psi)
    to its assigned center minus that to the competitor's. Step 0
    compares against the initial center rows of x(psi), later steps
    against the centroids of the previous step's labels."""
    split = _competitor_split(trace.assignments[j], trace.K)
    mats = (path.D, path.E)
    bars = [step_centroids(U, trace, j) for U in mats]
    # |U_i| + |Ubar_l| for U = D, E: the Cauchy-Schwarz factors of _GRAM_ULPS
    reach = [
        np.add.outer(np.linalg.norm(U, axis=1), np.linalg.norm(Ubar, axis=1))
        for U, Ubar in zip(mats, bars)
    ]
    ulps = _GRAM_ULPS * (path.D.shape[1] + 3) * np.finfo(float).eps
    coef = np.empty((trace.n * (trace.K - 1), 3))
    for t, (u, w) in enumerate(_QUAD_TERMS):
        own, other = split(_cross_gram(mats[u], mats[w], bars[u], bars[w]))
        err_own, err_other = split(reach[u] * reach[w])
        diff = own - other
        coef[:, t] = np.where(np.abs(diff) <= ulps * (err_own + err_other), 0.0, diff)
    coef[:, 1] *= 2.0
    return coef


def _unknown_rows(trace: KMeansTrace, path: UnknownPath, j: int) -> np.ndarray:
    """Radical rows for every (point, competitor) pair of Lloyd step j:
    assigned minus competitor squared distance along the
    estimated-variance path."""
    split = _competitor_split(trace.assignments[j], trace.K)
    mats = (path.A, path.B, path.C)
    bars = [step_centroids(U, trace, j) for U in mats]
    grams = []
    for u, w in _RADICAL_TERMS:
        own, other = split(_cross_gram(mats[u], mats[w], bars[u], bars[w]))
        grams.append(own - other)
    return _clean_radical(_radical_rows(*grams, path.r_star), path.r_star)


def _selection_batch(path, part: ClusterPartition, V: PairSet):
    """The selection event V on partition part as one batch of the path's
    family: quadratic or radical rows."""
    rule = V.rule
    if isinstance(path, KnownPath):
        pairs, grams = _pair_grams((path.D, path.E), part, _QUAD_TERMS)
        # per-pair coefficients of ||x(psi)^T v||^2 = a*psi^2 + b*psi + c
        coef = np.column_stack([grams[0], 2.0 * grams[1], grams[2]])
        gamma = None if rule.threshold is None else np.array([0.0, 0.0, rule.threshold**2])
        return _selection_rows(V, pairs, coef, gamma)
    # Projected center differences have no within-cluster component, so
    # each pair's squared norm already is a radical form; thresholds enter
    # as the affine form gamma1*psi + gamma2 subtracted from it.
    rs = path.r_star
    pairs, grams = _pair_grams((path.A, path.B, path.C), part, _RADICAL_TERMS)
    gamma = None
    if rule.threshold is not None:
        t2 = rule.threshold**2
        gamma = np.array([t2 / path.total_sq, 0.0, 0.0, 0.0, rs * t2 / path.total_sq])
    rows = _selection_rows(V, pairs, _radical_rows(*grams, rs), gamma)
    return _clean_radical(rows, rs)


def _log_survival(kind: str, d1: int, d2: int | None, t: float) -> float:
    if t < 0:
        raise ValueError("t must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(_log_tails(kind, d1, d2, np.array([float(t)]))[1][0])
