"""Analytic truncation sets for the post-clustering tests.

The inference perturbs the data along the tested mean directions while
freezing everything it conditions on. Requiring the perturbed matrix to
reproduce the observed clustering history (and, when applicable, the
observed pair selection) pins the statistic to a union of intervals.
With the variance known each requirement is a quadratic inequality in
the perturbation parameter psi; with the variance estimated in-sample
it takes the radical form

    l1*psi + l2*sqrt(psi) + l3*sqrt(psi*(psi+r*)) + l4*sqrt(psi+r*) + l5 <= 0,

which on the hyperbola sqrt(psi) = sqrt(r*)*sinh(t), sqrt(psi+r*) =
sqrt(r*)*cosh(t) is, times 4*e^(2t), a quartic in w = e^t >= 1: solved
exactly through its roots, with no squaring.

The inequalities are handled in batches, never one at a time: each
Lloyd step, and the selection rule, yields one coefficient array; an
exact closed-form screen drops the rows that hold on all of psi >= 0;
one numpy solver per family turns every other row into interval pieces;
and one sort-and-count sweep intersects those pieces with the running
set.

Every row is taken as <= 0 and every solution set as a union of closed
intervals, also where the exact event excludes its boundary (a distance
tie that K-means or the selection rule breaks one way). The closed set
differs from the exact one by finitely many tie points, which carry no
probability under the continuous reference laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    INF,
    ClusterPartition,
    DataMatrix,
    DegenerateWithin,
    IntervalUnion,
    NotAvailable,
    merge_pieces,
)
from .kmeans import KMeansTrace, step_centroids
from .projection import PairSet, ProjectionBundle, split
from .selection import pair_center_diffs

# Gram differences of the unit-normalized path matrices are O(1) (times
# powers of r*), with cancellation noise around n*eps. Radical-form
# coefficients below this fraction of the vector's scale are arithmetic
# noise on an exact zero; left in, they flip the sign of g at enormous
# psi and corrupt the partition scan.
_COEFF_NOISE = 1e-11
# A Gram entry <U_i - Ubar_l, W_i - Wbar_l> is computed from four expanded
# inner products of length q, each bounded by Cauchy-Schwarz by
# (|U_i| + |Ubar_l|)(|W_i| + |Wbar_l|); the computed entry is off by at
# most (q + 3) * eps times that bound. A quadratic coefficient (the
# difference of two entries) within _GRAM_ULPS times the sum of the two
# entries' error bounds cannot be told from an exact zero, which is what
# it is when a point and both centers share their tested component (as
# init rows do at step 0). Left in, such noise puts a spurious endpoint
# near psi = c / b ~ 1e16 and bounds a set that is really unbounded.
_GRAM_ULPS = 4.0


class _Pieces(NamedTuple):
    """Closed intervals of many constraints at once: piece k is [lo[k],
    hi[k]] of the solution set of constraint row[k]. Pieces are grouped
    by row and, within a row, merged by core.merge_pieces: disjoint and
    ascending."""

    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _intersect(S: IntervalUnion, p: _Pieces, m: int) -> IntervalUnion:
    """S intersected with the solution sets of m constraints, given as
    the pieces p of rows 0..m-1.

    One sweep: all endpoints are sorted, a running sum of +1 (start) and
    -1 (end) counts how many sets cover each stretch, and the stretches
    covered by S and all constraints are kept. At a shared endpoint
    starts count before ends, so a point that the pieces share stays in.
    """
    if np.any(np.bincount(p.row, minlength=m) == 0):
        return IntervalUnion.empty()
    full = (p.lo == 0.0) & (p.hi == INF)
    need = m - int(np.count_nonzero(full)) + 1
    if need == 1:
        return S
    lo = np.concatenate([S.lo, p.lo[~full]])
    x = np.concatenate([lo, S.hi, p.hi[~full]])
    end = np.repeat([0, 1], lo.size)
    order = np.lexsort((end, x))
    x = x[order]
    k = np.flatnonzero(np.cumsum(1 - 2 * end[order]) == need)
    return IntervalUnion(x[k], x[k + 1])


def _solve_quad(coef: np.ndarray):
    """{psi >= 0 : a*psi^2 + b*psi + c <= 0} for every row (a, b, c) of
    coef, as (pieces, row count).

    A row has at most two pieces, [lo1, hi1] and [lo2, inf). The
    degenerate cases: a = 0 falls back to the linear or constant
    inequality; a non-positive discriminant keeps or discards the whole
    half-line by the sign of a, except that a double root with a > 0 is
    the one point kept.
    """
    a, b, c = coef[:, 0], coef[:, 1], coef[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -c / b
        disc = b * b - 4.0 * a * c
        vertex = -b / (2.0 * a)
        # Two real roots; the classical formula cancels when b^2 >> 4ac,
        # so one root comes from the stable intermediate q and the other
        # from the product c/a = r1*r2.
        s = np.sqrt(disc)
        qq = np.where(b != 0.0, -(b + np.copysign(s, b)) / 2.0, s / 2.0)
        r1, r2 = qq / a, c / qq
    rlo, rhi = np.minimum(r1, r2), np.maximum(r1, r2)
    flat, up = a == 0.0, a > 0.0
    rise = flat & (b > 0.0)  # [0, root]
    fall = flat & (b < 0.0)  # [root, inf)
    pit = up & (disc <= 0.0)  # empty, or the double root
    point = pit & (disc == 0.0)
    two = ~flat & (disc > 0.0)
    cup = two & up  # [rlo, rhi]
    cap = two & ~up  # [0, rlo] and [rhi, inf)
    lo1 = np.select([fall, point, cup], [root, vertex, rlo], 0.0)
    hi1 = np.select([rise, point, cup, cap], [root, vertex, rhi, rlo], INF)
    on1 = np.select([flat & (b == 0.0), pit], [c <= 0.0, point], True)
    # A root below 0 moves to 0, and a piece then ending below 0 is
    # empty; a piece starting at a root that overflowed holds no psi.
    lo = np.maximum(np.column_stack([lo1, rhi]), 0.0)
    hi = np.column_stack([hi1, np.full(a.size, INF)])
    ok = np.column_stack([on1, cap]) & (hi >= lo) & (lo < INF)
    rows = np.broadcast_to(np.arange(a.size)[:, None], ok.shape)
    return _Pieces(*merge_pieces(lo[ok], hi[ok], rows[ok])), a.size


def _poly_roots(P: np.ndarray) -> np.ndarray:
    """Complex roots of every row's polynomial (highest power first),
    NaN-padded, computed as np.roots does: leading and trailing zero
    coefficients are stripped and the roots are the eigenvalues of the
    companion matrix. The stripped trailing zeros stand for roots at 0,
    which are left out here. Rows are stacked by effective degree, one
    eigvals call per degree."""
    m, w = P.shape
    out = np.full((m, w - 1), np.nan, dtype=complex)
    nz = P != 0.0
    first = np.argmax(nz, axis=1)
    span = np.where(nz.any(axis=1), w - np.argmax(nz[:, ::-1], axis=1) - first, 0)
    for k in range(2, w + 1):
        rows = np.flatnonzero(span == k)
        if rows.size == 0:
            continue
        p = P[rows[:, None], first[rows, None] + np.arange(k)]
        comp = np.zeros((rows.size, k - 1, k - 1))
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        comp[:, np.arange(1, k - 1), np.arange(k - 2)] = 1.0
        out[rows, : k - 1] = np.linalg.eigvals(comp)
    return out


def _solve_radical(lam: np.ndarray, rs: float):
    """{psi >= 0 : g(psi) <= 0} for every row (l1, ..., l5) of lam, g the
    radical form with the given r*, as (pieces, row count).

    On the hyperbola sqrt(psi) = c*sinh(t), sqrt(psi + r*) = c*cosh(t),
    c = sqrt(r*), w = e^t >= 1, 4*w^2*g is exactly the quartic
    (l1 + l3)*r* w^4 + 2c*(l2 + l4) w^3 + (4*l5 - 2*l1*r*) w^2
    + 2c*(l4 - l2) w + (l1 - l3)*r*. So g <= 0 where it is, and every
    sign change of g is a real root at w >= 1: w = 1 (psi = 0) and the
    real part of every root above 1 partition [1, inf), a spurious one
    only splitting a piece that merge_pieces joins again. A midpoint
    sign scan keeps the non-positive parts, mapped back through the
    increasing psi = (c*(w - 1)*(w + 1)/(2w))^2.
    """
    l1, l2, l3, l4, l5 = (col[:, None] for col in lam.T)
    m, c = lam.shape[0], math.sqrt(rs)

    def hyperbola(w):
        # (sqrt(psi), sqrt(psi + r*)) at w; w - 1 is exact on [1, 2]
        h = 0.5 / w
        return c * (w - 1.0) * (0.5 + h), c * (0.5 * w + h)

    with np.errstate(invalid="ignore", over="ignore"):
        w = _poly_roots(np.column_stack([
            (l1 + l3) * rs, 2.0 * c * (l2 + l4), 4.0 * l5 - 2.0 * l1 * rs,
            2.0 * c * (l4 - l2), (l1 - l3) * rs])).real
        ws = np.sort(np.hstack([np.ones((m, 1)), np.where(w > 1.0, w, np.nan)]), axis=1)
        ws[:, 1:][ws[:, 1:] == ws[:, :-1]] = np.nan  # exact duplicates
        ws = np.sort(ws, axis=1)  # NaN last
        nan = np.full((m, 1), np.nan)
        nxt = np.hstack([ws[:, 1:], nan])
        bounded = ~np.isnan(nxt)
        y, s = hyperbola(np.where(bounded, 0.5 * (ws + nxt), 2.0 * ws))
        g = l1 * y * y + l2 * y + l3 * y * s + l4 * s + l5
        # rounding may put a candidate's psi an ulp below the one before
        y = hyperbola(ws)[0]
        lo = np.maximum.accumulate(y * y, axis=1)
        hi = np.where(bounded, np.hstack([lo[:, 1:], nan]), INF)
        # NaN candidates fail g <= 0; a piece starting where psi overflows
        # holds no psi
        inside = (g <= 0.0) & (lo < INF)
    rows = np.broadcast_to(np.arange(m)[:, None], ws.shape)[inside]
    return _Pieces(*merge_pieces(lo[inside], hi[inside], rows)), m


def _never_positive(a, b, c) -> np.ndarray:
    """Whether a*t^2 + b*t + c < 0 for every t >= 0, row by row: c < 0,
    a <= 0, and either b <= 0 or the vertex value c - b^2/(4a) is
    negative, i.e. b^2 < 4ac.

    Exact for the coefficients as given, with no margin: the signs are
    read off exactly, 4*a is exact unless it overflows (excluded), each
    product is rounded once, and rounding is monotone, so fl(b*b) <
    fl(4a*c) only where b^2 < 4ac.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a4 = 4.0 * a
        vertex = (b * b < a4 * c) & (a4 > -INF)
    return (c < 0.0) & (a <= 0.0) & ((b <= 0.0) | vertex)


def _radical_met(lam: np.ndarray, rs: float) -> np.ndarray:
    """Rows (l1, ..., l5) of lam whose radical form is negative on all of
    psi >= 0.

    In y = sqrt(psi) the form is l1*y^2 + l2*y + (l3*y + l4)*s + l5 with
    s = sqrt(y^2 + r*) in [y, y + sqrt(r*)]. Linear in s, it lies below
    its larger value at the two ends of that range, the quadratics in y
    (l1+l3, l2+l4, l5) and (l1+l3, l2+l4+l3*sqrt(r*), l5+l4*sqrt(r*)); a
    row is met when both are never positive on y >= 0.

    Each summed coefficient is raised by 4 ulps of the sum of its terms'
    magnitudes, plus the smallest normal number. The exact sum is at
    most that: at most three roundings (the square root, the product
    and an addition) reach any term, 1.5 ulps of the magnitudes, and
    raising the rounded sum rounds once more (0.5 ulps); an underflowing
    product errs by less than the smallest normal number. The exact
    quadratics then lie below the raised ones on y >= 0, so a row is
    dropped only when its exact form is negative on all of psi >= 0.
    """
    l1, l2, l3, l4, l5 = lam.T
    srs = math.sqrt(rs)
    t3, t4 = l3 * srs, l4 * srs
    ulps = 4.0 * np.finfo(float).eps
    tiny = np.finfo(float).tiny

    def raised(*terms):
        return sum(terms) + (ulps * sum(map(np.abs, terms)) + tiny)

    a = raised(l1, l3)
    return _never_positive(a, raised(l2, l4), l5) & _never_positive(
        a, raised(l2, l4, t3), raised(l5, t4)
    )


@dataclass(frozen=True)
class KnownPath:
    """The perturbation x(psi) = psi*D + E of the known-variance test:
    D carries the tested directions scaled to sigma per unit psi, E is
    the frozen orthogonal part. x(psi_obs) reproduces the data."""

    D: np.ndarray
    E: np.ndarray
    psi_obs: float

    def at(self, psi: float) -> np.ndarray:
        return psi * self.D + self.E


@dataclass(frozen=True)
class UnknownPath:
    """The perturbation of the estimated-variance test. A, B, C are the
    unit-normalized projections onto the tested directions, the
    within-cluster spread, and the remainder; total_sq is the combined
    squared norm split between A and B as psi varies."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    total_sq: float
    r_star: float
    psi_obs: float

    def at(self, psi: float) -> np.ndarray:
        scale = math.sqrt(self.total_sq)
        s1 = math.sqrt(psi / (psi + self.r_star))
        s2 = math.sqrt(self.r_star / (psi + self.r_star))
        return scale * (s1 * self.A + s2 * self.B + self.C)


def known_path(X: DataMatrix, bundle: ProjectionBundle, sigma: float) -> KnownPath:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    proj, _ = split(bundle, X.values)
    nrm = float(np.linalg.norm(proj))
    if nrm == 0.0:
        raise NotAvailable("the data has no component along the tested directions")
    return KnownPath(D=sigma * proj / nrm, E=X.values - proj, psi_obs=nrm / sigma)


def unknown_path(X: DataMatrix, bundle: ProjectionBundle) -> UnknownPath:
    if bundle.d_star == 0:
        raise DegenerateWithin(
            "every cluster under test is a singleton; no within-cluster "
            "spread is available"
        )
    proj, within = split(bundle, X.values)
    npe = float(np.linalg.norm(proj))
    np1 = float(np.linalg.norm(within))
    if npe == 0.0:
        raise NotAvailable("the data has no component along the tested directions")
    if np1 == 0.0:
        raise NotAvailable("the clusters under test have no within-cluster spread")
    total_sq = npe * npe + np1 * np1
    rs = bundle.r_star
    return UnknownPath(
        A=proj / npe,
        B=within / np1,
        C=(X.values - proj - within) / math.sqrt(total_sq),
        total_sq=total_sq,
        r_star=rs,
        psi_obs=(npe * npe) / (np1 * np1) * rs,
    )


def _intersect_batches(batches, solve, met) -> IntervalUnion:
    """The intersection of the solution sets of every row of every batch,
    a batch being one coefficient array that solve turns into (pieces,
    row count). Batches (one per Lloyd step, one for the selection
    event) are built and solved one at a time against the running set,
    stopping once it is empty. Rows that met proves satisfied on all of
    psi >= 0 cannot bind the set and are never solved."""
    S = IntervalUnion.full()
    for rows in batches:
        live = ~met(rows)
        if not live.any():
            continue
        S = _intersect(S, *solve(rows[live]))
        if S.is_empty:
            break
    return S


def _cross_gram(U: np.ndarray, W: np.ndarray, Ubar: np.ndarray, Wbar: np.ndarray):
    # entry (i, l) = <U_i - Ubar_l, W_i - Wbar_l>
    return (
        (U * W).sum(axis=1)[:, None]
        - U @ Wbar.T
        - W @ Ubar.T
        + (Ubar * Wbar).sum(axis=1)[None, :]
    )


# Index pairs (u, w) of the Gram terms <U_u, U_w> each family needs: for
# the known-variance path (D, E) the terms dd, de, ee; for the
# estimated-variance path (A, B, C) the terms aa, bb, cc, ab, ac, bc.
# Term 2 is the frozen part's own term, ee or cc.
_QUAD_TERMS = ((0, 0), (0, 1), (1, 1))
_RADICAL_TERMS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _step_grams(trace: KMeansTrace, j: int, mats, norms, terms) -> list:
    """Per term (u, w), the Gram differences <U_i - Ubar_c, W_i - Wbar_c>
    - <U_i - Ubar_l, W_i - Wbar_l> of Lloyd step j, U = mats[u] and W =
    mats[w], for every point i with step-j label c and competitor l != c,
    flattened in (i, l) order. Step 0 compares against the initial
    center rows, later steps against the centroids of the previous
    step's labels.

    Given the row norms |U_i| of mats, a difference within _GRAM_ULPS
    times its two entries' rounding bounds is zeroed; given None, none
    is (the radical family clears its noise from the rows instead)."""
    curr, K = trace.assignments[j], trace.K
    rows = np.arange(curr.size)
    keep = np.ones((curr.size, K), dtype=bool)
    keep[rows, curr] = False

    def own_other(G):
        return np.repeat(G[rows, curr], K - 1), G[keep]

    bars = [step_centroids(U, trace, j) for U in mats]
    grams = [np.subtract(*own_other(_cross_gram(mats[u], mats[w], bars[u], bars[w])))
             for u, w in terms]
    if norms is None:
        return grams
    # |U_i| + |Ubar_l|: the Cauchy-Schwarz factors of _GRAM_ULPS
    reach = [np.add.outer(nrm, np.linalg.norm(Ubar, axis=1)) for nrm, Ubar in zip(norms, bars)]
    ulps = _GRAM_ULPS * (mats[0].shape[1] + 3) * np.finfo(float).eps
    for t, (u, w) in enumerate(terms):
        bound = ulps * np.add(*own_other(reach[u] * reach[w]))
        grams[t] = np.where(np.abs(grams[t]) <= bound, 0.0, grams[t])
    return grams


def _quad_rows(dd, de, ee) -> np.ndarray:
    """Rows (a, b, c) of a*psi^2 + b*psi + c from the Gram terms of a
    difference vector's D and E parts: its squared norm along the
    known-variance path."""
    return np.column_stack([dd, 2.0 * de, ee])


def _radical_rows(aa, bb, cc, ab, ac, bc, rs: float) -> np.ndarray:
    """Radical rows (l1, ..., l5) from the Gram terms of a difference
    vector's A, B, C parts: its squared norm along the estimated-variance
    path, normalized by the combined squared norm and cleared of the
    psi + r* denominator."""
    srs = math.sqrt(rs)
    return np.column_stack([aa + cc, 2.0 * srs * ab, 2.0 * ac, 2.0 * srs * bc, rs * (bb + cc)])


def _clean_radical(lam: np.ndarray, rs: float) -> np.ndarray:
    """Drop vacuous radical rows and zero the noise-level coefficients
    of the others."""
    scale = np.abs(lam).max(axis=1, initial=0.0)
    live = scale >= 1e-13 * max(1.0, rs)
    lam, scale = lam[live], scale[live]
    return np.where(np.abs(lam) < _COEFF_NOISE * scale[:, None], 0.0, lam)


def _pair_grams(mats, part: ClusterPartition, terms):
    """All pairs (k < k') and, per term (u, w), the inner products of the
    pairs' center differences of mats[u] and mats[w]."""
    diffs = [pair_center_diffs(U, part) for U in mats]
    return diffs[0][0], [(diffs[u][1] * diffs[w][1]).sum(axis=1) for u, w in terms]


def _selection_rows(V: PairSet, pairs, coef: np.ndarray, gamma):
    """The selection event of V.rule as rows of coef's form, each <= 0:
    coef[p] is the form of pair p's squared center distance and gamma
    that of the squared threshold (None for rank rules).

    Rank rules pin every selected pair ahead of every unselected one;
    threshold rules pin each pair to its own side of the threshold.
    """
    selected = np.array([p in V.pairs for p in pairs])
    sel, uns = coef[selected], coef[~selected]
    if V.rule.kind in ("top", "bottom"):
        # top: every unselected pair closer than every selected one
        rows = (uns[None, :, :] - sel[:, None, :]).reshape(-1, coef.shape[1])
        return rows if V.rule.kind == "top" else -rows
    rows = np.vstack([sel - gamma, gamma - uns])
    return -rows if V.rule.kind == "above" else rows


def truncation_set(
    path: KnownPath | UnknownPath,
    trace: KMeansTrace | None = None,
    selection: tuple[ClusterPartition, PairSet] | None = None,
) -> IntervalUnion:
    """The set S of psi >= 0 for which x(psi) = path.at(psi) reproduces
    every assignment of every Lloyd step of `trace` and, given
    `selection` = (partition, V), for which V.rule applied to x(psi) on
    that partition picks exactly the pairs of V.

    A KnownPath gives quadratic inequalities, an UnknownPath radical
    ones. Step 0 compares distances to the initial center rows of
    x(psi), later steps to the centroids of the previous step's labels;
    each comparison against a competitor cluster is one inequality.
    Every Lloyd step and the selection event are one batch each,
    intersected in one sweep. Leaving out `trace` or `selection` leaves
    out that event.
    """
    # The family: its path matrices (the last one frozen), Gram terms, the
    # form turning Gram terms into rows, the cleaning of those rows, and
    # the scale of a squared distance in the frozen part's own term.
    if isinstance(path, KnownPath):
        mats, terms, scale = (path.D, path.E), _QUAD_TERMS, 1.0
        norms = [np.linalg.norm(U, axis=1) for U in mats]
        form, clean = _quad_rows, lambda coef: coef
        solve, met = _solve_quad, lambda coef: _never_positive(*coef.T)
    else:
        rs = path.r_star
        mats, terms, scale = (path.A, path.B, path.C), _RADICAL_TERMS, path.total_sq
        norms = None
        form, clean = (lambda *g: _radical_rows(*g, rs)), (lambda lam: _clean_radical(lam, rs))
        solve, met = (lambda lam: _solve_radical(lam, rs)), (lambda lam: _radical_met(lam, rs))
    if selection is not None:
        part, V = selection
        if V.rule is None or not V.rule.is_data_dependent:
            raise ValueError("selection truncation applies to data-dependent rules only")
        if trace is not None and not np.array_equal(part.labels, trace.assignments[-1]):
            raise ValueError("the selection's partition is not the trace's final one")

    def batches():
        if trace is not None:
            for j in range(trace.J + 1):
                # formed in one expression, so no Gram array outlives its step
                yield clean(form(*_step_grams(trace, j, mats, norms, terms)))
        if selection is not None:
            # A pair's squared center distance is a Gram form of its center
            # differences, and the squared threshold t^2 that of a constant
            # t^2 / scale in the frozen part's own term.
            pairs, grams = _pair_grams(mats, part, terms)
            gamma = None
            if V.rule.threshold is not None:
                frozen = np.zeros((len(terms), 1))
                frozen[2] = V.rule.threshold**2 / scale
                gamma = form(*frozen)
            yield clean(_selection_rows(V, pairs, form(*grams), gamma))

    return _intersect_batches(batches(), solve, met)
