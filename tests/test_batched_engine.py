"""The batched inequality engine against the scalar oracles.

Row by row, the numpy solvers must return exactly the sets the scalar
solvers in oracles.py return; over whole Lloyd traces and selection
events, and over both together, the one-sweep intersection must return
the set that folding the oracle solutions through the scalar
interval_intersect returns.
"""
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cluster_sieve.core import INF, DataMatrix, Interval, IntervalUnion, NotAvailable
from cluster_sieve.inference import VarianceSpec
from cluster_sieve.kmeans import KMeansConfig, run_kmeans
from cluster_sieve.projection import build_projection
from cluster_sieve.selection import SelectionRule, select_pairs
from cluster_sieve import truncation
from cluster_sieve.simulation import SimConfig, run_replicate
from cluster_sieve.truncation import (
    _clean_radical,
    _never_positive,
    _radical_met,
    _radical_rows,
    _selection_rows,
    _solve_quad,
    _solve_radical,
    known_path,
    truncation_set,
    unknown_path,
)
from cluster_sieve.selection import pair_center_diffs

from oracles import (
    QuadCoeffs,
    SqrtCoeffs,
    _known_rows,
    _selection_batch,
    _unknown_rows,
    fold_intersection,
    quad_rows_set,
    radical_rows_set,
    solve_quad_leq,
    solve_sqrt_leq,
    union_of,
)

# derandomize: every run draws the same examples, so the suite stays
# deterministic; explore fresh draws by running with derandomize=False.
SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def per_row(pieces, m):
    """The batched solver's pieces regrouped into one set per row."""
    rows = [[] for _ in range(m)]
    for r, lo, hi in zip(*(f.tolist() for f in pieces)):
        rows[r].append(Interval(lo, hi))
    return [union_of(tuple(ivs)) for ivs in rows]


def assert_same_set(got: IntervalUnion, want: IntervalUnion, rel: float = 0.0):
    assert len(got.intervals) == len(want.intervals), (got, want)
    for g, w in zip(got.intervals, want.intervals):
        for x, y in ((g.lo, w.lo), (g.hi, w.hi)):
            assert x == y or abs(x - y) <= rel * max(1.0, abs(y)), (got, want)


# A coefficient: exactly zero, or a signed value from 1e-6 to 1e7.
coefficient = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 10.0),
        st.integers(-6, 6),
    ),
)


@st.composite
def quad_row(draw):
    """(a, b, c) mixing generic rows with exact double roots, negative
    roots and vanishing leading or linear terms."""
    if draw(st.integers(0, 3)) == 0:
        # a*(psi - r)^2 with dyadic a and r, so b^2 - 4ac is exactly 0
        a = draw(st.sampled_from([-4.0, -1.0, -0.5, 0.5, 1.0, 8.0])) * 2.0 ** draw(
            st.integers(-20, 20)
        )
        r = draw(st.integers(-16, 16)) / 4.0
        return a, -2.0 * a * r, a * r * r
    return draw(coefficient), draw(coefficient), draw(coefficient)


class TestQuadRows:
    @SETTINGS
    @given(st.lists(quad_row(), min_size=1, max_size=12))
    def test_matches_the_scalar_solver_row_by_row(self, rows):
        coef = np.array(rows, dtype=float)
        got = per_row(*_solve_quad(coef))
        for (a, b, c), g in zip(rows, got):
            assert g == solve_quad_leq(QuadCoeffs(a, b, c)), (a, b, c)

    def test_degenerate_branches(self):
        coef = np.array([
            [0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0],  # constant
            [1.0, -2.0, 1.0], [1.0, 2.0, 1.0],  # double root, a > 0
            [-1.0, 2.0, -1.0], [-1.0, 0.0, 0.0],  # double root, a < 0
            [-1.0, 3.0, -2.0], [1.0, 3.0, 2.0],  # two roots
        ])
        got = per_row(*_solve_quad(coef))
        for row, g in zip(coef, got):
            assert g == solve_quad_leq(QuadCoeffs(*row))
        assert got[2].is_empty and got[4].is_empty and got[8].is_empty
        assert got[0] == got[1] == got[5] == got[6] == IntervalUnion.full()
        assert [(iv.lo, iv.hi) for iv in got[3].intervals] == [(1.0, 1.0)]
        assert [(iv.lo, iv.hi) for iv in got[7].intervals] == [(0.0, 1.0), (2.0, INF)]


@st.composite
def radical_rows(draw):
    m = draw(st.integers(1, 8))
    lam = [[draw(coefficient) for _ in range(5)] for _ in range(m)]
    return np.array(lam), draw(st.floats(0.05, 40.0))


class TestRadicalRows:
    @SETTINGS
    @given(radical_rows())
    def test_matches_the_scalar_solver_row_by_row(self, drawn):
        lam, rs = drawn
        got = per_row(*_solve_radical(lam, rs))
        for row, g in zip(lam, got):
            want = solve_sqrt_leq(SqrtCoeffs(*row, r_star=rs))
            # the scalar solver squares the last candidate with ** 2,
            # which may differ from y * y in the last bit
            assert_same_set(g, want, rel=4 * np.finfo(float).eps)

    def test_root_at_large_scale_is_kept(self):
        # g(y) = -3e6*y + 1e-3*y*sqrt(y^2 + 1) - 1 crosses 0 near y = 3e9,
        # where its terms reach 1e16 and the root's residual is 2: an
        # absolute residual tolerance of 1 lost the root and gave [0, inf)
        lam = np.array([[0.0, -3e6, 1e-3, 0.0, -1.0]])
        g = SqrtCoeffs(*lam[0], r_star=1.0)
        got = per_row(*_solve_radical(lam, 1.0))[0]
        assert_same_set(got, solve_sqrt_leq(g), rel=4 * np.finfo(float).eps)
        (iv,) = got.intervals
        assert iv.lo == 0.0 and iv.hi == pytest.approx(9e18, rel=1e-6)
        assert g.value(0.0) < 0.0 and g.value(0.5 * iv.hi) < 0.0
        assert g.value(iv.hi * (1 - 1e-9)) < 0.0 < g.value(iv.hi * (1 + 1e-9))
        assert g.value(2.0 * iv.hi) > 0.0

    def test_constant_and_linear_rows(self):
        lam = np.array([[0, 0, 0, 0, -1.0], [0, 0, 0, 0, 1.0], [1.0, 0, 0, 0, -4.0]])
        got = per_row(*_solve_radical(lam, 1.0))
        assert got[0] == IntervalUnion.full() and got[1].is_empty
        assert got[2].intervals[0].lo == 0.0
        assert got[2].intervals[0].hi == pytest.approx(4.0, abs=1e-9)


# Rounding-edge magnitudes: the smallest subnormal, the smallest normal,
# a tiny normal, and one ulp of 1.
TINY = st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, np.finfo(float).eps])


def _nudge(x, ulps):
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return float(x)


def _edge_quadratic(draw, ulps):
    """(a, b, c) with a, c < 0 and b within `ulps` ulps of sqrt(4ac), or
    with c = -tiny, or a = +-tiny."""
    a = -draw(st.floats(1e-3, 1e3))
    c = -draw(st.floats(1e-3, 1e3))
    b = _nudge(math.sqrt(4.0 * a * c), draw(st.integers(-ulps, ulps)))
    kind = draw(st.integers(0, 2))
    if kind == 1:
        c = -draw(TINY)
    elif kind == 2:
        a = draw(st.sampled_from([-1.0, 1.0])) * draw(TINY)
    return a, b, c


@st.composite
def edge_quad_row(draw):
    """(a, b, c) on the screen's edges: b^2 = 4ac within two ulps of b,
    c = -tiny, or a = +-tiny."""
    return _edge_quadratic(draw, 2)


@st.composite
def edge_radical_row(draw):
    """A radical row whose larger bounding quadratic is one of the edge
    quadratics, b nudged by up to 64 ulps to straddle the screen's
    rounding margin, with r* drawn so that its square root is mostly
    inexact."""
    rs = draw(st.sampled_from([2.0, 3.0, 0.1, 1.0 / 3.0, 7.5]))
    srs = math.sqrt(rs)
    a, b, c = _edge_quadratic(draw, 64)
    scale = st.sampled_from([0.0, 1e-3, 0.5, 1.0])
    l3, l4 = draw(scale) * abs(a), draw(scale) * abs(b)
    if draw(st.booleans()):
        # s = y + sqrt(r*) is the larger end: (l1+l3, l2+l4+l3*sqrt(r*),
        # l5+l4*sqrt(r*)) is near (a, b, c)
        row = [a - l3, b - l4 - l3 * srs, l3, l4, c - l4 * srs]
    else:
        # s = y is the larger end: (l1+l3, l2+l4, l5) is near (a, b, c)
        row = [a + l3, b + l4, -l3, -l4, c]
    return np.array([row]), rs


def exact_never_positive(a, b, c):
    return c < 0 and a <= 0 and (b <= 0 or b * b < 4 * a * c)


def exact_sqrt(x: float) -> Fraction:
    with mpmath.workprec(400):
        man, exp = mpmath.sqrt(mpmath.mpf(x)).man_exp
    return Fraction(man) * Fraction(2) ** exp


class TestAlwaysMetScreen:
    """The screen drops only rows whose solution set is all of psi >= 0."""

    @SETTINGS
    @given(st.lists(st.one_of(quad_row(), edge_quad_row()), min_size=1, max_size=12))
    def test_dropped_quadratic_rows_hold_everywhere(self, rows):
        coef = np.array(rows, dtype=float)
        for (a, b, c), met in zip(rows, _never_positive(*coef.T)):
            if met:
                assert exact_never_positive(*map(Fraction, (a, b, c))), (a, b, c)
                assert solve_quad_leq(QuadCoeffs(a, b, c)) == IntervalUnion.full(), (a, b, c)

    @SETTINGS
    @given(st.one_of(radical_rows(), edge_radical_row()))
    def test_dropped_radical_rows_hold_everywhere(self, drawn):
        lam, rs = drawn
        srs = exact_sqrt(rs)
        for row, met in zip(lam, _radical_met(lam, rs)):
            if met:
                # the exact bounding quadratics in y = sqrt(psi)
                l1, l2, l3, l4, l5 = map(Fraction, row)
                assert exact_never_positive(l1 + l3, l2 + l4, l5), row
                assert exact_never_positive(l1 + l3, l2 + l4 + l3 * srs, l5 + l4 * srs), row
                want = solve_sqrt_leq(SqrtCoeffs(*row, r_star=rs))
                assert want == IntervalUnion.full(), (row, rs)

    def test_rounding_edges(self):
        # b^2 one ulp either side of 4ac, and exactly 4ac (a double root
        # at t = 1, where the form is 0): only the side below is dropped
        a, c = -1.0, -0.5
        b = math.sqrt(2.0)
        rows = np.array([[a, _nudge(b, -1), c], [a, _nudge(b, 1), c], [-1.0, 2.0, -1.0],
                         [0.0, 0.0, -5e-324], [5e-324, -1.0, -1.0], [0.0, 5e-324, -1.0],
                         [-1e308, 1.0, -1.0]])
        got = _never_positive(*rows.T)
        want = [exact_never_positive(*map(Fraction, r)) for r in rows]
        assert want == [True, False, False, True, False, False, True]
        # 4a overflows on the last row, which is then kept, not dropped
        assert got.tolist() == want[:-1] + [False]
        # l1 + l3 = 0 exactly: the form is l2*y + l4*s + l5 + l3*y*(s - y),
        # bounded, but the screen cannot prove it negative and keeps it
        keep = np.array([[-1.0, -1.0, 1.0, 0.0, -1.0]])
        assert not _radical_met(keep, 2.0)[0]

    @pytest.mark.parametrize("rs", [2.0, 3.0, 0.1, 1.0 / 3.0, 7.5])
    def test_margin_covers_the_rounding_of_the_sums(self, rs):
        # Rows whose larger bounding quadratic has b from 40 ulps below to
        # 6 ulps above sqrt(4ac), spread over l1..l5 so that forming the
        # sums rounds: many are dropped, and each dropped row's exact
        # quadratics are never positive. Without the margin some are not.
        rng = np.random.default_rng(5)
        m, srs = 2000, math.sqrt(rs)
        a, c = -rng.uniform(1e-3, 1e3, m), -rng.uniform(1e-3, 1e3, m)
        b = np.sqrt(4.0 * a * c) * (1.0 + rng.integers(-40, 7, m) * np.finfo(float).eps)
        l3 = rng.choice([0.0, 1e-3, 0.5, 1.0, 3.0], m) * -a
        l4 = rng.choice([0.0, 1e-3, 0.5, 1.0, 3.0], m) * b
        lam = np.where(
            (rng.random(m) < 0.5)[:, None],
            np.column_stack([a - l3, b - l4 - l3 * srs, l3, l4, c - l4 * srs]),
            np.column_stack([a + l3, b + l4, -l3, -l4, c]),
        )
        met = _radical_met(lam, rs)
        assert met.sum() > m / 4
        srs = exact_sqrt(rs)
        for row in lam[met]:
            l1, l2, l3, l4, l5 = map(Fraction, row)
            assert exact_never_positive(l1 + l3, l2 + l4, l5), row
            assert exact_never_positive(l1 + l3, l2 + l4 + l3 * srs, l5 + l4 * srs), row

    def test_benchmark_shaped_instance(self):
        # n=400, q=10, K=8 in shifted groups, top-3 selected and accounted
        # for, unknown sigma, 6 Lloyd steps: the screened sweep gives the
        # set of the unscreened oracle fold, and most rows are dropped
        n, q, K = 400, 10, 8
        rng = np.random.default_rng(2)
        x = rng.standard_normal((n, q))
        x[np.arange(n), (np.arange(n) % K) % q] += 2.0
        X = DataMatrix(x)
        init = tuple(int(i) for i in rng.choice(n, K, replace=False))
        trace = run_kmeans(X, KMeansConfig(K=K, init_indices=init, max_iter=5))
        assert trace.J + 1 == 6
        part = trace.final_partition()
        V = select_pairs(X, part, SelectionRule.top_g(3))
        path = unknown_path(X, build_projection(part, V, q))
        rs = path.r_star
        batches = [_unknown_rows(trace, path, j) for j in range(trace.J + 1)]
        batches.append(_selection_batch(path, part, V))
        want = fold_intersection(radical_rows_set(lam, rs) for lam in batches)
        got = truncation_set(path, trace, selection=(part, V))
        assert_same_set(got, want, rel=1e-12)
        dropped = sum(int(_radical_met(lam, rs).sum()) for lam in batches)
        total = sum(len(lam) for lam in batches)
        assert dropped > total / 2, (dropped, total)


def _instance(seed, n, q, K, scale, duplicate):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n, q))
    if duplicate:
        x[1] = x[0]
    X = DataMatrix(x)
    try:
        trace = run_kmeans(X, KMeansConfig(K=K, seed=seed, max_iter=int(rng.integers(1, 6))))
    except NotAvailable:
        return None
    return X, trace


instances = st.builds(
    _instance,
    st.integers(0, 10_000),
    st.integers(6, 24),
    st.integers(1, 3),
    st.integers(2, 4),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.booleans(),
)
RULES = {
    "fixed_all": lambda K: SelectionRule.fixed_all(K),
    "top_g": lambda K: SelectionRule.top_g(1),
    "bottom_g": lambda K: SelectionRule.bottom_g(1),
    "above": lambda K: SelectionRule.threshold_above(1.0),
    "below": lambda K: SelectionRule.threshold_below(1.0),
}


def _bundle(X, trace, rule):
    part = trace.final_partition()
    try:
        V = select_pairs(X, part, rule)
        return part, V, build_projection(part, V, X.q)
    except (NotAvailable, ValueError):
        return None


class TestIntersectionAgainstFold:
    @SETTINGS
    @given(instances, st.sampled_from(sorted(RULES)))
    def test_known_sigma_sets(self, inst, rule_name):
        assume(inst is not None)
        X, trace = inst
        rule = RULES[rule_name](trace.K)
        built = _bundle(X, trace, rule)
        assume(built is not None)
        part, V, bundle = built
        try:
            path = known_path(X, bundle, 1.0)
        except NotAvailable:
            assume(False)
        steps = [quad_rows_set(_known_rows(trace, path, j)) for j in range(trace.J + 1)]
        assert_same_set(truncation_set(path, trace), fold_intersection(steps), rel=1e-12)
        if rule.is_data_dependent:
            pairs, dD = pair_center_diffs(path.D, part)
            _, dE = pair_center_diffs(path.E, part)
            coef = np.column_stack(
                [(dD**2).sum(axis=1), 2.0 * (dD * dE).sum(axis=1), (dE**2).sum(axis=1)]
            )
            gamma = None if rule.threshold is None else np.array([0.0, 0.0, rule.threshold**2])
            want = quad_rows_set(_selection_rows(V, pairs, coef, gamma))
            assert_same_set(truncation_set(path, selection=(part, V)), want, rel=1e-12)
            both = truncation_set(path, trace, selection=(part, V))
            assert_same_set(both, fold_intersection(steps + [want]), rel=1e-12)

    @SETTINGS
    @given(instances, st.sampled_from(sorted(RULES)))
    def test_unknown_sigma_sets(self, inst, rule_name):
        assume(inst is not None)
        X, trace = inst
        rule = RULES[rule_name](trace.K)
        built = _bundle(X, trace, rule)
        assume(built is not None)
        part, V, bundle = built
        try:
            path = unknown_path(X, bundle)
        except NotAvailable:
            assume(False)
        rs = path.r_star
        steps = [radical_rows_set(_unknown_rows(trace, path, j), rs) for j in range(trace.J + 1)]
        assert_same_set(truncation_set(path, trace), fold_intersection(steps), rel=1e-12)
        if rule.is_data_dependent:
            diffs = [pair_center_diffs(U, part)[1] for U in (path.A, path.B, path.C)]
            lam = _radical_rows(*(
                (diffs[u] * diffs[w]).sum(axis=1)
                for u, w in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
            ), rs)
            gamma = None
            if rule.threshold is not None:
                t2 = rule.threshold**2 / path.total_sq
                gamma = np.array([t2, 0.0, 0.0, 0.0, rs * t2])
            rows = _selection_rows(V, pair_center_diffs(path.A, part)[0], lam, gamma)
            want = radical_rows_set(_clean_radical(rows, rs), rs)
            assert_same_set(truncation_set(path, selection=(part, V)), want, rel=1e-12)
            both = truncation_set(path, trace, selection=(part, V))
            assert_same_set(both, fold_intersection(steps + [want]), rel=1e-12)


class TestNoiseLevelCoefficients:
    def test_vacuous_inequalities_leave_the_set_unbounded(self):
        # Replicate 95 of this null study has a step-0 inequality whose
        # exact b is 0 (a point sharing its tested component with both
        # centers); computed, b is 3.5e-18, which used to bound S at
        # psi = 2.7e16.
        cfg = SimConfig(
            n=60, q=2, K=3, sigma=1.0, mu_kind="null", delta=0.0, replicates=1,
            rule=SelectionRule.fixed_all(3), variance=VarianceSpec.known(1.0),
            master_seed=1000,
        )
        res = run_replicate(cfg, 95)
        assert res.truncation.intervals[-1].hi == INF
        assert res.p_value == pytest.approx(0.045012264511313106, rel=1e-12, abs=0)


class TestClosedSets:
    def test_an_end_set_by_a_selection_tie_keeps_the_pvalue(self):
        # Replicate 10 of this accounted top-1 study has S bounded below
        # by a selection row, whose exact event (a strict ranking of the
        # pair distances) leaves that end out: the set used to report it
        # open. Taken closed, the ends and the p-value are the same.
        cfg = SimConfig(
            n=60, q=2, K=3, sigma=1.0, mu_kind="null", delta=0.0, replicates=1,
            rule=SelectionRule.top_g(1), variance=VarianceSpec.known(1.0),
            account_selection=True, master_seed=1000,
        )
        res = run_replicate(cfg, 10)
        (iv,) = res.truncation.intervals
        assert iv.lo == pytest.approx(6.351004768622, rel=1e-15, abs=0)
        assert iv.hi == pytest.approx(6.4694080848578785, rel=1e-15, abs=0)
        assert res.p_value == pytest.approx(0.5712200289924428, rel=1e-15, abs=0)


def built_batches(path, trace, selection=None):
    """The row batches truncation_set builds, in order: one per Lloyd
    step, then the selection event's, taken where the sweep reads them."""
    seen = []

    def capture(batches, solve, met):
        seen.extend(batches)
        return IntervalUnion.full()

    with mock.patch.object(truncation, "_intersect_batches", capture):
        truncation_set(path, trace, selection)
    return seen


class TestRowBuilder:
    """The one row builder gives, step by step, the rows of the per-family
    reference builders in oracles.py."""

    @SETTINGS
    @given(instances, st.sampled_from(sorted(RULES)), st.booleans())
    def test_rows_equal_the_per_step_reference(self, inst, rule_name, known):
        assume(inst is not None)
        X, trace = inst
        rule = RULES[rule_name](trace.K)
        built = _bundle(X, trace, rule)
        assume(built is not None)
        part, V, bundle = built
        try:
            path = known_path(X, bundle, 1.0) if known else unknown_path(X, bundle)
        except NotAvailable:
            assume(False)
        selection = (part, V) if rule.is_data_dependent else None
        got = built_batches(path, trace, selection)
        step_rows = _known_rows if known else _unknown_rows
        want = [step_rows(trace, path, j) for j in range(trace.J + 1)]
        assert len(got) == len(want) + (selection is not None)
        for j, w in enumerate(want):
            assert np.array_equal(got[j], w), j
        if selection is None:
            return
        g, w = got[-1], _selection_batch(path, part, V)
        if known or rule.threshold is None:
            assert np.array_equal(g, w)
        else:
            # The F test's threshold row differs in one rounding: its last
            # coefficient is r* * (t^2 / total_sq), where the reference
            # forms (r* * t^2) / total_sq.
            assert g.shape == w.shape
            scale = np.abs(w).max(axis=1, keepdims=True)
            assert np.all(np.abs(g - w) <= 1e-15 * scale), (g, w)
