"""The batched inequality engine against the scalar oracles.

Row by row, the numpy solvers must return exactly the sets the scalar
solvers in oracles.py return; over whole Lloyd traces and selection
events, and over both together, the one-sweep intersection must return
the set that folding the oracle solutions through the scalar
interval_intersect returns.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cluster_sieve.core import INF, DataMatrix, Interval, IntervalUnion, NotAvailable
from cluster_sieve.inference import VarianceSpec
from cluster_sieve.kmeans import KMeansConfig, run_kmeans
from cluster_sieve.projection import build_projection
from cluster_sieve.selection import SelectionRule, select_pairs
from cluster_sieve.simulation import SimConfig, run_replicate
from cluster_sieve.truncation import (
    _clean_radical,
    _known_rows,
    _radical_rows,
    _selection_rows,
    _solve_quad,
    _solve_radical,
    _unknown_rows,
    known_path,
    truncation_set,
    unknown_path,
)
from cluster_sieve.selection import pair_center_diffs

from oracles import (
    QuadCoeffs,
    SqrtCoeffs,
    fold_intersection,
    quad_rows_set,
    radical_rows_set,
    solve_quad_leq,
    solve_sqrt_leq,
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
    for r, lo, hi, lc, hc in zip(*(f.tolist() for f in pieces)):
        rows[r].append(Interval(lo, hi, lc, hc))
    return [IntervalUnion(tuple(ivs)) for ivs in rows]


def assert_same_set(got: IntervalUnion, want: IntervalUnion, rel: float = 0.0):
    assert len(got.intervals) == len(want.intervals), (got, want)
    for g, w in zip(got.intervals, want.intervals):
        assert (g.lo_closed, g.hi_closed) == (w.lo_closed, w.hi_closed), (got, want)
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
    """(a, b, c, strict) mixing generic rows with exact double roots,
    negative roots and vanishing leading or linear terms."""
    strict = draw(st.booleans())
    if draw(st.integers(0, 3)) == 0:
        # a*(psi - r)^2 with dyadic a and r, so b^2 - 4ac is exactly 0
        a = draw(st.sampled_from([-4.0, -1.0, -0.5, 0.5, 1.0, 8.0])) * 2.0 ** draw(
            st.integers(-20, 20)
        )
        r = draw(st.integers(-16, 16)) / 4.0
        return a, -2.0 * a * r, a * r * r, strict
    return draw(coefficient), draw(coefficient), draw(coefficient), strict


class TestQuadRows:
    @SETTINGS
    @given(st.lists(quad_row(), min_size=1, max_size=12))
    def test_matches_the_scalar_solver_row_by_row(self, rows):
        coef = np.array([r[:3] for r in rows], dtype=float)
        strict = np.array([r[3] for r in rows])
        got = per_row(*_solve_quad(coef, strict))
        for (a, b, c, s), g in zip(rows, got):
            assert g == solve_quad_leq(QuadCoeffs(a, b, c), strict=s), (a, b, c, s)

    def test_degenerate_branches(self):
        coef = np.array([
            [0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],  # constant
            [1.0, -2.0, 1.0], [1.0, -2.0, 1.0],  # double root, a > 0
            [-1.0, 2.0, -1.0], [-1.0, 0.0, 0.0],  # double root, a < 0
            [-1.0, 3.0, -2.0], [1.0, 3.0, 2.0],  # two roots
        ])
        strict = np.array([False, False, True, False, True, True, True, False, False])
        got = per_row(*_solve_quad(coef, strict))
        for row, s, g in zip(coef, strict, got):
            assert g == solve_quad_leq(QuadCoeffs(*row), strict=bool(s))
        assert got[2].is_empty and got[4].is_empty and got[8].is_empty
        assert [(iv.lo, iv.hi) for iv in got[5]] == [(0.0, 1.0), (1.0, INF)]
        assert got[6] == IntervalUnion((Interval(0.0, INF, False, False),))


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

    def test_constant_and_linear_rows(self):
        lam = np.array([[0, 0, 0, 0, -1.0], [0, 0, 0, 0, 1.0], [1.0, 0, 0, 0, -4.0]])
        got = per_row(*_solve_radical(lam, 1.0))
        assert got[0] == IntervalUnion.full() and got[1].is_empty
        assert got[2].intervals[0].lo == 0.0
        assert got[2].intervals[0].hi == pytest.approx(4.0, abs=1e-9)


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
            rows, strict = _selection_rows(rule, V, pairs, coef, gamma)
            want = quad_rows_set(rows, strict)
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
            path = unknown_path(X, part, bundle)
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
            rows, _ = _selection_rows(rule, V, pair_center_diffs(path.A, part)[0], lam, gamma)
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
