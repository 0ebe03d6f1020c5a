"""Scalar oracle solvers, perturbation paths, and truncation sets.

The ground truth throughout is direct evaluation: solver outputs are
compared against the sign of the constraint at sample points, and the
truncation sets against replaying the clustering (and selection) on the
perturbed matrix.
"""
import numpy as np
import pytest

from cluster_sieve.core import (
    INF,
    ClusterPartition,
    DataMatrix,
    IntervalUnion,
    interval_contains,
)
from cluster_sieve.kmeans import replay_matches
from cluster_sieve.projection import PairSet, build_projection, split
from cluster_sieve.selection import SelectionRule, select_pairs
from cluster_sieve.truncation import known_path, truncation_set, unknown_path

from conftest import traced_instance
from oracles import QuadCoeffs, SqrtCoeffs, solve_quad_leq, solve_sqrt_leq


def spans(u: IntervalUnion):
    return [(iv.lo, iv.hi) for iv in u.intervals]


class TestSolveQuad:
    def test_two_roots_positive_leading(self):
        got = solve_quad_leq(QuadCoeffs(1.0, -3.0, 2.0))
        assert spans(got) == [(1.0, 2.0)]

    def test_negative_leading_splits(self):
        # -(psi-1)(psi-2) <= 0 on [0,1] u [2,inf)
        got = solve_quad_leq(QuadCoeffs(-1.0, 3.0, -2.0))
        assert spans(got) == [(0.0, 1.0), (2.0, INF)]

    def test_linear_cases(self):
        assert spans(solve_quad_leq(QuadCoeffs(0.0, 1.0, -1.0))) == [(0.0, 1.0)]
        assert spans(solve_quad_leq(QuadCoeffs(0.0, -1.0, 1.0))) == [(1.0, INF)]

    def test_constant_cases(self):
        assert solve_quad_leq(QuadCoeffs(0.0, 0.0, -1.0)) == IntervalUnion.full()
        assert solve_quad_leq(QuadCoeffs(0.0, 0.0, 1.0)).is_empty
        assert solve_quad_leq(QuadCoeffs(0.0, 0.0, 0.0)) == IntervalUnion.full()

    def test_no_real_roots(self):
        assert solve_quad_leq(QuadCoeffs(1.0, 0.0, 1.0)).is_empty
        assert solve_quad_leq(QuadCoeffs(-1.0, 0.0, -1.0)) == IntervalUnion.full()

    def test_double_root(self):
        got = solve_quad_leq(QuadCoeffs(1.0, -2.0, 1.0))
        assert spans(got) == [(1.0, 1.0)]

    def test_roots_below_zero_are_clipped(self):
        got = solve_quad_leq(QuadCoeffs(1.0, 3.0, 2.0))  # roots -1, -2
        assert got.is_empty
        got2 = solve_quad_leq(QuadCoeffs(1.0, -1.0, -2.0))  # roots -1, 2
        assert spans(got2) == [(0.0, 2.0)]

    def test_randomized_against_sign_evaluation(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 8.0, 163)
        for _ in range(300):
            a, b, c = rng.uniform(-3, 3, size=3)
            if rng.random() < 0.2:
                a = 0.0
            coeffs = QuadCoeffs(a, b, c)
            got = solve_quad_leq(coeffs)
            for x in grid:
                val = a * x * x + b * x + c
                if abs(val) < 1e-9:
                    continue
                assert interval_contains(got, x) == (val <= 0.0), (
                    f"a={a} b={b} c={c} x={x} val={val}"
                )


class TestSolveSqrt:
    def g(self, c: SqrtCoeffs, psi: float) -> float:
        rp = np.sqrt(psi + c.r_star)
        sp = np.sqrt(psi)
        return (
            c.l1 * psi + c.l2 * sp + c.l3 * sp * rp + c.l4 * rp + c.l5
        )

    def test_constant_branches(self):
        full = solve_sqrt_leq(SqrtCoeffs(0, 0, 0, 0, -1.0, r_star=2.0))
        assert full == IntervalUnion.full()
        assert solve_sqrt_leq(SqrtCoeffs(0, 0, 0, 0, 1.0, r_star=2.0)).is_empty

    def test_simple_increasing_form(self):
        # psi - 4 <= 0
        got = solve_sqrt_leq(SqrtCoeffs(1.0, 0, 0, 0, -4.0, r_star=1.0))
        assert len(got.intervals) == 1
        lo, hi = got.intervals[0].lo, got.intervals[0].hi
        assert lo == 0.0 and hi == pytest.approx(4.0, abs=1e-9)

    def test_randomized_against_direct_evaluation(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 12.0, 131)
        for _ in range(250):
            lam = rng.uniform(-2, 2, size=5)
            rs = float(rng.uniform(0.1, 30.0))
            c = SqrtCoeffs(*lam, r_star=rs)
            got = solve_sqrt_leq(c)
            for x in grid:
                val = self.g(c, x)
                if abs(val) < 1e-7:
                    continue
                assert interval_contains(got, x) == (val <= 0.0), (
                    f"lam={lam} rs={rs} x={x} val={val}"
                )

    def test_membership_survives_large_psi(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            lam = rng.uniform(-1, 1, size=5)
            rs = float(rng.uniform(0.5, 5.0))
            c = SqrtCoeffs(*lam, r_star=rs)
            got = solve_sqrt_leq(c)
            for x in (1e4, 1e6):
                val = self.g(c, x)
                if abs(val) < 1e-3:
                    continue
                assert interval_contains(got, x) == (val <= 0.0)


class TestKnownPath:
    def setup_bundle(self, seed=0, n=24, q=2, K=3):
        X, trace = traced_instance(seed, n, q, K)
        part = trace.final_partition()
        V = PairSet(tuple(SelectionRule.fixed_all(K).pairs), K)
        bundle = build_projection(part, V, q)
        return X, trace, part, bundle

    def test_path_reproduces_data_at_observed_psi(self):
        X, trace, part, bundle = self.setup_bundle()
        path = known_path(X, bundle, sigma=1.0)
        np.testing.assert_allclose(path.at(path.psi_obs), X.values, atol=1e-10)

    def test_statistic_is_scaled_projection_norm(self):
        X, trace, part, bundle = self.setup_bundle(seed=3)
        sigma = 0.7
        path = known_path(X, bundle, sigma)
        want = np.linalg.norm(split(bundle, X.values)[0]) / sigma
        assert path.psi_obs == pytest.approx(want, rel=1e-12)

    def test_path_at_zero_removes_tested_component(self):
        X, trace, part, bundle = self.setup_bundle(seed=5)
        path = known_path(X, bundle, 1.0)
        np.testing.assert_allclose(
            split(bundle, path.at(0.0))[0], 0.0, atol=1e-10
        )

    def test_sigma_must_be_positive(self):
        X, trace, part, bundle = self.setup_bundle(seed=7)
        with pytest.raises(ValueError):
            known_path(X, bundle, 0.0)


class TestUnknownPath:
    def test_path_reproduces_data_at_observed_psi(self):
        X, trace = traced_instance(11, 21, 3, 3)
        part = trace.final_partition()
        bundle = build_projection(part, PairSet(((0, 1),), 3), 3)
        path = unknown_path(X, bundle)
        np.testing.assert_allclose(path.at(path.psi_obs), X.values, atol=1e-9)

    def test_statistic_is_the_variance_ratio(self):
        X, trace = traced_instance(2, 24, 2, 2)
        part = trace.final_partition()
        bundle = build_projection(part, PairSet(((0, 1),), 2), 2)
        path = unknown_path(X, bundle)
        num = np.linalg.norm(split(bundle, X.values)[0]) ** 2 / bundle.d
        cent = X.values.copy()
        for k in range(2):
            mask = part.labels == k
            cent[mask] -= cent[mask].mean(axis=0)
        den = np.linalg.norm(cent) ** 2 / bundle.d_star
        assert path.psi_obs == pytest.approx(num / den, rel=1e-10)


def grid_against_replay(X, trace, S, path, n_grid=160, endpoint_tol=1e-6):
    """Check analytic membership against replaying the clustering on
    the perturbed matrix across a psi grid."""
    endpoints = [iv.lo for iv in S.intervals] + [
        iv.hi for iv in S.intervals if np.isfinite(iv.hi)
    ]
    top = max(3.0 * path.psi_obs, 1.0)
    disagreements = 0
    for psi in np.linspace(0.0, top, n_grid):
        if endpoints and min(abs(psi - e) for e in endpoints) < endpoint_tol:
            continue
        analytic = interval_contains(S, psi)
        replay = replay_matches(DataMatrix(path.at(psi)), trace)
        if analytic != replay:
            disagreements += 1
    return disagreements


def grid_selection_against_replay(
    part, S_sel, path, rule, V, n_grid=160, endpoint_tol=1e-6
):
    """Membership in the selection set versus re-running the selection
    on the perturbed matrix under the observed partition. The set
    encodes the rule applied to x(psi) with fixed labels, so the
    comparison is valid at every psi, not only on the clustering
    event."""
    endpoints = [iv.lo for iv in S_sel.intervals] + [
        iv.hi for iv in S_sel.intervals if np.isfinite(iv.hi)
    ]
    top = max(3.0 * path.psi_obs, 1.0)
    disagreements = 0
    checked = 0
    for psi in np.linspace(0.0, top, n_grid):
        if endpoints and min(abs(psi - e) for e in endpoints) < endpoint_tol:
            continue
        A = DataMatrix(path.at(psi))
        checked += 1
        try:
            got = select_pairs(A, part, rule).pairs == V.pairs
        except Exception:
            got = False
        if interval_contains(S_sel, psi) != got:
            disagreements += 1
    return disagreements, checked


class TestKnownSigmaTruncation:
    def test_contains_the_observed_statistic(self):
        for seed in (0, 1, 2, 3):
            X, trace = traced_instance(seed, 18, 2, 2)
            part = trace.final_partition()
            bundle = build_projection(part, PairSet(((0, 1),), 2), 2)
            path = known_path(X, bundle, 1.0)
            S = truncation_set(path, trace)
            assert interval_contains(S, path.psi_obs, tol=1e-9)

    def test_replay_oracle_agreement(self):
        total = 0
        for seed in range(6):
            X, trace = traced_instance(seed, 16, 2, 2)
            part = trace.final_partition()
            bundle = build_projection(part, PairSet(((0, 1),), 2), 2)
            path = known_path(X, bundle, 1.0)
            S = truncation_set(path, trace)
            total += grid_against_replay(X, trace, S, path)
        assert total == 0

    def test_sigma_rescaling_rescales_the_set(self):
        X, trace = traced_instance(4, 16, 2, 2)
        part = trace.final_partition()
        bundle = build_projection(part, PairSet(((0, 1),), 2), 2)
        S1 = truncation_set(known_path(X, bundle, 1.0), trace)
        S2 = truncation_set(known_path(X, bundle, 2.0), trace)
        for a, b in zip(S1.intervals, S2.intervals):
            assert a.lo == pytest.approx(2.0 * b.lo, rel=1e-9, abs=1e-12)
            if np.isfinite(a.hi):
                assert a.hi == pytest.approx(2.0 * b.hi, rel=1e-9)


class TestUnknownSigmaTruncation:
    def test_contains_statistic_and_replay_agreement(self):
        total = 0
        for seed in (0, 5, 9):
            X, trace = traced_instance(seed, 15, 2, 2)
            part = trace.final_partition()
            bundle = build_projection(part, PairSet(((0, 1),), 2), 2)
            path = unknown_path(X, bundle)
            S = truncation_set(path, trace)
            assert interval_contains(S, path.psi_obs, tol=1e-9)
            total += grid_against_replay(X, trace, S, path, n_grid=120)
        assert total == 0


class TestSelectionTruncation:
    @pytest.mark.parametrize(
        "rule_factory",
        [
            lambda: SelectionRule.top_g(1),
            lambda: SelectionRule.bottom_g(1),
            lambda: SelectionRule.threshold_above(0.5),
            lambda: SelectionRule.threshold_below(50.0),
        ],
    )
    def test_known_selection_replay(self, rule_factory):
        rule = rule_factory()
        done = 0
        seed = 0
        while done < 3 and seed < 30:
            seed += 1
            try:
                X, trace = traced_instance(seed, 18, 2, 3)
                part = trace.final_partition()
                V = select_pairs(X, part, rule)
                bundle = build_projection(part, V, 2)
            except Exception:
                continue
            path = known_path(X, bundle, 1.0)
            S_sel = truncation_set(path, selection=(part, V))
            assert interval_contains(S_sel, path.psi_obs, tol=1e-9)
            bad, checked = grid_selection_against_replay(
                part, S_sel, path, rule, V
            )
            assert bad == 0 and checked > 100
            done += 1
        assert done == 3

    def test_unknown_selection_replay(self):
        rule = SelectionRule.top_g(1)
        done = 0
        seed = 100
        while done < 3 and seed < 140:
            seed += 1
            try:
                X, trace = traced_instance(seed, 15, 2, 3)
                part = trace.final_partition()
                V = select_pairs(X, part, rule)
                bundle = build_projection(part, V, 2)
            except Exception:
                continue
            path = unknown_path(X, bundle)
            S_sel = truncation_set(path, selection=(part, V))
            assert interval_contains(S_sel, path.psi_obs, tol=1e-9)
            bad, checked = grid_selection_against_replay(
                part, S_sel, path, rule, V, n_grid=120
            )
            assert bad == 0 and checked > 80
            done += 1
        assert done == 3

    def test_fixed_rule_rejected(self):
        X, trace = traced_instance(3, 16, 2, 2)
        part = trace.final_partition()
        V = select_pairs(X, part, SelectionRule.fixed([(0, 1)]))
        path = known_path(X, build_projection(part, V, 2), 1.0)
        with pytest.raises(ValueError):
            truncation_set(path, trace, selection=(part, V))

    def test_partition_must_be_the_final_one(self):
        X, trace = traced_instance(3, 18, 2, 3)
        part = trace.final_partition()
        V = select_pairs(X, part, SelectionRule.top_g(1))
        path = known_path(X, build_projection(part, V, 2), 1.0)
        other = ClusterPartition(np.roll(part.labels, 1), part.K)
        with pytest.raises(ValueError):
            truncation_set(path, trace, selection=(other, V))
