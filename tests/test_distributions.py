"""Survival functions, log-space tails, and truncated p-values.

Expected values are frozen from 60-digit computations with mpmath
(regularized incomplete gamma/beta), independent of the scipy routines
the library uses internally.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from cluster_sieve.core import INF, Interval, IntervalUnion, ZeroMassSet
from cluster_sieve.distributions import (
    TruncatedDistSpec,
    chi_survival,
    chisq_survival,
    f_survival,
    f_to_chisq_approx,
    log_chi_survival,
    log_chisq_survival,
    log_f_survival,
    truncated_survival,
    truncated_survival_info,
)


def U(*pairs):
    return IntervalUnion.from_pairs(pairs)


class TestSurvival:
    def test_chi_frozen_values(self):
        assert chi_survival(2.5, 3) == pytest.approx(
            0.10006083311939495714, rel=1e-14
        )
        assert chi_survival(0.7, 1) == pytest.approx(
            0.48392730444614605723, rel=1e-14
        )
        assert chi_survival(4.0, 10) == pytest.approx(
            0.09963240048704601613, rel=1e-14
        )

    def test_chisq_frozen_values(self):
        assert chisq_survival(7.5, 3) == pytest.approx(
            0.057558451972636406967, rel=1e-14
        )
        assert chisq_survival(31.41, 20) == pytest.approx(
            0.050005239202315167536, rel=1e-14
        )

    def test_f_frozen_values(self):
        assert f_survival(1.0, 2, 10) == pytest.approx(
            0.40187757201646090535, rel=1e-14
        )
        assert f_survival(3.5, 5, 40) == pytest.approx(
            0.010207541592108355068, rel=1e-14
        )
        assert f_survival(0.25, 8, 4) == pytest.approx(
            0.95473251028806584362, rel=1e-14
        )

    def test_chi_is_sqrt_of_chisq(self):
        for t, d in ((0.3, 1), (1.7, 4), (3.2, 9)):
            assert chi_survival(t, d) == pytest.approx(
                chisq_survival(t * t, d), rel=1e-13
            )

    def test_edge_values(self):
        assert chi_survival(0.0, 3) == 1.0
        assert f_survival(0.0, 2, 5) == 1.0


class TestLogSurvival:
    def test_agrees_with_linear_scale_in_moderate_range(self):
        for t, d in ((0.5, 1), (2.0, 3), (5.0, 12)):
            assert log_chi_survival(t, d) == pytest.approx(
                math.log(chi_survival(t, d)), rel=1e-12
            )
        for t, d1, d2 in ((0.5, 2, 8), (4.0, 5, 30)):
            assert log_f_survival(t, d1, d2) == pytest.approx(
                math.log(f_survival(t, d1, d2)), rel=1e-12
            )

    def test_deep_tail_frozen_values(self):
        # far beyond double underflow; frozen from mpmath at 60 digits
        assert log_chi_survival(41.0, 3) == pytest.approx(
            -837.01162493186345833, rel=1e-12
        )
        # chi with d=2 has survival exp(-t^2/2) exactly
        assert log_chi_survival(90.0, 2) == pytest.approx(-4050.0, rel=1e-13)
        assert log_chisq_survival(4e4, 5) == pytest.approx(
            -19985.429376542606274, rel=1e-12
        )
        assert log_f_survival(1e6, 3, 7) == pytest.approx(
            -44.543654018442271899, rel=1e-12
        )

    def test_monotone_decreasing_in_t(self):
        ts = np.linspace(30.0, 80.0, 24)
        vals = [log_chi_survival(t, 4) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTruncatedSpec:
    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            TruncatedDistSpec.chi(3, IntervalUnion.empty())

    def test_classmethods_set_kind(self):
        spec = TruncatedDistSpec.chi(3, U((0, 1)))
        assert spec.d1 == 3 and spec.d2 is None
        spec_f = TruncatedDistSpec.fisher_f(2, 10, U((0, 1)))
        assert (spec_f.d1, spec_f.d2) == (2, 10)


class TestTruncatedSurvival:
    def test_frozen_multi_interval_chi(self):
        spec = TruncatedDistSpec.chi(3, U((1, 2), (3, INF)))
        assert truncated_survival(1.5, spec) == pytest.approx(
            0.50958494712314437996, rel=1e-12
        )

    def test_frozen_deep_tail_ratio(self):
        spec = TruncatedDistSpec.chi(3, U((40, 41), (42, INF)))
        assert truncated_survival(42.0, spec) == pytest.approx(
            2.5645820169698333446e-36, rel=1e-10
        )

    def test_frozen_multi_interval_f(self):
        spec = TruncatedDistSpec.fisher_f(2, 10, U((0.5, 1.5), (2, 4)))
        assert truncated_survival(1.0, spec) == pytest.approx(
            0.54799483527043391955, rel=1e-12
        )

    def test_statistic_below_support_gives_one(self):
        spec = TruncatedDistSpec.chi(3, U((2, 5)))
        assert truncated_survival(0.5, spec) == 1.0

    def test_statistic_above_support_gives_zero(self):
        spec = TruncatedDistSpec.chi(3, U((2, 5)))
        assert truncated_survival(6.0, spec) == 0.0

    def test_statistic_in_gap_counts_upper_mass_only(self):
        spec = TruncatedDistSpec.chi(3, U((1, 2), (3, 4)))
        want = (chi_survival(3, 3) - chi_survival(4, 3)) / (
            chi_survival(1, 3) - chi_survival(2, 3)
            + chi_survival(3, 3) - chi_survival(4, 3)
        )
        assert truncated_survival(2.5, spec) == pytest.approx(want, rel=1e-12)

    def test_against_quadrature_chi(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 12))
            cuts = np.sort(rng.uniform(0.05, 4.5, size=4))
            support = U((cuts[0], cuts[1]), (cuts[2], cuts[3]))
            t = float(rng.uniform(cuts[0], cuts[3]))
            spec = TruncatedDistSpec.chi(d, support)
            pdf = stats.chi(d).pdf
            num = 0.0
            den = 0.0
            for iv in support.intervals:
                den += integrate.quad(pdf, iv.lo, iv.hi, limit=200)[0]
                lo = max(iv.lo, t)
                if lo < iv.hi:
                    num += integrate.quad(pdf, lo, iv.hi, limit=200)[0]
            assert truncated_survival(t, spec) == pytest.approx(
                num / den, abs=1e-10, rel=1e-8
            )

    def test_against_quadrature_f(self):
        rng = np.random.default_rng(1)
        for _ in range(12):
            d1 = int(rng.integers(1, 8))
            d2 = int(rng.integers(2, 40))
            cuts = np.sort(rng.uniform(0.02, 6.0, size=4))
            support = U((cuts[0], cuts[1]), (cuts[2], cuts[3]))
            t = float(rng.uniform(cuts[0], cuts[3]))
            spec = TruncatedDistSpec.fisher_f(d1, d2, support)
            pdf = stats.f(d1, d2).pdf
            num = 0.0
            den = 0.0
            for iv in support.intervals:
                den += integrate.quad(pdf, iv.lo, iv.hi, limit=200)[0]
                lo = max(iv.lo, t)
                if lo < iv.hi:
                    num += integrate.quad(pdf, lo, iv.hi, limit=200)[0]
            assert truncated_survival(t, spec) == pytest.approx(
                num / den, abs=1e-10, rel=1e-8
            )

    def test_zero_mass_support_raises(self):
        spec = TruncatedDistSpec.chi(3, U((1e8, 1e8 + 1e-8)))
        with pytest.raises(ZeroMassSet):
            truncated_survival(1e8, spec)

    def test_f_tail_far_below_the_double_range_is_exact(self):
        # S = [300, 303] under F(20, 3000) has log mass about -1598.5; the
        # log-space path resolves it, so no approximation is taken.
        d1, d2 = 20, 3000
        spec = TruncatedDistSpec.fisher_f(d1, d2, U((300.0, 303.0)))
        p, info = truncated_survival_info(301.5, spec)
        with mpmath.workdps(60):
            def sf(t):
                z = mpmath.mpf(d2) / (d2 + d1 * mpmath.mpf(t))
                return mpmath.betainc(d2 / 2, d1 / 2, 0, z, regularized=True)

            want = (sf(301.5) - sf(303)) / (sf(300) - sf(303))
            assert mpmath.log(sf(300) - sf(303)) < -1500
        assert info["eval_path"] == "log_exact"
        assert p == pytest.approx(float(want), rel=1e-10)

    def test_numerator_underflow_reports_zero_with_flag(self):
        spec = TruncatedDistSpec.chi(3, U((1.0, INF)))
        p, info = truncated_survival_info(60.0, spec)
        assert p == 0.0
        assert info.get("numerator_underflow") or info.get("numerator_insignificant")

    def test_uniformity_of_truncated_chi_pvalues(self):
        # under the null, survival at a draw conditioned into the
        # support is U(0,1); checked by simulation
        rng = np.random.default_rng(7)
        support = U((0.8, 1.6), (2.2, INF))
        spec = TruncatedDistSpec.chi(4, support)
        draws = stats.chi(4).rvs(size=40000, random_state=rng)
        keep = [
            x
            for x in draws
            if (0.8 <= x <= 1.6) or (x >= 2.2)
        ]
        ps = [truncated_survival(x, spec) for x in keep[:4000]]
        ks = stats.kstest(ps, "uniform")
        assert ks.pvalue > 0.01


class TestFToChisq:
    def test_matches_exact_on_moderate_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            d1 = int(rng.integers(2, 10))
            d2 = int(rng.integers(10, 80))
            cuts = np.sort(rng.uniform(0.05, 3.0, size=4))
            support = U((cuts[0], cuts[1]), (cuts[2], cuts[3]))
            t = float(rng.uniform(cuts[0], cuts[3]))
            spec = TruncatedDistSpec.fisher_f(d1, d2, support)
            exact = truncated_survival(t, spec)
            approx = f_to_chisq_approx(t, d1, d2, support)
            assert approx == pytest.approx(exact, abs=1e-2)

    def test_large_den_df_nearly_exact(self):
        support = U((0.5, 1.2), (1.8, 3.0))
        spec = TruncatedDistSpec.fisher_f(40, 200, support)
        for t in (0.5, 1.0, 2.0):
            exact = truncated_survival(t, spec)
            approx = f_to_chisq_approx(t, 40, 200, support)
            assert approx == pytest.approx(exact, abs=5e-3)
