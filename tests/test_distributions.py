"""Survival functions, log-space tails, and truncated p-values.

Expected values are frozen from 60-digit computations with mpmath
(regularized incomplete gamma/beta), or computed with mpmath at 90
digits, independent of the scipy routines the library uses internally.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from cluster_sieve.core import INF, IntervalUnion, NotAvailable, ZeroMassSet
from cluster_sieve.distributions import (
    TruncatedDistSpec,
    chi_survival,
    f_survival,
    truncated_survival_info,
)

from oracles import _log_survival


def U(*pairs):
    return IntervalUnion(*zip(*pairs))


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
                stats.chi2.sf(t * t, d), rel=1e-13
            )

    def test_edge_values(self):
        assert chi_survival(0.0, 3) == 1.0
        assert f_survival(0.0, 2, 5) == 1.0


class TestLogSurvival:
    def test_agrees_with_linear_scale_in_moderate_range(self):
        for t, d in ((0.5, 1), (2.0, 3), (5.0, 12)):
            assert _log_survival("chi", d, None, t) == pytest.approx(
                math.log(chi_survival(t, d)), rel=1e-12
            )
        for t, d1, d2 in ((0.5, 2, 8), (4.0, 5, 30)):
            assert _log_survival("f", d1, d2, t) == pytest.approx(
                math.log(f_survival(t, d1, d2)), rel=1e-12
            )

    def test_deep_tail_frozen_values(self):
        # far beyond double underflow; frozen from mpmath at 60 digits
        assert _log_survival("chi", 3, None, 41.0) == pytest.approx(
            -837.01162493186345833, rel=1e-12
        )
        # chi with d=2 has survival exp(-t^2/2) exactly
        assert _log_survival("chi", 2, None, 90.0) == pytest.approx(-4050.0, rel=1e-13)
        assert _log_survival("f", 3, 7, 1e6) == pytest.approx(
            -44.543654018442271899, rel=1e-12
        )

    def test_monotone_decreasing_in_t(self):
        ts = np.linspace(30.0, 80.0, 24)
        vals = [_log_survival("chi", 4, None, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestTruncatedSpec:
    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            TruncatedDistSpec("chi", 3, None, IntervalUnion.empty())


class TestTruncatedSurvival:
    def test_frozen_multi_interval_chi(self):
        spec = TruncatedDistSpec("chi", 3, None, U((1, 2), (3, INF)))
        assert truncated_survival_info(1.5, spec)[0] == pytest.approx(
            0.50958494712314437996, rel=1e-12
        )

    def test_frozen_deep_tail_ratio(self):
        spec = TruncatedDistSpec("chi", 3, None, U((40, 41), (42, INF)))
        assert truncated_survival_info(42.0, spec)[0] == pytest.approx(
            2.5645820169698333446e-36, rel=1e-10
        )

    def test_frozen_multi_interval_f(self):
        spec = TruncatedDistSpec("f", 2, 10, U((0.5, 1.5), (2, 4)))
        assert truncated_survival_info(1.0, spec)[0] == pytest.approx(
            0.54799483527043391955, rel=1e-12
        )

    def test_statistic_below_support_gives_one(self):
        spec = TruncatedDistSpec("chi", 3, None, U((2, 5)))
        assert truncated_survival_info(0.5, spec)[0] == 1.0

    def test_statistic_above_support_gives_zero(self):
        spec = TruncatedDistSpec("chi", 3, None, U((2, 5)))
        assert truncated_survival_info(6.0, spec)[0] == 0.0

    def test_statistic_in_gap_counts_upper_mass_only(self):
        spec = TruncatedDistSpec("chi", 3, None, U((1, 2), (3, 4)))
        want = (chi_survival(3, 3) - chi_survival(4, 3)) / (
            chi_survival(1, 3) - chi_survival(2, 3)
            + chi_survival(3, 3) - chi_survival(4, 3)
        )
        assert truncated_survival_info(2.5, spec)[0] == pytest.approx(want, rel=1e-12)

    def test_against_quadrature_chi(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 12))
            cuts = np.sort(rng.uniform(0.05, 4.5, size=4))
            support = U((cuts[0], cuts[1]), (cuts[2], cuts[3]))
            t = float(rng.uniform(cuts[0], cuts[3]))
            spec = TruncatedDistSpec("chi", d, None, support)
            pdf = stats.chi(d).pdf
            num = 0.0
            den = 0.0
            for iv in support.intervals:
                den += integrate.quad(pdf, iv.lo, iv.hi, limit=200)[0]
                lo = max(iv.lo, t)
                if lo < iv.hi:
                    num += integrate.quad(pdf, lo, iv.hi, limit=200)[0]
            assert truncated_survival_info(t, spec)[0] == pytest.approx(
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
            spec = TruncatedDistSpec("f", d1, d2, support)
            pdf = stats.f(d1, d2).pdf
            num = 0.0
            den = 0.0
            for iv in support.intervals:
                den += integrate.quad(pdf, iv.lo, iv.hi, limit=200)[0]
                lo = max(iv.lo, t)
                if lo < iv.hi:
                    num += integrate.quad(pdf, lo, iv.hi, limit=200)[0]
            assert truncated_survival_info(t, spec)[0] == pytest.approx(
                num / den, abs=1e-10, rel=1e-8
            )

    def test_narrow_piece_far_out_gives_its_exact_pvalue(self):
        # t is the lower end of the only piece, so p = 1 exactly, although
        # the piece is one ulp wide and its tail difference rounds to 0
        spec = TruncatedDistSpec("chi", 3, None, U((1e8, 1e8 + 1e-8)))
        assert truncated_survival_info(1e8, spec)[0] == 1.0

    def test_set_without_mass_in_doubles_raises(self):
        # points only; and a lower tail near 1e-480, below the double range
        with pytest.raises(ZeroMassSet):
            truncated_survival_info(1.0, TruncatedDistSpec("chi", 3, None, U((1, 1), (2, 2))))
        with pytest.raises(ZeroMassSet):
            truncated_survival_info(0.0, TruncatedDistSpec("chi", 40, None, U((0.0, 1e-12))))

    def test_f_tail_far_below_the_double_range_is_exact(self):
        # S = [300, 303] under F(20, 3000) has log mass about -1598.5; the
        # log-space path resolves it, so no approximation is taken.
        d1, d2 = 20, 3000
        spec = TruncatedDistSpec("f", d1, d2, U((300.0, 303.0)))
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
        spec = TruncatedDistSpec("chi", 3, None, U((1.0, INF)))
        p, info = truncated_survival_info(60.0, spec)
        assert p == 0.0
        assert info["numerator_underflow"] is True

    def test_uniformity_of_truncated_chi_pvalues(self):
        # under the null, survival at a draw conditioned into the
        # support is U(0,1); checked by simulation
        rng = np.random.default_rng(7)
        support = U((0.8, 1.6), (2.2, INF))
        spec = TruncatedDistSpec("chi", 4, None, support)
        draws = stats.chi(4).rvs(size=40000, random_state=rng)
        keep = [
            x
            for x in draws
            if (0.8 <= x <= 1.6) or (x >= 2.2)
        ]
        ps = [truncated_survival_info(x, spec)[0] for x in keep[:4000]]
        ks = stats.kstest(ps, "uniform")
        assert ks.pvalue > 0.01


def _mp_tails(kind, d1, d2, x):
    """P(T <= x) and P(T >= x) in mpmath, each a one-sided incomplete
    gamma or beta (the two-bound form is not used: it returned 0.0 for a
    narrow piece at x = 442)."""
    if x == math.inf:
        return mpmath.mpf(1), mpmath.mpf(0)
    x = mpmath.mpf(x)
    if kind == "chi":
        a, u = mpmath.mpf(d1) / 2, x * x / 2
        return (mpmath.gammainc(a, 0, u, regularized=True),
                mpmath.gammainc(a, u, mpmath.inf, regularized=True))
    a, b = mpmath.mpf(d1) / 2, mpmath.mpf(d2) / 2
    return (mpmath.betainc(a, b, 0, d1 * x / (d1 * x + d2), regularized=True),
            mpmath.betainc(b, a, 0, d2 / (d2 + d1 * x), regularized=True))


def mp_truncated_survival(kind, d1, d2, support, t):
    """P(T >= t | T in S) at 90 digits. Each piece is a difference of
    lower tails when both upper tails are near 1, of upper tails
    otherwise, so no digit is lost to cancellation."""
    def mass(lo, hi):
        p_lo, q_lo = _mp_tails(kind, d1, d2, lo)
        p_hi, q_hi = _mp_tails(kind, d1, d2, hi)
        return p_hi - p_lo if p_hi < q_lo else q_lo - q_hi

    with mpmath.workdps(90):
        pieces = [(iv.lo, iv.hi) for iv in support.intervals]
        den = mpmath.fsum(mass(lo, hi) for lo, hi in pieces)
        num = mpmath.fsum(mass(max(lo, t), hi) for lo, hi in pieces if hi >= t)
        assert den > 0
        return float(num / den)


class TestExactTails:
    # Sets whose p-value a difference of upper tails gets wrong: digits
    # lost to cancellation, or no mass left at all.
    @pytest.mark.parametrize("kind, d1, d2, piece, t", [
        ("f", 4, 3000, (16.18000151255556, 16.1800015125563), 16.180001512556274),
        ("f", 20, 3000, (2.0, 2.0 * (1 + 1e-14)), 2.0 * (1 + 3e-15)),
        ("chi", 40, None, (2.0, 2.02), 2.006),
        ("f", 40, 200, (0.05, 0.1), 0.07),
        ("chi", 10, None, (0.01, 0.05), 0.02),
        # The density of F with d1 = 1 is infinite at 0: a narrow piece
        # close to 0 needs the rule on the log scale, and a piece from
        # near 0 to infinity needs P(T >= x) as 1 - P(T <= x).
        ("f", 1, 30, (0.1, 0.6), 0.3),
        ("f", 1, 10, (1e-14, math.inf), 4e-14),
    ])
    def test_cases_that_lost_digits(self, kind, d1, d2, piece, t):
        spec = TruncatedDistSpec(kind, d1, d2, U(piece))
        p, info = truncated_survival_info(t, spec)
        assert info["eval_path"] == "log_exact"
        assert p == pytest.approx(mp_truncated_survival(kind, d1, d2, spec.support, t),
                                  rel=1e-10, abs=0)

    # Pieces far out on the chi axis: -x^2/2 alone carries an absolute
    # error of eps*x^2/2 there, which the ratio of two pieces would keep.
    @pytest.mark.parametrize("pieces, t", [
        (((1e4, 1e4 + 1e-5), (1e4 + 3e-5, 1e4 + 4e-5)), 1e4 + 3e-5),
        (((1e5, 1e5 + 1e-6), (1e5 + 3e-6, 1e5 + 4e-6)), 1e5 + 3e-6),
        (((1e4, 1e4 + 1e-3), (1e4 + 2e-3, math.inf)), 1e4 + 2e-3),
    ])
    def test_far_out_chi_pieces_keep_their_ratio(self, pieces, t):
        S = U(*pieces)
        got = truncated_survival_info(t, TruncatedDistSpec("chi", 3, None, S))[0]
        assert got == pytest.approx(mp_truncated_survival("chi", 3, None, S, t),
                                    rel=1e-10, abs=0)

    @staticmethod
    def _draw(rng, kind, d1, d2):
        """One to three pieces, each starting at a quantile of the law
        from 1e-30 below to 1e-250 above, of relative width 1e-14 to 1;
        the first may start at 0 and the last may be unbounded. t lies in
        one of them."""
        law = stats.chi(d1) if kind == "chi" else stats.f(d1, d2)
        starts = []
        for _ in range(int(rng.integers(1, 4))):
            side = int(rng.integers(3))
            if side == 0:
                lo = law.ppf(10 ** rng.uniform(-30, -0.3))
            elif side == 1:
                lo = law.ppf(rng.uniform(0.05, 0.95))
            else:
                lo = law.isf(10 ** rng.uniform(-250, -0.3))
            starts.append(float(lo) if np.isfinite(lo) and lo > 0 else float(law.median()))
        pieces = []
        for i, lo in enumerate(sorted(starts)):
            hi = lo + lo * 10 ** rng.uniform(-14, 0)
            if i == 0 and rng.random() < 0.15:
                lo = 0.0
            if i == len(starts) - 1 and rng.random() < 0.15:
                hi = math.inf
            pieces.append((lo, hi))
        S = U(*pieces)
        iv = S.intervals[int(rng.integers(len(S.intervals)))]
        if iv.hi < math.inf:
            t = iv.lo + (iv.hi - iv.lo) * rng.uniform()
        else:
            t = iv.lo * (1 + 10 ** rng.uniform(-14, -1)) if iv.lo > 0 else 1.0
        return S, t

    def test_sweep_against_mpmath(self):
        rng = np.random.default_rng(20240)
        for i in range(400):
            kind = ("chi", "f")[i % 2]
            d1 = (1, 2, 4, 10, 40)[(i // 2) % 5]
            d2 = None if kind == "chi" else int(rng.choice([3, 10, 30, 200, 3000]))
            S, t = self._draw(rng, kind, d1, d2)
            want = mp_truncated_survival(kind, d1, d2, S, t)
            try:
                got = truncated_survival_info(t, TruncatedDistSpec(kind, d1, d2, S))[0]
            except NotAvailable:
                pytest.fail(f"NA for {kind} {d1} {d2} {S} at {t}")
            assert got == pytest.approx(want, rel=1e-10, abs=0), (kind, d1, d2, S, t)
