"""Interval algebra and result-type behavior."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_sieve.core import (
    INF,
    MERGE_TOL,
    Interval,
    IntervalUnion,
    Method,
    PValueResult,
    interval_contains,
    merge_pieces,
)

from oracles import canonicalize, interval_intersect, union_of


def U(*pairs):
    return IntervalUnion(*zip(*pairs))


class TestInterval:
    def test_rejects_nan_and_negative_and_inverted(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Interval(-0.5, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_endpoints_coerced_to_python_scalars(self):
        iv = Interval(np.float64(1.0), np.float64(2.0))
        assert type(iv.lo) is float and type(iv.hi) is float


class TestIntervalUnion:
    def test_canonicalizes_overlaps_and_order(self):
        u = U((3.0, 5.0), (0.0, 1.0), (0.5, 2.0))
        assert [(iv.lo, iv.hi) for iv in u.intervals] == [(0.0, 2.0), (3.0, 5.0)]

    def test_touching_closed_endpoints_merge(self):
        u = U((0, 1), (1, 2))
        assert len(u.intervals) == 1
        assert (u.intervals[0].lo, u.intervals[0].hi) == (0.0, 2.0)

    def test_empty_and_full(self):
        assert IntervalUnion.empty().intervals == ()
        full = IntervalUnion.full()
        assert len(full.intervals) == 1
        assert full.intervals[0].hi == INF

    def test_intersect_frozen_case(self):
        got = interval_intersect(U((0, 2), (3, 5)), U((1, 4)))
        assert [(iv.lo, iv.hi) for iv in got.intervals] == [(1.0, 2.0), (3.0, 4.0)]

    def test_intersect_with_empty_is_empty(self):
        assert interval_intersect(U((0, 2)), IntervalUnion.empty()).intervals == ()

    def test_contains_tolerance(self):
        u = U((1.0, 2.0))
        assert interval_contains(u, 0.9999999, tol=1e-6)
        assert not interval_contains(u, 0.9999999, tol=0.0)

    def test_membership_partition_property(self):
        # away from endpoints, a point is in the set exactly when it lies
        # strictly inside one of its pieces, and outside it otherwise
        rng = np.random.default_rng(7)
        for _ in range(50):
            cuts = np.sort(rng.uniform(0, 10, size=6))
            pieces = [(cuts[0], cuts[1]), (cuts[2], cuts[3]), (cuts[4], cuts[5])]
            u = U(*pieces)
            for x in rng.uniform(0, 12, size=40):
                if min(abs(x - c) for c in cuts) < 1e-9:
                    continue
                assert interval_contains(u, x) == any(lo < x < hi for lo, hi in pieces)


# Endpoints with ties, gaps just under and just over MERGE_TOL, a scale
# at which MERGE_TOL is below one ulp, and (as an upper end) infinity.
ENDS = (0.0, 0.4 * MERGE_TOL, 1.0, 1.0 + 0.5 * MERGE_TOL, 1.0 + 1.5 * MERGE_TOL,
        2.0, 3.0, 1e16, 1e16 + 2.0, INF)


@st.composite
def grouped_piece(draw):
    """(group, interval): nested, tied and point pieces; a third of the
    draws are points."""
    i = draw(st.integers(0, len(ENDS) - 2))
    point = draw(st.integers(0, 2)) == 0
    j = i if point else draw(st.integers(i, len(ENDS) - 1))
    return draw(st.integers(0, 2)), Interval(ENDS[i], ENDS[j])


class TestMergeRule:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(grouped_piece(), max_size=10))
    def test_matches_the_reference_merge(self, drawn):
        ivs = [iv for _, iv in drawn]
        assert union_of(ivs).intervals == canonicalize(ivs)
        # per group, as the solvers merge the pieces of each row
        group = np.array([g for g, _ in drawn], dtype=int)
        lo = np.array([iv.lo for iv in ivs], dtype=float)
        hi = np.array([iv.hi for iv in ivs], dtype=float)
        g, lo, hi = merge_pieces(lo, hi, group)
        got = list(zip(g.tolist(), map(Interval, lo.tolist(), hi.tolist())))
        want = [(k, iv) for k in sorted(set(group.tolist()))
                for iv in canonicalize([iv for gk, iv in drawn if gk == k])]
        assert got == want

    def test_pieces_sharing_a_lower_end_merge(self):
        u = U((0, 1), (1, 2), (1, 3))
        assert u == U((0, 3))

    def test_arrays_are_read_only_copies(self):
        lo = np.array([1.0, 0.0])
        u = IntervalUnion(lo, np.array([2.0, 0.5]))
        assert lo.flags.writeable and not u.lo.flags.writeable
        assert u.lo.tolist() == [0.0, 1.0]


class TestPValueResult:
    def test_method_wire_names(self):
        assert Method.KNOWN_SIGMA.value == "KnownSigma"
        assert Method.KNOWN_SIGMA_SELECTED.value == "KnownSigmaSelected"
        assert Method.BONFERRONI.value == "Bonferroni"
        assert Method.UNKNOWN_SIGMA.value == "UnknownSigma"
        assert Method.UNKNOWN_SIGMA_SELECTED.value == "UnknownSigmaSelected"

    def test_not_available_shape(self):
        res = PValueResult.not_available(Method.KNOWN_SIGMA, "because")
        assert res.degenerate is True
        assert math.isnan(res.p_value)
        assert res.diagnostics["reason"] == "because"

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            PValueResult(
                statistic=1.0,
                df_num=1,
                df_den=None,
                truncation=IntervalUnion.full(),
                p_value=1.5,
                method=Method.KNOWN_SIGMA,
            )
