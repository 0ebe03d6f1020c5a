"""Pair-selection rules on cluster center distances."""
import numpy as np
import pytest

from cluster_sieve.core import ClusterPartition, DataMatrix, EmptySelection
from cluster_sieve.selection import (
    SelectionRule,
    pair_center_diffs,
    select_pairs,
)


def centers_fixture():
    # three tight clusters centered at (0,0), (3,0), (10,0):
    # squared center gaps 9, 100, 49 for pairs (0,1), (0,2), (1,2)
    pts = np.array(
        [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0], [10.0, 0.0], [10.0, 0.0]]
    )
    return DataMatrix(pts), ClusterPartition(np.array([0, 0, 1, 1, 2, 2]), 3)


class TestRuleValidation:
    def test_kinds(self):
        with pytest.raises(ValueError):
            SelectionRule(kind="weird")
        with pytest.raises(ValueError):
            SelectionRule.fixed([])
        with pytest.raises(ValueError):
            SelectionRule.top_g(0)
        with pytest.raises(ValueError):
            SelectionRule.threshold_below(0.0)

    def test_fixed_all(self):
        rule = SelectionRule.fixed_all(3)
        assert rule.pairs == ((0, 1), (0, 2), (1, 2))
        assert not rule.is_data_dependent
        assert SelectionRule.top_g(2).is_data_dependent


class TestDistances:
    def test_sq_distances_frozen(self):
        X, part = centers_fixture()
        pairs, diffs = pair_center_diffs(X.values, part)
        sq = (diffs**2).sum(axis=1)
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        np.testing.assert_allclose(sq, [9.0, 100.0, 49.0])

    def test_center_diffs_match_means(self):
        X, part = centers_fixture()
        pairs, diffs = pair_center_diffs(X.values, part)
        np.testing.assert_allclose(diffs[0], [-3.0, 0.0])
        np.testing.assert_allclose(diffs[1], [-10.0, 0.0])
        np.testing.assert_allclose(diffs[2], [-7.0, 0.0])


class TestSelect:
    def test_top_and_bottom(self):
        X, part = centers_fixture()
        assert select_pairs(X, part, SelectionRule.top_g(1)).pairs == ((0, 2),)
        assert select_pairs(X, part, SelectionRule.bottom_g(1)).pairs == ((0, 1),)
        assert select_pairs(X, part, SelectionRule.top_g(2)).pairs == ((0, 2), (1, 2))

    def test_threshold_rules_compare_center_distance(self):
        X, part = centers_fixture()
        # distances are 3, 10, 7; the boundary is included on the
        # selected side
        assert select_pairs(X, part, SelectionRule.threshold_below(7.0)).pairs == (
            (0, 1),
            (1, 2),
        )
        assert select_pairs(X, part, SelectionRule.threshold_above(7.0)).pairs == (
            (0, 2),
            (1, 2),
        )

    def test_empty_threshold_selection_raises(self):
        X, part = centers_fixture()
        with pytest.raises(EmptySelection):
            select_pairs(X, part, SelectionRule.threshold_below(0.5))

    def test_rank_ties_keep_every_tied_pair(self):
        # collinear, equally spaced centers: pairs (0,1) and (1,2) tie
        # exactly in floating point
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
        X = DataMatrix(np.repeat(pts, 2, axis=0))
        part = ClusterPartition(np.repeat([0, 1, 2], 2), 3)
        got = select_pairs(X, part, SelectionRule.bottom_g(1))
        assert got.pairs == ((0, 1), (1, 2))

    def test_g_beyond_pair_count_rejected(self):
        X, part = centers_fixture()
        with pytest.raises(ValueError):
            select_pairs(X, part, SelectionRule.top_g(4))

    def test_fixed_rule_passes_through(self):
        X, part = centers_fixture()
        got = select_pairs(X, part, SelectionRule.fixed([(2, 0)]))
        assert got.pairs == ((0, 2),)
        with pytest.raises(ValueError):
            select_pairs(X, part, SelectionRule.fixed([(0, 3)]))
