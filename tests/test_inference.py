"""End-to-end p-value machinery: request validation, scale estimators,
the chi and F tests, Bonferroni, and the plug-in variants."""
import math
from dataclasses import replace

import numpy as np
import pytest

from cluster_sieve.core import INF, DataMatrix, IntervalUnion, Method, interval_contains
from cluster_sieve.distributions import TruncatedDistSpec, truncated_survival_info
from cluster_sieve import cli
from cluster_sieve import inference as inf
from cluster_sieve.kmeans import KMeansConfig
from cluster_sieve.selection import SelectionRule
from cluster_sieve.simulation import SimConfig

from conftest import blocked_means, gauss_data


def request(
    X,
    K,
    rule=None,
    variance=None,
    account=False,
    seed=0,
):
    return inf.TestRequest(
        data=X,
        kmeans_cfg=KMeansConfig(K=K, seed=seed),
        rule=rule if rule is not None else SelectionRule.fixed_all(K),
        variance=variance if variance is not None else inf.VarianceSpec.known(1.0),
        account_selection=account,
    )


def pairwise(req, k, kp):
    """The known-sigma test of the one fixed pair (k, kp)."""
    return inf.test_known_sigma(replace(req, rule=SelectionRule.fixed([(k, kp)])))


def singleton_request(rule, variance):
    """Clusters 0 and 1 are the far outliers in rows 0 and 1, alone."""
    x = np.random.default_rng(0).normal(size=(20, 2))
    x[0], x[1] = [50.0, 0.0], [0.0, 50.0]
    return inf.TestRequest(
        data=DataMatrix(x),
        kmeans_cfg=KMeansConfig(K=3, init_indices=(0, 1, 2)),
        rule=rule,
        variance=variance,
    )


class TestSpecs:
    def test_variance_kinds(self):
        with pytest.raises(ValueError):
            inf.VarianceSpec(kind="guessed")
        with pytest.raises(ValueError):
            inf.VarianceSpec.known(0.0)
        with pytest.raises(ValueError):
            inf.VarianceSpec.known(-1.0)
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError):
                inf.VarianceSpec.known(sigma)
        with pytest.raises(ValueError):
            inf.VarianceSpec(kind="unknown", sigma=1.0)
        assert inf.VarianceSpec.plug_in_sample().sigma is None

    def test_restarts_need_a_count_and_an_integer_seed(self):
        req = request(gauss_data(0, 12, 2), 2)
        assert replace(req, restarts=2).restarts == 2
        with pytest.raises(ValueError):
            replace(req, restarts=0)
        with pytest.raises(ValueError):
            replace(req, kmeans_cfg=KMeansConfig(K=2), restarts=2)


# The five variants of the calibration benchmark: rule, variance,
# account_selection, bonferroni, and the entry point run_test must match.
KNOWN, UNKNOWN = inf.VarianceSpec.known(1.0), inf.VarianceSpec.unknown()
VARIANTS = {
    "known_all": (None, KNOWN, False, False, inf.test_known_sigma),
    "unknown_all": (None, UNKNOWN, False, False, inf.test_unknown_sigma),
    "bonferroni": (None, KNOWN, False, True, inf.test_bonferroni),
    "known_top1": (SelectionRule.top_g(1), KNOWN, True, False, inf.test_known_sigma),
    "unknown_top1": (SelectionRule.top_g(1), UNKNOWN, True, False, inf.test_unknown_sigma),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_run_test_matches_the_entry_point(variant):
    rule, variance, account, bonferroni, entry = VARIANTS[variant]
    req = request(gauss_data(3, 60, 2), 3, rule=rule, variance=variance, account=account)
    got = inf.run_test(replace(req, bonferroni=bonferroni))
    assert not got.degenerate
    assert got == entry(req)


# Every combination of test choices that no test exists for, with its
# command-line flags. The one rule set refuses each in every caller:
# TestRequest and SimConfig raise ValueError, and both subcommands exit 3
# before they read any data.
INVALID_CHOICES = {
    "account_fixed_pairs": (
        SelectionRule.fixed([(0, 1)]), KNOWN, True, False, ["--pairs", "1:2", "--account-selection"]),
    "account_all_pairs": (SelectionRule.fixed_all(3), KNOWN, True, False, ["--account-selection"]),
    "bonferroni_top1": (
        SelectionRule.top_g(1), KNOWN, False, True, ["--select", "top:1", "--bonferroni"]),
    "bonferroni_top1_accounted": (
        SelectionRule.top_g(1), KNOWN, True, True,
        ["--select", "top:1", "--account-selection", "--bonferroni"]),
    "bonferroni_unknown_sigma": (
        SelectionRule.fixed_all(3), UNKNOWN, False, True, ["--unknown-sigma", "--bonferroni"]),
}


@pytest.mark.parametrize("caller", ["TestRequest", "SimConfig", "test", "simulate"])
@pytest.mark.parametrize("case", sorted(INVALID_CHOICES))
def test_invalid_choice_is_refused(case, caller, tmp_path, capsys):
    rule, variance, account, bonferroni, flags = INVALID_CHOICES[case]
    choice = dict(rule=rule, variance=variance, account_selection=account, bonferroni=bonferroni)
    if caller == "TestRequest":
        with pytest.raises(ValueError):
            inf.TestRequest(data=gauss_data(0, 12, 2), kmeans_cfg=KMeansConfig(K=3), **choice)
    elif caller == "SimConfig":
        with pytest.raises(ValueError):
            SimConfig(n=24, q=2, K=3, sigma=1.0, mu_kind="null", delta=0.0, replicates=2,
                      **choice)
    else:
        if caller == "test":
            # the file does not exist: the flags must be refused first
            argv = ["test", str(tmp_path / "missing.csv")]
            argv += [] if variance.kind == "unknown" else ["--sigma", "1"]
        else:
            argv = ["simulate", "type1", "--out", str(tmp_path / "x"), "--n", "24", "--q", "2",
                    "--replicates", "2"]
        assert cli.main(argv + ["--k", "3", *flags]) == cli.EXIT_FLAGS
        assert capsys.readouterr().err.startswith("error: invalid flag combination: ")
        assert not list(tmp_path.iterdir())


class TestScaleEstimators:
    def test_sample_estimator_frozen_value(self):
        X = DataMatrix(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]))
        # deviations are +-1 in each coordinate: sqrt(8 / (3*2))
        assert inf.sigma_hat_sample(X) == pytest.approx(1.1547005383792515, rel=1e-14)

    def test_median_estimator_frozen_value(self):
        X = DataMatrix(np.array([[0.0], [1.0], [100.0]]))
        # column median 1, squared deviations (1, 0, 9801), median 1
        assert inf.sigma_hat_med(X) == pytest.approx(
            math.sqrt(1.0 / inf.CHI1_MEDIAN), rel=1e-14
        )
        assert inf.sigma_hat_med(X) == pytest.approx(1.482602218505602, rel=1e-12)

    def test_median_estimator_ignores_minority_signal(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(200, 10))
        spiked = base.copy()
        spiked[:, 0] += 40.0 * np.sign(rng.normal(size=200))
        med_clean = inf.sigma_hat_med(DataMatrix(base))
        med_spiked = inf.sigma_hat_med(DataMatrix(spiked))
        assert abs(med_spiked - med_clean) < 0.15
        # while the sample estimator blows up
        assert inf.sigma_hat_sample(DataMatrix(spiked)) > 5.0

    def test_consistency_on_pure_noise(self):
        X = gauss_data(3, 4000, 5, sigma=2.0)
        assert inf.sigma_hat_sample(X) == pytest.approx(2.0, rel=0.05)
        assert inf.sigma_hat_med(X) == pytest.approx(2.0, rel=0.05)


class TestKnownSigma:
    def test_separated_clusters_reject(self):
        mu = blocked_means(40, 2, [(0.0, 0.0), (12.0, 0.0)])
        X = gauss_data(1, 40, 2, mu=mu)
        res = inf.test_known_sigma(request(X, 2))
        assert res.method is Method.KNOWN_SIGMA
        assert not res.degenerate
        assert res.p_value < 1e-6
        assert res.df_num == 2  # q * rank for K=2
        assert res.df_den is None

    def test_statistic_lies_in_truncation(self):
        for seed in range(5):
            X = gauss_data(seed, 24, 2)
            res = inf.test_known_sigma(request(X, 3, seed=seed))
            if res.degenerate:
                continue
            assert interval_contains(res.truncation, res.statistic, tol=1e-9)

    def test_pvalue_matches_direct_survival(self):
        X = gauss_data(7, 21, 2)
        res = inf.test_known_sigma(request(X, 3))
        spec = TruncatedDistSpec("chi", res.df_num, None, res.truncation)
        assert res.p_value == pytest.approx(
            truncated_survival_info(res.statistic, spec)[0], abs=1e-15
        )

    def test_pairs_tested_reported(self):
        X = gauss_data(2, 18, 2)
        res = inf.test_known_sigma(request(X, 3))
        assert res.diagnostics["pairs_tested"] == [[0, 1], [0, 2], [1, 2]]

    def test_rejects_unknown_variance_kind(self):
        X = gauss_data(0, 12, 2)
        with pytest.raises(ValueError):
            inf.test_known_sigma(request(X, 2, variance=inf.VarianceSpec.unknown()))

    def test_degenerate_data_gives_na(self):
        X = DataMatrix(np.zeros((6, 2)))
        req = inf.TestRequest(
            data=X,
            kmeans_cfg=KMeansConfig(K=2, init_indices=(0, 1)),
            rule=SelectionRule.fixed_all(2),
            variance=inf.VarianceSpec.known(1.0),
        )
        for res, method in ((inf.test_known_sigma(req), Method.KNOWN_SIGMA),
                            (inf.test_bonferroni(req), Method.BONFERRONI)):
            assert res.degenerate and res.method is method
            assert math.isnan(res.p_value)
            assert "reason" in res.diagnostics


class TestReductions:
    def test_single_fixed_pair_equals_pairwise(self):
        X = gauss_data(4, 20, 2)
        req = request(X, 3, rule=SelectionRule.fixed([(0, 2)]))
        joint = inf.test_known_sigma(req)
        pair = pairwise(request(X, 3), 0, 2)
        assert pair.method is Method.KNOWN_SIGMA
        assert inf.test_bonferroni(request(X, 3)).diagnostics["pairwise_p_values"][1] == (
            joint.p_value
        )
        assert pair.statistic == joint.statistic
        assert pair.p_value == joint.p_value
        assert pair.df_num == joint.df_num
        assert pair.truncation == joint.truncation

    def test_pairwise_order_does_not_matter(self):
        X = gauss_data(6, 20, 2)
        a = pairwise(request(X, 3), 2, 0)
        b = pairwise(request(X, 3), 0, 2)
        assert a.p_value == b.p_value

    def test_bonferroni_matches_manual_combination(self):
        X = gauss_data(5, 24, 2)
        req = request(X, 3)
        res = inf.test_bonferroni(req)
        manual = [
            pairwise(req, k, kp).p_value
            for (k, kp) in [(0, 1), (0, 2), (1, 2)]
        ]
        assert res.method is Method.BONFERRONI
        assert res.p_value == pytest.approx(min(1.0, 3 * min(manual)), abs=1e-15)
        win = res.diagnostics["winning_pair"]
        assert manual[[[0, 1], [0, 2], [1, 2]].index(win)] == min(manual)
        assert res.diagnostics["pairwise_p_values"] == pytest.approx(manual)

    def test_bonferroni_diagnostics_are_the_winners(self):
        X = gauss_data(5, 24, 2)
        req = request(X, 3)
        res = inf.test_bonferroni(req)
        k, kp = res.diagnostics["winning_pair"]
        win = pairwise(req, k, kp)
        assert res.diagnostics["eval_path"] == "log_exact"
        for key in ("eval_path", "iterations", "converged"):
            assert res.diagnostics[key] == win.diagnostics[key]

    def test_bonferroni_single_pair_is_pairwise(self):
        X = gauss_data(9, 18, 2)
        res = inf.test_bonferroni(request(X, 2, rule=SelectionRule.fixed([(0, 1)])))
        pair = pairwise(request(X, 2), 0, 1)
        assert res.p_value == pair.p_value

    def test_bonferroni_pair_of_singletons_has_a_pvalue(self):
        # two far outliers become singleton clusters: their pair has no
        # within-cluster spread, which the chi test does not need
        req = singleton_request(SelectionRule.fixed_all(3), inf.VarianceSpec.known(1.0))
        res = inf.test_bonferroni(req)
        assert not res.degenerate and res.method is Method.BONFERRONI
        assert res.diagnostics["pairs_tested"] == [[0, 1], [0, 2], [1, 2]]
        assert all(math.isfinite(p) for p in res.diagnostics["pairwise_p_values"])

    def test_pair_of_singletons_needs_spread_only_for_the_f_test(self):
        rule = SelectionRule.fixed([(0, 1)])
        chi = inf.run_test(singleton_request(rule, inf.VarianceSpec.known(1.0)))
        assert not chi.degenerate and math.isfinite(chi.p_value)
        assert interval_contains(chi.truncation, chi.statistic)
        f = inf.run_test(singleton_request(rule, inf.VarianceSpec.unknown()))
        assert f.degenerate
        assert f.diagnostics["reason"] == (
            "every cluster under test is a singleton; no within-cluster spread is available"
        )

    def test_bonferroni_rejects_data_dependent_rules(self):
        # the request is rebuilt with bonferroni set, which runs its checks
        X = gauss_data(0, 16, 2)
        with pytest.raises(ValueError):
            inf.test_bonferroni(request(X, 3, rule=SelectionRule.top_g(1)))
        with pytest.raises(ValueError):
            inf.test_bonferroni(request(X, 3, variance=inf.VarianceSpec.unknown()))


class TestPlugIn:
    def test_plug_in_equals_known_at_the_estimate(self):
        X = gauss_data(11, 30, 3)
        res = inf.test_known_sigma(request(X, 2, variance=inf.VarianceSpec.plug_in_sample()))
        est = res.diagnostics["sigma_estimate"]
        assert est == pytest.approx(inf.sigma_hat_sample(X), rel=1e-14)
        assert res.diagnostics["asymptotic_only"] is True
        fixed = inf.test_known_sigma(request(X, 2, variance=inf.VarianceSpec.known(est)))
        assert res.p_value == fixed.p_value
        assert res.statistic == fixed.statistic

    def test_median_plug_in_diagnostics(self):
        X = gauss_data(12, 30, 3)
        for K, bonferroni in ((2, False), (3, True)):
            req = request(X, K, variance=inf.VarianceSpec.plug_in_median())
            res = inf.run_test(replace(req, bonferroni=bonferroni))
            assert not res.degenerate
            assert res.diagnostics["variance"] == "plug_in_median"
            assert res.diagnostics["asymptotic_only"] is True
            assert res.diagnostics["sigma_estimate"] == pytest.approx(
                inf.sigma_hat_med(X), rel=1e-14
            )


class TestUnknownSigma:
    def test_dfs_for_two_clusters(self):
        X = gauss_data(0, 30, 5)
        res = inf.test_unknown_sigma(request(X, 2, variance=inf.VarianceSpec.unknown()))
        assert res.method is Method.UNKNOWN_SIGMA
        assert (res.df_num, res.df_den) == (5, 140)
        assert interval_contains(res.truncation, res.statistic, tol=1e-9)
        assert 0.0 <= res.p_value <= 1.0

    def test_pvalue_matches_direct_survival(self):
        X = gauss_data(1, 24, 3)
        res = inf.test_unknown_sigma(request(X, 2, variance=inf.VarianceSpec.unknown()))
        spec = TruncatedDistSpec("f", res.df_num, res.df_den, res.truncation)
        assert res.p_value == pytest.approx(
            truncated_survival_info(res.statistic, spec)[0], abs=1e-15
        )

    def test_separated_clusters_reject(self):
        mu = blocked_means(40, 3, [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)])
        X = gauss_data(2, 40, 3, mu=mu)
        res = inf.test_unknown_sigma(request(X, 2, variance=inf.VarianceSpec.unknown()))
        assert res.p_value < 1e-4

    def test_requires_unknown_kind(self):
        X = gauss_data(0, 15, 2)
        with pytest.raises(ValueError):
            inf.test_unknown_sigma(request(X, 2))


class TestSelectionAccounting:
    def test_methods_tagged_and_sets_nest(self):
        done = 0
        for seed in range(25):
            X = gauss_data(seed, 24, 2)
            rule = SelectionRule.top_g(1)
            plain = inf.test_known_sigma(request(X, 4, rule=rule, seed=seed))
            acct = inf.test_known_sigma(request(X, 4, rule=rule, account=True, seed=seed))
            if plain.degenerate or acct.degenerate:
                continue
            assert plain.method is Method.KNOWN_SIGMA
            assert acct.method is Method.KNOWN_SIGMA_SELECTED
            assert acct.statistic == plain.statistic
            # extra conditioning can only shrink the set
            a, b = acct.truncation, plain.truncation
            assert (a.hi - a.lo).sum() <= (b.hi - b.lo).sum() + 1e-9
            assert interval_contains(acct.truncation, acct.statistic, tol=1e-9)
            done += 1
        assert done >= 10

    def test_unknown_selected_method(self):
        for seed in range(12):
            X = gauss_data(100 + seed, 24, 2)
            res = inf.test_unknown_sigma(
                request(
                    X,
                    3,
                    rule=SelectionRule.bottom_g(1),
                    variance=inf.VarianceSpec.unknown(),
                    account=True,
                    seed=seed,
                )
            )
            if res.degenerate:
                continue
            assert res.method is Method.UNKNOWN_SIGMA_SELECTED
            assert 0.0 <= res.p_value <= 1.0
            return
        pytest.fail("every seed degenerated")


class TestStatisticInItsSet:
    """The library's own check that psi_obs lies in S, up to a relative
    1e-9 of its size for the rounding of the endpoints."""

    @pytest.mark.parametrize("variance", [inf.VarianceSpec.known(1.0), inf.VarianceSpec.unknown()])
    def test_statistic_outside_the_set_is_na(self, monkeypatch, variance):
        def beyond(path, trace=None, selection=None):
            return IntervalUnion([2.0 * path.psi_obs + 1.0], [INF])

        monkeypatch.setattr(inf, "truncation_set", beyond)
        res = inf.run_test(request(gauss_data(3, 30, 2), 2, variance=variance))
        assert res.degenerate and res.diagnostics["reason"] == "statistic_outside_set"

    def test_endpoint_within_rounding_still_gives_a_pvalue(self, monkeypatch):
        def just_below(path, trace=None, selection=None):
            return IntervalUnion([0.0], [path.psi_obs * (1.0 - 1e-10)])

        monkeypatch.setattr(inf, "truncation_set", just_below)
        res = inf.run_test(request(gauss_data(3, 30, 2), 2))
        assert not res.degenerate and res.p_value == 0.0


class TestConvergenceReported:
    # Lloyd's algorithm needs 6 steps on this data before it repeats.
    @pytest.mark.parametrize("variance, bonferroni", [
        (inf.VarianceSpec.known(1.0), False),
        (inf.VarianceSpec.unknown(), False),
        (inf.VarianceSpec.known(1.0), True),
    ])
    def test_iterations_and_convergence_in_diagnostics(self, variance, bonferroni):
        req = request(gauss_data(0, 40, 2), 3, variance=variance)
        full = inf.run_test(replace(req, bonferroni=bonferroni))
        assert not full.degenerate
        assert full.diagnostics["iterations"] == 6
        assert full.diagnostics["converged"] is True
        cut = replace(req, kmeans_cfg=KMeansConfig(K=3, seed=0, max_iter=1))
        res = inf.run_test(replace(cut, bonferroni=bonferroni))
        assert not res.degenerate
        assert res.diagnostics["iterations"] == 1
        assert res.diagnostics["converged"] is False
