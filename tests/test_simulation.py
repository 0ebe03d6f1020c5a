"""Scenario configs, mean layouts, and the replicate drivers."""
import math

import numpy as np
import pytest

from cluster_sieve.inference import VarianceSpec
from cluster_sieve.selection import SelectionRule
from cluster_sieve.simulation import (
    SimConfig,
    _means,
    gen_data,
    replicate_seeds,
    run_power,
    run_replicate,
    run_type1,
)


def config(**over):
    base = dict(
        n=24,
        q=2,
        K=3,
        sigma=1.0,
        mu_kind="null",
        delta=0.0,
        replicates=8,
        rule=SelectionRule.fixed_all(3),
        variance=VarianceSpec.known(1.0),
    )
    base.update(over)
    return SimConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(mu_kind="spiral")
        with pytest.raises(ValueError):
            config(sigma=0.0)
        with pytest.raises(ValueError):
            config(delta=-1.0)
        with pytest.raises(ValueError):
            config(mu_kind="horizontal", n=25)  # K=3 must divide n
        with pytest.raises(ValueError):
            config(mu_kind="kgon", q=1)
        with pytest.raises(ValueError):
            config(alpha=1.0)
        with pytest.raises(ValueError):
            config(replicates=0)
        # combinations that no replicate could run: test_inference.INVALID_CHOICES

    def test_null_layout_is_zero(self):
        mu = _means(config(delta=3.0))
        assert not mu.any()

    def test_horizontal_layout(self):
        cfg = config(mu_kind="horizontal", delta=6.0, n=6, K=2,
                     rule=SelectionRule.fixed_all(2))
        mu = _means(cfg)
        np.testing.assert_array_equal(mu[:3], 0.0)
        np.testing.assert_array_equal(mu[3:, 0], 6.0)
        np.testing.assert_array_equal(mu[3:, 1], 0.0)

    def test_kgon_layout_square(self):
        cfg = config(mu_kind="kgon", delta=1.0, n=8, K=4,
                     rule=SelectionRule.fixed_all(4))
        mu = _means(cfg)
        got = mu[::2, :2]
        want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        np.testing.assert_allclose(got, want, atol=1e-15)


class TestGeneration:
    def test_gen_data_reproducible(self):
        cfg = config()
        a = gen_data(cfg, 7)
        b = gen_data(cfg, 7)
        c = gen_data(cfg, 8)
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.values != c.values).any()

    def test_replicate_seeds_stable_and_distinct(self):
        a1, a2 = replicate_seeds(0, 3)
        b1, b2 = replicate_seeds(0, 3)
        assert a1.generate_state(2).tolist() == b1.generate_state(2).tolist()
        assert a2.generate_state(2).tolist() == b2.generate_state(2).tolist()
        c1, _ = replicate_seeds(0, 4)
        assert a1.generate_state(2).tolist() != c1.generate_state(2).tolist()

    def test_run_replicate_deterministic(self):
        cfg = config()
        r1 = run_replicate(cfg, 0)
        r2 = run_replicate(cfg, 0)
        assert r1.p_value == r2.p_value or (r1.degenerate and r2.degenerate)


class TestDrivers:
    def test_type1_fields(self):
        cfg = config(replicates=20)
        res = run_type1(cfg)
        assert len(res.per_replicate) == 20
        assert res.na_count + len(res.pvalues) == 20
        assert list(res.pvalues) == sorted(res.pvalues)
        assert 0.0 <= res.ks_stat <= 1.0
        qq = res.qq_points
        assert len(qq) == len(res.pvalues)
        assert qq[0][0] == pytest.approx(0.5 / len(res.pvalues))

    def test_type1_worker_count_does_not_change_results(self):
        cfg = config(replicates=10)
        seq = run_type1(cfg, workers=1)
        par = run_type1(cfg, workers=2)
        assert seq.per_replicate == par.per_replicate
        assert seq.ks_stat == par.ks_stat

    def test_power_shapes_and_signal_response(self):
        cfg = config(
            n=30,
            K=2,
            mu_kind="horizontal",
            replicates=40,
            rule=SelectionRule.fixed_all(2),
        )
        rows = run_power(cfg, [0.0, 6.0])
        assert [r.delta for r in rows] == [0.0, 6.0]
        for r in rows:
            assert r.replicates == 40
            assert 0 <= r.na_count <= 40
        null_row, sig_row = rows
        assert null_row.power <= 0.2
        assert sig_row.power >= 0.8
        m = 40 - sig_row.na_count
        assert sig_row.stderr == pytest.approx(
            math.sqrt(sig_row.power * (1 - sig_row.power) / m)
        )

    def test_unknown_variance_dispatch(self):
        cfg = config(
            n=30,
            K=2,
            q=4,
            replicates=3,
            rule=SelectionRule.fixed_all(2),
            variance=VarianceSpec.unknown(),
        )
        res = run_replicate(cfg, 0)
        assert res.df_den is not None

    def test_bonferroni_dispatch(self):
        cfg = config(replicates=3, bonferroni=True)
        res = run_replicate(cfg, 1)
        if not res.degenerate:
            assert "winning_pair" in res.diagnostics
