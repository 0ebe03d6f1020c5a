"""Release gates.

Each test pins one end-to-end guarantee of the package at a stated
tolerance: truncation sets against replay, reduction identities,
conditional uniformity, selection accounting, Bonferroni control,
distribution numerics against independent quadrature, the untruncated
null laws, power behaviour, and CLI determinism. They are slow by unit
standards (minutes, not seconds) and deliberately run the real pipeline
at realistic sizes.
"""
import csv
import json
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from cluster_sieve.core import (
    ClusterPartition,
    DataMatrix,
    NotAvailable,
    interval_contains,
)
from cluster_sieve.distributions import (
    TruncatedDistSpec,
    chi_survival,
    f_survival,
    truncated_survival_info,
)
from cluster_sieve import inference as inf
from cluster_sieve.kmeans import KMeansConfig, replay_matches, run_kmeans
from cluster_sieve.projection import PairSet, build_projection, split
from cluster_sieve.selection import SelectionRule, select_pairs
from cluster_sieve.simulation import SimConfig, run_power, run_type1
from cluster_sieve.truncation import known_path, truncation_set, unknown_path

from conftest import gauss_data

GRID_POINTS = 1000
ENDPOINT_TOL = 1e-6


def _instance(seed, n, q, K):
    """Data plus a non-degenerate traced clustering, or None."""
    X = gauss_data(seed, n, q)
    try:
        trace = run_kmeans(X, KMeansConfig(K=K, seed=seed))
    except NotAvailable:
        return None
    return X, trace, trace.final_partition()


def _set_endpoints(S):
    eps = [iv.lo for iv in S.intervals]
    eps += [iv.hi for iv in S.intervals if math.isfinite(iv.hi)]
    return eps


def _scan(S, path, oracle):
    """Count analytic-vs-oracle disagreements over the psi grid."""
    endpoints = _set_endpoints(S)
    bad = 0
    checked = 0
    for psi in np.linspace(0.0, 3.0 * path.psi_obs, GRID_POINTS):
        if endpoints and min(abs(psi - e) for e in endpoints) < ENDPOINT_TOL:
            continue
        checked += 1
        if interval_contains(S, psi) != oracle(psi):
            bad += 1
    return bad, checked


def _clustering_oracle(trace, path):
    return lambda psi: replay_matches(DataMatrix(path.at(psi)), trace)

def _selected_oracle(trace, part, rule, V, path):
    def oracle(psi):
        A = DataMatrix(path.at(psi))
        if not replay_matches(A, trace):
            return False
        try:
            return select_pairs(A, part, rule).pairs == V.pairs
        except NotAvailable:
            return False

    return oracle


def test_truncation_sets_match_replay_oracles():
    """Analytic conditioning sets, all four flavours, against brute
    replay at 1000 grid points per instance, 50 instances per flavour,
    zero disagreements allowed."""
    shapes = [(12, 1, 2), (18, 2, 2), (24, 2, 3), (30, 1, 3)]
    sel_rules = [
        SelectionRule.top_g(1),
        SelectionRule.bottom_g(1),
        SelectionRule.threshold_above(1.0),
        SelectionRule.threshold_below(9.0),
    ]
    bad = 0
    checked = 0
    done = {"known": 0, "known_sel": 0, "unknown": 0, "unknown_sel": 0}

    seed = 0
    while done["known"] < 50 or done["unknown"] < 50:
        n, q, K = shapes[seed % len(shapes)]
        got = _instance(seed, n, q, K)
        seed += 1
        if got is None:
            continue
        X, trace, part = got
        V = PairSet(tuple(SelectionRule.fixed_all(K).pairs), K)
        try:
            bundle = build_projection(part, V, q)
        except NotAvailable:
            continue
        if done["known"] < 50:
            path = known_path(X, bundle, 1.0)
            S = truncation_set(path, trace)
            b, c = _scan(S, path, _clustering_oracle(trace, path))
            bad += b
            checked += c
            done["known"] += 1
        if done["unknown"] < 50:
            try:
                path = unknown_path(X, bundle)
            except NotAvailable:
                continue
            S = truncation_set(path, trace)
            b, c = _scan(S, path, _clustering_oracle(trace, path))
            bad += b
            checked += c
            done["unknown"] += 1

    seed = 10_000
    while done["known_sel"] < 50 or done["unknown_sel"] < 50:
        n, q = (21, 1) if seed % 2 else (24, 2)
        rule = sel_rules[seed % len(sel_rules)]
        got = _instance(seed, n, q, 3)
        seed += 1
        if got is None:
            continue
        X, trace, part = got
        try:
            V = select_pairs(X, part, rule)
            bundle = build_projection(part, V, q)
        except NotAvailable:
            continue
        if done["known_sel"] < 50:
            path = known_path(X, bundle, 1.0)
            S = truncation_set(path, trace, selection=(part, V))
            b, c = _scan(S, path, _selected_oracle(trace, part, rule, V, path))
            bad += b
            checked += c
            done["known_sel"] += 1
        if done["unknown_sel"] < 50:
            try:
                path = unknown_path(X, bundle)
            except NotAvailable:
                continue
            S = truncation_set(path, trace, selection=(part, V))
            b, c = _scan(S, path, _selected_oracle(trace, part, rule, V, path))
            bad += b
            checked += c
            done["unknown_sel"] += 1

    assert sum(done.values()) == 200
    assert checked > 150_000
    assert bad == 0, f"{bad} replay disagreements out of {checked} grid points"


def test_single_pair_reductions_are_exact():
    """A one-pair joint test must equal that pair's test within the
    Bonferroni baseline, and the one-pair F statistic must equal its
    closed form."""
    shapes = [(16, 1, 2), (20, 2, 2), (24, 2, 3), (30, 3, 3)]
    done = 0
    seed = 0
    while done < 50:
        n, q, K = shapes[seed % len(shapes)]
        got = _instance(seed, n, q, K)
        seed += 1
        if got is None:
            continue
        X, trace, part = got
        k, kp = (0, 1) if K == 2 else ((0, 2) if seed % 2 else (1, 2))
        cfg = KMeansConfig(K=K, seed=seed - 1)

        joint = inf.test_known_sigma(
            inf.TestRequest(
                data=X,
                kmeans_cfg=cfg,
                rule=SelectionRule.fixed([(k, kp)]),
                variance=inf.VarianceSpec.known(1.0),
            )
        )
        bonf = inf.test_bonferroni(
            inf.TestRequest(
                data=X,
                kmeans_cfg=cfg,
                rule=SelectionRule.fixed_all(K),
                variance=inf.VarianceSpec.known(1.0),
            )
        )
        if joint.degenerate or bonf.degenerate:
            continue
        pairs = [tuple(pair) for pair in bonf.diagnostics["pairs_tested"]]
        pairwise_p = bonf.diagnostics["pairwise_p_values"][pairs.index((k, kp))]
        assert abs(joint.p_value - pairwise_p) <= 1e-10
        if tuple(bonf.diagnostics["winning_pair"]) == (k, kp):
            assert abs(joint.statistic - bonf.statistic) <= 1e-10

        res = inf.test_unknown_sigma(
            inf.TestRequest(
                data=X,
                kmeans_cfg=cfg,
                rule=SelectionRule.fixed([(k, kp)]),
                variance=inf.VarianceSpec.unknown(),
            )
        )
        if res.degenerate:
            continue
        # closed form of the one-pair variance-ratio statistic
        mk = np.flatnonzero(part.labels == k)
        mkp = np.flatnonzero(part.labels == kp)
        v = np.zeros(n)
        v[mk] = 1.0 / len(mk)
        v[mkp] = -1.0 / len(mkp)
        between = np.linalg.norm(X.values.T @ v) ** 2 / (v @ v)
        within = 0.0
        for rows in (mk, mkp):
            block = X.values[rows]
            within += ((block - block.mean(axis=0)) ** 2).sum()
        d = q
        d_star = q * (len(mk) + len(mkp) - 2)
        t_star = (between / d) / (within / d_star)
        assert res.statistic == pytest.approx(t_star, rel=1e-10)
        assert (res.df_num, res.df_den) == (d, d_star)
        done += 1
    assert done == 50


def _null_study(**over):
    base = dict(
        n=60,
        q=2,
        K=3,
        sigma=1.0,
        mu_kind="null",
        delta=0.0,
        replicates=1000,
        rule=SelectionRule.fixed_all(3),
        variance=inf.VarianceSpec.known(1.0),
    )
    base.update(over)
    return run_type1(SimConfig(**base))


def test_conditional_pvalues_are_uniform_under_the_null():
    """Every test variant produces uniform p-values on null data:
    KS uniformity at level 0.01 over 1000 replicates each, with the
    degenerate-run rate below 5%."""
    studies = {
        "known, fixed pairs": _null_study(master_seed=101),
        "known, strongest pair": _null_study(
            K=6,
            rule=SelectionRule.top_g(1),
            account_selection=True,
            master_seed=102,
        ),
        "known, weakest pair": _null_study(
            K=6,
            rule=SelectionRule.bottom_g(1),
            account_selection=True,
            master_seed=103,
        ),
        "estimated, fixed pairs": _null_study(
            q=20, variance=inf.VarianceSpec.unknown(), master_seed=104
        ),
        "estimated, strongest pair": _null_study(
            q=20,
            K=6,
            rule=SelectionRule.top_g(1),
            variance=inf.VarianceSpec.unknown(),
            account_selection=True,
            master_seed=105,
        ),
    }
    for name, res in studies.items():
        assert res.na_count / 1000 < 0.05, f"{name}: NA rate {res.na_count / 1000}"
        assert res.ks_pvalue > 0.01, (
            f"{name}: KS p={res.ks_pvalue:.5f} (stat {res.ks_stat:.4f})"
        )


def _rejection_rate(res, alpha=0.05):
    return sum(p <= alpha for p in res.pvalues) / len(res.pvalues)


def test_selection_must_be_accounted_for():
    """Testing the strongest of many pairs without conditioning on the
    selection inflates the Type I error well past the level; adding the
    selection event to the conditioning restores it. Picking the
    weakest pair without accounting errs the conservative way.

    n=40 rather than 60: the inflation from picking the best of 45
    pairs shrinks as n grows (at n=120 the naive rate measured 0.047,
    indistinguishable from nominal), so the small-sample regime is
    where the effect is visible. Naive rates measured 0.089-0.112
    across five seeds at this size, 1000 null replicates each."""
    naive = _null_study(n=40, K=10, rule=SelectionRule.top_g(1), master_seed=201)
    adjusted = _null_study(
        n=40,
        K=10,
        rule=SelectionRule.top_g(1),
        account_selection=True,
        master_seed=202,
    )
    weakest = _null_study(
        n=40, K=10, rule=SelectionRule.bottom_g(1), master_seed=202
    )

    assert _rejection_rate(naive) > 0.08, f"naive rate {_rejection_rate(naive)}"
    assert abs(_rejection_rate(adjusted) - 0.05) <= 0.02, (
        f"adjusted rate {_rejection_rate(adjusted)}"
    )
    assert _rejection_rate(weakest) <= 0.05, f"weakest rate {_rejection_rate(weakest)}"


def test_bonferroni_controls_type1():
    """The Bonferroni-combined pairwise test never rejects more than
    the level plus two Monte Carlo standard errors on null data."""
    bound = 0.05 + 2.0 * math.sqrt(0.05 * 0.95 / 1000)
    for K, seed in ((3, 301), (5, 302)):
        res = _null_study(
            K=K,
            rule=SelectionRule.fixed_all(K),
            bonferroni=True,
            master_seed=seed,
        )
        rate = _rejection_rate(res)
        assert rate <= bound, f"K={K}: rate {rate} > {bound}"


def _mp_chi_pdf(d):
    d = mp.mpf(d)
    return lambda x: (
        x ** (d - 1) * mp.e ** (-(x**2) / 2) / (2 ** (d / 2 - 1) * mp.gamma(d / 2))
    )


def _mp_f_pdf(d1, d2):
    d1, d2 = mp.mpf(d1), mp.mpf(d2)
    c = (d1 / d2) ** (d1 / 2) / mp.beta(d1 / 2, d2 / 2)
    return lambda x: c * x ** (d1 / 2 - 1) * (1 + d1 * x / d2) ** (-(d1 + d2) / 2)


def _mp_truncated_survival(pdf, support, t):
    pieces_all = []
    pieces_tail = []
    for iv in support.intervals:
        hi = mp.inf if math.isinf(iv.hi) else mp.mpf(iv.hi)
        lo = mp.mpf(iv.lo)
        pieces_all.append(mp.quad(pdf, [lo, hi]))
        tlo = max(lo, mp.mpf(t))
        if hi > tlo:
            pieces_tail.append(mp.quad(pdf, [tlo, hi]))
    return float(mp.fsum(pieces_tail) / mp.fsum(pieces_all))


def test_distribution_numerics_against_quadrature():
    """Survival functions and truncated tail ratios against mpmath at
    50 significant digits."""
    mp.mp.dps = 50

    for d in (1, 3, 10):
        for t in (0.3, 1.0, 2.5, 6.0):
            oracle = float(
                mp.gammainc(mp.mpf(d) / 2, (mp.mpf(t) ** 2) / 2, mp.inf,
                            regularized=True)
            )
            assert abs(chi_survival(t, d) - oracle) <= 1e-10
    for d1, d2 in ((2, 10), (5, 40), (8, 4)):
        for t in (0.3, 1.0, 3.5):
            u = mp.mpf(d1) * t / (mp.mpf(d1) * t + d2)
            oracle = float(
                mp.betainc(mp.mpf(d1) / 2, mp.mpf(d2) / 2, x1=u, x2=1,
                           regularized=True)
            )
            assert abs(f_survival(t, d1, d2) - oracle) <= 1e-10

    from cluster_sieve.core import IntervalUnion

    chi_cases = [
        (3, IntervalUnion([1, 3, 8], [2, 6, math.inf]), (1.5, 3.5, 9.0)),
        (7, IntervalUnion([2, 5], [4, math.inf]), (2.5, 5.5)),
    ]
    for d, S, ts in chi_cases:
        for t in ts:
            got = truncated_survival_info(t, TruncatedDistSpec("chi", d, None, S))[0]
            want = _mp_truncated_survival(_mp_chi_pdf(d), S, t)
            assert abs(got - want) <= 1e-10, f"chi d={d} t={t}"
    f_cases = [
        (2, 10, IntervalUnion([0.5, 2], [1.5, 4]), (1.0, 2.5)),
        (5, 40, IntervalUnion([0.1, 1.2, 4], [0.8, 3, math.inf]), (0.5, 1.5)),
    ]
    for d1, d2, S, ts in f_cases:
        for t in ts:
            got = truncated_survival_info(t, TruncatedDistSpec("f", d1, d2, S))[0]
            want = _mp_truncated_survival(_mp_f_pdf(d1, d2), S, t)
            assert abs(got - want) <= 1e-10, f"F ({d1},{d2}) t={t}"


def test_fixed_partition_null_laws():
    """With the partition and pair list fixed a priori (no clustering on
    the data), the untruncated statistics follow their nominal laws."""
    n, q, K = 30, 2, 3
    part = ClusterPartition(labels=np.repeat(np.arange(K), n // K), K=K)
    V = PairSet(tuple(SelectionRule.fixed_all(K).pairs), K)
    bundle = build_projection(part, V, q)
    d, d_star = bundle.d, bundle.d_star
    assert (d, d_star) == (q * (K - 1), q * (n - K))

    rng = np.random.default_rng(777)
    t_sq = np.empty(2000)
    t_ratio = np.empty(2000)
    for i in range(2000):
        X = rng.standard_normal((n, q))
        between = np.linalg.norm(split(bundle, X)[0]) ** 2
        within = np.linalg.norm(split(bundle, X)[1]) ** 2
        t_sq[i] = between
        t_ratio[i] = (between / d) / (within / d_star)

    ks_chi = stats.kstest(t_sq, "chi2", args=(d,))
    ks_f = stats.kstest(t_ratio, "f", args=(d, d_star))
    assert ks_chi.statistic < 0.05, f"chi2 KS {ks_chi.statistic}"
    assert ks_f.statistic < 0.05, f"F KS {ks_f.statistic}"


def test_power_profile_against_signal():
    """Power against polygon-separated means: correct size at zero
    separation, near-certain rejection at wide separation, and no
    power loss versus the Bonferroni baseline on weak signals.

    Both arms share one master seed, so each replicate compares the
    two tests on the same data and the Monte Carlo noise on the
    difference shrinks. The comparison grid stops at 1.5: at this
    scaled-down n the joint test's weak-signal advantage holds up to
    there (measured +0.014/+0.002/+0.008/-0.028 at 0/0.5/1/1.5),
    while by delta=2 the curves have already crossed (about -0.06
    +/- 0.007 pooling 5000 probe replicates, just past the 0.05
    slack; at n=120 the same point measures -0.017)."""
    base = dict(
        n=60,
        q=2,
        K=3,
        sigma=1.0,
        mu_kind="kgon",
        delta=0.0,
        replicates=500,
        rule=SelectionRule.fixed_all(3),
        variance=inf.VarianceSpec.known(1.0),
    )
    joint = run_power(
        SimConfig(**base, master_seed=401), [0.0, 0.5, 1.0, 1.5, 6.0]
    )
    bonf = run_power(
        SimConfig(**base, bonferroni=True, master_seed=401), [0.0, 0.5, 1.0, 1.5]
    )

    by_delta = {row.delta: row.power for row in joint}
    assert abs(by_delta[0.0] - 0.05) <= 0.03, f"size {by_delta[0.0]}"
    assert by_delta[6.0] >= 0.9, f"power at wide separation {by_delta[6.0]}"
    for row in bonf:
        assert by_delta[row.delta] >= row.power - 0.05, (
            f"delta={row.delta}: joint {by_delta[row.delta]} vs "
            f"Bonferroni {row.power}"
        )


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cluster_sieve.cli"] + [str(a) for a in args],
        capture_output=True,
        text=True,
    )


def _record_modulo_time(path):
    # net of wall time and of the invocation directory, which the
    # record legitimately embeds in its command and output paths
    text = path.read_text().replace(str(path.parent), "<dir>")
    rec = json.loads(text)
    rec.pop("wall_time_s")
    return rec


def test_cli_outputs_are_seed_deterministic(tmp_path):
    """Any command repeated with the same seed writes byte-identical
    output files (run records compared net of wall time)."""
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(30, 2))
    vals[15:, 0] += 6.0
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(vals.tolist())

    pairs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        out = d / "res.json"
        r = _cli(
            "test", data, "--k", 3, "--sigma", 1, "--select", "top:1",
            "--account-selection", "--restarts", 2, "--seed", 7, "--out", out,
        )
        assert r.returncode == 0, r.stderr
        prefix = d / "sim"
        r = _cli(
            "simulate", "type1", "--out", prefix, "--n", 16, "--q", 2,
            "--k", 2, "--replicates", 8, "--seed", 11,
        )
        assert r.returncode == 0, r.stderr
        r = _cli(
            "simulate", "power", "--out", prefix, "--n", 16, "--q", 2,
            "--k", 2, "--mu", "horizontal", "--delta-grid", "0,6",
            "--replicates", 6, "--seed", 12,
        )
        assert r.returncode == 0, r.stderr
        pairs.append(d)

    a, b = pairs
    for name in (
        "res.json",
        "sim_pvalues.csv",
        "sim_qq.csv",
        "sim_summary.csv",
        "sim_power.csv",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert _record_modulo_time(a / "res.json.run.json") == _record_modulo_time(
        b / "res.json.run.json"
    )
    assert _record_modulo_time(a / "sim_run_record.json") == _record_modulo_time(
        b / "sim_run_record.json"
    )
