"""Calibration and power studies on synthetic Gaussian data.

Rows are drawn around one of three mean layouts: all zeros, means
marching along the first axis, or means on a regular polygon in the
first two coordinates. Replicates are seeded independently from a
master seed, so results are bit-reproducible and order-independent,
and replicate batches can run across worker processes.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import DataMatrix, PValueResult
from .inference import TestRequest, VarianceSpec, check_test_choice, run_test
from .kmeans import KMeansConfig
from .selection import SelectionRule

_MU_KINDS = ("null", "horizontal", "kgon")


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario: data law, clustering setup, and which
    test to run on each replicate."""

    n: int
    q: int
    K: int
    sigma: float
    mu_kind: str
    delta: float
    replicates: int
    rule: SelectionRule
    variance: VarianceSpec
    account_selection: bool = False
    bonferroni: bool = False
    alpha: float = 0.05
    master_seed: int = 0
    kmeans_max_iter: int = 50

    def __post_init__(self):
        if self.mu_kind not in _MU_KINDS:
            raise ValueError(f"unknown mean layout {self.mu_kind!r}")
        if self.n < 2 or self.q < 1 or self.K < 2:
            raise ValueError("need n >= 2, q >= 1, K >= 2")
        if self.K > self.n:
            raise ValueError(f"K={self.K} exceeds the number of rows n={self.n}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.mu_kind != "null":
            if self.n % self.K != 0:
                raise ValueError("structured layouts need K to divide n")
            if self.mu_kind == "kgon" and self.q < 2:
                raise ValueError("the polygon layout needs q >= 2")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        check_test_choice(self.rule, self.variance, self.account_selection, self.bonferroni)
        if self.rule.g is not None and self.rule.g > self.K * (self.K - 1) // 2:
            raise ValueError(f"g={self.rule.g} exceeds the number of cluster pairs")
        if self.kmeans_max_iter < 1:
            raise ValueError("kmeans_max_iter must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")


@dataclass(frozen=True)
class Type1Result:
    """Sorted non-NA p-values with the uniformity summary. qq_points
    pairs each empirical quantile with its uniform plotting position."""

    pvalues: tuple[float, ...]
    per_replicate: tuple[tuple[int, float], ...]
    ks_stat: float
    ks_pvalue: float
    na_count: int

    @property
    def qq_points(self) -> tuple[tuple[float, float], ...]:
        m = len(self.pvalues)
        return tuple(((i + 0.5) / m, p) for i, p in enumerate(self.pvalues))


@dataclass(frozen=True)
class PowerRow:
    delta: float
    power: float
    stderr: float
    na_count: int
    replicates: int


def _means(cfg: SimConfig) -> np.ndarray:
    mu = np.zeros((cfg.n, cfg.q))
    if cfg.mu_kind == "null":
        return mu
    block = cfg.n // cfg.K
    for k in range(cfg.K):
        rows = slice(k * block, (k + 1) * block)
        if cfg.mu_kind == "horizontal":
            mu[rows, 0] = k * cfg.delta
        else:
            angle = 2.0 * math.pi * k / cfg.K
            mu[rows, 0] = cfg.delta * math.cos(angle)
            mu[rows, 1] = cfg.delta * math.sin(angle)
    return mu


def gen_data(cfg: SimConfig, replicate_seed) -> DataMatrix:
    """One draw of the scenario's data: the mean layout plus isotropic
    Gaussian noise. replicate_seed is anything numpy's default_rng
    accepts (int, SeedSequence, Generator)."""
    rng = np.random.default_rng(replicate_seed)
    return DataMatrix(_means(cfg) + cfg.sigma * rng.standard_normal((cfg.n, cfg.q)))


def replicate_seeds(master_seed: int, rep: int):
    """Independent (data, clustering) seed pair for one replicate,
    derived so replicates can run in any order."""
    return np.random.SeedSequence((master_seed, rep)).spawn(2)


def run_replicate(cfg: SimConfig, rep: int) -> PValueResult:
    """Generate, cluster, and test replicate `rep` of the scenario."""
    data_seed, kmeans_seed = replicate_seeds(cfg.master_seed, rep)
    X = gen_data(cfg, data_seed)
    kcfg = KMeansConfig(
        K=cfg.K,
        max_iter=cfg.kmeans_max_iter,
        seed=int(kmeans_seed.generate_state(1)[0]),
    )
    req = TestRequest(
        data=X,
        kmeans_cfg=kcfg,
        rule=cfg.rule,
        variance=cfg.variance,
        account_selection=cfg.account_selection,
        bonferroni=cfg.bonferroni,
    )
    return run_test(req)


def _one_pvalue(args) -> tuple[int, float]:
    cfg, rep = args
    res = run_replicate(cfg, rep)
    return rep, (math.nan if res.degenerate else res.p_value)


def _map_replicates(cfg: SimConfig, workers: int) -> list[tuple[int, float]]:
    jobs = [(cfg, rep) for rep in range(cfg.replicates)]
    if workers <= 1:
        out = [_one_pvalue(j) for j in jobs]
    else:
        chunk = max(1, cfg.replicates // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(_one_pvalue, jobs, chunksize=chunk))
    return sorted(out)


def run_type1(cfg: SimConfig, workers: int = 1) -> Type1Result:
    """Replicate the scenario under its own config (normally a null
    layout) and summarize how uniform the p-values are.

    Degenerate replicates are skipped and counted, never imputed.
    """
    from scipy import stats  # ~0.4 s to import; only this summary needs it

    records = _map_replicates(cfg, workers)
    ps = sorted(p for _, p in records if not math.isnan(p))
    na = cfg.replicates - len(ps)
    if ps:
        ks = stats.kstest(ps, "uniform")
        ks_stat, ks_p = float(ks.statistic), float(ks.pvalue)
    else:
        ks_stat, ks_p = math.nan, math.nan
    return Type1Result(
        pvalues=tuple(ps),
        per_replicate=tuple(records),
        ks_stat=ks_stat,
        ks_pvalue=ks_p,
        na_count=na,
    )


def run_power(cfg: SimConfig, delta_grid, workers: int = 1) -> list[PowerRow]:
    """Rejection rate at cfg.alpha for each signal strength in
    delta_grid, with binomial standard errors; NA replicates are
    excluded from the denominator."""
    rows = []
    for delta in delta_grid:
        sub = replace(cfg, delta=float(delta))
        records = _map_replicates(sub, workers)
        ps = [p for _, p in records if not math.isnan(p)]
        m = len(ps)
        power = sum(p <= cfg.alpha for p in ps) / m if m else math.nan
        stderr = math.sqrt(power * (1.0 - power) / m) if m else math.nan
        rows.append(
            PowerRow(
                delta=float(delta),
                power=power,
                stderr=stderr,
                na_count=cfg.replicates - m,
                replicates=cfg.replicates,
            )
        )
    return rows
