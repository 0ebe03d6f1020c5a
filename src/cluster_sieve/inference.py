"""User-facing tests: cluster the data, build the truncation set, and
evaluate the truncated tail probability. One runner serves them all:
it tests the selected pairs jointly (the chi and F tests) or each pair
alone (the Bonferroni baseline, min(1, pairs * smallest p)).

Every procedure conditions on the full clustering history, and
optionally on the outcome of a data-dependent pair selection. The
p-value of one group of pairs is the upper-tail probability
P(T >= t_obs | T in S) under the reference law restricted to the
analytically computed set S, which makes it exactly uniform under the
null; the Bonferroni bound over several groups is super-uniform.
Conditions that make a p-value undefined (degenerate clustering, empty
selection, no resolvable set mass) yield a not-available result
instead of an error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .core import (
    ClusterPartition, DataMatrix, Method, NotAvailable, PValueResult, interval_contains
)
from .distributions import TruncatedDistSpec, truncated_survival_info
from .kmeans import KMeansConfig, KMeansTrace, run_kmeans
from .projection import PairSet, build_projection
from .selection import SelectionRule, select_pairs
from .truncation import known_path, truncation_set, unknown_path

_VARIANCE_KINDS = ("known", "plug_in_sample", "plug_in_median", "unknown")

# Median of the chi-squared law with one degree of freedom, i.e. the
# square of the third standard normal quartile.
CHI1_MEDIAN = float(special.ndtri(0.75) ** 2)


@dataclass(frozen=True)
class VarianceSpec:
    """How the noise scale enters the test: a known value, a plug-in
    estimate, or fully estimated in-sample (the F-based procedure)."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _VARIANCE_KINDS:
            raise ValueError(f"unknown variance kind {self.kind!r}")
        if self.kind == "known":
            if self.sigma is None or not (math.isfinite(self.sigma) and self.sigma > 0):
                raise ValueError("a known sigma must be finite and positive")
        elif self.sigma is not None:
            raise ValueError(f"variance kind {self.kind!r} takes no sigma")

    @classmethod
    def known(cls, sigma: float) -> "VarianceSpec":
        return cls(kind="known", sigma=float(sigma))

    @classmethod
    def plug_in_sample(cls) -> "VarianceSpec":
        return cls(kind="plug_in_sample")

    @classmethod
    def plug_in_median(cls) -> "VarianceSpec":
        return cls(kind="plug_in_median")

    @classmethod
    def unknown(cls) -> "VarianceSpec":
        return cls(kind="unknown")


def check_test_choice(
    rule: SelectionRule, variance: VarianceSpec, account_selection: bool, bonferroni: bool
) -> None:
    """The one rule set for which test a request may ask for. Accounting
    for the selection needs a data-dependent rule, since a fixed pair
    list involves no selection event; the Bonferroni baseline needs a
    fixed pair list and a known or plug-in sigma."""
    if account_selection and not rule.is_data_dependent:
        raise ValueError("account_selection requires a data-dependent selection rule")
    if bonferroni and rule.is_data_dependent:
        raise ValueError("the Bonferroni baseline needs a fixed pair list")
    if bonferroni and variance.kind == "unknown":
        raise ValueError("the Bonferroni baseline needs a known or plug-in sigma")


@dataclass(frozen=True)
class TestRequest:
    """Everything one test invocation depends on, including which test
    runs: the joint test of the selected pairs or, with bonferroni, each
    pair alone; with account_selection also conditioned on the selection;
    over `restarts` clustering starts (see check_test_choice, run_test)."""

    data: DataMatrix
    kmeans_cfg: KMeansConfig
    rule: SelectionRule
    variance: VarianceSpec
    account_selection: bool = False
    bonferroni: bool = False
    restarts: int = 1

    def __post_init__(self):
        check_test_choice(self.rule, self.variance, self.account_selection, self.bonferroni)
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.restarts > 1 and not isinstance(self.kmeans_cfg.seed, (int, np.integer)):
            raise ValueError("restarts > 1 needs an integer kmeans_cfg.seed")


def restart_seed(seed: int, restart: int) -> int:
    """The clustering seed of start `restart` of a run seeded by `seed`."""
    return int(np.random.SeedSequence((seed, restart)).generate_state(1)[0])


def sigma_hat_sample(X: DataMatrix) -> float:
    """Pooled per-coordinate standard deviation about the global mean.

    Over-estimates the noise scale when cluster means truly differ,
    which only makes the plug-in tests conservative.
    """
    dev = X.values - X.values.mean(axis=0)
    return float(np.sqrt((dev**2).sum() / ((X.n - 1) * X.q)))


def sigma_hat_med(X: DataMatrix) -> float:
    """Median-based noise scale: the median squared deviation from the
    column medians, calibrated by the chi-squared(1) median. Robust to
    a minority of coordinates carrying signal."""
    dev2 = (X.values - np.median(X.values, axis=0)) ** 2
    return float(np.sqrt(np.median(dev2) / CHI1_MEDIAN))


def _resolve_sigma(req: TestRequest) -> tuple[float | None, dict]:
    """The noise scale of the chi test and its diagnostics; None for the
    F test, which estimates the scale in-sample."""
    v = req.variance
    if v.kind in ("known", "unknown"):
        return v.sigma, {}
    if v.kind == "plug_in_sample":
        est = sigma_hat_sample(req.data)
    else:
        est = sigma_hat_med(req.data)
    if est == 0.0:
        raise NotAvailable("the estimated noise scale is zero")
    # Plug-in estimates keep the known-sigma machinery but the exact
    # finite-sample guarantee becomes asymptotic.
    return est, {"sigma_estimate": est, "variance": v.kind, "asymptotic_only": True}


def _test(
    req: TestRequest, trace: KMeansTrace, part: ClusterPartition, V: PairSet,
    sigma: float | None, method: Method,
) -> PValueResult:
    """The one test core: the path of the data along the mean-difference
    directions of the pairs V, its truncation set S (the clustering
    history and, with account_selection, the selection), and the tail
    of the reference law truncated to S at the observed statistic. The
    law is chi with the given sigma, or F with sigma None. A statistic
    outside S, beyond the relative rounding allowance of its endpoints,
    voids the test."""
    bundle = build_projection(part, V, req.data.q)
    if sigma is None:
        path, law, df_den = unknown_path(req.data, bundle), "f", bundle.d_star
    else:
        path, law, df_den = known_path(req.data, bundle, sigma), "chi", None
    S = truncation_set(path, trace, (part, V) if req.account_selection else None)
    if not interval_contains(S, path.psi_obs, tol=1e-9 * max(1.0, path.psi_obs)):
        raise NotAvailable("statistic_outside_set")
    spec = TruncatedDistSpec(law, bundle.d, df_den, S)
    p, info = truncated_survival_info(path.psi_obs, spec)
    return PValueResult(
        statistic=path.psi_obs,
        df_num=bundle.d,
        df_den=df_den,
        truncation=S,
        p_value=p,
        method=method,
        diagnostics={**info, "iterations": trace.J, "converged": trace.converged},
    )


def _run(req: TestRequest) -> PValueResult:
    """The one runner of every test: resolve sigma, cluster, select the
    pairs V, then test V jointly, or, for Bonferroni, each pair of V on
    its own. The result is the group with the smallest p-value, whose
    p-value becomes min(1, groups * p): the Bonferroni bound, and p
    itself for the one joint group. Failures of any group give NA."""
    if req.bonferroni:
        method = Method.BONFERRONI
    elif req.variance.kind == "unknown":
        method = Method.UNKNOWN_SIGMA_SELECTED if req.account_selection else Method.UNKNOWN_SIGMA
    else:
        method = Method.KNOWN_SIGMA_SELECTED if req.account_selection else Method.KNOWN_SIGMA
    try:
        sigma, diag = _resolve_sigma(req)
        trace = run_kmeans(req.data, req.kmeans_cfg)
        part = trace.final_partition()
        V = select_pairs(req.data, part, req.rule)
        groups = [PairSet((pair,), part.K) for pair in V.pairs] if req.bonferroni else [V]
        results = [_test(req, trace, part, W, sigma, method) for W in groups]
    except NotAvailable as e:
        return PValueResult.not_available(method, str(e))
    i = min(range(len(groups)), key=lambda j: results[j].p_value)
    diag["pairs_tested"] = [list(pair) for pair in V.pairs]
    if req.bonferroni:
        diag.update(winning_pair=list(V.pairs[i]), pairwise_p_values=[r.p_value for r in results])
    p = min(1.0, len(groups) * results[i].p_value)
    return replace(results[i], p_value=p, diagnostics={**diag, **results[i].diagnostics})


def run_test(req: TestRequest) -> PValueResult:
    """The test the request asks for: the Bonferroni baseline when
    req.bonferroni is set, otherwise the F test for variance kind
    'unknown' and the chi test for every other kind.

    One start clusters from req.kmeans_cfg as given; with R > 1 starts,
    start r is seeded by restart_seed(seed, r). Their p-values are
    dependent, so their mean is not a valid p-value, but twice the mean
    is (Vovk & Wang 2020). The result is the first start with a p-value,
    which becomes min(1, 2 * mean) over such starts; its diagnostics add
    restart_p_values (None for an NA start) and na_restarts."""
    if req.restarts == 1:
        return _run(req)
    results = [
        _run(replace(req, kmeans_cfg=replace(
            req.kmeans_cfg, seed=restart_seed(req.kmeans_cfg.seed, r))))
        for r in range(req.restarts)
    ]
    ps = [None if res.degenerate else res.p_value for res in results]
    ok = [p for p in ps if p is not None]
    shown = next((res for res in results if not res.degenerate), results[0])
    diag = {**shown.diagnostics, "restart_p_values": ps, "na_restarts": len(ps) - len(ok)}
    p = min(1.0, 2.0 * float(np.mean(ok))) if ok else shown.p_value
    return replace(shown, p_value=p, diagnostics=diag)


def test_known_sigma(req: TestRequest) -> PValueResult:
    """The chi-based test of whether the selected cluster pairs share
    their means, with sigma known or plugged in.

    Conditions on every K-means iteration; with account_selection also
    on the selection outcome. The statistic is the Frobenius norm of
    the data's component along the tested mean-difference directions,
    scaled by sigma; its reference law is chi with q*rank degrees of
    freedom truncated to the conditioning set.
    """
    if req.variance.kind == "unknown":
        raise ValueError("test_known_sigma needs a known or plug-in sigma")
    return run_test(req)


def test_unknown_sigma(req: TestRequest) -> PValueResult:
    """The F-based test with the noise scale estimated in-sample from
    the within-cluster spread of the tested clusters.

    The statistic is the ratio of the mean squared between-cluster
    component to the mean squared within-cluster component; its
    reference law is F with (q*rank, d*) degrees of freedom truncated
    to the conditioning set.
    """
    if req.variance.kind != "unknown":
        raise ValueError("test_unknown_sigma takes variance kind 'unknown'")
    return run_test(req)


def test_bonferroni(req: TestRequest) -> PValueResult:
    """Bonferroni-adjusted minimum of the pairwise tests over a fixed
    pair list: min(1, |V| * min pairwise p).

    All pairwise tests share one clustering run. The reported statistic
    and truncation are those of the winning pair. Super-uniform under
    the null, so valid but conservative. A data-dependent rule or an
    unknown sigma raises ValueError (see check_test_choice).
    """
    return run_test(replace(req, bonferroni=True))
