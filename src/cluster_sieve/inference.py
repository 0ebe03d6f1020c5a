"""User-facing tests: cluster the data, build the truncation set, and
evaluate the truncated tail probability.

Every procedure conditions on the full clustering history, and
optionally on the outcome of a data-dependent pair selection. All
p-values are the upper-tail probability P(T >= t_obs | T in S) under
the reference law restricted to the analytically computed set S, which
makes them exactly uniform under the null in every variant. Conditions
that make a p-value undefined (degenerate clustering, empty selection,
no resolvable set mass) yield a not-available result instead of an
error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import DataMatrix, Method, NotAvailable, PValueResult, interval_contains
from .distributions import TruncatedDistSpec, truncated_survival_info
from .kmeans import KMeansConfig, KMeansTrace, run_kmeans
from .projection import PairSet, ProjectionBundle, build_projection
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


@dataclass(frozen=True)
class TestRequest:
    """Everything one test invocation depends on.

    account_selection asks the test to additionally condition on the
    observed outcome of the selection rule; it requires a
    data-dependent rule, since a fixed pair list involves no selection
    event.
    """

    data: DataMatrix
    kmeans_cfg: KMeansConfig
    rule: SelectionRule
    variance: VarianceSpec
    account_selection: bool = False

    def __post_init__(self):
        if self.account_selection and not self.rule.is_data_dependent:
            raise ValueError(
                "account_selection requires a data-dependent selection rule"
            )


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


def _prepare(req: TestRequest):
    trace = run_kmeans(req.data, req.kmeans_cfg)
    part = trace.final_partition()
    return trace, part, select_pairs(req.data, part, req.rule)


def _test(
    req: TestRequest,
    trace: KMeansTrace,
    V: PairSet,
    bundle: ProjectionBundle,
    sigma: float | None,
    method: Method,
    diag: dict,
) -> PValueResult:
    """The one test core: the path of the data along the directions of
    bundle, its truncation set S (the clustering history and, with
    account_selection, the selection V), and the tail of the reference
    law truncated to S at the observed statistic. The law is chi with
    the given sigma, or F with sigma None. A statistic outside S, beyond
    the relative rounding allowance of its endpoints, voids the test."""
    if sigma is None:
        path, law, df_den = unknown_path(req.data, bundle), "f", bundle.d_star
    else:
        path, law, df_den = known_path(req.data, bundle, sigma), "chi", None
    S = truncation_set(path, trace, (bundle.part, V) if req.account_selection else None)
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
        diagnostics={**diag, **info, "iterations": trace.J, "converged": trace.converged},
    )


def _joint_test(req: TestRequest, method: Method, selected: Method) -> PValueResult:
    """One test of every pair the rule selects, jointly, tagged `method`
    or, when it accounts for the selection, `selected`."""
    method = selected if req.account_selection else method
    try:
        sigma, diag = _resolve_sigma(req)
        trace, part, V = _prepare(req)
        bundle = build_projection(part, V, req.data.q)
        diag = {**diag, "pairs_tested": [list(pair) for pair in V.pairs]}
        return _test(req, trace, V, bundle, sigma, method, diag)
    except NotAvailable as e:
        return PValueResult.not_available(method, str(e))


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
    return _joint_test(req, Method.KNOWN_SIGMA, Method.KNOWN_SIGMA_SELECTED)


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
    return _joint_test(req, Method.UNKNOWN_SIGMA, Method.UNKNOWN_SIGMA_SELECTED)


def test_bonferroni(req: TestRequest) -> PValueResult:
    """Bonferroni-adjusted minimum of the pairwise tests over a fixed
    pair list: min(1, |V| * min pairwise p).

    All pairwise tests share one clustering run. The reported statistic
    and truncation are those of the winning pair. Super-uniform under
    the null, so valid but conservative.
    """
    if req.rule.is_data_dependent:
        raise ValueError("test_bonferroni needs a fixed pair list")
    if req.variance.kind == "unknown":
        raise ValueError("test_bonferroni needs a known or plug-in sigma")
    try:
        sigma, diag = _resolve_sigma(req)
        trace, part, V = _prepare(req)
        results = []
        for pair in V.pairs:
            one = PairSet((pair,), part.K)
            bundle = build_projection(part, one, req.data.q)
            res = _test(req, trace, one, bundle, sigma, Method.KNOWN_SIGMA, diag)
            results.append(res)
    except NotAvailable as e:
        return PValueResult.not_available(Method.BONFERRONI, str(e))
    best = min(range(len(results)), key=lambda i: results[i].p_value)
    winner = results[best]
    return PValueResult(
        statistic=winner.statistic,
        df_num=winner.df_num,
        df_den=None,
        truncation=winner.truncation,
        p_value=min(1.0, len(V.pairs) * winner.p_value),
        method=Method.BONFERRONI,
        diagnostics={
            **winner.diagnostics,
            "pairs_tested": [list(pair) for pair in V.pairs],
            "winning_pair": list(V.pairs[best]),
            "pairwise_p_values": [r.p_value for r in results],
        },
    )


def run_test(req: TestRequest, bonferroni: bool = False) -> PValueResult:
    """The test a request asks for: the Bonferroni baseline over a fixed
    pair list when bonferroni is set, otherwise the F test for variance
    kind 'unknown' and the chi test for every other kind."""
    if bonferroni:
        return test_bonferroni(req)
    if req.variance.kind == "unknown":
        return test_unknown_sigma(req)
    return test_known_sigma(req)
