"""Survival functions for chi, chi-squared, and F laws, their truncated
versions, and the F-to-chi-squared fallback approximation.

Truncated p-values are ratios of tail masses that can both underflow
double precision, so the default evaluation path works per interval in
log space with a stable log-diff-exp. The F family falls back to a
moment-matched chi-squared approximation only when even the log-space
masses lose all significant digits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .core import INF, IntervalUnion, ZeroMassSet

_EPS = np.finfo(float).eps
# A log-mass difference below this multiple of the rounding noise in the
# log survival values cannot be distinguished from cancellation error.
_SIG_GUARD = 32.0
_TINY = 1e-280
_MAX_CF_ITER = 500


def chi_survival(t: float, d: int) -> float:
    """P(chi_d >= t): upper tail of the square root of a chi-squared."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(special.gammaincc(d / 2.0, t * t / 2.0))


def chisq_survival(x: float, d: int) -> float:
    """P(chi^2_d >= x)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return float(special.gammaincc(d / 2.0, x / 2.0))


def f_survival(t: float, d1: int, d2: int) -> float:
    """P(F_{d1,d2} >= t) via the regularized incomplete beta function."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == INF:
        return 0.0
    z = d2 / (d2 + d1 * t)
    return float(special.betainc(d2 / 2.0, d1 / 2.0, z))


def _log_gammaincc(a: float, x: float) -> float:
    """log Q(a, x) for the regularized upper incomplete gamma.

    Uses scipy in the body; far in the tail, where Q underflows, the
    classical continued fraction evaluated by Lentz's method gives the
    log directly:  Q(a,x) = e^{-x} x^a / Gamma(a) * CF(a,x).
    """
    if x == 0.0:
        return 0.0
    if x == INF:
        return -INF
    val = float(special.gammaincc(a, x))
    if val > _TINY:
        return math.log(val)
    # Tail regime: x is necessarily well above a, the CF converges fast.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return -x + a * math.log(x) - math.lgamma(a) + math.log(h)


def _log_betainc(a: float, b: float, z: float) -> float:
    """log I_z(a, b) for the regularized incomplete beta.

    scipy in the body; in the underflow regime the continued fraction
    applies because z is then far below the dominance boundary
    (a+1)/(a+b+2).
    """
    if z <= 0.0:
        return -INF
    if z >= 1.0:
        return 0.0
    val = float(special.betainc(a, b, z))
    if val > _TINY:
        return math.log(val)
    if z > (a + 1.0) / (a + b + 2.0):
        # Not reachable for tail ratios of interest; the scipy value has
        # underflowed and no better estimate is available here.
        return -INF if val == 0.0 else math.log(val)
    log_prefactor = (
        a * math.log(z)
        + b * math.log1p(-z)
        - math.log(a)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    return log_prefactor + math.log(_betacf(a, b, z))


def _betacf(a: float, b: float, z: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * z / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_CF_ITER):
        m2 = 2 * m
        aa = m * (b - m) * z / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * z / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def log_chi_survival(t: float, d: int) -> float:
    """log P(chi_d >= t), accurate far into the tail."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == INF:
        return -INF
    return _log_gammaincc(d / 2.0, t * t / 2.0)


def log_chisq_survival(x: float, d: int) -> float:
    if x == INF:
        return -INF
    return _log_gammaincc(d / 2.0, x / 2.0)


def log_f_survival(t: float, d1: int, d2: int) -> float:
    """log P(F_{d1,d2} >= t), accurate far into the tail."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == INF:
        return -INF
    z = d2 / (d2 + d1 * t)
    return _log_betainc(d2 / 2.0, d1 / 2.0, z)


@dataclass(frozen=True)
class TruncatedDistSpec:
    """A reference law (chi_d or F_{d1,d2}) restricted to an interval
    union on [0, inf)."""

    kind: str
    d1: int
    d2: int | None
    support: IntervalUnion

    def __post_init__(self):
        if self.kind not in ("chi", "f"):
            raise ValueError(f"unknown family {self.kind!r}")
        if self.d1 < 1 or (self.kind == "f" and (self.d2 is None or self.d2 < 1)):
            raise ValueError("degrees of freedom must be >= 1")
        if self.support.is_empty:
            raise ValueError("the truncation set must be nonempty")

    @classmethod
    def chi(cls, d: int, support: IntervalUnion) -> "TruncatedDistSpec":
        return cls(kind="chi", d1=int(d), d2=None, support=support)

    @classmethod
    def fisher_f(cls, d1: int, d2: int, support: IntervalUnion) -> "TruncatedDistSpec":
        return cls(kind="f", d1=int(d1), d2=int(d2), support=support)

    def log_sf(self, t: float) -> float:
        if self.kind == "chi":
            return log_chi_survival(t, self.d1)
        return log_f_survival(t, self.d1, self.d2)


def _log1mexp(u: float) -> float:
    """log(1 - e^u) for u <= 0, stable at both ends."""
    if u >= 0.0:
        return -INF if u == 0.0 else math.nan
    if u > -math.log(2.0):
        return math.log(-math.expm1(u))
    return math.log1p(-math.exp(u))


def _interval_log_mass(
    log_sf: Callable[[float], float], lo: float, hi: float
) -> tuple[float, bool]:
    """Log mass of one interval and whether the value is numerically
    significant (the log-survival difference exceeds rounding noise)."""
    ls_lo = log_sf(lo)
    if ls_lo == -INF:
        return -INF, False
    if hi == INF:
        return ls_lo, True
    ls_hi = log_sf(hi)
    delta = ls_hi - ls_lo
    noise = _SIG_GUARD * _EPS * max(abs(ls_lo), abs(ls_hi), 1.0)
    if delta >= 0.0:
        return -INF, False
    return ls_lo + _log1mexp(delta), (-delta) > noise


def _log_mass_of(
    log_sf: Callable[[float], float], region: IntervalUnion
) -> tuple[float, bool]:
    """Total log mass of an interval union; significant if any piece is."""
    ends = zip(region.lo.tolist(), region.hi.tolist())
    pieces = [_interval_log_mass(log_sf, lo, hi) for lo, hi in ends]
    lm = np.array([m for m, _ in pieces])
    top = lm.max(initial=-INF)
    if top == -INF:
        return -INF, False
    # log-sum-exp with the largest terms factored out, as scipy's
    # logsumexp sums them, so the result is the same to the last bit
    at_top = lm == top
    rest = np.where(at_top, 0.0, np.exp(lm - top)).sum() / at_top.sum()
    total = float(np.log1p(rest) + np.log(at_top.sum()) + top)
    return total, any(sig and m > -INF for m, sig in pieces)


def _upper_region(support: IntervalUnion, t: float) -> IntervalUnion:
    """The part of support at or above t: every piece is clipped at t
    from below, and a piece clipped to a point keeps that point."""
    lo = np.maximum(support.lo, max(t, 0.0))
    lo_closed = support.lo_closed | (lo > support.lo)
    keep = (lo < support.hi) | ((lo == support.hi) & lo_closed)
    return IntervalUnion(lo[keep], support.hi[keep], lo_closed[keep], support.hi_closed[keep])


def truncated_survival_info(t: float, spec: TruncatedDistSpec) -> tuple[float, dict]:
    """P(T >= t | T in S) for T following the reference law, with
    diagnostics about the evaluation path.

    Works per interval in log space, where set masses far below the
    double range stay exact. The F family switches to the chi-squared
    approximation only when the exact set mass is zero or has no
    significant digits; the chi family has no fallback and raises
    ZeroMassSet instead.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    info: dict = {"eval_path": "log_exact"}
    den, den_sig = _log_mass_of(spec.log_sf, spec.support)
    if spec.kind == "f" and (den == -INF or not den_sig):
        p, sub = _f_to_chisq_core(t, spec.d1, spec.d2, spec.support)
        info.update(sub)
        info["eval_path"] = "chisq_approx"
        return p, info
    if den == -INF or not den_sig:
        raise ZeroMassSet(
            "the truncation set carries no numerically detectable mass"
        )
    num, num_sig = _log_mass_of(spec.log_sf, _upper_region(spec.support, t))
    if num == -INF:
        info["numerator_underflow"] = True
        return 0.0, info
    if not num_sig:
        info["numerator_insignificant"] = True
    p = math.exp(min(num - den, 0.0))
    if p == 0.0:
        # The log ratio is finite but smaller than the double range.
        info["numerator_underflow"] = True
    if num - den > 0.0:
        # Mass above t exceeded total mass by rounding; flag if material.
        if num - den > math.log1p(1e-9):
            info["excess_mass"] = True
        p = 1.0
    return min(max(p, 0.0), 1.0), info


def truncated_survival(t: float, spec: TruncatedDistSpec) -> float:
    """P(T >= t | T in S); see truncated_survival_info for diagnostics."""
    p, _ = truncated_survival_info(t, spec)
    return p


def _f_to_chisq_value(u, d1: int, d2: int):
    """Monotone map of F_{d1,d2} values (a float or an array) to
    chi^2_{d1} values matching lower-tail probabilities approximately."""
    with np.errstate(invalid="ignore"):
        lam = (2.0 * d2 + d1 * u / 3.0 + d1 - 2.0) / (2.0 * d2 + 4.0 * d1 * u / 3.0)
    return np.where(u == INF, INF, lam * d1 * u)


def _f_to_chisq_core(
    t: float, d1: int, d2: int, support: IntervalUnion
) -> tuple[float, dict]:
    # Map the statistic and every interval endpoint; the map is strictly
    # increasing, so interval structure is preserved.
    lo, hi = (_f_to_chisq_value(u, d1, d2) for u in (support.lo, support.hi))
    mapped = IntervalUnion(lo, hi, support.lo_closed, support.hi_closed)
    log_sf = lambda x: log_chisq_survival(x, d1)
    den, den_sig = _log_mass_of(log_sf, mapped)
    if den == -INF or not den_sig:
        raise ZeroMassSet(
            "the truncation set carries no numerically detectable mass, "
            "even through the chi-squared approximation"
        )
    mt = float(_f_to_chisq_value(t, d1, d2))
    num, _ = _log_mass_of(log_sf, _upper_region(mapped, mt))
    if num == -INF:
        return 0.0, {"numerator_underflow": True}
    return math.exp(min(num - den, 0.0)), {}


def f_to_chisq_approx(t: float, d1: int, d2: int, support: IntervalUnion) -> float:
    """Approximate P(F >= t | F in S) by mapping the problem to a
    truncated chi^2_{d1}. Best effort: used when exact F tail ratios
    degrade, and exposed for direct comparison against the exact path."""
    p, _ = _f_to_chisq_core(t, d1, d2, support)
    return min(max(p, 0.0), 1.0)
