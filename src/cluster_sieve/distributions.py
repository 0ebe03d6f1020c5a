"""Survival functions for chi and F laws, and their tails truncated to
an interval union.

A truncated p-value is a ratio of set masses that can both lie far below
the double range, so every mass is kept as a log. One rule gives the log
mass of each piece [lo, hi] under either law: the log difference of the
smaller of the two tails P(T <= hi) and P(T >= lo), which keeps every
digit unless the piece holds only a small part of that tail. Such a
narrow piece is integrated instead, by a fixed Gauss-Legendre rule on
its density taken relative to the value at the piece's lower end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import INF, IntervalUnion, ZeroMassSet

_TINY = 1e-280
_MAX_CF_ITER = 500
_LN2 = math.log(2.0)
# The smallest normal double: a lower tail below it has lost digits to
# gradual underflow, and counts as 0.
_NORMAL_MIN = np.finfo(float).tiny

# A piece is narrow when its log tail difference delta has -delta below
# this. At or above it, the piece holds at least 1 - 1/e of the smaller
# tail, so top + log(1 - e^delta) carries the rounding of the two tails
# times at most 1/(1 - 1/e) ~ 1.6. Below it, x*f(x) changes little
# across the piece on the scale s = log(x/lo): by at most a factor e^0.49
# over the 5,799 narrow pieces of 2,000 random sets of both laws, d1 from
# 1 to 40, deep tails and pieces starting at 0 included.
_NARROW = 1.0
# The n-node rule integrates e^(c*t) on [-1, 1] to a relative error of
# about 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) * c^(2n). For n = 12 that is
# 3e-31 * c^24, below one ulp for c up to 3.5, that is, for x*f(x)
# changing by up to e^7 across the piece, far beyond the e^0.49 seen.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)
# the same rule on [0, 1]
_NODES, _WEIGHTS = (1.0 + _NODES) / 2.0, _WEIGHTS / 2.0


def chi_survival(t: float, d: int) -> float:
    """P(chi_d >= t): upper tail of the square root of a chi-squared."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(special.gammaincc(d / 2.0, t * t / 2.0))


def f_survival(t: float, d1: int, d2: int) -> float:
    """P(F_{d1,d2} >= t) via the regularized incomplete beta function."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == INF:
        return 0.0
    z = d2 / (d2 + d1 * t)
    return float(special.betainc(d2 / 2.0, d1 / 2.0, z))


def _log_gammaincc_cf(a: float, x: float, rel: float) -> float:
    """log Q(a, x) + x - rel for the regularized upper incomplete gamma
    where Q underflows: x is then well above a, and the classical
    continued fraction, evaluated by Lentz's method, gives the log
    directly: Q(a,x) = e^{-x} x^a / Gamma(a) * CF(a,x). rel is x less a
    fixed offset, which the caller forms without the rounding of x."""
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
    return -rel + a * math.log(x) - math.lgamma(a) + math.log(h)


def _log_betainc_cf(a: float, b: float, z: float) -> float:
    """log I_z(a, b) for the regularized incomplete beta where it
    underflows: z is then far below the dominance boundary
    (a+1)/(a+b+2), where the continued fraction converges fast."""
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


def _log_tails(kind: str, d1: int, d2: int | None, x: np.ndarray, x0: float = 0.0):
    """log P(T <= x) and log P(T >= x) at each x >= 0 of an array, for T
    following chi_d1 or F_{d1,d2}. Upper tails below the double range
    come from continued fractions; lower tails below the normal range
    are -inf. Callers silence numpy's warnings for log(0).

    Chi logs are returned plus x0^2/2, so that far out on the axis the
    logs at nearby points differ to full precision: the continued
    fraction takes -(x - x0)(x + x0)/2 in place of the density's -x^2/2,
    whose rounding error of eps*x^2/2 their difference would keep."""
    shift = 0.0
    if kind == "chi":
        a, u, shift = d1 / 2.0, x * x / 2.0, x0 * x0 / 2.0
        lower, upper = special.gammainc(a, u), special.gammaincc(a, u)
        deep = lambda i: _log_gammaincc_cf(a, u[i], (x[i] - x0) * (x[i] + x0) / 2.0)
    else:
        a, b = d1 / 2.0, d2 / 2.0
        zc = d2 / (d2 + d1 * x)
        z = np.where(x == INF, 1.0, d1 * x / (d1 * x + d2))
        lower, upper = special.betainc(a, b, z), special.betainc(b, a, zc)
        deep = lambda i: _log_betainc_cf(b, a, zc[i])
    # each tail from the smaller one once it passes 1/2, so that log P and
    # log Q near 0 keep the digits of the other tail
    lower = np.where(lower < _NORMAL_MIN, 0.0, lower)
    log_lower = np.where(lower > 0.5, np.log1p(-upper), np.log(lower)) + shift
    log_upper = np.where(upper > 0.5, np.log1p(-lower), np.log(upper)) + shift
    for i in np.flatnonzero((upper <= _TINY) & (x < INF)):
        log_upper[i] = deep(i)
    return log_lower, log_upper


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


def _narrow_log_mass(
    spec: TruncatedDistSpec, lo: np.ndarray, hi: np.ndarray, x0: float
) -> np.ndarray:
    """Log mass of pieces 0 < lo <= hi whose tail difference has too few
    digits: log(lo f(lo)) plus the log of the integral of x f(x) / (lo f(lo))
    over s = log(x/lo) in [0, log(hi/lo)]. On that scale the integrand is
    smooth even where f is not, as F with d1 = 1 is at 0, and the offsets
    x - lo are formed without rounding x. Chi masses are plus x0^2/2, as
    in _log_tails."""
    d1, d2 = spec.d1, spec.d2
    span = np.log1p((hi - lo) / lo)
    s = span[:, None] * _NODES
    u = lo[:, None] * np.expm1(s)
    if spec.kind == "chi":
        log_c = (d1 / 2.0 - 1.0) * _LN2 + math.lgamma(d1 / 2.0)
        log_xf = d1 * np.log(lo) - (lo - x0) * (lo + x0) / 2.0 - log_c
        rel = d1 * s - u * (2.0 * lo[:, None] + u) / 2.0
    else:
        log_xf = (
            d1 / 2.0 * np.log(d1 * lo / d2)
            - (d1 + d2) / 2.0 * np.log1p(d1 * lo / d2)
            - special.betaln(d1 / 2.0, d2 / 2.0)
        )
        rel = d1 / 2.0 * s - (d1 + d2) / 2.0 * np.log1p(d1 * u / (d2 + d1 * lo[:, None]))
    return log_xf + np.log(span * (np.exp(rel) @ _WEIGHTS))


def _piece_log_mass(spec: TruncatedDistSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Log mass of each piece [lo, hi] under the law of spec: the one
    rule for both laws, for every piece of every set. A piece is the log
    difference of the smaller of its two tails, P(T <= hi) or P(T >= lo),
    unless it is narrow. Chi masses are all plus x0^2/2, x0 the smallest
    lo, so that pieces far out on the axis keep their ratios. The shift
    costs no digits where a tail is computed directly: an upper tail's
    log is itself about -x^2/2 <= -x0^2/2, and a lower tail serves only
    pieces below the median, where x0^2/2 < d1/2."""
    n = lo.size
    x0 = float(lo.min()) if spec.kind == "chi" else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p, log_q = _log_tails(spec.kind, spec.d1, spec.d2, np.concatenate((lo, hi)), x0)
        lower = log_p[n:] < log_q[:n]
        top = np.where(lower, log_p[n:], log_q[:n])
        delta = np.where(lower, log_p[:n], log_q[n:]) - top
        # log(1 - e^delta), stable at both ends
        mass = top + np.where(delta > -_LN2, np.log(-np.expm1(delta)), np.log1p(-np.exp(delta)))
        narrow = (-delta < _NARROW) & (top > -INF)
        if narrow.any():
            mass[narrow] = _narrow_log_mass(spec, lo[narrow], hi[narrow], x0)
    return np.where(top > -INF, mass, -INF)


def truncated_survival_info(t: float, spec: TruncatedDistSpec) -> tuple[float, dict]:
    """P(T >= t | T in S) for T following the reference law, with
    diagnostics about the evaluation.

    The masses of S and of its part at or above t are log sums of the
    piece masses of _piece_log_mass. A set with no mass in double
    precision raises ZeroMassSet.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    S = spec.support
    # S clipped at t from below; a piece wholly below t becomes the
    # point t, which holds no mass
    above = np.maximum(S.lo, t)
    lo, hi = np.concatenate((S.lo, above)), np.concatenate((S.hi, np.maximum(S.hi, above)))
    lm = _piece_log_mass(spec, lo, hi)
    den, num = np.logaddexp.reduce(lm[: S.lo.size]), np.logaddexp.reduce(lm[S.lo.size :])
    if den == -INF:
        raise ZeroMassSet("the truncation set carries no mass in double precision")
    info: dict = {"eval_path": "log_exact"}
    p = math.exp(min(num - den, 0.0))
    if p == 0.0:
        # No mass above t, or a ratio below the double range.
        info["numerator_underflow"] = True
    if num - den > math.log1p(1e-9):
        # Mass above t exceeded total mass by more than rounding.
        info["excess_mass"] = True
    return p, info
