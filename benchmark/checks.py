"""Correctness checks made apart from the library.

Nothing here calls cluster_sieve. Each check recomputes one part of a
test's answer from the data alone:

* its own Lloyd replay (ties to the lower index, initial centres are
  the chosen rows) and its own top-g selection replay decide whether
  the perturbed data x(psi) reproduces the observed clustering history
  and pair selection. Points in the middle of every piece of S and just
  inside every finite endpoint must be accepted; points just outside
  every finite endpoint must be rejected (up to 1e4 * max(1, psi_obs),
  beyond which doubles cannot decide the replay);
* the observed statistic must lie in S;
* the statistic is recomputed from between-cluster and within-cluster
  sums of squares (per connected component of the tested pairs, which
  for all pairs is the classical BSS/WSS split);
* the truncated chi or F tail mass is recomputed from S with mpmath
  at 50 digits, which also covers sets far in the tail.

`check_case` returns a list of failure messages: empty means the
result passed every check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import stats

# Relative distance from an endpoint at which replay points are placed.
# Endpoints come from closed-form roots accurate to ~1e-12 relative, so
# 1e-6 is far outside their rounding error yet small next to every
# piece and gap the workloads produce (the narrowest seen is ~1e-4
# relative); pieces or gaps narrower than 4 steps shrink the step.
_STEP = 1e-6
# Below this the step would sink into the rounding noise of x(psi).
_MIN_STEP = 1e-11
# Probes stay below this multiple of max(1, psi_obs). An assignment is
# decided by distance differences of the data's own scale, while the
# rounding error of the distances grows as eps * psi^2; at 1e4 * psi_obs
# it is still ~1e-8 of that scale, at the 1e16 where the library can put
# spurious endpoints (see CHANGES.md) the replay cannot decide anything.
# Neither law gives measurable mass that far out for these workloads.
_PSI_RANGE = 1e4
# Statistic and membership agree to this relative tolerance; both are
# a few dozen flops on doubles.
_STAT_TOL = 1e-9
# p-values agree to 1e-7 relative or 1e-10 absolute: the library works
# in doubles in log space, mpmath at 50 digits.
_P_REL, _P_ABS = 1e-7, 1e-10
# Level of the uniformity gate. Each run makes at most four of these
# tests, so a correct library fails one about once in 25,000 runs,
# while p-values taken from the untruncated law score below 1e-20.
KS_LEVEL = 1e-5


@dataclass(frozen=True)
class Case:
    """What one test call was asked to do, as plain values."""

    values: np.ndarray
    K: int
    max_iter: int
    init: tuple[int, ...]
    sigma: float | None  # None: unknown variance, F test
    pairs: tuple[tuple[int, int], ...] | None  # fixed pair list
    top_g: int | None  # top-g rule when pairs is None
    accounted: bool = False
    bonferroni: bool = False


def _assign(x: np.ndarray, centres: np.ndarray) -> np.ndarray:
    d2 = ((x[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def lloyd(x: np.ndarray, init, K: int, steps: int, stop_when_stable: bool):
    """Assignment vectors of steps 0..J, or None if a cluster empties."""
    labels = _assign(x, x[list(init)])
    seq = [labels]
    for _ in range(steps):
        sizes = np.bincount(labels, minlength=K)
        if sizes.min() == 0:
            return None
        centres = np.zeros((K, x.shape[1]))
        np.add.at(centres, labels, x)
        labels = _assign(x, centres / sizes[:, None])
        seq.append(labels)
        if stop_when_stable and np.array_equal(seq[-1], seq[-2]):
            break
    if np.bincount(seq[-1], minlength=K).min() == 0:
        return None
    return seq


def _means(x: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    sums = np.zeros((K, x.shape[1]))
    np.add.at(sums, labels, x)
    return sums / np.bincount(labels, minlength=K)[:, None]


def top_pairs(x: np.ndarray, labels: np.ndarray, K: int, g: int):
    """The g most separated cluster pairs, ties at the cut included."""
    m = _means(x, labels, K)
    pairs = [(k, kp) for k in range(K) for kp in range(k + 1, K)]
    sq = [float(((m[k] - m[kp]) ** 2).sum()) for k, kp in pairs]
    cut = sorted(sq, reverse=True)[g - 1]
    return tuple(p for p, s in zip(pairs, sq) if s >= cut)


def _components(pairs):
    parent = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    for k, kp in pairs:
        parent[find(k)] = find(kp)
    groups = {}
    for k in parent:
        groups.setdefault(find(k), []).append(k)
    return list(groups.values())


def split(x: np.ndarray, labels: np.ndarray, K: int, pairs):
    """Between part, within part and degrees of freedom for the tested
    pairs. The span of the pair contrasts of one connected component C
    holds the vectors constant on each cluster of C with zero weighted
    sum, so the between part of a row of cluster k is mean_k - mean_C
    (for all pairs: the classical between-cluster deviations)."""
    m = _means(x, labels, K)
    between = np.zeros_like(x)
    within = np.zeros_like(x)
    r = 0
    touched = 0
    count = 0
    for comp in _components(pairs):
        rows = np.isin(labels, comp)
        grand = x[rows].mean(axis=0)
        for k in comp:
            sel = labels == k
            between[sel] = m[k] - grand
            within[sel] = x[sel] - m[k]
            count += int(sel.sum())
        r += len(comp) - 1
        touched += len(comp)
    q = x.shape[1]
    return between, within, q * r, q * (count - touched)


def tail_ratio(t: float, S, d1: int, d2: int | None) -> float:
    """P(T >= t | T in S) for T ~ chi_d1 (d2 None) or F_{d1,d2}."""
    with mp.workdps(50):
        if d2 is None:

            def sf(x):
                if x == math.inf:
                    return mp.mpf(0)
                return mp.gammainc(mp.mpf(d1) / 2, mp.mpf(x) ** 2 / 2, mp.inf,
                                   regularized=True)
        else:

            def sf(x):
                if x == math.inf:
                    return mp.mpf(0)
                z = mp.mpf(d2) / (d2 + d1 * mp.mpf(x))
                return mp.betainc(mp.mpf(d2) / 2, mp.mpf(d1) / 2, 0, z,
                                  regularized=True)

        den = mp.mpf(0)
        num = mp.mpf(0)
        for lo, hi in S:
            den += sf(lo) - sf(hi)
            if hi > t:
                num += sf(max(lo, t)) - sf(hi)
        if den <= 0:
            return math.nan
        return float(num / den)


def _in_set(psi: float, S, tol: float) -> bool:
    return any(lo - tol <= psi <= hi + tol for lo, hi in S)


def _probe_points(S, limit: float):
    """(psi, should_accept) pairs below `limit`: the middle of each
    piece, just inside and just outside each finite endpoint."""
    out = []
    for i, (lo, hi) in enumerate(S):
        prev_hi = S[i - 1][1] if i > 0 else None
        next_lo = S[i + 1][0] if i + 1 < len(S) else None
        width = hi - lo
        if lo >= limit:
            break
        if width > 0:
            out.append((0.5 * (lo + min(hi, limit)), True))
        for e, inward, gap in ((lo, 1.0, None if prev_hi is None else lo - prev_hi),
                               (hi, -1.0, None if next_lo is None else next_lo - hi)):
            if e >= limit or (e == 0.0 and inward > 0):
                continue
            step = _STEP * max(e, 1.0)
            limits = [width / 4] if width > 0 else []
            if gap is not None:
                limits.append(gap / 4)
            step = min([step] + limits)
            if step < _MIN_STEP * max(e, 1.0):
                continue
            if width > 0:
                out.append((e + inward * step, True))
            if e - inward * step >= 0.0:
                out.append((e - inward * step, False))
    return out


def check_case(case: Case, res, S=None, p_value=None, statistic=None) -> list[str]:
    """Failure messages for one test result (empty: all checks pass).

    S, p_value and statistic override the result's own values; the
    self-test uses them to plant errors.
    """
    x = case.values
    K = case.K
    seq = lloyd(x, case.init, K, case.max_iter, stop_when_stable=True)
    if res.degenerate:
        if seq is None:
            return []
        return [f"not available although the clustering is not degenerate: "
                f"{res.diagnostics.get('reason')}"]
    if seq is None:
        return ["a p-value was returned although a cluster empties"]
    J = len(seq) - 1
    labels = seq[-1]
    fails = []

    diag = res.diagnostics
    if case.pairs is not None:
        selected = case.pairs
    else:
        selected = top_pairs(x, labels, K, case.top_g)
    reported = tuple(tuple(p) for p in diag.get("pairs_tested", ()))
    if reported != tuple(sorted(selected)):
        fails.append(f"pairs tested {reported} != replayed selection {selected}")
    tested = (tuple(diag["winning_pair"]),) if case.bonferroni else selected

    between, within, d, d_star = split(x, labels, K, tested)
    bss = float((between**2).sum())
    wss = float((within**2).sum())
    if case.sigma is not None:
        t = math.sqrt(bss) / case.sigma
        want_df = (d, None)
    else:
        t = (bss / d) / (wss / d_star)
        want_df = (d, d_star)
    got_t = res.statistic if statistic is None else statistic
    if abs(got_t - t) > _STAT_TOL * max(1.0, t):
        fails.append(f"statistic {got_t!r} != recomputed {t!r}")
    if (res.df_num, res.df_den) != want_df:
        fails.append(f"degrees of freedom {(res.df_num, res.df_den)} != {want_df}")

    if S is None:
        S = [(iv.lo, iv.hi) for iv in res.truncation.intervals]
    if not _in_set(t, S, _STAT_TOL * max(1.0, t)):
        fails.append(f"statistic {t!r} outside S {S}")

    # x(psi): the known-variance path scales the between part linearly;
    # the unknown-variance path trades it against the within part on a
    # sphere of fixed total squared norm.
    rest = x - between
    if case.sigma is not None:
        nb = math.sqrt(bss)

        def at(psi):
            return rest + (psi * case.sigma / nb) * between
    else:
        rest = rest - within
        rs = d_star / d
        nb, nw = math.sqrt(bss), math.sqrt(wss)
        total = math.sqrt(bss + wss)

        def at(psi):
            s1 = math.sqrt(psi / (psi + rs))
            s2 = math.sqrt(rs / (psi + rs))
            return rest + total * (s1 / nb * between + s2 / nw * within)

    def accepted(psi):
        xp = at(psi)
        got = lloyd(xp, case.init, K, J, stop_when_stable=False)
        if got is None or len(got) != len(seq):
            return False
        if not all(np.array_equal(a, b) for a, b in zip(got, seq)):
            return False
        if case.accounted:
            return top_pairs(xp, labels, K, case.top_g) == selected
        return True

    for psi, want in _probe_points(S, _PSI_RANGE * max(1.0, t)):
        if accepted(psi) != want:
            word = "rejected" if want else "accepted"
            fails.append(f"replay {word} psi={psi!r} (S={S})")

    p_ref = tail_ratio(t, S, d, want_df[1])
    if case.bonferroni:
        # The winning pair must be the one with the smallest p-value: the
        # recomputed p-value of the reported pair is that minimum.
        pairwise = diag.get("pairwise_p_values", [])
        if len(pairwise) != len(case.pairs):
            fails.append(f"{len(pairwise)} pairwise p-values for {len(case.pairs)} pairs")
        elif not abs(min(pairwise) - p_ref) <= _P_ABS + _P_REL * p_ref:
            fails.append(f"winning pair p-value {p_ref!r} != smallest pairwise "
                         f"p-value {min(pairwise)!r}")
        p_ref = min(1.0, len(case.pairs) * p_ref)
    got_p = res.p_value if p_value is None else p_value
    if not abs(got_p - p_ref) <= _P_ABS + _P_REL * p_ref:
        fails.append(f"p-value {got_p!r} != recomputed {p_ref!r}")
    return fails


def uniformity_failures(pvalues_by_variant: dict, exact: tuple, bonferroni: tuple,
                        alpha: float = 0.05) -> list[str]:
    """KS uniformity for exact variants; the Bonferroni rejection rate
    at alpha may exceed alpha by at most three standard errors."""
    fails = []
    for name in exact:
        ps = pvalues_by_variant.get(name, [])
        ks = stats.kstest(ps, "uniform").pvalue if ps else 0.0
        if not ks >= KS_LEVEL:
            fails.append(f"{name}: KS p-value {ks:.3g} over {len(ps)} nulls")
    for name in bonferroni:
        ps = pvalues_by_variant.get(name, [])
        m = len(ps)
        rate = sum(p <= alpha for p in ps) / m if m else 1.0
        limit = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / max(m, 1))
        if rate > limit:
            fails.append(f"{name}: rejection rate {rate:.3f} > {limit:.3f} over {m} nulls")
    return fails
