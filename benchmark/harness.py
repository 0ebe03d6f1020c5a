"""Workloads, timing, checks and metrics of the cluster-sieve benchmark.

Imported by run.py after it has timed the cold set-up and put the
library's source first on sys.path.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

import cluster_sieve
from cluster_sieve import cli, inference, simulation
from cluster_sieve import DataMatrix, KMeansConfig, SelectionRule, TestRequest, VarianceSpec

import checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


@dataclass
class Op:
    """One whole test call, with what the checks need to verify it."""

    tid: str
    variant: str
    call: Callable
    case: Callable[[], checks.Case]


# ---------------------------------------------------------------------------
# workloads: each is a function of the seed returning round(r) -> [Op]


def _clustered(seed: int, tag: int, n: int, q: int, K: int, delta: float):
    """n rows in K equal groups, group k shifted by delta along axis
    k mod q, unit Gaussian noise; plus K distinct initial rows."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag)))
    mu = np.zeros((K, q))
    mu[np.arange(K), np.arange(K) % q] = delta
    x = mu[np.arange(n) % K] + rng.standard_normal((n, q))
    init = tuple(int(i) for i in rng.choice(n, size=K, replace=False))
    return x, init


CALIB_VARIANTS = (
    # name, rule, unknown sigma, account selection, bonferroni
    ("known_all", "all", False, False, False),
    ("unknown_all", "all", True, False, False),
    ("bonferroni", "all", False, False, True),
    ("known_top1", "top1", False, True, False),
    ("unknown_top1", "top1", True, True, False),
)
CALIB_EXACT = ("known_all", "unknown_all", "known_top1", "unknown_top1")


def calib_small(seed: int):
    """Null Type I study, n=60, q=2, K=3, one replicate of each of five
    variants per round, driven through simulation.run_replicate."""
    n, q, K = 60, 2, 3
    cfgs = {}
    for name, rule, unknown, acc, bonf in CALIB_VARIANTS:
        cfgs[name] = simulation.SimConfig(
            n=n, q=q, K=K, sigma=1.0, mu_kind="null", delta=0.0, replicates=1,
            rule=SelectionRule.fixed_all(K) if rule == "all" else SelectionRule.top_g(1),
            variance=VarianceSpec.unknown() if unknown else VarianceSpec.known(1.0),
            account_selection=acc, bonferroni=bonf, master_seed=seed,
        )
    all_pairs = SelectionRule.fixed_all(K).pairs

    def case_for(name, rep):
        def build():
            cfg = cfgs[name]
            data_seed, kmeans_seed = simulation.replicate_seeds(seed, rep)
            x = simulation.gen_data(cfg, data_seed).values
            # KMeansConfig draws its K initial rows this way from the seed
            # run_replicate derives (documented in KMeansConfig).
            kseed = int(kmeans_seed.generate_state(1)[0])
            init = tuple(int(i) for i in
                         np.random.default_rng(kseed).choice(n, size=K, replace=False))
            return checks.Case(
                values=x, K=K, max_iter=cfg.kmeans_max_iter, init=init,
                sigma=None if cfg.variance.kind == "unknown" else 1.0,
                pairs=None if cfg.rule.is_data_dependent else all_pairs,
                top_g=cfg.rule.g, accounted=cfg.account_selection,
                bonferroni=cfg.bonferroni,
            )
        return build

    def round_ops(r):
        return [
            Op(f"calib_small:{r}:{name}", name,
               lambda cfg=cfgs[name]: simulation.run_replicate(cfg, r),
               case_for(name, r))
            for name, *_ in CALIB_VARIANTS
        ]

    return round_ops


def _repeated(name, variant, x, init, K, max_iter, rule, unknown, accounted, test):
    """round(r) -> the same single test on fixed data."""
    req = TestRequest(
        data=DataMatrix(x),
        kmeans_cfg=KMeansConfig(K=K, max_iter=max_iter, init_indices=init),
        rule=rule,
        variance=VarianceSpec.unknown() if unknown else VarianceSpec.known(1.0),
        account_selection=accounted,
    )
    case = checks.Case(
        values=x, K=K, max_iter=max_iter, init=init, sigma=None if unknown else 1.0,
        pairs=rule.pairs, top_g=rule.g, accounted=accounted,
    )

    def round_ops(r):
        return [Op(f"{name}:{r}", variant,
                   lambda: getattr(inference, test)(req), lambda: case)]

    return round_ops


def large_known(seed: int):
    """One analyst-sized clustered dataset, known sigma, all pairs.
    max_iter=7 records exactly 8 Lloyd steps on every seed: uncapped,
    this layout converges after 9 to 50 steps depending on the seed, and
    a test's cost grows with the step count."""
    K = 5
    x, init = _clustered(seed, 1, n=3000, q=10, K=K, delta=2.0)
    return _repeated("large_known", "known_all", x, init, K, 7,
                     SelectionRule.fixed_all(K), False, False, "test_known_sigma")


def unknown_selected(seed: int):
    """The F test of the top-3 of K=8 clusters with the selection
    accounted for. max_iter=5 records exactly 6 Lloyd steps on every
    seed (uncapped: 7 to 40 steps)."""
    K = 8
    x, init = _clustered(seed, 2, n=400, q=10, K=K, delta=2.0)
    return _repeated("unknown_selected", "unknown_top3", x, init, K, 5,
                     SelectionRule.top_g(3), True, True, "test_unknown_sigma")


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Sample:
    op: Op
    seconds: float
    result: object  # PValueResult, or None when the call raised
    traced: bool
    scale: float = 1.0  # REF_NOMINAL / reference time around its round


def run_op(op: Op, tracer: Tracer | None) -> Sample:
    try:
        if tracer is None:
            t0 = time.perf_counter()
            res = op.call()
            dt = time.perf_counter() - t0
        else:
            with tracer:
                tracer.test_id = op.tid
                t0 = time.perf_counter()
                res = tracer.span("test", op.call)
                dt = time.perf_counter() - t0
                tracer.test_id = None
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        return Sample(op, math.nan, None, tracer is not None)
    return Sample(op, dt, res, tracer is not None)


# Times are reported at a nominal machine speed: on a shared 2-CPU host
# the speed a process gets drifts by 10-30% between and within runs. A
# fixed computation is timed between rounds, and each call's time is
# multiplied by REF_NOMINAL / (mean of the reference times just before
# and just after its round): seconds on a machine on which the
# reference takes REF_NOMINAL seconds. Over eight same-seed runs of
# calib_small this cut the run-to-run CV of throughput from 7.8% to
# 1.8% (one scale per run, from the median reference: 4.1%).
REF_NOMINAL = 0.02


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))


def reference_work() -> None:
    """Fixed work of the kind the library's Python loops do: square
    roots, small frozen objects, sorting. Of three candidates (this, a
    plain arithmetic loop, small numpy calls) it tracked the run-to-run
    drift of calib_small best. About 20 ms."""
    kept = []
    for i in range(1, 7501):
        a, b = math.sqrt(i), (i % 97) / 7.0
        kept.append(_Piece(min(a, b), max(a, b)))
        if len(kept) > 8:
            kept = sorted(kept, key=lambda p: (p.lo, p.hi))[:4]


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def settle() -> None:
    """Move every live object out of the collector's view. The results a
    run keeps grow the heap round by round; without this each later
    collection, in the library and in the reference alike, scans them,
    and a fast run that keeps more results slows itself down."""
    gc.collect()
    gc.freeze()


# Cold set-ups timed per run: one at the start, the rest spread over
# the timed phase, so their median is taken over the machine's speed
# through the run rather than at one moment.
SETUP_SAMPLES = 5


def measure(round_ops, seconds: float, tracer: Tracer | None, cold_setup=None):
    """Whole rounds until `seconds` of rounds have passed, after one
    warm-up round, with a reference sample between rounds. With a
    tracer, each round runs untraced and then traced, on the same
    inputs. With `cold_setup`, it is called SETUP_SAMPLES - 1 times
    between rounds, at even shares of the timed phase; the time it takes
    does not count towards `seconds`."""
    warm = [run_op(op, None) for op in round_ops(0)]
    timed = []
    setups = []
    wanted = 0 if cold_setup is None else SETUP_SAMPLES - 1
    settle()
    before = time_reference()
    t0 = time.perf_counter()
    r = 1
    while True:
        ops = round_ops(r)
        batch = [run_op(op, None) for op in ops]
        if tracer is not None:
            batch += [run_op(op, tracer) for op in ops]
        settle()
        after = time_reference()
        for s in batch:
            s.scale = 2.0 * REF_NOMINAL / (before + after)
        timed += batch
        before = after
        r += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            break
        if len(setups) < wanted and len(setups) + 1 <= SETUP_SAMPLES * elapsed / seconds:
            setups.append(cold_setup())
            t0 += setups[-1]
    while len(setups) < wanted:
        setups.append(cold_setup())
    return warm, timed, setups


def self_test() -> list[str]:
    """Plant one error per check in a real result; each must be flagged,
    and the unaltered result must pass."""
    x = np.random.default_rng(20240526).standard_normal((60, 2))
    init = (3, 17, 41)
    req = TestRequest(DataMatrix(x), KMeansConfig(K=3, init_indices=init),
                      SelectionRule.fixed_all(3), VarianceSpec.known(1.0))
    res = inference.test_known_sigma(req)
    case = checks.Case(values=x, K=3, max_iter=50, init=init, sigma=1.0,
                       pairs=SelectionRule.fixed_all(3).pairs, top_g=None)
    S = [(iv.lo, iv.hi) for iv in res.truncation.intervals]
    i = next(j for j, (lo, hi) in enumerate(S) if lo <= res.statistic <= hi)
    lo, hi = S[i]
    moved = list(S)
    moved[i] = (lo, hi + 0.1 * (hi - lo)) if hi < math.inf else (0.9 * lo, hi)
    plants = {
        "control": ({}, None),
        "moved endpoint": ({"S": moved}, "replay"),
        "untruncated p-value": (
            {"p_value": float(stats.chi(res.df_num).sf(res.statistic))}, "p-value"),
        "wrong statistic": ({"statistic": res.statistic * 1.001}, "statistic"),
    }
    problems = []
    for name, (override, expect) in plants.items():
        fails = checks.check_case(case, res, **override)
        if expect is None and fails:
            problems.append(f"self-test {name}: flagged {fails}")
        if expect is not None and not any(f.startswith(expect) for f in fails):
            problems.append(f"self-test {name}: not flagged by the {expect} check")
    # A Bonferroni result whose winning pair is not the smallest p-value.
    bonf = inference.test_bonferroni(req)
    pairwise = list(bonf.diagnostics["pairwise_p_values"])
    loser = pairwise.index(max(pairwise))
    pairwise[loser] = 0.5 * min(pairwise)
    planted = dataclasses.replace(
        bonf, diagnostics={**bonf.diagnostics, "pairwise_p_values": pairwise})
    bcase = dataclasses.replace(case, bonferroni=True)
    control = checks.check_case(bcase, bonf)
    if control:
        problems.append(f"self-test Bonferroni control: flagged {control}")
    if not any(f.startswith("winning pair") for f in checks.check_case(bcase, planted)):
        problems.append("self-test wrong winning pair: not flagged by the Bonferroni check")
    return problems


def verify(samples, workload: str) -> list[str]:
    """Failure messages of the independent checks over every result;
    operations that raised are counted as failed, not checked."""
    problems = []
    by_variant = {}
    for s in samples:
        if s.result is None:
            continue
        problems += [f"{s.op.tid}: {f}" for f in checks.check_case(s.op.case(), s.result)]
        if not s.result.degenerate:
            by_variant.setdefault(s.op.variant, []).append(s)
    if workload == "calib_small":
        ps = {v: [s.result.p_value for s in ss] for v, ss in by_variant.items()}
        problems += checks.uniformity_failures(ps, CALIB_EXACT, ("bonferroni",))
        # The uniformity gate must reject p-values from the untruncated law.
        naive = [float(stats.chi(s.result.df_num).sf(s.result.statistic))
                 for s in by_variant.get("known_all", [])]
        if len(naive) >= 20 and not checks.uniformity_failures({"naive": naive}, ("naive",), ()):
            problems.append("self-test: KS gate accepted untruncated p-values")
    return problems


# ---------------------------------------------------------------------------
# metrics


def end_to_end(timed, setups) -> dict:
    """setup_s is the median of the cold starts, not scaled; test_s and
    pvalues_per_s are scaled to the nominal machine speed and count only
    time spent inside test calls, not the reference samples between them."""
    ok = [s for s in timed if s.result is not None]
    pvalues = sum(1 for s in ok if not s.result.degenerate)
    busy = sum(s.seconds for s in ok)
    print(f"unscaled test_s {statistics.median(s.seconds for s in ok)!r} "
          f"pvalues_per_s {pvalues / busy!r}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "test_s": (statistics.median(s.seconds * s.scale for s in ok), "s"),
        "pvalues_per_s": (pvalues / sum(s.seconds * s.scale for s in ok), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(timed, tracer: Tracer, cli_times) -> dict:
    traced = [s for s in timed if s.traced and s.result is not None]
    plain = [s for s in timed if not s.traced and s.result is not None]
    tids = [s.op.tid for s in traced]
    busy, calls, self_s = tracer.per_test(tids)
    m = max(len(traced), 1)

    def mean_busy(name):
        return sum(busy[(t, name)] for t in tids) / m

    def mean_count(name, i):
        return sum(tracer.counts[(t, name)][i] for t in tids) / m

    ineq = 0
    for s in traced:
        # Every clustering set is built from the test's one K-means trace;
        # a rank rule adds one inequality per (selected, unselected) pair.
        for n, K, J in tracer.traces[s.op.tid][:1]:
            ineq += calls[(s.op.tid, "truncation.clustering")] * (J + 1) * n * (K - 1)
            if not s.result.degenerate:
                chosen = len(s.result.diagnostics["pairs_tested"])
                ineq += (calls[(s.op.tid, "truncation.selection")]
                         * chosen * (K * (K - 1) // 2 - chosen))
    # Each call ran untraced and then traced in the same round, so the
    # paired difference cancels the machine's drift.
    untraced = {s.op.tid: s.seconds for s in plain}
    overhead = statistics.median(s.seconds - untraced[s.op.tid] for s in traced)
    return {
        "kmeans.run_s": (mean_busy("kmeans.run"), "s"),
        "kmeans.iterations": (sum(J for t in tids for _, _, J in tracer.traces[t]) / m, "count"),
        "selection.select_s": (mean_busy("selection.select"), "s"),
        "projection.build_s": (mean_busy("projection.build"), "s"),
        "truncation.path_s": (mean_busy("truncation.path"), "s"),
        "truncation.clustering_s": (mean_busy("truncation.clustering"), "s"),
        "truncation.selection_s": (mean_busy("truncation.selection"), "s"),
        "truncation.inequalities": (ineq / m, "count"),
        "truncation.solver_calls": (mean_count("truncation.solver", 0), "count"),
        "truncation.solver_s": (mean_count("truncation.solver", 1), "s"),
        "truncation.pieces": (sum(len(s.result.truncation.intervals) for s in traced) / m,
                              "count"),
        "core.intersect_calls": (mean_count("core.intersect", 0), "count"),
        "core.intersect_s": (mean_count("core.intersect", 1), "s"),
        "distributions.tail_s": (mean_busy("distributions.tail"), "s"),
        "distributions.chisq_approx_calls": (
            sum(s.result.diagnostics.get("eval_path") == "chisq_approx" for s in traced) / m,
            "count"),
        "inference.self_s": (sum(self_s[t] for t in tids) / m, "s"),
        "simulation.gen_data_s": (mean_busy("simulation.gen_data"), "s"),
        "cli.read_s": (cli_times[0], "s"),
        "cli.main_s": (cli_times[1], "s"),
        "trace.overhead_s": (overhead, "s"),
    }


def traced_cli(tracer: Tracer, seed: int) -> tuple[float, float]:
    """cli.main(["test", ...]) in-process on the large_known data."""
    x, _ = _clustered(seed, 1, n=3000, q=10, K=5, delta=2.0)
    OUT.mkdir(exist_ok=True)
    path = OUT / "cli-input.csv"
    np.savetxt(path, x, delimiter=",", fmt="%.17g")
    argv = ["test", str(path), "--k", "5", "--sigma", "1", "--max-iter", "7",
            "--seed", str(seed)]
    with tracer, contextlib.redirect_stdout(io.StringIO()) as out:
        tracer.test_id = "cli"
        code = tracer.span("cli.main", cli.main, argv)
        tracer.test_id = None
    if code != 0:
        raise RuntimeError(f"cli.main exited {code}")
    print(f"cli p_value {json.loads(out.getvalue())['p_value']!r}")
    busy, _, _ = tracer.per_test(["cli"])
    return busy[("cli", "cli.read")], busy[("cli", "cli.main")]


def run(args, cold_setup, first_setup_s: float) -> int:
    lib = Path(cluster_sieve.__file__).resolve().parent
    if lib != HERE.parent / "src" / "cluster_sieve":
        print(f"error: cluster_sieve imported from {lib}", file=sys.stderr)
        return 2
    round_ops = {"calib_small": calib_small, "large_known": large_known,
                 "unknown_selected": unknown_selected}[args.workload](args.seed)
    problems = self_test()
    tracer = Tracer() if args.trace else None
    warm, timed, setups = measure(round_ops, args.seconds, tracer,
                                  None if args.trace else cold_setup)
    if tracer is None:
        metrics = end_to_end(timed, [first_setup_s] + setups)
    else:
        metrics = per_layer(timed, tracer, traced_cli(tracer, args.seed))
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
        for mod, attr in tracer.missing:
            print(f"warning: cluster_sieve.{mod}.{attr} not found, not traced",
                  file=sys.stderr)
    problems += verify(warm + timed, args.workload)
    for s in warm + timed:
        p = None if s.result is None or s.result.degenerate else s.result.p_value
        print(f"pvalue {s.op.tid} {p!r}")
    for msg in problems:
        print(f"check failed: {msg}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(warm) + len(timed),
        "failed": sum(1 for s in warm + timed if s.result is None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
