"""Command-line front end.

Two subcommands: ``test`` runs the post-clustering mean test on a
delimited numeric file, ``simulate`` runs calibration (type1) or power
studies and writes plot-ready CSV tables. Every file-writing run also
drops a JSON run record next to its outputs.

Exit codes: 0 for a completed run (including NA results), 2 for
malformed input or configuration values, 3 for invalid flag
combinations.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .core import INF, DataMatrix, IntervalUnion, PValueResult
from .inference import TestRequest, VarianceSpec, check_test_choice, restart_seed, run_test
from .kmeans import KMeansConfig
from .selection import SelectionRule
from .simulation import SimConfig, run_power, run_type1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FLAGS = 3

_SELECT_KINDS = ("top", "bottom", "below", "above")
_ENV_THREAD_CAP = "CLUSTER_SIEVE_THREADS"


class CliError(Exception):
    """User-facing failure carrying its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclasses.dataclass(frozen=True)
class CliRunRecord:
    """What a run did: the argv, the fully resolved configuration, the
    package version, the wall time, and the files written."""

    command: tuple[str, ...]
    config: dict
    version: str
    wall_time_s: float
    outputs: tuple[str, ...]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# input parsing


def read_matrix(path: str, header: bool) -> np.ndarray:
    """Read a comma- or tab-delimited numeric file, one observation per
    row. The delimiter is sniffed from the first data line; a leading
    UTF-8 byte order mark, as spreadsheet exports write, is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [ln for ln in (raw.strip("\r\n") for raw in fh) if ln.strip()]
    except OSError as e:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {e}")
    if header and lines:
        lines = lines[1:]
    if not lines:
        raise CliError(EXIT_INPUT, f"{path}: no data rows")
    delim = "\t" if "\t" in lines[0] else ","
    rows = []
    width = None
    for i, cells in enumerate(csv.reader(lines, delimiter=delim)):
        cells = [c.strip() for c in cells]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise CliError(
                EXIT_INPUT,
                f"{path}: row {i + 1} has {len(cells)} fields, expected {width}",
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise CliError(EXIT_INPUT, f"{path}: non-numeric value in row {i + 1}")
    return np.asarray(rows, dtype=np.float64)


def parse_pairs(text: str, K: int) -> tuple[tuple[int, int], ...]:
    """Parse "k:k',..." with 1-based cluster labels into 0-based pairs."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        parts = tok.split(":")
        if len(parts) != 2:
            raise CliError(EXIT_INPUT, f"malformed pair {tok!r}, expected k:k'")
        try:
            k, kp = int(parts[0]), int(parts[1])
        except ValueError:
            raise CliError(EXIT_INPUT, f"malformed pair {tok!r}, expected integers")
        if not (1 <= k <= K and 1 <= kp <= K):
            raise CliError(EXIT_INPUT, f"pair {tok!r} outside 1..{K}")
        if k == kp:
            raise CliError(EXIT_INPUT, f"pair {tok!r} names the same cluster twice")
        out.append((min(k, kp) - 1, max(k, kp) - 1))
    if len(set(out)) != len(out):
        raise CliError(EXIT_INPUT, "duplicate pairs in --pairs")
    return tuple(sorted(out))


def parse_select(text: str) -> SelectionRule:
    """Parse "kind:value" where kind is top/bottom (value = g, a count)
    or below/above (value = a center-distance threshold)."""
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in _SELECT_KINDS:
        raise CliError(
            EXIT_INPUT,
            f"malformed --select {text!r}, expected one of "
            f"{'/'.join(_SELECT_KINDS)} followed by ':value'",
        )
    kind, val = parts
    try:
        if kind == "top":
            return SelectionRule.top_g(int(val))
        if kind == "bottom":
            return SelectionRule.bottom_g(int(val))
        if kind == "below":
            return SelectionRule.threshold_below(float(val))
        return SelectionRule.threshold_above(float(val))
    except ValueError as e:
        raise CliError(EXIT_INPUT, f"malformed --select {text!r}: {e}")


def parse_delta_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise CliError(EXIT_INPUT, f"malformed --delta-grid {text!r}")
    if not grid:
        raise CliError(EXIT_INPUT, "--delta-grid is empty")
    if not all(delta >= 0 for delta in grid):
        raise CliError(EXIT_INPUT, f"--delta-grid {text!r} has a negative entry")
    return grid


def standardize(values: np.ndarray) -> np.ndarray:
    """Per-column (value - mean) / sd with the (n-1) divisor."""
    sd = values.std(axis=0, ddof=1)
    if np.any(sd == 0.0):
        cols = np.flatnonzero(sd == 0.0)
        raise CliError(
            EXIT_INPUT, f"cannot standardize: constant column(s) {cols.tolist()}"
        )
    return (values - values.mean(axis=0)) / sd


def resolve_variance(
    sigma: float | None,
    sigma_est: str | None,
    unknown_sigma: bool,
    default_sigma: float | None = None,
) -> VarianceSpec:
    """Exactly one variance flag must be chosen; `simulate` falls back
    to the generating sd when none is given."""
    flags = {"--sigma": sigma, "--sigma-est": sigma_est}
    chosen = [name for name, value in flags.items() if value is not None]
    chosen += ["--unknown-sigma"] if unknown_sigma else []
    if len(chosen) > 1:
        raise CliError(EXIT_FLAGS, f"flags {' and '.join(chosen)} are exclusive")
    if not chosen:
        if default_sigma is None:
            raise CliError(
                EXIT_FLAGS, "one of --sigma, --sigma-est, --unknown-sigma is required"
            )
        sigma = default_sigma
    if sigma is not None:
        try:
            return VarianceSpec.known(sigma)
        except ValueError as e:
            raise CliError(EXIT_INPUT, f"invalid sd {sigma!r}: {e}")
    if sigma_est is not None:
        if sigma_est == "sample":
            return VarianceSpec.plug_in_sample()
        return VarianceSpec.plug_in_median()
    return VarianceSpec.unknown()


def resolve_rule(pairs: str | None, select: str | None, K: int) -> SelectionRule:
    """--pairs and --select are exclusive; with neither, all K(K-1)/2
    pairs are tested jointly."""
    if pairs is not None and select is not None:
        raise CliError(EXIT_FLAGS, "--pairs and --select are exclusive")
    if pairs is not None:
        return SelectionRule.fixed(parse_pairs(pairs, K))
    if select is not None:
        rule = parse_select(select)
        if rule.g is not None and rule.g > K * (K - 1) // 2:
            raise CliError(EXIT_INPUT, f"--select {select!r}: more pairs than K={K} has")
        return rule
    return SelectionRule.fixed_all(K)


def _check_combinations(args, rule: SelectionRule, variance: VarianceSpec) -> None:
    try:
        check_test_choice(rule, variance, args.account_selection, args.bonferroni)
    except ValueError as e:
        raise CliError(EXIT_FLAGS, f"invalid flag combination: {e}")


# ---------------------------------------------------------------------------
# result rendering


def _jsonable(obj):
    """Strip a payload down to plain JSON types. Non-finite floats
    become None so the output stays strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


def _truncation_json(S: IntervalUnion):
    """Interval list with None standing for an unbounded upper end. Every
    piece is closed at its finite ends (see core.IntervalUnion)."""
    return [
        {"lo": lo, "hi": None if hi == INF else hi, "lo_closed": True, "hi_closed": hi < INF}
        for lo, hi in zip(S.lo.tolist(), S.hi.tolist())
    ]


def _result_payload(res: PValueResult, seed: int, restarts: int) -> dict:
    na = res.degenerate
    diag = dict(res.diagnostics)
    restart = {k: diag.pop(k) for k in ("restart_p_values", "na_restarts") if k in diag}
    # Cluster labels are 1-based everywhere on the CLI surface.
    pairs = diag.pop("pairs_tested", None)
    if pairs is not None:
        pairs = [[k + 1, kp + 1] for k, kp in pairs]
    if diag.get("winning_pair") is not None:
        k, kp = diag["winning_pair"]
        diag["winning_pair"] = [k + 1, kp + 1]
    return {
        "status": "NA" if na else "OK",
        "method": res.method.value,
        "p_value": None if na else res.p_value,
        "statistic": None if na else res.statistic,
        "df_num": res.df_num,
        "df_den": res.df_den,
        "truncation": _truncation_json(res.truncation),
        "reason": diag.pop("reason", None),
        "pairs_tested": _jsonable(pairs),
        "seed": seed,
        "restarts": restarts,
        "diagnostics": _jsonable(diag),
        **restart,
    }


_CSV_FIELDS = (
    "status",
    "method",
    "p_value",
    "statistic",
    "df_num",
    "df_den",
    "reason",
    "pairs_tested",
    "truncation",
)


def _render_csv(payload: dict) -> str:
    """The payload as one CSV row: pairs as "k:k',...", the truncation set
    as "[lo,hi];...;[lo,inf)"."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_FIELDS)
    row = {
        "status": payload["status"],
        "method": payload["method"],
        "p_value": "" if payload["p_value"] is None else repr(payload["p_value"]),
        "statistic": "" if payload["statistic"] is None else repr(payload["statistic"]),
        "df_num": "" if payload["df_num"] is None else payload["df_num"],
        "df_den": "" if payload["df_den"] is None else payload["df_den"],
        "reason": payload["reason"] or "",
        "pairs_tested": ",".join(f"{k}:{kp}" for k, kp in payload["pairs_tested"] or ()),
        "truncation": ";".join(
            f"[{iv['lo']!r},{'inf)' if iv['hi'] is None else repr(iv['hi']) + ']'}"
            for iv in payload["truncation"]
        ),
    }
    w.writerow([row[f] for f in _CSV_FIELDS])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# test subcommand


def cmd_test(args, argv: list[str]) -> int:
    t0 = time.perf_counter()
    if args.k < 2:
        raise CliError(EXIT_INPUT, "--k must be at least 2")
    if args.restarts < 1:
        raise CliError(EXIT_INPUT, "--restarts must be at least 1")
    if args.max_iter < 1:
        raise CliError(EXIT_INPUT, "--max-iter must be at least 1")
    if args.seed < 0:
        raise CliError(EXIT_INPUT, "--seed must be nonnegative")
    variance = resolve_variance(args.sigma, args.sigma_est, args.unknown_sigma)
    rule = resolve_rule(args.pairs, args.select, args.k)
    _check_combinations(args, rule, variance)

    values = read_matrix(args.file, args.header)
    if args.k > values.shape[0]:
        raise CliError(
            EXIT_INPUT, f"--k {args.k} exceeds the {values.shape[0]} data rows"
        )
    if args.standardize:
        values = standardize(values)
    try:
        data = DataMatrix(values)
    except ValueError as e:
        raise CliError(EXIT_INPUT, f"{args.file}: {e}")

    # run_test seeds start r of a restart run by restart_seed(--seed, r).
    # A single start is seeded as start 0 of such a run: it runs the same
    # clustering as the first start of --restarts R, and a given --seed
    # keeps selecting the clustering it always has.
    kseed = restart_seed(args.seed, 0) if args.restarts == 1 else args.seed
    req = TestRequest(
        data=data,
        kmeans_cfg=KMeansConfig(K=args.k, max_iter=args.max_iter, seed=kseed),
        rule=rule,
        variance=variance,
        account_selection=args.account_selection,
        bonferroni=args.bonferroni,
        restarts=args.restarts,
    )
    payload = _result_payload(run_test(req), args.seed, args.restarts)

    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_csv(payload)
    sys.stdout.write(text)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        record = CliRunRecord(
            command=tuple(argv),
            config={
                "file": args.file,
                "k": args.k,
                "variance": dataclasses.asdict(variance),
                "rule": _jsonable(dataclasses.asdict(rule)),
                "account_selection": args.account_selection,
                "bonferroni": args.bonferroni,
                "standardize": args.standardize,
                "header": args.header,
                "seed": args.seed,
                "restarts": args.restarts,
                "max_iter": args.max_iter,
                "format": args.format,
            },
            version=__version__,
            wall_time_s=time.perf_counter() - t0,
            outputs=(args.out,),
        )
        record.write(args.out + ".run.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate subcommand


def _worker_count(requested: int) -> int:
    cap = os.environ.get(_ENV_THREAD_CAP)
    if cap is not None:
        try:
            requested = min(requested, int(cap))
        except ValueError:
            pass
    return max(1, requested)


def _write_csv(path: str, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _fmt(x: float) -> str:
    """Full-precision float text so the CSV round-trips exactly."""
    return repr(float(x))


def cmd_simulate(args, argv: list[str]) -> int:
    t0 = time.perf_counter()
    # --sigma is the generating sd; --test-sigma, when given, is the sd
    # handed to the test. With no variance flag the test uses the
    # generating sd, the usual calibration setup.
    variance = resolve_variance(
        args.test_sigma, args.sigma_est, args.unknown_sigma, default_sigma=args.sigma
    )
    rule = resolve_rule(args.pairs, args.select, args.k)
    _check_combinations(args, rule, variance)
    grid = parse_delta_grid(args.delta_grid) if args.delta_grid is not None else None
    try:
        cfg = SimConfig(
            n=args.n,
            q=args.q,
            K=args.k,
            sigma=args.sigma,
            mu_kind=args.mu,
            delta=args.delta,
            replicates=args.replicates,
            rule=rule,
            variance=variance,
            account_selection=args.account_selection,
            bonferroni=args.bonferroni,
            alpha=args.alpha,
            master_seed=args.seed,
            kmeans_max_iter=args.max_iter,
        )
    except ValueError as e:
        raise CliError(EXIT_INPUT, f"invalid configuration: {e}")
    workers = _worker_count(args.workers)
    prefix = args.out
    outputs: list[str] = []

    if args.mode == "type1":
        res = run_type1(cfg, workers=workers)
        pv_path = f"{prefix}_pvalues.csv"
        _write_csv(
            pv_path,
            ("replicate", "pvalue"),
            ((rep, "NA" if np.isnan(p) else _fmt(p)) for rep, p in res.per_replicate),
        )
        qq_path = f"{prefix}_qq.csv"
        _write_csv(
            qq_path,
            ("theoretical", "empirical"),
            ((_fmt(a), _fmt(b)) for a, b in res.qq_points),
        )
        sm_path = f"{prefix}_summary.csv"
        _write_csv(
            sm_path,
            ("replicates", "ks_stat", "ks_pvalue", "na_count"),
            [(cfg.replicates, _fmt(res.ks_stat), _fmt(res.ks_pvalue), res.na_count)],
        )
        outputs += [pv_path, qq_path, sm_path]
        sys.stdout.write(
            f"type1: {cfg.replicates} replicates, ks_stat={res.ks_stat:.4f}, "
            f"ks_pvalue={res.ks_pvalue:.4f}, na_count={res.na_count}\n"
        )
    else:
        if grid is None:
            raise CliError(EXIT_INPUT, "power mode needs --delta-grid")
        rows = run_power(cfg, grid, workers=workers)
        pw_path = f"{prefix}_power.csv"
        _write_csv(
            pw_path,
            ("delta", "power", "stderr", "na_count", "replicates"),
            (
                (_fmt(r.delta), _fmt(r.power), _fmt(r.stderr), r.na_count, r.replicates)
                for r in rows
            ),
        )
        outputs.append(pw_path)
        for r in rows:
            sys.stdout.write(
                f"power: delta={r.delta:g} power={r.power:.4f} "
                f"stderr={r.stderr:.4f} na_count={r.na_count}\n"
            )

    record = CliRunRecord(
        command=tuple(argv),
        config={
            **_jsonable(dataclasses.asdict(cfg)),
            "mode": args.mode,
            "delta_grid": list(grid) if grid else None,
            "workers": workers,
        },
        version=__version__,
        wall_time_s=time.perf_counter() - t0,
        outputs=tuple(outputs),
    )
    record.write(f"{prefix}_run_record.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parser


def _choice_parser() -> argparse.ArgumentParser:
    """The flags that choose the test, shared by both subcommands.
    --sigma and --seed mean different things in each and stay there."""
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--k", type=int, required=True, help="number of clusters")
    c.add_argument(
        "--sigma-est", choices=("sample", "median"), help="plug-in noise sd estimator"
    )
    c.add_argument(
        "--unknown-sigma",
        action="store_true",
        help="estimate the noise scale within the tested clusters (F-based test)",
    )
    c.add_argument("--pairs", help='fixed pair list, e.g. "1:2,1:3" (1-based)')
    c.add_argument(
        "--select",
        help="data-dependent selection, kind:value with kind top/bottom/below/above",
    )
    c.add_argument(
        "--account-selection", action="store_true", help="also condition on the --select outcome"
    )
    c.add_argument(
        "--bonferroni",
        action="store_true",
        help="Bonferroni-adjusted minimum over the fixed pairwise tests",
    )
    c.add_argument("--max-iter", type=int, default=50, help="K-means iteration cap")
    return c


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cluster-sieve",
        description="Exact post-clustering tests of cluster mean differences.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    choice = [_choice_parser()]

    t = sub.add_parser("test", parents=choice, help="test cluster mean differences in a data file")
    t.add_argument(
        "file", help="comma- or tab-delimited numeric file, rows = observations"
    )
    t.add_argument("--sigma", type=float, default=None, help="known noise sd")
    t.add_argument(
        "--standardize", action="store_true", help="per-column standardization first"
    )
    t.add_argument("--header", action="store_true", help="skip the first input line")
    t.add_argument("--seed", type=int, default=0, help="clustering seed")
    t.add_argument(
        "--restarts",
        type=int,
        default=1,
        help="combine the p-values of this many clustering starts (twice their mean)",
    )
    t.add_argument("--format", choices=("json", "csv"), default="json")
    t.add_argument("--out", default=None, help="also write the report to this file")
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("simulate", parents=choice, help="run a calibration or power study")
    s.add_argument("mode", choices=("type1", "power"))
    s.add_argument("--out", required=True, help="output path prefix")
    s.add_argument("--n", type=int, required=True, help="observations per replicate")
    s.add_argument("--q", type=int, required=True, help="feature dimension")
    s.add_argument("--sigma", type=float, default=1.0, help="generating noise sd")
    s.add_argument("--mu", choices=("null", "horizontal", "kgon"), default="null")
    s.add_argument("--delta", type=float, default=0.0, help="signal strength (type1)")
    s.add_argument("--delta-grid", default=None, help="comma list of deltas (power)")
    s.add_argument("--replicates", type=int, default=1000)
    s.add_argument(
        "--test-sigma",
        type=float,
        default=None,
        help="known sd handed to the test (default: the generating sd)",
    )
    s.add_argument("--alpha", type=float, default=0.05, help="rejection level for power")
    s.add_argument("--seed", type=int, default=0, help="master seed")
    s.add_argument(
        "--workers",
        type=int,
        default=1,
        help=f"parallel workers (capped by ${_ENV_THREAD_CAP})",
    )
    s.set_defaults(func=cmd_simulate)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on syntax errors and 0 for --help/--version.
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
