"""The command-line surface, run as a subprocess against the installed
entry point. Covers exit codes, output formats, determinism, and the
round-trip guarantees on the CSV files."""
import csv
import json
import math
import subprocess
import sys

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cluster_sieve import DataMatrix, KMeansConfig, SelectionRule
from cluster_sieve import inference as inf

CMD = [sys.executable, "-m", "cluster_sieve.cli"]


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CMD + [str(a) for a in args],
        capture_output=True,
        text=True,
        env=full_env,
    )


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    rng = np.random.default_rng(42)
    vals = rng.normal(size=(40, 2))
    vals[20:, 0] += 8.0
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerows(vals.tolist())
    return path


@pytest.fixture(scope="module")
def blob_tsv_header(tmp_path_factory, blob_csv):
    path = tmp_path_factory.mktemp("data") / "blobs.tsv"
    with open(blob_csv) as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, delimiter="\t")
        w.writerow(["x", "y"])
        w.writerows(rows)
    return path


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        r = run_cli("test", tmp_path / "nope.csv", "--k", 2, "--sigma", 1)
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\nx,3.0\n")
        r = run_cli("test", p, "--k", 2, "--sigma", 1)
        assert r.returncode == 2

    def test_zero_based_pair_rejected(self, blob_csv):
        r = run_cli("test", blob_csv, "--k", 2, "--sigma", 1, "--pairs", "0:1")
        assert r.returncode == 2

    def test_no_variance_flag(self, blob_csv):
        r = run_cli("test", blob_csv, "--k", 2)
        assert r.returncode == 3

    def test_two_variance_flags(self, blob_csv):
        r = run_cli(
            "test", blob_csv, "--k", 2, "--sigma", 1, "--unknown-sigma"
        )
        assert r.returncode == 3

    def test_pairs_and_select_conflict(self, blob_csv):
        r = run_cli(
            "test", blob_csv, "--k", 2, "--sigma", 1,
            "--pairs", "1:2", "--select", "top:1",
        )
        assert r.returncode == 3

    @pytest.mark.parametrize("argv", [
        ["test", "FILE", "--k", 3, "--sigma", 1, "--select", "top:5"],
        ["test", "FILE", "--k", 2, "--sigma", 1, "--max-iter", 0],
        ["test", "FILE", "--k", 2, "--sigma", 1, "--seed", -1],
        ["test", "FILE", "--k", 2, "--sigma", "nan"],
        ["test", "FILE", "--k", 2, "--sigma", "inf"],
        ["simulate", "type1", "--n", 3, "--q", 2, "--k", 5],
        ["simulate", "power", "--n", 12, "--q", 2, "--k", 2, "--delta-grid=-1,0"],
        ["simulate", "type1", "--n", 12, "--q", 2, "--k", 2, "--max-iter", 0],
        ["simulate", "type1", "--n", 12, "--q", 2, "--k", 2, "--seed", -1],
        ["simulate", "type1", "--n", 12, "--q", 2, "--k", 3, "--select", "top:9"],
    ])
    def test_bad_values_exit_2(self, argv, blob_csv, tmp_path):
        argv = [blob_csv if a == "FILE" else a for a in argv]
        if argv[0] == "simulate":
            argv += ["--out", tmp_path / "x", "--replicates", 2]
        r = run_cli(*argv)
        assert r.returncode == 2
        assert "error:" in r.stderr
        assert "Traceback" not in r.stderr

    def test_ok_run(self, blob_csv):
        r = run_cli("test", blob_csv, "--k", 2, "--sigma", 1)
        assert r.returncode == 0


class TestTestCommand:
    def test_json_payload(self, blob_csv):
        r = run_cli("test", blob_csv, "--k", 2, "--sigma", 1)
        out = json.loads(r.stdout)
        assert out["status"] == "OK"
        assert out["p_value"] < 1e-20
        assert out["df_num"] == 2
        assert out["pairs_tested"] == [[1, 2]]
        for iv in out["truncation"]:
            assert iv["hi"] is None or iv["hi"] >= iv["lo"]

    def test_header_and_tabs(self, blob_tsv_header, blob_csv):
        a = run_cli("test", blob_tsv_header, "--k", 2, "--sigma", 1, "--header")
        b = run_cli("test", blob_csv, "--k", 2, "--sigma", 1)
        assert json.loads(a.stdout)["p_value"] == json.loads(b.stdout)["p_value"]

    def test_csv_format_parses(self, blob_csv):
        r = run_cli("test", blob_csv, "--k", 2, "--sigma", 1, "--format", "csv")
        rows = list(csv.DictReader(r.stdout.splitlines()))
        assert len(rows) == 1
        assert rows[0]["status"] == "OK"
        # repr round-trip: the printed float parses back exactly
        p = float(rows[0]["p_value"])
        j = run_cli("test", blob_csv, "--k", 2, "--sigma", 1)
        assert p == json.loads(j.stdout)["p_value"]

    def test_byte_order_mark_is_ignored(self, blob_csv, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte order mark
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + blob_csv.read_bytes())
        a = run_cli("test", bom, "--k", 2, "--sigma", 1)
        b = run_cli("test", blob_csv, "--k", 2, "--sigma", 1)
        assert a.returncode == 0, a.stderr
        assert json.loads(a.stdout)["p_value"] == json.loads(b.stdout)["p_value"]

    def test_explicit_pairs_match_default_all(self, blob_csv):
        a = run_cli("test", blob_csv, "--k", 2, "--sigma", 1)
        b = run_cli("test", blob_csv, "--k", 2, "--sigma", 1, "--pairs", "1:2")
        pa = json.loads(a.stdout)["p_value"]
        pb = json.loads(b.stdout)["p_value"]
        assert pa == pytest.approx(pb, rel=1e-9)

    def test_standardize_runs_and_changes_scale(self, blob_csv):
        r = run_cli(
            "test", blob_csv, "--k", 2, "--sigma", 1, "--standardize"
        )
        out = json.loads(r.stdout)
        assert out["status"] == "OK"
        raw = json.loads(
            run_cli("test", blob_csv, "--k", 2, "--sigma", 1).stdout
        )
        assert out["statistic"] != raw["statistic"]

    def test_unknown_sigma_fields(self, blob_csv):
        r = run_cli("test", blob_csv, "--k", 2, "--unknown-sigma")
        out = json.loads(r.stdout)
        assert out["df_den"] == 76  # q*(n - clusters) = 2*(40-2)
        assert out["method"] == "UnknownSigma"

    def test_selection_accounting_method(self, blob_csv):
        r = run_cli(
            "test", blob_csv, "--k", 3, "--sigma", 1,
            "--select", "top:1", "--account-selection",
        )
        out = json.loads(r.stdout)
        assert out["method"] == "KnownSigmaSelected"
        assert len(out["pairs_tested"]) == 1

    def test_restarts_report_all(self, blob_csv, tmp_path, capsys):
        # (data, K, --seed, --restarts, the starts that are NA): the
        # command line reports what the library's run_test gives
        from cluster_sieve import cli

        blobs = np.loadtxt(blob_csv, delimiter=",")
        cases = [
            (blobs, 2, 0, 3, []),
            (np.random.default_rng(150).normal(size=(12, 2)), 4, 3, 4, [3]),
            (np.ones((10, 2)), 3, 0, 3, [0, 1, 2]),
        ]
        for i, (x, K, seed, R, na) in enumerate(cases):
            path = tmp_path / f"{i}.csv"
            np.savetxt(path, x, delimiter=",")
            argv = ["test", str(path), "--k", str(K), "--sigma", "1", "--seed", str(seed)]
            assert cli.main(argv + ["--restarts", str(R)]) == 0
            out = json.loads(capsys.readouterr().out)
            req = inf.TestRequest(DataMatrix(x), KMeansConfig(K=K, seed=seed),
                                  SelectionRule.fixed_all(K), inf.VarianceSpec.known(1.0),
                                  restarts=R)
            res = inf.run_test(req)
            ps = out["restart_p_values"]
            assert ps == res.diagnostics["restart_p_values"]
            assert [r for r, p in enumerate(ps) if p is None] == na
            assert out["na_restarts"] == res.diagnostics["na_restarts"] == len(na)
            if len(na) == R:
                assert out["status"] == "NA" and out["p_value"] is None and res.degenerate
            else:
                finite = [p for p in ps if p is not None]
                want = min(1.0, 2.0 * sum(finite) / len(finite))
                assert out["p_value"] == res.p_value == pytest.approx(want, rel=1e-12, abs=0)
            # one start clusters from kmeans_cfg as given; the command line
            # seeds it as the first start of a restart run
            assert cli.main(argv) == 0
            one = json.loads(capsys.readouterr().out)
            first = inf.run_test(replace(req, restarts=1, kmeans_cfg=KMeansConfig(
                K=K, seed=inf.restart_seed(seed, 0))))
            assert one["p_value"] == ps[0] == (None if first.degenerate else first.p_value)
            assert "restart_p_values" not in one and "restart_p_values" not in first.diagnostics

    def test_restart_p_value_is_valid_under_the_null(self):
        # Twice the mean of dependent p-values is a valid p-value (Vovk &
        # Wang 2020): at 0.05 its rejection rate on null data may not
        # exceed 0.05 by more than three standard errors.
        rng = np.random.default_rng(2020)
        ps = []
        for _ in range(200):
            req = inf.TestRequest(DataMatrix(rng.normal(size=(30, 2))), KMeansConfig(K=3, seed=0),
                                  SelectionRule.fixed_all(3), inf.VarianceSpec.known(1.0),
                                  restarts=5)
            res = inf.run_test(req)
            finite = [p for p in res.diagnostics["restart_p_values"] if p is not None]
            if finite:
                assert res.p_value == pytest.approx(
                    min(1.0, 2.0 * float(np.mean(finite))), rel=1e-15, abs=0)
                ps.append(res.p_value)
        assert len(ps) >= 190
        rate = np.mean(np.array(ps) <= 0.05)
        assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / len(ps))

    def test_json_reports_lloyd_convergence(self, blob_csv):
        # seed 1 needs 5 Lloyd steps on this data
        for extra, converged in (((), True), (("--max-iter", 1), False)):
            r = run_cli("test", blob_csv, "--k", 3, "--sigma", 1, "--seed", 1, *extra)
            diag = json.loads(r.stdout)["diagnostics"]
            assert diag["eval_path"] == "log_exact"
            assert diag["converged"] is converged
            assert diag["iterations"] >= 1

    def test_out_writes_file_and_record(self, blob_csv, tmp_path):
        dest = tmp_path / "res.json"
        r = run_cli(
            "test", blob_csv, "--k", 2, "--sigma", 1, "--out", dest
        )
        assert r.returncode == 0
        on_disk = json.loads(dest.read_text())
        assert on_disk == json.loads(r.stdout)
        record = json.loads((tmp_path / "res.json.run.json").read_text())
        assert record["command"][0] == "test"
        assert str(dest) in record["outputs"]
        assert record["wall_time_s"] >= 0

    def test_determinism_byte_identical(self, blob_csv):
        a = run_cli("test", blob_csv, "--k", 3, "--sigma", 1, "--seed", 5)
        b = run_cli("test", blob_csv, "--k", 3, "--sigma", 1, "--seed", 5)
        assert a.stdout == b.stdout


class TestSimulateCommand:
    def test_type1_outputs_and_roundtrip(self, tmp_path):
        prefix = tmp_path / "t1"
        r = run_cli(
            "simulate", "type1", "--out", prefix,
            "--n", 18, "--q", 2, "--k", 2, "--replicates", 25, "--seed", 3,
        )
        assert r.returncode == 0
        with open(f"{prefix}_pvalues.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        ps = sorted(
            float(row["pvalue"]) for row in rows if row["pvalue"] != "NA"
        )
        na = sum(row["pvalue"] == "NA" for row in rows)
        with open(f"{prefix}_summary.csv") as fh:
            summary = list(csv.DictReader(fh))[0]
        assert int(summary["na_count"]) == na
        assert int(summary["replicates"]) == 25
        # recompute the KS statistic from the written p-values
        ks = stats.kstest(ps, "uniform")
        assert abs(float(summary["ks_stat"]) - float(ks.statistic)) < 1e-12
        assert abs(float(summary["ks_pvalue"]) - float(ks.pvalue)) < 1e-12
        with open(f"{prefix}_qq.csv") as fh:
            qq = list(csv.DictReader(fh))
        assert len(qq) == len(ps)
        assert float(qq[0]["empirical"]) == ps[0]
        record = json.loads((tmp_path / "t1_run_record.json").read_text())
        assert record["command"][0] == "simulate"
        assert len(record["outputs"]) == 3
        assert set(record["config"]) == {
            "mode", "n", "q", "K", "sigma", "mu_kind", "delta", "delta_grid",
            "replicates", "rule", "variance", "account_selection", "bonferroni",
            "alpha", "master_seed", "kmeans_max_iter", "workers",
        }

    def test_power_grid(self, tmp_path):
        prefix = tmp_path / "pw"
        r = run_cli(
            "simulate", "power", "--out", prefix,
            "--n", 18, "--q", 2, "--k", 2, "--mu", "horizontal",
            "--delta-grid", "0,6", "--replicates", 12, "--seed", 1,
        )
        assert r.returncode == 0
        with open(f"{prefix}_power.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r_["delta"]) for r_ in rows] == [0.0, 6.0]
        assert float(rows[1]["power"]) >= 0.7
        for row in rows:
            m = int(row["replicates"]) - int(row["na_count"])
            power = float(row["power"])
            assert float(row["stderr"]) == pytest.approx(
                math.sqrt(power * (1 - power) / m), abs=1e-12
            )

    def test_power_without_grid_fails(self, tmp_path):
        r = run_cli(
            "simulate", "power", "--out", tmp_path / "x",
            "--n", 12, "--q", 2, "--k", 2,
        )
        assert r.returncode == 2

    def test_bad_layout_config(self, tmp_path):
        r = run_cli(
            "simulate", "type1", "--out", tmp_path / "x",
            "--n", 41, "--q", 2, "--k", 2, "--mu", "horizontal",
            "--replicates", 2,
        )
        assert r.returncode == 2

    def test_seed_determinism_across_runs(self, tmp_path):
        out = []
        for d in ("a", "b"):
            prefix = tmp_path / d / "t1"
            prefix.parent.mkdir()
            run_cli(
                "simulate", "type1", "--out", prefix,
                "--n", 16, "--q", 2, "--k", 2, "--replicates", 10,
                "--seed", 9,
            )
            out.append(open(f"{prefix}_pvalues.csv").read())
        assert out[0] == out[1]

    def test_worker_env_cap(self, tmp_path):
        prefix = tmp_path / "t1"
        r = run_cli(
            "simulate", "type1", "--out", prefix,
            "--n", 16, "--q", 2, "--k", 2, "--replicates", 6,
            "--workers", 4,
            env={"CLUSTER_SIEVE_THREADS": "1"},
        )
        assert r.returncode == 0
        record = json.loads((tmp_path / "t1_run_record.json").read_text())
        assert record["config"]["workers"] == 1


def test_cold_import_leaves_scipy_stats_out():
    # scipy.stats takes about 0.4 s to import and only `simulate` needs it,
    # so every command would pay for it at start-up.
    probe = "import sys, cluster_sieve.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
