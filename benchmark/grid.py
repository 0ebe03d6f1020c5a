"""Reference figures over the ROADMAP grid, one test per cell.

    python3 benchmark/grid.py

n in {60, 200, 1000, 3000} (q, K = 2, 3 / 2, 3 / 5, 5 / 10, 5), known
and unknown sigma, all pairs fixed or the top-1 pair with its selection
accounted for. Data x ~ N(0, I) from seed 0, KMeansConfig(seed=1). Prints
one markdown row per cell: Lloyd steps, inequalities, pieces of S,
p-value and the wall time of the whole test call (not scaled).
"""
from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CLUSTER_SIEVE_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from cluster_sieve import (  # noqa: E402
    DataMatrix, KMeansConfig, SelectionRule, TestRequest, VarianceSpec,
    run_kmeans, test_known_sigma, test_unknown_sigma,
)

GRID = ((60, 2, 3), (200, 2, 3), (1000, 5, 5), (3000, 10, 5))


def main() -> int:
    print("| n, q, K | sigma | pairs | J | inequalities | pieces | p-value | test s |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for n, q, K in GRID:
        x = DataMatrix(np.random.default_rng(0).standard_normal((n, q)))
        kcfg = KMeansConfig(K=K, seed=1)
        J = run_kmeans(x, kcfg).J
        for unknown in (False, True):
            for accounted in (False, True):
                req = TestRequest(
                    data=x, kmeans_cfg=kcfg,
                    rule=SelectionRule.top_g(1) if accounted else SelectionRule.fixed_all(K),
                    variance=VarianceSpec.unknown() if unknown else VarianceSpec.known(1.0),
                    account_selection=accounted,
                )
                test = test_unknown_sigma if unknown else test_known_sigma
                t0 = time.perf_counter()
                res = test(req)
                dt = time.perf_counter() - t0
                npairs = K * (K - 1) // 2
                ineq = (J + 1) * n * (K - 1) + (npairs - 1 if accounted else 0)
                print(f"| {n}, {q}, {K} | {'unknown' if unknown else 'known'} "
                      f"| {'top-1 accounted' if accounted else 'all fixed'} | {J} "
                      f"| {ineq} | {len(res.truncation.intervals)} "
                      f"| {res.p_value:.6g} | {dt:.3g} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
