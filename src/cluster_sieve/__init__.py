"""Exact post-selection tests for differences between K-means cluster
means, with known or estimated noise scale.

The public surface: build a `TestRequest` around a `DataMatrix`, a
`KMeansConfig`, a `SelectionRule`, and a `VarianceSpec`, then call
`run_test`: the request alone says which test runs (joint or Bonferroni,
selection accounted or not, how many clustering starts). Simulation
helpers live in
`cluster_sieve.simulation`, the command line in `cluster_sieve.cli`.
"""

__version__ = "0.1.0"

from .core import (
    ClusterPartition,
    DataMatrix,
    DegenerateClustering,
    DegenerateWithin,
    EmptySelection,
    Interval,
    IntervalUnion,
    Method,
    NotAvailable,
    PValueResult,
    ZeroMassSet,
)
from .distributions import (
    TruncatedDistSpec,
    chi_survival,
    f_survival,
    truncated_survival_info,
)
from .inference import (
    TestRequest,
    VarianceSpec,
    run_test,
    sigma_hat_med,
    sigma_hat_sample,
    test_bonferroni,
    test_known_sigma,
    test_unknown_sigma,
)
from .kmeans import KMeansConfig, KMeansTrace, run_kmeans
from .projection import PairSet, ProjectionBundle, build_projection
from .selection import SelectionRule, select_pairs
from .simulation import PowerRow, SimConfig, Type1Result, run_power, run_type1

__all__ = [
    "__version__",
    "ClusterPartition",
    "DataMatrix",
    "DegenerateClustering",
    "DegenerateWithin",
    "EmptySelection",
    "Interval",
    "IntervalUnion",
    "KMeansConfig",
    "KMeansTrace",
    "Method",
    "NotAvailable",
    "PValueResult",
    "PairSet",
    "PowerRow",
    "ProjectionBundle",
    "SelectionRule",
    "SimConfig",
    "TestRequest",
    "TruncatedDistSpec",
    "Type1Result",
    "VarianceSpec",
    "ZeroMassSet",
    "chi_survival",
    "f_survival",
    "build_projection",
    "run_kmeans",
    "run_power",
    "run_test",
    "run_type1",
    "select_pairs",
    "sigma_hat_med",
    "sigma_hat_sample",
    "test_bonferroni",
    "test_known_sigma",
    "test_unknown_sigma",
    "truncated_survival_info",
]
