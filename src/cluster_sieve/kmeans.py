"""Lloyd's algorithm with a complete per-iteration trace.

The tests in this package condition on the clustering outcome, which
means the assignments produced at *every* step of the algorithm, not
just the final partition. The trace records all of them so that the
truncation machinery can reconstruct each step's inequalities and the
replay oracle can verify them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClusterPartition, DataMatrix, DegenerateClustering


@dataclass(frozen=True)
class KMeansConfig:
    """Configuration for a traced K-means run.

    `init_indices` pins the initial centers to specific rows; when None,
    K distinct rows are drawn uniformly without replacement using `seed`.
    Initial centers are always rows of the data matrix: this keeps every
    step-0 comparison quadratic in the perturbation parameter, which the
    truncation solvers rely on.
    """

    K: int
    max_iter: int = 50
    seed: int | np.random.SeedSequence | None = None
    init_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.init_indices is not None:
            idx = tuple(int(i) for i in self.init_indices)
            if len(idx) != self.K:
                raise ValueError("init_indices must list exactly K rows")
            if len(set(idx)) != self.K:
                raise ValueError("init_indices must be distinct")
            object.__setattr__(self, "init_indices", idx)


@dataclass(frozen=True)
class KMeansTrace:
    """Record of one Lloyd's run: initial center rows, the (J+1) x n
    assignment matrix for steps 0..J, and the convergence flag."""

    init_indices: tuple[int, ...]
    assignments: np.ndarray
    J: int
    converged: bool

    def __post_init__(self):
        arr = np.asarray(self.assignments, dtype=int).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "assignments", arr)

    @property
    def n(self) -> int:
        return self.assignments.shape[1]

    @property
    def K(self) -> int:
        return len(self.init_indices)

    def final_partition(self) -> ClusterPartition:
        return ClusterPartition(self.assignments[-1], self.K)


def _assign(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Squared distances n x K; argmin breaks ties toward the lower index,
    # which keeps replay deterministic.
    d2 = ((values[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def cluster_sums(values: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    """The K x q sums of the rows of values by label. One bincount over
    the flattened (label, column) index adds the rows in order, as
    np.add.at does, so the sums are bit-identical to it."""
    q = values.shape[1]
    idx = (labels[:, None] * q + np.arange(q)).ravel()
    return np.bincount(idx, weights=values.ravel(), minlength=K * q).reshape(K, q)


def _step_centers(values: np.ndarray, labels: np.ndarray, K: int) -> np.ndarray:
    sizes = np.bincount(labels, minlength=K)
    if np.any(sizes == 0):
        raise DegenerateClustering("a cluster emptied during iteration")
    return cluster_sums(values, labels, K) / sizes[:, None]


def run_kmeans(X: DataMatrix, cfg: KMeansConfig) -> KMeansTrace:
    """Run Lloyd's algorithm on X, recording every step's assignments.

    Step 0 assigns each row to the nearest initial center (rows of X at
    the chosen indices). Each later step recomputes centers as
    within-cluster means under the previous step's assignment, then
    reassigns. Iteration stops when consecutive assignments are exactly
    equal or max_iter reassignment steps have run.

    Raises:
        DegenerateClustering: some step produced fewer than K nonempty
            clusters. Degenerate runs are never repaired; downstream
            tests report NA.
    """
    values = X.values
    n = X.n
    if cfg.K > n:
        raise ValueError(f"K={cfg.K} exceeds the number of rows n={n}")
    if cfg.init_indices is not None:
        init = cfg.init_indices
        if any(i < 0 or i >= n for i in init):
            raise ValueError("init_indices out of range")
    else:
        rng = np.random.default_rng(cfg.seed)
        init = tuple(int(i) for i in rng.choice(n, size=cfg.K, replace=False))

    labels = _assign(values, values[list(init)])
    if np.bincount(labels, minlength=cfg.K).min() == 0:
        raise DegenerateClustering("a cluster is empty at the initial assignment")
    rows = [labels]
    converged = False
    for _ in range(cfg.max_iter):
        centers = _step_centers(values, rows[-1], cfg.K)
        labels = _assign(values, centers)
        if np.bincount(labels, minlength=cfg.K).min() == 0:
            raise DegenerateClustering("a cluster emptied during iteration")
        rows.append(labels)
        if np.array_equal(rows[-1], rows[-2]):
            converged = True
            break
    return KMeansTrace(
        init_indices=init,
        assignments=np.vstack(rows),
        J=len(rows) - 1,
        converged=converged,
    )


def step_centroids(values: np.ndarray, trace: KMeansTrace, j: int) -> np.ndarray:
    """All K step-j centers of `values` at once: row l is the mean of the
    rows labeled l at step j-1, or the init row itself when j = 0."""
    if j == 0:
        return values[list(trace.init_indices)]
    return _step_centers(values, trace.assignments[j - 1], trace.K)


def replay_matches(A: DataMatrix, trace: KMeansTrace) -> bool:
    """True iff Lloyd's algorithm on A, started from the trace's init
    rows (initial centers = those rows of A), reproduces the identical
    assignment sequence for steps 0..J.

    This is the ground-truth membership oracle for the analytic
    truncation sets: a perturbed matrix belongs to the set exactly when
    its replay matches.
    """
    if A.n != trace.n:
        raise ValueError("row count mismatch between A and the trace")
    values = A.values
    K = trace.K
    labels = _assign(values, values[list(trace.init_indices)])
    if not np.array_equal(labels, trace.assignments[0]):
        return False
    for j in range(1, trace.J + 1):
        sizes = np.bincount(labels, minlength=K)
        if np.any(sizes == 0):
            return False
        centers = _step_centers(values, labels, K)
        labels = _assign(values, centers)
        if not np.array_equal(labels, trace.assignments[j]):
            return False
    return True
