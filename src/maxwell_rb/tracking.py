"""Eigenmode tracking along the deformation parameter.

Modes at consecutive parameter values are matched through the modulus of
their inner product in the metric of the left step's mass matrix, which
is invariant under eigenvector sign and scale.  If any matched
correlation falls below the threshold the interval is bisected and both
halves are tracked recursively, so crossings are traversed with steps
small enough to keep the pairing unambiguous.  A threshold of zero
disables bisection and accepts every single-pass matching.

Each solve returns a few candidate modes beyond the K tracked ones so
that a trajectory crossing the boundary of the lowest-K window still
finds its continuation among the candidates; without the buffer such a
crossing pins the correlation at zero no matter how small the step.

Within a cluster of numerically equal eigenvalues the eigensolver's
basis is an arbitrary rotation of the eigenspace and varies between
nearby solves, so raw per-vector correlations are meaningless there.
Cluster blocks in the new solve are rotated toward the previous vectors
before matching (orthogonal Procrustes on the correlation block).  On
the committed side the mirror rotation, toward the new frame, is
applied only to clusters degenerate at every accepted point since the
start: their basis fixes no branch identity, and re-gauging it is what
lets a symmetric geometry split cleanly under the morph.  A cluster
formed later by a transversal crossing keeps its basis, which is
exactly what carries each trajectory's identity through the crossing.
Either rotation fixes solver gauge only, never re-labels across
distinct eigenvalues, and flags the step as degenerate.

The same engine drives the reduced system (small dense pencils) and the
full sparse system (the runtime baseline); only the solve and the inner
product differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .assembly import ParametrizedSystem
from .eigen import SolverPolicy, solve_sparse_gevp
from .errors import ConfigError, TrackingError
from .gauge import GaugeDecomposition
from .rb import ReducedBasis, _make_evaluator, _salt_from_t


@dataclass
class TrackingRun:
    """Matched eigenvalue trajectories over the visited parameter grid.

    lambdas[m, k] is trajectory m at grid[k]; correlations[m, k-1] is the
    matched correlation of the step into grid[k].  permutations[k-1] maps
    trajectory slots to candidate indices (ascending eigenvalue order,
    including buffer modes) of the solve at grid[k]; each entry is an
    injective assignment.
    """

    grid: np.ndarray
    lambdas: np.ndarray
    correlations: np.ndarray
    permutations: list
    stats: dict

    @property
    def n_modes(self) -> int:
        return self.lambdas.shape[0]

    def to_rows(self):
        """CSV-ready rows: t, lambda_1..K, corr_1..K (first row corr = 1)."""
        rows = []
        K = self.n_modes
        for k, t in enumerate(self.grid):
            corr = np.ones(K) if k == 0 else self.correlations[:, k - 1]
            rows.append([float(t)] + [float(x) for x in self.lambdas[:, k]]
                        + [float(c) for c in corr])
        return rows


def _greedy_match(C: np.ndarray):
    """Pair rows to columns by descending correlation without reuse.

    C may be rectangular (K trajectories, >= K candidates); every row is
    assigned a distinct column.
    """
    K = C.shape[0]
    perm = np.full(K, -1, dtype=np.int64)
    corrs = np.zeros(K)
    work = C.copy()
    for _ in range(K):
        i, j = np.unravel_index(int(np.argmax(work)), work.shape)
        perm[i] = j
        corrs[i] = C[i, j]
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm, corrs


def _hungarian_match(C: np.ndarray):
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-C)
    perm = np.empty(C.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm, C[rows, cols][np.argsort(rows)]


_CLUSTER_RTOL = 1e-8


def _degenerate_clusters(values: np.ndarray, rtol: float = _CLUSTER_RTOL):
    """Groups of indices holding numerically equal eigenvalues.

    Works on unsorted input (trajectory-slot order) by grouping along the
    sorted sequence; each group is returned as an ascending index array.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    clusters = []
    start = 0
    for j in range(1, ranked.size + 1):
        if (j == ranked.size
                or ranked[j] - ranked[j - 1] > rtol * max(abs(ranked[j]), 1.0)):
            if j - start >= 2:
                clusters.append(np.sort(order[start:j]))
            start = j
    return clusters


def _procrustes_rotation(M, c):
    """Orthogonal c-by-c rotation aligning a cluster block to a reference.

    M holds the signed overlaps, reference vectors by cluster columns;
    the c most-overlapping reference rows define the Procrustes problem.
    Returns None when the cluster subspace is invisible on the other side.
    """
    rows = np.sort(np.argsort(-np.linalg.norm(M, axis=1), kind="stable")[:c])
    T = M[rows]
    if np.linalg.norm(T) < 1e-12:
        return None
    Usv, _, Wt = np.linalg.svd(T)
    return Wt.T @ Usv.T


class _TrackEngine:
    """Recursive bisection tracking over [0, 1].

    solve(t) must return (values, vectors, inner) with at least K
    eigenpairs ascending (ideally K plus a small buffer of candidates),
    vectors inner-orthonormal, and inner the mass operator at t (applied
    as inner @ block).
    """

    def __init__(self, solve, K, threshold, initial_steps, max_depth,
                 matching="greedy"):
        if not (0.0 <= threshold < 1.0):
            raise ConfigError("correlation threshold must lie in [0, 1)")
        if initial_steps < 2:
            raise ConfigError("initial_steps must be >= 2")
        if K < 1:
            raise ConfigError("tracking needs K >= 1")
        self.solve = solve
        self.K = K
        self.threshold = threshold
        self.initial_steps = initial_steps
        self.max_depth = max_depth
        self.match = _hungarian_match if matching == "hungarian" else _greedy_match

    def run(self) -> TrackingRun:
        t_start = time.perf_counter()
        grid = [0.0]
        values0, vectors0, inner0 = self.solve(0.0)
        # Trajectories start as the K lowest modes; buffer columns are
        # candidates for later steps only.
        self._state = (values0[: self.K].copy(), vectors0[:, : self.K], inner0)
        # Clusters degenerate since t = 0 carry no branch identity in
        # their basis; only these may be re-gauged on the committed side.
        self._free = _degenerate_clusters(values0[: self.K])
        lambdas = [values0[: self.K].copy()]
        correlations = []
        permutations = []
        self._bisections = 0
        self._degenerate_steps = 0

        coarse = np.linspace(0.0, 1.0, self.initial_steps + 1)
        for t_next in coarse[1:]:
            self._advance(float(grid[-1]), float(t_next), 0, grid, lambdas,
                          correlations, permutations)

        grid = np.array(grid)
        stats = {
            "bisection_count": self._bisections,
            "degenerate_steps": self._degenerate_steps,
            "min_step": float(np.diff(grid).min()),
            "wall_seconds": time.perf_counter() - t_start,
        }
        return TrackingRun(
            grid=grid,
            lambdas=np.column_stack(lambdas),
            correlations=(np.column_stack(correlations)
                          if correlations else np.zeros((self.K, 0))),
            permutations=permutations,
            stats=stats,
        )

    def _advance(self, t_prev, t_next, depth, grid, lambdas, correlations,
                 permutations):
        values_p, vectors_p, inner_p = self._state
        values_n, vectors_n, inner_n = self.solve(t_next)

        W = inner_p @ vectors_n
        norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vectors_n, W)))
        # Signed correlation block, trajectories by candidates.  Every
        # Procrustes target below is a sub-block of P, so the gauge fixes
        # reduce to in-place row and column updates.
        P = vectors_p.T @ W

        clusters_n = _degenerate_clusters(values_n)
        if clusters_n:
            vectors_n = vectors_n.copy()
        for idx in clusters_n:
            if idx.size > self.K:
                continue
            R = _procrustes_rotation(P[:, idx], idx.size)
            if R is None:
                continue
            block = vectors_n[:, idx] @ R
            vectors_n[:, idx] = block
            Wb = W[:, idx] @ R
            W[:, idx] = Wb
            norms[idx] = np.sqrt(np.abs(np.einsum("ij,ij->j", block, Wb)))
            P[:, idx] = P[:, idx] @ R
        # Committed clusters that have stayed degenerate since the start
        # (a symmetric geometry about to split) have an equally arbitrary
        # basis; their rows of P are rotated toward the new frame.  A
        # cluster formed later at a crossing keeps its basis: it encodes
        # which branch is which.  The state itself is never touched.
        for idx in self._free:
            R = _procrustes_rotation(P[idx, :].T, idx.size)
            if R is not None:
                P[idx, :] = R.T @ P[idx, :]

        C = np.abs(P) / norms[None, :]
        perm, corrs = self.match(C)

        if self.threshold > 0.0 and np.any(corrs < self.threshold):
            if depth >= self.max_depth:
                raise TrackingError(
                    "correlation %.4f below threshold %.2f on [%.6g, %.6g] "
                    "after %d bisection levels"
                    % (corrs.min(), self.threshold, t_prev, t_next, depth)
                )
            mid = 0.5 * (t_prev + t_next)
            self._bisections += 1
            self._advance(t_prev, mid, depth + 1, grid, lambdas, correlations,
                          permutations)
            self._advance(mid, t_next, depth + 1, grid, lambdas, correlations,
                          permutations)
            return

        # Accept: reorder the new eigenpairs into trajectory slots.
        values_t = values_n[perm]
        if clusters_n or self._free:
            self._degenerate_steps += 1
        # A free cluster survives only while its members remain mutually
        # degenerate at the accepted point.
        self._free = [idx[sub] for idx in self._free
                      for sub in _degenerate_clusters(values_t[idx])]
        self._state = (values_t, vectors_n[:, perm], inner_n)
        grid.append(t_next)
        lambdas.append(values_t)
        correlations.append(corrs)
        permutations.append(perm)


def track_reduced(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                  basis: ReducedBasis, K: int, threshold: float = 0.9,
                  initial_steps: int = 16, max_depth: int = 10,
                  matching: str = "greedy", buffer: int = 2,
                  policy: SolverPolicy | None = None) -> TrackingRun:
    """Track the K lowest reduced eigenvalues over [0, 1]."""
    if basis.n_red < K:
        raise ConfigError(
            "basis size %d smaller than tracked mode count %d" % (basis.n_red, K)
        )
    if buffer < 0:
        raise ConfigError("candidate buffer must be >= 0")
    policy = policy if policy is not None else SolverPolicy(sigma=1.0, lambda_cut=0.0)
    ev = _make_evaluator("mixed", psys, gauge, policy, K)
    ev.set_basis(basis.Z)
    n_cand = min(K + buffer, basis.n_red)

    def solve(t):
        red, sol = ev.solve(t)
        return sol.values[:n_cand], sol.vectors[:, :n_cand], red.B_tilde

    return _TrackEngine(solve, K, threshold, initial_steps, max_depth,
                        matching).run()


def track_full(psys: ParametrizedSystem, K: int, policy: SolverPolicy,
               threshold: float = 0.9, initial_steps: int = 16,
               max_depth: int = 10, matching: str = "greedy",
               buffer: int = 2) -> TrackingRun:
    """Track on the full sparse system; the runtime baseline."""
    if buffer < 0:
        raise ConfigError("candidate buffer must be >= 0")

    def solve(t):
        pair = psys.interpolate(t)
        sol = solve_sparse_gevp(pair.A, pair.B, K + buffer, policy,
                                salt=_salt_from_t(t))
        return sol.values, sol.vectors, pair.B

    return _TrackEngine(solve, K, threshold, initial_steps, max_depth,
                        matching).run()
