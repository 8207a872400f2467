"""Eigenmode tracking along the deformation parameter.

Modes at consecutive parameter values are matched through the modulus of
their inner product in the metric of the left step's mass matrix, which
is invariant under eigenvector sign and scale.  If any matched
correlation falls below the threshold the step is bisected and both
halves are tracked in turn, so crossings are traversed with steps small
enough to keep the pairing unambiguous.  A threshold of zero
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
When the best-overlap trajectories of a new cluster are such a free
cluster, neither side's basis means anything, and the two one-sided
rotations would leave the overlap block symmetric but not diagonal, so
its diagonal, the correlations, would depend on the solvers' bases.
That block is instead aligned on both sides by its SVD, and the
correlations are its singular values.  Every rotation fixes solver
gauge only, never re-labels across distinct eigenvalues, and flags the
step as degenerate.

The same loop drives the reduced system (small dense pencils) and the
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

    def summary(self) -> dict:
        """JSON-ready counts of the pass.

        On the reduced path lift_solves is the number of exact lifts
        behind the reduced values: the two endpoint lifts, whether made
        by this pass or carried by the basis from its build, plus one
        per online lift point.
        """
        out = {
            "grid_points": int(self.grid.size),
            "bisection_count": int(self.stats["bisection_count"]),
            "degenerate_steps": int(self.stats["degenerate_steps"]),
            "min_step": float(self.stats["min_step"]),
        }
        if "lift_solves" in self.stats:
            out["lift_solves"] = int(self.stats["lift_solves"])
        return out

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
    assigned a distinct column.  One stable descending sort of C, walked
    past used rows and columns, pairs the largest free entry first and,
    among equal entries, the first in row-major order.
    """
    K, n = C.shape
    perm = [-1] * K
    used = [False] * n
    left = K
    for flat in np.argsort(-C, axis=None, kind="stable").tolist():
        i, j = divmod(flat, n)
        if perm[i] < 0 and not used[j]:
            perm[i] = j
            used[j] = True
            left -= 1
            if not left:
                break
    perm = np.array(perm, dtype=np.int64)
    return perm, C[np.arange(K), perm]


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
    gaps = np.diff(ranked) > rtol * np.maximum(np.abs(ranked[1:]), 1.0)
    if gaps.all():
        return []
    bounds = [0, *(np.flatnonzero(gaps) + 1).tolist(), values.size]
    return [np.sort(order[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi - lo >= 2]


def _overlap_svd(M, c):
    """SVD of a cluster's overlap block with a reference.

    M holds the signed overlaps, reference vectors by cluster columns;
    the c most-overlapping reference rows form the block T = U S V^T.
    Returns (rows, U, V), or None when the cluster subspace is invisible
    on the other side.  V U^T is the orthogonal c-by-c rotation that
    aligns the cluster to the reference (orthogonal Procrustes).
    """
    rows = np.sort(np.argsort(-np.linalg.norm(M, axis=1), kind="stable")[:c])
    T = M[rows]
    if np.linalg.norm(T) < 1e-12:
        return None
    U, _, Vt = np.linalg.svd(T)
    return rows, U, Vt.T


def _rotate_candidates(vectors_n, W, norms, P, cols, R):
    """Replace candidate columns cols by their combinations R, in the
    candidates, their inner products W, their norms and the overlaps P."""
    block = vectors_n[:, cols] @ R
    vectors_n[:, cols] = block
    Wb = W[:, cols] @ R
    W[:, cols] = Wb
    norms[cols] = np.sqrt(np.abs(np.einsum("ij,ij->j", block, Wb)))
    P[:, cols] = P[:, cols] @ R


def _check_settings(K, threshold, initial_steps, buffer) -> None:
    """Reject tracking settings before any solve or lift."""
    if not (0.0 <= threshold < 1.0):
        raise ConfigError("correlation threshold must lie in [0, 1)")
    if initial_steps < 2:
        raise ConfigError("initial_steps must be >= 2")
    if K < 1:
        raise ConfigError("tracking needs K >= 1")
    if buffer < 0:
        raise ConfigError("candidate buffer must be >= 0")


def _track(solve, K, threshold, initial_steps, max_depth,
           matching="greedy") -> TrackingRun:
    """Bisection tracking over [0, 1].

    solve(t) must return (values, vectors, inner) with at least K
    eigenpairs ascending (ideally K plus a small buffer of candidates),
    vectors inner-orthonormal, and inner the mass operator at t (applied
    as inner @ block).

    Steps run from the last accepted point to the end on top of a stack
    of pending ends.  A failed step pushes its end, then its midpoint,
    both one level deeper, so the left half is tracked first and the
    right half then starts at the midpoint.
    """
    match = _hungarian_match if matching == "hungarian" else _greedy_match
    t_start = time.perf_counter()
    values, vectors, inner = solve(0.0)
    # Trajectories start as the K lowest modes; buffer columns are
    # candidates for later steps only.
    vectors = vectors[:, :K]
    # Clusters degenerate since t = 0 carry no branch identity in their
    # basis; only these may be re-gauged on the committed side.
    free = _degenerate_clusters(values[:K])
    grid = [0.0]
    lambdas = [values[:K].copy()]
    correlations, permutations = [], []
    bisections = degenerate_steps = 0
    pending = [(float(t), 0)
               for t in np.linspace(0.0, 1.0, initial_steps + 1)[:0:-1]]
    while pending:
        t_next, depth = pending.pop()
        values_n, vectors_n, inner_n = solve(t_next)
        W = inner @ vectors_n
        norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vectors_n, W)))
        # Signed correlation block, trajectories by candidates.  Every
        # Procrustes target below is a sub-block of P, so the gauge fixes
        # reduce to in-place row and column updates.
        P = vectors.T @ W

        clusters_n = _degenerate_clusters(values_n)
        if clusters_n:
            vectors_n = vectors_n.copy()
        # A new cluster whose best-overlap trajectories are a free cluster
        # (below) meets a basis as arbitrary as its own: the block is
        # aligned on both sides by its SVD, so the correlations are its
        # singular values whatever bases the solves returned.
        aligned = []
        for idx in clusters_n:
            if idx.size > K:
                continue
            svd = _overlap_svd(P[:, idx], idx.size)
            if svd is None:
                continue
            rows, U, V = svd
            if any(np.array_equal(rows, f) for f in free):
                P[rows, :] = U.T @ P[rows, :]
                _rotate_candidates(vectors_n, W, norms, P, idx, V)
                aligned.append(rows)
            else:
                _rotate_candidates(vectors_n, W, norms, P, idx, V @ U.T)
        # Committed clusters that have stayed degenerate since the start
        # (a symmetric geometry about to split) have an equally arbitrary
        # basis; their rows of P are rotated toward the new frame.  A
        # cluster formed later at a crossing keeps its basis: it encodes
        # which branch is which.  The committed vectors are never touched.
        for idx in free:
            if any(np.array_equal(idx, a) for a in aligned):
                continue
            svd = _overlap_svd(P[idx, :].T, idx.size)
            if svd is not None:
                _, U, V = svd
                R = V @ U.T
                P[idx, :] = R.T @ P[idx, :]

        C = np.abs(P) / norms[None, :]
        perm, corrs = match(C)

        if threshold > 0.0 and np.any(corrs < threshold):
            if depth >= max_depth:
                raise TrackingError(
                    "correlation %.4f below threshold %.2f on [%.6g, %.6g] "
                    "after %d bisection levels"
                    % (corrs.min(), threshold, grid[-1], t_next, depth)
                )
            bisections += 1
            pending.append((t_next, depth + 1))
            pending.append((0.5 * (grid[-1] + t_next), depth + 1))
            continue

        # Accept: reorder the new eigenpairs into trajectory slots.
        values_t = values_n[perm]
        if clusters_n or free:
            degenerate_steps += 1
        # A free cluster survives only while its members remain mutually
        # degenerate at the accepted point.
        free = [idx[sub] for idx in free
                for sub in _degenerate_clusters(values_t[idx])]
        vectors, inner = vectors_n[:, perm], inner_n
        grid.append(t_next)
        lambdas.append(values_t)
        correlations.append(corrs)
        permutations.append(perm)

    grid = np.array(grid)
    stats = {
        "bisection_count": bisections,
        "degenerate_steps": degenerate_steps,
        "min_step": float(np.diff(grid).min()),
        "wall_seconds": time.perf_counter() - t_start,
    }
    return TrackingRun(
        grid=grid,
        lambdas=np.column_stack(lambdas),
        correlations=np.column_stack(correlations),
        permutations=permutations,
        stats=stats,
    )


def track_reduced(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                  basis: ReducedBasis, K: int, threshold: float = 0.9,
                  initial_steps: int = 16, max_depth: int = 10,
                  matching: str = "greedy", buffer: int = 2,
                  policy: SolverPolicy | None = None) -> TrackingRun:
    """Track the K lowest reduced eigenvalues over [0, 1].

    Reduced tracking takes no snapshot, so policy goes to the evaluator
    as given.  A basis of either gauge is tracked through the lifted
    (mixed) evaluation: a classical basis carries no lifts, so tracking
    it (track --reduced --gauge classical) lifts it at both endpoints
    and forms no dense pencil, while bench's error sweep evaluates each
    basis in its own gauge.  The evaluator adopts the endpoint lifts the
    basis carries (ReducedBasis.lifted) when they were made for these
    psys, gauge and Z objects, and lifts Z at both endpoints otherwise;
    a parameter its lifted space does not certify becomes a lift point
    of this run only.
    stats also carries lift_solves, the exact lifts behind the run's
    reduced values: the two endpoint lifts, adopted or made here, plus
    one per online lift point.
    """
    _check_settings(K, threshold, initial_steps, buffer)
    if basis.n_red < K:
        raise ConfigError(
            "basis size %d smaller than tracked mode count %d" % (basis.n_red, K)
        )
    ev = _make_evaluator("mixed", psys, gauge, policy, K)
    ev.set_basis(basis.Z, basis.lifted)
    n_cand = min(K + buffer, basis.n_red)

    def solve(t):
        red, sol = ev.solve(t)
        return sol.values[:n_cand], sol.vectors[:, :n_cand], red.B_tilde

    run = _track(solve, K, threshold, initial_steps, max_depth, matching)
    run.stats["lift_solves"] = ev.lift_solves
    return run


def track_full(psys: ParametrizedSystem, K: int, policy: SolverPolicy,
               threshold: float = 0.9, initial_steps: int = 16,
               max_depth: int = 10, matching: str = "greedy",
               buffer: int = 2) -> TrackingRun:
    """Track on the full sparse system; the runtime baseline."""
    _check_settings(K, threshold, initial_steps, buffer)

    def solve(t):
        pair = psys.interpolate(t)
        sol = solve_sparse_gevp(pair.A, pair.B, K + buffer, policy,
                                salt=_salt_from_t(t))
        return sol.values, sol.vectors, pair.B

    return _track(solve, K, threshold, initial_steps, max_depth, matching)
