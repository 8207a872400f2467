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

Each solution is grouped into clusters once, before it enters the
loop, from its values as the solver returns them, ascending: reduced
tracking groups its initial grid's solutions in one vectorized pass
over their stacked values, and a bisection midpoint or a full-order
solve is grouped as a stack of one.  A failed step's end keeps its
groups with its solution on the pending stack, so a retried step
neither solves nor groups again.  Clusters are tuples, so free
and aligned clusters are found by key.  One routine, _procrustes, does
every alignment on the overlap block P: a new cluster toward the
committed rows, the two-sided SVD of a free cluster, and (on P.T) a
free cluster's committed rows toward the candidates.  At a step with
clusters, P, the candidates and their inner products are stacked as
one block, so a new cluster's columns turn in all three with one
product and one store, and the candidates' norms are formed once per
step, after every rotation.  A step costs two products with the
candidates (their inner products and P), one norm pass, one matching
and, per cluster, one SVD by LAPACK's gesdd, called directly (bitwise
np.linalg.svd, at a third of its cost), and two small products.  The
greedy matching takes each trajectory's largest correlation directly
when those lie in distinct candidates, which is what its sorted walk
would pick; only a contested candidate sends it to the walk.  That is
about thirty numpy calls on arrays of K + buffer columns, a cluster of
consecutive indices addressed as a view; on the reduced path their
overhead, not their arithmetic, is most of a step.

The same loop drives the reduced system (small dense pencils) and the
full sparse system (the runtime baseline); only the solve and the inner
product differ.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesdd

from .assembly import ParametrizedSystem
from .config import MATCHERS, RunConfig, check_tracking
from .eigen import SolverPolicy, solve_sparse_gevp
from .errors import ConfigError, TrackingError
from .gauge import GaugeDecomposition
from .rb import ReducedBasis, _make_evaluator


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
        behind the reduced values: those of the lifted space the basis
        carries from its build, or the two endpoint lifts this pass
        made, plus one per online lift point.
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
    assigned a distinct column: the pairs _walk_match gives.  When C is
    finite and the rows' first maxima (np.argmax) lie in distinct
    columns, the walk pairs each row with its first maximum, so those
    are returned without it: an entry ahead of (i, argmax_i) in the walk
    is larger than row i's maximum, which none is, or equal to it and
    earlier in row-major order, which in row i it is not; so no row
    takes another row's column before that row reaches its own.  A
    finite sum of C's entries stands for a finite C (a sum that
    overflows only sends C to the walk).
    """
    K, n = C.shape
    perm = C.argmax(axis=1)
    cols = perm.tolist()
    if len(set(cols)) == K and math.isfinite(C.sum()):
        return perm, C.take([i * n + j for i, j in enumerate(cols)])
    return _walk_match(C)


def _walk_match(C: np.ndarray):
    """The greedy pairs by one stable descending sort of C's entries as
    Python floats (the order np.argsort(-C, kind="stable") gives),
    walked past used rows and columns: the largest free entry is paired
    first and, among equal entries, the first in row-major order."""
    K, n = C.shape
    perm, picked = [-1] * K, [0] * K
    used = [False] * n
    left = K
    entries = C.ravel().tolist()
    for flat in sorted(range(K * n), key=entries.__getitem__, reverse=True):
        i, j = divmod(flat, n)
        if perm[i] < 0 and not used[j]:
            perm[i], picked[i] = j, flat
            used[j] = True
            left -= 1
            if not left:
                break
    return np.array(perm, dtype=np.int64), C.take(picked)


def _hungarian_match(C: np.ndarray):
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-C)
    perm = np.empty(C.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm, C[rows, cols][np.argsort(rows)]


_CLUSTER_RTOL = 1e-8


def _degenerate_clusters(values: np.ndarray) -> list:
    """Per row of the stack values (count x m), the groups of indices
    holding numerically equal values, as ascending index tuples.

    Each row must ascend, as every solver returns its spectrum: a value
    more than _CLUSTER_RTOL * max(|value|, 1) above its predecessor
    starts a new group.  One vectorized pass over the stack finds every
    tie, and only the ties are walked in Python, so a sweep's solutions
    are grouped at once and a single solution is a stack of one.
    """
    hi = values[:, 1:]
    tied = ~(hi - values[:, :-1]
             > _CLUSTER_RTOL * np.maximum(np.abs(hi), 1.0))
    # (row, j): ranks j and j + 1 of the row tie; runs of j join a group
    ties = list(zip(*(a.tolist() for a in np.nonzero(tied))))
    groups = [[] for _ in range(len(values))]
    for (r, j), prev in zip(ties, [None, *ties]):
        if prev == (r, j - 1):
            groups[r][-1].append(j + 1)
        else:
            groups[r].append([j, j + 1])
    return [[tuple(group) for group in row] for row in groups]


def _surviving_free(free, clusters_n, perm):
    """Each free cluster (trajectory slots) cut by the accepted solve's
    clusters_n (candidates; slot s holds perm[s]) into parts of two or
    more slots: those still degenerate.  A chain of near-ties whose ends
    lie more than _CLUSTER_RTOL apart is one group of the solve, so it
    stays one part even when it links through candidates outside the
    free cluster."""
    parts = [tuple(s for s in idx if perm[s] in group)
             for idx in free for group in clusters_n]
    return [part for part in parts if len(part) >= 2]


def _index(cluster):
    """An ascending index tuple as a slice when it is a run of
    consecutive indices, so numpy takes a view of the block instead of a
    copy, else as a list; both select the same entries."""
    lo, hi = cluster[0], cluster[-1] + 1
    return slice(lo, hi) if hi - lo == len(cluster) else list(cluster)


def _procrustes(P, cluster, free=(), block=None):
    """Rotate the c = len(cluster) columns of the overlap block P that
    cluster lists, in place, toward the c rows they overlap most
    (orthogonal Procrustes).

    With T = U S V^T the c x c block of those rows and columns, the
    columns are rotated by V U^T; when the rows are one of the clusters
    in free, the rows are rotated by U^T and the columns by V instead,
    which leaves T = diag(S).  block, when given, is an array whose
    leading rows are P: its columns turn instead of P's, so P and the
    rows stacked under it take one product and one store.  Returns the
    rows as a tuple, or None when the cluster is invisible on the other
    side (||T|| < 1e-12, summed from the rows' squared norms).  P.T
    aligns a cluster of P's rows the same way.
    """
    idx = _index(cluster)
    M = P[:, idx]
    squares = np.add.reduce(M * M, axis=1).tolist()
    reach = [math.sqrt(x) for x in squares]     # bitwise np.sqrt
    rows = tuple(sorted(sorted(range(len(reach)), key=reach.__getitem__,
                               reverse=True)[:len(cluster)]))
    if sum([squares[r] for r in rows]) < 1e-24:
        return None
    at = _index(rows)
    U, _, Vt, info = dgesdd(M[at])
    if info != 0:
        raise TrackingError("overlap block SVD failed (gesdd info %d)" % info)
    if rows in free:
        P[at, :] = U.T @ P[at, :]
        R = Vt.T
    else:
        R = Vt.T @ U.T
    X = P if block is None else block
    X[:, idx] = X[:, idx] @ R
    return rows


_MATCHERS = dict(zip(MATCHERS, (_greedy_match, _hungarian_match)))


def _track(solve, K, threshold, initial_steps, max_depth,
           matching=RunConfig.matching) -> TrackingRun:
    """Bisection tracking over [0, 1].

    solve(t) must return (values, vectors, inner, clusters) with at
    least K eigenpairs ascending (ideally K plus a small buffer of
    candidates), vectors inner-orthonormal, inner the mass operator at t
    (applied as inner @ block) and clusters the groups of values, as
    _degenerate_clusters gives them.

    Steps run from the last accepted point to the end on top of a stack
    of pending ends.  A failed step pushes its end, then its midpoint,
    both one level deeper, so the left half is tracked first and the
    right half then starts at the midpoint.  The end keeps the solution
    its failed step got, as solve returned it, with its clusters, so
    each parameter is solved and grouped once.
    """
    match = _MATCHERS[matching]
    t_start = time.perf_counter()
    values, vectors, inner, clusters = solve(0.0)
    # Trajectories start as the K lowest modes; buffer columns are
    # candidates for later steps only.
    vectors = vectors[:, :K]
    # Clusters degenerate since t = 0 carry no branch identity in their
    # basis; only these may be re-gauged on the committed side.  The
    # values ascend, so the groups of the first K are those parts of the
    # solution's groups.
    free = [part for part in (tuple(i for i in group if i < K)
                              for group in clusters) if len(part) >= 2]
    grid = [0.0]
    lambdas = [values[:K].copy()]
    correlations, permutations = [], []
    bisections = degenerate_steps = 0
    # (t, bisection depth, its solution and clusters if a failed step
    # already got them)
    pending = [(float(t), 0, None)
               for t in np.linspace(0.0, 1.0, initial_steps + 1)[:0:-1]]
    while pending:
        t_next, depth, solved = pending.pop()
        if solved is None:
            solved = solve(t_next)
        values_n, vectors_n, inner_n, clusters_n = solved
        W = inner @ vectors_n
        # Signed correlation block, trajectories by candidates.  Every
        # Procrustes target below is a sub-block of P, so the gauge fixes
        # reduce to in-place row and column updates.
        P = vectors.T @ W

        if clusters_n:
            # P over the candidates over their inner products, one block,
            # so a cluster's columns turn in all three with one product.
            # A cluster that turns has two or more columns, and K is at
            # least its size, so every part has two or more rows and gets
            # the rows its own product would give (a one-row product is
            # BLAS's vector kernel, which rounds differently).
            PVW = np.concatenate((P, vectors_n, W))
            n = len(W)
            P, vectors_n, W = PVW[:K], PVW[K:K + n], PVW[K + n:]
        # A new cluster whose best-overlap trajectories are a free cluster
        # meets a basis as arbitrary as its own: the block is aligned on
        # both sides by its SVD, so the correlations are its singular
        # values whatever bases the solves returned.  The candidates and
        # their inner products turn with their columns of P.
        aligned = set()
        for cols in clusters_n:
            if len(cols) <= K:
                aligned.add(_procrustes(P, cols, free, PVW))
        # Committed clusters that have stayed degenerate since the start
        # (a symmetric geometry about to split) have an equally arbitrary
        # basis; their rows of P are rotated toward the new frame.  A
        # cluster formed later at a crossing keeps its basis: it encodes
        # which branch is which.  The committed vectors are never touched.
        for idx in free:
            if idx not in aligned:
                _procrustes(P.T, idx)

        # The candidates' norms, once all are rotated: a column's norm
        # sums the same in a block of two or more columns (a cluster)
        # as among all of them.
        norms = np.einsum("ij,ij->j", vectors_n, W)
        np.sqrt(np.abs(norms, out=norms), out=norms)
        C = np.abs(P, out=P)
        C /= norms
        perm, corrs = match(C)

        if threshold > 0.0 and min(corrs.tolist()) < threshold:
            if depth >= max_depth:
                raise TrackingError(
                    "correlation %.4f below threshold %.2f on [%.6g, %.6g] "
                    "after %d bisection levels"
                    % (corrs.min(), threshold, grid[-1], t_next, depth)
                )
            bisections += 1
            pending.append((t_next, depth + 1, solved))
            pending.append((0.5 * (grid[-1] + t_next), depth + 1, None))
            continue

        # Accept: reorder the new eigenpairs into trajectory slots.
        if clusters_n or free:
            degenerate_steps += 1
        free = _surviving_free(free, clusters_n, perm.tolist())
        vectors, inner = vectors_n[:, perm], inner_n
        grid.append(t_next)
        lambdas.append(values_n[perm])
        correlations.append(corrs)
        permutations.append(perm)

    grid = np.array(grid)
    stats = {
        "bisection_count": bisections,
        "degenerate_steps": degenerate_steps,
        "min_step": float(np.diff(grid).min()),
        "wall_seconds": time.perf_counter() - t_start,
    }
    # one row per step, transposed into C-ordered columns
    return TrackingRun(
        grid=grid,
        lambdas=np.array(lambdas).T.copy(),
        correlations=np.array(correlations).T.copy(),
        permutations=permutations,
        stats=stats,
    )


def track_reduced(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                  basis: ReducedBasis, K: int, policy: SolverPolicy,
                  threshold: float = RunConfig.threshold,
                  initial_steps: int = RunConfig.initial_steps,
                  max_depth: int = RunConfig.max_depth,
                  matching: str = RunConfig.matching,
                  buffer: int = RunConfig.track_buffer) -> TrackingRun:
    """Track the K lowest reduced eigenvalues over [0, 1].

    The settings default to RunConfig's and are held, before any solve
    or lift, to config.check_tracking, the rule a config file's keys
    meet (buffer is the key track_buffer).  Reduced tracking takes no
    snapshot; the evaluator holds every reduced pencil to
    policy.lambda_cut, so a spurious mode among the first min(K, n_red)
    values at any t raises NumericsError.  A basis
    of either gauge is tracked through the lifted (mixed) evaluation: a
    classical basis carries no lifts, so tracking it (track --reduced
    --gauge classical) lifts it at both endpoints and forms no dense
    pencil, while bench's error sweep evaluates each basis in its own
    gauge.  The evaluator is built with the basis, so it starts from the
    lifted space a built basis carries, lift points of the build
    included, when that space fits these psys and gauge objects; a
    parameter its space does not certify becomes a lift point of this
    run only.  The initial grid is evaluated in one sweep (solve_many)
    and its solutions grouped in one pass (_degenerate_clusters) before
    the first step, so its lift points, if any, come before those of the
    bisection midpoints; a midpoint is solved and grouped alone.
    stats also carries lift_solves, the exact lifts behind the run's
    reduced values: those of the space the run started from, adopted or
    made here at both endpoints, plus one per online lift point.
    """
    check_tracking(K, threshold, initial_steps, buffer, max_depth, matching)
    if basis.n_red < K:
        raise ConfigError(
            "basis size %d smaller than tracked mode count %d" % (basis.n_red, K)
        )
    ev = _make_evaluator("mixed", psys, gauge, policy, K, basis=basis)
    n_cand = min(K + buffer, basis.n_red)
    grid = np.linspace(0.0, 1.0, initial_steps + 1)
    solved = ev.solve_many(grid)
    groups = _degenerate_clusters(
        np.array([sol.values[:n_cand] for _, sol in solved]))
    coarse = dict(zip(grid.tolist(), zip(solved, groups)))

    def solve(t):
        if t in coarse:
            ((_, B_tilde), sol), clusters = coarse.pop(t)
        else:
            (_, B_tilde), sol = ev.solve_many([t])[0]
            clusters = _degenerate_clusters(sol.values[None, :n_cand])[0]
        return (sol.values[:n_cand], sol.vectors[:, :n_cand], B_tilde,
                clusters)

    run = _track(solve, K, threshold, initial_steps, max_depth, matching)
    run.stats["lift_solves"] = ev.lifted.lifts
    return run


def track_full(psys: ParametrizedSystem, K: int, policy: SolverPolicy,
               threshold: float = RunConfig.threshold,
               initial_steps: int = RunConfig.initial_steps,
               max_depth: int = RunConfig.max_depth,
               matching: str = RunConfig.matching,
               buffer: int = RunConfig.track_buffer) -> TrackingRun:
    """Track on the full sparse system; the runtime baseline.  The
    settings are checked as track_reduced's are."""
    check_tracking(K, threshold, initial_steps, buffer, max_depth, matching)

    def solve(t):
        pair = psys.interpolate(t)
        sol = solve_sparse_gevp(pair.A, pair.B, K + buffer, policy, t=t)
        return (sol.values, sol.vectors, pair.B,
                _degenerate_clusters(sol.values[None])[0])

    return _track(solve, K, threshold, initial_steps, max_depth, matching)
