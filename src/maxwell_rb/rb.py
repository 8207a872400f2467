"""Reduced-basis construction: POD initialization plus greedy enrichment.

Two interchangeable evaluation backends drive the same greedy loop.

Mixed gauge: snapshots come from the sparse ungauged eigenproblem and
are condensed to cotree coordinates in closed form along the spanning
tree (one triangular solve per snapshot, see gauge.CotreeProjector);
reduced matrices are evaluated through the lifted form
Z_full = B(t)^{-1} H(t)^T Z, with the mass solve done by
Jacobi-preconditioned conjugate gradients, so neither a dense
|C| x |C| matrix nor a per-parameter factorization ever exists.
Because A(t) interpolates linearly between the endpoints, H(t)^T Z is
the same convex combination of two sparse products, which keeps the
parameter sweep cheap.

Classical gauge: snapshots and reduced matrices go through the dense
cotree pencil assembled per parameter value, A_hat = W^T (A W) with
W = B(t)^{-1} H(t)^T, on dense LAPACK throughout: a Cholesky factor of
the mass matrix solves for all |C| columns of W at once, B_hat is the
cotree rows of A W, and a snapshot asks the dense eigensolver for its K
modes only.  A pencil and its factor are held only while they are
being used, mirroring the fact that the dense matrices are exactly what
does not fit in memory at scale; this path exists as the comparison
baseline and is expected slower and hungrier.

Every evaluator is built by _make_evaluator and answers two shared
questions: ``solve`` gives the reduced pencil at t and its eigenpairs,
and ``estimate`` adds the gap-aware error estimator
eta = ||r||^2 / (lambda_tilde * gap) of the first K modes (inf for a
mode that a basis of fewer than K columns lacks).  The greedy loop,
reduced tracking, the bench error studies and the tests all go through
these two routines.  Each call evaluates its parameter afresh and keeps
nothing of it once it returns.  ``snapshot(t)`` returns the K modes at
t as a |C| x K array of unit columns.

greedy_enrich is a weak greedy over one table of (t, mode) candidates
(Hesthaven, Rozza & Stamm, Certified Reduced Basis Methods, 2016).

Dense allocations of both pipelines, greedy's appended columns
included, are tallied by a StorageMeter so the memory claims are
assertable rather than anecdotal.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from .assembly import ParametrizedSystem
from .eigen import SolverPolicy, pcg_solve, solve_dense_gevp, solve_sparse_gevp
from .errors import ConfigError, NumericsError, ProjectionError
from .gauge import CotreeProjector, GaugeDecomposition, build_cotree_system, cotree_operator

_EXHAUSTION_NORM = 1e-10
_POD_RANK_GUARD = 1e-13
_GAP_FLOOR_FRACTION = 1e-8


def _salt_from_t(t: float) -> int:
    """Injective, deterministic salt for per-parameter start vectors."""
    return int(np.abs(np.float64(t).view(np.int64)))


class StorageMeter:
    """Running count of densely stored entries with peak tracking.

    Pipelines register the dense arrays they allocate; small vectors of
    O(N) size and solver-internal workspaces are deliberately included
    where we allocate them ourselves, so the peak reflects what the
    pipeline actually holds.
    """

    def __init__(self):
        self.current = 0
        self.peak = 0

    def alloc(self, entries: int) -> int:
        self.current += int(entries)
        if self.current > self.peak:
            self.peak = self.current
        return int(entries)

    def free(self, entries: int) -> None:
        self.current -= int(entries)

    @contextmanager
    def hold(self, entries: int):
        self.alloc(entries)
        try:
            yield
        finally:
            self.free(entries)


@dataclass(frozen=True)
class TrainingSets:
    """Parameter samples for POD, greedy enrichment and error evaluation."""

    pod_set: np.ndarray
    greedy_set: np.ndarray
    eval_set: np.ndarray


def make_training_sets(n_pod: int, n_train: int, eval_size: int = 0,
                       seed: int = 0) -> TrainingSets:
    """Uniform POD grid, half-step-offset greedy grid, random eval set."""
    if n_pod < 1 or n_train < 1:
        raise ConfigError("training set sizes must be >= 1")
    pod_set = np.linspace(0.0, 1.0, n_pod)
    greedy_set = (np.arange(n_train) + 0.5) / n_train
    rng = np.random.default_rng(seed)
    eval_set = np.sort(rng.uniform(0.0, 1.0, size=eval_size))
    return TrainingSets(pod_set=pod_set, greedy_set=greedy_set,
                        eval_set=eval_set)


@dataclass(frozen=True)
class ReducedBasis:
    """Column-orthonormal cotree-space basis with per-column provenance."""

    Z: np.ndarray
    provenance: tuple
    gauge_mode: str
    flags: tuple = ()

    @property
    def n_red(self) -> int:
        return self.Z.shape[1]

    def extended(self, column: np.ndarray, record: dict) -> "ReducedBasis":
        Z = np.column_stack([self.Z, column])
        return replace(self, Z=Z, provenance=self.provenance + (record,))


@dataclass(frozen=True)
class ReducedSystem:
    A_tilde: np.ndarray
    B_tilde: np.ndarray


def _gaps(values: np.ndarray, K: int) -> np.ndarray:
    """Distance to the nearest neighboring reduced eigenvalue, floored.

    Neighbors are taken among the first min(K+1, available) values; the
    floor prevents blow-up at (near-)degeneracies.
    """
    m = min(K + 1, values.size)
    vals = values[:m]
    k_eff = min(K, values.size)
    floor = _GAP_FLOOR_FRACTION * abs(values[k_eff - 1])
    out = np.empty(k_eff)
    for i in range(k_eff):
        diffs = np.abs(np.delete(vals, i) - vals[i])
        gap = diffs.min() if diffs.size else floor
        out[i] = max(gap, floor)
    return out


# ---------------------------------------------------------------------------
# evaluation backends


class _Evaluator:
    """Shared state and the public per-parameter routines.

    Subclasses provide set_basis, snapshot, and three hooks on the per-t
    data: _at(t), a context manager that yields it and holds its entries
    on the meter only while the block is open; _reduce, the reduced
    pencil; and _residual_norms.  reduced_system, solve and estimate each
    open one scope, so nothing of a parameter outlives the call that
    visits it.
    """

    def __init__(self, psys: ParametrizedSystem, gauge: GaugeDecomposition,
                 policy: SolverPolicy, K: int, meter: StorageMeter):
        self.psys = psys
        self.gauge = gauge
        self.policy = policy
        self.K = K
        self.meter = meter
        self._Z = None

    def reduced_system(self, t: float) -> ReducedSystem:
        with self._at(t) as data:
            return self._reduce(data)

    def solve(self, t: float):
        """Reduced pencil at t and its eigenpairs, as (ReducedSystem,
        EigenSolution)."""
        red = self.reduced_system(t)
        return red, solve_dense_gevp(red.A_tilde, red.B_tilde)

    def estimate(self, t: float):
        """Reduced eigenpairs at t and eta = ||r||^2 / (lambda_tilde * gap)
        of the first K modes; a mode the reduced pencil lacks (n_red < K)
        is not approximated at all and gets eta = inf."""
        with self._at(t) as data:
            red = self._reduce(data)
            sol = solve_dense_gevp(red.A_tilde, red.B_tilde)
            norms = self._residual_norms(data, sol.values, sol.vectors)
        k_eff = norms.size
        eta = np.full(self.K, np.inf)
        eta[:k_eff] = norms**2 / (sol.values[:k_eff] * _gaps(sol.values, self.K))
        return sol, eta


class _MixedEvaluator(_Evaluator):
    """Lifted reduced-matrix evaluation: never a dense cotree pencil.

    The per-t data is (pair, U, Z_full) with U = H(t)^T Z and
    Z_full = B(t)^{-1} U.
    """

    gauge_mode = "mixed"

    def __init__(self, psys: ParametrizedSystem, gauge: GaugeDecomposition,
                 policy: SolverPolicy, K: int, meter: StorageMeter):
        super().__init__(psys, gauge, policy, K, meter)
        # H(t) = rows C of A(t) inherits the endpoint interpolation.
        self._H0t = cotree_operator(psys.endpoint0, gauge).T.tocsr()
        self._H1t = cotree_operator(psys.endpoint1, gauge).T.tocsr()
        self._P0 = None
        self._P1 = None

    def set_basis(self, Z: np.ndarray) -> None:
        self._Z = Z
        # The lifted blocks H0^T Z and H1^T Z are t-independent; caching
        # them turns the per-t projection into a dense axpy.
        self._P0 = self._H0t @ Z
        self._P1 = self._H1t @ Z

    @contextmanager
    def _at(self, t: float):
        pair = self.psys.interpolate(t)
        U = (1.0 - t) * self._P0 + t * self._P1
        Z_full = pcg_solve(pair.B, U)
        with self.meter.hold(U.size + Z_full.size):
            yield pair, U, Z_full

    def _reduce(self, data) -> ReducedSystem:
        pair, U, Z_full = data
        A_tilde = Z_full.T @ (pair.A @ Z_full)
        B_tilde = Z_full.T @ U
        return ReducedSystem(
            A_tilde=0.5 * (A_tilde + A_tilde.T),
            B_tilde=0.5 * (B_tilde + B_tilde.T),
        )

    def _residual_norms(self, data, values, vectors) -> np.ndarray:
        pair, U, Z_full = data
        k_eff = min(self.K, values.size)
        V = vectors[:, :k_eff]
        lifted = Z_full @ V
        R = pair.A @ lifted - (U @ V) * values[None, :k_eff]
        return np.linalg.norm(R, axis=0)

    def snapshot(self, t: float) -> np.ndarray:
        """Sparse high-fidelity solve followed by tree-path condensation;
        the K modes at t as unit columns in cotree coordinates."""
        pair = self.psys.interpolate(t)
        sol = solve_sparse_gevp(pair.A, pair.B, self.K, self.policy,
                                salt=_salt_from_t(t))
        with self.meter.hold(sol.vectors.size):
            projector = CotreeProjector(pair, self.gauge)
            try:
                Y, _ = projector.project(sol.vectors)
            except ProjectionError as exc:
                raise ProjectionError(
                    "snapshot condensation failed at t=%r: %s" % (t, exc)
                ) from exc
        return Y / np.linalg.norm(Y, axis=0)[None, :]


class _ClassicalEvaluator(_Evaluator):
    """Dense cotree pencil per parameter value; the memory-bound baseline.

    The per-t data is the CotreeSystem (A_hat, B_hat).
    """

    gauge_mode = "classical"

    def __init__(self, psys: ParametrizedSystem, gauge: GaugeDecomposition,
                 policy: SolverPolicy, K: int, meter: StorageMeter):
        super().__init__(psys, gauge, policy, K, meter)
        self.n_cotree = gauge.cotree.size

    def set_basis(self, Z: np.ndarray) -> None:
        self._Z = Z

    @contextmanager
    def _at(self, t: float):
        pair = self.psys.interpolate(t)
        # The dense mass factor is N x N, the solve buffer W = B^{-1} H^T
        # N x |C|.
        n = self.psys.n
        with self.meter.hold(n * (n + self.n_cotree)):
            cs = build_cotree_system(pair, self.gauge)
        with self.meter.hold(cs.A_hat.size + cs.B_hat.size):
            yield cs

    def _reduce(self, cs) -> ReducedSystem:
        Z = self._Z
        A_tilde = Z.T @ (cs.A_hat @ Z)
        B_tilde = Z.T @ (cs.B_hat @ Z)
        return ReducedSystem(
            A_tilde=0.5 * (A_tilde + A_tilde.T),
            B_tilde=0.5 * (B_tilde + B_tilde.T),
        )

    def _residual_norms(self, cs, values, vectors) -> np.ndarray:
        k_eff = min(self.K, values.size)
        V = self._Z @ vectors[:, :k_eff]
        R = cs.A_hat @ V - (cs.B_hat @ V) * values[None, :k_eff]
        return np.linalg.norm(R, axis=0)

    def snapshot(self, t: float) -> np.ndarray:
        with self._at(t) as cs:
            sol = solve_dense_gevp(cs.A_hat, cs.B_hat, count=self.K)
        if sol.values.size < self.K:
            raise NumericsError(
                "gauged pencil at t=%r has only %d modes, need %d"
                % (t, sol.values.size, self.K)
            )
        if sol.values[0] <= self.policy.lambda_cut:
            raise NumericsError(
                "gauged pencil produced an eigenvalue %.3e below the spectral "
                "cutoff at t=%r" % (sol.values[0], t)
            )
        return sol.vectors / np.linalg.norm(sol.vectors, axis=0)[None, :]


def _make_evaluator(gauge_mode, psys, gauge, policy, K, meter=None):
    """The only constructor of evaluators; meter defaults to a private one."""
    meter = meter if meter is not None else StorageMeter()
    if gauge_mode == "mixed":
        return _MixedEvaluator(psys, gauge, policy, K, meter)
    if gauge_mode == "classical":
        return _ClassicalEvaluator(psys, gauge, policy, K, meter)
    raise ConfigError("unknown gauge_mode %r" % gauge_mode)


# ---------------------------------------------------------------------------
# pipeline stages


def collect_snapshots(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                      pod_set, K: int, policy: SolverPolicy,
                      gauge_mode: str = "mixed",
                      meter: StorageMeter | None = None) -> np.ndarray:
    """Solve K physical modes at each POD parameter and stack the condensed,
    unit-normalized columns, K per parameter in pod_set order.  Duplicate
    parameters yield duplicate columns."""
    if K < 1:
        raise ConfigError("snapshot mode count must be >= 1")
    ev = _make_evaluator(gauge_mode, psys, gauge, policy, K, meter)
    Y = np.hstack([ev.snapshot(float(t))
                   for t in np.asarray(pod_set, dtype=float)])
    ev.meter.alloc(Y.size)
    return Y


def pod_init(Y: np.ndarray, n_init,
             gauge_mode: str = "mixed") -> ReducedBasis:
    """Orthonormal basis from the dominant left singular vectors of the
    snapshot matrix Y.

    n_init="auto" keeps every direction above the numerical rank guard;
    highly structured morphs (for instance brick-to-brick stretches on a
    tensor grid) can have snapshot rank far below the column count, and
    auto sizes the start basis to what the data supports.
    """
    U, s, _ = np.linalg.svd(Y, full_matrices=False)
    if n_init == "auto":
        if s.size == 0 or s[0] == 0.0:
            raise NumericsError("snapshot matrix is zero; no basis to extract")
        n_init = int(np.count_nonzero(s >= _POD_RANK_GUARD * s[0]))
    if n_init < 1 or n_init > Y.shape[1]:
        raise ConfigError(
            "N_init=%d outside the valid range 1..%d" % (n_init, Y.shape[1])
        )
    if s[0] == 0.0 or s[n_init - 1] / s[0] < _POD_RANK_GUARD:
        raise NumericsError(
            "snapshot matrix has numerical rank below N_init=%d "
            "(singular value ratio %.3e); lower N_init or use \"auto\""
            % (n_init, s[n_init - 1] / s[0] if s[0] else 0.0)
        )
    provenance = tuple(
        {"origin": "POD", "index": k, "sigma": float(s[k])} for k in range(n_init)
    )
    return ReducedBasis(Z=U[:, :n_init].copy(), provenance=provenance,
                        gauge_mode=gauge_mode)


# ---------------------------------------------------------------------------
# greedy loop


def _mgs_orthogonalize(Z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt against the columns of Z, one extra pass."""
    v = v.copy()
    for _ in range(2):
        for j in range(Z.shape[1]):
            v -= (Z[:, j] @ v) * Z[:, j]
    return v


def greedy_enrich(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                  basis: ReducedBasis, greedy_set, K: int, tol: float,
                  n_max: int, policy: SolverPolicy,
                  meter: StorageMeter | None = None):
    """Grow the basis toward the largest estimated error until tol or n_max.

    Each sweep fills a table of eta over the (t, mode) candidates of
    greedy_set and walks it once in descending order, ties toward smaller
    t, then smaller mode index.  The first candidate whose snapshot
    column leaves span(Z) is appended; one that does not is dead for the
    rest of the build, and a walk that runs out of live candidates flags
    "candidates-exhausted" and ends the loop.

    Returns (basis, log) where log rows record iteration, selected (t*,
    mode*), the sweep maximum of the estimator, and the basis size.
    """
    if tol <= 0:
        raise ConfigError("greedy tolerance must be positive")
    greedy_set = np.asarray(greedy_set, dtype=float)
    ev = _make_evaluator(basis.gauge_mode, psys, gauge, policy, K, meter)

    log = []
    dead = np.zeros((greedy_set.size, K), dtype=bool)
    while True:
        ev.set_basis(basis.Z)
        etas = np.empty((greedy_set.size, K))
        for it, t in enumerate(greedy_set):
            etas[it] = ev.estimate(float(t))[1]
        live = np.where(dead, -np.inf, etas)
        max_eta = float(live.max())
        if max_eta <= tol or basis.n_red >= n_max:
            log.append({
                "iteration": len(log), "t": None, "mode": None,
                "max_eta": float(etas.max()), "n_red": basis.n_red,
            })
            return basis, log

        # a stable sort keeps row-major order among ties
        order = np.argsort(-live, axis=None, kind="stable")
        for flat in order[:np.count_nonzero(live > -np.inf)]:
            it_star, i_star = divmod(int(flat), K)
            t_star = float(greedy_set[it_star])
            w = _mgs_orthogonalize(basis.Z, ev.snapshot(t_star)[:, i_star])
            norm = np.linalg.norm(w)
            if norm < _EXHAUSTION_NORM:
                dead[it_star, i_star] = True
                continue
            break
        else:
            flags = basis.flags + ("candidates-exhausted",)
            return replace(basis, flags=flags), log
        basis = basis.extended(
            w / norm,
            {"origin": "greedy", "t": t_star, "mode": int(i_star),
             "eta": float(live[it_star, i_star])},
        )
        ev.meter.alloc(w.size)
        log.append({
            "iteration": len(log), "t": t_star, "mode": int(i_star),
            "max_eta": max_eta, "n_red": basis.n_red,
        })


@dataclass
class BasisBuildResult:
    basis: ReducedBasis
    log: list
    phase_seconds: dict
    peak_dense_entries: int


def build_basis(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                training: TrainingSets, K: int, n_init, tol: float,
                n_max: int, policy: SolverPolicy,
                gauge_mode: str = "mixed") -> BasisBuildResult:
    """Full pipeline: snapshots, POD, greedy; phase times and peak storage.

    n_init is a column count or "auto" (rank-adaptive start basis).
    """
    if n_init != "auto" and n_init > n_max:
        raise ConfigError("N_init=%d exceeds N_max=%d" % (n_init, n_max))
    meter = StorageMeter()
    phases = {}

    t0 = time.perf_counter()
    snaps = collect_snapshots(psys, gauge, training.pod_set, K, policy,
                              gauge_mode=gauge_mode, meter=meter)
    phases["projection"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    basis = pod_init(snaps, n_init, gauge_mode=gauge_mode)
    if basis.n_red > n_max:
        raise ConfigError(
            "POD produced %d columns but N_max=%d" % (basis.n_red, n_max)
        )
    phases["pod"] = time.perf_counter() - t0
    meter.alloc(basis.Z.size)

    t0 = time.perf_counter()
    meter.free(snaps.size)   # snapshots are not needed past the SVD
    del snaps
    basis, log = greedy_enrich(psys, gauge, basis, training.greedy_set, K,
                               tol, n_max, policy, meter=meter)
    phases["greedy"] = time.perf_counter() - t0

    return BasisBuildResult(basis=basis, log=log, phase_seconds=phases,
                            peak_dense_entries=meter.peak)


def classical_pipeline(psys, gauge, training, K, n_init, tol, n_max,
                       policy) -> BasisBuildResult:
    """Comparison baseline: the same pipeline through the dense cotree pencil."""
    return build_basis(psys, gauge, training, K, n_init, tol, n_max, policy,
                       gauge_mode="classical")
