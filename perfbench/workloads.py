"""The four benchmark workloads: configuration, set-up, operation and checks.

Every workload morphs the default brick (1, 1.1, 1.2) -> (1, 1.1, 0.6).
The workload seed becomes the config ``seed``, which sets the Lanczos
start vectors and the evaluation set.  Timed code calls only the public
entry points ``bench.setup_problem``, ``rb.build_basis``,
``rb.classical_pipeline``, ``tracking.track_reduced`` and
``tracking.track_full``; the checks use the harness's own dense algebra
plus ``eigen.solve_sparse_gevp`` and ``reference.first_eigenvalue``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from maxwell_rb import bench, eigen, rb, reference, tracking
from maxwell_rb.config import default_config, with_overrides

# Relative tolerances of the output checks.
REDUCED_RTOL = 1e-9      # reduced vs full-order eigenvalues
TRACK_RTOL = 1e-9        # tracked vs full-order eigenvalues at t = 0 and 1
ANALYTIC_RTOL = 0.01     # 12^3 discretization error of the first eigenvalue


class Workload:
    """One closed-loop workload.

    ``setup(cfg)`` returns the state the operation needs (timed as
    set-up), ``references(state)`` computes the check references
    (untimed), ``op(state)`` is the timed operation and
    ``check(state, refs, out)`` returns a list of failed checks.
    """

    name = ""
    overrides: dict = {}

    def config(self, seed: int):
        return with_overrides(default_config(), seed=seed, **self.overrides)

    def setup(self, cfg):
        return {"problem": bench.setup_problem(cfg)}

    def references(self, state):
        return {}

    def op(self, state):
        raise NotImplementedError

    def check(self, state, refs, out):
        raise NotImplementedError


def _build(problem, gauge_mode="mixed"):
    cfg = problem.cfg
    pipeline = rb.build_basis if gauge_mode == "mixed" else rb.classical_pipeline
    return pipeline(problem.psys, problem.gauge, problem.training, cfg.K,
                    cfg.N_init, cfg.tol, cfg.N_max, problem.policy)


def full_eigenvalues(problem, t, count):
    pair = problem.psys.interpolate(t)
    return eigen.solve_sparse_gevp(pair.A, pair.B, count, problem.policy).values


def reduced_eigenvalues(problem, Z, t, count):
    """Eigenvalues of the cotree pencil at t restricted to span(Z).

    With H the cotree rows of A and W = B^{-1} H^T Z, the reduced pencil
    is (W^T A W, W^T H^T Z) for both gauges; it is formed here with
    scipy directly so the check does not share code with the pipeline.
    """
    pair = problem.psys.interpolate(t)
    A = pair.A.tocsc()
    HtZ = np.asarray(A[:, problem.gauge.cotree] @ Z)
    W = spla.splu(pair.B.tocsc()).solve(HtZ)
    A_r = W.T @ (A @ W)
    B_r = W.T @ HtZ
    values = sla.eigh(0.5 * (A_r + A_r.T), 0.5 * (B_r + B_r.T), eigvals_only=True)
    return values[:count]


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def _check_basis(problem, result, refs, errors):
    Z = result.basis.Z
    ortho = float(np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))))
    if ortho > 1e-10:
        errors.append("basis not orthonormal (max |Z^T Z - I| = %.3e)" % ortho)
    for t, ref in refs.items():
        err = _rel(reduced_eigenvalues(problem, Z, t, ref.size), ref)
        if err > REDUCED_RTOL:
            errors.append("reduced eigenvalues at t=%g off by %.3e relative" % (t, err))


class Offline8(Workload):
    name = "offline-8"
    overrides = {"resolution": (8, 8, 8), "N_init": 3}

    def references(self, state):
        problem = state["problem"]
        return {t: full_eigenvalues(problem, t, problem.cfg.K) for t in (0.0, 1.0)}

    def op(self, state):
        return _build(state["problem"])

    def check(self, state, refs, out):
        cfg = state["problem"].cfg
        errors = []
        if out.basis.n_red <= cfg.N_init:
            errors.append("greedy appended nothing (n_red=%d)" % out.basis.n_red)
        final_eta = out.log[-1]["max_eta"]
        if not final_eta <= cfg.tol:
            errors.append("final max_eta %.3e above tol %.1e" % (final_eta, cfg.tol))
        _check_basis(state["problem"], out, refs, errors)
        return errors


class Classical6(Workload):
    name = "classical-6"
    overrides = {"gauge_mode": "classical"}

    def references(self, state):
        problem = state["problem"]
        return {0.5: full_eigenvalues(problem, 0.5, problem.cfg.K)}

    def op(self, state):
        return _build(state["problem"], "classical")

    def check(self, state, refs, out):
        errors = []
        _check_basis(state["problem"], out, refs, errors)
        return errors


def _track_kwargs(cfg):
    return dict(threshold=cfg.threshold, initial_steps=cfg.initial_steps,
                max_depth=cfg.max_depth, matching=cfg.matching,
                buffer=cfg.track_buffer)


class _Tracking(Workload):
    analytic = False

    def references(self, state):
        problem = state["problem"]
        count = problem.cfg.K + problem.cfg.track_buffer
        return {t: full_eigenvalues(problem, t, count) for t in (0.0, 1.0)}

    def check(self, state, refs, out):
        cfg = state["problem"].cfg
        errors = []
        if out.grid[0] != 0.0 or out.grid[-1] != 1.0:
            errors.append("trajectory does not span [0, 1]")
        start = np.sort(out.lambdas[:, 0])
        err = _rel(start, refs[0.0][: cfg.K])
        if err > TRACK_RTOL:
            errors.append("trajectory at t=0 off by %.3e relative" % err)
        # Branches may swap order along the way; the tracked values at t=1
        # must still be distinct full-order eigenvalues there.  Each takes
        # the nearest one not yet taken, so a double eigenvalue can end two
        # branches but a branch followed twice cannot pass.
        end = out.lambdas[:, -1]
        free = list(refs[1.0])
        paired = [free.pop(int(np.argmin(np.abs(np.subtract(free, v))))) for v in end]
        err = _rel(end, paired)
        if err > TRACK_RTOL:
            errors.append("trajectory at t=1 off by %.3e relative" % err)
        if out.correlations.size and out.correlations.min() < cfg.threshold:
            errors.append("accepted correlation %.4f below threshold %.2f"
                          % (out.correlations.min(), cfg.threshold))
        if self.analytic:
            for t, dims in ((0.0, cfg.dims0), (1.0, cfg.dims1)):
                lowest = float(np.min(out.lambdas[:, 0 if t == 0.0 else -1]))
                err = _rel(lowest, reference.first_eigenvalue(dims))
                if err > ANALYTIC_RTOL:
                    errors.append("lowest eigenvalue at t=%g is %.3e off the "
                                  "analytic brick value" % (t, err))
        return errors


class Online10(_Tracking):
    name = "online-10"
    overrides = {"resolution": (10, 10, 10), "N_POD": 2}

    def setup(self, cfg):
        problem = bench.setup_problem(cfg)
        return {"problem": problem, "basis": _build(problem).basis}

    def op(self, state):
        problem = state["problem"]
        return tracking.track_reduced(problem.psys, problem.gauge, state["basis"],
                                      problem.cfg.K, policy=problem.policy,
                                      **_track_kwargs(problem.cfg))


class Full12(_Tracking):
    name = "full-12"
    overrides = {"resolution": (12, 12, 12)}
    analytic = True

    def op(self, state):
        problem = state["problem"]
        return tracking.track_full(problem.psys, problem.cfg.K, problem.policy,
                                   **_track_kwargs(problem.cfg))


WORKLOADS = {w.name: w for w in (Offline8(), Online10(), Full12(), Classical6())}
