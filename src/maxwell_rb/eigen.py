"""Eigen- and linear-solver contracts.

Sparse path: shift-invert Lanczos at a shift placed just below the first
physical eigenvalue.  In shift-invert coordinates every eigenvalue above
the shift maps to a positive value and the gradient (zero) cluster maps
to negative values, so requesting the largest algebraic transformed
eigenvalues returns exactly the physical modes nearest the shift and the
nullspace never enters the Krylov window.

Lanczos is asked for the K wanted pairs plus a fixed pad of two
(SolverPolicy.window_pad, a constant): every further pair costs Lanczos
vectors and shift-invert applications and is thrown away, while with no
pad at all the run can return one copy of a double eigenvalue at the
window edge and miss the other.  ARPACK's tolerance applies to every
pair in the window, so a wide window drives the wanted pairs to
roundoff as a side effect and a tight one delivers them at the
requested tolerance only.  The tolerance is therefore machine
precision, which keeps the eigen-residuals at roundoff and the roundoff
tail of the snapshot singular values below the POD rank guard.

The solver factors A - sigma B itself, once per call, and hands the
triangular solve to Lanczos as the shift-invert operator (the spectral
transformation of Ericsson & Ruhe, 1980).  The factor's fill sets both
its own cost and that of the roughly sixty solves Lanczos makes with
it, so the ordering matters.  When the policy carries the mesh's
nested-dissection ordering (mesh.dissection_order, separators last),
SuperLU factors A - sigma B permuted into that order: at 12^3 the
factor holds 1.17 M entries against 1.59 M under minimum degree, and
factors and solves faster.  The ordering needs the mesh coordinates; a
purely algebraic dissection by BFS level sets gave 2.8 M entries there,
worse than minimum degree.  A pencil that comes without a mesh keeps
SuperLU's minimum-degree ordering of the pattern of M + M^T, which
gives less fill on these pencils than the library's default column
ordering.  Either way SuperLU runs in symmetric mode.  A - sigma B is
indefinite (the gradient cluster sits below the shift), so threshold
pivoting stays on: without it the eigen-residuals grow by about three
orders of magnitude, and the roundoff tail of the snapshot singular
values rises above the POD rank guard, which adds noise columns to the
reduced basis.

Linear solves with an SPD matrix come in two forms.  Callers with
many right-hand sides per matrix use the same symmetric-mode
factorization, here with diagonal pivots only, which doubles as the
SPD check: any non-positive pivot signals an indefinite matrix.
Callers that meet a new mass matrix at every parameter value with only
a handful of columns use Jacobi-preconditioned conjugate gradients
instead: the condition number of the diagonally scaled edge-element
mass matrix does not grow with mesh refinement, so a few dozen
iterations reach full accuracy at any resolution.  The iteration
carries its own SPD check: a non-positive diagonal entry or
non-positive curvature p^T B p raises, as does a failure to converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigensolverError, FactorizationError

_PCG_RTOL = 1e-14
_PCG_MAXITER = 500
_ARPACK_TOL = 0.0       # ARPACK's machine precision
_ARPACK_MAXITER = 500


@dataclass(frozen=True)
class EigenSolution:
    """Sorted generalized eigenpairs with per-pair residual norms."""

    values: np.ndarray          # ascending
    vectors: np.ndarray         # columns, B-orthonormal
    residual_norms: np.ndarray  # ||A v - lambda B v||_2

    @property
    def count(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SolverPolicy:
    """Shift, spectral cutoff and Krylov window of the sparse eigensolver.

    sigma must lie strictly below the smallest physical eigenvalue of
    every system it is used on; lambda_cut separates gradient modes
    (below) from physical modes (above).  ordering, when given, is the
    fill-reducing permutation of the unknowns the shift-invert factor
    uses, in practice mesh.dissection_order of the systems' mesh; it
    changes the cost of a solve, not its result, and a system of another
    size is rejected.  None leaves the choice to SuperLU's minimum degree.
    """

    sigma: float
    lambda_cut: float
    window_pad: ClassVar[int] = 2   # constant: Ritz pairs requested are K + 2
    seed: int = 0
    ordering: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_reference(cls, lambda_hat1: float, shift_fraction: float = 0.9,
                       cut_fraction: float = 0.1, **kwargs) -> "SolverPolicy":
        """Policy derived from the analytic first eigenvalue of the geometry."""
        return cls(
            sigma=shift_fraction * lambda_hat1,
            lambda_cut=cut_fraction * lambda_hat1,
            **kwargs,
        )


def _symmetric_lu(M, diag_pivot_thresh=None, permc_spec="MMD_AT_PLUS_A"):
    """SuperLU factorization of the square matrix M in symmetric mode.

    diag_pivot_thresh=None keeps the library's threshold pivoting; 0.0
    takes the diagonal pivots only, which is safe for SPD matrices alone.
    permc_spec="NATURAL" factors M in the order it comes in.
    """
    M = sp.csc_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise FactorizationError("matrix is not square: %r" % (M.shape,))
    try:
        return spla.splu(
            M,
            permc_spec=permc_spec,
            diag_pivot_thresh=diag_pivot_thresh,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise FactorizationError("sparse factorization failed: %s" % exc) from exc


class SPDFactor:
    """Sparse factorization of an SPD matrix with a solve contract of
    1e-12 relative residual per right-hand-side column."""

    def __init__(self, B: sp.spmatrix):
        self._lu = _symmetric_lu(B, diag_pivot_thresh=0.0)
        self.n = self._lu.shape[0]
        pivots = self._lu.U.diagonal()
        if not np.all(np.isfinite(pivots)) or np.any(pivots <= 0.0):
            raise FactorizationError(
                "matrix is not positive definite (min pivot %.3e)" % pivots.min()
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve B x = rhs; rhs may carry multiple columns."""
        rhs = np.asarray(rhs, dtype=float)
        return self._lu.solve(rhs)


def pcg_solve(B: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve B x = rhs for SPD B by Jacobi-preconditioned CG.

    All columns iterate together, each with its own step lengths; a
    column leaves the block once its residual falls below
    _PCG_RTOL times its right-hand side norm.  Zero columns give zero.
    """
    rhs = np.asarray(rhs, dtype=float)
    X = np.zeros_like(rhs)
    if rhs.ndim == 1:
        X[:, None] = pcg_solve(B, rhs[:, None])
        return X
    diag = B.diagonal()
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        raise FactorizationError(
            "matrix is not positive definite (min diagonal %.3e)" % diag.min()
        )
    inv_diag = (1.0 / diag)[:, None]
    norms = np.linalg.norm(rhs, axis=0)
    cols = np.flatnonzero(norms > 0.0)
    stop = _PCG_RTOL * norms[cols]
    Xa = np.zeros((rhs.shape[0], cols.size))
    R = rhs[:, cols]
    Zp = inv_diag * R
    P = Zp
    rz = np.einsum("ij,ij->j", R, Zp)
    for _ in range(_PCG_MAXITER):
        if cols.size == 0:
            return X
        Q = B @ P
        curvature = np.einsum("ij,ij->j", P, Q)
        if not np.all(curvature > 0.0):
            raise FactorizationError(
                "matrix is not positive definite (curvature %.3e)" % curvature.min()
            )
        alpha = rz / curvature
        Xa += alpha * P
        R -= alpha * Q
        done = np.linalg.norm(R, axis=0) <= stop
        if done.any():
            X[:, cols[done]] = Xa[:, done]
            keep = ~done
            cols, stop, Xa, R, P, rz = (cols[keep], stop[keep], Xa[:, keep],
                                        R[:, keep], P[:, keep], rz[keep])
        Zp = inv_diag * R
        rz_new = np.einsum("ij,ij->j", R, Zp)
        P = Zp + (rz_new / rz) * P
        rz = rz_new
    if cols.size:
        raise FactorizationError(
            "conjugate gradients did not converge in %d iterations" % _PCG_MAXITER
        )
    return X


def _residuals(A, B, values, vectors):
    if values.size == 0:
        return np.zeros(0)
    AV = A @ vectors
    BV = B @ vectors
    return np.linalg.norm(AV - BV * values[None, :], axis=0)


def _b_normalize(B, vectors):
    BV = B @ vectors
    norms = np.sqrt(np.einsum("ij,ij->j", vectors, BV))
    return vectors / norms[None, :]


def _shift_invert(M, ordering):
    """Solve with the shifted pencil M, factored once.

    Without an ordering SuperLU picks its minimum-degree one.  With one,
    p, the factor is of M[p][:, p] taken as it comes, and the solve
    permutes in and out, so the caller sees M^{-1} either way.
    """
    if ordering is None:
        return _symmetric_lu(M).solve
    lu = _symmetric_lu(sp.csr_matrix(M)[ordering][:, ordering],
                       permc_spec="NATURAL")

    def solve(rhs):
        y = lu.solve(rhs[ordering])
        x = np.empty_like(y)
        x[ordering] = y
        return x

    return solve


def solve_dense_gevp(A_d: np.ndarray, B_d: np.ndarray) -> EigenSolution:
    """Full spectrum of the dense symmetric pencil (A_d, B_d), B_d SPD.

    Vectors come back B_d-orthonormal; used for reduced and cotree
    systems and as the brute-force oracle in tests.
    """
    A_d = np.asarray(A_d, dtype=float)
    B_d = np.asarray(B_d, dtype=float)
    if A_d.shape[0] == 0:
        return EigenSolution(np.zeros(0), np.zeros((0, 0)), np.zeros(0))
    try:
        values, vectors = sla.eigh(A_d, B_d)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise FactorizationError("dense mass matrix is not SPD: %s" % exc) from exc
    res = np.linalg.norm(A_d @ vectors - (B_d @ vectors) * values[None, :], axis=0)
    return EigenSolution(values=values, vectors=vectors, residual_norms=res)


def solve_sparse_gevp(A, B, K: int, policy: SolverPolicy,
                      salt: int = 0) -> EigenSolution:
    """K smallest physical eigenpairs of the sparse pencil (A, B).

    Only eigenvalues strictly above policy.lambda_cut are returned;
    gradient modes are excluded by construction of the shift-invert
    window.  Lanczos is asked for K + policy.window_pad pairs at
    machine-precision tolerance, because the tolerance covers the whole
    window and a tight window needs a tight tolerance.  ``salt`` perturbs
    the deterministic start vector so sweeps over many parameter values
    stay reproducible yet independent.
    """
    if K < 0:
        raise EigensolverError("mode count must be >= 0, got %d" % K)
    n = A.shape[0]
    if policy.ordering is not None and len(policy.ordering) != n:
        raise EigensolverError(
            "solver ordering covers %d unknowns, the system has %d"
            % (len(policy.ordering), n)
        )
    if K == 0:
        return EigenSolution(np.zeros(0), np.zeros((n, 0)), np.zeros(0))

    window = K + policy.window_pad
    if n < window + 5:
        # Krylov window would not fit; the dense path is cheap here.
        sol = solve_dense_gevp(
            A.toarray() if sp.issparse(A) else A,
            B.toarray() if sp.issparse(B) else B,
        )
        keep = sol.values > policy.lambda_cut
        values = sol.values[keep][:K]
        vectors = sol.vectors[:, keep][:, :K]
        if values.size < K:
            raise EigensolverError(
                "only %d eigenvalues above lambda_cut=%.3e in a %d-DoF system"
                % (values.size, policy.lambda_cut, n)
            )
        res = _residuals(A, B, values, vectors)
        return EigenSolution(values=values, vectors=vectors, residual_norms=res)

    rng = np.random.default_rng(np.random.SeedSequence([policy.seed, salt]))
    v0 = rng.standard_normal(n)

    op_inv = spla.LinearOperator(
        (n, n), matvec=_shift_invert(A - policy.sigma * B, policy.ordering),
        dtype=float)
    try:
        values, vectors = spla.eigsh(
            A, k=window, M=B, sigma=policy.sigma, which="LA", OPinv=op_inv,
            v0=v0, tol=_ARPACK_TOL, maxiter=_ARPACK_MAXITER,
        )
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(
            "sparse eigensolver did not converge within %d iterations: %s"
            % (_ARPACK_MAXITER, exc)
        ) from exc

    order = np.argsort(values)
    values = values[order]
    vectors = vectors[:, order]
    keep = values > policy.lambda_cut
    values = values[keep]
    vectors = vectors[:, keep]
    if values.size < K:
        raise EigensolverError(
            "found %d of %d requested eigenpairs above lambda_cut=%.3e, "
            "need %d" % (values.size, window, policy.lambda_cut, K)
        )
    values = values[:K]
    vectors = _b_normalize(B, vectors[:, :K])
    res = _residuals(A, B, values, vectors)
    return EigenSolution(values=values, vectors=vectors, residual_norms=res)
