"""Eigen- and linear-solver contracts.

Sparse path: shift-invert Lanczos at a shift placed just below the first
physical eigenvalue.  In shift-invert coordinates every eigenvalue above
the shift maps to a positive value and the gradient (zero) cluster maps
to negative values, so requesting the largest algebraic transformed
eigenvalues returns exactly the physical modes nearest the shift and the
nullspace never enters the Krylov window.

Every sparse solve asks for K >= 1 modes; a smaller count raises
EigensolverError.  Its pairs come back ascending, as every solver's
here do (tracking groups each spectrum in that order), and its Lanczos
start vector is seeded by policy.seed and the parameter value t the
pencil belongs to, so equal inputs give equal bits.  Lanczos is asked
for the K wanted pairs plus a fixed pad of two (SolverPolicy.window_pad,
a constant): every further pair costs Lanczos vectors and shift-invert
applications and is thrown away, while with no pad at all the run can
return one copy of a double eigenvalue at the window edge and miss the
other.  ARPACK's tolerance applies to every pair in the window, so a
wide window drives the wanted pairs to roundoff as a side effect and a
tight one delivers them at the requested tolerance only.  The default
tolerance is therefore machine precision, which keeps the
eigen-residuals at roundoff and the roundoff tail of the snapshot
singular values below the POD rank guard.  Every solve that reads its
vectors or values at roundoff keeps it: the snapshots, rb's modes (and
so the CLI's solve, which prints residuals, and bench's reference
eigenvalues, on which acceptance criterion 6's plateau rests) and
bench's evp-full probe.  Full-order tracking alone passes sqrt(eps)
(tracking.track_full, whose docstring derives it): it reads the values,
which come back at roundoff all the same, and the vectors only through
correlations.  A system too small for the window (n < K + 7) is solved
densely instead.  Both paths share one cut: the ascending pairs above
lambda_cut, one count check, the first K of them B-normalized, and
their residual norms.

The solver factors A - sigma B itself, once per call, and hands the
triangular solve to Lanczos as the shift-invert operator (the spectral
transformation of Ericsson & Ruhe, 1980).  The factor's fill sets both
its own cost and that of the roughly sixty solves Lanczos makes with
it at 12^3 (about forty-five at sqrt(eps)), so the ordering matters.  When the policy carries the mesh's
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

Linear solves with an SPD mass matrix come in two forms.  The classical
gauge's cotree pencil needs B(t)^{-1} applied to |C| columns at every
parameter value; because B(t) is affine in t, one dense generalized
eigendecomposition of the endpoint masses (solve_dense_gevp on
(B_1, B_0), LAPACK sygvd) diagonalizes the whole family, and each
parameter's solve is a matrix product (gauge.CotreeFamily).  Nothing
is factored per parameter value, and the eigensolve's Cholesky step
doubles as the SPD check of B_0: it fails on an indefinite or
non-finite matrix.  The mixed path solves with the mass matrix only at
its lift points (the two endpoints, plus any parameter value whose
Galerkin lift fails its residual check, see rb._MixedEvaluator), each
time with only a handful of columns, and uses Jacobi-preconditioned
conjugate gradients instead: the condition number of the diagonally
scaled edge-element mass matrix does not grow with mesh refinement, so
a few dozen iterations reach full accuracy at any resolution.  The
iteration carries its own SPD check: a non-positive diagonal entry or
non-positive curvature p^T B p raises, as does a failure to converge.

The small dense solves run in every online evaluation (an m x m
Cholesky solve of the lifted mass matrix and an n x n eigensolve of the
reduced pencil, both with m, n of order ten), where scipy.linalg's
per-call wrappers (array validation, batching, finiteness scans) cost
more than the LAPACK work itself.  They call LAPACK's routines directly
instead: sygvd for a full generalized spectrum and sygvx, with its
queried workspace, for the leading count pairs, and for the lifted mass
(spd_solve_many) potrf through one np.linalg.cholesky call over the
whole stack of matrices, then potrs per matrix, all with lower storage.
The eigensolves and the potrs solves use the routines, storage and
workspace sizes scipy.linalg.eigh and cho_solve pick, so they are
bitwise theirs; numpy's potrf comes from its own OpenBLAS build and can
differ from scipy.linalg.cho_factor's in the last bits.  One np.isfinite
scan of the inputs replaces the wrappers' finiteness checks, and a
non-finite input, an indefinite mass, a non-zero LAPACK info or a dense
solve for fewer than one pair raises FactorizationError, never an
untyped ValueError or LinAlgError, and never an empty result.  The scan
is per chunk for rb's sweeps (solve_many, estimate_many): the
evaluator scans a chunk's stacked reduced pencils once, names the first
non-finite t, and its dense solves skip their own scan
(check_finite=False).  Every other caller is scanned per call: the
classical gauged solve, gauge.CotreeFamily's endpoint eigensolve,
bench.leading_block_eigenvalues' sub-blocks and the sparse solver's
dense fallback.  The dense solve forms no residual norms: its callers
do not read them, and the sparse solver forms its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrs, dsygvd, dsygvx, dsygvx_lwork

from .config import RunConfig
from .errors import EigensolverError, FactorizationError

_PCG_RTOL = 1e-14
_PCG_MAXITER = 500
_ARPACK_TOL = 0.0       # ARPACK's machine precision
_ARPACK_MAXITER = 500


@dataclass(frozen=True)
class EigenSolution:
    """Sorted generalized eigenpairs; the sparse solver adds per-pair
    residual norms, the dense one leaves them None."""

    values: np.ndarray          # ascending
    vectors: np.ndarray         # columns, B-orthonormal
    residual_norms: np.ndarray | None = None  # ||A v - lambda B v||_2

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
    def from_reference(cls, lambda_hat1: float,
                       shift_fraction: float = RunConfig.shift_fraction,
                       cut_fraction: float = RunConfig.cut_fraction,
                       **kwargs) -> "SolverPolicy":
        """Policy derived from the analytic first eigenvalue of the geometry."""
        return cls(
            sigma=shift_fraction * lambda_hat1,
            lambda_cut=cut_fraction * lambda_hat1,
            **kwargs,
        )


def spd_solve_many(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G[j] X[:, j] = rhs[:, j] for each SPD matrix of the stack G.

    G is (count, m, m) and rhs (m, count, r), stacked like rb's arrays;
    only the lower triangles of G enter the factors.  The factors come
    from one np.linalg.cholesky over the stack and each system is solved
    by LAPACK potrs.  A FactorizationError carries the failing j as its
    ``index``: the first j whose G[j] or rhs[:, j] is not finite, else
    the first whose G[j] is not positive definite.
    """
    if not (np.isfinite(G).all() and np.isfinite(rhs).all()):
        finite = (np.isfinite(G).all(axis=(1, 2))
                  & np.isfinite(rhs).all(axis=(0, 2)))
        raise _stack_error(int(np.argmin(finite)), "is not finite")
    try:
        factors = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        factors = []    # numpy factors a stack matrix by matrix, so
        # the first matrix that fails alone is the one that failed it
        for M in G:
            try:
                factors.append(np.linalg.cholesky(M))
            except np.linalg.LinAlgError:
                raise _stack_error(len(factors),
                                   "is not positive definite") from None
    X = np.empty_like(rhs)
    for j, L in enumerate(factors):
        X[:, j, :], info = dpotrs(L, rhs[:, j, :], 1)    # lower, by position
        if info != 0:
            raise _stack_error(j, "failed its solve (potrs info %d)" % info)
    return X


def _stack_error(j: int, problem: str) -> FactorizationError:
    exc = FactorizationError("system %d of the stack %s" % (j, problem))
    exc.index = j
    return exc


def pcg_solve(B: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve B X = rhs for SPD B and an N x r block rhs by
    Jacobi-preconditioned CG.

    All columns iterate together, each with its own step lengths; a
    column leaves the block once its residual falls below
    _PCG_RTOL times its right-hand side norm.  Zero columns give zero.
    """
    rhs = np.asarray(rhs, dtype=float)
    X = np.zeros_like(rhs)
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
    AV = A @ vectors
    BV = B @ vectors
    return np.linalg.norm(AV - BV * values[None, :], axis=0)


def _b_normalize(B, vectors):
    BV = B @ vectors
    norms = np.sqrt(np.einsum("ij,ij->j", vectors, BV))
    return vectors / norms[None, :]


def _shift_invert(M, ordering):
    """Solve with the shifted pencil M, factored once by SuperLU in
    symmetric mode, with the library's threshold pivoting.

    Without an ordering SuperLU picks its minimum-degree one.  With one,
    p, the factor is of M[p][:, p] taken as it comes, and the solve
    permutes in and out, so the caller sees M^{-1} either way.  A
    non-square M or a failed factorization raises FactorizationError.
    """
    if M.shape[0] != M.shape[1]:
        raise FactorizationError("matrix is not square: %r" % (M.shape,))
    if ordering is not None:
        M = sp.csr_matrix(M)[ordering][:, ordering]
    try:
        lu = spla.splu(sp.csc_matrix(M),
                       permc_spec="MMD_AT_PLUS_A" if ordering is None
                       else "NATURAL",
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise FactorizationError("sparse factorization failed: %s" % exc) from exc
    if ordering is None:
        return lu.solve

    def solve(rhs):
        y = lu.solve(rhs[ordering])
        x = np.empty_like(y)
        x[ordering] = y
        return x

    return solve


def solve_dense_gevp(A_d: np.ndarray, B_d: np.ndarray,
                     count: int | None = None,
                     overwrite: bool = False,
                     check_finite: bool = True) -> EigenSolution:
    """Leading eigenpairs of the dense symmetric pencil (A_d, B_d), B_d SPD.

    count=None returns the full spectrum; otherwise the min(count, n)
    smallest pairs, which LAPACK computes without the rest, and at least
    one: a count < 1 or an empty pencil raises FactorizationError.  Vectors
    come back B_d-orthonormal; no residual norms are formed.  Used for
    reduced and cotree systems, for the classical gauge's endpoint mass
    pencil and as the brute-force oracle in tests.  overwrite lets
    LAPACK work in the storage of A_d and B_d, which then hold no
    meaningful data; for F-ordered float arrays it saves their copies,
    and the full-spectrum vectors come back in A_d's storage.  A
    non-square or non-finite pencil, an indefinite B_d or a failed solve
    raises FactorizationError.  check_finite=False skips the finiteness
    scan for a caller that has scanned the pencil itself (rb's sweeps
    scan each chunk's stacked pencils once); LAPACK's result on a
    non-finite pencil is undefined.
    """
    A_d = np.asarray(A_d, dtype=float)
    B_d = np.asarray(B_d, dtype=float)
    n = A_d.shape[0]
    if A_d.shape != (n, n) or B_d.shape != (n, n):
        raise FactorizationError("dense pencil is not square: %r and %r"
                                 % (A_d.shape, B_d.shape))
    m = n if count is None else min(count, n)
    if m < 1:
        raise FactorizationError(
            "dense eigenpair count must be >= 1, got %d (pencil order %d)"
            % (m, n))
    if check_finite and not (np.isfinite(A_d).all()
                             and np.isfinite(B_d).all()):
        raise FactorizationError("dense pencil is not finite")
    if m == n:
        # itype, jobz and uplo by position: the wrapper parses keywords
        # more slowly than LAPACK solves a reduced pencil
        overwrites = (dict(overwrite_a=True, overwrite_b=True) if overwrite
                      else {})
        values, vectors, info = dsygvd(A_d, B_d, 1, "V", "L", **overwrites)
    else:
        lwork, _ = dsygvx_lwork(n, uplo="L")
        values, vectors, m, _, info = dsygvx(
            A_d, B_d, jobz="V", range="I", uplo="L", il=1, iu=m,
            lwork=int(lwork), overwrite_a=overwrite, overwrite_b=overwrite)
        values, vectors = values[:m], vectors[:, :m]
    if info > n:
        raise FactorizationError("dense mass matrix is not SPD: the leading "
                                 "minor of order %d is not positive" % (info - n))
    if info != 0:
        raise FactorizationError("dense eigensolve failed (info %d)" % info)
    return EigenSolution(values=values, vectors=vectors)


def solve_sparse_gevp(A, B, K: int, policy: SolverPolicy, t: float = 0.0,
                      tol: float = _ARPACK_TOL) -> EigenSolution:
    """K >= 1 smallest physical eigenpairs of the sparse pencil (A, B),
    ascending.

    Only eigenvalues strictly above policy.lambda_cut are returned;
    gradient modes are excluded by construction of the shift-invert
    window.  Lanczos is asked for K + policy.window_pad pairs and stops
    when each Ritz residual of the shift-inverted pencil is at most tol
    times its Ritz value.  tol defaults to machine precision, because
    the tolerance covers the whole window and a tight window needs a
    tight tolerance to return roundoff vectors; tracking.track_full
    passes sqrt(eps), for which its values are still at roundoff (the
    module docstring names the callers of each).  t, the parameter
    value the pencil belongs to, seeds the start vector with
    policy.seed, so sweeps over many parameter values stay reproducible
    yet independent: the seed's salt is t's bit pattern read as an
    integer, with -0.0 taken as 0.0, so t = 0.0 gives salt 0.
    """
    if K < 1:
        raise EigensolverError("mode count must be >= 1, got %d" % K)
    n = A.shape[0]
    if policy.ordering is not None and len(policy.ordering) != n:
        raise EigensolverError(
            "solver ordering covers %d unknowns, the system has %d"
            % (len(policy.ordering), n)
        )

    window = K + policy.window_pad
    if n < window + 5:
        # Krylov window would not fit; the dense path is cheap here.
        sol = solve_dense_gevp(A.toarray() if sp.issparse(A) else A,
                               B.toarray() if sp.issparse(B) else B)
        values, vectors = sol.values, sol.vectors
    else:
        salt = int(np.abs(np.float64(t + 0.0).view(np.int64)))
        rng = np.random.default_rng(np.random.SeedSequence([policy.seed, salt]))
        op_inv = spla.LinearOperator(
            (n, n), matvec=_shift_invert(A - policy.sigma * B, policy.ordering),
            dtype=float)
        try:
            values, vectors = spla.eigsh(
                A, k=window, M=B, sigma=policy.sigma, which="LA",
                OPinv=op_inv, v0=rng.standard_normal(n), tol=tol,
                maxiter=_ARPACK_MAXITER,
            )
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError(
                "sparse eigensolver did not converge within %d iterations: %s"
                % (_ARPACK_MAXITER, exc)
            ) from exc
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]

    keep = values > policy.lambda_cut
    if np.count_nonzero(keep) < K:
        raise EigensolverError(
            "found %d of %d requested eigenpairs above lambda_cut=%.3e, need %d"
            % (np.count_nonzero(keep), window, policy.lambda_cut, K))
    values = values[keep][:K]
    vectors = _b_normalize(B, vectors[:, keep][:, :K])
    res = _residuals(A, B, values, vectors)
    return EigenSolution(values=values, vectors=vectors, residual_norms=res)
