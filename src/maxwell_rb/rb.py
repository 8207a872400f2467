"""Reduced-basis construction: POD initialization plus greedy enrichment.

Two interchangeable evaluation backends drive the same greedy loop.

Mixed gauge: snapshots come from the sparse ungauged eigenproblem and
are condensed to cotree coordinates in closed form along the spanning
tree (one triangular solve per snapshot, see gauge.CotreeProjector);
reduced matrices are evaluated through the lifted form
Z_full = B(t)^{-1} H(t)^T Z, so neither a dense |C| x |C| matrix nor a
factorization of an N x N matrix ever exists.  A(t), B(t) and
H(t)^T Z interpolate linearly between the endpoints, which splits the
evaluation into an offline and an online part (the affine
reduced-basis recipe of Prud'homme et al., J. Fluids Eng. 124, 2002).
Offline, the basis is lifted exactly at a few lift points, each a
Jacobi-preconditioned conjugate-gradient solve with B(t), and every
product with the span Q of those lifts is kept as two endpoint blocks.
Online, Z_full(t) is the B(t)-Galerkin lift in span(Q): an m x m
solve, m the dimension of the span, certified by its lifting residual
B(t) Q c - H(t)^T Z.  That residual is affine in its blocks B_e Q and
H_e^T Z, so offline the space also keeps an orthonormal basis of their
span (with A_e Q, for the estimator) and each block's coordinates in
it; online both residual norms are read off those coordinates, in the
stable form of Buhr, Engwer, Ohlberger & Rave (2014) and Casenave, Ern
& Lelievre (ESAIM: M2AN 48, 2014), so a certified evaluation works on
arrays of at most 2n + 4m rows (n basis columns) instead of N.  The
Gram form of the same norms cannot resolve the certificate: its
cancellation floor is about sqrt(eps) relative.  A parameter whose
residual fails the certificate becomes a lift point itself, so the span
grows only where the morph needs it: the default brick stretch
saturates at the two endpoint lifts.  The
offline state is one immutable _LiftedSpace per basis.  greedy_enrich
attaches the lifted space of its last sweep to the basis it returns
(ReducedBasis.lifted); an evaluator built with that basis adopts it for
the same psys, gauge and Z objects, so reduced tracking right after a
build makes no mass solve unless a parameter fails the certificate.

Classical gauge: the dense cotree pencil A_hat = W^T (A W),
B_hat = H W with W = B(t)^{-1} H(t)^T, on dense LAPACK throughout.
One dense eigendecomposition of the endpoint mass pencil per evaluator
(gauge.CotreeFamily, built with the evaluator) diagonalizes B(t) at
every t, so no parameter value is factored.  Only a snapshot or a mode
solve forms the whole |C| x |C| pencil, because its dense eigensolve
needs it, and asks that eigensolver for its K modes only.
Every other evaluation reduces on the basis: it forms W Z from the
basis held in the family's eigenbasis and keeps only the pencil's
action on Z, (A_hat Z, B_hat Z), so it holds N x n and |C| x n arrays
(gauge.reduce_cotree_system).  The family's N x N eigenbasis and a
snapshot's pencil are exactly what does not fit in memory at scale;
this path exists as the comparison baseline and is expected slower and
hungrier.  The family is built afresh by every evaluator, never cached
across evaluators.

Every evaluator is built by _make_evaluator and answers two shared
questions: ``solve`` gives the reduced pencil at t and its eigenpairs,
and ``estimate`` adds the gap-aware error estimator eta = ||r||^2 /
(lambda_tilde * gap) of the first K modes (inf for a mode that a basis
of fewer than K columns lacks).  The greedy loop,
reduced tracking, the bench error studies and the tests all go through
these two routines.  Each call evaluates its parameter afresh and keeps
nothing of it once it returns, apart from a lift point the mixed
evaluator may add to its own copy of the lifted space, never to a space
a basis already carries.  ``modes(t)``, which the CLI ``solve`` prints,
is each gauge's one definition of the K physical modes at t: the pair
and an EigenSolution in full edge space with residual norms.
``snapshot(t)`` gives the same modes as |C| x K unit columns without
a lift.  build_basis makes one evaluator and hands it to
collect_snapshots and then to greedy_enrich, so for the classical gauge
one family serves the whole build.

collect_snapshots visits the POD set in nested levels, coarse to fine:
the two endpoints, then the index-midpoint of every remaining gap.
After each complete level past the first it checks whether the level
added rank, and stops once a whole level lies in the span of the
earlier ones to _SATURATION_TOL (POD-greedy snapshot selection,
Haasdonk & Ohlberger, ESAIM: M2AN 42, 2008), so N_POD is a cap, not a
count.  The risk is a morph whose coarse levels coincide while finer
parameters differ: the check then stops before it sees them.  Greedy
enrichment over the training set is the backstop for anything the
early stop misses.

greedy_enrich is a weak greedy over one table of (t, mode) candidates
(Hesthaven, Rozza & Stamm, Certified Reduced Basis Methods, 2016).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import ParametrizedSystem
from .eigen import (_LIFT_RTOL, _PCG_RTOL, EigenSolution, SolverPolicy,
                    _cholesky, _cholesky_solve, _residuals, pcg_solve,
                    solve_dense_gevp, solve_sparse_gevp)
from .errors import (ConfigError, FactorizationError, NumericsError,
                     ProjectionError)
from .gauge import (CotreeFamily, CotreeProjector, GaugeDecomposition,
                    build_cotree_system, cotree_transpose_product,
                    reduce_cotree_system)

_EXHAUSTION_NORM = 1e-10
_POD_RANK_GUARD = 1e-13
# A POD level adds no rank when every new unit column leaves a remainder
# at most this large against the earlier columns.  It sits above the
# classical gauge's dense-pencil roundoff (about 3e-13 at 6^3), which the
# rank guard keeps as columns.
_SATURATION_TOL = 1e-12
_GAP_FLOOR_FRACTION = 1e-8
# A lifted space's residual frame keeps each direction in which some unit
# block column reaches beyond the earlier directions by more than this:
# a few roundoffs, so the frame misses no part of a residual that the
# lifting check (_LIFT_RTOL = 1e-12) could see.
_FRAME_RTOL = 1e-15


def _blend(pair, t: float):
    """(1 - t) pair[0] + t pair[1]: endpoint data interpolated to t."""
    return (1.0 - t) * pair[0] + t * pair[1]


def _blend_times(pair, t: float, X: np.ndarray) -> np.ndarray:
    """_blend(pair, t) @ X, without forming the blend."""
    return pair[0] @ ((1.0 - t) * X) + pair[1] @ (t * X)


def _salt_from_t(t: float) -> int:
    """Injective, deterministic salt for per-parameter start vectors;
    -0.0 is taken as +0.0 (t + 0.0), every other t keeps its bits."""
    return int(np.abs(np.float64(t + 0.0).view(np.int64)))


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
    # The lifted space of Z that the mixed greedy sweep returning this
    # basis ended with, lift points included; None for any other basis.
    lifted: "_LiftedSpace | None" = field(default=None, compare=False,
                                          repr=False)

    @property
    def n_red(self) -> int:
        return self.Z.shape[1]

    def extended(self, column: np.ndarray, record: dict) -> "ReducedBasis":
        Z = np.column_stack([self.Z, column])
        return replace(self, Z=Z, provenance=self.provenance + (record,),
                       lifted=None)


@dataclass(frozen=True)
class ReducedSystem:
    A_tilde: np.ndarray
    B_tilde: np.ndarray


def _gaps(values: np.ndarray, K: int) -> np.ndarray:
    """Distance to the nearest neighboring reduced eigenvalue, floored.

    values is ascending, so a value's nearest neighbor is adjacent.
    Neighbors are taken among the first min(K+1, available) values; the
    floor prevents blow-up at (near-)degeneracies.
    """
    m = min(K + 1, values.size)
    k_eff = min(K, values.size)
    floor = _GAP_FLOOR_FRACTION * abs(values[k_eff - 1])
    d = np.diff(values[:m])
    if d.size == 0:
        return np.array([floor])
    nearest = np.minimum(np.append(d[:1], d), np.append(d, d[-1:]))
    return np.maximum(nearest[:k_eff], floor)


# ---------------------------------------------------------------------------
# evaluation backends


class _Evaluator:
    """Shared state and the public per-parameter routines.

    Subclasses provide set_basis, modes, snapshot, and three hooks on the
    per-t data: _at(t), which returns it; _reduce, the pair Z^T A Z,
    Z^T B Z that the base symmetrizes; and _residual_norms of the first
    min(K, n_red) eigenpairs.  reduced_system, solve and estimate each
    evaluate _at once and keep nothing of it; a lift point the mixed
    evaluator adds belongs to its lifted space, ``lifted`` (None if
    classical), not to t.
    """

    lifted = None

    def __init__(self, psys: ParametrizedSystem, gauge: GaugeDecomposition,
                 policy: SolverPolicy, K: int):
        if K < 1:
            raise ConfigError("snapshot mode count must be >= 1")
        self.psys = psys
        self.gauge = gauge
        self.policy = policy
        self.K = K

    def _system(self, data) -> ReducedSystem:
        A_tilde, B_tilde = self._reduce(data)
        return ReducedSystem(A_tilde=0.5 * (A_tilde + A_tilde.T),
                             B_tilde=0.5 * (B_tilde + B_tilde.T))

    def reduced_system(self, t: float) -> ReducedSystem:
        return self._system(self._at(t))

    def solve(self, t: float):
        """Reduced pencil at t and its eigenpairs, as (ReducedSystem,
        EigenSolution)."""
        red = self.reduced_system(t)
        return red, solve_dense_gevp(red.A_tilde, red.B_tilde)

    def estimate(self, t: float):
        """Reduced eigenpairs at t and eta = ||r||^2 / (lambda_tilde * gap)
        of the first K modes; a mode the reduced pencil lacks (n_red < K)
        is not approximated at all and gets eta = inf."""
        data = self._at(t)
        red = self._system(data)
        sol = solve_dense_gevp(red.A_tilde, red.B_tilde)
        k_eff = min(self.K, sol.values.size)
        values = sol.values[:k_eff]
        norms = self._residual_norms(data, values, sol.vectors[:, :k_eff])
        eta = np.full(self.K, np.inf)
        eta[:k_eff] = norms**2 / (values * _gaps(sol.values, self.K))
        return sol, eta


def _project_out(V: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project X in place out of the orthonormal columns of V, twice (a
    block classical Gram-Schmidt with one reorthogonalization); the
    summed coefficients V^T X of the original X."""
    H = np.zeros((V.shape[1], X.shape[1]))
    for _ in range(2):
        C = V.T @ X
        X -= V @ C
        H += C
    return H


def _new_directions(V: np.ndarray, X: np.ndarray, floor: float):
    """Orthonormal directions W outside span(V) that span what X has
    outside it, down to singular values above floor, and the
    coefficients H = V^T X.

    X is projected out of V (_project_out) and is left holding its
    remainder.  The SVD of the remainder computes its small directions
    only to an accuracy relative to its largest singular value, so they
    lean back into span(V); the kept directions are therefore projected
    out of V once more and orthonormalized again.
    """
    H = _project_out(V, X)
    W, s, _ = np.linalg.svd(X, full_matrices=False)
    W = W[:, s > floor]
    W -= V @ (V.T @ W)
    return np.linalg.qr(W)[0], H


def _extend_frame(frame: np.ndarray, X: np.ndarray, parts: int):
    """The orthonormal frame extended to span the columns of X, and the
    coordinates of X in the extended frame, split into parts equal
    column blocks.  X is overwritten.

    New directions count when some unit column of X reaches beyond the
    frame by more than _FRAME_RTOL.
    """
    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0.0] = 1.0
    X /= norms
    W, H = _new_directions(frame, X, _FRAME_RTOL)
    # X now holds the unit columns' remainders outside the old frame
    T = np.vstack([H, W.T @ X]) * norms
    return np.hstack([frame, W]), tuple(np.split(T, parts, axis=1))


def _cotree_products(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                     Z: np.ndarray) -> tuple:
    """The endpoint blocks P_e = H_e^T Z, e = 0, 1."""
    return tuple(cotree_transpose_product(e.A, gauge, Z)
                 for e in (psys.endpoint0, psys.endpoint1))


@dataclass(frozen=True, eq=False)
class _LiftedSpace:
    """The mixed evaluator's offline state for one basis Z.

    Q is an orthonormal N x m basis of the span of the exact lifts of Z
    made so far, ``lifts`` of them.  Every Q-projected quantity is affine
    in t, so the space keeps two endpoint copies of each: the m x m Grams
    Q^T B_e Q and Q^T A_e Q, and Q^T P_e with P_e = H_e^T Z (m x n).

    The lifting residual B(t) Q c - U(t) and the estimator's residual
    A(t) Q c V - U(t) V Lambda combine the affine blocks P_e, B_e Q and
    A_e Q.  ``frame`` is an orthonormal N x k basis of their span, and
    TP, TB and TA hold each block's coordinates in it, so both residual
    norms are norms of k-row arrays.  Each lift extends the frame by the
    directions its new blocks add, orthogonalized against the frame
    alone; a direction counts when some unit block column reaches beyond
    the frame by more than _FRAME_RTOL, so the frame holds every block
    to a few roundoffs of its norm.  The N-row blocks are not kept (a
    lift forms P_e again and the products with its new directions only):
    the space holds N (m + k) entries, k <= min(N, 2n + 4m), where the
    blocks took N (5m + 2n).

    The space is bound to the psys, gauge and Z objects it was lifted
    for (see fits) and never changes: lift(t) returns an extended copy,
    so a space attached to a basis is shared by every query and altered
    by none.
    """

    psys: ParametrizedSystem
    gauge: GaugeDecomposition
    Z: np.ndarray
    Q: np.ndarray
    GB: tuple
    GA: tuple
    QtP: tuple
    frame: np.ndarray
    TP: tuple
    TB: tuple
    TA: tuple
    lifts: int = 0

    @classmethod
    def at_endpoints(cls, psys: ParametrizedSystem, gauge: GaugeDecomposition,
                     Z: np.ndarray) -> "_LiftedSpace":
        """Z lifted exactly at the lift points t = 0 and t = 1."""
        n, n_red = psys.n, Z.shape[1]
        frame, TP = _extend_frame(np.empty((n, 0)),
                                  np.hstack(_cotree_products(psys, gauge, Z)),
                                  2)
        grams = (np.empty((0, 0)),) * 2
        none = (np.empty((frame.shape[1], 0)),) * 2
        space = cls(psys, gauge, Z, np.empty((n, 0)), grams, grams,
                    (np.empty((0, n_red)),) * 2, frame, TP, none, none)
        return space.lift(0.0).lift(1.0)

    def fits(self, psys: ParametrizedSystem, gauge: GaugeDecomposition,
             Z: np.ndarray) -> bool:
        """Whether the space was lifted for exactly these objects."""
        return self.psys is psys and self.gauge is gauge and self.Z is Z

    def lifting_residual(self, t: float, c: np.ndarray):
        """Column norms of the lifting residual B(t) Q c - U(t) and of
        U(t) = H(t)^T Z, read off the frame coordinates."""
        TU = _blend(self.TP, t)
        R = _blend_times(self.TB, t, c) - TU
        return np.linalg.norm(R, axis=0), np.linalg.norm(TU, axis=0)

    def lift(self, t: float) -> "_LiftedSpace":
        """This space extended by an exact lift at t.

        The lift's new directions outside Q are its remainder's singular
        directions above _PCG_RTOL times its largest column norm, since
        anything smaller is below the accuracy the lift was solved to
        (_new_directions, which keeps Q orthonormal).  Only the products
        of A_e and B_e with the new directions W are formed; the new Gram
        rows are Q^T (M W) and W^T (M W), M symmetric, and the same
        products extend the frame.
        """
        P = _cotree_products(self.psys, self.gauge, self.Z)
        X = pcg_solve(self.psys.interpolate(t).B, _blend(P, t))
        scale = np.linalg.norm(X, axis=0).max()
        W, _ = _new_directions(self.Q, X, _PCG_RTOL * scale)
        m, p = self.Q.shape[1], W.shape[1]
        Q = np.hstack([self.Q, W])
        # M W for M = B_0, B_1, A_0, A_1, side by side
        ends = (self.psys.endpoint0, self.psys.endpoint1)
        X = np.empty((self.psys.n, 4 * p))
        for j, M in enumerate([end.B for end in ends]
                              + [end.A for end in ends]):
            X[:, j * p:(j + 1) * p] = M @ W
        QX = Q.T @ X

        def gram(old, j):
            cross, WMW = QX[:m, j * p:(j + 1) * p], QX[m:, j * p:(j + 1) * p]
            return np.block([[old, cross], [cross.T, 0.5 * (WMW + WMW.T)]])

        GB = (gram(self.GB[0], 0), gram(self.GB[1], 1))
        GA = (gram(self.GA[0], 2), gram(self.GA[1], 3))
        QtP = tuple(np.vstack([self.QtP[e], W.T @ P[e]]) for e in (0, 1))
        frame, (B0W, B1W, A0W, A1W) = _extend_frame(self.frame, X, 4)
        rows = frame.shape[1] - self.frame.shape[1]

        def padded(T):
            """Old coordinates, zero on the new frame directions."""
            return np.vstack([T, np.zeros((rows, T.shape[1]))])

        return replace(
            self, Q=Q, GB=GB, GA=GA, QtP=QtP,
            frame=frame, TP=tuple(padded(T) for T in self.TP),
            TB=tuple(np.hstack([padded(T), new])
                     for T, new in zip(self.TB, (B0W, B1W))),
            TA=tuple(np.hstack([padded(T), new])
                     for T, new in zip(self.TA, (A0W, A1W))),
            lifts=self.lifts + 1)


class _MixedEvaluator(_Evaluator):
    """Lifted reduced-matrix evaluation: never a dense cotree pencil.

    The exact lift Z_full(t) = B(t)^{-1} U(t), U(t) = H(t)^T Z, is
    replaced by its B(t)-Galerkin approximation Q c(t), with Q the span
    of the exact lifts held by the evaluator's _LiftedSpace, ``lifted``.

    Offline, set_basis adopts the space a built basis carries when it
    was lifted for this psys, gauge and Z, and otherwise lifts Z exactly
    at t = 0 and t = 1.

    Online, an evaluation at t solves (Q^T B(t) Q) c = Q^T U(t) with an
    m x m Cholesky factor and certifies c by its lifting residual,
    ||B(t) Q c - U(t)|| <= _LIFT_RTOL ||U(t)|| per column.  Both norms
    are read off the space's frame coordinates, ||T_B(t) c - T_P(t)||
    and ||T_P(t)||, and the estimator's residual norms likewise as
    ||T_A(t) c V - T_P(t) V Lambda||, so U(t) is never formed.  If the
    check fails, t becomes a lift point: ``lifted`` is replaced by its
    extension by one exact lift at t and the solve is repeated.  A space
    is never changed in place, so no query extends an adopted one, and
    greedy attaches the one its last sweep ended with.  A certified
    evaluation interpolates no matrix and makes no mass solve;
    ``lift_solves`` counts the exact lifts behind ``lifted``.

    The per-t data is (t, c, Q^T U(t)).
    """

    gauge_mode = "mixed"

    @property
    def lift_solves(self) -> int:
        return self.lifted.lifts

    def set_basis(self, Z: np.ndarray,
                  lifted: _LiftedSpace | None = None) -> None:
        if lifted is None or not lifted.fits(self.psys, self.gauge, Z):
            lifted = _LiftedSpace.at_endpoints(self.psys, self.gauge, Z)
        self.lifted = lifted

    def _galerkin(self, t: float):
        """Coefficients c of the Galerkin lift at t and the blended
        Q^T U(t) they solve for, or None if the lift's residual fails
        the check."""
        space = self.lifted
        try:
            factor = _cholesky(_blend(space.GB, t))
        except FactorizationError as exc:
            raise FactorizationError(
                "lifted mass matrix at t=%r: %s" % (t, exc)
            ) from exc
        QtU = _blend(space.QtP, t)
        c = _cholesky_solve(factor, QtU)
        residual, scale = space.lifting_residual(t, c)
        return (c, QtU) if np.all(residual <= _LIFT_RTOL * scale) else None

    def _at(self, t: float):
        lift = self._galerkin(t)
        if lift is None:
            self.lifted = self.lifted.lift(t)
            lift = self._galerkin(t)
        if lift is None:
            raise NumericsError(
                "lifting residual at t=%r fails its check after an "
                "exact lift there" % t
            )
        return (t, *lift)

    def _reduce(self, data):
        t, c, QtU = data
        return c.T @ (_blend(self.lifted.GA, t) @ c), c.T @ QtU

    def _residual_norms(self, data, values, V) -> np.ndarray:
        t, c, _ = data
        R = (_blend_times(self.lifted.TA, t, c @ V)
             - _blend_times(self.lifted.TP, t, V) * values)
        return np.linalg.norm(R, axis=0)

    def modes(self, t: float):
        """The pair at t and its K modes by the sparse ungauged solve."""
        pair = self.psys.interpolate(t)
        return pair, solve_sparse_gevp(pair.A, pair.B, self.K, self.policy,
                                       salt=_salt_from_t(t))

    def snapshot(self, t: float) -> np.ndarray:
        """modes(t) condensed along the tree; the K modes at t as unit
        columns in cotree coordinates."""
        pair, sol = self.modes(t)
        try:
            Y, _ = CotreeProjector(pair, self.gauge).project(sol.vectors)
        except ProjectionError as exc:
            raise ProjectionError(
                "snapshot condensation failed at t=%r: %s" % (t, exc)
            ) from exc
        return Y / np.linalg.norm(Y, axis=0)[None, :]


class _ClassicalEvaluator(_Evaluator):
    """Dense cotree pencil per snapshot; the memory-bound baseline.

    Built with the evaluator and living as long as it does, the
    evaluator's CotreeFamily of (psys, gauge) serves every kind of
    evaluation.  A snapshot or a mode solve forms the whole pencil
    (A_hat, B_hat); only the mode solve lifts, with the family.
    Every other evaluation works on the basis: set_basis keeps Z and
    its coordinates (X_0 Z, X_1 Z) in the family's eigenbasis, and the
    per-t data is the pencil's action on Z, (A_hat Z, B_hat Z), two
    |C| x n arrays (gauge.reduce_cotree_system).
    """

    gauge_mode = "classical"

    def __init__(self, psys: ParametrizedSystem, gauge: GaugeDecomposition,
                 policy: SolverPolicy, K: int):
        super().__init__(psys, gauge, policy, K)
        self.family = CotreeFamily(psys, gauge)
        self._Z = None
        self._XZ = None

    def set_basis(self, Z: np.ndarray, lifted=None) -> None:
        """Z and its eigenbasis coordinates are the whole offline state;
        lifted is taken for a uniform call and ignored, since a
        classical basis carries none."""
        self._Z = Z
        self._XZ = tuple(X @ Z for X in self.family.X)

    def _at(self, t: float):
        return reduce_cotree_system(self.family, t, self._XZ)

    def _reduce(self, data):
        A_hat_Z, B_hat_Z = data
        return self._Z.T @ A_hat_Z, self._Z.T @ B_hat_Z

    def _residual_norms(self, data, values, V) -> np.ndarray:
        A_hat_Z, B_hat_Z = data
        return np.linalg.norm(A_hat_Z @ V - (B_hat_Z @ V) * values, axis=0)

    def _gauged_modes(self, t: float):
        """The K modes of the gauged pencil at t, B_hat-orthonormal in
        cotree coordinates; NumericsError unless all K lie above the
        spectral cutoff."""
        cs = build_cotree_system(self.family, t)
        sol = solve_dense_gevp(cs.A_hat, cs.B_hat, count=self.K)
        found = np.count_nonzero(sol.values > self.policy.lambda_cut)
        if found < self.K:
            raise NumericsError(
                "gauged pencil at t=%r has %d modes above the spectral "
                "cutoff, need %d" % (t, found, self.K))
        return sol

    def modes(self, t: float):
        """The pair at t and the pencil's K modes lifted by the family,
        v = W v_hat: B(t)-orthonormal, since v_hat is B_hat-orthonormal."""
        sol = self._gauged_modes(t)
        V = self.family.solve(t, tuple(X @ sol.vectors for X in self.family.X))
        pair = self.psys.interpolate(t)
        return pair, EigenSolution(sol.values, V,
                                   _residuals(pair.A, pair.B, sol.values, V))

    def snapshot(self, t: float) -> np.ndarray:
        v_hat = self._gauged_modes(t).vectors
        return v_hat / np.linalg.norm(v_hat, axis=0)[None, :]


def _make_evaluator(gauge_mode, psys, gauge, policy, K, basis=None):
    """The only constructor of evaluators; set to basis if one is given,
    whose lifted space a mixed evaluator adopts when it fits (set_basis).

    A classical evaluator builds its CotreeFamily of (psys, gauge).  One
    evaluator serves a whole basis build, snapshots and greedy alike, so
    a classical build holds one family.
    """
    if gauge_mode == "mixed":
        ev = _MixedEvaluator(psys, gauge, policy, K)
    elif gauge_mode == "classical":
        ev = _ClassicalEvaluator(psys, gauge, policy, K)
    else:
        raise ConfigError("unknown gauge_mode %r" % gauge_mode)
    if basis is not None:
        ev.set_basis(basis.Z, basis.lifted)
    return ev


# ---------------------------------------------------------------------------
# pipeline stages


def _nested_levels(n: int) -> list:
    """The indices 0..n-1 of a POD set, grouped in nested levels.

    Level 0 is the two endpoints.  Each later level holds the floor
    index-midpoint of every gap the earlier levels leave, left to right,
    so each index appears in exactly one level.
    """
    levels = [sorted({0, n - 1})]
    gaps = [(0, n - 1)]
    while True:
        gaps = [(a, b) for a, b in gaps if b - a > 1]
        if not gaps:
            return levels
        mids = [(a + b) // 2 for a, b in gaps]
        levels.append(mids)
        gaps = [gap for (a, b), m in zip(gaps, mids) for gap in ((a, m), (m, b))]


def _adds_no_rank(earlier: np.ndarray, new: np.ndarray) -> bool:
    """Whether every unit column of new lies in the span of earlier.

    The span is the singular directions of earlier at or above the POD
    rank guard; each new column is projected out of it twice and its
    remainder must not exceed _SATURATION_TOL.
    """
    U, s, _ = np.linalg.svd(earlier, full_matrices=False)
    U = U[:, s >= _POD_RANK_GUARD * s[0]]
    R = new.copy()
    _project_out(U, R)
    return bool(np.linalg.norm(R, axis=0).max() <= _SATURATION_TOL)


def collect_snapshots(ev: _Evaluator, pod_set, n_init="auto"):
    """Solve ev.K physical modes at POD parameters until they stop adding
    rank; the condensed, unit-normalized columns, K per solved parameter
    in pod_set order, and the parameters solved.

    The parameters are visited in nested levels (_nested_levels): both
    endpoints, then the midpoints of the gaps, coarse to fine.  After
    each complete level past the first, collection stops if every new
    column lies in the span of the earlier levels' columns to
    _SATURATION_TOL; with an integer n_init it goes on until at least
    n_init columns exist.  pod_set is therefore a cap: when no level
    saturates every parameter is solved and the columns are those of a
    one-by-one stack.  The risk is a morph whose coarse levels coincide
    while finer ones differ; greedy enrichment is the backstop.  A
    repeated parameter is solved again when its level is reached, and a
    level of repeats adds no rank.
    """
    pod_set = np.asarray(pod_set, dtype=float)
    if pod_set.size == 0:
        raise ConfigError("POD parameter set is empty")
    blocks = {}
    for level, indices in enumerate(_nested_levels(pod_set.size)):
        earlier = np.hstack(list(blocks.values())) if level else None
        new = [ev.snapshot(float(pod_set[i])) for i in indices]
        blocks.update(zip(indices, new))
        enough = n_init == "auto" or ev.K * len(blocks) >= n_init
        if level and enough and _adds_no_rank(earlier, np.hstack(new)):
            break
    solved = sorted(blocks)
    return np.hstack([blocks[i] for i in solved]), pod_set[solved]


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


def greedy_enrich(ev: _Evaluator, basis: ReducedBasis, greedy_set,
                  tol: float, n_max: int):
    """Grow the basis toward the largest estimated error until tol or n_max.

    Each sweep fills a table of eta over the (t, mode) candidates of
    greedy_set and walks it once in descending order, ties toward smaller
    t, then smaller mode index.  The first candidate whose snapshot
    column leaves span(Z) is appended; one that does not is dead for the
    rest of the build, and a walk that runs out of live candidates flags
    "candidates-exhausted" and ends the loop.

    Every sweep and snapshot goes through ev, which must evaluate the
    basis's gauge (ConfigError otherwise); in a build it is the one that
    collected the snapshots, so its classical family serves both phases.

    Returns (basis, log) where log rows record iteration, selected (t*,
    mode*), the sweep maximum of the estimator, and the basis size; the
    basis carries ev.lifted, the lifted space of the last sweep.
    """
    if tol <= 0:
        raise ConfigError("greedy tolerance must be positive")
    if basis.gauge_mode != ev.gauge_mode:
        raise ConfigError("a %s basis cannot be grown by a %s evaluator"
                          % (basis.gauge_mode, ev.gauge_mode))
    greedy_set = np.asarray(greedy_set, dtype=float)
    K = ev.K

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
            return replace(basis, lifted=ev.lifted), log

        # a stable sort keeps row-major order among ties
        order = np.argsort(-live, axis=None, kind="stable")
        for flat in order[:np.count_nonzero(live > -np.inf)]:
            it_star, i_star = divmod(int(flat), K)
            t_star = float(greedy_set[it_star])
            w = ev.snapshot(t_star)[:, [i_star]]
            _project_out(basis.Z, w)
            norm = np.linalg.norm(w)
            if norm < _EXHAUSTION_NORM:
                dead[it_star, i_star] = True
                continue
            break
        else:
            flags = basis.flags + ("candidates-exhausted",)
            return replace(basis, flags=flags, lifted=ev.lifted), log
        basis = basis.extended(
            w / norm,
            {"origin": "greedy", "t": t_star, "mode": int(i_star),
             "eta": float(live[it_star, i_star])},
        )
        log.append({
            "iteration": len(log), "t": t_star, "mode": int(i_star),
            "max_eta": max_eta, "n_red": basis.n_red,
        })


@dataclass
class BasisBuildResult:
    basis: ReducedBasis
    log: list
    phase_seconds: dict
    # the POD parameters whose snapshots were solved, in pod_set order
    snapshot_t: tuple


def build_basis(psys: ParametrizedSystem, gauge: GaugeDecomposition,
                training: TrainingSets, K: int, n_init, tol: float,
                n_max: int, policy: SolverPolicy,
                gauge_mode: str = "mixed") -> BasisBuildResult:
    """Full pipeline: snapshots, POD, greedy; phase times.

    n_init is a column count or "auto" (rank-adaptive start basis).  One
    evaluator, built in the projection phase, collects the snapshots and
    drives greedy.
    """
    if n_init != "auto" and n_init > n_max:
        raise ConfigError("N_init=%d exceeds N_max=%d" % (n_init, n_max))
    phases = {}

    t0 = time.perf_counter()
    ev = _make_evaluator(gauge_mode, psys, gauge, policy, K)
    snaps, snapshot_t = collect_snapshots(ev, training.pod_set, n_init)
    phases["projection"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    basis = pod_init(snaps, n_init, gauge_mode=gauge_mode)
    if basis.n_red > n_max:
        raise ConfigError(
            "POD produced %d columns but N_max=%d" % (basis.n_red, n_max)
        )
    phases["pod"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    del snaps   # snapshots are not needed past the SVD
    basis, log = greedy_enrich(ev, basis, training.greedy_set, tol, n_max)
    phases["greedy"] = time.perf_counter() - t0

    return BasisBuildResult(basis=basis, log=log, phase_seconds=phases,
                            snapshot_t=tuple(float(t) for t in snapshot_t))


def classical_pipeline(psys, gauge, training, K, n_init, tol, n_max,
                       policy) -> BasisBuildResult:
    """Comparison baseline: build_basis(..., gauge_mode="classical").

    Kept only because perfbench/workloads.py calls it."""
    return build_basis(psys, gauge, training, K, n_init, tol, n_max, policy,
                       gauge_mode="classical")
