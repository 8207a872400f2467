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
basis held in the family's eigenbasis, and from it the reduced pencil
and the pencil's action A_hat Z only on the eigenvectors the estimator
needs, so it holds N x n and |C| x n arrays per parameter
(_ClassicalEvaluator._reduce_many).  The family's N x N eigenbasis and a
snapshot's pencil are exactly what does not fit in memory at scale;
this path exists as the comparison baseline and is expected slower and
hungrier.  The family is built afresh by every evaluator, never cached
across evaluators.

Every evaluator is built by _make_evaluator and answers two shared
questions on a set of parameters at once: ``solve_many`` gives the
reduced pencil at each t and its eigenpairs, and ``estimate_many`` adds
the gap-aware error estimator eta = ||r||^2 / (lambda_tilde * gap) of
the first K modes (inf for a mode that a basis of fewer than K columns
lacks).  Both hold each reduced pencil to the spectral cutoff: a value
at or below policy.lambda_cut among the first min(K, n_red) is a
spurious (gradient) mode, which the gauges exist to remove, and raises
NumericsError naming its t, as a classical gauged solve with fewer than
K modes above the cutoff does (_check_cutoff, one routine for both).
A pencil is a plain (A, B) pair of arrays.  Each gauge
evaluates the parameters in chunks of at most _BATCH_COLUMNS basis
columns with one kernel: a chunk's products with N-row or frame-row
arrays are one product per endpoint for all its parameters, not one per
parameter.  A single parameter is a sweep over a list of one.  The
mixed kernel lifts at exactly the parameters a one-by-one pass would
lift at (its lift-resume rule, _MixedEvaluator).  The greedy sweep, the snapshot
gate, reduced tracking's initial grid and the bench error studies each
make one sweep.  A sweep keeps nothing of its parameters once it
returns, apart from a lift point the mixed evaluator may add to its own
copy of the lifted space, never to a space a basis already carries.
``modes(t)``, which the CLI ``solve`` prints,
is each gauge's one definition of the K physical modes at t: the pair
and an EigenSolution in full edge space with residual norms.
``snapshot(t)`` gives the same modes as |C| x K unit columns without
a lift.  build_basis makes one evaluator and hands it to
collect_snapshots and then to greedy_enrich, so for the classical gauge
one family serves the whole build.

collect_snapshots visits the POD set in nested levels, coarse to fine:
the two endpoints, then the index-midpoint of every remaining gap, and
solves a level only when the estimator asks for it (POD-greedy snapshot
selection, Haasdonk & Ohlberger, ESAIM: M2AN 42, 2008).  After each
complete level it forms the POD basis of the columns so far and, once
that basis has K columns and meets N_init, estimates eta at the next
level's parameters; if every eta is at most tol, that level and every
later one stay unsolved, and greedy starts from that basis and, in the
mixed gauge, from the lifted space its estimate made.  A level that was
solved and lies in the span of the earlier ones to _SATURATION_TOL also
ends collection.  N_POD is a cap, not a count: the default brick solves
its two endpoints only.  The gate trusts the same uncertified eta that
greedy trusts (no bound backs it yet), and both rules can stop too
early on a morph whose coarse levels coincide while finer parameters
differ.  Greedy enrichment over the training set is the backstop for
anything the early stop misses.

greedy_enrich is a weak greedy over one table of (t, mode) candidates
(Hesthaven, Rozza & Stamm, Certified Reduced Basis Methods, 2016).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import ParametrizedSystem
from .eigen import (_PCG_RTOL, EigenSolution, SolverPolicy, _residuals,
                    pcg_solve, solve_dense_gevp, solve_sparse_gevp,
                    spd_solve_many)
from .errors import (ConfigError, FactorizationError, NumericsError,
                     ProjectionError)
from .gauge import (CotreeFamily, CotreeProjector, GaugeDecomposition,
                    build_cotree_system, cotree_transpose_product)

_EXHAUSTION_NORM = 1e-10
_POD_RANK_GUARD = 1e-13
# A POD level adds no rank when every new unit column leaves a remainder
# at most this large against the earlier columns.  It sits above the
# classical gauge's dense-pencil roundoff (about 3e-13 at 6^3), which the
# rank guard keeps as columns.
_SATURATION_TOL = 1e-12
_GAP_FLOOR_FRACTION = 1e-8
# Relative lifting residual that certifies a Galerkin lift
# (_MixedEvaluator); well above _PCG_RTOL, so an exact lift passes it.
_LIFT_RTOL = 1e-12
# A lifted space's residual frame keeps each direction in which some unit
# block column reaches beyond the earlier directions by more than this:
# a few roundoffs, so the frame misses no part of a residual that the
# lifting check (_LIFT_RTOL = 1e-12) could see.
_FRAME_RTOL = 1e-15
# A batched evaluation takes at most this many basis columns at once,
# summed over its parameters, so a sweep's arrays do not grow with its
# parameter count: a few N x _BATCH_COLUMNS arrays on the classical path.
# Dense products reach full speed from about 100 columns on, and at 6^3 a
# classical sweep then stays below the memory of one snapshot's pencil
# (2.8 MB traced against 7.5 MB; 512 columns took 6.7 MB).
_BATCH_COLUMNS = 128


def _blend(pair, t: float):
    """(1 - t) pair[0] + t pair[1]: endpoint data interpolated to t."""
    return (1.0 - t) * pair[0] + t * pair[1]


def _blend_many(pair, ts: np.ndarray) -> np.ndarray:
    """_blend(pair, t) for every t in ts, stacked with t on the middle
    axis: (rows, len(ts), cols) from endpoint arrays of rows x cols."""
    return (pair[0][:, None, :] * (1.0 - ts)[:, None]
            + pair[1][:, None, :] * ts[:, None])


def _times_many(pair, ts: np.ndarray, X: np.ndarray) -> np.ndarray:
    """_blend(pair, t_j) @ X[:, j, :] for every t_j in ts, stacked like X:
    one product per endpoint, with the blocks of X side by side, each
    scaled by its t_j repeated over its columns."""
    rows, count, cols = X.shape
    flat = X.reshape(rows, count * cols)
    weight = np.repeat(ts, cols)
    out = pair[0] @ flat
    out *= 1.0 - weight
    second = pair[1] @ flat
    second *= weight
    out += second
    return out.reshape(-1, count, cols)


def _inner_many(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X[:, j, :]^T Y[:, j, :] for every j, stacked on the first axis."""
    return np.matmul(X.transpose(1, 2, 0), Y.transpose(1, 0, 2))


def _check_cutoff(what: str, ts, spectra, need: int, cut: float) -> None:
    """NumericsError (exit 3) naming the first t in ts whose spectrum, one
    ascending array per t, has fewer than need values above the spectral
    cutoff cut.  A value at or below it is a spurious (gradient) mode,
    the failure both gauges exist to remove, so a pencil that shows one
    is not tracked or estimated like a physical mode.  Every sweep checks
    the first min(K, n_red) values of each reduced pencil, and the
    classical gauged solve its K modes; ascending, a spectrum passes when
    it holds need values and its first lies above cut."""
    for t, values in zip(ts, spectra):
        if len(values) < need or values[0] <= cut:
            raise NumericsError(
                "%s at t=%r has %d modes above the spectral cutoff, need %d"
                % (what, float(t), np.count_nonzero(values[:need] > cut),
                   need))


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


def _gaps(values: np.ndarray, K: int) -> np.ndarray:
    """Distance to the nearest neighboring reduced eigenvalue, floored.

    values is ascending along its last axis, so a value's nearest
    neighbor is adjacent; each row of a stack of spectra is treated on its
    own.  Neighbors are taken among the first min(K+1, available) values;
    the floor prevents blow-up at (near-)degeneracies.
    """
    size = values.shape[-1]
    m, k_eff = min(K + 1, size), min(K, size)
    floor = _GAP_FLOOR_FRACTION * np.abs(values[..., k_eff - 1:k_eff])
    d = np.diff(values[..., :m], axis=-1)
    if d.shape[-1] == 0:
        return floor
    nearest = np.minimum(np.concatenate([d[..., :1], d], axis=-1),
                         np.concatenate([d, d[..., -1:]], axis=-1))
    return np.maximum(nearest[..., :k_eff], floor)


# ---------------------------------------------------------------------------
# evaluation backends


class _Evaluator:
    """Shared state and the public routines on parameter sets.

    Subclasses provide set_basis, modes, snapshot and two hooks.
    _chunks(ts) evaluates the parameters in order, a chunk at a time,
    and yields (data, A, B) per chunk: the raw pencils Z^T A Z and
    Z^T B Z of its parameters stacked on the first axis, which the base
    symmetrizes and scans for non-finite entries one stack at a time
    (each pencil is an (A, B) pair of views of the symmetrized stacks),
    and whatever _residual_norms(data, values, V) needs for the residual
    norms of the first k_eff = min(K, n_red) eigenpairs of each (values
    stacked len(chunk) x k_eff, V len(chunk) x n_red x k_eff).  A chunk
    holds at most _BATCH_COLUMNS basis columns summed over its
    parameters, so no array of a sweep grows with len(ts).

    solve_many and estimate_many are the only evaluations on
    parameters, so each gauge has one kernel.
    A sweep keeps nothing of its parameters once it returns; a lift
    point the mixed evaluator adds belongs to its lifted space,
    ``lifted`` (None if classical), not to t.
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

    def _solved(self, ts):
        """(data, pencils, solutions) per chunk of the parameters ts, each
        pencil (A, B) with its full eigensolution.

        Each chunk's symmetrized stacks are scanned for non-finite
        entries once, before any of its pencils is solved, so the dense
        solves skip their own scan; a non-finite pencil raises
        FactorizationError naming its t.  A solution with a value at or
        below policy.lambda_cut among its first min(K, n_red) raises
        NumericsError naming its t (_check_cutoff)."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        outside = ts[~((ts >= 0.0) & (ts <= 1.0))]
        if outside.size:
            raise ConfigError("parameter t=%r outside [0, 1]"
                              % float(outside[0]))
        first = 0   # the chunks cover ts in order
        for data, A, B in self._chunks(ts):
            A, B = (0.5 * (X + X.transpose(0, 2, 1)) for X in (A, B))
            if not (np.isfinite(A).all() and np.isfinite(B).all()):
                finite = (np.isfinite(A).all(axis=(1, 2))
                          & np.isfinite(B).all(axis=(1, 2)))
                raise FactorizationError(
                    "reduced pencil at t=%r is not finite"
                    % float(ts[first + int(np.argmin(finite))]))
            count, n_red = A.shape[:2]
            pencils = list(zip(A, B))
            sols = [solve_dense_gevp(*pencil, check_finite=False)
                    for pencil in pencils]
            _check_cutoff("reduced pencil", ts[first:first + count],
                          [sol.values for sol in sols], min(self.K, n_red),
                          self.policy.lambda_cut)
            first += count
            yield data, pencils, sols

    def solve_many(self, ts) -> list:
        """The reduced pencil at each t in ts and its eigenpairs, as a list
        of ((A, B), EigenSolution) in ts order."""
        return [pair for _, pencils, sols in self._solved(ts)
                for pair in zip(pencils, sols)]

    def estimate_many(self, ts) -> list:
        """Reduced eigenpairs at each t in ts and eta = ||r||^2 /
        (lambda_tilde * gap) of the first K modes, as a list of
        (EigenSolution, eta) in ts order.  A mode the reduced pencil
        lacks (n_red < K) is not approximated at all and gets eta = inf.

        The parameters are evaluated in ts order, so a mixed evaluator
        lifts at exactly the parameters a one-by-one pass would lift at
        (_MixedEvaluator._chunks)."""
        out = []
        for data, _, sols in self._solved(ts):
            spectra = np.array([sol.values for sol in sols])
            k_eff = min(self.K, spectra.shape[1])
            values = spectra[:, :k_eff]
            norms = self._residual_norms(
                data, values, np.array([sol.vectors[:, :k_eff]
                                        for sol in sols]))
            etas = np.full((len(sols), self.K), np.inf)
            etas[:, :k_eff] = norms**2 / (values * _gaps(spectra, self.K))
            out.extend(zip(sols, etas))
        return out


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
        return space.lift(0.0, 1.0)

    def fits(self, psys: ParametrizedSystem, gauge: GaugeDecomposition,
             Z: np.ndarray) -> bool:
        """Whether the space was lifted for exactly these objects."""
        return self.psys is psys and self.gauge is gauge and self.Z is Z

    def lifting_residual(self, ts: np.ndarray, C: np.ndarray):
        """Column norms of the lifting residual B(t) Q c - U(t) and of
        U(t) = H(t)^T Z at each t_j in ts, c = C[:, j, :], read off the
        frame coordinates; both len(ts) x n.

        U(t)'s coordinates are blended in (frame row, column, t) order,
        so the products run along ts rather than along the n columns, and
        the squares are summed over the frame rows in place, in the order
        np.linalg.norm(axis=0) sums them: both norms are bitwise those of
        the (frame row, t, column) blocks _blend_many would give."""
        TU = np.multiply.outer(self.TP[0], 1.0 - ts)
        TU += np.multiply.outer(self.TP[1], ts)
        R = _times_many(self.TB, ts, C).transpose(0, 2, 1) - TU
        R *= R
        TU *= TU
        return (np.sqrt(np.add.reduce(R, axis=0)).T,
                np.sqrt(np.add.reduce(TU, axis=0)).T)

    def lift(self, *ts: float) -> "_LiftedSpace":
        """This space extended by an exact lift at each of the parameters
        ts, all in one extension.

        The lifts' new directions outside Q are their remainder's singular
        directions above _PCG_RTOL times their largest column norm, since
        anything smaller is below the accuracy the lifts were solved to
        (_new_directions, which keeps Q orthonormal).  Only the products
        of A_e and B_e with the new directions W are formed; the new Gram
        rows are Q^T (M W) and W^T (M W), M symmetric, and the same
        products extend the frame.
        """
        P = _cotree_products(self.psys, self.gauge, self.Z)
        X = np.hstack([pcg_solve(self.psys.interpolate(t).B, _blend(P, t))
                       for t in ts])
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
            lifts=self.lifts + len(ts))


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
    ||T_A(t) c V - T_P(t) V Lambda||, so U(t) is never formed.  A chunk
    of parameters blends its Grams into one stacked Cholesky solve
    (eigen.spd_solve_many), and every product with the frame coordinates is one
    product per endpoint for the whole chunk.

    Lift-resume rule: the certificates of a chunk are checked together,
    and at the first parameter t that fails, ``lifted`` is replaced by
    its extension by one exact lift at t and evaluation resumes at t;
    the parameters before it keep their evaluation, those after it are
    evaluated again in the extended space.  So a sweep lifts at exactly
    the parameters a one-by-one pass would lift at.  A parameter that
    fails again right after its own lift raises NumericsError.  A space
    is never changed in place, so no query extends an adopted one, and
    greedy attaches the one its last sweep ended with.  A certified
    evaluation interpolates no matrix and makes no mass solve;
    ``lifted.lifts`` counts the exact lifts behind it.

    A chunk's data is (space, ts, C) with C[:, j, :] = c(t_j).
    """

    gauge_mode = "mixed"

    def set_basis(self, Z: np.ndarray,
                  lifted: _LiftedSpace | None = None) -> None:
        if lifted is None or not lifted.fits(self.psys, self.gauge, Z):
            lifted = _LiftedSpace.at_endpoints(self.psys, self.gauge, Z)
        self.lifted = lifted

    @staticmethod
    def _galerkin(space: _LiftedSpace, ts: np.ndarray):
        """Coefficients C[:, j, :] = c(t_j) of the Galerkin lifts in
        space, the blended Q^T U(t_j) they solve for, and whether each
        lift passes its certificate."""
        GB = (space.GB[0] * (1.0 - ts)[:, None, None]
              + space.GB[1] * ts[:, None, None])
        QtU = _blend_many(space.QtP, ts)
        try:
            C = spd_solve_many(GB, QtU)
        except FactorizationError as exc:
            raise FactorizationError("lifted mass solve at t=%r: %s"
                                     % (float(ts[exc.index]), exc)) from exc
        residual, scale = space.lifting_residual(ts, C)
        return C, QtU, np.all(residual <= _LIFT_RTOL * scale, axis=1)

    def _chunks(self, ts):
        step = max(1, _BATCH_COLUMNS // self.lifted.Z.shape[1])
        i, lifted_at = 0, None
        while i < ts.size:
            space = self.lifted
            chunk = ts[i:i + step]
            C, QtU, passed = self._galerkin(space, chunk)
            done = chunk.size if passed.all() else int(np.argmin(passed))
            if done:
                C, QtU, chunk = C[:, :done], QtU[:, :done], chunk[:done]
                yield ((space, chunk, C),
                       _inner_many(C, _times_many(space.GA, chunk, C)),
                       _inner_many(C, QtU))
                i += done
            if i < ts.size and not passed.all():
                if lifted_at == i:
                    raise NumericsError(
                        "lifting residual at t=%r fails its check after an "
                        "exact lift there" % float(ts[i]))
                self.lifted = space.lift(float(ts[i]))
                lifted_at = i

    def _residual_norms(self, data, values, V) -> np.ndarray:
        space, ts, C = data
        CV = np.matmul(C.transpose(1, 0, 2), V).transpose(1, 0, 2)
        VL = (V * values[:, None, :]).transpose(1, 0, 2)
        R = _times_many(space.TA, ts, CV) - _times_many(space.TP, ts, VL)
        return np.linalg.norm(R, axis=0)

    def modes(self, t: float):
        """The pair at t and its K modes by the sparse ungauged solve."""
        pair = self.psys.interpolate(t)
        return pair, solve_sparse_gevp(pair.A, pair.B, self.K, self.policy,
                                       t=t)

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
    its coordinates (X_0 Z, X_1 Z) in the family's eigenbasis, and a
    chunk of parameters is reduced on them together (_reduce_many), so
    no |C| x |C| or N x |C| array is formed.
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

    def _chunks(self, ts):
        step = max(1, _BATCH_COLUMNS // self._Z.shape[1])
        for i in range(0, ts.size, step):
            yield self._reduce_many(ts[i:i + step])

    def _reduce_many(self, ts: np.ndarray):
        """Chunk data (ts, g, B_hat Z) and the raw reduced pencils at ts.

        With X(t) = (1 - t) X_0 + t X_1 and d_t the family's inverse
        scale, W Z = V (d_t * X(t) Z), and the chunk takes one product
        with V for all its W Z, one each with A_0 and A_1 for
        A(t) W Z, and one with V^T for g = d_t * (V^T A(t) W Z).  Then
        B_hat Z = H W Z is the cotree rows of A(t) W Z, the pencil's
        action A_hat Z = X(t)^T g, and Z^T A_hat Z = (X(t) Z)^T g, so
        A_hat Z itself is formed only on the eigenvectors the residual
        needs (_residual_norms).
        """
        family = self.family
        N, n = self._XZ[0].shape
        count = ts.size
        XtZ = _blend_many(self._XZ, ts)
        d = family.inverse_scale(ts)[:, :, None]
        WZ = (family.V @ (XtZ * d).reshape(N, count * n)).reshape(N, count, n)
        AWZ = _times_many((self.psys.endpoint0.A, self.psys.endpoint1.A), ts,
                          WZ)
        del WZ
        g = (family.V.T @ AWZ.reshape(N, count * n)).reshape(N, count, n)
        g *= d
        BZ = AWZ[self.gauge.cotree]
        del AWZ
        B_tilde = (self._Z.T @ BZ.reshape(-1, count * n)).reshape(n, count, n)
        return (ts, g, BZ), _inner_many(XtZ, g), B_tilde.transpose(1, 0, 2)

    def _residual_norms(self, data, values, V) -> np.ndarray:
        ts, g, BZ = data
        gV = np.matmul(g.transpose(1, 0, 2), V).transpose(1, 0, 2)
        AZV = _times_many(tuple(X.T for X in self.family.X), ts, gV)
        BZV = np.matmul(BZ.transpose(1, 0, 2),
                        V * values[:, None, :]).transpose(1, 0, 2)
        return np.linalg.norm(AZV - BZV, axis=0)

    def _gauged_modes(self, t: float):
        """The K modes of the gauged pencil at t, B_hat-orthonormal in
        cotree coordinates; NumericsError unless all K lie above the
        spectral cutoff."""
        A_hat, B_hat = build_cotree_system(self.family, t)
        sol = solve_dense_gevp(A_hat, B_hat, count=self.K)
        _check_cutoff("gauged pencil", [t], [sol.values], self.K,
                      self.policy.lambda_cut)
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


def collect_snapshots(ev: _Evaluator, pod_set, n_init, tol: float):
    """Solve ev.K physical modes at POD parameters until the estimator or
    the rank says the next level adds nothing.

    Returns (Y, solved_t, basis): the condensed, unit-normalized columns,
    K per solved parameter in pod_set order, the parameters solved, and
    the POD basis that ended collection through the estimator (None when
    collection ended otherwise).

    The parameters are visited in nested levels (_nested_levels): both
    endpoints, then the midpoints of the gaps, coarse to fine.  After
    each complete level there are two stop rules.  First, saturation:
    past the first level, collection stops if every new column lies in
    the span of the earlier levels' columns to _SATURATION_TOL.  Second,
    the gate: if the POD basis of the columns so far (pod_init) has at
    least K columns and meets n_init, ev estimates eta at the next
    level's parameters (estimate_many), and if every eta is at most tol
    that level is not solved; the basis is returned, carrying the lifted
    space of that estimate, so greedy starts from it without a new lift
    or SVD.  With an integer n_init neither rule stops collection before
    n_init columns exist.  pod_set is therefore a cap: when neither rule
    fires every parameter is solved and the columns are those of a
    one-by-one stack.  A repeated parameter is solved again when its
    level is reached, and a level of repeats adds no rank.

    Both rules can stop too early on a morph whose coarse levels
    coincide while finer ones differ.  The gate trusts the same
    uncertified eta that greedy trusts, and greedy enrichment over the
    training set is the backstop for anything either rule misses.
    """
    pod_set = np.asarray(pod_set, dtype=float)
    if pod_set.size == 0:
        raise ConfigError("POD parameter set is empty")
    levels = _nested_levels(pod_set.size)
    blocks, basis = {}, None
    for level, indices in enumerate(levels):
        if basis is not None:
            ev.set_basis(basis.Z)
            etas = ev.estimate_many(pod_set[indices])
            if max(eta.max() for _, eta in etas) <= tol:
                basis = replace(basis, lifted=ev.lifted)
                break
            basis = None
        earlier = np.hstack(list(blocks.values())) if level else None
        new = [ev.snapshot(float(pod_set[i])) for i in indices]
        blocks.update(zip(indices, new))
        enough = n_init == "auto" or ev.K * len(blocks) >= n_init
        if level and enough and _adds_no_rank(earlier, np.hstack(new)):
            break
        if enough and level + 1 < len(levels):
            basis = _gate_basis(_stack(blocks), n_init, ev)
    return _stack(blocks), pod_set[sorted(blocks)], basis


def _stack(blocks: dict) -> np.ndarray:
    """The snapshot blocks side by side in pod_set order."""
    return np.hstack([blocks[i] for i in sorted(blocks)])


def _gate_basis(Y: np.ndarray, n_init, ev: _Evaluator):
    """The POD basis of Y, or None if it has fewer than ev.K columns or
    Y's numerical rank falls short of an integer n_init."""
    try:
        basis = pod_init(Y, n_init, gauge_mode=ev.gauge_mode)
    except NumericsError:
        # rank below n_init: not enough for a start basis yet
        return None
    return basis if basis.n_red >= ev.K else None


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
    Each sweep is one estimate_many over greedy_set; the first adopts
    the lifted space the start basis carries (set_basis), so a basis
    from collect_snapshots' gate is not lifted again.

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
        ev.set_basis(basis.Z, basis.lifted)
        etas = np.array([eta for _, eta in ev.estimate_many(greedy_set)])
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
    drives greedy.  The start basis is the one collect_snapshots' gate
    returns, or else the POD basis of all solved snapshots.
    """
    if n_init != "auto" and n_init > n_max:
        raise ConfigError("N_init=%d exceeds N_max=%d" % (n_init, n_max))
    phases = {}

    t0 = time.perf_counter()
    ev = _make_evaluator(gauge_mode, psys, gauge, policy, K)
    snaps, snapshot_t, basis = collect_snapshots(ev, training.pod_set,
                                                 n_init, tol)
    phases["projection"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if basis is None:
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
