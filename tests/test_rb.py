"""Reduced-basis pipeline: snapshots, POD, estimator, greedy, storage."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from maxwell_rb import rb
from maxwell_rb.assembly import ParametrizedSystem, assemble, scatter_map
from maxwell_rb.bench import peak_traced_bytes, setup_problem
from maxwell_rb.config import default_config, with_overrides
from maxwell_rb.eigen import pcg_solve, solve_dense_gevp, solve_sparse_gevp
from maxwell_rb.errors import ConfigError, FactorizationError, NumericsError
from maxwell_rb.gauge import (CotreeFamily, CotreeProjector,
                              build_cotree_system)
from maxwell_rb.rb import (ReducedBasis, build_basis,
                           classical_pipeline, collect_snapshots,
                           greedy_enrich, make_training_sets, pod_init,
                           _LIFT_RTOL, _POD_RANK_GUARD, _check_cutoff,
                           _gaps, _make_evaluator)
from maxwell_rb.tracking import track_reduced

from oracles import (reference_cotree_reduction, reference_cotree_system,
                     reference_eigh, reference_gaps,
                     reference_mgs_orthogonalize, reference_ungauged_basis,
                     reference_ungauged_pencil)


def _evaluator(m, Z=None, gauge_mode="mixed"):
    """A K = 5 evaluator of the morph m, set to the basis Z if one is
    given."""
    ev = _make_evaluator(gauge_mode, m["psys"], m["gauge"], m["policy"], 5)
    if Z is not None:
        ev.set_basis(Z)
    return ev


def _snapshots(psys, gauge, policy, pod_set, K=5, gauge_mode="mixed",
               n_init="auto", tol=1e-6):
    """The columns collect_snapshots returns through a fresh evaluator."""
    ev = _make_evaluator(gauge_mode, psys, gauge, policy, K)
    return collect_snapshots(ev, pod_set, n_init, tol)[0]


def _coefficients(ev, t):
    """c(t) of the mixed evaluator's Galerkin lift at t, a batch of one."""
    (_, _, C), _, _ = next(ev._chunks(np.array([t])))
    return C[:, 0, :]


def _lifting_residual(space, t, c):
    """space.lifting_residual at the one parameter t."""
    residual, scale = space.lifting_residual(np.array([t]), c[:, None, :])
    return residual[0], scale[0]


def _explicit_residual(psys, gauge, space, t, c):
    """The oracle: the lifting residual B(t) Q c - U(t) and U(t) as
    N-row arrays."""
    pair = psys.interpolate(t)
    U = pair.A.tocsc()[:, gauge.cotree] @ space.Z
    return pair.B @ (space.Q @ c) - U, U


def _assert_coordinate_residual_matches(psys, gauge, ev, t_values):
    """At each t, the norms read off the frame coordinates are the
    explicit ones, far inside the lifting check."""
    for t in t_values:
        c = _coefficients(ev, t)
        R, U = _explicit_residual(psys, gauge, ev.lifted, t, c)
        residual, scale = _lifting_residual(ev.lifted, t, c)
        U_norms = np.linalg.norm(U, axis=0)
        assert np.allclose(scale, U_norms, rtol=1e-14, atol=0.0), t
        assert np.all(np.abs(residual - np.linalg.norm(R, axis=0))
                      <= 1e-2 * _LIFT_RTOL * U_norms), t


class TestTrainingSets:
    def test_layout(self):
        ts = make_training_sets(5, 8, eval_size=13, seed=42)
        assert ts.pod_set.shape == (5,)
        assert ts.pod_set[0] == 0.0 and ts.pod_set[-1] == 1.0
        assert ts.greedy_set.shape == (8,)
        assert 0.0 < ts.greedy_set.min() and ts.greedy_set.max() < 1.0
        assert ts.eval_set.shape == (13,)
        assert np.all(np.diff(ts.eval_set) >= 0)

    def test_seed_determinism(self):
        a = make_training_sets(4, 6, eval_size=9, seed=3)
        b = make_training_sets(4, 6, eval_size=9, seed=3)
        c = make_training_sets(4, 6, eval_size=9, seed=4)
        assert np.array_equal(a.eval_set, b.eval_set)
        assert not np.array_equal(a.eval_set, c.eval_set)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            make_training_sets(0, 5)
        with pytest.raises(ConfigError):
            make_training_sets(5, 0)


class TestSnapshots:
    def test_layout_and_normalization(self, small_morph):
        # a tolerance no estimate meets keeps the gate shut, so all three
        # parameters are solved
        m = small_morph
        snaps = _snapshots(m["psys"], m["gauge"], m["policy"],
                           [0.0, 0.5, 1.0], tol=1e-300)
        n_cotree = m["gauge"].cotree.size
        assert snaps.shape == (n_cotree, 15)
        assert np.allclose(np.linalg.norm(snaps, axis=0), 1.0, atol=1e-12)

    def test_classical_path_same_values(self, small_morph):
        m = small_morph
        mixed = _snapshots(m["psys"], m["gauge"], m["policy"], [0.3])
        classical = _snapshots(m["psys"], m["gauge"], m["policy"], [0.3],
                               gauge_mode="classical")
        assert classical.shape == mixed.shape
        # both blocks hold the same K modes: every principal cosine is 1
        cosines = np.linalg.svd(np.linalg.qr(mixed)[0].T
                                @ np.linalg.qr(classical)[0], compute_uv=False)
        assert cosines.min() >= 1.0 - 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_both_gauges_solve_the_same_modes(self, tiny_cfg, t):
        # modes(t) in full edge space: equal eigenvalues and equal
        # B-orthonormal mode spaces (every principal cosine is 1)
        p = setup_problem(tiny_cfg)
        (pair, mixed), (_, classical) = (
            _make_evaluator(mode, p.psys, p.gauge, p.policy, 5).modes(t)
            for mode in ("mixed", "classical"))
        assert np.allclose(classical.values, mixed.values, rtol=1e-8, atol=0)
        cosines = np.linalg.svd(mixed.vectors.T @ (pair.B @ classical.vectors),
                                compute_uv=False)
        assert np.abs(cosines - 1.0).max() <= 1e-8

    def test_classical_cutoff_guards_modes_and_snapshots(self, small_morph):
        # too high a cutoff, or more modes than cotree DoFs, is refused
        # by the one check both classical queries share
        m = small_morph
        n_cotree = m["gauge"].cotree.size
        for policy, K in ((replace(m["policy"], lambda_cut=1e3), 5),
                          (m["policy"], n_cotree + 1)):
            ev = _make_evaluator("classical", m["psys"], m["gauge"], policy, K)
            for query in (ev.modes, ev.snapshot):
                with pytest.raises(NumericsError, match="spectral cutoff"):
                    query(0.5)

    def test_mode_count_guard(self, small_morph):
        m = small_morph
        with pytest.raises(ConfigError):
            _snapshots(m["psys"], m["gauge"], m["policy"], [0.0], K=0)

    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    @pytest.mark.parametrize("K", [0, -1])
    def test_evaluator_rejects_mode_count_below_one(self, small_morph,
                                                    gauge_mode, K):
        # greedy and tracking get their mode count from the evaluator
        m = small_morph
        with pytest.raises(ConfigError, match="mode count"):
            _make_evaluator(gauge_mode, m["psys"], m["gauge"], m["policy"], K)

    def test_mixed_pipeline_factors_nothing(self, small_morph, monkeypatch):
        # snapshots, projection, greedy and tracking of the mixed gauge
        # build no dense endpoint mass eigenbasis; only the classical
        # path needs one
        def refuse(self, *args, **kwargs):
            raise AssertionError("mixed pipeline built a CotreeFamily")

        monkeypatch.setattr(CotreeFamily, "__init__", refuse)
        m = small_morph
        snaps = _snapshots(m["psys"], m["gauge"], m["policy"], [0.0, 1.0])
        pair = m["psys"].interpolate(0.5)
        modes = solve_sparse_gevp(pair.A, pair.B, 5, m["policy"])
        _, rels = CotreeProjector(pair, m["gauge"]).project(modes.vectors)
        assert rels.max() <= 1e-12
        basis, log = greedy_enrich(_evaluator(m), pod_init(snaps, 2),
                                   m["training"].greedy_set, 1e-6, 12)
        assert any(row["t"] is not None for row in log)   # greedy solved
        run = track_reduced(m["psys"], m["gauge"], basis, 5,
                            policy=m["policy"])
        assert run.lambdas.shape[0] == 5


class TestNestedCollection:
    """Snapshot collection visits the POD set coarse to fine and stops
    once a whole level adds no rank."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20])
    def test_levels_cover_each_index_once(self, n):
        levels = rb._nested_levels(n)
        flat = [i for level in levels for i in level]
        assert sorted(flat) == list(range(n))
        assert levels[0] == sorted({0, n - 1})

    def test_levels_of_twenty(self):
        levels = rb._nested_levels(20)
        assert [len(level) for level in levels] == [2, 1, 2, 4, 8, 3]
        assert levels[:3] == [[0, 19], [9], [4, 14]]

    @staticmethod
    def _counted(monkeypatch, gauge_mode):
        cls = {"mixed": rb._MixedEvaluator,
               "classical": rb._ClassicalEvaluator}[gauge_mode]
        solved = []
        snapshot = cls.snapshot

        def counted(self, t):
            solved.append(t)
            return snapshot(self, t)

        monkeypatch.setattr(cls, "snapshot", counted)
        return solved

    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    def test_brick_stops_after_two_of_twenty(self, desk_problem,
                                             monkeypatch, gauge_mode):
        # the endpoint basis's eta at t = 9/19 is far below tol, so the
        # gate stops before the third solve
        p = desk_problem
        solved = self._counted(monkeypatch, gauge_mode)
        ev = _make_evaluator(gauge_mode, p.psys, p.gauge, p.policy, p.cfg.K)
        Y, solved_t, basis = collect_snapshots(ev, p.training.pod_set,
                                               p.cfg.N_init, p.cfg.tol)
        assert sorted(solved) == list(solved_t)
        assert sorted(solved) == [0.0, 1.0]
        assert Y.shape == (p.gauge.cotree.size, 2 * p.cfg.K)
        # the gate's start basis is the POD basis of those columns and
        # carries the lifted space its estimate made
        assert np.array_equal(basis.Z, pod_init(Y, p.cfg.N_init).Z)
        assert basis.lifted is ev.lifted
        if gauge_mode == "mixed":
            assert basis.lifted.fits(p.psys, p.gauge, basis.Z)

    def test_build_records_the_solved_parameters(self, desk_problem,
                                                 desk_basis):
        assert desk_basis.snapshot_t == (0.0, 1.0)

    @pytest.mark.parametrize("n_init, solves", [(15, 3), (16, 5)])
    def test_integer_n_init_keeps_sampling(self, desk_problem, monkeypatch,
                                           n_init, solves):
        # three snapshots give 15 saturated columns; one more wanted
        # column takes the next level as well
        p = desk_problem
        solved = self._counted(monkeypatch, "mixed")
        Y = _snapshots(p.psys, p.gauge, p.policy, p.training.pod_set,
                       K=p.cfg.K, n_init=n_init)
        assert len(solved) == solves
        assert Y.shape[1] == solves * p.cfg.K

    def test_unsaturated_set_is_the_one_by_one_stack(self, small_morph,
                                                     monkeypatch):
        # random columns never lie in the span of earlier ones, so every
        # parameter is solved and the stack is in pod_set order
        def random_modes(self, t):
            # |C| rows, so the gate can evaluate a basis of them
            rng = np.random.default_rng(round(1e6 * t))
            Y = rng.standard_normal((self.gauge.cotree.size, self.K))
            return Y / np.linalg.norm(Y, axis=0)

        monkeypatch.setattr(rb._MixedEvaluator, "snapshot", random_modes)
        m = small_morph
        pod_set = np.linspace(0.0, 1.0, 9)
        Y = _snapshots(m["psys"], m["gauge"], m["policy"], pod_set, K=2)
        ev = _make_evaluator("mixed", m["psys"], m["gauge"], m["policy"], 2)
        want = np.hstack([ev.snapshot(float(t)) for t in pod_set])
        assert np.array_equal(Y, want)

    def test_empty_pod_set_rejected(self, small_morph):
        m = small_morph
        with pytest.raises(ConfigError):
            _snapshots(m["psys"], m["gauge"], m["policy"], [])


class TestPOD:
    def test_orthonormal_columns(self, small_morph):
        m = small_morph
        snaps = _snapshots(m["psys"], m["gauge"], m["policy"], [0.0, 1.0])
        basis = pod_init(snaps, 4)
        assert basis.Z.shape == (m["gauge"].cotree.size, 4)
        assert np.allclose(basis.Z.T @ basis.Z, np.eye(4), atol=1e-12)
        sigmas = [rec["sigma"] for rec in basis.provenance]
        assert all(rec["origin"] == "POD" for rec in basis.provenance)
        assert sigmas == sorted(sigmas, reverse=True)

    def test_auto_keeps_numerical_rank(self):
        rng = np.random.default_rng(0)
        v, w = rng.standard_normal((2, 40))
        Y = np.column_stack([v, 2.0 * v, w])   # rank 2 in 3 columns
        basis = pod_init(Y, "auto")
        assert basis.n_red == 2

    def test_explicit_rank_overshoot_rejected(self):
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal((2, 40))
        Y = np.column_stack([v, 2.0 * v, w])
        with pytest.raises(NumericsError):
            pod_init(Y, 3)

    def test_zero_snapshots_rejected(self):
        with pytest.raises(NumericsError):
            pod_init(np.zeros((10, 3)), "auto")

    def test_range_checks(self):
        Y = np.eye(6)[:, :3]
        with pytest.raises(ConfigError):
            pod_init(Y, 0)
        with pytest.raises(ConfigError):
            pod_init(Y, 4)

    def test_roundoff_tail_below_rank_guard(self):
        # the brick stretch has snapshot rank 6; a roundoff tail above the
        # guard would add noise columns to every reduced solve
        cfg = with_overrides(default_config(), resolution=(10, 10, 10), N_POD=2)
        p = setup_problem(cfg)
        snaps = _snapshots(p.psys, p.gauge, p.policy, p.training.pod_set,
                           K=cfg.K)
        s = np.linalg.svd(snaps, compute_uv=False)
        assert s[6:].max() < _POD_RANK_GUARD * s[0]
        assert pod_init(snaps, "auto").n_red == 6


class TestReducedMatrices:
    def test_factored_equals_projected_pencil(self, small_morph):
        """The factored evaluation must agree with explicitly projecting
        the dense gauged pencil, for arbitrary bases and parameters."""
        m = small_morph
        n_cotree = m["gauge"].cotree.size
        rng = np.random.default_rng(7)
        for trial in range(5):
            Z = np.linalg.qr(rng.standard_normal((n_cotree, 6)))[0]
            ev = _evaluator(m, Z)
            for t in (0.0, 0.4, 1.0):
                (A_tilde, B_tilde), _ = ev.solve_many([t])[0]
                A_hat, B_hat = reference_cotree_system(
                    m["psys"].interpolate(t), m["gauge"])
                A_want = Z.T @ A_hat @ Z
                B_want = Z.T @ B_hat @ Z
                scale_a = np.linalg.norm(A_want)
                scale_b = np.linalg.norm(B_want)
                assert np.linalg.norm(A_tilde - A_want) < 1e-10 * scale_a
                assert np.linalg.norm(B_tilde - B_want) < 1e-10 * scale_b

    def test_classical_eigenvalues_match_lifted_columns(
            self, desk_problem, desk_classical_basis):
        # the classical evaluator reduces on the basis, so its reduced
        # eigenvalues carry the roundoff of n lifted columns, not of the
        # whole |C| x |C| pencil (about 6e-12 relative at 6^3)
        p = desk_problem
        Z = desk_classical_basis.basis.Z
        ev = _make_evaluator("classical", p.psys, p.gauge, p.policy, p.cfg.K)
        ev.set_basis(Z)
        worst = 0.0
        for t in np.linspace(0.0, 1.0, 21):
            got = ev.solve_many([float(t)])[0][1].values
            want = reference_eigh(*reference_cotree_reduction(
                p.psys.interpolate(t), p.gauge, Z))[0]
            worst = max(worst, np.max(np.abs(got - want) / want))
        assert worst < 1e-13


class TestLiftedSpace:
    """The mixed evaluator's Galerkin lift against an exact sparse lift.

    A random basis on the small morph does not saturate the lifted space
    at the two endpoint lifts, so the sweep below extends it."""

    @pytest.fixture(scope="class")
    def sweep(self, small_morph):
        m = small_morph
        rng = np.random.default_rng(29)
        Z = np.linalg.qr(rng.standard_normal((m["gauge"].cotree.size, 6)))[0]
        ev = _evaluator(m, Z)
        lifted_at = []
        for t in rng.uniform(0.0, 1.0, 20):
            before = ev.lifted.lifts
            ev.solve_many([float(t)])
            if ev.lifted.lifts > before:
                lifted_at.append(float(t))
        return ev, Z, lifted_at, ev.lifted.lifts

    @staticmethod
    def _exact(m, Z, t):
        pair = m["psys"].interpolate(t)
        A = pair.A.tocsc()
        U = A[:, m["gauge"].cotree] @ Z
        X = spla.splu(pair.B.tocsc()).solve(U)
        return A, U, X


    def test_sweep_extends_the_space(self, sweep):
        _, _, lifted_at, lifts = sweep
        assert lifted_at
        assert lifts == 2 + len(lifted_at)

    def test_lifts_stay_orthonormal(self, sweep):
        Q = sweep[0].lifted.Q
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-12

    def test_matches_exact_lift(self, small_morph, sweep):
        m = small_morph
        ev, Z, lifted_at, _ = sweep
        for t in [0.0, 1.0] + lifted_at + [0.05, 0.35, 0.65, 0.95]:
            A, U, X = self._exact(m, Z, t)
            A_want, B_want = X.T @ (A @ X), X.T @ U
            (A_tilde, B_tilde), _ = ev.solve_many([t])[0]
            for got, want in ((A_tilde, A_want), (B_tilde, B_want)):
                rel = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert rel <= 1e-11, t
            values = scipy.linalg.eigh(0.5 * (A_want + A_want.T),
                                       0.5 * (B_want + B_want.T),
                                       eigvals_only=True)
            sol, eta = ev.estimate_many([t])[0]
            assert np.allclose(sol.values, values, rtol=1e-11, atol=0.0)
            V = sol.vectors[:, :5]
            R = A @ (X @ V) - (U @ V) * sol.values[None, :5]
            want = (np.linalg.norm(R, axis=0) ** 2
                    / (sol.values[:5] * _gaps(sol.values, 5)))
            assert np.max(np.abs(eta - want) / want) <= 1e-11, t

    def test_frame_is_orthonormal(self, sweep):
        frame = sweep[0].lifted.frame
        assert np.abs(frame.T @ frame - np.eye(frame.shape[1])).max() <= 1e-12

    def test_coordinate_residual_matches_oracle(self, small_morph, sweep):
        # at the lift points and between them
        m = small_morph
        ev, _, lifted_at, _ = sweep
        _assert_coordinate_residual_matches(
            m["psys"], m["gauge"], ev,
            [0.0, 1.0] + lifted_at + [0.05, 0.35, 0.65, 0.95])

    @staticmethod
    def _on_the_brick(p, desk_basis, basis):
        """An evaluator of the built desk basis or of a random one."""
        Z = desk_basis.basis.Z
        if basis == "random":
            rng = np.random.default_rng(3)
            Z = np.linalg.qr(rng.standard_normal((p.gauge.cotree.size, 6)))[0]
        ev = _make_evaluator("mixed", p.psys, p.gauge, p.policy, p.cfg.K)
        ev.set_basis(Z)
        # unlike the small morph's, this frame falls well short of N
        # directions, so a direction it missed would show
        assert ev.lifted.frame.shape[1] < p.psys.n // 4
        return ev

    @pytest.mark.parametrize("basis", ["built", "random"])
    def test_coordinate_residual_matches_oracle_on_the_brick(
            self, desk_problem, desk_basis, basis):
        p = desk_problem
        ev = self._on_the_brick(p, desk_basis, basis)
        _assert_coordinate_residual_matches(p.psys, p.gauge, ev,
                                            np.linspace(0.0, 1.0, 9))

    @pytest.mark.parametrize("basis", ["built", "random"])
    @pytest.mark.parametrize("factor", [0.95, 1.05])
    def test_perturbed_lift_judged_alike(self, desk_problem, desk_basis,
                                         basis, factor):
        # a lift pushed to factor times the bound, column by column,
        # passes or fails the check the same way in both evaluations
        p = desk_problem
        ev = self._on_the_brick(p, desk_basis, basis)
        space = ev.lifted
        rng = np.random.default_rng(11)
        for t in (0.0, 0.35, 0.8):
            c = _coefficients(ev, t)
            _, U = _explicit_residual(p.psys, p.gauge, space, t, c)
            D = rng.standard_normal(c.shape)
            BD = p.psys.interpolate(t).B @ (space.Q @ D)
            D *= (factor * _LIFT_RTOL * np.linalg.norm(U, axis=0)
                  / np.linalg.norm(BD, axis=0))
            R, U = _explicit_residual(p.psys, p.gauge, space, t, c + D)
            explicit = (np.linalg.norm(R, axis=0)
                        <= _LIFT_RTOL * np.linalg.norm(U, axis=0))
            residual, scale = _lifting_residual(space, t, c + D)
            assert np.all(explicit == (factor < 1.0)), t
            assert np.array_equal(residual <= _LIFT_RTOL * scale, explicit), t

    def test_revisit_does_not_lift(self, sweep):
        ev, _, lifted_at, _ = sweep
        before = ev.lifted.lifts
        for t in lifted_at:
            ev.estimate_many([t])
        assert ev.lifted.lifts == before

    def test_residual_within_tolerance(self, small_morph, sweep):
        m = small_morph
        ev, _, lifted_at, _ = sweep
        for t in lifted_at + [0.2, 0.8]:
            ev.solve_many([t])
            c = _coefficients(ev, t)
            R, U = _explicit_residual(m["psys"], m["gauge"], ev.lifted, t, c)
            assert np.all(np.linalg.norm(R, axis=0)
                          <= _LIFT_RTOL * np.linalg.norm(U, axis=0)), t

    @pytest.mark.parametrize("field", ["GB", "QtP"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lifted_data_typed(self, small_morph, small_basis,
                                          field, bad):
        ev = _evaluator(small_morph, small_basis.basis.Z)
        first = getattr(ev.lifted, field)[0].copy()
        first[0, 0] = bad
        ev.lifted = replace(ev.lifted,
                            **{field: (first, getattr(ev.lifted, field)[1])})
        with pytest.raises(FactorizationError, match="not finite"):
            ev.solve_many([0.5])

    def test_indefinite_lifted_mass_typed(self, small_morph, small_basis):
        ev = _evaluator(small_morph, small_basis.basis.Z)
        GB = tuple(G.copy() for G in ev.lifted.GB)
        for G in GB:
            G[1, 1] = -1.0
        ev.lifted = replace(ev.lifted, GB=GB)
        with pytest.raises(FactorizationError, match="positive definite"):
            ev.solve_many([0.5])

    def test_lifted_mass_failure_names_first_t(self, small_morph,
                                               small_basis):
        # (Q^T B(t) Q)[1, 1] turns negative past t = 1/2 only
        ev = _evaluator(small_morph, small_basis.basis.Z)
        G0, G1 = ev.lifted.GB
        G1 = G1.copy()
        G1[1, 1] = -G0[1, 1]
        ev.lifted = replace(ev.lifted, GB=(G0, G1))
        with pytest.raises(FactorizationError,
                           match=r"at t=0\.7: .*not positive definite"):
            ev.solve_many([0.05, 0.7, 0.9])


@pytest.fixture(scope="module")
def taper(desk_problem):
    """The desk problem with its t = 1 brick replaced by a taper of the
    t = 0 brick, z scaled by 1 - x / (2 L_x): no POD level saturates, and
    the estimator gate stops collection after 5 of the 20 snapshots, so
    greedy has work to do: the basis keeps 26 columns."""
    p = desk_problem
    vertices = p.mesh0.vertices.copy()
    vertices[:, 2] *= 1.0 - 0.5 * vertices[:, 0] / p.cfg.dims0[0]
    mesh1 = replace(p.mesh0, vertices=vertices)
    end1 = assemble(mesh1, scatter_map(p.mesh0))
    return replace(p, psys=ParametrizedSystem(p.psys.endpoint0, end1))


@pytest.fixture(scope="module")
def taper_build(taper):
    return taper.build("mixed")


@pytest.fixture(scope="module")
def taper_basis(taper_build):
    return taper_build.basis


class TestTaper:
    def test_gate_solves_levels_until_the_estimate_passes(self, taper,
                                                          taper_build):
        # eta at a level's parameters exceeds tol until three levels are
        # solved; greedy then appends what the gate's basis misses
        pod_set = taper.training.pod_set
        assert taper_build.snapshot_t == tuple(
            float(pod_set[i]) for i in (0, 4, 9, 14, 19))
        appends = [row for row in taper_build.log if row["t"] is not None]
        assert len(appends) >= 1
        assert taper_build.log[-1]["max_eta"] <= taper.cfg.tol

    def test_build_completes_with_orthonormal_lifts(self, taper,
                                                    taper_basis):
        # the lifted spaces of this basis need interior lift points; an
        # unorthonormal Q once made them fail their own check there
        basis = taper_basis
        assert basis.n_red == 26
        ev = _make_evaluator("mixed", taper.psys, taper.gauge, taper.policy,
                             taper.cfg.K, basis=basis)
        for t in (0.05, 0.5):
            approx = ev.solve_many([t])[0][1].values[:taper.cfg.K]
            pair = taper.psys.interpolate(t)
            want = solve_sparse_gevp(pair.A, pair.B, taper.cfg.K,
                                     taper.policy, t=t).values
            assert np.max(np.abs(approx - want) / want) < 1e-8, t
        assert ev.lifted.lifts > 2
        for M in (ev.lifted.Q, ev.lifted.frame):
            assert np.abs(M.T @ M - np.eye(M.shape[1])).max() <= 1e-12

    def test_tracking_after_the_build_lifts_nothing(self, taper, taper_basis,
                                                    monkeypatch):
        # the basis carries the space its last sweep grew, interior lift
        # points included, so the reduced pass needs no mass solve
        calls = []

        def counted(B, rhs):
            calls.append(rhs.shape)
            return pcg_solve(B, rhs)

        monkeypatch.setattr(rb, "pcg_solve", counted)
        basis, K = taper_basis, taper.cfg.K
        run = track_reduced(taper.psys, taper.gauge, basis, K,
                            policy=taper.policy)
        assert not calls
        assert run.stats["lift_solves"] == basis.lifted.lifts > 2
        relifted = track_reduced(taper.psys, taper.gauge,
                                 replace(basis, lifted=None), K,
                                 policy=taper.policy)
        assert np.array_equal(run.grid, relifted.grid)
        assert np.max(np.abs(run.lambdas - relifted.lambdas)
                      / relifted.lambdas) <= 1e-12


class TestBatchedEvaluation:
    """A sweep evaluates its parameters in chunks; it must agree with
    evaluating them one at a time."""

    @staticmethod
    def _recorded(monkeypatch):
        """The parameters each lifted space is extended at, in order."""
        lifted_at = []
        lift = rb._LiftedSpace.lift

        def recording(self, *ts):
            lifted_at.extend(ts)
            return lift(self, *ts)

        monkeypatch.setattr(rb._LiftedSpace, "lift", recording)
        return lifted_at

    @pytest.mark.parametrize("morph", ["brick", "taper"])
    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    def test_sweep_agrees_with_one_by_one(self, request, monkeypatch, morph,
                                          gauge_mode):
        # the taper's basis without its carried space lifts at interior
        # parameters, and its 26 columns split 50 parameters into chunks
        p = request.getfixturevalue(
            "desk_problem" if morph == "brick" else "taper")
        if morph == "brick":
            basis = request.getfixturevalue(
                "desk_basis" if gauge_mode == "mixed"
                else "desk_classical_basis").basis
        elif gauge_mode == "mixed":
            basis = request.getfixturevalue("taper_basis")
        else:
            basis = p.build("classical").basis
        basis = replace(basis, lifted=None)
        ts = p.training.greedy_set
        lifted_at = self._recorded(monkeypatch)
        batch = _make_evaluator(gauge_mode, p.psys, p.gauge, p.policy,
                                p.cfg.K, basis=basis)
        batched = batch.estimate_many(ts)
        batch_lifts = lifted_at[:]
        del lifted_at[:]
        single = _make_evaluator(gauge_mode, p.psys, p.gauge, p.policy,
                                 p.cfg.K, basis=basis)
        one_by_one = [single.estimate_many([float(t)])[0] for t in ts]
        assert batch_lifts == lifted_at
        if morph == "taper" and gauge_mode == "mixed":
            assert len(batch_lifts) > 2
            assert basis.n_red * len(ts) > rb._BATCH_COLUMNS
        for (sol, eta), (want, want_eta) in zip(batched, one_by_one):
            assert np.max(np.abs(sol.values - want.values)
                          / want.values) <= 1e-12
            # eta far below tol is a roundoff residual
            assert np.allclose(eta, want_eta, rtol=1e-6, atol=1e-12)
        solved = batch.solve_many(ts[:7])
        for ((_, B_tilde), sol), t in zip(solved, ts[:7]):
            (_, want_B), want = single.solve_many([float(t)])[0]
            assert np.max(np.abs(sol.values - want.values)
                          / want.values) <= 1e-12
            assert np.allclose(B_tilde, want_B, rtol=0,
                               atol=1e-12 * np.abs(want_B).max())

    def test_a_lift_resumes_at_its_parameter(self, small_morph, monkeypatch):
        # a random basis fails the certificate inside (0, 1); the sweep
        # lifts where a one-by-one pass lifts, and each lift point's own
        # evaluation comes from the extended space
        m = small_morph
        rng = np.random.default_rng(29)
        Z = np.linalg.qr(rng.standard_normal((m["gauge"].cotree.size, 6)))[0]
        ts = np.sort(rng.uniform(0.0, 1.0, 20))
        lifted_at = self._recorded(monkeypatch)
        ev = _evaluator(m, Z)
        batched = ev.solve_many(ts)
        interior = lifted_at[2:]
        assert interior and set(interior) <= set(ts.tolist())
        del lifted_at[:]
        single = _evaluator(m, Z)
        for (_, sol), t in zip(batched, ts):
            want = single.solve_many([float(t)])[0][1]
            assert np.allclose(sol.values, want.values, rtol=1e-12, atol=0)
        assert lifted_at[2:] == interior

    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    @pytest.mark.parametrize("sweep", ["solve_many", "estimate_many"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pencil_names_its_t(self, small_morph, small_basis,
                                           monkeypatch, gauge_mode, sweep,
                                           bad):
        # the chunk's one scan stands in for the dense solves' own: it
        # names the first non-finite t and runs before any solve
        ev = _evaluator(small_morph, small_basis.basis.Z, gauge_mode)
        chunks = ev._chunks

        def poisoned(ts):
            for data, A, B in chunks(ts):
                A = A.copy()
                A[[2, 4], 0, 1] = bad
                yield data, A, B

        solves = []
        monkeypatch.setattr(ev, "_chunks", poisoned)
        monkeypatch.setattr(rb, "solve_dense_gevp",
                            lambda *args, **kwargs: solves.append(args))
        with pytest.raises(FactorizationError,
                           match=r"pencil at t=0\.3 is not finite"):
            getattr(ev, sweep)([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert solves == []

    def test_parameters_outside_the_morph_rejected(self, small_morph,
                                                   small_basis):
        for gauge_mode in ("mixed", "classical"):
            ev = _evaluator(small_morph, small_basis.basis.Z, gauge_mode)
            with pytest.raises(ConfigError, match="outside"):
                ev.estimate_many([0.5, 1.5])


class TestOnlineWork:
    def test_certified_evaluation_allocates_no_n_row_array(self):
        # a basis whose lifts certify every t: an evaluation then works on
        # arrays of the basis and lift sizes only, all far below N entries
        cfg = with_overrides(default_config(), resolution=(12, 12, 12),
                             N_POD=2)
        p = setup_problem(cfg)
        basis = p.build("mixed").basis
        ev = _make_evaluator("mixed", p.psys, p.gauge, p.policy, cfg.K,
                             basis=basis)
        for call in (ev.solve_many, ev.estimate_many):
            call([0.45])
            tracemalloc.start()
            try:
                call([0.55])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # below one column of N doubles
            assert peak < 8 * p.psys.n, call.__name__
        assert ev.lifted.lifts == 2


class TestEstimator:
    def test_exact_basis_has_tiny_eta(self, small_morph, small_basis):
        m = small_morph
        sol, eta = _evaluator(m, small_basis.basis.Z).estimate_many([0.5])[0]
        assert eta.shape == (5,)
        assert np.all(eta >= 0)
        assert eta.max() < 1e-12
        assert np.all(_gaps(sol.values, 5) > 0)

    def test_gaps_same_as_delete_loop(self):
        # ascending values with exact ties, gaps at and near the floor, and
        # fewer values than K + 1
        rng = np.random.default_rng(9)
        for size in (1, 2, 3, 6, 7, 12):
            for _ in range(20):
                steps = rng.choice([0.0, 1e-9, 1e-8, 1e-7, 0.3, 2.0], size)
                values = np.cumsum(steps) + rng.choice([0.5, 26.13])
                for K in (1, 5, 6):
                    assert np.array_equal(_gaps(values, K),
                                          reference_gaps(values, K))

    def test_missing_modes_get_infinite_eta(self, small_morph, small_basis):
        m = small_morph
        _, eta = _evaluator(m, small_basis.basis.Z[:, :3]).estimate_many([0.5])[0]
        assert eta.shape == (5,)
        assert np.all(np.isfinite(eta[:3])) and np.all(eta[3:] == np.inf)

    def test_poor_basis_has_large_eta(self, small_morph):
        m = small_morph
        n_cotree = m["gauge"].cotree.size
        rng = np.random.default_rng(3)
        Z = np.linalg.qr(rng.standard_normal((n_cotree, 6)))[0]
        _, eta = _evaluator(m, Z).estimate_many([0.5])[0]
        assert eta.max() > 1e-2

    def test_greedy_sweep_uses_the_estimator(self, small_morph):
        m = small_morph
        snaps = _snapshots(m["psys"], m["gauge"], m["policy"], [0.0, 1.0])
        start = pod_init(snaps, 2)
        _, log = greedy_enrich(_evaluator(m), start, m["training"].greedy_set,
                               1e-6, 12)
        ev = _evaluator(m, start.Z)
        want = max(ev.estimate_many([float(t)])[0][1].max()
                   for t in m["training"].greedy_set)
        assert log[0]["max_eta"] == pytest.approx(want, rel=1e-12)


class TestCutoffCheck:
    """_check_cutoff, which every sweep and the classical gauged solve
    call: it raises on the pencil that no gauge reduced, and on no
    pencil of either gauge."""

    def test_raises_on_the_ungauged_pencil_only(self, desk_problem,
                                                desk_basis,
                                                desk_classical_basis):
        p = desk_problem
        K, cut = p.cfg.K, p.policy.lambda_cut
        modes = []
        for t in desk_basis.snapshot_t:
            pair = p.psys.interpolate(t)
            modes.append(solve_sparse_gevp(pair.A, pair.B, K, p.policy,
                                           t=t).vectors)
        Z = reference_ungauged_basis(modes)
        ts = [0.0, 0.3, 0.75, 1.0]
        for t in ts:
            values = solve_dense_gevp(*reference_ungauged_pencil(
                p.psys.interpolate(t), Z)).values
            with pytest.raises(NumericsError,
                               match=r"reduced pencil at t=%r has \d modes "
                                     r"above the spectral cutoff, need %d"
                                     % (t, K)):
                _check_cutoff("reduced pencil", [t], [values], K, cut)
        for built in (desk_basis, desk_classical_basis):
            for gauge_mode in ("mixed", "classical"):
                ev = _make_evaluator(gauge_mode, p.psys, p.gauge, p.policy,
                                     K, basis=built.basis)
                sols = [sol for _, sol in ev.solve_many(ts)]
                _check_cutoff("reduced pencil", ts,
                              [sol.values for sol in sols], K, cut)
        gauged = _make_evaluator("classical", p.psys, p.gauge, p.policy, K)
        for t in ts:
            A_hat, B_hat = build_cotree_system(gauged.family, t)
            _check_cutoff("gauged pencil", [t],
                          [solve_dense_gevp(A_hat, B_hat).values], K, cut)

    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    def test_sweeps_and_tracking_raise_naming_t(self, small_morph,
                                                small_basis, gauge_mode):
        # a cutoff between the lowest reduced eigenvalues at t = 0 and
        # t = 1 passes the first and fails the second
        m = small_morph
        Z = small_basis.basis.Z
        ev = _evaluator(m, Z, gauge_mode)
        lowest = [sol.values[0] for _, sol in ev.solve_many([0.0, 1.0])]
        assert lowest[1] < lowest[0]
        policy = replace(m["policy"], lambda_cut=0.5 * sum(lowest))
        ev = _make_evaluator(gauge_mode, m["psys"], m["gauge"], policy, 5)
        ev.set_basis(Z)
        for sweep in (ev.solve_many, ev.estimate_many):
            with pytest.raises(NumericsError,
                               match=r"reduced pencil at t=1\.0 has \d modes"):
                sweep([0.0, 1.0])
        assert len(ev.solve_many([0.0])) == 1
        if gauge_mode == "mixed":
            with pytest.raises(NumericsError, match="spectral cutoff"):
                track_reduced(m["psys"], m["gauge"], small_basis.basis, 5,
                              policy=policy)


class TestProjectOut:
    def test_matches_modified_gram_schmidt(self):
        # the block projection that replaced greedy's column loop, on
        # random orthonormal bases and a few columns at a time
        rng = np.random.default_rng(17)
        for n, k, cols in ((50, 1, 1), (200, 12, 3), (400, 40, 5)):
            Z = np.linalg.qr(rng.standard_normal((n, k)))[0]
            X = rng.standard_normal((n, cols))
            R = X.copy()
            H = rb._project_out(Z, R)
            for x, r in zip(X.T, R.T):
                want = reference_mgs_orthogonalize(Z, x)
                assert (np.linalg.norm(r - want)
                        <= 1e-14 * np.linalg.norm(want)), (n, k)
                assert (np.linalg.norm(Z.T @ r)
                        <= 1e-15 * np.linalg.norm(r)), (n, k)
            # the summed coefficients restore what was projected out
            assert (np.linalg.norm(X - Z @ H - R)
                    <= 1e-14 * np.linalg.norm(X)), (n, k)


class TestGreedy:
    def test_pod_only_when_tol_infinite(self, small_morph):
        m = small_morph
        snaps = _snapshots(m["psys"], m["gauge"], m["policy"], [0.0, 1.0])
        start = pod_init(snaps, 4)
        basis, log = greedy_enrich(_evaluator(m), start,
                                   m["training"].greedy_set, np.inf, 12)
        assert basis.n_red == 4
        assert len(log) == 1
        assert log[0]["t"] is None and log[0]["mode"] is None

    def test_enrichment_reaches_tolerance(self, small_morph):
        m = small_morph
        snaps = _snapshots(m["psys"], m["gauge"], m["policy"], [0.0, 1.0])
        start = pod_init(snaps, 2)   # deliberately too small
        basis, log = greedy_enrich(_evaluator(m), start,
                                   m["training"].greedy_set, 1e-6, 12)
        assert basis.n_red > 2
        assert log[-1]["t"] is None
        assert log[-1]["max_eta"] <= 1e-6 or basis.n_red == 12
        for row in log[:-1]:
            assert 0.0 < row["t"] < 1.0
            assert 0 <= row["mode"] < 5
            assert row["max_eta"] > 0
        greedy_cols = [rec for rec in basis.provenance
                       if rec["origin"] == "greedy"]
        assert len(greedy_cols) == basis.n_red - 2

    def test_exhaustion_flagged_on_constant_morph(self, cube3_pair,
                                                  cube3_gauge, small_morph):
        from maxwell_rb.assembly import ParametrizedSystem

        psys = ParametrizedSystem(cube3_pair, cube3_pair)
        m = {"psys": psys, "gauge": cube3_gauge,
             "policy": small_morph["policy"]}
        snaps = _snapshots(psys, cube3_gauge, m["policy"], [0.0, 0.5, 1.0])
        start = pod_init(snaps, "auto")
        # every candidate already lies in the span, so an unreachable
        # tolerance must exhaust the training set instead of looping
        basis, log = greedy_enrich(_evaluator(m), start,
                                   np.linspace(0.1, 0.9, 5), 1e-30, 10)
        assert "candidates-exhausted" in basis.flags
        assert basis.n_red == start.n_red
        # the exhausted return path carries its endpoint lifts too
        assert basis.lifted.fits(psys, cube3_gauge, basis.Z)
        assert basis.lifted.lifts == 2

    def test_bad_tolerance(self, small_morph, small_basis):
        m = small_morph
        with pytest.raises(ConfigError):
            greedy_enrich(_evaluator(m), small_basis.basis, [0.5], 0.0, 12)

    def test_evaluator_must_match_the_basis_gauge(self, small_morph):
        # a mixed evaluator would grow a basis labelled classical by mixed
        # estimates and attach mixed lifts to it
        m = small_morph
        snaps = _snapshots(m["psys"], m["gauge"], m["policy"], [0.0, 1.0])
        start = pod_init(snaps, 2, gauge_mode="classical")
        with pytest.raises(ConfigError, match="classical basis"):
            greedy_enrich(_evaluator(m), start, m["training"].greedy_set,
                          1e-6, 12)


class TestBuildBasis:
    def test_reproduces_full_order_eigenvalues(self, small_morph, small_basis):
        m = small_morph
        ev = _evaluator(m, small_basis.basis.Z)
        for t in (0.1, 0.7):
            approx = ev.solve_many([t])[0][1].values[:5]
            pair = m["psys"].interpolate(t)
            want = solve_sparse_gevp(pair.A, pair.B, 5, m["policy"],
                                     t=t).values
            assert np.max(np.abs(approx - want) / want) < 1e-8

    def test_result_structure(self, small_basis):
        res = small_basis
        assert res.basis.gauge_mode == "mixed"
        assert len(res.basis.provenance) == res.basis.n_red
        assert set(res.phase_seconds) == {"projection", "pod", "greedy"}
        assert res.log[-1]["n_red"] == res.basis.n_red

    def test_n_init_exceeding_n_max_rejected(self, small_morph):
        m = small_morph
        with pytest.raises(ConfigError):
            build_basis(m["psys"], m["gauge"], m["training"], 5, 20, 1e-6,
                        12, m["policy"])

    def test_classical_pipeline_agrees(self, small_morph):
        m = small_morph
        classical = classical_pipeline(m["psys"], m["gauge"], m["training"],
                                       5, "auto", 1e-6, 12, m["policy"])
        assert classical.basis.gauge_mode == "classical"
        assert classical.basis.lifted is None
        ev = _evaluator(m, classical.basis.Z)
        for t in (0.25,):
            approx = ev.solve_many([t])[0][1].values[:5]
            pair = m["psys"].interpolate(t)
            want = solve_sparse_gevp(pair.A, pair.B, 5, m["policy"],
                                     t=t).values
            assert np.max(np.abs(approx - want) / want) < 1e-8

    def test_classical_build_makes_one_family(self, small_morph,
                                              monkeypatch):
        # snapshots and greedy share one endpoint mass eigenbasis
        built = []
        init = CotreeFamily.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(CotreeFamily, "__init__", counting_init)
        m = small_morph
        classical_pipeline(m["psys"], m["gauge"], m["training"], 5, "auto",
                           1e-6, 12, m["policy"])
        assert len(built) == 1

    def test_classical_build_forms_one_pencil_per_snapshot(
            self, desk_problem, monkeypatch):
        # greedy's estimates reduce on the basis; only snapshots form the
        # whole pencil
        formed = []
        form = rb.build_cotree_system

        def counting_form(family, t):
            formed.append(t)
            return form(family, t)

        monkeypatch.setattr(rb, "build_cotree_system", counting_form)
        result = desk_problem.build("classical")
        assert sorted(formed) == sorted(result.snapshot_t)
        assert len(formed) == 2


class TestCarriedLifts:
    """A built basis carries the lifted space of its last sweep, and
    reduced tracking adopts it only for the objects it was lifted for."""

    def test_build_attaches_endpoint_lifts(self, small_morph, small_basis):
        m = small_morph
        lifted = small_basis.basis.lifted
        assert lifted.fits(m["psys"], m["gauge"], small_basis.basis.Z)
        assert lifted.lifts == 2

    def test_extended_basis_drops_the_lifts(self, small_basis):
        basis = small_basis.basis
        grown = basis.extended(np.zeros(basis.Z.shape[0]), {"origin": "test"})
        assert basis.lifted is not None and grown.lifted is None

    def test_no_leak_between_queries(self, small_morph):
        # a random basis forces lift points inside (0, 1); they must stay
        # in each run's own copy of the space
        m = small_morph
        rng = np.random.default_rng(29)
        Z = np.linalg.qr(rng.standard_normal((m["gauge"].cotree.size, 6)))[0]
        ev = _make_evaluator("mixed", m["psys"], m["gauge"], m["policy"], 5)
        ev.set_basis(Z)
        lifted = ev.lifted
        basis = ReducedBasis(Z=Z, provenance=(), gauge_mode="mixed",
                             lifted=lifted)
        runs = [track_reduced(m["psys"], m["gauge"], b, 5, policy=m["policy"])
                for b in (basis, basis, replace(basis, lifted=None))]
        assert runs[0].stats["lift_solves"] > 2
        for run in runs[1:]:
            assert np.array_equal(run.grid, runs[0].grid)
            assert np.array_equal(run.lambdas, runs[0].lambdas)
            assert np.array_equal(run.correlations, runs[0].correlations)
            assert len(run.permutations) == len(runs[0].permutations)
            assert all(np.array_equal(a, b) for a, b in
                       zip(run.permutations, runs[0].permutations))
            assert run.stats["lift_solves"] == runs[0].stats["lift_solves"]
        assert basis.lifted is lifted
        assert lifted.lifts == 2 and lifted.Q.shape[1] <= 2 * Z.shape[1]

    def test_adoption_needs_the_same_objects(self, desk_problem, desk_basis,
                                             monkeypatch):
        p = desk_problem
        basis = desk_basis.basis
        calls = []

        def counted(B, rhs):
            calls.append(rhs.shape)
            return pcg_solve(B, rhs)

        monkeypatch.setattr(rb, "pcg_solve", counted)

        def track(psys=p.psys, gauge=p.gauge, b=basis):
            del calls[:]
            run = track_reduced(psys, gauge, b, p.cfg.K, policy=p.policy)
            return run, len(calls)

        adopted, solves = track()
        assert solves == 0 and adopted.stats["lift_solves"] == 2
        # an equal system built anew is another object: it lifts anew
        twin = ParametrizedSystem(p.psys.endpoint0, p.psys.endpoint1)
        for kwargs in ({"psys": twin}, {"b": replace(basis, Z=basis.Z.copy())},
                       {"b": replace(basis, lifted=None)}):
            run, solves = track(**kwargs)
            assert solves == 2 and run.stats["lift_solves"] == 2, kwargs
            assert np.array_equal(run.lambdas, adopted.lambdas), kwargs


class TestTracedMemory:
    """The memory claims on what tracemalloc measures."""

    def test_build_peaks(self, desk_problem):
        p = desk_problem
        n, c = p.psys.n, p.gauge.cotree.size
        peak = {mode: peak_traced_bytes(lambda: p.build(mode))
                for mode in ("mixed", "classical")}
        # the family's eigenbasis and cotree blocks, then W and A W
        assert peak["classical"] >= 8 * (n * n + 4 * n * c)
        # not even one N x |C| array of doubles
        assert peak["mixed"] < 8 * n * c
        assert peak["mixed"] < peak["classical"] / 5

    def test_classical_estimate_peak(self, desk_problem, desk_classical_basis):
        # an estimate holds N x n and |C| x n arrays: not one N x |C|
        # array of doubles, let alone the pencil
        p = desk_problem
        ev = _make_evaluator("classical", p.psys, p.gauge, p.policy, p.cfg.K)
        ev.set_basis(desk_classical_basis.basis.Z)
        ev.estimate_many([0.3])
        peak = peak_traced_bytes(lambda: ev.estimate_many([0.3]))
        assert peak < 8 * p.psys.n * p.gauge.cotree.size

    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    def test_evaluations_keep_nothing(self, desk_problem, desk_basis,
                                      gauge_mode):
        p = desk_problem
        K = p.cfg.K
        ev = _make_evaluator(gauge_mode, p.psys, p.gauge, p.policy, K,
                             basis=desk_basis.basis)
        # numpy's own domain: array buffers only, not the bookkeeping
        # objects that scipy's sparse solvers keep across calls
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        for call, t in ((ev.solve_many, [0.3]), (ev.estimate_many, [0.3]),
                        (ev.snapshot, 0.3)):
            call(t)
            tracemalloc.start()
            try:
                call(t)
                kept = tracemalloc.take_snapshot().filter_traces(arrays)
            finally:
                tracemalloc.stop()
            # less than K columns of N doubles outlive the call
            assert (sum(trace.size for trace in kept.traces)
                    < 8 * p.psys.n * K), call.__name__
