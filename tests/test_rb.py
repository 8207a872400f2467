"""Reduced-basis pipeline: snapshots, POD, estimator, greedy, storage."""

import numpy as np
import pytest

from maxwell_rb.bench import setup_problem
from maxwell_rb.config import default_config, with_overrides
from maxwell_rb.eigen import SPDFactor, solve_sparse_gevp
from maxwell_rb.errors import ConfigError, NumericsError
from maxwell_rb.gauge import CotreeProjector, build_cotree_system
from maxwell_rb.rb import (SnapshotSet, StorageMeter, build_basis,
                           classical_pipeline, collect_snapshots,
                           greedy_enrich, make_training_sets, pod_init,
                           _POD_RANK_GUARD, _gaps, _make_evaluator,
                           _salt_from_t)
from maxwell_rb.tracking import track_reduced


def _evaluator(m, Z, gauge_mode="mixed"):
    ev = _make_evaluator(gauge_mode, m["psys"], m["gauge"], m["policy"], 5)
    ev.set_basis(Z)
    return ev


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
        m = small_morph
        snaps = collect_snapshots(m["psys"], m["gauge"], [0.0, 0.5, 1.0], 5,
                                  m["policy"])
        n_cotree = m["gauge"].cotree.size
        assert snaps.Y.shape == (n_cotree, 15)
        assert np.allclose(np.linalg.norm(snaps.Y, axis=0), 1.0, atol=1e-12)
        assert np.array_equal(snaps.mode_indices, np.tile(np.arange(5), 3))
        assert np.array_equal(snaps.t_values, np.repeat([0.0, 0.5, 1.0], 5))
        assert snaps.eigenvalues.min() > 0

    def test_classical_path_same_values(self, small_morph):
        m = small_morph
        mixed = collect_snapshots(m["psys"], m["gauge"], [0.3], 5, m["policy"])
        classical = collect_snapshots(m["psys"], m["gauge"], [0.3], 5,
                                      m["policy"], gauge_mode="classical")
        assert classical.Y.shape == mixed.Y.shape
        assert np.allclose(classical.eigenvalues, mixed.eigenvalues,
                           rtol=1e-9)

    def test_mode_count_guard(self, small_morph):
        m = small_morph
        with pytest.raises(ConfigError):
            collect_snapshots(m["psys"], m["gauge"], [0.0], 0, m["policy"])

    def test_mixed_pipeline_factors_nothing(self, small_morph, monkeypatch):
        # snapshots, projection, greedy and tracking of the mixed gauge
        # build no sparse SPD factor; only the classical path needs one
        def refuse(self, *args, **kwargs):
            raise AssertionError("mixed pipeline built an SPDFactor")

        monkeypatch.setattr(SPDFactor, "__init__", refuse)
        m = small_morph
        snaps = collect_snapshots(m["psys"], m["gauge"], [0.0, 1.0], 5,
                                  m["policy"])
        pair = m["psys"].interpolate(0.5)
        modes = solve_sparse_gevp(pair.A, pair.B, 5, m["policy"])
        _, rels = CotreeProjector(pair, m["gauge"]).project(modes.vectors)
        assert rels.max() <= 1e-12
        basis, log = greedy_enrich(m["psys"], m["gauge"], pod_init(snaps, 2),
                                   m["training"].greedy_set, 5, 1e-6, 12,
                                   m["policy"])
        assert any(row["t"] is not None for row in log)   # greedy solved
        run = track_reduced(m["psys"], m["gauge"], basis, 5,
                            policy=m["policy"])
        assert run.lambdas.shape[0] == 5


class TestPOD:
    def _snapshot_set(self, Y):
        cols = Y.shape[1]
        return SnapshotSet(Y=Y, t_values=np.zeros(cols),
                           mode_indices=np.arange(cols),
                           eigenvalues=np.ones(cols))

    def test_orthonormal_columns(self, small_morph):
        m = small_morph
        snaps = collect_snapshots(m["psys"], m["gauge"], [0.0, 1.0], 5,
                                  m["policy"])
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
        basis = pod_init(self._snapshot_set(Y), "auto")
        assert basis.n_red == 2

    def test_explicit_rank_overshoot_rejected(self):
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal((2, 40))
        Y = np.column_stack([v, 2.0 * v, w])
        with pytest.raises(NumericsError):
            pod_init(self._snapshot_set(Y), 3)

    def test_zero_snapshots_rejected(self):
        with pytest.raises(NumericsError):
            pod_init(self._snapshot_set(np.zeros((10, 3))), "auto")

    def test_range_checks(self):
        Y = np.eye(6)[:, :3]
        with pytest.raises(ConfigError):
            pod_init(self._snapshot_set(Y), 0)
        with pytest.raises(ConfigError):
            pod_init(self._snapshot_set(Y), 4)

    def test_roundoff_tail_below_rank_guard(self):
        # the brick stretch has snapshot rank 6; a roundoff tail above the
        # guard would add noise columns to every reduced solve
        cfg = with_overrides(default_config(), resolution=(10, 10, 10), N_POD=2)
        p = setup_problem(cfg)
        snaps = collect_snapshots(p.psys, p.gauge, p.training.pod_set, cfg.K,
                                  p.policy)
        s = np.linalg.svd(snaps.Y, compute_uv=False)
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
                red = ev.reduced_system(t)
                cs = build_cotree_system(m["psys"].interpolate(t), m["gauge"])
                A_want = Z.T @ cs.A_hat @ Z
                B_want = Z.T @ cs.B_hat @ Z
                scale_a = np.linalg.norm(A_want)
                scale_b = np.linalg.norm(B_want)
                assert np.linalg.norm(red.A_tilde - A_want) < 1e-10 * scale_a
                assert np.linalg.norm(red.B_tilde - B_want) < 1e-10 * scale_b


class TestEstimator:
    def test_exact_basis_has_tiny_eta(self, small_morph, small_basis):
        m = small_morph
        sol, eta = _evaluator(m, small_basis.basis.Z).estimate(0.5)
        assert eta.shape == (5,)
        assert np.all(eta >= 0)
        assert eta.max() < 1e-12
        assert np.all(_gaps(sol.values, 5) > 0)

    def test_poor_basis_has_large_eta(self, small_morph):
        m = small_morph
        n_cotree = m["gauge"].cotree.size
        rng = np.random.default_rng(3)
        Z = np.linalg.qr(rng.standard_normal((n_cotree, 6)))[0]
        _, eta = _evaluator(m, Z).estimate(0.5)
        assert eta.max() > 1e-2

    def test_greedy_sweep_uses_the_estimator(self, small_morph):
        m = small_morph
        snaps = collect_snapshots(m["psys"], m["gauge"], [0.0, 1.0], 5,
                                  m["policy"])
        start = pod_init(snaps, 2)
        _, log = greedy_enrich(m["psys"], m["gauge"], start,
                               m["training"].greedy_set, 5, 1e-6, 12,
                               m["policy"])
        ev = _evaluator(m, start.Z)
        want = max(ev.estimate(float(t))[1].max()
                   for t in m["training"].greedy_set)
        assert log[0]["max_eta"] == pytest.approx(want, rel=1e-12)


class TestGreedy:
    def test_pod_only_when_tol_infinite(self, small_morph):
        m = small_morph
        snaps = collect_snapshots(m["psys"], m["gauge"], [0.0, 1.0], 5,
                                  m["policy"])
        start = pod_init(snaps, 4)
        basis, log = greedy_enrich(m["psys"], m["gauge"], start,
                                   m["training"].greedy_set, 5, np.inf, 12,
                                   m["policy"])
        assert basis.n_red == 4
        assert len(log) == 1
        assert log[0]["t"] is None and log[0]["mode"] is None

    def test_enrichment_reaches_tolerance(self, small_morph):
        m = small_morph
        snaps = collect_snapshots(m["psys"], m["gauge"], [0.0, 1.0], 5,
                                  m["policy"])
        start = pod_init(snaps, 2)   # deliberately too small
        basis, log = greedy_enrich(m["psys"], m["gauge"], start,
                                   m["training"].greedy_set, 5, 1e-6, 12,
                                   m["policy"])
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
        snaps = collect_snapshots(psys, cube3_gauge, [0.0, 0.5, 1.0], 5,
                                  small_morph["policy"])
        start = pod_init(snaps, "auto")
        # every candidate already lies in the span, so an unreachable
        # tolerance must exhaust the training set instead of looping
        basis, log = greedy_enrich(psys, cube3_gauge, start,
                                   np.linspace(0.1, 0.9, 5), 5, 1e-30, 10,
                                   small_morph["policy"])
        assert "candidates-exhausted" in basis.flags
        assert basis.n_red == start.n_red

    def test_bad_tolerance(self, small_morph, small_basis):
        m = small_morph
        with pytest.raises(ConfigError):
            greedy_enrich(m["psys"], m["gauge"], small_basis.basis,
                          [0.5], 5, 0.0, 12, m["policy"])


class TestBuildBasis:
    def test_reproduces_full_order_eigenvalues(self, small_morph, small_basis):
        m = small_morph
        ev = _evaluator(m, small_basis.basis.Z)
        for t in (0.1, 0.7):
            approx = ev.solve(t)[1].values[:5]
            pair = m["psys"].interpolate(t)
            want = solve_sparse_gevp(pair.A, pair.B, 5, m["policy"],
                                     salt=_salt_from_t(t)).values
            assert np.max(np.abs(approx - want) / want) < 1e-8

    def test_result_structure(self, small_basis):
        res = small_basis
        assert res.basis.gauge_mode == "mixed"
        assert len(res.basis.provenance) == res.basis.n_red
        assert set(res.phase_seconds) == {"projection", "pod", "greedy"}
        assert res.peak_dense_entries > 0
        assert res.log[-1]["n_red"] == res.basis.n_red

    def test_n_init_exceeding_n_max_rejected(self, small_morph):
        m = small_morph
        with pytest.raises(ConfigError):
            build_basis(m["psys"], m["gauge"], m["training"], 5, 20, 1e-6,
                        12, m["policy"])

    def test_classical_pipeline_agrees(self, small_morph, small_basis):
        m = small_morph
        classical = classical_pipeline(m["psys"], m["gauge"], m["training"],
                                       5, "auto", 1e-6, 12, m["policy"])
        assert classical.basis.gauge_mode == "classical"
        ev = _evaluator(m, classical.basis.Z)
        for t in (0.25,):
            approx = ev.solve(t)[1].values[:5]
            pair = m["psys"].interpolate(t)
            want = solve_sparse_gevp(pair.A, pair.B, 5, m["policy"],
                                     salt=_salt_from_t(t)).values
            assert np.max(np.abs(approx - want) / want) < 1e-8
        # the classical path materializes the dense cotree pencil, the
        # factored path never does
        assert small_basis.peak_dense_entries < classical.peak_dense_entries
        n = m["psys"].n
        n_cotree = m["gauge"].cotree.size
        assert classical.peak_dense_entries >= n_cotree ** 2
        assert small_basis.peak_dense_entries < n * n_cotree
        assert small_basis.peak_dense_entries < 10 * n * small_basis.basis.n_red


class TestStorageMeter:
    def test_peak_tracking(self):
        meter = StorageMeter()
        meter.alloc(100)
        with meter.hold(50):
            assert meter.current == 150
        meter.free(60)
        assert meter.current == 40
        assert meter.peak == 150

    def test_repeated_set_basis_leaves_meter_empty(self, small_morph):
        m = small_morph
        meter = StorageMeter()
        ev = _make_evaluator("mixed", m["psys"], m["gauge"], m["policy"], 5,
                             meter)
        rng = np.random.default_rng(5)
        for _ in range(3):
            ev.set_basis(np.linalg.qr(
                rng.standard_normal((m["gauge"].cotree.size, 3)))[0])
            ev.reduced_system(0.3)
        assert meter.current == 0

    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    def test_evaluations_hold_nothing_after_return(self, small_morph,
                                                   small_basis, gauge_mode):
        m = small_morph
        meter = StorageMeter()
        ev = _make_evaluator(gauge_mode, m["psys"], m["gauge"], m["policy"],
                             5, meter)
        ev.set_basis(small_basis.basis.Z)
        for call in (ev.reduced_system, ev.solve, ev.estimate, ev.snapshot):
            before = meter.current
            call(0.3)
            assert meter.current == before, call.__name__
        # the per-t data was on the meter while it was in use
        assert meter.peak > meter.current
