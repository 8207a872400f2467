"""Acceptance gate: one timed pass/fail criterion per test.

Each criterion prints a single summary line to the real stdout so the
verdicts stay visible under pytest's capture, then asserts every
collected check.  The benchmark-based criteria share one study of the
default configuration; its wall time is charged to each of them.
"""

import os
import time

import numpy as np
import pytest
import scipy.linalg

from maxwell_rb.assembly import ParametrizedSystem, assemble
from maxwell_rb.bench import run_bench
from maxwell_rb.cli import main
from maxwell_rb.config import default_config
from maxwell_rb.eigen import SolverPolicy, solve_dense_gevp, solve_sparse_gevp
from maxwell_rb.errors import ProjectionError
from maxwell_rb.gauge import CotreeProjector, build_cotree_system, build_tree, upscale
from maxwell_rb.mesh import build_mesh, discrete_gradient
from maxwell_rb.rb import _make_evaluator, _salt_from_t, classical_pipeline
from maxwell_rb.reference import first_eigenvalue
from maxwell_rb.tracking import track_reduced

_ZERO_SPLIT = 1e-6   # separates the gradient nullspace from physical modes


def _finish(number, name, tic, budget_seconds, failures, capsys):
    elapsed = time.perf_counter() - tic
    if elapsed > budget_seconds:
        failures.append("runtime %.1fs exceeded the %.0fs budget"
                        % (elapsed, budget_seconds))
    verdict = "FAIL" if failures else "PASS"
    # capture is suspended so the verdict always reaches the terminal
    with capsys.disabled():
        print("[%s] criterion %d: %s (%.2fs)" % (verdict, number, name, elapsed),
              flush=True)
    assert not failures, "criterion %d (%s): %s" % (number, name,
                                                    "; ".join(failures))


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def _dense_spectrum(pair):
    return scipy.linalg.eigh(pair.A.toarray(), pair.B.toarray(),
                             eigvals_only=True)


@pytest.fixture(scope="module")
def bench_study():
    tic = time.perf_counter()
    report = run_bench(default_config(), reps=5)
    return report, time.perf_counter() - tic


def test_criterion_1_spurious_mode_removal(small_morph, small_basis, capsys):
    tic = time.perf_counter()
    failures = []
    m = small_morph

    # ungauged pencils carry exactly one zero eigenvalue per interior
    # vertex; the gauged pencil and every reduced pencil carry none
    for dims, resolution in (((1.0, 1.0, 1.0), (2, 2, 2)),
                             ((1.0, 1.0, 1.0), (3, 3, 3)),
                             ((1.0, 1.1, 1.2), (3, 3, 3))):
        mesh = build_mesh(dims, resolution)
        pair = assemble(mesh)
        gauge = build_tree(mesh, discrete_gradient(mesh))
        policy = SolverPolicy.from_reference(first_eigenvalue(dims))
        spectrum = _dense_spectrum(pair)
        n_zero = int(np.sum(np.abs(spectrum) < _ZERO_SPLIT))
        _check(failures, n_zero == mesh.n_interior_vertices,
               "%s/%s: %d zero modes, expected %d"
               % (dims, resolution, n_zero, mesh.n_interior_vertices))
        cs = build_cotree_system(pair, gauge)
        gauged = solve_dense_gevp(cs.A_hat, cs.B_hat).values
        _check(failures, gauged.min() > policy.lambda_cut,
               "%s/%s: gauged pencil has eigenvalue %.3e below the cutoff"
               % (dims, resolution, gauged.min()))

    classical = classical_pipeline(m["psys"], m["gauge"], m["training"], 5,
                                   "auto", 1e-6, 12, m["policy"])
    for mode, built in (("mixed", small_basis), ("classical", classical)):
        ev = _make_evaluator(mode, m["psys"], m["gauge"], m["policy"], 5)
        ev.set_basis(built.basis.Z)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            values = ev.solve(t)[1].values
            _check(failures, values.min() > m["policy"].lambda_cut,
                   "%s reduced pencil at t=%g: eigenvalue %.3e below cutoff"
                   % (mode, t, values.min()))

    _finish(1, "spurious-mode removal", tic, 10.0, failures, capsys)


def test_criterion_2_gauge_spectral_equivalence(capsys):
    tic = time.perf_counter()
    failures = []
    for resolution in ((2, 2, 2), (3, 3, 3)):
        mesh = build_mesh((1.0, 1.0, 1.0), resolution)
        pair = assemble(mesh)
        gauge = build_tree(mesh, discrete_gradient(mesh))
        full = _dense_spectrum(pair)
        physical = np.sort(full[full > _ZERO_SPLIT])
        cs = build_cotree_system(pair, gauge)
        gauged = np.sort(solve_dense_gevp(cs.A_hat, cs.B_hat).values)
        _check(failures, physical.size == gauged.size,
               "%s: %d physical vs %d gauged eigenvalues"
               % (resolution, physical.size, gauged.size))
        if physical.size == gauged.size:
            rel = np.max(np.abs(physical - gauged) / physical)
            _check(failures, rel <= 1e-8,
                   "%s: spectra differ by %.3e relative" % (resolution, rel))
    _finish(2, "gauge spectral equivalence", tic, 5.0, failures, capsys)


def test_criterion_3_mixed_matches_projected_pencil(small_morph, capsys):
    tic = time.perf_counter()
    failures = []
    m = small_morph
    n_cotree = m["gauge"].cotree.size
    rng = np.random.default_rng(20240817)
    ev = _make_evaluator("mixed", m["psys"], m["gauge"], m["policy"], 5)
    for trial in range(20):
        Z, _ = np.linalg.qr(rng.standard_normal((n_cotree, 6)))
        t = float(rng.uniform())
        ev.set_basis(Z)
        red = ev.reduced_system(t)
        cs = build_cotree_system(m["psys"].interpolate(t), m["gauge"])
        for label, got, ref in (("stiffness", red.A_tilde, Z.T @ cs.A_hat @ Z),
                                ("mass", red.B_tilde, Z.T @ cs.B_hat @ Z)):
            rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            _check(failures, rel <= 1e-10,
                   "trial %d (%s, t=%.4f): mismatch %.3e relative"
                   % (trial, label, t, rel))
    _finish(3, "mixed equals projected cotree pencil", tic, 10.0, failures, capsys)


def test_criterion_4_projection_round_trip(cube3, cube3_pair, cube3_grad,
                                           cube3_gauge, capsys):
    tic = time.perf_counter()
    failures = []
    pair = cube3_pair
    values, vectors = scipy.linalg.eigh(pair.A.toarray(), pair.B.toarray())
    physical = vectors[:, values > _ZERO_SPLIT]
    _check(failures, physical.shape[1] == cube3_gauge.cotree.size,
           "expected %d physical modes, found %d"
           % (cube3_gauge.cotree.size, physical.shape[1]))

    projector = CotreeProjector(pair, cube3_gauge)
    v_hat, residuals = projector.project(physical)
    _check(failures, float(np.max(residuals)) <= 1e-9,
           "consistency residual %.3e exceeds 1e-9" % np.max(residuals))
    back = upscale(cube3_gauge, pair, v_hat)
    diff = back - physical
    B = pair.B
    err = np.sqrt(np.einsum("ij,ij->j", diff, B @ diff))
    norm = np.sqrt(np.einsum("ij,ij->j", physical, B @ physical))
    worst = float(np.max(err / norm))
    _check(failures, worst <= 1e-8,
           "round-trip relative B-norm error %.3e exceeds 1e-8" % worst)

    gradient = cube3_grad.G @ np.eye(cube3.n_interior_vertices)[:, 0]
    try:
        projector.project(gradient)
        failures.append("pure gradient input was not rejected")
    except ProjectionError:
        pass
    _finish(4, "projection round trip", tic, 5.0, failures, capsys)


def test_criterion_5_ground_truth_convergence(capsys):
    tic = time.perf_counter()
    failures = []
    exact = 2.0 * np.pi ** 2
    policy = SolverPolicy.from_reference(first_eigenvalue((1.0, 1.0, 1.0)))
    first_triplet = {}
    for resolution in ((4, 4, 4), (8, 8, 8)):
        mesh = build_mesh((1.0, 1.0, 1.0), resolution)
        pair = assemble(mesh)
        sol = solve_sparse_gevp(pair.A, pair.B, 5, policy)
        first_triplet[resolution] = sol.values[:3]
        if resolution == (8, 8, 8):
            rel = np.abs(sol.values[:3] - exact) / exact
            _check(failures, float(rel.max()) <= 0.05,
                   "lowest mode off by %.1f%% (5%% allowed)" % (100 * rel.max()))
            _check(failures, sol.values[3] > 1.05 * exact,
                   "fourth eigenvalue %.4f sits inside the first multiplet"
                   % sol.values[3])
    errors = {res: abs(float(np.mean(v)) - exact)
              for res, v in first_triplet.items()}
    ratio = errors[(4, 4, 4)] / errors[(8, 8, 8)]
    _check(failures, 3.0 <= ratio <= 5.0,
           "error ratio %.2f outside [3, 5] for the mesh refinement" % ratio)
    _finish(5, "finite element ground truth", tic, 60.0, failures, capsys)


def test_criterion_6_reduced_basis_convergence(bench_study, capsys):
    report, study_seconds = bench_study
    tic = time.perf_counter() - study_seconds
    failures = []
    _check(failures, report["config"]["eval_set_size"] == 50
           and report["config"]["K"] == 5,
           "study ran with a non-default evaluation setup")
    sweep = report["error_sweep"].get("mixed")
    _check(failures, sweep is not None, "mixed error sweep missing")
    if sweep is not None:
        errors = np.asarray(sweep["error_av"])
        sizes = np.asarray(sweep["sizes"])
        hits = sizes[errors < 1e-8]
        _check(failures, hits.size > 0 and int(hits.min()) <= 60,
               "average error never fell below 1e-8 within 60 basis vectors")
        trail = np.asarray(sweep["trailing"])
        _check(failures,
               bool(np.all(np.diff(trail) <= 1e-12 * np.abs(trail[:-1]))),
               "trailing-average error curve is not non-increasing")
        classical = report["error_sweep"].get("classical")
        _check(failures, classical is not None
               and sweep["plateau"] <= classical["plateau"],
               "mixed plateau does not reach the classical plateau")
    _finish(6, "reduced basis convergence", tic, 600.0, failures, capsys)


def test_criterion_7_runtime_ratios(bench_study, capsys):
    report, study_seconds = bench_study
    tic = time.perf_counter() - study_seconds
    failures = []
    _check(failures, report["phase_errors"] == {},
           "phases failed: %s" % sorted(report["phase_errors"]))
    _check(failures, report["timing"]["repetitions"] == 5,
           "timings must be medians over 5 repetitions")
    ratios = report["timing"]["ratios"]
    for key, bound in (("evp_full_over_rb", 20.0),
                       ("tracking_full_over_rb", 5.0),
                       ("classical_over_mixed_build", 2.0)):
        value = ratios.get(key)
        _check(failures, value is not None and value >= bound,
               "%s = %s, needs >= %gx" % (key, value, bound))
    _finish(7, "runtime ratios", tic, 900.0, failures, capsys)


def test_criterion_8_tracking_integrity(desk_cfg, desk_problem, desk_basis,
                                        capsys):
    tic = time.perf_counter()
    failures = []
    p = desk_problem
    cfg = desk_cfg
    run = track_reduced(p.psys, p.gauge, desk_basis.basis, cfg.K,
                        threshold=cfg.threshold,
                        initial_steps=cfg.initial_steps,
                        max_depth=cfg.max_depth, matching=cfg.matching,
                        buffer=cfg.track_buffer, policy=p.policy)
    _check(failures, float(run.correlations.min()) >= cfg.threshold,
           "matched correlation %.4f below %.2f"
           % (run.correlations.min(), cfg.threshold))
    for step, perm in enumerate(run.permutations):
        _check(failures, len(set(int(j) for j in perm)) == cfg.K,
               "matching at step %d is not injective" % step)

    for t, column in ((0.0, run.lambdas[:, 0]), (1.0, run.lambdas[:, -1])):
        pair = p.psys.interpolate(t)
        direct = solve_sparse_gevp(pair.A, pair.B, cfg.K + cfg.track_buffer,
                                   p.policy, salt=_salt_from_t(t)).values
        if t == 0.0:
            rel = np.max(np.abs(np.sort(column) - direct[: cfg.K])
                         / direct[: cfg.K])
            _check(failures, rel <= 1e-6,
                   "start point off by %.3e relative" % rel)
        else:
            # a trajectory may legitimately leave the lowest-K window, so
            # each endpoint must appear somewhere among the direct modes
            for value in column:
                rel = np.min(np.abs(direct - value) / value)
                _check(failures, rel <= 1e-6,
                       "end point %.6f missing from the direct spectrum "
                       "(off by %.3e)" % (value, rel))

    constant = ParametrizedSystem(p.psys.endpoint0, p.psys.endpoint0)
    still = track_reduced(constant, p.gauge, desk_basis.basis, cfg.K,
                          threshold=cfg.threshold,
                          initial_steps=cfg.initial_steps,
                          max_depth=cfg.max_depth, matching=cfg.matching,
                          buffer=cfg.track_buffer, policy=p.policy)
    _check(failures, still.stats["bisection_count"] == 0,
           "constant morph triggered %d bisections"
           % still.stats["bisection_count"])
    _finish(8, "tracking integrity", tic, 120.0, failures, capsys)


def test_criterion_9_build_determinism(tmp_path, capsys):
    tic = time.perf_counter()
    failures = []
    out = str(tmp_path / "out")
    names = ("provenance.json", "convergence_log.csv", "basis.mtx")
    snapshots = []
    for attempt in range(2):
        rc = main(["build-basis", "--output", out])
        _check(failures, rc == 0, "run %d exited with %d" % (attempt, rc))
        if rc == 0:
            snapshots.append({name: open(os.path.join(out, name), "rb").read()
                              for name in names})
    if len(snapshots) == 2:
        for name in names:
            _check(failures, snapshots[0][name] == snapshots[1][name],
                   "%s differs between identical runs" % name)
    _finish(9, "deterministic artifacts", tic, 600.0, failures, capsys)
