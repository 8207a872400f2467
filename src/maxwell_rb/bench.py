"""Benchmark harness: phase-timed pipeline comparison and error studies.

Produces a versioned report with the seven phase rows of the runtime
comparison table, dense-storage peaks, the per-mode average relative
eigenvalue errors over a random evaluation set, and the error-versus-
basis-size sweep for both gauge pipelines.  The error studies evaluate
the reduced pencil once per evaluation point at the full basis size and
solve its leading blocks for the smaller sizes.  Timing uses the monotonic
clock, with one warm-up execution excluded and the median over the
timed repetitions reported; per-phase failures are recorded in the
report and the remaining phases still run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import jsonschema

from .assembly import ParametrizedSystem, assemble
from .config import RunConfig, config_to_dict
from .eigen import SolverPolicy, solve_dense_gevp, solve_sparse_gevp
from .errors import NumericsError
from .gauge import GaugeDecomposition, build_tree
from .mesh import CavityMesh, build_mesh, discrete_gradient, dissection_order
from .rb import (BasisBuildResult, TrainingSets, _make_evaluator, _salt_from_t,
                 build_basis, classical_pipeline, make_training_sets)
from .reference import first_eigenvalue
from .tracking import TrackingRun, track_full, track_reduced

SCHEMA_VERSION = 1
DEFAULT_REPETITIONS = 5
_TRAILING_WINDOW = 3

PHASE_PROJECTION = "Projection to Cotree DoFs"
PHASE_POD = "POD"
PHASE_GREEDY = "Greedy"
PHASE_TRACK_RB = "Tracking (RB)"
PHASE_EVP_FULL = "EVP (full, cotree/sparse)"
PHASE_EVP_RB = "EVP (RB)"
PHASE_TRACK_FULL = "Tracking (full, sparse)"

PHASE_LABELS = (
    PHASE_PROJECTION,
    PHASE_POD,
    PHASE_GREEDY,
    PHASE_TRACK_RB,
    PHASE_EVP_FULL,
    PHASE_EVP_RB,
    PHASE_TRACK_FULL,
)

# build_basis phase keys -> report row labels
_BUILD_PHASE_LABEL = {
    "projection": PHASE_PROJECTION,
    "pod": PHASE_POD,
    "greedy": PHASE_GREEDY,
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version", "config", "dof_counts", "peak_dense_entries",
        "error_table", "error_sweep", "tracking", "timing", "phase_errors",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "config": {"type": "object"},
        "dof_counts": {
            "type": "object",
            "required": ["N", "n_cotree"],
            "properties": {
                "N": {"type": "integer", "minimum": 0},
                "n_cotree": {"type": "integer", "minimum": 0},
                "n_red_mixed": {"type": ["integer", "null"], "minimum": 0},
                "n_red_classical": {"type": ["integer", "null"], "minimum": 0},
            },
        },
        "peak_dense_entries": {
            "type": "object",
            "additionalProperties": {"type": ["integer", "null"], "minimum": 0},
        },
        "error_table": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["mode", "error_av"],
                "properties": {
                    "mode": {"type": "integer", "minimum": 1},
                    "error_av": {"type": "number", "minimum": 0},
                },
            },
        },
        "error_sweep": {"type": "object"},
        "tracking": {"type": "object"},
        "timing": {
            "type": "object",
            "required": ["repetitions", "phase_seconds"],
            "properties": {
                "repetitions": {"type": "integer", "minimum": 1},
                "phase_seconds": {
                    "type": "object",
                    "additionalProperties": {"type": ["number", "null"], "minimum": 0},
                },
            },
        },
        "phase_errors": {"type": "object"},
    },
}


def validate_report(report: dict) -> None:
    jsonschema.validate(report, REPORT_SCHEMA)


@dataclass
class Problem:
    """Assembled morph plus the solver policy and training sets for cfg."""

    cfg: RunConfig
    mesh0: CavityMesh
    mesh1: CavityMesh
    psys: ParametrizedSystem
    gauge: GaugeDecomposition
    policy: SolverPolicy
    training: TrainingSets


def setup_problem(cfg: RunConfig) -> Problem:
    mesh0 = build_mesh(cfg.dims0, cfg.resolution)
    mesh1 = build_mesh(cfg.dims1, cfg.resolution)
    grad = discrete_gradient(mesh0)
    tags = ["brick(%g x %g x %g)" % dims for dims in (cfg.dims0, cfg.dims1)]
    psys = ParametrizedSystem(assemble(mesh0, geometry_tag=tags[0]),
                              assemble(mesh1, geometry_tag=tags[1]))
    gauge = build_tree(mesh0, grad)
    # The shift must stay below the first physical eigenvalue at every t,
    # so anchor it to the smaller of the two endpoint references.
    policy = SolverPolicy.from_reference(
        min(first_eigenvalue(cfg.dims0), first_eigenvalue(cfg.dims1)),
        shift_fraction=cfg.shift_fraction,
        cut_fraction=cfg.cut_fraction,
        seed=cfg.seed,
        ordering=dissection_order(mesh0),
    )
    training = make_training_sets(cfg.N_POD, cfg.N_train,
                                  eval_size=cfg.eval_set_size, seed=cfg.seed)
    return Problem(cfg=cfg, mesh0=mesh0, mesh1=mesh1, psys=psys, gauge=gauge,
                   policy=policy, training=training)


def reference_eigenvalues(problem: Problem, t_values) -> np.ndarray:
    """Full-order sparse solves; rows follow t_values, columns the K modes."""
    K = problem.cfg.K
    out = np.empty((len(t_values), K))
    for row, t in enumerate(t_values):
        pair = problem.psys.interpolate(float(t))
        sol = solve_sparse_gevp(pair.A, pair.B, K, problem.policy,
                                salt=_salt_from_t(float(t)))
        out[row] = sol.values[:K]
    return out


def leading_block_eigenvalues(problem: Problem, basis_Z: np.ndarray,
                              gauge_mode: str, t_values, sizes) -> np.ndarray:
    """Lowest K reduced eigenvalues for each leading basis size and t.

    Shape (len(sizes), len(t_values), K).  The lifted columns are
    independent, so the size-n pencil is the leading n x n block of the
    full-size one: each t is evaluated once and every size slices it.
    """
    K = problem.cfg.K
    ev = _make_evaluator(gauge_mode, problem.psys, problem.gauge,
                         problem.policy, K)
    ev.set_basis(basis_Z)
    out = np.empty((len(sizes), len(t_values), K))
    for row, t in enumerate(t_values):
        for i, n in enumerate(sizes):
            out[i, row] = ev.solve(float(t), n)[1].values[:K]
    ev.release()
    return out


def _per_mode_error(approx: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(approx - reference) / reference, axis=0)


def error_table(problem: Problem, basis_Z: np.ndarray, gauge_mode: str,
                t_values, reference: np.ndarray) -> np.ndarray:
    """Average relative eigenvalue error per mode over the evaluation set."""
    approx = leading_block_eigenvalues(problem, basis_Z, gauge_mode, t_values,
                                       [basis_Z.shape[1]])
    return _per_mode_error(approx[0], reference)


def trailing_average(values) -> np.ndarray:
    """Mean over a trailing window; smooths the error-versus-size curve."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(values.size):
        out[i] = values[max(0, i - _TRAILING_WINDOW + 1): i + 1].mean()
    return out


def error_sweep(problem: Problem, basis_Z: np.ndarray, gauge_mode: str,
                t_values, reference: np.ndarray) -> dict:
    """Mean error over modes and evaluation set for nested leading bases.

    The basis columns are ordered by construction (POD by singular value,
    then greedy appends), so the leading n columns form the size-n basis
    of the same pipeline.  One evaluator serves the sweep: each
    evaluation point is evaluated once at the full basis size and every
    size solves the leading block of that pencil.
    """
    sizes = list(range(problem.cfg.K, basis_Z.shape[1] + 1))
    approx = leading_block_eigenvalues(problem, basis_Z, gauge_mode, t_values,
                                       sizes)
    errors = [float(_per_mode_error(a, reference).mean()) for a in approx]
    trail = trailing_average(errors)
    return {
        "sizes": sizes,
        "error_av": errors,
        "trailing": [float(x) for x in trail],
        # the level the curve settles at; the trailing average smooths the
        # descent but would drag pre-convergence values into short sweeps
        "plateau": float(errors[-1]),
    }


def _timed(fn) -> float:
    tic = time.perf_counter()
    fn()
    return time.perf_counter() - tic


def _tracking_summary(run: TrackingRun) -> dict:
    corr_min = (float(run.correlations.min())
                if run.correlations.size else 1.0)
    return {
        "grid_points": int(run.grid.size),
        "bisection_count": int(run.stats["bisection_count"]),
        "degenerate_steps": int(run.stats["degenerate_steps"]),
        "min_step": float(run.stats["min_step"]),
        "min_correlation": corr_min,
    }


def run_bench(cfg: RunConfig, reps: int = DEFAULT_REPETITIONS) -> dict:
    """Execute both gauge pipelines, both tracking paths, and the error study."""
    problem = setup_problem(cfg)
    phase_errors = {}
    phase_seconds = {label: None for label in PHASE_LABELS}
    classical_phase_seconds = {label: None for label in
                               (PHASE_PROJECTION, PHASE_POD, PHASE_GREEDY)}
    build_seconds = {"mixed": None, "classical": None}
    peak_dense = {"mixed": None, "classical": None}
    n_red = {"mixed": None, "classical": None}
    tracking_info = {}
    timing_ratios = {}
    error_rows = []
    sweep = {}

    results = {}

    def build(gauge_mode: str) -> BasisBuildResult:
        pipeline = build_basis if gauge_mode == "mixed" else classical_pipeline
        return pipeline(problem.psys, problem.gauge, problem.training,
                        cfg.K, cfg.N_init, cfg.tol, cfg.N_max, problem.policy)

    # -- basis construction, both gauges ---------------------------------
    # Warm-up runs (excluded from timing) also provide the basis objects
    # used downstream; the timed repetitions then alternate between the
    # two pipelines so load transients hit both measurements alike.
    for mode in ("mixed", "classical"):
        try:
            results[mode] = build(mode)
        except NumericsError as exc:
            phase_errors["build-" + mode] = str(exc)

    build_samples = {mode: [] for mode in results}
    for _ in range(reps):
        for mode, rows in build_samples.items():
            if "build-" + mode in phase_errors:
                continue
            try:
                res = build(mode)
            except NumericsError as exc:
                phase_errors["build-" + mode] = str(exc)
                continue
            phases = dict(res.phase_seconds)
            phases["total"] = sum(phases.values())
            rows.append(phases)
    for mode, rows in build_samples.items():
        if not rows or "build-" + mode in phase_errors:
            continue
        med = {k: float(np.median([r[k] for r in rows])) for k in rows[0]}
        build_seconds[mode] = med["total"]
        res = results[mode]
        peak_dense[mode] = int(res.peak_dense_entries)
        n_red[mode] = int(res.basis.n_red)
        target = (phase_seconds if mode == "mixed"
                  else classical_phase_seconds)
        for key, label in _BUILD_PHASE_LABEL.items():
            target[label] = med[key]

    mixed_result = results.get("mixed")
    classical_result = results.get("classical")

    # -- tracking, both paths --------------------------------------------
    # Same interleaving as the builds: alternate reduced and full runs.
    def run_reduced():
        return track_reduced(
            problem.psys, problem.gauge, mixed_result.basis, cfg.K,
            threshold=cfg.threshold, initial_steps=cfg.initial_steps,
            max_depth=cfg.max_depth, matching=cfg.matching,
            buffer=cfg.track_buffer, policy=problem.policy)

    def run_full_track():
        return track_full(
            problem.psys, cfg.K, problem.policy, threshold=cfg.threshold,
            initial_steps=cfg.initial_steps, max_depth=cfg.max_depth,
            matching=cfg.matching, buffer=cfg.track_buffer)

    reduced_ok = mixed_result is not None
    if not reduced_ok:
        phase_errors.setdefault("tracking-reduced", "skipped: mixed build failed")
    run_r = run_f = None
    if reduced_ok:
        try:
            run_r = run_reduced()   # warm-up
        except NumericsError as exc:
            phase_errors["tracking-reduced"] = str(exc)
            reduced_ok = False
    full_ok = True
    try:
        run_f = run_full_track()   # warm-up
    except NumericsError as exc:
        phase_errors["tracking-full"] = str(exc)
        full_ok = False

    # Each timed run follows an untimed one of the same path, so the
    # sample reflects warm-state cost, not the cache pollution left by
    # the other path in the alternation.
    times_r, times_f = [], []
    for _ in range(reps):
        if reduced_ok:
            try:
                run_reduced()
                tic = time.perf_counter()
                run_r = run_reduced()
                times_r.append(time.perf_counter() - tic)
            except NumericsError as exc:
                phase_errors["tracking-reduced"] = str(exc)
                reduced_ok = False
        if full_ok:
            try:
                run_full_track()
                tic = time.perf_counter()
                run_f = run_full_track()
                times_f.append(time.perf_counter() - tic)
            except NumericsError as exc:
                phase_errors["tracking-full"] = str(exc)
                full_ok = False
    if reduced_ok:
        phase_seconds[PHASE_TRACK_RB] = float(np.median(times_r))
        tracking_info["reduced"] = _tracking_summary(run_r)
    if full_ok:
        phase_seconds[PHASE_TRACK_FULL] = float(np.median(times_f))
        tracking_info["full"] = _tracking_summary(run_f)

    # -- single-solve EVP timings ----------------------------------------
    t_probe = 0.5
    evp_full_ok = False
    try:
        pair = problem.psys.interpolate(t_probe)

        def evp_full():
            solve_sparse_gevp(pair.A, pair.B, cfg.K, problem.policy,
                              salt=_salt_from_t(t_probe))

        evp_full()   # warm-up
        evp_full_ok = True
    except NumericsError as exc:
        phase_errors["evp-full"] = str(exc)

    evp_rb_ok = False
    if mixed_result is not None:
        try:
            ev = _make_evaluator("mixed", problem.psys, problem.gauge,
                                 problem.policy, cfg.K)
            ev.set_basis(mixed_result.basis.Z)
            red, _ = ev.solve(t_probe)   # doubles as the warm-up
            ev.release()

            def evp_rb():
                solve_dense_gevp(red.A_tilde, red.B_tilde)

            evp_rb_ok = True
        except NumericsError as exc:
            phase_errors["evp-rb"] = str(exc)

    # Warm call before each timed call, as in the tracking loop.
    times_full, times_rb = [], []
    for _ in range(reps):
        if evp_full_ok:
            evp_full()
            times_full.append(_timed(evp_full))
        if evp_rb_ok:
            evp_rb()
            times_rb.append(_timed(evp_rb))
    if evp_full_ok:
        phase_seconds[PHASE_EVP_FULL] = float(np.median(times_full))
    if evp_rb_ok:
        phase_seconds[PHASE_EVP_RB] = float(np.median(times_rb))

    # -- error study over the random evaluation set ----------------------
    eval_t = problem.training.eval_set
    reference = None
    try:
        reference = reference_eigenvalues(problem, eval_t)
    except NumericsError as exc:
        phase_errors["reference-solves"] = str(exc)

    if reference is not None and mixed_result is not None:
        try:
            per_mode = error_table(problem, mixed_result.basis.Z, "mixed",
                                   eval_t, reference)
            error_rows = [{"mode": i + 1, "error_av": float(e)}
                          for i, e in enumerate(per_mode)]
        except NumericsError as exc:
            phase_errors["error-table"] = str(exc)

        for mode, res in (("mixed", mixed_result), ("classical", classical_result)):
            if res is None:
                continue
            try:
                sweep[mode] = error_sweep(problem, res.basis.Z, mode,
                                          eval_t, reference)
            except NumericsError as exc:
                phase_errors["error-sweep-" + mode] = str(exc)

    # -- ratios ----------------------------------------------------------
    def ratio(num, den):
        if num is None or den is None or den == 0.0:
            return None
        return float(num / den)

    timing_ratios["evp_full_over_rb"] = ratio(
        phase_seconds[PHASE_EVP_FULL], phase_seconds[PHASE_EVP_RB])
    timing_ratios["tracking_full_over_rb"] = ratio(
        phase_seconds[PHASE_TRACK_FULL], phase_seconds[PHASE_TRACK_RB])
    timing_ratios["classical_over_mixed_build"] = ratio(
        build_seconds["classical"], build_seconds["mixed"])

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(cfg),
        "dof_counts": {
            "N": int(problem.mesh0.n_free_edges),
            "n_cotree": int(problem.gauge.cotree.size),
            "n_red_mixed": n_red["mixed"],
            "n_red_classical": n_red["classical"],
        },
        "peak_dense_entries": peak_dense,
        "error_table": error_rows,
        "error_sweep": sweep,
        "tracking": tracking_info,
        "timing": {
            "repetitions": int(reps),
            "phase_seconds": phase_seconds,
            "classical_phase_seconds": classical_phase_seconds,
            "build_seconds": build_seconds,
            "ratios": timing_ratios,
        },
        "phase_errors": phase_errors,
    }
    validate_report(report)
    return report


def render_report_table(report: dict) -> str:
    """Human-readable phase table plus the headline ratios and errors."""
    lines = []
    counts = report["dof_counts"]
    lines.append("DoFs: N=%d  |C|=%d  N_red(mixed)=%s  N_red(classical)=%s"
                 % (counts["N"], counts["n_cotree"],
                    counts["n_red_mixed"], counts["n_red_classical"]))
    lines.append("")
    width = max(len(label) for label in PHASE_LABELS)
    lines.append("%-*s  %s" % (width, "Phase", "median seconds"))
    for label in PHASE_LABELS:
        value = report["timing"]["phase_seconds"][label]
        text = "failed" if value is None else "%.6f" % value
        lines.append("%-*s  %s" % (width, label, text))
    lines.append("")
    ratios = report["timing"]["ratios"]
    for key, label in (("evp_full_over_rb", "EVP speedup (full/RB)"),
                       ("tracking_full_over_rb", "Tracking speedup (full/RB)"),
                       ("classical_over_mixed_build", "Build ratio (classical/mixed)")):
        value = ratios.get(key)
        lines.append("%s: %s" % (label, "n/a" if value is None else "%.1fx" % value))
    if report["error_table"]:
        lines.append("")
        lines.append("Average relative eigenvalue errors (reduced vs full order):")
        for row in report["error_table"]:
            lines.append("  mode %d: %.3e" % (row["mode"], row["error_av"]))
    for mode in ("mixed", "classical"):
        sweep = report["error_sweep"].get(mode)
        if sweep:
            lines.append("%s gauge error plateau: %.3e" % (mode, sweep["plateau"]))
    if report["phase_errors"]:
        lines.append("")
        lines.append("Phase failures:")
        for name, message in sorted(report["phase_errors"].items()):
            lines.append("  %s: %s" % (name, message))
    return "\n".join(lines) + "\n"
