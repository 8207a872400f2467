"""Benchmark harness: phase-timed pipeline comparison and error studies.

Produces a versioned report with the seven phase rows of the runtime
comparison table, the per-mode average relative eigenvalue errors over
a random evaluation set, and the error-versus-basis-size sweep for both
gauge pipelines.  The test suite checks reports against their schema;
a run does not re-check its own.  The error study evaluates
the reduced pencil once per evaluation point at the full basis size and
solves its leading blocks for the smaller sizes; the per-mode error
table is the mixed sweep's full-size row.  One routine, _interleaved,
times every phase: the builds, the tracking paths and the EVP probes
each run once untimed, then alternate over the timed repetitions on the
monotonic clock, and the median is reported.  The memory peak of each
gauge's build comes from one more build under tracemalloc, outside
every timed repetition; it moves by a few hundred bytes between runs,
so it sits under ``timing``.  Per-phase failures are recorded in the report and
the remaining phases still run: when the mixed build fails, the reduced
tracking and EVP phases are recorded as skipped, and the classical
error sweep still runs.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .assembly import ParametrizedSystem, assemble, scatter_map
from .config import RunConfig, config_to_dict
from .eigen import SolverPolicy, solve_dense_gevp, solve_sparse_gevp
from .errors import ConfigError, NumericsError
from .gauge import GaugeDecomposition, build_tree
from .mesh import CavityMesh, build_mesh, discrete_gradient, dissection_order
from .rb import (BasisBuildResult, ReducedBasis, TrainingSets, _make_evaluator,
                 build_basis, make_training_sets)
from .reference import first_eigenvalue
from .tracking import TrackingRun, track_full, track_reduced

SCHEMA_VERSION = 2
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


@dataclass
class Problem:
    """Assembled morph plus the solver policy and training sets for cfg."""

    cfg: RunConfig
    mesh0: CavityMesh
    psys: ParametrizedSystem
    gauge: GaugeDecomposition
    policy: SolverPolicy
    training: TrainingSets

    def build(self, gauge_mode: str) -> BasisBuildResult:
        """Snapshots, POD and greedy through the gauge_mode pipeline."""
        cfg = self.cfg
        return build_basis(self.psys, self.gauge, self.training, cfg.K,
                           cfg.N_init, cfg.tol, cfg.N_max, self.policy,
                           gauge_mode=gauge_mode)

    def track(self, basis: ReducedBasis | None = None) -> TrackingRun:
        """Track the K modes over [0, 1]: on basis, else at full order."""
        cfg = self.cfg
        settings = dict(threshold=cfg.threshold,
                        initial_steps=cfg.initial_steps,
                        max_depth=cfg.max_depth, matching=cfg.matching,
                        buffer=cfg.track_buffer)
        if basis is None:
            return track_full(self.psys, cfg.K, self.policy, **settings)
        return track_reduced(self.psys, self.gauge, basis, cfg.K,
                             policy=self.policy, **settings)


def setup_problem(cfg: RunConfig) -> Problem:
    mesh0 = build_mesh(cfg.dims0, cfg.resolution)
    mesh1 = build_mesh(cfg.dims1, cfg.resolution)
    G = discrete_gradient(mesh0)
    # both endpoints share one topology, so one scatter map and pattern
    pattern = scatter_map(mesh0)
    psys = ParametrizedSystem(assemble(mesh0, pattern),
                              assemble(mesh1, pattern))
    gauge = build_tree(mesh0, G)
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
    return Problem(cfg=cfg, mesh0=mesh0, psys=psys, gauge=gauge,
                   policy=policy, training=training)


def reference_eigenvalues(problem: Problem, t_values) -> np.ndarray:
    """Full-order eigenvalues of the K physical modes, the mixed
    evaluator's modes(t); rows follow t_values, columns the K modes."""
    ev = _make_evaluator("mixed", problem.psys, problem.gauge,
                         problem.policy, problem.cfg.K)
    return np.array([ev.modes(float(t))[1].values for t in t_values])


def leading_block_eigenvalues(problem: Problem, basis: ReducedBasis,
                              t_values, sizes) -> np.ndarray:
    """Lowest K reduced eigenvalues for each leading basis size and t.

    Shape (len(sizes), len(t_values), K).  The t values are evaluated
    at the full size in one sweep (solve_many), and every smaller size
    solves the leading n x n block of that pencil.  The classical pencil's leading block is exactly the size-n
    pencil.  The mixed one lifts each column separately within the span
    of the full basis's lifts, so its leading block agrees with a size-n
    rebuild to the lifting tolerance (_LIFT_RTOL).  The evaluator is
    built with the basis, so a built mixed basis brings the lifted space
    its build ended with and the sweep lifts nothing unless a parameter
    fails the lifting certificate.
    """
    K = problem.cfg.K
    ev = _make_evaluator(basis.gauge_mode, problem.psys, problem.gauge,
                         problem.policy, K, basis=basis)
    out = np.empty((len(sizes), len(t_values), K))
    for row, ((A, B), full) in enumerate(ev.solve_many(t_values)):
        for i, n in enumerate(sizes):
            sol = full if n == basis.n_red else solve_dense_gevp(
                A[:n, :n], B[:n, :n])
            out[i, row] = sol.values[:K]
    return out


def _per_mode_error(approx: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(approx - reference) / reference, axis=0)


def trailing_average(values) -> np.ndarray:
    """Mean over a trailing window; smooths the error-versus-size curve."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(values.size):
        out[i] = values[max(0, i - _TRAILING_WINDOW + 1): i + 1].mean()
    return out


def error_sweep(problem: Problem, basis: ReducedBasis, t_values,
                reference: np.ndarray) -> tuple[dict, np.ndarray]:
    """Mean error over modes and evaluation set for nested leading bases.

    The basis columns are ordered by construction (POD by singular value,
    then greedy appends), so the leading n columns form the size-n basis
    of the same pipeline.  One evaluator serves the sweep: each
    evaluation point is evaluated once at the full basis size and every
    size solves the leading block of that pencil.  Also returns the
    full-size row: the average relative error of each mode.
    """
    sizes = list(range(problem.cfg.K, basis.n_red + 1))
    approx = leading_block_eigenvalues(problem, basis, t_values, sizes)
    per_mode = [_per_mode_error(a, reference) for a in approx]
    errors = [float(e.mean()) for e in per_mode]
    trail = trailing_average(errors)
    return {
        "sizes": sizes,
        "error_av": errors,
        "trailing": [float(x) for x in trail],
        # the level the curve settles at; the trailing average smooths the
        # descent but would drag pre-convergence values into short sweeps
        "plateau": float(errors[-1]),
    }, per_mode[-1]


def _tracking_summary(run: TrackingRun) -> dict:
    return {**run.summary(),
            "min_correlation": float(run.correlations.min())}


def _guarded(errors: dict, key: str, fn):
    """fn(), or None with its NumericsError recorded under errors[key]."""
    try:
        return fn()
    except NumericsError as exc:
        errors[key] = str(exc)
        return None


def _interleaved(paths: dict, reps: int, errors: dict,
                 warm_each: bool) -> dict:
    """Median timed seconds and the timed results of each surviving path.

    paths maps an error key to a callable returning anything but None.
    Each path first runs once untimed; the reps timed rounds then
    alternate between the paths so load transients hit all of them
    alike.  With warm_each, every timed call follows an untimed one of
    the same path, so the sample reflects warm-state cost, not the cache
    pollution left by the other paths.  A path that raises is recorded
    under its key and dropped.
    """
    live = {key: fn for key, fn in paths.items()
            if _guarded(errors, key, fn) is not None}
    samples = {key: [] for key in live}
    for _ in range(reps):
        for key, fn in list(live.items()):
            if warm_each and _guarded(errors, key, fn) is None:
                del live[key]
                continue
            tic = time.perf_counter()
            out = _guarded(errors, key, fn)
            seconds = time.perf_counter() - tic
            if out is None:
                del live[key]
            else:
                samples[key].append((seconds, out))
    return {key: (float(np.median([s for s, _ in samples[key]])),
                  [out for _, out in samples[key]])
            for key in live}


def peak_traced_bytes(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs, above
    what was allocated when it started; tracing is left as it was."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def run_bench(cfg: RunConfig, reps: int = DEFAULT_REPETITIONS) -> dict:
    """Execute both gauge pipelines, both tracking paths, and the error study."""
    if reps < 1:
        raise ConfigError("reps must be >= 1, got %r" % (reps,))
    problem = setup_problem(cfg)
    phase_errors = {}
    phase_seconds = {label: None for label in PHASE_LABELS}
    classical_phase_seconds = {label: None for label in
                               _BUILD_PHASE_LABEL.values()}
    build_seconds = {"mixed": None, "classical": None}
    peak_traced = {"mixed": None, "classical": None}
    n_red = {"mixed": None, "classical": None}
    tracking_info = {}
    error_rows = []
    sweep = {}

    # -- basis construction, both gauges ---------------------------------
    built = {}
    timed = _interleaved(
        {"build-" + mode: functools.partial(problem.build, mode)
         for mode in ("mixed", "classical")},
        reps, phase_errors, warm_each=False)
    for mode, target in (("mixed", phase_seconds),
                         ("classical", classical_phase_seconds)):
        if "build-" + mode not in timed:
            continue
        _, runs = timed["build-" + mode]
        built[mode] = res = runs[-1]
        for key, label in _BUILD_PHASE_LABEL.items():
            target[label] = float(np.median([r.phase_seconds[key]
                                             for r in runs]))
        build_seconds[mode] = float(np.median(
            [sum(r.phase_seconds.values()) for r in runs]))
        n_red[mode] = int(res.basis.n_red)
    for mode in built:
        peak_traced[mode] = peak_traced_bytes(
            functools.partial(problem.build, mode))
    mixed = built.get("mixed")
    if mixed is None:
        for key in ("tracking-reduced", "evp-rb"):
            phase_errors[key] = "skipped: mixed build failed"

    # -- tracking, both paths --------------------------------------------
    paths = {}
    if mixed is not None:
        paths["tracking-reduced"] = lambda: problem.track(mixed.basis)
    paths["tracking-full"] = problem.track
    timed = _interleaved(paths, reps, phase_errors, warm_each=True)
    for key, label, name in (
            ("tracking-reduced", PHASE_TRACK_RB, "reduced"),
            ("tracking-full", PHASE_TRACK_FULL, "full")):
        if key in timed:
            phase_seconds[label], runs = timed[key]
            tracking_info[name] = _tracking_summary(runs[-1])

    # -- single-solve EVP timings ----------------------------------------
    t_probe = 0.5
    pair = problem.psys.interpolate(t_probe)
    probes = {"evp-full": lambda: solve_sparse_gevp(
        pair.A, pair.B, cfg.K, problem.policy, t=t_probe)}
    if mixed is not None:
        pencil = _guarded(phase_errors, "evp-rb", lambda: _make_evaluator(
            "mixed", problem.psys, problem.gauge, problem.policy, cfg.K,
            basis=mixed.basis).solve_many([t_probe])[0][0])
        if pencil is not None:
            probes["evp-rb"] = lambda: solve_dense_gevp(*pencil)
    timed = _interleaved(probes, reps, phase_errors, warm_each=True)
    for key, label in (("evp-full", PHASE_EVP_FULL), ("evp-rb", PHASE_EVP_RB)):
        if key in timed:
            phase_seconds[label] = timed[key][0]

    # -- error study over the random evaluation set ----------------------
    eval_t = problem.training.eval_set
    reference = _guarded(phase_errors, "reference-solves",
                         lambda: reference_eigenvalues(problem, eval_t))
    if reference is not None:
        for mode, res in built.items():
            out = _guarded(phase_errors, "error-sweep-" + mode,
                           lambda: error_sweep(problem, res.basis, eval_t,
                                               reference))
            if out is None:
                continue
            sweep[mode], full_size_errors = out
            if mode == "mixed":
                error_rows = [{"mode": i + 1, "error_av": float(e)}
                              for i, e in enumerate(full_size_errors)]

    # -- ratios ----------------------------------------------------------
    def ratio(num, den):
        if num is None or den is None or den == 0.0:
            return None
        return float(num / den)

    timing_ratios = {
        "evp_full_over_rb": ratio(phase_seconds[PHASE_EVP_FULL],
                                  phase_seconds[PHASE_EVP_RB]),
        "tracking_full_over_rb": ratio(phase_seconds[PHASE_TRACK_FULL],
                                       phase_seconds[PHASE_TRACK_RB]),
        "classical_over_mixed_build": ratio(build_seconds["classical"],
                                            build_seconds["mixed"]),
    }

    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(cfg),
        "dof_counts": {
            "N": int(problem.mesh0.n_free_edges),
            "n_cotree": int(problem.gauge.cotree.size),
            "n_red_mixed": n_red["mixed"],
            "n_red_classical": n_red["classical"],
        },
        "error_table": error_rows,
        "error_sweep": sweep,
        "tracking": tracking_info,
        "timing": {
            "repetitions": int(reps),
            "phase_seconds": phase_seconds,
            "classical_phase_seconds": classical_phase_seconds,
            "build_seconds": build_seconds,
            "peak_traced_bytes": peak_traced,
            "ratios": timing_ratios,
        },
        "phase_errors": phase_errors,
    }


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
