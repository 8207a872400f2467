"""Command-line front end: solve, build-basis, track, bench, export-matrices.

Heavy numeric imports happen inside main() so the --threads cap can be
exported to the BLAS runtime before anything loads it.  Exit codes:
0 success, 2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

from .config import (RunConfig, config_to_dict, default_config, load_config,
                     with_overrides)
from .errors import ConfigError, NumericsError
from .io_utils import (remove_if_exists, write_csv, write_json,
                       write_matrix_market)

log = logging.getLogger("maxwell_rb")

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _thread_count(text: str) -> int:
    """The --threads value: a positive integer in ASCII digits."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "expected a positive integer, got %r" % text)
    return int(text)


def _apply_thread_cap(argv) -> None:
    """Export --threads to the BLAS environment before numpy is imported."""
    threads = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif arg.startswith("--threads="):
            threads = arg.split("=", 1)[1]
    if threads is None:
        return
    try:
        _thread_count(threads)
    except argparse.ArgumentTypeError:
        return   # the parser rejects it with a usage error later
    for name in _THREAD_ENV_VARS:
        os.environ[name] = threads


def _configure_logging() -> None:
    level_name = os.environ.get("MAXWELL_RB_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    level = levels.get(level_name)
    if level is None:
        level = logging.INFO
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(message)s")
    if level_name not in levels:
        log.warning("unknown MAXWELL_RB_LOG value %r; using info", level_name)


def _build_parser() -> argparse.ArgumentParser:
    # No abbreviated long options: _apply_thread_cap reads --threads from
    # argv before parsing, so an abbreviation would parse but cap nothing.
    parser = argparse.ArgumentParser(
        prog="maxwell-rb",
        description="Tree-cotree gauged reduced-basis solver for the "
                    "parametrized Maxwell cavity eigenvalue problem.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, gauge=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH",
                       help="configuration file (flat key = value lines)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=_thread_count, metavar="N",
                       help="cap BLAS/OpenMP worker threads")
        p.add_argument("--output", metavar="DIR",
                       help="override the output directory")
        if gauge:
            p.add_argument("--gauge", choices=("classical", "mixed"),
                           help="override the gauge pipeline")
        return p

    p_solve = command("solve", "solve the K physical modes at one t")
    p_solve.add_argument("--t", type=float, default=0.0,
                         help="deformation parameter in [0, 1] (default 0)")
    p_solve.add_argument("--export", action="store_true",
                         help="write matrices, modes, and results to --output")

    command("build-basis", "snapshots, POD, and greedy enrichment")

    p_track = command("track", "track eigenvalues over t in [0, 1]")
    path = p_track.add_mutually_exclusive_group()
    path.add_argument("--reduced", dest="reduced", action="store_true",
                      default=True, help="track on the reduced system (default)")
    path.add_argument("--full", dest="reduced", action="store_false",
                      help="track on the full sparse system")

    command("bench", "phase-timed comparison of both pipelines")

    p_export = command("export-matrices", "write assembled endpoint systems",
                       gauge=False)
    p_export.add_argument("--t", type=float, default=None,
                          help="also export the interpolated pair at this t")

    return parser


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.output is not None:
        overrides["output"] = args.output
    if getattr(args, "gauge", None) is not None:
        overrides["gauge_mode"] = args.gauge
    if overrides:
        cfg = with_overrides(cfg, **overrides)
    return cfg


def _write_artifacts(cfg: RunConfig, writers: dict) -> list:
    """Call each writers[name](path) for its file in cfg.output.

    On any failure the files of the set already written are removed, so
    a run leaves either the whole set or none of it.  Returns the paths.
    """
    paths = [os.path.join(cfg.output, name) for name in writers]
    try:
        os.makedirs(cfg.output, exist_ok=True)
        for path, write in zip(paths, writers.values()):
            write(path)
    except BaseException:
        remove_if_exists(paths)
        raise
    return paths


def cmd_solve(cfg: RunConfig, t: float, export: bool) -> int:
    import numpy as np

    from .bench import setup_problem
    from .eigen import solve_dense_gevp, solve_sparse_gevp
    from .gauge import CotreeFamily, build_cotree_system, upscale
    from .rb import _salt_from_t

    problem = setup_problem(cfg)
    pair = problem.psys.interpolate(t)
    log.info("assembled %s: N=%d free edges, |C|=%d cotree DoFs",
             pair.geometry_tag, problem.mesh0.n_free_edges,
             problem.gauge.cotree.size)

    if cfg.gauge_mode == "mixed":
        sol = solve_sparse_gevp(pair.A, pair.B, cfg.K, problem.policy,
                                salt=_salt_from_t(t))
        values = sol.values
        vectors = sol.vectors
        residuals = sol.residual_norms
    else:
        cs = build_cotree_system(CotreeFamily(problem.psys, problem.gauge), t)
        dense = solve_dense_gevp(cs.A_hat, cs.B_hat, count=cfg.K)
        keep = dense.values > problem.policy.lambda_cut
        values = dense.values[keep][: cfg.K]
        vectors_hat = dense.vectors[:, keep][:, : cfg.K]
        vectors = upscale(problem.gauge, pair, vectors_hat)
        R = pair.A @ vectors - (pair.B @ vectors) * values[None, :]
        residuals = np.linalg.norm(R, axis=0)

    if values.size < cfg.K:
        raise NumericsError(
            "found only %d physical modes above the spectral cutoff, need %d"
            % (values.size, cfg.K)
        )

    print("t = %r  gauge = %s" % (t, cfg.gauge_mode))
    print("%-6s %-22s %s" % ("mode", "eigenvalue", "residual"))
    for i in range(cfg.K):
        print("%-6d %-22r %.3e" % (i + 1, float(values[i]), residuals[i]))

    if export:
        _write_artifacts(cfg, {
            "A_t.mtx": lambda p: write_matrix_market(p, pair.A, symmetric=True),
            "B_t.mtx": lambda p: write_matrix_market(p, pair.B, symmetric=True),
            "modes.mtx": lambda p: write_matrix_market(
                p, np.asarray(vectors[:, : cfg.K])),
            "solve.json": lambda p: write_json(p, {
                "schema_version": 1,
                "config": config_to_dict(cfg),
                "t": t,
                "gauge_mode": cfg.gauge_mode,
                "eigenvalues": [float(v) for v in values[: cfg.K]],
                "residual_norms": [float(r) for r in residuals[: cfg.K]],
            }),
        })
        log.info("exported matrices and modes to %s", cfg.output)
    return 0


def cmd_build_basis(cfg: RunConfig) -> int:
    from .bench import setup_problem

    problem = setup_problem(cfg)
    result = problem.build(cfg.gauge_mode)

    final_max_eta = result.log[-1]["max_eta"] if result.log else None
    paths = _write_artifacts(cfg, {
        "basis.mtx": lambda p: write_matrix_market(p, result.basis.Z),
        "provenance.json": lambda p: write_json(p, {
            "schema_version": 1,
            "config": config_to_dict(cfg),
            "gauge_mode": result.basis.gauge_mode,
            "n_red": result.basis.n_red,
            "n_cotree": int(problem.gauge.cotree.size),
            "n_free_edges": int(problem.mesh0.n_free_edges),
            "final_max_eta": final_max_eta,
            "flags": list(result.basis.flags),
            "pod_snapshot_t": list(result.snapshot_t),
            "columns": list(result.basis.provenance),
        }),
        "convergence_log.csv": lambda p: write_csv(
            p, ["iteration", "t", "mode", "max_eta", "n_red"],
            [[row["iteration"], row["t"], row["mode"], row["max_eta"],
              row["n_red"]] for row in result.log]),
    })

    print("gauge = %s  N_red = %d  final max eta = %r"
          % (result.basis.gauge_mode, result.basis.n_red, final_max_eta))
    print("phase seconds: projection %.3f  pod %.3f  greedy %.3f"
          % (result.phase_seconds["projection"], result.phase_seconds["pod"],
             result.phase_seconds["greedy"]))
    print("POD snapshots: %d of %d" % (len(result.snapshot_t), cfg.N_POD))
    log.info("wrote %s, %s, %s", *paths)
    return 0


def cmd_track(cfg: RunConfig, reduced: bool) -> int:
    from .bench import setup_problem

    problem = setup_problem(cfg)
    stem = "reduced" if reduced else "full"
    run = problem.track(problem.build(cfg.gauge_mode).basis if reduced
                        else None)

    header = (["t"]
              + ["lambda_%d" % (i + 1) for i in range(cfg.K)]
              + ["corr_%d" % (i + 1) for i in range(cfg.K)])
    record = {
        "schema_version": 1,
        "config": config_to_dict(cfg),
        "path": stem,
        **run.summary(),
        "permutations": [[int(j) for j in perm] for perm in run.permutations],
        "timing": {"wall_seconds": float(run.stats["wall_seconds"])},
    }
    paths = _write_artifacts(cfg, {
        "trajectory_%s.csv" % stem: lambda p: write_csv(p, header,
                                                        run.to_rows()),
        "track_%s.json" % stem: lambda p: write_json(p, record),
    })

    print("tracked %d modes over %d grid points (%s path); %d bisections"
          % (cfg.K, run.grid.size, stem, run.stats["bisection_count"]))
    log.info("wrote %s and %s", *paths)
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    from .bench import run_bench, render_report_table

    report = run_bench(cfg)
    paths = _write_artifacts(cfg, {
        "bench_report.json": lambda p: write_json(p, report),
        "error_sweep.csv": lambda p: _write_sweep_csv(p, report["error_sweep"]),
    })
    print(render_report_table(report), end="")
    log.info("wrote %s and %s", *paths)
    return 0 if not report["phase_errors"] else 3


def _write_sweep_csv(path: str, sweep: dict) -> None:
    sizes = sorted({n for data in sweep.values() for n in data["sizes"]})
    header = ["size"]
    for mode in ("mixed", "classical"):
        if mode in sweep:
            header += ["%s_error_av" % mode, "%s_trailing" % mode]
    rows = []
    for n in sizes:
        row = [n]
        for mode in ("mixed", "classical"):
            if mode not in sweep:
                continue
            data = sweep[mode]
            if n in data["sizes"]:
                i = data["sizes"].index(n)
                row += [data["error_av"][i], data["trailing"][i]]
            else:
                row += [None, None]
        rows.append(row)
    write_csv(path, header, rows)


def cmd_export_matrices(cfg: RunConfig, t) -> int:
    from .bench import setup_problem

    problem = setup_problem(cfg)
    systems = {"0": problem.psys.endpoint0, "1": problem.psys.endpoint1}
    if t is not None:
        systems["_t"] = problem.psys.interpolate(t)
    writers = {}
    for suffix, pair in systems.items():
        writers["A%s.mtx" % suffix] = functools.partial(
            write_matrix_market, matrix=pair.A, symmetric=True)
        writers["B%s.mtx" % suffix] = functools.partial(
            write_matrix_market, matrix=pair.B, symmetric=True)
    writers["matrices.json"] = lambda p: write_json(p, {
        "schema_version": 1,
        "config": config_to_dict(cfg),
        "n_free_edges": int(problem.mesh0.n_free_edges),
        "n_cotree": int(problem.gauge.cotree.size),
        "n_interior_vertices": int(problem.mesh0.n_interior_vertices),
        "nnz_A0": int(problem.psys.endpoint0.A.nnz),
        "nnz_B0": int(problem.psys.endpoint0.B.nnz),
        "t": t,
    })
    paths = _write_artifacts(cfg, writers)
    log.info("wrote endpoint systems and %s", paths[-1])
    print("exported %d matrix files to %s" % (len(paths) - 1, cfg.output))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _apply_thread_cap(argv)
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = _load_run_config(args)
        if args.command == "solve":
            return cmd_solve(cfg, args.t, args.export)
        if args.command == "build-basis":
            return cmd_build_basis(cfg)
        if args.command == "track":
            return cmd_track(cfg, args.reduced)
        if args.command == "bench":
            return cmd_bench(cfg)
        if args.command == "export-matrices":
            return cmd_export_matrices(cfg, args.t)
        parser.error("unknown command %r" % args.command)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericsError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
