"""Every name the perfbench tracer wraps must still exist in the package,
and every count function must still read what it counts.

A renamed or moved function silently blanks the per-layer metrics that
hang off its hook, and so does a count function that no longer finds
the attribute it reads: the tracer records such a span's name in
``count_errors`` and carries on.  The tracer is therefore installed
here, once bare, once over a mixed and a classical 3^3 build and once
over both tracking paths, and its lists of absent hooks and failed
counts checked.  The allowed entries are known and documented:

- ``maxwell_rb.tracking.solve_dense_gevp`` predates the solver rework
  and has no target any more;
- ``maxwell_rb.eigen:SPDFactor.__init__`` and ``.solve`` (the
  ``eigen.mass_factor`` and ``eigen.mass_solve`` spans) have no target
  since the classical pencil takes its mass solves from one endpoint
  mass eigenbasis per build (``gauge.CotreeFamily``) and factors no
  parameter value.
"""

import importlib.util
import os
from dataclasses import replace

from maxwell_rb import bench, rb, tracking
from maxwell_rb.config import default_config, with_overrides

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")

_KNOWN_ABSENT = {"maxwell_rb.tracking.solve_dense_gevp",
                 "maxwell_rb.eigen:SPDFactor.__init__",
                 "maxwell_rb.eigen:SPDFactor.solve"}
_KNOWN_COUNT_ERRORS = set()


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_has_a_target():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert set(tracer.absent_hooks) - _KNOWN_ABSENT == set()
        assert tracer.present_spans
    finally:
        tracer.uninstall()


_CFG = with_overrides(default_config(), resolution=(3, 3, 3), N_POD=3,
                     N_train=4, N_max=12, initial_steps=4)


def _spans(module, tracer):
    return {span.name for root in tracer.roots for span in module.walk(root)}


def test_every_count_reads_its_target():
    module = _load_tracer()
    tracer = module.Tracer()
    cfg = _CFG
    try:
        tracer.install()
        problem = bench.setup_problem(cfg)
        # the workloads' entry points, looked up after the hooks went in
        results = [pipeline(problem.psys, problem.gauge, problem.training,
                            cfg.K, cfg.N_init, cfg.tol, cfg.N_max,
                            problem.policy)
                   for pipeline in (rb.build_basis, rb.classical_pipeline)]
    finally:
        tracer.uninstall()
    assert tracer.count_errors <= _KNOWN_COUNT_ERRORS
    seen = _spans(module, tracer)
    assert {"rb.build_basis", "rb.classical_pipeline", "eigen.sparse_solve",
            "gauge.project", "gauge.cotree_system", "eigen.dense_solve",
            "rb.snapshots", "rb.greedy"} <= seen
    # the classical family's endpoint mass eigensolve, all N values
    classical = [root for root in tracer.roots
                 if root.name == "rb.classical_pipeline"]
    names = [span.name for span in module.walk(classical[0])]
    assert problem.psys.n in [span.counts.get("dim")
                              for span in module.walk(classical[0])
                              if span.name == "eigen.dense_solve"]
    # a classical build forms the whole pencil only for its snapshots;
    # the batched estimates still solve each reduced pencil through the
    # hooked rb.solve_dense_gevp
    assert names.count("gauge.cotree_system") == len(results[1].snapshot_t)
    assert names.count("eigen.dense_solve") > problem.training.greedy_set.size
    # mesh.build_s, assembly.assemble_s and gauge.tree_s hang off
    # bench.build_mesh and bench.discrete_gradient, bench.assemble and
    # bench.build_tree; a set-up that went around them would read zero
    # instead of failing
    setups = [root for root in tracer.roots
              if root.name == "bench.setup_problem"]
    assert len(setups) == 1
    names = [span.name for span in module.walk(setups[0])]
    assert names.count("mesh.build") == 3
    assert names.count("assembly.assemble") == 2
    assert names.count("gauge.tree") == 1


def test_tracking_paths_are_traced():
    # online-10 and full-12 time these two entry points
    module = _load_tracer()
    tracer = module.Tracer()
    problem = bench.setup_problem(_CFG)
    basis = problem.build("mixed").basis
    settings = dict(threshold=_CFG.threshold,
                    initial_steps=_CFG.initial_steps,
                    max_depth=_CFG.max_depth, matching=_CFG.matching,
                    buffer=_CFG.track_buffer)
    try:
        tracer.install()
        reduced = [tracking.track_reduced(problem.psys, problem.gauge, b,
                                          _CFG.K, policy=problem.policy,
                                          **settings)
                   for b in (replace(basis, lifted=None), basis)]
        tracking.track_full(problem.psys, _CFG.K, problem.policy, **settings)
    finally:
        tracer.uninstall()
    assert tracer.count_errors <= _KNOWN_COUNT_ERRORS
    assert {"tracking.track", "eigen.sparse_solve",
            "eigen.dense_solve"} <= _spans(module, tracer)
    tracks = [root for root in tracer.roots if root.name == "tracking.track"]
    assert len(tracks) == 3
    # the reduced pass interpolates only where it lifts exactly, not at
    # every grid point; a pass on the built basis adopts the build's
    # lifted space and interpolates only at its online lift points
    for run, track, adopted in zip(reduced, tracks,
                                   (0, basis.lifted.lifts)):
        lifts = run.stats["lift_solves"]
        names = [span.name for span in module.walk(track)]
        assert names.count("assembly.interpolate") == lifts - adopted
        assert lifts < run.grid.size
        # the batched initial grid still solves each reduced pencil
        # through the hooked rb.solve_dense_gevp, once per grid point
        assert names.count("eigen.dense_solve") == run.grid.size
