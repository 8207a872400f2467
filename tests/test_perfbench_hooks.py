"""Every name the perfbench tracer wraps must still exist in the package.

A renamed or moved function silently blanks the per-layer metrics that
hang off its hook, so the tracer is installed here and its list of
absent hooks checked.  The one allowed absence is a hook that predates
the solver rework and has no target any more.
"""

import importlib.util
import os

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracer.py")

_KNOWN_ABSENT = {"maxwell_rb.tracking.solve_dense_gevp"}


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
