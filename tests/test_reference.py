"""Analytic cavity eigenvalues against an independent enumeration."""

import os
import subprocess
import sys

import numpy as np
import pytest

import maxwell_rb
from maxwell_rb.errors import ConfigError
from maxwell_rb.reference import brick_eigenvalues, first_eigenvalue

from oracles import continuum_brick_eigenvalues


@pytest.mark.parametrize("dims", [(1.0, 1.0, 1.0), (1.0, 1.1, 1.2),
                                  (1.0, 1.1, 0.6), (0.5, 2.0, 3.0)])
def test_matches_enumeration(dims):
    got = brick_eigenvalues(dims, 25)
    want = continuum_brick_eigenvalues(dims, 25)
    assert got.shape == (25,)
    assert np.allclose(got, want, rtol=1e-12)


def test_unit_cube_structure():
    values = brick_eigenvalues((1.0, 1.0, 1.0), 8)
    two_pi2 = 2.0 * np.pi ** 2
    # (1,1,0)-type triple, then the doubly counted (1,1,1) pair
    assert np.allclose(values[:3], two_pi2, rtol=1e-13)
    assert np.allclose(values[3:5], 3.0 * np.pi ** 2, rtol=1e-13)
    assert values[5] > values[4] * 1.01


def test_first_eigenvalue_is_min():
    for dims in [(1.0, 1.0, 1.0), (1.0, 1.1, 0.6)]:
        assert first_eigenvalue(dims) == pytest.approx(
            brick_eigenvalues(dims, 1)[0]
        )


def test_bad_inputs():
    with pytest.raises(ConfigError):
        brick_eigenvalues((0.0, 1.0, 1.0), 3)
    with pytest.raises(ConfigError):
        brick_eigenvalues((1.0, 1.0, 1.0), 0)


# Each call runs in a child interpreter with a timeout, so that a walk
# that does not end fails the suite instead of hanging it.
_CHILD = """
from maxwell_rb.errors import ConfigError
from maxwell_rb.reference import brick_eigenvalues
inf = float("inf")
try:
    values = brick_eigenvalues(%r, 5)
except ConfigError:
    print("ConfigError")
else:
    print("finite" if all(0.0 < v < inf for v in values) else values)
"""


@pytest.mark.parametrize("dims,outcome", [
    ((1e200, 1e200, 1e200), "ConfigError"),   # every eigenvalue underflows
    ((1e-200, 1.0, 1.0), "finite"),           # modes along a stay infinite
    ((1.0, 1.0, 1e12), "finite"),
    ((1.0, 1.1, float("inf")), "ConfigError"),
])
def test_extreme_dims_return_or_raise(dims, outcome):
    src = os.path.dirname(os.path.dirname(maxwell_rb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CHILD % (dims,)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == outcome
