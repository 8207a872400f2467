"""The analytic first cavity eigenvalue against an independent enumeration."""

import itertools
import math

import pytest

from maxwell_rb.errors import ConfigError
from maxwell_rb.reference import first_eigenvalue

from oracles import continuum_brick_eigenvalues


@pytest.mark.parametrize("dims", [(1.0, 1.0, 1.0), (1.0, 1.1, 1.2),
                                  (1.0, 1.1, 0.6), (0.5, 2.0, 3.0)])
def test_matches_enumeration(dims):
    want = continuum_brick_eigenvalues(dims, 1)[0]
    assert first_eigenvalue(dims) == pytest.approx(want, rel=1e-12)


def test_first_eigenvalue_is_min():
    # the least of the enumeration's values, whichever axis is which
    for dims in [(1.0, 1.0, 1.0), (1.0, 1.1, 0.6), (0.5, 2.0, 3.0)]:
        values = continuum_brick_eigenvalues(dims, 25)
        first = first_eigenvalue(dims)
        assert first == pytest.approx(values.min(), rel=1e-12)
        assert {first_eigenvalue(p)
                for p in itertools.permutations(dims)} == {first}


def test_bad_inputs():
    for dims in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, math.nan)]:
        with pytest.raises(ConfigError, match="positive and finite"):
            first_eigenvalue(dims)


@pytest.mark.parametrize("dims,outcome", [
    ((1e200, 1e200, 1e200), "ConfigError"),   # every eigenvalue underflows
    ((1e-200, 1.0, 1.0), "finite"),           # modes along a stay infinite
    ((1.0, 1.0, 1e12), "finite"),
    ((1.0, 1.1, float("inf")), "ConfigError"),
])
def test_extreme_dims_return_or_raise(dims, outcome):
    if outcome == "ConfigError":
        with pytest.raises(ConfigError):
            first_eigenvalue(dims)
    else:
        assert 0.0 < first_eigenvalue(dims) < math.inf
