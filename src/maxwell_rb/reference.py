"""Analytic first resonance eigenvalue of an ideal rectangular (brick) cavity.

With the speed of light normalized to one, the eigenvalues of the
curl-curl problem on a brick with perfectly conducting walls are

    lambda = pi^2 * ((m/a)^2 + (n/b)^2 + (p/c)^2)

over integer index triples (m, n, p) with at least two nonzero entries.
Raising an index never lowers the value, so the least eigenvalue is the
least of the three (1, 1, 0)-type triples; it anchors the solver's shift
and spectral cut.
"""

from __future__ import annotations

import math

from .errors import ConfigError


def _square(x: float) -> float:
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def first_eigenvalue(dims) -> float:
    """Smallest analytic brick-cavity eigenvalue for the edge lengths
    dims = (a, b, c).  Raises ConfigError if a length is not positive and
    finite, or if the eigenvalue is not a finite positive float."""
    a, b, c = (float(d) for d in dims)
    if not all(math.isfinite(d) and d > 0 for d in (a, b, c)):
        raise ConfigError("brick dimensions must be positive and finite, "
                          "got %r" % (tuple(dims),))
    value = min(math.pi**2 * (_square(m / a) + _square(n / b) + _square(p / c))
                for m, n, p in ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    if not 0.0 < value < math.inf:
        raise ConfigError(
            "brick dimensions %r give eigenvalues outside the floating-point "
            "range" % ((a, b, c),)
        )
    return value
