"""Analytic resonance eigenvalues of an ideal rectangular (brick) cavity.

With the speed of light normalized to one, the eigenvalues of the
curl-curl problem on a brick with perfectly conducting walls are

    lambda = pi^2 * ((m/a)^2 + (n/b)^2 + (p/c)^2)

over integer index triples (m, n, p) with at least two nonzero entries;
triples with all three indices nonzero carry multiplicity two, triples
with exactly one zero carry multiplicity one.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ConfigError


def _square(x: float) -> float:
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def brick_eigenvalues(dims, count: int) -> np.ndarray:
    """Return the ``count`` smallest analytic eigenvalues, with multiplicity.

    Parameters
    ----------
    dims : sequence of three positive finite floats
        Edge lengths (a, b, c) of the brick.
    count : int
        Number of eigenvalues to return.

    The triples are visited best first from (1, 1, 0), (1, 0, 1) and
    (0, 1, 1), stepping one index up at a time: every valid triple is
    reached through valid triples of no larger value, so the walk costs
    O(count log count) whatever the aspect ratio.  Raises ConfigError if
    a returned eigenvalue is not a finite positive float.
    """
    a, b, c = (float(d) for d in dims)
    if not all(math.isfinite(d) and d > 0 for d in (a, b, c)):
        raise ConfigError("brick dimensions must be positive and finite, "
                          "got %r" % (tuple(dims),))
    if count < 1:
        raise ConfigError("count must be >= 1")

    def value(m, n, p):
        return math.pi**2 * (_square(m / a) + _square(n / b) + _square(p / c))

    heap = [(value(*t), t) for t in ((1, 1, 0), (1, 0, 1), (0, 1, 1))]
    heapq.heapify(heap)
    seen = {t for _, t in heap}
    values = []
    while len(values) < count:
        lam, (m, n, p) = heapq.heappop(heap)
        values.extend([lam] * (2 if m and n and p else 1))
        for step in ((m + 1, n, p), (m, n + 1, p), (m, n, p + 1)):
            if step not in seen:
                seen.add(step)
                heapq.heappush(heap, (value(*step), step))
    values = np.array(values[:count])
    if not (np.isfinite(values).all() and values[0] > 0.0):
        raise ConfigError(
            "brick dimensions %r give eigenvalues outside the floating-point "
            "range" % ((a, b, c),)
        )
    return values


def first_eigenvalue(dims) -> float:
    """Smallest analytic brick-cavity eigenvalue for the given edge lengths."""
    return float(brick_eigenvalues(dims, 1)[0])
