"""Independent closed-form references used across the test suite.

Everything here is computed from first principles (tensor-product
structure of the brick cavity) without touching the package's assembly
or reference code, so agreement is evidence rather than tautology.
"""

import numpy as np


def continuum_brick_eigenvalues(dims, count):
    """Exact cavity eigenvalues pi^2 (m^2/a^2 + n^2/b^2 + p^2/c^2).

    Modes need at least two nonzero indices; triples with all three
    nonzero occur twice (two independent polarizations).
    """
    a, b, c = dims
    bound = 12
    vals = []
    for m in range(bound):
        for n in range(bound):
            for p in range(bound):
                nonzero = (m > 0) + (n > 0) + (p > 0)
                if nonzero < 2:
                    continue
                lam = np.pi ** 2 * ((m / a) ** 2 + (n / b) ** 2 + (p / c) ** 2)
                vals.extend([lam] * (2 if nonzero == 3 else 1))
    vals.sort()
    if count > len(vals):
        raise ValueError("mode bound too small for count=%d" % count)
    return np.array(vals[:count])


def discrete_brick_eigenvalues(dims, resolution, count=None):
    """Discrete curl-curl eigenvalues of the lowest-order edge-element
    discretization on a tensor grid.

    Separation of variables gives per-axis factors
    mu(k) = (6/h^2) (1 - cos(k pi h / L)) / (2 + cos(k pi h / L)),
    the 1D stiffness-to-mass eigenvalue ratio of linear elements on a
    uniform grid with h = L/n; cavity eigenvalues are sums of two or
    three factors with the same multiplicity rule as the continuum.
    """

    def mu(k, n, length):
        if k == 0:
            return 0.0
        h = length / n
        theta = np.pi * k / n
        return 6.0 / h ** 2 * (1.0 - np.cos(theta)) / (2.0 + np.cos(theta))

    a, b, c = dims
    nx, ny, nz = resolution
    vals = []
    for m in range(nx):
        for n in range(ny):
            for p in range(nz):
                nonzero = (m > 0) + (n > 0) + (p > 0)
                if nonzero < 2:
                    continue
                lam = mu(m, nx, a) + mu(n, ny, b) + mu(p, nz, c)
                vals.extend([lam] * (2 if nonzero == 3 else 1))
    vals.sort()
    out = np.array(vals)
    return out if count is None else out[:count]


def free_edge_count(resolution):
    """Edges not lying on the cavity boundary."""
    nx, ny, nz = resolution
    return (nx * (ny - 1) * (nz - 1) + (nx - 1) * ny * (nz - 1)
            + (nx - 1) * (ny - 1) * nz)


def interior_vertex_count(resolution):
    nx, ny, nz = resolution
    return (nx - 1) * (ny - 1) * (nz - 1)


def cotree_least_squares(A, B, cotree, v):
    """Dense least-squares solution of H^T v_hat = B v with H = A[C, :].

    Returns (v_hat, relative residual per column); A is symmetric, so
    H^T is the column block A[:, C].
    """
    Ht = np.asarray(A.todense())[:, cotree]
    rhs = np.asarray(B @ v)
    v_hat = np.linalg.lstsq(Ht, rhs, rcond=None)[0]
    rel = np.linalg.norm(Ht @ v_hat - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    return v_hat, rel
