"""Independent references used across the test suite.

The closed forms are computed from first principles (tensor-product
structure of the brick cavity) without touching the package's assembly
or reference code, so agreement is evidence rather than tautology.
``reference_assemble`` is the general-purpose einsum assembly that the
reference-tensor kernel replaced; it shares only the reference shape
tables with the package.
"""

import numpy as np
import scipy.sparse as sp

from maxwell_rb.assembly import (_C_HAT, _DN, _LOCAL_TAIL, _QWEIGHTS, _W_HAT,
                                 SystemPair)
from maxwell_rb.errors import ConfigError, DegenerateCellError


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


def reference_assemble(mesh, geometry_tag=""):
    """Stiffness and mass on the free edges of ``mesh``, by batched
    ``np.linalg.inv``/``det``, ``einsum`` contractions and COO-to-CSR
    scatter (the package's assembly before the reference-tensor kernel).

    Raises DegenerateCellError if any cell's Jacobian determinant is not
    strictly positive at a quadrature point.
    """
    n = mesh.n_free_edges
    if n < 1:
        raise ConfigError(
            "mesh has no interior edge DoFs at resolution %r" % (mesh.resolution,)
        )

    X = mesh.vertices[mesh.cell_vertices]          # (nc, 8, 3)
    J = np.einsum("lqd,clm->cqmd", _DN, X)         # J[m,d] = dx_m/du_d
    detJ = np.linalg.det(J)
    if detJ.size and detJ.min() <= 0.0:
        c, q = np.unravel_index(int(np.argmin(detJ)), detJ.shape)
        raise DegenerateCellError(
            "non-positive Jacobian determinant %.3e in cell %d (quadrature point %d)"
            % (detJ[c, q], c, q)
        )

    Jinv = np.linalg.inv(J)
    metric_inv = np.einsum("cqdm,cqem->cqde", Jinv, Jinv)   # (J^T J)^{-1}
    metric = np.einsum("cqmd,cqme->cqde", J, J)             # J^T J

    Me = np.einsum(
        "aqd,cqde,bqe,cq,q->cab", _W_HAT, metric_inv, _W_HAT, detJ, _QWEIGHTS,
        optimize=True,
    )
    Ke = np.einsum(
        "aqd,cqde,bqe,cq,q->cab", _C_HAT, metric, _C_HAT, 1.0 / detJ, _QWEIGHTS,
        optimize=True,
    )

    # Sign local edges against the global tail < head orientation.
    tails = mesh.cell_vertices[:, _LOCAL_TAIL]
    global_tails = mesh.edges[mesh.cell_edges, 0]
    signs = np.where(global_tails == tails, 1.0, -1.0)
    ss = signs[:, :, None] * signs[:, None, :]
    Me *= ss
    Ke *= ss

    fidx = mesh.free_edge_index[mesh.cell_edges]   # (nc, 12), -1 on boundary
    rows = np.broadcast_to(fidx[:, :, None], Me.shape)
    cols = np.broadcast_to(fidx[:, None, :], Me.shape)
    keep = (rows >= 0) & (cols >= 0)
    rr = rows[keep]
    cc = cols[keep]

    B = sp.coo_matrix((Me[keep], (rr, cc)), shape=(n, n)).tocsr()
    A = sp.coo_matrix((Ke[keep], (rr, cc)), shape=(n, n)).tocsr()
    # The scatter pattern is structurally symmetric, so the transpose shares
    # it entry for entry; averaging the data removes roundoff skew.  Summing
    # duplicates leaves the indices a view into the scatter-sized buffer;
    # the copy keeps the endpoints compact.
    for M in (A, B):
        M.sort_indices()
        M.indices = M.indices.copy()
        M.data = (M.data + M.T.tocsr().data) * 0.5
    return SystemPair(A=A, B=B, n=n, geometry_tag=geometry_tag)
