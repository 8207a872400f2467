"""Independent references used across the test suite.

The closed forms are computed from first principles (tensor-product
structure of the brick cavity) without touching the package's assembly
or reference code, so agreement is evidence rather than tautology.
``reference_assemble`` is the general-purpose einsum assembly that the
reference-tensor kernel replaced.  ``reference_build_mesh``,
``reference_discrete_gradient`` and ``reference_shape_tables`` are frozen
copies of the axis-by-axis mesh and reference-cell code that the
per-axis rule in ``maxwell_rb.mesh`` replaced; ``reference_assemble``
reads only these frozen tables, so no oracle shares code with the
package beyond its result containers.  ``reference_build_tree`` and
``reference_dissection_order`` are frozen copies of the queue-driven
breadth-first search and the recursive nested dissection that the
level-synchronous array kernels replaced, and ``reference_scatter`` of
the bincount scatter that the signed sparse scatter matrix replaced.
``reference_degenerate_clusters`` is the frozen loop that grouped
tracking's equal eigenvalues before the grouping became one split, and
``reference_split_clusters`` that split, before it became slicing;
``reference_surviving_free`` is the regrouping of each free cluster on
its own accepted values that cutting it by the solve's groups replaced.
``reference_sliced_clusters`` is that slicing itself, before each
solution was grouped once in plain Python, and ``reference_track`` the
tracking loop that grouped every step's solution with it (a retried
step's again), scanned for free and aligned clusters with
``np.array_equal`` and aligned through separate SVD and rotation
helpers, before one Procrustes routine did all three alignments.
``reference_greedy_match`` is the K-pass argmax matching that one sorted
walk replaced, and ``reference_gaps`` the per-value np.delete loop of the
estimator's gaps.  ``reference_eigh`` and ``reference_cholesky_solve``
are the scipy.linalg wrappers (``eigh``, ``cho_factor``/``cho_solve``)
that the small dense solves called before they called LAPACK directly.
``reference_cotree_system`` is the frozen classical pencil of a single
system pair, W = B^{-1} H^T through a dense Cholesky factor of B and one
|C|-column potrs, from before one endpoint mass eigenbasis served every
parameter value; ``reference_cotree_reduction`` lifts only the columns
of a basis the same way and reduces the pencil on it.
``reference_upscale`` lifts cotree coordinates back to the full space,
v = B^{-1} H^T v_hat, through a sparse LU factor of B; the projection
round trips are checked against it.
``reference_mgs_orthogonalize`` is the column-by-column
modified Gram-Schmidt loop, with one extra pass, that orthogonalized
greedy's appended columns before one block projection served greedy,
POD saturation and the lifted spaces.
``reference_ungauged_basis`` and ``reference_ungauged_pencil`` are the
reduction that neither gauge makes: the sparse modes at the snapshot
parameters, orthonormalized in full edge space, and A(t), B(t) reduced
on them.  It is frozen here, not in the package, as the input on which
the spurious modes that the gauges remove show.
"""

from collections import deque

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import linear_sum_assignment

from maxwell_rb.assembly import SystemPair
from maxwell_rb.errors import (ConfigError, DegenerateCellError,
                               FactorizationError, NumericsError,
                               TrackingError)
from maxwell_rb.mesh import CavityMesh
from maxwell_rb.tracking import TrackingRun

# Local edge order of the frozen mesh: four x-directed edges at the (y,z)
# corner offsets below, then four y-directed at (x,z), then four
# z-directed at (x,y).
_CORNER_OFFSETS = [(0, 0), (1, 0), (0, 1), (1, 1)]

# Local tail corner (l = i + 2j + 4k) per edge slot.
_LOCAL_TAIL = np.array(
    [2 * j + 4 * k for j, k in _CORNER_OFFSETS]
    + [i + 4 * k for i, k in _CORNER_OFFSETS]
    + [i + 2 * j for i, j in _CORNER_OFFSETS]
)


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


def reference_assemble(mesh):
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
    return SystemPair(A=A, B=B, n=n)


def reference_build_mesh(dims, resolution):
    """The structured brick mesh, built one axis at a time."""
    a, b, c = (float(d) for d in dims)
    nx, ny, nz = (int(r) for r in resolution)
    nvx, nvy, nvz = nx + 1, ny + 1, nz + 1

    def vid(ix, iy, iz):
        return ix + nvx * (iy + nvy * iz)

    zs = np.linspace(0.0, c, nvz)
    ys = np.linspace(0.0, b, nvy)
    xs = np.linspace(0.0, a, nvx)
    zg, yg, xg = np.meshgrid(zs, ys, xs, indexing="ij")
    vertices = np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])

    iz, iy, ix = np.meshgrid(
        np.arange(nvz), np.arange(nvy), np.arange(nvx), indexing="ij"
    )
    boundary_vertex = (
        (ix == 0) | (ix == nx) | (iy == 0) | (iy == ny) | (iz == 0) | (iz == nz)
    ).ravel()

    # Edge blocks, each flattened with x fastest.
    ez, ey, ex = np.meshgrid(np.arange(nvz), np.arange(nvy), np.arange(nx), indexing="ij")
    tails_x = vid(ex, ey, ez).ravel()
    heads_x = vid(ex + 1, ey, ez).ravel()
    bnd_x = ((ey == 0) | (ey == ny) | (ez == 0) | (ez == nz)).ravel()

    ez, ey, ex = np.meshgrid(np.arange(nvz), np.arange(ny), np.arange(nvx), indexing="ij")
    tails_y = vid(ex, ey, ez).ravel()
    heads_y = vid(ex, ey + 1, ez).ravel()
    bnd_y = ((ex == 0) | (ex == nx) | (ez == 0) | (ez == nz)).ravel()

    ez, ey, ex = np.meshgrid(np.arange(nz), np.arange(nvy), np.arange(nvx), indexing="ij")
    tails_z = vid(ex, ey, ez).ravel()
    heads_z = vid(ex, ey, ez + 1).ravel()
    bnd_z = ((ex == 0) | (ex == nx) | (ey == 0) | (ey == ny)).ravel()

    edges = np.column_stack(
        [
            np.concatenate([tails_x, tails_y, tails_z]),
            np.concatenate([heads_x, heads_y, heads_z]),
        ]
    ).astype(np.int64)
    boundary_edge = np.concatenate([bnd_x, bnd_y, bnd_z])

    n_x_edges = nx * nvy * nvz
    n_y_edges = ny * nvx * nvz

    cz, cy, cx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    cx = cx.ravel()
    cy = cy.ravel()
    cz = cz.ravel()
    n_cells = cx.size

    cell_edges = np.empty((n_cells, 12), dtype=np.int64)
    for slot, (j, k) in enumerate(_CORNER_OFFSETS):
        cell_edges[:, slot] = cx + nx * ((cy + j) + nvy * (cz + k))
    for slot, (i, k) in enumerate(_CORNER_OFFSETS):
        cell_edges[:, 4 + slot] = n_x_edges + (cx + i) + nvx * (cy + ny * (cz + k))
    for slot, (i, j) in enumerate(_CORNER_OFFSETS):
        cell_edges[:, 8 + slot] = (
            n_x_edges + n_y_edges + (cx + i) + nvx * ((cy + j) + nvy * cz)
        )

    cell_vertices = np.empty((n_cells, 8), dtype=np.int64)
    for k in (0, 1):
        for j in (0, 1):
            for i in (0, 1):
                cell_vertices[:, i + 2 * j + 4 * k] = vid(cx + i, cy + j, cz + k)

    free_edge_index = np.full(edges.shape[0], -1, dtype=np.int64)
    free = ~boundary_edge
    free_edge_index[free] = np.arange(int(free.sum()))

    interior_vertex_index = np.full(vertices.shape[0], -1, dtype=np.int64)
    interior = ~boundary_vertex
    interior_vertex_index[interior] = np.arange(int(interior.sum()))

    return CavityMesh(
        dims=(a, b, c),
        resolution=(nx, ny, nz),
        vertices=vertices,
        edges=edges,
        cell_vertices=cell_vertices,
        cell_edges=cell_edges,
        boundary_vertex=boundary_vertex,
        boundary_edge=boundary_edge,
        free_edge_index=free_edge_index,
        interior_vertex_index=interior_vertex_index,
    )


def reference_discrete_gradient(mesh):
    """Incidence operator G, free edges by interior vertices, entries +-1."""
    n = mesh.n_free_edges
    nv = mesh.n_interior_vertices
    free_ids = mesh.free_edges
    tails = mesh.edges[free_ids, 0]
    heads = mesh.edges[free_ids, 1]

    rows = []
    cols = []
    vals = []
    head_int = mesh.interior_vertex_index[heads]
    tail_int = mesh.interior_vertex_index[tails]
    row_ids = np.arange(n)

    mask = head_int >= 0
    rows.append(row_ids[mask])
    cols.append(head_int[mask])
    vals.append(np.ones(int(mask.sum())))

    mask = tail_int >= 0
    rows.append(row_ids[mask])
    cols.append(tail_int[mask])
    vals.append(-np.ones(int(mask.sum())))

    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, nv),
    ).tocsr()


def reference_build_tree(mesh, G):
    """(tree, cotree, G_tree, G_cotree) by a FIFO breadth-first search
    from the boundary super-node: vertices in ascending id order, edges
    in ascending free-edge order."""
    n = mesh.n_free_edges
    free_ids = mesh.free_edges
    tails = mesh.edges[free_ids, 0]
    heads = mesh.edges[free_ids, 1]

    adjacency = [[] for _ in range(mesh.vertices.shape[0])]
    for fe in range(n):
        adjacency[tails[fe]].append(fe)
        adjacency[heads[fe]].append(fe)

    visited = mesh.boundary_vertex.copy()
    tree_edges = []
    parent_vertices = []
    queue = deque()

    def sweep(vertex):
        for fe in adjacency[vertex]:
            other = heads[fe] if tails[fe] == vertex else tails[fe]
            if not visited[other]:
                visited[other] = True
                tree_edges.append(fe)
                parent_vertices.append(other)
                queue.append(other)

    for v in np.flatnonzero(mesh.boundary_vertex):
        sweep(v)
    while queue:
        sweep(queue.popleft())

    if len(parent_vertices) != mesh.n_interior_vertices:
        raise NumericsError("interior vertices disconnected from the boundary")
    tree = np.array(tree_edges, dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[tree] = True
    cotree = np.flatnonzero(~in_tree)
    parent_order = mesh.interior_vertex_index[np.array(parent_vertices, dtype=np.int64)]
    G = G.tocsr()[:, parent_order]
    return tree, cotree, G[tree], G[cotree]


def reference_dissection_order(mesh, leaf=64):
    """Nested-dissection permutation of the free edges by recursion:
    left half, right half, separator; leaves of at most ``leaf`` edges."""
    nvx, nvy = mesh.resolution[0] + 1, mesh.resolution[1] + 1
    ends = mesh.edges[mesh.free_edges]
    index = np.stack([ends % nvx, (ends // nvx) % nvy, ends // (nvx * nvy)],
                     axis=-1)
    doubled = index.sum(axis=1)             # (n_free_edges, 3): 2 x midpoint

    order = []

    def dissect(edges):
        coords = doubled[edges]
        # vertex planes strictly inside the box: even coordinates in (lo, hi)
        first = coords.min(axis=0) // 2 + 1
        last = (coords.max(axis=0) - 1) // 2
        axis = int(np.argmax(last - first))
        if edges.size <= leaf or first[axis] > last[axis]:
            order.append(edges)
            return
        along = coords[:, axis]
        plane = 2 * int(np.clip(np.rint(np.median(along) / 2),
                                first[axis], last[axis]))
        dissect(edges[along < plane])
        dissect(edges[along > plane])
        order.append(edges[along == plane])

    dissect(np.arange(mesh.n_free_edges))
    return np.concatenate(order)


def reference_scatter(mesh, E):
    """CSR (indptr, indices, data) of the element entries E (n_cells, 78),
    a <= b in row-major order, by one weighted bincount per matrix."""
    upper_a, upper_b = np.triu_indices(12)
    pair = np.zeros((12, 12), dtype=np.int64)
    pair[upper_a, upper_b] = pair[upper_b, upper_a] = np.arange(upper_a.size)
    n = mesh.n_free_edges
    fidx = mesh.free_edge_index[mesh.cell_edges]
    nc = fidx.shape[0]
    n_pairs = upper_a.size
    bits = ((nc + 1) * n_pairs).bit_length()

    f = fidx.ravel()
    order = np.argsort(f)
    counts = np.bincount(f + 1, minlength=n + 1)
    order = order[counts[0]:]
    counts = counts[1:]
    rows = f[order]
    inc = np.full((n, int(counts.max())), 12 * nc)
    inc[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = order

    col = np.vstack([fidx, np.full((1, 12), -1)])
    cell = np.where(col >= 0, np.arange(nc + 1)[:, None], nc)
    cell_key = (col << bits) + cell * n_pairs
    key = np.take(cell_key, inc // 12, axis=0)
    key += np.take(pair, inc % 12, axis=0)
    key = key.reshape(n, -1)
    key.sort(axis=1)

    source = key & ((1 << bits) - 1)
    key >>= bits
    first = np.empty(key.shape, dtype=bool)
    first[:, 0] = key[:, 0] >= 0
    np.not_equal(key[:, 1:], key[:, :-1], out=first[:, 1:])
    indices = key[first].astype(np.int32)
    slot = np.cumsum(first, axis=None, out=key.ravel())
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = key[:, -1]

    tails = mesh.cell_vertices[:, _LOCAL_TAIL]
    sign = np.where(mesh.edges[mesh.cell_edges, 0] == tails, 1.0, -1.0)
    signed = np.zeros((nc + 1, n_pairs))
    signed[:nc] = E * (sign[:, upper_a] * sign[:, upper_b])
    data = np.bincount(slot, np.take(signed, source.ravel()), indices.size + 1)[1:]
    return indptr, indices, data


def reference_shape_tables():
    """Shape values, curls and trilinear gradients at the 2x2x2 Gauss
    points, written out one edge direction at a time."""
    g = 0.5 / np.sqrt(3.0)
    pts_1d = np.array([0.5 - g, 0.5 + g])
    qp = np.array([(x, y, z) for z in pts_1d for y in pts_1d for x in pts_1d])
    nq = qp.shape[0]

    def lam(i, s):
        return s if i else 1.0 - s

    def dlam(i):
        return 1.0 if i else -1.0

    W = np.zeros((12, nq, 3))
    C = np.zeros((12, nq, 3))
    x, y, z = qp[:, 0], qp[:, 1], qp[:, 2]
    for slot, (j, k) in enumerate(_CORNER_OFFSETS):
        W[slot, :, 0] = lam(j, y) * lam(k, z)
        C[slot, :, 1] = lam(j, y) * dlam(k)
        C[slot, :, 2] = -dlam(j) * lam(k, z)
    for slot, (i, k) in enumerate(_CORNER_OFFSETS):
        W[4 + slot, :, 1] = lam(i, x) * lam(k, z)
        C[4 + slot, :, 0] = -lam(i, x) * dlam(k)
        C[4 + slot, :, 2] = dlam(i) * lam(k, z)
    for slot, (i, j) in enumerate(_CORNER_OFFSETS):
        W[8 + slot, :, 2] = lam(i, x) * lam(j, y)
        C[8 + slot, :, 0] = lam(i, x) * dlam(j)
        C[8 + slot, :, 1] = -dlam(i) * lam(j, y)

    dN = np.zeros((8, nq, 3))
    for k in (0, 1):
        for j in (0, 1):
            for i in (0, 1):
                l = i + 2 * j + 4 * k
                dN[l, :, 0] = dlam(i) * lam(j, y) * lam(k, z)
                dN[l, :, 1] = lam(i, x) * dlam(j) * lam(k, z)
                dN[l, :, 2] = lam(i, x) * lam(j, y) * dlam(k)

    weights = np.full(nq, 1.0 / nq)
    return W, C, dN, weights


_W_HAT, _C_HAT, _DN, _QWEIGHTS = reference_shape_tables()


def reference_degenerate_clusters(values, rtol=1e-8):
    """Index groups of numerically equal values, walked one by one."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    clusters = []
    start = 0
    for j in range(1, ranked.size + 1):
        if (j == ranked.size
                or ranked[j] - ranked[j - 1] > rtol * max(abs(ranked[j]), 1.0)):
            if j - start >= 2:
                clusters.append(np.sort(order[start:j]))
            start = j
    return clusters


def reference_split_clusters(values, rtol=1e-8):
    """Index groups of numerically equal values, by one np.split."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    gaps = np.diff(ranked) > rtol * np.maximum(np.abs(ranked[1:]), 1.0)
    return [np.sort(group)
            for group in np.split(order, np.flatnonzero(gaps) + 1)
            if group.size >= 2]


def reference_surviving_free(free, values_n, perm, rtol=1e-8):
    """Each free cluster of trajectory slots regrouped on its own values
    at the accepted point, values_n[perm]."""
    values_t = values_n[perm]
    return [idx[sub] for idx in free
            for sub in reference_split_clusters(values_t[idx], rtol)]


def reference_greedy_match(C):
    """Rows to columns by K passes of argmax, each blanking its row and
    column."""
    K = C.shape[0]
    perm = np.full(K, -1, dtype=np.int64)
    corrs = np.zeros(K)
    work = C.copy()
    for _ in range(K):
        i, j = np.unravel_index(int(np.argmax(work)), work.shape)
        perm[i] = j
        corrs[i] = C[i, j]
        work[i, :] = -1.0
        work[:, j] = -1.0
    return perm, corrs


def reference_sliced_clusters(values, rtol=1e-8):
    """Index groups of numerically equal values, as ascending index
    arrays, by slicing the stably sorted order at its gaps (numpy)."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    gaps = np.diff(ranked) > rtol * np.maximum(np.abs(ranked[1:]), 1.0)
    if gaps.all():
        return []
    bounds = [0, *(np.flatnonzero(gaps) + 1).tolist(), values.size]
    return [np.sort(order[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi - lo >= 2]


def _reference_cut_free(free, clusters_n, perm):
    """Each free cluster cut by the accepted solve's groups, by scans."""
    parts = [idx[(perm[idx, None] == group).any(axis=1)]
             for idx in free for group in clusters_n]
    return [part for part in parts if part.size >= 2]


def _reference_overlap_svd(M, c):
    """(rows, U, V) of the c most-overlapping rows' block T = U S V^T of
    M, or None when that block is invisible."""
    rows = np.sort(np.argsort(-np.linalg.norm(M, axis=1), kind="stable")[:c])
    T = M[rows]
    if np.linalg.norm(T) < 1e-12:
        return None
    U, _, Vt = np.linalg.svd(T)
    return rows, U, Vt.T


def _reference_rotate_candidates(vectors_n, W, norms, P, cols, R):
    """Candidate columns cols replaced by their combinations R, in the
    candidates, their inner products, their norms and the overlaps."""
    block = vectors_n[:, cols] @ R
    vectors_n[:, cols] = block
    Wb = W[:, cols] @ R
    W[:, cols] = Wb
    norms[cols] = np.sqrt(np.abs(np.einsum("ij,ij->j", block, Wb)))
    P[:, cols] = P[:, cols] @ R


def _reference_hungarian_match(C):
    rows, cols = linear_sum_assignment(-C)
    perm = np.empty(C.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm, C[rows, cols][np.argsort(rows)]


def reference_track(solve, K, threshold, initial_steps, max_depth,
                    matching="greedy"):
    """Bisection tracking over [0, 1], one numpy grouping per step.

    Groups a retried step's solution again, scans for free and aligned
    clusters with np.array_equal, and aligns through a separate SVD
    helper and candidate rotation.  solve(t) returns (values, vectors,
    inner) and may append the groups of values, which this loop ignores:
    it groups every solution itself."""
    match = {"greedy": reference_greedy_match,
             "hungarian": _reference_hungarian_match}[matching]
    values, vectors, inner = solve(0.0)[:3]
    vectors = vectors[:, :K]
    free = reference_sliced_clusters(values[:K])
    grid = [0.0]
    lambdas = [values[:K].copy()]
    correlations, permutations = [], []
    bisections = degenerate_steps = 0
    pending = [(float(t), 0, None)
               for t in np.linspace(0.0, 1.0, initial_steps + 1)[:0:-1]]
    while pending:
        t_next, depth, solved = pending.pop()
        if solved is None:
            solved = solve(t_next)
        values_n, vectors_n, inner_n = solved[:3]
        W = inner @ vectors_n
        norms = np.sqrt(np.abs(np.einsum("ij,ij->j", vectors_n, W)))
        P = vectors.T @ W
        clusters_n = reference_sliced_clusters(values_n)
        if clusters_n:
            vectors_n = vectors_n.copy()
        aligned = []
        for idx in clusters_n:
            if idx.size > K:
                continue
            svd = _reference_overlap_svd(P[:, idx], idx.size)
            if svd is None:
                continue
            rows, U, V = svd
            if any(np.array_equal(rows, f) for f in free):
                P[rows, :] = U.T @ P[rows, :]
                _reference_rotate_candidates(vectors_n, W, norms, P, idx, V)
                aligned.append(rows)
            else:
                _reference_rotate_candidates(vectors_n, W, norms, P, idx,
                                             V @ U.T)
        for idx in free:
            if any(np.array_equal(idx, a) for a in aligned):
                continue
            svd = _reference_overlap_svd(P[idx, :].T, idx.size)
            if svd is not None:
                _, U, V = svd
                R = V @ U.T
                P[idx, :] = R.T @ P[idx, :]
        C = np.abs(P) / norms[None, :]
        perm, corrs = match(C)
        if threshold > 0.0 and np.any(corrs < threshold):
            if depth >= max_depth:
                raise TrackingError(
                    "correlation %.4f below threshold %.2f on [%.6g, %.6g] "
                    "after %d bisection levels"
                    % (corrs.min(), threshold, grid[-1], t_next, depth))
            bisections += 1
            pending.append((t_next, depth + 1, solved))
            pending.append((0.5 * (grid[-1] + t_next), depth + 1, None))
            continue
        values_t = values_n[perm]
        if clusters_n or free:
            degenerate_steps += 1
        free = _reference_cut_free(free, clusters_n, perm)
        vectors, inner = vectors_n[:, perm], inner_n
        grid.append(t_next)
        lambdas.append(values_t)
        correlations.append(corrs)
        permutations.append(perm)
    grid = np.array(grid)
    stats = {"bisection_count": bisections,
             "degenerate_steps": degenerate_steps,
             "min_step": float(np.diff(grid).min())}
    return TrackingRun(grid=grid, lambdas=np.column_stack(lambdas),
                       correlations=np.column_stack(correlations),
                       permutations=permutations, stats=stats)


def reference_gaps(values, K, floor_fraction=1e-8):
    """Floored distance of each of the first K values to its nearest
    neighbor among the first K + 1, one np.delete per value."""
    m = min(K + 1, values.size)
    vals = values[:m]
    k_eff = min(K, values.size)
    floor = floor_fraction * abs(values[k_eff - 1])
    out = np.empty(k_eff)
    for i in range(k_eff):
        diffs = np.abs(np.delete(vals, i) - vals[i])
        gap = diffs.min() if diffs.size else floor
        out[i] = max(gap, floor)
    return out


def reference_eigh(A, B, count=None):
    """The count (default all) smallest eigenpairs of the dense pencil."""
    n = A.shape[0]
    m = n if count is None else min(count, n)
    return sla.eigh(A, B, subset_by_index=None if m == n else [0, m - 1])


def reference_cholesky_solve(G, U):
    """Solve G x = U through scipy's lower Cholesky factor of G."""
    return sla.cho_solve(sla.cho_factor(G, lower=True), U)


def _reference_mass_solve(pair, rhs):
    """B^{-1} rhs, B factored by dense Cholesky (potrf) and solved for
    all columns of rhs at once (potrs)."""
    B = sp.csr_matrix(pair.B, dtype=float).toarray(order="F")
    if not np.isfinite(B).all():
        raise FactorizationError("matrix is not finite")
    L, info = dpotrf(B, lower=1, clean=0, overwrite_a=True)
    if info != 0:
        raise FactorizationError(
            "matrix is not positive definite (potrf info %d)" % info)
    W, info = dpotrs(L, rhs, lower=1)
    if info != 0:
        raise FactorizationError("triangular solve failed (potrs info %d)" % info)
    return W


def reference_cotree_system(pair, gauge):
    """Dense gauged pencil (A_hat, B_hat) of one system pair via
    W = B^{-1} H^T, solved for all |C| columns of H^T by dense Cholesky;
    A_hat = W^T (A W) and B_hat the cotree rows of A W, both
    symmetrized."""
    H = pair.A.tocsr()[gauge.cotree, :]
    W = _reference_mass_solve(pair, H.T.toarray())
    AW = pair.A @ W
    A_hat = W.T @ AW
    B_hat = AW[gauge.cotree]
    return 0.5 * (A_hat + A_hat.T), 0.5 * (B_hat + B_hat.T)


def reference_cotree_reduction(pair, gauge, Z):
    """The gauged pencil of one system pair reduced on the basis Z, with
    only the basis columns lifted: W Z = B^{-1} H^T Z by dense Cholesky,
    then ((W Z)^T A (W Z), (H^T Z)^T (W Z)), both symmetrized."""
    HtZ = pair.A.tocsc()[:, gauge.cotree] @ Z
    WZ = _reference_mass_solve(pair, HtZ)
    A_r = WZ.T @ (pair.A @ WZ)
    B_r = HtZ.T @ WZ
    return 0.5 * (A_r + A_r.T), 0.5 * (B_r + B_r.T)


def reference_mgs_orthogonalize(Z, v):
    """Modified Gram-Schmidt of the vector v against the columns of Z,
    one extra pass."""
    v = v.copy()
    for _ in range(2):
        for j in range(Z.shape[1]):
            v -= (Z[:, j] @ v) * Z[:, j]
    return v


# Singular values of the stacked snapshot modes below this fraction of
# the largest are cut when the ungauged basis is orthonormalized.
UNGAUGED_CUT = 1e-13


def reference_ungauged_basis(modes):
    """An orthonormal basis of the span of the modes (a list of N x K
    blocks, one per snapshot parameter), in full edge space: the left
    singular vectors of the stacked blocks whose singular values exceed
    UNGAUGED_CUT times the largest."""
    U, s, _ = np.linalg.svd(np.hstack(modes), full_matrices=False)
    return U[:, s > UNGAUGED_CUT * s[0]]


def reference_ungauged_pencil(pair, Z):
    """The pair reduced on Z without a gauge: (Z^T A Z, Z^T B Z),
    symmetrized."""
    A_r, B_r = Z.T @ (pair.A @ Z), Z.T @ (pair.B @ Z)
    return 0.5 * (A_r + A_r.T), 0.5 * (B_r + B_r.T)


def reference_upscale(gauge, pair, v_hat):
    """v = B^{-1} H^T v_hat with H = A[C, :], B factored by splu."""
    HtV = pair.A.tocsc()[:, gauge.cotree] @ v_hat
    return spla.splu(sp.csc_matrix(pair.B)).solve(np.asarray(HtV))
