"""Curl-curl system assembly with lowest-order hexahedral edge elements.

Each cell is mapped trilinearly from the reference cube [0,1]^3, with
the local corner and edge order that mesh.py defines (CELL_CORNERS,
EDGE_TAILS); the reference shape tables below follow it.  Edge
shape functions transform covariantly (values by the inverse transposed
Jacobian, curls by the Jacobian over its determinant), so at a
quadrature point the mass integrand sees the cell only through
adj(J^T J) / det J and the stiffness integrand only through
J^T J / det J.  Both factors are symmetric, six components each.  The
Jacobians at all quadrature points come from one product of the cell
vertices with the reference gradients, one Jacobian per point, so
non-affine cells stay exact.  J^T J is the Gram matrix of the columns of
J and adj(J^T J) that of their pairwise cross products (the rows of
adj J); both and det J are written out component by component.  A
2x2x2 Gauss rule integrates both terms exactly on affine cells, the
smallest rule with that property.

The element matrices are then two GEMMs: the per-cell geometric factors
(six components at eight points) times fixed reference tensors that
hold the products of reference shape values or curls with the
quadrature weights folded in (Kirby, Knepley, Logg & Scott, SIAM J.
Sci. Comput. 27, 2005).  Only the 78 entries a <= b of each symmetric
element matrix are formed.

Boundary-edge rows and columns are eliminated during scatter, which
realizes the perfectly conducting wall.  A scatter map, built from the
topology alone, holds a sparse matrix that takes every element entry
and its mirror to their slots in the CSR pattern, signed by their local
edges, so each matrix's data is one sparse product.  Each slot
sums its contributions from zero in cell order, and a slot and its
mirror sum the same values in the same order, so the result is exactly
symmetric.  Both matrices keep the full topological pattern, including
entries that cancel to zero, so meshes of one topology assemble onto
identical patterns; assembled on one map they share one set of pattern
arrays.  The parametrized pair (A(t), B(t)) is the convex combination of
two endpoint assemblies on that shared pattern; intermediate matrices
are algebraic objects, not assemblies on physical geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateCellError
from .mesh import CELL_CORNERS, EDGE_TAILS, CavityMesh

# Local tail corner l = i + 2j + 4k of each edge slot; used to sign each
# local edge against the stored global orientation.
_LOCAL_TAIL = EDGE_TAILS @ (1, 2, 4)


def _reference_data():
    """Shape values, curls and trilinear gradients at the 2x2x2 Gauss points.

    Every function is a product of one 1-D factor per axis: 1 - u or u
    at corner offset 0 or 1, or the derivative -1 or 1.  Corner l's
    trilinear function takes the factors of all three axes.  Local edge
    4d + s points along d and takes the factors of the two other axes at
    its tail corner; its curl, grad f x e_d, holds df/du_{d+2} in
    component d + 1 and -df/du_{d+1} in component d + 2 (axes mod 3).
    """
    g = 0.5 / np.sqrt(3.0)
    qp = np.array([0.5 - g, 0.5 + g])[CELL_CORNERS]    # x fastest
    lam = np.stack([1.0 - qp.T, qp.T])                 # lam[offset, axis]
    dlam = (-1.0, 1.0)
    nq = qp.shape[0]

    def product(corner, skip=None, deriv=None):
        out = 1.0
        for e in range(3):
            if e != skip:
                out = out * (dlam[corner[e]] if e == deriv else lam[corner[e], e])
        return out

    W = np.zeros((12, nq, 3))
    C = np.zeros((12, nq, 3))
    for slot, tail in enumerate(EDGE_TAILS):
        d = slot // 4
        W[slot, :, d] = product(tail, skip=d)
        C[slot, :, (d + 1) % 3] = product(tail, skip=d, deriv=(d + 2) % 3)
        C[slot, :, (d + 2) % 3] = -product(tail, skip=d, deriv=(d + 1) % 3)

    dN = np.zeros((8, nq, 3))
    for l, corner in enumerate(CELL_CORNERS):
        for d in range(3):
            dN[l, :, d] = product(corner, deriv=d)

    weights = np.full(nq, 1.0 / nq)
    return W, C, dN, weights


_W_HAT, _C_HAT, _DN, _QWEIGHTS = _reference_data()
_NQ = _QWEIGHTS.size

# Reference gradients as one matrix: column d * _NQ + q holds d/du_d of
# the eight trilinear corner functions at quadrature point q.
_DN_MAT = _DN.transpose(0, 2, 1).reshape(8, 3 * _NQ)

# Independent components (d, e) of a symmetric 3x3 matrix, in the order
# the geometric factors store them.
_SYM = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

# Element entries (a, b) with a <= b, and the position of the pair
# {a, b} among them.
_UPPER_A, _UPPER_B = np.triu_indices(12)
_PAIR = np.zeros((12, 12), dtype=np.int64)
_PAIR[_UPPER_A, _UPPER_B] = _PAIR[_UPPER_B, _UPPER_A] = np.arange(_UPPER_A.size)


def _reference_tensor(shape):
    """T with E[a, b] = sum_k G[k] T[k, (a, b)] for a symmetric geometric
    factor G, stored as component s at quadrature point q in k = s * _NQ + q;
    only the entries a <= b are kept."""
    T = np.empty((len(_SYM), _NQ, _UPPER_A.size))
    for s, (d, e) in enumerate(_SYM):
        prod = shape[_UPPER_A, :, d] * shape[_UPPER_B, :, e]
        if d != e:
            prod += shape[_UPPER_A, :, e] * shape[_UPPER_B, :, d]
        T[s] = (prod * _QWEIGHTS).T
    return T.reshape(len(_SYM) * _NQ, _UPPER_A.size)


_T_W = _reference_tensor(_W_HAT)
_T_C = _reference_tensor(_C_HAT)


@dataclass(frozen=True)
class SystemPair:
    """Assembled free-DoF system: stiffness A (PSD) and mass B (SPD)."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    n: int


def _cross(u, v):
    return np.array([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@dataclass(frozen=True, eq=False)
class ScatterMap:
    """Everything of an assembly that depends on the topology alone.

    ``indptr`` and ``indices`` are the CSR pattern of the free-edge
    couplings.  ``scatter`` has one row per slot of that pattern and one
    column per element entry a <= b of every cell (cell * 78 + pair);
    its entries sign each contribution by its two local edges against
    the global tail < head orientation.  A matrix's data is
    ``scatter @ E.ravel()`` for the (n_cells, 78) element entries E, and
    every matrix assembled on one map shares its ``indptr`` and
    ``indices``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    scatter: sp.csr_matrix
    topology: tuple = field(repr=False)

    def fits(self, mesh: CavityMesh) -> bool:
        """Whether ``mesh`` has the topology the map was built for."""
        return all(a is b or np.array_equal(a, b)
                   for a, b in zip(self.topology, _topology(mesh)))


def _topology(mesh: CavityMesh):
    return (mesh.cell_vertices, mesh.cell_edges, mesh.edges,
            mesh.free_edge_index)


def scatter_map(mesh: CavityMesh) -> ScatterMap:
    """The scatter map of ``mesh``'s topology, shared by its geometries.

    Each free edge gets one table row of the cells it lies in; the row
    holds the entry (own edge, b) for every edge b of those cells, b on
    the boundary included.  Each row is sorted by column, then by the
    position of the entry, so the contributions to every slot follow the
    cell order, and a slot (i, j) and its mirror (j, i) sum the same
    values in the same order: the matrices come out exactly symmetric.
    Entries on boundary columns, and the padding of edges that lie in
    fewer cells than others, get column -1: they sort first in each row
    and are dropped.
    """
    n = mesh.n_free_edges
    if n < 1:
        raise ConfigError(
            "mesh has no interior edge DoFs at resolution %r" % (mesh.resolution,)
        )
    fidx = mesh.free_edge_index[mesh.cell_edges]     # (nc, 12), -1 on boundary
    nc = fidx.shape[0]
    n_pairs = _UPPER_A.size
    bits = ((nc + 1) * n_pairs).bit_length()
    if n.bit_length() + bits > 62:
        raise ConfigError("mesh of %d cells is too large to assemble" % nc)

    # Incidences (cell * 12 + local edge) of each free edge, padded with
    # local edge 0 of the cell nc past the last, whose edges are all -1.
    f = fidx.ravel()
    order = np.argsort(f)
    counts = np.bincount(f + 1, minlength=n + 1)
    order = order[counts[0]:]
    counts = counts[1:]
    rows = f[order]
    inc = np.full((n, int(counts.max())), 12 * nc)
    inc[rows, np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]] = order

    # key = column << bits | source; it splits into a part per (cell,
    # column edge) and a part per (row edge, column edge) of a cell.
    col = np.vstack([fidx, np.full((1, 12), -1)])
    cell_key = (col << bits) + np.arange(nc + 1)[:, None] * n_pairs
    key = np.take(cell_key, inc // 12, axis=0)
    key += np.take(_PAIR, inc % 12, axis=0)
    key = key.reshape(n, -1)
    key.sort(axis=1)

    # The contributions, row after row: key >= 0 exactly on free columns.
    # A slot opens at each new column and at the start of each row.
    kept = key >= 0
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(kept, axis=1), out=row_start[1:])
    key = key[kept]
    source = key & ((1 << bits) - 1)
    key >>= bits                                     # now the columns
    first = np.empty(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first[row_start[:-1]] = True
    starts = np.flatnonzero(first)
    idx_dtype = (np.int32 if max(key.size, nc * n_pairs) < 2**31
                 else np.int64)
    indices = key[starts].astype(idx_dtype)
    indptr = np.searchsorted(starts, row_start).astype(idx_dtype)

    # Sign each contribution by its local edges' orientations against the
    # global tail < head one.
    flip = mesh.edges[mesh.cell_edges, 0] != mesh.cell_vertices[:, _LOCAL_TAIL]
    flip = (flip[:, _UPPER_A] ^ flip[:, _UPPER_B]).ravel()
    scatter = sp.csr_matrix(
        (np.where(flip[source], -1.0, 1.0), source.astype(idx_dtype),
         np.append(starts, key.size).astype(idx_dtype)),
        shape=(starts.size, nc * n_pairs))
    return ScatterMap(indptr=indptr, indices=indices, scatter=scatter,
                      topology=_topology(mesh))


# Overflow on extreme geometry is reported by DegenerateCellError below.
@np.errstate(over="ignore", invalid="ignore")
def assemble(mesh: CavityMesh,
             pattern: ScatterMap | None = None) -> SystemPair:
    """Assemble stiffness and mass on the free edges of ``mesh``.

    Element matrices are the per-cell geometric factors J^T J / det J
    and adj(J^T J) / det J at the quadrature points times the reference
    tensors _T_C and _T_W; the scatter map places them in the CSR
    pattern.  ``pattern`` is that map for the mesh's topology, built
    here when not given; meshes of one topology that share a map also
    share one pattern.

    Raises ConfigError if the mesh has no free edge or ``pattern`` was
    built for another topology, and DegenerateCellError, naming a cell
    and quadrature point, if a Jacobian determinant is not finite and
    strictly positive or an assembled entry is not finite.
    """
    if pattern is None:
        pattern = scatter_map(mesh)
    elif not pattern.fits(mesh):
        raise ConfigError("scatter map was built for another mesh topology")
    n = mesh.n_free_edges
    nc = mesh.cell_vertices.shape[0]
    X = mesh.vertices.T[:, mesh.cell_vertices.T]         # (3, 8, nc)
    J = (_DN_MAT.T @ X).reshape(3, 3, _NQ, nc)           # dx_m/du_d at (q, c)
    col = J.transpose(1, 0, 2, 3)                        # col[d] = dx/du_d
    adj = (_cross(col[1], col[2]), _cross(col[2], col[0]),
           _cross(col[0], col[1]))                       # rows of adj J
    detJ = _dot(col[0], adj[0])                          # (nq, nc)
    valid = np.isfinite(detJ) & (detJ > 0.0)
    if not valid.all():
        q, c = np.unravel_index(int(np.argmin(valid)), detJ.shape)
        raise DegenerateCellError(
            "non-positive or non-finite Jacobian determinant %.3e in cell %d "
            "(quadrature point %d)" % (detJ[q, c], c, q)
        )

    Gk = np.empty((len(_SYM), _NQ, nc))
    Gm = np.empty((len(_SYM), _NQ, nc))
    for s, (d, e) in enumerate(_SYM):
        np.divide(_dot(col[d], col[e]), detJ, out=Gk[s])
        np.divide(_dot(adj[d], adj[e]), detJ, out=Gm[s])
    out = {}
    for name, G, T in (("A", Gk, _T_C), ("B", Gm, _T_W)):
        E = G.reshape(-1, nc).T @ T                      # element entries a <= b
        data = pattern.scatter @ E.ravel()
        if not (np.isfinite(E).all() and np.isfinite(data).all()):
            # name the largest geometric factor, the one that overflowed
            mag = np.abs(G).max(axis=0)                  # (nq, nc)
            mag[np.isnan(mag)] = np.inf
            q, c = np.unravel_index(int(np.argmax(mag)), mag.shape)
            raise DegenerateCellError(
                "non-finite %s entries: geometric factor %.3e in cell %d "
                "(quadrature point %d)" % (name, mag[q, c], c, q)
            )
        out[name] = sp.csr_matrix((data, pattern.indices, pattern.indptr),
                                  shape=(n, n))
    return SystemPair(A=out["A"], B=out["B"], n=n)


def _same(a, b):
    """Equal arrays; views of one buffer alike (a shared scatter map's
    pattern) are equal without a read."""
    return (a.__array_interface__ == b.__array_interface__
            or np.array_equal(a, b))


@dataclass
class ParametrizedSystem:
    """Endpoint systems of one topology, convexly interpolated on their
    shared sparsity pattern."""

    endpoint0: SystemPair
    endpoint1: SystemPair
    _constant: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.endpoint0.n != self.endpoint1.n:
            raise ConfigError(
                "endpoint dimensions differ: %d vs %d"
                % (self.endpoint0.n, self.endpoint1.n)
            )
        self._constant = {}
        for name in ("A", "B"):
            M0, M1 = getattr(self.endpoint0, name), getattr(self.endpoint1, name)
            if not (_same(M0.indptr, M1.indptr) and _same(M0.indices, M1.indices)):
                raise ConfigError(
                    "endpoint %s matrices differ in sparsity pattern: the "
                    "endpoint meshes must share one topology" % name
                )
            # Identical endpoints collapse to a bit-exact constant family; the
            # convex combination would otherwise inject rounding noise in t.
            self._constant[name] = bool(np.array_equal(M0.data, M1.data))

    @property
    def n(self) -> int:
        return self.endpoint0.n

    def interpolate(self, t: float) -> SystemPair:
        """System pair at parameter t, the convex combination of the endpoints."""
        t = float(t)
        if not (0.0 <= t <= 1.0):
            raise ConfigError("parameter t=%r outside [0, 1]" % t)
        n = self.n
        s = 1.0 - t

        def blend(name):
            M0 = getattr(self.endpoint0, name)
            if self._constant[name]:
                data = M0.data.copy()
            else:
                data = s * M0.data + t * getattr(self.endpoint1, name).data
            return sp.csr_matrix((data, M0.indices, M0.indptr), shape=(n, n))

        return SystemPair(A=blend("A"), B=blend("B"), n=n)
