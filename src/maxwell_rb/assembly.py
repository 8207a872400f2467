"""Curl-curl system assembly with lowest-order hexahedral edge elements.

Each cell is mapped trilinearly from the reference cube [0,1]^3.  Edge
shape functions transform covariantly (values by the inverse transposed
Jacobian, curls by the Jacobian over its determinant), so the element
matrices reduce to quadrature sums over the metric tensors J^T J and its
inverse.  A 2x2x2 Gauss rule integrates both terms exactly on affine
cells, the smallest rule with that property.

Boundary-edge rows and columns are eliminated during scatter, which
realizes the perfectly conducting wall.  Both matrices keep the full
topological scatter pattern, including entries that cancel to zero, so
two meshes of the same topology assemble onto identical patterns.  The
parametrized pair (A(t), B(t)) is the convex combination of two endpoint
assemblies on that shared pattern; intermediate matrices are algebraic
objects, not assemblies on physical geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateCellError
from .mesh import CavityMesh

_CORNER_OFFSETS = [(0, 0), (1, 0), (0, 1), (1, 1)]

# Local tail/head corner (l = i + 2j + 4k) per edge slot; used to sign
# each local edge against the stored global orientation.
_LOCAL_TAIL = np.array(
    [2 * j + 4 * k for j, k in _CORNER_OFFSETS]
    + [i + 4 * k for i, k in _CORNER_OFFSETS]
    + [i + 2 * j for i, j in _CORNER_OFFSETS]
)
_LOCAL_HEAD = np.array(
    [1 + 2 * j + 4 * k for j, k in _CORNER_OFFSETS]
    + [i + 2 + 4 * k for i, k in _CORNER_OFFSETS]
    + [i + 2 * j + 4 for i, j in _CORNER_OFFSETS]
)


def _reference_data():
    """Shape values, curls and trilinear gradients at the 2x2x2 Gauss points."""
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


_W_HAT, _C_HAT, _DN, _QWEIGHTS = _reference_data()


@dataclass(frozen=True)
class SystemPair:
    """Assembled free-DoF system: stiffness A (PSD) and mass B (SPD)."""

    A: sp.csr_matrix
    B: sp.csr_matrix
    n: int
    geometry_tag: str = ""


def assemble(mesh: CavityMesh, geometry_tag: str = "") -> SystemPair:
    """Assemble stiffness and mass on the free edges of ``mesh``.

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
            if not (np.array_equal(M0.indptr, M1.indptr)
                    and np.array_equal(M0.indices, M1.indices)):
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

        A = blend("A")
        B = blend("B")
        tag = "interp(t=%r; %s -> %s)" % (
            t,
            self.endpoint0.geometry_tag,
            self.endpoint1.geometry_tag,
        )
        return SystemPair(A=A, B=B, n=n, geometry_tag=tag)
