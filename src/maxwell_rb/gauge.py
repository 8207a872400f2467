"""Tree-cotree gauge: spanning tree construction and the cotree system.

The free-edge graph is searched breadth-first from a virtual super-node
that merges all boundary vertices.  Each interior vertex is discovered
exactly once and its discovery edge joins the tree T, so |T| equals the
interior vertex count and the gradient incidence restricted to tree rows
is triangular with unit-modulus diagonal in discovery order.

The gauge operator H is the row restriction of the stiffness to cotree
edges, kept in global column order: every formula downstream uses H only
in products that are invariant under a consistent column permutation, so
nothing is gained by reordering columns.

Projection onto cotree coordinates solves H^T v_hat = B v.  For an
eigenpair (lambda > 0, v), A G = 0 gives it in closed form along the
tree (Manges & Cendes, IEEE Trans. Magn. 31(3), 1995): v_hat =
(v_C - G_C phi) / lambda with G_T phi = v_T, one sparse triangular
solve with the tree block above, so nothing is factored.  The full
residual ||H^T v_hat - B v|| / ||B v|| reports whether the input was
gradient-free: eigenvectors of the ungauged pencil with nonzero
eigenvalue satisfy every row, gradient fields do not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SystemPair
from .eigen import SPDFactor
from .errors import NumericsError, ProjectionError
from .mesh import CavityMesh, DiscreteGradient

_CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class GaugeDecomposition:
    """Tree/cotree split of the free edges.

    ``tree`` lists tree edges in BFS discovery order; ``cotree`` is the
    ascending complement; ``parent_order`` lists interior vertex indices
    in the same discovery order as their tree edges.  ``G_tree`` and
    ``G_cotree`` are the gradient's tree and cotree rows with columns in
    ``parent_order``, so ``G_tree`` is lower triangular with unit-modulus
    diagonal.
    """

    tree: np.ndarray
    cotree: np.ndarray
    parent_order: np.ndarray
    n_free_edges: int
    G_tree: sp.csr_matrix
    G_cotree: sp.csr_matrix


@dataclass(frozen=True)
class CotreeSystem:
    """Dense gauged pencil; exists only on the classical comparison path."""

    A_hat: np.ndarray
    B_hat: np.ndarray


def build_tree(mesh: CavityMesh, grad: DiscreteGradient) -> GaugeDecomposition:
    """Spanning tree of the free-edge graph rooted in the boundary.

    BFS starts from the super-node of all boundary vertices, visiting
    vertices in ascending id order and edges in ascending free-edge
    order, so the result is deterministic.  ``grad`` supplies the
    gradient blocks G_tree and G_cotree.
    """
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

    nv = mesh.n_interior_vertices
    if len(parent_vertices) != nv:
        raise NumericsError(
            "interior vertices disconnected from the boundary: reached %d of %d"
            % (len(parent_vertices), nv)
        )
    if grad.G.shape != (n, nv):
        raise NumericsError(
            "gradient operator shape %r inconsistent with mesh (%d, %d)"
            % (grad.G.shape, n, nv)
        )

    tree = np.array(tree_edges, dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[tree] = True
    cotree = np.flatnonzero(~in_tree)
    parent_order = mesh.interior_vertex_index[np.array(parent_vertices, dtype=np.int64)]
    G = grad.G.tocsr()[:, parent_order]
    return GaugeDecomposition(
        tree=tree, cotree=cotree, parent_order=parent_order, n_free_edges=n,
        G_tree=G[tree], G_cotree=G[cotree],
    )


def cotree_operator(sys: SystemPair, gauge: GaugeDecomposition) -> sp.csr_matrix:
    """H: rows of A at cotree edges, columns in global order (|C| x N)."""
    if sys.n != gauge.n_free_edges:
        raise NumericsError(
            "system size %d does not match gauge size %d" % (sys.n, gauge.n_free_edges)
        )
    return sys.A.tocsr()[gauge.cotree, :]


def build_cotree_system(sys: SystemPair, gauge: GaugeDecomposition,
                        factor: SPDFactor | None = None) -> CotreeSystem:
    """Dense gauged pencil (A_hat, B_hat) via W = B^{-1} H^T.

    A_hat = W^T A W and B_hat = H W; the mass inverse is never formed,
    only applied column-wise through the sparse factorization.
    """
    H = cotree_operator(sys, gauge)
    if factor is None:
        factor = SPDFactor(sys.B)
    W = factor.solve(H.T.toarray())
    A_hat = W.T @ (sys.A @ W)
    B_hat = H @ W
    A_hat = 0.5 * (A_hat + A_hat.T)
    B_hat = 0.5 * (B_hat + B_hat.T)
    return CotreeSystem(A_hat=A_hat, B_hat=B_hat)


def upscale(gauge: GaugeDecomposition, sys: SystemPair, v_hat: np.ndarray,
            factor: SPDFactor | None = None) -> np.ndarray:
    """Transform cotree coordinates back to the full space: v = B^{-1} H^T v_hat."""
    H = cotree_operator(sys, gauge)
    if factor is None:
        factor = SPDFactor(sys.B)
    return factor.solve(np.asarray(H.T @ v_hat))


class CotreeProjector:
    """Condensation of full vectors to cotree coordinates along the tree.

    The eigenvalue of the closed form is each column's Rayleigh quotient
    q = v^T A v / v^T B v; a column with q <= 0 (a gradient or zero
    field) condenses to zero.
    """

    def __init__(self, sys: SystemPair, gauge: GaugeDecomposition):
        self._H = cotree_operator(sys, gauge)
        self._A = sys.A
        self._B = sys.B
        self._gauge = gauge

    def project(self, v: np.ndarray, check: bool = True):
        """Condense v (one column or a block); returns (v_hat, rel_residual).

        rel_residual is the consistency residual
        ||H^T v_hat - B v|| / ||B v|| per column; values above 1e-6 mean
        the input carried gradient components and raise ProjectionError
        when ``check`` is set.
        """
        single = v.ndim == 1
        g = self._gauge
        V = np.asarray(v, dtype=float).reshape(self._B.shape[0], -1)
        Bv = np.asarray(self._B @ V)
        phi = spla.spsolve_triangular(g.G_tree, V[g.tree], lower=True)
        rhs_norms = np.linalg.norm(Bv, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.sum(V * (self._A @ V), axis=0) / np.sum(V * Bv, axis=0)
            v_hat = np.where(q > 0, (V[g.cotree] - g.G_cotree @ phi) / q, 0.0)
            residual = np.linalg.norm(self._H.T @ v_hat - Bv, axis=0)
            rel = np.where(rhs_norms > 0, residual / rhs_norms, 0.0)
        if check and np.any(rel > _CONSISTENCY_TOL):
            worst = int(np.argmax(rel))
            raise ProjectionError(
                "cotree projection inconsistent (relative residual %.3e in "
                "column %d): input is not gradient-free" % (rel[worst], worst)
            )
        if single:
            return v_hat[:, 0], float(rel[0])
        return v_hat, rel
