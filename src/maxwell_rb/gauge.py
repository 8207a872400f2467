"""Tree-cotree gauge: spanning tree construction and the cotree system.

The free-edge graph is searched breadth-first from a virtual super-node
that merges all boundary vertices.  Each interior vertex is discovered
exactly once and its discovery edge joins the tree T, so |T| equals the
interior vertex count and the gradient incidence restricted to tree rows
is triangular with unit-modulus diagonal in discovery order.  The search
runs one level at a time on arrays: the candidate edges of a level are
listed in the order a FIFO queue would meet them (frontier rank, then
free-edge id), and the first candidate to reach a vertex discovers it,
so the tree is the queue-driven search's, edge for edge.

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

The classical comparison path gauges by the dense pencil
A_hat = W^T A W, B_hat = H W with W = B(t)^{-1} H(t)^T
(build_cotree_system).  Its mass solves come from CotreeFamily: one
eigendecomposition of the endpoint mass pencil diagonalizes the affine
B(t) for every t, so each W is a matrix product and no parameter value
is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import ParametrizedSystem, SystemPair
from .eigen import pcg_solve, solve_dense_gevp
from .errors import FactorizationError, NumericsError, ProjectionError
from .mesh import CavityMesh

_CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class GaugeDecomposition:
    """Tree/cotree split of the free edges.

    ``tree`` lists tree edges in BFS discovery order; ``cotree`` is the
    ascending complement.  ``G_tree`` and ``G_cotree`` are the
    gradient's tree and cotree rows with columns permuted into the
    discovery order of the interior vertices, so ``G_tree`` is lower
    triangular with unit-modulus diagonal.
    """

    tree: np.ndarray
    cotree: np.ndarray
    n_free_edges: int
    G_tree: sp.csr_matrix
    G_cotree: sp.csr_matrix


@dataclass(frozen=True)
class CotreeSystem:
    """Dense gauged pencil; exists only on the classical comparison path."""

    A_hat: np.ndarray
    B_hat: np.ndarray


def build_tree(mesh: CavityMesh, G: sp.csr_matrix) -> GaugeDecomposition:
    """Spanning tree of the free-edge graph rooted in the boundary.

    BFS starts from the super-node of all boundary vertices, visiting
    vertices in ascending id order and edges in ascending free-edge
    order, so the result is deterministic.  Each level is one pass over
    the incident edges of the whole frontier.  The discrete gradient
    ``G`` (free edges by interior vertices) supplies the blocks G_tree
    and G_cotree.
    """
    n = mesh.n_free_edges
    ends = mesh.edges[mesh.free_edges]
    # incident free edges of every vertex, ascending
    incident = np.argsort(ends.ravel(), kind="stable") // 2
    start = np.zeros(mesh.vertices.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends.ravel(), minlength=start.size - 1), out=start[1:])

    visited = mesh.boundary_vertex.copy()
    frontier = np.flatnonzero(visited)
    # per vertex, the rank of the first candidate to reach it (2n: none)
    first = np.full(visited.size, 2 * n)
    # one entry per level, after an empty one for a mesh without boundary
    tree, parent_vertices = [np.empty(0, dtype=np.int64)], [frontier[:0]]
    while frontier.size:
        # candidates in (frontier rank, free-edge id) order
        counts = start[frontier + 1] - start[frontier]
        offsets = np.cumsum(counts) - counts
        fe = incident[np.repeat(start[frontier] - offsets, counts)
                      + np.arange(counts.sum())]
        other = ends[fe].sum(axis=1) - np.repeat(frontier, counts)
        fresh = ~visited[other]
        fe, other = fe[fresh], other[fresh]
        # the first candidate to reach a vertex discovers it
        rank = np.arange(other.size)
        np.minimum.at(first, other, rank)
        wins = first[other] == rank
        frontier = other[wins]
        visited[frontier] = True
        tree.append(fe[wins])
        parent_vertices.append(frontier)
    tree = np.concatenate(tree)
    parent_vertices = np.concatenate(parent_vertices)

    nv = mesh.n_interior_vertices
    if parent_vertices.size != nv:
        raise NumericsError(
            "interior vertices disconnected from the boundary: reached %d of %d"
            % (parent_vertices.size, nv)
        )
    if G.shape != (n, nv):
        raise NumericsError(
            "gradient operator shape %r inconsistent with mesh (%d, %d)"
            % (G.shape, n, nv)
        )

    in_tree = np.zeros(n, dtype=bool)
    in_tree[tree] = True
    cotree = np.flatnonzero(~in_tree)
    parent_order = mesh.interior_vertex_index[parent_vertices]
    G = G.tocsr()[:, parent_order]
    return GaugeDecomposition(
        tree=tree, cotree=cotree, n_free_edges=n,
        G_tree=G[tree], G_cotree=G[cotree],
    )


def cotree_operator(sys: SystemPair, gauge: GaugeDecomposition) -> sp.csr_matrix:
    """H: rows of A at cotree edges, columns in global order (|C| x N)."""
    if sys.n != gauge.n_free_edges:
        raise NumericsError(
            "system size %d does not match gauge size %d" % (sys.n, gauge.n_free_edges)
        )
    return sys.A.tocsr()[gauge.cotree, :]


class CotreeFamily:
    """The classical pencil's mass solves for every t in [0, 1] at once.

    B(t) = (1 - t) B_0 + t B_1 is affine in t (ParametrizedSystem
    interpolates exactly so), and one dense eigendecomposition of the
    endpoint pencil, B_1 V = B_0 V diag(mu) with V^T B_0 V = I,
    diagonalizes the whole family: V^T B(t) V = diag(1 - t + t mu), so
    B(t)^{-1} = V diag(1 / (1 - t + t mu)) V^T.  With X_e = V^T H_e^T
    kept for both endpoints (formed as (H_e V)^T), W(t) = B(t)^{-1}
    H(t)^T is one product V (d_t * ((1 - t) X_0 + t X_1)), and no
    parameter value is factored.  The family holds N^2 + 2 N |C|
    entries; its eigensolve overwrites the dense mass copies it is
    given.

    Every mu must be positive, which holds exactly when both endpoint
    masses are SPD.  A non-finite endpoint mass, a B_0 that is not SPD
    (the eigensolve's Cholesky step fails) or a mu <= 0 raises
    FactorizationError.
    """

    def __init__(self, psys: ParametrizedSystem, gauge: GaugeDecomposition):
        ends = (psys.endpoint0, psys.endpoint1)
        H = [cotree_operator(end, gauge) for end in ends]
        sol = solve_dense_gevp(ends[1].B.toarray(order="F"),
                               ends[0].B.toarray(order="F"), overwrite=True)
        if not sol.values[0] > 0.0:
            raise FactorizationError(
                "endpoint mass matrix is not positive definite (smallest "
                "endpoint pencil eigenvalue %.3e)" % sol.values[0])
        self.psys = psys
        self.gauge = gauge
        self.mu = sol.values
        self.V = sol.vectors
        self.X = tuple((h @ self.V).T for h in H)

    def solve(self, t: float) -> np.ndarray:
        """W(t) = B(t)^{-1} H(t)^T (N x |C|) for t in [0, 1]."""
        s = 1.0 - t
        Y = s * self.X[0]
        Y += t * self.X[1]
        Y *= (1.0 / (s + t * self.mu))[:, None]
        return self.V @ Y


def build_cotree_system(family: CotreeFamily, t: float) -> CotreeSystem:
    """Dense gauged pencil (A_hat, B_hat) at t via W = B(t)^{-1} H(t)^T.

    A_hat = W^T (A W) and B_hat = H W.  H is the cotree rows of A, so
    B_hat is read off the rows C of the product A W that A_hat needs
    anyway, with the same row arithmetic as H @ W.  W comes from the
    family's eigenbasis (CotreeFamily.solve); the mass matrix at t is
    neither formed densely nor factored.  A t outside [0, 1] raises
    ConfigError.
    """
    A = family.psys.interpolate(t).A
    W = family.solve(t)
    AW = A @ W
    A_hat = W.T @ AW
    del W
    B_hat = AW[family.gauge.cotree]
    del AW
    A_hat = 0.5 * (A_hat + A_hat.T)
    B_hat = 0.5 * (B_hat + B_hat.T)
    return CotreeSystem(A_hat=A_hat, B_hat=B_hat)


def upscale(gauge: GaugeDecomposition, sys: SystemPair,
            v_hat: np.ndarray) -> np.ndarray:
    """Transform cotree coordinates back to the full space: v = B^{-1} H^T v_hat.

    v_hat holds a few columns, so the mass solve is Jacobi-PCG.
    """
    H = cotree_operator(sys, gauge)
    return pcg_solve(sys.B, np.asarray(H.T @ v_hat))


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
