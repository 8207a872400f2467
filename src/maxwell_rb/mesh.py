"""Structured hexahedral meshes of a brick cavity.

Entities are enumerated lexicographically by (z, y, x), x running fastest.
Edges are stored in three direction blocks (x, then y, then z) and always
point from the lower vertex index to the higher one.  Boundary edges are
those lying entirely inside one of the six boundary planes; eliminating
them realizes the perfectly conducting wall condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

# Local edge order inside one cell: four x-directed edges at the (y,z)
# corner offsets below, then four y-directed at (x,z), then four
# z-directed at (x,y).  Assembly relies on this order.
_EDGE_CORNER_OFFSETS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=np.int64)

_MAX_EDGES = 2**31 - 1

# Nested-dissection leaves hold at most this many free edges.
_DISSECTION_LEAF = 64


@dataclass(frozen=True)
class CavityMesh:
    """Immutable structured hex mesh with edge DoF bookkeeping."""

    dims: tuple
    resolution: tuple
    vertices: np.ndarray            # (n_vertices, 3) coordinates
    edges: np.ndarray               # (n_edges, 2) vertex pairs, tail < head
    cell_vertices: np.ndarray       # (n_cells, 8), corner l = i + 2j + 4k
    cell_edges: np.ndarray          # (n_cells, 12) global edge ids
    boundary_vertex: np.ndarray     # bool per vertex
    boundary_edge: np.ndarray       # bool per edge
    free_edge_index: np.ndarray     # edge id -> free slot, -1 on boundary
    interior_vertex_index: np.ndarray

    @property
    def n_free_edges(self) -> int:
        return int((~self.boundary_edge).sum())

    @property
    def n_interior_vertices(self) -> int:
        return int((~self.boundary_vertex).sum())

    @property
    def free_edges(self) -> np.ndarray:
        """Global ids of non-boundary edges, ascending."""
        return np.flatnonzero(~self.boundary_edge)


@dataclass(frozen=True)
class DiscreteGradient:
    """Edge-vertex incidence restricted to free edges and interior vertices.

    Column j holds +1 on free edges whose head is interior vertex j and -1
    on those whose tail is; the columns span the discrete gradient fields
    that form the nullspace of the curl-curl operator.
    """

    G: sp.csr_matrix

    @property
    def shape(self):
        return self.G.shape


def _validate_inputs(dims, resolution):
    if len(dims) != 3 or len(resolution) != 3:
        raise ConfigError("dims and resolution must be triples")
    a, b, c = (float(d) for d in dims)
    if not all(0.0 < d < np.inf for d in (a, b, c)):
        raise ConfigError("all edge lengths must be positive and finite, got %r"
                          % (dims,))
    nx, ny, nz = (int(r) for r in resolution)
    if not (nx >= 1 and ny >= 1 and nz >= 1):
        raise ConfigError("all cell counts must be >= 1, got %r" % (resolution,))
    n_edges = (
        nx * (ny + 1) * (nz + 1)
        + ny * (nx + 1) * (nz + 1)
        + nz * (nx + 1) * (ny + 1)
    )
    if n_edges > _MAX_EDGES:
        raise ConfigError(
            "resolution %r needs %d edges, beyond the 32-bit index range"
            % (resolution, n_edges)
        )
    return (a, b, c), (nx, ny, nz)


def build_mesh(dims, resolution) -> CavityMesh:
    """Build the structured hex mesh of a brick with the given cell counts.

    Enumeration is deterministic: vertices, edges and cells are ordered
    lexicographically by (z, y, x).
    """
    (a, b, c), (nx, ny, nz) = _validate_inputs(dims, resolution)
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
    for slot, (j, k) in enumerate(_EDGE_CORNER_OFFSETS):
        cell_edges[:, slot] = cx + nx * ((cy + j) + nvy * (cz + k))
    for slot, (i, k) in enumerate(_EDGE_CORNER_OFFSETS):
        cell_edges[:, 4 + slot] = n_x_edges + (cx + i) + nvx * (cy + ny * (cz + k))
    for slot, (i, j) in enumerate(_EDGE_CORNER_OFFSETS):
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


def dissection_order(mesh: CavityMesh) -> np.ndarray:
    """Nested-dissection permutation of the free edges (George, 1973).

    Edges are placed at their midpoints in doubled grid-index coordinates,
    so a vertex plane sits at an even coordinate and an edge crossing it
    at an odd one.  Each box of edges is split along its longest axis (the
    one with the most vertex planes inside the box) at the vertex plane
    nearest the median; the separator is the edges lying in that plane.  No cell spans a vertex plane, so every cell touching
    an edge on one side lies on that side's half of the plane, and any
    matrix assembled cell by cell couples the two halves only through the
    separator.  The order is left half, right half, separator, recursing
    until a box holds at most _DISSECTION_LEAF edges.  It depends on the
    topology alone, so it serves every geometry of one resolution.
    """
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
        if edges.size <= _DISSECTION_LEAF or first[axis] > last[axis]:
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


def discrete_gradient(mesh: CavityMesh) -> DiscreteGradient:
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

    G = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, nv),
    ).tocsr()
    return DiscreteGradient(G=G)
