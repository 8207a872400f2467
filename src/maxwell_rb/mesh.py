"""Structured hexahedral meshes of a brick cavity.

Every entity is a box of grid points numbered lexicographically by
(z, y, x), x running fastest, and one rule, applied per axis d, derives
them all.  Vertices form the box of (n_x + 1, n_y + 1, n_z + 1) points.
The edges along d form the vertex box with one point fewer along d,
stored as block d (x, then y, then z); each points from its tail vertex
to the next vertex along d, so tail < head.  Cells form the box of
(n_x, n_y, n_z) points, named by their lowest corner.

This module also defines the local order inside one cell, which
assembly relies on: corner l = i + 2j + 4k sits at offset (i, j, k), and
local edge 4d + s runs along d from the corner at offset
_EDGE_CORNER_OFFSETS[s] in the two other axes (ascending), 0 along d.

Boundary edges are those lying entirely inside one of the six boundary
planes; eliminating them realizes the perfectly conducting wall
condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

_EDGE_CORNER_OFFSETS = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=np.int64)


def _strides(shape):
    """Flat-index step per axis of a box numbered x fastest."""
    return np.array([1, shape[0], shape[0] * shape[1]])


# Cell corner l as its offset (i, j, k), and the tail corner of each local
# edge: 0 along the edge's axis, _EDGE_CORNER_OFFSETS along the others.
CELL_CORNERS = np.array([(i, j, k) for k in (0, 1) for j in (0, 1) for i in (0, 1)])
EDGE_TAILS = np.array([np.insert(offset, d, 0) for d in range(3)
                       for offset in _EDGE_CORNER_OFFSETS])

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


def _validate_inputs(dims, resolution):
    if len(dims) != 3 or len(resolution) != 3:
        raise ConfigError("dims and resolution must be triples")
    lengths = tuple(float(d) for d in dims)
    if not all(0.0 < d < np.inf for d in lengths):
        raise ConfigError("all edge lengths must be positive and finite, got %r"
                          % (dims,))
    if any(isinstance(r, bool) or not isinstance(r, (int, np.integer))
           for r in resolution):
        raise ConfigError("cell counts must be integers, got %r" % (resolution,))
    counts = tuple(int(r) for r in resolution)
    if min(counts) < 1:
        raise ConfigError("all cell counts must be >= 1, got %r" % (resolution,))
    n_vertices = math.prod(m + 1 for m in counts)
    n_edges = sum(n_vertices // (m + 1) * m for m in counts)
    if n_edges > _MAX_EDGES:
        raise ConfigError(
            "resolution %r needs %d edges, beyond the 32-bit index range"
            % (resolution, n_edges)
        )
    return lengths, counts


def _numbering(keep):
    """Consecutive numbers of the kept entries, -1 at the others."""
    index = np.full(keep.size, -1, dtype=np.int64)
    index[keep] = np.arange(int(keep.sum()))
    return index


def build_mesh(dims, resolution) -> CavityMesh:
    """Build the structured hex mesh of a brick with the given cell counts.

    Enumeration is deterministic: vertices, edges and cells are ordered
    lexicographically by (z, y, x).
    """
    lengths, counts = _validate_inputs(dims, resolution)
    top = np.array(counts)
    vstride = _strides(top + 1)
    # grids indexed [z, y, x]: vertex ids, and each vertex's index per axis
    vid = np.arange(math.prod(top + 1)).reshape(tuple(top[::-1] + 1))
    index = np.indices(vid.shape)[::-1]
    on_plane = index == top.reshape(3, 1, 1, 1)
    on_plane |= index == 0
    cell_box = tuple(slice(0, m) for m in counts[::-1])

    tails, heads, boundary_edge, cell_edges = [], [], [], []
    first = 0
    for d in range(3):
        other = np.arange(3) != d
        shape = top + other
        box = tuple(slice(0, m) for m in shape[::-1])
        tail = vid[box].ravel()
        tails.append(tail)
        heads.append(tail + vstride[d])
        # inside a boundary plane: at the first or last point of another axis
        boundary_edge.append(on_plane[(other, *box)].any(axis=0).ravel())
        ids = first + np.arange(tail.size).reshape(shape[::-1])
        cell_edges.append(ids[cell_box].reshape(-1, 1)
                          + EDGE_TAILS[4 * d:4 * d + 4] @ _strides(shape))
        first += tail.size
    boundary_edge = np.concatenate(boundary_edge)
    boundary_vertex = on_plane.any(axis=0).ravel()

    return CavityMesh(
        dims=lengths,
        resolution=counts,
        vertices=np.column_stack([np.linspace(0.0, length, m + 1)[i.ravel()]
                                  for length, m, i in zip(lengths, counts, index)]),
        edges=np.column_stack([np.concatenate(tails), np.concatenate(heads)]),
        cell_vertices=vid[cell_box].reshape(-1, 1) + CELL_CORNERS @ vstride,
        cell_edges=np.concatenate(cell_edges, axis=1),
        boundary_vertex=boundary_vertex,
        boundary_edge=boundary_edge,
        free_edge_index=_numbering(~boundary_edge),
        interior_vertex_index=_numbering(~boundary_vertex),
    )


def dissection_order(mesh: CavityMesh) -> np.ndarray:
    """Nested-dissection permutation of the free edges (George, 1973).

    Edges are placed at their midpoints in doubled grid-index coordinates,
    so a vertex plane sits at an even coordinate and an edge crossing it
    at an odd one.  Each box of edges is split along its longest axis (the
    one with the most vertex planes inside the box) at the vertex plane
    nearest the median; the separator is the edges lying in that plane.
    No cell spans a vertex plane, so every cell touching an edge on one
    side lies on that side's half of the plane, and any matrix assembled
    cell by cell couples the two halves only through the separator.  The
    order is left half, right half, separator, recursively, until a box
    holds at most _DISSECTION_LEAF edges; within a leaf or a separator
    edges stay in ascending order.  It depends on the topology alone, so
    it serves every geometry of one resolution.

    The recursion runs one level at a time over all boxes of the level:
    their bounds are segment minima and maxima, their medians come from
    per-box histograms of the integer coordinates, and every box owns the
    slice of the result it ends up in, so each level only moves edges
    within their box's slice: left part, right part, then the separator,
    which stays.  A box that is not split stays as it is.
    """
    # grid index (x, y, z) of every vertex, and twice each edge's midpoint
    shape = tuple(m + 1 for m in mesh.resolution)
    index = np.indices(shape[::-1]).reshape(3, -1)[::-1].T.copy()
    tails, heads = mesh.edges[mesh.free_edges].T
    doubled = np.take(index, tails, axis=0) + np.take(index, heads, axis=0)

    order = np.arange(mesh.n_free_edges)
    start, size = np.zeros(1, dtype=np.int64), np.array([order.size])
    while True:
        keep = size > _DISSECTION_LEAF
        start, size = start[keep], size[keep]
        if not start.size:
            return order
        boxes = np.arange(start.size)
        box = np.repeat(boxes, size)
        head = np.cumsum(size) - size
        at = np.arange(box.size) + (start - head)[box]
        coords = np.take(doubled, order[at], axis=0)
        lo = np.minimum.reduceat(coords, head)
        # vertex planes strictly inside the box: even coordinates in (lo, hi)
        first = lo // 2 + 1
        last = (np.maximum.reduceat(coords, head) - 1) // 2
        axis = np.argmax(last - first, axis=1)
        lo, first, last = lo[boxes, axis], first[boxes, axis], last[boxes, axis]
        along = coords.ravel()[3 * np.arange(box.size) + axis[box]] - lo[box]
        # twice the median along the axis from each box's cumulative
        # histogram: value k (from 0) is the first bin whose count exceeds k
        width = int(along.max()) + 1
        cum = np.cumsum(np.bincount(box * width + along,
                                    minlength=boxes.size * width)
                        .reshape(boxes.size, width), axis=1)
        median2 = ((cum > ((size - 1) // 2)[:, None]).argmax(axis=1)
                   + (cum > (size // 2)[:, None]).argmax(axis=1) + 2 * lo)
        plane = 2 * np.clip(np.rint(median2 / 4.0).astype(np.int64), first, last)
        along -= (plane - lo)[box]
        # part 0 left of the plane, 1 right of it, 2 in it or not split
        part = np.where(along < 0, 0, np.where(along > 0, 1, 2))
        part[(first > last)[box]] = 2
        key = box * 3 + part
        count = np.bincount(key, minlength=3 * boxes.size)
        # a stable sort by (box, part); small keys sort by radix
        key = key.astype(np.min_scalar_type(3 * boxes.size))
        order[at] = order[at][np.argsort(key, kind="stable")]
        left, right = count[0::3], count[1::3]
        start = np.column_stack([start, start + left]).ravel()
        size = np.column_stack([left, right]).ravel()


def discrete_gradient(mesh: CavityMesh) -> sp.csr_matrix:
    """Incidence operator G, free edges by interior vertices, entries +-1.

    Column j holds +1 on free edges whose head is interior vertex j and -1
    on those whose tail is; the columns span the discrete gradient fields
    that form the nullspace of the curl-curl operator.
    """
    # per row, tail then head: interior numbering keeps vertex order, so
    # the columns come out sorted
    ends = mesh.interior_vertex_index[mesh.edges[mesh.free_edges]]
    inside = ends >= 0
    indptr = np.zeros(ends.shape[0] + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix(
        (np.broadcast_to([-1.0, 1.0], ends.shape)[inside], ends[inside], indptr),
        shape=(mesh.n_free_edges, mesh.n_interior_vertices),
    )
