"""Mesh construction: entity counts, incidence structure, determinism."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwell_rb.bench import setup_problem
from maxwell_rb.config import default_config, with_overrides
from maxwell_rb.eigen import _symmetric_lu
from maxwell_rb.errors import ConfigError
from maxwell_rb.mesh import build_mesh, discrete_gradient, dissection_order

from oracles import free_edge_count, interior_vertex_count

resolutions = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
lengths = st.tuples(*[st.floats(0.2, 3.0, allow_nan=False)] * 3)


class TestCounts:
    def test_known_sizes(self):
        for res, n, nv in [((2, 2, 2), 6, 1), ((3, 3, 3), 36, 8),
                           ((6, 6, 6), 450, 125), ((8, 8, 8), 1176, 343)]:
            mesh = build_mesh((1.0, 1.0, 1.0), res)
            assert mesh.n_free_edges == n
            assert mesh.n_interior_vertices == nv

    @settings(max_examples=25, deadline=None)
    @given(dims=lengths, res=resolutions)
    def test_count_formulas(self, dims, res):
        mesh = build_mesh(dims, res)
        nx, ny, nz = res
        assert mesh.n_free_edges == free_edge_count(res)
        assert mesh.n_interior_vertices == interior_vertex_count(res)
        assert mesh.vertices.shape == ((nx + 1) * (ny + 1) * (nz + 1), 3)
        assert mesh.cell_edges.shape == (nx * ny * nz, 12)

    def test_cube3_counts(self, cube3):
        assert cube3.n_free_edges == 36
        assert cube3.cell_edges.shape[0] == 27


class TestIncidence:
    def test_edges_oriented_tail_to_head(self, cube3):
        assert np.all(cube3.edges[:, 0] < cube3.edges[:, 1])

    def test_edges_unit_spacing(self, cube3):
        # structured grid: every edge connects nearest neighbours
        delta = cube3.vertices[cube3.edges[:, 1]] - cube3.vertices[cube3.edges[:, 0]]
        assert np.all(np.isclose(np.abs(delta).max(axis=1), 1.0 / 3.0))
        assert np.all((np.abs(delta) > 1e-12).sum(axis=1) == 1)

    def test_cell_edges_are_cell_local(self, cube3):
        # each of the 12 edges of a cell joins two of its 8 corners
        for cell in range(cube3.cell_edges.shape[0]):
            corners = set(cube3.cell_vertices[cell])
            for edge in cube3.cell_edges[cell]:
                tail, head = cube3.edges[edge]
                assert tail in corners and head in corners

    def test_boundary_classification(self, cube3):
        on_boundary = np.any(
            np.isclose(cube3.vertices, 0.0) | np.isclose(cube3.vertices, 1.0),
            axis=1,
        )
        assert np.array_equal(cube3.boundary_vertex, on_boundary)
        edge_touches = on_boundary[cube3.edges]
        # an edge is boundary iff both endpoints lie on a common face;
        # on a structured brick that is equivalent to both being boundary
        # vertices in the same coordinate plane
        assert np.all(~cube3.boundary_edge[~edge_touches.all(axis=1)])

    def test_free_index_maps(self, cube3):
        free = cube3.free_edge_index
        assert np.array_equal(np.flatnonzero(free >= 0),
                              np.flatnonzero(~cube3.boundary_edge))
        assert np.array_equal(np.sort(free[free >= 0]),
                              np.arange(cube3.n_free_edges))


class TestGradient:
    def test_shape_and_entries(self, cube3, cube3_grad):
        G = cube3_grad.G
        assert G.shape == (cube3.n_free_edges, cube3.n_interior_vertices)
        data = G.tocoo().data
        assert np.all(np.isin(data, (-1.0, 1.0)))

    def test_columns_match_incidence(self, cube3, cube3_grad):
        G = cube3_grad.G.toarray()
        for edge in cube3.free_edges:
            row = cube3.free_edge_index[edge]
            tail, head = cube3.edges[edge]
            for vertex, sign in ((head, 1.0), (tail, -1.0)):
                col = cube3.interior_vertex_index[vertex]
                if col >= 0:
                    assert G[row, col] == sign

    def test_columns_independent(self, cube3_grad):
        G = cube3_grad.G.toarray()
        assert np.linalg.matrix_rank(G) == G.shape[1]


class TestValidation:
    @pytest.mark.parametrize("dims", [(0.0, 1, 1), (-1.0, 1, 1), (1, 1)])
    def test_bad_dims(self, dims):
        with pytest.raises(ConfigError):
            build_mesh(dims, (2, 2, 2))

    @pytest.mark.parametrize("res", [(0, 2, 2), (2, -1, 2), (2, 2)])
    def test_bad_resolution(self, res):
        with pytest.raises(ConfigError):
            build_mesh((1.0, 1.0, 1.0), res)


class TestDissectionOrder:
    @pytest.mark.parametrize("res", [(2, 2, 2), (2, 3, 4), (5, 4, 3), (12, 12, 12)])
    def test_permutation_of_free_edges(self, res):
        mesh = build_mesh((1.0, 1.0, 1.0), res)
        order = dissection_order(mesh)
        assert np.array_equal(np.sort(order), np.arange(mesh.n_free_edges))

    def test_same_for_both_morph_endpoints(self):
        cfg = default_config()
        assert np.array_equal(
            dissection_order(build_mesh(cfg.dims0, cfg.resolution)),
            dissection_order(build_mesh(cfg.dims1, cfg.resolution)))

    @pytest.mark.parametrize("res", [8, 12])
    def test_less_fill_than_minimum_degree(self, res):
        # a separator that does not decouple its halves shows up as fill
        p = setup_problem(with_overrides(default_config(), resolution=(res,) * 3))
        pair = p.psys.interpolate(0.5)
        M = sp.csr_matrix(pair.A - p.policy.sigma * pair.B)
        order = dissection_order(p.mesh0)

        def fill(lu):
            return lu.L.nnz + lu.U.nnz

        nd = _symmetric_lu(M[order][:, order], permc_spec="NATURAL")
        assert fill(nd) < fill(_symmetric_lu(M))


def test_deterministic_rebuild():
    a = build_mesh((1.0, 1.1, 1.2), (3, 4, 2))
    b = build_mesh((1.0, 1.1, 1.2), (3, 4, 2))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.cell_edges, b.cell_edges)
    ga, gb = discrete_gradient(a).G, discrete_gradient(b).G
    assert (ga != gb).nnz == 0
