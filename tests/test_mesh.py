"""Mesh construction: entity counts, incidence structure, determinism."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwell_rb.bench import setup_problem
from maxwell_rb.config import default_config, with_overrides
from maxwell_rb.errors import ConfigError
from maxwell_rb import mesh as mesh_module
from maxwell_rb.mesh import build_mesh, discrete_gradient, dissection_order

from oracles import (free_edge_count, interior_vertex_count,
                     reference_build_mesh, reference_discrete_gradient,
                     reference_dissection_order)

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
        G = cube3_grad
        assert G.shape == (cube3.n_free_edges, cube3.n_interior_vertices)
        data = G.tocoo().data
        assert np.all(np.isin(data, (-1.0, 1.0)))

    def test_columns_match_incidence(self, cube3, cube3_grad):
        G = cube3_grad.toarray()
        for edge in cube3.free_edges:
            row = cube3.free_edge_index[edge]
            tail, head = cube3.edges[edge]
            for vertex, sign in ((head, 1.0), (tail, -1.0)):
                col = cube3.interior_vertex_index[vertex]
                if col >= 0:
                    assert G[row, col] == sign

    def test_columns_independent(self, cube3_grad):
        G = cube3_grad.toarray()
        assert np.linalg.matrix_rank(G) == G.shape[1]


class TestValidation:
    @pytest.mark.parametrize("dims", [(0.0, 1, 1), (-1.0, 1, 1), (1, 1),
                                      (np.inf, 1, 1), (1, np.nan, 1)])
    def test_bad_dims(self, dims):
        with pytest.raises(ConfigError):
            build_mesh(dims, (2, 2, 2))

    @pytest.mark.parametrize("res", [(0, 2, 2), (2, -1, 2), (2, 2)])
    def test_bad_resolution(self, res):
        with pytest.raises(ConfigError):
            build_mesh((1.0, 1.0, 1.0), res)

    @pytest.mark.parametrize("res", [(2.7, 3, 3), (True, 3, 3), (3, 3.0, 3)])
    def test_non_integral_counts_rejected(self, res):
        # int() would silently build 2 or 1 cells along x
        with pytest.raises(ConfigError, match="integers"):
            build_mesh((1.0, 1.0, 1.0), res)

    def test_numpy_integer_counts_accepted(self):
        mesh = build_mesh((1.0, 1.0, 1.0), tuple(np.arange(2, 5)))
        assert mesh.resolution == (2, 3, 4)
        assert all(type(m) is int for m in mesh.resolution)


ORACLE_RESOLUTIONS = [(1, 2, 3), (2, 2, 2), (3, 3, 3), (4, 3, 5), (5, 7, 2),
                      (6, 6, 6), (12, 12, 12), (20, 20, 20)]


@pytest.mark.parametrize("res", ORACLE_RESOLUTIONS,
                         ids=lambda res: "x".join(map(str, res)))
def test_matches_axis_by_axis_construction(res):
    # the per-axis rule must reproduce the written-out construction bit for bit
    dims = (1.0, 1.1, 1.2)
    mesh, want = build_mesh(dims, res), reference_build_mesh(dims, res)
    for field in dataclasses.fields(mesh):
        got, ref = getattr(mesh, field.name), getattr(want, field.name)
        if isinstance(ref, np.ndarray):
            assert got.dtype == ref.dtype, field.name
            assert np.array_equal(got, ref), field.name
        else:
            assert got == ref and type(got) is type(ref), field.name
    G, G_ref = discrete_gradient(mesh), reference_discrete_gradient(want)
    assert isinstance(G, sp.csr_matrix) and G.shape == G_ref.shape
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(G, name), getattr(G_ref, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


class TestDissectionOrder:
    @pytest.mark.parametrize("res", [(2, 2, 2), (2, 3, 4), (5, 4, 3), (12, 12, 12)])
    def test_permutation_of_free_edges(self, res):
        mesh = build_mesh((1.0, 1.0, 1.0), res)
        order = dissection_order(mesh)
        assert np.array_equal(np.sort(order), np.arange(mesh.n_free_edges))

    @pytest.mark.parametrize("res", [(2, 2, 2), (3, 3, 3), (2, 5, 3),
                                     (7, 11, 4), (6, 6, 6), (12, 12, 12)],
                             ids=lambda res: "x".join(map(str, res)))
    def test_matches_recursive_dissection(self, res):
        mesh = build_mesh((1.0, 1.1, 1.2), res)
        order, want = dissection_order(mesh), reference_dissection_order(mesh)
        assert order.dtype == want.dtype and np.array_equal(order, want)

    @pytest.mark.parametrize("leaf", [0, 1, 5])
    def test_matches_recursion_down_to_small_leaves(self, monkeypatch, leaf):
        # deep levels, and boxes left unsplit for want of an inner plane
        monkeypatch.setattr(mesh_module, "_DISSECTION_LEAF", leaf)
        for res in [(2, 5, 3), (7, 11, 4), (6, 6, 6)]:
            mesh = build_mesh((1.0, 1.1, 1.2), res)
            assert np.array_equal(dissection_order(mesh),
                                  reference_dissection_order(mesh, leaf))

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

        def fill(X, permc_spec):
            # SuperLU in symmetric mode, as the shift-invert factor runs it
            lu = spla.splu(sp.csc_matrix(X), permc_spec=permc_spec,
                           options=dict(SymmetricMode=True))
            return lu.L.nnz + lu.U.nnz

        nd = fill(M[order][:, order], "NATURAL")
        assert nd < fill(M, "MMD_AT_PLUS_A")


def test_deterministic_rebuild():
    a = build_mesh((1.0, 1.1, 1.2), (3, 4, 2))
    b = build_mesh((1.0, 1.1, 1.2), (3, 4, 2))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.cell_edges, b.cell_edges)
    ga, gb = discrete_gradient(a), discrete_gradient(b)
    assert (ga != gb).nnz == 0
