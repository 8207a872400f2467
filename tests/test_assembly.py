"""Assembled operators: symmetry, definiteness, nullspace, exact spectra."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from maxwell_rb import assembly
from maxwell_rb.assembly import ParametrizedSystem, assemble, scatter_map
from maxwell_rb.errors import ConfigError, DegenerateCellError
from maxwell_rb.mesh import build_mesh

import oracles
from oracles import (discrete_brick_eigenvalues, interior_vertex_count,
                     reference_assemble, reference_scatter,
                     reference_shape_tables)

_ZERO_SPLIT = 1e-6   # gap between gradient nullspace and physical modes


def _dense_spectrum(pair):
    return scipy.linalg.eigh(pair.A.toarray(), pair.B.toarray(),
                             eigvals_only=True)


class TestOperators:
    def test_symmetry_exact(self, cube3_pair):
        assert (cube3_pair.A != cube3_pair.A.T).nnz == 0
        assert (cube3_pair.B != cube3_pair.B.T).nnz == 0

    def test_mass_spd(self, cube3_pair):
        w = np.linalg.eigvalsh(cube3_pair.B.toarray())
        assert w.min() > 0

    def test_stiffness_psd(self, cube3_pair):
        w = np.linalg.eigvalsh(cube3_pair.A.toarray())
        assert w.min() > -1e-10 * w.max()

    def test_gradients_in_nullspace(self, cube3_pair, cube3_grad):
        AG = cube3_pair.A @ cube3_grad
        scale = abs(cube3_pair.A).max()
        assert np.max(np.abs(AG.toarray())) < 1e-12 * scale

    def test_empty_mesh_rejected(self):
        with pytest.raises(ConfigError):
            assemble(build_mesh((1.0, 1.0, 1.0), (1, 1, 1)))

    def test_inverted_cell_rejected(self, cube2):
        mirrored = dataclasses.replace(
            cube2, vertices=cube2.vertices * np.array([-1.0, 1.0, 1.0])
        )
        with pytest.raises(DegenerateCellError):
            assemble(mirrored)

    @pytest.mark.parametrize("dims,where", [
        ((1e200, 1e200, 1e200), "Jacobian determinant"),   # det J overflows
        ((3e-310, 1.0, 1.0), "non-finite A entries"),      # J^T J / det J does
    ])
    def test_non_finite_geometry_rejected(self, dims, where):
        with pytest.raises(DegenerateCellError,
                           match=where + ".* in cell 0 \\(quadrature point"):
            assemble(build_mesh(dims, (3, 3, 3)))

    def test_thin_cells_stay_finite(self):
        # the inverse metric overflows here, but adj(J^T J) / det J does not
        pair = assemble(build_mesh((1e-300, 1.0, 1.0), (3, 3, 3)))
        assert np.isfinite(pair.A.data).all()
        assert np.isfinite(pair.B.data).all()


def _tapered(mesh):
    """z -> z (1 - 0.5 x / a): every cell is a non-affine hexahedron."""
    x, y, z = mesh.vertices.T
    taper = np.column_stack([x, y, z * (1.0 - 0.5 * x / mesh.dims[0])])
    return dataclasses.replace(mesh, vertices=taper)


class TestKernel:
    @pytest.mark.parametrize("mesh", [
        build_mesh((1.0, 1.0, 1.0), (3, 3, 3)),
        build_mesh((1.0, 1.1, 0.6), (4, 3, 5)),
        _tapered(build_mesh((1.0, 1.1, 1.2), (6, 6, 6))),
    ], ids=["cube3", "brick435", "taper6"])
    def test_matches_einsum_assembly(self, mesh):
        got, want = assemble(mesh), reference_assemble(mesh)
        for name in ("A", "B"):
            M, R = getattr(got, name), getattr(want, name)
            assert M.indices.dtype == M.indptr.dtype == np.int32
            assert np.array_equal(M.indptr, R.indptr)
            assert np.array_equal(M.indices, R.indices)
            assert np.max(np.abs(M.data - R.data)) <= 1e-14 * np.max(np.abs(R.data))
            assert (M != M.T).nnz == 0

    def test_reference_tables_match_axis_by_axis_construction(self):
        # the per-axis rule must reproduce the written-out tables byte for
        # byte, signed zeros included
        got = (assembly._W_HAT, assembly._C_HAT, assembly._DN,
               assembly._QWEIGHTS)
        for name, table, ref in zip(("W", "C", "dN", "weights"), got,
                                    reference_shape_tables()):
            assert table.dtype == ref.dtype and table.shape == ref.shape, name
            assert table.tobytes() == ref.tobytes(), name
        assert np.array_equal(assembly._LOCAL_TAIL, oracles._LOCAL_TAIL)


class TestSharedScatterMap:
    @pytest.fixture(scope="class")
    def endpoints(self):
        m0 = build_mesh((1.0, 1.1, 1.2), (4, 3, 5))
        m1 = _tapered(build_mesh((1.0, 1.1, 0.6), (4, 3, 5)))
        pattern = scatter_map(m0)
        return (m0, m1), [assemble(m, pattern=pattern) for m in (m0, m1)]

    def test_byte_equal_to_separate_assembly(self, endpoints):
        meshes, shared = endpoints
        for mesh, pair in zip(meshes, shared):
            alone = assemble(mesh)
            for name in ("A", "B"):
                M, R = getattr(pair, name), getattr(alone, name)
                for part in ("data", "indices", "indptr"):
                    a, b = getattr(M, part), getattr(R, part)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_matches_einsum_assembly(self, endpoints):
        meshes, shared = endpoints
        for mesh, pair in zip(meshes, shared):
            want = reference_assemble(mesh)
            for name in ("A", "B"):
                M, R = getattr(pair, name), getattr(want, name)
                assert np.array_equal(M.indptr, R.indptr)
                assert np.array_equal(M.indices, R.indices)
                assert (np.max(np.abs(M.data - R.data))
                        <= 1e-14 * np.max(np.abs(R.data)))

    def test_sums_like_the_bincount_scatter(self, endpoints):
        # same slots, same contributions, same order: equal to the bit
        meshes, _ = endpoints
        pattern = scatter_map(meshes[0])
        E = np.random.default_rng(5).standard_normal(
            (meshes[0].cell_vertices.shape[0], 78))
        indptr, indices, data = reference_scatter(meshes[0], E)
        assert np.array_equal(pattern.indptr, indptr)
        assert np.array_equal(pattern.indices, indices)
        assert (pattern.scatter @ E.ravel()).tobytes() == data.tobytes()

    def test_one_pattern_for_all_four_matrices(self, endpoints):
        _, shared = endpoints
        mats = [getattr(pair, name) for pair in shared for name in ("A", "B")]
        for M in mats[1:]:
            assert np.shares_memory(M.indptr, mats[0].indptr)
            assert np.shares_memory(M.indices, mats[0].indices)
        psys = ParametrizedSystem(*shared)
        mid = psys.interpolate(0.5)
        assert np.shares_memory(mid.A.indices, mats[0].indices)

    @pytest.mark.parametrize("res", [(4, 5, 3), (4, 3, 4)])
    def test_foreign_topology_rejected(self, res):
        # a permuted box with the same cell and free-edge counts, and a
        # smaller one
        pattern = scatter_map(build_mesh((1.0, 1.0, 1.0), (4, 3, 5)))
        with pytest.raises(ConfigError, match="another mesh topology"):
            assemble(build_mesh((1.0, 1.0, 1.0), res), pattern=pattern)


class TestSpectrum:
    @pytest.mark.parametrize("dims,res", [
        ((1.0, 1.0, 1.0), (2, 2, 2)),
        ((1.0, 1.0, 1.0), (3, 3, 3)),
        ((1.0, 1.1, 1.2), (3, 3, 3)),
        ((1.0, 1.1, 0.6), (4, 3, 5)),
    ])
    def test_matches_closed_form(self, dims, res):
        """Nonzero generalized eigenvalues equal the separable exact values."""
        mesh = build_mesh(dims, res)
        values = _dense_spectrum(assemble(mesh))
        nv = interior_vertex_count(res)
        zeros, physical = values[:nv], values[nv:]
        assert np.max(np.abs(zeros)) < _ZERO_SPLIT
        oracle = discrete_brick_eigenvalues(dims, res)
        assert physical.size == oracle.size
        assert np.max(np.abs(physical - oracle) / oracle) < 1e-10

    def test_nullspace_dimension(self, cube2, cube3):
        for mesh in (cube2, cube3):
            values = _dense_spectrum(assemble(mesh))
            n_zero = int(np.count_nonzero(np.abs(values) < _ZERO_SPLIT))
            assert n_zero == mesh.n_interior_vertices


@pytest.fixture(scope="module")
def morph():
    m0 = build_mesh((1.0, 1.0, 1.0), (3, 3, 3))
    m1 = build_mesh((1.0, 1.1, 1.2), (3, 3, 3))
    return ParametrizedSystem(assemble(m0), assemble(m1))


class TestParametrizedSystem:
    def test_size_mismatch_rejected(self):
        p0 = assemble(build_mesh((1.0, 1.0, 1.0), (2, 2, 2)))
        p1 = assemble(build_mesh((1.0, 1.0, 1.0), (3, 3, 3)))
        with pytest.raises(ConfigError):
            ParametrizedSystem(p0, p1)

    def test_topology_mismatch_rejected(self):
        # same number of free edges, different edge graphs
        p0 = assemble(build_mesh((1.0, 1.0, 1.0), (2, 3, 4)))
        p1 = assemble(build_mesh((1.0, 1.0, 1.0), (4, 3, 2)))
        assert p0.n == p1.n
        with pytest.raises(ConfigError):
            ParametrizedSystem(p0, p1)

    def test_endpoints_reproduced(self, morph):
        for t, ref in ((0.0, morph.endpoint0), (1.0, morph.endpoint1)):
            pair = morph.interpolate(t)
            assert np.max(np.abs((pair.A - ref.A).toarray())) == 0.0
            assert np.max(np.abs((pair.B - ref.B).toarray())) == 0.0

    def test_affine_in_t(self, morph):
        t = 0.3125   # exactly representable, so the identity is exact
        pair = morph.interpolate(t)
        for name in ("A", "B"):
            got = getattr(pair, name).toarray()
            want = ((1 - t) * getattr(morph.endpoint0, name)
                    + t * getattr(morph.endpoint1, name)).toarray()
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("t", [-0.1, 1.0000001, np.nan])
    def test_t_out_of_range(self, morph, t):
        with pytest.raises(ConfigError):
            morph.interpolate(t)

    def test_constant_morph_is_bit_exact(self, cube3):
        psys = ParametrizedSystem(assemble(cube3), assemble(cube3))
        mid = psys.interpolate(0.1)
        assert np.array_equal(mid.A.data, psys.endpoint0.A.data)
        assert np.array_equal(mid.B.data, psys.endpoint0.B.data)
