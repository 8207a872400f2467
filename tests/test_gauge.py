"""Tree-cotree gauge: spanning structure, spectral equivalence, projection."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from maxwell_rb.assembly import assemble
from maxwell_rb.eigen import solve_dense_gevp, solve_sparse_gevp, SolverPolicy
from maxwell_rb.errors import NumericsError, ProjectionError
from maxwell_rb.gauge import (CotreeProjector, build_cotree_system, build_tree,
                              cotree_operator, upscale)
from maxwell_rb.mesh import build_mesh, discrete_gradient

from oracles import (continuum_brick_eigenvalues, cotree_least_squares,
                     discrete_brick_eigenvalues)


@pytest.fixture(scope="module", params=["cube3", "brick4"])
def gauged(request):
    """(name, pair, gauge, 5 modes) of the unit 3^3 cube and a stretched
    4^3 brick; only the brick's BFS discovery order differs from the
    interior vertex order."""
    dims, res = {"cube3": ((1.0, 1.0, 1.0), (3, 3, 3)),
                 "brick4": ((1.0, 1.1, 1.2), (4, 4, 4))}[request.param]
    mesh = build_mesh(dims, res)
    pair = assemble(mesh)
    gauge = build_tree(mesh, discrete_gradient(mesh))
    policy = SolverPolicy.from_reference(
        continuum_brick_eigenvalues(dims, 1)[0], seed=5)
    return request.param, pair, gauge, solve_sparse_gevp(pair.A, pair.B, 5,
                                                         policy)


class TestTree:
    def test_partition_of_free_edges(self, cube3, cube3_gauge):
        g = cube3_gauge
        assert g.tree.size == cube3.n_interior_vertices
        assert g.cotree.size == cube3.n_free_edges - cube3.n_interior_vertices
        merged = np.sort(np.concatenate([g.tree, g.cotree]))
        assert np.array_equal(merged, np.arange(cube3.n_free_edges))

    def test_tree_spans_interior(self, cube3, cube3_gauge):
        covered = np.sort(cube3_gauge.parent_order)
        assert np.array_equal(covered, np.arange(cube3.n_interior_vertices))

    def test_tree_edges_invertible_against_gradient(self, cube3_gauge,
                                                    cube3_grad):
        # restricting the gradient to tree rows must stay full rank, the
        # property that lets tree DoFs absorb the gauge freedom
        G_tree = cube3_grad.G.toarray()[
            np.flatnonzero(
                np.isin(np.arange(cube3_grad.G.shape[0]), cube3_gauge.tree)
            )
        ]
        assert np.linalg.matrix_rank(G_tree) == G_tree.shape[1]

    def test_tree_block_lower_triangular(self, gauged):
        # the projection solves G_tree phi = v_T by forward substitution
        _, _, gauge, _ = gauged
        assert sp.triu(gauge.G_tree, k=1).nnz == 0
        assert np.array_equal(np.abs(gauge.G_tree.diagonal()),
                              np.ones(gauge.tree.size))
        assert gauge.G_cotree.shape == (gauge.cotree.size, gauge.tree.size)

    def test_deterministic(self, cube3, cube3_grad):
        a = build_tree(cube3, cube3_grad)
        b = build_tree(cube3, cube3_grad)
        assert np.array_equal(a.tree, b.tree)
        assert np.array_equal(a.cotree, b.cotree)

    def test_size_mismatch_rejected(self, cube2, cube3_pair):
        wrong = build_tree(cube2, discrete_gradient(cube2))
        with pytest.raises(NumericsError):
            cotree_operator(cube3_pair, wrong)


class TestCotreeSystem:
    def test_operator_rows(self, cube3_pair, cube3_gauge):
        H = cotree_operator(cube3_pair, cube3_gauge)
        assert H.shape == (cube3_gauge.cotree.size, cube3_pair.n)
        want = cube3_pair.A.tocsr()[cube3_gauge.cotree, :]
        assert (H != want).nnz == 0

    def test_pencil_symmetric_spd_mass(self, cube3_pair, cube3_gauge):
        cs = build_cotree_system(cube3_pair, cube3_gauge)
        assert np.array_equal(cs.A_hat, cs.A_hat.T)
        assert np.array_equal(cs.B_hat, cs.B_hat.T)
        assert np.linalg.eigvalsh(cs.B_hat).min() > 0

    @pytest.mark.parametrize("dims,res", [
        ((1.0, 1.0, 1.0), (2, 2, 2)),
        ((1.0, 1.0, 1.0), (3, 3, 3)),
        ((1.0, 1.1, 1.2), (3, 3, 3)),
    ])
    def test_spectral_equivalence(self, dims, res):
        """Gauged pencil reproduces exactly the nonzero ungauged spectrum."""
        mesh = build_mesh(dims, res)
        pair = assemble(mesh)
        gauge = build_tree(mesh, discrete_gradient(mesh))
        cs = build_cotree_system(pair, gauge)
        gauged = np.sort(scipy.linalg.eigh(cs.A_hat, cs.B_hat,
                                           eigvals_only=True))
        full = np.sort(scipy.linalg.eigh(pair.A.toarray(), pair.B.toarray(),
                                         eigvals_only=True))
        nonzero = full[mesh.n_interior_vertices:]
        assert gauged.size == nonzero.size
        assert np.max(np.abs(gauged - nonzero) / nonzero) < 1e-8
        assert gauged.min() > 1e-6 * gauged.max()   # no spurious zero modes

    def test_matches_closed_form(self, cube3_pair, cube3_gauge):
        cs = build_cotree_system(cube3_pair, cube3_gauge)
        sol = solve_dense_gevp(cs.A_hat, cs.B_hat)
        oracle = discrete_brick_eigenvalues((1.0, 1.0, 1.0), (3, 3, 3))
        assert np.max(np.abs(sol.values - oracle) / oracle) < 1e-10


@pytest.fixture(scope="module")
def modes(cube3_pair):
    policy = SolverPolicy.from_reference(2.0 * np.pi ** 2, seed=5)
    return solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy)


class TestProjection:
    def test_round_trip_in_b_norm(self, cube3_pair, cube3_gauge, modes):
        B = cube3_pair.B
        for j in range(modes.count):
            v = modes.vectors[:, j]
            v_hat, rel = CotreeProjector(cube3_pair, cube3_gauge).project(v)
            assert rel <= 1e-9
            back = upscale(cube3_gauge, cube3_pair, v_hat)
            diff = back - v
            err = np.sqrt(diff @ (B @ diff)) / np.sqrt(v @ (B @ v))
            assert err < 1e-8

    def test_block_projection_matches_columns(self, cube3_pair, cube3_gauge,
                                              modes):
        proj = CotreeProjector(cube3_pair, cube3_gauge)
        block, rels = proj.project(modes.vectors)
        assert block.shape == (cube3_gauge.cotree.size, modes.count)
        for j in range(modes.count):
            single, rel = proj.project(modes.vectors[:, j])
            assert np.allclose(block[:, j], single, atol=1e-12)
            assert rels[j] == pytest.approx(rel, abs=1e-14)

    def test_matches_dense_least_squares(self, gauged):
        name, pair, gauge, modes = gauged
        if name == "brick4":
            # G_tree and G_cotree must share one column order; the 3^3
            # cube cannot tell, since its parent_order is the identity
            assert not np.array_equal(gauge.parent_order,
                                      np.arange(gauge.tree.size))
        v_hat, rels = CotreeProjector(pair, gauge).project(modes.vectors)
        want, _ = cotree_least_squares(pair.A, pair.B, gauge.cotree,
                                       modes.vectors)
        err = np.linalg.norm(v_hat - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() <= 1e-12
        assert rels.max() <= 1e-12

    def test_gradient_residual_not_below_least_squares(self, cube3_pair,
                                                       cube3_gauge, cube3_grad):
        rng = np.random.default_rng(1)
        v = cube3_grad.G @ rng.standard_normal((cube3_grad.G.shape[1], 3))
        _, rels = CotreeProjector(cube3_pair, cube3_gauge).project(
            v, check=False)
        _, floor = cotree_least_squares(cube3_pair.A, cube3_pair.B,
                                        cube3_gauge.cotree, v)
        assert np.all(rels > 1e-6)
        assert np.all(rels >= floor * (1.0 - 1e-12))

    def test_zero_and_gradient_columns_finite(self, cube3_pair, cube3_gauge,
                                              cube3_grad, modes):
        # zero and gradient columns have no positive Rayleigh quotient:
        # they condense to zero without warnings or NaNs
        v = np.column_stack([modes.vectors[:, 0], np.zeros(cube3_pair.n),
                             cube3_grad.G @ np.ones(cube3_grad.G.shape[1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v_hat, rels = CotreeProjector(cube3_pair, cube3_gauge).project(
                v, check=False)
        assert np.all(np.isfinite(v_hat)) and np.all(np.isfinite(rels))
        assert rels[0] <= 1e-12
        assert not v_hat[:, 1].any() and rels[1] == 0.0
        assert rels[2] > 1e-6

    def test_gradient_input_rejected(self, cube3_pair, cube3_gauge,
                                     cube3_grad):
        rng = np.random.default_rng(0)
        v = cube3_grad.G @ rng.standard_normal(cube3_grad.G.shape[1])
        projector = CotreeProjector(cube3_pair, cube3_gauge)
        with pytest.raises(ProjectionError):
            projector.project(v)
        _, rel = projector.project(v, check=False)
        assert rel > 1e-6

    def test_mixed_input_flagged(self, cube3_pair, cube3_gauge, cube3_grad,
                                 modes):
        # a physical mode polluted by a large gradient component must not
        # slip through the consistency check
        pollution = cube3_grad.G @ np.ones(cube3_grad.G.shape[1])
        v = modes.vectors[:, 0] + pollution
        with pytest.raises(ProjectionError):
            CotreeProjector(cube3_pair, cube3_gauge).project(v)
