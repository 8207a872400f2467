"""Tree-cotree gauge: spanning structure, spectral equivalence, projection."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from maxwell_rb import gauge as gauge_module
from maxwell_rb.assembly import ParametrizedSystem, SystemPair, assemble
from maxwell_rb.eigen import SolverPolicy, solve_dense_gevp, solve_sparse_gevp
from maxwell_rb.errors import (ConfigError, FactorizationError, NumericsError,
                               ProjectionError)
from maxwell_rb.gauge import (CotreeFamily, CotreeProjector,
                              build_cotree_system, build_tree,
                              cotree_operator, cotree_transpose_product)
from maxwell_rb.mesh import build_mesh, discrete_gradient

from oracles import (continuum_brick_eigenvalues, cotree_least_squares,
                     discrete_brick_eigenvalues, reference_build_tree,
                     reference_cotree_system, reference_upscale)

FROZEN_RESOLUTIONS = [(2, 2, 2), (3, 3, 3), (2, 5, 3), (7, 11, 4), (6, 6, 6),
                      (12, 12, 12)]


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
        ends = cube3.interior_vertex_index[
            cube3.edges[cube3.free_edges[cube3_gauge.tree]]]
        covered = np.unique(ends[ends >= 0])
        assert np.array_equal(covered, np.arange(cube3.n_interior_vertices))

    def test_tree_edges_invertible_against_gradient(self, cube3_gauge,
                                                    cube3_grad):
        # restricting the gradient to tree rows must stay full rank, the
        # property that lets tree DoFs absorb the gauge freedom
        G_tree = cube3_grad.toarray()[
            np.flatnonzero(
                np.isin(np.arange(cube3_grad.shape[0]), cube3_gauge.tree)
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

    @pytest.mark.parametrize("res", FROZEN_RESOLUTIONS,
                             ids=lambda res: "x".join(map(str, res)))
    def test_matches_queue_search(self, res):
        # the level-synchronous search must reproduce the FIFO tree exactly
        mesh = build_mesh((1.0, 1.1, 1.2), res)
        G = discrete_gradient(mesh)
        got = build_tree(mesh, G)
        tree, cotree, G_tree, G_cotree = reference_build_tree(mesh, G)
        for name, ref in (("tree", tree), ("cotree", cotree)):
            arr = getattr(got, name)
            assert arr.dtype == ref.dtype and np.array_equal(arr, ref), name
        for name, ref in (("G_tree", G_tree), ("G_cotree", G_cotree)):
            M = getattr(got, name)
            assert M.shape == ref.shape, name
            for part in ("indptr", "indices", "data"):
                a, b = getattr(M, part), getattr(ref, part)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, part)

    def test_size_mismatch_rejected(self, cube2, cube3_pair):
        wrong = build_tree(cube2, discrete_gradient(cube2))
        with pytest.raises(NumericsError):
            cotree_operator(cube3_pair, wrong)
        with pytest.raises(NumericsError):
            CotreeProjector(cube3_pair, wrong)


def _pencil(pair, gauge):
    """The classical pencil of a single system pair: its constant family
    at t = 0."""
    return build_cotree_system(
        CotreeFamily(ParametrizedSystem(pair, pair), gauge), 0.0)


class TestCotreeSystem:
    def test_operator_rows(self, cube3_pair, cube3_gauge):
        H = cotree_operator(cube3_pair, cube3_gauge)
        assert H.shape == (cube3_gauge.cotree.size, cube3_pair.n)
        want = cube3_pair.A.tocsr()[cube3_gauge.cotree, :]
        assert (H != want).nnz == 0

    def test_transpose_product_is_operator_transpose(self, cube3_pair,
                                                     cube3_gauge):
        Y = np.random.default_rng(3).standard_normal(
            (cube3_gauge.cotree.size, 4))
        want = cotree_operator(cube3_pair, cube3_gauge).T @ Y
        got = cotree_transpose_product(cube3_pair.A, cube3_gauge, Y)
        assert np.allclose(got, want, rtol=0.0,
                           atol=1e-14 * np.abs(want).max())

    def test_mass_block_read_off_stiffness_product(self, small_morph):
        # B_hat is taken as the cotree rows of A W; it must be H W exactly
        m = small_morph
        family = CotreeFamily(m["psys"], m["gauge"])
        t = 0.37
        H = cotree_operator(m["psys"].interpolate(t), m["gauge"])
        want = H @ family.solve(t)
        _, B_hat = build_cotree_system(family, t)
        assert np.array_equal(B_hat, 0.5 * (want + want.T))

    def test_pencil_symmetric_spd_mass(self, cube3_pair, cube3_gauge):
        A_hat, B_hat = _pencil(cube3_pair, cube3_gauge)
        assert np.array_equal(A_hat, A_hat.T)
        assert np.array_equal(B_hat, B_hat.T)
        assert np.linalg.eigvalsh(B_hat).min() > 0

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
        A_hat, B_hat = _pencil(pair, gauge)
        gauged = np.sort(scipy.linalg.eigh(A_hat, B_hat, eigvals_only=True))
        full = np.sort(scipy.linalg.eigh(pair.A.toarray(), pair.B.toarray(),
                                         eigvals_only=True))
        nonzero = full[mesh.n_interior_vertices:]
        assert gauged.size == nonzero.size
        assert np.max(np.abs(gauged - nonzero) / nonzero) < 1e-8
        assert gauged.min() > 1e-6 * gauged.max()   # no spurious zero modes

    def test_matches_closed_form(self, cube3_pair, cube3_gauge):
        A_hat, B_hat = _pencil(cube3_pair, cube3_gauge)
        sol = solve_dense_gevp(A_hat, B_hat)
        oracle = discrete_brick_eigenvalues((1.0, 1.0, 1.0), (3, 3, 3))
        assert np.max(np.abs(sol.values - oracle) / oracle) < 1e-10


def _with_mass(pair, B):
    return SystemPair(A=pair.A, B=B, n=pair.n)


class TestCotreeFamily:
    """One endpoint mass eigenbasis against the frozen per-parameter
    Cholesky pencil."""

    @pytest.fixture(scope="class", params=["3^3", "6^3"])
    def morph(self, request, small_morph, desk_problem):
        if request.param == "3^3":
            return small_morph["psys"], small_morph["gauge"]
        return desk_problem.psys, desk_problem.gauge

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_matches_reference(self, morph, t):
        psys, gauge = morph
        pencil = build_cotree_system(CotreeFamily(psys, gauge), t)
        ref = reference_cotree_system(psys.interpolate(t), gauge)
        for got, want in zip(pencil, ref):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        K = 5
        values = solve_dense_gevp(*pencil, count=K).values
        want = solve_dense_gevp(*ref, count=K).values
        assert np.all(np.abs(values - want) <= 1e-10 * want)

    def test_solve_contract(self, small_morph):
        # W = B(t)^{-1} H(t)^T to 1e-12 relative residual per column
        psys, gauge = small_morph["psys"], small_morph["gauge"]
        family = CotreeFamily(psys, gauge)
        for t in (0.0, 0.37, 1.0):
            pair = psys.interpolate(t)
            HT = cotree_operator(pair, gauge).T.toarray()
            W = family.solve(t)
            rel = (np.linalg.norm(pair.B @ W - HT, axis=0)
                   / np.linalg.norm(HT, axis=0))
            assert rel.max() < 1e-12
        n, c = psys.n, gauge.cotree.size
        assert family.V.shape == (n, n)
        assert [x.shape for x in family.X] == [(n, c), (n, c)]

    def test_identical_endpoints_constant_pencil(self, cube3_pair,
                                                 cube3_gauge):
        family = CotreeFamily(ParametrizedSystem(cube3_pair, cube3_pair),
                              cube3_gauge)
        at0 = build_cotree_system(family, 0.0)
        at5 = build_cotree_system(family, 0.5)
        for got, want in zip(at5, at0):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_t_outside_range(self, small_morph):
        family = CotreeFamily(small_morph["psys"], small_morph["gauge"])
        for t in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                build_cotree_system(family, t)

    @pytest.mark.parametrize("end", [0, 1])
    def test_non_finite_mass_rejected(self, small_morph, end):
        psys = small_morph["psys"]
        ends = [psys.endpoint0, psys.endpoint1]
        B = ends[end].B.copy()
        B.data[7] = np.nan
        ends[end] = _with_mass(ends[end], B)
        with pytest.raises(FactorizationError, match="not finite"):
            CotreeFamily(ParametrizedSystem(*ends), small_morph["gauge"])

    @pytest.mark.parametrize("end", [0, 1])
    def test_indefinite_mass_rejected(self, small_morph, end):
        # one negative diagonal entry: e_0^T B e_0 < 0.  B_0 fails the
        # eigensolve's Cholesky step, B_1 gives an eigenvalue mu <= 0.
        psys = small_morph["psys"]
        ends = [psys.endpoint0, psys.endpoint1]
        B = ends[end].B.copy()
        B[0, 0] = -1.0
        ends[end] = _with_mass(ends[end], B)
        with pytest.raises(FactorizationError):
            CotreeFamily(ParametrizedSystem(*ends), small_morph["gauge"])


@pytest.fixture(scope="module")
def modes(cube3_pair):
    policy = SolverPolicy.from_reference(2.0 * np.pi ** 2, seed=5)
    return solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy)


class TestProjection:
    def test_round_trip_in_b_norm(self, cube3_pair, cube3_gauge, modes):
        B = cube3_pair.B
        for j in range(modes.count):
            v = modes.vectors[:, j]
            v_hat, rel = CotreeProjector(cube3_pair, cube3_gauge).project(
                v[:, None])
            assert v_hat.shape == (cube3_gauge.cotree.size, 1)
            assert rel.shape == (1,) and rel[0] <= 1e-9
            back = reference_upscale(cube3_gauge, cube3_pair, v_hat)
            diff = back[:, 0] - v
            err = np.sqrt(diff @ (B @ diff)) / np.sqrt(v @ (B @ v))
            assert err < 1e-8

    def test_block_projection_matches_columns(self, cube3_pair, cube3_gauge,
                                              modes):
        proj = CotreeProjector(cube3_pair, cube3_gauge)
        block, rels = proj.project(modes.vectors)
        assert block.shape == (cube3_gauge.cotree.size, modes.count)
        for j in range(modes.count):
            column, rel = proj.project(modes.vectors[:, [j]])
            assert column.shape == (cube3_gauge.cotree.size, 1)
            assert np.allclose(block[:, [j]], column, atol=1e-12)
            assert rels[j] == pytest.approx(rel[0], abs=1e-14)
            # a 1-D input is condensed as the one-column block
            flat, flat_rel = proj.project(modes.vectors[:, j])
            assert np.array_equal(flat, column)
            assert np.array_equal(flat_rel, rel)

    def test_matches_dense_least_squares(self, gauged):
        name, pair, gauge, modes = gauged
        if name == "brick4":
            # G_tree and G_cotree must share one column order; the 3^3
            # cube cannot tell, since its tree rows of G are already
            # lower triangular in interior vertex order
            mesh = build_mesh((1.0, 1.1, 1.2), (4, 4, 4))
            assert sp.triu(discrete_gradient(mesh)[gauge.tree], k=1).nnz > 0
        v_hat, rels = CotreeProjector(pair, gauge).project(modes.vectors)
        want, _ = cotree_least_squares(pair.A, pair.B, gauge.cotree,
                                       modes.vectors)
        err = np.linalg.norm(v_hat - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() <= 1e-12
        assert rels.max() <= 1e-12

    def test_gradient_residual_not_below_least_squares(self, cube3_pair,
                                                       cube3_gauge, cube3_grad,
                                                       monkeypatch):
        # the residuals the check reads, with its tolerance lifted
        monkeypatch.setattr(gauge_module, "_CONSISTENCY_TOL", np.inf)
        rng = np.random.default_rng(1)
        v = cube3_grad @ rng.standard_normal((cube3_grad.shape[1], 3))
        _, rels = CotreeProjector(cube3_pair, cube3_gauge).project(v)
        _, floor = cotree_least_squares(cube3_pair.A, cube3_pair.B,
                                        cube3_gauge.cotree, v)
        assert np.all(rels > 1e-6)
        assert np.all(rels >= floor * (1.0 - 1e-12))

    def test_zero_and_gradient_columns_finite(self, cube3_pair, cube3_gauge,
                                              cube3_grad, modes, monkeypatch):
        # zero and gradient columns have no positive Rayleigh quotient:
        # they condense to zero without warnings or NaNs (the check's
        # tolerance lifted, so the gradient column is returned)
        monkeypatch.setattr(gauge_module, "_CONSISTENCY_TOL", np.inf)
        v = np.column_stack([modes.vectors[:, 0], np.zeros(cube3_pair.n),
                             cube3_grad @ np.ones(cube3_grad.shape[1])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v_hat, rels = CotreeProjector(cube3_pair, cube3_gauge).project(v)
        assert np.all(np.isfinite(v_hat)) and np.all(np.isfinite(rels))
        assert rels[0] <= 1e-12
        assert not v_hat[:, 1].any() and rels[1] == 0.0
        assert rels[2] > 1e-6

    def test_gradient_input_rejected(self, cube3_pair, cube3_gauge,
                                     cube3_grad):
        rng = np.random.default_rng(0)
        v = cube3_grad @ rng.standard_normal((cube3_grad.shape[1], 1))
        with pytest.raises(ProjectionError,
                           match=r"relative residual \S+ in column 0"):
            CotreeProjector(cube3_pair, cube3_gauge).project(v)

    def test_mixed_input_flagged(self, cube3_pair, cube3_gauge, cube3_grad,
                                 modes):
        # a physical mode polluted by a large gradient component must not
        # slip through the consistency check
        pollution = cube3_grad @ np.ones((cube3_grad.shape[1], 1))
        v = modes.vectors[:, [0]] + pollution
        with pytest.raises(ProjectionError):
            CotreeProjector(cube3_pair, cube3_gauge).project(v)
