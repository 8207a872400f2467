"""Eigen- and linear-solver contracts against dense oracles."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from maxwell_rb.bench import setup_problem
from maxwell_rb.config import default_config, with_overrides
from maxwell_rb.eigen import (SolverPolicy, pcg_solve, solve_dense_gevp,
                              solve_sparse_gevp, spd_solve_many)
from maxwell_rb.errors import EigensolverError, FactorizationError
from maxwell_rb.mesh import build_mesh, dissection_order

from oracles import (discrete_brick_eigenvalues, reference_cholesky_solve,
                     reference_cotree_system, reference_eigh)


def _random_spd_pencil(n, seed):
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(rng.uniform(0.1, 10.0, n)) @ Q.T
    R = rng.standard_normal((n, n))
    B = R @ R.T + n * np.eye(n)
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def _dense_residuals(A, B, sol):
    """||A v - lambda B v||_2 of every pair of a dense solution."""
    return np.linalg.norm(A @ sol.vectors - (B @ sol.vectors) * sol.values,
                          axis=0)


@pytest.fixture(scope="module")
def policy():
    return SolverPolicy.from_reference(2.0 * np.pi ** 2, seed=7)


@pytest.fixture(scope="module")
def problem8():
    return setup_problem(with_overrides(default_config(), resolution=(8, 8, 8)))


class TestDense:
    def test_matches_lapack(self):
        A, B = _random_spd_pencil(30, seed=0)
        sol = solve_dense_gevp(A, B)
        want = scipy.linalg.eigh(A, B, eigvals_only=True)
        assert np.allclose(sol.values, want, rtol=1e-12, atol=1e-12)
        assert np.all(np.diff(sol.values) >= 0)

    def test_b_orthonormal_vectors(self):
        A, B = _random_spd_pencil(20, seed=1)
        sol = solve_dense_gevp(A, B)
        gram = sol.vectors.T @ B @ sol.vectors
        assert np.allclose(gram, np.eye(20), atol=1e-10)
        assert sol.residual_norms is None
        assert _dense_residuals(A, B, sol).max() < 1e-10 * np.abs(A).max()

    def test_leading_count(self):
        A, B = _random_spd_pencil(40, seed=2)
        full = solve_dense_gevp(A, B)
        sol = solve_dense_gevp(A, B, count=6)
        assert sol.count == 6 and sol.vectors.shape == (40, 6)
        assert np.all(np.abs(sol.values - full.values[:6])
                      <= 1e-12 * np.abs(full.values[:6]))
        gram = sol.vectors.T @ B @ sol.vectors
        assert np.allclose(gram, np.eye(6), atol=1e-12)
        res = _dense_residuals(A, B, sol)
        assert res.shape == (6,)
        assert res.max() < 1e-12 * np.abs(A).max()
        # count=None and a count beyond the order give the full solve
        assert np.array_equal(solve_dense_gevp(A, B, count=None).values,
                              full.values)
        assert solve_dense_gevp(A, B, count=50).count == 40

    def test_indefinite_mass_rejected(self):
        A = np.eye(4)
        B = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(FactorizationError):
            solve_dense_gevp(A, B)


class TestDenseLapackCalls:
    """The direct LAPACK calls give scipy.linalg's results bit for bit,
    and reject what its wrappers rejected with typed errors."""

    @staticmethod
    def _assert_same(sol, want):
        values, vectors = want
        assert np.array_equal(sol.values, values)
        assert np.array_equal(sol.vectors, vectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_spectrum_bitwise(self, seed):
        A, B = _random_spd_pencil(10, seed=seed)
        self._assert_same(solve_dense_gevp(A, B), reference_eigh(A, B))

    def test_cotree_pencil_count_bitwise(self, desk_problem):
        # the 6^3 classical cotree pencil, its leading K pairs by sygvx
        A_hat, B_hat = reference_cotree_system(
            desk_problem.psys.interpolate(0.5), desk_problem.gauge)
        K = desk_problem.cfg.K
        sol = solve_dense_gevp(A_hat, B_hat, count=K)
        assert sol.count == K
        self._assert_same(sol, reference_eigh(A_hat, B_hat, count=K))

    def test_repeated_eigenvalues_bitwise(self):
        # ties in the spectrum: a double and a triple eigenvalue
        A, B = _random_spd_pencil(10, seed=5)
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((10, 10)))[0]
        A = Q @ np.diag([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0]) @ Q.T
        A = 0.5 * (A + A.T)
        for count in (None, 2, 4):
            self._assert_same(solve_dense_gevp(A, B, count=count),
                              reference_eigh(A, B, count=count))

    @staticmethod
    def _spd_stack(count, m, n, seed):
        """count SPD m x m matrices and right-hand sides (m, count, n)."""
        rng = np.random.default_rng(seed)
        R = rng.standard_normal((count, m, m))
        G = R @ R.transpose(0, 2, 1) + m * np.eye(m)
        return G, rng.standard_normal((m, count, n))

    def test_cholesky_solve_bitwise(self):
        # each system of the stack is bitwise scipy's cho_solve on numpy's
        # factor of that matrix alone.  numpy and scipy link separate
        # OpenBLAS builds whose potrf can differ in the last bits, so
        # against scipy's own factor the solve agrees to roundoff only.
        for count, m, n in ((3, 12, 6), (1, 1, 1), (4, 7, 3), (5, 30, 4)):
            G, U = self._spd_stack(count, m, n, seed=6)
            X = spd_solve_many(G, U)
            assert X.shape == U.shape
            for j in range(count):
                want = scipy.linalg.cho_solve((np.linalg.cholesky(G[j]), True),
                                              U[:, j])
                assert np.array_equal(X[:, j], want)
                assert np.allclose(X[:, j],
                                   reference_cholesky_solve(G[j], U[:, j]),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("where, index, match", [
        ("matrix", 1, "not finite"), ("rhs", 2, "not finite"),
        ("indefinite", 1, "not positive definite")])
    def test_stack_failure_names_first_index(self, where, index, match):
        G, U = self._spd_stack(4, 5, 2, seed=10)
        if where == "matrix":
            G[index, 3, 2] = np.nan
        elif where == "rhs":
            U[4, index, 1] = np.inf
        else:
            G[index, 2, 2] = -1.0
        G[3, 0, 0] = -1.0     # a later failure is not the one named
        with pytest.raises(FactorizationError, match=match) as err:
            spd_solve_many(G, U)
        assert err.value.index == index
        assert "system %d " % index in str(err.value)

    @pytest.mark.parametrize("count", [None, 2])
    @pytest.mark.parametrize("which, bad", [("A", np.nan), ("A", np.inf),
                                            ("B", np.nan), ("B", -np.inf)])
    def test_non_finite_pencil_rejected(self, count, which, bad):
        A, B = _random_spd_pencil(6, seed=7)
        M = A if which == "A" else B
        M[1, 3] = M[3, 1] = bad
        with pytest.raises(FactorizationError, match="not finite"):
            solve_dense_gevp(A, B, count=count)

    @pytest.mark.parametrize("count", [None, 2])
    def test_non_square_pencil_rejected(self, count):
        A, B = _random_spd_pencil(4, seed=9)
        with pytest.raises(FactorizationError, match="not square"):
            solve_dense_gevp(A, B[:, :3], count=count)
        with pytest.raises(FactorizationError, match="not square"):
            solve_dense_gevp(A[:3], B, count=count)

    @pytest.mark.parametrize("n, count", [(4, 0), (4, -1), (0, None), (0, 3)])
    def test_fewer_than_one_pair_rejected(self, n, count):
        A, B = _random_spd_pencil(n, seed=11) if n else (np.zeros((0, 0)),) * 2
        with pytest.raises(FactorizationError, match="must be >= 1, got"):
            solve_dense_gevp(A, B, count=count)

    def test_indefinite_mass_rejected_by_sygvx(self):
        A, B = _random_spd_pencil(6, seed=8)
        B[4, 4] = -1.0
        with pytest.raises(FactorizationError, match="not SPD"):
            solve_dense_gevp(A, B, count=2)


class TestPCG:
    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_matches_factorization(self, small_morph, t):
        B = small_morph["psys"].interpolate(t).B
        n = B.shape[0]
        block = np.random.default_rng(11).standard_normal((n, 4))
        block[:, 2] = 0.0
        dense = B.toarray()
        for rhs in (block[:, :1], np.zeros((n, 1)), block):
            x = pcg_solve(B, rhs)
            want = reference_cholesky_solve(dense, rhs)
            assert x.shape == rhs.shape
            err = np.linalg.norm(x - want, axis=0)
            assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0))

    def test_badly_scaled_full_accuracy(self, monkeypatch):
        # many distinct eigenvalues and a diagonal spread of 1e4: unlike
        # the tensor-grid mass matrices, CG cannot terminate early here,
        # so the stopping tolerance shows; Jacobi scaling needs 64
        # iterations, plain CG 387
        monkeypatch.setattr("maxwell_rb.eigen._PCG_MAXITER", 100)
        n = 200
        R = sp.random(n, n, density=0.05, random_state=4)
        scale = sp.diags(np.random.default_rng(4).uniform(1.0, 100.0, n))
        B = sp.csr_matrix(scale @ (R @ R.T + sp.eye(n)) @ scale)
        rhs = np.random.default_rng(11).standard_normal((n, 3))
        x = pcg_solve(B, rhs)
        want = reference_cholesky_solve(B.toarray(), rhs)
        err = np.linalg.norm(x - want, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=0))

    def test_indefinite_rejected(self):
        M = sp.csr_matrix(np.diag([1.0, -2.0, 3.0]))
        with pytest.raises(FactorizationError):
            pcg_solve(M, np.ones((3, 1)))

    def test_negative_curvature_rejected(self):
        # positive diagonal, indefinite: the first step has p^T M p < 0
        M = sp.csr_matrix(np.array([[1.0, 3.0], [3.0, 1.0]]))
        with pytest.raises(FactorizationError):
            pcg_solve(M, np.array([[1.0], [-1.0]]))

    def test_iteration_cap(self, small_morph, monkeypatch):
        B = small_morph["psys"].interpolate(0.5).B
        rhs = np.random.default_rng(5).standard_normal((B.shape[0], 1))
        monkeypatch.setattr("maxwell_rb.eigen._PCG_MAXITER", 2)
        with pytest.raises(FactorizationError):
            pcg_solve(B, rhs)


class TestSparse:
    def test_physical_modes_match_oracle(self, cube3_pair, policy):
        sol = solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy)
        oracle = discrete_brick_eigenvalues((1.0, 1.0, 1.0), (3, 3, 3), count=5)
        assert np.max(np.abs(sol.values - oracle) / oracle) < 1e-9
        assert sol.values.min() > policy.lambda_cut

    def test_vectors_b_orthonormal(self, cube3_pair, policy):
        sol = solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy)
        gram = sol.vectors.T @ (cube3_pair.B @ sol.vectors)
        assert np.allclose(gram, np.eye(5), atol=1e-8)
        assert sol.residual_norms.max() < 1e-7

    def test_deterministic_given_seed_and_salt(self, cube3_pair, policy):
        # the salt is t's: equal t give equal bits, -0.0 seeds as 0.0,
        # and t = 0.0 is the default
        a = solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy, t=0.25)
        b = solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy, t=0.25)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)
        zero = [solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy, **t)
                for t in ({}, {"t": 0.0}, {"t": -0.0})]
        for sol in zero[1:]:
            assert np.array_equal(sol.vectors, zero[0].vectors)

    def test_salt_changes_start_not_spectrum(self, cube3_pair, policy):
        a = solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy, t=0.25)
        b = solve_sparse_gevp(cube3_pair.A, cube3_pair.B, 5, policy, t=0.5)
        assert not np.array_equal(a.vectors, b.vectors)
        assert np.allclose(a.values, b.values, rtol=1e-9)

    def test_zero_and_negative_counts(self, cube3_pair, policy):
        for K in (0, -1):
            with pytest.raises(EigensolverError,
                               match="must be >= 1, got %d" % K):
                solve_sparse_gevp(cube3_pair.A, cube3_pair.B, K, policy)

    def test_singular_shift_rejected(self):
        # the shift hits the eigenvalue 3 exactly, so A - sigma B is singular
        n = 40
        A = sp.diags(np.arange(1.0, n + 1.0), format="csr")
        B = sp.identity(n, format="csr")
        policy = SolverPolicy(sigma=3.0, lambda_cut=0.5)
        with pytest.raises(FactorizationError):
            solve_sparse_gevp(A, B, 2, policy)

    def test_too_few_above_cut_reports_the_window(self):
        # the window nearest the shift (3, 4, 5, 6) lies below lambda_cut
        n = 40
        A = sp.diags(np.arange(1.0, n + 1.0), format="csr")
        B = sp.identity(n, format="csr")
        policy = SolverPolicy(sigma=2.5, lambda_cut=20.0)
        with pytest.raises(EigensolverError, match="found 0 of 4 requested"):
            solve_sparse_gevp(A, B, 2, policy)

    def test_small_system_dense_fallback(self, cube2, policy):
        from maxwell_rb.assembly import assemble

        pair = assemble(cube2)
        sol = solve_sparse_gevp(pair.A, pair.B, 5, policy)
        oracle = discrete_brick_eigenvalues((1.0, 1.0, 1.0), (2, 2, 2), count=5)
        assert np.max(np.abs(sol.values - oracle) / oracle) < 1e-10
        # the fallback's vectors come B-orthonormal, as Lanczos's do
        gram = sol.vectors.T @ (pair.B @ sol.vectors)
        assert np.abs(gram - np.eye(5)).max() <= 1e-14
        # 6 DoFs carry only 5 physical modes; the count requested is the
        # window, K + 2, as on the Lanczos path
        with pytest.raises(EigensolverError,
                           match=r"found 5 of 8 requested .*, need 6$"):
            solve_sparse_gevp(pair.A, pair.B, 6, policy)


class TestShiftInvertAccuracy:
    """The shifted pencil A - sigma B is indefinite: factored without
    threshold pivoting, it leaves relative residuals of 5e-14 to 1.3e-13
    here against 1.5e-15 to 1.7e-15 with it.  The bound sits between.
    The policy of the problem factors in the mesh's nested-dissection
    order."""

    @pytest.fixture(scope="class")
    def policy8(self, problem8):
        assert problem8.policy.ordering is not None
        return problem8.policy

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_residuals_and_dense_oracle(self, problem8, policy8, t):
        K = problem8.cfg.K
        pair = problem8.psys.interpolate(t)
        sol = solve_sparse_gevp(pair.A, pair.B, K, policy8)
        assert sol.residual_norms.max() / sol.values.max() <= 1e-14
        dense = scipy.linalg.eigh(pair.A.toarray(), pair.B.toarray(),
                                  eigvals_only=True)
        oracle = dense[dense > policy8.lambda_cut][:K]
        assert np.max(np.abs(sol.values - oracle) / oracle) <= 1e-10

    @pytest.mark.parametrize("t", [0.84375, 0.875, 0.90625, 0.9375])
    def test_double_eigenvalue_at_window_edge(self, problem8, policy8, t):
        # Modes K-1 and K are the two copies of a double eigenvalue here;
        # a window without margin can return one copy and miss the other.
        K = problem8.cfg.K
        pair = problem8.psys.interpolate(t)
        sol = solve_sparse_gevp(pair.A, pair.B, K, policy8)
        dense = scipy.linalg.eigh(pair.A.toarray(), pair.B.toarray(),
                                  eigvals_only=True)
        oracle = dense[dense > policy8.lambda_cut][:K]
        assert np.max(np.abs(sol.values - oracle) / oracle) <= 1e-10
        assert (sol.values[-1] - sol.values[-2]) / sol.values[-1] < 1e-8


class TestShiftInvertAccuracyMinDegree(TestShiftInvertAccuracy):
    """The same bounds on SuperLU's minimum-degree factor, which pencils
    that come without a mesh get."""

    @pytest.fixture(scope="class")
    def policy8(self, problem8):
        return dataclasses.replace(problem8.policy, ordering=None)


class TestFactorOrdering:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_orderings_agree(self, problem8, t):
        p = problem8
        pair = p.psys.interpolate(t)
        nd = solve_sparse_gevp(pair.A, pair.B, p.cfg.K, p.policy)
        mmd = solve_sparse_gevp(pair.A, pair.B, p.cfg.K,
                                dataclasses.replace(p.policy, ordering=None))
        assert np.max(np.abs(nd.values - mmd.values) / mmd.values) <= 1e-13

    def test_ordering_of_another_mesh_rejected(self, small_morph):
        pair = small_morph["psys"].interpolate(0.5)
        policy = dataclasses.replace(
            small_morph["policy"],
            ordering=dissection_order(build_mesh((1.0, 1.0, 1.0), (8, 8, 8))))
        with pytest.raises(EigensolverError, match="1176 unknowns.* has 36"):
            solve_sparse_gevp(pair.A, pair.B, 5, policy)


class TestPolicy:
    def test_from_reference_fractions(self):
        policy = SolverPolicy.from_reference(100.0, shift_fraction=0.8,
                                             cut_fraction=0.05, seed=3)
        assert policy.sigma == pytest.approx(80.0)
        assert policy.lambda_cut == pytest.approx(5.0)
        assert policy.seed == 3
