"""Dense linear algebra: SVD, symmetric eig, ridge, reduced-rank, lasso."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convcompress.linalg import (
    eig_sym,
    lasso_cd,
    orthonormal_extend,
    pinv,
    reduced_rank_regression,
    ridge_solve,
    svd,
)

from _oracles import best_rank1_response_residual, jacobi_eigvals


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert_allclose(res.S, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        res = svd(np.diag([3.0, 2.0, 1.0]))
        assert_allclose(res.S, [3.0, 2.0, 1.0], atol=1e-12)

    def test_reconstruction_and_oracle_eigvals(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 4))
        res = svd(a)
        assert np.linalg.norm(res.U @ np.diag(res.S) @ res.V.T - a) <= 1e-10
        lam = jacobi_eigvals(a.T @ a)
        assert_allclose(np.sort(res.S**2)[::-1], lam, atol=1e-8)

    @pytest.mark.parametrize("shape", [(6, 6), (8, 3), (3, 8), (1, 5), (5, 1), (1, 1)])
    def test_orthogonality_all_orientations(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(size=shape)
        res = svd(a)
        p = min(shape)
        assert np.max(np.abs(res.U.T @ res.U - np.eye(p))) <= 1e-8
        assert np.max(np.abs(res.V.T @ res.V - np.eye(p))) <= 1e-8
        assert np.linalg.norm(res.U @ np.diag(res.S) @ res.V.T - a) <= 1e-8 * max(
            1.0, np.linalg.norm(a)
        )

    def test_rank_deficient_keeps_orthonormal_u(self):
        rng = np.random.default_rng(5)
        a = np.outer(rng.normal(size=6), rng.normal(size=4))
        res = svd(a)
        assert np.max(np.abs(res.U.T @ res.U - np.eye(4))) <= 1e-8
        assert res.S[1] <= 1e-10 * res.S[0]

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(7, 5))
        r1, r2 = svd(a), svd(a.copy())
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.V, r2.V)
        for j in range(r1.S.size):
            col = r1.U[:, j]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_eckart_young_truncation(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            m = rng.integers(3, 30)
            n = rng.integers(3, 30)
            a = rng.normal(size=(m, n))
            res = svd(a)
            r = int(rng.integers(1, min(m, n) + 1))
            ur, sr, vr = res.truncate(r)
            err2 = np.linalg.norm(a - (ur * sr) @ vr.T) ** 2
            tail = float(np.sum(res.S[r:] ** 2))
            assert abs(err2 - tail) <= 1e-8 * max(1.0, tail)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd(np.array([[1.0, np.nan]]))

    def test_pinv_satisfies_penrose_identities(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(6, 4)) @ rng.normal(size=(4, 5))  # rank-deficient
        ap = pinv(a)
        assert_allclose(a @ ap @ a, a, atol=1e-9)
        assert_allclose(ap @ a @ ap, ap, atol=1e-9)
        assert_allclose((a @ ap).T, a @ ap, atol=1e-9)
        assert_allclose((ap @ a).T, ap @ a, atol=1e-9)


class TestOrthonormalExtend:
    @pytest.mark.parametrize("seed,m,p,r", [(23, 9, 8, 9), (3, 6, 2, 5), (4, 5, 0, 3)])
    def test_extends_to_orthonormal_basis(self, seed, m, p, r):
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(m, m)))
        out = orthonormal_extend(q[:, :p], r)
        assert out.shape == (m, r)
        assert np.array_equal(out[:, :p], q[:, :p])
        assert np.max(np.abs(out.T @ out - np.eye(r))) <= 1e-12

    def test_too_many_columns_raises(self):
        with pytest.raises(ValueError, match="cannot extend"):
            orthonormal_extend(np.eye(3)[:, :2], 4)


class TestEigSym:
    def test_identity(self):
        vals, _ = eig_sym(np.eye(4))
        assert_allclose(vals, np.ones(4), atol=1e-12)

    def test_diagonal(self):
        vals, _ = eig_sym(np.diag([4.0, 1.0]))
        assert_allclose(vals, [4.0, 1.0], atol=1e-12)

    def test_matches_svd_squared(self):
        rng = np.random.default_rng(13)
        b = rng.normal(size=(6, 6))
        spd = b.T @ b
        vals, vecs = eig_sym(spd)
        assert_allclose(vals, np.sort(svd(b).S**2)[::-1], atol=1e-8)
        for j in range(6):
            assert np.linalg.norm(spd @ vecs[:, j] - vals[j] * vecs[:, j]) <= 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRidgeSolve:
    def test_y_equals_z_gives_identity(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 20))
        m = ridge_solve(z, z, eps=0.0)
        assert_allclose(m, np.eye(3), atol=1e-10)

    def test_z_identity_gives_y(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, 6))
        assert_allclose(ridge_solve(y, np.eye(6), eps=0.0), y, atol=1e-10)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(4, 20))
        z = rng.normal(size=(4, 20))
        eps = 1e-9
        m = ridge_solve(y, z, eps=eps)
        grad = 2.0 * (m @ z - y) @ z.T + 2.0 * eps * m
        assert np.linalg.norm(grad) <= 1e-6

    def test_singular_with_zero_eps_raises(self):
        z = np.zeros((3, 5))
        z[0] = 1.0
        with pytest.raises(ValueError, match="singular"):
            ridge_solve(np.ones((2, 5)), z, eps=0.0)


class TestReducedRank:
    def test_full_rank_equals_ridge(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(3, 40))
        z = rng.normal(size=(5, 40))
        eps = 1e-10
        res = reduced_rank_regression(y, z, r=3, eps=eps)
        assert_allclose(res.M, ridge_solve(y, z, eps=eps), atol=1e-8)

    def test_symmetric_case_is_pca_projection(self):
        """With Z = Y the rank-r map is the projector onto the top-r
        eigenspace, and the squared residual is the discarded eigenvalue sum."""
        rng = np.random.default_rng(6)
        y = rng.normal(size=(4, 60))
        res = reduced_rank_regression(y, y, r=2, eps=0.0)
        vals, vecs = eig_sym(y @ y.T)
        proj = vecs[:, :2] @ vecs[:, :2].T
        assert_allclose(res.M, proj, atol=1e-8)
        assert res.residual**2 == pytest.approx(float(np.sum(vals[2:])), rel=1e-8)

    def test_rank1_beats_random_search(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(3, 50))
        z = rng.normal(size=(3, 50))
        res = reduced_rank_regression(y, z, r=1, eps=0.0)
        oracle = best_rank1_response_residual(y, z, trials=10_000, seed=0)
        assert res.residual <= oracle + 1e-9

    def test_rank_constraint_holds(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(5, 30))
        z = rng.normal(size=(5, 30))
        res = reduced_rank_regression(y, z, r=2)
        s = svd(res.M).S
        assert np.all(s[2:] <= 1e-8 * max(1.0, s[0]))

    def test_residual_nonincreasing_in_rank(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(4, 30))
        z = rng.normal(size=(4, 30))
        residuals = [reduced_rank_regression(y, z, r).residual for r in range(1, 5)]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="rank"):
            reduced_rank_regression(np.ones((2, 4)), np.ones((2, 4)), r=3)


class TestLassoCd:
    def test_zero_lambda_orthonormal_design(self):
        rng = np.random.default_rng(10)
        q = svd(rng.normal(size=(20, 4))).U  # orthonormal columns
        y = rng.normal(size=20)
        assert_allclose(lasso_cd(q, y, 0.0), q.T @ y, atol=1e-8)

    def test_huge_lambda_zeroes_out(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(15, 5))
        y = rng.normal(size=15)
        assert np.all(lasso_cd(x, y, 1e6) == 0.0)

    def test_orthogonal_design_soft_threshold(self):
        """With orthonormal columns each coefficient is the soft-thresholded
        correlation; closed form checked per coordinate."""
        rng = np.random.default_rng(12)
        q = svd(rng.normal(size=(30, 2))).U
        y = rng.normal(size=30)
        lam = 0.3
        beta = lasso_cd(q, y, lam)
        rho = q.T @ y
        want = np.sign(rho) * np.maximum(np.abs(rho) - lam, 0.0)
        assert_allclose(beta, want, atol=1e-8)

    def test_objective_decreases_each_sweep(self):
        """The sweep loop is deterministic from the zero start, so running
        with max_sweeps = n reproduces the state after n sweeps; the
        objective along that sequence must be nonincreasing."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(25, 8))
        y = rng.normal(size=25)
        lam = 0.5

        def objective(beta):
            return 0.5 * np.sum((y - x @ beta) ** 2) + lam * np.sum(np.abs(beta))

        objs = [objective(np.zeros(8))]
        objs += [objective(lasso_cd(x, y, lam, max_sweeps=n)) for n in range(1, 12)]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_zero_norm_column_stays_zero(self):
        x = np.zeros((10, 2))
        x[:, 1] = 1.0
        beta = lasso_cd(x, np.ones(10), 0.1)
        assert beta[0] == 0.0
