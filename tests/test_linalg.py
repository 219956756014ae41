"""Dense linear algebra: SVD, symmetric eig, ridge, reduced-rank, lasso."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convcompress.linalg import (
    eig_sym,
    lasso_cd,
    lasso_gram,
    orthonormal_extend,
    pinv,
    reduced_rank_regression,
    ridge_solve,
    svd,
)

from _oracles import best_rank1_response_residual, jacobi_eigvals, lasso_cd_sample_space


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

    def test_slight_asymmetry_is_symmetrized_and_larger_raises(self):
        """Input asymmetric within sym_tol gives exactly the result of its
        symmetrized copy, which takes the exactly symmetric path; beyond
        sym_tol it raises."""
        rng = np.random.default_rng(4)
        b = rng.normal(size=(5, 5))
        a = b.T @ b
        a[0, 3] += 1e-12
        vals, vecs = eig_sym(a)
        want_vals, want_vecs = eig_sym(0.5 * (a + a.T))
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)
        a[0, 3] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym(a)

    @pytest.mark.parametrize(
        "a, message", [(np.full((2, 2), np.nan), "non-finite"), (np.zeros((0, 0)), "empty")],
        ids=["nan", "0x0"],
    )
    def test_rejects_nan_and_empty(self, a, message):
        with pytest.raises(ValueError, match=message):
            eig_sym(a)


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

    @pytest.mark.filterwarnings("ignore:lasso_cd stopped at max_sweeps:RuntimeWarning")
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

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.5, 2.0, 8.0])
    def test_matches_sample_space_oracle(self, lam):
        """The covariance-form sweeps follow the residual-vector sweeps."""
        rng = np.random.default_rng(14)
        for shape in [(30, 6), (12, 5), (40, 9)]:
            x = rng.normal(size=shape) + 0.6 * rng.normal(size=(shape[0], 1))
            x[:, 2] = 0.0
            y = rng.normal(size=shape[0]) + x[:, :3] @ rng.normal(size=3)
            assert_allclose(lasso_cd(x, y, lam), lasso_cd_sample_space(x, y, lam), atol=1e-8)

    def test_max_sweeps_is_reported(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(25, 8)) + rng.normal(size=(25, 1))
        y = rng.normal(size=25)
        res = lasso_gram(x.T @ x, x.T @ y, 0.1, max_sweeps=2)
        assert (res.sweeps, res.converged) == (2, False)
        with pytest.warns(RuntimeWarning, match="max_sweeps=2"):
            assert_allclose(lasso_cd(x, y, 0.1, max_sweeps=2), res.beta, atol=1e-12)
        done = lasso_gram(x.T @ x, x.T @ y, 0.1)
        assert done.converged and 2 < done.sweeps < 10000


class TestLassoGram:
    def test_warm_start_reaches_cold_solution(self):
        """From any start, including a denser one and one with a nonzero
        coefficient on a zero column, the sweeps reach the cold-start
        solution."""
        rng = np.random.default_rng(16)
        x = rng.normal(size=(50, 10)) + 0.5 * rng.normal(size=(50, 1))
        x[:, 7] = 0.0
        y = x[:, :4] @ rng.normal(size=4) + 0.1 * rng.normal(size=50)
        g, c = x.T @ x, x.T @ y
        for lam in (0.01, 1.0, 10.0):
            cold = lasso_gram(g, c, lam, tol=1e-13)
            assert cold.converged
            starts = [rng.normal(size=10) * 5.0, np.ones(10), cold.beta, np.zeros(10)]
            for beta0 in starts:
                warm = lasso_gram(g, c, lam, beta0=beta0, tol=1e-13)
                assert warm.converged
                assert_allclose(warm.beta, cold.beta, atol=1e-9)
                assert warm.beta[7] == 0.0

    def test_warm_start_at_the_solution_takes_one_sweep(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        g, c = x.T @ x, x.T @ y
        cold = lasso_gram(g, c, 0.3, tol=1e-14)
        again = lasso_gram(g, c, 0.3, beta0=cold.beta, tol=1e-8)
        assert again.sweeps == 1
        assert_allclose(again.beta, cold.beta, atol=1e-12)

    def test_beta0_not_modified(self):
        g = np.array([[2.0, 0.5], [0.5, 1.0]])
        beta0 = np.array([3.0, -3.0])
        lasso_gram(g, np.array([1.0, 1.0]), 0.1, beta0=beta0)
        assert beta0.tolist() == [3.0, -3.0]

    @pytest.mark.parametrize(
        "g, c, beta0, match",
        [
            (np.ones((2, 3)), np.ones(2), None, "square"),
            (np.eye(2), np.ones(3), None, "c length"),
            (np.eye(2), np.ones(2), np.ones(3), "beta0 length"),
        ],
    )
    def test_shape_errors(self, g, c, beta0, match):
        with pytest.raises(ValueError, match=match):
            lasso_gram(g, c, 0.1, beta0=beta0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            lasso_gram(np.eye(2), np.ones(2), -1.0)


class TestRidgeSingularGuard:
    def test_more_rows_than_columns_raises_before_eigendecomposing(self, monkeypatch):
        import convcompress.linalg as la

        calls = []
        monkeypatch.setattr(la, "eig_sym", lambda *a, **kw: calls.append(a))
        z = np.random.default_rng(0).normal(size=(7, 5))
        with pytest.raises(ValueError, match="singular system"):
            ridge_solve(np.ones((2, 5)), z, eps=0.0)
        assert calls == []
