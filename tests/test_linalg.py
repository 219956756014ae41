"""Dense linear algebra: SVD, symmetric eig, ridge, reduced-rank, lasso."""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import convcompress
from convcompress import linalg
from convcompress.linalg import (
    eig_sym,
    lasso_cd,
    lasso_solver,
    orthonormal_extend,
    pinv,
    reduced_rank_regression,
    ridge_solve,
    rrr_fitter,
    svd,
)

from _oracles import (
    best_rank1_response_residual,
    jacobi_eigvals,
    lasso_cd_sample_space,
    lasso_gram_reference_loop,
    psd_inverse_reference,
)


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
            ur, sr, vr = res.U[:, :r], res.S[:r], res.V[:, :r]
            err2 = np.linalg.norm(a - (ur * sr) @ vr.T) ** 2
            tail = float(np.sum(res.S[r:] ** 2))
            assert abs(err2 - tail) <= 1e-8 * max(1.0, tail)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("shape", [(7, 5), (5, 7), (4, 4), (1, 6)])
    def test_rank_r_equals_truncated_full_svd(self, shape):
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        for r in range(1, min(shape) + 1):
            res, full = svd(a, r), svd(a)
            for got, want in zip((res.U, res.S, res.V), (full.U[:, :r], full.S[:r], full.V[:, :r])):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("r", [0, -1, 5])
    def test_rank_r_out_of_range_raises(self, r):
        with pytest.raises(ValueError, match=f"rank {r} out of range \\[1, 4\\]"):
            svd(np.ones((4, 6)), r)

    @pytest.mark.parametrize("f", [svd, pinv])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_refuses_an_empty_matrix(self, f, shape):
        with pytest.raises(ValueError, match="matrix must not be empty"):
            f(np.zeros(shape))

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

    def test_wide_z_default_ridge_fits_to_its_bias(self):
        """More rows than columns: Z Z^T is singular and the default ridge
        is 1e-8 of its mean eigenvalue.  Y = W Z is fitted to about that
        ridge's bias (3e-9 here); forming the inverse before applying it to
        Y Z^T would leave 1e-7."""
        rng = np.random.default_rng(41)
        z = rng.normal(size=(200, 50))
        y = rng.normal(size=(8, 200)) @ z
        m = ridge_solve(y, z)
        assert np.linalg.norm(y - m @ z) <= 1e-8 * np.linalg.norm(y)

    def test_zero_eps_refuses_condition_number_above_1e12(self):
        """Z Z^T with eigenvalues 1 and 1e-13 has full numerical rank, but
        its condition number exceeds the one singular rule's 1e12."""
        rng = np.random.default_rng(40)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(30, 2)))
        z = (q * [1.0, 10**-6.5]) @ v.T
        vals = np.linalg.eigvalsh(z @ z.T)
        assert 5e12 <= vals[1] / vals[0] <= 2e13
        with pytest.raises(ValueError, match="singular"):
            ridge_solve(rng.normal(size=(3, 30)), z, eps=0.0)
        assert np.isfinite(ridge_solve(rng.normal(size=(3, 30)), z, eps=1e-9)).all()


    @pytest.mark.parametrize("eps", [None, 0.0, 1.0])
    def test_overflowing_cross_product_is_refused(self, eps):
        """Y Z^T of finite data can overflow; ridge_solve refuses it as it
        refuses an overflowing Z Z^T, and returns no infinite map."""
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^matrix contains non-finite entries$"
        ):
            ridge_solve(np.full((1, 3), 1e300), [[1e10, 2e10, 3e10]], eps=eps)


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
        res = lasso_solver(x.T @ x, x.T @ y, max_sweeps=2)(0.1)
        assert (res.sweeps, res.converged) == (2, False)
        with pytest.warns(RuntimeWarning, match="max_sweeps=2"):
            assert_allclose(lasso_cd(x, y, 0.1, max_sweeps=2), res.beta, atol=1e-12)
        done = lasso_solver(x.T @ x, x.T @ y)(0.1)
        assert done.converged and 2 < done.sweeps < 10000


class TestLassoGram:
    """lasso_solver, the lasso in covariance (Gram) form: warm starts and refusals."""

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
            cold = lasso_solver(g, c, tol=1e-13)(lam)
            assert cold.converged
            starts = [rng.normal(size=10) * 5.0, np.ones(10), cold.beta, np.zeros(10)]
            for beta0 in starts:
                warm = lasso_solver(g, c, tol=1e-13)(lam, beta0)
                assert warm.converged
                assert_allclose(warm.beta, cold.beta, atol=1e-9)
                assert warm.beta[7] == 0.0

    def test_warm_start_at_the_solution_takes_one_sweep(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        g, c = x.T @ x, x.T @ y
        cold = lasso_solver(g, c, tol=1e-14)(0.3)
        again = lasso_solver(g, c, tol=1e-8)(0.3, cold.beta)
        assert again.sweeps == 1
        assert_allclose(again.beta, cold.beta, atol=1e-12)

    def test_beta0_not_modified(self):
        g = np.array([[2.0, 0.5], [0.5, 1.0]])
        beta0 = np.array([3.0, -3.0])
        lasso_solver(g, np.array([1.0, 1.0]))(0.1, beta0)
        assert beta0.tolist() == [3.0, -3.0]

    def test_beta0_of_a_dead_coordinate_not_modified(self):
        """A zero-norm column's warm start is zeroed in a copy."""
        beta0 = np.array([1.0, 1.0])
        res = lasso_solver(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))(0.1, beta0)
        assert res.beta.tolist() == [0.9, 0.0]
        assert beta0.tolist() == [1.0, 1.0]

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
            lasso_solver(g, c)(0.1, beta0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            lasso_solver(np.eye(2), np.ones(2))(-1.0)


class TestLassoGramPinned:
    """lasso_solver's two-branch soft threshold returns the bits of the loop
    that took ``copysign(abs(rho) - lam, rho)``."""

    @staticmethod
    def _problem(rng):
        """Correlated columns, sometimes a zero one, a lambda from zero to
        past the largest correlation, and sometimes a warm start or a sweep
        cap that stops the loop unconverged."""
        n, p = int(rng.integers(3, 40)), int(rng.integers(1, 13))
        x = rng.normal(size=(n, p)) + rng.normal() * rng.normal(size=(n, 1))
        if p > 1 and rng.random() < 0.3:
            x[:, int(rng.integers(p))] = 0.0
        y = x @ rng.normal(size=p) * rng.random() + rng.normal(size=n)
        g, c = x.T @ x, x.T @ y
        lam = float(rng.choice([0.0, 1.0, 2.0 * np.abs(c).max()])) * rng.random()
        beta0 = rng.normal(size=p) * 3.0 if rng.random() < 0.3 else None
        kw = {"tol": float(rng.choice([1e-8, 1e-12, 0.0]))}
        if rng.random() < 0.2:
            kw["max_sweeps"] = int(rng.integers(1, 5))
        return g, c, lam, beta0, kw

    def test_equals_the_copysign_loop_on_random_problems(self):
        rng = np.random.default_rng(345)
        outcomes = set()
        for _ in range(300):
            g, c, lam, beta0, kw = self._problem(rng)
            got = lasso_solver(g, c, **kw)(lam, beta0)
            want = lasso_gram_reference_loop(g, c, lam, beta0=beta0, **kw)
            assert got.beta.tobytes() == want["beta"].tobytes()
            assert (got.sweeps, got.converged) == (want["sweeps"], want["converged"])
            outcomes.add((got.converged, bool(got.beta.any())))
        # converged and capped runs, all-zero and nonzero solutions all occur
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestLassoSolver:
    """One lasso_solver of a fixed G and c gives, for every penalty and warm
    start, the bits of the sweep loop; it checks G and c once."""

    def test_equals_the_copysign_loop_for_many_penalties(self):
        rng = np.random.default_rng(346)
        for _ in range(100):
            g, c, lam, beta0, kw = TestLassoGramPinned._problem(rng)
            solve = lasso_solver(g, c, **kw)
            for lam_i, beta0_i in ((lam, beta0), (2.0 * lam + 0.5, None), (0.5 * lam, beta0)):
                got = solve(lam_i, beta0_i)
                want = lasso_gram_reference_loop(g, c, lam_i, beta0=beta0_i, **kw)
                assert got.beta.tobytes() == want["beta"].tobytes()
                assert (got.sweeps, got.converged) == (want["sweeps"], want["converged"])

    def test_checks_g_and_c_once(self, monkeypatch):
        checked = []
        float_array = linalg.float_array

        def counting(a, what, *args):
            checked.append(what)
            return float_array(a, what, *args)

        monkeypatch.setattr(linalg, "float_array", counting)
        solve = lasso_solver(np.eye(3), [1.0, 2.0, 3.0])
        solve(0.5)
        beta0 = np.ones(3)
        solve(0.25, beta0)
        solve(1.0)
        assert checked == ["G", "c", "beta0"]
        assert np.array_equal(beta0, np.ones(3))  # a warm start is not written to

    @pytest.mark.parametrize("args, message", [
        ((np.ones((2, 3)), [1.0, 1.0]), "G must be square, got (2, 3)"),
        ((np.eye(2), [1.0, 1.0, 1.0]), "c length 3 does not match G size 2"),
        ((np.eye(2), [1.0, 1.0], 1e-8, 0), "max_sweeps must be >= 1, got 0"),
    ], ids=["G", "c", "max_sweeps"])
    def test_refuses_when_built(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            lasso_solver(*args)

    @pytest.mark.parametrize("lam, beta0, message", [
        (-1.0, None, "lambda must be >= 0"),
        (np.nan, None, "lambda must be >= 0"),
        (0.1, np.zeros(3), "beta0 length 3 does not match G size 2"),
        (0.1, [np.inf, 0.0], "beta0 contains non-finite entries"),
    ], ids=["negative", "nan", "length", "non-finite"])
    def test_each_solve_checks_its_penalty_and_warm_start(self, lam, beta0, message):
        solve = lasso_solver(np.eye(2), [1.0, 1.0])
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(lam, beta0)
        assert solve(0.5).beta.tolist() == [0.5, 0.5]


class TestPsdInversePinned:
    """``_psd_power``, the PSD inverse every solver runs, gives the bytes, or
    the refusal, of the copy that went through eig_sym with its sign fixing."""

    @staticmethod
    def outcome(f, *args):
        try:
            return f(*args).tobytes()
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize(
        "case", ["well-conditioned", "singular-ridged", "half-power", "left", "refused"]
    )
    def test_equals_reference(self, case):
        rng = np.random.default_rng(["well-conditioned", "singular-ridged", "half-power",
                                     "left", "refused"].index(case))
        filtered = refused = 0
        for _ in range(60):
            n = int(rng.integers(1, 9))
            rank = n if case != "singular-ridged" else int(rng.integers(1, n + 1))
            a = rng.normal(size=(n, rank + (n if case == "well-conditioned" else 0)))
            c = a @ a.T
            eps, power, left = 0.0, 1.0, None
            if case == "singular-ridged":
                eps = float(10.0 ** rng.uniform(-20, -8))
                filtered += bool((np.linalg.eigvalsh(c + eps * np.eye(n)) <= 0).any())
            elif case == "half-power":
                eps, power = float(rng.choice([0.0, 1e-9])), 0.5
            elif case == "left":
                eps = float(rng.choice([0.0, 1e-9]))
                left = rng.normal(size=(int(rng.integers(1, 5)), n))
            elif case == "refused":
                q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                c = (q * 10.0 ** -rng.uniform(0, 16, size=n)) @ q.T
                c = 0.5 * (c + c.T)
            want = self.outcome(psd_inverse_reference, c, eps, power, left)
            refused += isinstance(want, str)
            got = self.outcome(linalg._psd_power, linalg._symmetric(c), eps, power, left)
            assert got == want
        if case == "singular-ridged":
            assert filtered > 0
        assert (refused > 0) == (case == "refused")


class TestRidgeSingularGuard:
    def test_more_rows_than_columns_raises_before_eigendecomposing(self, monkeypatch):
        import convcompress.linalg as la

        calls = []
        monkeypatch.setattr(la, "_eigh", lambda *a, **kw: calls.append(a))
        z = np.random.default_rng(0).normal(size=(7, 5))
        with pytest.raises(ValueError, match="singular system"):
            ridge_solve(np.ones((2, 5)), z, eps=0.0)
        assert calls == []

    @pytest.mark.parametrize("eps", [None, 0.0, 1.0])
    @pytest.mark.parametrize("y_shape, z_shape", [((2, 0), (0, 0)), ((1, 3), (0, 3))])
    def test_z_without_rows_is_refused(self, y_shape, z_shape, eps):
        """An empty ``Z @ Z.T`` is refused, never indexed."""
        with pytest.raises(ValueError, match="^matrix must not be empty$"):
            ridge_solve(np.ones(y_shape), np.zeros(z_shape), eps)


class TestRrrFitter:
    def test_fit_equals_reduced_rank_regression(self):
        rng = np.random.default_rng(30)
        z = rng.normal(size=(5, 60)).T.copy().T  # a non-contiguous Z
        fit = rrr_fitter(z, 2)
        for _ in range(3):
            y = rng.normal(size=(4, 60))
            assert np.array_equal(fit(y), reduced_rank_regression(y, z, 2).M)

    def test_zero_eps_rank_deficient_raises_when_built(self):
        z = np.random.default_rng(31).normal(size=(3, 40))
        z = np.vstack([z, z[:1]])
        with pytest.raises(ValueError, match="rank deficient"):
            rrr_fitter(z, 1, eps=0.0)

    @pytest.mark.parametrize(
        "y,z,r",
        [
            (np.full((2, 40), np.nan), "deficient", 1),
            (np.full((2, 40), np.nan), np.full((4, 40), np.nan), 1),
            (np.ones((2, 40)), np.full((4, 40), np.nan), 5),
            (np.full((2, 40), np.nan), "deficient", 5),
            (np.ones((2, 39)), "deficient", 1),
            (np.ones((2, 40)), "deficient", 3),
        ],
        ids=["nan-y", "nan-both", "nan-z-bad-rank", "nan-y-bad-rank", "columns", "rank"],
    )
    def test_raises_what_reduced_rank_regression_raises(self, y, z, r):
        """Checks run in the same order, so the first error is the same."""
        if isinstance(z, str):
            z = np.random.default_rng(33).normal(size=(3, 40))
            z = np.vstack([z, z[:1]])
        with pytest.raises(ValueError) as want:
            reduced_rank_regression(y, z, r, eps=0.0)
        with pytest.raises(ValueError) as got:
            rrr_fitter(z, r, eps=0.0)(y)
        assert str(got.value) == str(want.value)

    def test_each_fit_checks_y_and_rank(self):
        fit = rrr_fitter(np.random.default_rng(32).normal(size=(3, 20)), 3)
        with pytest.raises(ValueError, match="non-finite"):
            fit(np.full((3, 20), np.nan))
        with pytest.raises(ValueError, match="column counts"):
            fit(np.ones((3, 19)))
        with pytest.raises(ValueError, match="rank 3 out of range"):
            fit(np.ones((2, 20)))


class TestBackendGuard:
    def test_only_linalg_calls_numpy_linalg(self):
        """linalg.py is the one linear-algebra backend: no other module
        imports numpy.linalg or calls an ``np.linalg`` function but ``norm``."""
        offenders = []
        for path in sorted(Path(convcompress.__file__).parent.glob("*.py")):
            if path.name == "linalg.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "numpy.linalg"
                ):
                    offenders.append(f"{path.name}:{node.lineno} from {node.module} import")
                elif isinstance(node, ast.Import) and any(
                    a.name.startswith("numpy.linalg") for a in node.names
                ):
                    offenders.append(f"{path.name}:{node.lineno} import numpy.linalg")
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")
                    and node.attr != "norm"
                ):
                    offenders.append(f"{path.name}:{node.lineno} np.linalg.{node.attr}")
        assert offenders == []

    def test_imports_only_the_standard_library_and_numpy(self):
        """The package is numpy-only: every module it imports is in the
        standard library, is numpy, or is one of its own, imported relative."""
        offenders = []
        for path in sorted(Path(convcompress.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                              if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}]
        assert offenders == []
