"""Data-optimized refinement: sampling, PCA/asymmetric fits, ReLU, Asym3D."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convcompress.dataopt import (
    PatchBatch,
    asym3d,
    asym_data_svd,
    attach_current_outputs,
    data_svd,
    refined_kernel,
    refined_layer,
    relu_asym,
    relu_z_step,
    sample_patches,
    spatial_refine,
    weight_factors,
)
from convcompress.decomp import decomposed_forward, reconstruct, spatial_svd
from convcompress.kernel import Kernel4D, conv_direct, mac_cost
from convcompress.linalg import eig_sym, ridge_solve

from _oracles import (
    asym3d_reference_fit,
    best_rank1_projector_residual,
    relu_asym_reference_loop,
    relu_zstep_grid,
    spatial_refine_reference_fit,
    weight_factors_reference,
)


def make_setup(seed, t=5, s=4, k=3, n=300, prefix_noise=0.1):
    """Kernel plus a batch whose current outputs carry prefix error."""
    rng = np.random.default_rng(seed)
    kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
    x = rng.normal(size=(n, s * k * k))
    y = x @ kernel.as_matrix().T
    x_hat = x + prefix_noise * rng.normal(size=x.shape)
    batch = PatchBatch(inputs=x_hat, ref_outputs=y)
    return kernel, attach_current_outputs(batch, kernel)


def batch_residual(m, batch):
    """Frobenius error of the centered map on the batch."""
    yc = batch.ref_outputs - batch.y_mean
    zc = batch.cur_outputs - batch.z_mean
    return float(np.linalg.norm(yc - zc @ m.T))


class TestSamplePatches:
    def test_row_count_matches_protocol(self):
        """Ten patches per image over 5000 images give 50,000 rows."""
        rng = np.random.default_rng(0)
        maps = [(rng.normal(size=(1, 2, 2)), rng.normal(size=(1, 2, 2))) for _ in range(5000)]
        batch = sample_patches(maps, per_image=10, k=1, seed=0)
        assert batch.inputs.shape == (50_000, 1)

    def test_single_location_map(self):
        x = np.full((2, 1, 1), 3.0)
        y = np.full((3, 1, 1), -1.0)
        batch = sample_patches([(x, y)], per_image=5, k=3, seed=1)
        # the only location is (0, 0); center of each patch is the pixel
        assert batch.inputs.shape == (5, 2 * 9)
        for row in batch.inputs.reshape(5, 2, 3, 3):
            assert_allclose(row[:, 1, 1], [3.0, 3.0])
        assert_allclose(batch.ref_outputs, -np.ones((5, 3)))

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(2)
        maps = [(rng.normal(size=(2, 5, 5)), rng.normal(size=(3, 5, 5))) for _ in range(4)]
        b1 = sample_patches(maps, per_image=6, k=3, seed=9)
        b2 = sample_patches(maps, per_image=6, k=3, seed=9)
        assert np.array_equal(b1.inputs, b2.inputs)
        assert np.array_equal(b1.ref_outputs, b2.ref_outputs)

    def test_patch_rows_match_kernel_matrix(self):
        """A sampled patch applied through the kernel matrix equals the
        direct convolution; locations are aligned."""
        rng = np.random.default_rng(3)
        kernel = Kernel4D(rng.normal(size=(3, 2, 3, 3)))
        x = rng.normal(size=(2, 6, 6))
        y = conv_direct(kernel, x)
        batch = sample_patches([(x, y)], per_image=20, k=3, seed=4)
        predicted = batch.inputs @ kernel.as_matrix().T
        assert_allclose(predicted, batch.ref_outputs, atol=1e-10)

    def test_rows_are_zero_padded_neighbourhoods(self):
        """On non-square maps at k=5, each row is the k x k neighbourhood cut
        by hand around its drawn location, zeros outside the map.  The
        reference maps hold (map index, x, y), so each row names its own
        location."""
        rng = np.random.default_rng(5)
        s, h, w, k, d = 2, 6, 11, 5, 2
        inputs = [rng.normal(size=(s, h, w)) for _ in range(2)]
        maps = [(xin, np.stack([np.full((h, w), idx), *np.indices((h, w))]).astype(float))
                for idx, xin in enumerate(inputs)]
        batch = sample_patches(maps, per_image=30, k=k, seed=6)
        locations = batch.ref_outputs.astype(int)
        assert np.array_equal(np.unique(locations[:, 0]), [0, 1])
        border = (np.minimum(locations[:, 1], h - 1 - locations[:, 1]) < d) | (
            np.minimum(locations[:, 2], w - 1 - locations[:, 2]) < d
        )
        assert border.any() and not border.all()
        for row, (idx, x0, y0) in zip(batch.inputs, locations):
            want = np.zeros((s, k, k))
            for i in range(k):
                for j in range(k):
                    if 0 <= x0 + i - d < h and 0 <= y0 + j - d < w:
                        want[:, i, j] = inputs[idx][:, x0 + i - d, y0 + j - d]
            assert np.array_equal(row, want.ravel())

    def test_empty_maps_rejected(self):
        with pytest.raises(ValueError, match="no feature maps"):
            sample_patches([], per_image=3, k=3)

    def test_few_samples_warns(self):
        with pytest.warns(UserWarning, match="fewer samples"):
            PatchBatch(inputs=np.ones((2, 4)), ref_outputs=np.ones((2, 5)))

    def test_few_samples_warning_names_the_line_that_built_the_batch(self):
        with pytest.warns(UserWarning, match="fewer samples") as record:
            PatchBatch(inputs=np.ones((2, 4)), ref_outputs=np.ones((2, 5)))
        assert [w.filename for w in record] == [__file__]


class TestBatchTakenOnce:
    """A batch is checked, and warns, once: when it is built.  Attaching
    current responses checks only those responses."""

    @staticmethod
    def few_samples():
        """A 6-output kernel and a built batch of 4 samples."""
        rng = np.random.default_rng(60)
        kernel = Kernel4D(rng.normal(size=(6, 4, 3, 3)), bias=rng.normal(size=6))
        x = rng.normal(size=(4, 36))
        with pytest.warns(UserWarning, match="fewer samples"):
            batch = PatchBatch(inputs=x, ref_outputs=x @ kernel.as_matrix().T)
        return kernel, batch

    @pytest.mark.parametrize("call", [
        lambda kernel, batch: attach_current_outputs(batch, kernel),
        lambda kernel, batch: spatial_refine(spatial_svd(kernel, 5), batch),
        lambda kernel, batch: asym3d(kernel, batch, 5, 4),
    ], ids=["attach_current_outputs", "spatial_refine", "asym3d"])
    def test_a_built_batch_does_not_warn_again(self, call):
        kernel, batch = self.few_samples()
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            call(kernel, batch)
        assert not any("fewer samples" in str(w.message) for w in record)

    def test_attached_batch_keeps_the_checked_arrays(self):
        kernel, batch = make_setup(61)
        attached = attach_current_outputs(batch, kernel)
        assert attached.inputs is batch.inputs and attached.ref_outputs is batch.ref_outputs
        assert np.array_equal(attached.cur_outputs, batch.inputs @ kernel.as_matrix().T)


class TestDataSvd:
    def test_full_rank_identity(self):
        kernel, batch = make_setup(5)
        res = data_svd(kernel, batch.ref_outputs, r=kernel.t)
        assert np.max(np.abs(res.M - np.eye(kernel.t))) <= 1e-8
        assert res.residual <= 1e-8

    def test_planted_two_dim_subspace(self):
        rng = np.random.default_rng(6)
        kernel = Kernel4D(rng.normal(size=(5, 2, 1, 1)))
        basis = rng.normal(size=(2, 5))
        y = rng.normal(size=(200, 2)) @ basis  # rows in a 2-dim subspace
        res = data_svd(kernel, y, r=2)
        assert res.residual <= 1e-8 * np.sum(y * y)

    def test_rank_one_beats_random_projectors(self):
        rng = np.random.default_rng(7)
        kernel = Kernel4D(rng.normal(size=(4, 2, 1, 1)))
        y = rng.normal(size=(80, 4))
        res = data_svd(kernel, y, r=1)
        yc = y - y.mean(axis=0)
        oracle = best_rank1_projector_residual(yc, trials=10_000, seed=0)
        assert res.residual <= oracle + 1e-9

    def test_residual_is_discarded_eigenvalue_sum(self):
        kernel, batch = make_setup(8)
        y = batch.ref_outputs
        yc = y - y.mean(axis=0)
        vals, _ = eig_sym(yc.T @ yc)
        for r in range(1, kernel.t + 1):
            res = data_svd(kernel, y, r)
            assert res.residual == pytest.approx(float(np.sum(vals[r:])), abs=1e-8)

    def test_bias_follows_mean_correction(self):
        kernel, batch = make_setup(9)
        res = data_svd(kernel, batch.ref_outputs, r=2)
        ybar = batch.ref_outputs.mean(axis=0)
        assert_allclose(refined_kernel(res).bias, ybar - res.M @ ybar, atol=1e-12)

    def test_factorization_matches_projected_kernel(self):
        kernel, batch = make_setup(10)
        res = data_svd(kernel, batch.ref_outputs, r=3)
        w1, w2 = weight_factors(res)
        assert_allclose(w1 @ w2, res.M @ kernel.as_matrix(), atol=1e-8)
        dense = refined_kernel(res)
        assert_allclose(dense.data.reshape(kernel.t, -1), res.M @ kernel.as_matrix(), atol=1e-12)

    @pytest.mark.parametrize("seed", [9, 12, 21])
    def test_weight_factors_of_rank_deficient_projector(self, seed):
        """M = U_r U_r^T has t - r zero singular values; factoring it must
        not depend on completing a basis for them."""
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(200, 16))
        kernel = Kernel4D(rng.normal(size=(16, 8, 3, 3)))
        res = data_svd(kernel, y, 8)
        w1, w2 = weight_factors(res)
        assert w1.shape == (16, 8)
        assert_allclose(w1 @ w2, res.M @ kernel.as_matrix(), atol=1e-8)


class TestAsymDataSvd:
    def test_reduces_to_data_svd_when_prefix_is_clean(self):
        kernel, _ = make_setup(11)
        rng = np.random.default_rng(11)
        y = rng.normal(size=(250, kernel.t))
        batch = PatchBatch(
            inputs=rng.normal(size=(250, kernel.s * 9)), ref_outputs=y, cur_outputs=y.copy()
        )
        for r in (1, 2, 3):
            asym = asym_data_svd(batch, kernel, r, eps=0.0)
            sym = data_svd(kernel, y, r)
            assert np.max(np.abs(asym.M - sym.M)) <= 1e-8
            assert asym.residual**2 == pytest.approx(sym.residual, rel=1e-6, abs=1e-9)

    def test_full_rank_equals_ridge(self):
        kernel, batch = make_setup(12)
        res = asym_data_svd(batch, kernel, r=kernel.t, eps=1e-9)
        yc = (batch.ref_outputs - batch.y_mean).T
        zc = (batch.cur_outputs - batch.z_mean).T
        assert_allclose(res.M, ridge_solve(yc, zc, eps=1e-9), atol=1e-8)

    def test_dominates_symmetric_projector_under_prefix_error(self):
        for seed in range(20):
            kernel, batch = make_setup(100 + seed, prefix_noise=0.15)
            r = 3
            asym = asym_data_svd(batch, kernel, r)
            sym = data_svd(kernel, batch.ref_outputs, r)
            assert batch_residual(asym.M, batch) <= batch_residual(sym.M, batch) + 1e-9

    def test_planted_single_channel_bias(self):
        kernel, _ = make_setup(13)
        rng = np.random.default_rng(13)
        y = rng.normal(size=(300, kernel.t))
        z = y.copy()
        z[:, 1] += 2.5  # prefix error concentrated in one channel
        batch = PatchBatch(inputs=rng.normal(size=(300, kernel.s * 9)), ref_outputs=y, cur_outputs=z)
        asym = asym_data_svd(batch, kernel, r=3)
        sym = data_svd(kernel, y, r=3)
        assert batch_residual(asym.M, batch) <= batch_residual(sym.M, batch) + 1e-9

    def test_documented_bias_convention(self):
        kernel, batch = make_setup(14)
        res = asym_data_svd(batch, kernel, r=2)
        assert_allclose(refined_kernel(res).bias, batch.y_mean - res.M @ batch.z_mean, atol=1e-12)
        # predictions use the centered form
        pred = res.predict(batch.cur_outputs)
        want = (batch.cur_outputs - batch.z_mean) @ res.M.T + batch.y_mean
        assert_allclose(pred, want, atol=1e-12)

    def test_residual_nonincreasing_in_rank(self):
        kernel, batch = make_setup(15)
        residuals = [asym_data_svd(batch, kernel, r).residual for r in range(1, kernel.t + 1)]
        assert all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))

    def test_requires_current_outputs(self):
        kernel, _ = make_setup(16)
        rng = np.random.default_rng(16)
        bare = PatchBatch(
            inputs=rng.normal(size=(50, kernel.s * 9)), ref_outputs=rng.normal(size=(50, kernel.t))
        )
        with pytest.raises(ValueError, match="current outputs"):
            asym_data_svd(bare, kernel, r=1)


class TestReluAsym:
    def test_zstep_scalar_example(self):
        z = relu_z_step(np.array([-1.0]), np.array([1.0]), 1.0)[0]
        zg = relu_zstep_grid(-1.0, 1.0, 1.0)
        assert abs(z - zg) <= 1e-3

    def test_zstep_matches_grid_search(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            y0 = float(rng.uniform(-3, 3))
            a0 = float(rng.uniform(-3, 3))
            lam = float(rng.uniform(0.05, 20.0))
            z = relu_z_step(np.array([y0]), np.array([a0]), lam)[0]
            assert abs(z - relu_zstep_grid(y0, a0, lam)) <= 1e-3

    def test_objective_nonincreasing_at_fixed_lambda(self):
        kernel, batch = make_setup(18)
        res = relu_asym(batch, kernel, r=3)
        trace = res.meta["objective_trace"]
        for (lam_a, obj_a), (lam_b, obj_b) in zip(trace, trace[1:]):
            if lam_a == lam_b:
                assert obj_b <= obj_a * (1 + 1e-9) + 1e-12

    def test_final_objective_not_above_initial(self):
        kernel, batch = make_setup(19)
        res = relu_asym(batch, kernel, r=2)
        trace = res.meta["objective_trace"]
        last_lam = trace[-1][0]
        same = [obj for lam, obj in trace if lam == last_lam]
        assert same[-1] <= same[0] * (1 + 1e-9)

    def test_nonnegative_data_high_lambda_recovers_asym(self):
        """With strictly nonnegative responses the ReLU is inactive, and a
        huge penalty pins the auxiliary variable to the linear fit, so the
        result matches the plain asymmetric solution.  s >= t keeps the
        current responses full row rank so M is uniquely determined."""
        rng = np.random.default_rng(20)
        kernel = Kernel4D(np.abs(rng.normal(size=(4, 5, 1, 1))))
        x = np.abs(rng.normal(size=(300, 5)))
        y = x @ kernel.as_matrix().T
        x_hat = np.abs(x + 0.05 * rng.normal(size=x.shape))
        batch = attach_current_outputs(PatchBatch(inputs=x_hat, ref_outputs=y), kernel)
        res = relu_asym(batch, kernel, r=4, lambda_schedule=(1e8,), max_outer=4, eps=1e-12)
        raw = asym_data_svd(batch, kernel, r=4, eps=1e-12)
        assert np.max(np.abs(res.M - raw.M)) <= 1e-4

    def test_predict_reproduces_optimized_affine_map(self):
        kernel, batch = make_setup(30)
        res = relu_asym(batch, kernel, r=3)
        fit = relu_asym_reference_loop(batch, 3)
        want = batch.cur_outputs @ fit["M"].T + fit["new_bias"]
        assert_allclose(res.predict(batch.cur_outputs), want, atol=1e-10)


class TestAsym3d:
    def test_maximal_ranks_recover_original_forward(self):
        rng = np.random.default_rng(22)
        t, s, k = 4, 3, 3
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
        x = rng.normal(size=(400, s * k * k))
        batch = PatchBatch(inputs=x, ref_outputs=x @ kernel.as_matrix().T)
        layer = asym3d(kernel, batch, r_s=min(s * k, t * k), r_d=t, eps=0.0)
        fmap = rng.normal(size=(s, 6, 6))
        want = conv_direct(kernel, fmap)
        got = decomposed_forward(layer, fmap)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-5

    def test_mac_count_matches_three_stage_composition(self):
        kernel, batch = make_setup(23)
        t, s, k = kernel.t, kernel.s, kernel.k
        r_s, r_d = 4, 3
        layer = asym3d(kernel, batch, r_s, r_d)
        h = w = 9
        vertical = k * s * r_s * h * w
        horizontal = k * r_s * r_d * h * w
        pointwise = r_d * t * h * w
        assert layer.macs(h, w) == vertical + horizontal + pointwise

    def test_error_at_least_spatial_truncation(self):
        kernel, batch = make_setup(24)
        r_s = 3
        layer = asym3d(kernel, batch, r_s=r_s, r_d=kernel.t)
        sp_err = np.linalg.norm(
            reconstruct(spatial_svd(kernel, r_s, order="vh")).data - kernel.data
        )
        full_err = np.linalg.norm(reconstruct(layer).data - kernel.data)
        assert full_err >= sp_err - 1e-9

    def test_architecture_shapes(self):
        kernel, batch = make_setup(25)
        layer = asym3d(kernel, batch, r_s=4, r_d=2)
        t, s, k = kernel.t, kernel.s, kernel.k
        assert layer.factors["wv"].shape == (s, k, 4)
        assert layer.factors["wh"].shape == (4, k, 2)
        assert layer.factors["wp"].shape == (2, t)


class TestSpatialRefine:
    def test_identity_when_batch_comes_from_layer_itself(self):
        rng = np.random.default_rng(26)
        kernel = Kernel4D(rng.normal(size=(4, 3, 3, 3)))
        layer = spatial_svd(kernel, 3)
        w_dec = reconstruct(layer).as_matrix()
        x = rng.normal(size=(300, 3 * 9))
        batch = PatchBatch(inputs=x, ref_outputs=x @ w_dec.T, cur_outputs=None)
        res = spatial_refine(layer, batch, eps=0.0)
        assert np.max(np.abs(res.M - np.eye(4))) <= 1e-6

    def test_planted_perturbation_reduces_residual(self):
        rng = np.random.default_rng(27)
        kernel = Kernel4D(rng.normal(size=(5, 4, 3, 3)))
        layer = spatial_svd(kernel, 5)
        x = rng.normal(size=(400, 4 * 9))
        y = x @ kernel.as_matrix().T
        x_hat = x + 0.2 * rng.normal(size=x.shape)
        batch = PatchBatch(inputs=x_hat, ref_outputs=y)
        res = spatial_refine(layer, batch)
        w_dec = reconstruct(layer).as_matrix()
        z = batch.inputs @ w_dec.T
        before = np.linalg.norm((y - y.mean(0)) - (z - z.mean(0)))
        assert res.residual < before

    def test_macs_unchanged(self):
        kernel, batch = make_setup(28)
        layer = spatial_svd(kernel, 4)
        res = spatial_refine(layer, batch)
        assert res.wrapped.macs(10, 10) == layer.macs(10, 10)
        assert res.wrapped.param_count() == layer.param_count()

    def test_never_increases_batch_residual(self):
        for seed in range(10):
            kernel, batch = make_setup(200 + seed)
            layer = spatial_svd(kernel, 4)
            res = spatial_refine(layer, batch)
            w_dec = reconstruct(layer).as_matrix()
            z = batch.inputs @ w_dec.T
            before = np.linalg.norm(
                (batch.ref_outputs - batch.y_mean) - (z - z.mean(axis=0))
            )
            assert res.residual <= before * (1 + 1e-9) + 1e-12

    def test_wrong_method_rejected(self):
        kernel, batch = make_setup(29)
        from convcompress.decomp import weight_svd

        with pytest.raises(ValueError, match="spatial_svd"):
            spatial_refine(weight_svd(kernel, 2), batch)


class TestReluAsymPinned:
    """relu_asym whitens its fixed Z once and reuses each anchor and fit
    term; it is pinned bit for bit to the loop that ran a full reduced-rank
    regression per fit."""

    @staticmethod
    def assert_same(res, want, batch):
        cur = batch.cur_outputs
        assert np.array_equal(res.M, want["M"])
        assert np.array_equal(res.z_mean, cur.mean(0))
        assert np.array_equal(res.y_mean, want["new_bias"] + want["M"] @ cur.mean(0))
        assert res.residual == want["residual"]
        assert res.meta["objective_trace"] == want["objective_trace"]

    @pytest.mark.parametrize("t,s,k,n", [(5, 4, 3, 300), (8, 8, 3, 200), (12, 6, 1, 400)])
    @pytest.mark.parametrize("rank", ["one", "half", "full"])
    @pytest.mark.parametrize("eps", [None, 1e-12])
    def test_equals_reference_loop(self, t, s, k, n, rank, eps):
        kernel, batch = make_setup(60 + t, t=t, s=s, k=k, n=n)
        r = {"one": 1, "half": t // 2, "full": t}[rank]
        res = relu_asym(batch, kernel, r, eps=eps)
        self.assert_same(res, relu_asym_reference_loop(batch, r, eps=eps), batch)

    def test_custom_schedule_equals_reference_loop(self):
        kernel, batch = make_setup(61)
        res = relu_asym(batch, kernel, 2, lambda_schedule=(0.5, 3.0, 40.0), max_outer=3)
        want = relu_asym_reference_loop(batch, 2, lambda_schedule=(0.5, 3.0, 40.0), max_outer=3)
        assert len(want["objective_trace"]) == 18
        self.assert_same(res, want, batch)

    def test_zero_eps_on_rank_deficient_z_raises_as_before(self):
        kernel, batch = make_setup(62)
        cur = batch.cur_outputs.copy()
        cur[:, 1] = cur[:, 0]
        batch = PatchBatch(inputs=batch.inputs, ref_outputs=batch.ref_outputs, cur_outputs=cur)
        with pytest.raises(ValueError) as want:
            relu_asym_reference_loop(batch, 2, eps=0.0)
        with pytest.raises(ValueError) as got:
            relu_asym(batch, kernel, 2, eps=0.0)
        assert str(got.value) == str(want.value)
        assert "rank deficient" in str(got.value)

    @pytest.mark.parametrize(
        "nan_ref,nan_cur,r",
        [(True, False, 2), (True, True, 2), (True, False, 6), (False, True, 6), (False, False, 6)],
        ids=["nan-ref", "nan-both", "nan-ref-bad-rank", "nan-cur-bad-rank", "bad-rank"],
    )
    def test_errors_come_in_the_reference_loop_order(self, nan_ref, nan_cur, r):
        """With eps=0 on a rank-deficient Z, the first error is still the
        one the per-fit regression raised first.  :class:`PatchBatch`
        refuses a NaN when built, so the NaN is written into the built
        batch's own arrays."""
        kernel, batch = make_setup(64)
        ref = batch.ref_outputs.copy()
        cur = batch.cur_outputs.copy()
        cur[:, 1] = cur[:, 0]
        batch = PatchBatch(inputs=batch.inputs, ref_outputs=ref, cur_outputs=cur)
        if nan_ref:
            batch.ref_outputs[3, 2] = np.nan
        if nan_cur:
            batch.cur_outputs[4, 1] = np.nan
        with pytest.raises(ValueError) as want:
            relu_asym_reference_loop(batch, r, eps=0.0)
        with pytest.raises(ValueError) as got:
            relu_asym(batch, kernel, r, eps=0.0)
        assert str(got.value) == str(want.value)

    def test_rank_out_of_range(self):
        kernel, batch = make_setup(63)
        with pytest.raises(ValueError, match="rank 6 out of range"):
            relu_asym(batch, kernel, 6)


def make_biased_setup(seed, t=6, s=4, k=3, n=400):
    """Kernel with a 3-sigma bias; reference responses ``W x + b`` of clean
    patches, stored with the noisy patches the layer is fitted on."""
    rng = np.random.default_rng(seed)
    kernel = Kernel4D(rng.normal(size=(t, s, k, k)), bias=3.0 * rng.normal(size=t))
    x = rng.normal(size=(n, s * k * k))
    y = x @ kernel.as_matrix().T + kernel.bias
    x_hat = x + 0.1 * rng.normal(size=x.shape)
    batch = PatchBatch(inputs=x_hat, ref_outputs=y)
    return kernel, batch


def layer_error(dense, batch, act=lambda a: a):
    """Frobenius error on the batch of the layer ``dense`` (a Kernel4D)."""
    out = batch.inputs @ dense.as_matrix().T + dense.bias
    return float(np.linalg.norm(act(batch.ref_outputs) - act(out)))


class TestReturnedLayerBias:
    """The layer a data path returns computes ``predict`` of its fitted
    responses, so its error on the fitting batch is the reported
    ``residual``: its bias is ``y_mean - M (z_mean - b)``."""

    def test_current_outputs_carry_the_bias(self):
        kernel, batch = make_biased_setup(70)
        cur = attach_current_outputs(batch, kernel).cur_outputs
        assert np.array_equal(cur, batch.inputs @ kernel.as_matrix().T + kernel.bias)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_refined_kernel_of_asym_data_svd(self, seed):
        kernel, batch = make_biased_setup(seed)
        res = asym_data_svd(attach_current_outputs(batch, kernel), kernel, 3)
        assert layer_error(refined_kernel(res), batch) == pytest.approx(res.residual, rel=1e-9)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_refined_kernel_of_relu_asym(self, seed):
        kernel, batch = make_biased_setup(seed)
        res = relu_asym(attach_current_outputs(batch, kernel), kernel, 3)
        err = layer_error(refined_kernel(res), batch, act=lambda a: np.maximum(a, 0.0))
        assert err == pytest.approx(res.residual, rel=1e-9)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_refined_kernel_of_data_svd(self, seed):
        """data_svd projects the layer's own responses; its residual is the
        squared error."""
        kernel, batch = make_biased_setup(seed)
        own = PatchBatch(batch.inputs, attach_current_outputs(batch, kernel).cur_outputs)
        res = data_svd(kernel, own.ref_outputs, 3)
        assert layer_error(refined_kernel(res), own) ** 2 == pytest.approx(res.residual, rel=1e-9)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_asym3d(self, seed):
        kernel, batch = make_biased_setup(seed)
        layer = asym3d(kernel, batch, 5, 4)
        err = layer_error(reconstruct(layer), batch)
        assert err == pytest.approx(layer.meta["fit_residual"], rel=1e-9)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_spatial_refine_wrapped_layer(self, seed, bias):
        kernel, batch = make_biased_setup(seed)
        if not bias:  # the layer that kept no bias errs by the responses' offset
            kernel = Kernel4D(kernel.data)
        given = spatial_svd(kernel, 5)
        res = spatial_refine(given, batch)
        err = layer_error(reconstruct(res.wrapped), batch)
        assert err == pytest.approx(res.residual, rel=1e-9)
        # wrapped is the returned layer: its bias uses the given layer's b
        b = given.bias
        want = res.y_mean - res.M @ (res.z_mean if b is None else res.z_mean - b)
        assert np.array_equal(res.wrapped.bias, want)


#: fit name -> fit(kernel, batch with current outputs, r) of a RefinedLayer wrapping kernel
WEIGHT_SVD_FITS = {
    "data_svd": lambda kernel, batch, r: data_svd(kernel, batch.cur_outputs, r),
    "asym": lambda kernel, batch, r: asym_data_svd(batch, kernel, r),
    "relu_asym": lambda kernel, batch, r: relu_asym(batch, kernel, r),
}


class TestRefinedLayer:
    """A refit of a kernel is stored as the weight_svd layer of its own
    rank-r split of M: the split ``weight_factors`` has always taken, which
    reconstructs ``refined_kernel`` with its bias."""

    SHAPES = [(6, 4, 3, 400, 3), (16, 8, 3, 200, 8), (8, 6, 1, 300, 5), (5, 4, 3, 300, 5)]

    @staticmethod
    def _fit(name, t, s, k, n, r):
        kernel, batch = make_biased_setup(100 + t, t=t, s=s, k=k, n=n)
        return WEIGHT_SVD_FITS[name](kernel, attach_current_outputs(batch, kernel), r)

    @pytest.mark.parametrize("t,s,k,n,r", SHAPES)
    @pytest.mark.parametrize("name", sorted(WEIGHT_SVD_FITS))
    def test_weight_factors_equals_reference(self, name, t, s, k, n, r):
        res = self._fit(name, t, s, k, n, r)
        for got, want in zip(weight_factors(res), weight_factors_reference(res), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("t,s,k,n,r", SHAPES)
    @pytest.mark.parametrize("name", sorted(WEIGHT_SVD_FITS))
    def test_reconstructs_refined_kernel(self, name, t, s, k, n, r):
        res = self._fit(name, t, s, k, n, r)
        layer = refined_layer(res)
        dense = refined_kernel(res)
        assert (layer.method, layer.ranks, layer.source_dims) == ("weight_svd", (r,), (t, s, k))
        assert layer.factors["w1"].shape == (k, k, s, r) and layer.factors["w2"].shape == (r, t)
        scale = np.abs(dense.data).max()
        assert_allclose(reconstruct(layer).data, dense.data, rtol=0, atol=1e-13 * scale)
        assert np.array_equal(layer.bias, dense.bias)

    @pytest.mark.parametrize("name", sorted(WEIGHT_SVD_FITS))
    def test_rank_beyond_the_weight_svd_limit(self, name):
        """On a 6x1x1x1 kernel r = 3 exceeds s*k*k = 1: the cost table's message."""
        res = self._fit(name, 6, 1, 1, 200, 3)
        with pytest.raises(ValueError) as err:
            refined_layer(res)
        with pytest.raises(ValueError) as want:
            mac_cost(1, 6, 1, 1, 1, "weight_svd", (3,))
        assert str(err.value) == str(want.value)

    def test_needs_a_dense_kernel(self):
        kernel, batch = make_biased_setup(104)
        res = spatial_refine(spatial_svd(kernel, 5), batch)
        with pytest.raises(ValueError, match="does not wrap a dense kernel"):
            refined_layer(res)


class TestDataPathsPinned:
    """asym3d and spatial_refine take their responses from
    attach_current_outputs and asym3d its map from asym_data_svd; what they
    return is the earlier, self-contained fit bit for bit, but for the bias
    of the returned layer where the kernel has one (and, for spatial_refine,
    where it has none: that layer kept no bias)."""

    SHAPES = [(5, 4, 3, 300, 4, 3), (8, 8, 3, 200, 6, 5), (6, 8, 1, 400, 6, 4),
              (4, 3, 3, 400, 9, 4)]

    @pytest.mark.parametrize("t,s,k,n,r_s,r_d", SHAPES)
    @pytest.mark.parametrize("eps", [None, 0.0, 1e-6])
    def test_asym3d_equals_reference_fit(self, t, s, k, n, r_s, r_d, eps):
        kernel, batch = make_setup(80 + t, t=t, s=s, k=k, n=n)
        layer = asym3d(kernel, batch, r_s, r_d, eps=eps)
        factors, bias, meta = asym3d_reference_fit(kernel, batch, r_s, r_d, eps=eps)
        assert list(layer.factors) == list(factors)
        for name, want in factors.items():
            assert np.array_equal(layer.factors[name], want), name
        assert np.array_equal(layer.bias, bias)
        assert layer.meta == meta
        assert layer.ranks == (r_s, r_d)

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_biased_asym3d_moves_only_its_bias(self, seed):
        kernel, batch = make_biased_setup(seed)
        layer = asym3d(kernel, batch, 5, 4)
        factors, bias, meta = asym3d_reference_fit(kernel, batch, 5, 4)
        for name, want in factors.items():
            assert np.array_equal(layer.factors[name], want), name
        assert layer.meta == meta
        sp = reconstruct(spatial_svd(kernel, 5, order="vh"))
        m = asym_data_svd(attach_current_outputs(batch, sp), kernel, 4).M
        assert_allclose(layer.bias, bias + m @ kernel.bias, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("t,s,k,n", [(5, 4, 3, 300), (8, 8, 3, 200), (6, 3, 1, 400)])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("order", ["hv", "vh"])
    def test_spatial_refine_equals_reference_fit(self, t, s, k, n, bias, order):
        if bias:
            kernel, batch = make_biased_setup(90 + t, t=t, s=s, k=k, n=n)
        else:
            kernel, batch = make_setup(90 + t, t=t, s=s, k=k, n=n)
        layer = spatial_svd(kernel, min(s * k, t * k) - 1, order=order)
        res = spatial_refine(layer, batch)
        want = spatial_refine_reference_fit(layer, batch)
        for name in ("M", "y_mean", "z_mean"):
            assert np.array_equal(getattr(res, name), want[name]), name
        assert res.residual == want["residual"]
        assert res.rank == t and res.meta == {"method": "spatial_refine"}
        first, second = layer.layout.stages
        assert np.array_equal(res.wrapped.factors[first], layer.factors[first])
        assert np.array_equal(res.wrapped.factors[second], want[second])
        assert res.wrapped.meta == {**layer.meta, "refined": True}
        if not bias:
            assert np.array_equal(res.wrapped.bias, want["new_bias"])
