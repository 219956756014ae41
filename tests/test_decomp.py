"""Data-free decompositions: extraction, staged forward, reconstruction."""

import functools
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convcompress.decomp import (
    LAYOUTS,
    DecomposedLayer,
    cp_als,
    decomposed_forward,
    reconstruct,
    spatial_svd,
    tt_svd,
    tucker_hooi,
    weight_svd,
    with_factors,
)
from convcompress.kernel import (
    Kernel4D,
    conv_direct,
    factor_shapes,
    mac_cost,
    matricize_weight,
    max_ranks,
)

from _oracles import (
    asym3d_reconstruct_naive,
    cp_als_einsum,
    cp_als_reference_loop,
    cp_reconstruct_naive,
    naive_conv,
    spatial_reconstruct_naive,
    tt_reconstruct_naive,
    tucker_hooi_einsum,
    tucker_hooi_reference_loop,
    tucker_reconstruct_naive,
    weight_reconstruct_naive,
)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def random_kernel(rng, t=4, s=3, k=3):
    return Kernel4D(rng.normal(size=(t, s, k, k)))


def random_layer(rng, method, order, ranks, t, s, k):
    """A layer of Gaussian factors in ``method``'s layout."""
    shapes = factor_shapes(method, s, t, k, ranks)
    meta = {} if order is None else {"order": order}
    names = tuple(LAYOUTS[method][order].stages)
    factors = {n: rng.normal(size=shape) for n, shape in zip(names, shapes)}
    return DecomposedLayer(method, factors, ranks, (t, s, k), meta=meta)


#: (method, order, ranks, loop reconstruction taking the factors in stage order)
NAIVE_ORACLES = [
    ("weight_svd", None, (5,), weight_reconstruct_naive),
    ("spatial_svd", "hv", (5,), lambda a, b: spatial_reconstruct_naive(a, b, "hv")),
    ("spatial_svd", "vh", (5,), lambda a, b: spatial_reconstruct_naive(a, b, "vh")),
    ("cp", None, (4,), lambda ws, wy, wx, wt: cp_reconstruct_naive(ws, wy, wx, wt)),
    ("tucker", None, (3, 4), lambda w1, core, w2: tucker_reconstruct_naive(core, w1, w2)),
    ("tt", None, (2, 3, 2), tt_reconstruct_naive),
    ("asym3d", None, (3, 2), asym3d_reconstruct_naive),
]


def make_layer(method, kernel, ranks, seed=0):
    if method == "weight_svd":
        return weight_svd(kernel, *ranks)
    if method == "spatial_svd":
        return spatial_svd(kernel, *ranks)
    if method == "cp":
        return cp_als(kernel, *ranks, seed=seed)
    if method == "tucker":
        return tucker_hooi(kernel, *ranks)
    return tt_svd(kernel, *ranks)


class TestWeightSvd:
    def test_full_rank_exact(self):
        kernel = random_kernel(np.random.default_rng(0), t=4, s=3, k=3)
        layer = weight_svd(kernel, min(9 * 3, 4))
        assert rel_err(reconstruct(layer).data, kernel.data) <= 1e-8

    def test_planted_rank_one(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=9 * 3)
        v = rng.normal(size=5)
        kernel = Kernel4D(np.outer(u, v).reshape(3, 3, 3, 5).transpose(3, 2, 0, 1))
        layer = weight_svd(kernel, 1)
        assert rel_err(reconstruct(layer).data, kernel.data) <= 1e-8

    def test_truncation_error_is_sv_tail(self):
        rng = np.random.default_rng(2)
        kernel = random_kernel(rng, t=6, s=4, k=3)
        r = 3
        layer = weight_svd(kernel, r)
        err2 = np.linalg.norm(reconstruct(layer).data - kernel.data) ** 2
        s = np.linalg.svd(matricize_weight(kernel), compute_uv=False)
        tail = float(np.sum(s[r:] ** 2))
        assert abs(err2 - tail) <= 1e-8 * max(1.0, tail)

    def test_rank_out_of_range(self):
        kernel = random_kernel(np.random.default_rng(3))
        with pytest.raises(ValueError, match="rank"):
            weight_svd(kernel, 0)
        with pytest.raises(ValueError, match="rank"):
            weight_svd(kernel, kernel.t + kernel.s * 100)


class TestSpatialSvd:
    def test_full_rank_exact_both_orders(self):
        kernel = random_kernel(np.random.default_rng(4), t=4, s=3, k=3)
        r = min(3 * 3, 4 * 3)
        for order in ("hv", "vh"):
            layer = spatial_svd(kernel, r, order=order)
            assert rel_err(reconstruct(layer).data, kernel.data) <= 1e-8

    def test_planted_separable_rank_one(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 3))  # (s, x)
        b = rng.normal(size=(4, 3))  # (t, y)
        data = np.einsum("sx,ty->tsxy", a, b)
        layer = spatial_svd(Kernel4D(data), 1)
        assert rel_err(reconstruct(layer).data, data) <= 1e-8

    def test_forward_matches_reconstruction(self):
        rng = np.random.default_rng(6)
        kernel = random_kernel(rng, t=5, s=3, k=3)
        layer = spatial_svd(kernel, 2)
        x = rng.normal(size=(3, 6, 6))
        want = conv_direct(reconstruct(layer), x)
        assert rel_err(decomposed_forward(layer, x), want) <= 1e-6

    def test_order_recorded(self):
        kernel = random_kernel(np.random.default_rng(7))
        assert spatial_svd(kernel, 2).meta["order"] == "hv"
        assert spatial_svd(kernel, 2, order="vh").meta["order"] == "vh"


class TestCpAls:
    @pytest.mark.parametrize("r", [1, 2, 4])
    @pytest.mark.parametrize("rows", [(3,), (16, 3), (3, 3, 24), (16, 3, 24), (1, 5, 1)])
    def test_khatri_rao_rows_are_products_of_rows(self, rows, r):
        """Row (i, j, ...) is row i times row j times ..., multiplied left
        to right, bit for bit, in C order of the row indices."""
        from convcompress.decomp import _khatri_rao

        rng = np.random.default_rng(sum(rows) + r)
        mats = [rng.normal(size=(n, r)) for n in rows]
        before = [m.copy() for m in mats]
        want = np.array([functools.reduce(np.multiply, picked)
                         for picked in itertools.product(*mats)])
        got = _khatri_rao(*mats)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert all(np.array_equal(m, b) for m, b in zip(mats, before))  # inputs untouched

    def test_planted_rank_two(self):
        rng = np.random.default_rng(8)
        ws, wy, wx, wt = (rng.normal(size=(d, 2)) for d in (3, 3, 3, 5))
        data = np.einsum("sr,yr,xr,tr->tsxy", ws, wy, wx, wt)
        layer = cp_als(Kernel4D(data), 2, max_iters=500, tol=1e-12, seed=0)
        assert rel_err(reconstruct(layer).data, data) <= 1e-4

    def test_reconstruct_matches_naive_sum(self):
        rng = np.random.default_rng(80)
        kernel = random_kernel(rng, t=4, s=3, k=3)
        layer = cp_als(kernel, 3, max_iters=30, seed=0)
        f = layer.factors
        want = cp_reconstruct_naive(f["ws"], f["wy"], f["wx"], f["wt"])
        assert np.max(np.abs(reconstruct(layer).data - want)) <= 1e-10

    def test_planted_rank_one_exact(self):
        rng = np.random.default_rng(9)
        ws, wy, wx, wt = (rng.normal(size=(d, 1)) for d in (4, 3, 3, 4))
        data = np.einsum("sr,yr,xr,tr->tsxy", ws, wy, wx, wt)
        layer = cp_als(Kernel4D(data), 1, max_iters=300, tol=1e-14, seed=0)
        assert rel_err(reconstruct(layer).data, data) <= 1e-6

    def test_error_nonincreasing_in_rank(self):
        rng = np.random.default_rng(10)
        kernel = random_kernel(rng, t=4, s=4, k=3)
        errs = {}
        for r in (2, 4):
            layer = cp_als(kernel, r, max_iters=300, tol=1e-12, seed=1)
            errs[r] = rel_err(reconstruct(layer).data, kernel.data)
        assert errs[4] <= errs[2] + 1e-12

    def test_reports_convergence_metadata(self):
        layer = cp_als(random_kernel(np.random.default_rng(11)), 2, max_iters=3, seed=0)
        assert "iterations" in layer.meta and "rel_error" in layer.meta

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_sweep_is_rejected(self, max_iters):
        """ws is only filled by the first sweep, so no sweep would return
        uninitialised memory."""
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            cp_als(random_kernel(np.random.default_rng(13)), 2, max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_tucker_no_sweep_is_rejected(self, max_iters):
        """tucker_hooi keeps the same sweep rule as cp_als: at least one."""
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            tucker_hooi(random_kernel(np.random.default_rng(13)), 2, 3, max_iters=max_iters)

    def test_overflowing_grams_raise(self):
        """A finite kernel whose factor Grams overflow: the solve refuses the
        non-finite Gram instead of returning non-finite factors.  The kernel's
        own norm overflows too; numpy's overflow warnings are expected."""
        kernel = Kernel4D(1e200 * np.random.default_rng(14).normal(size=(6, 4, 3, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                cp_als(kernel, 2)

    def test_rank_one_reconstruct_is_outer_product(self):
        rng = np.random.default_rng(12)
        kernel = random_kernel(rng, t=3, s=2, k=3)
        layer = cp_als(kernel, 1, max_iters=50, seed=0)
        f = layer.factors
        want = np.einsum("s,y,x,t->tsxy", f["ws"][:, 0], f["wy"][:, 0], f["wx"][:, 0], f["wt"][:, 0])
        assert_allclose(reconstruct(layer).data, want, atol=1e-12)


class TestTuckerHooi:
    def test_full_rank_exact(self):
        kernel = random_kernel(np.random.default_rng(13), t=4, s=3, k=3)
        layer = tucker_hooi(kernel, 3, 4)
        assert rel_err(reconstruct(layer).data, kernel.data) <= 1e-8

    def test_planted_mode_s_subspace(self):
        rng = np.random.default_rng(14)
        basis = rng.normal(size=(5, 2))  # s-mode factor of rank 2
        mix = rng.normal(size=(3, 3, 2, 4))
        data = np.einsum("xyat,sa->tsxy", mix, basis)
        layer = tucker_hooi(Kernel4D(data), 2, 4)
        assert rel_err(reconstruct(layer).data, data) <= 1e-6

    def test_hooi_no_worse_than_hosvd_init(self):
        rng = np.random.default_rng(15)
        kernel = random_kernel(rng, t=6, s=5, k=3)
        r1, r2 = 3, 4
        layer = tucker_hooi(kernel, r1, r2)
        hooi_err = np.linalg.norm(reconstruct(layer).data - kernel.data)
        # HOSVD baseline computed independently with numpy
        tens = kernel.data.transpose(2, 3, 1, 0)
        u1 = np.linalg.svd(np.moveaxis(tens, 2, 0).reshape(kernel.s, -1))[0][:, :r1]
        u2 = np.linalg.svd(np.moveaxis(tens, 3, 0).reshape(kernel.t, -1))[0][:, :r2]
        core = np.einsum("xyst,sa,tb->xyab", tens, u1, u2)
        hosvd = np.einsum("xyab,sa,tb->xyst", core, u1, u2)
        hosvd_err = np.linalg.norm(hosvd - tens)
        assert hooi_err <= hosvd_err + 1e-10

    def test_reconstruct_matches_naive_sum(self):
        rng = np.random.default_rng(16)
        kernel = random_kernel(rng, t=4, s=3, k=3)
        layer = tucker_hooi(kernel, 2, 3)
        f = layer.factors
        want = tucker_reconstruct_naive(f["core"], f["w1"], f["w2"])
        assert np.max(np.abs(reconstruct(layer).data - want)) <= 1e-10

    def test_rank_out_of_range(self):
        kernel = random_kernel(np.random.default_rng(17))
        with pytest.raises(ValueError, match="rank"):
            tucker_hooi(kernel, kernel.s + 1, 1)

    def test_fixed_sweeps_report_diagnostics(self):
        kernel = random_kernel(np.random.default_rng(170), t=6, s=5, k=3)
        layer = tucker_hooi(kernel, 2, 3, max_iters=4, tol=-np.inf)
        assert layer.meta["iterations"] == 4
        assert layer.meta["converged"] is False
        err = rel_err(reconstruct(layer).data, kernel.data)
        assert layer.meta["rel_error"] == pytest.approx(err, rel=1e-12)

    def test_early_stop_reports_convergence(self):
        kernel = random_kernel(np.random.default_rng(171), t=6, s=5, k=3)
        layer = tucker_hooi(kernel, 2, 3, max_iters=50, tol=1e-6)
        assert layer.meta["converged"] is True
        assert 1 <= layer.meta["iterations"] < 50


class TestStopRule:
    """cp_als and tucker_hooi stop on one test, ``|err_prev - err| < tol``:
    at ``tol=0`` neither stops before ``max_iters``, even where the error
    rises by a rounding step."""

    @pytest.mark.parametrize("seed", [0, 4, 6])
    @pytest.mark.parametrize(
        "solve",
        [lambda kernel: cp_als(kernel, 3, max_iters=30, tol=0.0),
         lambda kernel: tucker_hooi(kernel, 3, 3, max_iters=30, tol=0.0)],
        ids=["cp", "tucker"],
    )
    def test_zero_tol_runs_every_sweep(self, solve, seed):
        layer = solve(Kernel4D(np.random.default_rng(seed).standard_normal((6, 5, 3, 3))))
        assert layer.meta["iterations"] == 30
        assert layer.meta["converged"] is False


class TestTtSvd:
    def test_maximal_ranks_exact(self):
        kernel = random_kernel(np.random.default_rng(18), t=4, s=3, k=3)
        layer = tt_svd(kernel, *max_ranks("tt", 3, 4, 3))
        assert rel_err(reconstruct(layer).data, kernel.data) <= 1e-8

    def test_planted_tt_ranks_exact(self):
        rng = np.random.default_rng(19)
        w1 = rng.normal(size=(5, 2))
        w2 = rng.normal(size=(2, 3, 2))
        w3 = rng.normal(size=(2, 3, 2))
        w4 = rng.normal(size=(2, 6))
        data = np.einsum("sa,axb,byc,ct->tsxy", w1, w2, w3, w4)
        layer = tt_svd(Kernel4D(data), 2, 2, 2)
        assert rel_err(reconstruct(layer).data, data) <= 1e-6

    def test_error_bounded_by_tail_sum(self):
        rng = np.random.default_rng(20)
        kernel = random_kernel(rng, t=6, s=5, k=3)
        t, s, k = kernel.t, kernel.s, kernel.k
        ranks = (2, 3, 3)
        layer = tt_svd(kernel, *ranks)
        err2 = np.linalg.norm(reconstruct(layer).data - kernel.data) ** 2
        tens = kernel.data.transpose(1, 2, 3, 0)
        tails = 0.0
        for mode, r in zip(range(1, 4), ranks):
            unf = tens.reshape(int(np.prod(tens.shape[:mode])), -1)
            sv = np.linalg.svd(unf, compute_uv=False)
            tails += float(np.sum(sv[r:] ** 2))
        assert err2 <= tails + 1e-10

    def test_reconstruct_matches_naive_chain(self):
        rng = np.random.default_rng(21)
        kernel = random_kernel(rng, t=4, s=3, k=3)
        layer = tt_svd(kernel, 2, 3, 2)
        f = layer.factors
        want = tt_reconstruct_naive(f["w1"], f["w2"], f["w3"], f["w4"])
        assert np.max(np.abs(reconstruct(layer).data - want)) <= 1e-10

    def test_rank_out_of_range(self):
        kernel = random_kernel(np.random.default_rng(22))
        with pytest.raises(ValueError, match="rank"):
            tt_svd(kernel, kernel.s + 1, 2, 2)


CASES = [
    ("weight_svd", (2,)),
    ("spatial_svd", (3,)),
    ("cp", (3,)),
    ("tucker", (2, 3)),
    ("tt", (2, 3, 2)),
]


class TestDecomposedForward:
    @pytest.mark.parametrize("method,ranks", CASES)
    def test_equals_reconstruct_then_convolve(self, method, ranks):
        rng = np.random.default_rng(hash(method) % 2**32)
        kernel = random_kernel(rng, t=4, s=3, k=3)
        layer = make_layer(method, kernel, ranks)
        x = rng.normal(size=(3, 6, 6))
        want = conv_direct(reconstruct(layer), x)
        assert rel_err(decomposed_forward(layer, x), want) <= 1e-6

    @pytest.mark.parametrize("method,ranks", CASES)
    def test_zero_input_zero_output(self, method, ranks):
        kernel = random_kernel(np.random.default_rng(23), t=4, s=3, k=3)
        layer = make_layer(method, kernel, ranks)
        out = decomposed_forward(layer, np.zeros((3, 5, 5)))
        assert np.all(out == 0.0)

    def test_full_rank_forward_matches_original(self):
        rng = np.random.default_rng(24)
        kernel = random_kernel(rng, t=4, s=3, k=3)
        x = rng.normal(size=(3, 6, 6))
        want = conv_direct(kernel, x)
        for method in ("weight_svd", "spatial_svd", "tucker", "tt"):
            layer = make_layer(method, kernel, max_ranks(method, 3, 4, 3))
            assert rel_err(decomposed_forward(layer, x), want) <= 1e-6, method

    def test_channel_mismatch(self):
        kernel = random_kernel(np.random.default_rng(25), t=4, s=3, k=3)
        layer = weight_svd(kernel, 2)
        with pytest.raises(ValueError, match="channels"):
            decomposed_forward(layer, np.zeros((4, 5, 5)))

    @pytest.mark.parametrize("method", ["tt", "cp"])
    def test_factor_of_wrong_rank_raises(self, method):
        """A stage weight that is neither dense nor depthwise for the channels
        it receives is rejected, not run as a grouped convolution."""
        rng = np.random.default_rng(28)
        kernel = random_kernel(rng, t=6, s=4, k=3)
        if method == "tt":
            layer = tt_svd(kernel, 4, 4, 2)  # w2 cut to r1 = 2 under a w1 of r1 = 4
            layer = with_factors(layer, w2=layer.factors["w2"][:2])
        else:
            layer = cp_als(kernel, 3, max_iters=2)  # wy cut to rank 2 under rank 3
            layer = with_factors(layer, wy=layer.factors["wy"][:, :2])
        with pytest.raises(ValueError):
            decomposed_forward(layer, rng.normal(size=(4, 8, 8)))


class TestCostAgreement:
    @pytest.mark.parametrize("method,ranks", CASES)
    def test_param_and_mac_counts_match_cost_model(self, method, ranks):
        kernel = random_kernel(np.random.default_rng(26), t=4, s=3, k=3)
        layer = make_layer(method, kernel, ranks)
        cost = mac_cost(3, 4, 3, 7, 5, method, ranks)
        assert layer.param_count() == cost.params_compressed
        assert layer.macs(7, 5) == cost.macs_compressed

    @pytest.mark.parametrize("method", ["weight_svd", "spatial_svd", "tucker", "tt"])
    def test_error_nonincreasing_in_each_rank(self, method):
        rng = np.random.default_rng(27)
        kernel = random_kernel(rng, t=4, s=4, k=3)
        top = max_ranks(method, 4, 4, 3)
        for axis in range(len(top)):
            prev = np.inf
            for r in range(1, top[axis] + 1):
                ranks = tuple(r if i == axis else 1 for i in range(len(top)))
                try:
                    layer = make_layer(method, kernel, ranks)
                except ValueError:
                    continue  # chained tt bounds can forbid some combinations
                err = np.linalg.norm(reconstruct(layer).data - kernel.data)
                assert err <= prev + 1e-9
                prev = err


class TestPairwiseContractions:
    """The solvers and reconstruct contract pairwise; each must agree with a
    reference that evaluates the multi-operand contractions in one einsum."""

    @pytest.mark.parametrize("t,s,r,seed", [(6, 5, 2, 0), (16, 8, 3, 1), (24, 16, 4, 2)])
    def test_cp_als_matches_einsum_reference(self, t, s, r, seed):
        kernel = random_kernel(np.random.default_rng(300 + seed), t=t, s=s, k=3)
        layer = cp_als(kernel, r, max_iters=3, tol=-np.inf, seed=seed)
        assert layer.meta["iterations"] == 3
        want = cp_als_einsum(kernel.data, r, sweeps=3, seed=seed)
        assert rel_err(reconstruct(layer).data, want) <= 1e-10

    @pytest.mark.parametrize("t,s,r1,r2", [(6, 5, 2, 3), (16, 8, 4, 8), (24, 16, 8, 12)])
    def test_tucker_hooi_matches_einsum_reference(self, t, s, r1, r2):
        kernel = random_kernel(np.random.default_rng(310 + t), t=t, s=s, k=3)
        layer = tucker_hooi(kernel, r1, r2, max_iters=3, tol=-np.inf)
        assert layer.meta["iterations"] == 3
        want = tucker_hooi_einsum(kernel.data, r1, r2, sweeps=3)
        assert rel_err(reconstruct(layer).data, want) <= 1e-10

    @pytest.mark.parametrize("method,order,ranks,oracle", NAIVE_ORACLES)
    def test_reconstruct_matches_naive_oracle(self, method, order, ranks, oracle):
        t, s, k = 24, 16, 3
        rng = np.random.default_rng(320)
        layer = random_layer(rng, method, order, ranks, t, s, k)
        want = oracle(*(layer.factors[n] for n in layer.layout.stages))
        assert rel_err(reconstruct(layer).data, want) <= 1e-12


class TestStagedForwardOracle:
    """Each layout's staged forward against the loop convolution of the loop
    reconstruction, on a non-square map, so that a view that swaps the x and
    y axes of a stage's weight cannot pass."""

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("method,order,ranks,oracle", NAIVE_ORACLES)
    def test_forward_matches_naive_conv_of_naive_reconstruction(
        self, method, order, ranks, oracle, k
    ):
        t, s = 6, 4
        rng = np.random.default_rng(330 + k)
        layer = random_layer(rng, method, order, ranks, t, s, k)
        x = rng.normal(size=(s, 5, 9))
        want = naive_conv(oracle(*(layer.factors[n] for n in layer.layout.stages)), x)
        assert rel_err(decomposed_forward(layer, x), want) <= 1e-12


def assert_same_layer(layer, factors, meta):
    """Factors and meta equal to the reference loop's, bit for bit."""
    assert list(layer.factors) == list(factors)
    for name, want in factors.items():
        assert np.array_equal(layer.factors[name], want), name
    assert layer.meta == meta


class TestSolverLoopsPinned:
    """tucker_hooi returns the core its last sweep computed; it is pinned
    bit for bit to the loop that recomputed it.  cp_als is pinned to the
    loop that solved its normal equations with its own Gram solver."""

    @pytest.mark.parametrize("max_iters", [1, 5])
    @pytest.mark.parametrize("t,s,r1,r2", [(6, 5, 2, 3), (16, 8, 4, 8), (24, 16, 8, 12)])
    def test_tucker_hooi_equals_reference_loop(self, t, s, r1, r2, max_iters):
        kernel = random_kernel(np.random.default_rng(420 + t), t=t, s=s, k=3)
        layer = tucker_hooi(kernel, r1, r2, max_iters=max_iters, tol=-np.inf)
        factors, meta = tucker_hooi_reference_loop(kernel, r1, r2, max_iters=max_iters, tol=-np.inf)
        assert_same_layer(layer, factors, meta)

    def test_cp_als_equals_gram_solve_loop_well_conditioned(self):
        kernel = random_kernel(np.random.default_rng(430), t=6, s=4, k=3)
        layer = cp_als(kernel, 2, seed=0)
        factors, meta = cp_als_reference_loop(kernel, 2, seed=0)
        assert_same_layer(layer, factors, {**layer.meta, **meta})

    def test_cp_als_equals_gram_solve_loop_over_ranked(self, monkeypatch):
        """A rank-2 planted kernel fitted above its rank: some Gram matrices
        exceed condition number 1e12, and their solves take the ridge."""
        import convcompress.linalg as la

        rng = np.random.default_rng(4)
        ws, wy, wx, wt = (rng.normal(size=(d, 2)) for d in (4, 3, 3, 6))
        kernel = Kernel4D(np.einsum("sr,yr,xr,tr->tsxy", ws, wy, wx, wt))
        eigh, calls = la._eigh, []
        monkeypatch.setattr(la, "_eigh", lambda a: calls.append(a) or eigh(a))
        layers = {r: cp_als(kernel, r, max_iters=300, tol=1e-14, seed=0) for r in (3, 4, 6)}
        monkeypatch.undo()
        # one eigendecomposition per solve, and one more per ridged solve
        solves = 4 * sum(layer.meta["iterations"] for layer in layers.values())
        assert len(calls) > solves * 1.05
        for r, layer in layers.items():
            factors, meta = cp_als_reference_loop(kernel, r, max_iters=300, tol=1e-14, seed=0)
            assert_same_layer(layer, factors, {**layer.meta, **meta})

    @pytest.mark.parametrize("t,s,r", [(8, 8, 2), (24, 16, 4)])
    def test_cp_als_equals_reference_loop_at_benchmark_scale(self, t, s, r):
        """50 sweeps that never stop early, at the smallest and largest
        layer and rank of the ``datafree`` benchmark: each Gram formed once
        per factor change gives the factors and errors of the loop that
        formed every Gram per solve."""
        kernel = random_kernel(np.random.default_rng(450 + t), t=t, s=s, k=3)
        layer = cp_als(kernel, r, max_iters=50, tol=0.0, seed=0)
        factors, meta = cp_als_reference_loop(kernel, r, max_iters=50, tol=0.0, seed=0)
        assert meta["iterations"] == 50
        assert_same_layer(layer, factors, {**layer.meta, **meta})

    @pytest.mark.parametrize(
        "solve",
        [lambda kernel, **kw: cp_als(kernel, 2, **kw),
         lambda kernel, **kw: tucker_hooi(kernel, 2, 3, **kw)],
        ids=["cp", "tucker"],
    )
    def test_converged_when_the_stop_test_passes_on_the_last_sweep(self, solve):
        """Rerun with max_iters equal to the sweeps a converged solve took,
        the same factors come back, still reported converged."""
        kernel = random_kernel(np.random.default_rng(440), t=6, s=4, k=3)
        first = solve(kernel)
        n = first.meta["iterations"]
        assert first.meta["converged"] and n > 1
        assert_same_layer(solve(kernel, max_iters=n), first.factors, first.meta)
