"""Kernel types, direct convolution, matricizations and the cost model."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from convcompress.kernel import (
    METHOD_RANK_ARITY,
    Kernel4D,
    aggregate_ratio,
    conv,
    conv_direct,
    mac_cost,
    matricize_spatial,
    matricize_weight,
    max_ranks,
    unmatricize_spatial,
    unmatricize_weight,
)

from _oracles import conv_flat_row_reference, conv_shift_reference, naive_conv


class TestKernel4D:
    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            Kernel4D(np.zeros((2, 2, 4, 4)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Kernel4D(np.zeros((2, 2, 3, 5)))

    def test_rejects_non_finite(self):
        data = np.zeros((1, 1, 3, 3))
        data[0, 0, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Kernel4D(data)

    def test_rejects_bad_bias(self):
        with pytest.raises(ValueError, match="bias"):
            Kernel4D(np.zeros((2, 1, 1, 1)), bias=np.zeros(3))

    def test_delta(self):
        assert Kernel4D(np.zeros((1, 1, 5, 5))).delta == 2


class TestConvDirect:
    def test_identity_1x1_kernel(self):
        data = np.zeros((2, 2, 1, 1))
        data[0, 0, 0, 0] = 1.0
        data[1, 1, 0, 0] = 1.0
        x = np.random.default_rng(0).normal(size=(2, 4, 5))
        assert_allclose(conv_direct(Kernel4D(data), x), x)

    def test_box_sum_with_zero_padding(self):
        kernel = Kernel4D(np.ones((1, 1, 3, 3)))
        x = np.ones((1, 4, 4))
        y = conv_direct(kernel, x)
        assert y[0, 1, 1] == pytest.approx(9.0)
        assert y[0, 2, 2] == pytest.approx(9.0)
        for cx, cy in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert y[0, cx, cy] == pytest.approx(4.0)

    @pytest.mark.parametrize("k", [1, 3, 5], ids=lambda k: f"k{k}")
    @pytest.mark.parametrize(
        "shape", [(3, 6, 6), (3, 5, 9), (1, 7, 4)], ids=lambda s: "x".join(map(str, s))
    )
    def test_matches_naive_triple_loop(self, shape, k):
        rng = np.random.default_rng(7)
        kernel = Kernel4D(rng.normal(size=(4, shape[0], k, k)))
        x = rng.normal(size=shape)
        got = conv_direct(kernel, x)
        want = naive_conv(kernel.data, x)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_channel_mismatch(self):
        kernel = Kernel4D(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv_direct(kernel, np.zeros((3, 4, 4)))

    def test_non_finite_input(self):
        kernel = Kernel4D(np.zeros((1, 1, 3, 3)))
        bad = np.zeros((1, 4, 4))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            conv_direct(kernel, bad)

    def test_linear_in_kernel_and_input(self):
        rng = np.random.default_rng(3)
        w1 = rng.normal(size=(2, 2, 3, 3))
        w2 = rng.normal(size=(2, 2, 3, 3))
        x1 = rng.normal(size=(2, 5, 5))
        x2 = rng.normal(size=(2, 5, 5))
        a, b = 0.7, -1.3
        lhs = conv_direct(Kernel4D(a * w1 + b * w2), x1)
        rhs = a * conv_direct(Kernel4D(w1), x1) + b * conv_direct(Kernel4D(w2), x1)
        assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)
        lhs = conv_direct(Kernel4D(w1), a * x1 + b * x2)
        rhs = a * conv_direct(Kernel4D(w1), x1) + b * conv_direct(Kernel4D(w1), x2)
        assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-12)


#: (c, c_out, kx, ky, h, w): square k in {1, 3, 5, 7}, 1xk and kx1 weights,
#: maps with h = 1 or w = 1, and c = 1, where a dense weight takes the
#: broadcast-product path
CONV_SHAPES = [
    (3, 4, 1, 1, 5, 6), (3, 4, 3, 3, 5, 6), (3, 4, 5, 5, 5, 6), (3, 4, 7, 7, 5, 6),
    (3, 4, 1, 5, 6, 5), (3, 4, 7, 1, 6, 5), (2, 5, 3, 7, 4, 9), (2, 5, 5, 1, 9, 4),
    (3, 4, 3, 3, 1, 7), (3, 4, 5, 3, 7, 1), (2, 3, 7, 7, 1, 1), (2, 2, 1, 1, 1, 1),
    (1, 4, 3, 3, 6, 5), (1, 1, 1, 1, 4, 4), (1, 3, 7, 5, 2, 3), (1, 2, 1, 3, 1, 8),
]


#: (c, h, w) maps in three memory layouts: C-ordered, with the spatial axes
#: swapped, and channels last, whose (c, h*w) reshape is a strided view
MAP_LAYOUTS = {
    "contiguous": lambda rng, c, h, w: rng.normal(size=(c, h, w)),
    "transposed": lambda rng, c, h, w: rng.normal(size=(c, w, h)).transpose(0, 2, 1),
    "channels-last": lambda rng, c, h, w: rng.normal(size=(h, w, c)).transpose(2, 0, 1),
}


class TestConvAgainstShiftReference:
    """``conv`` reads each kernel offset from one flat padded map; the
    shift-and-copy convolution it replaced is the reference."""

    @pytest.mark.parametrize("layout", list(MAP_LAYOUTS))
    @pytest.mark.parametrize("depthwise", [False, True], ids=["dense", "depthwise"])
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_matches_reference_and_leaves_the_map(self, shape, depthwise, layout):
        c, c_out, kx, ky, h, w = shape
        rng = np.random.default_rng(sum(shape))
        weight = rng.normal(size=(c, 1, kx, ky) if depthwise else (c_out, c, kx, ky))
        x = MAP_LAYOUTS[layout](rng, c, h, w)
        before = x.copy()
        got = conv(weight, x)
        want = conv_shift_reference(weight, x)
        assert got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 3), (2, 1, 3, 4), (1, 2, 4, 4)])
    def test_even_kernel_side_is_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"weight {shape} has an even kernel side")):
            conv(np.ones(shape), np.ones((2, 5, 5)))


class TestConvAgainstFlatRowReference:
    """The per-offset loop of ``conv`` gives the flat-row convolution it
    replaced bit for bit, for C- and Fortran-ordered weights and every map
    layout."""

    @pytest.mark.parametrize("layout", list(MAP_LAYOUTS))
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("depthwise", [False, True], ids=["dense", "depthwise"])
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "-".join(map(str, s)))
    def test_bit_identical(self, shape, depthwise, order, layout):
        c, c_out, kx, ky, h, w = shape
        rng = np.random.default_rng(sum(shape))
        weight = rng.normal(size=(c, 1, kx, ky) if depthwise else (c_out, c, kx, ky))
        weight = np.asarray(weight, order=order)
        x = MAP_LAYOUTS[layout](rng, c, h, w)
        assert np.array_equal(conv(weight, x), conv_flat_row_reference(weight, x))


class TestMatricize:
    def test_scalar_kernel(self):
        m = matricize_weight(Kernel4D(np.full((1, 1, 1, 1), 3.5)))
        assert m.shape == (1, 1)
        assert m[0, 0] == 3.5
        m = matricize_spatial(Kernel4D(np.full((1, 1, 1, 1), 3.5)))
        assert m[0, 0] == 3.5

    def test_weight_round_trip(self):
        rng = np.random.default_rng(1)
        kernel = Kernel4D(rng.normal(size=(4, 2, 3, 3)))
        back = unmatricize_weight(matricize_weight(kernel), 4, 2, 3)
        assert np.array_equal(back.data, kernel.data)

    def test_spatial_round_trip(self):
        rng = np.random.default_rng(2)
        kernel = Kernel4D(rng.normal(size=(5, 3, 3, 3)))
        back = unmatricize_spatial(matricize_spatial(kernel), 5, 3, 3)
        assert np.array_equal(back.data, kernel.data)

    def test_weight_flat_index(self):
        """Every entry lands at row (x*k + y)*s + s_i, column t_i."""
        t, s, k = 4, 2, 3
        rng = np.random.default_rng(3)
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
        m = matricize_weight(kernel)
        for it in range(t):
            for i_s in range(s):
                for ix in range(k):
                    for iy in range(k):
                        assert m[(ix * k + iy) * s + i_s, it] == kernel.data[it, i_s, ix, iy]

    def test_spatial_flat_index(self):
        """Every entry lands at row s_i*k + x, column t_i*k + y."""
        t, s, k = 4, 2, 3
        rng = np.random.default_rng(4)
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
        m = matricize_spatial(kernel)
        for it in range(t):
            for i_s in range(s):
                for ix in range(k):
                    for iy in range(k):
                        assert m[i_s * k + ix, it * k + iy] == kernel.data[it, i_s, ix, iy]


class TestMacCost:
    def test_original_example(self):
        cost = mac_cost(64, 64, 3, 16, 16, "original")
        assert cost.macs_original == 9 * 64 * 64 * 256 == 9_437_184

    def test_cp_example(self):
        cost = mac_cost(8, 8, 3, 4, 4, "cp", (16,))
        assert cost.macs_compressed == (8 + 6 + 8) * 16 * 16 == 5632

    def test_weight_svd_full_rank_can_have_negative_ratio(self):
        r = min(9 * 4, 8)
        cost = mac_cost(4, 8, 3, 4, 4, "weight_svd", (r,))
        assert cost.ratio < 0  # overhead is reported, not clamped

    def test_rank_arity_enforced(self):
        with pytest.raises(ValueError, match="rank"):
            mac_cost(4, 4, 3, 2, 2, "tucker", (2,))
        with pytest.raises(ValueError, match="rank"):
            mac_cost(4, 4, 3, 2, 2, "original", (1,))

    def test_rank_bounds_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            mac_cost(2, 4, 3, 2, 2, "weight_svd", (5,))
        with pytest.raises(ValueError, match="exceeds"):
            mac_cost(2, 4, 3, 2, 2, "spatial_svd", (7,))
        with pytest.raises(ValueError):
            mac_cost(2, 4, 3, 2, 2, "tucker", (3, 2))
        with pytest.raises(ValueError):
            mac_cost(2, 4, 3, 2, 2, "tt", (3, 2, 2))

    @pytest.mark.parametrize("method", ["weight_svd", "spatial_svd", "cp", "tucker", "tt"])
    def test_monotone_in_each_rank(self, method):
        s, t, k, h, w = 4, 6, 3, 5, 5
        base = tuple(1 for _ in range(METHOD_RANK_ARITY[method]))
        top = max_ranks(method, s, t, k)
        for i in range(len(base)):
            prev = None
            for r in range(1, min(top[i], 6) + 1):
                ranks = tuple(r if j == i else 1 for j in range(len(base)))
                macs = mac_cost(s, t, k, h, w, method, ranks).macs_compressed
                if prev is not None:
                    assert macs >= prev
                prev = macs

    def test_aggregate_ratio_identity(self):
        costs = [
            mac_cost(4, 6, 3, 5, 5, "spatial_svd", (2,)),
            mac_cost(8, 8, 3, 5, 5, "cp", (4,)),
        ]
        total = sum(c.macs_original for c in costs)
        compressed = sum(c.macs_compressed for c in costs)
        assert aggregate_ratio(costs) == pytest.approx(1 - compressed / total)
