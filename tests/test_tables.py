"""The per-method tables: cost entries in kernel, layout entries in decomp."""

import numpy as np
import pytest

from convcompress.dataopt import asym3d, sample_patches
from convcompress.decomp import (
    LAYOUTS,
    DecomposedLayer,
    cp_als,
    spatial_svd,
    tt_svd,
    tucker_hooi,
    weight_svd,
)
from convcompress.kernel import (
    METHOD_COSTS,
    METHOD_RANK_ARITY,
    Kernel4D,
    conv_direct,
    factor_shapes,
    mac_cost,
    max_ranks,
)

T, S, K, H, W = 6, 5, 3, 7, 4


@pytest.fixture(scope="module")
def kernel():
    rng = np.random.default_rng(31)
    return Kernel4D(rng.normal(size=(T, S, K, K)), bias=rng.normal(size=T))


def _asym3d(kernel, rs, rd):
    rng = np.random.default_rng(32)
    maps = [(x, conv_direct(kernel, x)) for x in rng.normal(size=(8, S, 6, 6))]
    return asym3d(kernel, sample_patches(maps, per_image=12, k=K, seed=2), rs, rd)


BUILDERS = {
    "weight_svd": lambda kernel: weight_svd(kernel, 3),
    "spatial_svd-hv": lambda kernel: spatial_svd(kernel, 4, order="hv"),
    "spatial_svd-vh": lambda kernel: spatial_svd(kernel, 4, order="vh"),
    "cp": lambda kernel: cp_als(kernel, 3, max_iters=5),
    "tucker": lambda kernel: tucker_hooi(kernel, 3, 4),
    "tt": lambda kernel: tt_svd(kernel, 3, 5, 4),
    "asym3d": lambda kernel: _asym3d(kernel, 7, 4),
}


@pytest.mark.parametrize("case", sorted(BUILDERS))
def test_cost_model_counts_the_stored_factors(kernel, case):
    layer = BUILDERS[case](kernel)
    cost = mac_cost(S, T, K, H, W, layer.method, layer.ranks)
    assert cost.macs_compressed == layer.macs(H, W) == layer.param_count() * H * W
    assert cost.params_compressed == layer.param_count()


@pytest.mark.parametrize("case", sorted(BUILDERS))
def test_factors_follow_the_layout_in_stage_order(kernel, case):
    layer = BUILDERS[case](kernel)
    assert tuple(layer.factors) == tuple(layer.layout.stages)
    shapes = factor_shapes(layer.method, S, T, K, layer.ranks)
    assert tuple(f.shape for f in layer.factors.values()) == shapes


def test_every_layout_has_a_cost_entry_of_matching_arity():
    assert set(LAYOUTS) < set(METHOD_COSTS) == set(METHOD_RANK_ARITY)
    for method, orders in LAYOUTS.items():
        ranks = tuple(range(2, 2 + METHOD_RANK_ARITY[method]))
        n_factors = len(factor_shapes(method, S, T, K, ranks))
        for layout in orders.values():
            assert len(layout.stages) == n_factors
            assert sorted(layout.operands) in ([], sorted(layout.stages))


def test_asym3d_cost_and_limits():
    rs, rd = 4, 3
    cost = mac_cost(S, T, K, H, W, "asym3d", (rs, rd))
    assert cost.macs_compressed == (K * S * rs + K * rs * rd + rd * T) * H * W
    assert max_ranks("asym3d", S, T, K) == (min(S * K, T * K), T)
    with pytest.raises(ValueError, match="exceeds"):
        mac_cost(S, T, K, H, W, "asym3d", (rs, T + 1))
    with pytest.raises(ValueError, match="rank"):
        mac_cost(S, T, K, H, W, "asym3d", (rs,))


def test_original_is_one_dense_factor():
    cost = mac_cost(S, T, K, H, W, "original")
    assert factor_shapes("original", S, T, K) == ((T, S, K, K),)
    assert cost.macs_compressed == cost.macs_original == T * S * K * K * H * W
    assert max_ranks("original", S, T, K) == ()


def test_layer_without_order_runs_horizontal_first(kernel):
    hv = spatial_svd(kernel, 4, order="hv")
    bare = DecomposedLayer("spatial_svd", hv.factors, hv.ranks, hv.source_dims)
    assert bare.layout is LAYOUTS["spatial_svd"]["hv"]
    assert spatial_svd(kernel, 4, order="vh").layout is LAYOUTS["spatial_svd"]["vh"]
