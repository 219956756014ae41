"""The axis strings of the cost table, and the stage views and reconstruction
einsums that the layout table derives from them."""

import numpy as np
import pytest
from _oracles import STAGE_VIEWS

from convcompress.decomp import LAYOUTS, DecomposedLayer, reconstruct, tucker_hooi
from convcompress.kernel import METHOD_COSTS, Kernel4D, factor_shapes

#: the reconstruction einsums as they were written by hand, by (method, order)
SUBSCRIPTS = {
    ("weight_svd", None): "xysr,rt->tsxy",
    ("spatial_svd", None): "sxr,ryt->tsxy",
    ("spatial_svd", "hv"): "sxr,ryt->tsxy",
    ("spatial_svd", "vh"): "syr,rxt->tsxy",
    ("cp", None): "sr,yr,xr,tr->tsxy",
    ("tucker", None): "sa,xyab,tb->tsxy",
    ("tt", None): "sa,axb,byc,ct->tsxy",
    ("asym3d", None): "syr,rxd,dt->tsxy",
}

CASES = [(method, order) for method, orders in LAYOUTS.items() for order in orders]


def _factors(method, order, s, t, k, seed):
    """Gaussian factors of ``method`` at ranks 2, 3, ..., by name in stage order."""
    rng = np.random.default_rng(seed)
    ranks = tuple(range(2, 2 + len(METHOD_COSTS[method].ranks)))
    shapes = factor_shapes(method, s, t, k, ranks)
    return ranks, {n: rng.normal(size=sh) for n, sh in zip(LAYOUTS[method][order].stages, shapes)}


def test_every_layout_has_hand_written_views_and_einsum():
    assert set(CASES) == set(STAGE_VIEWS) == set(SUBSCRIPTS)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("method, order", CASES)
def test_stage_views_equal_the_hand_written_ones(method, order, k):
    _, factors = _factors(method, order, 5, 7, k, seed=k)
    stages = LAYOUTS[method][order].stages
    assert list(stages) == list(STAGE_VIEWS[method, order])
    for name, w in factors.items():
        got, want = stages[name](w), STAGE_VIEWS[method, order][name](w)
        assert got.shape == want.shape and got.strides == want.strides, name
        assert np.shares_memory(got, w), name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("method, order", CASES)
def test_subscripts_equal_the_hand_written_ones(method, order):
    assert LAYOUTS[method][order].subscripts == SUBSCRIPTS[method, order]


@pytest.mark.parametrize("method", sorted(METHOD_COSTS))
def test_axis_letters_are_channels_spatial_axes_and_one_letter_per_rank(method):
    cost = METHOD_COSTS[method]
    letters = set("".join(cost.axes))
    assert {"s", "t"} <= letters
    assert len(letters - set("stxy")) == len(cost.ranks)
    for axes in cost.axes:
        assert len(set(axes)) == len(axes), axes


@pytest.mark.parametrize("method", sorted(METHOD_COSTS))
def test_stage_chain_runs_from_s_to_t(method):
    """Each factor reads the channel axis the stage before it wrote, starting
    at s, and writes its other channel axis (itself if it has none); the last
    stage writes t."""
    c = "s"
    for axes in METHOD_COSTS[method].axes:
        channels = [a for a in axes if a not in "xy"]
        assert c in channels and len(channels) <= 2, (axes, c)
        c = next((a for a in channels if a != c), c)
    assert c == "t"


def test_rank_letters_follow_the_rank_order():
    """The letters, in order of first use, are the ranks as ``ranks`` lists them."""
    assert factor_shapes("tucker", 5, 7, 3, (2, 4)) == ((5, 2), (3, 3, 2, 4), (7, 4))
    assert factor_shapes("asym3d", 5, 7, 3, (6, 4)) == ((5, 3, 6), (6, 3, 4), (4, 7))
    assert factor_shapes("tt", 5, 7, 3, (2, 4, 6)) == ((5, 2), (2, 3, 4), (4, 3, 6), (6, 7))
    assert factor_shapes("original", 5, 7, 3) == ((7, 5, 3, 3),)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_tucker_reconstruct_equals_the_core_first_einsum(k):
    """Tucker contracts w1 first now; the einsum that took the core first
    agrees to rounding (on OpenBLAS it agreed bit for bit)."""
    ranks, factors = _factors("tucker", None, 6, 8, k, seed=40 + k)
    layer = DecomposedLayer("tucker", factors, ranks, (8, 6, k))
    w1, core, w2 = factors.values()
    path = ["einsum_path", (0, 1), (0, 1)]
    want = np.einsum("xyab,sa,tb->tsxy", core, w1, w2, optimize=path)
    assert _rel(reconstruct(layer).data, want) <= 1e-12


def test_tucker_reconstruct_of_a_fit_equals_the_core_first_einsum():
    kernel = Kernel4D(np.random.default_rng(44).normal(size=(16, 12, 3, 3)))
    layer = tucker_hooi(kernel, 5, 7, max_iters=3)
    f = layer.factors
    path = ["einsum_path", (0, 1), (0, 1)]
    want = np.einsum("xyab,sa,tb->tsxy", f["core"], f["w1"], f["w2"], optimize=path)
    assert _rel(reconstruct(layer).data, want) <= 1e-12
