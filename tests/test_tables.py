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
    clamp_ranks,
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


def test_asym3d_cost_and_limits():
    rs, rd = 4, 3
    cost = mac_cost(S, T, K, H, W, "asym3d", (rs, rd))
    assert cost.macs_compressed == (K * S * rs + K * rs * rd + rd * T) * H * W
    assert max_ranks("asym3d", S, T, K) == (min(S * K, T * K), T)
    with pytest.raises(ValueError, match="exceeds"):
        mac_cost(S, T, K, H, W, "asym3d", (rs, T + 1))
    with pytest.raises(ValueError, match="rank"):
        mac_cost(S, T, K, H, W, "asym3d", (rs,))


#: the solvers that check their ranks against the cost table before solving
CHECKED = {
    "cp": lambda kernel, ranks: cp_als(kernel, *ranks, max_iters=2),
    "tucker": lambda kernel, ranks: tucker_hooi(kernel, *ranks, max_iters=2),
    "asym3d": lambda kernel, ranks: _asym3d(kernel, *ranks),
}


@pytest.mark.parametrize(
    "method, ranks",
    [("cp", (0,)), ("tucker", (0, 2)), ("tucker", (S + 1, 2)), ("tucker", (2, T + 1)),
     ("asym3d", (0, 2)), ("asym3d", (S * K + 1, 2)), ("asym3d", (2, T + 1))],
)
def test_solvers_refuse_ranks_as_the_cost_model_does(kernel, method, ranks):
    with pytest.raises(ValueError) as want:
        mac_cost(S, T, K, H, W, method, ranks)
    with pytest.raises(ValueError) as got:
        CHECKED[method](kernel, ranks)
    assert str(got.value) == str(want.value)


def _asym3d_any(kernel, rs, rd):
    """``asym3d`` on a batch drawn for any kernel's channels and size."""
    rng = np.random.default_rng(33)
    maps = [(x, conv_direct(kernel, x)) for x in rng.normal(size=(8, kernel.s, 6, 6))]
    return asym3d(kernel, sample_patches(maps, per_image=12, k=kernel.k, seed=2), rs, rd)


#: every solver, by its cost-table method
SOLVERS = {
    "weight_svd": lambda kernel, ranks: weight_svd(kernel, *ranks),
    "spatial_svd": lambda kernel, ranks: spatial_svd(kernel, *ranks),
    "cp": lambda kernel, ranks: cp_als(kernel, *ranks, max_iters=2),
    "tucker": lambda kernel, ranks: tucker_hooi(kernel, *ranks, max_iters=2),
    "tt": lambda kernel, ranks: tt_svd(kernel, *ranks),
    "asym3d": lambda kernel, ranks: _asym3d_any(kernel, *ranks),
}


def _error(call):
    try:
        call()
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_cost_model_refuses_exactly_the_ranks_a_solver_refuses(method):
    """Random kernels and ranks from 0 to two past each largest usable rank:
    ``mac_cost`` raises exactly when the solver does, with the same message."""
    rng = np.random.default_rng(34)
    refused = 0
    for _ in range(30):
        s, t, k = (int(v) for v in (rng.integers(1, 7), rng.integers(1, 7), rng.choice([1, 3])))
        kernel = Kernel4D(rng.normal(size=(t, s, k, k)))
        ranks = tuple(int(rng.integers(0, top + 3)) for top in max_ranks(method, s, t, k))
        want = _error(lambda: mac_cost(s, t, k, H, W, method, ranks))
        assert _error(lambda: SOLVERS[method](kernel, ranks)) == want, (s, t, k, ranks)
        refused += want is not None
    assert 0 < refused < 30


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_non_integer_rank_is_refused_not_truncated(kernel, method):
    """A float rank in any position is refused with one message that names
    the ranks, by ``mac_cost`` and the solver alike; numpy integers pass."""
    arity = METHOD_RANK_ARITY[method]
    for i in range(arity):
        ranks = tuple(2.5 if j == i else 2 for j in range(arity))
        want = _error(lambda: mac_cost(S, T, K, H, W, method, ranks))
        assert want == f"ranks must be integers, got {ranks}"
        assert _error(lambda: SOLVERS[method](kernel, ranks)) == want
    cost = mac_cost(S, T, K, H, W, method, tuple(np.int64(2) for _ in range(arity)))
    assert cost.ranks == (2,) * arity
    assert all(type(r) is int for r in cost.ranks)


def test_clamp_ranks_and_layer_ranks_refuse_a_float_rank():
    """``clamp_ranks`` and ``DecomposedLayer`` take ranks by the rule of
    ``check_ranks``: a float is refused, not truncated to 2; Python and numpy
    integers pass as ints."""
    want = "ranks must be integers, got (2.9,)"
    assert _error(lambda: clamp_ranks("cp", 4, 6, 3, (2.9,))) == want
    assert _error(lambda: DecomposedLayer("cp", {}, (2.9,), (6, 4, 3))) == want
    for r in (2, np.int64(2), np.int32(2)):
        assert clamp_ranks("cp", 4, 6, 3, (r,)) == (2,)
        ranks = DecomposedLayer("cp", {}, (r,), (6, 4, 3)).ranks
        assert ranks == (2,) and type(ranks[0]) is int


def test_tt_rank_beyond_what_the_ranks_before_leave_is_refused():
    """On a (6, 4, 3, 3) kernel r1 = 4 leaves r2 at most 12."""
    kernel = Kernel4D(np.random.default_rng(35).normal(size=(6, 4, 3, 3)))
    for call in (lambda: mac_cost(4, 6, 3, 1, 1, "tt", (4, 13, 2)),
                 lambda: tt_svd(kernel, 4, 13, 2)):
        with pytest.raises(ValueError, match=r"^tt rank r2=13 exceeds 12 at"):
            call()


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


def test_ranks_that_are_not_a_sequence_are_refused_by_name():
    """An int where a rank sequence belongs is a ``ValueError`` that names
    it, from every caller of the integer rank rule; a sequence keeps the
    message that names its ranks."""
    want = "ranks must be a sequence of integers, got 2"
    assert _error(lambda: mac_cost(4, 6, 3, 1, 1, "cp", 2)) == want
    assert _error(lambda: clamp_ranks("cp", 4, 6, 3, 2)) == want
    assert _error(lambda: DecomposedLayer("cp", {}, 2, (6, 4, 3))) == want
    assert _error(lambda: mac_cost(4, 6, 3, 1, 1, "cp", None)) == (
        "ranks must be a sequence of integers, got None")
    assert _error(lambda: mac_cost(4, 6, 3, 1, 1, "cp", [2.9])) == (
        "ranks must be integers, got (2.9,)")
