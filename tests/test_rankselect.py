"""Rank selection: ratio conversion, equal-accuracy solver, greedy energy."""

import itertools
import math
import re

import numpy as np
import pytest
from _oracles import equal_acc_select_reference, ranks_from_ratio_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from convcompress.decomp import tt_svd
from convcompress.kernel import METHOD_RANK_ARITY, Kernel4D, mac_cost, max_ranks
from convcompress.rankselect import (
    AccTable,
    GridCosts,
    equal_acc_select,
    greedy_energy_select,
    ranks_from_ratio,
)


class TestRanksFromRatio:
    def test_spatial_svd_half_budget(self):
        """k=3, s=t=64: (3*64 + 3*64)*r <= 0.5 * 9*64*64 gives r = 48."""
        assert ranks_from_ratio("spatial_svd", 64, 64, 3, 0.5) == (48,)

    def test_generous_budget_gives_max_ranks(self):
        s, t, k = 6, 4, 3
        for method in ("weight_svd", "spatial_svd", "tucker", "tt"):
            full = max_ranks(method, s, t, k)
            full_cost = mac_cost(s, t, k, 1, 1, method, full).macs_compressed
            orig = mac_cost(s, t, k, 1, 1, "original").macs_original
            alpha = min(0.999, full_cost / orig + 1e-9)
            if full_cost > orig:
                continue  # full rank already costs more than the original
            assert ranks_from_ratio(method, s, t, k, alpha) == full

    def test_tucker_symmetric_dims_give_equal_ranks(self):
        r1, r2 = ranks_from_ratio("tucker", 16, 16, 3, 0.4)
        assert r1 == r2

    def test_budget_respected_and_maximal(self):
        """Achieved MACs fit the budget and one more rank unit would not."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = int(rng.integers(4, 40))
            t = int(rng.integers(4, 40))
            k = int(rng.choice([1, 3, 5]))
            alpha = float(rng.uniform(0.15, 0.9))
            orig = mac_cost(s, t, k, 1, 1, "original").macs_original
            for method in ("weight_svd", "spatial_svd", "cp"):
                try:
                    (r,) = ranks_from_ratio(method, s, t, k, alpha)
                except ValueError:
                    continue  # infeasible at rank 1 for this draw
                macs = mac_cost(s, t, k, 1, 1, method, (r,)).macs_compressed
                assert macs <= alpha * orig
                if r < max_ranks(method, s, t, k)[0]:
                    bigger = mac_cost(s, t, k, 1, 1, method, (r + 1,)).macs_compressed
                    assert bigger > alpha * orig

    def test_infeasible_budget_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            ranks_from_ratio("weight_svd", 64, 64, 3, 1e-6)

    @pytest.mark.parametrize("method, s, want", [("tucker", 5, (3, 15)), ("tt", 7, (4, 12, 15))])
    def test_scaling_loses_no_rank_to_rounding(self, method, s, want):
        """At the factor 15/22 the t-side rank is 15 (float ``floor(15/22 * 22)``
        is 14), and it fits the budget."""
        t, k, alpha = 22, 3, 0.8
        assert ranks_from_ratio(method, s, t, k, alpha) == want
        orig = mac_cost(s, t, k, 1, 1, "original").macs_original
        assert mac_cost(s, t, k, 1, 1, method, want).macs_compressed <= alpha * orig

    @pytest.mark.parametrize("t,s", [(6, 4), (64, 64), (24, 16), (16, 32), (5, 9)])
    @pytest.mark.parametrize("alpha", [0.2, 0.35, 0.5, 0.8])
    def test_tt_ranks_are_accepted_by_tt_svd_and_fit_budget(self, t, s, alpha):
        k = 3
        ranks = ranks_from_ratio("tt", s, t, k, alpha)
        kernel = Kernel4D(np.random.default_rng(t * s).normal(size=(t, s, k, k)))
        assert tt_svd(kernel, *ranks).ranks == ranks
        orig = mac_cost(s, t, k, 1, 1, "original").macs_original
        assert mac_cost(s, t, k, 1, 1, "tt", ranks).macs_compressed <= alpha * orig


def random_equal_acc_instance(rng, n_layers=3, grid=4):
    tables, costs = [], []
    p_orig = 0.92
    for _ in range(n_layers):
        accs = {}
        macs = {}
        base = int(rng.integers(400, 3000))
        for g in range(1, grid + 1):
            accs[(g,)] = float(np.round(p_orig - rng.uniform(0.0, 0.35) * (grid - g) / grid, 6))
            macs[(g,)] = base * g
        tables.append(AccTable(accuracies=accs, p_orig=p_orig))
        costs.append(GridCosts(macs=macs, macs_original=base * (grid + 2)))
    return tables, costs


def exhaustive_equal_acc(tables, costs, alpha):
    """Enumerate every combination; minimize (max accuracy gap, total MACs)."""
    c_orig = sum(c.macs_original for c in costs)
    best = None
    for combo in itertools.product(*[list(t.accuracies) for t in tables]):
        total = sum(c.macs[g] for c, g in zip(costs, combo))
        if total > alpha * c_orig:
            continue
        tau = max(t.p_orig - t.accuracies[g] for t, g in zip(tables, combo))
        key = (tau, total)
        if best is None or key < best[0]:
            best = (key, combo)
    return best


class TestEqualAccSelect:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 50:
            tables, costs = random_equal_acc_instance(rng)
            alpha = float(rng.uniform(0.35, 0.95))
            oracle = exhaustive_equal_acc(tables, costs, alpha)
            if oracle is None:
                continue
            plan = equal_acc_select(tables, costs, alpha)
            assert plan.ranks == oracle[1]
            assert plan.tau == pytest.approx(oracle[0][0], abs=1e-12)
            checked += 1

    def test_no_budget_pressure_gives_most_accurate(self):
        rng = np.random.default_rng(2)
        tables, costs = random_equal_acc_instance(rng)
        plan = equal_acc_select(tables, costs, alpha=1.0)
        assert plan.tau <= 1e-12
        for chosen, tab in zip(plan.ranks, tables):
            assert tab.accuracies[chosen] == max(tab.accuracies.values())

    def test_flat_accuracy_layer_compressed_maximally(self):
        p = 0.9
        flat = AccTable(accuracies={(1,): p, (2,): p, (3,): p}, p_orig=p)
        other = AccTable(accuracies={(1,): 0.5, (2,): 0.7, (3,): 0.9}, p_orig=p)
        costs = [
            GridCosts(macs={(1,): 10, (2,): 20, (3,): 30}, macs_original=40),
            GridCosts(macs={(1,): 10, (2,): 20, (3,): 30}, macs_original=40),
        ]
        plan = equal_acc_select([flat, other], costs, alpha=1.0)
        assert plan.ranks[0] == (1,)

    def test_constraints_hold_on_output(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tables, costs = random_equal_acc_instance(rng)
            alpha = float(rng.uniform(0.5, 1.0))
            try:
                plan = equal_acc_select(tables, costs, alpha)
            except ValueError:
                continue
            c_orig = sum(c.macs_original for c in costs)
            assert plan.achieved_macs <= alpha * c_orig
            for chosen, tab in zip(plan.ranks, tables):
                assert tab.accuracies[chosen] >= tab.p_orig - plan.tau - 1e-12

    def test_infeasible_budget_raises(self):
        rng = np.random.default_rng(4)
        tables, costs = random_equal_acc_instance(rng)
        with pytest.raises(ValueError, match="infeasible"):
            equal_acc_select(tables, costs, alpha=1e-6)


def linear_costs(full_rank, per_rank, overhead=2):
    macs = {(r,): per_rank * r for r in range(1, full_rank + 1)}
    return GridCosts(macs=macs, macs_original=per_rank * (full_rank + overhead))


class TestGreedyEnergy:
    def test_two_layer_hand_example(self):
        """Cutting the (10, 1) layer loses log(11/10) per 100 MACs, cheaper
        than log(20/10) for the (10, 10) layer, so it is cut first."""
        svs = [np.array([10.0, 1.0]), np.array([10.0, 10.0])]
        costs = [linear_costs(2, 100, overhead=1), linear_costs(2, 100, overhead=1)]
        plan = greedy_energy_select(svs, costs, alpha=0.5)
        assert plan.ranks == ((1,), (2,))

    def test_full_budget_keeps_full_ranks(self):
        rng = np.random.default_rng(5)
        svs = [np.sort(rng.uniform(0.5, 5, size=4))[::-1] for _ in range(3)]
        costs = [linear_costs(4, int(rng.integers(50, 200))) for _ in range(3)]
        plan = greedy_energy_select(svs, costs, alpha=1.0)
        assert plan.ranks == ((4,), (4,), (4,))

    def test_energy_within_95pct_of_exhaustive(self):
        rng = np.random.default_rng(6)
        gaps = []
        for _ in range(50):
            n_layers = 3
            svs, costs = [], []
            for _ in range(n_layers):
                full = int(rng.integers(2, 5))
                # values above 1 keep every cumulative log-energy positive
                svs.append(np.sort(rng.uniform(1.0, 8.0, size=full))[::-1])
                costs.append(linear_costs(full, int(rng.integers(40, 300))))
            alpha = float(rng.uniform(0.35, 0.85))
            c_orig = sum(c.macs_original for c in costs)
            best = None
            for combo in itertools.product(*[range(1, sv.size + 1) for sv in svs]):
                total = sum(c.macs[(r,)] for c, r in zip(costs, combo))
                if total > alpha * c_orig:
                    continue
                log_e = sum(math.log(np.sum(sv[:r])) for sv, r in zip(svs, combo))
                if best is None or log_e > best:
                    best = log_e
            if best is None:
                continue
            plan = greedy_energy_select(svs, costs, alpha)
            assert best > 0
            gaps.append(plan.meta["log_energy"] / best)
            assert plan.meta["log_energy"] <= best + 1e-12
            assert plan.meta["log_energy"] >= 0.95 * best
        assert gaps, "no feasible instances generated"

    def test_budget_holds(self):
        rng = np.random.default_rng(7)
        svs = [np.sort(rng.uniform(0.5, 4, size=5))[::-1] for _ in range(4)]
        costs = [linear_costs(5, int(rng.integers(40, 120))) for _ in range(4)]
        plan = greedy_energy_select(svs, costs, alpha=0.5)
        c_orig = sum(c.macs_original for c in costs)
        assert plan.achieved_macs <= 0.5 * c_orig

    def test_trajectory_monotone_in_energy_and_macs(self):
        """Along the decrement trajectory the energy never grows and every
        plan has strictly fewer MACs than its predecessor."""
        rng = np.random.default_rng(8)
        svs = [np.sort(rng.uniform(1.0, 6, size=4))[::-1] for _ in range(3)]
        costs = [linear_costs(4, int(rng.integers(50, 250))) for _ in range(3)]
        plan = greedy_energy_select(svs, costs, alpha=0.4)

        def log_e(ranks):
            return sum(math.log(np.sum(sv[:r])) for sv, r in zip(svs, ranks))

        def macs(ranks):
            return sum(c.macs[(r,)] for c, r in zip(costs, ranks))

        traj = plan.meta["trajectory"]
        assert len(traj) >= 2
        for prev, cur in zip(traj, traj[1:]):
            assert log_e(cur) <= log_e(prev) + 1e-12
            assert macs(cur) < macs(prev)

    def test_rejects_unsorted_singular_values(self):
        with pytest.raises(ValueError, match="descending"):
            greedy_energy_select([np.array([1.0, 2.0])], [linear_costs(2, 10)], alpha=0.9)

    def test_infeasible_raises(self):
        svs = [np.array([2.0, 1.0])]
        with pytest.raises(ValueError, match="infeasible"):
            greedy_energy_select(svs, [linear_costs(2, 100)], alpha=0.01)


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the ``ValueError`` it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSearchesMatchTheHandWrittenBisections:
    """``ranks_from_ratio`` and ``equal_acc_select`` search with ``bisect``;
    their results and error messages equal the hand-written bisections they
    replaced, kept in ``tests/_oracles.py``."""

    @pytest.mark.parametrize("method", sorted(m for m, n in METHOD_RANK_ARITY.items() if n))
    def test_ranks_from_ratio(self, method):
        sizes = (1, 2, 3, 5, 8)
        alphas = [round(0.05 + 0.1 * i, 2) for i in range(10)]
        for s, t, k, alpha in itertools.product(sizes, sizes, (1, 3), alphas):
            args = (method, s, t, k, alpha)
            assert _outcome(ranks_from_ratio, *args) == _outcome(ranks_from_ratio_reference, *args)

    @staticmethod
    @st.composite
    def _instances(draw):
        """1-4 layers of 1-6 options each, with ties in accuracy and MACs likely."""
        p_orig = draw(st.sampled_from([0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
        acc = st.sampled_from([0.0, 0.25, 0.5, 0.9]) | st.floats(0.0, 1.0)
        tables, costs = [], []
        for _ in range(draw(st.integers(1, 4))):
            grid = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True))
            orig = draw(st.integers(1, 60))
            tables.append(AccTable({(r,): draw(acc) for r in grid}, p_orig))
            costs.append(GridCosts({(r,): draw(st.integers(1, orig + 5)) for r in grid}, orig))
        alpha = st.sampled_from([1.0, 0.7, 0.5]) | st.floats(0.0, 1.0, exclude_min=True)
        return tables, costs, draw(alpha)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_instances())
    def test_equal_acc_select(self, instance):
        want = _outcome(equal_acc_select_reference, *instance)
        assert _outcome(equal_acc_select, *instance) == want


class TestIntegerRule:
    """Grid rank keys and MAC counts are integers: a float is refused, never
    truncated; Python and numpy integers pass as ints."""

    def test_float_rank_key_is_refused(self):
        want = "ranks must be integers, got (2.9,)"
        with pytest.raises(ValueError, match=re.escape(want)):
            AccTable({(2.9,): 0.5}, 0.9)
        with pytest.raises(ValueError, match=re.escape(want)):
            GridCosts({(2.9,): 10}, 40)

    def test_rank_key_that_is_not_a_sequence_is_refused(self):
        with pytest.raises(ValueError, match="ranks must be a sequence of integers, got 3"):
            AccTable({3: 0.5}, 0.9)

    @pytest.mark.parametrize("macs, orig", [({(2,): 10.7}, 40), ({(2,): 10.0}, 40),
                                            ({(2,): 10}, 40.5), ({(2,): 10}, 40.0)])
    def test_non_integer_macs_are_refused(self, macs, orig):
        with pytest.raises(TypeError):
            GridCosts(macs, orig)

    def test_numpy_integers_pass_as_ints(self):
        cost = GridCosts({(np.int64(2),): np.int64(10)}, np.int32(40))
        assert cost.macs == {(2,): 10} and cost.macs_original == 40
        ((ranks, macs),) = cost.macs.items()
        assert [type(v) for v in (*ranks, macs, cost.macs_original)] == [int, int, int]
        table = AccTable({(np.int64(2), np.int32(3)): 0.5}, 0.9)
        assert [type(v) for v in next(iter(table.accuracies))] == [int, int]
