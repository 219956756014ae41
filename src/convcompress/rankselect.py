"""Whole-model compression-ratio selection.

Two allocators choose per-layer ranks under a MAC budget expressed as a
retained fraction ``alpha`` (compressed MACs / original MACs <= alpha):

* :func:`equal_acc_select` minimizes the worst per-layer accuracy drop tau
  over a finite grid of pre-evaluated rank options.
* :func:`greedy_energy_select` maximizes the product over layers of summed
  leading singular values by greedily decrementing the rank whose cut loses
  the least log-energy per MAC saved.

:func:`ranks_from_ratio` converts a per-layer retained fraction directly
into ranks by proportionally scaling the maximal ranks (capped by tt's
chained bond bounds).  Both searches are :mod:`bisect` calls.  Grid ranks
and MACs are integers: a float is refused, never truncated.

A caution on inputs: verification accuracies measured on a compressed
model *before* any fine-tuning are known to be a poor predictor of its
accuracy *after* fine-tuning.  These allocators optimize exactly the
pre-fine-tuning metrics they are handed; treat the resulting plans as
budget allocations, not accuracy guarantees for a retrained model.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .kernel import _int_ranks, clamp_ranks, mac_cost, max_ranks
from .linalg import float_array


@dataclass(frozen=True)
class AccTable:
    """Per-layer verification accuracies over a grid of rank vectors."""

    accuracies: dict[tuple[int, ...], float]
    p_orig: float

    def __post_init__(self):
        object.__setattr__(
            self, "accuracies", {_int_ranks(k): float(v) for k, v in self.accuracies.items()}
        )
        if not self.accuracies:
            raise ValueError("accuracy table is empty")
        for r, p in self.accuracies.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"accuracy {p} for ranks {r} outside [0, 1]")
        if not 0.0 <= self.p_orig <= 1.0:
            raise ValueError(f"original accuracy {self.p_orig} outside [0, 1]")


@dataclass(frozen=True)
class GridCosts:
    """MACs of each grid option of one layer plus the uncompressed MACs; a
    rank that is not an integer or a MAC count below 1 is a ``ValueError``,
    a MAC count that is not an integer a ``TypeError``."""

    macs: dict[tuple[int, ...], int]
    macs_original: int

    def __post_init__(self):
        object.__setattr__(
            self, "macs", {_int_ranks(k): operator.index(v) for k, v in self.macs.items()}
        )
        object.__setattr__(self, "macs_original", operator.index(self.macs_original))
        if min(self.macs_original, *self.macs.values()) < 1:
            raise ValueError(f"MACs must be >= 1, got {self.macs}, original {self.macs_original}")


@dataclass(frozen=True)
class RankPlan:
    """A per-layer rank assignment with its achieved budget numbers.

    ``achieved_ratio`` is the retained MAC fraction (compressed / original),
    matching the budget convention of the solvers; reports print the saved
    fraction alongside.
    """

    ranks: tuple[tuple[int, ...], ...]
    tau: float
    achieved_macs: int
    achieved_ratio: float
    strategy: str
    meta: dict = field(default_factory=dict)


def check_acc_table(table: AccTable, cost: GridCosts) -> AccTable:
    """``table``, if ``cost`` prices each of its rank vectors; else ``ValueError``."""
    missing = set(table.accuracies) - set(cost.macs)
    if missing:
        raise ValueError(f"cost grid missing entries for ranks {sorted(missing)}")
    return table


def check_sv_table(sv, cost: GridCosts) -> np.ndarray:
    """``sv`` as a float64 vector, if it is finite, nonempty, positive and
    descending and ``cost`` prices each of its ranks 1..len(sv); else
    ``ValueError``."""
    sv = float_array(sv, "singular value table")
    if sv.ndim != 1 or sv.size == 0:
        raise ValueError("singular values must be a nonempty vector")
    if np.any(sv <= 0) or np.any(np.diff(sv) > 0):
        raise ValueError("singular values must be positive and descending")
    for j in range(1, sv.size + 1):
        if (j,) not in cost.macs:
            raise ValueError(f"cost grid lacks rank {j}")
    return sv


def ranks_from_ratio(method: str, s: int, t: int, k: int, alpha: float) -> tuple[int, ...]:
    """Largest rank vector whose MACs stay within ``alpha`` of the original.

    The maximal ranks R_i are scaled by the largest common factor j / R that
    fits (R one of them, 1 <= j <= R): each becomes ``j * R_i // R`` in
    integers, floored at 1.  tt then caps each bond by the bound the bonds
    before it leave (:func:`~convcompress.kernel.clamp_ranks`), so that no
    bond of :func:`~convcompress.decomp.tt_svd` is zero padding.  MACs never
    fall as j / R grows, so :func:`bisect.bisect_right` over the distinct
    factors finds the largest that fits.  Feature-map dims cancel in the ratio.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    full = max_ranks(method, s, t, k)
    budget = alpha * mac_cost(s, t, k, 1, 1, "original").macs_original

    def macs_of(ranks: tuple[int, ...]) -> int:
        return mac_cost(s, t, k, 1, 1, method, ranks).macs_compressed

    def scaled(j: int, rm: int) -> tuple[int, ...]:
        want = tuple(max(1, j * r // rm) for r in full)
        return clamp_ranks(method, s, t, k, want)

    if macs_of(scaled(0, 1)) > budget:
        raise ValueError(f"budget alpha={alpha} infeasible even at all-ones ranks for {method}")
    # one (j, R) per distinct factor j / R, in increasing order
    factors = {j / rm: (j, rm) for rm in full for j in range(1, rm + 1)}
    thetas = [factors[f] for f in sorted(factors)]
    i = bisect.bisect_right(thetas, budget, key=lambda jr: macs_of(scaled(*jr)))
    return scaled(*thetas[i - 1]) if i else scaled(0, 1)


def equal_acc_select(
    tables: list[AccTable], costs: list[GridCosts], alpha: float
) -> RankPlan:
    """Minimize the worst per-layer accuracy drop under the MAC budget.

    For a candidate tolerance tau each layer independently takes its
    cheapest grid option whose accuracy stays within tau of the original.  A
    larger tau only admits more options, so feasibility is monotone in tau,
    and :func:`bisect.bisect_left` finds the smallest feasible tau among the
    observed accuracy gaps.  Ties in a layer's cheapest option break toward
    higher accuracy, then grid order.
    """
    if not tables:
        raise ValueError("no accuracy tables")
    if len(tables) != len(costs):
        raise ValueError(f"{len(tables)} tables vs {len(costs)} cost grids")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    p_orig = tables[0].p_orig
    for tab in tables[1:]:
        if abs(tab.p_orig - p_orig) > 1e-12:
            raise ValueError("tables disagree on the original accuracy")
    for tab, cost in zip(tables, costs):
        check_acc_table(tab, cost)

    c_orig = sum(c.macs_original for c in costs)
    budget = alpha * c_orig

    def layer_choice(layer: int, tau: float):
        """Cheapest admissible option, or None."""
        best = None
        for idx, (ranks, acc) in enumerate(tables[layer].accuracies.items()):
            if acc < p_orig - tau - 1e-15:
                continue
            key = (costs[layer].macs[ranks], -acc, idx)
            if best is None or key < best[0]:
                best = (key, ranks)
        return best

    def plan_at(tau: float):
        choices = []
        total = 0
        for layer in range(len(tables)):
            got = layer_choice(layer, tau)
            if got is None:
                return None
            choices.append(got[1])
            total += got[0][0]
        if total > budget:
            return None
        return tuple(choices), total

    gaps = sorted({p_orig - acc for tab in tables for acc in tab.accuracies.values()})
    i = bisect.bisect_left(gaps, True, key=lambda tau: plan_at(tau) is not None)
    if i == len(gaps):
        raise ValueError(f"budget alpha={alpha} infeasible even at maximal tolerance")
    ranks, total = plan_at(gaps[i])
    return RankPlan(
        ranks=ranks,
        tau=gaps[i],
        achieved_macs=total,
        achieved_ratio=total / c_orig,
        strategy="equal_acc",
        meta={"p_orig": p_orig, "alpha": alpha},
    )


def greedy_energy_select(
    sv_lists: list[np.ndarray], costs: list[GridCosts], alpha: float
) -> RankPlan:
    """Greedy rank allocation maximizing the product of summed singular values.

    Starts from full ranks and repeatedly decrements the rank of the layer
    whose decrement costs the least log-energy per MAC saved, until the
    budget holds.  When one more decrement can already reach the budget,
    the cheapest budget-reaching cut (smallest absolute log-energy loss)
    is taken instead, which avoids overshooting on the last step.  Ties
    break toward the lowest layer index.  Only single-rank layers are
    supported (the grids must cover ranks 1..R).
    """
    if not sv_lists:
        raise ValueError("no singular value lists")
    if len(sv_lists) != len(costs):
        raise ValueError(f"{len(sv_lists)} layers vs {len(costs)} cost grids")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    svs = []
    for i, (sv, cost) in enumerate(zip(sv_lists, costs)):
        try:
            svs.append(check_sv_table(sv, cost))
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from None

    def macs_of(layer: int, r: int) -> int:
        return costs[layer].macs[(r,)]

    full = [sv.size for sv in svs]
    cums = [np.cumsum(sv) for sv in svs]
    ranks = list(full)
    c_orig = sum(c.macs_original for c in costs)
    budget = alpha * c_orig
    total = sum(macs_of(i, r) for i, r in enumerate(ranks))
    trajectory = [tuple(ranks)]
    while total > budget:
        best = None
        reaching = None
        for i, r in enumerate(ranks):
            if r <= 1:
                continue
            dlog = math.log(cums[i][r - 1]) - math.log(cums[i][r - 2])
            dmac = macs_of(i, r) - macs_of(i, r - 1)
            if dmac <= 0:
                raise ValueError(f"layer {i}: MACs not increasing in rank")
            if total - dmac <= budget:
                key = (dlog, i)
                if reaching is None or key < reaching:
                    reaching = key
            key = (dlog / dmac, i)
            if best is None or key < best:
                best = key
        if best is None:
            raise ValueError(f"budget alpha={alpha} infeasible even at all-ones ranks")
        i = reaching[1] if reaching is not None else best[1]
        total -= macs_of(i, ranks[i]) - macs_of(i, ranks[i] - 1)
        ranks[i] -= 1
        trajectory.append(tuple(ranks))
    log_energy = float(sum(math.log(cums[i][r - 1]) for i, r in enumerate(ranks)))
    return RankPlan(
        ranks=tuple((r,) for r in ranks),
        tau=0.0,
        achieved_macs=int(total),
        achieved_ratio=total / c_orig,
        strategy="greedy_energy",
        meta={
            "log_energy": log_energy,
            "alpha": alpha,
            "steps": len(trajectory) - 1,
            "trajectory": trajectory,
        },
    )
