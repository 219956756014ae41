"""Dense 4-D convolution kernels, feature maps, and the MAC/parameter cost model.

Conventions used throughout the package:

* A kernel is stored as a ``(t, s, k, k)`` float64 array: ``t`` output
  channels, ``s`` input channels, square odd spatial size ``k``.
* A feature map is a plain ``(channels, h, w)`` float64 array.  The first
  spatial axis is called ``x`` and the second ``y``; "horizontal" (1xk)
  filters act along ``x``, "vertical" (kx1) filters along ``y``.
* All convolutions use stride 1 and zero padding of width ``delta=(k-1)/2``
  so the output spatial size equals the input spatial size.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

Array = np.ndarray


def _require_finite(a: Array, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class Kernel4D:
    """A dense convolution kernel with optional per-output-channel bias.

    The bias is carried for the data-optimized methods, which read and
    rewrite it; the data-free decompositions and ``conv_direct`` ignore it.
    """

    data: Array
    bias: Array | None = None

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        object.__setattr__(self, "data", data)
        if data.ndim != 4:
            raise ValueError(f"kernel must be 4-D (t, s, k, k), got shape {data.shape}")
        t, s, kh, kw = data.shape
        if kh != kw:
            raise ValueError(f"kernel must be spatially square, got {kh}x{kw}")
        if kh < 1 or kh % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 1, got {kh}")
        if t < 1 or s < 1:
            raise ValueError(f"channel counts must be positive, got t={t}, s={s}")
        _require_finite(data, "kernel")
        if self.bias is not None:
            bias = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
            if bias.shape != (t,):
                raise ValueError(f"bias must have shape ({t},), got {bias.shape}")
            _require_finite(bias, "bias")
            object.__setattr__(self, "bias", bias)

    @property
    def t(self) -> int:
        return self.data.shape[0]

    @property
    def s(self) -> int:
        return self.data.shape[1]

    @property
    def k(self) -> int:
        return self.data.shape[2]

    @property
    def delta(self) -> int:
        return (self.k - 1) // 2

    def as_matrix(self) -> Array:
        """Kernel as a ``(t, s*k*k)`` matrix acting on flattened patches.

        Row layout of a patch vector is channel-major ``(s, x, y)``, matching
        the patches produced by :func:`convcompress.dataopt.sample_patches`.
        """
        return self.data.reshape(self.t, self.s * self.k * self.k)


def feature_map(data) -> Array:
    """Validate and convert a ``(channels, h, w)`` feature map to float64."""
    x = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if x.ndim != 3:
        raise ValueError(f"feature map must be 3-D (channels, h, w), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ValueError(f"feature map dims must be positive, got {x.shape}")
    _require_finite(x, "feature map")
    return x


def conv_direct(kernel: Kernel4D, x: Array) -> Array:
    """Direct convolution of a feature map with a 4-D kernel.

    Stride 1, zero padding of width ``kernel.delta``, so the output has the
    same spatial dims as the input.  Bias is not applied.
    """
    x = feature_map(x)
    if x.shape[0] != kernel.s:
        raise ValueError(
            f"input has {x.shape[0]} channels, kernel expects {kernel.s}"
        )
    t, s, k, _ = kernel.data.shape
    d = kernel.delta
    _, h, w = x.shape
    xpad = np.zeros((s, h + 2 * d, w + 2 * d))
    xpad[:, d : d + h, d : d + w] = x
    out = np.zeros((t, h, w))
    for dx in range(k):
        for dy in range(k):
            out += np.einsum(
                "ts,shw->thw", kernel.data[:, :, dx, dy], xpad[:, dx : dx + h, dy : dy + w]
            )
    return out


def matricize_weight(kernel: Kernel4D) -> Array:
    """Reshape the kernel into a ``(k*k*s, t)`` matrix.

    Rows merge ``(x, y, s)`` in that order: row index ``(x*k + y)*s + s_i``.
    """
    t, s, k, _ = kernel.data.shape
    return kernel.data.transpose(2, 3, 1, 0).reshape(k * k * s, t).copy()


def unmatricize_weight(m: Array, t: int, s: int, k: int) -> Kernel4D:
    """Inverse of :func:`matricize_weight`."""
    if m.shape != (k * k * s, t):
        raise ValueError(f"expected shape {(k * k * s, t)}, got {m.shape}")
    return Kernel4D(m.reshape(k, k, s, t).transpose(3, 2, 0, 1))


def matricize_spatial(kernel: Kernel4D) -> Array:
    """Reshape the kernel into a ``(s*k, t*k)`` matrix.

    Rows merge ``(s, x)``, columns merge ``(t, y)``: row ``s_i*k + x``,
    column ``t_i*k + y``.
    """
    t, s, k, _ = kernel.data.shape
    return kernel.data.transpose(1, 2, 0, 3).reshape(s * k, t * k).copy()


def unmatricize_spatial(m: Array, t: int, s: int, k: int) -> Kernel4D:
    """Inverse of :func:`matricize_spatial`."""
    if m.shape != (s * k, t * k):
        raise ValueError(f"expected shape {(s * k, t * k)}, got {m.shape}")
    return Kernel4D(m.reshape(s, k, t, k).transpose(2, 0, 1, 3))


@dataclass(frozen=True)
class LayerCost:
    """MAC and parameter counts for one layer, original vs compressed.

    ``ratio`` is the fraction of MACs saved, ``1 - macs_compressed /
    macs_original``.  It is negative when a decomposition costs more than
    the original layer (possible at high ranks); it is reported as-is.
    """

    method: str
    ranks: tuple[int, ...]
    macs_original: int
    params_original: int
    macs_compressed: int
    params_compressed: int

    @property
    def ratio(self) -> float:
        return 1.0 - self.macs_compressed / self.macs_original

    @property
    def retained(self) -> float:
        """Retained MAC fraction ``macs_compressed / macs_original``."""
        return self.macs_compressed / self.macs_original


class MethodCost(NamedTuple):
    """Cost-side table entry: rank names, ``shapes(s, t, k, *ranks)`` of the
    stored factors in stage order, ``limits(s, t, k)`` on each rank (None:
    unbounded) and ``top(s, t, k)``, the largest usable ranks if not the limits."""

    ranks: tuple[str, ...]
    shapes: Callable[..., tuple[tuple[int, ...], ...]]
    limits: Callable[[int, int, int], tuple[int | None, ...]]
    top: Callable[[int, int, int], tuple[int, ...]] | None = None


def _tt_top(s: int, t: int, k: int) -> tuple[int, int, int]:
    r1 = min(s, k * k * t)
    r2 = min(r1 * k, k * t)
    return r1, r2, min(r2 * k, t)


#: One entry per method.  Every stage is a stride-1, same-padded convolution,
#: so each stored factor entry costs one MAC per output pixel.
METHOD_COSTS: dict[str, MethodCost] = {
    "original": MethodCost((), lambda s, t, k: ((t, s, k, k),), lambda s, t, k: ()),
    "weight_svd": MethodCost(
        ("r",), lambda s, t, k, r: ((k, k, s, r), (r, t)), lambda s, t, k: (min(k * k * s, t),)
    ),
    "spatial_svd": MethodCost(
        ("r",), lambda s, t, k, r: ((s, k, r), (r, k, t)), lambda s, t, k: (min(s * k, t * k),)
    ),
    "cp": MethodCost(
        ("r",), lambda s, t, k, r: ((s, r), (k, r), (k, r), (t, r)), lambda s, t, k: (None,),
        top=lambda s, t, k: (min(k * k * t, s * k * t, s * k * k),),
    ),
    "tucker": MethodCost(
        ("r1", "r2"), lambda s, t, k, r1, r2: ((s, r1), (k, k, r1, r2), (t, r2)),
        lambda s, t, k: (s, t),
    ),
    "tt": MethodCost(
        ("r1", "r2", "r3"),
        lambda s, t, k, r1, r2, r3: ((s, r1), (r1, k, r2), (r2, k, r3), (r3, t)),
        lambda s, t, k: (s, None, t),
        top=_tt_top,
    ),
    "asym3d": MethodCost(
        ("rs", "rd"), lambda s, t, k, rs, rd: ((s, k, rs), (rs, k, rd), (rd, t)),
        lambda s, t, k: (min(s * k, t * k), t),
    ),
}

#: Methods known to the cost model, with their rank arity.
METHOD_RANK_ARITY = {method: len(cost.ranks) for method, cost in METHOD_COSTS.items()}


def _method_cost(method: str) -> MethodCost:
    if method not in METHOD_COSTS:
        raise ValueError(f"unknown method {method!r}")
    return METHOD_COSTS[method]


def factor_shapes(
    method: str, s: int, t: int, k: int, ranks: tuple[int, ...] = ()
) -> tuple[tuple[int, ...], ...]:
    """Shapes of the factors ``method`` stores at ``ranks``, in stage order.
    Checks the method and the rank arity, not the rank limits."""
    cost = _method_cost(method)
    if len(ranks) != len(cost.ranks):
        raise ValueError(f"method {method!r} takes {len(cost.ranks)} rank(s), got {len(ranks)}")
    return cost.shapes(s, t, k, *ranks)


def mac_cost(
    s: int, t: int, k: int, h: int, w: int, method: str, ranks: tuple[int, ...] = ()
) -> LayerCost:
    """Exact integer MAC/parameter counts for a layer compressed by ``method``.

    ``ranks`` arity must match the method (:data:`METHOD_RANK_ARITY`).  The
    parameters are the stored factor entries, and MACs = parameters * h * w.
    """
    ranks = tuple(int(r) for r in ranks)
    shapes = factor_shapes(method, s, t, k, ranks)
    if any(r < 1 for r in ranks):
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    cost = METHOD_COSTS[method]
    for name, r, bound in zip(cost.ranks, ranks, cost.limits(s, t, k)):
        if bound is not None and r > bound:
            raise ValueError(f"{method} rank {name}={r} exceeds {bound} at (s, t, k)={(s, t, k)}")
    params = sum(math.prod(shape) for shape in shapes)
    return LayerCost(
        method=method,
        ranks=ranks,
        macs_original=k * k * s * t * h * w,
        params_original=k * k * s * t,
        macs_compressed=params * h * w,
        params_compressed=params,
    )


def max_ranks(method: str, s: int, t: int, k: int) -> tuple[int, ...]:
    """Largest rank vector each decomposition can use on a (t, s, k, k) kernel.

    For ``cp`` this is the generic representability bound (the smallest
    product of three of the four mode sizes); for ``tt`` the bounds chain
    through the sequential unfoldings.
    """
    cost = _method_cost(method)
    return (cost.top or cost.limits)(s, t, k)


def aggregate_ratio(costs: list[LayerCost]) -> float:
    """Whole-model compression ratio ``1 - sum(c_hat) / sum(c)``."""
    if not costs:
        raise ValueError("no layer costs to aggregate")
    total = sum(c.macs_original for c in costs)
    compressed = sum(c.macs_compressed for c in costs)
    return 1.0 - compressed / total
