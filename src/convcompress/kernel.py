"""Dense 4-D convolution kernels, feature maps, the convolution primitive
and the MAC/parameter cost model.

Conventions used throughout the package:

* A kernel is stored as a ``(t, s, k, k)`` float64 array: ``t`` output
  channels, ``s`` input channels, square odd spatial size ``k``.
* A feature map is a plain ``(channels, h, w)`` float64 array.  The first
  spatial axis is called ``x`` and the second ``y``; "horizontal" (1xk)
  filters act along ``x``, "vertical" (kx1) filters along ``y``.
* All convolutions use stride 1 and zero padding of width ``delta=(k-1)/2``
  so the output spatial size equals the input spatial size.
* :class:`Kernel4D` (data and bias) and :func:`feature_map` take their
  arrays through :func:`convcompress.linalg.float_array`; :func:`conv` does not.
* The cost model's ``s``, ``t``, ``k``, ``h``, ``w`` and ``params`` are integers
  >= 1 (:func:`convcompress.linalg.integer`) in :func:`layer_cost`, :func:`mac_cost`,
  :func:`check_ranks`, :func:`max_ranks`, :func:`clamp_ranks` and ``unmatricize_*``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import Array, float_array, integer


@dataclass(frozen=True)
class Kernel4D:
    """A dense convolution kernel with optional per-output-channel bias.

    The data-free decompositions pass the bias through untouched on the
    layers they return, and ``reconstruct`` gives it back; ``conv_direct``
    and ``decomposed_forward`` do not apply it.  The data-optimized methods
    read it (current responses are ``W x + b``) and write the refitted bias
    on their results.
    """

    data: Array
    bias: Array | None = None

    def __post_init__(self):
        data = float_array(self.data, "kernel")
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
        if self.bias is not None:
            bias = float_array(self.bias, "bias")
            if bias.shape != (t,):
                raise ValueError(f"bias must have shape ({t},), got {bias.shape}")
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
    x = float_array(data, "feature map")
    if x.ndim != 3:
        raise ValueError(f"feature map must be 3-D (channels, h, w), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ValueError(f"feature map dims must be positive, got {x.shape}")
    return x


def conv(w: Array, x: Array) -> Array:
    """Stride-1, zero-padded convolution of a ``(c, h, w)`` map with a
    ``(c_out, c_in/g, kx, ky)`` weight (odd kx, ky); the output is ``(c_out, h, w)``.

    The group count g is read off the shapes: dense (g = 1) when
    ``w.shape[1] == c``, depthwise (g = c) when ``w`` is ``(c, 1, kx, ky)``;
    any other weight, or an even kernel side, raises ``ValueError``.

    A 1x1 weight is one product on ``x`` itself, neither padded nor cropped:
    ``(c_out, c) @ (c, h*w)``, reading a C-ordered weight in place, or, when
    ``c_in/g == 1`` (depthwise, or dense on one channel), each output
    channel's weight times its input row, a broadcast product.

    A larger weight pads each channel once into a flat row of length
    ``(h+2dx)*wp + 2dy``, with ``wp = w + 2dy``, so kernel offset ``(i, j)``
    reads the contiguous run starting at ``i*wp + j`` in place.  A plain loop
    over the offsets adds one 2-D product per offset to the accumulator: the
    offset's ``(c_out, c)`` slice of the weight, reordered once to
    ``(kx*ky, c_out, c)``, times the run, or, when ``c_in/g == 1``, each
    output channel's tap times its run.  The ``2dy`` pad columns are cropped
    once at the end.  The output is C-contiguous, and ``x`` is never written.
    """
    c, h, wd = x.shape
    c_out, c_g, kx, ky = w.shape
    if kx % 2 == 0 or ky % 2 == 0:
        raise ValueError(f"weight {w.shape} has an even kernel side")
    if c_g != c and (c_g != 1 or c_out != c):
        raise ValueError(f"weight {w.shape} is neither dense nor depthwise for {c} input channels")
    if kx == ky == 1:  # one product on the unpadded map
        flat = x.reshape(c, h * wd)
        if c_g == 1:
            out = np.multiply(w.reshape(c_out, 1), flat, order="C")
        else:
            out = np.ascontiguousarray(w.reshape(c_out, c)) @ flat
        return out.reshape(c_out, h, wd)
    dx, dy = (kx - 1) // 2, (ky - 1) // 2
    wp, n = wd + 2 * dy, h * (wd + 2 * dy)
    flat = np.zeros((c, (h + 2 * dx) * wp + 2 * dy))
    flat[:, : (h + 2 * dx) * wp].reshape(c, -1, wp)[:, dx : dx + h, dy : dy + wd] = x
    offsets = [i * wp + j for i in range(kx) for j in range(ky)]
    if c_g == 1:  # each output channel scales the run of one input channel
        taps = w.reshape(c_out, kx * ky, 1)
        out = taps[:, 0] * flat[:, :n]  # the first term, a new array, is the accumulator
        for t in range(1, kx * ky):
            out += taps[:, t] * flat[:, offsets[t] : offsets[t] + n]
    else:
        taps = np.ascontiguousarray(w.reshape(c_out, c, kx * ky).transpose(2, 0, 1))
        out = taps[0] @ flat[:, :n]
        for t in range(1, kx * ky):
            out += taps[t] @ flat[:, offsets[t] : offsets[t] + n]
    return np.ascontiguousarray(out.reshape(c_out, h, wp)[:, :, :wd])


def conv_direct(kernel: Kernel4D, x: Array) -> Array:
    """Direct convolution of a feature map with a 4-D kernel: the checked
    front of :func:`conv`, which validates the map and its channel count.

    Stride 1, zero padding of width ``kernel.delta``, so the output has the
    same spatial dims as the input.  Bias is not applied.
    """
    x = feature_map(x)
    if x.shape[0] != kernel.s:
        raise ValueError(
            f"input has {x.shape[0]} channels, kernel expects {kernel.s}"
        )
    return conv(kernel.data, x)


def matricize_weight(kernel: Kernel4D) -> Array:
    """Reshape the kernel into a ``(k*k*s, t)`` matrix.

    Rows merge ``(x, y, s)`` in that order: row index ``(x*k + y)*s + s_i``.
    """
    t, s, k, _ = kernel.data.shape
    return kernel.data.transpose(2, 3, 1, 0).reshape(k * k * s, t).copy()


def _dims(s, t, k) -> tuple[int, int, int]:
    """``(s, t, k)`` as ints, each an integer >= 1; else ``ValueError``."""
    return integer(s, "s", 1), integer(t, "t", 1), integer(k, "k", 1)


def unmatricize_weight(m: Array, t: int, s: int, k: int) -> Kernel4D:
    """Inverse of :func:`matricize_weight`."""
    s, t, k = _dims(s, t, k)
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
    s, t, k = _dims(s, t, k)
    if m.shape != (s * k, t * k):
        raise ValueError(f"expected shape {(s * k, t * k)}, got {m.shape}")
    return Kernel4D(m.reshape(s, k, t, k).transpose(2, 0, 1, 3))


@dataclass(frozen=True)
class LayerCost:
    """MAC and parameter counts for one layer, original vs compressed, built
    by :func:`layer_cost`.  ``retained`` is ``macs_compressed / macs_original``
    and ``ratio``, the fraction saved, ``1 - retained``: negative when a
    decomposition costs more than the original layer (possible at high
    ranks); it is reported as-is.
    """

    method: str
    ranks: tuple[int, ...]
    macs_original: int
    params_original: int
    macs_compressed: int
    params_compressed: int

    @property
    def retained(self) -> float:
        return self.macs_compressed / self.macs_original

    @property
    def ratio(self) -> float:
        return 1.0 - self.retained


class MethodCost(NamedTuple):
    """Cost-side table entry: rank names; ``axes``, one string per stored
    factor in stage order, each letter one axis of the factor (``s`` and
    ``t`` the kernel's input and output channels, ``x`` and ``y`` its
    spatial axes, any other letter a rank; in order of first use these
    letters name the ranks in the order ``ranks`` lists them);
    ``limits(s, t, k)`` on each rank (None: unbounded), ``top(s, t, k)``,
    the largest usable ranks if not the limits, and ``chain(s, t, k,
    *ranks)``, the ranks each lowered to the bound the ranks before it
    leave, for methods whose rank bounds chain."""

    ranks: tuple[str, ...]
    axes: tuple[str, ...]
    limits: Callable[[int, int, int], tuple[int | None, ...]]
    top: Callable[[int, int, int], tuple[int, ...]] | None = None
    chain: Callable[..., tuple[int, ...]] | None = None


def _tt_chain(s: int, t: int, k: int, r1: int, r2: int, r3: int) -> tuple[int, int, int]:
    """Each TT bond capped by the rank of its sequential unfolding."""
    r1 = min(r1, s, k * k * t)
    r2 = min(r2, r1 * k, k * t)
    return r1, r2, min(r3, r2 * k, t)


#: One entry per method.  Every stage is a stride-1, same-padded convolution,
#: so each stored factor entry costs one MAC per output pixel.
METHOD_COSTS: dict[str, MethodCost] = {
    "original": MethodCost((), ("tsxy",), lambda s, t, k: ()),
    "weight_svd": MethodCost(("r",), ("xysr", "rt"), lambda s, t, k: (min(k * k * s, t),)),
    "spatial_svd": MethodCost(("r",), ("sxr", "ryt"), lambda s, t, k: (min(s * k, t * k),)),
    "cp": MethodCost(
        ("r",), ("sr", "yr", "xr", "tr"), lambda s, t, k: (None,),
        top=lambda s, t, k: (min(k * k * t, s * k * t, s * k * k),),
    ),
    "tucker": MethodCost(("r1", "r2"), ("sa", "xyab", "tb"), lambda s, t, k: (s, t)),
    "tt": MethodCost(
        ("r1", "r2", "r3"), ("sa", "axb", "byc", "ct"),
        lambda s, t, k: _tt_chain(s, t, k, s, k * t, t),
        chain=_tt_chain,
    ),
    "asym3d": MethodCost(
        ("rs", "rd"), ("syr", "rxd", "dt"), lambda s, t, k: (min(s * k, t * k), t)
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
    letters = dict.fromkeys(c for c in "".join(cost.axes) if c not in "stxy")  # first-use order
    sizes = {"s": s, "t": t, "x": k, "y": k, **dict(zip(letters, ranks))}
    return tuple(tuple(sizes[c] for c in axes) for axes in cost.axes)


def _int_ranks(ranks) -> tuple[int, ...]:
    """``ranks`` as a tuple of ints if it is a sequence and each is an integer
    (numpy integers pass, a float never does); else ``ValueError``."""
    try:
        ranks = tuple(ranks)
    except TypeError:
        raise ValueError(f"ranks must be a sequence of integers, got {ranks!r}") from None
    try:
        return tuple(operator.index(r) for r in ranks)
    except TypeError:
        raise ValueError(f"ranks must be integers, got {ranks}") from None


def check_ranks(method: str, s: int, t: int, k: int, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """``ranks`` as ints if ``method`` takes them on a (t, s, k, k) kernel: each
    an integer (:func:`_int_ranks`), the arity of :func:`factor_shapes`, each
    >= 1 and within its limit; else ``ValueError``."""
    s, t, k = _dims(s, t, k)
    ranks = _int_ranks(ranks)
    factor_shapes(method, s, t, k, ranks)
    if any(r < 1 for r in ranks):
        raise ValueError(f"ranks must be >= 1, got {ranks}")
    cost = METHOD_COSTS[method]
    for name, r, bound in zip(cost.ranks, ranks, cost.limits(s, t, k)):
        if bound is not None and r > bound:
            raise ValueError(f"{method} rank {name}={r} exceeds {bound} at (s, t, k)={(s, t, k)}")
    return ranks


def layer_cost(s: int, t: int, k: int, h: int, w: int, params: int, method: str,
               ranks: tuple[int, ...]) -> LayerCost:
    """The :class:`LayerCost` of a layer of ``params`` stored entries, labelled
    ``method`` at ``ranks``, against the (t, s, k, k) original on an (h, w)
    map: each entry costs one MAC per output pixel, MACs = entries * h * w."""
    (s, t, k), h, w = _dims(s, t, k), integer(h, "h", 1), integer(w, "w", 1)
    params = integer(params, "params", 1)
    return LayerCost(method, ranks, k * k * s * t * h * w, k * k * s * t, params * h * w, params)


def mac_cost(
    s: int, t: int, k: int, h: int, w: int, method: str, ranks: tuple[int, ...] = ()
) -> LayerCost:
    """Exact integer MAC/parameter counts for a layer compressed by ``method``:
    the :func:`layer_cost` of its stored factor entries.  ``ranks`` must pass
    :func:`check_ranks` (arity, >= 1, limits), checked after ``s``, ``t``,
    ``k``, ``h`` and ``w``."""
    (s, t, k), h, w = _dims(s, t, k), integer(h, "h", 1), integer(w, "w", 1)
    ranks = check_ranks(method, s, t, k, ranks)
    params = sum(math.prod(shape) for shape in factor_shapes(method, s, t, k, ranks))
    return layer_cost(s, t, k, h, w, params, method, ranks)


def max_ranks(method: str, s: int, t: int, k: int) -> tuple[int, ...]:
    """Largest rank vector each decomposition can use on a (t, s, k, k) kernel.

    For ``cp`` this is the generic representability bound (the smallest
    product of three of the four mode sizes); for ``tt`` the bounds chain
    through the sequential unfoldings.
    """
    cost = _method_cost(method)
    return (cost.top or cost.limits)(*_dims(s, t, k))


def clamp_ranks(method: str, s: int, t: int, k: int, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """``ranks`` with each rank lowered, where needed, to the largest value the
    decomposition can use: :func:`max_ranks`, and for ``tt`` the chained
    bounds its sequential unfoldings put on each bond given the bonds before.
    Each rank must be an integer (:func:`_int_ranks`)."""
    cost = _method_cost(method)
    s, t, k = _dims(s, t, k)
    ranks = tuple(min(r, top) for r, top in zip(_int_ranks(ranks), max_ranks(method, s, t, k)))
    return cost.chain(s, t, k, *ranks) if cost.chain else ranks


def aggregate_ratio(costs: list[LayerCost]) -> float:
    """Whole-model compression ratio ``1 - sum(c_hat) / sum(c)``."""
    if not costs:
        raise ValueError("no layer costs to aggregate")
    total = sum(c.macs_original for c in costs)
    compressed = sum(c.macs_compressed for c in costs)
    return 1.0 - compressed / total
