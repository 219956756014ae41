"""Data-free low-rank decompositions of convolution kernels.

Five factorizations are provided, each with extraction, a staged forward
pass, and exact reconstruction of the approximate kernel:

* ``weight_svd``  - truncated SVD of the (k*k*s, t) matricization; a k x k
  convolution into r channels followed by a 1x1 convolution.
* ``spatial_svd`` - truncated SVD of the (s*k, t*k) matricization; a 1-D
  filter along one spatial axis into r channels, then a 1-D filter along
  the other axis.
* ``cp``          - rank-r sum of 4-way outer products (ALS), executed as
  1x1 conv, two depthwise 1-D convs, 1x1 conv.
* ``tucker``      - partial Tucker on the channel modes (HOSVD init + HOOI),
  executed as 1x1 conv, k x k core conv, 1x1 conv.
* ``tt``          - tensor-train via sequential truncated SVDs, executed as
  1x1 conv, two 1-D convs, 1x1 conv.

The composite ``asym3d`` architecture produced by the data-optimized module
also dispatches through :func:`decomposed_forward` and :func:`reconstruct`.

Contractions run pairwise on BLAS: CP-ALS forms each MTTKRP as an unfolding
times a Khatri-Rao product, HOOI projects with matrix products, and
:func:`reconstruct` contracts a layout's factors left to right.  Every stage
of :func:`decomposed_forward` runs :func:`convcompress.kernel.conv` on a view
of its factor as a dense or depthwise ``(c_out, c_in/g, kx, ky)`` weight.  A
1x1 stage is one product on the unpadded map.  A stage with more taps pads
each channel once into one flat row, and a plain loop over the kernel
offsets adds one 2-D product per offset, each reading a contiguous run of
that row in place.  A stage with one input channel per group, such as a
depthwise one, takes broadcast products rather than matrix products.

Three pieces hold what the solvers share: ``_layer`` names each returned
layer's factors by :data:`LAYOUTS`; ``_sweeps`` runs the sweeps of ``cp_als``
and ``tucker_hooi`` under one stop test, ``abs(err_prev - err) < tol``; and
:func:`convcompress.kernel.check_ranks` checks ranks by the cost table
before any solver does work.

Factor layouts (all float64), in stage order: the axis strings of
:data:`convcompress.kernel.METHOD_COSTS` (``s``, ``t`` channels, ``x``, ``y``
spatial, other letters ranks) and the names in :data:`LAYOUTS`, from which
each stage and the reconstruction einsum are derived:

=============  =============================  ================================
method         factors                        axes
=============  =============================  ================================
weight_svd     w1, w2                         xysr, rt
spatial_svd    wh, wv ("hv"); wv, wh ("vh")   sxr, ryt; syr, rxt
cp             ws, wy, wx, wt                 sr, yr, xr, tr
tucker         w1, core, w2                   sa, xyab, tb (a = r1, b = r2)
tt             w1, w2, w3, w4                 sa, axb, byc, ct
asym3d         wv, wh, wp                     syr, rxd, dt (r = r_s, d = r_d)
=============  =============================  ================================
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import linalg
from .kernel import (
    METHOD_COSTS, Array, Kernel4D, _int_ranks, check_ranks, conv, feature_map, layer_cost,
    matricize_spatial, matricize_weight,
)


@dataclass(frozen=True)
class DecomposedLayer:
    """A factorized convolution layer: method tag plus named factor arrays.

    ``source_dims`` is ``(t, s, k)`` of the kernel the layer replaces.
    ``meta`` carries method-specific details (spatial order, ALS fit trace).
    """

    method: str
    factors: dict[str, Array]
    ranks: tuple[int, ...]
    source_dims: tuple[int, int, int]
    bias: Array | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in LAYOUTS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "ranks", _int_ranks(self.ranks))
        object.__setattr__(
            self, "factors", {k: np.asarray(v, dtype=np.float64) for k, v in self.factors.items()}
        )

    @property
    def t(self) -> int:
        return self.source_dims[0]

    @property
    def s(self) -> int:
        return self.source_dims[1]

    @property
    def k(self) -> int:
        return self.source_dims[2]

    def param_count(self) -> int:
        """Number of stored factor entries."""
        return int(sum(f.size for f in self.factors.values()))

    def macs(self, h: int, w: int) -> int:
        """MACs of the staged forward pass on an (h, w) feature map (:func:`layer_cost`)."""
        return layer_cost(self.s, self.t, self.k, h, w, self.param_count(), self.method,
                          self.ranks).macs_compressed

    @property
    def layout(self) -> Layout:
        """This layer's entry of :data:`LAYOUTS`."""
        return LAYOUTS[self.method][self.meta.get("order")]


def _layer(
    method: str, kernel: Kernel4D, ranks: tuple[int, ...], factors, order: str | None = None, /,
    **meta,
) -> DecomposedLayer:
    """The ``method`` layer replacing ``kernel``: ``factors`` in stage order,
    named by :data:`LAYOUTS`, with the kernel's bias and ``meta`` after any order."""
    return DecomposedLayer(
        method=method,
        factors=dict(zip(LAYOUTS[method][order].stages, factors, strict=True)),
        ranks=ranks,
        source_dims=(kernel.t, kernel.s, kernel.k),
        bias=kernel.bias,
        meta=meta if order is None else {"order": order, **meta},
    )


def _sweeps(sweep: Callable[[], float], max_iters: int, tol: float, what: str) -> dict:
    """Run ``sweep`` (it returns the relative error) until the error changes by
    less than ``tol`` (not NaN) or ``max_iters`` (>= 1) sweeps ran; returns
    the meta fields ``iterations``, ``rel_error`` and ``converged``."""
    # the solvers' factors are only filled by the first sweep
    max_iters = linalg.integer(max_iters, f"{what} max_iters", 1)
    if math.isnan(tol):
        raise ValueError(f"{what} tol must not be NaN")
    err_prev = np.inf
    for i in range(1, max_iters + 1):
        err = sweep()
        if abs(err_prev - err) < tol:
            return {"iterations": i, "rel_error": err, "converged": True}
        err_prev = err
    return {"iterations": max_iters, "rel_error": err, "converged": False}


def weight_svd(kernel: Kernel4D, r: int) -> DecomposedLayer:
    """Truncated SVD of the weight matricization, square-root split.

    The singular values are split evenly between the two factors:
    w1 = U_r sqrt(S_r), w2 = sqrt(S_r) V_r^T.
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    check_ranks("weight_svd", s, t, k, (r,))
    res = linalg.svd(matricize_weight(kernel), r)
    root = np.sqrt(res.S)
    w1 = (res.U * root).reshape(k, k, s, r)
    w2 = root[:, None] * res.V.T
    return _layer("weight_svd", kernel, (r,), (w1, w2))


def spatial_svd(kernel: Kernel4D, r: int, order: str = "hv") -> DecomposedLayer:
    """Truncated SVD of the spatial matricization into two 1-D filters.

    ``order="hv"`` (default) applies the horizontal 1xk filter (s -> r)
    first, then the vertical kx1 filter (r -> t), pairing the input channels
    with the x offsets.  ``order="vh"`` is the mirrored split used by the
    Asym3D architecture: vertical first (s -> r), horizontal second (r -> t).
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    if order not in ("hv", "vh"):
        raise ValueError(f"order must be 'hv' or 'vh', got {order!r}")
    check_ranks("spatial_svd", s, t, k, (r,))
    if order == "hv":
        m = matricize_spatial(kernel)  # rows (s, x), cols (t, y)
    else:
        m = kernel.data.transpose(1, 3, 0, 2).reshape(s * k, t * k)  # rows (s, y), cols (t, x)
    res = linalg.svd(m, r)
    root = np.sqrt(res.S)
    first = (res.U * root).reshape(s, k, r)
    second = (root[:, None] * res.V.T).reshape(r, t, k).transpose(0, 2, 1)
    return _layer("spatial_svd", kernel, (r,), (first, second), order)


def _khatri_rao(*mats: Array) -> Array:
    """Column-wise Kronecker product: row ``(i, j, ...)`` of the result, in C
    order, is the elementwise product of row i, row j, ... of the inputs,
    multiplied left to right.  Each input after the first multiplies the
    rows repeated so far in place, a block of its whole size at a time."""
    out = mats[0]
    for m in mats[1:]:
        out = np.repeat(out, m.shape[0], axis=0)
        out.reshape(-1, *m.shape)[...] *= m
    return out


def cp_als(
    kernel: Kernel4D,
    r: int,
    max_iters: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
) -> DecomposedLayer:
    """Rank-``r`` CP decomposition by alternating least squares.

    Factors are fitted to the kernel reordered as (s, y, x, t).  Each sweep
    updates ws, wy, wx, wt in turn; the column norms of the first three are
    absorbed into wt.  A factor's r x r Gram is formed once after each change
    of the factor that a later solve reads, six per sweep.  A solve multiplies
    the Grams of the other three factors in mode order and inverts the
    product with ``convcompress.linalg._psd_power``, the unchecked PSD
    inverse, which still refuses a non-finite Gram (the Grams of a finite
    kernel can overflow); above condition number 1e12 a 1e-10 ridge is
    added.  The Khatri-Rao product of wy, wx and wt that a sweep's error
    test builds is the next sweep's ws operand, and the product of ws and wy
    that the wx solve builds starts the wt operand.  Iteration stops when
    the relative reconstruction error changes by less than ``tol`` (a NaN is
    refused) or after ``max_iters`` (>= 1) sweeps; non-convergence is
    reported in ``meta``, not raised.
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    check_ranks("cp", s, t, k, (r,))
    seed = linalg.integer(seed, "seed", 0)
    tens = kernel.data.transpose(1, 3, 2, 0)  # (s, y, x, t)
    # mode-n unfoldings, the other modes kept in (s, y, x, t) order
    unf_s, unf_y, unf_x, unf_t = (
        np.moveaxis(tens, mode, 0).reshape(tens.shape[mode], -1) for mode in range(4)
    )
    norm_t = float(np.linalg.norm(unf_s))
    rng = np.random.default_rng(seed)
    # ws is solved first, so only the other three need a start
    fs = [np.empty((s, r))] + [rng.uniform(-1.0, 1.0, size=(n, r)) for n in (k, k, t)]
    kr_yxt = _khatri_rao(*fs[1:])  # ws's MTTKRP operand; each error test rebuilds it

    def inverse(gram: Array) -> Array:
        try:
            return linalg._psd_power(gram, 0.0)
        except ValueError:  # CP is ill-posed in general: a tiny ridge keeps ALS stable
            return linalg._psd_power(gram, 1e-10)

    def sweep() -> float:
        nonlocal kr_yxt
        _, wy, wx, wt = fs
        gy, gx, gt = wy.T @ wy, wx.T @ wx, wt.T @ wt
        ws = unf_s @ kr_yxt @ inverse(gy * gx * gt)
        gs = ws.T @ ws
        wy = unf_y @ _khatri_rao(ws, wx, wt) @ inverse(gs * gx * gt)
        gy = wy.T @ wy
        kr_sy = _khatri_rao(ws, wy)
        wx = unf_x @ _khatri_rao(kr_sy, wt) @ inverse(gs * gy * gt)
        gx = wx.T @ wx
        wt = unf_t @ _khatri_rao(kr_sy, wx) @ inverse(gs * gy * gx)
        # Normalize, absorbing scales into wt.  The column norms and the error
        # norm below are computed as np.linalg.norm computes them.
        for f in (ws, wy, wx):
            norms = np.sqrt(np.add.reduce(f * f, axis=0))
            norms = np.where(norms > 0, norms, 1.0)
            f /= norms
            wt *= norms
        fs[:] = ws, wy, wx, wt
        kr_yxt = _khatri_rao(wy, wx, wt)
        diff = (unf_s - ws @ kr_yxt.T).ravel()
        return math.sqrt(diff.dot(diff)) / (norm_t if norm_t > 0 else 1.0)

    fit = _sweeps(sweep, max_iters, tol, "CP")
    return _layer("cp", kernel, (r,), fs, seed=seed, **fit, init="uniform[-1,1]")


def tucker_hooi(
    kernel: Kernel4D, r1: int, r2: int, max_iters: int = 50, tol: float = 1e-10
) -> DecomposedLayer:
    """Partial Tucker decomposition on the channel modes.

    The spatial modes stay uncompressed.  The t-mode factor starts from the
    truncated HOSVD of the t-mode unfolding; each of at most ``max_iters``
    (>= 1) HOOI sweeps then solves the s-mode factor and the t-mode factor
    in turn, and the reconstruction error is nonincreasing over sweeps.
    Iteration stops once ``abs(err_prev - err) < tol``, so ``tol <= 0`` runs every sweep.
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    check_ranks("tucker", s, t, k, (r1, r2))
    tens = kernel.data.transpose(2, 3, 1, 0).copy()  # (x, y, s, t)
    norm_t = float(np.linalg.norm(tens))

    def leading(a: Array, mode: int, r: int) -> Array:
        """The r leading left singular vectors of the mode-``mode`` unfolding,
        padded when the unfolding has fewer than r."""
        m = np.moveaxis(a, mode, 0).reshape(a.shape[mode], -1)
        return linalg.orthonormal_extend(linalg.svd(m, min(r, m.shape[1])).U, r)

    u1 = core = None
    u2 = leading(tens, 3, r2)  # the first sweep solves u1 from it

    def sweep() -> float:
        nonlocal u1, u2, core
        u1 = leading(tens @ u2, 2, r1)
        tens_u1 = np.tensordot(tens, u1, axes=(2, 0))  # (x, y, t, a)
        u2 = leading(tens_u1, 2, r2)
        core = tens_u1.swapaxes(2, 3) @ u2  # (x, y, a, b)
        approx = u1 @ core @ u2.T
        return float(np.linalg.norm(tens - approx)) / (norm_t if norm_t > 0 else 1.0)

    fit = _sweeps(sweep, max_iters, tol, "tucker")
    return _layer("tucker", kernel, (r1, r2), (u1, core, u2), **fit)


def _split(m: Array, r: int) -> tuple[Array, Array]:
    """``m`` cut at rank r into ``U_r`` and ``S_r V_r^T``; where the smaller
    side of m is below r, the components past it are zero."""
    res = linalg.svd(m, min(r, *m.shape))
    u, rest = np.zeros((m.shape[0], r)), np.zeros((r, m.shape[1]))
    u[:, : res.S.size], rest[: res.S.size] = res.U, res.S[:, None] * res.V.T
    return u, rest


def tt_svd(kernel: Kernel4D, r1: int, r2: int, r3: int) -> DecomposedLayer:
    """Tensor-train decomposition by sequential truncated SVDs.

    The kernel is reordered as (s, x, y, t) and split left to right.  The
    ranks are checked against :func:`convcompress.kernel.max_ranks`; a bond
    above the rank its unfolding has, given the bonds before it, is padded
    with zero components (:func:`convcompress.kernel.clamp_ranks` lowers it).
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    check_ranks("tt", s, t, k, (r1, r2, r3))
    tens = kernel.data.transpose(1, 2, 3, 0).copy()  # (s, x, y, t)
    w1, carry = _split(tens.reshape(s, k * k * t), r1)
    w2, carry = _split(carry.reshape(r1 * k, k * t), r2)
    w3, w4 = _split(carry.reshape(r2 * k, t), r3)
    factors = (w1, w2.reshape(r1, k, r2), w3.reshape(r2, k, r3), w4)
    return _layer("tt", kernel, (r1, r2, r3), factors)


class Layout(NamedTuple):
    """Decomposition-side table entry: each factor's stage, keyed by factor
    name in stage order, and the einsum that densifies the factors, taken
    in stage order, into (t, s, x, y).  A stage views its factor as the
    ``(c_out, c_in/g, kx, ky)`` weight that :func:`convcompress.kernel.conv` runs."""

    stages: dict[str, Callable[[Array], Array]]
    subscripts: str


def _layout(method: str, *names: str, mirror: bool = False) -> Layout:
    """The layout of ``method``'s factors, named ``names`` in stage order, from
    their axes in :data:`convcompress.kernel.METHOD_COSTS`, with x and y
    swapped if ``mirror``.  A stage reads channel axis c, s at first, and
    writes the factor's other channel axis, or c if it has none (depthwise).
    Its weight is the factor transposed to (out, in, x, y), with a singleton
    for each axis it lacks, and for ``in`` if depthwise."""
    axes = METHOD_COSTS[method].axes
    if mirror:
        axes = tuple(a.translate(str.maketrans("xy", "yx")) for a in axes)
    stages, c = {}, "s"
    for name, a in zip(names, axes, strict=True):
        out = next((d for d in a if d not in ("x", "y", c)), c)
        want = out + (c if out != c else "1") + "xy"
        perm = tuple(a.index(d) for d in want if d in a)
        index = tuple(slice(None) if d in a else None for d in want)
        stages[name] = lambda w, perm=perm, index=index: w.transpose(perm)[index]
        c = out
    return Layout(stages, ",".join(axes) + "->tsxy")


_SPATIAL_HV = _layout("spatial_svd", "wh", "wv")

#: method -> spatial order -> layout.  The order is the layer's
#: ``meta["order"]``, None when the meta names none.
LAYOUTS: dict[str, dict[str | None, Layout]] = {
    "weight_svd": {None: _layout("weight_svd", "w1", "w2")},
    "spatial_svd": {
        None: _SPATIAL_HV,
        "hv": _SPATIAL_HV,
        "vh": _layout("spatial_svd", "wv", "wh", mirror=True),
    },
    "cp": {None: _layout("cp", "ws", "wy", "wx", "wt")},
    "tucker": {None: _layout("tucker", "w1", "core", "w2")},
    "tt": {None: _layout("tt", "w1", "w2", "w3", "w4")},
    # vertical (s -> r_s), horizontal (r_s -> r_d), pointwise (r_d -> t)
    "asym3d": {None: _layout("asym3d", "wv", "wh", "wp")},
}


def reconstruct(layer: DecomposedLayer) -> Kernel4D:
    """Evaluate the factorization back into a dense (t, s, k, k) kernel."""
    lay = layer.layout
    operands = [layer.factors[n] for n in lay.stages]
    # left to right: each step contracts the running product with the next
    # operand, which einsum_path numbers 0 while the product sits last
    path = ["einsum_path", (0, 1)] + [(0, i) for i in range(len(operands) - 2, 0, -1)]
    data = np.einsum(lay.subscripts, *operands, optimize=path if len(operands) > 2 else False)
    return Kernel4D(np.ascontiguousarray(data), bias=layer.bias)


def decomposed_forward(layer: DecomposedLayer, x: Array) -> Array:
    """Run the staged pipeline of a decomposed layer on a feature map.

    Numerically equivalent (to rounding) to convolving with the
    reconstructed kernel; bias is not applied.
    """
    x = feature_map(x)
    if x.shape[0] != layer.s:
        raise ValueError(f"input has {x.shape[0]} channels, layer expects {layer.s}")
    for name, view in layer.layout.stages.items():
        x = conv(view(layer.factors[name]), x)
    return x


def with_factors(layer: DecomposedLayer, **updates: Array) -> DecomposedLayer:
    """Copy of a layer with some factor arrays replaced."""
    unknown = set(updates) - set(layer.factors)
    if unknown:
        raise ValueError(f"layer has no factors named {sorted(unknown)}")
    factors = dict(layer.factors)
    factors.update(updates)
    return replace(layer, factors=factors)
