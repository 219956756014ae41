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

Factor array layouts (all float64), in stage order.  The shapes are the
entries of :data:`convcompress.kernel.METHOD_COSTS`; the names, the
reconstruction einsum and the stages are the entries of :data:`LAYOUTS`:

=============  =====================================================
method         factors
=============  =====================================================
weight_svd     w1 (k, k, s, r); w2 (r, t)
spatial_svd    wh (s, k, r) and wv (r, k, t) for order "hv";
               wv (s, k, r) and wh (r, k, t) for order "vh"
cp             ws (s, r); wy (k, r); wx (k, r); wt (t, r)
tucker         w1 (s, r1); core (k, k, r1, r2); w2 (t, r2)
tt             w1 (s, r1); w2 (r1, k, r2); w3 (r2, k, r3); w4 (r3, t)
asym3d         wv (s, k, r_s); wh (r_s, k, r_d); wp (r_d, t)
=============  =====================================================
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import linalg
from .kernel import Array, Kernel4D, conv_direct, feature_map, matricize_spatial, matricize_weight


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
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
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
        """MACs of the staged forward pass on an (h, w) feature map."""
        return self.param_count() * h * w

    @property
    def layout(self) -> Layout:
        """This layer's entry of :data:`LAYOUTS`."""
        return LAYOUTS[self.method][self.meta.get("order")]


def _svd_rank_check(r: int, bound: int, what: str) -> None:
    if not 1 <= r <= bound:
        raise ValueError(f"{what} rank {r} out of range [1, {bound}]")


def weight_svd(kernel: Kernel4D, r: int) -> DecomposedLayer:
    """Truncated SVD of the weight matricization, square-root split.

    The singular values are split evenly between the two factors:
    w1 = U_r sqrt(S_r), w2 = sqrt(S_r) V_r^T.
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    _svd_rank_check(r, min(k * k * s, t), "weight SVD")
    res = linalg.svd(matricize_weight(kernel))
    ur, sr, vr = res.truncate(r)
    root = np.sqrt(sr)
    w1 = (ur * root).reshape(k, k, s, r)
    w2 = root[:, None] * vr.T
    return DecomposedLayer(
        method="weight_svd",
        factors={"w1": w1, "w2": w2},
        ranks=(r,),
        source_dims=(t, s, k),
        bias=kernel.bias,
    )


def spatial_svd(kernel: Kernel4D, r: int, order: str = "hv") -> DecomposedLayer:
    """Truncated SVD of the spatial matricization into two 1-D filters.

    ``order="hv"`` (default) applies the horizontal 1xk filter (s -> r)
    first, then the vertical kx1 filter (r -> t), pairing the input channels
    with the x offsets.  ``order="vh"`` is the mirrored split used by the
    Asym3D architecture: vertical first (s -> r), horizontal second (r -> t).
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    _svd_rank_check(r, min(s * k, t * k), "spatial SVD")
    if order not in ("hv", "vh"):
        raise ValueError(f"order must be 'hv' or 'vh', got {order!r}")
    if order == "hv":
        m = matricize_spatial(kernel)  # rows (s, x), cols (t, y)
    else:
        m = kernel.data.transpose(1, 3, 0, 2).reshape(s * k, t * k)  # rows (s, y), cols (t, x)
    res = linalg.svd(m)
    ur, sr, vr = res.truncate(r)
    root = np.sqrt(sr)
    first = (ur * root).reshape(s, k, r)
    second = (root[:, None] * vr.T).reshape(r, t, k).transpose(0, 2, 1)
    names = LAYOUTS["spatial_svd"][order].stages
    return DecomposedLayer(
        method="spatial_svd",
        factors=dict(zip(names, (first, second))),
        ranks=(r,),
        source_dims=(t, s, k),
        bias=kernel.bias,
        meta={"order": order},
    )


def _solve_gram(gram: Array, rhs: Array) -> Array:
    """Solve ``x @ gram = rhs`` for a symmetric PSD gram, ridging if needed.

    When the gram condition number exceeds 1e12 a 1e-10 ridge keeps the
    ALS update stable (CP factorizations are ill-posed in general).
    """
    vals, vecs = linalg.eig_sym(gram)
    if vals[0] <= 0 or vals[-1] <= vals[0] / 1e12:
        vals, vecs = linalg.eig_sym(gram + 1e-10 * np.eye(gram.shape[0]))
    inv = (vecs / vals) @ vecs.T
    return rhs @ inv


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
    absorbed into wt.  Iteration stops when the relative reconstruction
    error changes by less than ``tol`` or after ``max_iters`` sweeps;
    non-convergence is reported in ``meta``, not raised.
    """
    if r < 1:
        raise ValueError(f"CP rank must be >= 1, got {r}")
    t, s, k = kernel.t, kernel.s, kernel.k
    tens = kernel.data.transpose(1, 3, 2, 0).copy()  # (s, y, x, t)
    norm_t = float(np.linalg.norm(tens))
    rng = np.random.default_rng(seed)
    ws = np.empty((s, r))
    wy = rng.uniform(-1.0, 1.0, size=(k, r))
    wx = rng.uniform(-1.0, 1.0, size=(k, r))
    wt = rng.uniform(-1.0, 1.0, size=(t, r))

    def mttkrp(mode: int) -> Array:
        if mode == 0:
            return np.einsum("syxt,yr,xr,tr->sr", tens, wy, wx, wt)
        if mode == 1:
            return np.einsum("syxt,sr,xr,tr->yr", tens, ws, wx, wt)
        if mode == 2:
            return np.einsum("syxt,sr,yr,tr->xr", tens, ws, wy, wt)
        return np.einsum("syxt,sr,yr,xr->tr", tens, ws, wy, wx)

    err_prev = np.inf
    errors = []
    for it in range(max_iters):
        ws = _solve_gram((wy.T @ wy) * (wx.T @ wx) * (wt.T @ wt), mttkrp(0))
        wy = _solve_gram((ws.T @ ws) * (wx.T @ wx) * (wt.T @ wt), mttkrp(1))
        wx = _solve_gram((ws.T @ ws) * (wy.T @ wy) * (wt.T @ wt), mttkrp(2))
        wt = _solve_gram((ws.T @ ws) * (wy.T @ wy) * (wx.T @ wx), mttkrp(3))
        # Normalize, absorbing scales into wt.
        for f in (ws, wy, wx):
            norms = np.linalg.norm(f, axis=0)
            norms = np.where(norms > 0, norms, 1.0)
            f /= norms
            wt *= norms
        approx = np.einsum("sr,yr,xr,tr->syxt", ws, wy, wx, wt)
        err = float(np.linalg.norm(tens - approx)) / (norm_t if norm_t > 0 else 1.0)
        errors.append(err)
        if abs(err_prev - err) < tol:
            break
        err_prev = err
    return DecomposedLayer(
        method="cp",
        factors={"ws": ws, "wy": wy, "wx": wx, "wt": wt},
        ranks=(r,),
        source_dims=(t, s, k),
        bias=kernel.bias,
        meta={
            "seed": seed,
            "iterations": len(errors),
            "rel_error": errors[-1] if errors else None,
            "converged": len(errors) < max_iters,
            "init": "uniform[-1,1]",
        },
    )


def _leading_left_vectors(m: Array, r: int) -> Array:
    res = linalg.svd(m)
    if r <= res.S.size:
        return res.U[:, :r]
    # more directions requested than the unfolding has; pad the basis
    return linalg.orthonormal_extend(res.U, r)


def tucker_hooi(
    kernel: Kernel4D, r1: int, r2: int, max_iters: int = 50, tol: float = 1e-10
) -> DecomposedLayer:
    """Partial Tucker decomposition on the channel modes.

    The spatial modes stay uncompressed.  Factors are initialized from the
    truncated HOSVD of the s- and t-mode unfoldings and refined by HOOI;
    the reconstruction error is nonincreasing over iterations.
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    _svd_rank_check(r1, s, "tucker r1")
    _svd_rank_check(r2, t, "tucker r2")
    tens = kernel.data.transpose(2, 3, 1, 0).copy()  # (x, y, s, t)
    norm_t = float(np.linalg.norm(tens))

    def unfold(a: Array, mode: int) -> Array:
        return np.moveaxis(a, mode, 0).reshape(a.shape[mode], -1)

    u1 = _leading_left_vectors(unfold(tens, 2), r1)
    u2 = _leading_left_vectors(unfold(tens, 3), r2)
    err_prev = np.inf
    for _ in range(max_iters):
        u1 = _leading_left_vectors(unfold(np.einsum("xyst,tb->xysb", tens, u2), 2), r1)
        u2 = _leading_left_vectors(unfold(np.einsum("xyst,sa->xyat", tens, u1), 3), r2)
        core = np.einsum("xyst,sa,tb->xyab", tens, u1, u2)
        approx = np.einsum("xyab,sa,tb->xyst", core, u1, u2)
        err = float(np.linalg.norm(tens - approx)) / (norm_t if norm_t > 0 else 1.0)
        if err_prev - err < tol:
            break
        err_prev = err
    core = np.einsum("xyst,sa,tb->xyab", tens, u1, u2)
    return DecomposedLayer(
        method="tucker",
        factors={"w1": u1, "core": core, "w2": u2},
        ranks=(r1, r2),
        source_dims=(t, s, k),
        bias=kernel.bias,
    )


def tt_svd(kernel: Kernel4D, r1: int, r2: int, r3: int) -> DecomposedLayer:
    """Tensor-train decomposition by sequential truncated SVDs.

    The kernel is reordered as (s, x, y, t) and split left to right; each
    bond rank must respect its unfolding bound given the ranks before it.
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    _svd_rank_check(r1, min(s, k * k * t), "tt r1")
    _svd_rank_check(r2, min(r1 * k, k * t), "tt r2")
    _svd_rank_check(r3, min(r2 * k, t), "tt r3")
    tens = kernel.data.transpose(1, 2, 3, 0).copy()  # (s, x, y, t)

    res = linalg.svd(tens.reshape(s, k * k * t))
    u, sv, v = res.truncate(r1)
    w1 = u
    carry = (sv[:, None] * v.T).reshape(r1 * k, k * t)

    res = linalg.svd(carry)
    u, sv, v = res.truncate(r2)
    w2 = u.reshape(r1, k, r2)
    carry = (sv[:, None] * v.T).reshape(r2 * k, t)

    res = linalg.svd(carry)
    u, sv, v = res.truncate(r3)
    w3 = u.reshape(r2, k, r3)
    w4 = sv[:, None] * v.T

    return DecomposedLayer(
        method="tt",
        factors={"w1": w1, "w2": w2, "w3": w3, "w4": w4},
        ranks=(r1, r2, r3),
        source_dims=(t, s, k),
        bias=kernel.bias,
    )


def _conv_1d(w: Array, x: Array, axis: int) -> Array:
    """1-D convolution of (c_in, h, w) along a spatial axis with zero padding.

    ``w`` has shape (c_in, k, c_out); stride 1, output spatial dims unchanged.
    """
    c_in, k, c_out = w.shape
    d = (k - 1) // 2
    pad = [(0, 0), (0, 0), (0, 0)]
    pad[axis] = (d, d)
    xpad = np.pad(x, pad)
    h, wdt = x.shape[1], x.shape[2]
    out = np.zeros((c_out, h, wdt))
    for off in range(k):
        if axis == 1:
            sl = xpad[:, off : off + h, :]
        else:
            sl = xpad[:, :, off : off + wdt]
        out += np.einsum("cab,co->oab", sl, w[:, off, :])
    return out


def _conv_1x1(w: Array, x: Array) -> Array:
    """Pointwise channel mix: ``w`` has shape (c_in, c_out)."""
    return np.einsum("co,cab->oab", w, x)


def _conv_1x1_rows(w: Array, x: Array) -> Array:
    """Pointwise channel mix: ``w`` has shape (c_out, c_in)."""
    return np.einsum("tr,rab->tab", w, x)


def _conv_kxk(w: Array, x: Array) -> Array:
    """Full k x k convolution: ``w`` has shape (k, k, c_in, c_out)."""
    return conv_direct(Kernel4D(w.transpose(3, 2, 0, 1)), x)


def _depthwise_1d(w: Array, x: Array, axis: int) -> Array:
    """Per-channel 1-D convolution; ``w`` has shape (k, channels)."""
    k = w.shape[0]
    d = (k - 1) // 2
    pad = [(0, 0), (0, 0), (0, 0)]
    pad[axis] = (d, d)
    xpad = np.pad(x, pad)
    h, wdt = x.shape[1], x.shape[2]
    out = np.zeros_like(x)
    for off in range(k):
        if axis == 1:
            sl = xpad[:, off : off + h, :]
        else:
            sl = xpad[:, :, off : off + wdt]
        out += w[off, :][:, None, None] * sl
    return out


_along_x = partial(_conv_1d, axis=1)
_along_y = partial(_conv_1d, axis=2)


class Layout(NamedTuple):
    """Decomposition-side table entry: each factor's stage, keyed by factor
    name in stage order, and the einsum that densifies the factors into
    (t, s, x, y), taking them in ``operands`` order (else in stage order)."""

    stages: dict[str, Callable[[Array, Array], Array]]
    subscripts: str
    operands: tuple[str, ...] = ()


_SPATIAL_HV = Layout({"wh": _along_x, "wv": _along_y}, "sxr,ryt->tsxy")

#: method -> spatial order -> layout.  The order is the layer's
#: ``meta["order"]``, None when the meta names none.
LAYOUTS: dict[str, dict[str | None, Layout]] = {
    "weight_svd": {None: Layout({"w1": _conv_kxk, "w2": _conv_1x1}, "xysr,rt->tsxy")},
    "spatial_svd": {
        None: _SPATIAL_HV,
        "hv": _SPATIAL_HV,
        "vh": Layout({"wv": _along_y, "wh": _along_x}, "syr,rxt->tsxy"),
    },
    "cp": {None: Layout(
        {"ws": _conv_1x1, "wy": partial(_depthwise_1d, axis=2),
         "wx": partial(_depthwise_1d, axis=1), "wt": _conv_1x1_rows},
        "sr,yr,xr,tr->tsxy",
    )},
    "tucker": {None: Layout(
        {"w1": _conv_1x1, "core": _conv_kxk, "w2": _conv_1x1_rows},
        "xyab,sa,tb->tsxy",
        operands=("core", "w1", "w2"),
    )},
    "tt": {None: Layout(
        {"w1": _conv_1x1, "w2": _along_x, "w3": _along_y, "w4": _conv_1x1}, "sa,axb,byc,ct->tsxy"
    )},
    # vertical (s -> r_s), horizontal (r_s -> r_d), pointwise (r_d -> t)
    "asym3d": {None: Layout({"wv": _along_y, "wh": _along_x, "wp": _conv_1x1}, "syr,rxd,dt->tsxy")},
}


def reconstruct(layer: DecomposedLayer) -> Kernel4D:
    """Evaluate the factorization back into a dense (t, s, k, k) kernel."""
    lay = layer.layout
    data = np.einsum(lay.subscripts, *(layer.factors[n] for n in lay.operands or lay.stages))
    return Kernel4D(np.ascontiguousarray(data), bias=layer.bias)


def decomposed_forward(layer: DecomposedLayer, x: Array) -> Array:
    """Run the staged pipeline of a decomposed layer on a feature map.

    Numerically equivalent (to rounding) to convolving with the
    reconstructed kernel; bias is not applied.
    """
    x = feature_map(x)
    if x.shape[0] != layer.s:
        raise ValueError(f"input has {x.shape[0]} channels, layer expects {layer.s}")
    for name, stage in layer.layout.stages.items():
        x = stage(layer.factors[name], x)
    return x


def with_factors(layer: DecomposedLayer, **updates: Array) -> DecomposedLayer:
    """Copy of a layer with some factor arrays replaced."""
    unknown = set(updates) - set(layer.factors)
    if unknown:
        raise ValueError(f"layer has no factors named {sorted(unknown)}")
    factors = dict(layer.factors)
    factors.update(updates)
    return replace(layer, factors=factors)
