"""Data-optimized compression: refine a layer against sampled activations.

These methods need no labels and no backpropagation.  They operate on a
:class:`PatchBatch`: flattened input patches paired with reference outputs
of the uncompressed model and, for the asymmetric variants, the outputs the
layer produces when fed activations from an already-compressed prefix.

All fits work on explicitly centered responses.  A fitted layer predicts

    y_hat = M @ (z - z_mean) + y_mean

which as an affine map of raw responses has bias ``y_mean - M @ z_mean``.
``predict`` and all residuals use the centered form.

The layer a fit returns (:func:`refined_kernel`, its factored form
:func:`refined_layer`, the :func:`asym3d` layer and the layer
:func:`spatial_refine` wraps) is ``M W`` for the fitted layer's weights
``W`` and bias ``b``, with bias ``y_mean - M @ (z_mean - b)``: it maps
patches ``x`` to ``predict(W x + b)``.  Its error on the fitting batch is
therefore the fit's ``residual`` (after the ReLU for :func:`relu_asym`; the
square root of the residual for :func:`data_svd`, whose responses are the
layer's own).
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
from .decomp import DecomposedLayer, _layer, _split, reconstruct, spatial_svd, with_factors
from .kernel import Array, Kernel4D, check_ranks, feature_map

DEFAULT_LAMBDA_SCHEDULE = (0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class PatchBatch:
    """Sampled patches with aligned reference and current responses.

    ``inputs`` is (n, s*k*k), rows are channel-major flattened k x k patches.
    ``ref_outputs`` (n, t) come from the uncompressed model; ``cur_outputs``
    (n, t) from the layer under the compressed prefix, when available.
    """

    inputs: Array
    ref_outputs: Array
    cur_outputs: Array | None = None

    def __post_init__(self):
        inputs = linalg.float_array(self.inputs, "inputs")
        ref = linalg.float_array(self.ref_outputs, "ref_outputs")
        if inputs.ndim != 2 or ref.ndim != 2:
            raise ValueError("inputs and ref_outputs must be 2-D")
        if inputs.shape[0] != ref.shape[0]:
            raise ValueError(
                f"row mismatch: {inputs.shape[0]} patches vs {ref.shape[0]} reference rows"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "ref_outputs", ref)
        if self.cur_outputs is not None:
            object.__setattr__(self, "cur_outputs", _current(self.cur_outputs, ref))
        if inputs.shape[0] < ref.shape[1]:
            warnings.warn(
                f"batch has fewer samples ({inputs.shape[0]}) than output channels "
                f"({ref.shape[1]}); fits will be underdetermined",
                stacklevel=3,  # past the dataclass __init__, to the line that built the batch
            )

    @property
    def y_mean(self) -> Array:
        return self.ref_outputs.mean(axis=0)

    @property
    def z_mean(self) -> Array:
        if self.cur_outputs is None:
            raise ValueError("batch has no current outputs")
        return self.cur_outputs.mean(axis=0)


def _current(cur, ref: Array) -> Array:
    """Current responses ``cur`` as a checked array of ``ref``'s shape."""
    cur = linalg.float_array(cur, "cur_outputs")
    if cur.shape != ref.shape:
        raise ValueError(f"cur_outputs shape {cur.shape} != ref shape {ref.shape}")
    return cur


def sample_patches(maps, per_image: int, k: int, seed: int = 0) -> PatchBatch:
    """Sample ``per_image`` k x k patches per feature map at random locations.

    ``maps`` is a sequence of ``(input_map, ref_output_map)`` pairs with equal
    spatial dims.  Patches are centered on uniformly drawn locations and
    zero-padded at the borders; the reference output vector is read at the
    same location.  Fixed seed gives a byte-identical batch.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("no feature maps to sample from")
    per_image = linalg.integer(per_image, "per_image", 1)
    k = linalg.integer(k, "k")
    if k < 1 or k % 2 == 0:
        raise ValueError(f"patch size must be odd and >= 1, got {k}")
    d = (k - 1) // 2
    rng = np.random.default_rng(linalg.integer(seed, "seed", 0))
    rows = []
    refs = []
    for idx, (xin, yref) in enumerate(maps):
        xin = feature_map(xin)
        yref = feature_map(yref)
        s, h, w = xin.shape
        if yref.shape[1:] != (h, w):
            raise ValueError(f"map pair {idx}: spatial dims differ, {xin.shape} vs {yref.shape}")
        xpad = np.zeros((s, h + 2 * d, w + 2 * d))
        xpad[:, d : d + h, d : d + w] = xin
        xs = rng.integers(0, h, size=per_image)
        ys = rng.integers(0, w, size=per_image)
        patches = sliding_window_view(xpad, (k, k), axis=(1, 2))[:, xs, ys]  # (s, n, k, k)
        rows.append(patches.transpose(1, 0, 2, 3).reshape(per_image, s * k * k))
        refs.append(yref[:, xs, ys].T)
    return PatchBatch(inputs=np.concatenate(rows), ref_outputs=np.concatenate(refs))


def check_patch_width(batch: PatchBatch, kernel: Kernel4D) -> None:
    """Raise unless the batch's patches are ``kernel``'s inputs, s * k * k wide."""
    width = kernel.s * kernel.k * kernel.k
    if batch.inputs.shape[1] != width:
        raise ValueError(f"patch width {batch.inputs.shape[1]} does not match kernel {width}")


def attach_current_outputs(batch: PatchBatch, kernel: Kernel4D) -> PatchBatch:
    """Populate ``cur_outputs`` by running the layer on the stored patches.

    Computes z = W x + b per sample; this is the actual compressed-prefix
    response, not an approximation.  The batch's own arrays were checked
    when it was built, so only the responses are: they must be finite (the
    product of finite arrays can overflow) and of the reference outputs'
    shape.
    """
    check_patch_width(batch, kernel)
    cur = batch.inputs @ kernel.as_matrix().T
    if kernel.bias is not None:
        cur = cur + kernel.bias
    attached = copy.copy(batch)  # a copy runs no __post_init__: no second check or warning
    object.__setattr__(attached, "cur_outputs", _current(cur, batch.ref_outputs))
    return attached


@dataclass(frozen=True)
class RefinedLayer:
    """A data-optimized wrapper around a kernel or decomposed layer.

    ``M`` maps centered current responses to centered reference responses;
    ``y_mean`` and ``z_mean`` are the anchors such that
    ``predict(z) = M @ (z - z_mean) + y_mean``.  ``residual`` is in the
    units the producing method documents (summed discarded eigenvalues for
    ``data_svd``, Frobenius response error for the asymmetric fits).
    A fit has one bias, that of the layer it returns:
    ``y_mean - M @ (z_mean - b)`` for the bias ``b`` of ``wrapped``.
    """

    M: Array
    wrapped: Kernel4D | DecomposedLayer
    rank: int
    residual: float
    y_mean: Array
    z_mean: Array
    meta: dict = field(default_factory=dict)

    def predict(self, cur_outputs: Array) -> Array:
        """Map raw (n, t) current responses to refined response estimates."""
        cur = np.asarray(cur_outputs, dtype=np.float64)
        return (cur - self.z_mean) @ self.M.T + self.y_mean


def data_svd(kernel: Kernel4D, ref_outputs: Array, r: int) -> RefinedLayer:
    """PCA projection of the layer responses onto their top-``r`` subspace.

    M = U_r U_r^T from the eigendecomposition of the centered response
    covariance; the kernel factorizes as W1 = U_r (1x1, r->t) and
    W2 = U_r^T W (k x k, s->r).  ``residual`` is the summed discarded
    eigenvalues, i.e. the squared Frobenius fit error.
    """
    y = linalg.float_array(ref_outputs, "ref_outputs")
    if y.ndim != 2 or y.shape[1] != kernel.t:
        raise ValueError(f"ref_outputs must be (n, {kernel.t}), got {y.shape}")
    r = linalg.integer(r, "rank", 1, kernel.t)
    y_mean = y.mean(axis=0)
    yc = y - y_mean
    cov = yc.T @ yc
    vals, vecs = linalg.eig_sym(cov)
    vals = np.maximum(vals, 0.0)
    ur = vecs[:, :r]
    m = ur @ ur.T
    return RefinedLayer(
        M=m,
        wrapped=kernel,
        rank=r,
        residual=float(np.sum(vals[r:])),
        y_mean=y_mean,
        z_mean=y_mean,
        meta={"method": "data_svd", "eigenvalues": vals},
    )


def _returned_bias(layer: RefinedLayer) -> Array:
    """Bias of the returned layer ``M W``: ``y_mean - M (z_mean - b)``.

    ``b`` is the bias of ``layer.wrapped``, whose responses ``z = W x + b``
    were fitted, so that the returned layer computes ``predict(z)``.
    """
    b = layer.wrapped.bias
    return layer.y_mean - layer.M @ (layer.z_mean if b is None else layer.z_mean - b)


def refined_kernel(layer: RefinedLayer) -> Kernel4D:
    """Dense kernel M @ W of a refined layer wrapping a Kernel4D."""
    if not isinstance(layer.wrapped, Kernel4D):
        raise ValueError("refined layer does not wrap a dense kernel")
    k4 = layer.wrapped
    data = (layer.M @ k4.as_matrix()).reshape(k4.t, k4.s, k4.k, k4.k)
    return Kernel4D(data, bias=_returned_bias(layer))


def weight_factors(layer: RefinedLayer) -> tuple[Array, Array]:
    """Two-layer split (W1: 1x1 r->t, W2: k x k s->r) of a refined kernel.

    Uses the rank-``r`` split of M, ``U_r`` and ``S_r V_r^T``: W1 = U_r (t, r),
    W2 = S_r V_r^T times the kernel matrix (r, s*k*k).
    """
    if not isinstance(layer.wrapped, Kernel4D):
        raise ValueError("refined layer does not wrap a dense kernel")
    u, rest = _split(layer.M, layer.rank)
    return u, rest @ layer.wrapped.as_matrix()


def refined_layer(layer: RefinedLayer) -> DecomposedLayer:
    """The ``weight_svd`` layer of a refined layer wrapping a Kernel4D: the
    :func:`weight_factors` split as w1 = S_r V_r^T W (k x k, s -> r) and
    w2 = U_r^T (1x1, r -> t), with the bias of :func:`refined_kernel`.  It
    reconstructs ``M W``; r must be within the ``weight_svd`` rank limit."""
    u, right = weight_factors(layer)  # (t, r), (r, s*k*k)
    k4, r = layer.wrapped, layer.rank
    check_ranks("weight_svd", k4.s, k4.t, k4.k, (r,))
    factors = (right.reshape(r, k4.s, k4.k, k4.k).transpose(2, 3, 1, 0), u.T)
    return replace(_layer("weight_svd", k4, (r,), factors), bias=_returned_bias(layer))


def asym_data_svd(
    batch: PatchBatch, kernel: Kernel4D | DecomposedLayer, r: int, eps: float | None = None
) -> RefinedLayer:
    """Reduced-rank fit of reference responses from compressed-prefix responses.

    Solves ``min ||Yc - M Zc||_F`` over rank-``r`` M on centered data, which
    absorbs the error the compressed prefix introduced.  ``residual`` is the
    Frobenius error of that fit.
    """
    if batch.cur_outputs is None:
        raise ValueError("batch has no current outputs; call attach_current_outputs first")
    r = linalg.integer(r, "rank", 1, batch.ref_outputs.shape[1])
    y_mean = batch.y_mean
    z_mean = batch.z_mean
    yc = (batch.ref_outputs - y_mean).T
    zc = (batch.cur_outputs - z_mean).T
    rrr = linalg.reduced_rank_regression(yc, zc, r, eps=eps)
    return RefinedLayer(
        M=rrr.M,
        wrapped=kernel,
        rank=r,
        residual=rrr.residual,
        y_mean=y_mean,
        z_mean=z_mean,
        meta={"method": "asym_data_svd"},
    )


def _relu(a: Array) -> Array:
    return np.maximum(a, 0.0)


def relu_z_step(ref: Array, anchor: Array, lam: float) -> Array:
    """Elementwise minimizer of ``(relu(y) - relu(z))^2 + lam*(z - a)^2``.

    Evaluated by comparing the two branch candidates: the nonnegative
    stationary point clamped to >= 0, and the best nonpositive value
    min(a, 0); the lower objective wins (ties go to the nonnegative branch).
    """
    ry = _relu(ref)
    z_pos = np.maximum((ry + lam * anchor) / (1.0 + lam), 0.0)
    obj_pos = (ry - z_pos) ** 2 + lam * (z_pos - anchor) ** 2
    z_neg = np.minimum(anchor, 0.0)
    obj_neg = ry**2 + lam * (z_neg - anchor) ** 2
    return np.where(obj_pos <= obj_neg, z_pos, z_neg)


def relu_asym(
    batch: PatchBatch,
    kernel: Kernel4D,
    r: int,
    lambda_schedule=DEFAULT_LAMBDA_SCHEDULE,
    max_outer: int = 2,
    eps: float | None = None,
) -> RefinedLayer:
    """Rank-``r`` refinement that matches responses after a ReLU.

    Alternates an analytic elementwise Z-step with a reduced-rank (M, b)
    fit to the auxiliary variable, over an increasing penalty schedule.
    Every fit regresses on the same centered current responses, which are
    checked and whitened once per call, at the first fit
    (:func:`convcompress.linalg.rrr_fitter`).
    At fixed penalty the relaxed objective is nonincreasing across steps;
    the trace is recorded in ``meta["objective_trace"]``.
    """
    if batch.cur_outputs is None:
        raise ValueError("batch has no current outputs; call attach_current_outputs first")
    lambda_schedule = tuple(float(l) for l in lambda_schedule)
    if not lambda_schedule or not all(0 < l < math.inf for l in lambda_schedule):
        raise ValueError("lambda schedule must be nonempty and positive")
    max_outer = linalg.integer(max_outer, "max_outer", 0)
    y_raw = batch.ref_outputs
    z_hat = batch.cur_outputs
    ry = _relu(y_raw)
    z_hat_mean = z_hat.mean(axis=0)
    fit_m = linalg.rrr_fitter((z_hat - z_hat_mean).T, r, eps=eps)

    def fit(target: Array) -> tuple[Array, Array, Array]:
        """M, b and the anchor ``z_hat @ M.T + b`` fitted to ``target``."""
        t_mean = target.mean(axis=0)
        m = fit_m((target - t_mean).T)
        b = t_mean - m @ z_hat_mean
        return m, b, z_hat @ m.T + b

    m, b, anchor = fit(y_raw)
    trace = []
    for lam in lambda_schedule:
        for _ in range(max_outer):
            z_aux = relu_z_step(y_raw, anchor, lam)
            fit_term = np.sum((ry - _relu(z_aux)) ** 2)
            trace.append((lam, float(fit_term + lam * np.sum((z_aux - anchor) ** 2))))
            m, b, anchor = fit(z_aux)
            trace.append((lam, float(fit_term + lam * np.sum((z_aux - anchor) ** 2))))
    residual = float(np.linalg.norm(ry - _relu(anchor)))
    return RefinedLayer(
        M=m,
        wrapped=kernel,
        rank=r,
        residual=residual,
        # anchor chosen so predict() reproduces the optimized map M z + b
        y_mean=b + m @ z_hat_mean,
        z_mean=z_hat_mean,
        meta={
            "method": "relu_asym",
            "objective_trace": trace,
            "lambda_schedule": lambda_schedule,
        },
    )


def asym3d(
    kernel: Kernel4D, batch: PatchBatch, r_s: int, r_d: int, eps: float | None = None
) -> DecomposedLayer:
    """Double decomposition: spatial SVD, then a data-optimized channel cut.

    The kernel is first split vertical-then-horizontal at rank ``r_s``; the
    rank-``r_d`` :func:`asym_data_svd` fit from the decomposed responses to
    the reference responses is factored into the last two stages.  The
    result runs as a k x 1 filter (r_s outputs), a 1 x k filter (r_d
    outputs) and a 1 x 1 layer (t outputs).
    """
    check_ranks("asym3d", kernel.s, kernel.t, kernel.k, (r_s, r_d))
    sp = spatial_svd(kernel, r_s, order="vh")
    res = asym_data_svd(attach_current_outputs(batch, reconstruct(sp)), sp, r_d, eps=eps)
    u, rest = _split(res.M, r_d)  # M = U_d (S_d V_d^T), U_d (t, r_d)
    wh = np.einsum("dt,rxt->rxd", rest, sp.factors["wh"])
    layer = _layer("asym3d", kernel, (r_s, r_d), (sp.factors["wv"], wh, u.T),
                   method="asym3d", fit_residual=res.residual)
    return replace(layer, bias=_returned_bias(res))


def spatial_refine(
    layer: DecomposedLayer, batch: PatchBatch, eps: float | None = None
) -> RefinedLayer:
    """Full-rank data refinement of a spatial-SVD layer's second factor.

    Fits an unconstrained map M from the decomposed responses to the
    reference responses and folds it into the second (output-side) factor,
    with the bias of :func:`refined_kernel`; the architecture and MAC count
    are unchanged and the batch residual cannot increase.
    """
    if layer.method != "spatial_svd":
        raise ValueError(f"spatial_refine needs a spatial_svd layer, got {layer.method!r}")
    batch = attach_current_outputs(batch, reconstruct(layer))
    y_mean = batch.y_mean
    z_mean = batch.z_mean
    yc = (batch.ref_outputs - y_mean).T
    zc = (batch.cur_outputs - z_mean).T
    m = linalg.ridge_solve(yc, zc, eps=eps)
    second_name = list(layer.layout.stages)[1]
    new_second = np.einsum("ut,rxt->rxu", m, layer.factors[second_name])
    res = RefinedLayer(
        M=m,
        wrapped=layer,
        rank=layer.t,
        residual=float(np.linalg.norm(yc - m @ zc)),
        y_mean=y_mean,
        z_mean=z_mean,
        meta={"method": "spatial_refine"},
    )
    refined = with_factors(layer, **{second_name: new_second})
    refined = replace(refined, bias=_returned_bias(res), meta={**layer.meta, "refined": True})
    return replace(res, wrapped=refined)
