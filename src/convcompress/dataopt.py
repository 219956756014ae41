"""Data-optimized compression: refine a layer against sampled activations.

These methods need no labels and no backpropagation.  They operate on a
:class:`PatchBatch`: flattened input patches paired with reference outputs
of the uncompressed model and, for the asymmetric variants, the outputs the
layer produces when fed activations from an already-compressed prefix.

All fits work on explicitly centered responses.  A fitted layer predicts

    y_hat = M @ (z - z_mean) + y_mean

which as an affine map of raw responses has bias ``y_mean - M @ z_mean``.
The ``new_bias`` field of :class:`RefinedLayer` keeps the documented
mean-correction convention ``z_mean - M @ y_mean`` (the two coincide in the
symmetric case z = y); ``predict`` and all residuals use the centered form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .decomp import DecomposedLayer, reconstruct, spatial_svd, with_factors
from .kernel import Array, Kernel4D, feature_map

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
        inputs = np.asarray(self.inputs, dtype=np.float64)
        ref = np.asarray(self.ref_outputs, dtype=np.float64)
        if inputs.ndim != 2 or ref.ndim != 2:
            raise ValueError("inputs and ref_outputs must be 2-D")
        if inputs.shape[0] != ref.shape[0]:
            raise ValueError(
                f"row mismatch: {inputs.shape[0]} patches vs {ref.shape[0]} reference rows"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "ref_outputs", ref)
        if self.cur_outputs is not None:
            cur = np.asarray(self.cur_outputs, dtype=np.float64)
            if cur.shape != ref.shape:
                raise ValueError(f"cur_outputs shape {cur.shape} != ref shape {ref.shape}")
            object.__setattr__(self, "cur_outputs", cur)
        if inputs.shape[0] < ref.shape[1]:
            warnings.warn(
                f"batch has fewer samples ({inputs.shape[0]}) than output channels "
                f"({ref.shape[1]}); fits will be underdetermined",
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def y_mean(self) -> Array:
        return self.ref_outputs.mean(axis=0)

    @property
    def z_mean(self) -> Array:
        if self.cur_outputs is None:
            raise ValueError("batch has no current outputs")
        return self.cur_outputs.mean(axis=0)


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
    if per_image < 1:
        raise ValueError(f"per_image must be >= 1, got {per_image}")
    if k < 1 or k % 2 == 0:
        raise ValueError(f"patch size must be odd and >= 1, got {k}")
    d = (k - 1) // 2
    rng = np.random.default_rng(seed)
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
        for x0, y0 in zip(xs, ys):
            rows.append(xpad[:, x0 : x0 + k, y0 : y0 + k].ravel())
            refs.append(yref[:, x0, y0])
    return PatchBatch(inputs=np.array(rows), ref_outputs=np.array(refs))


def attach_current_outputs(batch: PatchBatch, kernel: Kernel4D) -> PatchBatch:
    """Populate ``cur_outputs`` by running the layer on the stored patches.

    Computes z = W x + b per sample; this is the actual compressed-prefix
    response, not an approximation.
    """
    w = kernel.as_matrix()
    if batch.inputs.shape[1] != w.shape[1]:
        raise ValueError(
            f"patch width {batch.inputs.shape[1]} does not match kernel {w.shape[1]}"
        )
    cur = batch.inputs @ w.T
    if kernel.bias is not None:
        cur = cur + kernel.bias
    return replace(batch, cur_outputs=cur)


@dataclass(frozen=True)
class RefinedLayer:
    """A data-optimized wrapper around a kernel or decomposed layer.

    ``M`` maps centered current responses to centered reference responses;
    ``y_mean`` and ``z_mean`` are the anchors such that
    ``predict(z) = M @ (z - z_mean) + y_mean``.  ``residual`` is in the
    units the producing method documents (summed discarded eigenvalues for
    ``data_svd``, Frobenius response error for the asymmetric fits).
    """

    M: Array
    new_bias: Array
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

    def functional_bias(self) -> Array:
        """Bias of the affine map ``z -> M z + b`` equivalent to predict."""
        return self.y_mean - self.M @ self.z_mean


def data_svd(kernel: Kernel4D, ref_outputs: Array, r: int) -> RefinedLayer:
    """PCA projection of the layer responses onto their top-``r`` subspace.

    M = U_r U_r^T from the eigendecomposition of the centered response
    covariance; the kernel factorizes as W1 = U_r (1x1, r->t) and
    W2 = U_r^T W (k x k, s->r).  ``residual`` is the summed discarded
    eigenvalues, i.e. the squared Frobenius fit error.
    """
    y = np.asarray(ref_outputs, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != kernel.t:
        raise ValueError(f"ref_outputs must be (n, {kernel.t}), got {y.shape}")
    if not 1 <= r <= kernel.t:
        raise ValueError(f"rank {r} out of range [1, {kernel.t}]")
    y_mean = y.mean(axis=0)
    yc = y - y_mean
    cov = yc.T @ yc
    vals, vecs = linalg.eig_sym(cov)
    vals = np.maximum(vals, 0.0)
    ur = vecs[:, :r]
    m = ur @ ur.T
    return RefinedLayer(
        M=m,
        new_bias=y_mean - m @ y_mean,
        wrapped=kernel,
        rank=r,
        residual=float(np.sum(vals[r:])),
        y_mean=y_mean,
        z_mean=y_mean,
        meta={"method": "data_svd", "eigenvalues": vals},
    )


def refined_kernel(layer: RefinedLayer) -> Kernel4D:
    """Dense kernel M @ W of a refined layer wrapping a Kernel4D."""
    if not isinstance(layer.wrapped, Kernel4D):
        raise ValueError("refined layer does not wrap a dense kernel")
    k4 = layer.wrapped
    data = (layer.M @ k4.as_matrix()).reshape(k4.t, k4.s, k4.k, k4.k)
    return Kernel4D(data, bias=layer.functional_bias())


def weight_factors(layer: RefinedLayer) -> tuple[Array, Array]:
    """Two-layer split (W1: 1x1 r->t, W2: k x k s->r) of a refined kernel.

    Uses the rank-``r`` SVD of M: W1 = left factor (t, r), W2 = right
    factor times the kernel matrix (r, s*k*k).
    """
    if not isinstance(layer.wrapped, Kernel4D):
        raise ValueError("refined layer does not wrap a dense kernel")
    res = linalg.svd(layer.M)
    u, s, v = res.truncate(layer.rank)
    return u, (s[:, None] * v.T) @ layer.wrapped.as_matrix()


def asym_data_svd(
    batch: PatchBatch, kernel: Kernel4D, r: int, eps: float | None = None
) -> RefinedLayer:
    """Reduced-rank fit of reference responses from compressed-prefix responses.

    Solves ``min ||Yc - M Zc||_F`` over rank-``r`` M on centered data, which
    absorbs the error the compressed prefix introduced.  ``residual`` is the
    Frobenius error of that fit.
    """
    if batch.cur_outputs is None:
        raise ValueError("batch has no current outputs; call attach_current_outputs first")
    t = batch.ref_outputs.shape[1]
    if not 1 <= r <= t:
        raise ValueError(f"rank {r} out of range [1, {t}]")
    y_mean = batch.y_mean
    z_mean = batch.z_mean
    yc = (batch.ref_outputs - y_mean).T
    zc = (batch.cur_outputs - z_mean).T
    rrr = linalg.reduced_rank_regression(yc, zc, r, eps=eps)
    return RefinedLayer(
        M=rrr.M,
        new_bias=z_mean - rrr.M @ y_mean,
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
    activation: str = "relu",
) -> RefinedLayer:
    """Rank-``r`` refinement that matches responses after a ReLU.

    Alternates an analytic elementwise Z-step with a reduced-rank (M, b)
    fit to the auxiliary variable, over an increasing penalty schedule.
    At fixed penalty the relaxed objective is nonincreasing across steps;
    the trace is recorded in ``meta["objective_trace"]``.
    """
    if activation != "relu":
        raise ValueError(f"only the ReLU activation is supported, got {activation!r}")
    if batch.cur_outputs is None:
        raise ValueError("batch has no current outputs; call attach_current_outputs first")
    lambda_schedule = tuple(float(l) for l in lambda_schedule)
    if not lambda_schedule or any(l <= 0 for l in lambda_schedule):
        raise ValueError("lambda schedule must be nonempty and positive")
    y_raw = batch.ref_outputs
    z_hat = batch.cur_outputs
    ry = _relu(y_raw)
    z_hat_mean = z_hat.mean(axis=0)
    zc_hat = (z_hat - z_hat_mean).T

    def fit(target: Array) -> tuple[Array, Array]:
        t_mean = target.mean(axis=0)
        rrr = linalg.reduced_rank_regression((target - t_mean).T, zc_hat, r, eps=eps)
        return rrr.M, t_mean - rrr.M @ z_hat_mean

    m, b = fit(y_raw)
    trace = []
    for lam in lambda_schedule:
        for _ in range(max_outer):
            anchor = z_hat @ m.T + b
            z_aux = relu_z_step(y_raw, anchor, lam)
            trace.append(
                (lam, float(np.sum((ry - _relu(z_aux)) ** 2) + lam * np.sum((z_aux - anchor) ** 2)))
            )
            m, b = fit(z_aux)
            anchor = z_hat @ m.T + b
            trace.append(
                (lam, float(np.sum((ry - _relu(z_aux)) ** 2) + lam * np.sum((z_aux - anchor) ** 2)))
            )
    pred = z_hat @ m.T + b
    residual = float(np.linalg.norm(ry - _relu(pred)))
    return RefinedLayer(
        M=m,
        new_bias=b,
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

    The kernel is first split vertical-then-horizontal at rank ``r_s``; a
    rank-``r_d`` regression from the decomposed responses to the reference
    responses is factored into the last two stages.  The result runs as a
    k x 1 filter (r_s outputs), a 1 x k filter (r_d outputs) and a 1 x 1
    layer (t outputs).
    """
    t = kernel.t
    if not 1 <= r_d <= t:
        raise ValueError(f"data rank {r_d} out of range [1, {t}]")
    sp = spatial_svd(kernel, r_s, order="vh")
    w_sp = reconstruct(sp).as_matrix()
    z = batch.inputs @ w_sp.T
    if kernel.bias is not None:
        z = z + kernel.bias
    y_mean = batch.y_mean
    z_mean = z.mean(axis=0)
    rrr = linalg.reduced_rank_regression(
        (batch.ref_outputs - y_mean).T, (z - z_mean).T, r_d, eps=eps
    )
    res = linalg.svd(rrr.M)
    u, sv, v = res.truncate(r_d)
    right = (sv[:, None] * v.T)  # (r_d, t), together with u: M = u @ right
    wh = np.einsum("dt,rxt->rxd", right, sp.factors["wh"])
    return DecomposedLayer(
        method="asym3d",
        factors={"wv": sp.factors["wv"], "wh": wh, "wp": u.T},
        ranks=(r_s, r_d),
        source_dims=(t, kernel.s, kernel.k),
        bias=y_mean - rrr.M @ z_mean,
        meta={"method": "asym3d", "fit_residual": rrr.residual},
    )


def spatial_refine(
    layer: DecomposedLayer, batch: PatchBatch, eps: float | None = None
) -> RefinedLayer:
    """Full-rank data refinement of a spatial-SVD layer's second factor.

    Fits an unconstrained map M from the decomposed responses to the
    reference responses and folds it into the second (output-side) factor;
    the architecture and MAC count are unchanged and the batch residual
    cannot increase.
    """
    if layer.method != "spatial_svd":
        raise ValueError(f"spatial_refine needs a spatial_svd layer, got {layer.method!r}")
    w_dec = reconstruct(layer).as_matrix()
    z = batch.inputs @ w_dec.T
    if layer.bias is not None:
        z = z + layer.bias
    y_mean = batch.y_mean
    z_mean = z.mean(axis=0)
    yc = (batch.ref_outputs - y_mean).T
    zc = (z - z_mean).T
    m = linalg.ridge_solve(yc, zc, eps=eps)
    second_name = list(layer.layout.stages)[1]
    new_second = np.einsum("ut,rxt->rxu", m, layer.factors[second_name])
    refined = with_factors(layer, **{second_name: new_second})
    refined = replace(refined, meta={**layer.meta, "refined": True})
    return RefinedLayer(
        M=m,
        new_bias=y_mean - m @ z_mean,
        wrapped=refined,
        rank=layer.t,
        residual=float(np.linalg.norm(yc - m @ zc)),
        y_mean=y_mean,
        z_mean=z_mean,
        meta={"method": "spatial_refine"},
    )
