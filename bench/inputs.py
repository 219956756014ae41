"""Seeded benchmark inputs and the numpy references outputs are checked against.

Nothing in this module calls convcompress.  The model, the patch batches,
the forward-pass factor sets, the convolution, the reconstruction of every
factor layout and the MAC count are the benchmark's own, so a check never
compares the library with itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

K = 3
#: Ratio of consecutive singular values of a "decay" layer's weight matrix,
#: the shape of a trained kernel's spectrum.  "flat" layers are plain
#: Gaussian, so the iterative solvers run to their caps on them.
DECAY = 0.85
BIAS_STD = 0.1
#: Patch batches: 20 feature maps x 25 patches, for fitting and for scoring.
BATCH_MAPS = 20
PATCHES_PER_MAP = 25
#: Standard deviation of the noise that stands in for a compressed prefix:
#: batch inputs are the perturbed activations, reference outputs come from
#: the clean ones.
PREFIX_NOISE = 0.1


@dataclass(frozen=True)
class LayerSpec:
    name: str
    t: int
    s: int
    hw: int
    spectrum: str


#: Channel widths stop at 24 so that one pass of the solver workloads takes
#: a few seconds on one core and a run holds several passes.
LAYERS = (
    LayerSpec("conv1", 8, 8, 64, "flat"),
    LayerSpec("conv2", 16, 8, 32, "decay"),
    LayerSpec("conv3", 16, 16, 16, "decay"),
    LayerSpec("conv4", 24, 16, 16, "decay"),
)


def compress_ranks(method: str, spec: LayerSpec) -> tuple[int, ...]:
    """The rank rule: fixed per method, never tuned per seed or layer."""
    t, s = spec.t, spec.s
    return {
        "weight-svd": (t // 2,),
        "spatial-svd": (t // 2,),
        "cp": (s // 4,),
        "tucker": (s // 2, t // 2),
        "tt": (s // 2, s // 2, t // 2),
    }[method]


def dataopt_ranks(mode: str, spec: LayerSpec) -> tuple[int, ...]:
    return (spec.t // 2, spec.t // 2) if mode == "asym3d" else (spec.t // 2,)


def prune_keep(spec: LayerSpec) -> int:
    return spec.s // 2


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent stream per purpose, so every workload sees the same model."""
    return np.random.default_rng([seed, *stream])


def make_kernel(spec: LayerSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(t, s, k, k) weights and (t,) bias of one layer."""
    n = spec.s * K * K
    if spec.spectrum == "flat":
        w = rng.normal(size=(spec.t, n)) / np.sqrt(n)
    else:
        r = min(spec.t, n)
        u, _ = np.linalg.qr(rng.normal(size=(spec.t, r)))
        v, _ = np.linalg.qr(rng.normal(size=(n, r)))
        w = (u * DECAY ** np.arange(r)) @ v.T
    return w.reshape(spec.t, spec.s, K, K), BIAS_STD * rng.normal(size=spec.t)


def make_model(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {spec.name: make_kernel(spec, rng_for(seed, 0, i)) for i, spec in enumerate(LAYERS)}


def activations(rng: np.random.Generator, s: int, hw: int) -> np.ndarray:
    """A post-ReLU (s, hw, hw) feature map."""
    return np.maximum(rng.normal(size=(s, hw, hw)), 0.0)


def windows(x: np.ndarray, k: int = K) -> np.ndarray:
    """(c, h, w, k, k) zero-padded k x k neighbourhoods of a (c, h, w) map."""
    d = k // 2
    xp = np.pad(x, ((0, 0), (d, d), (d, d)))
    return np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))


def conv(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stride-1, zero-padded, bias-free convolution (t, s, k, k) x (s, h, w)."""
    return np.einsum("tsab,shwab->thw", w, windows(x, w.shape[2]), optimize=True)


def make_batch(
    spec: LayerSpec, w: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Patch batch ``(inputs (n, s*k*k), ref_outputs (n, t))``.

    Inputs are channel-major flattened patches of the prefix-perturbed
    maps; reference outputs are the clean layer's responses, bias included,
    at the same positions.
    """
    rows, refs = [], []
    for _ in range(BATCH_MAPS):
        x = activations(rng, spec.s, spec.hw)
        x_hat = x + PREFIX_NOISE * rng.normal(size=x.shape)
        y = conv(w, x) + b[:, None, None]
        pos = rng.integers(0, spec.hw, size=(PATCHES_PER_MAP, 2))
        rows.append(windows(x_hat)[:, pos[:, 0], pos[:, 1]].transpose(1, 0, 2, 3).reshape(len(pos), -1))
        refs.append(y[:, pos[:, 0], pos[:, 1]].T)
    return np.concatenate(rows), np.concatenate(refs)


# ---------------------------------------------------------------------------
# Factor layouts of convcompress.decomp, evaluated independently.
# ---------------------------------------------------------------------------

RECONSTRUCT = {
    "weight_svd": ("xysr,rt->tsxy", ("w1", "w2")),
    "spatial_svd/hv": ("sxr,ryt->tsxy", ("wh", "wv")),
    "spatial_svd/vh": ("syr,rxt->tsxy", ("wv", "wh")),
    "cp": ("sr,yr,xr,tr->tsxy", ("ws", "wy", "wx", "wt")),
    "tucker": ("xyab,sa,tb->tsxy", ("core", "w1", "w2")),
    "tt": ("sa,axb,byc,ct->tsxy", ("w1", "w2", "w3", "w4")),
    "asym3d": ("syr,rxd,dt->tsxy", ("wv", "wh", "wp")),
}


def reconstruct(method: str, factors: dict, order: str = "hv") -> np.ndarray:
    key = f"{method}/{order}" if method == "spatial_svd" else method
    spec, names = RECONSTRUCT[key]
    return np.einsum(spec, *(factors[n] for n in names), optimize=True)


def staged_macs(factors: dict, h: int, w: int) -> int:
    """MACs of a staged layer on an (h, w) map.

    Every stage is a stride-1 same-size convolution, so each stored weight
    is used once per output pixel.
    """
    return h * w * sum(int(np.prod(f.shape)) for f in factors.values())


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


# ---------------------------------------------------------------------------
# Forward-workload factor sets: truncations computed with numpy's LAPACK,
# so set-up runs none of the library's solvers.
# ---------------------------------------------------------------------------


def _top(m: np.ndarray, r: int, carry: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Rank-r split ``m ~ left @ right``.

    The singular values go to the left factor, or with ``carry`` to the
    right one, which a sequential split truncates next.
    """
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    if carry:
        return u[:, :r], sv[:r, None] * vt[:r]
    return u[:, :r] * sv[:r], vt[:r]


def spatial_factors(spec: LayerSpec, w: np.ndarray) -> tuple[dict, tuple[int, ...]]:
    """Spatial-SVD factors ("hv" order) at the rank rule, and the ranks."""
    t, s, k, _ = w.shape
    ranks = compress_ranks("spatial-svd", spec)
    first, second = _top(w.transpose(1, 2, 0, 3).reshape(s * k, t * k), ranks[0])
    return {"wh": first.reshape(s, k, -1), "wv": second.reshape(-1, t, k).transpose(0, 2, 1)}, ranks


def forward_factors(spec: LayerSpec, w: np.ndarray) -> dict[str, tuple[dict, tuple[int, ...]]]:
    """Factor sets at the rank rule: ``{method: (factors, ranks)}``.

    spatial_svd uses the default "hv" order.
    """
    t, s, k, _ = w.shape
    out = {}

    ranks = compress_ranks("weight-svd", spec)
    right, left = _top(w.reshape(t, s * k * k).T, ranks[0])  # (s*k*k, r), (r, t)
    out["weight_svd"] = ({"w1": right.reshape(s, k, k, -1).transpose(1, 2, 0, 3), "w2": left}, ranks)

    out["spatial_svd"] = spatial_factors(spec, w)

    # CP: each leading weight-SVD term made rank-1 over (s, x, y).
    ranks = compress_ranks("cp", spec)
    r = ranks[0]
    u, sv, vt = np.linalg.svd(w.reshape(t, s * k * k), full_matrices=False)
    ws, wx, wy = np.empty((s, r)), np.empty((k, r)), np.empty((k, r))
    for i in range(r):
        a, bt = _top(vt[i].reshape(s, k * k), 1)
        c, dt = _top(bt.reshape(k, k), 1)
        ws[:, i], wx[:, i], wy[:, i] = a[:, 0], c[:, 0], dt[0]
    out["cp"] = ({"ws": ws, "wy": wy, "wx": wx, "wt": u[:, :r] * sv[:r]}, ranks)

    # Tucker: truncated HOSVD of the channel modes.
    r1, r2 = compress_ranks("tucker", spec)
    u1 = np.linalg.svd(w.transpose(1, 0, 2, 3).reshape(s, -1), full_matrices=False)[0][:, :r1]
    u2 = np.linalg.svd(w.reshape(t, -1), full_matrices=False)[0][:, :r2]
    core = np.einsum("tsxy,sa,tb->xyab", w, u1, u2, optimize=True)
    out["tucker"] = ({"w1": u1, "core": core, "w2": u2}, (r1, r2))

    # Tensor train: sequential truncated SVDs over (s, x, y, t).
    r1, r2, r3 = compress_ranks("tt", spec)
    w1, rest = _top(w.transpose(1, 2, 3, 0).reshape(s, k * k * t), r1, carry=True)
    w2, rest = _top(rest.reshape(r1 * k, k * t), r2, carry=True)
    w3, w4 = _top(rest.reshape(r2 * k, t), r3, carry=True)
    out["tt"] = ({"w1": w1, "w2": w2.reshape(r1, k, r2), "w3": w3.reshape(r2, k, r3), "w4": w4}, (r1, r2, r3))

    # Asym3D: vertical-first spatial split, then an output-channel cut.
    rs, rd = dataopt_ranks("asym3d", spec)
    wv, wh_full = _top(w.transpose(1, 3, 0, 2).reshape(s * k, t * k), rs, carry=True)
    wh, wp = _top(wh_full.reshape(rs, t, k).transpose(0, 2, 1).reshape(rs * k, t), rd)
    out["asym3d"] = ({"wv": wv.reshape(s, k, rs), "wh": wh.reshape(rs, k, rd), "wp": wp}, (rs, rd))
    return out
