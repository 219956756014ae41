"""Input-channel pruning: lasso selection with least-squares refit,
plus a data-free magnitude baseline.

The lasso path follows the two-step scheme: per-channel response features
are built from Frobenius-normalized kernel slices, a coordinate-descent
lasso picks the surviving channels (the penalty is searched down from
where every coefficient is zero until the sparsity target fails, then
bisected to the smallest feasible value), and the kept channels are refit
by ordinary least squares.

Patches and responses are centred first, so neither the lasso nor the
refit has to explain a bias: the refit layer's bias is
``y_mean - W x_mean``, as in :mod:`dataopt`.  The features' Gram matrix
and correlations are formed and checked once per call
(:func:`linalg.lasso_solver`), and each lasso solve of the penalty search
is warm-started from the previous solve's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .kernel import Array, Kernel4D


@dataclass(frozen=True)
class PruneResult:
    """Outcome of pruning input channels of one layer.

    ``beta`` has one entry per original channel, zero exactly on the
    dropped ones (surviving scales are absorbed into the refit weights, so
    kept entries are 1).  ``refit_kernel`` has ``len(kept)`` input channels.
    For the magnitude baseline ``residual`` is the weight norm removed;
    for the lasso path it is the response error of ``refit_kernel``
    (bias included) on the fitting batch.  The lasso path also reports
    the penalty ``lam`` it selected with, the number of lasso ``solves``
    of its penalty search, their total coordinate ``sweeps`` and whether
    every solve ``converged``; the magnitude baseline runs no solver.
    """

    beta: Array
    kept: tuple[int, ...]
    refit_kernel: Kernel4D
    residual: float
    lam: float | None = None
    solves: int = 0
    sweeps: int = 0
    converged: bool = True

    @property
    def s_prime(self) -> int:
        return len(self.kept)


def _channel_features(x: Array, kernel: Kernel4D) -> Array:
    """Per-channel response features: column i is vec(X_i @ Wn_i^T).

    Kernel slices are Frobenius-normalized; all-zero slices give an
    all-zero column (the lasso then never selects that channel).
    """
    w = kernel.data.reshape(kernel.t, kernel.s, -1).transpose(1, 2, 0)  # (s, k*k, t)
    norms = np.linalg.norm(w, axis=(1, 2))
    wn = w / np.where(norms > 0.0, norms, 1.0)[:, None, None]
    return np.matmul(x.transpose(1, 0, 2), wn).transpose(1, 2, 0).reshape(-1, kernel.s)


def channel_prune(
    kernel: Kernel4D,
    x: Array,
    y: Array,
    s_prime: int,
) -> PruneResult:
    """Select ``s_prime`` input channels by lasso and refit the kept ones.

    ``x`` is (n, s, k*k): per-sample, per-channel flattened patches;
    ``y`` is the (n, t) response matrix of the uncompressed layer.
    The penalty search starts at the first point of the grid 1e-4 * 2**k
    at or above max|c| (c: the features' correlations with the centred
    responses), where every coefficient is zero, halves down the grid until
    more than ``s_prime`` coefficients survive, then bisects 20 steps to the
    smallest feasible penalty; a problem feasible at 1e-4 keeps 1e-4.
    Returns after the least-squares refit of the centred data; the refit
    kernel carries the fitted bias.
    """
    t, s, k = kernel.t, kernel.s, kernel.k
    s_prime = linalg.integer(s_prime, "s_prime", 1, s - 1)
    x = linalg.float_array(x, "x")
    y = linalg.float_array(y, "y")
    if x.ndim != 3 or x.shape[1] != s or x.shape[2] != k * k:
        raise ValueError(f"x must be (n, {s}, {k * k}), got {x.shape}")
    if y.shape != (x.shape[0], t):
        raise ValueError(f"y must be ({x.shape[0]}, {t}), got {y.shape}")
    if not np.any(x):
        raise ValueError("input patches are all zero")

    x_mean, y_mean = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - x_mean, y - y_mean
    feats = _channel_features(xc, kernel)
    gram, corr = feats.T @ feats, feats.T @ yc.ravel()
    runs: list[linalg.LassoResult] = []
    lasso = linalg.lasso_solver(gram, corr)

    def solve(lam: float) -> Array:
        runs.append(lasso(lam, runs[-1].beta if runs else None))
        return runs[-1].beta

    # the grid 1e-4 * 2**k by exact doublings, up to its first point at or
    # above max|c|; it is listed, not halved, as that point may be inf
    grid, lam_max = [1e-4], np.abs(corr).max()
    while grid[-1] < lam_max:
        grid.append(2.0 * grid[-1])
    lam = grid.pop()
    beta = solve(lam)
    while grid:
        lo = grid.pop()
        beta_lo = solve(lo)
        if np.count_nonzero(beta_lo) <= s_prime:
            lam, beta = lo, beta_lo
            continue
        for _ in range(20):
            mid = 0.5 * (lo + lam)
            beta_mid = solve(mid)
            if np.count_nonzero(beta_mid) <= s_prime:
                lam, beta = mid, beta_mid
            else:
                lo = mid
        break
    kept = tuple(int(i) for i in np.flatnonzero(beta))
    if not kept:
        raise RuntimeError("lasso removed every channel; raise s_prime")

    design = xc[:, kept, :].reshape(x.shape[0], len(kept) * k * k)
    try:
        refit = linalg.ridge_solve(yc.T, design.T, eps=0.0)  # (t, len(kept)*k*k)
    except ValueError:
        refit = linalg.ridge_solve(yc.T, design.T)  # degenerate design: tiny ridge
    bias = y_mean - refit @ x_mean[list(kept)].ravel()
    refit_kernel = Kernel4D(refit.reshape(t, len(kept), k, k), bias=bias)
    residual = float(np.linalg.norm(yc - design @ refit.T))
    beta_out = np.zeros(s)
    beta_out[list(kept)] = 1.0
    return PruneResult(
        beta=beta_out, kept=kept, refit_kernel=refit_kernel, residual=residual, lam=lam,
        solves=len(runs), sweeps=sum(r.sweeps for r in runs),
        converged=all(r.converged for r in runs),
    )


def magnitude_prune(kernel: Kernel4D, s_prime: int) -> PruneResult:
    """Keep the ``s_prime`` input channels with largest Frobenius norm.

    No data, no refit; ties break toward the lower channel index.
    ``residual`` is the Frobenius norm of the removed weights.
    """
    s = kernel.s
    s_prime = linalg.integer(s_prime, "s_prime", 1, s)
    norms = np.linalg.norm(kernel.data.reshape(kernel.t, s, -1), axis=(0, 2))
    order = sorted(range(s), key=lambda i: (-norms[i], i))
    kept = tuple(sorted(order[:s_prime]))
    dropped = [i for i in range(s) if i not in kept]
    residual = float(np.sqrt(np.sum(norms[dropped] ** 2))) if dropped else 0.0
    beta = np.zeros(s)
    beta[list(kept)] = 1.0
    refit_kernel = Kernel4D(kernel.data[:, list(kept)].copy(), bias=kernel.bias)
    return PruneResult(beta=beta, kept=kept, refit_kernel=refit_kernel, residual=residual)
