"""Independent oracle implementations used by the tests.

Everything here is written from scratch against the mathematical
definitions, deliberately *not* importing the production code paths it
is used to check (plain loops, brute-force search, textbook formulas).
"""

from __future__ import annotations

import numpy as np


def naive_conv(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sliding-window convolution as an explicit triple loop.

    ``weights`` is (t, s, k, k); zero padding keeps the spatial size.
    """
    t, s, k, _ = weights.shape
    d = (k - 1) // 2
    _, h, w = x.shape
    out = np.zeros((t, h, w))
    for it in range(t):
        for ix in range(h):
            for iy in range(w):
                acc = 0.0
                for i_s in range(s):
                    for ixp in range(ix - d, ix + d + 1):
                        for iyp in range(iy - d, iy + d + 1):
                            if 0 <= ixp < h and 0 <= iyp < w:
                                acc += (
                                    weights[it, i_s, ixp - ix + d, iyp - iy + d]
                                    * x[i_s, ixp, iyp]
                                )
                out[it, ix, iy] = acc
    return out


def jacobi_eigvals(a: np.ndarray, sweeps: int = 100, tol: float = 1e-13) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by classical Jacobi rotations.

    Self-contained reference used to cross-check singular values via
    eig(A^T A); returns eigenvalues sorted descending.
    """
    m = np.array(a, dtype=np.float64)
    n = m.shape[0]
    scale = max(1.0, np.max(np.abs(m)))
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(m[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(m[p, q]) <= tol * scale:
                    continue
                theta = 0.5 * np.arctan2(2.0 * m[p, q], m[q, q] - m[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))[::-1]


def cp_reconstruct_naive(ws, wy, wx, wt) -> np.ndarray:
    """Sum of rank-1 outer products evaluated with explicit loops.

    Returns the (t, s, k, k) kernel built from (s,r), (k,r), (k,r), (t,r)
    factors of the (s, y, x, t)-ordered tensor.
    """
    s, r = ws.shape
    k = wy.shape[0]
    t = wt.shape[0]
    out = np.zeros((t, s, k, k))
    for it in range(t):
        for i_s in range(s):
            for ix in range(k):
                for iy in range(k):
                    acc = 0.0
                    for ir in range(r):
                        acc += ws[i_s, ir] * wy[iy, ir] * wx[ix, ir] * wt[it, ir]
                    out[it, i_s, ix, iy] = acc
    return out


def tucker_reconstruct_naive(core, w1, w2) -> np.ndarray:
    """Partial Tucker sum with explicit loops -> (t, s, k, k) kernel."""
    k = core.shape[0]
    s, r1 = w1.shape
    t, r2 = w2.shape
    out = np.zeros((t, s, k, k))
    for it in range(t):
        for i_s in range(s):
            for ix in range(k):
                for iy in range(k):
                    acc = 0.0
                    for a in range(r1):
                        for b in range(r2):
                            acc += core[ix, iy, a, b] * w1[i_s, a] * w2[it, b]
                    out[it, i_s, ix, iy] = acc
    return out


def tt_reconstruct_naive(w1, w2, w3, w4) -> np.ndarray:
    """Tensor-train chain product with explicit loops -> (t, s, k, k)."""
    s, r1 = w1.shape
    k = w2.shape[1]
    r2 = w2.shape[2]
    r3 = w3.shape[2]
    t = w4.shape[1]
    out = np.zeros((t, s, k, k))
    for it in range(t):
        for i_s in range(s):
            for ix in range(k):
                for iy in range(k):
                    acc = 0.0
                    for a in range(r1):
                        for b in range(r2):
                            for c in range(r3):
                                acc += w1[i_s, a] * w2[a, ix, b] * w3[b, iy, c] * w4[c, it]
                    out[it, i_s, ix, iy] = acc
    return out


def best_rank1_response_residual(y, z, trials: int, seed: int) -> float:
    """Smallest ||Y - c*u v^T Z||_F over random rank-1 candidates.

    u and v are random unit directions; the scale c is optimal for each.
    """
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(trials):
        u = rng.normal(size=y.shape[0])
        u /= np.linalg.norm(u)
        v = rng.normal(size=z.shape[0])
        v /= np.linalg.norm(v)
        base = np.outer(u, v) @ z
        denom = float(np.sum(base * base))
        c = float(np.sum(y * base)) / denom if denom > 0 else 0.0
        best = min(best, float(np.linalg.norm(y - c * base)))
    return best


def best_rank1_projector_residual(yc, trials: int, seed: int) -> float:
    """Smallest sum of squared residuals over random rank-1 projectors.

    Candidates are u u^T for random unit u applied to centered rows of yc.
    """
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(trials):
        u = rng.normal(size=yc.shape[1])
        u /= np.linalg.norm(u)
        proj = yc - np.outer(yc @ u, u)
        best = min(best, float(np.sum(proj * proj)))
    return best


def relu_zstep_grid(y: float, a: float, lam: float, lo=-5.0, hi=5.0, step=1e-4) -> float:
    """Grid-search minimizer of (relu(y) - relu(z))^2 + lam*(z - a)^2."""
    zs = np.arange(lo, hi, step)
    ry = max(y, 0.0)
    obj = (ry - np.maximum(zs, 0.0)) ** 2 + lam * (zs - a) ** 2
    return float(zs[np.argmin(obj)])


def lasso_cd_sample_space(x, y, lam: float, tol: float = 1e-8, max_sweeps: int = 10000):
    """Lasso ``argmin 0.5*||y - X b||^2 + lam*||b||_1`` by cyclic coordinate
    descent on the residual vector, one soft-threshold update per column.

    Each update costs a pass over all n rows; zero columns keep a zero
    coefficient; stops when a sweep changes no coefficient by more than tol.
    """
    x = np.asarray(x, dtype=np.float64)
    resid = np.asarray(y, dtype=np.float64).ravel().copy()
    n, p = x.shape
    beta = np.zeros(p)
    for _ in range(max_sweeps):
        max_change = 0.0
        for j in range(p):
            col_sq = 0.0
            rho = 0.0
            for i in range(n):
                col_sq += x[i, j] * x[i, j]
                rho += x[i, j] * resid[i]
            if col_sq == 0.0:
                continue
            old = beta[j]
            rho += col_sq * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq
            for i in range(n):
                resid[i] += x[i, j] * (old - new)
            beta[j] = new
            max_change = max(max_change, abs(new - old))
        if max_change <= tol:
            break
    return beta
