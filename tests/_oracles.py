"""Independent oracle implementations used by the tests.

Everything here is written from scratch against the mathematical
definitions, deliberately *not* importing the production code paths it
is used to check (plain loops, brute-force search, textbook formulas).
The exceptions are ``psd_inverse_reference``, ``solve_gram``, the
``*_reference_loop`` and ``*_reference_fit`` functions,
``weight_factors_reference``, ``conv_shift_reference``,
``conv_flat_row_reference``, ``ranks_from_ratio_reference``,
``equal_acc_select_reference``, ``channel_prune_doubling_reference`` and
the hand-written stage views ``STAGE_VIEWS`` at the end: verbatim copies of
earlier solvers (the PSD inverse through ``eig_sym``), solver loops,
data-optimized fits and splits, two versions of the convolution primitive,
the hand-written bisections of the rank searches, the doubling penalty
search of the lasso prune and the per-method weight views of the staged
forwards, kept to pin the current code to them bit for bit (the
convolution to rounding against the shift-and-copy version).
They call the same ``linalg``, ``decomp``, ``kernel``, ``rankselect`` and
``pruning`` primitives the copies called.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from convcompress import linalg


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


def spatial_reconstruct_naive(first, second, order: str = "hv") -> np.ndarray:
    """Sum of separable rank-1 filters with explicit loops -> (t, s, k, k).

    ``first`` (s, k, r) filters the first spatial axis for order "hv" and
    the second for "vh"; ``second`` (r, k, t) filters the other one.
    """
    s, k, r = first.shape
    t = second.shape[2]
    out = np.zeros((t, s, k, k))
    for it in range(t):
        for i_s in range(s):
            for ix in range(k):
                for iy in range(k):
                    a, b = (ix, iy) if order == "hv" else (iy, ix)
                    acc = 0.0
                    for ir in range(r):
                        acc += first[i_s, a, ir] * second[ir, b, it]
                    out[it, i_s, ix, iy] = acc
    return out


def weight_reconstruct_naive(w1, w2) -> np.ndarray:
    """k x k filters into r channels, then a 1x1 mix, with explicit loops."""
    k, _, s, r = w1.shape
    t = w2.shape[1]
    out = np.zeros((t, s, k, k))
    for it in range(t):
        for i_s in range(s):
            for ix in range(k):
                for iy in range(k):
                    acc = 0.0
                    for ir in range(r):
                        acc += w1[ix, iy, i_s, ir] * w2[ir, it]
                    out[it, i_s, ix, iy] = acc
    return out


def asym3d_reconstruct_naive(wv, wh, wp) -> np.ndarray:
    """Vertical (s -> a), horizontal (a -> b), pointwise (b -> t) chain with
    explicit loops -> (t, s, k, k)."""
    s, k, ra = wv.shape
    rb = wh.shape[2]
    t = wp.shape[1]
    out = np.zeros((t, s, k, k))
    for it in range(t):
        for i_s in range(s):
            for ix in range(k):
                for iy in range(k):
                    acc = 0.0
                    for a in range(ra):
                        for b in range(rb):
                            acc += wv[i_s, iy, a] * wh[a, ix, b] * wp[b, it]
                    out[it, i_s, ix, iy] = acc
    return out


def cp_als_einsum(data, r: int, sweeps: int, seed: int):
    """``sweeps`` CP-ALS sweeps on the (s, y, x, t) reordering of a (t, s, k, k)
    kernel, each MTTKRP one four-operand einsum and each normal equation
    solved directly.  Same start (uniform [-1, 1] for wy, wx, wt from
    ``default_rng(seed)``), update order and norm absorption into wt as the
    library; returns the (t, s, k, k) kernel of the final factors."""
    tens = np.asarray(data, dtype=np.float64).transpose(1, 3, 2, 0)
    t, s, k, _ = data.shape
    rng = np.random.default_rng(seed)
    wy = rng.uniform(-1.0, 1.0, size=(k, r))
    wx = rng.uniform(-1.0, 1.0, size=(k, r))
    wt = rng.uniform(-1.0, 1.0, size=(t, r))

    def solve(gram, rhs):  # x @ gram = rhs, gram symmetric
        return np.linalg.solve(gram, rhs.T).T

    for _ in range(sweeps):
        ws = solve((wy.T @ wy) * (wx.T @ wx) * (wt.T @ wt),
                   np.einsum("syxt,yr,xr,tr->sr", tens, wy, wx, wt))
        wy = solve((ws.T @ ws) * (wx.T @ wx) * (wt.T @ wt),
                   np.einsum("syxt,sr,xr,tr->yr", tens, ws, wx, wt))
        wx = solve((ws.T @ ws) * (wy.T @ wy) * (wt.T @ wt),
                   np.einsum("syxt,sr,yr,tr->xr", tens, ws, wy, wt))
        wt = solve((ws.T @ ws) * (wy.T @ wy) * (wx.T @ wx),
                   np.einsum("syxt,sr,yr,xr->tr", tens, ws, wy, wx))
        for f in (ws, wy, wx):
            norms = np.linalg.norm(f, axis=0)
            f /= norms
            wt *= norms
    return np.einsum("sr,yr,xr,tr->tsxy", ws, wy, wx, wt)


def tucker_hooi_einsum(data, r1: int, r2: int, sweeps: int):
    """Truncated HOSVD start and ``sweeps`` HOOI sweeps on the channel modes
    of a (t, s, k, k) kernel, the core and projections as three-operand
    einsums; returns the (t, s, k, k) kernel of the final factors."""
    tens = np.asarray(data, dtype=np.float64).transpose(2, 3, 1, 0)  # (x, y, s, t)

    def lead(a, mode, r):
        m = np.moveaxis(a, mode, 0).reshape(a.shape[mode], -1)
        return np.linalg.svd(m, full_matrices=False)[0][:, :r]

    u1 = lead(tens, 2, r1)
    u2 = lead(tens, 3, r2)
    for _ in range(sweeps):
        u1 = lead(np.einsum("xyst,tb->xysb", tens, u2), 2, r1)
        u2 = lead(np.einsum("xyst,sa->xyat", tens, u1), 3, r2)
    core = np.einsum("xyst,sa,tb->xyab", tens, u1, u2)
    return np.einsum("xyab,sa,tb->tsxy", core, u1, u2)


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


def train_toy_gated_inline(task, kind: str, lambda_reg: float, steps: int, lr: float = 0.05,
                           seed: int = 0):
    """The toy gate trainer with the hard-concrete and VIB formulas written
    out inline in its loop, with the standard constants beta = 2/3,
    zeta = 1.1, gamma = -0.1.  Same draws, update order and arithmetic as
    the library's ``train_toy_gated``; returns ``draws``, ``loss_trace``,
    ``weights`` and the per-gate keep ``criteria`` (P(z != 0) per L0 gate,
    computed one gate at a time; mu^2 / sigma^2 per VIB gate)."""
    beta, zeta, gamma = 2.0 / 3.0, 1.1, -0.1

    def sigmoid(x):
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))

    rng = np.random.default_rng(seed)
    x, y, _ = task.materialize(rng)
    n, p = x.shape
    weights = rng.normal(scale=0.1, size=p)
    log_ratio = beta * math.log(-gamma / zeta)
    if kind == "l0":
        log_alpha = np.full(p, 1.0)
        draws = np.clip(rng.uniform(size=(steps, p)), 1e-12, 1.0 - 1e-12)
        logits = np.log(draws) - np.log1p(-draws)
    else:
        mu = np.full(p, 1.0)
        log_sigma = np.full(p, math.log(0.5))
        draws = rng.normal(size=(steps, p))
    loss_trace = []
    for step in range(steps):
        if kind == "l0":
            s = sigmoid((logits[step] + log_alpha) / beta)
            sb = s * (zeta - gamma) + gamma
            z = np.clip(sb, 0.0, 1.0)
            dz_dla = np.where((sb > 0.0) & (sb < 1.0), (zeta - gamma) * s * (1.0 - s) / beta, 0.0)
            p_active = sigmoid(log_alpha - log_ratio)
            penalty = float(np.sum(p_active))
            dpen = p_active * (1.0 - p_active)
        else:
            eps = draws[step]
            sigma = np.exp(log_sigma)
            z = mu + eps * sigma
            denom = sigma**2 + mu**2
            penalty = float(np.sum(np.log1p(mu**2 / sigma**2)))
            dpen_dmu = 2.0 * mu / denom
            dpen_dsigma = -2.0 * mu**2 / (sigma * denom)
        err = x @ (weights * z) - y
        with np.errstate(over="ignore"):
            loss = float(err @ err) / n + lambda_reg * penalty
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss diverged at step {step}")
        loss_trace.append(loss)
        g_wz = (2.0 / n) * (x.T @ err)
        grad_w = g_wz * z
        if kind == "l0":
            grad_la = g_wz * weights * dz_dla + lambda_reg * dpen
            weights = weights - lr * grad_w
            log_alpha = log_alpha - lr * grad_la
        else:
            grad_mu = g_wz * weights + lambda_reg * dpen_dmu
            grad_ls = (g_wz * weights * eps + lambda_reg * dpen_dsigma) * sigma
            weights = weights - lr * grad_w
            mu = mu - lr * grad_mu
            log_sigma = log_sigma - lr * grad_ls
    if kind == "l0":
        criteria = np.array([float(sigmoid(float(a) - log_ratio)) for a in log_alpha])
    else:
        criteria = np.array([float(m) ** 2 / float(np.exp(ls)) ** 2
                             for m, ls in zip(mu, log_sigma)])
    return {"draws": draws, "loss_trace": loss_trace, "weights": weights, "criteria": criteria}


def relu_asym_reference_loop(batch, r: int, lambda_schedule=(0.01, 0.1, 1.0, 10.0, 100.0),
                             max_outer: int = 2, eps=None):
    """``relu_asym`` with one full ``linalg.reduced_rank_regression`` per
    fit (Z re-whitened and the residual computed every time) and the anchor
    and fit term recomputed where they are used.  Returns ``M``,
    ``new_bias``, ``residual`` and ``objective_trace``."""

    def relu(a):
        return np.maximum(a, 0.0)

    def z_step(ref, anchor, lam):
        ry = relu(ref)
        z_pos = np.maximum((ry + lam * anchor) / (1.0 + lam), 0.0)
        obj_pos = (ry - z_pos) ** 2 + lam * (z_pos - anchor) ** 2
        z_neg = np.minimum(anchor, 0.0)
        obj_neg = ry**2 + lam * (z_neg - anchor) ** 2
        return np.where(obj_pos <= obj_neg, z_pos, z_neg)

    y_raw = batch.ref_outputs
    z_hat = batch.cur_outputs
    ry = relu(y_raw)
    z_hat_mean = z_hat.mean(axis=0)
    zc_hat = (z_hat - z_hat_mean).T

    def fit(target):
        t_mean = target.mean(axis=0)
        rrr = linalg.reduced_rank_regression((target - t_mean).T, zc_hat, r, eps=eps)
        return rrr.M, t_mean - rrr.M @ z_hat_mean

    m, b = fit(y_raw)
    trace = []
    for lam in tuple(float(v) for v in lambda_schedule):
        for _ in range(max_outer):
            anchor = z_hat @ m.T + b
            z_aux = z_step(y_raw, anchor, lam)
            trace.append(
                (lam, float(np.sum((ry - relu(z_aux)) ** 2) + lam * np.sum((z_aux - anchor) ** 2)))
            )
            m, b = fit(z_aux)
            anchor = z_hat @ m.T + b
            trace.append(
                (lam, float(np.sum((ry - relu(z_aux)) ** 2) + lam * np.sum((z_aux - anchor) ** 2)))
            )
    pred = z_hat @ m.T + b
    residual = float(np.linalg.norm(ry - relu(pred)))
    return {"M": m, "new_bias": b, "residual": residual, "objective_trace": trace}


def psd_inverse_reference(
    c: Array, eps: float = 0.0, power: float = 1.0, left: Array | None = None
) -> Array:
    """``(C + eps*I)^-power`` of a symmetric PSD ``C``, zero on its null space;
    ``left @ (C + eps*I)^-power`` when ``left`` is given.

    With ``V diag(vals) V^T`` the eigendecomposition of ``C + eps*I``, this is
    ``(left @ (V / vals**power)) @ V.T``: applying ``left`` before ``V.T``
    keeps its components along C's large eigenvalues when a tiny eps meets
    a singular C.  With ``eps=0`` a C whose condition number exceeds 1e12
    raises; with ``eps > 0`` eigenvalues that still read <= 0 are left out.
    A negative, NaN or infinite eps raises.
    """
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be >= 0" if eps < math.inf else "eps must be finite")
    if eps == 0:
        vals, vecs = linalg.eig_sym(c)
        if not vals[-1] > vals[0] / 1e12:
            raise ValueError("singular system: matrix is rank deficient "
                             "(condition number above 1e12) and eps is 0")
    else:
        vals, vecs = linalg.eig_sym(c + eps * np.eye(c.shape[0]))
        live = vals > 0
        vals, vecs = vals[live], vecs[:, live]
    scaled = vecs / vals**power
    return (scaled if left is None else left @ scaled) @ vecs.T


def solve_gram(gram, rhs):
    """Solve ``x @ gram = rhs`` for a symmetric PSD gram, ridging if needed.

    When the gram condition number exceeds 1e12 a 1e-10 ridge keeps the
    ALS update stable (CP factorizations are ill-posed in general).
    """
    vals, vecs = linalg.eig_sym(gram)
    if vals[0] <= 0 or vals[-1] <= vals[0] / 1e12:
        vals, vecs = linalg.eig_sym(gram + 1e-10 * np.eye(gram.shape[0]))
    inv = (vecs / vals) @ vecs.T
    return rhs @ inv


def cp_als_reference_loop(kernel, r: int, max_iters: int = 200, tol: float = 1e-8,
                          seed: int = 0):
    """``cp_als`` with each normal equation solved by :func:`solve_gram`, the
    solver's own eigendecomposition and ridge fallback.  Returns the factors
    (ws, wy, wx, wt) and the ``iterations`` and ``rel_error`` of its meta."""
    from convcompress.decomp import _khatri_rao

    t, s, k = kernel.t, kernel.s, kernel.k
    tens = kernel.data.transpose(1, 3, 2, 0)  # (s, y, x, t)
    unf = [np.moveaxis(tens, mode, 0).reshape(tens.shape[mode], -1) for mode in range(4)]
    norm_t = float(np.linalg.norm(unf[0]))
    rng = np.random.default_rng(seed)
    fs = [np.empty((s, r))] + [rng.uniform(-1.0, 1.0, size=(n, r)) for n in (k, k, t)]
    err_prev = np.inf
    errors = []
    for _ in range(max_iters):
        for mode in range(4):
            others = fs[:mode] + fs[mode + 1 :]
            gram = functools.reduce(np.multiply, (f.T @ f for f in others))
            fs[mode] = solve_gram(gram, unf[mode] @ _khatri_rao(*others))
        for f in fs[:3]:
            norms = np.linalg.norm(f, axis=0)
            norms = np.where(norms > 0, norms, 1.0)
            f /= norms
            fs[3] *= norms
        approx = fs[0] @ _khatri_rao(*fs[1:]).T
        err = float(np.linalg.norm(unf[0] - approx)) / (norm_t if norm_t > 0 else 1.0)
        errors.append(err)
        if abs(err_prev - err) < tol:
            break
        err_prev = err
    factors = dict(zip(("ws", "wy", "wx", "wt"), fs))
    return factors, {"iterations": len(errors), "rel_error": errors[-1]}


def lasso_gram_reference_loop(g, c, lam: float, beta0=None, tol: float = 1e-8,
                              max_sweeps: int = 10000):
    """The sweep loop of ``linalg.lasso_gram`` with its soft threshold as
    ``copysign(abs(rho) - lam, rho)`` and its largest change kept by the
    ``max`` builtin, for valid inputs.  Returns ``beta``, ``sweeps`` and
    ``converged``."""
    g = np.ascontiguousarray(np.asarray(g, dtype=np.float64))
    p = g.shape[0]
    c = np.asarray(c, dtype=np.float64).ravel()
    beta = np.zeros(p) if beta0 is None else np.array(beta0, dtype=np.float64).ravel()
    beta[g.diagonal() == 0.0] = 0.0
    diag = g.diagonal().tolist()
    live = [j for j in range(p) if diag[j] != 0.0]
    q = c - g @ beta
    rows = list(g)  # G is symmetric: row j is column j
    b = beta.tolist()
    for sweep in range(1, max_sweeps + 1):
        max_change = 0.0
        for j in live:
            old = b[j]
            rho = q.item(j) + diag[j] * old
            new = math.copysign(abs(rho) - lam, rho) / diag[j] if abs(rho) > lam else 0.0
            if new != old:
                q -= rows[j] * (new - old)
                b[j] = new
                max_change = max(max_change, abs(new - old))
        if max_change <= tol:
            return {"beta": np.array(b), "sweeps": sweep, "converged": True}
    return {"beta": np.array(b), "sweeps": max_sweeps, "converged": False}


def tucker_hooi_reference_loop(kernel, r1: int, r2: int, max_iters: int = 50,
                               tol: float = 1e-10):
    """``tucker_hooi`` with the returned core recomputed from the final
    factors after the sweeps.  Returns the factors (w1, core, w2) and the
    ``meta`` the library reports."""

    def lead(m, r):
        res = linalg.svd(m)
        if r <= res.S.size:
            return res.U[:, :r]
        return linalg.orthonormal_extend(res.U, r)

    def unfold(a, mode):
        return np.moveaxis(a, mode, 0).reshape(a.shape[mode], -1)

    tens = kernel.data.transpose(2, 3, 1, 0).copy()  # (x, y, s, t)
    norm_t = float(np.linalg.norm(tens))

    def times_u1(u1):
        return np.tensordot(tens, u1, axes=(2, 0))

    u1 = lead(unfold(tens, 2), r1)
    u2 = lead(unfold(tens, 3), r2)
    err_prev = np.inf
    errors = []
    for _ in range(max_iters):
        u1 = lead(unfold(tens @ u2, 2), r1)
        tens_u1 = times_u1(u1)
        u2 = lead(unfold(tens_u1, 2), r2)
        core = tens_u1.swapaxes(2, 3) @ u2
        approx = u1 @ core @ u2.T
        err = float(np.linalg.norm(tens - approx)) / (norm_t if norm_t > 0 else 1.0)
        errors.append(err)
        if err_prev - err < tol:
            break
        err_prev = err
    factors = {"w1": u1, "core": times_u1(u1).swapaxes(2, 3) @ u2, "w2": u2}
    meta = {
        "iterations": len(errors),
        "rel_error": errors[-1] if errors else None,
        "converged": len(errors) < max_iters,
    }
    return factors, meta


def asym3d_reference_fit(kernel, batch, r_s: int, r_d: int, eps=None):
    """``asym3d`` with its own response product, centring and reduced-rank
    regression, and its bias ``y_mean - M z_mean``.  Returns the factors,
    the bias and the ``meta`` of its layer."""
    from convcompress.decomp import reconstruct, spatial_svd

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
    factors = {"wv": sp.factors["wv"], "wh": wh, "wp": u.T}
    meta = {"method": "asym3d", "fit_residual": rrr.residual}
    return factors, y_mean - rrr.M @ z_mean, meta


def spatial_refine_reference_fit(layer, batch, eps=None):
    """``spatial_refine`` with its own response product and centring.
    Returns ``M``, ``new_bias``, ``residual``, ``y_mean``, ``z_mean`` and
    the refined second factor; its layer kept the input layer's bias."""
    from convcompress.decomp import reconstruct

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
    return {
        "M": m,
        "new_bias": y_mean - m @ z_mean,
        "residual": float(np.linalg.norm(yc - m @ zc)),
        "y_mean": y_mean,
        "z_mean": z_mean,
        second_name: new_second,
    }


def weight_factors_reference(layer):
    """``weight_factors`` with its own rank-r SVD of M: W1 = U_r (t, r) and
    W2 = S_r V_r^T times the kernel matrix (r, s*k*k)."""
    from convcompress.kernel import Kernel4D

    if not isinstance(layer.wrapped, Kernel4D):
        raise ValueError("refined layer does not wrap a dense kernel")
    res = linalg.svd(layer.M, layer.rank)
    return res.U, (res.S[:, None] * res.V.T) @ layer.wrapped.as_matrix()


Array = np.ndarray


def conv_shift_reference(w: Array, x: Array) -> Array:
    """Stride-1, zero-padded convolution of a ``(c, h, w)`` map with a
    ``(c_out, c_in/g, kx, ky)`` weight (odd kx, ky); the output is ``(c_out, h, w)``.

    The group count g is read off the shapes: dense (g = 1) when
    ``w.shape[1] == c``, depthwise (g = c) when ``w`` is ``(c, 1, kx, ky)``;
    any other weight raises ``ValueError``.  The map is padded once; each
    kernel offset then adds its weight slice times the shifted map, one
    matrix product per group, so no k*k-fold patch matrix is built.
    """
    c, h, wd = x.shape
    c_out, c_g, kx, ky = w.shape
    if c_g == c:
        g = 1
    elif c_g == 1 and c_out == c:
        g = c
    else:
        raise ValueError(f"weight {w.shape} is neither dense nor depthwise for {c} input channels")
    dx, dy = (kx - 1) // 2, (ky - 1) // 2
    xpad = np.zeros((c, h + 2 * dx, wd + 2 * dy))
    xpad[:, dx : dx + h, dy : dy + wd] = x
    wg = w.reshape(g, c_out // g, c_g, kx, ky)
    out = np.zeros((g, c_out // g, h * wd))
    for i in range(kx):
        for j in range(ky):
            shifted = xpad[:, i : i + h, j : j + wd].reshape(g, c_g, h * wd)
            out += np.ascontiguousarray(wg[..., i, j]) @ shifted
    return out.reshape(c_out, h, wd)


def conv_flat_row_reference(w: Array, x: Array) -> Array:
    """Stride-1, zero-padded convolution of a ``(c, h, w)`` map with a
    ``(c_out, c_in/g, kx, ky)`` weight (odd kx, ky); the output is ``(c_out, h, w)``.

    The group count g is read off the shapes: dense (g = 1) when
    ``w.shape[1] == c``, depthwise (g = c) when ``w`` is ``(c, 1, kx, ky)``;
    any other weight, or an even kernel side, raises ``ValueError``.  Each
    channel is padded into one flat row of length ``(h+2dx)*wp + 2dy``, with
    ``wp = w + 2dy``, so kernel offset ``(i, j)`` reads the contiguous run
    starting at ``i*wp + j`` in place: its weight slice times that run is one
    matrix product per group, or a broadcast product when ``c_in/g == 1``.
    The ``2dy`` pad columns are cropped once at the end.  A 1x1 weight reads
    ``x`` itself as the flat map, and ``x`` is never written.
    """
    c, h, wd = x.shape
    c_out, c_g, kx, ky = w.shape
    if kx % 2 == 0 or ky % 2 == 0:
        raise ValueError(f"weight {w.shape} has an even kernel side")
    if c_g == c:
        g = 1
    elif c_g == 1 and c_out == c:
        g = c
    else:
        raise ValueError(f"weight {w.shape} is neither dense nor depthwise for {c} input channels")
    dx, dy = (kx - 1) // 2, (ky - 1) // 2
    wp, n = wd + 2 * dy, h * (wd + 2 * dy)
    if dx == dy == 0:
        flat = x.reshape(c, n)
    else:
        flat = np.zeros((c, (h + 2 * dx) * wp + 2 * dy))
        flat[:, : (h + 2 * dx) * wp].reshape(c, -1, wp)[:, dx : dx + h, dy : dy + wd] = x
    xg = flat.reshape(g, c_g, -1)
    wt = np.ascontiguousarray(w.reshape(g, c_out // g, c_g, kx * ky).transpose(3, 0, 1, 2))
    runs = (xg[:, :, i * wp + j : i * wp + j + n] for i in range(kx) for j in range(ky))
    terms = (wo * xo if c_g == 1 else wo @ xo for wo, xo in zip(wt, runs))
    out = next(terms)  # the first term, a new array, is the accumulator
    for term in terms:
        out += term
    return np.ascontiguousarray(out.reshape(c_out, h, wp)[:, :, :wd])


def ranks_from_ratio_reference(
    method: str, s: int, t: int, k: int, alpha: float
) -> tuple[int, ...]:
    """Largest rank vector whose MACs stay within ``alpha`` of the original.

    The maximal ranks R_i are scaled by the largest common factor j / R that
    fits (R one of them, 1 <= j <= R): each becomes ``j * R_i // R`` in
    integers, floored at 1.  tt then caps each bond by the bound the bonds
    before it leave (:func:`~convcompress.kernel.clamp_ranks`), so that no
    bond of :func:`~convcompress.decomp.tt_svd` is zero padding.  Feature-map
    dims cancel in the ratio.
    """
    from convcompress.kernel import clamp_ranks, mac_cost, max_ranks

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
    lo, hi = 0, len(thetas) - 1
    best = scaled(0, 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        cand = scaled(*thetas[mid])
        if macs_of(cand) <= budget:
            best = cand
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def equal_acc_select_reference(
    tables: list[AccTable], costs: list[GridCosts], alpha: float
) -> RankPlan:
    """Minimize the worst per-layer accuracy drop under the MAC budget.

    For a candidate tolerance tau each layer independently takes its
    cheapest grid option whose accuracy stays within tau of the original;
    tau is bisected over the finite set of observed accuracy gaps.  Ties in
    a layer's cheapest option break toward higher accuracy, then grid order.
    """
    from convcompress.rankselect import RankPlan, check_acc_table

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
    if plan_at(gaps[-1]) is None:
        raise ValueError(f"budget alpha={alpha} infeasible even at maximal tolerance")
    lo, hi = 0, len(gaps) - 1
    best_tau, best_plan = gaps[-1], plan_at(gaps[-1])
    while lo <= hi:
        mid = (lo + hi) // 2
        got = plan_at(gaps[mid])
        if got is not None:
            best_tau, best_plan = gaps[mid], got
            hi = mid - 1
        else:
            lo = mid + 1
    ranks, total = best_plan
    return RankPlan(
        ranks=ranks,
        tau=best_tau,
        achieved_macs=total,
        achieved_ratio=total / c_orig,
        strategy="equal_acc",
        meta={"p_orig": p_orig, "alpha": alpha},
    )


def channel_prune_doubling_reference(kernel, x, y, s_prime: int):
    """``pruning.channel_prune`` with its earlier penalty search: from 1e-4,
    double (at most 200 times) until at most ``s_prime`` coefficients
    survive, then bisect 20 steps between the last two penalties."""
    from convcompress.kernel import Kernel4D
    from convcompress.pruning import PruneResult, _channel_features

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

    def solve(lam: float) -> Array:
        runs.append(linalg.lasso_gram(gram, corr, lam, beta0=runs[-1].beta if runs else None))
        return runs[-1].beta

    lam = 1e-4
    beta = solve(lam)
    if np.count_nonzero(beta) > s_prime:
        lo = lam
        for _ in range(200):
            lam *= 2.0
            beta = solve(lam)
            if np.count_nonzero(beta) <= s_prime:
                break
            lo = lam
        else:
            raise RuntimeError("lasso penalty search failed to reach the sparsity target")
        hi = lam
        best = beta
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            beta_mid = solve(mid)
            if np.count_nonzero(beta_mid) <= s_prime:
                hi, best = mid, beta_mid
            else:
                lo = mid
        lam, beta = hi, best
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


def kxk_view(w: Array) -> Array:  # (k, k, c_in, c_out)
    return w.transpose(3, 2, 0, 1)


def mix_view(w: Array) -> Array:  # (c_in, c_out)
    return w.T[:, :, None, None]


def mix_rows_view(w: Array) -> Array:  # (c_out, c_in)
    return w[:, :, None, None]


def along_x_view(w: Array) -> Array:  # (c_in, k, c_out)
    return w.transpose(2, 0, 1)[:, :, :, None]


def along_y_view(w: Array) -> Array:  # (c_in, k, c_out)
    return w.transpose(2, 0, 1)[:, :, None, :]


def depth_x_view(w: Array) -> Array:  # (k, channels), depthwise
    return w.T[:, None, :, None]


def depth_y_view(w: Array) -> Array:  # (k, channels), depthwise
    return w.T[:, None, None, :]


#: (method, spatial order) -> the hand-written weight view of each stage, by
#: factor name in stage order
STAGE_VIEWS = {
    ("weight_svd", None): {"w1": kxk_view, "w2": mix_view},
    ("spatial_svd", None): {"wh": along_x_view, "wv": along_y_view},
    ("spatial_svd", "hv"): {"wh": along_x_view, "wv": along_y_view},
    ("spatial_svd", "vh"): {"wv": along_y_view, "wh": along_x_view},
    ("cp", None): {"ws": mix_view, "wy": depth_y_view, "wx": depth_x_view, "wt": mix_rows_view},
    ("tucker", None): {"w1": mix_view, "core": kxk_view, "w2": mix_rows_view},
    ("tt", None): {"w1": mix_view, "w2": along_x_view, "w3": along_y_view, "w4": mix_view},
    ("asym3d", None): {"wv": along_y_view, "wh": along_x_view, "wp": mix_view},
}
