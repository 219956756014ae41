"""Dense linear algebra for desk-scale matrices.

SVD and the symmetric eigendecomposition call LAPACK through numpy
(``np.linalg.svd`` / ``np.linalg.eigh``); ridge, reduced-rank regression
and lasso are built on top.  Singular-vector and eigenvector signs are
fixed (the largest-magnitude entry of every U / eigenvector column is
made nonnegative), so reruns with the same inputs, the same numpy/BLAS
build and the same BLAS thread count produce byte-identical factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


def _check_matrix(a, what: str = "matrix") -> Array:
    m = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(S) @ V.T`` with S descending."""

    U: Array
    S: Array
    V: Array

    def truncate(self, r: int) -> tuple[Array, Array, Array]:
        """First ``r`` singular triplets ``(U_r, S_r, V_r)``."""
        if not 1 <= r <= self.S.size:
            raise ValueError(f"rank {r} out of range [1, {self.S.size}]")
        return self.U[:, :r], self.S[:r], self.V[:, :r]


def _fix_signs(u: Array, *others: Array) -> tuple[Array, ...]:
    """Flip columns so the largest-magnitude entry of each ``u`` column is
    nonnegative; the same columns of ``others`` flip with them."""
    rows = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[rows, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return (u * signs, *(o * signs for o in others))


def svd(a) -> SvdResult:
    """Thin singular value decomposition (LAPACK via ``np.linalg.svd``).

    Returns U (m x p), S (p, descending, nonnegative) and V (n x p) with
    p = min(m, n); reconstruction and orthogonality hold to ~1e-12 relative.
    """
    u, s, vt = np.linalg.svd(_check_matrix(a), full_matrices=False)
    u, v = _fix_signs(u, vt.T)
    return SvdResult(U=u, S=s, V=v)


def orthonormal_extend(u: Array, r: int) -> Array:
    """Append deterministic orthonormal columns to ``u`` until it has ``r``.

    Used when a factor needs more columns than the matrix it came from has
    singular triplets; the appended directions carry no energy.  ``u`` must
    have orthonormal columns; the new ones come from a QR factorization of
    ``[u | I]``, whose trailing columns span the complement of ``u``.
    """
    m, p = u.shape
    if r > m:
        raise ValueError(f"cannot extend to {r} orthonormal columns in dimension {m}")
    if r <= p:
        return u
    q, _ = np.linalg.qr(np.column_stack([u, np.eye(m)]))
    (extra,) = _fix_signs(q[:, p:r])
    return np.column_stack([u, extra])


def pinv(a, rcond: float = 1e-12) -> Array:
    """Moore-Penrose pseudo-inverse via :func:`svd`."""
    res = svd(a)
    cutoff = rcond * (res.S[0] if res.S.size else 0.0)
    inv_s = np.where(res.S > cutoff, 1.0 / np.where(res.S > 0, res.S, 1.0), 0.0)
    return (res.V * inv_s) @ res.U.T


def eig_sym(a, sym_tol: float = 1e-8) -> tuple[Array, Array]:
    """Eigendecomposition of a symmetric matrix (LAPACK via ``np.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues descending and
    eigenvectors in the columns.  Raises on asymmetric input.
    """
    m = _check_matrix(a)
    n, n2 = m.shape
    if n != n2:
        raise ValueError(f"matrix must be square, got {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > sym_tol * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    (vecs,) = _fix_signs(vecs[:, ::-1])
    return vals[::-1], vecs


def default_ridge_eps(z: Array) -> float:
    """Default regularizer for (pseudo-)inverses of ``Z @ Z.T``.

    1e-8 * trace(Z Z^T) / rows: small relative to the average eigenvalue,
    handles the degenerate systems an exact pseudo-inverse would hide.
    """
    z = _check_matrix(z, "Z")
    rows = z.shape[0]
    return 1e-8 * float(np.sum(z * z)) / max(rows, 1)


def _spd_inverse_factors(c: Array, eps: float) -> tuple[Array, Array]:
    """Eigendecomposition of ``C + eps*I`` with eigenvalues clipped at 0."""
    creg = c + eps * np.eye(c.shape[0])
    vals, vecs = eig_sym(creg)
    vals = np.maximum(vals, 0.0)
    top = vals[0] if vals.size else 0.0
    if eps == 0.0 and (top == 0.0 or vals[-1] <= c.shape[0] * np.finfo(np.float64).eps * top):
        raise ValueError("singular system: Z @ Z.T is rank deficient and eps is 0")
    return vals, vecs


def ridge_solve(y, z, eps: float | None = None) -> Array:
    """Minimizer M of ``||Y - M @ Z||_F^2 + eps * ||M||_F^2``.

    Y is (a x n), Z is (b x n), result is (a x b).  ``eps=None`` uses
    :func:`default_ridge_eps`; ``eps=0`` demands a nonsingular system.
    """
    y = _check_matrix(y, "Y")
    z = _check_matrix(z, "Z")
    if y.shape[1] != z.shape[1]:
        raise ValueError(f"Y and Z need equal column counts, got {y.shape} vs {z.shape}")
    if eps is None:
        eps = default_ridge_eps(z)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    vals, vecs = _spd_inverse_factors(z @ z.T, eps)
    inv_vals = np.where(vals > 0, 1.0 / np.where(vals > 0, vals, 1.0), 0.0)
    return (y @ z.T) @ (vecs * inv_vals) @ vecs.T


@dataclass(frozen=True)
class RrrResult:
    """Reduced-rank regression solution with its fit residual."""

    M: Array
    rank: int
    residual: float


def reduced_rank_regression(y, z, r: int, eps: float | None = None) -> RrrResult:
    """Best rank-``r`` map M minimizing ``||Y - M @ Z||_F`` (plus eps ridge).

    Computed by whitening: with C = Z Z^T + eps*I, the full-rank solution
    M_full = Y Z^T C^{-1} is truncated in the whitened coordinates
    (SVD of M_full C^{1/2} to rank r, mapped back by C^{-1/2}), which
    attains the constrained optimum.
    """
    y = _check_matrix(y, "Y")
    z = _check_matrix(z, "Z")
    if y.shape[1] != z.shape[1]:
        raise ValueError(f"Y and Z need equal column counts, got {y.shape} vs {z.shape}")
    if not 1 <= r <= y.shape[0]:
        raise ValueError(f"rank {r} out of range [1, {y.shape[0]}]")
    if eps is None:
        eps = default_ridge_eps(z)
    vals, vecs = _spd_inverse_factors(z @ z.T, eps)
    sqrt_vals = np.sqrt(vals)
    inv_sqrt = np.where(sqrt_vals > 0, 1.0 / np.where(sqrt_vals > 0, sqrt_vals, 1.0), 0.0)
    c_neg_half = (vecs * inv_sqrt) @ vecs.T
    whitened = (y @ z.T) @ c_neg_half  # equals (Y Z^T C^{-1}) @ C^{1/2}
    res = svd(whitened)
    ur, sr, vr = res.truncate(min(r, res.S.size))
    m = (ur * sr) @ vr.T @ c_neg_half
    residual = float(np.linalg.norm(y - m @ z))
    return RrrResult(M=m, rank=r, residual=residual)


def lasso_cd(x, y, lam: float, tol: float = 1e-8, max_sweeps: int = 10000) -> Array:
    """Lasso ``argmin 0.5*||y - X b||^2 + lam*||b||_1`` by coordinate descent.

    Soft-threshold updates swept cyclically until the largest coefficient
    change in a sweep is below ``tol`` (or ``max_sweeps`` is hit).
    Zero-norm columns keep a zero coefficient.
    """
    x = _check_matrix(x, "X")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != x.shape[0]:
        raise ValueError(f"y length {y.size} does not match X rows {x.shape[0]}")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    n, p = x.shape
    col_sq = np.sum(x * x, axis=0)
    beta = np.zeros(p)
    resid = y.copy()
    for _ in range(max_sweeps):
        max_change = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = x[:, j] @ resid + col_sq[j] * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_sq[j]
            if new != old:
                resid += x[:, j] * (old - new)
                beta[j] = new
            max_change = max(max_change, abs(new - old))
        if max_change <= tol:
            break
    return beta
