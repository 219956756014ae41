"""Dense linear algebra for desk-scale matrices.

SVD and the symmetric eigendecomposition call LAPACK through numpy
(``np.linalg.svd`` / ``np.linalg.eigh``); ridge, reduced-rank regression
and lasso are built on top.  The signs of the singular vectors and of the
eigenvectors :func:`eig_sym` returns are fixed (the largest-magnitude
entry of every U / eigenvector column is made nonnegative), so reruns with
the same inputs, the same numpy/BLAS build and the same BLAS thread count
produce byte-identical factors.
One unchecked core does the eigen work: ``_eigh`` (the LAPACK call of
``np.linalg.eigh``, without its per-call dispatch, in descending order and
with LAPACK's signs) and ``_psd_power``, the PSD inverse built on it, whose
``V diag(vals**-power) V^T`` does not depend on the signs.  :func:`eig_sym`
checks its input, and symmetrizes it only when it is not exactly
symmetric, before it calls the core.  :func:`ridge_solve`,
:func:`rrr_fitter` and ``cp_als`` have checked their data already and call
``_psd_power`` directly on Gram matrices (``Z @ Z.T``, ``F.T @ F`` and
their elementwise products), which are exactly symmetric.
:func:`rrr_fitter` (a fixed Z, checked and whitened) and :func:`lasso_solver`
(a fixed G and c) check their data once, when they are built, for the many
reduced-rank fits or lasso penalties that follow.

Four rules are written once here.  Input: :func:`float_array` gives the
float arrays the package takes in (kernels, feature maps, patch batches,
responses, singular-value tables, the lasso's warm start and the
matrices below; not the factors of a ``DecomposedLayer``) as C-contiguous
float64, of a required ndim where
one applies, and refuses a NaN or an infinity with a ``ValueError`` naming
the array.  Integers: :func:`integer` gives every scalar integer the package
takes in (ranks, kept channel counts, sweep and step caps, seeds, patch
counts and sizes, the toy task's sizes and the cost model's dims) as an
int, within its bounds; numpy integers pass, and a float is refused, never
truncated, even 2.0.  Truncation: ``svd(a, r)`` checks
1 <= r <= min(m, n) and returns the leading r triplets; every truncating
decomposition asks it for r.  PSD inverse: ``_psd_power`` returns
``(C + eps*I)^-power``, zero on C's null space; it refuses an eps that is
negative, NaN or infinite, an empty C, a ``C + eps*I`` with a non-finite
entry (the square of finite data can overflow), and with ``eps=0`` a C
whose condition number exceeds 1e12.  Every ridge ``eps`` of
the package reaches it, so an explicit ``eps=0`` in :func:`ridge_solve`,
:func:`reduced_rank_regression` or :func:`rrr_fitter` refuses such a
``Z @ Z.T``; ``cp_als`` catches the refusal and solves with a 1e-10 ridge.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

Array = np.ndarray


def float_array(a, what: str, ndim: int | None = None) -> Array:
    """``a`` as a C-contiguous float64 array, of ``ndim`` dimensions when
    given, with finite entries; else ``ValueError`` naming it ``what``."""
    arr = np.asarray(a, dtype=np.float64, order="C")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def integer(value, what: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as an int (numpy integers pass, a float never does), within
    [``minimum``, ``maximum``] when both are given, else at least ``minimum``
    when it is given; else ``ValueError`` naming it ``what``."""
    try:
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if maximum is not None and not minimum <= v <= maximum:
        raise ValueError(f"{what} {v} out of range [{minimum}, {maximum}]")
    if minimum is not None and v < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {v}")
    return v


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(S) @ V.T`` with S descending."""

    U: Array
    S: Array
    V: Array


def _fix_signs(u: Array, *others: Array) -> tuple[Array, ...]:
    """Flip columns so the largest-magnitude entry of each ``u`` column is
    nonnegative; the same columns of ``others`` flip with them."""
    rows = np.abs(u).argmax(axis=0)
    signs = np.where(u[rows, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return (u * signs, *(o * signs for o in others))


def svd(a, r: int | None = None) -> SvdResult:
    """Thin singular value decomposition (LAPACK via ``np.linalg.svd``).

    Returns U (m x p), S (p, descending, nonnegative) and V (n x p) with
    p = min(m, n); reconstruction and orthogonality hold to ~1e-12 relative.
    With ``r`` (1 <= r <= p) it returns the leading r triplets, the first r
    of ``svd(a)`` bit for bit: the one truncation.  An empty matrix is refused.
    """
    m = float_array(a, "matrix", 2)
    if m.size == 0:
        raise ValueError("matrix must not be empty")
    r = None if r is None else integer(r, "rank", 1, min(m.shape))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if r is not None:
        u, s, vt = u[:, :r], s[:r], vt[:r]
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
    r = integer(r, "rank")
    if r > m:
        raise ValueError(f"cannot extend to {r} orthonormal columns in dimension {m}")
    if r <= p:
        return u
    q, _ = np.linalg.qr(np.column_stack([u, np.eye(m)]))
    (extra,) = _fix_signs(q[:, p:r])
    return np.column_stack([u, extra])


def pinv(a) -> Array:
    """Moore-Penrose pseudo-inverse of a nonempty matrix via :func:`svd`;
    singular values at or below 1e-12 times the largest count as zero."""
    res = svd(a)
    cutoff = 1e-12 * res.S[0]
    inv_s = np.where(res.S > cutoff, 1.0 / np.where(res.S > 0, res.S, 1.0), 0.0)
    return (res.V * inv_s) @ res.U.T


def _symmetric(a) -> Array:
    """``a`` as :func:`eig_sym` takes it: a nonempty square matrix, refused
    when its asymmetry exceeds 1e-8 relative to its largest entry (at least
    1), symmetrized as ``0.5 * (a + a.T)`` when it is not exactly symmetric."""
    m = float_array(a, "matrix", 2)
    n, n2 = m.shape
    if n != n2:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if n == 0:
        raise ValueError("matrix must not be empty")
    if (m != m.T).any():
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-8 * scale:
            raise ValueError("matrix is not symmetric")
        m = 0.5 * (m + m.T)
    return m


def _eigh(m: Array) -> tuple[Array, Array]:
    """``np.linalg.eigh`` of a finite symmetric float64 ``m``, eigenvalues
    descending, eigenvectors in C-contiguous columns with LAPACK's signs.

    It calls the LAPACK gufunc behind ``np.linalg.eigh`` itself, which gives
    the same bits without eigh's per-call type dispatch and error-state
    set-up (half the time of a 4 x 4 solve).  The gufunc reports a failed
    LAPACK call only as NaN eigenvalues (and numpy's invalid-value warning);
    that raises ``LinAlgError`` here, as it does in ``np.linalg.eigh``.
    """
    vals, vecs = _umath_linalg.eigh_lo(m, signature="d->dd")
    if vals[0] != vals[0]:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return vals[::-1], np.ascontiguousarray(vecs[:, ::-1])


def eig_sym(a) -> tuple[Array, Array]:
    """Eigendecomposition of a symmetric matrix (LAPACK via ``np.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues descending and
    eigenvectors in the columns.  Raises on empty input and on input whose
    asymmetry exceeds 1e-8 relative to its largest entry (at least 1);
    input within that tolerance is symmetrized as ``0.5 * (a + a.T)``, and an
    exactly symmetric matrix, which that would return bit for bit, is not.
    """
    vals, vecs = _eigh(_symmetric(a))
    (vecs,) = _fix_signs(vecs)
    return vals, vecs


def _default_ridge_eps(z: Array) -> float:
    """Default regularizer for (pseudo-)inverses of ``Z @ Z.T``, for a
    checked 2-D float ``z``.

    1e-8 * trace(Z Z^T) / rows: small relative to the average eigenvalue,
    handles the degenerate systems an exact pseudo-inverse would hide.
    """
    rows = z.shape[0]
    return 1e-8 * float(np.sum(z * z)) / max(rows, 1)


def _psd_power(c: Array, eps: float, power: float = 1.0, left: Array | None = None) -> Array:
    """``(C + eps*I)^-power`` of a symmetric PSD ``c``, zero on its null space;
    ``left @ (C + eps*I)^-power`` when ``left`` is given.

    With ``V diag(vals) V^T`` the eigendecomposition of ``C + eps*I``, this is
    ``(left @ (V / vals**power)) @ V.T``: applying ``left`` before ``V.T``
    keeps its components along C's large eigenvalues when a tiny eps meets
    a singular C.  With ``eps=0`` a C whose condition number exceeds 1e12
    raises; with ``eps > 0`` eigenvalues that still read <= 0 are left out.

    ``c`` must be square and exactly symmetric, and ``power`` and ``left``
    finite; callers pass checked Gram matrices, so none of that is checked
    here.  It does refuse an eps that is negative, NaN or infinite, an empty
    C (a Z without rows gives an empty ``Z @ Z.T``), and a ``C + eps*I``
    with a non-finite entry (the Gram of finite data can overflow).
    """
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be >= 0" if eps < math.inf else "eps must be finite")
    if c.size == 0:
        raise ValueError("matrix must not be empty")
    m = c if eps == 0 else c + eps * np.eye(c.shape[0])
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    vals, vecs = _eigh(m)
    if eps == 0:
        if not vals[-1] > vals[0] / 1e12:
            raise ValueError("singular system: matrix is rank deficient "
                             "(condition number above 1e12) and eps is 0")
    else:
        live = vals > 0
        vals, vecs = vals[live], vecs[:, live]
    scaled = vecs / (vals if power == 1 else vals**power)  # vals**1.0 is vals
    return (scaled if left is None else left @ scaled) @ vecs.T


def ridge_solve(y, z, eps: float | None = None) -> Array:
    """Minimizer M of ``||Y - M @ Z||_F^2 + eps * ||M||_F^2``.

    Y is (a x n), Z is (b x n), result is (a x b).  ``eps=None`` uses
    :func:`_default_ridge_eps`; ``eps=0`` demands a nonsingular system.  A
    ``Y @ Z.T`` that overflowed is refused as an overflowed ``Z @ Z.T`` is.
    """
    y = float_array(y, "Y", 2)
    z = float_array(z, "Z", 2)
    if y.shape[1] != z.shape[1]:
        raise ValueError(f"Y and Z need equal column counts, got {y.shape} vs {z.shape}")
    if eps is None:
        eps = _default_ridge_eps(z)
    if eps == 0 and z.shape[0] > z.shape[1]:
        raise ValueError("singular system: Z has more rows than columns and eps is 0")
    left = y @ z.T
    if not np.isfinite(left).all():  # the product of finite data can overflow
        raise ValueError("matrix contains non-finite entries")
    return _psd_power(z @ z.T, eps, left=left)


@dataclass(frozen=True)
class RrrResult:
    """Reduced-rank regression solution with its fit residual."""

    M: Array
    rank: int
    residual: float


def rrr_fitter(z, r: int, eps: float | None = None) -> Callable[[Array], Array]:
    """``fit(y)``, the M of ``reduced_rank_regression(y, z, r, eps)``, for a
    fixed Z, checked and whitened once, when the fitter is built.

    ``eps=0`` on a rank-deficient Z raises there; every fit then checks its
    Y, the column counts and the rank.
    """
    z = float_array(z, "Z", 2)
    c_neg_half = _psd_power(z @ z.T, _default_ridge_eps(z) if eps is None else eps, 0.5)

    def fit(y) -> Array:
        y = float_array(y, "Y", 2)
        if y.shape[1] != z.shape[1]:
            raise ValueError(f"Y and Z need equal column counts, got {y.shape} vs {z.shape}")
        rank = integer(r, "rank", 1, y.shape[0])
        whitened = (y @ z.T) @ c_neg_half  # equals (Y Z^T C^{-1}) @ C^{1/2}
        res = svd(whitened, min(rank, whitened.shape[1]))
        return (res.U * res.S) @ res.V.T @ c_neg_half

    return fit


def reduced_rank_regression(y, z, r: int, eps: float | None = None) -> RrrResult:
    """Best rank-``r`` map M minimizing ``||Y - M @ Z||_F`` (plus eps ridge).

    Computed by whitening: with C = Z Z^T + eps*I, the full-rank solution
    M_full = Y Z^T C^{-1} is truncated in the whitened coordinates
    (SVD of M_full C^{1/2} to rank r, mapped back by C^{-1/2}), which
    attains the constrained optimum.  ``rrr_fitter(z, r, eps)(y)`` gives M and
    makes the checks, Z's first (of a Z and a Y fault the Z fault is
    reported), so the residual only converts the checked Y and Z.
    """
    m = rrr_fitter(z, r, eps)(y)
    y = np.asarray(y, dtype=np.float64, order="C")
    z = np.asarray(z, dtype=np.float64, order="C")
    residual = float(np.linalg.norm(y - m @ z))
    return RrrResult(M=m, rank=r, residual=residual)


@dataclass(frozen=True)
class LassoResult:
    """Coordinate-descent lasso solution with the sweeps it took."""

    beta: Array
    sweeps: int
    converged: bool


def lasso_solver(g, c, tol: float = 1e-8, max_sweeps: int = 10000) -> Callable[..., LassoResult]:
    """``solve(lam, beta0=None)``: the lasso in covariance form,
    ``argmin 0.5*b^T G b - c^T b + lam*||b||_1``, of a fixed G and c.

    With ``G = X^T X`` and ``c = X^T y`` this is the lasso of :func:`lasso_cd`
    up to a constant.  Soft-threshold updates are swept cyclically, keeping
    ``q = c - G b`` current so that each update costs O(p), until the
    largest coefficient change in a sweep is at most ``tol``; ``converged``
    is False when ``max_sweeps`` ran out first.  ``beta0`` warm-starts the
    sweeps (default zero) and is not written to.  Coordinates with
    ``G[j, j] == 0`` (zero-norm columns) keep a zero coefficient.

    G, c, ``tol`` (which must not be NaN) and ``max_sweeps`` are checked
    once, when the solver is built, for the many penalties and warm starts
    of a penalty search; each solve checks its ``lam`` and ``beta0``.
    """
    g = float_array(g, "G", 2)
    p = g.shape[0]
    if g.shape != (p, p):
        raise ValueError(f"G must be square, got {g.shape}")
    c = float_array(c, "c").ravel()
    if c.size != p:
        raise ValueError(f"c length {c.size} does not match G size {p}")
    max_sweeps = integer(max_sweeps, "max_sweeps", 1)
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    diag = g.diagonal()
    dead = diag == 0.0
    # (j, G[j, j], row j) of each live coordinate; G is symmetric: row j is column j
    live = [(j, d, row) for j, (d, row) in enumerate(zip(diag.tolist(), g)) if d != 0.0]

    def solve(lam: float, beta0=None) -> LassoResult:
        if not lam >= 0:
            raise ValueError("lambda must be >= 0")
        beta = np.zeros(p) if beta0 is None else float_array(beta0, "beta0").flatten()
        if beta.size != p:
            raise ValueError(f"beta0 length {beta.size} does not match G size {p}")
        beta[dead] = 0.0
        q = c - g @ beta
        b = beta.tolist()
        for sweep in range(1, max_sweeps + 1):
            max_change = 0.0
            for j, d, row in live:
                old = b[j]
                rho = q.item(j) + d * old
                # soft threshold: -((-rho) - lam) is exactly rho + lam
                if rho > lam:
                    new = (rho - lam) / d
                elif rho < -lam:
                    new = (rho + lam) / d
                else:
                    new = 0.0
                if new != old:
                    q -= row * (new - old)
                    b[j] = new
                    change = abs(new - old)
                    if change > max_change:
                        max_change = change
            if max_change <= tol:
                return LassoResult(beta=np.array(b), sweeps=sweep, converged=True)
        return LassoResult(beta=np.array(b), sweeps=max_sweeps, converged=False)

    return solve


def lasso_cd(x, y, lam: float, tol: float = 1e-8, max_sweeps: int = 10000) -> Array:
    """Lasso ``argmin 0.5*||y - X b||^2 + lam*||b||_1`` by coordinate descent.

    Forms ``X^T X`` and ``X^T y`` and runs :func:`lasso_solver` from zero;
    warns when ``max_sweeps`` is hit before the largest coefficient change
    in a sweep drops below ``tol``.  Zero-norm columns keep a zero
    coefficient.
    """
    x = float_array(x, "X", 2)
    y = float_array(y, "y").ravel()
    if y.size != x.shape[0]:
        raise ValueError(f"y length {y.size} does not match X rows {x.shape[0]}")
    res = lasso_solver(x.T @ x, x.T @ y, tol, max_sweeps)(lam)
    if not res.converged:
        warnings.warn(f"lasso_cd stopped at max_sweeps={max_sweeps} before reaching tol={tol}",
                      RuntimeWarning, stacklevel=2)
    return res.beta
