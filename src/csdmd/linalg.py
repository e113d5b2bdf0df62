"""Dense matrix substrate: economy SVD via the method of snapshots and a
small dense eigensolver.

The SVD here deliberately works through the m x m Gram matrix rather than
bidiagonalizing the full n x m input, because snapshot matrices are tall
(n >> m) and the Gram route keeps every eigenproblem at the snapshot count.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DimensionError, ZeroInput

# The Gram route resolves singular values only down to ~sqrt(eps) sigma_0
# (1.5e-8); a lower tolerance would keep rounding noise as spurious rank,
# so svd_econ raises any requested tolerance to GRAM_TOL_FLOOR.
DEFAULT_TRUNCATION_TOL = 1e-7
GRAM_TOL_FLOOR = float(2.0 * np.sqrt(np.finfo(float).eps))
EIG_MAX_DIM = 512


@dataclass(frozen=True)
class EconSvd:
    """Economy singular value decomposition X ~ U diag(sigma) V^H.

    Attributes
    ----------
    sigma : ndarray, shape (r,)
        Singular values, positive and descending.
    V : ndarray, shape (m, r)
        Right singular vectors, orthonormal columns.
    rank : int
        Retained rank r.
    truncation_tol : float
        Relative threshold applied to discard trailing singular values:
        the requested one, raised to at least GRAM_TOL_FLOOR.
    U : ndarray, shape (n, r), or None
        Left singular vectors, orthonormal columns; None from gram_svd.
    """

    sigma: np.ndarray
    V: np.ndarray
    rank: int
    truncation_tol: float
    U: np.ndarray = None


def thin_product(A, M):
    """A @ M for a tall block A and a small M, as (M^T A^T)^T, which OpenBLAS
    runs ~4x faster on a column-major A; a real A times a complex M is one
    real product on M's interleaved parts, with no complex copy of A."""
    if np.iscomplexobj(M) and not np.iscomplexobj(A):
        return (A @ np.ascontiguousarray(M).view(float)).view(complex)
    return (M.T @ A.T).T


def gram_svd(G, truncation_tol=DEFAULT_TRUNCATION_TOL):
    """Singular values and right singular vectors of X from its Gram
    matrix G = X^H X, truncated, floored and checked as svd_econ does
    (the checks read the trace of G, |X|_F^2); U is not formed."""
    truncation_tol = max(truncation_tol, GRAM_TOL_FLOOR)
    # the trace of G is |X|_F^2: a NaN or Inf in X reaches it, and it is zero
    # only when every entry squares to zero, so X needs no other pass
    energy = np.trace(G)
    if not np.isfinite(energy):
        raise DimensionError("matrix holds NaN or Inf, or entries whose squares overflow")
    if energy == 0:
        raise ZeroInput("matrix is zero, or its entries' squares underflow to zero")
    evals, V = np.linalg.eigh(G)
    # eigh returns ascending order; flip and clamp tiny negatives from roundoff
    evals = np.clip(evals[::-1], 0.0, None)
    V = V[:, ::-1]
    sigma = np.sqrt(evals)

    r = max(int(np.sum(sigma > truncation_tol * sigma[0])), 1)
    V = np.ascontiguousarray(V[:, :r])
    return EconSvd(sigma=sigma[:r], V=V, rank=r, truncation_tol=truncation_tol)


def svd_econ(X, truncation_tol=DEFAULT_TRUNCATION_TOL):
    """Economy SVD of a (possibly complex) matrix by the method of snapshots.

    Forms the m x m Gram matrix X^H X, also for a wide input, solves
    the symmetric eigenproblem, and maps eigenpairs back to singular
    triplets.  Singular values below ``truncation_tol`` times the largest
    are discarded.  A tolerance below GRAM_TOL_FLOOR (2 sqrt(eps), about
    3e-8), where the Gram route no longer resolves singular values, is
    raised to the floor.  This is a limit: singular values below the floor
    times the largest are dropped even when the data truly has them, so
    no requested tolerance keeps a spectrum below about 3e-8.

    Parameters
    ----------
    X : ndarray, shape (n, m)
        Input matrix, real or complex.
    truncation_tol : float
        Relative cutoff for rank truncation; raised to GRAM_TOL_FLOOR if lower.

    Returns
    -------
    EconSvd

    Raises
    ------
    ZeroInput
        If the input has zero Frobenius norm, or entries so small that
        their squares underflow to zero.
    DimensionError
        If the input is not a 2-d matrix of finite values, or has entries
        so large that their squares overflow.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.size == 0:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {X.shape}")

    with np.errstate(over="ignore", invalid="ignore"):
        G = X.conj().T @ X
    svd = gram_svd(G, truncation_tol)
    U = thin_product(X, svd.V) / svd.sigma

    # The Gram route loses orthonormality in U for singular values near
    # sqrt(eps) of the largest; one thin-QR pass restores it without
    # disturbing the reconstruction (the drifting columns carry tiny sigma).
    Q, R = np.linalg.qr(U)
    d = np.diagonal(R)
    phase = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return replace(svd, U=Q * phase)


def canonical_phase(M):
    """Rescale each column so its largest-magnitude entry is real positive.

    Eigenvectors and mode shapes are defined up to a complex scalar; fixing
    the phase makes outputs reproducible across runs and platforms.
    """
    M = np.array(M, dtype=complex, copy=True)
    for j in range(M.shape[1]):
        col = M[:, j]
        k = int(np.argmax(np.abs(col)))
        a = col[k]
        if np.abs(a) > 0:
            M[:, j] = col * (np.abs(a) / a)
    return M


def eig_dense(A):
    """Eigendecomposition of a small dense square matrix.

    Eigenvectors are returned unit-norm with canonical phase, ordered by
    descending eigenvalue magnitude, then by descending imaginary part.
    The per-column residual ``|A w - lambda w|`` is verified against
    ``1e-8 |A|_F``.

    Parameters
    ----------
    A : ndarray, shape (d, d)
        Square matrix with d <= EIG_MAX_DIM, a safety bound on the
        problem size.

    Returns
    -------
    lambdas : ndarray, shape (d,)
    W : ndarray, shape (d, d)
        Eigenvector columns, so that A @ W ~ W @ diag(lambdas).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] > EIG_MAX_DIM:
        raise DimensionError(f"matrix dimension {A.shape[0]} exceeds {EIG_MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise DimensionError("matrix contains NaN or Inf entries")

    try:
        lambdas, W = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from None

    # the two members of a conjugate pair tie on |lambda|: +imag goes first
    order = np.lexsort((-lambdas.imag, -np.abs(lambdas)))
    lambdas = lambdas[order]
    W = W[:, order]
    W = W / np.linalg.norm(W, axis=0)
    W = canonical_phase(W)

    norm_A = np.linalg.norm(A)
    resid = np.linalg.norm(A @ W - W * lambdas, axis=0)
    if np.any(resid > 1e-8 * max(norm_A, 1e-300)):
        raise ConvergenceError(
            f"eigenpair residual {resid.max():.3e} exceeds 1e-8 * |A|_F"
        )
    return lambdas, W


def pinv_from_svd(svd):
    """Moore-Penrose pseudo-inverse V diag(1/sigma) U^H from an EconSvd."""
    return (svd.V / svd.sigma) @ svd.U.conj().T
