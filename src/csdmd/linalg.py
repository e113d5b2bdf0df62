"""Dense matrix substrate: singular values from a Gram matrix (the method
of snapshots), thin products on tall blocks, and a small dense eigensolver.

A block is reduced to its Gram on the short side, X^H X or X X^H; gram_svd
reads that side's singular vectors from it, and no n-row ones are formed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, ZeroInput

# The Gram route resolves singular values only down to ~sqrt(eps) sigma_0
# (1.5e-8); a lower tolerance would keep rounding noise as spurious rank,
# so gram_svd raises any requested tolerance to GRAM_TOL_FLOOR.
DEFAULT_TRUNCATION_TOL = 1e-7
GRAM_TOL_FLOOR = float(2.0 * np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class EconSvd:
    """Truncated singular values of X and the singular vectors of one side.

    Attributes
    ----------
    sigma : ndarray, shape (r,)
        Singular values, positive and descending.
    V : ndarray, shape (m, r)
        Orthonormal right singular vectors of the n x m X from X^H X
        (left ones, shape (n, r), from X X^H).
    rank : int
        Retained rank r.
    truncation_tol : float
        Relative threshold applied to discard trailing singular values:
        the requested one, raised to at least GRAM_TOL_FLOOR.
    """

    sigma: np.ndarray
    V: np.ndarray
    rank: int
    truncation_tol: float


def thin_product(A, M):
    """A @ M for a tall block A and a small M, as (M^T A^T)^T, which OpenBLAS
    runs ~4x faster on a column-major A; a real A times a complex M is one
    real product on M's interleaved parts, with no complex copy of A."""
    if np.iscomplexobj(M) and not np.iscomplexobj(A):
        return (A @ np.ascontiguousarray(M).view(float)).view(complex)
    return (M.T @ A.T).T


def gram_svd(G, truncation_tol=DEFAULT_TRUNCATION_TOL):
    """Singular values and right singular vectors of X from one eigh of its
    Gram G = X^H X (left ones from G = X X^H), truncated below
    truncation_tol, raised to GRAM_TOL_FLOOR, times the largest.  Raises
    ZeroInput if |X|_F^2 = tr G is zero or underflows, DimensionError if X
    holds NaN or Inf or its squares overflow, or if truncation_tol is not
    finite (a NaN or +Inf cutoff passes the floor and keeps rank 1)."""
    if not np.isfinite(truncation_tol):
        raise DimensionError(f"truncation tolerance must be finite, got {truncation_tol}")
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
    """gram_svd of X^H X for a nonempty 2-d X: the Gram route the DMD core
    runs, kept for the benchmark's per-layer SVD timer until that timer
    reads a library trace."""
    X = np.asarray(X)
    if X.ndim != 2 or X.size == 0:
        raise DimensionError(f"expected a nonempty 2-d matrix, got shape {X.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return gram_svd(X.conj().T @ X, truncation_tol)


def canonical_phase(M):
    """Rescale each column so its largest-magnitude entry is real positive.

    Eigenvectors and mode shapes are defined up to a complex scalar; fixing
    the phase makes outputs reproducible across runs and platforms.
    """
    M = np.asarray(M, dtype=complex)
    a = M[np.argmax(np.abs(M), axis=0), np.arange(M.shape[1])]
    # one factor per column; a zero column keeps the factor 1
    return M * np.divide(np.abs(a), a, out=np.ones_like(a), where=np.abs(a) > 0)[None, :]


def eig_dense(A):
    """Eigendecomposition of a dense square matrix.

    Eigenvectors are returned unit-norm with canonical phase, ordered by
    descending eigenvalue magnitude, then by descending imaginary part.
    The per-column residual ``|A w - lambda w|`` is verified against
    ``1e-8 |A|_F``.

    Parameters
    ----------
    A : ndarray, shape (d, d)
        Square matrix; in a fit, d is the retained rank r.

    Returns
    -------
    lambdas : ndarray, shape (d,)
    W : ndarray, shape (d, d)
        Eigenvector columns, so that A @ W ~ W @ diag(lambdas).
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
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

