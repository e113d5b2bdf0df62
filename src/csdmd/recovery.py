"""Greedy sparse recovery of mode coefficients from few measurements.

The workhorse is a complex-valued CoSaMP: identify candidate support from
the adjoint proxy, solve least squares on the merged support, prune to the
K largest coefficients, repeat until the residual is small or stalls.  A
block is recovered as one row-sparse target (Tropp, Gilbert & Strauss 2006).
The solver reads the composite operator C Psi only through
sensing.SensingOperator, which is imported here for recover_modes: one
adjoint per iteration, the Gram on the merged support (for pixel C a
gather from one FFT of the sampling mask), and the columns of the K kept
atoms for the residual.  The first adjoint, (C Psi)^H y, is both the
first proxy and every least-squares right-hand side.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, NoProgress, ZeroInput
from .sensing import SensingOperator

MAX_ITERS = 50
RESIDUAL_TOL = 1e-6
STALL_WINDOW = 3
STALL_REL_DECREASE = 1e-4
TIKHONOV_FLOOR = 1e-12
FAILURE_RESIDUAL = 0.5


@dataclass(frozen=True)
class RecoveryConfig:
    sparsity_K: int

    def __post_init__(self):
        if self.sparsity_K < 1:
            raise DimensionError("sparsity_K must be >= 1")


@dataclass(frozen=True)
class RecoveredMode:
    """Sparse coefficients (n x r for a block), their synthesis, and solver diagnostics."""

    coeffs: np.ndarray
    spatial: np.ndarray
    residual: float
    iters: int


def cosamp(A_apply, y, cfg: RecoveryConfig) -> RecoveredMode:
    """Recover a K-sparse coefficient vector from y ~ A s, or a K-row-sparse
    n x r block from a p x r block y: by row norms, one solve with r
    right-hand sides, and the Frobenius residual.

    A is read through ``adjoint``, ``gram`` and ``columns``, once each per
    iteration: the adjoint of the residual is the proxy (the first one,
    A^H y, is also the right-hand side), ``gram`` gives A^H A on the merged
    support for the least-squares step, and ``columns`` gives the K kept
    atoms for the residual.  An operator without ``gram`` is read through
    its columns on the merged support.  Keeps the best iterate seen so far,
    so the reported residual is non-increasing over accepted iterations.
    Halts at ``RESIDUAL_TOL``, on stall (relative residual decrease below
    1e-4 across 3 iterations), or after ``MAX_ITERS``.

    Raises
    ------
    ZeroInput
        If y is numerically zero.
    NoProgress
        If the solver halts with relative residual above 0.5.
    """
    p, n = A_apply.shape
    K = cfg.sparsity_K
    y = np.asarray(y, dtype=complex)
    ynorm = np.linalg.norm(y)
    if ynorm < 1e-150:
        raise ZeroInput("measurement vector is numerically zero")
    if p < 2 * K:
        warnings.warn(
            f"only p={p} measurements for sparsity K={K}; recovery may fail",
            RuntimeWarning,
            stacklevel=2,
        )

    top = min(2 * K, n)
    magnitudes = np.abs if y.ndim == 1 else (lambda v: np.linalg.norm(v, axis=1))

    def column_gram(idx):
        # for an operator that offers adjoint and columns only, such as the
        # timing proxy in bench/tracing.py
        cols = A_apply.columns(idx)
        return cols.conj().T @ cols

    gram = getattr(A_apply, "gram", column_gram)
    support = best_support = np.array([], dtype=int)
    best_coef = np.array([], dtype=complex)
    best_res = np.inf
    history = []
    # the first proxy, and on every support the least-squares right-hand side
    rhs = A_apply.adjoint(y)
    iters = 0
    for iters in range(1, MAX_ITERS + 1):
        proxy = magnitudes(rhs if iters == 1 else A_apply.adjoint(residual))
        # union1d sorts, so the 2K largest need no order among themselves
        candidates = np.argpartition(proxy, -top)[-top:]
        merged = np.union1d(support, candidates)
        G = gram(merged) + TIKHONOV_FLOOR * np.eye(len(merged))
        coef = np.linalg.solve(G, rhs[merged])
        keep = np.argsort(magnitudes(coef))[-K:]
        support = merged[keep]
        residual = y - A_apply.columns(support) @ coef[keep]
        rel = np.linalg.norm(residual) / ynorm
        if rel < best_res:
            best_res, best_support, best_coef = rel, support, coef[keep]
        history.append(best_res)
        if best_res <= RESIDUAL_TOL:
            break
        if len(history) > STALL_WINDOW:
            prev = history[-1 - STALL_WINDOW]
            if prev - history[-1] < STALL_REL_DECREASE * prev:
                break

    if best_res > FAILURE_RESIDUAL:
        raise NoProgress(
            f"residual {best_res:.3f} after {iters} iterations; "
            "too few measurements or target not sparse"
        )
    coeffs = np.zeros((n,) + y.shape[1:], dtype=complex)
    coeffs[best_support] = best_coef
    return RecoveredMode(
        coeffs=coeffs,
        spatial=A_apply.synthesize(coeffs),
        residual=float(best_res),
        iters=iters,
    )


def recover_modes(Y, op: SensingOperator, cfg):
    """Recover full-state fields from a p x k block Y of measured columns.

    Each column (a measured DMD mode in 2B) is an independent CoSaMP
    problem; a failed column does not abort the rest.  A complex column
    that is exactly the conjugate of an earlier one (the measured modes of
    a real pair come in such pairs) is not solved again: it takes the
    conjugate of the earlier column's recovery, or the same exception.
    Returns the n x k recovered fields, zero where recovery failed, and one
    diagnostic per column: its RecoveredMode, or the ZeroInput or
    NoProgress exception it raised.
    """
    fields = np.zeros((op.C.n, Y.shape[1]), dtype=complex)
    diagnostics = []
    for j, y in enumerate(Y.T):
        twin = None
        if np.any(y.imag):  # a real or zero column is its own conjugate: always solved
            twin = next((i for i in range(j) if np.array_equal(y, Y[:, i].conj())), None)
        if twin is not None:
            diag = diagnostics[twin]
            if isinstance(diag, RecoveredMode):
                # C is real, so the conjugate field fits conj(y) as well: its
                # coefficient at k is conj s(-k), its residual and iterations the same
                mirror = op.psi.conjugate(np.arange(op.psi.n))
                diag = replace(diag, coeffs=diag.coeffs[mirror].conj(), spatial=diag.spatial.conj())
        else:
            try:
                diag = cosamp(op, y, cfg)
            except (ZeroInput, NoProgress) as exc:
                diag = exc
        if isinstance(diag, RecoveredMode):
            fields[:, j] = diag.spatial
        diagnostics.append(diag)
    return fields, diagnostics
