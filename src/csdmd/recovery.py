"""Greedy sparse recovery of mode coefficients from few measurements.

The workhorse is a complex-valued CoSaMP: identify candidate support from
the adjoint proxy, solve least squares on the merged support, prune to the
K largest coefficients, repeat until the residual is small or stalls, and
return the kept support, its values and their synthesis.  A block is
recovered as one row-sparse target (Tropp, Gilbert & Strauss 2006).  The
solver reads the composite operator C Psi only through the
sensing.SensingOperator imported here for recover_modes: one adjoint per
iteration, the Gram on the merged support (for pixel C a gather from one
FFT of the sampling mask), and the columns of the K kept atoms for the
residual.  The first adjoint, (C Psi)^H y, is both the first proxy and
every least-squares right-hand side.

One loop runs two support models.  A complex target, or any target on an
operator without the sparse basis, is recovered atom by atom through the
full-plane adjoint.  A real target on C Psi (a measured mode with real
eigenvalue, 2A's measured range of real data) is a real field: C is real,
so its DFT coefficients at k and -k are conjugates.  It is recovered by
conjugate pairs, the block-of-two model of Baraniuk, Cevher, Duarte &
Hegde (Model-based compressive sensing, 2010), with a real adjoint and a
real synthesis on the rfft2 half plane kx <= nx//2.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoProgress, ZeroInput, check_count
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
        check_count(self.sparsity_K, "sparsity_K", 1)


@dataclass(frozen=True)
class RecoveredMode:
    """What CoSaMP kept, ``support`` (flat indices of atoms, or of rows) and
    ``values`` (|S| or |S| x r), their synthesis ``spatial`` (a real array
    for a real target on C Psi), and solver diagnostics."""

    support: np.ndarray
    values: np.ndarray
    spatial: np.ndarray
    residual: float
    iters: int


def _energy(v):
    """|v|^2 of each entry of a vector, or summed along each row of a block."""
    if v.ndim == 1:
        return v.real**2 + v.imag**2
    parts = np.ascontiguousarray(v).view(v.real.dtype)
    return np.einsum("ij,ij->i", parts, parts)


class _Atoms:
    """CoSaMP's support model for a generic target: any K atoms, picked and
    pruned one by one through the operator's full-plane adjoint, ranked by
    ``weight``, |s| of an entry or the norm of a row."""

    def __init__(self, op, K, weight):
        self.op, self.K, self.weight = op, K, weight
        self.top = min(2 * K, op.shape[1])
        self.adjoint, self.synthesize = op.adjoint, op.synthesize

    def candidates(self, proxy):
        # union1d sorts, so the 2K largest need no order among themselves
        return np.argpartition(self.weight(proxy), -self.top)[-self.top:]

    def gather(self, rhs, idx):
        return rhs[idx]

    def prune(self, merged, coef):
        return np.argsort(self.weight(coef))[-self.K:]

    def measure(self, support, coef):
        return self.op.columns(support) @ coef


class _ConjugatePairs(_Atoms):
    """The block-of-two model for a real target: a real field's DFT
    coefficients at k and -k are conjugates, so the pair {k, -k} is picked
    and pruned whole, and the adjoint and synthesis run on the rfft2 half
    plane kx <= nx//2, which holds one member of every pair (both, on the
    kx = 0 and kx = nx/2 columns).  Entries and rows are ranked by their
    energy, |s|^2."""

    def __init__(self, op, K):
        super().__init__(op, K, _energy)
        self.psi = op.psi
        self.adjoint, self.synthesize = op.real_adjoint, op.real_synthesize

    def candidates(self, proxy):
        nx, ny = self.psi.grid
        weight = self.weight(proxy).reshape(ny, -1)
        # the kx = 0 and kx = nx/2 columns hold both members of their pairs:
        # rank each pair once, by its entry with ky <= ny//2
        weight[ny // 2 + 1 :, [0, nx // 2] if nx % 2 == 0 else [0]] = -1.0
        top = min(self.K, weight.size)
        ky, kx = np.divmod(np.argpartition(weight.ravel(), -top)[-top:], weight.shape[1])
        atoms = ky * nx + kx
        return np.concatenate([atoms, self.psi.conjugate(atoms)])

    def gather(self, rhs, idx):
        half, mirror = self.psi.fold(idx)
        b = rhs[half]
        return np.where(mirror.reshape((-1,) + (1,) * (b.ndim - 1)), b.conj(), b)

    def prune(self, merged, coef):
        ids, pair, size = np.unique(
            np.minimum(merged, self.psi.conjugate(merged)), return_inverse=True, return_counts=True
        )
        energy = np.bincount(pair, weights=self.weight(coef))
        kept, room = np.zeros(len(ids), dtype=bool), self.K
        for j in np.lexsort((ids, -energy / size)):
            if size[j] <= room:
                kept[j], room = True, room - size[j]
        return kept[pair]

    def measure(self, support, coef):
        # on a conjugate-closed support the imaginary part is rounding alone
        return super().measure(support, coef).real


def cosamp(A_apply, y, cfg: RecoveryConfig) -> RecoveredMode:
    """Recover a K-sparse s from y ~ A s, or a K-row-sparse n x r block from
    a p x r block y (by row norms, one solve with r right-hand sides, and
    the Frobenius residual), as its support, values there and synthesis.

    A is read through ``adjoint``, ``gram`` and ``columns``, once each per
    iteration: the adjoint of the residual is the proxy (the first one,
    A^H y, is also the right-hand side), ``gram`` gives A^H A on the merged
    support for the least-squares step, and ``columns`` gives the K kept
    atoms for the residual.  An operator without ``gram`` is read through
    its columns on the merged support.  Keeps the best iterate seen so far,
    so the reported residual is non-increasing over accepted iterations.
    Halts at ``RESIDUAL_TOL``, on stall (relative residual decrease below
    1e-4 across 3 iterations), or after ``MAX_ITERS``.

    Two support models share the one loop.  A target with any nonzero
    imaginary part, or an operator without a sparse basis ``psi``, takes
    the atom-wise model: the 2K largest proxy entries are the candidates,
    and the K largest coefficients are kept.  A real target on an operator
    with ``psi`` (a SensingOperator) is a real field, whose coefficients at
    k and -k = psi.conjugate(k) are conjugates, and takes the pair model
    (the block-of-two model of Baraniuk et al., Model-based compressive
    sensing, 2010).  Its adjoint is ``real_adjoint``, one real scatter or
    product and one rfft2 onto the half plane; the candidates are the K
    largest half-plane proxy entries, each pair counted once, with their
    conjugates; the right-hand side is the first adjoint folded onto the
    merged support; the prune keeps whole pairs, ranked by the
    root-mean-square magnitude of their coefficients (ties to the smaller
    flat index), while they fit in K atoms, a self-conjugate atom (kx and
    ky each 0 or half the grid) counting as one.  So an odd K leaves one
    slot that only a self-conjugate atom fills, and K = 1 keeps the largest
    self-conjugate atom alone.  Every kept support is closed under
    psi.conjugate, the residual is the real part of y - A s, and the field
    is ``real_synthesize``, one irfft2: a real array.

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

    if hasattr(A_apply, "psi") and not np.any(y.imag):
        y, model = y.real, _ConjugatePairs(A_apply, K)
    else:
        norms = np.abs if y.ndim == 1 else (lambda v: np.linalg.norm(v, axis=1))
        model = _Atoms(A_apply, K, norms)

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
    rhs = model.adjoint(y)
    iters = 0
    for iters in range(1, MAX_ITERS + 1):
        proxy = rhs if iters == 1 else model.adjoint(residual)
        merged = np.union1d(support, model.candidates(proxy))
        G = gram(merged) + TIKHONOV_FLOOR * np.eye(len(merged))
        coef = np.linalg.solve(G, model.gather(rhs, merged))
        keep = model.prune(merged, coef)
        support = merged[keep]
        residual = y - model.measure(support, coef[keep])
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
        support=best_support,
        values=best_coef,
        spatial=model.synthesize(coeffs),
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

    The fields are one complex column-major n x k block made before the
    first solve, and a RecoveredMode's spatial is a view of its column
    (complex, a real field too), beside the at most K atoms it kept.  So
    no n-vector outlives the column that made it, every column's CoSaMP
    reuses the memory the previous one freed, and io.write_matrix writes
    the fields without a copy: in a long-running process the heap
    returns to the same size after every call.
    """
    fields = np.zeros((op.C.n, Y.shape[1]), dtype=complex, order="F")
    diagnostics = []
    for j, y in enumerate(Y.T):
        twin = None
        if np.any(y.imag):  # a real or zero column is its own conjugate: always solved
            twin = next((i for i in range(j) if np.array_equal(y, Y[:, i].conj())), None)
        if twin is not None:
            diag = diagnostics[twin]
            if isinstance(diag, RecoveredMode):
                # C is real, so the conjugate field fits conj(y) as well: its
                # coefficient at -k is conj s(k), its residual and iterations the same
                diag = replace(diag, support=op.psi.conjugate(diag.support),
                               values=diag.values.conj(), spatial=diag.spatial.conj())
        else:
            try:
                diag = cosamp(op, y, cfg)
            except (ZeroInput, NoProgress) as exc:
                diag = exc
        if isinstance(diag, RecoveredMode):
            fields[:, j] = diag.spatial
            diag = replace(diag, spatial=fields[:, j])
        diagnostics.append(diag)
    return fields, diagnostics
