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
real synthesis on the rfft2 half plane kx <= nx//2, and a real
least-squares step: each pair is two real unknowns, the cos and the sin
of its field, and a self-conjugate atom one.
"""

import math
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


def _rows(v, ndim):
    """A vector of one value per row, shaped to broadcast over an ndim-d block."""
    return v.reshape((-1,) + (1,) * (ndim - 1))


class _Atoms:
    """CoSaMP's support model for a generic target: any K atoms, picked and
    pruned one by one through the operator's full-plane adjoint, ranked by
    ``weight``, |s| of an entry or the norm of a row."""

    def __init__(self, op, K, weight):
        self.op, self.K, self.weight = op, K, weight
        self.top = min(2 * K, op.shape[1])
        self.adjoint, self.synthesize = op.adjoint, op.synthesize
        self.gram = getattr(op, "gram", self.column_gram)

    def column_gram(self, idx):
        # for an operator that offers adjoint and columns only, such as the
        # timing proxy in bench/tracing.py
        cols = self.op.columns(idx)
        return cols.conj().T @ cols

    def candidates(self, proxy):
        # union1d sorts, so the 2K largest need no order among themselves
        return np.argpartition(self.weight(proxy), -self.top)[-self.top:]

    def gather(self, rhs, idx):
        return rhs[idx]

    def prune(self, merged, coef):
        keep = np.argsort(self.weight(coef))[-self.K:]
        return merged[keep], coef[keep]

    def measure(self, support, coef):
        return self.op.columns(support) @ coef

    def result(self, support, coef):
        return support, coef


class _ConjugatePairs(_Atoms):
    """The block-of-two model for a real target: a real field's DFT
    coefficients at k and -k are conjugates, so the pair {k, -k} is picked
    and pruned whole, and the adjoint and synthesis run on the rfft2 half
    plane kx <= nx//2, which holds one member of every pair (both, on the
    kx = 0 and kx = nx/2 columns).  A pair is held by its representative,
    the smaller of k and -k, and solved for in real unknowns, the
    coefficients of the real atoms of SensingOperator.real_gram: the cos
    of every representative, then the sin of every pair.  Pairs are ranked
    by their energy, |s_k|^2 + |s_-k|^2 = cos^2 + sin^2 (summed along the
    row of a block)."""

    def __init__(self, op, K):
        super().__init__(op, K, _energy)
        self.psi = op.psi
        self.adjoint, self.synthesize = op.real_adjoint, op.real_synthesize
        self.gram = op.real_gram

    def candidates(self, proxy):
        nx, ny = self.psi.grid
        weight = self.weight(proxy).reshape(ny, -1)
        # the kx = 0 and kx = nx/2 columns hold both members of their pairs:
        # rank each pair once, by its entry with ky <= ny//2
        weight[ny // 2 + 1 :, [0, nx // 2] if nx % 2 == 0 else [0]] = -1.0
        top = min(self.K, weight.size)
        ky, kx = np.divmod(np.argpartition(weight.ravel(), -top)[-top:], weight.shape[1])
        atoms = ky * nx + kx
        return np.minimum(atoms, self.psi.conjugate(atoms))

    def pairs(self, reps):
        return reps != self.psi.conjugate(reps)

    def gather(self, rhs, merged):
        # the real atoms' right-hand side: sqrt(2) Re b (Re b alone at a
        # self-conjugate atom), then -sqrt(2) Im b at the pairs, from the
        # half-plane b = (C Psi)^H y, conjugated where mirrored
        half, mirror = self.psi.fold(merged)
        b = rhs[half]
        b = np.where(_rows(mirror, b.ndim), b.conj(), b)
        pair = self.pairs(merged)
        scale = _rows(np.where(pair, math.sqrt(2), 1.0), b.ndim)
        return np.concatenate([scale * b.real, -math.sqrt(2) * b.imag[pair]])

    def prune(self, merged, coef):
        # whole pairs, by root-mean-square magnitude, ties to the smaller
        # index, while they fit in K atoms
        pair, R = self.pairs(merged), len(merged)
        energy = self.weight(coef[:R])
        energy[pair] += self.weight(coef[R:])
        size = np.where(pair, 2, 1)
        kept, room = np.zeros(R, dtype=bool), self.K
        for j in np.lexsort((merged, -energy / size)):
            if size[j] <= room:
                kept[j], room = True, room - size[j]
        return merged[kept], coef[np.concatenate([kept, kept[pair]])]

    def twice(self, reps, coef):
        """2 s_k at a pair's representative k, s_k at a self-conjugate one:
        the coefficients whose atoms at the representatives measure, by
        their real part, to the field of the real unknowns coef."""
        pair, R = self.pairs(reps), len(reps)
        h = _rows(np.where(pair, math.sqrt(2), 1.0), coef.ndim) * coef[:R] + 0j
        h.imag[pair] = -math.sqrt(2) * coef[R:]
        return h

    def measure(self, reps, coef):
        # C is real, so the atoms of k and -k measure to conjugate columns
        # and a pair to twice the real part of one: only the
        # representatives' atoms are read
        return (self.op.columns(reps) @ self.twice(reps, coef)).real

    def result(self, reps, coef):
        """The support closed under conjugation, sorted, and its Hermitian
        coefficients, s_-k = conj s_k bit for bit."""
        pair = self.pairs(reps)
        s = self.twice(reps, coef)
        s[pair] /= 2
        support = np.concatenate([reps, self.psi.conjugate(reps[pair])])
        order = np.argsort(support)
        return support[order], np.concatenate([s, s[pair].conj()])[order]


def cosamp(A_apply, y, cfg: RecoveryConfig) -> RecoveredMode:
    """Recover a K-sparse s from y ~ A s, or a K-row-sparse n x r block from
    a p x r block y (by row norms, one solve with r right-hand sides, and
    the Frobenius residual), as its support, values there and synthesis.

    A is read through ``adjoint``, ``gram`` and ``columns``, once each per
    iteration: the adjoint of the residual is the proxy (the first one,
    A^H y, is also the right-hand side), ``gram`` gives A^H A on the merged
    support for the least-squares step, and ``columns`` gives the kept
    atoms for the residual: K of them (for pixel C, K closed-form atoms
    from sensing.basis_atoms), about K/2 on the pair model below.  An
    operator without ``gram`` is read through its columns on the merged
    support.  Keeps the best iterate seen so far,
    so the reported residual is non-increasing over accepted iterations.
    Halts at ``RESIDUAL_TOL``, on stall (relative residual decrease below
    1e-4 across 3 iterations), or after ``MAX_ITERS``.  The least-squares
    step reads only the merged support and the fixed right-hand side, so
    once a merged support repeats the previous one, that iterate and every
    later one repeat it bit for bit: from there A is not read again, and
    the remaining iterations only advance the stall count, so the result
    and the iteration count are those of the loop run out in full.

    Two support models share the one loop.  A target with any nonzero
    imaginary part, or an operator without a sparse basis ``psi``, takes
    the atom-wise model: the 2K largest proxy entries are the candidates,
    and the K largest coefficients are kept.  A real target on an operator
    with ``psi`` (a SensingOperator) is a real field, whose coefficients at
    k and -k = psi.conjugate(k) are conjugates, and takes the pair model
    (the block-of-two model of Baraniuk et al., Model-based compressive
    sensing, 2010).  A pair is held by its representative, the smaller
    of k and -k.  Its adjoint is ``real_adjoint``, one real scatter or
    product and one rfft2 onto the half plane; the candidates are the
    representatives of the K largest half-plane proxy entries, each pair
    counted once.  The least squares is real: a pair's unknowns are the
    cos and the sin of its field, a self-conjugate atom's (kx and ky each
    0 or half the grid) its one real coefficient, their Gram is
    ``real_gram`` on the merged representatives, and their right-hand
    side the first adjoint read at the representatives.  The prune keeps
    whole pairs, ranked by the root-mean-square magnitude of their
    coefficients (ties to the smaller flat index), while they fit in K
    atoms, a self-conjugate atom counting as one.  So an odd K leaves one
    slot that only a self-conjugate atom fills, and K = 1 keeps the largest
    self-conjugate atom alone.  The residual reads ``columns`` of the kept
    representatives only, one atom per pair: C is real, so a pair measures
    to twice the real part of one member.  The returned support is closed
    under psi.conjugate and sorted, its values exactly Hermitian (the
    value at -k is the conjugate of the value at k, bit for bit), and the
    field is ``real_synthesize``, one irfft2: a real array.

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

    support = best_support = merged = np.array([], dtype=int)
    best_coef = np.array([], dtype=complex)
    best_res = np.inf
    history = []
    # the first proxy, and on every support the least-squares right-hand side
    rhs = model.adjoint(y)
    fixed = False
    iters = 0
    for iters in range(1, MAX_ITERS + 1):
        if not fixed:
            proxy = rhs if iters == 1 else model.adjoint(residual)
            previous, merged = merged, np.union1d(support, model.candidates(proxy))
            # the solve reads only the merged support and rhs: a repeated one
            # repeats this iterate, and so every later one, bit for bit
            fixed = np.array_equal(merged, previous)
        if not fixed:
            G = model.gram(merged)
            coef = np.linalg.solve(G + TIKHONOV_FLOOR * np.eye(len(G)), model.gather(rhs, merged))
            support, coef = model.prune(merged, coef)
            residual = y - model.measure(support, coef)
            rel = np.linalg.norm(residual) / ynorm
            if rel < best_res:
                best_res, best_support, best_coef = rel, support, coef
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
    support, values = model.result(best_support, best_coef)
    coeffs = np.zeros((n,) + y.shape[1:], dtype=complex)
    coeffs[support] = values
    return RecoveredMode(
        support=support,
        values=values,
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
