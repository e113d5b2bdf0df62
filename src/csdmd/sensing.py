"""Measurement operators, the sparse basis, C Psi, and sampling diagnostics.

Measurements map a length-n state to p << n observations.  Random
Gaussian and Bernoulli ensembles are scaled to near-unit row norm so the
composite operator (measurement after basis synthesis) acts close to an
isometry on sparse vectors; single-pixel measurement is plain row
selection.  The sparse basis is the unitary 2-d discrete Fourier
transform on the state grid.  SensingOperator, the composite C Psi that
sparse recovery reads, also reports its mutual coherence.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, check_count

KINDS = ("gaussian", "bernoulli", "pixel", "unitary")


@dataclass(frozen=True)
class MeasurementMatrix:
    """A real p x n measurement operator, checked on construction.

    Dense kinds carry their entries in ``payload``; the pixel kind stores
    the selected row indices instead and never materializes a matrix.
    """

    kind: str
    p: int
    n: int
    seed: Optional[int] = None
    payload: Optional[np.ndarray] = None
    indices: Optional[np.ndarray] = None

    def __post_init__(self):
        p, n = self.p, self.n
        if self.kind not in KINDS:
            raise DimensionError(f"unknown measurement kind {self.kind!r}")
        if not 1 <= p <= n:
            raise DimensionError(f"need 1 <= p <= n, got p={p}, n={n}")
        if self.kind == "pixel":
            idx = np.asarray(self.indices)
            if not (idx.shape == (p,) and idx.dtype.kind in "iu" and idx[0] >= 0
                    and idx[-1] < n and np.all(np.diff(idx) > 0)):
                raise DimensionError(
                    f"pixel indices are not {p} strictly increasing integers in [0, {n})"
                )
        elif np.shape(self.payload) != (p, n) or np.iscomplexobj(self.payload):
            raise DimensionError(f"{self.kind} payload is not a real {p} x {n} matrix")


def make_measurement(kind, p, n, seed=None) -> MeasurementMatrix:
    """Construct a measurement operator, deterministic per (kind, p, n, seed).

    kind is one of gaussian, bernoulli, pixel, unitary.  The unitary kind
    is a real random co-isometry: its p rows are orthonormal.
    """
    # before the draw: the Bernoulli branch below takes any other kind
    if kind not in KINDS:
        raise DimensionError(f"unknown measurement kind {kind!r}")
    if not (1 <= p <= n):
        raise DimensionError(f"need 1 <= p <= n, got p={p}, n={n}")
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
        return MeasurementMatrix(kind, p, n, seed, payload=np.ascontiguousarray(Q.T))
    if kind == "pixel":
        idx = np.sort(rng.choice(n, size=p, replace=False))
        return MeasurementMatrix(kind, p, n, seed, indices=idx)
    if kind == "gaussian":
        C = rng.standard_normal((p, n))
        C /= np.sqrt(p)  # in place: no second p x n array
    else:  # bernoulli
        C = (rng.integers(0, 2, size=(p, n)) * 2.0 - 1.0) / np.sqrt(p)
    return MeasurementMatrix(kind, p, n, seed, payload=C)


def check_rows(C: MeasurementMatrix, rows):
    """A DimensionError unless C measures a state of rows rows."""
    if rows != C.n:
        raise DimensionError(f"operand has {rows} rows, measurement expects {C.n}")


def apply_measurement(C: MeasurementMatrix, X):
    """Compute Y = C X for a matrix or single vector X: a pixel C gathers
    its rows, column-major as io.PanelReader.rows gathers them, so a fit
    of Y sums the same Gram from either."""
    X = np.asarray(X)
    if C.kind == "pixel":
        check_rows(C, X.shape[0])
        return np.asfortranarray(X[C.indices])
    return measure_panels(C, X.shape[0], [(0, X)])


def measure_panels(C: MeasurementMatrix, rows, panels):
    """Compute Y = C X for a dense C and the rows-row X given as
    (start, P) row panels, P holding rows start ... start+len(P)-1 of X,
    as the sum of C[:, start:start+len(P)] P."""
    check_rows(C, rows)
    Y = None
    for start, P in panels:
        block = C.payload[:, start : start + len(P)]
        if np.iscomplexobj(P):
            # one real GEMM on the interleaved (re, im) pairs, column 2j Re x_j
            # and column 2j+1 Im x_j, so the real payload is never cast to
            # complex (a 2x larger copy per call)
            flat = np.ascontiguousarray(P).reshape(len(P), -1)
            part = (block @ flat.view(flat.real.dtype)).view(flat.dtype)
            part = part.reshape((C.p,) + P.shape[1:])
        else:
            part = block @ P
        if Y is None:
            Y = part
        else:
            Y += part
    return Y


def adjoint_measurement(C: MeasurementMatrix, Y):
    """Compute C^H Y (scatter for the pixel kind)."""
    Y = np.asarray(Y)
    if Y.shape[0] != C.p:
        raise DimensionError(f"operand has {Y.shape[0]} rows, expected {C.p}")
    if C.kind == "pixel":
        out_shape = (C.n,) + Y.shape[1:]
        out = np.zeros(out_shape, dtype=Y.dtype)
        out[C.indices] = Y
        return out
    if np.iscomplexobj(Y):
        # (Y^T C)^T: a (2k, p) by (p, n) product reads C row by row, ~2x
        # faster than C^T Y for the few columns CoSaMP passes
        flat = np.ascontiguousarray(Y).reshape(C.p, -1)
        X = np.ascontiguousarray((flat.view(flat.real.dtype).T @ C.payload).T)
        return X.view(flat.dtype).reshape((C.n,) + Y.shape[1:])
    return C.payload.T @ Y


def check_grid(grid):
    """grid as a tuple (nx, ny), if it holds two integers >= 1; else a
    DimensionError."""
    if not isinstance(grid, (tuple, list)) or len(grid) != 2:
        raise DimensionError(f"a grid is two integers (nx, ny), got {grid!r}")
    for size in grid:
        check_count(size, f"a side of grid {grid!r}", 1)
    return tuple(grid)


@dataclass(frozen=True)
class SparseBasis:
    """Unitary 2-d DFT synthesis basis on an (nx, ny) grid, checked on
    construction.

    The forward direction maps coefficient vectors to spatial fields
    (x = Psi s); the inverse direction is the analysis transform.  Both
    use the symmetric 1/sqrt(n) normalization, so the basis is unitary.
    """

    grid: tuple

    def __post_init__(self):
        if self.grid is None:
            raise DimensionError("the sparse basis needs grid metadata")
        check_grid(self.grid)

    @property
    def n(self):
        nx, ny = self.grid
        return nx * ny

    def conjugate(self, idx):
        """The flat index of -k for each flat index k = ky*nx + kx: a real
        field's coefficient at -k is the conjugate of its coefficient at k."""
        nx, ny = self.grid
        ky, kx = np.divmod(np.asarray(idx), nx)
        return (-ky % ny) * nx + (-kx % nx)

    def fold(self, idx):
        """Where each flat index k sits on the rfft2 half plane kx <= nx//2
        (flat, ny x (nx//2 + 1)), and whether it was mirrored: for
        kx > nx//2 the plane holds -k, and a real field's coefficient at k
        is the conjugate of that entry."""
        nx = self.grid[0]
        idx = np.asarray(idx)
        mirror = idx % nx > nx // 2
        ky, kx = np.divmod(np.where(mirror, self.conjugate(idx), idx), nx)
        return ky * (nx // 2 + 1) + kx, mirror


def apply_basis(psi: SparseBasis, s, direction="forward"):
    """Apply the basis (or its inverse) to one vector or to matrix columns.

    forward: spatial field from coefficients, via the inverse unitary FFT.
    inverse: coefficients from a spatial field, via the forward unitary FFT.
    Both transform axes (0, 1) of the (ny, nx, k) view of the columns.
    """
    transform = {"forward": np.fft.ifft2, "inverse": np.fft.fft2}.get(direction)
    if transform is None:
        raise DimensionError(f"direction must be forward or inverse, got {direction!r}")
    v = np.asarray(s)
    if v.shape[0] != psi.n:
        raise DimensionError(f"vector length {v.shape[0]} != grid size {psi.n}")
    nx, ny = psi.grid
    out = transform(v.reshape((ny, nx) + v.shape[1:]), axes=(0, 1), norm="ortho")
    return out.reshape(v.shape)


def basis_atoms(psi: SparseBasis, idx, rows=None):
    """Basis columns idx, the atoms apply_basis synthesizes from one-hot
    coefficients, at grid rows ``rows`` (all rows when omitted).

    Atom k = ky*nx + kx at row iy*nx + ix is
    exp(2 pi i (kx ix / nx + ky iy / ny)) / sqrt(n), taken from an nx x |S|
    and an ny x |S| table of roots of unity (the nx roots scaled by
    1/sqrt(n) before the gather).  The phases are reduced mod nx (mod ny)
    as integers, so large grids keep full accuracy.
    """
    nx, ny = psi.grid
    ky, kx = np.divmod(np.asarray(idx), nx)
    iy, ix = np.divmod(np.arange(psi.n) if rows is None else np.asarray(rows), nx)

    def table(k, size, scale=1.0):
        roots = np.exp(2j * np.pi * np.arange(size) / size) / scale
        return roots[np.outer(np.arange(size), k) % size]

    return table(ky, ny)[iy] * table(kx, nx, np.sqrt(psi.n))[ix]


class SensingOperator:
    """The composite operator C Psi (measure after basis synthesis) and its
    mutual coherence: the largest normalized inner product between
    measurement rows and basis columns; low values favor sparse recovery.

    Recovery reads it through ``adjoint`` (C Psi)^H y, which goes through
    the FFT, ``gram(idx)``, the Gram (C Psi)^H (C Psi) on a support, and
    ``columns(idx)``.  As the DFT matrix is symmetric, row i of C Psi is
    the basis synthesis of measurement row i.  The row is real, so that
    synthesis is the conjugate of its forward transform, whose Hermitian
    half holds every entry: for a dense C, the table is the
    p x ny x (nx//2 + 1) complex rfft2 of the rows, about the size of the
    real payload, in one FFT call.  The coherence is read from it, column
    k = (ky, kx) is the conjugate of table entry k, or for kx > nx//2 entry
    psi.conjugate(k) itself (the places psi.fold gives), and the Gram is
    the product of the columns.

    A real target is read through the same half plane: ``real_adjoint``
    is C^H y, real, by one rfft2, and ``real_synthesize`` the real field
    of Hermitian coefficients by one irfft2.  Its least squares runs in
    real unknowns, the cos and sin of each conjugate pair, whose Gram is
    ``real_gram``.

    The pixel kind has no table (None): every entry of C Psi has magnitude
    1/sqrt(n), and its columns are closed-form atoms at the sampled rows,
    so no pixels-by-grid array is formed.  Its Gram Psi^H diag(mask) Psi
    is 2-d circulant: entry (k, l) is H[(ly - ky) mod ny, (lx - kx) mod nx]
    for the ny x nx table H = ifft2(mask), built once, so a Gram on a
    support is a gather and needs no columns.
    """

    def __init__(self, C: MeasurementMatrix, psi: SparseBasis):
        if C.n != psi.n:
            raise DimensionError(f"measurement n={C.n} does not match basis n={psi.n}")
        self.C, self.psi, self.shape = C, psi, (C.p, C.n)
        nx, ny = psi.grid
        if C.kind == "pixel":
            mask = np.zeros(C.n)
            mask[C.indices] = 1.0
            self.coherence, self.table = 1.0 / math.sqrt(C.n), None
            self.circulant = np.fft.ifft2(mask.reshape(ny, nx))
            return
        # the rfft2 writes straight into the table and the coherence is read
        # row by row, so next to C only the table is held: no rfft2
        # intermediate, |table| or C * C of the same size (same values, bit for bit)
        table = np.empty((C.p, ny, nx // 2 + 1), dtype=complex)
        np.fft.rfft2(C.payload.reshape(C.p, ny, nx), norm="ortho", out=table)
        peak = max(np.abs(t).max() / np.sqrt(np.add.reduce(c * c)) for t, c in zip(table, C.payload))
        self.coherence, self.table = float(peak), table

    def adjoint(self, y):
        return apply_basis(self.psi, adjoint_measurement(self.C, y), "inverse")

    def real_adjoint(self, y):
        """(C Psi)^H y for a real y, on the rfft2 half plane psi.fold indexes:
        C^H y is real, so its spectrum is Hermitian and the half holds it."""
        nx, ny = self.psi.grid
        x = adjoint_measurement(self.C, y)
        half = np.fft.rfft2(x.reshape((ny, nx) + x.shape[1:]), axes=(0, 1), norm="ortho")
        return half.reshape((-1,) + x.shape[1:])

    def gram(self, idx):
        if self.table is not None:
            cols = self.columns(idx)
            return cols.conj().T @ cols
        nx, ny = self.psi.grid
        ky, kx = np.divmod(np.asarray(idx), nx)
        return self.circulant[(ky - ky[:, None]) % ny, (kx - kx[:, None]) % nx]

    def real_gram(self, reps):
        """The Gram of the real atoms of representatives reps, each k with
        k <= -k = psi.conjugate(k): the unknowns of a real target.  A pair
        {k, -k} holds two real atoms, sqrt(2) Re and sqrt(2) Im of column k
        of C Psi (the cos and the sin of its field), a self-conjugate k
        (kx and ky each 0 or half the grid) one, column k itself, which is
        real; the order is the cos of every representative, then the sin
        of every pair.  They are orthonormal where C Psi is, and
        coefficients c on a cos and d on a sin measure as the Hermitian s
        with s_k = (c - i d) / sqrt(2) at a pair (s_-k = conj s_k) and
        s_k = c at a self-conjugate k.

        For pixel C the entries are read from H at l - k and l + k: with
        v = 1 at a pair and 1/sqrt(2) at a self-conjugate k, the products
        are v_k v_l (Re H[l-k] + Re H[l+k]) of two cos,
        v_k (Im H[l-k] + Im H[l+k]) of the cos of k and the sin of l, and
        Re H[l-k] - Re H[l+k] of two sin, from half the entries of the
        complex Gram on the pairs' 2 |reps| atoms."""
        reps = np.asarray(reps)
        pair = reps != self.psi.conjugate(reps)
        if self.table is not None:
            cols = self.columns(reps)
            atoms = np.hstack([np.where(pair, math.sqrt(2), 1.0) * cols.real,
                               math.sqrt(2) * cols.imag[:, pair]])
            return atoms.T @ atoms
        nx = self.psi.grid[0]
        R, P = len(reps), np.count_nonzero(pair)
        ky, kx = np.divmod(reps, nx)
        ry, rx = np.divmod(np.concatenate([reps, self.psi.conjugate(reps)]), nx)
        # rows k then -k, columns l: H[l - k] over H[l + k]; each difference
        # lies within one side of the grid, and a negative index wraps
        both = self.circulant[ky - ry[:, None], kx - rx[:, None]]
        diff, total = both[:R], both[R:]
        v = np.where(pair, 1.0, math.sqrt(0.5))
        scale = np.outer(v, v)
        mixed = (scale * (diff.imag + total.imag))[:, pair]
        G = np.empty((R + P, R + P))
        G[:R, :R] = scale * (diff.real + total.real)
        G[:R, R:], G[R:, :R] = mixed, mixed.T
        G[R:, R:] = (diff.real - total.real)[np.ix_(pair, pair)]
        return G

    def columns(self, idx):
        if self.table is None:
            return basis_atoms(self.psi, idx, self.C.indices)
        half, mirror = self.psi.fold(idx)
        cols = self.table.reshape(self.C.p, -1)[:, half]
        return np.where(mirror, cols, cols.conj())

    def synthesize(self, coeffs):
        return apply_basis(self.psi, coeffs, "forward")

    def real_synthesize(self, coeffs):
        """The real field Psi s of Hermitian coefficients s, read from their
        half plane kx <= nx//2 by one irfft2."""
        nx, ny = self.psi.grid
        half = coeffs.reshape((ny, nx) + coeffs.shape[1:])[:, : nx // 2 + 1]
        field = np.fft.irfft2(half, s=(ny, nx), axes=(0, 1), norm="ortho")
        return field.reshape(coeffs.shape)


def mutual_coherence(C: MeasurementMatrix, psi: SparseBasis) -> float:
    """mu(C, Psi), as SensingOperator(C, psi) reports it."""
    return SensingOperator(C, psi).coherence


def recommended_measurements(K, n, safety=1.5) -> int:
    """Sampling-count heuristic ceil(safety * K * ln(n/K))."""
    if K < 1 or n <= K:
        raise DimensionError(f"need 1 <= K < n, got K={K}, n={n}")
    return max(1, math.ceil(safety * K * math.log(n / K)))
