"""Synthetic snapshot generators with retained ground truth.

Two families: a linear system whose state is a sum of a few spatial
Fourier waves, each oscillating and decaying at its own rate, and the
time-periodic double gyre flow on [0, 2] x [0, 1].
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dmd import SnapshotPair
from .errors import BadWavenumber, DimensionError
from .sensing import SparseBasis, apply_basis, basis_atoms

FREQ_RANGE = (2.0 * np.pi * 0.5, 2.0 * np.pi * 5.0)
DAMP_RANGE = (-0.2, 0.0)
AMP_RANGE = (0.5, 1.5)
# snapshots that gyre_chunks forms at a time, 4 MiB at the paper grid: a
# chunk that stays in cache is written from there.  On a 2-core VM (2 MiB
# L2 per core) a paper-grid gen gyre took 60-67 ms with 2-8 columns and
# 94 ms with 16
GEN_CHUNK_COLS = 4


@dataclass(frozen=True)
class FourierLtiSystem:
    """A linear system carried by K planted 2-d Fourier waves.

    Each planted wave occupies a conjugate pair of grid wavenumbers so the
    spatial field stays real.  mu holds the continuous-time eigenvalue
    (damping + i * frequency) of each wave; init_amps the complex initial
    coefficient.
    """

    grid: tuple
    K: int
    wavenumbers: tuple
    mu: np.ndarray
    init_amps: np.ndarray
    dt: float
    m: int
    seed: Optional[int] = None

    def __post_init__(self):
        nx, ny = self.grid
        seen = set()
        for kx, ky in self.wavenumbers:
            if not (0 <= kx < nx and 0 <= ky < ny):
                raise BadWavenumber(f"wavenumber ({kx}, {ky}) outside {nx}x{ny} grid")
            k = ky * nx + kx
            neg = int(SparseBasis(self.grid).conjugate(k))
            if k == neg:
                raise BadWavenumber(
                    f"wavenumber ({kx}, {ky}) is self-conjugate; cannot carry a "
                    "complex eigenvalue on a real field"
                )
            if k in seen or neg in seen:
                raise BadWavenumber(f"wavenumber ({kx}, {ky}) collides with another")
            seen.update((k, neg))
        if len(self.wavenumbers) != self.K:
            raise DimensionError("wavenumber count must equal K")
        if not self.dt > 0 or self.m < 1:
            raise DimensionError(f"need dt > 0 and m >= 1 steps, got dt={self.dt}, m={self.m}")
        if np.any(np.real(self.mu) > 1e-12):
            raise DimensionError("plant only neutrally stable or decaying waves")


@dataclass(frozen=True)
class FourierTruth:
    """Ground truth for a generated system: discrete eigenvalues and the
    unit-norm spatial atoms, stored as conjugate pairs (columns 2j, 2j+1
    belong to planted wave j)."""

    lambdas: np.ndarray
    atoms: np.ndarray
    mu: np.ndarray
    wavenumbers: tuple


def make_fourier_lti(nx=128, ny=128, K=5, dt=0.01, m=200, seed=0) -> FourierLtiSystem:
    """Draw a random system: distinct wavenumber pairs, frequencies in
    [pi, 10 pi], small stable dampings, order-one initial coefficients."""
    # all wavenumbers but the (1 + [nx even]) (1 + [ny even]) self-conjugate ones
    pairs = (nx * ny - (1 + (nx % 2 == 0)) * (1 + (ny % 2 == 0))) // 2
    if not 1 <= K <= pairs:
        raise DimensionError(f"K={K} outside [1, {pairs}], the wave pairs of a {nx}x{ny} grid")
    psi = SparseBasis((nx, ny))
    rng = np.random.default_rng(seed)
    chosen = []
    seen = set()
    while len(chosen) < K:
        kx = int(rng.integers(0, nx))
        ky = int(rng.integers(0, ny))
        k = ky * nx + kx
        neg = int(psi.conjugate(k))
        if k == neg or k in seen or neg in seen:
            continue
        seen.update((k, neg))
        chosen.append((kx, ky))
    freq = rng.uniform(*FREQ_RANGE, size=K)
    damp = rng.uniform(*DAMP_RANGE, size=K)
    mu = damp + 1j * freq
    amps = rng.uniform(*AMP_RANGE, size=K) * np.exp(2j * np.pi * rng.uniform(0, 1, K))
    return FourierLtiSystem(
        grid=(nx, ny),
        K=K,
        wavenumbers=tuple(chosen),
        mu=mu,
        init_amps=amps,
        dt=dt,
        m=m,
        seed=seed,
    )


def generate_fourier_lti(sys: FourierLtiSystem):
    """Generate the snapshot pair and ground truth of a planted system.

    Wave j carries the coefficient init_amps[j] * exp(mu[j] t) on the basis
    atom of its wavenumber k_j and the conjugate coefficient on the atom of
    -k_j, which is the conjugate atom, so every snapshot is the real field
    2 Re(sum_j coefficient_j * atom_{k_j}).

    Returns
    -------
    (SnapshotPair, FourierTruth)
    """
    nx = sys.grid[0]
    t = np.arange(sys.m + 1) * sys.dt
    values = sys.init_amps[:, None] * np.exp(sys.mu[:, None] * t[None, :])

    # columns 2j, 2j+1: the atoms of k_j and -k_j, index ky * nx + kx
    psi = SparseBasis(sys.grid)
    k = [ky * nx + kx for kx, ky in sys.wavenumbers]
    atoms = basis_atoms(psi, np.column_stack([k, psi.conjugate(k)]).reshape(-1))
    # 2 Re(A v) = [Re A, Im A] [2 Re v; -2 Im v] for A = atoms[:, ::2]: one
    # real product, taken transposed so its result is the column-major series
    # (A has a column stride of two, which BLAS cannot take, and A v would
    # be an n x (m+1) complex temporary)
    A = atoms[:, ::2]
    M = np.concatenate([2.0 * values.real, -2.0 * values.imag])
    snaps = (M.T @ np.concatenate([A.real.T, A.imag.T])).T
    lambdas = np.exp(np.column_stack([sys.mu, sys.mu.conj()]).reshape(-1) * sys.dt)

    pair = SnapshotPair.series(snaps, sys.dt, sys.grid)
    truth = FourierTruth(
        lambdas=lambdas, atoms=atoms, mu=sys.mu.copy(), wavenumbers=sys.wavenumbers
    )
    return pair, truth


def add_fourier_noise(data: SnapshotPair, rms_fraction, seed=None) -> SnapshotPair:
    """Add white Fourier-domain noise outside the active coefficients.

    Active bins are detected from the mean spectral power of the data and
    left untouched; every other bin receives complex white noise, scaled
    per snapshot so the added field has rms_fraction times the snapshot
    norm.  Realness is preserved because the noise is synthesized from a
    real white field.  When X' is the one-step shift of X, the overlapping
    snapshots are noised coherently.
    """
    if not (0.0 <= rms_fraction <= 1.0):
        raise DimensionError("rms_fraction must lie in [0, 1]")
    if rms_fraction == 0.0:
        return data
    psi = SparseBasis(data.grid)
    rng = np.random.default_rng(seed)

    def noised(snaps):
        power = np.mean(np.abs(apply_basis(psi, snaps, "inverse")) ** 2, axis=1)
        active = power > 1e-8 * power.max()
        # one white field per snapshot, drawn in snapshot order
        spectrum = apply_basis(psi, rng.standard_normal((snaps.shape[1], psi.n)).T, "inverse")
        spectrum[active] = 0.0
        # each column's norm is one BLAS dot, as np.linalg.norm takes a vector's:
        # norm(axis=0) sums in another order, which moves the data in its last bits
        level = np.array([np.linalg.norm(col) for col in spectrum.T])
        target = rms_fraction * np.array([np.linalg.norm(col) for col in snaps.T])
        spectrum *= np.divide(target, level, out=np.zeros_like(level), where=level > 0)
        return snaps + apply_basis(psi, spectrum, "forward").real

    return data.map_snapshots(noised, data.grid)


@dataclass(frozen=True)
class DoubleGyreParams:
    """Parameters of the periodically perturbed double gyre flow."""

    A: float = 0.1
    omega: float = 2.0 * np.pi / 10.0
    eps: float = 0.25
    grid: tuple = (512, 256)
    t0: float = 0.0
    t1: float = 15.0
    dt: float = 0.1

    def __post_init__(self):
        nx, ny = self.grid
        if nx < 2 or ny < 2:
            raise DimensionError("grid must be at least 2x2")
        if not np.all(np.isfinite([self.A, self.omega, self.eps])):
            raise DimensionError(f"need finite A, omega, eps: {self.A}, {self.omega}, {self.eps}")
        if not self.dt > 0:
            raise DimensionError("dt must be positive")
        # generate_gyre_snapshots takes round((t1 - t0) / dt) steps
        steps = (self.t1 - self.t0) / self.dt
        if not (np.isfinite(steps) and round(steps) >= 1):
            raise DimensionError(f"[t0, t1] must span finitely many, >= 1, steps dt={self.dt}")


def gyre_chunks(params: DoubleGyreParams, observable="vorticity"):
    """The flow snapshots over [t0, t1] as (chunks, shape, grid): chunks
    yields the series of that shape as column-major blocks of GEN_CHUNK_COLS
    snapshots (fewer in the last), each in one buffer the next overwrites.

    Over [0, 2] x [0, 1] the flow u = -pi A sin(pi f) cos(pi y), v = pi A
    cos(pi f) df/dx sin(pi y), f = eps sin(omega t) x^2 + (1 - 2 eps
    sin(omega t)) x, is a sum of (y-profile) x (x-profile) products.  The
    default observable is the vorticity dv/dx - du/dy by second-order central
    differences (one-sided at the boundary), taken on the 1-d profiles;
    "velocity" stacks u over v into 2n rows instead (grid is None in that
    case since rows no longer form a single field).  Snapshot k is the
    rows x nx matrix P @ Q[k], P of shape rows x 2 and Q of shape
    (steps + 1) x 2 x nx, flattened row by row: snapshot row iy * nx + ix
    samples (x[ix], y[iy]).
    """
    if observable not in ("vorticity", "velocity"):
        raise DimensionError(f"unknown observable {observable!r}")
    nx, ny = params.grid
    steps = int(round((params.t1 - params.t0) / params.dt))
    st = np.sin(params.omega * (params.t0 + params.dt * np.arange(steps + 1)))[:, None]
    x = np.linspace(0.0, 2.0, nx)
    y = np.linspace(0.0, 1.0, ny)
    f = params.eps * st * x**2 + x - 2.0 * params.eps * st * x
    dfdx = 2.0 * params.eps * st * x + 1.0 - 2.0 * params.eps * st
    # u = cos(pi y) u_row and v = sin(pi y) v_row, one row of each per snapshot
    u_row = -np.pi * params.A * np.sin(np.pi * f)
    v_row = np.pi * params.A * np.cos(np.pi * f) * dfdx
    cos_y, sin_y = np.cos(np.pi * y), np.sin(np.pi * y)
    if observable == "vorticity":
        # dv/dx - du/dy = sin(pi y) d(v_row)/dx - d(cos(pi y))/dy u_row
        P = np.column_stack([sin_y, -np.gradient(cos_y, y)])
        Q = np.stack([np.gradient(v_row, x, axis=1), u_row], axis=1)
    else:
        P = np.zeros((2 * ny, 2))
        P[:ny, 0], P[ny:, 1] = cos_y, sin_y
        Q = np.stack([u_row, v_row], axis=1)
    buffer = np.empty((min(GEN_CHUNK_COLS, len(Q)), len(P), nx))

    def chunks():
        for start in range(0, len(Q), GEN_CHUNK_COLS):
            factors = Q[start : start + GEN_CHUNK_COLS]
            yield np.matmul(P, factors, out=buffer[: len(factors)]).reshape(len(factors), -1).T

    return chunks(), (buffer[0].size, len(Q)), params.grid if observable == "vorticity" else None


def generate_gyre_snapshots(params: DoubleGyreParams, observable="vorticity"):
    """Stack the flow snapshots of gyre_chunks, chunk by chunk, into a shift
    pair over one column-major block."""
    chunks, shape, grid = gyre_chunks(params, observable)
    # column-major, so each snapshot is one contiguous column and the
    # series is written out without a copy
    S = np.empty(shape, order="F")
    for start, chunk in zip(range(0, shape[1], GEN_CHUNK_COLS), chunks):
        S[:, start : start + chunk.shape[1]] = chunk
    return SnapshotPair.series(S, params.dt, grid)
