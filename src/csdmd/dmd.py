"""Dynamic mode decomposition of snapshot pairs, in full state space or
through a measurement operator.

The decomposition finds the best-fit linear operator A with X' ~ A X and
returns its leading eigenstructure: eigenvalues (discrete and continuous
time), spatial modes, and initial amplitudes.  One core, lifted_dmd, runs
the decomposition on a measured pair Y = C X and lifts the modes back to
full state space through the full shifted snapshots; exact DMD is the case
where the measured pair is the full pair.  The core reads a pair's block
only in fixed-height row panels, in memory or on disk (io.PanelReader), in
two sweeps: the first sums the Gram matrix on the measured block's short
side (m x m for a tall block; a wide one, p x p, is small and read whole)
or measures the full pair; the second, after the r x r eigensolve, lifts
the modes X' V sigma^-1 W, updates the R factor of [Phi, x_0] for the
amplitudes and, for a measured pair, sums the rank check's two energies,
so the check follows the eigensolve (exact DMD after Tu et al., 2014).
"""

from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import DimensionError, RankCollapse
from .io import PANEL_ROWS, PanelReader
from .linalg import DEFAULT_TRUNCATION_TOL, EconSvd, eig_dense, gram_svd, thin_product
from .sensing import MeasurementMatrix, check_grid, measure_panels

ZERO_EIG_REL = 1e-12
# a complex panel is conjugated this many columns at a time, so the Gram's
# conjugate copy is a sliver of a panel, not the panel
CONJ_COLUMNS = 16


class SnapshotPair:
    """Snapshot matrix X and its one-step-shifted counterpart X', held in
    one block S that stores each distinct snapshot once: X = S[:, :m] and
    X' = S[:, lag:].  A time series [x_0 ... x_m] has lag 1 and m+1
    columns; any other pair has lag m and S = [X, X'].  S is an array, or
    an io.PanelReader over a block on disk, which the fit reads in row
    panels and load() reads whole.

    Columns are state vectors at successive, evenly spaced times.  The
    optional grid records the 2-d spatial shape (nx, ny) with nx*ny rows.
    """

    def __init__(self, X, Xp, dt, grid=None):
        """The pair (X, X'), copied into S, with lag 1 when X' is X shifted
        by one step, bit for bit."""
        X, Xp = np.asarray(X), np.asarray(Xp)
        if X.ndim != 2 or X.shape != Xp.shape:
            raise DimensionError(
                f"snapshot matrices must share shape, got {X.shape} and {Xp.shape}"
            )
        lag = 1 if np.array_equal(X[:, 1:], Xp[:, :-1]) else X.shape[1]
        # the columns of X' that X lacks: the last one, or all of them
        self._wrap(np.column_stack([X, Xp[:, X.shape[1] - lag :]]), lag, dt, grid)

    @classmethod
    def series(cls, S, dt, grid=None):
        """The pair of the time series S = [x_0 ... x_m], as views of S."""
        return cls.from_block(S, 1, dt, grid)

    @classmethod
    def from_block(cls, S, lag, dt, grid=None):
        """The pair X = S[:, :m], X' = S[:, lag:] over S itself (an array or
        an io.PanelReader)."""
        pair = cls.__new__(cls)
        pair._wrap(S if isinstance(S, PanelReader) else np.asarray(S), lag, dt, grid)
        return pair

    def _wrap(self, S, lag, dt, grid):
        if len(S.shape) != 2 or S.shape[1] <= lag:
            raise DimensionError(f"a block of shape {S.shape} holds no pair at lag {lag}")
        if grid is not None and np.prod(check_grid(grid)) != S.shape[0]:
            raise DimensionError(f"grid {grid} does not match row count {S.shape[0]}")
        # a NaN dt would write NaN omegas; a sidecar's dt may be any JSON value
        if isinstance(dt, bool) or not isinstance(dt, Real) or not 0 < dt < np.inf:
            raise DimensionError(f"dt must be finite and positive, got {dt!r}")
        self.S, self.lag, self.dt, self.grid = S, lag, dt, grid
        self.n, self.m = S.shape[0], S.shape[1] - lag

    @property
    def block(self):
        """S as an array; a block on disk is refused: load() reads it whole."""
        if isinstance(self.S, PanelReader):
            raise DimensionError("the pair's block is on disk: load() reads it whole")
        return self.S

    @property
    def X(self):
        return self.block[:, : self.m]

    @property
    def Xp(self):
        return self.block[:, self.lag :]

    def load(self):
        """This pair with its block in memory: a block on disk is read whole."""
        if isinstance(self.S, PanelReader):
            return SnapshotPair.from_block(self.S.read(), self.lag, self.dt, self.grid)
        return self

    def panels(self):
        """(start, P) for each run of io.PANEL_ROWS rows of S (fewer in the
        last), P holding rows start ... start+len(P)-1; a panel read from
        disk is overwritten by the next one."""
        if isinstance(self.S, PanelReader):
            return self.S.panels()
        return ((start, self.S[start : start + PANEL_ROWS]) for start in range(0, self.n, PANEL_ROWS))

    def map_snapshots(self, f, grid=None):
        """The pair of f(S) at the same lag.  f maps the n x k block S to an
        n' x k block in one call, so work on the snapshots of a time series
        runs m+1 times, not 2m.  grid labels the rows of the result."""
        return SnapshotPair.from_block(f(self.block), self.lag, self.dt, grid)


@dataclass(frozen=True)
class DmdResult:
    """Eigenstructure of the best-fit linear snapshot propagator.

    lambdas are discrete-time eigenvalues; omegas = log(lambdas)/dt their
    continuous-time counterparts on the principal branch.  Phi columns are
    the spatial modes, amplitudes the least-squares coefficients against
    the first snapshot.
    """

    lambdas: np.ndarray
    omegas: np.ndarray
    W: np.ndarray
    Phi: np.ndarray
    Atilde: np.ndarray
    amplitudes: np.ndarray
    svd_used: EconSvd
    rank: int
    dt: float


def measure_pair(C: MeasurementMatrix, pair: SnapshotPair) -> SnapshotPair:
    """The measured pair Y = C X, Y' = C X', as C S at the pair's lag, so a
    time series is measured once per distinct snapshot and stays a series.
    S is measured in its row panels.  Rows are measurements, so the result
    carries no grid."""
    Y = measure_panels(C, pair.n, pair.panels())
    return SnapshotPair.from_block(Y, pair.lag, pair.dt)


def _gram(pair: SnapshotPair):
    """Y^H [Y, Y'] summed over the pair's row panels: for a series the one
    Gram S^H S.  A complex panel is conjugated CONJ_COLUMNS columns at a
    time."""
    G = None
    for _, P in pair.panels():
        Y = P if pair.lag == 1 else P[:, : pair.m]
        if np.iscomplexobj(P):
            part = np.vstack([Y[:, j : j + CONJ_COLUMNS].conj().T @ P
                              for j in range(0, Y.shape[1], CONJ_COLUMNS)])
        else:
            part = Y.T @ P
        G = part if G is None else G + part
    return G


def _lift(full: SnapshotPair, V_sigma, W, dead, V=None):
    """The fit's one pass over the full pair's row panels, after the
    eigensolve: Phi = X' V_sigma W, with X V_sigma W in the dead columns,
    the R factor of [Phi, x_0] and, given V, the rank check's
    (X V)^H (X V) and |X|_F^2."""
    Phi = np.empty((full.n, W.shape[1]), complex, order="F")
    R = np.empty((0, W.shape[1] + 1), complex)
    G, energy = 0, 0.0
    for start, P in full.panels():
        rows = slice(start, start + len(P))
        Phi[rows] = thin_product(thin_product(P[:, full.lag :], V_sigma), W)
        X = P[:, : full.m]
        if dead.any():
            Phi[rows, dead] = thin_product(thin_product(X, V_sigma), W[:, dead])
        R = np.linalg.qr(np.vstack([R, np.column_stack([Phi[rows], P[:, 0]])]), mode="r")
        if V is not None:
            XV = thin_product(X, V)
            G += XV.conj().T @ XV
            # einsum over real views: norm() would copy a strided X whole
            parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
            energy += sum(np.einsum("ij,ij->", part, part) for part in parts)
    return Phi, R, G, energy


def _check_rank(G, energy, svd: EconSvd, truncation_tol):
    """Raise RankCollapse if X, of energy |X|_F^2, keeps more than
    truncation_tol times its leading energy outside the measured row space
    span(svd.V), given G = (X V)^H (X V).  The check compares energies,
    resolved down to about eps, so it takes the requested tolerance, not
    the SVD's applied one (floored on singular values)."""
    # lost = |X|_F^2 - tr G >= sigma_r(X)^2 and lambda_max(G) <= sigma_0(X)^2,
    # so a dropped sigma_r(X) above sqrt(tol) sigma_0(X) always raises
    top = np.linalg.eigvalsh(G)[-1]
    lost = energy - np.trace(G).real
    if lost > truncation_tol * top:
        raise RankCollapse(
            f"measured rank {svd.rank} leaves relative energy "
            f"{lost / top:.3e} of the full data outside its row space"
        )


def exact_dmd(data: SnapshotPair, truncation_tol=DEFAULT_TRUNCATION_TOL) -> DmdResult:
    """Exact DMD of a full-state snapshot pair: lifted_dmd of the pair
    through itself.

    Parameters
    ----------
    data : SnapshotPair
    truncation_tol : float
        Relative SVD truncation threshold; controls the retained rank.
    """
    return lifted_dmd(data, data, truncation_tol)


def compressed_dmd(
    full: SnapshotPair, C: MeasurementMatrix, truncation_tol=DEFAULT_TRUNCATION_TOL
) -> DmdResult:
    """DMD through a measurement operator, with full-state modes.

    Projects the snapshots to Y = C X, Y' = C X', decomposes the projected
    pair, and rebuilds spatial modes from the full shifted snapshots as
    X' V_Y sigma_Y^-1 W_Y.  Eigenvalues come entirely from the projected
    data, so the Gram eigenproblem is at most p x p instead of n x n, and
    the full X is never decomposed.

    Parameters
    ----------
    full : SnapshotPair
        Full-state data (needed for the mode reconstruction).
    C : MeasurementMatrix
    truncation_tol : float

    Raises
    ------
    RankCollapse
        If the energy of X outside the measured row space,
        |X|_F^2 - |X V_Y|_F^2, exceeds truncation_tol |X V_Y|_2^2: the
        measurement's null space meets the mode subspace.
    """
    return lifted_dmd(measure_pair(C, full), full, truncation_tol)


def lifted_dmd(
    measured: SnapshotPair, full: SnapshotPair, truncation_tol=DEFAULT_TRUNCATION_TOL
) -> DmdResult:
    """DMD of the measured pair (Y, Y') with modes lifted through the full
    pair (X, X'), from one Gram of Y, on its short side.  A tall Y gives
    sigma and V from G = Y^H Y (gram_svd) and, with G' = Y^H Y',
    Atilde = L^-1 sigma^-1 V^H G' V sigma^-1, L the Cholesky factor of
    sigma^-1 V^H G V sigma^-1: the thin-QR orthonormalisation of
    U = Y V sigma^-1 in r x r space.  A wide Y gives an orthonormal U from
    Y Y^H, V = Y^H U sigma^-1 and Atilde = U^H Y' V sigma^-1.

    Blocks are read in row panels, in two sweeps of the full pair: the
    Gram of Y, when Y is the full pair, or compressed_dmd's measurement,
    then one lift after Atilde's r x r eigensolve.  The lift writes the
    modes Phi = X' V sigma^-1 W (X V sigma^-1 W for a numerically zero
    eigenvalue), updates the R factor of [Phi, x_0], whose leading r rows
    give the amplitudes lstsq(Phi, x_0), and, when full is not measured,
    sums the rank check's (X V)^H X V and |X|_F^2, so the check runs after
    eig_dense."""
    if measured.m < 2:
        raise DimensionError("need at least 2 snapshot columns")
    m, lag = measured.m, measured.lag
    wide = measured.n < m
    with np.errstate(over="ignore", invalid="ignore"):
        if wide:
            # Y Y^H is p x p, all of it kept by [:m, :m]; a block wider than
            # tall is small, so it is read whole
            S = measured.load().S
            G = S[:, :m] @ S[:, :m].conj().T
        else:
            G = _gram(measured)
    svd = gram_svd(G[:m, :m], truncation_tol)
    if wide:
        # U^H [Y, Y'] in one product: V sigma = Y^H U, and Atilde from U^H Y'
        T = svd.V.conj().T @ S
        V_sigma = T[:, :m].conj().T / svd.sigma**2
        svd = replace(svd, V=V_sigma * svd.sigma)
        Atilde = T[:, lag:] @ V_sigma
    else:
        V_sigma = svd.V / svd.sigma
        L = np.linalg.cholesky(V_sigma.conj().T @ G[:m, :m] @ V_sigma)
        Atilde = np.linalg.solve(L, V_sigma.conj().T @ G[:m, lag:] @ V_sigma)
    lambdas, W = eig_dense(Atilde)
    # numerically zero eigenvalues lift through X; <= so lam_max = 0 does too
    dead = np.abs(lambdas) <= ZERO_EIG_REL * np.abs(lambdas).max()
    Phi, R, G_XV, energy = _lift(full, V_sigma, W, dead, None if full is measured else svd.V)
    if full is not measured:
        _check_rank(G_XV, energy, svd, truncation_tol)
    # [Phi, x_0] = Q R, so lstsq(Phi, x_0) is lstsq on R's leading r rows
    b = np.linalg.lstsq(R[: svd.rank, :-1], R[: svd.rank, -1], rcond=None)[0]
    # principal-branch log; zero eigenvalues map to -inf without warning noise
    with np.errstate(divide="ignore", invalid="ignore"):
        omegas = np.log(lambdas.astype(complex)) / full.dt
    return DmdResult(
        lambdas=lambdas,
        omegas=omegas,
        W=W,
        Phi=Phi,
        Atilde=Atilde,
        amplitudes=b,
        svd_used=svd,
        rank=svd.rank,
        dt=full.dt,
    )


def advance_modes(result: DmdResult, t: float) -> np.ndarray:
    """Evaluate the DMD model state Phi diag(exp(omega t)) b at time t."""
    return result.Phi @ (np.exp(result.omegas * t) * result.amplitudes)


def mode_alignment(phi, psi) -> float:
    """Scale- and phase-invariant similarity |phi^H psi| / (|phi| |psi|)."""
    na = np.linalg.norm(phi)
    nb = np.linalg.norm(psi)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.abs(np.vdot(phi, psi)) / (na * nb))


def pair_eigenvalues(lambdas_a, lambdas_b, amplitudes_a=None):
    """Greedy nearest-neighbor pairing of two eigenvalue sets.

    Reference eigenvalues are processed in order of decreasing amplitude
    magnitude (when amplitudes are given, one per eigenvalue of a; else a
    DimensionError) so dominant modes claim their nearest counterpart
    first.  Returns a list of (i, j, distance) for matched pairs plus the
    indices of unmatched entries on each side.
    """
    lambdas_a = np.asarray(lambdas_a)
    lambdas_b = np.asarray(lambdas_b)
    if amplitudes_a is None:
        order = np.argsort(-np.abs(lambdas_a))
    elif len(amplitudes_a) != len(lambdas_a):
        raise DimensionError(
            f"{len(amplitudes_a)} amplitudes for {len(lambdas_a)} eigenvalues"
        )
    else:
        order = np.argsort(-np.abs(np.asarray(amplitudes_a)))
    taken = set()
    pairs = []
    for i in order:
        if len(taken) == len(lambdas_b):
            break
        dist = np.abs(lambdas_b - lambdas_a[i])
        for j in np.argsort(dist):
            if j not in taken:
                taken.add(int(j))
                pairs.append((int(i), int(j), float(dist[j])))
                break
    matched_a = {p[0] for p in pairs}
    unmatched_a = [i for i in range(len(lambdas_a)) if i not in matched_a]
    unmatched_b = [j for j in range(len(lambdas_b)) if j not in taken]
    pairs.sort(key=lambda p: p[0])
    return pairs, unmatched_a, unmatched_b


def compare_spectra(lambdas_a, modes_a, lambdas_b, modes_b, amplitudes_a=None):
    """Pair spectrum b with spectrum a (pair_eigenvalues) and align the
    paired modes.

    Returns one (lambda_a, lambda_b, |delta lambda|) row per matched pair
    in a's order, the mode_alignment of each pair, and the unmatched
    eigenvalues of a and of b.
    """
    pairs, un_a, un_b = pair_eigenvalues(lambdas_a, lambdas_b, amplitudes_a)
    rows = [(complex(lambdas_a[i]), complex(lambdas_b[j]), d) for i, j, d in pairs]
    aligns = [mode_alignment(modes_a[:, i], modes_b[:, j]) for i, j, _ in pairs]
    return (
        rows,
        aligns,
        [complex(lambdas_a[i]) for i in un_a],
        [complex(lambdas_b[j]) for j in un_b],
    )
