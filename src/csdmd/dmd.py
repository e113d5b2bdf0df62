"""Dynamic mode decomposition of snapshot pairs, in full state space or
through a measurement operator.

The decomposition finds the best-fit linear operator A with X' ~ A X and
returns its leading eigenstructure: eigenvalues (discrete and continuous
time), spatial modes, and initial amplitudes.  One core, lifted_dmd, runs
the decomposition on a measured pair Y = C X and lifts the modes back to
full state space through the full shifted snapshots; exact DMD is the case
where the measured pair is the full pair.  The fit reads the measured
block once, through its Gram matrix on the short side (m x m for a tall
block, p x p for a wide one), and the lift reads the full X' once (exact
DMD after Tu et al., 2014); no n-row U is ever formed.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, RankCollapse
from .linalg import DEFAULT_TRUNCATION_TOL, EconSvd, eig_dense, gram_svd, thin_product
from .sensing import MeasurementMatrix, apply_measurement

ZERO_EIG_REL = 1e-12


class SnapshotPair:
    """Snapshot matrix X and its one-step-shifted counterpart X', held in
    one block S that stores each distinct snapshot once: X = S[:, :m] and
    X' = S[:, lag:].  A time series [x_0 ... x_m] has lag 1 and m+1
    columns; any other pair has lag m and S = [X, X'].

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
        """The pair X = S[:, :m], X' = S[:, lag:] over S itself."""
        pair = cls.__new__(cls)
        pair._wrap(np.asarray(S), lag, dt, grid)
        return pair

    def _wrap(self, S, lag, dt, grid):
        if S.ndim != 2 or S.shape[1] <= lag:
            raise DimensionError(f"a block of shape {S.shape} holds no pair at lag {lag}")
        if grid is not None and grid[0] * grid[1] != S.shape[0]:
            raise DimensionError(f"grid {grid} does not match row count {S.shape[0]}")
        if dt <= 0:
            raise DimensionError("dt must be positive")
        self.S, self.lag, self.dt, self.grid = S, lag, dt, grid
        self.n, self.m = S.shape[0], S.shape[1] - lag
        self.X, self.Xp = S[:, : self.m], S[:, lag:]

    def map_snapshots(self, f, grid=None):
        """The pair of f(S) at the same lag.  f maps the n x k block S to an
        n' x k block in one call, so work on the snapshots of a time series
        runs m+1 times, not 2m.  grid labels the rows of the result."""
        return SnapshotPair.from_block(f(self.S), self.lag, self.dt, grid)


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
    Rows are measurements, so the result carries no grid."""
    return pair.map_snapshots(lambda S: apply_measurement(C, S))


def _check_rank(X, svd: EconSvd, truncation_tol):
    """Raise RankCollapse if X keeps more than truncation_tol times its
    leading energy outside the measured row space span(svd.V).  The check
    compares energies, resolved down to about eps, so it takes the
    requested tolerance, not the SVD's applied one (floored on singular
    values)."""
    # with G = (X V)^H (X V): lost = |X|_F^2 - tr G >= sigma_r(X)^2 and
    # lambda_max(G) <= sigma_0(X)^2, so a dropped sigma_r(X) above
    # sqrt(tol) sigma_0(X) always raises
    XV = thin_product(X, svd.V)
    G = XV.conj().T @ XV
    top = np.linalg.eigvalsh(G)[-1]
    # einsum over real views: norm() would copy a strided X whole
    parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
    lost = sum(np.einsum("ij,ij->", P, P) for P in parts) - np.trace(G).real
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
    Atilde = R^-H sigma^-1 V^H G' V sigma^-1, R the Cholesky factor of
    sigma^-1 V^H G V sigma^-1: the thin-QR orthonormalisation of
    U = Y V sigma^-1 in r x r space.  A wide Y gives an orthonormal U from
    Y Y^H, V = Y^H U sigma^-1 and Atilde = U^H Y' V sigma^-1.  The lift
    B = X' V sigma^-1 gives the modes B W and the amplitudes
    W^-1 lstsq(B, x_0).  Exact DMD is the case where full is measured;
    otherwise the rank check runs before the eigensolve."""
    if measured.m < 2:
        raise DimensionError("need at least 2 snapshot columns")
    S, m, lag, Y = measured.S, measured.m, measured.lag, measured.X
    wide = measured.n < m
    with np.errstate(over="ignore", invalid="ignore"):
        # one Gram, on Y's short side: Y Y^H (p x p, all of it kept by [:m, :m]),
        # or Y^H [Y, Y'], which for a series is the one Gram S^H S
        G = Y @ Y.conj().T if wide else (S if lag == 1 else Y).conj().T @ S
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
    if full is not measured:
        _check_rank(full.X, svd, truncation_tol)
    lambdas, W = eig_dense(Atilde)
    B = thin_product(full.Xp, V_sigma)
    Phi = thin_product(B, W)
    # numerically zero eigenvalues fall back to X V sigma^-1 W, the basis lifted
    # through X, and b to lstsq on Phi; <= so lam_max = 0 does too
    lam_max = np.max(np.abs(lambdas)) if len(lambdas) else 0.0
    dead = np.abs(lambdas) <= ZERO_EIG_REL * lam_max
    x0 = full.X[:, 0]
    if np.any(dead):
        Phi[:, dead] = thin_product(thin_product(full.X, V_sigma), W[:, dead])
        b, *_ = np.linalg.lstsq(Phi, x0.astype(complex), rcond=None)
    else:
        b = np.linalg.solve(W, np.linalg.lstsq(B, x0, rcond=None)[0])
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
    magnitude (when amplitudes are given) so dominant modes claim their
    nearest counterpart first.  Returns a list of (i, j, distance) for
    matched pairs plus the indices of unmatched entries on each side.
    """
    lambdas_a = np.asarray(lambdas_a)
    lambdas_b = np.asarray(lambdas_b)
    if amplitudes_a is not None and len(amplitudes_a) == len(lambdas_a):
        order = np.argsort(-np.abs(np.asarray(amplitudes_a)))
    else:
        order = np.argsort(-np.abs(lambdas_a))
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
