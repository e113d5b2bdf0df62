"""End-to-end pathway orchestration and invariance verification.

Four pathways, named by the data they start from and where the heavy
decomposition runs:

  1A  full-state snapshots, full-state decomposition (the reference)
  1B  compress first, decompose the small pair, lift modes with full X'
  2A  sparse-recover the measured block's range, then decompose
  2B  decompose the measured pair, sparse-recover only the r modes

1A and 1B are one core, dmd.lifted_dmd: 1B lifts the measured pair's
decomposition through the full pair, and 1A is 1B with the full pair as
its own measurement.  run_2a and run_2b each run one sparse-recovery
pathway through the caller's SensingOperator and return its fit and CoSaMP
rows; the CLI calls them directly.  run_path executes one pathway,
auto-runs the reference when full data is available, and assembles a
comparison report.  Without planted truth, a sparse pathway needs sparsity_K.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import io as io_mod
from .dmd import (
    SnapshotPair,
    compare_spectra,
    compressed_dmd,
    exact_dmd,
    measure_pair,
    pair_eigenvalues,
)
from .errors import DimensionError
from .linalg import DEFAULT_TRUNCATION_TOL, gram_svd, thin_product
from .recovery import RecoveryConfig, RecoveredMode, cosamp, recover_modes
from .sensing import SensingOperator, SparseBasis, make_measurement
from .systems import (
    DoubleGyreParams,
    FourierLtiSystem,
    generate_fourier_lti,
    generate_gyre_snapshots,
)

# used only by the benchmark's 2A replica; they go with ROADMAP step 1b
PATH_2A_MAX_N = 4096
PATH_2A_MAX_M = 64
# An invariance check's mode deviation tracks eps (sigma_0 / sigma_r)^2, so
# it stays 10 times under INVARIANCE_MODE_TOL only while the retained
# sigma_r >= sqrt(10 eps / INVARIANCE_MODE_TOL) sigma_0, about 4.7e-4
INVARIANCE_MODE_TOL = 1e-8
INVARIANCE_TOL_FLOOR = float(np.sqrt(10 * np.finfo(float).eps / INVARIANCE_MODE_TOL))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one pathway once, reproducibly."""

    system: object
    path: str = "1A"
    measurement_kind: Optional[str] = None
    p: Optional[int] = None
    measurement_seed: Optional[int] = None
    sparsity_K: Optional[int] = None
    truncation_tol: float = DEFAULT_TRUNCATION_TOL
    out_dir: Optional[str] = None


@dataclass
class ExperimentReport:
    """Comparison tables, diagnostics, and timings for one run."""

    path: str
    config: dict
    ranks: dict = field(default_factory=dict)
    eigen_table: list = field(default_factory=list)
    unmatched_reference: list = field(default_factory=list)
    unmatched_result: list = field(default_factory=list)
    mode_alignments: list = field(default_factory=list)
    truth_table: list = field(default_factory=list)
    truth_alignments: list = field(default_factory=list)
    recovery_residuals: list = field(default_factory=list)
    coherence: Optional[float] = None
    timings: dict = field(default_factory=dict)

    def to_dict(self):
        return {"schema": io_mod.REPORT_SCHEMA, **asdict(self)}


def _materialize(cfg: ExperimentConfig):
    sys = cfg.system
    if isinstance(sys, SnapshotPair):
        return sys, None
    if isinstance(sys, FourierLtiSystem):
        pair, truth = generate_fourier_lti(sys)
        return pair, truth
    if isinstance(sys, DoubleGyreParams):
        return generate_gyre_snapshots(sys), None
    raise DimensionError(f"unsupported system type {type(sys).__name__}")


def _default_sparsity(cfg) -> RecoveryConfig:
    """The recovery config of cfg.sparsity_K, or of the sparsity planted
    truth implies: K planted waves give K-sparse modes (2B) but 2K-sparse
    real snapshots (2A), since each wave contributes a conjugate pair.  Any
    other system must name it."""
    if cfg.sparsity_K is not None:
        return RecoveryConfig(sparsity_K=cfg.sparsity_K)
    if not isinstance(cfg.system, FourierLtiSystem):
        raise DimensionError(f"path {cfg.path} needs sparsity_K for a system without planted truth")
    return RecoveryConfig(sparsity_K=(2 if cfg.path == "2A" else 1) * len(cfg.system.mu))


def _config_echo(cfg: ExperimentConfig, data: SnapshotPair):
    sysname = type(cfg.system).__name__
    echo = {
        "system": sysname,
        "n": int(data.n),
        "m": int(data.m),
        "dt": float(data.dt),
        "grid": list(data.grid) if data.grid else None,
        "path": cfg.path,
        "truncation_tol": cfg.truncation_tol,
    }
    if cfg.measurement_kind is not None:
        echo["measurement"] = {
            "kind": cfg.measurement_kind,
            "p": cfg.p,
            "seed": cfg.measurement_seed,
        }
    if cfg.sparsity_K is not None:
        echo["sparsity_K"] = cfg.sparsity_K
    return echo


@contextmanager
def _timed(timings, key):
    """Record the wall time of the block under timings[key], if given."""
    t0 = time.perf_counter()
    yield
    if timings is not None:
        timings[key] = time.perf_counter() - t0


def _residual_rows(diagnostics):
    """One report row per mode: CoSaMP residual and iterations, or the error."""
    rows = []
    for j, diag in enumerate(diagnostics):
        if isinstance(diag, RecoveredMode):
            rows.append({"mode": j, "residual": diag.residual, "iters": diag.iters})
        else:
            error = f"mode {j}: {type(diag).__name__}: {diag}"
            rows.append({"mode": j, "error": error})
    return rows


def run_2a(measured, op, recovery: RecoveryConfig, truncation_tol, timings=None):
    """Pathway 2A: CoSaMP-reconstruct the measured block S = U sigma V^H on
    the grid as Z V^H, one joint recovery Z of the r columns of U sigma (from
    the Gram of S on its short side; a real field for a real S), since the
    snapshots share one sparse support.  DMD is invariant to left isometries,
    so with Z = Q R the fit of Z V^H is exact DMD of the r-row pair R V^H,
    its modes mapped through Q: no n-row block is formed.  op is the
    SensingOperator C Psi.  The measured block is small and factored whole:
    a block on disk is read in.  Returns the result and one residual row for
    the joint recovery.  Raises its ZeroInput or NoProgress."""
    # the Gram route amplifies last-bit differences by (sigma_0 / sigma_r)^2,
    # so the fit must not depend on the layout of the caller's block
    S = np.asfortranarray(measured.load().S)
    wide = S.shape[0] < S.shape[1]
    with _timed(timings, "snapshot_recovery_s"):
        with np.errstate(over="ignore", invalid="ignore"):
            svd = gram_svd(S @ S.conj().T if wide else S.conj().T @ S, truncation_tol)
        U_sigma = svd.V * svd.sigma if wide else S @ svd.V
        # V^H from S itself: the Gram's V is accurate only to eps (sigma_0 / sigma_r)^2
        Vh = np.linalg.lstsq(U_sigma, S, rcond=None)[0]
        joint = cosamp(op, U_sigma, recovery)
        # a real S gives a real target U sigma, which CoSaMP recovers as a real
        # field by conjugate pairs, so Atilde stays real
        Q, R = np.linalg.qr(joint.spatial)
    with _timed(timings, "reconstructed_dmd_s"):
        small = exact_dmd(SnapshotPair.from_block(R @ Vh, measured.lag, measured.dt), truncation_tol)
    rows = [{"residual": joint.residual, "iters": joint.iters}]
    return replace(small, Phi=thin_product(Q, small.Phi)), rows


def run_2b(measured, op, recovery: RecoveryConfig, truncation_tol, timings=None):
    """Pathway 2B: decompose the measured pair, then CoSaMP-recover only its
    r modes through op, the SensingOperator C Psi.  Returns the result and
    one residual row per mode (a mode whose recovery failed is a zero
    column with an error row)."""
    with _timed(timings, "projected_dmd_s"):
        projected = exact_dmd(measured, truncation_tol)
    with _timed(timings, "mode_recovery_s"):
        recovered, diags = recover_modes(projected.Phi, op, recovery)
    return replace(projected, Phi=recovered), _residual_rows(diags)


def run_path(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one pathway and assemble its report.

    The full-state reference decomposition is always run alongside when
    full data exists; eigenvalue and mode tables compare the pathway
    output against it, and against planted ground truth when the system
    provides one.  A config that cannot run is refused before any work.
    """
    if cfg.path not in ("1A", "1B", "2A", "2B"):
        raise DimensionError(f"unknown path {cfg.path!r}")
    if cfg.path != "1A" and (cfg.measurement_kind is None or cfg.p is None):
        raise DimensionError(f"path {cfg.path} requires a measurement config")
    recovery = _default_sparsity(cfg) if cfg.path in ("2A", "2B") else None

    timings = {}
    with _timed(timings, "generate_s"):
        data, truth = _materialize(cfg)

    C = op = None
    if cfg.path != "1A":
        C = make_measurement(cfg.measurement_kind, cfg.p, data.n, cfg.measurement_seed)
        # one C Psi per run: the sparse pathways recover through it, and
        # every measured pathway on a grid reports its coherence
        if recovery is not None or data.grid is not None:
            op = SensingOperator(C, SparseBasis(data.grid))

    with _timed(timings, "reference_dmd_s"):
        reference = exact_dmd(data, cfg.truncation_tol)

    report = ExperimentReport(path=cfg.path, config=_config_echo(cfg, data))
    report.ranks["reference"] = reference.rank

    result = reference
    if cfg.path == "1B":
        with _timed(timings, "compressed_dmd_s"):
            result = compressed_dmd(data, C, cfg.truncation_tol)
    elif cfg.path in ("2A", "2B"):
        run = run_2a if cfg.path == "2A" else run_2b
        result, report.recovery_residuals = run(
            measure_pair(C, data), op, recovery, cfg.truncation_tol, timings
        )

    report.ranks["result"] = result.rank
    report.coherence = None if op is None else op.coherence

    if result is not reference:
        rows, report.mode_alignments, un_ref, un_res = compare_spectra(
            reference.lambdas, reference.Phi, result.lambdas, result.Phi,
            reference.amplitudes,
        )
        report.eigen_table = [
            {"lambda_full": a, "lambda_projected": b, "abs_delta": d}
            for a, b, d in rows
        ]
        report.unmatched_reference, report.unmatched_result = un_ref, un_res

    if truth is not None:
        rows, report.truth_alignments, _, _ = compare_spectra(
            truth.lambdas, truth.atoms, result.lambdas, result.Phi
        )
        report.truth_table = [
            {"lambda_true": a, "lambda_recovered": b, "abs_delta": d}
            for a, b, d in rows
        ]

    report.timings = timings
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        io_mod.atomic_write_text(
            os.path.join(cfg.out_dir, "report.json"),
            io_mod.dumps_report(report.to_dict()),
        )
    return report


def _phase_aligned_gap(a, b):
    """Unit-normalize both vectors, rotate b to the optimal phase, return
    the remaining euclidean gap."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    inner = np.vdot(b, a)
    if np.abs(inner) > 0:
        b = b * (inner / np.abs(inner))
    return float(np.linalg.norm(a - b))


def verify_invariance_suite(
    data: SnapshotPair, seed=0, truncation_tol=INVARIANCE_TOL_FLOOR
):
    """Check the invariance properties of the decomposition on real data.

    Runs the reference decomposition, then re-runs it under four
    transformations and records measured deviations against thresholds:

      right_permutation   shuffle snapshot columns; spectrum and modes fixed
      right_unitary       any unitary mixing of columns; spectrum and modes fixed
      left_dft            unitary DFT of each snapshot; spectrum fixed, modes map
      left_pod            project onto the reference fit's POD basis; same
      projection_commutes measuring then fitting equals fitting then measuring,
                          as an explicit operator identity on a small projected
                          copy of the data

    The rank cutoff is raised to at least INVARIANCE_TOL_FLOOR: below it
    the decomposition keeps directions near the Gram-eigenvalue noise
    floor of the snapshot-method SVD, whose modes are not reproducible
    under transformation (on a 64 x 32 double gyre, all five checks fail
    at 1e-6).

    Returns a list of check dicts; each has name, measured deviations,
    thresholds, and a passed flag.
    """
    truncation_tol = max(truncation_tol, INVARIANCE_TOL_FLOOR)
    # the transforms take the block whole: a block on disk is refused here,
    # before any fit
    S, m, lag = data.block, data.m, data.lag
    rng = np.random.default_rng(seed)
    ref = exact_dmd(data, truncation_tol)
    checks = []

    def record(name, eig_dev, mode_dev, matched=True, eig_tol=1e-10):
        passed = matched and eig_dev <= eig_tol and mode_dev <= INVARIANCE_MODE_TOL
        checks.append(
            {
                "name": name,
                "eig_dev": float(eig_dev),
                "eig_tol": eig_tol,
                "mode_dev": float(mode_dev),
                "mode_tol": INVARIANCE_MODE_TOL,
                "passed": bool(passed),
            }
        )

    perm = rng.permutation(m)
    P, _ = np.linalg.qr(rng.standard_normal((m, m)))
    # [X P, X' P] as one product S B: B maps the columns of X and of X'
    B = np.zeros((m + lag, 2 * m), P.dtype)
    B[:m, :m] = B[lag:, m:] = P
    # the data's own orthonormal (POD) basis, from the reference fit's
    # method of snapshots: X V sigma^-1, orthonormalised
    U = np.linalg.qr(thin_product(data.X, ref.svd_used.V / ref.svd_used.sigma))[0]
    to_pod = lambda M: U.conj().T @ M
    pod = data.map_snapshots(to_pod)
    at_lag_m = lambda T: SnapshotPair.from_block(T, m, data.dt, data.grid)

    def fwd(M):
        # the unitary DFT of each column, 16 columns per call: np.fft.fft
        # would hold a complex copy of a real M whole beside its result
        T = np.empty(M.shape, complex)
        for j in range(0, M.shape[1], 16):
            T[:, j : j + 16] = np.fft.fft(M[:, j : j + 16], axis=0, norm="ortho")
        return T

    # each transformed pair is built when its check runs and dropped after
    # its fit, so one transformed copy of the data is resident at a time
    for name, build, mode_map in (
        ("right_permutation", lambda: at_lag_m(S[:, np.r_[perm, lag + perm]]), None),
        ("right_unitary", lambda: at_lag_m(thin_product(S, B)), None),
        ("left_dft", lambda: data.map_snapshots(fwd), fwd),
        ("left_pod", lambda: pod, to_pod),
    ):
        other = exact_dmd(build(), truncation_tol)
        pairs, un_ref, un_other = pair_eigenvalues(ref.lambdas, other.lambdas, ref.amplitudes)
        ref_modes = ref.Phi if mode_map is None else mode_map(ref.Phi)
        eig_dev = max((d for _, _, d in pairs), default=np.inf)
        mode_dev = max(
            (_phase_aligned_gap(other.Phi[:, j], ref_modes[:, i]) for i, j, _ in pairs),
            default=0.0,
        )
        record(name, eig_dev, mode_dev, matched=not un_ref and not un_other)

    # operator identity C A_full = A_measured C on a small projected copy:
    # the leading d rows of the POD projection
    d = min(32, ref.rank)
    small = SnapshotPair.from_block(pod.S[:d], lag, data.dt)
    A_full = small.Xp @ np.linalg.pinv(small.X, rcond=truncation_tol)
    worst = 0.0
    for _ in range(3):
        p = int(rng.integers(d, 2 * d + 1))
        # orthonormal columns: Cg keeps the singular values of the small
        # data, so pinv retains the same rank and the identity holds to rounding
        Cg, _ = np.linalg.qr(rng.standard_normal((p, d)))
        measured = small.map_snapshots(lambda S: Cg @ S)
        A_meas = measured.Xp @ np.linalg.pinv(measured.X, rcond=truncation_tol)
        CA = Cg @ A_full
        worst = max(worst, float(np.linalg.norm(CA - A_meas @ Cg) / np.linalg.norm(CA)))
    record("projection_commutes", worst, 0.0, eig_tol=1e-8)
    return checks
