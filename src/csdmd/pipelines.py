"""End-to-end pathway orchestration and invariance verification.

Four pathways, named by the data they start from and where the heavy
decomposition runs:

  1A  full-state snapshots, full-state decomposition (the reference)
  1B  compress first, decompose the small pair, lift modes with full X'
  2A  reconstruct every snapshot from measurements, then decompose
  2B  decompose the measured pair, sparse-recover only the r modes

1A and 1B are one core, dmd.lifted_dmd: 1B lifts the measured pair's
decomposition through the full pair, and 1A is 1B with the full pair as
its own measurement.  run_2a and run_2b each run one sparse-recovery
pathway; the CLI calls them directly.  run_path executes one pathway,
auto-runs the reference when full data is available, and assembles a
comparison report.
"""

import math
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
from .linalg import DEFAULT_TRUNCATION_TOL
from .recovery import RecoveryConfig, RecoveredMode, recover_modes
from .sensing import SparseBasis, make_measurement, mutual_coherence
from .systems import (
    DoubleGyreParams,
    FourierLtiSystem,
    generate_fourier_lti,
    generate_gyre_snapshots,
)

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
    notes: list = field(default_factory=list)

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


def _default_sparsity(cfg, truth):
    """K planted waves give K-sparse modes (2B) but 2K-sparse real
    snapshots (2A), since each wave contributes a conjugate pair."""
    if cfg.sparsity_K is not None:
        return cfg.sparsity_K
    if truth is not None:
        return (2 if cfg.path == "2A" else 1) * len(truth.mu)
    return max(1, math.ceil((cfg.p or 3) / 3))


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


def _sparse_basis(grid):
    if grid is None:
        raise DimensionError("sparse recovery needs grid metadata")
    return SparseBasis(grid)


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


def run_2a(measured, C, grid, sparsity_K, truncation_tol, timings=None):
    """Pathway 2A: CoSaMP-reconstruct every distinct measured snapshot on
    the grid, then decompose the reconstruction (its real part when the
    measured pair is real).  Raises the first failed column's
    ZeroInput or NoProgress.  Limited to n <= PATH_2A_MAX_N and
    m <= PATH_2A_MAX_M, since it runs one sparse solve per snapshot, m+1
    for a time series."""
    psi = _sparse_basis(grid)
    if C.n > PATH_2A_MAX_N or measured.m > PATH_2A_MAX_M:
        raise DimensionError(
            f"snapshot reconstruction limited to n<={PATH_2A_MAX_N}, "
            f"m<={PATH_2A_MAX_M}; got n={C.n}, m={measured.m}"
        )
    rcfg = RecoveryConfig(sparsity_K=sparsity_K)
    # every C is real, so the true snapshot of real measured data is real:
    # its real part is no worse, and Atilde stays real
    real = np.isrealobj(measured.S)

    def reconstruct(Y):
        fields, diags = recover_modes(Y, C, psi, rcfg)
        failed = [d for d in diags if not isinstance(d, RecoveredMode)]
        if failed:
            raise failed[0]
        return fields.real if real else fields

    with _timed(timings, "snapshot_recovery_s"):
        reconstructed = measured.map_snapshots(reconstruct)
    with _timed(timings, "reconstructed_dmd_s"):
        result = exact_dmd(reconstructed, truncation_tol)
    return result


def run_2b(measured, C, grid, sparsity_K, truncation_tol, timings=None):
    """Pathway 2B: decompose the measured pair, then CoSaMP-recover only its
    r modes on the grid.  Returns the result and one residual row per mode;
    a mode whose recovery failed is a zero column with an error row."""
    psi = _sparse_basis(grid)
    with _timed(timings, "projected_dmd_s"):
        projected = exact_dmd(measured, truncation_tol)
    with _timed(timings, "mode_recovery_s"):
        recovered, diags = recover_modes(
            projected.Phi, C, psi, RecoveryConfig(sparsity_K=sparsity_K)
        )
    return replace(projected, Phi=recovered), _residual_rows(diags)


def run_path(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one pathway and assemble its report.

    The full-state reference decomposition is always run alongside when
    full data exists; eigenvalue and mode tables compare the pathway
    output against it, and against planted ground truth when the system
    provides one.
    """
    timings = {}
    with _timed(timings, "generate_s"):
        data, truth = _materialize(cfg)

    needs_measurement = cfg.path in ("1B", "2A", "2B")
    C = None
    if needs_measurement:
        if cfg.measurement_kind is None or cfg.p is None:
            raise DimensionError(f"path {cfg.path} requires a measurement config")
        C = make_measurement(cfg.measurement_kind, cfg.p, data.n, cfg.measurement_seed)

    with _timed(timings, "reference_dmd_s"):
        reference = exact_dmd(data, cfg.truncation_tol)

    report = ExperimentReport(path=cfg.path, config=_config_echo(cfg, data))
    report.ranks["reference"] = reference.rank

    result = reference
    if cfg.path == "1B":
        with _timed(timings, "compressed_dmd_s"):
            result = compressed_dmd(data, C, cfg.truncation_tol)
    elif cfg.path in ("2A", "2B"):
        measured = measure_pair(C, data)
        K = _default_sparsity(cfg, truth)
        if cfg.path == "2A":
            result = run_2a(measured, C, data.grid, K, cfg.truncation_tol, timings)
        else:
            result, report.recovery_residuals = run_2b(
                measured, C, data.grid, K, cfg.truncation_tol, timings
            )
    elif cfg.path != "1A":
        raise DimensionError(f"unknown path {cfg.path!r}")

    report.ranks["result"] = result.rank

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

    if C is not None and data.grid is not None:
        report.coherence = mutual_coherence(C, SparseBasis(data.grid))

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
      left_pod            project onto the data's own orthonormal basis; same
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
    if data.n > 4096:
        raise DimensionError("invariance suite is for small data (n <= 4096)")
    truncation_tol = max(truncation_tol, INVARIANCE_TOL_FLOOR)
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

    def compare(name, other, mode_map=None):
        pairs, unmatched_a, unmatched_b = pair_eigenvalues(
            ref.lambdas, other.lambdas, ref.amplitudes
        )
        ref_modes = ref.Phi if mode_map is None else mode_map(ref.Phi)
        eig_dev = max((d for _, _, d in pairs), default=np.inf)
        mode_dev = max(
            (_phase_aligned_gap(other.Phi[:, j], ref_modes[:, i]) for i, j, _ in pairs),
            default=0.0,
        )
        record(name, eig_dev, mode_dev, matched=not unmatched_a and not unmatched_b)

    # column permutation
    perm = rng.permutation(data.m)
    permuted = SnapshotPair(data.X[:, perm], data.Xp[:, perm], data.dt, data.grid)
    compare("right_permutation", exact_dmd(permuted, truncation_tol))

    # random right-unitary mixing of columns
    P, _ = np.linalg.qr(rng.standard_normal((data.m, data.m)))
    mixed = SnapshotPair(data.X @ P, data.Xp @ P, data.dt, data.grid)
    compare("right_unitary", exact_dmd(mixed, truncation_tol))

    # unitary DFT applied to every snapshot
    fwd = lambda M: np.fft.fft(M, axis=0, norm="ortho")
    spectral = data.map_snapshots(fwd)
    compare("left_dft", exact_dmd(spectral, truncation_tol), mode_map=fwd)

    # projection onto the data's own orthonormal (POD) basis, from LAPACK
    # so the checks do not lean on the Gram route they check
    U = np.linalg.svd(data.X, full_matrices=False)[0][:, : ref.rank]
    to_pod = lambda M: U.conj().T @ M
    pod = data.map_snapshots(to_pod)
    compare("left_pod", exact_dmd(pod, truncation_tol), mode_map=to_pod)

    # operator identity C A_full = A_measured C on a small projected copy
    d = min(32, ref.rank)
    small = data.map_snapshots(lambda S: U[:, :d].conj().T @ S)
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
