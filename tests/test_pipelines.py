"""Pathway orchestration: report assembly, pathway agreement, invariances.

The reference pathway (full data, full decomposition) is the oracle for
every compressed or reconstructed variant, and an identity measurement
(every pixel sampled) is the oracle for the measurement plumbing itself.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csdmd import pipelines
from csdmd.dmd import (
    SnapshotPair,
    exact_dmd,
    measure_pair,
    mode_alignment,
    pair_eigenvalues,
)
from csdmd.errors import BadDimensions, DimensionError, NoProgress
from csdmd.pipelines import (
    ExperimentConfig,
    run_2a,
    run_path,
    verify_invariance_suite,
)
from csdmd.recovery import RecoveryConfig
from csdmd.sensing import SensingOperator, SparseBasis, make_measurement
from csdmd.systems import (
    DoubleGyreParams,
    FourierLtiSystem,
    generate_fourier_lti,
    generate_gyre_snapshots,
    make_fourier_lti,
)


def random_consistent_pair(n, m, seed, dt=0.1, grid=None):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
    X = rng.standard_normal((n, m))
    return SnapshotPair(X=X, Xp=A @ X, dt=dt, grid=grid)


def two_wave_system(amps, m=24, seed=0):
    return FourierLtiSystem(
        grid=(16, 16), K=2, wavenumbers=((1, 2), (3, 5)),
        mu=np.array([-0.05 + 3.1j, -0.2 + 7.4j]),
        init_amps=np.asarray(amps, dtype=complex), dt=0.05, m=m,
    )


def test_reference_path_report():
    data = random_consistent_pair(24, 30, seed=0)
    report = run_path(ExperimentConfig(system=data, path="1A"))
    assert report.ranks["reference"] == report.ranks["result"]
    assert report.eigen_table == []
    assert report.unmatched_reference == []
    assert report.coherence is None
    assert report.config["system"] == "SnapshotPair"
    assert report.config["n"] == 24 and report.config["m"] == 30
    assert report.config["grid"] is None
    assert "reference_dmd_s" in report.timings


def test_identity_measurement_reproduces_reference():
    data = random_consistent_pair(24, 30, seed=1)
    report = run_path(
        ExperimentConfig(
            system=data, path="1B", measurement_kind="pixel", p=24,
            measurement_seed=0, truncation_tol=1e-6,
        )
    )
    assert report.ranks["result"] == report.ranks["reference"]
    assert len(report.eigen_table) == report.ranks["reference"]
    for row in report.eigen_table:
        assert row["abs_delta"] <= 1e-10
    assert min(report.mode_alignments) >= 1.0 - 1e-10
    assert report.unmatched_reference == []
    assert report.unmatched_result == []


def test_measured_paths_require_measurement_config():
    data = random_consistent_pair(8, 12, seed=2)
    with pytest.raises(BadDimensions):
        run_path(ExperimentConfig(system=data, path="1B"))


def test_unknown_path_rejected():
    data = random_consistent_pair(8, 12, seed=2)
    with pytest.raises(BadDimensions):
        run_path(ExperimentConfig(system=data, path="9Z"))


def test_planted_truth_tables():
    cfg = ExperimentConfig(
        system=make_fourier_lti(nx=32, ny=32, K=3, dt=0.05, m=40, seed=6),
        path="1A", truncation_tol=1e-6,
    )
    report = run_path(cfg)
    assert report.ranks["reference"] == 6
    assert len(report.truth_table) == 6
    for row in report.truth_table:
        assert row["abs_delta"] <= 1e-8
    assert min(report.truth_alignments) >= 1.0 - 1e-8


def test_pair_eigenvalues_identical_results():
    data = random_consistent_pair(12, 20, seed=3)
    res = exact_dmd(data, 1e-6)
    pairs, un_a, un_b = pair_eigenvalues(res.lambdas, res.lambdas, res.amplitudes)
    assert un_a == [] and un_b == []
    assert len(pairs) == len(res.lambdas)
    # pairing is a bijection at zero distance
    assert sorted(j for _, j, _ in pairs) == list(range(len(res.lambdas)))
    assert max(d for _, _, d in pairs) == 0.0


def test_pair_eigenvalues_permuted_results():
    data = random_consistent_pair(12, 20, seed=4)
    res = exact_dmd(data, 1e-6)
    rng = np.random.default_rng(7)
    perm = rng.permutation(len(res.lambdas))
    pairs, un_a, un_b = pair_eigenvalues(
        res.lambdas, res.lambdas[perm], res.amplitudes
    )
    assert un_a == [] and un_b == []
    for i, j, dist in pairs:
        assert perm[j] == i
        assert dist <= 1e-14


def test_pair_eigenvalues_lists_lost_modes():
    # a measurement that annihilates one planted wave leaves its conjugate
    # eigenvalue pair unmatched; the dominant surviving wave still pairs up
    sys = two_wave_system(amps=(0.05 + 0.02j, 2.0 - 1.0j))
    data, truth = generate_fourier_lti(sys)
    reference = exact_dmd(data, 1e-6)
    dead = np.column_stack([truth.atoms[:, 0].real, truth.atoms[:, 0].imag])
    Q, _ = np.linalg.qr(dead)
    rng = np.random.default_rng(21)
    G = rng.standard_normal((8, data.n))
    C = G - (G @ Q) @ Q.T
    measured = exact_dmd(SnapshotPair(X=C @ data.X, Xp=C @ data.Xp, dt=data.dt), 1e-6)
    assert measured.rank == 2
    pairs, un_a, _ = pair_eigenvalues(
        reference.lambdas, measured.lambdas, reference.amplitudes
    )
    assert len(pairs) == 2
    assert max(d for _, _, d in pairs) <= 1e-8
    lost = np.sort_complex(reference.lambdas[un_a])
    np.testing.assert_allclose(
        lost, np.sort_complex(truth.lambdas[:2]), atol=1e-8
    )


def test_compress_first_and_recover_last_share_spectrum():
    # pathways that decompose the measured pair must agree eigenvalue by
    # eigenvalue; they differ only in how modes are produced
    sys = make_fourier_lti(nx=16, ny=16, K=3, dt=0.05, m=30, seed=9)
    spectra = {}
    for path in ("1B", "2B"):
        report = run_path(
            ExperimentConfig(
                system=sys, path=path, measurement_kind="gaussian", p=12,
                measurement_seed=5, truncation_tol=1e-6,
            )
        )
        assert report.unmatched_result == []
        spectra[path] = np.sort_complex(
            [row["lambda_projected"] for row in report.eigen_table]
        )
    np.testing.assert_allclose(spectra["1B"], spectra["2B"], atol=1e-8)


def test_snapshot_reconstruction_path_matches_reference():
    # every column is 2K-sparse in the spectral basis, so reconstructing
    # all snapshots from generous gaussian measurements is near-exact and
    # the downstream decomposition agrees with the full-data one
    cfg = ExperimentConfig(
        system=make_fourier_lti(nx=32, ny=32, K=2, dt=0.05, m=20, seed=11),
        path="2A", measurement_kind="gaussian", p=32, measurement_seed=2,
        sparsity_K=4, truncation_tol=1e-6,
    )
    report = run_path(cfg)
    assert report.unmatched_reference == []
    assert len(report.eigen_table) == 4
    for row in report.eigen_table:
        assert row["abs_delta"] <= 1e-6
    assert min(report.mode_alignments) >= 1.0 - 1e-6
    assert "snapshot_recovery_s" in report.timings


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshot_reconstruction_default_sparsity(seed):
    # no sparsity_K: a real snapshot of K planted waves is 2K-sparse
    cfg = ExperimentConfig(
        system=make_fourier_lti(nx=64, ny=64, K=5, m=40, seed=seed),
        path="2A", measurement_kind="pixel", p=200, measurement_seed=seed,
        truncation_tol=1e-6,
    )
    report = run_path(cfg)
    assert report.unmatched_reference == []
    assert len(report.truth_table) == 10
    # 2A fits through the same rank cut as 1A, so 1A's truth error is its
    # rounding floor: seed 1 keeps sigma_r / sigma_0 ~ 6e-6, and 1A reads
    # 5.5e-7 there.  Over seeds 0-15 the 2A error stayed within 2.3 times 1A's.
    full = run_path(replace(cfg, path="1A"))
    floor = max(row["abs_delta"] for row in full.truth_table)
    assert floor <= 1e-6
    assert max(row["abs_delta"] for row in report.truth_table) <= 4 * floor


@pytest.mark.parametrize("path", ["2A", "2B"])
def test_sparse_pathway_without_planted_truth_needs_a_sparsity(path):
    # no truth to take K from, so it must be given, as the CLI's --sparsity is
    cfg = ExperimentConfig(
        system=random_consistent_pair(64, 10, seed=0, grid=(8, 8)), path=path,
        measurement_kind="pixel", p=32, measurement_seed=0,
    )
    with pytest.raises(DimensionError, match="sparsity_K"):
        run_path(cfg)


@pytest.mark.parametrize("path, system, K", [
    ("3C", "waves", None), ("2A", "gyre", None), ("2B", "pair", None),
    ("2A", "waves", 0), ("2B", "waves", 0), ("2A", "waves", -2), ("2B", "waves", -2),
    ("2B", "waves", 2.5),
], ids=["unknown-path", "2A-gyre-without-sparsity", "2B-pair-without-sparsity",
        "2A-sparsity-0", "2B-sparsity-0", "2A-sparsity--2", "2B-sparsity--2",
        "2B-sparsity-2.5"])
def test_run_path_refuses_a_bad_config_before_any_work(monkeypatch, path, system, K):
    # neither the data nor the reference fit is made for a config that
    # cannot run: the refusal needs only the config, a sparsity below 1 or
    # not an integer too
    system = {
        "waves": make_fourier_lti(nx=16, ny=16, K=2, m=20, seed=0),
        "gyre": DoubleGyreParams(grid=(16, 8)),
        "pair": random_consistent_pair(64, 10, seed=0, grid=(8, 8)),
    }[system]
    work = []
    for name in ("exact_dmd", "_materialize"):
        step = getattr(pipelines, name)
        monkeypatch.setattr(pipelines, name,
                            lambda *a, step=step, name=name: work.append(name) or step(*a))
    cfg = ExperimentConfig(system=system, path=path, measurement_kind="pixel", p=32,
                           measurement_seed=0, sparsity_K=K)
    with pytest.raises(DimensionError, match="unknown path" if path == "3C" else "sparsity_K"):
        run_path(cfg)
    assert work == []


def test_compressed_run_path_reads_its_coherence_from_the_one_operator(monkeypatch):
    # 2A and 2B recover through the operator; 1B builds it for its coherence
    built = []

    class Counted(SensingOperator):
        def __init__(self, C, psi):
            built.append((C, psi))
            super().__init__(C, psi)

    monkeypatch.setattr(pipelines, "SensingOperator", Counted)
    report = run_path(ExperimentConfig(
        system=make_fourier_lti(nx=16, ny=16, K=2, m=20, seed=0), path="1B",
        measurement_kind="gaussian", p=60, measurement_seed=1, truncation_tol=1e-6,
    ))
    assert len(built) == 1
    assert report.coherence == SensingOperator(*built[0]).coherence


def count_joint_solves(monkeypatch):
    """The shape of each target run_2a hands to cosamp, in call order."""
    shapes = []
    cosamp = pipelines.cosamp

    def counted(op, y, cfg):
        shapes.append(np.shape(y))
        return cosamp(op, y, cfg)

    monkeypatch.setattr(pipelines, "cosamp", counted)
    return shapes


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_dense_measurement_keeps_the_shift(kind, monkeypatch):
    # a separate C X' differs from C X by ~1e-15 in the shared columns at
    # this small p, which would give the measured block 2m columns
    data, _ = generate_fourier_lti(make_fourier_lti(nx=32, ny=32, K=2, m=20, seed=11))
    C = make_measurement(kind, 32, data.n, seed=2)
    measured = measure_pair(C, data)
    np.testing.assert_array_equal(measured.X[:, 1:], measured.Xp[:, :-1])
    # Y is C S, one product over the m+1 distinct snapshots
    CS = C.payload @ data.S
    np.testing.assert_array_equal(measured.X, CS[:, : data.m])
    np.testing.assert_array_equal(measured.Xp, CS[:, 1:])
    shapes = count_joint_solves(monkeypatch)
    op = SensingOperator(C, SparseBasis(data.grid))
    result, _ = run_2a(measured, op, RecoveryConfig(4), 1e-6)
    # one joint solve on the p x r measured range, not one per snapshot
    assert result.rank == 4 and shapes == [(C.p, 4)]


def test_snapshot_reconstruction_of_real_measurements_is_real():
    # real pixel samples of a real field: 2A decomposes the real part of the
    # reconstructions, so Atilde is real and eigenvalues pair up exactly
    data, _ = generate_fourier_lti(make_fourier_lti(nx=32, ny=32, K=2, m=20, seed=11))
    C = make_measurement("pixel", 100, data.n, seed=2)
    op = SensingOperator(C, SparseBasis(data.grid))
    result, _ = run_2a(measure_pair(C, data), op, RecoveryConfig(4), 1e-6)
    assert result.rank == 4
    assert not np.iscomplexobj(result.Atilde)
    lambdas = result.lambdas.tolist()
    assert set(lambdas) == {z.conjugate() for z in lambdas}


def test_snapshot_reconstruction_solves_the_measured_range_once(monkeypatch):
    # a time series has m+1 distinct snapshots; permuting the columns of
    # the pair breaks the shift, leaving 2m of them.  measure_pair keeps
    # the shift bit for bit.  Either way 2A recovers only the rank-4 range
    # of the measured block, in one joint solve.
    data, _ = generate_fourier_lti(make_fourier_lti(nx=32, ny=32, K=2, m=20, seed=11))
    C = make_measurement("pixel", 100, data.n, seed=2)
    measured = measure_pair(C, data)
    reverse = np.arange(data.m)[::-1]
    permuted = SnapshotPair(
        X=measured.X[:, reverse], Xp=measured.Xp[:, reverse], dt=data.dt
    )
    assert (measured.S.shape[1], permuted.S.shape[1]) == (data.m + 1, 2 * data.m)
    op = SensingOperator(C, SparseBasis(data.grid))
    shapes = count_joint_solves(monkeypatch)
    spectra = []
    for pair in (measured, permuted):
        shapes.clear()
        spectra.append(run_2a(pair, op, RecoveryConfig(4), 1e-6)[0].lambdas)
        assert shapes == [(C.p, 4)]
    pairs, un_a, un_b = pair_eigenvalues(*spectra)
    assert not un_a and not un_b and max(d for _, _, d in pairs) <= 1e-6


def test_snapshot_reconstruction_ignores_the_block_layout():
    # run_path measures into a C-order block, the CLI reads an F-order one;
    # the Gram route would amplify their last-bit differences
    data, _ = generate_fourier_lti(make_fourier_lti(nx=32, ny=32, K=2, m=20, seed=0))
    C = make_measurement("pixel", 100, data.n, seed=1)
    measured = measure_pair(C, data)
    op, recovery = SensingOperator(C, SparseBasis(data.grid)), RecoveryConfig(4)
    spectra = [
        run_2a(SnapshotPair.series(layout(measured.S), data.dt), op, recovery, 1e-7)[0].lambdas
        for layout in (np.ascontiguousarray, np.asfortranarray)
    ]
    assert spectra[0].tobytes() == spectra[1].tobytes()


def fit_2a_and_rebuild(measured, op, K, tol, monkeypatch):
    """run_2a's fit and, as the reference, exact DMD of the n x (m+1)
    snapshots Z V^H rebuilt from the same joint recovery Z."""
    seen = []
    cosamp = pipelines.cosamp

    def spied(op, y, cfg):
        seen.append((y, cosamp(op, y, cfg)))
        return seen[-1][1]

    monkeypatch.setattr(pipelines, "cosamp", spied)
    result, _ = run_2a(measured, op, RecoveryConfig(K), tol)
    (U_sigma, joint), = seen
    S = np.asfortranarray(measured.S)
    Vh = np.linalg.lstsq(U_sigma, S, rcond=None)[0]
    block = (joint.spatial.real if np.isrealobj(S) else joint.spatial) @ Vh
    rebuilt = SnapshotPair.from_block(block, measured.lag, measured.dt, op.psi.grid)
    return result, exact_dmd(rebuilt, tol)


def desk_2a_problem():
    """Desk-scale 2A: 128 x 128 planted waves, m = 200, Gaussian p = 112."""
    data, _ = generate_fourier_lti(make_fourier_lti(nx=128, ny=128, K=5, m=200, seed=1))
    C = make_measurement("gaussian", 112, data.n, seed=2)
    return data, measure_pair(C, data), SensingOperator(C, SparseBasis(data.grid))


@pytest.mark.parametrize("fixture", ["pixel-32x32", "desk-seed-1"])
def test_snapshot_reconstruction_fits_what_the_rebuilt_snapshots_give(fixture, monkeypatch):
    # DMD is invariant to left isometries: with Z = Q R, exact DMD of R V^H
    # with its modes mapped through Q is exact DMD of Z V^H.  Each mode may
    # differ by a complex factor, so the modes are compared times their
    # amplitudes.
    if fixture == "desk-seed-1":
        _, measured, op = desk_2a_problem()
        K = 10
    else:
        data, _ = generate_fourier_lti(make_fourier_lti(nx=32, ny=32, K=2, m=20, seed=11))
        C = make_measurement("pixel", 100, data.n, seed=2)
        measured, op, K = measure_pair(C, data), SensingOperator(C, SparseBasis(data.grid)), 4
    result, rebuilt = fit_2a_and_rebuild(measured, op, K, 1e-6, monkeypatch)
    assert result.rank == rebuilt.rank == K
    pairs, un_a, un_b = pair_eigenvalues(rebuilt.lambdas, result.lambdas, rebuilt.amplitudes)
    assert not un_a and not un_b and max(d for _, _, d in pairs) <= 1e-12
    i, j = [a for a, _, _ in pairs], [b for _, b, _ in pairs]
    expected = rebuilt.Phi[:, i] * rebuilt.amplitudes[i]
    fitted = result.Phi[:, j] * result.amplitudes[j]
    assert np.linalg.norm(fitted - expected) <= 1e-10 * np.linalg.norm(expected)


def test_desk_scale_snapshot_reconstruction_forms_no_state_sized_block():
    # the fit runs on the r-row factor R V^H: rebuilding the n x (m+1)
    # snapshots Z V^H and fitting them peaked at 36.1 MB here, 9.4 MB without
    data, measured, op = desk_2a_problem()
    tracemalloc.start()
    try:
        result, _ = run_2a(measured, op, RecoveryConfig(10), 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rank == 10
    assert peak < data.S.nbytes


def test_desk_scale_snapshot_reconstruction_meets_the_truth_bounds():
    # 128 x 128, m = 200: past the n <= 4096, m <= 64 limit the per-snapshot
    # route had; one joint solve meets criterion 2's bounds
    cfg = ExperimentConfig(
        system=make_fourier_lti(nx=128, ny=128, K=5, m=200, seed=1),
        path="2A", measurement_kind="gaussian", p=112, measurement_seed=2,
        sparsity_K=10,
    )
    report = run_path(cfg)
    assert report.ranks["result"] == 10 and len(report.truth_table) == 10
    assert max(row["abs_delta"] for row in report.truth_table) <= 1e-6
    assert min(report.truth_alignments) >= 0.99


@pytest.mark.parametrize("path, K", [("2B", 30), ("2A", 60)], ids=["2B", "2A"])
def test_paper_scale_gyre_sparse_pathways(path, K):
    # 512 x 256 grid, 2500 pixels: no step may hold a p x n dense matrix,
    # and 2A fits the r-row factor of its recovery, not n x (m+1) snapshots
    report = run_path(
        ExperimentConfig(
            system=DoubleGyreParams(), path=path, measurement_kind="pixel",
            p=2500, measurement_seed=0, sparsity_K=K, truncation_tol=1e-4,
        )
    )
    assert report.coherence == 1.0 / np.sqrt(512 * 256)
    assert report.unmatched_reference == [] and report.unmatched_result == []
    assert max(row["abs_delta"] for row in report.eigen_table) <= 1e-3
    assert min(report.mode_alignments) >= 0.95


def test_paper_scale_gyre_modes_are_stable_under_last_bit_changes():
    # all five gyre eigenvalues are real, so each measured mode is real and
    # its proxy ties at k and -k: the atom-wise prune chose between the two
    # on last bits, and a 1e-11 change moved mode 3 by 1.8e-4 in alignment
    data = generate_gyre_snapshots(DoubleGyreParams())
    C = make_measurement("pixel", 2500, data.n, seed=0)
    op = SensingOperator(C, SparseBasis(data.grid))
    measured = measure_pair(C, data)
    fit = lambda pair: pipelines.run_2b(pair, op, RecoveryConfig(30), 1e-4)[0].Phi
    base = fit(measured)
    rng = np.random.default_rng(7)
    for _ in range(3):
        S = measured.S * (1 + 1e-11 * rng.standard_normal(measured.S.shape))
        moved = fit(SnapshotPair.from_block(S, measured.lag, measured.dt))
        aligns = [mode_alignment(a, b) for a, b in zip(base.T, moved.T)]
        assert len(aligns) == 5 and min(aligns) >= 1 - 1e-10


def test_snapshot_reconstruction_of_a_large_random_block_fails_numerically():
    # 2A has no size limit: 16 Gaussian measurements of a random 1024 x 65
    # pair are not 2-row-sparse, so the joint recovery gives up
    data = random_consistent_pair(1024, 65, seed=5, grid=(32, 32))
    cfg = ExperimentConfig(
        system=data, path="2A", measurement_kind="gaussian", p=16,
        measurement_seed=0, sparsity_K=2,
    )
    with pytest.raises(NoProgress):
        run_path(cfg)


def test_sparse_paths_need_grid():
    data = random_consistent_pair(64, 12, seed=6)  # no grid metadata
    for path in ("2A", "2B"):
        cfg = ExperimentConfig(
            system=data, path=path, measurement_kind="gaussian", p=16,
            measurement_seed=0, sparsity_K=2,
        )
        with pytest.raises(DimensionError, match="the sparse basis needs grid metadata"):
            run_path(cfg)


def test_mode_recovery_diagnostics_and_coherence():
    cfg = ExperimentConfig(
        system=two_wave_system(amps=(1.0 + 0.5j, 0.8 - 0.3j)),
        path="2B", measurement_kind="pixel", p=10, measurement_seed=8,
        truncation_tol=1e-6,
    )
    report = run_path(cfg)
    assert report.ranks["result"] == 4
    assert len(report.recovery_residuals) == 4
    for j, entry in enumerate(report.recovery_residuals):
        assert entry["mode"] == j
        assert entry["residual"] <= 1e-8
        assert entry["iters"] >= 1
    # point samples against the unitary spectral basis: flat coherence
    assert report.coherence == pytest.approx(1.0 / 16.0)
    assert min(report.truth_alignments) >= 1.0 - 1e-8


def test_report_file_and_determinism(tmp_path):
    def once(out):
        return run_path(
            ExperimentConfig(
                system=two_wave_system(amps=(1.0 + 0.5j, 0.8 - 0.3j)),
                path="1B", measurement_kind="gaussian", p=12,
                measurement_seed=5, truncation_tol=1e-6, out_dir=str(out),
            )
        )

    d1 = once(tmp_path / "a").to_dict()
    d2 = once(tmp_path / "b").to_dict()
    d1.pop("timings")
    d2.pop("timings")
    from csdmd.io import dumps_report

    assert dumps_report(d1) == dumps_report(d2)

    loaded = json.loads((tmp_path / "a" / "report.json").read_text())
    assert loaded["schema"] == "csdmd-report/1"
    assert loaded["path"] == "1B"
    keys = list(loaded.keys())
    assert keys[0] == "schema" and keys[-1] == "timings"


def test_invariance_suite_on_generic_data():
    data = random_consistent_pair(24, 40, seed=1)
    checks = verify_invariance_suite(data, seed=0)
    names = {c["name"] for c in checks}
    assert names == {
        "right_permutation", "right_unitary", "left_dft", "left_pod",
        "projection_commutes",
    }
    for c in checks:
        assert c["passed"], (c["name"], c["eig_dev"], c["mode_dev"])


def test_invariance_suite_on_planted_waves():
    data, _ = generate_fourier_lti(
        make_fourier_lti(nx=16, ny=16, K=2, dt=0.05, m=30, seed=2)
    )
    for c in verify_invariance_suite(data, seed=3):
        assert c["passed"], (c["name"], c["eig_dev"], c["mode_dev"])


def test_invariance_suite_passes_on_a_128_by_64_double_gyre():
    data = generate_gyre_snapshots(DoubleGyreParams(grid=(128, 64)))
    assert data.n == 8192
    for c in verify_invariance_suite(data):
        assert c["passed"], (c["name"], c["eig_dev"], c["mode_dev"])


def test_invariance_suite_holds_one_transformed_copy_at_a_time():
    # each transformed pair is built when its check runs and released after
    # its fit, and each is written once into its own block: the permuted
    # pair by one gather, the unitary one by one product S B, and the DFT'd
    # series 16 columns per np.fft.fft call.  The traced peak reads ~2.7
    # times the series bytes (~2.6 with X P and X' P written apart, when
    # neither B nor the POD basis lived through the loop); one np.fft.fft
    # call over the whole series (a complex copy of it beside its complex
    # result) read 4.2, and holding every copy to the end 8.2
    data = generate_gyre_snapshots(DoubleGyreParams(grid=(128, 64)))
    tracemalloc.start()
    try:
        checks = verify_invariance_suite(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c["passed"] for c in checks] == [True] * 5
    assert peak / data.S.nbytes <= 3


def test_invariance_suite_holds_no_n_row_copy_at_the_pod_fit(monkeypatch):
    # at the left_pod fit only the n x r POD basis and the r x (m+1)
    # projected pair are resident beside the reference fit, 0.34 times the
    # series; LAPACK's SVD of X, which this check once took its basis from,
    # kept an n x m U resident through a view: 1.27 times the series
    data = generate_gyre_snapshots(DoubleGyreParams(grid=(128, 64)))
    resident = []
    fit = pipelines.exact_dmd

    def spied(pair, tol):
        if pair.n != data.n:
            resident.append(tracemalloc.get_traced_memory()[0])
        return fit(pair, tol)

    monkeypatch.setattr(pipelines, "exact_dmd", spied)
    tracemalloc.start()
    try:
        checks = verify_invariance_suite(data)
    finally:
        tracemalloc.stop()
    assert [c["passed"] for c in checks] == [True] * 5
    assert len(resident) == 1 and resident[0] / data.S.nbytes <= 0.5


def test_pod_basis_of_the_reference_fit_spans_lapacks(monkeypatch):
    # left_pod projects onto X V sigma^-1 of the reference fit,
    # orthonormalised: on the 128 x 64 gyre it spans the rank-r left
    # singular basis of LAPACK's SVD, and the pair left_pod fits is its
    # projection of the series
    data = generate_gyre_snapshots(DoubleGyreParams(grid=(128, 64)))
    ref = exact_dmd(data, pipelines.INVARIANCE_TOL_FLOOR)
    V, sigma = ref.svd_used.V, ref.svd_used.sigma
    U = np.linalg.qr(data.X @ (V / sigma))[0]
    reference = np.linalg.svd(data.X, full_matrices=False)[0][:, : ref.rank]
    assert U.shape == reference.shape
    assert np.linalg.norm(U.T @ U - np.eye(ref.rank), 2) <= 1e-14
    # the sine of the largest principal angle between the two spans
    assert np.linalg.norm(U - reference @ (reference.T @ U), 2) <= 1e-10

    fits = []
    fit = pipelines.exact_dmd

    def spied(pair, tol):
        fits.append(pair)
        return fit(pair, tol)

    monkeypatch.setattr(pipelines, "exact_dmd", spied)
    checks = verify_invariance_suite(data)
    assert [c["passed"] for c in checks] == [True] * 5
    (pod,) = [pair for pair in fits if pair.n != data.n]
    np.testing.assert_allclose(pod.S, U.T @ data.S, rtol=0, atol=1e-10 * np.abs(pod.S).max())
